//! The repository's benchmark: three paper-scale workloads driven from
//! one process through the crates' public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-cre|sweep-yng|live-yng --seed N --seconds S --trace 0|1 [--scale F]
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) prints the per-layer metrics, from spans the
//! benchmark records around every call it makes into a layer, and writes
//! the raw spans under `.bench_out/`. The last stdout line is the result
//! object; the line before it records the host and build, and a traced
//! run also names its count-class metrics (those that must repeat
//! exactly across runs and thread counts). `--scale` (default 1.0, the
//! paper's) shrinks the datasets for smoke tests; outputs are checked
//! against pinned checksums only at paper scale.

mod batch;
mod client;
mod common;
mod live;
mod metrics;
mod sweep;
mod trace;
mod util;

use common::RunCfg;
use metrics::{END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// A workload's entry point.
type Workload = fn(&RunCfg) -> metrics::Report;

/// The workloads, by name.
const WORKLOADS: &[(&str, Workload)] = &[
    ("batch-cre", batch::run),
    ("sweep-yng", sweep::run),
    ("live-yng", live::run),
];

const USAGE: &str =
    "usage: perfbench --workload batch-cre|sweep-yng|live-yng --seed N --seconds S --trace 0|1 [--scale F]";

fn parse_args() -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--scale" => {
                cfg.scale = value.parse().map_err(|_| bad("not a number"))?;
                if !(cfg.scale > 0.0 && cfg.scale <= 1.0) {
                    return Err(bad("must be in (0, 1]"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, cfg))
}

/// Write a traced run's raw spans (failures are reported, not fatal).
pub fn write_trace(c: &trace::Collected, workload: &str, cfg: &RunCfg) {
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("spans-{workload}-seed{}.tsv", cfg.seed));
    match common::write_spans(&path, c) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    let mut rows: Vec<_> = c.aggs.iter().collect();
    rows.sort_by_key(|(_, a)| std::cmp::Reverse(a.self_ns));
    eprintln!(
        "{:<28} {:>10} {:>14} {:>14}",
        "span", "count", "self ms", "total ms"
    );
    for (name, a) in rows {
        eprintln!(
            "{name:<28} {:>10} {:>14.3} {:>14.3}",
            a.count,
            a.self_ns as f64 / 1e6,
            a.total_ns as f64 / 1e6
        );
    }
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, run)) = WORKLOADS.iter().find(|(name, _)| *name == workload) else {
        eprintln!("error: unknown workload {workload:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    let mut report = run(&cfg);
    let table = if cfg.trace {
        report.set(
            "fail_frac",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
        let counts: Vec<String> = PER_LAYER
            .iter()
            .filter(|d| d.class == metrics::Class::Count)
            .map(|d| format!("\"{}\"", d.name))
            .collect();
        println!("classes {{\"count\": [{}]}}", counts.join(", "));
        PER_LAYER
    } else {
        END_TO_END
    };
    println!("host {}", util::host_facts());
    println!("{}", report.to_json(table));
    ExitCode::SUCCESS
}
