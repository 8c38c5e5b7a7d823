//! Reduced-scale smoke of all three workloads: every declared metric is
//! printed with its unit, no operation fails, traced passes are covered
//! by their layer spans, and count-class metrics repeat exactly across
//! traced runs and rayon thread counts.

#[allow(dead_code)]
#[path = "../src/metrics.rs"]
mod metrics;

use metrics::{Class, Def, END_TO_END, PER_LAYER};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["batch-cre", "sweep-yng", "live-yng"];
const SCALE: &str = "0.05";

/// Run the benchmark; return its last stdout line.
fn run(workload: &str, trace: bool, rayon_threads: &str) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", SCALE])
        .env("RAYON_NUM_THREADS", rayon_threads)
        .current_dir(dir)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: host line and result line expected"
    );
    assert!(lines[lines.len() - 2].starts_with("host {\"nproc\": "));
    lines.last().unwrap().to_string()
}

/// `(value, unit)` of metric `name` in a result line.
fn metric(line: &str, name: &str) -> Option<(f64, String)> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let value = rest[..rest.find(',')?].parse().ok()?;
    let rest = &rest[rest.find("\"unit\": \"")? + 9..];
    Some((value, rest[..rest.find('"')?].to_string()))
}

fn check_line(workload: &str, line: &str, table: &[Def]) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: {line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
    for d in table {
        let (value, unit) =
            metric(line, d.name).unwrap_or_else(|| panic!("{workload}: {} missing", d.name));
        assert_eq!(unit, d.unit, "{workload}: unit of {}", d.name);
        assert!(value.is_finite(), "{workload}: {} = {value}", d.name);
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    for w in WORKLOADS {
        let line = run(w, false, "2");
        check_line(w, &line, END_TO_END);
        for d in END_TO_END {
            assert!(
                metric(&line, d.name).unwrap().0 > 0.0,
                "{w}: {} is 0",
                d.name
            );
        }
    }
}

#[test]
fn traced_runs_print_every_layer_metric_and_repeat_their_counts() {
    for w in WORKLOADS {
        let a = run(w, true, "2");
        let b = run(w, true, "1");
        for line in [&a, &b] {
            check_line(w, line, PER_LAYER);
            assert_eq!(metric(line, "fail_frac").unwrap().0, 0.0, "{w}");
            assert!(
                metric(line, "trace.cover_pct").unwrap().0 >= 95.0,
                "{w}: {line}"
            );
        }
        for d in PER_LAYER.iter().filter(|d| d.class == Class::Count) {
            assert_eq!(
                metric(&a, d.name).unwrap().0,
                metric(&b, d.name).unwrap().0,
                "{w}: count {} differs between 2 and 1 rayon threads",
                d.name
            );
        }
    }
}

#[test]
fn benchmark_manifest_declares_exactly_these_metrics() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let decl = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        assert!(manifest.contains(&decl), "BENCHMARK.json lacks {decl}");
    }
    let declared = manifest.matches("\"unit\": ").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    for w in WORKLOADS {
        assert!(manifest.contains(&format!("\"name\": \"{w}\"")), "{w}");
    }
}
