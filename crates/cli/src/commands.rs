//! Subcommand implementations.

use crate::args::Args;
use casbn_bench::figures::{
    fig10, fig11, fig3, fig4, fig5, fig67, fig8, fig9, text_stats, FigureRunner,
};
use casbn_bench::perfbase;
use casbn_bench::render::{
    render_fig10, render_fig11, render_fig3, render_fig4, render_fig5, render_fig67, render_fig8,
    render_fig9, render_text_stats,
};
use casbn_core::{
    Filter, ForestFireFilter, ParallelChordalCommFilter, ParallelChordalNoCommFilter,
    ParallelRandomWalkFilter, RandomEdgeFilter, RandomNodeFilter, SequentialChordalFilter,
};
use casbn_expr::{DatasetPreset, ExpressionMatrix, NetworkParams};
use casbn_fuzz::{ArgvSurface, Execution, FuzzConfig};
use casbn_graph::io::{read_edge_list, write_edge_list};
use casbn_graph::{store as graph_store, Graph, PartitionKind};
use casbn_mcode::{mcode_cluster, store as mcode_store, Cluster, McodeParams};
use casbn_serve::{
    install_sigint_handler, parse_script, run_script, serve_session, serve_tcp, shutdown_flag,
    ServeEngine, SessionConfig, BATCH_MAX,
};
use casbn_store::io::{append_durable, save_atomic, write_atomic, RealFs, RetryPolicy};
use casbn_store::{is_store_bytes, SectionKind, Store, StoreWriter};
use casbn_stream::{read_replay, synthesize_replay, write_replay, StreamConfig, StreamDriver};

/// Help text. The `cli_help` tests assert it documents every flag of
/// every [`COMMANDS`] row.
pub const USAGE: &str = "\
casbn — chordal adaptive sampling for biological networks

USAGE:
  casbn generate --preset yng|mid|unt|cre [--scale F] [--out FILE]
                 [--metrics FILE|-]
  casbn filter   --in FILE --algo ALGO [--ranks N] [--partition block|rr|bfs]
                 [--seed N] [--out FILE] [--metrics FILE|-]
  casbn cluster  --in FILE [--min-score F] [--min-size N] [--json]
                 [--metrics FILE|-]
  casbn stats    --in FILE [--centrality] [--metrics FILE|-]
  casbn compare  --original FILE --filtered FILE [--metrics FILE|-]
  casbn bench    [--scale F] [--repeats N] [--out FILE] [--baseline FILE]
                 [--threshold F] [--wall] [--summary FILE] [--metrics FILE|-]
  casbn figures  [--fig 3|4|5|6|7|67|8|9|10|11|text|all] [--scale F]
                 [--json DIR]
  casbn stream   (--preset P [--scale F] [--samples N] | --in FILE)
                 [--batch N] [--min-rho F] [--min-score F] [--json]
                 [--out FILE] [--replay-out FILE] [--expect-checksum N]
                 [--checkpoint FILE] [--resume FILE [--degraded]]
                 [--windows N] [--metrics FILE|-]
  casbn serve    (--in FILE | --preset P [--scale F] [--samples N])
                 [--script FILE] [--listen ADDR] [--threads N] [--batch N]
                 [--checkpoint FILE] [--expect-checksum N] [--metrics FILE|-]
  casbn pack     --in FILE --kind graph|replay|clusters --out FILE
  casbn inspect  --in FILE [--json] [--degraded] [--metrics FILE|-]
  casbn verify   --in FILE [--metrics FILE|-]
  casbn fuzz     [--target T|all] [--iters N] [--seed N] [--corpus DIR]
                 [--minimize FILE]
  casbn help

FLAGS:
  --preset     dataset preset calibrated to the paper's four networks
  --scale      dataset size fraction, 1.0 = full paper scale (default 1.0;
               `bench` and `figures` default to 0.15)
  --in         input network as a whitespace `u v` edge list (for
               `stream`: a sample-major replay file); `.csbn` binary
               containers are auto-detected by their magic bytes on
               every --in (and on compare's --original/--filtered)
  --out        output edge-list file (default: stdout); for `bench`, the
               JSON baseline to write/merge (e.g. BENCH_pipeline.json);
               for `stream`, the final chordal network (default: none)
  --algo       sampling filter (see ALGO below)
  --ranks      simulated processors for parallel filters (default 1)
  --partition  vertex distribution: block | rr (round-robin) | bfs (default bfs)
  --seed       RNG seed; equal seeds give identical output (default 0)
  --min-score  MCODE minimum cluster score (default 3.0, the paper's cut)
  --min-size   MCODE minimum cluster size (default 4)
  --json       emit clusters as JSON instead of a table (for `inspect`:
               the container layout as JSON; for `figures`: also write
               each figure's data series to DIR/<figure>.json)
  --fig        `figures`: which of the paper's figures to regenerate —
               3 to 11, 67 (Figs. 6 and 7 together), text (the in-text
               results) or all (default all)
  --centrality also print degree/betweenness centrality (slow on big graphs)
  --metrics    write a JSON snapshot of the run's internal telemetry
               (counters, histograms, span timers) to FILE, or print a
               human-readable table to stderr with `-`; the snapshot's
               \"deterministic\" section is bit-identical across thread
               counts, wall-clock times live under \"wall\"
  --original   unfiltered network for `compare`
  --filtered   filtered network for `compare`
  --repeats    `bench` timing repetitions, minimum wall time kept (default 3)
  --baseline   prior `bench` JSON to diff against; deterministic regressions
               (simulated time, output checksums) fail the run
  --threshold  `bench` relative regression threshold (default 0.5 = +50%)
  --wall       make `bench` gate on wall-clock regressions too (off by
               default: wall time is machine-dependent)
  --summary    write a markdown before/after wall-time comparison table
               against --baseline to FILE (the CI job-summary artifact)
  --samples    `stream` sample count of a synthesized replay (default:
               the preset's native array count)
  --batch      `stream` samples ingested per window (default 2); for
               `serve`: queries buffered per batch dispatch (default 16)
  --min-rho    `stream` correlation retention threshold (default 0.95)
  --replay-out write the synthesized replay to FILE (sample-major rows,
               re-playable with `casbn stream --in FILE`)
  --expect-checksum
               fail (exit 1) unless the run's deterministic checksum
               matches N — the CI streaming smoke gate (for `serve
               --script`: the FNV checksum over the response bytes)
  --checkpoint `stream`: write a resumable .csbn checkpoint of the
               accumulators/network/chordal state to FILE after the run
               (appended in place when FILE is already a container);
               `serve`: write one durable checkpoint per ingested window
               and a final one at shutdown
  --resume     `stream`: restore state from a checkpoint FILE and
               continue the replay exactly where it stopped
  --windows    `stream`: ingest at most N windows this run (pair with
               --checkpoint to suspend a long replay mid-stream)
  --degraded   best-effort open of a damaged container: a torn tail
               falls back to the newest fully valid generation and
               checksum-failing sections are quarantined (`stream
               --resume` continues from what survives with a stderr
               warning; `inspect` reports the damage)
  --kind       what `pack` reads from --in: graph (edge list), replay
               (sample-major matrix), clusters (cluster --json output)
  --script     `serve`: replay a query script (one query per line:
               neigh G | cluster G | rho U V | enrich G… | stats |
               ingest N) through an in-process session and print
               `responses N checksum C` — the deterministic client mode
  --listen     `serve`: accept concurrent read-only TCP sessions on ADDR
               (e.g. 127.0.0.1:7878) until SIGINT; a streaming source
               ingests concurrently, rotating snapshots per window
  --threads    `serve` worker threads per query batch (default 1; the
               response bytes are identical for any value)
  --target     `fuzz` input surface: edge-list | replay | csbn |
               csbn-lazy | csbn-append | csbn-crash | checkpoint-resume |
               csbn-serve | cli-argv | all (default all)
  --iters      `fuzz` iterations per target (default 1000)
  --corpus     `fuzz` corpus directory: DIR/<target>/ files replay as a
               regression suite, and new crashers are written back there
  --minimize   `fuzz`: shrink the failing input in FILE to a minimal
               crasher (needs a single --target); writes FILE.min

ALGO: chordal-seq | chordal-nocomm | chordal-comm | randomwalk |
      forestfire | randomnode | randomedge

`pack` converts text artifacts into .csbn containers; `inspect` prints a
container's section table; `verify` validates every checksum (exit 1 on
corruption). `stats` on a .csbn input reports the container metadata
alongside the graph statistics. `serve` holds the network, clusters and
rho/enrichment indices resident and answers queries over a
length-prefixed protocol (see `casbn serve --help`). `fuzz` runs the
deterministic structure-aware fuzzing and differential-oracle harness
over every input surface (see `casbn fuzz --help`). `figures` rebuilds the
paper's evaluation (Figs. 3–11 and the in-text results) at --scale.
";

/// `casbn bench --help` text (also asserted verbatim by the CLI snapshot
/// tests).
pub const BENCH_USAGE: &str = "\
casbn bench — pinned-seed perf baseline of the pipeline hot paths

Runs these workloads at a pinned scale and seed, then optionally diffs
the measurements against a committed baseline JSON:

  pearson-yng, pearson-cre      projection-pruned Pearson network build
  dsw-yng, dsw-cre              steady-state sequential DSW extraction
  mcode-yng, mcode-cre          steady-state MCODE clustering
  store-load-yng                eager .csbn load: checksums + CSR rebuild
  store-open-lazy-yng           lazy .csbn open: header + section table
  nocomm-yng-p1, nocomm-yng-p4, nocomm-yng-p8
                                no-comm parallel chordal filter, 1/4/8 ranks
  stream-yng                    YNG replay through the streaming pipeline
  inc-chordal-yng               incremental chordal delta maintenance
  serve-qps-yng                 serving under concurrent ingest

Every workload record carries the deterministic telemetry counters of
one instrumented pass (context for baseline diffs — never a gate).

USAGE:
  casbn bench [--scale F] [--repeats N] [--out FILE] [--baseline FILE]
              [--threshold F] [--wall] [--summary FILE] [--metrics FILE|-]

FLAGS:
  --scale      dataset size fraction (default 0.15; CI smoke uses 0.02)
  --repeats    timing repetitions, minimum wall time kept (default 3)
  --out        baseline JSON to write; merged with the file's other
               scales if it already exists (e.g. BENCH_pipeline.json)
  --baseline   prior baseline JSON to diff against; exits 1 on regression
  --threshold  relative regression threshold (default 0.5 = +50%)
  --wall       gate on wall-clock regressions too (default: only the
               machine-independent simulated times and output checksums)
  --summary    write a markdown before/after wall-time comparison table
               against --baseline to FILE (uploaded by CI as the
               bench-smoke job-summary artifact)
  --metrics    write the whole run's telemetry snapshot to FILE as JSON
               (`-` prints a human table to stderr)
";

/// `casbn stream --help` text (also asserted verbatim by the CLI snapshot
/// tests).
pub const STREAM_USAGE: &str = "\
casbn stream — replay a microarray sample stream through the incremental
pipeline

Ingests samples in --batch N windows: each window updates the online
Welford/co-moment correlation accumulators, applies the resulting edge
deltas to the live network, maintains the chordal subgraph
incrementally (admissibility-tested inserts, amortized regional DSW
rebuilds), re-clusters with MCODE, and reports per-window churn, cluster
stability and simulated/wall latency. A deterministic checksum over the
integer window metrics ends the table (in --json mode it is a field of
the document, which stays pipe-clean for `jq`).

The run is suspendable: --checkpoint writes the driver's complete state
(Welford/co-moment accumulators bit-exact, the membership bits the
network is rebuilt from, incremental chordal subgraph and clock, window
history) to a .csbn container, and --resume restores it and continues
the replay where it stopped — a resumed run reproduces the uninterrupted run's windows and
final checksum exactly. Pair --windows N with --checkpoint to suspend a
long replay mid-stream.

USAGE:
  casbn stream (--preset yng|mid|unt|cre [--scale F] [--samples N] | --in FILE)
               [--batch N] [--min-rho F] [--min-score F] [--json]
               [--out FILE] [--replay-out FILE] [--expect-checksum N]
               [--checkpoint FILE] [--resume FILE [--degraded]]
               [--windows N] [--metrics FILE|-]

FLAGS:
  --preset     synthesize the replay from a dataset preset's calibrated
               generator (deterministic per preset/scale/samples)
  --scale      dataset size fraction of the synthesized replay (default 1.0)
  --samples    sample count of the synthesized replay (default: the
               preset's native array count)
  --in         read the replay from FILE instead (one sample per line,
               whitespace-separated expression values, `#` comments; a
               .csbn container holding a matrix section is auto-detected)
  --batch      samples ingested per window (default 2)
  --min-rho    correlation retention threshold (default 0.95; the p-value
               cut stays at the paper's 0.0005)
  --min-score  MCODE minimum cluster score (default 3.0)
  --json       emit the run summary as JSON instead of a table
  --out        write the final chordal network as an edge list
  --replay-out write the synthesized replay to FILE and continue
  --expect-checksum
               exit 1 unless the deterministic checksum matches N
  --checkpoint write a resumable .csbn checkpoint to FILE after the run.
               A fresh FILE is written atomically (tmp + fsync + rename);
               when FILE already holds a .csbn container the new state
               is appended *in place* as a durable generation — payloads
               and table are fsynced before the committing footer, so a
               crash at any write leaves the previous generation intact
  --resume     restore state from a checkpoint FILE and continue (the
               batch size and thresholds come from the checkpoint, so
               --batch/--min-rho/--min-score are rejected here)
  --degraded   with --resume: if FILE is torn or bit-rotted, fall back
               to its newest fully valid generation (stderr warning)
               instead of refusing to resume
  --windows    ingest at most N windows this run (default: no limit)
  --metrics    write the run's telemetry snapshot to FILE as JSON
               (`-` prints a human table to stderr); the summary also
               reports per-window wall p50/p95/max

Exit codes: 0 ok, 1 checksum mismatch, 2 usage/configuration error.
";

/// `casbn fuzz --help` text (also asserted verbatim by the CLI snapshot
/// tests).
pub const FUZZ_USAGE: &str = "\
casbn fuzz — deterministic structure-aware fuzzing of every input surface

Each target wraps one untrusted-input surface (whitespace edge lists,
sample-major replay files, .csbn containers, stream checkpoints, CLI
argv vectors) behind a panic-catching, allocation-capped driver and a
differential oracle: inputs that parse must re-encode bit-identically,
and a checkpoint that resumes must replay to the uninterrupted run's
exact checksum. Campaigns are bit-deterministic — the per-target trace
checksum is reproducible from --seed alone, and any crasher reproduces
from its (target, seed, iteration) coordinates.

USAGE:
  casbn fuzz [--target T|all] [--iters N] [--seed N] [--corpus DIR]
             [--minimize FILE]

FLAGS:
  --target     one of edge-list | replay | csbn | csbn-lazy |
               csbn-append | csbn-crash | checkpoint-resume |
               csbn-serve | cli-argv, or all (default all)
  --iters      fuzzing iterations per target (default 1000)
  --seed       campaign seed; equal seeds give identical iteration
               traces (default 0)
  --corpus     corpus directory: every file under DIR/<target>/ is
               replayed first as a crasher-regression suite, and new
               crashers found this run are written back there
  --minimize   shrink the failing input in FILE to a minimal crasher
               that fails the same way (needs a single --target);
               writes FILE.min

Exit codes: 0 clean, 1 crashes found, 2 usage error.
";

/// `casbn serve --help` text (also asserted verbatim by the CLI snapshot
/// tests).
pub const SERVE_USAGE: &str = "\
casbn serve — resident concurrent query daemon over the pipeline

Holds the current network, its MCODE clusters and the rho/enrichment
indices resident, and answers queries over a length-prefixed
request/response protocol: gene neighborhood, cluster membership, rho
lookup, gene-set enrichment, snapshot statistics. Decoded queries are
grouped into batches of up to 16 and dispatched onto a worker pool; the
response bytes are identical for any --threads value.

A --preset (or .csbn matrix) source streams: `ingest N` requests advance
the replay window by window, each boundary atomically publishing a new
immutable snapshot — concurrent readers keep answering from the
snapshot they hold, never observing a half-published state — and, with
--checkpoint, a durable recovery point. A packed graph or edge-list
source serves a static epoch-0 snapshot and rejects ingest.

Modes (in precedence order):
  --script FILE  deterministic client: replay a query script through an
                 in-process session, print `responses N checksum C`
  --listen ADDR  daemon: accept concurrent read-only TCP sessions until
                 SIGINT; a streaming source ingests all windows
                 concurrently, rotating snapshots as readers query
  (neither)      pipe mode: one session over stdin/stdout (the
                 deterministic test transport); SIGINT or EOF drains
                 in-flight batches and writes a final checkpoint

USAGE:
  casbn serve (--in FILE | --preset yng|mid|unt|cre [--scale F] [--samples N])
              [--script FILE] [--listen ADDR] [--threads N] [--batch N]
              [--checkpoint FILE] [--expect-checksum N] [--metrics FILE|-]

FLAGS:
  --in         a .csbn container (a graph section serves static, a
               matrix section serves streaming) or an edge-list file
  --preset     synthesize a streaming replay from a dataset preset
  --scale      dataset size fraction of the synthesized replay (default 1.0)
  --samples    sample count of the synthesized replay (default: the
               preset's native array count)
  --script     query script FILE: one query per line — neigh G |
               cluster G | rho U V | enrich G G… | stats | ingest N;
               `#` comments and blank lines are skipped
  --listen     TCP listen address, e.g. 127.0.0.1:7878
  --threads    worker threads per batch dispatch (default 1)
  --batch      queries buffered per dispatch, 1..=16 (default 16)
  --checkpoint durable .csbn checkpoint FILE: written after every
               ingested window and at shutdown (atomic replace first,
               then appended in place as durable generations);
               `casbn stream --resume FILE` and `casbn serve --in`
               accept the result
  --expect-checksum
               with --script: exit 1 unless the FNV-1a checksum over
               the response bytes matches N — the CI serve-smoke gate
  --metrics    write the run's telemetry snapshot (serve.requests,
               serve.batch_size, serve.snapshot_rotations, per-query
               sim-cost counters) to FILE as JSON, `-` for stderr table

Exit codes: 0 ok, 1 checksum mismatch, 2 usage/configuration error.
";

/// The work of one validated command line; returns the exit code (`Err`
/// exits 2 with `error: …` on stderr).
pub type Job<'a> = Box<dyn FnOnce() -> Result<i32, String> + 'a>;

/// One `casbn` subcommand: its flags, its help page and its body. The
/// shared prelude ([`run`], [`fuzz_argv_check`]) derives dispatch, flag
/// validation and help from these rows. Adding a flag means adding it to
/// its row and a line to the help page; if it takes a typed value, the
/// body parses it before returning its [`Job`], which is what makes
/// [`fuzz_argv_check`] see the parse too.
pub struct Command {
    /// Subcommand name (`casbn <name>`).
    pub name: &'static str,
    /// Flags that take a value (`--key value`).
    pub valued: &'static [&'static str],
    /// Bare switches (`--key`).
    pub switches: &'static [&'static str],
    /// Page printed by `casbn <name> --help`.
    pub help: &'static str,
    /// The body, called on flags the prelude accepted. It parses and
    /// checks every flag value without touching a file (`Err` exits 2
    /// with `error: …` on stderr), then returns the [`Job`] that does
    /// the work.
    pub run: fn(&Args) -> Result<Job<'_>, String>,
}

/// Every subcommand, in `USAGE` order.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        valued: &["preset", "scale", "out", "metrics"],
        switches: &[],
        help: USAGE,
        run: run_generate,
    },
    Command {
        name: "filter",
        valued: &["in", "algo", "ranks", "partition", "seed", "out", "metrics"],
        switches: &[],
        help: USAGE,
        run: run_filter,
    },
    Command {
        name: "cluster",
        valued: &["in", "min-score", "min-size", "metrics"],
        switches: &["json"],
        help: USAGE,
        run: run_cluster,
    },
    Command {
        name: "stats",
        valued: &["in", "metrics"],
        switches: &["centrality"],
        help: USAGE,
        run: run_stats,
    },
    Command {
        name: "compare",
        valued: &["original", "filtered", "metrics"],
        switches: &[],
        help: USAGE,
        run: run_compare,
    },
    Command {
        name: "bench",
        valued: &[
            "scale",
            "repeats",
            "out",
            "baseline",
            "threshold",
            "summary",
            "metrics",
        ],
        switches: &["wall"],
        help: BENCH_USAGE,
        run: run_bench,
    },
    Command {
        name: "figures",
        valued: &["fig", "scale", "json"],
        switches: &[],
        help: USAGE,
        run: run_figures,
    },
    Command {
        name: "stream",
        valued: &[
            "preset",
            "scale",
            "samples",
            "in",
            "batch",
            "min-rho",
            "min-score",
            "out",
            "replay-out",
            "expect-checksum",
            "checkpoint",
            "resume",
            "windows",
            "metrics",
        ],
        switches: &["json", "degraded"],
        help: STREAM_USAGE,
        run: run_stream,
    },
    Command {
        name: "serve",
        valued: &[
            "in",
            "preset",
            "scale",
            "samples",
            "script",
            "listen",
            "threads",
            "batch",
            "checkpoint",
            "expect-checksum",
            "metrics",
        ],
        switches: &[],
        help: SERVE_USAGE,
        run: run_serve,
    },
    Command {
        name: "pack",
        valued: &["in", "kind", "out"],
        switches: &[],
        help: USAGE,
        run: run_pack,
    },
    Command {
        name: "inspect",
        valued: &["in", "metrics"],
        switches: &["json", "degraded"],
        help: USAGE,
        run: run_inspect,
    },
    Command {
        name: "verify",
        valued: &["in", "metrics"],
        switches: &[],
        help: USAGE,
        run: run_verify,
    },
    Command {
        name: "fuzz",
        valued: &["target", "iters", "seed", "corpus", "minimize"],
        switches: &[],
        help: FUZZ_USAGE,
        run: run_fuzz,
    },
];

/// The row for subcommand `name`: `Ok(None)` for the names that print
/// [`USAGE`] (`help`, `--help`, `-h`), `Err` for an unknown name.
fn lookup(name: &str) -> Result<Option<&'static Command>, String> {
    match COMMANDS.iter().find(|c| c.name == name) {
        Some(cmd) => Ok(Some(cmd)),
        None if matches!(name, "help" | "--help" | "-h") => Ok(None),
        None => Err(format!("unknown subcommand: {name}")),
    }
}

/// The prelude every subcommand shares: `None` when `--help`/`-h`
/// appears anywhere (help short-circuits parsing), else the parsed
/// flags. A typo'd or value-less flag is an error, never dropped: a
/// dropped flag could silently disable a gate or run a different
/// experiment than the one asked for.
fn prelude(cmd: &Command, argv: &[String]) -> Result<Option<Args>, String> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let args = Args::parse(argv)?;
    args.reject_unknown(cmd.valued, cmd.switches)?;
    Ok(Some(args))
}

/// Run `cmd` on its flags: prelude, body, then its job between
/// [`metrics_begin`] and [`metrics_finish`].
fn run_command(cmd: &Command, argv: &[String]) -> i32 {
    let args = match prelude(cmd, argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", cmd.help);
            return 0;
        }
        Err(e) => return fail(&e),
    };
    let job = match (cmd.run)(&args) {
        Ok(job) => job,
        Err(e) => return fail(&e),
    };
    let metrics = metrics_begin(&args);
    job()
        .and_then(|code| metrics_finish(metrics).map(|()| code))
        .unwrap_or_else(|e| fail(&e))
}

/// `casbn ARGV…`: dispatch `argv` (subcommand first) through
/// [`COMMANDS`] and return the process exit code.
pub fn run(argv: &[String]) -> i32 {
    match lookup(argv.first().map_or("help", String::as_str)) {
        Ok(Some(cmd)) => run_command(cmd, &argv[1..]),
        Ok(None) => {
            print!("{USAGE}");
            0
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            2
        }
    }
}

/// In-process `casbn <name> ARGV…` for the row `name`.
fn run_named(name: &str, argv: &[String]) -> i32 {
    let cmd = lookup(name).ok().flatten();
    run_command(cmd.expect("a COMMANDS row"), argv)
}

/// `casbn generate ARGV…`, in process.
pub fn generate(argv: &[String]) -> i32 {
    run_named("generate", argv)
}

/// `casbn filter ARGV…`, in process.
pub fn filter(argv: &[String]) -> i32 {
    run_named("filter", argv)
}

/// `casbn cluster ARGV…`, in process.
pub fn cluster(argv: &[String]) -> i32 {
    run_named("cluster", argv)
}

/// `casbn stats ARGV…`, in process.
pub fn stats(argv: &[String]) -> i32 {
    run_named("stats", argv)
}

/// `casbn compare ARGV…`, in process.
pub fn compare(argv: &[String]) -> i32 {
    run_named("compare", argv)
}

/// `casbn stream ARGV…`, in process.
pub fn stream(argv: &[String]) -> i32 {
    run_named("stream", argv)
}

/// Validate a full `casbn` argv vector (subcommand plus flags) exactly
/// as [`run`] would — same table lookup, same prelude, same body — but
/// drop the body's [`Job`] unrun, so nothing executes and no file is
/// touched. This is the driver the fuzzing harness's `cli-argv` target
/// injects: it must return `Ok`/`Err`, never panic, on arbitrary argv
/// vectors.
pub fn fuzz_argv_check(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = lookup(argv.first().map_or("help", String::as_str))? else {
        return Ok(());
    };
    let Some(args) = prelude(cmd, &argv[1..])? else {
        return Ok(());
    };
    (cmd.run)(&args).map(drop)
}

/// The `cli-argv` fuzz target's view of the CLI: [`fuzz_argv_check`]
/// and every subcommand and flag name of [`COMMANDS`].
pub fn argv_surface() -> ArgvSurface {
    let mut flags: Vec<String> = Vec::new();
    for cmd in COMMANDS {
        for flag in cmd.valued.iter().chain(cmd.switches) {
            let flag = format!("--{flag}");
            if !flags.contains(&flag) {
                flags.push(flag);
            }
        }
    }
    ArgvSurface {
        check: fuzz_argv_check,
        subcommands: COMMANDS.iter().map(|c| c.name).collect(),
        flags,
    }
}

fn fail(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    2
}

/// `--scale` as a finite dataset fraction > 0 (`default` when absent).
fn scale(args: &Args, default: f64) -> Result<f64, String> {
    let scale: f64 = args.get_or("scale", default)?;
    if !scale.is_finite() || scale <= 0.0 {
        return Err("need --scale > 0".into());
    }
    Ok(scale)
}

/// `--ranks` as a simulated processor count > 0 (default 1).
fn ranks(args: &Args) -> Result<usize, String> {
    match args.get_or("ranks", 1)? {
        0 => Err("need --ranks > 0".into()),
        ranks => Ok(ranks),
    }
}

/// Route an artifact write through the crash-safe I/O layer: the bytes
/// land in `path.tmp`, are fsynced, renamed over `path`, and the parent
/// directory entry is fsynced — a kill at any instant leaves either the
/// old file or the complete new one on disk, never a torn mix. Every
/// CLI artifact write funnels through here (or through the store's
/// [`save_atomic`]/[`append_durable`] for `.csbn` containers).
fn write_artifact(path: &str, bytes: &[u8]) -> Result<(), String> {
    write_atomic(&RealFs, path, bytes, RetryPolicy::default())
        .map_err(|e| format!("write {path}: {e}"))
}

/// Does `path` already hold a `.csbn` container? Peeks at the magic
/// bytes only — the durable append path reads the rest itself.
fn is_csbn_file(path: &str) -> bool {
    use std::io::Read as _;
    let Ok(mut f) = std::fs::File::open(path) else {
        return false;
    };
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic).is_ok() && is_store_bytes(&magic)
}

/// Arm telemetry when `--metrics <file|->` is present: reset and enable
/// the process-wide registry so the final snapshot covers exactly this
/// run. Returns the destination for [`metrics_finish`].
fn metrics_begin(args: &Args) -> Option<&str> {
    let dest = args.get("metrics");
    if dest.is_some() {
        casbn_obs::reset();
        casbn_obs::set_enabled(true);
    }
    dest
}

/// Emit the armed snapshot: `-` renders the human table on stderr (so
/// stdout stays machine-readable), anything else writes the full JSON
/// document — deterministic and wall sections — to the named file.
fn metrics_finish(dest: Option<&str>) -> Result<(), String> {
    let Some(dest) = dest else { return Ok(()) };
    let snap = casbn_obs::snapshot();
    casbn_obs::set_enabled(false);
    if dest == "-" {
        eprint!("{}", snap.render_table());
    } else {
        write_artifact(dest, snap.to_json().as_bytes())?;
        eprintln!("wrote metrics {dest}");
    }
    Ok(())
}

/// Read a network from `path`, auto-detecting the `.csbn` binary
/// container by its magic bytes; anything else parses as a whitespace
/// edge list. Every graph-consuming subcommand (`filter`, `cluster`,
/// `stats`, `compare`) accepts either format transparently.
/// `on_container` runs on a successfully parsed container before the
/// graph section is decoded (`stats` interposes its metadata report
/// here); the single dispatch body keeps the format routing in one
/// place.
fn load_with(path: &str, on_container: impl FnOnce(&Store<'_>, usize)) -> Result<Graph, String> {
    let bytes = read(path)?;
    if is_store_bytes(&bytes) {
        // lazy open: the header/table validate up front in O(header),
        // and only the sections actually decoded get checksummed — a
        // corrupt graph payload still fails typed on first access
        let store = Store::open_lazy(&bytes).map_err(|e| format!("{path}: {e}"))?;
        on_container(&store, bytes.len());
        graph_store::load_first_graph(&store).map_err(|e| format!("{path}: {e}"))
    } else {
        let (g, _) = read_edge_list(&bytes[..], 0).map_err(|e| e.to_string())?;
        Ok(g)
    }
}

fn load(path: &str) -> Result<Graph, String> {
    load_with(path, |_, _| {})
}

/// The bytes of the input file `path`.
fn read(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("open {path}: {e}"))
}

fn save(g: &Graph, path: Option<&str>, header: &str) -> Result<(), String> {
    match path {
        Some(p) => {
            let mut buf = Vec::new();
            write_edge_list(g, &mut buf, Some(header)).map_err(|e| e.to_string())?;
            write_artifact(p, &buf)
        }
        None => {
            write_edge_list(g, std::io::stdout().lock(), Some(header)).map_err(|e| e.to_string())
        }
    }
}

/// Where `stream` and `serve` read from: `--in FILE` (format-sniffed by
/// the caller) or the replay synthesized from `--preset P [--scale F]
/// [--samples N]`.
enum Source<'a> {
    File(&'a str),
    Preset(DatasetPreset, f64, Option<usize>),
}

/// Resolve the `--in`/`--preset` source. Preset-only knobs given with
/// `--in` are rejected, not ignored: a user who believes they rescaled
/// the replay would pin a checksum for a different run than they think.
fn source(args: &Args) -> Result<Source<'_>, String> {
    match (args.get("in"), args.get("preset")) {
        (Some(_), Some(_)) => Err("--in and --preset are mutually exclusive".into()),
        (Some(path), None) => {
            for flag in ["scale", "samples"] {
                if args.get(flag).is_some() {
                    return Err(format!("--{flag} only applies to --preset, not --in files"));
                }
            }
            Ok(Source::File(path))
        }
        (None, Some(preset)) => Ok(Source::Preset(
            preset.parse()?,
            scale(args, 1.0)?,
            args.parsed("samples")?,
        )),
        (None, None) => Err("need --in FILE or --preset".into()),
    }
}

/// Write a checkpoint to `path`. When `path` already holds a `.csbn`
/// container the new state is appended *in place* as a durable
/// generation: only the suffix is written, payloads and table are
/// fsynced before the committing footer, and earlier generations
/// survive as a bit-exact prefix (a torn tail from an earlier crash is
/// truncated away first). Anything else is atomically replaced with a
/// fresh base-layout container. Returns whether it appended.
fn write_checkpoint(path: &str, w: &StoreWriter) -> Result<bool, String> {
    let policy = RetryPolicy::default();
    if !is_csbn_file(path) {
        save_atomic(&RealFs, path, w, policy).map_err(|e| format!("write {path}: {e}"))?;
        return Ok(false);
    }
    let out = append_durable(&RealFs, path, w, policy)
        .map_err(|e| format!("append checkpoint {path}: {e}"))?;
    if out.recovered_bytes > 0 {
        eprintln!(
            "warning: {path} had a torn tail; dropped {} byte(s) before appending",
            out.recovered_bytes
        );
    }
    Ok(true)
}

/// The `--expect-checksum N` gate: exit code 1 (and a stderr
/// diagnostic) when N was given and differs from `got`, else 0.
fn checksum_gate(want: Option<u64>, got: u64) -> i32 {
    match want {
        Some(want) if want != got => {
            eprintln!("checksum mismatch: expected {want}, got {got}");
            1
        }
        _ => 0,
    }
}

/// `casbn generate` — build a preset correlation network.
fn run_generate(args: &Args) -> Result<Job<'_>, String> {
    let preset: DatasetPreset = args.require("preset")?.parse()?;
    let scale = scale(args, 1.0)?;
    Ok(Box::new(move || {
        let ds = if (scale - 1.0).abs() < 1e-12 {
            preset.build()
        } else {
            preset.build_scaled(scale)
        };
        eprintln!(
            "{}: {} genes, {} edges ({} planted modules)",
            ds.name,
            ds.network.n(),
            ds.network.m(),
            ds.modules.len()
        );
        save(
            &ds.network,
            args.get("out"),
            &format!("{} correlation network (rho >= 0.95)", ds.name),
        )?;
        Ok(0)
    }))
}

/// `casbn filter` — apply a sampling filter to an edge-list network.
fn run_filter(args: &Args) -> Result<Job<'_>, String> {
    let input = args.require("in")?;
    let ranks = ranks(args)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let part: PartitionKind = args.get("partition").unwrap_or("bfs").parse()?;
    let algo = args.require("algo")?;
    let filter: Box<dyn Filter> = match algo {
        "chordal-seq" => Box::new(SequentialChordalFilter::new()),
        "chordal-nocomm" => Box::new(ParallelChordalNoCommFilter::new(ranks, part)),
        "chordal-comm" => Box::new(ParallelChordalCommFilter::new(ranks, part)),
        "randomwalk" => Box::new(ParallelRandomWalkFilter::new(ranks, part)),
        "forestfire" => Box::new(ForestFireFilter::default()),
        "randomnode" => Box::new(RandomNodeFilter::default()),
        "randomedge" => Box::new(RandomEdgeFilter::default()),
        other => return Err(format!("unknown algorithm {other}")),
    };
    Ok(Box::new(move || {
        let out = filter.filter(&load(input)?, seed);
        eprintln!(
            "{}: {} -> {} edges ({:.1}% retained, noise estimate {:.1}%); \
             borders {} dups {} msgs {} sim {:.3} ms",
            algo,
            out.stats.original_edges,
            out.stats.retained_edges,
            100.0 * out.retention(),
            100.0 * out.noise_estimate(),
            out.stats.border_edges,
            out.stats.duplicate_border_edges,
            out.stats.messages,
            out.stats.sim_makespan * 1e3,
        );
        save(&out.graph, args.get("out"), &format!("filtered by {algo}"))?;
        Ok(0)
    }))
}

/// `casbn cluster` — MCODE clusters of an edge-list network.
fn run_cluster(args: &Args) -> Result<Job<'_>, String> {
    let input = args.require("in")?;
    let params = McodeParams {
        min_score: args.get_or("min-score", 3.0)?,
        min_size: args.get_or("min-size", 4)?,
        ..Default::default()
    };
    Ok(Box::new(move || {
        let clusters = mcode_cluster(&load(input)?, &params);
        if args.has("json") {
            println!(
                "{}",
                serde_json::to_string_pretty(&clusters).map_err(|e| e.to_string())?
            );
        } else {
            println!(
                "{} clusters (score >= {})",
                clusters.len(),
                params.min_score
            );
            for (i, c) in clusters.iter().enumerate() {
                println!(
                    "#{:<3} score {:>6.2}  size {:>4}  density {:>5.2}  seed {}",
                    i + 1,
                    c.score,
                    c.size(),
                    c.density(),
                    c.seed
                );
            }
        }
        Ok(0)
    }))
}

/// Render a parsed container's metadata block: version, creator, and
/// the per-section kind/tag/size/checksum table. `inspect` prints it on
/// stdout as its report; `stats` prints it on stderr as a diagnostic
/// preamble so the statistics stay alone on stdout.
fn container_metadata(store: &Store<'_>, file_len: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "container       .csbn v{} (creator \"{}\", {} bytes)",
        store.version(),
        store.creator(),
        file_len
    );
    if store.is_appended() {
        let _ = writeln!(
            out,
            "layout          appended (generation {})",
            store.generation()
        );
    } else {
        let _ = writeln!(out, "layout          base");
    }
    if let Some(keep) = store.recovered_len() {
        let _ = writeln!(
            out,
            "degraded        torn tail: {keep} of {file_len} bytes valid ({} ignored)",
            file_len - keep
        );
    }
    if store.quarantined_count() > 0 {
        let _ = writeln!(
            out,
            "degraded        {} checksum-failing section(s) quarantined",
            store.quarantined_count()
        );
    }
    if store.is_lazy() {
        let _ = writeln!(
            out,
            "payloads        {} of {} verified (lazy open; `casbn verify` sweeps all)",
            store.sections_verified(),
            store.sections().len()
        );
    }
    let _ = writeln!(out, "sections        {}", store.sections().len());
    for (i, s) in store.sections().iter().enumerate() {
        let _ = writeln!(
            out,
            "  [{i}] {:<18} tag {:<4} {:>10} bytes  checksum {:#018x}{}",
            SectionKind::name_of(s.kind),
            s.tag,
            s.len,
            s.checksum,
            if store.section_quarantined(i) {
                "  QUARANTINED"
            } else {
                ""
            }
        );
    }
    out
}

/// Machine-readable `inspect --json` document, emitted with the
/// telemetry crate's JSON writer so the layout report and the metrics
/// snapshots share one formatting discipline. Checksums are hex strings
/// because u64 values exceed the exact-integer range of JSON doubles.
fn container_json(store: &Store<'_>, file_len: usize) -> String {
    let mut w = casbn_obs::json::JsonWriter::new();
    w.begin_object();
    w.key("version");
    w.value_u64(1);
    w.key("container");
    w.begin_object();
    w.key("format_version");
    w.value_u64(u64::from(store.version()));
    w.key("creator");
    w.value_str(store.creator());
    w.key("bytes");
    w.value_u64(file_len as u64);
    w.key("layout");
    w.value_str(if store.is_appended() {
        "appended"
    } else {
        "base"
    });
    w.key("generation");
    w.value_u64(store.generation());
    w.key("lazy");
    w.value_bool(store.is_lazy());
    w.key("degraded");
    w.value_bool(store.is_degraded());
    if let Some(keep) = store.recovered_len() {
        w.key("recovered_bytes");
        w.value_u64(keep as u64);
    }
    w.key("sections");
    w.begin_array();
    for (i, s) in store.sections().iter().enumerate() {
        w.begin_object();
        w.key("index");
        w.value_u64(i as u64);
        w.key("kind");
        w.value_str(SectionKind::name_of(s.kind));
        w.key("tag");
        w.value_u64(u64::from(s.tag));
        w.key("len");
        w.value_u64(s.len as u64);
        w.key("checksum");
        w.value_str(&format!("{:#018x}", s.checksum));
        w.key("verified");
        w.value_bool(store.section_verified(i));
        w.key("quarantined");
        w.value_bool(store.section_quarantined(i));
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.end_object();
    w.finish()
}

/// `casbn stats` — structural statistics of a network. On a `.csbn`
/// input the container metadata (section sizes, checksums, creator
/// version) is reported on stderr alongside the graph statistics, so
/// stdout stays parseable regardless of the input format.
fn run_stats(args: &Args) -> Result<Job<'_>, String> {
    let input = args.require("in")?;
    Ok(Box::new(move || {
        let g = load_with(input, |store, len| {
            eprint!("{}", container_metadata(store, len))
        })?;
        let (_, comps) = casbn_graph::algo::connected_components(&g);
        let tri = casbn_graph::algo::total_triangles(&g);
        let census = casbn_graph::algo::cycle_census(&g);
        println!("vertices        {}", g.n());
        println!("edges           {}", g.m());
        println!("density         {:.6}", g.density());
        println!("max degree      {}", g.max_degree());
        println!("components      {comps}");
        println!("triangles       {tri}");
        println!("indep. cycles   {}", census.independent_cycles);
        println!("tri-free edges  {}", census.triangle_free_edges);
        println!("chordal         {}", casbn_chordal::is_chordal(&g));
        if args.has("centrality") {
            let deg = casbn_graph::centrality::degree_centrality(&g);
            let bet = casbn_graph::centrality::betweenness_centrality(&g);
            let mut top: Vec<usize> = (0..g.n()).collect();
            top.sort_by(|&a, &b| bet[b].partial_cmp(&bet[a]).unwrap());
            println!("top betweenness vertices:");
            for &v in top.iter().take(10) {
                println!(
                    "  v{:<8} betweenness {:>10.1}  degree-centrality {:.4}",
                    v, bet[v], deg[v]
                );
            }
        }
        Ok(0)
    }))
}

/// `casbn bench` — run the pinned perf-baseline workloads and optionally
/// diff against a committed baseline JSON. Exit codes: 0 ok, 1 regression,
/// 2 usage/configuration error.
fn run_bench(args: &Args) -> Result<Job<'_>, String> {
    let scale = scale(args, perfbase::DEFAULT_SCALE)?;
    let repeats: usize = args.get_or("repeats", perfbase::DEFAULT_REPEATS)?;
    let threshold: f64 = args.get_or("threshold", perfbase::DEFAULT_THRESHOLD)?;
    if !threshold.is_finite() || threshold < 0.0 {
        return Err("need --threshold >= 0".into());
    }
    if args.get("summary").is_some() && args.get("baseline").is_none() {
        return Err("--summary needs --baseline to compare against".into());
    }
    Ok(Box::new(move || {
        eprintln!("running perf baseline at scale {scale} ({repeats} repeats)…");
        let suite = perfbase::run_suite(scale, repeats);
        // diagnostics: the timing table and diff report are for the
        // human watching the run, stdout stays free for machine output
        eprintln!(
            "{:<16} {:>12} {:>12} {:>10}",
            "workload", "wall ms", "sim ms", "checksum"
        );
        for r in &suite.results {
            eprintln!(
                "{:<16} {:>12.3} {:>12.3} {:>10}",
                r.name,
                r.wall_seconds * 1e3,
                r.sim_seconds * 1e3,
                r.checksum
            );
        }
        let mut code = 0;
        if let Some(path) = args.get("baseline") {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let base: perfbase::PerfBaseline =
                serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
            let report = perfbase::diff(&base, &suite, threshold, args.has("wall"));
            eprint!("{}", report.render());
            if let Some(md_path) = args.get("summary") {
                let md = perfbase::render_markdown(&base, &suite);
                write_artifact(md_path, md.as_bytes())?;
                eprintln!("wrote {md_path}");
            }
            if report.compared == 0 {
                return Err(format!("baseline {path} has no suite at scale {scale}"));
            }
            code = i32::from(report.is_regression());
        }
        if let Some(out) = args.get("out") {
            // an absent file starts a fresh baseline, but an existing file
            // that fails to parse must error — silently replacing it would
            // destroy the other scales' committed suites
            let existing: perfbase::PerfBaseline = match std::fs::read_to_string(out) {
                Ok(text) => serde_json::from_str(&text).map_err(|e| {
                    format!("existing baseline {out} is unreadable ({e}); refusing to overwrite")
                })?,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Default::default(),
                Err(e) => return Err(format!("read {out}: {e}")),
            };
            let merged = perfbase::merge(existing, suite);
            let json = serde_json::to_string_pretty(&merged).map_err(|e| e.to_string())?;
            write_artifact(out, (json + "\n").as_bytes())?;
            eprintln!("wrote {out}");
        }
        Ok(code)
    }))
}

/// The `--fig` values `casbn figures` accepts.
const FIGS: &[&str] = &[
    "3", "4", "5", "6", "7", "67", "8", "9", "10", "11", "text", "all",
];

/// `casbn figures` — regenerate the data behind the paper's Figs. 3–11
/// and in-text results, printed as text tables.
fn run_figures(args: &Args) -> Result<Job<'_>, String> {
    let fig = args.get("fig").unwrap_or("all");
    if !FIGS.contains(&fig) {
        return Err(format!("unknown --fig {fig} (want {})", FIGS.join("|")));
    }
    let scale = scale(args, 0.15)?;
    let dir = args.get("json");
    Ok(Box::new(move || {
        let want = |f: &str| fig == "all" || fig == f;
        let mut runner = FigureRunner::new(scale);
        if want("3") {
            let f = fig3(&mut runner);
            emit_figure(dir, "fig3", render_fig3(&f), &f)?;
        }
        if want("4") {
            let f = fig4(&mut runner);
            emit_figure(dir, "fig4", render_fig4(&f), &f)?;
        }
        if want("5") {
            let f = fig5(&mut runner);
            emit_figure(dir, "fig5", render_fig5(&f), &f)?;
        }
        if ["67", "6", "7", "8"].iter().any(|f| want(f)) {
            let f = fig67(&mut runner);
            if ["67", "6", "7"].iter().any(|f| want(f)) {
                emit_figure(dir, "fig67", render_fig67(&f), &f)?;
            }
            if want("8") {
                let f8 = fig8(&f);
                emit_figure(dir, "fig8", render_fig8(&f8), &f8)?;
            }
        }
        if want("9") {
            let f = fig9(&mut runner);
            emit_figure(dir, "fig9", render_fig9(&f), &f)?;
        }
        if want("10") {
            let f = fig10(&mut runner, &[1, 2, 4, 8, 16, 32, 64]);
            emit_figure(dir, "fig10", render_fig10(&f), &f)?;
        }
        if want("11") {
            let f = fig11(&mut runner);
            emit_figure(dir, "fig11", render_fig11(&f), &f)?;
        }
        if want("text") {
            let t = text_stats(&mut runner);
            emit_figure(dir, "text_stats", render_text_stats(&t), &t)?;
        }
        Ok(0)
    }))
}

/// Print one figure's table and, given `--json DIR`, write its data
/// series to `DIR/<name>.json`.
fn emit_figure<T: serde::Serialize>(
    dir: Option<&str>,
    name: &str,
    table: String,
    data: &T,
) -> Result<(), String> {
    print!("{table}");
    let Some(dir) = dir else { return Ok(()) };
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let path = format!("{dir}/{name}.json");
    let json = serde_json::to_string_pretty(data).map_err(|e| e.to_string())?;
    write_artifact(&path, json.as_bytes())?;
    eprintln!("wrote {path}");
    Ok(())
}

/// `casbn stream` — replay a sample stream through the incremental
/// pipeline (online correlation → network deltas → incremental chordal →
/// MCODE). Exit codes: 0 ok, 1 checksum mismatch, 2 usage error.
fn run_stream(args: &Args) -> Result<Job<'_>, String> {
    let resume_path = args.get("resume");
    if args.has("degraded") && resume_path.is_none() {
        return Err("--degraded only applies when resuming (--resume FILE)".into());
    }
    if resume_path.is_some() {
        // the checkpoint carries the run configuration; a silently
        // overridden batch size or threshold would diverge from the
        // interrupted run while claiming to continue it
        for flag in ["batch", "min-rho", "min-score"] {
            if args.get(flag).is_some() {
                return Err(format!("--{flag} comes from the checkpoint when resuming"));
            }
        }
    }
    let batch: usize = args.get_or("batch", 2)?;
    let min_rho: f64 = args.get_or("min-rho", NetworkParams::default().min_rho)?;
    if batch == 0 || !(0.0..=1.0).contains(&min_rho) {
        return Err("need --batch > 0 and 0 <= --min-rho <= 1".into());
    }
    let max_windows: usize = args.get_or("windows", usize::MAX)?;
    if max_windows == 0 {
        return Err("need --windows > 0".into());
    }
    let min_score: f64 = args.get_or("min-score", 3.0)?;
    let expect = args.parsed("expect-checksum")?;
    let src = source(args)?;

    Ok(Box::new(move || {
        let matrix = match src {
            Source::Preset(preset, scale, samples) => synthesize_replay(preset, scale, samples),
            Source::File(path) => {
                let bytes = read(path)?;
                if is_store_bytes(&bytes) {
                    let store = Store::parse(&bytes).map_err(|e| format!("{path}: {e}"))?;
                    casbn_expr::store::load_first_matrix(&store)
                        .map_err(|e| format!("{path}: {e}"))?
                } else {
                    read_replay(&bytes[..]).map_err(|e| format!("parse {path}: {e}"))?
                }
            }
        };
        if let Some(path) = args.get("replay-out") {
            let mut buf = Vec::new();
            write_replay(
                &matrix,
                &mut buf,
                Some(&format!(
                    "replay: {} genes x {} samples",
                    matrix.genes(),
                    matrix.samples()
                )),
            )
            .map_err(|e| format!("write {path}: {e}"))?;
            write_artifact(path, &buf)?;
            eprintln!("wrote replay {path}");
        }

        // drive window by window so the final chordal graph stays
        // available for --out and the driver state for --checkpoint
        let mut driver = match resume_path {
            Some(ckpath) => {
                let ckbytes = read(ckpath)?;
                if !is_store_bytes(&ckbytes) {
                    return Err(format!("{ckpath} is not a .csbn checkpoint"));
                }
                let store = if args.has("degraded") {
                    // degraded open: a torn or bit-rotted checkpoint
                    // falls back to its newest fully valid generation
                    // (checksum-failing sections are quarantined) so an
                    // interrupted run can still continue from the last
                    // committed state
                    let s = Store::open_degraded(&ckbytes).map_err(|e| format!("{ckpath}: {e}"))?;
                    if let Some(keep) = s.recovered_len() {
                        eprintln!(
                            "warning: {ckpath} is damaged; resuming from generation {} \
                             ({} of {} bytes, {} trailing bytes ignored)",
                            s.generation(),
                            keep,
                            ckbytes.len(),
                            ckbytes.len() - keep
                        );
                    }
                    if s.quarantined_count() > 0 {
                        eprintln!(
                            "warning: {ckpath}: {} checksum-failing section(s) quarantined",
                            s.quarantined_count()
                        );
                    }
                    s
                } else {
                    // lazy open: resume touches every section it reads,
                    // so corruption still fails typed, without an
                    // up-front sweep over superseded generations
                    Store::open_lazy(&ckbytes).map_err(|e| format!("{ckpath}: {e}"))?
                };
                let d = StreamDriver::resume_from(&store).map_err(|e| format!("{ckpath}: {e}"))?;
                if d.genes() != matrix.genes() {
                    return Err(format!(
                        "checkpoint holds {} genes but the replay has {}",
                        d.genes(),
                        matrix.genes()
                    ));
                }
                if d.samples_ingested() > matrix.samples() {
                    return Err(format!(
                        "checkpoint is {} samples in but the replay holds only {}",
                        d.samples_ingested(),
                        matrix.samples()
                    ));
                }
                d
            }
            None => StreamDriver::new(
                matrix.genes(),
                StreamConfig {
                    batch,
                    network: NetworkParams {
                        min_rho,
                        ..Default::default()
                    },
                    mcode: McodeParams {
                        min_score,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            ),
        };
        let batch = driver.config().batch;
        eprintln!(
            "streaming {} genes x {} samples in windows of {batch}…",
            matrix.genes(),
            matrix.samples()
        );
        if driver.samples_ingested() > 0 {
            eprintln!(
                "resumed at sample {} (after window {})",
                driver.samples_ingested(),
                driver.windows().len()
            );
        }
        let mut lo = driver.samples_ingested();
        let mut ran = 0usize;
        while lo < matrix.samples() && ran < max_windows {
            let hi = (lo + batch).min(matrix.samples());
            driver.ingest_window(&matrix.columns(lo, hi));
            lo = hi;
            ran += 1;
        }
        if let Some(path) = args.get("checkpoint") {
            // the sections stream straight from the writer; the container
            // is never materialized twice
            let appended = write_checkpoint(path, &driver.checkpoint_writer())?;
            eprintln!(
                "wrote checkpoint {path} ({} samples ingested{})",
                driver.samples_ingested(),
                if appended { ", appended" } else { "" }
            );
        }
        let chordal = driver.chordal().clone();
        let summary = driver.finish();

        if args.has("json") {
            println!(
                "{}",
                serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
            );
        } else {
            // the per-window table is progress diagnostics: stderr, so
            // stdout carries only the machine-checkable checksum line
            eprintln!(
                "{:<4} {:>7} {:>6} {:>6} {:>7} {:>8} {:>9} {:>10} {:>11} {:>12} {:>9}",
                "win",
                "samples",
                "+edges",
                "-edges",
                "net",
                "chordal",
                "clusters",
                "stability",
                "ingest ms",
                "chordal ms",
                "wall ms"
            );
            for w in &summary.windows {
                eprintln!(
                    "{:<4} {:>7} {:>6} {:>6} {:>7} {:>8} {:>9} {:>10.3} {:>11.3} {:>12.4} {:>9.3}",
                    w.window,
                    w.samples_seen,
                    w.inserts,
                    w.removes,
                    w.network_edges,
                    w.chordal_edges,
                    w.clusters,
                    w.stability,
                    w.sim_ingest * 1e3,
                    w.sim_chordal * 1e3,
                    w.wall.as_secs_f64() * 1e3,
                );
            }
            eprintln!(
                "total churn {} over {} windows",
                summary.total_churn(),
                summary.windows.len()
            );
            eprintln!(
                "window wall p50 {:.3} ms  p95 {:.3} ms  max {:.3} ms",
                summary.wall_p50_nanos as f64 / 1e6,
                summary.wall_p95_nanos as f64 / 1e6,
                summary.wall_max_nanos as f64 / 1e6,
            );
            // in JSON mode the checksum is a field of the document — a
            // trailer there would break `… --json | jq`
            println!("checksum {}", summary.checksum);
        }

        if let Some(path) = args.get("out") {
            let mut buf = Vec::new();
            write_edge_list(&chordal, &mut buf, Some("incremental chordal subgraph"))
                .map_err(|e| e.to_string())?;
            write_artifact(path, &buf)?;
            eprintln!("wrote {path}");
        }
        Ok(checksum_gate(expect, summary.checksum))
    }))
}

/// `casbn serve` — resident concurrent query daemon over the pipeline
/// (see [`SERVE_USAGE`] for the protocol and mode reference).
/// Exit codes: 0 ok, 1 checksum mismatch, 2 usage/configuration error.
fn run_serve(args: &Args) -> Result<Job<'_>, String> {
    let threads: usize = args.get_or("threads", 1)?;
    let batch: usize = args.get_or("batch", BATCH_MAX)?;
    if threads == 0 || batch == 0 || batch > BATCH_MAX {
        return Err(format!(
            "need --threads > 0 and 1 <= --batch <= {BATCH_MAX}"
        ));
    }
    let cfg = SessionConfig {
        threads,
        batch_max: batch,
    };
    let expect = args.parsed("expect-checksum")?;
    if expect.is_some() && args.get("script").is_none() {
        return Err("--expect-checksum gates a --script run".into());
    }
    let src = source(args)?;

    Ok(Box::new(move || {
        // source → engine: a .csbn graph section (or edge list) serves a
        // static snapshot; a matrix section or --preset replay streams
        let mut engine = match src {
            Source::Preset(preset, scale, samples) => ServeEngine::from_replay(
                synthesize_replay(preset, scale, samples),
                StreamConfig::default(),
            ),
            Source::File(path) => {
                let bytes = read(path)?;
                if is_store_bytes(&bytes) {
                    let store = Store::open_lazy(&bytes).map_err(|e| format!("{path}: {e}"))?;
                    match graph_store::load_first_graph(&store) {
                        Ok(g) => ServeEngine::from_graph(g, &McodeParams::default()),
                        Err(graph_err) => {
                            let m = casbn_expr::store::load_first_matrix(&store).map_err(|_| {
                                format!("{path}: no servable graph or matrix section ({graph_err})")
                            })?;
                            ServeEngine::from_replay(m, StreamConfig::default())
                        }
                    }
                } else {
                    let (g, _) =
                        read_edge_list(&bytes[..], 0).map_err(|e| format!("{path}: {e}"))?;
                    ServeEngine::from_graph(g, &McodeParams::default())
                }
            }
        };

        if let Some(path) = args.get("checkpoint") {
            if !engine.can_ingest() {
                return Err(
                    "--checkpoint needs a streaming source (a static artifact has no \
                     stream state to checkpoint)"
                        .into(),
                );
            }
            // same durability discipline as `casbn stream --checkpoint`,
            // one generation per window boundary plus the final shutdown
            // checkpoint
            let path = path.to_string();
            engine.set_checkpoint_sink(Box::new(move |w| write_checkpoint(&path, w).map(drop)));
        }

        {
            let snap = engine.snapshot();
            eprintln!(
                "serving epoch {}: {} genes, {} network edges, {} clusters{}",
                snap.epoch(),
                snap.network().n(),
                snap.network().m(),
                snap.clusters().len(),
                if engine.can_ingest() {
                    format!(", {} window(s) ingestable", engine.remaining_windows())
                } else {
                    " (static)".to_string()
                },
            );
        }

        if let Some(path) = args.get("script") {
            // deterministic client mode: the in-process session the CI
            // serve-smoke gate and the determinism suite replay
            let text = std::fs::read_to_string(path).map_err(|e| format!("open {path}: {e}"))?;
            let script = parse_script(&text).map_err(|e| format!("{path}: {e}"))?;
            let (report, _) = run_script(&mut engine, &script, &cfg)
                .map_err(|e| format!("script session: {e}"))?;
            engine.final_checkpoint()?;
            println!(
                "responses {} checksum {}",
                report.requests, report.responses_checksum
            );
            return Ok(checksum_gate(expect, report.responses_checksum));
        }
        if let Some(addr) = args.get("listen") {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            install_sigint_handler();
            eprintln!("listening on {addr} (SIGINT to stop)");
            // the writer thread ingests the whole stream while the TCP
            // sessions read — every window boundary rotates the shared
            // snapshot without blocking either side
            let registry = engine.registry();
            let sessions = std::thread::scope(|scope| -> Result<u64, String> {
                let writer = scope.spawn(move || -> Result<(), String> {
                    let n = engine.remaining_windows();
                    if n > 0 {
                        let (run, epoch) = engine.ingest_windows(n)?;
                        eprintln!("ingested {run} window(s); snapshot epoch {epoch}");
                    }
                    engine.final_checkpoint()?;
                    Ok(())
                });
                let sessions = serve_tcp(registry, listener, &cfg, shutdown_flag())
                    .map_err(|e| format!("serve: {e}"))?;
                writer.join().expect("writer thread panicked")?;
                Ok(sessions)
            })?;
            eprintln!("served {sessions} session(s)");
            return Ok(0);
        }
        // pipe mode: one full (writer) session over stdin/stdout
        install_sigint_handler();
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let report = serve_session(
            &mut engine,
            stdin.lock(),
            stdout.lock(),
            &cfg,
            shutdown_flag(),
        )
        .map_err(|e| format!("session: {e}"))?;
        engine.final_checkpoint()?;
        eprintln!(
            "session over: {} request(s) in {} batch(es), checksum {}{}",
            report.requests,
            report.batches,
            report.responses_checksum,
            if report.drained_on_shutdown {
                " (drained on shutdown)"
            } else {
                ""
            }
        );
        Ok(0)
    }))
}

/// What `casbn pack` reads from `--in`.
enum PackKind {
    Graph,
    Replay,
    Clusters,
}

impl std::str::FromStr for PackKind {
    type Err = String;

    /// Parse the `--kind` name: `graph`, `replay` or `clusters`.
    fn from_str(s: &str) -> Result<PackKind, String> {
        match s {
            "graph" => Ok(PackKind::Graph),
            "replay" => Ok(PackKind::Replay),
            "clusters" => Ok(PackKind::Clusters),
            other => Err(format!(
                "unknown --kind {other} (expected graph | replay | clusters)"
            )),
        }
    }
}

/// `casbn pack` — convert a text artifact (edge-list graph, sample-major
/// replay, or `cluster --json` output) into a `.csbn` container.
fn run_pack(args: &Args) -> Result<Job<'_>, String> {
    let input = args.require("in")?;
    let out = args.require("out")?;
    let kind: PackKind = args.require("kind")?.parse()?;
    Ok(Box::new(move || {
        let bytes = read(input)?;
        if is_store_bytes(&bytes) {
            return Err(format!("{input} is already a .csbn container"));
        }
        let mut w = StoreWriter::new();
        match kind {
            PackKind::Graph => {
                let (g, _) = read_edge_list(&bytes[..], 0).map_err(|e| e.to_string())?;
                graph_store::add_graph(&mut w, 0, &g);
                eprintln!("packed graph: {} vertices, {} edges", g.n(), g.m());
            }
            PackKind::Replay => {
                let m: ExpressionMatrix =
                    read_replay(&bytes[..]).map_err(|e| format!("parse {input}: {e}"))?;
                casbn_expr::store::add_matrix(&mut w, 0, &m);
                eprintln!(
                    "packed replay: {} genes x {} samples",
                    m.genes(),
                    m.samples()
                );
            }
            PackKind::Clusters => {
                let text = std::str::from_utf8(&bytes)
                    .map_err(|_| format!("{input} is not UTF-8 cluster JSON"))?;
                let cs: Vec<Cluster> =
                    serde_json::from_str(text).map_err(|e| format!("parse {input}: {e}"))?;
                mcode_store::add_clusters(&mut w, 0, &cs);
                eprintln!("packed {} clusters", cs.len());
            }
        }
        w.save(out).map_err(|e| format!("write {out}: {e}"))?;
        eprintln!("wrote {out}");
        Ok(0)
    }))
}

fn run_inspect(args: &Args) -> Result<Job<'_>, String> {
    let path = args.require("in")?;
    Ok(Box::new(move || container_report(args, path, true)))
}

fn run_verify(args: &Args) -> Result<Job<'_>, String> {
    let path = args.require("in")?;
    Ok(Box::new(move || container_report(args, path, false)))
}

/// Job of `casbn inspect` (`table`) and `casbn verify`.
///
/// `inspect` prints a container's header and section table (`--json`
/// for the machine-readable layout document). It opens with
/// [`Store::open_lazy`], so the cost is O(header + table) regardless of
/// payload size; payload checksums are deferred.
///
/// `verify` validates a container end to end (magic, version,
/// endianness, header and per-section checksums, padding) with the
/// eager [`Store::parse`].
///
/// Exit codes: 0 ok, 1 corrupt container, 2 usage error.
fn container_report(args: &Args, path: &str, table: bool) -> Result<i32, String> {
    let bytes = read(path)?;
    let opened = if table && args.has("degraded") {
        // best-effort open: a torn tail resolves to the newest
        // fully valid generation and checksum-failing sections are
        // quarantined — the report then says exactly what survives
        Store::open_degraded(&bytes)
    } else if table {
        Store::open_lazy(&bytes)
    } else {
        Store::parse(&bytes)
    };
    let store = match opened {
        Ok(store) => store,
        Err(e) => {
            eprintln!("{path}: {e}");
            return Ok(1);
        }
    };
    if table && args.has("json") {
        print!("{}", container_json(&store, bytes.len()));
    } else if table {
        print!("{}", container_metadata(&store, bytes.len()));
    } else {
        println!(
            "ok: {} sections, {} bytes, all checksums verified",
            store.sections().len(),
            bytes.len()
        );
    }
    Ok(0)
}

/// Load every file under one target's corpus directory, sorted by file
/// name so the replay order (and any failure report) is deterministic.
/// A missing directory is an empty corpus, not an error — targets gain
/// corpus entries independently.
fn read_corpus_dir(dir: &str) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut entries = Vec::new();
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(entries),
        Err(e) => return Err(format!("read {dir}: {e}")),
    };
    for entry in rd {
        let entry = entry.map_err(|e| format!("read {dir}: {e}"))?;
        let path = entry.path();
        if path.is_file() {
            let bytes =
                std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            entries.push((entry.file_name().to_string_lossy().into_owned(), bytes));
        }
    }
    entries.sort();
    Ok(entries)
}

/// `casbn fuzz` — run the deterministic fuzzing and differential-oracle
/// harness. Exit codes: 0 clean, 1 crashes found, 2 usage error.
fn run_fuzz(args: &Args) -> Result<Job<'_>, String> {
    let only = args.get("target").filter(|&name| name != "all");
    if let Some(name) = only {
        if !casbn_fuzz::TARGET_NAMES.contains(&name) {
            return Err(format!(
                "unknown --target {name} (expected all | {})",
                casbn_fuzz::TARGET_NAMES.join(" | ")
            ));
        }
    }
    let cfg = FuzzConfig {
        iters: args.get_or("iters", 1000)?,
        seed: args.get_or("seed", 0)?,
        ..Default::default()
    };
    let minimize = args.get("minimize");
    if minimize.is_some() && only.is_none() {
        return Err("--minimize needs a single --target to run the input against".into());
    }

    Ok(Box::new(move || {
        let mut targets = casbn_fuzz::all_targets(argv_surface());
        targets.retain(|t| only.is_none_or(|name| t.name() == name));
        if let Some(path) = minimize {
            // the body checked that --target names exactly one target
            let target = &mut targets[0];
            let input = read(path)?;
            let min = casbn_fuzz::minimize(target.as_mut(), &input, cfg.max_alloc);
            match casbn_fuzz::execute_one(target.as_mut(), &min, cfg.max_alloc) {
                Execution::Failed(kind, msg) => {
                    let out = format!("{path}.min");
                    write_artifact(&out, &min)?;
                    println!(
                        "{}: {} bytes -> {} bytes ({}: {msg})",
                        target.name(),
                        input.len(),
                        min.len(),
                        kind.name()
                    );
                    eprintln!("wrote {out}");
                }
                Execution::Clean(_) => {
                    return Err(format!(
                        "{path} does not fail target {}; nothing to minimize",
                        target.name()
                    ));
                }
            }
            return Ok(0);
        }

        let mut found = false;
        let corpus = args.get("corpus");
        for target in &mut targets {
            let name = target.name();
            if let Some(dir) = corpus {
                let entries = read_corpus_dir(&format!("{dir}/{name}"))?;
                let crashes = casbn_fuzz::replay_corpus(target.as_mut(), &entries, cfg.max_alloc);
                println!(
                    "{name:<18} corpus: {} entries replayed, {} failed",
                    entries.len(),
                    crashes.len()
                );
                for c in &crashes {
                    eprintln!("  [{}] {}", c.kind.name(), c.message);
                }
                found |= !crashes.is_empty();
            }
            let report = casbn_fuzz::run_target(target.as_mut(), &cfg);
            println!(
                "{name:<18} {:>7} iters  {:>6} accepted  {:>6} rejected  \
                 {:>2} crashes  trace {:#018x}  peak {} KiB",
                report.executed,
                report.accepted,
                report.rejected,
                report.crashes.len(),
                report.trace_checksum,
                report.peak_alloc / 1024,
            );
            for c in &report.crashes {
                eprintln!("  [{} @ iter {}] {}", c.kind.name(), c.iteration, c.message);
                if let Some(dir) = corpus {
                    let out = format!(
                        "{dir}/{name}/crash-{}-s{}-i{}.bin",
                        c.kind.name(),
                        cfg.seed,
                        c.iteration
                    );
                    write_artifact(&out, &c.input)?;
                    eprintln!("  wrote {out}");
                }
            }
            found |= !report.crashes.is_empty();
        }
        Ok(i32::from(found))
    }))
}

/// `casbn compare` — cluster-level comparison of two networks.
fn run_compare(args: &Args) -> Result<Job<'_>, String> {
    let original = args.require("original")?;
    let filtered = args.require("filtered")?;
    Ok(Box::new(move || {
        let orig = load(original)?;
        let filt = load(filtered)?;
        let params = McodeParams::default();
        let co = mcode_cluster(&orig, &params);
        let cf = mcode_cluster(&filt, &params);
        let table = casbn_analysis::overlap_table(&co, &cf);
        let (lost, found) = casbn_analysis::lost_and_found(&co, &cf);
        println!(
            "clusters: original {}, filtered {}; lost {}, newly found {}",
            co.len(),
            cf.len(),
            lost.len(),
            found.len()
        );
        for t in &table {
            if let Some(oi) = t.best_original {
                println!(
                    "filtered #{:<3} ~ original #{:<3}  node {:>5.1}%  edge {:>5.1}%",
                    t.filtered_idx,
                    oi,
                    100.0 * t.node_overlap,
                    100.0 * t.edge_overlap
                );
            }
        }
        Ok(0)
    }))
}
