//! Perf-baseline subsystem: pinned-seed workloads, a JSON baseline file
//! (`BENCH_pipeline.json` at the repo root), and regression diffing.
//!
//! This module records the **perf trajectory of the whole pipeline**
//! across PRs: a fixed set of named workloads is run at a pinned scale
//! and seed, and the results are written to a committed JSON file that
//! later runs (and CI) diff against.
//!
//! Two metric classes are recorded per workload:
//!
//! * **deterministic** — the simulated LogP makespan (`sim_seconds`) and
//!   an output checksum (`checksum`: retained edges / clusters found).
//!   These are machine-independent: a change is a real algorithmic
//!   regression (or drift), so [`diff`] always gates on them.
//! * **wall-clock** — `wall_seconds`, the minimum over the configured
//!   repeats. Wall time varies across hosts, so [`diff`] reports wall
//!   regressions as warnings unless explicitly asked to gate on them.

use casbn_chordal::{
    maximal_chordal_subgraph_with, ChordalConfig, ChordalResult, DswScratch, WorkCounter,
};
use casbn_core::{Filter, IncrementalChordal, ParallelChordalNoCommFilter};
use casbn_distsim::CostModel;
use casbn_expr::{CorrelationNetwork, DatasetPreset, SyntheticMicroarray};
use casbn_graph::{EdgeDelta, Graph, PartitionKind};
use casbn_mcode::{mcode_cluster_into, Cluster, McodeParams, McodeScratch};
use casbn_serve::{run_script, Request, ServeEngine, SessionConfig};
use casbn_store::{Store, StoreWriter};
use casbn_stream::{synthesize_replay, OnlineCorrelation, StreamConfig, StreamDriver};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Default dataset scale of the committed baseline (`casbn bench`).
pub const DEFAULT_SCALE: f64 = 0.15;
/// Default timing repetitions (minimum wall time is kept).
pub const DEFAULT_REPEATS: usize = 3;
/// Default relative regression threshold (0.5 = fail above +50%).
pub const DEFAULT_THRESHOLD: f64 = 0.5;
/// Baseline-file schema version. v2 added the per-workload deterministic
/// `counters` record (work counts from `casbn_obs`).
pub const SCHEMA_VERSION: u32 = 2;

/// One workload's measurements.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name (stable across PRs; the diff key).
    pub name: String,
    /// Minimum wall-clock seconds over the repeats.
    pub wall_seconds: f64,
    /// Simulated LogP makespan in seconds (0.0 for workloads that do not
    /// run on the distributed substrate).
    pub sim_seconds: f64,
    /// Deterministic output checksum: retained edges or clusters found.
    pub checksum: u64,
    /// Deterministic work counters recorded by one untimed instrumented
    /// pass (`casbn_obs` counter deltas, sorted by key). Perf drift in
    /// the diff arrives with a work-count explanation; counter movement
    /// alone is context, never a gate.
    pub counters: Vec<(String, u64)>,
}

/// All workloads measured at one dataset scale.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfSuite {
    /// Dataset scale fraction the suite ran at.
    pub scale: f64,
    /// Per-workload results.
    pub results: Vec<WorkloadResult>,
}

/// The on-disk baseline: one suite per recorded scale.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PerfBaseline {
    /// Schema version of this file.
    pub schema: u32,
    /// Recorded suites, ascending scale.
    pub suites: Vec<PerfSuite>,
}

/// One detected difference between a baseline and a fresh suite.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Regression {
    /// Workload name.
    pub workload: String,
    /// Metric that moved: `"sim"`, `"wall"` or `"checksum"`.
    pub metric: String,
    /// Baseline value.
    pub old: f64,
    /// Fresh value.
    pub new: f64,
}

/// Outcome of diffing a fresh suite against a baseline.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DiffReport {
    /// Workloads compared (matched by name at the same scale).
    pub compared: usize,
    /// Gating regressions (deterministic metrics; plus wall when opted in).
    pub failures: Vec<Regression>,
    /// Non-gating wall-clock regressions.
    pub wall_warnings: Vec<Regression>,
    /// Workloads present on one side only.
    pub missing: Vec<String>,
    /// Work-count movement (`workload: counter old -> new`), context for
    /// the regressions above — never gating on its own.
    pub work_notes: Vec<String>,
}

impl DiffReport {
    /// Whether the diff should fail the run. Workloads present on only
    /// one side gate too: a renamed or dropped workload must not
    /// silently disable its regression check.
    pub fn is_regression(&self) -> bool {
        !self.failures.is_empty() || !self.missing.is_empty()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("compared {} workloads\n", self.compared));
        for r in &self.failures {
            out.push_str(&format!(
                "REGRESSION  {:<18} {:>9}: {:.6} -> {:.6}\n",
                r.workload, r.metric, r.old, r.new
            ));
        }
        for r in &self.wall_warnings {
            out.push_str(&format!(
                "warning     {:<18} {:>9}: {:.6} -> {:.6} (wall clock, not gating)\n",
                r.workload, r.metric, r.old, r.new
            ));
        }
        for m in &self.missing {
            out.push_str(&format!(
                "MISSING     {m} (present on one side only — gates)\n"
            ));
        }
        for n in &self.work_notes {
            out.push_str(&format!("work        {n} (context, not gating)\n"));
        }
        if self.failures.is_empty() && self.wall_warnings.is_empty() && self.missing.is_empty() {
            out.push_str("no regressions\n");
        }
        out
    }
}

/// Time `f` `repeats` times; return the minimum wall seconds and the last
/// output (the workloads are deterministic, so any repeat's output works).
fn timed<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let repeats = repeats.max(1);
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let v = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.unwrap())
}

/// [`timed`], plus one extra **untimed** pass with telemetry enabled to
/// record the workload's deterministic counter deltas. The timed repeats
/// run with telemetry exactly as the caller left it (disabled by
/// default, so the measured walls carry no recording overhead), and the
/// prior enable state is restored afterwards.
fn timed_counted<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, Vec<(String, u64)>, T) {
    let (wall, out) = timed(repeats, &mut f);
    let prior = casbn_obs::set_enabled(true);
    let before = casbn_obs::snapshot();
    let _ = f();
    let counters = casbn_obs::snapshot().counter_delta(&before);
    casbn_obs::set_enabled(prior);
    (wall, counters, out)
}

/// The filter seed every workload pins (with the preset seeds, this is
/// what makes the suite reproducible).
const BENCH_SEED: u64 = 0;

/// Quantise a seconds measurement to 12 significant decimal digits
/// before it is recorded.
///
/// Rust already prints floats in shortest-roundtrip form, but the
/// *accumulated* simulated clocks land an ulp away from their "clean"
/// value, whose shortest representation is then 17-digit noise like
/// `0.0000010500000000000001` — unreadable in baseline diffs. Twelve
/// significant digits are far below any regression threshold the diff
/// gates on and far above timer resolution, so quantising changes no
/// comparison while keeping `BENCH_pipeline.json` human-diffable. The
/// quantised value round-trips exactly through JSON (unit-tested).
fn clean_seconds(x: f64) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    format!("{x:.11e}").parse().unwrap_or(x)
}

/// One steady-state DSW workload: a scratch + result pair is warmed
/// outside the timed region, then each repeat re-extracts with
/// [`maximal_chordal_subgraph_with`] — the reuse pattern the incremental
/// maintainer's regional rebuilds and any repeated filtering pipeline
/// run in production. Sim metric: DSW candidate ops under the default
/// cost model (identical to `SequentialChordalFilter`'s makespan).
fn dsw_workload(name: &str, g: &Graph, repeats: usize) -> WorkloadResult {
    let mut scratch = DswScratch::new(g.n());
    let mut result = ChordalResult {
        graph: Graph::new(g.n()),
        order: Vec::new(),
        work: WorkCounter::default(),
    };
    // one untimed pass so buffer capacities ratchet before measurement —
    // keeps even `--repeats 1` a steady-state number
    maximal_chordal_subgraph_with(g, ChordalConfig::default(), &mut scratch, &mut result);
    let (wall, counters, (ops, retained)) = timed_counted(repeats, || {
        maximal_chordal_subgraph_with(g, ChordalConfig::default(), &mut scratch, &mut result);
        (result.work.ops, result.graph.m())
    });
    WorkloadResult {
        name: name.into(),
        wall_seconds: wall,
        sim_seconds: ops as f64 * CostModel::default().seconds_per_op,
        checksum: retained as u64,
        counters,
    }
}

/// One steady-state MCODE workload: scratch + cluster pool warmed
/// outside the timed region, repeats run [`mcode_cluster_into`] — the
/// streaming driver's per-window re-clustering pattern.
fn mcode_workload(name: &str, g: &Graph, repeats: usize) -> WorkloadResult {
    let mut scratch = McodeScratch::new(g.n());
    let mut clusters: Vec<Cluster> = Vec::new();
    // untimed warm-up, as in `dsw_workload`
    mcode_cluster_into(g, &McodeParams::default(), &mut scratch, &mut clusters);
    let (wall, counters, found) = timed_counted(repeats, || {
        mcode_cluster_into(g, &McodeParams::default(), &mut scratch, &mut clusters);
        clusters.len()
    });
    WorkloadResult {
        name: name.into(),
        wall_seconds: wall,
        sim_seconds: 0.0,
        checksum: found as u64,
        counters,
    }
}

/// Run the pinned workload suite at `scale`.
///
/// Workloads (names are the diff keys — do not rename casually):
///
/// | name | what is timed |
/// |---|---|
/// | `pearson-yng` | projection-pruned parallel Pearson network build, YNG preset |
/// | `pearson-cre` | same on the large CRE preset |
/// | `dsw-yng` | steady-state DSW chordal extraction on the YNG network (scratch-threaded) |
/// | `dsw-cre` | same on the larger CRE network |
/// | `mcode-yng` | steady-state MCODE clustering of the YNG network (scratch-threaded) |
/// | `mcode-cre` | same on the larger CRE network |
/// | `store-load-yng` | parse + CSR load (`load_csr`: two bulk array copies and one invariant sweep) of the YNG network from an in-memory `.csbn` container |
/// | `store-open-lazy-yng` | lazy `.csbn` open of the same container: header + table validation only, payload checksums deferred |
/// | `nocomm-yng-p1` | no-comm parallel chordal filter, 1 rank |
/// | `nocomm-yng-p4` | no-comm parallel chordal filter, 4 ranks |
/// | `nocomm-yng-p8` | no-comm parallel chordal filter, 8 ranks |
/// | `stream-yng` | streaming batch ingest: full window pipeline over the YNG replay (sim = online-correlation ingest cost) |
/// | `inc-chordal-yng` | incremental chordal delta maintenance alone over the same delta stream |
/// | `serve-qps-yng` | serving tier under concurrent ingest: writer advances every window while 4 readers replay probes against registry snapshots (checksum = pinned-script response checksum) |
pub fn run_suite(scale: f64, repeats: usize) -> PerfSuite {
    let mut results = Vec::new();

    // Pearson workloads: generate the arrays outside the timed region.
    let yng_arr = SyntheticMicroarray::generate(
        &DatasetPreset::Yng.scaled_params(scale),
        DatasetPreset::Yng.seed(),
    );
    let cre_arr = SyntheticMicroarray::generate(
        &DatasetPreset::Cre.scaled_params(scale),
        DatasetPreset::Cre.seed(),
    );
    let (wall, counters, yng_net) = timed_counted(repeats, || {
        CorrelationNetwork::from_expression(&yng_arr.matrix, DatasetPreset::Yng.network_params())
    });
    results.push(WorkloadResult {
        name: "pearson-yng".into(),
        wall_seconds: wall,
        sim_seconds: 0.0,
        checksum: yng_net.graph.m() as u64,
        counters,
    });
    let (wall, counters, cre_net) = timed_counted(repeats, || {
        CorrelationNetwork::from_expression(&cre_arr.matrix, DatasetPreset::Cre.network_params())
    });
    results.push(WorkloadResult {
        name: "pearson-cre".into(),
        wall_seconds: wall,
        sim_seconds: 0.0,
        checksum: cre_net.graph.m() as u64,
        counters,
    });

    // Artifact-store workload: the YNG network is packed into a .csbn
    // container outside the timed region; each repeat parses the
    // container (full checksum validation) and reconstructs the CSR
    // from the section bytes — the load path `casbn filter --in x.csbn`
    // takes, minus the filesystem read. Its checksum is the loaded edge
    // count, which must match the Pearson workload's.
    let store_bytes = {
        let mut w = StoreWriter::new();
        casbn_graph::store::add_graph(&mut w, 0, &yng_net.graph);
        w.to_bytes()
    };
    let (wall, counters, loaded_edges) = timed_counted(repeats, || {
        let store = Store::parse(&store_bytes).expect("freshly written container parses");
        casbn_graph::store::load_csr(&store, 0)
            .expect("freshly written graph section loads")
            .m()
    });
    results.push(WorkloadResult {
        name: "store-load-yng".into(),
        wall_seconds: wall,
        sim_seconds: 0.0,
        checksum: loaded_edges as u64,
        counters,
    });

    // Lazy-open workload: the same container opened through the
    // deferred-checksum tier — the timed region is `Store::open_lazy`
    // alone (magic/version/header-checksum/table validation, O(header +
    // table) regardless of payload size). Its checksum XOR-folds the
    // recorded section checksums straight out of the table, which the
    // lazy open reads without touching a payload byte; the ≥10× open-
    // time win over `store-load-yng` is pinned by the
    // store_open_lazy_ratio test.
    let (wall, counters, table_fold) = timed_counted(repeats, || {
        let store = Store::open_lazy(&store_bytes).expect("freshly written container opens");
        store
            .sections()
            .iter()
            .fold(0u64, |acc, e| acc ^ e.checksum)
    });
    results.push(WorkloadResult {
        name: "store-open-lazy-yng".into(),
        wall_seconds: wall,
        sim_seconds: 0.0,
        checksum: table_fold,
        counters,
    });

    // Filter + clustering workloads run on the YNG network, with the
    // larger CRE network as the graph-side scaling witness.
    let g: &Graph = &yng_net.graph;
    results.push(dsw_workload("dsw-yng", g, repeats));
    results.push(dsw_workload("dsw-cre", &cre_net.graph, repeats));
    results.push(mcode_workload("mcode-yng", g, repeats));
    results.push(mcode_workload("mcode-cre", &cre_net.graph, repeats));
    for ranks in [1usize, 4, 8] {
        let (wall, counters, out) = timed_counted(repeats, || {
            ParallelChordalNoCommFilter::new(ranks, PartitionKind::Block).filter(g, BENCH_SEED)
        });
        results.push(WorkloadResult {
            name: format!("nocomm-yng-p{ranks}"),
            wall_seconds: wall,
            sim_seconds: out.stats.sim_makespan,
            checksum: out.stats.retained_edges as u64,
            counters,
        });
    }

    // Streaming workloads: the YNG preset's native 8 arrays replayed in
    // 4 windows of 2 (the CI smoke shape). `stream-yng` times the whole
    // per-window pipeline; its sim metric is the deterministic online-
    // correlation ingest cost and its checksum the driver's window-
    // metric checksum.
    let replay = synthesize_replay(DatasetPreset::Yng, scale, None);
    let cfg = StreamConfig::default();
    let (wall, counters, summary) = timed_counted(repeats, || StreamDriver::run(&replay, cfg));
    results.push(WorkloadResult {
        name: "stream-yng".into(),
        wall_seconds: wall,
        sim_seconds: summary.windows.iter().map(|w| w.sim_ingest).sum(),
        checksum: summary.checksum,
        counters,
    });

    // `inc-chordal-yng` isolates the incremental chordal maintenance:
    // the delta stream is precomputed outside the timed region, then the
    // maintainer replays it. Its sim metric is what the ≥5×-below-rebuild
    // acceptance bound is recorded against (see the casbn_stream
    // perf_ratio test).
    let deltas: Vec<EdgeDelta> = {
        let mut online = OnlineCorrelation::new(replay.genes(), cfg.network);
        let mut out = Vec::new();
        let mut lo = 0;
        while lo < replay.samples() {
            let hi = (lo + cfg.batch).min(replay.samples());
            out.push(online.ingest(&replay.columns(lo, hi)));
            lo = hi;
        }
        out
    };
    // the network and maintainer are long-lived (cleared, not
    // reconstructed, between repeats), so the measurement is the
    // steady-state replay cost — no capacity is re-allocated
    let mut net = Graph::new(replay.genes());
    let mut inc = IncrementalChordal::new(replay.genes());
    let (wall, counters, (sim, retained)) = timed_counted(repeats, || {
        net.clear_edges();
        inc.reset();
        for d in &deltas {
            net.apply(d);
            inc.apply(d, &net);
        }
        (inc.sim_seconds(), inc.retained_edges())
    });
    results.push(WorkloadResult {
        name: "inc-chordal-yng".into(),
        wall_seconds: wall,
        sim_seconds: sim,
        checksum: retained as u64,
        counters,
    });

    // Serving workload: the resident query tier (crates/serve) under
    // concurrent ingest. The deterministic metric comes from a pinned
    // query script replayed single-threaded outside the timed region —
    // the same response-checksum gate the CI serve-smoke pins. The
    // timed region then rebuilds the engine and runs the shape the
    // daemon serves in production: a writer ingesting every window
    // (one snapshot rotation each) while 4 reader threads loop
    // read-only probes against whatever snapshot the registry
    // currently publishes.
    let probes: Vec<Request> = {
        let mut s = vec![Request::Stats];
        for gene in 0..4u32 {
            s.push(Request::Neighborhood { gene });
            s.push(Request::ClusterOf { gene });
        }
        s.push(Request::Rho { u: 0, v: 1 });
        s.push(Request::Rho { u: 1, v: 2 });
        s.push(Request::Enrich {
            genes: vec![0, 1, 2, 3],
        });
        s
    };
    // the YNG replay ships 4 windows (8 arrays, batch 2): probe each
    // epoch, with ingest barriers advancing the stream between them
    let script: Vec<Request> = {
        let mut s = Vec::new();
        for windows in [1u32, 1, 2] {
            s.extend(probes.iter().cloned());
            s.push(Request::Ingest { windows });
        }
        s.extend(probes.iter().cloned());
        s
    };
    let script_checksum = {
        let mut eng = ServeEngine::from_replay(replay.clone(), cfg);
        let (report, _) = run_script(&mut eng, &script, &SessionConfig::default())
            .expect("pinned serve script replays");
        report.responses_checksum
    };
    let (wall, counters, _served) = timed_counted(repeats, || {
        let mut eng = ServeEngine::from_replay(replay.clone(), cfg);
        let registry = eng.registry();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut answered = 0u64;
                        while !done.load(Ordering::Relaxed) {
                            let snap = registry.acquire();
                            for q in &probes {
                                let _ = snap.answer(q);
                                answered += 1;
                            }
                        }
                        answered
                    })
                })
                .collect();
            let remaining = eng.remaining_windows();
            eng.ingest_windows(remaining)
                .expect("bench replay ingests every window");
            done.store(true, Ordering::Relaxed);
            readers
                .into_iter()
                .map(|h| h.join().expect("reader thread joins"))
                .sum::<u64>()
        })
    });
    results.push(WorkloadResult {
        name: "serve-qps-yng".into(),
        wall_seconds: wall,
        sim_seconds: 0.0,
        checksum: script_checksum,
        counters,
    });

    // quantise ulp accumulation noise out of the recorded seconds so the
    // committed baseline stays human-diffable (see `clean_seconds`)
    for r in &mut results {
        r.wall_seconds = clean_seconds(r.wall_seconds);
        r.sim_seconds = clean_seconds(r.sim_seconds);
    }

    PerfSuite { scale, results }
}

fn same_scale(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

/// Render a before/after comparison of `fresh` against the same-scale
/// suite of `baseline` as a GitHub-flavoured markdown table — the
/// artifact the CI `bench-smoke` job appends to its job summary. Wall
/// times carry a speedup factor (baseline / current); deterministic
/// metrics are flagged when they moved. Workloads missing on either side
/// are listed explicitly.
pub fn render_markdown(baseline: &PerfBaseline, fresh: &PerfSuite) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "### Perf baseline comparison (scale {})\n\n",
        fresh.scale
    ));
    let Some(base) = baseline
        .suites
        .iter()
        .find(|s| same_scale(s.scale, fresh.scale))
    else {
        out.push_str("_no baseline suite at this scale_\n");
        return out;
    };
    out.push_str(
        "| workload | baseline wall ms | current wall ms | speedup | sim ms | checksum |\n",
    );
    out.push_str("|---|---:|---:|---:|---:|---|\n");
    for r in &fresh.results {
        let Some(old) = base.results.iter().find(|o| o.name == r.name) else {
            out.push_str(&format!(
                "| `{}` | _new workload_ | {:.3} | — | {:.3} | {} |\n",
                r.name,
                r.wall_seconds * 1e3,
                r.sim_seconds * 1e3,
                r.checksum
            ));
            continue;
        };
        let speedup = if r.wall_seconds > 0.0 {
            format!("{:.2}×", old.wall_seconds / r.wall_seconds)
        } else {
            "—".into()
        };
        let det = if r.checksum == old.checksum {
            format!("{}", r.checksum)
        } else {
            format!("**{} → {}**", old.checksum, r.checksum)
        };
        out.push_str(&format!(
            "| `{}` | {:.3} | {:.3} | {} | {:.3} | {} |\n",
            r.name,
            old.wall_seconds * 1e3,
            r.wall_seconds * 1e3,
            speedup,
            r.sim_seconds * 1e3,
            det
        ));
    }
    for old in &base.results {
        if !fresh.results.iter().any(|r| r.name == old.name) {
            out.push_str(&format!(
                "| `{}` | {:.3} | _missing_ | — | — | — |\n",
                old.name,
                old.wall_seconds * 1e3
            ));
        }
    }
    out.push_str("\nWall times are machine-dependent; deterministic drift is bolded.\n");
    out
}

/// Merge `suite` into `baseline`, replacing any existing suite at the
/// same scale and keeping suites sorted by scale.
pub fn merge(mut baseline: PerfBaseline, suite: PerfSuite) -> PerfBaseline {
    baseline.schema = SCHEMA_VERSION;
    baseline
        .suites
        .retain(|s| !same_scale(s.scale, suite.scale));
    baseline.suites.push(suite);
    baseline
        .suites
        .sort_by(|a, b| a.scale.partial_cmp(&b.scale).unwrap());
    baseline
}

/// Timer/scheduler jitter dominates sub-millisecond measurements, so
/// wall-clock comparison is skipped when both sides are under this floor
/// (smoke-scale workloads run in microseconds — ratios there are noise).
pub const WALL_FLOOR_SECONDS: f64 = 1e-3;

/// Diff `fresh` against the suite of matching scale in `baseline`.
///
/// * checksum mismatches always gate (deterministic output drift);
/// * `sim_seconds` above `old * (1 + threshold)` gates (deterministic
///   simulated work grew);
/// * `wall_seconds` above the same bound is a warning, or gates when
///   `gate_wall` is set — but only when either side reaches
///   [`WALL_FLOOR_SECONDS`], below which the ratio is scheduling noise.
///
/// When `baseline` has no suite at `fresh.scale`, the report comes back
/// with `compared == 0` and the scale listed in `missing` — callers
/// should treat that as a configuration error, not a pass.
pub fn diff(
    baseline: &PerfBaseline,
    fresh: &PerfSuite,
    threshold: f64,
    gate_wall: bool,
) -> DiffReport {
    let mut report = DiffReport::default();
    let Some(base) = baseline
        .suites
        .iter()
        .find(|s| same_scale(s.scale, fresh.scale))
    else {
        report.missing.push(format!("suite@scale={}", fresh.scale));
        return report;
    };
    for new in &fresh.results {
        let Some(old) = base.results.iter().find(|r| r.name == new.name) else {
            report.missing.push(new.name.clone());
            continue;
        };
        report.compared += 1;
        // work-count context: counter movement explains a perf drift but
        // never gates (counters may be absent on a v1 baseline)
        let old_counters: std::collections::BTreeMap<&str, u64> =
            old.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let new_counters: std::collections::BTreeMap<&str, u64> =
            new.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        if !old_counters.is_empty() && !new_counters.is_empty() {
            for (k, &nv) in &new_counters {
                let ov = old_counters.get(k).copied().unwrap_or(0);
                if ov != nv {
                    report
                        .work_notes
                        .push(format!("{}: {k} {ov} -> {nv}", new.name));
                }
            }
            for (k, &ov) in &old_counters {
                if !new_counters.contains_key(k) {
                    report
                        .work_notes
                        .push(format!("{}: {k} {ov} -> 0", new.name));
                }
            }
        }
        if new.checksum != old.checksum {
            report.failures.push(Regression {
                workload: new.name.clone(),
                metric: "checksum".into(),
                old: old.checksum as f64,
                new: new.checksum as f64,
            });
        }
        if old.sim_seconds > 0.0 && new.sim_seconds > old.sim_seconds * (1.0 + threshold) {
            report.failures.push(Regression {
                workload: new.name.clone(),
                metric: "sim".into(),
                old: old.sim_seconds,
                new: new.sim_seconds,
            });
        }
        let above_floor =
            old.wall_seconds >= WALL_FLOOR_SECONDS || new.wall_seconds >= WALL_FLOOR_SECONDS;
        if above_floor
            && old.wall_seconds > 0.0
            && new.wall_seconds > old.wall_seconds * (1.0 + threshold)
        {
            let r = Regression {
                workload: new.name.clone(),
                metric: "wall".into(),
                old: old.wall_seconds,
                new: new.wall_seconds,
            };
            if gate_wall {
                report.failures.push(r);
            } else {
                report.wall_warnings.push(r);
            }
        }
    }
    for old in &base.results {
        if !fresh.results.iter().any(|r| r.name == old.name) {
            report.missing.push(old.name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite() -> PerfSuite {
        run_suite(0.02, 1)
    }

    #[test]
    fn suite_has_the_named_workloads() {
        let s = tiny_suite();
        let names: Vec<&str> = s.results.iter().map(|r| r.name.as_str()).collect();
        for expected in [
            "pearson-yng",
            "pearson-cre",
            "store-load-yng",
            "store-open-lazy-yng",
            "dsw-yng",
            "dsw-cre",
            "mcode-yng",
            "mcode-cre",
            "nocomm-yng-p1",
            "nocomm-yng-p4",
            "nocomm-yng-p8",
            "stream-yng",
            "inc-chordal-yng",
            "serve-qps-yng",
        ] {
            assert!(names.contains(&expected), "missing workload {expected}");
        }
        assert!(s.results.len() >= 5);
        // the pipeline workloads must produce non-trivial output
        assert!(s.results.iter().any(|r| r.checksum > 0));
        for r in &s.results {
            assert!(r.wall_seconds >= 0.0);
        }
    }

    #[test]
    fn suite_is_deterministic_in_its_checksums_and_sims() {
        let a = tiny_suite();
        let b = tiny_suite();
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.checksum, y.checksum, "{}", x.name);
            assert_eq!(x.sim_seconds, y.sim_seconds, "{}", x.name);
        }
    }

    #[test]
    fn recorded_seconds_are_shortest_roundtrip_clean() {
        // ulp noise from accumulated float arithmetic must not leak into
        // the committed baseline: the 17-digit shortest representation of
        // an off-by-an-ulp value quantises back to its clean form…
        let noisy = 0.000_001_050_000_000_000_000_1_f64;
        let clean = clean_seconds(noisy);
        assert_eq!(serde_json::to_string(&clean).unwrap(), "0.00000105");
        // …and the quantised value round-trips through JSON exactly
        let back: f64 = serde_json::from_str(&serde_json::to_string(&clean).unwrap()).unwrap();
        assert_eq!(back, clean);
        assert_eq!(clean_seconds(0.0), 0.0);
        assert_eq!(clean_seconds(2.5), 2.5);
        // every recorded suite metric is already clean (idempotent)
        let s = tiny_suite();
        for r in &s.results {
            assert_eq!(clean_seconds(r.wall_seconds), r.wall_seconds, "{}", r.name);
            assert_eq!(clean_seconds(r.sim_seconds), r.sim_seconds, "{}", r.name);
        }
    }

    #[test]
    fn self_diff_is_clean() {
        let s = tiny_suite();
        let base = merge(PerfBaseline::default(), s.clone());
        let report = diff(&base, &s, DEFAULT_THRESHOLD, false);
        assert_eq!(report.compared, s.results.len());
        assert!(!report.is_regression(), "{}", report.render());
        assert!(report.missing.is_empty());
    }

    #[test]
    fn diff_detects_sim_and_checksum_regressions() {
        let s = tiny_suite();
        let mut old = s.clone();
        // pretend the baseline was much faster and produced other output
        for r in &mut old.results {
            if r.name == "dsw-yng" {
                r.sim_seconds /= 10.0;
            }
            if r.name == "mcode-yng" {
                r.checksum += 1;
            }
        }
        let base = merge(PerfBaseline::default(), old);
        let report = diff(&base, &s, 0.5, false);
        assert!(report.is_regression());
        let metrics: Vec<&str> = report.failures.iter().map(|r| r.metric.as_str()).collect();
        assert!(metrics.contains(&"sim"));
        assert!(metrics.contains(&"checksum"));
    }

    /// A one-workload suite with the given wall time (sim/checksum fixed).
    fn wall_suite(wall_seconds: f64) -> PerfSuite {
        PerfSuite {
            scale: 1.0,
            results: vec![WorkloadResult {
                name: "w".into(),
                wall_seconds,
                sim_seconds: 1.0,
                checksum: 7,
                counters: vec![("w.ops".into(), 10)],
            }],
        }
    }

    #[test]
    fn wall_regressions_warn_unless_gated() {
        // above the noise floor: 10ms -> 100ms
        let base = merge(PerfBaseline::default(), wall_suite(0.010));
        let fresh = wall_suite(0.100);
        let soft = diff(&base, &fresh, 0.5, false);
        assert!(!soft.is_regression(), "{}", soft.render());
        assert!(!soft.wall_warnings.is_empty());
        let hard = diff(&base, &fresh, 0.5, true);
        assert!(hard.is_regression());
    }

    #[test]
    fn sub_millisecond_wall_jitter_is_ignored() {
        // both sides under the floor: a 50x ratio is scheduler noise
        let base = merge(PerfBaseline::default(), wall_suite(0.00001));
        let report = diff(&base, &wall_suite(0.0005), 0.5, true);
        assert!(report.wall_warnings.is_empty());
        assert!(!report.is_regression(), "{}", report.render());
        // but a sub-floor baseline regressing past the floor still trips
        let report = diff(&base, &wall_suite(0.050), 0.5, false);
        assert!(!report.wall_warnings.is_empty());
    }

    #[test]
    fn missing_scale_reports_nothing_compared() {
        let s = tiny_suite();
        let report = diff(&PerfBaseline::default(), &s, 0.5, false);
        assert_eq!(report.compared, 0);
        assert!(!report.missing.is_empty());
    }

    #[test]
    fn dropped_or_renamed_workloads_gate_the_diff() {
        let s = tiny_suite();
        let mut old = s.clone();
        old.results[0].name = "renamed-away".into();
        let base = merge(PerfBaseline::default(), old);
        let report = diff(&base, &s, 0.5, false);
        // the fresh suite has a workload the baseline lacks AND vice versa
        assert!(report.missing.len() >= 2, "{:?}", report.missing);
        assert!(report.is_regression(), "missing workloads must gate");
    }

    #[test]
    fn markdown_summary_reports_speedups_and_drift() {
        let mut old = wall_suite(0.010);
        old.results.push(WorkloadResult {
            name: "dropped".into(),
            wall_seconds: 1.0,
            sim_seconds: 0.0,
            checksum: 3,
            counters: vec![],
        });
        let base = merge(PerfBaseline::default(), old);
        let mut fresh = wall_suite(0.005); // 2× faster
        fresh.results[0].checksum = 9; // deterministic drift
        fresh.results.push(WorkloadResult {
            name: "added".into(),
            wall_seconds: 0.5,
            sim_seconds: 0.0,
            checksum: 4,
            counters: vec![],
        });
        let md = render_markdown(&base, &fresh);
        assert!(md.contains("| `w` | 10.000 | 5.000 | 2.00× |"), "{md}");
        assert!(
            md.contains("**7 → 9**"),
            "checksum drift must be bolded: {md}"
        );
        assert!(md.contains("_new workload_"), "{md}");
        assert!(md.contains("| `dropped` | 1000.000 | _missing_ |"), "{md}");
        // no suite at the requested scale
        let none = render_markdown(&PerfBaseline::default(), &wall_suite(1.0));
        assert!(none.contains("no baseline suite"));
    }

    #[test]
    fn merge_replaces_same_scale_and_sorts() {
        let a = PerfSuite {
            scale: 0.15,
            results: vec![],
        };
        let b = PerfSuite {
            scale: 0.02,
            results: vec![],
        };
        let c = PerfSuite {
            scale: 0.15,
            results: vec![WorkloadResult {
                name: "x".into(),
                wall_seconds: 1.0,
                sim_seconds: 0.0,
                checksum: 1,
                counters: vec![],
            }],
        };
        let base = merge(merge(merge(PerfBaseline::default(), a), b), c);
        assert_eq!(base.schema, SCHEMA_VERSION);
        assert_eq!(base.suites.len(), 2);
        assert!(base.suites[0].scale < base.suites[1].scale);
        assert_eq!(base.suites[1].results.len(), 1);
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let base = merge(PerfBaseline::default(), tiny_suite());
        let text = serde_json::to_string_pretty(&base).unwrap();
        let back: PerfBaseline = serde_json::from_str(&text).unwrap();
        assert_eq!(back.schema, base.schema);
        assert_eq!(back.suites.len(), base.suites.len());
        assert_eq!(back.suites[0].results, base.suites[0].results);
    }
}
