//! Run configuration and the pieces every workload shares: the pass
//! loop, the synthetic ontology, obs counter deltas, and turning client
//! statistics and trace aggregates into metrics.

use crate::client::{self, Bursts, ClientStats};
use crate::metrics::Report;
use crate::trace::{self, Collected};
use crate::util::median;
use casbn_graph::{Graph, VertexId};
use casbn_mcode::McodeParams;
use casbn_ontology::{AnnotatedOntology, GoDag};
use casbn_serve::{ServeEngine, SnapshotRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Passes every pass loop runs at least, so each median has a middle.
pub const MIN_PASSES: usize = 3;
/// Share of `--seconds` the batch workloads spend on passes; the rest
/// serves their result to the client.
const PASS_SHARE: f64 = 0.6;
/// Trace-overhead and coverage gate: top-level layer spans must cover
/// this share of every traced pass.
pub const MIN_COVER: f64 = 0.95;
/// The client's request seed is the data seed mixed with this.
pub const CLIENT_SEED: u64 = 0x00C1_1E47;

/// One run's settings, from the command line.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Dataset scale; pinned checksums exist only at paper scale (1.0).
    pub scale: f64,
}

impl RunCfg {
    /// Whether outputs are compared with pinned checksums.
    pub fn paper_scale(&self) -> bool {
        self.scale == 1.0
    }

    /// Time the batch workloads spend on passes.
    pub fn pass_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * PASS_SHARE)
    }

    /// Time the batch workloads spend serving their result.
    pub fn serve_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * (1.0 - PASS_SHARE))
    }
}

/// Pinned output checksum of `seed`, if one is pinned.
pub fn pinned(pins: &[(u64, u64)], cfg: &RunCfg) -> Option<u64> {
    if !cfg.paper_scale() {
        return None;
    }
    pins.iter().find(|p| p.0 == cfg.seed).map(|p| p.1)
}

/// GO DAG and annotation shape of the repository's experiment pipeline
/// (`casbn_bench::pipeline`): module terms at depth 6 of an 8-level DAG.
pub fn synthetic_ontology(genes: usize, modules: &[Vec<VertexId>], seed: u64) -> AnnotatedOntology {
    let dag = GoDag::generate(8, 4, 0.25, seed ^ 0x60);
    AnnotatedOntology::synthetic(genes, modules, dag, 6, 2, seed ^ 0xA11)
}

/// Run `pass` until `budget` has elapsed and at least [`MIN_PASSES`]
/// ran; returns each pass's wall time as measured by `pass` itself.
pub fn pass_loop(budget: Duration, mut pass: impl FnMut() -> Duration) -> Vec<Duration> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < MIN_PASSES || start.elapsed() < budget {
        walls.push(pass());
    }
    log_walls(&walls);
    walls
}

/// Deterministic `casbn_obs` counter totals recorded while `f` runs.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Vec<(String, u64)>) {
    let prior = casbn_obs::set_enabled(true);
    let before = casbn_obs::snapshot();
    let out = f();
    let counters = casbn_obs::snapshot().counter_delta(&before);
    casbn_obs::set_enabled(prior);
    (out, counters)
}

/// One counter out of a [`counted`] delta (0 when it never moved).
pub fn counter(counters: &[(String, u64)], key: &str) -> u64 {
    counters
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0, |(_, v)| *v)
}

/// Run `pass` and `serve` by turns until `budget` has elapsed and at
/// least [`MIN_PASSES`] passes ran; returns each pass's wall time. After
/// each pass, `serve` gets the time that keeps serving at its share of
/// the run. The host's speed drifts over seconds, so the client's slices
/// are spread over the whole run rather than taken at its end.
pub fn passes_and_serving(
    budget: Duration,
    mut pass: impl FnMut() -> Duration,
    mut serve: impl FnMut(Duration),
) -> Vec<Duration> {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut served = Duration::ZERO;
    while walls.len() < MIN_PASSES || start.elapsed() < budget {
        walls.push(pass());
        let passed: Duration = walls.iter().sum();
        let due = passed.mul_f64((1.0 - PASS_SHARE) / PASS_SHARE);
        let t = Instant::now();
        serve(due.saturating_sub(served));
        served += t.elapsed();
    }
    log_walls(&walls);
    walls
}

fn log_walls(walls: &[Duration]) {
    let ms: Vec<String> = walls
        .iter()
        .map(|w| format!("{:.1}", w.as_secs_f64() * 1e3))
        .collect();
    eprintln!("pass walls, ms: {}", ms.join(" "));
}

/// The registry of a static engine serving `graph` (the daemon's
/// packed-artifact mode).
pub fn static_registry(graph: Graph) -> Arc<SnapshotRegistry> {
    ServeEngine::from_graph(graph, &McodeParams::default()).registry()
}

/// Serve `registry` to the client for `budget`.
pub fn serve_for(registry: &SnapshotRegistry, bursts: &Bursts, budget: Duration) -> ClientStats {
    let deadline = Instant::now() + budget;
    client::run(registry, bursts, || Instant::now() >= deadline)
}

/// End-to-end client metrics (medians over the client's slices), and
/// the client's checks into the tally.
pub fn client_metrics(report: &mut Report, stats: &ClientStats) {
    report.check_many(stats.requests, stats.bad + stats.epoch_regressions);
    let over_slices = |f: &dyn Fn(&client::Slice) -> f64| {
        median(&stats.slices.iter().map(f).collect::<Vec<f64>>())
    };
    report.set("qps", over_slices(&|s| s.qps));
    report.set("rtt_us_p50", over_slices(&|s| s.rtt_p50_ns as f64 / 1e3));
    report.set("rtt_us_p99", over_slices(&|s| s.rtt_p99_ns as f64 / 1e3));
}

/// Mean self time of span `name` per `per` units, in nanoseconds (0 when
/// the span never ran).
pub fn self_ns_per(c: &Collected, name: &str, per: f64) -> f64 {
    match c.aggs.get(name) {
        Some(a) if per > 0.0 => a.self_ns as f64 / per,
        _ => 0.0,
    }
}

/// Mean self time of one `name` span, in nanoseconds.
pub fn self_ns_each(c: &Collected, name: &str) -> f64 {
    c.aggs
        .get(name)
        .map_or(0.0, |a| self_ns_per(c, name, a.count as f64))
}

/// Per-layer metrics of the traced client, and its checks into the tally.
pub fn client_layers(report: &mut Report, c: &Collected, stats: &ClientStats) {
    report.check_many(stats.requests, stats.bad + stats.epoch_regressions);
    report.set("serve.requests", stats.requests as f64);
    report.set("serve.errors", (stats.bad + stats.epoch_regressions) as f64);
    report.set("serve.decode_ns", self_ns_each(c, "serve.decode"));
    report.set("serve.encode_ns", self_ns_each(c, "serve.encode"));
    report.set("serve.acquire_ns", self_ns_each(c, "serve.acquire"));
    for (metric, span) in [
        ("serve.answer_ns.neighborhood", "serve.answer.neighborhood"),
        ("serve.answer_ns.cluster", "serve.answer.cluster"),
        ("serve.answer_ns.rho", "serve.answer.rho"),
        ("serve.answer_ns.enrich", "serve.answer.enrich"),
        ("serve.answer_ns.stats", "serve.answer.stats"),
    ] {
        report.set(metric, self_ns_each(c, span));
    }
}

/// Coverage of the traced passes rooted at `root`, checked against
/// [`MIN_COVER`], and the tracing overhead per pass.
pub fn trace_accounting(
    report: &mut Report,
    c: &Collected,
    root: &str,
    untraced_pass_s: f64,
    traced_pass_s: f64,
) {
    let cover = c.aggs.get(root).map_or(0.0, |a| a.min_cover);
    report.check(cover >= MIN_COVER);
    report.set("trace.cover_pct", cover * 100.0);
    report.set("trace.overhead_ms", (traced_pass_s - untraced_pass_s) * 1e3);
}

/// Write the raw spans of a traced run to `path` as tab-separated rows.
pub fn write_spans(path: &std::path::Path, c: &Collected) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "root\tname\tparent\tstart_ns\tdur_ns\tself_ns")?;
    for r in &c.raw {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            r.root,
            r.name,
            r.parent.unwrap_or("-"),
            r.start_ns,
            r.dur_ns,
            r.self_ns
        )?;
    }
    w.flush()
}

/// Turn tracing on for `f`, flushing this thread's spans afterwards.
pub fn traced<T>(f: impl FnOnce() -> T) -> T {
    trace::set_enabled(true);
    let out = f();
    trace::set_enabled(false);
    trace::flush();
    out
}
