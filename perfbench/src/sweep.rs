//! `sweep-yng`: the paper's perturbation study on the YNG-sized array.
//!
//! The array is the preset's own at every seed, as the study perturbs
//! the orderings of one dataset; the seed draws the random orderings (and
//! the client's bursts), so a run's work does not swing with the
//! network's size. Set-up builds the YNG network and scores its original
//! clusters. One pass runs 16 vertex orderings (Natural, HighDegree,
//! LowDegree, Rcm and 12 seeded random permutations) × {chordal-nocomm,
//! chordal-comm, random-walk} at 2 ranks, each through
//! `filter_with_ordering` → MCODE → AEES → `overlap_table` +
//! `classify_quadrants`. Pearson does no timed work here. The traced pass makes `filter_with_ordering`'s calls itself
//! (relabel, filter, map back) so the ordering layer has its own span.

use crate::client::{Bursts, ClientStats};
use crate::common::{self, counted, counter, RunCfg, CLIENT_SEED};
use crate::metrics::Report;
use crate::trace;
use crate::util::{data_seed, median, peak_rss_mb, secs, Fnv};
use casbn_analysis::{classify_quadrants, overlap_table, QuadrantCounts};
use casbn_core::{
    filter_with_ordering, Filter, FilterOutput, ParallelChordalCommFilter,
    ParallelChordalNoCommFilter, ParallelRandomWalkFilter,
};
use casbn_expr::{CorrelationNetwork, DatasetPreset, SyntheticMicroarray};
use casbn_graph::{apply_ordering, Graph, OrderingKind, PartitionKind};
use casbn_mcode::{mcode_cluster, Cluster, McodeParams};
use casbn_ontology::{AnnotatedOntology, EnrichmentScorer};
use std::time::{Duration, Instant};

/// Simulated ranks of every filter.
const RANKS: usize = 2;
/// Seeded random orderings per pass, beside the paper's four.
const RANDOM_ORDERINGS: u64 = 12;
/// Set-ups per set-up measurement (the median is reported).
const SETUP_REPEATS: usize = 7;
/// The paper's relevance cuts: AEES ≥ 3.0, node overlap > 50 %.
const AEES_CUT: f64 = 3.0;
const OVERLAP_CUT: f64 = 0.5;
/// Pinned checksum over every run's (retained edges, TP, FP, FN, TN) at
/// paper scale, per seed: the default seed 0 and the held-out seed 7.
const PINS: &[(u64, u64)] = &[(0, 9120541915194629000), (7, 15789990910698418674)];

/// The three filters the paper compares.
#[derive(Clone, Copy)]
enum Algo {
    NoComm,
    Comm,
    Walk,
}

const ALGOS: [Algo; 3] = [Algo::NoComm, Algo::Comm, Algo::Walk];

impl Algo {
    /// Filter `g` under ordering `kind`, in `g`'s labels.
    fn run(self, g: &Graph, kind: OrderingKind, seed: u64) -> FilterOutput {
        match self {
            Algo::NoComm => ordered(
                &ParallelChordalNoCommFilter::new(RANKS, PartitionKind::Block),
                g,
                kind,
                seed,
            ),
            Algo::Comm => ordered(
                &ParallelChordalCommFilter::new(RANKS, PartitionKind::Block),
                g,
                kind,
                seed,
            ),
            Algo::Walk => ordered(
                &ParallelRandomWalkFilter::new(RANKS, PartitionKind::Block),
                g,
                kind,
                seed,
            ),
        }
    }
}

/// `filter_with_ordering`, or on a traced pass its calls made one by one
/// (relabel, filter, map back), one span each.
fn ordered<F: Filter>(f: &F, g: &Graph, kind: OrderingKind, seed: u64) -> FilterOutput {
    if !trace::enabled() {
        return filter_with_ordering(g, kind, f, seed);
    }
    let (h, perm) = {
        let _s = trace::span("graph.ordering");
        apply_ordering(g, kind)
    };
    let mut out = {
        let _s = trace::span("core.filter");
        f.filter(&h, seed)
    };
    let _s = trace::span("graph.ordering");
    let mut inv = vec![0u32; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        inv[new as usize] = old as u32;
    }
    out.graph = out.graph.permuted(&inv);
    out
}

/// The network and its scored original clusters.
struct Original {
    net: CorrelationNetwork,
    clusters: Vec<Cluster>,
}

fn setup(matrix: &casbn_expr::ExpressionMatrix, onto: &AnnotatedOntology) -> Original {
    let net = CorrelationNetwork::from_expression(matrix, DatasetPreset::Yng.network_params());
    let clusters = mcode_cluster(&net.graph, &McodeParams::default());
    let scorer = EnrichmentScorer::new(onto);
    for c in &clusters {
        std::hint::black_box(scorer.annotate_cluster(&c.edges));
    }
    Original { net, clusters }
}

/// One (ordering, filter) run's checked outputs.
struct RunOut {
    stats: casbn_core::FilterStats,
    clusters: usize,
    counts: QuadrantCounts,
}

fn one_run(
    orig: &Original,
    onto: &AnnotatedOntology,
    kind: OrderingKind,
    algo: Algo,
    seed: u64,
) -> RunOut {
    let out = algo.run(&orig.net.graph, kind, seed);
    let clusters = {
        let _s = trace::span("mcode.cluster");
        mcode_cluster(&out.graph, &McodeParams::default())
    };
    let aees: Vec<f64> = {
        let _s = trace::span("ontology.aees");
        let scorer = EnrichmentScorer::new(onto);
        clusters
            .iter()
            .map(|c| scorer.annotate_cluster(&c.edges).aees)
            .collect()
    };
    let counts = {
        let _s = trace::span("analysis.overlap");
        let table = overlap_table(&orig.clusters, &clusters);
        let overlaps: Vec<f64> = table.iter().map(|t| t.node_overlap).collect();
        classify_quadrants(&aees, &overlaps, AEES_CUT, OVERLAP_CUT).1
    };
    RunOut {
        stats: out.stats,
        clusters: clusters.len(),
        counts,
    }
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Report {
    // input generation (untimed): the array and its ontology are the
    // preset's own, one fixed dataset as in the paper's study; the seed
    // draws the random orderings and the client's bursts
    let preset = DatasetPreset::Yng;
    let params = preset.scaled_params(cfg.scale);
    let dseed = data_seed(preset.seed(), cfg.seed);
    let arr = SyntheticMicroarray::generate(&params, preset.seed());
    let onto = common::synthetic_ontology(params.genes, &arr.modules, preset.seed());
    let bursts = Bursts::generate(params.genes as u32, dseed ^ CLIENT_SEED);
    let mut orderings = vec![
        OrderingKind::Natural,
        OrderingKind::HighDegree,
        OrderingKind::LowDegree,
        OrderingKind::Rcm,
    ];
    orderings.extend((0..RANDOM_ORDERINGS).map(|i| OrderingKind::Random(dseed ^ (i + 1))));
    let mut report = Report::default();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut orig = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        orig = Some(setup(&arr.matrix, &onto));
        setups.push(t.elapsed());
    }
    let orig = orig.expect("set-up ran");
    report.set("setup_s", median(&secs(&setups)));

    let pin = common::pinned(PINS, cfg);
    let mut reference: Option<Vec<u64>> = None;
    let mut last: Vec<RunOut> = Vec::new();
    let mut one_pass = |report: &mut Report| -> Duration {
        let t = Instant::now();
        let outs: Vec<RunOut> = {
            let _pass = trace::span("sweep.pass");
            orderings
                .iter()
                .flat_map(|&kind| ALGOS.map(|algo| (kind, algo)))
                .map(|(kind, algo)| one_run(&orig, &onto, kind, algo, cfg.seed))
                .collect()
        };
        let wall = t.elapsed();
        let keys: Vec<u64> = outs.iter().map(run_key).collect();
        let reference = reference.get_or_insert_with(|| {
            eprintln!(
                "sweep-yng seed {}: network {} edges, {} original clusters, {} filtered clusters per pass, checksum {}",
                cfg.seed,
                orig.net.graph.m(),
                orig.clusters.len(),
                outs.iter().map(|o| o.clusters).sum::<usize>(),
                fold(&keys)
            );
            keys.clone()
        });
        let pin_ok = pin.is_none_or(|p| p == fold(&keys));
        for (out, (key, want)) in outs.iter().zip(keys.iter().zip(reference.iter())) {
            let c = out.counts;
            report.check(
                key == want
                    && pin_ok
                    && c.tp + c.fp + c.fn_ + c.tn == out.clusters
                    && out.stats.retained_edges <= out.stats.original_edges,
            );
        }
        last = outs;
        wall
    };

    if !cfg.trace {
        // a warm-up pass (checked, untimed) sets the reference
        one_pass(&mut report);
        let registry = common::static_registry(orig.net.graph.clone());
        let mut client = ClientStats::default();
        let walls = common::passes_and_serving(
            Duration::from_secs_f64(cfg.seconds),
            || one_pass(&mut report),
            |d| client.absorb(common::serve_for(&registry, &bursts, d)),
        );
        report.set("pass_s", median(&secs(&walls)));
        common::client_metrics(&mut report, &client);
        report.set("peak_rss_mb", peak_rss_mb());
        return report;
    }

    let half = cfg.pass_budget() / 2;
    let untraced = common::pass_loop(half, || one_pass(&mut report));
    let (traced, counters) =
        counted(|| common::traced(|| common::pass_loop(half, || one_pass(&mut report))));
    let registry = common::static_registry(orig.net.graph.clone());
    let stats = common::traced(|| common::serve_for(&registry, &bursts, cfg.serve_budget()));
    let c = trace::take();
    let passes = traced.len() as f64;
    for (metric, span) in [
        ("graph.ordering_ms", "graph.ordering"),
        ("core.filter_ms", "core.filter"),
        ("mcode.cluster_ms", "mcode.cluster"),
        ("ontology.aees_ms", "ontology.aees"),
        ("analysis.overlap_ms", "analysis.overlap"),
    ] {
        report.set(metric, common::self_ns_per(&c, span, passes) / 1e6);
    }
    let sum = |f: &dyn Fn(&RunOut) -> f64| last.iter().map(f).sum::<f64>();
    report.set(
        "core.retained_edges",
        sum(&|r| r.stats.retained_edges as f64),
    );
    report.set("core.border_edges", sum(&|r| r.stats.border_edges as f64));
    report.set("core.messages", sum(&|r| r.stats.messages as f64));
    report.set("core.sim_makespan_ms", sum(&|r| r.stats.sim_makespan * 1e3));
    report.set(
        "chordal.dsw_ops",
        counter(&counters, "dsw.ops") as f64 / passes,
    );
    report.set("mcode.clusters", sum(&|r| r.clusters as f64));
    report.set("ontology.clusters_scored", sum(&|r| r.clusters as f64));
    common::client_layers(&mut report, &c, &stats);
    common::trace_accounting(
        &mut report,
        &c,
        "sweep.pass",
        median(&secs(&untraced)),
        median(&secs(&traced)),
    );
    crate::write_trace(&c, "sweep-yng", cfg);
    report
}

/// One run's checked facts, folded.
fn run_key(r: &RunOut) -> u64 {
    let c = r.counts;
    let mut h = Fnv::default();
    for x in [r.stats.retained_edges, c.tp, c.fp, c.fn_, c.tn] {
        h.mix(x as u64);
    }
    h.0
}

fn fold(keys: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &k in keys {
        h.mix(k);
    }
    h.0
}
