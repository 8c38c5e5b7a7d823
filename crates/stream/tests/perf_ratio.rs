//! The acceptance bound of the streaming subsystem: per-batch simulated
//! cost of incremental chordal maintenance must be **≥ 5× below** a full
//! all-pairs Pearson + DSW recompute of the same window, on the YNG preset at
//! dataset scale 0.15 (the committed perf-baseline scale).

use casbn_core::IncrementalChordal;
use casbn_distsim::CostModel;
use casbn_expr::{DatasetPreset, NetworkParams};
use casbn_graph::Graph;
use casbn_stream::{rebuild_sim_seconds, synthesize_replay, OnlineCorrelation};

#[test]
fn incremental_maintenance_is_5x_cheaper_than_rebuild_at_scale_015() {
    let scale = 0.15;
    let batch = 2;
    let cost = CostModel::default();
    let m = synthesize_replay(DatasetPreset::Yng, scale, None);
    let genes = m.genes();

    let mut online = OnlineCorrelation::new(genes, NetworkParams::default());
    let mut net = Graph::new(genes);
    let mut inc = IncrementalChordal::new(genes);

    let mut lo = 0;
    let mut window = 0usize;
    let mut worst_ratio = f64::INFINITY;
    while lo < m.samples() {
        let hi = (lo + batch).min(m.samples());
        let delta = online.ingest(&m.columns(lo, hi));
        net.apply(&delta);
        let stats = inc.apply(&delta, &net);

        // what a batch pipeline would pay instead for this window: re-run
        // all-pairs Pearson over all samples seen so far plus a
        // from-scratch DSW of the resulting network
        let scratch = casbn_chordal::maximal_chordal_subgraph(&net);
        let rebuild = rebuild_sim_seconds(genes, hi, scratch.work.ops, cost);
        assert!(stats.sim_seconds > 0.0, "window {window} charged nothing");
        let ratio = rebuild / stats.sim_seconds;
        assert!(
            ratio >= 5.0,
            "window {window}: incremental {:.3e}s vs rebuild {:.3e}s — only {ratio:.1}x",
            stats.sim_seconds,
            rebuild
        );
        worst_ratio = worst_ratio.min(ratio);
        window += 1;
        lo = hi;
    }
    assert_eq!(window, 4, "8 native YNG samples in 4 windows of 2");
    // the margin should be comfortable, not marginal — the maintenance
    // work is neighbourhood-local while the rebuild is all-pairs
    assert!(
        worst_ratio >= 10.0,
        "worst window ratio {worst_ratio:.1}x is uncomfortably close to the bound"
    );
}
