//! Differential tests of the incremental chordal maintainer against the
//! batch DSW filter: after **every** delta batch the maintained subgraph
//! must pass the MCS chordality test, and its retained-edge count must
//! track a from-scratch DSW extraction of the same network snapshot to
//! within 2%.

use casbn_chordal::{is_chordal, maximal_chordal_subgraph, ChordalConfig};
use casbn_core::IncrementalChordal;
use casbn_expr::{DatasetPreset, ExpressionMatrix, NetworkParams};
use casbn_graph::Graph;
use casbn_stream::{synthesize_replay, OnlineCorrelation};

/// Drive a replay through the online/delta/incremental stack, checking
/// the invariants after every window. Returns the per-window (incremental
/// retained, from-scratch retained) pairs.
fn drive(matrix: &ExpressionMatrix, batch: usize, params: NetworkParams) -> Vec<(usize, usize)> {
    let genes = matrix.genes();
    let mut online = OnlineCorrelation::new(genes, params);
    let mut net = Graph::new(genes);
    let mut inc = IncrementalChordal::new(genes);
    let mut counts = Vec::new();
    let mut lo = 0;
    while lo < matrix.samples() {
        let hi = (lo + batch).min(matrix.samples());
        let delta = online.ingest(&matrix.columns(lo, hi));
        net.apply(&delta);
        inc.apply(&delta, &net);

        // invariant 1: chordality after every batch (MCS test)
        assert!(
            is_chordal(inc.subgraph()),
            "window ending at sample {hi}: subgraph not chordal"
        );
        // invariant 2: H stays a subgraph of the live network
        for (u, v) in inc.subgraph().edges() {
            assert!(net.has_edge(u, v), "stale edge ({u},{v}) at sample {hi}");
        }

        // from-scratch DSW on the same snapshot
        let scratch = maximal_chordal_subgraph(&net, ChordalConfig::default());
        counts.push((inc.retained_edges(), scratch.graph.m()));
        lo = hi;
    }
    counts
}

/// Retained-edge count within 2% of the from-scratch DSW, per window.
fn assert_within_two_percent(counts: &[(usize, usize)], label: &str) {
    for (w, &(inc, scratch)) in counts.iter().enumerate() {
        let diff = inc.abs_diff(scratch) as f64;
        let tol = 0.02 * scratch as f64;
        assert!(
            diff <= tol.ceil(),
            "{label} window {w}: incremental {inc} vs from-scratch {scratch} \
             (diff {diff}, tolerance {tol:.1})"
        );
    }
}

#[test]
fn yng_replay_tracks_from_scratch_dsw() {
    // the YNG preset's native regime: 8 arrays arriving in 4 windows
    let m = synthesize_replay(DatasetPreset::Yng, 0.1, None);
    let counts = drive(&m, 2, NetworkParams::default());
    assert_eq!(counts.len(), 4);
    let last = counts.last().unwrap();
    assert!(last.1 > 100, "final snapshot too small to be meaningful");
    assert_within_two_percent(&counts, "yng");
}

#[test]
fn longer_noisier_stream_with_churn_still_tracks() {
    // more samples than the preset ships: estimates sharpen over 8
    // windows, so mid-stream retractions (deletions) are exercised too
    let m = synthesize_replay(DatasetPreset::Yng, 0.05, Some(24));
    let counts = drive(&m, 3, NetworkParams::default());
    assert_eq!(counts.len(), 8);
    assert_within_two_percent(&counts, "yng-24");
}

#[test]
fn loose_thresholds_maximize_churn_and_still_track() {
    // a deliberately loose cut produces a denser, churnier network — the
    // hard case for greedy incremental admission
    let m = synthesize_replay(DatasetPreset::Yng, 0.04, Some(16));
    let params = NetworkParams {
        min_rho: 0.85,
        max_p: 0.01,
    };
    let counts = drive(&m, 2, params);
    assert_eq!(counts.len(), 8);
    assert_within_two_percent(&counts, "loose");
}
