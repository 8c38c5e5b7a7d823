//! Acceptance gate of the pruned Pearson kernel: on the scale-0.15 YNG
//! array, `from_expression` must test the projected distance of at most
//! 12% of the g(g−1)/2 gene pairs (`expr.grid_pairs`), compute ρ for at
//! most 2% of them (`expr.tile_pairs`, pinned at 1,005), and still keep
//! exactly the edges of the all-pairs `from_expression_seq` oracle. All
//! three numbers are deterministic work counts, not wall times, so the
//! gate holds in any build profile and on any host.

use casbn_expr::{CorrelationNetwork, DatasetPreset, SyntheticMicroarray};

#[test]
fn pruned_pearson_scores_at_most_2_percent_of_pairs() {
    // the same YNG array the pearson-yng baseline workload uses
    let scale = 0.15;
    let arr = SyntheticMicroarray::generate(
        &DatasetPreset::Yng.scaled_params(scale),
        DatasetPreset::Yng.seed(),
    );
    let params = DatasetPreset::Yng.network_params();

    casbn_obs::reset();
    casbn_obs::set_enabled(true);
    let net = CorrelationNetwork::from_expression(&arr.matrix, params);
    casbn_obs::set_enabled(false);
    let counters = casbn_obs::snapshot().counters;
    let scored = counters["expr.tile_pairs"];
    let tested = counters["expr.grid_pairs"];

    let oracle = CorrelationNetwork::from_expression_seq(&arr.matrix, params);
    assert!(
        oracle.graph.m() > 500,
        "scale 0.15 must give a non-trivial network"
    );
    assert_eq!(net.weights, oracle.weights, "pruning changed the edges");
    assert_eq!(counters["expr.edges_retained"], oracle.graph.m() as u64);

    let g = arr.matrix.genes() as u64;
    let pairs = g * (g - 1) / 2;
    let ratio = scored as f64 / pairs as f64;
    assert!(
        ratio <= 0.02,
        "pruned kernel scored {scored} of {pairs} pairs ({:.2}%), gate is 2%",
        ratio * 100.0
    );
    // the candidate set is fixed by the 6-D distance test, not the grid
    assert_eq!(scored, 1005, "the pairs reaching the distance test moved");
    let ratio = tested as f64 / pairs as f64;
    assert!(
        ratio <= 0.12,
        "grid tested {tested} of {pairs} pairs ({:.2}%), gate is 12%",
        ratio * 100.0
    );
}
