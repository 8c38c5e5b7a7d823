//! Differential test of the component-local Reverse Cuthill–McKee ordering
//! on the network the paper's ordering study filters: the YNG preset at
//! scale 1.0 (5,348 genes, about 2,400 connected components, most of them
//! small). `ordering_permutation(_, OrderingKind::Rcm)` must equal the
//! whole-graph oracle shared with `casbn_graph`'s `rcm_differential` test,
//! and so must the relabelled graph `apply_ordering` builds from it.

#[path = "../../graph/tests/rcm_oracle/mod.rs"]
mod rcm_oracle;

use casbn_expr::{CorrelationNetwork, DatasetPreset, SyntheticMicroarray};
use casbn_graph::{apply_ordering, ordering_permutation, OrderingKind};
use rcm_oracle::rcm_whole_graph;

#[test]
fn rcm_matches_whole_graph_oracle_on_the_yng_preset() {
    let preset = DatasetPreset::Yng;
    let arr = SyntheticMicroarray::generate(&preset.scaled_params(1.0), preset.seed());
    let g = CorrelationNetwork::from_expression(&arr.matrix, preset.network_params()).graph;
    assert!(
        g.n() == 5348 && g.m() > 1000,
        "scale 1.0 must give the paper-sized network"
    );

    let want = rcm_whole_graph(&g);
    assert_eq!(
        ordering_permutation(&g, OrderingKind::Rcm),
        want,
        "RCM diverged from the oracle on the YNG network"
    );
    let (h, perm) = apply_ordering(&g, OrderingKind::Rcm);
    assert_eq!(perm, want);
    assert!(h.same_edges(&g.permuted(&want)));
}
