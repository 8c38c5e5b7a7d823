//! Cross-crate smoke test: the complete paper pipeline from raw synthetic
//! expression values to sensitivity/specificity, exercised through the
//! facade crate's public API only.

use casbn::analysis::{classify_quadrants, overlap_table};
use casbn::expr::{CorrelationNetwork, NetworkParams, SyntheticMicroarray, SyntheticParams};
use casbn::ontology::{AnnotatedOntology, EnrichmentScorer, GoDag};
use casbn::prelude::*;
use casbn::sampling::filter_with_ordering;

#[test]
fn expression_to_quadrants_end_to_end() {
    // 1. microarray
    let arr = SyntheticMicroarray::generate(
        &SyntheticParams {
            genes: 800,
            samples: 8,
            modules: 25,
            module_size: 10,
            loading_sq: 0.95,
        },
        99,
    );
    // 2. correlation network (paper thresholds)
    let net = CorrelationNetwork::from_expression(&arr.matrix, NetworkParams::default());
    assert!(net.graph.m() > 100, "network too sparse: {}", net.graph.m());

    // 3. ontology wired to the planted modules
    let dag = GoDag::generate(8, 4, 0.25, 7);
    let onto = AnnotatedOntology::synthetic(800, &arr.modules, dag, 6, 2, 11);
    let scorer = EnrichmentScorer::new(&onto);

    // 4. cluster original
    let params = McodeParams::default();
    let orig = mcode_cluster(&net.graph, &params);
    assert!(!orig.is_empty());

    // 5. filter (parallel, ordered) + cluster
    let filter = ParallelChordalNoCommFilter::new(4, PartitionKind::Block);
    let out = filter_with_ordering(&net.graph, OrderingKind::Rcm, &filter, 5);
    assert!(out.graph.m() < net.graph.m());
    let filt = mcode_cluster(&out.graph, &params);
    assert!(!filt.is_empty());

    // 6. overlap + quadrants
    let table = overlap_table(&orig, &filt);
    let aees: Vec<f64> = table
        .iter()
        .map(|t| scorer.annotate_cluster(&filt[t.filtered_idx].edges).aees)
        .collect();
    let over: Vec<f64> = table.iter().map(|t| t.node_overlap).collect();
    let (_, counts) = classify_quadrants(&aees, &over, 3.0, 0.5);
    let total = counts.tp + counts.fp + counts.fn_ + counts.tn;
    assert_eq!(total, filt.len());
    // true positives must exist: the filter keeps real biology
    assert!(counts.tp > 0, "no true positives: {counts:?}");
}

#[test]
fn quasi_chordal_structure_of_parallel_output() {
    // parallel chordal output = chordal per partition + border triangles;
    // with 1 rank it must be exactly chordal
    let ds = DatasetPreset::Yng.build_scaled(0.2);
    let out1 = ParallelChordalNoCommFilter::new(1, PartitionKind::Block).filter(&ds.network, 0);
    assert!(casbn::chordal::is_chordal(&out1.graph));

    // with many ranks, quasi-chordal: few triangle-free edges relative to
    // a random subgraph of the same size
    let out8 = ParallelChordalNoCommFilter::new(8, PartitionKind::Block).filter(&ds.network, 0);
    let census = casbn::graph::algo::cycle_census(&out8.graph);
    assert!(
        census.independent_cycles < out8.graph.m(),
        "quasi-chordal output should not be cycle-soup"
    );
}

#[test]
fn facade_reexports_compile_and_work() {
    // tiny sanity pass over the prelude surface
    let g = casbn::graph::generators::gnm(50, 100, 1);
    assert!(!casbn::chordal::is_chordal(&g) || g.m() < 50);
    let r = casbn::chordal::maximal_chordal_subgraph(&g);
    assert!(casbn::chordal::is_chordal(&r.graph));
    let out = SequentialChordalFilter::new().filter(&g, 0);
    assert_eq!(out.graph.m(), r.graph.m());
}
