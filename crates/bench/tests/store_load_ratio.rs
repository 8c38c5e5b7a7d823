//! Acceptance gate of the `.csbn` store: loading the YNG network from a
//! container (full checksum validation + CSR reconstruction from the
//! section bytes) must be at least 5× faster than parsing the same
//! graph from whitespace edge-list text at scale 0.15. The container
//! path does two bulk array reads where the text path runs a per-edge
//! tokenise/parse/insert loop; release runs on a 2-vCPU VM measured
//! 5.7–7.3×, so the 5× bound's margin against scheduler noise is thin.

use casbn_expr::{CorrelationNetwork, DatasetPreset, SyntheticMicroarray};
use casbn_graph::io::read_edge_list;
use casbn_graph::store as graph_store;
use casbn_store::{Store, StoreWriter};
use std::time::Instant;

fn min_wall<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

#[test]
fn store_load_is_at_least_5x_faster_than_edge_list_text() {
    // the same YNG network the store-load-yng baseline workload uses
    let scale = 0.15;
    let arr = SyntheticMicroarray::generate(
        &DatasetPreset::Yng.scaled_params(scale),
        DatasetPreset::Yng.seed(),
    );
    let net = CorrelationNetwork::from_expression(&arr.matrix, DatasetPreset::Yng.network_params());
    let g = &net.graph;
    assert!(g.m() > 500, "scale 0.15 must give a non-trivial network");

    // both serialisations prepared outside the timed regions
    let mut text = Vec::new();
    casbn_graph::io::write_edge_list(g, &mut text, None).unwrap();
    let container = {
        let mut w = StoreWriter::new();
        graph_store::add_graph(&mut w, 0, g);
        w.to_bytes()
    };

    let reps = 20;
    let text_secs = min_wall(reps, || {
        let (parsed, _) = read_edge_list(&text[..], g.n()).unwrap();
        assert_eq!(parsed.m(), g.m());
        parsed
    });
    let store_secs = min_wall(reps, || {
        let store = Store::parse(&container).unwrap();
        let csr = graph_store::load_csr(&store, 0).unwrap();
        assert_eq!(csr.m(), g.m());
        csr
    });

    // loaded artifacts are equivalent, not just fast
    let store = Store::parse(&container).unwrap();
    assert!(graph_store::load_first_graph(&store).unwrap().same_edges(g));

    let ratio = text_secs / store_secs;
    // the perf bound only means something on optimized code — debug
    // builds slow the store's checksum/validation sweeps far more than
    // they slow text parsing (~2.5× there), so the gate runs in release
    // (CI runs this test with --release in the bench-smoke job)
    if cfg!(debug_assertions) {
        eprintln!("debug build: ratio {ratio:.1}x measured, 5x gate skipped");
        return;
    }
    assert!(
        ratio >= 5.0,
        "store load must be >= 5x faster than text: text {:.3} ms vs store {:.3} ms ({ratio:.1}x)",
        text_secs * 1e3,
        store_secs * 1e3,
    );
}
