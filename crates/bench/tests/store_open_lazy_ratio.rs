//! Acceptance gate of the lazy read tier: `Store::open_lazy` on the
//! scale-0.15 YNG container must open at least 10× faster than the
//! eager `store-load-yng` path (full checksum sweep + CSR
//! reconstruction). The lazy open validates the magic, version, header
//! checksum and section table — O(header + table) — and defers every
//! payload checksum to first access, so its cost is independent of
//! payload size while the eager path scans every byte.

use casbn_expr::{CorrelationNetwork, DatasetPreset, SyntheticMicroarray};
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
fn lazy_open_is_at_least_10x_faster_than_the_eager_load() {
    // the same YNG network the store-load-yng baseline workload uses
    let scale = 0.15;
    let arr = SyntheticMicroarray::generate(
        &DatasetPreset::Yng.scaled_params(scale),
        DatasetPreset::Yng.seed(),
    );
    let net = CorrelationNetwork::from_expression(&arr.matrix, DatasetPreset::Yng.network_params());
    let g = &net.graph;
    assert!(g.m() > 500, "scale 0.15 must give a non-trivial network");

    let container = {
        let mut w = StoreWriter::new();
        graph_store::add_graph(&mut w, 0, g);
        w.to_bytes()
    };

    let reps = 20;
    let eager_secs = min_wall(reps, || {
        let store = Store::parse(&container).unwrap();
        let csr = graph_store::load_csr(&store, 0).unwrap();
        assert_eq!(csr.m(), g.m());
        csr.xadj().len()
    });
    let lazy_secs = min_wall(reps, || {
        let store = Store::open_lazy(&container).unwrap();
        // read the table without touching a payload byte — the workload
        // the `inspect` subcommand and generation probing run
        store
            .sections()
            .iter()
            .fold(0u64, |acc, e| acc ^ e.checksum)
    });

    // deferring the checksum changes no answer: loading the section
    // through the lazy store yields the identical graph
    let store = Store::open_lazy(&container).unwrap();
    let csr = graph_store::load_csr(&store, 0).unwrap();
    assert!(csr.to_graph().same_edges(g));

    let ratio = eager_secs / lazy_secs;
    // the perf bound only means something on optimized code (CI runs
    // this test with --release in the bench-smoke job)
    if cfg!(debug_assertions) {
        eprintln!("debug build: ratio {ratio:.1}x measured, 10x gate skipped");
        return;
    }
    assert!(
        ratio >= 10.0,
        "lazy open must be >= 10x faster than the eager load: \
         eager {:.4} ms vs lazy {:.4} ms ({ratio:.1}x)",
        eager_secs * 1e3,
        lazy_secs * 1e3,
    );
}
