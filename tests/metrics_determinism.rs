//! Determinism contract of the telemetry subsystem: the snapshot's
//! deterministic section must be **bit-identical** across worker thread
//! counts (counters are charged as analytic work totals, merged in
//! sorted key order), identical modulo `store.*` bookkeeping across
//! eager vs lazy store opens, and wall-clock fields must
//! never leak into it.
//!
//! One `#[test]` only: the telemetry registry and the rayon thread
//! override are process-global, so phases run sequentially in a single
//! test body rather than racing from the harness thread pool.

use casbn::expr::{CorrelationNetwork, DatasetPreset, ExpressionMatrix, NetworkParams};
use casbn::graph::store as graph_store;
use casbn::mcode::{mcode_cluster, McodeParams};
use casbn::store::{Store, StoreWriter};
use casbn::stream::{synthesize_replay, StreamConfig, StreamDriver};
use std::collections::BTreeMap;

/// The instrumented pipeline under test: a pruned Pearson network build
/// (rayon-parallel over many work units) followed by a windowed stream replay
/// (online correlation, incremental chordal, MCODE, span timers).
fn run_workload(matrix: &ExpressionMatrix) {
    let net = CorrelationNetwork::from_expression(matrix, NetworkParams::default());
    assert!(net.graph.m() > 0, "workload must do real work");
    let mut driver = StreamDriver::new(matrix.genes(), StreamConfig::default());
    while driver.ingest_next(matrix).is_some() {}
    let summary = driver.finish();
    assert!(!summary.windows.is_empty());
}

/// Counters minus the `store.*` namespace (open/bookkeeping counts
/// legitimately differ between the eager and lazy read tiers).
fn non_store_counters(snap: &casbn::obs::Snapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(k, _)| !k.starts_with("store."))
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

#[test]
fn deterministic_snapshot_is_thread_count_and_tier_invariant() {
    let matrix = synthesize_replay(DatasetPreset::Yng, 0.05, Some(12));

    // --- phase 1: bit-identical across 1/2/4/8 worker threads ---
    let mut docs: Vec<(usize, String)> = Vec::new();
    for n in [1usize, 2, 4, 8] {
        std::env::set_var("RAYON_NUM_THREADS", n.to_string());
        casbn::obs::reset();
        casbn::obs::set_enabled(true);
        run_workload(&matrix);
        casbn::obs::set_enabled(false);
        docs.push((n, casbn::obs::snapshot().deterministic_json()));
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    let (_, reference) = &docs[0];
    for (n, doc) in &docs[1..] {
        assert_eq!(
            doc, reference,
            "deterministic snapshot diverged at {n} threads"
        );
    }
    for key in [
        "\"expr.tiles\"",
        "\"expr.grid_pairs\"",
        "\"expr.tile_pairs\"",
        "\"stream.windows\"",
        "\"inc_chordal.batches\"",
        "\"mcode.runs\"",
        "\"stream.window\"", // span aggregate
    ] {
        assert!(reference.contains(key), "snapshot is missing {key}");
    }

    // --- phase 2: wall fields stay out of the deterministic document ---
    casbn::obs::reset();
    casbn::obs::set_enabled(true);
    run_workload(&matrix);
    casbn::obs::set_enabled(false);
    let snap = casbn::obs::snapshot();
    let det = snap.deterministic_json();
    assert!(!det.contains("wall"), "wall fields leaked: {det}");
    assert!(!det.contains("nanos\": ") || det.contains("sim_nanos"));
    let full = snap.to_json();
    assert!(full.contains("\"wall\""), "full document must carry wall");
    assert!(
        snap.spans.get("stream.window").is_some_and(|a| a.count > 0),
        "stream span must aggregate"
    );

    // --- phase 3: eager vs lazy opens agree off `store.*` ---
    let ds = DatasetPreset::Yng.build_scaled(0.05);
    let mut w = StoreWriter::new();
    graph_store::add_graph(&mut w, 0, &ds.network);
    let bytes = w.to_bytes();

    casbn::obs::reset();
    casbn::obs::set_enabled(true);
    let eager_clusters = {
        let store = Store::parse(&bytes).expect("eager parse");
        let g = graph_store::load_first_graph(&store).expect("eager load");
        mcode_cluster(&g, &McodeParams::default()).len()
    };
    let eager = casbn::obs::snapshot();

    casbn::obs::reset();
    let lazy_clusters = {
        let store = Store::open_lazy(&bytes).expect("lazy open");
        let g = graph_store::load_first_graph(&store).expect("lazy load");
        mcode_cluster(&g, &McodeParams::default()).len()
    };
    casbn::obs::set_enabled(false);
    let lazy = casbn::obs::snapshot();

    assert_eq!(eager_clusters, lazy_clusters);
    assert_eq!(
        non_store_counters(&eager),
        non_store_counters(&lazy),
        "work off the store namespace must not depend on the read tier"
    );
    assert_eq!(eager.counters.get("store.open_eager"), Some(&1));
    assert_eq!(eager.counters.get("store.open_lazy"), None);
    assert_eq!(lazy.counters.get("store.open_lazy"), Some(&1));
    assert_eq!(lazy.counters.get("store.open_eager"), None);
    assert!(lazy.counters.contains_key("store.checksum_deferred"));
    // both tiers serve the same graph payload bytes
    assert_eq!(
        eager.counters.get("store.bytes.graph"),
        lazy.counters.get("store.bytes.graph"),
    );

    // --- phase 4: disabled mode records nothing ---
    casbn::obs::reset();
    assert!(!casbn::obs::enabled());
    run_workload(&matrix);
    let off = casbn::obs::snapshot();
    assert!(
        off.counters.is_empty() && off.spans.is_empty() && off.wall_hists.is_empty(),
        "disabled telemetry must record nothing, got {off:?}"
    );
}
