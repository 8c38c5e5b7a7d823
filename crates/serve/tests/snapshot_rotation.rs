//! Snapshot rotation under concurrent ingest.
//!
//! Two layers of proof that readers never observe a half-published
//! snapshot:
//!
//! 1. A **deterministic interleaving**: the writer advances one window
//!    at a time while a reader holds handles acquired at every epoch.
//!    Each held handle keeps answering bit-identically to an
//!    independent single-threaded oracle driver advanced to the same
//!    window — old snapshots stay consistent after arbitrarily many
//!    rotations.
//! 2. A **real-thread stress**: reader threads spin acquiring
//!    snapshots while the writer ingests the whole replay. Every
//!    acquired snapshot passes its integrity token, epochs are
//!    monotone per reader, and the writer publishes every rotation
//!    without waiting on readers.

use casbn_expr::DatasetPreset;
use casbn_serve::protocol::Request;
use casbn_serve::{ServeEngine, ServeSnapshot, SnapshotRegistry};
use casbn_stream::{synthesize_replay, StreamConfig, StreamDriver};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Queries covering every read-only opcode, applied identically to the
/// engine's snapshot and the oracle's.
fn probe_queries(genes: u32) -> Vec<Request> {
    let mut q = vec![Request::Stats];
    for g in 0..genes.min(24) {
        q.push(Request::Neighborhood { gene: g });
        q.push(Request::ClusterOf { gene: g });
        q.push(Request::Rho {
            u: g,
            v: (g + 1) % genes,
        });
    }
    q.push(Request::Enrich {
        genes: (0..genes.min(8)).collect(),
    });
    q
}

fn answers(snap: &ServeSnapshot, queries: &[Request]) -> Vec<Vec<u8>> {
    queries
        .iter()
        .map(|q| snap.answer(q).encode_frame())
        .collect()
}

#[test]
fn held_snapshots_match_per_window_oracle_across_rotations() {
    let replay = synthesize_replay(DatasetPreset::Yng, 0.02, Some(8));
    let genes = replay.genes() as u32;
    let queries = probe_queries(genes);

    let mut engine = ServeEngine::from_replay(replay.clone(), StreamConfig::default());
    let total = engine.remaining_windows();
    assert!(total >= 2, "need at least two rotations");

    // the reader's view: one handle per epoch, acquired as published
    let mut held = vec![engine.snapshot()];
    for _ in 0..total {
        engine.ingest_windows(1).unwrap();
        held.push(engine.snapshot());
    }
    assert_eq!(engine.registry().rotations(), total as u64);

    // the oracle: a fresh single-threaded driver replayed to each window
    for (epoch, snap) in held.iter().enumerate() {
        assert_eq!(snap.epoch(), epoch as u64);
        assert!(snap.verify_token(), "epoch {epoch} failed its token");
        let mut oracle = StreamDriver::new(replay.genes(), StreamConfig::default());
        for _ in 0..epoch {
            oracle.ingest_next(&replay);
        }
        let dag = casbn_serve::snapshot::serving_dag();
        let oracle_snap = ServeSnapshot::build(
            epoch as u64,
            oracle.samples_ingested() as u64,
            oracle.network().clone(),
            oracle.chordal().clone(),
            oracle.clusters().to_vec(),
            &oracle
                .network()
                .edges()
                .map(|(u, v)| ((u, v), oracle.rho(u, v)))
                .collect::<Vec<_>>(),
            &dag,
        );
        assert_eq!(
            answers(snap, &queries),
            answers(&oracle_snap, &queries),
            "epoch {epoch} diverged from the single-threaded oracle"
        );
    }
}

#[test]
fn readers_never_observe_torn_state_under_thread_stress() {
    let replay = synthesize_replay(DatasetPreset::Yng, 0.05, Some(12));
    let mut engine = ServeEngine::from_replay(replay, StreamConfig::default());
    let registry: Arc<SnapshotRegistry> = engine.registry();
    let total = engine.remaining_windows();
    assert!(total >= 2);

    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..4 {
            let reg = registry.clone();
            let done = done.clone();
            readers.push(scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut acquired = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let snap = reg.acquire();
                    assert!(snap.verify_token(), "reader saw a torn snapshot");
                    assert!(snap.epoch() >= last_epoch, "reader saw epoch go backwards");
                    last_epoch = snap.epoch();
                    // exercise the indices, not just the token
                    let _ = snap.answer(&Request::Stats).encode_frame();
                    acquired += 1;
                }
                acquired
            }));
        }
        // the writer never waits on readers: ingest the whole replay
        let (run, epoch) = engine.ingest_windows(total).unwrap();
        assert_eq!(run, total);
        assert_eq!(epoch, total as u64);
        done.store(true, Ordering::SeqCst);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader never ran");
        }
    });
    assert_eq!(registry.rotations(), total as u64);
    assert!(registry.rotations() >= 2);
    let final_snap = registry.acquire();
    assert!(final_snap.verify_token());
    assert_eq!(final_snap.epoch(), total as u64);
}
