//! Crasher-regression suite: every committed corpus entry under
//! `tests/fixtures/corpus/<target>/` replays through its fuzzing target
//! with all three invariants holding (typed `Err`, never panic, never
//! over-allocation) — a once-found crasher that resurfaces fails this
//! test long before the CI fuzz-smoke campaign would rediscover it.
//! A short live campaign per target double-checks bit-determinism with
//! the allocation gauge installed.

use casbn_cli::commands::argv_surface;
use casbn_fuzz::{
    all_targets, replay_corpus, run_target, CountingAlloc, FuzzConfig, DEFAULT_MAX_ALLOC,
};
use std::path::PathBuf;

/// Installed so the engine's per-iteration allocation cap actually
/// bites in this test binary (mirrors the `casbn` binary).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One target's committed corpus, sorted by file name for a
/// deterministic replay order.
fn corpus_entries(target: &str) -> Vec<(String, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/corpus")
        .join(target);
    let mut entries = Vec::new();
    if let Ok(rd) = std::fs::read_dir(&dir) {
        for entry in rd.flatten() {
            let path = entry.path();
            if path.is_file() {
                entries.push((
                    entry.file_name().to_string_lossy().into_owned(),
                    std::fs::read(&path).expect("read corpus entry"),
                ));
            }
        }
    }
    entries.sort();
    entries
}

#[test]
fn committed_corpus_replays_clean_on_every_target() {
    let mut total = 0;
    for target in &mut all_targets(argv_surface()) {
        let entries = corpus_entries(target.name());
        assert!(
            !entries.is_empty(),
            "{}: no committed corpus entries",
            target.name()
        );
        total += entries.len();
        let crashes = replay_corpus(target.as_mut(), &entries, DEFAULT_MAX_ALLOC);
        let messages: Vec<&String> = crashes.iter().map(|c| &c.message).collect();
        assert!(crashes.is_empty(), "{}: {messages:?}", target.name());
    }
    assert!(total >= 10, "corpus unexpectedly small: {total} entries");
}

#[test]
fn short_campaigns_are_clean_and_bit_deterministic() {
    let cfg = FuzzConfig {
        iters: 100,
        seed: 7,
        ..Default::default()
    };
    let mut first = all_targets(argv_surface());
    let mut second = all_targets(argv_surface());
    for (a, b) in first.iter_mut().zip(second.iter_mut()) {
        let ra = run_target(a.as_mut(), &cfg);
        let rb = run_target(b.as_mut(), &cfg);
        let messages: Vec<&String> = ra.crashes.iter().map(|c| &c.message).collect();
        assert!(ra.crashes.is_empty(), "{}: {messages:?}", ra.target);
        assert_eq!(
            ra.trace_checksum, rb.trace_checksum,
            "{}: same-seed campaigns must produce identical traces",
            ra.target
        );
        assert_eq!((ra.accepted, ra.rejected), (rb.accepted, rb.rejected));
        assert!(
            ra.accepted > 0 && ra.rejected > 0,
            "{}: generators must exercise both outcomes (got {} accepted, {} rejected)",
            ra.target,
            ra.accepted,
            ra.rejected
        );
        assert!(
            ra.peak_alloc > 0,
            "{}: allocation gauge inactive",
            ra.target
        );
    }
}
