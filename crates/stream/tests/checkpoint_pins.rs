//! Checkpoint byte pins: the FNV-1a of `checkpoint_bytes()` after every
//! window of two small YNG replays, one of which drops edges as its
//! estimates sharpen. A change to how the driver holds its state (where
//! the live network lives, how the membership words are produced) must
//! leave every checkpoint byte where it was; when a value drifts, the
//! test prints all of them.
//!
//! Each window record ends in its wall time, the one host timing in a
//! checkpoint, so the hash is taken after those fields are zeroed and
//! the container re-written; re-writing the untouched sections gives the
//! original bytes back, so every other byte is pinned as written.

use casbn_expr::{DatasetPreset, NetworkParams};
use casbn_store::{fnv1a, SectionKind, Store, StoreWriter};
use casbn_stream::{synthesize_replay, StreamConfig, StreamDriver};

/// FNV-1a of the checkpoint after each window of the streaming smoke's
/// replay (scale 0.02, 8 samples, batch 2).
const SMOKE_PINS: [u64; 4] = [
    16248581356555746665,
    2586407637507916566,
    13873077106845960798,
    14719745102533371749,
];

/// The same, for a 16-sample replay at loose thresholds, where early
/// edges fall back below the cut.
const REMOVAL_PINS: [u64; 8] = [
    9145582247363198080,
    5733996659216288983,
    9294542499441182928,
    10769009771796171405,
    1866179924747352686,
    4245036575191676788,
    5970813678931692723,
    3579642456388900861,
];

/// Bytes of one window record at the end of the driver-state payload;
/// its last 8 are the wall time.
const WINDOW_RECORD: usize = 88;

/// The container rebuilt section by section, with every window record's
/// wall time zeroed when `timeless`.
fn rewrite(ck: &[u8], windows: usize, timeless: bool) -> Vec<u8> {
    let store = Store::parse(ck).unwrap();
    let mut w = StoreWriter::new();
    for (i, entry) in store.sections().iter().enumerate() {
        let kind = SectionKind::from_u32(entry.kind).unwrap();
        let mut payload = store.payload(i).to_vec();
        if timeless && kind == SectionKind::DriverState {
            let records = payload.len() - WINDOW_RECORD * windows;
            for r in 0..windows {
                let wall = records + WINDOW_RECORD * (r + 1) - 8;
                payload[wall..wall + 8].fill(0);
            }
        }
        w.add(kind, entry.tag, payload);
    }
    w.to_bytes()
}

/// Checkpoint hashes after every window, plus the run's total removals.
fn window_hashes(samples: usize, cfg: StreamConfig) -> (Vec<u64>, usize) {
    let replay = synthesize_replay(DatasetPreset::Yng, 0.02, Some(samples));
    let mut driver = StreamDriver::new(replay.genes(), cfg);
    let mut hashes = Vec::new();
    while let Some(report) = driver.ingest_next(&replay) {
        assert_eq!(report.samples_seen, driver.samples_ingested());
        let ck = driver.checkpoint_bytes().unwrap();
        let windows = driver.windows().len();
        assert_eq!(rewrite(&ck, windows, false), ck);
        hashes.push(fnv1a(&rewrite(&ck, windows, true)));
    }
    let removes = driver.windows().iter().map(|w| w.removes).sum();
    (hashes, removes)
}

#[test]
fn checkpoint_bytes_are_pinned_at_every_window() {
    let (smoke, _) = window_hashes(8, StreamConfig::default());
    let loose = StreamConfig {
        network: NetworkParams {
            min_rho: 0.6,
            max_p: 0.05,
        },
        ..StreamConfig::default()
    };
    let (removal, removes) = window_hashes(16, loose);
    assert!(removes > 0, "the loose replay must drop edges");
    assert!(
        smoke == SMOKE_PINS && removal == REMOVAL_PINS,
        "checkpoint bytes moved:\nsmoke   {smoke:?}\nremoval {removal:?}"
    );
}
