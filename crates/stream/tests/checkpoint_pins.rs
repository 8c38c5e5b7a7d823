//! Checkpoint byte pins: the FNV-1a of the raw `checkpoint_bytes()`
//! after every window of two small YNG replays, one of which drops edges
//! as its estimates sharpen. A checkpoint holds no host timing, so two
//! runs of one replay write the same bytes; a change to how the driver
//! holds or stores its state must leave every byte where it was. When a
//! value drifts, the test prints all of them.

use casbn_expr::{DatasetPreset, NetworkParams};
use casbn_store::fnv1a;
use casbn_stream::{synthesize_replay, StreamConfig, StreamDriver};

/// FNV-1a of the checkpoint after each window of the streaming smoke's
/// replay (scale 0.02, 8 samples, batch 2).
const SMOKE_PINS: [u64; 4] = [
    17995314442629147474,
    16498917530019462457,
    2467292435615975744,
    12866331759623380818,
];

/// The same, for a 16-sample replay at loose thresholds, where early
/// edges fall back below the cut.
const REMOVAL_PINS: [u64; 8] = [
    12040484851955512229,
    16710601123009907362,
    18028022556354925425,
    9119131183323183314,
    15300675601012286623,
    8417358019376204090,
    5596903374406950080,
    16297424867649326012,
];

/// Checkpoint hashes after every window, plus the run's total removals.
fn window_hashes(samples: usize, cfg: StreamConfig) -> (Vec<u64>, usize) {
    let replay = synthesize_replay(DatasetPreset::Yng, 0.02, Some(samples));
    let mut driver = StreamDriver::new(replay.genes(), cfg);
    let mut hashes = Vec::new();
    while let Some(report) = driver.ingest_next(&replay) {
        assert_eq!(report.samples_seen, driver.samples_ingested());
        hashes.push(fnv1a(&driver.checkpoint_bytes().unwrap()));
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
