//! Resume byte identity: a run driven straight to window k and a run
//! resumed from its checkpoint at window j < k, then driven on to k,
//! write byte-identical checkpoints at every window after j. A
//! checkpoint holds the replayed samples and no host timing, so this is
//! the resume's exact oracle. It runs at 1 and 4 worker threads on a
//! replay wide enough for the sweep's parallel path, with j = 1 and a
//! late j. The replay a resume runs charges no `stream.*` counter and
//! reports no window.
//!
//! One `#[test]` only: the rayon thread override and the telemetry
//! registry are process-global.

use casbn_expr::DatasetPreset;
use casbn_store::Store;
use casbn_stream::{synthesize_replay, StreamConfig, StreamDriver};

#[test]
fn resumed_runs_write_the_direct_runs_checkpoint_bytes() {
    // 535 genes: 142,845 pairs, above the sweep's parallel threshold
    let replay = synthesize_replay(DatasetPreset::Yng, 0.1, Some(16));
    assert!(replay.genes() >= 300);
    let cfg = StreamConfig::default();
    let windows = replay.samples().div_ceil(cfg.batch);
    for threads in [1, 4] {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let mut direct = StreamDriver::new(replay.genes(), cfg);
        let mut want = Vec::new();
        while direct.ingest_next(&replay).is_some() {
            want.push(direct.checkpoint_bytes().unwrap());
        }
        assert_eq!(want.len(), windows);
        for j in [1, windows - 2] {
            let ck = &want[j - 1];
            let mut resumed = StreamDriver::resume_from(&Store::parse(ck).unwrap()).unwrap();
            assert_eq!(resumed.windows().len(), j);
            assert!(
                resumed.checkpoint_bytes().unwrap() == *ck,
                "{threads} threads: resumed at {j}, its own checkpoint differs"
            );
            for k in j + 1..=windows {
                resumed.ingest_next(&replay).unwrap();
                assert!(
                    resumed.checkpoint_bytes().unwrap() == want[k - 1],
                    "{threads} threads: resumed at {j}, checkpoint at {k} differs"
                );
            }
            assert_eq!(resumed.checksum(), direct.checksum());
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");

    // the resume's replay is bookkeeping, not stream work
    let mut driver = StreamDriver::new(replay.genes(), cfg);
    for _ in 0..3 {
        driver.ingest_next(&replay);
    }
    let ck = driver.checkpoint_bytes().unwrap();
    casbn_obs::set_enabled(true);
    let before = casbn_obs::snapshot();
    let mut resumed = StreamDriver::resume_from(&Store::parse(&ck).unwrap()).unwrap();
    let replayed = casbn_obs::snapshot().counter_delta(&before);
    resumed.ingest_next(&replay);
    let window = casbn_obs::snapshot().counter_delta(&before);
    casbn_obs::set_enabled(false);
    assert!(
        replayed.iter().all(|(key, _)| !key.starts_with("stream.")),
        "the resume charged {replayed:?}"
    );
    assert!(
        window
            .iter()
            .any(|(key, n)| key == "stream.windows" && *n == 1),
        "the next window is counted: {window:?}"
    );
    assert_eq!(resumed.windows().len(), 4);
}
