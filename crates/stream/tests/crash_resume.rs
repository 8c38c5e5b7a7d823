//! Crash-during-checkpoint resume suite: the streaming workload that CI
//! smokes (YNG preset, scale 0.02, 8 samples in 4 windows of 2) is
//! checkpointed through the crash-safe I/O layer after every window,
//! killed at *every* mutating-syscall index, rebooted under every
//! page-cache flush policy, and resumed. Every surviving image must
//! resolve to a valid checkpoint generation (or a clean slate, before
//! the first rename commits) whose resumed run reproduces the
//! uninterrupted run's pinned checksum `17660843889947913608` exactly.

use casbn_expr::{DatasetPreset, ExpressionMatrix};
use casbn_store::io::{
    append_durable, save_atomic, CrashFlush, FaultConfig, FaultFs, RetryPolicy, Vfs,
};
use casbn_store::{Store, StoreError};
use casbn_stream::{synthesize_replay, StreamConfig, StreamDriver};

/// The uninterrupted run's checksum, pinned by the CI streaming smoke
/// (`casbn stream --preset yng --scale 0.02 --batch 2
/// --expect-checksum …`) and the committed `BENCH_pipeline.json`.
const PINNED_CHECKSUM: u64 = 17660843889947913608;

const PATH: &str = "stream-ck.csbn";

fn replay() -> ExpressionMatrix {
    synthesize_replay(DatasetPreset::Yng, 0.02, Some(8))
}

fn drive_to_end(driver: &mut StreamDriver, matrix: &ExpressionMatrix, batch: usize) {
    let mut lo = driver.samples_ingested();
    while lo < matrix.samples() {
        let hi = (lo + batch).min(matrix.samples());
        driver.ingest_window(&matrix.columns(lo, hi));
        lo = hi;
    }
}

/// The CLI checkpoint loop rebuilt over an injectable filesystem: after
/// every window the driver state goes to `PATH` — a fresh atomic write
/// the first time, a durable generation append from then on.
fn checkpointed_run(fs: &dyn Vfs, matrix: &ExpressionMatrix) -> Result<(), StoreError> {
    let cfg = StreamConfig::default();
    let mut driver = StreamDriver::new(matrix.genes(), cfg);
    let mut lo = 0usize;
    while lo < matrix.samples() {
        let hi = (lo + cfg.batch).min(matrix.samples());
        driver.ingest_window(&matrix.columns(lo, hi));
        lo = hi;
        let w = driver.checkpoint_writer();
        if fs.exists(PATH) {
            append_durable(fs, PATH, &w, RetryPolicy::default())?;
        } else {
            save_atomic(fs, PATH, &w, RetryPolicy::default())?;
        }
    }
    Ok(())
}

#[test]
fn uninterrupted_run_matches_the_pinned_checksum() {
    let m = replay();
    let cfg = StreamConfig::default();
    let mut driver = StreamDriver::new(m.genes(), cfg);
    drive_to_end(&mut driver, &m, cfg.batch);
    assert_eq!(driver.checksum(), PINNED_CHECKSUM);
}

#[test]
fn resume_after_a_crash_at_any_syscall_reproduces_the_pinned_checksum() {
    let m = replay();

    // fault-free probe: count the workload's mutating syscalls and keep
    // the final container as the all-generations reference
    let probe = FaultFs::new(FaultConfig::default());
    checkpointed_run(&probe, &m).unwrap();
    let total = probe.ops_issued();
    let full = probe.fs().live(PATH).unwrap();
    assert_eq!(Store::parse(&full).unwrap().generation(), 3, "4 windows");

    for k in 1..=total {
        let r = std::panic::catch_unwind(|| {
            let fs = FaultFs::new(FaultConfig {
                seed: 0xD1E ^ k,
                crash_at_op: Some(k),
                ..FaultConfig::default()
            });
            assert!(
                checkpointed_run(&fs, &m).is_err(),
                "cut at op {k} did not surface"
            );
            for flush in [CrashFlush::None, CrashFlush::All, CrashFlush::Torn] {
                let img = fs.fs().crash_image(flush);
                let mut resumed = match img.get(PATH) {
                    // crash before the first rename committed: the
                    // stream restarts from a clean slate
                    None => StreamDriver::new(m.genes(), StreamConfig::default()),
                    Some(bytes) => {
                        let len = Store::recover_prefix_len(bytes)
                            .unwrap_or_else(|e| panic!("cut {k} ({flush:?}): unrecoverable: {e}"));
                        // the survivor resolves to a bit-exact valid
                        // generation: the *eager* parse re-checksums
                        // every payload (checkpoint bytes carry
                        // wall-clock window durations, so cross-run
                        // byte comparison would be meaningless)
                        Store::parse(&bytes[..len]).unwrap_or_else(|e| {
                            panic!("cut {k} ({flush:?}): recovered prefix corrupt: {e}")
                        });
                        let store = Store::open_lazy(&bytes[..len]).unwrap_or_else(|e| {
                            panic!("cut {k} ({flush:?}): lazy open failed: {e}")
                        });
                        StreamDriver::resume_from(&store)
                            .unwrap_or_else(|e| panic!("cut {k} ({flush:?}): resume failed: {e}"))
                    }
                };
                let batch = resumed.config().batch;
                drive_to_end(&mut resumed, &m, batch);
                assert_eq!(
                    resumed.checksum(),
                    PINNED_CHECKSUM,
                    "cut {k} ({flush:?}): resumed run diverged"
                );
            }
        });
        assert!(r.is_ok(), "crash cut at op {k} panicked");
    }
}

#[test]
fn degraded_open_resumes_the_newest_valid_generation_after_a_tear() {
    // `casbn stream --resume --degraded` semantics: a torn checkpoint
    // tail falls back to the newest fully valid generation, and the
    // resumed run still lands on the pinned checksum
    let m = replay();
    let probe = FaultFs::new(FaultConfig::default());
    checkpointed_run(&probe, &m).unwrap();
    let full = probe.fs().live(PATH).unwrap();

    let torn = &full[..full.len() - 13];
    assert!(
        Store::open_lazy(torn).is_err(),
        "tear must fail strict open"
    );
    let store = Store::open_degraded(torn).unwrap();
    assert!(store.is_degraded());
    assert_eq!(store.quarantined_count(), 0);
    assert_eq!(store.generation(), 2, "newest fully valid generation");
    let mut resumed = StreamDriver::resume_from(&store).unwrap();
    assert!(resumed.samples_ingested() < m.samples());
    let batch = resumed.config().batch;
    drive_to_end(&mut resumed, &m, batch);
    assert_eq!(resumed.checksum(), PINNED_CHECKSUM);
}
