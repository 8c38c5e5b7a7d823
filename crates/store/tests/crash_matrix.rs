//! The crash-point matrix: a checkpoint-style workload — one atomic
//! container write followed by two durable generation appends — is
//! killed at *every* mutating-syscall index, under every page-cache
//! flush policy, and the surviving file must always resolve to a
//! bit-exact prior-or-new generation. Never a parse error, never a
//! panic.

use casbn_store::io::{append_durable, save_atomic, CrashFlush, FaultConfig, FaultFs};
use casbn_store::{SectionKind, Store, StoreError, StoreWriter};

const PATH: &str = "ck.csbn";

/// The three checkpoint rounds: generation 0 (atomic write), then two
/// durable appends superseding the graph and growing the table.
fn rounds() -> Vec<StoreWriter> {
    let mut g0 = StoreWriter::with_creator("crash-matrix");
    g0.add(SectionKind::Graph, 0, vec![0x11; 56]);
    g0.add(SectionKind::DriverHistory, 0, vec![0x22; 72]);
    let mut g1 = StoreWriter::new();
    g1.add(SectionKind::Graph, 0, vec![0x33; 64]);
    g1.add(SectionKind::StreamSamples, 0, vec![0x44; 40]);
    let mut g2 = StoreWriter::new();
    g2.add(SectionKind::Graph, 0, vec![0x55; 48]);
    g2.add(SectionKind::DriverHistory, 0, vec![0x66; 80]);
    vec![g0, g1, g2]
}

fn run_workload(fs: &FaultFs) -> Result<(), StoreError> {
    let ws = rounds();
    save_atomic(fs, PATH, &ws[0])?;
    append_durable(fs, PATH, &ws[1])?;
    append_durable(fs, PATH, &ws[2])?;
    Ok(())
}

#[test]
fn every_crash_cut_resolves_to_a_bit_exact_generation() {
    // fault-free probe: generation snapshots + syscall count
    let probe = FaultFs::new(FaultConfig::default());
    let ws = rounds();
    save_atomic(&probe, PATH, &ws[0]).unwrap();
    let ops_gen0 = probe.ops_issued();
    let s0 = probe.fs().live(PATH).unwrap();
    append_durable(&probe, PATH, &ws[1]).unwrap();
    let s1 = probe.fs().live(PATH).unwrap();
    append_durable(&probe, PATH, &ws[2]).unwrap();
    let s2 = probe.fs().live(PATH).unwrap();
    let total = probe.ops_issued();
    assert!(total > ops_gen0, "appends must issue syscalls");
    // each generation is a bit-exact prefix of the next (the durable
    // append never rewrites committed bytes)
    assert_eq!(&s1[..s0.len()], &s0[..]);
    assert_eq!(&s2[..s1.len()], &s1[..]);
    for (generation, snap) in [(0u64, &s0), (1, &s1), (2, &s2)] {
        assert_eq!(Store::parse(snap).unwrap().generation(), generation);
    }

    for k in 1..=total {
        let r = std::panic::catch_unwind(|| {
            let fs = FaultFs::new(FaultConfig {
                seed: 0xC0FFEE ^ k,
                crash_at_op: Some(k),
                ..FaultConfig::default()
            });
            let r = run_workload(&fs);
            assert!(r.is_err(), "cut at op {k} did not surface");
            for flush in [CrashFlush::None, CrashFlush::All, CrashFlush::Torn] {
                let img = fs.fs().crash_image(flush);
                let Some(bytes) = img.get(PATH) else {
                    // only legal before generation 0's rename committed
                    assert!(k <= ops_gen0, "checkpoint vanished at op {k} ({flush:?})");
                    continue;
                };
                let len = Store::recover_prefix_len(bytes)
                    .unwrap_or_else(|e| panic!("cut {k} ({flush:?}): unrecoverable: {e}"));
                let prefix = &bytes[..len];
                // the recovered generation is bit-exact: the *eager*
                // parse (every payload checksummed) must pass
                let s = Store::parse(prefix).unwrap_or_else(|e| {
                    panic!("cut {k} ({flush:?}): recovered prefix unparseable: {e}")
                });
                assert!(
                    prefix == s0 || prefix == s1 || prefix == s2,
                    "cut {k} ({flush:?}): recovered {} bytes (generation {}) match no snapshot",
                    len,
                    s.generation()
                );
            }
        });
        assert!(r.is_ok(), "crash cut at op {k} panicked");
    }
}

#[test]
fn appending_after_a_crash_repairs_the_torn_file_in_place() {
    // crash mid-append, then run the next checkpoint round against the
    // torn survivor: the durable append must truncate the tail and
    // produce a clean next generation
    let probe = FaultFs::new(FaultConfig::default());
    let ws = rounds();
    save_atomic(&probe, PATH, &ws[0]).unwrap();
    let ops_gen0 = probe.ops_issued();
    append_durable(&probe, PATH, &ws[1]).unwrap();
    let total = probe.ops_issued();

    for k in ops_gen0 + 1..=total {
        let fs = FaultFs::new(FaultConfig {
            seed: k,
            crash_at_op: Some(k),
            ..FaultConfig::default()
        });
        save_atomic(&fs, PATH, &ws[0]).unwrap();
        assert!(append_durable(&fs, PATH, &ws[1]).is_err());
        // "reboot": reseed a fresh fault-free fs with the torn image
        let img = fs.fs().crash_image(CrashFlush::Torn);
        let after = FaultFs::new(FaultConfig::default());
        after
            .fs()
            .install(PATH, img.get(PATH).expect("file present"));
        let out = append_durable(&after, PATH, &ws[2]).unwrap();
        let bytes = after.fs().live(PATH).unwrap();
        let s = Store::parse(&bytes).unwrap();
        assert_eq!(s.generation(), out.generation);
        assert_eq!(s.payload_checked(0).unwrap(), &[0x55; 48]);
    }
}

#[test]
fn transient_faults_never_change_the_written_bytes() {
    // the retry policy absorbs EINTR/EAGAIN and short writes without
    // perturbing a single output byte
    let clean = FaultFs::new(FaultConfig::default());
    run_workload(&clean).unwrap();
    let want = clean.fs().live(PATH).unwrap();
    for seed in 0..8u64 {
        let noisy = FaultFs::new(FaultConfig {
            seed,
            transient_pct: 25,
            short_write_pct: 40,
            ..FaultConfig::default()
        });
        run_workload(&noisy).unwrap();
        assert_eq!(
            noisy.fs().live(PATH).unwrap(),
            want,
            "seed {seed} perturbed the artifact"
        );
    }
}

#[test]
fn degraded_open_quarantines_bit_rot_and_survives_tears() {
    let probe = FaultFs::new(FaultConfig::default());
    run_workload(&probe).unwrap();
    let clean = probe.fs().live(PATH).unwrap();

    // a flipped payload bit: the degraded open serves the rest
    let s = Store::parse(&clean).unwrap();
    let hit = s.sections()[1].offset;
    let n_sections = s.sections().len();
    drop(s);
    let mut rotten = clean.clone();
    rotten[hit] ^= 0x08;
    assert!(Store::parse(&rotten).is_err());
    let d = Store::open_degraded(&rotten).unwrap();
    assert!(d.is_degraded());
    assert_eq!(d.quarantined_count(), 1);
    assert!(d.section_quarantined(1));
    assert!(matches!(
        d.payload_checked(1),
        Err(StoreError::ChecksumMismatch {
            section: Some(1),
            ..
        })
    ));
    for i in (0..n_sections).filter(|&i| i != 1) {
        assert!(
            d.payload_checked(i).is_ok(),
            "section {i} must stay readable"
        );
    }

    // a torn tail: the degraded open falls back to the prior generation
    let torn = &clean[..clean.len() - 17];
    assert!(Store::parse(torn).is_err());
    let d = Store::open_degraded(torn).unwrap();
    assert!(d.is_degraded());
    let keep = d.recovered_len().expect("tear must be recorded");
    assert!(keep < torn.len());
    assert_eq!(d.quarantined_count(), 0);
    assert_eq!(d.generation(), 1, "newest fully valid generation");
}
