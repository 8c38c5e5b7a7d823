//! Corruption-hardening suite: every way a `.csbn` container can rot on
//! disk — truncation at any byte, any single bit flip, wrong magic, a
//! stale format version, adversarial length fields — must surface as a
//! typed [`StoreError`], never a panic, and never an allocation sized
//! from a corrupted length field.

use casbn_store::{SectionKind, Store, StoreError, StoreWriter, HEADER_LEN, MAGIC};
use proptest::prelude::*;

/// A representative container: several kinds, an unaligned payload
/// (forcing padding), an empty payload, and enough bytes for bit-flip
/// coverage of every structural region.
fn sample() -> Vec<u8> {
    let mut w = StoreWriter::with_creator("corruption-suite");
    w.add(
        SectionKind::Graph,
        0,
        (0u32..40).flat_map(u32::to_le_bytes).collect(),
    );
    w.add(SectionKind::Matrix, 1, vec![0xEE; 13]); // 3 pad bytes
    w.add(SectionKind::Clusters, 2, vec![]);
    w.add(SectionKind::DriverHistory, 0, vec![7; 64]);
    w.to_bytes()
}

#[test]
fn pristine_sample_parses() {
    let bytes = sample();
    let s = Store::parse(&bytes).expect("pristine container parses");
    assert_eq!(s.sections().len(), 4);
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    // covers every structural boundary: inside the magic, mid-header,
    // mid-table, every section payload boundary and every padding byte
    let bytes = sample();
    for len in 0..bytes.len() {
        let r = std::panic::catch_unwind(|| Store::parse(&bytes[..len]).map(|_| ()));
        match r {
            Ok(Err(_)) => {}
            Ok(Ok(())) => panic!("truncation to {len} bytes parsed successfully"),
            Err(_) => panic!("truncation to {len} bytes panicked"),
        }
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = sample();
    for i in 0..MAGIC.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xFF;
        assert!(
            matches!(Store::parse(&bad), Err(StoreError::BadMagic)),
            "magic byte {i}"
        );
    }
    // a text file is BadMagic, not a parse crash
    bytes.truncate(0);
    bytes.extend_from_slice(b"0 1\n1 2\n");
    assert!(matches!(Store::parse(&bytes), Err(StoreError::BadMagic)));
}

#[test]
fn stale_and_future_versions_are_rejected() {
    for v in [0u32, 2, 7, u32::MAX] {
        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&v.to_le_bytes());
        assert!(
            matches!(Store::parse(&bytes), Err(StoreError::UnsupportedVersion(got)) if got == v),
            "version {v}"
        );
    }
}

#[test]
fn foreign_endianness_is_rejected() {
    let mut bytes = sample();
    bytes[12..16].reverse();
    assert!(matches!(
        Store::parse(&bytes),
        Err(StoreError::BadEndianness(_))
    ));
}

#[test]
fn adversarial_length_fields_never_overallocate() {
    // huge section count: bounded against the file size before the
    // table vector is sized
    let mut bytes = sample();
    bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Store::parse(&bytes),
        Err(StoreError::Truncated { .. })
    ));
    // huge per-section length: bounded against the file size
    for entry in 0..4usize {
        let at = HEADER_LEN + entry * 32 + 16;
        let mut bad = sample();
        bad[at..at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let err = Store::parse(&bad).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::Malformed(_)
                    | StoreError::ChecksumMismatch { .. }
            ),
            "entry {entry}: {err:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Torn durable appends always recover: grow the sample container
    /// with one durable generation (`casbn_store::io::append_durable`,
    /// which preserves the prior generation as a bit-exact prefix),
    /// then cut the file at *every* byte from the prior generation's
    /// end onward. Recovery must resolve each cut to generation N-1 —
    /// or N for the uncut file — and never to an error.
    #[test]
    fn torn_durable_append_recovers_generation_n_minus_1_or_n(
        payload in proptest::collection::vec(0u8..=255, 0..96),
        tag in 0u32..4,
    ) {
        use casbn_store::io::{append_durable, save_atomic, MemFs};
        let fs = MemFs::new();
        let base = sample();
        fs.install("t.csbn", &base);
        let mut a = StoreWriter::new();
        a.add(SectionKind::Matrix, tag, payload);
        a.add(SectionKind::Graph, 0, vec![0xAB; 16]); // supersedes
        append_durable(&fs, "t.csbn", &a).unwrap();
        let grown = fs.live("t.csbn").unwrap();
        prop_assert_eq!(&grown[..base.len()], &base[..]);

        for cut in base.len()..grown.len() {
            let torn = &grown[..cut];
            let len = match Store::recover_prefix_len(torn) {
                Ok(len) => len,
                Err(e) => {
                    prop_assert!(false, "cut {} unrecoverable: {}", cut, e);
                    unreachable!()
                }
            };
            prop_assert_eq!(len, base.len(), "cut {} recovered a non-base prefix", cut);
            let s = Store::parse(&torn[..len]).expect("recovered prefix must parse eagerly");
            prop_assert_eq!(s.generation(), 0);
        }
        // the uncut file resolves to itself (generation N)
        prop_assert_eq!(Store::recover_prefix_len(&grown).unwrap(), grown.len());
        prop_assert_eq!(Store::parse(&grown).unwrap().generation(), 1);

        // …and the same property holds appending onto an *appended*
        // base via save_atomic's streamed writer path
        let fs2 = MemFs::new();
        let mut w2 = StoreWriter::with_creator("torn-2");
        w2.add(SectionKind::Graph, 0, vec![1; 24]);
        save_atomic(&fs2, "u.csbn", &w2).unwrap();
        let mut b2 = StoreWriter::new();
        b2.add(SectionKind::Clusters, 0, vec![2; 9]);
        append_durable(&fs2, "u.csbn", &b2).unwrap();
        let gen1 = fs2.live("u.csbn").unwrap();
        let mut c2 = StoreWriter::new();
        c2.add(SectionKind::Clusters, 0, vec![3; 17]);
        append_durable(&fs2, "u.csbn", &c2).unwrap();
        let gen2 = fs2.live("u.csbn").unwrap();
        for cut in (gen1.len()..gen2.len()).step_by(7) {
            let len = Store::recover_prefix_len(&gen2[..cut]).unwrap();
            prop_assert_eq!(len, gen1.len());
            prop_assert_eq!(Store::parse(&gen2[..len]).unwrap().generation(), 1);
        }
    }

    /// Any single bit flip anywhere in the container is *detected*: the
    /// checksums cover the header, table and payloads, padding must be
    /// zero, and the file length must match the declared structure
    /// exactly — so no flip can parse clean (and none may panic).
    #[test]
    fn any_single_bit_flip_is_detected(pos in 0usize..4096, bit in 0u32..8) {
        let mut bytes = sample();
        let byte = pos % bytes.len();
        bytes[byte] ^= 1u8 << bit;
        match std::panic::catch_unwind(|| Store::parse(&bytes).map(|_| ())) {
            Ok(Err(_)) => {} // typed error: detected
            Ok(Ok(())) => prop_assert!(false, "flip at byte {byte} bit {bit} parsed clean"),
            Err(_) => prop_assert!(false, "flip at byte {byte} bit {bit} panicked"),
        }
    }

    /// Arbitrary garbage (with or without a forced magic prefix) never
    /// panics the parser.
    #[test]
    fn arbitrary_bytes_never_panic(
        data in proptest::collection::vec(0u8..=255, 0..512),
        force_magic in 0u8..2,
    ) {
        let mut data = data;
        if force_magic == 1 && data.len() >= MAGIC.len() {
            data[..MAGIC.len()].copy_from_slice(&MAGIC);
        }
        let r = std::panic::catch_unwind(|| Store::parse(&data).map(|_| ()));
        prop_assert!(r.is_ok(), "parser panicked on arbitrary input");
    }

    /// Random multi-byte stomps over a valid container are detected or
    /// (only when they rewrite nothing) parse identically.
    #[test]
    fn random_stomps_are_detected(pos in 0usize..4096, len in 1usize..24, fill in 0u8..=255) {
        let mut bytes = sample();
        let at = pos % bytes.len();
        let end = (at + len).min(bytes.len());
        let changed = bytes[at..end].iter().any(|&b| b != fill);
        for b in &mut bytes[at..end] {
            *b = fill;
        }
        match std::panic::catch_unwind(|| Store::parse(&bytes).map(|_| ())) {
            Ok(Err(_)) => prop_assert!(changed, "unchanged container reported corrupt"),
            Ok(Ok(())) => prop_assert!(!changed, "stomp at {at}+{len} parsed clean"),
            Err(_) => prop_assert!(false, "stomp at {at}+{len} panicked"),
        }
    }
}
