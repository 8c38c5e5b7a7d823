//! `.csbn` format-stability gate: the committed golden fixture under
//! `tests/fixtures/golden.csbn` must keep parsing **and** re-encoding
//! byte-for-byte across PRs. Any change to the header layout, section
//! table shape, checksum function, alignment rule (every payload starts
//! on an 8-byte boundary, checked by a property test below) or a
//! codec's payload layout trips this suite — which is the prompt to
//! bump `FORMAT_VERSION` instead of silently breaking already-written
//! files.
//!
//! Regenerate deliberately (after a versioned format change) with:
//! `CSBN_REGEN_GOLDEN=1 cargo test --test store_format`.

use casbn::graph::{store as graph_store, Graph};
use casbn::mcode::{store as mcode_store, Cluster};
use casbn::store::io::{append_durable, MemFs, RetryPolicy};
use casbn::store::{SectionKind, Store, StoreWriter, ENDIAN_TAG, FORMAT_VERSION, MAGIC};
use proptest::prelude::*;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden.csbn")
}

/// The golden container: one of each user-facing artifact section,
/// fully deterministic, creator pinned independent of the crate
/// version.
fn golden_bytes() -> Vec<u8> {
    let graph = Graph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]);
    let matrix =
        casbn::expr::ExpressionMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.5, 6.25]);
    let clusters = vec![Cluster {
        vertices: vec![0, 1, 2],
        edges: vec![(0, 1), (0, 2), (1, 2)],
        score: 3.0,
        seed: 0,
    }];
    let mut w = StoreWriter::with_creator("golden-v1");
    graph_store::add_graph(&mut w, 0, &graph);
    casbn::expr::store::add_matrix(&mut w, 0, &matrix);
    mcode_store::add_clusters(&mut w, 0, &clusters);
    w.to_bytes()
}

#[test]
fn golden_fixture_is_byte_stable() {
    let bytes = golden_bytes();
    let path = fixture_path();
    if std::env::var_os("CSBN_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &bytes).expect("write golden fixture");
        return;
    }
    let committed = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "read {} (regenerate with CSBN_REGEN_GOLDEN=1): {e}",
            path.display()
        )
    });
    assert_eq!(
        committed, bytes,
        "the .csbn encoding drifted from the committed golden fixture — \
         if the format change is intentional, bump FORMAT_VERSION and \
         regenerate with CSBN_REGEN_GOLDEN=1"
    );
}

#[test]
fn golden_fixture_header_pins_version_and_endianness() {
    let committed = std::fs::read(fixture_path()).expect("golden fixture present");
    assert_eq!(&committed[..8], &MAGIC, "magic bytes");
    assert_eq!(
        u32::from_le_bytes(committed[8..12].try_into().unwrap()),
        FORMAT_VERSION,
        "format version field"
    );
    assert_eq!(
        u32::from_le_bytes(committed[12..16].try_into().unwrap()),
        ENDIAN_TAG,
        "endianness canary must read back little-endian"
    );
    // the exact wire bytes, spelled out: a byte-swapped writer would
    // produce 0A 0B 0C 0D here instead
    assert_eq!(&committed[12..16], &[0x0D, 0x0C, 0x0B, 0x0A]);
}

#[test]
fn golden_fixture_loads_the_expected_artifacts() {
    let committed = std::fs::read(fixture_path()).expect("golden fixture present");
    let store = Store::parse(&committed).expect("golden fixture parses");
    assert_eq!(store.version(), FORMAT_VERSION);
    assert_eq!(store.creator(), "golden-v1");
    assert_eq!(store.sections().len(), 3);

    let g = graph_store::load_first_graph(&store).unwrap();
    assert_eq!((g.n(), g.m()), (6, 7));
    assert!(g.has_edge(4, 5) && !g.has_edge(0, 5));

    let m = casbn::expr::store::load_first_matrix(&store).unwrap();
    assert_eq!((m.genes(), m.samples()), (2, 3));
    assert_eq!(m.row(1), &[4.0, 5.5, 6.25]);

    let cs = mcode_store::load_clusters(&store, 0).unwrap();
    assert_eq!(cs.len(), 1);
    assert_eq!(cs[0].vertices, vec![0, 1, 2]);
    assert_eq!(cs[0].score, 3.0);
}

const KINDS: [SectionKind; 4] = [
    SectionKind::Graph,
    SectionKind::Matrix,
    SectionKind::Clusters,
    SectionKind::DeltaGraph,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The alignment rule of the format: every payload in a container —
    /// whatever the mix of section kinds and (possibly odd, possibly
    /// zero) payload lengths — starts at an offset divisible by 8, so
    /// the u32/u64/f64 arrays inside keep their natural alignment.
    /// Holds through a durable append generation too.
    #[test]
    fn every_payload_starts_on_an_8_byte_boundary(
        lens in proptest::collection::vec(0usize..200, 1..8),
        kind_picks in proptest::collection::vec(0usize..4, 1..8),
        append_lens in proptest::collection::vec(0usize..200, 0..4),
    ) {
        let mut w = StoreWriter::new();
        for (i, &len) in lens.iter().enumerate() {
            let kind = KINDS[kind_picks[i % kind_picks.len()]];
            w.add(kind, i as u32, vec![0xAB; len]);
        }
        let mut bytes = w.to_bytes();
        if !append_lens.is_empty() {
            let mut a = StoreWriter::new();
            for (i, &len) in append_lens.iter().enumerate() {
                a.add(SectionKind::Graph, 1000 + i as u32, vec![0xCD; len]);
            }
            let fs = MemFs::new();
            fs.install("t.csbn", &bytes);
            append_durable(&fs, "t.csbn", &a, RetryPolicy::default())
                .expect("append to a fresh container");
            bytes = fs.live("t.csbn").expect("appended file exists");
        }
        for parsed in [Store::parse(&bytes).unwrap(), Store::open_lazy(&bytes).unwrap()] {
            for (i, e) in parsed.sections().iter().enumerate() {
                prop_assert_eq!(
                    e.offset % 8,
                    0,
                    "section {} payload offset {} is not 8-aligned",
                    i,
                    e.offset
                );
                prop_assert_eq!(parsed.payload_checked(i).unwrap().len(), e.len);
            }
        }
    }
}
