//! Checkpoint/resume differential suite: a streaming run interrupted at
//! *any* window boundary and resumed from its `.csbn` checkpoint must
//! reproduce the uninterrupted run **bit-identically** — same per-window
//! metrics, same final FNV checksum, same chordal subgraph, same
//! network. This is the acceptance gate of the persistence subsystem:
//! the checkpoint stores the exact `f64` bits of every sample ingested,
//! and replaying them rebuilds the Welford/co-moment accumulators and the
//! network bit for bit, so the resumed recurrences continue on identical
//! state.

use casbn_expr::{DatasetPreset, ExpressionMatrix, NetworkParams};
use casbn_graph::{Graph, VertexId};
use casbn_store::{SectionKind, Store, StoreError, StoreWriter};
use casbn_stream::{synthesize_replay, StreamConfig, StreamDriver};

/// Checksum of the uninterrupted replay, the value CI's streaming smoke
/// pins.
const PINNED_CHECKSUM: u64 = 17660843889947913608;

fn replay() -> ExpressionMatrix {
    synthesize_replay(DatasetPreset::Yng, 0.02, Some(8))
}

/// Drive `driver` over `matrix` from its current position to the end.
fn drive_to_end(driver: &mut StreamDriver, matrix: &ExpressionMatrix, batch: usize) {
    let mut lo = driver.samples_ingested();
    while lo < matrix.samples() {
        let hi = (lo + batch).min(matrix.samples());
        driver.ingest_window(&matrix.columns(lo, hi));
        lo = hi;
    }
}

#[test]
fn resume_from_any_window_boundary_is_bit_identical() {
    let m = replay();
    let cfg = StreamConfig::default();

    let mut straight = StreamDriver::new(m.genes(), cfg);
    drive_to_end(&mut straight, &m, cfg.batch);
    let straight_checksum = straight.checksum();
    assert_eq!(straight_checksum, PINNED_CHECKSUM);
    let straight_windows: Vec<_> = straight.windows().to_vec();
    assert_eq!(straight_windows.len(), 4, "8 samples / batch 2");

    for stop_after in 0..straight_windows.len() {
        // run the first `stop_after` windows, checkpoint, drop
        let mut partial = StreamDriver::new(m.genes(), cfg);
        let mut lo = 0usize;
        for _ in 0..stop_after {
            let hi = (lo + cfg.batch).min(m.samples());
            partial.ingest_window(&m.columns(lo, hi));
            lo = hi;
        }
        let ck = partial.checkpoint_bytes().unwrap();
        let network = partial.network().edge_vec();
        drop(partial);

        // restore and finish the stream
        let store = Store::parse(&ck).unwrap_or_else(|e| panic!("parse @{stop_after}: {e}"));
        let mut resumed = StreamDriver::resume_from(&store)
            .unwrap_or_else(|e| panic!("resume @{stop_after}: {e}"));
        assert_eq!(resumed.genes(), m.genes());
        assert_eq!(resumed.samples_ingested(), lo);
        // the replay rebuilds exactly the checkpointed network
        assert_eq!(resumed.network().edge_vec(), network);
        drive_to_end(&mut resumed, &m, cfg.batch);

        assert_eq!(
            resumed.checksum(),
            straight_checksum,
            "checkpoint after window {stop_after} diverged"
        );
        for (a, b) in resumed.windows().iter().zip(&straight_windows) {
            assert_eq!(a.window, b.window);
            assert_eq!(a.samples_seen, b.samples_seen);
            assert_eq!(a.inserts, b.inserts);
            assert_eq!(a.removes, b.removes);
            assert_eq!(a.network_edges, b.network_edges);
            assert_eq!(a.chordal_edges, b.chordal_edges);
            assert_eq!(a.clusters, b.clusters);
            assert_eq!(
                a.stability.to_bits(),
                b.stability.to_bits(),
                "window {} stability",
                a.window
            );
            assert_eq!(
                a.sim_ingest.to_bits(),
                b.sim_ingest.to_bits(),
                "window {} sim_ingest",
                a.window
            );
            assert_eq!(
                a.sim_chordal.to_bits(),
                b.sim_chordal.to_bits(),
                "window {} sim_chordal",
                a.window
            );
        }
        assert!(resumed.chordal().same_edges(straight.chordal()));
        assert!(resumed.network().same_edges(straight.network()));
    }
}

#[test]
fn chained_checkpoints_stay_identical() {
    // checkpoint → resume → one window → checkpoint → resume → … to the
    // end: repeated suspension must not accumulate any drift
    let m = replay();
    let cfg = StreamConfig::default();
    let mut straight = StreamDriver::new(m.genes(), cfg);
    drive_to_end(&mut straight, &m, cfg.batch);

    let mut driver = StreamDriver::new(m.genes(), cfg);
    while driver.samples_ingested() < m.samples() {
        let ck = driver.checkpoint_bytes().unwrap();
        let store = Store::parse(&ck).expect("chained checkpoint parses");
        driver = StreamDriver::resume_from(&store).expect("chained resume");
        let lo = driver.samples_ingested();
        let hi = (lo + cfg.batch).min(m.samples());
        driver.ingest_window(&m.columns(lo, hi));
    }
    assert_eq!(driver.checksum(), straight.checksum());
    assert!(driver.chordal().same_edges(straight.chordal()));
}

#[test]
fn resumed_summary_matches_uninterrupted_summary() {
    // the summary path (finish) sees the union of restored + new windows
    let m = replay();
    let cfg = StreamConfig::default();
    let a = StreamDriver::run(&m, cfg);

    let mut partial = StreamDriver::new(m.genes(), cfg);
    partial.ingest_window(&m.columns(0, 2));
    partial.ingest_window(&m.columns(2, 4));
    let ck = partial.checkpoint_bytes().unwrap();
    let store = Store::parse(&ck).unwrap();
    let mut resumed = StreamDriver::resume_from(&store).unwrap();
    drive_to_end(&mut resumed, &m, cfg.batch);
    let b = resumed.finish();

    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.windows.len(), b.windows.len());
    assert_eq!(a.genes, b.genes);
    assert_eq!(a.total_churn(), b.total_churn());
}

/// A chordless 4-cycle `a–b–c–d–a` of `g`, if it has one.
fn chordless_c4(g: &Graph) -> Option<[VertexId; 4]> {
    for (a, b) in g.edges() {
        for &c in g.neighbors(b) {
            if c == a || g.has_edge(a, c) {
                continue;
            }
            for &d in g.neighbors(c) {
                if d != b && d != a && g.has_edge(d, a) && !g.has_edge(b, d) {
                    return Some([a, b, c, d]);
                }
            }
        }
    }
    None
}

/// `ck` with the payload of its `kind` sections rewritten by `edit`,
/// every checksum recomputed.
fn rewrite(ck: &[u8], kind: SectionKind, edit: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
    let store = Store::parse(ck).unwrap();
    let mut w = StoreWriter::new();
    for (i, entry) in store.sections().iter().enumerate() {
        let k = SectionKind::from_u32(entry.kind).unwrap();
        let mut payload = store.payload(i).to_vec();
        if k == kind {
            edit(&mut payload);
        }
        w.add(k, entry.tag, payload);
    }
    w.to_bytes()
}

#[test]
fn non_chordal_checkpoint_subgraph_is_rejected() {
    // a tampered-but-rechecksummed checkpoint whose chordal section
    // holds a chordless C4 of the replayed network must fail the resume
    // validation, not silently seed the maintainer with non-chordal
    // state. Loose thresholds give a network that holds one.
    use casbn_graph::store as graph_store;

    let m = replay();
    let cfg = StreamConfig {
        network: NetworkParams {
            min_rho: 0.3,
            max_p: 1.0,
        },
        ..Default::default()
    };
    let mut driver = StreamDriver::new(m.genes(), cfg);
    driver.ingest_window(&m.columns(0, 4));
    let [a, b, c, d] = chordless_c4(driver.network()).expect("the loose network has a C4");
    let c4 = Graph::from_edges(m.genes(), &[(a, b), (b, c), (c, d), (d, a)]);
    let ck = driver.checkpoint_bytes().unwrap();
    let store = Store::parse(&ck).unwrap();
    let mut w = StoreWriter::new();
    for (i, entry) in store.sections().iter().enumerate() {
        match SectionKind::from_u32(entry.kind).unwrap() {
            SectionKind::Graph => graph_store::add_graph(&mut w, entry.tag, &c4),
            kind => w.add(kind, entry.tag, store.payload(i).to_vec()),
        }
    }
    let tampered = w.to_bytes();
    let store = Store::parse(&tampered).expect("re-checksummed container parses");
    match StreamDriver::resume_from(&store) {
        Ok(_) => panic!("non-chordal checkpoint state must not resume"),
        Err(e) => assert!(
            e.to_string().contains("not chordal"),
            "expected chordality rejection, got {e}"
        ),
    }
}

#[test]
fn an_old_layout_checkpoint_fails_typed() {
    // a committed checkpoint in the layout that stored the co-moment
    // triangle, membership bits and wall times: it has none of the
    // current stream sections, so it fails with a typed error naming the
    // first one the resume needs
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/corpus/checkpoint-resume/seed-old-layout.csbn"
    );
    let bytes = std::fs::read(path).unwrap();
    let store = Store::parse(&bytes).expect("the old container still parses");
    assert!(store.find(SectionKind::OnlineCorrelation, 0).is_some());
    match StreamDriver::resume_from(&store) {
        Err(StoreError::MissingSection(kind)) => assert_eq!(kind, "stream-samples"),
        Err(e) => panic!("expected a missing-section error, got {e}"),
        Ok(_) => panic!("an old-layout checkpoint must not resume"),
    }
}

#[test]
fn tampered_sample_sections_are_rejected_naming_the_field() {
    // a re-checksummed checkpoint whose sample section holds a
    // non-finite sample or threshold, a sample count that disagrees with
    // its array, or an edge count the replay does not reproduce must not
    // resume: it would persist into every later checkpoint and snapshot
    let m = replay();
    let cfg = StreamConfig::default();
    let mut driver = StreamDriver::new(m.genes(), cfg);
    driver.ingest_window(&m.columns(0, 4));
    let ck = driver.checkpoint_bytes().unwrap();
    let genes = m.genes();
    // payload words: genes, samples, work_ops, min_rho, max_p, edges,
    // then the samples, sample-major
    let set = |word: usize, bits: u64| {
        rewrite(&ck, SectionKind::StreamSamples, |p| {
            p[8 * word..8 * word + 8].copy_from_slice(&bits.to_le_bytes())
        })
    };
    let edges = driver.network().m() as u64;
    let cases = [
        (3, f64::NAN.to_bits(), "min_rho"),
        (4, f64::INFINITY.to_bits(), "max_p"),
        (6, f64::NAN.to_bits(), "`samples`"),
        (6 + 3 * genes + 7, f64::NEG_INFINITY.to_bits(), "`samples`"),
        (5, edges + 1, "edges"),
        (1, 3, "trailing bytes"),
    ];
    for (word, bits, field) in cases {
        let bytes = set(word, bits);
        let store = Store::parse(&bytes).expect("re-checksummed container parses");
        match StreamDriver::resume_from(&store) {
            Ok(_) => panic!("word {word} = {bits:#x} must not resume"),
            Err(StoreError::Malformed(msg)) => {
                assert!(msg.contains(field), "word {word} = {bits:#x}: {msg}")
            }
            Err(e) => panic!("word {word} = {bits:#x}: expected Malformed, got {e}"),
        }
    }
    // one sample too many is a short section
    let long = set(1, 5);
    let store = Store::parse(&long).unwrap();
    assert!(matches!(
        StreamDriver::resume_from(&store),
        Err(StoreError::ShortSection { .. })
    ));
    // an empty history with a huge gene count: the replay would size
    // its pair triangle by the gene count, which the chordal section's
    // vertex count must bound first
    for huge in [200_000u64, 1 << 40] {
        let bytes = rewrite(&ck, SectionKind::StreamSamples, |p| {
            p.truncate(48);
            p[..8].copy_from_slice(&huge.to_le_bytes());
            p[8..16].fill(0);
        });
        match StreamDriver::resume_from(&Store::parse(&bytes).unwrap()) {
            Err(StoreError::Malformed(msg)) => assert!(msg.contains("vertex counts"), "{msg}"),
            Err(e) => panic!("genes = {huge}: expected Malformed, got {e}"),
            Ok(_) => panic!("genes = {huge} must not resume"),
        }
    }
    // the untouched checkpoint still resumes
    assert!(StreamDriver::resume_from(&Store::parse(&ck).unwrap()).is_ok());
}

#[test]
fn a_resumed_driver_refuses_another_replay() {
    let m = replay();
    let mut driver = StreamDriver::new(m.genes(), StreamConfig::default());
    driver.ingest_window(&m.columns(0, 4));
    let ck = driver.checkpoint_bytes().unwrap();
    let resumed = StreamDriver::resume_from(&Store::parse(&ck).unwrap()).unwrap();
    assert_eq!(resumed.check_replay(&m), Ok(()));
    // one bit of one sample before the resume point
    let mut other = m.clone();
    let x = other.row(5)[2];
    other.row_mut(5)[2] = f64::from_bits(x.to_bits() ^ 1);
    let err = resumed.check_replay(&other).unwrap_err();
    assert!(err.contains("at sample 2, gene 5"), "{err}");
    // a change after the resume point is the rest of the stream
    let mut later = m.clone();
    later.row_mut(5)[4] += 1.0;
    assert_eq!(resumed.check_replay(&later), Ok(()));
    // too short a replay, or one of other genes
    assert!(resumed.check_replay(&m.columns(0, 3)).is_err());
    let fewer = ExpressionMatrix::from_rows(1, 8, m.row(0).to_vec());
    assert!(resumed.check_replay(&fewer).unwrap_err().contains("genes"));
}

#[test]
fn corrupted_checkpoints_are_rejected_not_resumed() {
    let m = replay();
    let cfg = StreamConfig::default();
    let mut driver = StreamDriver::new(m.genes(), cfg);
    driver.ingest_window(&m.columns(0, 2));
    let ck = driver.checkpoint_bytes().unwrap();

    // any payload bit flip fails the container parse
    let mut bad = ck.clone();
    let mid = ck.len() / 2;
    bad[mid] ^= 0x10;
    assert!(Store::parse(&bad).is_err(), "bit flip must be detected");

    // truncation fails the container parse
    assert!(Store::parse(&ck[..ck.len() - 7]).is_err());

    // a structurally valid container missing the driver sections is a
    // typed MissingSection error, not a panic
    let mut w = casbn_store::StoreWriter::new();
    casbn_graph::store::add_graph(&mut w, 0, &casbn_graph::Graph::new(3));
    let stray = w.to_bytes();
    let store = Store::parse(&stray).unwrap();
    assert!(matches!(
        StreamDriver::resume_from(&store),
        Err(StoreError::MissingSection(_))
    ));
}

#[test]
fn appended_checkpoints_resume_bit_identically() {
    use casbn_store::io::{append_durable, MemFs};

    // suspend → durably append into the same container → resume, repeatedly:
    // every generation must resume to the uninterrupted run's checksum,
    // whether the container is opened eagerly or lazily
    let m = replay();
    let cfg = StreamConfig::default();
    let mut straight = StreamDriver::new(m.genes(), cfg);
    drive_to_end(&mut straight, &m, cfg.batch);

    let mut driver = StreamDriver::new(m.genes(), cfg);
    let fs = MemFs::new();
    fs.install("ck.csbn", &driver.checkpoint_bytes().unwrap());
    let mut generation = 0u64;
    while driver.samples_ingested() < m.samples() {
        let lo = driver.samples_ingested();
        let hi = (lo + cfg.batch).min(m.samples());
        driver.ingest_window(&m.columns(lo, hi));
        let out = append_durable(&fs, "ck.csbn", &driver.checkpoint_writer()).unwrap();
        generation += 1;
        assert_eq!(out.generation, generation);
        let container = fs.live("ck.csbn").unwrap();

        for store in [
            Store::parse(&container).expect("appended checkpoint parses"),
            Store::open_lazy(&container).expect("appended checkpoint opens lazily"),
        ] {
            assert!(store.is_appended());
            assert_eq!(store.generation(), generation);
            let mut resumed = StreamDriver::resume_from(&store).expect("resume from append");
            assert_eq!(resumed.samples_ingested(), hi);
            drive_to_end(&mut resumed, &m, cfg.batch);
            assert_eq!(resumed.checksum(), straight.checksum());
        }
    }
    assert_eq!(driver.checksum(), straight.checksum());
}
