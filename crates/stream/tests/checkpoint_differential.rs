//! Checkpoint/resume differential suite: a streaming run interrupted at
//! *any* window boundary and resumed from its `.csbn` checkpoint must
//! reproduce the uninterrupted run **bit-identically** — same per-window
//! metrics, same final FNV checksum, same chordal subgraph, same
//! network. This is the acceptance gate of the persistence subsystem:
//! the checkpoint stores the exact `f64` bits of the Welford/co-moment
//! accumulators and the membership bitset the network is rebuilt from,
//! so the resumed recurrences continue on identical state.

use casbn_expr::{DatasetPreset, ExpressionMatrix};
use casbn_graph::{Edge, Graph};
use casbn_store::{Enc, SectionKind, Store, StoreError, StoreWriter};
use casbn_stream::{synthesize_replay, StreamConfig, StreamDriver};

/// Checksum of the uninterrupted replay, the value CI's streaming smoke
/// pins.
const PINNED_CHECKSUM: u64 = 17660843889947913608;

fn replay() -> ExpressionMatrix {
    synthesize_replay(DatasetPreset::Yng, 0.02, Some(8))
}

/// The retained edges, read off a checkpoint's membership words: the
/// network a resume decodes.
fn stored_edges(ck: &[u8], genes: usize) -> Vec<Edge> {
    let store = Store::parse(ck).unwrap();
    let payload = store.require_kind(SectionKind::OnlineCorrelation).unwrap();
    let mut edges = Vec::new();
    for u in 0..genes as u32 {
        for v in u + 1..genes as u32 {
            let (at, mask) = membership_bit(payload.len(), genes, (u, v));
            let word = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
            if word & mask != 0 {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// Byte offset and mask of the membership bit of pair `(u, v)`, `u < v`,
/// inside an `OnlineCorrelation` payload of `len` bytes: the bitset is
/// the payload's last array, one bit per pair of the row-major upper
/// triangle.
fn membership_bit(len: usize, genes: usize, (u, v): Edge) -> (usize, u64) {
    let (u, v) = (u as usize, v as usize);
    let pairs = genes * (genes - 1) / 2;
    let pair = u * (2 * genes - u - 1) / 2 + (v - u - 1);
    (
        len - 8 * pairs.div_ceil(64) + 8 * (pair / 64),
        1 << (pair % 64),
    )
}

/// Drive `driver` over `matrix` from its current position to the end.
fn drive_to_end(driver: &mut StreamDriver, matrix: &ExpressionMatrix, batch: usize) {
    drive_until(driver, matrix, batch, matrix.samples());
}

/// Drive `driver` over `matrix` from its current position until
/// `samples` samples are in.
fn drive_until(driver: &mut StreamDriver, matrix: &ExpressionMatrix, batch: usize, samples: usize) {
    let mut lo = driver.samples_ingested();
    while lo < samples {
        let hi = (lo + batch).min(samples);
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
        // the resumed network is exactly the checkpointed one, and the
        // membership words hold exactly its edges
        assert_eq!(resumed.network().edge_vec(), network);
        assert_eq!(stored_edges(&ck, m.genes()), network);
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

#[test]
fn non_chordal_checkpoint_subgraph_is_rejected() {
    // a tampered-but-rechecksummed checkpoint whose chordal section
    // holds a chordless C4 (kept a subgraph of the network by setting
    // the C4 pairs' membership bits) must fail the resume validation,
    // not silently seed the maintainer with non-chordal state
    use casbn_graph::store as graph_store;

    let m = replay();
    let cfg = StreamConfig::default();
    let mut driver = StreamDriver::new(m.genes(), cfg);
    driver.ingest_window(&m.columns(0, 2));
    let ck = driver.checkpoint_bytes().unwrap();
    let store = Store::parse(&ck).unwrap();

    let c4 = Graph::from_edges(m.genes(), &[(0, 1), (1, 2), (2, 3), (0, 3)]);
    let mut w = StoreWriter::new();
    for (i, entry) in store.sections().iter().enumerate() {
        let kind = SectionKind::from_u32(entry.kind).unwrap();
        let mut payload = store.payload(i).to_vec();
        match kind {
            SectionKind::OnlineCorrelation => {
                for e in c4.edges() {
                    let (at, mask) = membership_bit(payload.len(), m.genes(), e);
                    let word = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
                    payload[at..at + 8].copy_from_slice(&(word | mask).to_le_bytes());
                }
                w.add(kind, entry.tag, payload);
            }
            SectionKind::Graph => graph_store::add_graph(&mut w, entry.tag, &c4),
            _ => w.add(kind, entry.tag, payload),
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
fn a_stale_network_copy_in_an_old_checkpoint_is_ignored() {
    // checkpoints written before the network was stored once carry a
    // second copy of it, the delta-graph section. A resume must take
    // the network from the accumulator's bitset, so a (re-checksummed)
    // copy holding a phantom edge changes nothing downstream.
    let m = replay();
    let cfg = StreamConfig::default();
    let mut driver = StreamDriver::new(m.genes(), cfg);
    drive_until(&mut driver, &m, cfg.batch, 4);
    let ck = driver.checkpoint_bytes().unwrap();
    let store = Store::parse(&ck).unwrap();
    assert!(
        store.find(SectionKind::DeltaGraph, 0).is_none(),
        "the network is not written twice"
    );

    let phantom = (0, 1);
    let mut stale = driver.network().clone();
    assert!(
        stale.add_edge(phantom.0, phantom.1),
        "the phantom edge is new"
    );
    // the retired section's layout: n, m, pending, epoch, threshold,
    // base m, the base CSR, then two empty overlays (offsets only)
    let csr = stale.to_csr();
    let mut e = Enc::new();
    e.u64(stale.n() as u64);
    e.u64(stale.m() as u64);
    e.u64(0);
    e.u64(0);
    e.u64((stale.n() / 4).max(256) as u64);
    e.u64(stale.m() as u64);
    e.u32s(csr.xadj());
    e.u32s(csr.adjncy());
    for _overlay in 0..2 {
        e.u32s(&vec![0; stale.n() + 1]);
    }
    let mut w = StoreWriter::new();
    for (i, entry) in store.sections().iter().enumerate() {
        let kind = SectionKind::from_u32(entry.kind).unwrap();
        w.add(kind, entry.tag, store.payload(i).to_vec());
    }
    w.add(SectionKind::DeltaGraph, 0, e.into_payload());
    let old = w.to_bytes();

    let store = Store::parse(&old).expect("re-checksummed container parses");
    let mut resumed = StreamDriver::resume_from(&store).expect("old-layout checkpoint resumes");
    assert!(!resumed.network().has_edge(phantom.0, phantom.1));
    assert_eq!(resumed.network().edge_vec(), stored_edges(&ck, m.genes()));
    drive_to_end(&mut resumed, &m, cfg.batch);
    assert_eq!(resumed.checksum(), PINNED_CHECKSUM);
}

#[test]
fn poisoned_accumulators_are_rejected_naming_the_field() {
    // a re-checksummed checkpoint whose accumulator section holds a
    // non-finite float, a negative second moment or a non-finite
    // threshold must not resume: it would persist into every later
    // checkpoint and snapshot
    let m = replay();
    let cfg = StreamConfig::default();
    let mut driver = StreamDriver::new(m.genes(), cfg);
    driver.ingest_window(&m.columns(0, 4));
    let ck = driver.checkpoint_bytes().unwrap();
    let store = Store::parse(&ck).unwrap();
    let genes = m.genes();
    // payload words: genes, samples, work_ops, min_rho, max_p, then
    // mean[genes], m2[genes] and the co-moment triangle
    let (mean, m2, comoment) = (5, 5 + genes, 5 + 2 * genes);
    let poison = |word: usize, value: f64| {
        let mut w = StoreWriter::new();
        for (i, entry) in store.sections().iter().enumerate() {
            let kind = SectionKind::from_u32(entry.kind).unwrap();
            let mut payload = store.payload(i).to_vec();
            if kind == SectionKind::OnlineCorrelation {
                payload[8 * word..8 * word + 8].copy_from_slice(&value.to_le_bytes());
            }
            w.add(kind, entry.tag, payload);
        }
        w.to_bytes()
    };
    let cases = [
        (3, f64::NAN, "min_rho"),
        (4, f64::INFINITY, "max_p"),
        (mean + 7, f64::NAN, "`mean`"),
        (m2 + genes - 1, f64::INFINITY, "`m2`"),
        (m2 + 2, -1.0, "m2"),
        (comoment, f64::NEG_INFINITY, "`comoment`"),
        (comoment + 1000, f64::NAN, "`comoment`"),
    ];
    for (word, value, field) in cases {
        let bytes = poison(word, value);
        let store = Store::parse(&bytes).expect("re-checksummed container parses");
        match StreamDriver::resume_from(&store) {
            Ok(_) => panic!("{field} = {value} must not resume"),
            Err(StoreError::Malformed(msg)) => {
                assert!(msg.contains(field), "{field} = {value}: {msg}")
            }
            Err(e) => panic!("{field} = {value}: expected Malformed, got {e}"),
        }
    }
    // the untouched checkpoint still resumes
    assert!(StreamDriver::resume_from(&store).is_ok());
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
