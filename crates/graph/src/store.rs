//! `.csbn` codecs for graphs: CSR graph sections and delta-graph
//! checkpoint sections.
//!
//! A graph section is the CSR laid out verbatim — the `n + 1` offset
//! array followed by the `2m` flat adjacency array, little-endian.
//! Loading rebuilds the [`Csr`] by handing those two arrays straight to
//! [`Csr::try_from_parts`]: two bulk buffer reads and an `O(n + m)`
//! invariant sweep, **no per-edge text parsing** — the reason `.csbn`
//! loads beat edge-list text by an order of magnitude (the
//! `store-load-yng` perf-baseline workload pins the ratio).

use crate::delta::DeltaGraph;
use crate::graph::{Csr, Graph, VertexId};
use casbn_store::{Dec, Enc, SectionKind, Store, StoreError, StoreWriter};

/// Append `g` as a [`SectionKind::Graph`] section.
pub fn add_graph(w: &mut StoreWriter, tag: u32, g: &Graph) {
    add_csr(w, tag, &g.to_csr());
}

/// Append a CSR as a [`SectionKind::Graph`] section.
pub fn add_csr(w: &mut StoreWriter, tag: u32, c: &Csr) {
    let mut e = Enc::new();
    e.u64(c.n() as u64);
    e.u64(c.m() as u64);
    e.u32s(c.xadj());
    e.u32s(c.adjncy());
    w.add(SectionKind::Graph, tag, e.into_payload());
}

/// Decode a graph-section payload into a [`Csr`] (both arrays copied
/// out of the payload, then validated by [`Csr::try_from_parts`]).
pub fn csr_from_payload(payload: &[u8]) -> Result<Csr, StoreError> {
    let mut d = Dec::new(payload);
    let n = d.dim()?;
    let m = d.dim()?;
    let xadj = d.u32s(
        n.checked_add(1)
            .ok_or_else(|| StoreError::Malformed("vertex count overflows".into()))?,
    )?;
    let adjncy = d.u32s(
        m.checked_mul(2)
            .ok_or_else(|| StoreError::Malformed("edge count overflows".into()))?,
    )?;
    d.finish()?;
    Csr::try_from_parts(xadj, adjncy).map_err(|e| StoreError::Malformed(e.into()))
}

/// Load the graph section with this `tag` as a [`Csr`]. Under
/// [`Store::open_lazy`] this is the first-touch checksum path: the
/// payload is verified (memoized) before it is decoded.
pub fn load_csr(store: &Store<'_>, tag: u32) -> Result<Csr, StoreError> {
    let idx = store
        .find(SectionKind::Graph, tag)
        .ok_or(StoreError::MissingSection("graph"))?;
    csr_from_payload(store.payload_checked(idx)?)
}

/// Load the first graph section (any tag) as a mutable [`Graph`] — the
/// CLI's auto-detection path for `--in` files.
pub fn load_first_graph(store: &Store<'_>) -> Result<Graph, StoreError> {
    let payload = store.require_kind(SectionKind::Graph)?;
    Ok(csr_from_payload(payload)?.to_graph())
}

/// Advance an overlay offset cursor by one list length, rejecting
/// accumulations past `u32::MAX` with a typed error — the wire format
/// stores these cursors as u32s, and a silent wrap would emit a
/// checksum-valid but corrupt checkpoint.
fn overlay_offset_add(off: u32, len: usize) -> Result<u32, StoreError> {
    u32::try_from(len)
        .ok()
        .and_then(|l| off.checked_add(l))
        .ok_or_else(|| {
            StoreError::Malformed("delta-graph overlay offsets overflow the u32 wire field".into())
        })
}

/// Append a delta graph (base CSR + overlays + counters) as a
/// [`SectionKind::DeltaGraph`] section — part of a stream checkpoint.
/// Fails typed (writing nothing) if an overlay is too large for the
/// u32 offset fields of the wire format.
pub fn add_delta_graph(w: &mut StoreWriter, tag: u32, d: &DeltaGraph) -> Result<(), StoreError> {
    let (base, add, del, m, pending, epoch, threshold) = d.raw_parts();
    let mut e = Enc::new();
    e.u64(d.n() as u64);
    e.u64(m as u64);
    e.u64(pending as u64);
    e.u64(epoch);
    e.u64(threshold as u64);
    e.u64(base.m() as u64);
    e.u32s(base.xadj());
    e.u32s(base.adjncy());
    for overlay in [add, del] {
        let mut off = 0u32;
        e.u32(off);
        for list in overlay {
            off = overlay_offset_add(off, list.len())?;
            e.u32(off);
        }
        for list in overlay {
            e.u32s(list);
        }
    }
    w.add(SectionKind::DeltaGraph, tag, e.into_payload());
    Ok(())
}

/// Decode a delta-graph section payload.
pub fn delta_graph_from_payload(payload: &[u8]) -> Result<DeltaGraph, StoreError> {
    let mut d = Dec::new(payload);
    let n = d.dim()?;
    let m = d.dim()?;
    let pending = d.dim()?;
    let epoch = d.u64()?;
    let threshold = d.dim()?;
    let base_m = d.dim()?;
    let n1 = n
        .checked_add(1)
        .ok_or_else(|| StoreError::Malformed("vertex count overflows".into()))?;
    let xadj = d.u32s(n1)?;
    let adjncy = d.u32s(
        base_m
            .checked_mul(2)
            .ok_or_else(|| StoreError::Malformed("base edge count overflows".into()))?,
    )?;
    let base = Csr::try_from_parts(xadj, adjncy).map_err(|e| StoreError::Malformed(e.into()))?;
    let mut overlays: [Vec<Vec<VertexId>>; 2] = [Vec::new(), Vec::new()];
    for overlay in &mut overlays {
        let offsets = d.u32s(n1)?;
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(StoreError::Malformed("overlay offsets not monotone".into()));
        }
        let values = d.u32s(offsets[n] as usize)?;
        *overlay = (0..n)
            .map(|v| values[offsets[v] as usize..offsets[v + 1] as usize].to_vec())
            .collect();
    }
    d.finish()?;
    let [add, del] = overlays;
    let dg = DeltaGraph::from_raw_parts(base, add, del, epoch, threshold)
        .map_err(|e| StoreError::Malformed(e.into()))?;
    if dg.m() != m || dg.pending() != pending {
        return Err(StoreError::Malformed(
            "delta-graph counters disagree with the overlay contents".into(),
        ));
    }
    Ok(dg)
}

/// Load the delta-graph section with this `tag`.
pub fn load_delta_graph(store: &Store<'_>, tag: u32) -> Result<DeltaGraph, StoreError> {
    let idx = store
        .find(SectionKind::DeltaGraph, tag)
        .ok_or(StoreError::MissingSection("delta-graph"))?;
    delta_graph_from_payload(store.payload_checked(idx)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnm;
    use crate::EdgeDelta;

    #[test]
    fn graph_roundtrip_is_bit_identical() {
        let g = gnm(60, 150, 5);
        let mut w = StoreWriter::new();
        add_graph(&mut w, 0, &g);
        let bytes = w.to_bytes();
        for store in [
            Store::parse(&bytes).unwrap(),
            Store::open_lazy(&bytes).unwrap(),
        ] {
            let c = load_csr(&store, 0).unwrap();
            assert!(c.to_graph().same_edges(&g));
            assert_eq!(c.m(), g.m());
            assert!(load_first_graph(&store).unwrap().same_edges(&g));
            // writing the loaded graph again reproduces the same bytes
            let mut w2 = StoreWriter::new();
            add_csr(&mut w2, 0, &c);
            assert_eq!(w2.to_bytes(), bytes, "re-pack must be byte-stable");
        }
    }

    #[test]
    fn empty_and_isolated_graphs_roundtrip() {
        for g in [Graph::new(0), Graph::new(7)] {
            let mut w = StoreWriter::new();
            add_graph(&mut w, 3, &g);
            let bytes = w.to_bytes();
            let store = Store::parse(&bytes).unwrap();
            let back = load_csr(&store, 3).unwrap().to_graph();
            assert!(back.same_edges(&g), "n={}", g.n());
            assert_eq!(back.n(), g.n(), "isolated vertices must survive");
        }
    }

    #[test]
    fn graph_payload_invariants_are_enforced() {
        // hand-build a payload whose adjacency is unsorted: the checksum
        // is fine (we wrote it), so the typed validation must catch it
        let mut e = Enc::new();
        e.u64(2); // n
        e.u64(1); // m
        e.u32s(&[0, 1, 2]); // xadj
        e.u32s(&[1, 0]); // adjncy: fine
        let ok = csr_from_payload(&e.into_payload());
        assert!(ok.is_ok());
        let mut e = Enc::new();
        e.u64(2);
        e.u64(1);
        e.u32s(&[0, 2, 2]); // both ends at vertex 0 => duplicate list
        e.u32s(&[1, 1]);
        assert!(matches!(
            csr_from_payload(&e.into_payload()),
            Err(StoreError::Malformed(_))
        ));
        // trailing bytes after the two arrays
        let mut e = Enc::new();
        e.u64(1);
        e.u64(0);
        e.u32s(&[0]);
        e.u32(99);
        assert!(matches!(
            csr_from_payload(&e.into_payload()),
            Err(StoreError::Malformed(_))
        ));
        // truncated payload: typed error, no panic
        let mut e = Enc::new();
        e.u64(1 << 40); // absurd n, payload ends immediately
        assert!(matches!(
            csr_from_payload(&e.into_payload()),
            Err(StoreError::ShortSection { .. })
        ));
    }

    #[test]
    fn delta_graph_roundtrip_preserves_overlays_and_counters() {
        let g = gnm(40, 100, 9);
        let mut d = DeltaGraph::from_graph(&g).with_compaction_threshold(1000);
        // leave a live overlay: some removes of base edges, some inserts
        let edges = g.edge_vec();
        let mut delta = EdgeDelta::default();
        for (i, &e) in edges.iter().enumerate() {
            if i % 5 == 0 {
                delta.removes.push(e);
            }
        }
        for k in 0..12u32 {
            let (u, v) = (k % 40, (k * 11 + 3) % 40);
            if u != v && !g.has_edge(u, v) {
                delta.inserts.push(crate::norm_edge(u, v));
            }
        }
        delta.inserts.sort_unstable();
        delta.inserts.dedup();
        d.apply(&delta);
        assert!(d.pending() > 0, "test needs a live overlay");

        let mut w = StoreWriter::new();
        add_delta_graph(&mut w, 0, &d).unwrap();
        let bytes = w.to_bytes();
        let store = Store::parse(&bytes).unwrap();
        let back = load_delta_graph(&store, 0).unwrap();
        assert_eq!(back.n(), d.n());
        assert_eq!(back.m(), d.m());
        assert_eq!(back.pending(), d.pending());
        assert_eq!(back.epoch(), d.epoch());
        assert!(back.snapshot().same_edges(&d.snapshot()));
        // the restored graph keeps evolving identically
        let more = EdgeDelta {
            inserts: vec![(0, 39)],
            removes: vec![],
        };
        let mut a = d.clone();
        let mut b = back;
        a.apply(&more);
        b.apply(&more);
        a.compact();
        b.compact();
        assert!(a.snapshot().same_edges(&b.snapshot()));
        assert_eq!(a.epoch(), b.epoch());
    }

    #[test]
    fn overlay_offset_accumulation_rejects_u32_overflow() {
        // the wire cursor is u32; crossing it must be a typed error,
        // not a silent wrap into a checksum-valid corrupt payload
        assert_eq!(overlay_offset_add(0, 5).unwrap(), 5);
        assert_eq!(overlay_offset_add(u32::MAX - 3, 3).unwrap(), u32::MAX);
        assert!(matches!(
            overlay_offset_add(u32::MAX - 3, 4),
            Err(StoreError::Malformed(_))
        ));
        assert!(matches!(
            overlay_offset_add(0, u32::MAX as usize + 1),
            Err(StoreError::Malformed(_))
        ));
        // near-the-edge accumulation stays exact
        let mut off = 0u32;
        for len in [1usize << 31, (1usize << 31) - 1] {
            off = overlay_offset_add(off, len).unwrap();
        }
        assert_eq!(off, u32::MAX);
        assert!(overlay_offset_add(off, 1).is_err());
    }

    #[test]
    fn lazy_load_of_a_corrupt_graph_section_fails_typed_on_first_touch() {
        let g = gnm(30, 60, 3);
        let mut w = StoreWriter::new();
        add_graph(&mut w, 0, &g);
        let mut bytes = w.to_bytes();
        let off = {
            let s = Store::open_lazy(&bytes).unwrap();
            s.sections()[0].offset
        };
        bytes[off + 40] ^= 0x08; // somewhere inside the arrays
        let s = Store::open_lazy(&bytes).unwrap();
        assert!(matches!(
            load_csr(&s, 0),
            Err(StoreError::ChecksumMismatch {
                section: Some(0),
                ..
            })
        ));
        assert!(matches!(
            load_first_graph(&s),
            Err(StoreError::ChecksumMismatch {
                section: Some(0),
                ..
            })
        ));
    }

    #[test]
    fn delta_graph_counter_mismatch_is_detected() {
        let mut d = DeltaGraph::new(5);
        d.insert_edge(0, 1);
        let mut w = StoreWriter::new();
        add_delta_graph(&mut w, 0, &d).unwrap();
        let store_bytes = w.to_bytes();
        let store = Store::parse(&store_bytes).unwrap();
        let mut payload = store.payload(0).to_vec();
        // falsify the live-edge counter (field 2, bytes 8..16)
        payload[8..16].copy_from_slice(&99u64.to_le_bytes());
        assert!(matches!(
            delta_graph_from_payload(&payload),
            Err(StoreError::Malformed(_))
        ));
    }
}
