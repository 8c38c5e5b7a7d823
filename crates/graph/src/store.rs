//! `.csbn` codec for graph sections.
//!
//! A graph section is the CSR laid out verbatim — the `n + 1` offset
//! array followed by the `2m` flat adjacency array, little-endian.
//! Loading rebuilds the [`Csr`] by handing those two arrays straight to
//! [`Csr::try_from_parts`]: two bulk buffer reads and an `O(n + m)`
//! invariant sweep, **no per-edge text parsing** — the reason `.csbn`
//! loads beat edge-list text by an order of magnitude (the
//! `store-load-yng` perf-baseline workload pins the ratio).

use crate::graph::{Csr, Graph};
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnm;

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
}
