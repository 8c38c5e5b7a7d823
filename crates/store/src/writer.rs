//! Container assembly: collect typed section payloads, emit the header,
//! table and aligned payloads in one pass — or plan their append to an
//! existing container under a superseding table and footer
//! ([`crate::io::append_durable`] writes it).

use crate::error::StoreError;
use crate::reader::{SectionEntry, Store};
use crate::{
    align8, fnv1a, Fnv1a, SectionKind, CREATOR_LEN, ENDIAN_TAG, FOOTER_LEN, FOOTER_MAGIC,
    FORMAT_VERSION, HEADER_LEN, MAGIC,
};
use std::io::Write;

/// Builds a `.csbn` container from section payloads.
///
/// Sections are written in insertion order; each payload is checksummed
/// (FNV-1a) and zero-padded to an 8-byte boundary, and the header
/// checksum covers the fixed header plus the whole section table, so a
/// written container is bit-flip-detectable end to end.
#[derive(Debug)]
pub struct StoreWriter {
    creator: String,
    sections: Vec<(u32, u32, Vec<u8>)>,
}

impl StoreWriter {
    /// Writer stamped with this build's creator string
    /// (`casbn <version>`).
    pub fn new() -> StoreWriter {
        StoreWriter::with_creator(concat!("casbn ", env!("CARGO_PKG_VERSION")))
    }

    /// Writer with an explicit creator string (truncated to
    /// [`CREATOR_LEN`] bytes on a UTF-8 boundary). The format-stability
    /// fixture uses this to pin a creator independent of the workspace
    /// version.
    pub fn with_creator(creator: &str) -> StoreWriter {
        let mut end = creator.len().min(CREATOR_LEN);
        while !creator.is_char_boundary(end) {
            end -= 1;
        }
        StoreWriter {
            creator: creator[..end].to_string(),
            sections: Vec::new(),
        }
    }

    /// Append a section. `tag` disambiguates multiple sections of the
    /// same kind (0 where there is only one).
    pub fn add(&mut self, kind: SectionKind, tag: u32, payload: Vec<u8>) {
        self.sections.push((kind.as_u32(), tag, payload));
    }

    /// Sections added so far.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// The fixed header plus section table — everything before the
    /// payload region — as one small buffer, so writers can stream the
    /// container (header+table, then each payload slice) without ever
    /// materializing it contiguously.
    pub(crate) fn header_and_table(&self) -> Result<Vec<u8>, StoreError> {
        let count = u32::try_from(self.sections.len()).map_err(|_| {
            StoreError::Malformed(format!(
                "section count {} exceeds the container's u32 field",
                self.sections.len()
            ))
        })?;
        let table_end = HEADER_LEN + self.sections.len() * crate::SECTION_ENTRY_LEN;
        let mut out = Vec::with_capacity(table_end);

        // fixed header (checksum patched below)
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // reserved
        let mut creator = [0u8; CREATOR_LEN];
        creator[..self.creator.len()].copy_from_slice(self.creator.as_bytes());
        out.extend_from_slice(&creator);
        out.extend_from_slice(&0u64.to_le_bytes()); // header checksum placeholder

        // section table
        let mut offset = table_end;
        for (kind, tag, payload) in &self.sections {
            out.extend_from_slice(&kind.to_le_bytes());
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(offset as u64).to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a(payload).to_le_bytes());
            offset += align8(payload.len());
        }

        // header checksum: fixed header up to the checksum field + the
        // table, hashed in place with the streaming hasher
        let mut h = Fnv1a::new();
        h.update(&out[..HEADER_LEN - 8]);
        h.update(&out[HEADER_LEN..]);
        let h = h.finish().to_le_bytes();
        out[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&h);
        Ok(out)
    }

    /// The section payload slices, in table order (each is zero-padded
    /// to 8 bytes on the wire).
    pub(crate) fn payloads(&self) -> impl Iterator<Item = &[u8]> {
        self.sections.iter().map(|(_, _, p)| p.as_slice())
    }

    /// Assemble the container bytes, with every narrowing cast checked:
    /// a section count past `u32::MAX` is a typed
    /// [`StoreError::Malformed`] instead of a silently wrapped header
    /// field (the offset/length table fields are `usize → u64` and
    /// cannot lose width).
    pub fn try_to_bytes(&self) -> Result<Vec<u8>, StoreError> {
        let total: usize = HEADER_LEN
            + self.sections.len() * crate::SECTION_ENTRY_LEN
            + self
                .sections
                .iter()
                .map(|(_, _, p)| align8(p.len()))
                .sum::<usize>();
        let mut out = self.header_and_table()?;
        out.reserve(total - out.len());
        // aligned payloads
        for (_, _, payload) in &self.sections {
            out.extend_from_slice(payload);
            out.resize(align8(out.len()), 0);
        }
        debug_assert_eq!(out.len(), total);
        Ok(out)
    }

    /// Assemble the container bytes.
    ///
    /// # Panics
    ///
    /// Panics if the writer holds more than `u32::MAX` sections — use
    /// [`StoreWriter::try_to_bytes`] where that is a reachable input.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.try_to_bytes()
            .expect("section count exceeds the container's u32 field")
    }

    /// Merge this writer's sections into `entries` — replacing a
    /// matching `(kind, tag)` in place, appending otherwise — with
    /// payload offsets assigned sequentially from `offset`. Returns the
    /// merged table and the end of the last padded payload.
    fn merge_entries(
        &self,
        mut entries: Vec<SectionEntry>,
        mut offset: usize,
    ) -> (Vec<SectionEntry>, usize) {
        for (kind, tag, payload) in &self.sections {
            let e = SectionEntry {
                kind: *kind,
                tag: *tag,
                offset,
                len: payload.len(),
                checksum: fnv1a(payload),
            };
            offset += align8(payload.len());
            match entries
                .iter_mut()
                .find(|x| x.kind == *kind && x.tag == *tag)
            {
                Some(slot) => *slot = e,
                None => entries.push(e),
            }
        }
        (entries, offset)
    }

    /// The durable append plan: new payloads go strictly *after* the
    /// full `base` length, so the previous generation — footer included
    /// — survives as a bit-exact prefix. A new section whose
    /// `(kind, tag)` matches an existing entry replaces it in place in
    /// the table (the old payload bytes remain as an unreferenced gap);
    /// otherwise the entry is appended. [`crate::io::append_durable`]
    /// writes the payloads, then `table`, fsyncs, then `footer`.
    pub(crate) fn append_tail(&self, base: &[u8]) -> Result<AppendTail, StoreError> {
        let store = Store::open_lazy(base)?;
        let generation = next_generation(&store)?;
        if !base.len().is_multiple_of(8) {
            return Err(StoreError::Malformed(
                "append base length not 8-aligned".into(),
            ));
        }
        let (entries, table_offset) = self.merge_entries(store.sections().to_vec(), base.len());
        let (table, footer) = table_and_footer(&entries, table_offset, generation);
        Ok(AppendTail {
            table,
            footer,
            generation,
        })
    }

    /// Write the assembled container to `w`.
    pub fn write_to<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        w.write_all(&self.to_bytes())
    }

    /// Write the assembled container to a file path **atomically**: the
    /// bytes stream into `path.tmp`, which is fsynced and renamed over
    /// `path` (see [`crate::io::save_atomic`]) — a crash mid-save
    /// leaves the previous artifact intact.
    pub fn save(&self, path: &str) -> Result<(), StoreError> {
        crate::io::save_atomic(
            &crate::io::RealFs,
            path,
            self,
            crate::io::RetryPolicy::default(),
        )
    }
}

/// The superseding table + footer of a planned durable append (see
/// [`StoreWriter::append_tail`]).
#[derive(Debug)]
pub(crate) struct AppendTail {
    /// Superseding section-table bytes, placed at the end of the new
    /// payload region.
    pub table: Vec<u8>,
    /// The 40-byte commit footer.
    pub footer: Vec<u8>,
    /// Footer generation (base + 1).
    pub generation: u64,
}

/// The incremented footer generation, or a typed overflow error.
fn next_generation(store: &Store<'_>) -> Result<u64, StoreError> {
    store
        .generation()
        .checked_add(1)
        .ok_or_else(|| StoreError::Malformed("append generation counter overflows".into()))
}

/// Encode a superseding section table at `table_offset` and its
/// checksummed footer.
fn table_and_footer(
    entries: &[SectionEntry],
    table_offset: usize,
    generation: u64,
) -> (Vec<u8>, Vec<u8>) {
    let mut table = Vec::with_capacity(entries.len() * crate::SECTION_ENTRY_LEN);
    for e in entries {
        table.extend_from_slice(&e.kind.to_le_bytes());
        table.extend_from_slice(&e.tag.to_le_bytes());
        table.extend_from_slice(&(e.offset as u64).to_le_bytes());
        table.extend_from_slice(&(e.len as u64).to_le_bytes());
        table.extend_from_slice(&e.checksum.to_le_bytes());
    }
    let mut footer = Vec::with_capacity(FOOTER_LEN);
    footer.extend_from_slice(&FOOTER_MAGIC);
    footer.extend_from_slice(&(table_offset as u64).to_le_bytes());
    footer.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    footer.extend_from_slice(&generation.to_le_bytes());
    let mut h = Fnv1a::new();
    h.update(&table);
    h.update(&footer);
    footer.extend_from_slice(&h.finish().to_le_bytes());
    (table, footer)
}

impl Default for StoreWriter {
    fn default() -> Self {
        StoreWriter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{append_durable, MemFs, RetryPolicy};
    use crate::reader::Store;

    /// `base` grown by `a`'s sections the production way: a durable
    /// append over an in-memory filesystem.
    fn append(a: &StoreWriter, base: &[u8]) -> Result<Vec<u8>, StoreError> {
        let fs = MemFs::new();
        fs.install("t.csbn", base);
        append_durable(&fs, "t.csbn", a, RetryPolicy::default())?;
        Ok(fs.live("t.csbn").expect("appended file exists"))
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = StoreWriter::new().to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN);
        let s = Store::parse(&bytes).unwrap();
        assert_eq!(s.sections().len(), 0);
        assert_eq!(s.version(), FORMAT_VERSION);
        assert!(s.creator().starts_with("casbn "));
    }

    #[test]
    fn sections_roundtrip_with_padding() {
        let mut w = StoreWriter::with_creator("test-writer");
        w.add(SectionKind::Graph, 0, vec![1, 2, 3]); // needs 5 pad bytes
        w.add(SectionKind::Matrix, 7, vec![0xAA; 16]); // already aligned
        w.add(SectionKind::Clusters, 1, vec![]); // empty payload
        assert_eq!(w.section_count(), 3);
        let bytes = w.to_bytes();
        let s = Store::parse(&bytes).unwrap();
        assert_eq!(s.creator(), "test-writer");
        assert_eq!(s.sections().len(), 3);
        assert_eq!(s.payload(0), &[1, 2, 3]);
        assert_eq!(s.payload(1), &[0xAA; 16]);
        assert_eq!(s.payload(2), &[] as &[u8]);
        assert_eq!(s.sections()[1].tag, 7);
        assert_eq!(s.sections()[1].kind, SectionKind::Matrix.as_u32());
    }

    #[test]
    fn long_creator_truncates_on_char_boundary() {
        let w = StoreWriter::with_creator("ünïcødé-créätor-string-overflow");
        let bytes = w.to_bytes();
        let s = Store::parse(&bytes).unwrap();
        assert!(s.creator().len() <= CREATOR_LEN);
        assert!(s.creator().starts_with("ünïcødé"));
    }

    #[test]
    fn append_adds_and_supersedes_sections() {
        let mut w = StoreWriter::with_creator("append-base");
        w.add(SectionKind::Graph, 0, vec![1, 2, 3]);
        w.add(SectionKind::Matrix, 0, vec![0xAA; 16]);
        let base = w.to_bytes();

        let mut a = StoreWriter::new();
        a.add(SectionKind::Graph, 0, vec![9, 9, 9, 9]); // supersedes
        a.add(SectionKind::Clusters, 5, vec![0xBB; 7]); // new
        let grown = append(&a, &base).unwrap();

        // the base prefix is byte-identical (nothing rewritten)
        assert_eq!(&grown[..base.len()], &base[..]);
        for open in [
            Store::parse(&grown).unwrap(),
            Store::open_lazy(&grown).unwrap(),
        ] {
            assert!(open.is_appended());
            assert_eq!(open.generation(), 1);
            assert_eq!(open.creator(), "append-base");
            assert_eq!(open.sections().len(), 3);
            // in-place supersede: Graph is still entry 0, now the new bytes
            assert_eq!(open.find(SectionKind::Graph, 0), Some(0));
            assert_eq!(open.payload_checked(0).unwrap(), &[9, 9, 9, 9]);
            assert_eq!(open.payload_checked(1).unwrap(), &[0xAA; 16]);
            assert_eq!(open.payload_checked(2).unwrap(), &[0xBB; 7]);
        }
    }

    #[test]
    fn appending_nothing_still_advances_the_generation() {
        let base = StoreWriter::with_creator("noop-append").to_bytes();
        let grown = append(&StoreWriter::new(), &base).unwrap();
        let s = Store::parse(&grown).unwrap();
        assert!(s.is_appended());
        assert_eq!(s.generation(), 1);
        assert_eq!(s.sections().len(), 0);
    }

    #[test]
    fn append_to_garbage_fails_typed() {
        assert!(matches!(
            append(&StoreWriter::new(), b"not a container"),
            Err(StoreError::BadMagic)
        ));
    }

    #[test]
    fn appended_container_corruption_is_detected() {
        let mut w = StoreWriter::with_creator("append-corrupt");
        w.add(SectionKind::Graph, 0, vec![1; 24]);
        let base = w.to_bytes();
        let mut a = StoreWriter::new();
        a.add(SectionKind::Matrix, 0, vec![2; 24]);
        let grown = append(&a, &base).unwrap();
        assert!(Store::parse(&grown).is_ok());
        // flip one bit everywhere: never a panic, never a clean parse
        for byte in 0..grown.len() {
            let mut bad = grown.clone();
            bad[byte] ^= 0x10;
            let r = std::panic::catch_unwind(|| Store::parse(&bad).map(|_| ()));
            match r {
                Ok(Err(_)) => {}
                Ok(Ok(())) => panic!("bit flip at byte {byte} parsed clean"),
                Err(_) => panic!("bit flip at byte {byte} panicked"),
            }
        }
        // truncation anywhere is a typed error — except at exactly the
        // base container's length, where the torn append leaves the
        // previous generation fully readable (the crash-safety property
        // appending relies on)
        for len in 0..grown.len() {
            let r = std::panic::catch_unwind(|| Store::parse(&grown[..len]).map(|_| ()));
            match r {
                Ok(Err(_)) => assert_ne!(len, base.len(), "base generation must survive"),
                Ok(Ok(())) => assert_eq!(len, base.len(), "truncation to {len} parsed clean"),
                Err(_) => panic!("truncation to {len} bytes panicked"),
            }
        }
    }
}
