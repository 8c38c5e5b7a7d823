//! Container parsing: full up-front validation ([`Store::parse`]) or
//! O(header + table) opens with lazily validated payloads
//! ([`Store::open_lazy`]), over both the base single-table layout and
//! the appended footer layout emitted by [`crate::io::append_durable`].

use crate::error::StoreError;
use crate::{
    align8, fnv1a, Fnv1a, SectionKind, CREATOR_LEN, ENDIAN_TAG, FOOTER_LEN, FOOTER_MAGIC,
    FORMAT_VERSION, HEADER_LEN, MAGIC, SECTION_ENTRY_LEN,
};
use std::sync::OnceLock;

/// Static telemetry key for bytes served per section kind (counter keys
/// are `&'static str`, so the wire kind maps through a fixed table).
fn bytes_counter_key(kind: u32) -> &'static str {
    match SectionKind::name_of(kind) {
        "graph" => "store.bytes.graph",
        "matrix" => "store.bytes.matrix",
        "clusters" => "store.bytes.clusters",
        "online-correlation" => "store.bytes.online-correlation",
        "delta-graph" => "store.bytes.delta-graph",
        "chordal-state" => "store.bytes.chordal-state",
        "driver-state" => "store.bytes.driver-state",
        _ => "store.bytes.unknown",
    }
}

/// One entry of the parsed section table.
#[derive(Clone, Copy, Debug)]
pub struct SectionEntry {
    /// Wire kind (see [`SectionKind::name_of`] for display).
    pub kind: u32,
    /// Disambiguating tag (0 where a kind appears once).
    pub tag: u32,
    /// Payload offset from the start of the container.
    pub offset: usize,
    /// Payload length in bytes (without alignment padding).
    pub len: usize,
    /// Recorded FNV-1a checksum of the payload.
    pub checksum: u64,
}

/// A parsed view over a `.csbn` byte buffer.
///
/// [`Store::parse`] checks everything up front — magic, version,
/// endianness, header checksum, section bounds and alignment, payload
/// checksums and the zero padding between sections — so section access
/// afterwards is infallible slicing. [`Store::open_lazy`] performs the
/// same structural validation but defers each payload's checksum to its
/// first access through [`Store::payload_checked`], memoized per
/// section, which makes opening O(header + table) regardless of file
/// size. Either way the view borrows the caller's buffer: loading stays
/// a single `fs::read` plus header-sized parsing, with payload bytes
/// consumed in place.
///
/// Both constructors resolve the *latest* section table: a container
/// grown with [`crate::io::append_durable`] carries a superseding table
/// and footer after the appended payloads, and lookups see that table
/// only (superseded payloads and earlier tables become unreferenced
/// gaps).
#[derive(Debug)]
pub struct Store<'a> {
    bytes: &'a [u8],
    version: u32,
    creator: String,
    entries: Vec<SectionEntry>,
    /// 0 for a base-layout container; the footer generation otherwise.
    generation: u64,
    /// `Some` under [`Store::open_lazy`]: one memo slot per section
    /// holding the payload checksum computed on first access.
    lazy: Option<Vec<OnceLock<u64>>>,
    /// Under [`Store::open_degraded`]: one flag per section, `true`
    /// where the payload failed its checksum and is quarantined.
    quarantined: Vec<bool>,
    /// Under [`Store::open_degraded`]: `Some(valid_len)` when the open
    /// fell back to a shorter valid generation of a torn file.
    recovered_len: Option<usize>,
}

impl<'a> Store<'a> {
    /// Parse and validate a container, checksumming every payload up
    /// front.
    pub fn parse(bytes: &'a [u8]) -> Result<Store<'a>, StoreError> {
        casbn_obs::counter_inc("store.open_eager");
        Store::parse_inner(bytes, true)
    }

    /// Open a container with O(header + table) work: magic, version,
    /// endianness, header checksum, footer (if appended), section
    /// bounds, alignment and padding are validated eagerly, but each
    /// payload's FNV-1a checksum is deferred to its first access via
    /// [`Store::payload_checked`] (memoized, so every section is
    /// checksummed at most once).
    pub fn open_lazy(bytes: &'a [u8]) -> Result<Store<'a>, StoreError> {
        casbn_obs::counter_inc("store.open_lazy");
        let store = Store::parse_inner(bytes, false)?;
        // every payload's verification is deferred at open; the memoized
        // first touches below count against this
        casbn_obs::counter_add("store.checksum_deferred", store.entries.len() as u64);
        Ok(store)
    }

    /// Length of the longest prefix of `bytes` that is a structurally
    /// valid container — the newest generation that survived a torn
    /// write.
    ///
    /// A clean container resolves to its full length. Otherwise the
    /// bytes are scanned backwards for footer candidates (every
    /// 8-aligned [`FOOTER_MAGIC`] position), newest first, and the
    /// first prefix that opens is returned; failing that, the base
    /// layout's own extent (header + table + contiguous payloads) is
    /// tried. A file with no valid prefix at all returns the original
    /// parse error.
    ///
    /// Under the durable-append protocol
    /// (`casbn_store::io::append_durable`) a crash at any write
    /// boundary leaves exactly such a prefix: the footer is only
    /// written once everything it references is fsynced, so the newest
    /// recoverable generation is always bit-exact — prior or new, never
    /// partial.
    pub fn recover_prefix_len(bytes: &[u8]) -> Result<usize, StoreError> {
        let err = match Store::parse_inner(bytes, false) {
            Ok(_) => return Ok(bytes.len()),
            Err(e) => e,
        };
        // newest-first footer scan: a valid generation ends in a footer
        // at an 8-aligned offset
        if bytes.len() >= FOOTER_LEN {
            let mut p = (bytes.len() - FOOTER_LEN) & !7usize;
            loop {
                if bytes[p..p + FOOTER_MAGIC.len()] == FOOTER_MAGIC
                    && Store::parse_inner(&bytes[..p + FOOTER_LEN], false).is_ok()
                {
                    return Ok(p + FOOTER_LEN);
                }
                if p < 8 {
                    break;
                }
                p -= 8;
            }
        }
        // no surviving appended generation: try the base container's
        // own extent, computed from the (header-checksummed) table
        if let Some(end) = Store::base_extent(bytes) {
            if end <= bytes.len() && Store::parse_inner(&bytes[..end], false).is_ok() {
                return Ok(end);
            }
        }
        Err(err)
    }

    /// The base layout's declared end (header + table + contiguous
    /// padded payloads), if the header and table are present and
    /// plausible. Purely arithmetic — the caller re-validates the
    /// prefix with a real parse.
    fn base_extent(bytes: &[u8]) -> Option<usize> {
        if bytes.len() < HEADER_LEN || bytes[..MAGIC.len()] != MAGIC {
            return None;
        }
        let count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let table_end = count
            .checked_mul(SECTION_ENTRY_LEN)?
            .checked_add(HEADER_LEN)?;
        if table_end > bytes.len() {
            return None;
        }
        let mut cursor = table_end;
        for i in 0..count {
            let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let offset = usize::try_from(u64::from_le_bytes(
                bytes[at + 8..at + 16].try_into().unwrap(),
            ))
            .ok()?;
            let len = usize::try_from(u64::from_le_bytes(
                bytes[at + 16..at + 24].try_into().unwrap(),
            ))
            .ok()?;
            if offset != cursor {
                return None;
            }
            cursor = align8(offset.checked_add(len)?);
        }
        Some(cursor)
    }

    /// Open a container in **degraded mode**: a torn file falls back to
    /// its newest valid generation (via [`Store::recover_prefix_len`]),
    /// and sections failing their payload checksum are *quarantined*
    /// instead of failing the open — [`Store::payload_checked`] returns
    /// the typed mismatch for exactly those sections while the rest of
    /// the container stays readable.
    ///
    /// Every payload is checksummed up front (this is not a lazy open);
    /// quarantined sections are counted into the
    /// `store.quarantined_sections` telemetry counter, and a truncated
    /// fallback bumps `io.recovered_generation`. Inspect the damage via
    /// [`Store::quarantined_count`], [`Store::section_quarantined`] and
    /// [`Store::recovered_len`].
    pub fn open_degraded(bytes: &'a [u8]) -> Result<Store<'a>, StoreError> {
        casbn_obs::counter_inc("store.open_degraded");
        let (mut store, recovered) = match Store::parse_inner(bytes, false) {
            Ok(s) => (s, None),
            Err(_) => {
                let keep = Store::recover_prefix_len(bytes)?;
                casbn_obs::counter_inc("io.recovered_generation");
                (Store::parse_inner(&bytes[..keep], false)?, Some(keep))
            }
        };
        store.recovered_len = recovered;
        store.lazy = Some((0..store.entries.len()).map(|_| OnceLock::new()).collect());
        store.quarantined = store
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let memo = store.lazy.as_ref().expect("lazy memos just installed");
                let got = *memo[i].get_or_init(|| {
                    casbn_obs::counter_inc("store.checksum_performed");
                    fnv1a(&store.bytes[e.offset..e.offset + e.len])
                });
                got != e.checksum
            })
            .collect();
        let bad = store.quarantined.iter().filter(|&&q| q).count();
        if bad > 0 {
            casbn_obs::counter_add("store.quarantined_sections", bad as u64);
        }
        Ok(store)
    }

    fn parse_inner(bytes: &'a [u8], eager: bool) -> Result<Store<'a>, StoreError> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                need: HEADER_LEN,
                have: bytes.len(),
            });
        }
        let field_u32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let version = field_u32(8);
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let endian = field_u32(12);
        if endian != ENDIAN_TAG {
            return Err(StoreError::BadEndianness(endian));
        }
        let count = field_u32(16) as usize;
        if field_u32(20) != 0 {
            return Err(StoreError::Malformed(
                "reserved header field not zero".into(),
            ));
        }
        let creator_raw = &bytes[24..24 + CREATOR_LEN];
        let creator_end = creator_raw
            .iter()
            .position(|&b| b == 0)
            .unwrap_or(CREATOR_LEN);
        if creator_raw[creator_end..].iter().any(|&b| b != 0) {
            return Err(StoreError::Malformed("creator field not NUL-padded".into()));
        }
        let creator = std::str::from_utf8(&creator_raw[..creator_end])
            .map_err(|_| StoreError::Malformed("creator field not UTF-8".into()))?
            .to_string();

        // bound the table before touching it — a corrupted count must
        // not drive any allocation or read past the buffer
        let table_end = count
            .checked_mul(SECTION_ENTRY_LEN)
            .and_then(|t| t.checked_add(HEADER_LEN))
            .ok_or_else(|| StoreError::Malformed("section count overflows".into()))?;
        if table_end > bytes.len() {
            return Err(StoreError::Truncated {
                need: table_end,
                have: bytes.len(),
            });
        }

        // header checksum covers the fixed header (minus the checksum
        // field itself) plus the base table, hashed in place
        let recorded = u64::from_le_bytes(bytes[HEADER_LEN - 8..HEADER_LEN].try_into().unwrap());
        let mut h = Fnv1a::new();
        h.update(&bytes[..HEADER_LEN - 8]);
        h.update(&bytes[HEADER_LEN..table_end]);
        let got = h.finish();
        if got != recorded {
            return Err(StoreError::ChecksumMismatch {
                section: None,
                expected: recorded,
                got,
            });
        }

        // an appended container ends in a footer naming the superseding
        // table; resolve it before walking any entries
        let footer_at = bytes.len().wrapping_sub(FOOTER_LEN);
        let appended = bytes.len() >= table_end + FOOTER_LEN
            && bytes[footer_at..footer_at + FOOTER_MAGIC.len()] == FOOTER_MAGIC;

        let mut store = if appended {
            Store::parse_appended(bytes, version, creator, table_end, eager)?
        } else {
            Store::parse_base(bytes, version, creator, count, table_end, eager)?
        };
        if !eager {
            store.lazy = Some((0..store.entries.len()).map(|_| OnceLock::new()).collect());
        }
        Ok(store)
    }

    /// Walk a base-layout table: payloads contiguous, aligned,
    /// in-bounds, zero-padded, and (when `eager`) checksum-clean, with
    /// no trailing bytes.
    fn parse_base(
        bytes: &'a [u8],
        version: u32,
        creator: String,
        count: usize,
        table_end: usize,
        eager: bool,
    ) -> Result<Store<'a>, StoreError> {
        let mut entries = Vec::with_capacity(count);
        let mut cursor = table_end;
        for i in 0..count {
            let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let e = Store::table_entry(bytes, at, i)?;
            if e.offset != cursor {
                return Err(StoreError::Malformed(format!(
                    "section {i} offset {} out of place (expected {cursor})",
                    e.offset
                )));
            }
            let padded_end = Store::check_section_extent(bytes, &e, i, bytes.len())?;
            if eager {
                Store::check_section_checksum(bytes, &e, i)?;
            }
            entries.push(e);
            cursor = padded_end;
        }
        if cursor != bytes.len() {
            return Err(StoreError::Malformed(format!(
                "{} trailing bytes after the last section",
                bytes.len() - cursor
            )));
        }
        Ok(Store {
            bytes,
            version,
            creator,
            entries,
            generation: 0,
            lazy: None,
            quarantined: Vec::new(),
            recovered_len: None,
        })
    }

    /// Resolve and walk the superseding table of an appended container.
    /// Payloads may live anywhere in `[base table end, new table)` with
    /// gaps (superseded payloads), but must be aligned, non-overlapping,
    /// zero-padded and (when `eager`) checksum-clean.
    fn parse_appended(
        bytes: &'a [u8],
        version: u32,
        creator: String,
        base_table_end: usize,
        eager: bool,
    ) -> Result<Store<'a>, StoreError> {
        let footer_at = bytes.len() - FOOTER_LEN;
        let footer_u64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let table_offset = usize::try_from(footer_u64(footer_at + 8))
            .map_err(|_| StoreError::Malformed("footer table offset overflows".into()))?;
        let count = usize::try_from(footer_u64(footer_at + 16))
            .map_err(|_| StoreError::Malformed("footer section count overflows".into()))?;
        let generation = footer_u64(footer_at + 24);
        let recorded = footer_u64(footer_at + 32);
        if generation == 0 {
            return Err(StoreError::Malformed(
                "appended container footer claims generation 0".into(),
            ));
        }
        let table_end = count
            .checked_mul(SECTION_ENTRY_LEN)
            .and_then(|t| t.checked_add(table_offset))
            .ok_or_else(|| StoreError::Malformed("footer section count overflows".into()))?;
        if table_offset % 8 != 0 || table_offset < base_table_end || table_end != footer_at {
            return Err(StoreError::Malformed(
                "footer table bounds out of place".into(),
            ));
        }
        // footer checksum covers the superseding table plus the footer
        // fields before the checksum itself
        let mut h = Fnv1a::new();
        h.update(&bytes[table_offset..table_end]);
        h.update(&bytes[footer_at..footer_at + FOOTER_LEN - 8]);
        let got = h.finish();
        if got != recorded {
            return Err(StoreError::ChecksumMismatch {
                section: None,
                expected: recorded,
                got,
            });
        }

        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let at = table_offset + i * SECTION_ENTRY_LEN;
            let e = Store::table_entry(bytes, at, i)?;
            if e.offset % 8 != 0 || e.offset < base_table_end {
                return Err(StoreError::Malformed(format!(
                    "section {i} offset {} out of place",
                    e.offset
                )));
            }
            Store::check_section_extent(bytes, &e, i, table_offset)?;
            if eager {
                Store::check_section_checksum(bytes, &e, i)?;
            }
            entries.push(e);
        }
        // no two live payloads may overlap (gaps are fine — they hold
        // superseded payloads)
        let mut spans: Vec<(usize, usize, usize)> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.offset, e.offset + e.len, i))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[0].1 > w[1].0 {
                return Err(StoreError::Malformed(format!(
                    "sections {} and {} overlap",
                    w[0].2, w[1].2
                )));
            }
        }
        Ok(Store {
            bytes,
            version,
            creator,
            entries,
            generation,
            lazy: None,
            quarantined: Vec::new(),
            recovered_len: None,
        })
    }

    /// Decode table entry `i` at byte offset `at`, bounds-converting the
    /// u64 offset/length fields.
    fn table_entry(bytes: &[u8], at: usize, i: usize) -> Result<SectionEntry, StoreError> {
        let field_u32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let kind = field_u32(at);
        let tag = field_u32(at + 4);
        let offset_raw = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
        let len_raw = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap());
        let checksum = u64::from_le_bytes(bytes[at + 24..at + 32].try_into().unwrap());
        let offset = usize::try_from(offset_raw)
            .map_err(|_| StoreError::Malformed(format!("section {i} offset overflows")))?;
        let len = usize::try_from(len_raw)
            .map_err(|_| StoreError::Malformed(format!("section {i} length overflows")))?;
        Ok(SectionEntry {
            kind,
            tag,
            offset,
            len,
            checksum,
        })
    }

    /// Bound section `i`'s payload and its zero padding against `limit`
    /// (the first byte the payload region may not touch). Returns the
    /// padded end.
    fn check_section_extent(
        bytes: &[u8],
        e: &SectionEntry,
        i: usize,
        limit: usize,
    ) -> Result<usize, StoreError> {
        let end = e
            .offset
            .checked_add(e.len)
            .ok_or_else(|| StoreError::Malformed(format!("section {i} extent overflows")))?;
        if end > limit {
            return Err(StoreError::Truncated {
                need: end,
                have: limit,
            });
        }
        let padded_end = align8(end);
        if padded_end > limit {
            return Err(StoreError::Truncated {
                need: padded_end,
                have: limit,
            });
        }
        if bytes[end..padded_end].iter().any(|&b| b != 0) {
            return Err(StoreError::Malformed(format!(
                "section {i} alignment padding not zero"
            )));
        }
        Ok(padded_end)
    }

    /// Verify section `i`'s payload checksum against its table entry.
    fn check_section_checksum(bytes: &[u8], e: &SectionEntry, i: usize) -> Result<(), StoreError> {
        casbn_obs::counter_inc("store.checksum_performed");
        let got = fnv1a(&bytes[e.offset..e.offset + e.len]);
        if got != e.checksum {
            return Err(StoreError::ChecksumMismatch {
                section: Some(i),
                expected: e.checksum,
                got,
            });
        }
        Ok(())
    }

    /// Container format version.
    #[inline]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Creator string recorded by the writer.
    #[inline]
    pub fn creator(&self) -> &str {
        &self.creator
    }

    /// The validated section table, in file order (the *superseding*
    /// table for an appended container).
    #[inline]
    pub fn sections(&self) -> &[SectionEntry] {
        &self.entries
    }

    /// Append generation: 0 for a base-layout container, and the number
    /// of durable append rounds ([`crate::io::append_durable`]) otherwise.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the container carries an appended superseding table.
    #[inline]
    pub fn is_appended(&self) -> bool {
        self.generation > 0
    }

    /// Whether this view was opened with [`Store::open_lazy`] (payload
    /// checksums validated on first access instead of up front).
    #[inline]
    pub fn is_lazy(&self) -> bool {
        self.lazy.is_some()
    }

    /// Whether this view was opened with [`Store::open_degraded`] and
    /// is serving a container with quarantined sections or a recovered
    /// (truncated) generation.
    #[inline]
    pub fn is_degraded(&self) -> bool {
        self.recovered_len.is_some() || self.quarantined.iter().any(|&q| q)
    }

    /// How many sections are quarantined (checksum-failed under a
    /// degraded open); 0 for eager/lazy opens.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.iter().filter(|&&q| q).count()
    }

    /// Whether section `index` is quarantined (always `false` outside
    /// [`Store::open_degraded`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, like [`Store::payload`].
    pub fn section_quarantined(&self, index: usize) -> bool {
        assert!(index < self.entries.len(), "section index out of range");
        self.quarantined.get(index).copied().unwrap_or(false)
    }

    /// `Some(valid_len)` when a degraded open fell back to a shorter
    /// valid generation of a torn file (the served view covers only
    /// those first bytes).
    #[inline]
    pub fn recovered_len(&self) -> Option<usize> {
        self.recovered_len
    }

    /// How many sections have had their checksum verified so far: all
    /// of them for an eager parse, the memoized count under a lazy open.
    pub fn sections_verified(&self) -> usize {
        match &self.lazy {
            None => self.entries.len(),
            Some(memo) => memo.iter().filter(|m| m.get().is_some()).count(),
        }
    }

    /// Raw payload bytes of section `index`, **without** the lazy
    /// checksum: under [`Store::open_lazy`] these bytes may be
    /// unverified — typed loaders go through [`Store::payload_checked`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range (the table is public; index
    /// against [`Store::sections`]).
    #[inline]
    pub fn payload(&self, index: usize) -> &'a [u8] {
        let e = &self.entries[index];
        &self.bytes[e.offset..e.offset + e.len]
    }

    /// Payload bytes of section `index`, checksum-verified: a no-op
    /// lookup after [`Store::parse`], and a memoized first-touch FNV
    /// sweep after [`Store::open_lazy`]. A corrupted payload surfaces
    /// as [`StoreError::ChecksumMismatch`] on every access.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, like [`Store::payload`].
    pub fn payload_checked(&self, index: usize) -> Result<&'a [u8], StoreError> {
        let e = &self.entries[index];
        if self.quarantined.get(index).copied().unwrap_or(false) {
            // degraded open: the mismatch was computed (and memoized)
            // up front; every access stays a typed error
            let got = self
                .lazy
                .as_ref()
                .and_then(|memo| memo[index].get().copied())
                .unwrap_or_default();
            return Err(StoreError::ChecksumMismatch {
                section: Some(index),
                expected: e.checksum,
                got,
            });
        }
        let bytes = &self.bytes[e.offset..e.offset + e.len];
        casbn_obs::counter_add(bytes_counter_key(e.kind), e.len as u64);
        if let Some(memo) = &self.lazy {
            let got = *memo[index].get_or_init(|| {
                // inside the init closure, so a memoized re-touch does
                // not recount
                casbn_obs::counter_inc("store.checksum_performed");
                fnv1a(bytes)
            });
            if got != e.checksum {
                return Err(StoreError::ChecksumMismatch {
                    section: Some(index),
                    expected: e.checksum,
                    got,
                });
            }
        }
        Ok(bytes)
    }

    /// Whether section `index`'s payload checksum has been verified:
    /// always under [`Store::parse`], on first touch under
    /// [`Store::open_lazy`].
    pub fn section_verified(&self, index: usize) -> bool {
        assert!(index < self.entries.len(), "section index out of range");
        match &self.lazy {
            None => true,
            Some(memo) => memo[index].get().is_some(),
        }
    }

    /// Index of the first section of `kind` (any tag).
    pub fn find_kind(&self, kind: SectionKind) -> Option<usize> {
        self.entries.iter().position(|e| e.kind == kind.as_u32())
    }

    /// Index of the section with exactly this `kind` and `tag`.
    pub fn find(&self, kind: SectionKind, tag: u32) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.kind == kind.as_u32() && e.tag == tag)
    }

    /// Checksum-verified payload of the first section of `kind`, or a
    /// typed [`StoreError::MissingSection`].
    pub fn require_kind(&self, kind: SectionKind) -> Result<&'a [u8], StoreError> {
        match self.find_kind(kind) {
            Some(i) => self.payload_checked(i),
            None => Err(StoreError::MissingSection(SectionKind::name_of(
                kind.as_u32(),
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::StoreWriter;

    fn sample() -> Vec<u8> {
        let mut w = StoreWriter::with_creator("reader-test");
        w.add(SectionKind::Graph, 0, vec![1, 2, 3, 4, 5]);
        w.add(SectionKind::Graph, 1, vec![6; 24]);
        w.add(SectionKind::Matrix, 0, vec![7; 9]);
        w.to_bytes()
    }

    #[test]
    fn lookup_by_kind_and_tag() {
        let bytes = sample();
        let s = Store::parse(&bytes).unwrap();
        assert_eq!(s.find_kind(SectionKind::Graph), Some(0));
        assert_eq!(s.find(SectionKind::Graph, 1), Some(1));
        assert_eq!(s.find(SectionKind::Graph, 9), None);
        assert_eq!(s.require_kind(SectionKind::Matrix).unwrap(), &[7; 9]);
        assert!(matches!(
            s.require_kind(SectionKind::Clusters),
            Err(StoreError::MissingSection("clusters"))
        ));
        assert!(!s.is_appended());
        assert_eq!(s.generation(), 0);
        assert!(!s.is_lazy());
        assert_eq!(s.sections_verified(), 3);
    }

    #[test]
    fn not_a_container_is_bad_magic() {
        assert!(matches!(
            Store::parse(b"# an edge list\n0 1\n"),
            Err(StoreError::BadMagic)
        ));
        assert!(matches!(Store::parse(b""), Err(StoreError::BadMagic)));
        // magic alone, but header missing
        assert!(matches!(
            Store::parse(&MAGIC),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn version_and_endian_gates() {
        let mut bytes = sample();
        bytes[8] = 2; // future version
        assert!(matches!(
            Store::parse(&bytes),
            Err(StoreError::UnsupportedVersion(2))
        ));
        let mut bytes = sample();
        bytes[12..16].copy_from_slice(&ENDIAN_TAG.to_be_bytes()); // byte-swapped writer
        assert!(matches!(
            Store::parse(&bytes),
            Err(StoreError::BadEndianness(0x0D0C_0B0A))
        ));
    }

    #[test]
    fn oversized_section_count_is_bounded_before_allocation() {
        let mut bytes = sample();
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        // count is absurd; the parse must fail on bounds (or the header
        // checksum) without attempting a table-sized allocation
        assert!(matches!(
            Store::parse(&bytes),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupted_length_field_is_bounded() {
        let mut bytes = sample();
        // section 0 length field lives at HEADER_LEN + 16
        bytes[HEADER_LEN + 16..HEADER_LEN + 24].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = Store::parse(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::Malformed(_)
                    | StoreError::ChecksumMismatch { section: None, .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn payload_corruption_is_a_section_checksum_mismatch() {
        let bytes = sample();
        let s = Store::parse(&bytes).unwrap();
        let off = s.sections()[2].offset;
        let mut corrupt = bytes.clone();
        corrupt[off] ^= 0x40;
        assert!(matches!(
            Store::parse(&corrupt),
            Err(StoreError::ChecksumMismatch {
                section: Some(2),
                ..
            })
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample();
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            Store::parse(&bytes),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn lazy_open_defers_payload_checksums_to_first_touch() {
        let bytes = sample();
        let s = Store::open_lazy(&bytes).unwrap();
        assert!(s.is_lazy());
        assert_eq!(s.sections_verified(), 0);
        assert_eq!(s.payload_checked(1).unwrap(), &[6; 24]);
        assert_eq!(s.sections_verified(), 1);
        // a second touch reuses the memo
        assert_eq!(s.payload_checked(1).unwrap(), &[6; 24]);
        assert_eq!(s.sections_verified(), 1);
        assert_eq!(s.require_kind(SectionKind::Matrix).unwrap(), &[7; 9]);
        assert_eq!(s.sections_verified(), 2);
    }

    #[test]
    fn lazy_open_accepts_a_corrupt_payload_until_it_is_touched() {
        let bytes = sample();
        let parsed = Store::parse(&bytes).unwrap();
        let off = parsed.sections()[2].offset;
        let mut corrupt = bytes.clone();
        corrupt[off] ^= 0x40;
        // eager parse rejects outright ...
        assert!(Store::parse(&corrupt).is_err());
        // ... the lazy open succeeds, untouched sections stay readable,
        // and the corrupted one fails typed on every touch
        let s = Store::open_lazy(&corrupt).unwrap();
        assert_eq!(s.payload_checked(0).unwrap(), &[1, 2, 3, 4, 5]);
        for _ in 0..2 {
            assert!(matches!(
                s.payload_checked(2),
                Err(StoreError::ChecksumMismatch {
                    section: Some(2),
                    ..
                })
            ));
        }
    }

    #[test]
    fn lazy_open_still_rejects_structural_corruption_eagerly() {
        // header checksum, table bounds, padding: all eager under lazy
        let mut bytes = sample();
        bytes[HEADER_LEN] ^= 1; // table kind field
        assert!(matches!(
            Store::open_lazy(&bytes),
            Err(StoreError::ChecksumMismatch { section: None, .. })
        ));
        let mut bytes = sample();
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(Store::open_lazy(&bytes).is_err());
        let bytes = sample();
        let s = Store::parse(&bytes).unwrap();
        // flip a padding byte after section 0 (5-byte payload, 3 pad)
        let pad_at = s.sections()[0].offset + 5;
        let mut bad = bytes.clone();
        bad[pad_at] = 1;
        assert!(matches!(
            Store::open_lazy(&bad),
            Err(StoreError::Malformed(_))
        ));
    }
}
