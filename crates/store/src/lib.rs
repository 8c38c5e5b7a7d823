//! `.csbn` — the CASBN versioned binary artifact container.
//!
//! Every artifact of the pipeline — correlation networks, expression
//! matrices, MCODE cluster sets, streaming checkpoints — can be packed
//! into one on-disk container format instead of round-tripping through
//! whitespace edge-list text. The format is designed for *bulk* loading:
//! section payloads hold little-endian, 8-byte-aligned arrays that are
//! reconstructed with a handful of buffer-sized reads (a CSR graph loads
//! via `Csr::try_from_parts` with no per-edge parsing), which is what makes
//! `.csbn` loads an order of magnitude faster than text parsing.
//!
//! # Layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  89 43 53 42 4E 0D 0A 00   ("\x89CSBN\r\n\0")
//! 8       4     format version (u32 LE, currently 1)
//! 12      4     endianness tag (u32 LE, 0x0A0B0C0D)
//! 16      4     section count (u32 LE)
//! 20      4     reserved (zero)
//! 24      16    creator string (UTF-8, NUL padded)
//! 40      8     header checksum: FNV-1a over bytes 0..40 + section table
//! 48      32·k  section table: kind u32, tag u32, offset u64, len u64,
//!               checksum u64 (FNV-1a over the payload)
//! …             payloads, in table order, each at an 8-byte-aligned
//!               offset, zero-padded to the next 8-byte boundary
//! ```
//!
//! The magic mirrors PNG's defensive prefix: a high-bit byte catches
//! 7-bit transports, `\r\n` catches newline translation, the trailing
//! NUL catches C-string truncation. The endianness tag pins the payload
//! byte order: a container written on a big-endian host under a naive
//! byte-copying port would carry a reversed tag and be rejected instead
//! of silently mis-read.
//!
//! # Integrity
//!
//! [`Store::parse`] validates the *entire* container up front: magic,
//! version, endianness, header checksum (which covers the section
//! table), every section's offset/length against the file bounds,
//! every payload's FNV checksum, and the zero-padding between sections.
//! Every corruption — truncation at any byte, any single bit flip,
//! trailing garbage — surfaces as a typed [`StoreError`]; nothing
//! panics, and no length field is trusted before it is bounds-checked
//! against the bytes actually present (a corrupted count can never
//! trigger an over-allocation).
//!
//! # Who writes the sections
//!
//! This crate only knows bytes. The typed codecs live next to the types
//! they serialise: `casbn_graph::store` (CSR graphs),
//! `casbn_expr::store` (expression matrices), `casbn_mcode::store`
//! (cluster sets), and `casbn_stream` (full streaming checkpoints via
//! `StreamDriver::checkpoint_bytes` / `StreamDriver::resume_from`).

pub mod codec;
pub mod error;
pub mod io;
pub mod reader;
pub mod writer;

pub use codec::{Dec, Enc};
pub use error::StoreError;
pub use io::{
    append_durable, save_atomic, write_atomic, ArtifactFile, CrashFlush, FaultConfig, FaultFs,
    MemFs, RealFs, Vfs, VfsFile,
};
pub use reader::{SectionEntry, Store};
pub use writer::StoreWriter;

/// The 8-byte file magic (see the crate docs for the byte rationale).
pub const MAGIC: [u8; 8] = [0x89, b'C', b'S', b'B', b'N', 0x0D, 0x0A, 0x00];

/// Current (and only) container format version.
pub const FORMAT_VERSION: u32 = 1;

/// Endianness canary: written little-endian; reads back reversed on a
/// byte-order-confused path.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;

/// Fixed header length in bytes (magic through header checksum).
pub const HEADER_LEN: usize = 48;

/// Bytes per section-table entry.
pub const SECTION_ENTRY_LEN: usize = 32;

/// Maximum creator-string length stored in the header.
pub const CREATOR_LEN: usize = 16;

/// The 8-byte footer magic of an *appended* container (see
/// [`io::append_durable`]): deliberately distinct from [`MAGIC`] so
/// a footer can never be mistaken for the start of a nested container,
/// with the same defensive high-bit/CRLF/NUL structure.
pub const FOOTER_MAGIC: [u8; 8] = [0x89, b'c', b's', b'b', b'n', 0x0D, 0x0A, 0x00];

/// Appended-container footer length in bytes: magic, table offset,
/// section count, generation, footer checksum (all u64-sized fields).
pub const FOOTER_LEN: usize = 40;

/// Known section kinds. The wire value is the discriminant; unknown
/// kinds parse fine (the container is self-describing) but the typed
/// codecs will not claim them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionKind {
    /// A CSR graph (`casbn_graph::store`).
    Graph = 1,
    /// A dense genes × samples expression matrix (`casbn_expr::store`).
    Matrix = 2,
    /// An MCODE cluster set (`casbn_mcode::store`).
    Clusters = 3,
    /// Retired: the online-correlation accumulators (means, second
    /// moments, the co-moment triangle and one membership bit per pair).
    /// Checkpoints written before the stream's samples were stored
    /// instead carry it; nothing writes or reads it now, so they fail to
    /// resume with a typed missing-section error. Kept so `casbn
    /// inspect` still names the section.
    OnlineCorrelation = 4,
    /// Retired: the stream network as a CSR base plus insert/remove
    /// overlays, carried by checkpoints older still. Nothing writes or
    /// reads it; kept so `casbn inspect` still names the section.
    DeltaGraph = 5,
    /// Incremental-chordal maintainer state (stream checkpoint).
    ChordalState = 6,
    /// Retired: the stream driver's window history with each window's
    /// wall-clock time. Superseded by [`SectionKind::DriverHistory`];
    /// kept so `casbn inspect` still names the section.
    DriverState = 7,
    /// The stream's ingested samples and the accumulator's scalars
    /// (stream checkpoint): no pair state, the resume replays them.
    StreamSamples = 8,
    /// Stream-driver configuration and window history, without wall
    /// times (stream checkpoint).
    DriverHistory = 9,
}

impl SectionKind {
    /// The wire value.
    #[inline]
    pub fn as_u32(self) -> u32 {
        self as u32
    }

    /// Parse a wire value.
    pub fn from_u32(x: u32) -> Option<SectionKind> {
        Some(match x {
            1 => SectionKind::Graph,
            2 => SectionKind::Matrix,
            3 => SectionKind::Clusters,
            4 => SectionKind::OnlineCorrelation,
            5 => SectionKind::DeltaGraph,
            6 => SectionKind::ChordalState,
            7 => SectionKind::DriverState,
            8 => SectionKind::StreamSamples,
            9 => SectionKind::DriverHistory,
            _ => return None,
        })
    }

    /// Human-readable name of a wire kind (`"unknown"` for values this
    /// version does not define).
    pub fn name_of(x: u32) -> &'static str {
        match SectionKind::from_u32(x) {
            Some(SectionKind::Graph) => "graph",
            Some(SectionKind::Matrix) => "matrix",
            Some(SectionKind::Clusters) => "clusters",
            Some(SectionKind::OnlineCorrelation) => "online-correlation",
            Some(SectionKind::DeltaGraph) => "delta-graph",
            Some(SectionKind::ChordalState) => "chordal-state",
            Some(SectionKind::DriverState) => "driver-state",
            Some(SectionKind::StreamSamples) => "stream-samples",
            Some(SectionKind::DriverHistory) => "driver-history",
            None => "unknown",
        }
    }
}

/// Whether `bytes` begin with the `.csbn` magic — the cheap sniff the
/// CLI runs on every `--in` file to route between the binary container
/// and the text formats.
#[inline]
pub fn is_store_bytes(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Word-wise FNV-1a over a byte slice — the checksum every section
/// (and the header) carries. Same offset basis and prime as the
/// streaming driver's metric checksum, but mixed 8 little-endian bytes
/// per round (trailing bytes are zero-extended into a final word) so
/// checksumming runs at load-path speed: one multiply per word instead
/// of one per byte, which keeps full-container validation an order of
/// magnitude cheaper than the text parsing it replaces.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a offset basis: the starting accumulator of every FNV fold in
/// the workspace.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step: xor `x` into the accumulator `h`, then multiply by
/// the FNV prime. Every FNV checksum in the workspace is a sequence of
/// these steps; they differ only in what they feed (bytes, words,
/// integer metrics).
#[inline]
pub fn fnv_mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Streaming form of [`fnv1a`]: feed any number of slices through
/// [`Fnv1a::update`] and [`Fnv1a::finish`] yields exactly the checksum
/// `fnv1a` computes over their concatenation, independent of how the
/// bytes were split. Partial words are buffered across updates, so the
/// header checksum can cover two discontiguous ranges (fixed header +
/// section table) without copying them into a temporary buffer.
#[derive(Clone, Debug)]
pub struct Fnv1a {
    h: u64,
    /// Bytes of a not-yet-complete 8-byte word, little-endian order.
    word: [u8; 8],
    fill: usize,
    len: u64,
}

impl Fnv1a {
    /// Hasher over the empty byte sequence.
    pub fn new() -> Fnv1a {
        Fnv1a {
            h: FNV_BASIS,
            word: [0u8; 8],
            fill: 0,
            len: 0,
        }
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.h ^= word;
        self.h = self.h.wrapping_mul(FNV_PRIME);
    }

    /// Absorb the next slice of the logical byte sequence.
    pub fn update(&mut self, bytes: &[u8]) {
        self.len += bytes.len() as u64;
        let mut rest = bytes;
        if self.fill > 0 {
            let take = rest.len().min(8 - self.fill);
            self.word[self.fill..self.fill + take].copy_from_slice(&rest[..take]);
            self.fill += take;
            rest = &rest[take..];
            if self.fill < 8 {
                return;
            }
            let w = u64::from_le_bytes(self.word);
            self.mix(w);
            self.word = [0u8; 8];
            self.fill = 0;
        }
        let mut chunks = rest.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().unwrap());
            self.mix(w);
        }
        let tail = chunks.remainder();
        self.word[..tail.len()].copy_from_slice(tail);
        self.fill = tail.len();
    }

    /// The checksum of everything absorbed so far (the hasher can keep
    /// absorbing afterwards; `finish` does not consume it).
    pub fn finish(&self) -> u64 {
        let mut h = self.h;
        if self.fill > 0 {
            // zero-extend the buffered tail into a final word, exactly
            // as the one-shot path does
            h ^= u64::from_le_bytes(self.word);
            h = h.wrapping_mul(FNV_PRIME);
        }
        // fold the length in so zero-padded tails of different lengths
        // cannot collide
        h ^= self.len;
        h.wrapping_mul(FNV_PRIME)
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// Round `x` up to the next multiple of 8 (section payload alignment).
#[inline]
pub(crate) fn align8(x: usize) -> usize {
    x.div_ceil(8) * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_detection() {
        assert!(is_store_bytes(&MAGIC));
        let mut with_tail = MAGIC.to_vec();
        with_tail.extend_from_slice(b"anything");
        assert!(is_store_bytes(&with_tail));
        assert!(!is_store_bytes(b"0 1\n1 2\n"));
        assert!(!is_store_bytes(&MAGIC[..7]));
        assert!(!is_store_bytes(b""));
    }

    #[test]
    fn fnv_is_deterministic_and_sensitive() {
        assert_eq!(fnv1a(b"foobar"), fnv1a(b"foobar"));
        // any single bit flip moves the checksum
        let base = fnv1a(&[0u8; 64]);
        for byte in 0..64 {
            let mut xs = [0u8; 64];
            xs[byte] = 1;
            assert_ne!(fnv1a(&xs), base, "flip at byte {byte} undetected");
        }
        // zero-padded tails of different lengths do not collide
        assert_ne!(fnv1a(&[1, 2, 3]), fnv1a(&[1, 2, 3, 0]));
        assert_ne!(fnv1a(b""), fnv1a(&[0u8; 8]));
    }

    #[test]
    fn kind_roundtrip_and_names() {
        for k in [
            SectionKind::Graph,
            SectionKind::Matrix,
            SectionKind::Clusters,
            SectionKind::OnlineCorrelation,
            SectionKind::DeltaGraph,
            SectionKind::ChordalState,
            SectionKind::DriverState,
            SectionKind::StreamSamples,
            SectionKind::DriverHistory,
        ] {
            assert_eq!(SectionKind::from_u32(k.as_u32()), Some(k));
            assert_ne!(SectionKind::name_of(k.as_u32()), "unknown");
        }
        assert_eq!(SectionKind::from_u32(0), None);
        assert_eq!(SectionKind::name_of(999), "unknown");
    }

    #[test]
    fn align8_rounds_up() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(9), 16);
    }

    #[test]
    fn streaming_fnv_matches_one_shot_for_every_split() {
        let data: Vec<u8> = (0u16..257).map(|x| (x * 31 % 251) as u8).collect();
        let want = fnv1a(&data);
        // every 2-way split
        for cut in 0..=data.len() {
            let mut h = Fnv1a::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), want, "split at {cut}");
        }
        // a ragged many-way split (1, 2, 3, ... byte pieces)
        let mut h = Fnv1a::new();
        let mut at = 0;
        let mut step = 1;
        while at < data.len() {
            let end = (at + step).min(data.len());
            h.update(&data[at..end]);
            at = end;
            step += 1;
        }
        assert_eq!(h.finish(), want);
        // interleaved empty updates change nothing
        let mut h = Fnv1a::new();
        h.update(&[]);
        h.update(&data);
        h.update(&[]);
        assert_eq!(h.finish(), want);
        // finish is a checkpoint, not a terminator
        let mut h = Fnv1a::new();
        h.update(&data[..7]);
        assert_eq!(h.finish(), fnv1a(&data[..7]));
        h.update(&data[7..]);
        assert_eq!(h.finish(), want);
    }

    #[test]
    fn footer_magic_is_not_the_container_magic() {
        assert_ne!(FOOTER_MAGIC, MAGIC);
        assert_eq!(FOOTER_MAGIC.len(), 8);
        assert_eq!(FOOTER_LEN, 40);
    }
}
