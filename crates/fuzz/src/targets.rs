//! The target registry: one [`Target`] per input surface.
//!
//! A target owns two things: a **structure-aware generator** that
//! produces a plausible input for its grammar (then usually drives it
//! off the rails with the byte mutators), and a **driver** that feeds
//! the input to the real parsing surface and checks the invariants:
//!
//! 1. malformed input is rejected with a typed `Err` whose `Display`
//!    renders — never a panic (panics are caught by the engine);
//! 2. accepted input survives its **differential oracle** — parse →
//!    re-encode → re-parse equality for the text and binary grammars,
//!    and resume-from-checkpoint replaying to the uninterrupted run's
//!    exact checksum for the streaming surface;
//! 3. no iteration allocates past the engine's cap (measured by
//!    [`crate::alloc`] when the counting allocator is installed).
//!
//! [`Target::run`] returns `Ok(Accepted)` / `Ok(Rejected)` when the
//! invariants hold and `Err(description)` on an oracle violation; the
//! engine layers panic catching and allocation accounting on top.

use crate::mutate::mutate;
use crate::rng::FuzzRng;
use casbn_expr::store as expr_store;
use casbn_expr::{DatasetPreset, ExpressionMatrix};
use casbn_graph::generators::gnm;
use casbn_graph::io::{read_edge_list, write_edge_list, write_weighted_edge_list};
use casbn_graph::store as graph_store;
use casbn_mcode::store as mcode_store;
use casbn_mcode::Cluster;
use casbn_serve::protocol as serve_protocol;
use casbn_store::io::{append_durable, MemFs, RetryPolicy};
use casbn_store::{is_store_bytes, SectionKind, Store, StoreError, StoreWriter, MAGIC};
use casbn_stream::{
    read_replay, synthesize_replay, write_replay, StreamConfig, StreamDriver,
    CHECKPOINT_CHORDAL_TAG,
};

/// What a clean iteration did with its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The input parsed; every differential oracle held.
    Accepted,
    /// The input was rejected with a typed error (the guarantee under
    /// test: rejected, not panicked).
    Rejected,
}

/// One fuzzable input surface.
pub trait Target {
    /// Stable registry name (also the corpus subdirectory).
    fn name(&self) -> &'static str;

    /// Produce one input. Must be a pure function of `rng` so a
    /// `(seed, iteration)` coordinate reproduces the input exactly.
    fn generate(&mut self, rng: &mut FuzzRng) -> Vec<u8>;

    /// Drive the surface. `Err` is an oracle violation; panics are the
    /// engine's to catch.
    fn run(&mut self, input: &[u8]) -> Result<Outcome, String>;
}

/// Signature of the CLI argv validation hook. The `casbn_cli` crate
/// injects its real flag-parsing path here (`casbn_fuzz` cannot depend
/// on `casbn_cli` — the CLI's `fuzz` subcommand depends on this crate).
/// `Ok` means the argv was parsed (or typed-rejected) without incident;
/// `Err` is the parser's typed rejection.
pub type ArgvCheck = fn(&[String]) -> Result<(), String>;

/// The CLI surface the `cli-argv` target drives, injected by `casbn_cli`
/// from its command table so the generator's vocabulary cannot drift
/// from the commands it fuzzes.
pub struct ArgvSurface {
    /// The CLI's argv validation path.
    pub check: ArgvCheck,
    /// Every subcommand name.
    pub subcommands: Vec<&'static str>,
    /// Every flag, `--` included.
    pub flags: Vec<String>,
}

/// The eight targets that need no injection.
pub fn builtin_targets() -> Vec<Box<dyn Target>> {
    vec![
        Box::new(EdgeListTarget),
        Box::new(ReplayTarget),
        Box::new(CsbnTarget),
        Box::new(LazyOpenTarget),
        Box::new(AppendTarget),
        Box::new(CrashTarget),
        Box::new(CheckpointTarget::new()),
        Box::new(ServeTarget),
    ]
}

/// All nine targets, with the CLI argv target driving `argv`.
pub fn all_targets(argv: ArgvSurface) -> Vec<Box<dyn Target>> {
    let mut ts = builtin_targets();
    ts.push(Box::new(ArgvTarget::new(argv)));
    ts
}

/// Registry names in canonical order.
pub const TARGET_NAMES: [&str; 9] = [
    "edge-list",
    "replay",
    "csbn",
    "csbn-lazy",
    "csbn-append",
    "csbn-crash",
    "checkpoint-resume",
    "csbn-serve",
    "cli-argv",
];

/// Bit-equality that treats every NaN as equal: adversarial text can
/// carry `-NaN`, whose sign Rust's float formatter drops, so a
/// round-tripped NaN may change payload bits without being a bug.
fn f64_same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

// ---------------------------------------------------------------- edge-list

/// Whitespace edge-list text (`casbn_graph::io::read_edge_list`) —
/// every `--in` network the CLI accepts.
struct EdgeListTarget;

impl Target for EdgeListTarget {
    fn name(&self) -> &'static str {
        "edge-list"
    }

    fn generate(&mut self, rng: &mut FuzzRng) -> Vec<u8> {
        const ODD_TOKENS: &[&str] = &[
            "x",
            "-1",
            "4294967295",
            "4294967296",
            "99999999999999999999",
            "1e3",
            "0x10",
            "NaN",
            "inf",
            "+7",
            "07",
            "",
            "#",
        ];
        let mut out = String::new();
        let ids = rng.range(2, 64);
        for _ in 0..rng.below(24) {
            match rng.below(8) {
                0 => out.push_str("# comment line\n"),
                1 => out.push('\n'),
                2 => {
                    // deliberately odd line
                    let k = rng.range(1, 4);
                    for i in 0..k {
                        if i > 0 {
                            out.push(' ');
                        }
                        out.push_str(ODD_TOKENS[rng.below(ODD_TOKENS.len())]);
                    }
                    out.push('\n');
                }
                _ => {
                    let u = rng.below(ids);
                    let v = rng.below(ids);
                    let sep = if rng.chance(1, 4) { '\t' } else { ' ' };
                    out.push_str(&format!("{u}{sep}{v}"));
                    if rng.chance(1, 3) {
                        let w = [0.5, 1.0, -3.25, 0.95, 1e300, -0.0][rng.below(6)];
                        out.push_str(&format!("{sep}{w}"));
                    }
                    out.push('\n');
                }
            }
        }
        let mut bytes = out.into_bytes();
        if rng.chance(1, 2) {
            let rounds = rng.range(1, 8);
            mutate(&mut bytes, rng, rounds);
        }
        bytes
    }

    fn run(&mut self, input: &[u8]) -> Result<Outcome, String> {
        let (g, weights) = match read_edge_list(input, 0) {
            Err(e) => {
                let _ = e.to_string();
                return Ok(Outcome::Rejected);
            }
            Ok(parsed) => parsed,
        };
        // oracle 1: write → re-read reproduces the graph exactly
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf, Some("fuzz round-trip"))
            .map_err(|e| format!("write_edge_list failed on parsed graph: {e}"))?;
        let (g2, _) = read_edge_list(&buf[..], g.n())
            .map_err(|e| format!("re-parse of written edge list rejected: {e}"))?;
        if !g.same_edges(&g2) || g.n() != g2.n() {
            return Err("edge-list round-trip changed the graph".into());
        }
        // oracle 2: the weighted form round-trips value-exactly
        let mut buf = Vec::new();
        write_weighted_edge_list(&weights, &mut buf, None)
            .map_err(|e| format!("write_weighted_edge_list failed: {e}"))?;
        let (_, w2) = read_edge_list(&buf[..], 0)
            .map_err(|e| format!("re-parse of weighted edge list rejected: {e}"))?;
        if weights.len() != w2.len()
            || weights
                .iter()
                .zip(&w2)
                .any(|(a, b)| a.0 != b.0 || !f64_same(a.1, b.1))
        {
            return Err("weighted edge-list round-trip changed the weights".into());
        }
        Ok(Outcome::Accepted)
    }
}

// ------------------------------------------------------------------- replay

/// Sample-major replay text (`casbn_stream::read_replay`) — the
/// `casbn stream --in` wire format.
struct ReplayTarget;

impl Target for ReplayTarget {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn generate(&mut self, rng: &mut FuzzRng) -> Vec<u8> {
        const VALUES: &[&str] = &[
            "0", "1", "-1.5", "0.25", "1e300", "-1e-300", "-0.0", "nan", "inf", "-inf", "3.", ".5",
            "1_000", "0x1", "seven", "",
        ];
        let genes = rng.below(10);
        let mut out = String::new();
        for _ in 0..rng.below(12) {
            if rng.chance(1, 8) {
                out.push_str("# comment\n");
                continue;
            }
            // usually the first row's width, sometimes ragged
            let width = if rng.chance(1, 6) {
                rng.below(12)
            } else {
                genes
            };
            let line: Vec<&str> = (0..width).map(|_| *rng.pick(VALUES)).collect();
            out.push_str(&line.join(" "));
            out.push('\n');
        }
        let mut bytes = out.into_bytes();
        if rng.chance(1, 2) {
            let rounds = rng.range(1, 8);
            mutate(&mut bytes, rng, rounds);
        }
        bytes
    }

    fn run(&mut self, input: &[u8]) -> Result<Outcome, String> {
        let m = match read_replay(input) {
            Err(e) => {
                let _ = e.to_string();
                return Ok(Outcome::Rejected);
            }
            Ok(m) => m,
        };
        let mut buf = Vec::new();
        write_replay(&m, &mut buf, Some("fuzz round-trip"))
            .map_err(|e| format!("write_replay failed on parsed matrix: {e}"))?;
        let back = read_replay(&buf[..])
            .map_err(|e| format!("re-parse of written replay rejected: {e}"))?;
        if back.genes() != m.genes() || back.samples() != m.samples() {
            return Err(format!(
                "replay round-trip changed the shape: {}x{} -> {}x{}",
                m.genes(),
                m.samples(),
                back.genes(),
                back.samples()
            ));
        }
        if m.data()
            .iter()
            .zip(back.data())
            .any(|(&a, &b)| !f64_same(a, b))
        {
            return Err("replay round-trip changed a cell value".into());
        }
        Ok(Outcome::Accepted)
    }
}

// --------------------------------------------------------------------- csbn

/// `base` grown by `a`'s sections the way production grows a container:
/// a durable append (`casbn_store::io::append_durable`) over an
/// in-memory filesystem.
fn durable_append(base: &[u8], a: &StoreWriter) -> Result<Vec<u8>, StoreError> {
    let fs = MemFs::new();
    fs.install("f.csbn", base);
    append_durable(&fs, "f.csbn", a, RetryPolicy::default())?;
    Ok(fs.live("f.csbn").expect("appended file exists"))
}

/// `.csbn` binary containers (`casbn_store::Store::parse` plus every
/// typed section codec) — the surface `pack`/`inspect`/`verify` and all
/// auto-detected `--in` files share.
struct CsbnTarget;

impl CsbnTarget {
    /// A structurally valid section of a random kind.
    fn valid_section(w: &mut StoreWriter, rng: &mut FuzzRng) {
        match rng.below(3) {
            0 => {
                let n = rng.range(0, 24);
                let m = rng.below(n * 2 + 1).min(n.saturating_sub(1) * n / 2);
                graph_store::add_graph(w, rng.below(3) as u32, &gnm(n, m, rng.u64()));
            }
            1 => {
                let genes = rng.below(6);
                let samples = rng.below(6);
                let data: Vec<f64> = (0..genes * samples)
                    .map(|_| (rng.below(1000) as f64) / 8.0 - 40.0)
                    .collect();
                expr_store::add_matrix(
                    w,
                    rng.below(3) as u32,
                    &ExpressionMatrix::from_rows(genes, samples, data),
                );
            }
            _ => {
                let clusters: Vec<Cluster> = (0..rng.below(4))
                    .map(|_| {
                        let k = rng.range(1, 6) as u32;
                        let base = rng.below(100) as u32;
                        Cluster {
                            vertices: (0..k).map(|i| base + 2 * i).collect(),
                            edges: (1..k).map(|i| (base, base + 2 * i)).collect(),
                            score: (rng.below(64) as f64) / 4.0,
                            seed: base,
                        }
                    })
                    .collect();
                mcode_store::add_clusters(w, rng.below(3) as u32, &clusters);
            }
        }
    }

    /// A handcrafted payload that only *resembles* a section of `kind` —
    /// the codec-level attack surface (field and count tampering beyond
    /// what the byte mutators reach, with a *valid* container checksum).
    fn hostile_payload(rng: &mut FuzzRng) -> (SectionKind, Vec<u8>) {
        let kind = *rng.pick(&[
            SectionKind::Graph,
            SectionKind::Matrix,
            SectionKind::Clusters,
        ]);
        let words = rng.below(12);
        let mut e = casbn_store::Enc::new();
        for _ in 0..words {
            e.u64(rng.interesting_u64());
        }
        (kind, e.into_payload())
    }

    /// Check one known-kind section: a payload the codec accepts must
    /// re-encode to the identical bytes (parse → re-encode → re-parse).
    fn check_section(kind: u32, tag: u32, payload: &[u8]) -> Result<Outcome, String> {
        let reencoded: Vec<u8> = match SectionKind::from_u32(kind) {
            Some(SectionKind::Graph) => match graph_store::csr_from_payload(payload) {
                Err(e) => {
                    let _ = e.to_string();
                    return Ok(Outcome::Rejected);
                }
                Ok(c) => {
                    let mut w = StoreWriter::new();
                    graph_store::add_csr(&mut w, tag, &c);
                    Self::sole_payload(&w)
                }
            },
            Some(SectionKind::Matrix) => match expr_store::matrix_from_payload(payload) {
                Err(e) => {
                    let _ = e.to_string();
                    return Ok(Outcome::Rejected);
                }
                Ok(m) => {
                    let mut w = StoreWriter::new();
                    expr_store::add_matrix(&mut w, tag, &m);
                    Self::sole_payload(&w)
                }
            },
            Some(SectionKind::Clusters) => match mcode_store::clusters_from_payload(payload) {
                Err(e) => {
                    let _ = e.to_string();
                    return Ok(Outcome::Rejected);
                }
                Ok(cs) => {
                    let mut w = StoreWriter::new();
                    mcode_store::add_clusters(&mut w, tag, &cs);
                    Self::sole_payload(&w)
                }
            },
            // checkpoint-only scalar sections and unknown kinds have no
            // standalone codec here
            _ => return Ok(Outcome::Accepted),
        };
        if reencoded != payload {
            return Err(format!(
                "section kind {} ({}) decoded but did not re-encode identically \
                 ({} bytes in, {} bytes out)",
                kind,
                SectionKind::name_of(kind),
                payload.len(),
                reencoded.len()
            ));
        }
        Ok(Outcome::Accepted)
    }

    /// Payload bytes of a single-section writer.
    fn sole_payload(w: &StoreWriter) -> Vec<u8> {
        let bytes = w.to_bytes();
        let store = Store::parse(&bytes).expect("writer output must parse");
        store.payload(0).to_vec()
    }
}

impl Target for CsbnTarget {
    fn name(&self) -> &'static str {
        "csbn"
    }

    fn generate(&mut self, rng: &mut FuzzRng) -> Vec<u8> {
        let mut bytes = match rng.below(8) {
            // raw noise behind the magic: pure header/table fuzzing
            0 => {
                let mut b = MAGIC.to_vec();
                let mut tail = vec![0u8; rng.below(160)];
                rng.fill(&mut tail);
                b.extend_from_slice(&tail);
                b
            }
            _ => {
                let mut w = StoreWriter::new();
                for _ in 0..rng.below(4) {
                    if rng.chance(1, 3) {
                        let (kind, payload) = Self::hostile_payload(rng);
                        w.add(kind, rng.below(4) as u32, payload);
                    } else {
                        Self::valid_section(&mut w, rng);
                    }
                }
                w.to_bytes()
            }
        };
        if rng.chance(2, 3) {
            let rounds = rng.range(1, 10);
            mutate(&mut bytes, rng, rounds);
        }
        bytes
    }

    fn run(&mut self, input: &[u8]) -> Result<Outcome, String> {
        // the CLI's sniff must agree with the parser's magic gate
        let sniffed = is_store_bytes(input);
        let store = match Store::parse(input) {
            Err(e) => {
                let msg = e.to_string();
                if msg.is_empty() {
                    return Err("store error with empty Display".into());
                }
                if !sniffed && !matches!(e, casbn_store::StoreError::BadMagic) {
                    return Err(format!(
                        "sniff said 'not a container' but parse failed with {msg:?} \
                         instead of BadMagic"
                    ));
                }
                return Ok(Outcome::Rejected);
            }
            Ok(s) => s,
        };
        if !sniffed {
            return Err("container parsed but is_store_bytes rejected it".into());
        }
        let mut any_accepted = false;
        for (i, entry) in store.sections().iter().enumerate() {
            match Self::check_section(entry.kind, entry.tag, store.payload(i))? {
                Outcome::Accepted => any_accepted = true,
                Outcome::Rejected => {}
            }
        }
        Ok(if any_accepted {
            Outcome::Accepted
        } else {
            Outcome::Rejected
        })
    }
}

// ---------------------------------------------------------------- csbn-lazy

/// The lazy read tier (`Store::open_lazy`) fuzzed differentially against
/// the eager parse. The invariants:
///
/// 1. both tiers agree on structural corruption — same typed error at
///    open time;
/// 2. payload corruption the eager sweep pins to section `i` leaves the
///    lazy open succeeding, every section before `i` verifying clean,
///    and the first *touch* of `i` failing with the same typed
///    `ChecksumMismatch` — deferred validation must never turn a
///    detected corruption into a silently different answer;
/// 3. a clean container verifies identically through both tiers.
struct LazyOpenTarget;

impl Target for LazyOpenTarget {
    fn name(&self) -> &'static str {
        "csbn-lazy"
    }

    fn generate(&mut self, rng: &mut FuzzRng) -> Vec<u8> {
        let mut w = StoreWriter::new();
        for _ in 0..rng.range(1, 4) {
            CsbnTarget::valid_section(&mut w, rng);
        }
        let mut bytes = w.to_bytes();
        if rng.chance(1, 3) {
            // sometimes grow the container so the lazy tier is also
            // exercised over the appended (footer + superseding table)
            // layout
            let mut a = StoreWriter::new();
            if rng.chance(1, 2) {
                CsbnTarget::valid_section(&mut a, rng);
            }
            bytes = durable_append(&bytes, &a).expect("append to a fresh container");
        }
        match rng.below(4) {
            // clean: both tiers must accept and agree
            0 => {}
            // surgical single-bit payload flip: reaches the deferred
            // checksum layer with the structure intact
            1 => {
                let (off, len) = {
                    let store = Store::parse(&bytes).expect("generated container parses");
                    let s = store.sections();
                    let e = &s[rng.below(s.len())];
                    (e.offset, e.len)
                };
                let bit = rng.below(len * 8);
                bytes[off + bit / 8] ^= 1 << (bit % 8);
            }
            // generic byte mutators: header/table/framing attacks
            _ => {
                let rounds = rng.range(1, 8);
                mutate(&mut bytes, rng, rounds);
            }
        }
        bytes
    }

    fn run(&mut self, input: &[u8]) -> Result<Outcome, String> {
        use casbn_store::StoreError;
        match (Store::parse(input), Store::open_lazy(input)) {
            (Ok(eager), Ok(lazy)) => {
                if eager.sections().len() != lazy.sections().len() {
                    return Err("eager and lazy opens disagree on the section count".into());
                }
                for i in 0..lazy.sections().len() {
                    let (a, b) = (&eager.sections()[i], &lazy.sections()[i]);
                    if (a.kind, a.tag, a.offset, a.len, a.checksum)
                        != (b.kind, b.tag, b.offset, b.len, b.checksum)
                    {
                        return Err(format!("section {i} table entries differ between tiers"));
                    }
                    let bytes = lazy.payload_checked(i).map_err(|e| {
                        format!("eager-clean section {i} failed lazy verification: {e}")
                    })?;
                    if bytes != eager.payload(i) {
                        return Err(format!("section {i} payload bytes differ between tiers"));
                    }
                }
                if lazy.sections_verified() != lazy.sections().len() {
                    return Err("touch-all left sections unverified".into());
                }
                Ok(Outcome::Accepted)
            }
            (
                Err(StoreError::ChecksumMismatch {
                    section: Some(i), ..
                }),
                Ok(lazy),
            ) => {
                // payload corruption: the lazy open is O(header) and
                // must defer exactly this failure to the first touch
                for j in 0..i {
                    lazy.payload_checked(j).map_err(|e| {
                        format!("section {j} precedes corrupt section {i} but failed: {e}")
                    })?;
                }
                match lazy.payload_checked(i) {
                    Err(StoreError::ChecksumMismatch {
                        section: Some(s), ..
                    }) if s == i => Ok(Outcome::Rejected),
                    Err(other) => Err(format!(
                        "lazy touch of corrupt section {i} failed with the wrong error: {other}"
                    )),
                    Ok(_) => Err(format!("lazy touch of corrupt section {i} verified clean")),
                }
            }
            (Err(ee), Err(le)) => {
                let (a, b) = (ee.to_string(), le.to_string());
                if a.is_empty() || b.is_empty() {
                    return Err("store error with empty Display".into());
                }
                // the eager sweep interleaves payload checksums with the
                // structural walk, so a doubly-corrupt container may pin
                // a payload mismatch where the lazy tier (which skips
                // checksums) reports a later structural fault; any other
                // eager error comes from the shared structural code and
                // must match the lazy tier's exactly
                if !matches!(
                    ee,
                    StoreError::ChecksumMismatch {
                        section: Some(_),
                        ..
                    }
                ) && a != b
                {
                    return Err(format!(
                        "eager and lazy opens rejected differently: {a:?} vs {b:?}"
                    ));
                }
                Ok(Outcome::Rejected)
            }
            (Err(e), Ok(_)) => Err(format!(
                "eager open failed structurally ({e}) but the lazy open succeeded"
            )),
            (Ok(_), Err(e)) => Err(format!(
                "lazy open failed ({e}) where the eager parse succeeded"
            )),
        }
    }
}

// -------------------------------------------------------------- csbn-append

/// Appended-container parsing (`casbn_store::io::append_durable` + the
/// footer / superseding-table read path). The oracle: any container the
/// parser accepts must survive an empty durable re-append — the input
/// kept as a bit-exact prefix, generation advanced by exactly one,
/// layout flipped to appended, and every live section's
/// kind/tag/payload byte-identical through the new table.
struct AppendTarget;

impl Target for AppendTarget {
    fn name(&self) -> &'static str {
        "csbn-append"
    }

    fn generate(&mut self, rng: &mut FuzzRng) -> Vec<u8> {
        let mut w = StoreWriter::new();
        for _ in 0..rng.range(1, 3) {
            CsbnTarget::valid_section(&mut w, rng);
        }
        let mut bytes = w.to_bytes();
        for _ in 0..rng.range(1, 3) {
            let mut a = StoreWriter::new();
            for _ in 0..rng.below(3) {
                CsbnTarget::valid_section(&mut a, rng);
            }
            bytes = durable_append(&bytes, &a).expect("append to a valid container");
        }
        if rng.chance(2, 3) {
            let rounds = rng.range(1, 10);
            mutate(&mut bytes, rng, rounds);
        }
        bytes
    }

    fn run(&mut self, input: &[u8]) -> Result<Outcome, String> {
        let store = match Store::parse(input) {
            Err(e) => {
                if e.to_string().is_empty() {
                    return Err("store error with empty Display".into());
                }
                return Ok(Outcome::Rejected);
            }
            Ok(s) => s,
        };
        let grown = durable_append(input, &StoreWriter::new())
            .map_err(|e| format!("accepted container refused an empty append: {e}"))?;
        if !grown.starts_with(input) {
            return Err("empty append rewrote the previous generation".into());
        }
        let re =
            Store::parse(&grown).map_err(|e| format!("appended output failed to re-parse: {e}"))?;
        if !re.is_appended() || re.generation() != store.generation() + 1 {
            return Err(format!(
                "empty append went generation {} -> {} (appended: {})",
                store.generation(),
                re.generation(),
                re.is_appended()
            ));
        }
        if re.sections().len() != store.sections().len() {
            return Err("empty append changed the section count".into());
        }
        for i in 0..store.sections().len() {
            let (a, b) = (&store.sections()[i], &re.sections()[i]);
            if (a.kind, a.tag) != (b.kind, b.tag) || store.payload(i) != re.payload(i) {
                return Err(format!("empty append changed section {i}"));
            }
        }
        Ok(Outcome::Accepted)
    }
}

// --------------------------------------------------------------- csbn-crash

/// Crash-recovery surfaces (`Store::recover_prefix_len` +
/// `Store::open_degraded`) fuzzed over durably-grown containers with
/// torn tails, bit rot and arbitrary byte damage. The invariants:
///
/// 1. neither recovery surface ever panics, whatever the damage;
/// 2. a container the eager parse accepts recovers to its *full*
///    length and opens degraded-free — recovery must never shorten a
///    healthy file;
/// 3. a recovered prefix opens structurally and is a fixed point of
///    recovery (recovering it again returns the same length);
/// 4. a degraded open serves exactly its non-quarantined sections —
///    every quarantined section fails typed with `ChecksumMismatch`,
///    every other section reads clean.
struct CrashTarget;

impl Target for CrashTarget {
    fn name(&self) -> &'static str {
        "csbn-crash"
    }

    fn generate(&mut self, rng: &mut FuzzRng) -> Vec<u8> {
        use casbn_store::io::save_atomic;
        // grow a realistic durable container: an atomic base write plus
        // up to two in-place generation appends (the layout the crash
        // paths actually recover, gaps and superseded tables included)
        let fs = MemFs::new();
        let mut w = StoreWriter::new();
        for _ in 0..rng.range(1, 3) {
            CsbnTarget::valid_section(&mut w, rng);
        }
        save_atomic(&fs, "f.csbn", &w, RetryPolicy::default()).expect("memfs save");
        for _ in 0..rng.below(3) {
            let mut a = StoreWriter::new();
            if rng.chance(2, 3) {
                CsbnTarget::valid_section(&mut a, rng);
            }
            append_durable(&fs, "f.csbn", &a, RetryPolicy::default()).expect("memfs append");
        }
        let mut bytes = fs.live("f.csbn").expect("container written");
        match rng.below(4) {
            // clean: recovery must be the identity
            0 => {}
            // torn tail: the crash shape durable appends leave behind
            1 => {
                let cut = rng.below(bytes.len() + 1);
                bytes.truncate(cut);
            }
            // single-bit rot: structure intact, one checksum broken
            2 => {
                let bit = rng.below(bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            // generic byte mutators: header/table/footer attacks
            _ => {
                let rounds = rng.range(1, 10);
                mutate(&mut bytes, rng, rounds);
            }
        }
        bytes
    }

    fn run(&mut self, input: &[u8]) -> Result<Outcome, String> {
        use casbn_store::StoreError;
        let recovered = Store::recover_prefix_len(input);
        let degraded = Store::open_degraded(input);

        if let Ok(&len) = recovered.as_ref() {
            if len > input.len() {
                return Err(format!(
                    "recovery claimed {len} bytes of a {}-byte input",
                    input.len()
                ));
            }
            Store::open_lazy(&input[..len])
                .map_err(|e| format!("recovered prefix of {len} bytes failed to open: {e}"))?;
            match Store::recover_prefix_len(&input[..len]) {
                Ok(again) if again == len => {}
                other => {
                    return Err(format!(
                        "recovery is not a fixed point: {len} bytes re-recovered to {other:?}"
                    ))
                }
            }
        } else if let Err(e) = &recovered {
            if e.to_string().is_empty() {
                return Err("recovery error with empty Display".into());
            }
        }

        if Store::parse(input).is_ok() {
            // a healthy container: recovery is the identity and the
            // degraded open reports nothing degraded
            if !matches!(recovered.as_ref(), Ok(&len) if len == input.len()) {
                return Err(format!(
                    "clean {}-byte container recovered to {recovered:?}",
                    input.len()
                ));
            }
            let d = degraded.map_err(|e| format!("clean container failed degraded open: {e}"))?;
            if d.is_degraded() || d.quarantined_count() > 0 {
                return Err("clean container opened as degraded".into());
            }
            return Ok(Outcome::Accepted);
        }

        match degraded {
            Ok(d) => {
                if !d.is_degraded() {
                    return Err("damaged container opened degraded-free".into());
                }
                for i in 0..d.sections().len() {
                    match (d.section_quarantined(i), d.payload_checked(i)) {
                        (true, Err(StoreError::ChecksumMismatch { .. })) => {}
                        (true, Err(e)) => {
                            return Err(format!(
                                "quarantined section {i} failed with the wrong error: {e}"
                            ))
                        }
                        (true, Ok(_)) => return Err(format!("quarantined section {i} read clean")),
                        (false, Ok(_)) => {}
                        (false, Err(e)) => {
                            return Err(format!("non-quarantined section {i} failed to read: {e}"))
                        }
                    }
                }
                Ok(Outcome::Rejected)
            }
            Err(e) => {
                if e.to_string().is_empty() {
                    return Err("degraded-open error with empty Display".into());
                }
                if Store::open_lazy(input).is_ok() {
                    return Err("degraded open failed where the plain lazy open succeeded".into());
                }
                Ok(Outcome::Rejected)
            }
        }
    }
}

// -------------------------------------------------------- checkpoint-resume

/// Stream checkpoint containers (`StreamDriver::resume_from`) — the
/// long-lived daemon's most security-sensitive surface, because a
/// checkpoint smuggles *state*, not just data.
///
/// The oracle is the strict one from the differential suite: a
/// checkpoint either fails to resume with a typed error, or the resumed
/// driver replays the rest of the template stream to the uninterrupted
/// run's exact checksum.
struct CheckpointTarget {
    /// Template replay matrix (tiny YNG synthesis, pinned).
    matrix: ExpressionMatrix,
    /// Checksum of the uninterrupted template run.
    reference: u64,
    /// Pristine checkpoints taken at every interior window boundary.
    pristine: Vec<Vec<u8>>,
}

impl CheckpointTarget {
    fn new() -> CheckpointTarget {
        let matrix = synthesize_replay(DatasetPreset::Yng, 0.01, Some(8));
        let cfg = StreamConfig {
            batch: 2,
            ..Default::default()
        };
        let reference = StreamDriver::run(&matrix, cfg).checksum;
        let mut pristine = Vec::new();
        let mut driver = StreamDriver::new(matrix.genes(), cfg);
        let mut lo = 0;
        while lo < matrix.samples() {
            let hi = (lo + 2).min(matrix.samples());
            driver.ingest_window(&matrix.columns(lo, hi));
            lo = hi;
            if lo < matrix.samples() {
                pristine.push(Self::canonicalize(
                    &driver.checkpoint_bytes().expect("checkpoint serialises"),
                ));
            }
        }
        CheckpointTarget {
            matrix,
            reference,
            pristine,
        }
    }

    /// Zero the one non-deterministic field a checkpoint carries — the
    /// measured wall-clock nanoseconds of each window record — so the
    /// template bytes (and with them the whole iteration trace) are
    /// identical across machines and runs. The driver's checksum covers
    /// only the integer window metrics, so a zero wall time resumes and
    /// replays exactly like the original.
    fn canonicalize(bytes: &[u8]) -> Vec<u8> {
        let store = Store::parse(bytes).expect("pristine checkpoint must parse");
        let mut w = StoreWriter::new();
        for (i, entry) in store.sections().iter().enumerate() {
            let mut payload = store.payload(i).to_vec();
            if SectionKind::from_u32(entry.kind) == Some(SectionKind::DriverState) {
                // fixed driver fields: 72 bytes, then the stability-set
                // count + entries, then the window count and 88-byte
                // window records with the wall field in the last 8 bytes
                let nprev = u64::from_le_bytes(payload[72..80].try_into().unwrap()) as usize;
                let records = 80 + 4 * nprev + 8;
                let nwin =
                    u64::from_le_bytes(payload[records - 8..records].try_into().unwrap()) as usize;
                for k in 0..nwin {
                    let wall = records + 88 * k + 80;
                    payload[wall..wall + 8].fill(0);
                }
            }
            let kind = SectionKind::from_u32(entry.kind).expect("pristine kinds are known");
            w.add(kind, entry.tag, payload);
        }
        w.to_bytes()
    }

    /// Rebuild a pristine checkpoint with one section's payload bytes
    /// transformed — and every container checksum *recomputed*, so the
    /// tampering reaches the semantic validation layer instead of dying
    /// at the FNV gate.
    ///
    /// Every tamper targets a field the resume validation *checks*
    /// (counters, structure lengths, enum ranges, ordering invariants,
    /// finite accumulators and thresholds). Values validation
    /// legitimately cannot see — finite accumulator floats, clustering
    /// parameters, window history — are left alone: a plausible tampered
    /// accumulator is indistinguishable from a real one, so mutating it
    /// would make the replay-checksum oracle flag unfalsifiable
    /// "violations".
    fn tamper(&self, rng: &mut FuzzRng, base: &[u8]) -> Vec<u8> {
        let store = Store::parse(base).expect("pristine checkpoint must parse");
        let sections = store.sections();
        let by_kind = |kind: SectionKind| {
            sections
                .iter()
                .position(|e| e.kind == kind.as_u32())
                .expect("pristine checkpoint has every section kind")
        };
        let mode = rng.below(9);
        let victim = match mode {
            0 | 1 => rng.below(sections.len()),
            3 | 4 => by_kind(SectionKind::DriverState),
            5 | 6 => by_kind(SectionKind::ChordalState),
            _ => by_kind(SectionKind::OnlineCorrelation),
        };
        let mut w = StoreWriter::new();
        for (i, entry) in sections.iter().enumerate() {
            let mut payload = store.payload(i).to_vec();
            if i == victim {
                match mode {
                    // truncate any section at an 8-byte boundary: every
                    // decoder's declared lengths + `finish` must catch it
                    0 => {
                        let words = payload.len() / 8;
                        payload.truncate(8 * rng.below(words + 1));
                    }
                    // splice garbage past any section's end: `finish`
                    // must reject the trailing bytes
                    1 => {
                        let extra = 8 * rng.range(1, 4);
                        let mut tail = vec![0u8; extra];
                        rng.fill(&mut tail);
                        payload.extend_from_slice(&tail);
                    }
                    // clear the membership bit of a chordal-subgraph edge
                    // (if there is one): the network rebuilt from the
                    // bitset loses it, and the chordal ⊆ network check
                    // must catch that. The bitset is the payload's last
                    // array, one bit per pair of the row-major upper
                    // triangle.
                    2 => {
                        let edges = graph_store::load_csr(&store, CHECKPOINT_CHORDAL_TAG)
                            .expect("pristine chordal section loads")
                            .to_graph()
                            .edge_vec();
                        if !edges.is_empty() {
                            let (u, v) = edges[rng.below(edges.len())];
                            let genes =
                                u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
                            let (u, v) = (u as usize, v as usize);
                            let pairs = genes * (genes - 1) / 2;
                            let pair = u * (2 * genes - u - 1) / 2 + (v - u - 1);
                            let at = payload.len() - 8 * pairs.div_ceil(64) + 8 * (pair / 64);
                            let mut word =
                                u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
                            word &= !(1u64 << (pair % 64));
                            payload[at..at + 8].copy_from_slice(&word.to_le_bytes());
                        }
                    }
                    // zero batch size: explicitly validated
                    3 => payload[..8].fill(0),
                    // corrupt the stability set: entries must be
                    // ascending and < genes, so u32::MAX up front breaks
                    // one or the other whenever the set is non-empty
                    4 => {
                        let nprev = u64::from_le_bytes(payload[72..80].try_into().unwrap());
                        if nprev > 0 {
                            payload[80..84].copy_from_slice(&u32::MAX.to_le_bytes());
                        }
                    }
                    // out-of-range selection-rule discriminant
                    5 => {
                        let bad = 2 + (rng.u64() % 1000) as u32;
                        payload[..4].copy_from_slice(&bad.to_le_bytes());
                    }
                    // nonzero alignment spacer
                    6 => payload[4..8].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes()),
                    // inflate the gene count: every array length and the
                    // cross-section vertex-count checks depend on it
                    7 => {
                        let g = u64::from_le_bytes(payload[..8].try_into().unwrap());
                        payload[..8].copy_from_slice(&g.wrapping_add(1).to_le_bytes());
                    }
                    // poison one float: a threshold (min_rho, max_p at
                    // words 3 and 4) or an accumulator (mean, m2 and the
                    // co-moment triangle after them); the resume must
                    // reject the non-finite value, not replay from it
                    _ => {
                        let genes = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
                        let floats = 2 + 2 * genes + genes * genes.saturating_sub(1) / 2;
                        let at = 24 + 8 * rng.below(floats);
                        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3)];
                        payload[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                    }
                }
            }
            let kind = SectionKind::from_u32(entry.kind).expect("pristine kinds are known");
            w.add(kind, entry.tag, payload);
        }
        w.to_bytes()
    }
}

impl Target for CheckpointTarget {
    fn name(&self) -> &'static str {
        "checkpoint-resume"
    }

    fn generate(&mut self, rng: &mut FuzzRng) -> Vec<u8> {
        let base = &self.pristine[rng.below(self.pristine.len())];
        match rng.below(8) {
            // pristine: exercises the full resume → replay oracle
            0 => base.clone(),
            // semantically tampered but checksum-valid
            1..=3 => self.tamper(rng, base),
            // byte-mutated: hammers the checksum and framing layers
            _ => {
                let mut bytes = base.clone();
                let rounds = rng.range(1, 10);
                mutate(&mut bytes, rng, rounds);
                bytes
            }
        }
    }

    fn run(&mut self, input: &[u8]) -> Result<Outcome, String> {
        let store = match Store::parse(input) {
            Err(e) => {
                let _ = e.to_string();
                return Ok(Outcome::Rejected);
            }
            Ok(s) => s,
        };
        let mut driver = match StreamDriver::resume_from(&store) {
            Err(e) => {
                let msg = e.to_string();
                if msg.is_empty() {
                    return Err("resume error with empty Display".into());
                }
                return Ok(Outcome::Rejected);
            }
            Ok(d) => d,
        };
        // the resume was accepted: it must now replay to the
        // uninterrupted run's exact checksum
        if driver.genes() != self.matrix.genes() {
            return Err(format!(
                "resume accepted a checkpoint with {} genes (template has {})",
                driver.genes(),
                self.matrix.genes()
            ));
        }
        if driver.samples_ingested() > self.matrix.samples() {
            return Err(format!(
                "resume accepted a checkpoint {} samples into an {}-sample stream",
                driver.samples_ingested(),
                self.matrix.samples()
            ));
        }
        let batch = driver.config().batch;
        if batch == 0 {
            return Err("resume accepted a zero batch size".into());
        }
        let mut lo = driver.samples_ingested();
        while lo < self.matrix.samples() {
            let hi = (lo + batch).min(self.matrix.samples());
            driver.ingest_window(&self.matrix.columns(lo, hi));
            lo = hi;
        }
        let got = driver.checksum();
        if got != self.reference {
            return Err(format!(
                "accepted checkpoint diverged from the uninterrupted run: \
                 checksum {got} != {}",
                self.reference
            ));
        }
        Ok(Outcome::Accepted)
    }
}

// --------------------------------------------------------------- csbn-serve

/// The serve daemon's wire protocol (`casbn_serve::protocol`) — a
/// length-prefixed frame stream feeding the request decoder, the first
/// surface a *remote* peer reaches. The invariants:
///
/// 1. framing and decoding reject malformed input with a typed error —
///    never a panic, never an unbounded allocation (frame lengths and
///    gene counts are capped before any buffer is sized);
/// 2. every accepted request is **canonical**: decode → re-encode
///    reproduces the exact payload bytes, and the re-encoded frame
///    decodes back to an equal request — so a frame's bytes are a
///    unique spelling of its meaning (the property the pinned-script
///    response checksums rely on);
/// 3. the response decoder holds the same canonical oracle over
///    whatever payloads it accepts (a hostile server cannot desync a
///    scripted client without a typed error surfacing).
struct ServeTarget;

impl ServeTarget {
    /// A structurally valid request of a random kind.
    fn valid_request(rng: &mut FuzzRng) -> serve_protocol::Request {
        use serve_protocol::Request;
        match rng.below(6) {
            0 => Request::Neighborhood {
                gene: rng.below(4096) as u32,
            },
            1 => Request::ClusterOf {
                gene: rng.interesting_u64() as u32,
            },
            2 => Request::Rho {
                u: rng.below(4096) as u32,
                v: rng.interesting_u64() as u32,
            },
            3 => Request::Enrich {
                genes: (0..rng.below(12)).map(|_| rng.below(4096) as u32).collect(),
            },
            4 => Request::Stats,
            _ => Request::Ingest {
                windows: rng.range(1, 16) as u32,
            },
        }
    }
}

impl Target for ServeTarget {
    fn name(&self) -> &'static str {
        "csbn-serve"
    }

    fn generate(&mut self, rng: &mut FuzzRng) -> Vec<u8> {
        let mut bytes = Vec::new();
        for _ in 0..rng.below(5) {
            bytes.extend_from_slice(&Self::valid_request(rng).encode_frame());
        }
        if rng.chance(1, 6) {
            // a hostile header: an arbitrary length prefix over noise
            bytes.extend_from_slice(&(rng.interesting_u64() as u32).to_le_bytes());
            let mut tail = vec![0u8; rng.below(32)];
            rng.fill(&mut tail);
            bytes.extend_from_slice(&tail);
        }
        if rng.chance(1, 2) {
            let rounds = rng.range(1, 8);
            mutate(&mut bytes, rng, rounds);
        }
        bytes
    }

    fn run(&mut self, input: &[u8]) -> Result<Outcome, String> {
        use serve_protocol::{split_frame, Request, Response};
        let mut rest = input;
        let mut any_accepted = false;
        loop {
            let (payload, tail) = match split_frame(rest) {
                Err(e) => {
                    if e.to_string().is_empty() {
                        return Err("framing error with empty Display".into());
                    }
                    return Ok(Outcome::Rejected);
                }
                Ok(None) => break,
                Ok(Some(split)) => split,
            };
            match Request::decode_payload(payload) {
                Err(e) => {
                    if e.to_string().is_empty() {
                        return Err("request rejection with empty Display".into());
                    }
                    return Ok(Outcome::Rejected);
                }
                Ok(req) => {
                    // oracle: the payload is the canonical spelling
                    let re = req.encode_payload();
                    if re != payload {
                        return Err(format!(
                            "request decoded but did not re-encode identically \
                             ({} bytes in, {} bytes out)",
                            payload.len(),
                            re.len()
                        ));
                    }
                    let back = Request::decode_payload(&re)
                        .map_err(|e| format!("re-encoded request rejected: {e}"))?;
                    if back != req {
                        return Err("request round-trip changed the request".into());
                    }
                    any_accepted = true;
                }
            }
            // the response decoder shares the payload grammar's
            // canonical-oracle obligation over whatever it accepts
            match Response::decode_payload(payload) {
                Ok(resp) => {
                    if resp.encode_payload() != payload {
                        return Err("response decoded but did not re-encode identically".into());
                    }
                }
                Err(e) => {
                    if e.to_string().is_empty() {
                        return Err("response rejection with empty Display".into());
                    }
                }
            }
            rest = tail;
        }
        Ok(if any_accepted {
            Outcome::Accepted
        } else {
            Outcome::Rejected
        })
    }
}

// ----------------------------------------------------------------- cli-argv

/// CLI argv vectors, encoded one token per `\n`-separated line. The
/// driver and vocabulary are injected by `casbn_cli` (see
/// [`ArgvSurface`]).
struct ArgvTarget {
    check: ArgvCheck,
    /// The CLI's subcommands plus names it must reject or print help for.
    subcommands: Vec<&'static str>,
    /// The CLI's flags plus malformed flag tokens.
    flags: Vec<String>,
}

impl ArgvTarget {
    fn new(argv: ArgvSurface) -> ArgvTarget {
        let mut subcommands = argv.subcommands;
        subcommands.extend(["help", "frobnicate"]);
        let mut flags = argv.flags;
        flags.extend(["--help", "--", "---x", "--=", "--in=x.tsv"].map(String::from));
        ArgvTarget {
            check: argv.check,
            subcommands,
            flags,
        }
    }
}

/// Decode a corpus/fuzz input into an argv vector: newline-separated
/// tokens, lossy UTF-8, trailing empty line dropped (text editors add
/// one to committed corpus files).
pub fn decode_argv(input: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(input);
    let mut tokens: Vec<String> = text.split('\n').map(str::to_string).collect();
    if tokens.last().is_some_and(String::is_empty) {
        tokens.pop();
    }
    tokens
}

impl Target for ArgvTarget {
    fn name(&self) -> &'static str {
        "cli-argv"
    }

    fn generate(&mut self, rng: &mut FuzzRng) -> Vec<u8> {
        const VALUES: &[&str] = &[
            "0",
            "1",
            "8",
            "-1",
            "0.5",
            "1e999",
            "18446744073709551616",
            "yng",
            "cre",
            "chordal-seq",
            "block",
            "x.tsv",
            "out.csbn",
            "all",
            "edge-list",
            "",
            " ",
            "véctor",
            "nan",
        ];
        let mut tokens: Vec<String> = Vec::new();
        if rng.chance(5, 6) {
            tokens.push(rng.pick(&self.subcommands).to_string());
        }
        for _ in 0..rng.below(10) {
            if rng.chance(2, 3) {
                tokens.push(rng.pick(&self.flags).clone());
            } else {
                tokens.push(rng.pick(VALUES).to_string());
            }
        }
        let mut bytes = tokens.join("\n").into_bytes();
        if rng.chance(1, 3) {
            let rounds = rng.range(1, 6);
            mutate(&mut bytes, rng, rounds);
        }
        bytes
    }

    fn run(&mut self, input: &[u8]) -> Result<Outcome, String> {
        let argv = decode_argv(input);
        match (self.check)(&argv) {
            Ok(()) => Ok(Outcome::Accepted),
            Err(msg) => {
                if msg.is_empty() {
                    return Err("argv rejection with an empty diagnostic".into());
                }
                Ok(Outcome::Rejected)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_check(_: &[String]) -> Result<(), String> {
        Ok(())
    }

    #[test]
    fn registry_names_are_stable() {
        let argv = ArgvSurface {
            check: no_check,
            subcommands: vec!["stats"],
            flags: vec!["--in".into()],
        };
        let names: Vec<&str> = all_targets(argv).iter().map(|t| t.name()).collect();
        assert_eq!(names, TARGET_NAMES.to_vec());
    }

    #[test]
    fn generators_are_deterministic() {
        for (a, b) in builtin_targets()
            .iter_mut()
            .zip(builtin_targets().iter_mut())
        {
            let mut r1 = FuzzRng::for_iteration(11, a.name(), 5);
            let mut r2 = FuzzRng::for_iteration(11, b.name(), 5);
            assert_eq!(a.generate(&mut r1), b.generate(&mut r2), "{}", a.name());
        }
    }

    #[test]
    fn valid_inputs_are_accepted_with_oracles_held() {
        let mut rng = FuzzRng::for_iteration(0, "unit", 0);
        // a well-formed edge list
        let mut t = EdgeListTarget;
        assert_eq!(t.run(b"0 1\n1 2 0.5\n# c\n").unwrap(), Outcome::Accepted);
        assert_eq!(t.run(b"not an edge\n").unwrap(), Outcome::Rejected);
        // a well-formed replay
        let mut t = ReplayTarget;
        assert_eq!(t.run(b"1 2 3\n4 5 6\n").unwrap(), Outcome::Accepted);
        assert_eq!(t.run(b"1 2\n3\n").unwrap(), Outcome::Rejected);
        // a well-formed container
        let mut w = StoreWriter::new();
        CsbnTarget::valid_section(&mut w, &mut rng);
        let mut t = CsbnTarget;
        assert_eq!(t.run(&w.to_bytes()).unwrap(), Outcome::Accepted);
        assert_eq!(t.run(b"plain text").unwrap(), Outcome::Rejected);
    }

    #[test]
    fn crash_target_oracles_hold_on_handcrafted_damage() {
        let mut rng = FuzzRng::for_iteration(0, "unit", 1);
        let mut w = StoreWriter::new();
        CsbnTarget::valid_section(&mut w, &mut rng);
        let clean = w.to_bytes();
        let mut t = CrashTarget;
        // a clean container is accepted (recovery is the identity)
        assert_eq!(t.run(&clean).unwrap(), Outcome::Accepted);
        // a torn tail is rejected-but-recovered, never an oracle error
        assert_eq!(t.run(&clean[..clean.len() - 5]).unwrap(), Outcome::Rejected);
        // bit rot in a payload quarantines, serves the rest
        let mut rotten = clean.clone();
        let last = rotten.len() - 1;
        rotten[last] ^= 0x40;
        assert_eq!(t.run(&rotten).unwrap(), Outcome::Rejected);
        // garbage is a typed rejection
        assert_eq!(t.run(b"garbage").unwrap(), Outcome::Rejected);
    }

    #[test]
    fn pristine_checkpoints_replay_to_the_reference_checksum() {
        let mut t = CheckpointTarget::new();
        let pristine = t.pristine.clone();
        for ck in &pristine {
            assert_eq!(t.run(ck).unwrap(), Outcome::Accepted);
        }
        // truncated checkpoint: typed rejection
        let cut = &pristine[0][..pristine[0].len() - 3];
        assert_eq!(t.run(cut).unwrap(), Outcome::Rejected);
    }

    #[test]
    fn serve_target_oracles_hold_on_handcrafted_frames() {
        use serve_protocol::Request;
        let mut t = ServeTarget;
        // a clean multi-request stream is accepted
        let mut stream = Vec::new();
        for req in [
            Request::Stats,
            Request::Neighborhood { gene: 3 },
            Request::Enrich {
                genes: vec![0, 1, 2],
            },
            Request::Ingest { windows: 2 },
        ] {
            stream.extend_from_slice(&req.encode_frame());
        }
        assert_eq!(t.run(&stream).unwrap(), Outcome::Accepted);
        // typed rejections: empty, unknown opcode, oversize length,
        // truncated frame, over-cap enrich count
        assert_eq!(t.run(b"").unwrap(), Outcome::Rejected);
        assert_eq!(t.run(&[4, 0, 0, 0, 9, 0, 0, 0]).unwrap(), Outcome::Rejected);
        assert_eq!(t.run(&[0xff, 0xff, 0xff, 0xff]).unwrap(), Outcome::Rejected);
        assert_eq!(t.run(&[8, 0, 0, 0, 1, 0, 0, 0]).unwrap(), Outcome::Rejected);
        assert_eq!(
            t.run(&[8, 0, 0, 0, 4, 0, 0, 0, 0xff, 0xff, 0, 0]).unwrap(),
            Outcome::Rejected
        );
        // a valid frame with trailing garbage rejects at the tail but
        // never panics
        let mut tail = Request::Stats.encode_frame();
        tail.extend_from_slice(&[9, 9]);
        assert_eq!(t.run(&tail).unwrap(), Outcome::Rejected);
    }

    #[test]
    fn argv_decode_drops_only_the_trailing_newline() {
        assert_eq!(decode_argv(b"a\nb\n"), vec!["a", "b"]);
        assert_eq!(decode_argv(b"a\n\nb"), vec!["a", "", "b"]);
        assert_eq!(decode_argv(b""), Vec::<String>::new());
    }
}
