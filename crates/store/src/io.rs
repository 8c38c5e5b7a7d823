//! Durable artifact I/O: every `.csbn` (and every other CLI artifact)
//! reaches disk through this module instead of a bare `std::fs::write`,
//! so a crash, `ENOSPC` or torn write at *any* syscall boundary leaves
//! either the previous artifact or the new one — never a half-written
//! file that poisons later runs.
//!
//! # The two write protocols
//!
//! **Atomic replace** ([`ArtifactFile`] / [`write_atomic`]): the bytes
//! go to `path.tmp`, the *file* is fsynced, the tmp is renamed over
//! `path`, and the *parent directory* is fsynced. The rename is the
//! commit point; a crash on either side of it resolves to exactly one
//! complete artifact.
//!
//! ```text
//! write path.tmp → fsync(file) → rename(path.tmp, path) → fsync(dir)
//!                  └ payload durable ┘└ name durable ────────────────┘
//! ```
//!
//! **Durable append** ([`append_durable`]): a checkpoint generation is
//! appended *after* the current file end (the previous table and footer
//! are left in place as an unreferenced gap), and the new payloads +
//! superseding table are fsynced *before* the 40-byte footer is
//! written:
//!
//! ```text
//! append payloads + table → fsync → append footer → fsync
//! └ new generation staged ──────┘   └ commit point ──────┘
//! ```
//!
//! The footer is the only thing that makes readers see the new
//! generation, and it is never issued until everything it references is
//! durable — so any tear resolves to the prior generation via
//! [`Store::recover_prefix_len`](crate::Store::recover_prefix_len).
//!
//! # Fault injection
//!
//! The protocols run against a small [`Vfs`] trait. [`RealFs`] is the
//! production backend; [`MemFs`] models an OS page cache (written bytes
//! are *pending* until fsync) and can materialize deterministic
//! post-crash images; [`FaultFs`] wraps it with a ChaCha8-seeded plan
//! injecting short writes, `ENOSPC`, transient `EINTR`/`EAGAIN`, and a
//! "crash here" cut at any syscall index — which is what the
//! crash-point matrix tests iterate over.
//!
//! Transient errors are absorbed by a bounded, deterministic retry: a
//! fixed budget of `MAX_RETRIES` (4) retries per operation, no
//! wall-clock backoff, and every retry charged to the `io.retries`
//! telemetry counter (successful fsyncs to `io.fsyncs`).

use crate::error::StoreError;
use crate::reader::Store;
use crate::writer::StoreWriter;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::io;
use std::sync::Mutex;

/// An open writable file behind a [`Vfs`] backend. Writes append at the
/// current end and may be short (fewer bytes accepted than offered),
/// exactly like the POSIX `write(2)` they model.
pub trait VfsFile {
    /// Append up to `buf.len()` bytes; returns how many were accepted.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Flush this file's written bytes to durable storage (`fsync`).
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem seam the durable-write protocols run against: the
/// five operations atomic replace and durable append need, no more.
pub trait Vfs {
    /// Read a whole file.
    fn read(&self, path: &str) -> io::Result<Vec<u8>>;
    /// Create (truncating) a file for writing.
    fn create(&self, path: &str) -> io::Result<Box<dyn VfsFile + '_>>;
    /// Open an existing file for appending at its end.
    fn open_append(&self, path: &str) -> io::Result<Box<dyn VfsFile + '_>>;
    /// Atomically rename `from` over `to` (the commit point of
    /// [`write_atomic`]). Durable only after [`Vfs::sync_parent`].
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
    /// Remove a file (best-effort tmp cleanup).
    fn remove(&self, path: &str) -> io::Result<()>;
    /// Truncate a file to `len` bytes (recovery discarding a torn tail).
    fn truncate(&self, path: &str, len: u64) -> io::Result<()>;
    /// Fsync the directory containing `path`, making renames/creates/
    /// removes of its entries durable.
    fn sync_parent(&self, path: &str) -> io::Result<()>;
    /// Whether `path` currently exists.
    fn exists(&self, path: &str) -> bool;
}

/// Whether an I/O error is in the transient class the bounded retry
/// absorbs (`EINTR`/`EAGAIN`), as opposed to a real failure like
/// `ENOSPC`.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
    )
}

/// Transient-error retries allowed per operation before the error is
/// surfaced. There is deliberately no wall-clock backoff: each retry is
/// charged to the `io.retries` counter, so behavior (and telemetry) is
/// bit-identical across machines and runs.
const MAX_RETRIES: u32 = 4;

/// Run `op`, absorbing up to [`MAX_RETRIES`] transient errors.
fn retry<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempts = 0u32;
    loop {
        match op() {
            Ok(x) => return Ok(x),
            Err(e) if is_transient(&e) && attempts < MAX_RETRIES => {
                attempts += 1;
                casbn_obs::counter_inc("io.retries");
            }
            Err(e) => return Err(e),
        }
    }
}

/// Fsync within the retry budget, charging `io.fsyncs`.
fn sync_counted(f: &mut dyn VfsFile) -> io::Result<()> {
    retry(|| f.sync())?;
    casbn_obs::counter_inc("io.fsyncs");
    Ok(())
}

/// Write all of `buf`, looping over short writes and retrying
/// transients within the budget.
fn write_all(f: &mut dyn VfsFile, buf: &[u8]) -> io::Result<()> {
    let mut at = 0;
    while at < buf.len() {
        let n = retry(|| f.write(&buf[at..]))?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "file accepted 0 bytes",
            ));
        }
        at += n;
    }
    Ok(())
}

const PAD: [u8; 8] = [0u8; 8];

// ---------------------------------------------------------------------------
// atomic replace
// ---------------------------------------------------------------------------

/// An artifact being written atomically: bytes stream into `path.tmp`,
/// and [`ArtifactFile::commit`] runs the fsync → rename → dir-fsync
/// sequence that makes `path` flip from the old artifact to the new one
/// in a single step. Dropping without committing removes the tmp file.
pub struct ArtifactFile<'a> {
    fs: &'a dyn Vfs,
    path: String,
    tmp: String,
    file: Option<Box<dyn VfsFile + 'a>>,
    committed: bool,
}

impl<'a> ArtifactFile<'a> {
    /// Start an atomic write of `path` (the bytes land in `path.tmp`
    /// until commit).
    pub fn create(fs: &'a dyn Vfs, path: &str) -> Result<ArtifactFile<'a>, StoreError> {
        let tmp = format!("{path}.tmp");
        let file = retry(|| fs.create(&tmp))?;
        Ok(ArtifactFile {
            fs,
            path: path.to_string(),
            tmp,
            file: Some(file),
            committed: false,
        })
    }

    /// Append `buf` to the pending artifact.
    pub fn write_all(&mut self, buf: &[u8]) -> Result<(), StoreError> {
        let f = self.file.as_mut().expect("file open until drop");
        write_all(f.as_mut(), buf)?;
        Ok(())
    }

    /// Commit: fsync the tmp file, rename it over the destination, and
    /// fsync the parent directory. After this returns, the new artifact
    /// is durable under its final name.
    pub fn commit(mut self) -> Result<(), StoreError> {
        {
            let f = self.file.as_mut().expect("file open until drop");
            sync_counted(f.as_mut())?;
        }
        self.file = None;
        retry(|| self.fs.rename(&self.tmp, &self.path))?;
        retry(|| self.fs.sync_parent(&self.path))?;
        casbn_obs::counter_inc("io.fsyncs");
        self.committed = true;
        Ok(())
    }
}

impl Drop for ArtifactFile<'_> {
    fn drop(&mut self) {
        if !self.committed {
            self.file = None;
            let _ = self.fs.remove(&self.tmp);
        }
    }
}

/// Atomically replace `path` with `bytes` (see [`ArtifactFile`]).
pub fn write_atomic(fs: &dyn Vfs, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
    let mut f = ArtifactFile::create(fs, path)?;
    f.write_all(bytes)?;
    f.commit()
}

/// Atomically write a [`StoreWriter`]'s container to `path`, streaming
/// the header + table buffer and then each section payload straight
/// into the tmp file — the container is never materialized as one
/// contiguous allocation.
pub fn save_atomic(fs: &dyn Vfs, path: &str, w: &StoreWriter) -> Result<(), StoreError> {
    let mut f = ArtifactFile::create(fs, path)?;
    f.write_all(&w.header_and_table()?)?;
    for payload in w.payloads() {
        f.write_all(payload)?;
        f.write_all(&PAD[..crate::align8(payload.len()) - payload.len()])?;
    }
    f.commit()
}

// ---------------------------------------------------------------------------
// durable append
// ---------------------------------------------------------------------------

/// What [`append_durable`] did to the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Footer generation the file now carries.
    pub generation: u64,
    /// Bytes of torn tail discarded before appending (0 when the file
    /// was clean). Each recovery also bumps the
    /// `io.recovered_generation` counter.
    pub recovered_bytes: u64,
}

/// Append `w`'s sections to the container at `path` as a new durable
/// generation.
///
/// The new generation goes strictly *after* the current end of file,
/// preserving the previous generation's table and footer as an
/// unreferenced gap, and the writes are ordered so the footer —
/// the commit point — is only issued once the payloads and table it
/// references are fsynced. A torn file from an earlier crash is first
/// resolved to its newest valid generation (truncating the torn tail)
/// before appending.
pub fn append_durable(
    fs: &dyn Vfs,
    path: &str,
    w: &StoreWriter,
) -> Result<AppendOutcome, StoreError> {
    let mut base = retry(|| fs.read(path))?;
    let mut recovered_bytes = 0u64;
    if Store::open_lazy(&base).is_err() {
        // torn tail from an earlier crash: resolve to the newest valid
        // generation and discard the tail so appended offsets stay
        // 8-aligned and gap-free past the file end
        let keep = Store::recover_prefix_len(&base)?;
        recovered_bytes = (base.len() - keep) as u64;
        casbn_obs::counter_inc("io.recovered_generation");
        retry(|| fs.truncate(path, keep as u64))?;
        base.truncate(keep);
    }
    let tail = w.append_tail(&base)?;
    let mut f = retry(|| fs.open_append(path))?;
    // stage the new generation: payloads, padding, superseding table …
    for payload in w.payloads() {
        write_all(f.as_mut(), payload)?;
        write_all(
            f.as_mut(),
            &PAD[..crate::align8(payload.len()) - payload.len()],
        )?;
    }
    write_all(f.as_mut(), &tail.table)?;
    // … make it durable *before* the footer names it …
    sync_counted(f.as_mut())?;
    // … then commit with the footer
    write_all(f.as_mut(), &tail.footer)?;
    sync_counted(f.as_mut())?;
    Ok(AppendOutcome {
        generation: tail.generation,
        recovered_bytes,
    })
}

// ---------------------------------------------------------------------------
// RealFs
// ---------------------------------------------------------------------------

/// The production [`Vfs`]: `std::fs`, with directory fsyncs for
/// rename durability.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealFs;

struct RealFile(std::fs::File);

impl VfsFile for RealFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(&mut self.0, buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Vfs for RealFs {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn create(&self, path: &str) -> io::Result<Box<dyn VfsFile + '_>> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }
    fn open_append(&self, path: &str) -> io::Result<Box<dyn VfsFile + '_>> {
        let f = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(Box::new(RealFile(f)))
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove(&self, path: &str) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn truncate(&self, path: &str, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()
    }
    fn sync_parent(&self, path: &str) -> io::Result<()> {
        let parent = match std::path::Path::new(path).parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => std::path::PathBuf::from("."),
        };
        // a directory opens read-only; syncing it flushes the entry
        // metadata (rename/create/remove) of its children
        match std::fs::File::open(&parent) {
            Ok(d) => d.sync_all(),
            // some filesystems refuse directory opens; the rename is
            // still atomic, only its durability timing is weakened
            Err(_) => Ok(()),
        }
    }
    fn exists(&self, path: &str) -> bool {
        std::fs::metadata(path).is_ok()
    }
}

// ---------------------------------------------------------------------------
// MemFs — page-cache model with deterministic crash images
// ---------------------------------------------------------------------------

/// How much of the un-fsynced page cache reached disk at the simulated
/// crash. The write protocols must recover under **all** policies: a
/// correct fsync ordering makes the durable state independent of what
/// the kernel happened to flush.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashFlush {
    /// Nothing un-synced survived: files hold their last-fsynced bytes
    /// and un-synced directory operations (rename/create/remove) are
    /// undone.
    None,
    /// Everything issued before the cut survived — the aggressive
    /// writeback case where even never-synced bytes reached disk.
    All,
    /// Like [`CrashFlush::All`], but the last write is torn to a
    /// half-length prefix — the torn-page case.
    Torn,
}

/// One pending (written but not fsynced) mutation of a file's bytes.
#[derive(Clone, Debug)]
enum Rec {
    /// Bytes appended at the then-current end.
    Write(Vec<u8>),
    /// File truncated to this length.
    SetLen(usize),
}

#[derive(Clone, Debug, Default)]
struct Node {
    /// Bytes visible to the running process.
    cache: Vec<u8>,
    /// Bytes as of the last fsync; `None` for a never-synced file.
    durable: Option<Vec<u8>>,
    /// Un-synced mutations since the last fsync, with global op ids.
    records: Vec<(u64, Rec)>,
}

/// Un-synced directory-namespace operation (durable only after
/// [`Vfs::sync_parent`]); each carries the node it displaced so a
/// crash image can undo it.
#[derive(Clone, Debug)]
enum DirOp {
    Create {
        path: String,
        displaced: Option<Node>,
    },
    Rename {
        from: String,
        to: String,
        displaced: Option<Node>,
    },
    Remove {
        path: String,
        node: Node,
    },
}

#[derive(Debug, Default)]
struct MemInner {
    files: BTreeMap<String, Node>,
    pending_dir: Vec<DirOp>,
    next_op: u64,
}

/// In-memory [`Vfs`] that models the durability gap between a write
/// and its fsync: written bytes and directory operations are *pending*
/// until the matching `sync`/`sync_parent`, and
/// [`MemFs::crash_image`] materializes the deterministic post-crash
/// filesystem under each [`CrashFlush`] policy.
#[derive(Debug, Default)]
pub struct MemFs {
    inner: Mutex<MemInner>,
}

struct MemFile<'a> {
    fs: &'a MemFs,
    path: String,
}

impl MemFs {
    /// An empty in-memory filesystem.
    pub fn new() -> MemFs {
        MemFs::default()
    }

    /// Seed a file as already durable (as if written and fsynced long
    /// ago).
    pub fn install(&self, path: &str, bytes: &[u8]) {
        let mut g = self.inner.lock().expect("memfs lock");
        g.files.insert(
            path.to_string(),
            Node {
                cache: bytes.to_vec(),
                durable: Some(bytes.to_vec()),
                records: Vec::new(),
            },
        );
    }

    /// The live (process-visible) bytes of `path`.
    pub fn live(&self, path: &str) -> Option<Vec<u8>> {
        let g = self.inner.lock().expect("memfs lock");
        g.files.get(path).map(|n| n.cache.clone())
    }

    /// The deterministic filesystem contents after a crash under
    /// `flush`: path → surviving bytes.
    pub fn crash_image(&self, flush: CrashFlush) -> BTreeMap<String, Vec<u8>> {
        let g = self.inner.lock().expect("memfs lock");
        match flush {
            CrashFlush::None => {
                // undo un-synced namespace ops, newest first, then keep
                // each node's last-fsynced bytes
                let mut files = g.files.clone();
                for op in g.pending_dir.iter().rev() {
                    match op {
                        DirOp::Create { path, displaced } => {
                            files.remove(path);
                            if let Some(d) = displaced {
                                files.insert(path.clone(), d.clone());
                            }
                        }
                        DirOp::Rename {
                            from,
                            to,
                            displaced,
                        } => {
                            if let Some(n) = files.remove(to) {
                                files.insert(from.clone(), n);
                            }
                            if let Some(d) = displaced {
                                files.insert(to.clone(), d.clone());
                            }
                        }
                        DirOp::Remove { path, node } => {
                            files.insert(path.clone(), node.clone());
                        }
                    }
                }
                files
                    .into_iter()
                    .filter_map(|(p, n)| n.durable.map(|d| (p, d)))
                    .collect()
            }
            CrashFlush::All | CrashFlush::Torn => {
                // namespace ops applied; every pending write flushed —
                // under Torn the globally-last write survives only as a
                // half-length prefix
                let torn_id = match flush {
                    CrashFlush::Torn => g
                        .files
                        .values()
                        .flat_map(|n| n.records.iter())
                        .map(|(id, _)| *id)
                        .max(),
                    _ => None,
                };
                g.files
                    .iter()
                    .map(|(p, n)| {
                        let mut bytes = n.durable.clone().unwrap_or_default();
                        for (id, rec) in &n.records {
                            match rec {
                                Rec::Write(data) if Some(*id) == torn_id => {
                                    bytes.extend_from_slice(&data[..data.len() / 2]);
                                }
                                Rec::Write(data) => bytes.extend_from_slice(data),
                                Rec::SetLen(len) => bytes.truncate(*len),
                            }
                        }
                        (p.clone(), bytes)
                    })
                    .collect()
            }
        }
    }

    fn push_write(&self, path: &str, data: &[u8]) -> io::Result<usize> {
        let mut g = self.inner.lock().expect("memfs lock");
        g.next_op += 1;
        let id = g.next_op;
        let node = g
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{path}: no file")))?;
        node.cache.extend_from_slice(data);
        node.records.push((id, Rec::Write(data.to_vec())));
        Ok(data.len())
    }

    fn do_sync(&self, path: &str) -> io::Result<()> {
        let mut g = self.inner.lock().expect("memfs lock");
        let node = g
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{path}: no file")))?;
        node.durable = Some(node.cache.clone());
        node.records.clear();
        Ok(())
    }
}

impl VfsFile for MemFile<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.fs.push_write(&self.path, buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.fs.do_sync(&self.path)
    }
}

impl Vfs for MemFs {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        self.live(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{path}: no file")))
    }
    fn create(&self, path: &str) -> io::Result<Box<dyn VfsFile + '_>> {
        let mut g = self.inner.lock().expect("memfs lock");
        let displaced = g.files.insert(path.to_string(), Node::default());
        g.pending_dir.push(DirOp::Create {
            path: path.to_string(),
            displaced,
        });
        Ok(Box::new(MemFile {
            fs: self,
            path: path.to_string(),
        }))
    }
    fn open_append(&self, path: &str) -> io::Result<Box<dyn VfsFile + '_>> {
        let g = self.inner.lock().expect("memfs lock");
        if !g.files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{path}: no file"),
            ));
        }
        Ok(Box::new(MemFile {
            fs: self,
            path: path.to_string(),
        }))
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut g = self.inner.lock().expect("memfs lock");
        let node = g
            .files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{from}: no file")))?;
        let displaced = g.files.insert(to.to_string(), node);
        g.pending_dir.push(DirOp::Rename {
            from: from.to_string(),
            to: to.to_string(),
            displaced,
        });
        Ok(())
    }
    fn remove(&self, path: &str) -> io::Result<()> {
        let mut g = self.inner.lock().expect("memfs lock");
        let node = g
            .files
            .remove(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{path}: no file")))?;
        g.pending_dir.push(DirOp::Remove {
            path: path.to_string(),
            node,
        });
        Ok(())
    }
    fn truncate(&self, path: &str, len: u64) -> io::Result<()> {
        let mut g = self.inner.lock().expect("memfs lock");
        g.next_op += 1;
        let id = g.next_op;
        let node = g
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{path}: no file")))?;
        let len = usize::try_from(len).expect("truncate length fits usize");
        node.cache.truncate(len);
        node.records.push((id, Rec::SetLen(len)));
        Ok(())
    }
    fn sync_parent(&self, _path: &str) -> io::Result<()> {
        let mut g = self.inner.lock().expect("memfs lock");
        g.pending_dir.clear();
        Ok(())
    }
    fn exists(&self, path: &str) -> bool {
        let g = self.inner.lock().expect("memfs lock");
        g.files.contains_key(path)
    }
}

// ---------------------------------------------------------------------------
// FaultFs — deterministic fault injection over MemFs
// ---------------------------------------------------------------------------

/// Deterministic fault plan for a [`FaultFs`], seeded by ChaCha8.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultConfig {
    /// ChaCha8 seed deciding short writes, tear lengths and transient
    /// kinds.
    pub seed: u64,
    /// Kill the filesystem at this 1-based mutating-syscall index: the
    /// op fails (a write applies a deterministic partial prefix first)
    /// and every later call fails. `None` disables crashing.
    pub crash_at_op: Option<u64>,
    /// Percent of writes accepted only partially (short writes).
    pub short_write_pct: u8,
    /// Percent of mutating ops failing `EINTR`/`EAGAIN` (side-effect
    /// free; the bounded retry's food).
    pub transient_pct: u8,
    /// From this 1-based write index on, every write fails `ENOSPC`.
    pub enospc_from_write: Option<u64>,
}

#[derive(Debug)]
struct FaultState {
    rng: ChaCha8Rng,
    ops: u64,
    writes: u64,
    crashed: bool,
}

/// A [`MemFs`] wrapped in a deterministic fault injector: short writes,
/// `ENOSPC`, transient `EINTR`/`EAGAIN`, and a crash cut at any
/// mutating-syscall index (see [`FaultConfig`]). After the crash, every
/// operation fails and [`MemFs::crash_image`] on [`FaultFs::fs`] yields
/// the surviving disk states.
#[derive(Debug)]
pub struct FaultFs {
    mem: MemFs,
    cfg: FaultConfig,
    state: Mutex<FaultState>,
}

/// The error kind a [`FaultFs`] crash cut surfaces as.
pub const CRASH_MSG: &str = "simulated crash: filesystem gone";

impl FaultFs {
    /// A fault-injecting filesystem over an empty [`MemFs`].
    pub fn new(cfg: FaultConfig) -> FaultFs {
        FaultFs {
            mem: MemFs::new(),
            cfg,
            state: Mutex::new(FaultState {
                rng: ChaCha8Rng::seed_from_u64(cfg.seed),
                ops: 0,
                writes: 0,
                crashed: false,
            }),
        }
    }

    /// The underlying [`MemFs`] (crash images, seeding, live reads).
    pub fn fs(&self) -> &MemFs {
        &self.mem
    }

    /// Mutating syscalls issued so far — run a workload once with
    /// `crash_at_op: None` to size the crash matrix.
    pub fn ops_issued(&self) -> u64 {
        self.state.lock().expect("faultfs lock").ops
    }

    /// Whether the crash cut has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("faultfs lock").crashed
    }

    fn crash_err() -> io::Error {
        io::Error::other(CRASH_MSG)
    }

    /// Gate one mutating syscall: ticks the op counter and decides
    /// crash / transient. Returns the op index for write-specific
    /// faults.
    fn gate(&self, is_write: bool) -> io::Result<GateOutcome> {
        let mut st = self.state.lock().expect("faultfs lock");
        if st.crashed {
            return Err(FaultFs::crash_err());
        }
        st.ops += 1;
        if is_write {
            st.writes += 1;
        }
        if self.cfg.crash_at_op == Some(st.ops) {
            st.crashed = true;
            let tear = if is_write {
                // the in-flight write reaches the page cache as a
                // deterministic partial prefix (fraction in 0..=100%)
                Some(st.rng.gen_range(0..=100u32))
            } else {
                None
            };
            return Ok(GateOutcome::Crash { tear_pct: tear });
        }
        if self.cfg.transient_pct > 0 && st.rng.gen_range(0..100u8) < self.cfg.transient_pct {
            let kind = if st.rng.next_u32() & 1 == 0 {
                io::ErrorKind::Interrupted
            } else {
                io::ErrorKind::WouldBlock
            };
            return Err(io::Error::new(kind, "injected transient"));
        }
        if is_write {
            if let Some(from) = self.cfg.enospc_from_write {
                if st.writes >= from {
                    return Err(io::Error::other("injected ENOSPC: no space left on device"));
                }
            }
            if self.cfg.short_write_pct > 0 && st.rng.gen_range(0..100u8) < self.cfg.short_write_pct
            {
                return Ok(GateOutcome::Short);
            }
        }
        Ok(GateOutcome::Proceed)
    }
}

enum GateOutcome {
    Proceed,
    /// Accept only part of the buffer.
    Short,
    /// Crash cut: apply `tear_pct` of an in-flight write, then die.
    Crash {
        tear_pct: Option<u32>,
    },
}

struct FaultFile<'a> {
    fs: &'a FaultFs,
    inner: Box<dyn VfsFile + 'a>,
}

impl VfsFile for FaultFile<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.fs.gate(true)? {
            GateOutcome::Proceed => self.inner.write(buf),
            GateOutcome::Short => {
                let n = (buf.len() / 2).max(usize::from(buf.len() == 1));
                if n == 0 {
                    // an empty write cannot be shortened
                    return self.inner.write(buf);
                }
                self.inner.write(&buf[..n])
            }
            GateOutcome::Crash { tear_pct } => {
                let pct = tear_pct.unwrap_or(0) as usize;
                let n = buf.len() * pct / 100;
                if n > 0 {
                    let _ = self.inner.write(&buf[..n]);
                }
                Err(FaultFs::crash_err())
            }
        }
    }
    fn sync(&mut self) -> io::Result<()> {
        match self.fs.gate(false)? {
            GateOutcome::Proceed | GateOutcome::Short => self.inner.sync(),
            GateOutcome::Crash { .. } => Err(FaultFs::crash_err()),
        }
    }
}

impl Vfs for FaultFs {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        if self.crashed() {
            return Err(FaultFs::crash_err());
        }
        self.mem.read(path)
    }
    fn create(&self, path: &str) -> io::Result<Box<dyn VfsFile + '_>> {
        match self.gate(false)? {
            GateOutcome::Crash { .. } => Err(FaultFs::crash_err()),
            _ => Ok(Box::new(FaultFile {
                fs: self,
                inner: self.mem.create(path)?,
            })),
        }
    }
    fn open_append(&self, path: &str) -> io::Result<Box<dyn VfsFile + '_>> {
        if self.crashed() {
            return Err(FaultFs::crash_err());
        }
        Ok(Box::new(FaultFile {
            fs: self,
            inner: self.mem.open_append(path)?,
        }))
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        match self.gate(false)? {
            GateOutcome::Crash { .. } => Err(FaultFs::crash_err()),
            _ => self.mem.rename(from, to),
        }
    }
    fn remove(&self, path: &str) -> io::Result<()> {
        match self.gate(false)? {
            GateOutcome::Crash { .. } => Err(FaultFs::crash_err()),
            _ => self.mem.remove(path),
        }
    }
    fn truncate(&self, path: &str, len: u64) -> io::Result<()> {
        match self.gate(false)? {
            GateOutcome::Crash { .. } => Err(FaultFs::crash_err()),
            _ => self.mem.truncate(path, len),
        }
    }
    fn sync_parent(&self, path: &str) -> io::Result<()> {
        match self.gate(false)? {
            GateOutcome::Crash { .. } => Err(FaultFs::crash_err()),
            _ => self.mem.sync_parent(path),
        }
    }
    fn exists(&self, path: &str) -> bool {
        !self.crashed() && self.mem.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SectionKind;

    #[test]
    fn memfs_pending_writes_are_not_durable_until_sync() {
        let fs = MemFs::new();
        {
            let mut f = fs.create("a.bin").unwrap();
            f.write(b"hello").unwrap();
        }
        fs.sync_parent("a.bin").unwrap(); // name durable, bytes not
        assert_eq!(fs.live("a.bin").unwrap(), b"hello");
        let img = fs.crash_image(CrashFlush::None);
        assert!(!img.contains_key("a.bin"), "un-synced bytes survived");
        let img = fs.crash_image(CrashFlush::All);
        assert_eq!(img.get("a.bin").unwrap(), b"hello");

        let mut f = fs.open_append("a.bin").unwrap();
        f.sync().unwrap();
        let img = fs.crash_image(CrashFlush::None);
        assert_eq!(img.get("a.bin").unwrap(), b"hello");
    }

    #[test]
    fn memfs_rename_is_pending_until_dir_sync() {
        let fs = MemFs::new();
        fs.install("old.bin", b"payload");
        fs.sync_parent("old.bin").unwrap();
        fs.rename("old.bin", "new.bin").unwrap();
        assert!(fs.exists("new.bin") && !fs.exists("old.bin"));
        // crash before dir sync: old name survives
        let img = fs.crash_image(CrashFlush::None);
        assert_eq!(img.get("old.bin").unwrap(), b"payload");
        assert!(!img.contains_key("new.bin"));
        fs.sync_parent("new.bin").unwrap();
        let img = fs.crash_image(CrashFlush::None);
        assert_eq!(img.get("new.bin").unwrap(), b"payload");
        assert!(!img.contains_key("old.bin"));
    }

    #[test]
    fn memfs_torn_image_halves_the_last_write() {
        let fs = MemFs::new();
        fs.install("a.bin", b"");
        let mut f = fs.open_append("a.bin").unwrap();
        f.write(b"12345678").unwrap();
        f.write(b"abcd").unwrap();
        let img = fs.crash_image(CrashFlush::Torn);
        assert_eq!(img.get("a.bin").unwrap(), b"12345678ab");
    }

    #[test]
    fn write_atomic_is_all_or_nothing_under_every_crash_cut() {
        let old = b"old artifact".to_vec();
        let new = vec![7u8; 300];
        // size the op sequence once, fault-free
        let probe = FaultFs::new(FaultConfig::default());
        probe.fs().install("art.bin", &old);
        probe.fs().sync_parent("art.bin").unwrap();
        write_atomic(&probe, "art.bin", &new).unwrap();
        let total = probe.ops_issued();
        assert!(total >= 4, "create+write+sync+rename+dirsync expected");
        assert_eq!(probe.fs().live("art.bin").unwrap(), new);

        for k in 1..=total {
            for flush in [CrashFlush::None, CrashFlush::All, CrashFlush::Torn] {
                let fs = FaultFs::new(FaultConfig {
                    seed: k,
                    crash_at_op: Some(k),
                    ..FaultConfig::default()
                });
                fs.fs().install("art.bin", &old);
                fs.fs().sync_parent("art.bin").unwrap();
                let r = write_atomic(&fs, "art.bin", &new);
                assert!(r.is_err(), "cut at {k} did not surface");
                let img = fs.fs().crash_image(flush);
                let got = img.get("art.bin").expect("artifact vanished");
                assert!(
                    got == &old || got == &new,
                    "cut {k} ({flush:?}): artifact torn ({} bytes)",
                    got.len()
                );
            }
        }
    }

    #[test]
    fn retry_absorbs_transients_and_bounds_them() {
        let fs = FaultFs::new(FaultConfig {
            seed: 11,
            transient_pct: 30,
            short_write_pct: 30,
            ..FaultConfig::default()
        });
        write_atomic(&fs, "x.bin", &vec![3u8; 4096]).unwrap();
        assert_eq!(fs.fs().live("x.bin").unwrap(), vec![3u8; 4096]);
        // when every op fails transiently, the first one (creating the
        // tmp file) is tried once and retried exactly MAX_RETRIES times
        let fs = FaultFs::new(FaultConfig {
            seed: 11,
            transient_pct: 100,
            ..FaultConfig::default()
        });
        let err = write_atomic(&fs, "x.bin", b"data");
        assert!(matches!(err, Err(StoreError::Io(_))));
        assert_eq!(fs.ops_issued(), u64::from(MAX_RETRIES) + 1);
        assert!(!fs.fs().exists("x.bin"));
    }

    #[test]
    fn enospc_is_not_retried_and_keeps_the_old_artifact() {
        let fs = FaultFs::new(FaultConfig {
            seed: 5,
            enospc_from_write: Some(1),
            ..FaultConfig::default()
        });
        fs.fs().install("a.bin", b"old");
        fs.fs().sync_parent("a.bin").unwrap();
        let err = write_atomic(&fs, "a.bin", &[1u8; 64]);
        match err {
            Err(StoreError::Io(e)) => assert!(e.to_string().contains("ENOSPC")),
            other => panic!("expected ENOSPC, got {other:?}"),
        }
        // the destination still holds the old artifact; the tmp file
        // was cleaned up
        assert_eq!(fs.fs().live("a.bin").unwrap(), b"old");
        assert!(!fs.fs().exists("a.bin.tmp"));
    }

    #[test]
    fn save_atomic_streams_the_writer_bit_identically() {
        let mut w = StoreWriter::with_creator("io-test");
        w.add(SectionKind::Graph, 0, vec![1, 2, 3]);
        w.add(SectionKind::Matrix, 2, vec![9; 16]);
        let fs = MemFs::new();
        save_atomic(&fs, "c.csbn", &w).unwrap();
        assert_eq!(fs.live("c.csbn").unwrap(), w.to_bytes());
        let bytes = fs.live("c.csbn").unwrap();
        Store::parse(&bytes).unwrap();
    }

    #[test]
    fn append_durable_preserves_the_prior_generation_bytes() {
        let mut w = StoreWriter::with_creator("gen0");
        w.add(SectionKind::Graph, 0, vec![1; 24]);
        let fs = MemFs::new();
        save_atomic(&fs, "c.csbn", &w).unwrap();
        let gen0 = fs.live("c.csbn").unwrap();

        let mut a = StoreWriter::new();
        a.add(SectionKind::Graph, 0, vec![2; 24]);
        let out = append_durable(&fs, "c.csbn", &a).unwrap();
        assert_eq!(out.generation, 1);
        assert_eq!(out.recovered_bytes, 0);
        let gen1 = fs.live("c.csbn").unwrap();
        // the whole previous file — footer included — is a prefix
        assert_eq!(&gen1[..gen0.len()], &gen0[..]);
        let s = Store::parse(&gen1).unwrap();
        assert_eq!(s.generation(), 1);
        assert_eq!(s.payload_checked(0).unwrap(), &[2; 24]);
        // and truncating back to the old length re-reads generation 0
        let s = Store::parse(&gen1[..gen0.len()]).unwrap();
        assert_eq!(s.payload_checked(0).unwrap(), &[1; 24]);
    }

    #[test]
    fn append_durable_recovers_a_torn_tail_before_appending() {
        let mut w = StoreWriter::with_creator("gen0");
        w.add(SectionKind::Graph, 0, vec![1; 24]);
        let fs = MemFs::new();
        save_atomic(&fs, "c.csbn", &w).unwrap();
        let clean_len = fs.live("c.csbn").unwrap().len();
        // simulate a crash that left 13 garbage bytes appended
        {
            let mut f = fs.open_append("c.csbn").unwrap();
            f.write(&[0xEE; 13]).unwrap();
            f.sync().unwrap();
        }
        let mut a = StoreWriter::new();
        a.add(SectionKind::Matrix, 0, vec![3; 8]);
        let out = append_durable(&fs, "c.csbn", &a).unwrap();
        assert_eq!(out.recovered_bytes, 13);
        assert_eq!(out.generation, 1);
        let bytes = fs.live("c.csbn").unwrap();
        let s = Store::parse(&bytes).unwrap();
        assert_eq!(s.sections().len(), 2);
        assert_eq!(&bytes[..clean_len], &w.to_bytes()[..]);
    }

    #[test]
    fn real_fs_roundtrips_atomic_write_and_append() {
        let dir = std::env::temp_dir().join(format!("casbn-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("real.csbn");
        let path = path.to_str().unwrap();
        let mut w = StoreWriter::with_creator("real");
        w.add(SectionKind::Graph, 0, vec![5; 40]);
        save_atomic(&RealFs, path, &w).unwrap();
        let mut a = StoreWriter::new();
        a.add(SectionKind::Graph, 0, vec![6; 40]);
        let out = append_durable(&RealFs, path, &a).unwrap();
        assert_eq!(out.generation, 1);
        let bytes = std::fs::read(path).unwrap();
        let s = Store::parse(&bytes).unwrap();
        assert_eq!(s.payload_checked(0).unwrap(), &[6; 40]);
        assert!(!RealFs.exists(&format!("{path}.tmp")));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
