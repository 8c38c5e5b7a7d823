//! Session loops: pipe mode, the scripted client, and the TCP listener.
//!
//! A **session** reads request frames, groups read-only queries into
//! batches of up to [`BATCH_MAX`], and writes
//! response frames in request order. `Ingest` requests are barriers:
//! the pending batch flushes against the pre-ingest snapshot, the
//! engine advances (publishing rotations), and later queries see the
//! new snapshot. EOF and the shutdown flag both **drain**: every
//! buffered query is answered before the session returns, so no
//! accepted request is ever dropped.
//!
//! A session owns two buffers for its whole life: the read buffer every
//! request payload lands in ([`read_frame_into`] sizes it to each frame
//! after the length check), and the write buffer every response frame of
//! a batch is encoded into, back to back
//! ([`Response::encode_frame_into`]). Each batch reaches the transport as
//! one `write_all` of that buffer, and the response checksum folds over
//! it. So the steady state allocates no per-frame buffers.
//!
//! Pipe mode (`stdin`/`stdout`) is the deterministic test surface: a
//! session over the same input bytes produces the same output bytes for
//! any worker count. The TCP listener serves concurrent read-only
//! sessions against the shared [`SnapshotRegistry`]; only the process
//! that owns the [`ServeEngine`] may ingest.

use crate::batch::{execute_batch, BATCH_MAX};
use crate::engine::ServeEngine;
use crate::protocol::{
    read_frame_into, ProtocolError, Request, Response, ERR_ENGINE, ERR_PROTOCOL, ERR_READ_ONLY,
};
use crate::snapshot::SnapshotRegistry;
use casbn_store::{fnv_mix, FNV_BASIS};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Session tuning knobs.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Worker threads per batch dispatch (1 = sequential).
    pub threads: usize,
    /// Queries buffered before a dispatch (clamped to
    /// 1..=[`BATCH_MAX`]).
    pub batch_max: usize,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            threads: 1,
            batch_max: BATCH_MAX,
        }
    }
}

/// What a finished session did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionReport {
    /// Requests decoded and answered.
    pub requests: u64,
    /// Batch dispatches performed.
    pub batches: u64,
    /// FNV-1a checksum over every response frame byte, in order — the
    /// value the pinned-script gates compare.
    pub responses_checksum: u64,
    /// Whether the session ended on the shutdown flag (vs EOF).
    pub drained_on_shutdown: bool,
}

/// Fold `bytes` into an FNV-1a accumulator, one byte per step (unlike
/// the store's word-wise [`casbn_store::fnv1a`], which also folds in
/// the length).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = fnv_mix(h, u64::from(b));
    }
    h
}

/// A writer session: the full protocol including ingest, against the
/// engine's registry. Returns when the input reaches EOF, the shutdown
/// flag is observed, or the request stream turns malformed (a typed
/// error response is sent first); in every case in-flight queries are
/// drained and answered.
pub fn serve_session<R: Read, W: Write>(
    engine: &mut ServeEngine,
    input: R,
    output: W,
    cfg: &SessionConfig,
    shutdown: &AtomicBool,
) -> Result<SessionReport, ProtocolError> {
    session_loop(Some(engine), None, input, output, cfg, shutdown)
}

/// A read-only session against a registry (TCP connections use this):
/// ingest requests answer [`ERR_READ_ONLY`].
pub fn serve_readonly_session<R: Read, W: Write>(
    registry: &SnapshotRegistry,
    input: R,
    output: W,
    cfg: &SessionConfig,
    shutdown: &AtomicBool,
) -> Result<SessionReport, ProtocolError> {
    session_loop(None, Some(registry), input, output, cfg, shutdown)
}

fn session_loop<R: Read, W: Write>(
    mut engine: Option<&mut ServeEngine>,
    registry: Option<&SnapshotRegistry>,
    mut input: R,
    output: W,
    cfg: &SessionConfig,
    shutdown: &AtomicBool,
) -> Result<SessionReport, ProtocolError> {
    let batch_cap = cfg.batch_max.clamp(1, BATCH_MAX);
    let mut pending: Vec<Request> = Vec::with_capacity(batch_cap);
    let mut payload: Vec<u8> = Vec::new();
    let mut sink = Sink {
        output,
        frames: Vec::new(),
        report: SessionReport {
            responses_checksum: FNV_BASIS,
            ..SessionReport::default()
        },
    };

    let flush = |pending: &mut Vec<Request>,
                 sink: &mut Sink<W>,
                 engine: &mut Option<&mut ServeEngine>|
     -> Result<(), ProtocolError> {
        if pending.is_empty() {
            return Ok(());
        }
        // re-acquire per flush so reader sessions observe rotations the
        // writer published between batches
        let snap = match (engine.as_deref(), registry) {
            (Some(e), _) => e.snapshot(),
            (None, Some(r)) => r.acquire(),
            (None, None) => unreachable!("session needs an engine or a registry"),
        };
        execute_batch(&snap, pending, cfg.threads, &mut sink.frames);
        sink.report.batches += 1;
        sink.report.requests += pending.len() as u64;
        pending.clear();
        sink.send()
    };

    loop {
        if shutdown.load(Ordering::Relaxed) {
            flush(&mut pending, &mut sink, &mut engine)?;
            sink.report.drained_on_shutdown = true;
            break;
        }
        match read_frame_into(&mut input, &mut payload, shutdown) {
            Ok(true) => {}
            Ok(false) => {
                flush(&mut pending, &mut sink, &mut engine)?;
                sink.report.drained_on_shutdown = shutdown.load(Ordering::Relaxed);
                break;
            }
            Err(ProtocolError::Io(e)) => return Err(ProtocolError::Io(e)),
            Err(e) => {
                // drain what was accepted, then report the framing error
                // and end the session: past a malformed frame the stream
                // has no trustworthy boundaries left
                flush(&mut pending, &mut sink, &mut engine)?;
                sink.respond(&Response::Error {
                    code: ERR_PROTOCOL,
                    message: e.to_string(),
                })?;
                break;
            }
        }
        let req = match Request::decode_payload(&payload) {
            Ok(r) => r,
            Err(e) => {
                flush(&mut pending, &mut sink, &mut engine)?;
                sink.respond(&Response::Error {
                    code: ERR_PROTOCOL,
                    message: e.to_string(),
                })?;
                break;
            }
        };
        if let Request::Ingest { windows } = req {
            // barrier: answer everything before the boundary first
            flush(&mut pending, &mut sink, &mut engine)?;
            let resp = match &mut engine {
                None => Response::Error {
                    code: ERR_READ_ONLY,
                    message: "ingest requires a writer session".into(),
                },
                Some(e) if !e.can_ingest() => Response::Error {
                    code: ERR_READ_ONLY,
                    message: "static artifact source cannot ingest".into(),
                },
                Some(e) => match e.ingest_windows(windows as usize) {
                    Ok((run, epoch)) => Response::Ingest {
                        windows_run: run as u32,
                        epoch,
                    },
                    Err(msg) => Response::Error {
                        code: ERR_ENGINE,
                        message: msg,
                    },
                },
            };
            sink.respond(&resp)?;
            continue;
        }
        pending.push(req);
        if pending.len() >= batch_cap {
            flush(&mut pending, &mut sink, &mut engine)?;
        }
    }
    sink.output
        .flush()
        .map_err(|e| ProtocolError::Io(e.to_string()))?;
    Ok(sink.report)
}

/// A session's write side: the transport, the one buffer every response
/// frame is encoded into, and the running report.
struct Sink<W> {
    output: W,
    frames: Vec<u8>,
    report: SessionReport,
}

impl<W: Write> Sink<W> {
    /// Fold the encoded frames into the checksum, write them with one
    /// `write_all` and empty the buffer for the next batch. Byte-wise FNV
    /// over the concatenation equals the per-frame fold.
    fn send(&mut self) -> Result<(), ProtocolError> {
        self.report.responses_checksum = fnv1a(self.report.responses_checksum, &self.frames);
        let sent = self
            .output
            .write_all(&self.frames)
            .map_err(|e| ProtocolError::Io(e.to_string()));
        self.frames.clear();
        sent
    }

    /// Encode one response outside a batch (an ingest reply or a
    /// protocol error) and send it.
    fn respond(&mut self, resp: &Response) -> Result<(), ProtocolError> {
        resp.encode_frame_into(&mut self.frames);
        self.report.requests += 1;
        self.send()
    }
}

/// Parse a query script: one request per line, `#` comments and blank
/// lines ignored.
///
/// ```text
/// neigh GENE          # gene neighborhood
/// cluster GENE        # cluster membership
/// rho U V             # rho lookup
/// enrich G1 G2 ...    # gene-set enrichment
/// stats               # snapshot statistics
/// ingest N            # advance the stream N windows
/// ```
pub fn parse_script(text: &str) -> Result<Vec<Request>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let cmd = it.next().unwrap();
        let mut nums = || -> Result<Vec<u32>, String> {
            it.by_ref()
                .map(|t| {
                    t.parse::<u32>()
                        .map_err(|_| format!("line {}: bad number {t:?}", lineno + 1))
                })
                .collect()
        };
        let req = match cmd {
            "neigh" => match nums()?.as_slice() {
                [gene] => Request::Neighborhood { gene: *gene },
                _ => return Err(format!("line {}: neigh takes one gene", lineno + 1)),
            },
            "cluster" => match nums()?.as_slice() {
                [gene] => Request::ClusterOf { gene: *gene },
                _ => return Err(format!("line {}: cluster takes one gene", lineno + 1)),
            },
            "rho" => match nums()?.as_slice() {
                [u, v] => Request::Rho { u: *u, v: *v },
                _ => return Err(format!("line {}: rho takes two genes", lineno + 1)),
            },
            "enrich" => Request::Enrich { genes: nums()? },
            "stats" => Request::Stats,
            "ingest" => match nums()?.as_slice() {
                [w] if *w > 0 => Request::Ingest { windows: *w },
                _ => {
                    return Err(format!(
                        "line {}: ingest takes a positive window count",
                        lineno + 1
                    ))
                }
            },
            other => return Err(format!("line {}: unknown command {other:?}", lineno + 1)),
        };
        out.push(req);
    }
    Ok(out)
}

/// Encode a parsed script back into the byte stream a session reads.
pub fn script_to_frames(script: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    for req in script {
        out.extend_from_slice(&req.encode_frame());
    }
    out
}

/// Replay a script through a writer session in memory; returns the
/// report and the raw response bytes. This is the deterministic client
/// the CLI `--script` mode, the CI smoke gate and the determinism tests
/// share.
pub fn run_script(
    engine: &mut ServeEngine,
    script: &[Request],
    cfg: &SessionConfig,
) -> Result<(SessionReport, Vec<u8>), ProtocolError> {
    let input = script_to_frames(script);
    let mut output = Vec::new();
    let shutdown = AtomicBool::new(false);
    let report = serve_session(
        engine,
        std::io::Cursor::new(input),
        &mut output,
        cfg,
        &shutdown,
    )?;
    Ok((report, output))
}

/// Run the TCP listener until `shutdown` fires: each accepted
/// connection is a read-only session on its own thread against the
/// shared registry. Returns the number of sessions served. Connections
/// poll with a read timeout so a blocked session observes shutdown,
/// drains, and exits.
pub fn serve_tcp(
    registry: Arc<SnapshotRegistry>,
    listener: TcpListener,
    cfg: &SessionConfig,
    shutdown: &AtomicBool,
) -> Result<u64, ProtocolError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| ProtocolError::Io(e.to_string()))?;
    let sessions = AtomicU64::new(0);
    std::thread::scope(|scope| {
        loop {
            if shutdown.load(Ordering::Relaxed) {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    sessions.fetch_add(1, Ordering::Relaxed);
                    let registry = registry.clone();
                    let cfg = cfg.clone();
                    scope.spawn(move || {
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
                        let mut out = match stream.try_clone() {
                            Ok(s) => s,
                            Err(_) => return,
                        };
                        let _ = serve_readonly_session(&registry, stream, &mut out, &cfg, shutdown);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ProtocolError::Io(e.to_string())),
            }
        }
        Ok(())
    })?;
    Ok(sessions.load(Ordering::Relaxed))
}

/// The process-wide shutdown flag [`install_sigint_handler`] raises.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The process-wide shutdown flag (raised by SIGINT once the handler is
/// installed; hosts may also raise it directly).
pub fn shutdown_flag() -> &'static AtomicBool {
    &SHUTDOWN
}

/// Install a SIGINT handler that raises [`shutdown_flag`]. Sessions
/// observe the flag at frame boundaries (and at read timeouts on TCP),
/// drain their in-flight batches, and return so the host can write the
/// final durable checkpoint. Returns whether the handler installed (a
/// no-op returning `false` on non-Unix platforms).
pub fn install_sigint_handler() -> bool {
    #[cfg(unix)]
    {
        use std::os::raw::{c_int, c_void};
        extern "C" fn on_sigint(_sig: c_int) {
            // async-signal-safe: a relaxed atomic store only
            SHUTDOWN.store(true, Ordering::Relaxed);
        }
        extern "C" {
            fn signal(signum: c_int, handler: *const c_void) -> *const c_void;
        }
        const SIGINT: c_int = 2;
        // SAFETY: installing a handler that only performs an atomic
        // store; the previous handler is not restored (daemon lifetime).
        let prev = unsafe { signal(SIGINT, on_sigint as *const c_void) };
        prev != usize::MAX as *const c_void
    }
    #[cfg(not(unix))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbn_expr::DatasetPreset;
    use casbn_stream::{synthesize_replay, StreamConfig};

    fn engine() -> ServeEngine {
        let replay = synthesize_replay(DatasetPreset::Yng, 0.02, Some(8));
        ServeEngine::from_replay(replay, StreamConfig::default())
    }

    #[test]
    fn script_parses_and_round_trips() {
        let text =
            "# demo\n neigh 3\ncluster 4 # inline\nrho 1 2\nenrich 1 2 3\nstats\ningest 2\n\n";
        let script = parse_script(text).unwrap();
        assert_eq!(script.len(), 6);
        assert_eq!(script[0], Request::Neighborhood { gene: 3 });
        assert_eq!(script[5], Request::Ingest { windows: 2 });
        assert!(parse_script("neigh").is_err());
        assert!(parse_script("rho 1").is_err());
        assert!(parse_script("ingest 0").is_err());
        assert!(parse_script("frobnicate 1").is_err());
        assert!(parse_script("neigh -1").is_err());
    }

    #[test]
    fn session_answers_in_request_order_across_batches_and_barriers() {
        let mut eng = engine();
        let script = vec![
            Request::Stats,
            Request::Ingest { windows: 1 },
            Request::Stats,
            Request::Neighborhood { gene: 0 },
            Request::Ingest { windows: 1 },
            Request::Stats,
        ];
        let (report, bytes) = run_script(&mut eng, &script, &SessionConfig::default()).unwrap();
        assert_eq!(report.requests, 6);
        assert!(!report.drained_on_shutdown);
        // decode responses back and check the epochs advance across barriers
        let mut epochs = Vec::new();
        let mut rest: &[u8] = &bytes;
        let mut count = 0;
        while let Some((payload, r)) = crate::protocol::split_frame(rest).unwrap() {
            if let Response::Stats(s) = Response::decode_payload(payload).unwrap() {
                epochs.push(s.epoch);
            }
            rest = r;
            count += 1;
        }
        assert_eq!(count, 6);
        assert_eq!(epochs, vec![0, 1, 2]);
    }

    #[test]
    fn malformed_stream_drains_then_reports_typed_error() {
        let mut eng = engine();
        let mut input = Request::Stats.encode_frame();
        input.extend_from_slice(&[0xFF, 0xFF]); // torn frame header
        let mut output = Vec::new();
        let shutdown = AtomicBool::new(false);
        let report = serve_session(
            &mut eng,
            std::io::Cursor::new(input),
            &mut output,
            &SessionConfig::default(),
            &shutdown,
        )
        .unwrap();
        assert_eq!(report.requests, 2, "drained query + error response");
        let (p1, rest) = crate::protocol::split_frame(&output).unwrap().unwrap();
        assert!(matches!(
            Response::decode_payload(p1).unwrap(),
            Response::Stats(_)
        ));
        let (p2, rest) = crate::protocol::split_frame(rest).unwrap().unwrap();
        match Response::decode_payload(p2).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ERR_PROTOCOL),
            other => panic!("unexpected {other:?}"),
        }
        assert!(crate::protocol::split_frame(rest).unwrap().is_none());
    }

    #[test]
    fn shutdown_flag_drains_pending_queries() {
        let mut eng = engine();
        // a reader that yields one frame, then raises the shutdown flag
        // the moment the session blocks waiting for more input —
        // modelling SIGINT arriving while a query sits buffered
        struct OneFrameThenShutdown {
            data: Vec<u8>,
            pos: usize,
            shutdown: Arc<AtomicBool>,
        }
        impl Read for OneFrameThenShutdown {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos < self.data.len() {
                    let n = buf.len().min(self.data.len() - self.pos);
                    buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                    self.pos += n;
                    Ok(n)
                } else {
                    self.shutdown.store(true, Ordering::Relaxed);
                    Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
                }
            }
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let input = OneFrameThenShutdown {
            data: Request::Stats.encode_frame(),
            pos: 0,
            shutdown: shutdown.clone(),
        };
        let mut output = Vec::new();
        let report = serve_session(
            &mut eng,
            input,
            &mut output,
            &SessionConfig::default(),
            &shutdown,
        )
        .unwrap();
        assert!(report.drained_on_shutdown);
        assert_eq!(report.requests, 1, "the buffered query was answered");
    }

    #[test]
    fn tcp_listener_serves_readonly_sessions() {
        use std::io::Write as _;
        let mut eng = engine();
        eng.ingest_windows(2).unwrap();
        let registry = eng.registry();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        let reg = registry.clone();
        let cfg = SessionConfig::default();
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_tcp(reg, listener, &cfg, &shutdown));
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            let mut frames = Request::Stats.encode_frame();
            frames.extend_from_slice(&Request::Ingest { windows: 1 }.encode_frame());
            conn.write_all(&frames).unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let mut bytes = Vec::new();
            conn.read_to_end(&mut bytes).unwrap();
            let (p1, rest) = crate::protocol::split_frame(&bytes).unwrap().unwrap();
            match Response::decode_payload(p1).unwrap() {
                Response::Stats(s) => assert_eq!(s.epoch, 2),
                other => panic!("unexpected {other:?}"),
            }
            let (p2, _) = crate::protocol::split_frame(rest).unwrap().unwrap();
            match Response::decode_payload(p2).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, ERR_READ_ONLY),
                other => panic!("unexpected {other:?}"),
            }
            shutdown.store(true, Ordering::Relaxed);
            let served = server.join().unwrap().unwrap();
            assert_eq!(served, 1);
        });
    }
}
