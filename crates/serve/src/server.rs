//! Session loops: pipe mode, the scripted client, and the TCP listener.
//!
//! A **session** reads request frames and writes response frames in
//! request order, answering every request on its own thread. Read-only
//! queries gather into a batch answered against one snapshot. The batch
//! is answered as soon as the input buffer holds no further complete
//! frame (before the session waits on the transport), or at 16 queries.
//! So a client that sends one request and waits gets its answer, and a
//! client that pipelines gets its answers in batches. `Ingest` requests
//! are barriers: the pending batch is answered against the pre-ingest
//! snapshot, the engine advances (publishing rotations), and later
//! queries see the new snapshot. EOF and the shutdown flag both
//! **drain**: every decoded query is answered before the session
//! returns, so no accepted request is ever dropped.
//!
//! A session owns three buffers for its whole life: a 1 KB read buffer
//! over the transport (whose contents tell whether a complete frame has
//! arrived), the payload buffer every request lands in
//! ([`read_frame_into`] sizes it to each frame after the length check),
//! and the write buffer every response frame of a batch is encoded into,
//! back to back ([`Response::encode_frame_into`]). Each batch reaches
//! the transport as one `write_all` of that buffer, so the steady state
//! allocates no per-frame buffers.
//!
//! In a writer session, how requests arrive decides only how they batch:
//! the response bytes are a function of the request bytes, which the
//! pinned-script gates check with [`responses_checksum`]. (A read-only
//! session acquires the registry's snapshot per batch, so rotations a
//! writer publishes meanwhile show up at batch boundaries.) The TCP
//! listener serves concurrent read-only sessions, one thread each,
//! against the shared [`SnapshotRegistry`]; only the process that owns
//! the [`ServeEngine`] may ingest.

use crate::engine::ServeEngine;
use crate::protocol::{
    read_frame_into, split_frame, ProtocolError, Request, Response, ERR_ENGINE, ERR_PROTOCOL,
    ERR_READ_ONLY,
};
use crate::snapshot::{ServeSnapshot, SnapshotRegistry};
use casbn_store::{fnv_mix, FNV_BASIS};
use std::io::{BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Most queries answered in one batch.
const BATCH_MAX: usize = 16;

/// Bytes of a session's read buffer. Small because a client may open a
/// session per burst of a few requests.
const READ_BUFFER: usize = 1024;

/// Carries no settings. It stays only because the benchmark client
/// passes `&SessionConfig::default()` to [`serve_readonly_session`].
#[derive(Debug, Default)]
pub struct SessionConfig;

/// What a finished session did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionReport {
    /// Requests decoded and answered.
    pub requests: u64,
    /// Batches answered.
    pub batches: u64,
    /// Whether the session ended on the shutdown flag (vs EOF).
    pub drained_on_shutdown: bool,
}

/// FNV-1a over a session's response bytes, one byte per step (unlike the
/// store's word-wise [`casbn_store::fnv1a`], which also folds in the
/// length): the value the pinned-script gates compare.
pub fn responses_checksum(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_BASIS, |h, &b| fnv_mix(h, u64::from(b)))
}

/// A writer session: the full protocol including ingest, against the
/// engine's registry. Returns when the input reaches EOF, the shutdown
/// flag is observed, or the request stream turns malformed (a typed
/// error response is sent first); in every case decoded queries are
/// drained and answered.
pub fn serve_session<R: Read, W: Write>(
    engine: &mut ServeEngine,
    input: R,
    output: W,
    shutdown: &AtomicBool,
) -> Result<SessionReport, ProtocolError> {
    session_loop(Some(engine), None, input, output, shutdown)
}

/// A read-only session against a registry (TCP connections use this):
/// ingest requests answer [`ERR_READ_ONLY`]. `_cfg` is ignored (see
/// [`SessionConfig`]).
pub fn serve_readonly_session<R: Read, W: Write>(
    registry: &SnapshotRegistry,
    input: R,
    output: W,
    _cfg: &SessionConfig,
    shutdown: &AtomicBool,
) -> Result<SessionReport, ProtocolError> {
    session_loop(None, Some(registry), input, output, shutdown)
}

fn session_loop<R: Read, W: Write>(
    mut engine: Option<&mut ServeEngine>,
    registry: Option<&SnapshotRegistry>,
    input: R,
    output: W,
    shutdown: &AtomicBool,
) -> Result<SessionReport, ProtocolError> {
    let mut input = BufReader::with_capacity(READ_BUFFER, input);
    let mut pending: Vec<Request> = Vec::with_capacity(BATCH_MAX);
    let mut payload: Vec<u8> = Vec::new();
    let mut sink = Sink {
        output,
        frames: Vec::new(),
        report: SessionReport::default(),
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
        answer_batch(&snap, pending, &mut sink.frames);
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
        if !matches!(split_frame(input.buffer()), Ok(Some(_))) {
            // the next frame needs the transport: answer what has
            // arrived before waiting on it
            flush(&mut pending, &mut sink, &mut engine)?;
        }
        let next = read_frame_into(&mut input, &mut payload, shutdown)
            .and_then(|more| more.then(|| Request::decode_payload(&payload)).transpose());
        let req = match next {
            Ok(Some(req)) => req,
            Ok(None) => {
                sink.report.drained_on_shutdown = shutdown.load(Ordering::Relaxed);
                break;
            }
            Err(ProtocolError::Io(e)) => return Err(ProtocolError::Io(e)),
            Err(e) => {
                // drain what was accepted, then report the framing or
                // decode error and end the session: past a malformed
                // frame the stream has no trustworthy boundaries left
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
        if pending.len() >= BATCH_MAX {
            flush(&mut pending, &mut sink, &mut engine)?;
        }
    }
    sink.output
        .flush()
        .map_err(|e| ProtocolError::Io(e.to_string()))?;
    Ok(sink.report)
}

/// Answer every query in `batch` against one snapshot, appending the
/// encoded response frames to `out` in request order.
fn answer_batch(snap: &ServeSnapshot, batch: &[Request], out: &mut Vec<u8>) {
    casbn_obs::counter_add("serve.requests", batch.len() as u64);
    casbn_obs::record_hist("serve.batch_size", batch.len() as u64);
    for req in batch {
        snap.answer(req).encode_frame_into(out);
    }
}

/// A session's write side: the transport, the one buffer every response
/// frame is encoded into, and the running report.
struct Sink<W> {
    output: W,
    frames: Vec<u8>,
    report: SessionReport,
}

impl<W: Write> Sink<W> {
    /// Write the encoded frames with one `write_all` and empty the buffer
    /// for the next batch.
    fn send(&mut self) -> Result<(), ProtocolError> {
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
/// share; they gate on [`responses_checksum`] of the bytes.
pub fn run_script(
    engine: &mut ServeEngine,
    script: &[Request],
) -> Result<(SessionReport, Vec<u8>), ProtocolError> {
    let input = script_to_frames(script);
    let mut output = Vec::new();
    let shutdown = AtomicBool::new(false);
    let report = serve_session(engine, &input[..], &mut output, &shutdown)?;
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
                    scope.spawn(move || {
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
                        let mut out = match stream.try_clone() {
                            Ok(s) => s,
                            Err(_) => return,
                        };
                        let _ = serve_readonly_session(
                            &registry,
                            stream,
                            &mut out,
                            &SessionConfig,
                            shutdown,
                        );
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
    use crate::snapshot::serving_dag;
    use casbn_expr::DatasetPreset;
    use casbn_stream::{synthesize_replay, StreamConfig};

    fn engine() -> ServeEngine {
        let replay = synthesize_replay(DatasetPreset::Yng, 0.02, Some(8));
        ServeEngine::from_replay(replay, StreamConfig::default())
    }

    #[test]
    fn batch_frames_are_the_per_request_frames_in_order() {
        use casbn_graph::generators::planted_partition;
        use casbn_mcode::{mcode_cluster, McodeParams};
        let (g, _) = planted_partition(80, 4, 10, 0.85, 40, 21);
        let clusters = mcode_cluster(&g, &McodeParams::default());
        let snap = ServeSnapshot::build(1, 4, g.clone(), g, clusters, &[], &serving_dag());
        let batch: Vec<Request> = (0..BATCH_MAX as u32)
            .map(|i| match i % 5 {
                0 => Request::Neighborhood { gene: i },
                1 => Request::ClusterOf { gene: i * 3 },
                2 => Request::Rho { u: i, v: i + 1 },
                3 => Request::Enrich {
                    genes: (i..i + 6).collect(),
                },
                _ => Request::Stats,
            })
            .collect();
        let frames: Vec<u8> = batch
            .iter()
            .flat_map(|req| snap.answer(req).encode_frame())
            .collect();
        let mut out = Vec::new();
        answer_batch(&snap, &batch, &mut out);
        assert_eq!(out, frames);
        // appends after what the buffer already holds
        let mut out = b"prefix".to_vec();
        answer_batch(&snap, &batch, &mut out);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], &frames[..]);
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
        let (report, bytes) = run_script(&mut eng, &script).unwrap();
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
        let report = serve_session(&mut eng, input, &mut output, &shutdown).unwrap();
        assert!(report.drained_on_shutdown);
        assert_eq!(report.requests, 1, "the buffered query was answered");
    }

    #[test]
    fn tcp_session_answers_each_lone_request() {
        use std::io::Write as _;
        let mut eng = engine();
        eng.ingest_windows(2).unwrap();
        let registry = eng.registry();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_tcp(registry, listener, &shutdown));
            // each request goes out alone, and its reply must come back
            // while the client's write half is still open
            let client = (|| -> std::io::Result<(Vec<Vec<u8>>, Vec<u8>)> {
                let mut conn = std::net::TcpStream::connect(addr)?;
                conn.set_read_timeout(Some(Duration::from_secs(5)))?;
                let mut replies = Vec::new();
                for req in [Request::Stats, Request::Ingest { windows: 1 }] {
                    conn.write_all(&req.encode_frame())?;
                    let mut len = [0u8; 4];
                    conn.read_exact(&mut len)?;
                    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
                    conn.read_exact(&mut payload)?;
                    replies.push(payload);
                }
                // at EOF the session ends with nothing left to send
                conn.shutdown(std::net::Shutdown::Write)?;
                let mut tail = Vec::new();
                conn.read_to_end(&mut tail)?;
                Ok((replies, tail))
            })();
            // stop the listener whatever the client saw, so a failure
            // cannot hang the test
            shutdown.store(true, Ordering::Relaxed);
            assert_eq!(server.join().unwrap().unwrap(), 1);
            let (replies, tail) = client.expect("each lone request is answered within 5 s");
            match Response::decode_payload(&replies[0]).unwrap() {
                Response::Stats(s) => assert_eq!(s.epoch, 2),
                other => panic!("unexpected {other:?}"),
            }
            match Response::decode_payload(&replies[1]).unwrap() {
                Response::Error { code, .. } => assert_eq!(code, ERR_READ_ONLY),
                other => panic!("unexpected {other:?}"),
            }
            assert!(tail.is_empty());
        });
    }
}
