//! Graceful shutdown: the drain + final durable checkpoint contract.
//!
//! A SIGINT mid-session must (a) answer every request already read —
//! no accepted query is dropped — and (b) leave a durable checkpoint
//! through `write_atomic` that a fresh process resumes from
//! **bit-exact**: finishing the replay from the checkpoint yields the
//! same streaming checksum as a run that was never interrupted.

use casbn_expr::DatasetPreset;
use casbn_serve::protocol::{split_frame, Request, Response};
use casbn_serve::{serve_session, ServeEngine};
use casbn_store::io::{write_atomic, MemFs};
use casbn_store::Store;
use casbn_stream::{synthesize_replay, StreamConfig, StreamDriver};
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const CKPT: &str = "serve.ckpt.csbn";

/// A reader modelling SIGINT delivery: it hands out its buffered frames,
/// then raises the shutdown flag at the moment the session would block
/// waiting for more input.
struct FramesThenSigint {
    buf: Vec<u8>,
    pos: usize,
    flag: Arc<AtomicBool>,
}

impl Read for FramesThenSigint {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos < self.buf.len() {
            let n = out.len().min(self.buf.len() - self.pos);
            out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            return Ok(n);
        }
        self.flag.store(true, Ordering::SeqCst);
        Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
    }
}

fn engine_with_memfs_sink(fs: Arc<MemFs>) -> ServeEngine {
    let replay = synthesize_replay(DatasetPreset::Yng, 0.02, Some(8));
    let mut engine = ServeEngine::from_replay(replay, StreamConfig::default());
    engine.set_checkpoint_sink(Box::new(move |w| {
        let bytes = w.try_to_bytes().map_err(|e| e.to_string())?;
        write_atomic(fs.as_ref(), CKPT, &bytes).map_err(|e| e.to_string())
    }));
    engine
}

#[test]
fn sigint_drains_in_flight_batch_and_checkpoint_resumes_bit_exact() {
    let fs = Arc::new(MemFs::new());
    let mut engine = engine_with_memfs_sink(fs.clone());
    let total_windows = engine.remaining_windows();
    assert_eq!(total_windows, 4);

    // the interrupted session: ingest half the replay, then send three
    // queries and raise the "signal" when the session next waits for
    // input. A pending batch exists only while complete frames are
    // buffered, so the session answers the three before that wait; the
    // drain must still report every accepted request.
    let script = [
        Request::Stats,
        Request::Ingest { windows: 2 },
        Request::Neighborhood { gene: 0 },
        Request::ClusterOf { gene: 1 },
        Request::Rho { u: 0, v: 1 },
    ];
    let mut buf = Vec::new();
    for req in &script {
        buf.extend_from_slice(&req.encode_frame());
    }
    let flag = Arc::new(AtomicBool::new(false));
    let input = FramesThenSigint {
        buf,
        pos: 0,
        flag: flag.clone(),
    };
    let mut out = Vec::new();
    let report = serve_session(&mut engine, input, &mut out, &flag).unwrap();
    assert!(report.drained_on_shutdown);
    assert_eq!(
        report.requests,
        script.len() as u64,
        "drain dropped an accepted request"
    );

    // every response frame is present and well-formed
    let mut rest: &[u8] = &out;
    let mut responses = 0;
    while let Some((payload, tail)) = split_frame(rest).unwrap() {
        Response::decode_payload(payload).unwrap();
        responses += 1;
        rest = tail;
    }
    assert_eq!(responses, script.len());

    // the shutdown path's final durable checkpoint
    assert!(engine.final_checkpoint().unwrap());
    let image = fs.live(CKPT).expect("checkpoint written");

    // resume in a "fresh process" and finish the replay
    let resumed = StreamDriver::resume_from(&Store::parse(&image).unwrap()).unwrap();
    assert_eq!(resumed.samples_ingested(), 4, "checkpoint is at window 2");
    let replay = synthesize_replay(DatasetPreset::Yng, 0.02, Some(8));
    let mut resumed_engine = ServeEngine::from_driver(resumed, replay.clone());
    assert_eq!(resumed_engine.remaining_windows(), 2);
    resumed_engine.ingest_windows(2).unwrap();

    // the oracle: the same replay ingested with no interruption
    let mut oracle = ServeEngine::from_replay(replay, StreamConfig::default());
    oracle.ingest_windows(4).unwrap();
    assert_eq!(
        resumed_engine.stream_checksum(),
        oracle.stream_checksum(),
        "resume diverged from the uninterrupted run"
    );
    let a = resumed_engine.snapshot();
    let b = oracle.snapshot();
    assert_eq!(a.stats(), b.stats());
    for g in 0..a.genes() as u32 {
        assert_eq!(a.neighbors(g), b.neighbors(g), "gene {g}");
    }
    assert_eq!(a.samples(), b.samples());
}

#[test]
fn eof_drain_also_leaves_a_resumable_checkpoint() {
    let fs = Arc::new(MemFs::new());
    let mut engine = engine_with_memfs_sink(fs.clone());
    let script = [Request::Ingest { windows: 1 }, Request::Stats];
    let mut buf = Vec::new();
    for req in &script {
        buf.extend_from_slice(&req.encode_frame());
    }
    let flag = AtomicBool::new(false);
    let mut out = Vec::new();
    let report = serve_session(&mut engine, buf.as_slice(), &mut out, &flag).unwrap();
    assert!(!report.drained_on_shutdown, "EOF is not the shutdown path");
    assert_eq!(report.requests, 2);
    assert!(engine.final_checkpoint().unwrap());

    let image = fs.live(CKPT).expect("checkpoint written");
    let resumed = StreamDriver::resume_from(&Store::parse(&image).unwrap()).unwrap();
    assert_eq!(resumed.samples_ingested(), 2);
}
