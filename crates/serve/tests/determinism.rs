//! Acceptance gate: a pinned query script replayed against a pinned
//! artifact yields byte-identical responses however its frames arrive,
//! and each request is answered before the session waits for the next.

use casbn_expr::DatasetPreset;
use casbn_serve::protocol::split_frame;
use casbn_serve::{
    parse_script, responses_checksum, run_script, script_to_frames, serve_session, ServeEngine,
};
use casbn_stream::{synthesize_replay, StreamConfig};
use std::cell::RefCell;
use std::io::{Read, Write};
use std::rc::Rc;
use std::sync::atomic::AtomicBool;

/// The pinned script: every query kind, ingest barriers between
/// batches, deliberately unbatchable tail sizes.
const SCRIPT: &str = "
stats
ingest 1
stats
neigh 0
neigh 1
neigh 2
cluster 0
cluster 7
rho 0 1
rho 2 3
enrich 0 1 2 3
ingest 1
stats
neigh 3
rho 1 2
enrich 4 5 6 7 8
ingest 2
stats
neigh 4
cluster 4
";

fn fresh_engine() -> ServeEngine {
    let replay = synthesize_replay(DatasetPreset::Yng, 0.02, Some(8));
    ServeEngine::from_replay(replay, StreamConfig::default())
}

/// A transport that hands out at most `step` bytes per read.
struct Chunked<'a> {
    data: &'a [u8],
    step: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(out.len()).min(self.data.len());
        out[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

#[test]
fn arrival_pattern_changes_batching_not_bytes() {
    let script = parse_script(SCRIPT).unwrap();
    let queries = script
        .iter()
        .filter(|r| !matches!(r, casbn_serve::Request::Ingest { .. }))
        .count() as u64;
    let (all_at_once, reference) = run_script(&mut fresh_engine(), &script).unwrap();
    assert_eq!(all_at_once.requests, script.len() as u64);
    let frames = script_to_frames(&script);
    let mut batches = Vec::new();
    for step in [1usize, 5, 64] {
        let mut out = Vec::new();
        let report = serve_session(
            &mut fresh_engine(),
            Chunked {
                data: &frames,
                step,
            },
            &mut out,
            &AtomicBool::new(false),
        )
        .unwrap();
        assert_eq!(report.requests, script.len() as u64);
        assert_eq!(out, reference, "{step}-byte reads changed bytes");
        assert_eq!(responses_checksum(&out), responses_checksum(&reference));
        batches.push(report.batches);
    }
    // a byte at a time, every query is answered before the next arrives
    assert_eq!(batches[0], queries);
    assert!(
        all_at_once.batches < batches[0],
        "whole-script delivery batched nothing ({} batches)",
        all_at_once.batches
    );
}

/// A transport that delivers the script one frame at a time and, before
/// it hands out any byte of frame k + 1, asserts that the session has
/// already written the answer to frame k.
struct Lockstep {
    frames: Vec<Vec<u8>>,
    /// The frame being delivered and how much of it went out.
    next: usize,
    pos: usize,
    written: Rc<RefCell<Vec<u8>>>,
}

impl Read for Lockstep {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == 0 && self.next > 0 {
            let (mut answered, mut rest) = (0, &self.written.borrow()[..]);
            while let Some((_, tail)) = split_frame(rest).unwrap() {
                (answered, rest) = (answered + 1, tail);
            }
            assert_eq!(
                answered,
                self.next,
                "request {} was not answered before the session read on",
                self.next - 1
            );
        }
        let Some(frame) = self.frames.get(self.next) else {
            return Ok(0);
        };
        let n = out.len().min(frame.len() - self.pos);
        out[..n].copy_from_slice(&frame[self.pos..self.pos + n]);
        self.pos += n;
        if self.pos == frame.len() {
            (self.next, self.pos) = (self.next + 1, 0);
        }
        Ok(n)
    }
}

/// The session's output, shared with the transport that checks it.
struct Shared(Rc<RefCell<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn each_request_is_answered_before_the_next_is_read() {
    let script = parse_script(SCRIPT).unwrap();
    let written = Rc::new(RefCell::new(Vec::new()));
    let input = Lockstep {
        frames: script.iter().map(|r| r.encode_frame()).collect(),
        next: 0,
        pos: 0,
        written: written.clone(),
    };
    let output = Shared(written.clone());
    let report = serve_session(&mut fresh_engine(), input, output, &AtomicBool::new(false));
    assert_eq!(report.unwrap().requests, script.len() as u64);
    let (_, reference) = run_script(&mut fresh_engine(), &script).unwrap();
    assert_eq!(*written.borrow(), reference);
}
