//! The closed-loop query client.
//!
//! One client thread sends 8-request bursts and waits for each burst's
//! answers before sending the next. An untraced burst goes through
//! `serve_readonly_session` over in-memory streams, the session loop TCP
//! connections run. A traced burst makes that loop's public calls itself
//! (frame split and decode, registry acquire, answer, encode), one span
//! each. Every response is decoded and checked after the burst's round
//! trip is timed.

use crate::trace;
use crate::util::{percentile, Rng};
use casbn_serve::protocol::split_frame;
use casbn_serve::{serve_readonly_session, Request, Response, SessionConfig, SnapshotRegistry};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Requests per burst: 1 stats, 2 neigh, 2 cluster, 2 rho, 1 enrich.
pub const BURST: usize = 8;
/// Genes per enrichment query.
const ENRICH_GENES: usize = 8;
/// Distinct bursts generated per run; the client cycles through them.
const POOL: usize = 1024;

/// Pre-encoded bursts (input generation, untimed).
pub struct Bursts {
    frames: Vec<Vec<u8>>,
    reqs: Vec<Vec<Request>>,
}

impl Bursts {
    /// [`POOL`] bursts over genes `0..genes`, drawn from `seed`.
    pub fn generate(genes: u32, seed: u64) -> Bursts {
        let mut rng = Rng::new(seed);
        let mut frames = Vec::with_capacity(POOL);
        let mut reqs = Vec::with_capacity(POOL);
        for _ in 0..POOL {
            let mut gene = || rng.below(genes);
            let burst = vec![
                Request::Stats,
                Request::Neighborhood { gene: gene() },
                Request::ClusterOf { gene: gene() },
                Request::Rho {
                    u: gene(),
                    v: gene(),
                },
                Request::Enrich {
                    genes: (0..ENRICH_GENES).map(|_| gene()).collect(),
                },
                Request::Neighborhood { gene: gene() },
                Request::ClusterOf { gene: gene() },
                Request::Rho {
                    u: gene(),
                    v: gene(),
                },
            ];
            debug_assert_eq!(burst.len(), BURST);
            frames.push(burst.iter().flat_map(Request::encode_frame).collect());
            reqs.push(burst);
        }
        Bursts { frames, reqs }
    }
}

/// Length of one measurement slice. The host's speed drifts over
/// seconds, so rates and percentiles are taken per slice and reported as
/// medians over slices.
const SLICE: Duration = Duration::from_millis(100);

/// One slice of client activity.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Requests answered per second in the slice.
    pub qps: f64,
    /// Median burst round trip in the slice, nanoseconds.
    pub rtt_p50_ns: u64,
    /// 99th-percentile burst round trip in the slice, nanoseconds.
    pub rtt_p99_ns: u64,
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Requests answered.
    pub requests: u64,
    /// Responses that failed to decode, were errors, answered another
    /// request kind, or were missing.
    pub bad: u64,
    /// `Stats` epochs that went backward.
    pub epoch_regressions: u64,
    /// Complete slices, in order.
    pub slices: Vec<Slice>,
}

impl ClientStats {
    /// Fold another client's statistics into these.
    pub fn absorb(&mut self, other: ClientStats) {
        self.requests += other.requests;
        self.bad += other.bad;
        self.epoch_regressions += other.epoch_regressions;
        self.slices.extend(other.slices);
    }
}

/// Send bursts against `registry` until `stop` returns true (checked
/// after each burst). A trailing partial slice counts when it is at least
/// half a slice long or the only one.
pub fn run(registry: &SnapshotRegistry, bursts: &Bursts, stop: impl Fn() -> bool) -> ClientStats {
    let cfg = SessionConfig::default();
    let never = AtomicBool::new(false);
    let traced = trace::enabled();
    let mut stats = ClientStats::default();
    let mut out: Vec<u8> = Vec::with_capacity(1 << 14);
    let mut decoded: Vec<Request> = Vec::with_capacity(BURST);
    let mut last_epoch = 0u64;
    let mut slice_rtt: Vec<u64> = Vec::new();
    let mut slice_start = Instant::now();
    let close = |rtt: &mut Vec<u64>, len: Duration, slices: &mut Vec<Slice>| {
        slices.push(Slice {
            qps: (rtt.len() * BURST) as f64 / len.as_secs_f64(),
            rtt_p50_ns: percentile(rtt, 50.0),
            rtt_p99_ns: percentile(rtt, 99.0),
        });
        rtt.clear();
    };
    for k in (0..bursts.frames.len()).cycle() {
        out.clear();
        let t = Instant::now();
        if t.duration_since(slice_start) >= SLICE {
            close(
                &mut slice_rtt,
                t.duration_since(slice_start),
                &mut stats.slices,
            );
            slice_start = t;
        }
        if traced {
            traced_burst(registry, &bursts.frames[k], &mut decoded, &mut out);
        } else if serve_readonly_session(registry, &bursts.frames[k][..], &mut out, &cfg, &never)
            .is_err()
        {
            out.clear();
        }
        slice_rtt.push(t.elapsed().as_nanos() as u64);
        stats.requests += BURST as u64;
        check(&bursts.reqs[k], &out, &mut last_epoch, &mut stats);
        if stop() {
            break;
        }
    }
    let tail = slice_start.elapsed();
    if tail >= SLICE / 2 || stats.slices.is_empty() {
        close(&mut slice_rtt, tail, &mut stats.slices);
    }
    trace::flush();
    stats
}

/// The session loop's calls for one burst, each in its own span.
fn traced_burst(
    registry: &SnapshotRegistry,
    frames: &[u8],
    decoded: &mut Vec<Request>,
    out: &mut Vec<u8>,
) {
    let _burst = trace::span("serve.burst");
    decoded.clear();
    let mut rest = frames;
    while !rest.is_empty() {
        let _s = trace::span("serve.decode");
        let Ok(Some((payload, tail))) = split_frame(rest) else {
            break;
        };
        rest = tail;
        match Request::decode_payload(payload) {
            Ok(req) => decoded.push(req),
            Err(_) => break,
        }
    }
    let snap = {
        let _s = trace::span("serve.acquire");
        registry.acquire()
    };
    for req in decoded.iter() {
        let resp = {
            let _s = trace::span(answer_span(req));
            snap.answer(req)
        };
        let _s = trace::span("serve.encode");
        out.extend_from_slice(&resp.encode_frame());
    }
}

/// Span name of the answer to `req`.
fn answer_span(req: &Request) -> &'static str {
    match req {
        Request::Neighborhood { .. } => "serve.answer.neighborhood",
        Request::ClusterOf { .. } => "serve.answer.cluster",
        Request::Rho { .. } => "serve.answer.rho",
        Request::Enrich { .. } => "serve.answer.enrich",
        Request::Stats => "serve.answer.stats",
        Request::Ingest { .. } => "serve.answer.ingest",
    }
}

/// Check one burst's response bytes against its requests.
fn check(reqs: &[Request], out: &[u8], last_epoch: &mut u64, stats: &mut ClientStats) {
    let mut rest = out;
    for req in reqs {
        let Ok(Some((payload, tail))) = split_frame(rest) else {
            stats.bad += 1;
            rest = &[];
            continue;
        };
        rest = tail;
        let ok = match (req, Response::decode_payload(payload)) {
            (Request::Stats, Ok(Response::Stats(s))) => {
                if s.epoch < *last_epoch {
                    stats.epoch_regressions += 1;
                }
                *last_epoch = s.epoch.max(*last_epoch);
                true
            }
            (Request::Neighborhood { gene }, Ok(Response::Neighborhood { gene: g, .. })) => {
                g == *gene
            }
            (Request::ClusterOf { gene }, Ok(Response::ClusterOf { gene: g, .. })) => g == *gene,
            (Request::Rho { u, v }, Ok(Response::Rho { u: a, v: b, .. })) => (a, b) == (*u, *v),
            (Request::Enrich { .. }, Ok(Response::Enrich { .. })) => true,
            _ => false,
        };
        if !ok {
            stats.bad += 1;
        }
    }
    if !rest.is_empty() {
        stats.bad += 1;
    }
}
