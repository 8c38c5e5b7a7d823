//! Length-prefixed request/response protocol.
//!
//! Every message on the wire is one **frame**:
//!
//! ```text
//! +----------------+---------------------------+
//! | len: u32 (LE)  | payload: len bytes        |
//! +----------------+---------------------------+
//! ```
//!
//! The payload is a flat little-endian field sequence built with the
//! `.csbn` store codecs ([`Enc`]/[`Dec`]), so every read is
//! bounds-checked and every length field is validated against the bytes
//! actually present before any allocation is sized from it. Frames are
//! capped at [`MAX_FRAME`]; a request payload decodes to exactly one
//! [`Request`] with no trailing bytes, which makes the encoding
//! canonical: `encode(decode(payload)) == payload` for every accepted
//! payload (the fuzz oracle relies on this bijection).
//!
//! Request payloads start with a `u32` opcode:
//!
//! | opcode | request | body |
//! |---|---|---|
//! | 1 | gene neighborhood | `gene: u32` |
//! | 2 | cluster membership | `gene: u32` |
//! | 3 | rho lookup | `u: u32, v: u32` |
//! | 4 | gene-set enrichment | `count: u32, genes: count × u32` |
//! | 5 | snapshot stats | — |
//! | 6 | ingest windows (writer sessions only) | `windows: u32` |
//!
//! Response payloads start with a `u32` status: `0` (ok) echoes the
//! request opcode and appends the result body; `1` (error) carries a
//! `u32` error code plus a length-prefixed UTF-8 message.

use casbn_store::{Dec, Enc, StoreError};
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};

/// Hard cap on a frame payload, bounding what a hostile peer can make
/// the decoder allocate.
pub const MAX_FRAME: usize = 1 << 20;

/// Cap on the gene count of one enrichment query.
pub const MAX_QUERY_GENES: usize = 4096;

/// Cap on the window count of one ingest request.
pub const MAX_INGEST_WINDOWS: u32 = 1 << 20;

/// Error code: a gene/vertex id in the request is out of range for the
/// current snapshot.
pub const ERR_BAD_GENE: u32 = 1;
/// Error code: the session is read-only and cannot ingest.
pub const ERR_READ_ONLY: u32 = 2;
/// Error code: the request stream itself was malformed (the session
/// terminates after reporting this).
pub const ERR_PROTOCOL: u32 = 3;
/// Error code: the engine rejected an otherwise well-formed request.
pub const ERR_ENGINE: u32 = 4;

/// A typed protocol failure. Decoding never panics and never allocates
/// from an unvalidated length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// Fewer bytes than a field or frame needs.
    Truncated {
        /// Bytes the read needed.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// A frame length above [`MAX_FRAME`].
    Oversize {
        /// The declared payload length.
        len: usize,
    },
    /// An opcode outside the request table.
    UnknownOpcode(u32),
    /// A structurally invalid payload (trailing bytes, absurd counts…).
    Malformed(String),
    /// An I/O failure on the underlying transport.
    Io(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            ProtocolError::Oversize { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown request opcode {op}"),
            ProtocolError::Malformed(what) => write!(f, "malformed payload: {what}"),
            ProtocolError::Io(what) => write!(f, "transport error: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<StoreError> for ProtocolError {
    fn from(e: StoreError) -> ProtocolError {
        match e {
            StoreError::ShortSection { need, have } => ProtocolError::Truncated { need, have },
            other => ProtocolError::Malformed(other.to_string()),
        }
    }
}

/// One decoded query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Sorted neighbors of `gene` in the current network snapshot.
    Neighborhood {
        /// The queried gene.
        gene: u32,
    },
    /// The MCODE cluster containing `gene`, if any.
    ClusterOf {
        /// The queried gene.
        gene: u32,
    },
    /// Retention flag and rho value of the pair `(u, v)`.
    Rho {
        /// First endpoint.
        u: u32,
        /// Second endpoint.
        v: u32,
    },
    /// GO-term enrichment of an arbitrary gene set.
    Enrich {
        /// The queried gene set.
        genes: Vec<u32>,
    },
    /// Snapshot-level statistics.
    Stats,
    /// Advance the stream by up to `windows` windows (writer sessions
    /// only; acts as a batch barrier).
    Ingest {
        /// Windows to ingest.
        windows: u32,
    },
}

impl Request {
    /// Encode to a canonical payload (no length prefix).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Request::Neighborhood { gene } => {
                e.u32(1);
                e.u32(*gene);
            }
            Request::ClusterOf { gene } => {
                e.u32(2);
                e.u32(*gene);
            }
            Request::Rho { u, v } => {
                e.u32(3);
                e.u32(*u);
                e.u32(*v);
            }
            Request::Enrich { genes } => {
                e.u32(4);
                e.u32(genes.len() as u32);
                e.u32s(genes);
            }
            Request::Stats => e.u32(5),
            Request::Ingest { windows } => {
                e.u32(6);
                e.u32(*windows);
            }
        }
        e.into_payload()
    }

    /// Encode to a full frame (length prefix + payload).
    pub fn encode_frame(&self) -> Vec<u8> {
        frame(&self.encode_payload())
    }

    /// Decode one request from a frame payload. Strict: every byte of
    /// the payload must belong to the request.
    pub fn decode_payload(payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut d = Dec::new(payload);
        let op = d.u32()?;
        let req = match op {
            1 => Request::Neighborhood { gene: d.u32()? },
            2 => Request::ClusterOf { gene: d.u32()? },
            3 => Request::Rho {
                u: d.u32()?,
                v: d.u32()?,
            },
            4 => {
                let count = d.u32()? as usize;
                if count > MAX_QUERY_GENES {
                    return Err(ProtocolError::Malformed(format!(
                        "enrichment gene count {count} exceeds the {MAX_QUERY_GENES} cap"
                    )));
                }
                Request::Enrich {
                    genes: d.u32s(count)?,
                }
            }
            5 => Request::Stats,
            6 => {
                let windows = d.u32()?;
                if windows == 0 || windows > MAX_INGEST_WINDOWS {
                    return Err(ProtocolError::Malformed(format!(
                        "ingest window count {windows} outside 1..={MAX_INGEST_WINDOWS}"
                    )));
                }
                Request::Ingest { windows }
            }
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        d.finish()?;
        Ok(req)
    }
}

/// Cluster summary inside a [`Response::ClusterOf`].
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterInfo {
    /// Index of the cluster in the snapshot's score-ordered list.
    pub index: u32,
    /// Vertices in the cluster.
    pub size: u32,
    /// MCODE score (density × size).
    pub score: f64,
}

/// One enriched term inside a [`Response::Enrich`].
#[derive(Clone, Debug, PartialEq)]
pub struct EnrichHit {
    /// The GO-like term id.
    pub term: u32,
    /// Query genes annotated with the term.
    pub in_set: u32,
    /// Background genes annotated with the term.
    pub in_background: u32,
    /// Bonferroni-corrected hypergeometric tail p-value.
    pub p_value: f64,
}

/// Snapshot-level statistics inside a [`Response::Stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatsInfo {
    /// Snapshot epoch (windows published).
    pub epoch: u64,
    /// Samples ingested into the snapshot.
    pub samples: u64,
    /// Gene (vertex) count.
    pub genes: u64,
    /// Live network edges.
    pub network_edges: u64,
    /// Maintained chordal-subgraph edges.
    pub chordal_edges: u64,
    /// MCODE clusters in the snapshot.
    pub clusters: u64,
}

/// One decoded response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Sorted neighbors of the queried gene.
    Neighborhood {
        /// The queried gene.
        gene: u32,
        /// Its sorted neighbors in the network snapshot.
        neighbors: Vec<u32>,
    },
    /// Cluster membership of the queried gene.
    ClusterOf {
        /// The queried gene.
        gene: u32,
        /// The containing cluster, or `None` when unclustered.
        cluster: Option<ClusterInfo>,
    },
    /// Rho lookup result.
    Rho {
        /// First endpoint (as queried).
        u: u32,
        /// Second endpoint (as queried).
        v: u32,
        /// Whether the pair is a retained network edge.
        retained: bool,
        /// The rho value (0.0 when not retained or unknown).
        rho: f64,
    },
    /// Enrichment hits, most significant first.
    Enrich {
        /// Enriched terms.
        terms: Vec<EnrichHit>,
    },
    /// Snapshot statistics.
    Stats(StatsInfo),
    /// Ingest acknowledgement.
    Ingest {
        /// Windows actually ingested (may be fewer than requested when
        /// the replay is exhausted).
        windows_run: u32,
        /// Snapshot epoch after ingesting.
        epoch: u64,
    },
    /// A typed failure (`ERR_*` codes).
    Error {
        /// One of the `ERR_*` constants.
        code: u32,
        /// Deterministic human-readable description.
        message: String,
    },
}

impl Response {
    /// Encode to a canonical payload (no length prefix).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = self.encode_frame();
        out.drain(..4);
        out
    }

    /// Encode to a full frame (length prefix + payload).
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_frame_into(&mut out);
        out
    }

    /// Append one full frame to `out`, after whatever it already holds:
    /// the length prefix is reserved, the payload encoded in place and
    /// the prefix patched, so a session can encode every response of a
    /// batch into one reused buffer.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let mut e = Enc::from_vec(std::mem::take(out));
        e.u32(0); // payload length, patched below
        match self {
            Response::Error { code, message } => {
                e.u32(1);
                e.u32(*code);
                e.u32(message.len() as u32);
                e.bytes(message.as_bytes());
            }
            Response::Neighborhood { gene, neighbors } => {
                e.u32(0);
                e.u32(1);
                e.u32(*gene);
                e.u32(neighbors.len() as u32);
                e.u32s(neighbors);
            }
            Response::ClusterOf { gene, cluster } => {
                e.u32(0);
                e.u32(2);
                e.u32(*gene);
                match cluster {
                    None => e.u32(0),
                    Some(c) => {
                        e.u32(1);
                        e.u32(c.index);
                        e.u32(c.size);
                        e.f64(c.score);
                    }
                }
            }
            Response::Rho {
                u,
                v,
                retained,
                rho,
            } => {
                e.u32(0);
                e.u32(3);
                e.u32(*u);
                e.u32(*v);
                e.u32(u32::from(*retained));
                e.f64(*rho);
            }
            Response::Enrich { terms } => {
                e.u32(0);
                e.u32(4);
                e.u32(terms.len() as u32);
                for t in terms {
                    e.u32(t.term);
                    e.u32(t.in_set);
                    e.u32(t.in_background);
                    e.f64(t.p_value);
                }
            }
            Response::Stats(s) => {
                e.u32(0);
                e.u32(5);
                e.u64(s.epoch);
                e.u64(s.samples);
                e.u64(s.genes);
                e.u64(s.network_edges);
                e.u64(s.chordal_edges);
                e.u64(s.clusters);
            }
            Response::Ingest { windows_run, epoch } => {
                e.u32(0);
                e.u32(6);
                e.u32(*windows_run);
                e.u64(*epoch);
            }
        }
        *out = e.into_payload();
        let len = out.len() - start - 4;
        assert!(len <= MAX_FRAME, "frame payload exceeds cap");
        out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    }

    /// Decode one response from a frame payload (the scripted client
    /// uses this to render results; strict like the request decoder).
    pub fn decode_payload(payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut d = Dec::new(payload);
        let status = d.u32()?;
        if status == 1 {
            let code = d.u32()?;
            let len = d.u32()? as usize;
            if len > d.remaining() {
                return Err(ProtocolError::Truncated {
                    need: len,
                    have: d.remaining(),
                });
            }
            // message bytes are the payload tail
            let tail = &payload[payload.len() - d.remaining()..];
            let (msg, rest) = tail.split_at(len);
            if !rest.is_empty() {
                return Err(ProtocolError::Malformed(format!(
                    "{} trailing bytes after error message",
                    rest.len()
                )));
            }
            let message = String::from_utf8(msg.to_vec())
                .map_err(|_| ProtocolError::Malformed("error message is not UTF-8".into()))?;
            return Ok(Response::Error { code, message });
        }
        if status != 0 {
            return Err(ProtocolError::Malformed(format!(
                "unknown response status {status}"
            )));
        }
        let op = d.u32()?;
        let resp = match op {
            1 => {
                let gene = d.u32()?;
                let count = d.u32()? as usize;
                Response::Neighborhood {
                    gene,
                    neighbors: d.u32s(count)?,
                }
            }
            2 => {
                let gene = d.u32()?;
                let cluster = match d.u32()? {
                    0 => None,
                    1 => Some(ClusterInfo {
                        index: d.u32()?,
                        size: d.u32()?,
                        score: d.f64()?,
                    }),
                    other => {
                        return Err(ProtocolError::Malformed(format!(
                            "cluster presence flag {other} is not 0/1"
                        )))
                    }
                };
                Response::ClusterOf { gene, cluster }
            }
            3 => Response::Rho {
                u: d.u32()?,
                v: d.u32()?,
                retained: d.u32()? != 0,
                rho: d.f64()?,
            },
            4 => {
                let count = d.u32()? as usize;
                if count > MAX_QUERY_GENES {
                    return Err(ProtocolError::Malformed(format!(
                        "enrichment hit count {count} exceeds the {MAX_QUERY_GENES} cap"
                    )));
                }
                let mut terms = Vec::with_capacity(count);
                for _ in 0..count {
                    terms.push(EnrichHit {
                        term: d.u32()?,
                        in_set: d.u32()?,
                        in_background: d.u32()?,
                        p_value: d.f64()?,
                    });
                }
                Response::Enrich { terms }
            }
            5 => Response::Stats(StatsInfo {
                epoch: d.u64()?,
                samples: d.u64()?,
                genes: d.u64()?,
                network_edges: d.u64()?,
                chordal_edges: d.u64()?,
                clusters: d.u64()?,
            }),
            6 => Response::Ingest {
                windows_run: d.u32()?,
                epoch: d.u64()?,
            },
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        d.finish()?;
        Ok(resp)
    }
}

/// Wrap a payload in a frame (length prefix + bytes).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME, "frame payload exceeds cap");
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A split frame: the payload and the remaining buffer.
pub type SplitFrame<'a> = (&'a [u8], &'a [u8]);

/// Split one frame off the front of `buf`: `Ok(None)` when `buf` is
/// empty (a clean boundary), otherwise the payload and the rest.
pub fn split_frame(buf: &[u8]) -> Result<Option<SplitFrame<'_>>, ProtocolError> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() < 4 {
        return Err(ProtocolError::Truncated {
            need: 4,
            have: buf.len(),
        });
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversize { len });
    }
    if buf.len() - 4 < len {
        return Err(ProtocolError::Truncated {
            need: len,
            have: buf.len() - 4,
        });
    }
    let (payload, rest) = buf[4..].split_at(len);
    Ok(Some((payload, rest)))
}

/// Read one frame payload from a transport into a caller-owned buffer:
/// on `Ok(true)` `payload` holds exactly the frame's payload, so one
/// buffer serves a whole session. `Ok(false)` is a clean EOF at a frame
/// boundary, or `shutdown` observed between frames; EOF inside a frame
/// is a [`ProtocolError::Truncated`]. Reads that time out (a TCP socket
/// with a read timeout) re-check `shutdown` and keep waiting, which is
/// how a blocked session wakes up to drain. The declared length is
/// checked against [`MAX_FRAME`] before the buffer grows.
pub fn read_frame_into<R: Read>(
    r: &mut R,
    payload: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> Result<bool, ProtocolError> {
    let mut header = [0u8; 4];
    match read_full(r, &mut header, shutdown)? {
        0 => return Ok(false),
        4 => {}
        got => return Err(ProtocolError::Truncated { need: 4, have: got }),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversize { len });
    }
    payload.clear();
    payload.resize(len, 0);
    let got = read_full(r, payload, shutdown)?;
    if got != len {
        return Err(ProtocolError::Truncated {
            need: len,
            have: got,
        });
    }
    Ok(true)
}

/// Fill `buf` from `r`, tolerating interrupted and timed-out reads.
/// Returns the bytes actually read: short at EOF, or when `shutdown` is
/// set at an interrupted or timed-out read, even part-way through `buf`
/// (the caller then reports the torn frame as [`ProtocolError::Truncated`]
/// and the session drains instead of waiting on a stalled client).
fn read_full<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> Result<usize, ProtocolError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) => match e.kind() {
                std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut => {
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                }
                _ => return Err(ProtocolError::Io(e.to_string())),
            },
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(req: Request) {
        let payload = req.encode_payload();
        let back = Request::decode_payload(&payload).unwrap();
        assert_eq!(back, req);
        // canonical: re-encoding reproduces the exact bytes
        assert_eq!(back.encode_payload(), payload);
    }

    #[test]
    fn request_roundtrips_are_canonical() {
        roundtrip(Request::Neighborhood { gene: 0 });
        roundtrip(Request::ClusterOf { gene: u32::MAX });
        roundtrip(Request::Rho { u: 3, v: 9 });
        roundtrip(Request::Enrich { genes: vec![] });
        roundtrip(Request::Enrich {
            genes: vec![5, 1, 5, 2],
        });
        roundtrip(Request::Stats);
        roundtrip(Request::Ingest { windows: 1 });
    }

    /// One response of every variant (both `ClusterOf` shapes, an empty
    /// and a non-empty `Enrich`).
    fn every_response() -> Vec<Response> {
        vec![
            Response::Neighborhood {
                gene: 2,
                neighbors: vec![0, 5, 9],
            },
            Response::ClusterOf {
                gene: 1,
                cluster: None,
            },
            Response::ClusterOf {
                gene: 1,
                cluster: Some(ClusterInfo {
                    index: 0,
                    size: 7,
                    score: 3.5,
                }),
            },
            Response::Rho {
                u: 1,
                v: 2,
                retained: true,
                rho: -0.75,
            },
            Response::Enrich {
                terms: vec![EnrichHit {
                    term: 40,
                    in_set: 5,
                    in_background: 9,
                    p_value: 1e-6,
                }],
            },
            Response::Stats(StatsInfo {
                epoch: 3,
                samples: 6,
                genes: 50,
                network_edges: 120,
                chordal_edges: 80,
                clusters: 4,
            }),
            Response::Ingest {
                windows_run: 2,
                epoch: 5,
            },
            Response::Enrich { terms: vec![] },
            Response::Error {
                code: ERR_BAD_GENE,
                message: "gene 99 out of range".into(),
            },
        ]
    }

    #[test]
    fn response_roundtrips() {
        for r in every_response() {
            let payload = r.encode_payload();
            let back = Response::decode_payload(&payload).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.encode_payload(), payload);
        }
    }

    #[test]
    fn frame_into_appends_the_same_bytes() {
        let mut out = b"earlier bytes".to_vec();
        let mut want = out.clone();
        for r in every_response() {
            let frame = r.encode_frame();
            assert_eq!(&frame[4..], &r.encode_payload()[..]);
            assert_eq!(frame[..4], ((frame.len() - 4) as u32).to_le_bytes());
            r.encode_frame_into(&mut out);
            want.extend_from_slice(&frame);
            assert_eq!(out, want, "{r:?}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut p = Request::Stats.encode_payload();
        p.push(0);
        assert!(matches!(
            Request::decode_payload(&p),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_fields_are_typed() {
        let p = Request::Rho { u: 1, v: 2 }.encode_payload();
        assert!(matches!(
            Request::decode_payload(&p[..7]),
            Err(ProtocolError::Truncated { .. })
        ));
        assert!(matches!(
            Request::decode_payload(&[]),
            Err(ProtocolError::Truncated { need: 4, have: 0 })
        ));
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut e = Enc::new();
        e.u32(77);
        assert_eq!(
            Request::decode_payload(&e.into_payload()),
            Err(ProtocolError::UnknownOpcode(77))
        );
    }

    #[test]
    fn enrich_count_is_bounds_checked() {
        // claims 2^31 genes with an empty body: must fail before allocating
        let mut e = Enc::new();
        e.u32(4);
        e.u32(1 << 31);
        assert!(matches!(
            Request::decode_payload(&e.into_payload()),
            Err(ProtocolError::Malformed(_))
        ));
        // within the cap but longer than the payload: typed truncation
        let mut e = Enc::new();
        e.u32(4);
        e.u32(100);
        assert!(matches!(
            Request::decode_payload(&e.into_payload()),
            Err(ProtocolError::Truncated { .. })
        ));
    }

    #[test]
    fn ingest_zero_windows_rejected() {
        let mut e = Enc::new();
        e.u32(6);
        e.u32(0);
        assert!(matches!(
            Request::decode_payload(&e.into_payload()),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn frame_splitting() {
        let f1 = Request::Stats.encode_frame();
        let f2 = Request::Neighborhood { gene: 7 }.encode_frame();
        let mut buf = f1.clone();
        buf.extend_from_slice(&f2);
        let (p1, rest) = split_frame(&buf).unwrap().unwrap();
        assert_eq!(p1, &f1[4..]);
        let (p2, rest) = split_frame(rest).unwrap().unwrap();
        assert_eq!(p2, &f2[4..]);
        assert!(split_frame(rest).unwrap().is_none());
        // truncated header and body
        assert!(matches!(
            split_frame(&buf[..2]),
            Err(ProtocolError::Truncated { .. })
        ));
        assert!(matches!(
            split_frame(&f2[..6]),
            Err(ProtocolError::Truncated { .. })
        ));
        // oversize length never allocates
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(matches!(
            split_frame(&huge),
            Err(ProtocolError::Oversize { .. })
        ));
    }

    #[test]
    fn read_frame_into_reuses_one_buffer() {
        let shutdown = AtomicBool::new(false);
        let long = Request::Enrich {
            genes: (0..40).collect(),
        };
        let mut buf = long.encode_frame();
        buf.extend_from_slice(&Request::Stats.encode_frame());
        let mut cur = std::io::Cursor::new(buf);
        let mut payload = Vec::new();
        assert!(read_frame_into(&mut cur, &mut payload, &shutdown).unwrap());
        assert_eq!(payload, long.encode_payload());
        // the short payload after it carries no stale tail
        assert!(read_frame_into(&mut cur, &mut payload, &shutdown).unwrap());
        assert_eq!(payload, Request::Stats.encode_payload());
        assert!(!read_frame_into(&mut cur, &mut payload, &shutdown).unwrap());

        // an oversize header fails before the buffer grows
        let mut cur = std::io::Cursor::new(((MAX_FRAME + 1) as u32).to_le_bytes().to_vec());
        let mut fresh = Vec::new();
        assert_eq!(
            read_frame_into(&mut cur, &mut fresh, &shutdown),
            Err(ProtocolError::Oversize { len: MAX_FRAME + 1 })
        );
        assert_eq!(fresh.capacity(), 0);

        // a truncated header or body is typed truncation
        let frame = Request::Rho { u: 1, v: 2 }.encode_frame();
        let mut cur = std::io::Cursor::new(frame[..2].to_vec());
        assert_eq!(
            read_frame_into(&mut cur, &mut payload, &shutdown),
            Err(ProtocolError::Truncated { need: 4, have: 2 })
        );
        let mut cur = std::io::Cursor::new(frame[..9].to_vec());
        assert_eq!(
            read_frame_into(&mut cur, &mut payload, &shutdown),
            Err(ProtocolError::Truncated { need: 12, have: 5 })
        );
    }

    /// Yields `bytes` one read at a time, then only `TimedOut`, counting
    /// every read.
    struct StallAfter {
        bytes: Vec<u8>,
        reads: usize,
    }

    impl Read for StallAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            assert!(
                self.reads < 100,
                "read_full kept waiting on a stalled client"
            );
            if self.bytes.is_empty() {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            let n = self.bytes.len().min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes.drain(..n);
            Ok(n)
        }
    }

    #[test]
    fn shutdown_ends_a_torn_read() {
        let flag = AtomicBool::new(true);
        let mut payload = Vec::new();
        // two bytes of a header, then silence
        let mut r = StallAfter {
            bytes: vec![0x04, 0x00],
            reads: 0,
        };
        assert_eq!(
            read_frame_into(&mut r, &mut payload, &flag),
            Err(ProtocolError::Truncated { need: 4, have: 2 })
        );
        assert!(r.reads <= 3, "{} reads", r.reads);
        // a whole header, part of the body, then silence
        let mut r = StallAfter {
            bytes: vec![0x04, 0x00, 0x00, 0x00, 0x05],
            reads: 0,
        };
        assert_eq!(
            read_frame_into(&mut r, &mut payload, &flag),
            Err(ProtocolError::Truncated { need: 4, have: 1 })
        );
        // silence before the first byte is a clean end
        let mut r = StallAfter {
            bytes: Vec::new(),
            reads: 0,
        };
        assert_eq!(read_frame_into(&mut r, &mut payload, &flag), Ok(false));
        assert_eq!(r.reads, 1);
    }
}
