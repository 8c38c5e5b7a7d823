//! Distributed-memory execution substrate — the workspace's stand-in for
//! the MPI cluster (Firefly) used in the paper.
//!
//! Each *rank* runs on its own OS thread with private state; ranks
//! communicate only by explicit message passing (point-to-point send/recv
//! with tags, plus barriers), exactly the programming model of the
//! paper's MPI implementation.
//!
//! On top of the real threaded execution, every rank carries a
//! [`SimClock`] driven by a [`CostModel`]: compute is charged per abstract
//! operation, messages are charged LogP-style (latency `α` + `β` per byte,
//! with receive completion at `max(receiver clock, sender clock at send +
//! transfer)`). The **simulated** makespan is therefore independent of the
//! physical core count and of OS scheduling noise — this is what lets the
//! scalability experiment (paper Fig. 10) sweep to 64 "processors" on any
//! host, deterministically. Real wall-clock time is reported as well for
//! runs that fit the physical machine.

pub mod comm;
pub mod cost;

pub use comm::{run, DistResult, RankCtx};
pub use cost::{CostModel, SimClock};

/// Encode an edge list as little-endian `u32` pairs (the wire format used
/// by the border-edge exchange).
pub fn encode_edges(edges: &[(u32, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(edges.len() * 8);
    for &(u, v) in edges {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode the wire format produced by [`encode_edges`].
pub fn decode_edges(bytes: &[u8]) -> Vec<(u32, u32)> {
    assert!(
        bytes.len().is_multiple_of(8),
        "edge payload must be 8-byte aligned"
    );
    bytes
        .chunks_exact(8)
        .map(|c| {
            let u = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let v = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            (u, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_codec_roundtrip() {
        let edges = vec![(0u32, 1u32), (7, 12), (u32::MAX, 0)];
        assert_eq!(decode_edges(&encode_edges(&edges)), edges);
    }

    #[test]
    fn empty_edge_codec() {
        assert!(decode_edges(&encode_edges(&[])).is_empty());
    }

    #[test]
    #[should_panic(expected = "8-byte aligned")]
    fn misaligned_payload_panics() {
        decode_edges(&[1, 2, 3]);
    }
}
