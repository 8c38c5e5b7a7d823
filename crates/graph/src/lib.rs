//! Undirected graph substrate for the CASBN workspace.
//!
//! This crate provides every graph-structural primitive the paper's pipeline
//! needs, implemented from scratch:
//!
//! * [`Graph`] — a simple undirected graph with sorted adjacency lists, and
//!   its read-only CSR form ([`Csr`]), the `.csbn` graph-section layout.
//! * [`ordering`] — the four vertex orderings studied in the paper
//!   (Natural, High-Degree, Low-Degree, Reverse Cuthill–McKee) plus a seeded
//!   random ordering.
//! * [`partition`] — vertex partitioners (contiguous block, round-robin,
//!   BFS block) and border-edge classification used by the parallel filters.
//! * [`delta`] — [`EdgeDelta`] batches and [`Graph::apply`], which
//!   applies them to the streaming subsystem's live network.
//! * [`generators`] — seeded synthetic graph generators (G(n,m),
//!   Barabási–Albert, planted-partition, caveman chains).
//! * [`algo`] — BFS, connected components, triangles, k-cores, density and
//!   other small analyses used by MCODE and the evaluation harness.
//! * [`store`] — the `.csbn` graph-section codec: CSR graph sections
//!   loaded with no per-edge parsing.
//! * [`nbhood`] — zero-allocation neighbourhood kernels: adaptive
//!   merge/galloping/bitset sorted-set intersection behind one API, plus
//!   the reusable [`NeighborhoodScratch`] threaded through every hot
//!   graph consumer (DSW, MCODE, incremental chordal, streaming).
//!
//! All randomised entry points take an explicit `u64` seed and are
//! deterministic for a given seed, which is what makes every figure in the
//! reproduction bit-for-bit reproducible.

#![forbid(unsafe_code)]

pub mod algo;
pub mod centrality;
pub mod delta;
pub mod generators;
pub mod graph;
pub mod io;
pub mod nbhood;
pub mod ordering;
pub mod partition;
pub mod store;

pub use crate::delta::{DeltaGraph, EdgeDelta};
pub use crate::graph::{Csr, Edge, EdgeRankIndex, Graph, InvariantViolation, VertexId};
pub use crate::nbhood::NeighborhoodScratch;
pub use crate::ordering::{apply_ordering, ordering_permutation, OrderingKind};
pub use crate::partition::{BorderEdges, Partition, PartitionKind, RankEdges};

/// Normalise an edge so the smaller endpoint comes first.
///
/// Every API in the workspace stores undirected edges in this canonical
/// `(min, max)` form so edge sets can be compared structurally.
#[inline]
pub fn norm_edge(u: VertexId, v: VertexId) -> Edge {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}
