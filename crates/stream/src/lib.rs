//! Incremental streaming subsystem: online correlation, edge-delta
//! replay, and incremental chordal filtering.
//!
//! Everything upstream of this crate is batch: the paper's pipeline
//! assumes all microarray samples exist before the Pearson network is
//! built, so every new array means recomputing all `O(genes²)` pairs and
//! re-running DSW from scratch. This crate opens the **streaming
//! workload**: samples arrive in batches, and the network, its chordal
//! filter and its clusters are maintained *incrementally*:
//!
//! * [`OnlineCorrelation`] — per-gene Welford moments plus pairwise
//!   co-moment accumulators; ingests sample batches and emits
//!   [`casbn_graph::EdgeDelta`]s (edges crossing or falling below the ρ
//!   cut). Accumulator state is bit-identical under any batching of the
//!   same sample stream.
//! * [`casbn_graph::Graph::apply`] — applies each delta to the live
//!   network, a plain [`casbn_graph::Graph`].
//! * [`casbn_core::IncrementalChordal`] — maintains a chordal subgraph
//!   under deltas (exact local admissibility test for inserts, regional
//!   DSW rebuilds for deletes), charged to the `casbn_distsim` LogP
//!   clock.
//! * [`StreamDriver`] — replays a sample stream in windows, re-clusters
//!   with MCODE each window, and reports churn, cluster stability and
//!   simulated/wall latency per window (`casbn stream` on the CLI).
//! * [`replay`] — the sample-major on-disk stream format and the
//!   deterministic preset-based replay synthesizer.
//!
//! The driver's complete state — accumulators (whose membership bitset
//! is the network, stored once), chordal subgraph, window history —
//! checkpoints into a `.csbn` container
//! ([`StreamDriver::checkpoint_bytes`]) and resumes bit-identically
//! ([`StreamDriver::resume_from`]): a resumed run reproduces the
//! uninterrupted run's final checksum exactly (`casbn stream
//! --checkpoint/--resume` on the CLI).

pub mod driver;
pub mod online;
pub mod replay;

pub use driver::{
    rebuild_sim_seconds, StreamConfig, StreamDriver, StreamSummary, WindowReport,
    CHECKPOINT_CHORDAL_TAG,
};
pub use online::OnlineCorrelation;
pub use replay::{read_replay, synthesize_replay, write_replay, ReplayError};
