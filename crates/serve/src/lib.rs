//! Resident concurrent query daemon over the CASBN pipeline.
//!
//! Every other entry point in the workspace is a one-shot CLI
//! invocation that re-opens its artifacts per run. This crate is the
//! **serving tier** (ROADMAP item 2): the network, its MCODE clusters
//! and the rho/enrichment indices stay resident, and queries — gene
//! neighborhood, cluster membership, rho lookup, gene-set enrichment —
//! are answered over a length-prefixed request/response protocol.
//!
//! * [`protocol`] — the frame codec: bounds-checked, typed errors,
//!   canonical payloads (`casbn fuzz --target csbn-serve` hammers it).
//! * [`snapshot`] — immutable [`ServeSnapshot`]s (graph + clusters +
//!   membership/rho/enrichment indices) and the [`SnapshotRegistry`]
//!   rotation point.
//! * [`engine`] — the writer side: [`ServeEngine`] advances a
//!   [`casbn_stream::StreamDriver`] window by window, publishing a
//!   snapshot rotation and a durable checkpoint at every boundary.
//! * [`server`] — session loops: stdin/stdout pipe mode, the scripted
//!   deterministic client ([`run_script`]), a TCP listener, and
//!   graceful SIGINT/EOF drain. A session answers on its own thread,
//!   in batches of the requests that have arrived (at most 16).
//!
//! Concurrency model: each TCP connection is a session on its own
//! thread. Readers clone `Arc<ServeSnapshot>` handles from the registry
//! and never block the writer; the writer publishes whole snapshots
//! atomically. A reader that acquired a snapshot before a rotation keeps
//! answering from it consistently — there is no torn state to observe,
//! which the rotation test suite proves against a single-threaded
//! oracle.

pub mod engine;
pub mod protocol;
pub mod server;
pub mod snapshot;

pub use engine::{CheckpointSink, ServeEngine};
pub use protocol::{
    ClusterInfo, EnrichHit, ProtocolError, Request, Response, StatsInfo, MAX_FRAME,
};
pub use server::{
    install_sigint_handler, parse_script, responses_checksum, run_script, script_to_frames,
    serve_readonly_session, serve_session, serve_tcp, shutdown_flag, SessionConfig, SessionReport,
};
pub use snapshot::{ServeSnapshot, SnapshotContext, SnapshotRegistry};
