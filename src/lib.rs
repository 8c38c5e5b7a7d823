//! # CASBN — Chordal Adaptive Sampling for Biological Networks
//!
//! A Rust reproduction of *"The Development of Parallel Adaptive Sampling
//! Algorithms for Analyzing Biological Networks"* (Cooper/Dempsey,
//! Duraisamy, Bhowmick, Ali — IPPS 2012).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`graph`] — graph structures, orderings, partitioners, generators,
//!   and the zero-allocation neighbourhood kernels (`graph::nbhood`).
//! * [`expr`] — synthetic microarray data and Pearson correlation networks.
//! * [`chordal`] — chordality testing and maximal chordal subgraphs.
//! * [`distsim`] — the distributed-memory (MPI-like) execution substrate.
//! * [`sampling`] — the paper's parallel adaptive sampling filters.
//! * [`mcode`] — MCODE graph clustering.
//! * [`ontology`] — GO-like DAG and edge-enrichment cluster scoring.
//! * [`analysis`] — cluster overlap / sensitivity / specificity evaluation.
//! * [`stream`] — the incremental streaming subsystem: online
//!   correlation, edge deltas, incremental chordal filtering.
//! * [`store`] — the `.csbn` versioned binary artifact container:
//!   graph/matrix/cluster sections and stream checkpoints
//!   (codecs live in `graph::store`, `expr::store`, `mcode::store`).
//! * [`fuzz`] — deterministic structure-aware fuzzing and
//!   differential-oracle harness over every input surface (driven by
//!   the `casbn fuzz` subcommand and the CI fuzz-smoke job).
//! * [`obs`] — deterministic telemetry: sharded counters/histograms,
//!   RAII spans with a deterministic-vs-wall field split, and versioned
//!   JSON metric snapshots (surfaced as `casbn <cmd> --metrics`).
//! * [`serve`] — the resident query daemon: immutable serving
//!   snapshots with rho/membership/enrichment indices, a batched
//!   execution core, a length-prefixed request/response protocol, and
//!   snapshot rotation under concurrent stream ingest (`casbn serve`).
//!
//! ## Quickstart
//!
//! ```
//! use casbn::prelude::*;
//!
//! // A small correlation-network-like graph: dense modules + noise.
//! let (g, _truth) = casbn::graph::generators::planted_partition(
//!     200, 4, 10, 0.9, 60, 42,
//! );
//! // Filter it with the communication-free parallel chordal sampler on 4
//! // simulated processors.
//! let filter = ParallelChordalNoCommFilter::new(4, PartitionKind::Block);
//! let sampled = filter.filter(&g, 42);
//! assert!(sampled.graph.m() <= g.m());
//! // Cluster both and compare.
//! let orig_clusters = mcode_cluster(&g, &McodeParams::default());
//! let filt_clusters = mcode_cluster(&sampled.graph, &McodeParams::default());
//! assert!(!orig_clusters.is_empty());
//! let _ = filt_clusters.len();
//! ```

#![deny(rustdoc::broken_intra_doc_links)]
#![deny(missing_docs)]

pub use casbn_analysis as analysis;
pub use casbn_chordal as chordal;
pub use casbn_core as sampling;
pub use casbn_distsim as distsim;
pub use casbn_expr as expr;
pub use casbn_fuzz as fuzz;
pub use casbn_graph as graph;
pub use casbn_mcode as mcode;
pub use casbn_obs as obs;
pub use casbn_ontology as ontology;
pub use casbn_serve as serve;
pub use casbn_store as store;
pub use casbn_stream as stream;

/// Convenient glob-import surface covering the common pipeline.
pub mod prelude {
    pub use casbn_analysis::{
        classify_quadrants, lost_and_found, overlap_table, ClusterComparison, Quadrant,
        SensitivitySpecificity,
    };
    pub use casbn_chordal::{
        is_chordal, maximal_chordal_subgraph, maximal_chordal_subgraph_with, DswScratch,
    };
    pub use casbn_core::IncrementalChordal;
    pub use casbn_core::{
        break_cycles, Filter, FilterOutput, ForestFireFilter, ParallelChordalCommFilter,
        ParallelChordalNoCommFilter, ParallelRandomWalkFilter, RandomEdgeFilter, RandomNodeFilter,
        SequentialChordalFilter,
    };
    pub use casbn_expr::{CorrelationNetwork, DatasetPreset, SyntheticMicroarray};
    pub use casbn_graph::{
        apply_ordering, EdgeDelta, Graph, NeighborhoodScratch, OrderingKind, Partition,
        PartitionKind, VertexId,
    };
    pub use casbn_mcode::{mcode_cluster, mcode_cluster_into, Cluster, McodeParams, McodeScratch};
    pub use casbn_ontology::{enrich_cluster, AnnotatedOntology, EnrichmentScorer, GoDag};
    pub use casbn_serve::{Request, Response, ServeEngine, ServeSnapshot, SnapshotRegistry};
    pub use casbn_store::{SectionKind, Store, StoreError, StoreWriter};
    pub use casbn_stream::{synthesize_replay, OnlineCorrelation, StreamConfig, StreamDriver};
}
