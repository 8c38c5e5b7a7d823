//! Gene-Ontology substrate and **edge enrichment** cluster scoring
//! (paper §IV-A, "Cluster annotation and scoring", after Dempsey et al.
//! 2011).
//!
//! The real pipeline maps genes onto the GO *biological process* tree and
//! scores an edge `(n1, n2)` by finding the **deepest common parent**
//! (DCP) of the two genes' terms: `score = DCP depth − term breadth`,
//! where depth is the distance from the ROOT to the DCP and breadth is the
//! length of the shortest path between the two terms. Cluster score =
//! **AEES**, the average edge enrichment score; the dominant DCP term
//! annotates the cluster's function.
//!
//! Since the MGI/NCBI annotation databases are not available offline, this
//! crate builds a *synthetic* GO-like DAG and wires gene annotations to
//! the planted co-expression modules of the synthetic expression data:
//! genes of a module share a deep term (true biology ⇒ high AEES), noise
//! genes carry random terms (coincidental edges ⇒ low/negative scores).
//! The scoring machinery itself is exactly the published method, so the
//! TP/FP/FN/TN analysis downstream behaves as in the paper.

pub mod dag;
pub mod enrichment;
pub mod node_enrichment;

pub use dag::{GoDag, TermId};
pub use enrichment::{
    synthetic_annotation, AnnotatedOntology, ClusterAnnotation, EnrichmentScorer, TermOffset,
};
pub use node_enrichment::{
    enrich_cluster, hypergeometric_tail, ln_factorial_table, EnrichedTerm, EnrichmentIndex,
};
