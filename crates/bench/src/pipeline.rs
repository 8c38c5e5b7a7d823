//! End-to-end experiment wiring: dataset → filter(ordering) → clusters →
//! enrichment.

use casbn_core::{filter_with_ordering, Filter, FilterOutput};
use casbn_expr::{Dataset, DatasetPreset};
use casbn_graph::{Graph, OrderingKind};
use casbn_mcode::{mcode_cluster, Cluster, McodeParams};
use casbn_ontology::{AnnotatedOntology, ClusterAnnotation, EnrichmentScorer, GoDag};
// The serving tier's ontology shape, so experiment and serving DAGs
// cannot drift apart: deep enough that module terms (placed at depth 6)
// give AEES well above the 3.0 relevance cut.
use casbn_serve::snapshot::{
    GO_EXTRA_PARENT_P, GO_LEVELS, GO_WIDTH, MODULE_TERM_DEPTH, NOISE_TERMS,
};
use serde::{Deserialize, Serialize};

/// A cluster together with its GO enrichment annotation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnnotatedCluster {
    /// The MCODE cluster.
    pub cluster: Cluster,
    /// Its edge-enrichment annotation (AEES, dominant term, …).
    pub annotation: ClusterAnnotation,
}

/// One dataset loaded with its ontology, ready for filtering experiments.
pub struct Experiment {
    /// Which preset this is.
    pub preset: DatasetPreset,
    /// The built dataset (network + ground truth).
    pub dataset: Dataset,
    /// Synthetic GO annotations wired to the dataset's planted modules.
    pub ontology: AnnotatedOntology,
    /// MCODE parameters (paper defaults).
    pub mcode: McodeParams,
}

impl Experiment {
    /// Build the experiment for `preset` at `scale`, the fraction of the
    /// paper's genes and modules (1.0 is paper scale: YNG 5,348 genes,
    /// CRE 27,896 — use release builds there).
    pub fn new(preset: DatasetPreset, scale: f64) -> Self {
        let dataset = preset.build_scaled(scale);
        let dag = GoDag::generate(GO_LEVELS, GO_WIDTH, GO_EXTRA_PARENT_P, preset.seed() ^ 0x60);
        let ontology = AnnotatedOntology::synthetic(
            dataset.network.n(),
            &dataset.modules,
            dag,
            MODULE_TERM_DEPTH,
            NOISE_TERMS,
            preset.seed() ^ 0xA11,
        );
        Experiment {
            preset,
            dataset,
            ontology,
            mcode: McodeParams::default(),
        }
    }

    /// Cluster a (possibly filtered) graph and annotate every cluster.
    pub fn cluster(&self, graph: &Graph) -> Vec<AnnotatedCluster> {
        let scorer = EnrichmentScorer::new(&self.ontology);
        mcode_cluster(graph, &self.mcode)
            .into_iter()
            .map(|cluster| {
                let annotation = scorer.annotate_cluster(&cluster.edges);
                AnnotatedCluster {
                    cluster,
                    annotation,
                }
            })
            .collect()
    }

    /// Clusters of the unfiltered (original) network.
    pub fn original_clusters(&self) -> Vec<AnnotatedCluster> {
        self.cluster(&self.dataset.network)
    }

    /// Apply `filter` under `ordering` and return the output plus its
    /// annotated clusters.
    pub fn run_filter<F: Filter>(
        &self,
        ordering: OrderingKind,
        filter: &F,
        seed: u64,
    ) -> (FilterOutput, Vec<AnnotatedCluster>) {
        let out = filter_with_ordering(&self.dataset.network, ordering, filter, seed);
        let clusters = self.cluster(&out.graph);
        (out, clusters)
    }
}

/// Strip annotations, for the overlap routines that want bare clusters.
pub fn bare(clusters: &[AnnotatedCluster]) -> Vec<Cluster> {
    clusters.iter().map(|c| c.cluster.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbn_core::SequentialChordalFilter;

    fn quick() -> Experiment {
        Experiment::new(DatasetPreset::Yng, 0.12)
    }

    #[test]
    fn experiment_builds_consistently() {
        let e = quick();
        assert_eq!(e.ontology.annotations.len(), e.dataset.network.n());
        assert!(e.dataset.network.m() > 0);
    }

    #[test]
    fn original_network_yields_scored_clusters() {
        let e = quick();
        let clusters = e.original_clusters();
        assert!(!clusters.is_empty(), "original network must have clusters");
        // module-derived clusters must include some high-AEES ones
        let max_aees = clusters
            .iter()
            .map(|c| c.annotation.aees)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max_aees >= 3.0,
            "max AEES {max_aees:.2} below relevance cut"
        );
    }

    #[test]
    fn chordal_filtering_keeps_cluster_biology() {
        let e = quick();
        let f = SequentialChordalFilter::new();
        let (out, clusters) = e.run_filter(OrderingKind::HighDegree, &f, 0);
        assert!(out.graph.m() <= e.dataset.network.m());
        assert!(!clusters.is_empty(), "chordal filter must retain clusters");
    }
}
