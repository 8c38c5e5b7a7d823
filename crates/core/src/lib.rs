//! The paper's primary contribution: **parallel adaptive sampling filters**
//! for biological correlation networks (§III).
//!
//! "Adaptive" is the paper's term for objective-driven sampling: instead of
//! preserving generic graph statistics (what random-walk style samplers
//! do), the filter is chosen to match the analysis objective — here,
//! retaining dense gene modules while discarding noise edges. The filters:
//!
//! * [`SequentialChordalFilter`] — maximal chordal subgraph of the whole
//!   network (Dearing–Shier–Warner via [`casbn_chordal`]).
//! * [`ParallelChordalCommFilter`] — the authors' earlier (HPCS'11)
//!   distributed algorithm: local chordal subgraphs + pairwise **border
//!   edge exchange**, sender/receiver per processor pair. Scalability
//!   suffers as `O(b²/d)` in the border count `b`.
//! * [`ParallelChordalNoCommFilter`] — **this paper's algorithm**: local
//!   chordal subgraphs + a communication-free border rule (a pair of
//!   border edges at a common foreign vertex is kept iff the local edge
//!   closing the triangle is a chordal edge). Output is a *quasi-chordal
//!   subgraph* (QCS): large cycles can survive across partitions and
//!   border edges can be duplicated (deduplicated during assembly, with
//!   the duplicate count reported — paper bound: ≤ b duplications).
//! * [`ParallelRandomWalkFilter`] — the control filter: per-partition
//!   vertex sweeps of 1/d edge choices until |E|/2 selections, border
//!   edges kept on an unbiased per-edge coin flip.
//! * [`IncrementalChordal`] — the streaming counterpart of the sequential
//!   chordal filter: maintains a chordal subgraph of a live network
//!   [`casbn_graph::Graph`] under edge-delta batches instead of
//!   re-running DSW from scratch ([`incremental`]).
//!
//! Every filter implements [`Filter`] and reports a [`FilterStats`] with
//! both real wall-clock and the [`casbn_distsim`] simulated makespan, the
//! latter being what the scalability figure (Fig. 10) plots. The paper's
//! filters have one configuration each: DSW under its maximum-cardinality
//! selection, simulated time under [`casbn_distsim::CostModel::default`].

pub mod baselines;
pub mod chordal_filters;
pub mod cycle_break;
pub mod filter;
pub mod incremental;
pub mod random_walk;

pub use baselines::{ForestFireFilter, RandomEdgeFilter, RandomNodeFilter};
pub use chordal_filters::{
    ParallelChordalCommFilter, ParallelChordalNoCommFilter, SequentialChordalFilter,
};
pub use cycle_break::{break_cycles, CycleBreakReport};
pub use filter::{Filter, FilterOutput, FilterStats};
pub use incremental::{IncBatchStats, IncrementalChordal};
pub use random_walk::ParallelRandomWalkFilter;

use casbn_graph::{apply_ordering, Graph, OrderingKind};

/// Apply `filter` to `g` under the vertex ordering `kind` (paper §III-A,
/// "Effect of Vertex Ordering"), returning the sampled graph **in the
/// original vertex labels** so downstream cluster comparison works across
/// orderings.
///
/// The ordering relabels the graph; the filter's traversal follows the new
/// labels (tie-breaking, start vertex, partition layout); the result is
/// mapped back through the inverse permutation.
pub fn filter_with_ordering<F: Filter>(
    g: &Graph,
    kind: OrderingKind,
    filter: &F,
    seed: u64,
) -> FilterOutput {
    let (h, perm) = apply_ordering(g, kind);
    let mut out = filter.filter(&h, seed);
    let mut inv = vec![0u32; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        inv[new as usize] = old as u32;
    }
    out.graph = out.graph.permuted(&inv);
    out
}

#[cfg(test)]
mod ordering_tests {
    use super::*;
    use casbn_graph::generators::planted_partition;
    use casbn_graph::PartitionKind;

    #[test]
    fn filtered_graph_is_in_original_labels() {
        let (g, _) = planted_partition(150, 3, 10, 0.9, 60, 3);
        let f = SequentialChordalFilter::new();
        for kind in OrderingKind::paper_set() {
            let out = filter_with_ordering(&g, kind, &f, 0);
            // a subgraph of g in g's own labels
            assert!(
                out.graph.edges().all(|(u, v)| g.has_edge(u, v)),
                "{kind:?} produced non-subgraph edges"
            );
        }
    }

    #[test]
    fn orderings_change_the_result_but_not_wildly() {
        let (g, _) = planted_partition(200, 4, 10, 0.9, 120, 9);
        let f = SequentialChordalFilter::new();
        let sizes: Vec<usize> = OrderingKind::paper_set()
            .iter()
            .map(|&k| filter_with_ordering(&g, k, &f, 0).graph.m())
            .collect();
        let (lo, hi) = (
            *sizes.iter().min().unwrap() as f64,
            *sizes.iter().max().unwrap() as f64,
        );
        assert!(hi > 0.0);
        // H0b regime: subgraph sizes differ across orderings by < 30%
        assert!(lo / hi > 0.7, "ordering spread too wide: {sizes:?}");
    }

    #[test]
    fn natural_ordering_is_identity_pipeline() {
        let (g, _) = planted_partition(100, 2, 8, 0.9, 40, 1);
        let f = ParallelChordalNoCommFilter::new(2, PartitionKind::Block);
        let direct = f.filter(&g, 0);
        let via = filter_with_ordering(&g, OrderingKind::Natural, &f, 0);
        assert!(direct.graph.same_edges(&via.graph));
    }
}
