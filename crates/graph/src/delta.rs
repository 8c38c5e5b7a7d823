//! Edge-delta batches and the [`Graph`] methods that apply them.
//!
//! The streaming pipeline (`casbn_stream`) maintains a correlation network
//! *incrementally*: every ingest window produces an [`EdgeDelta`] — the
//! edges that crossed the ρ threshold and the edges that fell back below
//! it — and applies it to the live network, a plain [`Graph`], with
//! [`Graph::apply`]. Each change is one sorted-list insert or remove, so a
//! batch costs `O(batch · d)` instead of an `O(n + m)` rebuild, and the
//! filters, MCODE and the serving snapshot read the network directly.

use crate::graph::{Edge, Graph};
use serde::{Deserialize, Serialize};

/// One batch of edge changes, canonical `(min, max)` edges.
///
/// Produced by the online correlation accumulator after each ingest
/// window and consumed by [`Graph::apply`] and the incremental chordal
/// maintainer.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeDelta {
    /// Edges that newly satisfy the retention predicate, ascending.
    pub inserts: Vec<Edge>,
    /// Edges that no longer satisfy it, ascending.
    pub removes: Vec<Edge>,
}

impl EdgeDelta {
    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.removes.is_empty()
    }

    /// Total number of edge changes (inserts + removes).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.removes.len()
    }
}

/// The streaming network's former name. The network is a plain
/// [`Graph`]; the alias stays only because the `perfbench` benchmark
/// still names it (`DeltaGraph::new`).
pub type DeltaGraph = Graph;

impl Graph {
    /// Apply a delta batch (removes first, then inserts). Returns
    /// `(inserted, removed)` — the counts of edges that actually changed
    /// state, so duplicate inserts and removes of absent edges count 0.
    ///
    /// # Panics
    ///
    /// Panics if an inserted edge has an endpoint `>= self.n()`.
    pub fn apply(&mut self, delta: &EdgeDelta) -> (usize, usize) {
        let removed = delta
            .removes
            .iter()
            .filter(|&&(u, v)| self.remove_edge(u, v))
            .count();
        let inserted = delta
            .inserts
            .iter()
            .filter(|&&(u, v)| self.add_edge(u, v))
            .count();
        (inserted, removed)
    }

    /// An owned copy of the graph, the same as `clone()`. It stays only
    /// because the `perfbench` benchmark still calls it on the streaming
    /// network.
    pub fn snapshot(&self) -> Graph {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_counts_effective_changes() {
        let mut g = Graph::new(6);
        let (ins, rem) = g.apply(&EdgeDelta {
            inserts: vec![(0, 1), (1, 2), (0, 1)],
            removes: vec![(3, 4)],
        });
        assert_eq!(ins, 2, "duplicate insert does not count");
        assert_eq!(rem, 0, "removing an absent edge does not count");
        let (ins, rem) = g.apply(&EdgeDelta {
            inserts: vec![(2, 3)],
            removes: vec![(0, 1)],
        });
        assert_eq!((ins, rem), (1, 1));
        assert_eq!(g.m(), 2);
        assert!(g.same_edges(&Graph::from_edges(6, &[(1, 2), (2, 3)])));
    }

    #[test]
    fn apply_removes_before_inserts() {
        // an edge named on both sides ends up present: the remove runs
        // first, then the insert puts it back
        let mut g = Graph::from_edges(4, &[(0, 1)]);
        let both = EdgeDelta {
            inserts: vec![(0, 1), (2, 3)],
            removes: vec![(0, 1), (2, 3)],
        };
        assert_eq!(g.apply(&both), (2, 1), "(2,3) was absent when removed");
        assert!(g.has_edge(0, 1) && g.has_edge(2, 3));
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn snapshot_is_an_owned_copy() {
        let mut g = Graph::from_edges(3, &[(0, 1)]);
        let snap = g.snapshot();
        g.apply(&EdgeDelta {
            inserts: vec![(1, 2)],
            removes: vec![(0, 1)],
        });
        assert!(snap.same_edges(&Graph::from_edges(3, &[(0, 1)])));
        assert_eq!(g.edge_vec(), vec![(1, 2)]);
    }

    #[test]
    fn edge_delta_len_and_empty() {
        let e = EdgeDelta::default();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let e = EdgeDelta {
            inserts: vec![(0, 1)],
            removes: vec![(1, 2), (2, 3)],
        };
        assert!(!e.is_empty());
        assert_eq!(e.len(), 3);
    }
}
