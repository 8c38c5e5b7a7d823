//! Edge-delta batches and the CSR-backed [`DeltaGraph`] they mutate.
//!
//! The streaming pipeline (`casbn_stream`) maintains a correlation network
//! *incrementally*: every ingest window produces an [`EdgeDelta`] — the
//! edges that crossed the ρ threshold and the edges that fell back below
//! it — and applies it to a [`DeltaGraph`]. The delta graph keeps a
//! compacted CSR snapshot plus small sorted per-vertex overlays of
//! not-yet-compacted inserts/removes, so applying a batch is `O(batch ·
//! log d)` instead of an `O(n + m)` rebuild. Once the overlay grows past a
//! compaction threshold, the overlay is merged into a fresh CSR and the
//! *epoch* advances. Downstream consumers (the filters, MCODE) never see
//! the overlay: [`DeltaGraph::snapshot`] materialises a plain [`Graph`]
//! view of the current state.

use crate::graph::{Csr, Edge, Graph, InvariantViolation, VertexId};
use serde::{Deserialize, Serialize};

/// One batch of edge changes, canonical `(min, max)` edges.
///
/// Produced by the online correlation accumulator after each ingest
/// window and consumed by [`DeltaGraph::apply`] and the incremental
/// chordal maintainer.
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

/// A dynamic undirected graph: a compacted CSR base plus per-vertex
/// insert/remove overlays, with epoch-based compaction.
///
/// Invariants:
///
/// * overlay `add` lists are sorted, disjoint from the base adjacency;
/// * overlay `del` lists are sorted subsets of the base adjacency;
/// * `m` always equals the number of live undirected edges.
#[derive(Clone, Debug)]
pub struct DeltaGraph {
    base: Csr,
    add: Vec<Vec<VertexId>>,
    del: Vec<Vec<VertexId>>,
    /// Live undirected edges.
    m: usize,
    /// Undirected overlay entries (inserts + removes) since compaction.
    pending: usize,
    /// Compaction generation: bumps every time the overlay folds into the
    /// base CSR.
    epoch: u64,
    /// Overlay size that triggers automatic compaction in `apply`.
    threshold: usize,
}

/// Default overlay size before [`DeltaGraph::apply`] compacts, for graphs
/// too small for the vertex-count heuristic to matter.
const MIN_COMPACTION_THRESHOLD: usize = 256;

impl DeltaGraph {
    /// An edgeless delta graph over `n` vertices.
    ///
    /// The automatic compaction threshold defaults to `max(n/4, 256)`
    /// overlay entries; tune it with
    /// [`DeltaGraph::with_compaction_threshold`].
    pub fn new(n: usize) -> Self {
        Self::from_graph(&Graph::new(n))
    }

    /// Start from an existing graph (becomes the epoch-0 base snapshot).
    pub fn from_graph(g: &Graph) -> Self {
        DeltaGraph {
            base: g.to_csr(),
            add: vec![Vec::new(); g.n()],
            del: vec![Vec::new(); g.n()],
            m: g.m(),
            pending: 0,
            epoch: 0,
            threshold: (g.n() / 4).max(MIN_COMPACTION_THRESHOLD),
        }
    }

    /// Replace the automatic compaction threshold (overlay entries).
    pub fn with_compaction_threshold(mut self, threshold: usize) -> Self {
        self.threshold = threshold.max(1);
        self
    }

    /// Drop every edge, keeping the vertex count, the epoch counter and —
    /// crucially — all buffer capacity, so a long-lived delta graph can
    /// replay a fresh stream without re-paying its allocations (the perf
    /// baseline's `inc-chordal-yng` workload replays this way).
    pub fn clear(&mut self) {
        self.base.reset_empty(self.n());
        for l in &mut self.add {
            l.clear();
        }
        for l in &mut self.del {
            l.clear();
        }
        self.m = 0;
        self.pending = 0;
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.base.n()
    }

    /// Number of live undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Compaction generation (starts at 0, bumps per compaction).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Overlay entries accumulated since the last compaction.
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Whether the undirected edge `(u, v)` is live. Out-of-range
    /// endpoints are simply absent.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.n() || v as usize >= self.n() || u == v {
            return false;
        }
        if self.add[u as usize].binary_search(&v).is_ok() {
            return true;
        }
        if self.del[u as usize].binary_search(&v).is_ok() {
            return false;
        }
        self.base.has_edge(u, v)
    }

    /// Degree of `v` in the live graph.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    pub fn degree(&self, v: VertexId) -> usize {
        assert!(
            (v as usize) < self.n(),
            "vertex {v} out of range for delta graph with n={}",
            self.n()
        );
        self.base.degree(v) + self.add[v as usize].len() - self.del[v as usize].len()
    }

    /// The live sorted neighbour list of `v` (base minus removes plus
    /// overlay inserts, merged).
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    pub fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.neighbors_into(v, &mut out);
        out
    }

    /// Write the live sorted neighbour list of `v` into `out` (cleared
    /// first). Allocation-free once `out`'s capacity has ratcheted up —
    /// the hot-loop variant of [`DeltaGraph::neighbors`], used by the
    /// incremental chordal rebuilds to scan the network with one reusable
    /// scratch buffer.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()`.
    pub fn neighbors_into(&self, v: VertexId, out: &mut Vec<VertexId>) {
        assert!(
            (v as usize) < self.n(),
            "vertex {v} out of range for delta graph with n={}",
            self.n()
        );
        out.clear();
        out.reserve(self.base.neighbors(v).len() + self.add[v as usize].len());
        self.merge_neighbors_append(v, out);
    }

    /// Append the merged base+overlay neighbour list of `v` to `out`
    /// without clearing it (the compactor streams every vertex into one
    /// flat adjacency array this way).
    fn merge_neighbors_append(&self, v: VertexId, out: &mut Vec<VertexId>) {
        let base = self.base.neighbors(v);
        let add = &self.add[v as usize];
        let del = &self.del[v as usize];
        let (mut bi, mut ai, mut di) = (0usize, 0usize, 0usize);
        while bi < base.len() || ai < add.len() {
            let take_base = match (base.get(bi), add.get(ai)) {
                (Some(&b), Some(&a)) => b < a,
                (Some(_), None) => true,
                _ => false,
            };
            if take_base {
                let w = base[bi];
                bi += 1;
                while di < del.len() && del[di] < w {
                    di += 1;
                }
                if di < del.len() && del[di] == w {
                    di += 1;
                    continue;
                }
                out.push(w);
            } else {
                out.push(add[ai]);
                ai += 1;
            }
        }
    }

    /// Insert the undirected edge `(u, v)`. Returns `true` if it was
    /// newly added; `false` for self-loops and already-live edges.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        assert!(
            (u as usize) < self.n() && (v as usize) < self.n(),
            "edge ({u}, {v}) out of range for n={}",
            self.n()
        );
        if u == v || self.has_edge(u, v) {
            return false;
        }
        if Self::overlay_remove(&mut self.del, u, v) {
            // re-insert of a base edge pending removal: cancel the removal
            self.pending -= 1;
        } else {
            Self::overlay_insert(&mut self.add, u, v);
            self.pending += 1;
        }
        self.m += 1;
        true
    }

    /// Remove the undirected edge `(u, v)`. Returns `true` if it was live.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        if Self::overlay_remove(&mut self.add, u, v) {
            // the edge only ever lived in the overlay: cancel the insert
            self.pending -= 1;
        } else {
            Self::overlay_insert(&mut self.del, u, v);
            self.pending += 1;
        }
        self.m -= 1;
        true
    }

    /// Apply a delta batch (removes first, then inserts) and compact if
    /// the overlay crossed the threshold. Returns `(inserted, removed)` —
    /// the counts of edges that actually changed state.
    pub fn apply(&mut self, delta: &EdgeDelta) -> (usize, usize) {
        let mut removed = 0usize;
        for &(u, v) in &delta.removes {
            if self.remove_edge(u, v) {
                removed += 1;
            }
        }
        let mut inserted = 0usize;
        for &(u, v) in &delta.inserts {
            if self.insert_edge(u, v) {
                inserted += 1;
            }
        }
        if self.pending > self.threshold {
            self.compact();
        }
        (inserted, removed)
    }

    /// Fold the overlay into a fresh base CSR and advance the epoch.
    /// No-op (epoch unchanged) when the overlay is empty. The merged
    /// lists stream straight into the new CSR's flat arrays — two
    /// allocations total instead of one per vertex.
    pub fn compact(&mut self) {
        if self.pending == 0 {
            return;
        }
        let n = self.n();
        let mut xadj = Vec::with_capacity(n + 1);
        let mut adjncy: Vec<VertexId> = Vec::with_capacity(2 * self.m);
        xadj.push(0u32);
        for v in 0..n as VertexId {
            self.merge_neighbors_append(v, &mut adjncy);
            xadj.push(adjncy.len() as u32);
        }
        self.base = Csr::from_parts(xadj, adjncy);
        for l in &mut self.add {
            l.clear();
        }
        for l in &mut self.del {
            l.clear();
        }
        self.pending = 0;
        self.epoch += 1;
    }

    /// Materialise the live graph as a plain [`Graph`] — the view every
    /// downstream filter consumes. Does not compact. Builds the adjacency
    /// lists directly from the merged base+overlay views (no per-edge
    /// binary-search inserts).
    pub fn snapshot(&self) -> Graph {
        let adj: Vec<Vec<VertexId>> = (0..self.n() as VertexId)
            .map(|v| self.neighbors(v))
            .collect();
        Graph::from_sorted_adj_vecs(adj, self.m)
    }

    /// Expose the internal state for the `.csbn` checkpoint codec
    /// (`crate::store`): base CSR, insert/remove overlays, live edge
    /// count, pending overlay entries, epoch and compaction threshold.
    #[allow(clippy::type_complexity)] // internal one-caller accessor
    pub(crate) fn raw_parts(
        &self,
    ) -> (
        &Csr,
        &[Vec<VertexId>],
        &[Vec<VertexId>],
        usize,
        usize,
        u64,
        usize,
    ) {
        (
            &self.base,
            &self.add,
            &self.del,
            self.m,
            self.pending,
            self.epoch,
            self.threshold,
        )
    }

    /// Reassemble a delta graph from checkpointed state, re-validating
    /// every invariant the mutators maintain (overlay lists sorted and
    /// symmetric, `add` disjoint from the base, `del` a subset of it,
    /// and the edge/pending counters consistent). `base` must already
    /// be a valid CSR ([`Csr::try_from_parts`]).
    pub(crate) fn from_raw_parts(
        base: Csr,
        add: Vec<Vec<VertexId>>,
        del: Vec<Vec<VertexId>>,
        epoch: u64,
        threshold: usize,
    ) -> Result<DeltaGraph, InvariantViolation> {
        let n = base.n();
        if add.len() != n || del.len() != n {
            return Err(InvariantViolation(
                "overlay vertex count differs from the base graph",
            ));
        }
        let mut overlay_entries = 0usize;
        for (lists, other, in_base) in [(&add, &del, false), (&del, &add, true)] {
            for v in 0..n as VertexId {
                let list = &lists[v as usize];
                overlay_entries += list.len();
                if list.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(InvariantViolation(
                        "overlay lists must be sorted and duplicate-free",
                    ));
                }
                for &w in list {
                    if w as usize >= n {
                        return Err(InvariantViolation("overlay neighbour id out of range"));
                    }
                    if w == v {
                        return Err(InvariantViolation("overlay self-loop"));
                    }
                    if lists[w as usize].binary_search(&v).is_err() {
                        return Err(InvariantViolation("overlay lists not symmetric"));
                    }
                    if base.neighbors(v).binary_search(&w).is_ok() != in_base {
                        return Err(InvariantViolation(if in_base {
                            "remove overlay entry missing from the base graph"
                        } else {
                            "insert overlay entry already in the base graph"
                        }));
                    }
                    if other[v as usize].binary_search(&w).is_ok() {
                        return Err(InvariantViolation("edge present in both overlays"));
                    }
                }
            }
        }
        let add_total: usize = add.iter().map(Vec::len).sum();
        let del_total: usize = del.iter().map(Vec::len).sum();
        debug_assert_eq!(overlay_entries, add_total + del_total);
        let m = base.m() + add_total / 2 - del_total / 2;
        Ok(DeltaGraph {
            base,
            add,
            del,
            m,
            pending: (add_total + del_total) / 2,
            epoch,
            threshold: threshold.max(1),
        })
    }

    /// Insert `v` into `lists[u]` and `u` into `lists[v]` (sorted).
    fn overlay_insert(lists: &mut [Vec<VertexId>], u: VertexId, v: VertexId) {
        for (a, b) in [(u, v), (v, u)] {
            let l = &mut lists[a as usize];
            if let Err(pos) = l.binary_search(&b) {
                l.insert(pos, b);
            }
        }
    }

    /// Remove the symmetric pair from `lists` if present; `true` on hit.
    fn overlay_remove(lists: &mut [Vec<VertexId>], u: VertexId, v: VertexId) -> bool {
        let Ok(pos) = lists[u as usize].binary_search(&v) else {
            return false;
        };
        lists[u as usize].remove(pos);
        let pos = lists[v as usize]
            .binary_search(&u)
            .expect("overlay lists out of sync");
        lists[v as usize].remove(pos);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnm;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn empty_delta_graph() {
        let d = DeltaGraph::new(4);
        assert_eq!(d.n(), 4);
        assert_eq!(d.m(), 0);
        assert_eq!(d.epoch(), 0);
        assert!(!d.has_edge(0, 1));
        assert!(d.snapshot().same_edges(&Graph::new(4)));
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut d = DeltaGraph::new(5);
        assert!(d.insert_edge(0, 3));
        assert!(!d.insert_edge(3, 0), "idempotent");
        assert!(!d.insert_edge(2, 2), "self-loop rejected");
        assert_eq!(d.m(), 1);
        assert!(d.has_edge(3, 0));
        assert_eq!(d.neighbors(0), vec![3]);
        assert!(d.remove_edge(0, 3));
        assert!(!d.remove_edge(0, 3));
        assert_eq!(d.m(), 0);
        assert_eq!(d.pending(), 0, "insert+remove cancel in the overlay");
    }

    #[test]
    fn base_edge_removal_and_reinsert_cancel() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let mut d = DeltaGraph::from_graph(&g);
        assert!(d.remove_edge(0, 1));
        assert!(!d.has_edge(0, 1));
        assert_eq!(d.pending(), 1);
        assert!(d.insert_edge(0, 1));
        assert!(d.has_edge(0, 1));
        assert_eq!(d.pending(), 0, "remove+insert of a base edge cancel");
        assert_eq!(d.m(), 2);
    }

    #[test]
    fn apply_counts_effective_changes() {
        let mut d = DeltaGraph::new(6);
        let (ins, rem) = d.apply(&EdgeDelta {
            inserts: vec![(0, 1), (1, 2), (0, 1)],
            removes: vec![(3, 4)],
        });
        assert_eq!(ins, 2, "duplicate insert does not count");
        assert_eq!(rem, 0, "removing an absent edge does not count");
        let (ins, rem) = d.apply(&EdgeDelta {
            inserts: vec![(2, 3)],
            removes: vec![(0, 1)],
        });
        assert_eq!((ins, rem), (1, 1));
        assert_eq!(d.m(), 2);
    }

    #[test]
    fn compaction_preserves_structure_and_bumps_epoch() {
        let g = gnm(40, 120, 7);
        let mut d = DeltaGraph::from_graph(&g).with_compaction_threshold(1_000_000);
        let mut mirror = g.clone();
        // edit: remove every 3rd edge, add a deterministic fresh set
        for (i, (u, v)) in g.edge_vec().into_iter().enumerate() {
            if i % 3 == 0 {
                d.remove_edge(u, v);
                mirror.remove_edge(u, v);
            }
        }
        for k in 0..30u32 {
            let (u, v) = (k % 40, (k * 7 + 1) % 40);
            if u != v && !mirror.has_edge(u, v) {
                mirror.add_edge(u, v);
                d.insert_edge(u, v);
            }
        }
        assert_eq!(d.epoch(), 0);
        let before = d.snapshot();
        assert!(before.same_edges(&mirror));
        d.compact();
        assert_eq!(d.epoch(), 1);
        assert_eq!(d.pending(), 0);
        assert!(d.snapshot().same_edges(&mirror), "compaction changed edges");
        assert_eq!(d.m(), mirror.m());
        d.compact();
        assert_eq!(d.epoch(), 1, "empty compaction is a no-op");
    }

    #[test]
    fn auto_compaction_triggers_on_apply() {
        let mut d = DeltaGraph::new(100).with_compaction_threshold(10);
        let inserts: Vec<Edge> = (0..40u32).map(|i| (i, i + 50)).collect();
        d.apply(&EdgeDelta {
            inserts,
            removes: vec![],
        });
        assert!(d.epoch() >= 1, "overlay past threshold must compact");
        assert_eq!(d.pending(), 0);
        assert_eq!(d.m(), 40);
    }

    #[test]
    fn differential_against_plain_graph() {
        // random edit script: DeltaGraph must track Graph exactly,
        // across several compactions
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut d = DeltaGraph::new(30).with_compaction_threshold(16);
        let mut mirror = Graph::new(30);
        for _ in 0..2_000 {
            let u = rng.gen_range(0..30u32);
            let v = rng.gen_range(0..30u32);
            if rng.gen_range(0..100) < 60 {
                assert_eq!(d.insert_edge(u, v), mirror.add_edge(u, v), "ins ({u},{v})");
            } else {
                assert_eq!(
                    d.remove_edge(u, v),
                    mirror.remove_edge(u, v),
                    "rem ({u},{v})"
                );
            }
            // periodic auto-compaction path
            if d.pending() > 16 {
                d.compact();
            }
        }
        assert!(d.epoch() > 0, "edit script must have compacted");
        assert_eq!(d.m(), mirror.m());
        assert!(d.snapshot().same_edges(&mirror));
        for v in 0..30u32 {
            assert_eq!(d.neighbors(v), mirror.neighbors(v).to_vec(), "nbrs {v}");
            assert_eq!(d.degree(v), mirror.degree(v));
        }
    }

    #[test]
    fn clear_empties_but_keeps_vertices_and_epoch() {
        let g = gnm(30, 90, 3);
        let mut d = DeltaGraph::from_graph(&g).with_compaction_threshold(8);
        for k in 0..20u32 {
            d.insert_edge(k, (k + 7) % 30);
            d.remove_edge(k % 5, (k + 1) % 5);
        }
        d.compact();
        let epoch = d.epoch();
        d.clear();
        assert_eq!(d.n(), 30);
        assert_eq!(d.m(), 0);
        assert_eq!(d.pending(), 0);
        assert_eq!(d.epoch(), epoch, "clear keeps the epoch counter");
        assert!(d.snapshot().same_edges(&Graph::new(30)));
        // a cleared graph replays identically to a fresh one
        assert!(d.insert_edge(1, 2));
        assert_eq!(d.neighbors(1), vec![2]);
    }

    #[test]
    fn out_of_range_is_absent_and_panics_on_mutation() {
        let d = DeltaGraph::new(3);
        assert!(!d.has_edge(0, 9));
        let r = std::panic::catch_unwind(|| {
            let mut d = DeltaGraph::new(3);
            d.insert_edge(0, 9);
        });
        assert!(r.is_err(), "out-of-range insert must panic");
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
