//! Core undirected graph structure with sorted adjacency lists.

use serde::{Deserialize, Serialize};

/// Vertex identifier. Kept at 32 bits: the paper's largest network has
/// 27,896 vertices, and 32-bit ids halve the memory traffic of adjacency
/// scans relative to `usize`.
pub type VertexId = u32;

/// Canonical undirected edge, always stored as `(min, max)`.
pub type Edge = (VertexId, VertexId);

/// A simple undirected graph.
///
/// Invariants maintained by every constructor and mutator:
///
/// * adjacency lists are sorted ascending and contain no duplicates,
/// * no self-loops,
/// * `m` equals the number of undirected edges (each edge appears in exactly
///   two adjacency lists).
///
/// `has_edge` is a binary search (`O(log d)`), which keeps the
/// Dearing–Shier–Warner candidate updates and the MCODE neighbourhood
/// density computations within their published complexity bounds.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Graph {
    adj: Vec<Vec<VertexId>>,
    m: usize,
}

impl Graph {
    /// Create an edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Build a graph from an edge list. Duplicate edges and self-loops are
    /// ignored. Vertex count is `n`; any edge endpoint `>= n` panics.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Graph::build(n, || edges.iter().copied())
    }

    /// The bulk builder behind [`Graph::from_edges`] and
    /// [`Graph::permuted`]: count every vertex's degree, reserve each list
    /// exactly, push both directions of every edge, then sort and dedup
    /// each list. `edges` is called twice and must yield the same edges
    /// both times. Self-loops are skipped, a repeated edge (in either
    /// direction) counts once, and the first endpoint `>= n` panics with
    /// the message [`Graph::add_edge`] gives.
    fn build<I: Iterator<Item = Edge>>(n: usize, edges: impl Fn() -> I) -> Self {
        let mut degree = vec![0u32; n];
        for (u, v) in edges() {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of range for n={n}"
            );
            if u != v {
                degree[u as usize] += 1;
                degree[v as usize] += 1;
            }
        }
        let mut adj: Vec<Vec<VertexId>> = degree
            .iter()
            .map(|&d| Vec::with_capacity(d as usize))
            .collect();
        for (u, v) in edges() {
            if u != v {
                adj[u as usize].push(v);
                adj[v as usize].push(u);
            }
        }
        let mut ends = 0;
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            ends += list.len();
        }
        Graph { adj, m: ends / 2 }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.n()` (see [`Graph::neighbors`]).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Sorted neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if `v >= self.n()`. Use
    /// [`Graph::try_neighbors`] for the non-panicking variant.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        assert!(
            (v as usize) < self.n(),
            "vertex {v} out of range for graph with n={}",
            self.n()
        );
        &self.adj[v as usize]
    }

    /// Sorted neighbours of `v`, or `None` when `v` is out of range.
    #[inline]
    pub fn try_neighbors(&self, v: VertexId) -> Option<&[VertexId]> {
        self.adj.get(v as usize).map(Vec::as_slice)
    }

    /// Whether the undirected edge `(u, v)` is present.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.n() || v as usize >= self.n() {
            return false;
        }
        // Search the shorter list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a as usize].binary_search(&b).is_ok()
    }

    /// Insert the undirected edge `(u, v)`. Returns `true` if the edge was
    /// newly added, `false` if it already existed or is a self-loop.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        assert!(
            (u as usize) < self.n() && (v as usize) < self.n(),
            "edge ({u}, {v}) out of range for n={}",
            self.n()
        );
        if u == v {
            return false;
        }
        let pos = match self.adj[u as usize].binary_search(&v) {
            Ok(_) => return false,
            Err(p) => p,
        };
        self.adj[u as usize].insert(pos, v);
        let pos = self.adj[v as usize]
            .binary_search(&u)
            .expect_err("adjacency lists out of sync");
        self.adj[v as usize].insert(pos, u);
        self.m += 1;
        true
    }

    /// Remove the undirected edge `(u, v)`. Returns `true` if it was present.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.n() || v as usize >= self.n() || u == v {
            return false;
        }
        let pos = match self.adj[u as usize].binary_search(&v) {
            Ok(p) => p,
            Err(_) => return false,
        };
        self.adj[u as usize].remove(pos);
        let pos = self.adj[v as usize]
            .binary_search(&u)
            .expect("adjacency lists out of sync");
        self.adj[v as usize].remove(pos);
        self.m -= 1;
        true
    }

    /// Iterate all edges in canonical `(min, max)` order, ascending.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as VertexId;
            nbrs.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Collect all edges into a vector (canonical order).
    pub fn edge_vec(&self) -> Vec<Edge> {
        self.edges().collect()
    }

    /// Vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.n() as VertexId
    }

    /// The subgraph induced by `verts` (ids are remapped to `0..verts.len()`
    /// following the order of `verts`). Returns the subgraph and the map
    /// from new id to original id.
    pub fn induced_subgraph(&self, verts: &[VertexId]) -> (Graph, Vec<VertexId>) {
        let mut new_id = vec![VertexId::MAX; self.n()];
        for (i, &v) in verts.iter().enumerate() {
            new_id[v as usize] = i as VertexId;
        }
        let mut sg = Graph::new(verts.len());
        for &v in verts {
            for &w in self.neighbors(v) {
                if v < w && new_id[w as usize] != VertexId::MAX {
                    sg.add_edge(new_id[v as usize], new_id[w as usize]);
                }
            }
        }
        (sg, verts.to_vec())
    }

    /// Relabel vertices by `perm`, where `perm[old] = new`. The result has
    /// the same structure with vertex `old` renamed to `perm[old]`.
    pub fn permuted(&self, perm: &[VertexId]) -> Graph {
        assert_eq!(perm.len(), self.n(), "permutation length mismatch");
        Graph::build(self.n(), || {
            self.edges()
                .map(|(u, v)| (perm[u as usize], perm[v as usize]))
        })
    }

    /// Edge density `2m / (n (n-1))`; 0 for graphs with fewer than 2 vertices.
    pub fn density(&self) -> f64 {
        let n = self.n();
        if n < 2 {
            return 0.0;
        }
        (2.0 * self.m as f64) / (n as f64 * (n as f64 - 1.0))
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Remove every edge, retaining the per-vertex adjacency capacity so
    /// a reused output graph reaches a zero-allocation steady state (the
    /// scratch-threaded DSW and MCODE entry points rely on this).
    pub fn clear_edges(&mut self) {
        for l in &mut self.adj {
            l.clear();
        }
        self.m = 0;
    }

    /// Clear all edges and set the vertex count to `n`, reusing existing
    /// per-vertex list capacity where possible.
    pub fn reset(&mut self, n: usize) {
        self.clear_edges();
        // only growing allocates; repeated reuse at the same n is free
        self.adj.resize_with(n, Vec::new);
    }

    /// Drop every edge of the subgraph induced by `verts`, a **sorted**
    /// vertex set that is closed under adjacency (a union of connected
    /// components — no edge may leave the set; debug-asserted). Because
    /// both endpoints of every incident edge are in `verts`, clearing the
    /// adjacency lists in place removes exactly those edges in `O(Σ deg)`
    /// with capacity retained — the incremental chordal maintainer uses
    /// this to drop a rebuild region without per-edge removals.
    pub fn clear_component_edges(&mut self, verts: &[VertexId]) {
        debug_assert!(
            verts.windows(2).all(|w| w[0] < w[1]),
            "verts must be sorted"
        );
        debug_assert!(
            verts.iter().all(|&v| {
                self.neighbors(v)
                    .iter()
                    .all(|w| verts.binary_search(w).is_ok())
            }),
            "verts must be closed under adjacency"
        );
        let mut dropped = 0usize;
        for &v in verts {
            dropped += self.adj[v as usize].len();
            self.adj[v as usize].clear();
        }
        debug_assert_eq!(dropped % 2, 0);
        self.m -= dropped / 2;
    }

    /// Append the undirected edge `(u, v)` to both adjacency lists
    /// **without** restoring sorted order. Bulk builders (the DSW output
    /// assembly, the parallel filters' local-graph construction) push all
    /// edges and then call [`Graph::sort_adjacency`] once, replacing the
    /// per-edge `O(d)` binary-search insert of [`Graph::add_edge`] with a
    /// final `O(Σ d log d)` sort.
    ///
    /// The caller must guarantee `u != v`, in-range endpoints, and no
    /// duplicate edges; until [`Graph::sort_adjacency`] runs, queries on
    /// the graph are invalid. Violations are caught by debug assertions.
    #[inline]
    pub fn push_edge_unsorted(&mut self, u: VertexId, v: VertexId) {
        debug_assert!((u as usize) < self.n() && (v as usize) < self.n() && u != v);
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);
        self.m += 1;
    }

    /// Restore the sorted-adjacency invariant after a run of
    /// [`Graph::push_edge_unsorted`] calls (sorts every list in place;
    /// allocation-free). Debug builds verify no duplicates or self-loops
    /// were pushed.
    pub fn sort_adjacency(&mut self) {
        for (v, l) in self.adj.iter_mut().enumerate() {
            l.sort_unstable();
            debug_assert!(
                l.windows(2).all(|w| w[0] < w[1]),
                "duplicate edges pushed at vertex {v}"
            );
            debug_assert!(!l.contains(&(v as VertexId)), "self-loop pushed at {v}");
        }
    }

    /// Assemble a graph directly from per-vertex **sorted, symmetric**
    /// adjacency lists with `m` undirected edges (debug-asserted). Used
    /// by [`Csr::to_graph`], which already holds the sorted lists and
    /// would otherwise pay per-edge inserts.
    pub(crate) fn from_sorted_adj_vecs(adj: Vec<Vec<VertexId>>, m: usize) -> Graph {
        debug_assert!(adj.iter().all(|l| l.windows(2).all(|w| w[0] < w[1])));
        debug_assert_eq!(adj.iter().map(Vec::len).sum::<usize>(), 2 * m);
        Graph { adj, m }
    }

    /// Freeze into the read-only CSR form (the inverse of [`Csr::to_graph`]).
    pub fn to_csr(&self) -> Csr {
        let mut xadj = Vec::with_capacity(self.n() + 1);
        let mut adjncy = Vec::with_capacity(2 * self.m);
        xadj.push(0u32);
        for nbrs in &self.adj {
            adjncy.extend_from_slice(nbrs);
            xadj.push(adjncy.len() as u32);
        }
        Csr { xadj, adjncy }
    }

    /// Structural equality on the edge sets (vertex counts must match).
    pub fn same_edges(&self, other: &Graph) -> bool {
        self.n() == other.n() && self.adj == other.adj
    }
}

/// Compressed-sparse-row form of a [`Graph`]: an `n + 1` offset array
/// and a `2m` flat adjacency array.
///
/// Read-only. It is the layout of a `.csbn` graph section
/// ([`crate::store`]), which loads with two bulk array reads and one
/// invariant sweep instead of per-edge inserts.
#[derive(Clone, Debug)]
pub struct Csr {
    xadj: Vec<u32>,
    adjncy: Vec<VertexId>,
}

/// A structural invariant violated by data handed to a fallible graph
/// assembler ([`Csr::try_from_parts`]) — the typed form of "this
/// checksum-clean payload is still not a valid graph".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvariantViolation(pub &'static str);

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph invariant violated: {}", self.0)
    }
}

impl std::error::Error for InvariantViolation {}

impl From<InvariantViolation> for String {
    fn from(e: InvariantViolation) -> String {
        e.to_string()
    }
}

/// The full CSR invariant sweep behind [`Csr::try_from_parts`],
/// `O(n + m)` over the raw slices. Rejects non-monotone
/// offsets, out-of-range neighbours, unsorted or duplicated adjacency
/// lists, self-loops and asymmetric edges.
fn validate_csr_parts(xadj: &[u32], adjncy: &[VertexId]) -> Result<(), InvariantViolation> {
    if xadj.is_empty() || xadj[0] != 0 {
        return Err(InvariantViolation("offset array must start at 0"));
    }
    if *xadj.last().unwrap() as usize != adjncy.len() {
        return Err(InvariantViolation(
            "offset array does not cover the adjacency array",
        ));
    }
    if xadj.windows(2).any(|w| w[0] > w[1]) {
        return Err(InvariantViolation("offsets must be non-decreasing"));
    }
    let n = xadj.len() - 1;
    for v in 0..n {
        let list = &adjncy[xadj[v] as usize..xadj[v + 1] as usize];
        if list.windows(2).any(|w| w[0] >= w[1]) {
            return Err(InvariantViolation(
                "adjacency lists must be sorted and duplicate-free",
            ));
        }
        if list.iter().any(|&w| w as usize >= n) {
            return Err(InvariantViolation("neighbour id out of range"));
        }
        if list.binary_search(&(v as VertexId)).is_ok() {
            return Err(InvariantViolation("self-loop in adjacency list"));
        }
    }
    // symmetry in O(n + m): scanning sources ascending, the entries
    // naming v inside each neighbour's (sorted) list must appear in
    // exactly that order — one advancing cursor per vertex replaces
    // a binary search per directed edge
    let mut cursor: Vec<u32> = xadj[..n].to_vec();
    for v in 0..n {
        for &w in &adjncy[xadj[v] as usize..xadj[v + 1] as usize] {
            let c = cursor[w as usize];
            if c >= xadj[w as usize + 1] || adjncy[c as usize] != v as VertexId {
                return Err(InvariantViolation("adjacency lists not symmetric"));
            }
            cursor[w as usize] = c + 1;
        }
    }
    Ok(())
}

impl Csr {
    /// Assemble a CSR from offset + adjacency arrays with **full**
    /// validation, for data arriving from outside the process (the
    /// `.csbn` store loads graphs through this: checksum-clean section
    /// bytes become the backing arrays directly, with no per-edge
    /// parsing). Rejects non-monotone offsets, out-of-range neighbours,
    /// unsorted or duplicated adjacency lists, self-loops and asymmetric
    /// edges.
    pub fn try_from_parts(
        xadj: Vec<u32>,
        adjncy: Vec<VertexId>,
    ) -> Result<Csr, InvariantViolation> {
        validate_csr_parts(&xadj, &adjncy)?;
        Ok(Csr { xadj, adjncy })
    }

    /// The offset array (`n + 1` entries, `xadj[0] == 0`).
    #[inline]
    pub fn xadj(&self) -> &[u32] {
        &self.xadj
    }

    /// The flat adjacency array (`2m` entries, per-vertex sorted).
    #[inline]
    pub fn adjncy(&self) -> &[VertexId] {
        &self.adjncy
    }

    /// Thaw into a mutable [`Graph`] (per-vertex list copies; the
    /// inverse of [`Graph::to_csr`]).
    pub fn to_graph(&self) -> Graph {
        let adj: Vec<Vec<VertexId>> = (0..self.n() as VertexId)
            .map(|v| self.neighbors(v).to_vec())
            .collect();
        Graph::from_sorted_adj_vecs(adj, self.m())
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Sorted neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if `v >= self.n()`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        assert!(
            (v as usize) < self.n(),
            "vertex {v} out of range for CSR with n={}",
            self.n()
        );
        let s = self.xadj[v as usize] as usize;
        let e = self.xadj[v as usize + 1] as usize;
        &self.adjncy[s..e]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn new_graph_is_edgeless() {
        let g = Graph::new(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn add_edge_is_idempotent() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0));
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = Graph::new(3);
        assert!(!g.add_edge(1, 1));
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn adjacency_sorted_and_symmetric() {
        let g = Graph::from_edges(5, &[(3, 1), (0, 4), (1, 0), (4, 1)]);
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "unsorted at {v}");
            for &w in nbrs {
                assert!(g.neighbors(w).contains(&v));
            }
        }
    }

    #[test]
    fn has_edge_both_directions() {
        let g = path4();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 9)); // out of range is just "absent"
    }

    #[test]
    fn remove_edge_roundtrip() {
        let mut g = path4();
        assert!(g.remove_edge(1, 2));
        assert!(!g.remove_edge(1, 2));
        assert_eq!(g.m(), 2);
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn edges_canonical_and_complete() {
        let g = Graph::from_edges(4, &[(2, 0), (3, 2), (1, 0)]);
        let es = g.edge_vec();
        assert_eq!(es, vec![(0, 1), (0, 2), (2, 3)]);
    }

    #[test]
    fn induced_subgraph_remaps() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]);
        let (sg, map) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(sg.n(), 3);
        assert_eq!(sg.m(), 3); // (1,2),(2,3),(1,3) -> triangle
        assert_eq!(map, vec![1, 2, 3]);
    }

    #[test]
    fn permuted_preserves_structure() {
        let g = path4();
        // reverse labels
        let perm = vec![3, 2, 1, 0];
        let p = g.permuted(&perm);
        assert_eq!(p.m(), 3);
        assert!(p.has_edge(3, 2));
        assert!(p.has_edge(2, 1));
        assert!(p.has_edge(1, 0));
    }

    /// Per-edge `add_edge` inserts, the builder's oracle.
    fn inserted(n: usize, edges: impl IntoIterator<Item = Edge>) -> Graph {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    #[test]
    fn bulk_builder_matches_per_edge_inserts() {
        // self-loops, repeats in both directions, isolated vertices
        let edges = [
            (3, 1),
            (1, 3),
            (0, 4),
            (4, 4),
            (1, 0),
            (3, 1),
            (4, 1),
            (0, 1),
        ];
        let g = Graph::from_edges(6, &edges);
        assert!(g.same_edges(&inserted(6, edges)));
        assert_eq!(g.m(), 4);
        assert_eq!(Graph::from_edges(3, &[]).m(), 0);
        // a relabelling that is not a bijection folds edges together
        // and turns some into self-loops, as per-edge inserts would
        let dense = inserted(5, (0..5).flat_map(|u| (u + 1..5).map(move |v| (u, v))));
        for perm in [[4, 3, 2, 1, 0], [0, 0, 1, 1, 2], [2, 2, 2, 2, 2]] {
            let p = dense.permuted(&perm);
            let want = inserted(
                5,
                dense
                    .edges()
                    .map(|(u, v)| (perm[u as usize], perm[v as usize])),
            );
            assert!(p.same_edges(&want), "{perm:?}");
            assert_eq!(p.m(), want.m(), "{perm:?}");
        }
    }

    #[test]
    #[should_panic(expected = "edge (1, 5) out of range for n=5")]
    fn from_edges_out_of_range_panics_with_message() {
        let _ = Graph::from_edges(5, &[(0, 1), (1, 5), (7, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range for n=4")]
    fn permuted_out_of_range_label_panics_with_message() {
        let _ = path4().permuted(&[0, 1, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "permutation length mismatch")]
    fn permuted_length_mismatch_panics() {
        let _ = path4().permuted(&[0, 1, 2]);
    }

    #[test]
    fn density_of_triangle_is_one() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range for graph")]
    fn neighbors_out_of_range_panics_with_message() {
        let _ = path4().neighbors(4);
    }

    #[test]
    #[should_panic(expected = "out of range for graph")]
    fn neighbors_on_empty_graph_panics_with_message() {
        let _ = Graph::new(0).neighbors(0);
    }

    #[test]
    #[should_panic(expected = "out of range for CSR")]
    fn csr_neighbors_out_of_range_panics_with_message() {
        let _ = path4().to_csr().neighbors(9);
    }

    #[test]
    fn try_neighbors_is_total() {
        let g = path4();
        assert_eq!(g.try_neighbors(1), Some(&[0u32, 2][..]));
        assert_eq!(g.try_neighbors(4), None);
        assert_eq!(Graph::new(0).try_neighbors(0), None);
        // single-vertex graph: in range, empty list
        let one = Graph::new(1);
        assert_eq!(one.try_neighbors(0), Some(&[][..]));
    }

    #[test]
    fn bulk_build_matches_add_edge() {
        let edges = [(3u32, 1u32), (0, 4), (1, 0), (4, 1), (2, 4)];
        let incremental = Graph::from_edges(5, &edges);
        let mut bulk = Graph::new(5);
        for &(u, v) in &edges {
            bulk.push_edge_unsorted(u, v);
        }
        bulk.sort_adjacency();
        assert!(bulk.same_edges(&incremental));
        assert_eq!(bulk.m(), incremental.m());
        // clear_edges keeps the vertex set, drops every edge
        bulk.clear_edges();
        assert_eq!(bulk.n(), 5);
        assert_eq!(bulk.m(), 0);
        assert!(bulk.neighbors(1).is_empty());
        // reset can grow and shrink the vertex set
        bulk.reset(7);
        assert_eq!(bulk.n(), 7);
        bulk.reset(2);
        assert_eq!((bulk.n(), bulk.m()), (2, 0));
    }

    #[test]
    fn csr_try_from_parts_validates() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 4)]);
        let c = g.to_csr();
        // a faithful reassembly round-trips
        let back = Csr::try_from_parts(c.xadj().to_vec(), c.adjncy().to_vec()).unwrap();
        assert!(back.to_graph().same_edges(&g));
        assert_eq!(back.n(), 5);
        assert_eq!(back.m(), 4);
        // each invariant violation is rejected
        assert!(Csr::try_from_parts(vec![], vec![]).is_err(), "empty xadj");
        assert!(Csr::try_from_parts(vec![1, 1], vec![0]).is_err(), "xadj[0]");
        assert!(
            Csr::try_from_parts(vec![0, 2], vec![1]).is_err(),
            "coverage"
        );
        assert!(
            Csr::try_from_parts(vec![0, 2, 1, 2], vec![1, 2]).is_err(),
            "monotone"
        );
        assert!(
            Csr::try_from_parts(vec![0, 2, 4], vec![1, 1, 0, 0]).is_err(),
            "duplicates"
        );
        assert!(
            Csr::try_from_parts(vec![0, 1, 2], vec![7, 0]).is_err(),
            "range"
        );
        assert!(
            Csr::try_from_parts(vec![0, 1, 2], vec![0, 0]).is_err(),
            "self-loop"
        );
        assert!(
            Csr::try_from_parts(vec![0, 1, 1], vec![1]).is_err(),
            "symmetry"
        );
        // the empty graph is valid
        let empty = Csr::try_from_parts(vec![0], vec![]).unwrap();
        assert_eq!((empty.n(), empty.m()), (0, 0));
    }

    #[test]
    fn csr_matches_graph() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]);
        let c = g.to_csr();
        assert_eq!(c.n(), g.n());
        assert_eq!(c.m(), g.m());
        for v in g.vertices() {
            assert_eq!(c.neighbors(v), g.neighbors(v));
        }
    }
}
