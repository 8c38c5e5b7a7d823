//! Vertex partitioners and border-edge classification.
//!
//! The parallel filters (paper §III-A) divide the network into `P`
//! partitions; edges internal to a partition are processed locally, edges
//! whose endpoints lie in different partitions are *border edges*. The
//! partitioning strategy is the "data distribution" axis of hypothesis H0c.

use crate::algo::connected_components;
use crate::graph::{Edge, Graph, VertexId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Partitioning strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionKind {
    /// Contiguous blocks of vertex ids (`id * P / n`). This is the natural
    /// distribution for a relabelled (ordered) graph and what an MPI code
    /// reading a vertex range per rank would use.
    Block,
    /// Round-robin by id (`id mod P`) — a deliberately bad locality
    /// distribution, maximising border edges; used to stress H0c.
    RoundRobin,
    /// BFS-grown blocks: contiguous regions of the graph topology rather
    /// than the id space, approximating a locality-aware partitioner.
    BfsBlock,
}

impl std::str::FromStr for PartitionKind {
    type Err = String;

    /// Parse the command-line name: `block`, `rr` (round-robin) or
    /// `bfs`.
    fn from_str(s: &str) -> Result<PartitionKind, String> {
        match s {
            "block" => Ok(PartitionKind::Block),
            "rr" => Ok(PartitionKind::RoundRobin),
            "bfs" => Ok(PartitionKind::BfsBlock),
            other => Err(format!("unknown partition {other}")),
        }
    }
}

/// A `P`-way vertex partition of a graph.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Partition {
    part_of: Vec<u32>,
    nparts: usize,
}

/// Border edges of a partition, grouped per part.
#[derive(Clone, Debug, Default)]
pub struct BorderEdges {
    /// For each part `p`, the border edges with at least one endpoint in
    /// `p`, canonical form. An edge between parts `p` and `q` appears in
    /// both lists — exactly the information each rank owns in a
    /// distributed edge-cut representation.
    pub per_part: Vec<Vec<Edge>>,
    /// All border edges, deduplicated, canonical order.
    pub all: Vec<Edge>,
}

impl Partition {
    /// Partition the vertices of `g` into `nparts` parts with strategy
    /// `kind`.
    pub fn new(g: &Graph, nparts: usize, kind: PartitionKind) -> Self {
        assert!(nparts > 0, "need at least one part");
        let n = g.n();
        let part_of = match kind {
            PartitionKind::Block => (0..n)
                .map(|v| ((v as u64 * nparts as u64) / n.max(1) as u64) as u32)
                .collect(),
            PartitionKind::RoundRobin => (0..n).map(|v| (v % nparts) as u32).collect(),
            PartitionKind::BfsBlock => bfs_blocks(g, nparts),
        };
        Partition { part_of, nparts }
    }

    /// Build directly from an assignment vector (used by tests).
    pub fn from_assignment(part_of: Vec<u32>, nparts: usize) -> Self {
        assert!(part_of.iter().all(|&p| (p as usize) < nparts));
        Partition { part_of, nparts }
    }

    /// Part id of vertex `v`.
    #[inline]
    pub fn part(&self, v: VertexId) -> u32 {
        self.part_of[v as usize]
    }

    /// Number of parts.
    #[inline]
    pub fn nparts(&self) -> usize {
        self.nparts
    }

    /// Vertices of part `p`, ascending.
    pub fn vertices_of(&self, p: u32) -> Vec<VertexId> {
        (0..self.part_of.len() as VertexId)
            .filter(|&v| self.part_of[v as usize] == p)
            .collect()
    }

    /// Sizes of all parts.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.nparts];
        for &p in &self.part_of {
            s[p as usize] += 1;
        }
        s
    }

    /// Whether edge `(u, v)` crosses parts.
    #[inline]
    pub fn is_border(&self, u: VertexId, v: VertexId) -> bool {
        self.part(u) != self.part(v)
    }

    /// Split the edges of `g` into internal edges per part and border edges.
    pub fn split_edges(&self, g: &Graph) -> (Vec<Vec<Edge>>, BorderEdges) {
        let mut internal = vec![Vec::new(); self.nparts];
        let mut border = BorderEdges {
            per_part: vec![Vec::new(); self.nparts],
            all: Vec::new(),
        };
        for (u, v) in g.edges() {
            let (pu, pv) = (self.part(u), self.part(v));
            if pu == pv {
                internal[pu as usize].push((u, v));
            } else {
                border.per_part[pu as usize].push((u, v));
                border.per_part[pv as usize].push((u, v));
                border.all.push((u, v));
            }
        }
        (internal, border)
    }

    /// Number of border edges under this partition.
    pub fn border_count(&self, g: &Graph) -> usize {
        g.edges().filter(|&(u, v)| self.is_border(u, v)).count()
    }

    /// Derive one rank's edge view **locally**, by scanning only that
    /// rank's adjacency lists — the per-rank replacement for the global
    /// [`Partition::split_edges`] pass, so each rank of a distributed run
    /// can do its own share of the `O(m)` edge classification in parallel.
    ///
    /// Ordering guarantees (relied on by the deterministic filters):
    ///
    /// * `internal` is in canonical `(min, max)` lexicographic order —
    ///   identical to this rank's slice of [`Partition::split_edges`];
    /// * `border` is ordered by (local endpoint, foreign endpoint), which
    ///   for any fixed foreign vertex lists the local endpoints in
    ///   ascending order — the order the border-rule scans consume.
    ///
    /// `scan_ops` counts the adjacency entries visited (one abstract op
    /// per entry plus one per vertex), the unit charged to the simulated
    /// cost model for this classification.
    pub fn rank_edges(&self, g: &Graph, rank: u32) -> RankEdges {
        let verts = self.vertices_of(rank);
        let mut internal = Vec::new();
        let mut border = Vec::new();
        let mut scan_ops = 0u64;
        for &v in &verts {
            scan_ops += g.degree(v) as u64 + 1;
            for &w in g.neighbors(v) {
                if self.part(w) == rank {
                    if v < w {
                        internal.push((v, w));
                    }
                } else {
                    border.push((v.min(w), v.max(w)));
                }
            }
        }
        RankEdges {
            verts,
            internal,
            border,
            scan_ops,
        }
    }
}

/// One rank's locally-derived view of the partitioned edge set
/// (see [`Partition::rank_edges`]).
#[derive(Clone, Debug, Default)]
pub struct RankEdges {
    /// The rank's vertices, ascending.
    pub verts: Vec<VertexId>,
    /// Edges with both endpoints in the rank, canonical, ascending.
    pub internal: Vec<Edge>,
    /// Edges with exactly one endpoint in the rank, canonical form,
    /// ordered by (local endpoint, foreign endpoint).
    pub border: Vec<Edge>,
    /// Adjacency entries scanned while classifying (abstract cost-model
    /// ops).
    pub scan_ops: u64,
}

/// Grow `nparts` roughly equal BFS regions. Components are consumed in
/// order; a part is "full" at `ceil(n / nparts)` vertices, after which the
/// next part begins at the BFS frontier.
fn bfs_blocks(g: &Graph, nparts: usize) -> Vec<u32> {
    let n = g.n();
    let target = n.div_ceil(nparts);
    let mut part_of = vec![u32::MAX; n];
    let mut current: u32 = 0;
    let mut filled = 0usize;
    let mut q = VecDeque::new();
    // visit components by smallest vertex id for determinism
    let (comp, _) = connected_components(g);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (comp[v], v));
    for s in order {
        if part_of[s] != u32::MAX {
            continue;
        }
        q.push_back(s as VertexId);
        part_of[s] = current;
        filled += 1;
        if filled >= target && (current as usize) < nparts - 1 {
            current += 1;
            filled = 0;
        }
        while let Some(v) = q.pop_front() {
            for &w in g.neighbors(v) {
                if part_of[w as usize] == u32::MAX {
                    part_of[w as usize] = current;
                    filled += 1;
                    q.push_back(w);
                    if filled >= target && (current as usize) < nparts - 1 {
                        current += 1;
                        filled = 0;
                    }
                }
            }
        }
    }
    part_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnm;

    #[test]
    fn block_partition_is_contiguous_and_balanced() {
        let g = Graph::new(10);
        let p = Partition::new(&g, 3, PartitionKind::Block);
        let sizes = p.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| (3..=4).contains(&s)), "{sizes:?}");
        // contiguity: part ids are non-decreasing in vertex id
        let ids: Vec<u32> = (0..10).map(|v| p.part(v)).collect();
        assert!(ids.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn round_robin_alternates() {
        let g = Graph::new(6);
        let p = Partition::new(&g, 2, PartitionKind::RoundRobin);
        assert_eq!(p.part(0), 0);
        assert_eq!(p.part(1), 1);
        assert_eq!(p.part(2), 0);
    }

    #[test]
    fn bfs_block_covers_all_vertices() {
        let g = gnm(100, 250, 17);
        for np in [1, 2, 4, 7] {
            let p = Partition::new(&g, np, PartitionKind::BfsBlock);
            let sizes = p.sizes();
            assert_eq!(sizes.iter().sum::<usize>(), 100, "np={np}");
            assert!((0..100).all(|v| (p.part(v) as usize) < np));
        }
    }

    #[test]
    fn split_edges_partitions_edge_set() {
        let g = gnm(50, 120, 3);
        let p = Partition::new(&g, 4, PartitionKind::Block);
        let (internal, border) = p.split_edges(&g);
        let internal_count: usize = internal.iter().map(Vec::len).sum();
        assert_eq!(internal_count + border.all.len(), g.m());
        for (pi, edges) in internal.iter().enumerate() {
            for &(u, v) in edges {
                assert_eq!(p.part(u), pi as u32);
                assert_eq!(p.part(v), pi as u32);
            }
        }
        for &(u, v) in &border.all {
            assert!(p.is_border(u, v));
        }
        // every border edge appears in exactly the two incident parts
        for &(u, v) in &border.all {
            let hits = border
                .per_part
                .iter()
                .filter(|es| es.contains(&(u, v)))
                .count();
            assert_eq!(hits, 2);
        }
    }

    #[test]
    fn rank_edges_agrees_with_global_split() {
        let g = gnm(80, 240, 7);
        for kind in [
            PartitionKind::Block,
            PartitionKind::RoundRobin,
            PartitionKind::BfsBlock,
        ] {
            for np in [1usize, 3, 5, 8] {
                let p = Partition::new(&g, np, kind);
                let (internal, border) = p.split_edges(&g);
                let mut border_double = 0usize;
                for rank in 0..np as u32 {
                    let re = p.rank_edges(&g, rank);
                    assert_eq!(re.verts, p.vertices_of(rank));
                    // internal order matches the global pass exactly
                    assert_eq!(
                        re.internal, internal[rank as usize],
                        "{kind:?} np={np} r={rank}"
                    );
                    // border sets match (order differs by design)
                    let mut a = re.border.clone();
                    let mut b = border.per_part[rank as usize].clone();
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "{kind:?} np={np} r={rank}");
                    assert!(re.scan_ops > 0 || re.verts.is_empty());
                    border_double += re.border.len();
                }
                assert_eq!(border_double, 2 * border.all.len());
            }
        }
    }

    #[test]
    fn rank_edges_border_grouped_ascending_per_foreign() {
        // for any fixed foreign vertex, local endpoints appear ascending
        let g = gnm(60, 200, 9);
        let p = Partition::new(&g, 4, PartitionKind::RoundRobin);
        for rank in 0..4u32 {
            let re = p.rank_edges(&g, rank);
            let mut last: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
            for &(u, v) in &re.border {
                let (local, foreign) = if p.part(u) == rank { (u, v) } else { (v, u) };
                if let Some(&prev) = last.get(&foreign) {
                    assert!(prev < local, "locals not ascending for foreign {foreign}");
                }
                last.insert(foreign, local);
            }
        }
    }

    #[test]
    fn rank_edges_on_empty_graph() {
        let g = Graph::new(0);
        let p = Partition::new(&g, 3, PartitionKind::Block);
        for rank in 0..3 {
            let re = p.rank_edges(&g, rank);
            assert!(re.verts.is_empty() && re.internal.is_empty() && re.border.is_empty());
        }
    }

    #[test]
    fn single_part_has_no_border() {
        let g = gnm(30, 60, 5);
        let p = Partition::new(&g, 1, PartitionKind::Block);
        assert_eq!(p.border_count(&g), 0);
    }

    #[test]
    fn more_parts_no_fewer_borders_for_block() {
        let g = gnm(200, 600, 9);
        let b2 = Partition::new(&g, 2, PartitionKind::Block).border_count(&g);
        let b16 = Partition::new(&g, 16, PartitionKind::Block).border_count(&g);
        assert!(b16 >= b2, "border {b2} -> {b16}");
    }

    #[test]
    fn round_robin_has_more_borders_than_bfs() {
        let g = gnm(300, 900, 21);
        let rr = Partition::new(&g, 8, PartitionKind::RoundRobin).border_count(&g);
        let bfs = Partition::new(&g, 8, PartitionKind::BfsBlock).border_count(&g);
        assert!(
            rr >= bfs,
            "round-robin should cut at least as many edges ({rr} vs {bfs})"
        );
    }
}
