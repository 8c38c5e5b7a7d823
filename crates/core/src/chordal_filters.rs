//! Sequential and parallel maximal-chordal sampling filters (paper §III-A).

use crate::filter::{assemble, Filter, FilterOutput, FilterStats};
use casbn_chordal::maximal_chordal_subgraph;
use casbn_distsim::{decode_edges, encode_edges, run, CostModel, RankCtx};
use casbn_graph::{Edge, Graph, Partition, PartitionKind, VertexId};

/// Message tag for the border-edge exchange of the comm variant.
const TAG_BORDER: u64 = 1;

/// Sequential maximal chordal subgraph filter — the baseline of every
/// parallel comparison and the filter used for the per-ordering analyses
/// (Figs. 4–9). Simulated time is charged under [`CostModel::default`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialChordalFilter;

impl SequentialChordalFilter {
    /// The sequential filter.
    pub fn new() -> Self {
        Self
    }
}

impl Filter for SequentialChordalFilter {
    fn name(&self) -> String {
        "chordal-seq".into()
    }

    fn filter(&self, g: &Graph, _seed: u64) -> FilterOutput {
        let started = std::time::Instant::now();
        let r = maximal_chordal_subgraph(g);
        let wall = started.elapsed();
        let sim = r.work.ops as f64 * CostModel::default().seconds_per_op;
        FilterOutput {
            stats: FilterStats {
                nranks: 1,
                original_edges: g.m(),
                retained_edges: r.graph.m(),
                border_edges: 0,
                duplicate_border_edges: 0,
                sim_makespan: sim,
                sim_times: vec![sim],
                wall,
                bytes_sent: 0,
                messages: 0,
            },
            graph: r.graph,
        }
    }
}

/// State each rank builds in the local phase: the maximal chordal subgraph
/// of its internal edges, with id mapping between global and local space.
struct RankLocal {
    /// Global ids of this rank's vertices (ascending).
    verts: Vec<VertexId>,
    /// global id -> local id (or `u32::MAX`).
    g2l: Vec<u32>,
    /// Local-id chordal subgraph.
    chordal: Graph,
    /// DSW work in abstract ops.
    work: u64,
}

impl RankLocal {
    fn compute(n_global: usize, verts: Vec<VertexId>, internal_edges: &[Edge]) -> Self {
        let mut g2l = vec![u32::MAX; n_global];
        for (i, &v) in verts.iter().enumerate() {
            g2l[v as usize] = i as u32;
        }
        // internal edges are distinct canonical edges, so the local graph
        // can be bulk-built (append + one sort) instead of paying a
        // binary-search insert per edge
        let mut local = Graph::new(verts.len());
        for &(u, v) in internal_edges {
            local.push_edge_unsorted(g2l[u as usize], g2l[v as usize]);
        }
        local.sort_adjacency();
        let r = maximal_chordal_subgraph(&local);
        RankLocal {
            verts,
            g2l,
            chordal: r.graph,
            work: r.work.ops,
        }
    }

    /// Is the (global-id) pair `(a, b)` a chordal edge of this rank?
    fn has_chordal_edge(&self, a: VertexId, b: VertexId) -> bool {
        let la = self.g2l[a as usize];
        let lb = self.g2l[b as usize];
        la != u32::MAX && lb != u32::MAX && self.chordal.has_edge(la, lb)
    }

    /// Chordal edges mapped back to global ids.
    fn global_edges(&self) -> Vec<Edge> {
        self.chordal
            .edges()
            .map(|(u, v)| (self.verts[u as usize], self.verts[v as usize]))
            .collect()
    }
}

/// Group this rank's border edges by their **foreign** endpoint: one
/// `(foreign, scan position, local)` triple per border edge, sorted by
/// `(foreign, scan position)`. Groups are contiguous runs of equal
/// `foreign`, ascending, with each group's locals in border-scan order —
/// exactly the iteration the previous `BTreeMap<_, Vec<_>>` grouping
/// produced, for one `sort_unstable` instead of `O(b log b)` tree nodes.
fn by_foreign_endpoint(
    border: &[Edge],
    part: &Partition,
    rank: u32,
) -> Vec<(VertexId, u32, VertexId)> {
    let mut pairs: Vec<(VertexId, u32, VertexId)> = border
        .iter()
        .enumerate()
        .map(|(i, &(u, v))| {
            let (local, foreign) = if part.part(u) == rank { (u, v) } else { (v, u) };
            (foreign, i as u32, local)
        })
        .collect();
    pairs.sort_unstable();
    pairs
}

/// Iterate the contiguous `(foreign, locals)` groups of a
/// [`by_foreign_endpoint`] buffer.
fn for_each_foreign_group(
    pairs: &[(VertexId, u32, VertexId)],
    mut f: impl FnMut(VertexId, &[(VertexId, u32, VertexId)]),
) {
    let mut i = 0usize;
    while i < pairs.len() {
        let foreign = pairs[i].0;
        let mut j = i + 1;
        while j < pairs.len() && pairs[j].0 == foreign {
            j += 1;
        }
        f(foreign, &pairs[i..j]);
        i = j;
    }
}

/// The improved, **communication-free** parallel chordal filter — the
/// paper's contribution (§III-A, Fig. 1).
///
/// Each rank extracts the maximal chordal subgraph of its internal edges,
/// then applies the triangle rule to its border edges: for a foreign
/// vertex `f` adjacent to local vertices `a, b`, the border edges `(f,a)`
/// and `(f,b)` are both kept iff `(a,b)` is a local *chordal* edge. No
/// messages are exchanged; both ranks incident to a border edge may keep
/// it, so assembly deduplicates (duplicate count reported, ≤ b).
#[derive(Clone, Copy, Debug)]
pub struct ParallelChordalNoCommFilter {
    /// Number of simulated processors.
    pub nranks: usize,
    /// Data-distribution strategy (hypothesis H0c's second axis).
    pub partition: PartitionKind,
}

impl ParallelChordalNoCommFilter {
    /// Filter on `nranks` processors with partition strategy `partition`.
    pub fn new(nranks: usize, partition: PartitionKind) -> Self {
        ParallelChordalNoCommFilter { nranks, partition }
    }
}

impl Filter for ParallelChordalNoCommFilter {
    fn name(&self) -> String {
        format!("chordal-nocomm-p{}", self.nranks)
    }

    fn filter(&self, g: &Graph, _seed: u64) -> FilterOutput {
        let part = Partition::new(g, self.nranks, self.partition);
        let n = g.n();

        // Each rank derives its own internal/border edge view inside its
        // thread (`Partition::rank_edges`), so the O(m) edge
        // classification runs in parallel and is charged to the
        // simulated clock — the main thread only builds the partition.
        let result = run(self.nranks, CostModel::default(), |ctx: &mut RankCtx| {
            let rank = ctx.rank() as u32;
            let re = part.rank_edges(g, rank);
            ctx.compute(re.scan_ops);
            let local = RankLocal::compute(n, re.verts, &re.internal);
            ctx.compute(local.work);

            // triangle rule on border edges
            let mut kept: Vec<Edge> = local.global_edges();
            let groups = by_foreign_endpoint(&re.border, &part, rank);
            let mut ops = 0u64;
            let mut include: Vec<bool> = Vec::new();
            for_each_foreign_group(&groups, |f, locs| {
                ops += (locs.len() * locs.len()) as u64 + 1;
                include.clear();
                include.resize(locs.len(), false);
                for i in 0..locs.len() {
                    for j in (i + 1)..locs.len() {
                        if local.has_chordal_edge(locs[i].2, locs[j].2) {
                            include[i] = true;
                            include[j] = true;
                        }
                    }
                }
                for (i, &(_, _, l)) in locs.iter().enumerate() {
                    if include[i] {
                        kept.push((f.min(l), f.max(l)));
                    }
                }
            });
            ctx.compute(ops);
            (kept, re.border.len())
        });

        let mut all: Vec<Edge> = Vec::new();
        let mut border_double = 0usize;
        for (kept, nborder) in result.outputs {
            all.extend(kept);
            border_double += nborder;
        }
        let (graph, dups) = assemble(n, all);
        FilterOutput {
            stats: FilterStats {
                nranks: self.nranks,
                original_edges: g.m(),
                retained_edges: graph.m(),
                // every border edge is seen by exactly its two ranks
                border_edges: border_double / 2,
                duplicate_border_edges: dups,
                sim_makespan: result.sim_makespan,
                sim_times: result.sim_times,
                wall: result.wall,
                bytes_sent: result.bytes_sent,
                messages: result.messages,
            },
            graph,
        }
    }
}

/// The authors' earlier (HPCS'11) parallel chordal filter **with
/// communication**: for every processor pair sharing border edges, one
/// side is designated sender and ships the mutual border edges; the
/// receiver decides which can be retained while preserving the chordality
/// of *its* subgraph (accepted foreign endpoints must attach to a clique).
///
/// Scalability degrades in the border count `b` (the paper quotes
/// `O(b²/d)`): every pair with mutual border edges costs a message
/// (latency + `b` edge transfers) plus the receiver's acceptance scan,
/// and the number of such pairs grows ~quadratically in the processor
/// count while the per-rank compute shrinks — which is what bends the
/// with-communication curve upward at 32–64 processors on a small
/// network (Fig. 10, left).
#[derive(Clone, Copy, Debug)]
pub struct ParallelChordalCommFilter {
    /// Number of simulated processors.
    pub nranks: usize,
    /// Data-distribution strategy.
    pub partition: PartitionKind,
}

impl ParallelChordalCommFilter {
    /// Filter on `nranks` processors with partition strategy `partition`.
    pub fn new(nranks: usize, partition: PartitionKind) -> Self {
        ParallelChordalCommFilter { nranks, partition }
    }

    /// Sender of the mutual border edges for pair `(i, j)`; the parity
    /// alternation balances sender/receiver roles across pairs.
    fn sender_of(i: usize, j: usize) -> usize {
        let (lo, hi) = (i.min(j), i.max(j));
        if (lo + hi) % 2 == 0 {
            lo
        } else {
            hi
        }
    }
}

impl Filter for ParallelChordalCommFilter {
    fn name(&self) -> String {
        format!("chordal-comm-p{}", self.nranks)
    }

    fn filter(&self, g: &Graph, _seed: u64) -> FilterOutput {
        let part = Partition::new(g, self.nranks, self.partition);
        let n = g.n();

        // Every rank derives its own border view locally; the mutual edge
        // list of a pair is whatever the sender ships, so no global
        // mutual-edge map is built on the main thread.
        let result = run(self.nranks, CostModel::default(), |ctx: &mut RankCtx| {
            let rank = ctx.rank();
            let re = part.rank_edges(g, rank as u32);
            ctx.compute(re.scan_ops);
            let local = RankLocal::compute(n, re.verts, &re.internal);
            ctx.compute(local.work);
            let mut kept: Vec<Edge> = local.global_edges();

            // this rank's border edges grouped by partner rank: sorting
            // (partner, scan position) index pairs gives the same
            // ascending-partner deterministic, deadlock-free schedule the
            // previous BTreeMap grouping produced (both sides agree a
            // pair exists iff mutual border edges exist), with each
            // partner's edges kept in border-scan order
            let mut by_partner: Vec<(usize, u32)> = re
                .border
                .iter()
                .enumerate()
                .map(|(i, &(u, v))| {
                    let (pu, pv) = (part.part(u) as usize, part.part(v) as usize);
                    let partner = if pu == rank { pv } else { pu };
                    (partner, i as u32)
                })
                .collect();
            by_partner.sort_unstable();
            let mut edges: Vec<Edge> = Vec::new();
            let mut i = 0usize;
            while i < by_partner.len() {
                let partner = by_partner[i].0;
                edges.clear();
                while i < by_partner.len() && by_partner[i].0 == partner {
                    edges.push(re.border[by_partner[i].1 as usize]);
                    i += 1;
                }
                let sender = Self::sender_of(rank, partner);
                if sender == rank {
                    ctx.send(partner, TAG_BORDER, encode_edges(&edges));
                } else {
                    let received = decode_edges(&ctx.recv(partner, TAG_BORDER));
                    // retained-edge computation: per foreign vertex keep a
                    // greedy clique of local attachment points
                    let groups = by_foreign_endpoint(&received, &part, rank as u32);
                    let mut ops = 0u64;
                    let mut acc: Vec<VertexId> = Vec::new();
                    for_each_foreign_group(&groups, |f, locs| {
                        acc.clear();
                        for &(_, _, l) in locs {
                            ops += (acc.len() + 1) as u64;
                            if acc.iter().all(|&x| local.has_chordal_edge(x, l)) {
                                acc.push(l);
                                kept.push((f.min(l), f.max(l)));
                            }
                        }
                    });
                    ctx.compute(ops);
                }
            }
            (kept, re.border.len())
        });

        let mut all: Vec<Edge> = Vec::new();
        let mut border_double = 0usize;
        for (kept, nborder) in result.outputs {
            all.extend(kept);
            border_double += nborder;
        }
        let (graph, dups) = assemble(n, all);
        FilterOutput {
            stats: FilterStats {
                nranks: self.nranks,
                original_edges: g.m(),
                retained_edges: graph.m(),
                border_edges: border_double / 2,
                duplicate_border_edges: dups,
                sim_makespan: result.sim_makespan,
                sim_times: result.sim_times,
                wall: result.wall,
                bytes_sent: result.bytes_sent,
                messages: result.messages,
            },
            graph,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbn_chordal::is_chordal;
    use casbn_graph::algo::cycle_census;
    use casbn_graph::generators::{caveman, gnm, planted_partition};

    fn subgraph_of(g: &Graph, h: &Graph) -> bool {
        h.edges().all(|(u, v)| g.has_edge(u, v))
    }

    #[test]
    fn sequential_output_is_chordal_subgraph() {
        let g = gnm(150, 450, 3);
        let out = SequentialChordalFilter::new().filter(&g, 0);
        assert!(is_chordal(&out.graph));
        assert!(subgraph_of(&g, &out.graph));
        assert_eq!(out.stats.nranks, 1);
        assert_eq!(out.stats.messages, 0);
    }

    #[test]
    fn nocomm_single_rank_matches_sequential() {
        let g = gnm(100, 300, 5);
        let seq = SequentialChordalFilter::new().filter(&g, 0);
        let par = ParallelChordalNoCommFilter::new(1, PartitionKind::Block).filter(&g, 0);
        assert!(seq.graph.same_edges(&par.graph));
        assert_eq!(par.stats.border_edges, 0);
        assert_eq!(par.stats.duplicate_border_edges, 0);
    }

    #[test]
    fn nocomm_sends_no_messages() {
        let g = gnm(200, 600, 7);
        let out = ParallelChordalNoCommFilter::new(8, PartitionKind::Block).filter(&g, 0);
        assert_eq!(out.stats.messages, 0);
        assert_eq!(out.stats.bytes_sent, 0);
    }

    #[test]
    fn comm_sends_messages_when_borders_exist() {
        let g = gnm(200, 600, 7);
        let out = ParallelChordalCommFilter::new(4, PartitionKind::Block).filter(&g, 0);
        assert!(out.stats.border_edges > 0);
        assert!(out.stats.messages > 0);
        assert!(out.stats.bytes_sent > 0);
    }

    #[test]
    fn parallel_outputs_are_subgraphs() {
        let g = gnm(300, 900, 11);
        for p in [2, 4, 8] {
            let a = ParallelChordalNoCommFilter::new(p, PartitionKind::Block).filter(&g, 0);
            let b = ParallelChordalCommFilter::new(p, PartitionKind::Block).filter(&g, 0);
            assert!(subgraph_of(&g, &a.graph), "nocomm p={p}");
            assert!(subgraph_of(&g, &b.graph), "comm p={p}");
        }
    }

    #[test]
    fn quasi_chordal_has_few_triangle_free_edges() {
        // QCS property: large cycles can appear, but only via border edges;
        // the bulk of the subgraph stays triangle-rich
        let (g, _) = planted_partition(400, 8, 12, 0.9, 300, 13);
        let out = ParallelChordalNoCommFilter::new(8, PartitionKind::Block).filter(&g, 0);
        let census = cycle_census(&out.graph);
        // every kept border edge closes a triangle on at least one side by
        // construction; internal edges come from chordal subgraphs, where
        // only tree-ish edges are triangle-free
        let frac = census.triangle_free_edges as f64 / out.graph.m().max(1) as f64;
        assert!(frac < 0.8, "triangle-free fraction {frac:.2}");
    }

    #[test]
    fn duplicates_bounded_by_border_edges() {
        let g = caveman(16, 8, 0);
        for p in [2, 4, 8] {
            let out = ParallelChordalNoCommFilter::new(p, PartitionKind::Block).filter(&g, 0);
            assert!(
                out.stats.duplicate_border_edges <= out.stats.border_edges,
                "p={p}: dups {} > borders {}",
                out.stats.duplicate_border_edges,
                out.stats.border_edges
            );
        }
    }

    #[test]
    fn more_processors_fewer_edges() {
        // paper, H0c: "by increasing the number of processors, the
        // resulting filtered network has fewer edges"
        let (g, _) = planted_partition(600, 10, 15, 0.9, 500, 17);
        let e1 = ParallelChordalNoCommFilter::new(1, PartitionKind::Block)
            .filter(&g, 0)
            .graph
            .m();
        let e16 = ParallelChordalNoCommFilter::new(16, PartitionKind::Block)
            .filter(&g, 0)
            .graph
            .m();
        assert!(e16 <= e1, "edges grew with processors: {e1} -> {e16}");
    }

    #[test]
    fn filters_are_deterministic() {
        let g = gnm(250, 700, 19);
        let f = ParallelChordalNoCommFilter::new(4, PartitionKind::Block);
        assert!(f.filter(&g, 0).graph.same_edges(&f.filter(&g, 0).graph));
        let f = ParallelChordalCommFilter::new(4, PartitionKind::Block);
        assert!(f.filter(&g, 0).graph.same_edges(&f.filter(&g, 0).graph));
    }

    #[test]
    fn sim_times_deterministic() {
        let g = gnm(250, 700, 19);
        let f = ParallelChordalCommFilter::new(4, PartitionKind::Block);
        let a = f.filter(&g, 0);
        let b = f.filter(&g, 0);
        assert_eq!(a.stats.sim_times, b.stats.sim_times);
    }

    #[test]
    fn fig1_triangle_rule() {
        // Figure 1's described behaviour: border pair (2,6),(4,6) rejected
        // in a partition where (2,4) is not chordal; (4,6),(4,8) accepted
        // where (6,8) is chordal.
        // Two partitions: {0..4} and {5..9}. Local edges make (6,8)
        // chordal in the bottom partition; (2,4) absent on top.
        let mut g = Graph::new(10);
        // top partition internal: 2-3 (but NOT 2-4)
        g.add_edge(2, 3);
        // bottom partition internal: 6-8 plus support
        g.add_edge(6, 8);
        g.add_edge(8, 9);
        // border edges: (2,6), (4,6) share foreign 6 on top side; their
        // triangle needs (2,4) -> missing. (6,4),(8,4) share foreign 4 on
        // bottom side; triangle closes via chordal (6,8) -> kept.
        g.add_edge(2, 6);
        g.add_edge(4, 6);
        g.add_edge(4, 8);
        let part = Partition::from_assignment(vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1], 2);
        // reuse internals via a custom run: emulate with Block on this id
        // layout (ids 0..4 -> part 0, 5..9 -> part 1), which Block yields
        let blockpart = Partition::new(&g, 2, PartitionKind::Block);
        assert_eq!(
            (0..10).map(|v| blockpart.part(v)).collect::<Vec<_>>(),
            (0..10).map(|v| part.part(v)).collect::<Vec<_>>()
        );
        let out = ParallelChordalNoCommFilter::new(2, PartitionKind::Block).filter(&g, 0);
        // (4,6) and (4,8) kept via bottom partition's chordal (6,8)
        assert!(out.graph.has_edge(4, 6), "border (4,6) should be kept");
        assert!(out.graph.has_edge(4, 8), "border (4,8) should be kept");
        // (2,6) has no closing chordal triangle on either side -> dropped
        assert!(!out.graph.has_edge(2, 6), "border (2,6) should be dropped");
    }

    #[test]
    fn comm_variant_single_rank_matches_sequential() {
        let g = gnm(80, 240, 23);
        let seq = SequentialChordalFilter::new().filter(&g, 0);
        let comm = ParallelChordalCommFilter::new(1, PartitionKind::Block).filter(&g, 0);
        assert!(seq.graph.same_edges(&comm.graph));
    }

    #[test]
    fn comm_makespan_exceeds_nocomm_with_many_ranks() {
        // small network, many processors: border pairs multiply and the
        // with-communication variant pays latency + O(b²/d)
        let g = gnm(400, 1200, 29);
        let p = 16;
        let comm = ParallelChordalCommFilter::new(p, PartitionKind::Block).filter(&g, 0);
        let nocomm = ParallelChordalNoCommFilter::new(p, PartitionKind::Block).filter(&g, 0);
        assert!(
            comm.stats.sim_makespan > nocomm.stats.sim_makespan,
            "comm {} <= nocomm {}",
            comm.stats.sim_makespan,
            nocomm.stats.sim_makespan
        );
    }
}
