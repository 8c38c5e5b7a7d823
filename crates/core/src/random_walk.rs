//! The control filter: parallel random-walk sampling (paper §III-A,
//! "Parallel Random Walk Based Sampling").
//!
//! The "1/d edge selection" runs as a per-vertex sweep: in a shuffled
//! vertex order, every vertex of degree `d` selects one of its incident
//! edges with probability `1/d`. No visited list is kept — vertices and
//! edges can be selected repeatedly — and sweeps repeat until the number
//! of *selection events* reaches half the edge count; the sampled graph
//! is the set of distinct selected edges. A sweep caps the retained
//! degree near 2, which is what leaves the control *unable* to keep dense
//! regions, reproducing the paper's empirical result ("there are not
//! enough edges retained … to identify very dense groups of nodes": zero
//! clusters) against its stated rationale that tightly connected regions
//! are re-visited more often, so cliques should survive.
//!
//! In the parallel version each rank sweeps its own partition's internal
//! subgraph, and each border edge is kept or dropped on an independent
//! fair coin flip. The flip is implemented as a hash of (seed, edge), so
//! both ranks incident to a border edge agree without exchanging messages
//! — the algorithm is trivially communication-free and "perfectly
//! scalable", as the paper notes. Simulated time is charged under
//! [`CostModel::default`].

use crate::filter::{assemble, Filter, FilterOutput, FilterStats};
use casbn_distsim::{run, CostModel, RankCtx};
use casbn_graph::{Edge, Graph, Partition, PartitionKind, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parallel random-walk filter (the paper's control).
#[derive(Clone, Copy, Debug)]
pub struct ParallelRandomWalkFilter {
    /// Number of simulated processors (1 = the sequential control).
    pub nranks: usize,
    /// Data-distribution strategy.
    pub partition: PartitionKind,
}

impl ParallelRandomWalkFilter {
    /// Filter on `nranks` processors with partition strategy `partition`.
    pub fn new(nranks: usize, partition: PartitionKind) -> Self {
        ParallelRandomWalkFilter { nranks, partition }
    }
}

/// SplitMix64 — used to give every border edge an i.i.d. coin flip that
/// both incident ranks can evaluate without communicating.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[inline]
fn border_coin(seed: u64, u: VertexId, v: VertexId) -> bool {
    let key = ((u.min(v) as u64) << 32) | u.max(v) as u64;
    splitmix64(seed ^ key) & 1 == 1
}

/// Per-vertex sweep until `target_selections` edge-selection events have
/// occurred: each vertex of degree `d` selects one incident edge
/// (probability `1/d` per edge); sweeps repeat while budget remains.
fn sweep_edges(g: &Graph, target_selections: usize, rng: &mut ChaCha8Rng) -> (Vec<Edge>, u64) {
    let n = g.n();
    if n == 0 || g.m() == 0 || target_selections == 0 {
        return (Vec::new(), 0);
    }
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    let mut picked: Vec<Edge> = Vec::with_capacity(target_selections.min(g.m()));
    let mut steps = 0u64;
    let mut selections = 0usize;
    'outer: while selections < target_selections {
        use rand::seq::SliceRandom;
        order.shuffle(rng);
        let mut any = false;
        for &v in &order {
            if selections >= target_selections {
                break 'outer;
            }
            let d = g.degree(v);
            if d == 0 {
                continue;
            }
            let w = g.neighbors(v)[rng.gen_range(0..d)];
            picked.push((v.min(w), v.max(w)));
            selections += 1;
            steps += 1;
            any = true;
        }
        if !any {
            break;
        }
    }
    picked.sort_unstable();
    picked.dedup();
    (picked, steps)
}

impl Filter for ParallelRandomWalkFilter {
    fn name(&self) -> String {
        format!("randomwalk-p{}", self.nranks)
    }

    fn filter(&self, g: &Graph, seed: u64) -> FilterOutput {
        let part = Partition::new(g, self.nranks, self.partition);
        let n = g.n();

        // Each rank classifies its own edges inside its thread (see
        // `Partition::rank_edges`), charged to the simulated clock.
        let result = run(self.nranks, CostModel::default(), |ctx: &mut RankCtx| {
            let rank = ctx.rank() as u32;
            let re = part.rank_edges(g, rank);
            ctx.compute(re.scan_ops);
            let mut g2l = vec![u32::MAX; n];
            for (i, &v) in re.verts.iter().enumerate() {
                g2l[v as usize] = i as u32;
            }
            let mut local = Graph::new(re.verts.len());
            for &(u, v) in &re.internal {
                local.add_edge(g2l[u as usize], g2l[v as usize]);
            }
            // per-rank deterministic RNG substream
            let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(seed ^ (rank as u64)));
            let target = local.m() / 2;
            let (edges, steps) = sweep_edges(&local, target, &mut rng);
            ctx.compute(steps);

            let mut kept: Vec<Edge> = edges
                .into_iter()
                .map(|(u, v)| (re.verts[u as usize], re.verts[v as usize]))
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect();

            // border edges: one deterministic coin flip per edge; only the
            // lower-id part records it, so no duplicates arise
            let mut flips = 0u64;
            for &(u, v) in &re.border {
                flips += 1;
                let owner = part.part(u).min(part.part(v));
                if owner == rank && border_coin(seed, u, v) {
                    kept.push((u.min(v), u.max(v)));
                }
            }
            ctx.compute(flips);
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
    use casbn_graph::generators::{gnm, planted_partition};

    #[test]
    fn output_is_subgraph() {
        let g = gnm(200, 600, 3);
        let out = ParallelRandomWalkFilter::new(4, PartitionKind::Block).filter(&g, 7);
        assert!(out.graph.edges().all(|(u, v)| g.has_edge(u, v)));
    }

    #[test]
    fn retains_at_most_half_the_edges_sequentially() {
        let g = gnm(300, 900, 5);
        let out = ParallelRandomWalkFilter::new(1, PartitionKind::Block).filter(&g, 9);
        assert!(
            out.graph.m() <= g.m() / 2,
            "retained {} of {}",
            out.graph.m(),
            g.m()
        );
        assert!(out.graph.m() > 0, "walk selected nothing");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gnm(150, 450, 11);
        let f = ParallelRandomWalkFilter::new(4, PartitionKind::Block);
        assert!(f.filter(&g, 42).graph.same_edges(&f.filter(&g, 42).graph));
        assert!(!f.filter(&g, 42).graph.same_edges(&f.filter(&g, 43).graph));
    }

    #[test]
    fn no_messages_ever() {
        let g = gnm(200, 500, 13);
        let out = ParallelRandomWalkFilter::new(8, PartitionKind::Block).filter(&g, 1);
        assert_eq!(out.stats.messages, 0);
    }

    #[test]
    fn no_duplicate_border_edges() {
        // the coin-flip ownership rule means each border edge is
        // contributed by exactly one rank
        let g = gnm(300, 900, 17);
        let out = ParallelRandomWalkFilter::new(8, PartitionKind::RoundRobin).filter(&g, 3);
        assert_eq!(out.stats.duplicate_border_edges, 0);
    }

    #[test]
    fn rw_retains_fewer_module_edges_than_chordal() {
        // the core H0a mechanism: the chordal filter keeps dense modules
        // nearly intact, the random walk thins them below cluster density
        use crate::chordal_filters::SequentialChordalFilter;
        let (g, truth) = planted_partition(400, 6, 12, 0.95, 250, 21);
        let ch = SequentialChordalFilter::new().filter(&g, 0);
        let rw = ParallelRandomWalkFilter::new(1, PartitionKind::Block).filter(&g, 5);
        let mut ch_kept = 0usize;
        let mut rw_kept = 0usize;
        let mut total = 0usize;
        for module in &truth.modules {
            let (orig, _) = g.induced_subgraph(module);
            let (c, _) = ch.graph.induced_subgraph(module);
            let (r, _) = rw.graph.induced_subgraph(module);
            total += orig.m();
            ch_kept += c.m();
            rw_kept += r.m();
        }
        assert!(
            ch_kept > rw_kept,
            "chordal kept {ch_kept}/{total}, rw kept {rw_kept}/{total}"
        );
    }

    #[test]
    fn walk_on_empty_graph() {
        let g = Graph::new(10);
        let out = ParallelRandomWalkFilter::new(2, PartitionKind::Block).filter(&g, 0);
        assert_eq!(out.graph.m(), 0);
    }

    #[test]
    fn border_coin_is_symmetric() {
        for s in 0..10u64 {
            assert_eq!(border_coin(s, 3, 9), border_coin(s, 9, 3));
        }
        // and roughly fair
        let heads = (0..1000u32).filter(|&i| border_coin(99, i, i + 1)).count();
        assert!((350..=650).contains(&heads), "heads {heads}");
    }
}
