//! Additional agnostic-sampling baselines from the paper's background
//! (§II): **forest fire** (Leskovec & Faloutsos 2006), **random node**
//! and **random edge** sampling. The paper argues these samplers, built
//! to preserve generic graph properties, are "potentially harmful on
//! noisy networks, since \[they\] also effectively capture noise" — these
//! implementations let the claim be tested directly (`casbn filter
//! --algo forestfire|randomnode|randomedge`; `tests/filter_properties.rs`
//! holds them to the same subgraph contract as the paper's filters).

use crate::filter::{assemble, Filter, FilterOutput, FilterStats};
use casbn_graph::{Edge, Graph, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Forest-fire sampling: repeatedly ignite a random vertex; the fire
/// spreads to a geometrically-distributed number of unburned neighbours
/// (mean `pf / (1 − pf)`), collecting traversed edges, until the target
/// edge fraction is reached.
#[derive(Clone, Copy, Debug)]
pub struct ForestFireFilter {
    /// Forward-burning probability (Leskovec's `pf`; 0.7 is the paper's
    /// canonical "good sample" setting).
    pub pf: f64,
    /// Fraction of edges to retain (the chordal filter's budget analogue;
    /// default 0.5 to match the random-walk budget).
    pub target_fraction: f64,
}

impl Default for ForestFireFilter {
    fn default() -> Self {
        ForestFireFilter {
            pf: 0.7,
            target_fraction: 0.5,
        }
    }
}

impl Filter for ForestFireFilter {
    fn name(&self) -> String {
        "forestfire".into()
    }

    fn filter(&self, g: &Graph, seed: u64) -> FilterOutput {
        let started = std::time::Instant::now();
        let n = g.n();
        let target = ((g.m() as f64) * self.target_fraction) as usize;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut kept: Vec<Edge> = Vec::with_capacity(target);
        let mut kept_set = vec![false; 0];
        let _ = &mut kept_set;
        let mut burned = vec![false; n];
        let mut distinct = 0usize;

        while distinct < target && n > 0 && g.m() > 0 {
            // ignite
            let start = rng.gen_range(0..n) as VertexId;
            let mut frontier = vec![start];
            burned.fill(false);
            burned[start as usize] = true;
            while let Some(v) = frontier.pop() {
                if distinct >= target {
                    break;
                }
                // geometric number of links to burn
                let mut burn = 0usize;
                while rng.gen_bool(self.pf) {
                    burn += 1;
                    if burn > g.degree(v) {
                        break;
                    }
                }
                let nbrs = g.neighbors(v);
                if nbrs.is_empty() {
                    continue;
                }
                for _ in 0..burn.min(nbrs.len()) {
                    let w = nbrs[rng.gen_range(0..nbrs.len())];
                    let e = (v.min(w), v.max(w));
                    kept.push(e);
                    distinct = estimate_distinct(&mut kept, distinct);
                    if !burned[w as usize] {
                        burned[w as usize] = true;
                        frontier.push(w);
                    }
                }
            }
        }
        let (graph, _) = assemble(n, kept);
        finish(g, graph, started.elapsed())
    }
}

/// Periodically dedup the kept list so the distinct count stays honest
/// without a per-push hash lookup.
fn estimate_distinct(kept: &mut Vec<Edge>, last: usize) -> usize {
    if kept.len() >= 2 * (last + 16) {
        kept.sort_unstable();
        kept.dedup();
    }
    kept.len().min(last.max(kept.len() / 2) + 1).max({
        // cheap lower bound; exact count happens at assemble time
        last
    })
}

/// Random-node sampling: keep a vertex subset of the given fraction and
/// the subgraph they induce.
#[derive(Clone, Copy, Debug)]
pub struct RandomNodeFilter {
    /// Fraction of vertices retained (default 0.7 ≈ half the edges in a
    /// sparse graph).
    pub node_fraction: f64,
}

impl Default for RandomNodeFilter {
    fn default() -> Self {
        RandomNodeFilter { node_fraction: 0.7 }
    }
}

impl Filter for RandomNodeFilter {
    fn name(&self) -> String {
        "randomnode".into()
    }

    fn filter(&self, g: &Graph, seed: u64) -> FilterOutput {
        let started = std::time::Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let keep: Vec<bool> = (0..g.n())
            .map(|_| rng.gen_bool(self.node_fraction))
            .collect();
        let edges: Vec<Edge> = g
            .edges()
            .filter(|&(u, v)| keep[u as usize] && keep[v as usize])
            .collect();
        let (graph, _) = assemble(g.n(), edges);
        finish(g, graph, started.elapsed())
    }
}

/// Random-edge sampling: keep each edge independently with probability
/// `edge_fraction`.
#[derive(Clone, Copy, Debug)]
pub struct RandomEdgeFilter {
    /// Probability of keeping each edge (default 0.5 — the random-walk
    /// budget).
    pub edge_fraction: f64,
}

impl Default for RandomEdgeFilter {
    fn default() -> Self {
        RandomEdgeFilter { edge_fraction: 0.5 }
    }
}

impl Filter for RandomEdgeFilter {
    fn name(&self) -> String {
        "randomedge".into()
    }

    fn filter(&self, g: &Graph, seed: u64) -> FilterOutput {
        let started = std::time::Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let edges: Vec<Edge> = g
            .edges()
            .filter(|_| rng.gen_bool(self.edge_fraction))
            .collect();
        let (graph, _) = assemble(g.n(), edges);
        finish(g, graph, started.elapsed())
    }
}

fn finish(original: &Graph, graph: Graph, wall: std::time::Duration) -> FilterOutput {
    FilterOutput {
        stats: FilterStats {
            nranks: 1,
            original_edges: original.m(),
            retained_edges: graph.m(),
            border_edges: 0,
            duplicate_border_edges: 0,
            sim_makespan: 0.0,
            sim_times: vec![0.0],
            wall,
            bytes_sent: 0,
            messages: 0,
        },
        graph,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chordal_filters::SequentialChordalFilter;
    use casbn_graph::generators::planted_partition;
    use casbn_mcode::{mcode_cluster, McodeParams};

    fn network() -> (Graph, Vec<Vec<VertexId>>) {
        let (g, t) = planted_partition(600, 12, 10, 0.55, 500, 21);
        (g, t.modules)
    }

    #[test]
    fn all_baselines_produce_subgraphs() {
        let (g, _) = network();
        let outs: Vec<FilterOutput> = vec![
            ForestFireFilter::default().filter(&g, 3),
            RandomNodeFilter::default().filter(&g, 3),
            RandomEdgeFilter::default().filter(&g, 3),
        ];
        for out in outs {
            assert!(out.graph.edges().all(|(u, v)| g.has_edge(u, v)));
            assert!(out.graph.m() < g.m());
            assert!(out.graph.m() > 0);
        }
    }

    #[test]
    fn baselines_are_deterministic() {
        let (g, _) = network();
        for f in [
            &ForestFireFilter::default() as &dyn Filter,
            &RandomNodeFilter::default(),
            &RandomEdgeFilter::default(),
        ] {
            assert!(f.filter(&g, 9).graph.same_edges(&f.filter(&g, 9).graph));
        }
    }

    #[test]
    fn chordal_beats_every_baseline_on_cluster_retention() {
        // the paper's §II thesis, quantified: agnostic samplers thin dense
        // modules below MCODE's detection cut; the adaptive chordal filter
        // does not
        let (g, _) = network();
        let params = McodeParams::default();
        let orig = mcode_cluster(&g, &params).len();
        assert!(orig >= 5, "need clusters to start with, got {orig}");
        let chordal =
            mcode_cluster(&SequentialChordalFilter::new().filter(&g, 0).graph, &params).len();
        // edge-thinning samplers drop dense modules below the MCODE cut
        for (name, out) in [
            ("forestfire", ForestFireFilter::default().filter(&g, 5)),
            ("randomedge", RandomEdgeFilter::default().filter(&g, 5)),
        ] {
            let found = mcode_cluster(&out.graph, &params).len();
            assert!(
                found < chordal,
                "{name} kept {found} clusters, chordal kept {chordal}"
            );
        }
        // node sampling keeps surviving modules at full density, but the
        // 30% of discarded genes shrink the retained cluster *membership*
        let rn = RandomNodeFilter::default().filter(&g, 5);
        let rn_clusters = mcode_cluster(&rn.graph, &params);
        let ch_clusters =
            mcode_cluster(&SequentialChordalFilter::new().filter(&g, 0).graph, &params);
        let members =
            |cs: &[casbn_mcode::Cluster]| -> usize { cs.iter().map(|c| c.vertices.len()).sum() };
        assert!(rn_clusters.len() <= chordal);
        assert!(
            members(&rn_clusters) < members(&ch_clusters),
            "random node retained {} cluster members vs chordal {}",
            members(&rn_clusters),
            members(&ch_clusters)
        );
    }

    #[test]
    fn random_edge_fraction_controls_retention() {
        let (g, _) = network();
        let half = RandomEdgeFilter { edge_fraction: 0.5 }.filter(&g, 1);
        let tenth = RandomEdgeFilter { edge_fraction: 0.1 }.filter(&g, 1);
        assert!(tenth.graph.m() < half.graph.m());
        let frac = half.graph.m() as f64 / g.m() as f64;
        assert!((0.4..0.6).contains(&frac), "got {frac}");
    }

    #[test]
    fn forest_fire_respects_target() {
        let (g, _) = network();
        let out = ForestFireFilter {
            pf: 0.7,
            target_fraction: 0.3,
        }
        .filter(&g, 7);
        let frac = out.graph.m() as f64 / g.m() as f64;
        assert!(frac <= 0.45, "forest fire overshot: {frac}");
    }
}
