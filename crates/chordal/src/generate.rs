//! Random chordal graph generation — by construction, via reverse
//! perfect-elimination insertion: vertex `i` is attached to a random
//! clique of the graph built so far. This module's unit tests use it to
//! pin the "noise-free data ⇒ no reduction" fixed-point claim (§III:
//! "Ideally, if the data is noise free, no reduction should occur").

use casbn_graph::{Graph, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Generate a random connected chordal graph with `n` vertices.
///
/// Construction: process vertices `0..n`; vertex `i > 0` picks a random
/// earlier vertex `a` and attaches to a random subset of the clique
/// `{a} ∪ (earlier neighbours of a)` of size at most `max_attach`.
/// Every vertex's earlier neighbourhood is then a clique, so the reverse
/// insertion order is a PEO and the graph is chordal by construction.
pub fn random_chordal(n: usize, max_attach: usize, seed: u64) -> Graph {
    assert!(max_attach >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for i in 1..n as VertexId {
        let a = rng.gen_range(0..i);
        // candidates: a and its current neighbours; greedily keep a random
        // mutually-adjacent subset (a clique) of size ≤ max_attach. The
        // new vertex attaches to a clique, so the graph stays chordal.
        let mut pool: Vec<VertexId> = g.neighbors(a).to_vec();
        pool.push(a);
        let k = rng.gen_range(1..=max_attach.min(pool.len()));
        let mut chosen: Vec<VertexId> = vec![a];
        while chosen.len() < k {
            let c = pool[rng.gen_range(0..pool.len())];
            if !chosen.contains(&c) && chosen.iter().all(|&x| g.has_edge(x, c)) {
                chosen.push(c);
            } else {
                // give up quickly on unlucky draws; the subset stays a clique
                break;
            }
        }
        for &c in &chosen {
            g.add_edge(i, c);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsw::{maximal_chordal_subgraph, ChordalConfig};
    use crate::test_chordal::is_chordal;
    use casbn_graph::algo::connected_components;

    #[test]
    fn generated_graphs_are_chordal_and_connected() {
        for seed in 0..25 {
            for &(n, k) in &[(10usize, 2usize), (50, 4), (120, 6)] {
                let g = random_chordal(n, k, seed);
                assert!(is_chordal(&g), "n={n} k={k} seed={seed} not chordal");
                let (_, comps) = connected_components(&g);
                assert_eq!(comps, 1, "n={n} k={k} seed={seed} disconnected");
            }
        }
    }

    #[test]
    fn noise_free_fixed_point() {
        // §III: a noise-free (already chordal) network should pass through
        // the filter (almost) untouched. DSW guarantees a maximal chordal
        // subgraph; on chordal input the whole graph is the unique maximal
        // chordal subgraph of itself.
        for seed in 0..15 {
            let g = random_chordal(60, 4, seed);
            let r = maximal_chordal_subgraph(&g, ChordalConfig::default());
            assert!(
                r.graph.same_edges(&g),
                "chordal input was reduced: {} -> {} edges (seed {seed})",
                g.m(),
                r.graph.m()
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = random_chordal(80, 5, 7);
        let b = random_chordal(80, 5, 7);
        assert!(a.same_edges(&b));
        let c = random_chordal(80, 5, 8);
        assert!(!a.same_edges(&c));
    }

    #[test]
    fn max_attach_bounds_degreeish() {
        // attach=1 gives a tree
        let g = random_chordal(100, 1, 3);
        assert_eq!(g.m(), 99);
        assert!(is_chordal(&g));
    }
}
