//! Vertex centrality measures from the paper's background (§II):
//! "Previous studies have identified high centrality nodes (degree,
//! betweenness, closeness and their combinations) to relate to node
//! essentiality in terms of network robustness and organism survival."
//!
//! Degree and betweenness are the two measures implemented. The
//! `essential_genes` example uses them to check that the chordal filter
//! keeps the network's hubs (key genes), and `casbn stats --centrality`
//! prints them.

use crate::graph::{Graph, VertexId};
use rayon::prelude::*;
use std::collections::VecDeque;

/// Degree centrality: degree / (n − 1).
pub fn degree_centrality(g: &Graph) -> Vec<f64> {
    let n = g.n();
    if n <= 1 {
        return vec![0.0; n];
    }
    let denom = (n - 1) as f64;
    (0..n as VertexId)
        .map(|v| g.degree(v) as f64 / denom)
        .collect()
}

/// Betweenness centrality by Brandes' algorithm (unweighted), with the
/// per-source accumulation parallelised over sources. Scores are the raw
/// (unnormalised) pair-dependency sums of the undirected convention
/// (each pair counted once).
///
/// Sources run in parallel blocks of 64; each block's partial vectors are
/// added into the scores in source order before the next block starts.
/// Memory stays at `64 · n` floats rather than `n²`, and the summation
/// order — hence every score's bits — does not depend on the block size
/// or the thread count.
pub fn betweenness_centrality(g: &Graph) -> Vec<f64> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let mut bc = vec![0.0; n];
    for start in (0..n).step_by(SOURCE_BLOCK) {
        let end = (start + SOURCE_BLOCK).min(n);
        let partials: Vec<Vec<f64>> = (start as VertexId..end as VertexId)
            .into_par_iter()
            .map(|s| brandes_source(g, s))
            .collect();
        for p in &partials {
            for (b, x) in bc.iter_mut().zip(p) {
                *b += x;
            }
        }
    }
    // undirected: each pair double-counted
    for x in bc.iter_mut() {
        *x /= 2.0;
    }
    bc
}

/// Sources per parallel block in [`betweenness_centrality`].
const SOURCE_BLOCK: usize = 64;

fn brandes_source(g: &Graph, s: VertexId) -> Vec<f64> {
    let n = g.n();
    let mut stack: Vec<VertexId> = Vec::with_capacity(n);
    let mut preds: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![i64::MAX; n];
    sigma[s as usize] = 1.0;
    dist[s as usize] = 0;
    let mut q = VecDeque::new();
    q.push_back(s);
    while let Some(v) = q.pop_front() {
        stack.push(v);
        let dv = dist[v as usize];
        for &w in g.neighbors(v) {
            if dist[w as usize] == i64::MAX {
                dist[w as usize] = dv + 1;
                q.push_back(w);
            }
            if dist[w as usize] == dv + 1 {
                sigma[w as usize] += sigma[v as usize];
                preds[w as usize].push(v);
            }
        }
    }
    let mut delta = vec![0.0f64; n];
    let mut out = vec![0.0f64; n];
    while let Some(w) = stack.pop() {
        for &v in &preds[w as usize] {
            delta[v as usize] += sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
        }
        if w != s {
            out[w as usize] += delta[w as usize];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, gnm};

    fn star(n: usize) -> Graph {
        let edges: Vec<_> = (1..n).map(|i| (0, i as VertexId)).collect();
        Graph::from_edges(n, &edges)
    }

    fn path(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1)
            .map(|i| (i as VertexId, i as VertexId + 1))
            .collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn degree_centrality_of_star() {
        let c = degree_centrality(&star(5));
        assert!((c[0] - 1.0).abs() < 1e-12);
        for &x in &c[1..] {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn betweenness_of_path() {
        // P4 0-1-2-3: pairs through 1: (0,2),(0,3) → 2; through 2: (0,3),(1,3) → 2
        let bc = betweenness_centrality(&path(4));
        assert!((bc[0]).abs() < 1e-9);
        assert!((bc[1] - 2.0).abs() < 1e-9, "{bc:?}");
        assert!((bc[2] - 2.0).abs() < 1e-9);
        assert!((bc[3]).abs() < 1e-9);
    }

    #[test]
    fn betweenness_of_star_center() {
        // star K1,4: center mediates C(4,2)=6 pairs
        let bc = betweenness_centrality(&star(5));
        assert!((bc[0] - 6.0).abs() < 1e-9, "{bc:?}");
    }

    #[test]
    fn betweenness_zero_on_clique() {
        let mut g = Graph::new(5);
        for u in 0..5u32 {
            for v in (u + 1)..5u32 {
                g.add_edge(u, v);
            }
        }
        let bc = betweenness_centrality(&g);
        assert!(bc.iter().all(|&x| x.abs() < 1e-9));
    }

    #[test]
    fn disconnected_graphs_handled() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let bc = betweenness_centrality(&g);
        assert!(bc.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn hubs_rank_high_everywhere_on_scale_free() {
        let g = barabasi_albert(300, 3, 7);
        let deg = degree_centrality(&g);
        let bet = betweenness_centrality(&g);
        let top = |scores: &[f64]| {
            let mut idx: Vec<usize> = (0..scores.len()).collect();
            idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
            idx.truncate(20);
            idx
        };
        let (td, tb) = (top(&deg), top(&bet));
        let shared = td.iter().filter(|v| tb.contains(v)).count();
        assert!(
            shared >= 15,
            "degree/betweenness top-20 overlap {shared}/20"
        );
    }

    #[test]
    fn blocked_sum_matches_sequential_brandes_bitwise() {
        // spans several source blocks, with a ragged last block
        let g = barabasi_albert(3 * SOURCE_BLOCK + 17, 3, 11);
        let mut want = vec![0.0; g.n()];
        for s in 0..g.n() as VertexId {
            for (w, x) in want.iter_mut().zip(brandes_source(&g, s)) {
                *w += x;
            }
        }
        for w in want.iter_mut() {
            *w /= 2.0;
        }
        let got = betweenness_centrality(&g);
        assert!(got
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn centrality_vectors_have_graph_length() {
        let g = gnm(40, 80, 3);
        assert_eq!(degree_centrality(&g).len(), 40);
        assert_eq!(betweenness_centrality(&g).len(), 40);
    }
}
