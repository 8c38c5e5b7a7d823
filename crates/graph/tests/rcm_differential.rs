//! Differential test of the component-local Reverse Cuthill–McKee ordering:
//! `ordering_permutation(_, OrderingKind::Rcm)` must return exactly the
//! permutation of the whole-graph oracle in `rcm_oracle`, on random sparse
//! graphs with many small components and isolated vertices, and on the
//! degenerate shapes (empty graph, one vertex, path, star, disjoint
//! cliques).

mod rcm_oracle;

use casbn_graph::generators::gnm;
use casbn_graph::{ordering_permutation, Graph, OrderingKind, VertexId};
use proptest::prelude::*;
use rcm_oracle::rcm_whole_graph;

fn assert_matches_oracle(g: &Graph, what: &str) {
    let got = ordering_permutation(g, OrderingKind::Rcm);
    let want = rcm_whole_graph(g);
    assert_eq!(got, want, "RCM diverged from the oracle on {what}");
}

fn path(n: usize) -> Graph {
    let edges: Vec<_> = (1..n).map(|i| (i as VertexId - 1, i as VertexId)).collect();
    Graph::from_edges(n, &edges)
}

fn star(n: usize) -> Graph {
    let edges: Vec<_> = (1..n).map(|i| (0, i as VertexId)).collect();
    Graph::from_edges(n, &edges)
}

/// Disjoint cliques of the given sizes, vertex ids interleaved across the
/// cliques so that no component is a contiguous id range.
fn interleaved_cliques(sizes: &[usize]) -> Graph {
    let n: usize = sizes.iter().sum();
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); sizes.len()];
    let mut next = 0 as VertexId;
    while (next as usize) < n {
        for (c, &size) in sizes.iter().enumerate() {
            if members[c].len() < size {
                members[c].push(next);
                next += 1;
            }
        }
    }
    let mut edges = Vec::new();
    for clique in &members {
        for (i, &u) in clique.iter().enumerate() {
            for &v in &clique[i + 1..] {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn rcm_matches_whole_graph_oracle_on_sparse_gnm(
        seed in 0u64..1 << 20,
        n in 0usize..240,
        per_mille in 0usize..1600,
    ) {
        // 0 to 1.6 edges per vertex: from all-isolated through many small
        // trees and unicyclic pieces to one giant component
        let max = n * n.saturating_sub(1) / 2;
        let m = (n * per_mille / 1000).min(max);
        let g = gnm(n, m, seed);
        let got = ordering_permutation(&g, OrderingKind::Rcm);
        prop_assert_eq!(got, rcm_whole_graph(&g), "gnm({}, {}, {})", n, m, seed);
    }
}

#[test]
fn rcm_matches_oracle_on_degenerate_shapes() {
    assert_matches_oracle(&Graph::new(0), "the empty graph");
    assert_matches_oracle(&Graph::new(1), "one vertex");
    assert_matches_oracle(&Graph::new(7), "seven isolated vertices");
    for n in [2, 3, 10, 101] {
        assert_matches_oracle(&path(n), &format!("the path P{n}"));
        assert_matches_oracle(&star(n), &format!("the star K1,{}", n - 1));
    }
    assert_matches_oracle(
        &interleaved_cliques(&[4, 1, 6, 2, 3, 6]),
        "disjoint cliques",
    );
}

#[test]
fn rcm_matches_oracle_on_a_disjoint_union_of_shapes() {
    // a path, a star, a clique and isolated vertices side by side, each
    // relabelled by a shared random permutation
    let parts = [path(9), star(6), interleaved_cliques(&[5]), Graph::new(3)];
    let n: usize = parts.iter().map(Graph::n).sum();
    let mut edges = Vec::new();
    let mut base = 0 as VertexId;
    for part in &parts {
        edges.extend(part.edges().map(|(u, v)| (u + base, v + base)));
        base += part.n() as VertexId;
    }
    let union = Graph::from_edges(n, &edges);
    for seed in 0..8 {
        let shuffled = union.permuted(&ordering_permutation(&union, OrderingKind::Random(seed)));
        assert_matches_oracle(&shuffled, &format!("the shuffled union, seed {seed}"));
    }
}
