//! The whole-graph Reverse Cuthill–McKee ordering that
//! `ordering_permutation(_, OrderingKind::Rcm)` replaced, kept verbatim as
//! the oracle of the RCM differential tests. Every pseudo-peripheral sweep
//! here is a fresh `bfs_distances` over all n vertices, and the farthest
//! vertex is chosen by scanning the whole distance vector, so one call costs
//! O(components · n); the component-local ordering must return the same
//! permutation.
//!
//! Shared by `casbn_graph`'s `rcm_differential` and `casbn_bench`'s
//! `rcm_preset_differential` tests.

use casbn_graph::algo::bfs_distances;
use casbn_graph::{Graph, VertexId};
use std::collections::VecDeque;

fn rank_of(verts: &[VertexId]) -> Vec<VertexId> {
    let mut perm = vec![0 as VertexId; verts.len()];
    for (new, &old) in verts.iter().enumerate() {
        perm[old as usize] = new as VertexId;
    }
    perm
}

fn pseudo_peripheral(g: &Graph, start: VertexId) -> VertexId {
    let mut v = start;
    let mut ecc = 0usize;
    loop {
        let dist = bfs_distances(g, v);
        let (far, fd) = dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != usize::MAX)
            .map(|(u, &d)| (u as VertexId, d))
            .max_by_key(|&(u, d)| (d, std::cmp::Reverse(g.degree(u)), std::cmp::Reverse(u)))
            .unwrap();
        if fd <= ecc {
            return v;
        }
        ecc = fd;
        v = far;
    }
}

/// `perm[old] = new` of the Reverse Cuthill–McKee order of `g`, computed
/// with whole-graph BFS sweeps.
pub fn rcm_whole_graph(g: &Graph) -> Vec<VertexId> {
    let n = g.n();
    let mut visited = vec![false; n];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    for s in 0..n {
        if visited[s] {
            continue;
        }
        let root = if g.degree(s as VertexId) == 0 {
            s as VertexId
        } else {
            pseudo_peripheral(g, s as VertexId)
        };
        let mut q = VecDeque::new();
        visited[root as usize] = true;
        q.push_back(root);
        while let Some(v) = q.pop_front() {
            order.push(v);
            let mut nbrs: Vec<VertexId> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&w| !visited[w as usize])
                .collect();
            nbrs.sort_by_key(|&w| (g.degree(w), w));
            for w in nbrs {
                visited[w as usize] = true;
                q.push_back(w);
            }
        }
    }
    order.reverse();
    rank_of(&order)
}
