//! Small graph analyses shared across the workspace: BFS, connected
//! components, triangles and cycle census.

use crate::graph::{Graph, VertexId};
use std::collections::VecDeque;

/// Breadth-first search from `src`. Returns the distance vector with
/// `usize::MAX` for unreachable vertices.
pub fn bfs_distances(g: &Graph, src: VertexId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    let mut q = VecDeque::new();
    dist[src as usize] = 0;
    q.push_back(src);
    while let Some(v) = q.pop_front() {
        let dv = dist[v as usize];
        for &w in g.neighbors(v) {
            if dist[w as usize] == usize::MAX {
                dist[w as usize] = dv + 1;
                q.push_back(w);
            }
        }
    }
    dist
}

/// Connected components. Returns `(component id per vertex, component count)`.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let mut comp = vec![usize::MAX; g.n()];
    let mut next = 0usize;
    let mut q = VecDeque::new();
    for s in 0..g.n() {
        if comp[s] != usize::MAX {
            continue;
        }
        comp[s] = next;
        q.push_back(s as VertexId);
        while let Some(v) = q.pop_front() {
            for &w in g.neighbors(v) {
                if comp[w as usize] == usize::MAX {
                    comp[w as usize] = next;
                    q.push_back(w);
                }
            }
        }
        next += 1;
    }
    (comp, next)
}

/// Count triangles incident to each vertex. Uses the standard
/// neighbour-intersection on canonical edges: `O(sum_e min(d_u, d_v))`.
pub fn triangle_counts(g: &Graph) -> Vec<usize> {
    let mut tri = vec![0usize; g.n()];
    for (u, v) in g.edges() {
        // intersect sorted neighbour lists of u and v above v to count each
        // triangle exactly once at its smallest vertex pair
        let (mut i, mut j) = (0, 0);
        let nu = g.neighbors(u);
        let nv = g.neighbors(v);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let w = nu[i];
                    if w > v {
                        tri[u as usize] += 1;
                        tri[v as usize] += 1;
                        tri[w as usize] += 1;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    tri
}

/// Total triangle count.
pub fn total_triangles(g: &Graph) -> usize {
    triangle_counts(g).iter().sum::<usize>() / 3
}

/// Census of chordless cycle lengths ≥ 4 would be exponential in general;
/// instead we report the *cyclomatic profile* the paper cares about for
/// quasi-chordal graphs: for each connected component, `m - n + 1`
/// independent cycles, plus a count of edges that participate in no
/// triangle (candidate long-cycle edges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleCensus {
    /// Sum over components of `m - n + 1` (number of independent cycles).
    pub independent_cycles: usize,
    /// Edges that close no triangle: in a chordal graph every edge of a
    /// cycle lies in a triangle, so these witness quasi-chordality.
    pub triangle_free_edges: usize,
}

/// Compute the [`CycleCensus`] of `g`.
pub fn cycle_census(g: &Graph) -> CycleCensus {
    let (comp, ncomp) = connected_components(g);
    let mut nv = vec![0usize; ncomp];
    let mut ne = vec![0usize; ncomp];
    for v in 0..g.n() {
        nv[comp[v]] += 1;
    }
    for (u, _v) in g.edges() {
        ne[comp[u as usize]] += 1;
    }
    let independent_cycles = (0..ncomp).map(|c| (ne[c] + 1).saturating_sub(nv[c])).sum();

    let mut triangle_free = 0usize;
    for (u, v) in g.edges() {
        let nu = g.neighbors(u);
        let nv_ = g.neighbors(v);
        let (mut i, mut j) = (0, 0);
        let mut has_common = false;
        while i < nu.len() && j < nv_.len() {
            match nu[i].cmp(&nv_[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    has_common = true;
                    break;
                }
            }
        }
        if !has_common {
            triangle_free += 1;
        }
    }
    CycleCensus {
        independent_cycles,
        triangle_free_edges: triangle_free,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<_> = (0..n)
            .map(|i| (i as VertexId, ((i + 1) % n) as VertexId))
            .collect();
        Graph::from_edges(n, &edges)
    }

    fn clique(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u as VertexId, v as VertexId);
            }
        }
        g
    }

    #[test]
    fn bfs_on_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], usize::MAX);
    }

    #[test]
    fn components_counts() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (comp, n) = connected_components(&g);
        assert_eq!(n, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[3], comp[5]);
    }

    #[test]
    fn triangles_in_k4() {
        let g = clique(4);
        assert_eq!(total_triangles(&g), 4);
        assert_eq!(triangle_counts(&g), vec![3, 3, 3, 3]);
    }

    #[test]
    fn no_triangles_in_cycle5() {
        assert_eq!(total_triangles(&cycle(5)), 0);
    }

    #[test]
    fn cycle_census_on_c5() {
        let c = cycle_census(&cycle(5));
        assert_eq!(c.independent_cycles, 1);
        assert_eq!(c.triangle_free_edges, 5);
    }

    #[test]
    fn cycle_census_on_tree() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let c = cycle_census(&g);
        assert_eq!(c.independent_cycles, 0);
    }
}
