//! Vertex orderings studied in the paper (§III-A, "Effect of Vertex
//! Ordering"): Natural, High-Degree, Low-Degree and Reverse Cuthill–McKee,
//! plus a seeded random ordering used by the test suite.
//!
//! An ordering is expressed as a permutation `perm` with `perm[old] = new`;
//! [`apply_ordering`] relabels a graph accordingly. The chordal filter
//! processes vertices in ascending *new* label, so "High Degree Order"
//! means hub vertices receive the smallest new labels.

use crate::graph::{Graph, VertexId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// The vertex orderings compared in the paper, plus `Random` for testing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OrderingKind {
    /// The order vertices already carry (gene nomenclature order).
    Natural,
    /// Descending degree: hubs processed first.
    HighDegree,
    /// Ascending degree: leaves processed first.
    LowDegree,
    /// Reverse Cuthill–McKee bandwidth-reducing order.
    Rcm,
    /// Uniformly random permutation from the given seed.
    Random(u64),
}

impl OrderingKind {
    /// Short label used in figure output ("NO", "HD", "LD", "RCM").
    pub fn label(&self) -> &'static str {
        match self {
            OrderingKind::Natural => "NO",
            OrderingKind::HighDegree => "HD",
            OrderingKind::LowDegree => "LD",
            OrderingKind::Rcm => "RCM",
            OrderingKind::Random(_) => "RND",
        }
    }

    /// The four orderings evaluated in the paper's figures.
    pub fn paper_set() -> [OrderingKind; 4] {
        [
            OrderingKind::HighDegree,
            OrderingKind::LowDegree,
            OrderingKind::Natural,
            OrderingKind::Rcm,
        ]
    }
}

/// Compute the permutation (`perm[old] = new`) realising `kind` on `g`.
///
/// Ties (equal degree, equal BFS level) are broken by original vertex id so
/// every ordering is deterministic.
pub fn ordering_permutation(g: &Graph, kind: OrderingKind) -> Vec<VertexId> {
    let n = g.n();
    match kind {
        OrderingKind::Natural => (0..n as VertexId).collect(),
        OrderingKind::HighDegree => {
            let mut verts: Vec<VertexId> = (0..n as VertexId).collect();
            verts.sort_by_key(|&v| (Reverse(g.degree(v)), v));
            rank_of(&verts)
        }
        OrderingKind::LowDegree => {
            let mut verts: Vec<VertexId> = (0..n as VertexId).collect();
            verts.sort_by_key(|&v| (g.degree(v), v));
            rank_of(&verts)
        }
        OrderingKind::Rcm => rcm_permutation(g),
        OrderingKind::Random(seed) => {
            let mut verts: Vec<VertexId> = (0..n as VertexId).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            verts.shuffle(&mut rng);
            rank_of(&verts)
        }
    }
}

/// Relabel `g` so that processing vertices `0, 1, 2, …` visits them in the
/// order prescribed by `kind`.
pub fn apply_ordering(g: &Graph, kind: OrderingKind) -> (Graph, Vec<VertexId>) {
    let perm = ordering_permutation(g, kind);
    (g.permuted(&perm), perm)
}

/// Convert a visit sequence (`verts[i]` = i-th vertex visited) into a
/// permutation `perm[old] = new`.
fn rank_of(verts: &[VertexId]) -> Vec<VertexId> {
    let mut perm = vec![0 as VertexId; verts.len()];
    for (new, &old) in verts.iter().enumerate() {
        perm[old as usize] = new as VertexId;
    }
    perm
}

/// Find a pseudo-peripheral vertex of the component containing `start` by
/// the standard double-BFS sweep (George–Liu).
///
/// Each sweep is a BFS that touches only `start`'s component: `dist` is a
/// length-n buffer shared by the whole ordering, which must hold
/// `usize::MAX` everywhere on entry; the sweep records the vertices it
/// reaches in `seen` and resets exactly those before returning, so a sweep
/// costs O(component vertices + edges), not O(n). Every sweep strictly
/// lengthens the eccentricity, so a component takes at most its diameter
/// plus one sweeps, and in practice two or three.
///
/// The next sweep starts from the farthest vertex, chosen by the key
/// `(distance, Reverse(degree), Reverse(id))`: farthest first, then lowest
/// degree (the classic RCM heuristic), then lowest id. The id makes the key
/// unique per vertex, so the choice depends only on the set of vertices at
/// each distance, never on the order the BFS visited them in.
fn pseudo_peripheral(
    g: &Graph,
    start: VertexId,
    dist: &mut [usize],
    seen: &mut Vec<VertexId>,
) -> VertexId {
    let mut v = start;
    let mut ecc = 0usize;
    loop {
        seen.clear();
        dist[v as usize] = 0;
        seen.push(v);
        let mut head = 0;
        while let Some(&u) = seen.get(head) {
            head += 1;
            let du = dist[u as usize];
            for &w in g.neighbors(u) {
                if dist[w as usize] == usize::MAX {
                    dist[w as usize] = du + 1;
                    seen.push(w);
                }
            }
        }
        let (far, fd) = seen
            .iter()
            .map(|&u| (u, dist[u as usize]))
            .max_by_key(|&(u, d)| (d, Reverse(g.degree(u)), Reverse(u)))
            .unwrap();
        for &u in seen.iter() {
            dist[u as usize] = usize::MAX;
        }
        if fd <= ecc {
            return v;
        }
        ecc = fd;
        v = far;
    }
}

/// Reverse Cuthill–McKee: BFS from a pseudo-peripheral vertex of each
/// component (components visited by smallest contained id), neighbours
/// enqueued in ascending `(degree, id)`, final order reversed.
///
/// Cost: every BFS — the pseudo-peripheral sweeps and the numbering pass —
/// is linear in its own component, and the numbering pass sorts each
/// vertex's unvisited neighbours once, so the whole ordering costs
/// O(n + m log Δ) (Δ the maximum degree) times the few sweeps per
/// component. The numbering pass uses `order` itself as its FIFO queue:
/// vertices are numbered in the order they are enqueued.
fn rcm_permutation(g: &Graph) -> Vec<VertexId> {
    let n = g.n();
    let mut visited = vec![false; n];
    let mut dist = vec![usize::MAX; n];
    let mut seen: Vec<VertexId> = Vec::new();
    let mut nbrs: Vec<VertexId> = Vec::new();
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    for s in 0..n {
        if visited[s] {
            continue;
        }
        let root = if g.degree(s as VertexId) == 0 {
            s as VertexId
        } else {
            pseudo_peripheral(g, s as VertexId, &mut dist, &mut seen)
        };
        visited[root as usize] = true;
        let mut head = order.len();
        order.push(root);
        while let Some(&v) = order.get(head) {
            head += 1;
            nbrs.clear();
            nbrs.extend(
                g.neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| !visited[w as usize]),
            );
            // the id makes every key distinct, so an unstable sort is exact
            nbrs.sort_unstable_by_key(|&w| (g.degree(w), w));
            for &w in &nbrs {
                visited[w as usize] = true;
                order.push(w);
            }
        }
    }
    order.reverse();
    rank_of(&order)
}

/// Matrix bandwidth of `g` under its current labelling:
/// `max |u - v|` over edges. RCM should not increase (and usually shrinks)
/// this value relative to a random labelling.
pub fn bandwidth(g: &Graph) -> usize {
    g.edges().map(|(u, v)| (v - u) as usize).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::gnm;

    fn is_permutation(perm: &[VertexId]) -> bool {
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            if seen[p as usize] {
                return false;
            }
            seen[p as usize] = true;
        }
        true
    }

    fn star(n: usize) -> Graph {
        let edges: Vec<_> = (1..n).map(|i| (0, i as VertexId)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn natural_is_identity() {
        let g = star(5);
        let perm = ordering_permutation(&g, OrderingKind::Natural);
        assert_eq!(perm, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn high_degree_puts_hub_first() {
        let g = star(5);
        let perm = ordering_permutation(&g, OrderingKind::HighDegree);
        assert_eq!(perm[0], 0, "hub should get new label 0");
        assert!(is_permutation(&perm));
    }

    #[test]
    fn low_degree_puts_hub_last() {
        let g = star(5);
        let perm = ordering_permutation(&g, OrderingKind::LowDegree);
        assert_eq!(perm[0], 4, "hub should get the last new label");
    }

    #[test]
    fn all_orderings_are_permutations() {
        let g = gnm(60, 150, 7);
        for kind in [
            OrderingKind::Natural,
            OrderingKind::HighDegree,
            OrderingKind::LowDegree,
            OrderingKind::Rcm,
            OrderingKind::Random(3),
        ] {
            let perm = ordering_permutation(&g, kind);
            assert!(is_permutation(&perm), "{kind:?} not a permutation");
        }
    }

    #[test]
    fn orderings_preserve_graph_structure() {
        let g = gnm(40, 90, 11);
        for kind in OrderingKind::paper_set() {
            let (h, _) = apply_ordering(&g, kind);
            assert_eq!(h.n(), g.n());
            assert_eq!(h.m(), g.m());
        }
    }

    #[test]
    fn rcm_reduces_bandwidth_on_path_shuffle() {
        // a path relabelled randomly has large bandwidth; RCM restores ~1
        let n = 50;
        let edges: Vec<_> = (0..n - 1)
            .map(|i| (i as VertexId, i as VertexId + 1))
            .collect();
        let path = Graph::from_edges(n, &edges);
        let (shuffled, _) = apply_ordering(&path, OrderingKind::Random(99));
        let before = bandwidth(&shuffled);
        let (rcm, _) = apply_ordering(&shuffled, OrderingKind::Rcm);
        let after = bandwidth(&rcm);
        assert!(
            after <= before,
            "RCM increased bandwidth {before} -> {after}"
        );
        assert_eq!(after, 1, "path bandwidth under RCM must be 1");
    }

    #[test]
    fn random_ordering_is_seed_deterministic() {
        let g = gnm(30, 60, 5);
        let a = ordering_permutation(&g, OrderingKind::Random(42));
        let b = ordering_permutation(&g, OrderingKind::Random(42));
        let c = ordering_permutation(&g, OrderingKind::Random(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(OrderingKind::Natural.label(), "NO");
        assert_eq!(OrderingKind::Rcm.label(), "RCM");
    }
}
