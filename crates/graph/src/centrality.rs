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
use std::sync::atomic::{AtomicUsize, Ordering};

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
/// Sources run in parallel blocks of 64. Within a block the workers take
/// sources one at a time from a shared counter, so a worker that drew
/// cheap sources (isolated vertices, small components) moves on instead
/// of idling while another works through the giant component, and a
/// block's workers finish within one source's work of each other.
/// Each worker owns one set of length-n buffers for the whole call and
/// resets only what a source's BFS touched, so a source costs time linear
/// in its own component, not in n. A source returns a sparse partial, the
/// `(vertex, dependency)` pairs its BFS reached with a non-zero
/// dependency, and each block's partials are added into the scores in
/// source order before the next block starts. The scores start at +0.0
/// and every dependency is positive, so the zero terms left out would not
/// change a bit, and the summation order — hence every score's bits —
/// does not depend on the block size, the thread count or which worker
/// ran which source.
pub fn betweenness_centrality(g: &Graph) -> Vec<f64> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    let workers = rayon::current_num_threads().clamp(1, SOURCE_BLOCK);
    let mut scratches: Vec<BrandesScratch> = (0..workers).map(|_| BrandesScratch::new(n)).collect();
    let mut bc = vec![0.0; n];
    let mut slots: Vec<Partial> = Vec::new();
    for start in (0..n).step_by(SOURCE_BLOCK) {
        let end = (start + SOURCE_BLOCK).min(n);
        // hands out source indices only; partials come back through the
        // workers' joins
        let next = AtomicUsize::new(start);
        let done: Vec<(BrandesScratch, Vec<(usize, Partial)>)> = std::mem::take(&mut scratches)
            .into_par_iter()
            .map(|mut scratch| {
                let mut partials = Vec::new();
                loop {
                    let s = next.fetch_add(1, Ordering::Relaxed);
                    if s >= end {
                        break;
                    }
                    partials.push((s, scratch.source(g, s as VertexId)));
                }
                (scratch, partials)
            })
            .collect();
        slots.resize_with(end - start, Vec::new);
        for (scratch, partials) in done {
            for (s, partial) in partials {
                slots[s - start] = partial;
            }
            scratches.push(scratch);
        }
        for partial in slots.drain(..) {
            for (w, x) in partial {
                bc[w as usize] += x;
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

/// One source's dependencies, as sparse `(vertex, dependency)` pairs.
type Partial = Vec<(VertexId, f64)>;

/// One worker's Brandes buffers, all of length n. Between sources `dist`
/// holds `u32::MAX` and `sigma`/`delta` hold 0.0 everywhere; a source
/// resets only the vertices its BFS reached.
struct BrandesScratch {
    dist: Vec<u32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    /// BFS order of the current source: the FIFO queue of the forward
    /// pass, popped from the back as the stack of the backward pass.
    order: Vec<VertexId>,
}

impl BrandesScratch {
    fn new(n: usize) -> BrandesScratch {
        BrandesScratch {
            dist: vec![u32::MAX; n],
            sigma: vec![0.0; n],
            delta: vec![0.0; n],
            order: Vec::new(),
        }
    }

    /// Source `s`'s dependencies `δ_s(w)`, as `(w, δ_s(w))` for every
    /// `w ≠ s` with `δ_s(w) > 0`.
    ///
    /// The backward pass finds `w`'s shortest-path predecessors as the
    /// neighbours one level closer to `s` instead of storing them. Each
    /// `delta[v]` still receives one term per successor `w`, in the order
    /// the `w` leave the stack, so every dependency keeps its bits.
    fn source(&mut self, g: &Graph, s: VertexId) -> Partial {
        let BrandesScratch {
            dist,
            sigma,
            delta,
            order,
        } = self;
        order.clear();
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        order.push(s);
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            let dv = dist[v as usize];
            for &w in g.neighbors(v) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dv + 1;
                    order.push(w);
                }
                if dist[w as usize] == dv + 1 {
                    sigma[w as usize] += sigma[v as usize];
                }
            }
        }
        let mut out = Vec::new();
        for &w in order.iter().rev() {
            let dw = dist[w as usize];
            let coeff = 1.0 + delta[w as usize];
            for &v in g.neighbors(w) {
                if dist[v as usize] + 1 == dw {
                    delta[v as usize] += sigma[v as usize] / sigma[w as usize] * coeff;
                }
            }
            if w != s && delta[w as usize] != 0.0 {
                out.push((w, delta[w as usize]));
            }
        }
        for &v in order.iter() {
            dist[v as usize] = u32::MAX;
            sigma[v as usize] = 0.0;
            delta[v as usize] = 0.0;
        }
        out
    }
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

    /// One source's dependencies as a dense length-n vector.
    fn brandes_source(g: &Graph, s: VertexId) -> Vec<f64> {
        let mut dense = vec![0.0; g.n()];
        for (w, x) in BrandesScratch::new(g.n()).source(g, s) {
            dense[w as usize] = x;
        }
        dense
    }

    /// The textbook Brandes source pass, with fresh length-n arrays and
    /// stored predecessor lists: the oracle of the scratch kernel.
    fn brandes_source_stored_preds(g: &Graph, s: VertexId) -> Vec<f64> {
        let n = g.n();
        let mut stack: Vec<VertexId> = Vec::with_capacity(n);
        let mut preds: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![i64::MAX; n];
        sigma[s as usize] = 1.0;
        dist[s as usize] = 0;
        let mut q = std::collections::VecDeque::new();
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
                delta[v as usize] +=
                    sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
            }
            if w != s {
                out[w as usize] += delta[w as usize];
            }
        }
        out
    }

    #[test]
    fn scratch_kernel_matches_stored_predecessor_kernel_bitwise() {
        // one scratch across every source, so a missed reset shows up; the
        // sparse gnm graph has many small components and isolated vertices
        for g in [barabasi_albert(150, 3, 5), gnm(300, 240, 9), star(9)] {
            let mut scratch = BrandesScratch::new(g.n());
            for s in 0..g.n() as VertexId {
                let mut got = vec![0.0f64; g.n()];
                for (w, x) in scratch.source(&g, s) {
                    assert!(x > 0.0 && w != s);
                    got[w as usize] = x;
                }
                let want = brandes_source_stored_preds(&g, s);
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "source {s} diverged"
                );
            }
        }
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
