//! Maximal chordal subgraph extraction — the Dearing–Shier–Warner (DSW)
//! clique-candidate algorithm (Discrete Applied Mathematics 20(3), 1988),
//! as used by the paper's sequential and parallel filters.
//!
//! # Algorithm
//!
//! Vertices are *processed* one at a time. For every unprocessed vertex `u`
//! we maintain a candidate set `cand(u)` ⊆ processed vertices with the
//! invariant that **`cand(u)` is a clique in the subgraph built so far**.
//! When `u` is processed, the edges `{(u, w) : w ∈ cand(u)}` are added.
//! Because each vertex's earlier-processed neighbourhood is a clique, the
//! reverse processing order is a perfect elimination ordering, so the
//! result is chordal *by construction*.
//!
//! After processing `v` with clique `T(v) = cand(v)`, each unprocessed
//! neighbour `u` of `v` updates its candidate set:
//!
//! * if `cand(u) ⊆ T(v)` then `cand(u) ← cand(u) ∪ {v}` (still a clique:
//!   `v` is adjacent to all of `T(v)` in the new subgraph);
//! * otherwise `(cand(u) ∩ T(v)) ∪ {v}` is also a clique — adopt it when it
//!   is strictly larger than the current `cand(u)` (DSW's improvement rule).
//!
//! Cost: each update intersects two candidate cliques bounded by the max
//! degree `d`, giving the published `O(|E| · d)` bound.
//!
//! # Selection rule
//!
//! The next vertex processed is the unprocessed one with the largest
//! candidate clique (DSW's maximum-cardinality rule), **ties broken by
//! smallest label**. Tie-breaking and the choice of start vertex are
//! exactly where the paper's *vertex ordering* experiments bite: the
//! Natural / High-Degree / Low-Degree / RCM orderings relabel the graph,
//! which perturbs the traversal ("the ones with the higher degree are
//! *likely* to be processed first", §III-A) and hence the extracted
//! subgraph — without changing its chordality guarantee.

use casbn_graph::{nbhood, Graph, VertexId};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// Carries no settings. It stays only because the benchmark crate passes
/// `ChordalConfig::default()` to `casbn_core::IncrementalChordal::with_config`,
/// which ignores it; the DSW functions take no configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChordalConfig;

/// Abstract work counter fed to the distributed-simulation cost model:
/// counts candidate-set operations (the unit the `O(E·d)` bound is
/// expressed in).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkCounter {
    /// Candidate-set element operations performed.
    pub ops: u64,
}

/// Result of a maximal-chordal extraction.
#[derive(Clone, Debug)]
pub struct ChordalResult {
    /// The chordal subgraph (same vertex set as the input).
    pub graph: Graph,
    /// Processing order used (a reverse PEO of `graph`).
    pub order: Vec<VertexId>,
    /// Abstract work performed, for the scalability cost model.
    pub work: WorkCounter,
}

/// Reusable scratch state for [`maximal_chordal_subgraph_with`]: the
/// per-vertex candidate sets, selection heap and intersection buffers,
/// sized on first use and reused across extractions so steady-state
/// filtering (the incremental maintainer's regional rebuilds, repeated
/// benchmark passes) performs no heap allocation.
#[derive(Clone, Debug, Default)]
pub struct DswScratch {
    /// Per-vertex candidate cliques (sorted sets); buffers circulate
    /// through `tv` so capacity is never dropped.
    cand: Vec<Vec<VertexId>>,
    processed: Vec<bool>,
    /// Lazy max-heap of packed `(|cand|, label)` keys — see `pack_key`.
    heap: BinaryHeap<u64>,
    /// Clique of the vertex being processed.
    tv: Vec<VertexId>,
    /// Intersection buffer for the DSW improvement rule.
    inter: Vec<VertexId>,
}

/// Pack a selection key: candidate size in the high 32 bits, bit-flipped
/// label in the low 32. `u64` ordering is then exactly the lexicographic
/// (size ascending, label descending) order, so the heap max is the
/// largest candidate set with ties broken by **smallest** label — one
/// integer compare instead of a tuple compare per sift step.
#[inline]
fn pack_key(size: usize, v: VertexId) -> u64 {
    ((size as u64) << 32) | (u32::MAX - v) as u64
}

/// Unpack a selection key into `(size, label)`.
#[inline]
fn unpack_key(key: u64) -> (usize, VertexId) {
    ((key >> 32) as usize, u32::MAX - (key & 0xffff_ffff) as u32)
}

impl DswScratch {
    /// Scratch pre-sized for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        let mut s = DswScratch::default();
        s.ensure(n);
        s
    }

    /// Grow (never shrink) to cover `n` vertices.
    fn ensure(&mut self, n: usize) {
        if self.cand.len() < n {
            self.cand.resize_with(n, Vec::new);
            self.processed.resize(n, false);
        }
    }
}

/// Extract a maximal chordal subgraph of `g` with the DSW algorithm.
///
/// The output graph spans the same vertex set and its edge set is a subset
/// of `g`'s. The reverse of `result.order` is a perfect elimination
/// ordering of the output, so `is_chordal` always holds (asserted in the
/// test-suite, including property tests).
///
/// Allocates fresh scratch per call; hot paths that extract repeatedly
/// should hold a [`DswScratch`] + [`ChordalResult`] and call
/// [`maximal_chordal_subgraph_with`] instead.
pub fn maximal_chordal_subgraph(g: &Graph) -> ChordalResult {
    let mut scratch = DswScratch::new(g.n());
    let mut result = ChordalResult {
        graph: Graph::new(g.n()),
        order: Vec::with_capacity(g.n()),
        work: WorkCounter::default(),
    };
    maximal_chordal_subgraph_with(g, &mut scratch, &mut result);
    result
}

/// Scratch-threaded DSW extraction: identical output and work accounting
/// to [`maximal_chordal_subgraph`], but every buffer (candidate sets,
/// selection heap, intersection scratch, the output graph's adjacency)
/// is reused from `scratch`/`result`, so repeated extractions reach a
/// zero-allocation steady state (asserted by `tests/alloc_regression.rs`
/// at the workspace root).
pub fn maximal_chordal_subgraph_with(
    g: &Graph,
    scratch: &mut DswScratch,
    result: &mut ChordalResult,
) {
    let n = g.n();
    scratch.ensure(n);
    let DswScratch {
        cand,
        processed,
        heap,
        tv,
        inter,
    } = scratch;
    for c in &mut cand[..n] {
        c.clear();
    }
    processed[..n].fill(false);
    result.graph.reset(n);
    result.order.clear();
    result.work = WorkCounter::default();
    let out = &mut result.graph;
    let order = &mut result.order;
    let work = &mut result.work;

    // Lazy max-heap keyed by packed (|cand|, smallest label). Candidate
    // sets only grow, so stale entries always carry a smaller key and are
    // skipped on pop; a vertex is pushed only when its set grows, so the
    // heap holds O(E) entries total and vertices with empty candidate
    // sets never enter it. An empty heap therefore means every
    // unprocessed vertex has an empty candidate set — a (0, label) tie
    // the original dense heap broke by smallest label — which the
    // ascending label cursor reproduces exactly.
    heap.clear();
    let mut pick_label = 0usize; // cursor for empty-cand picks
    for _ in 0..n {
        let v = loop {
            match heap.pop() {
                Some(key) => {
                    let (sz, u) = unpack_key(key);
                    if !processed[u as usize] && cand[u as usize].len() == sz {
                        break u;
                    }
                }
                None => {
                    while processed[pick_label] {
                        pick_label += 1;
                    }
                    break pick_label as VertexId;
                }
            }
        };
        processed[v as usize] = true;
        order.push(v);

        // clique of v, sorted: copy into the tv buffer rather than
        // swapping, so every candidate buffer stays with its vertex and
        // per-vertex capacity converges after one warm-up pass (a swap
        // would permute buffers across vertices every run)
        tv.clear();
        tv.extend_from_slice(&cand[v as usize]);
        cand[v as usize].clear();

        // materialise the candidate clique edges; the output adjacency is
        // never queried during construction, so append now + sort once
        for &w in tv.iter() {
            out.push_edge_unsorted(v, w);
        }
        work.ops += tv.len() as u64;

        // update unprocessed neighbours
        for &u in g.neighbors(v) {
            if processed[u as usize] {
                continue;
            }
            let cu = &mut cand[u as usize];
            work.ops += (cu.len() + 1) as u64;
            let mut grew = false;
            if nbhood::is_subset(cu, tv) {
                // cand(u) ∪ {v} stays a clique
                insert_sorted(cu, v);
                grew = true;
            } else {
                // adopt (cand(u) ∩ T(v)) ∪ {v} if strictly larger
                inter.clear();
                nbhood::intersect_for_each(cu, tv, |x| inter.push(x));
                work.ops += inter.len() as u64;
                if inter.len() + 1 > cu.len() {
                    cu.clear();
                    cu.extend_from_slice(inter);
                    insert_sorted(cu, v);
                    grew = true;
                }
            }
            if grew {
                heap.push(pack_key(cand[u as usize].len(), u));
            }
        }
    }
    out.sort_adjacency();
    // one shard write per extraction, not per candidate update: the hot
    // loop above already aggregates into the result's WorkCounter
    casbn_obs::counter_inc("dsw.extractions");
    casbn_obs::counter_add("dsw.ops", work.ops);
    casbn_obs::counter_add("dsw.retained_edges", out.m() as u64);
}

/// Re-offer every edge of `g` missing from `h` (in canonical edge order)
/// and keep those whose addition preserves chordality. Guarantees the
/// result is a *maximal* chordal subgraph of `g`.
///
/// Cost is `O(r · (n + m))` for `r` rejected edges — used by tests, not
/// by the pipeline's hot paths.
pub fn repair_maximal(g: &Graph, h: &Graph) -> Graph {
    use crate::test_chordal::is_chordal;
    let mut out = h.clone();
    for (u, v) in g.edges() {
        if out.has_edge(u, v) {
            continue;
        }
        out.add_edge(u, v);
        if !is_chordal(&out) {
            out.remove_edge(u, v);
        }
    }
    out
}

#[inline]
fn insert_sorted(v: &mut Vec<VertexId>, x: VertexId) {
    if let Err(pos) = v.binary_search(&x) {
        v.insert(pos, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_chordal::is_chordal;
    use casbn_graph::generators::{barabasi_albert, gnm, planted_partition};

    fn assert_valid_chordal_subgraph(g: &Graph, h: &Graph) {
        assert_eq!(g.n(), h.n(), "vertex sets must match");
        for (u, v) in h.edges() {
            assert!(g.has_edge(u, v), "edge ({u},{v}) not in original");
        }
        assert!(is_chordal(h), "result must be chordal");
    }

    fn cycle(n: usize) -> Graph {
        let edges: Vec<_> = (0..n)
            .map(|i| (i as VertexId, ((i + 1) % n) as VertexId))
            .collect();
        Graph::from_edges(n, &edges)
    }

    fn clique(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for u in 0..n as VertexId {
            for v in (u + 1)..n as VertexId {
                g.add_edge(u, v);
            }
        }
        g
    }

    #[test]
    fn chordal_input_is_fixed_point_for_cliques() {
        for n in [3, 5, 8] {
            let g = clique(n);
            let r = maximal_chordal_subgraph(&g);
            assert!(r.graph.same_edges(&g), "K{n} should be kept whole");
        }
    }

    #[test]
    fn tree_input_is_kept_whole() {
        let g = Graph::from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        let r = maximal_chordal_subgraph(&g);
        assert!(r.graph.same_edges(&g));
    }

    #[test]
    fn c4_drops_exactly_one_edge() {
        let g = cycle(4);
        let r = maximal_chordal_subgraph(&g);
        assert_eq!(r.graph.m(), 3);
        assert_valid_chordal_subgraph(&g, &r.graph);
    }

    #[test]
    fn cn_keeps_n_minus_one_edges() {
        // a maximal chordal subgraph of a chordless cycle is a spanning path
        for n in [5, 6, 10, 25] {
            let g = cycle(n);
            let r = maximal_chordal_subgraph(&g);
            assert_eq!(r.graph.m(), n - 1, "C{n}");
            assert_valid_chordal_subgraph(&g, &r.graph);
        }
    }

    #[test]
    fn output_always_chordal_on_random_graphs() {
        for seed in 0..5 {
            let g = gnm(120, 360, seed);
            let r = maximal_chordal_subgraph(&g);
            assert_valid_chordal_subgraph(&g, &r.graph);
        }
    }

    #[test]
    fn order_is_reverse_peo() {
        let g = gnm(60, 150, 3);
        let r = maximal_chordal_subgraph(&g);
        let mut peo = r.order.clone();
        peo.reverse();
        assert!(crate::test_chordal::check_peo(&r.graph, &peo));
    }

    #[test]
    fn preserves_planted_cliques_substantially() {
        // hypothesis H0: dense modules survive chordal filtering
        let (g, truth) = planted_partition(200, 4, 10, 1.0, 80, 11);
        let r = maximal_chordal_subgraph(&g);
        for module in &truth.modules {
            let (orig_sg, _) = g.induced_subgraph(module);
            let (filt_sg, _) = r.graph.induced_subgraph(module);
            let keep = filt_sg.m() as f64 / orig_sg.m() as f64;
            // a clique is itself chordal; DSW retains most module edges
            assert!(
                keep > 0.5,
                "module retention {keep:.2} too low (kept {} of {})",
                filt_sg.m(),
                orig_sg.m()
            );
        }
    }

    #[test]
    fn label_order_sensitivity_exists() {
        // different labelings generally give different (sized) subgraphs —
        // this is the phenomenon H0b studies
        let g = gnm(100, 400, 9);
        let r1 = maximal_chordal_subgraph(&g);
        let perm: Vec<VertexId> = (0..100u32).map(|v| 99 - v).collect();
        let gp = g.permuted(&perm);
        let r2 = maximal_chordal_subgraph(&gp);
        // sizes may coincide but edge sets essentially never do; compare
        // unpermuted edge sets
        let back: Vec<VertexId> = perm.clone(); // reversal is an involution
        let r2_back = r2.graph.permuted(&back);
        assert!(
            !r1.graph.same_edges(&r2_back) || r1.graph.m() == g.m(),
            "reversing labels produced the identical subgraph (suspicious)"
        );
    }

    #[test]
    fn repair_maximal_is_maximal_on_small_graphs() {
        for seed in 0..4 {
            let g = gnm(24, 70, seed);
            let r = maximal_chordal_subgraph(&g);
            let fixed = repair_maximal(&g, &r.graph);
            assert!(is_chordal(&fixed));
            // every remaining absent edge must break chordality when added
            for (u, v) in g.edges() {
                if fixed.has_edge(u, v) {
                    continue;
                }
                let mut t = fixed.clone();
                t.add_edge(u, v);
                assert!(!is_chordal(&t), "edge ({u},{v}) could still be added");
            }
        }
    }

    #[test]
    fn greedy_close_to_maximal() {
        // the greedy pass should capture the large majority of the edges the
        // repaired (truly maximal) subgraph has
        let g = barabasi_albert(150, 4, 2);
        let r = maximal_chordal_subgraph(&g);
        let fixed = repair_maximal(&g, &r.graph);
        let ratio = r.graph.m() as f64 / fixed.m() as f64;
        assert!(ratio > 0.75, "greedy/maximal ratio {ratio:.2}");
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_disparate_graphs() {
        // one scratch + result pair reused across graphs of different
        // sizes and densities must reproduce the fresh-allocation path
        // exactly (graph, order, and work counter)
        let mut scratch = DswScratch::new(0);
        let mut result = ChordalResult {
            graph: Graph::new(0),
            order: Vec::new(),
            work: WorkCounter::default(),
        };
        let graphs = [
            gnm(120, 360, 4),
            clique(9),
            cycle(17),
            Graph::new(5),
            gnm(60, 300, 8),
        ];
        for g in &graphs {
            let fresh = maximal_chordal_subgraph(g);
            maximal_chordal_subgraph_with(g, &mut scratch, &mut result);
            assert!(result.graph.same_edges(&fresh.graph));
            assert_eq!(result.order, fresh.order);
            assert_eq!(result.work, fresh.work);
        }
    }

    #[test]
    fn work_counter_grows_with_graph() {
        let small = maximal_chordal_subgraph(&gnm(50, 100, 1));
        let large = maximal_chordal_subgraph(&gnm(500, 1500, 1));
        assert!(large.work.ops > small.work.ops);
    }

    #[test]
    fn empty_graph_ok() {
        let r = maximal_chordal_subgraph(&Graph::new(0));
        assert_eq!(r.graph.n(), 0);
        let r = maximal_chordal_subgraph(&Graph::new(4));
        assert_eq!(r.graph.m(), 0);
        assert_eq!(r.order.len(), 4);
    }
}
