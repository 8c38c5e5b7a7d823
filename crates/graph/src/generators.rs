//! Seeded synthetic graph generators.
//!
//! These provide the structural workloads for tests and benches:
//! `gnm` (uniform random), `barabasi_albert` (scale-free, the degree
//! regime of correlation networks), `planted_partition` (dense modules in
//! sparse noise — the ground-truth model behind the synthetic microarray
//! data), and `caveman` (clique chains, worst case for border edges).

use crate::graph::{Graph, VertexId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Uniform random graph with exactly `m` distinct edges (Erdős–Rényi
/// G(n, m)). Panics if `m` exceeds the number of vertex pairs.
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let max = n * (n.saturating_sub(1)) / 2;
    assert!(m <= max, "m={m} exceeds max edges {max} for n={n}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    // rejection sampling is fine in the sparse regime used throughout
    let dense = m * 3 > max * 2;
    if dense {
        // dense fallback: shuffle the full pair list
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::with_capacity(max);
        for u in 0..n as VertexId {
            for v in (u + 1)..n as VertexId {
                pairs.push((u, v));
            }
        }
        pairs.shuffle(&mut rng);
        for &(u, v) in pairs.iter().take(m) {
            g.add_edge(u, v);
        }
    } else {
        while g.m() < m {
            let u = rng.gen_range(0..n) as VertexId;
            let v = rng.gen_range(0..n) as VertexId;
            if u != v {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Barabási–Albert preferential attachment: start from a small clique of
/// `k.max(2)` vertices, then attach each new vertex to `k` distinct
/// existing vertices chosen proportionally to degree.
pub fn barabasi_albert(n: usize, k: usize, seed: u64) -> Graph {
    assert!(k >= 1 && n > k, "need n > k >= 1");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    let seed_n = (k + 1).min(n);
    for u in 0..seed_n as VertexId {
        for v in (u + 1)..seed_n as VertexId {
            g.add_edge(u, v);
        }
    }
    // repeated-endpoint list: sampling an index uniformly is
    // degree-proportional sampling
    let mut chances: Vec<VertexId> = Vec::with_capacity(2 * n * k);
    for (u, v) in g.edge_vec() {
        chances.push(u);
        chances.push(v);
    }
    for v in seed_n..n {
        let v = v as VertexId;
        let mut targets = Vec::with_capacity(k);
        let mut guard = 0;
        while targets.len() < k && guard < 100 * k {
            let t = chances[rng.gen_range(0..chances.len())];
            if t != v && !targets.contains(&t) {
                targets.push(t);
            }
            guard += 1;
        }
        for &t in &targets {
            if g.add_edge(v, t) {
                chances.push(v);
                chances.push(t);
            }
        }
    }
    g
}

/// Ground truth returned by [`planted_partition`]: the vertex sets of the
/// planted dense modules.
#[derive(Clone, Debug)]
pub struct PlantedModules {
    /// Vertex sets, one per planted module.
    pub modules: Vec<Vec<VertexId>>,
}

/// Planted-partition graph: `modules` dense groups of `module_size`
/// vertices (each internal edge present with probability `p_in`) embedded
/// in `n` total vertices, plus `noise_edges` uniform random edges.
///
/// This mirrors the structure of a thresholded gene-correlation network:
/// co-expressed modules appear as near-cliques; the rest is sparse
/// correlation noise.
pub fn planted_partition(
    n: usize,
    modules: usize,
    module_size: usize,
    p_in: f64,
    noise_edges: usize,
    seed: u64,
) -> (Graph, PlantedModules) {
    assert!(modules * module_size <= n, "modules do not fit in n");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    let mut planted = Vec::with_capacity(modules);
    // spread module vertices across the id space so Natural order doesn't
    // trivially align with modules
    let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
    ids.shuffle(&mut rng);
    for mi in 0..modules {
        let verts: Vec<VertexId> = ids[mi * module_size..(mi + 1) * module_size].to_vec();
        for i in 0..verts.len() {
            for j in (i + 1)..verts.len() {
                if rng.gen_bool(p_in) {
                    g.add_edge(verts[i], verts[j]);
                }
            }
        }
        planted.push(verts);
    }
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < noise_edges && guard < noise_edges * 50 + 1000 {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        if u != v && g.add_edge(u, v) {
            added += 1;
        }
        guard += 1;
    }
    (g, PlantedModules { modules: planted })
}

/// Connected caveman graph: `cliques` cliques of size `csize` joined in a
/// ring by single edges. The worst case for partition border analysis —
/// any block cut slices through a clique.
pub fn caveman(cliques: usize, csize: usize, seed: u64) -> Graph {
    assert!(cliques >= 1 && csize >= 2);
    let _ = seed; // structure is deterministic; seed kept for API symmetry
    let n = cliques * csize;
    let mut g = Graph::new(n);
    for c in 0..cliques {
        let base = (c * csize) as VertexId;
        for i in 0..csize as VertexId {
            for j in (i + 1)..csize as VertexId {
                g.add_edge(base + i, base + j);
            }
        }
        // bridge to next clique
        let next = (((c + 1) % cliques) * csize) as VertexId;
        if cliques > 1 {
            g.add_edge(base + csize as VertexId - 1, next);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::connected_components;

    #[test]
    fn gnm_exact_edge_count() {
        let g = gnm(50, 200, 1);
        assert_eq!(g.n(), 50);
        assert_eq!(g.m(), 200);
    }

    #[test]
    fn gnm_dense_path() {
        let g = gnm(10, 44, 2); // 44 of 45 possible
        assert_eq!(g.m(), 44);
    }

    #[test]
    fn gnm_deterministic() {
        assert!(gnm(40, 100, 7).same_edges(&gnm(40, 100, 7)));
        assert!(!gnm(40, 100, 7).same_edges(&gnm(40, 100, 8)));
    }

    #[test]
    fn ba_degrees_and_connectivity() {
        let g = barabasi_albert(200, 3, 5);
        assert_eq!(g.n(), 200);
        // every non-seed vertex has degree >= k
        for v in 4..200 {
            assert!(g.degree(v as VertexId) >= 3, "v={v}");
        }
        let (_, ncomp) = connected_components(&g);
        assert_eq!(ncomp, 1, "BA graphs are connected");
    }

    #[test]
    fn ba_is_scale_free_ish() {
        // hubs exist: max degree far above the median
        let g = barabasi_albert(500, 2, 9);
        let mut degs: Vec<usize> = (0..500).map(|v| g.degree(v)).collect();
        degs.sort_unstable();
        let median = degs[250];
        let max = *degs.last().unwrap();
        assert!(max >= 4 * median, "max {max} vs median {median}");
    }

    #[test]
    fn planted_modules_are_dense() {
        let (g, truth) = planted_partition(300, 5, 12, 0.95, 100, 3);
        for module in &truth.modules {
            let (sg, _) = g.induced_subgraph(module);
            assert!(
                sg.density() > 0.8,
                "module density {:.2} too low",
                sg.density()
            );
        }
    }

    #[test]
    fn planted_partition_respects_noise_budget() {
        let (g, truth) = planted_partition(200, 3, 10, 1.0, 50, 4);
        let module_edges: usize = truth.modules.len() * (10 * 9) / 2;
        assert_eq!(g.m(), module_edges + 50);
    }

    #[test]
    fn caveman_structure() {
        let g = caveman(4, 5, 0);
        assert_eq!(g.n(), 20);
        // 4 cliques of C(5,2)=10 edges + 4 bridges
        assert_eq!(g.m(), 44);
        let (_, ncomp) = connected_components(&g);
        assert_eq!(ncomp, 1);
    }
}
