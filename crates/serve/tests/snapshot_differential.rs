//! Differential test of the flat serving snapshot against the
//! graph-backed one it replaced, kept here as the oracle: a `Graph` for
//! the network, the cluster list with a membership vector, a rank prefix
//! table over the graph for rho, and a per-gene `Vec` annotation drawn by
//! the old generator (a `BTreeMap` of term children) behind
//! `EnrichmentIndex::new`.
//!
//! Every opcode's encoded frame must match: `Stats`; `Neighborhood` and
//! `ClusterOf` for every gene; `Rho` for every canonical edge, about
//! 3,000 random pairs, `u == v` and out-of-range genes; `Enrich` for every
//! cluster and about 3,000 random 8-gene sets. It runs at every window of
//! a YNG replay at scale 0.15 and on a static engine. The flat annotation
//! generator must match the old one on overlapping modules, empty
//! modules, no noise terms and genes in no module. A counting allocator
//! checks that one window's snapshot build makes the same number of
//! allocations at scale 0.05 and at 0.15: the count does not grow with
//! genes, edges or clusters.

use casbn_expr::DatasetPreset;
use casbn_graph::{Graph, VertexId};
use casbn_mcode::{mcode_cluster, Cluster, McodeParams, NO_CLUSTER};
use casbn_ontology::{AnnotatedOntology, EnrichmentIndex, GoDag, TermId};
use casbn_serve::protocol::{
    ClusterInfo, EnrichHit, Request, Response, StatsInfo, ERR_BAD_GENE, ERR_READ_ONLY,
};
use casbn_serve::snapshot::{
    serving_dag, ANNOTATION_SEED, ENRICH_MAX_P, MODULE_TERM_DEPTH, NOISE_TERMS,
};
use casbn_serve::{ServeEngine, ServeSnapshot, SnapshotContext};
use casbn_stream::{synthesize_replay, StreamConfig, StreamDriver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// `System` wrapper that counts the allocations (`alloc`,
/// `alloc_zeroed`, `realloc`) of the calling thread only, so the other
/// tests of this binary, running beside the measured one, do not
/// pollute its count.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The old annotation generator: a `BTreeMap` of term children and one
/// `Vec` per gene.
fn old_synthetic(
    n_genes: usize,
    modules: &[Vec<VertexId>],
    dag: GoDag,
    module_term_depth: u32,
    noise_terms: usize,
    seed: u64,
) -> AnnotatedOntology {
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut annotations: Vec<Vec<TermId>> = vec![Vec::new(); n_genes];
    let deep_terms = dag.terms_at_depth(module_term_depth.min(dag.max_depth()));
    let mut children: BTreeMap<TermId, Vec<TermId>> = BTreeMap::new();
    for t in 0..dag.n_terms() as TermId {
        for &p in dag.parents(t) {
            children.entry(p).or_default().push(t);
        }
    }
    for (mi, module) in modules.iter().enumerate() {
        let term = deep_terms[mi % deep_terms.len()];
        let kids = children.get(&term).cloned().unwrap_or_default();
        for &gene in module {
            let t = if !kids.is_empty() && rng.gen_bool(0.3) {
                kids[rng.gen_range(0..kids.len())]
            } else {
                term
            };
            annotations[gene as usize].push(t);
        }
    }
    let all_terms = dag.n_terms() as TermId;
    for ann in annotations.iter_mut() {
        for _ in 0..noise_terms {
            ann.push(rng.gen_range(1..all_terms));
        }
        ann.sort_unstable();
        ann.dedup();
    }
    AnnotatedOntology { dag, annotations }
}

/// The graph-backed snapshot and its answer path.
struct Oracle {
    epoch: u64,
    samples: u64,
    network: Graph,
    chordal_edges: usize,
    clusters: Vec<Cluster>,
    membership: Vec<u32>,
    /// `prefix[u]` = canonical edges `(a, b)` with `a < u`.
    prefix: Vec<u32>,
    rho: Vec<f64>,
    onto: AnnotatedOntology,
    enrich: EnrichmentIndex,
}

impl Oracle {
    fn build(
        (epoch, samples): (u64, u64),
        network: Graph,
        chordal: &Graph,
        clusters: Vec<Cluster>,
        weights: &[((VertexId, VertexId), f64)],
    ) -> Oracle {
        let n = network.n();
        let mut membership = vec![NO_CLUSTER; n];
        for (i, c) in clusters.iter().enumerate() {
            for &v in &c.vertices {
                if membership[v as usize] == NO_CLUSTER {
                    membership[v as usize] = i as u32;
                }
            }
        }
        let mut prefix = vec![0u32];
        for u in network.vertices() {
            let nbrs = network.neighbors(u);
            let greater = nbrs.len() - nbrs.partition_point(|&w| w < u);
            prefix.push(prefix[u as usize] + greater as u32);
        }
        let mut oracle = Oracle {
            epoch,
            samples,
            chordal_edges: chordal.m(),
            membership,
            rho: vec![0.0; prefix[n] as usize],
            prefix,
            onto: old_synthetic(
                n,
                &clusters
                    .iter()
                    .map(|c| c.vertices.clone())
                    .collect::<Vec<_>>(),
                serving_dag(),
                MODULE_TERM_DEPTH,
                NOISE_TERMS,
                ANNOTATION_SEED,
            ),
            enrich: EnrichmentIndex::new(&AnnotatedOntology {
                dag: serving_dag(),
                annotations: Vec::new(),
            }),
            network,
            clusters,
        };
        oracle.enrich = EnrichmentIndex::new(&oracle.onto);
        for &((u, v), w) in weights {
            if let Some(r) = oracle.rank(u, v) {
                oracle.rho[r] = w;
            }
        }
        oracle
    }

    fn rank(&self, u: VertexId, v: VertexId) -> Option<usize> {
        if u == v {
            return None;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let nbrs = self.network.try_neighbors(a)?;
        let upper = &nbrs[nbrs.partition_point(|&w| w < a)..];
        let i = upper.binary_search(&b).ok()?;
        Some(self.prefix[a as usize] as usize + i)
    }

    fn answer(&self, req: &Request) -> Response {
        let n = self.network.n() as u32;
        let bad_gene = |g: u32| Response::Error {
            code: ERR_BAD_GENE,
            message: format!("gene {g} out of range for snapshot with {n} genes"),
        };
        match req {
            Request::Neighborhood { gene } => match self.network.try_neighbors(*gene) {
                Some(nbrs) => Response::Neighborhood {
                    gene: *gene,
                    neighbors: nbrs.to_vec(),
                },
                None => bad_gene(*gene),
            },
            Request::ClusterOf { gene } => match self.membership.get(*gene as usize) {
                Some(&m) => Response::ClusterOf {
                    gene: *gene,
                    cluster: (m != NO_CLUSTER).then(|| ClusterInfo {
                        index: m,
                        size: self.clusters[m as usize].vertices.len() as u32,
                        score: self.clusters[m as usize].score,
                    }),
                },
                None => bad_gene(*gene),
            },
            Request::Rho { u, v } => {
                if *u >= n || *v >= n {
                    return bad_gene((*u).max(*v));
                }
                let r = self.rank(*u, *v);
                Response::Rho {
                    u: *u,
                    v: *v,
                    retained: r.is_some(),
                    rho: r.map_or(0.0, |r| self.rho[r]),
                }
            }
            Request::Enrich { genes } => {
                if let Some(&g) = genes.iter().find(|&&g| g >= n) {
                    return bad_gene(g);
                }
                Response::Enrich {
                    terms: self
                        .enrich
                        .enrich(&self.onto, genes, ENRICH_MAX_P)
                        .into_iter()
                        .map(|h| EnrichHit {
                            term: h.term,
                            in_set: h.in_cluster as u32,
                            in_background: h.in_background as u32,
                            p_value: h.p_value,
                        })
                        .collect(),
                }
            }
            Request::Stats => Response::Stats(StatsInfo {
                epoch: self.epoch,
                samples: self.samples,
                genes: n as u64,
                network_edges: self.network.m() as u64,
                chordal_edges: self.chordal_edges as u64,
                clusters: self.clusters.len() as u64,
            }),
            Request::Ingest { .. } => Response::Error {
                code: ERR_READ_ONLY,
                message: "ingest requires a writer session".into(),
            },
        }
    }
}

/// SplitMix64: the random pairs and gene sets.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u32) -> u32 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as u32
    }
}

/// The queries of the module doc over a snapshot of `oracle`'s shape.
fn queries(oracle: &Oracle, seed: u64) -> Vec<Request> {
    let n = oracle.network.n() as u32;
    let mut rng = Mix(seed);
    let mut q = vec![Request::Stats, Request::Ingest { windows: 1 }];
    for g in 0..n {
        q.push(Request::Neighborhood { gene: g });
        q.push(Request::ClusterOf { gene: g });
    }
    for (u, v) in oracle.network.edges() {
        q.push(Request::Rho { u, v });
        q.push(Request::Rho { u: v, v: u });
    }
    for _ in 0..3000 {
        q.push(Request::Rho {
            u: rng.below(n),
            v: rng.below(n),
        });
    }
    for g in [0, n / 2, n.saturating_sub(1)] {
        q.push(Request::Rho { u: g, v: g });
    }
    for bad in [n, n + 7, u32::MAX] {
        q.push(Request::Neighborhood { gene: bad });
        q.push(Request::ClusterOf { gene: bad });
        q.push(Request::Rho { u: 0, v: bad });
        q.push(Request::Rho { u: bad, v: 0 });
        q.push(Request::Enrich {
            genes: vec![0, bad, 1],
        });
    }
    for c in &oracle.clusters {
        q.push(Request::Enrich {
            genes: c.vertices.clone(),
        });
    }
    for _ in 0..3000 {
        q.push(Request::Enrich {
            genes: (0..8).map(|_| rng.below(n)).collect(),
        });
    }
    q.push(Request::Enrich { genes: Vec::new() });
    q
}

/// Every query's frame from the flat snapshot equals the oracle's.
fn assert_same_answers(snap: &ServeSnapshot, oracle: &Oracle, what: &str) -> usize {
    assert!(snap.verify_token(), "{what}: token");
    let q = queries(oracle, snap.epoch() ^ 0x5EED);
    for req in &q {
        assert_eq!(
            snap.answer(req).encode_frame(),
            oracle.answer(req).encode_frame(),
            "{what}: {req:?}"
        );
    }
    q.len()
}

/// Samples in the replays: 20 windows of 2, as the live benchmark runs.
const SAMPLES: usize = 40;

#[test]
fn every_window_of_a_replay_answers_like_the_graph_snapshot() {
    let replay = synthesize_replay(DatasetPreset::Yng, 0.15, Some(SAMPLES));
    let cfg = StreamConfig::default();
    let mut driver = StreamDriver::new(replay.genes(), cfg);
    let ctx = SnapshotContext::new(replay.genes());
    let (mut checked, mut windows, mut clustered) = (0, 0, 0);
    let mut lo = 0;
    loop {
        let snap = ServeSnapshot::from_driver(&driver, &ctx);
        let oracle = Oracle::build(
            (
                driver.windows().len() as u64,
                driver.samples_ingested() as u64,
            ),
            driver.network().clone(),
            driver.chordal(),
            driver.clusters().to_vec(),
            &driver
                .network()
                .edges()
                .map(|(u, v)| ((u, v), driver.rho(u, v)))
                .collect::<Vec<_>>(),
        );
        checked += assert_same_answers(&snap, &oracle, &format!("window {windows}"));
        clustered += usize::from(!oracle.clusters.is_empty());
        if lo >= replay.samples() {
            break;
        }
        let hi = (lo + cfg.batch).min(replay.samples());
        driver.ingest_window(&replay.columns(lo, hi));
        lo = hi;
        windows += 1;
    }
    assert!(windows >= 10, "only {windows} windows");
    assert!(clustered >= 3, "only {clustered} windows had clusters");
    assert!(checked > 100_000, "only {checked} queries");
    assert!(driver.network().m() > 0);
}

#[test]
fn a_static_engine_answers_like_the_graph_snapshot() {
    let replay = synthesize_replay(DatasetPreset::Yng, 0.15, Some(SAMPLES));
    let mut driver = StreamDriver::new(replay.genes(), StreamConfig::default());
    driver.ingest_window(&replay);
    let g = driver.network().clone();
    let engine = ServeEngine::from_graph(g.clone(), &McodeParams::default());
    let clusters = mcode_cluster(&g, &McodeParams::default());
    assert!(!clusters.is_empty());
    let oracle = Oracle::build((0, 0), g.clone(), &g, clusters, &[]);
    assert_same_answers(&engine.snapshot(), &oracle, "static engine");
}

/// Hand-made modules: two overlapping, one empty, genes in none.
fn odd_modules() -> Vec<Vec<VertexId>> {
    vec![
        vec![3, 4, 5, 6, 7],
        vec![],
        vec![6, 7, 8, 9, 10, 11],
        (20..34).collect(),
        vec![],
        vec![33, 40, 41, 42],
    ]
}

#[test]
fn flat_generator_matches_the_old_one() {
    let dag = serving_dag();
    let cases: [(usize, Vec<Vec<VertexId>>, usize, u64); 5] = [
        (60, odd_modules(), NOISE_TERMS, 1),
        (60, odd_modules(), 0, 2),
        (60, Vec::new(), NOISE_TERMS, 3),
        (60, Vec::new(), 0, 4),
        (0, Vec::new(), 3, 5),
    ];
    for (n, modules, noise, seed) in cases {
        for depth in [MODULE_TERM_DEPTH, 2, 99] {
            let flat = AnnotatedOntology::synthetic(n, &modules, dag.clone(), depth, noise, seed);
            let old = old_synthetic(n, &modules, dag.clone(), depth, noise, seed);
            assert_eq!(
                flat.annotations, old.annotations,
                "n {n}, noise {noise}, depth {depth}"
            );
        }
    }
}

#[test]
fn overlapping_and_empty_clusters_answer_like_the_graph_snapshot() {
    let (g, _) = casbn_graph::generators::planted_partition(60, 4, 10, 0.9, 30, 9);
    let cluster = |vertices: Vec<VertexId>, score: f64| Cluster {
        seed: vertices.first().copied().unwrap_or(0),
        vertices,
        edges: Vec::new(),
        score,
    };
    let clusters: Vec<Cluster> = odd_modules()
        .into_iter()
        .enumerate()
        .map(|(i, m)| cluster(m, 9.0 - i as f64))
        .collect();
    let weights: Vec<((VertexId, VertexId), f64)> = g
        .edges()
        .enumerate()
        .map(|(i, e)| (e, 0.25 + i as f64 / 1024.0))
        .collect();
    let snap = ServeSnapshot::build(
        5,
        9,
        g.clone(),
        Graph::new(60),
        clusters.clone(),
        &weights,
        &serving_dag(),
    );
    let oracle = Oracle::build((5, 9), g, &Graph::new(60), clusters, &weights);
    assert_same_answers(&snap, &oracle, "hand-made clusters");
}

#[test]
fn a_window_snapshot_allocates_the_same_at_every_scale() {
    let mut counts = Vec::new();
    for scale in [0.05, 0.15] {
        let replay = synthesize_replay(DatasetPreset::Yng, scale, Some(SAMPLES));
        let mut driver = StreamDriver::new(replay.genes(), StreamConfig::default());
        driver.ingest_window(&replay);
        assert!(driver.network().m() > 0 && !driver.clusters().is_empty());
        let ctx = SnapshotContext::new(replay.genes());
        let (snap, allocs) = allocations_in(|| ServeSnapshot::from_driver(&driver, &ctx));
        let stats = snap.stats();
        counts.push((
            scale,
            stats.genes,
            stats.network_edges,
            stats.clusters,
            allocs,
        ));
    }
    let (small, large) = (counts[0], counts[1]);
    assert!(large.1 > 2 * small.1, "scales too close: {counts:?}");
    assert_eq!(small.4, large.4, "allocations grew with scale: {counts:?}");
    // about a dozen arrays, the `Arc` and the generator's tables
    assert!(small.4 <= 20, "{counts:?}");
}
