//! Differential tests: the threaded parallel implementations against
//! independently-written sequential references.
//!
//! The parallel Pearson kernel must reproduce the sequential reference
//! **bit-identically**. The threaded chordal filters must produce exactly
//! the graph that a plain single-threaded emulation of the same per-rank
//! algorithm produces (built here on the *global* `Partition::split_edges`
//! path, while production derives edges per rank — two code paths, one
//! answer), across seeds × {block, round-robin} partitions × 1/2/4/8
//! ranks. The no-comm variant additionally respects the paper's ≤ b
//! duplicated-border-edge bound.

use casbn::chordal::{maximal_chordal_subgraph, ChordalConfig};
use casbn::expr::{CorrelationNetwork, NetworkParams, SyntheticMicroarray, SyntheticParams};
use casbn::graph::generators::{gnm, planted_partition};
use casbn::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Pearson: pruned parallel kernel vs sequential reference
// ---------------------------------------------------------------------

#[test]
fn parallel_pearson_equals_sequential_reference_bitwise() {
    for (genes, samples, modules, seed) in [
        (180usize, 10usize, 4usize, 1u64),
        (233, 8, 5, 2),
        (97, 16, 2, 3),
    ] {
        let arr = SyntheticMicroarray::generate(
            &SyntheticParams {
                genes,
                samples,
                modules,
                module_size: 8,
                loading_sq: 0.97,
            },
            seed,
        );
        let params = NetworkParams {
            min_rho: 0.85,
            max_p: 0.01,
        };
        let seq = CorrelationNetwork::from_expression_seq(&arr.matrix, params);
        let par = CorrelationNetwork::from_expression(&arr.matrix, params);
        assert!(seq.graph.m() > 0, "seed {seed}: degenerate reference");
        assert_eq!(par.weights.len(), seq.weights.len(), "seed {seed}");
        for (a, b) in par.weights.iter().zip(&seq.weights) {
            assert_eq!(a.0, b.0, "seed {seed}: edge order drifted");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "seed {seed}: ρ drifted");
        }
        assert!(par.graph.same_edges(&seq.graph));
    }
}

// ---------------------------------------------------------------------
// Shared per-rank machinery of the filter references
// ---------------------------------------------------------------------

/// One rank's local chordal state, computed the plain way.
struct RefLocal {
    verts: Vec<VertexId>,
    g2l: Vec<u32>,
    chordal: Graph,
}

impl RefLocal {
    fn compute(n: usize, part: &Partition, internal: &[(u32, u32)], rank: u32) -> RefLocal {
        let verts = part.vertices_of(rank);
        let mut g2l = vec![u32::MAX; n];
        for (i, &v) in verts.iter().enumerate() {
            g2l[v as usize] = i as u32;
        }
        let mut local = Graph::new(verts.len());
        for &(u, v) in internal {
            local.add_edge(g2l[u as usize], g2l[v as usize]);
        }
        let r = maximal_chordal_subgraph(&local, ChordalConfig::default());
        RefLocal {
            verts,
            g2l,
            chordal: r.graph,
        }
    }

    fn has_chordal_edge(&self, a: VertexId, b: VertexId) -> bool {
        let (la, lb) = (self.g2l[a as usize], self.g2l[b as usize]);
        la != u32::MAX && lb != u32::MAX && self.chordal.has_edge(la, lb)
    }

    fn global_edges(&self) -> Vec<(u32, u32)> {
        self.chordal
            .edges()
            .map(|(u, v)| (self.verts[u as usize], self.verts[v as usize]))
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect()
    }
}

/// Group canonical border edges by their foreign endpoint w.r.t. `rank`;
/// insertion follows the given edge order (canonical ⇒ locals ascending).
fn group_by_foreign(
    border: &[(u32, u32)],
    part: &Partition,
    rank: u32,
) -> BTreeMap<VertexId, Vec<VertexId>> {
    let mut map: BTreeMap<VertexId, Vec<VertexId>> = BTreeMap::new();
    for &(u, v) in border {
        let (local, foreign) = if part.part(u) == rank { (u, v) } else { (v, u) };
        map.entry(foreign).or_default().push(local);
    }
    map
}

fn assemble_ref(n: usize, mut edges: Vec<(u32, u32)>) -> (Graph, usize) {
    edges.sort_unstable();
    let before = edges.len();
    edges.dedup();
    (Graph::from_edges(n, &edges), before - edges.len())
}

// ---------------------------------------------------------------------
// No-comm filter: threaded execution vs sequential emulation
// ---------------------------------------------------------------------

/// Single-threaded emulation of the communication-free algorithm, built
/// on the global `split_edges` view.
fn reference_nocomm(g: &Graph, p: usize, kind: PartitionKind) -> (Graph, usize, usize) {
    let part = Partition::new(g, p, kind);
    let (internal, border) = part.split_edges(g);
    let n = g.n();
    let mut all: Vec<(u32, u32)> = Vec::new();
    for rank in 0..p as u32 {
        let local = RefLocal::compute(n, &part, &internal[rank as usize], rank);
        all.extend(local.global_edges());
        for (f, locs) in group_by_foreign(&border.per_part[rank as usize], &part, rank) {
            for i in 0..locs.len() {
                for j in (i + 1)..locs.len() {
                    if local.has_chordal_edge(locs[i], locs[j]) {
                        all.push((f.min(locs[i]), f.max(locs[i])));
                        all.push((f.min(locs[j]), f.max(locs[j])));
                    }
                }
            }
        }
    }
    // the double-push above can duplicate within a rank; canonicalise the
    // per-rank contribution the same way production does (set semantics)
    let (graph, _) = assemble_ref(n, all);
    (graph, border.all.len(), n)
}

#[test]
fn nocomm_threaded_matches_sequential_emulation() {
    let graphs = [
        gnm(160, 480, 5),
        gnm(200, 800, 11),
        planted_partition(240, 6, 10, 0.9, 150, 7).0,
    ];
    for (gi, g) in graphs.iter().enumerate() {
        for kind in [PartitionKind::Block, PartitionKind::RoundRobin] {
            for p in [1usize, 2, 4, 8] {
                let out = ParallelChordalNoCommFilter::new(p, kind).filter(g, 0);
                let (want, border, _) = reference_nocomm(g, p, kind);
                assert!(
                    out.graph.same_edges(&want),
                    "g{gi} {kind:?} p={p}: threaded no-comm diverged from reference"
                );
                assert_eq!(out.stats.border_edges, border, "g{gi} {kind:?} p={p}");
                // paper bound: ≤ b duplicated border edges
                assert!(
                    out.stats.duplicate_border_edges <= out.stats.border_edges,
                    "g{gi} {kind:?} p={p}: duplicate bound violated"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Comm filter: threaded execution vs sequential emulation
// ---------------------------------------------------------------------

/// Parity rule of `ParallelChordalCommFilter::sender_of`, restated
/// independently.
fn ref_sender(i: usize, j: usize) -> usize {
    let (lo, hi) = (i.min(j), i.max(j));
    if (lo + hi) % 2 == 0 {
        lo
    } else {
        hi
    }
}

/// Single-threaded emulation of the with-communication algorithm: the
/// sender ships the mutual border edges, the receiver keeps a greedy
/// clique of attachment points per foreign vertex.
fn reference_comm(g: &Graph, p: usize, kind: PartitionKind) -> Graph {
    let part = Partition::new(g, p, kind);
    let (internal, border) = part.split_edges(g);
    let n = g.n();
    let locals: Vec<RefLocal> = (0..p as u32)
        .map(|r| RefLocal::compute(n, &part, &internal[r as usize], r))
        .collect();
    let mut all: Vec<(u32, u32)> = Vec::new();
    for local in &locals {
        all.extend(local.global_edges());
    }
    // mutual border edges per unordered pair, canonical global order
    let mut mutual: BTreeMap<(usize, usize), Vec<(u32, u32)>> = BTreeMap::new();
    for &(u, v) in &border.all {
        let (pu, pv) = (part.part(u) as usize, part.part(v) as usize);
        mutual
            .entry((pu.min(pv), pu.max(pv)))
            .or_default()
            .push((u, v));
    }
    for ((a, b), edges) in &mutual {
        let receiver = if ref_sender(*a, *b) == *a { *b } else { *a };
        let local = &locals[receiver];
        for (f, locs) in group_by_foreign(edges, &part, receiver as u32) {
            let mut acc: Vec<VertexId> = Vec::new();
            for &l in &locs {
                if acc.iter().all(|&x| local.has_chordal_edge(x, l)) {
                    acc.push(l);
                    all.push((f.min(l), f.max(l)));
                }
            }
        }
    }
    assemble_ref(n, all).0
}

#[test]
fn comm_threaded_matches_sequential_emulation() {
    let graphs = [
        gnm(150, 500, 3),
        planted_partition(200, 5, 10, 0.9, 120, 13).0,
    ];
    for (gi, g) in graphs.iter().enumerate() {
        for kind in [PartitionKind::Block, PartitionKind::RoundRobin] {
            for p in [1usize, 2, 4, 8] {
                let out = ParallelChordalCommFilter::new(p, kind).filter(g, 0);
                let want = reference_comm(g, p, kind);
                assert!(
                    out.graph.same_edges(&want),
                    "g{gi} {kind:?} p={p}: threaded comm diverged from reference"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Single-rank parallel == sequential filter; clock consistency
// ---------------------------------------------------------------------

#[test]
fn single_rank_parallel_filters_equal_sequential_filter() {
    for seed in [2u64, 9] {
        let g = gnm(140, 420, seed);
        let seq = SequentialChordalFilter::new().filter(&g, 0);
        for kind in [PartitionKind::Block, PartitionKind::RoundRobin] {
            let nocomm = ParallelChordalNoCommFilter::new(1, kind).filter(&g, 0);
            let comm = ParallelChordalCommFilter::new(1, kind).filter(&g, 0);
            assert!(seq.graph.same_edges(&nocomm.graph), "{kind:?}");
            assert!(seq.graph.same_edges(&comm.graph), "{kind:?}");
            assert_eq!(nocomm.stats.border_edges, 0);
            assert_eq!(nocomm.stats.messages, 0);
        }
    }
}

#[test]
fn simulated_clocks_are_reproducible_across_thread_schedules() {
    // the LogP clock must depend only on the communication/compute
    // pattern, never on OS scheduling — run each config repeatedly
    let g = gnm(220, 700, 17);
    for p in [2usize, 4, 8] {
        let nocomm = ParallelChordalNoCommFilter::new(p, PartitionKind::Block);
        let comm = ParallelChordalCommFilter::new(p, PartitionKind::Block);
        let (n0, c0) = (nocomm.filter(&g, 0), comm.filter(&g, 0));
        for _ in 0..3 {
            let (n1, c1) = (nocomm.filter(&g, 0), comm.filter(&g, 0));
            assert_eq!(n0.stats.sim_times, n1.stats.sim_times, "nocomm p={p}");
            assert_eq!(c0.stats.sim_times, c1.stats.sim_times, "comm p={p}");
        }
        assert_eq!(
            n0.stats.sim_makespan,
            n0.stats.sim_times.iter().copied().fold(0.0, f64::max),
            "makespan is the max rank clock"
        );
    }
}

#[test]
fn randomwalk_threaded_is_deterministic_across_ranks_and_partitions() {
    let g = gnm(180, 540, 23);
    for kind in [PartitionKind::Block, PartitionKind::RoundRobin] {
        for p in [1usize, 2, 4, 8] {
            let f = ParallelRandomWalkFilter::new(p, kind);
            let a = f.filter(&g, 42);
            let b = f.filter(&g, 42);
            assert!(a.graph.same_edges(&b.graph), "{kind:?} p={p}");
            assert_eq!(a.stats.sim_times, b.stats.sim_times, "{kind:?} p={p}");
            assert_eq!(a.stats.duplicate_border_edges, 0, "{kind:?} p={p}");
            assert!(a.graph.edges().all(|(u, v)| g.has_edge(u, v)));
        }
    }
}
