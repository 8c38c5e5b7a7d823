//! Immutable query snapshots and the rotation registry.
//!
//! A [`ServeSnapshot`] is everything one query needs, frozen into flat
//! arrays:
//!
//! * the network as CSR adjacency (`adjncy`);
//! * one packed record per gene (`GeneRecord`): where its adjacency
//!   starts, how many canonical edges precede its own (the rank prefix
//!   of the rho table), its cluster index and where its annotation
//!   terms start, plus one closing record;
//! * the rho table, indexed by canonical edge rank;
//! * the synthetic GO annotation as one flat term array, drawn by
//!   [`casbn_ontology::synthetic_annotation`] (the generator behind
//!   `AnnotatedOntology::synthetic`), and its resident
//!   background-frequency [`EnrichmentIndex`];
//! * a `(size, score)` table of the MCODE clusters;
//! * the `ln i!` table, shared by every snapshot of one gene count.
//!
//! A snapshot is built by reference from its owner's state
//! ([`ServeSnapshot::from_driver`] for a stream): it clones no graph,
//! cluster list or GO DAG. One build makes a fixed number of
//! allocations, whatever the gene, edge and cluster counts: the record,
//! adjacency, rho, cluster, term and background arrays, the annotation
//! generator's parent links and depth list, and the `Arc`. The rho table
//! reads the driver's estimate of each network edge in canonical order,
//! which is rank order. `crates/serve/tests/snapshot_differential.rs` checks
//! every opcode's bytes against the graph-backed snapshot this layout
//! replaced, and the allocation count at two scales.
//!
//! Snapshots are only ever built whole and published whole through
//! [`SnapshotRegistry::publish`], which swaps an `Arc<ServeSnapshot>`
//! under a lock — readers that already hold an `Arc` keep their old
//! snapshot alive for as long as they need it, so rotation never blocks
//! or invalidates an in-flight batch.

use crate::protocol::{
    ClusterInfo, EnrichHit, Request, Response, StatsInfo, ERR_BAD_GENE, ERR_READ_ONLY,
};
use casbn_graph::{Graph, VertexId};
use casbn_mcode::{Cluster, NO_CLUSTER};
use casbn_ontology::{
    ln_factorial_table, synthetic_annotation, EnrichmentIndex, GoDag, TermId, TermOffset,
};
use casbn_store::{fnv_mix, FNV_BASIS};
use casbn_stream::StreamDriver;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// GO DAG depth used for the synthetic annotation (matches the
/// benchmark pipeline's ontology shape).
pub const GO_LEVELS: usize = 8;
/// GO DAG width factor.
pub const GO_WIDTH: usize = 4;
/// Probability of an extra DAG parent.
pub const GO_EXTRA_PARENT_P: f64 = 0.25;
/// DAG term depth at which cluster modules are annotated.
pub const MODULE_TERM_DEPTH: u32 = 6;
/// Noise terms per unclustered gene.
pub const NOISE_TERMS: usize = 2;
/// Seed for the serving tier's GO DAG.
pub const DAG_SEED: u64 = 0x5EED60;
/// Seed for the per-snapshot annotation wiring.
pub const ANNOTATION_SEED: u64 = 0x5EEDA11;
/// Bonferroni-corrected p-value cutoff applied to enrichment queries.
pub const ENRICH_MAX_P: f64 = 0.05;

/// Build the GO DAG every snapshot of one engine is annotated from
/// (generation is seeded and deterministic).
pub fn serving_dag() -> GoDag {
    GoDag::generate(GO_LEVELS, GO_WIDTH, GO_EXTRA_PARENT_P, DAG_SEED)
}

/// What every snapshot over one gene count shares: the GO DAG the
/// annotations are drawn from and the `ln i!` table of the gene count.
#[derive(Clone, Debug)]
pub struct SnapshotContext {
    dag: GoDag,
    ln_fact: Arc<[f64]>,
}

impl SnapshotContext {
    /// The serving DAG and the `ln i!` table for `genes` genes.
    pub fn new(genes: usize) -> SnapshotContext {
        SnapshotContext {
            dag: serving_dag(),
            ln_fact: ln_factorial_table(genes),
        }
    }
}

/// One gene's packed record. Gene `g`'s ranges run from its record's
/// offsets to the next record's.
#[derive(Clone, Copy, Debug)]
struct GeneRecord {
    /// Offset of the gene's sorted neighbours in `adjncy`.
    adj: u32,
    /// Canonical edges `(a, b)` with `a < g`: the rho rank of the gene's
    /// first edge to a larger neighbour.
    rank: u32,
    /// Index of the first cluster holding the gene ([`NO_CLUSTER`] when
    /// unclustered).
    cluster: u32,
    /// Offset of the gene's annotation terms in `terms`.
    terms: u32,
}

impl TermOffset for GeneRecord {
    fn term_offset(&mut self) -> &mut u32 {
        &mut self.terms
    }
}

/// Sorted neighbours of `gene` in CSR records, or `None` when it is out
/// of range.
fn neighbors<'a>(
    genes: &[GeneRecord],
    adjncy: &'a [VertexId],
    gene: VertexId,
) -> Option<&'a [VertexId]> {
    let g = gene as usize;
    (g + 1 < genes.len()).then(|| &adjncy[genes[g].adj as usize..genes[g + 1].adj as usize])
}

/// Canonical rank of the edge `(u, v)` in CSR records, or `None` when it
/// is absent (or out of range, or a self-loop).
fn edge_rank(genes: &[GeneRecord], adjncy: &[VertexId], u: VertexId, v: VertexId) -> Option<usize> {
    if u == v {
        return None;
    }
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    let nbrs = neighbors(genes, adjncy, a)?;
    let upper = &nbrs[nbrs.partition_point(|&w| w < a)..];
    let i = upper.binary_search(&b).ok()?;
    Some(genes[a as usize].rank as usize + i)
}

/// One snapshot's inputs, borrowed from their owner.
struct Parts<'a> {
    epoch: u64,
    samples: u64,
    network: &'a Graph,
    chordal_edges: usize,
    clusters: &'a [Cluster],
    rho: Rho<'a>,
}

/// Where a snapshot's rho values come from.
enum Rho<'a> {
    /// `((u, v), rho)` pairs; pairs absent from the network are ignored,
    /// and an edge without one reads 0.0.
    Weights(&'a [((VertexId, VertexId), f64)]),
    /// The driver's estimate for each network edge
    /// ([`StreamDriver::rho`]).
    Driver(&'a StreamDriver),
}

/// One immutable, fully-indexed view of the network at a window
/// boundary. Every field is resident: queries touch no disk and take no
/// locks.
pub struct ServeSnapshot {
    /// Publication epoch (windows ingested when the snapshot was built).
    epoch: u64,
    /// Samples ingested when the snapshot was built.
    samples: u64,
    /// One record per gene, then one closing record.
    genes: Vec<GeneRecord>,
    /// The network's adjacency lists, back to back (CSR).
    adjncy: Vec<VertexId>,
    /// Edges of the maintained chordal subgraph.
    chordal_edges: u64,
    /// `(size, score)` of each MCODE cluster, strongest first.
    clusters: Vec<(u32, f64)>,
    /// Rho per retained edge, indexed by canonical edge rank (all zero
    /// for static artifacts with no correlation state).
    rho: Vec<f64>,
    /// Every gene's annotation terms, sorted per gene, back to back.
    terms: Vec<TermId>,
    /// Resident background-frequency index over `terms`.
    enrich: EnrichmentIndex,
    /// Self-checksum over the structural fields, written last during
    /// construction; [`ServeSnapshot::verify_token`] recomputes it, so a
    /// reader holding a half-built snapshot would be detected.
    token: u64,
}

impl ServeSnapshot {
    /// Freeze a snapshot from owned parts: the same build as
    /// [`ServeSnapshot::from_driver`], which borrows them instead.
    /// `weights` carries the retained rho values (canonical `(u, v)`
    /// pairs); pairs absent from `network` are ignored, edges without a
    /// weight read as rho 0.0. Only the chordal subgraph's edge count is
    /// kept.
    pub fn build(
        epoch: u64,
        samples: u64,
        network: Graph,
        chordal: Graph,
        clusters: Vec<Cluster>,
        weights: &[((VertexId, VertexId), f64)],
        dag: &GoDag,
    ) -> Arc<ServeSnapshot> {
        let ln_fact = ln_factorial_table(network.n());
        let parts = Parts {
            epoch,
            samples,
            network: &network,
            chordal_edges: chordal.m(),
            clusters: &clusters,
            rho: Rho::Weights(weights),
        };
        ServeSnapshot::assemble(parts, dag, ln_fact)
    }

    /// Freeze the driver's current published state (network, chordal
    /// edge count, clusters, each network edge's rho) by reference.
    pub fn from_driver(driver: &StreamDriver, ctx: &SnapshotContext) -> Arc<ServeSnapshot> {
        let parts = Parts {
            epoch: driver.windows().len() as u64,
            samples: driver.samples_ingested() as u64,
            network: driver.network(),
            chordal_edges: driver.chordal().m(),
            clusters: driver.clusters(),
            rho: Rho::Driver(driver),
        };
        ServeSnapshot::assemble(parts, &ctx.dag, ctx.ln_fact.clone())
    }

    /// Freeze a static network at epoch 0 with its clusters. It has no
    /// correlation state, so every rho reads 0.0, and the network
    /// doubles as the chordal view.
    pub fn from_graph(
        network: &Graph,
        clusters: &[Cluster],
        ctx: &SnapshotContext,
    ) -> Arc<ServeSnapshot> {
        let parts = Parts {
            epoch: 0,
            samples: 0,
            network,
            chordal_edges: network.m(),
            clusters,
            rho: Rho::Weights(&[]),
        };
        ServeSnapshot::assemble(parts, &ctx.dag, ctx.ln_fact.clone())
    }

    /// The one build path. `ln_fact` is [`ln_factorial_table`] of the
    /// gene count.
    fn assemble(p: Parts<'_>, dag: &GoDag, ln_fact: Arc<[f64]>) -> Arc<ServeSnapshot> {
        let n = p.network.n();
        let mut genes = Vec::with_capacity(n + 1);
        let mut adjncy = Vec::with_capacity(2 * p.network.m());
        let mut rank = 0u32;
        for u in p.network.vertices() {
            let nbrs = p.network.neighbors(u);
            genes.push(GeneRecord {
                adj: adjncy.len() as u32,
                rank,
                cluster: NO_CLUSTER,
                terms: 0,
            });
            adjncy.extend_from_slice(nbrs);
            rank += (nbrs.len() - nbrs.partition_point(|&w| w < u)) as u32;
        }
        genes.push(GeneRecord {
            adj: adjncy.len() as u32,
            rank,
            cluster: NO_CLUSTER,
            terms: 0,
        });
        // a gene in several clusters reports the first (strongest)
        for (i, c) in p.clusters.iter().enumerate() {
            for &v in &c.vertices {
                let slot = &mut genes[..n][v as usize].cluster;
                if *slot == NO_CLUSTER {
                    *slot = i as u32;
                }
            }
        }
        let rho = match p.rho {
            Rho::Weights(weights) => {
                let mut rho = vec![0.0; rank as usize];
                for &((u, v), w) in weights {
                    if let Some(r) = edge_rank(&genes, &adjncy, u, v) {
                        rho[r] = w;
                    }
                }
                rho
            }
            Rho::Driver(driver) => {
                // canonical edge order is rank order
                let mut rho = Vec::with_capacity(rank as usize);
                rho.extend(p.network.edges().map(|(u, v)| driver.rho(u, v)));
                rho
            }
        };
        let mut terms = Vec::new();
        synthetic_annotation(
            p.clusters.iter().map(|c| c.vertices.as_slice()),
            dag,
            MODULE_TERM_DEPTH,
            NOISE_TERMS,
            ANNOTATION_SEED,
            &mut genes,
            &mut terms,
        );
        let enrich = EnrichmentIndex::from_terms(n, dag.n_terms(), &terms, ln_fact);
        let mut snap = ServeSnapshot {
            epoch: p.epoch,
            samples: p.samples,
            genes,
            adjncy,
            chordal_edges: p.chordal_edges as u64,
            clusters: p
                .clusters
                .iter()
                .map(|c| (c.vertices.len() as u32, c.score))
                .collect(),
            rho,
            terms,
            enrich,
            token: 0,
        };
        snap.token = snap.compute_token();
        Arc::new(snap)
    }

    /// Publication epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Samples ingested when the snapshot was built.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Genes in the snapshot.
    pub fn genes(&self) -> usize {
        self.genes.len() - 1
    }

    /// Sorted network neighbours of `gene`, or `None` when it is out of
    /// range.
    pub fn neighbors(&self, gene: VertexId) -> Option<&[VertexId]> {
        neighbors(&self.genes, &self.adjncy, gene)
    }

    /// Annotation terms of an in-range `gene`, ascending.
    fn terms_of(&self, gene: VertexId) -> &[TermId] {
        let g = gene as usize;
        &self.terms[self.genes[g].terms as usize..self.genes[g + 1].terms as usize]
    }

    /// FNV-1a over the structural fields (epoch, counts, cluster table,
    /// membership, rho bits).
    fn compute_token(&self) -> u64 {
        let mut h = FNV_BASIS;
        let mut mix = |x: u64| h = fnv_mix(h, x);
        mix(self.epoch);
        mix(self.samples);
        mix(self.genes() as u64);
        mix(self.adjncy.len() as u64);
        mix(self.chordal_edges);
        mix(self.clusters.len() as u64);
        for &(size, score) in &self.clusters {
            mix(size as u64);
            mix(score.to_bits());
        }
        for r in &self.genes {
            mix(r.cluster as u64);
        }
        for &r in &self.rho {
            mix(r.to_bits());
        }
        h
    }

    /// Whether the snapshot's integrity token matches its contents —
    /// the rotation tests use this to prove no reader ever observes a
    /// half-published snapshot.
    pub fn verify_token(&self) -> bool {
        self.token == self.compute_token()
    }

    /// Snapshot-level statistics (the `stats` query body).
    pub fn stats(&self) -> StatsInfo {
        StatsInfo {
            epoch: self.epoch,
            samples: self.samples,
            genes: self.genes() as u64,
            network_edges: self.adjncy.len() as u64 / 2,
            chordal_edges: self.chordal_edges,
            clusters: self.clusters.len() as u64,
        }
    }

    /// Answer one read-only query. A pure function of `(self, req)` —
    /// this is what makes batched responses byte-deterministic under
    /// any arrival pattern. `Ingest` requests answer [`ERR_READ_ONLY`];
    /// the engine intercepts them before batching in writer sessions.
    pub fn answer(&self, req: &Request) -> Response {
        let n = self.genes() as u32;
        let bad_gene = |g: u32| Response::Error {
            code: ERR_BAD_GENE,
            message: format!("gene {g} out of range for snapshot with {n} genes"),
        };
        match req {
            Request::Neighborhood { gene } => {
                let Some(nbrs) = self.neighbors(*gene) else {
                    return bad_gene(*gene);
                };
                casbn_obs::counter_add("serve.ops.neighborhood", 1 + nbrs.len() as u64);
                Response::Neighborhood {
                    gene: *gene,
                    neighbors: nbrs.to_vec(),
                }
            }
            Request::ClusterOf { gene } => {
                if *gene >= n {
                    return bad_gene(*gene);
                }
                casbn_obs::counter_inc("serve.ops.cluster");
                let m = self.genes[*gene as usize].cluster;
                let cluster = (m != NO_CLUSTER).then(|| {
                    let (size, score) = self.clusters[m as usize];
                    ClusterInfo {
                        index: m,
                        size,
                        score,
                    }
                });
                Response::ClusterOf {
                    gene: *gene,
                    cluster,
                }
            }
            Request::Rho { u, v } => {
                if *u >= n || *v >= n {
                    return bad_gene((*u).max(*v));
                }
                casbn_obs::counter_add("serve.ops.rho", 2);
                match edge_rank(&self.genes, &self.adjncy, *u, *v) {
                    Some(r) => Response::Rho {
                        u: *u,
                        v: *v,
                        retained: true,
                        rho: self.rho[r],
                    },
                    None => Response::Rho {
                        u: *u,
                        v: *v,
                        retained: false,
                        rho: 0.0,
                    },
                }
            }
            Request::Enrich { genes } => {
                if let Some(&g) = genes.iter().find(|&&g| g >= n) {
                    return bad_gene(g);
                }
                let hits = self
                    .enrich
                    .enrich_by(|g| self.terms_of(g), genes, ENRICH_MAX_P);
                casbn_obs::counter_add("serve.ops.enrich", genes.len() as u64 + hits.len() as u64);
                Response::Enrich {
                    terms: hits
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
            Request::Stats => {
                casbn_obs::counter_inc("serve.ops.stats");
                Response::Stats(self.stats())
            }
            Request::Ingest { .. } => Response::Error {
                code: ERR_READ_ONLY,
                message: "ingest requires a writer session".into(),
            },
        }
    }
}

impl std::fmt::Debug for ServeSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeSnapshot")
            .field("epoch", &self.epoch)
            .field("samples", &self.samples)
            .field("genes", &self.genes())
            .field("network_edges", &(self.adjncy.len() / 2))
            .field("clusters", &self.clusters.len())
            .finish()
    }
}

/// The rotation point: readers [`acquire`](SnapshotRegistry::acquire)
/// the current snapshot, the writer [`publish`](SnapshotRegistry::publish)es
/// a new one. Both are `O(1)`; a publish never waits for readers to
/// finish with older snapshots (their `Arc`s keep those alive).
#[derive(Debug)]
pub struct SnapshotRegistry {
    current: RwLock<Arc<ServeSnapshot>>,
    epoch: AtomicU64,
    rotations: AtomicU64,
}

impl SnapshotRegistry {
    /// Registry seeded with an initial snapshot (rotation count 0).
    pub fn new(initial: Arc<ServeSnapshot>) -> Arc<SnapshotRegistry> {
        let epoch = initial.epoch();
        Arc::new(SnapshotRegistry {
            current: RwLock::new(initial),
            epoch: AtomicU64::new(epoch),
            rotations: AtomicU64::new(0),
        })
    }

    /// Clone the current snapshot handle. The returned `Arc` stays
    /// valid across any number of subsequent rotations.
    pub fn acquire(&self) -> Arc<ServeSnapshot> {
        self.current.read().unwrap().clone()
    }

    /// Atomically replace the current snapshot. The replaced handle is
    /// dropped after the write lock is released, so freeing an old
    /// snapshot never holds readers out.
    pub fn publish(&self, snap: Arc<ServeSnapshot>) {
        let epoch = snap.epoch();
        let old = {
            let mut current = self.current.write().unwrap();
            std::mem::replace(&mut *current, snap)
        };
        drop(old);
        self.epoch.store(epoch, Ordering::SeqCst);
        self.rotations.fetch_add(1, Ordering::SeqCst);
        casbn_obs::counter_inc("serve.snapshot_rotations");
    }

    /// Epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Snapshots published since the registry was created.
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbn_graph::generators::planted_partition;
    use casbn_mcode::{mcode_cluster, McodeParams};

    /// The snapshot's source graph and clusters, and the snapshot.
    fn snap() -> (Graph, Vec<Cluster>, Arc<ServeSnapshot>) {
        let (g, _) = planted_partition(60, 4, 10, 0.9, 30, 9);
        let clusters = mcode_cluster(&g, &McodeParams::default());
        let weights: Vec<((VertexId, VertexId), f64)> = g
            .edges()
            .enumerate()
            .map(|(i, e)| (e, 0.5 + (i as f64) * 1e-4))
            .collect();
        let s = ServeSnapshot::build(
            3,
            12,
            g.clone(),
            g.clone(),
            clusters.clone(),
            &weights,
            &serving_dag(),
        );
        (g, clusters, s)
    }

    #[test]
    fn queries_answer_from_resident_indices() {
        let (g, clusters, s) = snap();
        assert!(s.verify_token());
        // neighborhood matches the graph, for every gene
        for v in g.vertices() {
            assert_eq!(s.neighbors(v), Some(g.neighbors(v)));
        }
        assert_eq!(s.neighbors(60), None);
        match s.answer(&Request::Neighborhood { gene: 0 }) {
            Response::Neighborhood { gene, neighbors } => {
                assert_eq!(gene, 0);
                assert_eq!(neighbors, g.neighbors(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        // membership agrees with the cluster list
        for (i, c) in clusters.iter().enumerate() {
            let v = c.vertices[0];
            if let Response::ClusterOf {
                cluster: Some(info),
                ..
            } = s.answer(&Request::ClusterOf { gene: v })
            {
                assert!(info.index as usize <= i);
                let home = &clusters[info.index as usize];
                assert!(home.vertices.contains(&v));
                assert_eq!((info.size, info.score), (home.size() as u32, home.score));
            } else {
                panic!("clustered vertex {v} reported unclustered");
            }
        }
        // rho follows the weights table on every edge, zero off edges
        for (r, (u, v)) in g.edges().enumerate() {
            match s.answer(&Request::Rho { u: v, v: u }) {
                Response::Rho { retained, rho, .. } => {
                    assert!(retained);
                    assert_eq!(rho, 0.5 + (r as f64) * 1e-4);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let (u, v) = (0..60u32)
            .flat_map(|u| (u + 1..60).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v))
            .unwrap();
        match s.answer(&Request::Rho { u, v }) {
            Response::Rho { retained, rho, .. } => assert!(!retained && rho == 0.0),
            other => panic!("unexpected {other:?}"),
        }
        // stats mirror the snapshot
        match s.answer(&Request::Stats) {
            Response::Stats(st) => {
                assert_eq!(st.epoch, 3);
                assert_eq!(st.samples, 12);
                assert_eq!(st.genes, 60);
                assert_eq!(st.network_edges, g.m() as u64);
                assert_eq!(st.chordal_edges, g.m() as u64);
                assert_eq!(st.clusters, clusters.len() as u64);
            }
            other => panic!("unexpected {other:?}"),
        }
        // a clustered module is enriched
        let module = clusters[0].vertices.clone();
        match s.answer(&Request::Enrich { genes: module }) {
            Response::Enrich { terms } => assert!(!terms.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_range_genes_are_typed_errors() {
        let (_, _, s) = snap();
        for req in [
            Request::Neighborhood { gene: 60 },
            Request::ClusterOf { gene: 60 },
            Request::ClusterOf { gene: 999 },
            Request::Rho { u: 0, v: 60 },
            Request::Enrich {
                genes: vec![0, 1, 60],
            },
        ] {
            match s.answer(&req) {
                Response::Error { code, .. } => assert_eq!(code, ERR_BAD_GENE),
                other => panic!("expected error, got {other:?}"),
            }
        }
        // ingest against a bare snapshot is read-only
        match s.answer(&Request::Ingest { windows: 1 }) {
            Response::Error { code, .. } => assert_eq!(code, ERR_READ_ONLY),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn owned_and_borrowed_builds_agree() {
        let (g, clusters, owned) = snap();
        let ctx = SnapshotContext::new(g.n());
        let borrowed = ServeSnapshot::from_graph(&g, &clusters, &ctx);
        let queries = [
            Request::ClusterOf { gene: 7 },
            Request::Neighborhood { gene: 9 },
            Request::Enrich {
                genes: clusters[0].vertices.clone(),
            },
        ];
        for q in &queries {
            assert_eq!(
                owned.answer(q).encode_frame(),
                borrowed.answer(q).encode_frame()
            );
        }
    }

    #[test]
    fn registry_rotates_without_invalidating_readers() {
        let (g, clusters, first) = snap();
        let reg = SnapshotRegistry::new(first.clone());
        assert_eq!(reg.epoch(), 3);
        assert_eq!(reg.rotations(), 0);
        let held = reg.acquire();
        let next = ServeSnapshot::build(4, 14, g.clone(), g, clusters, &[], &serving_dag());
        reg.publish(next);
        assert_eq!(reg.epoch(), 4);
        assert_eq!(reg.rotations(), 1);
        // the pre-rotation handle still answers consistently
        assert_eq!(held.epoch(), 3);
        assert!(held.verify_token());
        assert_eq!(reg.acquire().epoch(), 4);
    }
}
