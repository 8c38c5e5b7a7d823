//! Immutable query snapshots and the rotation registry.
//!
//! A [`ServeSnapshot`] is everything one query needs, frozen: the
//! network and chordal graphs, the MCODE clusters with an `O(1)`
//! membership view, a flat rho table indexed by canonical edge rank,
//! and a synthetic GO annotation with its resident background-frequency
//! index. Snapshots are only ever built whole and published whole
//! through [`SnapshotRegistry::publish`], which swaps an
//! `Arc<ServeSnapshot>` under a lock — readers that already hold an
//! `Arc` keep their old snapshot alive for as long as they need it, so
//! rotation never blocks or invalidates an in-flight batch.

use crate::protocol::{
    ClusterInfo, EnrichHit, Request, Response, StatsInfo, ERR_BAD_GENE, ERR_READ_ONLY,
};
use casbn_graph::{EdgeRankIndex, Graph, VertexId};
use casbn_mcode::{membership_index, Cluster, NO_CLUSTER};
use casbn_ontology::{AnnotatedOntology, EnrichmentIndex, GoDag};
use casbn_store::{fnv_mix, FNV_BASIS};
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

/// Build the GO DAG every snapshot of one engine shares (cloned per
/// snapshot; generation is seeded and deterministic).
pub fn serving_dag() -> GoDag {
    GoDag::generate(GO_LEVELS, GO_WIDTH, GO_EXTRA_PARENT_P, DAG_SEED)
}

/// One immutable, fully-indexed view of the network at a window
/// boundary. Every field is resident: queries touch no disk and take no
/// locks.
pub struct ServeSnapshot {
    /// Publication epoch (windows ingested when the snapshot was built).
    epoch: u64,
    /// Samples ingested when the snapshot was built.
    samples: u64,
    /// The retained co-expression network.
    network: Graph,
    /// The maintained chordal subgraph.
    chordal: Graph,
    /// MCODE clusters, strongest first.
    clusters: Vec<Cluster>,
    /// Per-vertex cluster index ([`NO_CLUSTER`] when unclustered).
    membership: Vec<u32>,
    /// Edge-rank view over `network` for the rho table.
    rho_rank: EdgeRankIndex,
    /// Rho per retained edge, indexed by canonical edge rank (all zero
    /// for static artifacts with no correlation state).
    rho: Vec<f64>,
    /// Synthetic GO annotation wired to the snapshot's clusters.
    onto: AnnotatedOntology,
    /// Resident background-frequency index over `onto`.
    enrich: EnrichmentIndex,
    /// Self-checksum over the structural fields, written last during
    /// construction; [`ServeSnapshot::verify_token`] recomputes it, so a
    /// reader holding a half-built snapshot would be detected.
    token: u64,
}

impl ServeSnapshot {
    /// Freeze a snapshot from its parts. `weights` carries the retained
    /// rho values (canonical `(u, v)` pairs); pairs absent from
    /// `network` are ignored, edges without a weight read as rho 0.0.
    pub fn build(
        epoch: u64,
        samples: u64,
        network: Graph,
        chordal: Graph,
        clusters: Vec<Cluster>,
        weights: &[((VertexId, VertexId), f64)],
        dag: &GoDag,
    ) -> Arc<ServeSnapshot> {
        let n = network.n();
        let membership = membership_index(&clusters, n);
        let rho_rank = EdgeRankIndex::new(&network);
        let mut rho = vec![0.0f64; rho_rank.edge_count()];
        for &((u, v), w) in weights {
            if let Some(r) = rho_rank.rank(&network, u, v) {
                rho[r] = w;
            }
        }
        let modules: Vec<Vec<VertexId>> = clusters.iter().map(|c| c.vertices.clone()).collect();
        let onto = AnnotatedOntology::synthetic(
            n,
            &modules,
            dag.clone(),
            MODULE_TERM_DEPTH,
            NOISE_TERMS,
            ANNOTATION_SEED,
        );
        let enrich = EnrichmentIndex::new(&onto);
        let mut snap = ServeSnapshot {
            epoch,
            samples,
            network,
            chordal,
            clusters,
            membership,
            rho_rank,
            rho,
            onto,
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

    /// The frozen network.
    pub fn network(&self) -> &Graph {
        &self.network
    }

    /// The frozen chordal subgraph.
    pub fn chordal(&self) -> &Graph {
        &self.chordal
    }

    /// The frozen clusters, strongest first.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// FNV-1a over the structural fields (epoch, counts, membership,
    /// rho bits).
    fn compute_token(&self) -> u64 {
        let mut h = FNV_BASIS;
        let mut mix = |x: u64| h = fnv_mix(h, x);
        mix(self.epoch);
        mix(self.samples);
        mix(self.network.n() as u64);
        mix(self.network.m() as u64);
        mix(self.chordal.m() as u64);
        mix(self.clusters.len() as u64);
        for c in &self.clusters {
            mix(c.vertices.len() as u64);
            mix(c.seed as u64);
        }
        for &m in &self.membership {
            mix(m as u64);
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
            genes: self.network.n() as u64,
            network_edges: self.network.m() as u64,
            chordal_edges: self.chordal.m() as u64,
            clusters: self.clusters.len() as u64,
        }
    }

    /// Answer one read-only query. A pure function of `(self, req)` —
    /// this is what makes batched responses byte-deterministic under
    /// any worker count. `Ingest` requests answer [`ERR_READ_ONLY`];
    /// the engine intercepts them before batching in writer sessions.
    pub fn answer(&self, req: &Request) -> Response {
        let n = self.network.n() as u32;
        let bad_gene = |g: u32| Response::Error {
            code: ERR_BAD_GENE,
            message: format!("gene {g} out of range for snapshot with {n} genes"),
        };
        match req {
            Request::Neighborhood { gene } => {
                let Some(nbrs) = self.network.try_neighbors(*gene) else {
                    return bad_gene(*gene);
                };
                casbn_obs::counter_add("serve.ops.neighborhood", 1 + nbrs.len() as u64);
                Response::Neighborhood {
                    gene: *gene,
                    neighbors: nbrs.to_vec(),
                }
            }
            Request::ClusterOf { gene } => {
                let Some(&m) = self.membership.get(*gene as usize) else {
                    return bad_gene(*gene);
                };
                casbn_obs::counter_inc("serve.ops.cluster");
                let cluster = (m != NO_CLUSTER).then(|| {
                    let c = &self.clusters[m as usize];
                    ClusterInfo {
                        index: m,
                        size: c.vertices.len() as u32,
                        score: c.score,
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
                match self.rho_rank.rank(&self.network, *u, *v) {
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
                let hits = self.enrich.enrich(&self.onto, genes, ENRICH_MAX_P);
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
            .field("genes", &self.network.n())
            .field("network_edges", &self.network.m())
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

    fn snap() -> Arc<ServeSnapshot> {
        let (g, _) = planted_partition(60, 4, 10, 0.9, 30, 9);
        let clusters = mcode_cluster(&g, &McodeParams::default());
        let weights: Vec<((VertexId, VertexId), f64)> = g
            .edges()
            .enumerate()
            .map(|(i, e)| (e, 0.5 + (i as f64) * 1e-4))
            .collect();
        ServeSnapshot::build(3, 12, g.clone(), g, clusters, &weights, &serving_dag())
    }

    #[test]
    fn queries_answer_from_resident_indices() {
        let s = snap();
        assert!(s.verify_token());
        // neighborhood matches the graph
        match s.answer(&Request::Neighborhood { gene: 0 }) {
            Response::Neighborhood { gene, neighbors } => {
                assert_eq!(gene, 0);
                assert_eq!(neighbors, s.network().neighbors(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        // membership agrees with the cluster list
        for (i, c) in s.clusters().iter().enumerate() {
            let v = c.vertices[0];
            if let Response::ClusterOf {
                cluster: Some(info),
                ..
            } = s.answer(&Request::ClusterOf { gene: v })
            {
                assert!(info.index as usize <= i);
                assert!(s.clusters()[info.index as usize].vertices.contains(&v));
            } else {
                panic!("clustered vertex {v} reported unclustered");
            }
        }
        // rho follows the weights table on edges, zero off edges
        let (u, v) = s.network().edges().next().unwrap();
        match s.answer(&Request::Rho { u: v, v: u }) {
            Response::Rho { retained, rho, .. } => {
                assert!(retained);
                assert_eq!(rho, 0.5);
            }
            other => panic!("unexpected {other:?}"),
        }
        // stats mirror the snapshot
        match s.answer(&Request::Stats) {
            Response::Stats(st) => {
                assert_eq!(st.epoch, 3);
                assert_eq!(st.samples, 12);
                assert_eq!(st.genes, 60);
                assert_eq!(st.network_edges, s.network().m() as u64);
            }
            other => panic!("unexpected {other:?}"),
        }
        // a clustered module is enriched
        let module = s.clusters()[0].vertices.clone();
        match s.answer(&Request::Enrich { genes: module }) {
            Response::Enrich { terms } => assert!(!terms.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_range_genes_are_typed_errors() {
        let s = snap();
        for req in [
            Request::Neighborhood { gene: 60 },
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
    fn registry_rotates_without_invalidating_readers() {
        let first = snap();
        let reg = SnapshotRegistry::new(first.clone());
        assert_eq!(reg.epoch(), 3);
        assert_eq!(reg.rotations(), 0);
        let held = reg.acquire();
        let next = ServeSnapshot::build(
            4,
            14,
            first.network().clone(),
            first.chordal().clone(),
            first.clusters().to_vec(),
            &[],
            &serving_dag(),
        );
        reg.publish(next);
        assert_eq!(reg.epoch(), 4);
        assert_eq!(reg.rotations(), 1);
        // the pre-rotation handle still answers consistently
        assert_eq!(held.epoch(), 3);
        assert!(held.verify_token());
        assert_eq!(reg.acquire().epoch(), 4);
    }
}
