//! The streaming pipeline driver: replay windows → online correlation →
//! network deltas → incremental chordal filter → MCODE, with per-window
//! latency, churn and cluster-stability reporting.
//!
//! **Checkpoints.** [`StreamDriver::checkpoint_bytes`] stores the
//! samples ingested so far, never the pair triangle: four sections of
//! `O(genes × samples)` bytes in all (about 1.7 MB for YNG at 40 samples).
//! [`StreamDriver::resume_from`] replays those samples through a fresh
//! accumulator in one sweep, which rebuilds the moments, co-moments and
//! network bit for bit, then checks the network against the stored edge
//! count and chordal subgraph. A checkpoint holds no wall-clock time, so
//! its bytes depend on the replay alone: a run resumed at any window and
//! driven on writes the same checkpoint as the run it continues.

use crate::online::OnlineCorrelation;
use casbn_chordal::{is_chordal, ChordalConfig, SelectionRule};
use casbn_core::IncrementalChordal;
use casbn_distsim::CostModel;
use casbn_expr::{ExpressionMatrix, NetworkParams};
use casbn_graph::{nbhood, store as graph_store, Graph, VertexId};
use casbn_mcode::{mcode_cluster_into, Cluster, McodeParams, McodeScratch};
use casbn_store::{fnv_mix, Dec, Enc, SectionKind, Store, StoreError, StoreWriter, FNV_BASIS};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Tag of the [`SectionKind::Graph`] section that holds the maintained
/// chordal subgraph inside a checkpoint container (tag 0 is left for
/// standalone graph artifacts).
pub const CHECKPOINT_CHORDAL_TAG: u32 = 1;

/// Configuration of a streaming run.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Samples ingested per window.
    pub batch: usize,
    /// Correlation retention thresholds (the paper's by default).
    pub network: NetworkParams,
    /// MCODE parameters for the per-window re-clustering.
    pub mcode: McodeParams,
    /// Cost model the incremental maintenance clock is charged under.
    pub cost: CostModel,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            batch: 2,
            network: NetworkParams::default(),
            mcode: McodeParams::default(),
            cost: CostModel::default(),
        }
    }
}

/// Per-window measurements of a streaming run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WindowReport {
    /// Window index (0-based).
    pub window: usize,
    /// Samples ingested up to and including this window.
    pub samples_seen: usize,
    /// Edges that crossed the retention cut this window.
    pub inserts: usize,
    /// Edges that fell below the cut this window.
    pub removes: usize,
    /// Live network edges after this window.
    pub network_edges: usize,
    /// Edges retained by the incremental chordal filter.
    pub chordal_edges: usize,
    /// MCODE clusters found on the chordal subgraph.
    pub clusters: usize,
    /// Jaccard overlap of clustered-vertex sets vs the previous window
    /// (1.0 when both windows cluster the same vertices, and for the
    /// first window).
    pub stability: f64,
    /// Simulated seconds of the online-correlation ingest (moments,
    /// co-moments, pair scan) this window.
    pub sim_ingest: f64,
    /// Simulated seconds of the incremental chordal maintenance this
    /// window.
    pub sim_chordal: f64,
    /// Wall-clock time of the whole window (ingest through clustering).
    /// Zero for a window restored from a checkpoint, which stores no wall
    /// time.
    pub wall: Duration,
}

/// Summary of a completed streaming run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StreamSummary {
    /// Genes in the stream.
    pub genes: usize,
    /// Per-window measurements, in order.
    pub windows: Vec<WindowReport>,
    /// Deterministic checksum over the integer window metrics (FNV-1a);
    /// pinned by CI's streaming smoke gate.
    pub checksum: u64,
    /// Median per-window wall latency, nanoseconds (nearest-rank over
    /// the windows this process ran: a resumed run's percentiles leave out
    /// the windows restored from its checkpoint; 0 when it ran none).
    /// Wall fields are host timings — excluded from every determinism
    /// comparison.
    pub wall_p50_nanos: u64,
    /// 95th-percentile per-window wall latency, nanoseconds.
    pub wall_p95_nanos: u64,
    /// Slowest window's wall latency, nanoseconds.
    pub wall_max_nanos: u64,
}

impl StreamSummary {
    /// Total edge churn (inserts + removes) across all windows.
    pub fn total_churn(&self) -> usize {
        self.windows.iter().map(|w| w.inserts + w.removes).sum()
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of sorted `values`; 0 when
/// empty.
fn percentile_nanos(sorted: &[u64], p: u32) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * p as u64).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

/// Incremental streaming pipeline over a growing sample stream.
///
/// Every [`StreamDriver::ingest_window`]:
///
/// 1. feeds the window's samples to the [`OnlineCorrelation`]
///    accumulator, which applies the edge delta they cause to the live
///    network it owns, a plain [`Graph`];
/// 2. maintains the chordal subgraph with [`IncrementalChordal`]
///    (admissibility-tested inserts, deletion-triggered regional
///    rebuilds), charged to the LogP clock;
/// 3. re-clusters the chordal subgraph with MCODE and scores cluster
///    stability against the previous window.
pub struct StreamDriver {
    online: OnlineCorrelation,
    chordal: IncrementalChordal,
    cfg: StreamConfig,
    /// Clustered-vertex set of the previous window, sorted ascending
    /// (clusters are disjoint, so a sorted flat list is a set).
    prev_clustered: Vec<VertexId>,
    /// Current window's clustered-vertex buffer (swapped with the above).
    cur_clustered: Vec<VertexId>,
    /// MCODE scratch + cluster pool reused by every window's
    /// re-clustering — the per-window pipeline allocates nothing in
    /// steady state beyond capacity ratcheting.
    mcode_scratch: McodeScratch,
    clusters: Vec<Cluster>,
    windows: Vec<WindowReport>,
    /// Leading windows restored from a checkpoint (their wall is zero).
    restored: usize,
    sim_ingest_last: f64,
    sim_chordal_last: f64,
}

impl StreamDriver {
    /// Fresh driver over `genes` genes.
    pub fn new(genes: usize, cfg: StreamConfig) -> Self {
        StreamDriver {
            online: OnlineCorrelation::new(genes, cfg.network),
            chordal: IncrementalChordal::with_config(
                genes,
                casbn_chordal::ChordalConfig::default(),
                cfg.cost,
            ),
            cfg,
            prev_clustered: Vec::new(),
            cur_clustered: Vec::new(),
            mcode_scratch: McodeScratch::new(genes),
            clusters: Vec::new(),
            windows: Vec::new(),
            restored: 0,
            sim_ingest_last: 0.0,
            sim_chordal_last: 0.0,
        }
    }

    /// The configuration in force (a resumed driver carries the
    /// checkpointed configuration, not fresh defaults).
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The live network, owned by the correlation accumulator.
    pub fn network(&self) -> &Graph {
        self.online.network()
    }

    /// The maintained chordal subgraph.
    pub fn chordal(&self) -> &Graph {
        self.chordal.subgraph()
    }

    /// Windows processed so far.
    pub fn windows(&self) -> &[WindowReport] {
        &self.windows
    }

    /// MCODE clusters of the most recent window (empty before the first
    /// window completes). Part of the snapshot-publication hook: the
    /// serving tier reads these at each window boundary to build the
    /// immutable snapshot it rotates under concurrent readers.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Current correlation estimate of genes `u ≠ v` (0.0 while either
    /// has no variance). The other half of the snapshot-publication
    /// hook: the serving tier reads it for every network edge to build
    /// its rho table.
    pub fn rho(&self, u: VertexId, v: VertexId) -> f64 {
        self.online.rho(u as usize, v as usize)
    }

    /// Ingest one window of samples and run the full per-window pipeline.
    pub fn ingest_window(&mut self, batch: &ExpressionMatrix) -> WindowReport {
        let started = Instant::now();
        let mut span = casbn_obs::Span::enter("stream.window");
        let delta = self.online.ingest(batch);
        self.chordal.apply(&delta, self.online.network());

        mcode_cluster_into(
            self.chordal.subgraph(),
            &self.cfg.mcode,
            &mut self.mcode_scratch,
            &mut self.clusters,
        );
        let clusters = &self.clusters;
        self.cur_clustered.clear();
        for c in clusters {
            self.cur_clustered.extend_from_slice(&c.vertices);
        }
        // clusters are vertex-disjoint under default MCODE parameters,
        // but fluff can pull the same boundary vertex into two clusters —
        // dedup so the Jaccard inputs are true sets either way
        self.cur_clustered.sort_unstable();
        self.cur_clustered.dedup();
        let stability = jaccard(&self.prev_clustered, &self.cur_clustered);
        std::mem::swap(&mut self.prev_clustered, &mut self.cur_clustered);

        let sim_ingest_total = self.online.work_ops() as f64 * self.cfg.cost.seconds_per_op;
        let sim_ingest = sim_ingest_total - self.sim_ingest_last;
        self.sim_ingest_last = sim_ingest_total;
        let sim_chordal = self.chordal.sim_seconds() - self.sim_chordal_last;
        self.sim_chordal_last = self.chordal.sim_seconds();

        let report = WindowReport {
            window: self.windows.len(),
            samples_seen: self.online.samples(),
            inserts: delta.inserts.len(),
            removes: delta.removes.len(),
            network_edges: self.online.network().m(),
            chordal_edges: self.chordal.retained_edges(),
            clusters: clusters.len(),
            stability,
            sim_ingest,
            sim_chordal,
            wall: started.elapsed(),
        };
        casbn_obs::counter_inc("stream.windows");
        casbn_obs::counter_add("stream.inserts", report.inserts as u64);
        casbn_obs::counter_add("stream.removes", report.removes as u64);
        span.add_items(batch.samples() as u64);
        span.add_sim_nanos(((sim_ingest + sim_chordal) * 1e9).round() as u64);
        drop(span);
        casbn_obs::record_wall_hist("stream.window_wall", report.wall.as_nanos() as u64);
        self.windows.push(report.clone());
        report
    }

    /// Ingest the next window of `replay`, the whole stream from its
    /// first sample on: the `batch` samples after the ones ingested so
    /// far, fewer at the stream's end. `None` once the replay is
    /// exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the configured batch is 0 and samples remain.
    pub fn ingest_next(&mut self, replay: &ExpressionMatrix) -> Option<WindowReport> {
        let lo = self.samples_ingested();
        if lo >= replay.samples() {
            return None;
        }
        assert!(self.cfg.batch > 0, "window batch size must be positive");
        let hi = (lo + self.cfg.batch).min(replay.samples());
        Some(self.ingest_window(&replay.columns(lo, hi)))
    }

    /// Genes in the stream.
    pub fn genes(&self) -> usize {
        self.online.genes()
    }

    /// Samples ingested so far — a resumed replay skips this many
    /// leading samples before continuing.
    pub fn samples_ingested(&self) -> usize {
        self.online.samples()
    }

    /// Check that `replay` is the stream this driver ingested: the same
    /// gene count, at least as many samples, and its first
    /// [`StreamDriver::samples_ingested`] samples equal, bit for bit, to
    /// the ones the driver holds. A resumed driver must be fed the replay
    /// it was checkpointed from; the error names the first sample and gene
    /// that differ.
    pub fn check_replay(&self, replay: &ExpressionMatrix) -> Result<(), String> {
        let (genes, seen) = (self.genes(), self.samples_ingested());
        if replay.genes() != genes {
            return Err(format!(
                "checkpoint holds {genes} genes but the replay has {}",
                replay.genes()
            ));
        }
        if replay.samples() < seen {
            return Err(format!(
                "checkpoint is {seen} samples in but the replay holds only {}",
                replay.samples()
            ));
        }
        let history = self.online.history();
        for s in 0..seen {
            for g in 0..genes {
                let (kept, given) = (history[s * genes + g], replay.row(g)[s]);
                if kept.to_bits() != given.to_bits() {
                    return Err(format!(
                        "replay differs from the checkpoint at sample {s}, gene {g}: \
                         checkpoint {kept}, replay {given}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Serialise the driver's complete resumable state into a `.csbn`
    /// checkpoint container: the samples ingested so far with the
    /// accumulator's scalars and the network's edge count, the
    /// incremental-chordal subgraph and clock, and the driver's window
    /// history (without wall times) and configuration. A driver restored
    /// with [`StreamDriver::resume_from`] and fed the rest of the stream
    /// reproduces the uninterrupted run's windows, final checksum and
    /// checkpoint bytes **exactly**.
    pub fn checkpoint_bytes(&self) -> Result<Vec<u8>, StoreError> {
        self.checkpoint_writer().try_to_bytes()
    }

    /// Stage every checkpoint section into a [`StoreWriter`] without
    /// serialising it. Callers that control their own durability — e.g.
    /// the CLI routing checkpoints through
    /// `casbn_store::io::save_atomic` / `append_durable` — take the
    /// writer and hand it to the crash-safe I/O layer instead of
    /// materialising bytes in memory first.
    pub fn checkpoint_writer(&self) -> StoreWriter {
        let mut w = StoreWriter::new();

        // the ingested samples and the accumulator's scalars: the resume
        // replays the samples, the edge count cross-checks the result
        let mut e = Enc::new();
        e.u64(self.online.genes() as u64);
        e.u64(self.online.samples() as u64);
        e.u64(self.online.work_ops());
        e.f64(self.cfg.network.min_rho);
        e.f64(self.cfg.network.max_p);
        e.u64(self.online.network().m() as u64);
        e.f64s(self.online.history());
        w.add(SectionKind::StreamSamples, 0, e.into_payload());

        // the maintained chordal subgraph
        graph_store::add_graph(&mut w, CHECKPOINT_CHORDAL_TAG, self.chordal.subgraph());

        // incremental-chordal scalars (config, cost model, clock, ops)
        let mut e = Enc::new();
        e.u32(match self.chordal.config().selection {
            SelectionRule::MaxCardinality => 0,
            SelectionRule::LabelOrder => 1,
        });
        e.u32(0); // alignment spacer
        let cost = self.chordal.cost_model();
        e.f64(cost.seconds_per_op);
        e.f64(cost.latency);
        e.f64(cost.seconds_per_byte);
        e.f64(self.chordal.sim_seconds());
        e.u64(self.chordal.total_ops());
        w.add(SectionKind::ChordalState, 0, e.into_payload());

        // driver configuration, stability set and window history
        let mut e = Enc::new();
        e.u64(self.cfg.batch as u64);
        let mc = &self.cfg.mcode;
        e.f64(mc.vwp);
        e.f64(mc.min_score);
        e.u64(mc.haircut as u64);
        e.u64(mc.fluff.is_some() as u64);
        e.f64(mc.fluff.unwrap_or(0.0));
        e.u64(mc.min_size as u64);
        e.f64(self.sim_ingest_last);
        e.f64(self.sim_chordal_last);
        e.u64(self.prev_clustered.len() as u64);
        e.u32s(&self.prev_clustered);
        e.u64(self.windows.len() as u64);
        for r in &self.windows {
            e.u64(r.window as u64);
            e.u64(r.samples_seen as u64);
            e.u64(r.inserts as u64);
            e.u64(r.removes as u64);
            e.u64(r.network_edges as u64);
            e.u64(r.chordal_edges as u64);
            e.u64(r.clusters as u64);
            e.f64(r.stability);
            e.f64(r.sim_ingest);
            e.f64(r.sim_chordal);
        }
        w.add(SectionKind::DriverHistory, 0, e.into_payload());
        w
    }

    /// Restore a driver from a checkpoint container written by
    /// [`StreamDriver::checkpoint_bytes`]: replay the stored samples
    /// through a fresh accumulator in one batch (no `stream.*` counter is
    /// charged and no window is reported), then restore the rest. The
    /// replayed network must have the stored edge count and hold the
    /// stored chordal subgraph, which must be chordal; gene and vertex
    /// counts must agree, the samples and thresholds be finite and the
    /// stability set sorted. Violations surface as
    /// [`StoreError::Malformed`]. A checkpoint in the older triangle
    /// layout lacks the [`SectionKind::StreamSamples`] section and fails
    /// with [`StoreError::MissingSection`].
    pub fn resume_from(store: &Store<'_>) -> Result<StreamDriver, StoreError> {
        let malformed = |what: &str| StoreError::Malformed(what.into());

        // the samples and scalars
        let mut d = Dec::new(store.require_kind(SectionKind::StreamSamples)?);
        let genes = d.dim()?;
        let samples = d.dim()?;
        let work_ops = d.u64()?;
        let network = NetworkParams {
            min_rho: d.f64()?,
            max_p: d.f64()?,
        };
        let edges = d.dim()?;
        let values = genes
            .checked_mul(samples)
            .ok_or_else(|| malformed("sample count overflows the sample array"))?;
        let history = d.finite_f64s(values, "samples")?;
        d.finish()?;

        // the chordal subgraph, before the replay: its stored vertex
        // count bounds the gene count the replay sizes its O(genes²)
        // triangle by
        let h = graph_store::load_csr(store, CHECKPOINT_CHORDAL_TAG)?.to_graph();
        if h.n() != genes {
            return Err(malformed("checkpoint vertex counts disagree"));
        }

        // the samples, replayed into a fresh accumulator; the network
        // must match the stored edge count and hold the chordal subgraph
        let online = OnlineCorrelation::replayed(genes, samples, network, &history, work_ops)
            .map_err(|e| StoreError::Malformed(e.into()))?;
        drop(history);
        let net = online.network();
        if net.m() != edges {
            return Err(StoreError::Malformed(format!(
                "replayed network has {} edges but the checkpoint records {edges}",
                net.m()
            )));
        }
        for (u, v) in h.edges() {
            if !net.has_edge(u, v) {
                return Err(malformed(
                    "chordal subgraph is not a subgraph of the network",
                ));
            }
        }
        // the maintainer's correctness rests on H being chordal; a
        // tampered-but-rechecksummed checkpoint must not smuggle in a
        // non-chordal state (one O(n + m log n) MCS sweep)
        if !is_chordal(&h) {
            return Err(malformed("checkpoint chordal subgraph is not chordal"));
        }

        // chordal maintainer scalars
        let mut d = Dec::new(store.require_kind(SectionKind::ChordalState)?);
        let selection = match d.u32()? {
            0 => SelectionRule::MaxCardinality,
            1 => SelectionRule::LabelOrder,
            _ => return Err(malformed("unknown DSW selection rule")),
        };
        if d.u32()? != 0 {
            return Err(malformed("chordal-state spacer not zero"));
        }
        let cost = CostModel {
            seconds_per_op: d.f64()?,
            latency: d.f64()?,
            seconds_per_byte: d.f64()?,
        };
        let sim_seconds = d.f64()?;
        let ops_total = d.u64()?;
        d.finish()?;
        let chordal = IncrementalChordal::from_state(
            h,
            ChordalConfig { selection },
            cost,
            sim_seconds,
            ops_total,
        );

        // driver state
        let mut d = Dec::new(store.require_kind(SectionKind::DriverHistory)?);
        let batch = d.dim()?;
        if batch == 0 {
            return Err(malformed("window batch size must be positive"));
        }
        let vwp = d.f64()?;
        let min_score = d.f64()?;
        let haircut = d.u64()? != 0;
        let fluff_present = d.u64()? != 0;
        let fluff_value = d.f64()?;
        let min_size = d.dim()?;
        let sim_ingest_last = d.f64()?;
        let sim_chordal_last = d.f64()?;
        let nprev = d.count(4)?;
        let prev_clustered = d.u32s(nprev)?;
        if prev_clustered.windows(2).any(|w| w[0] >= w[1])
            || prev_clustered.iter().any(|&v| v as usize >= genes)
        {
            return Err(malformed("stability set must be ascending and in range"));
        }
        let nwindows = d.count(80)?;
        let mut windows = Vec::with_capacity(nwindows);
        for _ in 0..nwindows {
            windows.push(WindowReport {
                window: d.dim()?,
                samples_seen: d.dim()?,
                inserts: d.dim()?,
                removes: d.dim()?,
                network_edges: d.dim()?,
                chordal_edges: d.dim()?,
                clusters: d.dim()?,
                stability: d.f64()?,
                sim_ingest: d.f64()?,
                sim_chordal: d.f64()?,
                wall: Duration::ZERO,
            });
        }
        d.finish()?;

        let cfg = StreamConfig {
            batch,
            network,
            mcode: McodeParams {
                vwp,
                haircut,
                fluff: fluff_present.then_some(fluff_value),
                min_score,
                min_size,
            },
            cost,
        };
        Ok(StreamDriver {
            online,
            chordal,
            cfg,
            prev_clustered,
            cur_clustered: Vec::new(),
            mcode_scratch: McodeScratch::new(genes),
            clusters: Vec::new(),
            restored: windows.len(),
            windows,
            sim_ingest_last,
            sim_chordal_last,
        })
    }

    /// Deterministic FNV-1a checksum over the integer metrics of every
    /// window so far (insert/remove churn, edge counts, cluster counts).
    pub fn checksum(&self) -> u64 {
        let mut h = FNV_BASIS;
        let mut mix = |x: u64| h = fnv_mix(h, x);
        for w in &self.windows {
            mix(w.samples_seen as u64);
            mix(w.inserts as u64);
            mix(w.removes as u64);
            mix(w.network_edges as u64);
            mix(w.chordal_edges as u64);
            mix(w.clusters as u64);
        }
        h
    }

    /// Finish the run: consume the driver and summarise. The summary's
    /// wall-latency percentiles are nearest-rank over the wall times of
    /// the windows this process ran, not those restored from a checkpoint
    /// (wall fields: reported, never compared).
    pub fn finish(self) -> StreamSummary {
        let checksum = self.checksum();
        let mut walls: Vec<u64> = self.windows[self.restored..]
            .iter()
            .map(|w| w.wall.as_nanos() as u64)
            .collect();
        walls.sort_unstable();
        StreamSummary {
            genes: self.online.genes(),
            checksum,
            wall_p50_nanos: percentile_nanos(&walls, 50),
            wall_p95_nanos: percentile_nanos(&walls, 95),
            wall_max_nanos: walls.last().copied().unwrap_or(0),
            windows: self.windows,
        }
    }

    /// Replay `matrix` (genes × samples, stream order) in `cfg.batch`-
    /// sized windows and summarise. The trailing window may be smaller.
    pub fn run(matrix: &ExpressionMatrix, cfg: StreamConfig) -> StreamSummary {
        let mut driver = StreamDriver::new(matrix.genes(), cfg);
        while driver.ingest_next(matrix).is_some() {}
        driver.finish()
    }
}

/// Jaccard similarity of two sorted vertex sets; 1.0 when both are
/// empty. The intersection runs on the adaptive neighbourhood kernel.
fn jaccard(a: &[VertexId], b: &[VertexId]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = nbhood::intersect_count(a, b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Simulated seconds a from-scratch rebuild of one window would cost
/// under `cost`: re-standardising every gene over all `samples` seen,
/// re-evaluating all `genes·(genes−1)/2` pairs with `samples`-long dot
/// products (the all-pairs Pearson work), plus `dsw_ops` for the from-scratch
/// DSW extraction. This is the baseline the incremental per-window
/// `sim_chordal`/`sim_ingest` numbers are judged against.
pub fn rebuild_sim_seconds(genes: usize, samples: usize, dsw_ops: u64, cost: CostModel) -> f64 {
    let pairs = (genes * genes.saturating_sub(1) / 2) as u64;
    let ops = (genes * samples) as u64 + pairs * samples as u64 + dsw_ops;
    ops as f64 * cost.seconds_per_op
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::synthesize_replay;
    use casbn_chordal::is_chordal;
    use casbn_expr::DatasetPreset;

    fn small_replay() -> ExpressionMatrix {
        synthesize_replay(DatasetPreset::Yng, 0.02, Some(8))
    }

    #[test]
    fn run_windows_cover_the_stream() {
        let m = small_replay();
        let cfg = StreamConfig::default();
        let s = StreamDriver::run(&m, cfg);
        assert_eq!(s.genes, m.genes());
        assert_eq!(s.windows.len(), 4, "8 samples / batch 2");
        assert_eq!(s.windows.last().unwrap().samples_seen, 8);
        for (i, w) in s.windows.iter().enumerate() {
            assert_eq!(w.window, i);
            assert!(w.chordal_edges <= w.network_edges);
            assert!(w.sim_ingest > 0.0);
            assert!((0.0..=1.0).contains(&w.stability));
        }
        assert!(
            s.windows.last().unwrap().network_edges > 0,
            "YNG replay must build a network"
        );
    }

    #[test]
    fn trailing_partial_window() {
        let m = synthesize_replay(DatasetPreset::Yng, 0.01, Some(7));
        let s = StreamDriver::run(
            &m,
            StreamConfig {
                batch: 3,
                ..Default::default()
            },
        );
        assert_eq!(s.windows.len(), 3, "3+3+1");
        assert_eq!(s.windows.last().unwrap().samples_seen, 7);
    }

    #[test]
    fn checksum_is_deterministic_and_sensitive() {
        let m = small_replay();
        let a = StreamDriver::run(&m, StreamConfig::default());
        let b = StreamDriver::run(&m, StreamConfig::default());
        assert_eq!(a.checksum, b.checksum);
        // different batching produces different per-window metrics
        let c = StreamDriver::run(
            &m,
            StreamConfig {
                batch: 4,
                ..Default::default()
            },
        );
        assert_ne!(a.checksum, c.checksum, "batching must be visible");
        assert!(a.checksum != 0);
    }

    #[test]
    fn custom_cost_model_charges_both_sim_metrics() {
        let m = small_replay();
        let base = StreamDriver::run(&m, StreamConfig::default());
        let dear = StreamDriver::run(
            &m,
            StreamConfig {
                cost: CostModel::compute_only(5e-6), // 1000x the default op cost
                ..Default::default()
            },
        );
        assert_eq!(base.checksum, dear.checksum, "cost must not change outputs");
        for (a, b) in base.windows.iter().zip(&dear.windows) {
            // ingest AND chordal maintenance are charged under cfg.cost
            assert!(
                (b.sim_ingest / a.sim_ingest - 1000.0).abs() < 1e-6,
                "ingest"
            );
            assert!(
                (b.sim_chordal / a.sim_chordal - 1000.0).abs() < 1e-6,
                "chordal maintenance must use the configured cost model"
            );
        }
    }

    #[test]
    fn driver_matches_batch_pipeline_at_stream_end() {
        let m = small_replay();
        let cfg = StreamConfig::default();
        let mut driver = StreamDriver::new(m.genes(), cfg);
        while driver.ingest_next(&m).is_some() {}
        // network converges to the batch network; chordal stays chordal
        let batch = casbn_expr::CorrelationNetwork::from_expression_seq(&m, cfg.network);
        assert!(driver.network().same_edges(&batch.graph));
        assert!(is_chordal(driver.chordal()));
        for (u, v) in driver.chordal().edges() {
            assert!(driver.network().has_edge(u, v));
        }
    }

    #[test]
    fn jaccard_edges_and_rebuild_cost() {
        let a: &[VertexId] = &[1, 2, 3];
        let b: &[VertexId] = &[2, 3, 4];
        assert!((jaccard(a, b) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(a, &[]), 0.0);

        let cost = CostModel::default();
        let r = rebuild_sim_seconds(100, 10, 500, cost);
        let expected = (100 * 10 + 4950 * 10 + 500) as f64 * cost.seconds_per_op;
        assert!((r - expected).abs() < 1e-18);
        assert_eq!(rebuild_sim_seconds(0, 5, 0, cost), 0.0);
    }

    #[test]
    fn summary_serializes() {
        let m = synthesize_replay(DatasetPreset::Yng, 0.01, Some(4));
        let s = StreamDriver::run(&m, StreamConfig::default());
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("checksum"));
        assert!(json.contains("windows"));
    }
}
