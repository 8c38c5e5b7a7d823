//! The serving engine: one writer, many snapshots.
//!
//! A [`ServeEngine`] owns the mutable side of the daemon — for a
//! streaming source, the [`StreamDriver`] and its replay cursor — and a
//! [`SnapshotRegistry`] readers query through. Each ingested window
//! advances the driver, freezes a new [`ServeSnapshot`] from the
//! driver's published state (network, chordal subgraph, clusters,
//! retained rho weights), publishes it, and — when a checkpoint sink is
//! wired — hands the driver's staged [`StoreWriter`] to the sink so the
//! window boundary is also a durable recovery point (the CLI routes
//! sinks through `casbn_store::io::save_atomic`/`append_durable`).

use crate::snapshot::{serving_dag, ServeSnapshot, SnapshotRegistry};
use casbn_expr::ExpressionMatrix;
use casbn_graph::Graph;
use casbn_mcode::{mcode_cluster, McodeParams};
use casbn_ontology::GoDag;
use casbn_store::StoreWriter;
use casbn_stream::{StreamConfig, StreamDriver};
use std::sync::Arc;

/// Where durable checkpoints go. The engine stages the driver's full
/// resumable state into a [`StoreWriter`]; the sink owns durability
/// (atomic rewrite, durable append, an in-memory Vfs in tests…).
pub type CheckpointSink = Box<dyn FnMut(&StoreWriter) -> Result<(), String> + Send>;

/// The daemon's mutable core. Readers never touch it: they hold the
/// registry (see [`ServeEngine::registry`]) and acquire immutable
/// snapshots from it.
pub struct ServeEngine {
    registry: Arc<SnapshotRegistry>,
    dag: GoDag,
    stream: Option<StreamState>,
    sink: Option<CheckpointSink>,
}

struct StreamState {
    driver: StreamDriver,
    replay: ExpressionMatrix,
    cursor: usize,
}

impl ServeEngine {
    /// Serve a static packed network: MCODE runs once, the graph serves
    /// as both network and chordal view, and the rho table is all-zero
    /// (a packed graph artifact carries no correlation state). Ingest
    /// requests are rejected.
    pub fn from_graph(network: Graph, mcode: &McodeParams) -> ServeEngine {
        let clusters = mcode_cluster(&network, mcode);
        let dag = serving_dag();
        let snap = ServeSnapshot::build(0, 0, network.clone(), network, clusters, &[], &dag);
        ServeEngine {
            registry: SnapshotRegistry::new(snap),
            dag,
            stream: None,
            sink: None,
        }
    }

    /// Serve a sample replay: a fresh [`StreamDriver`] plus the full
    /// replay matrix. The epoch-0 snapshot (empty network) publishes
    /// immediately; [`ServeEngine::ingest_windows`] advances from there.
    pub fn from_replay(replay: ExpressionMatrix, cfg: StreamConfig) -> ServeEngine {
        assert!(cfg.batch > 0, "window batch size must be positive");
        let driver = StreamDriver::new(replay.genes(), cfg);
        ServeEngine::from_driver(driver, replay)
    }

    /// Serve from an existing driver (a checkpoint resume): the replay
    /// cursor skips the samples the driver already ingested, and the
    /// current driver state publishes as the initial snapshot.
    pub fn from_driver(driver: StreamDriver, replay: ExpressionMatrix) -> ServeEngine {
        assert_eq!(
            driver.genes(),
            replay.genes(),
            "replay gene count must match the driver"
        );
        let cursor = driver.samples_ingested();
        let dag = serving_dag();
        let snap = snapshot_from_driver(&driver, &dag);
        ServeEngine {
            registry: SnapshotRegistry::new(snap),
            dag,
            stream: Some(StreamState {
                driver,
                replay,
                cursor,
            }),
            sink: None,
        }
    }

    /// Wire a durable-checkpoint sink: called after every published
    /// window boundary and by [`ServeEngine::final_checkpoint`].
    pub fn set_checkpoint_sink(&mut self, sink: CheckpointSink) {
        self.sink = Some(sink);
    }

    /// The rotation registry readers share.
    pub fn registry(&self) -> Arc<SnapshotRegistry> {
        self.registry.clone()
    }

    /// The current snapshot (shorthand for `registry().acquire()`).
    pub fn snapshot(&self) -> Arc<ServeSnapshot> {
        self.registry.acquire()
    }

    /// Whether the engine has a stream source (can ingest).
    pub fn can_ingest(&self) -> bool {
        self.stream.is_some()
    }

    /// Full windows still available in the replay.
    pub fn remaining_windows(&self) -> usize {
        match &self.stream {
            None => 0,
            Some(s) => {
                let left = s.replay.samples().saturating_sub(s.cursor);
                left.div_ceil(s.driver.config().batch)
            }
        }
    }

    /// Streaming checksum of the driver so far (FNV over the integer
    /// window metrics), 0 for static sources.
    pub fn stream_checksum(&self) -> u64 {
        self.stream.as_ref().map_or(0, |s| s.driver.checksum())
    }

    /// Ingest up to `n` windows, publishing one snapshot (and one
    /// durable checkpoint, when a sink is wired) per window boundary.
    /// Returns `(windows_run, epoch)`; runs fewer than `n` windows only
    /// when the replay is exhausted. Errors from the checkpoint sink
    /// abort the loop after the failing window's snapshot published.
    pub fn ingest_windows(&mut self, n: usize) -> Result<(usize, u64), String> {
        if self.stream.is_none() {
            return Err("static artifact source cannot ingest".into());
        }
        let mut run = 0usize;
        for _ in 0..n {
            let s = self.stream.as_mut().unwrap();
            let batch = s.driver.config().batch;
            let samples = s.replay.samples();
            if s.cursor >= samples {
                break;
            }
            let hi = (s.cursor + batch).min(samples);
            let window = s.replay.columns(s.cursor, hi);
            s.driver.ingest_window(&window);
            s.cursor = hi;
            casbn_obs::counter_inc("serve.ingest_windows");
            let snap = snapshot_from_driver(&s.driver, &self.dag);
            self.registry.publish(snap);
            run += 1;
            self.write_checkpoint()?;
        }
        Ok((run, self.registry.epoch()))
    }

    /// Write a durable checkpoint of the current driver state through
    /// the wired sink. `Ok(false)` when there is nothing to do (static
    /// source or no sink) — the graceful-shutdown path calls this after
    /// draining so the final state is always a recovery point.
    pub fn final_checkpoint(&mut self) -> Result<bool, String> {
        if self.stream.is_none() || self.sink.is_none() {
            return Ok(false);
        }
        self.write_checkpoint()?;
        Ok(true)
    }

    fn write_checkpoint(&mut self) -> Result<(), String> {
        let (Some(s), Some(sink)) = (&self.stream, &mut self.sink) else {
            return Ok(());
        };
        sink(&s.driver.checkpoint_writer())
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("epoch", &self.registry.epoch())
            .field("streaming", &self.stream.is_some())
            .field("checkpointing", &self.sink.is_some())
            .finish()
    }
}

/// Freeze the driver's current published state into a snapshot (the
/// snapshot-publication hook: clusters + retained weights come from the
/// driver's per-window pipeline).
fn snapshot_from_driver(driver: &StreamDriver, dag: &GoDag) -> Arc<ServeSnapshot> {
    ServeSnapshot::build(
        driver.windows().len() as u64,
        driver.samples_ingested() as u64,
        driver.network().clone(),
        driver.chordal().clone(),
        driver.clusters().to_vec(),
        &driver.retained_weights(),
        dag,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbn_expr::DatasetPreset;
    use casbn_stream::synthesize_replay;

    fn tiny_replay() -> ExpressionMatrix {
        synthesize_replay(DatasetPreset::Yng, 0.02, Some(8))
    }

    #[test]
    fn ingest_publishes_one_rotation_per_window() {
        let mut eng = ServeEngine::from_replay(tiny_replay(), StreamConfig::default());
        let reg = eng.registry();
        assert_eq!(reg.epoch(), 0);
        assert_eq!(eng.remaining_windows(), 4);
        let (run, epoch) = eng.ingest_windows(2).unwrap();
        assert_eq!((run, epoch), (2, 2));
        assert_eq!(reg.rotations(), 2);
        // over-asking runs only what the replay still holds
        let (run, epoch) = eng.ingest_windows(99).unwrap();
        assert_eq!((run, epoch), (2, 4));
        assert_eq!(eng.remaining_windows(), 0);
        let snap = eng.snapshot();
        assert_eq!(snap.epoch(), 4);
        assert_eq!(snap.samples(), 8);
        assert!(snap.verify_token());
    }

    #[test]
    fn snapshot_matches_driver_state() {
        let replay = tiny_replay();
        let mut eng = ServeEngine::from_replay(replay.clone(), StreamConfig::default());
        eng.ingest_windows(3).unwrap();
        // an independent single-threaded driver over the same windows
        let mut oracle = StreamDriver::new(replay.genes(), StreamConfig::default());
        for w in 0..3 {
            oracle.ingest_window(&replay.columns(w * 2, (w + 1) * 2));
        }
        let snap = eng.snapshot();
        assert!(snap.network().same_edges(oracle.network()));
        assert!(snap.chordal().same_edges(oracle.chordal()));
        assert_eq!(snap.clusters().len(), oracle.clusters().len());
        assert_eq!(eng.stream_checksum(), oracle.checksum());
    }

    #[test]
    fn static_engine_rejects_ingest() {
        let (g, _) = casbn_graph::generators::planted_partition(50, 4, 10, 0.9, 25, 3);
        let mut eng = ServeEngine::from_graph(g, &McodeParams::default());
        assert!(!eng.can_ingest());
        assert!(eng.ingest_windows(1).is_err());
        assert!(!eng.final_checkpoint().unwrap());
        assert!(!eng.snapshot().clusters().is_empty());
    }

    #[test]
    fn checkpoint_sink_fires_per_window_and_resumes() {
        use std::sync::{Arc as StdArc, Mutex};
        let replay = tiny_replay();
        let mut eng = ServeEngine::from_replay(replay.clone(), StreamConfig::default());
        let store: StdArc<Mutex<Vec<Vec<u8>>>> = StdArc::default();
        let sink_store = store.clone();
        eng.set_checkpoint_sink(Box::new(move |w| {
            let bytes = w.try_to_bytes().map_err(|e| e.to_string())?;
            sink_store.lock().unwrap().push(bytes);
            Ok(())
        }));
        eng.ingest_windows(2).unwrap();
        assert_eq!(store.lock().unwrap().len(), 2, "one checkpoint per window");
        // resuming from the latest checkpoint continues bit-exact
        let latest = store.lock().unwrap().last().unwrap().clone();
        let resumed =
            StreamDriver::resume_from(&casbn_store::Store::parse(&latest).unwrap()).unwrap();
        let mut resumed_eng = ServeEngine::from_driver(resumed, replay);
        assert_eq!(resumed_eng.remaining_windows(), 2);
        resumed_eng.ingest_windows(2).unwrap();
        eng.ingest_windows(2).unwrap();
        assert_eq!(resumed_eng.stream_checksum(), eng.stream_checksum());
    }
}
