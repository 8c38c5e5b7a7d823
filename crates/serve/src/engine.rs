//! The serving engine: one writer, many snapshots.
//!
//! A [`ServeEngine`] owns the mutable side of the daemon — for a
//! streaming source, the [`StreamDriver`] and the replay it reads — and a
//! [`SnapshotRegistry`] readers query through. Each ingested window
//! advances the driver, freezes a new [`ServeSnapshot`] from the
//! driver's published state (network, chordal edge count, clusters,
//! each edge's rho) by reference, publishes it, and — when a checkpoint
//! sink is wired — hands the driver's staged [`StoreWriter`] to the sink
//! so the window boundary is also a durable recovery point (the CLI
//! routes sinks through `casbn_store::io::save_atomic`/`append_durable`).

use crate::snapshot::{ServeSnapshot, SnapshotContext, SnapshotRegistry};
use casbn_expr::ExpressionMatrix;
use casbn_graph::Graph;
use casbn_mcode::{mcode_cluster, McodeParams};
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
    /// The DAG and `ln i!` table every snapshot shares.
    ctx: SnapshotContext,
    stream: Option<StreamState>,
    sink: Option<CheckpointSink>,
}

/// A streaming source: the driver and the whole replay. The driver's
/// ingested-sample count is the replay position.
struct StreamState {
    driver: StreamDriver,
    replay: ExpressionMatrix,
}

impl ServeEngine {
    /// Serve a static packed network: MCODE runs once, the graph serves
    /// as both network and chordal view, and the rho table is all-zero
    /// (a packed graph artifact carries no correlation state). Ingest
    /// requests are rejected.
    pub fn from_graph(network: Graph, mcode: &McodeParams) -> ServeEngine {
        let clusters = mcode_cluster(&network, mcode);
        let ctx = SnapshotContext::new(network.n());
        let snap = ServeSnapshot::from_graph(&network, &clusters, &ctx);
        ServeEngine {
            registry: SnapshotRegistry::new(snap),
            ctx,
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

    /// Serve from an existing driver (a checkpoint resume): ingest
    /// continues after the samples the driver already ingested, and the
    /// current driver state publishes as the initial snapshot.
    ///
    /// # Panics
    ///
    /// Panics unless `replay` is the stream the driver ingested (see
    /// [`StreamDriver::check_replay`]): continuing a different stream
    /// would serve a network no replay produces.
    pub fn from_driver(driver: StreamDriver, replay: ExpressionMatrix) -> ServeEngine {
        if let Err(e) = driver.check_replay(&replay) {
            panic!("{e}");
        }
        let ctx = SnapshotContext::new(driver.genes());
        let snap = ServeSnapshot::from_driver(&driver, &ctx);
        ServeEngine {
            registry: SnapshotRegistry::new(snap),
            ctx,
            stream: Some(StreamState { driver, replay }),
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

    /// Windows still available in the replay, a trailing partial
    /// window included.
    pub fn remaining_windows(&self) -> usize {
        let Some(s) = &self.stream else { return 0 };
        let left = s
            .replay
            .samples()
            .saturating_sub(s.driver.samples_ingested());
        left.div_ceil(s.driver.config().batch)
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
        while run < n {
            let s = self.stream.as_mut().unwrap();
            if s.driver.ingest_next(&s.replay).is_none() {
                break;
            }
            casbn_obs::counter_inc("serve.ingest_windows");
            let snap = ServeSnapshot::from_driver(&s.driver, &self.ctx);
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
        for _ in 0..3 {
            oracle.ingest_next(&replay);
        }
        let snap = eng.snapshot();
        for g in oracle.network().vertices() {
            assert_eq!(snap.neighbors(g), Some(oracle.network().neighbors(g)));
        }
        let stats = snap.stats();
        assert_eq!(stats.network_edges, oracle.network().m() as u64);
        assert_eq!(stats.chordal_edges, oracle.chordal().m() as u64);
        assert_eq!(stats.clusters, oracle.clusters().len() as u64);
        assert_eq!(eng.stream_checksum(), oracle.checksum());
    }

    #[test]
    fn static_engine_rejects_ingest() {
        let (g, _) = casbn_graph::generators::planted_partition(50, 4, 10, 0.9, 25, 3);
        let mut eng = ServeEngine::from_graph(g, &McodeParams::default());
        assert!(!eng.can_ingest());
        assert!(eng.ingest_windows(1).is_err());
        assert!(!eng.final_checkpoint().unwrap());
        assert!(eng.snapshot().stats().clusters > 0);
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

    #[test]
    #[should_panic(expected = "replay differs from the checkpoint at sample 1, gene 3")]
    fn a_driver_fed_another_replay_is_refused() {
        let replay = tiny_replay();
        let mut driver = StreamDriver::new(replay.genes(), StreamConfig::default());
        driver.ingest_next(&replay);
        let mut other = replay.clone();
        other.row_mut(3)[1] += 1.0;
        ServeEngine::from_driver(driver, other);
    }
}
