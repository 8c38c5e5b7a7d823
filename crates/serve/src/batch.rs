//! Batched query execution on a worker pool.
//!
//! Following the matchy exemplar's batch-query API, the session layer
//! groups decoded queries and dispatches [`BATCH_MIN`]..=[`BATCH_MAX`]
//! of them per call: one snapshot acquisition and one worker fan-out
//! amortise over the whole group, and the shared resident indices stay
//! hot in cache across the batch.
//!
//! Execution is deterministic by construction: each query is answered
//! by [`ServeSnapshot::answer`], a pure function of `(snapshot, query)`,
//! and responses land at their query's input index. Splitting the batch
//! into contiguous per-worker chunks therefore changes wall-clock only
//! — the response bytes are identical for any worker count, which the
//! determinism suite pins at 1/2/4/8 threads.

use crate::protocol::Request;
use crate::snapshot::ServeSnapshot;

/// Preferred lower bound on a dispatched batch (the session layer
/// flushes smaller groups only at barriers: ingest, shutdown, EOF).
pub const BATCH_MIN: usize = 8;

/// Upper bound on a dispatched batch.
pub const BATCH_MAX: usize = 16;

/// Answer every query in `batch` against one snapshot, appending the
/// encoded response **frames** to `out` in input order. `threads` bounds
/// the worker fan-out; 0 is treated as 1. With more than one worker,
/// each fills its own buffer and the buffers are joined in chunk order.
pub fn execute_batch(snap: &ServeSnapshot, batch: &[Request], threads: usize, out: &mut Vec<u8>) {
    casbn_obs::counter_add("serve.requests", batch.len() as u64);
    casbn_obs::record_hist("serve.batch_size", batch.len() as u64);
    let threads = threads.max(1).min(batch.len().max(1));
    let answer_into = |part: &[Request], buf: &mut Vec<u8>| {
        for req in part {
            snap.answer(req).encode_frame_into(buf);
        }
    };
    if threads == 1 {
        answer_into(batch, out);
        return;
    }
    // contiguous chunks, one worker each; rejoining in chunk order
    // reassembles input order exactly
    let chunk = batch.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = batch
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut buf = Vec::new();
                    answer_into(part, &mut buf);
                    buf
                })
            })
            .collect();
        for h in handles {
            out.extend_from_slice(&h.join().expect("batch worker panicked"));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{serving_dag, ServeSnapshot};
    use casbn_graph::generators::planted_partition;
    use casbn_mcode::{mcode_cluster, McodeParams};

    /// The concatenated frames of one call.
    fn run(snap: &ServeSnapshot, batch: &[Request], threads: usize) -> Vec<u8> {
        let mut out = Vec::new();
        execute_batch(snap, batch, threads, &mut out);
        out
    }

    #[test]
    fn worker_count_never_changes_bytes() {
        let (g, _) = planted_partition(80, 4, 10, 0.85, 40, 21);
        let clusters = mcode_cluster(&g, &McodeParams::default());
        let snap = ServeSnapshot::build(1, 4, g.clone(), g, clusters, &[], &serving_dag());
        let batch: Vec<Request> = (0..BATCH_MAX as u32)
            .map(|i| match i % 5 {
                0 => Request::Neighborhood { gene: i },
                1 => Request::ClusterOf { gene: i * 3 },
                2 => Request::Rho { u: i, v: i + 1 },
                3 => Request::Enrich {
                    genes: (i..i + 6).collect(),
                },
                _ => Request::Stats,
            })
            .collect();
        // the buffer is exactly the per-request frames, in input order
        let frames: Vec<u8> = batch
            .iter()
            .flat_map(|req| snap.answer(req).encode_frame())
            .collect();
        let baseline = run(&snap, &batch, 1);
        assert_eq!(baseline, frames);
        for threads in [2, 4, 8, 64] {
            assert_eq!(run(&snap, &batch, threads), baseline, "{threads} threads");
        }
        // degenerate inputs
        assert!(run(&snap, &[], 4).is_empty());
        let first = snap.answer(&batch[0]).encode_frame();
        assert_eq!(run(&snap, &batch[..1], 0), first);
        // appends after what the buffer already holds
        let mut out = b"prefix".to_vec();
        execute_batch(&snap, &batch, 4, &mut out);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], &baseline[..]);
    }
}
