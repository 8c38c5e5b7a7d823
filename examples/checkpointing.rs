//! Checkpointing: suspend a streaming run mid-stream into a `.csbn`
//! container, restore it, and finish — bit-identically to a run that
//! never stopped.
//!
//! ```text
//! cargo run --release --example checkpointing
//! ```
//!
//! The checkpoint holds the driver's complete resumable state: the
//! samples ingested so far (exact `f64` bits), which the resume replays
//! to rebuild the correlation accumulators and the network, the
//! incremental chordal subgraph with its simulated clock, and the window
//! history.
//! On the command line the same flow is
//! `casbn stream … --windows N --checkpoint ck.csbn` followed by
//! `casbn stream … --resume ck.csbn`.

use casbn::prelude::*;

fn main() {
    // A YNG-shaped replay: 16 arrays at 10% of paper scale, batch 2.
    let replay = synthesize_replay(DatasetPreset::Yng, 0.1, Some(16));
    let cfg = StreamConfig::default();
    let batch = cfg.batch;
    println!(
        "replaying {} genes x {} samples in windows of {batch}",
        replay.genes(),
        replay.samples()
    );

    // Reference: the uninterrupted run.
    let uninterrupted = StreamDriver::run(&replay, cfg);
    println!(
        "uninterrupted: {} windows, checksum {}",
        uninterrupted.windows.len(),
        uninterrupted.checksum
    );

    // Interrupted run: ingest half the windows, checkpoint, drop the
    // driver entirely (this is where a process would exit).
    let mut driver = StreamDriver::new(replay.genes(), cfg);
    while driver.samples_ingested() < replay.samples() / 2 {
        driver.ingest_next(&replay);
    }
    let checkpoint = driver.checkpoint_bytes().expect("checkpoint serialises");
    println!(
        "suspended after {} samples into a {}-byte .csbn checkpoint",
        driver.samples_ingested(),
        checkpoint.len()
    );
    drop(driver);

    // A fresh process: parse the container, restore, finish the stream.
    let store = Store::parse(&checkpoint).expect("checkpoint container parses");
    println!(
        "checkpoint sections: {}",
        store
            .sections()
            .iter()
            .map(|s| SectionKind::name_of(s.kind))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut resumed = StreamDriver::resume_from(&store).expect("checkpoint restores");
    while resumed.ingest_next(&replay).is_some() {}
    let summary = resumed.finish();
    println!(
        "resumed:       {} windows, checksum {}",
        summary.windows.len(),
        summary.checksum
    );

    assert_eq!(
        summary.checksum, uninterrupted.checksum,
        "a resumed run must reproduce the uninterrupted checksum exactly"
    );
    println!("bit-identical: resumed == uninterrupted ✓");
}
