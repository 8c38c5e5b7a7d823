//! Serving: keep the network, its clusters and its indices resident in
//! a [`casbn::serve::ServeEngine`] and answer queries over the
//! length-prefixed protocol — while the stream keeps ingesting and the
//! engine rotates immutable snapshots underneath the readers.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use casbn::prelude::*;
use casbn::serve::protocol::split_frame;
use casbn::serve::{parse_script, responses_checksum, run_script};

fn main() {
    // A YNG-shaped replay at 5% of paper scale: 8 arrays in 4 windows.
    let replay = synthesize_replay(DatasetPreset::Yng, 0.05, Some(8));
    let mut engine = ServeEngine::from_replay(replay, StreamConfig::default());
    println!(
        "serving epoch {} ({} windows pending ingest)",
        engine.snapshot().epoch(),
        engine.remaining_windows()
    );

    // Readers hold Arc'd snapshots from the registry; the epoch-0 handle
    // keeps answering consistently even after the writer rotates.
    let registry = engine.registry();
    let held = registry.acquire();

    // The scripted client the CLI's `casbn serve --script FILE` mode
    // runs: text requests in, deterministic response bytes out. `ingest`
    // lines are barriers — the stream advances one window per rotation.
    let script = parse_script(
        "stats\n\
         neigh 0\n\
         cluster 1\n\
         rho 0 1\n\
         enrich 0 1 2 3\n\
         ingest 2\n\
         stats\n\
         ingest 2\n\
         stats\n",
    )
    .expect("script parses");
    let (report, bytes) = run_script(&mut engine, &script).expect("script replays");
    println!(
        "{} requests in {} batches, response checksum {}",
        report.requests,
        report.batches,
        responses_checksum(&bytes)
    );

    // Walk the response frames back out of the byte stream.
    let mut rest = bytes.as_slice();
    while let Some((payload, tail)) = split_frame(rest).expect("own frames are well-formed") {
        let resp = Response::decode_payload(payload).expect("own payloads decode");
        println!("  <- {resp:?}");
        rest = tail;
    }

    // Two ingest barriers ran: the registry rotated once per window,
    // while the held epoch-0 snapshot never moved.
    println!(
        "registry at epoch {} after {} rotations; held snapshot still epoch {}",
        registry.epoch(),
        registry.rotations(),
        held.epoch()
    );
    assert_eq!(held.epoch(), 0);
    assert!(registry.rotations() >= 2);
}
