//! Deterministic structure-aware fuzzing and differential-oracle
//! harness over every CASBN input surface.
//!
//! Five parsing surfaces accept untrusted bytes: whitespace edge-list
//! text, sample-major replay files, `.csbn` binary containers, stream
//! checkpoint containers, and CLI argv vectors. This crate fuzzes all
//! of them under one invariant — **typed `Err`, never panic, never
//! over-allocation** — and layers differential oracles on top: inputs
//! that parse must re-encode and re-parse to the identical value, and a
//! checkpoint that resumes must replay to the uninterrupted run's exact
//! checksum.
//!
//! Everything is deterministic. Each iteration's randomness derives
//! from `(seed, target name, iteration)` via [`FuzzRng::for_iteration`],
//! so a crasher reproduces from those three coordinates alone and two
//! same-seed campaigns produce bit-identical
//! [`TargetReport::trace_checksum`]s — the property the CI `fuzz-smoke`
//! job pins.
//!
//! The crate is a library; the campaign driver is the `casbn fuzz`
//! subcommand, and the committed corpus under `tests/fixtures/corpus/`
//! doubles as a crasher-regression suite replayed by `cargo test`.
//!
//! ```
//! use casbn_fuzz::{builtin_targets, run_target, FuzzConfig};
//!
//! let cfg = FuzzConfig { iters: 25, seed: 7, ..Default::default() };
//! for mut target in builtin_targets() {
//!     let report = run_target(target.as_mut(), &cfg);
//!     assert!(report.crashes.is_empty(), "{}", report.target);
//! }
//! ```

#![deny(missing_docs)]

pub mod alloc;
pub mod engine;
pub mod mutate;
pub mod rng;
pub mod targets;

pub use alloc::CountingAlloc;
pub use engine::{
    execute_one, minimize, replay_corpus, run_target, Crash, CrashKind, Execution, FuzzConfig,
    TargetReport, DEFAULT_MAX_ALLOC,
};
pub use mutate::mutate;
pub use rng::FuzzRng;
pub use targets::{
    all_targets, builtin_targets, decode_argv, ArgvCheck, ArgvSurface, Outcome, Target,
    TARGET_NAMES,
};
