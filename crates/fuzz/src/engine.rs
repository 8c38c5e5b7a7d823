//! The fuzzing engine: iteration loop, panic containment, allocation
//! accounting, corpus replay and crasher minimization.
//!
//! The engine is deliberately boring: given a [`Target`] and a
//! [`FuzzConfig`] it derives one [`FuzzRng`] per iteration from
//! `(seed, target, iteration)`, generates an input, and executes it
//! under three layers of containment — `catch_unwind` for panics, the
//! [`crate::alloc`] gauge for heap growth, and the target's own oracle
//! `Err` for semantic violations. Every iteration folds
//! `(iteration, input hash, outcome)` into a running trace checksum, so
//! two runs with the same seed are bit-comparable end to end: the CI
//! smoke job and a developer's laptop must produce the same
//! [`TargetReport::trace_checksum`] or something non-deterministic has
//! crept into a parser.

use crate::alloc;
use crate::rng::FuzzRng;
use crate::targets::{Outcome, Target};
use casbn_store::{fnv1a, fnv_mix, FNV_BASIS};
use std::panic::{self, AssertUnwindSafe};

/// Default per-iteration heap-growth cap: 256 MiB. Every real input
/// surface parses multi-megabyte inputs in low tens of MiB; an
/// iteration that grows the heap past this is treated as a
/// resource-exhaustion bug (the class satellite #1 fixes).
pub const DEFAULT_MAX_ALLOC: usize = 256 << 20;

/// One fuzzing campaign's parameters.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Iterations per target.
    pub iters: u64,
    /// Campaign seed; same seed → same iteration trace.
    pub seed: u64,
    /// Per-iteration heap-growth cap in bytes (only enforced when a
    /// [`crate::alloc::CountingAlloc`] is installed in the process).
    pub max_alloc: usize,
    /// Stop a target early after this many crashes.
    pub max_crashes: usize,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            iters: 1000,
            seed: 0,
            max_alloc: DEFAULT_MAX_ALLOC,
            max_crashes: 8,
        }
    }
}

/// How an iteration failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashKind {
    /// The surface panicked instead of returning a typed error.
    Panic,
    /// A differential oracle did not hold.
    OracleViolation,
    /// The iteration grew the heap past [`FuzzConfig::max_alloc`].
    AllocCap,
}

impl CrashKind {
    /// Stable display name (also used in crasher file names).
    pub fn name(self) -> &'static str {
        match self {
            CrashKind::Panic => "panic",
            CrashKind::OracleViolation => "oracle",
            CrashKind::AllocCap => "alloc",
        }
    }
}

/// A failing input, reproducible from its coordinates alone.
#[derive(Clone, Debug)]
pub struct Crash {
    /// Which target failed.
    pub target: &'static str,
    /// Iteration index within the campaign (`u64::MAX` for corpus
    /// replays, which have no iteration coordinate).
    pub iteration: u64,
    /// Failure class.
    pub kind: CrashKind,
    /// Panic message, oracle description, or allocation report.
    pub message: String,
    /// The exact failing input bytes.
    pub input: Vec<u8>,
}

/// Outcome of executing one input under full containment.
#[derive(Clone, Debug)]
pub enum Execution {
    /// Ran clean; the input was accepted or typed-rejected.
    Clean(Outcome),
    /// Failed; the string is the crash message.
    Failed(CrashKind, String),
}

impl Execution {
    /// Stable small integer folded into the trace checksum.
    fn code(&self) -> u64 {
        match self {
            Execution::Clean(Outcome::Accepted) => 1,
            Execution::Clean(Outcome::Rejected) => 2,
            Execution::Failed(CrashKind::Panic, _) => 3,
            Execution::Failed(CrashKind::OracleViolation, _) => 4,
            Execution::Failed(CrashKind::AllocCap, _) => 5,
        }
    }
}

/// Per-target campaign results.
#[derive(Clone, Debug)]
pub struct TargetReport {
    /// Target name.
    pub target: &'static str,
    /// Iterations actually executed (less than requested when
    /// [`FuzzConfig::max_crashes`] stopped the target early).
    pub executed: u64,
    /// Inputs that parsed with all oracles holding.
    pub accepted: u64,
    /// Inputs rejected with a typed error.
    pub rejected: u64,
    /// Running fold of `(iteration, input hash, outcome)` — the
    /// bit-determinism witness.
    pub trace_checksum: u64,
    /// Largest single-iteration heap growth observed, in bytes (0 when
    /// no counting allocator is installed).
    pub peak_alloc: usize,
    /// Failing inputs, in discovery order.
    pub crashes: Vec<Crash>,
}

/// Execute one input under panic containment and the allocation gauge.
///
/// The default panic hook is suppressed for the duration (a fuzzing run
/// provoking thousands of *caught* panics must not spray backtraces),
/// and the panic payload is recovered from `catch_unwind` instead.
pub fn execute_one(target: &mut dyn Target, input: &[u8], max_alloc: usize) -> Execution {
    let gauged = alloc::gauge_active();
    let base = alloc::reset_peak();
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = panic::catch_unwind(AssertUnwindSafe(|| target.run(input)));
    panic::set_hook(prev_hook);
    let growth = alloc::peak_bytes().saturating_sub(base);
    if gauged && growth > max_alloc {
        return Execution::Failed(
            CrashKind::AllocCap,
            format!(
                "iteration grew the heap by {growth} bytes (cap {max_alloc}) \
                 on a {}-byte input",
                input.len()
            ),
        );
    }
    match result {
        Ok(Ok(outcome)) => Execution::Clean(outcome),
        Ok(Err(msg)) => Execution::Failed(CrashKind::OracleViolation, msg),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Execution::Failed(CrashKind::Panic, msg)
        }
    }
}

/// Run one target for a full campaign.
pub fn run_target(target: &mut dyn Target, cfg: &FuzzConfig) -> TargetReport {
    let mut report = TargetReport {
        target: target.name(),
        executed: 0,
        accepted: 0,
        rejected: 0,
        trace_checksum: FNV_BASIS,
        peak_alloc: 0,
        crashes: Vec::new(),
    };
    for iteration in 0..cfg.iters {
        let mut rng = FuzzRng::for_iteration(cfg.seed, report.target, iteration);
        let input = target.generate(&mut rng);
        let before = alloc::reset_peak();
        let exec = execute_one(target, &input, cfg.max_alloc);
        report.peak_alloc = report
            .peak_alloc
            .max(alloc::peak_bytes().saturating_sub(before));
        report.executed += 1;
        for x in [iteration, fnv1a(&input), exec.code()] {
            report.trace_checksum = fnv_mix(report.trace_checksum, x);
        }
        match exec {
            Execution::Clean(Outcome::Accepted) => report.accepted += 1,
            Execution::Clean(Outcome::Rejected) => report.rejected += 1,
            Execution::Failed(kind, message) => {
                report.crashes.push(Crash {
                    target: report.target,
                    iteration,
                    kind,
                    message,
                    input,
                });
                if report.crashes.len() >= cfg.max_crashes {
                    break;
                }
            }
        }
    }
    report
}

/// Replay pre-loaded corpus entries (committed crashers and seeds)
/// through a target. Returns one [`Crash`] per entry that fails —
/// an empty vector is the regression-suite pass condition.
pub fn replay_corpus(
    target: &mut dyn Target,
    entries: &[(String, Vec<u8>)],
    max_alloc: usize,
) -> Vec<Crash> {
    let mut crashes = Vec::new();
    for (name, input) in entries {
        if let Execution::Failed(kind, message) = execute_one(target, input, max_alloc) {
            crashes.push(Crash {
                target: target.name(),
                iteration: u64::MAX,
                kind,
                message: format!("corpus entry {name:?}: {message}"),
                input: input.clone(),
            });
        }
    }
    crashes
}

/// Shrink a failing input by binary-search chunk removal (ddmin-style):
/// repeatedly try dropping chunks, halving the chunk size until single
/// bytes, keeping any candidate that still fails with the *same crash
/// kind*. Deterministic; returns the original input if nothing smaller
/// still fails.
pub fn minimize(target: &mut dyn Target, input: &[u8], max_alloc: usize) -> Vec<u8> {
    let kind = match execute_one(target, input, max_alloc) {
        Execution::Failed(kind, _) => kind,
        Execution::Clean(_) => return input.to_vec(),
    };
    let still_fails = |target: &mut dyn Target, candidate: &[u8]| {
        matches!(execute_one(target, candidate, max_alloc),
                 Execution::Failed(k, _) if k == kind)
    };
    let mut best = input.to_vec();
    let mut chunk = (best.len() / 2).max(1);
    while chunk >= 1 {
        let mut shrunk = false;
        let mut at = 0;
        while at < best.len() {
            let end = (at + chunk).min(best.len());
            let mut candidate = Vec::with_capacity(best.len() - (end - at));
            candidate.extend_from_slice(&best[..at]);
            candidate.extend_from_slice(&best[end..]);
            if !candidate.is_empty() && still_fails(target, &candidate) {
                best = candidate;
                shrunk = true;
                // keep `at` in place: the next chunk slid into position
            } else {
                at = end;
            }
        }
        if chunk == 1 && !shrunk {
            break;
        }
        if !shrunk {
            chunk /= 2;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic target with every behaviour class, keyed on the
    /// first input byte.
    struct Scripted;

    impl Target for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn generate(&mut self, rng: &mut FuzzRng) -> Vec<u8> {
            vec![rng.u64() as u8 % 4; 8]
        }
        fn run(&mut self, input: &[u8]) -> Result<Outcome, String> {
            match input.first() {
                Some(0) => Ok(Outcome::Accepted),
                Some(1) => Ok(Outcome::Rejected),
                Some(2) => Err("oracle broke".into()),
                Some(3) => panic!("scripted panic"),
                _ => Ok(Outcome::Rejected),
            }
        }
    }

    #[test]
    fn panics_are_contained_and_reported() {
        let mut t = Scripted;
        match execute_one(&mut t, &[3], usize::MAX) {
            Execution::Failed(CrashKind::Panic, msg) => {
                assert!(msg.contains("scripted panic"), "{msg}");
            }
            other => panic!("expected a contained panic, got {other:?}"),
        }
        // the engine keeps working after a caught panic
        assert!(matches!(
            execute_one(&mut t, &[0], usize::MAX),
            Execution::Clean(Outcome::Accepted)
        ));
    }

    #[test]
    fn campaigns_are_bit_deterministic() {
        let cfg = FuzzConfig {
            iters: 64,
            seed: 9,
            max_crashes: 1000,
            ..Default::default()
        };
        let a = run_target(&mut Scripted, &cfg);
        let b = run_target(&mut Scripted, &cfg);
        assert_eq!(a.trace_checksum, b.trace_checksum);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.crashes.len(), b.crashes.len());
        assert!(a.executed == 64 && a.accepted + a.rejected > 0);
        // a different seed produces a different trace
        let c = run_target(&mut Scripted, &FuzzConfig { seed: 10, ..cfg });
        assert_ne!(a.trace_checksum, c.trace_checksum);
    }

    #[test]
    fn max_crashes_stops_a_target_early() {
        let cfg = FuzzConfig {
            iters: 10_000,
            seed: 3,
            max_crashes: 2,
            ..Default::default()
        };
        let r = run_target(&mut Scripted, &cfg);
        assert_eq!(r.crashes.len(), 2);
        assert!(r.executed < 10_000);
    }

    #[test]
    fn corpus_replay_flags_only_failures() {
        let entries = vec![
            ("ok".to_string(), vec![0u8]),
            ("reject".to_string(), vec![1u8]),
            ("oracle".to_string(), vec![2u8]),
        ];
        let crashes = replay_corpus(&mut Scripted, &entries, usize::MAX);
        assert_eq!(crashes.len(), 1);
        assert_eq!(crashes[0].kind, CrashKind::OracleViolation);
        assert!(crashes[0].message.contains("oracle"));
    }

    #[test]
    fn minimize_shrinks_to_the_failing_core() {
        /// Fails iff the input contains byte 0xEE.
        struct Needle;
        impl Target for Needle {
            fn name(&self) -> &'static str {
                "needle"
            }
            fn generate(&mut self, _rng: &mut FuzzRng) -> Vec<u8> {
                Vec::new()
            }
            fn run(&mut self, input: &[u8]) -> Result<Outcome, String> {
                if input.contains(&0xEE) {
                    Err("needle found".into())
                } else {
                    Ok(Outcome::Rejected)
                }
            }
        }
        let mut input = vec![7u8; 300];
        input[173] = 0xEE;
        let min = minimize(&mut Needle, &input, usize::MAX);
        assert_eq!(min, vec![0xEE]);
        // a clean input comes back unchanged
        assert_eq!(minimize(&mut Needle, &[1, 2, 3], usize::MAX), vec![1, 2, 3]);
    }
}
