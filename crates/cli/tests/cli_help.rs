//! `casbn --help` snapshot: the binary's help output is exactly
//! [`commands::USAGE`], and every help page documents every flag its
//! [`commands::COMMANDS`] row accepts.

use casbn_bench::perfbase::PerfBaseline;
use casbn_cli::commands::{BENCH_USAGE, COMMANDS, FUZZ_USAGE, SERVE_USAGE, STREAM_USAGE, USAGE};
use std::process::Command;

#[test]
fn help_snapshot_matches_usage_constant() {
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .arg("--help")
        .output()
        .expect("run casbn --help");
    assert!(out.status.success(), "--help exited nonzero");
    let stdout = String::from_utf8(out.stdout).expect("utf8 help output");
    assert_eq!(stdout, USAGE, "binary help drifted from commands::USAGE");
}

#[test]
fn bare_invocation_prints_usage_too() {
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .output()
        .expect("run casbn");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), USAGE);
}

#[test]
fn unknown_subcommand_fails_with_usage_on_stderr() {
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .arg("frobnicate")
        .output()
        .expect("run casbn frobnicate");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown subcommand"));
    assert!(stderr.contains("USAGE:"));
}

#[test]
fn every_help_page_documents_every_flag_of_its_command() {
    for cmd in COMMANDS {
        for flag in cmd.valued.iter().chain(cmd.switches) {
            let flag = format!("--{flag}");
            assert!(USAGE.contains(&flag), "USAGE is missing `{flag}`");
            assert!(
                cmd.help.contains(&flag),
                "`casbn {} --help` is missing `{flag}`",
                cmd.name
            );
        }
    }
}

#[test]
fn bench_help_snapshot_matches_bench_usage_constant() {
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(["bench", "--help"])
        .output()
        .expect("run casbn bench --help");
    assert!(out.status.success(), "bench --help exited nonzero");
    let stdout = String::from_utf8(out.stdout).expect("utf8 help output");
    assert_eq!(stdout, BENCH_USAGE, "bench help drifted from BENCH_USAGE");
}

#[test]
fn bench_usage_names_every_baseline_workload() {
    let baseline = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_pipeline.json"
    ))
    .expect("BENCH_pipeline.json at the repository root");
    let doc: PerfBaseline = serde_json::from_str(&baseline).expect("baseline parses");
    let names: Vec<&str> = doc
        .suites
        .iter()
        .flat_map(|s| &s.results)
        .map(|r| r.name.as_str())
        .collect();
    assert!(!names.is_empty(), "baseline lists no workloads");
    for name in names {
        assert!(
            BENCH_USAGE.contains(name),
            "BENCH_USAGE does not list workload `{name}`"
        );
    }
}

#[test]
fn stream_help_snapshot_matches_stream_usage_constant() {
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(["stream", "--help"])
        .output()
        .expect("run casbn stream --help");
    assert!(out.status.success(), "stream --help exited nonzero");
    let stdout = String::from_utf8(out.stdout).expect("utf8 help output");
    assert_eq!(
        stdout, STREAM_USAGE,
        "stream help drifted from STREAM_USAGE"
    );
}

#[test]
fn fuzz_help_snapshot_matches_fuzz_usage_constant() {
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(["fuzz", "--help"])
        .output()
        .expect("run casbn fuzz --help");
    assert!(out.status.success(), "fuzz --help exited nonzero");
    let stdout = String::from_utf8(out.stdout).expect("utf8 help output");
    assert_eq!(stdout, FUZZ_USAGE, "fuzz help drifted from FUZZ_USAGE");
}

#[test]
fn serve_help_snapshot_matches_serve_usage_constant() {
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(["serve", "--help"])
        .output()
        .expect("run casbn serve --help");
    assert!(out.status.success(), "serve --help exited nonzero");
    let stdout = String::from_utf8(out.stdout).expect("utf8 help output");
    assert_eq!(stdout, SERVE_USAGE, "serve help drifted from SERVE_USAGE");
    // the session has no worker-count or batch-size knob to document
    for gone in ["--threads", "--batch"] {
        assert!(!SERVE_USAGE.contains(gone), "serve help still names {gone}");
    }
    assert!(!USAGE.contains("--threads"), "USAGE still names --threads");
    // a checkpoint resumes through `stream`; `serve --in` refuses it
    assert!(
        SERVE_USAGE.contains("resume it with `casbn stream --resume FILE`")
            && SERVE_USAGE.contains("`--in` refuses a checkpoint"),
        "serve help must point checkpoints at `casbn stream --resume`"
    );
}

#[test]
fn fuzz_rejects_bad_inputs() {
    // unknown target name
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(["fuzz", "--target", "frobnicator", "--iters", "1"])
        .output()
        .expect("run casbn fuzz --target frobnicator");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown --target"), "got {stderr:?}");
    // typo'd flag must not be silently ignored
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(["fuzz", "--itres", "1"])
        .output()
        .expect("run casbn fuzz with typo");
    assert_eq!(out.status.code(), Some(2));
    // --minimize over all targets is ambiguous
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(["fuzz", "--minimize", "whatever.bin"])
        .output()
        .expect("run casbn fuzz --minimize without --target");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("single --target"), "got {stderr:?}");
}

#[test]
fn stream_rejects_bad_inputs() {
    // no source at all
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .arg("stream")
        .output()
        .expect("run casbn stream");
    assert_eq!(out.status.code(), Some(2));
    // zero batch
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args([
            "stream", "--preset", "yng", "--scale", "0.01", "--batch", "0",
        ])
        .output()
        .expect("run casbn stream --batch 0");
    assert_eq!(out.status.code(), Some(2));
    // typo'd flag must not be silently ignored
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(["stream", "--preset", "yng", "--expct-checksum", "1"])
        .output()
        .expect("run casbn stream with typo");
    assert_eq!(out.status.code(), Some(2));
    // preset-only knobs must be rejected in --in mode, not ignored —
    // otherwise a user could pin a checksum for a different run than
    // they believe they configured
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(["stream", "--in", "whatever.tsv", "--samples", "4"])
        .output()
        .expect("run casbn stream --in with --samples");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--samples only applies"), "got {stderr:?}");
}

#[test]
fn stream_checksum_gate_exits_one_on_mismatch() {
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args([
            "stream",
            "--preset",
            "yng",
            "--scale",
            "0.01",
            "--samples",
            "4",
            "--expect-checksum",
            "1",
        ])
        .output()
        .expect("run casbn stream with wrong checksum");
    assert_eq!(out.status.code(), Some(1), "mismatch must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checksum mismatch"));
}

#[test]
fn bench_rejects_bad_scale() {
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(["bench", "--scale", "0"])
        .output()
        .expect("run casbn bench --scale 0");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn usage_names_every_subcommand_and_algorithm() {
    for sub in [
        "generate", "filter", "cluster", "stats", "compare", "bench", "stream", "serve", "pack",
        "inspect", "verify", "fuzz", "help",
    ] {
        assert!(
            USAGE.contains(&format!("casbn {sub}")),
            "USAGE is missing subcommand `{sub}`"
        );
    }
    for algo in [
        "chordal-seq",
        "chordal-nocomm",
        "chordal-comm",
        "randomwalk",
        "forestfire",
        "randomnode",
        "randomedge",
    ] {
        assert!(USAGE.contains(algo), "USAGE is missing algorithm `{algo}`");
    }
}
