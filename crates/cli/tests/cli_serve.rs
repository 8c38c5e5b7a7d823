//! Process-level tests for `casbn serve`: scripted query replay is
//! byte-deterministic, the checksum gate exits 1 on mismatch, and
//! configuration errors exit 2 before any serving starts.

use std::process::Command;

fn script_path() -> String {
    format!(
        "{}/tests/fixtures/serve_script.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn run_scripted() -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args([
            "serve",
            "--preset",
            "yng",
            "--scale",
            "0.02",
            "--samples",
            "8",
            "--script",
            &script_path(),
        ])
        .output()
        .expect("run casbn serve --script");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Pull `checksum N` off the `responses R checksum N` summary line.
fn parse_checksum(stdout: &str) -> u64 {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("responses "))
        .unwrap_or_else(|| panic!("no summary line in {stdout:?}"));
    line.rsplit(' ')
        .next()
        .and_then(|tok| tok.parse().ok())
        .unwrap_or_else(|| panic!("unparseable summary line {line:?}"))
}

#[test]
fn scripted_replay_is_deterministic() {
    let (code1, stdout1, stderr1) = run_scripted();
    assert_eq!(code1, 0, "first run failed: {stderr1}");
    let (code2, stdout2, stderr2) = run_scripted();
    assert_eq!(code2, 0, "second run failed: {stderr2}");
    assert_eq!(stdout1, stdout2, "summary must not change between runs");
    let checksum = parse_checksum(&stdout1);
    assert_ne!(checksum, 0, "summary carries a real FNV checksum");

    // and the gate accepts its own replayed checksum
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args([
            "serve",
            "--preset",
            "yng",
            "--scale",
            "0.02",
            "--samples",
            "8",
            "--script",
            &script_path(),
            "--expect-checksum",
            &checksum.to_string(),
        ])
        .output()
        .expect("run casbn serve with pinned checksum");
    assert_eq!(out.status.code(), Some(0), "pinned checksum must verify");
}

#[test]
fn checksum_gate_exits_one_on_mismatch() {
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args([
            "serve",
            "--preset",
            "yng",
            "--scale",
            "0.02",
            "--samples",
            "8",
            "--script",
            &script_path(),
            "--expect-checksum",
            "1",
        ])
        .output()
        .expect("run casbn serve with wrong checksum");
    assert_eq!(out.status.code(), Some(1), "mismatch must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checksum mismatch"), "got {stderr:?}");
}

#[test]
fn serve_rejects_bad_inputs() {
    // no source at all
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .arg("serve")
        .output()
        .expect("run casbn serve");
    assert_eq!(out.status.code(), Some(2));
    // preset-only knobs with --in
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(["serve", "--in", "whatever.tsv", "--scale", "0.5"])
        .output()
        .expect("run casbn serve --in with --scale");
    assert_eq!(out.status.code(), Some(2));
    // --expect-checksum is a script-mode gate
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args([
            "serve",
            "--preset",
            "yng",
            "--scale",
            "0.02",
            "--expect-checksum",
            "7",
        ])
        .output()
        .expect("run casbn serve --expect-checksum without --script");
    assert_eq!(out.status.code(), Some(2));
    // the session has no worker-count knob
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args([
            "serve",
            "--preset",
            "yng",
            "--scale",
            "0.02",
            "--script",
            &script_path(),
            "--threads",
            "1",
        ])
        .output()
        .expect("run casbn serve --threads 1");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --threads"), "got {stderr:?}");
    // typo'd flag must not be silently ignored
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(["serve", "--preset", "yng", "--scrpit", "x"])
        .output()
        .expect("run casbn serve with typo");
    assert_eq!(out.status.code(), Some(2));
}
