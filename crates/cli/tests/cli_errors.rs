//! Error-path contract for the `casbn` binary: malformed input files
//! and bad flag combinations exit nonzero with a one-line diagnostic —
//! never a panic, never a backtrace. These are the same surfaces the
//! `cli-argv` fuzz target drives in-process; this suite pins the
//! end-to-end behaviour of the real binary.

use casbn_cli::commands::{fuzz_argv_check, COMMANDS};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn casbn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(args)
        .output()
        .expect("run casbn")
}

/// Write `bytes` to a uniquely named temp file and return its path.
fn tmpfile(name: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("casbn-cli-errors-{}-{name}", std::process::id()));
    std::fs::write(&path, bytes).expect("write temp file");
    path
}

/// The contract: the exact exit code, a diagnostic containing `needle`
/// on stderr, and no panic or backtrace anywhere.
fn assert_graceful(args: &[&str], want_code: i32, needle: &str) {
    let out = casbn(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(want_code),
        "argv {args:?}: stderr {stderr:?}"
    );
    assert!(
        stderr.contains(needle),
        "argv {args:?}: stderr {stderr:?} missing {needle:?}"
    );
    assert!(!stderr.contains("panicked"), "argv {args:?}: {stderr:?}");
    assert!(
        !stderr.contains("RUST_BACKTRACE"),
        "argv {args:?}: {stderr:?}"
    );
}

#[test]
fn missing_input_file_is_a_diagnostic_not_a_panic() {
    assert_graceful(
        &["stats", "--in", "/nonexistent/casbn-no-such-file"],
        2,
        "error: open",
    );
}

#[test]
fn sparse_id_bomb_is_rejected_with_the_typed_diagnostic() {
    // the minimized fuzz crasher: one edge whose vertex id implies a
    // 2^32-vertex allocation — must be the typed SparseIds rejection
    let p = tmpfile("sparse.txt", b"0 4294967295\n");
    assert_graceful(
        &["cluster", "--in", p.to_str().unwrap()],
        2,
        "vertex ids imply",
    );
}

#[test]
fn ragged_or_non_finite_replay_is_rejected() {
    for (name, bytes) in [
        ("ragged.tsv", &b"1.0 2.0\n3.0\n"[..]),
        ("nan.tsv", b"1.0 2.0\n1 NaN\n"),
        ("inf.tsv", b"1.0 2.0\ninf 2\n"),
        ("overflow.tsv", b"1.0 2.0\n1e309 0\n"),
    ] {
        let p = tmpfile(name, bytes);
        assert_graceful(&["stream", "--in", p.to_str().unwrap()], 2, "line 2");
    }
}

#[test]
fn resume_from_a_non_checkpoint_is_rejected() {
    let p = tmpfile("notckpt.txt", b"hello\n");
    assert_graceful(
        &[
            "stream",
            "--preset",
            "yng",
            "--scale",
            "0.01",
            "--samples",
            "4",
            "--resume",
            p.to_str().unwrap(),
        ],
        2,
        "not a .csbn checkpoint",
    );
}

#[test]
fn truncated_container_fails_verify_with_exit_one() {
    // magic bytes only: parses far enough to be "a .csbn", then fails
    // validation — `verify`'s corruption exit, not a usage error
    let p = tmpfile(
        "trunc.csbn",
        &[0x89, b'C', b'S', b'B', b'N', 0x0D, 0x0A, 0x00],
    );
    let out = casbn(&["verify", "--in", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr:?}");
}

#[test]
fn garbage_after_the_magic_is_a_diagnostic() {
    let mut bytes = vec![0x89, b'C', b'S', b'B', b'N', 0x0D, 0x0A, 0x00];
    bytes.extend_from_slice(&[0xFF; 64]);
    let p = tmpfile("garbage.csbn", &bytes);
    assert_graceful(&["stats", "--in", p.to_str().unwrap()], 2, "error:");
}

#[test]
fn unknown_algorithm_and_kind_are_named_in_the_diagnostic() {
    let p = tmpfile("tiny.txt", b"0 1\n");
    assert_graceful(
        &["filter", "--in", p.to_str().unwrap(), "--algo", "warp"],
        2,
        "unknown algorithm",
    );
    assert_graceful(
        &[
            "pack",
            "--in",
            p.to_str().unwrap(),
            "--kind",
            "bogus",
            "--out",
            "/dev/null",
        ],
        2,
        "unknown --kind",
    );
}

#[test]
fn valueless_flag_is_rejected_not_swallowed() {
    assert_graceful(&["stream", "--preset"], 2, "needs a value");
}

#[test]
fn figures_runs_at_a_small_scale() {
    let out = casbn(&["figures", "--fig", "3", "--scale", "0.05"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("== Figure 3:"));
}

/// Argv vectors (space-separated; `X` names an existing edge list) that
/// the in-process check and the binary must both reject, with the
/// diagnostic both must name.
const REJECTED: &[(&str, &str)] = &[
    ("generate --preset yng --scael 0.1", "unknown flag --scael"),
    (
        "filter --in X --algo chordal-seq --rank 8",
        "unknown flag --rank",
    ),
    ("cluster --in X --min-scor 3", "unknown flag --min-scor"),
    ("stats --in X --centrallity", "unknown flag --centrallity"),
    ("compare --original X --filterd X", "unknown flag --filterd"),
    (
        "filter --in X --algo chordal-nocomm --ranks",
        "--ranks needs a value",
    ),
    (
        "filter --in X --algo chordal-nocomm --ranks 0",
        "need --ranks > 0",
    ),
    (
        "filter --in X --algo randomwalk --ranks 0",
        "need --ranks > 0",
    ),
    ("generate --preset yng --scale 0", "need --scale > 0"),
    ("generate --preset yng --scale -1", "need --scale > 0"),
    ("generate --preset yng --scale nan", "need --scale > 0"),
    ("stream --preset yng --batch 0", "need --batch > 0"),
    ("stream --preset yng --min-rho 2", "--min-rho <= 1"),
    ("stream --preset yng --windows 0", "need --windows > 0"),
    ("serve --preset yng --threads 0", "unknown flag --threads"),
    ("bench --threshold -1", "need --threshold >= 0"),
    ("pack --in X --kind bogus --out X", "unknown --kind bogus"),
    ("fuzz --target frobnicator", "unknown --target"),
    ("figures --fig 12", "unknown --fig 12"),
    ("figures --scale 0", "need --scale > 0"),
    ("figures --scale -1", "need --scale > 0"),
    ("figures --scale nan", "need --scale > 0"),
    ("figures --scale", "--scale needs a value"),
    ("figures --full", "unknown flag --full"),
    ("figures --scale 0.05 --full", "unknown flag --full"),
];

#[test]
fn check_and_binary_agree_on_rejections() {
    let x = tmpfile("agree.txt", b"0 1\n1 2\n");
    for &(line, needle) in REJECTED {
        let argv: Vec<String> = line
            .split(' ')
            .map(|a| if a == "X" { x.to_str().unwrap() } else { a })
            .map(String::from)
            .collect();
        let err = fuzz_argv_check(&argv).expect_err(line);
        assert!(err.contains(needle), "check on {line:?}: {err:?}");
        let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
            .args(&argv)
            .stdin(Stdio::null())
            .output()
            .expect("run casbn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line:?}: {stderr:?}");
        assert!(stderr.contains(needle), "{line:?}: {stderr:?}");
        assert!(!stderr.contains("panicked"), "{line:?}: {stderr:?}");
    }
}

#[test]
fn check_runs_no_job() {
    let out = std::env::temp_dir().join(format!("casbn-cli-check-{}.tsv", std::process::id()));
    let argv = [
        "generate",
        "--preset",
        "yng",
        "--out",
        out.to_str().unwrap(),
    ];
    let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
    assert_eq!(fuzz_argv_check(&argv), Ok(()));
    assert!(!out.exists(), "the check wrote {}", out.display());
}

#[test]
fn every_command_answers_help() {
    for cmd in COMMANDS {
        let out = casbn(&[cmd.name, "--help"]);
        assert_eq!(out.status.code(), Some(0), "casbn {} --help", cmd.name);
        assert_eq!(String::from_utf8_lossy(&out.stdout), cmd.help);
    }
}
