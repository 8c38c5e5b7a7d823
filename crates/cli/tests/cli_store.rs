//! End-to-end `.csbn` container workflows through the binary: pack /
//! inspect / verify, magic-byte auto-detection on every `--in`, and the
//! stream checkpoint → resume bit-identity gate.

use std::path::PathBuf;
use std::process::{Command, Output};

fn casbn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(args)
        .output()
        .expect("run casbn")
}

fn tmp(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(format!("cli_store_{name}"));
    p.to_str().unwrap().to_string()
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// Write a small deterministic edge-list network for the tests.
fn write_edge_list_fixture(path: &str) {
    let mut text = String::new();
    // two planted near-cliques joined by a path, plus spokes
    for block in [0u32, 8] {
        for u in block..block + 6 {
            for v in (u + 1)..block + 6 {
                text.push_str(&format!("{u} {v}\n"));
            }
        }
    }
    text.push_str("5 8\n6 7\n7 14\n");
    std::fs::write(path, text).unwrap();
}

#[test]
fn pack_verify_inspect_and_consume_a_graph_container() {
    let edges = tmp("g.tsv");
    let packed = tmp("g.csbn");
    write_edge_list_fixture(&edges);

    let out = casbn(&["pack", "--in", &edges, "--kind", "graph", "--out", &packed]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("packed graph"));

    // verify: clean container
    let out = casbn(&["verify", "--in", &packed]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("all checksums verified"));

    // inspect: section table with kind name and checksum column
    let out = casbn(&["inspect", "--in", &packed]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("container       .csbn v1"), "{text}");
    assert!(text.contains("graph"), "{text}");
    assert!(text.contains("checksum 0x"), "{text}");

    // stats auto-detects the container and reports its metadata on
    // stderr alongside the usual graph statistics on stdout
    let out = casbn(&["stats", "--in", &packed]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let diag = stderr(&out);
    assert!(diag.contains("container       .csbn v1"), "{diag}");
    assert!(diag.contains("creator \"casbn "), "{diag}");
    let text = stdout(&out);
    assert!(text.contains("vertices        15"), "{text}");
    assert!(text.contains("edges           33"), "{text}");
    // …while the text input gets no container block
    let out = casbn(&["stats", "--in", &edges]);
    assert!(!stderr(&out).contains("container"), "{}", stderr(&out));

    // cluster and filter accept the container transparently and agree
    // with the text path
    let from_text = casbn(&["cluster", "--in", &edges]);
    let from_bin = casbn(&["cluster", "--in", &packed]);
    assert_eq!(from_text.status.code(), Some(0));
    assert_eq!(stdout(&from_text), stdout(&from_bin));

    let filt_text = tmp("filt_text.tsv");
    let filt_bin = tmp("filt_bin.tsv");
    let out = casbn(&[
        "filter",
        "--in",
        &edges,
        "--algo",
        "chordal-seq",
        "--out",
        &filt_text,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = casbn(&[
        "filter",
        "--in",
        &packed,
        "--algo",
        "chordal-seq",
        "--out",
        &filt_bin,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(
        std::fs::read(&filt_text).unwrap(),
        std::fs::read(&filt_bin).unwrap(),
        "filter output must not depend on the input container format"
    );

    // compare accepts containers on both --original and --filtered
    let out = casbn(&["compare", "--original", &packed, "--filtered", &packed]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn verify_flags_corruption_with_exit_one() {
    let edges = tmp("c.tsv");
    let packed = tmp("c.csbn");
    write_edge_list_fixture(&edges);
    let out = casbn(&["pack", "--in", &edges, "--kind", "graph", "--out", &packed]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    let mut bytes = std::fs::read(&packed).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    let corrupt = tmp("c_corrupt.csbn");
    std::fs::write(&corrupt, &bytes).unwrap();

    let out = casbn(&["verify", "--in", &corrupt]);
    assert_eq!(out.status.code(), Some(1), "corruption must exit 1");
    assert!(stderr(&out).contains("checksum"), "{}", stderr(&out));

    // consuming subcommands refuse the corrupt container too
    let out = casbn(&["stats", "--in", &corrupt]);
    assert_eq!(out.status.code(), Some(2));

    // and a truncated container is a typed error, not a panic
    let short = tmp("c_short.csbn");
    std::fs::write(&short, &std::fs::read(&packed).unwrap()[..21]).unwrap();
    let out = casbn(&["verify", "--in", &short]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("truncated"), "{}", stderr(&out));
}

#[test]
fn pack_rejects_bad_usage() {
    let edges = tmp("u.tsv");
    write_edge_list_fixture(&edges);
    // unknown kind
    let out = casbn(&[
        "pack",
        "--in",
        &edges,
        "--kind",
        "spreadsheet",
        "--out",
        "x",
    ]);
    assert_eq!(out.status.code(), Some(2));
    // missing --out
    let out = casbn(&["pack", "--in", &edges, "--kind", "graph"]);
    assert_eq!(out.status.code(), Some(2));
    // typo'd flag is rejected, not ignored
    let out = casbn(&["pack", "--in", &edges, "--kid", "graph", "--out", "x"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn packed_replay_streams_identically_to_text_replay() {
    let replay = tmp("r.tsv");
    let packed = tmp("r.csbn");
    // synthesize a replay via the CLI itself, then pack it
    let out = casbn(&[
        "stream",
        "--preset",
        "yng",
        "--scale",
        "0.02",
        "--samples",
        "6",
        "--replay-out",
        &replay,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = casbn(&[
        "pack", "--in", &replay, "--kind", "replay", "--out", &packed,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    let a = casbn(&["stream", "--in", &replay, "--json"]);
    let b = casbn(&["stream", "--in", &packed, "--json"]);
    assert_eq!(a.status.code(), Some(0), "{}", stderr(&a));
    assert_eq!(b.status.code(), Some(0), "{}", stderr(&b));
    // wall-clock fields are nondeterministic; everything else must match
    // (catches both Duration's {"secs","nanos"} pairs and the summary's
    // wall_*_nanos percentile fields)
    let strip_wall = |s: &str| -> String {
        s.lines()
            .filter(|l| !l.contains("nanos") && !l.contains("\"secs\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_wall(&stdout(&a)),
        strip_wall(&stdout(&b)),
        "replay container must be transparent"
    );
}

#[test]
fn cluster_json_packs_into_a_clusters_section() {
    let edges = tmp("k.tsv");
    let json = tmp("k.json");
    let packed = tmp("k.csbn");
    write_edge_list_fixture(&edges);
    let out = casbn(&["cluster", "--in", &edges, "--json"]);
    assert_eq!(out.status.code(), Some(0));
    std::fs::write(&json, stdout(&out)).unwrap();
    let out = casbn(&[
        "pack", "--in", &json, "--kind", "clusters", "--out", &packed,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = casbn(&["inspect", "--in", &packed]);
    assert!(stdout(&out).contains("clusters"), "{}", stdout(&out));
}

#[test]
fn stream_checkpoint_resume_reproduces_the_uninterrupted_checksum() {
    // the acceptance gate, end to end through the binary: a run stopped
    // after 2 of 4 windows and resumed from its checkpoint must print
    // the exact checksum of the uninterrupted run
    let preset = [
        "--preset",
        "yng",
        "--scale",
        "0.02",
        "--samples",
        "8",
        "--batch",
        "2",
    ];

    let full = casbn(&[&["stream"], &preset[..]].concat());
    assert_eq!(full.status.code(), Some(0), "{}", stderr(&full));
    let full_out = stdout(&full);
    let checksum_line = full_out
        .lines()
        .find(|l| l.starts_with("checksum "))
        .expect("summary prints a checksum");
    let checksum = checksum_line.trim_start_matches("checksum ").to_string();

    // half the run, checkpointed
    let ck = tmp("s.ck.csbn");
    let out = casbn(
        &[
            &["stream"],
            &preset[..],
            &["--windows", "2", "--checkpoint", ck.as_str()],
        ]
        .concat(),
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("wrote checkpoint"),
        "{}",
        stderr(&out)
    );
    assert!(
        stderr(&out)
            .lines()
            .filter(|l| l.starts_with(char::is_numeric))
            .count()
            < 4,
        "partial run must stop early"
    );

    // the checkpoint is itself a verifiable container
    let out = casbn(&["verify", "--in", &ck]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // resumed remainder gates on the uninterrupted checksum (exit 0)
    let out = casbn(&[
        "stream",
        "--preset",
        "yng",
        "--scale",
        "0.02",
        "--samples",
        "8",
        "--resume",
        &ck,
        "--expect-checksum",
        &checksum,
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "resume diverged: {}\n{}",
        stdout(&out),
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("resumed at sample 4"),
        "{}",
        stderr(&out)
    );

    // config overrides while resuming are rejected, not silently applied
    let out = casbn(&[
        "stream",
        "--preset",
        "yng",
        "--scale",
        "0.02",
        "--samples",
        "8",
        "--resume",
        &ck,
        "--batch",
        "3",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("comes from the checkpoint"),
        "{}",
        stderr(&out)
    );

    // a gene-count mismatch between checkpoint and replay is caught
    let out = casbn(&[
        "stream",
        "--preset",
        "yng",
        "--scale",
        "0.01",
        "--samples",
        "8",
        "--resume",
        &ck,
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("genes"), "{}", stderr(&out));
}

#[test]
fn stream_resume_refuses_a_replay_the_checkpoint_did_not_ingest() {
    // checkpoint half a replay written to a file, then resume it against
    // a copy with one value of sample 1 (the second row) changed: the
    // resume must fail naming that sample and gene, not continue a
    // different stream
    let replay = tmp("diff.replay.tsv");
    let ck = tmp("diff.ck.csbn");
    let out = casbn(&[
        "stream",
        "--preset",
        "yng",
        "--scale",
        "0.02",
        "--samples",
        "8",
        "--replay-out",
        &replay,
        "--windows",
        "2",
        "--checkpoint",
        &ck,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = std::fs::read_to_string(&replay).unwrap();
    let mut row = 0;
    let edited: Vec<String> = text
        .lines()
        .map(|line| {
            if line.starts_with('#') {
                return line.to_string();
            }
            row += 1;
            if row != 2 {
                return line.to_string();
            }
            let mut values: Vec<String> = line.split_whitespace().map(String::from).collect();
            let x: f64 = values[3].parse().unwrap();
            values[3] = (x + 0.5).to_string();
            values.join(" ")
        })
        .collect();
    let other = tmp("diff.other.tsv");
    std::fs::write(&other, edited.join("\n") + "\n").unwrap();

    let out = casbn(&["stream", "--in", &other, "--resume", &ck]);
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("replay differs from the checkpoint at sample 1, gene 3"),
        "{}",
        stderr(&out)
    );
    // the replay it did ingest resumes to the uninterrupted checksum
    let out = casbn(&[
        "stream",
        "--in",
        &replay,
        "--resume",
        &ck,
        "--expect-checksum",
        "17660843889947913608",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn checkpoint_into_an_existing_container_appends_a_generation() {
    // suspend after 2 windows into a fresh checkpoint, then resume and
    // suspend again into the SAME file: the second write appends a
    // superseding generation instead of rewriting, and the appended
    // container resumes to the uninterrupted run's checksum
    let preset = [
        "--preset",
        "yng",
        "--scale",
        "0.02",
        "--samples",
        "8",
        "--batch",
        "2",
    ];
    let full = casbn(&[&["stream"], &preset[..]].concat());
    assert_eq!(full.status.code(), Some(0), "{}", stderr(&full));
    let checksum = stdout(&full)
        .lines()
        .find(|l| l.starts_with("checksum "))
        .expect("summary prints a checksum")
        .trim_start_matches("checksum ")
        .to_string();

    let ck = tmp("a.ck.csbn");
    let _ = std::fs::remove_file(&ck);
    let out = casbn(
        &[
            &["stream"],
            &preset[..],
            &["--windows", "2", "--checkpoint", ck.as_str()],
        ]
        .concat(),
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let base_len = std::fs::metadata(&ck).unwrap().len();

    // resume one more window, appending into the same file
    let out = casbn(&[
        "stream",
        "--preset",
        "yng",
        "--scale",
        "0.02",
        "--samples",
        "8",
        "--resume",
        &ck,
        "--windows",
        "1",
        "--checkpoint",
        &ck,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("appended"), "{}", stderr(&out));
    assert!(
        std::fs::metadata(&ck).unwrap().len() > base_len,
        "append must grow the file"
    );

    // inspect reports the appended layout and lazy open
    let out = casbn(&["inspect", "--in", &ck]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("appended (generation 1)"), "{text}");
    assert!(text.contains("lazy open"), "{text}");

    // verify still sweeps every checksum of the appended layout
    let out = casbn(&["verify", "--in", &ck]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // and the appended checkpoint resumes to the pinned checksum
    let out = casbn(&[
        "stream",
        "--preset",
        "yng",
        "--scale",
        "0.02",
        "--samples",
        "8",
        "--resume",
        &ck,
        "--expect-checksum",
        &checksum,
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "appended resume diverged: {}\n{}",
        stdout(&out),
        stderr(&out)
    );
}

#[test]
fn degraded_resume_recovers_a_torn_checkpoint_through_the_binary() {
    // build a two-generation checkpoint (suspend at window 2, resume and
    // suspend again at window 3), then tear bytes off the tail so the
    // newest generation's footer is destroyed: a plain --resume must
    // refuse the damaged file, while --resume --degraded falls back to
    // the newest intact generation, warns on stderr, and still drives
    // the remaining windows to the uninterrupted run's checksum
    let preset = [
        "--preset",
        "yng",
        "--scale",
        "0.02",
        "--samples",
        "8",
        "--batch",
        "2",
    ];
    // --batch comes from the checkpoint when resuming, so resume
    // invocations drop it
    let resume_preset = ["--preset", "yng", "--scale", "0.02", "--samples", "8"];
    let full = casbn(&[&["stream"], &preset[..]].concat());
    assert_eq!(full.status.code(), Some(0), "{}", stderr(&full));
    let checksum = stdout(&full)
        .lines()
        .find(|l| l.starts_with("checksum "))
        .expect("summary prints a checksum")
        .trim_start_matches("checksum ")
        .to_string();

    let ck = tmp("torn.ck.csbn");
    let _ = std::fs::remove_file(&ck);
    let out = casbn(
        &[
            &["stream"],
            &preset[..],
            &["--windows", "2", "--checkpoint", ck.as_str()],
        ]
        .concat(),
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = casbn(
        &[
            &["stream"],
            &resume_preset[..],
            &[
                "--resume",
                ck.as_str(),
                "--windows",
                "1",
                "--checkpoint",
                ck.as_str(),
            ],
        ]
        .concat(),
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // tear into the appended generation's footer
    let bytes = std::fs::read(&ck).unwrap();
    std::fs::write(&ck, &bytes[..bytes.len() - 13]).unwrap();

    // without --degraded the damaged checkpoint is refused
    let out = casbn(&[&["stream"], &resume_preset[..], &["--resume", ck.as_str()]].concat());
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));

    // --degraded only applies when resuming
    let out = casbn(&[&["stream"], &resume_preset[..], &["--degraded"]].concat());
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--degraded only applies"),
        "{}",
        stderr(&out)
    );

    // degraded resume falls back to the window-2 generation and the
    // remaining windows reproduce the pinned uninterrupted checksum
    let out = casbn(
        &[
            &["stream"],
            &resume_preset[..],
            &[
                "--resume",
                ck.as_str(),
                "--degraded",
                "--expect-checksum",
                checksum.as_str(),
            ],
        ]
        .concat(),
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "degraded resume diverged: {}\n{}",
        stdout(&out),
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("is damaged; resuming from generation"),
        "{}",
        stderr(&out)
    );

    // inspect --degraded reports the torn tail instead of erroring
    let out = casbn(&["inspect", "--in", &ck, "--degraded"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("torn tail"), "{}", stdout(&out));
}

#[test]
fn network_readers_refuse_a_stream_checkpoint() {
    // a checkpoint's only graph section is the chordal subgraph, so
    // reading it as a network would serve the wrong graph
    let ck = tmp("refused.ck.csbn");
    let _ = std::fs::remove_file(&ck);
    let out = casbn(&[
        "stream",
        "--preset",
        "yng",
        "--scale",
        "0.02",
        "--samples",
        "8",
        "--batch",
        "2",
        "--windows",
        "3",
        "--checkpoint",
        &ck,
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    for cmd in ["serve", "stats"] {
        let out = casbn(&[cmd, "--in", &ck]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(
            err.contains(&format!("{ck}: a stream checkpoint"))
                && err.contains(&format!("casbn stream --resume {ck}")),
            "{cmd}: {err}"
        );
    }
}
