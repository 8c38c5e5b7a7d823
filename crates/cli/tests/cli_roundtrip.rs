//! End-to-end CLI test: generate → filter → compare, through the public
//! command functions (no subprocess spawning needed).

use casbn_cli::commands;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("casbn_cli_test_{}_{name}", std::process::id()));
    p
}

fn sv(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

#[test]
fn generate_filter_compare_pipeline() {
    let net = tmp("net.tsv");
    let filt = tmp("filt.tsv");
    let code = commands::generate(&sv(&[
        "--preset",
        "yng",
        "--scale",
        "0.08",
        "--out",
        net.to_str().unwrap(),
    ]));
    assert_eq!(code, 0);
    assert!(net.exists());

    let code = commands::filter(&sv(&[
        "--in",
        net.to_str().unwrap(),
        "--algo",
        "chordal-nocomm",
        "--ranks",
        "4",
        "--out",
        filt.to_str().unwrap(),
    ]));
    assert_eq!(code, 0);
    assert!(filt.exists());

    let code = commands::compare(&sv(&[
        "--original",
        net.to_str().unwrap(),
        "--filtered",
        filt.to_str().unwrap(),
    ]));
    assert_eq!(code, 0);

    let code = commands::stats(&sv(&["--in", filt.to_str().unwrap()]));
    assert_eq!(code, 0);

    let code = commands::cluster(&sv(&["--in", net.to_str().unwrap()]));
    assert_eq!(code, 0);

    let _ = std::fs::remove_file(net);
    let _ = std::fs::remove_file(filt);
}

#[test]
fn stats_centrality_prints_ten_hubs_in_betweenness_order() {
    let net = tmp("centrality.tsv");
    let code = commands::generate(&sv(&[
        "--preset",
        "yng",
        "--scale",
        "0.05",
        "--out",
        net.to_str().unwrap(),
    ]));
    assert_eq!(code, 0);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(["stats", "--in", net.to_str().unwrap(), "--centrality"])
        .output()
        .expect("run casbn");
    let _ = std::fs::remove_file(net);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let (_, rows) = stdout
        .split_once("top betweenness vertices:\n")
        .expect("centrality header");
    let scores: Vec<f64> = rows
        .lines()
        .map(|row| {
            let mut words = row.split_whitespace();
            words.find(|&w| w == "betweenness").expect("row format");
            words.next().unwrap().parse().unwrap()
        })
        .collect();
    assert_eq!(scores.len(), 10, "{stdout}");
    assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{scores:?}");
}

#[test]
fn stream_replay_roundtrip() {
    let replay = tmp("replay.tsv");
    let chordal = tmp("chordal.tsv");
    // synthesize, write the replay, stream it, dump the chordal network
    let code = commands::stream(&sv(&[
        "--preset",
        "yng",
        "--scale",
        "0.02",
        "--samples",
        "8",
        "--batch",
        "2",
        "--replay-out",
        replay.to_str().unwrap(),
        "--out",
        chordal.to_str().unwrap(),
    ]));
    assert_eq!(code, 0);
    assert!(replay.exists());
    assert!(chordal.exists());

    // re-streaming the written replay file reproduces the same pipeline
    // (JSON mode exercises the serialized summary too)
    let code = commands::stream(&sv(&[
        "--in",
        replay.to_str().unwrap(),
        "--batch",
        "2",
        "--json",
    ]));
    assert_eq!(code, 0);

    // the dumped chordal network parses and clusters
    let code = commands::cluster(&sv(&["--in", chordal.to_str().unwrap()]));
    assert_eq!(code, 0);

    let _ = std::fs::remove_file(replay);
    let _ = std::fs::remove_file(chordal);
}

#[test]
fn missing_file_fails_cleanly() {
    let code = commands::stats(&sv(&["--in", "/nonexistent/never.tsv"]));
    assert_eq!(code, 2);
}

#[test]
fn unknown_algo_fails_cleanly() {
    let net = tmp("net2.tsv");
    assert_eq!(
        commands::generate(&sv(&[
            "--preset",
            "mid",
            "--scale",
            "0.05",
            "--out",
            net.to_str().unwrap()
        ])),
        0
    );
    let code = commands::filter(&sv(&["--in", net.to_str().unwrap(), "--algo", "magic"]));
    assert_eq!(code, 2);
    let _ = std::fs::remove_file(net);
}

#[test]
fn every_algorithm_runs() {
    let net = tmp("net3.tsv");
    assert_eq!(
        commands::generate(&sv(&[
            "--preset",
            "unt",
            "--scale",
            "0.05",
            "--out",
            net.to_str().unwrap()
        ])),
        0
    );
    for algo in [
        "chordal-seq",
        "chordal-nocomm",
        "chordal-comm",
        "randomwalk",
        "forestfire",
        "randomnode",
        "randomedge",
    ] {
        let out = tmp(&format!("f_{algo}.tsv"));
        let code = commands::filter(&sv(&[
            "--in",
            net.to_str().unwrap(),
            "--algo",
            algo,
            "--ranks",
            "2",
            "--out",
            out.to_str().unwrap(),
        ]));
        assert_eq!(code, 0, "{algo} failed");
        let _ = std::fs::remove_file(out);
    }
    let _ = std::fs::remove_file(net);
}
