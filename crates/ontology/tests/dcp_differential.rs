//! Differential test: the deepest common parent merged from sorted
//! ancestor lists (`GoDag::deepest_common_parent` and the scorer's cached
//! lists) against the reference scan over two `ancestor_distances` maps,
//! on every term pair of several DAGs; and `edge_score` and
//! `annotate_cluster` against a brute-force reference over random
//! annotation sets.

use casbn_graph::VertexId;
use casbn_ontology::{AnnotatedOntology, EnrichmentScorer, GoDag, TermId};
use casbn_serve::snapshot::{serving_dag, GO_EXTRA_PARENT_P, GO_LEVELS, GO_WIDTH};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Scan every ancestor of `t1` present in `t2`'s map: deepest first,
/// then the smallest breadth, then the lowest id.
fn reference_dcp(
    dag: &GoDag,
    a1: &BTreeMap<TermId, u32>,
    a2: &BTreeMap<TermId, u32>,
) -> (TermId, u32, u32) {
    let mut best: Option<(TermId, u32, u32)> = None;
    for (&t, &d1) in a1 {
        if let Some(&d2) = a2.get(&t) {
            let depth = dag.depth(t);
            let breadth = d1 + d2;
            best = match best {
                None => Some((t, depth, breadth)),
                Some((bt, bd, bb)) => {
                    if depth > bd || (depth == bd && (breadth < bb || (breadth == bb && t < bt))) {
                        Some((t, depth, breadth))
                    } else {
                        Some((bt, bd, bb))
                    }
                }
            };
        }
    }
    best.expect("root is a common ancestor")
}

fn ancestor_maps(dag: &GoDag) -> Vec<BTreeMap<TermId, u32>> {
    (0..dag.n_terms() as TermId)
        .map(|t| dag.ancestor_distances(t))
        .collect()
}

/// Both DCP paths agree with the reference on every ordered term pair.
fn check_every_pair(dag: &GoDag) {
    let maps = ancestor_maps(dag);
    let onto = AnnotatedOntology {
        dag: dag.clone(),
        annotations: Vec::new(),
    };
    let scorer = EnrichmentScorer::new(&onto);
    let n = dag.n_terms() as TermId;
    for a in 0..n {
        for b in 0..n {
            let want = reference_dcp(dag, &maps[a as usize], &maps[b as usize]);
            assert_eq!(
                scorer.deepest_common_parent(a, b),
                want,
                "scorer DCP({a}, {b})"
            );
            assert_eq!(dag.deepest_common_parent(a, b), want, "dag DCP({a}, {b})");
        }
    }
}

#[test]
fn serving_dag_every_pair() {
    check_every_pair(&serving_dag());
    check_every_pair(&GoDag::generate(
        GO_LEVELS,
        GO_WIDTH,
        GO_EXTRA_PARENT_P,
        0x60,
    ));
}

#[test]
fn all_multi_parent_dag_every_pair() {
    // every term past level 1 draws a second parent: dense in ties
    for seed in [1, 2] {
        check_every_pair(&GoDag::generate(6, 3, 1.0, seed));
    }
}

#[test]
fn one_level_dag_every_pair() {
    check_every_pair(&GoDag::generate(1, 5, 0.5, 3));
}

/// A DAG `generate` never makes: skip-level parents give an ancestor
/// two path lengths (the lists must keep the shorter), and term 5's
/// parent 6 is numbered after it, which takes the traversal fallback.
fn irregular_dag() -> GoDag {
    serde_json::from_str(
        r#"{
            "parents": [[], [0], [0], [1, 0], [3, 2], [6, 1], [4, 0], [5, 3]],
            "depth": [0, 1, 1, 1, 2, 2, 1, 2],
            "level_start": [0, 1]
        }"#,
    )
    .expect("valid DAG")
}

#[test]
fn irregular_dag_every_pair() {
    let dag = irregular_dag();
    assert_eq!(dag.ancestor_distances(3)[&0], 1, "shorter of two paths");
    check_every_pair(&dag);
}

/// The best `depth − breadth` over every term pair of the two genes
/// (ties toward the lower DCP id), from the reference DCP.
fn reference_edge_score(
    onto: &AnnotatedOntology,
    maps: &[BTreeMap<TermId, u32>],
    u: VertexId,
    v: VertexId,
) -> Option<(TermId, i64)> {
    let mut best: Option<(TermId, i64)> = None;
    for &a in onto.terms_of(u) {
        for &b in onto.terms_of(v) {
            let (dcp, depth, breadth) =
                reference_dcp(&onto.dag, &maps[a as usize], &maps[b as usize]);
            let s = depth as i64 - breadth as i64;
            if best.is_none_or(|(bt, bs)| s > bs || (s == bs && dcp < bt)) {
                best = Some((dcp, s));
            }
        }
    }
    best
}

#[test]
fn edge_score_and_clusters_match_reference_over_random_annotations() {
    for (seed, dag) in [
        (7, serving_dag()),
        (10, irregular_dag()),
        (8, GoDag::generate(6, 3, 1.0, 4)),
        (9, GoDag::generate(1, 5, 0.5, 3)),
    ] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n_terms = dag.n_terms() as TermId;
        // 0–4 terms per gene, so some genes carry no annotation
        let annotations: Vec<Vec<TermId>> = (0..40)
            .map(|_| {
                let k = rng.gen_range(0..5);
                let mut ts: Vec<TermId> = (0..k).map(|_| rng.gen_range(0..n_terms)).collect();
                ts.sort_unstable();
                ts.dedup();
                ts
            })
            .collect();
        assert!(annotations.iter().any(|ts| ts.is_empty()));
        let onto = AnnotatedOntology { dag, annotations };
        let maps = ancestor_maps(&onto.dag);
        let scorer = EnrichmentScorer::new(&onto);
        for u in 0..40 {
            for v in 0..40 {
                assert_eq!(
                    scorer.edge_score(u, v),
                    reference_edge_score(&onto, &maps, u, v),
                    "edge ({u}, {v})"
                );
            }
        }
        // whole clusters: AEES bits, dominant term (most frequent DCP,
        // ties to the lowest id), deepest DCP and scored-edge count
        for _ in 0..50 {
            let edges: Vec<(VertexId, VertexId)> = (0..rng.gen_range(0..30))
                .map(|_| (rng.gen_range(0..40), rng.gen_range(0..40)))
                .collect();
            let scores: Vec<(TermId, i64)> = edges
                .iter()
                .filter_map(|&(u, v)| reference_edge_score(&onto, &maps, u, v))
                .collect();
            let mut counts: BTreeMap<TermId, usize> = BTreeMap::new();
            for &(dcp, _) in &scores {
                *counts.entry(dcp).or_default() += 1;
            }
            let total = scores.iter().fold(0.0f64, |acc, &(_, s)| acc + s as f64);
            let ann = scorer.annotate_cluster(&edges);
            let aees = if edges.is_empty() {
                0.0
            } else {
                total / edges.len() as f64
            };
            assert_eq!(ann.aees.to_bits(), aees.to_bits());
            let dominant = counts
                .iter()
                .max_by_key(|&(&t, &c)| (c, std::cmp::Reverse(t)))
                .map(|(&t, _)| t);
            assert_eq!(ann.dominant_term, dominant);
            let max_depth = scores.iter().map(|&(dcp, _)| onto.dag.depth(dcp)).max();
            assert_eq!(ann.max_depth, max_depth.unwrap_or(0));
            assert_eq!(ann.scored_edges, scores.len());
        }
    }
}
