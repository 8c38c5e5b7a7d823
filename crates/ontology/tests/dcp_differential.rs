//! Differential test: the deepest common parent from the scorer's
//! ancestor bit rows (`EnrichmentScorer::deepest_common_parent`) and the
//! one-shot list merge (`GoDag::deepest_common_parent`) against the
//! reference scan over two `ancestor_distances` maps, on every term pair
//! of several DAGs; and `edge_score` and `annotate_cluster` against a
//! brute-force reference over random annotation sets.
//!
//! The bit rows rank terms by `(depth, id)`, so the DAGs include ones
//! whose ids do not follow depth (a parent numbered after its child),
//! one wide enough that tied common ancestors sit in different 64-bit
//! words, and the root alone.

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

/// A DAG from its parent lists and depths, through the JSON form (the
/// fields are private; `level_start` is not read by any DCP path).
fn dag_from_parts(parents: &[Vec<TermId>], depth: &[u32]) -> GoDag {
    let json = format!(r#"{{"parents": {parents:?}, "depth": {depth:?}, "level_start": [0]}}"#);
    serde_json::from_str(&json).expect("valid DAG")
}

/// `dag` with the ids of every term but the root shuffled.
fn shuffled(dag: &GoDag, seed: u64) -> GoDag {
    let n = dag.n_terms();
    let mut new_id: Vec<TermId> = (1..n as TermId).collect();
    new_id.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    new_id.insert(0, 0);
    let mut parents = vec![Vec::new(); n];
    let mut depth = vec![0; n];
    for old in 0..n as TermId {
        let t = new_id[old as usize] as usize;
        parents[t] = dag
            .parents(old)
            .iter()
            .map(|&p| new_id[p as usize])
            .collect();
        depth[t] = dag.depth(old);
    }
    dag_from_parts(&parents, &depth)
}

/// `n` terms, each with 1–3 parents drawn from the terms before it
/// (skip-level links, so one ancestor can sit at several distances and
/// equal-depth ancestors at different distances), depth the shortest
/// distance to the root, then ids shuffled.
fn random_skip_level_dag(n: usize, seed: u64) -> GoDag {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut parents: Vec<Vec<TermId>> = vec![Vec::new()];
    let mut depth = vec![0u32];
    for t in 1..n as TermId {
        let mut ps: Vec<TermId> = (0..rng.gen_range(1..=3))
            .map(|_| rng.gen_range(0..t))
            .collect();
        ps.sort_unstable();
        ps.dedup();
        depth.push(1 + ps.iter().map(|&p| depth[p as usize]).min().unwrap());
        parents.push(ps);
    }
    shuffled(&dag_from_parts(&parents, &depth), seed)
}

/// Whether some parent is numbered after its child, and some term is
/// numbered after a deeper one: id order is not depth order.
fn ids_do_not_follow_depth(dag: &GoDag) -> bool {
    let n = dag.n_terms() as TermId;
    let late_parent = (0..n).any(|t| dag.parents(t).iter().any(|&p| p > t));
    let deeper_first = (1..n).any(|t| dag.depth(t - 1) > dag.depth(t));
    late_parent && deeper_first
}

#[test]
fn shuffled_serving_dag_every_pair() {
    let dag = shuffled(&serving_dag(), 0x5eed);
    assert!(ids_do_not_follow_depth(&dag));
    check_every_pair(&dag);
}

#[test]
fn root_only_dag_every_pair() {
    let dag: GoDag = serde_json::from_str(r#"{"parents": [[]], "depth": [0], "level_start": [0]}"#)
        .expect("valid DAG");
    check_every_pair(&dag);
    let onto = AnnotatedOntology {
        dag,
        annotations: vec![vec![0], vec![0], vec![]],
    };
    let scorer = EnrichmentScorer::new(&onto);
    assert_eq!(scorer.edge_score(0, 1), Some((0, 0)));
    assert_eq!(scorer.edge_score(0, 2), None);
    let ann = scorer.annotate_cluster(&[(0, 1), (1, 2), (1, 0)]);
    assert_eq!(ann.aees, 0.0);
    assert_eq!(ann.dominant_term, Some(0));
    assert_eq!((ann.max_depth, ann.scored_edges), (0, 2));
}

/// The number of term pairs whose common ancestors at the deepest
/// common depth lie in more than one 64-bit word of the `(depth, id)`
/// ranking and do not all share one breadth: the pairs whose answer
/// needs ties resolved across words.
fn pairs_with_ties_across_words(dag: &GoDag) -> usize {
    let mut by_rank: Vec<TermId> = (0..dag.n_terms() as TermId).collect();
    by_rank.sort_by_key(|&t| (dag.depth(t), t));
    let mut rank = vec![0; by_rank.len()];
    for (r, &t) in by_rank.iter().enumerate() {
        rank[t as usize] = r;
    }
    let maps = ancestor_maps(dag);
    let mut count = 0;
    for a1 in &maps {
        for a2 in &maps {
            let common: Vec<(TermId, u32)> = a1
                .iter()
                .filter_map(|(&t, &d1)| a2.get(&t).map(|&d2| (t, d1 + d2)))
                .collect();
            let deepest = common.iter().map(|&(t, _)| dag.depth(t)).max().unwrap();
            let tied: Vec<(TermId, u32)> = common
                .into_iter()
                .filter(|&(t, _)| dag.depth(t) == deepest)
                .collect();
            let words = tied.iter().map(|&(t, _)| rank[t as usize] / 64);
            let breadths = tied.iter().map(|&(_, b)| b);
            if words.clone().min() != words.max() && breadths.clone().min() != breadths.max() {
                count += 1;
            }
        }
    }
    count
}

#[test]
fn wide_skip_level_dag_every_pair() {
    for seed in [3, 4] {
        let dag = random_skip_level_dag(200, seed);
        assert!(dag.n_terms() > 128, "rows of at least three words");
        assert!(ids_do_not_follow_depth(&dag));
        assert!(
            pairs_with_ties_across_words(&dag) > 0,
            "seed {seed}: no tie spans two words"
        );
        check_every_pair(&dag);
    }
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
        (11, shuffled(&serving_dag(), 0x5eed)),
        (12, random_skip_level_dag(200, 3)),
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
