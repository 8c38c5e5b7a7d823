//! Differential test: the resident `EnrichmentIndex` (dense background
//! counts, sorted term runs, a `ln i!` table) against the index it
//! replaced, kept here as the oracle: a `BTreeMap` of background counts,
//! a fresh `BTreeMap` of query counts, and a tail that recomputes every
//! `ln i!` by a sum of logs (i < 32) or Stirling's formula. Every term,
//! count and p-value bit must match, on random, repeated, unannotated
//! and planted-module gene sets at `max_p` 0.05 and 1.0; and the public
//! `hypergeometric_tail` must keep its bits on a grid that straddles the
//! switch to Stirling's formula.

use casbn_graph::VertexId;
use casbn_ontology::{hypergeometric_tail, AnnotatedOntology, EnrichmentIndex, TermId};
use casbn_serve::protocol::MAX_QUERY_GENES;
use casbn_serve::snapshot::{serving_dag, MODULE_TERM_DEPTH, NOISE_TERMS};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

fn oracle_ln_factorial(n: usize) -> f64 {
    if n < 32 {
        (2..=n).map(|i| (i as f64).ln()).sum()
    } else {
        let x = n as f64;
        x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
    }
}

fn oracle_tail(x: usize, k: usize, big_k: usize, n: usize) -> f64 {
    if x == 0 {
        return 1.0;
    }
    if x > k.min(big_k) {
        return 0.0;
    }
    let ln_choose = |n: usize, r: usize| -> f64 {
        if r > n {
            return f64::NEG_INFINITY;
        }
        oracle_ln_factorial(n) - oracle_ln_factorial(r) - oracle_ln_factorial(n - r)
    };
    let denom = ln_choose(n, k);
    let mut p = 0.0f64;
    for i in x..=k.min(big_k) {
        if k - i > n - big_k {
            continue;
        }
        let ln_p = ln_choose(big_k, i) + ln_choose(n - big_k, k - i) - denom;
        p += ln_p.exp();
    }
    p.min(1.0)
}

/// The map-based index: `(term, in_cluster, in_background, p bits)`,
/// most significant first.
struct OracleIndex {
    n: usize,
    bg: BTreeMap<TermId, usize>,
}

impl OracleIndex {
    fn new(onto: &AnnotatedOntology) -> OracleIndex {
        let mut bg: BTreeMap<TermId, usize> = BTreeMap::new();
        for ann in &onto.annotations {
            for &t in ann {
                *bg.entry(t).or_default() += 1;
            }
        }
        OracleIndex {
            n: onto.annotations.len(),
            bg,
        }
    }

    fn enrich(
        &self,
        onto: &AnnotatedOntology,
        genes: &[VertexId],
        max_p: f64,
    ) -> Vec<(TermId, usize, usize, u64)> {
        let mut inside: BTreeMap<TermId, usize> = BTreeMap::new();
        for &g in genes {
            for &t in onto.terms_of(g) {
                *inside.entry(t).or_default() += 1;
            }
        }
        let tested: Vec<(&TermId, &usize)> = inside.iter().filter(|&(_, &c)| c >= 2).collect();
        let correction = tested.len().max(1) as f64;
        let mut out: Vec<(TermId, usize, usize, f64)> = tested
            .into_iter()
            .filter_map(|(&t, &x)| {
                let big_k = self.bg[&t];
                let p = (oracle_tail(x, genes.len(), big_k, self.n) * correction).min(1.0);
                (p <= max_p).then_some((t, x, big_k, p))
            })
            .collect();
        out.sort_by(|a, b| a.3.partial_cmp(&b.3).unwrap().then(a.0.cmp(&b.0)));
        out.into_iter()
            .map(|(t, x, k, p)| (t, x, k, p.to_bits()))
            .collect()
    }
}

/// A serving-shaped ontology over `n` genes with `modules` planted
/// modules of 5–29 genes, and `noise` random terms per gene (0 leaves
/// every unclustered gene without annotations); returns the modules too.
fn ontology(
    n: usize,
    modules: usize,
    noise: usize,
    seed: u64,
) -> (AnnotatedOntology, Vec<Vec<VertexId>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut genes: Vec<VertexId> = (0..n as VertexId).collect();
    genes.shuffle(&mut rng);
    let mut planted = Vec::new();
    let mut rest = &genes[..];
    for _ in 0..modules {
        let size = rng.gen_range(5..30usize).min(rest.len());
        let (m, tail) = rest.split_at(size);
        planted.push(m.to_vec());
        rest = tail;
    }
    let onto =
        AnnotatedOntology::synthetic(n, &planted, serving_dag(), MODULE_TERM_DEPTH, noise, seed);
    (onto, planted)
}

fn assert_same(
    idx: &EnrichmentIndex,
    oracle: &OracleIndex,
    onto: &AnnotatedOntology,
    genes: &[VertexId],
) -> usize {
    let mut hits = 0;
    for max_p in [0.05, 1.0] {
        let got: Vec<(TermId, usize, usize, u64)> = idx
            .enrich(onto, genes, max_p)
            .into_iter()
            .map(|h| (h.term, h.in_cluster, h.in_background, h.p_value.to_bits()))
            .collect();
        let want = oracle.enrich(onto, genes, max_p);
        assert_eq!(got, want, "max_p {max_p}, {} genes: {genes:?}", genes.len());
        hits += got.len();
    }
    hits
}

/// Random sets of every queried size, sets with repeats, and module
/// draws, on a YNG-sized ontology with and without noise annotations.
#[test]
fn index_matches_map_oracle_bitwise() {
    let mut checked = 0usize;
    let mut hits = 0usize;
    for (n, modules, noise, seed) in [
        (5348, 180, NOISE_TERMS, 1),
        (5348, 180, 0, 2),
        (200, 6, 1, 3),
    ] {
        let (onto, planted) = ontology(n, modules, noise, seed);
        let idx = EnrichmentIndex::new(&onto);
        let oracle = OracleIndex::new(&onto);
        assert_eq!(idx.background_genes(), n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xE5);
        let gene = |rng: &mut ChaCha8Rng| rng.gen_range(0..n as VertexId);
        for round in 0..4000 {
            let genes: Vec<VertexId> = match round % 8 {
                // random sets of size 0, 1, 2 and 8
                0 => Vec::new(),
                1 => vec![gene(&mut rng)],
                2 => (0..2).map(|_| gene(&mut rng)).collect(),
                3 | 4 => (0..8).map(|_| gene(&mut rng)).collect(),
                // repeated genes: a small pool drawn with replacement
                5 => {
                    let pool: Vec<VertexId> = (0..3).map(|_| gene(&mut rng)).collect();
                    (0..rng.gen_range(2..12))
                        .map(|_| pool[rng.gen_range(0..pool.len())])
                        .collect()
                }
                // part of one planted module, plus a random gene or two
                _ => {
                    let m = &planted[rng.gen_range(0..planted.len())];
                    let mut set: Vec<VertexId> =
                        m.iter().copied().filter(|_| rng.gen_bool(0.7)).collect();
                    for _ in 0..rng.gen_range(0..3) {
                        set.push(gene(&mut rng));
                    }
                    set.shuffle(&mut rng);
                    set
                }
            };
            hits += assert_same(&idx, &oracle, &onto, &genes);
            checked += 1;
        }
        // the largest set a request may carry, repeats included when n is
        // smaller than the cap
        for _ in 0..8 {
            let genes: Vec<VertexId> = (0..MAX_QUERY_GENES).map(|_| gene(&mut rng)).collect();
            hits += assert_same(&idx, &oracle, &onto, &genes);
            checked += 1;
        }
        // every planted module whole
        for m in &planted {
            hits += assert_same(&idx, &oracle, &onto, m);
            checked += 1;
        }
    }
    assert!(checked >= 10_000, "only {checked} sets checked");
    assert!(hits > 10_000, "only {hits} hits compared");
}

/// `hypergeometric_tail` against the oracle tail for every `N ≤ 40` and
/// `K ≤ N` (across the `N = 32` switch to Stirling's formula), at draw
/// sizes from 0 to one past the population and thresholds from 0 to one
/// past the largest possible count, plus a few large `N`.
#[test]
fn hypergeometric_tail_keeps_its_bits() {
    let mut cases = 0usize;
    let mut check = |x: usize, k: usize, big_k: usize, n: usize| {
        let got = hypergeometric_tail(x, k, big_k, n);
        let want = oracle_tail(x, k, big_k, n);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "tail({x}, {k}, {big_k}, {n})"
        );
        cases += 1;
    };
    for n in 0..=40usize {
        for big_k in 0..=n {
            for k in [0, 1, 2, 3, n / 2, n.saturating_sub(1), n, n + 1] {
                let top = k.min(big_k);
                for x in [0, 1, 2, top / 2, top, top + 1] {
                    check(x, k, big_k, n);
                }
            }
        }
    }
    for n in [100, 1000, 5348, 27_896] {
        for big_k in [1, 2, 17, n / 3, n] {
            for k in [2, 8, 64, n] {
                for x in [1, 2, 3, 8, k.min(big_k)] {
                    check(x, k, big_k, n);
                }
            }
        }
    }
    assert!(cases > 30_000, "only {cases} cases");
}
