//! Classical node-based GO term enrichment — the orthogonal validation
//! channel the paper references ("clusters have been shown to have common
//! functions according to Gene Ontology enrichment", §II, citing Dempsey
//! et al.'s BIBM'11 work).
//!
//! For a cluster of `k` genes of which `x` carry term `t`, with `K` of
//! the `N` background genes carrying `t`, the enrichment p-value is the
//! hypergeometric tail `P(X ≥ x)`. This complements the edge-enrichment
//! (AEES) scorer: AEES scores *relationships*, node enrichment scores
//! *memberships*, and the two must agree on the planted modules — which
//! the cross-validation test at the bottom asserts.
//!
//! The serving tier answers gene-set queries through a resident
//! [`EnrichmentIndex`]: each query counts its genes' terms in a per-thread
//! array, sorts only the terms that at least two genes carry, and reads
//! tables, with no map and no logarithm. It returns bit for bit what
//! [`hypergeometric_tail`] over a fresh count would
//! (`tests/enrich_differential.rs` holds the map-based oracle).

use crate::dag::TermId;
use crate::enrichment::AnnotatedOntology;
use casbn_graph::VertexId;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::Arc;

/// One enriched term in a cluster.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EnrichedTerm {
    /// The GO-like term.
    pub term: TermId,
    /// Cluster genes annotated with the term.
    pub in_cluster: usize,
    /// Background genes annotated with the term.
    pub in_background: usize,
    /// Hypergeometric tail p-value `P(X ≥ in_cluster)`.
    pub p_value: f64,
}

/// Hypergeometric tail `P(X ≥ x)` for `x` successes in `k` draws from a
/// population of `n` containing `big_k` successes. Exact summation in
/// log-space; fine for the population sizes here (≤ ~30k genes).
pub fn hypergeometric_tail(x: usize, k: usize, big_k: usize, n: usize) -> f64 {
    tail_with(x, k, big_k, n, ln_factorial)
}

/// The one tail routine behind [`hypergeometric_tail`] and
/// [`EnrichmentIndex::enrich`]; they differ only in where `ln i!` comes
/// from (computed, or read from a table of the same function's values).
/// Every `ln_fact` argument is at most `n`.
fn tail_with(x: usize, k: usize, big_k: usize, n: usize, ln_fact: impl Fn(usize) -> f64) -> f64 {
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
        ln_fact(n) - ln_fact(r) - ln_fact(n - r)
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

fn ln_factorial(n: usize) -> f64 {
    // Stirling with correction for small n via direct product
    if n < 32 {
        (2..=n).map(|i| (i as f64).ln()).sum()
    } else {
        let x = n as f64;
        x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
    }
}

/// `ln i!` for every `i ≤ n`: the table an [`EnrichmentIndex`] over `n`
/// background genes reads. Snapshots of one gene count can share one.
pub fn ln_factorial_table(n: usize) -> Arc<[f64]> {
    (0..=n).map(ln_factorial).collect()
}

thread_local! {
    /// Per-thread query counts, indexed by term id, all zero between
    /// queries; the flag is set while a query runs.
    static TERM_COUNTS: RefCell<(Vec<u32>, bool)> = const { RefCell::new((Vec::new(), false)) };
}

/// Resident background-frequency index for repeated enrichment queries.
///
/// [`enrich_cluster`] rebuilds this index on every call — fine for a
/// one-shot pipeline pass, wasteful for a serving tier that answers many
/// gene-set queries against the same annotation snapshot.
/// `EnrichmentIndex` is built once per annotation: the background count
/// of every term, in a vector indexed by [`TermId`] (term ids are
/// dense), and `ln i!` for every `i ≤ N`. A query counts its genes'
/// terms into a zeroed per-thread array sized to the term count,
/// collects the terms whose count reaches 2, sorts only those, and
/// zeroes the slots it touched; then it reads tables: no map and no
/// logarithm (only the `exp` of each tail summand).
///
/// The answers are bit-identical to the map-and-`ln` path it replaces:
/// the table holds the values of the function [`hypergeometric_tail`]
/// calls, both go through one tail routine that sums in the same order,
/// and the tested terms are taken in ascending term order, as a
/// `BTreeMap` iterates, so the tested set, the Bonferroni factor and the
/// tie order do not change.
#[derive(Clone, Debug)]
pub struct EnrichmentIndex {
    /// Background gene count `N`.
    n: usize,
    /// Background annotation frequency, indexed by term id.
    bg: Vec<u32>,
    /// `ln_fact[i] = ln i!` for `i in 0..=N`.
    ln_fact: Arc<[f64]>,
}

impl EnrichmentIndex {
    /// Build the background table from an annotated ontology.
    pub fn new(onto: &AnnotatedOntology) -> EnrichmentIndex {
        let n = onto.annotations.len();
        EnrichmentIndex::count(
            n,
            onto.dag.n_terms(),
            onto.annotations.iter().flatten().copied(),
            ln_factorial_table(n),
        )
    }

    /// Build the background table of `genes` genes over `n_terms` terms
    /// from the genes' terms, concatenated (`terms`, as
    /// [`crate::synthetic_annotation`] writes them). `ln_fact` must be
    /// [`ln_factorial_table`]`(genes)`.
    pub fn from_terms(
        genes: usize,
        n_terms: usize,
        terms: &[TermId],
        ln_fact: Arc<[f64]>,
    ) -> EnrichmentIndex {
        EnrichmentIndex::count(genes, n_terms, terms.iter().copied(), ln_fact)
    }

    fn count(
        n: usize,
        n_terms: usize,
        terms: impl Iterator<Item = TermId>,
        ln_fact: Arc<[f64]>,
    ) -> EnrichmentIndex {
        assert_eq!(ln_fact.len(), n + 1, "ln i! table must cover 0..=N");
        let mut bg = vec![0u32; n_terms];
        for t in terms {
            let t = t as usize;
            if t >= bg.len() {
                bg.resize(t + 1, 0);
            }
            bg[t] += 1;
        }
        EnrichmentIndex { n, bg, ln_fact }
    }

    /// Background gene count the index was built over.
    pub fn background_genes(&self) -> usize {
        self.n
    }

    /// Enriched terms of a gene set, most significant first. Terms are
    /// tested if at least two set genes carry them; p-values are
    /// Bonferroni-corrected by the number of tested terms. `onto` must
    /// be the ontology the index was built from.
    pub fn enrich(
        &self,
        onto: &AnnotatedOntology,
        genes: &[VertexId],
        max_p: f64,
    ) -> Vec<EnrichedTerm> {
        self.enrich_by(|g| onto.terms_of(g), genes, max_p)
    }

    /// [`EnrichmentIndex::enrich`] with the genes' terms read through
    /// `terms_of`, which must give the annotation the index was built
    /// from (for a flat annotation, a slice of its term array).
    pub fn enrich_by<'t>(
        &self,
        terms_of: impl Fn(VertexId) -> &'t [TermId],
        genes: &[VertexId],
        max_p: f64,
    ) -> Vec<EnrichedTerm> {
        // (term, genes carrying it) for every term at least two carry,
        // in ascending term order
        let tested = TERM_COUNTS.with(|scratch| {
            let (counts, dirty) = &mut *scratch.borrow_mut();
            if *dirty {
                // a query that panicked part-way left counts behind
                counts.fill(0);
            }
            if counts.len() < self.bg.len() {
                counts.resize(self.bg.len(), 0);
            }
            *dirty = true;
            let mut tested: Vec<(TermId, usize)> = Vec::new();
            for &g in genes {
                for &t in terms_of(g) {
                    let c = &mut counts[t as usize];
                    *c += 1;
                    if *c == 2 {
                        tested.push((t, 0));
                    }
                }
            }
            for (t, x) in tested.iter_mut() {
                *x = counts[*t as usize] as usize;
            }
            for &g in genes {
                for &t in terms_of(g) {
                    counts[t as usize] = 0;
                }
            }
            *dirty = false;
            tested.sort_unstable_by_key(|&(t, _)| t);
            tested
        });
        let correction = tested.len().max(1) as f64;
        let ln_fact = |i: usize| self.ln_fact[i];
        let mut out: Vec<EnrichedTerm> = tested
            .into_iter()
            .filter_map(|(t, x)| {
                let big_k = self.bg[t as usize] as usize;
                let tail = tail_with(x, genes.len(), big_k, self.n, ln_fact);
                let p = (tail * correction).min(1.0);
                (p <= max_p).then_some(EnrichedTerm {
                    term: t,
                    in_cluster: x,
                    in_background: big_k,
                    p_value: p,
                })
            })
            .collect();
        out.sort_by(|a, b| {
            a.p_value
                .partial_cmp(&b.p_value)
                .unwrap()
                .then(a.term.cmp(&b.term))
        });
        out
    }
}

/// Enriched terms of a cluster, most significant first. Terms are tested
/// if at least two cluster genes carry them; p-values are Bonferroni
///-corrected by the number of tested terms. One-shot convenience over
/// [`EnrichmentIndex`]; build the index directly when querying the same
/// ontology repeatedly.
pub fn enrich_cluster(
    onto: &AnnotatedOntology,
    cluster: &[VertexId],
    max_p: f64,
) -> Vec<EnrichedTerm> {
    EnrichmentIndex::new(onto).enrich(onto, cluster, max_p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::GoDag;
    use crate::enrichment::EnrichmentScorer;

    #[test]
    fn tail_sanity() {
        // drawing 5 from 10 with 5 successes: P(X >= 5) = 1/C(10,5)
        let p = hypergeometric_tail(5, 5, 5, 10);
        assert!((p - 1.0 / 252.0).abs() < 1e-12);
        assert_eq!(hypergeometric_tail(0, 5, 5, 10), 1.0);
        assert_eq!(hypergeometric_tail(6, 5, 5, 10), 0.0);
    }

    #[test]
    fn tail_monotone_in_x() {
        let ps: Vec<f64> = (1..=5)
            .map(|x| hypergeometric_tail(x, 10, 20, 100))
            .collect();
        for w in ps.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn ln_factorial_matches_direct() {
        let direct: f64 = (2..=40).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(40) - direct).abs() < 1e-6);
    }

    fn setup() -> (AnnotatedOntology, Vec<Vec<VertexId>>) {
        let dag = GoDag::generate(7, 3, 0.25, 5);
        let modules: Vec<Vec<VertexId>> = vec![(0..10).collect(), (10..20).collect()];
        let onto = AnnotatedOntology::synthetic(200, &modules, dag, 5, 1, 11);
        (onto, modules)
    }

    #[test]
    fn module_clusters_are_enriched() {
        let (onto, modules) = setup();
        let hits = enrich_cluster(&onto, &modules[0], 0.01);
        assert!(!hits.is_empty(), "module cluster must show enrichment");
        assert!(hits[0].p_value < 1e-4, "top p {}", hits[0].p_value);
        assert!(hits[0].in_cluster >= 5);
    }

    #[test]
    fn resident_index_matches_one_shot_path() {
        let (onto, modules) = setup();
        let idx = EnrichmentIndex::new(&onto);
        assert_eq!(idx.background_genes(), 200);
        for m in &modules {
            let via_index = idx.enrich(&onto, m, 0.05);
            let one_shot = enrich_cluster(&onto, m, 0.05);
            assert_eq!(via_index.len(), one_shot.len());
            for (a, b) in via_index.iter().zip(&one_shot) {
                assert_eq!(a.term, b.term);
                assert_eq!(a.in_cluster, b.in_cluster);
                assert_eq!(a.in_background, b.in_background);
                assert_eq!(a.p_value.to_bits(), b.p_value.to_bits());
            }
        }
    }

    #[test]
    fn random_gene_sets_are_not_enriched() {
        let (onto, _) = setup();
        // background genes spread across the id space
        let random: Vec<VertexId> = (100..110).collect();
        let hits = enrich_cluster(&onto, &random, 0.01);
        assert!(
            hits.len() <= 1,
            "random set should show ~no enrichment, got {}",
            hits.len()
        );
    }

    #[test]
    fn node_and_edge_enrichment_agree_on_modules() {
        // orthogonal validation: a cluster that node-enrichment flags must
        // also score high AEES, and vice versa on the planted modules
        let (onto, modules) = setup();
        let scorer = EnrichmentScorer::new(&onto);
        for m in &modules {
            let mut edges = Vec::new();
            for i in 0..m.len() {
                for j in (i + 1)..m.len() {
                    edges.push((m[i], m[j]));
                }
            }
            let aees = scorer.annotate_cluster(&edges).aees;
            let node_hits = enrich_cluster(&onto, m, 0.01);
            assert!(
                (aees >= 3.0) != node_hits.is_empty(),
                "channels disagree: AEES {aees:.2}, node hits {}",
                node_hits.len()
            );
        }
    }
}
