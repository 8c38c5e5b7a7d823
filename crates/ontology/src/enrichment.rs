//! Gene annotations and the edge-enrichment cluster scorer (AEES).

use crate::dag::{AncestorLists, GoDag, TermId};
use casbn_graph::{Edge, VertexId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A GO-like DAG plus per-gene term annotations.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnnotatedOntology {
    /// The term DAG.
    pub dag: GoDag,
    /// Terms annotated to each gene (possibly empty).
    pub annotations: Vec<Vec<TermId>>,
}

impl AnnotatedOntology {
    /// Build synthetic annotations wired to planted modules.
    ///
    /// Every module is assigned a distinct term at depth
    /// `module_term_depth`; its genes are annotated with that term or one
    /// of its children (so module edges have a deep DCP and near-zero
    /// breadth ⇒ high enrichment). Every gene additionally receives
    /// `noise_terms` random terms; genes outside any module carry only
    /// random terms (so coincidental edges have shallow DCPs and large
    /// breadth ⇒ scores ≤ 0, the paper's "noise" signature). The terms
    /// come from [`synthetic_annotation`], split into one list per gene.
    pub fn synthetic(
        n_genes: usize,
        modules: &[Vec<VertexId>],
        dag: GoDag,
        module_term_depth: u32,
        noise_terms: usize,
        seed: u64,
    ) -> Self {
        let mut offsets = vec![0u32; n_genes + 1];
        let mut terms = Vec::new();
        synthetic_annotation(
            modules.iter().map(Vec::as_slice),
            &dag,
            module_term_depth,
            noise_terms,
            seed,
            &mut offsets,
            &mut terms,
        );
        let annotations = offsets
            .windows(2)
            .map(|w| terms[w[0] as usize..w[1] as usize].to_vec())
            .collect();
        AnnotatedOntology { dag, annotations }
    }

    /// Terms of gene `g`.
    pub fn terms_of(&self, g: VertexId) -> &[TermId] {
        &self.annotations[g as usize]
    }
}

/// A per-gene record that holds where the gene's terms start in a flat
/// term array (see [`synthetic_annotation`]).
pub trait TermOffset {
    /// The offset slot.
    fn term_offset(&mut self) -> &mut u32;
}

impl TermOffset for u32 {
    fn term_offset(&mut self) -> &mut u32 {
        self
    }
}

/// The synthetic annotation generator behind
/// [`AnnotatedOntology::synthetic`], writing into flat buffers: gene
/// `g`'s terms, sorted and deduplicated, end up in
/// `terms[slots[g]..slots[g + 1]]` (`slots` holds one record per gene
/// plus one that closes the last range; `terms` is overwritten).
///
/// The RNG draws come in one order: each module's genes in module order
/// (70% the module's term, 30% one of its children), then each gene's
/// `noise_terms` random terms in gene order. A gene's list is sorted after its draws, so
/// where a term lands before the sort does not matter. The call makes a
/// fixed number of allocations (the term array, the depth's terms and
/// the DAG's parent links), none per gene or per module.
///
/// # Panics
///
/// Panics if the DAG has no term at the module depth, if a module names
/// a gene outside `slots`, or if `noise_terms > 0` and the DAG is only
/// its root.
pub fn synthetic_annotation<'m, R: TermOffset>(
    modules: impl Iterator<Item = &'m [VertexId]> + Clone,
    dag: &GoDag,
    module_term_depth: u32,
    noise_terms: usize,
    seed: u64,
    slots: &mut [R],
    terms: &mut Vec<TermId>,
) {
    let n_genes = slots.len() - 1;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let deep_terms = dag.terms_at_depth(module_term_depth.min(dag.max_depth()));
    assert!(
        !deep_terms.is_empty(),
        "no terms at depth {module_term_depth}"
    );
    // (parent, child) links, sorted: each term's children are one run,
    // ascending, for within-module variation
    let n_terms = dag.n_terms();
    let all = 0..n_terms as TermId;
    let mut links = Vec::with_capacity(all.clone().map(|t| dag.parents(t).len()).sum());
    links.extend(all.flat_map(|t| dag.parents(t).iter().map(move |&p| (p, t))));
    links.sort_unstable();

    // each gene's range holds its module draws, then its noise draws
    for r in slots.iter_mut() {
        *r.term_offset() = 0;
    }
    let genes = &mut slots[..n_genes];
    for module in modules.clone() {
        for &gene in module {
            *genes[gene as usize].term_offset() += 1;
        }
    }
    let mut total = 0u32;
    for r in genes.iter_mut() {
        let count = *r.term_offset();
        *r.term_offset() = total;
        total += count + noise_terms as u32;
    }
    terms.clear();
    terms.resize(total as usize, 0);
    // the cursors advance past each gene's module draws
    for (mi, module) in modules.enumerate() {
        let term = deep_terms[mi % deep_terms.len()];
        let first = links.partition_point(|l| l.0 < term);
        let kids = &links[first..links.partition_point(|l| l.0 <= term)];
        for &gene in module {
            // 70%: the module term itself; 30%: one of its children —
            // mimics annotation granularity differences between genes
            let t = if !kids.is_empty() && rng.gen_bool(0.3) {
                kids[rng.gen_range(0..kids.len())].1
            } else {
                term
            };
            let at = genes[gene as usize].term_offset();
            terms[*at as usize] = t;
            *at += 1;
        }
    }
    // noise draws, then sort, dedup and compact each gene's range
    let all_terms = n_terms as TermId;
    let (mut range_start, mut write) = (0usize, 0usize);
    for r in genes.iter_mut() {
        let cursor = *r.term_offset() as usize;
        let range_end = cursor + noise_terms;
        for t in &mut terms[cursor..range_end] {
            *t = rng.gen_range(1..all_terms);
        }
        terms[range_start..range_end].sort_unstable();
        *r.term_offset() = write as u32;
        let first = write;
        for i in range_start..range_end {
            if write == first || terms[write - 1] != terms[i] {
                terms[write] = terms[i];
                write += 1;
            }
        }
        range_start = range_end;
    }
    terms.truncate(write);
    *slots[n_genes].term_offset() = write as u32;
}

/// Per-cluster annotation produced by the scorer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterAnnotation {
    /// Average edge enrichment score over the cluster's edges.
    pub aees: f64,
    /// Most common DCP term among the cluster's edges (the cluster's
    /// functional annotation), if any edge could be scored.
    pub dominant_term: Option<TermId>,
    /// Depth of the dominant term.
    pub dominant_depth: u32,
    /// Depth of the deepest DCP seen on any edge ("Max Score" of Fig. 11).
    pub max_depth: u32,
    /// Number of edges that could be scored (both endpoints annotated).
    pub scored_edges: usize,
}

/// Edge-enrichment scorer over an [`AnnotatedOntology`].
///
/// [`EnrichmentScorer::new`] builds two things, once per DAG: every
/// term's ancestor list, `(ancestor, minimum distance)` pairs sorted by
/// term id, and every term's ancestor *bit row*. Terms are ranked by
/// `(depth, id)`, and bit `r` of a row is set when the term of rank `r`
/// is an ancestor of the row's term (or the term itself). So the highest
/// set bit of two ANDed rows is the deepest common ancestor, whatever
/// order the DAG numbers its terms in; the lists then give the breadths
/// that break ties between common ancestors of equal depth.
///
/// The rows take `T·⌈T/64⌉` words for `T` terms: 12.7 KB for the
/// 317-term DAGs (8 levels, width 4) the pipeline and the serving layer
/// generate. Edge results
/// are not cached. An edge whose endpoints carry `a` and `b` terms costs
/// `a·b` DCP lookups, each a few word ANDs plus two binary searches per
/// common ancestor at the deepest common depth, and allocates nothing.
#[derive(Clone, Debug)]
pub struct EnrichmentScorer<'a> {
    onto: &'a AnnotatedOntology,
    ancestors: AncestorLists,
    /// Words per bit row, `⌈T/64⌉`.
    words: usize,
    /// Term `t`'s row is `rows[t·words..(t + 1)·words]`.
    rows: Vec<u64>,
    /// `(term, depth)` of each rank.
    by_rank: Vec<(TermId, u32)>,
}

impl<'a> EnrichmentScorer<'a> {
    /// Create a scorer over `onto`, building every term's ancestor list
    /// and bit row.
    pub fn new(onto: &'a AnnotatedOntology) -> Self {
        let dag = &onto.dag;
        let n = dag.n_terms();
        let ancestors = AncestorLists::new(dag);
        let mut by_rank: Vec<(TermId, u32)> = (0..n as TermId).map(|t| (t, dag.depth(t))).collect();
        by_rank.sort_unstable_by_key(|&(t, depth)| (depth, t));
        let mut rank = vec![0u32; n];
        for (r, &(t, _)) in by_rank.iter().enumerate() {
            rank[t as usize] = r as u32;
        }
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; n * words];
        for (t, row) in rows.chunks_exact_mut(words).enumerate() {
            for &(a, _) in ancestors.of(t as TermId) {
                let r = rank[a as usize] as usize;
                row[r / 64] |= 1 << (r % 64);
            }
        }
        EnrichmentScorer {
            onto,
            ancestors,
            words,
            rows,
            by_rank,
        }
    }

    /// [`GoDag::deepest_common_parent`] of `t1` and `t2`, from the bit
    /// rows: the two rows are ANDed from the top word down. The first
    /// common bit fixes the deepest common depth; the common ancestors
    /// at that depth are then ordered by breadth, then id, and the scan
    /// stops at the first shallower one.
    pub fn deepest_common_parent(&self, t1: TermId, t2: TermId) -> (TermId, u32, u32) {
        let row1 = &self.rows[t1 as usize * self.words..][..self.words];
        let row2 = &self.rows[t2 as usize * self.words..][..self.words];
        // (depth, breadth, id) of the best common ancestor so far
        let mut best: Option<(u32, u32, TermId)> = None;
        'words: for w in (0..self.words).rev() {
            let mut common = row1[w] & row2[w];
            while common != 0 {
                let bit = 63 - common.leading_zeros() as usize;
                common ^= 1 << bit;
                let (t, depth) = self.by_rank[w * 64 + bit];
                if best.is_some_and(|(d, _, _)| depth < d) {
                    break 'words;
                }
                let breadth = self.ancestors.distance(t1, t) + self.ancestors.distance(t2, t);
                // ranks fall with the id inside a depth: `<=` keeps the
                // lowest id among equal breadths
                if best.is_none_or(|(_, b, _)| breadth <= b) {
                    best = Some((depth, breadth, t));
                }
            }
        }
        let (depth, breadth, dcp) = best.expect("root is a common ancestor");
        (dcp, depth, breadth)
    }

    /// Score one edge: the best `depth(DCP) − breadth` over all pairs of
    /// the endpoint genes' terms, with the witnessing DCP. `None` if
    /// either endpoint has no annotation.
    pub fn edge_score(&self, u: VertexId, v: VertexId) -> Option<(TermId, i64)> {
        let tu = self.onto.terms_of(u);
        let tv = self.onto.terms_of(v);
        if tu.is_empty() || tv.is_empty() {
            return None;
        }
        let mut best: Option<(TermId, i64)> = None;
        for &a in tu {
            for &b in tv {
                let (dcp, depth, breadth) = self.deepest_common_parent(a, b);
                let s = depth as i64 - breadth as i64;
                best = match best {
                    None => Some((dcp, s)),
                    Some((bt, bs)) if s > bs || (s == bs && dcp < bt) => Some((dcp, s)),
                    keep => keep,
                };
            }
        }
        best
    }

    /// Annotate a cluster given its edge list: AEES = mean edge score
    /// (unscored edges contribute 0, mirroring "no common function
    /// found"), dominant term = most frequent DCP (ties to the lowest
    /// id), read off the runs of the sorted DCPs.
    pub fn annotate_cluster(&self, edges: &[Edge]) -> ClusterAnnotation {
        let mut total = 0.0f64;
        let mut dcps: Vec<TermId> = Vec::with_capacity(edges.len());
        let mut max_depth = 0u32;
        for &(u, v) in edges {
            if let Some((dcp, s)) = self.edge_score(u, v) {
                total += s as f64;
                dcps.push(dcp);
                max_depth = max_depth.max(self.onto.dag.depth(dcp));
            }
        }
        let aees = if edges.is_empty() {
            0.0
        } else {
            total / edges.len() as f64
        };
        dcps.sort_unstable();
        // runs come in id order, so only a strictly longer run replaces
        let (mut dominant_term, mut dominant_count) = (None, 0);
        for run in dcps.chunk_by(|a, b| a == b) {
            if run.len() > dominant_count {
                (dominant_term, dominant_count) = (Some(run[0]), run.len());
            }
        }
        ClusterAnnotation {
            aees,
            dominant_term,
            dominant_depth: dominant_term.map(|t| self.onto.dag.depth(t)).unwrap_or(0),
            max_depth,
            scored_edges: dcps.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AnnotatedOntology, Vec<Vec<VertexId>>) {
        let dag = GoDag::generate(7, 3, 0.25, 5);
        let modules: Vec<Vec<VertexId>> =
            vec![(0..8).collect(), (8..16).collect(), (16..24).collect()];
        let onto = AnnotatedOntology::synthetic(60, &modules, dag, 6, 1, 11);
        (onto, modules)
    }

    #[test]
    fn every_gene_gets_annotations() {
        let (onto, _) = setup();
        for g in 0..60 {
            assert!(
                !onto.terms_of(g).is_empty(),
                "gene {g} has no terms (noise_terms=1 guarantees ≥1)"
            );
        }
    }

    #[test]
    fn module_edges_score_high() {
        let (onto, modules) = setup();
        let scorer = EnrichmentScorer::new(&onto);
        for module in &modules {
            let (_, s) = scorer.edge_score(module[0], module[1]).unwrap();
            assert!(s >= 4, "intra-module edge scored {s}");
        }
    }

    #[test]
    fn cross_module_edges_score_lower_than_intra() {
        let (onto, modules) = setup();
        let scorer = EnrichmentScorer::new(&onto);
        let (_, intra) = scorer.edge_score(modules[0][0], modules[0][1]).unwrap();
        let (_, cross) = scorer.edge_score(modules[0][0], modules[1][0]).unwrap();
        assert!(
            intra > cross,
            "intra {intra} should beat cross-module {cross}"
        );
    }

    #[test]
    fn cluster_annotation_dominant_term_is_module_term() {
        let (onto, modules) = setup();
        let scorer = EnrichmentScorer::new(&onto);
        // a clique over module 0
        let m = &modules[0];
        let mut edges = Vec::new();
        for i in 0..m.len() {
            for j in (i + 1)..m.len() {
                edges.push((m[i], m[j]));
            }
        }
        let ann = scorer.annotate_cluster(&edges);
        assert!(ann.aees >= 3.0, "module cluster AEES {}", ann.aees);
        assert!(ann.dominant_term.is_some());
        assert!(
            ann.dominant_depth >= 5,
            "dominant depth {} too shallow",
            ann.dominant_depth
        );
        assert_eq!(ann.scored_edges, edges.len());
    }

    #[test]
    fn random_cluster_scores_low() {
        let (onto, _) = setup();
        let scorer = EnrichmentScorer::new(&onto);
        // genes 30..40 are background: random annotations only
        let edges: Vec<Edge> = (30..39)
            .map(|i| (i as VertexId, i as VertexId + 1))
            .collect();
        let ann = scorer.annotate_cluster(&edges);
        assert!(
            ann.aees < 3.0,
            "background cluster AEES {} should be low",
            ann.aees
        );
    }

    #[test]
    fn empty_cluster_is_zero() {
        let (onto, _) = setup();
        let scorer = EnrichmentScorer::new(&onto);
        let ann = scorer.annotate_cluster(&[]);
        assert_eq!(ann.aees, 0.0);
        assert!(ann.dominant_term.is_none());
    }

    #[test]
    fn unannotated_genes_yield_none() {
        let dag = GoDag::generate(4, 3, 0.2, 1);
        let onto = AnnotatedOntology {
            dag,
            annotations: vec![vec![], vec![1]],
        };
        let scorer = EnrichmentScorer::new(&onto);
        assert!(scorer.edge_score(0, 1).is_none());
    }

    #[test]
    fn synthetic_is_deterministic() {
        let (a, _) = setup();
        let (b, _) = setup();
        assert_eq!(a.annotations, b.annotations);
    }

    #[test]
    fn filtering_noise_edges_raises_aees() {
        // the Fig. 2 / Fig. 9 mechanism: removing noisy edges from a
        // cluster raises its average score
        let (onto, modules) = setup();
        let scorer = EnrichmentScorer::new(&onto);
        let m = &modules[0];
        let mut edges = Vec::new();
        for i in 0..m.len() {
            for j in (i + 1)..m.len() {
                edges.push((m[i], m[j]));
            }
        }
        let clean = scorer.annotate_cluster(&edges).aees;
        // contaminate with edges to background genes
        let mut noisy = edges.clone();
        for (k, &g) in m.iter().enumerate() {
            noisy.push((g, 40 + k as VertexId));
        }
        let dirty = scorer.annotate_cluster(&noisy).aees;
        assert!(
            clean > dirty,
            "clean {clean:.2} should exceed noisy {dirty:.2}"
        );
    }
}
