//! Synthetic GO-like directed acyclic graph of functional terms.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Term identifier; term 0 is always the ROOT.
pub type TermId = u32;

/// A rooted DAG of functional terms with parent links.
///
/// Structure mirrors a GO namespace: a single ROOT, `levels` depth levels
/// with geometric fan-out, each non-root term holding one primary parent
/// in the previous level and (with probability `extra_parent_p`) one
/// secondary parent — making it a genuine DAG, not a tree. Term *depth*
/// is the shortest distance to the ROOT, exactly the "distance from the
/// ROOT node to the DCP" of the paper's scoring.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GoDag {
    parents: Vec<Vec<TermId>>,
    depth: Vec<u32>,
    /// First term id of each level (levels are contiguous id ranges).
    level_start: Vec<TermId>,
}

impl GoDag {
    /// Generate a DAG with `levels` levels below the root; level `l`
    /// contains roughly `branching^min(l, 4)`-ish terms grown per level
    /// by `width_factor`, capped to keep the term count tractable.
    pub fn generate(levels: usize, width_factor: usize, extra_parent_p: f64, seed: u64) -> Self {
        assert!(levels >= 1, "need at least one level below the root");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut parents: Vec<Vec<TermId>> = vec![Vec::new()]; // root
        let mut depth: Vec<u32> = vec![0];
        let mut level_start: Vec<TermId> = vec![0];
        let mut prev_level: Vec<TermId> = vec![0];
        let mut width = width_factor.max(2);
        for l in 1..=levels {
            level_start.push(parents.len() as TermId);
            let mut this_level = Vec::with_capacity(width);
            for _ in 0..width {
                let id = parents.len() as TermId;
                let primary = prev_level[rng.gen_range(0..prev_level.len())];
                let mut ps = vec![primary];
                if prev_level.len() > 1 && rng.gen_bool(extra_parent_p) {
                    let second = prev_level[rng.gen_range(0..prev_level.len())];
                    if second != primary {
                        ps.push(second);
                    }
                }
                parents.push(ps);
                depth.push(l as u32);
                this_level.push(id);
            }
            prev_level = this_level;
            // widen geometrically but cap level width at 4× the factor²
            width = (width * 2).min(width_factor * width_factor * 4);
        }
        GoDag {
            parents,
            depth,
            level_start,
        }
    }

    /// Number of terms (including the root).
    pub fn n_terms(&self) -> usize {
        self.parents.len()
    }

    /// Depth of `t` (root = 0).
    #[inline]
    pub fn depth(&self, t: TermId) -> u32 {
        self.depth[t as usize]
    }

    /// Parents of `t`.
    #[inline]
    pub fn parents(&self, t: TermId) -> &[TermId] {
        &self.parents[t as usize]
    }

    /// Terms at depth exactly `d`.
    pub fn terms_at_depth(&self, d: u32) -> Vec<TermId> {
        (0..self.n_terms() as TermId)
            .filter(|&t| self.depth(t) == d)
            .collect()
    }

    /// Maximum depth in the DAG.
    pub fn max_depth(&self) -> u32 {
        *self.depth.iter().max().unwrap_or(&0)
    }

    /// All ancestors of `t` (including `t` itself) with their minimum
    /// up-edge distance from `t`.
    pub fn ancestor_distances(&self, t: TermId) -> BTreeMap<TermId, u32> {
        let mut dist: BTreeMap<TermId, u32> = BTreeMap::new();
        let mut frontier = vec![(t, 0u32)];
        while let Some((x, d)) = frontier.pop() {
            match dist.get(&x) {
                Some(&old) if old <= d => continue,
                _ => {}
            }
            dist.insert(x, d);
            for &p in self.parents(x) {
                frontier.push((p, d + 1));
            }
        }
        dist
    }

    /// Deepest common parent of `t1` and `t2` and the *term breadth*
    /// (shortest `t1`–`t2` path through a common ancestor). Ties on depth
    /// break toward smaller breadth, then smaller id.
    ///
    /// Returns `(dcp, depth(dcp), breadth)`. Always succeeds: the root is
    /// a common ancestor of everything. This is the one-shot form: it
    /// traverses both terms' ancestors and merges the two lists. A scorer
    /// that asks many pairs answers from ancestor bit rows built once
    /// instead ([`crate::EnrichmentScorer::deepest_common_parent`]), to
    /// the same total order.
    pub fn deepest_common_parent(&self, t1: TermId, t2: TermId) -> (TermId, u32, u32) {
        let a1: Vec<(TermId, u32)> = self.ancestor_distances(t1).into_iter().collect();
        let a2: Vec<(TermId, u32)> = self.ancestor_distances(t2).into_iter().collect();
        self.common_parent(&a1, &a2)
    }

    /// The DCP of two terms given their ancestor lists (each sorted by
    /// term id, distances minimal): one merge walk over the two lists.
    /// The tie-break is a total order, so the result does not depend on
    /// the order the common ancestors are met in.
    fn common_parent(&self, a1: &[(TermId, u32)], a2: &[(TermId, u32)]) -> (TermId, u32, u32) {
        // the minimum of (shallowness, breadth, id) over common ancestors;
        // the walk advances without branching on the comparison
        let mut best: Option<(Reverse<u32>, u32, TermId)> = None;
        let (mut i, mut j) = (0, 0);
        while i < a1.len() && j < a2.len() {
            let (t1, d1) = a1[i];
            let (t2, d2) = a2[j];
            if t1 == t2 {
                let key = (Reverse(self.depth(t1)), d1 + d2, t1);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            i += usize::from(t1 <= t2);
            j += usize::from(t2 <= t1);
        }
        let (Reverse(depth), breadth, dcp) = best.expect("root is a common ancestor");
        (dcp, depth, breadth)
    }

    /// The paper's edge enrichment score for a term pair:
    /// `depth(DCP) − breadth`, as a signed value ("scores at or below 0
    /// are more likely to represent noise").
    pub fn enrichment_score(&self, t1: TermId, t2: TermId) -> i64 {
        let (_, depth, breadth) = self.deepest_common_parent(t1, t2);
        depth as i64 - breadth as i64
    }
}

/// Every term's ancestor list, built once: `(ancestor, minimum up-edge
/// distance)` pairs, the term itself included, sorted by term id — the
/// entries of [`GoDag::ancestor_distances`], stored flat.
#[derive(Clone, Debug)]
pub(crate) struct AncestorLists {
    /// `pairs[start[t]..start[t + 1]]` is term `t`'s list.
    start: Vec<usize>,
    pairs: Vec<(TermId, u32)>,
}

impl AncestorLists {
    /// One pass in id order. [`GoDag::generate`] gives every parent a
    /// lower id than its child, so a term's list is the term itself plus
    /// its parents' lists one step further, merged keeping the minimum
    /// distance. A term with a later-numbered parent falls back to the
    /// traversal.
    pub(crate) fn new(dag: &GoDag) -> Self {
        let mut start = Vec::with_capacity(dag.n_terms() + 1);
        start.push(0);
        let mut pairs: Vec<(TermId, u32)> = Vec::new();
        let mut merged: Vec<(TermId, u32)> = Vec::new();
        for t in 0..dag.n_terms() as TermId {
            if dag.parents(t).iter().all(|&p| p < t) {
                merged.clear();
                merged.push((t, 0));
                for &p in dag.parents(t) {
                    let list = &pairs[start[p as usize]..start[p as usize + 1]];
                    merged.extend(list.iter().map(|&(a, d)| (a, d + 1)));
                }
                merged.sort_unstable();
                merged.dedup_by_key(|&mut (a, _)| a);
                pairs.extend_from_slice(&merged);
            } else {
                pairs.extend(dag.ancestor_distances(t));
            }
            start.push(pairs.len());
        }
        AncestorLists { start, pairs }
    }

    /// Term `t`'s ancestors with their minimum distance, sorted by id.
    #[inline]
    pub(crate) fn of(&self, t: TermId) -> &[(TermId, u32)] {
        &self.pairs[self.start[t as usize]..self.start[t as usize + 1]]
    }

    /// The minimum up-edge distance from `t` to `a`, which must be one of
    /// its ancestors: a binary search of `t`'s list.
    #[inline]
    pub(crate) fn distance(&self, t: TermId, a: TermId) -> u32 {
        let list = self.of(t);
        let (x, d) = list[list.partition_point(|&(x, _)| x < a)];
        debug_assert_eq!(x, a, "{a} is not an ancestor of {t}");
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dag() -> GoDag {
        GoDag::generate(6, 3, 0.3, 42)
    }

    #[test]
    fn root_is_term_zero_depth_zero() {
        let d = small_dag();
        assert_eq!(d.depth(0), 0);
        assert!(d.parents(0).is_empty());
    }

    #[test]
    fn depths_match_levels() {
        let d = small_dag();
        assert_eq!(d.max_depth(), 6);
        for t in 0..d.n_terms() as TermId {
            for &p in d.parents(t) {
                assert_eq!(d.depth(p) + 1, d.depth(t), "parent depth must be one less");
            }
        }
    }

    #[test]
    fn every_nonroot_has_a_parent() {
        let d = small_dag();
        for t in 1..d.n_terms() as TermId {
            assert!(!d.parents(t).is_empty());
        }
    }

    #[test]
    fn ancestor_distances_include_self_and_root() {
        let d = small_dag();
        let deep = d.terms_at_depth(6)[0];
        let anc = d.ancestor_distances(deep);
        assert_eq!(anc[&deep], 0);
        assert_eq!(anc[&0], 6, "root reached in exactly depth steps");
    }

    #[test]
    fn dcp_of_identical_terms_is_self() {
        let d = small_dag();
        let t = d.terms_at_depth(4)[0];
        let (dcp, depth, breadth) = d.deepest_common_parent(t, t);
        assert_eq!(dcp, t);
        assert_eq!(depth, 4);
        assert_eq!(breadth, 0);
        assert_eq!(d.enrichment_score(t, t), 4);
    }

    #[test]
    fn dcp_of_parent_child() {
        let d = small_dag();
        let t = d.terms_at_depth(5)[0];
        let p = d.parents(t)[0];
        let (dcp, depth, breadth) = d.deepest_common_parent(t, p);
        assert_eq!(dcp, p);
        assert_eq!(depth, 4);
        assert_eq!(breadth, 1);
        assert_eq!(d.enrichment_score(t, p), 3);
    }

    #[test]
    fn siblings_score_positive_when_deep() {
        let d = small_dag();
        // two children of the same deep parent
        let parent = d.terms_at_depth(5)[0];
        let kids: Vec<TermId> = (0..d.n_terms() as TermId)
            .filter(|&t| d.parents(t).contains(&parent))
            .collect();
        if kids.len() >= 2 {
            let s = d.enrichment_score(kids[0], kids[1]);
            assert!(s >= 3, "deep siblings score {s}");
        }
    }

    #[test]
    fn unrelated_deep_terms_score_at_or_below_zero() {
        let d = small_dag();
        let deep = d.terms_at_depth(6);
        // scan for a pair whose DCP is the root
        let mut found = false;
        'outer: for &a in &deep {
            for &b in &deep {
                if a >= b {
                    continue;
                }
                let (dcp, _, _) = d.deepest_common_parent(a, b);
                if dcp == 0 {
                    assert!(d.enrichment_score(a, b) <= -(2 * 6) + 6);
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(
            found,
            "expected at least one root-DCP pair among deep terms"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GoDag::generate(5, 3, 0.2, 7);
        let b = GoDag::generate(5, 3, 0.2, 7);
        assert_eq!(a.n_terms(), b.n_terms());
        assert_eq!(a.depth, b.depth);
        assert_eq!(a.parents, b.parents);
    }

    #[test]
    fn score_symmetry() {
        let d = small_dag();
        let xs = d.terms_at_depth(3);
        let ys = d.terms_at_depth(5);
        for &a in xs.iter().take(3) {
            for &b in ys.iter().take(3) {
                assert_eq!(d.enrichment_score(a, b), d.enrichment_score(b, a));
            }
        }
    }
}
