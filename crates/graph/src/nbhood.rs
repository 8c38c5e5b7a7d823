//! Zero-allocation neighbourhood kernels: adaptive sorted-set
//! intersection plus a reusable per-graph scratch.
//!
//! Every hot consumer of adjacency structure in the pipeline — the
//! Dearing–Shier–Warner candidate updates, MCODE core-density scoring,
//! the incremental-chordal admissibility BFS, and the per-window
//! re-clustering of the streaming subsystem — reduces to one primitive:
//! *intersect two sorted neighbour lists*. This module provides that
//! primitive behind a single adaptive entry point with `count` and
//! `for_each` variants (plus the [`is_subset`] predicate), and a
//! [`NeighborhoodScratch`] (visited-epoch array, bitset, u32 stack) that
//! is sized once per graph and reused across calls so steady-state
//! filtering performs no heap allocation.
//!
//! # Adaptive dispatch
//!
//! Three intersection strategies, picked per call:
//!
//! * **linear merge** — the classic two-cursor walk, `O(|a| + |b|)`;
//!   best when the lists have comparable length.
//! * **galloping** — iterate the shorter list and locate each element in
//!   the longer one by doubling probes + binary search,
//!   `O(|a| log |b|)`; wins when the degree skew reaches
//!   [`GALLOP_RATIO`] (≥ 32×), the hub-vs-leaf pattern scale-free
//!   correlation networks produce.
//! * **bitset / mark filter** — when one side is already *materialised*
//!   into the scratch ([`NeighborhoodScratch::load_bitset`]), each
//!   [`NeighborhoodScratch::bitset_contains`] probe is `O(1)`, so
//!   intersecting many lists against the same neighbourhood (MCODE's
//!   core-density loop) costs `O(|b|)` per list.
//!
//! All three visit common elements in ascending order and agree exactly
//! on the result set (property-tested against a `BTreeSet` oracle in
//! `crates/graph/tests/nbhood_props.rs`), so callers may switch paths
//! freely without perturbing deterministic downstream output.

use crate::graph::VertexId;

/// Degree skew at which [`intersect_for_each`] switches from the linear
/// merge to galloping search: the longer list must be at least this many
/// times the shorter one.
///
/// Galloping costs `O(|small| · log |large|)` versus the merge's
/// `O(|small| + |large|)`; with `log₂` of a realistic degree bounded by
/// ~20, a 32× skew is where the probe count reliably undercuts the scan.
pub const GALLOP_RATIO: usize = 32;

/// Intersect two sorted, duplicate-free slices with the adaptive
/// strategy, invoking `f` on each common element in ascending order.
#[inline]
pub fn intersect_for_each(a: &[VertexId], b: &[VertexId], mut f: impl FnMut(VertexId)) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len() * GALLOP_RATIO <= large.len() {
        casbn_obs::counter_inc("nbhood.intersect_gallop");
        intersect_gallop_for_each(small, large, &mut f);
    } else {
        casbn_obs::counter_inc("nbhood.intersect_merge");
        intersect_merge_for_each(small, large, &mut f);
    }
}

/// Number of common elements of two sorted slices (adaptive dispatch).
#[inline]
pub fn intersect_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let mut n = 0usize;
    intersect_for_each(a, b, |_| n += 1);
    n
}

/// Linear-merge intersection path (pinned; prefer
/// [`intersect_for_each`], which picks a strategy adaptively). Visits
/// common elements ascending.
#[inline]
pub fn intersect_merge_for_each(a: &[VertexId], b: &[VertexId], f: &mut impl FnMut(VertexId)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Galloping intersection path (pinned; prefer [`intersect_for_each`]).
/// Iterates `small` and locates each element in `large` by doubling
/// probes from the previous hit position followed by a binary search, so
/// a full pass costs `O(|small| · log |large|)`. Visits common elements
/// ascending.
#[inline]
pub fn intersect_gallop_for_each(
    small: &[VertexId],
    large: &[VertexId],
    f: &mut impl FnMut(VertexId),
) {
    let mut base = 0usize;
    for &x in small {
        if base >= large.len() {
            break;
        }
        match gallop(large, base, x) {
            Ok(i) => {
                f(x);
                base = i + 1;
            }
            Err(i) => base = i,
        }
    }
}

/// One galloping probe for `x` in sorted `large`, starting at `base`:
/// `Ok(i)` when `large[i] == x`, else `Err(i)` with `i` the index of the
/// first element greater than `x` (where the next probe starts).
#[inline]
fn gallop(large: &[VertexId], base: usize, x: VertexId) -> Result<usize, usize> {
    // doubling probe: find an offset whose element reaches x, so the
    // window [base, base + offset + 1) contains the first element ≥ x
    let mut offset = 1usize;
    while base + offset < large.len() && large[base + offset] < x {
        offset <<= 1;
    }
    let hi = (base + offset + 1).min(large.len());
    match large[base..hi].binary_search(&x) {
        Ok(pos) => Ok(base + pos),
        Err(pos) => Err(base + pos),
    }
}

/// Whether sorted slice `a` is a subset of sorted slice `b`, with the
/// same adaptive dispatch as [`intersect_for_each`]: a linear merge scan
/// for comparable lengths, galloping probes when `b` is ≥
/// [`GALLOP_RATIO`]× longer (the DSW candidate-clique updates hit this
/// constantly — a tiny candidate set against a hub clique).
#[inline]
pub fn is_subset(a: &[VertexId], b: &[VertexId]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    if a.len() * GALLOP_RATIO <= b.len() {
        casbn_obs::counter_inc("nbhood.subset_gallop");
        let mut base = 0usize;
        for &x in a {
            match gallop(b, base, x) {
                Ok(i) => base = i + 1,
                Err(_) => return false,
            }
        }
        return true;
    }
    casbn_obs::counter_inc("nbhood.subset_merge");
    let mut j = 0usize;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Reusable neighbourhood scratch: a visited-epoch array, a bitset with
/// dirty-word tracking and a u32 stack, all sized once per graph
/// ([`NeighborhoodScratch::new`]) and reused across calls.
///
/// Cloning is supported (the streaming maintainer derives `Clone`), and
/// a clone inherits the buffers' capacities.
#[derive(Clone, Debug, Default)]
pub struct NeighborhoodScratch {
    /// Visited-epoch marks: `mark[v] == epoch` ⇔ `v` marked this epoch.
    mark: Vec<u32>,
    /// Current mark epoch (0 means "nothing ever marked").
    epoch: u32,
    /// Bitset over vertices for the materialised-set intersection path.
    bits: Vec<u64>,
    /// Words of `bits` with at least one set bit (for `O(set)` clearing).
    dirty: Vec<u32>,
    /// Reusable u32 stack / cursor queue for BFS-style traversals.
    pub stack: Vec<VertexId>,
}

impl NeighborhoodScratch {
    /// Scratch sized for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        NeighborhoodScratch {
            mark: vec![0; n],
            epoch: 0,
            bits: vec![0; n.div_ceil(64)],
            dirty: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Number of vertices this scratch currently covers.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.mark.len()
    }

    /// Grow (never shrink) the scratch to cover `n` vertices.
    pub fn ensure(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        let words = n.div_ceil(64);
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
        casbn_obs::record_max("nbhood.scratch_capacity", self.mark.len() as u64);
    }

    /// Start a fresh mark epoch: every vertex becomes unmarked in `O(1)`
    /// (amortised — a full clear happens only on `u32` wraparound).
    #[inline]
    pub fn begin_marks(&mut self) {
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.mark.fill(0);
                1
            }
        };
    }

    /// Mark `v` in the current epoch.
    #[inline]
    pub fn mark(&mut self, v: VertexId) {
        self.mark[v as usize] = self.epoch;
    }

    /// Whether `v` is marked in the current epoch.
    #[inline]
    pub fn is_marked(&self, v: VertexId) -> bool {
        self.mark[v as usize] == self.epoch
    }

    /// Mark every vertex of `list` in a fresh epoch (clears prior marks).
    #[inline]
    pub fn load_marks(&mut self, list: &[VertexId]) {
        self.begin_marks();
        for &v in list {
            self.mark[v as usize] = self.epoch;
        }
    }

    /// Materialise `list` into the bitset (clearing any previous load).
    /// Subsequent [`NeighborhoodScratch::bitset_contains`] probes are
    /// `O(1)`, so one materialisation serves many probe lists.
    pub fn load_bitset(&mut self, list: &[VertexId]) {
        for &w in &self.dirty {
            self.bits[w as usize] = 0;
        }
        self.dirty.clear();
        for &v in list {
            let w = (v >> 6) as usize;
            if self.bits[w] == 0 {
                self.dirty.push(w as u32);
            }
            self.bits[w] |= 1u64 << (v & 63);
        }
    }

    /// Whether `v` is in the currently materialised bitset.
    #[inline]
    pub fn bitset_contains(&self, v: VertexId) -> bool {
        (self.bits[(v >> 6) as usize] >> (v & 63)) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_all_paths(a: &[VertexId], b: &[VertexId]) -> Vec<Vec<VertexId>> {
        let mut adaptive = Vec::new();
        intersect_for_each(a, b, |x| adaptive.push(x));
        let mut merge = Vec::new();
        intersect_merge_for_each(a, b, &mut |x| merge.push(x));
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let mut gallop = Vec::new();
        intersect_gallop_for_each(small, large, &mut |x| gallop.push(x));
        let mut scratch = NeighborhoodScratch::new(1 << 12);
        scratch.load_bitset(a);
        let bitset = b
            .iter()
            .copied()
            .filter(|&x| scratch.bitset_contains(x))
            .collect();
        vec![adaptive, merge, gallop, bitset]
    }

    #[test]
    fn all_paths_agree_on_small_cases() {
        let cases: &[(&[VertexId], &[VertexId], &[VertexId])] = &[
            (&[], &[], &[]),
            (&[1], &[], &[]),
            (&[], &[1], &[]),
            (&[1], &[1], &[1]),
            (&[1, 2, 3], &[2, 3, 4], &[2, 3]),
            (&[0, 64, 128], &[64, 129], &[64]),
            (&[5], &[0, 1, 2, 3, 4, 5, 6, 7], &[5]),
        ];
        for (a, b, want) in cases {
            for (i, got) in collect_all_paths(a, b).into_iter().enumerate() {
                assert_eq!(&got[..], *want, "path {i} on {a:?} ∩ {b:?}");
            }
        }
    }

    #[test]
    fn gallop_triggers_on_skewed_degrees() {
        let small: Vec<VertexId> = vec![10, 500, 999];
        let large: Vec<VertexId> = (0..1000).collect();
        assert!(small.len() * GALLOP_RATIO <= large.len());
        assert_eq!(intersect_count(&small, &large), 3);
        let mut got = Vec::new();
        intersect_for_each(&large, &small, |x| got.push(x));
        assert_eq!(got, small, "order of arguments must not matter");
    }

    #[test]
    fn is_subset_both_paths() {
        // merge path (comparable lengths)
        assert!(is_subset(&[], &[]));
        assert!(is_subset(&[], &[1, 2]));
        assert!(is_subset(&[1, 2], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1, 2], &[1]));
        // gallop path (≥ 32× skew)
        let big: Vec<VertexId> = (0..1000).map(|i| i * 2).collect();
        assert!(is_subset(&[0, 998, 1998], &big));
        assert!(!is_subset(&[0, 999], &big));
        assert!(!is_subset(&[2000], &big[..1]));
    }

    #[test]
    fn scratch_marks_reset_by_epoch() {
        let mut s = NeighborhoodScratch::new(8);
        s.load_marks(&[1, 3, 5]);
        assert!(s.is_marked(3) && !s.is_marked(2));
        s.begin_marks();
        assert!(!s.is_marked(3), "new epoch unmarks everything");
        s.mark(2);
        assert!(s.is_marked(2));
    }

    #[test]
    fn bitset_reload_clears_previous_load() {
        let mut s = NeighborhoodScratch::new(256);
        s.load_bitset(&[0, 63, 64, 255]);
        assert!(s.bitset_contains(64) && !s.bitset_contains(1));
        s.load_bitset(&[1]);
        assert!(s.bitset_contains(1));
        for v in [0u32, 63, 64, 255] {
            assert!(!s.bitset_contains(v), "stale bit {v}");
        }
    }

    #[test]
    fn ensure_grows_capacity() {
        let mut s = NeighborhoodScratch::new(4);
        s.ensure(100);
        assert!(s.capacity() >= 100);
        s.load_bitset(&[99]);
        assert!(s.bitset_contains(99));
        s.ensure(50); // never shrinks
        assert!(s.capacity() >= 100);
    }
}
