//! Property tests for the neighbourhood kernels: every intersection path
//! (adaptive dispatch, pinned linear merge, pinned galloping, bitset
//! probes) must agree with a `BTreeSet` oracle on the count and the
//! visitation order — for random graphs × random vertex pairs and for
//! raw sorted lists including the empty/singleton edge cases.

use casbn_graph::generators::gnm;
use casbn_graph::nbhood;
use casbn_graph::{NeighborhoodScratch, VertexId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The oracle: ascending common elements via `BTreeSet` intersection.
fn oracle(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let sa: BTreeSet<VertexId> = a.iter().copied().collect();
    let sb: BTreeSet<VertexId> = b.iter().copied().collect();
    sa.intersection(&sb).copied().collect()
}

/// Collect every path's output for `a ∩ b`.
fn all_paths(a: &[VertexId], b: &[VertexId], n: usize) -> Vec<(&'static str, Vec<VertexId>)> {
    let mut adaptive = Vec::new();
    nbhood::intersect_for_each(a, b, |x| adaptive.push(x));
    let mut merge = Vec::new();
    nbhood::intersect_merge_for_each(a, b, &mut |x| merge.push(x));
    // galloping requires (small, large) orientation
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut gallop = Vec::new();
    nbhood::intersect_gallop_for_each(small, large, &mut |x| gallop.push(x));
    let mut scratch = NeighborhoodScratch::new(n);
    scratch.load_bitset(a);
    let bitset = b
        .iter()
        .copied()
        .filter(|&x| scratch.bitset_contains(x))
        .collect();
    vec![
        ("adaptive", adaptive),
        ("merge", merge),
        ("gallop", gallop),
        ("bitset", bitset),
    ]
}

/// Strategy: a sorted, duplicate-free id list over `0..n`.
fn arb_sorted_list(n: VertexId, max_len: usize) -> impl Strategy<Value = Vec<VertexId>> {
    proptest::collection::vec(0..n, 0..=max_len).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn all_paths_agree_with_oracle_on_lists(
        a in arb_sorted_list(512, 40),
        b in arb_sorted_list(512, 40),
    ) {
        let want = oracle(&a, &b);
        for (name, got) in all_paths(&a, &b, 512) {
            prop_assert_eq!(&got, &want, "path {} diverged", name);
        }
        prop_assert_eq!(nbhood::intersect_count(&a, &b), want.len());
        // subset predicate agrees with the oracle, both orientations
        prop_assert_eq!(nbhood::is_subset(&a, &b), want.len() == a.len());
        prop_assert_eq!(nbhood::is_subset(&b, &a), want.len() == b.len());
    }

    #[test]
    fn all_paths_agree_on_skewed_lists(
        small in arb_sorted_list(2048, 4),
        large in arb_sorted_list(2048, 600),
    ) {
        // degree skew ≥ 32× exercises the galloping dispatch arm of the
        // adaptive path against the same oracle
        let want = oracle(&small, &large);
        for (name, got) in all_paths(&small, &large, 2048) {
            prop_assert_eq!(&got, &want, "path {} diverged", name);
        }
    }

    #[test]
    fn neighbor_lists_match_oracle_on_random_graphs(
        seed in 0u64..512,
        n in 2usize..60,
        u in 0u32..60,
        v in 0u32..60,
    ) {
        let m = (n * 3).min(n * (n - 1) / 2);
        let g = gnm(n, m, seed);
        let (u, v) = (u % n as VertexId, v % n as VertexId);
        let (a, b) = (g.neighbors(u), g.neighbors(v));
        let want = oracle(a, b);
        for (name, got) in all_paths(a, b, n) {
            prop_assert_eq!(&got, &want, "path {} diverged", name);
        }
        prop_assert_eq!(nbhood::intersect_count(a, b), want.len());
        // every common neighbour closes a triangle over the edge set
        for &w in &want {
            prop_assert!(g.has_edge(u, w) && g.has_edge(v, w));
        }
    }
}

#[test]
fn empty_and_singleton_lists() {
    let cases: &[(&[VertexId], &[VertexId])] = &[
        (&[], &[]),
        (&[], &[3]),
        (&[3], &[]),
        (&[3], &[3]),
        (&[3], &[4]),
        (&[0], &[0, 1, 2, 3]),
        (&[63], &[63, 64]),
        (&[64], &[63, 64]),
    ];
    for &(a, b) in cases {
        let want = oracle(a, b);
        for (name, got) in all_paths(a, b, 128) {
            assert_eq!(got, want, "path {name} on {a:?} ∩ {b:?}");
        }
    }
}
