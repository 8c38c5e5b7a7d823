//! Property test: `overlap_table` and `lost_and_found` (inverted-index
//! versions) equal a brute-force reference that calls `node_overlap` and
//! `edge_overlap` on every original × filtered pair, with every `f64`
//! compared bit for bit.

use casbn_analysis::{edge_overlap, lost_and_found, node_overlap, overlap_table};
use casbn_graph::VertexId;
use casbn_mcode::Cluster;
use proptest::prelude::*;

/// The all-pairs scan: best node overlap, then edge overlap, then the
/// lowest original index; pairs sharing nothing are skipped.
fn reference_table(original: &[Cluster], filtered: &[Cluster]) -> Vec<(Option<usize>, u64, u64)> {
    filtered
        .iter()
        .map(|fc| {
            let mut best: Option<(usize, f64, f64)> = None;
            for (oi, oc) in original.iter().enumerate() {
                let no = node_overlap(oc, fc);
                let eo = edge_overlap(oc, fc);
                if no == 0.0 && eo == 0.0 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, bn, be)) => no > bn || (no == bn && eo > be),
                };
                if better {
                    best = Some((oi, no, eo));
                }
            }
            match best {
                Some((oi, no, eo)) => (Some(oi), no.to_bits(), eo.to_bits()),
                None => (None, 0.0f64.to_bits(), 0.0f64.to_bits()),
            }
        })
        .collect()
}

fn reference_lost_and_found(
    original: &[Cluster],
    filtered: &[Cluster],
) -> (Vec<usize>, Vec<usize>) {
    let lost = (0..original.len())
        .filter(|&oi| {
            filtered
                .iter()
                .all(|fc| node_overlap(&original[oi], fc) == 0.0)
        })
        .collect();
    let found = (0..filtered.len())
        .filter(|&fi| {
            original
                .iter()
                .all(|oc| node_overlap(oc, &filtered[fi]) == 0.0)
        })
        .collect();
    (lost, found)
}

fn check(original: &[Cluster], filtered: &[Cluster]) {
    let got: Vec<(Option<usize>, u64, u64)> = overlap_table(original, filtered)
        .iter()
        .enumerate()
        .map(|(fi, c)| {
            assert_eq!(c.filtered_idx, fi);
            (
                c.best_original,
                c.node_overlap.to_bits(),
                c.edge_overlap.to_bits(),
            )
        })
        .collect();
    assert_eq!(got, reference_table(original, filtered));
    assert_eq!(
        lost_and_found(original, filtered),
        reference_lost_and_found(original, filtered)
    );
}

fn mk(vertices: Vec<VertexId>, edges: Vec<(VertexId, VertexId)>) -> Cluster {
    Cluster {
        seed: vertices.first().copied().unwrap_or(0),
        vertices,
        edges,
        score: 0.0,
    }
}

/// A cluster over a small id range, so clusters overlap often. Vertices
/// and edges may repeat (in both orientations), may be empty, and edge
/// endpoints are drawn from a wider range than the members, so some
/// edges leave the cluster.
fn arb_cluster() -> impl Strategy<Value = Cluster> {
    (
        collection::vec(0u32..12, 0..8),
        collection::vec((0u32..14, 0u32..14), 0..8),
    )
        .prop_map(|(vertices, edges)| mk(vertices, edges))
}

/// Originals and filtered clusters; when the flag is set the originals
/// are listed twice, so several tie for every best match.
fn arb_case() -> impl Strategy<Value = (Vec<Cluster>, Vec<Cluster>)> {
    (
        collection::vec(arb_cluster(), 0..7),
        collection::vec(arb_cluster(), 0..7),
        0u8..2,
    )
        .prop_map(|(mut original, filtered, twice)| {
            if twice == 1 {
                original.extend(original.clone());
            }
            (original, filtered)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn indexed_overlap_equals_all_pairs_reference(case in arb_case()) {
        let (original, filtered) = case;
        check(&original, &filtered);
        check(&filtered, &original);
    }
}

#[test]
fn empty_lists_and_empty_clusters() {
    let c = mk(vec![1, 2], vec![(1, 2)]);
    let empty = mk(vec![], vec![]);
    let both = [empty.clone(), c.clone()];
    check(&[], &[]);
    check(&[], &both);
    check(&both, &[]);
    check(&both, &both);
    let (lone, lone_too) = ([empty.clone()], [empty]);
    check(&lone, &lone_too);
    // an empty cluster shares no node with anything: lost and found
    assert_eq!(lost_and_found(&lone, &lone_too), (vec![0], vec![0]));
}

#[test]
fn ties_go_to_the_lowest_original() {
    let a = mk(vec![1, 2, 3, 4], vec![(1, 2), (3, 4)]);
    let b = mk(vec![3, 4, 5, 6], vec![(3, 4), (5, 6)]);
    let original = [b.clone(), a, b];
    let filtered = [mk(vec![1, 2, 3, 4, 5, 6], vec![(1, 2), (3, 4), (5, 6)])];
    // three originals match equally well; the first listed wins
    assert_eq!(
        overlap_table(&original, &filtered)[0].best_original,
        Some(0)
    );
    check(&original, &filtered);
}

#[test]
fn duplicates_and_dangling_edges() {
    // duplicate members count per occurrence on the original side only;
    // an edge whose endpoints are not members still matches exactly
    let original = [mk(vec![1, 1, 2, 9], vec![(7, 8), (7, 8), (2, 1)])];
    let filtered = [mk(vec![1, 1, 5], vec![(7, 8), (1, 2), (7, 8)])];
    let table = overlap_table(&original, &filtered);
    assert_eq!(table[0].node_overlap, 0.5);
    assert_eq!(table[0].edge_overlap, 2.0 / 3.0);
    check(&original, &filtered);
    // an edge-only match still names its original
    let edge_only = [mk(vec![30], vec![(7, 8)])];
    assert_eq!(
        overlap_table(&original, &edge_only)[0].best_original,
        Some(0)
    );
    check(&original, &edge_only);
}
