//! Cluster-overlap evaluation (paper §IV-A, "Cluster overlap" and "Lost
//! and Found clusters").
//!
//! Original-network clusters are compared against filtered-network
//! clusters by **node overlap** and **edge overlap** (shared fraction of
//! the original cluster). Each filtered cluster is paired with its best
//! original match; the (AEES, overlap) plane is then cut into quadrants:
//!
//! * High AEES, high overlap → **true positive** (kept biology),
//! * Low AEES, high overlap → **false positive** (kept noise),
//! * High AEES, low overlap → **false negative** (meaningful but
//!   poorly-overlapping cluster — typically one *uncovered* by noise
//!   removal),
//! * Low AEES, low overlap → **true negative** (noise correctly absent).
//!
//! Sensitivity = TP/(TP+FN), specificity = TN/(TN+FP) (Fig. 8). Clusters
//! with *no* overlap at all are "lost" (original-only) or "found"
//! (filtered-only) — Fig. 5 bottom.

use casbn_mcode::Cluster;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Overlap of one filtered cluster with its best-matching original
/// cluster.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterComparison {
    /// Index into the filtered cluster list.
    pub filtered_idx: usize,
    /// Index of the best original match (`None` if no overlap with any
    /// original cluster — a "found" cluster).
    pub best_original: Option<usize>,
    /// Shared nodes / original cluster size (0 when unmatched).
    pub node_overlap: f64,
    /// Shared edges / original cluster edge count (0 when unmatched).
    pub edge_overlap: f64,
}

/// Quadrant classification of a cluster in the (AEES, overlap) plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Quadrant {
    /// High AEES, high overlap.
    TruePositive,
    /// Low AEES, high overlap.
    FalsePositive,
    /// High AEES, low overlap.
    FalseNegative,
    /// Low AEES, low overlap.
    TrueNegative,
}

/// Counts per quadrant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuadrantCounts {
    /// High AEES, high overlap.
    pub tp: usize,
    /// Low AEES, high overlap.
    pub fp: usize,
    /// High AEES, low overlap.
    pub fn_: usize,
    /// Low AEES, low overlap.
    pub tn: usize,
}

/// Sensitivity/specificity derived from quadrant counts (Fig. 8).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct SensitivitySpecificity {
    /// TP / (TP + FN).
    pub sensitivity: f64,
    /// TN / (TN + FP).
    pub specificity: f64,
}

/// Fraction of `of`'s nodes shared with `with`.
pub fn node_overlap(of: &Cluster, with: &Cluster) -> f64 {
    if of.vertices.is_empty() {
        return 0.0;
    }
    let set: BTreeSet<_> = with.vertices.iter().collect();
    let shared = of.vertices.iter().filter(|v| set.contains(v)).count();
    shared as f64 / of.vertices.len() as f64
}

/// Fraction of `of`'s edges shared with `with`.
pub fn edge_overlap(of: &Cluster, with: &Cluster) -> f64 {
    if of.edges.is_empty() {
        return 0.0;
    }
    let set: BTreeSet<_> = with.edges.iter().collect();
    let shared = of.edges.iter().filter(|e| set.contains(e)).count();
    shared as f64 / of.edges.len() as f64
}

/// Inverted index over the original clusters: for each key (a vertex, or
/// an exact edge tuple), the originals holding it, one entry per
/// occurrence. Entries are sorted by `(key, original)`, so a lookup is a
/// binary search and yields originals in ascending index order.
struct Postings<K> {
    entries: Vec<(K, usize)>,
}

impl<K: Ord + Copy> Postings<K> {
    fn new(original: &[Cluster], keys: fn(&Cluster) -> &[K]) -> Self {
        let mut entries: Vec<(K, usize)> = original
            .iter()
            .enumerate()
            .flat_map(|(oi, oc)| keys(oc).iter().map(move |&k| (k, oi)))
            .collect();
        entries.sort_unstable();
        Postings { entries }
    }

    /// The originals holding `key`, once per occurrence.
    fn get(&self, key: K) -> impl Iterator<Item = usize> + '_ {
        let lo = self.entries.partition_point(|&(k, _)| k < key);
        self.entries[lo..]
            .iter()
            .take_while(move |&&(k, _)| k == key)
            .map(|&(_, oi)| oi)
    }
}

/// `keys` sorted and deduplicated into `buf`, reusing its allocation.
fn distinct<'b, K: Ord + Copy>(buf: &'b mut Vec<K>, keys: &[K]) -> &'b [K] {
    buf.clear();
    buf.extend_from_slice(keys);
    buf.sort_unstable();
    buf.dedup();
    buf
}

/// `shared / len`, as [`node_overlap`] and [`edge_overlap`] compute it.
fn fraction(shared: usize, len: usize) -> f64 {
    if shared == 0 {
        0.0
    } else {
        shared as f64 / len as f64
    }
}

/// For every filtered cluster, find the original cluster with the highest
/// node overlap (ties: higher edge overlap, then lower index). Overlap
/// fractions are measured **relative to the original cluster**, matching
/// the paper's "% of original retained" reading.
///
/// Equal to [`node_overlap`]/[`edge_overlap`] over every pair, but built
/// on inverted indexes over the originals: one pass over a filtered
/// cluster's distinct vertices and edges counts what it shares with every
/// original it touches, so the cost follows the cluster members, not the
/// number of cluster pairs.
pub fn overlap_table(original: &[Cluster], filtered: &[Cluster]) -> Vec<ClusterComparison> {
    let nodes = Postings::new(original, |c| &c.vertices);
    let edges = Postings::new(original, |c| &c.edges);
    // (shared nodes, shared edges) per original, zero outside `touched`
    let mut shared = vec![(0usize, 0usize); original.len()];
    let mut touched: Vec<usize> = Vec::new();
    let (mut vbuf, mut ebuf) = (Vec::new(), Vec::new());
    filtered
        .iter()
        .enumerate()
        .map(|(fi, fc)| {
            for &v in distinct(&mut vbuf, &fc.vertices) {
                for oi in nodes.get(v) {
                    if shared[oi] == (0, 0) {
                        touched.push(oi);
                    }
                    shared[oi].0 += 1;
                }
            }
            for &e in distinct(&mut ebuf, &fc.edges) {
                for oi in edges.get(e) {
                    if shared[oi] == (0, 0) {
                        touched.push(oi);
                    }
                    shared[oi].1 += 1;
                }
            }
            // ascending order keeps ties on the lowest original index
            touched.sort_unstable();
            let mut best: Option<(usize, f64, f64)> = None;
            for oi in touched.drain(..) {
                let (sn, se) = std::mem::take(&mut shared[oi]);
                let no = fraction(sn, original[oi].vertices.len());
                let eo = fraction(se, original[oi].edges.len());
                if no == 0.0 && eo == 0.0 {
                    continue;
                }
                best = match best {
                    None => Some((oi, no, eo)),
                    Some((bi, bn, be)) => {
                        if no > bn || (no == bn && eo > be) {
                            Some((oi, no, eo))
                        } else {
                            Some((bi, bn, be))
                        }
                    }
                };
            }
            match best {
                Some((oi, no, eo)) => ClusterComparison {
                    filtered_idx: fi,
                    best_original: Some(oi),
                    node_overlap: no,
                    edge_overlap: eo,
                },
                None => ClusterComparison {
                    filtered_idx: fi,
                    best_original: None,
                    node_overlap: 0.0,
                    edge_overlap: 0.0,
                },
            }
        })
        .collect()
}

/// Classify clusters into quadrants. `aees[i]` is the AEES of filtered
/// cluster `i`; `overlaps[i]` the chosen overlap measure (node or edge).
/// Thresholds per the paper: AEES ≥ 3.0 is "high", overlap > 50 % is
/// "high".
pub fn classify_quadrants(
    aees: &[f64],
    overlaps: &[f64],
    aees_cut: f64,
    overlap_cut: f64,
) -> (Vec<Quadrant>, QuadrantCounts) {
    assert_eq!(aees.len(), overlaps.len());
    let mut counts = QuadrantCounts::default();
    let quads = aees
        .iter()
        .zip(overlaps)
        .map(|(&a, &o)| {
            let high_a = a >= aees_cut;
            let high_o = o > overlap_cut;
            match (high_a, high_o) {
                (true, true) => {
                    counts.tp += 1;
                    Quadrant::TruePositive
                }
                (false, true) => {
                    counts.fp += 1;
                    Quadrant::FalsePositive
                }
                (true, false) => {
                    counts.fn_ += 1;
                    Quadrant::FalseNegative
                }
                (false, false) => {
                    counts.tn += 1;
                    Quadrant::TrueNegative
                }
            }
        })
        .collect();
    (quads, counts)
}

impl QuadrantCounts {
    /// Sensitivity/specificity of these counts.
    pub fn rates(&self) -> SensitivitySpecificity {
        let sens_den = self.tp + self.fn_;
        let spec_den = self.tn + self.fp;
        SensitivitySpecificity {
            sensitivity: if sens_den == 0 {
                0.0
            } else {
                self.tp as f64 / sens_den as f64
            },
            specificity: if spec_den == 0 {
                0.0
            } else {
                self.tn as f64 / spec_den as f64
            },
        }
    }
}

/// Clusters appearing only on one side: `lost` = indices of original
/// clusters sharing no node with any filtered cluster; `found` = indices
/// of filtered clusters sharing no node with any original cluster.
///
/// Uses [`overlap_table`]'s vertex index over the originals, so the cost
/// follows the total number of cluster members.
pub fn lost_and_found(original: &[Cluster], filtered: &[Cluster]) -> (Vec<usize>, Vec<usize>) {
    let nodes = Postings::new(original, |c| &c.vertices);
    let mut kept = vec![false; original.len()];
    let mut found = Vec::new();
    for (fi, fc) in filtered.iter().enumerate() {
        let mut shares = false;
        for &v in &fc.vertices {
            for oi in nodes.get(v) {
                kept[oi] = true;
                shares = true;
            }
        }
        if !shares {
            found.push(fi);
        }
    }
    let lost = (0..original.len()).filter(|&oi| !kept[oi]).collect();
    (lost, found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbn_graph::VertexId;

    fn mk(verts: &[VertexId], edges: &[(VertexId, VertexId)]) -> Cluster {
        Cluster {
            vertices: verts.to_vec(),
            edges: edges.to_vec(),
            score: 0.0,
            seed: verts.first().copied().unwrap_or(0),
        }
    }

    #[test]
    fn identical_clusters_overlap_fully() {
        let c = mk(&[1, 2, 3], &[(1, 2), (2, 3)]);
        assert_eq!(node_overlap(&c, &c), 1.0);
        assert_eq!(edge_overlap(&c, &c), 1.0);
    }

    #[test]
    fn partial_overlap_fractions() {
        let orig = mk(&[1, 2, 3, 4], &[(1, 2), (2, 3), (3, 4)]);
        let filt = mk(&[1, 2, 9], &[(1, 2)]);
        assert!((node_overlap(&orig, &filt) - 0.5).abs() < 1e-12);
        assert!((edge_overlap(&orig, &filt) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_clusters_zero_overlap() {
        let a = mk(&[1, 2], &[(1, 2)]);
        let b = mk(&[3, 4], &[(3, 4)]);
        assert_eq!(node_overlap(&a, &b), 0.0);
        assert_eq!(edge_overlap(&a, &b), 0.0);
    }

    #[test]
    fn overlap_table_picks_best_match() {
        let originals = vec![
            mk(&[1, 2, 3], &[(1, 2), (2, 3)]),
            mk(&[10, 11, 12, 13], &[(10, 11), (11, 12), (12, 13)]),
        ];
        let filtered = vec![mk(&[10, 11, 12], &[(10, 11), (11, 12)])];
        let table = overlap_table(&originals, &filtered);
        assert_eq!(table.len(), 1);
        assert_eq!(table[0].best_original, Some(1));
        assert!((table[0].node_overlap - 0.75).abs() < 1e-12);
        assert!((table[0].edge_overlap - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unmatched_filtered_cluster_has_none() {
        let originals = vec![mk(&[1, 2, 3], &[(1, 2)])];
        let filtered = vec![mk(&[50, 51], &[(50, 51)])];
        let table = overlap_table(&originals, &filtered);
        assert_eq!(table[0].best_original, None);
        assert_eq!(table[0].node_overlap, 0.0);
    }

    #[test]
    fn quadrants_classify_all_four() {
        let aees = [5.0, 1.0, 4.0, 0.5];
        let over = [0.9, 0.8, 0.1, 0.2];
        let (quads, counts) = classify_quadrants(&aees, &over, 3.0, 0.5);
        assert_eq!(
            quads,
            vec![
                Quadrant::TruePositive,
                Quadrant::FalsePositive,
                Quadrant::FalseNegative,
                Quadrant::TrueNegative
            ]
        );
        assert_eq!(
            counts,
            QuadrantCounts {
                tp: 1,
                fp: 1,
                fn_: 1,
                tn: 1
            }
        );
        let rates = counts.rates();
        assert!((rates.sensitivity - 0.5).abs() < 1e-12);
        assert!((rates.specificity - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rates_handle_empty_denominators() {
        let counts = QuadrantCounts::default();
        let r = counts.rates();
        assert_eq!(r.sensitivity, 0.0);
        assert_eq!(r.specificity, 0.0);
    }

    #[test]
    fn perfect_filter_rates() {
        let counts = QuadrantCounts {
            tp: 10,
            fp: 0,
            fn_: 0,
            tn: 5,
        };
        let r = counts.rates();
        assert_eq!(r.sensitivity, 1.0);
        assert_eq!(r.specificity, 1.0);
    }

    #[test]
    fn lost_and_found_basic() {
        let originals = vec![
            mk(&[1, 2, 3], &[(1, 2)]),
            mk(&[20, 21], &[(20, 21)]), // will be lost
        ];
        let filtered = vec![
            mk(&[1, 2], &[(1, 2)]),
            mk(&[30, 31], &[(30, 31)]), // newly found
        ];
        let (lost, found) = lost_and_found(&originals, &filtered);
        assert_eq!(lost, vec![1]);
        assert_eq!(found, vec![1]);
    }

    #[test]
    fn no_lost_found_on_identical_sets() {
        let cs = vec![mk(&[1, 2, 3], &[(1, 2), (2, 3)])];
        let (lost, found) = lost_and_found(&cs, &cs);
        assert!(lost.is_empty());
        assert!(found.is_empty());
    }

    #[test]
    fn aees_boundary_is_inclusive_overlap_exclusive() {
        // AEES exactly at the cut counts as high (paper: "3.0 or higher");
        // overlap exactly 50% counts as low (paper: ">50%")
        let (quads, _) = classify_quadrants(&[3.0], &[0.5], 3.0, 0.5);
        assert_eq!(quads[0], Quadrant::FalseNegative);
    }
}
