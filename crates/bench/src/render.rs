//! Text renderers for the figure data (what `casbn figures` prints).

use crate::figures::*;
use std::fmt::Write;

/// Render Fig. 3.
pub fn render_fig3(f: &Fig3) -> String {
    let mut s = String::new();
    writeln!(s, "== Figure 3: quadrant methodology ({}) ==", f.network).unwrap();
    writeln!(
        s,
        "points: {}   TP={} FP={} FN={} TN={}",
        f.points.len(),
        f.counts.tp,
        f.counts.fp,
        f.counts.fn_,
        f.counts.tn
    )
    .unwrap();
    s
}

/// Render Fig. 4 as a heat-table of AEES per cluster.
pub fn render_fig4(f: &Fig4) -> String {
    let mut s = String::new();
    writeln!(s, "== Figure 4: AEES per cluster, five variants ==").unwrap();
    for net in &f.networks {
        writeln!(s, "-- {} --", net.network).unwrap();
        write!(s, "{:>6}", "C#").unwrap();
        for c in &net.columns {
            write!(s, "{c:>8}").unwrap();
        }
        writeln!(s).unwrap();
        let rows = net.scores.iter().map(Vec::len).max().unwrap_or(0);
        for r in 0..rows {
            write!(s, "{:>6}", r + 1).unwrap();
            for col in &net.scores {
                match col.get(r) {
                    Some(v) => write!(s, "{v:>8.2}").unwrap(),
                    None => write!(s, "{:>8}", "-").unwrap(),
                }
            }
            writeln!(s).unwrap();
        }
    }
    s
}

/// Render Fig. 5.
pub fn render_fig5(f: &Fig5) -> String {
    let mut s = String::new();
    writeln!(s, "== Figure 5: node/edge overlap, original vs sampled ==").unwrap();
    for net in &f.networks {
        writeln!(
            s,
            "-- {}: {} matched clusters, {} newly discovered --",
            net.network,
            net.matched.len(),
            net.found.len()
        )
        .unwrap();
        writeln!(
            s,
            "{:>5} {:>8} {:>8} {:>8}",
            "ord", "node%", "edge%", "AEES"
        )
        .unwrap();
        for p in &net.matched {
            writeln!(
                s,
                "{:>5} {:>8.1} {:>8.1} {:>8.2}",
                p.ordering,
                100.0 * p.node_overlap,
                100.0 * p.edge_overlap,
                p.aees
            )
            .unwrap();
        }
        if !net.found.is_empty() {
            writeln!(s, "newly discovered (no original match):").unwrap();
            for p in &net.found {
                writeln!(s, "{:>5} AEES={:>6.2}", p.ordering, p.aees).unwrap();
            }
        }
    }
    s
}

/// Render Figs. 6/7 (same sweep, two projections).
pub fn render_fig67(f: &Fig67) -> String {
    let mut s = String::new();
    writeln!(s, "== Figures 6 & 7: overlap vs AEES, all networks ==").unwrap();
    for (net, pts) in &f.points {
        writeln!(s, "-- {net} ({} points) --", pts.len()).unwrap();
        writeln!(
            s,
            "{:>5} {:>8} {:>10} {:>10}",
            "ord", "AEES", "node-ovl", "edge-ovl"
        )
        .unwrap();
        for p in pts {
            writeln!(
                s,
                "{:>5} {:>8.2} {:>10.2} {:>10.2}",
                p.ordering, p.aees, p.node_overlap, p.edge_overlap
            )
            .unwrap();
        }
    }
    s
}

/// Render Fig. 8.
pub fn render_fig8(f: &Fig8) -> String {
    let mut s = String::new();
    writeln!(s, "== Figure 8: sensitivity / specificity ==").unwrap();
    writeln!(
        s,
        "node overlap: TP={} FP={} FN={} TN={}  sens={:.1}% spec={:.1}%",
        f.node_counts.tp,
        f.node_counts.fp,
        f.node_counts.fn_,
        f.node_counts.tn,
        100.0 * f.node_rates.0,
        100.0 * f.node_rates.1
    )
    .unwrap();
    writeln!(
        s,
        "edge overlap: TP={} FP={} FN={} TN={}  sens={:.1}% spec={:.1}%",
        f.edge_counts.tp,
        f.edge_counts.fp,
        f.edge_counts.fn_,
        f.edge_counts.tn,
        100.0 * f.edge_rates.0,
        100.0 * f.edge_rates.1
    )
    .unwrap();
    s
}

/// Render Fig. 9.
pub fn render_fig9(f: &Option<Fig9>) -> String {
    let mut s = String::new();
    writeln!(s, "== Figure 9: cluster rescued by filtering (UNT, HD) ==").unwrap();
    match f {
        None => writeln!(s, "no rescued cluster found at this scale").unwrap(),
        Some(f) => {
            writeln!(
                s,
                "original: size={} AEES={:.2}   filtered: size={} AEES={:.2}",
                f.orig_size, f.orig_aees, f.filt_size, f.filt_aees
            )
            .unwrap();
            writeln!(
                s,
                "overlap: node {:.1}% edge {:.1}%   improvement {:+.2} (paper: 2.33 → 4.17, +1.84)",
                100.0 * f.node_overlap,
                100.0 * f.edge_overlap,
                f.improvement
            )
            .unwrap();
            writeln!(s, "dominant GO term depth: {}", f.dominant_depth).unwrap();
        }
    }
    s
}

/// Render Fig. 10.
pub fn render_fig10(f: &Fig10) -> String {
    let mut s = String::new();
    writeln!(s, "== Figure 10: scalability (simulated milliseconds) ==").unwrap();
    for (net, series) in &f.networks {
        writeln!(s, "-- {net} --").unwrap();
        write!(s, "{:>16}", "P").unwrap();
        for &p in &f.procs {
            write!(s, "{p:>11}").unwrap();
        }
        writeln!(s).unwrap();
        for alg in series {
            write!(s, "{:>16}", alg.algorithm).unwrap();
            for &(_, sim, _, _) in &alg.points {
                write!(s, "{:>11.4}", sim * 1e3).unwrap();
            }
            writeln!(s).unwrap();
        }
        write!(s, "{:>16}", "(messages)").unwrap();
        for &(_, _, _, m) in &series[0].points {
            write!(s, "{m:>11}").unwrap();
        }
        writeln!(s, "   <- chordal-comm").unwrap();
    }
    s
}

/// Render Fig. 11.
pub fn render_fig11(f: &Fig11) -> String {
    let mut s = String::new();
    writeln!(s, "== Figure 11: 1P vs 64P (CRE, Natural Order) ==").unwrap();
    let (orig, p1, p64) = f.edges;
    writeln!(s, "edges: ORIG={orig} 1P={p1} 64P={p64}").unwrap();
    for (label, pts) in [("1P", &f.p1), ("64P", &f.p64)] {
        writeln!(s, "-- {label}: {} matched clusters --", pts.len()).unwrap();
        for p in pts {
            writeln!(
                s,
                "   node {:>6.1}%  edge {:>6.1}%  AEES {:>6.2}",
                100.0 * p.node_overlap,
                100.0 * p.edge_overlap,
                p.aees
            )
            .unwrap();
        }
    }
    writeln!(s, "-- top clusters (AEES > 3.0) --").unwrap();
    writeln!(
        s,
        "{:>6} {:>6} {:>10} {:>10}",
        "var", "size", "avg-depth", "max-score"
    )
    .unwrap();
    for t in &f.top {
        writeln!(
            s,
            "{:>6} {:>6} {:>10.2} {:>10}",
            t.variant, t.size, t.aees, t.max_depth
        )
        .unwrap();
    }
    s
}

/// Render the in-text statistics.
pub fn render_text_stats(t: &TextStats) -> String {
    let mut s = String::new();
    writeln!(s, "== In-text results ==").unwrap();
    writeln!(
        s,
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "net", "V", "E", "chordal", "rw-edges", "origCl", "chorCl", "rwCl"
    )
    .unwrap();
    for (name, &(v, e)) in &t.network_sizes {
        let ch = t.chordal_sizes[name].values().copied().sum::<usize>() as f64
            / t.chordal_sizes[name].len().max(1) as f64;
        writeln!(
            s,
            "{:>5} {:>9} {:>9} {:>9.0} {:>9} {:>9} {:>9} {:>9}",
            name,
            v,
            e,
            ch,
            t.randomwalk_sizes[name],
            t.original_clusters[name],
            t.chordal_clusters[name],
            t.randomwalk_clusters[name]
        )
        .unwrap();
    }
    writeln!(s, "duplicate border edges at 64P (dups / borders):").unwrap();
    for (name, &(d, b)) in &t.duplicates_at_64p {
        writeln!(s, "  {name}: {d} / {b}").unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbn_analysis::QuadrantCounts;

    #[test]
    fn render_fig3_contains_counts() {
        let f = Fig3 {
            network: "UNT".into(),
            points: vec![(4.0, 0.9)],
            counts: QuadrantCounts {
                tp: 1,
                fp: 0,
                fn_: 0,
                tn: 0,
            },
        };
        let s = render_fig3(&f);
        assert!(s.contains("TP=1"));
        assert!(s.contains("UNT"));
    }

    #[test]
    fn render_fig10_lists_all_procs() {
        let f = Fig10 {
            networks: [(
                "YNG".to_string(),
                vec![ScalabilitySeries {
                    algorithm: "chordal-comm".into(),
                    points: vec![(1, 0.5, 1.0, 0), (2, 0.3, 0.8, 2)],
                }],
            )]
            .into_iter()
            .collect(),
            procs: vec![1, 2],
        };
        let s = render_fig10(&f);
        assert!(s.contains("chordal-comm"));
        assert!(s.contains("500.0000"), "sim seconds rendered as ms");
    }

    #[test]
    fn render_fig9_handles_none() {
        assert!(render_fig9(&None).contains("no rescued cluster"));
    }
}
