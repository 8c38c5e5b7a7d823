//! Property-based tests for the chordal machinery.

use casbn_chordal::{check_peo, is_chordal, maximal_chordal_subgraph, repair_maximal};
use casbn_graph::{Graph, VertexId};
use proptest::prelude::*;

/// Strategy: a random graph with up to `nmax` vertices and arbitrary edges.
fn arb_graph(nmax: usize) -> impl Strategy<Value = Graph> {
    (2..nmax).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..=max_edges.min(80))
            .prop_map(move |pairs| Graph::from_edges(n, &pairs))
    })
}

/// Fulkerson–Gross recognition, an oracle independent of MCS: a graph is
/// chordal iff repeatedly deleting simplicial vertices (those whose live
/// neighbours form a clique) deletes every vertex.
fn chordal_by_simplicial_elimination(g: &Graph) -> bool {
    let mut alive = vec![true; g.n()];
    for _ in 0..g.n() {
        let simplicial = (0..g.n() as VertexId)
            .filter(|&v| alive[v as usize])
            .find(|&v| {
                let nb: Vec<VertexId> = g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| alive[w as usize])
                    .collect();
                nb.iter()
                    .enumerate()
                    .all(|(i, &a)| nb[i + 1..].iter().all(|&b| g.has_edge(a, b)))
            });
        match simplicial {
            Some(v) => alive[v as usize] = false,
            None => return false,
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dsw_output_is_chordal_subgraph(g in arb_graph(24)) {
        let r = maximal_chordal_subgraph(&g);
        prop_assert!(is_chordal(&r.graph));
        prop_assert_eq!(r.graph.n(), g.n());
        for (u, v) in r.graph.edges() {
            prop_assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn dsw_order_reversed_is_peo(g in arb_graph(20)) {
        let r = maximal_chordal_subgraph(&g);
        let mut peo = r.order.clone();
        peo.reverse();
        prop_assert!(check_peo(&r.graph, &peo));
    }

    #[test]
    fn chordal_graphs_are_fixed_points_after_repair(g in arb_graph(16)) {
        // repair_maximal on (g, dsw(g)) must be maximal: no absent edge can
        // be added back
        let r = maximal_chordal_subgraph(&g);
        let fixed = repair_maximal(&g, &r.graph);
        prop_assert!(is_chordal(&fixed));
        for (u, v) in g.edges() {
            if !fixed.has_edge(u, v) {
                let mut t = fixed.clone();
                t.add_edge(u, v);
                prop_assert!(!is_chordal(&t));
            }
        }
    }

    #[test]
    fn is_chordal_agrees_with_triangle_free_cycles(n in 4usize..20) {
        // chordless cycles are the canonical non-chordal family
        let edges: Vec<_> = (0..n).map(|i| (i as VertexId, ((i + 1) % n) as VertexId)).collect();
        let g = Graph::from_edges(n, &edges);
        prop_assert!(!is_chordal(&g));
    }

    #[test]
    fn is_chordal_agrees_with_simplicial_elimination(g in arb_graph(16)) {
        prop_assert_eq!(is_chordal(&g), chordal_by_simplicial_elimination(&g));
        let r = maximal_chordal_subgraph(&g);
        prop_assert!(chordal_by_simplicial_elimination(&r.graph));
    }

    #[test]
    fn adding_edges_to_dsw_result_never_needed_for_chordality(g in arb_graph(14)) {
        // i.e., result of DSW is chordal even before repair
        let r = maximal_chordal_subgraph(&g);
        prop_assert!(is_chordal(&r.graph));
    }

    #[test]
    fn dsw_under_concurrent_threads_is_chordal_and_deterministic(
        g in arb_graph(20),
        nthreads in 1usize..6,
    ) {
        // the parallel filters run one DSW per rank on real OS threads —
        // the extraction must be thread-safe and give every thread the
        // identical result (proptest draws the thread count)
        let base = maximal_chordal_subgraph(&g);
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nthreads)
                .map(|_| scope.spawn(|| maximal_chordal_subgraph(&g)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("DSW thread panicked")).collect()
        });
        for r in &results {
            prop_assert!(is_chordal(&r.graph), "threaded DSW output not chordal");
            prop_assert!(r.graph.same_edges(&base.graph), "threaded DSW diverged");
            prop_assert_eq!(&r.order, &base.order, "threaded DSW order diverged");
            for (u, v) in r.graph.edges() {
                prop_assert!(g.has_edge(u, v), "threaded DSW invented edge ({u},{v})");
            }
        }
    }
}
