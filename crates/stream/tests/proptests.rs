//! Property tests of the online-correlation accumulator: for *any*
//! partition of a sample stream into batches, the accumulator agrees
//! with the batch pipeline — edge sets exactly at the ρ cut, co-moments
//! to ≤ 1e-12 relative error against the two-pass computation.

use casbn_expr::{CorrelationNetwork, NetworkParams, SyntheticMicroarray, SyntheticParams};
use casbn_graph::Graph;
use casbn_stream::OnlineCorrelation;
use proptest::prelude::*;

/// Turn a vector of draw values into batch cut points over `samples`.
fn cuts_from(raw: &[usize], samples: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = raw.iter().map(|&c| c % (samples + 1)).collect();
    cuts.push(0);
    cuts.push(samples);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Two-pass covariance `Σ (xᵢ−μᵢ)(xⱼ−μⱼ)` straight from the matrix.
fn two_pass_comoment(m: &casbn_expr::ExpressionMatrix, i: usize, j: usize) -> f64 {
    let s = m.samples() as f64;
    let (ri, rj) = (m.row(i), m.row(j));
    let mi = ri.iter().sum::<f64>() / s;
    let mj = rj.iter().sum::<f64>() / s;
    ri.iter()
        .zip(rj)
        .map(|(&a, &b)| (a - mi) * (b - mj))
        .sum::<f64>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_batch_partition_agrees_with_batch_network(
        seed in 0u64..10_000,
        genes in 20usize..60,
        samples in 6usize..24,
        raw_cuts in proptest::collection::vec(0usize..64, 0..6),
    ) {
        let arr = SyntheticMicroarray::generate(
            &SyntheticParams {
                genes,
                samples,
                modules: 2,
                module_size: 6,
                loading_sq: 0.93,
            },
            seed,
        );
        // a threshold loose enough that edges appear *and* churn
        let params = NetworkParams { min_rho: 0.8, max_p: 0.05 };

        let mut oc = OnlineCorrelation::new(genes, params);
        let mut mirror = Graph::new(genes);
        let cuts = cuts_from(&raw_cuts, samples);
        for w in cuts.windows(2) {
            let delta = oc.ingest(&arr.matrix.columns(w[0], w[1]));
            // deltas must be consistent state transitions
            for &(u, v) in &delta.removes {
                prop_assert!(mirror.remove_edge(u, v));
            }
            for &(u, v) in &delta.inserts {
                prop_assert!(mirror.add_edge(u, v));
            }
        }
        prop_assert_eq!(oc.samples(), samples);

        // edge set agrees with the batch network exactly at the ρ cut
        let batch = CorrelationNetwork::from_expression_seq(&arr.matrix, params);
        prop_assert!(
            oc.network().same_edges(&batch.graph),
            "online {} edges vs batch {}",
            oc.network().m(),
            batch.graph.m()
        );
        prop_assert!(mirror.same_edges(&batch.graph));

        // co-moments within 1e-12 relative of the two-pass values
        for i in 0..genes {
            for j in (i + 1)..genes {
                let direct = two_pass_comoment(&arr.matrix, i, j);
                let online = oc.co_moment(i, j);
                let tol = 1e-12 * direct.abs().max(1.0);
                prop_assert!(
                    (online - direct).abs() <= tol,
                    "C({},{}) online {} vs two-pass {}",
                    i, j, online, direct
                );
            }
        }
    }

    #[test]
    fn two_partitions_reach_bit_identical_state(
        seed in 0u64..10_000,
        genes in 10usize..40,
        samples in 4usize..16,
        raw_a in proptest::collection::vec(0usize..32, 0..5),
        raw_b in proptest::collection::vec(0usize..32, 0..5),
    ) {
        let arr = SyntheticMicroarray::generate(
            &SyntheticParams {
                genes,
                samples,
                modules: 1,
                module_size: 5,
                loading_sq: 0.9,
            },
            seed,
        );
        let params = NetworkParams::default();
        let run = |raw: &[usize]| {
            let mut oc = OnlineCorrelation::new(genes, params);
            for w in cuts_from(raw, samples).windows(2) {
                oc.ingest(&arr.matrix.columns(w[0], w[1]));
            }
            oc
        };
        let a = run(&raw_a);
        let b = run(&raw_b);
        for g in 0..genes {
            prop_assert_eq!(a.mean(g).to_bits(), b.mean(g).to_bits());
            prop_assert_eq!(a.m2(g).to_bits(), b.m2(g).to_bits());
        }
        for i in 0..genes {
            for j in (i + 1)..genes {
                prop_assert_eq!(
                    a.co_moment(i, j).to_bits(),
                    b.co_moment(i, j).to_bits(),
                    "C({},{})", i, j
                );
            }
        }
        prop_assert!(a.network().same_edges(b.network()));
    }
}
