//! Boundary differential test of the pruned Pearson kernel: on inputs
//! built to sit on the edges of its distance bound, `from_expression`
//! must equal the `from_expression_seq` oracle bit for bit at 1/2/4/8
//! worker threads.
//!
//! The inputs are duplicate rows (distance 0, ρ = 1), constant rows,
//! sign-flipped rows, rows holding NaN or ±inf, a row with a subnormal
//! variance (its `‖z‖²` is far from `n`, so it bypasses the grid) and a
//! row that overflows to NaN, over 0 to 40 samples and thresholds from
//! −1 to 1.5. Thresholds set to the exact bits of a computed ρ check
//! that a pair on the boundary survives the slack.
//!
//! A CRE-shaped input (about 3,000 genes × 9 samples of planted modules
//! plus noise) occupies thousands of grid cells, so every run of the
//! half-stencil, the grid's edges and the work-unit cuts are exercised.
//!
//! One `#[test]` only: the rayon thread override is process-global.

use casbn_expr::{
    pearson_p_value, CorrelationNetwork, DatasetPreset, ExpressionMatrix, NetworkParams,
    SyntheticMicroarray,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Rows per matrix: the special rows and modules, then noise.
const GENES: usize = 140;
/// The special rows come first; rows 6..9 have subnormal variances.
const SPECIAL: u32 = 13;
const SUBNORMAL: std::ops::Range<usize> = 6..9;

/// A genes × `samples` matrix of special rows, planted modules and noise.
fn boundary_matrix(samples: usize, seed: u64) -> ExpressionMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut noise = |scale: f64| -> Vec<f64> {
        (0..samples)
            .map(|_| rng.gen_range(-1.0..1.0) * scale)
            .collect()
    };
    let base = noise(1.0);
    let mut rows: Vec<Vec<f64>> = vec![
        base.clone(),
        base.clone(),                                 // exact duplicate
        base.iter().map(|x| 3.0 * x + 7.0).collect(), // affine duplicate
        base.iter().map(|x| -x).collect(),            // sign flip
        vec![5.0; samples],                           // constant
        vec![0.0; samples],                           // constant zero
        base.iter().map(|x| x * 1e-160).collect(),    // subnormal variance
        base.iter().map(|x| x * 3e-161).collect(),    // subnormal variance
        base.iter().map(|x| x * 7e-162).collect(),    // subnormal variance
        (0..samples)
            .map(|s| if s % 3 == 2 { -1.7e308 } else { 1.7e308 })
            .collect(), // overflows to a NaN row
    ];
    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut r = base.clone();
        if let Some(x) = r.first_mut() {
            *x = poison;
        }
        rows.push(r);
    }
    // modules: a profile plus noise of rising amplitude, so the members'
    // ρ spread across every threshold below
    for _ in 0..5 {
        let profile = noise(1.0);
        for amp in [0.02, 0.05, 0.1, 0.2, 0.3, 0.5] {
            let e = noise(amp);
            rows.push(profile.iter().zip(&e).map(|(p, e)| p + e).collect());
        }
    }
    while rows.len() < GENES {
        rows.push(noise(1.0));
    }
    ExpressionMatrix::from_rows(GENES, samples, rows.concat())
}

/// `(edge, ρ bits)` of a network, the bit-exact comparison key.
fn bits(net: &CorrelationNetwork) -> Vec<((u32, u32), u64)> {
    net.weights.iter().map(|&(e, r)| (e, r.to_bits())).collect()
}

/// Assert the kernel equals the oracle at every thread count.
fn check(m: &ExpressionMatrix, params: NetworkParams, what: &str) -> CorrelationNetwork {
    let oracle = CorrelationNetwork::from_expression_seq(m, params);
    for net in agree(m, params, &bits(&oracle), what) {
        assert!(net.graph.same_edges(&oracle.graph), "{what}");
    }
    oracle
}

/// Assert the kernel's `(edge, ρ bits)` equal `want` at 1/2/4/8
/// threads, and return the four networks.
fn agree(
    m: &ExpressionMatrix,
    params: NetworkParams,
    want: &[((u32, u32), u64)],
    what: &str,
) -> [CorrelationNetwork; 4] {
    let nets = [1, 2, 4, 8].map(|threads| {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let net = CorrelationNetwork::from_expression(m, params);
        assert_eq!(
            bits(&net),
            want,
            "{what} min_rho={:?} max_p={} at {threads} threads",
            params.min_rho,
            params.max_p
        );
        net
    });
    std::env::remove_var("RAYON_NUM_THREADS");
    nets
}

#[test]
fn pruned_kernel_equals_oracle_on_boundary_inputs() {
    cre_shaped();
    for samples in [0usize, 1, 2, 3, 9, 40] {
        let m = boundary_matrix(samples, 11 + samples as u64);
        let what = format!("samples={samples}");

        if samples >= 3 {
            // the subnormal-variance rows really lie outside the bound
            let z = m.standardized();
            let n = samples as f64;
            for g in SUBNORMAL {
                let norm2: f64 = z.row(g).iter().map(|x| x * x).sum();
                assert!((norm2 - n).abs() > 1e-9 * n, "{what}: ‖z{g}‖² = {norm2}");
            }
        }

        for min_rho in [-1.0, 0.0, 0.5, 0.95, 1.0, 1.5] {
            for max_p in [1.0, 0.05] {
                check(&m, NetworkParams { min_rho, max_p }, &what);
            }
        }

        // thresholds on the exact bits of computed ρ values: the pair
        // that produced each one must survive
        let wide = check(
            &m,
            NetworkParams {
                min_rho: 0.3,
                max_p: 1.0,
            },
            &what,
        );
        if samples >= 3 {
            assert!(
                SUBNORMAL
                    .chain([1])
                    .all(|g| wide.graph.has_edge(0, g as u32)),
                "{what}: duplicate and subnormal rows must connect to their source"
            );
            // every edge between special rows, and a spread of the others
            let step = (wide.weights.len() / 12).max(1);
            let boundary = wide
                .weights
                .iter()
                .enumerate()
                .filter(|(i, (e, _))| e.1 < SPECIAL || i % step == 0);
            for (_, &(edge, rho)) in boundary {
                let net = check(
                    &m,
                    NetworkParams {
                        min_rho: rho,
                        max_p: 1.0,
                    },
                    &format!("{what} boundary {edge:?}"),
                );
                assert!(
                    net.weights.iter().any(|&(e, r)| e == edge && r == rho),
                    "{what}: boundary pair {edge:?} at ρ = {rho:?} was pruned"
                );
            }
        }
    }
}

/// The CRE-shaped case: thresholds across the paper's range, with and
/// without the p-value test, then thresholds on the exact bits of
/// computed ρ. The oracle runs once, at the loosest thresholds: it
/// computes each pair's ρ independently of the thresholds, so its output
/// at stricter ones is that list filtered by the same predicate.
fn cre_shaped() {
    let arr = SyntheticMicroarray::generate(
        &DatasetPreset::Cre.scaled_params(0.11),
        DatasetPreset::Cre.seed(),
    );
    let m = &arr.matrix;
    assert_eq!((m.genes(), m.samples()), (3068, 9));
    let loosest = NetworkParams {
        min_rho: 0.5,
        max_p: 1.0,
    };
    let oracle = CorrelationNetwork::from_expression_seq(m, loosest);
    assert!(oracle.graph.m() > 10_000, "cre: {} edges", oracle.graph.m());
    let expect = |params: NetworkParams| -> Vec<((u32, u32), u64)> {
        oracle
            .weights
            .iter()
            .filter(|&&(_, r)| r >= params.min_rho && pearson_p_value(r, 9) <= params.max_p)
            .map(|&(e, r)| (e, r.to_bits()))
            .collect()
    };
    for min_rho in [0.5, 0.8, 0.95, 0.99] {
        for max_p in [5e-4, 1.0] {
            let params = NetworkParams { min_rho, max_p };
            agree(m, params, &expect(params), "cre");
        }
    }
    // boundary pairs spread over the ρ ≥ 0.9 network
    let tight: Vec<_> = oracle.weights.iter().filter(|&&(_, r)| r >= 0.9).collect();
    for &&(edge, rho) in tight.iter().step_by(tight.len() / 4) {
        let params = NetworkParams {
            min_rho: rho,
            max_p: 1.0,
        };
        let want = expect(params);
        assert!(want.contains(&(edge, rho.to_bits())), "{edge:?}");
        agree(m, params, &want, &format!("cre boundary {edge:?}"));
    }
}
