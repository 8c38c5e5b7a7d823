//! All-pairs Pearson correlation with significance thresholding — the
//! correlation-network construction of §IV-A.
//!
//! [`CorrelationNetwork::from_expression`] keeps exactly the pairs that
//! the plain double loop of [`CorrelationNetwork::from_expression_seq`]
//! keeps, with bit-identical ρ, but it computes ρ for only a small
//! candidate set (about 0.1% of all pairs at the paper's thresholds).
//! The pruning follows the bound-then-verify scheme of Bayardo, Ma &
//! Srikant, "Scaling Up All Pairs Similarity Search" (WWW 2007).
//!
//! **Distance bound.** A standardized row `z` over `n` samples has
//! `‖z‖² = n`, and `ρᵢⱼ = zᵢ·zⱼ / n`. Hence
//! `‖zᵢ − zⱼ‖² = 2n(1 − ρᵢⱼ)`, so `ρ ≥ t` implies
//! `‖zᵢ − zⱼ‖ ≤ r = √(2n(1 − t))`. An orthonormal projection `P` never
//! lengthens a vector, so every edge also has `‖P(zᵢ − zⱼ)‖ ≤ r`.
//!
//! **Basis.** `P` projects onto the DCT-II directions
//! `cₖ[s] = √(2/n)·cos(πk(2s + 1)/2n)` for `k = 1..K`, with
//! `K = min(6, n − 1)`. They are orthonormal and orthogonal to the
//! constant vector, which standardization has already removed. The basis
//! is fixed: no random state and nothing to tune.
//!
//! **Candidates.** Genes are bucketed into a 3-D grid on their first
//! three projected coordinates, with cell side `r`. The endpoints of an
//! edge therefore lie in the same or in adjacent cells. Each cell meets
//! itself and its 13 forward neighbours: that half-stencil of 14 cells
//! reaches every pair of adjacent cells exactly once. A candidate pair
//! is scored only if its full `K`-dimensional projected distance is
//! within `r`.
//!
//! **Slack.** Floating point perturbs each step of that chain: the
//! computed ρ, `‖z‖²`, the basis, the projections and the cell
//! coordinates. Each error is a small multiple of `ε = (n + 8)·2⁻⁵²`
//! relative to `n`. The squared radius is therefore widened by
//! `2n·(10⁻⁶ + 1024ε)`, orders of magnitude more than those errors, so
//! no pair the reference keeps is ever pruned. This includes a pair
//! whose ρ equals `min_rho` to the bit. The bound needs `‖z‖² ≈ n`. A
//! row whose computed `‖z‖²` is neither within `64ε·n` of `n` nor
//! exactly zero, such as one with a subnormal variance or one that
//! overflowed to NaN, bypasses the grid and is scored against every
//! other row.
//!
//! **Bit-identity.** Survivors are scored by `rho_of`, the dot product
//! the reference uses, over the same samples in the same order, and
//! pass the same `min_rho` and p-value tests. So ρ is bit-identical, and
//! one sort of the few kept edges restores canonical order.

use crate::matrix::{standardize_row, ExpressionMatrix};
use casbn_graph::{Edge, Graph};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Thresholds for network construction. Defaults are the paper's:
/// `0.95 ≤ ρ ≤ 1.00`, `p ≤ 0.0005`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NetworkParams {
    /// Minimum Pearson correlation (positive correlations only, as in the
    /// paper's final networks).
    pub min_rho: f64,
    /// Maximum two-sided p-value of the correlation t-test.
    pub max_p: f64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams {
            min_rho: 0.95,
            max_p: 0.0005,
        }
    }
}

/// A thresholded correlation network: the graph plus each retained edge's
/// correlation coefficient.
#[derive(Clone, Debug)]
pub struct CorrelationNetwork {
    /// The network (vertex = gene index in the expression matrix).
    pub graph: Graph,
    /// `(edge, ρ)` for every retained edge, canonical edge order.
    pub weights: Vec<(Edge, f64)>,
}

/// Projected dimensions `K` before clipping to `samples − 1`.
const PROJ_DIMS: usize = 6;
/// Bits of one grid coordinate in a packed cell key (three per key).
const CELL_BITS: u32 = 20;
/// Largest grid coordinate; coordinates are clamped into `0..=CELL_MAX`.
const CELL_MAX: u64 = (1 << CELL_BITS) - 1;
/// Sort key of a row that bypasses the grid: after every cell.
const UNBOUNDED: u64 = u64::MAX;
/// Parallel work units, cut to equal candidate-check work. The rayon
/// shim hands each thread a contiguous run of units, so equal units keep
/// the threads equally busy at any thread count.
const WORK_UNITS: usize = 1024;

/// A row's coordinates on the `K` DCT directions (zero past `K`).
type Proj = [f64; PROJ_DIMS];

/// `ρ` of the standardized rows `i` and `j` — the **single** dot-product
/// expression shared by the sequential and pruned paths, so both produce
/// bit-identical coefficients.
#[inline]
fn rho_of(z: &ExpressionMatrix, i: usize, j: usize, inv: f64) -> f64 {
    z.row(i)
        .iter()
        .zip(z.row(j))
        .map(|(a, b)| a * b)
        .sum::<f64>()
        * inv
}

/// The DCT-II directions `1..=K` as one `Proj` of coefficients per sample.
fn dct_basis(samples: usize) -> Vec<Proj> {
    let n = samples as f64;
    let dims = PROJ_DIMS.min(samples.saturating_sub(1));
    let scale = (2.0 / n).sqrt();
    (0..samples)
        .map(|s| {
            let mut c = [0.0; PROJ_DIMS];
            for (k, ck) in c.iter_mut().enumerate().take(dims) {
                let angle = std::f64::consts::PI * (k + 1) as f64 * (2 * s + 1) as f64 / (2.0 * n);
                *ck = scale * angle.cos();
            }
            c
        })
        .collect()
}

/// Project a standardized row onto the basis.
#[inline]
fn project(basis: &[Proj], row: &[f64]) -> Proj {
    let mut p = [0.0; PROJ_DIMS];
    for (c, &x) in basis.iter().zip(row) {
        for (pk, ck) in p.iter_mut().zip(c) {
            *pk += ck * x;
        }
    }
    p
}

/// Squared distance of two projected rows.
#[inline]
fn dist2(a: &Proj, b: &Proj) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Packed grid cell of the first three projected coordinates. Each
/// coordinate is `⌊(p + offset) / side⌋` clamped into `0..=CELL_MAX`. The
/// clamp is monotone, so two rows within one side of each other still
/// land in the same or adjacent cells.
fn cell_key(p: &Proj, offset: f64, side: f64) -> u64 {
    p[..3].iter().fold(0, |key, &x| {
        let c = ((x + offset) / side).floor();
        let c = if c >= CELL_MAX as f64 {
            CELL_MAX
        } else if c > 0.0 {
            c as u64
        } else {
            0 // also NaN: 0/0 when n = 0, or a NaN radius
        };
        key << CELL_BITS | c
    })
}

/// Packed key of grid coordinates `(x, y, z)`.
#[inline]
fn pack(x: u64, y: u64, z: u64) -> u64 {
    (x << CELL_BITS | y) << CELL_BITS | z
}

impl CorrelationNetwork {
    /// Build the network from an expression matrix with the exact
    /// projection-pruned kernel described in the [module docs](self).
    /// A pair becomes an edge iff it passes both thresholds. The output
    /// is bit-identical to [`CorrelationNetwork::from_expression_seq`]
    /// at any thread count.
    ///
    /// Telemetry: `expr.tiles` counts occupied grid cells,
    /// `expr.tile_pairs` the pairs whose ρ was computed, and
    /// `expr.edges_retained` the kept edges. All three depend on the
    /// input alone.
    pub fn from_expression(m: &ExpressionMatrix, params: NetworkParams) -> Self {
        let genes = m.genes();
        let samples = m.samples();
        let n = samples as f64;
        let inv = 1.0 / n;
        let eps = (n + 8.0) * f64::EPSILON;
        // the candidate radius², widened by the slack; NaN or negative
        // means no pair of bounded rows can reach `min_rho`
        let r2 = 2.0 * n * (1.0 - params.min_rho) + 2.0 * n * (1e-6 + 1024.0 * eps);
        let prune_all = r2.is_nan() || r2 < 0.0;
        let side = r2.sqrt();
        let basis = dct_basis(samples);

        // key every gene by its grid cell, or as unbounded when its norm
        // breaks the distance bound; (key, gene) sorts into cell order
        let mut row = vec![0.0; samples];
        let mut keyed: Vec<(u64, u32)> = (0..genes)
            .map(|g| {
                row.copy_from_slice(m.row(g));
                standardize_row(&mut row);
                let norm2: f64 = row.iter().map(|x| x * x).sum();
                let bounded = (norm2 - n).abs() <= 64.0 * eps * n || row.iter().all(|&x| x == 0.0);
                let key = if bounded {
                    cell_key(&project(&basis, &row), n.sqrt(), side)
                } else {
                    UNBOUNDED
                };
                (key, g as u32)
            })
            .collect();
        keyed.sort_unstable();

        // occupied cells: their keys and first rows (plus an end sentinel)
        let grid_rows = keyed.partition_point(|&(k, _)| k != UNBOUNDED);
        let mut cell_keys: Vec<u64> = Vec::new();
        let mut cell_start: Vec<usize> = Vec::new();
        for (q, &(k, _)) in keyed[..grid_rows].iter().enumerate() {
            if cell_keys.last() != Some(&k) {
                cell_keys.push(k);
                cell_start.push(q);
            }
        }
        cell_start.push(grid_rows);
        let order: Vec<u32> = keyed.into_iter().map(|(_, g)| g).collect();

        // the one standardized copy and the projections, built directly
        // in cell order (same row expression, so the same bits)
        let mut data = vec![0.0; genes * samples];
        let mut proj: Vec<Proj> = Vec::with_capacity(genes);
        for (q, &g) in order.iter().enumerate() {
            let row = &mut data[q * samples..(q + 1) * samples];
            row.copy_from_slice(m.row(g as usize));
            standardize_row(row);
            proj.push(project(&basis, row));
        }
        let z = ExpressionMatrix::from_rows(genes, samples, data);

        // each cell's half-stencil as five row ranges: the rest of its own
        // (x, y) column up to dz = +1, then the forward columns
        // (0, 1), (1, −1), (1, 0), (1, 1), each spanning dz ∈ {−1, 0, 1}
        let rows_of = |lo: u64, hi: u64| {
            let a = cell_keys.partition_point(|&k| k < lo);
            let b = cell_keys.partition_point(|&k| k <= hi);
            (cell_start[a], cell_start[b])
        };
        let stencils: Vec<[(usize, usize); 5]> = cell_keys
            .iter()
            .map(|&key| {
                let (x, y, cz) = (
                    key >> (2 * CELL_BITS),
                    key >> CELL_BITS & CELL_MAX,
                    key & CELL_MAX,
                );
                let z_hi = (cz + 1).min(CELL_MAX);
                let mut s = [(0, 0); 5];
                s[0] = rows_of(key, pack(x, y, z_hi));
                for (slot, (dx, dy)) in s[1..].iter_mut().zip([(0, 1), (1, -1), (1, 0), (1, 1)]) {
                    let (nx, ny) = (x + dx, y as i64 + dy);
                    if nx <= CELL_MAX && (0..=CELL_MAX as i64).contains(&ny) {
                        let ny = ny as u64;
                        *slot = rows_of(pack(nx, ny, cz.saturating_sub(1)), pack(nx, ny, z_hi));
                    }
                }
                s
            })
            .collect();

        // the rows row q is compared against, all after it in cell order
        // except for an unbounded row, which meets every row before it
        let candidates = |q: usize| -> [(usize, usize); 5] {
            let mut s = [(0, 0); 5];
            if q >= grid_rows {
                s[0] = (0, q);
            } else if !prune_all {
                s = stencils[cell_start.partition_point(|&c| c <= q) - 1];
                s[0].0 = q + 1;
            }
            s
        };

        // cut the rows into units of equal candidate work
        let units = WORK_UNITS.min(genes.max(1));
        let cuts: Vec<usize> = {
            let mut work = Vec::with_capacity(genes + 1);
            work.push(0u64);
            for q in 0..genes {
                let w: usize = candidates(q).iter().map(|&(lo, hi)| hi - lo).sum();
                work.push(work[q] + w as u64);
            }
            let total = work[genes];
            (0..units)
                .map(|u| work[..genes].partition_point(|&w| w < total * u as u64 / units as u64))
                .chain([genes])
                .collect()
        };

        // score the candidates that pass the projected-distance test
        let mut weights: Vec<(Edge, f64)> = (0..units)
            .into_par_iter()
            .flat_map_iter(|u| {
                let mut kept = Vec::new();
                let mut scored = 0u64;
                for q in cuts[u]..cuts[u + 1] {
                    let unbounded = q >= grid_rows;
                    let pq = proj[q];
                    for (lo, hi) in candidates(q) {
                        for (j, pj) in (lo..hi).zip(&proj[lo..hi]) {
                            if unbounded || dist2(&pq, pj) <= r2 {
                                scored += 1;
                                let rho = rho_of(&z, q, j, inv);
                                if rho >= params.min_rho
                                    && pearson_p_value(rho, samples) <= params.max_p
                                {
                                    let (a, b) = (order[q], order[j]);
                                    kept.push(((a.min(b), a.max(b)), rho));
                                }
                            }
                        }
                    }
                }
                // unit totals depend on the input alone, so the summed
                // counter is thread-count-invariant
                casbn_obs::counter_add("expr.tile_pairs", scored);
                kept
            })
            .collect();
        weights.sort_unstable_by_key(|&(e, _)| e);
        casbn_obs::counter_add("expr.tiles", cell_keys.len() as u64);
        casbn_obs::counter_add("expr.edges_retained", weights.len() as u64);
        Self::from_sorted_weights(genes, weights)
    }

    /// Sequential reference implementation: a plain `i < j` double loop in
    /// canonical edge order. This is the differential-testing oracle — the
    /// pruned kernel of [`CorrelationNetwork::from_expression`] must
    /// reproduce its output **bit-identically** (same edge list, same
    /// order, same `ρ` values) at every thread count.
    pub fn from_expression_seq(m: &ExpressionMatrix, params: NetworkParams) -> Self {
        let z = m.standardized();
        let genes = m.genes();
        let samples = m.samples();
        let inv = 1.0 / samples as f64;
        let mut weights: Vec<(Edge, f64)> = Vec::new();
        for i in 0..genes {
            for j in (i + 1)..genes {
                let rho = rho_of(&z, i, j, inv);
                if rho >= params.min_rho && pearson_p_value(rho, samples) <= params.max_p {
                    weights.push(((i as u32, j as u32), rho));
                }
            }
        }
        Self::from_sorted_weights(genes, weights)
    }

    /// Assemble the network from an already-sorted weight list.
    fn from_sorted_weights(genes: usize, weights: Vec<(Edge, f64)>) -> Self {
        debug_assert!(weights.windows(2).all(|w| w[0].0 < w[1].0));
        let edges: Vec<Edge> = weights.iter().map(|&(e, _)| e).collect();
        CorrelationNetwork {
            graph: Graph::from_edges(genes, &edges),
            weights,
        }
    }
}

/// Two-sided p-value of a Pearson correlation `r` over `n` samples, via
/// the exact t-distribution relation `t = r·√((n−2)/(1−r²))` and the
/// regularised incomplete beta function.
pub fn pearson_p_value(r: f64, n: usize) -> f64 {
    if n <= 2 {
        return 1.0;
    }
    let r = r.clamp(-1.0, 1.0);
    if r.abs() >= 1.0 {
        return 0.0;
    }
    let df = (n - 2) as f64;
    let t2 = r * r * df / (1.0 - r * r);
    // P(|T| > t) = I_{df/(df+t²)}(df/2, 1/2)
    inc_beta(df / 2.0, 0.5, df / (df + t2))
}

/// Width of the band [`pearson_rho_cut`] leaves below the crossing it
/// brackets (2⁻³⁰ ≈ 9.3e-10). The band absorbs the rounding wobble of
/// the computed p-value, which is many orders of magnitude smaller.
const RHO_CUT_BAND: f64 = 1.0 / (1u64 << 30) as f64;

/// The p-value cut folded into a correlation cut: every `r` in
/// `0 ≤ r < cut` fails `pearson_p_value(r, n) <= max_p`.
///
/// `p` falls from 1 at `r = 0` to 0 at `r = 1`, so the crossing is
/// bracketed by bisection on [`pearson_p_value`] itself, to within
/// `RHO_CUT_BAND`, and the returned cut sits one band below the
/// bracket. Returns `0.0` when `r = 0` already passes, and `+∞` when no
/// `r` can pass: `max_p` negative or NaN, or `n ≤ 2` (where `p` is
/// always 1) with `max_p < 1`. The p-value is symmetric in `r`, so the
/// cut says nothing about negative correlations.
pub fn pearson_rho_cut(n: usize, max_p: f64) -> f64 {
    if max_p.is_nan() || max_p < 0.0 || (n <= 2 && max_p < 1.0) {
        return f64::INFINITY;
    }
    if pearson_p_value(0.0, n) <= max_p {
        return 0.0;
    }
    // invariant: p(lo) > max_p ≥ p(hi)
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while hi - lo > RHO_CUT_BAND {
        let mid = 0.5 * (lo + hi);
        if pearson_p_value(mid, n) <= max_p {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (lo - RHO_CUT_BAND).max(0.0)
}

/// Two-sided p-value of a Student-t statistic `t` with (possibly
/// fractional, e.g. Welch–Satterthwaite) degrees of freedom `df`.
pub fn students_t_two_sided_p(t: f64, df: f64) -> f64 {
    if df <= 0.0 {
        return 1.0;
    }
    let t = t.abs();
    inc_beta(df / 2.0, 0.5, df / (df + t * t))
}

/// ln Γ(x), Lanczos approximation (|error| < 2e-10 for x > 0).
fn ln_gamma(x: f64) -> f64 {
    const COF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_7e-2,
        -0.539_523_938_495_3e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    for c in COF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Regularised incomplete beta `I_x(a, b)` by continued fraction.
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (Numerical Recipes betacf).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_IT: usize = 200;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_IT {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticMicroarray, SyntheticParams};

    #[test]
    fn p_value_limits() {
        assert_eq!(pearson_p_value(1.0, 10), 0.0);
        assert_eq!(pearson_p_value(0.5, 2), 1.0);
        // r = 0 => p = 1
        assert!((pearson_p_value(0.0, 20) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn p_value_matches_known_values() {
        // r = 0.95, n = 8 → t = 7.448, df = 6 → two-sided p ≈ 2.9e-4
        let p = pearson_p_value(0.95, 8);
        assert!(
            (2.0e-4..4.0e-4).contains(&p),
            "p(0.95, n=8) = {p:.2e}, expected ≈ 2.9e-4"
        );
        // r = 0.6, n = 12 → p ≈ 0.039
        let p = pearson_p_value(0.6, 12);
        assert!((0.03..0.05).contains(&p), "p(0.6, n=12) = {p:.3}");
    }

    #[test]
    fn p_value_monotone_in_r() {
        let ps: Vec<f64> = [0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99]
            .iter()
            .map(|&r| pearson_p_value(r, 10))
            .collect();
        for w in ps.windows(2) {
            assert!(w[0] > w[1], "p not decreasing: {ps:?}");
        }
    }

    #[test]
    fn p_value_decreases_with_samples() {
        assert!(pearson_p_value(0.9, 6) > pearson_p_value(0.9, 30));
    }

    #[test]
    fn rho_cut_is_conservative_and_tight() {
        const GRID: usize = 256;
        for n in 3..=256usize {
            for max_p in [0.05, 0.01, 5e-4, 1e-8] {
                let cut = pearson_rho_cut(n, max_p);
                assert!((0.0..1.0).contains(&cut), "n {n} max_p {max_p}: cut {cut}");
                // every grid point below the cut, and the floats just
                // below it, fail the p-value test
                let mut below: Vec<f64> = (0..GRID).map(|g| cut * g as f64 / GRID as f64).collect();
                let mut r = cut;
                for _ in 0..16 {
                    r = f64::from_bits(r.to_bits() - 1);
                    below.push(r);
                }
                for r in below.into_iter().filter(|&r| r >= 0.0) {
                    let p = pearson_p_value(r, n);
                    assert!(
                        p > max_p,
                        "n {n} max_p {max_p}: p({r}) = {p} under the cut {cut}"
                    );
                }
                // and the band costs no more than two band widths
                let above = cut + 2.0 * RHO_CUT_BAND;
                assert!(
                    pearson_p_value(above, n) <= max_p,
                    "n {n} max_p {max_p}: p({above}) still above the cut"
                );
            }
        }
    }

    #[test]
    fn rho_cut_rejects_everything_when_nothing_can_pass() {
        for n in 0..=2usize {
            for max_p in [0.05, 0.01, 5e-4, 1e-8, 0.0, 0.999_999] {
                assert_eq!(
                    pearson_rho_cut(n, max_p),
                    f64::INFINITY,
                    "n {n} max_p {max_p}"
                );
            }
            // p is exactly 1 there, so max_p = 1 keeps every r ≥ 0
            assert_eq!(pearson_rho_cut(n, 1.0), 0.0);
        }
        for n in [3usize, 4, 40, 1000] {
            for max_p in [-1e-300, -0.5, -1.0, f64::NEG_INFINITY, f64::NAN] {
                assert_eq!(
                    pearson_rho_cut(n, max_p),
                    f64::INFINITY,
                    "n {n} max_p {max_p}"
                );
            }
            assert_eq!(pearson_rho_cut(n, 1.0), 0.0, "p(0) = 1 passes max_p = 1");
        }
    }

    #[test]
    fn inc_beta_is_a_cdf() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0), 1.0);
        // symmetry: I_x(a,b) = 1 - I_{1-x}(b,a)
        let x = 0.3;
        let lhs = inc_beta(2.0, 5.0, x);
        let rhs = 1.0 - inc_beta(5.0, 2.0, 1.0 - x);
        assert!((lhs - rhs).abs() < 1e-12);
        // I_x(1,1) = x (uniform)
        assert!((inc_beta(1.0, 1.0, 0.42) - 0.42).abs() < 1e-12);
    }

    #[test]
    fn network_finds_planted_modules() {
        let arr = SyntheticMicroarray::generate(
            &SyntheticParams {
                genes: 120,
                samples: 20,
                modules: 3,
                module_size: 8,
                loading_sq: 0.99,
            },
            3,
        );
        let net = CorrelationNetwork::from_expression(
            &arr.matrix,
            NetworkParams {
                min_rho: 0.9,
                max_p: 0.001,
            },
        );
        // each module should appear nearly complete
        for m in &arr.modules {
            let (sub, _) = net.graph.induced_subgraph(m);
            let possible = m.len() * (m.len() - 1) / 2;
            assert!(
                sub.m() as f64 > 0.7 * possible as f64,
                "module retained {} of {possible}",
                sub.m()
            );
        }
    }

    #[test]
    fn few_samples_produce_noise_edges() {
        // pure-noise matrix with few samples: some pairs cross ρ ≥ 0.95
        let arr = SyntheticMicroarray::generate(
            &SyntheticParams {
                genes: 800,
                samples: 8,
                modules: 0,
                module_size: 0,
                loading_sq: 0.0,
            },
            5,
        );
        let net = CorrelationNetwork::from_expression(&arr.matrix, NetworkParams::default());
        assert!(
            net.graph.m() > 0,
            "expected spurious edges from small-sample Pearson noise"
        );
        // and they are rarer with more samples
        let arr2 = SyntheticMicroarray::generate(
            &SyntheticParams {
                genes: 800,
                samples: 40,
                modules: 0,
                module_size: 0,
                loading_sq: 0.0,
            },
            5,
        );
        let net2 = CorrelationNetwork::from_expression(&arr2.matrix, NetworkParams::default());
        assert!(net2.graph.m() < net.graph.m());
    }

    #[test]
    fn pruned_kernel_matches_sequential_reference_bitwise() {
        let arr = SyntheticMicroarray::generate(
            &SyntheticParams {
                genes: 301,
                samples: 12,
                modules: 6,
                module_size: 9,
                loading_sq: 0.97,
            },
            17,
        );
        for min_rho in [0.5, 0.8, 0.95] {
            let params = NetworkParams {
                min_rho,
                max_p: 0.01,
            };
            let seq = CorrelationNetwork::from_expression_seq(&arr.matrix, params);
            assert!(seq.graph.m() > 0, "reference network must be non-trivial");
            let par = CorrelationNetwork::from_expression(&arr.matrix, params);
            assert_eq!(
                par.weights.len(),
                seq.weights.len(),
                "min_rho={min_rho}: edge count drifted"
            );
            for (a, b) in par.weights.iter().zip(&seq.weights) {
                assert_eq!(a.0, b.0, "min_rho={min_rho}: edge order drifted");
                assert_eq!(
                    a.1.to_bits(),
                    b.1.to_bits(),
                    "min_rho={min_rho}: ρ not bit-identical"
                );
            }
            assert!(par.graph.same_edges(&seq.graph));
        }
    }

    #[test]
    fn dct_basis_is_orthonormal_and_mean_free() {
        for samples in 0usize..=12 {
            let basis = dct_basis(samples);
            assert_eq!(basis.len(), samples);
            let dims = PROJ_DIMS.min(samples.saturating_sub(1));
            for a in 0..PROJ_DIMS {
                let sum: f64 = basis.iter().map(|c| c[a]).sum();
                assert!(
                    sum.abs() < 1e-12,
                    "n={samples}: direction {a} not mean-free"
                );
                for b in 0..PROJ_DIMS {
                    let dot: f64 = basis.iter().map(|c| c[a] * c[b]).sum();
                    let want = if a == b && a < dims { 1.0 } else { 0.0 };
                    assert!(
                        (dot - want).abs() < 1e-12,
                        "n={samples}: <c{a}, c{b}> = {dot}"
                    );
                }
            }
        }
    }

    #[test]
    fn cell_keys_clamp_monotonically() {
        let side = 0.5;
        let key = |x: f64| cell_key(&[x, 0.0, 0.0, 0.0, 0.0, 0.0], 1.0, side) >> (2 * CELL_BITS);
        // below the offset clamps to 0, far above clamps to CELL_MAX
        assert_eq!(key(-5.0), 0);
        assert_eq!(key(f64::MAX), CELL_MAX);
        // points within one side of each other stay in adjacent cells
        let xs: Vec<f64> = (-40..40).map(|i| i as f64 * 0.0625).collect();
        for &a in &xs {
            for &b in &xs {
                if (a - b).abs() <= side {
                    assert!(key(a).abs_diff(key(b)) <= 1, "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn degenerate_matrices_produce_empty_networks() {
        for (genes, samples) in [(0usize, 0usize), (0, 5), (1, 8), (2, 0)] {
            let m = crate::matrix::ExpressionMatrix::zeros(genes, samples);
            let net = CorrelationNetwork::from_expression(&m, NetworkParams::default());
            assert_eq!(net.graph.n(), genes);
            assert_eq!(net.graph.m(), 0, "genes={genes} samples={samples}");
            let seq = CorrelationNetwork::from_expression_seq(&m, NetworkParams::default());
            assert_eq!(net.weights, seq.weights);
        }
    }

    #[test]
    fn weights_match_graph() {
        let arr = SyntheticMicroarray::generate(
            &SyntheticParams {
                genes: 60,
                samples: 15,
                modules: 2,
                module_size: 6,
                loading_sq: 0.98,
            },
            9,
        );
        let net = CorrelationNetwork::from_expression(
            &arr.matrix,
            NetworkParams {
                min_rho: 0.8,
                max_p: 0.01,
            },
        );
        assert_eq!(net.weights.len(), net.graph.m());
        for &((u, v), rho) in &net.weights {
            assert!(net.graph.has_edge(u, v));
            assert!(rho >= 0.8);
            // cross-check against the direct formula
            let direct = arr.matrix.pearson(u as usize, v as usize);
            assert!((rho - direct).abs() < 1e-9);
        }
    }
}
