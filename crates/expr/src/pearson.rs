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
//! **Candidates.** Genes are bucketed into a 5-D grid on their first
//! five projected coordinates, with cell side `r`. The endpoints of an
//! edge therefore lie in the same or in adjacent cells: their cell
//! coordinates differ by at most one on every axis. A cell key packs the
//! five coordinates at 12 bits each, so cells sort by their first four
//! coordinates (the prefix) and then by the last. Each cell meets a
//! half-stencil of at most 41 key runs: its own rows after the current
//! row together with the next cell up its own column (last coordinate
//! `c + 1`), and, for each of the 40 prefix offsets in `{−1, 0, 1}⁴`
//! whose first nonzero entry is `+1`, the cells at that offset with last
//! coordinate `c − 1 ..= c + 1`. Every unordered pair of adjacent cells
//! is met exactly once. For a fixed offset the target run only moves up
//! the sorted keys as the cell does, so one forward-only cursor per
//! offset finds every run with no search per cell. Coordinates span
//! `2√n` and the cell side is at least `√(2n·10⁻⁶)`, so an axis holds at
//! most about `√(2·10⁶) ≈ 1,415` cells, below the 4,096 of a 12-bit
//! coordinate, whenever `min_rho ≤ 1`; beyond that, the monotone clamp
//! of each coordinate still keeps an edge's cells adjacent. A candidate
//! pair is scored only if its full `K`-dimensional projected distance is
//! within `r`.
//!
//! **Work units.** One sequential cursor walk gives each cell's forward
//! work, which cuts the rows into up to 1,024 units of equal candidate
//! work (at least 4,096 candidates each, so small inputs get fewer).
//! Each unit then walks its own cursors from its first cell, seeding
//! each by binary search on first use, so no cell's runs are stored.
//!
//! **Counters.** `expr.tiles` counts the occupied cells,
//! `expr.grid_pairs` the pairs whose projected distance was tested,
//! `expr.tile_pairs` the pairs whose ρ was computed, and
//! `expr.edges_retained` the kept edges. Units add their own totals, so
//! every counter depends on the input alone, not on the thread count.
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
/// Projected coordinates a row is bucketed on: the first five of `K`.
const GRID_AXES: usize = 5;
/// Bits of one grid coordinate in a packed cell key (five per key).
const CELL_BITS: u32 = 12;
/// Largest grid coordinate; coordinates are clamped into `0..=CELL_MAX`.
const CELL_MAX: u64 = (1 << CELL_BITS) - 1;
/// Sort key of a row that bypasses the grid: after every cell.
const UNBOUNDED: u64 = u64::MAX;
/// [`UNBOUNDED`] keys closing the occupied cells' key list. A stencil run
/// spans at most three cells, so the walk reads past the last cell
/// without a bounds test.
const SENTINELS: usize = 3;
/// Most parallel work units, cut to equal candidate-check work. The
/// rayon shim hands each thread a contiguous run of units, so equal units
/// keep the threads equally busy at any thread count.
const WORK_UNITS: u64 = 1024;
/// Fewest candidate checks per unit (small inputs get fewer units): a
/// unit seeds its cursors by up to 40 binary searches, which this keeps
/// a small share of its work.
const UNIT_WORK: u64 = 4096;
/// Prefix axes of a cell key: every grid axis but the last.
const PREFIX: usize = GRID_AXES - 1;
/// Prefix offsets of the half-stencil: the 40 of `{−1, 0, 1}⁴` whose
/// first nonzero entry is `+1`, so exactly one of each offset and its
/// negation.
const FORWARD: [Step; 40] = forward_steps();
/// Runs a cell meets: its own column, then one per forward offset.
const RUNS: usize = 1 + FORWARD.len();

/// A prefix offset `d` as the walk applies it to a cell key.
#[derive(Clone, Copy)]
struct Step {
    /// `d` packed as a key delta (mod 2⁶⁴), last coordinate 0.
    delta: u64,
    /// Prefix axes (bit `axis`) where `d` is −1.
    down: u32,
    /// Prefix axes where `d` is +1.
    up: u32,
}

/// [`FORWARD`], in lexicographic order of the offsets.
const fn forward_steps() -> [Step; 40] {
    const ZERO: Step = Step {
        delta: 0,
        down: 0,
        up: 0,
    };
    let mut out = [ZERO; 40];
    let (mut found, mut code) = (0, 0);
    while code < 81 {
        // the base-3 digits of `code`, most significant first, are d + 1
        // `lead` is the first digit that is not 1 (d = 0), if any
        let (mut step, mut lead, mut axis) = (ZERO, 1, 0);
        while axis < PREFIX {
            let digit = code / 3u32.pow((PREFIX - 1 - axis) as u32) % 3;
            let unit = 1u64 << (CELL_BITS * (PREFIX - axis) as u32);
            if digit == 0 {
                step.down |= 1 << axis;
                step.delta = step.delta.wrapping_sub(unit);
            } else if digit == 2 {
                step.up |= 1 << axis;
                step.delta = step.delta.wrapping_add(unit);
            }
            if lead == 1 {
                lead = digit;
            }
            axis += 1;
        }
        if lead == 2 {
            out[found] = step;
            found += 1;
        }
        code += 1;
    }
    assert!(found == 40);
    out
}

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

/// Packed grid cell of the first [`GRID_AXES`] projected coordinates.
/// Each coordinate is `⌊(p + offset) / side⌋` clamped into
/// `0..=CELL_MAX`. The clamp is monotone, so two rows within one side of
/// each other still land in the same or adjacent cells.
fn cell_key(p: &Proj, offset: f64, side: f64) -> u64 {
    p[..GRID_AXES].iter().fold(0, |key, &x| {
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

/// The half-stencil walk over the sorted keys of the occupied cells,
/// followed by [`SENTINELS`] unbounded keys. Cells must be visited in
/// non-decreasing order: each forward offset's target run then only
/// moves up the keys, so one cursor per offset, seeded by binary search
/// on first use, finds every run.
struct HalfStencil<'a> {
    keys: &'a [u64],
    /// Per forward offset, the first cell at or after its last target
    /// (`usize::MAX` until first use).
    cursor: [usize; FORWARD.len()],
}

impl<'a> HalfStencil<'a> {
    fn new(keys: &'a [u64]) -> Self {
        HalfStencil {
            keys,
            cursor: [usize::MAX; FORWARD.len()],
        }
    }

    /// Cell `c`'s half-stencil as runs of cell indices, all after `c`:
    /// first the next cell up its own column (empty unless occupied),
    /// then per forward offset the cells whose prefix is `c`'s plus the
    /// offset and whose last coordinate is within one of `c`'s.
    fn runs(&mut self, c: usize) -> [(usize, usize); RUNS] {
        let keys = self.keys;
        let key = keys[c];
        let last = key & CELL_MAX;
        let mut runs = [(c + 1, c + 1); RUNS];
        if last < CELL_MAX && keys[c + 1] == key + 1 {
            runs[0].1 = c + 2;
        }
        // prefix axes where a step down, or up, would leave the grid
        let (mut floor, mut ceil) = (0, 0);
        for axis in 0..PREFIX {
            let x = key >> (CELL_BITS * (PREFIX - axis) as u32) & CELL_MAX;
            floor |= u32::from(x == 0) << axis;
            ceil |= u32::from(x == CELL_MAX) << axis;
        }
        let (below, above) = (u64::from(last > 0), u64::from(last < CELL_MAX));
        for ((run, step), cursor) in runs[1..].iter_mut().zip(&FORWARD).zip(&mut self.cursor) {
            if step.down & floor | step.up & ceil != 0 {
                continue;
            }
            let target = key.wrapping_add(step.delta);
            let (lo, hi) = (target - below, target + above);
            if *cursor == usize::MAX {
                *cursor = keys.partition_point(|&k| k < lo);
            }
            let mut a = *cursor;
            while keys[a] < lo {
                a += 1;
            }
            // the run holds at most three cells, and the sentinels stop it
            let width = usize::from(keys[a] <= hi)
                + usize::from(keys[a + 1] <= hi)
                + usize::from(keys[a + 2] <= hi);
            *cursor = a;
            *run = (a, a + width);
        }
        runs
    }
}

impl CorrelationNetwork {
    /// Build the network from an expression matrix with the exact
    /// projection-pruned kernel described in the [module docs](self).
    /// A pair becomes an edge iff it passes both thresholds. The output
    /// is bit-identical to [`CorrelationNetwork::from_expression_seq`]
    /// at any thread count.
    ///
    /// Telemetry: `expr.tiles`, `expr.grid_pairs`, `expr.tile_pairs`
    /// and `expr.edges_retained`, as the [module docs](self) define
    /// them. All four depend on the input alone.
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

        // occupied cells: their keys and first rows (plus end sentinels)
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
        let cells = cell_keys.len();
        cell_keys.extend([UNBOUNDED; SENTINELS]);
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

        // each cell's forward work: the rows of its runs past its own
        let run_rows = |(a, b): (usize, usize)| cell_start[b] - cell_start[a];
        let forward: Vec<u64> = if prune_all {
            vec![0; cells]
        } else {
            let mut stencil = HalfStencil::new(&cell_keys);
            (0..cells)
                .map(|c| stencil.runs(c).into_iter().map(run_rows).sum::<usize>() as u64)
                .collect()
        };

        // row q's candidate count: the rest of its own cell plus its
        // cell's forward work, or every row before an unbounded row;
        // `c` is q's cell and advances with q
        let row_work = |c: &mut usize, q: usize| -> u64 {
            if q >= grid_rows {
                return q as u64;
            }
            while cell_start[*c + 1] <= q {
                *c += 1;
            }
            let own = if prune_all {
                0
            } else {
                cell_start[*c + 1] - q - 1
            };
            own as u64 + forward[*c]
        };

        // cut the rows into units of equal candidate work
        let cuts: Vec<usize> = {
            let mut c = 0;
            let total: u64 = (0..genes).map(|q| row_work(&mut c, q)).sum();
            let units = (total / UNIT_WORK).clamp(1, WORK_UNITS);
            let mut cuts = Vec::with_capacity(units as usize + 1);
            let (mut c, mut done) = (0, 0u64);
            for q in 0..genes {
                while cuts.len() < units as usize && done >= total * cuts.len() as u64 / units {
                    cuts.push(q);
                }
                done += row_work(&mut c, q);
            }
            cuts.resize(units as usize, genes);
            cuts.push(genes);
            cuts
        };

        // score the candidates that pass the projected-distance test
        let mut weights: Vec<(Edge, f64)> = (0..cuts.len() - 1)
            .into_par_iter()
            .flat_map_iter(|u| {
                let (lo, hi) = (cuts[u], cuts[u + 1]);
                let mut kept = Vec::new();
                let (mut tested, mut scored) = (0u64, 0u64);
                let mut score = |q: usize, j: usize| {
                    scored += 1;
                    let rho = rho_of(&z, q, j, inv);
                    if rho >= params.min_rho && pearson_p_value(rho, samples) <= params.max_p {
                        let (a, b) = (order[q], order[j]);
                        kept.push(((a.min(b), a.max(b)), rho));
                    }
                };
                // grid rows, cell by cell: each row meets the rest of its
                // own column run, then its cell's forward runs
                let grid_hi = if prune_all { 0 } else { hi.min(grid_rows) };
                let mut stencil = HalfStencil::new(&cell_keys);
                for c in cell_start.partition_point(|&s| s <= lo) - 1..cells {
                    let rows = cell_start[c].max(lo)..cell_start[c + 1].min(grid_hi);
                    if rows.is_empty() {
                        break;
                    }
                    // the cell's nonempty forward runs, as row ranges
                    let runs = stencil.runs(c);
                    let own_end = cell_start[runs[0].1];
                    let mut row_runs = [(0, 0); RUNS];
                    let mut len = 0;
                    for &(a, b) in runs[1..].iter().filter(|(a, b)| a < b) {
                        row_runs[len] = (cell_start[a], cell_start[b]);
                        len += 1;
                    }
                    for q in rows {
                        let pq = proj[q];
                        for &(a, b) in [(q + 1, own_end)].iter().chain(&row_runs[..len]) {
                            tested += (b - a) as u64;
                            for (j, pj) in (a..b).zip(&proj[a..b]) {
                                if dist2(&pq, pj) <= r2 {
                                    score(q, j);
                                }
                            }
                        }
                    }
                }
                // an unbounded row meets every row before it, untested
                for q in lo.max(grid_rows)..hi {
                    for j in 0..q {
                        score(q, j);
                    }
                }
                // unit totals depend on the input alone, so the summed
                // counters are thread-count-invariant
                casbn_obs::counter_add("expr.grid_pairs", tested);
                casbn_obs::counter_add("expr.tile_pairs", scored);
                kept
            })
            .collect();
        weights.sort_unstable_by_key(|&(e, _)| e);
        casbn_obs::counter_add("expr.tiles", cells as u64);
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
        let key = |x: f64| cell_key(&[x, 0.0, 0.0, 0.0, 0.0, 0.0], 1.0, side) >> (4 * CELL_BITS);
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
    fn half_stencil_meets_every_adjacent_cell_pair_once() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;
        // per axis, coordinates at both ends of the 12-bit range
        let values = [0, 1, 2, CELL_MAX - 1, CELL_MAX];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(20);
        for density in [0.03, 0.2, 0.5, 0.95] {
            // `values` ascend, so the keys come out sorted
            let cells: Vec<[u64; GRID_AXES]> = (0..values.len().pow(GRID_AXES as u32))
                .filter(|_| rng.gen_bool(density))
                .map(|code| {
                    let mut at = [0; GRID_AXES];
                    for (axis, x) in at.iter_mut().enumerate() {
                        *x = values
                            [code / values.len().pow((GRID_AXES - 1 - axis) as u32) % values.len()];
                    }
                    at
                })
                .collect();
            for axis in 0..GRID_AXES {
                for end in [0, CELL_MAX] {
                    assert!(
                        cells.iter().any(|at| at[axis] == end),
                        "axis {axis} misses {end}"
                    );
                }
            }
            let mut keys: Vec<u64> = cells
                .iter()
                .map(|at| at.iter().fold(0, |key, &x| key << CELL_BITS | x))
                .collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]));
            keys.extend([UNBOUNDED; SENTINELS]);
            // a whole walk, and walks started mid-range as work units are
            for start in [0, cells.len() / 3, cells.len() - 1] {
                let mut met: BTreeMap<(usize, usize), u32> = BTreeMap::new();
                let mut stencil = HalfStencil::new(&keys);
                for c in start..cells.len() {
                    for (a, b) in stencil.runs(c) {
                        for other in a..b {
                            *met.entry((c, other)).or_default() += 1;
                        }
                    }
                }
                let mut want = BTreeMap::new();
                for a in start..cells.len() {
                    for b in a + 1..cells.len() {
                        if cells[a]
                            .iter()
                            .zip(&cells[b])
                            .all(|(x, y)| x.abs_diff(*y) <= 1)
                        {
                            want.insert((a, b), 1);
                        }
                    }
                }
                assert!(start > 0 || !want.is_empty());
                assert_eq!(met, want, "density {density}, walk from cell {start}");
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
