//! Online all-pairs Pearson correlation with threshold-crossing deltas.
//!
//! The batch pipeline standardises the full genes × samples matrix and
//! evaluates every pair with a dot product
//! ([`CorrelationNetwork::from_expression_seq`]). [`OnlineCorrelation`]
//! instead maintains, across ingest batches:
//!
//! * per-gene **Welford moments** — running mean and centred second
//!   moment `M2ᵍ = Σₜ (xᵍₜ − μᵍ)²`;
//! * **pairwise co-moments** `Cᵢⱼ = Σₜ (xᵢₜ − μᵢ)(xⱼₜ − μⱼ)` over the
//!   upper triangle, updated with the exact pairwise rule
//!   `Cᵢⱼ += dᵢ·d₂ⱼ` (`d` = deviation from the pre-update mean, `d₂` =
//!   deviation from the post-update mean).
//!
//! Both recurrences are *sample-sequential*: the accumulator state after
//! ingesting a sample stream is **bit-identical for every partition of
//! that stream into batches**, which is what the partition-invariance
//! property test pins. The implied correlation
//! `ρᵢⱼ = Cᵢⱼ / (√M2ᵢ·√M2ⱼ)` equals the batch Pearson coefficient up to
//! floating-point associativity (≤ 1e-12 relative in practice), so the
//! thresholded edge set matches the batch network.
//!
//! **One sweep per window.** [`OnlineCorrelation::ingest`] first
//! advances the per-gene moments over the batch, sample by sample, and
//! records each gene's deviations. It then makes a single pass over the
//! pair triangle. Each co-moment takes the batch's terms in stream
//! order and, while it is still in cache, is tested against the
//! retention predicate (`ρ ≥ min_rho` and `p ≤ max_p`, the paper's
//! thresholds). The pairs whose membership changed come out as an
//! [`EdgeDelta`] in canonical order: edges that crossed the cut, and
//! edges that fell back below it as the running estimates sharpened.
//!
//! **Conservative cut.** Almost every pair lies far below the cut, so
//! the sweep first applies a division-free test that can only reject:
//! `C < lo·sdᵢ·sdⱼ`, with `sd = √M2`. A pair it does not reject, or
//! whose membership bit is set, takes the exact predicate:
//! `ρ = C/(sdᵢ·sdⱼ)`, then `min_rho` and the p-value. The retained set
//! is therefore the one the exact predicate gives on every pair. `lo`
//! sits below the effective cut `t` by `2⁻⁴⁰·(|t| + 1)`. With `sd` in
//! `[1e-77, 1e77]` and `|t| ≤ 2`, `sdᵢ·sdⱼ` is a normal number and
//! `lo·sdᵢ·sdⱼ` cannot overflow, so each product rounds with relative
//! error at most `u = 2⁻⁵³`, plus, on the second, an underflow residue
//! below 1e-246. Rounding is monotone, so `C < fl(fl(lo·sdᵢ)·sdⱼ)`
//! gives `fl(C / fl(sdᵢ·sdⱼ)) ≤ lo + 5u·|lo| + 1e-90 < t`: the margin
//! is more than 400 times that bound. A gene whose `sd` is zero,
//! subnormal, non-finite or outside that range, and a `t` outside
//! `[−2, 2]` (bar `+∞`, where nothing can be retained), always take the
//! exact path.
//!
//! **The p-value fold.** When `min_rho ≥ 0`,
//! `t = max(min_rho, ρ_p(n))`. Here `ρ_p(n)` ([`pearson_rho_cut`]) is a
//! correlation below which no `ρ ≥ 0` passes `p ≤ max_p` at the current
//! sample count, found once per window by bisection. At small `n` it
//! lies well above `min_rho` (about 0.9995 at `n = 4` for the paper's
//! `p ≤ 0.0005`), so early windows prune as hard as late ones. The
//! p-value is symmetric in ρ, so when `min_rho < 0`, `t = min_rho`.
//!
//! **Parallelism.** The triangle is cut into row blocks of about 2¹⁶
//! pairs, a split that depends on the gene count alone. From
//! `PARALLEL_PAIR_THRESHOLD` pairs up the blocks run on rayon. Each
//! block owns its slice of the triangle and accumulates in stream
//! order, so the result is bit-identical at every thread count.
//!
//! **Export.** [`OnlineCorrelation::weights`] and
//! [`OnlineCorrelation::graph`] walk the set bits of the membership
//! bitset: `O(pairs/64 + genes + edges)`, not `O(pairs)`.
//!
//! **Finite inputs.** `ingest` expects finite samples; the replay
//! reader rejects any other. The accumulators then stay finite while
//! sample magnitudes stay below about 1e150. A checkpoint whose
//! accumulators are not finite does not resume.
//!
//! [`CorrelationNetwork::from_expression_seq`]: casbn_expr::CorrelationNetwork::from_expression_seq

use casbn_expr::{pearson_p_value, pearson_rho_cut, ExpressionMatrix, NetworkParams};
use casbn_graph::{EdgeDelta, Graph, VertexId};
use rayon::prelude::*;
use std::ops::{Range, RangeInclusive};

/// Pair count from which the sweep's row blocks run on rayon (below it,
/// thread spawn overhead dominates).
const PARALLEL_PAIR_THRESHOLD: usize = 1 << 15;
/// Pairs per row block of the sweep, about.
const BLOCK_PAIRS: usize = 1 << 16;
/// Standard deviations for which the division-free rejection test is
/// proven exact (see the module doc).
const SD_SAFE: RangeInclusive<f64> = 1e-77..=1e77;
/// Margin of the rejection cut below the effective cut `t`, in units of
/// `|t| + 1`.
const CUT_MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

/// A pair whose membership flipped: `(i, j, retained now)`.
type Change = (usize, usize, bool);

/// Streaming all-pairs correlation accumulator.
#[derive(Clone, Debug)]
pub struct OnlineCorrelation {
    genes: usize,
    params: NetworkParams,
    /// Samples ingested so far.
    samples: usize,
    /// Per-gene running mean.
    mean: Vec<f64>,
    /// Per-gene centred second moment Σ(x−μ)².
    m2: Vec<f64>,
    /// Upper-triangle pairwise co-moments, row-major flat.
    comoment: Vec<f64>,
    /// Current thresholded edge membership, one bit per pair.
    present: Vec<u64>,
    /// Live edge count.
    edges: usize,
    /// Abstract ops charged (moment updates + co-moment updates + pair
    /// scans), the unit the streaming perf workloads feed to the LogP
    /// cost model.
    work_ops: u64,
}

/// Flat upper-triangle index of row `i`'s first pair `(i, i + 1)`.
#[inline]
fn row_start(genes: usize, i: usize) -> usize {
    i * (2 * genes - i - 1) / 2
}

/// Flat upper-triangle index of pair `(i, j)`, `i < j`.
#[inline]
fn pair_index(genes: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < genes);
    row_start(genes, i) + (j - i - 1)
}

/// Bit `idx` of a bitset.
#[inline]
fn bit(bits: &[u64], idx: usize) -> bool {
    bits[idx / 64] >> (idx % 64) & 1 == 1
}

/// Flat indices of the set bits of `bits` within `range`, ascending.
fn set_bits(bits: &[u64], range: Range<usize>) -> impl Iterator<Item = usize> + '_ {
    let Range { start, end } = range;
    (start / 64..end.div_ceil(64)).flat_map(move |w| {
        let mut word = bits[w];
        if w == start / 64 {
            word &= !0u64 << (start % 64);
        }
        if end < w * 64 + 64 {
            // w·64 < end here, so the shift is below 64
            word &= (1u64 << (end % 64)) - 1;
        }
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + b
            })
        })
    })
}

impl OnlineCorrelation {
    /// Empty accumulator over `genes` genes with the given thresholds.
    ///
    /// Memory is `O(genes²)` for the co-moment triangle — the price of
    /// exact incremental all-pairs correlation.
    pub fn new(genes: usize, params: NetworkParams) -> Self {
        let pairs = genes * genes.saturating_sub(1) / 2;
        OnlineCorrelation {
            genes,
            params,
            samples: 0,
            mean: vec![0.0; genes],
            m2: vec![0.0; genes],
            comoment: vec![0.0; pairs],
            present: vec![0u64; pairs.div_ceil(64)],
            edges: 0,
            work_ops: 0,
        }
    }

    /// Number of genes.
    #[inline]
    pub fn genes(&self) -> usize {
        self.genes
    }

    /// Samples ingested so far.
    #[inline]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Thresholds in force.
    #[inline]
    pub fn params(&self) -> NetworkParams {
        self.params
    }

    /// Edges currently above the retention cut.
    #[inline]
    pub fn edges(&self) -> usize {
        self.edges
    }

    /// Abstract ops performed so far (for the simulated cost model).
    #[inline]
    pub fn work_ops(&self) -> u64 {
        self.work_ops
    }

    /// Running mean of gene `g`.
    #[inline]
    pub fn mean(&self, g: usize) -> f64 {
        self.mean[g]
    }

    /// Centred second moment `Σ(x−μ)²` of gene `g`.
    #[inline]
    pub fn m2(&self, g: usize) -> f64 {
        self.m2[g]
    }

    /// Pairwise co-moment `Σ(xᵢ−μᵢ)(xⱼ−μⱼ)` of genes `i ≠ j`.
    pub fn co_moment(&self, i: usize, j: usize) -> f64 {
        let (i, j) = (i.min(j), i.max(j));
        self.comoment[pair_index(self.genes, i, j)]
    }

    /// Current correlation estimate of genes `i ≠ j` (0.0 while either
    /// gene has no variance).
    pub fn rho(&self, i: usize, j: usize) -> f64 {
        let denom = self.m2[i].sqrt() * self.m2[j].sqrt();
        if denom > 0.0 {
            self.co_moment(i, j) / denom
        } else {
            0.0
        }
    }

    /// Whether the pair `(i, j)` currently satisfies the retention
    /// predicate (`ρ ≥ min_rho` and `p ≤ max_p` at the current sample
    /// count).
    pub fn pair_retained(&self, i: usize, j: usize) -> bool {
        let (i, j) = (i.min(j), i.max(j));
        bit(&self.present, pair_index(self.genes, i, j))
    }

    /// The current thresholded network as a plain graph.
    pub fn graph(&self) -> Graph {
        let mut g = Graph::new(self.genes);
        for (i, j) in self.retained() {
            g.add_edge(i as VertexId, j as VertexId);
        }
        g
    }

    /// Retained edges with their current ρ, canonical order.
    pub fn weights(&self) -> Vec<((VertexId, VertexId), f64)> {
        let mut out = Vec::with_capacity(self.edges);
        out.extend(
            self.retained()
                .map(|(i, j)| ((i as VertexId, j as VertexId), self.rho(i, j))),
        );
        out
    }

    /// Retained pairs `(i, j)` in canonical order: each row's set bits.
    fn retained(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let genes = self.genes;
        (0..genes).flat_map(move |i| {
            let start = row_start(genes, i);
            set_bits(&self.present, start..start + (genes - i - 1))
                .map(move |idx| (i, i + 1 + (idx - start)))
        })
    }

    /// The accumulator arrays the `.csbn` checkpoint serialises:
    /// per-gene means and second moments, the co-moment triangle, and
    /// the membership bitset — the checkpoint's only copy of the
    /// network, which a resume rebuilds with [`OnlineCorrelation::graph`].
    pub(crate) fn checkpoint_arrays(&self) -> (&[f64], &[f64], &[f64], &[u64]) {
        (&self.mean, &self.m2, &self.comoment, &self.present)
    }

    /// Rebuild an accumulator from checkpointed state. Array lengths
    /// must match the gene count, bits past the pair triangle must be
    /// zero (the live edge count is recomputed as the bitset popcount),
    /// the thresholds must be finite and no second moment negative; the
    /// caller has already rejected non-finite accumulator values while
    /// decoding them. The recurrences continue **bit-identically** — the
    /// restored means/moments are the exact `f64` bits the original held.
    #[allow(clippy::too_many_arguments)] // mirrors the checkpoint field order
    pub(crate) fn from_checkpoint(
        genes: usize,
        params: NetworkParams,
        samples: usize,
        work_ops: u64,
        mean: Vec<f64>,
        m2: Vec<f64>,
        comoment: Vec<f64>,
        present: Vec<u64>,
    ) -> Result<OnlineCorrelation, &'static str> {
        let pairs = genes
            .checked_mul(genes.saturating_sub(1))
            .map(|x| x / 2)
            .ok_or("gene count overflows the pair triangle")?;
        if !params.min_rho.is_finite() {
            return Err("checkpoint min_rho is not finite");
        }
        if !params.max_p.is_finite() {
            return Err("checkpoint max_p is not finite");
        }
        if mean.len() != genes || m2.len() != genes {
            return Err("per-gene moment array length mismatch");
        }
        if m2.iter().any(|&m| m < 0.0) {
            return Err("checkpoint m2 holds a negative second moment");
        }
        if comoment.len() != pairs {
            return Err("co-moment triangle length mismatch");
        }
        if present.len() != pairs.div_ceil(64) {
            return Err("membership bitset length mismatch");
        }
        if pairs % 64 != 0 {
            if let Some(&last) = present.last() {
                if last >> (pairs % 64) != 0 {
                    return Err("membership bits set beyond the pair triangle");
                }
            }
        }
        let edges = present.iter().map(|w| w.count_ones() as usize).sum();
        Ok(OnlineCorrelation {
            genes,
            params,
            samples,
            mean,
            m2,
            comoment,
            present,
            edges,
            work_ops,
        })
    }

    /// Ingest one batch of samples (a genes × k matrix, columns are the
    /// new arrays in stream order) and emit the edge changes it caused.
    /// The samples must be finite (see the module doc).
    ///
    /// # Panics
    ///
    /// Panics if the batch's gene count differs from the accumulator's.
    pub fn ingest(&mut self, batch: &ExpressionMatrix) -> EdgeDelta {
        assert_eq!(
            batch.genes(),
            self.genes,
            "batch gene count {} != accumulator {}",
            batch.genes(),
            self.genes
        );
        let k = batch.samples();
        let genes = self.genes;
        let pairs = self.comoment.len();

        // per-gene Welford moments, sample-sequential; record the
        // pre-/post-update deviations gene-major so the sweep streams
        // them contiguously (an empty batch keeps one unread zero per
        // gene, so the sweep still visits and re-tests every pair)
        let stride = k.max(1);
        let mut d = vec![0.0f64; genes * stride];
        let mut d2 = vec![0.0f64; genes * stride];
        for s in 0..k {
            self.samples += 1;
            let n = self.samples as f64;
            for g in 0..genes {
                let x = batch.row(g)[s];
                let dev = x - self.mean[g];
                self.mean[g] += dev / n;
                let dev2 = x - self.mean[g];
                self.m2[g] += dev * dev2;
                d[g * stride + s] = dev;
                d2[g * stride + s] = dev2;
            }
        }
        // charged at the analytic sites (outside the parallel region),
        // so the counters are thread-count-invariant
        if k > 0 && genes > 0 {
            self.work_ops += (genes * k) as u64;
            casbn_obs::counter_add("stream.moment_updates", (genes * k) as u64);
            self.work_ops += (pairs * k) as u64;
            casbn_obs::counter_add("stream.comoment_updates", (pairs * k) as u64);
        }
        self.work_ops += pairs as u64;
        casbn_obs::counter_add("stream.scan_pairs", pairs as u64);

        // one sweep: advance every co-moment and re-test its pair
        let sd: Vec<f64> = self.m2.iter().map(|&m| m.sqrt()).collect();
        let sweep = Sweep {
            genes,
            k,
            stride,
            d: &d,
            d2: &d2,
            safe_sd: sd
                .iter()
                .map(|&s| if SD_SAFE.contains(&s) { s } else { f64::NAN })
                .collect(),
            sd,
            lo: reject_cut(self.params, self.samples),
            n: self.samples,
            params: self.params,
            present: &self.present,
        };
        let blocks = row_blocks(genes, &mut self.comoment);
        let run = |(rows, first, c): Block<'_>| sweep.block(rows, first, c);
        let changes: Vec<Vec<Change>> = if pairs >= PARALLEL_PAIR_THRESHOLD {
            blocks.into_par_iter().map(run).collect()
        } else {
            blocks.into_iter().map(run).collect()
        };

        let mut delta = EdgeDelta::default();
        for (i, j, keep) in changes.into_iter().flatten() {
            let idx = pair_index(genes, i, j);
            self.present[idx / 64] ^= 1u64 << (idx % 64);
            if keep {
                self.edges += 1;
                delta.inserts.push((i as VertexId, j as VertexId));
            } else {
                self.edges -= 1;
                delta.removes.push((i as VertexId, j as VertexId));
            }
        }
        delta
    }
}

/// A row block of the sweep: its rows, the flat index of its first
/// pair, and its slice of the co-moment triangle.
type Block<'a> = (Range<usize>, usize, &'a mut [f64]);

/// Cut the triangle's rows into blocks of about `BLOCK_PAIRS` pairs.
/// The cut depends on the gene count alone, never on the thread count.
fn row_blocks(genes: usize, comoment: &mut [f64]) -> Vec<Block<'_>> {
    let mut blocks = Vec::new();
    let mut rest = comoment;
    let (mut row, mut first) = (0usize, 0usize);
    while row + 1 < genes {
        let start = row;
        let mut count = 0usize;
        while row + 1 < genes && (count == 0 || count + (genes - row - 1) <= BLOCK_PAIRS) {
            count += genes - row - 1;
            row += 1;
        }
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(count);
        rest = tail;
        blocks.push((start..row, first, head));
        first += count;
    }
    blocks
}

/// The division-free rejection cut `lo` of a window at `n` samples: a
/// pair with `C < lo·sdᵢ·sdⱼ` fails the exact predicate (see the module
/// doc). `−∞` sends every pair down the exact path.
fn reject_cut(params: NetworkParams, n: usize) -> f64 {
    let min_rho = params.min_rho;
    let t = if min_rho < 0.0 {
        min_rho
    } else {
        min_rho.max(pearson_rho_cut(n, params.max_p))
    };
    if !min_rho.is_finite() {
        f64::NEG_INFINITY
    } else if t == f64::INFINITY {
        // no finite ρ can pass the p-value test
        f64::INFINITY
    } else if t.abs() <= 2.0 {
        t - (t.abs() + 1.0) * CUT_MARGIN
    } else {
        f64::NEG_INFINITY
    }
}

/// The read-only inputs of one window's sweep.
struct Sweep<'a> {
    genes: usize,
    /// Samples in the batch.
    k: usize,
    /// Gene stride of `d` and `d2`: `k`, or 1 for an empty batch.
    stride: usize,
    /// Deviations from the pre-update means, gene-major
    /// (`d[g·stride + s]`).
    d: &'a [f64],
    /// Deviations from the post-update means, gene-major.
    d2: &'a [f64],
    /// `√M2` per gene, after the batch.
    sd: Vec<f64>,
    /// `sd` where it lies in `SD_SAFE`, else NaN: a NaN makes the
    /// rejection test false, so the gene's pairs take the exact path.
    safe_sd: Vec<f64>,
    /// The rejection cut of [`reject_cut`].
    lo: f64,
    /// Samples seen, this batch included.
    n: usize,
    params: NetworkParams,
    /// Membership before the batch.
    present: &'a [u64],
}

impl Sweep<'_> {
    /// Advance and re-test the pairs of `rows`, whose co-moments are
    /// `comoment` and whose first pair has flat index `first`. Returns
    /// the membership changes in canonical order.
    fn block(&self, rows: Range<usize>, first: usize, comoment: &mut [f64]) -> Vec<Change> {
        let (genes, k, stride) = (self.genes, self.k, self.stride);
        let (d, d2, safe_sd) = (self.d, self.d2, &self.safe_sd[..]);
        let mut changes = Vec::new();
        // columns of the current row that take the exact predicate
        let mut exact: Vec<usize> = Vec::new();
        let mut start = first;
        let mut rest = comoment;
        for i in rows {
            let (row, tail) = std::mem::take(&mut rest).split_at_mut(genes - i - 1);
            rest = tail;
            let cols = start..start + row.len();
            // the retained pairs always do: a rejected one is a removal
            exact.clear();
            exact.extend(set_bits(self.present, cols.clone()).map(|idx| idx - start));
            let retained = exact.len();
            let di = &d[i * stride..i * stride + k];
            let lo_i = self.lo * safe_sd[i];
            let later = d2[(i + 1) * stride..]
                .chunks_exact(stride)
                .zip(&safe_sd[i + 1..]);
            for (col, (c, (dj, &sd_j))) in row.iter_mut().zip(later).enumerate() {
                let mut v = *c;
                for (a, b) in di.iter().zip(dj) {
                    v += a * b;
                }
                *c = v;
                // false for a NaN on either side, as the exact path needs
                let rejected = v < lo_i * sd_j;
                if !rejected {
                    exact.push(col);
                }
            }
            if retained > 0 && exact.len() > retained {
                exact.sort_unstable();
                exact.dedup();
            }
            for &col in &exact {
                let j = i + 1 + col;
                let set = bit(self.present, start + col);
                let keep = self.keep(row[col], i, j);
                if keep != set {
                    changes.push((i, j, keep));
                }
            }
            start = cols.end;
        }
        changes
    }

    /// The exact retention predicate of pair `(i, j)` with co-moment `c`.
    fn keep(&self, c: f64, i: usize, j: usize) -> bool {
        let denom = self.sd[i] * self.sd[j];
        let rho = if denom > 0.0 { c / denom } else { 0.0 };
        rho >= self.params.min_rho && pearson_p_value(rho, self.n) <= self.params.max_p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbn_expr::{CorrelationNetwork, SyntheticMicroarray, SyntheticParams};

    fn arr(genes: usize, samples: usize, seed: u64) -> SyntheticMicroarray {
        SyntheticMicroarray::generate(
            &SyntheticParams {
                genes,
                samples,
                modules: 4,
                module_size: 6,
                loading_sq: 0.95,
            },
            seed,
        )
    }

    #[test]
    fn pair_index_and_set_bit_walk_enumerate_the_triangle() {
        for genes in [2usize, 3, 7, 20, 70] {
            let mut all = Vec::new();
            for i in 0..genes {
                for j in (i + 1)..genes {
                    assert_eq!(pair_index(genes, i, j), all.len());
                    all.push((i, j));
                }
            }
            assert_eq!(all.len(), genes * (genes - 1) / 2);
            // every bit set: the walk yields every pair, in order
            let mut oc = OnlineCorrelation::new(genes, NetworkParams::default());
            for idx in 0..all.len() {
                oc.present[idx / 64] |= 1u64 << (idx % 64);
            }
            assert_eq!(oc.retained().collect::<Vec<_>>(), all);
            // every third bit: the walk yields exactly those pairs
            oc.present.fill(0);
            let third: Vec<(usize, usize)> = all.iter().copied().step_by(3).collect();
            for idx in (0..all.len()).step_by(3) {
                oc.present[idx / 64] |= 1u64 << (idx % 64);
            }
            assert_eq!(oc.retained().collect::<Vec<_>>(), third);
        }
    }

    #[test]
    fn row_blocks_tile_the_triangle() {
        for genes in [0usize, 1, 2, 40, 600] {
            let pairs = genes * genes.saturating_sub(1) / 2;
            let mut c = vec![0.0; pairs];
            let blocks = row_blocks(genes, &mut c);
            let (mut row, mut first) = (0usize, 0usize);
            for (rows, at, slice) in &blocks {
                assert_eq!((rows.start, *at), (row, first));
                let count: usize = rows.clone().map(|i| genes - i - 1).sum();
                assert_eq!(slice.len(), count);
                assert!(count <= BLOCK_PAIRS || rows.len() == 1);
                row = rows.end;
                first += count;
            }
            assert_eq!(first, pairs);
            assert!(blocks.len() > 1 || pairs <= BLOCK_PAIRS);
        }
    }

    #[test]
    fn single_batch_matches_batch_network() {
        let a = arr(60, 16, 3);
        let params = NetworkParams {
            min_rho: 0.8,
            max_p: 0.01,
        };
        let mut oc = OnlineCorrelation::new(60, params);
        let delta = oc.ingest(&a.matrix);
        assert!(delta.removes.is_empty(), "first batch cannot remove edges");
        let batch = CorrelationNetwork::from_expression_seq(&a.matrix, params);
        assert!(batch.graph.m() > 0, "reference network must be non-trivial");
        assert!(oc.graph().same_edges(&batch.graph));
        assert_eq!(oc.edges(), batch.graph.m());
        assert_eq!(delta.inserts.len(), batch.graph.m());
        // ρ agrees with the batch coefficients to tight tolerance
        for &((u, v), rho) in &batch.weights {
            assert!(
                (oc.rho(u as usize, v as usize) - rho).abs() < 1e-12,
                "rho({u},{v})"
            );
        }
    }

    #[test]
    fn batch_split_is_bit_identical() {
        let a = arr(40, 18, 11);
        let params = NetworkParams::default();
        let mut whole = OnlineCorrelation::new(40, params);
        whole.ingest(&a.matrix);
        let mut split = OnlineCorrelation::new(40, params);
        for (lo, hi) in [(0, 5), (5, 6), (6, 13), (13, 18)] {
            split.ingest(&a.matrix.columns(lo, hi));
        }
        assert_eq!(whole.samples(), split.samples());
        for g in 0..40 {
            assert_eq!(whole.mean(g).to_bits(), split.mean(g).to_bits(), "mean {g}");
            assert_eq!(whole.m2(g).to_bits(), split.m2(g).to_bits(), "m2 {g}");
        }
        for i in 0..40 {
            for j in (i + 1)..40 {
                assert_eq!(
                    whole.co_moment(i, j).to_bits(),
                    split.co_moment(i, j).to_bits(),
                    "C({i},{j})"
                );
            }
        }
        assert!(whole.graph().same_edges(&split.graph()));
    }

    #[test]
    fn deltas_track_membership_exactly() {
        let a = arr(50, 20, 7);
        let params = NetworkParams {
            min_rho: 0.7,
            max_p: 0.05,
        };
        let mut oc = OnlineCorrelation::new(50, params);
        let mut mirror = Graph::new(50);
        let mut churn = 0usize;
        for (lo, hi) in [(0, 4), (4, 8), (8, 14), (14, 20)] {
            let delta = oc.ingest(&a.matrix.columns(lo, hi));
            for &(u, v) in &delta.removes {
                assert!(mirror.remove_edge(u, v), "phantom remove ({u},{v})");
            }
            for &(u, v) in &delta.inserts {
                assert!(mirror.add_edge(u, v), "phantom insert ({u},{v})");
            }
            churn += delta.len();
            assert!(oc.graph().same_edges(&mirror));
            assert_eq!(oc.edges(), mirror.m());
        }
        assert!(churn > 0, "stream must produce some churn");
        // noisy early estimates must have produced at least one retraction
        // at these loose thresholds (sharpening estimates drop edges)
        let final_net = CorrelationNetwork::from_expression_seq(&a.matrix, params);
        assert!(mirror.same_edges(&final_net.graph));
    }

    #[test]
    fn zero_variance_and_degenerate_batches() {
        let params = NetworkParams::default();
        let mut oc = OnlineCorrelation::new(3, params);
        // constant genes: no variance, no edges, no NaNs
        let m = ExpressionMatrix::from_rows(3, 4, vec![1.0; 12]);
        let delta = oc.ingest(&m);
        assert!(delta.is_empty());
        assert_eq!(oc.rho(0, 1), 0.0);
        // empty batch is a no-op
        let delta = oc.ingest(&ExpressionMatrix::zeros(3, 0));
        assert!(delta.is_empty());
        assert_eq!(oc.samples(), 4);
        // zero genes
        let mut oc = OnlineCorrelation::new(0, params);
        assert!(oc.ingest(&ExpressionMatrix::zeros(0, 5)).is_empty());
    }

    #[test]
    #[should_panic(expected = "gene count")]
    fn mismatched_batch_panics() {
        let mut oc = OnlineCorrelation::new(4, NetworkParams::default());
        oc.ingest(&ExpressionMatrix::zeros(5, 2));
    }

    #[test]
    fn weights_cover_retained_edges() {
        let a = arr(30, 15, 9);
        let params = NetworkParams {
            min_rho: 0.75,
            max_p: 0.05,
        };
        let mut oc = OnlineCorrelation::new(30, params);
        oc.ingest(&a.matrix);
        let w = oc.weights();
        assert_eq!(w.len(), oc.edges());
        for ((u, v), rho) in w {
            assert!(oc.pair_retained(u as usize, v as usize));
            assert!(rho >= params.min_rho);
            let direct = a.matrix.pearson(u as usize, v as usize);
            assert!((rho - direct).abs() < 1e-9, "({u},{v}): {rho} vs {direct}");
        }
    }

    #[test]
    fn work_ops_accumulate() {
        let a = arr(30, 10, 1);
        let mut oc = OnlineCorrelation::new(30, NetworkParams::default());
        oc.ingest(&a.matrix.columns(0, 5));
        let after_first = oc.work_ops();
        assert!(after_first > 0);
        oc.ingest(&a.matrix.columns(5, 10));
        assert!(oc.work_ops() > after_first);
    }

    #[test]
    fn parallel_path_matches_small_path() {
        // force a gene count big enough to cross the parallel threshold
        // (pairs >= 2^15 needs genes >= 257) and check against a second
        // accumulator fed the same data in a different batching
        let a = SyntheticMicroarray::generate(
            &SyntheticParams {
                genes: 300,
                samples: 10,
                modules: 10,
                module_size: 8,
                loading_sq: 0.97,
            },
            5,
        );
        let params = NetworkParams {
            min_rho: 0.85,
            max_p: 0.01,
        };
        let mut whole = OnlineCorrelation::new(300, params);
        whole.ingest(&a.matrix);
        let mut split = OnlineCorrelation::new(300, params);
        for (lo, hi) in [(0, 3), (3, 7), (7, 10)] {
            split.ingest(&a.matrix.columns(lo, hi));
        }
        assert!(whole.edges() > 0);
        assert!(whole.graph().same_edges(&split.graph()));
        let batch = CorrelationNetwork::from_expression_seq(&a.matrix, params);
        assert!(whole.graph().same_edges(&batch.graph));
    }
}
