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
//! records each gene's deviations: `d` gene-major (`d[g·k + s]`, a row
//! reads its own k terms) and `d₂` sample-major (`d₂[s·genes + g]`, so
//! one sample's deviations for a run of columns are contiguous). It then
//! makes a single pass over the pair triangle, row by row. Each row is
//! updated in chunks of `CHUNK_COLS` (256) columns: for every sample in
//! stream order, one contiguous pass `C[j] += dᵢₛ·d₂ₛ[j]` over the
//! chunk, which the compiler vectorises and which keeps the chunk's
//! co-moments in L1 across the batch. While the chunk is still in cache,
//! its pairs are tested against the retention predicate (`ρ ≥ min_rho`
//! and `p ≤ max_p`, the paper's thresholds). The pairs whose membership
//! changed come out as an [`EdgeDelta`] in canonical order: edges that
//! crossed the cut, and edges that fell back below it as the running
//! estimates sharpened. The accumulator applies the delta to the live
//! network it owns ([`OnlineCorrelation::network`], a plain [`Graph`]),
//! removes first, then inserts.
//!
//! **Why the bits hold.** Each co-moment still takes exactly the terms
//! `dᵢₛ·d₂ⱼₛ` it took before, added one at a time in stream order
//! (Rust does not contract `a + b·c` into a fused multiply-add), so the
//! chunking changes only which pairs are in flight together, never one
//! pair's operations or their order. The co-moments, network and deltas
//! are the ones a pair-at-a-time loop gives, at every thread count.
//!
//! **Conservative cut.** Almost every pair lies far below the cut, so
//! the sweep first applies a division-free test that can only reject:
//! `C < lo·sdᵢ·sdⱼ`, with `sd = √M2`. It runs on groups of `GROUP` (8)
//! columns into a bit mask, `!(C < loᵢ·sdⱼ)` per lane with
//! `loᵢ = lo·sdᵢ`, and only a group with a survivor is scanned. A pair
//! it does not reject, or that the network holds, takes the exact
//! predicate: `ρ = C/(sdᵢ·sdⱼ)`, then `min_rho` and the p-value. The retained set
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
//! block owns its slice of the triangle, and its column chunks and
//! groups depend on the row alone, so the result is bit-identical at
//! every thread count.
//!
//! **The network.** The sweep reads row `i`'s retained pairs from the
//! network's sorted neighbour list above `i`, with a cursor that only
//! moves forward. [`OnlineCorrelation::weights`] walks the network's
//! edges: `O(genes + edges)`, not `O(pairs)`.
//!
//! **The samples.** The accumulator also keeps every sample it has
//! ingested, append-only and sample-major ([`OnlineCorrelation::history`]):
//! `8·genes·n` bytes, 1.7 MB for YNG's 5,348 genes at 40 samples, against
//! the triangle's 114 MB. A checkpoint stores these samples and no pair
//! state. Because both recurrences are sample-sequential, replaying them
//! as one batch (`OnlineCorrelation::replayed`) rebuilds the exact bits
//! of every moment, co-moment and the network; the cost is one sweep
//! over all `n` samples, so a later checkpoint takes longer to resume.
//! Memory stays `O(genes²)` for the live triangle.
//!
//! **Finite inputs.** `ingest` expects finite samples; the replay
//! reader and the checkpoint decoder reject any other. The accumulators
//! then stay finite while sample magnitudes stay below about 1e150.
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
/// Columns of a row the sweep updates together: 2 KB of co-moments, which
/// stay in L1 while every sample of the batch passes over them.
const CHUNK_COLS: usize = 256;
/// Lanes of one group of the rejection test.
const GROUP: usize = 8;
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
    /// The live network: the pairs that satisfy the retention predicate.
    net: Graph,
    /// Every sample ingested so far, sample-major (`[s·genes + g]`).
    history: Vec<f64>,
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

impl OnlineCorrelation {
    /// Empty accumulator over `genes` genes with the given thresholds.
    ///
    /// Memory is `O(genes²)` for the co-moment triangle — the price of
    /// exact incremental all-pairs correlation.
    ///
    /// # Panics
    ///
    /// Panics if the pair triangle's size overflows or the allocator
    /// refuses it.
    pub fn new(genes: usize, params: NetworkParams) -> Self {
        Self::try_new(genes, params).expect("the pair triangle fits in memory")
    }

    /// [`OnlineCorrelation::new`], or an error when the pair count
    /// overflows or the allocator refuses the triangle. The triangle is
    /// reserved before anything else is allocated.
    fn try_new(genes: usize, params: NetworkParams) -> Result<Self, &'static str> {
        let pairs = genes
            .checked_mul(genes.saturating_sub(1))
            .ok_or("gene count overflows the pair triangle")?
            / 2;
        let mut comoment = Vec::new();
        comoment
            .try_reserve_exact(pairs)
            .map_err(|_| "the pair triangle does not fit in memory")?;
        // zeroed by writing, so each page faults once: a lazily zeroed
        // page read by the first sweep maps the shared zero page and
        // faults again on the write that follows
        comoment.resize(pairs, 0.0);
        Ok(OnlineCorrelation {
            genes,
            params,
            samples: 0,
            mean: vec![0.0; genes],
            m2: vec![0.0; genes],
            comoment,
            net: Graph::new(genes),
            history: Vec::new(),
            work_ops: 0,
        })
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

    /// The live network: every pair that satisfies the retention
    /// predicate (`ρ ≥ min_rho` and `p ≤ max_p` at the current sample
    /// count).
    #[inline]
    pub fn network(&self) -> &Graph {
        &self.net
    }

    /// Retained edges with their current ρ, canonical order.
    pub fn weights(&self) -> Vec<((VertexId, VertexId), f64)> {
        self.net
            .edges()
            .map(|(u, v)| ((u, v), self.rho(u as usize, v as usize)))
            .collect()
    }

    /// Every sample ingested so far, sample-major: sample `s`'s value of
    /// gene `g` sits at `s·genes + g`. This is all a checkpoint stores of
    /// the accumulator besides its scalars.
    #[inline]
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Rebuild an accumulator from `samples` checkpointed samples
    /// (`history`, sample-major as [`OnlineCorrelation::history`] holds
    /// them) by replaying them as one batch, then restore the
    /// checkpoint's `work_ops`. The recurrences are sample-sequential, so
    /// every moment, co-moment and network edge comes back
    /// **bit-identical** to the accumulator that wrote them. The replay
    /// charges no `stream.*` counter. The thresholds must be finite; the
    /// caller has already rejected non-finite samples while decoding them.
    pub(crate) fn replayed(
        genes: usize,
        samples: usize,
        params: NetworkParams,
        history: &[f64],
        work_ops: u64,
    ) -> Result<OnlineCorrelation, &'static str> {
        if !params.min_rho.is_finite() {
            return Err("checkpoint min_rho is not finite");
        }
        if !params.max_p.is_finite() {
            return Err("checkpoint max_p is not finite");
        }
        if Some(history.len()) != genes.checked_mul(samples) {
            return Err("sample array length mismatch");
        }
        let mut online = OnlineCorrelation::try_new(genes, params)?;
        // gene-major rows for the batch, read off the sample-major log
        let mut rows = vec![0.0f64; history.len()];
        for (s, sample) in history.chunks_exact(genes.max(1)).enumerate() {
            for (g, &x) in sample.iter().enumerate() {
                rows[g * samples + s] = x;
            }
        }
        online.advance(&ExpressionMatrix::from_rows(genes, samples, rows));
        online.work_ops = work_ops;
        Ok(online)
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
        let (genes, k, pairs) = (self.genes, batch.samples(), self.comoment.len());
        // charged at the analytic sites (outside the parallel region),
        // so the counters are thread-count-invariant
        if k > 0 && genes > 0 {
            casbn_obs::counter_add("stream.moment_updates", (genes * k) as u64);
            casbn_obs::counter_add("stream.comoment_updates", (pairs * k) as u64);
        }
        casbn_obs::counter_add("stream.scan_pairs", pairs as u64);
        self.advance(batch)
    }

    /// [`OnlineCorrelation::ingest`] without the telemetry counters:
    /// advance the moments, log the samples, sweep the triangle and apply
    /// the delta.
    fn advance(&mut self, batch: &ExpressionMatrix) -> EdgeDelta {
        let (genes, k, pairs) = (self.genes, batch.samples(), self.comoment.len());

        // per-gene Welford moments, sample-sequential; record the
        // pre-update deviations gene-major (a row reads its own k terms)
        // and the post-update ones sample-major (a row chunk reads one
        // contiguous run per sample)
        let mut d = vec![0.0f64; genes * k];
        let mut d2 = vec![0.0f64; genes * k];
        self.history.reserve(genes * k);
        for s in 0..k {
            self.samples += 1;
            let n = self.samples as f64;
            for g in 0..genes {
                let x = batch.row(g)[s];
                self.history.push(x);
                let dev = x - self.mean[g];
                self.mean[g] += dev / n;
                let dev2 = x - self.mean[g];
                self.m2[g] += dev * dev2;
                d[g * k + s] = dev;
                d2[s * genes + g] = dev2;
            }
        }
        self.work_ops += ((genes + pairs) * k + pairs) as u64;

        // one sweep: advance every co-moment and re-test its pair
        let sd: Vec<f64> = self.m2.iter().map(|&m| m.sqrt()).collect();
        let sweep = Sweep {
            genes,
            k,
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
            net: &self.net,
        };
        let blocks = row_blocks(genes, &mut self.comoment);
        let run = |(rows, c): Block<'_>| sweep.block(rows, c);
        let changes: Vec<Vec<Change>> = if pairs >= PARALLEL_PAIR_THRESHOLD {
            blocks.into_par_iter().map(run).collect()
        } else {
            blocks.into_iter().map(run).collect()
        };

        let mut delta = EdgeDelta::default();
        for (i, j, keep) in changes.into_iter().flatten() {
            let edge = (i as VertexId, j as VertexId);
            if keep {
                delta.inserts.push(edge);
            } else {
                delta.removes.push(edge);
            }
        }
        self.net.apply(&delta);
        delta
    }
}

/// A row block of the sweep: its rows and its slice of the co-moment
/// triangle.
type Block<'a> = (Range<usize>, &'a mut [f64]);

/// Cut the triangle's rows into blocks of about `BLOCK_PAIRS` pairs.
/// The cut depends on the gene count alone, never on the thread count.
fn row_blocks(genes: usize, comoment: &mut [f64]) -> Vec<Block<'_>> {
    let mut blocks = Vec::new();
    let mut rest = comoment;
    let mut row = 0usize;
    while row + 1 < genes {
        let start = row;
        let mut count = 0usize;
        while row + 1 < genes && (count == 0 || count + (genes - row - 1) <= BLOCK_PAIRS) {
            count += genes - row - 1;
            row += 1;
        }
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(count);
        rest = tail;
        blocks.push((start..row, head));
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
    /// Deviations from the pre-update means, gene-major (`d[g·k + s]`).
    d: &'a [f64],
    /// Deviations from the post-update means, sample-major
    /// (`d2[s·genes + g]`).
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
    /// The network before the batch.
    net: &'a Graph,
}

impl Sweep<'_> {
    /// Advance and re-test the pairs of `rows`, whose co-moments are
    /// `comoment`. Returns the membership changes in canonical order.
    fn block(&self, rows: Range<usize>, comoment: &mut [f64]) -> Vec<Change> {
        let (genes, k) = (self.genes, self.k);
        let mut changes = Vec::new();
        // columns of the current row that take the exact predicate
        let mut exact: Vec<usize> = Vec::new();
        let mut rest = comoment;
        for i in rows {
            let (row, tail) = std::mem::take(&mut rest).split_at_mut(genes - i - 1);
            rest = tail;
            // the retained pairs always do: a rejected one is a removal
            let nbrs = self.net.neighbors(i as VertexId);
            let above = &nbrs[nbrs.partition_point(|&j| j as usize <= i)..];
            exact.clear();
            exact.extend(above.iter().map(|&j| j as usize - i - 1));
            let retained = exact.len();
            let di = &self.d[i * k..(i + 1) * k];
            let lo_i = self.lo * self.safe_sd[i];
            for (chunk, c) in row.chunks_mut(CHUNK_COLS).enumerate() {
                let c0 = chunk * CHUNK_COLS;
                let j0 = i + 1 + c0;
                let j1 = j0 + c.len();
                // each co-moment takes the batch's terms in stream order
                for (s, &a) in di.iter().enumerate() {
                    let b = &self.d2[s * genes + j0..s * genes + j1];
                    for (v, &b) in c.iter_mut().zip(b) {
                        *v += a * b;
                    }
                }
                survivors(c, &self.safe_sd[j0..j1], lo_i, c0, &mut exact);
            }
            if retained > 0 && exact.len() > retained {
                exact.sort_unstable();
                exact.dedup();
            }
            // `exact` is ascending and holds every retained column, so
            // one cursor over `above` tells which of them are retained
            let mut next = 0usize;
            for &col in &exact {
                let j = i + 1 + col;
                let set = above.get(next) == Some(&(j as VertexId));
                next += usize::from(set);
                let keep = self.keep(row[col], i, j);
                if keep != set {
                    changes.push((i, j, keep));
                }
            }
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

/// Push `offset + col` for every column of `c` that the rejection test
/// `c < lo_i·sdⱼ` does not reject, ascending. The test runs on groups of
/// `GROUP` lanes into a bit mask of rejections (a NaN on either side
/// rejects nothing, as the exact path needs), and only a group with a
/// survivor is scanned.
fn survivors(c: &[f64], sd: &[f64], lo_i: f64, offset: usize, out: &mut Vec<usize>) {
    let rejected = |cg: &[f64], sg: &[f64]| {
        let mut mask = 0u32;
        for (l, (&v, &sd_j)) in cg.iter().zip(sg).enumerate() {
            mask |= u32::from(v < lo_i * sd_j) << l;
        }
        mask
    };
    let mut push = |base: usize, mut kept: u32| {
        while kept != 0 {
            out.push(offset + base + kept.trailing_zeros() as usize);
            kept &= kept - 1;
        }
    };
    let full = c.len() - c.len() % GROUP;
    let groups = c[..full].chunks_exact(GROUP).zip(sd.chunks_exact(GROUP));
    for (g, (cg, sg)) in groups.enumerate() {
        let kept = !rejected(cg, sg) & ((1 << GROUP) - 1);
        if kept != 0 {
            push(g * GROUP, kept);
        }
    }
    let tail = c.len() - full;
    push(full, !rejected(&c[full..], &sd[full..]) & ((1 << tail) - 1));
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
    fn replayed_history_rebuilds_the_accumulator_bit_for_bit() {
        let a = arr(40, 14, 5);
        let params = NetworkParams {
            min_rho: 0.7,
            max_p: 0.05,
        };
        for genes in [0usize, 1, 40] {
            let m = ExpressionMatrix::from_rows(genes, 14, a.matrix.data()[..genes * 14].to_vec());
            let mut live = OnlineCorrelation::new(genes, params);
            for (lo, hi) in [(0, 3), (3, 4), (4, 4), (4, 9), (9, 14)] {
                live.ingest(&m.columns(lo, hi));
            }
            for s in 0..14 {
                for g in 0..genes {
                    assert_eq!(
                        live.history()[s * genes + g].to_bits(),
                        m.row(g)[s].to_bits()
                    );
                }
            }
            let back =
                OnlineCorrelation::replayed(genes, 14, params, live.history(), live.work_ops())
                    .unwrap();
            assert_eq!(back.samples(), live.samples());
            assert_eq!(back.work_ops(), live.work_ops());
            assert_eq!(back.history(), live.history());
            assert_eq!(back.network().edge_vec(), live.network().edge_vec());
            for g in 0..genes {
                assert_eq!(back.mean(g).to_bits(), live.mean(g).to_bits(), "mean {g}");
                assert_eq!(back.m2(g).to_bits(), live.m2(g).to_bits(), "m2 {g}");
            }
            for (x, y) in back.comoment.iter().zip(&live.comoment) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let ok = NetworkParams::default();
        assert!(OnlineCorrelation::replayed(3, 2, ok, &[1.0; 7], 0).is_err());
        let nan = NetworkParams {
            min_rho: f64::NAN,
            ..ok
        };
        assert!(OnlineCorrelation::replayed(3, 0, nan, &[], 0).is_err());
        // a pair count past usize, and a triangle of 2^60 bytes: both
        // are refused before anything is allocated or touched
        let err = OnlineCorrelation::replayed(1 << 40, 0, ok, &[], 0).err();
        assert_eq!(err, Some("gene count overflows the pair triangle"));
        let err = OnlineCorrelation::replayed(1 << 29, 0, ok, &[], 0).err();
        assert_eq!(err, Some("the pair triangle does not fit in memory"));
    }

    #[test]
    fn row_blocks_tile_the_triangle() {
        for genes in [0usize, 1, 2, 40, 600] {
            let pairs = genes * genes.saturating_sub(1) / 2;
            let mut c = vec![0.0; pairs];
            let blocks = row_blocks(genes, &mut c);
            let (mut row, mut covered) = (0usize, 0usize);
            for (rows, slice) in &blocks {
                assert_eq!(rows.start, row);
                let count: usize = rows.clone().map(|i| genes - i - 1).sum();
                assert_eq!(slice.len(), count);
                assert!(count <= BLOCK_PAIRS || rows.len() == 1);
                row = rows.end;
                covered += count;
            }
            assert_eq!(covered, pairs);
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
        assert!(oc.network().same_edges(&batch.graph));
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
        assert!(whole.network().same_edges(split.network()));
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
            assert!(oc.network().same_edges(&mirror));
            assert_eq!(oc.network().m(), mirror.m());
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
        assert_eq!(w.len(), oc.network().m());
        for ((u, v), rho) in w {
            assert!(oc.network().has_edge(u, v));
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
        assert!(whole.network().m() > 0);
        assert!(whole.network().same_edges(split.network()));
        let batch = CorrelationNetwork::from_expression_seq(&a.matrix, params);
        assert!(whole.network().same_edges(&batch.graph));
    }
}
