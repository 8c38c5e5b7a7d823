//! Dense genes × samples expression matrix.

use serde::{Deserialize, Serialize};

/// A genes × samples matrix, row-major: row `g` holds gene `g`'s
/// expression across all arrays.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExpressionMatrix {
    genes: usize,
    samples: usize,
    data: Vec<f64>,
}

impl ExpressionMatrix {
    /// Zero-filled matrix.
    pub fn zeros(genes: usize, samples: usize) -> Self {
        ExpressionMatrix {
            genes,
            samples,
            data: vec![0.0; genes * samples],
        }
    }

    /// Build from row-major data.
    pub fn from_rows(genes: usize, samples: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), genes * samples, "shape mismatch");
        ExpressionMatrix {
            genes,
            samples,
            data,
        }
    }

    /// Number of genes (rows).
    #[inline]
    pub fn genes(&self) -> usize {
        self.genes
    }

    /// Number of samples (columns).
    #[inline]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The full row-major backing array (`genes × samples` values) —
    /// what the `.csbn` matrix codec serialises in one bulk write.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Expression profile of gene `g`.
    #[inline]
    pub fn row(&self, g: usize) -> &[f64] {
        &self.data[g * self.samples..(g + 1) * self.samples]
    }

    /// Mutable expression profile of gene `g`.
    #[inline]
    pub fn row_mut(&mut self, g: usize) -> &mut [f64] {
        &mut self.data[g * self.samples..(g + 1) * self.samples]
    }

    /// Z-score every row (mean 0, unit variance). Rows with zero variance
    /// are left at zero. After standardisation, the Pearson correlation of
    /// two genes is `dot(row_a, row_b) / samples`.
    pub fn standardized(&self) -> ExpressionMatrix {
        let mut out = self.clone();
        for g in 0..self.genes {
            standardize_row(out.row_mut(g));
        }
        out
    }

    /// The sample columns `lo..hi` as a standalone genes × `(hi - lo)`
    /// matrix — how the streaming pipeline cuts a replay into ingest
    /// windows.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > self.samples()`.
    pub fn columns(&self, lo: usize, hi: usize) -> ExpressionMatrix {
        assert!(
            lo <= hi && hi <= self.samples,
            "column range {lo}..{hi} out of bounds for {} samples",
            self.samples
        );
        let mut out = ExpressionMatrix::zeros(self.genes, hi - lo);
        for g in 0..self.genes {
            out.row_mut(g).copy_from_slice(&self.row(g)[lo..hi]);
        }
        out
    }

    /// Pearson correlation of genes `a` and `b` (direct formula, used by
    /// tests to cross-check the fast standardised path).
    pub fn pearson(&self, a: usize, b: usize) -> f64 {
        let (ra, rb) = (self.row(a), self.row(b));
        let s = self.samples as f64;
        let (ma, mb) = (ra.iter().sum::<f64>() / s, rb.iter().sum::<f64>() / s);
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for i in 0..self.samples {
            let (da, db) = (ra[i] - ma, rb[i] - mb);
            cov += da * db;
            va += da * da;
            vb += db * db;
        }
        if va == 0.0 || vb == 0.0 {
            0.0
        } else {
            cov / (va.sqrt() * vb.sqrt())
        }
    }
}

/// Z-score one expression row in place — the single expression behind
/// [`ExpressionMatrix::standardized`], so a row standardized on its own
/// is bit-identical to the same row of the standardized matrix. A row
/// with zero or NaN variance becomes all zeros.
pub(crate) fn standardize_row(row: &mut [f64]) {
    let s = row.len() as f64;
    let mean = row.iter().sum::<f64>() / s;
    let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / s;
    if var > 0.0 {
        let sd = var.sqrt();
        for x in row.iter_mut() {
            *x = (*x - mean) / sd;
        }
    } else {
        row.fill(0.0);
    }
}

/// Standard-normal sampling via Box–Muller (rand's core crate does not
/// ship distributions; two uniforms → one normal keeps the dependency
/// surface small).
pub(crate) fn normal(rng: &mut impl rand::Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn shape_and_rows() {
        let m = ExpressionMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.genes(), 2);
        assert_eq!(m.samples(), 3);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn standardized_rows_are_zscores() {
        let m = ExpressionMatrix::from_rows(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let z = m.standardized();
        let row = z.row(0);
        let mean: f64 = row.iter().sum::<f64>() / 4.0;
        let var: f64 = row.iter().map(|x| x * x).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_rows_standardize_to_zero() {
        let m = ExpressionMatrix::from_rows(1, 3, vec![5.0, 5.0, 5.0]);
        let z = m.standardized();
        assert_eq!(z.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn columns_slices_and_bounds_check() {
        let m = ExpressionMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let c = m.columns(1, 3);
        assert_eq!(c.genes(), 2);
        assert_eq!(c.samples(), 2);
        assert_eq!(c.row(0), &[2.0, 3.0]);
        assert_eq!(c.row(1), &[5.0, 6.0]);
        let empty = m.columns(2, 2);
        assert_eq!(empty.samples(), 0);
        assert!(std::panic::catch_unwind(|| m.columns(2, 4)).is_err());
        assert!(std::panic::catch_unwind(|| m.columns(3, 2)).is_err());
    }

    #[test]
    fn pearson_perfect_correlation() {
        let m = ExpressionMatrix::from_rows(2, 4, vec![1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]);
        assert!((m.pearson(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_anticorrelation() {
        let m = ExpressionMatrix::from_rows(2, 4, vec![1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0]);
        assert!((m.pearson(0, 1) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_matches_standardized_dot() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let data: Vec<f64> = (0..5 * 10).map(|_| normal(&mut rng)).collect();
        let m = ExpressionMatrix::from_rows(5, 10, data);
        let z = m.standardized();
        for a in 0..5 {
            for b in 0..5 {
                let dot: f64 = z
                    .row(a)
                    .iter()
                    .zip(z.row(b))
                    .map(|(x, y)| x * y)
                    .sum::<f64>()
                    / 10.0;
                assert!(
                    (dot - m.pearson(a, b)).abs() < 1e-9,
                    "mismatch at ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
