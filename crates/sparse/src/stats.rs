//! Row-length (degree) statistics for sparse matrices.
//!
//! The paper motivates MergePath-SpMM with the power-law degree
//! distributions of real-world graphs (Figure 1) and characterizes every
//! evaluation input by node count, non-zero count, average degree, and
//! maximum degree (Table II). This module computes those quantities plus
//! skew measures (Gini coefficient, tail CCDF) used by the generators'
//! verification tests and the Figure 1 harness.

use crate::CsrMatrix;

/// Summary statistics of a sparse matrix's row lengths.
///
/// For an adjacency matrix, row length is out-degree, so these are exactly
/// the per-graph columns of the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Number of rows (graph nodes).
    pub rows: usize,
    /// Number of stored non-zeros (graph edges / adjacency entries).
    pub nnz: usize,
    /// Mean row length ("Avg. Deg." in Table II).
    pub avg: f64,
    /// Maximum row length ("Max. Deg." in Table II) — the length of the
    /// worst *evil row*.
    pub max: usize,
    /// Minimum row length.
    pub min: usize,
    /// Number of empty rows (zero-length rows the merge path must also
    /// distribute equitably).
    pub empty_rows: usize,
    /// Gini coefficient of the row lengths in `[0, 1]`; 0 = perfectly even
    /// (structured graphs), → 1 = extremely skewed (power law).
    pub gini: f64,
    /// 99th percentile row length.
    pub p99: usize,
}

impl DegreeStats {
    /// Computes statistics for a matrix.
    pub fn compute<T>(matrix: &CsrMatrix<T>) -> Self {
        let mut lengths = matrix.row_lengths();
        let rows = lengths.len();
        let nnz = matrix.nnz();
        if rows == 0 {
            return Self {
                rows: 0,
                nnz,
                avg: 0.0,
                max: 0,
                min: 0,
                empty_rows: 0,
                gini: 0.0,
                p99: 0,
            };
        }
        lengths.sort_unstable();
        let max = *lengths.last().unwrap();
        let min = lengths[0];
        let empty_rows = lengths.iter().take_while(|&&l| l == 0).count();
        let avg = nnz as f64 / rows as f64;
        let p99 = lengths[((rows - 1) as f64 * 0.99) as usize];
        let gini = gini_of_sorted(&lengths);
        Self {
            rows,
            nnz,
            avg,
            max,
            min,
            empty_rows,
            gini,
            p99,
        }
    }

    /// Ratio of the maximum degree to the average degree.
    ///
    /// The paper uses this disparity to identify evil rows — e.g. Nell has
    /// max degree 4549 against an average of 3.8, a ratio of ~1200.
    pub fn evil_row_ratio(&self) -> f64 {
        if self.avg == 0.0 {
            0.0
        } else {
            self.max as f64 / self.avg
        }
    }
}

/// Gini coefficient of a sorted (ascending) slice of non-negative values.
fn gini_of_sorted(sorted: &[usize]) -> f64 {
    let n = sorted.len() as f64;
    let total: f64 = sorted.iter().map(|&v| v as f64).sum();
    if total == 0.0 || sorted.len() < 2 {
        return 0.0;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as f64 + 1.0) * v as f64)
        .sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

/// Histogram of row lengths: `histogram[d]` = number of rows of length `d`.
pub(crate) fn degree_histogram<T>(matrix: &CsrMatrix<T>) -> Vec<usize> {
    let mut hist = Vec::new();
    for r in 0..matrix.rows() {
        let d = matrix.row_nnz(r);
        if d >= hist.len() {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

/// Complementary cumulative distribution of row lengths.
///
/// Returns `(degree, fraction_of_rows_with_length >= degree)` points at the
/// distinct degrees present. Plotting this on log-log axes shows the
/// straight-line tail characteristic of power-law graphs (paper Figure 1).
pub fn degree_ccdf<T>(matrix: &CsrMatrix<T>) -> Vec<(usize, f64)> {
    let hist = degree_histogram(matrix);
    let rows = matrix.rows() as f64;
    if rows == 0.0 {
        return Vec::new();
    }
    let mut remaining = matrix.rows();
    let mut points = Vec::new();
    for (degree, &count) in hist.iter().enumerate() {
        if count > 0 {
            points.push((degree, remaining as f64 / rows));
        }
        remaining -= count;
    }
    points
}

/// Least-squares estimate of the power-law exponent `alpha` for the degree
/// tail, fitted on `log(degree) → log(ccdf)` over degrees `>= d_min`.
///
/// Returns `None` when fewer than three distinct degrees lie in the tail.
/// For a CCDF `P(D >= d) ∝ d^{-(alpha-1)}`, the fitted slope `s` gives
/// `alpha = 1 - s`.
pub fn fit_powerlaw_alpha<T>(matrix: &CsrMatrix<T>, d_min: usize) -> Option<f64> {
    let pts: Vec<(f64, f64)> = degree_ccdf(matrix)
        .into_iter()
        .filter(|&(d, p)| d >= d_min.max(1) && p > 0.0)
        .map(|(d, p)| ((d as f64).ln(), p.ln()))
        .collect();
    if pts.len() < 3 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    Some(1.0 - slope)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    fn matrix_with_lengths(lengths: &[usize]) -> CsrMatrix<f32> {
        let cols = lengths.iter().copied().max().unwrap_or(0).max(1);
        let mut triplets = Vec::new();
        for (r, &len) in lengths.iter().enumerate() {
            for c in 0..len {
                triplets.push((r, c, 1.0));
            }
        }
        CsrMatrix::from_triplets(lengths.len(), cols, &triplets).unwrap()
    }

    #[test]
    fn basic_stats() {
        let m = matrix_with_lengths(&[0, 1, 2, 5]);
        let s = DegreeStats::compute(&m);
        assert_eq!(s.rows, 4);
        assert_eq!(s.nnz, 8);
        assert_eq!(s.max, 5);
        assert_eq!(s.min, 0);
        assert_eq!(s.empty_rows, 1);
        assert!((s.avg - 2.0).abs() < 1e-12);
        assert!((s.evil_row_ratio() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn gini_zero_for_uniform() {
        let m = matrix_with_lengths(&[3, 3, 3, 3]);
        let s = DegreeStats::compute(&m);
        assert!(s.gini.abs() < 1e-12);
    }

    #[test]
    fn gini_increases_with_skew() {
        let even = DegreeStats::compute(&matrix_with_lengths(&[2, 2, 2, 2]));
        let skewed = DegreeStats::compute(&matrix_with_lengths(&[0, 0, 0, 8]));
        assert!(skewed.gini > even.gini);
        assert!(skewed.gini > 0.7);
    }

    #[test]
    fn histogram_counts_rows() {
        let m = matrix_with_lengths(&[0, 1, 1, 3]);
        let h = degree_histogram(&m);
        assert_eq!(h, vec![1, 2, 0, 1]);
    }

    #[test]
    fn ccdf_starts_at_one_and_decreases() {
        let m = matrix_with_lengths(&[0, 1, 2, 4, 4, 9]);
        let ccdf = degree_ccdf(&m);
        assert_eq!(ccdf[0], (0, 1.0));
        for w in ccdf.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
        let last = ccdf.last().unwrap();
        assert_eq!(last.0, 9);
        assert!((last.1 - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn powerlaw_fit_recovers_exponent() {
        // Construct a synthetic degree sequence with an exact power-law
        // histogram: count(d) ∝ d^-3 over d in 1..=64 gives alpha ≈ 3.
        let mut lengths = Vec::new();
        for d in 1usize..=64 {
            let count = (100_000.0 / (d as f64).powi(3)).round() as usize;
            for _ in 0..count {
                lengths.push(d);
            }
        }
        let m = matrix_with_lengths(&lengths);
        let alpha = fit_powerlaw_alpha(&m, 2).unwrap();
        assert!(
            (2.0..4.0).contains(&alpha),
            "fitted alpha {alpha} should be near 3"
        );
    }

    #[test]
    fn powerlaw_fit_requires_tail_points() {
        let m = matrix_with_lengths(&[1, 1, 1]);
        assert!(fit_powerlaw_alpha(&m, 1).is_none());
    }

    #[test]
    fn empty_matrix_stats() {
        let m = CsrMatrix::<f32>::zeros(0, 0);
        let s = DegreeStats::compute(&m);
        assert_eq!(s.rows, 0);
        assert_eq!(s.gini, 0.0);
        assert!(degree_ccdf(&m).is_empty());
    }
}
