//! Row-splitting baseline (§II).
//!
//! Rows are divided into equal contiguous chunks, one per thread. Since
//! each row is owned by exactly one thread, no synchronization is ever
//! needed — but the non-zeros per chunk can differ wildly on power-law
//! graphs (the evil-rows problem), which is the load imbalance the paper's
//! hardware baselines (AWB-GCN et al.) added an auto-tuner to fix.

use mpspmm_sparse::CsrMatrix;

use crate::plan::{Flush, KernelPlan, Segment, ThreadPlan};

use super::SpmmKernel;

/// Row-splitting SpMM: contiguous equal-row chunks, no atomics.
///
/// # Example
///
/// ```
/// use mpspmm_core::{RowSplitSpmm, SpmmKernel};
/// use mpspmm_sparse::{CsrMatrix, DenseMatrix};
///
/// let a = CsrMatrix::from_triplets(4, 4, &[(0, 0, 1.0f32), (3, 3, 1.0)])?;
/// let b = DenseMatrix::from_fn(4, 2, |r, _| r as f32);
/// let (c, _) = RowSplitSpmm::with_threads(2).spmm_sequential(&a, &b)?;
/// assert_eq!(c.get(3, 0), 3.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowSplitSpmm {
    threads: usize,
}

impl RowSplitSpmm {
    /// Row-splitting over `threads` contiguous chunks.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        Self { threads }
    }

    /// Configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for RowSplitSpmm {
    /// 1024 threads — the paper's minimum GPU thread floor.
    fn default() -> Self {
        Self::with_threads(crate::tuning::MIN_THREADS)
    }
}

impl SpmmKernel for RowSplitSpmm {
    fn name(&self) -> &'static str {
        "row-splitting"
    }

    fn plan(&self, a: &CsrMatrix<f32>, _dim: usize) -> KernelPlan {
        let rows = a.rows();
        let rp = a.row_ptr();
        let threads = self.threads.min(rows.max(1));
        let chunk = rows.div_ceil(threads.max(1)).max(1);
        let mut plans = Vec::with_capacity(threads);
        for t in 0..threads {
            let lo = (t * chunk).min(rows);
            let hi = ((t + 1) * chunk).min(rows);
            let segments = (lo..hi)
                .filter(|&r| rp[r + 1] > rp[r])
                .map(|r| Segment {
                    row: r,
                    nz_start: rp[r],
                    nz_end: rp[r + 1],
                    flush: Flush::Regular,
                })
                .collect();
            plans.push(ThreadPlan { segments });
        }
        KernelPlan { threads: plans }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{check_kernel, random_matrix};
    use super::*;

    #[test]
    fn matches_oracle() {
        for seed in 0..3 {
            let a = random_matrix(50, 50, 300, seed);
            for threads in [1, 2, 7, 64] {
                check_kernel(&RowSplitSpmm::with_threads(threads), &a, 8);
            }
        }
    }

    #[test]
    fn replay_matches_the_oracle_at_every_width() {
        let a = random_matrix(50, 50, 300, 31);
        for dim in [1, 5, 16, 33] {
            check_kernel(&RowSplitSpmm::with_threads(7), &a, dim);
        }
    }

    #[test]
    fn never_uses_atomics() {
        let a = random_matrix(64, 64, 400, 1);
        let plan = RowSplitSpmm::with_threads(8).plan(&a, 16);
        let stats = plan.write_stats();
        assert_eq!(stats.atomic_row_updates, 0);
        assert_eq!(stats.regular_nnz, a.nnz());
    }

    #[test]
    fn chunks_are_contiguous_and_disjoint() {
        let a = random_matrix(100, 100, 500, 2);
        let plan = RowSplitSpmm::with_threads(7).plan(&a, 16);
        plan.validate(&a).unwrap();
        let mut last_row = None;
        for (_, seg) in plan.iter_segments() {
            if let Some(prev) = last_row {
                assert!(seg.row > prev, "rows must appear in increasing order");
            }
            last_row = Some(seg.row);
        }
    }

    #[test]
    fn load_imbalance_on_evil_rows() {
        // Row 0 owns most non-zeros: thread 0's nnz dwarfs the others —
        // exactly the §II motivation for nnz-based splitting.
        let mut triplets: Vec<(usize, usize, f32)> = (0..90).map(|c| (0, c, 1.0)).collect();
        for r in 1..30 {
            triplets.push((r, 0, 1.0));
        }
        let a = CsrMatrix::from_triplets(90, 90, &triplets).unwrap();
        let plan = RowSplitSpmm::with_threads(3).plan(&a, 16);
        let nnz_per_thread: Vec<usize> = plan.threads.iter().map(|t| t.nnz()).collect();
        assert!(nnz_per_thread[0] > 5 * nnz_per_thread[1].max(1));
    }

    #[test]
    fn more_threads_than_rows_is_clamped() {
        let a = random_matrix(5, 5, 10, 3);
        let plan = RowSplitSpmm::with_threads(100).plan(&a, 16);
        assert!(plan.num_threads() <= 5);
        plan.validate(&a).unwrap();
    }
}
