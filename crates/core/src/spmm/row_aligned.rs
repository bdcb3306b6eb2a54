//! Row-aligned merge-path kernel for block-diagonal mega-batches.
//!
//! [`BatchMergeSpmm`] runs the same 2-D merge-path search as
//! [`MergePathSpmm`](super::MergePathSpmm) over the concatenated
//! `rows + nnz` of a packed batch, but **snaps every thread boundary to a
//! row edge**: no row is ever split across threads. The partition is the
//! engine's own row cut (`row_aligned_starts`), the one that cuts every
//! column batch's row spans, so a plan's threads are the spans the engine
//! would run at that many workers. Each non-empty row
//! becomes exactly one [`Flush::Regular`] segment, so the plan has zero
//! shared rows, zero atomic flushes, and zero carries.
//!
//! Why give up intra-row splitting? Mega-batches pack thousands of tiny
//! graphs whose longest row holds a few hundred non-zeros, so the
//! worst-case boundary deviation from the ideal merge-path split is one
//! row's nnz — noise against the batch total — while the payoff is
//! exact: every output row has a single writer that accumulates its
//! non-zeros in one flat ascending pass, which is the same float
//! fold [`execute_sequential`](crate::executor::execute_sequential)
//! performs. Packed execution is therefore **bit-identical** to running
//! each constituent sequentially, on every data path and at every
//! worker count. Load balance stays global: boundaries are
//! placed on the concatenated merge path, so a thread may span the tail
//! of one graph and the head of the next.

use mpspmm_sparse::CsrMatrix;

use crate::engine::row_aligned_starts;
use crate::plan::{Flush, KernelPlan, Segment, ThreadPlan};
use crate::tuning::{default_cost_for_dim, thread_count};

use super::SpmmKernel;

/// Merge-path SpMM with row-aligned thread boundaries — the planner for
/// block-diagonal mega-batches.
///
/// # Example
///
/// ```
/// use mpspmm_core::{BatchMergeSpmm, SpmmKernel};
/// use mpspmm_sparse::{CsrMatrix, DenseMatrix};
///
/// let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0f32), (2, 0, 1.0)])?;
/// let b = DenseMatrix::from_fn(3, 4, |r, c| (r + c) as f32);
/// let (c, stats) = BatchMergeSpmm::with_threads(2).spmm_sequential(&a, &b)?;
/// assert_eq!(c.get(0, 0), 2.0); // 2 * B[1, 0]
/// assert_eq!(stats.atomic_row_updates, 0); // rows are never shared
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchMergeSpmm {
    threads: Option<usize>,
    min_threads: usize,
}

/// Logical-thread floor for batch plans. Batches feed the engine's
/// worker pool, which splits logical threads into worker spans, so
/// a modest floor (not the paper's 1024 GPU-oriented one) keeps plan
/// metadata proportional to the batch instead of dominated by empty
/// threads on small packs.
pub(crate) const BATCH_MIN_THREADS: usize = 64;

impl BatchMergeSpmm {
    /// Auto policy: per-dimension merge-path cost with the
    /// `BATCH_MIN_THREADS` (64) floor.
    pub fn new() -> Self {
        Self {
            threads: None,
            min_threads: BATCH_MIN_THREADS,
        }
    }

    /// Exact logical-thread count (boundaries still snap to rows, so
    /// fewer threads may end up non-empty).
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        Self {
            threads: Some(threads),
            min_threads: 1,
        }
    }

    /// Overrides the minimum-thread floor.
    pub fn min_threads(mut self, min_threads: usize) -> Self {
        self.min_threads = min_threads.max(1);
        self
    }
}

impl Default for BatchMergeSpmm {
    fn default() -> Self {
        Self::new()
    }
}

impl SpmmKernel for BatchMergeSpmm {
    fn name(&self) -> &'static str {
        "BatchMerge-SpMM"
    }

    fn plan(&self, a: &CsrMatrix<f32>, dim: usize) -> KernelPlan {
        let threads = self.threads.unwrap_or_else(|| {
            thread_count(a.merge_items(), default_cost_for_dim(dim), self.min_threads)
        });
        let rp = a.row_ptr();
        let starts = row_aligned_starts(rp, threads);
        let plans = starts
            .iter()
            .enumerate()
            .map(|(t, &start)| {
                let end = starts.get(t + 1).copied().unwrap_or(a.rows());
                let segments = (start..end)
                    .filter(|&row| rp[row + 1] > rp[row])
                    .map(|row| Segment {
                        row,
                        nz_start: rp[row],
                        nz_end: rp[row + 1],
                        flush: Flush::Regular,
                    })
                    .collect();
                ThreadPlan { segments }
            })
            .collect();
        KernelPlan { threads: plans }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{check_kernel, random_dense, random_matrix};
    use super::super::SerialSpmm;
    use super::*;
    use crate::executor::execute_sequential;

    #[test]
    fn plans_are_row_aligned_and_atomic_free() {
        for seed in 0..4 {
            let a = random_matrix(120, 120, 900, seed);
            for threads in [1, 2, 7, 16, 200] {
                let plan = BatchMergeSpmm::with_threads(threads).plan(&a, 16);
                plan.validate(&a).unwrap();
                assert_eq!(plan.num_threads(), threads);
                let stats = plan.write_stats();
                assert_eq!(stats.atomic_row_updates, 0);
                assert_eq!(stats.serial_row_updates, 0);
                assert_eq!(stats.regular_nnz, a.nnz());
                // Each non-empty row is exactly one segment.
                let seg_rows: Vec<_> = plan.iter_segments().map(|(_, s)| s.row).collect();
                let mut sorted = seg_rows.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(seg_rows.len(), sorted.len(), "a row was split");
            }
        }
    }

    #[test]
    fn matches_oracle_on_random_matrices() {
        for seed in 0..4 {
            let a = random_matrix(80, 80, 500, seed);
            for threads in [1, 3, 8, 64] {
                check_kernel(&BatchMergeSpmm::with_threads(threads), &a, 8);
            }
            check_kernel(&BatchMergeSpmm::new(), &a, 16);
        }
    }

    #[test]
    fn replay_matches_the_oracle_at_every_width() {
        let a = random_matrix(60, 60, 400, 5);
        for dim in [1, 5, 16, 33] {
            check_kernel(&BatchMergeSpmm::with_threads(7), &a, dim);
        }
    }

    #[test]
    fn sequential_execution_bit_matches_serial_reference() {
        // Both plans put each row in one flat ascending segment, so the
        // float fold is identical — not just close.
        let a = random_matrix(90, 90, 700, 11);
        let b = random_dense(90, 16, 3);
        let reference = {
            let plan = SerialSpmm.plan(&a, 16);
            execute_sequential(&plan, &a, &b).unwrap().0
        };
        for threads in [1, 5, 13, 64] {
            let plan = BatchMergeSpmm::with_threads(threads).plan(&a, 16);
            let (got, _) = execute_sequential(&plan, &a, &b).unwrap();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn evil_row_is_never_split() {
        let mut triplets: Vec<(usize, usize, f32)> = (0..100).map(|c| (0, c, 1.0)).collect();
        for r in 1..51 {
            triplets.push((r, r, 1.0));
        }
        let a = CsrMatrix::from_triplets(101, 101, &triplets).unwrap();
        let plan = BatchMergeSpmm::with_threads(10).plan(&a, 16);
        let owners: Vec<_> = plan
            .iter_segments()
            .filter(|(_, s)| s.row == 0)
            .map(|(t, _)| t)
            .collect();
        assert_eq!(owners.len(), 1, "evil row must stay with one thread");
        plan.validate(&a).unwrap();
    }

    #[test]
    fn handles_empty_and_tiny_matrices() {
        let empty = CsrMatrix::<f32>::zeros(0, 4);
        let plan = BatchMergeSpmm::with_threads(4).plan(&empty, 8);
        assert_eq!(plan.nnz_total(), 0);
        let zero_nnz = CsrMatrix::<f32>::zeros(6, 6);
        let plan = BatchMergeSpmm::with_threads(4).plan(&zero_nnz, 8);
        plan.validate(&zero_nnz).unwrap();
        assert_eq!(plan.nnz_total(), 0);
    }
}
