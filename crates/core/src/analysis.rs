//! Load-balance analysis of kernel plans.
//!
//! The merge path's defining property (§III-A) is a *tight bound* on
//! per-thread work: no thread owns more than `items_per_thread` merge
//! items, regardless of row-length skew — neither "arbitrarily-long rows"
//! nor "an arbitrarily-large number of zero-length rows" can overload a
//! thread. [`LoadBalance`] quantifies that for any [`KernelPlan`], making
//! the contrast with row-splitting measurable.

use crate::plan::KernelPlan;

/// Distribution statistics of per-logical-thread work in a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadBalance {
    /// Logical threads with at least one non-empty segment.
    pub active_threads: usize,
    /// Total non-zeros across the plan.
    pub total_nnz: usize,
    /// Largest per-thread non-zero count.
    pub max_nnz: usize,
    /// Mean per-thread non-zero count (over active threads).
    pub mean_nnz: f64,
    /// Imbalance factor `max / mean` (1.0 = perfectly balanced); the
    /// quantity that determines parallel completion time under a
    /// work-conserving scheduler.
    pub imbalance: f64,
    /// Coefficient of variation of per-thread non-zeros.
    pub cv: f64,
}

impl LoadBalance {
    /// Computes the distribution for a plan.
    pub fn of(plan: &KernelPlan) -> Self {
        let loads: Vec<usize> = plan
            .threads
            .iter()
            .map(|t| t.nnz())
            .filter(|&n| n > 0)
            .collect();
        let active_threads = loads.len();
        let total_nnz: usize = loads.iter().sum();
        let max_nnz = loads.iter().copied().max().unwrap_or(0);
        let mean = if active_threads == 0 {
            0.0
        } else {
            total_nnz as f64 / active_threads as f64
        };
        let var = if active_threads == 0 {
            0.0
        } else {
            loads
                .iter()
                .map(|&l| {
                    let d = l as f64 - mean;
                    d * d
                })
                .sum::<f64>()
                / active_threads as f64
        };
        Self {
            active_threads,
            total_nnz,
            max_nnz,
            mean_nnz: mean,
            imbalance: if mean > 0.0 {
                max_nnz as f64 / mean
            } else {
                1.0
            },
            cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::test_support::random_matrix;
    use crate::{MergePathSpmm, RowSplitSpmm, SpmmKernel};
    use mpspmm_sparse::CsrMatrix;

    #[test]
    fn balanced_plan_has_unit_imbalance() {
        let triplets: Vec<(usize, usize, f32)> = (0..32).map(|i| (i / 4, i % 4, 1.0)).collect();
        let a = CsrMatrix::from_triplets(8, 4, &triplets).unwrap();
        // 8 rows of 4 nnz, 8 row-split threads → perfectly balanced.
        let plan = RowSplitSpmm::with_threads(8).plan(&a, 16);
        let lb = LoadBalance::of(&plan);
        assert_eq!(lb.active_threads, 8);
        assert_eq!(lb.max_nnz, 4);
        assert!((lb.imbalance - 1.0).abs() < 1e-12);
        assert!(lb.cv < 1e-12);
    }

    #[test]
    fn merge_path_bounds_imbalance_on_evil_rows() {
        // One row holds a third of the non-zeros: row-splitting is badly
        // imbalanced, merge-path stays within its item budget.
        let a = random_matrix(100, 100, 900, 3);
        let rs = LoadBalance::of(&RowSplitSpmm::with_threads(20).plan(&a, 16));
        let mp = LoadBalance::of(&MergePathSpmm::with_threads(20).plan(&a, 16));
        assert!(
            mp.imbalance < rs.imbalance / 2.0,
            "merge-path {:.2} must be far below row-split {:.2}",
            mp.imbalance,
            rs.imbalance
        );
        assert!(
            mp.imbalance < 1.5,
            "merge-path imbalance {:.2}",
            mp.imbalance
        );
        assert_eq!(mp.total_nnz, a.nnz());
        assert_eq!(rs.total_nnz, a.nnz());
    }

    #[test]
    fn merge_path_per_thread_nnz_never_exceeds_budget() {
        let a = random_matrix(200, 200, 2_000, 5);
        for threads in [4usize, 16, 64] {
            let kernel = MergePathSpmm::with_threads(threads);
            let schedule = kernel.schedule(&a, 16);
            let lb = LoadBalance::of(&kernel.plan(&a, 16));
            assert!(
                lb.max_nnz <= schedule.items_per_thread(),
                "{threads} threads: max nnz {} > budget {}",
                lb.max_nnz,
                schedule.items_per_thread()
            );
        }
    }

    #[test]
    fn empty_plan_is_degenerate() {
        let a = CsrMatrix::<f32>::zeros(5, 5);
        let lb = LoadBalance::of(&MergePathSpmm::with_threads(4).plan(&a, 16));
        assert_eq!(lb.active_threads, 0);
    }
}
