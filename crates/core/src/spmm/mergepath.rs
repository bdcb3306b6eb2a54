//! The MergePath-SpMM kernel — Algorithm 2 of the paper.
//!
//! The merge-path schedule equitably splits `rows + nnz` merge items among
//! logical threads (see [`Schedule`]). A thread's first and last rows may
//! be *partial* (shared with neighbouring threads); MergePath-SpMM
//! accumulates those in thread-local storage and flushes them with a
//! **single atomic update each**, while all in-between *complete* rows are
//! written with regular stores. This confines synchronization to at most
//! two output updates per thread — the paper's central idea.

use mpspmm_sparse::CsrMatrix;

use crate::merge_path::Schedule;
use crate::plan::{Flush, KernelPlan, Segment, ThreadPlan};
use crate::tuning::{default_cost_for_dim, thread_count, MIN_THREADS};

use super::SpmmKernel;

/// How MergePath-SpMM picks its logical-thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostPolicy {
    /// Use the paper's empirically tuned merge-path cost for the dense
    /// dimension (Figure 6 table), with the §III-C minimum-thread floor.
    Auto,
    /// Fixed merge-path cost (work items per thread), with the
    /// minimum-thread floor.
    FixedCost(usize),
    /// Exact logical-thread count (used by the multicore evaluation, which
    /// pins one thread per core).
    FixedThreads(usize),
}

/// The proposed load-balanced SpMM kernel (Algorithm 2).
///
/// # Example
///
/// ```
/// use mpspmm_core::{MergePathSpmm, SpmmKernel};
/// use mpspmm_sparse::{CsrMatrix, DenseMatrix};
///
/// let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0f32), (2, 0, 1.0)])?;
/// let b = DenseMatrix::from_fn(3, 4, |r, c| (r + c) as f32);
/// let kernel = MergePathSpmm::with_threads(2);
/// let (c, stats) = kernel.spmm_with_stats(&a, &b)?;
/// assert_eq!(c.get(0, 0), 2.0); // 2 * B[1, 0]
/// assert_eq!(stats.total_nnz(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergePathSpmm {
    policy: CostPolicy,
    min_threads: usize,
}

impl MergePathSpmm {
    /// Auto-tuned kernel: per-dimension merge-path cost from the paper's
    /// Figure 6 table and the 1024-thread small-graph floor.
    pub fn new() -> Self {
        Self {
            policy: CostPolicy::Auto,
            min_threads: MIN_THREADS,
        }
    }

    /// Kernel with a fixed merge-path cost (the Figure 6 sweep parameter).
    pub fn with_cost(cost: usize) -> Self {
        assert!(cost > 0, "merge-path cost must be positive");
        Self {
            policy: CostPolicy::FixedCost(cost),
            min_threads: MIN_THREADS,
        }
    }

    /// Kernel with an exact logical-thread count (one thread per simulated
    /// core in the §V-D multicore evaluation).
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        Self {
            policy: CostPolicy::FixedThreads(threads),
            min_threads: 1,
        }
    }

    /// Overrides the minimum-thread floor (default 1024; §III-C1).
    pub fn min_threads(mut self, min_threads: usize) -> Self {
        self.min_threads = min_threads.max(1);
        self
    }

    /// The active cost policy.
    pub fn policy(&self) -> CostPolicy {
        self.policy
    }

    /// Builds the merge-path schedule this kernel would use for `a` at
    /// dense dimension `dim`.
    ///
    /// In the paper's **offline** setting the schedule is computed once
    /// and reused across inferences; pair this with
    /// [`plan_from_schedule`] to amortize it. The **online** setting
    /// (Figure 8) rebuilds it per inference — simply call
    /// [`SpmmKernel::spmm`] each time.
    pub fn schedule(&self, a: &CsrMatrix<f32>, dim: usize) -> Schedule {
        let threads = match self.policy {
            CostPolicy::Auto => {
                thread_count(a.merge_items(), default_cost_for_dim(dim), self.min_threads)
            }
            CostPolicy::FixedCost(cost) => thread_count(a.merge_items(), cost, self.min_threads),
            CostPolicy::FixedThreads(threads) => threads,
        };
        Schedule::build(a, threads)
    }
}

impl Default for MergePathSpmm {
    fn default() -> Self {
        Self::new()
    }
}

impl SpmmKernel for MergePathSpmm {
    fn name(&self) -> &'static str {
        "MergePath-SpMM"
    }

    fn plan(&self, a: &CsrMatrix<f32>, dim: usize) -> KernelPlan {
        plan_from_schedule(&self.schedule(a, dim), a)
    }
}

/// Lowers a merge-path [`Schedule`] to Algorithm 2's per-thread work.
///
/// For each thread assignment (start/end merge coordinates):
///
/// * a **partial start row** (`start_nz ≠ 0` in the paper's encoding)
///   accumulates locally and flushes atomically (Algorithm 2 lines 4–5 /
///   8–9);
/// * **complete rows** in between write their outputs directly
///   (lines 14–15);
/// * a **partial end row** (`end_nz ≠ 0`) accumulates locally and flushes
///   atomically (lines 12–13).
///
/// Following the paper, the end row is marked partial whenever the
/// thread's boundary falls inside it — even when it lands exactly after
/// the row's last non-zero, in which case the atomic update is
/// conservative but harmless.
///
/// # Panics
///
/// Panics if the schedule was built for a different matrix shape.
pub fn plan_from_schedule(schedule: &Schedule, a: &CsrMatrix<f32>) -> KernelPlan {
    assert!(
        schedule.matches(a),
        "schedule was built for a {}x? matrix with {} nnz, got {}x{} with {}",
        schedule.rows(),
        schedule.nnz(),
        a.rows(),
        a.cols(),
        a.nnz()
    );
    let rp = a.row_ptr();
    let threads = schedule
        .assignments()
        .iter()
        .map(|asg| {
            let mut segments = Vec::new();
            if asg.is_empty() {
                return ThreadPlan::default();
            }
            let (i0, j0) = (asg.start.row, asg.start.nnz);
            let (i1, j1) = (asg.end.row, asg.end.nnz);
            if i0 == i1 {
                // The whole assignment sits inside one row (Algorithm 2
                // lines 3–6): the row is partial by construction.
                if j1 > j0 {
                    segments.push(Segment {
                        row: i0,
                        nz_start: j0,
                        nz_end: j1,
                        flush: Flush::Atomic,
                    });
                }
            } else {
                // Start row: partial iff the thread starts mid-row
                // (lines 8–10); complete otherwise — and then exclusively
                // owned, because the previous thread ended exactly at its
                // head.
                if rp[i0 + 1] > j0 {
                    segments.push(Segment {
                        row: i0,
                        nz_start: j0,
                        nz_end: rp[i0 + 1],
                        flush: if j0 > rp[i0] {
                            Flush::Atomic
                        } else {
                            Flush::Regular
                        },
                    });
                }
                // Complete middle rows (lines 14–15).
                for row in i0 + 1..i1 {
                    if rp[row + 1] > rp[row] {
                        segments.push(Segment {
                            row,
                            nz_start: rp[row],
                            nz_end: rp[row + 1],
                            flush: Flush::Regular,
                        });
                    }
                }
                // End row: partial iff the boundary falls inside it
                // (lines 11–13).
                if j1 > rp[i1] {
                    segments.push(Segment {
                        row: i1,
                        nz_start: rp[i1],
                        nz_end: j1,
                        flush: Flush::Atomic,
                    });
                }
            }
            ThreadPlan { segments }
        })
        .collect();
    KernelPlan { threads }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{check_kernel, check_spmm_is_row_sum, random_matrix};
    use super::*;
    use crate::plan::Flush;

    #[test]
    fn spmm_equals_the_row_sum() {
        let a = random_matrix(60, 60, 400, 33);
        for dim in [1, 5, 16, 33] {
            check_spmm_is_row_sum(&MergePathSpmm::with_threads(7), &a, dim);
            check_spmm_is_row_sum(&MergePathSpmm::with_cost(5), &a, dim);
        }
    }

    #[test]
    fn matches_oracle_on_random_matrices() {
        for seed in 0..5 {
            let a = random_matrix(60, 60, 400, seed);
            for threads in [1, 2, 3, 7, 16, 64] {
                check_kernel(&MergePathSpmm::with_threads(threads), &a, 8);
            }
            check_kernel(&MergePathSpmm::new(), &a, 16);
            check_kernel(&MergePathSpmm::with_cost(5), &a, 4);
        }
    }

    #[test]
    fn atomics_confined_to_partial_rows() {
        // A matrix dominated by one evil row split across many threads:
        // every thread gets at most two atomic flushes.
        let a = random_matrix(50, 50, 300, 3);
        let kernel = MergePathSpmm::with_threads(16);
        let plan = kernel.plan(&a, 16);
        for tp in &plan.threads {
            let atomics = tp
                .segments
                .iter()
                .filter(|s| s.flush == Flush::Atomic && !s.is_empty())
                .count();
            assert!(atomics <= 2, "thread has {atomics} atomic flushes");
        }
    }

    #[test]
    fn single_thread_plan_has_no_atomics() {
        let a = random_matrix(40, 40, 200, 1);
        let plan = MergePathSpmm::with_threads(1).plan(&a, 16);
        let stats = plan.write_stats();
        assert_eq!(stats.atomic_row_updates, 0);
        assert_eq!(stats.regular_nnz, a.nnz());
    }

    #[test]
    fn evil_row_is_split_across_threads() {
        // Row 0 holds 100 of 150 nnz; with 10 threads, merge-path must
        // shard it (row-splitting could not).
        let mut triplets: Vec<(usize, usize, f32)> = (0..100).map(|c| (0, c, 1.0)).collect();
        for r in 1..51 {
            triplets.push((r, r, 1.0));
        }
        let a = CsrMatrix::from_triplets(101, 101, &triplets).unwrap();
        let plan = MergePathSpmm::with_threads(10).plan(&a, 16);
        let owners = plan
            .iter_segments()
            .filter(|(_, s)| s.row == 0)
            .map(|(t, _)| t)
            .collect::<std::collections::BTreeSet<_>>();
        assert!(
            owners.len() >= 4,
            "evil row should span many threads, got {owners:?}"
        );
        plan.validate(&a).unwrap();
    }

    #[test]
    fn write_stats_split_between_atomic_and_regular() {
        let a = random_matrix(80, 80, 500, 9);
        let kernel = MergePathSpmm::with_threads(8);
        let b = super::super::test_support::random_dense(80, 8, 5);
        let (_, stats) = kernel.spmm_with_stats(&a, &b).unwrap();
        assert_eq!(stats.total_nnz(), a.nnz());
        assert!(stats.atomic_row_updates > 0, "8 threads must share rows");
        assert!(stats.regular_row_writes > 0, "most rows are complete");
        assert_eq!(stats.serial_nnz, 0, "MergePath-SpMM has no serial phase");
    }

    #[test]
    fn auto_policy_respects_min_thread_floor() {
        let a = random_matrix(100, 100, 600, 2);
        // merge items = 700; auto cost for dim 16 is 20 → 35 threads,
        // below the floor → clamped up to min(1024, 700) = 700.
        let schedule = MergePathSpmm::new().schedule(&a, 16);
        assert_eq!(schedule.num_threads(), 700);
        let schedule = MergePathSpmm::new().min_threads(8).schedule(&a, 16);
        assert_eq!(schedule.num_threads(), 35);
    }

    #[test]
    fn offline_schedule_reuse_matches_online() {
        let a = random_matrix(60, 60, 350, 4);
        let kernel = MergePathSpmm::with_threads(12);
        let b = super::super::test_support::random_dense(60, 16, 8);
        // Online: plan built inside spmm.
        let (online, _) = kernel.spmm_sequential(&a, &b).unwrap();
        // Offline: schedule built once, reused.
        let schedule = kernel.schedule(&a, 16);
        let plan = plan_from_schedule(&schedule, &a);
        let (offline, _) = crate::executor::execute_sequential(&plan, &a, &b).unwrap();
        assert_eq!(online, offline);
    }

    #[test]
    #[should_panic(expected = "schedule was built for")]
    fn schedule_shape_mismatch_panics() {
        let a = random_matrix(30, 30, 100, 1);
        let other = random_matrix(31, 31, 100, 1);
        let schedule = MergePathSpmm::with_threads(4).schedule(&a, 16);
        let _ = plan_from_schedule(&schedule, &other);
    }
}
