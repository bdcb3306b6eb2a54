//! Merge-path with a serial fix-up phase: the Merrill–Garland SpMV
//! algorithm generalized to SpMM (the "merge-path" baseline of Figure 2).
//!
//! The decomposition is identical to MergePath-SpMM — the same equitable
//! merge-path schedule — but instead of atomically updating shared rows,
//! each thread saves its partial result for spanning rows as a *carry*
//! ("each thread saves its running total and row ID for subsequent
//! fix-up", §III-A) and a **serial** post-barrier phase adds the carries
//! into the output. For SpMV the carry is a scalar and the fix-up is
//! negligible; for SpMM it is a `dim`-wide vector per carry, and on
//! power-law graphs whose evil rows span hundreds of threads the serial
//! phase strangles parallelism — the paper's Figure 2 motivation.

use mpspmm_sparse::CsrMatrix;

use crate::merge_path::Schedule;
use crate::plan::{Flush, KernelPlan, Segment, ThreadPlan};
use crate::tuning::{thread_count, MIN_THREADS};

use super::SpmmKernel;

/// Merge-path SpMM with serial fix-up of spanning rows (no atomics).
///
/// # Example
///
/// ```
/// use mpspmm_core::{MergePathSerialFixup, SpmmKernel};
/// use mpspmm_sparse::{CsrMatrix, DenseMatrix};
///
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0f32), (0, 1, 1.0)])?;
/// let b = DenseMatrix::from_fn(2, 2, |r, c| (r + c) as f32);
/// let c = MergePathSerialFixup::with_threads(2).spmm(&a, &b)?;
/// assert_eq!(c.get(0, 0), 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergePathSerialFixup {
    threads: Option<usize>,
    cost: usize,
    min_threads: usize,
}

impl MergePathSerialFixup {
    /// Default configuration: the same merge-path cost/floor heuristics as
    /// MergePath-SpMM at dimension 16.
    pub fn new() -> Self {
        Self {
            threads: None,
            cost: 20,
            min_threads: MIN_THREADS,
        }
    }

    /// Fixed logical-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        Self {
            threads: Some(threads),
            cost: 20,
            min_threads: 1,
        }
    }

    /// Builds the merge-path schedule for `a`.
    pub fn schedule(&self, a: &CsrMatrix<f32>) -> Schedule {
        let threads = match self.threads {
            Some(t) => t,
            None => thread_count(a.merge_items(), self.cost, self.min_threads),
        };
        Schedule::build(a, threads)
    }
}

impl Default for MergePathSerialFixup {
    fn default() -> Self {
        Self::new()
    }
}

impl SpmmKernel for MergePathSerialFixup {
    fn name(&self) -> &'static str {
        "merge-path (serial fixup)"
    }

    fn plan(&self, a: &CsrMatrix<f32>, _dim: usize) -> KernelPlan {
        plan_with_serial_fixup(&self.schedule(a), a)
    }
}

/// Lowers a merge-path schedule with carry-based fix-up instead of atomics.
///
/// A row is *spanning* when its non-zeros are split across two or more
/// threads; each owning thread emits a [`Flush::Carry`] segment for its
/// share. Rows fully inside one thread flush regularly. (Unlike
/// MergePath-SpMM's conservative paper-faithful rule, sharing here is
/// determined exactly — the Merrill–Garland fix-up only visits rows that
/// truly cross thread boundaries.)
pub fn plan_with_serial_fixup(schedule: &Schedule, a: &CsrMatrix<f32>) -> KernelPlan {
    assert!(
        schedule.matches(a),
        "schedule/matrix shape mismatch: schedule {}x{} vs matrix {}x{}",
        schedule.rows(),
        schedule.nnz(),
        a.rows(),
        a.nnz()
    );
    let rp = a.row_ptr();
    let threads = schedule
        .assignments()
        .iter()
        .map(|asg| {
            let mut segments = Vec::new();
            if asg.is_empty() || asg.nnz() == 0 {
                return ThreadPlan::default();
            }
            let (i0, j0) = (asg.start.row, asg.start.nnz);
            let (i1, j1) = (asg.end.row, asg.end.nnz);
            if i0 == i1 {
                // Entire assignment inside one row. Spanning unless it
                // covers the whole row.
                let whole = j0 == rp[i0] && j1 == rp[i0 + 1];
                segments.push(Segment {
                    row: i0,
                    nz_start: j0,
                    nz_end: j1,
                    flush: if whole { Flush::Regular } else { Flush::Carry },
                });
            } else {
                if rp[i0 + 1] > j0 {
                    // Start row spans backwards iff it began in an earlier
                    // thread.
                    segments.push(Segment {
                        row: i0,
                        nz_start: j0,
                        nz_end: rp[i0 + 1],
                        flush: if j0 > rp[i0] {
                            Flush::Carry
                        } else {
                            Flush::Regular
                        },
                    });
                }
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
                if j1 > rp[i1] {
                    // End row spans forwards iff non-zeros remain for the
                    // next thread.
                    segments.push(Segment {
                        row: i1,
                        nz_start: rp[i1],
                        nz_end: j1,
                        flush: if j1 < rp[i1 + 1] {
                            Flush::Carry
                        } else {
                            Flush::Regular
                        },
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

    #[test]
    fn spmm_equals_the_row_sum() {
        let a = random_matrix(60, 60, 400, 34);
        for dim in [1, 5, 16, 33] {
            // Serial fix-up plans mix Regular and Carry flushes — the
            // vectorized path must preserve the post-barrier carry order.
            check_spmm_is_row_sum(&MergePathSerialFixup::with_threads(7), &a, dim);
        }
    }

    #[test]
    fn matches_oracle() {
        for seed in 0..5 {
            let a = random_matrix(60, 60, 400, seed);
            for threads in [1, 2, 3, 7, 16, 64] {
                check_kernel(&MergePathSerialFixup::with_threads(threads), &a, 8);
            }
        }
    }

    #[test]
    fn no_atomics_ever() {
        let a = random_matrix(64, 64, 400, 1);
        let plan = MergePathSerialFixup::with_threads(16).plan(&a, 16);
        let stats = plan.write_stats();
        assert_eq!(stats.atomic_row_updates, 0);
        assert_eq!(stats.atomic_nnz, 0);
    }

    #[test]
    fn spanning_rows_become_carries() {
        // One evil row split across threads: each owning thread carries.
        let mut triplets: Vec<(usize, usize, f32)> = (0..100).map(|c| (0, c, 1.0)).collect();
        for r in 1..21 {
            triplets.push((r, 0, 1.0));
        }
        let a = CsrMatrix::from_triplets(21, 100, &triplets).unwrap();
        let plan = MergePathSerialFixup::with_threads(8).plan(&a, 16);
        plan.validate(&a).unwrap();
        assert!(
            plan.serial_flushes() >= 4,
            "evil row must produce several carries, got {}",
            plan.serial_flushes()
        );
    }

    #[test]
    fn single_thread_has_no_carries() {
        let a = random_matrix(40, 40, 200, 2);
        let plan = MergePathSerialFixup::with_threads(1).plan(&a, 16);
        assert_eq!(plan.serial_flushes(), 0);
    }

    #[test]
    fn exact_sharing_rule_beats_conservative_rule() {
        // Same schedule as MergePath-SpMM, but the serial-fixup lowering
        // marks strictly fewer (or equal) shared flushes than the paper's
        // conservative atomic rule, because a boundary landing exactly at
        // a row's end does not count as sharing here.
        let a = random_matrix(80, 80, 500, 3);
        for threads in [4, 9, 16] {
            let schedule = Schedule::build(&a, threads);
            let fixup = plan_with_serial_fixup(&schedule, &a);
            let atomic = crate::spmm::plan_from_schedule(&schedule, &a);
            assert!(
                fixup.write_stats().serial_row_updates <= atomic.write_stats().atomic_row_updates,
                "exact rule must not exceed conservative rule"
            );
        }
    }
}
