//! Kernel work plans: the common currency between the SpMM strategies, the
//! CPU executors, and the machine-model simulators.
//!
//! Every parallelization strategy (§II: row-splitting, nnz-splitting /
//! GNNAdvisor, merge-path with serial fix-up, and the proposed
//! MergePath-SpMM) reduces to an assignment of *segments* — contiguous
//! non-zero ranges within a single row plus a [`Flush`] policy for the
//! output-row update — to logical threads. [`KernelPlan`] captures that
//! assignment. The CPU executors run plans directly
//! ([`crate::executor`]); the GPU and multicore simulators lower plans to
//! machine traces.

use mpspmm_sparse::CsrMatrix;

use crate::stats::WriteStats;

/// How a segment's accumulated partial result reaches the output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flush {
    /// Plain (non-atomic) write by the row's exclusive owner
    /// (MergePath-SpMM complete rows, Algorithm 2 line 15).
    Regular,
    /// Atomic accumulation — the row may be updated concurrently by other
    /// threads (MergePath-SpMM partial rows, Algorithm 2 lines 5/9/13;
    /// *every* update in GNNAdvisor).
    Atomic,
    /// The thread only computes a local running total ("carry"); the
    /// dimension-wide addition into the output row happens in a **serial
    /// phase** after all threads finish — the merge-path SpMV fix-up
    /// generalized to SpMM (the Figure 2 "merge-path" baseline).
    Carry,
}

/// A contiguous range of non-zeros within one row, processed by one
/// logical thread, flushed to the output with one update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Output row this segment accumulates into.
    pub row: usize,
    /// First non-zero (global CSR position, inclusive).
    pub nz_start: usize,
    /// One-past-last non-zero (global CSR position, exclusive).
    pub nz_end: usize,
    /// Output-update policy.
    pub flush: Flush,
}

impl Segment {
    /// Number of non-zeros in this segment.
    pub fn len(&self) -> usize {
        self.nz_end - self.nz_start
    }

    /// Whether the segment covers no non-zeros.
    pub fn is_empty(&self) -> bool {
        self.nz_start == self.nz_end
    }
}

/// The segments assigned to one logical thread, in execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Segments executed sequentially by this thread.
    pub segments: Vec<Segment>,
}

impl ThreadPlan {
    /// Total non-zeros this thread processes.
    pub fn nnz(&self) -> usize {
        self.segments.iter().map(Segment::len).sum()
    }

    /// Number of carry segments (serial-phase flushes this thread feeds).
    pub fn carries(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| s.flush == Flush::Carry && !s.is_empty())
            .count()
    }
}

/// A complete kernel decomposition into per-logical-thread parallel work.
///
/// Threads whose plans contain [`Flush::Carry`] segments feed a serial
/// post-barrier phase: one dimension-wide vector addition per non-empty
/// carry segment, executed in thread order by a single thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelPlan {
    /// Per-logical-thread parallel work.
    pub threads: Vec<ThreadPlan>,
}

/// Plan validation failure: the decomposition is not a correct, race-free
/// cover of the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// Some non-zero is covered by zero or several segments.
    BadCoverage {
        /// Global non-zero index with wrong multiplicity.
        nz: usize,
        /// Number of segments covering it.
        count: usize,
    },
    /// A segment references non-zeros outside its stated row.
    RowRangeMismatch {
        /// Offending segment.
        segment: Segment,
    },
    /// A row is written non-atomically by one thread while other parallel
    /// updates to it exist — a data race.
    UnsafeSharing {
        /// The row with conflicting updates.
        row: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BadCoverage { nz, count } => {
                write!(
                    f,
                    "non-zero {nz} is covered by {count} segments instead of 1"
                )
            }
            PlanError::RowRangeMismatch { segment } => write!(
                f,
                "segment {segment:?} references non-zeros outside row {}",
                segment.row
            ),
            PlanError::UnsafeSharing { row } => write!(
                f,
                "row {row} mixes non-atomic parallel writes with other updates (data race)"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl KernelPlan {
    /// All non-empty segments of the plan with their owning logical thread
    /// index, in execution order.
    pub fn iter_segments(&self) -> impl Iterator<Item = (usize, &Segment)> {
        self.threads
            .iter()
            .enumerate()
            .flat_map(|(t, p)| p.segments.iter().map(move |s| (t, s)))
            .filter(|(_, s)| !s.is_empty())
    }

    /// Number of logical threads (including empty ones).
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Total non-zeros the plan's threads cover.
    pub fn nnz_total(&self) -> usize {
        self.threads.iter().map(ThreadPlan::nnz).sum()
    }

    /// Total serial-phase flushes (non-empty carry segments).
    pub fn serial_flushes(&self) -> usize {
        self.threads.iter().map(ThreadPlan::carries).sum()
    }

    /// Splits the plan's non-empty segments at a degree threshold:
    /// `(gather_bound, stream_bound)` — segments with at most
    /// `gather_max` non-zeros, and the rest. Like
    /// [`write_stats`](Self::write_stats) this is a property of the plan
    /// alone.
    pub fn dispatch_profile(&self, gather_max: usize) -> (usize, usize) {
        let mut gather = 0;
        let mut stream = 0;
        for (_, seg) in self.iter_segments() {
            if seg.len() <= gather_max {
                gather += 1;
            } else {
                stream += 1;
            }
        }
        (gather, stream)
    }

    /// Aggregate write statistics implied by the plan (what the kernel
    /// *will* do; the executors recompute the same numbers while running).
    pub fn write_stats(&self) -> WriteStats {
        let mut stats = WriteStats::default();
        for (_, seg) in self.iter_segments() {
            match seg.flush {
                Flush::Atomic => {
                    stats.atomic_row_updates += 1;
                    stats.atomic_nnz += seg.len();
                }
                Flush::Regular => {
                    stats.regular_row_writes += 1;
                    stats.regular_nnz += seg.len();
                }
                Flush::Carry => {
                    stats.serial_row_updates += 1;
                    stats.serial_nnz += seg.len();
                }
            }
        }
        stats
    }

    /// Checks that the plan is a correct and race-free decomposition of
    /// `matrix`:
    ///
    /// 1. every stored non-zero is covered by exactly one segment;
    /// 2. every segment's non-zero range lies inside its stated row;
    /// 3. any row with a [`Flush::Regular`] write receives no other
    ///    *parallel* update (atomic or regular) — carry flushes are
    ///    ordered after the barrier and therefore safe.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule.
    pub fn validate<T>(&self, matrix: &CsrMatrix<T>) -> Result<(), PlanError> {
        let row_ptr = matrix.row_ptr();
        let mut coverage = vec![0u32; matrix.nnz()];
        // Per row: (parallel updates, regular writes).
        let mut row_updates = vec![(0u32, 0u32); matrix.rows()];
        for (_, seg) in self.iter_segments() {
            if seg.nz_start < row_ptr[seg.row] || seg.nz_end > row_ptr[seg.row + 1] {
                return Err(PlanError::RowRangeMismatch { segment: *seg });
            }
            for slot in &mut coverage[seg.nz_start..seg.nz_end] {
                *slot += 1;
            }
            let entry = &mut row_updates[seg.row];
            match seg.flush {
                Flush::Regular => {
                    entry.0 += 1;
                    entry.1 += 1;
                }
                Flush::Atomic => entry.0 += 1,
                Flush::Carry => {}
            }
        }
        if let Some((nz, &count)) = coverage.iter().enumerate().find(|&(_, &c)| c != 1) {
            return Err(PlanError::BadCoverage {
                nz,
                count: count as usize,
            });
        }
        for (row, &(parallel, regular)) in row_updates.iter().enumerate() {
            if regular > 0 && parallel > 1 {
                return Err(PlanError::UnsafeSharing { row });
            }
        }
        Ok(())
    }
}

/// Non-zero skew of a **static** per-worker partition of a plan's logical
/// threads: max span nnz over ideal (mean) span nnz, where the spans are
/// the `ceil(threads / workers)`-sized contiguous logical-thread blocks
/// and `thread_nnz_ends[t]` is the non-zeros of threads `0..=t`.
///
/// This is a static schedule's residual imbalance, which the
/// reordering ablation reports: merge-path plans are nnz-balanced per
/// *logical thread*, so their static spans stay near 1.0, while
/// row-split plans on power-law graphs can concentrate hub rows into
/// one span and push the skew far above it. Returns 1.0 (no
/// skew) for degenerate inputs (≤ 1 worker, no threads, no non-zeros).
pub fn static_span_skew(thread_nnz_ends: &[usize], workers: usize) -> f64 {
    let threads = thread_nnz_ends.len();
    let total = thread_nnz_ends.last().copied().unwrap_or(0);
    if workers <= 1 || threads == 0 || total == 0 {
        return 1.0;
    }
    let workers = workers.min(threads);
    let per = threads.div_ceil(workers);
    let mut max_nnz = 0usize;
    let mut lo = 0usize;
    let mut start = 0usize;
    while start < threads {
        let end = (start + per).min(threads);
        let hi = thread_nnz_ends[end - 1];
        max_nnz = max_nnz.max(hi - lo);
        lo = hi;
        start = end;
    }
    max_nnz as f64 / (total as f64 / workers as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpspmm_sparse::CsrMatrix;

    fn two_row_matrix() -> CsrMatrix<f32> {
        CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 1.0), (1, 1, 1.0)]).unwrap()
    }

    fn seg(row: usize, nz_start: usize, nz_end: usize, flush: Flush) -> Segment {
        Segment {
            row,
            nz_start,
            nz_end,
            flush,
        }
    }

    fn plan(threads: Vec<Vec<Segment>>) -> KernelPlan {
        KernelPlan {
            threads: threads
                .into_iter()
                .map(|segments| ThreadPlan { segments })
                .collect(),
        }
    }

    #[test]
    fn valid_plan_passes() {
        let m = two_row_matrix();
        let p = plan(vec![
            vec![seg(0, 0, 2, Flush::Regular)],
            vec![seg(1, 2, 3, Flush::Regular)],
        ]);
        p.validate(&m).unwrap();
        let stats = p.write_stats();
        assert_eq!(stats.regular_row_writes, 2);
        assert_eq!(stats.regular_nnz, 3);
        assert_eq!(stats.atomic_row_updates, 0);
        assert_eq!(p.serial_flushes(), 0);
    }

    #[test]
    fn detects_uncovered_nnz() {
        let m = two_row_matrix();
        let p = plan(vec![vec![seg(0, 0, 2, Flush::Regular)]]);
        assert_eq!(
            p.validate(&m).unwrap_err(),
            PlanError::BadCoverage { nz: 2, count: 0 }
        );
    }

    #[test]
    fn detects_double_coverage() {
        let m = two_row_matrix();
        let p = plan(vec![vec![
            seg(0, 0, 2, Flush::Atomic),
            seg(0, 1, 2, Flush::Atomic),
            seg(1, 2, 3, Flush::Regular),
        ]]);
        assert_eq!(
            p.validate(&m).unwrap_err(),
            PlanError::BadCoverage { nz: 1, count: 2 }
        );
    }

    #[test]
    fn detects_row_range_mismatch() {
        let m = two_row_matrix();
        let p = plan(vec![vec![seg(1, 0, 3, Flush::Regular)]]);
        assert!(matches!(
            p.validate(&m).unwrap_err(),
            PlanError::RowRangeMismatch { .. }
        ));
    }

    #[test]
    fn detects_unsafe_sharing() {
        let m = two_row_matrix();
        let p = plan(vec![
            vec![seg(0, 0, 1, Flush::Regular)],
            vec![seg(0, 1, 2, Flush::Atomic), seg(1, 2, 3, Flush::Regular)],
        ]);
        assert_eq!(
            p.validate(&m).unwrap_err(),
            PlanError::UnsafeSharing { row: 0 }
        );
    }

    #[test]
    fn shared_rows_with_all_atomic_updates_are_fine() {
        let m = two_row_matrix();
        let p = plan(vec![
            vec![seg(0, 0, 1, Flush::Atomic)],
            vec![seg(0, 1, 2, Flush::Atomic), seg(1, 2, 3, Flush::Regular)],
        ]);
        p.validate(&m).unwrap();
        let stats = p.write_stats();
        assert_eq!(stats.atomic_row_updates, 2);
        assert_eq!(stats.atomic_nnz, 2);
    }

    #[test]
    fn dispatch_profile_splits_at_threshold() {
        let p = plan(vec![
            vec![seg(0, 0, 2, Flush::Regular), seg(1, 2, 2, Flush::Atomic)],
            vec![seg(1, 2, 3, Flush::Regular)],
        ]);
        // Empty segments are ignored; lengths are 2 and 1.
        assert_eq!(p.dispatch_profile(0), (0, 2));
        assert_eq!(p.dispatch_profile(1), (1, 1));
        assert_eq!(p.dispatch_profile(2), (2, 0));
    }

    #[test]
    fn carry_segments_count_as_serial() {
        let m = two_row_matrix();
        let p = plan(vec![
            vec![seg(0, 0, 1, Flush::Carry)],
            vec![seg(0, 1, 2, Flush::Carry), seg(1, 2, 3, Flush::Regular)],
        ]);
        p.validate(&m).unwrap();
        let stats = p.write_stats();
        assert_eq!(stats.serial_row_updates, 2);
        assert_eq!(stats.serial_nnz, 2);
        assert_eq!(p.serial_flushes(), 2);
    }

    #[test]
    fn carry_alongside_regular_write_is_safe() {
        // A regular parallel write plus a post-barrier carry flush do not
        // race (the carry is ordered after the barrier).
        let m = two_row_matrix();
        let p = plan(vec![
            vec![seg(0, 0, 1, Flush::Regular)],
            vec![seg(0, 1, 2, Flush::Carry), seg(1, 2, 3, Flush::Regular)],
        ]);
        p.validate(&m).unwrap();
    }

    #[test]
    fn static_span_skew_flags_clustered_heavy_spans() {
        // Balanced: every thread owns the same nnz → skew 1.0.
        let ends: Vec<usize> = (1..=8).map(|t| t * 4).collect();
        assert!((static_span_skew(&ends, 4) - 1.0).abs() < 1e-12);
        // All the work in the first span of 2 threads → skew = workers.
        let ends = [16usize, 32, 32, 32, 32, 32, 32, 32];
        assert!((static_span_skew(&ends, 4) - 4.0).abs() < 1e-12);
        // Degenerate cases report no skew.
        assert_eq!(static_span_skew(&[], 4), 1.0);
        assert_eq!(static_span_skew(&[0, 0], 4), 1.0);
        assert_eq!(static_span_skew(&ends, 1), 1.0);
    }

    #[test]
    fn empty_segments_are_ignored() {
        let m = two_row_matrix();
        let p = plan(vec![
            vec![seg(0, 0, 2, Flush::Regular), seg(1, 2, 2, Flush::Atomic)],
            vec![seg(1, 2, 3, Flush::Regular)],
        ]);
        p.validate(&m).unwrap();
        assert_eq!(p.write_stats().atomic_row_updates, 0);
    }
}
