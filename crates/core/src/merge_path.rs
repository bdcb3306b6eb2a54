//! The merge-path decomposition (Algorithm 1 of the paper).
//!
//! Merge-path [Merrill & Garland, PPoPP'16] views the CSR traversal of a
//! sparse matrix as merging two sorted lists:
//!
//! * list **A** — the row *end* offsets `RP[1..=n]` (consuming an element
//!   means "finish a row"), and
//! * list **B** — the natural numbers `0..nnz` (consuming an element means
//!   "process one non-zero").
//!
//! The merged sequence has `rows + nnz` items (the *merge items* of
//! Algorithm 1), and splitting it into equal consecutive chunks bounds the
//! work — rows scanned **plus** non-zeros multiplied — assigned to each
//! thread, regardless of how skewed the row lengths are. The chunk
//! boundaries are found independently per thread with a two-dimensional
//! binary search along a diagonal of the logical merge grid
//! ([`merge_path_search`]).
//!
//! [`Schedule`] packages the per-thread boundaries plus the
//! partial/complete-row markers (`start_nz` / `end_nz` in §III-B of the
//! paper) that MergePath-SpMM uses to decide which output updates need
//! atomic operations.

use mpspmm_sparse::CsrMatrix;

/// A coordinate in the logical 2-D merge grid.
///
/// `row` indexes list A (row end offsets), `nnz` indexes list B (non-zero
/// indices); the coordinate lies on diagonal `row + nnz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MergeCoord {
    /// Row index (0-based).
    pub row: usize,
    /// Global non-zero index (0-based position in the CSR value array).
    pub nnz: usize,
}

impl MergeCoord {
    /// The diagonal this coordinate lies on (`cost` in Algorithm 1).
    pub fn diagonal(&self) -> usize {
        self.row + self.nnz
    }
}

/// Finds the merge-path coordinate where `diagonal` crosses the path.
///
/// Returns the unique `(row, nnz)` with `row + nnz == diagonal` such that
/// all non-zeros before `nnz` belong to rows before or at `row`, i.e. the
/// point reached after consuming exactly `diagonal` merge items. This is
/// the constrained binary search of Algorithm 1 (lines 6–7).
///
/// `row_end_offsets` must be `RP[1..=n]` (the row pointer array without its
/// leading zero) and `nnz` the total non-zero count.
///
/// # Panics
///
/// Panics if `diagonal > row_end_offsets.len() + nnz`.
pub fn merge_path_search(diagonal: usize, row_end_offsets: &[usize], nnz: usize) -> MergeCoord {
    let rows = row_end_offsets.len();
    assert!(
        diagonal <= rows + nnz,
        "diagonal {diagonal} beyond merge path of length {}",
        rows + nnz
    );
    // Search the smallest row index x in [lo, hi] such that the merge path
    // has NOT yet consumed row-end x when diagonal - x non-zeros are done:
    // consume row-end x only once RP[x + 1] <= (non-zeros consumed).
    let mut lo = diagonal.saturating_sub(nnz);
    let mut hi = diagonal.min(rows);
    while lo < hi {
        let mid = (lo + hi) / 2;
        // Row-end `mid` is consumed before non-zero `diagonal - mid - 1`
        // iff RP[mid + 1] <= diagonal - mid - 1, i.e. RP[mid + 1] < diagonal - mid.
        if row_end_offsets[mid] < diagonal - mid {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    MergeCoord {
        row: lo,
        nnz: diagonal - lo,
    }
}

/// The work assignment of one logical thread, as produced by the
/// merge-path decomposition.
///
/// The thread processes merge items from `start` (inclusive) to `end`
/// (exclusive): non-zeros `start.nnz..end.nnz` spread over rows
/// `start.row..=end.row`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadAssignment {
    /// First merge coordinate owned by this thread.
    pub start: MergeCoord,
    /// One-past-last merge coordinate owned by this thread.
    pub end: MergeCoord,
}

impl ThreadAssignment {
    /// Whether the thread's first row is a *partial* row: some of its
    /// non-zeros were assigned to a preceding thread, so output updates for
    /// it must be atomic. (`start_nz ≠ 0` in the paper's encoding.)
    pub fn start_is_partial(&self, row_ptr: &[usize]) -> bool {
        self.start.nnz > row_ptr[self.start.row]
    }

    /// Whether the thread's last row is a *partial* row: the thread
    /// consumes some of its non-zeros without consuming the row terminator,
    /// so output updates for it must be atomic. (`end_nz ≠ 0` in the
    /// paper's encoding.)
    ///
    /// Note the paper's test is conservative: a thread whose boundary lands
    /// exactly after the last non-zero of `end.row` but before the row
    /// terminator still marks the row partial even though the following
    /// thread will contribute nothing to it.
    pub fn end_is_partial(&self, row_ptr: &[usize]) -> bool {
        self.end.row < row_ptr.len() - 1 && self.end.nnz > row_ptr[self.end.row]
    }

    /// Number of merge items (rows + non-zeros) owned by this thread.
    pub fn merge_items(&self) -> usize {
        self.end.diagonal() - self.start.diagonal()
    }

    /// Number of non-zeros owned by this thread.
    pub fn nnz(&self) -> usize {
        self.end.nnz - self.start.nnz
    }

    /// Whether this thread owns no work at all.
    pub fn is_empty(&self) -> bool {
        self.merge_items() == 0
    }
}

/// A complete merge-path schedule: the per-thread partition of a matrix.
///
/// Building a schedule is the (cheap, parallelizable) preprocessing the
/// paper calls *scheduling*; §III-D distinguishes the **offline** setting —
/// build once, reuse across inferences — from the **online** setting —
/// rebuild per inference (overhead quantified in Figure 8).
///
/// # Example
///
/// ```
/// use mpspmm_core::Schedule;
/// use mpspmm_sparse::CsrMatrix;
///
/// let a = CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0f32), (3, 2, 1.0)])?;
/// let schedule = Schedule::build(&a, 2);
/// assert_eq!(schedule.num_threads(), 2);
/// # Ok::<(), mpspmm_sparse::SparseFormatError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    rows: usize,
    nnz: usize,
    items_per_thread: usize,
    assignments: Vec<ThreadAssignment>,
}

impl Schedule {
    /// Builds a schedule distributing the matrix over `num_threads` logical
    /// threads (Algorithm 1: `items_per_thrd = ceil(merge_items / threads)`).
    ///
    /// # Panics
    ///
    /// Panics if `num_threads == 0`.
    pub fn build<T>(matrix: &CsrMatrix<T>, num_threads: usize) -> Self {
        assert!(num_threads > 0, "need at least one thread");
        let rows = matrix.rows();
        let nnz = matrix.nnz();
        let merge_items = rows + nnz;
        let items_per_thread = merge_items.div_ceil(num_threads).max(1);
        Self::from_cost_and_threads(matrix, items_per_thread, num_threads)
    }

    /// Builds a schedule targeting `cost` merge items per thread (the
    /// tunable *merge-path cost* parameter of §III-C), spawning
    /// `ceil(merge_items / cost)` threads but at least `min_threads`
    /// (clamped to one item per thread).
    pub fn with_cost<T>(matrix: &CsrMatrix<T>, cost: usize, min_threads: usize) -> Self {
        assert!(cost > 0, "merge-path cost must be positive");
        let merge_items = matrix.merge_items();
        let mut threads = merge_items.div_ceil(cost).max(1);
        if threads < min_threads {
            // §III-C: when the computed threads are below the threshold,
            // decrease the cost so a minimum number of threads is spawned.
            threads = min_threads.min(merge_items).max(1);
        }
        Self::build(matrix, threads)
    }

    /// Builds the same schedule as [`build`](Self::build), computing the
    /// per-thread boundary searches on `workers` OS threads.
    ///
    /// Every boundary is an independent 2-D binary search, so the paper
    /// computes the schedule *on the GPU itself* before the kernel
    /// launches (§V-C); this is the CPU analogue. The result is
    /// bit-identical to the sequential build.
    ///
    /// # Panics
    ///
    /// Panics if `num_threads == 0` or `workers == 0`.
    pub fn build_parallel<T: Sync>(
        matrix: &CsrMatrix<T>,
        num_threads: usize,
        workers: usize,
    ) -> Self {
        assert!(num_threads > 0, "need at least one thread");
        assert!(workers > 0, "need at least one worker");
        let rows = matrix.rows();
        let nnz = matrix.nnz();
        let merge_items = rows + nnz;
        let items_per_thread = merge_items.div_ceil(num_threads).max(1);
        let row_end_offsets = &matrix.row_ptr()[1..];
        // Boundary b sits at diagonal min(b * items_per_thread, total):
        // there are num_threads + 1 of them, computed independently.
        let mut boundaries = vec![MergeCoord { row: 0, nnz: 0 }; num_threads + 1];
        let chunk = (num_threads + 1).div_ceil(workers);
        std::thread::scope(|scope| {
            for (w, slot) in boundaries.chunks_mut(chunk).enumerate() {
                scope.spawn(move || {
                    for (i, out) in slot.iter_mut().enumerate() {
                        let b = w * chunk + i;
                        let diag = (b * items_per_thread).min(merge_items);
                        *out = merge_path_search(diag, row_end_offsets, nnz);
                    }
                });
            }
        });
        let assignments = boundaries
            .windows(2)
            .map(|w| ThreadAssignment {
                start: w[0],
                end: w[1],
            })
            .collect();
        Self {
            rows,
            nnz,
            items_per_thread,
            assignments,
        }
    }

    fn from_cost_and_threads<T>(
        matrix: &CsrMatrix<T>,
        items_per_thread: usize,
        num_threads: usize,
    ) -> Self {
        let rows = matrix.rows();
        let nnz = matrix.nnz();
        let merge_items = rows + nnz;
        let row_end_offsets = &matrix.row_ptr()[1..];
        let mut assignments = Vec::with_capacity(num_threads);
        let mut start = merge_path_search(0, row_end_offsets, nnz);
        for t in 0..num_threads {
            let end_diag = ((t + 1) * items_per_thread).min(merge_items);
            let end = merge_path_search(end_diag, row_end_offsets, nnz);
            assignments.push(ThreadAssignment { start, end });
            start = end;
        }
        Self {
            rows,
            nnz,
            items_per_thread,
            assignments,
        }
    }

    /// Number of logical threads in the schedule.
    pub fn num_threads(&self) -> usize {
        self.assignments.len()
    }

    /// The per-thread merge-item budget (`items_per_thrd` in Algorithm 1).
    pub fn items_per_thread(&self) -> usize {
        self.items_per_thread
    }

    /// Number of matrix rows this schedule was built for.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of matrix non-zeros this schedule was built for.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Per-thread assignments in thread order.
    pub fn assignments(&self) -> &[ThreadAssignment] {
        &self.assignments
    }

    /// Whether this schedule matches the shape of `matrix` (same row and
    /// non-zero counts). A schedule may only be reused (offline setting)
    /// while the adjacency matrix is stationary.
    pub fn matches<T>(&self, matrix: &CsrMatrix<T>) -> bool {
        self.rows == matrix.rows() && self.nnz == matrix.nnz()
    }

    /// Reassembles a schedule from externally stored parts (the offline
    /// setting persists schedules between runs; this is the decode side).
    ///
    /// The parts must describe a schedule previously taken apart via the
    /// accessors ([`rows`](Self::rows), [`nnz`](Self::nnz),
    /// [`items_per_thread`](Self::items_per_thread),
    /// [`assignments`](Self::assignments)); basic shape invariants are
    /// checked here, full validity is re-checked when the schedule is
    /// lowered against a concrete matrix.
    ///
    /// # Panics
    ///
    /// Panics if `assignments` is empty, does not start at diagonal 0, is
    /// not contiguous, or does not end at `rows + nnz`.
    pub fn from_parts(
        rows: usize,
        nnz: usize,
        items_per_thread: usize,
        assignments: Vec<ThreadAssignment>,
    ) -> Self {
        assert!(
            !assignments.is_empty(),
            "schedule needs at least one thread"
        );
        assert_eq!(
            assignments[0].start.diagonal(),
            0,
            "first thread must start at diagonal 0"
        );
        for w in assignments.windows(2) {
            assert_eq!(w[0].end, w[1].start, "assignments must be contiguous");
        }
        assert_eq!(
            assignments.last().unwrap().end.diagonal(),
            rows + nnz,
            "last thread must end at the final merge item"
        );
        Self {
            rows,
            nnz,
            items_per_thread,
            assignments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpspmm_sparse::CsrMatrix;

    /// The representative example of Figure 3: 10 rows, 16 non-zeros,
    /// one long first row of 8 non-zeros.
    pub(crate) fn figure3_matrix() -> CsrMatrix<f32> {
        // Row lengths chosen to match the figure's narrative: row 0 has 8
        // non-zeros (RP[1] = 8), and the remaining 8 non-zeros spread over
        // rows 1..10.
        let lengths = [8usize, 1, 2, 1, 0, 1, 0, 0, 1, 2];
        let mut triplets = Vec::new();
        for (r, &len) in lengths.iter().enumerate() {
            for c in 0..len {
                triplets.push((r, c, 1.0f32));
            }
        }
        CsrMatrix::from_triplets(10, 10, &triplets).unwrap()
    }

    /// Reference implementation: consume `d` merge items one at a time.
    fn oracle(d: usize, row_ptr: &[usize], nnz: usize) -> MergeCoord {
        let rows = row_ptr.len() - 1;
        let (mut i, mut j) = (0usize, 0usize);
        for _ in 0..d {
            if i < rows && (j >= nnz || row_ptr[i + 1] <= j) {
                i += 1; // consume row terminator
            } else {
                j += 1; // consume a non-zero
            }
        }
        MergeCoord { row: i, nnz: j }
    }

    #[test]
    fn search_matches_oracle_on_figure3() {
        let m = figure3_matrix();
        let nnz = m.nnz();
        for d in 0..=m.merge_items() {
            let got = merge_path_search(d, &m.row_ptr()[1..], nnz);
            let want = oracle(d, m.row_ptr(), nnz);
            assert_eq!(got, want, "diagonal {d}");
        }
    }

    #[test]
    fn figure3_thread2_assignment() {
        // Four threads over 26 merge items → 7 items per thread, matching
        // the paper's walkthrough of Figure 3 (start costs 0/7/14/21).
        //
        // Note: the paper's prose quotes thread 2's start coordinate as
        // (1, 6) and its end as (3, 11), yet assigns it "non-zero indices 7
        // to 11" — coordinates and non-zero ranges there are off by one
        // with respect to each other. We follow the self-consistent
        // Merrill–Garland convention (verified against the item-by-item
        // oracle): after 7 consumed merge items the path sits at (0, 7) —
        // row 0 holds 8 non-zeros, so thread 2 starts inside it (a partial
        // start row), exactly the situation §III-B describes.
        let m = figure3_matrix();
        let schedule = Schedule::build(&m, 4);
        assert_eq!(schedule.items_per_thread(), 7);
        let t2 = schedule.assignments()[1];
        assert_eq!(t2.start, MergeCoord { row: 0, nnz: 7 });
        // End cost 14 lands at (3, 11), as in the paper.
        assert_eq!(t2.end, MergeCoord { row: 3, nnz: 11 });
        assert_eq!(t2.merge_items(), 7);
        assert_eq!(t2.nnz(), 4);
        assert!(t2.start_is_partial(m.row_ptr()));
        // End row 3's boundary lands exactly at its head (nnz 11 = RP[3]),
        // so the end row is complete for this thread.
        assert!(!t2.end_is_partial(m.row_ptr()));
    }

    #[test]
    fn schedule_tiles_the_merge_path() {
        let m = figure3_matrix();
        for threads in 1..=12 {
            let s = Schedule::build(&m, threads);
            assert_eq!(s.num_threads(), threads);
            assert_eq!(s.assignments()[0].start, MergeCoord { row: 0, nnz: 0 });
            let last = s.assignments().last().unwrap();
            assert_eq!(last.end.diagonal(), m.merge_items());
            for w in s.assignments().windows(2) {
                assert_eq!(w[0].end, w[1].start, "threads must tile contiguously");
            }
        }
    }

    #[test]
    fn per_thread_items_are_bounded() {
        let m = figure3_matrix();
        for threads in 1..=12 {
            let s = Schedule::build(&m, threads);
            for a in s.assignments() {
                assert!(
                    a.merge_items() <= s.items_per_thread(),
                    "{threads} threads: {a:?} exceeds budget {}",
                    s.items_per_thread()
                );
            }
        }
    }

    #[test]
    fn with_cost_controls_thread_count() {
        let m = figure3_matrix(); // 26 merge items
        let s = Schedule::with_cost(&m, 7, 1);
        assert_eq!(s.num_threads(), 4);
        // Minimum-thread floor kicks in for small graphs (§III-C):
        let s = Schedule::with_cost(&m, 20, 8);
        assert_eq!(s.num_threads(), 8);
        // but never exceeds one item per thread.
        let s = Schedule::with_cost(&m, 20, 1000);
        assert_eq!(s.num_threads(), 26);
    }

    #[test]
    fn empty_rows_do_not_break_partition() {
        let m = CsrMatrix::<f32>::zeros(7, 7);
        let s = Schedule::build(&m, 3);
        let total: usize = s.assignments().iter().map(|a| a.merge_items()).sum();
        assert_eq!(total, 7);
        for a in s.assignments() {
            assert_eq!(a.nnz(), 0);
        }
    }

    #[test]
    fn partial_markers_on_single_long_row() {
        // One row with 12 non-zeros split over 4 threads: every interior
        // thread sees a partial single row.
        let triplets: Vec<(usize, usize, f32)> = (0..12).map(|c| (0, c, 1.0)).collect();
        let m = CsrMatrix::from_triplets(1, 12, &triplets).unwrap();
        let s = Schedule::build(&m, 4);
        let rp = m.row_ptr();
        let a1 = s.assignments()[1];
        assert!(a1.start_is_partial(rp));
        assert!(a1.end_is_partial(rp));
        let a0 = s.assignments()[0];
        assert!(!a0.start_is_partial(rp), "thread 0 starts at the row head");
        assert!(a0.end_is_partial(rp));
    }

    #[test]
    fn schedule_matches_checks_shape() {
        let m = figure3_matrix();
        let s = Schedule::build(&m, 4);
        assert!(s.matches(&m));
        let other = CsrMatrix::<f32>::zeros(10, 10);
        assert!(!s.matches(&other));
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        let m = figure3_matrix();
        for threads in [1usize, 3, 4, 7, 26] {
            let seq = Schedule::build(&m, threads);
            for workers in [1usize, 2, 5] {
                let par = Schedule::build_parallel(&m, threads, workers);
                assert_eq!(seq, par, "{threads} threads / {workers} workers");
            }
        }
    }

    #[test]
    #[should_panic(expected = "beyond merge path")]
    fn search_rejects_out_of_range_diagonal() {
        let m = figure3_matrix();
        merge_path_search(m.merge_items() + 1, &m.row_ptr()[1..], m.nnz());
    }
}
