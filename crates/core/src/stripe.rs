//! Column-striped execution for wide feature dimensions.
//!
//! Merge-path scheduling balances the **sparse** axis: it splits rows
//! plus non-zeros evenly and pays for the split with shared-row
//! machinery — per-worker strips folded after the join, carry segments
//! replayed serially. That serial fraction is O(boundary segments × dim),
//! so it *grows linearly with the dense dimension* while the parallel
//! phase merely gets denser. At GNN hidden widths (128–512 columns) the
//! fold/replay tail starts to dominate exactly the way the atomic tail
//! does in the paper's row-split baseline.
//!
//! This module flips the partition axis: each worker owns a contiguous
//! **feature-column stripe of all rows** and replays the *entire* plan
//! walk restricted to its stripe. Shared-row handling disappears — no
//! per-worker strips, no strip folding, no cross-worker carry replay,
//! no atomics — because no two workers ever touch the same output
//! element. Within a stripe the worker performs, per column, exactly the
//! additions of the sequential executor in exactly its order (Regular
//! stores overwrite, Atomic segments accumulate locally then add, Carry
//! segments replay after the walk in `(thread, segment)` order), so the
//! striped result is **bit-identical to the sequential oracle at any
//! worker count** — stronger than the static path's tolerance contract.
//!
//! The price is that the packed column indices and `A`'s values are
//! re-streamed once per stripe. At `dim >= 128` a stripe still spans at
//! least ~64 columns, so each touched row of `B` serves 64+
//! multiply-adds per index load — the index traffic is noise, and the
//! stripes are sized to [`crate::tuning::stripe_panel_cols`] so a
//! stripe's working set (the gathered `B` rows' column windows) stays
//! L2-resident. [`crate::SchedPolicy::Auto`] routes wide-dimension runs
//! here (see [`crate::tuning::STRIPE_MIN_DIM`]); narrow runs keep the
//! static scheduler, whose single sweep of the indices wins when `dim`
//! is small.
//!
//! # Why the raw-pointer output view is sound
//!
//! This is, with [`crate::pool`] and the `#[target_feature]` clones in
//! `datapath`, one of the three modules
//! allowed out of the crate's `deny(unsafe_code)`. The argument is
//! column disjointness:
//!
//! * [`stripe_bounds`] partitions `0..dim` into non-overlapping,
//!   non-empty `[lo, hi)` windows;
//! * each stripe is pushed onto exactly one worker's list, and a worker
//!   writes only through [`StripedOut::cols_mut`] with its own stripe's
//!   window — elements `row * dim + [lo, hi)` for each row;
//! * distinct stripes therefore write disjoint index sets, and the
//!   pool's completion barrier orders every write before the caller
//!   reads the output.

#![allow(unsafe_code)]

use mpspmm_sparse::{CsrMatrix, DenseMatrix};

use crate::arena::BufferArena;
use crate::datapath::{accumulate_segment_dispatch, ResolvedPath};
use crate::engine::PreparedPlan;
use crate::epilogue::Epilogue;
use crate::plan::Flush;
use crate::pool::{ScopedJob, WorkerPool};
use crate::tuning::{stripe_panel_cols, CacheModel};

/// Raw-pointer view of the output buffer for the duration of the
/// parallel phase. See the module docs for the disjointness argument.
struct StripedOut {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: `StripedOut` only exposes the output through `cols_mut`, whose
// caller contract (one worker per column stripe, see module docs) makes
// concurrent use race-free; the pointer itself is plain data.
unsafe impl Send for StripedOut {}
unsafe impl Sync for StripedOut {}

impl StripedOut {
    /// The `[lo, hi)` column window of output row `row`.
    ///
    /// # Safety
    ///
    /// The caller must be the only thread accessing columns `[lo, hi)`
    /// until the pool barrier — guaranteed when `[lo, hi)` is the
    /// caller's own stripe (stripes partition the columns and each is
    /// executed by exactly one worker).
    // The `&self -> &mut` shape is the point: `StripedOut` is an
    // `UnsafeCell`-style shared-writer view, and the exclusivity clippy
    // cannot see is exactly the caller contract above.
    #[allow(clippy::mut_from_ref)]
    unsafe fn cols_mut(&self, row: usize, dim: usize, lo: usize, hi: usize) -> &mut [f32] {
        debug_assert!(lo <= hi && hi <= dim, "window inside the row");
        debug_assert!(row * dim + hi <= self.len, "window inside the output");
        // SAFETY: in-bounds by the asserts; exclusive by the caller
        // contract above.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(row * dim + lo), hi - lo) }
    }
}

/// Partitions `0..dim` into contiguous, lane-aligned column stripes:
/// at least `workers` stripes (so every worker gets one) and at least
/// enough that no stripe exceeds `max_width` (the L2 panel budget),
/// except that no stripe is narrower than `lanes` — a sub-lane stripe
/// would run entirely on the scalar tail. Every returned `(lo, hi)` is
/// non-empty, the windows are disjoint, and they cover `0..dim`.
pub(crate) fn stripe_bounds(
    dim: usize,
    lanes: usize,
    workers: usize,
    max_width: usize,
) -> Vec<(usize, usize)> {
    if dim == 0 {
        return Vec::new();
    }
    let lanes = lanes.max(1);
    let max_width = max_width.max(lanes);
    let want = workers.max(dim.div_ceil(max_width)).max(1);
    let n = want.min(dim.div_ceil(lanes));
    let w = dim.div_ceil(n).next_multiple_of(lanes);
    let mut bounds = Vec::with_capacity(n);
    let mut lo = 0;
    while lo < dim {
        let hi = (lo + w).min(dim);
        bounds.push((lo, hi));
        lo = hi;
    }
    bounds
}

/// Executes `prep` column-striped over `eff_workers` pool workers,
/// writing into the caller's zeroed `out` (length `rows * dim`). Each
/// stripe applies the full fused-epilogue contract locally: fusable rows
/// at store time, every other row after the stripe's carry replay — the
/// caller must **not** run its deferred-epilogue pass afterwards.
/// Returns the number of stripes executed. Caller guarantees shapes are
/// checked, `epi` is validated, `dim > 0`, and the plan is non-empty.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_striped(
    prep: &PreparedPlan,
    a: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    dim: usize,
    eff_workers: usize,
    rp: &ResolvedPath,
    cols32: Option<&[u32]>,
    epi: &Epilogue,
    arena: &BufferArena,
    out: &mut [f32],
) -> u64 {
    let lanes = rp.lanes.lanes();
    let panel = stripe_panel_cols(dim, lanes, &CacheModel::default());
    let bounds = stripe_bounds(dim, lanes, eff_workers, panel);
    let stripes = bounds.len();
    let fuse = !epi.is_noop();
    // One arena buffer holds every stripe's private scratch: a
    // stripe-width accumulator for Atomic/Carry segments plus one
    // stripe-width slot per carry segment of the plan. Stripe widths sum
    // to `dim`, so the whole checkout is `(carries + 1) * dim` floats —
    // the same order as ONE full-width carry buffer of the static path.
    let carries = prep.expected_stats().serial_row_updates;
    let mut scratch = arena.take_zeroed((carries + 1) * dim);
    let mut per_worker: Vec<Vec<(usize, usize, &mut [f32])>> =
        (0..eff_workers).map(|_| Vec::new()).collect();
    {
        let mut rest: &mut [f32] = &mut scratch;
        for (i, &(lo, hi)) in bounds.iter().enumerate() {
            let (head, tail) = rest.split_at_mut((carries + 1) * (hi - lo));
            per_worker[i % eff_workers].push((lo, hi, head));
            rest = tail;
        }
    }
    let shared = StripedOut {
        ptr: out.as_mut_ptr(),
        len: out.len(),
    };

    let jobs: Vec<ScopedJob<'_>> = per_worker
        .into_iter()
        .map(|stripes| {
            let shared = &shared;
            let epi = &*epi;
            Box::new(move || {
                for (lo, hi, scratch) in stripes {
                    run_stripe(
                        prep, a, b, dim, lo, hi, rp, cols32, epi, fuse, shared, scratch,
                    );
                }
            }) as ScopedJob<'_>
        })
        .collect();
    WorkerPool::global().scope_run(jobs);

    arena.put(scratch);
    stripes as u64
}

/// One stripe: the full `(thread, segment)` plan walk restricted to
/// columns `[lo, hi)`, including the stripe-local carry replay and the
/// stripe's share of the fused epilogue. Accumulation order per column
/// is exactly the sequential executor's.
#[allow(clippy::too_many_arguments)]
fn run_stripe(
    prep: &PreparedPlan,
    a: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    dim: usize,
    lo: usize,
    hi: usize,
    rp: &ResolvedPath,
    cols32: Option<&[u32]>,
    epi: &Epilogue,
    fuse: bool,
    shared: &StripedOut,
    scratch: &mut [f32],
) {
    let sw = hi - lo;
    let (acc, carry_buf) = scratch.split_at_mut(sw);
    let mut carry_rows: Vec<usize> = Vec::new();
    for tp in &prep.plan().threads {
        for seg in &tp.segments {
            if seg.is_empty() {
                continue;
            }
            match seg.flush {
                Flush::Regular => {
                    // SAFETY: `[lo, hi)` is this worker's own stripe.
                    let dst = unsafe { shared.cols_mut(seg.row, dim, lo, hi) };
                    accumulate_segment_dispatch(rp, seg, a, cols32, b, lo, dst);
                    if fuse && prep.fused_ok[seg.row] {
                        epi.apply_cols(dst, lo);
                    }
                }
                Flush::Atomic => {
                    accumulate_segment_dispatch(rp, seg, a, cols32, b, lo, acc);
                    // SAFETY: `[lo, hi)` is this worker's own stripe.
                    let dst = unsafe { shared.cols_mut(seg.row, dim, lo, hi) };
                    for (d, &v) in dst.iter_mut().zip(&*acc) {
                        *d += v;
                    }
                }
                Flush::Carry => {
                    let slot = &mut carry_buf[carry_rows.len() * sw..][..sw];
                    accumulate_segment_dispatch(rp, seg, a, cols32, b, lo, slot);
                    carry_rows.push(seg.row);
                }
            }
        }
    }
    // Stripe-local carry replay, in the `(thread, segment)` order the
    // walk recorded them — the sequential executor's order.
    for (i, &row) in carry_rows.iter().enumerate() {
        let src = &carry_buf[i * sw..][..sw];
        // SAFETY: `[lo, hi)` is this worker's own stripe.
        let dst = unsafe { shared.cols_mut(row, dim, lo, hi) };
        for (d, &v) in dst.iter_mut().zip(src) {
            *d += v;
        }
    }
    // Stripe share of the deferred epilogue: rows not finalized at store
    // time hold their final SpMM value only after the carry replay.
    if fuse {
        for &row in prep.deferred_rows() {
            // SAFETY: `[lo, hi)` is this worker's own stripe.
            let dst = unsafe { shared.cols_mut(row as usize, dim, lo, hi) };
            epi.apply_cols(dst, lo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_partition_cover_and_align() {
        for dim in [1usize, 7, 16, 33, 128, 257, 512] {
            for lanes in [8usize, 16] {
                for workers in [1usize, 2, 4, 7] {
                    for max_width in [16usize, 4096] {
                        let bounds = stripe_bounds(dim, lanes, workers, max_width);
                        assert!(!bounds.is_empty());
                        let mut next = 0;
                        for &(lo, hi) in &bounds {
                            assert_eq!(lo, next, "contiguous");
                            assert!(hi > lo, "non-empty");
                            next = hi;
                        }
                        assert_eq!(next, dim, "covers all columns");
                        // Every stripe but the last is lane-aligned in width.
                        for &(lo, hi) in &bounds[..bounds.len() - 1] {
                            assert_eq!((hi - lo) % lanes, 0, "dim={dim} lanes={lanes}");
                        }
                    }
                }
            }
        }
        assert!(stripe_bounds(0, 8, 4, 64).is_empty());
    }

    #[test]
    fn fixed_multi_stripe_runs_are_bit_identical_to_sequential() {
        // The engine clamps the live stripe count to the machine's
        // hardware parallelism, so a 1-core CI box would only ever
        // exercise the single-stripe split through the public API. This
        // drives `run_striped` directly with explicit worker targets to
        // pin the multi-stripe splits bit-exactly against the
        // sequential oracle on any box.
        use crate::spmm::test_support::{random_dense, random_matrix};
        use crate::SpmmKernel;
        use mpspmm_sparse::AlignedVec;
        let a = random_matrix(96, 96, 700, 11);
        for dim in [128usize, 192, 512] {
            let b = random_dense(96, dim, 13);
            let plan = crate::MergePathSpmm::with_threads(24).plan(&a, dim);
            let (want, _) = crate::executor::execute_sequential(&plan, &a, &b).unwrap();
            let prep = PreparedPlan::for_matrix(plan, &a);
            let rp = crate::DataPath::Auto.resolve_fast(b.rows(), dim, false);
            let cols32 = prep.cols32.as_ref().map(AlignedVec::as_slice);
            let arena = BufferArena::default();
            // `B` here is below the prefetch gate, so hints are off;
            // force them on as well so the striped walk's hints (stripe
            // windows at `lo > 0`) are covered too.
            let hinted = ResolvedPath {
                prefetch: rp.kind == crate::datapath::PathKind::Vector,
                ..rp
            };
            for (workers, rp) in [2usize, 3, 5, 8]
                .into_iter()
                .flat_map(|w| [(w, rp), (w, hinted)])
            {
                let mut out = vec![0.0f32; a.rows() * dim];
                let stripes = run_striped(
                    &prep,
                    &a,
                    &b,
                    dim,
                    workers,
                    &rp,
                    cols32,
                    &Epilogue::None,
                    &arena,
                    &mut out,
                );
                assert!(stripes >= 2, "dim={dim} workers={workers}: split happened");
                let got = DenseMatrix::from_vec(a.rows(), dim, out).unwrap();
                assert_eq!(
                    got.max_abs_diff(&want).unwrap(),
                    0.0,
                    "dim={dim} workers={workers} prefetch={}",
                    rp.prefetch
                );
            }
        }
    }

    #[test]
    fn bounds_split_wide_dims_past_worker_count() {
        // An L2-overflowing width forces more stripes than workers so
        // each stays panel-sized.
        let bounds = stripe_bounds(4096, 16, 2, 512);
        assert!(bounds.len() >= 8);
        assert!(bounds.iter().all(|&(lo, hi)| hi - lo <= 512));
        // A narrow dim never splits below one lane per stripe.
        let bounds = stripe_bounds(20, 16, 8, 512);
        assert!(bounds.iter().all(|&(lo, hi)| hi - lo >= 4));
        assert!(bounds.len() <= 2);
    }
}
