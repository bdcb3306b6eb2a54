//! Engine-executed dense GEMM: the feature-transform half of a GNN layer.
//!
//! A GCN layer is `spmm(A, X · W)` — the aggregation SpMM is the engine's
//! home turf, but the dense `X · W` half previously ran on a naive
//! triple loop outside the engine. This module puts it on the same
//! machinery: the output comes from the engine's [`crate::arena`], the
//! kernel is the register-tiled, cache-panelled band kernel in
//! [`crate::datapath`] (same runtime wide-lane dispatch as the SpMM
//! path), and rows are distributed across the same worker pool: bands
//! self-schedule off a shared atomic counter, so a worker that drew cheap
//! bands (or started late) simply takes more. Every band is computed the
//! same way whichever worker claims it, so the distribution never changes
//! output bits and the engine's scheduling policy does not apply here.
//!
//! Distribution is safe code throughout (the only `unsafe` on this path
//! is the runtime-gated `#[target_feature]` dispatch in
//! `datapath::wide`): disjoint `&mut` band slices are moved into worker
//! closures through take-once `Mutex<Option<..>>` slots.
//!
//! `k` *is* blocked ([`crate::tuning::gemm_kc`]): each band sweeps its
//! `k` range in ascending L2-sized panels so the `B` panel a microkernel
//! streams stays cache-resident at dim 128–512. Blocking does **not**
//! change results: accumulators are seeded from the (zero-initialized)
//! output and stored back per block, so each output element still
//! accumulates in the naive loop's ascending-`k` order and results stay
//! bit-equal to [`naive ikj`] GEMM up to the sign of zeros — the
//! property the GCN fused-vs-unfused oracle tests lean on. The one
//! exception is opt-in [`crate::ExecEngine::with_fast_math`], which
//! permits FMA contraction inside a block (documented carve-out,
//! DESIGN.md §2.11).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mpspmm_sparse::{DenseMatrix, SparseFormatError};

use crate::datapath::{gemm_band, gemm_pack_width, pack_b, PathKind};
use crate::engine::ExecEngine;
use crate::pool::{ScopedJob, WorkerPool};
use crate::tuning::{gemm_kc, CacheModel, GEMM_BAND_ROWS};

/// A take-once slot holding one output band's starting row and `&mut`
/// slice, claimed by exactly one self-scheduled worker.
type BandSlot<'a> = Mutex<Option<(usize, &'a mut [f32])>>;

impl ExecEngine {
    /// Dense row-major GEMM `A · B` on the engine: arena-backed output,
    /// register-tiled band kernel, row bands self-scheduled across the
    /// worker pool. Updates the
    /// [`crate::EngineStats::gemm_panels`] and
    /// [`crate::EngineStats::gemm_ns`] counters.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when
    /// `a.cols() != b.rows()`.
    pub fn gemm(
        &self,
        a: &DenseMatrix<f32>,
        b: &DenseMatrix<f32>,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        if a.cols() != b.rows() {
            return Err(SparseFormatError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (b.rows(), b.cols()),
            });
        }
        let start = Instant::now();
        let (m, n) = (a.rows(), b.cols());
        let mut out = self.arena.take_zeroed(m * n);
        let rp = self.data_path.resolve_fast(b.rows(), n, self.fast_math);
        if rp.fastmath {
            self.fastmath_runs.fetch_add(1, Ordering::Relaxed);
        }
        let kc = gemm_kc(a.cols(), rp.panel, &CacheModel::default());
        if a.cols() > 0 {
            self.kblocks
                .fetch_add(a.cols().div_ceil(kc.max(1)) as u64, Ordering::Relaxed);
        }
        // Pack `B` once into lane-width column blocks (arena-recycled)
        // so every band's microkernel streams contiguous lines instead
        // of striding `n` floats per `k` step. Pure data movement —
        // results stay bitwise identical (see `gemm_rows_body`).
        let packed = match gemm_pack_width(&rp) {
            Some(w) if a.cols() > 0 && n >= w => {
                let mut buf = self.arena.take_zeroed((n / w) * a.cols() * w);
                pack_b(b, w, &mut buf);
                buf
            }
            _ => Vec::new(),
        };
        let pslab: &[f32] = &packed;
        let band_count = m.div_ceil(GEMM_BAND_ROWS.max(1));
        let eff = self.workers.min(band_count).max(1);
        let mut panels = 0u64;
        // Narrow outputs (GNN hidden/class widths) on one worker skip
        // the band/panel machinery: at `n <= 4` the per-band setup costs
        // more than the whole fold, and the register-array loop computes
        // the exact naive `ikj` order — bitwise identical output.
        let narrow = (1..=4).contains(&n) && a.cols() <= 32 && rp.kind != PathKind::Scalar;
        if narrow && eff <= 1 {
            gemm_narrow(a, b, &mut out);
            panels += band_count as u64;
        } else if eff <= 1 {
            for (bi, band) in out.chunks_mut(GEMM_BAND_ROWS * n.max(1)).enumerate() {
                panels += gemm_band(a, b, pslab, bi * GEMM_BAND_ROWS, &rp, kc, band);
            }
        } else {
            // Self-scheduled bands: each band's `&mut` slice sits in a
            // take-once slot; workers claim slot indices off a shared
            // counter, so each band is executed exactly once and the
            // borrows never alias.
            let slots: Vec<BandSlot<'_>> = out
                .chunks_mut(GEMM_BAND_ROWS * n.max(1))
                .enumerate()
                .map(|(bi, band)| Mutex::new(Some((bi * GEMM_BAND_ROWS, band))))
                .collect();
            let next = AtomicUsize::new(0);
            let total_panels = AtomicU64::new(0);
            let jobs: Vec<ScopedJob<'_>> = (0..eff)
                .map(|_| {
                    let slots = &slots;
                    let next = &next;
                    let total_panels = &total_panels;
                    Box::new(move || {
                        let mut local = 0u64;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= slots.len() {
                                break;
                            }
                            let (row_start, band) = slots[i]
                                .lock()
                                .unwrap()
                                .take()
                                .expect("band slot claimed exactly once");
                            local += gemm_band(a, b, pslab, row_start, &rp, kc, band);
                        }
                        total_panels.fetch_add(local, Ordering::Relaxed);
                    }) as ScopedJob<'_>
                })
                .collect();
            WorkerPool::global().scope_run(jobs);
            panels = total_panels.into_inner();
        }
        self.arena.put(packed);
        self.gemm_panels.fetch_add(panels, Ordering::Relaxed);
        self.gemm_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        DenseMatrix::from_vec(m, n, out)
    }
}

/// Width dispatch for the narrow single-worker path: the const width
/// keeps the per-row accumulators in registers.
fn gemm_narrow(a: &DenseMatrix<f32>, b: &DenseMatrix<f32>, out: &mut [f32]) {
    match b.cols() {
        1 => gemm_narrow_fixed::<1>(a, b, out),
        2 => gemm_narrow_fixed::<2>(a, b, out),
        3 => gemm_narrow_fixed::<3>(a, b, out),
        4 => gemm_narrow_fixed::<4>(a, b, out),
        n => unreachable!("gemm_narrow called for width {n}"),
    }
}

/// Per-row `ikj` fold at const width `N == b.cols()`: ascending `k` per
/// output element, accumulators seeded from the zeroed destination —
/// exactly the naive loop's summation order, so the result is bitwise
/// equal to every other (non-FastMath) GEMM path in this module.
fn gemm_narrow_fixed<const N: usize>(a: &DenseMatrix<f32>, b: &DenseMatrix<f32>, out: &mut [f32]) {
    let k = a.cols();
    for (r, orow) in out.chunks_exact_mut(N).enumerate() {
        let arow = a.row(r);
        let mut acc = [0.0f32; N];
        for (p, &av) in arow.iter().enumerate().take(k) {
            let brow = &b.row(p)[..N];
            for j in 0..N {
                acc[j] += av * brow[j];
            }
        }
        orow.copy_from_slice(&acc);
    }
}

#[cfg(test)]
mod tests {
    use crate::datapath::DataPath;
    use crate::engine::ExecEngine;
    use mpspmm_sparse::DenseMatrix;

    /// The PR-1 naive loop (minus its zero-skip): the bit-level oracle.
    fn naive_gemm(a: &DenseMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = a.row(i);
            let dst = &mut out[i * n..][..n];
            for (p, &av) in arow.iter().enumerate() {
                for (c, &bv) in dst.iter_mut().zip(b.row(p)) {
                    *c += av * bv;
                }
            }
            let _ = k;
        }
        DenseMatrix::from_vec(m, n, out).expect("oracle dims agree")
    }

    fn filled(rows: usize, cols: usize, salt: usize) -> DenseMatrix<f32> {
        DenseMatrix::from_fn(rows, cols, |r, c| {
            ((r * 31 + c * 7 + salt) % 17) as f32 * 0.125 - 1.0
        })
    }

    #[test]
    fn engine_gemm_matches_naive_bitwise_across_paths_and_workers() {
        for &path in &[DataPath::Scalar, DataPath::Vector, DataPath::Auto] {
            for &workers in &[1usize, 4] {
                let engine = ExecEngine::with_data_path(workers, path);
                for &(m, k, n) in &[(1, 1, 1), (5, 3, 7), (37, 19, 23), (70, 16, 33)] {
                    let a = filled(m, k, 1);
                    let b = filled(k, n, 2);
                    let got = engine.gemm(&a, &b).expect("shapes agree");
                    let want = naive_gemm(&a, &b);
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "m={m} k={k} n={n} path={path:?} workers={workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn k_blocked_gemm_stays_bitwise_exact_and_counts_blocks() {
        // k large enough that gemm_kc splits it into several blocks:
        // ascending blocks with output-seeded accumulators must preserve
        // the naive loop's per-element addition order exactly.
        let (m, k, n) = (9, 200, 256);
        let a = filled(m, k, 3);
        let b = filled(k, n, 4);
        let want = naive_gemm(&a, &b);
        for &workers in &[1usize, 4] {
            let engine = ExecEngine::with_data_path(workers, DataPath::Vector);
            let got = engine.gemm(&a, &b).expect("shapes agree");
            assert_eq!(got.as_slice(), want.as_slice(), "workers={workers}");
            let stats = engine.stats();
            assert!(stats.kblocks >= 1, "k-block counter advanced");
            engine.clear_cache();
            assert_eq!(engine.stats().kblocks, 0, "reset clears counter");
        }
    }

    #[test]
    fn fast_math_gemm_stays_within_contraction_tolerance() {
        let (m, k, n) = (7, 96, 128);
        let a = filled(m, k, 5);
        let b = filled(k, n, 6);
        let exact = ExecEngine::with_data_path(2, DataPath::Vector)
            .gemm(&a, &b)
            .unwrap();
        let engine = ExecEngine::with_data_path(2, DataPath::Vector).with_fast_math(true);
        let fast = engine.gemm(&a, &b).unwrap();
        for (g, w) in fast.as_slice().iter().zip(exact.as_slice()) {
            let tol = 1e-5 * w.abs().max(1.0);
            assert!((g - w).abs() <= tol, "fastmath gemm within tolerance");
        }
        if crate::fastmath_supported() {
            assert!(engine.stats().fastmath_runs > 0, "fma-proven CPU counts");
        } else {
            assert_eq!(engine.stats().fastmath_runs, 0);
            assert_eq!(fast.as_slice(), exact.as_slice(), "unproven CPU is exact");
        }
    }

    #[test]
    fn engine_gemm_handles_degenerate_shapes() {
        let engine = ExecEngine::with_data_path(2, DataPath::Auto);
        // k = 0: output is all zeros, not an error.
        let a = DenseMatrix::from_vec(3, 0, vec![]).unwrap();
        let b = DenseMatrix::from_vec(0, 4, vec![]).unwrap();
        let out = engine.gemm(&a, &b).expect("k=0 is a valid product");
        assert_eq!(out.rows(), 3);
        assert_eq!(out.cols(), 4);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        // Empty m and n.
        let e = DenseMatrix::from_vec(0, 5, vec![]).unwrap();
        let f = filled(5, 0, 0);
        assert_eq!(engine.gemm(&e, &filled(5, 3, 1)).unwrap().rows(), 0);
        assert_eq!(engine.gemm(&filled(2, 5, 1), &f).unwrap().cols(), 0);
    }

    #[test]
    fn engine_gemm_rejects_shape_mismatch_and_counts_panels() {
        let engine = ExecEngine::with_data_path(1, DataPath::Auto);
        let a = filled(4, 3, 0);
        let b = filled(5, 2, 0);
        assert!(engine.gemm(&a, &b).is_err());
        let ok = engine.gemm(&a, &filled(3, 8, 1)).expect("shapes agree");
        assert_eq!(ok.rows(), 4);
        let stats = engine.stats();
        assert!(stats.gemm_panels > 0, "panel counter advanced");
        assert!(stats.gemm_ns > 0, "gemm time recorded");
        engine.clear_cache();
        assert_eq!(engine.stats().gemm_panels, 0, "counters reset");
    }
}
