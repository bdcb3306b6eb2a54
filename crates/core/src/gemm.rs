//! Engine-executed dense GEMM: the feature-transform half of a GNN layer.
//!
//! A GCN layer is `spmm(A, X · W)` — the aggregation SpMM is the engine's
//! home turf, but the dense `X · W` half previously ran on a naive
//! triple loop outside the engine. This module puts it on the same
//! machinery: the output comes from the engine's [`crate::arena`], the
//! kernel is the register-tiled, cache-panelled band kernel in
//! `datapath`, run through the same runtime-gated ISA clones as the SpMM
//! row fold, and rows are distributed across the same worker pool: bands
//! self-schedule off a shared atomic counter, so a worker that drew cheap
//! bands (or started late) simply takes more. Every band is computed the
//! same way whichever worker claims it, so the distribution never changes
//! output bits and the engine's scheduling policy does not apply here.
//!
//! A band is sized by its multiply-adds, not its rows
//! (`gemm_band_rows` in [`crate::tuning`]), so a narrow layer does not
//! pay one claim per few thousand multiply-adds. A GEMM runs on at most
//! one worker per band, and a GEMM of one band runs inline without
//! waking the pool.
//!
//! Distribution is safe code throughout: disjoint `&mut` band slices are
//! moved into worker closures through take-once `Mutex<Option<..>>`
//! slots. The only `unsafe` on this path lives in `datapath::wide`: the
//! runtime-gated calls into the `#[target_feature]` clones and the
//! explicit AVX-512F tile, and that tile's one vector load and one
//! vector store helper.
//!
//! `k` *is* blocked (`gemm_kc` in [`crate::tuning`]): each band sweeps
//! its `k` range in ascending L2-sized panels so the `B` panel a
//! microkernel streams stays cache-resident at dim 128–512. Blocking
//! does **not** change results: the first block's accumulators start
//! from `0.0`, each later block's are seeded from the output, and every
//! block stores back, so each output element still accumulates in the
//! naive loop's ascending-`k` order and results stay bit-equal to the
//! naive `ikj` GEMM — the property the GCN fused-vs-unfused oracle
//! tests lean on. Because the vectorized tiles store every element
//! before they read any, their output and pack buffers come from the
//! arena unzeroed: a recycled buffer's stale values never survive.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use mpspmm_sparse::{DenseMatrix, SparseFormatError};

use crate::datapath::{gemm_band, gemm_pack_width, pack_b};
use crate::engine::ExecEngine;
use crate::pool::{ScopedJob, WorkerPool};
use crate::tuning::{gemm_band_rows, gemm_kc, panel_cols, CacheModel};

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
        let rp = self.data_path.resolve();
        let width = gemm_pack_width(&rp, n);
        // The register tiles store every output element, the first
        // `k`-block from a literal `0.0` seed, so their output needs no
        // zeroing pass. The scalar path accumulates into `C`, and with
        // `k == 0` nothing runs: both take a zeroed buffer.
        let mut out = match width {
            Some(_) if a.cols() > 0 => self.arena.take(m * n),
            _ => self.arena.take_zeroed(m * n),
        };
        let model = CacheModel::default();
        let panel = panel_cols(n, rp.lanes.lanes(), &model);
        let kc = gemm_kc(a.cols(), panel, &model);
        if a.cols() > 0 {
            self.kblocks
                .fetch_add(a.cols().div_ceil(kc.max(1)) as u64, Ordering::Relaxed);
        }
        // Pack `B` once into column blocks of the tile's width
        // (arena-recycled, every element written), the last one
        // zero-padded, so every band's microkernel streams contiguous
        // lines instead of striding `n` floats per `k` step. Pure data
        // movement — results stay bitwise identical (see `pack_b`).
        let packed = match width {
            Some(w) => {
                let mut buf = self.arena.take(n.div_ceil(w) * a.cols() * w);
                pack_b(b, w, &mut buf);
                buf
            }
            None => Vec::new(),
        };
        let pslab: &[f32] = &packed;
        let band_rows = gemm_band_rows(m, a.cols(), n);
        let eff = self.workers.min(m.div_ceil(band_rows)).max(1);
        let mut panels = 0u64;
        if eff <= 1 {
            for (bi, band) in out.chunks_mut(band_rows * n.max(1)).enumerate() {
                panels += gemm_band(a, b, pslab, bi * band_rows, &rp, (panel, kc), band);
            }
        } else {
            // Self-scheduled bands: each band's `&mut` slice sits in a
            // take-once slot; workers claim slot indices off a shared
            // counter, so each band is executed exactly once and the
            // borrows never alias.
            let slots: Vec<BandSlot<'_>> = out
                .chunks_mut(band_rows * n.max(1))
                .enumerate()
                .map(|(bi, band)| Mutex::new(Some((bi * band_rows, band))))
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
                            // Nothing under the slot lock can panic
                            // mid-update, so a poisoned slot still
                            // holds a whole band or none.
                            let (row_start, band) = slots[i]
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .take()
                                .expect("band slot claimed exactly once");
                            local += gemm_band(a, b, pslab, row_start, &rp, (panel, kc), band);
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

#[cfg(test)]
mod tests {
    use crate::datapath::DataPath;
    use crate::engine::ExecEngine;
    use crate::tuning::gemm_band_rows;
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

    /// The engine takes its GEMM output from the arena unzeroed wherever
    /// the kernel stores every element. Hand it a recycled NaN-filled
    /// buffer of the output's exact size: any element the kernel fails
    /// to store (a partial column block, a remainder row, a later band)
    /// leaks a NaN and breaks `==` with the naive loop. The widths hit
    /// the 16-lane tile (2, 16) and the AVX-512F 32-column tile with and
    /// without a padded last block; at `n = 512` and `k = 200` the
    /// reduction runs in two `k`-blocks, the second seeded from `C`.
    /// `m = 70` ends in a 2-row tile remainder. Bands are sized by
    /// multiply-adds, so at 70 rows most narrow shapes are one band; at
    /// each served `(k, n)` shape `m` is also two whole bands plus a
    /// 5-row partial one (several claims on the pool) and under one band
    /// (inline).
    #[test]
    fn gemm_overwrites_a_stale_recycled_output() {
        let mut cases = Vec::new();
        for n in [2usize, 16, 32, 121, 127, 128, 512] {
            for k in [0usize, 1, 50, 200] {
                cases.push((70, k, n));
            }
        }
        for (k, n) in [(1usize, 2usize), (16, 32), (32, 2), (50, 128), (128, 121)] {
            let band = gemm_band_rows(1 << 30, k, n);
            cases.extend([(2 * band + 5, k, n), (band - 5, k, n)]);
        }
        for path in [DataPath::Scalar, DataPath::Vector, DataPath::Auto] {
            for workers in [1usize, 2, 7] {
                for &(m, k, n) in &cases {
                    let a = filled(m, k, 5);
                    let b = filled(k, n, 6);
                    let engine = ExecEngine::with_data_path(workers, path);
                    let stale = vec![f32::NAN; m * n];
                    engine.recycle(DenseMatrix::from_vec(m, n, stale).unwrap());
                    let got = engine.gemm(&a, &b).expect("shapes agree");
                    assert_eq!(engine.stats().arena_reuses, 1, "stale buffer handed out");
                    assert_eq!(
                        got.as_slice(),
                        naive_gemm(&a, &b).as_slice(),
                        "path={path:?} workers={workers} m={m} n={n} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn k_blocked_gemm_stays_bitwise_exact_and_counts_blocks() {
        // k large enough that gemm_kc splits it into two blocks at this
        // width (a 512-column panel gives 128-deep blocks): ascending
        // blocks with output-seeded accumulators must preserve the naive
        // loop's per-element addition order exactly.
        let (m, k, n) = (9, 200, 512);
        let a = filled(m, k, 3);
        let b = filled(k, n, 4);
        let want = naive_gemm(&a, &b);
        for &workers in &[1usize, 4] {
            let engine = ExecEngine::with_data_path(workers, DataPath::Vector);
            let got = engine.gemm(&a, &b).expect("shapes agree");
            assert_eq!(got.as_slice(), want.as_slice(), "workers={workers}");
            let stats = engine.stats();
            assert_eq!(stats.kblocks, 2, "k split into two blocks");
            engine.clear_cache();
            assert_eq!(engine.stats().kblocks, 0, "reset clears counter");
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
