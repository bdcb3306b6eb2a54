//! Engine-executed dense GEMM: the feature-transform half of a GNN layer.
//!
//! A GCN layer is `spmm(A, X · W)` — the aggregation SpMM is the engine's
//! home turf, but the dense `X · W` half previously ran on a naive
//! triple loop outside the engine. This module puts it on the same
//! machinery: the output comes from the engine's [`crate::arena`], the
//! kernel is the register-tiled band kernel in `datapath`, run through
//! the same runtime-gated ISA clones as the SpMM row fold, and rows are
//! distributed across the same worker pool: bands self-schedule off a
//! shared atomic counter, so a worker that drew cheap bands (or started
//! late) simply takes more. Every band is computed the
//! same way whichever worker claims it, so the distribution never changes
//! output bits.
//!
//! A band is sized by its multiply-adds, not its rows
//! (`gemm_band_rows` in [`crate::tuning`]), so a narrow layer does not
//! pay one claim per few thousand multiply-adds. A GEMM runs on at most
//! one worker per band, and a GEMM of one band runs inline without
//! waking the pool.
//!
//! A packed window's GCN forward does not call [`ExecEngine::gemm`]: its
//! span jobs run the same band kernel over each group of graphs, with
//! the weight packed once per window by `pack_weight` (see
//! [`ExecEngine::forward`]).
//!
//! Distribution is safe code throughout: disjoint `&mut` band slices are
//! moved into worker closures through take-once `Mutex<Option<..>>`
//! slots. The only `unsafe` on this path lives in `datapath::wide`: the
//! runtime-gated calls into the `#[target_feature]` clones and the
//! explicit AVX-512F tiles, and those tiles' one vector load and one
//! vector store helper.
//!
//! Neither `k` nor the output width is cache-blocked: each register tile
//! sweeps every column of `B` over the full `k` from a `0.0` seed and
//! stores it once, so each output element accumulates in the naive
//! loop's ascending-`k` order and results stay bit-equal to the naive
//! `ikj` GEMM — the property the GCN fused-vs-unfused oracle tests lean
//! on. Most tiles hold columns in lanes and read `B` packed into column
//! blocks; under AVX-512F a `B` of at most `NARROW_GEMM_COLS` (8)
//! columns (`molecule-pack`'s 32 → 2 layer) runs a rows-in-lanes tile
//! instead, which transposes 16 `A` rows in registers, keeps one
//! register per output column and reads `B` unpacked, so no lane
//! computes padding. Every GEMM the served
//! workloads run fits one sweep in cache (DESIGN.md §2.11). Because
//! every band stores each output element once and reads none before
//! storing it (the scalar band zero-fills a row, then adds into it), the
//! output and pack buffers come from the arena unzeroed: a recycled
//! buffer's stale values never survive.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use mpspmm_sparse::{DenseMatrix, SparseFormatError};

use crate::datapath::{gemm_band, gemm_pack_width, pack_b, ResolvedPath};
use crate::engine::ExecEngine;
use crate::pool::{ScopedJob, WorkerPool};
use crate::tuning::gemm_band_rows;

/// A take-once slot holding one output band's first `A` row and `&mut`
/// slice, claimed by exactly one self-scheduled worker.
type BandSlot<'a> = Mutex<Option<(usize, &'a mut [f32])>>;

impl ExecEngine {
    /// Dense row-major GEMM `A · B` on the engine: arena-backed output,
    /// register-tiled band kernel, row bands self-scheduled across the
    /// worker pool. Adds its wall time to
    /// [`crate::EngineStats::gemm_ns`].
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
        let k = b.rows();
        if a.cols() != k {
            return Err(SparseFormatError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (b.rows(), b.cols()),
            });
        }
        let start = Instant::now();
        let (m, n) = (a.rows(), b.cols());
        let rp = self.data_path.resolve();
        // Every band stores each output element once (the register tiles
        // from a literal `0.0` seed, `k == 0` included; the scalar band
        // zero-fills each row before adding into it), so the output needs
        // no zeroing pass.
        let mut out = self.arena.take(m * n);
        let packed = self.pack_weight(b, &rp);
        let pslab: &[f32] = &packed;
        let band_rows = gemm_band_rows(m, k, n);
        let eff = self.workers.min(m.div_ceil(band_rows)).max(1);
        let rows = |first: usize| (first..m).map(|r| a.row(r));
        if eff <= 1 {
            gemm_band(rows(0), k, b, pslab, &rp, &mut out);
        } else {
            // Self-scheduled bands: each band's `&mut` slice sits in a
            // take-once slot with its first `A` row; workers claim slot
            // indices off a shared counter, so each band is executed
            // exactly once and the borrows never alias.
            let slots: Vec<BandSlot<'_>> = out
                .chunks_mut(band_rows * n.max(1))
                .enumerate()
                .map(|(i, band)| Mutex::new(Some((i * band_rows, band))))
                .collect();
            let next = AtomicUsize::new(0);
            let jobs: Vec<ScopedJob<'_>> = (0..eff)
                .map(|_| {
                    let slots = &slots;
                    let next = &next;
                    Box::new(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= slots.len() {
                            break;
                        }
                        // Nothing under the slot lock can panic
                        // mid-update, so a poisoned slot still
                        // holds a whole band or none.
                        let (first, band) = slots[i]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .take()
                            .expect("band slot claimed exactly once");
                        gemm_band(rows(first), k, b, pslab, &rp, band);
                    }) as ScopedJob<'_>
                })
                .collect();
            WorkerPool::global().scope_run(jobs);
        }
        self.arena.put(packed);
        self.gemm_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        DenseMatrix::from_vec(m, n, out)
    }

    /// `b` packed into column blocks of the tile's width
    /// ([`gemm_pack_width`]), arena-recycled with every element written,
    /// the last block zero-padded, so every band's microkernel streams
    /// contiguous lines instead of striding `n` floats per `k` step. Pure
    /// data movement: results stay bitwise identical (see `pack_b`).
    /// Empty when no tile reads a pack (the scalar path, and the
    /// rows-in-lanes tile of a narrow `B`, which reads `B` as it lies).
    /// The caller hands it back with `self.arena.put`.
    pub(crate) fn pack_weight(&self, b: &DenseMatrix<f32>, rp: &ResolvedPath) -> Vec<f32> {
        let (k, n) = (b.rows(), b.cols());
        match gemm_pack_width(rp, n) {
            Some(w) => {
                let mut buf = self.arena.take(n.div_ceil(w) * k * w);
                pack_b(b, w, &mut buf);
                buf
            }
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::datapath::{gemm_pack_width, DataPath};
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

    /// Both data paths at one and four workers, from a single element to
    /// a 200-deep, 512-wide product.
    #[test]
    fn engine_gemm_matches_naive_bitwise_across_paths_and_workers() {
        let shapes = [
            (1, 1, 1),
            (5, 3, 7),
            (37, 19, 23),
            (70, 16, 33),
            (9, 200, 512),
        ];
        for path in [DataPath::Scalar, DataPath::Vector] {
            for workers in [1usize, 4] {
                let engine = ExecEngine::with_data_path(workers, path);
                for &(m, k, n) in &shapes {
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

    /// The engine takes every GEMM output from the arena unzeroed, on
    /// both data paths and at `k == 0`. Hand it a recycled NaN-filled
    /// buffer of the output's exact size: any element the kernel fails
    /// to store (a partial column block, a remainder row, a later band,
    /// a scalar row it adds into without zeroing, a `k == 0` product's
    /// zero seeds) leaks a NaN and breaks `==` with the naive loop. The
    /// widths hit every width of the AVX-512F rows-in-lanes tile and the
    /// first past it (1..=9), the 16-lane tile (9, 16) and the AVX-512F
    /// 32-column tile with and without a padded last block, up to 600
    /// columns and 600 deep. `m = 70` ends in a 6-row short last 16-row tile and a
    /// 2-row `GEMM_MR` tile remainder. Bands are sized by
    /// multiply-adds, so at 70 rows most narrow shapes are one band; at
    /// each served `(k, n)` shape `m` is also two whole bands plus a
    /// 5-row partial one (several claims on the pool) and under one band
    /// (inline).
    #[test]
    fn gemm_overwrites_a_stale_recycled_output() {
        let mut cases = Vec::new();
        for n in (1usize..=9).chain([16, 32, 121, 127, 128, 512, 600]) {
            for k in [0usize, 1, 50, 200, 600] {
                cases.push((70, k, n));
            }
        }
        for (k, n) in [(1usize, 2usize), (16, 32), (32, 2), (50, 128), (128, 121)] {
            let band = gemm_band_rows(1 << 30, k, n);
            cases.extend([(2 * band + 5, k, n), (band - 5, k, n)]);
        }
        for &(m, k, n) in &cases {
            let a = filled(m, k, 5);
            let b = filled(k, n, 6);
            let want = naive_gemm(&a, &b);
            for path in [DataPath::Scalar, DataPath::Vector] {
                for workers in [1usize, 2, 7] {
                    let engine = ExecEngine::with_data_path(workers, path);
                    let stale = vec![f32::NAN; m * n];
                    engine.recycle(DenseMatrix::from_vec(m, n, stale).unwrap());
                    let got = engine.gemm(&a, &b).expect("shapes agree");
                    assert_eq!(engine.stats().arena_reuses, 1, "stale buffer handed out");
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "path={path:?} workers={workers} m={m} n={n} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_gemm_handles_degenerate_shapes() {
        let engine = ExecEngine::new(2);
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

    /// A rejected shape checks nothing out. A GEMM checks out its output
    /// and, when its tile reads a pack, its packed `B` (not on the scalar
    /// path, nor in the AVX-512F rows-in-lanes tile this 8-column `B`
    /// takes); once the output is recycled, the next call allocates
    /// nothing. The wall time is counted, and `clear_cache` resets every
    /// counter.
    #[test]
    fn engine_gemm_rejects_shape_mismatch_and_counts_time_and_buffers() {
        let a = filled(4, 3, 0);
        let c = filled(3, 8, 1);
        for path in [DataPath::Scalar, DataPath::Vector] {
            let buffers = 1 + gemm_pack_width(&path.resolve(), 8).is_some() as u64;
            let engine = ExecEngine::with_data_path(1, path);
            assert!(engine.gemm(&a, &filled(5, 2, 0)).is_err());
            assert_eq!(engine.stats(), ExecEngine::with_data_path(1, path).stats());
            let ok = engine.gemm(&a, &c).expect("shapes agree");
            assert_eq!(ok.rows(), 4);
            let stats = engine.stats();
            assert!(stats.gemm_ns > 0, "{path:?}: gemm time recorded");
            assert_eq!((stats.arena_misses, stats.arena_reuses), (buffers, 0));
            engine.recycle(ok);
            engine.gemm(&a, &c).expect("shapes agree");
            let stats = engine.stats();
            assert_eq!((stats.arena_misses, stats.arena_reuses), (buffers, buffers));
            engine.clear_cache();
            assert_eq!(engine.stats(), ExecEngine::with_data_path(1, path).stats());
        }
    }
}
