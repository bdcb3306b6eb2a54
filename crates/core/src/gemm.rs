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
//! Neither `k` nor the output width is cache-blocked: each register tile
//! sweeps every packed column block of `B` over the full `k` from a
//! `0.0` seed and stores it once, so each output element accumulates in
//! the naive loop's ascending-`k` order and results stay bit-equal to the
//! naive `ikj` GEMM — the property the GCN fused-vs-unfused oracle tests
//! lean on. Every GEMM the served workloads run fits one sweep in cache
//! (DESIGN.md §2.11). Because the vectorized tiles store every element
//! and read none, their output and pack buffers come from the arena
//! unzeroed: a recycled buffer's stale values never survive.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use mpspmm_sparse::{DenseMatrix, SparseFormatError};

use crate::datapath::{gemm_band, gemm_pack_width, pack_b};
use crate::engine::ExecEngine;
use crate::pool::{ScopedJob, WorkerPool};
use crate::tuning::gemm_band_rows;

/// A take-once slot holding one output band's `A` rows and `&mut`
/// slice, claimed by exactly one self-scheduled worker.
type BandSlot<'a> = Mutex<Option<(StackRows<'a>, &'a mut [f32])>>;

/// The rows of a vertical stack of dense parts, in order from wherever
/// the cursor stands: `A` as [`ExecEngine::gemm_stacked`] reads it, each
/// row where its part lies. Empty parts are skipped.
#[derive(Clone)]
struct StackRows<'a> {
    parts: &'a [&'a DenseMatrix<f32>],
    part: usize,
    row: usize,
}

impl<'a> StackRows<'a> {
    fn new(parts: &'a [&'a DenseMatrix<f32>]) -> Self {
        Self {
            parts,
            part: 0,
            row: 0,
        }
    }

    /// Moves the cursor `n` rows on, a part at a time.
    fn advance(&mut self, mut n: usize) {
        while let Some(p) = self.parts.get(self.part) {
            let left = p.rows() - self.row;
            if n < left {
                self.row += n;
                return;
            }
            n -= left;
            self.part += 1;
            self.row = 0;
        }
    }
}

impl<'a> Iterator for StackRows<'a> {
    type Item = &'a [f32];

    fn next(&mut self) -> Option<&'a [f32]> {
        loop {
            let p = self.parts.get(self.part)?;
            if self.row < p.rows() {
                self.row += 1;
                return Some(p.row(self.row - 1));
            }
            self.part += 1;
            self.row = 0;
        }
    }
}

impl ExecEngine {
    /// Dense row-major GEMM `A · B` on the engine: arena-backed output,
    /// register-tiled band kernel, row bands self-scheduled across the
    /// worker pool. Adds its wall time to
    /// [`crate::EngineStats::gemm_ns`]. The one-part
    /// [`gemm_stacked`](Self::gemm_stacked).
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
        self.gemm_stacked(&[a], b)
    }

    /// [`gemm`](Self::gemm) with `A` the vertical stack of `parts`, read
    /// where each part lies: the output holds every part's rows in order,
    /// and nothing is stacked. A register tile may take its rows from two
    /// parts. Each output row is the same as that part's own product,
    /// since every element sums its products in ascending `k` whichever
    /// rows share its tile. A packed window's first GCN layer reads its
    /// graphs' feature matrices this way.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] naming the first part
    /// whose `cols()` differs from `b.rows()`.
    pub fn gemm_stacked(
        &self,
        parts: &[&DenseMatrix<f32>],
        b: &DenseMatrix<f32>,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        let k = b.rows();
        if let Some(a) = parts.iter().find(|a| a.cols() != k) {
            return Err(SparseFormatError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (b.rows(), b.cols()),
            });
        }
        let start = Instant::now();
        let (m, n) = (parts.iter().map(|a| a.rows()).sum::<usize>(), b.cols());
        let rp = self.data_path.resolve();
        let width = gemm_pack_width(&rp, n);
        // The register tiles store every output element from a literal
        // `0.0` seed, so their output needs no zeroing pass. The scalar
        // path accumulates into `C`, and with `k == 0` nothing runs: both
        // take a zeroed buffer.
        let mut out = match width {
            Some(_) if k > 0 => self.arena.take(m * n),
            _ => self.arena.take_zeroed(m * n),
        };
        // Pack `B` once into column blocks of the tile's width
        // (arena-recycled, every element written), the last one
        // zero-padded, so every band's microkernel streams contiguous
        // lines instead of striding `n` floats per `k` step. Pure data
        // movement — results stay bitwise identical (see `pack_b`).
        let packed = match width {
            Some(w) => {
                let mut buf = self.arena.take(n.div_ceil(w) * k * w);
                pack_b(b, w, &mut buf);
                buf
            }
            None => Vec::new(),
        };
        let pslab: &[f32] = &packed;
        let band_rows = gemm_band_rows(m, k, n);
        let eff = self.workers.min(m.div_ceil(band_rows)).max(1);
        let mut rows = StackRows::new(parts);
        if eff <= 1 {
            for band in out.chunks_mut(band_rows * n.max(1)) {
                gemm_band(&mut rows, k, b, pslab, &rp, band);
            }
        } else {
            // Self-scheduled bands: each band's `&mut` slice sits in a
            // take-once slot, with a cursor at its first `A` row; workers
            // claim slot indices off a shared counter, so each band is
            // executed exactly once and the borrows never alias.
            let slots: Vec<BandSlot<'_>> = out
                .chunks_mut(band_rows * n.max(1))
                .map(|band| {
                    let here = rows.clone();
                    rows.advance(band_rows);
                    Mutex::new(Some((here, band)))
                })
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
                        let (arows, band) = slots[i]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .take()
                            .expect("band slot claimed exactly once");
                        gemm_band(arows, k, b, pslab, &rp, band);
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

    /// The engine takes its GEMM output from the arena unzeroed wherever
    /// the kernel stores every element. Hand it a recycled NaN-filled
    /// buffer of the output's exact size: any element the kernel fails
    /// to store (a partial column block, a remainder row, a later band)
    /// leaks a NaN and breaks `==` with the naive loop. The widths hit
    /// the 16-lane tile (2, 16) and the AVX-512F 32-column tile with and
    /// without a padded last block, up to 600 columns and 600 deep.
    /// `m = 70` ends in a 2-row tile remainder. Bands are sized by
    /// multiply-adds, so at 70 rows most narrow shapes are one band; at
    /// each served `(k, n)` shape `m` is also two whole bands plus a
    /// 5-row partial one (several claims on the pool) and under one band
    /// (inline).
    #[test]
    fn gemm_overwrites_a_stale_recycled_output() {
        let mut cases = Vec::new();
        for n in [2usize, 16, 32, 121, 127, 128, 512, 600] {
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

    /// `gemm_stacked` over parts equals the naive loop over the matrix
    /// they stack, with `==`: parts cut at tile and band edges and inside them, empty
    /// parts (first, between and last), and one part per row, at `m` of
    /// two whole bands plus a partial one, so pooled band slots start
    /// inside parts. Both data paths, at workers {1, 2, 7}.
    #[test]
    fn stacked_parts_equal_the_matrix_they_stack() {
        for (k, n) in [(16usize, 32usize), (32, 2), (50, 128)] {
            let band = gemm_band_rows(1 << 30, k, n);
            let m = 2 * band + 5;
            let a = filled(m, k, 7);
            let b = filled(k, n, 8);
            let want = naive_gemm(&a, &b);
            let cut_sets: [Vec<usize>; 4] = [
                vec![0, 0, 3, 4, 4, band - 1, band + 2, m, m],
                vec![1, 2, 5, 6, 9, 13, m - 1],
                (0..=m).step_by(7).collect(),
                (0..=m).collect(),
            ];
            for cuts in cut_sets {
                let mut edges = vec![0];
                edges.extend(cuts.iter().copied().filter(|&c| c <= m));
                edges.push(m);
                let parts: Vec<DenseMatrix<f32>> = edges
                    .windows(2)
                    .map(|w| {
                        DenseMatrix::from_vec(
                            w[1] - w[0],
                            k,
                            a.as_slice()[w[0] * k..w[1] * k].to_vec(),
                        )
                        .unwrap()
                    })
                    .collect();
                let refs: Vec<&DenseMatrix<f32>> = parts.iter().collect();
                assert_eq!(refs.iter().map(|p| p.rows()).sum::<usize>(), m);
                for path in [DataPath::Scalar, DataPath::Vector] {
                    for workers in [1usize, 2, 7] {
                        let engine = ExecEngine::with_data_path(workers, path);
                        let got = engine.gemm_stacked(&refs, &b).unwrap();
                        assert_eq!(
                            got,
                            want,
                            "k={k} n={n} {} parts {path:?} workers={workers}",
                            refs.len()
                        );
                    }
                }
            }
            let engine = ExecEngine::new(2);
            let bad = filled(3, k + 1, 0);
            assert!(engine.gemm_stacked(&[&a, &bad], &b).is_err());
            assert_eq!(engine.gemm_stacked(&[], &b).unwrap().rows(), 0);
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
    /// and, on the vectorized path, its packed `B`; once the output is
    /// recycled, the next call allocates nothing. The wall time is
    /// counted, and `clear_cache` resets every counter.
    #[test]
    fn engine_gemm_rejects_shape_mismatch_and_counts_time_and_buffers() {
        let a = filled(4, 3, 0);
        let c = filled(3, 8, 1);
        for (path, buffers) in [(DataPath::Scalar, 1u64), (DataPath::Vector, 2)] {
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
