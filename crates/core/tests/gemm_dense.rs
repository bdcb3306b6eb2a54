//! Pins the engine's blocked, register-tiled dense GEMM to the seed
//! naive `ikj` loop **with its `a == 0.0` skip**. The engine GEMM runs
//! every GCN feature transform, layer 0's moderately sparse raw features
//! included, where the seed code ran this skip loop; these tests prove
//! the swap moved no output bit. The blocked kernel drops the
//! per-element branch, so the two may differ only in the sign of zero
//! terms the skip never adds; `f32` equality treats `-0.0 == 0.0`, so
//! bit-level agreement is asserted with `==`: by property test across
//! dims 1..=67, k = 0 and fully empty operands, and by fixed cases at
//! every GEMM shape actually served, at workers {1, 2, 8}.

use mpspmm_core::{default_workers, DataPath, ExecEngine};
use mpspmm_sparse::DenseMatrix;
use proptest::prelude::*;

/// The seed `mpspmm_gcn::ops::gemm` loop, inlined as the oracle (ikj
/// order, `av == 0.0` skip).
fn naive_gemm_with_skip(a: &DenseMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
    let (m, n) = (a.rows(), b.cols());
    let mut out = DenseMatrix::<f32>::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (dst, &bv) in orow.iter_mut().zip(b.row(p)) {
                *dst += av * bv;
            }
        }
    }
    out
}

/// Deterministic pseudo-random fill with a deliberately fat zero class
/// (about a third of entries are exact `0.0`), so the skip-vs-no-skip
/// difference is actually exercised.
fn filled(rows: usize, cols: usize, seed: u64) -> DenseMatrix<f32> {
    let mut v = seed | 1;
    DenseMatrix::from_fn(rows, cols, |_, _| {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let q = (v >> 33) % 9;
        if q < 3 {
            0.0
        } else {
            (q as f32 - 6.0) * 0.375
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gemm_dense_vs_naive(
        m in 0usize..=67,
        k in 0usize..=67,
        n in 0usize..=67,
        seed in any::<u64>(),
        workers in 1usize..=5,
    ) {
        let a = filled(m, k, seed);
        let b = filled(k, n, seed ^ 0xBEEF);
        let want = naive_gemm_with_skip(&a, &b);
        for path in [DataPath::Scalar, DataPath::Vector] {
            let engine = ExecEngine::with_data_path(workers, path);
            let got = engine.gemm(&a, &b).unwrap();
            prop_assert_eq!(got.rows(), m);
            prop_assert_eq!(got.cols(), n);
            prop_assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "m={} k={} n={} path={:?} workers={}",
                m, k, n, path, workers
            );
        }
    }
}

/// Raw-feature fill at `density`: about `1 - density` of entries are
/// stored zeros (a few of them `-0.0`), the rest lie in `[-1, 1)`.
fn features(rows: usize, cols: usize, density: f64, seed: u64) -> DenseMatrix<f32> {
    let mut v = seed | 1;
    DenseMatrix::from_fn(rows, cols, |_, _| {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (v >> 11) as f64 / (1u64 << 53) as f64;
        if u >= density {
            if (v >> 40) & 0xF == 0 {
                -0.0
            } else {
                0.0
            }
        } else {
            (u / density * 2.0 - 1.0) as f32
        }
    })
}

fn worker_counts() -> Vec<usize> {
    let mut ws = vec![1, 2, 8, default_workers()];
    ws.sort_unstable();
    ws.dedup();
    ws
}

/// Fixed cases at every served GEMM shape (DESIGN.md §2.11): `k = 50 →
/// n = 128` and `128 → 121` (PPI's two layers: many packed lane blocks
/// of `B`, past the 67-capped property test), `16 → 32` and `32 → 2`
/// (`molecule-pack`'s two layers; the last runs the AVX-512F
/// rows-in-lanes tile). Each runs 289 rows, not a multiple of the 16-row
/// narrow tile or of the 32-row band granule, at feature density 0.5, on
/// every data path.
#[test]
fn served_gemm_shapes_match_skip_loop_exactly() {
    for (k, n, seed) in [(50, 128, 1u64), (16, 32, 2), (32, 2, 3), (128, 121, 4)] {
        let m = 289;
        let x = features(m, k, 0.5, seed);
        let w = filled(k, n, seed ^ 0xBEEF);
        let zeros = x.as_slice().iter().filter(|v| **v == 0.0).count();
        assert!(zeros * 3 > m * k, "the fill stores zeros");
        let want = naive_gemm_with_skip(&x, &w);
        for workers in worker_counts() {
            for path in [DataPath::Scalar, DataPath::Vector] {
                let engine = ExecEngine::with_data_path(workers, path);
                let got = engine.gemm(&x, &w).unwrap();
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "m={m} k={k} n={n} path={path:?} workers={workers}"
                );
            }
        }
    }
}
