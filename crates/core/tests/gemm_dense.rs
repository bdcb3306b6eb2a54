//! Property test pinning the engine's blocked, register-tiled dense GEMM
//! to the seed naive `ikj` loop **with its `a == 0.0` skip** — the exact
//! loop `mpspmm-gcn`'s layer-0 combination still runs. The blocked
//! kernel drops the per-element branch, so the two may differ only in
//! the sign of zero terms the skip never adds; `f32` equality treats
//! `-0.0 == 0.0`, so bit-level agreement is asserted with `==` across
//! dims 1..=67, k = 0, and fully empty operands.

use mpspmm_core::{DataPath, ExecEngine};
use mpspmm_sparse::DenseMatrix;
use proptest::prelude::*;

/// The pre-fusion `mpspmm_gcn::ops::gemm` loop, inlined as the oracle
/// (ikj order, `av == 0.0` skip).
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
        for path in [DataPath::Scalar, DataPath::Tiled, DataPath::Vector, DataPath::Auto] {
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
