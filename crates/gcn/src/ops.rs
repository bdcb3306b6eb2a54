//! Dense linear-algebra operations for the GCN combination phase.

use mpspmm_core::{parallel_apply_chunks, ExecEngine};
use mpspmm_sparse::{DenseMatrix, SparseFormatError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Dense matrix multiplication `A × B` on the process-wide engine's
/// register-tiled band GEMM ([`mpspmm_core::ExecEngine::gemm`] on
/// [`ExecEngine::global`]).
///
/// This is the `X × W` combination outside a caller-held engine (test
/// oracles, benches and examples); the layer forwards call their own
/// engine's `gemm`, so the codebase has one dense GEMM kernel. Each
/// output element accumulates in ascending-`k` order, as the naive `ikj`
/// loop does. Whenever `B`
/// is finite the result is also bit-identical to that loop with an
/// `a == 0.0` skip, because a skipped term only adds `±0` to an
/// accumulator that is never `-0` (the `gemm_dense` tests pin this). A
/// stored zero in `A` times a non-finite `B` entry gives `NaN`.
///
/// The product follows the global engine's worker count
/// (`MPSPMM_WORKERS`); the output bits do not depend on it.
///
/// Must not be called from inside a job of the engine's worker pool
/// (debug builds assert this).
///
/// # Errors
///
/// Returns [`SparseFormatError::ShapeMismatch`] if `a.cols() != b.rows()`.
pub fn gemm(
    a: &DenseMatrix<f32>,
    b: &DenseMatrix<f32>,
) -> Result<DenseMatrix<f32>, SparseFormatError> {
    ExecEngine::global().gemm(a, b)
}

/// Nonlinear activation functions used between GCN layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Logistic sigmoid, `1 / (1 + e^-x)`.
    Sigmoid,
    /// No activation (final layer before softmax/loss).
    Identity,
}

impl Activation {
    /// Applies the activation element-wise in place.
    ///
    /// This is the **unfused fallback** — the hot layer paths fuse their
    /// activation into the engine's SpMM store stage
    /// ([`mpspmm_core::Epilogue`]) and never re-stream the output. When
    /// it does run (GIN and SAGE layers, sigmoid GCN layers, standalone
    /// use), large matrices are split across the engine's worker pool;
    /// the per-span loops are branch-light and autovectorize.
    pub fn apply(&self, m: &mut DenseMatrix<f32>) {
        match self {
            Activation::Relu => {
                parallel_apply_chunks(m.as_mut_slice(), 1, |_, span| {
                    // Select form, not a branched store: the sign pattern
                    // of post-SpMM activations is close to random, and a
                    // data-dependent branch here mispredicts half the
                    // time. Semantics are unchanged (`-0.0` and NaN pass
                    // through), so fused/unfused bit-identity holds.
                    for v in span {
                        *v = if *v < 0.0 { 0.0 } else { *v };
                    }
                });
            }
            Activation::Sigmoid => {
                parallel_apply_chunks(m.as_mut_slice(), 1, |_, span| {
                    for v in span {
                        *v = 1.0 / (1.0 + (-*v).exp());
                    }
                });
            }
            Activation::Identity => {}
        }
    }
}

/// Row-wise softmax (numerically stabilized), producing per-node class
/// probabilities from the final layer's logits. Rows are independent, so
/// large matrices are processed row-parallel on the engine's worker pool.
///
/// Degenerate rows are handled deterministically:
///
/// * a row containing any `NaN` has no well-defined distribution and
///   becomes all zeros (previously such rows were silently left holding
///   their raw logits, because `fold(NEG_INFINITY, f32::max)` *ignores*
///   `NaN` unless it is the only value — the "max is NaN" guard never
///   actually fired on mixed rows);
/// * a row whose maximum is `+∞` or `-∞` (all-`-∞` rows included) is
///   left untouched, as before — there is no stable finite shift.
pub fn softmax_rows(m: &mut DenseMatrix<f32>) {
    let cols = m.cols();
    if cols == 0 || m.rows() == 0 {
        return;
    }
    parallel_apply_chunks(m.as_mut_slice(), cols, |_, span| {
        for row in span.chunks_mut(cols) {
            if row.iter().any(|v| v.is_nan()) {
                row.fill(0.0);
                continue;
            }
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if !max.is_finite() {
                continue;
            }
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    });
}

/// Glorot/Xavier-style uniform weight initialization, seeded and
/// deterministic: entries drawn from `U(-s, s)` with
/// `s = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_init(fan_in: usize, fan_out: usize, seed: u64) -> DenseMatrix<f32> {
    let s = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let mut rng = SmallRng::seed_from_u64(seed);
    DenseMatrix::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-s..s))
}

/// Deterministic synthetic node-feature matrix: moderately sparse
/// (about `density` of entries non-zero), matching the paper's description
/// of `X` as "moderately sparse since the nodes do not have valid values
/// for all possible features".
pub fn random_features(nodes: usize, features: usize, density: f64, seed: u64) -> DenseMatrix<f32> {
    assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFEED);
    DenseMatrix::from_fn(nodes, features, |_, _| {
        if rng.gen::<f64>() < density {
            rng.gen_range(0.0..1.0)
        } else {
            0.0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_matches_hand_computation() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseMatrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_rejects_shape_mismatch() {
        let a = DenseMatrix::<f32>::zeros(2, 3);
        let b = DenseMatrix::<f32>::zeros(2, 3);
        assert!(gemm(&a, &b).is_err());
    }

    #[test]
    fn gemm_identity() {
        let i = DenseMatrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let b = DenseMatrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let c = gemm(&i, &b).unwrap();
        assert_eq!(c, b);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut m = DenseMatrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]).unwrap();
        Activation::Relu.apply(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_is_bounded_and_monotone() {
        let mut m = DenseMatrix::from_vec(1, 3, vec![-10.0, 0.0, 10.0]).unwrap();
        Activation::Sigmoid.apply(&mut m);
        let v = m.as_slice();
        assert!(v[0] < 0.01 && (v[1] - 0.5).abs() < 1e-6 && v[2] > 0.99);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        softmax_rows(&mut m);
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(m.row(r).iter().all(|&v| v > 0.0));
        }
        // Largest logit keeps the largest probability.
        assert!(m.get(0, 2) > m.get(0, 1));
    }

    #[test]
    fn softmax_nan_row_becomes_deterministic_zeros() {
        // Regression: `fold(NEG_INFINITY, f32::max)` ignores NaN on mixed
        // rows, so the old "max not finite" guard never fired and the row
        // kept its raw logits (including the NaN). Now any NaN-bearing
        // row collapses to all zeros, and clean rows are unaffected.
        let mut m = DenseMatrix::from_vec(
            3,
            3,
            vec![1.0, f32::NAN, 2.0, 1.0, 2.0, 3.0, f32::NAN, -1.0, 0.5],
        )
        .unwrap();
        softmax_rows(&mut m);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(m.row(2), &[0.0, 0.0, 0.0]);
        let s: f32 = m.row(1).iter().sum();
        assert!((s - 1.0).abs() < 1e-6, "clean row still normalized");
        assert!(m.row(1).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_infinite_rows_and_empty_are_untouched() {
        let mut m = DenseMatrix::from_vec(2, 2, vec![f32::INFINITY, 1.0, 1.0, 2.0]).unwrap();
        softmax_rows(&mut m);
        assert_eq!(m.row(0), &[f32::INFINITY, 1.0], "inf row left as-is");
        let mut empty = DenseMatrix::<f32>::zeros(0, 4);
        softmax_rows(&mut empty);
        let mut zero_wide = DenseMatrix::<f32>::zeros(4, 0);
        softmax_rows(&mut zero_wide);
    }

    #[test]
    fn activation_apply_parallel_matches_scalar_reference() {
        // Big enough to cross the pool's inline threshold.
        let n = mpspmm_core::PAR_APPLY_MIN_LEN + 13;
        let vals: Vec<f32> = (0..n).map(|i| ((i % 23) as f32) - 11.0).collect();
        for act in [Activation::Relu, Activation::Sigmoid] {
            let mut m = DenseMatrix::from_vec(1, n, vals.clone()).unwrap();
            act.apply(&mut m);
            for (i, (&got, &x)) in m.as_slice().iter().zip(&vals).enumerate() {
                let want = match act {
                    Activation::Relu => {
                        if x < 0.0 {
                            0.0
                        } else {
                            x
                        }
                    }
                    Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
                    Activation::Identity => x,
                };
                assert_eq!(got, want, "{act:?} element {i}");
            }
        }
    }

    #[test]
    fn xavier_init_is_seeded_and_bounded() {
        let w1 = xavier_init(64, 16, 7);
        let w2 = xavier_init(64, 16, 7);
        assert_eq!(w1, w2);
        let s = (6.0f32 / 80.0).sqrt();
        assert!(w1.as_slice().iter().all(|v| v.abs() <= s));
        assert!(w1.as_slice().iter().any(|v| v.abs() > 1e-4));
    }

    #[test]
    fn random_features_match_density() {
        let x = random_features(200, 50, 0.3, 5);
        let nnz = x.as_slice().iter().filter(|&&v| v != 0.0).count();
        let frac = nnz as f64 / (200.0 * 50.0);
        assert!((frac - 0.3).abs() < 0.05, "density {frac}");
    }
}
