//! Property-based tests for the GCN substrate.

use mpspmm_core::{ExecEngine, MergePathSpmm, SerialSpmm, SpmmKernel};
use mpspmm_gcn::ops::{gemm, random_features, softmax_rows, xavier_init, Activation};
use mpspmm_gcn::{GcnLayer, GcnModel};
use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};
use proptest::prelude::*;

/// Worker counts every forward must agree across, bit for bit.
const WORKERS: [usize; 4] = [1, 2, 7, 64];

/// Runs `forward` at every count in [`WORKERS`], asserts each result
/// `==` the 1-worker one, and returns that result.
fn same_at_every_worker_count(
    forward: impl Fn(&ExecEngine) -> DenseMatrix<f32>,
) -> DenseMatrix<f32> {
    let one = forward(&ExecEngine::new(1));
    for w in &WORKERS[1..] {
        assert_eq!(forward(&ExecEngine::new(*w)), one, "workers={w}");
    }
    one
}

/// `op · b` through `kernel`'s own segment plan, replayed sequentially.
fn replay(kernel: &dyn SpmmKernel, op: &CsrMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
    kernel.spmm_sequential(op, b).unwrap().0
}

fn arb_dense(max_dim: usize) -> impl Strategy<Value = DenseMatrix<f32>> {
    (1..=max_dim, 1..=max_dim, any::<u64>()).prop_map(|(r, c, seed)| {
        let mut v = seed;
        DenseMatrix::from_fn(r, c, |_, _| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((v >> 33) as i32 % 7) as f32 * 0.25
        })
    })
}

proptest! {
    #[test]
    fn gemm_is_linear_in_the_left_operand(
        a in arb_dense(8),
        seed in any::<u64>(),
    ) {
        let b = {
            let mut v = seed | 1;
            DenseMatrix::from_fn(a.cols(), 5, |_, _| {
                v = v.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                ((v >> 40) as i32 % 5) as f32
            })
        };
        // (2A)B == 2(AB)
        let scaled_a = DenseMatrix::from_fn(a.rows(), a.cols(), |r, c| 2.0 * a.get(r, c));
        let lhs = gemm(&scaled_a, &b).unwrap();
        let rhs = gemm(&a, &b).unwrap();
        for r in 0..lhs.rows() {
            for c in 0..lhs.cols() {
                prop_assert!((lhs.get(r, c) - 2.0 * rhs.get(r, c)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gemm_matches_identity_and_zero(a in arb_dense(8)) {
        let id = DenseMatrix::from_fn(a.cols(), a.cols(), |r, c| f32::from(r == c));
        prop_assert_eq!(gemm(&a, &id).unwrap(), a.clone());
        let z = DenseMatrix::<f32>::zeros(a.cols(), 3);
        let out = gemm(&a, &z).unwrap();
        prop_assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn activations_preserve_shape_and_bounds(a in arb_dense(10)) {
        let mut relu = a.clone();
        Activation::Relu.apply(&mut relu);
        prop_assert!(relu.as_slice().iter().all(|&v| v >= 0.0));
        let mut sig = a.clone();
        Activation::Sigmoid.apply(&mut sig);
        prop_assert!(sig.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let mut id = a.clone();
        Activation::Identity.apply(&mut id);
        prop_assert_eq!(id, a);
    }

    #[test]
    fn softmax_rows_are_distributions(a in arb_dense(10)) {
        let mut m = a;
        softmax_rows(&mut m);
        for r in 0..m.rows() {
            let s: f32 = m.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
            prop_assert!(m.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn gcn_forward_agrees_across_kernels(
        seed in any::<u64>(),
        nodes in 30usize..120,
    ) {
        let nnz = (nodes * 3).min(nodes * (nodes - 1) / 2);
        let max_deg = (nodes / 3).max(2);
        let spec = DatasetSpec::custom("p", GraphClass::PowerLaw, nodes, nnz, max_deg);
        let a = spec.synthesize(seed);
        let x = random_features(nodes, 8, 0.5, seed ^ 1);
        let kernels: [&dyn SpmmKernel; 2] = [&SerialSpmm, &MergePathSpmm::with_threads(9)];

        // The forward is `==` across worker counts, and within tolerance
        // of a per-layer reference on every kernel's own plan replay.
        let gcn_w = [xavier_init(8, 8, seed ^ 2), xavier_init(8, 3, seed ^ 2 ^ 1)];
        let gcn = GcnModel::new(vec![
            GcnLayer::new(gcn_w[0].clone(), Activation::Relu),
            GcnLayer::new(gcn_w[1].clone(), Activation::Identity),
        ]);
        let a_hat = gcn_normalize(&a);
        let got = same_at_every_worker_count(|e| gcn.forward(&a_hat, &[&x], e).unwrap().remove(0));
        for kernel in kernels {
            let mut h = replay(kernel, &a_hat, &gemm(&x, &gcn_w[0]).unwrap());
            Activation::Relu.apply(&mut h);
            let want = replay(kernel, &a_hat, &gemm(&h, &gcn_w[1]).unwrap());
            prop_assert!(got.approx_eq(&want, 1e-3).unwrap(), "gcn vs {}", kernel.name());
        }
    }
}
