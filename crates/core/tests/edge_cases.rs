//! Edge-case integration tests for the core crate: degenerate matrices,
//! extreme thread counts, and boundary cost values.

use mpspmm_core::{
    merge_path_search, Epilogue, ExecEngine, MergePathSerialFixup, MergePathSpmm, NnzSplitSpmm,
    RowSplitSpmm, Schedule, SerialSpmm, SpmmKernel,
};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};

fn kernels() -> Vec<Box<dyn SpmmKernel>> {
    vec![
        Box::new(SerialSpmm),
        Box::new(RowSplitSpmm::with_threads(7)),
        Box::new(NnzSplitSpmm::with_ng_size(2)),
        Box::new(MergePathSpmm::with_threads(5)),
        Box::new(MergePathSerialFixup::with_threads(5)),
    ]
}

#[test]
fn empty_matrix_products_are_zero() {
    let a = CsrMatrix::<f32>::zeros(6, 6);
    let b = DenseMatrix::from_fn(6, 4, |r, c| (r + c) as f32);
    for k in kernels() {
        let (out, stats) = k.spmm_sequential(&a, &b).expect("empty product");
        assert_eq!(out.frobenius_norm(), 0.0, "{}", k.name());
        assert_eq!(stats.total_nnz(), 0, "{}", k.name());
    }
}

#[test]
fn single_entry_matrix() {
    let a = CsrMatrix::from_triplets(5, 5, &[(2, 3, 4.0f32)]).unwrap();
    let b = DenseMatrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
    for k in kernels() {
        let (out, _) = k.spmm_sequential(&a, &b).expect("product");
        for r in 0..5 {
            for c in 0..3 {
                let want = if r == 2 { 4.0 * b.get(3, c) } else { 0.0 };
                assert_eq!(out.get(r, c), want, "{} at ({r},{c})", k.name());
            }
        }
    }
}

#[test]
fn more_threads_than_merge_items() {
    let a = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0f32), (2, 1, 2.0)]).unwrap();
    // 5 merge items, 50 threads: most threads own nothing; result intact.
    let kernel = MergePathSpmm::with_threads(50);
    let plan = kernel.plan(&a, 2);
    plan.validate(&a).expect("valid over-threaded plan");
    let b = DenseMatrix::from_fn(3, 2, |r, _| r as f32 + 1.0);
    let (out, _) = kernel.spmm_sequential(&a, &b).expect("product");
    assert_eq!(out.get(0, 0), 1.0);
    assert_eq!(out.get(2, 0), 4.0);
}

#[test]
fn cost_one_yields_one_item_threads() {
    let a = CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0f32), (1, 2, 1.0), (3, 0, 1.0)]).unwrap();
    let s = Schedule::with_cost(&a, 1, 1);
    assert_eq!(s.num_threads(), a.merge_items());
    for asg in s.assignments() {
        assert!(asg.merge_items() <= 1);
    }
}

#[test]
fn search_extremes() {
    let a = CsrMatrix::from_triplets(4, 4, &[(1, 0, 1.0f32), (1, 1, 1.0)]).unwrap();
    let start = merge_path_search(0, &a.row_ptr()[1..], a.nnz());
    assert_eq!((start.row, start.nnz), (0, 0));
    let end = merge_path_search(a.merge_items(), &a.row_ptr()[1..], a.nnz());
    assert_eq!((end.row, end.nnz), (4, 2));
}

#[test]
fn rectangular_spmm_works() {
    // The unified-engine case: A is rectangular (features matrix X).
    let x = CsrMatrix::from_triplets(4, 7, &[(0, 6, 1.0f32), (2, 0, 2.0), (3, 3, 3.0)]).unwrap();
    let w = DenseMatrix::from_fn(7, 2, |r, c| (r * 2 + c) as f32);
    let (want, _) = SerialSpmm.spmm_sequential(&x, &w).unwrap();
    for k in kernels() {
        let (got, _) = k.spmm_sequential(&x, &w).expect("rectangular product");
        assert!(got.approx_eq(&want, 1e-6).unwrap(), "{}", k.name());
    }
}

#[test]
fn wide_output_dimension() {
    // dim far above the SIMD width exercises the multi-slice paths.
    let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0f32), (1, 0, 1.0), (1, 2, 1.0)]).unwrap();
    let b = DenseMatrix::from_fn(3, 257, |r, c| ((r * 257 + c) % 13) as f32);
    let (want, _) = SerialSpmm.spmm_sequential(&a, &b).unwrap();
    for k in kernels() {
        let (got, _) = k.spmm_sequential(&a, &b).expect("wide product");
        assert!(got.approx_eq(&want, 1e-5).unwrap(), "{}", k.name());
    }
    let got = ExecEngine::global()
        .spmm(&a, &[&b], &Epilogue::None)
        .expect("wide product")
        .remove(0);
    assert!(got.approx_eq(&want, 1e-5).unwrap(), "engine");
}

#[test]
fn min_threads_floor_zero_is_clamped() {
    let a = CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0f32)]).unwrap();
    let kernel = MergePathSpmm::new().min_threads(0);
    // Floor clamps to at least one thread.
    assert!(kernel.schedule(&a, 16).num_threads() >= 1);
}
