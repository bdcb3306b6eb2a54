//! Property tests pinning the fast-path engine to the ascending row sum:
//! for every data path, worker count and dense dimension, the engine's
//! output must equal (f32 `==`) what
//! [`mpspmm_core::executor::execute_sequential`] computes for the serial
//! plan, and every kernel's `spmm_sequential` must replay its own plan to
//! that product (up to float association) with the plan's write
//! statistics.

use mpspmm_core::executor::execute_sequential;
use mpspmm_core::{
    default_workers, DataPath, Epilogue, ExecEngine, MergePathSerialFixup, MergePathSpmm,
    NnzSplitSpmm, RowSplitSpmm, SerialSpmm, SpmmKernel, WriteStats,
};
use mpspmm_graphs::{find_dataset, gcn_normalize};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Engine worker counts every exactness check sweeps: inline, pooled,
/// an odd count, and more workers than a small matrix has rows.
const WORKERS: [usize; 4] = [1, 2, 7, 64];

/// A random square CSR matrix with a deliberately heavy first row (longer
/// than a worker's share at two workers or more) plus a random dense
/// operand.
fn random_inputs(
    rows: usize,
    nnz: usize,
    dim: usize,
    seed: u64,
) -> (CsrMatrix<f32>, DenseMatrix<f32>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coords = std::collections::BTreeSet::new();
    for c in 0..(nnz / 3).min(rows) {
        coords.insert((0usize, c));
    }
    while coords.len() < nnz.min(rows * rows) {
        coords.insert((rng.gen_range(0..rows), rng.gen_range(0..rows)));
    }
    let triplets: Vec<(usize, usize, f32)> = coords
        .into_iter()
        .map(|(r, c)| (r, c, rng.gen_range(-2.0..2.0)))
        .collect();
    let a = CsrMatrix::from_triplets(rows, rows, &triplets).unwrap();
    let mut feat_rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let b = DenseMatrix::from_fn(rows, dim, |_, _| feat_rng.gen_range(-1.0..1.0));
    (a, b)
}

/// The ascending row sum and its write statistics: the serial plan
/// replayed by the sequential executor.
fn row_sum(a: &CsrMatrix<f32>, b: &DenseMatrix<f32>) -> (DenseMatrix<f32>, WriteStats) {
    execute_sequential(&SerialSpmm.plan(a, b.cols()), a, b).unwrap()
}

/// The engine's product of `a · b` at `workers` workers on `path`.
fn engine_product(
    workers: usize,
    path: DataPath,
    a: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
) -> DenseMatrix<f32> {
    let engine = ExecEngine::with_data_path(workers, path);
    engine.spmm(a, &[b], &Epilogue::NONE).unwrap().remove(0)
}

/// The parallel kernels, with small fixed decompositions so their plans
/// contain a mix of regular, atomic, and carry segments.
fn kernels() -> Vec<Box<dyn SpmmKernel>> {
    vec![
        Box::new(MergePathSpmm::with_threads(7)),
        Box::new(MergePathSerialFixup::with_threads(6)),
        Box::new(NnzSplitSpmm::with_ng_size(3)),
        Box::new(RowSplitSpmm::with_threads(5)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_equals_the_row_sum(
        rows in 2usize..48,
        fill in 1usize..6,
        seed in any::<u64>(),
    ) {
        let nnz = (rows * fill).min(rows * rows);
        for &dim in &[1usize, 3, 8, 33] {
            let (a, b) = random_inputs(rows, nnz, dim, seed);
            let (want, _) = row_sum(&a, &b);
            for path in [DataPath::Scalar, DataPath::Vector] {
                for &workers in &WORKERS {
                    let got = engine_product(workers, path, &a, &b);
                    prop_assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "path={:?} workers={} dim={}",
                        path,
                        workers,
                        dim
                    );
                }
            }
        }
    }

    /// The paper's kernels keep their plans for Fig. 5's accounting: each
    /// plan is valid, and `spmm_sequential` replays it to the row sum (up
    /// to float association) while realizing exactly its static
    /// statistics.
    #[test]
    fn kernels_replay_their_plans_statistics(
        rows in 2usize..48,
        fill in 1usize..6,
        seed in any::<u64>(),
    ) {
        let nnz = (rows * fill).min(rows * rows);
        let (a, b) = random_inputs(rows, nnz, 8, seed);
        let (want, _) = row_sum(&a, &b);
        for kernel in kernels() {
            let plan = kernel.plan(&a, 8);
            plan.validate(&a).unwrap();
            let (got, stats) = kernel.spmm_sequential(&a, &b).unwrap();
            prop_assert!(got.approx_eq(&want, 1e-4).unwrap(), "kernel={}", kernel.name());
            prop_assert_eq!(stats, plan.write_stats(), "kernel={}", kernel.name());
        }
    }

    #[test]
    fn per_call_plan_equals_the_row_sum(
        rows in 2usize..40,
        seed in any::<u64>(),
    ) {
        let nnz = (rows * 4).min(rows * rows);
        let (a, b) = random_inputs(rows, nnz, 16, seed);
        let (want, _) = row_sum(&a, &b);
        for &workers in &WORKERS {
            let engine = ExecEngine::new(workers);
            let got = engine.spmm(&a, &[&b], &Epilogue::NONE).unwrap().remove(0);
            prop_assert_eq!(got.as_slice(), want.as_slice(), "workers={}", workers);
        }
    }

    /// Every data path equals the row sum at a random dimension in the
    /// full 1..=67 lane-tail matrix (exhaustive dims are covered by the
    /// deterministic test below; this adds random sparsity patterns on
    /// top).
    #[test]
    fn every_path_equals_the_row_sum_at_random_dims(
        rows in 2usize..48,
        fill in 1usize..6,
        dim in 1usize..=67,
        seed in any::<u64>(),
    ) {
        let nnz = (rows * fill).min(rows * rows);
        let (a, b) = random_inputs(rows, nnz, dim, seed);
        let (want, _) = row_sum(&a, &b);
        for path in [DataPath::Scalar, DataPath::Vector] {
            for &workers in &WORKERS {
                let got = engine_product(workers, path, &a, &b);
                prop_assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "path={:?} workers={} dim={}",
                    path,
                    workers,
                    dim
                );
            }
        }
    }

    /// The engine keeps nothing of a matrix between calls: after a run on
    /// one structure, a run on another matrix with the same row count
    /// returns that matrix's exact product.
    #[test]
    fn a_second_structure_gets_its_own_exact_product(
        rows in 2usize..48,
        fill in 1usize..6,
        seed in any::<u64>(),
    ) {
        let (old, _) = random_inputs(rows, (rows * fill).min(rows * rows), 1, seed);
        let (new, b) = random_inputs(rows, (rows * (7 - fill)).min(rows * rows), 9, !seed);
        let (want, _) = row_sum(&new, &b);
        for &workers in &WORKERS {
            let engine = ExecEngine::new(workers);
            let first = DenseMatrix::from_fn(rows, 9, |r, c| (r + c) as f32);
            engine.spmm(&old, &[&first], &Epilogue::NONE).unwrap();
            let got = engine.spmm(&new, &[&b], &Epilogue::NONE).unwrap().remove(0);
            prop_assert_eq!(got.as_slice(), want.as_slice(), "workers={}", workers);
        }
    }
}

/// Exhaustive sweep of every dense dimension 1..=67 (covering the scalar
/// tail of every lane width: 4, 8, 16 and their combinations) on a matrix
/// that mixes an evil long row, single-nnz rows, and empty rows — the
/// degree spectrum the adaptive dispatcher splits on.
#[test]
fn all_paths_equal_the_row_sum_for_dims_1_to_67() {
    let mut triplets: Vec<(usize, usize, f32)> = Vec::new();
    // Evil row 0: 20 non-zeros (streaming kernel territory).
    for c in 0..20 {
        triplets.push((0, c, 0.25 * c as f32 - 2.0));
    }
    // Single-nnz rows (gather territory); rows 21, 24, 27 stay empty.
    for r in (1..30).filter(|r| r % 3 != 0) {
        triplets.push((r, (r * 7) % 30, 1.0 - 0.1 * r as f32));
    }
    let a = CsrMatrix::from_triplets(30, 30, &triplets).unwrap();
    for dim in 1..=67usize {
        let b = DenseMatrix::from_fn(30, dim, |r, c| ((r * 13 + c * 5) % 23) as f32 * 0.125 - 1.0);
        let (want, _) = row_sum(&a, &b);
        for path in [DataPath::Scalar, DataPath::Vector] {
            for workers in WORKERS {
                let got = engine_product(workers, path, &a, &b);
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "path={path:?} dim={dim} workers={workers}"
                );
            }
        }
    }
}

/// The served PPI layer's aggregation shape: the Table II PPI graph,
/// normalized, times a width-121 operand gives identical bytes at engine
/// workers 1, 2 and 8 and at the resolved count, on both data paths — the
/// rounding of a served reply does not depend on how many workers
/// computed it.
#[test]
fn ppi_shaped_width_121_spmm_is_identical_at_every_worker_count() {
    let spec = find_dataset("PPI").expect("PPI is in Table II");
    let a = gcn_normalize(&spec.synthesize(1));
    let mut rng = SmallRng::seed_from_u64(121);
    let b = DenseMatrix::from_fn(a.cols(), 121, |_, _| rng.gen_range(-1.0f32..1.0));
    let bits = |m: &DenseMatrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for path in [DataPath::Scalar, DataPath::Vector] {
        let one = engine_product(1, path, &a, &b);
        for workers in [2, 8, default_workers()] {
            let got = engine_product(workers, path, &a, &b);
            assert!(
                bits(&got) == bits(&one),
                "{path:?} workers={workers} differs from one worker"
            );
        }
    }
}
