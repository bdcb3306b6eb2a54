//! Property tests pinning the fast-path engine to the sequential oracle:
//! for every parallel kernel, worker count, and dense dimension, the
//! engine's output must stay within tolerance of
//! [`mpspmm_core::executor::execute_sequential`] and its realized
//! [`WriteStats`] must match both the oracle's and the plan's static
//! accounting exactly.

use mpspmm_core::executor::execute_sequential;
use mpspmm_core::{
    DataPath, ExecEngine, MergePathSerialFixup, MergePathSpmm, NnzSplitSpmm, PreparedPlan,
    RowSplitSpmm, SpmmKernel,
};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random square CSR matrix with a deliberately heavy first row (to
/// force partial/atomic segments) plus a random dense operand.
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

/// The four parallel kernels, with small fixed decompositions so plans
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
    fn engine_matches_sequential_oracle(
        rows in 2usize..48,
        fill in 1usize..6,
        seed in any::<u64>(),
    ) {
        let nnz = (rows * fill).min(rows * rows);
        for kernel in kernels() {
            for &dim in &[1usize, 3, 8, 33] {
                let (a, b) = random_inputs(rows, nnz, dim, seed);
                let plan = kernel.plan(&a, dim);
                plan.validate(&a).unwrap();
                let (want, want_stats) = execute_sequential(&plan, &a, &b).unwrap();
                // Realized stats are a property of the plan alone.
                prop_assert_eq!(want_stats, plan.write_stats());
                let scale = want.frobenius_norm().max(1.0);
                for &workers in &[1usize, 2, 7, 64] {
                    let engine = ExecEngine::new(workers);
                    let (got, got_stats) = engine.execute(&plan, &a, &b).unwrap();
                    prop_assert!(
                        got.max_abs_diff(&want).unwrap() <= 1e-4 * scale,
                        "kernel={} workers={} dim={}",
                        kernel.name(),
                        workers,
                        dim
                    );
                    prop_assert_eq!(got_stats, want_stats);
                }
            }
        }
    }

    #[test]
    fn cached_path_matches_uncached_engine(
        rows in 2usize..40,
        seed in any::<u64>(),
    ) {
        let nnz = (rows * 4).min(rows * rows);
        let (a, b) = random_inputs(rows, nnz, 16, seed);
        let kernel = MergePathSpmm::with_threads(9);
        // One worker: execution is deterministic, so cached and uncached
        // runs must agree bit-for-bit (multi-worker atomic ordering is
        // covered with a tolerance by the oracle test above).
        let engine = ExecEngine::new(1);
        let plan = kernel.plan(&a, 16);
        let (want, want_stats) = engine.execute(&plan, &a, &b).unwrap();
        // Twice through the cache: miss then hit must agree bit-for-bit
        // with each other and with the uncached path.
        let (miss, s1) = engine.spmm_cached(&kernel, &a, &b, 0).unwrap();
        let (hit, s2) = engine.spmm_cached(&kernel, &a, &b, 0).unwrap();
        prop_assert_eq!(miss.max_abs_diff(&want).unwrap(), 0.0);
        prop_assert_eq!(hit.max_abs_diff(&want).unwrap(), 0.0);
        prop_assert_eq!(s1, want_stats);
        prop_assert_eq!(s2, want_stats);
        prop_assert!(engine.stats().plan_cache_hits >= 1);
    }

    /// The vectorized data path (gather + streaming panel kernels, packed
    /// or plain indices) must be bit-identical to the scalar oracle for
    /// every kernel at a random dimension in the full 1..=67 lane-tail
    /// matrix (exhaustive dims are covered by the deterministic test
    /// below; this adds random sparsity patterns on top).
    #[test]
    fn vector_path_bit_matches_oracle_at_random_dims(
        rows in 2usize..48,
        fill in 1usize..6,
        dim in 1usize..=67,
        seed in any::<u64>(),
    ) {
        let nnz = (rows * fill).min(rows * rows);
        let (a, b) = random_inputs(rows, nnz, dim, seed);
        for kernel in kernels() {
            let plan = kernel.plan(&a, dim);
            let (want, _) = execute_sequential(&plan, &a, &b).unwrap();
            for path in [DataPath::Scalar, DataPath::Tiled, DataPath::Vector] {
                let engine = ExecEngine::with_data_path(1, path);
                let (got, _) = engine.execute(&plan, &a, &b).unwrap();
                prop_assert_eq!(
                    got.max_abs_diff(&want).unwrap(),
                    0.0,
                    "kernel={} path={:?} dim={}",
                    kernel.name(),
                    path,
                    dim
                );
                let prep = PreparedPlan::for_matrix(plan.clone(), &a);
                let (packed, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
                prop_assert_eq!(
                    packed.max_abs_diff(&want).unwrap(),
                    0.0,
                    "packed kernel={} path={:?} dim={}",
                    kernel.name(),
                    path,
                    dim
                );
            }
        }
    }
}

/// Exhaustive sweep of every dense dimension 1..=67 (covering the scalar
/// tail of every lane width: 4, 8, 16 and their combinations) on a matrix
/// that mixes an evil long row, single-nnz rows, and empty rows — the
/// degree spectrum the adaptive dispatcher splits on.
#[test]
fn all_paths_bit_match_oracle_for_dims_1_to_67() {
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
    let kernel = MergePathSpmm::with_threads(11);
    for dim in 1..=67usize {
        let b = DenseMatrix::from_fn(30, dim, |r, c| ((r * 13 + c * 5) % 23) as f32 * 0.125 - 1.0);
        let plan = kernel.plan(&a, dim);
        let (want, _) = execute_sequential(&plan, &a, &b).unwrap();
        for path in [DataPath::Scalar, DataPath::Tiled, DataPath::Vector] {
            let engine = ExecEngine::with_data_path(1, path);
            let prep = PreparedPlan::for_matrix(plan.clone(), &a);
            let (got, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
            assert_eq!(
                got.max_abs_diff(&want).unwrap(),
                0.0,
                "path={path:?} dim={dim}"
            );
        }
    }
}
