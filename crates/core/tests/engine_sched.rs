//! Scheduler tests: the static schedule on adversarially skewed graphs,
//! at narrow and wide dense dimensions. The static scheduler folds
//! shared rows in a fixed worker order — bit-reproducible run to run at
//! a given worker count and within the `engine_oracle` tolerance of
//! [`mpspmm_core::executor::execute_sequential`].

use mpspmm_core::executor::execute_sequential;
use mpspmm_core::{
    default_workers, DataPath, ExecEngine, MergePathSerialFixup, MergePathSpmm, NnzSplitSpmm,
    PreparedPlan, RowSplitSpmm, SpmmKernel,
};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An adversarially skewed rectangular CSR matrix: row 0 holds **more
/// than half** of all non-zeros (the matrix is wide enough to fit them
/// in one row), a band of rows stays completely empty, and the rest is
/// uniform noise. This is the §III evil-row pathology, one level up:
/// any contiguous static span containing row 0 becomes the critical
/// path.
fn skewed_inputs(
    rows: usize,
    nnz: usize,
    dim: usize,
    seed: u64,
) -> (CsrMatrix<f32>, DenseMatrix<f32>) {
    let cols = nnz + 4; // wide: the evil row fits without capping
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coords = std::collections::BTreeSet::new();
    for c in 0..nnz / 2 + 1 {
        coords.insert((0usize, c));
    }
    // Rows in the back quarter stay empty; the rest get the leftovers.
    let live_rows = (rows * 3 / 4).max(2);
    while coords.len() < nnz {
        coords.insert((rng.gen_range(1..live_rows), rng.gen_range(0..cols)));
    }
    let triplets: Vec<(usize, usize, f32)> = coords
        .into_iter()
        .map(|(r, c)| (r, c, rng.gen_range(-2.0..2.0)))
        .collect();
    let a = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
    let mut feat_rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let b = DenseMatrix::from_fn(cols, dim, |_, _| feat_rng.gen_range(-1.0..1.0));
    (a, b)
}

/// The four parallel kernels with small decompositions, so plans mix
/// regular, atomic, and carry flushes across several worker spans.
fn kernels() -> Vec<Box<dyn SpmmKernel>> {
    vec![
        Box::new(MergePathSpmm::with_threads(13)),
        Box::new(MergePathSerialFixup::with_threads(12)),
        Box::new(NnzSplitSpmm::with_ng_size(3)),
        Box::new(RowSplitSpmm::with_threads(11)),
    ]
}

/// Runs `prep` twice on `engine` and checks both runs are bit-equal to
/// each other and within the `engine_oracle` tolerance of `want`.
fn assert_reproducible_within_oracle_tolerance(
    engine: &ExecEngine,
    prep: &PreparedPlan,
    a: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    want: &DenseMatrix<f32>,
    label: &str,
) {
    let (first, _) = engine.execute_prepared(prep, a, b).unwrap();
    let (again, _) = engine.execute_prepared(prep, a, b).unwrap();
    assert_eq!(first.as_slice(), again.as_slice(), "{label}: run to run");
    let scale = want.frobenius_norm().max(1.0);
    assert!(
        first.max_abs_diff(want).unwrap() <= 1e-4 * scale,
        "{label}: oracle tolerance"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The static schedule on skewed graphs, for every kernel family,
    /// data path, and worker count, at a random narrow dim and at the
    /// wide hidden widths 128, 256 and 512: reproducible and within the
    /// oracle tolerance.
    #[test]
    fn static_schedule_is_reproducible_on_skewed_graphs(
        rows in 4usize..40,
        narrow_dim in 1usize..=67,
        seed in any::<u64>(),
    ) {
        for dim in [narrow_dim, 128, 256, 512] {
            let (a, b) = skewed_inputs(rows, rows * 4, dim, seed);
            for kernel in kernels() {
                let plan = kernel.plan(&a, dim);
                let (want, _) = execute_sequential(&plan, &a, &b).unwrap();
                let prep = PreparedPlan::for_matrix(plan, &a);
                for path in [DataPath::Scalar, DataPath::Tiled, DataPath::Vector] {
                    for &workers in &[2usize, 3, 4, 8] {
                        let engine = ExecEngine::with_data_path(workers, path);
                        let label = format!(
                            "kernel={} path={path:?} workers={workers} dim={dim}",
                            kernel.name()
                        );
                        assert_reproducible_within_oracle_tolerance(&engine, &prep, &a, &b, &want, &label);
                    }
                }
            }
        }
    }
}

/// A skewed row-split plan at a narrow dim: repeated static runs are
/// bit-equal to each other.
#[test]
fn skewed_row_split_plan_is_bit_reproducible_run_to_run() {
    let (a, b) = skewed_inputs(48, 400, 19, 99);
    let kernel = RowSplitSpmm::with_threads(24);
    let plan = SpmmKernel::plan(&kernel, &a, 19);
    let (want, _) = execute_sequential(&plan, &a, &b).unwrap();
    let prep = PreparedPlan::for_matrix(plan, &a);
    assert!(prep.static_span_skew(8) > 1.25, "static spans are skewed");
    let engine = ExecEngine::with_data_path(8, DataPath::Vector);
    let (first, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
    for run in 0..5 {
        let (again, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
        assert_eq!(again.as_slice(), first.as_slice(), "run {run} diverged");
    }
    let scale = want.frobenius_norm().max(1.0);
    assert!(first.max_abs_diff(&want).unwrap() <= 1e-4 * scale);
}

/// The engine at the resolved worker count (honouring `MPSPMM_WORKERS`,
/// which the tier-1 script sweeps over 1/2/8): reproducible and within
/// the oracle tolerance at a narrow and a wide dim.
#[test]
fn resolved_worker_count_matches_oracle() {
    let workers = default_workers();
    for dim in [23usize, 128] {
        let (a, b) = skewed_inputs(40, 320, dim, 7);
        for kernel in kernels() {
            let plan = kernel.plan(&a, dim);
            let (want, _) = execute_sequential(&plan, &a, &b).unwrap();
            let prep = PreparedPlan::for_matrix(plan, &a);
            let engine = ExecEngine::with_data_path(workers, DataPath::Vector);
            let label = format!("kernel={} workers={workers} dim={dim}", kernel.name());
            assert_reproducible_within_oracle_tolerance(&engine, &prep, &a, &b, &want, &label);
        }
    }
}
