//! Scheduler tests: the engine's row spans on adversarially skewed
//! graphs, at narrow and wide dense dimensions. Row 0 holds more than
//! half of all non-zeros, so at two workers or more it is longer than
//! any worker's share; it still lands whole in one span, and every run
//! equals (f32 `==`) the ascending row sum
//! [`mpspmm_core::executor::execute_sequential`] computes for the serial
//! plan, at every worker count.

use mpspmm_core::executor::execute_sequential;
use mpspmm_core::{default_workers, DataPath, Epilogue, ExecEngine, SerialSpmm, SpmmKernel};
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

/// The ascending row sum: the serial plan replayed by the sequential
/// executor.
fn row_sum(a: &CsrMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
    execute_sequential(&SerialSpmm.plan(a, b.cols()), a, b)
        .unwrap()
        .0
}

/// Runs the row spans of `a` twice on `workers` workers and checks both
/// runs equal `want`.
fn assert_runs_equal_the_row_sum(
    workers: usize,
    path: DataPath,
    a: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    want: &DenseMatrix<f32>,
    label: &str,
) {
    let engine = ExecEngine::with_data_path(workers, path);
    for run in 0..2 {
        let got = engine.spmm(a, &[b], &Epilogue::NONE).unwrap().remove(0);
        assert_eq!(got.as_slice(), want.as_slice(), "{label}: run {run}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Row spans on skewed graphs, for every data path and worker count,
    /// at a random narrow dim and at the wide hidden widths 128, 256 and
    /// 512: every run equals the row sum.
    #[test]
    fn row_spans_equal_the_row_sum_on_skewed_graphs(
        rows in 4usize..40,
        narrow_dim in 1usize..=67,
        seed in any::<u64>(),
    ) {
        for dim in [narrow_dim, 128, 256, 512] {
            let (a, b) = skewed_inputs(rows, rows * 4, dim, seed);
            let want = row_sum(&a, &b);
            for path in [DataPath::Scalar, DataPath::Vector] {
                for &workers in &[1usize, 2, 7, 64] {
                    let label = format!("path={path:?} workers={workers} dim={dim}");
                    assert_runs_equal_the_row_sum(workers, path, &a, &b, &want, &label);
                }
            }
        }
    }
}

/// A skewed graph at 8 workers, whose evil row is four times a worker's
/// share: repeated runs are bit-equal to each other and to the row sum.
#[test]
fn skewed_graph_runs_are_bit_reproducible_run_to_run() {
    let (a, b) = skewed_inputs(48, 400, 19, 99);
    let share = (a.rows() + a.nnz()).div_ceil(8);
    assert!(a.row_ptr()[1] > share, "row 0 is longer than a share");
    let want = row_sum(&a, &b);
    let engine = ExecEngine::with_data_path(8, DataPath::Vector);
    for run in 0..5 {
        let again = engine.spmm(&a, &[&b], &Epilogue::NONE).unwrap().remove(0);
        assert_eq!(again.as_slice(), want.as_slice(), "run {run} diverged");
    }
}

/// The engine at the resolved worker count (honouring `MPSPMM_WORKERS`,
/// which the tier-1 script sweeps over 1/2/8) equals the row sum at a
/// narrow and a wide dim.
#[test]
fn resolved_worker_count_equals_the_row_sum() {
    let workers = default_workers();
    for dim in [23usize, 128] {
        let (a, b) = skewed_inputs(40, 320, dim, 7);
        let want = row_sum(&a, &b);
        let label = format!("workers={workers} dim={dim}");
        assert_runs_equal_the_row_sum(workers, DataPath::Vector, &a, &b, &want, &label);
    }
}
