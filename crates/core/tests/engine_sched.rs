//! Scheduler tests: the `Auto` routing rule at its exact threshold
//! boundaries, and `Auto` on adversarially skewed graphs. Narrow runs
//! take the static scheduler, which folds shared rows in a fixed worker
//! order — bit-reproducible run to run at a given worker count and
//! within the `engine_oracle` tolerance of
//! [`mpspmm_core::executor::execute_sequential`]; wide runs take the
//! column-striped scheduler, which is bit-identical to the oracle.

use mpspmm_core::executor::execute_sequential;
use mpspmm_core::{
    default_workers, DataPath, ExecEngine, Flush, KernelPlan, MergePathSerialFixup, MergePathSpmm,
    NnzSplitSpmm, PreparedPlan, RowSplitSpmm, SchedPolicy, Segment, SpmmKernel, ThreadPlan,
    STRIPE_MIN_DIM, STRIPE_SKEW_MIN_DIM, STRIPE_SKEW_THRESHOLD,
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

    /// `Auto` on skewed graphs, for every kernel family, data path, and
    /// worker count: reproducible and within the oracle tolerance,
    /// whichever side of the stripe thresholds the run lands on.
    #[test]
    fn auto_policy_is_reproducible_on_skewed_graphs(
        rows in 4usize..40,
        dim in 1usize..=67,
        seed in any::<u64>(),
    ) {
        let (a, b) = skewed_inputs(rows, rows * 4, dim, seed);
        for kernel in kernels() {
            let plan = kernel.plan(&a, dim);
            let (want, _) = execute_sequential(&plan, &a, &b).unwrap();
            let prep = PreparedPlan::for_matrix(plan, &a);
            for path in [DataPath::Scalar, DataPath::Tiled, DataPath::Vector] {
                for &workers in &[2usize, 3, 8] {
                    let engine = ExecEngine::with_sched_policy(workers, path, SchedPolicy::Auto);
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

/// A skewed row-split plan at a narrow dim stays on the static
/// scheduler, whose repeated runs are bit-equal to each other.
#[test]
fn skewed_row_split_plan_is_bit_reproducible_run_to_run() {
    let (a, b) = skewed_inputs(48, 400, 19, 99);
    let kernel = RowSplitSpmm::with_threads(24);
    let plan = SpmmKernel::plan(&kernel, &a, 19);
    let (want, _) = execute_sequential(&plan, &a, &b).unwrap();
    let prep = PreparedPlan::for_matrix(plan, &a);
    assert!(prep.static_span_skew(8) > STRIPE_SKEW_THRESHOLD);
    let engine = ExecEngine::with_sched_policy(8, DataPath::Vector, SchedPolicy::Auto);
    assert!(!engine.selects_striping(&prep, 19));
    let (first, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
    for run in 0..5 {
        let (again, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
        assert_eq!(again.as_slice(), first.as_slice(), "run {run} diverged");
    }
    let scale = want.frobenius_norm().max(1.0);
    assert!(first.max_abs_diff(&want).unwrap() <= 1e-4 * scale);
    assert_eq!(engine.stats().stripes_executed, 0, "narrow run is static");
}

/// The stripe rule reads span skew: on the same skewed graph at
/// [`STRIPE_SKEW_MIN_DIM`], a merge-path plan (nnz-balanced per logical
/// thread) stays static while a row-split plan exceeds the threshold
/// and stripes.
#[test]
fn auto_selection_follows_span_skew() {
    let (a, _) = skewed_inputs(64, 600, 8, 5);
    let engine = ExecEngine::with_sched_policy(4, DataPath::Vector, SchedPolicy::Auto);

    let mp = MergePathSpmm::with_threads(64);
    let mp_prep = PreparedPlan::for_matrix(SpmmKernel::plan(&mp, &a, 8), &a);
    assert!(mp_prep.static_span_skew(4) <= STRIPE_SKEW_THRESHOLD);
    assert!(!engine.selects_striping(&mp_prep, STRIPE_SKEW_MIN_DIM));

    let rs = RowSplitSpmm::with_threads(64);
    let rs_prep = PreparedPlan::for_matrix(SpmmKernel::plan(&rs, &a, 8), &a);
    assert!(rs_prep.static_span_skew(4) > STRIPE_SKEW_THRESHOLD);
    assert!(engine.selects_striping(&rs_prep, STRIPE_SKEW_MIN_DIM));
}

/// The engine at the resolved worker count (honouring `MPSPMM_WORKERS`,
/// which the tier-1 script sweeps over 1/2/8) under `Auto`: reproducible
/// and within the oracle tolerance at a narrow dim, bit-identical to the
/// oracle at a striped one.
#[test]
fn resolved_worker_count_matches_oracle() {
    let workers = default_workers();
    for dim in [23usize, STRIPE_MIN_DIM] {
        let (a, b) = skewed_inputs(40, 320, dim, 7);
        for kernel in kernels() {
            let plan = kernel.plan(&a, dim);
            let (want, _) = execute_sequential(&plan, &a, &b).unwrap();
            let prep = PreparedPlan::for_matrix(plan, &a);
            let engine =
                ExecEngine::with_sched_policy(workers, DataPath::Vector, SchedPolicy::Auto);
            let label = format!("kernel={} workers={workers} dim={dim}", kernel.name());
            assert_reproducible_within_oracle_tolerance(&engine, &prep, &a, &b, &want, &label);
            if engine.selects_striping(&prep, dim) {
                let (got, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
                assert_eq!(got.max_abs_diff(&want).unwrap(), 0.0, "{label}");
            }
        }
    }
}

/// A two-row matrix and a two-thread plan whose static worker spans
/// carry exactly (`nnz0`, `nnz1`) non-zeros — full control of the span
/// skew, down to the exact threshold value.
fn two_span_plan(nnz0: usize, nnz1: usize) -> (CsrMatrix<f32>, PreparedPlan) {
    let cols = nnz0.max(nnz1);
    let mut triplets = Vec::with_capacity(nnz0 + nnz1);
    for c in 0..nnz0 {
        triplets.push((0usize, c, 1.0f32));
    }
    for c in 0..nnz1 {
        triplets.push((1usize, c, 1.0f32));
    }
    let a = CsrMatrix::from_triplets(2, cols, &triplets).unwrap();
    let plan = KernelPlan {
        threads: vec![
            ThreadPlan {
                segments: vec![Segment {
                    row: 0,
                    nz_start: 0,
                    nz_end: nnz0,
                    flush: Flush::Regular,
                }],
            },
            ThreadPlan {
                segments: vec![Segment {
                    row: 1,
                    nz_start: nnz0,
                    nz_end: nnz0 + nnz1,
                    flush: Flush::Regular,
                }],
            },
        ],
    };
    plan.validate(&a).unwrap();
    let prep = PreparedPlan::for_matrix(plan, &a);
    (a, prep)
}

/// The `Auto` stripe rule at its exact threshold boundaries. The skew
/// comparison is strict — skew **equal** to [`STRIPE_SKEW_THRESHOLD`]
/// does not unlock the lower stripe dimension — and the stripe
/// dimension comparisons are inclusive at their minima.
#[test]
fn auto_routing_at_exact_threshold_boundaries() {
    let engine = ExecEngine::with_sched_policy(2, DataPath::Vector, SchedPolicy::Auto);

    // Spans (5, 3): skew = 5 / 4 = 1.25, *exactly* the threshold.
    let (_, at) = two_span_plan(5, 3);
    assert_eq!(at.static_span_skew(2), STRIPE_SKEW_THRESHOLD);

    // Spans (51, 29): skew = 51 / 40 = 1.275, one step past.
    let (_, past) = two_span_plan(51, 29);
    assert!(past.static_span_skew(2) > STRIPE_SKEW_THRESHOLD);

    // Balanced spans: striping flips exactly at STRIPE_MIN_DIM.
    let (_, balanced) = two_span_plan(4, 4);
    assert_eq!(balanced.static_span_skew(2), 1.0);
    assert!(!engine.selects_striping(&balanced, STRIPE_MIN_DIM - 1));
    assert!(engine.selects_striping(&balanced, STRIPE_MIN_DIM));
    assert!(engine.selects_striping(&balanced, STRIPE_MIN_DIM + 1));

    // Skewed spans: the lower STRIPE_SKEW_MIN_DIM bound applies.
    assert!(!engine.selects_striping(&past, STRIPE_SKEW_MIN_DIM - 1));
    assert!(engine.selects_striping(&past, STRIPE_SKEW_MIN_DIM));

    // Skew exactly at the threshold does *not* unlock the skew-assisted
    // stripe dimension — only the unconditional one.
    assert!(!engine.selects_striping(&at, STRIPE_SKEW_MIN_DIM));
    assert!(!engine.selects_striping(&at, STRIPE_MIN_DIM - 1));
    assert!(engine.selects_striping(&at, STRIPE_MIN_DIM));

    // One worker never stripes, whatever the skew or dim.
    let single = ExecEngine::with_sched_policy(1, DataPath::Vector, SchedPolicy::Auto);
    assert!(!single.selects_striping(&past, STRIPE_MIN_DIM));
}
