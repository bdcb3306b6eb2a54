//! Integration tests for the online adaptive auto-tuner: exploration
//! converges on live executions without ever leaving the correctness
//! envelope, converged verdicts survive LRU eviction through the
//! calibration table, warm restarts skip exploration entirely, and the
//! arm space never contains FastMath unless the engine opted in.

use std::sync::Arc;

use mpspmm_core::executor::execute_sequential;
use mpspmm_core::{
    AutoTuner, DataPath, ExecEngine, MergePathSpmm, NnzSplitSpmm, PreparedPlan, RowSplitSpmm,
    SpmmKernel, TuneState,
};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random square CSR matrix with a heavy first row (mixed segment kinds,
/// nontrivial span skew) plus a dense operand.
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

/// Executes `prep` until its tuner slot converges (bounded), returning
/// the number of executions it took.
fn converge(
    engine: &ExecEngine,
    prep: &PreparedPlan,
    a: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
) -> u32 {
    for i in 0..200 {
        if prep.tune_state().expect("tuned plan").is_converged() {
            return i;
        }
        let (out, _) = engine.execute_prepared(prep, a, b).unwrap();
        engine.recycle(out);
    }
    panic!("tuner failed to converge within 200 executions");
}

/// Every execution during *and after* exploration stays within the
/// engine's oracle tolerance: arms only select among strategies the
/// oracle suites already pin, so tuning can never change what is
/// computed. Covers skewed and wide-dim (striped-arm) corners of the
/// space across three kernel families.
#[test]
fn tuned_executions_match_oracle_through_exploration_and_convergence() {
    let kernels: Vec<Box<dyn SpmmKernel>> = vec![
        Box::new(MergePathSpmm::with_threads(16)),
        Box::new(RowSplitSpmm::with_threads(16)),
        Box::new(NnzSplitSpmm::with_ng_size(3)),
    ];
    for (k, kernel) in kernels.iter().enumerate() {
        for &dim in &[8usize, 64] {
            let (a, b) = random_inputs(40, 240, dim, 11 + k as u64);
            let tuner = Arc::new(AutoTuner::in_memory());
            let engine = ExecEngine::new(4).with_autotuner(tuner);
            let prep = engine.plan_cached(kernel.as_ref(), &a, dim, k as u64);
            let (want, _) = execute_sequential(prep.plan(), &a, &b).unwrap();
            let scale = want.frobenius_norm().max(1.0);
            for run in 0..60 {
                let (got, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
                let diff = got.max_abs_diff(&want).unwrap();
                assert!(
                    diff <= 1e-4 * scale,
                    "kernel={} dim={dim} run={run} diff={diff}",
                    kernel.name()
                );
                engine.recycle(got);
            }
            let state = prep.tune_state().unwrap();
            assert!(
                state.is_converged(),
                "kernel={} dim={dim} still exploring after 60 runs: {state:?}",
                kernel.name()
            );
        }
    }
}

/// The tuner's engine-level counters tell the whole story: plans get
/// slots, exploration is counted and timed, convergence is recorded,
/// and steady-state runs stop incrementing the exploration counters.
#[test]
fn tuner_stats_report_exploration_and_convergence() {
    // dim 64 >= TUNE_STRIPE_MIN_DIM guarantees a ColumnStriped arm on a
    // 2-worker engine, so the space has >= 2 arms under every build
    // (force-scalar collapses the path axis, which at a narrow dim can
    // otherwise leave a single instantly-converged arm).
    let (a, b) = random_inputs(48, 300, 64, 3);
    let tuner = Arc::new(AutoTuner::in_memory());
    let engine = ExecEngine::new(2).with_autotuner(Arc::clone(&tuner));
    let kernel = MergePathSpmm::with_threads(12);
    let prep = engine.plan_cached(&kernel, &a, 64, 0);
    assert_eq!(engine.stats().tuner.tuned_plans, 1);
    assert_eq!(engine.stats().tuner.warm_plans, 0);
    converge(&engine, &prep, &a, &b);
    let stats = engine.stats().tuner;
    assert!(stats.explorations > 0, "exploration must be counted");
    assert!(stats.exploration_ns > 0, "exploration must be timed");
    assert_eq!(stats.converged_plans, 1);
    // The verdict was filed in the calibration table.
    assert_eq!(tuner.len(), 1);
    // Steady state: the exploration counters freeze.
    let frozen = stats.explorations;
    for _ in 0..5 {
        let (out, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
        engine.recycle(out);
    }
    assert_eq!(engine.stats().tuner.explorations, frozen);
}

/// Satellite: LRU eviction must not drop measured state — the converged
/// verdict is recycled through the calibration table, so evicting and
/// re-admitting the plan keeps the tuned arm with zero re-exploration.
#[test]
fn evict_then_readmit_keeps_tuned_arm() {
    let (a, b) = random_inputs(40, 260, 16, 9);
    let tuner = Arc::new(AutoTuner::in_memory());
    // Capacity 1: the second distinct plan evicts the first.
    let engine =
        ExecEngine::with_plan_capacity(2, DataPath::Auto, 1).with_autotuner(Arc::clone(&tuner));
    let kernel = MergePathSpmm::with_threads(12);
    let prep = engine.plan_cached(&kernel, &a, 16, 0);
    converge(&engine, &prep, &a, &b);
    let won = match prep.tune_state().unwrap() {
        TuneState::Converged { arm, .. } => arm,
        s => panic!("expected convergence, got {s:?}"),
    };
    // Evict via a different (dim) plan, then readmit the original.
    let _other = engine.plan_cached(&kernel, &a, 8, 0);
    assert!(engine.stats().plan_cache_evictions >= 1);
    let readmitted = engine.plan_cached(&kernel, &a, 16, 0);
    match readmitted.tune_state().unwrap() {
        TuneState::Converged { arm, explorations } => {
            assert_eq!(arm, won, "tuned arm must survive eviction");
            assert_eq!(explorations, 0, "re-admission must not re-explore");
        }
        s => panic!("re-admitted plan must be warm, got {s:?}"),
    }
    assert!(engine.stats().tuner.warm_plans >= 1);
    // And the warm plan really runs without exploration.
    let before = engine.stats().tuner.explorations;
    let (out, _) = engine.execute_prepared(&readmitted, &a, &b).unwrap();
    engine.recycle(out);
    assert_eq!(engine.stats().tuner.explorations, before);
}

/// A second process (fresh engine, fresh `AutoTuner`) loading the
/// persisted calibration table starts converged: zero explorations,
/// asserted through `EngineStats` — the warm-restart acceptance
/// criterion.
#[test]
fn warm_restart_from_persisted_table_performs_zero_exploration() {
    let dir = std::env::temp_dir().join(format!("mpspmm-warm-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("calib.v1");
    let (a, b) = random_inputs(40, 260, 32, 21);
    let kernel = MergePathSpmm::with_threads(12);
    {
        let cold = ExecEngine::new(2).with_autotuner(Arc::new(AutoTuner::with_path(&path)));
        let prep = cold.plan_cached(&kernel, &a, 32, 0);
        converge(&cold, &prep, &a, &b);
        assert!(cold.stats().tuner.explorations > 0);
    }
    // "Restart": everything rebuilt from scratch except the file.
    let warm = ExecEngine::new(2).with_autotuner(Arc::new(AutoTuner::with_path(&path)));
    let prep = warm.plan_cached(&kernel, &a, 32, 0);
    assert!(
        prep.tune_state().unwrap().is_converged(),
        "persisted verdict must warm-start the plan"
    );
    for _ in 0..8 {
        let (out, _) = warm.execute_prepared(&prep, &a, &b).unwrap();
        warm.recycle(out);
    }
    let stats = warm.stats().tuner;
    assert_eq!(stats.explorations, 0, "warm restart must not explore");
    assert_eq!(stats.warm_plans, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression (DESIGN.md §2.11): the arm space of an engine
/// that did not opt into FastMath contains no FastMath arm, on any
/// shape; opting in via `with_fast_math` adds it on the vector family
/// only.
#[test]
fn engine_arm_space_excludes_fastmath_unless_opted_in() {
    let (a, _) = random_inputs(64, 500, 8, 5);
    let kernel = MergePathSpmm::with_threads(16);
    for &dim in &[1usize, 8, 32, 64, 128, 256] {
        let prep = PreparedPlan::for_matrix(SpmmKernel::plan(&kernel, &a, dim), &a);
        for workers in [1usize, 2, 8] {
            let engine = ExecEngine::new(workers);
            let arms = engine.tuner_arm_space(&prep, dim);
            assert!(!arms.is_empty());
            assert!(
                arms.iter().all(|arm| !arm.fast_math),
                "dim={dim} workers={workers}: FastMath arm in a default space: {arms:?}"
            );
        }
    }
    // Explicit opt-in: the vector-family arms (and only those) contract.
    let engine = ExecEngine::new(4).with_fast_math(true);
    let prep = PreparedPlan::for_matrix(SpmmKernel::plan(&kernel, &a, 64), &a);
    let arms = engine.tuner_arm_space(&prep, 64);
    if !cfg!(feature = "force-scalar") {
        assert!(
            arms.iter()
                .any(|arm| arm.fast_math && arm.path == DataPath::Vector),
            "opted-in engine must explore FastMath: {arms:?}"
        );
    }
    assert!(
        arms.iter()
            .all(|arm| !(arm.fast_math && matches!(arm.path, DataPath::Scalar | DataPath::Tiled))),
        "FastMath never attaches to exact-only paths: {arms:?}"
    );
}

/// A calibration verdict the current engine is not allowed to replay —
/// here a FastMath arm landing in a table read by an exact engine — is
/// rejected at warm-start validation and the plan re-explores instead
/// of silently running the forbidden arm.
#[test]
fn poisoned_warm_verdict_falls_back_to_exploring() {
    let (a, _) = random_inputs(40, 260, 64, 33);
    let kernel = MergePathSpmm::with_threads(12);
    let tuner = Arc::new(AutoTuner::in_memory());
    let exact = ExecEngine::new(2).with_autotuner(Arc::clone(&tuner));
    // Forge a FastMath verdict under the exact engine's fingerprint.
    let probe = PreparedPlan::for_matrix(SpmmKernel::plan(&kernel, &a, 64), &a);
    let fp = exact.tuner_fingerprint(&probe, 64);
    let fm_engine = ExecEngine::new(2).with_fast_math(true);
    let poisoned = fm_engine
        .tuner_arm_space(&probe, 64)
        .into_iter()
        .find(|arm| arm.fast_math);
    let Some(poisoned) = poisoned else {
        // force-scalar builds have no FastMath arms at all — nothing to
        // poison with, and nothing to defend against.
        return;
    };
    tuner.record(fp, poisoned);
    let prep = exact.plan_cached(&kernel, &a, 64, 0);
    match prep.tune_state().unwrap() {
        TuneState::Exploring { .. } => {}
        s => panic!("poisoned verdict must not warm-start: {s:?}"),
    }
    assert_eq!(exact.stats().tuner.warm_plans, 0);
}

/// A calibration table written before the work-stealing scheduler was
/// removed can hold `steal` verdicts. Loading one follows the rule for
/// every corrupt table: the whole file is ignored (with a one-time
/// warning on stderr), nothing panics, no removed arm is ever applied,
/// and the engine's plans explore from a cold start.
#[test]
fn calibration_table_with_steal_verdict_is_ignored_and_plans_explore() {
    let dir = std::env::temp_dir().join(format!("mpspmm-steal-calib-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("calib.v1");
    let (a, b) = random_inputs(40, 260, 64, 17);
    let kernel = MergePathSpmm::with_threads(12);
    // The table keys the verdict by this very plan's fingerprint, next
    // to a well-formed `static` verdict for another shape.
    let probe = ExecEngine::new(2);
    let prep = PreparedPlan::for_matrix(SpmmKernel::plan(&kernel, &a, 64), &a);
    let fp = probe.tuner_fingerprint(&prep, 64);
    let text = format!(
        "mpspmm-calib v1\n{} {} {} {} {} {} steal vector 0 0\n10 13 16 0 5 2 static vector 0 0\n",
        fp.rows_log2, fp.nnz_log2, fp.dim, fp.skew_q, fp.gather_q, fp.workers
    );
    std::fs::write(&path, text).unwrap();

    let tuner = Arc::new(AutoTuner::with_path(&path));
    assert!(tuner.is_empty(), "a table with a steal line loads as empty");
    let engine = ExecEngine::new(2).with_autotuner(Arc::clone(&tuner));
    let prep = engine.plan_cached(&kernel, &a, 64, 0);
    match prep.tune_state().unwrap() {
        TuneState::Exploring { .. } => {}
        s => panic!("plan must explore from a cold start: {s:?}"),
    }
    assert_eq!(engine.stats().tuner.warm_plans, 0);
    let (want, _) = execute_sequential(prep.plan(), &a, &b).unwrap();
    converge(&engine, &prep, &a, &b);
    let (got, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
    assert!(got.max_abs_diff(&want).unwrap() <= 1e-4 * want.frobenius_norm().max(1.0));
    // The converged verdict rewrote the file as a valid table.
    assert!(!AutoTuner::with_path(&path).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Engines without a tuner attached (the default) are byte-for-byte the
/// old engine: no slots, no counters, heuristics untouched.
#[test]
fn untuned_engine_reports_zero_tuner_activity() {
    if std::env::var_os("MPSPMM_TUNE").is_some_and(|v| v != "0") {
        // MPSPMM_TUNE attaches a tuner to every engine — there is no
        // untuned engine to observe in that configuration.
        return;
    }
    let (a, b) = random_inputs(32, 180, 16, 2);
    let engine = ExecEngine::new(2);
    let kernel = MergePathSpmm::with_threads(8);
    let prep = engine.plan_cached(&kernel, &a, 16, 0);
    assert!(prep.tune_state().is_none());
    let (out, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
    engine.recycle(out);
    assert_eq!(engine.stats().tuner, Default::default());
}
