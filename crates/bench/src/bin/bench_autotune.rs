//! Auto-tuner benchmark: measured arm selection vs every hand-pinned
//! configuration, plus the cost of finding out.
//!
//! The engine's `SchedPolicy::Auto` / `DataPath::Auto` routing was a set
//! of static thresholds calibrated on one machine. The online tuner
//! replaces the guess with a measurement: each cached plan explores its
//! pruned arm space (scheduler × data path × panel shape) on live
//! executions via successive halving, converges on the fastest arm, and
//! files the verdict in a persistent calibration table so the *next*
//! process skips exploration entirely.
//!
//! Per (graph, dim) row this harness measures:
//!
//! * **pinned arms** — every non-FastMath arm of the plan's space, run
//!   on an engine hard-pinned to that scheduler/data-path pair. The best
//!   of these is what an expert could have configured by hand; it is the
//!   `baseline` of the headline ratio.
//! * **tuned (cold)** — a fresh engine with a file-backed [`AutoTuner`]:
//!   the first `FIRST_N` executions including all exploration, timed as
//!   one block. The exploration *overhead* is the tuner's measured
//!   excess (time spent above the incumbent-best arm) as a fraction of
//!   that block — asserted `< 5%`.
//! * **tuned (steady)** — once converged, timed in interleaved rounds
//!   with the pinned arms (each round runs every candidate once, in a
//!   rotating order, so drift and interference hit all of them alike);
//!   its median is asserted within noise (25%) of the best pinned
//!   median on every row.
//!
//! Engines run `min(4, available_parallelism)` workers, so no candidate
//! is timed on more workers than the machine has cores.
//!
//! After the sweep, a second engine + [`AutoTuner`] pair is built from
//! the same calibration file — a simulated process restart — and the
//! harness asserts through `EngineStats` that **zero** explorations
//! happen: every plan warm-starts converged.
//!
//! Writes `BENCH_autotune.json` (top-level `baseline`/`speedup`, where
//! `speedup` is the geomean of best-pinned over tuned-steady — ≥ 1.0
//! means the tuner found arms at least as good as hand-pinning). Pass
//! `--smoke` for a seconds-fast run on scaled-down graphs. The
//! calibration file lives under a fresh temp directory (or
//! `MPSPMM_CALIB_PATH` if set) and is removed first, so every run
//! starts cold.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use mpspmm_bench::{geomean, SEED};
use mpspmm_core::{AutoTuner, DataPath, ExecEngine, MergePathSpmm, PreparedPlan, SchedPolicy};
use mpspmm_gcn::ops::random_features;
use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};

/// Worker count the harness asks for; clamped to the machine's cores.
const WORKERS: usize = 4;
/// Executions in the cold-start block the exploration overhead is
/// amortized over — the "first N" of the acceptance criterion. The
/// explorer needs ~4× the arm count, so this dominates it comfortably
/// while still being a realistic warmup for a long-lived plan.
const FIRST_N: usize = 200;
/// Steady-state-vs-pinned noise allowance per row.
const NOISE: f64 = 1.25;

fn pinned_label(sched: SchedPolicy, path: DataPath) -> String {
    format!("{sched:?}/{path:?}").to_lowercase()
}

/// Median nanoseconds per call of every `(engine, plan)` candidate, timed
/// in `rounds` interleaved rounds after `warm` untimed calls each. Round
/// `r` starts at candidate `r mod n`, so no candidate always runs first
/// or last.
fn interleaved_medians(
    candidates: &[(&ExecEngine, &PreparedPlan)],
    a: &CsrMatrix<f32>,
    x: &DenseMatrix<f32>,
    warm: usize,
    rounds: usize,
) -> Vec<f64> {
    let run = |(eng, prep): (&ExecEngine, &PreparedPlan)| {
        let t0 = Instant::now();
        let (out, _) = eng.execute_prepared(prep, a, x).unwrap();
        let ns = t0.elapsed().as_nanos() as f64;
        eng.recycle(out);
        ns
    };
    for &c in candidates {
        for _ in 0..warm {
            run(c);
        }
    }
    let n = candidates.len();
    let mut samples = vec![Vec::with_capacity(rounds); n];
    for round in 0..rounds {
        for k in 0..n {
            let i = (round + k) % n;
            samples[i].push(run(candidates[i]));
        }
    }
    samples
        .into_iter()
        .map(|mut v| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let dims: &[usize] = if smoke {
        &[16, 128]
    } else {
        &[16, 64, 256, 512]
    };
    let (nodes, nnz, max_deg, warm, rounds) = if smoke {
        (1_600usize, 4_800usize, 80usize, 2usize, 31usize)
    } else {
        (20_000, 60_000, 600, 2, 15)
    };
    let workers = WORKERS.min(std::thread::available_parallelism().map_or(1, usize::from));
    println!("==================================================================");
    println!("BENCH autotune: measured arm selection vs hand-pinned configs");
    println!(
        "SpMM through the tuned engine, dims {dims:?}, {workers} workers, \
         medians of {rounds} interleaved rounds, seed {SEED}{}",
        if smoke { " (--smoke)" } else { "" }
    );
    println!("==================================================================");

    let calib = match std::env::var_os("MPSPMM_CALIB_PATH") {
        Some(p) => PathBuf::from(p),
        None => std::env::temp_dir()
            .join(format!("mpspmm-bench-autotune-{}", std::process::id()))
            .join("calib.v1"),
    };
    // Cold start, always: a stale table would skip the exploration this
    // harness is here to measure.
    let _ = std::fs::remove_file(&calib);

    let kernel = MergePathSpmm::new();
    let graphs = [
        (
            "powerlaw",
            gcn_normalize(
                &DatasetSpec::custom(
                    "autotune-powerlaw",
                    GraphClass::PowerLaw,
                    nodes,
                    nnz,
                    max_deg,
                )
                .synthesize(SEED),
            ),
        ),
        (
            "uniform",
            gcn_normalize(
                &DatasetSpec::custom("autotune-uniform", GraphClass::Structured, nodes, nnz, 16)
                    .synthesize(SEED),
            ),
        ),
    ];

    println!(
        "\n{:<9} {:>4} {:>5} {:>8} {:>22} {:>13} {:>13} {:>9} {:>9}",
        "Graph", "dim", "arms", "explored", "best pinned", "pinned ns", "tuned ns", "ratio", "ovhd"
    );
    let mut records = Vec::new();
    let mut ratios = Vec::new();
    let mut max_overhead = 0.0f64;
    for (gname, a) in &graphs {
        for &dim in dims {
            let x = random_features(a.rows(), dim, 0.9, 33 + dim as u64);

            // The arm space, read off an untuned reference engine (it is
            // a pure function of the plan's fingerprint).
            let auto = ExecEngine::with_sched_policy(workers, DataPath::Auto, SchedPolicy::Auto);
            let reference = auto.plan_cached(&kernel, a, dim, 1);
            let arms = auto.tuner_arm_space(&reference, dim);

            // Every distinct (scheduler, path) pin an expert could have
            // chosen by hand. Half-panel arms have no engine-level pin —
            // they exist only inside the tuner — so the tuner is allowed
            // to beat this set, never to lose to it.
            let mut pinned: Vec<(String, ExecEngine, Arc<PreparedPlan>)> = Vec::new();
            for arm in arms.iter().filter(|m| !m.fast_math && !m.half_panel) {
                let label = pinned_label(arm.sched, arm.path);
                if pinned.iter().any(|(l, _, _)| *l == label) {
                    continue;
                }
                let eng = ExecEngine::with_sched_policy(workers, arm.path, arm.sched);
                let prep = eng.plan_cached(&kernel, a, dim, 1);
                pinned.push((label, eng, prep));
            }

            // Cold tuned engine: FIRST_N live executions, exploration
            // included, as one timed block.
            let tuner = Arc::new(AutoTuner::with_path(&calib));
            let tuned = ExecEngine::with_sched_policy(workers, DataPath::Auto, SchedPolicy::Auto)
                .with_autotuner(Arc::clone(&tuner));
            let prep = tuned.plan_cached(&kernel, a, dim, 1);
            let block = Instant::now();
            let mut executed = 0usize;
            while executed < FIRST_N
                || !prep
                    .tune_state()
                    .expect("tuned engine attaches a slot")
                    .is_converged()
            {
                let (out, _) = tuned.execute_prepared(&prep, a, &x).unwrap();
                tuned.recycle(out);
                executed += 1;
                assert!(executed <= 8 * FIRST_N, "tuner failed to converge");
            }
            let block_ns = block.elapsed().as_nanos() as f64;
            let ts = tuned.stats().tuner;
            let overhead = ts.excess_ns as f64 / block_ns.max(1.0);
            assert!(
                overhead < 0.05,
                "{gname} dim {dim}: exploration overhead {overhead:.4} over the first \
                 {executed} executions breaches the 5% bound"
            );
            max_overhead = max_overhead.max(overhead);

            // Steady state: the converged arm, untimed by the tuner, in
            // interleaved rounds with every pinned arm.
            let mut candidates: Vec<(&ExecEngine, &PreparedPlan)> =
                pinned.iter().map(|(_, eng, prep)| (eng, &**prep)).collect();
            candidates.push((&tuned, &prep));
            let mut medians = interleaved_medians(&candidates, a, &x, warm, rounds);
            let tuned_ns = medians.pop().expect("tuned candidate");
            let pinned: Vec<(String, f64)> = pinned
                .into_iter()
                .zip(medians)
                .map(|((label, _, _), ns)| (label, ns))
                .collect();
            let (best_label, best_ns) = pinned
                .iter()
                .min_by(|l, r| l.1.total_cmp(&r.1))
                .cloned()
                .expect("arm space is never empty");
            let ratio = best_ns / tuned_ns;
            assert!(
                tuned_ns <= best_ns * NOISE,
                "{gname} dim {dim}: tuned steady state (median {tuned_ns:.0} ns) lost to the \
                 best hand-pinned config {best_label} (median {best_ns:.0} ns) beyond noise"
            );
            ratios.push(ratio);

            println!(
                "{gname:<9} {dim:>4} {:>5} {:>8} {best_label:>22} {best_ns:>13.0} \
                 {tuned_ns:>13.0} {ratio:>8.2}x {:>8.2}%",
                arms.len(),
                ts.explorations,
                overhead * 100.0
            );
            let pins: Vec<String> = pinned
                .iter()
                .map(|(l, ns)| format!("{{\"pin\": \"{l}\", \"ns\": {ns:.0}}}"))
                .collect();
            records.push(format!(
                "    {{\"graph\": \"{gname}\", \"dim\": {dim}, \"workers\": {workers}, \
                 \"rounds\": {rounds}, \"arms\": {}, \"explorations\": {}, \"first_n\": {executed}, \
                 \"overhead_fraction\": {overhead:.5}, \"best_pinned\": \"{best_label}\", \
                 \"best_pinned_ns\": {best_ns:.0}, \"tuned_ns\": {tuned_ns:.0}, \
                 \"tuned_vs_best_pinned\": {ratio:.3}, \"pins\": [{}]}}",
                arms.len(),
                ts.explorations,
                pins.join(", ")
            ));
        }
    }

    // Simulated restart: same calibration file, fresh everything else.
    // Every plan must come back converged without a single measured run.
    let restarted_tuner = Arc::new(AutoTuner::with_path(&calib));
    let restarted = ExecEngine::with_sched_policy(workers, DataPath::Auto, SchedPolicy::Auto)
        .with_autotuner(restarted_tuner);
    for (epoch, (gname, a)) in graphs.iter().enumerate() {
        for &dim in dims {
            let x = random_features(a.rows(), dim, 0.9, 33 + dim as u64);
            let prep = restarted.plan_cached(&kernel, a, dim, epoch as u64);
            assert!(
                prep.tune_state().expect("slot").is_converged(),
                "{gname} dim {dim}: warm restart must start converged"
            );
            let (out, _) = restarted.execute_prepared(&prep, a, &x).unwrap();
            restarted.recycle(out);
        }
    }
    let restart_stats = restarted.stats().tuner;
    assert_eq!(
        restart_stats.explorations, 0,
        "warm restart performed measured explorations"
    );
    assert_eq!(restart_stats.warm_plans as usize, graphs.len() * dims.len());

    let headline = geomean(&ratios);
    println!("\ntuned Auto vs best hand-pinned config (geomean over all rows): {headline:.2}x");
    println!(
        "max exploration overhead over the first {FIRST_N}+ executions: {:.2}% (bound: 5%)",
        max_overhead * 100.0
    );
    println!(
        "warm restart: {} plans re-admitted converged, 0 explorations",
        restart_stats.warm_plans
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"baseline\": \"best hand-pinned (scheduler, data path) configuration per row, \
             picked with hindsight by median over interleaved timed rounds of every \
             non-FastMath arm of the plan's space — what an expert could have configured \
             statically\",\n",
            "  \"speedup\": {:.3},\n",
            "  \"smoke\": {},\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"acceptance\": {{\n",
            "    \"tuned_vs_best_pinned_geomean\": {:.3},\n",
            "    \"max_exploration_overhead_fraction\": {:.5},\n",
            "    \"overhead_bound\": 0.05,\n",
            "    \"warm_restart_explorations\": {},\n",
            "    \"warm_restart_plans\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        headline,
        smoke,
        records.join(",\n"),
        headline,
        max_overhead,
        restart_stats.explorations,
        restart_stats.warm_plans
    );
    std::fs::write("BENCH_autotune.json", &json).expect("write BENCH_autotune.json");
    println!("wrote BENCH_autotune.json");
}
