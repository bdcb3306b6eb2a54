//! SpGEMM benchmark — merge-path-balanced engine vs the sequential
//! oracle.
//!
//! The container this harness usually runs in has a single hardware
//! core, so multi-worker *wall* times cannot demonstrate the numeric
//! phase's parallel win directly. The harness therefore measures real
//! single-worker executions and **models** multi-worker totals from the
//! engine's own chunk decomposition,
//!
//! * calibrating nanoseconds per merge item (`rows + flop upper bound`,
//!   the cost [`mpspmm_core::chunk_threads`] balances on) from the
//!   measured one-worker numeric phase,
//! * simulating the self-scheduling cursor drain — chunks are claimed
//!   in order by the globally earliest-finishing worker, exactly the
//!   engine's `AtomicUsize` protocol — to get the numeric makespan, and
//! * keeping the measured serial part (symbolic pass + stitch) intact:
//!   `modeled_total(W) = (wall₁ − numeric₁) + makespan(W)`.
//!
//! The baseline is [`mpspmm_core::spgemm_sequential`], the bit-level
//! ground-truth oracle. A per-strategy one-worker comparison (Adaptive
//! vs pinned Dense/Hash/Merge) shows what the per-row classifier buys.
//!
//! Writes `BENCH_spgemm.json`. Pass `--smoke` for a seconds-fast run on
//! scaled-down graphs (the tier-1 gate).

use mpspmm_bench::{banner, geomean, time_ns, SEED};
use mpspmm_core::{
    chunk_threads, spgemm_flops_upper_bound, spgemm_sequential, ExecEngine, SpgemmStrategy,
    SPGEMM_CHUNKS_PER_WORKER,
};
use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};
use mpspmm_sparse::CsrMatrix;

const STRATEGIES: [SpgemmStrategy; 4] = [
    SpgemmStrategy::Adaptive,
    SpgemmStrategy::Dense,
    SpgemmStrategy::Hash,
    SpgemmStrategy::Merge,
];

/// Cumulative per-row flop upper bounds — the symbolic phase's balance
/// signal, re-derived here to rebuild the engine's chunk decomposition.
fn upper_bound_ends(a: &CsrMatrix<f32>, b: &CsrMatrix<f32>) -> Vec<usize> {
    let mut ends = Vec::with_capacity(a.rows());
    let mut running = 0usize;
    for arow in a.iter_rows() {
        for &k in arow.cols {
            running += b.row_nnz(k);
        }
        ends.push(running);
    }
    ends
}

/// Simulated numeric-phase makespan in merge items for `workers`
/// workers over the engine's own chunk decomposition: chunks are
/// claimed **in order** off a shared cursor by whichever worker
/// finishes first — the engine's self-scheduling protocol, simulated
/// deterministically.
fn numeric_makespan_items(ub_ends: &[usize], workers: usize) -> u64 {
    let rows = ub_ends.len();
    let eff = workers.min(rows).max(1);
    let target = (eff * SPGEMM_CHUNKS_PER_WORKER).min(rows.max(1));
    let chunks = chunk_threads(ub_ends, target);
    let mut clock = vec![0u64; eff];
    for c in &chunks {
        let w = (0..eff).min_by_key(|&w| clock[w]).unwrap();
        clock[w] += (c.threads() + c.nnz) as u64;
    }
    clock.into_iter().max().unwrap_or(0)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "BENCH spgemm",
        "CSR x CSR engine vs sequential oracle (measured 1-worker wall + modeled makespans)",
        !smoke,
    );

    let (warm, iters) = if smoke { (1, 3) } else { (2, 9) };
    let specs: Vec<DatasetSpec> = if smoke {
        vec![DatasetSpec::custom(
            "spgemm-powerlaw",
            GraphClass::PowerLaw,
            2_000,
            20_000,
            400,
        )]
    } else {
        vec![
            DatasetSpec::custom("spgemm-pl-small", GraphClass::PowerLaw, 4_000, 60_000, 600),
            DatasetSpec::custom(
                "spgemm-pl-mid",
                GraphClass::PowerLaw,
                10_000,
                140_000,
                1_500,
            ),
            DatasetSpec::custom(
                "spgemm-pl-large",
                GraphClass::PowerLaw,
                20_000,
                240_000,
                3_000,
            ),
        ]
    };
    let workers_list = [1usize, 2, 4, 8];

    println!(
        "\n{:<18} {:>9} {:>10} {:>12} {:>12} {:>6} {:>8} {:>8} {:>8} {:>8}",
        "graph", "flops-ub", "out-nnz", "oracle ns", "wall1 ns", "num%", "x@1", "x@2", "x@4", "x@8"
    );

    let mut records = Vec::new();
    let mut speedups_at_4 = Vec::new();
    for spec in &specs {
        // Â·Â two-hop squaring: the GCN use case, normalized weights.
        let a = gcn_normalize(&spec.synthesize(SEED));
        let flops = spgemm_flops_upper_bound(&a, &a);
        let ub_ends = upper_bound_ends(&a, &a);
        let total_items = (a.rows() + flops) as u64;

        let oracle_ns = time_ns(warm, iters, || {
            let _ = spgemm_sequential(&a, &a).unwrap();
        });

        // Per-strategy one-worker walls: what the adaptive classifier
        // buys over pinning every row to one accumulator family.
        let mut strategy_walls = Vec::new();
        for strategy in STRATEGIES {
            let engine = ExecEngine::new(1).with_spgemm_strategy(strategy);
            let ns = time_ns(warm, iters, || {
                let _ = engine.spgemm(&a, &a).unwrap();
            });
            strategy_walls.push((strategy, ns));
        }
        let wall1 = strategy_walls[0].1; // Adaptive

        // Numeric fraction of the one-worker wall, from the engine's
        // own phase counters averaged over the timed runs.
        let engine = ExecEngine::new(1);
        let runs = (warm + iters) as u64;
        let out = engine.spgemm(&a, &a).unwrap();
        let out_nnz = out.nnz();
        engine.clear_cache();
        for _ in 0..runs {
            let _ = engine.spgemm(&a, &a).unwrap();
        }
        let st = engine.stats().spgemm;
        let numeric1 = (st.numeric_ns as f64 / runs as f64).min(wall1);
        let serial_ns = wall1 - numeric1;
        let ns_per_item = numeric1 / total_items as f64;

        let modeled: Vec<(usize, f64)> = workers_list
            .iter()
            .map(|&w| {
                let makespan = numeric_makespan_items(&ub_ends, w) as f64 * ns_per_item;
                (w, oracle_ns / (serial_ns + makespan).max(1.0))
            })
            .collect();
        let speedup_at_4 = modeled.iter().find(|&&(w, _)| w == 4).unwrap().1;
        speedups_at_4.push(speedup_at_4);

        println!(
            "{:<18} {:>9} {:>10} {:>12.0} {:>12.0} {:>5.0}% {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x",
            spec.name,
            flops,
            out_nnz,
            oracle_ns,
            wall1,
            numeric1 / wall1 * 100.0,
            modeled[0].1,
            modeled[1].1,
            modeled[2].1,
            modeled[3].1,
        );

        let strat_json: Vec<String> = strategy_walls
            .iter()
            .map(|(s, ns)| format!("\"{s:?}\": {ns:.0}"))
            .collect();
        let modeled_json: Vec<String> = modeled
            .iter()
            .map(|(w, x)| format!("\"{w}\": {x:.3}"))
            .collect();
        records.push(format!(
            concat!(
                "    {{\"graph\": \"{}\", \"rows\": {}, \"nnz\": {}, \"flops_ub\": {}, ",
                "\"out_nnz\": {}, \"oracle_ns\": {:.0}, \"wall_1w_ns\": {:.0}, ",
                "\"numeric_1w_ns\": {:.0}, \"rows_dense\": {}, \"rows_hash\": {}, ",
                "\"rows_merge\": {}, \"strategy_wall_1w_ns\": {{{}}}, ",
                "\"modeled_speedup\": {{{}}}}}"
            ),
            spec.name,
            a.rows(),
            a.nnz(),
            flops,
            out_nnz,
            oracle_ns,
            wall1,
            numeric1,
            st.accum_dense / runs,
            st.accum_hash / runs,
            st.accum_merge / runs,
            strat_json.join(", "),
            modeled_json.join(", ")
        ));
    }

    let g = geomean(&speedups_at_4);
    let pass = g >= 3.0;
    println!(
        "\npower-law geomean modeled speedup at 4 workers vs oracle: {g:.2}x (target >= 3.0: {})",
        if pass { "PASS" } else { "MISS" }
    );

    let json = format!(
        concat!(
            "{{\n  \"baseline\": \"sequential SpGEMM oracle (spgemm_sequential)\",\n",
            "  \"speedup\": {:.3},\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"acceptance\": {{\n",
            "    \"powerlaw_geomean_speedup_at_4_workers\": {:.3},\n",
            "    \"target\": 3.0,\n",
            "    \"pass\": {}\n",
            "  }}\n}}\n"
        ),
        g,
        records.join(",\n"),
        g,
        pass
    );
    std::fs::write("BENCH_spgemm.json", &json).expect("write BENCH_spgemm.json");
    println!("wrote BENCH_spgemm.json");
}
