//! Engine benchmark — old executor vs the fast-path execution engine.
//!
//! For a spread of Table II graphs, times the seed baseline
//! (`executor::execute_parallel`, which routes every output element
//! through an atomic cell and spawns threads per call) on the plans of
//! the merge-path, nnz-split (GNNAdvisor), and row-split kernels against
//! [`ExecEngine`], single-core, at dimensions 16 and 32. The engine runs
//! the same row spans whatever the kernel, so it is timed once per
//! (dataset, dim); only the seed executor runs each kernel's plan.
//! Writes `BENCH_engine.json` with one record per
//! (dataset, kernel, dim): `{dataset, kernel, dim, ns_per_nnz, speedup}`
//! where `ns_per_nnz` is the engine's time and `speedup` is the seed
//! executor on that kernel's plan over the engine.
//!
//! The engine is `ExecEngine::new(1)`, on its default data path.
//!
//! Also demonstrates the plan cache on a 2-layer GCN (10 inferences on a
//! fixed graph epoch) and prints the observed hit rate.

use mpspmm_bench::{banner, full_size_requested, geomean, load, time_ns};
use mpspmm_core::executor::execute_parallel;
use mpspmm_core::{
    default_workers, ExecEngine, MergePathSpmm, NnzSplitSpmm, PreparedPlan, RowSplitSpmm,
    SpmmKernel,
};
use mpspmm_gcn::{ops, GcnModel};
use mpspmm_graphs::{find_dataset, gcn_normalize};
use mpspmm_sparse::DenseMatrix;

const DATASETS: [&str; 6] = [
    "Cora",
    "Citeseer",
    "Pubmed",
    "Wiki-Vote",
    "PPI",
    "PROTEINS_full",
];

fn main() {
    let full = full_size_requested();
    banner(
        "BENCH engine",
        "seed executor per kernel plan vs fast-path engine, single-core, dims {16, 32}",
        full,
    );

    let kernels: Vec<Box<dyn SpmmKernel>> = vec![
        Box::new(MergePathSpmm::new()),
        Box::new(NnzSplitSpmm::new()),
        Box::new(RowSplitSpmm::default()),
    ];
    let engine = ExecEngine::new(1);

    println!(
        "\n{:<16} {:<16} {:>4} {:>12} {:>12} {:>9}",
        "Graph", "Kernel", "dim", "old ns/nnz", "new ns/nnz", "speedup"
    );
    let mut records = Vec::new();
    let mut speedups = Vec::new();
    for name in DATASETS {
        let spec = find_dataset(name).expect("Table II dataset");
        let (used, a) = load(spec, full);
        for dim in [16usize, 32] {
            let b = DenseMatrix::from_fn(a.cols(), dim, |r, c| {
                ((r * 31 + c * 7) % 17) as f32 * 0.125 - 1.0
            });
            // Explicit warmup (untimed) before the min-of-N timed runs:
            // the first call faults in the output and operand pages. The
            // engine's timed call includes building its row-span plan.
            let new_ns = time_ns(2, 7, || {
                let prep = PreparedPlan::new(&a);
                let _ = engine.execute_prepared(&prep, &a, &b).unwrap();
            });
            for kernel in &kernels {
                let plan = kernel.plan(&a, dim);
                let old_ns = time_ns(2, 5, || {
                    let _ = execute_parallel(&plan, &a, &b, 1).unwrap();
                });
                let speedup = old_ns / new_ns;
                let ns_per_nnz = new_ns / a.nnz() as f64;
                println!(
                    "{:<16} {:<16} {:>4} {:>12.2} {:>12.2} {:>8.2}x",
                    used.name,
                    kernel.name(),
                    dim,
                    old_ns / a.nnz() as f64,
                    ns_per_nnz,
                    speedup
                );
                speedups.push(speedup);
                records.push(format!(
                    "    {{\"dataset\": \"{}\", \"kernel\": \"{}\", \"dim\": {}, \"ns_per_nnz\": {:.3}, \"speedup\": {:.3}}}",
                    used.name,
                    kernel.name(),
                    dim,
                    ns_per_nnz,
                    speedup
                ));
            }
        }
    }
    let g = geomean(&speedups);
    println!("\ngeomean speedup (engine over seed executor, 1 core): {g:.2}x");

    // Plan-cache demonstration: a 2-layer GCN re-run on a fixed graph
    // epoch should plan twice (once per layer width) and hit thereafter.
    let a_hat = gcn_normalize(&load(find_dataset("Cora").unwrap(), full).1);
    let model = GcnModel::two_layer(32, 16, 7, 3);
    let x = ops::random_features(a_hat.rows(), 32, 0.4, 5);
    let cache_engine = ExecEngine::new(default_workers());
    let kernel = MergePathSpmm::new();
    for _ in 0..10 {
        model
            .forward_cached(&a_hat, &x, &kernel, &cache_engine, 0)
            .unwrap();
    }
    let stats = cache_engine.stats();
    println!(
        "plan cache on 2-layer GCN x10: {} hits / {} misses (hit rate {:.0}%)",
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        stats.hit_rate() * 100.0
    );

    let json = format!(
        "{{\n  \"baseline\": \"seed SpmmExecutor, 1 worker\",\n  \"speedup\": {:.3},\n  \"results\": [\n{}\n  ],\n  \"geomean_speedup\": {:.3},\n  \"gcn_plan_cache_hit_rate\": {:.3}\n}}\n",
        g,
        records.join(",\n"),
        g,
        stats.hit_rate()
    );
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("wrote BENCH_engine.json");
}
