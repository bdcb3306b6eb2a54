//! Engine benchmark — old executor vs the fast-path execution engine.
//!
//! For a spread of Table II graphs, times the seed baseline
//! (`executor::execute_parallel`, which routes every output element
//! through an atomic cell and spawns threads per call) on the plans of
//! the merge-path, nnz-split (GNNAdvisor), and row-split kernels against
//! [`ExecEngine`], single-core, at dimensions 16 and 32, the two sides
//! alternating round by round. The engine runs the same row spans
//! whatever the kernel; only the seed executor runs each kernel's plan.
//! Writes `BENCH_engine.json` with one record per
//! (dataset, kernel, dim): `{dataset, kernel, dim, ns_per_nnz, speedup}`
//! where `ns_per_nnz` is the engine's median time and `speedup` is the
//! seed executor's median on that kernel's plan over the engine's.
//!
//! The engine is `ExecEngine::new(1)`, on its default data path.

use mpspmm_bench::{alternate, banner, full_size_requested, json_array, load, write_artifact};
use mpspmm_core::executor::execute_parallel;
use mpspmm_core::{Epilogue, ExecEngine, MergePathSpmm, NnzSplitSpmm, RowSplitSpmm, SpmmKernel};
use mpspmm_graphs::find_dataset;
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
    let mut pairs = Vec::new();
    for name in DATASETS {
        let spec = find_dataset(name).expect("Table II dataset");
        let (used, a) = load(spec, full);
        for dim in [16usize, 32] {
            let b = DenseMatrix::from_fn(a.cols(), dim, |r, c| {
                ((r * 31 + c * 7) % 17) as f32 * 0.125 - 1.0
            });
            for kernel in &kernels {
                let plan = kernel.plan(&a, dim);
                // Two untimed rounds fault in the output and operand
                // pages. The engine's timed call includes cutting its
                // row spans.
                let (old, new) = alternate(
                    2,
                    7,
                    || {
                        let _ = execute_parallel(&plan, &a, &b, 1).unwrap();
                        1
                    },
                    || {
                        let _ = engine.spmm(&a, &[&b], &Epilogue::None).unwrap();
                        1
                    },
                );
                let speedup = old.median_ns / new.median_ns;
                let ns_per_nnz = new.median_ns / a.nnz() as f64;
                println!(
                    "{:<16} {:<16} {:>4} {:>12.2} {:>12.2} {:>8.2}x",
                    used.name,
                    kernel.name(),
                    dim,
                    old.median_ns / a.nnz() as f64,
                    ns_per_nnz,
                    speedup
                );
                pairs.push((old, new));
                records.push(format!(
                    "{{\"dataset\": \"{}\", \"kernel\": \"{}\", \"dim\": {}, \"ns_per_nnz\": {:.3}, \"speedup\": {:.3}}}",
                    used.name,
                    kernel.name(),
                    dim,
                    ns_per_nnz,
                    speedup
                ));
            }
        }
    }
    write_artifact(
        "engine",
        "seed SpmmExecutor, 1 worker",
        &pairs,
        engine.workers(),
        &[("results", json_array(&records))],
    );
}
