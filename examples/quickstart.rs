//! Quickstart: compute a load-balanced SpMM with MergePath-SpMM.
//!
//! Builds a small power-law graph, multiplies its adjacency matrix by a
//! dense feature product by replaying every available kernel's own plan,
//! prints how far each lands from the serial row order, and prints the
//! write statistics that distinguish the strategies.
//!
//! Run with: `cargo run --release --example quickstart`

use merge_path_spmm::core::{
    MergePathSerialFixup, MergePathSpmm, NnzSplitSpmm, RowSplitSpmm, SerialSpmm, SpmmKernel,
};
use merge_path_spmm::gcn::ops::random_features;
use merge_path_spmm::graphs::{DatasetSpec, GraphClass};
use merge_path_spmm::sparse::stats::DegreeStats;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic power-law graph: 5,000 nodes, 25,000 edges, one evil row
    // of 800 non-zeros.
    let spec = DatasetSpec::custom("quickstart", GraphClass::PowerLaw, 5_000, 25_000, 800);
    let a = spec.synthesize(42);
    let stats = DegreeStats::compute(&a);
    println!(
        "graph: {} nodes, {} non-zeros, avg degree {:.1}, max degree {} (evil-row ratio {:.0})",
        stats.rows,
        stats.nnz,
        stats.avg,
        stats.max,
        stats.evil_row_ratio()
    );

    // The dense operand XW: 16 hidden dimensions (the paper's default).
    let xw = random_features(a.cols(), 16, 1.0, 7);

    // The reference answer: the serial row order.
    let (reference, _) = SerialSpmm.spmm_sequential(&a, &xw)?;

    let kernels: Vec<Box<dyn SpmmKernel>> = vec![
        Box::new(RowSplitSpmm::with_threads(1024)),
        Box::new(NnzSplitSpmm::new()),
        Box::new(MergePathSerialFixup::new()),
        Box::new(MergePathSpmm::new()),
    ];
    println!(
        "\n{:<28} {:>9} {:>12} {:>12} {:>12} {:>10}",
        "kernel", "threads", "atomic upd", "regular upd", "serial upd", "max |err|"
    );
    for kernel in &kernels {
        let plan = kernel.plan(&a, xw.cols());
        plan.validate(&a)?;
        let (out, stats) = kernel.spmm_sequential(&a, &xw)?;
        println!(
            "{:<28} {:>9} {:>12} {:>12} {:>12} {:>10.2e}",
            kernel.name(),
            plan.num_threads(),
            stats.atomic_row_updates,
            stats.regular_row_writes,
            stats.serial_row_updates,
            out.max_abs_diff(&reference)?,
        );
    }

    println!(
        "\nAll kernels compute the same product up to float association \
         (max |err|); they differ in how the work is balanced and how many \
         output updates need synchronization — \
         MergePath-SpMM bounds work per thread AND confines atomics to \
         partial rows."
    );
    Ok(())
}
