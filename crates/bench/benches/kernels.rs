//! Microbenchmarks of the real CPU SpMM kernels (plain timing harness;
//! the build environment has no criterion, so `harness = false` bench
//! targets print the median of `mpspmm_bench::Measured`).
//!
//! These measure this machine's actual execution of each strategy (not
//! the machine models): plan construction + parallel execution of
//! `A × XW` at dimension 16 on a mid-sized power-law graph and a
//! structured graph.

use mpspmm_bench::Measured;
use mpspmm_core::{
    MergePathSerialFixup, MergePathSpmm, NnzSplitSpmm, RowSplitSpmm, SerialSpmm, SpmmKernel,
};
use mpspmm_gcn::ops::random_features;
use mpspmm_graphs::{DatasetSpec, GraphClass};

fn main() {
    let inputs = [
        (
            "powerlaw-50k",
            DatasetSpec::custom("pl", GraphClass::PowerLaw, 10_000, 50_000, 1_000),
        ),
        (
            "structured-50k",
            DatasetSpec::custom("st", GraphClass::Structured, 20_000, 50_000, 8),
        ),
    ];
    for (label, spec) in inputs {
        let a = spec.synthesize(7);
        let b = random_features(a.cols(), 16, 1.0, 3);
        let kernels: Vec<(&str, Box<dyn SpmmKernel>)> = vec![
            ("serial", Box::new(SerialSpmm)),
            ("row-split", Box::new(RowSplitSpmm::with_threads(1024))),
            ("gnnadvisor", Box::new(NnzSplitSpmm::new())),
            ("mergepath", Box::new(MergePathSpmm::new())),
            (
                "mergepath-serialfixup",
                Box::new(MergePathSerialFixup::new()),
            ),
        ];
        println!("spmm/{label} ({} nnz, dim 16)", a.nnz());
        for (name, kernel) in &kernels {
            let ns = Measured::of(2, 10, || {
                kernel.spmm(&a, &b).expect("shapes match");
            })
            .median_ns;
            println!(
                "  {name:<22} {:>12.0} ns/call  {:>8.3} ns/nnz",
                ns,
                ns / a.nnz() as f64
            );
        }
    }
}
