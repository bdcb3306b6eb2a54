//! The online setting on an evolving graph (§III-D).
//!
//! A graph under continuous edge churn invalidates every per-graph
//! structure: GNNAdvisor must rebuild its neighbor-partition index and
//! MergePath-SpMM its schedule before each inference. This example runs a
//! stream of snapshots, rebuilds both, and reports the rebuild cost next
//! to the inference cost.
//!
//! Run with: `cargo run --release --example evolving_graph`

use std::time::Instant;

use merge_path_spmm::core::{Epilogue, ExecEngine, MergePathSpmm, NeighborPartitionIndex};
use merge_path_spmm::gcn::ops::random_features;
use merge_path_spmm::graphs::{DatasetSpec, GraphClass, GraphStream};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = DatasetSpec::custom("live", GraphClass::PowerLaw, 20_000, 100_000, 1_500);
    let mut stream = GraphStream::new(&spec, 7);
    let kernel = MergePathSpmm::new();
    let x = random_features(20_000, 16, 1.0, 3);

    println!(
        "evolving graph: {} nodes, starting at {} edges; 5 inferences with churn in between\n",
        20_000,
        stream.snapshot().nnz()
    );
    println!(
        "{:>4} {:>9} {:>14} {:>14} {:>12}",
        "step", "edges", "NG rebuild ms", "MP resched ms", "spmm ms"
    );
    for step in 0..5 {
        let a = stream.snapshot().clone();

        let t0 = Instant::now();
        let index = NeighborPartitionIndex::build(&a, 5);
        let ng_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let schedule = kernel.schedule(&a, 16);
        let mp_ms = t1.elapsed().as_secs_f64() * 1e3;

        let t2 = Instant::now();
        let out = ExecEngine::global()
            .spmm(&a, &[&x], &Epilogue::None)?
            .remove(0);
        let spmm_ms = t2.elapsed().as_secs_f64() * 1e3;

        println!(
            "{step:>4} {:>9} {ng_ms:>14.3} {mp_ms:>14.3} {spmm_ms:>12.2}",
            a.nnz()
        );
        assert_eq!(out.rows(), a.rows());
        assert!(schedule.matches(&a) && index.matches(&a));

        // Churn before the next inference: both structures are now stale.
        stream.step(800, 500);
        assert!(!schedule.matches(stream.snapshot()));
        assert!(!index.matches(stream.snapshot()));
    }
    println!(
        "\nEvery churn batch invalidates both structures; the merge-path \
         reschedule stays a small fraction of the inference itself (the \
         paper's Figure 8 measures ~2% on its GPU)."
    );
    Ok(())
}
