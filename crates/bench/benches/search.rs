//! Benchmark of the constrained 2-D binary search — the inner primitive
//! of Algorithm 1 (one call per thread boundary), timed as the median of
//! `mpspmm_bench::Measured` (no criterion in the offline build).

use mpspmm_bench::Measured;
use mpspmm_core::merge_path_search;
use mpspmm_graphs::{DatasetSpec, GraphClass};

fn main() {
    for (label, nodes, nnz, max_deg) in [
        ("10k", 10_000usize, 50_000usize, 500usize),
        ("300k", 300_000, 1_500_000, 2_000),
    ] {
        let a = DatasetSpec::custom("pl", GraphClass::PowerLaw, nodes, nnz, max_deg).synthesize(7);
        let row_end = &a.row_ptr()[1..];
        let total = a.merge_items();
        let mut sink = 0usize;
        let ns = Measured::of(3, 20, || {
            // Sweep 1024 evenly spaced diagonals (one schedule build's
            // worth of searches at the paper's thread floor).
            let mut acc = 0usize;
            for t in 0..1024usize {
                let diag = t * total / 1024;
                acc += merge_path_search(diag, row_end, a.nnz()).row;
            }
            sink = sink.wrapping_add(acc);
        })
        .median_ns;
        println!(
            "merge_path_search/{label}: {:>12.0} ns per 1024-search sweep ({:.1} ns/search, checksum {sink})",
            ns,
            ns / 1024.0
        );
    }
}
