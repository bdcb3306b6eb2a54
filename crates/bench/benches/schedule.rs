//! Benchmark of merge-path schedule construction — the "scheduling
//! overhead" of the online setting (Figure 8), measured on this CPU as
//! the median of `mpspmm_bench::Measured` (no criterion in the offline
//! build).

use mpspmm_bench::Measured;
use mpspmm_core::Schedule;
use mpspmm_graphs::{DatasetSpec, GraphClass};

fn main() {
    let spec = DatasetSpec::custom("pl", GraphClass::PowerLaw, 50_000, 250_000, 2_000);
    let a = spec.synthesize(7);
    println!("schedule/build ({} merge items)", a.merge_items());
    for threads in [64usize, 1024, 16_384] {
        let ns = Measured::of(3, 20, || {
            Schedule::build(&a, threads);
        })
        .median_ns;
        println!(
            "  threads {threads:>6} {:>12.0} ns/build  {:>8.3} ns/item",
            ns,
            ns / a.merge_items() as f64
        );
    }
}
