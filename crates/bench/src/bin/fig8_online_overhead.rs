//! Figure 8 — scheduling overhead of online execution.
//!
//! In the online setting (§III-D), the MergePath-SpMM schedule is
//! recomputed before each inference; in a 2-layer GCN the kernel is then
//! invoked twice. This harness prints, per graph, the scheduling overhead
//! as a percentage of the total (schedule + 2 kernel invocations) on the
//! GPU model, plus the *measured* CPU scheduling time of this
//! implementation (median of 5 builds) for reference.
//!
//! The paper observes the scheduling cost is "generally constant time
//! across different graphs" (~2% geometric mean, up to 10% on the smallest
//! graph, under 1% on com-Amazon): on the GPU it is a small fixed-depth
//! kernel of parallel binary searches. We model it as a constant-cost
//! kernel of [`SCHEDULE_KERNEL_CYCLES`] cycles.

use mpspmm_bench::{banner, full_size_requested, geomean, load, Measured};
use mpspmm_core::{default_cost_for_dim, thread_count, Schedule, MIN_THREADS};
use mpspmm_graphs::table_ii;
use mpspmm_simt::{GpuConfig, GpuKernel};

/// Cycles of the schedule-construction kernel on the GPU model: a
/// fixed-depth wave of per-thread binary searches (two per thread, ~log n
/// L2-resident probes each) whose latency is dominated by launch +
/// pipeline depth rather than the input size.
const SCHEDULE_KERNEL_CYCLES: f64 = 2_500.0;

fn main() {
    let full = full_size_requested();
    banner(
        "Figure 8",
        "online scheduling overhead in a 2-layer GCN (dim 16)",
        full,
    );

    let cfg = GpuConfig::rtx6000();
    let dim = 16;
    let cost = default_cost_for_dim(dim);
    let sched_micros = cfg.cycles_to_micros(SCHEDULE_KERNEL_CYCLES);
    println!("modeled schedule kernel: {SCHEDULE_KERNEL_CYCLES} cycles = {sched_micros:.2} µs\n");
    println!(
        "{:<16} {:>9} {:>13} {:>13} {:>10} {:>15}",
        "Graph", "threads", "2x kernel µs", "schedule µs", "overhead", "CPU sched (ms)"
    );

    let mut overheads = Vec::new();
    let mut rows = Vec::new();
    for spec in table_ii() {
        let (used, a) = load(spec, full);
        let kernel_micros = GpuKernel::MergePath { cost: Some(cost) }
            .simulate(&a, dim, &cfg)
            .micros
            * 2.0;
        let overhead = sched_micros / (sched_micros + kernel_micros);
        // Reference: actual wall-clock schedule construction on this CPU.
        let threads = thread_count(a.merge_items(), cost, MIN_THREADS);
        let cpu_ms = Measured::of(1, 5, || {
            assert_eq!(Schedule::build(&a, threads).num_threads(), threads);
        })
        .median_ns
            / 1e6;
        overheads.push(overhead);
        rows.push((used.name, threads, kernel_micros, overhead, cpu_ms));
        println!(
            "{:<16} {:>9} {:>13.2} {:>13.2} {:>9.1}% {:>15.3}",
            used.name,
            threads,
            kernel_micros,
            sched_micros,
            overhead * 100.0,
            cpu_ms
        );
    }

    let geo = geomean(&overheads) * 100.0;
    let max = rows
        .iter()
        .max_by(|a, b| a.3.partial_cmp(&b.3).expect("finite"))
        .expect("non-empty");
    println!("\ngeometric-mean scheduling overhead: {geo:.1}%  (paper: ~2%)");
    println!(
        "largest overhead: {} at {:.1}%  (paper: Cora at 10%)",
        max.0,
        max.3 * 100.0
    );
    println!(
        "com-Amazon overhead: {:.2}%  (paper: under 1%)",
        rows.iter()
            .find(|r| r.0 == "com-Amazon")
            .expect("in Table II")
            .3
            * 100.0
    );
}
