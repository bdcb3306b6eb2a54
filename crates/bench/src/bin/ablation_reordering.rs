//! Ablation — does degree-sort reordering rescue row-splitting?
//!
//! The classic remedy for evil rows is to *reorder* the matrix (sort rows
//! by degree) so contiguous chunks carry comparable work. MergePath-SpMM
//! claims the same balance with no reordering at all. This ablation
//! compares, measured on the real execution engine (current SIMD data
//! path, prepared plans, the static schedule):
//!
//! * row-splitting on the original matrix,
//! * row-splitting on the degree-sorted matrix with contiguous chunks —
//!   which backfires (the sort CONCENTRATES the heavy rows in one chunk),
//! * row-splitting on the sorted matrix with rows dealt round-robin to
//!   threads (the classic LPT-style scheme sorting actually enables),
//! * MergePath-SpMM on the original matrix, unsorted.
//!
//! Load-balance statistics ([`LoadBalance`]) show *why*: even the LPT
//! dealing cannot bound the per-thread maximum below the longest row; the
//! merge path bounds every thread's work by construction. The `skew4`
//! column shows what the engine's static scheduler sees at 4 workers:
//! the clustered sorted-contiguous plan piles most non-zeros into one
//! worker span, while the merge-path plan's spans stay near 1.0.

use std::time::Instant;

use mpspmm_bench::{banner, full_size_requested, load, time_ns, SEED};
use mpspmm_core::analysis::LoadBalance;
use mpspmm_core::{
    default_workers, ExecEngine, Flush, KernelPlan, MergePathSpmm, PreparedPlan, RowSplitSpmm,
    Segment, SpmmKernel, ThreadPlan,
};
use mpspmm_graphs::find_dataset;
use mpspmm_sparse::reorder::{degree_sort_permutation, permute_rows};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};

/// Rows of the (sorted) matrix dealt round-robin onto `threads` logical
/// threads: the LPT-flavoured schedule degree sorting is meant to enable.
fn dealt_row_plan(a: &CsrMatrix<f32>, threads: usize) -> KernelPlan {
    let rp = a.row_ptr();
    let mut plans = vec![ThreadPlan::default(); threads];
    for row in 0..a.rows() {
        if rp[row + 1] > rp[row] {
            plans[row % threads].segments.push(Segment {
                row,
                nz_start: rp[row],
                nz_end: rp[row + 1],
                flush: Flush::Regular,
            });
        }
    }
    KernelPlan { threads: plans }
}

const SAMPLE: [&str; 4] = ["Oregon-1", "Nell", "soc-SlashDot811", "Pubmed"];

fn main() {
    let full = full_size_requested();
    banner(
        "Ablation: reordering",
        "row-splitting ± degree sort vs MergePath-SpMM on the engine (dim 16)",
        full,
    );
    println!("sample: {SAMPLE:?}, seed {SEED}\n");

    let dim = 16;
    let engine = ExecEngine::new(default_workers());
    println!(
        "{:<16} {:>9} {:>10} {:>10} {:>8} {:>9} | {:>7} {:>7} {:>7} {:>7} | {:>11}",
        "Graph",
        "RS µs",
        "sortRS µs",
        "sortLPT µs",
        "sort ms",
        "MP µs",
        "imb RS",
        "imb sRS",
        "imb LPT",
        "imb MP",
        "skew4"
    );
    for name in SAMPLE {
        let (_, a) = load(find_dataset(name).expect("in Table II"), full);
        let threads = 1024usize;

        let t0 = Instant::now();
        let perm = degree_sort_permutation(&a);
        let sorted = permute_rows(&a, &perm);
        let sort_ms = t0.elapsed().as_secs_f64() * 1e3;

        let b = DenseMatrix::from_fn(a.cols(), dim, |r, c| {
            ((r * 31 + c * 7) % 17) as f32 * 0.125 - 1.0
        });
        let rs_plan = RowSplitSpmm::with_threads(threads).plan(&a, dim);
        let srs_plan = RowSplitSpmm::with_threads(threads).plan(&sorted, dim);
        let lpt_plan = dealt_row_plan(&sorted, threads);
        lpt_plan.validate(&sorted).expect("dealt plan is valid");
        let mp_plan = MergePathSpmm::new().plan(&a, dim);

        // Measure every scheme on the real engine: prepared (packed)
        // plans, current SIMD data path, the static schedule.
        let micros = |plan: &KernelPlan, m: &CsrMatrix<f32>| {
            let prep = PreparedPlan::for_matrix(plan.clone(), m);
            time_ns(2, 7, || {
                let _ = engine.execute_prepared(&prep, m, &b).unwrap();
            }) / 1e3
        };
        let rs = micros(&rs_plan, &a);
        let srs = micros(&srs_plan, &sorted);
        let lpt = micros(&lpt_plan, &sorted);
        let mp = micros(&mp_plan, &a);

        // Static span skew of the pathological plan vs the merge-path
        // one, at 4 workers so the column stays meaningful on hosts with
        // fewer cores.
        let srs_prep = PreparedPlan::for_matrix(srs_plan.clone(), &sorted);
        let mp_prep = PreparedPlan::for_matrix(mp_plan.clone(), &a);
        let skew = format!(
            "{:.2}/{:.2}",
            srs_prep.static_span_skew(4),
            mp_prep.static_span_skew(4)
        );

        let imb = |plan: &KernelPlan| LoadBalance::of(plan).imbalance;
        println!(
            "{name:<16} {rs:>9.1} {srs:>10.1} {lpt:>10.1} {sort_ms:>8.2} {mp:>9.1} | {:>7.1} {:>7.1} {:>7.2} {:>7.2} | {skew:>11}",
            imb(&rs_plan),
            imb(&srs_plan),
            imb(&lpt_plan),
            imb(&mp_plan),
        );
    }
    println!(
        "\nReading: sorting with contiguous chunks BACKFIRES (it stacks the \
         heavy rows into one chunk); sorting with round-robin dealing (LPT) \
         balances the sums but still cannot split the longest row, so its \
         per-thread maximum stays unbounded. MergePath-SpMM reaches a \
         strictly tighter bound on the ORIGINAL matrix, with no sort cost \
         and no permuted output to undo. `skew4` = max/mean nnz of the \
         static scheduler's 4 worker spans for the sorted-contiguous / \
         merge-path plans: the sort pathologizes exactly the first. Timings \
         are real engine runs; on a host with few cores the µs columns track \
         total work, the imbalance and `skew4` columns show what changes at \
         higher worker counts."
    );
}
