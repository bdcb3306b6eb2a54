//! Wide-feature-dim benchmark: the pre-existing data path vs this
//! revision's wide-dim path, measured on a full GCN layer pipeline
//! (`Y = A · (X · W)`) at dense dimensions 16–512.
//!
//! At GNN hidden widths the dense GEMM `X · W` dominates a layer —
//! `O(rows · dim²)` flops against the SpMM's `O(nnz · dim)` — so the
//! wide-dim work in this revision concentrates there: a register-tiled
//! microkernel whose per-`k` slices are hoisted out of the hot loop, a
//! `k`-blocked sweep that keeps the `B` slab quarter-L2-resident, and
//! the opt-in FastMath mode that contracts each multiply-add to an FMA.
//! On the sparse side, `SchedPolicy::Auto` routes wide dims through the
//! column-striped executor (clamped to the machine's hardware
//! parallelism), which drops the pooled path's strip folding and serial
//! carry replay.
//!
//! Three configurations are timed per (graph, dim), stage by stage:
//!
//! * **baseline** — the pre-revision data path: the previous unblocked
//!   register-tiled GEMM kernel (reproduced verbatim below from the
//!   parent revision, with the same `#[target_feature]` dispatch, and
//!   guarded bitwise-equal against the engine) plus
//!   `SchedPolicy::Static` SpMM — the schedule wide dims used before
//!   column striping existed.
//! * **wide exact** — `ExecEngine::gemm` (`k`-blocked, reworked
//!   microkernel) plus `SchedPolicy::Auto` SpMM, FastMath off. This
//!   path is held **bit-identical** to the baseline GEMM and to the
//!   sequential SpMM oracle at every dim in the matrix.
//! * **wide fastmath** — the same with the documented FastMath opt-in
//!   (`with_fast_math(true)` / `MPSPMM_FASTMATH`). Results are
//!   tolerance-checked, not bit-checked: FMA contraction is exactly the
//!   bit-equality carve-out DESIGN.md §2.11 documents.
//!
//! The headline `speedup` is the geomean, over both graphs at dims
//! {128, 256, 512}, of baseline layer time over the wide-path FastMath
//! layer time; `speedup_exact` is the same ratio with FastMath off (the
//! default path). Flatness is tracked on the SpMM stage as
//! ns/(nnz·col) at dim 512 vs dim 16.
//!
//! Writes `BENCH_widedim.json`. Pass `--smoke` for a seconds-fast run
//! on scaled-down graphs.

use mpspmm_bench::{geomean, SEED};
use mpspmm_core::executor::execute_sequential;
use mpspmm_core::{
    panel_cols, CacheModel, DataPath, ExecEngine, MergePathSpmm, PreparedPlan, SchedPolicy,
    SpmmKernel, GEMM_BAND_ROWS, STRIPE_MIN_DIM,
};
use mpspmm_gcn::ops::random_features;
use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};
use mpspmm_sparse::DenseMatrix;

const DIMS: [usize; 6] = [16, 32, 64, 128, 256, 512];
const WORKERS: usize = 4;
/// The acceptance dims: the geomean layer speedup is taken over these.
const WIDE_DIMS: [usize; 3] = [128, 256, 512];

/// The parent revision's GEMM kernel, reproduced for the baseline
/// measurement: register tile of 4 rows, unblocked full-`k` sweep with
/// zero-seeded accumulators, 16/8/4-lane cascade, per-`k` row addressing
/// through `DenseMatrix::row` inside the hot loop. Summation order per
/// output element is ascending `k` — identical to the engine's blocked
/// sweep — so `old_gemm` is *bitwise equal* to `ExecEngine::gemm` with
/// FastMath off, which the bench asserts before timing anything.
mod old_kernel {
    use super::{panel_cols, CacheModel, DenseMatrix, GEMM_BAND_ROWS};

    const MR: usize = 4;

    pub fn old_gemm(a: &DenseMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
        let (m, n) = (a.rows(), b.cols());
        let mut out = vec![0.0f32; m * n];
        let lanes = if is_x86_feature_detected!("avx512f") {
            16
        } else {
            8
        };
        let panel = panel_cols(n, lanes, &CacheModel::default());
        for (bi, band) in out.chunks_mut(GEMM_BAND_ROWS * n.max(1)).enumerate() {
            old_gemm_band(a, b, bi * GEMM_BAND_ROWS, panel, lanes == 16, band);
        }
        DenseMatrix::from_vec(m, n, out).expect("shape")
    }

    fn old_gemm_band(
        a: &DenseMatrix<f32>,
        b: &DenseMatrix<f32>,
        row_start: usize,
        panel: usize,
        w16: bool,
        dst: &mut [f32],
    ) {
        let n = b.cols();
        if n == 0 || dst.is_empty() {
            return;
        }
        let mut r = 0usize;
        let mut quads = dst.chunks_exact_mut(MR * n);
        for quad in quads.by_ref() {
            let arows: [&[f32]; MR] = std::array::from_fn(|i| a.row(row_start + r + i));
            let mut rows = quad.chunks_exact_mut(n);
            let mut crows: [&mut [f32]; MR] =
                std::array::from_fn(|_| rows.next().expect("quad holds MR rows"));
            old_rows(arows, b, n, panel, w16, &mut crows);
            r += MR;
        }
        for crow in quads.into_remainder().chunks_exact_mut(n) {
            old_rows([a.row(row_start + r)], b, n, panel, w16, &mut [crow]);
            r += 1;
        }
    }

    /// Same `#[target_feature]` dispatch the old engine used, so the
    /// baseline is compiled with the codegen it actually had.
    fn old_rows<const MR2: usize>(
        arows: [&[f32]; MR2],
        b: &DenseMatrix<f32>,
        n: usize,
        panel: usize,
        w16: bool,
        crows: &mut [&mut [f32]; MR2],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: gated on the runtime avx512f proof above.
                return unsafe { old_rows_avx512(arows, b, n, panel, w16, crows) };
            }
            if is_x86_feature_detected!("avx2") {
                // SAFETY: gated on the runtime avx2 proof above.
                return unsafe { old_rows_avx2(arows, b, n, panel, w16, crows) };
            }
        }
        old_rows_body(arows, b, n, panel, w16, crows);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn old_rows_avx512<const MR2: usize>(
        arows: [&[f32]; MR2],
        b: &DenseMatrix<f32>,
        n: usize,
        panel: usize,
        w16: bool,
        crows: &mut [&mut [f32]; MR2],
    ) {
        old_rows_body(arows, b, n, panel, w16, crows);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn old_rows_avx2<const MR2: usize>(
        arows: [&[f32]; MR2],
        b: &DenseMatrix<f32>,
        n: usize,
        panel: usize,
        w16: bool,
        crows: &mut [&mut [f32]; MR2],
    ) {
        old_rows_body(arows, b, n, panel, w16, crows);
    }

    #[inline(always)]
    fn old_rows_body<const MR2: usize>(
        arows: [&[f32]; MR2],
        b: &DenseMatrix<f32>,
        n: usize,
        panel: usize,
        w16: bool,
        crows: &mut [&mut [f32]; MR2],
    ) {
        let panel = panel.max(1);
        let mut p0 = 0;
        while p0 < n {
            let p1 = (p0 + panel).min(n);
            let mut d = p0;
            if w16 {
                while d + 16 <= p1 {
                    old_micro::<MR2, 16>(arows, b, d, crows);
                    d += 16;
                }
            }
            while d + 8 <= p1 {
                old_micro::<MR2, 8>(arows, b, d, crows);
                d += 8;
            }
            if d + 4 <= p1 {
                old_micro::<MR2, 4>(arows, b, d, crows);
                d += 4;
            }
            for d in d..p1 {
                for (arow, crow) in arows.iter().zip(crows.iter_mut()) {
                    let mut s = 0.0f32;
                    for (p, &av) in arow.iter().enumerate() {
                        s += av * b.row(p)[d];
                    }
                    crow[d] = s;
                }
            }
            p0 = p1;
        }
    }

    #[inline(always)]
    fn old_micro<const MR2: usize, const W: usize>(
        arows: [&[f32]; MR2],
        b: &DenseMatrix<f32>,
        d: usize,
        crows: &mut [&mut [f32]; MR2],
    ) {
        let mut acc = [[0.0f32; W]; MR2];
        let k = arows[0].len();
        for p in 0..k {
            let row = b.row(p);
            let blk: &[f32; W] = row[d..d + W].try_into().expect("block inside dense row");
            for (accr, arow) in acc.iter_mut().zip(&arows) {
                let av = arow[p];
                for (s, &bv) in accr.iter_mut().zip(blk) {
                    *s += av * bv;
                }
            }
        }
        for (accr, crow) in acc.iter().zip(crows.iter_mut()) {
            crow[d..d + W].copy_from_slice(accr);
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (nodes, nnz, max_deg, warm, iters) = if smoke {
        (1_600usize, 4_800usize, 80usize, 1usize, 2usize)
    } else {
        (20_000, 60_000, 600, 1, 3)
    };
    println!("==================================================================");
    println!("BENCH widedim: pre-revision data path vs wide-dim layer pipeline");
    println!(
        "GCN layer (GEMM + SpMM), dims {{16..512}}, {WORKERS} workers, seed {SEED}{}",
        if smoke { " (--smoke)" } else { "" }
    );
    println!("==================================================================");

    let kernel = MergePathSpmm::new();
    let graphs = [
        (
            "powerlaw",
            gcn_normalize(
                &DatasetSpec::custom(
                    "widedim-powerlaw",
                    GraphClass::PowerLaw,
                    nodes,
                    nnz,
                    max_deg,
                )
                .synthesize(SEED),
            ),
        ),
        (
            "uniform",
            gcn_normalize(
                &DatasetSpec::custom("widedim-uniform", GraphClass::Structured, nodes, nnz, 16)
                    .synthesize(SEED),
            ),
        ),
    ];

    println!(
        "\n{:<9} {:>4} {:>13} {:>13} {:>13} {:>8} {:>8} {:>8} {:>12}",
        "Graph", "dim", "base ns", "exact ns", "fm ns", "exact", "fm", "striped", "spmm ns/nc"
    );
    let mut records = Vec::new();
    let (mut fm_speedups, mut exact_speedups) = (Vec::new(), Vec::new());
    // SpMM-stage per-column cost at dim 16 and 512 on the power-law
    // graph, for the flatness acceptance check (wide path, exact).
    let (mut pl_spmm_16, mut pl_spmm_512) = (0.0f64, 0.0f64);
    let fm_available = mpspmm_core::fastmath_supported();
    for (gname, a) in &graphs {
        let nnzf = a.nnz() as f64;
        let plan = kernel.plan(a, DIMS[DIMS.len() - 1]);
        let prep = PreparedPlan::for_matrix(plan.clone(), a);
        for dim in DIMS {
            let x = random_features(a.rows(), dim, 0.9, 33 + dim as u64);
            let w = random_features(dim, dim, 1.0, 99 + dim as u64);

            // Engines. The baseline SpMM runs the static pooled
            // schedule (what wide dims got before column striping); its
            // GEMM is the in-bench old kernel.
            let base_spmm =
                ExecEngine::with_sched_policy(WORKERS, DataPath::Auto, SchedPolicy::Static);
            let wide = ExecEngine::with_sched_policy(WORKERS, DataPath::Auto, SchedPolicy::Auto);
            let wide_fm = ExecEngine::with_sched_policy(WORKERS, DataPath::Auto, SchedPolicy::Auto)
                .with_fast_math(true);

            // --- Correctness guards, before any timing. ---
            // 1. The reproduced pre-revision kernel and the k-blocked
            //    default agree bit-for-bit (ascending-k summation per
            //    element).
            let xw_old = old_kernel::old_gemm(&x, &w);
            let xw = wide.gemm(&x, &w).unwrap();
            assert_eq!(
                xw_old.max_abs_diff(&xw).unwrap(),
                0.0,
                "baseline kernel reproduction must be bitwise equal ({gname}, dim {dim})"
            );
            // 2. The wide SpMM path (striped at dim >= 128) is bitwise
            //    equal to the sequential oracle on the same GEMM output.
            let striped = wide.selects_striping(&prep, dim);
            assert_eq!(
                striped,
                dim >= STRIPE_MIN_DIM,
                "balanced plan stripes exactly from STRIPE_MIN_DIM up"
            );
            let (want, _) = execute_sequential(&plan, a, &xw).unwrap();
            let (got, _) = wide.execute_prepared(&prep, a, &xw).unwrap();
            if striped {
                // The wide path's contract is strict: every stripe
                // replays the sequential addition order, so equality is
                // bitwise at every striped dim.
                assert_eq!(
                    got.max_abs_diff(&want).unwrap(),
                    0.0,
                    "wide SpMM path must be bit-identical to sequential ({gname}, dim {dim})"
                );
                assert!(wide.stats().stripes_executed > 0);
            } else {
                // Narrow dims keep the pooled schedule and its
                // (pre-existing) tolerance contract.
                assert!(got.approx_eq(&want, 1e-4).unwrap(), "{gname} dim {dim}");
            }
            // 3. FastMath differs by rounding only.
            if fm_available {
                let xw_fm = wide_fm.gemm(&x, &w).unwrap();
                let (got_fm, _) = wide_fm.execute_prepared(&prep, a, &xw_fm).unwrap();
                assert!(
                    got_fm.approx_eq(&got, 1e-3).unwrap(),
                    "fastmath layer within tolerance ({gname}, dim {dim})"
                );
                wide_fm.recycle(xw_fm);
                wide_fm.recycle(got_fm);
            }
            wide.recycle(got);
            wide.recycle(want);

            // --- Stage timings, interleaved. ---
            // The three configurations are measured round-robin within
            // each round (baseline, exact, fastmath back to back) and
            // the per-stage minimum is kept across rounds. Sequential
            // per-mode blocks would let slow thermal drift on a
            // sustained AVX-512 workload bias whichever mode runs last;
            // interleaving gives every mode the same clock conditions in
            // every round.
            let mut stage_ns = [f64::INFINITY; 6];
            for round in 0..(warm + iters) {
                let timed = round >= warm;
                let mut lap = |slot: usize, f: &mut dyn FnMut()| {
                    let t0 = std::time::Instant::now();
                    f();
                    let dt = t0.elapsed().as_nanos() as f64;
                    if timed && dt < stage_ns[slot] {
                        stage_ns[slot] = dt;
                    }
                };
                lap(0, &mut || {
                    std::hint::black_box(old_kernel::old_gemm(&x, &w));
                });
                lap(1, &mut || {
                    let out = wide.gemm(&x, &w).unwrap();
                    wide.recycle(out);
                });
                if fm_available {
                    lap(2, &mut || {
                        let out = wide_fm.gemm(&x, &w).unwrap();
                        wide_fm.recycle(out);
                    });
                }
                lap(3, &mut || {
                    let (out, _) = base_spmm.execute_prepared(&prep, a, &xw).unwrap();
                    base_spmm.recycle(out);
                });
                lap(4, &mut || {
                    let (out, _) = wide.execute_prepared(&prep, a, &xw).unwrap();
                    wide.recycle(out);
                });
                if fm_available {
                    lap(5, &mut || {
                        let (out, _) = wide_fm.execute_prepared(&prep, a, &xw).unwrap();
                        wide_fm.recycle(out);
                    });
                }
            }
            let [base_gemm_ns, wide_gemm_ns, mut fm_gemm_ns, base_spmm_ns, wide_spmm_ns, mut fm_spmm_ns] =
                stage_ns;
            if !fm_available {
                fm_gemm_ns = wide_gemm_ns;
                fm_spmm_ns = wide_spmm_ns;
            }
            wide.recycle(xw);

            let base_ns = base_gemm_ns + base_spmm_ns;
            let exact_ns = wide_gemm_ns + wide_spmm_ns;
            let fm_ns = fm_gemm_ns + fm_spmm_ns;
            let exact_speedup = base_ns / exact_ns;
            let fm_speedup = base_ns / fm_ns;
            let spmm_per_col = wide_spmm_ns / (nnzf * dim as f64);
            if *gname == "powerlaw" {
                if dim == 16 {
                    pl_spmm_16 = spmm_per_col;
                }
                if dim == 512 {
                    pl_spmm_512 = spmm_per_col;
                }
            }
            if WIDE_DIMS.contains(&dim) {
                exact_speedups.push(exact_speedup);
                fm_speedups.push(fm_speedup);
            }
            println!(
                "{gname:<9} {dim:>4} {base_ns:>13.0} {exact_ns:>13.0} {fm_ns:>13.0} \
                 {exact_speedup:>7.2}x {fm_speedup:>7.2}x {striped:>8} {spmm_per_col:>12.4}"
            );
            records.push(format!(
                "    {{\"graph\": \"{gname}\", \"dim\": {dim}, \"workers\": {WORKERS}, \
                 \"baseline_gemm_ns\": {base_gemm_ns:.0}, \"baseline_spmm_ns\": {base_spmm_ns:.0}, \
                 \"wide_gemm_ns\": {wide_gemm_ns:.0}, \"wide_spmm_ns\": {wide_spmm_ns:.0}, \
                 \"fastmath_gemm_ns\": {fm_gemm_ns:.0}, \"fastmath_spmm_ns\": {fm_spmm_ns:.0}, \
                 \"speedup_exact\": {exact_speedup:.3}, \"speedup_fastmath\": {fm_speedup:.3}, \
                 \"striped\": {striped}, \"spmm_ns_per_nnz_col\": {spmm_per_col:.4}}}"
            ));
        }
    }
    let headline = geomean(&fm_speedups);
    let headline_exact = geomean(&exact_speedups);
    let flatness = pl_spmm_512 / pl_spmm_16.max(f64::MIN_POSITIVE);
    println!(
        "\nwide-dim layer speedup @ {WORKERS} workers (geomean, both graphs, dims {{128, 256, \
         512}}):"
    );
    println!("  fastmath (headline): {headline:.2}x    exact (default path): {headline_exact:.2}x");
    println!(
        "SpMM-stage flatness, powerlaw: dim-512 ns/(nnz.col) is {flatness:.2}x dim-16's \
         (target: within 2x)"
    );
    if !fm_available {
        println!("note: fastmath unavailable on this CPU; fm numbers fell back to exact");
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"baseline\": \"pre-revision data path: the previous unblocked register-tiled \
             GEMM kernel (reproduced in-bench, guarded bitwise-equal to the engine) + static \
             pooled SpMM, same graphs, plan, and worker count\",\n",
            "  \"speedup\": {:.3},\n",
            "  \"speedup_mode\": \"fastmath opt-in (documented carve-out; exact default below)\",\n",
            "  \"speedup_exact\": {:.3},\n",
            "  \"smoke\": {},\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"acceptance\": {{\n",
            "    \"widedim_geomean_speedup_at_4_workers\": {:.3},\n",
            "    \"widedim_geomean_speedup_exact\": {:.3},\n",
            "    \"dim512_vs_dim16_spmm_ns_per_nnz_col_ratio\": {:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        headline,
        headline_exact,
        smoke,
        records.join(",\n"),
        headline,
        headline_exact,
        flatness
    );
    std::fs::write("BENCH_widedim.json", &json).expect("write BENCH_widedim.json");
    println!("wrote BENCH_widedim.json");
}
