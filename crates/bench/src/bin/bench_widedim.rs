//! Wide-feature-dim benchmark: the pre-existing data path vs this
//! revision's wide-dim path, measured on a full GCN layer pipeline
//! (`Y = A · (X · W)`) at dense dimensions 16–512.
//!
//! At GNN hidden widths the dense GEMM `X · W` dominates a layer —
//! `O(rows · dim²)` flops against the SpMM's `O(nnz · dim)` — so the
//! wide-dim work in this revision concentrates there: a register-tiled
//! microkernel whose per-`k` slices are hoisted out of the hot loop, and
//! a `k`-blocked sweep that keeps the `B` slab quarter-L2-resident. The
//! SpMM runs the engine's row spans at every dim.
//!
//! Two configurations are timed per (graph, dim), stage by stage, at
//! the resolved worker count (`default_workers()`, which honours
//! `MPSPMM_WORKERS`), so no parallel number comes from more workers
//! than the machine has:
//!
//! * **baseline** — the previous unblocked register-tiled GEMM kernel
//!   (reproduced verbatim below from the parent revision, with the same
//!   `#[target_feature]` dispatch, and guarded bitwise-equal against the
//!   engine) plus the engine's exact SpMM.
//! * **wide** — `ExecEngine::gemm` (`k`-blocked, reworked microkernel)
//!   plus the same exact SpMM. The GEMM is held **bit-identical** to the
//!   baseline GEMM, and the SpMM to the ascending row sum (the serial
//!   plan's sequential replay), at every dim in the matrix. Both
//!   configurations share one SpMM stage timing: their SpMM is the same
//!   code.
//!
//! The headline `speedup` is the geomean, over both graphs at dims
//! {128, 256, 512}, of baseline layer time over the wide-path layer
//! time. Flatness is tracked on the SpMM stage as ns/(nnz·col) at dim
//! 512 vs dim 16.
//!
//! Writes `BENCH_widedim.json`. Pass `--smoke` for a seconds-fast run
//! on scaled-down graphs.

use mpspmm_bench::{geomean, SEED};
use mpspmm_core::executor::execute_sequential;
use mpspmm_core::{
    default_workers, panel_cols, CacheModel, ExecEngine, PreparedPlan, SerialSpmm, SpmmKernel,
    GEMM_BAND_ROWS,
};
use mpspmm_gcn::ops::random_features;
use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};
use mpspmm_sparse::DenseMatrix;

const DIMS: [usize; 6] = [16, 32, 64, 128, 256, 512];
/// The acceptance dims: the geomean layer speedup is taken over these.
const WIDE_DIMS: [usize; 3] = [128, 256, 512];

/// The parent revision's GEMM kernel, reproduced for the baseline
/// measurement: register tile of 4 rows, unblocked full-`k` sweep with
/// zero-seeded accumulators, 16/8/4-lane cascade, per-`k` row addressing
/// through `DenseMatrix::row` inside the hot loop. Summation order per
/// output element is ascending `k` — identical to the engine's blocked
/// sweep — so `old_gemm` is *bitwise equal* to `ExecEngine::gemm`, which
/// the bench asserts before timing anything.
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
    let workers = default_workers();
    println!("==================================================================");
    println!("BENCH widedim: pre-revision data path vs wide-dim layer pipeline");
    println!(
        "GCN layer (GEMM + SpMM), dims {{16..512}}, {workers} workers, seed {SEED}{}",
        if smoke { " (--smoke)" } else { "" }
    );
    println!("==================================================================");

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
        "\n{:<9} {:>4} {:>13} {:>13} {:>8} {:>12}",
        "Graph", "dim", "base ns", "wide ns", "speedup", "spmm ns/nc"
    );
    let mut records = Vec::new();
    let mut wide_speedups = Vec::new();
    // SpMM-stage per-column cost at dim 16 and 512 on the power-law
    // graph, for the flatness acceptance check (wide path, exact).
    let (mut pl_spmm_16, mut pl_spmm_512) = (0.0f64, 0.0f64);
    for (gname, a) in &graphs {
        let nnzf = a.nnz() as f64;
        let plan = SerialSpmm.plan(a, DIMS[DIMS.len() - 1]);
        let prep = PreparedPlan::new(a);
        for dim in DIMS {
            let x = random_features(a.rows(), dim, 0.9, 33 + dim as u64);
            let w = random_features(dim, dim, 1.0, 99 + dim as u64);

            // The baseline's GEMM is the in-bench old kernel; its SpMM
            // is the engine's, timed once for both.
            let wide = ExecEngine::new(workers);

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
            // 2. The exact SpMM equals the ascending row sum on the same
            //    GEMM output.
            let (want, _) = execute_sequential(&plan, a, &xw).unwrap();
            let (got, _) = wide.execute_prepared(&prep, a, &xw).unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "{gname} dim {dim}");
            wide.recycle(got);
            wide.recycle(want);

            // --- Stage timings, interleaved. ---
            // The stages are measured round-robin within each round
            // (baseline GEMM, wide GEMM, SpMM back to back) and the
            // per-stage minimum is kept across rounds. Sequential
            // per-stage blocks would let slow thermal drift on a
            // sustained AVX-512 workload bias whichever stage runs last;
            // interleaving gives every stage the same clock conditions in
            // every round.
            let mut stage_ns = [f64::INFINITY; 3];
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
                lap(2, &mut || {
                    let (out, _) = wide.execute_prepared(&prep, a, &xw).unwrap();
                    wide.recycle(out);
                });
            }
            let [base_gemm_ns, wide_gemm_ns, spmm_ns] = stage_ns;
            wide.recycle(xw);

            let base_ns = base_gemm_ns + spmm_ns;
            let wide_ns = wide_gemm_ns + spmm_ns;
            let speedup = base_ns / wide_ns;
            let spmm_per_col = spmm_ns / (nnzf * dim as f64);
            if *gname == "powerlaw" {
                if dim == 16 {
                    pl_spmm_16 = spmm_per_col;
                }
                if dim == 512 {
                    pl_spmm_512 = spmm_per_col;
                }
            }
            if WIDE_DIMS.contains(&dim) {
                wide_speedups.push(speedup);
            }
            println!(
                "{gname:<9} {dim:>4} {base_ns:>13.0} {wide_ns:>13.0} {speedup:>7.2}x \
                 {spmm_per_col:>12.4}"
            );
            records.push(format!(
                "    {{\"graph\": \"{gname}\", \"dim\": {dim}, \"workers\": {workers}, \
                 \"baseline_gemm_ns\": {base_gemm_ns:.0}, \"wide_gemm_ns\": {wide_gemm_ns:.0}, \
                 \"spmm_ns\": {spmm_ns:.0}, \"speedup\": {speedup:.3}, \
                 \"spmm_ns_per_nnz_col\": {spmm_per_col:.4}}}"
            ));
        }
    }
    let headline = geomean(&wide_speedups);
    let flatness = pl_spmm_512 / pl_spmm_16.max(f64::MIN_POSITIVE);
    println!(
        "\nwide-dim layer speedup @ {workers} workers (geomean, both graphs, dims {{128, 256, \
         512}}):"
    );
    println!("  {headline:.2}x");
    println!(
        "SpMM-stage flatness, powerlaw: dim-512 ns/(nnz.col) is {flatness:.2}x dim-16's \
         (target: within 2x)"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"baseline\": \"pre-revision data path: the previous unblocked register-tiled \
             GEMM kernel (reproduced in-bench, guarded bitwise-equal to the engine) + the \
             engine's exact SpMM, same graphs, plan, and worker count\",\n",
            "  \"speedup\": {:.3},\n",
            "  \"smoke\": {},\n",
            "  \"workers\": {},\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"acceptance\": {{\n",
            "    \"widedim_geomean_speedup\": {:.3},\n",
            "    \"dim512_vs_dim16_spmm_ns_per_nnz_col_ratio\": {:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        headline,
        smoke,
        workers,
        records.join(",\n"),
        headline,
        flatness
    );
    std::fs::write("BENCH_widedim.json", &json).expect("write BENCH_widedim.json");
    println!("wrote BENCH_widedim.json");
}
