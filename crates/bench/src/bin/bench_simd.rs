//! SIMD data-path benchmark — vectorized vs register-tiled engine paths.
//!
//! For the same Table II spread as `bench_engine`, times the PR-1
//! register-tiled path ([`DataPath::Tiled`]) against the vectorized,
//! cache-blocked path ([`DataPath::Vector`]) on one prepared plan,
//! single-core, at dimensions 16 and 32. Both sides run through
//! [`ExecEngine::execute_prepared`], so the comparison isolates the inner
//! data path: wide-lane streaming kernels, panel blocking, fixed-width
//! row folds, and the degree-adaptive gather/stream dispatcher. The
//! engine runs the same row spans whatever the kernel, so there is one
//! record per (dataset, dim), not one per kernel.
//!
//! When `BENCH_engine.json` (written by `bench_engine`) is present, the
//! harness also reports the improvement of the vectorized path over that
//! stored register-tiled engine time. Writes `BENCH_simd.json` with one
//! record per (dataset, dim):
//! `{dataset, dim, ns_per_nnz, vs_tiled, vs_baseline}`.

use mpspmm_bench::{
    banner, full_size_requested, geomean, load, parse_bench_records, time_ns, BenchRecord,
};
use mpspmm_core::{DataPath, ExecEngine, MergePathSpmm, PreparedPlan, GATHER_MAX_NNZ};
use mpspmm_sparse::DenseMatrix;

/// Best-of-`iters` wall nanoseconds of `f` and of `g`, timed in
/// alternation after `warmup` runs of each: a burst of load on a shared
/// host then slows both sides instead of one, and the min discards it.
fn time_alternating(
    warmup: usize,
    iters: usize,
    mut f: impl FnMut(),
    mut g: impl FnMut(),
) -> (f64, f64) {
    let (mut best_f, mut best_g) = (f64::INFINITY, f64::INFINITY);
    for i in 0..warmup + iters.max(1) {
        let (dt_f, dt_g) = (time_ns(0, 1, &mut f), time_ns(0, 1, &mut g));
        if i >= warmup {
            best_f = best_f.min(dt_f);
            best_g = best_g.min(dt_g);
        }
    }
    (best_f, best_g)
}

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
        "BENCH simd",
        "register-tiled vs vectorized data path, single-core, dims {16, 32}",
        full,
    );

    let baseline: Vec<BenchRecord> = std::fs::read_to_string("BENCH_engine.json")
        .map(|s| parse_bench_records(&s))
        .unwrap_or_default();
    if baseline.is_empty() {
        println!(
            "note: no BENCH_engine.json found; run bench_engine first for vs-baseline numbers"
        );
    }

    let tiled = ExecEngine::with_data_path(1, DataPath::Tiled);
    let vector = ExecEngine::with_data_path(1, DataPath::Vector);

    println!(
        "\n{:<16} {:>4} {:>11} {:>11} {:>9} {:>9}",
        "Graph", "dim", "tiled/nnz", "simd/nnz", "vs tiled", "vs PR-1"
    );
    let mut records = Vec::new();
    let mut vs_tiled_all = Vec::new();
    let mut vs_baseline_all = Vec::new();
    for name in DATASETS {
        let spec = find(name);
        let (used, a) = load(spec, full);
        // One preparation, shared by both paths — the GNN setting where
        // the graph is fixed across inferences and preparation is
        // amortized away.
        let prep = PreparedPlan::new(&a);
        for dim in [16usize, 32] {
            let b = DenseMatrix::from_fn(a.cols(), dim, |r, c| {
                ((r * 31 + c * 7) % 17) as f32 * 0.125 - 1.0
            });
            let (tiled_ns, simd_ns) = time_alternating(
                2,
                7,
                || {
                    let _ = tiled.execute_prepared(&prep, &a, &b).unwrap();
                },
                || {
                    let _ = vector.execute_prepared(&prep, &a, &b).unwrap();
                },
            );
            let ns_per_nnz = simd_ns / a.nnz() as f64;
            let vs_tiled = tiled_ns / simd_ns;
            let vs_base = baseline
                .iter()
                .find(|r| r.dataset == used.name && r.dim == dim)
                .map(|r| r.ns_per_nnz / ns_per_nnz);
            println!(
                "{:<16} {:>4} {:>11.2} {:>11.2} {:>8.2}x {:>9}",
                used.name,
                dim,
                tiled_ns / a.nnz() as f64,
                ns_per_nnz,
                vs_tiled,
                vs_base.map_or_else(|| "-".into(), |v| format!("{v:.2}x")),
            );
            vs_tiled_all.push(vs_tiled);
            if let Some(v) = vs_base {
                vs_baseline_all.push(v);
            }
            records.push(format!(
                "    {{\"dataset\": \"{}\", \"dim\": {}, \"ns_per_nnz\": {:.3}, \"vs_tiled\": {:.3}, \"vs_baseline\": {}}}",
                used.name,
                dim,
                ns_per_nnz,
                vs_tiled,
                vs_base.map_or_else(|| "null".into(), |v| format!("{v:.3}")),
            ));
        }
    }
    let g_tiled = geomean(&vs_tiled_all);
    let g_base = geomean(&vs_baseline_all);
    println!("\ngeomean vs register-tiled path (same prepared plan): {g_tiled:.2}x");
    if vs_baseline_all.is_empty() {
        println!("geomean vs PR-1 BENCH_engine.json baseline: n/a (no baseline records matched)");
    } else {
        println!(
            "geomean vs PR-1 BENCH_engine.json baseline ({} records): {g_base:.2}x",
            vs_baseline_all.len()
        );
    }

    // Dispatcher demography on one power-law graph: how much of the
    // merge-path schedule lands in the gather regime, and how many rows
    // the engine gathers vs streams.
    let (used, a) = load(find("Pubmed"), full);
    let kernel = MergePathSpmm::new();
    let schedule = kernel.schedule(&a, 16);
    let gather_frac = schedule.gather_bound_fraction(a.row_ptr(), GATHER_MAX_NNZ);
    let b = DenseMatrix::from_fn(a.cols(), 16, |r, c| ((r + c) % 7) as f32);
    vector.clear_cache();
    let prep = PreparedPlan::new(&a);
    let _ = vector.execute_prepared(&prep, &a, &b).unwrap();
    let stats = vector.stats();
    println!(
        "\ndispatch on {} (dim 16): {:.0}% of threads gather-bound; \
         {} gather / {} stream rows this run",
        used.name,
        gather_frac * 100.0,
        stats.gather_segments,
        stats.stream_segments
    );

    let json = format!(
        "{{\n  \"baseline\": \"PR-1 tiled scalar data path, same engine\",\n  \"speedup\": {:.3},\n  \"results\": [\n{}\n  ],\n  \"geomean_vs_tiled\": {:.3},\n  \"geomean_vs_baseline\": {},\n  \"gather_bound_fraction_pubmed\": {:.3}\n}}\n",
        g_tiled,
        records.join(",\n"),
        g_tiled,
        if vs_baseline_all.is_empty() {
            "null".into()
        } else {
            format!("{g_base:.3}")
        },
        gather_frac
    );
    std::fs::write("BENCH_simd.json", &json).expect("write BENCH_simd.json");
    println!("wrote BENCH_simd.json");
}

fn find(name: &str) -> &'static mpspmm_graphs::DatasetSpec {
    mpspmm_graphs::find_dataset(name).expect("Table II dataset")
}
