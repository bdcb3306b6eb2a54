//! Fused-pipeline benchmark — the PR-4 unfused GCN forward pass vs the
//! fused engine pipeline (parallel blocked GEMM + epilogue-in-store SpMM).
//!
//! For a uniform (Type II) and a power-law (Type I) synthetic graph, a
//! three-layer biased GCN is run end-to-end at dense dimensions
//! {16, 32, 64} and worker counts {1, 4} two ways:
//!
//! * **unfused** — the exact pre-fusion pipeline, replicated inline:
//!   naive zero-skip GEMM for every layer's combination, plain engine
//!   SpMM for the aggregation, then bias and activation as separate
//!   serial passes over the output;
//! * **fused** — [`GcnModel::forward`]: every layer's combination,
//!   layer 0 included, on [`ExecEngine::gemm`] (register-tiled bands, no
//!   per-element branch), bias + activation fused into the SpMM store
//!   stage.
//!
//! Both sides share one engine per configuration, so the buffer arena is
//! equally warm. Every timed pair is also checked for
//! numerical agreement before its record is trusted.
//!
//! Additionally measures the *fusion overhead* on the SpMM alone — a
//! single-worker `execute_prepared` vs `execute_prepared_fused` with
//! [`Epilogue::None`] on the same prepared plan (the acceptance bound is
//! ≤ 2% regression) — and reports the GEMM/SpMM wall-time split of one
//! fused forward pass from [`EngineStats::gemm_ns`](mpspmm_core::EngineStats::gemm_ns).
//!
//! Writes `BENCH_fused.json`. Pass `--smoke` for a seconds-fast run on
//! scaled-down graphs.

use mpspmm_bench::{geomean, time_ns, SEED};
use mpspmm_core::{Epilogue, ExecEngine, PreparedPlan};
use mpspmm_gcn::ops::{random_features, xavier_init, Activation};
use mpspmm_gcn::{GcnLayer, GcnModel};
use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};

const DIMS: [usize; 3] = [16, 32, 64];
const WORKER_COUNTS: [usize; 2] = [1, 4];

/// One layer's raw parameters, kept outside [`GcnLayer`] so the unfused
/// baseline can replay the pre-fusion pipeline from the same weights.
struct LayerSpec {
    weight: DenseMatrix<f32>,
    bias: Vec<f32>,
    activation: Activation,
}

fn model_layers(dim: usize) -> Vec<LayerSpec> {
    let bias = |salt: usize| -> Vec<f32> {
        (0..dim)
            .map(|j| ((j * 7 + salt * 3) % 11) as f32 * 0.02 - 0.1)
            .collect()
    };
    vec![
        LayerSpec {
            weight: xavier_init(dim, dim, 11),
            bias: bias(1),
            activation: Activation::Relu,
        },
        LayerSpec {
            weight: xavier_init(dim, dim, 12),
            bias: bias(2),
            activation: Activation::Relu,
        },
        LayerSpec {
            weight: xavier_init(dim, dim, 13),
            bias: bias(3),
            activation: Activation::Identity,
        },
    ]
}

fn build_model(layers: &[LayerSpec]) -> GcnModel {
    GcnModel::new(
        layers
            .iter()
            .map(|l| GcnLayer::with_bias(l.weight.clone(), l.bias.clone(), l.activation))
            .collect(),
    )
}

/// The pre-fusion combination kernel, kept inline as the baseline: naive
/// `ikj` GEMM with a per-element `a == 0.0` skip, single-threaded. Each
/// output element sums in ascending `k`, like [`ExecEngine::gemm`], so
/// the two agree bit for bit on finite weights.
fn old_gemm(a: &DenseMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
    let mut out = DenseMatrix::<f32>::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let orow = out.row_mut(i);
        for (p, &av) in a.row(i).iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (dst, &bv) in orow.iter_mut().zip(b.row(p)) {
                *dst += av * bv;
            }
        }
    }
    out
}

/// The pre-fusion (PR-4) pipeline, replicated exactly: naive zero-skip
/// GEMM, plain engine SpMM, then bias and activation as separate serial
/// passes. Scratch still recycles through the engine's arena, as it did
/// before fusion.
fn unfused_forward(
    a: &CsrMatrix<f32>,
    x: &DenseMatrix<f32>,
    layers: &[LayerSpec],
    engine: &ExecEngine,
) -> DenseMatrix<f32> {
    let mut h: Option<DenseMatrix<f32>> = None;
    for layer in layers {
        let input = h.as_ref().unwrap_or(x);
        let hw = old_gemm(input, &layer.weight);
        let (mut out, _) = engine.spmm(a, &hw, &Epilogue::None).expect("shapes agree");
        engine.recycle(hw);
        for r in 0..out.rows() {
            for (v, &b) in out.row_mut(r).iter_mut().zip(&layer.bias) {
                *v += b;
            }
        }
        match layer.activation {
            Activation::Identity => {}
            Activation::Relu => {
                for v in out.as_mut_slice() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            Activation::Sigmoid => {
                for v in out.as_mut_slice() {
                    *v = 1.0 / (1.0 + (-*v).exp());
                }
            }
        }
        if let Some(prev) = h.take() {
            engine.recycle(prev);
        }
        h = Some(out);
    }
    h.expect("at least one layer")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Average degree ~3 — the citation-graph regime (Cora is 3.9,
    // Citeseer 2.8) where GCN inference is actually run, and where the
    // combination GEMM carries most of the layer's arithmetic.
    let (nodes, nnz, max_deg, warm, iters) = if smoke {
        (1_600usize, 4_800usize, 80usize, 1usize, 3usize)
    } else {
        (20_000, 60_000, 600, 2, 7)
    };
    println!("==================================================================");
    println!("BENCH fused: unfused PR-4 GCN pipeline vs fused engine pipeline");
    println!(
        "3-layer biased GCN, dims {{16, 32, 64}}, workers {{1, 4}}, seed {SEED}{}",
        if smoke { " (--smoke)" } else { "" }
    );
    println!("==================================================================");

    let graphs = [
        (
            "uniform",
            gcn_normalize(
                &DatasetSpec::custom("fused-uniform", GraphClass::Structured, nodes, nnz, 16)
                    .synthesize(SEED),
            ),
        ),
        (
            "powerlaw",
            gcn_normalize(
                &DatasetSpec::custom("fused-powerlaw", GraphClass::PowerLaw, nodes, nnz, max_deg)
                    .synthesize(SEED),
            ),
        ),
    ];

    println!(
        "\n{:<10} {:>4} {:>8} {:>14} {:>14} {:>9}",
        "Graph", "dim", "workers", "unfused ns", "fused ns", "speedup"
    );
    let mut records = Vec::new();
    let mut powerlaw_4w = Vec::new();
    for (gname, a) in &graphs {
        for dim in DIMS {
            let layers = model_layers(dim);
            let model = build_model(&layers);
            // Raw input features in the bag-of-words density regime: the
            // unfused side's layer-0 GEMM skips their zeros, the fused
            // side runs them through the engine GEMM like every layer.
            let x = random_features(a.rows(), dim, 0.05, 33);
            for workers in WORKER_COUNTS {
                let engine = ExecEngine::new(workers);
                // Correctness guard: a record is only trusted if the two
                // pipelines agree numerically on this configuration.
                let want = unfused_forward(a, &x, &layers, &engine);
                let got = model.forward(a, &x, &engine).unwrap();
                assert!(
                    got.approx_eq(&want, 1e-4).unwrap(),
                    "fused diverged from unfused ({gname}, dim {dim}, workers {workers})"
                );
                engine.recycle(want);
                engine.recycle(got);
                let unfused_ns = time_ns(warm, iters, || {
                    let out = unfused_forward(a, &x, &layers, &engine);
                    engine.recycle(out);
                });
                let fused_ns = time_ns(warm, iters, || {
                    let out = model.forward(a, &x, &engine).unwrap();
                    engine.recycle(out);
                });
                let speedup = unfused_ns / fused_ns;
                println!(
                    "{gname:<10} {dim:>4} {workers:>8} {unfused_ns:>14.0} {fused_ns:>14.0} {speedup:>8.2}x"
                );
                if *gname == "powerlaw" && workers == 4 {
                    powerlaw_4w.push(speedup);
                }
                records.push(format!(
                    "    {{\"graph\": \"{gname}\", \"dim\": {dim}, \"workers\": {workers}, \
                     \"unfused_ns\": {unfused_ns:.0}, \"fused_ns\": {fused_ns:.0}, \
                     \"speedup\": {speedup:.3}}}"
                ));
            }
        }
    }
    let headline = geomean(&powerlaw_4w);
    println!(
        "\nend-to-end fused speedup, power-law @ 4 workers (geomean over dims): {headline:.2}x"
    );

    // --- GEMM-only: the naive zero-skip loop vs the engine's blocked
    // kernel on a dense hidden-layer activation (the matrix shape the
    // fused pipeline actually feeds it), single worker so the comparison
    // is pure kernel quality.
    let mut gemm_only = Vec::new();
    for dim in DIMS {
        let engine = ExecEngine::new(1);
        let h = {
            // Post-ReLU-like input: dense with a fat zero class, the most
            // favourable case for the naive loop's skip.
            let mut m = random_features(nodes, dim, 0.55, 77);
            for v in m.as_mut_slice() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
            m
        };
        let w = xavier_init(dim, dim, 78);
        let naive_ns = time_ns(warm, iters, || {
            let _ = old_gemm(&h, &w);
        });
        let engine_ns = time_ns(warm, iters, || {
            let out = engine.gemm(&h, &w).unwrap();
            engine.recycle(out);
        });
        println!(
            "gemm-only (dense {nodes}x{dim} . {dim}x{dim}, 1 worker): naive {naive_ns:.0} ns, \
             engine {engine_ns:.0} ns ({:.2}x)",
            naive_ns / engine_ns
        );
        gemm_only.push((dim, naive_ns, engine_ns));
    }

    // --- SpMM-only fusion overhead: the epilogue plumbing must be free
    // when there is nothing to fuse. Single worker, same prepared plan.
    let a_pl = &graphs[1].1;
    let dim = 32usize;
    let b = random_features(a_pl.cols(), dim, 0.9, 44);
    let (spmm_warm, spmm_iters) = (warm + 1, iters * 2 + 1);
    let mut spmm_regression_pct = 0.0;
    for workers in WORKER_COUNTS {
        let engine = ExecEngine::new(workers);
        let prep = PreparedPlan::new(a_pl);
        let plain_ns = time_ns(spmm_warm, spmm_iters, || {
            let (out, _) = engine.execute_prepared(&prep, a_pl, &b).unwrap();
            engine.recycle(out);
        });
        let fused_noop_ns = time_ns(spmm_warm, spmm_iters, || {
            let (out, _) = engine
                .execute_prepared_fused(&prep, a_pl, &b, &Epilogue::None)
                .unwrap();
            engine.recycle(out);
        });
        let pct = (fused_noop_ns - plain_ns) / plain_ns * 100.0;
        if workers == 1 {
            spmm_regression_pct = pct;
        }
        println!(
            "spmm-only fusion overhead ({workers} worker(s), dim {dim}): plain {plain_ns:.0} ns \
             vs fused-noop {fused_noop_ns:.0} ns ({pct:+.2}%)"
        );
    }

    // --- Where the time goes now: GEMM vs SpMM(+epilogue) wall split of
    // one fused forward pass, from the engine's own counters.
    let layers = model_layers(64);
    let model = build_model(&layers);
    let x = random_features(a_pl.rows(), 64, 0.4, 33);
    let split_engine = ExecEngine::new(4);
    let out = model.forward(a_pl, &x, &split_engine).unwrap();
    split_engine.recycle(out);
    let before = split_engine.stats();
    let t0 = std::time::Instant::now();
    let out = model.forward(a_pl, &x, &split_engine).unwrap();
    let total_ns = t0.elapsed().as_nanos() as f64;
    split_engine.recycle(out);
    let after = split_engine.stats();
    let gemm_ns = (after.gemm_ns - before.gemm_ns) as f64;
    let spmm_ns = (total_ns - gemm_ns).max(0.0);
    let fused_runs = after.fused_epilogues - before.fused_epilogues;
    println!(
        "time split, fused 3-layer forward (powerlaw, dim 64, 4 workers): \
         GEMM {:.0}% / SpMM+epilogue {:.0}% ({} aggregations ran with a fused epilogue)",
        gemm_ns / total_ns * 100.0,
        spmm_ns / total_ns * 100.0,
        fused_runs
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"baseline\": \"unfused PR-4 pipeline: naive zero-skip GEMM + plain cached SpMM ",
            "+ serial bias/activation passes, same engine and workers\",\n",
            "  \"speedup\": {:.3},\n",
            "  \"smoke\": {},\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"acceptance\": {{\n",
            "    \"powerlaw_speedup_at_4_workers\": {:.3},\n",
            "    \"spmm_only_single_worker_regression_pct\": {:.3}\n",
            "  }},\n",
            "  \"time_split\": {{\"gemm_ns\": {:.0}, \"spmm_plus_epilogue_ns\": {:.0}, ",
            "\"gemm_share\": {:.3}, \"fused_epilogues\": {}}}\n",
            "}}\n"
        ),
        headline,
        smoke,
        records.join(",\n"),
        headline,
        spmm_regression_pct,
        gemm_ns,
        spmm_ns,
        gemm_ns / total_ns,
        fused_runs
    );
    std::fs::write("BENCH_fused.json", &json).expect("write BENCH_fused.json");
    println!("wrote BENCH_fused.json");
}
