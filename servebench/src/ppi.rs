//! `ppi-gcn`: whole-model GCN inference on PPI (Table II), one request
//! outstanding. A 2-layer GCN 50→128→121 widens in its first layer, so
//! the layer-0 zero-skip GEMM, the engine GEMM and SpMM at widths 128
//! and 121 do nearly all the work; the serving layer does almost none.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpspmm_core::{default_workers, Epilogue, ExecEngine, MergePathSpmm};
use mpspmm_gcn::ops::{gemm, random_features, xavier_init, Activation};
use mpspmm_gcn::{GcnLayer, GcnModel};
use mpspmm_graphs::{find_dataset, gcn_normalize};
use mpspmm_serve::{Request, ServeConfig, ServedGraph, Server, Ticket, Workload};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::{self, median, same_output, Metric, Phase, PhaseReport, Tally};
use crate::trace::{traced, traced_work, Tracer};
use crate::{Args, Report};

const GRAPH: &str = "ppi";
const IN: usize = 50;
const HIDDEN: usize = 128;
const CLASSES: usize = 121;
/// Share of non-zero raw input features.
const DENSITY: f64 = 0.5;
/// Distinct feature matrices requests draw from; each has a reference.
const FEATURE_POOL: usize = 4;
const SETUPS: usize = 25;
const WARMUP: usize = 2;
/// Round trips per accounting window (see `harness::Phase`).
const WINDOW: usize = 1;
/// Stated breakdown tolerance: the replayed forward must account for
/// this share of the served latency (serving adds a dispatch hop only).
const REPLAY_SHARE: (f64, f64) = (0.8, 1.1);

struct Inputs {
    raw: CsrMatrix<f32>,
    w0: DenseMatrix<f32>,
    w1: DenseMatrix<f32>,
    features: Vec<Arc<DenseMatrix<f32>>>,
    refs: Vec<DenseMatrix<f32>>,
}

fn model(w0: &DenseMatrix<f32>, w1: &DenseMatrix<f32>) -> GcnModel {
    GcnModel::new(vec![
        GcnLayer::new(w0.clone(), Activation::Relu),
        GcnLayer::new(w1.clone(), Activation::Identity),
    ])
}

/// Synthesizes the inputs from the seed and computes every reference
/// through the plan the registry will build, one request per call, on an
/// engine with the served worker count. The oracle suites pin batched
/// against unbatched runs bit for bit only at equal worker counts: a
/// 2-worker fold of shared rows is deterministic but may round
/// differently from a 1-worker fold.
fn inputs(seed: u64) -> Inputs {
    let spec = find_dataset("PPI").expect("PPI is in Table II");
    let raw = spec.synthesize(seed);
    let w0 = xavier_init(IN, HIDDEN, seed ^ 0xA0);
    let w1 = xavier_init(HIDDEN, CLASSES, seed ^ 0xA1);
    let features: Vec<Arc<DenseMatrix<f32>>> = (0..FEATURE_POOL)
        .map(|k| {
            Arc::new(random_features(
                raw.rows(),
                IN,
                DENSITY,
                seed ^ (0xF0 + k as u64),
            ))
        })
        .collect();
    let a_hat = gcn_normalize(&raw);
    let reference = model(&w0, &w1);
    let engine = ExecEngine::new(default_workers());
    let prep = engine.plan_cached(&MergePathSpmm::new(), &a_hat, reference.max_features(), 1);
    let refs = features
        .iter()
        .map(|x| {
            reference
                .forward_batched_prepared(&a_hat, &prep, &[x.as_ref()], &engine)
                .expect("reference forward")
                .pop()
                .expect("one output per block")
        })
        .collect();
    Inputs {
        raw,
        w0,
        w1,
        features,
        refs,
    }
}

/// Raw adjacency and weights to a server ready to answer.
fn setup(inp: &Inputs, tracer: Option<&mut Tracer>) -> Server {
    let a_hat = traced(tracer, "graphs.normalize", || gcn_normalize(&inp.raw));
    let engine = Arc::new(ExecEngine::new(default_workers()));
    let srv = Server::start(
        engine,
        Box::new(MergePathSpmm::new()),
        ServeConfig::default(),
    );
    srv.register(GRAPH, a_hat, Some(model(&inp.w0, &inp.w1)));
    srv
}

fn request(inp: &Inputs, k: usize) -> Request {
    Request {
        graph: GRAPH.into(),
        tenant: "t0".into(),
        features: Arc::clone(&inp.features[k]),
        workload: Workload::Gcn,
        deadline: None,
    }
}

/// State of the traced served phase: the span recorder, the registered
/// graph whose plan each request is replayed through right after its
/// reply, the engine of the replays (one of their own, as deployed, so
/// that they leave the served engine's caches and counters alone), and
/// the replay results.
struct Traced<'a> {
    t: &'a mut Tracer,
    graph: Arc<ServedGraph>,
    engine: ExecEngine,
    /// `(served latency, replay duration)` per request, in ms.
    pairs: Vec<(f64, f64)>,
    ok: bool,
}

impl Traced<'_> {
    /// Replays request `k` through the public calls the batcher makes for
    /// a one-request batch (`GcnModel::forward_batched_prepared`), each
    /// inside a span, checks the output, and returns the replay's ms.
    fn replay(&mut self, inp: &Inputs, k: usize) -> f64 {
        let Self {
            t, graph, engine, ..
        } = self;
        let (a, prep) = (graph.adjacency().as_ref(), graph.prep().as_ref());
        let layers = graph.model().expect("model registered").layers();
        let epilogue = |i: usize| layers[i].epilogue().expect("relu and identity fuse");
        let spmm = |t: &mut Tracer, b: &DenseMatrix<f32>, epi: &Epilogue| {
            let flops = 2.0 * a.nnz() as f64 * b.cols() as f64;
            t.span_work("core.spmm", flops, |_| {
                engine.execute_prepared_batch_fused(prep, a, &[b], epi)
            })
            .expect("replay spmm")
            .pop()
            .expect("one output per block")
        };
        let t0 = Instant::now();
        let out = t.span("gcn.forward", |t| {
            let hw = t
                .span("gcn.gemm0", |_| gemm(&inp.features[k], &inp.w0))
                .expect("layer-0 gemm");
            let h = spmm(t, &hw, epilogue(0));
            engine.recycle(hw);
            let hw = t
                .span("core.gemm", |_| engine.gemm(&h, &inp.w1))
                .expect("engine gemm");
            engine.recycle(h);
            let out = spmm(t, &hw, epilogue(1));
            engine.recycle(hw);
            out
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.ok &= same_output(&out, &inp.refs[k]);
        ms
    }
}

/// Closed loop, one request outstanding, for `seconds`. When traced,
/// each request is replayed right after its reply, outside the phase's
/// figures.
fn serve(
    srv: &Server,
    inp: &Inputs,
    tally: &mut Tally,
    rng: &mut SmallRng,
    seconds: f64,
    mut tracing: Option<&mut Traced>,
) -> PhaseReport {
    let mut phase = Phase::start(tally, WINDOW);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0u64;
    while Instant::now() < end {
        phase.next_round(tally);
        let (k, req) = phase.generator(|| {
            let k = rng.gen_range(0..FEATURE_POOL);
            (k, request(inp, k))
        });
        let tracer = tracing.as_deref_mut().map(|x| {
            x.t.set_trace(i);
            &mut *x.t
        });
        let t0 = Instant::now();
        let reply =
            traced_work(tracer, "serve.submit", 1.0, || srv.submit(req)).and_then(Ticket::wait);
        let served = t0.elapsed();
        phase.round_trip(served, 1);
        phase.generator(|| tally.record(Some(reply), &inp.refs[k]));
        if let Some(x) = tracing.as_deref_mut() {
            let replay_ms = phase.aside(|| x.replay(inp, k));
            x.pairs.push((served.as_secs_f64() * 1e3, replay_ms));
        }
        i += 1;
    }
    phase.finish(tally)
}

pub fn run(args: &Args) -> Report {
    let inp = inputs(args.seed);
    println!(
        "# ppi-gcn: {} nodes, {} nnz, GCN {IN}->{HIDDEN}->{CLASSES}, {} feature matrices",
        inp.raw.rows(),
        inp.raw.nnz(),
        FEATURE_POOL
    );
    let rss_at_reset = crate::sys::reset_peak_rss();
    let mut tracer = args.trace.then(Tracer::new);
    let (setup_s, srv) = harness::time_setups(
        SETUPS,
        tracer.as_mut(),
        |t| setup(&inp, t),
        Server::shutdown,
    );
    let mut tally = Tally::default();
    let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x5EED);
    for _ in 0..WARMUP {
        let k = rng.gen_range(0..FEATURE_POOL);
        let reply = srv.submit(request(&inp, k)).and_then(Ticket::wait);
        tally.record(Some(reply), &inp.refs[k]);
    }
    let engine_before = srv.stats().engine;
    let untraced = serve(&srv, &inp, &mut tally, &mut rng, args.seconds, None);
    let peak_rss_mb = harness::peak_rss_mb(rss_at_reset);
    let engine_after = srv.stats().engine;
    harness::print_phase("served", &untraced);
    let Some(mut t) = tracer else {
        srv.shutdown();
        return Report::untraced(tally, setup_s, &untraced, peak_rss_mb);
    };
    let mut traced = Traced {
        t: &mut t,
        graph: srv.registry().get(GRAPH).expect("graph registered"),
        engine: ExecEngine::new(default_workers()),
        pairs: Vec::new(),
        ok: true,
    };
    let traced_phase = serve(
        &srv,
        &inp,
        &mut tally,
        &mut rng,
        args.seconds,
        Some(&mut traced),
    );
    harness::print_phase("served, traced", &traced_phase);
    // Planning as registration does it, on a cold epoch each time.
    let kernel = MergePathSpmm::new();
    for pass in 0..3 {
        let a = traced.graph.adjacency();
        let engine = &traced.engine;
        traced.t.span("core.plan", |_| {
            engine.plan_cached(&kernel, a, HIDDEN, u64::MAX - pass)
        });
    }
    let Traced {
        graph: g,
        pairs,
        ok: replay_ok,
        ..
    } = traced;
    let stats = srv.stats();
    let mut metrics =
        harness::traced_serve_metrics(&untraced, &traced_phase, &t, &pairs, REPLAY_SHARE);
    metrics.extend(harness::wall_clock(&untraced));
    metrics.extend(harness::engine_metrics(&engine_before, &engine_after));
    metrics.extend(harness::spmm_metrics(&t));
    metrics.extend([
        Metric {
            name: "serve.batch_requests_mean",
            value: stats.mean_batch_requests,
            unit: "count",
        },
        harness::span_median(&t, "gcn.forward", "gcn.forward_ms_p50", "ms"),
        Metric {
            name: "gcn.self_ms_p50",
            value: median(&t.self_ms("gcn.forward")),
            unit: "ms",
        },
        harness::span_median(&t, "gcn.gemm0", "gcn.gemm0_ms_p50", "ms"),
        harness::span_median(&t, "core.gemm", "core.gemm_ms_p50", "ms"),
        Metric {
            name: "core.shared_row_share",
            value: g.prep().shared_row_count() as f64 / g.nodes() as f64,
            unit: "ratio",
        },
        harness::span_median(&t, "core.plan", "core.plan_ms", "ms"),
        harness::span_median(&t, "graphs.normalize", "graphs.normalize_ms", "ms"),
    ]);
    t.save(&args.workload, args.seed);
    srv.shutdown();
    Report {
        tally,
        metrics,
        absent: vec![
            (
                "serve.pack_efficiency",
                "graph packing is off (ServeConfig::default)",
            ),
            ("serve.swap_ms_p50", "ppi-gcn makes no hot swaps"),
            (
                "core.batch_plan_us_p50",
                "no packed windows, so no batch plans",
            ),
            (
                "core.batch_plan_hit_rate",
                "no packed windows, so no batch plans",
            ),
            ("sparse.pack_us_p50", "no block-diagonal packing"),
            ("sparse.stack_us_p50", "no block-diagonal packing"),
            ("sparse.scatter_us_p50", "no block-diagonal packing"),
        ],
        replay_ok,
    }
}
