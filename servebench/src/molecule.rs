//! `molecule-pack`: thousands of molecule-sized Type II graphs (50–500
//! nnz) served through one shared GCN with graph packing on. Each burst
//! of 256 requests names 256 distinct graphs drawn from the seed, so
//! window compositions rarely repeat. Per-request math takes
//! microseconds; admission, block-diagonal packing, batch-plan lookup,
//! scatter and reply delivery dominate.
//!
//! The run is a fixed number of bursts, not a fixed time: every new
//! composition adds a batch plan to the engine's bounded batch-plan
//! cache, which is still filling after ten seconds, so bursts that
//! followed the clock would make a faster program read as a memory
//! regression.

use std::sync::Arc;
use std::time::Instant;

use mpspmm_core::{default_workers, BatchMergeSpmm, BatchShapeClass, ExecEngine, MergePathSpmm};
use mpspmm_gcn::ops::{xavier_init, Activation};
use mpspmm_gcn::{GcnLayer, GcnModel};
use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};
use mpspmm_serve::{Request, ServeConfig, Server, Workload};
use mpspmm_sparse::{BlockDiagCsr, CsrMatrix, DenseMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::{self, median, ratio, same_output, Metric, Phase, PhaseReport, Tally};
use crate::trace::{traced, traced_work, Tracer};
use crate::{Args, Report};

const POPULATION: usize = 2048;
const IN: usize = 16;
const HIDDEN: usize = 32;
const CLASSES: usize = 2;
const BURST: usize = 256;
/// Tenants a burst is spread over, keeping each under the default
/// per-tenant queue bound of 64.
const TENANTS: usize = 8;
const SETUPS: usize = 15;
/// Bursts per requested second: the measured phase sends
/// `seconds * BURSTS_PER_SECOND` bursts, which lasts about that long on
/// a 2-vCPU host.
const BURSTS_PER_SECOND: f64 = 100.0;
const WARMUP_BURSTS: usize = 40;
/// Round trips per accounting window (see `harness::Phase`).
const WINDOW: usize = 16;
/// Stated breakdown tolerance: the replayed window (pack, stack, batch
/// plan, forward, scatter) must account for this share of a burst's
/// served latency; the rest is admission, queueing and reply delivery.
const REPLAY_SHARE: (f64, f64) = (0.3, 1.1);

struct Inputs {
    raws: Vec<CsrMatrix<f32>>,
    w0: DenseMatrix<f32>,
    w1: DenseMatrix<f32>,
    features: Vec<Arc<DenseMatrix<f32>>>,
    refs: Vec<DenseMatrix<f32>>,
    names: Vec<String>,
    tenants: Vec<String>,
}

fn model(w0: &DenseMatrix<f32>, w1: &DenseMatrix<f32>) -> GcnModel {
    GcnModel::new(vec![
        GcnLayer::new(w0.clone(), Activation::Relu),
        GcnLayer::new(w1.clone(), Activation::Identity),
    ])
}

/// The population and its references. A packed window folds each row
/// in one pass, so the reference is the 1-worker engine over an
/// unsplit-row plan, exactly as the repository's packing oracle checks.
fn inputs(seed: u64) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(seed);
    let raws: Vec<CsrMatrix<f32>> = (0..POPULATION)
        .map(|i| {
            let nnz = rng.gen_range(50usize..=500);
            let nodes = (nnz / 4).max(16);
            DatasetSpec::custom("typeII-tiny", GraphClass::Structured, nodes, nnz, 8)
                .synthesize(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        })
        .collect();
    let features: Vec<Arc<DenseMatrix<f32>>> = raws
        .iter()
        .map(|a| {
            Arc::new(DenseMatrix::from_fn(a.cols(), IN, |_, _| {
                rng.gen_range(-1.0f32..1.0)
            }))
        })
        .collect();
    let w0 = xavier_init(IN, HIDDEN, seed ^ 0xA0);
    let w1 = xavier_init(HIDDEN, CLASSES, seed ^ 0xA1);
    let reference = model(&w0, &w1);
    let engine = ExecEngine::new(1);
    let kernel = MergePathSpmm::with_threads(1);
    let refs = raws
        .iter()
        .zip(&features)
        .enumerate()
        .map(|(i, (a, x))| {
            reference
                .forward_cached(&gcn_normalize(a), x, &kernel, &engine, i as u64)
                .expect("reference forward")
        })
        .collect();
    Inputs {
        raws,
        w0,
        w1,
        features,
        refs,
        names: (0..POPULATION).map(|i| format!("g{i}")).collect(),
        tenants: (0..TENANTS).map(|t| format!("tenant-{t}")).collect(),
    }
}

fn setup(inp: &Inputs, tracer: Option<&mut Tracer>) -> Server {
    let graphs: Vec<CsrMatrix<f32>> = traced(tracer, "graphs.normalize", || {
        inp.raws.iter().map(gcn_normalize).collect()
    });
    let model = Arc::new(model(&inp.w0, &inp.w1));
    let engine = Arc::new(ExecEngine::new(default_workers()));
    let config = ServeConfig {
        pack_graphs: true,
        ..ServeConfig::default()
    };
    let srv = Server::start(engine, Box::new(MergePathSpmm::new()), config);
    for (name, a) in inp.names.iter().zip(graphs) {
        // One shared model `Arc`: packing batches across graphs only
        // when their models are the same allocation.
        srv.registry()
            .register_shared(name, a, Some(Arc::clone(&model)));
    }
    srv
}

/// Seeded draws of `BURST` distinct graphs per burst.
struct Draw {
    rng: SmallRng,
    order: Vec<usize>,
}

impl Draw {
    fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            order: (0..POPULATION).collect(),
        }
    }

    /// A partial Fisher-Yates shuffle: the first `BURST` slots.
    fn next(&mut self) -> Vec<usize> {
        for i in 0..BURST {
            let j = self.rng.gen_range(i..self.order.len());
            self.order.swap(i, j);
        }
        self.order[..BURST].to_vec()
    }
}

/// State of the traced served phase: the span recorder, the engine each
/// window is replayed on right after its replies, and the replay
/// results. The replay engine is not the served one, so its batch-plan
/// cache misses on each new composition exactly as the served window's
/// did; on the served engine the replay would find the plan just built.
struct Traced<'a> {
    t: &'a mut Tracer,
    engine: ExecEngine,
    /// `(served latency, replay duration)` per burst, in ms.
    pairs: Vec<(f64, f64)>,
    /// Shared-row share of each replayed batch plan.
    shares: Vec<f64>,
    ok: bool,
}

impl Traced<'_> {
    /// Replays a window through the public calls the packing batcher
    /// makes (pack, stack, batch plan, `forward_mega_batched`'s GEMM and
    /// SpMM per layer, scatter), each inside a span; checks the scattered
    /// outputs and returns the replay's ms.
    fn replay(&mut self, srv: &Server, inp: &Inputs, ids: &[usize]) -> f64 {
        let graphs: Vec<_> = srv
            .registry()
            .get_many(ids.iter().map(|&g| inp.names[g].as_str()))
            .into_iter()
            .map(|g| g.expect("registered"))
            .collect();
        let Self {
            t, engine, shares, ..
        } = self;
        let t0 = Instant::now();
        let outs = t.span("replay.burst", |t| {
            let constituents: Vec<Arc<CsrMatrix<f32>>> =
                graphs.iter().map(|g| Arc::clone(g.adjacency())).collect();
            let pack = t
                .span("sparse.pack", |_| BlockDiagCsr::build(&constituents))
                .expect("pack");
            let feats: Vec<&DenseMatrix<f32>> =
                ids.iter().map(|&g| inp.features[g].as_ref()).collect();
            let stacked = t
                .span("sparse.stack", |_| {
                    let mut stacked = engine.lease_zeroed(pack.cols(), IN);
                    pack.stack_features_into(&feats, &mut stacked)
                        .map(|()| stacked)
                })
                .expect("stack");
            let class = BatchShapeClass::from_graphs(graphs.iter().map(|g| {
                (
                    g.adjacency().rows(),
                    g.adjacency().nnz(),
                    g.structure_hash(),
                )
            }));
            let prep = t.span("core.batch_plan", |_| {
                engine.plan_batch_cached(&BatchMergeSpmm::new(), pack.matrix(), HIDDEN, &class)
            });
            shares.push(prep.shared_row_count() as f64 / pack.rows() as f64);
            let a = pack.matrix().as_ref();
            let out = t.span("gcn.forward", |t| {
                let spmm = |t: &mut Tracer, b: &DenseMatrix<f32>| {
                    let flops = 2.0 * a.nnz() as f64 * b.cols() as f64;
                    t.span_work("core.spmm", flops, |_| engine.execute_prepared(&prep, a, b))
                        .expect("replay spmm")
                        .0
                };
                let hw = t
                    .span("core.gemm", |_| engine.gemm(&stacked, &inp.w0))
                    .expect("gemm");
                let mut h = spmm(t, &hw);
                engine.recycle(hw);
                Activation::Relu.apply(&mut h);
                let hw = t
                    .span("core.gemm", |_| engine.gemm(&h, &inp.w1))
                    .expect("gemm");
                engine.recycle(h);
                let out = spmm(t, &hw);
                engine.recycle(hw);
                out
            });
            engine.recycle(stacked);
            let outs: Vec<DenseMatrix<f32>> = t.span("sparse.scatter", |_| {
                (0..ids.len())
                    .map(|i| pack.scatter_block(&out, i))
                    .collect()
            });
            engine.recycle(out);
            outs
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        for (out, &g) in outs.iter().zip(ids) {
            self.ok &= same_output(out, &inp.refs[g]);
        }
        ms
    }
}

/// `bursts` closed-loop bursts of `BURST` distinct graphs each. When
/// traced, each window is replayed right after its replies, outside the
/// phase's figures.
fn serve(
    srv: &Server,
    inp: &Inputs,
    draw: &mut Draw,
    tally: &mut Tally,
    bursts: usize,
    mut tracing: Option<&mut Traced>,
) -> PhaseReport {
    let mut phase = Phase::start(tally, WINDOW);
    for b in 0..bursts {
        phase.next_round(tally);
        let (ids, reqs) = phase.generator(|| {
            let ids = draw.next();
            let reqs: Vec<Request> = ids
                .iter()
                .enumerate()
                .map(|(j, &g)| Request {
                    graph: inp.names[g].clone(),
                    tenant: inp.tenants[j % TENANTS].clone(),
                    features: Arc::clone(&inp.features[g]),
                    workload: Workload::Gcn,
                    deadline: None,
                })
                .collect();
            (ids, reqs)
        });
        let tracer = tracing.as_deref_mut().map(|x| {
            x.t.set_trace(b as u64);
            &mut *x.t
        });
        let t0 = Instant::now();
        let (_, ticket) = traced_work(tracer, "serve.submit", BURST as f64, || {
            srv.submit_many(reqs)
        });
        let replies = ticket.wait_all();
        let served = t0.elapsed();
        phase.round_trip(served, BURST);
        phase.generator(|| {
            for (reply, &g) in replies.into_iter().zip(&ids) {
                tally.record(reply, &inp.refs[g]);
            }
        });
        if let Some(x) = tracing.as_deref_mut() {
            let replay_ms = phase.aside(|| x.replay(srv, inp, &ids));
            x.pairs.push((served.as_secs_f64() * 1e3, replay_ms));
        }
    }
    phase.finish(tally)
}

pub fn run(args: &Args) -> Report {
    let inp = inputs(args.seed);
    let nnz: usize = inp.raws.iter().map(CsrMatrix::nnz).sum();
    println!(
        "# molecule-pack: {POPULATION} graphs, {nnz} nnz in all, shared GCN \
         {IN}->{HIDDEN}->{CLASSES}, bursts of {BURST} over {TENANTS} tenants"
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
    let mut draw = Draw::new(args.seed ^ 0x5EED);
    serve(&srv, &inp, &mut draw, &mut tally, WARMUP_BURSTS, None);
    let engine_before = srv.stats().engine;
    let bursts = ((args.seconds * BURSTS_PER_SECOND).round() as usize).max(1);
    let untraced = serve(&srv, &inp, &mut draw, &mut tally, bursts, None);
    let peak_rss_mb = harness::peak_rss_mb(rss_at_reset);
    let engine_after = srv.stats().engine;
    harness::print_phase("served", &untraced);
    let Some(mut t) = tracer else {
        srv.shutdown();
        return Report::untraced(tally, setup_s, &untraced, peak_rss_mb);
    };
    let mut traced = Traced {
        t: &mut t,
        engine: ExecEngine::new(default_workers()),
        pairs: Vec::new(),
        shares: Vec::new(),
        ok: true,
    };
    let traced_phase = serve(&srv, &inp, &mut draw, &mut tally, bursts, Some(&mut traced));
    harness::print_phase("served, traced", &traced_phase);
    // Registration planning of the whole population, on cold epochs.
    let kernel = MergePathSpmm::new();
    let graphs = srv
        .registry()
        .get_many(inp.names.iter().map(String::as_str));
    for pass in 0..3u64 {
        let engine = &traced.engine;
        traced.t.span("core.plan", |_| {
            for (i, g) in graphs.iter().enumerate() {
                let a = g.as_ref().expect("registered").adjacency();
                engine.plan_cached(
                    &kernel,
                    a,
                    HIDDEN,
                    u64::MAX - pass * POPULATION as u64 - i as u64,
                );
            }
        });
    }
    let Traced {
        pairs,
        shares,
        ok: replay_ok,
        ..
    } = traced;
    let stats = srv.stats();
    let e = &stats.engine;
    let lookups = (e.batch_plan_hits + e.batch_plan_misses + e.batch_plan_rebuilds) as f64;
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
        Metric {
            name: "serve.pack_efficiency",
            value: stats.pack_efficiency,
            unit: "ratio",
        },
        harness::span_median(&t, "gcn.forward", "gcn.forward_ms_p50", "ms"),
        Metric {
            name: "gcn.self_ms_p50",
            value: median(&t.self_ms("gcn.forward")),
            unit: "ms",
        },
        harness::span_median(&t, "core.gemm", "core.gemm_ms_p50", "ms"),
        Metric {
            name: "core.shared_row_share",
            value: median(&shares),
            unit: "ratio",
        },
        harness::span_median(&t, "core.plan", "core.plan_ms", "ms"),
        harness::span_median(&t, "core.batch_plan", "core.batch_plan_us_p50", "us"),
        Metric {
            name: "core.batch_plan_hit_rate",
            value: ratio(e.batch_plan_hits as f64, lookups),
            unit: "ratio",
        },
        harness::span_median(&t, "sparse.pack", "sparse.pack_us_p50", "us"),
        harness::span_median(&t, "sparse.stack", "sparse.stack_us_p50", "us"),
        harness::span_median(&t, "sparse.scatter", "sparse.scatter_us_p50", "us"),
        harness::span_median(&t, "graphs.normalize", "graphs.normalize_ms", "ms"),
    ]);
    t.save(&args.workload, args.seed);
    srv.shutdown();
    Report {
        tally,
        metrics,
        absent: vec![
            ("serve.swap_ms_p50", "molecule-pack makes no hot swaps"),
            (
                "gcn.gemm0_ms_p50",
                "the mega-batched forward runs layer 0 on the engine GEMM, not the zero-skip GEMM",
            ),
        ],
        replay_ok,
    }
}
