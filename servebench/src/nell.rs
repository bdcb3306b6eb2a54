//! `nell-spmm`: aggregation-only requests on Nell (Table II), whose
//! 4,549-nnz evil row is what merge-path partitioning balances. Requests
//! of 16 columns (the paper's Fig. 4 width) go out as closed-loop bursts
//! of 8, which the batcher always coalesces into two 64-column batches.
//! Before every 4th burst the graph is hot-swapped to the other of two
//! value weightings, so the registry's write path (a re-plan, the Fig. 8
//! cost) runs beside the reads.
//!
//! The run is a fixed number of bursts, not a fixed time: each swap
//! leaves its retired plan in the engine's plan cache until evicted, so
//! swaps that followed the clock would make a faster program read as a
//! memory regression.

use std::sync::Arc;
use std::time::Instant;

use mpspmm_core::{default_workers, ExecEngine, MergePathSpmm, PreparedPlan};
use mpspmm_graphs::{find_dataset, gcn_normalize, mean_normalize};
use mpspmm_serve::{Request, ServeConfig, Server, Workload, DEFAULT_PLAN_DIM};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::{self, same_output, Metric, Phase, PhaseReport, Tally};
use crate::trace::{traced, traced_work, Tracer};
use crate::{Args, Report};

const GRAPH: &str = "nell";
const COLS: usize = 16;
const BURST: usize = 8;
/// Distinct feature blocks; each burst sends all of them in a seeded order.
const FEATURE_POOL: usize = 8;
const SWAP_EVERY: usize = 4;
/// Bursts per requested second: the measured phase sends
/// `seconds * BURSTS_PER_SECOND` bursts, which lasts about that long on
/// a 2-vCPU host.
const BURSTS_PER_SECOND: f64 = 12.0;
const SETUPS: usize = 25;
const WARMUP_BURSTS: usize = 4;
/// Round trips per accounting window (see `harness::Phase`).
const WINDOW: usize = 2;
/// Stated breakdown tolerance: the two replayed batch SpMMs must account
/// for this share of a burst's served latency.
const REPLAY_SHARE: (f64, f64) = (0.7, 1.1);

struct Inputs {
    raw: CsrMatrix<f32>,
    features: Vec<Arc<DenseMatrix<f32>>>,
    /// `refs[w][k]`: feature block `k` aggregated under weighting `w`.
    refs: [Vec<DenseMatrix<f32>>; 2],
}

/// The two value weightings of one structure (`A + I`) that hot swaps
/// alternate between: symmetric GCN and row-mean normalization.
fn weightings(raw: &CsrMatrix<f32>) -> [CsrMatrix<f32>; 2] {
    [gcn_normalize(raw), mean_normalize(raw)]
}

fn inputs(seed: u64) -> Inputs {
    let spec = find_dataset("Nell").expect("Nell is in Table II");
    let raw = spec.synthesize(seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xF0);
    let features: Vec<Arc<DenseMatrix<f32>>> = (0..FEATURE_POOL)
        .map(|_| {
            Arc::new(DenseMatrix::from_fn(raw.cols(), COLS, |_, _| {
                rng.gen_range(-1.0f32..1.0)
            }))
        })
        .collect();
    let w = weightings(&raw);
    assert_eq!(
        w[0].structure_hash(),
        w[1].structure_hash(),
        "a value-only swap keeps the structure"
    );
    // Plans depend on structure only, so one plan serves both weightings.
    // One request per call at the served worker count, as for ppi-gcn.
    let engine = ExecEngine::new(default_workers());
    let prep = engine.plan_cached(&MergePathSpmm::new(), &w[0], DEFAULT_PLAN_DIM, 1);
    let refs = w.map(|a| {
        features
            .iter()
            .map(|x| {
                engine
                    .execute_prepared(&prep, &a, x)
                    .expect("reference spmm")
                    .0
            })
            .collect()
    });
    Inputs {
        raw,
        features,
        refs,
    }
}

struct Ready {
    srv: Server,
    weights: [CsrMatrix<f32>; 2],
}

fn setup(inp: &Inputs, tracer: Option<&mut Tracer>) -> Ready {
    let weights = traced(tracer, "graphs.normalize", || weightings(&inp.raw));
    let engine = Arc::new(ExecEngine::new(default_workers()));
    let srv = Server::start(
        engine,
        Box::new(MergePathSpmm::new()),
        ServeConfig::default(),
    );
    srv.register(GRAPH, weights[0].clone(), None);
    Ready { srv, weights }
}

/// Generator state carried across phases.
struct Loop {
    rng: SmallRng,
    weighting: usize,
    order: Vec<usize>,
}

/// State of the traced served phase: the span recorder, the registered
/// plan each burst is replayed through right after its replies, the
/// engine of the replays (one of their own, as deployed, so that they
/// leave the served engine's caches and counters alone), and the replay
/// results.
struct Traced<'a> {
    t: &'a mut Tracer,
    prep: Arc<PreparedPlan>,
    engine: ExecEngine,
    /// `(served latency, replay duration)` per burst, in ms.
    pairs: Vec<(f64, f64)>,
    ok: bool,
}

impl Traced<'_> {
    /// Replays a burst as the batcher runs it, one
    /// `execute_prepared_batch` per 64-column batch, each inside a span;
    /// checks the outputs and returns the replay's ms. A value-only swap
    /// keeps the structure, so the plan serves either weighting.
    fn replay(&mut self, ready: &Ready, inp: &Inputs, w: usize, picks: &[usize]) -> f64 {
        let Self {
            t, prep, engine, ..
        } = self;
        let a = &ready.weights[w];
        let per_batch = ServeConfig::default().max_batch_cols / COLS;
        let t0 = Instant::now();
        let outs: Vec<DenseMatrix<f32>> = t.span("replay.burst", |t| {
            picks
                .chunks(per_batch)
                .flat_map(|chunk| {
                    let blocks: Vec<&DenseMatrix<f32>> =
                        chunk.iter().map(|&k| inp.features[k].as_ref()).collect();
                    let flops = 2.0 * a.nnz() as f64 * (chunk.len() * COLS) as f64;
                    t.span_work("core.spmm", flops, |_| {
                        engine.execute_prepared_batch(prep, a, &blocks)
                    })
                    .expect("replay batch")
                })
                .collect()
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        for (out, &k) in outs.iter().zip(picks) {
            self.ok &= same_output(out, &inp.refs[w][k]);
        }
        ms
    }
}

/// `bursts` closed-loop bursts, each preceded on every `SWAP_EVERY`th by
/// a value-only hot swap to the other weighting. When traced, each burst
/// is replayed right after its replies, outside the phase's figures.
fn serve(
    ready: &Ready,
    inp: &Inputs,
    state: &mut Loop,
    tally: &mut Tally,
    bursts: usize,
    mut tracing: Option<&mut Traced>,
) -> PhaseReport {
    let mut phase = Phase::start(tally, WINDOW);
    for b in 0..bursts {
        phase.next_round(tally);
        if let Some(x) = tracing.as_deref_mut() {
            x.t.set_trace(b as u64);
        }
        if b % SWAP_EVERY == 0 {
            state.weighting ^= 1;
            let a = phase.generator(|| ready.weights[state.weighting].clone());
            traced(
                tracing.as_deref_mut().map(|x| &mut *x.t),
                "serve.swap",
                || ready.srv.register(GRAPH, a, None),
            );
        }
        let (picks, reqs) = phase.generator(|| {
            let order = &mut state.order;
            for i in 0..order.len() {
                let j = state.rng.gen_range(i..order.len());
                order.swap(i, j);
            }
            let picks = order[..BURST].to_vec();
            let reqs: Vec<Request> = picks
                .iter()
                .map(|&k| Request {
                    graph: GRAPH.into(),
                    tenant: "t0".into(),
                    features: Arc::clone(&inp.features[k]),
                    workload: Workload::Spmm,
                    deadline: None,
                })
                .collect();
            (picks, reqs)
        });
        let tracer = tracing.as_deref_mut().map(|x| &mut *x.t);
        let t0 = Instant::now();
        let (_, ticket) = traced_work(tracer, "serve.submit", BURST as f64, || {
            ready.srv.submit_many(reqs)
        });
        let replies = ticket.wait_all();
        let served = t0.elapsed();
        phase.round_trip(served, BURST);
        let refs = &inp.refs[state.weighting];
        phase.generator(|| {
            for (reply, &k) in replies.into_iter().zip(&picks) {
                tally.record(reply, &refs[k]);
            }
        });
        if let Some(x) = tracing.as_deref_mut() {
            let replay_ms = phase.aside(|| x.replay(ready, inp, state.weighting, &picks));
            x.pairs.push((served.as_secs_f64() * 1e3, replay_ms));
        }
    }
    phase.finish(tally)
}

fn bursts_for(seconds: f64) -> usize {
    ((seconds * BURSTS_PER_SECOND).round() as usize).max(SWAP_EVERY)
}

pub fn run(args: &Args) -> Report {
    let inp = inputs(args.seed);
    println!(
        "# nell-spmm: {} nodes, {} nnz, {BURST} x {COLS}-column requests per burst, \
         a value-only hot swap before every {SWAP_EVERY}th burst",
        inp.raw.rows(),
        inp.raw.nnz()
    );
    let rss_at_reset = crate::sys::reset_peak_rss();
    let mut tracer = args.trace.then(Tracer::new);
    let (setup_s, ready) = harness::time_setups(
        SETUPS,
        tracer.as_mut(),
        |t| setup(&inp, t),
        |r| r.srv.shutdown(),
    );
    let mut tally = Tally::default();
    let mut state = Loop {
        rng: SmallRng::seed_from_u64(args.seed ^ 0x5EED),
        weighting: 0,
        order: (0..FEATURE_POOL).collect(),
    };
    serve(&ready, &inp, &mut state, &mut tally, WARMUP_BURSTS, None);
    let engine_before = ready.srv.stats().engine;
    let bursts = bursts_for(args.seconds);
    let untraced = serve(&ready, &inp, &mut state, &mut tally, bursts, None);
    let peak_rss_mb = harness::peak_rss_mb(rss_at_reset);
    let engine_after = ready.srv.stats().engine;
    harness::print_phase("served", &untraced);
    println!(
        "# {} bursts, {} hot swaps",
        bursts,
        bursts.div_ceil(SWAP_EVERY)
    );
    let Some(mut t) = tracer else {
        ready.srv.shutdown();
        return Report::untraced(tally, setup_s, &untraced, peak_rss_mb);
    };
    let g = ready.srv.registry().get(GRAPH).expect("graph registered");
    let mut traced = Traced {
        t: &mut t,
        prep: Arc::clone(g.prep()),
        engine: ExecEngine::new(default_workers()),
        pairs: Vec::new(),
        ok: true,
    };
    let traced_phase = serve(
        &ready,
        &inp,
        &mut state,
        &mut tally,
        bursts,
        Some(&mut traced),
    );
    harness::print_phase("served, traced", &traced_phase);
    // A swap's re-plan, as registration does it, on a cold epoch each time.
    let kernel = MergePathSpmm::new();
    for pass in 0..3 {
        let engine = &traced.engine;
        traced.t.span("core.plan", |_| {
            engine.plan_cached(
                &kernel,
                &ready.weights[0],
                DEFAULT_PLAN_DIM,
                u64::MAX - pass,
            )
        });
    }
    let Traced {
        pairs,
        ok: replay_ok,
        ..
    } = traced;
    let stats = ready.srv.stats();
    let per_batch = (ServeConfig::default().max_batch_cols / COLS) as f64;
    println!(
        "# check mean requests per batch {:.3} reads {per_batch}: {}",
        stats.mean_batch_requests,
        if stats.mean_batch_requests == per_batch {
            "PASS"
        } else {
            "FAIL"
        }
    );
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
        harness::span_median(&t, "serve.swap", "serve.swap_ms_p50", "ms"),
        Metric {
            name: "core.shared_row_share",
            value: g.prep().shared_row_count() as f64 / g.nodes() as f64,
            unit: "ratio",
        },
        harness::span_median(&t, "core.plan", "core.plan_ms", "ms"),
        harness::span_median(&t, "graphs.normalize", "graphs.normalize_ms", "ms"),
    ]);
    t.save(&args.workload, args.seed);
    ready.srv.shutdown();
    Report {
        tally,
        metrics,
        absent: vec![
            (
                "serve.pack_efficiency",
                "graph packing is off (ServeConfig::default)",
            ),
            (
                "gcn.forward_ms_p50",
                "aggregation-only requests run no GCN layer",
            ),
            (
                "gcn.self_ms_p50",
                "aggregation-only requests run no GCN layer",
            ),
            (
                "gcn.gemm0_ms_p50",
                "aggregation-only requests run no GCN layer",
            ),
            ("core.gemm_ms_p50", "aggregation-only requests run no GEMM"),
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
