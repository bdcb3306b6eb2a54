//! Mega-batch benchmark — block-diagonal graph packing vs per-request
//! serving.
//!
//! The workload the packing scheduler exists for: thousands of distinct
//! Type II-sized graphs (50–500 nnz each — molecular-dataset scale),
//! every request carrying a *different* graph, so the classic coalescing
//! batcher can never merge anything (its batch key is the graph
//! version). Two closed-loop modes, interleaved pass-by-pass over the
//! same registered population (see [`paired_run`] for why pairing):
//!
//! The served workload is two-layer GCN inference through **one shared
//! model** (the mega-batch registration shape: thousands of graphs, one
//! `Arc<GcnModel>`):
//!
//! * **per-request**: packing off, every request runs its own GCN
//!   forward — two GEMMs and two aggregation SpMMs *per tiny graph*,
//!   each an engine run with plan lookup, pool dispatch, and arena
//!   traffic.
//! * **packed**: packing on, a batch window admits requests for
//!   different graphs, concatenates them into one block-diagonal CSR,
//!   runs `GcnModel::forward` over the stacked features
//!   as one block — one GEMM + one SpMM per layer for the *whole window*
//!   — and scatters each tenant's row band back out.
//!
//! The headline is the goodput ratio **at fixed p95** — the per-request
//! mode's median wall time per graph over the packed mode's, across
//! interleaved passes: the
//! packed run must not buy its throughput with a worse tail, so the
//! binary asserts `packed p95 <= per-request p95` alongside the >= 5x
//! goodput floor (full mode; `--smoke` runs a smaller population and
//! only prints). Before anything is timed, a bit-identity spot check
//! packs a window and compares every scattered band against the
//! sequential per-graph oracle — exact equality, not tolerance.
//!
//! Writes `BENCH_batch.json`.

use std::sync::Arc;
use std::time::Duration;

use mpspmm_bench::{alternate, json_array, speedup, write_artifact, Measured, SEED};
use mpspmm_core::{default_workers, ExecEngine, MergePathSpmm};
use mpspmm_gcn::GcnModel;
use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};
use mpspmm_serve::{Request, ServeConfig, ServeStats, Server, Workload};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Model input feature width (and therefore the per-request dense
/// width): small, like molecular node features — engine-run overhead
/// dominates the per-graph compute.
const IN_FEATURES: usize = 4;
/// Hidden width of the shared two-layer model.
const HIDDEN: usize = 4;
/// Output classes of the shared model.
const CLASSES: usize = 2;
/// Burst width, and therefore the packing window's graph budget: the
/// client submits one burst, waits for every reply, then submits the
/// next — the batch-synchronous shape of a full inference sweep over a
/// registered population. Each packed window cuts its row spans from the
/// packed row pointers; nothing is reused across windows.
const BURST: usize = 256;
/// Tenants the burst is spread over (results scatter per tenant).
const TENANTS: usize = 8;

/// Timed passes per mode, after one untimed warm-up pass.
const PASSES: usize = 7;

/// The Type II population: structured graphs with 50–500 non-zeros and
/// near-uniform degrees, sized like single molecules.
fn population(count: usize) -> Vec<CsrMatrix<f32>> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    (0..count)
        .map(|i| {
            let nnz = rng.gen_range(50usize..=500);
            let nodes = (nnz / 4).max(16);
            gcn_normalize(
                &DatasetSpec::custom("typeII-tiny", GraphClass::Structured, nodes, nnz, 8)
                    .synthesize(SEED ^ i as u64),
            )
        })
        .collect()
}

fn feature_for(a: &CsrMatrix<f32>, salt: u64) -> Arc<DenseMatrix<f32>> {
    let mut rng = SmallRng::seed_from_u64(SEED ^ salt.wrapping_mul(0x9E37_79B9));
    Arc::new(DenseMatrix::from_fn(a.cols(), IN_FEATURES, |_, _| {
        rng.gen_range(-1.0f32..1.0)
    }))
}

fn shared_model() -> Arc<GcnModel> {
    Arc::new(GcnModel::two_layer(IN_FEATURES, HIDDEN, CLASSES, SEED))
}

fn server(
    engine: &Arc<ExecEngine>,
    graphs: &[CsrMatrix<f32>],
    model: &Arc<GcnModel>,
    config: ServeConfig,
) -> Server {
    let srv = Server::start(Arc::clone(engine), Box::new(MergePathSpmm::new()), config);
    for (i, a) in graphs.iter().enumerate() {
        srv.registry()
            .register_shared(&format!("g{i}"), a.clone(), Some(Arc::clone(model)));
    }
    srv
}

/// Batch-synchronous load: submit one `BURST`-wide burst of requests —
/// every one for a *different* graph, spread over `TENANTS` tenants —
/// wait for all replies, then the next burst, sweeping the population
/// once. Burst boundaries are aligned to the population, so the packed
/// server sees the same window composition every pass.
///
/// The two modes use their natural front doors: per-request serving
/// submits (and is answered) one request at a time — that is the
/// baseline being measured — while the mega-batch client ships each
/// burst through [`Server::submit_many`], the bulk-admission half of
/// the packed pipeline.
fn sweep(
    srv: &Server,
    packed: bool,
    graphs: &[CsrMatrix<f32>],
    features: &[Arc<DenseMatrix<f32>>],
    names: &[String],
    tenants: &[String],
) {
    let request = |g: usize| Request {
        graph: names[g].clone(),
        tenant: tenants[g % TENANTS].clone(),
        features: Arc::clone(&features[g]),
        workload: Workload::Gcn,
        deadline: None,
    };
    for burst in graphs
        .chunks(BURST)
        .enumerate()
        .map(|(b, c)| (b * BURST, c))
    {
        let (base, chunk) = burst;
        if packed {
            let reqs: Vec<Request> = (0..chunk.len()).map(|i| request(base + i)).collect();
            let (rejected, ticket) = srv.submit_many(reqs);
            assert!(
                rejected.iter().all(Option::is_none),
                "burst stays under the tenant bounds"
            );
            for (i, slot) in ticket.wait_all().into_iter().enumerate() {
                slot.expect("every admitted request replies")
                    .unwrap_or_else(|e| panic!("request g{} failed: {e}", base + i));
            }
        } else {
            let tickets: Vec<_> = (0..chunk.len())
                .map(|i| {
                    srv.submit(request(base + i))
                        .expect("burst stays under the tenant bounds")
                })
                .collect();
            for (i, ticket) in tickets.into_iter().enumerate() {
                ticket
                    .wait()
                    .unwrap_or_else(|e| panic!("request g{} failed: {e}", base + i));
            }
        }
    }
}

/// Runs both modes as an **interleaved** measurement: both servers stay
/// up for the whole benchmark and each pass times one per-request sweep
/// next to one packed sweep over the same population. Returns each
/// mode's wall time per graph and its server statistics.
///
/// Two separate noise sources on a single shared core make the naive
/// sum-everything measurement unstable, and the interleaving kills both:
///
/// * **millisecond preemption spikes** hit one pass of one mode — the
///   median discards them, symmetrically for both modes;
/// * **slow-minutes drift** (a sibling process, frequency change) spans
///   many seconds — it slows a base pass and the packed pass *next to
///   it* by the same factor, whereas two back-to-back single-mode runs
///   would let the drift land entirely on one side of the division.
fn paired_run(
    engine: &Arc<ExecEngine>,
    graphs: &[CsrMatrix<f32>],
    features: &[Arc<DenseMatrix<f32>>],
    model: &Arc<GcnModel>,
    base_cfg: ServeConfig,
    packed_cfg: ServeConfig,
) -> ((Measured, Measured), [ServeStats; 2]) {
    // Packed sweeps per timed pass. The packed side is ~6x faster, so a
    // single sweep of it spans a ~6x shorter wall-clock window than the
    // base sweep next to it — a scheduler-noise burst then eats a far
    // larger *fraction* of the packed sample than of the base sample.
    // Six packed sweeps per pass give both modes comparable exposure
    // windows (and average each packed sample over 6x more windows).
    const PACKED_REPS: usize = 6;
    let base_srv = server(engine, graphs, model, base_cfg);
    let packed_srv = server(engine, graphs, model, packed_cfg);
    let tenants: Vec<String> = (0..TENANTS).map(|t| format!("tenant-{t}")).collect();
    let names: Vec<String> = (0..graphs.len()).map(|g| format!("g{g}")).collect();
    // The untimed warm-up pass pages in the arenas and lets each server
    // reach its steady state, so timed passes measure steady serving,
    // not first-touch costs.
    let times = alternate(
        1,
        PASSES,
        || {
            sweep(&base_srv, false, graphs, features, &names, &tenants);
            graphs.len()
        },
        || {
            for _rep in 0..PACKED_REPS {
                sweep(&packed_srv, true, graphs, features, &names, &tenants);
            }
            PACKED_REPS * graphs.len()
        },
    );
    let stats = [base_srv.stats(), packed_srv.stats()];
    let total = graphs.len() * (PASSES + 1);
    assert_eq!(stats[0].completed as usize, total);
    assert_eq!(stats[1].completed as usize, total * PACKED_REPS);
    base_srv.shutdown();
    packed_srv.shutdown();
    (times, stats)
}

/// Bit-identity spot check, untimed: one packed window over a mixed
/// population slice must scatter back the exact bits of the sequential
/// per-graph oracle.
fn spot_check(
    engine: &Arc<ExecEngine>,
    graphs: &[CsrMatrix<f32>],
    features: &[Arc<DenseMatrix<f32>>],
    model: &Arc<GcnModel>,
) {
    let srv = server(
        engine,
        &graphs[..8],
        model,
        ServeConfig {
            pack_graphs: true,
            max_linger: Duration::from_millis(100),
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (0..8)
        .map(|g| {
            srv.submit(Request {
                graph: format!("g{g}"),
                tenant: "oracle".into(),
                features: Arc::clone(&features[g]),
                workload: Workload::Gcn,
                deadline: None,
            })
            .expect("spot check admission")
        })
        .collect();
    // Per-graph reference: a 1-worker engine runs the same flat
    // per-row folds as the packed row bands.
    let ref_engine = ExecEngine::new(1);
    for (g, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().expect("spot check request");
        let want = model
            .forward(&graphs[g], &[&features[g]], &ref_engine)
            .expect("oracle forward")
            .remove(0);
        assert_eq!(
            got.max_abs_diff(&want).expect("same shape"),
            0.0,
            "packed result for graph {g} deviated from the sequential oracle"
        );
    }
    let packed = srv.stats().packed_batches;
    assert!(packed >= 1, "spot check never exercised a packed window");
    srv.shutdown();
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let graph_count = if smoke { 512 } else { 2048 };
    println!("==================================================================");
    println!(
        "BENCH batch: block-diagonal mega-batching vs per-request serving{}",
        if smoke { " (--smoke)" } else { "" }
    );
    println!(
        "inputs: {graph_count} Type II graphs (50-500 nnz, seed {SEED}), shared \
         {IN_FEATURES}-{HIDDEN}-{CLASSES} GCN, {BURST}-graph bursts over {TENANTS} tenants \
         x {PASSES} passes"
    );
    println!("==================================================================");

    let graphs = population(graph_count);
    let features: Vec<Arc<DenseMatrix<f32>>> = graphs
        .iter()
        .enumerate()
        .map(|(i, a)| feature_for(a, i as u64))
        .collect();
    let model = shared_model();
    let engine = Arc::new(ExecEngine::new(default_workers()));

    spot_check(&engine, &graphs, &features, &model);
    println!("bit-identity spot check: packed window == sequential oracle, exact");

    let per_request_cfg = ServeConfig {
        max_batch_cols: 1, // every request is its own engine run
        max_linger: Duration::ZERO,
        tenant_queue_limit: BURST,
        ..ServeConfig::default()
    };
    let packed_cfg = ServeConfig {
        pack_graphs: true,
        max_batch_graphs: BURST,
        // The window waits for the whole burst; it closes early the
        // moment the graph budget is reached.
        max_linger: Duration::from_millis(5),
        tenant_queue_limit: BURST,
        ..ServeConfig::default()
    };

    let (times, [base, packed]) = paired_run(
        &engine,
        &graphs,
        &features,
        &model,
        per_request_cfg,
        packed_cfg,
    );
    let (_, ratio, _) = speedup(&[times]);

    println!(
        "\n{:<12} {:>12} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "mode", "graphs/s", "p50 us", "p95 us", "p99 us", "graphs/batch", "pack eff"
    );
    let mut modes = Vec::new();
    for ((mode, m), s) in ["per-request", "packed"]
        .iter()
        .zip([&times.0, &times.1])
        .zip([&base, &packed])
    {
        let gps = 1e9 / m.median_ns;
        let l = &s.latency;
        println!(
            "{mode:<12} {gps:>12.0} {:>10.0} {:>10.0} {:>10.0} {:>12.2} {:>10.4}",
            l.p50_us, l.p95_us, l.p99_us, s.mean_graphs_per_batch, s.pack_efficiency
        );
        modes.push(format!(
            "{{\"mode\": \"{mode}\", \"graphs_per_sec\": {gps:.1}, \"p50_us\": {:.1}, \
             \"p95_us\": {:.1}, \"p99_us\": {:.1}, \"mean_graphs_per_batch\": {:.2}, \
             \"packed_batches\": {}, \"pack_efficiency\": {:.6}}}",
            l.p50_us,
            l.p95_us,
            l.p99_us,
            s.mean_graphs_per_batch,
            s.packed_batches,
            s.pack_efficiency
        ));
    }
    println!(
        "\n{} packed windows, p95 {:.0} us vs {:.0} us per-request",
        packed.packed_batches, packed.latency.p95_us, base.latency.p95_us,
    );

    if !smoke {
        assert!(packed.packed_batches > 0, "full run never packed a window");
        assert!(
            packed.latency.p95_us <= base.latency.p95_us,
            "packed p95 {:.0} us exceeds per-request p95 {:.0} us — goodput was \
             bought with a worse tail",
            packed.latency.p95_us,
            base.latency.p95_us
        );
        assert!(
            ratio >= 5.0,
            "mega-batch goodput {ratio:.2}x is below the 5x floor"
        );
    }

    write_artifact(
        "batch",
        "per-request serving, same engine and graph population",
        &[times],
        engine.workers(),
        &[
            ("smoke", smoke.to_string()),
            ("graphs", graph_count.to_string()),
            ("in_features", IN_FEATURES.to_string()),
            ("burst", BURST.to_string()),
            ("modes", json_array(&modes)),
        ],
    );
}
