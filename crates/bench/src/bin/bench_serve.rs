//! Serving-layer benchmark — coalesced batching vs one-request batches.
//!
//! Two load shapes against `mpspmm-serve` on the Cora graph, with
//! single-column SpMM requests (the per-node inference regime the
//! serving layer exists for), each run as alternating passes on a
//! batch-size-1 server (`max_batch_cols = 1`: every request is its own
//! engine run) and a coalescing one that stay up for the whole phase:
//!
//! * **Closed loop** (capacity probe): N client threads submit requests
//!   back-to-back (submit → wait → repeat). This measures each
//!   configuration's service capacity and per-request latency when
//!   clients self-throttle.
//! * **Open loop** (the headline): a generator offers requests at one
//!   fixed rate — well above the unbatched capacity — to both servers,
//!   spread over several tenants, never waiting for replies. Under a
//!   standing backlog the batcher's sweep fills whole batches with no
//!   linger idle, so every engine run amortizes plan traversal and runs
//!   full-width SIMD panels instead of a single column. The headline is
//!   the ratio of median wall time per completed request (inverse
//!   goodput) over the alternating passes at this fixed offered load.
//!   Overload surfaces as typed
//!   [`ServeError::QueueFull`](mpspmm_serve::ServeError) rejects and a
//!   queue depth capped by the per-tenant admission bound — never
//!   unbounded memory growth.
//!
//! The request stream (tenant choice, feature values) is deterministic
//! via the vendored `rand` shim; timings are machine-dependent as in
//! every harness. Latency percentiles and mean batch sizes are the
//! servers' own statistics over every pass of a phase, the warm-up pass
//! included. Writes `BENCH_serve.json`. Pass `--smoke` for the quick
//! tier-1 variant (same shapes, smaller counts).

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpspmm_bench::{alternate, json_array, write_artifact, SEED};
use mpspmm_core::{default_workers, ExecEngine, MergePathSpmm};
use mpspmm_graphs::find_dataset;
use mpspmm_serve::{Request, ServeConfig, ServeError, Server, Workload};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-request dense width: one column — a single node embedding, the
/// worst case for an unbatched engine run and the best case for
/// coalescing.
const REQUEST_COLS: usize = 1;
/// Timed passes per mode and phase, after one untimed warm-up pass.
const PASSES: usize = 7;
/// Tenants the open loop spreads its requests over.
const TENANTS: usize = 4;
/// Per-tenant admission bound, tighter than the default 64: overload
/// has to surface as visible typed rejects within the benchmark's
/// horizon.
const TENANT_LIMIT: usize = 32;

struct LoadShape {
    clients: usize,
    requests_per_client: usize,
    open_loop_requests: usize,
}

fn shape(smoke: bool) -> LoadShape {
    LoadShape {
        clients: 8,
        requests_per_client: if smoke { 40 } else { 300 },
        open_loop_requests: if smoke { 800 } else { 8_000 },
    }
}

fn server(engine: &Arc<ExecEngine>, a: &CsrMatrix<f32>, config: ServeConfig) -> Server {
    let srv = Server::start(Arc::clone(engine), Box::new(MergePathSpmm::new()), config);
    srv.register("cora", a.clone(), None);
    srv
}

fn request(tenant: &str, features: &Arc<DenseMatrix<f32>>) -> Request {
    Request {
        graph: "cora".into(),
        tenant: tenant.into(),
        features: Arc::clone(features),
        workload: Workload::Spmm,
        deadline: None,
    }
}

/// Pre-generated request payloads: filling a 2708-row block costs more
/// RNG time than the request costs to serve, so the generator must not
/// synthesize features inside the timed loop.
fn feature_pool(nodes: usize, distinct: usize) -> Vec<Arc<DenseMatrix<f32>>> {
    (0..distinct)
        .map(|salt| {
            let mut rng = SmallRng::seed_from_u64(SEED ^ salt as u64);
            Arc::new(DenseMatrix::from_fn(nodes, REQUEST_COLS, |_, _| {
                rng.gen_range(-1.0f32..1.0)
            }))
        })
        .collect()
}

/// One closed-loop pass: every client keeps exactly one request in
/// flight. Returns the requests completed.
fn closed_loop(srv: &Server, pool: &[Arc<DenseMatrix<f32>>], shape: &LoadShape) -> usize {
    std::thread::scope(|scope| {
        for client in 0..shape.clients {
            scope.spawn(move || {
                let name = format!("client-{client}");
                for r in 0..shape.requests_per_client {
                    srv.submit(request(&name, &pool[(client * 7 + r) % pool.len()]))
                        .expect("closed loop stays under the tenant bound")
                        .wait()
                        .expect("closed-loop request failed");
                }
            });
        }
    });
    shape.clients * shape.requests_per_client
}

/// One open-loop pass: offers `shape.open_loop_requests` at
/// `offered_rps` regardless of completions; replies are harvested on a
/// side thread, rejects are dropped (typed). Raises `max_depth` to the
/// deepest queue seen and returns the requests completed, all of them
/// drained before it returns.
fn open_loop(
    srv: &Server,
    pool: &[Arc<DenseMatrix<f32>>],
    shape: &LoadShape,
    offered_rps: f64,
    max_depth: &mut usize,
) -> usize {
    let names: Vec<String> = (0..TENANTS).map(|t| format!("tenant-{t}")).collect();
    // Pacing is bursty on purpose: per-request spin-waiting would pin
    // a CPU the server also runs on. The generator submits one slot's
    // worth of requests, then sleeps to the slot boundary — offered load
    // is exact on average and the core is free in between.
    const SLOT: Duration = Duration::from_millis(1);
    let per_slot = offered_rps * SLOT.as_secs_f64();
    let before = srv.stats();
    let (tx, rx) = mpsc::channel::<mpspmm_serve::Ticket>();
    let mut rejected = 0u64;
    std::thread::scope(|scope| {
        // Harvester: drains replies so tickets never pile up.
        scope.spawn(move || {
            while let Ok(ticket) = rx.recv() {
                let _ = ticket.wait();
            }
        });
        let mut rng = SmallRng::seed_from_u64(SEED);
        let mut sent = 0usize;
        let mut due = 0.0f64;
        let mut slot_end = Instant::now() + SLOT;
        while sent < shape.open_loop_requests {
            due += per_slot;
            while sent < shape.open_loop_requests && (sent as f64) < due {
                let tenant = &names[rng.gen_range(0..TENANTS)];
                match srv.submit(request(tenant, &pool[sent % pool.len()])) {
                    Ok(ticket) => tx.send(ticket).expect("harvester alive"),
                    Err(ServeError::QueueFull { .. }) => rejected += 1,
                    Err(e) => panic!("unexpected open-loop error: {e}"),
                }
                sent += 1;
            }
            *max_depth = (*max_depth).max(srv.stats().queue_depth);
            if let Some(pause) = slot_end.checked_duration_since(Instant::now()) {
                std::thread::sleep(pause);
            }
            slot_end += SLOT;
        }
        drop(tx);
        // The scope also waits for the harvester: the pass's time
        // includes draining every admitted request.
    });
    let after = srv.stats();
    assert_eq!(
        after.rejected_queue_full - before.rejected_queue_full,
        rejected
    );
    // Boundedness: admission caps in-flight work at the tenant limits, so
    // the queue can never exceed tenants × limit no matter the overload.
    let bound = TENANTS * TENANT_LIMIT;
    assert!(
        *max_depth <= bound,
        "queue depth {max_depth} escaped the admission bound {bound}"
    );
    (after.completed - before.completed) as usize
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = shape(smoke);
    println!("==================================================================");
    println!(
        "BENCH serve: coalesced batching vs one-request batches{}",
        if smoke { " (--smoke)" } else { "" }
    );
    println!(
        "inputs: synthetic Cora, seed {SEED}; {}-col requests; {} closed-loop clients x {}; \
         {} open-loop requests over {} tenants; {} alternating passes per phase",
        REQUEST_COLS,
        shape.clients,
        shape.requests_per_client,
        shape.open_loop_requests,
        TENANTS,
        PASSES
    );
    println!("==================================================================");

    let a = find_dataset("Cora")
        .expect("Table II dataset")
        .synthesize(SEED);
    let engine = Arc::new(ExecEngine::new(default_workers()));
    let pool = feature_pool(a.rows(), 32);
    let configs = [
        ServeConfig {
            max_batch_cols: 1, // a batch closes at its first request
            max_linger: Duration::ZERO,
            tenant_queue_limit: TENANT_LIMIT,
            ..ServeConfig::default()
        },
        ServeConfig {
            max_batch_cols: 64,
            max_linger: Duration::from_micros(100),
            tenant_queue_limit: TENANT_LIMIT,
            ..ServeConfig::default()
        },
    ];
    let servers = || configs.clone().map(|c| server(&engine, &a, c));

    // --- Closed loop (capacity probe) ----------------------------------
    let [unbatched, coalesced] = servers();
    let closed = alternate(
        1,
        PASSES,
        || closed_loop(&unbatched, &pool, &shape),
        || closed_loop(&coalesced, &pool, &shape),
    );
    let closed_stats = [unbatched.stats(), coalesced.stats()];
    unbatched.shutdown();
    coalesced.shutdown();

    // --- Open loop (fixed offered load, the headline) -------------------
    // Offer far more than the unbatched server can complete so BOTH
    // servers run saturated; the goodput ratio at this one fixed rate is
    // then the capacity ratio of coalesced over unbatched batching.
    let offered = 4.0 * 1e9 / closed.0.median_ns;
    let [unbatched, coalesced] = servers();
    let mut depth = [0usize; 2];
    let [du, dc] = &mut depth;
    let open = alternate(
        1,
        PASSES,
        || open_loop(&unbatched, &pool, &shape, offered, du),
        || open_loop(&coalesced, &pool, &shape, offered, dc),
    );
    let open_stats = [unbatched.stats(), coalesced.stats()];
    unbatched.shutdown();
    coalesced.shutdown();

    let modes = ["unbatched", "coalesced"];
    println!(
        "\nclosed loop ({} clients, 1 in flight each; medians of {PASSES} passes):",
        shape.clients
    );
    println!(
        "{:<11} {:>12} {:>10} {:>10} {:>12}",
        "mode", "req/s", "p50 us", "p99 us", "mean batch"
    );
    let mut closed_json = Vec::new();
    for ((mode, m), s) in modes.iter().zip([&closed.0, &closed.1]).zip(&closed_stats) {
        let rps = 1e9 / m.median_ns;
        let (p50, p99, batch) = (s.latency.p50_us, s.latency.p99_us, s.mean_batch_requests);
        println!("{mode:<11} {rps:>12.0} {p50:>10.0} {p99:>10.0} {batch:>12.2}");
        closed_json.push(format!(
            "{{\"mode\": \"{mode}\", \"clients\": {}, \"throughput_rps\": {rps:.1}, \
             \"p50_us\": {p50:.1}, \"p99_us\": {p99:.1}, \"mean_batch_requests\": {batch:.2}}}",
            shape.clients
        ));
    }

    println!("\nopen loop (fixed offered load {offered:.0} req/s; medians of {PASSES} passes):");
    println!(
        "{:<11} {:>11} {:>10} {:>9} {:>11} {:>11} {:>10}",
        "mode", "goodput r/s", "completed", "rejects", "max queue", "mean batch", "p99 us"
    );
    let mut open_json = Vec::new();
    for (((mode, m), s), depth) in modes
        .iter()
        .zip([&open.0, &open.1])
        .zip(&open_stats)
        .zip(depth)
    {
        let goodput = 1e9 / m.median_ns;
        println!(
            "{mode:<11} {goodput:>11.0} {:>10} {:>9} {depth:>11} {:>11.2} {:>10.0}",
            s.completed, s.rejected_queue_full, s.mean_batch_requests, s.latency.p99_us
        );
        open_json.push(format!(
            "{{\"mode\": \"{mode}\", \"offered_rps\": {offered:.1}, \"goodput_rps\": {goodput:.1}, \
             \"completed\": {}, \"rejected_queue_full\": {}, \"max_queue_depth\": {depth}, \
             \"mean_batch_requests\": {:.2}, \"p99_us\": {:.1}}}",
            s.completed,
            s.rejected_queue_full,
            s.mean_batch_requests,
            s.latency.p99_us
        ));
    }
    println!(
        "\nbackpressure: queue depth capped at {} (admission bound {}), overload surfaced as \
         {} typed QueueFull rejects, not memory growth",
        depth[0].max(depth[1]),
        TENANTS * TENANT_LIMIT,
        open_stats[0].rejected_queue_full + open_stats[1].rejected_queue_full
    );

    write_artifact(
        "serve",
        "unbatched per-request serving, same engine",
        &[open],
        engine.workers(),
        &[
            ("smoke", smoke.to_string()),
            ("request_cols", REQUEST_COLS.to_string()),
            ("closed_loop", json_array(&closed_json)),
            ("open_loop", json_array(&open_json)),
        ],
    );
}
