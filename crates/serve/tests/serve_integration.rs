//! End-to-end tests of the serving layer: correctness of batched
//! answers, hot swap, admission control, deadlines, and shutdown.

use std::sync::Arc;
use std::time::Duration;

use mpspmm_core::{default_workers, Epilogue, ExecEngine, MergePathSpmm, SerialSpmm, SpmmKernel};
use mpspmm_gcn::ops::xavier_init;
use mpspmm_gcn::{Activation, GcnLayer, GcnModel};
use mpspmm_serve::{Request, ServeConfig, ServeError, Server, Workload};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};

const NODES: usize = 24;

/// A deterministic ring-with-chords test graph whose values depend on
/// `seed`, so two versions of "the same" graph give different answers.
fn graph(seed: f32) -> CsrMatrix<f32> {
    let mut trips = Vec::new();
    for r in 0..NODES {
        trips.push((r, (r + 1) % NODES, seed + r as f32 * 0.25));
        if r % 3 == 0 {
            trips.push((r, (r + 7) % NODES, 0.5 * seed));
        }
    }
    CsrMatrix::from_triplets(NODES, NODES, &trips).unwrap()
}

fn feats(cols: usize, salt: usize) -> DenseMatrix<f32> {
    DenseMatrix::from_fn(NODES, cols, |r, c| {
        ((r * 31 + c * 7 + salt) % 13) as f32 * 0.5 - 3.0
    })
}

fn server(config: ServeConfig) -> Server {
    Server::start(
        Arc::new(ExecEngine::new(1)),
        Box::new(MergePathSpmm::with_threads(6)),
        config,
    )
}

/// `a · b` straight on the process-wide engine, outside any server.
fn direct(a: &CsrMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
    ExecEngine::global()
        .spmm(a, &[b], &Epilogue::NONE)
        .unwrap()
        .remove(0)
}

fn req(graph: &str, tenant: &str, features: DenseMatrix<f32>, workload: Workload) -> Request {
    Request {
        graph: graph.into(),
        tenant: tenant.into(),
        features: Arc::new(features),
        workload,
        deadline: None,
    }
}

#[test]
fn spmm_requests_match_direct_kernel_execution() {
    let srv = server(ServeConfig::default());
    srv.register("g", graph(1.0), None);
    let a = graph(1.0);
    for salt in 0..4 {
        let b = feats(5, salt);
        let expect = direct(&a, &b);
        let got = srv
            .submit(req("g", "t", b, Workload::Spmm))
            .unwrap()
            .wait()
            .unwrap();
        // Single-worker engine + column-independent batching => exact.
        assert_eq!(got.max_abs_diff(&expect).unwrap(), 0.0, "salt {salt}");
    }
    srv.shutdown();
}

#[test]
fn gcn_requests_match_unbatched_forward() {
    let srv = server(ServeConfig::default());
    let model = GcnModel::two_layer(6, 10, 3, 42);
    srv.register("g", graph(1.0), Some(model));
    let a = graph(1.0);
    let reference = GcnModel::two_layer(6, 10, 3, 42);
    let engine = ExecEngine::new(1);
    for salt in 0..3 {
        let x = feats(6, salt);
        let expect = reference.forward(&a, &[&x], &engine).unwrap().remove(0);
        let got = srv
            .submit(req("g", "t", x, Workload::Gcn))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(got.rows(), NODES);
        assert_eq!(got.cols(), 3);
        assert_eq!(got, expect, "salt {salt}");
    }
    srv.shutdown();
}

#[test]
fn concurrent_requests_coalesce_into_batches() {
    let srv = server(ServeConfig {
        max_linger: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    srv.register("g", graph(1.0), None);
    let a = graph(1.0);
    // Submit everything before waiting on anything: the dispatcher's
    // linger window coalesces them.
    let tickets: Vec<_> = (0..6)
        .map(|salt| {
            let b = feats(3, salt);
            (salt, srv.submit(req("g", "t", b, Workload::Spmm)).unwrap())
        })
        .collect();
    for (salt, ticket) in tickets {
        let expect = direct(&a, &feats(3, salt));
        let got = ticket.wait().unwrap();
        assert_eq!(got.max_abs_diff(&expect).unwrap(), 0.0, "salt {salt}");
    }
    let stats = srv.stats();
    assert_eq!(stats.completed, 6);
    assert!(
        stats.batches < 6 && stats.mean_batch_requests > 1.0,
        "expected coalescing, got {} batches for 6 requests",
        stats.batches
    );
    assert_eq!(stats.batched_cols, 18);
    assert_eq!(stats.tenants.len(), 1);
    assert_eq!(stats.tenants[0].completed, 6);
    assert_eq!(stats.tenants[0].in_flight, 0);
    srv.shutdown();
}

#[test]
fn bounded_tenant_queue_rejects_with_typed_error() {
    let srv = server(ServeConfig {
        tenant_queue_limit: 2,
        max_linger: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    srv.register("g", graph(1.0), None);
    let t1 = srv
        .submit(req("g", "small", feats(2, 0), Workload::Spmm))
        .unwrap();
    let t2 = srv
        .submit(req("g", "small", feats(2, 1), Workload::Spmm))
        .unwrap();
    // Third in-flight request for the same tenant bounces.
    let err = srv
        .submit(req("g", "small", feats(2, 2), Workload::Spmm))
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::QueueFull {
            tenant: "small".into(),
            limit: 2
        }
    );
    // A different tenant has its own bound and is admitted.
    let t3 = srv
        .submit(req("g", "big", feats(2, 3), Workload::Spmm))
        .unwrap();
    for t in [t1, t2, t3] {
        t.wait().unwrap();
    }
    let stats = srv.stats();
    assert_eq!(stats.rejected_queue_full, 1);
    let small = stats.tenants.iter().find(|t| t.tenant == "small").unwrap();
    assert_eq!(small.rejected_queue_full, 1);
    assert_eq!(small.completed, 2);
    // The slot freed once replies landed: the tenant can submit again.
    srv.submit(req("g", "small", feats(2, 4), Workload::Spmm))
        .unwrap()
        .wait()
        .unwrap();
    srv.shutdown();
}

#[test]
fn expired_deadlines_are_shed_not_computed() {
    let srv = server(ServeConfig::default());
    srv.register("g", graph(1.0), None);
    let mut r = req("g", "t", feats(2, 0), Workload::Spmm);
    r.deadline = Some(Duration::ZERO);
    let err = srv.submit(r).unwrap().wait().unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded);
    let stats = srv.stats();
    assert_eq!(stats.rejected_deadline, 1);
    assert_eq!(stats.completed, 0);
    assert_eq!(
        stats.tenants[0].in_flight, 0,
        "shed requests free their slot"
    );
    // Subsequent requests are unaffected.
    srv.submit(req("g", "t", feats(2, 1), Workload::Spmm))
        .unwrap()
        .wait()
        .unwrap();
    srv.shutdown();
}

#[test]
fn hot_swap_serves_old_version_to_in_flight_requests() {
    let srv = server(ServeConfig {
        // Long linger: the v1 request is still lingering when v2 lands.
        max_linger: Duration::from_millis(250),
        ..ServeConfig::default()
    });
    srv.register("g", graph(1.0), None);
    let b = feats(3, 0);
    let in_flight = srv
        .submit(req("g", "t", b.clone(), Workload::Spmm))
        .unwrap();
    // Swap while the request lingers in the batcher.
    let v2 = srv.register("g", graph(9.0), None);
    assert!(v2.version() > 1);
    let got_v1 = in_flight.wait().unwrap();
    let expect_v1 = direct(&graph(1.0), &b);
    assert_eq!(
        got_v1.max_abs_diff(&expect_v1).unwrap(),
        0.0,
        "in-flight request must complete against the version it was admitted with"
    );
    // New submissions resolve to v2.
    let got_v2 = srv
        .submit(req("g", "t", b.clone(), Workload::Spmm))
        .unwrap()
        .wait()
        .unwrap();
    let expect_v2 = direct(&graph(9.0), &b);
    assert_eq!(got_v2.max_abs_diff(&expect_v2).unwrap(), 0.0);
    // Retiring stops routing without touching anything in flight.
    srv.registry().retire("g").unwrap();
    let err = srv.submit(req("g", "t", b, Workload::Spmm)).unwrap_err();
    assert_eq!(err, ServeError::UnknownGraph("g".into()));
    srv.shutdown();
}

/// A caller's name iterator that panics inside `get_many` runs under the
/// routing-table lock and poisons it; every later registry path must
/// still work, for every tenant, and replies must still match the
/// ascending row sum.
#[test]
fn a_panicking_name_iterator_does_not_poison_the_registry() {
    let srv = server(ServeConfig::default());
    srv.register("g", graph(1.0), None);
    let names = ["g"];
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        srv.registry().get_many((0..2).map(|i| names[i]))
    }));
    assert!(caught.is_err(), "the out-of-range index panics");

    srv.register("h", graph(9.0), None);
    assert_eq!(srv.registry().len(), 2);
    let b = feats(4, 0);
    for (name, seed) in [("g", 1.0), ("h", 9.0)] {
        let got = srv
            .submit(req(name, "other", b.clone(), Workload::Spmm))
            .unwrap()
            .wait()
            .unwrap();
        let (want, _) = SerialSpmm.spmm_sequential(&graph(seed), &b).unwrap();
        assert_eq!(got, want, "{name}");
    }
    let (outcomes, burst) = srv.submit_many(vec![req("h", "t", b.clone(), Workload::Spmm)]);
    assert_eq!(outcomes, vec![None]);
    let got = burst.wait_all().remove(0).unwrap().unwrap();
    assert_eq!(got, SerialSpmm.spmm_sequential(&graph(9.0), &b).unwrap().0);
    assert!(srv.registry().retire("g").is_some());
    srv.shutdown();
}

#[test]
fn admission_rejects_bad_requests_with_typed_errors() {
    let srv = server(ServeConfig::default());
    srv.register("plain", graph(1.0), None);
    srv.register("model", graph(1.0), Some(GcnModel::two_layer(6, 8, 2, 1)));

    let err = srv
        .submit(req("nope", "t", feats(2, 0), Workload::Spmm))
        .unwrap_err();
    assert_eq!(err, ServeError::UnknownGraph("nope".into()));

    let err = srv
        .submit(req("plain", "t", feats(2, 0), Workload::Gcn))
        .unwrap_err();
    assert_eq!(err, ServeError::NoModel("plain".into()));

    let wrong_rows = DenseMatrix::from_fn(NODES + 1, 2, |_, _| 0.0);
    let err = srv
        .submit(req("plain", "t", wrong_rows, Workload::Spmm))
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::BadShape {
            expected_rows: NODES,
            expected_cols: None,
            got: (NODES + 1, 2)
        }
    );

    // GCN fixes the column count to the model's input width.
    let err = srv
        .submit(req("model", "t", feats(5, 0), Workload::Gcn))
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::BadShape {
            expected_rows: NODES,
            expected_cols: Some(6),
            got: (NODES, 5)
        }
    );
    // None of the rejects consumed a queue slot.
    assert!(srv.stats().tenants.iter().all(|t| t.in_flight == 0));
    srv.shutdown();
}

/// A rectangular adjacency multiplies features whose rows match its
/// columns: admission checks that count, not the node (row) count.
#[test]
fn rectangular_adjacency_admits_by_column_count() {
    let trips: Vec<(usize, usize, f32)> = (0..6)
        .flat_map(|r| [(r, r, 1.0 + r as f32), (r, (r * 5 + 3) % 9, 0.5)])
        .collect();
    let a = CsrMatrix::from_triplets(6, 9, &trips).unwrap();
    let srv = server(ServeConfig::default());
    srv.register("rect", a.clone(), None);

    let block = |rows: usize| DenseMatrix::from_fn(rows, 4, |r, c| (r * 4 + c) as f32 * 0.25 - 2.0);
    let x = block(9);
    let got = srv
        .submit(req("rect", "t", x.clone(), Workload::Spmm))
        .unwrap()
        .wait()
        .unwrap();
    let (expect, _) = SerialSpmm.spmm_sequential(&a, &x).unwrap();
    assert_eq!(got, expect);

    let err = srv
        .submit(req("rect", "t", block(6), Workload::Spmm))
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::BadShape {
            expected_rows: 9,
            expected_cols: None,
            got: (6, 4)
        }
    );
    srv.shutdown();
}

/// A multi-layer model cannot run on a rectangular adjacency: layer 1's
/// input has one row per adjacency row, its aggregation needs one per
/// column. Such GCN requests are refused at admission with an error
/// naming the graph, on both entry points, and charge no queue slot. Raw
/// SpMM on the same graph, and a one-layer model on a rectangular
/// adjacency, are still served.
#[test]
fn gcn_on_a_rectangular_adjacency_is_refused_by_name() {
    let trips: Vec<(usize, usize, f32)> = (0..6)
        .flat_map(|r| [(r, r, 1.0 + r as f32), (r, (r * 5 + 3) % 9, 0.5)])
        .collect();
    let a = CsrMatrix::from_triplets(6, 9, &trips).unwrap();
    let srv = server(ServeConfig::default());
    srv.register("rect", a.clone(), Some(GcnModel::two_layer(4, 8, 3, 1)));
    let x = DenseMatrix::from_fn(9, 4, |r, c| (r * 4 + c) as f32 * 0.25 - 2.0);
    let refused = ServeError::RectangularGraph {
        graph: "rect".into(),
        shape: (6, 9),
        layers: 2,
    };
    let err = srv
        .submit(req("rect", "t", x.clone(), Workload::Gcn))
        .unwrap_err();
    assert_eq!(err, refused);
    let (outcomes, ticket) = srv.submit_many(vec![req("rect", "t", x.clone(), Workload::Gcn)]);
    assert_eq!(outcomes, vec![Some(refused)]);
    assert_eq!(ticket.expected(), 0);
    assert!(srv.stats().tenants.iter().all(|t| t.in_flight == 0));

    let got = srv
        .submit(req("rect", "t", x.clone(), Workload::Spmm))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(got, SerialSpmm.spmm_sequential(&a, &x).unwrap().0);

    let one_layer = GcnModel::new(vec![GcnLayer::new(
        DenseMatrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.125 - 0.5),
        Activation::Relu,
    )]);
    let engine = ExecEngine::new(1);
    let want = one_layer.forward(&a, &[&x], &engine).unwrap().remove(0);
    srv.register("rect1", a, Some(one_layer));
    let got = srv
        .submit(req("rect1", "t", x, Workload::Gcn))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!((got.rows(), got.cols()), (6, 3));
    assert_eq!(got.as_slice(), want.as_slice());
    srv.shutdown();
}

/// Shutting a server down, or dropping it, answers every admitted
/// request, even one still lingering in an open window.
#[test]
fn shutdown_and_drop_answer_every_admitted_request() {
    let oracle = |b: &DenseMatrix<f32>| SerialSpmm.spmm_sequential(&graph(1.0), b).unwrap().0;
    let srv = server(ServeConfig {
        max_linger: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    srv.register("g", graph(1.0), None);
    let tickets: Vec<_> = (0..4)
        .map(|salt| {
            srv.submit(req("g", "t", feats(2, salt), Workload::Spmm))
                .unwrap()
        })
        .collect();
    srv.shutdown();
    for (salt, t) in tickets.into_iter().enumerate() {
        assert_eq!(t.wait().unwrap(), oracle(&feats(2, salt)), "salt {salt}");
    }

    let srv = server(ServeConfig {
        max_linger: Duration::from_secs(5),
        ..ServeConfig::default()
    });
    srv.register("g", graph(1.0), None);
    let burst = (0..6)
        .map(|salt| req("g", "t", feats(3, salt), Workload::Spmm))
        .collect();
    let (refused, ticket) = srv.submit_many(burst);
    assert_eq!(refused, vec![None; 6]);
    drop(srv);
    for (salt, reply) in ticket.wait_all().into_iter().enumerate() {
        let got = reply.expect("admitted").expect("answered on drop");
        assert_eq!(got, oracle(&feats(3, salt)), "slot {salt}");
    }
}

/// A deep queue: each burst arrives as one message, so the dispatcher
/// finds 4 requests still queued once the 5-request burst's first is
/// taken, and 15 once the 16-request burst's first is. Every reply equals
/// the ascending row sum, and the queue drains to 0.
#[test]
fn deep_queue_bursts_keep_replies_exact() {
    let srv = server(ServeConfig {
        max_batch_cols: 16,
        ..ServeConfig::default()
    });
    srv.register("g", graph(1.0), None);
    let run_burst = |n: usize, salt: usize| {
        let burst = (0..n)
            .map(|i| req("g", "t", feats(2, salt + i), Workload::Spmm))
            .collect();
        let (refused, ticket) = srv.submit_many(burst);
        assert_eq!(refused, vec![None; n]);
        for (i, reply) in ticket.wait_all().into_iter().enumerate() {
            let got = reply.expect("admitted").expect("served");
            let (want, _) = SerialSpmm
                .spmm_sequential(&graph(1.0), &feats(2, salt + i))
                .unwrap();
            assert_eq!(got, want, "burst of {n}, slot {i}");
        }
    };
    run_burst(5, 0);
    run_burst(16, 100);
    assert_eq!(srv.stats().queue_depth, 0);
    srv.shutdown();
}

#[test]
fn engine_stats_are_threaded_through_serve_stats() {
    let srv = server(ServeConfig::default());
    srv.register("g", graph(1.0), None);
    srv.submit(req("g", "t", feats(4, 0), Workload::Spmm))
        .unwrap()
        .wait()
        .unwrap();
    let stats = srv.stats();
    assert!(
        stats.engine.arena_reuses + stats.engine.arena_misses > 0,
        "the served run's arena checkouts reach the serve snapshot"
    );
    assert!(stats.latency.samples >= 1);
    assert!(stats.latency.p99_us >= stats.latency.p50_us);
    srv.shutdown();
}

#[test]
fn wide_hidden_dim_gcn_serves_and_matches_forward() {
    // A 256-wide hidden layer on a multi-worker engine: the answer must
    // match the plain forward, and the GEMM's time and the arena's
    // checkouts must be visible in the snapshot.
    let srv = Server::start(
        Arc::new(ExecEngine::new(4)),
        Box::new(MergePathSpmm::with_threads(6)),
        ServeConfig::default(),
    );
    let model = GcnModel::two_layer(6, 256, 3, 42);
    srv.register("g", graph(1.0), Some(model));
    let x = feats(6, 0);
    let got = srv
        .submit(req("g", "t", x.clone(), Workload::Gcn))
        .unwrap()
        .wait()
        .unwrap();
    let reference = GcnModel::two_layer(6, 256, 3, 42);
    let expect = reference
        .forward(&graph(1.0), &[&x], &ExecEngine::new(1))
        .unwrap()
        .remove(0);
    assert_eq!(got, expect);
    let stats = srv.stats();
    assert!(stats.engine.gemm_ns > 0, "GEMM time surfaced");
    assert!(stats.engine.arena_misses > 0, "arena checkouts surfaced");
    srv.shutdown();
}

/// A served GCN reply on a power-law graph is the same bytes at engine
/// workers 1, 2 and 8: every aggregation row has one writer summing in
/// ascending order, and every GEMM band is computed the same way
/// whichever worker claims it.
#[test]
fn gcn_replies_are_identical_at_every_worker_count() {
    use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};
    let a = gcn_normalize(
        &DatasetSpec::custom("serve-powerlaw", GraphClass::PowerLaw, 600, 4_000, 60).synthesize(3),
    );
    let x = DenseMatrix::from_fn(600, 16, |r, c| ((r * 13 + c * 5) % 17) as f32 * 0.25 - 2.0);
    let reply = |workers: usize| -> Vec<u32> {
        let srv = Server::start(
            Arc::new(ExecEngine::new(workers)),
            Box::new(MergePathSpmm::new()),
            ServeConfig::default(),
        );
        srv.register("g", a.clone(), Some(GcnModel::two_layer(16, 64, 8, 42)));
        let got = srv
            .submit(req("g", "t", x.clone(), Workload::Gcn))
            .unwrap()
            .wait()
            .unwrap();
        srv.shutdown();
        got.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    let one = reply(1);
    for workers in [2, 8] {
        assert!(
            reply(workers) == one,
            "workers={workers} differs from one worker"
        );
    }
}

#[test]
fn fused_pipeline_stats_are_threaded_through_serve_stats() {
    let srv = server(ServeConfig::default());
    srv.register("g", graph(1.0), Some(GcnModel::two_layer(6, 10, 3, 42)));
    srv.submit(req("g", "t", feats(6, 0), Workload::Gcn))
        .unwrap()
        .wait()
        .unwrap();
    let stats = srv.stats();
    // The batched GCN path runs both halves of the fused layer pipeline
    // on the engine; its counters must surface through ServeStats.
    // Each of the two layers checks out its GEMM output and its
    // aggregation output, and layer 0 its packed 10-column `B`; layer
    // 1's 3-column `B` is packed too, except under AVX-512F, whose
    // rows-in-lanes tile reads it as it lies.
    let checkouts = stats.engine.arena_misses + stats.engine.arena_reuses;
    assert!(checkouts >= 5, "{checkouts} arena checkouts surfaced");
    assert!(stats.engine.gemm_ns > 0, "GEMM time was recorded");
    assert!(
        stats.engine.fused_epilogues > 0,
        "aggregation applied a fused epilogue"
    );
    srv.shutdown();
}

// ---------------------------------------------------------------------------
// Mega-batching: block-diagonal graph packing
// ---------------------------------------------------------------------------

/// A small ring-with-chords graph of arbitrary node count, structure
/// fixed by `nodes` and values by `seed` — so hot-swapping the seed is a
/// value-only swap.
fn small_graph(nodes: usize, seed: f32) -> CsrMatrix<f32> {
    let mut trips = Vec::new();
    for r in 0..nodes {
        trips.push((r, (r + 1) % nodes, seed + r as f32 * 0.25));
        if r % 3 == 0 {
            trips.push((r, (r + 5) % nodes, 0.5 * seed));
        }
    }
    CsrMatrix::from_triplets(nodes, nodes, &trips).unwrap()
}

fn small_feats(nodes: usize, cols: usize, salt: usize) -> DenseMatrix<f32> {
    DenseMatrix::from_fn(nodes, cols, |r, c| {
        ((r * 29 + c * 11 + salt) % 17) as f32 * 0.25 - 2.0
    })
}

/// A graph-packing server on an engine at the resolved worker count
/// (`MPSPMM_WORKERS`, swept over 1/2/8 by `scripts/tier1.sh`): packed
/// windows are exact at any worker count.
fn pack_server(linger_ms: u64) -> Server {
    Server::start(
        Arc::new(ExecEngine::new(default_workers())),
        Box::new(MergePathSpmm::with_threads(6)),
        ServeConfig {
            pack_graphs: true,
            max_linger: Duration::from_millis(linger_ms),
            ..ServeConfig::default()
        },
    )
}

#[test]
fn packed_windows_mix_graphs_and_match_sequential_execution() {
    let srv = pack_server(200);
    let sizes = [8usize, 12, 17, 24, 9, 31];
    for (i, &n) in sizes.iter().enumerate() {
        srv.register(&format!("g{i}"), small_graph(n, 1.0 + i as f32), None);
    }
    // Submit everything before waiting: one packed window coalesces all
    // six *different* graphs into a single block-diagonal execution.
    let tickets: Vec<_> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let b = small_feats(n, 4, i);
            let t = srv
                .submit(req(&format!("g{i}"), "t", b, Workload::Spmm))
                .unwrap();
            (i, n, t)
        })
        .collect();
    let reference = MergePathSpmm::with_threads(1);
    for (i, n, ticket) in tickets {
        let a = small_graph(n, 1.0 + i as f32);
        let (expect, _) = reference
            .spmm_sequential(&a, &small_feats(n, 4, i))
            .unwrap();
        let got = ticket.wait().unwrap();
        assert_eq!(got.rows(), n, "graph {i}");
        // Row-aligned packed execution is bit-identical to sequential.
        assert_eq!(got.max_abs_diff(&expect).unwrap(), 0.0, "graph {i}");
    }
    let stats = srv.stats();
    assert_eq!(stats.completed, 6);
    assert!(
        stats.packed_batches >= 1,
        "expected at least one packed window"
    );
    assert!(
        stats.mean_graphs_per_batch > 1.0,
        "packed windows hold more than one graph"
    );
    assert!(stats.packed_nnz > 0);
    assert!(
        stats.pack_efficiency > 0.0 && stats.pack_efficiency <= 1.0,
        "pack efficiency is a fraction of the window nnz budget, got {}",
        stats.pack_efficiency
    );
    assert_eq!(
        stats.graphs_per_batch_hist.iter().sum::<u64>(),
        stats.packed_batches,
        "every packed window lands in exactly one histogram bucket"
    );
    srv.shutdown();
}

#[test]
fn packed_gcn_windows_share_one_model_across_graphs() {
    let srv = pack_server(200);
    let model = Arc::new(GcnModel::two_layer(5, 9, 2, 7));
    let sizes = [10usize, 14, 21];
    for (i, &n) in sizes.iter().enumerate() {
        srv.registry().register_shared(
            &format!("g{i}"),
            small_graph(n, 0.5 + i as f32),
            Some(Arc::clone(&model)),
        );
    }
    let tickets: Vec<_> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let x = small_feats(n, 5, i);
            let t = srv
                .submit(req(&format!("g{i}"), "t", x, Workload::Gcn))
                .unwrap();
            (i, n, t)
        })
        .collect();
    let ref_engine = ExecEngine::new(1);
    for (i, n, ticket) in tickets {
        let a = small_graph(n, 0.5 + i as f32);
        let expect = model
            .forward(&a, &[&small_feats(n, 5, i)], &ref_engine)
            .unwrap()
            .remove(0);
        let got = ticket.wait().unwrap();
        assert_eq!(got.max_abs_diff(&expect).unwrap(), 0.0, "graph {i}");
    }
    assert_eq!(srv.stats().completed, 3);
    srv.shutdown();
}

#[test]
fn packed_windows_match_the_oracle_across_value_and_structural_swaps() {
    let srv = pack_server(200);
    for i in 0..4 {
        srv.register(&format!("g{i}"), graph(1.0 + i as f32), None);
    }
    let run_window = |salt: usize| -> Vec<DenseMatrix<f32>> {
        let tickets: Vec<_> = (0..4)
            .map(|i| {
                srv.submit(req(
                    &format!("g{i}"),
                    "t",
                    feats(3, salt + i),
                    Workload::Spmm,
                ))
                .unwrap()
            })
            .collect();
        tickets.into_iter().map(|t| t.wait().unwrap()).collect()
    };
    let oracle = |a: &CsrMatrix<f32>, salt: usize| {
        MergePathSpmm::with_threads(1)
            .spmm_sequential(a, &feats(3, salt))
            .unwrap()
            .0
    };
    run_window(0);
    assert_eq!(
        srv.stats().packed_batches,
        1,
        "all four requests packed one window"
    );

    // Value-only hot swap of one constituent: identical structure, new
    // edge weights. The window must read the new values.
    srv.register("g1", graph(42.0), None);
    let outs = run_window(10);
    assert_eq!(
        outs[1].max_abs_diff(&oracle(&graph(42.0), 11)).unwrap(),
        0.0
    );
    assert_eq!(outs[2].max_abs_diff(&oracle(&graph(3.0), 12)).unwrap(), 0.0);

    // Structural swap: one extra edge. The window's plan must follow the
    // new structure.
    let mut trips = Vec::new();
    for r in 0..NODES {
        trips.push((r, (r + 1) % NODES, 2.0 + r as f32 * 0.25));
        if r % 3 == 0 {
            trips.push((r, (r + 7) % NODES, 1.0));
        }
    }
    trips.push((0, 13, 1.0));
    let structural = CsrMatrix::from_triplets(NODES, NODES, &trips).unwrap();
    srv.register("g1", structural.clone(), None);
    let outs = run_window(20);
    assert_eq!(outs[1].max_abs_diff(&oracle(&structural, 21)).unwrap(), 0.0);
    assert_eq!(outs[3].max_abs_diff(&oracle(&graph(4.0), 23)).unwrap(), 0.0);
    srv.shutdown();
}

/// A graph whose every row holds `per_row` non-zeros: next to the
/// ring-with-chords graphs it holds most of a window's `rows + nnz`
/// items, so the engine's span cuts fall inside it.
fn heavy_graph(nodes: usize, per_row: usize, seed: f32) -> CsrMatrix<f32> {
    let trips: Vec<(usize, usize, f32)> = (0..nodes)
        .flat_map(|r| (0..per_row).map(move |j| (r, (r + j * 2) % nodes, seed - j as f32 * 0.0625)))
        .collect();
    CsrMatrix::from_triplets(nodes, nodes, &trips).unwrap()
}

/// The packed windows the constituent-path tests serve: graphs with no
/// non-zeros and with no rows among ring graphs, one graph alone, and
/// one heavy graph between two light ones.
fn packed_windows() -> Vec<Vec<CsrMatrix<f32>>> {
    vec![
        vec![
            small_graph(8, 1.0),
            CsrMatrix::from_triplets(5, 5, &[]).unwrap(),
            small_graph(13, 2.0),
            CsrMatrix::from_triplets(0, 0, &[]).unwrap(),
            small_graph(21, 3.0),
        ],
        vec![small_graph(17, 4.0)],
        vec![
            small_graph(6, 5.0),
            heavy_graph(60, 24, 1.5),
            small_graph(9, 6.0),
        ],
    ]
}

/// Every reply of a packed window is `==` to its graph's own
/// `GcnModel::forward` and its own `ExecEngine::spmm`, whatever else
/// shares the window: windows with empty and zero-row graphs, a
/// one-graph window, and a window whose span cuts fall inside one heavy
/// graph, through GCN models with bias + ReLU and bias-only layers and
/// through plain SpMM. Each burst is one window. `packed_nnz` is the sum
/// of the packed windows' constituent non-zeros, and `pack_efficiency`
/// is that sum over the windows' non-zero budget.
#[test]
fn packed_windows_equal_each_graphs_own_forward_and_spmm() {
    let srv = pack_server(200);
    let bias = |n: usize| (0..n).map(|j| 0.25 - j as f32 * 0.125).collect::<Vec<_>>();
    let model = Arc::new(GcnModel::new(vec![
        GcnLayer::with_bias(xavier_init(5, 9, 3), bias(9), Activation::Relu),
        GcnLayer::with_bias(xavier_init(9, 3, 4), bias(3), Activation::Identity),
    ]));
    let ref_engine = ExecEngine::new(1);
    let (mut packed_windows_run, mut packed_nnz) = (0u64, 0u64);
    for (w, graphs) in packed_windows().into_iter().enumerate() {
        let names: Vec<String> = (0..graphs.len()).map(|i| format!("w{w}g{i}")).collect();
        for (name, g) in names.iter().zip(&graphs) {
            srv.registry()
                .register_shared(name, g.clone(), Some(Arc::clone(&model)));
        }
        for workload in [Workload::Gcn, Workload::Spmm] {
            let width = if workload == Workload::Gcn { 5 } else { 4 };
            let feats: Vec<DenseMatrix<f32>> = graphs
                .iter()
                .enumerate()
                .map(|(i, g)| small_feats(g.cols(), width, 10 * w + i))
                .collect();
            let burst = names
                .iter()
                .zip(&feats)
                .map(|(name, x)| req(name, "t", x.clone(), workload))
                .collect();
            let (refused, ticket) = srv.submit_many(burst);
            assert!(refused.iter().all(Option::is_none), "{refused:?}");
            for (i, reply) in ticket.wait_all().into_iter().enumerate() {
                let got = reply.expect("admitted").expect("served");
                let (g, x) = (&graphs[i], &feats[i]);
                let want = match workload {
                    Workload::Gcn => model.forward(g, &[x], &ref_engine).unwrap(),
                    Workload::Spmm => ref_engine.spmm(g, &[x], &Epilogue::NONE).unwrap(),
                };
                assert_eq!(got, want[0], "window {w}, graph {i}, {workload:?}");
            }
            if graphs.len() > 1 {
                packed_windows_run += 1;
                packed_nnz += graphs.iter().map(|g| g.nnz() as u64).sum::<u64>();
            }
        }
    }
    let stats = srv.stats();
    assert_eq!(stats.packed_batches, packed_windows_run);
    assert_eq!(stats.packed_nnz, packed_nnz);
    let budget = (packed_windows_run * ServeConfig::default().max_batch_nnz as u64) as f64;
    assert_eq!(stats.pack_efficiency, packed_nnz as f64 / budget);
    srv.shutdown();
}

#[test]
fn packed_windows_are_counted_once_each() {
    let srv = pack_server(200);
    let sizes = [8usize, 12, 17, 24];
    for (i, &n) in sizes.iter().enumerate() {
        srv.register(&format!("g{i}"), small_graph(n, 1.0 + i as f32), None);
    }
    const WINDOWS: usize = 5;
    for w in 0..WINDOWS {
        let tickets: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                srv.submit(req(
                    &format!("g{i}"),
                    "t",
                    small_feats(n, 2, w + i),
                    Workload::Spmm,
                ))
                .unwrap()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
    }
    let stats = srv.stats();
    assert_eq!(stats.packed_batches, WINDOWS as u64);
    srv.shutdown();
}

#[test]
fn hot_swaps_free_the_retired_version() {
    let srv = server(ServeConfig::default());
    let v1 = srv.register("g", graph(1.0), None);
    let retired = Arc::downgrade(&v1);
    let adjacency = Arc::downgrade(v1.adjacency());
    for i in 0..50 {
        srv.register("g", graph(2.0 + i as f32), None);
    }
    drop(v1);
    assert!(
        retired.upgrade().is_none() && adjacency.upgrade().is_none(),
        "nothing keeps a retired version or its adjacency alive"
    );
    assert_eq!(srv.registry().len(), 1);
    srv.shutdown();
}

#[test]
fn burst_submission_aligns_outcomes_and_groups_replies() {
    // Bulk admission front door: one burst mixing admissible requests
    // (different graphs, several tenants) with every admission-error
    // class. Outcome slot i must describe request i, rejected requests
    // must never reply, and every admitted request's packed answer must
    // be bit-identical to the sequential oracle.
    let srv = server(ServeConfig {
        pack_graphs: true,
        max_linger: Duration::from_millis(200),
        tenant_queue_limit: 2,
        ..ServeConfig::default()
    });
    let sizes = [9usize, 14, 21, 11];
    for (i, &n) in sizes.iter().enumerate() {
        srv.register(&format!("g{i}"), small_graph(n, 3.0 + i as f32), None);
    }
    let mut reqs: Vec<Request> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            req(
                &format!("g{i}"),
                if i % 2 == 0 { "even" } else { "odd" },
                small_feats(n, 3, i),
                Workload::Spmm,
            )
        })
        .collect();
    // Slot 4: unknown graph. Slot 5: wrong feature rows. Slot 6: third
    // request for tenant "even" (limit 2) — typed queue-full rejection.
    reqs.push(req("missing", "even", small_feats(9, 3, 4), Workload::Spmm));
    reqs.push(req("g1", "odd", small_feats(9, 3, 5), Workload::Spmm));
    reqs.push(req("g3", "even", small_feats(11, 3, 6), Workload::Spmm));
    let (outcomes, ticket) = srv.submit_many(reqs);
    assert_eq!(outcomes.len(), 7);
    assert!(
        outcomes[..4].iter().all(Option::is_none),
        "valid slots admit"
    );
    assert!(matches!(outcomes[4], Some(ServeError::UnknownGraph(_))));
    assert!(matches!(outcomes[5], Some(ServeError::BadShape { .. })));
    assert!(matches!(
        outcomes[6],
        Some(ServeError::QueueFull { ref tenant, limit: 2 }) if tenant == "even"
    ));
    assert_eq!(ticket.expected(), 4);
    let replies = ticket.wait_all();
    assert_eq!(replies.len(), 7);
    assert!(
        replies[4..].iter().all(Option::is_none),
        "rejected requests never reply"
    );
    let reference = MergePathSpmm::with_threads(1);
    for (i, &n) in sizes.iter().enumerate() {
        let a = small_graph(n, 3.0 + i as f32);
        let (expect, _) = reference
            .spmm_sequential(&a, &small_feats(n, 3, i))
            .unwrap();
        let got = replies[i]
            .as_ref()
            .expect("admitted request replies")
            .as_ref()
            .expect("burst request succeeds");
        assert_eq!(
            got.max_abs_diff(&expect).unwrap(),
            0.0,
            "burst slot {i} deviates from the sequential oracle"
        );
    }
    let stats = srv.stats();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.rejected_queue_full, 1);
    assert!(
        stats.tenants.iter().all(|t| t.in_flight == 0),
        "rejections must not leak in-flight slots"
    );
    srv.shutdown();
}
