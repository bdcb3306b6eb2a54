//! The batching scheduler: a dispatcher thread that owns the request
//! queue and runs it as windows of coalesced requests.
//!
//! # Admission
//!
//! [`Server::submit`](crate::Server::submit) sends each admitted request,
//! and [`Server::submit_many`](crate::Server::submit_many) each burst, as
//! one message on an `mpsc` channel. The dispatcher drains the channel
//! into a `VecDeque` that no other thread touches, so no lock guards the
//! queue. Dropping the [`Server`](crate::Server) drops the channel's one
//! sender: the dispatcher answers everything already sent, then exits
//! once the channel is empty and disconnected.
//!
//! # Windows
//!
//! The dispatcher takes the oldest queued request, then *lingers* up to
//! [`ServeConfig::max_linger`](crate::ServeConfig::max_linger) sweeping
//! in every queued request with the same key until the window's budget
//! is full. Non-matching requests stay queued in arrival order. The two
//! modes differ only in the key and the budget:
//!
//! * a column window runs one graph version and one workload, and holds
//!   [`ServeConfig::max_batch_cols`](crate::ServeConfig::max_batch_cols)
//!   dense columns;
//! * with [`ServeConfig::pack_graphs`](crate::ServeConfig::pack_graphs),
//!   a packed window mixes graphs that share a workload, a feature width
//!   and (for GCN) a model, and holds
//!   [`ServeConfig::max_batch_graphs`](crate::ServeConfig::max_batch_graphs)
//!   graphs or
//!   [`ServeConfig::max_batch_nnz`](crate::ServeConfig::max_batch_nnz)
//!   non-zeros.
//!
//! # Backpressure degradation
//!
//! When more than
//! [`ServeConfig::pressure_threshold`](crate::ServeConfig::pressure_threshold)
//! requests are still queued once a window's first request is taken, the
//! window closes immediately (no linger — latency is already being paid
//! in the queue) and its column or graph budget halves, trading peak
//! coalescing for faster turn-around while overloaded: a window answers
//! all its requests at once, so a smaller one answers its first requests
//! sooner. Such windows are counted as `degraded_batches`.
//!
//! # Deadlines
//!
//! Deadlines are checked when the window is about to execute: expired
//! requests are shed with
//! [`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded)
//! rather than computed uselessly late, and they release their tenant's
//! queue slot like any other completion.
//!
//! # Panics
//!
//! Each window's compute runs under `catch_unwind`. A panic there answers
//! that window's requests with
//! [`ServeError::Internal`](crate::ServeError::Internal) and releases
//! their tenant slots; the dispatcher goes on with the next window.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpspmm_core::{Epilogue, ExecEngine, PackedGraphs, PackedOut};
use mpspmm_gcn::Adjacency;
use mpspmm_sparse::{DenseMatrix, SparseFormatError};

use crate::error::ServeError;
use crate::registry::ServedGraph;
use crate::stats::{StatsCollector, TenantState};
use crate::{ServeConfig, Workload};

/// One chunk of burst replies: `(index into the submitted vector,
/// result)` pairs. Grouped delivery matters on the serving box: a
/// packed window answers hundreds of requests back-to-back, and one
/// message per reply means one receiver wake-up per reply — a context
/// switch storm when client and dispatcher share cores. One grouped
/// send per window keeps it to one wake-up.
pub(crate) type BurstReplies = Vec<(usize, Result<DenseMatrix<f32>, ServeError>)>;

/// Where one request's reply goes: its own channel
/// ([`Server::submit`](crate::Server::submit)) or a slot on a burst's
/// shared channel ([`Server::submit_many`](crate::Server::submit_many)
/// — one channel per burst instead of one per request). The burst
/// sender is `Arc`-wrapped so the dispatcher can group same-burst
/// replies by channel identity.
pub(crate) enum ReplySink {
    Single(Sender<Result<DenseMatrix<f32>, ServeError>>),
    Tagged {
        tx: Arc<Sender<BurstReplies>>,
        index: usize,
    },
}

/// One admitted request parked in the queue.
pub(crate) struct Pending {
    pub graph: Arc<ServedGraph>,
    pub tenant: Arc<TenantState>,
    pub workload: Workload,
    pub features: Arc<DenseMatrix<f32>>,
    pub submitted: Instant,
    pub deadline: Option<Instant>,
    pub reply: ReplySink,
}

impl Pending {
    /// Requests with equal keys may share a window. A column window runs
    /// one graph version, which the `Arc` pointer identifies: hot swap
    /// allocates a new `ServedGraph`, and every queued request holds its
    /// own `Arc`. A packed window may mix graphs; what must agree is the
    /// feature width (one operand width for the whole window) and, for
    /// GCN, the model (one packed forward runs one weight set; models are
    /// compared by `Arc` pointer).
    fn key(&self, packed: bool) -> (Workload, usize, usize) {
        if !packed {
            return (self.workload, Arc::as_ptr(&self.graph) as usize, 0);
        }
        let model = match self.workload {
            Workload::Spmm => 0,
            Workload::Gcn => self.graph.model().map_or(0, |m| Arc::as_ptr(m) as usize),
        };
        (self.workload, self.features.cols(), model)
    }
}

/// State shared between the submit path and the dispatcher thread.
pub(crate) struct Shared {
    pub config: ServeConfig,
    pub engine: Arc<ExecEngine>,
    /// Requests admitted and not yet taken into a window. Admission adds
    /// before it sends, and the channel orders that add before the
    /// dispatcher's subtraction, so the count never wraps; it publishes
    /// nothing else, hence `Relaxed`.
    pub depth: AtomicUsize,
    pub stats: StatsCollector,
}

/// Dispatcher body: runs the queue as windows until every sender is gone
/// *and* the queue is empty (already-admitted requests are always
/// answered).
pub(crate) fn dispatcher_loop(shared: &Shared, requests: Receiver<Vec<Pending>>) {
    let mut queue = VecDeque::new();
    loop {
        queue.extend(requests.try_iter().flatten());
        let Some(first) = queue.pop_front() else {
            match requests.recv() {
                Ok(burst) => queue.extend(burst),
                Err(_) => return,
            }
            continue;
        };
        let (window, degraded) = collect_window(shared, &requests, &mut queue, first);
        run_window(shared, window, degraded);
    }
}

/// Grows a window around `first` per the policy above. Returns the
/// window (arrival order preserved) and whether the degraded policy
/// applied.
fn collect_window(
    shared: &Shared,
    requests: &Receiver<Vec<Pending>>,
    queue: &mut VecDeque<Pending>,
    first: Pending,
) -> (Vec<Pending>, bool) {
    let config = &shared.config;
    let packed = config.pack_graphs;
    let depth = shared.depth.fetch_sub(1, Ordering::Relaxed) - 1;
    let degraded = depth > config.pressure_threshold;
    let (linger, halved): (Duration, fn(usize) -> usize) = if degraded {
        (Duration::ZERO, |budget| (budget / 2).max(1))
    } else {
        (config.max_linger, |budget| budget)
    };
    // A column window weighs each request by its feature columns; a
    // packed window counts graphs and weighs each by its non-zeros.
    let (max_len, max_weight) = if packed {
        (halved(config.max_batch_graphs), config.max_batch_nnz)
    } else {
        (usize::MAX, halved(config.max_batch_cols))
    };
    let weight = |p: &Pending| {
        if packed {
            p.graph.adjacency().nnz()
        } else {
            p.features.cols()
        }
    };
    let close_at = Instant::now() + linger;
    let key = first.key(packed);
    let mut total = weight(&first);
    let mut window = vec![first];
    loop {
        // Sweep every queued request that matches the key.
        let before = window.len();
        let mut i = 0;
        while i < queue.len() && window.len() < max_len && total < max_weight {
            if queue[i].key(packed) == key {
                let p = queue.remove(i).expect("index checked in bounds");
                total += weight(&p);
                window.push(p);
            } else {
                i += 1;
            }
        }
        shared
            .depth
            .fetch_sub(window.len() - before, Ordering::Relaxed);
        let now = Instant::now();
        if window.len() >= max_len || total >= max_weight || now >= close_at {
            break;
        }
        // An arrival is swept in next iteration; a timeout, or every
        // sender gone, closes the window.
        match requests.recv_timeout(close_at - now) {
            Ok(burst) => queue.extend(burst.into_iter().chain(requests.try_iter().flatten())),
            Err(_) => break,
        }
    }
    (window, degraded)
}

/// Sheds a window's expired requests, runs the rest as one engine call
/// under `catch_unwind`, and answers every reply channel.
fn run_window(shared: &Shared, window: Vec<Pending>, degraded: bool) {
    let now = Instant::now();
    let mut expired = Vec::new();
    let mut live = Vec::with_capacity(window.len());
    for p in window {
        if p.deadline.is_some_and(|d| now > d) {
            expired.push(p);
        } else {
            live.push(p);
        }
    }
    reply_all(shared, expired, Err(ServeError::DeadlineExceeded));
    if live.is_empty() {
        return;
    }
    // The engine survives a panic in its kernels: the pool re-raises a
    // worker's panic here once every job of the run is done, and the
    // arena takes a poisoned lock as it is.
    let result = match catch_unwind(AssertUnwindSafe(|| execute(shared, &live))) {
        Ok(outs) => outs.map_err(|e| ServeError::Internal(e.to_string())),
        Err(panic) => {
            let reason = (panic.downcast_ref::<&str>().copied())
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            Err(ServeError::Internal(format!("window panicked: {reason}")))
        }
    };
    let cols = live.iter().map(|p| p.features.cols()).sum();
    shared.stats.record_batch(live.len(), cols, degraded);
    reply_all(shared, live, result);
}

/// Runs a window as one engine call and returns one output per request.
///
/// A column window multiplies its one graph by every request's block,
/// each folded in place into its own output. A packed window runs as
/// **one** engine call over its constituents ([`PackedGraphs`]): each
/// request's graph keeps its own CSR, each request's features are read
/// where they lie, and each graph's rows are stored straight into that
/// request's reply, so no block-diagonal matrix is built and nothing is
/// stacked or scattered. A packed window that shed down to one request
/// runs as a column window on the graph itself, exactly what a
/// non-packing server would have done.
fn execute(shared: &Shared, live: &[Pending]) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
    let engine = &shared.engine;
    let head = &live[0];
    let feats: Vec<&DenseMatrix<f32>> = live.iter().map(|p| p.features.as_ref()).collect();
    let run = |a: Adjacency<'_>| match (head.workload, a) {
        (Workload::Spmm, Adjacency::Graph(a)) => engine.spmm(a, &feats, &Epilogue::None),
        (Workload::Spmm, Adjacency::Packed(p)) => {
            engine.spmm_packed(p, &feats, &Epilogue::None, PackedOut::PerGraph)
        }
        (Workload::Gcn, a) => head
            .graph
            .model()
            .expect("Gcn workload admitted only for graphs with a model")
            .forward(a, &feats, engine),
    };
    let outs = if !shared.config.pack_graphs || live.len() == 1 {
        run(Adjacency::Graph(head.graph.adjacency()))?
    } else {
        let window = PackedGraphs::new(live.iter().map(|p| p.graph.adjacency().as_ref()));
        let outs = run(Adjacency::Packed(&window))?;
        shared
            .stats
            .record_packed(live.len(), window.nnz(), shared.config.max_batch_nnz);
        outs
    };
    #[cfg(test)]
    tests::panic_on_request(live);
    Ok(outs)
}

/// Delivers one per-request result (or the shared failure) to every
/// request's reply channel, updating the counters and releasing the
/// tenant slot either way.
fn reply_all(
    shared: &Shared,
    live: Vec<Pending>,
    result: Result<Vec<DenseMatrix<f32>>, ServeError>,
) {
    // Same-burst Tagged replies are grouped into one send per channel
    // per window — one receiver wake-up instead of one per request.
    let mut bursts: Vec<(Arc<Sender<BurstReplies>>, BurstReplies)> = Vec::new();
    let mut deliver = |p: Pending, result: Result<DenseMatrix<f32>, ServeError>| match p.reply {
        ReplySink::Single(tx) => {
            let _ = tx.send(result);
        }
        ReplySink::Tagged { tx, index } => {
            match bursts.iter_mut().find(|(t, _)| Arc::ptr_eq(t, &tx)) {
                Some((_, replies)) => replies.push((index, result)),
                None => bursts.push((tx, vec![(index, result)])),
            }
        }
    };
    match result {
        Ok(outs) => {
            debug_assert_eq!(outs.len(), live.len());
            // One completion instant and one latency-ring lock for the
            // whole window — per-reply clock reads and lock round-trips
            // are measurable at packed window sizes. The latencies are
            // recorded before the first reply leaves, so a client that
            // reads the stats right after its reply arrives sees its own
            // sample.
            let now = Instant::now();
            shared.stats.record_latencies(
                live.iter()
                    .map(|p| now.saturating_duration_since(p.submitted)),
            );
            for (p, out) in live.into_iter().zip(outs) {
                shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                p.tenant.completed.fetch_add(1, Ordering::Relaxed);
                p.tenant.in_flight.fetch_sub(1, Ordering::Relaxed);
                deliver(p, Ok(out));
            }
        }
        Err(e) => {
            // A shed request counts as shed; any other failure is a bug
            // (shapes were validated at admission), but a serving loop
            // must answer, not unwind.
            let shed = e == ServeError::DeadlineExceeded;
            for p in live {
                if shed {
                    shared
                        .stats
                        .rejected_deadline
                        .fetch_add(1, Ordering::Relaxed);
                    p.tenant.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                } else {
                    shared.stats.internal_errors.fetch_add(1, Ordering::Relaxed);
                }
                p.tenant.in_flight.fetch_sub(1, Ordering::Relaxed);
                deliver(p, Err(e.clone()));
            }
        }
    }
    for (tx, replies) in bursts {
        let _ = tx.send(replies);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    use mpspmm_core::{default_workers, ExecEngine, MergePathSpmm, SerialSpmm, SpmmKernel};
    use mpspmm_sparse::{CsrMatrix, DenseMatrix};

    use super::Pending;
    use crate::{BurstTicket, Request, ServeConfig, ServeError, Server, Workload};

    /// A window holding a request for the graph of this name panics in
    /// [`execute`](super::execute), after the engine has computed it.
    const PANICS: &str = "panics-in-its-window";

    pub(super) fn panic_on_request(live: &[Pending]) {
        if live.iter().any(|p| p.graph.name() == PANICS) {
            panic!("the window holds a request for {PANICS:?}");
        }
    }

    fn ring(nodes: usize, seed: f32) -> CsrMatrix<f32> {
        let trips: Vec<(usize, usize, f32)> = (0..nodes)
            .flat_map(|r| {
                [
                    (r, (r + 1) % nodes, seed + r as f32),
                    (r, (r * 7) % nodes, -0.25),
                ]
            })
            .collect();
        CsrMatrix::from_triplets(nodes, nodes, &trips).unwrap()
    }

    fn feats(rows: usize, salt: usize) -> DenseMatrix<f32> {
        DenseMatrix::from_fn(rows, 6, |r, c| {
            ((r * 7 + c * 3 + salt) % 11) as f32 * 0.5 - 2.5
        })
    }

    fn request(graph: &str, features: DenseMatrix<f32>) -> Request {
        Request {
            graph: graph.into(),
            tenant: "t".into(),
            features: Arc::new(features),
            workload: Workload::Spmm,
            deadline: None,
        }
    }

    fn bits(m: &DenseMatrix<f32>) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Waits for a burst on another thread, so that a dispatcher that
    /// never answers fails the test instead of hanging it.
    fn wait_all(ticket: BurstTicket) -> Vec<Option<Result<DenseMatrix<f32>, ServeError>>> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(ticket.wait_all()));
        rx.recv_timeout(Duration::from_secs(30))
            .expect("the burst is answered within 30 s")
    }

    /// A panic inside one window answers that window's requests with
    /// `Internal` and frees their tenant slots; the dispatcher goes on,
    /// and the next burst's replies equal the oracle bit for bit. A
    /// column server runs the first burst as one window per graph, a
    /// packing server as one window of all four requests.
    #[test]
    fn a_panicking_window_answers_internal_and_the_dispatcher_goes_on() {
        for pack_graphs in [false, true] {
            let srv = Server::start(
                Arc::new(ExecEngine::new(default_workers())),
                Box::new(MergePathSpmm::new()),
                ServeConfig {
                    pack_graphs,
                    tenant_queue_limit: 4,
                    ..ServeConfig::default()
                },
            );
            let good = ring(30, 1.0);
            srv.register("good", good.clone(), None);
            srv.register(PANICS, ring(20, 2.0), None);
            let oracle = |salt| {
                SerialSpmm
                    .spmm_sequential(&good, &feats(30, salt))
                    .unwrap()
                    .0
            };

            let burst = (0..4)
                .map(|i| match i % 2 {
                    0 => request("good", feats(30, i)),
                    _ => request(PANICS, feats(20, i)),
                })
                .collect();
            let (refused, ticket) = srv.submit_many(burst);
            assert_eq!(refused, vec![None; 4]);
            for (i, reply) in wait_all(ticket).into_iter().enumerate() {
                let reply = reply.expect("every admitted request is answered");
                if pack_graphs || i % 2 == 1 {
                    assert!(
                        matches!(&reply, Err(ServeError::Internal(m)) if m.contains(PANICS)),
                        "pack {pack_graphs}, slot {i}: {reply:?}"
                    );
                } else {
                    assert_eq!(bits(&reply.unwrap()), bits(&oracle(i)), "slot {i}");
                }
            }
            let stats = srv.stats();
            assert_eq!(stats.internal_errors, if pack_graphs { 4 } else { 2 });
            assert_eq!(
                stats.tenants[0].in_flight, 0,
                "the failed window freed its slots"
            );

            // The tenant's limit is the burst size: a leaked slot would
            // refuse one of these with `QueueFull`.
            let (refused, ticket) =
                srv.submit_many((0..4).map(|i| request("good", feats(30, 10 + i))).collect());
            assert_eq!(refused, vec![None; 4]);
            for (i, reply) in wait_all(ticket).into_iter().enumerate() {
                let got = reply.expect("admitted").expect("served");
                assert_eq!(
                    bits(&got),
                    bits(&oracle(10 + i)),
                    "pack {pack_graphs}, slot {i}"
                );
            }
            srv.shutdown();
        }
    }
}
