//! `mpspmm-serve` — batched, multi-tenant inference serving over the
//! MergePath-SpMM execution engine.
//!
//! The paper's kernel makes one SpMM fast; a serving process has to make
//! *millions of small SpMMs from concurrent clients* fast. The dominant
//! lever (Batched SpMM for GCN, ICASSP 2019; GE-SpMM's row-reuse
//! argument) is coalescing: many narrow per-request multiplies against
//! the same graph become one dense-column batch, run as one engine call
//! over the request blocks where they lie: one row-span cut and one pool
//! dispatch per *batch* instead of per request, each block folded
//! straight into its own reply.
//!
//! The subsystem has four parts:
//!
//! * [`GraphRegistry`] — named graphs with their optional
//!   [`GcnModel`]s, with **versioned hot swap**: replacing or
//!   retiring a graph never drains in-flight requests; they complete
//!   against the version they were admitted with.
//! * The **batching scheduler** ([`Server`]'s dispatcher thread) — owns
//!   the request queue, fed by one channel from the submit calls, and
//!   coalesces concurrent requests keyed by `(graph version, workload)`
//!   into dense-column batches bounded by [`ServeConfig::max_batch_cols`]
//!   and [`ServeConfig::max_linger`], executed as a *single* engine run
//!   on the engine's worker pool. A panic while one window computes
//!   answers that window with [`ServeError::Internal`]; the dispatcher
//!   goes on serving.
//! * **Admission control & backpressure** — bounded per-tenant in-flight
//!   queues rejecting with the typed
//!   [`ServeError::QueueFull`], deadline-aware shedding
//!   ([`ServeError::DeadlineExceeded`]), and graceful degradation to
//!   smaller, zero-linger batches when the queue is deep.
//! * [`ServeStats`] — per-tenant and global counters, batch-size
//!   histogram, p50/p95/p99 latency, and the engine's dispatch and
//!   arena counters in one snapshot.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mpspmm_core::{ExecEngine, MergePathSpmm};
//! use mpspmm_serve::{Request, ServeConfig, Server, Workload};
//! use mpspmm_sparse::{CsrMatrix, DenseMatrix};
//!
//! let engine = Arc::new(ExecEngine::new(1));
//! let server = Server::start(engine, Box::new(MergePathSpmm::new()), ServeConfig::default());
//! let a = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0f32), (2, 0, 2.0)])?;
//! server.registry().register("demo", a, None);
//!
//! let ticket = server.submit(Request {
//!     graph: "demo".into(),
//!     tenant: "t0".into(),
//!     features: Arc::new(DenseMatrix::from_fn(3, 2, |r, c| (r + c) as f32)),
//!     workload: Workload::Spmm,
//!     deadline: None,
//! })?;
//! let out = ticket.wait()?;
//! assert_eq!(out.get(0, 1), 2.0); // row 0 aggregates node 1's features
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod error;
mod registry;
mod stats;

pub use error::ServeError;
#[doc(hidden)]
pub use registry::DEFAULT_PLAN_DIM;
pub use registry::{GraphRegistry, ServedGraph};
pub use stats::{LatencySummary, ServeStats, TenantStats, BATCH_HIST_BUCKETS};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpspmm_core::{ExecEngine, SpmmKernel};
use mpspmm_gcn::GcnModel;
use mpspmm_sparse::DenseMatrix;

use batcher::{Pending, ReplySink, Shared};

// Referenced by doc comments.
#[allow(unused_imports)]
use mpspmm_core::EngineStats;

/// Tunables of the batching scheduler and admission control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Dense-column budget per batch: a batch closes once the coalesced
    /// requests reach this many feature columns. One oversized request
    /// still runs (as its own batch).
    pub max_batch_cols: usize,
    /// How long the dispatcher holds a batch open waiting for more
    /// matching requests. Zero disables lingering (a batch takes only
    /// what is already queued).
    pub max_linger: Duration,
    /// Per-tenant bound on admitted-but-unanswered requests; submissions
    /// beyond it are rejected with [`ServeError::QueueFull`].
    pub tenant_queue_limit: usize,
    /// Queue depth beyond which the degraded batching policy applies
    /// (no linger, halved column or graph budget). The depth is counted
    /// once a window's first request is taken, as
    /// [`ServeStats::queue_depth`] counts it.
    pub pressure_threshold: usize,
    /// Graph-packing mode: within a batch window, admit requests for
    /// *different* small registered graphs and run the whole window as
    /// one engine call over its constituents
    /// ([`PackedGraphs`](mpspmm_core::PackedGraphs)): each graph keeps
    /// its own CSR, each request's features are read where they lie, and
    /// each graph's rows are stored straight into its reply. Off by
    /// default — the classic same-graph column batching is better when
    /// traffic concentrates on few graphs; packing is for the
    /// thousands-of-tiny-graphs (Type II molecular) profile.
    pub pack_graphs: bool,
    /// Constituent-graph budget per packed window: a window closes once
    /// it holds this many graphs. Only read when `pack_graphs` is set.
    pub max_batch_graphs: usize,
    /// Non-zero budget per packed window: a window closes once its
    /// constituents' combined nnz reach this. Also the capacity against
    /// which [`ServeStats::pack_efficiency`] is measured. Only read when
    /// `pack_graphs` is set.
    pub max_batch_nnz: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch_cols: 64,
            max_linger: Duration::from_micros(200),
            tenant_queue_limit: 64,
            pressure_threshold: 256,
            pack_graphs: false,
            max_batch_graphs: 256,
            max_batch_nnz: 1 << 20,
        }
    }
}

/// What a request asks the server to compute over its feature block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// One aggregation: `Â × features` on the engine. Any column width.
    Spmm,
    /// A full GCN forward pass through the graph's registered model;
    /// the block's width must equal the model's input width.
    Gcn,
}

/// One inference request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Registered graph name to route to.
    pub graph: String,
    /// Tenant identifier for admission control and stats.
    pub tenant: String,
    /// Dense feature block, `nodes × k` (for [`Workload::Gcn`], `k` must
    /// be the model's input width). Shared, not owned: submission is
    /// zero-copy, so one block can fan out to many requests (or graphs)
    /// without duplicating a node-count-sized buffer per request.
    pub features: Arc<DenseMatrix<f32>>,
    /// What to compute.
    pub workload: Workload,
    /// Optional time budget from submission; requests still queued when
    /// it elapses are shed with [`ServeError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

/// Handle to one in-flight request's eventual reply.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<DenseMatrix<f32>, ServeError>>,
}

impl Ticket {
    /// Blocks until the server answers.
    pub fn wait(self) -> Result<DenseMatrix<f32>, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }
}

/// Handle to a whole burst submitted through
/// [`Server::submit_many`]: every admitted request's reply arrives on
/// one shared channel, tagged with its index in the submitted vector.
#[derive(Debug)]
pub struct BurstTicket {
    rx: mpsc::Receiver<batcher::BurstReplies>,
    expected: usize,
    total: usize,
}

impl BurstTicket {
    /// How many requests of the burst were admitted (and will reply).
    pub fn expected(&self) -> usize {
        self.expected
    }

    /// Blocks until every admitted request has answered. Slot `i` holds
    /// request `i`'s result, `None` for requests rejected at admission
    /// (their error came back from `submit_many` itself) — or, if the
    /// dispatcher died mid-burst, for replies that never arrived.
    pub fn wait_all(self) -> Vec<Option<Result<DenseMatrix<f32>, ServeError>>> {
        let mut out: Vec<Option<Result<DenseMatrix<f32>, ServeError>>> =
            (0..self.total).map(|_| None).collect();
        let mut got = 0usize;
        while got < self.expected {
            // Replies arrive in window-sized groups (see the dispatcher's
            // grouped delivery) — one blocking receive drains a window.
            match self.rx.recv() {
                Ok(replies) => {
                    for (index, result) in replies {
                        out[index] = Some(result);
                        got += 1;
                    }
                }
                Err(_) => break,
            }
        }
        out
    }
}

/// The serving front end: admission control on the caller's thread, one
/// dispatcher thread running the batching scheduler.
pub struct Server {
    shared: Arc<Shared>,
    registry: Arc<GraphRegistry>,
    /// The request channel's one sender; `None` only while dropping,
    /// since taking it is what tells the dispatcher to finish.
    requests: Option<mpsc::Sender<Vec<Pending>>>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts a server executing on `engine`. `kernel` is unused; it
    /// stays in the signature for the serving benchmark, which still
    /// passes one.
    pub fn start(
        engine: Arc<ExecEngine>,
        _kernel: Box<dyn SpmmKernel>,
        config: ServeConfig,
    ) -> Self {
        let registry = Arc::new(GraphRegistry::new());
        let shared = Arc::new(Shared {
            config,
            engine,
            depth: AtomicUsize::new(0),
            stats: stats::StatsCollector::default(),
        });
        let (requests, rx) = mpsc::channel();
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mpspmm-serve-dispatch".into())
                .spawn(move || batcher::dispatcher_loop(&shared, rx))
                .expect("spawn dispatcher thread")
        };
        Self {
            shared,
            registry,
            requests: Some(requests),
            dispatcher: Some(dispatcher),
        }
    }

    /// The graph registry — register/replace/retire graphs here.
    pub fn registry(&self) -> &GraphRegistry {
        &self.registry
    }

    /// The scheduler configuration this server runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Admits `req` (or rejects it with a typed error) and returns the
    /// [`Ticket`] its reply arrives on.
    ///
    /// Admission runs entirely on the caller's thread: graph resolution
    /// (pinning the *current* version for the request's whole lifetime),
    /// shape validation, and the per-tenant bounded-queue check.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownGraph`], [`ServeError::NoModel`],
    /// [`ServeError::RectangularGraph`], [`ServeError::BadShape`], or the
    /// backpressure signal [`ServeError::QueueFull`].
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        let (tx, rx) = mpsc::channel();
        let pending = self.admit(req, ReplySink::Single(tx))?;
        self.enqueue(vec![pending]);
        Ok(Ticket { rx })
    }

    /// **Bulk admission**: admits every request in `reqs` and sends them
    /// to the dispatcher as one message, all replies multiplexed over a
    /// single shared channel. This is the intended front door for
    /// packed-window clients — a per-request [`submit`](Self::submit) pays
    /// a reply channel and a message per request, which at thousands of
    /// tiny graphs per second costs more than the math.
    ///
    /// Admission checks (graph resolution, shape validation, per-tenant
    /// queue bounds) still run per request; request `i`'s admission
    /// error, if any, lands in slot `i` of the returned vector and no
    /// reply will arrive for it. Admitted requests flow through the
    /// same queue, shedding, and packing windows as singly-submitted
    /// ones — the two entry points are indistinguishable downstream.
    pub fn submit_many(&self, reqs: Vec<Request>) -> (Vec<Option<ServeError>>, BurstTicket) {
        let total = reqs.len();
        let (tx, rx) = mpsc::channel();
        let tx = Arc::new(tx);
        let mut outcomes = Vec::with_capacity(total);
        let mut admitted = Vec::with_capacity(total);
        // One routing-table lock, one clock read, and (via the small
        // per-burst cache below) one tenant-table lock per *distinct*
        // tenant for the whole burst — per-request `admit` would pay
        // all three per request, which at packed-window rates is real
        // money. Tenant entries are still created lazily, only for
        // requests that pass validation, exactly as in `admit`.
        let graphs = self
            .registry
            .get_many(reqs.iter().map(|r| r.graph.as_str()));
        let submitted = Instant::now();
        let mut tenant_cache: Vec<(String, Arc<stats::TenantState>)> = Vec::new();
        for (index, (req, graph)) in reqs.into_iter().zip(graphs).enumerate() {
            let sink = ReplySink::Tagged {
                tx: Arc::clone(&tx),
                index,
            };
            let tenant = |name: &str| match tenant_cache.iter().find(|(n, _)| n == name) {
                Some((_, t)) => Arc::clone(t),
                None => {
                    let t = self.shared.stats.tenant(name);
                    tenant_cache.push((name.to_string(), Arc::clone(&t)));
                    t
                }
            };
            match self.admit_resolved(req, graph, tenant, submitted, sink) {
                Ok(p) => {
                    admitted.push(p);
                    outcomes.push(None);
                }
                Err(e) => outcomes.push(Some(e)),
            }
        }
        let expected = admitted.len();
        if expected > 0 {
            self.enqueue(admitted);
        }
        (
            outcomes,
            BurstTicket {
                rx,
                expected,
                total,
            },
        )
    }

    /// Shared admission body of [`submit`](Self::submit) and
    /// [`submit_many`](Self::submit_many): resolves and validates the
    /// request, charges the tenant's queue slot, and returns the queue
    /// entry — the caller enqueues it.
    fn admit(&self, req: Request, reply: ReplySink) -> Result<Pending, ServeError> {
        let graph = self.registry.get(&req.graph);
        let tenant = |name: &str| self.shared.stats.tenant(name);
        self.admit_resolved(req, graph, tenant, Instant::now(), reply)
    }

    /// Counts `burst` into the queue depth, then sends it to the
    /// dispatcher. The send fails only if the dispatcher has died; the
    /// burst's tickets then read [`ServeError::Disconnected`].
    fn enqueue(&self, burst: Vec<Pending>) {
        self.shared.depth.fetch_add(burst.len(), Ordering::Relaxed);
        if let Some(requests) = &self.requests {
            let _ = requests.send(burst);
        }
    }

    /// Admission with the lock-heavy lookups already done (or deferred
    /// into closures) by the caller: [`submit_many`](Self::submit_many)
    /// resolves graphs for the whole burst under one registry lock and
    /// memoizes tenant handles per burst; [`submit`](Self::submit) just
    /// inlines the single lookups. Validation, tenant queue-bound
    /// charging, and counters are identical on both paths.
    fn admit_resolved(
        &self,
        req: Request,
        graph: Option<Arc<registry::ServedGraph>>,
        tenant: impl FnMut(&str) -> Arc<stats::TenantState>,
        submitted: Instant,
        reply: ReplySink,
    ) -> Result<Pending, ServeError> {
        let mut tenant = tenant;
        let graph = graph.ok_or_else(|| ServeError::UnknownGraph(req.graph.clone()))?;
        let expected_cols = match req.workload {
            Workload::Spmm => None,
            Workload::Gcn => {
                let model = graph
                    .model()
                    .ok_or_else(|| ServeError::NoModel(req.graph.clone()))?;
                let a = graph.adjacency();
                let layers = model.layers().len();
                if layers > 1 && a.rows() != a.cols() {
                    return Err(ServeError::RectangularGraph {
                        graph: req.graph.clone(),
                        shape: (a.rows(), a.cols()),
                        layers,
                    });
                }
                Some(model.in_features())
            }
        };
        let got = (req.features.rows(), req.features.cols());
        // The engine multiplies the features by the adjacency, so their
        // rows must match its columns (its rows when square).
        let expected_rows = graph.adjacency().cols();
        if got.0 != expected_rows || expected_cols.is_some_and(|c| c != got.1) {
            return Err(ServeError::BadShape {
                expected_rows,
                expected_cols,
                got,
            });
        }
        let tenant = tenant(&req.tenant);
        let limit = self.shared.config.tenant_queue_limit;
        if tenant.in_flight.fetch_add(1, Ordering::AcqRel) >= limit {
            tenant.in_flight.fetch_sub(1, Ordering::AcqRel);
            tenant.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
            self.shared
                .stats
                .rejected_queue_full
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::QueueFull {
                tenant: req.tenant,
                limit,
            });
        }
        tenant.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(Pending {
            graph,
            tenant,
            workload: req.workload,
            features: req.features,
            submitted,
            deadline: req.deadline.map(|d| submitted + d),
            reply,
        })
    }

    /// Convenience: register a graph (optionally with a model) on this
    /// server's registry. Equivalent to `self.registry().register(...)`.
    pub fn register(
        &self,
        name: &str,
        adjacency: mpspmm_sparse::CsrMatrix<f32>,
        model: Option<GcnModel>,
    ) -> Arc<ServedGraph> {
        self.registry.register(name, adjacency, model)
    }

    /// Snapshot of the serving counters, including the engine's.
    pub fn stats(&self) -> ServeStats {
        let depth = self.shared.depth.load(Ordering::Relaxed);
        self.shared
            .stats
            .snapshot(depth, self.shared.engine.stats())
    }

    /// Answers everything already admitted and joins the dispatcher, as
    /// dropping the server does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Dropping the one sender disconnects the channel: the dispatcher
        // answers what was sent, then exits.
        self.requests = None;
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.shared.config)
            .field("registry", &self.registry)
            .finish()
    }
}
