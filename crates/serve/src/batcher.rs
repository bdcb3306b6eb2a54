//! The batching scheduler: a dispatcher thread that coalesces queued
//! requests into dense-column batches.
//!
//! # Policy
//!
//! A batch is keyed by `(graph name, graph version, workload)` — only
//! requests that can share one engine run coalesce. The dispatcher takes
//! the oldest queued request, then *lingers* up to
//! [`ServeConfig::max_linger`](crate::ServeConfig::max_linger) sweeping
//! in every matching request until the batch holds
//! [`ServeConfig::max_batch_cols`](crate::ServeConfig::max_batch_cols)
//! dense columns. Non-matching requests stay queued in arrival order.
//!
//! # Backpressure degradation
//!
//! When the queue is deeper than
//! [`ServeConfig::pressure_threshold`](crate::ServeConfig::pressure_threshold),
//! the batch closes immediately (no linger — latency is already being
//! paid in the queue) and its column budget halves, trading peak
//! coalescing for faster turn-around while overloaded: a batch answers
//! all its requests at once, so a smaller one answers its first requests
//! sooner. Such batches are counted as `degraded_batches`.
//!
//! # Deadlines
//!
//! Deadlines are checked when the batch is about to execute: expired
//! requests are shed with
//! [`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded)
//! rather than computed uselessly late, and they release their tenant's
//! queue slot like any other completion.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mpspmm_core::{BatchMergeSpmm, BatchShapeClass, ExecEngine};
use mpspmm_sparse::{BlockDiagCsr, CsrMatrix, DenseMatrix};

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
    Single(std::sync::mpsc::Sender<Result<DenseMatrix<f32>, ServeError>>),
    Tagged {
        tx: Arc<std::sync::mpsc::Sender<BurstReplies>>,
        index: usize,
    },
}

impl ReplySink {
    /// Delivers one reply on its own; a disconnected receiver is the
    /// client's business, not the dispatcher's. Batch paths should
    /// group Tagged replies instead (see [`reply_all`]).
    pub(crate) fn send(&self, result: Result<DenseMatrix<f32>, ServeError>) {
        match self {
            ReplySink::Single(tx) => {
                let _ = tx.send(result);
            }
            ReplySink::Tagged { tx, index } => {
                let _ = tx.send(vec![(*index, result)]);
            }
        }
    }
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
    fn batch_key(&self) -> (usize, u64, Workload) {
        // The Arc pointer identifies the graph *version* (hot swap
        // allocates a new ServedGraph), so one batch never mixes
        // versions; name+version would be equivalent but costlier.
        (
            Arc::as_ptr(&self.graph) as usize,
            self.graph.version(),
            self.workload,
        )
    }

    /// Graph-packing compatibility key: unlike [`batch_key`]
    /// (Self::batch_key), *different* graphs may share a packed window —
    /// what must agree is the workload, the feature width (vertical
    /// stacking), and, for GCN, the model (one packed forward runs one
    /// weight set; models are compared by `Arc` pointer).
    fn pack_key(&self) -> (Workload, usize, usize) {
        let model_ptr = match self.workload {
            Workload::Spmm => 0,
            Workload::Gcn => self.graph.model().map_or(0, |m| Arc::as_ptr(m) as usize),
        };
        (self.workload, self.features.cols(), model_ptr)
    }
}

/// State shared between the submit path and the dispatcher thread.
pub(crate) struct Shared {
    pub config: ServeConfig,
    pub engine: Arc<ExecEngine>,
    pub queue: Mutex<VecDeque<Pending>>,
    pub ready: Condvar,
    pub shutdown: std::sync::atomic::AtomicBool,
    pub stats: StatsCollector,
}

/// Dispatcher body: drains the queue into batches until shutdown is
/// flagged *and* the queue is empty (already-admitted requests are
/// always answered).
pub(crate) fn dispatcher_loop(shared: &Shared) {
    loop {
        let first = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(p) = queue.pop_front() {
                    break p;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.ready.wait(queue).unwrap();
            }
        };
        if shared.config.pack_graphs {
            let (batch, degraded) = collect_packed(shared, first);
            execute_packed(shared, batch, degraded);
        } else {
            let (batch, degraded) = collect_batch(shared, first);
            execute_batch(shared, batch, degraded);
        }
    }
}

/// Grows a batch around `first` per the policy above. Returns the batch
/// (arrival order preserved) and whether the degraded policy applied.
fn collect_batch(shared: &Shared, first: Pending) -> (Vec<Pending>, bool) {
    let key = first.batch_key();
    let mut cols = first.features.cols();
    let mut batch = vec![first];
    let mut queue = shared.queue.lock().unwrap();
    let degraded = queue.len() > shared.config.pressure_threshold;
    let (max_cols, linger) = if degraded {
        ((shared.config.max_batch_cols / 2).max(1), Duration::ZERO)
    } else {
        (shared.config.max_batch_cols, shared.config.max_linger)
    };
    let close_at = Instant::now() + linger;
    loop {
        // Sweep every currently queued request that matches the key.
        let mut i = 0;
        while i < queue.len() && cols < max_cols {
            if queue[i].batch_key() == key {
                let p = queue.remove(i).expect("index checked in bounds");
                cols += p.features.cols();
                batch.push(p);
            } else {
                i += 1;
            }
        }
        if cols >= max_cols || shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let now = Instant::now();
        if now >= close_at {
            break;
        }
        // Woken by an arrival (sweep it in next iteration) or by the
        // linger timeout (one final sweep, then the time check exits).
        let (q, _timeout) = shared.ready.wait_timeout(queue, close_at - now).unwrap();
        queue = q;
    }
    drop(queue);
    (batch, degraded)
}

/// Grows a **packed** window around `first`: any request whose
/// [`pack_key`](Pending::pack_key) matches may join — different graphs
/// included — until the window holds
/// [`ServeConfig::max_batch_graphs`](crate::ServeConfig::max_batch_graphs)
/// constituents or
/// [`ServeConfig::max_batch_nnz`](crate::ServeConfig::max_batch_nnz)
/// combined non-zeros. Degradation halves the graph budget and drops the
/// linger, mirroring the column-batch policy.
fn collect_packed(shared: &Shared, first: Pending) -> (Vec<Pending>, bool) {
    let key = first.pack_key();
    let mut nnz = first.graph.adjacency().nnz();
    let mut batch = vec![first];
    let mut queue = shared.queue.lock().unwrap();
    let degraded = queue.len() > shared.config.pressure_threshold;
    let (max_graphs, linger) = if degraded {
        ((shared.config.max_batch_graphs / 2).max(1), Duration::ZERO)
    } else {
        (shared.config.max_batch_graphs, shared.config.max_linger)
    };
    let max_nnz = shared.config.max_batch_nnz;
    let close_at = Instant::now() + linger;
    loop {
        let mut i = 0;
        while i < queue.len() && batch.len() < max_graphs && nnz < max_nnz {
            if queue[i].pack_key() == key {
                let p = queue.remove(i).expect("index checked in bounds");
                nnz += p.graph.adjacency().nnz();
                batch.push(p);
            } else {
                i += 1;
            }
        }
        if batch.len() >= max_graphs || nnz >= max_nnz || shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let now = Instant::now();
        if now >= close_at {
            break;
        }
        let (q, _timeout) = shared.ready.wait_timeout(queue, close_at - now).unwrap();
        queue = q;
    }
    drop(queue);
    (batch, degraded)
}

/// Answers expired members with `DeadlineExceeded` and returns the
/// survivors. Shedding is per request, whatever batching mode collected
/// the window.
fn shed_expired(shared: &Shared, batch: Vec<Pending>) -> Vec<Pending> {
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for p in batch {
        if p.deadline.is_some_and(|d| now > d) {
            shared
                .stats
                .rejected_deadline
                .fetch_add(1, Ordering::Relaxed);
            p.tenant.rejected_deadline.fetch_add(1, Ordering::Relaxed);
            p.tenant.in_flight.fetch_sub(1, Ordering::Relaxed);
            p.reply.send(Err(ServeError::DeadlineExceeded));
        } else {
            live.push(p);
        }
    }
    live
}

/// Delivers one per-request result (or the shared failure) to every
/// survivor's reply channel, updating completion counters either way.
fn reply_all(
    shared: &Shared,
    live: Vec<Pending>,
    result: Result<Vec<DenseMatrix<f32>>, mpspmm_sparse::SparseFormatError>,
) {
    // Same-burst Tagged replies are grouped into one send per channel
    // per window — one receiver wake-up instead of one per request.
    let mut bursts: Vec<(Arc<std::sync::mpsc::Sender<BurstReplies>>, BurstReplies)> = Vec::new();
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
            // Shapes were validated at admission, so this is a bug — but
            // a serving loop must answer, not unwind.
            for p in live {
                shared.stats.internal_errors.fetch_add(1, Ordering::Relaxed);
                p.tenant.in_flight.fetch_sub(1, Ordering::Relaxed);
                deliver(p, Err(ServeError::Internal(e.to_string())));
            }
        }
    }
    for (tx, replies) in bursts {
        let _ = tx.send(replies);
    }
}

/// Sheds expired members, runs the survivors as one engine run, and
/// answers every reply channel.
fn execute_batch(shared: &Shared, batch: Vec<Pending>, degraded: bool) {
    let live = shed_expired(shared, batch);
    run_column_batch(shared, live, degraded);
}

/// The classic same-graph column batch: one engine run over the feature
/// blocks of `live` (all sharing one graph version), each folded in
/// place into its own reply.
fn run_column_batch(shared: &Shared, live: Vec<Pending>, degraded: bool) {
    let Some(head) = live.first() else { return };
    let graph = Arc::clone(&head.graph);
    let workload = head.workload;
    let blocks: Vec<&DenseMatrix<f32>> = live.iter().map(|p| p.features.as_ref()).collect();
    let cols: usize = blocks.iter().map(|b| b.cols()).sum();
    let result = match workload {
        Workload::Spmm => {
            shared
                .engine
                .execute_prepared_batch(graph.prep(), graph.adjacency(), &blocks)
        }
        Workload::Gcn => {
            let model = graph
                .model()
                .expect("Gcn workload admitted only for graphs with a model");
            model.forward_batched_prepared(graph.adjacency(), graph.prep(), &blocks, &shared.engine)
        }
    };
    drop(blocks);
    shared.stats.record_batch(live.len(), cols, degraded);
    reply_all(shared, live, result);
}

/// Sheds, then runs a packed window as **one** block-diagonal execution:
/// constituent adjacencies concatenate on the diagonal, feature blocks
/// stack vertically, one prepared-plan run (or one GCN forward over the
/// stacked features as a single block) computes everything, and each
/// request's result is scattered back out of its private row band.
///
/// A window that shrinks to a single survivor skips the packing and runs
/// the classic path against the graph's own plan — zero-copy, and
/// exactly what a non-packing server would have done.
fn execute_packed(shared: &Shared, batch: Vec<Pending>, degraded: bool) {
    let live = shed_expired(shared, batch);
    if live.len() <= 1 {
        return run_column_batch(shared, live, degraded);
    }
    let workload = live[0].workload;
    let cols = live[0].features.cols();
    let result = (|| {
        let constituents: Vec<Arc<CsrMatrix<f32>>> = live
            .iter()
            .map(|p| Arc::clone(p.graph.adjacency()))
            .collect();
        let pack = BlockDiagCsr::build(&constituents)?;
        let feats: Vec<&DenseMatrix<f32>> = live.iter().map(|p| p.features.as_ref()).collect();
        let mut stacked = shared.engine.lease_zeroed(pack.cols(), cols);
        pack.stack_features_into(&feats, &mut stacked)?;
        // The batch plan is one scan of the packed row pointers; its
        // width and shape-class arguments are unused.
        let prep = shared.engine.plan_batch_cached(
            &BatchMergeSpmm::new(),
            pack.matrix(),
            cols,
            &BatchShapeClass::from_graphs(std::iter::empty()),
        );
        let out = match workload {
            Workload::Spmm => {
                shared
                    .engine
                    .execute_prepared(&prep, pack.matrix(), &stacked)?
                    .0
            }
            Workload::Gcn => {
                let model = live[0]
                    .graph
                    .model()
                    .expect("Gcn workload admitted only for graphs with a model");
                model
                    .forward_batched_prepared(pack.matrix(), &prep, &[&stacked], &shared.engine)?
                    .pop()
                    .expect("one block in, one output out")
            }
        };
        shared.engine.recycle(stacked);
        shared
            .stats
            .record_packed(live.len(), pack.nnz(), shared.config.max_batch_nnz);
        // Scatter: each request's rows are a private contiguous band of
        // the packed output (bands are disjoint by construction), copied
        // into a fresh per-request matrix — no sharing, no races.
        let outs = (0..live.len())
            .map(|i| pack.scatter_block(&out, i))
            .collect();
        shared.engine.recycle(out);
        Ok(outs)
    })();
    shared
        .stats
        .record_batch(live.len(), cols * live.len(), degraded);
    reply_all(shared, live, result);
}
