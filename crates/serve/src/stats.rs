//! Serving metrics: global and per-tenant counters, batch-size
//! histogram, and latency percentiles.
//!
//! Counters are lock-free atomics bumped on the hot path; latencies go
//! into a bounded ring (oldest overwritten) so a long-lived server keeps
//! a recent window instead of an unbounded log. Snapshots ([`ServeStats`]
//! / [`TenantStats`]) are plain data, safe to hold across any amount of
//! serving.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mpspmm_core::EngineStats;

/// Number of batch-size histogram buckets: batch request counts
/// `1, 2, 3-4, 5-8, 9-16, …, 65+` (powers of two).
pub const BATCH_HIST_BUCKETS: usize = 8;

/// Latency samples kept for percentile estimation (a ring; oldest
/// samples are overwritten).
pub(crate) const LATENCY_WINDOW: usize = 8192;

/// Histogram bucket index for a batch of `requests` requests.
pub(crate) fn batch_bucket(requests: usize) -> usize {
    debug_assert!(requests >= 1);
    let bits = usize::BITS - (requests.max(1) - 1).leading_zeros();
    (bits as usize).min(BATCH_HIST_BUCKETS - 1)
}

/// Per-tenant live counters, shared between the submit path and the
/// dispatcher (the `in_flight` gauge is the admission-control bound).
#[derive(Debug, Default)]
pub(crate) struct TenantState {
    pub in_flight: AtomicUsize,
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub rejected_queue_full: AtomicU64,
    pub rejected_deadline: AtomicU64,
}

/// Live collectors owned by the server.
#[derive(Debug, Default)]
pub(crate) struct StatsCollector {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub rejected_queue_full: AtomicU64,
    pub rejected_deadline: AtomicU64,
    pub internal_errors: AtomicU64,
    pub batches: AtomicU64,
    pub batched_requests: AtomicU64,
    pub batched_cols: AtomicU64,
    pub packed_batches: AtomicU64,
    pub packed_graphs: AtomicU64,
    pub packed_nnz: AtomicU64,
    pub packed_capacity_nnz: AtomicU64,
    batch_hist: [AtomicU64; BATCH_HIST_BUCKETS],
    graphs_hist: [AtomicU64; BATCH_HIST_BUCKETS],
    latencies: Mutex<LatencyRing>,
    tenants: Mutex<HashMap<String, Arc<TenantState>>>,
}

/// Takes `mutex`, and takes a poisoned one as it is. Both collector
/// locks hold state that is whole after every element: a tenant holder
/// does one lookup or insert, and `record_latencies` writes each sample
/// and its ring cursor before it asks the caller's iterator for the next.
/// A panic under either lock therefore leaves nothing half changed, and
/// without this one caller's panicking latency iterator would fail every
/// later admission and stats read.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct LatencyRing {
    samples_ns: Vec<u64>,
    next: usize,
}

impl StatsCollector {
    /// The shared counter block for `tenant`, created on first sight.
    pub fn tenant(&self, tenant: &str) -> Arc<TenantState> {
        let mut tenants = lock(&self.tenants);
        match tenants.get(tenant) {
            Some(t) => Arc::clone(t),
            None => {
                let t = Arc::new(TenantState::default());
                tenants.insert(tenant.to_string(), Arc::clone(&t));
                t
            }
        }
    }

    /// Records one executed batch of `requests` requests / `cols` total
    /// dense columns.
    pub fn record_batch(&self, requests: usize, cols: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(requests as u64, Ordering::Relaxed);
        self.batched_cols.fetch_add(cols as u64, Ordering::Relaxed);
        self.batch_hist[batch_bucket(requests)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one executed **packed** window of `graphs` constituent
    /// graphs totalling `nnz` non-zeros,
    /// against a window capacity of `capacity_nnz` — the pair behind the
    /// pack-efficiency ratio.
    pub fn record_packed(&self, graphs: usize, nnz: usize, capacity_nnz: usize) {
        self.packed_batches.fetch_add(1, Ordering::Relaxed);
        self.packed_graphs
            .fetch_add(graphs as u64, Ordering::Relaxed);
        self.packed_nnz.fetch_add(nnz as u64, Ordering::Relaxed);
        self.packed_capacity_nnz
            .fetch_add(capacity_nnz as u64, Ordering::Relaxed);
        self.graphs_hist[batch_bucket(graphs)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a window's worth of submit→reply latencies under one
    /// ring lock instead of one lock per reply.
    pub fn record_latencies<I: IntoIterator<Item = std::time::Duration>>(&self, latencies: I) {
        let mut ring = lock(&self.latencies);
        for latency in latencies {
            let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
            if ring.samples_ns.len() < LATENCY_WINDOW {
                ring.samples_ns.push(ns);
            } else {
                let next = ring.next;
                ring.samples_ns[next] = ns;
            }
            ring.next = (ring.next + 1) % LATENCY_WINDOW;
        }
    }

    /// Snapshot of everything, with `queue_depth` and the engine
    /// counters supplied by the server (they live outside this
    /// collector).
    pub fn snapshot(&self, queue_depth: usize, engine: EngineStats) -> ServeStats {
        let latency = {
            let ring = lock(&self.latencies);
            LatencySummary::from_samples(&ring.samples_ns)
        };
        let mut tenants: Vec<TenantStats> = lock(&self.tenants)
            .iter()
            .map(|(name, t)| TenantStats {
                tenant: name.clone(),
                in_flight: t.in_flight.load(Ordering::Relaxed),
                submitted: t.submitted.load(Ordering::Relaxed),
                completed: t.completed.load(Ordering::Relaxed),
                rejected_queue_full: t.rejected_queue_full.load(Ordering::Relaxed),
                rejected_deadline: t.rejected_deadline.load(Ordering::Relaxed),
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let mut batch_size_hist = [0u64; BATCH_HIST_BUCKETS];
        for (dst, src) in batch_size_hist.iter_mut().zip(&self.batch_hist) {
            *dst = src.load(Ordering::Relaxed);
        }
        let mut graphs_per_batch_hist = [0u64; BATCH_HIST_BUCKETS];
        for (dst, src) in graphs_per_batch_hist.iter_mut().zip(&self.graphs_hist) {
            *dst = src.load(Ordering::Relaxed);
        }
        let batches = self.batches.load(Ordering::Relaxed);
        let batched_requests = self.batched_requests.load(Ordering::Relaxed);
        let packed_batches = self.packed_batches.load(Ordering::Relaxed);
        let packed_graphs = self.packed_graphs.load(Ordering::Relaxed);
        let packed_nnz = self.packed_nnz.load(Ordering::Relaxed);
        let packed_capacity_nnz = self.packed_capacity_nnz.load(Ordering::Relaxed);
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            internal_errors: self.internal_errors.load(Ordering::Relaxed),
            batches,
            batched_cols: self.batched_cols.load(Ordering::Relaxed),
            mean_batch_requests: if batches == 0 {
                0.0
            } else {
                batched_requests as f64 / batches as f64
            },
            batch_size_hist,
            packed_batches,
            mean_graphs_per_batch: if packed_batches == 0 {
                0.0
            } else {
                packed_graphs as f64 / packed_batches as f64
            },
            graphs_per_batch_hist,
            packed_nnz,
            pack_efficiency: if packed_capacity_nnz == 0 {
                0.0
            } else {
                packed_nnz as f64 / packed_capacity_nnz as f64
            },
            queue_depth,
            latency,
            engine,
            tenants,
        }
    }
}

/// Latency percentiles over the recent sample window, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Samples the percentiles were computed over (≤ the window size).
    pub samples: usize,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 95th-percentile latency, µs.
    pub p95_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Worst latency in the window, µs.
    pub max_us: f64,
}

impl LatencySummary {
    /// Percentiles of `samples_ns` (nearest-rank on the sorted window).
    pub(crate) fn from_samples(samples_ns: &[u64]) -> Self {
        if samples_ns.is_empty() {
            return Self::default();
        }
        let mut sorted: Vec<u64> = samples_ns.to_vec();
        sorted.sort_unstable();
        let pick = |q: f64| -> f64 {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1] as f64 / 1_000.0
        };
        Self {
            samples: sorted.len(),
            p50_us: pick(0.50),
            p95_us: pick(0.95),
            p99_us: pick(0.99),
            max_us: *sorted.last().unwrap() as f64 / 1_000.0,
        }
    }
}

/// Point-in-time snapshot of a server's global counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Requests that passed admission control.
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests rejected at admission because the tenant's bounded queue
    /// was full (backpressure).
    pub rejected_queue_full: u64,
    /// Requests shed because their deadline passed before execution.
    pub rejected_deadline: u64,
    /// Requests failed by an engine error after admission (bugs).
    pub internal_errors: u64,
    /// Batches executed.
    pub batches: u64,
    /// Total dense columns aggregated across all batches.
    pub batched_cols: u64,
    /// Mean requests coalesced per batch.
    pub mean_batch_requests: f64,
    /// Batch-size histogram over request counts: buckets
    /// `1, 2, 3-4, 5-8, …, 65+`.
    pub batch_size_hist: [u64; BATCH_HIST_BUCKETS],
    /// Packed windows executed, each one engine call over its
    /// constituent graphs (graph-packing mode only; a subset of
    /// `batches`).
    pub packed_batches: u64,
    /// Mean constituent graphs per packed window.
    pub mean_graphs_per_batch: f64,
    /// Graphs-per-packed-window histogram, same bucket scheme as
    /// `batch_size_hist`.
    pub graphs_per_batch_hist: [u64; BATCH_HIST_BUCKETS],
    /// Total non-zeros executed through packed windows.
    pub packed_nnz: u64,
    /// Pack efficiency: packed non-zeros over cumulative window nnz
    /// capacity ([`ServeConfig::max_batch_nnz`](crate::ServeConfig::max_batch_nnz)
    /// per window), in `[0, 1]`. Low values mean windows close on the
    /// graph-count bound or the linger timer, not the nnz budget.
    pub pack_efficiency: f64,
    /// Requests admitted and not yet taken into a window at snapshot
    /// time.
    pub queue_depth: usize,
    /// Submit→reply latency percentiles over the recent window.
    pub latency: LatencySummary,
    /// The engine's counters (GEMM wall time, fused epilogues,
    /// buffer-arena reuse), threaded through for one-stop
    /// telemetry.
    pub engine: EngineStats,
    /// Per-tenant breakdown, sorted by tenant name.
    pub tenants: Vec<TenantStats>,
}

/// Per-tenant slice of the snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant identifier as passed in requests.
    pub tenant: String,
    /// Requests currently admitted but unanswered.
    pub in_flight: usize,
    /// Requests that passed admission control.
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Admission rejections due to the bounded queue.
    pub rejected_queue_full: u64,
    /// Requests shed at their deadline.
    pub rejected_deadline: u64,
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    use mpspmm_core::{ExecEngine, MergePathSpmm, SerialSpmm, SpmmKernel};
    use mpspmm_sparse::{CsrMatrix, DenseMatrix};

    use super::*;
    use crate::{Request, ServeConfig, Server, Workload};

    #[test]
    fn batch_buckets_are_powers_of_two() {
        assert_eq!(batch_bucket(1), 0);
        assert_eq!(batch_bucket(2), 1);
        assert_eq!(batch_bucket(3), 2);
        assert_eq!(batch_bucket(4), 2);
        assert_eq!(batch_bucket(5), 3);
        assert_eq!(batch_bucket(8), 3);
        assert_eq!(batch_bucket(64), 6);
        assert_eq!(batch_bucket(65), 7);
        assert_eq!(batch_bucket(1 << 20), 7);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        let s = LatencySummary::from_samples(&ns);
        assert_eq!(s.samples, 100);
        assert_eq!(s.p50_us, 50.0);
        assert_eq!(s.p95_us, 95.0);
        assert_eq!(s.p99_us, 99.0);
        assert_eq!(s.max_us, 100.0);
        assert_eq!(LatencySummary::from_samples(&[]), LatencySummary::default());
    }

    #[test]
    fn latency_ring_is_bounded() {
        let c = StatsCollector::default();
        for i in 0..(LATENCY_WINDOW + 10) {
            c.record_latencies(std::iter::once(std::time::Duration::from_nanos(i as u64)));
        }
        let snap = c.snapshot(0, EngineStats::default());
        assert_eq!(snap.latency.samples, LATENCY_WINDOW);
    }

    #[test]
    fn snapshot_aggregates_batches_and_tenants() {
        let c = StatsCollector::default();
        let t = c.tenant("a");
        t.submitted.fetch_add(3, Ordering::Relaxed);
        assert!(Arc::ptr_eq(&t, &c.tenant("a")), "tenant state is shared");
        c.record_batch(4, 16);
        c.record_batch(2, 8);
        let snap = c.snapshot(5, EngineStats::default());
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.batched_cols, 24);
        assert_eq!(snap.mean_batch_requests, 3.0);
        assert_eq!(snap.batch_size_hist[batch_bucket(4)], 1);
        assert_eq!(snap.queue_depth, 5);
        assert_eq!(snap.tenants.len(), 1);
        assert_eq!(snap.tenants[0].submitted, 3);
    }

    /// A caller's latency iterator that panics inside `record_latencies`
    /// runs under the latency-ring lock and poisons it, and a panic under
    /// the tenant lock poisons that one. The stats, admission and replies
    /// must all still work, and replies still equal the ascending row
    /// sum.
    #[test]
    fn a_panicking_latency_iterator_does_not_poison_the_stats() {
        let srv = Server::start(
            Arc::new(ExecEngine::new(1)),
            Box::new(MergePathSpmm::new()),
            ServeConfig::default(),
        );
        let trips: Vec<(usize, usize, f32)> = (0..40)
            .flat_map(|r| [(r, (r + 1) % 40, 0.5 + r as f32), (r, (r * 7) % 40, -0.25)])
            .collect();
        let a = CsrMatrix::from_triplets(40, 40, &trips).unwrap();
        srv.register("g", a.clone(), None);
        let stats = &srv.shared.stats;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            stats.record_latencies((0..3).map(|i| {
                assert!(i < 2, "the caller's iterator panics");
                Duration::from_micros(i)
            }))
        }));
        assert!(caught.is_err());
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _held = stats.tenants.lock();
            panic!("a tenant holder panics");
        }));
        assert!(caught.is_err());
        assert!(stats.latencies.is_poisoned() && stats.tenants.is_poisoned());

        assert_eq!(
            srv.stats().latency.samples,
            2,
            "the samples before the panic"
        );
        let b = DenseMatrix::from_fn(40, 5, |r, c| ((r * 3 + c) % 7) as f32 - 2.5);
        for tenant in ["t", "u"] {
            let got = srv
                .submit(Request {
                    graph: "g".into(),
                    tenant: tenant.into(),
                    features: Arc::new(b.clone()),
                    workload: Workload::Spmm,
                    deadline: None,
                })
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                got,
                SerialSpmm.spmm_sequential(&a, &b).unwrap().0,
                "{tenant}"
            );
        }
        let after = srv.stats();
        assert_eq!((after.completed, after.latency.samples), (2, 4));
        assert_eq!(after.tenants.len(), 2);
        srv.shutdown();
    }
}
