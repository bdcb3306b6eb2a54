//! Fast-path CPU execution engine for [`KernelPlan`]s.
//!
//! [`crate::executor::execute_parallel`] is kept as the straightforward
//! baseline: it spawns scoped threads per call and routes *every* output
//! element through an `AtomicU32` cell — including rows the plan proves
//! are exclusively owned — then pays two extra O(rows·dim) passes to
//! initialize and convert that atomic buffer. [`ExecEngine`] removes all
//! of that overhead while preserving the executors' semantics:
//!
//! * **Persistent workers** ([`crate::pool`]): logical threads are
//!   partitioned statically over long-lived pool workers, so repeated
//!   SpMM calls (a GNN forward pass is many of them) stop paying thread
//!   spawn/join.
//! * **Non-atomic regular stores**: rows written by exactly one
//!   `Flush::Regular` segment and touched by no `Flush::Atomic` segment
//!   are classified `Direct` and handed to their owning worker as plain
//!   disjoint `&mut [f32]` slices of the output buffer. Safety is a
//!   borrow-checker fact, not an `unsafe` claim: each row slice is moved
//!   into exactly one worker's closure. The (few, per the paper's
//!   central argument) rows with shared updates accumulate into compact
//!   per-worker private strips folded serially after the join — the
//!   static path performs no atomic operations at all; `Flush::Carry`
//!   segments stay thread-local and are added serially after the join,
//!   exactly like the baseline.
//! * **Vectorized, cache-blocked data path** ([`crate::datapath`]): each
//!   segment runs through a [`DataPath`]-selected inner kernel — by
//!   default the wide-lane streaming kernels (16/8 f32 register
//!   accumulators, runtime lane detection, L1-sized column panels) with
//!   degree-adaptive dispatch: short segments take a gather microkernel,
//!   long segments the streaming panel kernel, and the split is recorded
//!   in [`EngineStats`]. Prepared plans carry a 64-byte-aligned `u32`
//!   packing of the column indices ([`PreparedPlan::pack_indices`]) that
//!   halves index bandwidth in the hot loop; values are always read live
//!   from the matrix so value-only re-weighting never goes stale. The
//!   PR-1 register-tiled kernel and a scalar oracle stay selectable
//!   ([`DataPath::Tiled`] / [`DataPath::Scalar`]).
//! * **Plan caching** ([`ExecEngine::spmm_cached`]): planning — the
//!   merge-path binary searches plus row classification — is keyed by
//!   (kernel name, kernel configuration fingerprint, graph epoch, shape,
//!   dense dimension) and reused across calls until the graph mutates.
//!   Hit/miss counters are exposed via [`EngineStats`].
//! * **Two schedules** ([`SchedPolicy`]): merge-path plans are
//!   equal-work per logical thread by construction, so one contiguous
//!   span of logical threads per worker is already balanced and needs no
//!   runtime load balancing. Wide dense dimensions instead take the
//!   column-striped executor ([`crate::stripe`]), which drops shared-row
//!   folding altogether. [`SchedPolicy::Auto`] (the default) picks
//!   between the two from the run's worker count, dense dimension, and
//!   static span skew.
//! * **Buffer arena** ([`crate::arena`]): output, batch-interleave, and
//!   shared-row scratch buffers are pooled per engine and checked out per
//!   execution, so steady-state inference allocates nothing. Outputs
//!   leave the engine as [`DenseMatrix`] values; callers hand them back
//!   with [`ExecEngine::recycle`] to close the loop (the GCN forward
//!   pass ping-pongs its activations this way).
//!
//! # Correctness envelope
//!
//! With one worker the engine accumulates in exactly the order of
//! [`crate::executor::execute_sequential`] (same per-element addition
//! order; every data path — scalar, tiled, vectorized — only regroups
//! output columns, never reorders additions within a column), so results
//! are exactly equal (f32 `==`, zero tolerance) to the oracle on every
//! path; the single representational deviation is the sign of a zero out
//! of the vectorized gather microkernel (a 0-ulp difference; see the
//! `datapath` module docs). With several
//! workers under the static scheduler, rows shared between workers fold
//! their per-worker partials in worker order — a fixed association that
//! is reproducible run to run for a given worker count but may differ
//! from the serial order by rounding — the same tolerance contract
//! `execute_parallel` has always had.
//!
//! # Staleness
//!
//! The cache trusts the caller's `epoch`: reusing an epoch after mutating
//! the matrix hands back a plan for the old sparsity pattern. The key also
//! includes `(rows, cols, nnz)` as a cheap tripwire, but callers must bump
//! the epoch on every mutation ([`GraphStream::generation`] in
//! `mpspmm-graphs` is the intended source).
//!
//! [`GraphStream::generation`]: https://docs.rs/mpspmm-graphs

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mpspmm_sparse::{AlignedVec, CsrMatrix, DenseMatrix, SparseFormatError};

use crate::arena::BufferArena;
use crate::batch::BatchShapeClass;
use crate::datapath::{
    accumulate_segment_dispatch, env_fastmath, ColIdx, DataPath, PathKind, ResolvedPath,
};
use crate::epilogue::Epilogue;
use crate::executor::check_shapes;
use crate::plan::{static_span_skew, Flush, KernelPlan};
use crate::pool::{ScopedJob, WorkerPool};
use crate::spgemm::SpgemmStrategy;
use crate::spmm::{default_workers, SpmmKernel};
use crate::stats::{SpgemmStats, WriteStats};
use crate::stripe::run_striped;
use crate::tuning::{GATHER_MAX_NNZ, STRIPE_MIN_DIM, STRIPE_SKEW_MIN_DIM, STRIPE_SKEW_THRESHOLD};

/// Default bound on plans cached per engine. A single GNN inference
/// workload touches a handful of (kernel, dim) combinations per graph
/// epoch, but a long-lived *serving* process registers many graphs and
/// hot-swaps versions, so the bound is generous and eviction is
/// least-recently-used rather than wholesale; size it explicitly with
/// [`ExecEngine::with_plan_capacity`] when the default does not fit.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// One resident plan plus the LRU stamp the eviction policy orders by.
#[derive(Debug)]
struct CacheEntry {
    prep: Arc<PreparedPlan>,
    last_used: u64,
}

/// Slots resident in the batch-plan cache. Each slot is one batch-shape
/// *class* (a quantized composition histogram), so the bound is on
/// distinct workload shapes, not on windows served — 32 is generous for
/// any realistic mix of small-graph traffic.
pub const BATCH_PLAN_SLOTS: usize = 32;

/// Fingerprints resident per batch-shape-class slot. A class slot keeps
/// a small working set of exact compositions rather than a single one:
/// steady-state traffic often cycles through a handful of window
/// compositions that all quantize to the same class (e.g. bursts drawn
/// round-robin from one graph population), and a one-fingerprint slot
/// would rebuild on every window of such a cycle.
pub const BATCH_PLANS_PER_CLASS: usize = 8;

/// One resident plan within a class slot: the exact structural
/// fingerprint it was built for, and the LRU stamp.
#[derive(Debug)]
struct BatchPlanEntry {
    fingerprint: u64,
    prep: Arc<PreparedPlan>,
    last_used: u64,
}

/// One batch-shape-class slot: a bounded set of exact-composition plans
/// (intra-slot LRU past [`BATCH_PLANS_PER_CLASS`]) plus the slot-level
/// LRU stamp.
#[derive(Debug)]
struct BatchPlanSlot {
    entries: Vec<BatchPlanEntry>,
    last_used: u64,
}

/// The engine's bounded batch-plan cache, keyed by
/// [`BatchShapeClass::class_hash`] with fingerprint-gated reuse (see
/// [`crate::batch`]).
#[derive(Debug, Default)]
struct BatchPlanCache {
    map: HashMap<u64, BatchPlanSlot>,
    tick: u64,
}

/// The engine's bounded plan cache: a map plus a monotonic use counter.
/// Lookups stamp the entry; inserts past capacity evict the entry with
/// the oldest stamp (an O(n) scan — capacities are small enough that a
/// linked LRU list would be pure complexity).
#[derive(Debug, Default)]
struct PlanCache {
    map: HashMap<PlanKey, CacheEntry>,
    tick: u64,
}

/// How the engine writes a given output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowKind {
    /// No regular or atomic segment targets the row (it may still receive
    /// post-join carry adds, which need no synchronization).
    Untouched,
    /// Exactly one `Regular` segment and no `Atomic` segment: the logical
    /// thread `owner` holds the row's `&mut` slice and stores directly.
    Direct { owner: u32 },
    /// Shared or atomic updates: the row lives in slot `side` of the
    /// compact atomic side buffer for the parallel phase.
    Shared { side: u32 },
}

/// A plan plus the row classification and precomputed write statistics
/// the engine needs to execute it. Classification is independent of the
/// dense dimension, so one `PreparedPlan` serves any `B` width.
///
/// A prepared plan may additionally carry a 64-byte-aligned `u32` packing
/// of the matrix's column indices ([`pack_indices`](Self::pack_indices))
/// for the vectorized data path. Only the *structure* is packed — values
/// are always read live from the matrix at execution time, so value
/// re-weighting through [`CsrMatrix::values_mut`] never stales a cached
/// plan (structural mutations are caught by the plan-cache epoch and
/// shape tripwire as before).
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    pub(crate) plan: KernelPlan,
    pub(crate) row_kind: Vec<RowKind>,
    /// Row index of each side-buffer slot, in slot order.
    shared_rows: Vec<u32>,
    /// Cumulative nnz end offset per logical thread (`ends[t]` = total
    /// non-zeros owned by threads `0..=t`) — the input to the static-span
    /// skew metric.
    thread_nnz_ends: Vec<usize>,
    stats: WriteStats,
    /// Non-empty segments at/below and above [`GATHER_MAX_NNZ`] — the
    /// degree-adaptive dispatch split, precomputed so the engine bumps
    /// its counters once per run instead of once per segment.
    dispatch: (usize, usize),
    /// Cache-aligned `u32` column indices for the vectorized path.
    pub(crate) cols32: Option<AlignedVec<u32>>,
    /// Per row: the row is finalized entirely by its single parallel-phase
    /// `Regular` store (`Direct` *and* no `Carry` segment targets it), so
    /// a fused [`Epilogue`] may be applied at store time while the row is
    /// register-hot.
    pub(crate) fused_ok: Vec<bool>,
    /// Rows whose epilogue must wait for the serial replay phase —
    /// shared/atomic rows, carry-receiving rows, and untouched rows (a
    /// bias changes even all-zero rows) — ascending.
    deferred_rows: Vec<u32>,
    /// Target rows of the plan's parallel-phase writes (`Regular` and
    /// `Atomic` segments; carries merge serially and don't count) are
    /// non-decreasing in `(thread, segment)` order. True for every
    /// kernel planner in the tree — merge-path, row-split, and nnz-split
    /// all walk rows forward — and it lets the static scheduler route
    /// each worker's `Direct` rows through one contiguous output span
    /// instead of a per-row hash map.
    write_rows_monotonic: bool,
    /// First row each logical thread writes in the parallel phase
    /// (`u32::MAX` for threads with no `Regular`/`Atomic` segment) — the
    /// span boundaries for monotonic static routing.
    thread_first_write_row: Vec<u32>,
    /// Every write segment is a `Regular` store into a row it owns alone
    /// — no atomics, no carries, no shared side buffer. Row-aligned
    /// batch plans ([`crate::BatchMergeSpmm`]) are always in this class;
    /// the single-worker executor then folds each row in one tight pass
    /// with no per-segment flush dispatch (see [`run_inline_direct`]).
    pub(crate) all_direct: bool,
}

impl PreparedPlan {
    /// Classifies every output row of `plan` for a matrix with `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if a segment targets a row `>= rows`.
    pub fn new(plan: KernelPlan, rows: usize) -> Self {
        #[derive(Clone, Copy, Default)]
        struct RowInfo {
            regular: u32,
            atomic: u32,
            owner: u32,
        }
        let mut info = vec![RowInfo::default(); rows];
        let mut carry_row = vec![false; rows];
        let mut stats = WriteStats::default();
        let mut thread_first_write_row = vec![u32::MAX; plan.threads.len()];
        let mut write_rows_monotonic = true;
        let mut last_write_row = 0u32;
        for (t, seg) in plan.iter_segments() {
            if !matches!(seg.flush, Flush::Carry) {
                let r = seg.row as u32;
                if r < last_write_row {
                    write_rows_monotonic = false;
                }
                last_write_row = r;
                if thread_first_write_row[t] == u32::MAX {
                    thread_first_write_row[t] = r;
                }
            }
            match seg.flush {
                Flush::Regular => {
                    info[seg.row].regular += 1;
                    info[seg.row].owner = t as u32;
                    stats.regular_row_writes += 1;
                    stats.regular_nnz += seg.len();
                }
                Flush::Atomic => {
                    info[seg.row].atomic += 1;
                    stats.atomic_row_updates += 1;
                    stats.atomic_nnz += seg.len();
                }
                Flush::Carry => {
                    carry_row[seg.row] = true;
                    stats.serial_row_updates += 1;
                    stats.serial_nnz += seg.len();
                }
            }
        }
        let mut shared_rows = Vec::new();
        let row_kind: Vec<RowKind> = info
            .iter()
            .enumerate()
            .map(|(row, ri)| {
                if ri.regular == 1 && ri.atomic == 0 {
                    RowKind::Direct { owner: ri.owner }
                } else if ri.regular + ri.atomic > 0 {
                    let side = shared_rows.len() as u32;
                    shared_rows.push(row as u32);
                    RowKind::Shared { side }
                } else {
                    RowKind::Untouched
                }
            })
            .collect();
        // A fused epilogue may run at store time only where the store is
        // the row's final value; every other row waits for the serial
        // replay phase (see the `epilogue` module docs).
        let mut fused_ok = vec![false; rows];
        let mut deferred_rows = Vec::new();
        for (row, kind) in row_kind.iter().enumerate() {
            if matches!(kind, RowKind::Direct { .. }) && !carry_row[row] {
                fused_ok[row] = true;
            } else {
                deferred_rows.push(row as u32);
            }
        }
        let dispatch = plan.dispatch_profile(GATHER_MAX_NNZ);
        let mut thread_nnz_ends = Vec::with_capacity(plan.threads.len());
        let mut cum = 0usize;
        for tp in &plan.threads {
            cum += tp.nnz();
            thread_nnz_ends.push(cum);
        }
        let all_direct = shared_rows.is_empty()
            && stats.atomic_row_updates == 0
            && stats.serial_row_updates == 0;
        Self {
            plan,
            row_kind,
            shared_rows,
            thread_nnz_ends,
            stats,
            dispatch,
            cols32: None,
            fused_ok,
            deferred_rows,
            write_rows_monotonic,
            thread_first_write_row,
            all_direct,
        }
    }

    /// Classifies `plan` for `a` and packs `a`'s column indices for the
    /// vectorized data path in one step — the constructor the plan cache
    /// uses, so every cached plan executes on packed indices.
    pub fn for_matrix(plan: KernelPlan, a: &CsrMatrix<f32>) -> Self {
        let mut prep = Self::new(plan, a.rows());
        prep.pack_indices(a);
        prep
    }

    /// Packs `a`'s column indices into a 64-byte-aligned `u32` array for
    /// the vectorized data path (halves index bandwidth versus the CSR
    /// `usize` array). A no-op if `a` has more columns than `u32` can
    /// index — the engine then falls back to the plain indices.
    ///
    /// `a` must be the matrix this plan was built for (same staleness
    /// contract as the plan itself).
    pub fn pack_indices(&mut self, a: &CsrMatrix<f32>) {
        if a.cols() > u32::MAX as usize {
            return;
        }
        let src = a.col_indices();
        self.cols32 = Some(AlignedVec::from_fn(src.len(), |i| src[i] as u32));
    }

    /// Whether this plan carries the packed `u32` index array.
    pub fn has_packed_indices(&self) -> bool {
        self.cols32.is_some()
    }

    /// The degree-adaptive dispatch split of this plan's non-empty
    /// segments: `(gather_bound, stream_bound)` at the
    /// [`GATHER_MAX_NNZ`] threshold.
    pub fn dispatch_profile(&self) -> (usize, usize) {
        self.dispatch
    }

    /// The underlying plan.
    pub fn plan(&self) -> &KernelPlan {
        &self.plan
    }

    /// The write statistics any execution of this plan realizes (they are
    /// a property of the plan, not of the operand values).
    pub fn expected_stats(&self) -> WriteStats {
        self.stats
    }

    /// Number of rows routed through the atomic side buffer.
    pub fn shared_row_count(&self) -> usize {
        self.shared_rows.len()
    }

    /// Number of rows written directly with non-atomic stores.
    pub fn direct_row_count(&self) -> usize {
        self.row_kind
            .iter()
            .filter(|k| matches!(k, RowKind::Direct { .. }))
            .count()
    }

    /// Number of rows a fused [`Epilogue`] is applied to at store time —
    /// `Direct` rows that receive no post-join carry. All remaining rows
    /// get their epilogue in the serial replay phase.
    pub fn fusable_row_count(&self) -> usize {
        self.fused_ok.iter().filter(|&&f| f).count()
    }

    /// Rows whose fused epilogue waits for the serial/stripe-local replay
    /// phase — the column-striped executor applies these per stripe.
    pub(crate) fn deferred_rows(&self) -> &[u32] {
        &self.deferred_rows
    }

    /// Non-zero skew (max/mean) of the static per-worker span partition
    /// the engine would use for this plan at `workers` workers — the
    /// signal [`SchedPolicy::Auto`] thresholds on.
    pub fn static_span_skew(&self, workers: usize) -> f64 {
        static_span_skew(&self.thread_nnz_ends, workers)
    }
}

/// How the engine maps a prepared plan onto its pool workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// One contiguous, equal-thread-count span per worker. Balanced for
    /// merge-path plans, which are nnz-balanced per logical thread by
    /// construction.
    Static,
    /// Column-striped execution ([`crate::stripe`]): each worker owns a
    /// contiguous feature-column stripe of *all* rows and replays the
    /// full plan walk over it — no shared rows, no strip folding, no
    /// cross-worker carries, and output bit-identical to the sequential
    /// oracle at any worker count. Pays an index re-stream per stripe,
    /// so it only wins at wide dense dimensions.
    ColumnStriped,
    /// Per-run choice by input shape: column striping when the dense dimension is wide enough to
    /// amortize its index re-stream ([`STRIPE_MIN_DIM`], or
    /// [`STRIPE_SKEW_MIN_DIM`] when the static partition's nnz skew
    /// ([`PreparedPlan::static_span_skew`]) also exceeds
    /// [`STRIPE_SKEW_THRESHOLD`]); else the static path.
    #[default]
    Auto,
}

/// Snapshot of an engine's plan-cache and data-path counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// [`ExecEngine::spmm_cached`] calls served from the plan cache.
    pub plan_cache_hits: u64,
    /// [`ExecEngine::spmm_cached`] calls that had to plan from scratch.
    pub plan_cache_misses: u64,
    /// Plans currently resident in the cache.
    pub cached_plans: usize,
    /// Plans evicted because the cache reached its capacity bound
    /// (least-recently-used first), cumulative since the last
    /// [`ExecEngine::clear_cache`].
    pub plan_cache_evictions: u64,
    /// Worker parallelism the engine executes with.
    pub workers: usize,
    /// Segments the degree-adaptive dispatcher routed to the gather
    /// microkernel (vectorized data path only), cumulative over runs.
    pub gather_segments: u64,
    /// Segments routed to the streaming panel kernel (vectorized data
    /// path only), cumulative over runs.
    pub stream_segments: u64,
    /// Buffer checkouts served from the arena pool without allocating.
    pub arena_reuses: u64,
    /// Buffer checkouts that had to allocate a fresh buffer.
    pub arena_misses: u64,
    /// Column panels executed by the engine's parallel dense GEMM
    /// ([`ExecEngine::gemm`]), cumulative over runs.
    pub gemm_panels: u64,
    /// Column stripes executed by the column-striped scheduler
    /// ([`SchedPolicy::ColumnStriped`] or a wide-dim `Auto` run),
    /// cumulative over runs. Zero means no run so far striped.
    pub stripes_executed: u64,
    /// Reduction-depth blocks executed by the engine's dense GEMM (the
    /// `k`-blocking that keeps the `B` panel L2-resident), cumulative
    /// over runs.
    pub kblocks: u64,
    /// SpMM and GEMM runs that executed with FastMath (FMA contraction)
    /// enabled — always zero unless the engine opted in via
    /// [`ExecEngine::with_fast_math`] or `MPSPMM_FASTMATH`.
    pub fastmath_runs: u64,
    /// Engine runs that fused a non-noop [`Epilogue`] into the SpMM
    /// store stage instead of paying a separate activation pass.
    pub fused_epilogues: u64,
    /// Wall nanoseconds spent inside the engine's dense GEMM, cumulative
    /// — together with the SpMM wall time this is the "where the time
    /// goes" split of a fused GCN layer.
    pub gemm_ns: u64,
    /// Sparse×sparse counters (see [`SpgemmStats`]): rows executed
    /// through [`ExecEngine::spgemm`], the per-accumulator row
    /// distribution, and the symbolic/numeric phase wall split. All
    /// zero until the first `spgemm` call.
    pub spgemm: SpgemmStats,
    /// [`ExecEngine::plan_batch_cached`] calls whose batch-shape-class
    /// slot held a plan with a matching structural fingerprint.
    pub batch_plan_hits: u64,
    /// Calls whose class had no resident slot yet (first window of a
    /// composition).
    pub batch_plan_misses: u64,
    /// Calls that found the slot but with a stale fingerprint — the
    /// batch composition changed, so the plan was rebuilt and replaced
    /// *in place* (no new key, no LRU pressure).
    pub batch_plan_rebuilds: u64,
}

impl EngineStats {
    /// Fraction of cached-SpMM calls served from the cache, in `[0, 1]`
    /// (0 before any call).
    pub fn hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / total as f64
        }
    }
}

/// Plan-cache key: which kernel (by name *and* configuration), which
/// graph snapshot, which operand shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    kernel: &'static str,
    config: u64,
    epoch: u64,
    rows: usize,
    cols: usize,
    nnz: usize,
    dim: usize,
}

/// The fast-path SpMM execution engine. See the module docs for the four
/// optimizations it layers over [`crate::executor::execute_parallel`].
pub struct ExecEngine {
    pub(crate) workers: usize,
    pub(crate) data_path: DataPath,
    pub(crate) sched_policy: SchedPolicy,
    /// FastMath opt-in (FMA contraction in the SpMM/GEMM kernels) —
    /// defaults to the `MPSPMM_FASTMATH` environment opt-in, i.e. off.
    pub(crate) fast_math: bool,
    plan_capacity: usize,
    cache: Mutex<PlanCache>,
    batch_plans: Mutex<BatchPlanCache>,
    batch_hits: AtomicU64,
    batch_misses: AtomicU64,
    batch_rebuilds: AtomicU64,
    pub(crate) arena: BufferArena,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    gather: AtomicU64,
    stream: AtomicU64,
    pub(crate) gemm_panels: AtomicU64,
    stripes_executed: AtomicU64,
    pub(crate) kblocks: AtomicU64,
    pub(crate) fastmath_runs: AtomicU64,
    fused_epilogues: AtomicU64,
    pub(crate) gemm_ns: AtomicU64,
    /// Accumulator strategy SpGEMM runs pin
    /// ([`SpgemmStrategy::Adaptive`] = the per-row classifier).
    pub(crate) spgemm_strategy: SpgemmStrategy,
    pub(crate) spgemm_rows: AtomicU64,
    pub(crate) spgemm_dense: AtomicU64,
    pub(crate) spgemm_hash: AtomicU64,
    pub(crate) spgemm_merge: AtomicU64,
    pub(crate) spgemm_symbolic_ns: AtomicU64,
    pub(crate) spgemm_numeric_ns: AtomicU64,
}

impl ExecEngine {
    /// An engine that executes with `workers`-way parallelism
    /// (`workers == 1` runs entirely on the calling thread, atomics-free)
    /// on the default ([`DataPath::Auto`]) data path.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        Self::with_data_path(workers, DataPath::Auto)
    }

    /// An engine pinned to a specific inner [`DataPath`] — used by the
    /// benchmarks to compare paths on one binary and by tests to force
    /// the scalar oracle.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_data_path(workers: usize, data_path: DataPath) -> Self {
        Self::with_plan_capacity(workers, data_path, DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// An engine with an explicit plan-cache capacity bound (LRU
    /// eviction past the bound). Long-lived serving processes that
    /// register many graphs size this to their working set; the
    /// [`DEFAULT_PLAN_CACHE_CAPACITY`] default is generous for everything
    /// else.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `plan_capacity == 0`.
    pub fn with_plan_capacity(workers: usize, data_path: DataPath, plan_capacity: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(
            plan_capacity > 0,
            "plan cache needs capacity for at least one plan"
        );
        Self {
            workers,
            data_path,
            sched_policy: SchedPolicy::default(),
            fast_math: env_fastmath(),
            plan_capacity,
            cache: Mutex::new(PlanCache::default()),
            batch_plans: Mutex::new(BatchPlanCache::default()),
            batch_hits: AtomicU64::new(0),
            batch_misses: AtomicU64::new(0),
            batch_rebuilds: AtomicU64::new(0),
            arena: BufferArena::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            gather: AtomicU64::new(0),
            stream: AtomicU64::new(0),
            gemm_panels: AtomicU64::new(0),
            stripes_executed: AtomicU64::new(0),
            kblocks: AtomicU64::new(0),
            fastmath_runs: AtomicU64::new(0),
            fused_epilogues: AtomicU64::new(0),
            gemm_ns: AtomicU64::new(0),
            spgemm_strategy: SpgemmStrategy::default(),
            spgemm_rows: AtomicU64::new(0),
            spgemm_dense: AtomicU64::new(0),
            spgemm_hash: AtomicU64::new(0),
            spgemm_merge: AtomicU64::new(0),
            spgemm_symbolic_ns: AtomicU64::new(0),
            spgemm_numeric_ns: AtomicU64::new(0),
        }
    }

    /// An engine pinned to a specific [`SchedPolicy`] — benchmarks and
    /// tests compare the static and column-striped schedulers on one
    /// binary; everything else should keep the [`SchedPolicy::Auto`]
    /// default.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_sched_policy(workers: usize, data_path: DataPath, policy: SchedPolicy) -> Self {
        let mut engine = Self::with_data_path(workers, data_path);
        engine.sched_policy = policy;
        engine
    }

    /// Opts this engine into (or out of) **FastMath**: FMA contraction
    /// in the streaming SpMM kernel and the GEMM microkernel. FastMath
    /// results differ from the exact default by a rounding-level amount
    /// per product (see the `datapath` module docs and DESIGN.md §2.11)
    /// — the default, and every oracle, stays exact. Without this call
    /// the flag follows the `MPSPMM_FASTMATH` environment opt-in.
    #[must_use]
    pub fn with_fast_math(mut self, fast_math: bool) -> Self {
        self.fast_math = fast_math;
        self
    }

    /// Whether this engine requests FastMath (FMA contraction). The
    /// request only takes effect on the vectorized data path on CPUs
    /// whose fma support is proven
    /// ([`crate::fastmath_supported`]).
    pub fn fast_math(&self) -> bool {
        self.fast_math
    }

    /// The plan-cache capacity bound this engine evicts at.
    pub fn plan_capacity(&self) -> usize {
        self.plan_capacity
    }

    /// The inner data path this engine executes segments through.
    pub fn data_path(&self) -> DataPath {
        self.data_path
    }

    /// The scheduling policy this engine maps plans to workers with.
    pub fn sched_policy(&self) -> SchedPolicy {
        self.sched_policy
    }

    /// Whether a run of `prep` at dense dimension `dim` would take the
    /// column-striped scheduler — the [`SchedPolicy::Auto`] decision,
    /// exposed so benchmarks and tests can assert on the policy choice.
    /// `Auto` stripes unconditionally at [`STRIPE_MIN_DIM`] columns, and
    /// already at [`STRIPE_SKEW_MIN_DIM`] when the static partition is
    /// skewed (striping fixes the skew *and* the serial tail). Striping
    /// needs at least two workers, but any plan shape qualifies.
    pub fn selects_striping(&self, prep: &PreparedPlan, dim: usize) -> bool {
        let eff_workers = self.workers.min(prep.plan.threads.len());
        if eff_workers <= 1 || dim == 0 {
            return false;
        }
        match self.sched_policy {
            SchedPolicy::Static => false,
            SchedPolicy::ColumnStriped => true,
            SchedPolicy::Auto => {
                dim >= STRIPE_MIN_DIM
                    || (dim >= STRIPE_SKEW_MIN_DIM
                        && prep.static_span_skew(eff_workers) > STRIPE_SKEW_THRESHOLD)
            }
        }
    }

    /// The process-wide engine, sized by [`default_workers`] (which honors
    /// the `MPSPMM_WORKERS` override).
    pub fn global() -> &'static ExecEngine {
        static ENGINE: OnceLock<ExecEngine> = OnceLock::new();
        ENGINE.get_or_init(|| ExecEngine::new(default_workers()))
    }

    /// Worker parallelism this engine executes with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes a plan without touching the plan cache (classification is
    /// redone per call). This is what [`SpmmKernel::spmm_with_stats`]
    /// routes through.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if
    /// `a.cols() != b.rows()`.
    pub fn execute(
        &self,
        plan: &KernelPlan,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
    ) -> Result<(DenseMatrix<f32>, WriteStats), SparseFormatError> {
        check_shapes(a, b)?;
        let prep = PreparedPlan::new(plan.clone(), a.rows());
        Ok(self.run(&prep, a, b, &Epilogue::None))
    }

    /// Executes a previously classified plan.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if
    /// `a.cols() != b.rows()`.
    ///
    /// # Panics
    ///
    /// Panics if `prep` was classified for a different row count than
    /// `a.rows()`.
    pub fn execute_prepared(
        &self,
        prep: &PreparedPlan,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
    ) -> Result<(DenseMatrix<f32>, WriteStats), SparseFormatError> {
        check_shapes(a, b)?;
        Ok(self.run(prep, a, b, &Epilogue::None))
    }

    /// Executes a previously classified plan with a fused [`Epilogue`]
    /// applied at the store stage: rows finalized in the parallel phase
    /// (`Direct`, no carry) get the epilogue while register-hot; every
    /// other row gets it in the serial replay phase, after its final SpMM
    /// value exists. The result is element-for-element identical to
    /// `execute_prepared` followed by a separate epilogue pass, without
    /// re-streaming the output (see DESIGN.md §2.10).
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if
    /// `a.cols() != b.rows()` or a bias epilogue's length differs from
    /// `b.cols()`.
    ///
    /// # Panics
    ///
    /// Panics if `prep` was classified for a different row count than
    /// `a.rows()`.
    pub fn execute_prepared_fused(
        &self,
        prep: &PreparedPlan,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
        epi: &Epilogue,
    ) -> Result<(DenseMatrix<f32>, WriteStats), SparseFormatError> {
        check_shapes(a, b)?;
        epi.validate(b.cols())?;
        Ok(self.run(prep, a, b, epi))
    }

    /// Computes `kernel`'s SpMM through the plan cache: on a hit the
    /// merge-path planning and row classification are skipped entirely.
    ///
    /// `epoch` identifies the sparsity snapshot of `a` — bump it on every
    /// mutation (see the module docs on staleness).
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if
    /// `a.cols() != b.rows()`.
    pub fn spmm_cached(
        &self,
        kernel: &dyn SpmmKernel,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
        epoch: u64,
    ) -> Result<(DenseMatrix<f32>, WriteStats), SparseFormatError> {
        check_shapes(a, b)?;
        let prep = self.plan_cached(kernel, a, b.cols(), epoch);
        Ok(self.run(&prep, a, b, &Epilogue::None))
    }

    /// [`spmm_cached`](Self::spmm_cached) with a fused [`Epilogue`] —
    /// the cached SpMM half of the fused GCN layer pipeline
    /// (`GcnLayer::forward_cached` routes through this).
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if
    /// `a.cols() != b.rows()` or a bias epilogue's length differs from
    /// `b.cols()`.
    pub fn spmm_cached_fused(
        &self,
        kernel: &dyn SpmmKernel,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
        epoch: u64,
        epi: &Epilogue,
    ) -> Result<(DenseMatrix<f32>, WriteStats), SparseFormatError> {
        check_shapes(a, b)?;
        epi.validate(b.cols())?;
        let prep = self.plan_cached(kernel, a, b.cols(), epoch);
        Ok(self.run(&prep, a, b, epi))
    }

    /// Fetches (or builds, classifies, index-packs, and caches) the
    /// prepared plan for `kernel` on `a` at dense dimension `dim` —
    /// the planning half of [`spmm_cached`](Self::spmm_cached), exposed
    /// so callers that know their layer shapes up front (a GCN forward
    /// pass, a benchmark loop) can warm the cache and then execute
    /// through [`execute_prepared`](Self::execute_prepared) with zero
    /// planning on the timed path.
    pub fn plan_cached(
        &self,
        kernel: &dyn SpmmKernel,
        a: &CsrMatrix<f32>,
        dim: usize,
        epoch: u64,
    ) -> Arc<PreparedPlan> {
        let key = PlanKey {
            kernel: kernel.name(),
            config: kernel.config_fingerprint(),
            epoch,
            rows: a.rows(),
            cols: a.cols(),
            nnz: a.nnz(),
            dim,
        };
        {
            let mut cache = self.cache.lock().unwrap();
            cache.tick += 1;
            let tick = cache.tick;
            if let Some(entry) = cache.map.get_mut(&key) {
                entry.last_used = tick;
                let prep = Arc::clone(&entry.prep);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return prep;
            }
        }
        // Plan outside the lock: planning is the expensive part, and a
        // racing miss on the same key merely builds the plan twice (the
        // second insert wins), which is the same behavior spmm_cached has
        // always had.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let prep = Arc::new(PreparedPlan::for_matrix(kernel.plan(a, dim), a));
        let mut cache = self.cache.lock().unwrap();
        while cache.map.len() >= self.plan_capacity {
            let victim = cache
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    cache.map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        cache.tick += 1;
        let last_used = cache.tick;
        cache.map.insert(
            key,
            CacheEntry {
                prep: Arc::clone(&prep),
                last_used,
            },
        );
        prep
    }

    /// Fetches (or builds) the prepared plan for a block-diagonal
    /// mega-batch, cached by **batch-shape class** instead of exact
    /// shape: `class` picks one of at most [`BATCH_PLAN_SLOTS`] slots by
    /// its quantized composition hash, and its exact structural
    /// fingerprint gates reuse within the slot — a resident fingerprint
    /// returns its plan, a known class with a new composition re-plans
    /// and joins the slot's working set of up to
    /// [`BATCH_PLANS_PER_CLASS`] plans (counted as a rebuild, evicting
    /// intra-slot LRU), and an absent class plans fresh (miss, LRU past
    /// the slot bound). See [`crate::batch`] for why the ordinary
    /// exact-shape cache would thrash under packed serving.
    ///
    /// Reuse is sound because the fingerprint covers every constituent's
    /// `(rows, nnz, structure_hash)`: identical fingerprints mean an
    /// identical packed sparsity structure (modulo hash collision), and
    /// a [`PreparedPlan`] depends on structure only — values are read
    /// live at execution time.
    pub fn plan_batch_cached(
        &self,
        kernel: &dyn SpmmKernel,
        a: &CsrMatrix<f32>,
        dim: usize,
        class: &BatchShapeClass,
    ) -> Arc<PreparedPlan> {
        {
            let mut cache = self.batch_plans.lock().unwrap();
            cache.tick += 1;
            let tick = cache.tick;
            if let Some(slot) = cache.map.get_mut(&class.class_hash()) {
                if let Some(entry) = slot
                    .entries
                    .iter_mut()
                    .find(|e| e.fingerprint == class.fingerprint())
                {
                    entry.last_used = tick;
                    slot.last_used = tick;
                    self.batch_hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(&entry.prep);
                }
            }
        }
        // Plan outside the lock (same racing-miss argument as
        // `plan_cached`: the second insert wins).
        let prep = Arc::new(PreparedPlan::for_matrix(kernel.plan(a, dim), a));
        let mut cache = self.batch_plans.lock().unwrap();
        cache.tick += 1;
        let last_used = cache.tick;
        let entry = BatchPlanEntry {
            fingerprint: class.fingerprint(),
            prep: Arc::clone(&prep),
            last_used,
        };
        match cache.map.get_mut(&class.class_hash()) {
            Some(slot) => {
                // Known class, new exact composition: admit it to the
                // slot's working set, evicting intra-slot LRU so the
                // per-class footprint stays bounded.
                self.batch_rebuilds.fetch_add(1, Ordering::Relaxed);
                slot.last_used = last_used;
                // A racing miss may have inserted the same fingerprint
                // while we planned; replace rather than duplicate.
                slot.entries
                    .retain(|e| e.fingerprint != class.fingerprint());
                while slot.entries.len() >= BATCH_PLANS_PER_CLASS {
                    let victim = slot
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(i, _)| i);
                    match victim {
                        Some(i) => {
                            slot.entries.swap_remove(i);
                        }
                        None => break,
                    }
                }
                slot.entries.push(entry);
            }
            None => {
                self.batch_misses.fetch_add(1, Ordering::Relaxed);
                while cache.map.len() >= BATCH_PLAN_SLOTS {
                    let victim = cache
                        .map
                        .iter()
                        .min_by_key(|(_, s)| s.last_used)
                        .map(|(k, _)| *k);
                    match victim {
                        Some(k) => {
                            cache.map.remove(&k);
                        }
                        None => break,
                    }
                }
                cache.map.insert(
                    class.class_hash(),
                    BatchPlanSlot {
                        entries: vec![entry],
                        last_used,
                    },
                );
            }
        }
        prep
    }

    /// Executes one prepared plan over several dense column blocks in a
    /// *single* engine run: the blocks are concatenated column-wise, the
    /// plan runs once over the combined `sum(cols)`-wide operand, and the
    /// output is split back into one matrix per input block.
    ///
    /// This is the batched submission path the serving layer coalesces
    /// concurrent requests through — every non-zero of `a` is walked once
    /// per *batch* instead of once per request, which is exactly the
    /// row-reuse argument batching makes.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if any block has
    /// `rows != a.cols()`.
    ///
    /// # Panics
    ///
    /// Panics if `prep` was classified for a different row count than
    /// `a.rows()`.
    pub fn execute_prepared_batch(
        &self,
        prep: &PreparedPlan,
        a: &CsrMatrix<f32>,
        blocks: &[&DenseMatrix<f32>],
    ) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
        self.execute_prepared_batch_fused(prep, a, blocks, &Epilogue::None)
    }

    /// [`execute_prepared_batch`](Self::execute_prepared_batch) with a
    /// fused [`Epilogue`] applied to the combined output before the
    /// split. Only column-uniform epilogues ([`Epilogue::None`],
    /// [`Epilogue::Relu`]) distribute over the per-block outputs; a bias
    /// epilogue validates against the *combined* width and is rejected
    /// otherwise — the GCN batched path applies biases per block instead.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if any block has
    /// `rows != a.cols()` or a bias epilogue does not span the combined
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if `prep` was classified for a different row count than
    /// `a.rows()`.
    pub fn execute_prepared_batch_fused(
        &self,
        prep: &PreparedPlan,
        a: &CsrMatrix<f32>,
        blocks: &[&DenseMatrix<f32>],
        epi: &Epilogue,
    ) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
        for b in blocks {
            check_shapes(a, b)?;
        }
        match blocks {
            [] => Ok(Vec::new()),
            [only] => self
                .execute_prepared_fused(prep, a, only, epi)
                .map(|(out, _)| vec![out]),
            _ => {
                let total: usize = blocks.iter().map(|b| b.cols()).sum();
                if total == 0 {
                    return Ok(blocks
                        .iter()
                        .map(|_| DenseMatrix::zeros(a.rows(), 0))
                        .collect());
                }
                epi.validate(total)?;
                let combined = concat_col_blocks(&self.arena, blocks, a.cols(), total);
                let (out, _) = self.run(prep, a, &combined, epi);
                self.arena.put(combined.into_vec());
                let outs = split_col_blocks(&self.arena, &out, blocks, a.rows(), total);
                self.arena.put(out.into_vec());
                Ok(outs)
            }
        }
    }

    /// Current cache, dispatch, scheduling, and arena counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            plan_cache_hits: self.hits.load(Ordering::Relaxed),
            plan_cache_misses: self.misses.load(Ordering::Relaxed),
            cached_plans: self.cache.lock().unwrap().map.len(),
            plan_cache_evictions: self.evictions.load(Ordering::Relaxed),
            workers: self.workers,
            gather_segments: self.gather.load(Ordering::Relaxed),
            stream_segments: self.stream.load(Ordering::Relaxed),
            arena_reuses: self.arena.reuses(),
            arena_misses: self.arena.misses(),
            gemm_panels: self.gemm_panels.load(Ordering::Relaxed),
            stripes_executed: self.stripes_executed.load(Ordering::Relaxed),
            kblocks: self.kblocks.load(Ordering::Relaxed),
            fastmath_runs: self.fastmath_runs.load(Ordering::Relaxed),
            fused_epilogues: self.fused_epilogues.load(Ordering::Relaxed),
            gemm_ns: self.gemm_ns.load(Ordering::Relaxed),
            spgemm: SpgemmStats {
                rows: self.spgemm_rows.load(Ordering::Relaxed),
                accum_dense: self.spgemm_dense.load(Ordering::Relaxed),
                accum_hash: self.spgemm_hash.load(Ordering::Relaxed),
                accum_merge: self.spgemm_merge.load(Ordering::Relaxed),
                symbolic_ns: self.spgemm_symbolic_ns.load(Ordering::Relaxed),
                numeric_ns: self.spgemm_numeric_ns.load(Ordering::Relaxed),
            },
            batch_plan_hits: self.batch_hits.load(Ordering::Relaxed),
            batch_plan_misses: self.batch_misses.load(Ordering::Relaxed),
            batch_plan_rebuilds: self.batch_rebuilds.load(Ordering::Relaxed),
        }
    }

    /// Returns a result matrix's buffer to the engine's arena so a
    /// later execution of the same shape allocates nothing. Purely an
    /// optimization — dropping the matrix instead is always correct.
    pub fn recycle(&self, m: DenseMatrix<f32>) {
        self.arena.put(m.into_vec());
    }

    /// Leases a zeroed `rows × cols` dense matrix from the engine's
    /// arena — the hand-out pair of [`recycle`](Self::recycle). Callers
    /// assembling engine inputs every cycle (the serving layer stacks a
    /// feature matrix per packed window) reuse hot, already-faulted
    /// pages instead of paying a fresh allocation's page faults each
    /// time.
    pub fn lease_zeroed(&self, rows: usize, cols: usize) -> DenseMatrix<f32> {
        let buf = self.arena.take_zeroed(rows * cols);
        DenseMatrix::from_vec(rows, cols, buf).expect("arena buffer sized to rows x cols")
    }

    /// Drops every cached plan and pooled buffer and zeroes the
    /// hit/miss, dispatch, scheduling, and arena counters.
    pub fn clear_cache(&self) {
        let mut cache = self.cache.lock().unwrap();
        cache.map.clear();
        cache.tick = 0;
        drop(cache);
        let mut batch = self.batch_plans.lock().unwrap();
        batch.map.clear();
        batch.tick = 0;
        drop(batch);
        self.batch_hits.store(0, Ordering::Relaxed);
        self.batch_misses.store(0, Ordering::Relaxed);
        self.batch_rebuilds.store(0, Ordering::Relaxed);
        self.arena.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.gather.store(0, Ordering::Relaxed);
        self.stream.store(0, Ordering::Relaxed);
        self.gemm_panels.store(0, Ordering::Relaxed);
        self.stripes_executed.store(0, Ordering::Relaxed);
        self.kblocks.store(0, Ordering::Relaxed);
        self.fastmath_runs.store(0, Ordering::Relaxed);
        self.fused_epilogues.store(0, Ordering::Relaxed);
        self.gemm_ns.store(0, Ordering::Relaxed);
        self.spgemm_rows.store(0, Ordering::Relaxed);
        self.spgemm_dense.store(0, Ordering::Relaxed);
        self.spgemm_hash.store(0, Ordering::Relaxed);
        self.spgemm_merge.store(0, Ordering::Relaxed);
        self.spgemm_symbolic_ns.store(0, Ordering::Relaxed);
        self.spgemm_numeric_ns.store(0, Ordering::Relaxed);
    }

    /// Dispatches to the inline or pooled path. Shapes are already
    /// checked; a non-noop `epi` is already validated against `b.cols()`.
    fn run(
        &self,
        prep: &PreparedPlan,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
        epi: &Epilogue,
    ) -> (DenseMatrix<f32>, WriteStats) {
        assert_eq!(
            prep.row_kind.len(),
            a.rows(),
            "prepared plan classified for a different row count"
        );
        let rows = a.rows();
        let dim = b.cols();
        let fuse = !epi.is_noop();
        if fuse {
            self.fused_epilogues.fetch_add(1, Ordering::Relaxed);
        }
        let logical = prep.plan.threads.len();
        if dim == 0 || logical == 0 {
            // Even an empty plan owes the epilogue its zero rows — a
            // bias changes them.
            let mut out = DenseMatrix::zeros(rows, dim);
            if fuse && dim > 0 {
                for row in out.as_mut_slice().chunks_mut(dim) {
                    epi.apply_row(row);
                }
            }
            return (out, prep.stats);
        }
        let rp = self.data_path.resolve_fast(b.rows(), dim, self.fast_math);
        if rp.fastmath {
            self.fastmath_runs.fetch_add(1, Ordering::Relaxed);
        }
        if rp.kind == PathKind::Vector {
            let (gather, stream) = prep.dispatch;
            self.gather.fetch_add(gather as u64, Ordering::Relaxed);
            self.stream.fetch_add(stream as u64, Ordering::Relaxed);
        }
        let cols32 = prep.cols32.as_ref().map(AlignedVec::as_slice);
        let eff_workers = self.workers.min(logical);
        let use_striping = self.selects_striping(prep, dim);
        let mut out = self.arena.take_zeroed(rows * dim);
        // The striped path applies the deferred epilogue share per
        // stripe; every other path leaves it to the pass below.
        let mut epilogue_done = false;
        if eff_workers <= 1 {
            run_inline(prep, a, b, dim, &rp, cols32, epi, &mut out);
        } else if use_striping {
            // Hardware clamp: every stripe re-walks the full index/value
            // stream, so stripes beyond the machine's actual parallelism
            // are pure re-walk overhead with nobody to run them. An
            // engine configured with more workers than
            // [`crate::default_workers`] reports (the pool serializes
            // them anyway) stripes only as wide as the hardware; at one
            // hardware thread that is a single full-width stripe — still
            // the right wide-dim path, because it skips the pooled
            // executor's strip folding and serial carry replay.
            let stripe_workers = eff_workers.min(crate::spmm::default_workers()).max(1);
            let stripes = run_striped(
                prep,
                a,
                b,
                dim,
                stripe_workers,
                &rp,
                cols32,
                epi,
                &self.arena,
                &mut out,
            );
            self.stripes_executed.fetch_add(stripes, Ordering::Relaxed);
            epilogue_done = true;
        } else {
            run_pooled(
                prep,
                a,
                b,
                dim,
                eff_workers,
                &rp,
                cols32,
                epi,
                &self.arena,
                &mut out,
            );
        }
        // Serial-replay epilogue: rows not finalized at store time
        // (shared, carry-receiving, untouched) hold their final SpMM
        // value only now — apply the epilogue exactly once per row here
        // (the striped path already did, stripe by stripe).
        if fuse && !epilogue_done {
            for &row in &prep.deferred_rows {
                epi.apply_row(&mut out[row as usize * dim..][..dim]);
            }
        }
        let out = DenseMatrix::from_vec(rows, dim, out)
            .expect("output buffer has exactly rows*dim elements");
        (out, prep.stats)
    }
}

impl std::fmt::Debug for ExecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecEngine")
            .field("workers", &self.workers)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Row-tile height of the single-column interleave/split fast lane: a
/// tile of `64 rows x total cols x 4 B` stays L1-resident while every
/// source (or destination) column streams through it, so each output
/// cache line is filled while hot instead of being re-fetched per column.
const INTERLEAVE_TILE_ROWS: usize = 64;

/// Column-group width of the interleave/split micro-kernel. Eight
/// single-column blocks are transposed together per pass: each output
/// row contributes one contiguous 8-float (32 B) store instead of eight
/// isolated scalar stores, and the fixed-size array references let the
/// compiler drop every bounds check in the hot loop.
const INTERLEAVE_GROUP: usize = 8;

/// Transposes `srcs` (each a full column of length `rows`) into the
/// row-major `rows x srcs.len()` buffer `dst`, tiled so the destination
/// stays L1-resident across column groups.
fn interleave_unit_cols(dst: &mut [f32], srcs: &[&[f32]], rows: usize) {
    let total = srcs.len();
    for start in (0..rows).step_by(INTERLEAVE_TILE_ROWS) {
        let n = INTERLEAVE_TILE_ROWS.min(rows - start);
        let tile = &mut dst[start * total..(start + n) * total];
        let mut j = 0;
        while j + INTERLEAVE_GROUP <= total {
            let cols: [&[f32]; INTERLEAVE_GROUP] =
                std::array::from_fn(|i| &srcs[j + i][start..start + n]);
            for r in 0..n {
                let base = r * total + j;
                let out: &mut [f32; INTERLEAVE_GROUP] = (&mut tile[base..base + INTERLEAVE_GROUP])
                    .try_into()
                    .unwrap();
                for (o, c) in out.iter_mut().zip(&cols) {
                    *o = c[r];
                }
            }
            j += INTERLEAVE_GROUP;
        }
        for (jj, src) in srcs[j..].iter().enumerate() {
            let src = &src[start..start + n];
            for (d, &v) in tile[j + jj..].iter_mut().step_by(total).zip(src) {
                *d = v;
            }
        }
    }
}

/// Inverse of [`interleave_unit_cols`]: scatters each column of the
/// row-major `rows x outs.len()` buffer `src` into its own flat column.
fn deinterleave_unit_cols(src: &[f32], outs: &mut [Vec<f32>], rows: usize) {
    let total = outs.len();
    for start in (0..rows).step_by(INTERLEAVE_TILE_ROWS) {
        let n = INTERLEAVE_TILE_ROWS.min(rows - start);
        let tile = &src[start * total..(start + n) * total];
        let mut chunks = outs.chunks_exact_mut(INTERLEAVE_GROUP);
        let mut j = 0;
        for group in chunks.by_ref() {
            let mut bufs = group.iter_mut();
            let mut cols: [&mut [f32]; INTERLEAVE_GROUP] = std::array::from_fn(|_| {
                &mut bufs.next().expect("chunk has 8 bufs")[start..start + n]
            });
            for r in 0..n {
                let base = r * total + j;
                let inp: &[f32; INTERLEAVE_GROUP] =
                    (&tile[base..base + INTERLEAVE_GROUP]).try_into().unwrap();
                for (c, &v) in cols.iter_mut().zip(inp) {
                    c[r] = v;
                }
            }
            j += INTERLEAVE_GROUP;
        }
        for (jj, buf) in chunks.into_remainder().iter_mut().enumerate() {
            let dst = &mut buf[start..start + n];
            for (d, &v) in dst.iter_mut().zip(tile[j + jj..].iter().step_by(total)) {
                *d = v;
            }
        }
    }
}

/// Column-concatenates `blocks` into one `rows x total` matrix.
///
/// The batch path's overhead is exactly this copy plus
/// [`split_col_blocks`], so both are tuned for the serving layer's
/// dominant shape — many single-column blocks — with the tiled 8-wide
/// transpose micro-kernel above; mixed-width batches take a row-major
/// `copy_from_slice` walk instead.
fn concat_col_blocks(
    arena: &BufferArena,
    blocks: &[&DenseMatrix<f32>],
    rows: usize,
    total: usize,
) -> DenseMatrix<f32> {
    let buf = arena.take_zeroed(rows * total);
    let mut combined =
        DenseMatrix::from_vec(rows, total, buf).expect("arena buffer sized to rows x total");
    let dst = combined.as_mut_slice();
    if blocks.iter().all(|b| b.cols() == 1) {
        let srcs: Vec<&[f32]> = blocks.iter().map(|b| b.as_slice()).collect();
        interleave_unit_cols(dst, &srcs, rows);
    } else {
        let srcs: Vec<(&[f32], usize)> = blocks.iter().map(|b| (b.as_slice(), b.cols())).collect();
        for (r, drow) in dst.chunks_exact_mut(total).enumerate() {
            let mut off = 0;
            for &(src, k) in &srcs {
                drow[off..off + k].copy_from_slice(&src[r * k..r * k + k]);
                off += k;
            }
        }
    }
    combined
}

/// Inverse of [`concat_col_blocks`]: splits the batched output back into
/// one matrix per input block, in order.
fn split_col_blocks(
    arena: &BufferArena,
    out: &DenseMatrix<f32>,
    blocks: &[&DenseMatrix<f32>],
    rows: usize,
    total: usize,
) -> Vec<DenseMatrix<f32>> {
    let src = out.as_slice();
    let mut bufs: Vec<Vec<f32>> = blocks
        .iter()
        .map(|b| arena.take_zeroed(rows * b.cols()))
        .collect();
    if blocks.iter().all(|b| b.cols() == 1) {
        deinterleave_unit_cols(src, &mut bufs, rows);
    } else {
        for (r, srow) in src.chunks_exact(total).enumerate() {
            let mut off = 0;
            for (buf, b) in bufs.iter_mut().zip(blocks) {
                let k = b.cols();
                buf[r * k..r * k + k].copy_from_slice(&srow[off..off + k]);
                off += k;
            }
        }
    }
    bufs.into_iter()
        .zip(blocks)
        .map(|(buf, b)| {
            DenseMatrix::from_vec(rows, b.cols(), buf).expect("buffer sized to rows x cols")
        })
        .collect()
}

/// Single-worker path: no pool, no atomics anywhere. Accumulation order
/// equals [`crate::executor::execute_sequential`]'s, so the result is
/// bit-identical to the oracle. Writes into the caller's zeroed `out`.
/// Fusable rows (`Direct`, carry-free) get `epi` at store time; the
/// engine applies it to all remaining rows after this returns.
#[allow(clippy::too_many_arguments)]
fn run_inline(
    prep: &PreparedPlan,
    a: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    dim: usize,
    rp: &ResolvedPath,
    cols32: Option<&[u32]>,
    epi: &Epilogue,
    out: &mut [f32],
) {
    let fuse = !epi.is_noop();
    // All-direct plans (row-aligned batch plans above all) skip the
    // per-segment flush dispatch entirely when the output width has a
    // fixed-width microkernel: at mega-batch row counts the dispatch
    // overhead itself is the dominant cost. The scalar path keeps the
    // generic loop — it is the correctness oracle.
    if prep.all_direct && !fuse && rp.kind != PathKind::Scalar && matches!(dim, 1 | 2 | 4 | 8) {
        match cols32 {
            Some(cols) => run_inline_direct(prep, cols, a.values(), b, dim, out),
            None => run_inline_direct(prep, a.col_indices(), a.values(), b, dim, out),
        }
        return;
    }
    let mut acc = vec![0.0f32; dim];
    // Carries stay in one flat buffer — a merge-path plan at the paper's
    // 1024-thread floor produces thousands of carry segments per run,
    // and a `Vec` allocation for each was measurable.
    let mut carry_rows: Vec<usize> = Vec::new();
    let mut carry_data: Vec<f32> = Vec::new();
    for tp in &prep.plan.threads {
        for seg in &tp.segments {
            if seg.is_empty() {
                continue;
            }
            match seg.flush {
                Flush::Regular => {
                    let dst = &mut out[seg.row * dim..][..dim];
                    accumulate_segment_dispatch(rp, seg, a, cols32, b, 0, dst);
                    if fuse && prep.fused_ok[seg.row] {
                        epi.apply_row(dst);
                    }
                }
                Flush::Atomic => {
                    accumulate_segment_dispatch(rp, seg, a, cols32, b, 0, &mut acc);
                    for (dst, &v) in out[seg.row * dim..][..dim].iter_mut().zip(&acc) {
                        *dst += v;
                    }
                }
                Flush::Carry => {
                    accumulate_segment_dispatch(rp, seg, a, cols32, b, 0, &mut acc);
                    carry_rows.push(seg.row);
                    carry_data.extend_from_slice(&acc);
                }
            }
        }
    }
    for (i, &row) in carry_rows.iter().enumerate() {
        let src = &carry_data[i * dim..][..dim];
        for (dst, &v) in out[row * dim..][..dim].iter_mut().zip(src) {
            *dst += v;
        }
    }
}

/// Tight single-worker loop for all-direct plans: every non-empty
/// segment is one whole row's flat fold, stored once. Dispatches the
/// runtime width to a fixed-width microkernel so the accumulators live
/// in registers and the inner loop carries no per-segment branch at
/// all. Per output element the fold is the same ascending-`k` sum every
/// other data path computes, so the result stays bit-identical to the
/// sequential oracle.
fn run_inline_direct<I: ColIdx>(
    prep: &PreparedPlan,
    cols: &[I],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    dim: usize,
    out: &mut [f32],
) {
    match dim {
        1 => direct_rows_fixed::<1, I>(prep, cols, vals, b, out),
        2 => direct_rows_fixed::<2, I>(prep, cols, vals, b, out),
        4 => direct_rows_fixed::<4, I>(prep, cols, vals, b, out),
        8 => direct_rows_fixed::<8, I>(prep, cols, vals, b, out),
        _ => unreachable!("run_inline_direct called for unspecialized dim {dim}"),
    }
}

/// The fixed-width row fold behind [`run_inline_direct`]. `D` equals
/// the dense operand's column count; the caller guarantees it.
fn direct_rows_fixed<const D: usize, I: ColIdx>(
    prep: &PreparedPlan,
    cols: &[I],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    out: &mut [f32],
) {
    // `run_inline_direct` is only reached when `b.cols() == D`, so row
    // `c` of `b` is the flat slice `[c * D, c * D + D)` — indexing the
    // backing storage directly (and zipping vals with cols) keeps the
    // hot loop to one bounds check per non-zero.
    let bflat = b.as_slice();
    for tp in &prep.plan.threads {
        for seg in &tp.segments {
            if seg.is_empty() {
                continue;
            }
            let mut acc = [0.0f32; D];
            let vs = &vals[seg.nz_start..seg.nz_end];
            let cs = &cols[seg.nz_start..seg.nz_end];
            for (&v, c) in vs.iter().zip(cs) {
                let row = &bflat[c.to_usize() * D..][..D];
                for d in 0..D {
                    acc[d] += v * row[d];
                }
            }
            out[seg.row * D..][..D].copy_from_slice(&acc);
        }
    }
}

/// Multi-worker static path: logical threads are partitioned into
/// `eff_workers` contiguous, equal-size ranges (merge-path plans are
/// equal-work by construction, so a static partition balances). Direct
/// rows are written through per-worker contiguous `&mut` spans of `out`;
/// shared rows accumulate into per-worker private strips folded after
/// the join; carries are added serially after the join in logical
/// (thread, segment) order, matching the baseline executor. No atomics
/// anywhere. Writes into the caller's zeroed `out`.
#[allow(clippy::too_many_arguments)]
fn run_pooled(
    prep: &PreparedPlan,
    a: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    dim: usize,
    eff_workers: usize,
    rp: &ResolvedPath,
    cols32: Option<&[u32]>,
    epi: &Epilogue,
    arena: &BufferArena,
    out: &mut [f32],
) {
    let fuse = !epi.is_noop();
    let logical = prep.plan.threads.len();
    let per_worker = logical.div_ceil(eff_workers);
    let shared = prep.shared_rows.len();
    let rows = prep.row_kind.len();

    // Worker row boundaries of monotonic plans: `bounds[w]` = first row
    // any thread of worker `w` or later writes in the parallel phase
    // (computed back-to-front so workers with no writes inherit the next
    // boundary), with `bounds[0]` widened to 0 so leading never-written
    // rows land somewhere. All of worker `w`'s writes target rows in
    // `bounds[w]..=bounds[w + 1]` — the closed upper end is the boundary
    // row a partial last segment may share with the next worker.
    let bounds: Option<Vec<usize>> = prep.write_rows_monotonic.then(|| {
        let mut bounds = vec![rows; eff_workers + 1];
        for w in (0..eff_workers).rev() {
            let hi = ((w + 1) * per_worker).min(logical);
            bounds[w] = (w * per_worker..hi)
                .map(|t| prep.thread_first_write_row[t])
                .find(|&r| r != u32::MAX)
                .map_or(bounds[w + 1], |r| r as usize);
        }
        bounds[0] = 0;
        bounds
    });

    // Shared rows accumulate into per-worker *private* f32 strips carved
    // out of one arena buffer, folded into `out` serially after the
    // join. This replaces the old atomic side buffer: the paper's
    // 1024-logical-thread floor yields thousands of boundary segments
    // per plan, and a per-element CAS loop for each dominated the static
    // path's multi-worker overhead. Plain stores plus one deterministic
    // fold also make static runs reproducible for a fixed worker count.
    // Monotonic plans give each worker a contiguous shared-slot range
    // (`shared_rows` ascends with the row order), with consecutive
    // workers overlapping by at most the boundary slot — so the strips
    // total about `shared × dim`, not `eff_workers × shared × dim`.
    let slot_ranges: Vec<(usize, usize)> = match &bounds {
        Some(bounds) => (0..eff_workers)
            .map(|w| {
                let lo = prep
                    .shared_rows
                    .partition_point(|&r| (r as usize) < bounds[w]);
                let hi = prep
                    .shared_rows
                    .partition_point(|&r| (r as usize) <= bounds[w + 1]);
                (lo, hi.max(lo))
            })
            .collect(),
        None => vec![(0, shared); eff_workers],
    };
    let total_strip: usize = slot_ranges.iter().map(|&(lo, hi)| (hi - lo) * dim).sum();
    let mut shared_strips = arena.take_zeroed(total_strip);
    let mut strips: Vec<(usize, &mut [f32])> = Vec::with_capacity(eff_workers);
    {
        let mut rest: &mut [f32] = &mut shared_strips;
        for &(lo, hi) in &slot_ranges {
            let (head, tail) = rest.split_at_mut((hi - lo) * dim);
            strips.push((lo, head));
            rest = tail;
        }
    }
    // Each worker's carries live in one flat buffer (no per-carry
    // allocation); the keys record the `(thread, segment)` replay order.
    type CarryGroup = (Vec<(usize, usize, usize)>, Vec<f32>);
    let all_carries = Mutex::new(Vec::<CarryGroup>::new());

    // Route each worker's direct rows to a view of `out` it owns
    // exclusively. Monotonic plans (every real kernel) get one contiguous
    // `split_at_mut` span per worker: a row written by two workers has at
    // least two parallel-phase write segments and is therefore classified
    // `Shared`, never `Direct`, so every worker's `Direct` rows lie
    // strictly inside its span boundaries. Untouched rows inside a span
    // are simply never stored to. Non-monotonic (hand-built) plans fall
    // back to a per-row slice map; disjointness there comes from
    // `chunks_mut`.
    enum RowRouter<'r> {
        Span { base: usize, span: &'r mut [f32] },
        Map(HashMap<u32, &'r mut [f32]>),
    }
    impl RowRouter<'_> {
        #[inline]
        fn row_mut(&mut self, row: usize, dim: usize) -> &mut [f32] {
            match self {
                RowRouter::Span { base, span } => &mut span[(row - *base) * dim..][..dim],
                RowRouter::Map(m) => m
                    .get_mut(&(row as u32))
                    .expect("direct row slice routed to owner worker"),
            }
        }
    }
    let mut routers: Vec<RowRouter<'_>> = Vec::with_capacity(eff_workers);
    if let Some(bounds) = &bounds {
        let mut rest: &mut [f32] = out;
        let mut start = 0usize;
        for w in 0..eff_workers {
            let end = bounds[w + 1].max(start);
            let (span, tail) = rest.split_at_mut((end - start) * dim);
            routers.push(RowRouter::Span { base: start, span });
            rest = tail;
            start = end;
        }
    } else {
        let mut maps: Vec<HashMap<u32, &mut [f32]>> =
            (0..eff_workers).map(|_| HashMap::new()).collect();
        for (row, chunk) in out.chunks_mut(dim).enumerate() {
            if let RowKind::Direct { owner } = prep.row_kind[row] {
                maps[owner as usize / per_worker].insert(row as u32, chunk);
            }
        }
        routers.extend(maps.into_iter().map(RowRouter::Map));
    }

    let jobs: Vec<ScopedJob<'_>> = routers
        .into_iter()
        .zip(strips)
        .enumerate()
        .map(|(w, (mut router, (slot_base, strip)))| {
            let all_carries = &all_carries;
            let epi = &*epi;
            Box::new(move || {
                let mut acc = vec![0.0f32; dim];
                let mut carry_keys: Vec<(usize, usize, usize)> = Vec::new();
                let mut carry_data: Vec<f32> = Vec::new();
                let hi = ((w + 1) * per_worker).min(logical);
                for t in w * per_worker..hi {
                    for (s, seg) in prep.plan.threads[t].segments.iter().enumerate() {
                        if seg.is_empty() {
                            continue;
                        }
                        match seg.flush {
                            Flush::Regular => match prep.row_kind[seg.row] {
                                RowKind::Direct { .. } => {
                                    let dst = router.row_mut(seg.row, dim);
                                    accumulate_segment_dispatch(rp, seg, a, cols32, b, 0, dst);
                                    if fuse && prep.fused_ok[seg.row] {
                                        epi.apply_row(dst);
                                    }
                                }
                                RowKind::Shared { side: slot } => {
                                    accumulate_segment_dispatch(rp, seg, a, cols32, b, 0, &mut acc);
                                    let base = (slot as usize - slot_base) * dim;
                                    for (dst, &v) in strip[base..base + dim].iter_mut().zip(&acc) {
                                        *dst += v;
                                    }
                                }
                                RowKind::Untouched => {
                                    unreachable!("regular write classifies its row as touched")
                                }
                            },
                            Flush::Atomic => {
                                let RowKind::Shared { side: slot } = prep.row_kind[seg.row] else {
                                    unreachable!("atomic update classifies its row as shared")
                                };
                                accumulate_segment_dispatch(rp, seg, a, cols32, b, 0, &mut acc);
                                let base = (slot as usize - slot_base) * dim;
                                for (dst, &v) in strip[base..base + dim].iter_mut().zip(&acc) {
                                    *dst += v;
                                }
                            }
                            Flush::Carry => {
                                accumulate_segment_dispatch(rp, seg, a, cols32, b, 0, &mut acc);
                                carry_keys.push((t, s, seg.row));
                                carry_data.extend_from_slice(&acc);
                            }
                        }
                    }
                }
                if !carry_keys.is_empty() {
                    all_carries.lock().unwrap().push((carry_keys, carry_data));
                }
            }) as ScopedJob<'_>
        })
        .collect();
    WorkerPool::global().scope_run(jobs);

    // Fold the per-worker shared-row strips into the plain output, in
    // ascending worker order — a fixed association, so repeated static
    // runs at the same worker count are bit-identical. Each worker's
    // strip covers only its slot range; a boundary slot shared by two
    // consecutive workers is simply folded twice.
    {
        let mut strip_off = 0usize;
        for &(lo, hi) in &slot_ranges {
            for slot in lo..hi {
                let row = prep.shared_rows[slot] as usize;
                let dst = &mut out[row * dim..][..dim];
                let src = &shared_strips[strip_off + (slot - lo) * dim..][..dim];
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d += v;
                }
            }
            strip_off += (hi - lo) * dim;
        }
    }

    // Serial fix-up phase in deterministic (thread, segment) order.
    let groups = all_carries.into_inner().unwrap();
    let mut replay: Vec<(usize, usize, usize, &[f32])> = groups
        .iter()
        .flat_map(|(keys, data)| {
            keys.iter()
                .enumerate()
                .map(move |(i, &(t, s, row))| (t, s, row, &data[i * dim..][..dim]))
        })
        .collect();
    replay.sort_unstable_by_key(|&(t, s, _, _)| (t, s));
    for (_, _, row, carry) in replay {
        for (dst, &v) in out[row * dim..][..dim].iter_mut().zip(carry) {
            *dst += v;
        }
    }
    arena.put(shared_strips);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute_sequential;
    use crate::plan::{Segment, ThreadPlan};

    fn seg(row: usize, nz_start: usize, nz_end: usize, flush: Flush) -> Segment {
        Segment {
            row,
            nz_start,
            nz_end,
            flush,
        }
    }

    fn plan(threads: Vec<Vec<Segment>>) -> KernelPlan {
        KernelPlan {
            threads: threads
                .into_iter()
                .map(|segments| ThreadPlan { segments })
                .collect(),
        }
    }

    fn small() -> (CsrMatrix<f32>, DenseMatrix<f32>) {
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 1, 5.0),
            ],
        )
        .unwrap();
        let b = DenseMatrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 + 1.0);
        (a, b)
    }

    fn mixed_plan() -> KernelPlan {
        plan(vec![
            vec![seg(0, 0, 1, Flush::Atomic)],
            vec![seg(0, 1, 2, Flush::Atomic), seg(1, 2, 3, Flush::Regular)],
            vec![seg(2, 3, 5, Flush::Carry)],
        ])
    }

    #[test]
    fn batch_plan_cache_hits_rebuilds_and_misses() {
        use crate::spmm::BatchMergeSpmm;
        let engine = ExecEngine::new(1);
        let kernel = BatchMergeSpmm::with_threads(4);
        let (a, _) = small();
        let class = |hashes: [u64; 2]| {
            BatchShapeClass::from_graphs(hashes.iter().map(|&h| (3usize, 5usize, h)))
        };
        // First window of a composition: miss.
        let c1 = class([1, 2]);
        let p1 = engine.plan_batch_cached(&kernel, &a, 8, &c1);
        assert_eq!(engine.stats().batch_plan_misses, 1);
        // Same composition again: hit, same Arc.
        let p2 = engine.plan_batch_cached(&kernel, &a, 8, &c1);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(engine.stats().batch_plan_hits, 1);
        // Same class, different structure: rebuild in place, no new slot.
        let c2 = class([1, 3]);
        assert_eq!(c1.class_hash(), c2.class_hash());
        let p3 = engine.plan_batch_cached(&kernel, &a, 8, &c2);
        assert!(!Arc::ptr_eq(&p1, &p3));
        let stats = engine.stats();
        assert_eq!(stats.batch_plan_rebuilds, 1);
        assert_eq!(stats.batch_plan_misses, 1, "rebuild is not a miss");
        // The slot now serves the new fingerprint...
        let p4 = engine.plan_batch_cached(&kernel, &a, 8, &c2);
        assert!(Arc::ptr_eq(&p3, &p4));
        // ...and still serves the previous one: the class keeps a
        // working set, so cyclic window compositions hit, not rebuild.
        let p5 = engine.plan_batch_cached(&kernel, &a, 8, &c1);
        assert!(Arc::ptr_eq(&p1, &p5));
        let stats = engine.stats();
        assert_eq!(stats.batch_plan_hits, 3);
        assert_eq!(stats.batch_plan_rebuilds, 1);
        // Cycling through more compositions than the per-class bound
        // evicts intra-slot LRU without ever growing the slot count.
        for extra in 0..(BATCH_PLANS_PER_CLASS as u64 + 2) {
            engine.plan_batch_cached(&kernel, &a, 8, &class([1, 100 + extra]));
        }
        assert_eq!(engine.stats().batch_plan_misses, 1, "one class, one slot");
        engine.clear_cache();
        assert_eq!(engine.stats().batch_plan_hits, 0);
    }

    #[test]
    fn classification_finds_direct_shared_untouched() {
        let (a, _) = small();
        let p = mixed_plan();
        p.validate(&a).unwrap();
        let prep = PreparedPlan::new(p, a.rows());
        assert_eq!(prep.row_kind[0], RowKind::Shared { side: 0 });
        assert_eq!(prep.row_kind[1], RowKind::Direct { owner: 1 });
        // Row 2 only receives a carry — no parallel-phase writes at all.
        assert_eq!(prep.row_kind[2], RowKind::Untouched);
        assert_eq!(prep.shared_rows, vec![0]);
        assert_eq!(prep.direct_row_count(), 1);
        assert_eq!(prep.shared_row_count(), 1);
    }

    #[test]
    fn expected_stats_match_sequential_executor() {
        let (a, b) = small();
        let p = mixed_plan();
        let (_, seq_stats) = execute_sequential(&p, &a, &b).unwrap();
        let prep = PreparedPlan::new(p, a.rows());
        assert_eq!(prep.expected_stats(), seq_stats);
    }

    #[test]
    fn engine_matches_sequential_on_mixed_plan() {
        let (a, b) = small();
        let p = mixed_plan();
        let (seq, seq_stats) = execute_sequential(&p, &a, &b).unwrap();
        for workers in [1, 2, 4, 16] {
            let engine = ExecEngine::new(workers);
            let (out, stats) = engine.execute(&p, &a, &b).unwrap();
            assert!(out.approx_eq(&seq, 1e-5).unwrap(), "workers={workers}");
            assert_eq!(stats, seq_stats, "workers={workers}");
        }
    }

    #[test]
    fn single_worker_is_bit_identical_to_sequential() {
        let a = crate::spmm::test_support::random_matrix(64, 64, 400, 11);
        let b = crate::spmm::test_support::random_dense(64, 19, 12);
        let p = crate::MergePathSpmm::with_threads(13).plan(&a, 19);
        let (seq, _) = execute_sequential(&p, &a, &b).unwrap();
        let (out, _) = ExecEngine::new(1).execute(&p, &a, &b).unwrap();
        assert_eq!(out.max_abs_diff(&seq).unwrap(), 0.0);
    }

    #[test]
    fn every_data_path_is_bit_identical_through_the_engine() {
        let a = crate::spmm::test_support::random_matrix(48, 48, 300, 3);
        let kernel = crate::MergePathSpmm::with_threads(9);
        for dim in [1, 3, 8, 16, 17, 32, 33] {
            let b = crate::spmm::test_support::random_dense(48, dim, 4);
            let p = kernel.plan(&a, dim);
            let (seq, _) = execute_sequential(&p, &a, &b).unwrap();
            for path in [
                DataPath::Auto,
                DataPath::Scalar,
                DataPath::Tiled,
                DataPath::Vector,
            ] {
                let engine = ExecEngine::with_data_path(1, path);
                let (out, _) = engine.execute(&p, &a, &b).unwrap();
                assert_eq!(
                    out.max_abs_diff(&seq).unwrap(),
                    0.0,
                    "path={path:?} dim={dim}"
                );
                // Packed-index route (the cached path) must agree too.
                let (packed, _) = engine
                    .execute_prepared(&PreparedPlan::for_matrix(p.clone(), &a), &a, &b)
                    .unwrap();
                assert_eq!(
                    packed.max_abs_diff(&seq).unwrap(),
                    0.0,
                    "packed path={path:?} dim={dim}"
                );
            }
        }
    }

    #[test]
    fn dispatch_counters_record_gather_stream_split() {
        let a = crate::spmm::test_support::random_matrix(48, 48, 300, 7);
        let b = crate::spmm::test_support::random_dense(48, 16, 8);
        let kernel = crate::MergePathSpmm::with_threads(9);
        let p = kernel.plan(&a, 16);
        let prep = PreparedPlan::for_matrix(p.clone(), &a);
        let (gather, stream) = prep.dispatch_profile();
        assert_eq!(prep.dispatch_profile(), p.dispatch_profile(GATHER_MAX_NNZ));
        assert!(gather + stream > 0);
        assert!(prep.has_packed_indices());

        let engine = ExecEngine::with_data_path(1, DataPath::Vector);
        engine.execute_prepared(&prep, &a, &b).unwrap();
        engine.execute_prepared(&prep, &a, &b).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.gather_segments, 2 * gather as u64);
        assert_eq!(stats.stream_segments, 2 * stream as u64);

        // The tiled path does not go through the dispatcher.
        let tiled = ExecEngine::with_data_path(1, DataPath::Tiled);
        tiled.execute_prepared(&prep, &a, &b).unwrap();
        assert_eq!(tiled.stats().gather_segments, 0);
        assert_eq!(tiled.stats().stream_segments, 0);
        engine.clear_cache();
        assert_eq!(engine.stats().gather_segments, 0);
    }

    #[test]
    fn plan_cached_warms_the_cache_for_execute_prepared() {
        let (a, b) = small();
        let engine = ExecEngine::new(2);
        let kernel = crate::MergePathSpmm::with_threads(3);
        let prep = engine.plan_cached(&kernel, &a, b.cols(), 0);
        assert!(prep.has_packed_indices());
        assert_eq!(engine.stats().plan_cache_misses, 1);
        // Same key: served from cache.
        let again = engine.plan_cached(&kernel, &a, b.cols(), 0);
        assert_eq!(engine.stats().plan_cache_hits, 1);
        assert!(Arc::ptr_eq(&prep, &again));
        // And spmm_cached reuses the same entry.
        engine.spmm_cached(&kernel, &a, &b, 0).unwrap();
        assert_eq!(engine.stats().plan_cache_hits, 2);
    }

    #[test]
    fn zero_dimension_and_empty_plan() {
        let (a, _) = small();
        let b = DenseMatrix::<f32>::zeros(3, 0);
        let engine = ExecEngine::new(4);
        let (out, _) = engine.execute(&mixed_plan(), &a, &b).unwrap();
        assert_eq!(out.cols(), 0);
        let empty = plan(vec![]);
        let b = DenseMatrix::<f32>::zeros(3, 2);
        let (out, stats) = engine.execute(&empty, &a, &b).unwrap();
        assert_eq!(out.rows(), 3);
        assert_eq!(stats, WriteStats::default());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let (a, _) = small();
        let bad_b = DenseMatrix::<f32>::zeros(5, 2);
        assert!(ExecEngine::new(2)
            .execute(&mixed_plan(), &a, &bad_b)
            .is_err());
        assert!(ExecEngine::new(2)
            .spmm_cached(&crate::MergePathSpmm::new(), &a, &bad_b, 0)
            .is_err());
    }

    #[test]
    fn mutated_matrix_misses_cache_via_shape_tripwire() {
        let (a, b) = small();
        let engine = ExecEngine::new(2);
        let kernel = crate::MergePathSpmm::with_threads(3);
        engine.spmm_cached(&kernel, &a, &b, 7).unwrap();
        // Same epoch, but the matrix gained a non-zero: the (rows, cols,
        // nnz) component of the key must force a re-plan.
        let mutated = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 1, 5.0),
                (2, 2, 6.0),
            ],
        )
        .unwrap();
        engine.spmm_cached(&kernel, &mutated, &b, 7).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.plan_cache_misses, 2);
        assert_eq!(stats.plan_cache_hits, 0);
    }

    #[test]
    fn distinct_kernel_configs_get_distinct_cache_entries() {
        let (a, b) = small();
        let engine = ExecEngine::new(2);
        engine
            .spmm_cached(&crate::MergePathSpmm::with_threads(2), &a, &b, 0)
            .unwrap();
        engine
            .spmm_cached(&crate::MergePathSpmm::with_threads(3), &a, &b, 0)
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.plan_cache_misses, 2);
        assert_eq!(stats.cached_plans, 2);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used_past_capacity() {
        let (a, b) = small();
        let engine = ExecEngine::with_plan_capacity(1, DataPath::Auto, 2);
        assert_eq!(engine.plan_capacity(), 2);
        let k2 = crate::MergePathSpmm::with_threads(2);
        let k3 = crate::MergePathSpmm::with_threads(3);
        let k4 = crate::MergePathSpmm::with_threads(4);
        engine.spmm_cached(&k2, &a, &b, 0).unwrap();
        engine.spmm_cached(&k3, &a, &b, 0).unwrap();
        assert_eq!(engine.stats().plan_cache_evictions, 0);
        // Touch k2 so k3 becomes the least recently used entry...
        engine.spmm_cached(&k2, &a, &b, 0).unwrap();
        // ...then overflow: k3 must be the victim, k2 must survive.
        engine.spmm_cached(&k4, &a, &b, 0).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.plan_cache_evictions, 1);
        assert_eq!(stats.cached_plans, 2);
        engine.spmm_cached(&k2, &a, &b, 0).unwrap();
        assert_eq!(
            engine.stats().plan_cache_hits,
            2,
            "k2 survived the eviction"
        );
        engine.spmm_cached(&k3, &a, &b, 0).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.plan_cache_misses, 4, "k3 was evicted and re-planned");
        assert_eq!(stats.plan_cache_evictions, 2);
        engine.clear_cache();
        assert_eq!(engine.stats().plan_cache_evictions, 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_plan_capacity_panics() {
        let _ = ExecEngine::with_plan_capacity(1, DataPath::Auto, 0);
    }

    #[test]
    fn batched_execution_matches_per_block_execution() {
        let a = crate::spmm::test_support::random_matrix(40, 40, 220, 21);
        let kernel = crate::MergePathSpmm::with_threads(7);
        let p = kernel.plan(&a, 8);
        let prep = PreparedPlan::for_matrix(p, &a);
        let blocks: Vec<DenseMatrix<f32>> = [1usize, 4, 3, 16]
            .iter()
            .enumerate()
            .map(|(i, &k)| crate::spmm::test_support::random_dense(40, k, 30 + i as u64))
            .collect();
        let refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
        for workers in [1usize, 4] {
            let engine = ExecEngine::new(workers);
            let outs = engine.execute_prepared_batch(&prep, &a, &refs).unwrap();
            assert_eq!(outs.len(), blocks.len());
            for (block, out) in blocks.iter().zip(&outs) {
                let (solo, _) = engine.execute_prepared(&prep, &a, block).unwrap();
                assert_eq!(out.cols(), block.cols());
                // Column content is independent of its neighbours in the
                // batch: additions within a column happen in non-zero
                // order on every data path, so the batched slice is
                // bit-identical to the solo run at one worker and within
                // the usual atomic-reassociation tolerance otherwise.
                if workers == 1 {
                    assert_eq!(out.max_abs_diff(&solo).unwrap(), 0.0);
                } else {
                    assert!(out.approx_eq(&solo, 1e-4).unwrap());
                }
            }
        }
    }

    #[test]
    fn batched_execution_edge_cases() {
        let (a, b) = small();
        let engine = ExecEngine::new(2);
        let prep = PreparedPlan::for_matrix(mixed_plan(), &a);
        assert!(engine
            .execute_prepared_batch(&prep, &a, &[])
            .unwrap()
            .is_empty());
        let outs = engine.execute_prepared_batch(&prep, &a, &[&b]).unwrap();
        assert_eq!(outs.len(), 1);
        let bad = DenseMatrix::<f32>::zeros(5, 2);
        assert!(engine
            .execute_prepared_batch(&prep, &a, &[&b, &bad])
            .is_err());
        // Zero-width blocks ride along without disturbing the batch.
        let empty = DenseMatrix::<f32>::zeros(3, 0);
        let outs = engine
            .execute_prepared_batch(&prep, &a, &[&empty, &b])
            .unwrap();
        assert_eq!(outs[0].cols(), 0);
        assert_eq!(outs[1].cols(), 2);
    }

    #[test]
    fn arena_recycling_eliminates_output_allocations() {
        let (a, b) = small();
        let engine = ExecEngine::new(2);
        let prep = PreparedPlan::for_matrix(mixed_plan(), &a);
        let (out, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
        let misses_after_first = engine.stats().arena_misses;
        assert!(misses_after_first > 0, "first run allocates");
        engine.recycle(out);
        let (out, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
        let stats = engine.stats();
        assert!(stats.arena_reuses > 0, "second run reuses the buffer");
        assert_eq!(
            stats.arena_misses, misses_after_first,
            "no new allocations once warm"
        );
        engine.recycle(out);
        engine.clear_cache();
        assert_eq!(engine.stats().arena_reuses, 0);
        assert_eq!(engine.stats().arena_misses, 0);
    }

    #[test]
    fn batch_path_reuses_arena_buffers_when_recycled() {
        let a = crate::spmm::test_support::random_matrix(40, 40, 220, 21);
        let p = crate::MergePathSpmm::with_threads(7).plan(&a, 8);
        let prep = PreparedPlan::for_matrix(p, &a);
        let blocks: Vec<DenseMatrix<f32>> = (0..3)
            .map(|i| crate::spmm::test_support::random_dense(40, 1, 30 + i as u64))
            .collect();
        let refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
        let engine = ExecEngine::new(1);
        let outs = engine.execute_prepared_batch(&prep, &a, &refs).unwrap();
        let misses_warm = engine.stats().arena_misses;
        for out in outs {
            engine.recycle(out);
        }
        let outs = engine.execute_prepared_batch(&prep, &a, &refs).unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(
            engine.stats().arena_misses,
            misses_warm,
            "steady-state batch allocates nothing"
        );
    }

    /// The unfused oracle: run the plain engine, then apply the epilogue
    /// to every row of the result.
    fn unfused_then_apply(
        engine: &ExecEngine,
        prep: &PreparedPlan,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
        epi: &Epilogue,
    ) -> DenseMatrix<f32> {
        let (mut out, _) = engine.execute_prepared(prep, a, b).unwrap();
        let dim = out.cols();
        if dim > 0 {
            for row in out.as_mut_slice().chunks_mut(dim) {
                epi.apply_row(row);
            }
        }
        out
    }

    #[test]
    fn fused_epilogue_is_bit_identical_to_unfused_composition() {
        let a = crate::spmm::test_support::random_matrix(48, 48, 300, 31);
        let b = crate::spmm::test_support::random_dense(48, 16, 32);
        let p = crate::MergePathSpmm::with_threads(11).plan(&a, 16);
        let bias: Vec<f32> = (0..16).map(|j| (j as f32) * 0.25 - 2.0).collect();
        let epis = [
            Epilogue::Relu,
            Epilogue::Bias(bias.clone()),
            Epilogue::BiasRelu(bias),
        ];
        // The static path folds shared rows in a fixed worker order, so
        // a run is reproducible at a given worker count and the fused
        // epilogue lands on exactly the values the unfused run returns.
        let prep = PreparedPlan::for_matrix(p, &a);
        for workers in [1usize, 4] {
            let engine =
                ExecEngine::with_sched_policy(workers, DataPath::Auto, SchedPolicy::Static);
            for epi in &epis {
                let want = unfused_then_apply(&engine, &prep, &a, &b, epi);
                let (got, _) = engine.execute_prepared_fused(&prep, &a, &b, epi).unwrap();
                assert_eq!(
                    got.max_abs_diff(&want).unwrap(),
                    0.0,
                    "workers={workers} epi={epi:?}"
                );
            }
        }
    }

    #[test]
    fn fused_bias_reaches_untouched_and_carry_rows() {
        // mixed_plan: row 0 Shared, row 1 Direct (fusable), row 2
        // Untouched in the parallel phase (carry-only). The bias must
        // still land on rows 0 and 2 via the deferred pass.
        let (a, b) = small();
        let p = mixed_plan();
        let bias = vec![10.0f32, 20.0];
        let engine = ExecEngine::new(2);
        let prep = PreparedPlan::new(p, a.rows());
        assert_eq!(prep.fusable_row_count(), 1, "only row 1 fuses at store");
        let want = unfused_then_apply(&engine, &prep, &a, &b, &Epilogue::Bias(bias.clone()));
        let (got, _) = engine
            .execute_prepared_fused(&prep, &a, &b, &Epilogue::Bias(bias))
            .unwrap();
        assert_eq!(got.max_abs_diff(&want).unwrap(), 0.0);
    }

    #[test]
    fn empty_plan_still_applies_bias_to_zero_rows() {
        let a = CsrMatrix::from_triplets(3, 3, &[]).unwrap();
        let b = DenseMatrix::from_fn(3, 2, |_, _| 1.0);
        let p = plan(vec![]);
        let engine = ExecEngine::new(1);
        let prep = PreparedPlan::new(p, a.rows());
        let (out, _) = engine
            .execute_prepared_fused(&prep, &a, &b, &Epilogue::Bias(vec![1.5, -2.5]))
            .unwrap();
        for r in 0..3 {
            assert_eq!(out.row(r), &[1.5, -2.5], "bias lands on zero row {r}");
        }
    }

    #[test]
    fn fused_runs_are_counted_and_validated() {
        let (a, b) = small();
        let engine = ExecEngine::new(1);
        let kernel = crate::MergePathSpmm::with_threads(3);
        engine.spmm_cached(&kernel, &a, &b, 0).unwrap();
        assert_eq!(engine.stats().fused_epilogues, 0, "noop runs don't count");
        engine
            .spmm_cached_fused(&kernel, &a, &b, 0, &Epilogue::Relu)
            .unwrap();
        assert_eq!(engine.stats().fused_epilogues, 1);
        // Bias width must match the dense dimension.
        let err = engine.spmm_cached_fused(&kernel, &a, &b, 0, &Epilogue::Bias(vec![0.0; 3]));
        assert!(err.is_err(), "bias wider than dim rejected");
        engine.clear_cache();
        assert_eq!(engine.stats().fused_epilogues, 0, "reset clears counter");
    }

    #[test]
    fn batch_fused_column_uniform_epilogue_matches_per_block_apply() {
        let a = crate::spmm::test_support::random_matrix(40, 40, 220, 41);
        let p = crate::MergePathSpmm::with_threads(7).plan(&a, 8);
        let prep = PreparedPlan::for_matrix(p, &a);
        let blocks: Vec<DenseMatrix<f32>> = [3usize, 1, 4]
            .iter()
            .enumerate()
            .map(|(i, &k)| crate::spmm::test_support::random_dense(40, k, 50 + i as u64))
            .collect();
        let refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
        let engine = ExecEngine::new(2);
        let plain = engine.execute_prepared_batch(&prep, &a, &refs).unwrap();
        let fused = engine
            .execute_prepared_batch_fused(&prep, &a, &refs, &Epilogue::Relu)
            .unwrap();
        for (mut want, got) in plain.into_iter().zip(fused) {
            let dim = want.cols();
            for row in want.as_mut_slice().chunks_mut(dim) {
                Epilogue::Relu.apply_row(row);
            }
            assert!(got.approx_eq(&want, 1e-5).unwrap());
        }
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let (a, b) = small();
        let engine = ExecEngine::new(2);
        let kernel = crate::MergePathSpmm::with_threads(3);
        let (first, _) = engine.spmm_cached(&kernel, &a, &b, 0).unwrap();
        let (second, _) = engine.spmm_cached(&kernel, &a, &b, 0).unwrap();
        assert_eq!(first.max_abs_diff(&second).unwrap(), 0.0);
        let stats = engine.stats();
        assert_eq!(stats.plan_cache_misses, 1);
        assert_eq!(stats.plan_cache_hits, 1);
        assert_eq!(stats.cached_plans, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        engine.clear_cache();
        assert_eq!(engine.stats().cached_plans, 0);
        assert_eq!(engine.stats().hit_rate(), 0.0);
    }

    #[test]
    fn column_striped_policy_is_bit_identical_to_sequential() {
        let a = crate::spmm::test_support::random_matrix(64, 64, 400, 11);
        for dim in [128usize, 256] {
            let b = crate::spmm::test_support::random_dense(64, dim, 12);
            let p = crate::MergePathSpmm::with_threads(13).plan(&a, dim);
            let (seq, _) = execute_sequential(&p, &a, &b).unwrap();
            let prep = PreparedPlan::for_matrix(p, &a);
            for workers in [2usize, 4, 16] {
                let engine = ExecEngine::with_sched_policy(
                    workers,
                    DataPath::Auto,
                    SchedPolicy::ColumnStriped,
                );
                assert!(engine.selects_striping(&prep, dim));
                let (out, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
                // Each stripe replays the full (thread, segment) walk over
                // its own column window, so per-column addition order is
                // exactly the sequential executor's — equality is exact at
                // any worker count.
                assert_eq!(
                    out.max_abs_diff(&seq).unwrap(),
                    0.0,
                    "dim={dim} workers={workers}"
                );
                let stats = engine.stats();
                // Lane-aligned bounds can cap the stripe count below the
                // worker count (128 columns at 16 lanes is at most 8
                // stripes) and the hardware clamp caps it at the
                // machine's real parallelism (a 1-core CI box runs one
                // full-width stripe) — but a striped run always reports
                // at least one stripe. Fixed multi-stripe splits are
                // exercised bit-exactly by the `stripe` module's own
                // tests, which bypass the clamp.
                assert!(
                    stats.stripes_executed >= 1,
                    "dim={dim} workers={workers}: run was striped"
                );
                engine.clear_cache();
                assert_eq!(engine.stats().stripes_executed, 0, "reset clears counter");
            }
        }
    }

    #[test]
    fn auto_policy_stripes_wide_dims_and_skewed_mid_dims() {
        let a = crate::spmm::test_support::random_matrix(64, 256, 600, 5);
        let engine = ExecEngine::new(4);
        // Balanced merge-path plan: striping turns on at STRIPE_MIN_DIM
        // and not a column earlier.
        let mp = PreparedPlan::for_matrix(crate::MergePathSpmm::with_threads(16).plan(&a, 8), &a);
        assert!(!engine.selects_striping(&mp, STRIPE_MIN_DIM - 1));
        assert!(engine.selects_striping(&mp, STRIPE_MIN_DIM));
        assert!(!engine.selects_striping(&mp, 0));
        // Skewed row-split plan: the skew lowers the threshold to
        // STRIPE_SKEW_MIN_DIM (striping fixes the imbalance *and* removes
        // the serial carry tail).
        let rs = PreparedPlan::for_matrix(crate::RowSplitSpmm::with_threads(64).plan(&a, 8), &a);
        assert!(rs.static_span_skew(4) > STRIPE_SKEW_THRESHOLD);
        assert!(engine.selects_striping(&rs, STRIPE_SKEW_MIN_DIM));
        assert!(!engine.selects_striping(&rs, STRIPE_SKEW_MIN_DIM - 1));
        // Pinned policies override Auto's dim inspection.
        let pinned = ExecEngine::with_sched_policy(4, DataPath::Auto, SchedPolicy::Static);
        assert!(!pinned.selects_striping(&mp, 512));
        // One worker never stripes.
        assert!(!ExecEngine::new(1).selects_striping(&mp, 512));
        // And an Auto engine actually routes a wide run through stripes.
        let b = crate::spmm::test_support::random_dense(256, STRIPE_MIN_DIM, 6);
        let p = crate::MergePathSpmm::with_threads(16).plan(&a, STRIPE_MIN_DIM);
        let (seq, _) = execute_sequential(&p, &a, &b).unwrap();
        let (out, _) = engine.execute_prepared(&mp, &a, &b).unwrap();
        assert!(engine.stats().stripes_executed > 0, "auto run striped");
        assert_eq!(out.max_abs_diff(&seq).unwrap(), 0.0);
    }

    /// Engine-level check of the gather prefetch: with `B` past the
    /// prefetch gate the vectorized path hints ahead on the inline,
    /// pooled and striped walks, and every one of them still equals its
    /// unhinted reference exactly — the scalar path at the same worker
    /// count (same plan, same shared-row fold) and, for the inline and
    /// striped walks, the sequential executor.
    #[test]
    fn prefetching_paths_equal_their_unhinted_references() {
        let rows = 9000;
        let a = crate::spmm::test_support::random_matrix(rows, rows, 20_000, 41);
        for dim in [128usize, 256] {
            let b = crate::spmm::test_support::random_dense(rows, dim, 42);
            let p = crate::MergePathSpmm::with_threads(64).plan(&a, dim);
            let (seq, _) = execute_sequential(&p, &a, &b).unwrap();
            let prep = PreparedPlan::for_matrix(p, &a);
            assert!(DataPath::Vector.resolve(rows, dim).prefetch, "dim={dim}");
            for workers in [1usize, 2, 3] {
                let run = |path, policy| {
                    ExecEngine::with_sched_policy(workers, path, policy)
                        .execute_prepared(&prep, &a, &b)
                        .unwrap()
                        .0
                };
                let hinted = run(DataPath::Vector, SchedPolicy::Static);
                let oracle = run(DataPath::Scalar, SchedPolicy::Static);
                assert_eq!(
                    hinted.as_slice(),
                    oracle.as_slice(),
                    "dim={dim} w={workers}"
                );
                if workers == 1 {
                    assert_eq!(hinted.as_slice(), seq.as_slice(), "dim={dim} inline");
                }
                let striped = run(DataPath::Vector, SchedPolicy::ColumnStriped);
                assert_eq!(
                    striped.as_slice(),
                    seq.as_slice(),
                    "dim={dim} w={workers} striped"
                );
            }
        }
    }

    #[test]
    fn striped_fused_epilogue_is_bit_identical_to_unfused_composition() {
        let a = crate::spmm::test_support::random_matrix(48, 48, 300, 31);
        let dim = 128usize;
        let b = crate::spmm::test_support::random_dense(48, dim, 32);
        let p = crate::MergePathSpmm::with_threads(11).plan(&a, dim);
        let bias: Vec<f32> = (0..dim).map(|j| (j as f32) * 0.25 - 2.0).collect();
        let engine = ExecEngine::with_sched_policy(4, DataPath::Auto, SchedPolicy::ColumnStriped);
        let prep = PreparedPlan::for_matrix(p, &a);
        for epi in [
            Epilogue::Relu,
            Epilogue::Bias(bias.clone()),
            Epilogue::BiasRelu(bias),
        ] {
            let want = unfused_then_apply(&engine, &prep, &a, &b, &epi);
            let (got, _) = engine.execute_prepared_fused(&prep, &a, &b, &epi).unwrap();
            // Stripe-local stores, carries, deferred rows and epilogue all
            // preserve the sequential order per column window.
            assert_eq!(got.max_abs_diff(&want).unwrap(), 0.0, "epi={epi:?}");
        }
    }

    #[test]
    fn fast_math_opt_in_is_gated_and_counted() {
        let (a, b) = small();
        let p = mixed_plan();
        let prep = PreparedPlan::for_matrix(p, &a);
        // Exact default: no FastMath runs counted.
        let exact = ExecEngine::with_data_path(2, DataPath::Vector).with_fast_math(false);
        assert!(!exact.fast_math());
        exact.execute_prepared(&prep, &a, &b).unwrap();
        assert_eq!(exact.stats().fastmath_runs, 0);
        // Opted in: counted only where the CPU proof holds, and results
        // stay within contraction tolerance of the exact run.
        let fast = ExecEngine::with_data_path(2, DataPath::Vector).with_fast_math(true);
        assert!(fast.fast_math());
        let (got, _) = fast.execute_prepared(&prep, &a, &b).unwrap();
        let (want, _) = exact.execute_prepared(&prep, &a, &b).unwrap();
        assert!(got.approx_eq(&want, 1e-5).unwrap());
        if crate::fastmath_supported() {
            assert!(fast.stats().fastmath_runs > 0, "fma-proven CPU counts");
            fast.clear_cache();
            assert_eq!(fast.stats().fastmath_runs, 0, "reset clears counter");
        } else {
            assert_eq!(fast.stats().fastmath_runs, 0, "unproven CPU stays exact");
        }
        // The scalar path never contracts, opt-in or not.
        let scalar = ExecEngine::with_data_path(2, DataPath::Scalar).with_fast_math(true);
        scalar.execute_prepared(&prep, &a, &b).unwrap();
        assert_eq!(scalar.stats().fastmath_runs, 0);
    }
}
