//! Fast-path CPU execution engine for SpMM.
//!
//! [`crate::executor::execute_parallel`] is kept as the straightforward
//! baseline: it spawns scoped threads per call and routes *every* output
//! element through an `AtomicU32` cell, then pays two extra O(rows·dim)
//! passes to initialize and convert that atomic buffer. [`ExecEngine`]
//! removes all of that overhead:
//!
//! * **Row spans**: every run cuts the output rows into one contiguous
//!   span per worker by the merge-path search on the `rows + nnz`
//!   diagonal, each cut snapped to a row edge. Every row has
//!   one writer, which folds its non-zeros in one ascending pass and
//!   stores the row into a plain `&mut [f32]` slice of the output; the
//!   slices are disjoint by `split_at_mut`, so no row is shared, no store
//!   is atomic, and nothing is folded or replayed after the join.
//!   Snapping costs at most one row per boundary (DESIGN.md §2.3.1).
//! * **Persistent workers** (the `pool` module): spans run on long-lived
//!   pool workers, so repeated SpMM calls (a GNN forward pass is many of
//!   them) stop paying thread spawn/join. A run with one effective worker
//!   executes inline on the caller.
//! * **Vectorized, cache-blocked data path** (the `datapath` module): each
//!   row runs through a [`DataPath`]-selected inner kernel — by default
//!   the wide-lane streaming kernels (16/8 f32 register accumulators,
//!   runtime lane detection, L1-sized column panels) with degree-adaptive
//!   dispatch: short rows take a gather microkernel, long rows the
//!   streaming panel kernel, and the split is recorded in
//!   [`EngineStats`]. Widths 1, 2, 4 and 8 fold in a fixed-width register
//!   kernel instead. The scalar oracle stays selectable
//!   ([`DataPath::Scalar`]).
//! * **Per-call plans** ([`ExecEngine::spmm`]): a [`PreparedPlan`] is
//!   one O(rows) scan of `row_ptr`, cheaper than hashing a cache key, so
//!   the engine builds one per call and caches nothing. Callers that run
//!   one structure many times (the serving registry) keep the plan
//!   themselves and execute it with
//!   [`execute_prepared`](ExecEngine::execute_prepared).
//! * **Column batches in place**
//!   ([`execute_prepared_batch`](ExecEngine::execute_prepared_batch)):
//!   one run takes a list of dense blocks, cuts the row spans once and
//!   dispatches the pool once; each worker folds its span once per block,
//!   reading each block where it lies and storing into that block's own
//!   output. A single block is the one-block case of the same runner.
//!   Only a batch of single-column blocks is interleaved into one
//!   combined operand and split back out, since a one-column fold
//!   gathers one float per cache line (DESIGN.md §2.8).
//! * **Buffer arena** (the `arena` module): output buffers (and the
//!   single-column lane's combined operand) are pooled per engine and
//!   checked out per execution, so steady-state inference allocates
//!   nothing. Outputs leave the engine as [`DenseMatrix`] values; callers
//!   hand them back with [`ExecEngine::recycle`] to close the loop (the
//!   GCN forward pass ping-pongs its activations this way).
//!
//! Every output row is the ascending sum of its products, at any worker
//! count and on every data path: exactly (f32 `==`) what
//! [`crate::executor::execute_sequential`] computes for a row-split or
//! serial plan. The one representational deviation is the sign of a zero
//! out of the vectorized gather microkernel (see the `datapath` module
//! docs).
//!
//! A [`PreparedPlan`] holds the row count it was built for and that
//! structure's statistics; spans, values and column indices are always
//! read from the live matrix. Running a plan on another matrix with the
//! same row count therefore computes that matrix's exact product, split
//! by that matrix's own spans; only the statistics the run reports follow
//! the structure the plan was built for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mpspmm_sparse::{CsrMatrix, DenseMatrix, SparseFormatError};

use crate::arena::BufferArena;
use crate::batch::BatchShapeClass;
use crate::datapath::{accumulate_segment_dispatch, with_isa, DataPath, PathKind, ResolvedPath};
use crate::epilogue::Epilogue;
use crate::executor::check_shapes;
use crate::plan::{Flush, Segment};
use crate::pool::{ScopedJob, WorkerPool};
use crate::spmm::{default_workers, row_aligned_starts, SpmmKernel};
use crate::stats::WriteStats;
use crate::tuning::GATHER_MAX_NNZ;

/// A prepared SpMM plan: the row count and write statistics of one
/// sparsity structure. The engine cuts its row spans from the live
/// `row_ptr` at run time, one per worker, so a plan depends on neither
/// the dense width, the worker count nor any kernel's segment plan.
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    /// Output rows the plan was built for; every run checks it.
    rows: usize,
    /// The write statistics and gather/stream dispatch split of the
    /// structure the plan was built for, from one `row_ptr` scan.
    stats: WriteStats,
    dispatch: (usize, usize),
}

impl PreparedPlan {
    /// The plan of `a`, from one O(rows) scan of `a.row_ptr()`. Its
    /// statistics equal those of any [`BatchMergeSpmm`](crate::BatchMergeSpmm)
    /// plan of `a`: one regular write per non-empty row.
    pub fn new(a: &CsrMatrix<f32>) -> Self {
        let rp = a.row_ptr();
        let mut stats = WriteStats {
            regular_nnz: a.nnz(),
            ..WriteStats::default()
        };
        let mut dispatch = (0, 0);
        for w in rp.windows(2) {
            match w[1] - w[0] {
                0 => continue,
                len if len <= GATHER_MAX_NNZ => dispatch.0 += 1,
                _ => dispatch.1 += 1,
            }
            stats.regular_row_writes += 1;
        }
        Self {
            rows: a.rows(),
            stats,
            dispatch,
        }
    }

    /// The degree-adaptive dispatch split of this plan's non-empty rows:
    /// `(gather_bound, stream_bound)` at the [`GATHER_MAX_NNZ`]
    /// threshold.
    pub fn dispatch_profile(&self) -> (usize, usize) {
        self.dispatch
    }

    /// The write statistics every execution of this plan reports (a
    /// property of the structure, not of the operand values).
    pub fn expected_stats(&self) -> WriteStats {
        self.stats
    }

    /// Rows written by more than one worker: always 0, as every row has
    /// one writer. Kept for callers that report Fig. 5's shared-row
    /// share.
    pub fn shared_row_count(&self) -> usize {
        0
    }
}

/// Snapshot of an engine's data-path, GEMM and arena counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Worker parallelism the engine executes with.
    pub workers: usize,
    /// Non-empty rows in the gather regime (at most [`GATHER_MAX_NNZ`]
    /// non-zeros), cumulative over vectorized-path row folds: a column
    /// batch folds every row once per block. At widths 1, 2, 4 and 8
    /// the fixed-width fold runs them instead of the gather
    /// microkernel; they count all the same.
    pub gather_segments: u64,
    /// Non-empty rows in the streaming regime, counted like
    /// [`gather_segments`](Self::gather_segments).
    pub stream_segments: u64,
    /// Buffer checkouts served from the arena pool without allocating.
    pub arena_reuses: u64,
    /// Buffer checkouts that had to allocate a fresh buffer.
    pub arena_misses: u64,
    /// Column panels executed by the engine's parallel dense GEMM
    /// ([`ExecEngine::gemm`]), cumulative over runs.
    pub gemm_panels: u64,
    /// Reduction-depth blocks executed by the engine's dense GEMM (the
    /// `k`-blocking that keeps the `B` panel L2-resident), cumulative
    /// over runs.
    pub kblocks: u64,
    /// Engine runs that fused a non-noop [`Epilogue`] into the SpMM
    /// store stage instead of paying a separate activation pass.
    pub fused_epilogues: u64,
    /// Wall nanoseconds spent inside the engine's dense GEMM, cumulative
    /// — together with the SpMM wall time this is the "where the time
    /// goes" split of a fused GCN layer.
    pub gemm_ns: u64,
    /// Always 0: [`ExecEngine::plan_batch_cached`] caches nothing, so
    /// no batch plan is ever reused.
    pub batch_plan_hits: u64,
    /// Batch plans built by [`ExecEngine::plan_batch_cached`] — one per
    /// call.
    pub batch_plan_misses: u64,
    /// Always 0, like [`batch_plan_hits`](Self::batch_plan_hits).
    pub batch_plan_rebuilds: u64,
}

impl EngineStats {
    /// Always 0: the engine caches no plans. Unused by the library; kept
    /// for the serving benchmark's `core.plan_cache_hit_rate` metric
    /// until that benchmark stops reading it.
    pub fn hit_rate(&self) -> f64 {
        0.0
    }
}

/// The fast-path SpMM execution engine. See the module docs for what it
/// changes over [`crate::executor::execute_parallel`].
pub struct ExecEngine {
    pub(crate) workers: usize,
    pub(crate) data_path: DataPath,
    batch_builds: AtomicU64,
    pub(crate) arena: BufferArena,
    gather: AtomicU64,
    stream: AtomicU64,
    pub(crate) gemm_panels: AtomicU64,
    pub(crate) kblocks: AtomicU64,
    fused_epilogues: AtomicU64,
    pub(crate) gemm_ns: AtomicU64,
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
        assert!(workers > 0, "need at least one worker");
        Self {
            workers,
            data_path,
            batch_builds: AtomicU64::new(0),
            arena: BufferArena::default(),
            gather: AtomicU64::new(0),
            stream: AtomicU64::new(0),
            gemm_panels: AtomicU64::new(0),
            kblocks: AtomicU64::new(0),
            fused_epilogues: AtomicU64::new(0),
            gemm_ns: AtomicU64::new(0),
        }
    }

    /// The inner data path this engine executes rows through.
    pub fn data_path(&self) -> DataPath {
        self.data_path
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

    /// Executes a prepared plan: [`execute_prepared_fused`](Self::execute_prepared_fused)
    /// with no epilogue. [`SpmmKernel::spmm`] and
    /// [`SpmmKernel::spmm_with_stats`] do not come here; they call
    /// [`ExecEngine::global`]`().`[`spmm`](Self::spmm), which goes straight
    /// to `execute_prepared_fused`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if
    /// `a.cols() != b.rows()`.
    ///
    /// # Panics
    ///
    /// Panics if `prep` was built for a different row count than
    /// `a.rows()`.
    pub fn execute_prepared(
        &self,
        prep: &PreparedPlan,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
    ) -> Result<(DenseMatrix<f32>, WriteStats), SparseFormatError> {
        self.execute_prepared_fused(prep, a, b, &Epilogue::None)
    }

    /// Executes a prepared plan with a fused [`Epilogue`] applied at the
    /// store stage: each row gets it right after its one store, while
    /// register-hot, empty rows included. The result is
    /// element-for-element identical to `execute_prepared` followed by a
    /// separate epilogue pass, without re-streaming the output (see
    /// DESIGN.md §2.10). This is the one-block case of
    /// [`execute_prepared_batch_fused`](Self::execute_prepared_batch_fused).
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if
    /// `a.cols() != b.rows()` or a bias epilogue's length differs from
    /// `b.cols()`.
    ///
    /// # Panics
    ///
    /// Panics if `prep` was built for a different row count than
    /// `a.rows()`.
    pub fn execute_prepared_fused(
        &self,
        prep: &PreparedPlan,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
        epi: &Epilogue,
    ) -> Result<(DenseMatrix<f32>, WriteStats), SparseFormatError> {
        let mut outs = self.execute_prepared_batch_fused(prep, a, &[b], epi)?;
        let out = outs.pop().expect("one block in, one output out");
        Ok((out, prep.stats))
    }

    /// Computes `a · b` with `epi` fused at the store stage, on a plan
    /// built for this call ([`PreparedPlan::new`]). Pass
    /// [`Epilogue::None`] for the plain product.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if
    /// `a.cols() != b.rows()` or a bias epilogue's length differs from
    /// `b.cols()`.
    pub fn spmm(
        &self,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
        epi: &Epilogue,
    ) -> Result<(DenseMatrix<f32>, WriteStats), SparseFormatError> {
        self.execute_prepared_fused(&PreparedPlan::new(a), a, b, epi)
    }

    /// Returns [`PreparedPlan::new`]`(a)`; `kernel`, `dim` and `epoch`
    /// are unused. Unused by the library; kept for the serving
    /// benchmark, which still plans through it.
    pub fn plan_cached(
        &self,
        _kernel: &dyn SpmmKernel,
        a: &CsrMatrix<f32>,
        _dim: usize,
        _epoch: u64,
    ) -> Arc<PreparedPlan> {
        Arc::new(PreparedPlan::new(a))
    }

    /// Builds the prepared plan for a block-diagonal mega-batch `a`, the
    /// same plan [`PreparedPlan::new`] builds; each call counts
    /// one build in [`EngineStats::batch_plan_misses`]. Each output row
    /// has a single writer summing in ascending order, so the result is
    /// each constituent's sequential oracle at any worker count.
    ///
    /// `kernel`, `dim` and `class` are unused; they remain in the
    /// signature for existing callers.
    pub fn plan_batch_cached(
        &self,
        _kernel: &dyn SpmmKernel,
        a: &CsrMatrix<f32>,
        _dim: usize,
        _class: &BatchShapeClass,
    ) -> Arc<PreparedPlan> {
        self.batch_builds.fetch_add(1, Ordering::Relaxed);
        Arc::new(PreparedPlan::new(a))
    }

    /// Executes one prepared plan over several dense column blocks in a
    /// *single* engine run, returning one output matrix per block, in
    /// order: the row spans are cut once and the pool is dispatched once
    /// for the whole batch. Each worker folds its span once per block,
    /// reading the block where it lies and storing straight into that
    /// block's output, so the batch costs no gather into a combined
    /// operand and no scatter out of a combined result.
    ///
    /// This is the batched submission path the serving layer coalesces
    /// concurrent requests through: one pool dispatch, one span cut and
    /// one set of output checkouts per *batch* instead of per request.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if any block has
    /// `rows != a.cols()`.
    ///
    /// # Panics
    ///
    /// Panics if `prep` was built for a different row count than
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
    /// fused [`Epilogue`] applied **per block**: every block's rows get
    /// `epi` at their store, and a bias epilogue must match *each*
    /// block's width (a batch of blocks of one layer width shares that
    /// layer's epilogue unchanged).
    ///
    /// Every output row keeps one writer that sums its products in
    /// ascending `k`, so each block's output equals its own
    /// [`execute_prepared_fused`](Self::execute_prepared_fused) run under
    /// f32 `==` at any worker count.
    ///
    /// A batch whose blocks are *all* single columns (two or more of
    /// them) instead interleaves them into one combined operand, runs it
    /// as one block and splits the result: a one-column block would
    /// gather one float per cache line and re-walk `a` once per block,
    /// which costs more than the copies (DESIGN.md §2.8).
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if any block has
    /// `rows != a.cols()` or a bias epilogue's length differs from any
    /// block's width.
    ///
    /// # Panics
    ///
    /// Panics if `prep` was built for a different row count than
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
            epi.validate(b.cols())?;
        }
        if blocks.len() > 1 && blocks.iter().all(|b| b.cols() == 1) {
            return Ok(self.run_unit_cols(prep, a, blocks, epi));
        }
        Ok(self.run(prep, a, blocks, epi))
    }

    /// Current dispatch, GEMM, batch-plan and arena counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            workers: self.workers,
            gather_segments: self.gather.load(Ordering::Relaxed),
            stream_segments: self.stream.load(Ordering::Relaxed),
            arena_reuses: self.arena.reuses(),
            arena_misses: self.arena.misses(),
            gemm_panels: self.gemm_panels.load(Ordering::Relaxed),
            kblocks: self.kblocks.load(Ordering::Relaxed),
            fused_epilogues: self.fused_epilogues.load(Ordering::Relaxed),
            gemm_ns: self.gemm_ns.load(Ordering::Relaxed),
            batch_plan_hits: 0,
            batch_plan_misses: self.batch_builds.load(Ordering::Relaxed),
            batch_plan_rebuilds: 0,
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

    /// Drops every pooled buffer and zeroes the dispatch, GEMM,
    /// batch-plan and arena counters.
    pub fn clear_cache(&self) {
        self.batch_builds.store(0, Ordering::Relaxed);
        self.arena.clear();
        self.gather.store(0, Ordering::Relaxed);
        self.stream.store(0, Ordering::Relaxed);
        self.gemm_panels.store(0, Ordering::Relaxed);
        self.kblocks.store(0, Ordering::Relaxed);
        self.fused_epilogues.store(0, Ordering::Relaxed);
        self.gemm_ns.store(0, Ordering::Relaxed);
    }

    /// Runs `prep` on `a · b` for every block `b`, each into its own
    /// arena output: inline at one worker, otherwise one row span per
    /// worker on the pool. Shapes are already checked; a non-noop `epi`
    /// is already validated against every block's width.
    fn run(
        &self,
        prep: &PreparedPlan,
        a: &CsrMatrix<f32>,
        blocks: &[&DenseMatrix<f32>],
        epi: &Epilogue,
    ) -> Vec<DenseMatrix<f32>> {
        assert_eq!(
            prep.rows,
            a.rows(),
            "prepared plan built for a different row count"
        );
        let rows = a.rows();
        if !epi.is_noop() {
            self.fused_epilogues.fetch_add(1, Ordering::Relaxed);
        }
        let mut outs: Vec<Vec<f32>> = blocks
            .iter()
            .map(|b| self.arena.take_zeroed(rows * b.cols()))
            .collect();
        let mut folds = Vec::with_capacity(blocks.len());
        for (&b, out) in blocks.iter().zip(&mut outs) {
            if b.cols() == 0 {
                continue;
            }
            let rp = self.data_path.resolve(b.rows(), b.cols());
            if rp.kind == PathKind::Vector {
                let (gather, stream) = prep.dispatch;
                self.gather.fetch_add(gather as u64, Ordering::Relaxed);
                self.stream.fetch_add(stream as u64, Ordering::Relaxed);
            }
            folds.push(BlockFold { b, rp, out });
        }
        run_row_spans(a, folds, self.workers, epi);
        outs.into_iter()
            .zip(blocks)
            .map(|(buf, b)| {
                DenseMatrix::from_vec(rows, b.cols(), buf)
                    .expect("output buffer has exactly rows*cols elements")
            })
            .collect()
    }

    /// The all-single-column batch: interleaves the `n` columns into one
    /// `n`-wide operand, runs it as one block with a width-1 bias tiled
    /// to `n`, and splits the result back into one column per block.
    fn run_unit_cols(
        &self,
        prep: &PreparedPlan,
        a: &CsrMatrix<f32>,
        blocks: &[&DenseMatrix<f32>],
        epi: &Epilogue,
    ) -> Vec<DenseMatrix<f32>> {
        let n = blocks.len();
        let mut combined = self.lease_zeroed(a.cols(), n);
        let srcs: Vec<&[f32]> = blocks.iter().map(|b| b.as_slice()).collect();
        interleave_unit_cols(combined.as_mut_slice(), &srcs, a.cols());
        let epi = match epi {
            Epilogue::Bias(b) => Epilogue::Bias(vec![b[0]; n]),
            Epilogue::BiasRelu(b) => Epilogue::BiasRelu(vec![b[0]; n]),
            uniform => uniform.clone(),
        };
        let mut outs = self.run(prep, a, &[&combined], &epi);
        let out = outs.pop().expect("one block in, one output out");
        self.recycle(combined);
        let rows = a.rows();
        let mut bufs: Vec<Vec<f32>> = (0..n).map(|_| self.arena.take_zeroed(rows)).collect();
        deinterleave_unit_cols(out.as_slice(), &mut bufs, rows);
        self.recycle(out);
        bufs.into_iter()
            .map(|buf| DenseMatrix::from_vec(rows, 1, buf).expect("buffer sized to rows x 1"))
            .collect()
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

/// One column block of a run: its dense operand, the data path resolved
/// for its width, and its output rows (the whole output, or one span's
/// rows of it).
struct BlockFold<'a> {
    b: &'a DenseMatrix<f32>,
    rp: ResolvedPath,
    out: &'a mut [f32],
}

/// Cuts the output rows into one span per worker with
/// [`row_aligned_starts`], once for every block, and folds each span's
/// rows once per block, block after block, straight into that block's
/// output (one worker runs inline on the caller). Every row has a single
/// writer that sums its products in ascending `k`, so the output is the
/// same at any worker count and for any batch the block rides in. Empty
/// spans get no job.
fn run_row_spans(a: &CsrMatrix<f32>, folds: Vec<BlockFold<'_>>, workers: usize, epi: &Epilogue) {
    if workers <= 1 || folds.is_empty() {
        for f in folds {
            fold_rows(0, a, f.b, &f.rp, epi, f.out);
        }
        return;
    }
    let starts = row_aligned_starts(a.row_ptr(), workers);
    let bounds: Vec<(usize, usize)> = (0..starts.len())
        .map(|w| (starts[w], starts.get(w + 1).copied().unwrap_or(a.rows())))
        .collect();
    let mut spans: Vec<Vec<BlockFold<'_>>> = bounds
        .iter()
        .map(|_| Vec::with_capacity(folds.len()))
        .collect();
    for f in folds {
        let mut rest = f.out;
        for (&(lo, hi), span) in bounds.iter().zip(&mut spans) {
            let (rows, tail) = rest.split_at_mut((hi - lo) * f.b.cols());
            rest = tail;
            span.push(BlockFold {
                b: f.b,
                rp: f.rp,
                out: rows,
            });
        }
    }
    let jobs: Vec<ScopedJob<'_>> = bounds
        .into_iter()
        .zip(spans)
        .filter(|&((lo, hi), _)| hi > lo)
        .map(|((lo, _), span)| -> ScopedJob<'_> {
            Box::new(move || {
                for f in span {
                    fold_rows(lo, a, f.b, &f.rp, epi, f.out);
                }
            })
        })
        .collect();
    WorkerPool::global().scope_run(jobs);
}

/// Computes rows `first..first + out.len() / b.cols()` of `a · b` into
/// the zeroed `out`, each row in one ascending pass, and applies `epi`
/// to every row right after its store — empty rows included, since a
/// bias changes them. The vectorized path runs the whole fold in the
/// widest ISA clone the CPU proved ([`with_isa`]), dispatched once per
/// call; the scalar oracle stays on baseline code.
fn fold_rows(
    first: usize,
    a: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    rp: &ResolvedPath,
    epi: &Epilogue,
    out: &mut [f32],
) {
    let epi = (!epi.is_noop()).then_some(epi);
    match rp.kind {
        PathKind::Scalar => fold_rows_body(first, a, b, rp, epi, out),
        PathKind::Vector => with_isa(
            rp.wide_isa,
            #[inline(always)]
            || fold_rows_body(first, a, b, rp, epi, out),
        ),
    }
}

/// The row fold behind [`fold_rows`]. Widths with a fixed-width
/// microkernel keep the accumulators in registers with no per-row
/// dispatch; the scalar path keeps the generic per-row dispatch, as it is
/// the correctness oracle. `inline(always)` so each ISA clone compiles
/// all of it.
#[inline(always)]
fn fold_rows_body(
    first: usize,
    a: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    rp: &ResolvedPath,
    epi: Option<&Epilogue>,
    out: &mut [f32],
) {
    let row_ptr = a.row_ptr();
    let dim = b.cols();
    if rp.kind != PathKind::Scalar && matches!(dim, 1 | 2 | 4 | 8) {
        let (cols, vals, b) = (a.col_indices(), a.values(), b.as_slice());
        match dim {
            1 => fold_rows_width::<1>(first, row_ptr, cols, vals, b, epi, out),
            2 => fold_rows_width::<2>(first, row_ptr, cols, vals, b, epi, out),
            4 => fold_rows_width::<4>(first, row_ptr, cols, vals, b, epi, out),
            _ => fold_rows_width::<8>(first, row_ptr, cols, vals, b, epi, out),
        }
        return;
    }
    for (row, dst) in (first..).zip(out.chunks_exact_mut(dim)) {
        let seg = Segment {
            row,
            nz_start: row_ptr[row],
            nz_end: row_ptr[row + 1],
            flush: Flush::Regular,
        };
        if !seg.is_empty() {
            accumulate_segment_dispatch(rp, &seg, a, b, dst);
        }
        if let Some(epi) = epi {
            epi.apply_row(dst);
        }
    }
}

/// The fixed-width row fold behind [`fold_rows_body`]. `D` equals the dense
/// operand's column count, so row `c` of `b` is the flat slice
/// `[c * D, c * D + D)`; indexing the backing storage directly (and
/// zipping values with columns) keeps the hot loop to one bounds check
/// per non-zero. Per output element the fold is the same ascending-`k`
/// sum every other data path computes.
#[inline(always)]
fn fold_rows_width<const D: usize>(
    first: usize,
    row_ptr: &[usize],
    cols: &[usize],
    vals: &[f32],
    b: &[f32],
    epi: Option<&Epilogue>,
    out: &mut [f32],
) {
    for (row, dst) in (first..).zip(out.chunks_exact_mut(D)) {
        let (lo, hi) = (row_ptr[row], row_ptr[row + 1]);
        let mut acc = [0.0f32; D];
        for (&v, &c) in vals[lo..hi].iter().zip(&cols[lo..hi]) {
            let brow = &b[c * D..][..D];
            for d in 0..D {
                acc[d] += v * brow[d];
            }
        }
        dst.copy_from_slice(&acc);
        if let Some(epi) = epi {
            epi.apply_row(dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute_sequential;
    use crate::spmm::test_support::{random_dense, random_matrix};
    use crate::SerialSpmm;

    /// Worker counts every exactness test sweeps: inline, pooled, more
    /// workers than a small matrix has spans' worth of rows.
    const WORKERS: [usize; 4] = [1, 2, 7, 64];

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

    /// The ascending row sum: the serial plan replayed by the sequential
    /// executor, with its write statistics.
    fn row_sum(a: &CsrMatrix<f32>, b: &DenseMatrix<f32>) -> (DenseMatrix<f32>, WriteStats) {
        execute_sequential(&SerialSpmm.plan(a, b.cols()), a, b).unwrap()
    }

    /// A matrix with an evil row holding most non-zeros, empty rows, and
    /// single-entry rows.
    fn lopsided() -> CsrMatrix<f32> {
        let mut triplets: Vec<(usize, usize, f32)> =
            (0..100).map(|c| (0, c, 0.0625 * c as f32 - 3.0)).collect();
        for r in (1..40).filter(|r| r % 4 != 0) {
            triplets.push((r, (r * 7) % 100, 1.0 - 0.05 * r as f32));
        }
        CsrMatrix::from_triplets(40, 100, &triplets).unwrap()
    }

    #[test]
    fn spans_cut_at_row_edges_and_keep_long_rows_whole() {
        let a = lopsided();
        let rp = a.row_ptr();
        for spans in [1usize, 2, 3, 8, 64] {
            let starts = row_aligned_starts(rp, spans);
            assert_eq!(starts.len(), spans);
            assert_eq!(starts[0], 0);
            assert!(starts.windows(2).all(|w| w[0] <= w[1]));
            assert!(starts.iter().all(|&s| s <= a.rows()));
            let span = |s: usize| {
                let hi = starts.get(s + 1).copied().unwrap_or(a.rows());
                (starts[s], hi)
            };
            // Row 0 (101 of the 170 merge items) is longer than a share
            // at two spans or more, yet exactly one span holds all of it.
            let share = (a.rows() + a.nnz()).div_ceil(spans);
            if spans > 1 {
                assert!(rp[1] + 1 > share, "row 0 is longer than a share");
            }
            let owners = (0..spans)
                .filter(|&s| (span(s).0..span(s).1).contains(&0))
                .count();
            assert_eq!(owners, 1, "spans={spans}: row 0 lands in one span");
            // A span exceeds its share by at most the row it snapped
            // around: the longest row's merge items.
            for s in 0..spans {
                let (lo, hi) = span(s);
                let items = (hi - lo) + (rp[hi] - rp[lo]);
                assert!(
                    items <= share + 101,
                    "spans={spans} span {s}: {items} items"
                );
            }
        }
    }

    #[test]
    fn expected_stats_and_dispatch_match_the_serial_plan() {
        let a = random_matrix(48, 48, 300, 7);
        let b = random_dense(48, 16, 8);
        let plan = SerialSpmm.plan(&a, 16);
        let (_, stats) = row_sum(&a, &b);
        let prep = PreparedPlan::new(&a);
        assert_eq!(prep.expected_stats(), stats);
        assert_eq!(
            prep.dispatch_profile(),
            plan.dispatch_profile(GATHER_MAX_NNZ)
        );
        assert_eq!(prep.shared_row_count(), 0);
    }

    #[test]
    fn engine_equals_the_row_sum_at_any_worker_count() {
        let a = random_matrix(64, 64, 400, 11);
        for dim in [1usize, 2, 3, 8, 19] {
            let b = random_dense(64, dim, 12);
            let (want, want_stats) = row_sum(&a, &b);
            for workers in WORKERS {
                let engine = ExecEngine::new(workers);
                let prep = PreparedPlan::new(&a);
                let (out, stats) = engine.execute_prepared(&prep, &a, &b).unwrap();
                assert_eq!(out.as_slice(), want.as_slice(), "w={workers} dim={dim}");
                assert_eq!(stats, want_stats, "w={workers} dim={dim}");
            }
        }
    }

    #[test]
    fn every_data_path_is_bit_identical_through_the_engine() {
        let a = random_matrix(48, 48, 300, 3);
        for dim in [1, 3, 8, 16, 17, 32, 33] {
            let b = random_dense(48, dim, 4);
            let (want, _) = row_sum(&a, &b);
            for path in [DataPath::Auto, DataPath::Scalar, DataPath::Vector] {
                for workers in WORKERS {
                    let engine = ExecEngine::with_data_path(workers, path);
                    let prep = PreparedPlan::new(&a);
                    let (out, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
                    assert_eq!(
                        out.as_slice(),
                        want.as_slice(),
                        "path={path:?} dim={dim} w={workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn dispatch_counters_record_gather_stream_split() {
        let a = random_matrix(48, 48, 300, 7);
        let b = random_dense(48, 16, 8);
        let prep = PreparedPlan::new(&a);
        let (gather, stream) = prep.dispatch_profile();
        assert!(gather + stream > 0);

        let engine = ExecEngine::with_data_path(1, DataPath::Vector);
        engine.execute_prepared(&prep, &a, &b).unwrap();
        engine.execute_prepared(&prep, &a, &b).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.gather_segments, 2 * gather as u64);
        assert_eq!(stats.stream_segments, 2 * stream as u64);

        // The scalar path does not go through the dispatcher.
        let scalar = ExecEngine::with_data_path(1, DataPath::Scalar);
        scalar.execute_prepared(&prep, &a, &b).unwrap();
        assert_eq!(scalar.stats().gather_segments, 0);
        assert_eq!(scalar.stats().stream_segments, 0);
        engine.clear_cache();
        assert_eq!(engine.stats().gather_segments, 0);
    }

    #[test]
    fn zero_dimension_and_empty_matrix() {
        let (a, _) = small();
        let engine = ExecEngine::new(4);
        let prep = PreparedPlan::new(&a);
        let b = DenseMatrix::<f32>::zeros(3, 0);
        let (out, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
        assert_eq!((out.rows(), out.cols()), (3, 0));
        let empty = CsrMatrix::<f32>::zeros(3, 3);
        let b = DenseMatrix::from_fn(3, 2, |_, _| 1.0);
        let (out, stats) = engine
            .execute_prepared(&PreparedPlan::new(&empty), &empty, &b)
            .unwrap();
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(stats, WriteStats::default());
        let none = CsrMatrix::<f32>::zeros(0, 3);
        let (out, _) = engine
            .execute_prepared(&PreparedPlan::new(&none), &none, &b)
            .unwrap();
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let (a, _) = small();
        let bad_b = DenseMatrix::<f32>::zeros(5, 2);
        let engine = ExecEngine::new(2);
        assert!(engine
            .execute_prepared(&PreparedPlan::new(&a), &a, &bad_b)
            .is_err());
        assert!(engine.spmm(&a, &bad_b, &Epilogue::None).is_err());
    }

    #[test]
    fn batched_execution_matches_per_block_execution() {
        let a = random_matrix(40, 40, 220, 21);
        let prep = PreparedPlan::new(&a);
        let blocks: Vec<DenseMatrix<f32>> = [1usize, 4, 3, 16]
            .iter()
            .enumerate()
            .map(|(i, &k)| random_dense(40, k, 30 + i as u64))
            .collect();
        let refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
        for workers in WORKERS {
            let engine = ExecEngine::new(workers);
            let outs = engine.execute_prepared_batch(&prep, &a, &refs).unwrap();
            assert_eq!(outs.len(), blocks.len());
            for (block, out) in blocks.iter().zip(&outs) {
                // Column content is independent of its neighbours in the
                // batch: additions within a column happen in non-zero
                // order on every data path, so the batched slice is the
                // block's own row sum.
                assert_eq!(out.cols(), block.cols());
                assert_eq!(out.as_slice(), row_sum(&a, block).0.as_slice());
            }
        }
    }

    /// A batch epilogue applies per block, so a bias is checked against
    /// every block's width: zero-width blocks included, and with the same
    /// answer whether the block rides alone or in a batch.
    #[test]
    fn batch_epilogue_is_validated_against_every_block() {
        let (a, b) = small();
        let engine = ExecEngine::new(2);
        let prep = PreparedPlan::new(&a);
        let empty = DenseMatrix::<f32>::zeros(3, 0);
        let bias = Epilogue::Bias(vec![1.0]);
        let one = engine.execute_prepared_batch_fused(&prep, &a, &[&empty], &bias);
        let two = engine.execute_prepared_batch_fused(&prep, &a, &[&empty, &empty], &bias);
        let mismatch = Err(SparseFormatError::ShapeMismatch {
            left: (1, 1),
            right: (1, 0),
        });
        assert_eq!(one.map(|_| ()), mismatch);
        assert_eq!(two.map(|_| ()), mismatch);
        // A layer-width bias fits a batch of that width, not a mixed one.
        let wide = Epilogue::BiasRelu(vec![0.5, -0.5]);
        let outs = engine
            .execute_prepared_batch_fused(&prep, &a, &[&b, &b], &wide)
            .unwrap();
        let (want, _) = engine.execute_prepared_fused(&prep, &a, &b, &wide).unwrap();
        for out in &outs {
            assert_eq!(out.as_slice(), want.as_slice());
        }
        let narrow = DenseMatrix::from_fn(3, 1, |r, _| r as f32);
        assert!(engine
            .execute_prepared_batch_fused(&prep, &a, &[&b, &narrow], &wide)
            .is_err());
    }

    #[test]
    fn batched_execution_edge_cases() {
        let (a, b) = small();
        let engine = ExecEngine::new(2);
        let prep = PreparedPlan::new(&a);
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
        let prep = PreparedPlan::new(&a);
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
        let a = random_matrix(40, 40, 220, 21);
        let prep = PreparedPlan::new(&a);
        let blocks: Vec<DenseMatrix<f32>> =
            (0..3).map(|i| random_dense(40, 1, 30 + i as u64)).collect();
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

    /// `want` with the epilogue applied to every row.
    fn applied(mut want: DenseMatrix<f32>, epi: &Epilogue) -> DenseMatrix<f32> {
        let dim = want.cols();
        if dim > 0 {
            for row in want.as_mut_slice().chunks_mut(dim) {
                epi.apply_row(row);
            }
        }
        want
    }

    /// Fused epilogues land exactly once on every row, at every worker
    /// count: the evil row a worker's share cannot hold, the empty rows
    /// (a bias changes them), and the single-entry rows.
    #[test]
    fn fused_epilogue_equals_the_row_sum_then_epilogue() {
        let a = lopsided();
        for dim in [4usize, 16] {
            let b = random_dense(100, dim, 32);
            let bias: Vec<f32> = (0..dim).map(|j| (j as f32) * 0.25 - 2.0).collect();
            let epis = [
                Epilogue::Relu,
                Epilogue::Bias(bias.clone()),
                Epilogue::BiasRelu(bias),
            ];
            let (plain, _) = row_sum(&a, &b);
            for workers in WORKERS {
                let engine = ExecEngine::new(workers);
                let prep = PreparedPlan::new(&a);
                for epi in &epis {
                    let want = applied(plain.clone(), epi);
                    let (got, _) = engine.execute_prepared_fused(&prep, &a, &b, epi).unwrap();
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "workers={workers} dim={dim} epi={epi:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_matrix_still_applies_bias_to_zero_rows() {
        let a = CsrMatrix::from_triplets(3, 3, &[]).unwrap();
        let b = DenseMatrix::from_fn(3, 2, |_, _| 1.0);
        for workers in WORKERS {
            let engine = ExecEngine::new(workers);
            let prep = PreparedPlan::new(&a);
            let (out, _) = engine
                .execute_prepared_fused(&prep, &a, &b, &Epilogue::Bias(vec![1.5, -2.5]))
                .unwrap();
            for r in 0..3 {
                assert_eq!(out.row(r), &[1.5, -2.5], "bias lands on zero row {r}");
            }
        }
    }

    #[test]
    fn fused_runs_are_counted_and_validated() {
        let (a, b) = small();
        let engine = ExecEngine::new(1);
        engine.spmm(&a, &b, &Epilogue::None).unwrap();
        assert_eq!(engine.stats().fused_epilogues, 0, "noop runs don't count");
        engine.spmm(&a, &b, &Epilogue::Relu).unwrap();
        assert_eq!(engine.stats().fused_epilogues, 1);
        // Bias width must match the dense dimension.
        let err = engine.spmm(&a, &b, &Epilogue::Bias(vec![0.0; 3]));
        assert!(err.is_err(), "bias wider than dim rejected");
        engine.clear_cache();
        assert_eq!(engine.stats().fused_epilogues, 0, "reset clears counter");
    }

    #[test]
    fn batch_fused_column_uniform_epilogue_matches_per_block_apply() {
        let a = random_matrix(40, 40, 220, 41);
        let prep = PreparedPlan::new(&a);
        let blocks: Vec<DenseMatrix<f32>> = [3usize, 1, 4]
            .iter()
            .enumerate()
            .map(|(i, &k)| random_dense(40, k, 50 + i as u64))
            .collect();
        let refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
        let engine = ExecEngine::new(2);
        let fused = engine
            .execute_prepared_batch_fused(&prep, &a, &refs, &Epilogue::Relu)
            .unwrap();
        for (block, got) in blocks.iter().zip(fused) {
            let want = applied(row_sum(&a, block).0, &Epilogue::Relu);
            assert_eq!(got.as_slice(), want.as_slice());
        }
    }

    /// Every ISA arm of the row fold — `Portable` and each clone this CPU
    /// proves — equals the scalar oracle fold exactly, with prefetch off
    /// and on: at every width 1..=67 and at the wide widths where the
    /// 128-, 64- and 32-column blocks and the overlapping remainder block
    /// run, on the lopsided graph (an evil streaming row, empty rows,
    /// single-entry gather rows), under every epilogue and at 1, 2 and 7
    /// workers. The scalar fold itself equals the row sum with the
    /// epilogue applied.
    #[test]
    fn fold_isa_arms_bit_match_the_scalar_oracle() {
        let a = lopsided();
        let isas = crate::datapath::proven_isas();
        for dim in (1..=67usize).chain([96, 121, 127, 128, 129, 200]) {
            let b = random_dense(a.cols(), dim, 60);
            let bias: Vec<f32> = (0..dim).map(|j| j as f32 * 0.125 - 4.0).collect();
            let epis = [
                Epilogue::None,
                Epilogue::Relu,
                Epilogue::Bias(bias.clone()),
                Epilogue::BiasRelu(bias),
            ];
            let plain = row_sum(&a, &b).0;
            for epi in &epis {
                for workers in [1usize, 2, 7] {
                    let fold = |rp: ResolvedPath| {
                        let mut out = vec![0.0f32; a.rows() * dim];
                        let folds = vec![BlockFold {
                            b: &b,
                            rp,
                            out: &mut out,
                        }];
                        run_row_spans(&a, folds, workers, epi);
                        out
                    };
                    let want = fold(DataPath::Scalar.resolve(b.rows(), dim));
                    assert_eq!(
                        want,
                        applied(plain.clone(), epi).as_slice(),
                        "scalar dim={dim}"
                    );
                    for &wide_isa in &isas {
                        for prefetch in [false, true] {
                            let rp = ResolvedPath {
                                wide_isa,
                                prefetch,
                                ..DataPath::Vector.resolve(b.rows(), dim)
                            };
                            assert_eq!(
                                fold(rp),
                                want,
                                "{wide_isa:?} prefetch={prefetch} dim={dim} \
                                 workers={workers} epi={epi:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Engine-level check of the gather prefetch: with `B` past the
    /// prefetch gate the vectorized path hints ahead on the inline and
    /// pooled walks, and each still equals the scalar path and the row
    /// sum exactly.
    #[test]
    fn prefetching_paths_equal_their_unhinted_references() {
        let rows = 9000;
        let a = random_matrix(rows, rows, 20_000, 41);
        for dim in [128usize, 256] {
            let b = random_dense(rows, dim, 42);
            let (want, _) = row_sum(&a, &b);
            assert!(DataPath::Vector.resolve(rows, dim).prefetch, "dim={dim}");
            for workers in [1usize, 2, 3] {
                let prep = PreparedPlan::new(&a);
                let run = |path| {
                    ExecEngine::with_data_path(workers, path)
                        .execute_prepared(&prep, &a, &b)
                        .unwrap()
                        .0
                };
                let hinted = run(DataPath::Vector);
                assert_eq!(hinted.as_slice(), run(DataPath::Scalar).as_slice());
                assert_eq!(hinted.as_slice(), want.as_slice(), "dim={dim} w={workers}");
            }
        }
    }
}
