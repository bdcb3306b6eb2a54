//! Fast-path CPU execution engine for SpMM.
//!
//! [`crate::executor::execute_parallel`] is kept as the straightforward
//! baseline: it spawns scoped threads per call and routes *every* output
//! element through an `AtomicU32` cell, then pays two extra O(rows·dim)
//! passes to initialize and convert that atomic buffer. [`ExecEngine`]
//! removes all of that overhead:
//!
//! * **Row spans**: every run cuts its input once into one contiguous
//!   span per worker on the `rows + nnz` merge items. One graph is cut
//!   by the merge-path search, each cut snapped to a row edge
//!   (`row_aligned_starts`, the one row cut); a packed window of small
//!   graphs is cut at graph starts (the `packed` module). Every row has
//!   one writer, which folds its non-zeros in one ascending pass and
//!   stores the row into a plain `&mut [f32]` slice of the output; the
//!   slices are disjoint by `split_at_mut`, so no row is shared, no store
//!   is atomic, and nothing is folded or replayed after the join.
//!   Snapping costs at most one row per boundary (DESIGN.md §2.3.1).
//! * **Persistent workers** (the `pool` module): spans run on long-lived
//!   pool workers, so repeated SpMM calls (a GNN forward pass is many of
//!   them) stop paying thread spawn/join. A run with one effective worker
//!   executes inline on the caller.
//! * **Vectorized data path** (the `datapath` module): each block's rows
//!   run through a [`DataPath`]-selected inner kernel — by default one
//!   row fold per block: a column-tile plan of register-accumulator tiles
//!   (64 and 32 columns under AVX-512F, then the ISA's lane width —
//!   16 under AVX2 or AVX-512F, 8 otherwise — then 8 and 4), fixed once
//!   per (span, block) run from the width and the ISA detected at
//!   runtime, that every row of the span runs through with no per-row
//!   decision. A one-tile plan folds the span at that const width. The
//!   scalar oracle stays selectable ([`DataPath::Scalar`]).
//! * **One entry point, no preprocessing** ([`ExecEngine::spmm`]): a
//!   call takes one matrix or a packed window ([`Adjacency`]), a list of
//!   dense blocks and an epilogue, and reads everything it needs from the
//!   live matrices, so nothing is built ahead of a run and nothing is
//!   cached between runs. It cuts the spans once and dispatches the pool
//!   once for the whole list, and each block is read where it lies and
//!   stored into its own output. Only a list of single-column blocks is
//!   interleaved into one combined operand and split back out, since a
//!   one-column fold gathers one float per cache line (DESIGN.md §2.8).
//! * **Buffer arena** (the `arena` module): output buffers (and the
//!   single-column lane's combined operand) are pooled per engine and
//!   checked out per execution, so steady-state inference allocates
//!   nothing. Outputs leave the engine as [`DenseMatrix`] values; callers
//!   hand them back with [`ExecEngine::recycle`] to close the loop (the
//!   GCN forward pass recycles each activation at its last read). The
//!   row fold stores every output element, so outputs come unzeroed.
//!
//! Every output row is the ascending sum of its products, at any worker
//! count and on every data path: exactly (f32 `==`) what
//! [`crate::executor::execute_sequential`] computes for a row-split or
//! serial plan, the sign of a zero included.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use mpspmm_sparse::{CsrMatrix, DenseMatrix, SparseFormatError};

use crate::arena::BufferArena;
use crate::datapath::{DataPath, ResolvedPath};
use crate::epilogue::Epilogue;
use crate::executor::check_shapes;
use crate::forward::Adjacency;
use crate::merge_path::merge_path_search;
use crate::packed::{fold_rows, Piece};
use crate::pool::{ScopedJob, WorkerPool};
use crate::spmm::default_workers;

/// Snapshot of an engine's GEMM, epilogue and arena counters.
///
/// The last five fields are hidden stand-ins that always read 0, read
/// only by the serving benchmark (see the `compat` module); the `allow`
/// covers only their definitions and derived impls here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(clippy::disallowed_fields)]
pub struct EngineStats {
    /// Worker parallelism the engine executes with.
    pub workers: usize,
    /// Buffer checkouts served from the arena pool without allocating.
    pub arena_reuses: u64,
    /// Buffer checkouts that had to allocate a fresh buffer.
    pub arena_misses: u64,
    /// Engine runs that fused a non-noop [`Epilogue`] into the SpMM
    /// store stage instead of paying a separate activation pass.
    pub fused_epilogues: u64,
    /// Wall nanoseconds spent inside [`ExecEngine::gemm`] calls,
    /// cumulative. A packed forward's GEMMs run inside its span jobs and
    /// are not counted.
    pub gemm_ns: u64,
    #[doc(hidden)]
    pub gather_segments: u64,
    #[doc(hidden)]
    pub stream_segments: u64,
    #[doc(hidden)]
    pub batch_plan_hits: u64,
    #[doc(hidden)]
    pub batch_plan_misses: u64,
    #[doc(hidden)]
    pub batch_plan_rebuilds: u64,
}

/// The fast-path SpMM execution engine. See the module docs for what it
/// changes over [`crate::executor::execute_parallel`].
pub struct ExecEngine {
    pub(crate) workers: usize,
    pub(crate) data_path: DataPath,
    pub(crate) arena: BufferArena,
    fused_epilogues: AtomicU64,
    pub(crate) gemm_ns: AtomicU64,
}

impl ExecEngine {
    /// An engine that executes with `workers`-way parallelism
    /// (`workers == 1` runs entirely on the calling thread, atomics-free)
    /// on the default ([`DataPath::Vector`]) data path.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        Self::with_data_path(workers, DataPath::default())
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
            arena: BufferArena::default(),
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

    /// Computes `a · b` for every dense block `b` in `blocks` in a
    /// *single* engine run, with `epi` fused at the store stage, and
    /// returns one output per block, in order. Pass [`Epilogue::NONE`]
    /// for the plain product. `a` picks what the blocks are:
    ///
    /// * [`Adjacency::Graph`] (or a plain `&CsrMatrix`): independent
    ///   blocks on one graph, a single block being `&[&b]`, the batched
    ///   submission path the serving layer coalesces requests through.
    ///   The row spans are cut once from `a`'s row pointers, and each
    ///   worker folds its span once per block straight into that block's
    ///   output. A list whose blocks are *all* single columns (two or
    ///   more) is interleaved into one combined operand, run as one block
    ///   and split back, which costs less than re-walking `a` once per
    ///   one-column block (DESIGN.md §2.8).
    /// * [`Adjacency::Packed`]: a window of small graphs, one block per
    ///   graph holding that graph's `cols()` rows. The window is cut at
    ///   graph starts into spans of whole graphs, each folding its graphs
    ///   straight into their replies: one fresh matrix per graph, since
    ///   replies leave the engine (see [`PackedGraphs`]).
    ///
    /// The pool is dispatched once per call. The epilogue applies **per
    /// block**, right after each row's one store, empty rows included, so
    /// every output equals the plain product followed by a separate
    /// epilogue pass (DESIGN.md §2.10), and a bias must match *each*
    /// block's width. Every output row keeps one writer that sums its
    /// products in ascending `k`, so each block's output is the same
    /// under f32 `==` at any worker count and in any list or window.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`], before any output is
    /// checked out, if any block's rows differ from its graph's columns,
    /// a window's blocks are not one per graph of one width, or a bias
    /// epilogue's length differs from any block's width.
    ///
    /// [`PackedGraphs`]: crate::PackedGraphs
    pub fn spmm<'a>(
        &self,
        a: impl Into<Adjacency<'a>>,
        blocks: &[&DenseMatrix<f32>],
        epi: &Epilogue,
    ) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
        let a = match a.into() {
            Adjacency::Graph(a) => a,
            Adjacency::Packed(p) => return self.spmm_window(p, blocks, epi),
        };
        for b in blocks {
            check_shapes(a, b)?;
            epi.validate(b.cols())?;
        }
        if blocks.len() > 1 && blocks.iter().all(|b| b.cols() == 1) {
            return Ok(self.run_unit_cols(a, blocks, epi));
        }
        Ok(self.run(a, blocks, epi))
    }

    /// Current GEMM, epilogue and arena counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            workers: self.workers,
            arena_reuses: self.arena.reuses(),
            arena_misses: self.arena.misses(),
            fused_epilogues: self.fused_epilogues.load(Ordering::Relaxed),
            gemm_ns: self.gemm_ns.load(Ordering::Relaxed),
            ..EngineStats::default()
        }
    }

    /// Returns a result matrix's buffer to the engine's arena so a
    /// later execution of the same shape allocates nothing. Purely an
    /// optimization — dropping the matrix instead is always correct.
    pub fn recycle(&self, m: DenseMatrix<f32>) {
        self.arena.put(m.into_vec());
    }

    /// Drops every pooled buffer and zeroes the GEMM, epilogue and arena
    /// counters.
    pub fn clear_cache(&self) {
        self.arena.clear();
        self.fused_epilogues.store(0, Ordering::Relaxed);
        self.gemm_ns.store(0, Ordering::Relaxed);
    }

    /// Counts a fused epilogue and resolves the data path: the
    /// bookkeeping of every SpMM run, a column batch or a packed window.
    pub(crate) fn start_run(&self, epi: &Epilogue) -> ResolvedPath {
        if !epi.is_noop() {
            self.fused_epilogues.fetch_add(1, Ordering::Relaxed);
        }
        self.data_path.resolve()
    }

    /// Runs `a · b` for every block `b`, each into its own arena output,
    /// one fold per block. Shapes are already checked; a non-noop `epi`
    /// is already validated against every block's width.
    ///
    /// The outputs come from the arena unzeroed ([`BufferArena::take`]):
    /// the row fold stores every element, an empty row's zeros included,
    /// before its epilogue reads the row, so a recycled buffer's stale
    /// values never survive and no zeroing pass runs on the caller.
    fn run(
        &self,
        a: &CsrMatrix<f32>,
        blocks: &[&DenseMatrix<f32>],
        epi: &Epilogue,
    ) -> Vec<DenseMatrix<f32>> {
        let rows = a.rows();
        let rp = self.start_run(epi);
        let mut outs: Vec<Vec<f32>> = blocks
            .iter()
            .map(|b| self.arena.take(rows * b.cols()))
            .collect();
        let slices = outs.iter_mut().map(Vec::as_mut_slice).collect();
        run_spans(a, blocks, slices, rp, self.workers, epi);
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
        a: &CsrMatrix<f32>,
        blocks: &[&DenseMatrix<f32>],
        epi: &Epilogue,
    ) -> Vec<DenseMatrix<f32>> {
        // The interleave and the split store every element of the buffers
        // they fill, so those come from the arena unzeroed.
        let n = blocks.len();
        let mut combined = self.arena.take(a.cols() * n);
        let srcs: Vec<&[f32]> = blocks.iter().map(|b| b.as_slice()).collect();
        interleave_unit_cols(&mut combined, &srcs, a.cols());
        let combined =
            DenseMatrix::from_vec(a.cols(), n, combined).expect("buffer sized to cols x n");
        let epi = Epilogue {
            bias: epi.bias.as_ref().map(|b| vec![b[0]; n]),
            activation: epi.activation,
        };
        let mut outs = self.run(a, &[&combined], &epi);
        let out = outs.pop().expect("one block in, one output out");
        self.recycle(combined);
        let rows = a.rows();
        let mut bufs: Vec<Vec<f32>> = (0..n).map(|_| self.arena.take(rows)).collect();
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

/// First row of each of `spans` row spans of the CSR matrix with row
/// pointers `row_ptr`: the `rows + nnz` merge items are cut into equal
/// diagonals, each snapped by the merge-path search to the rows fully
/// consumed there. Starts never decrease and `starts[0] == 0`. The one
/// row cut: column batches and `BatchMergeSpmm` plans both use it.
pub(crate) fn row_aligned_starts(row_ptr: &[usize], spans: usize) -> Vec<usize> {
    let rows = row_ptr.len() - 1;
    let nnz = row_ptr[rows];
    let spans = spans.max(1);
    let share = (rows + nnz).div_ceil(spans).max(1);
    let mut starts = Vec::with_capacity(spans);
    starts.push(0);
    for k in 1..spans {
        let diag = (k * share).min(rows + nnz);
        let prev = starts[k - 1];
        starts.push(
            merge_path_search(diag, &row_ptr[1..], nnz)
                .row
                .clamp(prev, rows),
        );
    }
    starts
}

/// Folds `a` once per block, from the block into its output: one row
/// span per worker ([`row_aligned_starts`]) on the pool, or the whole
/// matrix inline at one worker. A span's job runs [`fold_rows`] once per
/// block over the span's rows. Blocks of width 0 and empty spans get no
/// work.
pub(crate) fn run_spans(
    a: &CsrMatrix<f32>,
    blocks: &[&DenseMatrix<f32>],
    outs: Vec<&mut [f32]>,
    rp: ResolvedPath,
    workers: usize,
    epi: &Epilogue,
) {
    let starts = row_aligned_starts(a.row_ptr(), workers);
    let end = |s: usize| starts.get(s + 1).copied().unwrap_or(a.rows());
    // Span `s`'s piece of every block, each with its width. The jobs
    // borrow the lists, so they are freed here, on the calling thread:
    // freed on pool workers, they raised `ppi-gcn`'s peak RSS by one
    // activation buffer in 5 of 20 10 s servebench runs (2-vCPU host).
    let mut spans: Vec<Vec<(usize, Piece<'_>)>> = starts
        .iter()
        .map(|_| Vec::with_capacity(blocks.len()))
        .collect();
    for (b, mut out) in blocks.iter().zip(outs).filter(|(b, _)| b.cols() > 0) {
        for (s, span) in spans.iter_mut().enumerate() {
            let (first, hi) = (starts[s], end(s));
            let (head, tail) = std::mem::take(&mut out).split_at_mut((hi - first) * b.cols());
            out = tail;
            if hi > first {
                let piece = Piece {
                    a,
                    first,
                    b: b.as_slice(),
                    out: head,
                };
                span.push((b.cols(), piece));
            }
        }
    }
    let jobs: Vec<ScopedJob<'_>> = spans
        .iter_mut()
        .filter(|span| !span.is_empty())
        .map(|span| -> ScopedJob<'_> {
            Box::new(move || {
                for (dim, piece) in span {
                    fold_rows(std::slice::from_mut(piece), *dim, &rp, epi);
                }
            })
        })
        .collect();
    if workers <= 1 {
        jobs.into_iter().for_each(|job| job());
    } else {
        WorkerPool::global().scope_run(jobs);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute_sequential;
    use crate::spmm::test_support::{lopsided, random_dense, random_matrix};
    use crate::stats::WriteStats;
    use crate::{Activation, SerialSpmm, SpmmKernel};

    const RELU: Epilogue = Epilogue {
        bias: None,
        activation: Activation::Relu,
    };

    /// `bias` added, then `activation`.
    fn biased(activation: Activation, bias: Vec<f32>) -> Epilogue {
        Epilogue {
            bias: Some(bias),
            activation,
        }
    }

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

    /// `engine`'s product of `a` and the one block `b` under `epi`.
    fn product(
        engine: &ExecEngine,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
        epi: &Epilogue,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        Ok(engine.spmm(a, &[b], epi)?.remove(0))
    }

    /// `a · b` under `epi` on path `rp` at `workers`, stored into `out`:
    /// one block through the column-batch span runner.
    fn fold_into(
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
        rp: ResolvedPath,
        workers: usize,
        epi: &Epilogue,
        out: &mut [f32],
    ) {
        run_spans(a, &[b], vec![out], rp, workers, epi);
    }

    /// The row cut every column batch runs on, on the lopsided graph
    /// (its row 0 holds 101 of the 170 merge items) and on a graph whose
    /// middle row is longer than a span's share: at every span count
    /// from one to more spans than either graph has merge items, the
    /// long row lands in exactly one span, and a span exceeds its share
    /// by at most the row it snapped around.
    #[test]
    fn spans_cut_at_row_edges_and_keep_long_rows_whole() {
        let mut long_middle: Vec<(usize, usize, f32)> =
            (0..20).filter(|&r| r != 10).map(|r| (r, r, 1.0)).collect();
        long_middle.extend((0..60).map(|c| (10, c, 0.5)));
        let long_middle = CsrMatrix::from_triplets(20, 60, &long_middle).unwrap();
        for (a, long) in [(lopsided(), 0usize), (long_middle, 10)] {
            let rp = a.row_ptr();
            let long_items = rp[long + 1] - rp[long] + 1;
            for spans in [1usize, 2, 3, 8, 64, 200] {
                let at = format!("{} rows, spans={spans}", a.rows());
                let starts = row_aligned_starts(rp, spans);
                assert_eq!(starts.len(), spans);
                assert_eq!(starts[0], 0);
                assert!(starts.windows(2).all(|w| w[0] <= w[1]));
                assert!(starts.iter().all(|&s| s <= a.rows()));
                let span = |s: usize| {
                    let hi = starts.get(s + 1).copied().unwrap_or(a.rows());
                    (starts[s], hi)
                };
                let share = (a.rows() + a.nnz()).div_ceil(spans);
                if spans > 1 {
                    assert!(long_items > share, "{at}: the long row exceeds a share");
                }
                let owners = (0..spans)
                    .filter(|&s| (span(s).0..span(s).1).contains(&long))
                    .count();
                assert_eq!(owners, 1, "{at}: the long row lands in one span");
                for s in 0..spans {
                    let (lo, hi) = span(s);
                    let items = (hi - lo) + (rp[hi] - rp[lo]);
                    assert!(items <= share + long_items, "{at} span {s}: {items} items");
                }
            }
        }
    }

    #[test]
    fn engine_equals_the_row_sum_at_any_worker_count() {
        let a = random_matrix(64, 64, 400, 11);
        for dim in [1usize, 2, 3, 8, 19] {
            let b = random_dense(64, dim, 12);
            let (want, _) = row_sum(&a, &b);
            for workers in WORKERS {
                let engine = ExecEngine::new(workers);
                let out = product(&engine, &a, &b, &Epilogue::NONE).unwrap();
                assert_eq!(out.as_slice(), want.as_slice(), "w={workers} dim={dim}");
            }
        }
    }

    #[test]
    fn every_data_path_is_bit_identical_through_the_engine() {
        let a = random_matrix(48, 48, 300, 3);
        for dim in [1, 3, 8, 16, 17, 32, 33] {
            let b = random_dense(48, dim, 4);
            let (want, _) = row_sum(&a, &b);
            for path in [DataPath::Scalar, DataPath::Vector] {
                for workers in WORKERS {
                    let engine = ExecEngine::with_data_path(workers, path);
                    let out = product(&engine, &a, &b, &Epilogue::NONE).unwrap();
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
    fn zero_dimension_and_empty_matrix() {
        let (a, _) = small();
        let engine = ExecEngine::new(4);
        let b = DenseMatrix::<f32>::zeros(3, 0);
        let out = product(&engine, &a, &b, &Epilogue::NONE).unwrap();
        assert_eq!((out.rows(), out.cols()), (3, 0));
        let empty = CsrMatrix::<f32>::zeros(3, 3);
        let b = DenseMatrix::from_fn(3, 2, |_, _| 1.0);
        let out = product(&engine, &empty, &b, &Epilogue::NONE).unwrap();
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        let none = CsrMatrix::<f32>::zeros(0, 3);
        let out = product(&engine, &none, &b, &Epilogue::NONE).unwrap();
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let (a, _) = small();
        let bad_b = DenseMatrix::<f32>::zeros(5, 2);
        let engine = ExecEngine::new(2);
        assert!(engine.spmm(&a, &[&bad_b], &Epilogue::NONE).is_err());
    }

    /// The one entry point checks every block before it checks out a
    /// buffer: a list with one block of the wrong row count, or one block
    /// a bias does not fit, anywhere in the list and in either lane (mixed
    /// widths or all single columns), returns `ShapeMismatch` and leaves
    /// the arena untouched. An empty list returns no outputs. At
    /// workers {1, 2, 7, 64} and the resolved count.
    #[test]
    fn spmm_rejects_a_bad_block_before_any_checkout() {
        let a = random_matrix(40, 40, 220, 51);
        let bad_rows = random_dense(39, 1, 52);
        let mixed: Vec<DenseMatrix<f32>> = [3usize, 1, 4]
            .iter()
            .map(|&k| random_dense(40, k, 53))
            .collect();
        let units: Vec<DenseMatrix<f32>> = (0..3).map(|i| random_dense(40, 1, 54 + i)).collect();
        let unit_bias = biased(Activation::Identity, vec![0.5]);
        for workers in WORKERS.into_iter().chain([default_workers()]) {
            let engine = ExecEngine::new(workers);
            let rejected = |refs: &[&DenseMatrix<f32>], epi: &Epilogue| {
                matches!(
                    engine.spmm(&a, refs, epi),
                    Err(SparseFormatError::ShapeMismatch { .. })
                )
            };
            for (lane, blocks) in [("mixed", &mixed), ("unit", &units)] {
                for at in 0..=blocks.len() {
                    let mut refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
                    refs.insert(at, &bad_rows);
                    let ctx = format!("{lane} lane, bad rows at {at}, workers={workers}");
                    assert!(rejected(&refs, &Epilogue::NONE), "{ctx}");
                    assert!(rejected(&refs, &RELU), "{ctx}");
                }
            }
            // A one-column bias fits the unit blocks, not a wider block
            // anywhere among them.
            for at in 0..=units.len() {
                let mut refs: Vec<&DenseMatrix<f32>> = units.iter().collect();
                refs.insert(at, &mixed[0]);
                assert!(
                    rejected(&refs, &unit_bias),
                    "bias at {at} workers={workers}"
                );
            }
            let checkouts = |s: EngineStats| s.arena_reuses + s.arena_misses;
            assert_eq!(checkouts(engine.stats()), 0, "workers={workers}");
            assert!(engine.spmm(&a, &[], &unit_bias).unwrap().is_empty());
            assert_eq!(checkouts(engine.stats()), 0, "workers={workers}");
            let refs: Vec<&DenseMatrix<f32>> = units.iter().collect();
            assert_eq!(engine.spmm(&a, &refs, &unit_bias).unwrap().len(), 3);
        }
    }

    #[test]
    fn batched_execution_matches_per_block_execution() {
        let a = random_matrix(40, 40, 220, 21);
        // One run folds one-tile plans (1, 4, 16, 32 under AVX-512F), a
        // sub-4 tile (3) and overlapping multi-tile plans (121, 200) side
        // by side.
        let blocks: Vec<DenseMatrix<f32>> = [1usize, 4, 3, 16, 32, 121, 200]
            .iter()
            .enumerate()
            .map(|(i, &k)| random_dense(40, k, 30 + i as u64))
            .collect();
        let refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
        for workers in WORKERS {
            let engine = ExecEngine::new(workers);
            let outs = engine.spmm(&a, &refs, &Epilogue::NONE).unwrap();
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
        let empty = DenseMatrix::<f32>::zeros(3, 0);
        let bias = biased(Activation::Identity, vec![1.0]);
        let one = engine.spmm(&a, &[&empty], &bias);
        let two = engine.spmm(&a, &[&empty, &empty], &bias);
        let mismatch = Err(SparseFormatError::ShapeMismatch {
            left: (1, 1),
            right: (1, 0),
        });
        assert_eq!(one.map(|_| ()), mismatch);
        assert_eq!(two.map(|_| ()), mismatch);
        // A layer-width bias fits a batch of that width, not a mixed one.
        let wide = biased(Activation::Relu, vec![0.5, -0.5]);
        let outs = engine.spmm(&a, &[&b, &b], &wide).unwrap();
        let want = product(&engine, &a, &b, &wide).unwrap();
        for out in &outs {
            assert_eq!(out.as_slice(), want.as_slice());
        }
        let narrow = DenseMatrix::from_fn(3, 1, |r, _| r as f32);
        assert!(engine.spmm(&a, &[&b, &narrow], &wide).is_err());
    }

    #[test]
    fn batched_execution_edge_cases() {
        let (a, b) = small();
        let engine = ExecEngine::new(2);
        let none = Epilogue::NONE;
        assert!(engine.spmm(&a, &[], &none).unwrap().is_empty());
        let outs = engine.spmm(&a, &[&b], &none).unwrap();
        assert_eq!(outs.len(), 1);
        let bad = DenseMatrix::<f32>::zeros(5, 2);
        assert!(engine.spmm(&a, &[&b, &bad], &none).is_err());
        // Zero-width blocks ride along without disturbing the batch.
        let empty = DenseMatrix::<f32>::zeros(3, 0);
        let outs = engine.spmm(&a, &[&empty, &b], &none).unwrap();
        assert_eq!(outs[0].cols(), 0);
        assert_eq!(outs[1].cols(), 2);
    }

    #[test]
    fn arena_recycling_eliminates_output_allocations() {
        let (a, b) = small();
        let engine = ExecEngine::new(2);
        let out = product(&engine, &a, &b, &Epilogue::NONE).unwrap();
        let misses_after_first = engine.stats().arena_misses;
        assert!(misses_after_first > 0, "first run allocates");
        engine.recycle(out);
        let out = product(&engine, &a, &b, &Epilogue::NONE).unwrap();
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
        let blocks: Vec<DenseMatrix<f32>> =
            (0..3).map(|i| random_dense(40, 1, 30 + i as u64)).collect();
        let refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
        let engine = ExecEngine::new(1);
        let outs = engine.spmm(&a, &refs, &Epilogue::NONE).unwrap();
        let misses_warm = engine.stats().arena_misses;
        for out in outs {
            engine.recycle(out);
        }
        let outs = engine.spmm(&a, &refs, &Epilogue::NONE).unwrap();
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
                RELU,
                biased(Activation::Identity, bias.clone()),
                biased(Activation::Relu, bias),
            ];
            let (plain, _) = row_sum(&a, &b);
            for workers in WORKERS {
                let engine = ExecEngine::new(workers);
                for epi in &epis {
                    let want = applied(plain.clone(), epi);
                    let got = product(&engine, &a, &b, epi).unwrap();
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
            let out = product(
                &engine,
                &a,
                &b,
                &biased(Activation::Identity, vec![1.5, -2.5]),
            )
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
        engine.spmm(&a, &[&b], &Epilogue::NONE).unwrap();
        assert_eq!(engine.stats().fused_epilogues, 0, "noop runs don't count");
        engine.spmm(&a, &[&b], &RELU).unwrap();
        assert_eq!(engine.stats().fused_epilogues, 1);
        // Bias width must match the dense dimension.
        let err = engine.spmm(&a, &[&b], &biased(Activation::Identity, vec![0.0; 3]));
        assert!(err.is_err(), "bias wider than dim rejected");
        engine.clear_cache();
        assert_eq!(engine.stats().fused_epilogues, 0, "reset clears counter");
    }

    #[test]
    fn batch_fused_column_uniform_epilogue_matches_per_block_apply() {
        let a = random_matrix(40, 40, 220, 41);
        let blocks: Vec<DenseMatrix<f32>> = [3usize, 1, 4]
            .iter()
            .enumerate()
            .map(|(i, &k)| random_dense(40, k, 50 + i as u64))
            .collect();
        let refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
        let engine = ExecEngine::new(2);
        let fused = engine.spmm(&a, &refs, &RELU).unwrap();
        for (block, got) in blocks.iter().zip(fused) {
            let want = applied(row_sum(&a, block).0, &RELU);
            assert_eq!(got.as_slice(), want.as_slice());
        }
    }

    /// Every ISA arm of the row fold — `Portable` and each clone this CPU
    /// proves — equals the scalar oracle fold exactly: at every width
    /// 1..=67 and at the wide widths where two or more 64-column tiles
    /// and the overlapping remainder tile run, on the lopsided
    /// graph (an evil long row, empty rows, single-entry rows), under
    /// every epilogue and at 1, 2, 7 and 64 workers, through the span
    /// runner over the graph's one-graph window. The scalar fold itself
    /// equals the row sum with the epilogue applied.
    #[test]
    fn fold_isa_arms_bit_match_the_scalar_oracle() {
        let a = lopsided();
        let isas = crate::datapath::proven_isas();
        for dim in (1..=67usize).chain([96, 121, 127, 128, 129, 200]) {
            let b = random_dense(a.cols(), dim, 60);
            let plain = row_sum(&a, &b).0;
            for epi in &epilogues(dim) {
                for workers in WORKERS {
                    let fold = |rp: ResolvedPath| {
                        let mut out = vec![0.0f32; a.rows() * dim];
                        fold_into(&a, &b, rp, workers, epi, &mut out);
                        out
                    };
                    let want = fold(DataPath::Scalar.resolve());
                    assert_eq!(
                        want,
                        applied(plain.clone(), epi).as_slice(),
                        "scalar dim={dim}"
                    );
                    for &isa in &isas {
                        assert_eq!(
                            fold(ResolvedPath::Vector(isa)),
                            want,
                            "{isa:?} dim={dim} workers={workers} epi={epi:?}"
                        );
                    }
                }
            }
        }
    }

    /// The store-stage epilogues at width `dim`: none, ReLU, and a bias
    /// with no activation, ReLU and sigmoid.
    fn epilogues(dim: usize) -> [Epilogue; 5] {
        let bias: Vec<f32> = (0..dim).map(|j| j as f32 * 0.125 - 4.0).collect();
        [
            Epilogue::NONE,
            RELU,
            biased(Activation::Identity, bias.clone()),
            biased(Activation::Relu, bias.clone()),
            biased(Activation::Sigmoid, bias),
        ]
    }

    /// Puts a NaN-filled buffer of `len` elements into `engine`'s arena,
    /// as a recycled result whose stale values must never survive.
    fn recycle_stale(engine: &ExecEngine, len: usize) {
        engine.recycle(DenseMatrix::from_vec(len, 1, vec![f32::NAN; len]).unwrap());
    }

    /// The SpMM takes its outputs from the arena unzeroed, so the row
    /// fold must store every element. With a NaN-filled buffer of each
    /// output's size recycled first, a run equals the row sum with its
    /// epilogue applied: on the lopsided graph (its empty rows store
    /// zeros), at one-tile and multi-tile plan widths, through every
    /// data path and every proven ISA arm of the fold, at 1, 2, 7 and 64
    /// workers, under every epilogue. The unit-column lane takes its
    /// combined operand, combined result and split columns unzeroed too.
    #[test]
    fn spmm_overwrites_stale_recycled_outputs() {
        let a = lopsided();
        let paths = [DataPath::Scalar, DataPath::Vector];
        let isas = crate::datapath::proven_isas();
        for dim in [1usize, 2, 3, 4, 8, 16, 32, 121, 128] {
            let b = random_dense(a.cols(), dim, 70);
            let plain = row_sum(&a, &b).0;
            for epi in &epilogues(dim) {
                let want = applied(plain.clone(), epi);
                for workers in WORKERS {
                    let at = format!("dim={dim} workers={workers} epi={epi:?}");
                    for path in paths {
                        let engine = ExecEngine::with_data_path(workers, path);
                        recycle_stale(&engine, a.rows() * dim);
                        let got = engine.spmm(&a, &[&b], epi).unwrap();
                        assert_eq!(engine.stats().arena_reuses, 1, "stale buffer handed out");
                        assert_eq!(got[0].as_slice(), want.as_slice(), "{path:?} {at}");
                    }
                    for &isa in &isas {
                        let mut out = vec![f32::NAN; a.rows() * dim];
                        fold_into(&a, &b, ResolvedPath::Vector(isa), workers, epi, &mut out);
                        assert_eq!(out, want.as_slice(), "{isa:?} {at}");
                    }
                }
            }
        }
        for n in [3usize, 6] {
            let blocks: Vec<DenseMatrix<f32>> = (0..n)
                .map(|i| random_dense(a.cols(), 1, 80 + i as u64))
                .collect();
            let refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
            for epi in &epilogues(1) {
                for workers in WORKERS {
                    for path in paths {
                        let engine = ExecEngine::with_data_path(workers, path);
                        recycle_stale(&engine, a.cols() * n);
                        recycle_stale(&engine, a.rows() * n);
                        for _ in 0..n {
                            recycle_stale(&engine, a.rows());
                        }
                        let outs = engine.spmm(&a, &refs, epi).unwrap();
                        assert_eq!(engine.stats().arena_misses, 0, "every buffer was stale");
                        for (block, got) in blocks.iter().zip(&outs) {
                            let want = applied(row_sum(&a, block).0, epi);
                            assert_eq!(
                                got.as_slice(),
                                want.as_slice(),
                                "{n} unit columns {path:?} workers={workers} epi={epi:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}
