//! Packed windows held as their constituents, and the span runner every
//! SpMM runs through.
//!
//! The paper's Type II workloads are thousands of tiny graphs; a serving
//! window multiplies hundreds of them at once so one engine run balances
//! load across the whole window. Mathematically the window is one
//! block-diagonal matrix: graph `i` owns a row band and a column band, and
//! row band `i` of the product reads only column band `i` of the dense
//! operand. [`PackedGraphs`] keeps that view without building the matrix
//! (Batched SpMM, arXiv 1903.11409): it holds a reference to each graph
//! and the prefix sums of their rows, columns and merge items
//! (`rows + nnz`), so nothing is concatenated, stacked or scattered.
//!
//! A run cuts the window's row spans on those prefix sums: a search over
//! the per-graph prefix finds the graph a cut falls in, and a merge-path
//! search of that graph's own row pointers snaps the cut to a row edge
//! inside it — the cut `row_aligned_starts` would make on the
//! block-diagonal matrix. Each worker then folds its span graph by graph,
//! each graph's rows through the row fold with that graph's own column
//! indices into that graph's rows of the operand. Every output row is
//! still one ascending fold from `0.0`, so each graph's rows are bit for
//! bit its own product, at any worker count.
//!
//! The runner takes a list of *folds*, one per operand width.
//! [`ExecEngine::spmm_packed`] passes one fold over every graph of its
//! window. A column batch is the one-graph window:
//! [`ExecEngine::spmm`] passes one fold per block over its one graph, and
//! the window's cut is then exactly `row_aligned_starts` of that graph.

use std::ops::Range;

use mpspmm_sparse::{CsrMatrix, DenseMatrix, SparseFormatError};

use crate::datapath::{fold_row_scalar, tile, with_isa, ResolvedPath, TilePlan};
use crate::engine::ExecEngine;
use crate::epilogue::{apply_parts, Activation, Epilogue};
use crate::merge_path::merge_path_search;
use crate::pool::{ScopedJob, WorkerPool};

/// Where one constituent starts in its window: its first row, first
/// column and first merge item (`rows + nnz`) in the block-diagonal view.
#[derive(Debug, Clone, Copy, Default)]
struct Start {
    row: usize,
    col: usize,
    item: usize,
}

/// Many small graphs served as one block-diagonal window, held as their
/// constituents: graph `i` owns the rows and columns after every earlier
/// graph's, in a matrix that is never built. Building one costs one pass
/// over the graph list.
///
/// [`ExecEngine::spmm_packed`] aggregates a window in one engine run;
/// [`ExecEngine::forward`] runs a GCN over it in **one** pool dispatch,
/// each worker taking every layer over its own graphs.
///
/// # Example
///
/// ```
/// use mpspmm_core::{Activation, Epilogue, ExecEngine, Layer, PackedGraphs};
/// use mpspmm_sparse::{CsrMatrix, DenseMatrix};
///
/// let g0 = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0f32), (1, 0, 2.0)])?;
/// let g1 = CsrMatrix::from_triplets(3, 3, &[(2, 2, 0.5f32)])?;
/// let window = PackedGraphs::new([&g0, &g1]);
/// let x0 = DenseMatrix::from_fn(2, 4, |r, c| (r + c) as f32);
/// let x1 = DenseMatrix::from_fn(3, 4, |r, c| (r * c) as f32);
/// let engine = ExecEngine::new(2);
/// // Aggregation only: one output per graph.
/// let outs = engine.spmm_packed(&window, &[&x0, &x1], &Epilogue::NONE)?;
/// assert_eq!(outs[1], engine.spmm(&g1, &[&x1], &Epilogue::NONE)?[0]);
/// // A GCN forward: each reply is its graph's own forward, bit for bit.
/// let layers = [
///     Layer::new(DenseMatrix::from_fn(4, 8, |r, c| (r + 2 * c) as f32 * 0.1), Activation::Relu),
///     Layer::new(DenseMatrix::from_fn(8, 2, |r, c| (r * c) as f32 * 0.1), Activation::Identity),
/// ];
/// let replies = engine.forward(&window, &[&x0, &x1], &layers)?;
/// assert_eq!(replies[0], engine.forward(&g0, &[&x0], &layers)?[0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedGraphs<'a> {
    graphs: Vec<&'a CsrMatrix<f32>>,
    /// `starts[i]` for every graph, then the window's totals.
    starts: Vec<Start>,
}

impl<'a> PackedGraphs<'a> {
    /// The window of `graphs`, in order. Graphs with no rows or no
    /// non-zeros are allowed.
    pub fn new(graphs: impl IntoIterator<Item = &'a CsrMatrix<f32>>) -> Self {
        let graphs: Vec<&CsrMatrix<f32>> = graphs.into_iter().collect();
        let mut starts = Vec::with_capacity(graphs.len() + 1);
        let mut next = Start::default();
        starts.push(next);
        for g in &graphs {
            next.row += g.rows();
            next.col += g.cols();
            next.item += g.rows() + g.nnz();
            starts.push(next);
        }
        Self { graphs, starts }
    }

    /// The window's rows: every graph's rows.
    pub fn rows(&self) -> usize {
        self.totals().row
    }

    /// The window's columns: every graph's columns, the rows of a stacked
    /// dense operand.
    pub fn cols(&self) -> usize {
        self.totals().col
    }

    /// The window's non-zeros: every graph's non-zeros.
    pub fn nnz(&self) -> usize {
        self.totals().item - self.rows()
    }

    /// Columns of graph `i` in the window: its rows of a stacked operand.
    fn block_cols(&self, i: usize) -> Range<usize> {
        self.starts[i].col..self.starts[i + 1].col
    }

    fn totals(&self) -> Start {
        *self.starts.last().expect("starts end with the totals")
    }

    /// The window's graphs, in order.
    pub(crate) fn graphs(&self) -> &[&'a CsrMatrix<f32>] {
        &self.graphs
    }

    /// The window's merge items: `rows + nnz` over every graph.
    pub(crate) fn items(&self) -> usize {
        self.totals().item
    }

    /// First graph of each of `spans` spans of whole graphs: the
    /// window's merge items are cut into equal shares, and each cut snaps
    /// to the graph start nearest it. Starts never decrease, and
    /// `starts[0] == 0`; a span may hold no graph.
    pub(crate) fn graph_starts(&self, spans: usize) -> Vec<usize> {
        let total = self.items();
        let share = total.div_ceil(spans.max(1)).max(1);
        let mut starts = Vec::with_capacity(spans.max(1));
        starts.push(0);
        for k in 1..spans {
            let diag = (k * share).min(total);
            // The first graph starting at or after the cut, or the one
            // before it when that start is nearer.
            let after = self.starts[..self.graphs.len()].partition_point(|s| s.item < diag);
            let before = after.saturating_sub(1);
            let g = if diag - self.starts[before].item < self.starts[after].item - diag {
                before
            } else {
                after
            };
            starts.push(g.max(starts[k - 1]));
        }
        starts
    }

    /// Each graph's output buffer of `dim` columns as a matrix.
    pub(crate) fn replies(&self, bufs: Vec<Vec<f32>>, dim: usize) -> Vec<DenseMatrix<f32>> {
        bufs.into_iter()
            .zip(&self.graphs)
            .map(|(buf, g)| {
                DenseMatrix::from_vec(g.rows(), dim, buf)
                    .expect("output buffer has exactly rows*dim elements")
            })
            .collect()
    }

    /// First window row of each of `spans` row spans. The window's
    /// `rows + nnz` merge items are cut into equal shares, and each cut
    /// snaps to the rows fully consumed there: a search of the per-graph
    /// item prefix finds the graph the cut falls in, and a merge-path
    /// search of that graph's row pointers finds the row edge. Starts
    /// never decrease and `starts[0] == 0`.
    pub(crate) fn row_starts(&self, spans: usize) -> Vec<usize> {
        let (rows, total) = (self.rows(), self.totals().item);
        let share = total.div_ceil(spans.max(1)).max(1);
        let mut starts = Vec::with_capacity(spans.max(1));
        starts.push(0);
        for k in 1..spans {
            let diag = (k * share).min(total);
            // The last graph starting at or before the cut: empty graphs
            // start where their successor does, and own no item.
            let g = self.starts.partition_point(|s| s.item <= diag) - 1;
            let row = match self.graphs.get(g) {
                Some(a) => {
                    let local = diag - self.starts[g].item;
                    self.starts[g].row + merge_path_search(local, &a.row_ptr()[1..], a.nnz()).row
                }
                None => rows,
            };
            starts.push(row.clamp(starts[k - 1], rows));
        }
        starts
    }

    /// Each graph's rows of the dense operand `b`: `b` is either one
    /// matrix of [`cols()`](Self::cols) rows, the graphs' rows stacked in
    /// window order, or one matrix per graph of that graph's `cols()`
    /// rows. Returns the slices and the operand's width.
    pub(crate) fn operand_rows<'b>(
        &self,
        b: &[&'b DenseMatrix<f32>],
    ) -> Result<(Vec<&'b [f32]>, usize), SparseFormatError> {
        let dim = b.first().map_or(0, |m| m.cols());
        if let [stacked] = b {
            if stacked.rows() == self.cols() {
                let rows = (0..self.graphs.len())
                    .map(|i| {
                        let c = self.block_cols(i);
                        &stacked.as_slice()[c.start * dim..c.end * dim]
                    })
                    .collect();
                return Ok((rows, dim));
            }
        }
        let fits = b.len() == self.graphs.len()
            && b.iter()
                .zip(&self.graphs)
                .all(|(m, g)| m.rows() == g.cols() && m.cols() == dim);
        if !fits {
            return Err(SparseFormatError::ShapeMismatch {
                left: (self.rows(), self.cols()),
                right: (b.iter().map(|m| m.rows()).sum(), dim),
            });
        }
        Ok((b.iter().map(|m| m.as_slice()).collect(), dim))
    }
}

impl ExecEngine {
    /// Computes `graph_i · b_i` for every graph of the packed window `p`
    /// in **one** engine run, with `epi` fused at the store stage, without
    /// building the window's block-diagonal matrix, stacking its operand
    /// or scattering its output. Returns one fresh matrix per graph: the
    /// replies of a served aggregation-only window, which leave the
    /// engine. A GCN window runs [`ExecEngine::forward`] instead.
    ///
    /// `b` is the dense operand: one matrix per graph, holding that
    /// graph's `cols()` rows, or one matrix of the graphs' rows stacked
    /// in window order ([`PackedGraphs::cols`] rows). Each graph's rows
    /// are read where they lie.
    ///
    /// The row spans are cut once on the window's per-graph `rows + nnz`
    /// prefix (see [`PackedGraphs`]) and the pool is dispatched once. Every
    /// output row has one writer that sums its products in ascending `k`
    /// and then applies `epi`, so each graph's rows equal, under f32 `==`,
    /// that graph's own [`spmm`](Self::spmm) with the same epilogue, at
    /// any worker count and in any window.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`], before any output is
    /// checked out, if `b` is neither layout or a bias epilogue's length
    /// differs from the operand's width.
    pub fn spmm_packed(
        &self,
        p: &PackedGraphs<'_>,
        b: &[&DenseMatrix<f32>],
        epi: &Epilogue,
    ) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
        let (operands, dim) = p.operand_rows(b)?;
        epi.validate(dim)?;
        let rp = self.start_run(epi);
        let mut bufs: Vec<Vec<f32>> = p
            .graphs
            .iter()
            .map(|g| self.arena.fresh(g.rows() * dim))
            .collect();
        let fold = Fold {
            dim,
            rp,
            operands,
            outs: bufs.iter_mut().map(Vec::as_mut_slice).collect(),
        };
        run_spans(p, vec![fold], self.workers, epi);
        Ok(p.replies(bufs, dim))
    }
}

/// One operand width of a run: the width, the data path resolved for it,
/// and each graph's rows of the dense operand and of the output.
pub(crate) struct Fold<'a> {
    pub dim: usize,
    pub rp: ResolvedPath,
    pub operands: Vec<&'a [f32]>,
    pub outs: Vec<&'a mut [f32]>,
}

/// Folds every graph of `p` once per fold, from the fold's operand rows
/// into its output rows: one row span per worker
/// ([`PackedGraphs::row_starts`]) on the pool, or the whole window inline
/// at one worker. A span's job runs [`fold_rows`] once per fold over that
/// fold's pieces in the span. A graph a cut falls inside splits its
/// outputs at that row, so every row still has one writer. Folds of
/// width 0 and empty spans get no work.
pub(crate) fn run_spans(
    p: &PackedGraphs<'_>,
    mut folds: Vec<Fold<'_>>,
    workers: usize,
    epi: &Epilogue,
) {
    folds.retain(|f| f.dim > 0);
    let starts = p.row_starts(workers);
    let end = |s: usize| starts.get(s + 1).copied().unwrap_or(p.rows());
    // Span `s`'s pieces of every fold, each list with its fold's width
    // and path. The jobs borrow the lists, so they are freed here, on the
    // calling thread: freed on pool workers, they raised `ppi-gcn`'s peak
    // RSS by one activation buffer in 5 of 20 10 s servebench runs
    // (2-vCPU host).
    let mut spans: Vec<Vec<(usize, ResolvedPath, Vec<Piece<'_>>)>> = starts
        .iter()
        .map(|_| Vec::with_capacity(folds.len()))
        .collect();
    for f in folds {
        for span in &mut spans {
            span.push((f.dim, f.rp, Vec::new()));
        }
        let mut s = 0;
        let graphs = p.graphs.iter().zip(f.operands).zip(f.outs);
        for (((&a, b), mut out), start) in graphs.zip(&p.starts) {
            let mut row = start.row;
            let last = row + a.rows();
            while row < last {
                while end(s) <= row {
                    s += 1;
                }
                let hi = end(s).min(last);
                let (head, tail) = std::mem::take(&mut out).split_at_mut((hi - row) * f.dim);
                out = tail;
                let (_, _, pieces) = spans[s].last_mut().expect("one list per fold");
                pieces.push(Piece {
                    a,
                    first: row - start.row,
                    b,
                    out: head,
                });
                row = hi;
            }
        }
    }
    let jobs: Vec<ScopedJob<'_>> = spans
        .iter_mut()
        .filter(|span| span.iter().any(|(_, _, pieces)| !pieces.is_empty()))
        .map(|span| -> ScopedJob<'_> {
            Box::new(move || {
                for (dim, rp, pieces) in span {
                    fold_rows(pieces, *dim, rp, epi);
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

/// Rows `first..first + out.len() / dim` of `a · b`, stored into `out`:
/// one graph's share of a row span. `b` is the dense operand's row-major
/// storage, `dim` columns wide, indexed by `a`'s own column indices.
pub(crate) struct Piece<'a> {
    pub a: &'a CsrMatrix<f32>,
    pub first: usize,
    pub b: &'a [f32],
    pub out: &'a mut [f32],
}

/// Computes every piece's rows, each row in one ascending pass that
/// stores every element of the row (zeros for an empty row), whatever
/// `out` held, and applies `epi` to every row right after its store —
/// empty rows included, since a bias changes them.
///
/// Each activation runs its own instance of the fold, with the
/// activation a constant in it, so only sigmoid's instance holds the
/// `expf` call: a call anywhere in the row loop, even on a branch no row
/// takes, slowed the other folds by 2–5% (DESIGN.md §2.10).
pub(crate) fn fold_rows(pieces: &mut [Piece<'_>], dim: usize, rp: &ResolvedPath, epi: &Epilogue) {
    let bias = epi.bias.as_deref();
    match epi.activation {
        Activation::Identity => fold_rows_by(
            pieces,
            dim,
            rp,
            #[inline(always)]
            move |row: &mut [f32]| apply_parts(bias, Activation::Identity, row),
        ),
        Activation::Relu => fold_rows_by(
            pieces,
            dim,
            rp,
            #[inline(always)]
            move |row: &mut [f32]| apply_parts(bias, Activation::Relu, row),
        ),
        Activation::Sigmoid => fold_rows_by(
            pieces,
            dim,
            rp,
            #[inline(always)]
            move |row: &mut [f32]| apply_parts(bias, Activation::Sigmoid, row),
        ),
    }
}

/// [`fold_rows`] with `epi` applied to each row. The vectorized path
/// resolves the `dim`-wide [`TilePlan`] once and runs every piece's fold
/// in the widest ISA clone the CPU proved ([`with_isa`]), dispatched once
/// per call; the scalar oracle stays on baseline code.
fn fold_rows_by(
    pieces: &mut [Piece<'_>],
    dim: usize,
    rp: &ResolvedPath,
    epi: impl Fn(&mut [f32]) + Copy,
) {
    match *rp {
        ResolvedPath::Scalar => {
            for p in pieces {
                let b = p.b;
                fold_rows_with(p.first, p.a, dim, epi, p.out, |cols, vals, dst| {
                    fold_row_scalar(cols, vals, b, dst)
                });
            }
        }
        ResolvedPath::Vector(isa) => {
            let plan = TilePlan::new(dim, isa);
            with_isa(
                isa,
                #[inline(always)]
                || {
                    for p in pieces {
                        fold_rows_planned(p.first, p.a, (p.b, dim), &plan, epi, p.out);
                    }
                },
            )
        }
    }
}

/// The vectorized row fold behind [`fold_rows`] over `b`, the dense
/// operand's `dim`-column row-major storage: a one-tile plan folds the
/// span at its const width, so `b`'s row stride is a constant too; any
/// other plan runs its tiles row by row. `inline(always)` so each ISA
/// clone compiles all of it.
#[inline(always)]
fn fold_rows_planned(
    first: usize,
    a: &CsrMatrix<f32>,
    (b, dim): (&[f32], usize),
    plan: &TilePlan,
    epi: impl Fn(&mut [f32]) + Copy,
    out: &mut [f32],
) {
    match plan.single() {
        Some(1) => fold_rows_tile::<1>(first, a, b, epi, out),
        Some(2) => fold_rows_tile::<2>(first, a, b, epi, out),
        Some(3) => fold_rows_tile::<3>(first, a, b, epi, out),
        Some(4) => fold_rows_tile::<4>(first, a, b, epi, out),
        Some(8) => fold_rows_tile::<8>(first, a, b, epi, out),
        Some(16) => fold_rows_tile::<16>(first, a, b, epi, out),
        Some(32) => fold_rows_tile::<32>(first, a, b, epi, out),
        Some(64) => fold_rows_tile::<64>(first, a, b, epi, out),
        _ => fold_rows_with(
            first,
            a,
            dim,
            epi,
            out,
            #[inline(always)]
            |cols, vals, dst| plan.fold_row(cols, vals, b, dst),
        ),
    }
}

/// [`fold_rows_planned`] for a plan of one `D`-column tile: `D` is the
/// dense operand's width.
#[inline(always)]
fn fold_rows_tile<const D: usize>(
    first: usize,
    a: &CsrMatrix<f32>,
    b: &[f32],
    epi: impl Fn(&mut [f32]) + Copy,
    out: &mut [f32],
) {
    fold_rows_with(
        first,
        a,
        D,
        epi,
        out,
        #[inline(always)]
        |cols, vals, dst| tile::<D>(cols, vals, b, D, 0, dst),
    );
}

/// Rows `first..first + out.len() / dim` of the product, each folded by
/// `fold_row` from the row's column indices and values into its
/// `dim`-wide output row, then given `epi`. The vectorized callers hand in
/// `inline(always)` closures: a closure left out of line compiles without
/// the ISA clone's features.
#[inline(always)]
fn fold_rows_with(
    first: usize,
    a: &CsrMatrix<f32>,
    dim: usize,
    epi: impl Fn(&mut [f32]) + Copy,
    out: &mut [f32],
    mut fold_row: impl FnMut(&[usize], &[f32], &mut [f32]),
) {
    let (row_ptr, cols, vals) = (a.row_ptr(), a.col_indices(), a.values());
    for (row, dst) in (first..).zip(out.chunks_exact_mut(dim)) {
        let nz = row_ptr[row]..row_ptr[row + 1];
        fold_row(&cols[nz.clone()], &vals[nz], dst);
        epi(dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::row_aligned_starts;
    use crate::spmm::test_support::{lopsided, random_matrix};
    use mpspmm_sparse::BlockDiagCsr;
    use std::sync::Arc;

    /// A window of `(rows, nnz)` graphs; `(0, 0)` is a graph of no rows.
    fn window(shapes: &[(usize, usize)]) -> Vec<CsrMatrix<f32>> {
        shapes
            .iter()
            .enumerate()
            .map(|(i, &(rows, nnz))| random_matrix(rows, rows, nnz, 90 + i as u64))
            .collect()
    }

    /// The cuts on the per-graph prefix are the cuts `row_aligned_starts`
    /// makes on the block-diagonal matrix itself: with empty and
    /// zero-row graphs, one graph, and one graph holding most of the
    /// window's items, at every span count up to 70. A column batch runs
    /// as a one-graph window, so its cuts are those of
    /// `row_aligned_starts` on the graph: checked on the engine's
    /// lopsided graph and on a graph whose middle row is longer than a
    /// span's share, at every span count up to 200 (more spans than
    /// either has merge items).
    #[test]
    fn cuts_on_the_prefix_equal_the_block_diagonal_cuts() {
        let shapes: [&[(usize, usize)]; 5] = [
            &[(5, 12), (0, 0), (7, 0), (9, 30), (0, 0), (3, 4)],
            &[(11, 40)],
            &[(2, 3), (60, 900), (4, 6)],
            &[(0, 0), (0, 0)],
            &[(1, 1), (1, 0), (2, 2), (1, 1), (3, 5), (1, 0)],
        ];
        for shape in shapes {
            let graphs = window(shape);
            let p = PackedGraphs::new(&graphs);
            let arcs: Vec<Arc<CsrMatrix<f32>>> = graphs.iter().cloned().map(Arc::new).collect();
            let pack = BlockDiagCsr::build(&arcs).unwrap();
            assert_eq!(
                (p.rows(), p.cols(), p.nnz()),
                (pack.rows(), pack.cols(), pack.nnz())
            );
            for i in 0..graphs.len() {
                assert_eq!(p.block_cols(i), pack.block_cols(i));
            }
            for spans in 1..=70 {
                assert_eq!(
                    p.row_starts(spans),
                    row_aligned_starts(pack.matrix().row_ptr(), spans),
                    "{shape:?} spans={spans}"
                );
            }
        }
        assert_eq!(PackedGraphs::new([]).row_starts(3), vec![0, 0, 0]);
        let mut long_middle: Vec<(usize, usize, f32)> =
            (0..20).filter(|&r| r != 10).map(|r| (r, r, 1.0)).collect();
        long_middle.extend((0..60).map(|c| (10, c, 0.5)));
        let long_middle = CsrMatrix::from_triplets(20, 60, &long_middle).unwrap();
        for a in [lopsided(), long_middle] {
            let p = PackedGraphs::new([&a]);
            for spans in 1..=200 {
                assert_eq!(
                    p.row_starts(spans),
                    row_aligned_starts(a.row_ptr(), spans),
                    "{} rows, {} nnz, spans={spans}",
                    a.rows(),
                    a.nnz()
                );
            }
        }
    }

    /// The packed forward's cut snaps each equal-share cut of the merge
    /// items to the nearest graph start: on windows with empty and
    /// zero-row graphs, one graph, and one graph holding most of the
    /// items, at every span count up to 70. Starts never decrease and
    /// begin at graph 0.
    #[test]
    fn graph_cuts_snap_to_the_nearest_graph_start() {
        let shapes: [&[(usize, usize)]; 4] = [
            &[(5, 12), (0, 0), (7, 0), (9, 30), (0, 0), (3, 4)],
            &[(11, 40)],
            &[(2, 3), (60, 900), (4, 6)],
            &[(1, 1), (1, 0), (2, 2), (1, 1), (3, 5), (1, 0)],
        ];
        for shape in shapes {
            let graphs = window(shape);
            let p = PackedGraphs::new(&graphs);
            let total = p.items();
            let edges: Vec<usize> = p.starts.iter().map(|s| s.item).collect();
            for spans in 1..=70 {
                let starts = p.graph_starts(spans);
                assert_eq!(starts.len(), spans);
                assert_eq!(starts[0], 0);
                assert!(starts.windows(2).all(|w| w[0] <= w[1]));
                let share = total.div_ceil(spans).max(1);
                for (k, &g) in starts.iter().enumerate().skip(1) {
                    let diag = (k * share).min(total);
                    let best = edges.iter().map(|&e| e.abs_diff(diag)).min().unwrap();
                    assert_eq!(
                        edges[g].abs_diff(diag),
                        best,
                        "{shape:?} spans={spans} k={k}"
                    );
                }
            }
        }
    }
}
