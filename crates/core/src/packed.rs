//! Packed windows held as their constituents.
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
//! [`ExecEngine::spmm_packed`] cuts the window's row spans on those prefix
//! sums: a search over the per-graph prefix finds the graph a cut falls
//! in, and a merge-path search of that graph's own row pointers snaps the
//! cut to a row edge inside it — the cut `row_aligned_starts` would make
//! on the block-diagonal matrix. Each worker then folds its span graph by
//! graph, each graph's rows through the engine's row fold with that
//! graph's own column indices into that graph's rows of the operand. Every
//! output row is still one ascending fold from `0.0`, so each graph's rows
//! are bit for bit its own product, at any worker count.

use std::ops::Range;

use mpspmm_sparse::{CsrMatrix, DenseMatrix, SparseFormatError};

use crate::datapath::ResolvedPath;
use crate::engine::{fold_rows, ExecEngine, Piece};
use crate::epilogue::Epilogue;
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
/// # Example
///
/// ```
/// use mpspmm_core::{Epilogue, ExecEngine, PackedGraphs, PackedOut};
/// use mpspmm_sparse::{CsrMatrix, DenseMatrix};
///
/// let g0 = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0f32), (1, 0, 2.0)])?;
/// let g1 = CsrMatrix::from_triplets(3, 3, &[(2, 2, 0.5f32)])?;
/// let window = PackedGraphs::new([&g0, &g1]);
/// let x0 = DenseMatrix::from_fn(2, 4, |r, c| (r + c) as f32);
/// let x1 = DenseMatrix::from_fn(3, 4, |r, c| (r * c) as f32);
/// let engine = ExecEngine::new(2);
/// let outs = engine.spmm_packed(&window, &[&x0, &x1], &Epilogue::None, PackedOut::PerGraph)?;
/// assert_eq!(outs[1], engine.spmm(&g1, &[&x1], &Epilogue::None)?[0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackedGraphs<'a> {
    graphs: Vec<&'a CsrMatrix<f32>>,
    /// `starts[i]` for every graph, then the window's totals.
    starts: Vec<Start>,
}

/// How [`ExecEngine::spmm_packed`] returns a window's output rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedOut {
    /// One matrix of every graph's rows in window order, from the arena:
    /// an activation the next layer reads where it lies.
    Stacked,
    /// One matrix per graph, each a fresh buffer: the replies of a served
    /// window, which leave the engine.
    PerGraph,
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
    fn operand_rows<'b>(
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
    /// or scattering its output.
    ///
    /// `b` is the dense operand: one matrix per graph, holding that
    /// graph's `cols()` rows, or one matrix of the graphs' rows stacked
    /// in window order ([`PackedGraphs::cols`] rows). Each graph's rows
    /// are read where they lie. `out` picks the result: one stacked matrix
    /// of the window's rows from the arena, or one fresh matrix per graph.
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
        out: PackedOut,
    ) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
        let (operands, dim) = p.operand_rows(b)?;
        epi.validate(dim)?;
        if !epi.is_noop() {
            self.fused_epilogues
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let rp = self.data_path.resolve();
        match out {
            PackedOut::Stacked => {
                let mut buf = self.arena.take(p.rows() * dim);
                let mut rest = buf.as_mut_slice();
                let outs = p.graphs.iter().map(|g| {
                    let (head, tail) = std::mem::take(&mut rest).split_at_mut(g.rows() * dim);
                    rest = tail;
                    head
                });
                run_packed_spans(p, &operands, outs.collect(), dim, rp, self.workers, epi);
                let m = DenseMatrix::from_vec(p.rows(), dim, buf)
                    .expect("output buffer has exactly rows*dim elements");
                Ok(vec![m])
            }
            PackedOut::PerGraph => {
                let mut bufs: Vec<Vec<f32>> = p
                    .graphs
                    .iter()
                    .map(|g| self.arena.fresh(g.rows() * dim))
                    .collect();
                let outs = bufs.iter_mut().map(Vec::as_mut_slice).collect();
                run_packed_spans(p, &operands, outs, dim, rp, self.workers, epi);
                Ok(bufs
                    .into_iter()
                    .zip(&p.graphs)
                    .map(|(buf, g)| {
                        DenseMatrix::from_vec(g.rows(), dim, buf)
                            .expect("output buffer has exactly rows*dim elements")
                    })
                    .collect())
            }
        }
    }
}

/// Folds every graph of `p` from its operand rows into its output rows:
/// inline at one worker, otherwise one row span per worker
/// ([`PackedGraphs::row_starts`]) on the pool. A graph a cut falls inside
/// splits its output at that row, so every row still has one writer.
/// Empty spans get no job.
fn run_packed_spans(
    p: &PackedGraphs<'_>,
    operands: &[&[f32]],
    outs: Vec<&mut [f32]>,
    dim: usize,
    rp: ResolvedPath,
    workers: usize,
    epi: &Epilogue,
) {
    if dim == 0 || p.rows() == 0 {
        return;
    }
    let pieces = p.graphs.iter().zip(operands).zip(outs);
    if workers <= 1 {
        let mut all: Vec<Piece<'_>> = pieces
            .map(|((&a, &b), out)| Piece {
                a,
                first: 0,
                b,
                out,
            })
            .collect();
        fold_rows(&mut all, dim, &rp, epi);
        return;
    }
    let starts = p.row_starts(workers);
    let ends = starts[1..].iter().copied().chain([p.rows()]);
    let mut spans: Vec<(usize, Vec<Piece<'_>>)> = ends.map(|end| (end, Vec::new())).collect();
    let mut s = 0;
    for (((&a, &b), mut out), start) in pieces.zip(&p.starts) {
        let mut row = start.row;
        let end = row + a.rows();
        while row < end {
            while spans[s].0 <= row {
                s += 1;
            }
            let hi = spans[s].0.min(end);
            let (head, tail) = std::mem::take(&mut out).split_at_mut((hi - row) * dim);
            out = tail;
            spans[s].1.push(Piece {
                a,
                first: row - start.row,
                b,
                out: head,
            });
            row = hi;
        }
    }
    let jobs: Vec<ScopedJob<'_>> = spans
        .into_iter()
        .filter(|(_, span)| !span.is_empty())
        .map(|(_, mut span)| -> ScopedJob<'_> {
            Box::new(move || fold_rows(&mut span, dim, &rp, epi))
        })
        .collect();
    WorkerPool::global().scope_run(jobs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmm::row_aligned_starts;
    use crate::spmm::test_support::random_matrix;
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
    /// window's items, at every span count up to 70.
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
    }
}
