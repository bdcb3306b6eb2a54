//! Packed windows held as their constituents, the graph-span runner every
//! packed window runs through, and the row fold every SpMM runs.
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
//! A packed window is cut once, at graph starts: the merge items are cut
//! into one equal share per worker and each cut snaps to the nearest graph
//! start, so every span holds whole graphs. The pool is dispatched once,
//! and a window too small to pay for a dispatch runs inline. An
//! aggregation-only window ([`ExecEngine::spmm`] on a window) folds each
//! span's graphs straight into their replies; a GCN window
//! ([`ExecEngine::forward`]) runs every layer over each span's graphs.
//! Every output row is still one ascending fold from `0.0`, so each
//! graph's rows are bit for bit its own product, at any worker count.
//!
//! A column batch over one graph is cut inside the graph instead, at row
//! edges (the engine's `row_aligned_starts`), and runs through the
//! engine's one-graph runner; both run the row fold of this module.

use std::ops::Range;

use mpspmm_sparse::{CsrMatrix, DenseMatrix, SparseFormatError};

use crate::datapath::{fold_row_scalar, tile, with_isa, ResolvedPath, TilePlan};
use crate::engine::ExecEngine;
use crate::epilogue::{apply_parts, Activation, Epilogue};
use crate::pool::{ScopedJob, WorkerPool};

/// Merge items (`rows + nnz`) a packed window gives each worker at least:
/// a window of fewer than twice this many runs inline, since waking a pool
/// worker costs more wall time than the half of the work it would take.
/// Calibrated on the GCN forward: at `molecule-pack`'s widths
/// (16 → 32 → 2) a merge item takes about 7 ns of forward at one worker,
/// and a dispatch about 13–17 µs of wall time on a 2-vCPU AVX-512F host
/// (DESIGN.md §2.12). An aggregation-only window uses it as is: it does
/// less work per merge item than a forward, so the rule errs toward
/// splitting it.
pub(crate) const PACKED_MIN_ITEMS: usize = 2048;

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
/// [`ExecEngine::spmm`] aggregates a window and [`ExecEngine::forward`]
/// runs a GCN over it, each in **one** pool dispatch: each worker takes
/// its own whole graphs.
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
/// // Aggregation only: one output per graph, each its graph's own product.
/// let outs = engine.spmm(&window, &[&x0, &x1], &Epilogue::NONE)?;
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

    /// The window's columns: every graph's columns.
    pub fn cols(&self) -> usize {
        self.totals().col
    }

    /// The window's non-zeros: every graph's non-zeros.
    pub fn nnz(&self) -> usize {
        self.totals().item - self.rows()
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

    /// Each graph's rows of the dense operand `b`, one matrix per graph
    /// of that graph's `cols()` rows, all of one width. Returns the
    /// slices and the width.
    pub(crate) fn operand_rows<'b>(
        &self,
        b: &[&'b DenseMatrix<f32>],
    ) -> Result<(Vec<&'b [f32]>, usize), SparseFormatError> {
        let dim = b.first().map_or(0, |m| m.cols());
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

    /// Cuts the window into spans of whole graphs ([`Self::graph_starts`]),
    /// one per worker but none under [`PACKED_MIN_ITEMS`] merge items, and
    /// runs `job` once per non-empty span over its graphs, their operand
    /// rows and their replies, with the span's own state from `state`.
    /// The states are made on the calling thread before the dispatch and
    /// returned after it, in span order. More than one span is one pool
    /// dispatch; one span runs inline.
    pub(crate) fn run_graph_spans<S: Send>(
        &self,
        workers: usize,
        mut operands: &[&[f32]],
        mut replies: &mut [Vec<f32>],
        mut state: impl FnMut(&[&'a CsrMatrix<f32>]) -> S,
        job: impl Fn(&[&'a CsrMatrix<f32>], &[&[f32]], &mut [Vec<f32>], &mut S) + Sync,
    ) -> Vec<S> {
        let spans = (self.items() / PACKED_MIN_ITEMS).clamp(1, workers);
        let starts = self.graph_starts(spans);
        let graphs = self.graphs();
        let bounds: Vec<Range<usize>> = starts
            .iter()
            .enumerate()
            .map(|(s, &lo)| lo..starts.get(s + 1).copied().unwrap_or(graphs.len()))
            .filter(|r| !r.is_empty())
            .collect();
        let mut states: Vec<S> = bounds.iter().map(|r| state(&graphs[r.clone()])).collect();
        // The spans cover the window in order, so each takes the next
        // graphs' operands and replies.
        let job = &job;
        let jobs: Vec<ScopedJob<'_>> = bounds
            .iter()
            .zip(&mut states)
            .map(|(r, state)| -> ScopedJob<'_> {
                let (x, tail) = operands.split_at(r.len());
                operands = tail;
                let (out, tail) = std::mem::take(&mut replies).split_at_mut(r.len());
                replies = tail;
                let g = &graphs[r.clone()];
                Box::new(move || job(g, x, out, state))
            })
            .collect();
        if jobs.len() <= 1 {
            jobs.into_iter().for_each(|job| job());
        } else {
            WorkerPool::global().scope_run(jobs);
        }
        states
    }
}

impl ExecEngine {
    /// The packed half of [`ExecEngine::spmm`]: `graph_i · b_i` for every
    /// graph of `p`, with `epi` fused at the store stage, each span of
    /// whole graphs folding its graphs straight into their replies. The
    /// replies are fresh buffers, one per graph, since they leave the
    /// engine.
    pub(crate) fn spmm_window(
        &self,
        p: &PackedGraphs<'_>,
        b: &[&DenseMatrix<f32>],
        epi: &Epilogue,
    ) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
        let (operands, dim) = p.operand_rows(b)?;
        epi.validate(dim)?;
        let rp = self.start_run(epi);
        let mut replies: Vec<Vec<f32>> = p
            .graphs
            .iter()
            .map(|g| self.arena.fresh(g.rows() * dim))
            .collect();
        if dim > 0 {
            p.run_graph_spans(
                self.workers,
                &operands,
                &mut replies,
                |_| (),
                |graphs, operands, replies, _| {
                    let mut pieces: Vec<Piece<'_>> = graphs
                        .iter()
                        .zip(operands)
                        .zip(replies)
                        .map(|((&a, &b), out)| Piece {
                            a,
                            first: 0,
                            b,
                            out,
                        })
                        .collect();
                    fold_rows(&mut pieces, dim, &rp, epi);
                },
            );
        }
        Ok(p.replies(replies, dim))
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
    use crate::spmm::test_support::random_matrix;

    /// A window of `(rows, nnz)` graphs; `(0, 0)` is a graph of no rows.
    fn window(shapes: &[(usize, usize)]) -> Vec<CsrMatrix<f32>> {
        shapes
            .iter()
            .enumerate()
            .map(|(i, &(rows, nnz))| random_matrix(rows, rows, nnz, 90 + i as u64))
            .collect()
    }

    /// A packed window's cut snaps each equal-share cut of the merge
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
