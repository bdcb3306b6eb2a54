//! Block-diagonal concatenation of many small CSR graphs.
//!
//! The paper's Type II workloads (molecular datasets) are thousands of
//! tiny graphs. Running them one SpMM at a time pays full dispatch and
//! plan overhead per few hundred non-zeros. [`BlockDiagCsr`] packs `N`
//! constituent graphs into **one** block-diagonal CSR — graph `i`
//! occupies the row band `row_offsets[i]..row_offsets[i+1]` and the
//! column band `col_offsets[i]..col_offsets[i+1]` — so a single
//! merge-path execution balances load across the whole batch.
//!
//! Because the blocks are diagonal, the packed product factors exactly:
//! row band `i` of `pack × X` reads only rows of `X` inside column band
//! `i`, which is precisely `A_i × X_i` for the vertically stacked
//! feature matrix. The offset tables double as the scatter map back to
//! each constituent: every graph's result is a contiguous row slice of
//! the packed output, so scattering is a bounds-checked `memcpy` per
//! block with no overlap by construction.
//!
//! A single-constituent "batch" is zero-copy: the packed matrix is the
//! constituent's own `Arc`.
//!
//! The serving layer no longer builds this matrix: a packed window runs
//! over its constituents in place (`mpspmm_core::PackedGraphs`), cutting
//! its row spans on per-graph prefix sums, so nothing is concatenated,
//! stacked or scattered. `BlockDiagCsr` stays as the reference the
//! packed-path tests compare against and for the serving benchmark's
//! replay.

use std::sync::Arc;

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseFormatError;

/// `N` small CSR graphs packed into one block-diagonal CSR, plus the
/// offset tables needed to stack inputs and scatter results back.
#[derive(Debug, Clone)]
pub struct BlockDiagCsr {
    matrix: Arc<CsrMatrix<f32>>,
    row_offsets: Vec<usize>,
    col_offsets: Vec<usize>,
    nnz_offsets: Vec<usize>,
}

impl BlockDiagCsr {
    /// Packs `blocks` in order into one block-diagonal matrix.
    ///
    /// Constituents with zero rows or zero non-zeros are allowed (they
    /// occupy an empty band). A single-element batch shares the
    /// constituent's storage (`Arc::clone`, no copy).
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::EmptyBatch`] when `blocks` is empty.
    pub fn build(blocks: &[Arc<CsrMatrix<f32>>]) -> Result<Self, SparseFormatError> {
        if blocks.is_empty() {
            return Err(SparseFormatError::EmptyBatch);
        }
        let mut row_offsets = Vec::with_capacity(blocks.len() + 1);
        let mut col_offsets = Vec::with_capacity(blocks.len() + 1);
        let mut nnz_offsets = Vec::with_capacity(blocks.len() + 1);
        row_offsets.push(0);
        col_offsets.push(0);
        nnz_offsets.push(0);
        for b in blocks {
            row_offsets.push(row_offsets.last().unwrap() + b.rows());
            col_offsets.push(col_offsets.last().unwrap() + b.cols());
            nnz_offsets.push(nnz_offsets.last().unwrap() + b.nnz());
        }
        let matrix = if blocks.len() == 1 {
            Arc::clone(&blocks[0])
        } else {
            let (rows, cols, nnz) = (
                *row_offsets.last().unwrap(),
                *col_offsets.last().unwrap(),
                *nnz_offsets.last().unwrap(),
            );
            let mut row_ptr = Vec::with_capacity(rows + 1);
            let mut col_indices = Vec::with_capacity(nnz);
            let mut values = Vec::with_capacity(nnz);
            row_ptr.push(0);
            for (i, b) in blocks.iter().enumerate() {
                let (nnz_base, col_base) = (nnz_offsets[i], col_offsets[i]);
                row_ptr.extend(b.row_ptr()[1..].iter().map(|&p| nnz_base + p));
                col_indices.extend(b.col_indices().iter().map(|&c| col_base + c));
                values.extend_from_slice(b.values());
            }
            // Invariants hold by construction: each block's row pointer is
            // monotone and its rows sorted/in-bounds, and the per-block
            // offsets are strictly cumulative.
            Arc::new(CsrMatrix::from_parts_unchecked(
                rows,
                cols,
                row_ptr,
                col_indices,
                values,
            ))
        };
        Ok(Self {
            matrix,
            row_offsets,
            col_offsets,
            nnz_offsets,
        })
    }

    /// Number of constituent graphs.
    pub fn num_blocks(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// The packed block-diagonal matrix.
    pub fn matrix(&self) -> &Arc<CsrMatrix<f32>> {
        &self.matrix
    }

    /// Total packed rows.
    pub fn rows(&self) -> usize {
        *self.row_offsets.last().unwrap()
    }

    /// Total packed columns.
    pub fn cols(&self) -> usize {
        *self.col_offsets.last().unwrap()
    }

    /// Total packed non-zeros.
    pub fn nnz(&self) -> usize {
        *self.nnz_offsets.last().unwrap()
    }

    /// Row band of constituent `i` in the packed matrix.
    pub fn block_rows(&self, i: usize) -> std::ops::Range<usize> {
        self.row_offsets[i]..self.row_offsets[i + 1]
    }

    /// Column band of constituent `i` in the packed matrix.
    pub fn block_cols(&self, i: usize) -> std::ops::Range<usize> {
        self.col_offsets[i]..self.col_offsets[i + 1]
    }

    /// Non-zero range of constituent `i` in the packed arrays.
    pub fn block_nnz(&self, i: usize) -> std::ops::Range<usize> {
        self.nnz_offsets[i]..self.nnz_offsets[i + 1]
    }

    /// Vertically stacks per-constituent feature matrices into the
    /// packed input (block `i`'s features land in its column band's
    /// rows). All features must share a column count and each must have
    /// `block_cols(i).len()` rows.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] naming the first
    /// offending block's shape against the expected one.
    pub fn stack_features(
        &self,
        features: &[&DenseMatrix<f32>],
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        let dim = features.first().map_or(0, |f| f.cols());
        if features.len() != self.num_blocks() {
            return Err(SparseFormatError::ShapeMismatch {
                left: (self.num_blocks(), dim),
                right: (features.len(), dim),
            });
        }
        for (i, f) in features.iter().enumerate() {
            let want_rows = self.block_cols(i).len();
            if f.rows() != want_rows || f.cols() != dim {
                return Err(SparseFormatError::ShapeMismatch {
                    left: (want_rows, dim),
                    right: (f.rows(), f.cols()),
                });
            }
        }
        let mut stacked = DenseMatrix::zeros(self.cols(), dim);
        self.stack_into(features, &mut stacked);
        Ok(stacked)
    }

    /// [`stack_features`](Self::stack_features) into a caller-provided
    /// matrix — for callers that recycle their stacking buffer (the
    /// serving layer leases one from the engine arena every window).
    /// `stacked` must be `cols() × features[0].cols()`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] on any block shape
    /// mismatch (as [`stack_features`](Self::stack_features)) or when
    /// `stacked` itself has the wrong shape.
    pub fn stack_features_into(
        &self,
        features: &[&DenseMatrix<f32>],
        stacked: &mut DenseMatrix<f32>,
    ) -> Result<(), SparseFormatError> {
        let dim = features.first().map_or(0, |f| f.cols());
        if features.len() != self.num_blocks() {
            return Err(SparseFormatError::ShapeMismatch {
                left: (self.num_blocks(), dim),
                right: (features.len(), dim),
            });
        }
        for (i, f) in features.iter().enumerate() {
            let want_rows = self.block_cols(i).len();
            if f.rows() != want_rows || f.cols() != dim {
                return Err(SparseFormatError::ShapeMismatch {
                    left: (want_rows, dim),
                    right: (f.rows(), f.cols()),
                });
            }
        }
        if stacked.rows() != self.cols() || stacked.cols() != dim {
            return Err(SparseFormatError::ShapeMismatch {
                left: (self.cols(), dim),
                right: (stacked.rows(), stacked.cols()),
            });
        }
        self.stack_into(features, stacked);
        Ok(())
    }

    /// The copy behind both stacking entry points; shapes already
    /// validated.
    fn stack_into(&self, features: &[&DenseMatrix<f32>], stacked: &mut DenseMatrix<f32>) {
        let dim = stacked.cols();
        // Row-major storage makes each block a single contiguous copy.
        let out = stacked.as_mut_slice();
        for (i, f) in features.iter().enumerate() {
            let start = self.col_offsets[i] * dim;
            out[start..start + f.rows() * dim].copy_from_slice(f.as_slice());
        }
    }

    /// Copies constituent `i`'s result rows out of the packed output.
    ///
    /// # Panics
    ///
    /// Panics if `packed` has fewer rows than the pack or `i` is out of
    /// range.
    pub fn scatter_block(&self, packed: &DenseMatrix<f32>, i: usize) -> DenseMatrix<f32> {
        let band = self.block_rows(i);
        let dim = packed.cols();
        let mut out = DenseMatrix::zeros(band.len(), dim);
        let src = &packed.as_slice()[band.start * dim..band.end * dim];
        out.as_mut_slice().copy_from_slice(src);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri(rows: usize, cols: usize, t: &[(usize, usize, f32)]) -> Arc<CsrMatrix<f32>> {
        Arc::new(CsrMatrix::from_triplets(rows, cols, t).unwrap())
    }

    #[test]
    fn empty_batch_is_an_error() {
        assert_eq!(
            BlockDiagCsr::build(&[]).unwrap_err(),
            SparseFormatError::EmptyBatch
        );
    }

    #[test]
    fn single_block_is_zero_copy() {
        let a = tri(3, 3, &[(0, 1, 1.0), (2, 0, 2.0)]);
        let pack = BlockDiagCsr::build(std::slice::from_ref(&a)).unwrap();
        assert!(Arc::ptr_eq(pack.matrix(), &a));
        assert_eq!(pack.num_blocks(), 1);
        assert_eq!(pack.block_rows(0), 0..3);
        assert_eq!(pack.block_nnz(0), 0..2);
    }

    #[test]
    fn blocks_land_on_the_diagonal() {
        let a = tri(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let b = tri(3, 3, &[(0, 2, 3.0), (2, 0, 4.0)]);
        let empty = tri(2, 2, &[]);
        let pack = BlockDiagCsr::build(&[a, empty, b]).unwrap();
        assert_eq!(pack.rows(), 7);
        assert_eq!(pack.cols(), 7);
        assert_eq!(pack.nnz(), 4);
        assert_eq!(pack.block_rows(1), 2..4);
        assert_eq!(pack.block_nnz(1), 2..2);
        let m = pack.matrix();
        // b's (0, 2) entry lands at packed row 4, column 4 + 2 = 6.
        assert_eq!(m.row(4).cols, &[6]);
        assert_eq!(m.row(4).vals, &[3.0]);
        assert_eq!(m.row(6).cols, &[4]);
        // The packed matrix passes full validation.
        let (rows, cols, rp, ci, vals) = (**m).clone().into_raw_parts();
        CsrMatrix::new(rows, cols, rp, ci, vals).unwrap();
    }

    #[test]
    fn stack_then_scatter_roundtrips() {
        let a = tri(2, 2, &[(0, 0, 1.0)]);
        let b = tri(1, 3, &[(0, 1, 2.0)]);
        let pack = BlockDiagCsr::build(&[a, b]).unwrap();
        let fa = DenseMatrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32);
        let fb = DenseMatrix::from_fn(3, 4, |r, c| 100.0 + (r * 4 + c) as f32);
        let stacked = pack.stack_features(&[&fa, &fb]).unwrap();
        assert_eq!(stacked.rows(), 5);
        assert_eq!(stacked.row(0), fa.row(0));
        assert_eq!(stacked.row(2), fb.row(0));
        // Scatter on an arbitrary "output" recovers contiguous bands.
        let out = DenseMatrix::from_fn(pack.rows(), 4, |r, c| (r * 10 + c) as f32);
        let s1 = pack.scatter_block(&out, 1);
        assert_eq!(s1.rows(), 1);
        assert_eq!(s1.row(0), out.row(2));
    }

    #[test]
    fn stack_rejects_shape_mismatch() {
        let a = tri(2, 2, &[(0, 0, 1.0)]);
        let pack = BlockDiagCsr::build(&[Arc::clone(&a), a]).unwrap();
        let good = DenseMatrix::zeros(2, 4);
        let bad = DenseMatrix::zeros(3, 4);
        assert!(matches!(
            pack.stack_features(&[&good, &bad]),
            Err(SparseFormatError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            pack.stack_features(&[&good]),
            Err(SparseFormatError::ShapeMismatch { .. })
        ));
    }
}
