use crate::{CooMatrix, DenseMatrix, SparseFormatError};

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// CSR is the format the paper's kernels consume directly: the *row pointer*
/// array (`RP` in the paper, [`row_ptr`](Self::row_ptr) here) encodes where
/// each row starts inside the *column index* array (`CP`,
/// [`col_indices`](Self::col_indices)) and the parallel value array.
///
/// # Invariants
///
/// Maintained by every constructor and relied upon by the kernels:
///
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[rows] == nnz`, and `row_ptr` is non-decreasing;
/// * `col_indices.len() == values.len() == nnz`;
/// * every column index is `< cols`;
/// * column indices within each row are strictly increasing (sorted,
///   duplicate-free).
///
/// # Example
///
/// ```
/// use mpspmm_sparse::CsrMatrix;
///
/// let m = CsrMatrix::<f32>::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)])?;
/// assert_eq!(m.row(0).cols, &[0]);
/// assert_eq!(m.row(1).vals, &[3.0]);
/// # Ok::<(), mpspmm_sparse::SparseFormatError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<T>,
}

impl<T> CsrMatrix<T> {
    /// Creates a CSR matrix from raw arrays, validating every invariant.
    ///
    /// # Errors
    ///
    /// Returns a [`SparseFormatError`] describing the first violated
    /// invariant (row pointer shape/monotonicity, index/value length
    /// mismatch, out-of-bounds column, or unsorted row).
    pub fn new(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_indices: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self, SparseFormatError> {
        validate_parts(rows, cols, &row_ptr, &col_indices, values.len())?;
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_indices,
            values,
        })
    }

    /// Creates a CSR matrix from raw arrays **without** release-mode
    /// validation.
    ///
    /// Crate-private: its one caller is block-diagonal assembly
    /// ([`BlockDiagCsr::build`](crate::BlockDiagCsr::build)), which
    /// concatenates already-validated blocks with cumulative row and
    /// column offsets, so the invariants hold by construction and
    /// re-running the O(nnz) checks of [`CsrMatrix::new`] on every packed
    /// window would only repeat them. Code outside this crate cannot build
    /// an unvalidated CSR.
    ///
    /// Every invariant is still asserted in debug builds, so the tier-1
    /// debug test legs exercise all callers under full validation. This
    /// function is *not* `unsafe`: violating the contract in release
    /// cannot break memory safety (this crate forbids `unsafe` and all
    /// consumers index through bounds-checked slices) — it produces
    /// wrong results or downstream panics instead.
    pub(crate) fn from_parts_unchecked(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_indices: Vec<usize>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(
            validate_parts(rows, cols, &row_ptr, &col_indices, values.len()),
            Ok(()),
            "from_parts_unchecked caller violated a CSR invariant"
        );
        Self {
            rows,
            cols,
            row_ptr,
            col_indices,
            values,
        }
    }

    /// Creates an empty (all-zero) matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row pointer array (`RP` in the paper), of length `rows + 1`.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column index array (`CP` in the paper), of length `nnz`.
    pub fn col_indices(&self) -> &[usize] {
        &self.col_indices
    }

    /// The stored values, of length `nnz`.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Number of non-zeros in row `row` (its degree for adjacency matrices).
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_nnz(&self, row: usize) -> usize {
        self.row_ptr[row + 1] - self.row_ptr[row]
    }

    /// A view of row `row`: its column indices and values.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> CsrRow<'_, T> {
        let (start, end) = (self.row_ptr[row], self.row_ptr[row + 1]);
        CsrRow {
            index: row,
            cols: &self.col_indices[start..end],
            vals: &self.values[start..end],
        }
    }

    /// Iterates over all rows in order.
    pub fn iter_rows(&self) -> CsrRowIter<'_, T> {
        CsrRowIter {
            matrix: self,
            next: 0,
        }
    }

    /// The length of the merge path for this matrix: `rows + nnz`.
    ///
    /// This is `merge_items` in Algorithm 1 of the paper — the total amount
    /// of "work" (consuming a row terminator or a non-zero) that merge-path
    /// partitions equitably among threads.
    pub fn merge_items(&self) -> usize {
        self.rows + self.nnz()
    }

    /// Row lengths (degrees) as a vector; convenience for statistics.
    pub fn row_lengths(&self) -> Vec<usize> {
        (0..self.rows).map(|r| self.row_nnz(r)).collect()
    }

    /// FNV-1a hash of the sparsity *structure* — shape, row pointer, and
    /// column indices, but **not** the stored values.
    ///
    /// Two matrices with the same structure hash (and, outside hash
    /// collisions, only those) admit the same merge-path plan: planning
    /// reads only `row_ptr`/`col_indices`, so a value-only update (edge
    /// re-weighting, GCN renormalization) keeps every prepared plan
    /// valid.
    pub fn structure_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |word: u64| {
            h ^= word;
            h = h.wrapping_mul(FNV_PRIME);
        };
        mix(self.rows as u64);
        mix(self.cols as u64);
        for &p in &self.row_ptr {
            mix(p as u64);
        }
        for &c in &self.col_indices {
            mix(c as u64);
        }
        h
    }

    /// Consumes the matrix and returns its raw parts
    /// `(rows, cols, row_ptr, col_indices, values)`.
    pub fn into_raw_parts(self) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<T>) {
        (
            self.rows,
            self.cols,
            self.row_ptr,
            self.col_indices,
            self.values,
        )
    }
}

/// Checks every CSR invariant over borrowed arrays; shared by
/// [`CsrMatrix::new`] (release path) and the debug assertion of
/// [`CsrMatrix::from_parts_unchecked`].
fn validate_parts(
    rows: usize,
    cols: usize,
    row_ptr: &[usize],
    col_indices: &[usize],
    values_len: usize,
) -> Result<(), SparseFormatError> {
    if row_ptr.len() != rows + 1 {
        return Err(SparseFormatError::RowPointerLength {
            rows,
            len: row_ptr.len(),
        });
    }
    if row_ptr[0] != 0 {
        return Err(SparseFormatError::RowPointerStart { first: row_ptr[0] });
    }
    for i in 0..rows {
        if row_ptr[i] > row_ptr[i + 1] {
            return Err(SparseFormatError::RowPointerNotMonotonic { row: i });
        }
    }
    if col_indices.len() != values_len {
        return Err(SparseFormatError::IndexValueLength {
            indices: col_indices.len(),
            values: values_len,
        });
    }
    if row_ptr[rows] != values_len {
        return Err(SparseFormatError::RowPointerEnd {
            last: row_ptr[rows],
            nnz: values_len,
        });
    }
    for (position, &c) in col_indices.iter().enumerate() {
        if c >= cols {
            return Err(SparseFormatError::ColumnOutOfBounds {
                position,
                column: c,
                cols,
            });
        }
    }
    for row in 0..rows {
        let (start, end) = (row_ptr[row], row_ptr[row + 1]);
        for k in start + 1..end {
            if col_indices[k - 1] >= col_indices[k] {
                return Err(SparseFormatError::UnsortedRow { row, position: k });
            }
        }
    }
    Ok(())
}

impl<T: Copy> CsrMatrix<T> {
    /// Builds a CSR matrix from unsorted `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are rejected (the generators never produce
    /// them; accepting silently-summed duplicates would mask generator
    /// bugs).
    ///
    /// # Errors
    ///
    /// Returns an error if any coordinate is out of bounds or duplicated.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, T)],
    ) -> Result<Self, SparseFormatError> {
        for (position, &(r, c, _)) in triplets.iter().enumerate() {
            if r >= rows {
                return Err(SparseFormatError::RowOutOfBounds {
                    position,
                    row: r,
                    rows,
                });
            }
            if c >= cols {
                return Err(SparseFormatError::ColumnOutOfBounds {
                    position,
                    column: c,
                    cols,
                });
            }
        }
        let mut sorted: Vec<(usize, usize, T)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        for (k, w) in sorted.windows(2).enumerate() {
            if w[0].0 == w[1].0 && w[0].1 == w[1].1 {
                return Err(SparseFormatError::UnsortedRow {
                    row: w[0].0,
                    position: k + 1,
                });
            }
        }
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in &sorted {
            row_ptr[r + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_indices = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        for (_, c, v) in sorted {
            col_indices.push(c);
            values.push(v);
        }
        Self::new(rows, cols, row_ptr, col_indices, values)
    }

    /// Builds a CSR matrix from per-row `(col, value)` lists whose
    /// columns are already strictly increasing — the natural shape of
    /// row-wise builders and hand-written test fixtures.
    ///
    /// Fully validated: delegates to [`CsrMatrix::new`], so an unsorted
    /// or out-of-bounds row is reported with its exact position instead
    /// of being accepted silently.
    ///
    /// # Errors
    ///
    /// Returns a [`SparseFormatError`] when any row's columns are
    /// unsorted, duplicated, or `>= cols`.
    pub fn from_sorted_rows(
        cols: usize,
        rows: &[Vec<(usize, T)>],
    ) -> Result<Self, SparseFormatError> {
        let nnz: usize = rows.iter().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for row in rows {
            for &(c, v) in row {
                col_indices.push(c);
                values.push(v);
            }
            row_ptr.push(col_indices.len());
        }
        Self::new(rows.len(), cols, row_ptr, col_indices, values)
    }

    /// Returns the transpose of this matrix.
    pub fn transpose(&self) -> CsrMatrix<T> {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_indices {
            counts[c + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut cursor = counts;
        let mut col_indices = vec![0usize; self.nnz()];
        let mut values = self.values.clone();
        for row in 0..self.rows {
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                let c = self.col_indices[k];
                let dst = cursor[c];
                col_indices[dst] = row;
                values[dst] = self.values[k];
                cursor[c] += 1;
            }
        }
        // Rows of the transpose are sorted because we scanned source rows in
        // increasing order.
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_indices,
            values,
        }
    }

    /// Whether the sparsity pattern and values are symmetric
    /// (`A == A^T`, requires a square matrix).
    pub fn is_symmetric(&self) -> bool
    where
        T: PartialEq,
    {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        self.row_ptr == t.row_ptr && self.col_indices == t.col_indices && self.values == t.values
    }
}

impl CsrMatrix<f32> {
    /// Converts to a dense matrix (for small matrices / tests).
    pub fn to_dense(&self) -> DenseMatrix<f32> {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for row in 0..self.rows {
            let r = self.row(row);
            for (&c, &v) in r.cols.iter().zip(r.vals) {
                d.set(row, c, v);
            }
        }
        d
    }

    /// Builds a CSR matrix from a dense matrix, storing exact non-zeros.
    pub fn from_dense(dense: &DenseMatrix<f32>) -> Self {
        let mut row_ptr = Vec::with_capacity(dense.rows() + 1);
        let mut col_indices = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..dense.rows() {
            for c in 0..dense.cols() {
                let v = dense.get(r, c);
                if v != 0.0 {
                    col_indices.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_indices.len());
        }
        Self {
            rows: dense.rows(),
            cols: dense.cols(),
            row_ptr,
            col_indices,
            values,
        }
    }
}

impl<T: Copy> From<CooMatrix<T>> for CsrMatrix<T> {
    /// Converts validated COO data; cannot fail because [`CooMatrix`]
    /// enforces bounds and duplicate-freedom at construction.
    fn from(coo: CooMatrix<T>) -> Self {
        let (rows, cols, triplets) = coo.into_raw_parts();
        CsrMatrix::from_triplets(rows, cols, &triplets)
            .expect("CooMatrix invariants guarantee valid triplets")
    }
}

/// A borrowed view of one CSR row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsrRow<'a, T> {
    /// Row index within the parent matrix.
    pub index: usize,
    /// Column indices of the row's non-zeros (strictly increasing).
    pub cols: &'a [usize],
    /// Values of the row's non-zeros, parallel to `cols`.
    pub vals: &'a [T],
}

impl<'a, T> CsrRow<'a, T> {
    /// Number of non-zeros in this row.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }
}

/// Iterator over the rows of a [`CsrMatrix`], produced by
/// [`CsrMatrix::iter_rows`].
#[derive(Debug, Clone)]
pub struct CsrRowIter<'a, T> {
    matrix: &'a CsrMatrix<T>,
    next: usize,
}

impl<'a, T> Iterator for CsrRowIter<'a, T> {
    type Item = CsrRow<'a, T>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.matrix.rows() {
            return None;
        }
        let row = self.matrix.row(self.next);
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.matrix.rows() - self.next;
        (rem, Some(rem))
    }
}

impl<'a, T> ExactSizeIterator for CsrRowIter<'a, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f32> {
        // 0: [., 1, .]
        // 1: [2, ., 3]
        // 2: [., ., .]
        CsrMatrix::new(3, 3, vec![0, 1, 3, 3], vec![1, 0, 2], vec![1.0, 2.0, 3.0]).unwrap()
    }

    #[test]
    fn valid_construction() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.merge_items(), 6);
        assert_eq!(m.row_nnz(0), 1);
        assert_eq!(m.row_nnz(2), 0);
    }

    #[test]
    fn rejects_bad_row_ptr_length() {
        let err = CsrMatrix::<f32>::new(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert_eq!(err, SparseFormatError::RowPointerLength { rows: 2, len: 2 });
    }

    #[test]
    fn rejects_nonzero_start() {
        let err = CsrMatrix::<f32>::new(1, 2, vec![1, 1], vec![], vec![]).unwrap_err();
        assert_eq!(err, SparseFormatError::RowPointerStart { first: 1 });
    }

    #[test]
    fn rejects_decreasing_row_ptr() {
        let err = CsrMatrix::<f32>::new(2, 2, vec![0, 1, 0], vec![0], vec![1.0]).unwrap_err();
        assert_eq!(err, SparseFormatError::RowPointerNotMonotonic { row: 1 });
    }

    #[test]
    fn rejects_row_ptr_end_mismatch() {
        let err = CsrMatrix::<f32>::new(1, 2, vec![0, 2], vec![0], vec![1.0]).unwrap_err();
        assert_eq!(err, SparseFormatError::RowPointerEnd { last: 2, nnz: 1 });
    }

    #[test]
    fn rejects_index_value_length_mismatch() {
        let err = CsrMatrix::<f32>::new(1, 2, vec![0, 1], vec![0, 1], vec![1.0]).unwrap_err();
        assert_eq!(
            err,
            SparseFormatError::IndexValueLength {
                indices: 2,
                values: 1
            }
        );
    }

    #[test]
    fn rejects_column_out_of_bounds() {
        let err = CsrMatrix::<f32>::new(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert_eq!(
            err,
            SparseFormatError::ColumnOutOfBounds {
                position: 0,
                column: 5,
                cols: 2
            }
        );
    }

    #[test]
    fn rejects_unsorted_row() {
        let err = CsrMatrix::<f32>::new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(
            err,
            SparseFormatError::UnsortedRow {
                row: 0,
                position: 1
            }
        );
    }

    #[test]
    fn rejects_duplicate_column_in_row() {
        let err = CsrMatrix::<f32>::new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).unwrap_err();
        assert_eq!(
            err,
            SparseFormatError::UnsortedRow {
                row: 0,
                position: 1
            }
        );
    }

    #[test]
    fn from_parts_unchecked_round_trips_valid_parts() {
        let m = sample();
        let (rows, cols, rp, ci, vals) = m.clone().into_raw_parts();
        let back = CsrMatrix::from_parts_unchecked(rows, cols, rp, ci, vals);
        assert_eq!(m, back);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "violated a CSR invariant")]
    fn from_parts_unchecked_asserts_in_debug() {
        // Unsorted row: caught by the debug assertion, silently wrong in
        // release (the documented contract).
        let _ = CsrMatrix::from_parts_unchecked(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
    }

    #[test]
    fn from_sorted_rows_builds_and_validates() {
        let m = CsrMatrix::from_sorted_rows(
            3,
            &[vec![(1, 1.0f32)], vec![(0, 2.0), (2, 3.0)], Vec::new()],
        )
        .unwrap();
        assert_eq!(m, sample());
        let err = CsrMatrix::from_sorted_rows(3, &[vec![(2, 1.0f32), (0, 2.0)]]).unwrap_err();
        assert_eq!(
            err,
            SparseFormatError::UnsortedRow {
                row: 0,
                position: 1
            }
        );
        let err = CsrMatrix::from_sorted_rows(2, &[vec![(5, 1.0f32)]]).unwrap_err();
        assert!(matches!(err, SparseFormatError::ColumnOutOfBounds { .. }));
    }

    #[test]
    fn from_triplets_sorts_and_matches_dense() {
        let m = CsrMatrix::<f32>::from_triplets(2, 3, &[(1, 2, 3.0), (0, 1, 1.0), (1, 0, 2.0)])
            .unwrap();
        assert_eq!(m.row(1).cols, &[0, 2]);
        assert_eq!(m.row(1).vals, &[2.0, 3.0]);
    }

    #[test]
    fn from_triplets_rejects_duplicates() {
        let err = CsrMatrix::<f32>::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0)]).unwrap_err();
        assert!(matches!(err, SparseFormatError::UnsortedRow { row: 0, .. }));
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds_row() {
        let err = CsrMatrix::<f32>::from_triplets(2, 2, &[(7, 0, 1.0)]).unwrap_err();
        assert!(matches!(
            err,
            SparseFormatError::RowOutOfBounds { row: 7, .. }
        ));
    }

    #[test]
    fn empty_triplets_give_zero_matrix() {
        let m = CsrMatrix::<f32>::from_triplets(3, 4, &[]).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.row_ptr(), &[0, 0, 0, 0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn transpose_moves_entries() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.row(0).cols, &[1]);
        assert_eq!(t.row(0).vals, &[2.0]);
        assert_eq!(t.row(2).cols, &[1]);
    }

    #[test]
    fn symmetry_detection() {
        let sym = CsrMatrix::<f32>::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(sym.is_symmetric());
        let asym = CsrMatrix::<f32>::from_triplets(2, 2, &[(0, 1, 1.0)]).unwrap();
        assert!(!asym.is_symmetric());
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        let back = CsrMatrix::from_dense(&m.to_dense());
        assert_eq!(m, back);
    }

    #[test]
    fn row_iterator_visits_all_rows() {
        let m = sample();
        let lens: Vec<usize> = m.iter_rows().map(|r| r.nnz()).collect();
        assert_eq!(lens, vec![1, 2, 0]);
        assert_eq!(m.iter_rows().len(), 3);
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CsrMatrix::<f32>::zeros(4, 4);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.merge_items(), 4);
    }

    #[test]
    fn io_round_trip() {
        // Persistence goes through the self-contained binary format in
        // `io` (the workspace carries no serialization dependency).
        let m = sample();
        let mut buf = Vec::new();
        crate::io::write_csr(&mut buf, &m).unwrap();
        let back = crate::io::read_csr(buf.as_slice()).unwrap();
        assert_eq!(m, back);
    }
}
