use crate::SparseFormatError;

/// A sparse matrix in coordinate (COO / triplet) format.
///
/// COO is the natural output format of the graph generators: edges are
/// appended one at a time and converted into [`CsrMatrix`](crate::CsrMatrix)
/// once complete. Duplicate coordinates are rejected at
/// [`push`](Self::push) time so the conversion is infallible.
///
/// # Example
///
/// ```
/// use mpspmm_sparse::{CooMatrix, CsrMatrix};
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 1, 1.0f32)?;
/// coo.push(1, 0, 1.0)?;
/// let csr = CsrMatrix::from(coo);
/// assert_eq!(csr.nnz(), 2);
/// # Ok::<(), mpspmm_sparse::SparseFormatError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T> {
    rows: usize,
    cols: usize,
    triplets: Vec<(usize, usize, T)>,
    /// Occupancy bitmap would be O(rows*cols); instead we keep triplets
    /// unsorted and deduplicate lazily with a sorted shadow only in debug
    /// builds. For correctness we always check on push against a hash of
    /// occupied coordinates.
    occupied: std::collections::HashSet<(usize, usize)>,
}

impl<T> CooMatrix<T> {
    /// Creates an empty COO matrix with the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            triplets: Vec::new(),
            occupied: std::collections::HashSet::new(),
        }
    }

    /// Creates an empty COO matrix with capacity for `cap` entries.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        Self {
            rows,
            cols,
            triplets: Vec::with_capacity(cap),
            occupied: std::collections::HashSet::with_capacity(cap),
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

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.triplets.len()
    }

    /// Appends one entry.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinate is out of bounds or already
    /// occupied.
    pub fn push(&mut self, row: usize, col: usize, value: T) -> Result<(), SparseFormatError> {
        if row >= self.rows {
            return Err(SparseFormatError::RowOutOfBounds {
                position: self.triplets.len(),
                row,
                rows: self.rows,
            });
        }
        if col >= self.cols {
            return Err(SparseFormatError::ColumnOutOfBounds {
                position: self.triplets.len(),
                column: col,
                cols: self.cols,
            });
        }
        if !self.occupied.insert((row, col)) {
            return Err(SparseFormatError::UnsortedRow {
                row,
                position: self.triplets.len(),
            });
        }
        self.triplets.push((row, col, value));
        Ok(())
    }

    /// Whether the coordinate already holds an entry.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        self.occupied.contains(&(row, col))
    }

    /// Borrow the stored triplets in insertion order.
    pub fn triplets(&self) -> &[(usize, usize, T)] {
        &self.triplets
    }

    /// Consumes the matrix and returns `(rows, cols, triplets)`.
    pub fn into_raw_parts(self) -> (usize, usize, Vec<(usize, usize, T)>) {
        (self.rows, self.cols, self.triplets)
    }
}

impl<T: Copy> From<&crate::CsrMatrix<T>> for CooMatrix<T> {
    /// Expands a CSR matrix into its triplet view, in row-major order.
    /// Cannot fail: CSR invariants (bounds, sortedness, duplicate
    /// freedom) imply every [`push`](CooMatrix::push) precondition.
    fn from(csr: &crate::CsrMatrix<T>) -> Self {
        let mut coo = CooMatrix::with_capacity(csr.rows(), csr.cols(), csr.nnz());
        for row in csr.iter_rows() {
            for (&c, &v) in row.cols.iter().zip(row.vals) {
                coo.push(row.index, c, v)
                    .expect("CsrMatrix invariants guarantee valid triplets");
            }
        }
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrMatrix;

    #[test]
    fn push_and_convert() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(2, 0, 5.0f32).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        assert_eq!(coo.nnz(), 2);
        assert!(coo.contains(2, 0));
        assert!(!coo.contains(0, 0));
        let csr = CsrMatrix::from(coo);
        assert_eq!(csr.row(2).cols, &[0]);
    }

    #[test]
    fn rejects_duplicate() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0f32).unwrap();
        let err = coo.push(0, 0, 2.0).unwrap_err();
        assert!(matches!(err, SparseFormatError::UnsortedRow { row: 0, .. }));
        assert_eq!(coo.nnz(), 1);
    }

    #[test]
    fn rejects_out_of_bounds() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(coo.push(2, 0, 1.0f32).is_err());
        assert!(coo.push(0, 9, 1.0f32).is_err());
    }

    #[test]
    fn with_capacity_preallocates() {
        let coo = CooMatrix::<f32>::with_capacity(10, 10, 64);
        assert_eq!(coo.nnz(), 0);
        assert!(coo.triplets().is_empty());
    }

    #[test]
    fn csr_round_trip_via_coo_view() {
        let csr =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0f32), (1, 0, 2.0), (1, 2, 3.0)]).unwrap();
        let coo = CooMatrix::from(&csr);
        assert_eq!(
            coo.triplets(),
            &[(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0)],
            "triplets come out in row-major order"
        );
        assert_eq!(CsrMatrix::from(coo), csr);
    }
}
