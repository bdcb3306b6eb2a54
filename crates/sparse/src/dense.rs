use crate::SparseFormatError;

/// A dense matrix in row-major storage.
///
/// This is the format of the `XW` operand and the `C` output of the SpMM
/// kernel `C = A × XW`. Rows are contiguous so a kernel thread touching
/// `XW[j, :]` streams one cache-friendly slice — the same layout the paper's
/// GPU kernels assume.
///
/// # Example
///
/// ```
/// use mpspmm_sparse::DenseMatrix;
///
/// let mut m = DenseMatrix::zeros(2, 3);
/// m.set(1, 2, 7.0);
/// assert_eq!(m.row(1), &[0.0, 0.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// `rows * cols`, or [`SparseFormatError::ElementCountOverflow`] when the
/// product does not fit in `usize`.
fn element_count(rows: usize, cols: usize) -> Result<usize, SparseFormatError> {
    rows.checked_mul(cols)
        .ok_or(SparseFormatError::ElementCountOverflow { rows, cols })
}

impl<T: Copy + Default> DenseMatrix<T> {
    /// Creates a matrix filled with `T::default()` (zero for numbers).
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::default(); element_count(rows, cols).unwrap_or_else(|e| panic!("{e}"))],
        }
    }
}

impl<T: Copy> DenseMatrix<T> {
    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ElementCountOverflow`] if
    /// `rows * cols` overflows `usize`, and
    /// [`SparseFormatError::IndexValueLength`] if
    /// `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, SparseFormatError> {
        let len = element_count(rows, cols)?;
        if data.len() != len {
            return Err(SparseFormatError::IndexValueLength {
                indices: len,
                values: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data =
            Vec::with_capacity(element_count(rows, cols).unwrap_or_else(|e| panic!("{e}")));
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the "dimension size" `d` of the paper).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> T {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `row` as a slice of length `cols`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrows row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_mut(&mut self, row: usize) -> &mut [T] {
        assert!(row < self.rows, "row out of bounds");
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The full row-major backing slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the full row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major data vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl DenseMatrix<f32> {
    /// Maximum absolute element-wise difference to another matrix.
    ///
    /// Non-finite values count: a position where exactly one side is NaN,
    /// or the sides are opposite infinities, differs by `+∞`. Equal
    /// elements (including equal infinities) and NaN on both sides differ
    /// by 0.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> Result<f32, SparseFormatError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(SparseFormatError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let diff = |a: f32, b: f32| {
            if a == b || (a.is_nan() && b.is_nan()) {
                0.0
            } else {
                // NaN here means exactly one side is NaN.
                let d = (a - b).abs();
                if d.is_nan() {
                    f32::INFINITY
                } else {
                    d
                }
            }
        };
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| diff(a, b))
            .fold(0.0, f32::max))
    }

    /// Whether every element differs from `other` by at most `tol`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if shapes differ.
    pub fn approx_eq(&self, other: &Self, tol: f32) -> Result<bool, SparseFormatError> {
        Ok(self.max_abs_diff(other)? <= tol)
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut m = DenseMatrix::<f32>::zeros(2, 2);
        assert_eq!(m.get(0, 0), 0.0);
        m.set(0, 1, 4.0);
        assert_eq!(m.get(0, 1), 4.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0f32; 3]).is_err());
        let m = DenseMatrix::from_vec(2, 2, vec![1.0f32, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn from_vec_rejects_overflowing_element_count() {
        // 16 × 2^60 wraps to 0 elements in unchecked release arithmetic.
        assert_eq!(
            DenseMatrix::<f32>::from_vec(16, 1 << 60, vec![]),
            Err(SparseFormatError::ElementCountOverflow {
                rows: 16,
                cols: 1 << 60
            })
        );
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn zeros_panics_on_overflowing_element_count() {
        let _ = DenseMatrix::<f32>::zeros(16, 1 << 60);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn from_fn_panics_on_overflowing_element_count() {
        let _ = DenseMatrix::from_fn(16, 1 << 60, |_, _| 0.0f32);
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = DenseMatrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.as_slice()[2], 2.0);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = DenseMatrix::<f32>::zeros(2, 2);
        m.row_mut(1)[0] = 9.0;
        assert_eq!(m.get(1, 0), 9.0);
    }

    #[test]
    fn max_abs_diff_and_approx_eq() {
        let a = DenseMatrix::from_vec(1, 2, vec![1.0f32, 2.0]).unwrap();
        let b = DenseMatrix::from_vec(1, 2, vec![1.0f32, 2.5]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
        assert!(a.approx_eq(&b, 0.5).unwrap());
        assert!(!a.approx_eq(&b, 0.4).unwrap());
    }

    #[test]
    fn max_abs_diff_counts_non_finite_mismatches() {
        let m = |v: f32| DenseMatrix::from_vec(1, 2, vec![0.5f32, v]).unwrap();
        // NaN on one side only: infinitely different, so approx_eq fails.
        assert_eq!(m(f32::NAN).max_abs_diff(&m(1.0)).unwrap(), f32::INFINITY);
        assert_eq!(m(1.0).max_abs_diff(&m(f32::NAN)).unwrap(), f32::INFINITY);
        assert!(!m(f32::NAN).approx_eq(&m(1.0), 1e3).unwrap());
        // NaN on both sides agrees.
        assert_eq!(m(f32::NAN).max_abs_diff(&m(f32::NAN)).unwrap(), 0.0);
        // Opposite infinities differ infinitely; equal ones agree.
        let inf = f32::INFINITY;
        assert_eq!(m(inf).max_abs_diff(&m(-inf)).unwrap(), inf);
        assert_eq!(m(inf).max_abs_diff(&m(inf)).unwrap(), 0.0);
        assert_eq!(m(-inf).max_abs_diff(&m(-inf)).unwrap(), 0.0);
        // Signed zeros are equal values.
        assert_eq!(m(-0.0).max_abs_diff(&m(0.0)).unwrap(), 0.0);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = DenseMatrix::<f32>::zeros(1, 2);
        let b = DenseMatrix::<f32>::zeros(2, 1);
        assert!(a.max_abs_diff(&b).is_err());
    }

    #[test]
    fn frobenius_norm() {
        let m = DenseMatrix::from_vec(1, 2, vec![3.0f32, 4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = DenseMatrix::<f32>::zeros(1, 1);
        let _ = m.get(1, 0);
    }
}
