use std::error::Error;
use std::fmt;

/// Error returned when constructing a sparse matrix from invalid data.
///
/// Each variant identifies the precise structural violation so that callers
/// (and tests) can assert on the failure mode rather than on a message
/// string.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SparseFormatError {
    /// The row pointer array must have exactly `rows + 1` entries.
    RowPointerLength {
        /// Number of matrix rows.
        rows: usize,
        /// Observed length of the row pointer array.
        len: usize,
    },
    /// The row pointer array must start at zero.
    RowPointerStart {
        /// Observed first entry.
        first: usize,
    },
    /// The row pointer array must be non-decreasing.
    RowPointerNotMonotonic {
        /// First row index `i` where `row_ptr[i] > row_ptr[i + 1]`.
        row: usize,
    },
    /// The final row pointer entry must equal the number of stored values.
    RowPointerEnd {
        /// Observed final entry.
        last: usize,
        /// Number of stored non-zeros.
        nnz: usize,
    },
    /// Column index and value arrays must have the same length.
    IndexValueLength {
        /// Length of the column index array.
        indices: usize,
        /// Length of the value array.
        values: usize,
    },
    /// A column index is out of bounds.
    ColumnOutOfBounds {
        /// Offending non-zero position within the index array.
        position: usize,
        /// The out-of-range column index.
        column: usize,
        /// Number of matrix columns.
        cols: usize,
    },
    /// A row index is out of bounds (COO / triplet construction).
    RowOutOfBounds {
        /// Offending triplet position.
        position: usize,
        /// The out-of-range row index.
        row: usize,
        /// Number of matrix rows.
        rows: usize,
    },
    /// Column indices within a row must be strictly increasing
    /// (sorted, no duplicates).
    UnsortedRow {
        /// Row containing the violation.
        row: usize,
        /// Position in the index array where order breaks.
        position: usize,
    },
    /// A dense shape whose element count `rows * cols` overflows `usize`.
    ElementCountOverflow {
        /// Requested number of rows.
        rows: usize,
        /// Requested number of columns.
        cols: usize,
    },
    /// A batched operation was given zero constituents.
    EmptyBatch,
    /// Two matrices have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Shape of the left operand (rows, cols).
        left: (usize, usize),
        /// Shape of the right operand (rows, cols).
        right: (usize, usize),
    },
}

impl fmt::Display for SparseFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RowPointerLength { rows, len } => write!(
                f,
                "row pointer array has length {len} but must have length rows + 1 = {}",
                rows + 1
            ),
            Self::RowPointerStart { first } => {
                write!(f, "row pointer array starts at {first} but must start at 0")
            }
            Self::RowPointerNotMonotonic { row } => write!(
                f,
                "row pointer array decreases between rows {row} and {}",
                row + 1
            ),
            Self::RowPointerEnd { last, nnz } => write!(
                f,
                "final row pointer entry is {last} but {nnz} non-zeros are stored"
            ),
            Self::IndexValueLength { indices, values } => write!(
                f,
                "column index array has length {indices} but value array has length {values}"
            ),
            Self::ColumnOutOfBounds {
                position,
                column,
                cols,
            } => write!(
                f,
                "column index {column} at position {position} is out of bounds for {cols} columns"
            ),
            Self::RowOutOfBounds {
                position,
                row,
                rows,
            } => write!(
                f,
                "row index {row} at position {position} is out of bounds for {rows} rows"
            ),
            Self::UnsortedRow { row, position } => write!(
                f,
                "column indices of row {row} are not strictly increasing at position {position}"
            ),
            Self::ElementCountOverflow { rows, cols } => {
                write!(f, "a {rows}x{cols} matrix's element count overflows usize")
            }
            Self::EmptyBatch => {
                write!(f, "batched operation requires at least one constituent")
            }
            Self::ShapeMismatch { left, right } => write!(
                f,
                "shape mismatch: left operand is {}x{}, right operand is {}x{}",
                left.0, left.1, right.0, right.1
            ),
        }
    }
}

impl Error for SparseFormatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let err = SparseFormatError::RowPointerLength { rows: 3, len: 2 };
        let msg = err.to_string();
        assert!(msg.contains("length 2"));
        assert!(msg.contains('4'));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseFormatError>();
    }

    #[test]
    fn shape_mismatch_reports_both_shapes() {
        let err = SparseFormatError::ShapeMismatch {
            left: (2, 3),
            right: (4, 5),
        };
        let msg = err.to_string();
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));
    }
}
