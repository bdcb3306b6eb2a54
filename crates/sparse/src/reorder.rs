//! Row/column reordering of sparse matrices.
//!
//! MergePath-SpMM pointedly requires "no preprocessing, reordering, or
//! extension of the sparse input matrix" (§I). The classic alternative for
//! taming evil rows *is* reordering — e.g. sorting rows by degree so
//! contiguous row chunks have comparable work. This module provides those
//! permutations so the repository can quantify what reordering buys a
//! row-splitting kernel and what it costs (the `ablation_reordering`
//! harness).

use crate::{CsrMatrix, SparseFormatError};

/// A permutation of `n` indices: `perm[new_index] = old_index`.
///
/// Constructed validated so applying it cannot fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<usize>,
    inverse: Vec<usize>,
}

impl Permutation {
    /// Validates and wraps a permutation vector (`perm[new] = old`).
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::RowOutOfBounds`] if any entry is out of
    /// range or duplicated.
    pub fn new(forward: Vec<usize>) -> Result<Self, SparseFormatError> {
        let n = forward.len();
        let mut inverse = vec![usize::MAX; n];
        for (new, &old) in forward.iter().enumerate() {
            if old >= n {
                return Err(SparseFormatError::RowOutOfBounds {
                    position: new,
                    row: old,
                    rows: n,
                });
            }
            if inverse[old] != usize::MAX {
                return Err(SparseFormatError::RowOutOfBounds {
                    position: new,
                    row: old,
                    rows: n,
                });
            }
            inverse[old] = new;
        }
        Ok(Self { forward, inverse })
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// `perm[new] = old` mapping.
    pub fn forward(&self) -> &[usize] {
        &self.forward
    }

    /// `inverse[old] = new` mapping.
    pub fn inverse(&self) -> &[usize] {
        &self.inverse
    }
}

/// Builds the permutation that sorts rows by descending length (degree),
/// ties broken by row index — the standard "sort rows by work" reordering.
pub fn degree_sort_permutation<T>(a: &CsrMatrix<T>) -> Permutation {
    let mut order: Vec<usize> = (0..a.rows()).collect();
    order.sort_by_key(|&r| (std::cmp::Reverse(a.row_nnz(r)), r));
    Permutation::new(order).expect("a sort of 0..n is a permutation")
}

/// Applies a row permutation: row `new` of the result is row
/// `perm.forward()[new]` of the input. Column indices are unchanged.
///
/// # Panics
///
/// Panics if `perm.len() != a.rows()`.
pub fn permute_rows<T: Copy>(a: &CsrMatrix<T>, perm: &Permutation) -> CsrMatrix<T> {
    assert_eq!(perm.len(), a.rows(), "permutation length must match rows");
    let mut row_ptr = Vec::with_capacity(a.rows() + 1);
    let mut col_indices = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    row_ptr.push(0usize);
    for &old in perm.forward() {
        let row = a.row(old);
        col_indices.extend_from_slice(row.cols);
        values.extend_from_slice(row.vals);
        row_ptr.push(col_indices.len());
    }
    CsrMatrix::new(a.rows(), a.cols(), row_ptr, col_indices, values)
        .expect("row permutation preserves CSR invariants")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f32> {
        // Row lengths 1, 3, 0, 2.
        CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 2, 1.0),
                (1, 0, 2.0),
                (1, 1, 3.0),
                (1, 3, 4.0),
                (3, 0, 5.0),
                (3, 2, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn permutation_validation() {
        assert!(Permutation::new(vec![2, 0, 1]).is_ok());
        assert!(Permutation::new(vec![0, 0, 1]).is_err(), "duplicate");
        assert!(Permutation::new(vec![0, 3]).is_err(), "out of range");
        let p = Permutation::new(vec![2, 0, 1]).unwrap();
        assert_eq!(p.inverse(), &[1, 2, 0]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn degree_sort_orders_rows_descending() {
        let a = sample();
        let p = degree_sort_permutation(&a);
        assert_eq!(p.forward(), &[1, 3, 0, 2]);
        let sorted = permute_rows(&a, &p);
        let lens: Vec<usize> = (0..4).map(|r| sorted.row_nnz(r)).collect();
        assert_eq!(lens, vec![3, 2, 1, 0]);
        // Values move with their rows.
        assert_eq!(sorted.row(0).vals, &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn row_permutation_preserves_dense_content() {
        let a = sample();
        let p = degree_sort_permutation(&a);
        let permuted = permute_rows(&a, &p);
        let (d, dp) = (a.to_dense(), permuted.to_dense());
        for new in 0..4 {
            let old = p.forward()[new];
            for c in 0..4 {
                assert_eq!(dp.get(new, c), d.get(old, c));
            }
        }
    }

    #[test]
    #[should_panic(expected = "permutation length must match rows")]
    fn wrong_length_panics() {
        let a = sample();
        let p = Permutation::new(vec![0, 1]).unwrap();
        let _ = permute_rows(&a, &p);
    }
}
