//! GCN preprocessing of adjacency matrices.
//!
//! A GCN layer computes `σ(Â · X · W)` where `Â = D^{-1/2}(A + I)D^{-1/2}`
//! is the symmetrically normalized adjacency matrix with self loops
//! (Kipf & Welling). The SpMM kernels under study are agnostic to the
//! values, but the GCN examples and the Figure 8 online-inference scenario
//! use properly normalized operands.

use mpspmm_sparse::CsrMatrix;

/// Returns `A + I`: the adjacency matrix with self loops added.
///
/// Rows that already contain a diagonal entry keep it (the value is left
/// unchanged); all other rows get a diagonal entry of `1.0`.
pub fn add_self_loops(a: &CsrMatrix<f32>) -> CsrMatrix<f32> {
    assert_eq!(a.rows(), a.cols(), "adjacency matrix must be square");
    let n = a.rows();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_indices = Vec::with_capacity(a.nnz() + n);
    let mut values = Vec::with_capacity(a.nnz() + n);
    row_ptr.push(0usize);
    for r in 0..n {
        let row = a.row(r);
        let mut inserted = false;
        for (&c, &v) in row.cols.iter().zip(row.vals) {
            if !inserted && c > r {
                col_indices.push(r);
                values.push(1.0);
                inserted = true;
            }
            col_indices.push(c);
            values.push(v);
            if c == r {
                inserted = true;
            }
        }
        if !inserted {
            col_indices.push(r);
            values.push(1.0);
        }
        row_ptr.push(col_indices.len());
    }
    CsrMatrix::new(n, n, row_ptr, col_indices, values)
        .expect("self-loop insertion preserves CSR invariants")
}

/// Computes the symmetric GCN normalization `Â = D^{-1/2}(A + I)D^{-1/2}`,
/// where `D` is the degree matrix of `A + I` (row sums of the 0/1 pattern).
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn gcn_normalize(a: &CsrMatrix<f32>) -> CsrMatrix<f32> {
    let with_loops = add_self_loops(a);
    let n = with_loops.rows();
    let inv_sqrt_deg: Vec<f32> = (0..n)
        .map(|r| {
            let d = with_loops.row_nnz(r) as f32;
            1.0 / d.sqrt()
        })
        .collect();
    let (rows, cols, row_ptr, col_indices, mut values) = with_loops.into_raw_parts();
    let mut k = 0usize;
    for r in 0..rows {
        while k < row_ptr[r + 1] {
            values[k] *= inv_sqrt_deg[r] * inv_sqrt_deg[col_indices[k]];
            k += 1;
        }
    }
    CsrMatrix::new(rows, cols, row_ptr, col_indices, values)
        .expect("rescaling values preserves CSR invariants")
}

/// Computes the row-normalized aggregation operator `D^{-1}(A + I)` used
/// by mean-aggregator GNNs (GraphSAGE-mean): each node averages itself
/// with its neighbours.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn mean_normalize(a: &CsrMatrix<f32>) -> CsrMatrix<f32> {
    let with_loops = add_self_loops(a);
    let n = with_loops.rows();
    let inv_deg: Vec<f32> = (0..n).map(|r| 1.0 / with_loops.row_nnz(r) as f32).collect();
    let (rows, cols, row_ptr, col_indices, mut values) = with_loops.into_raw_parts();
    let mut k = 0usize;
    for r in 0..rows {
        while k < row_ptr[r + 1] {
            values[k] *= inv_deg[r];
            k += 1;
        }
    }
    CsrMatrix::new(rows, cols, row_ptr, col_indices, values)
        .expect("rescaling values preserves CSR invariants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpspmm_sparse::CsrMatrix;

    fn path3() -> CsrMatrix<f32> {
        // 0 - 1 - 2 undirected path.
        CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
            .unwrap()
    }

    #[test]
    fn self_loops_added_once() {
        let a = path3();
        let al = add_self_loops(&a);
        assert_eq!(al.nnz(), a.nnz() + 3);
        for r in 0..3 {
            assert!(al.row(r).cols.contains(&r), "row {r} missing diagonal");
        }
        // Idempotent on the pattern: adding again must keep diagonal unique.
        let al2 = add_self_loops(&al);
        assert_eq!(al2.nnz(), al.nnz());
    }

    #[test]
    fn self_loop_insertion_keeps_sorted_columns() {
        let a = CsrMatrix::from_triplets(3, 3, &[(1, 0, 1.0), (1, 2, 1.0)]).unwrap();
        let al = add_self_loops(&a);
        assert_eq!(al.row(1).cols, &[0, 1, 2]);
        assert_eq!(al.row(0).cols, &[0]);
    }

    #[test]
    fn normalization_values_match_formula() {
        let a = path3();
        let norm = gcn_normalize(&a);
        // Degrees with self loops: d0 = 2, d1 = 3, d2 = 2.
        let expect_01 = 1.0 / (2.0f32 * 3.0).sqrt();
        let expect_11 = 1.0 / 3.0;
        let d = norm.to_dense();
        assert!((d.get(0, 1) - expect_01).abs() < 1e-6);
        assert!((d.get(1, 1) - expect_11).abs() < 1e-6);
        assert!((d.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn normalized_matrix_is_symmetric_for_symmetric_input() {
        let norm = gcn_normalize(&path3());
        assert!(norm.is_symmetric());
    }

    #[test]
    fn mean_normalize_rows_sum_to_one() {
        let m = mean_normalize(&path3());
        for r in 0..m.rows() {
            let s: f32 = m.row(r).vals.iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
        }
        // Node 1 has degree 3 with the self loop: every weight is 1/3.
        assert!(m.row(1).vals.iter().all(|&v| (v - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn normalized_values_lie_in_unit_interval() {
        // Every entry is 1/sqrt(d_i d_j) with d ≥ 1, hence in (0, 1].
        let norm = gcn_normalize(&path3());
        for &v in norm.values() {
            assert!(v > 0.0 && v <= 1.0, "value {v} outside (0, 1]");
        }
        // A d-regular graph with self loops has constant row sums of
        // exactly 1: check on a 4-cycle (degree 2 + self loop = 3).
        let cycle = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (3, 0, 1.0),
                (0, 3, 1.0),
            ],
        )
        .unwrap();
        let norm = gcn_normalize(&cycle);
        for r in 0..norm.rows() {
            let s: f32 = norm.row(r).vals.iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
        }
    }
}
