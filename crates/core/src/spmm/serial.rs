//! Single-threaded reference kernel: the correctness oracle.

use mpspmm_sparse::CsrMatrix;

use crate::plan::{Flush, KernelPlan, Segment, ThreadPlan};

use super::SpmmKernel;

/// Serial row-by-row SpMM (Gustavson's row-wise dataflow on one thread).
///
/// # Example
///
/// ```
/// use mpspmm_core::{SerialSpmm, SpmmKernel};
/// use mpspmm_sparse::{CsrMatrix, DenseMatrix};
///
/// let a = CsrMatrix::from_triplets(2, 2, &[(1, 0, 3.0f32)])?;
/// let b = DenseMatrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
/// let (c, _) = SerialSpmm.spmm_sequential(&a, &b)?;
/// assert_eq!(c.get(1, 1), 3.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialSpmm;

impl SpmmKernel for SerialSpmm {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn plan(&self, a: &CsrMatrix<f32>, _dim: usize) -> KernelPlan {
        let rp = a.row_ptr();
        let segments = (0..a.rows())
            .filter(|&r| rp[r + 1] > rp[r])
            .map(|r| Segment {
                row: r,
                nz_start: rp[r],
                nz_end: rp[r + 1],
                flush: Flush::Regular,
            })
            .collect();
        KernelPlan {
            threads: vec![ThreadPlan { segments }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{check_kernel, dense_reference, random_dense, random_matrix};
    use super::*;

    #[test]
    fn matches_oracle() {
        for seed in 0..3 {
            let a = random_matrix(30, 30, 150, seed);
            check_kernel(&SerialSpmm, &a, 8);
        }
    }

    #[test]
    fn empty_matrix_yields_zero_output() {
        let a = CsrMatrix::<f32>::zeros(4, 4);
        let b = random_dense(4, 3, 1);
        let (c, _) = SerialSpmm.spmm_sequential(&a, &b).unwrap();
        assert_eq!(c.frobenius_norm(), 0.0);
    }

    #[test]
    fn identity_matrix_copies_input() {
        let triplets: Vec<(usize, usize, f32)> = (0..5).map(|i| (i, i, 1.0)).collect();
        let a = CsrMatrix::from_triplets(5, 5, &triplets).unwrap();
        let b = random_dense(5, 4, 2);
        let (c, _) = SerialSpmm.spmm_sequential(&a, &b).unwrap();
        assert!(c.approx_eq(&b, 1e-7).unwrap());
        assert!(c.approx_eq(&dense_reference(&a, &b), 1e-7).unwrap());
    }
}
