//! Sparse and dense matrix substrate for the MergePath-SpMM reproduction.
//!
//! This crate provides the storage formats the paper's kernels operate on:
//!
//! * [`CsrMatrix`] — compressed sparse row, the format of the graph adjacency
//!   matrix `A`. The merge-path decomposition works directly on its row
//!   pointer (`RP`) and column index (`CP`) arrays.
//! * [`CooMatrix`] — coordinate triplets, used as a construction intermediate
//!   and by generators.
//! * [`DenseMatrix`] — row-major dense storage for the `XW` input and the
//!   `C` output of the SpMM kernel `C = A × XW`.
//! * [`stats`] — row-length (degree) statistics used to characterize the
//!   power-law inputs (Figure 1 / Table II of the paper).
//!
//! # Example
//!
//! ```
//! use mpspmm_sparse::{CsrMatrix, DenseMatrix};
//!
//! // A 3x3 adjacency matrix with 4 non-zeros.
//! let a = CsrMatrix::<f32>::from_triplets(
//!     3,
//!     3,
//!     &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
//! )?;
//! assert_eq!(a.nnz(), 4);
//! let dense = a.to_dense();
//! assert_eq!(dense.get(1, 2), 1.0);
//! # Ok::<(), mpspmm_sparse::SparseFormatError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block_diag;
mod coo;
mod csr;
mod dense;
mod error;
pub mod io;
pub mod reorder;
pub mod stats;

pub use block_diag::BlockDiagCsr;
pub use coo::CooMatrix;
pub use csr::{CsrMatrix, CsrRow, CsrRowIter};
pub use dense::DenseMatrix;
pub use error::SparseFormatError;

/// Index type used for row/column indices throughout the workspace.
///
/// The paper's largest evaluation graph (amazon0505) has ~5.5 M non-zeros,
/// comfortably within `u32`, but we use `usize` end-to-end for simplicity and
/// to avoid conversion noise in the algorithm code.
pub type Index = usize;
