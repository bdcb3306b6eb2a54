//! Facade crate for the MergePath-SpMM reproduction.
//!
//! Re-exports every sub-crate of the workspace under one roof so examples,
//! integration tests, and downstream users can depend on a single crate:
//!
//! * [`sparse`] — CSR/COO/dense matrix substrate.
//! * [`graphs`] — synthetic evaluation graphs (paper Table II).
//! * [`core`] — the MergePath-SpMM algorithm and the software baselines.
//! * [`simt`] — GPU (SIMT) machine model, AWB-GCN and vendor-library models.
//! * [`multicore`] — Graphite-like 1000-core multicore simulator (Table I).
//! * [`gcn`] — graph convolutional network substrate.
//! * [`serve`] — batched multi-tenant inference serving layer over the
//!   execution engine (graph registry, coalescing scheduler, admission
//!   control, serving stats).
//!
//! # Quickstart
//!
//! ```
//! use merge_path_spmm::sparse::{CsrMatrix, DenseMatrix};
//! use merge_path_spmm::{Epilogue, ExecEngine};
//!
//! let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0f32), (1, 0, 2.0)])?;
//! let xw = DenseMatrix::from_fn(2, 4, |r, c| (r + c) as f32);
//! let c = ExecEngine::global().spmm(&a, &[&xw], &Epilogue::None)?;
//! assert_eq!(c[0].get(1, 3), 6.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mpspmm_core as core;
pub use mpspmm_gcn as gcn;
pub use mpspmm_graphs as graphs;
pub use mpspmm_multicore as multicore;
pub use mpspmm_serve as serve;
pub use mpspmm_simt as simt;
pub use mpspmm_sparse as sparse;

// Fused GCN layer pipeline entry points, re-exported at the facade root:
// [`ExecEngine`] carries both halves of a layer — the parallel blocked
// GEMM (`ExecEngine::gemm`) and the SpMM whose store stage applies an
// [`Epilogue`] to direct rows in place.
pub use mpspmm_core::{Epilogue, ExecEngine};
