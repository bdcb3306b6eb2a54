//! MergePath-SpMM: load-balanced parallel sparse matrix–matrix
//! multiplication for GNN acceleration (ISPASS 2023) — the paper's core
//! contribution plus every software baseline it is evaluated against.
//!
//! # The problem
//!
//! GCN inference multiplies an ultra-sparse, power-law adjacency matrix
//! `A` by a dense feature product `XW`. Splitting rows across threads
//! balances nothing when a handful of *evil rows* hold most non-zeros;
//! splitting non-zeros (GNNAdvisor) balances work but forces **every**
//! output update through an atomic operation.
//!
//! # The algorithm
//!
//! [`Schedule`] partitions the merge path — rows *plus* non-zeros — into
//! equal per-thread shares (Algorithm 1, a 2-D binary search per thread
//! boundary, no preprocessing/reordering/format extension). The
//! [`MergePathSpmm`] kernel (Algorithm 2) then tracks which assigned rows
//! are *partial* (shared with neighbouring threads) and which are
//! *complete*: partial rows accumulate thread-locally and flush with one
//! atomic update; complete rows write directly. Synchronization is thereby
//! confined to at most two updates per thread.
//!
//! # Quickstart
//!
//! ```
//! use mpspmm_core::{Epilogue, ExecEngine, MergePathSpmm, SpmmKernel};
//! use mpspmm_sparse::{CsrMatrix, DenseMatrix};
//!
//! let a = CsrMatrix::from_triplets(
//!     4,
//!     4,
//!     &[(0, 1, 1.0f32), (1, 0, 0.5), (1, 3, 0.5), (3, 2, 2.0)],
//! )?;
//! let xw = DenseMatrix::from_fn(4, 16, |r, c| (r * 16 + c) as f32 * 0.01);
//! let kernel = MergePathSpmm::new();
//! // Replay the kernel's own plan on this thread, with its Fig. 5 write
//! // statistics.
//! let (c, stats) = kernel.spmm_sequential(&a, &xw)?;
//! assert_eq!(c.rows(), 4);
//! assert_eq!(stats.total_nnz(), 4);
//! // The fast product: the engine's row spans on the worker pool, one
//! // output per dense block.
//! let fast = ExecEngine::global().spmm(&a, &[&xw], &Epilogue::NONE)?;
//! assert!(fast[0].max_abs_diff(&c)? <= 1e-6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny` rather than `forbid`: exactly two modules opt back in — the
// worker pool (`pool.rs`), for one lifetime-erasure transmute with a
// documented completion-barrier argument; and the wide-ISA kernel
// clones (`datapath::wide`), whose `#[target_feature]` calls are gated
// on the matching runtime CPU-feature proof and whose AVX-512F GEMM tile
// loads and stores whole `[f32; 16]` blocks. Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod arena;
mod compat;
mod datapath;
mod engine;
mod epilogue;
pub mod executor;
mod forward;
mod gemm;
mod merge_path;
mod packed;
mod plan;
mod pool;
mod spmm;
mod stats;
mod tuning;

#[doc(hidden)]
#[allow(clippy::disallowed_types)]
pub use compat::{BatchShapeClass, PreparedPlan};
pub use datapath::DataPath;
pub use engine::{EngineStats, ExecEngine};
pub use epilogue::{Activation, Epilogue};
pub use forward::{Adjacency, Layer};
pub use merge_path::{merge_path_search, MergeCoord, Schedule, ThreadAssignment};
pub use packed::PackedGraphs;
pub use plan::{static_span_skew, Flush, KernelPlan, PlanError, Segment, ThreadPlan};
pub use spmm::{
    default_workers, plan_from_schedule, BatchMergeSpmm, MergePathSerialFixup, MergePathSpmm,
    NeighborPartitionIndex, NnzSplitSpmm, RowSplitSpmm, SerialSpmm, SpmmKernel,
};
pub use stats::WriteStats;
pub use tuning::{default_cost_for_dim, thread_count, SimdMapping, MIN_THREADS};
