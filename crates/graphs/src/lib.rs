//! Synthetic evaluation graphs reproducing Table II of the MergePath-SpMM
//! paper (ISPASS 2023).
//!
//! The paper evaluates on 23 real-world graphs: 17 *Type I* power-law graphs
//! (citation networks, web/social graphs, Nell, …) and 6 *Type II*
//! structured graphs (molecular datasets and Twitter-partial). The raw
//! datasets are not redistributable (and not downloadable in this build
//! environment), so this crate synthesizes **structure-equivalent** graphs:
//! deterministic, seeded generators parameterized by the exact Table II row
//! (node count, non-zero count, average degree, maximum degree).
//!
//! The SpMM kernels under study are sensitive only to the sparsity
//! *structure* — row count, total non-zeros, degree skew (evil rows), and
//! locality — all of which the generators match (nodes, nnz, and max degree
//! exactly; degree-distribution shape via a truncated power law).
//!
//! # Example
//!
//! ```
//! use mpspmm_graphs::{DatasetSpec, GraphClass};
//!
//! // Synthesize a miniature power-law graph and check its shape.
//! let spec = DatasetSpec::custom("mini", GraphClass::PowerLaw, 500, 2_000, 60);
//! let a = spec.synthesize(42);
//! assert_eq!(a.rows(), 500);
//! assert_eq!(a.nnz(), 2_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod evolve;
mod normalize;
mod powerlaw;
mod spec;
mod structured;

pub use evolve::GraphStream;
pub use normalize::{add_self_loops, gcn_normalize, mean_normalize};
pub use spec::{find_dataset, table_ii, DatasetSpec, GraphClass, TABLE_II};

pub(crate) use powerlaw::generate_powerlaw;
pub(crate) use structured::generate_structured;
