//! Graph convolutional network substrate for the MergePath-SpMM
//! reproduction.
//!
//! A GCN layer computes `σ(Â · X · W)` (§II of the paper). This crate
//! provides the *combination* phase (dense `X × W` GEMM, activations,
//! weight init) and composes it with the *aggregation* phase — the
//! `Â × (XW)` SpMM on an [`mpspmm_core::ExecEngine`] — into layers and
//! models. [`GcnModel::forward`] is the one GCN layer loop: a single
//! request, a batch of requests on one graph and a packed window of many
//! graphs ([`Adjacency::Packed`]) all run through it, one output per
//! block. The crate
//! also implements the online/offline inference scenario of Figure 8.
//!
//! # Example
//!
//! ```
//! use mpspmm_core::ExecEngine;
//! use mpspmm_gcn::{ops, GcnModel};
//! use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};
//!
//! let spec = DatasetSpec::custom("demo", GraphClass::PowerLaw, 200, 800, 40);
//! let a = gcn_normalize(&spec.synthesize(1));
//! let model = GcnModel::two_layer(32, 16, 4, 7);
//! let x = ops::random_features(200, 32, 0.4, 2);
//! let logits = model.forward(&a, &[&x], ExecEngine::global())?;
//! assert_eq!(logits[0].rows(), 200);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
pub mod ops;

pub use model::{online_inference, Adjacency, GcnLayer, GcnModel, InferenceTiming};
pub use ops::Activation;
