//! Names the serving benchmark (`servebench/`, its own workspace) still
//! calls, kept until it moves to [`ExecEngine::spmm`]. Each body is one
//! line with no logic of its own; the root `clippy.toml` denies every
//! name here to the workspace, so nothing else may call them. Deleting
//! this module, its re-export and the always-zero [`EngineStats`] fields
//! removes them all (ROADMAP item 1a).
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::sync::Arc;

use mpspmm_sparse::{CsrMatrix, DenseMatrix, SparseFormatError};

use crate::engine::{EngineStats, ExecEngine};
use crate::epilogue::Epilogue;
use crate::spmm::SpmmKernel;
use crate::stats::WriteStats;

/// A plan object that holds nothing: the engine reads every run from the
/// live matrix.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct PreparedPlan;

#[doc(hidden)]
impl PreparedPlan {
    /// Always 0: every row has one writer.
    pub fn shared_row_count(&self) -> usize {
        0
    }
}

/// A batch classification that stores nothing.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct BatchShapeClass;

#[doc(hidden)]
impl BatchShapeClass {
    /// Ignores `graphs`.
    pub fn from_graphs(_graphs: impl IntoIterator<Item = (usize, usize, u64)>) -> Self {
        Self
    }
}

#[doc(hidden)]
impl EngineStats {
    /// Always 0: the engine caches no plans.
    pub fn hit_rate(&self) -> f64 {
        0.0
    }
}

#[doc(hidden)]
impl ExecEngine {
    /// [`ExecEngine::spmm`] of one block; the statistics are always zero.
    pub fn execute_prepared(
        &self,
        _prep: &PreparedPlan,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
    ) -> Result<(DenseMatrix<f32>, WriteStats), SparseFormatError> {
        Ok((
            self.spmm(a, &[b], &Epilogue::None)?.remove(0),
            WriteStats::default(),
        ))
    }

    /// [`ExecEngine::spmm`] with no epilogue.
    pub fn execute_prepared_batch(
        &self,
        _prep: &PreparedPlan,
        a: &CsrMatrix<f32>,
        blocks: &[&DenseMatrix<f32>],
    ) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
        self.spmm(a, blocks, &Epilogue::None)
    }

    /// [`ExecEngine::spmm`].
    pub fn execute_prepared_batch_fused(
        &self,
        _prep: &PreparedPlan,
        a: &CsrMatrix<f32>,
        blocks: &[&DenseMatrix<f32>],
        epi: &Epilogue,
    ) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
        self.spmm(a, blocks, epi)
    }

    /// An empty plan.
    pub fn plan_cached(
        &self,
        _kernel: &dyn SpmmKernel,
        _a: &CsrMatrix<f32>,
        _dim: usize,
        _epoch: u64,
    ) -> Arc<PreparedPlan> {
        Arc::new(PreparedPlan)
    }

    /// An empty plan.
    pub fn plan_batch_cached(
        &self,
        _kernel: &dyn SpmmKernel,
        _a: &CsrMatrix<f32>,
        _dim: usize,
        _class: &BatchShapeClass,
    ) -> Arc<PreparedPlan> {
        Arc::new(PreparedPlan)
    }
}
