//! SpMM kernels: the proposed MergePath-SpMM algorithm and every software
//! baseline the paper evaluates against.
//!
//! | Kernel | Paper role | Decomposition | Output updates |
//! |---|---|---|---|
//! | [`MergePathSpmm`] | **the contribution** (§III, Algorithm 2) | merge-path, cost-tunable | atomic for partial rows only |
//! | [`RowSplitSpmm`] | accelerator-style baseline (§II) | equal contiguous row chunks | never atomic (but imbalanced) |
//! | [`NnzSplitSpmm`] | GNNAdvisor baseline (§II) | fixed-size neighbor groups | always atomic |
//! | [`MergePathSerialFixup`] | merge-path SpMV baseline generalized to SpMM (Figure 2) | merge-path | complete rows regular, spanning rows via serial fix-up |
//! | [`SerialSpmm`] | correctness oracle | single thread | regular |
//!
//! All kernels implement [`SpmmKernel`], produce a [`KernelPlan`]
//! (consumed by the CPU executors and by the machine-model simulators),
//! and compute identical results up to floating-point association.

mod mergepath;
mod nnz_split;
mod row_aligned;
mod row_split;
mod serial;
mod serial_fixup;

pub use mergepath::{plan_from_schedule, CostPolicy, MergePathSpmm};
pub use nnz_split::{NeighborPartitionIndex, NnzSplitSpmm};
pub(crate) use row_aligned::row_aligned_starts;
pub use row_aligned::{BatchMergeSpmm, BATCH_MIN_THREADS};
pub use row_split::RowSplitSpmm;
pub use serial::SerialSpmm;
pub use serial_fixup::MergePathSerialFixup;

use mpspmm_sparse::{CsrMatrix, DenseMatrix, SparseFormatError};

use crate::executor;
use crate::plan::KernelPlan;
use crate::stats::WriteStats;

/// Number of worker OS threads the execution engine uses by default.
///
/// Resolved once per process and cached: the `MPSPMM_WORKERS` environment
/// variable (a positive integer) wins if set and valid; an unset variable
/// uses the machine's available parallelism, while an invalid or zero
/// value falls back to available parallelism with a one-line warning on
/// stderr. The resolved count (and where it came from) is logged once at
/// first use — i.e. at worker-pool construction — so a serving process
/// records its parallelism at startup; the environment is never re-read
/// after that, and changing the variable later has no effect.
pub fn default_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        let available = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let raw = std::env::var("MPSPMM_WORKERS").ok();
        let (workers, warning) = resolve_workers(raw.as_deref(), available);
        let source = match (&raw, &warning) {
            (Some(_), None) => "MPSPMM_WORKERS",
            _ => "available parallelism",
        };
        if let Some(msg) = warning {
            eprintln!("{msg}");
        }
        eprintln!("mpspmm: engine workers = {workers} (from {source})");
        workers
    })
}

/// Pure resolution of the `MPSPMM_WORKERS` override against the machine's
/// `available` parallelism: `(workers, warning)`.
///
/// `None` (variable unset) resolves to `available` with no warning; a
/// valid positive integer wins; anything else — unparsable text, zero, a
/// negative or overflowing number — also resolves to `available` but
/// returns a one-line warning so the misconfiguration is visible instead
/// of a panic or a silent single-digit typo taking effect.
pub(crate) fn resolve_workers(raw: Option<&str>, available: usize) -> (usize, Option<String>) {
    let available = available.max(1);
    match raw {
        None => (available, None),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => (n, None),
            _ => (
                available,
                Some(format!(
                    "mpspmm: ignoring invalid MPSPMM_WORKERS={raw:?} (want a positive integer); \
                     using available parallelism ({available})"
                )),
            ),
        },
    }
}

/// A sparse-matrix × dense-matrix multiplication strategy.
///
/// `C = A × B` with `A` sparse CSR (`n×n` adjacency) and `B` dense
/// (`n×d`, the `XW` product in a GCN layer).
pub trait SpmmKernel: Send + Sync {
    /// Strategy name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Decomposes the kernel into logical-thread work for a dense
    /// dimension of `dim` columns.
    fn plan(&self, a: &CsrMatrix<f32>, dim: usize) -> KernelPlan;

    /// Computes `A × B` on the default worker pool: the engine's
    /// row-span product, the ascending row sum. The kernel's own plan is
    /// not built.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if
    /// `a.cols() != b.rows()`.
    fn spmm(
        &self,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        crate::engine::ExecEngine::global()
            .spmm(a, b, &crate::Epilogue::None)
            .map(|(out, _)| out)
    }

    /// [`spmm`](Self::spmm) plus this kernel's write statistics
    /// (Figure 5 accounting), which are a property of its plan.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if
    /// `a.cols() != b.rows()`.
    fn spmm_with_stats(
        &self,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
    ) -> Result<(DenseMatrix<f32>, WriteStats), SparseFormatError> {
        let out = self.spmm(a, b)?;
        Ok((out, self.plan(a, b.cols()).write_stats()))
    }

    /// Computes `A × B` deterministically on the calling thread, replaying
    /// the same logical-thread decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if
    /// `a.cols() != b.rows()`.
    fn spmm_sequential(
        &self,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
    ) -> Result<(DenseMatrix<f32>, WriteStats), SparseFormatError> {
        executor::check_shapes(a, b)?;
        let plan = self.plan(a, b.cols());
        executor::execute_sequential(&plan, a, b)
    }
}

#[cfg(test)]
mod worker_resolution_tests {
    use super::resolve_workers;

    #[test]
    fn unset_uses_available_parallelism_silently() {
        assert_eq!(resolve_workers(None, 8), (8, None));
        // Degenerate `available` is clamped to one worker.
        assert_eq!(resolve_workers(None, 0), (1, None));
    }

    #[test]
    fn valid_positive_override_wins() {
        assert_eq!(resolve_workers(Some("3"), 8), (3, None));
        assert_eq!(resolve_workers(Some(" 16 "), 2), (16, None));
    }

    #[test]
    fn invalid_and_zero_values_fall_back_with_warning() {
        for bad in ["0", "-2", "four", "", "1.5", "99999999999999999999999999"] {
            let (workers, warning) = resolve_workers(Some(bad), 4);
            assert_eq!(workers, 4, "input {bad:?}");
            let msg = warning.unwrap_or_else(|| panic!("no warning for {bad:?}"));
            assert!(
                msg.contains("MPSPMM_WORKERS"),
                "warning names the variable: {msg}"
            );
            assert!(msg.contains('4'), "warning names the fallback: {msg}");
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Dense reference multiply (the oracle all kernels are checked
    /// against).
    pub fn dense_reference(a: &CsrMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
        let mut out = DenseMatrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            let row = a.row(r);
            for (&c, &v) in row.cols.iter().zip(row.vals) {
                for d in 0..b.cols() {
                    out.set(r, d, out.get(r, d) + v * b.get(c, d));
                }
            }
        }
        out
    }

    /// A random sparse matrix with a deliberately evil first row.
    pub fn random_matrix(rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut coords = std::collections::BTreeSet::new();
        // Evil row: pack a third of the budget into row 0.
        let evil = (nnz / 3).min(cols);
        for c in 0..evil {
            coords.insert((0usize, c));
        }
        while coords.len() < nnz.min(rows * cols) {
            coords.insert((rng.gen_range(0..rows), rng.gen_range(0..cols)));
        }
        let triplets: Vec<(usize, usize, f32)> = coords
            .into_iter()
            .map(|(r, c)| (r, c, rng.gen_range(-2.0..2.0)))
            .collect();
        CsrMatrix::from_triplets(rows, cols, &triplets).unwrap()
    }

    /// A random dense matrix.
    pub fn random_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix<f32> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
        DenseMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    /// Asserts that `kernel.spmm` and `kernel.spmm_with_stats` give
    /// exactly the ascending row sum (the serial plan's sequential
    /// replay), whatever the kernel's own plan splits, and that the
    /// latter reports the kernel plan's statistics.
    pub fn check_spmm_is_row_sum(kernel: &dyn SpmmKernel, a: &CsrMatrix<f32>, dim: usize) {
        let b = random_dense(a.cols(), dim, 123);
        let plan = SerialSpmm.plan(a, dim);
        let (oracle, _) = executor::execute_sequential(&plan, a, &b).unwrap();
        let served = kernel.spmm(a, &b).unwrap();
        assert_eq!(served.as_slice(), oracle.as_slice(), "{}", kernel.name());
        let (out, stats) = kernel.spmm_with_stats(a, &b).unwrap();
        assert_eq!(out.as_slice(), oracle.as_slice(), "{}", kernel.name());
        assert_eq!(
            stats,
            kernel.plan(a, dim).write_stats(),
            "{}",
            kernel.name()
        );
    }

    /// Exercises one kernel against the dense oracle: plan validity,
    /// sequential and parallel agreement.
    pub fn check_kernel(kernel: &dyn SpmmKernel, a: &CsrMatrix<f32>, dim: usize) {
        let b = random_dense(a.cols(), dim, 99);
        let plan = kernel.plan(a, dim);
        plan.validate(a)
            .unwrap_or_else(|e| panic!("{}: invalid plan: {e}", kernel.name()));
        let reference = dense_reference(a, &b);
        let (seq, _) = kernel.spmm_sequential(a, &b).unwrap();
        let scale = reference.frobenius_norm().max(1.0);
        assert!(
            seq.max_abs_diff(&reference).unwrap() <= 1e-4 * scale,
            "{}: sequential result diverges",
            kernel.name()
        );
        let (par, _) = kernel.spmm_with_stats(a, &b).unwrap();
        assert!(
            par.max_abs_diff(&reference).unwrap() <= 1e-4 * scale,
            "{}: parallel result diverges",
            kernel.name()
        );
    }
}
