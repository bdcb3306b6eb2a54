//! Shared plumbing for the figure/table reproduction harnesses.
//!
//! Each `fig*`/`table*`/`ablation_*` binary in `src/bin/` regenerates one
//! table or figure of the MergePath-SpMM paper (see DESIGN.md §3 for the
//! experiment index). This library provides the common pieces: the
//! deterministic dataset seed, geometric means, and the scaled-down /
//! `--full` input handling that keeps the larger graphs tractable by
//! default.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mpspmm_graphs::DatasetSpec;
use mpspmm_sparse::CsrMatrix;

/// The fixed seed used by every harness, so printed numbers are
/// reproducible run-to-run.
pub const SEED: u64 = 7;

/// Non-zero count above which harnesses scale a dataset down unless
/// `--full` is passed.
pub const SCALE_THRESHOLD_NNZ: usize = 2_500_000;

/// Scale factor applied to over-threshold datasets in default mode.
pub const DEFAULT_SCALE: usize = 4;

/// Geometric mean of a slice (empty slices yield 1).
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 1.0;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// Whether `--full` was passed on the command line (run every dataset at
/// its published size).
pub fn full_size_requested() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Synthesizes `spec`, scaling it down when it is over the threshold and
/// `full` is false. Returns the (possibly scaled) spec and its matrix.
pub fn load(spec: &DatasetSpec, full: bool) -> (DatasetSpec, CsrMatrix<f32>) {
    let spec = if !full && spec.nnz > SCALE_THRESHOLD_NNZ {
        spec.scaled_down(DEFAULT_SCALE)
    } else {
        spec.clone()
    };
    let a = spec.synthesize(SEED);
    (spec, a)
}

/// Times `f` and returns the best (minimum) wall-clock nanoseconds per
/// call over `iters` timed calls, after `warmup` untimed calls.
///
/// The minimum is the standard noise-robust point estimate for a
/// deterministic workload on a shared machine: every measurement is the
/// true cost plus non-negative interference.
pub fn time_ns<F: FnMut()>(warmup: usize, iters: usize, mut f: F) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t0 = std::time::Instant::now();
        f();
        let dt = t0.elapsed().as_nanos() as f64;
        if dt < best {
            best = dt;
        }
    }
    best
}

/// Prints the standard harness banner.
pub fn banner(figure: &str, description: &str, full: bool) {
    println!("==================================================================");
    println!("{figure}: {description}");
    println!(
        "inputs: synthetic Table II graphs, seed {SEED}{}",
        if full {
            " (--full: published sizes)"
        } else {
            " (large graphs scaled 1/4; pass --full for published sizes)"
        }
    );
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpspmm_graphs::find_dataset;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn load_scales_only_large_graphs() {
        let cora = find_dataset("Cora").unwrap();
        let (spec, a) = load(cora, false);
        assert_eq!(spec.nnz, cora.nnz);
        assert_eq!(a.nnz(), cora.nnz);
        let amazon = find_dataset("amazon0505").unwrap();
        let (spec, _) = load(amazon, false);
        assert!(spec.nnz < amazon.nnz);
    }
}
