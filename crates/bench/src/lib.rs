//! Shared plumbing for the figure/table reproduction harnesses.
//!
//! Each `fig*`/`table*`/`ablation_*` binary in `src/bin/` regenerates one
//! table or figure of the MergePath-SpMM paper (see DESIGN.md §3 for the
//! experiment index). This library provides the common pieces: the
//! deterministic dataset seed, geometric means, the scaled-down /
//! `--full` input handling that keeps the larger graphs tractable by
//! default, and the one timer ([`Measured`], [`alternate`]) with the
//! `BENCH_*.json` writer the `bench_*` binaries share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

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

/// Wall-clock summary of repeated runs of one measured operation: the
/// median and the 10th and 90th percentiles (nearest rank) of `n`
/// samples, each in nanoseconds per unit of work. Every timing the
/// harnesses report goes through this type.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    /// Median sample (the mean of the middle two when `n` is even).
    pub median_ns: f64,
    /// 10th-percentile sample.
    pub p10_ns: f64,
    /// 90th-percentile sample.
    pub p90_ns: f64,
    /// Number of samples.
    pub n: usize,
}

impl Measured {
    /// Summarizes `samples` (nanoseconds per unit of work, any order).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or holds a NaN.
    pub fn from_samples(samples: &[f64]) -> Measured {
        assert!(
            !samples.is_empty(),
            "a measurement needs at least one sample"
        );
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are not NaN"));
        let n = s.len();
        let mid = n / 2;
        let median_ns = if n.is_multiple_of(2) {
            (s[mid - 1] + s[mid]) / 2.0
        } else {
            s[mid]
        };
        let rank = |q: f64| s[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        Measured {
            median_ns,
            p10_ns: rank(0.1),
            p90_ns: rank(0.9),
            n,
        }
    }

    /// Times `runs` calls of `f`, after `warmup` untimed ones.
    pub fn of(warmup: usize, runs: usize, mut f: impl FnMut()) -> Measured {
        for _ in 0..warmup {
            f();
        }
        let samples: Vec<f64> = (0..runs)
            .map(|_| {
                sample_ns(&mut || {
                    f();
                    1
                })
            })
            .collect();
        Measured::from_samples(&samples)
    }
}

/// Wall nanoseconds of one call of `f` per unit of work it reports.
fn sample_ns(f: &mut impl FnMut() -> usize) -> f64 {
    let t0 = Instant::now();
    let units = f();
    let ns = t0.elapsed().as_nanos() as f64;
    assert!(units > 0, "a timed call must report the work it did");
    ns / units as f64
}

/// Times `base` and `new` in `rounds` interleaved rounds, after `warmup`
/// untimed rounds. Each call returns the units of work it did (1 for a
/// single operation, the requests completed for a serving pass), and a
/// sample is its wall time per unit. The side that runs first swaps
/// every round, so a burst of host load, a slow drift or a cache warmed
/// by the previous call falls on both sides instead of one.
pub fn alternate(
    warmup: usize,
    rounds: usize,
    mut base: impl FnMut() -> usize,
    mut new: impl FnMut() -> usize,
) -> (Measured, Measured) {
    let (mut b, mut n) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for round in 0..warmup + rounds {
        let (tb, tn) = if round % 2 == 0 {
            let tb = sample_ns(&mut base);
            (tb, sample_ns(&mut new))
        } else {
            let tn = sample_ns(&mut new);
            (sample_ns(&mut base), tn)
        };
        if round >= warmup {
            b.push(tb);
            n.push(tn);
        }
    }
    (Measured::from_samples(&b), Measured::from_samples(&n))
}

/// The headline speedup of `(baseline, change)` measurement pairs as
/// `(p10, median, p90)`: the geomean over pairs of baseline median over
/// change median, flanked by the geomeans of baseline p10 over change
/// p90 and baseline p90 over change p10, the band the two spreads allow.
pub fn speedup(pairs: &[(Measured, Measured)]) -> (f64, f64, f64) {
    let band = |f: fn(&Measured, &Measured) -> f64| {
        geomean(&pairs.iter().map(|(b, n)| f(b, n)).collect::<Vec<_>>())
    };
    (
        band(|b, n| b.p10_ns / n.p90_ns),
        band(|b, n| b.median_ns / n.median_ns),
        band(|b, n| b.p90_ns / n.p10_ns),
    )
}

/// Whether a measurement at `requested` workers is honest on a machine
/// with `available` hardware threads: at least one worker, and no more
/// workers than threads, so no speedup comes from oversubscription.
pub fn workers_fit(requested: usize, available: usize) -> bool {
    (1..=available).contains(&requested)
}

/// Writes `BENCH_<name>.json` into the working directory and prints its
/// headline. The artifact opens with the keys every bench shares:
/// `baseline` (what the speedup is measured against), the [`speedup`]
/// of `pairs` with its `speedup_p10`/`speedup_p90` band, `runs` (the
/// fewest samples behind any measurement), `workers` and
/// `"measured": true`; `fields` follow, each a key and a raw JSON value.
///
/// # Panics
///
/// Panics if `pairs` is empty, if `workers` does not fit the machine's
/// available parallelism (see [`workers_fit`]), or if the file cannot be
/// written.
pub fn write_artifact(
    name: &str,
    baseline: &str,
    pairs: &[(Measured, Measured)],
    workers: usize,
    fields: &[(&str, String)],
) {
    assert!(!pairs.is_empty(), "an artifact needs a measured headline");
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        workers_fit(workers, available),
        "{workers} workers do not fit the {available} hardware threads of this machine"
    );
    let (p10, median, p90) = speedup(pairs);
    let runs = pairs
        .iter()
        .map(|(b, n)| b.n.min(n.n))
        .min()
        .expect("non-empty");
    let mut json = format!(
        "{{\n  \"baseline\": \"{baseline}\",\n  \"speedup\": {median:.3},\n  \
         \"speedup_p10\": {p10:.3},\n  \"speedup_p90\": {p90:.3},\n  \"runs\": {runs},\n  \
         \"workers\": {workers},\n  \"measured\": true"
    );
    for (key, value) in fields {
        json.push_str(&format!(",\n  \"{key}\": {value}"));
    }
    json.push_str("\n}\n");
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "\nspeedup over {baseline}: {median:.2}x (p10-p90 band {p10:.2}x-{p90:.2}x, \
         {runs} runs, {workers} workers)\nwrote {path}"
    );
}

/// JSON array of pre-rendered elements, one per line.
pub fn json_array(items: &[String]) -> String {
    format!("[\n    {}\n  ]", items.join(",\n    "))
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
    fn measured_odd_sample_count() {
        let m = Measured::from_samples(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!(m.median_ns, 30.0);
        assert_eq!((m.p10_ns, m.p90_ns, m.n), (10.0, 50.0, 5));
    }

    #[test]
    fn measured_even_sample_count() {
        let samples: Vec<f64> = (1..=10).rev().map(|v| v as f64).collect();
        let m = Measured::from_samples(&samples);
        assert_eq!(m.median_ns, 5.5);
        assert_eq!((m.p10_ns, m.p90_ns, m.n), (1.0, 9.0, 10));
        let two = Measured::from_samples(&[4.0, 2.0]);
        assert_eq!((two.p10_ns, two.median_ns, two.p90_ns), (2.0, 3.0, 4.0));
    }

    #[test]
    fn measured_single_sample() {
        let m = Measured::from_samples(&[7.0]);
        assert_eq!((m.p10_ns, m.median_ns, m.p90_ns, m.n), (7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn measured_percentiles_bracket_the_median() {
        for n in 1..=41 {
            let samples: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64).collect();
            let m = Measured::from_samples(&samples);
            assert!(
                m.p10_ns <= m.median_ns && m.median_ns <= m.p90_ns,
                "n = {n}"
            );
        }
    }

    #[test]
    fn speedup_band_is_ordered() {
        let base = Measured::from_samples(&[90.0, 100.0, 120.0]);
        let new = Measured::from_samples(&[45.0, 50.0, 60.0]);
        let (p10, median, p90) = speedup(&[(base, new), (base, base)]);
        assert!((median - 2f64.sqrt()).abs() < 1e-12);
        assert!(p10 <= median && median <= p90);
    }

    #[test]
    fn alternate_counts_units_and_rounds() {
        let (mut calls_b, mut calls_n) = (0, 0);
        let (b, n) = alternate(
            1,
            5,
            || {
                calls_b += 1;
                1
            },
            || {
                calls_n += 1;
                3
            },
        );
        assert_eq!((calls_b, calls_n, b.n, n.n), (6, 6, 5, 5));
    }

    #[test]
    fn workers_fit_the_machine() {
        assert!(workers_fit(1, 1));
        assert!(workers_fit(2, 2));
        assert!(!workers_fit(4, 2));
        assert!(!workers_fit(0, 2));
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
