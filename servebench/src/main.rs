//! End-to-end benchmark of the serving path: seeded closed-loop
//! workloads through `mpspmm_serve::Server`, every reply checked against
//! a reference computed before timing starts.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <ppi-gcn|nell-spmm|molecule-pack> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing. With `--trace 1` it also runs a traced served phase in which
//! each request or burst is replayed, right after its replies, through
//! each layer's public functions inside spans, and prints the per-layer
//! metrics. The last line of standard output is
//! one JSON object with the run's verdict and metrics; every earlier
//! line starts with `#`.

mod harness;
mod molecule;
mod nell;
mod ppi;
mod sys;
mod trace;

use harness::{Metric, Tally};

/// Environment variables that change what the engine does. A run under
/// any of them would not measure the deployed program, so it refuses.
const GUARDED_ENV: [&str; 7] = [
    "MPSPMM_TUNE",
    "MPSPMM_CALIB_PATH",
    "MPSPMM_WORKERS",
    "MPSPMM_PIN",
    "MPSPMM_FASTMATH",
    "MPSPMM_GATHER_MAX",
    "MPSPMM_NO_PREFETCH",
];

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that does not exercise one reports 0 and names the reason. The first
/// three are the end-to-end wall-clock figures, too unsteady under host
/// steal to gate.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("goodput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.batch_requests_mean", "count"),
    ("serve.pack_efficiency", "ratio"),
    ("serve.swap_ms_p50", "ms"),
    ("gcn.forward_ms_p50", "ms"),
    ("gcn.self_ms_p50", "ms"),
    ("gcn.gemm0_ms_p50", "ms"),
    ("core.gemm_ms_p50", "ms"),
    ("core.spmm_ms_p50", "ms"),
    ("core.spmm_gflops", "GFLOP/s"),
    ("core.shared_row_share", "ratio"),
    ("core.plan_ms", "ms"),
    ("core.batch_plan_us_p50", "us"),
    ("core.batch_plan_hit_rate", "ratio"),
    ("core.plan_cache_hit_rate", "ratio"),
    ("core.arena_reuse_rate", "ratio"),
    ("core.gather_share", "ratio"),
    ("sparse.pack_us_p50", "us"),
    ("sparse.stack_us_p50", "us"),
    ("sparse.scatter_us_p50", "us"),
    ("graphs.normalize_ms", "ms"),
    ("trace.overhead_cpu_ms_per_req", "ms"),
    ("trace.overhead_latency_ms_p50", "ms"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run returns to `main`.
#[derive(Debug)]
pub struct Report {
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics the workload does not exercise, with the reason.
    pub absent: Vec<(&'static str, &'static str)>,
    /// False when a replayed layer call disagreed with the reference.
    pub replay_ok: bool,
}

impl Report {
    /// The report of an untraced run: the gated end-to-end metrics.
    pub fn untraced(
        tally: Tally,
        setup_s: f64,
        phase: &harness::PhaseReport,
        peak_rss_mb: f64,
    ) -> Self {
        Self {
            tally,
            metrics: harness::end_to_end(setup_s, phase, peak_rss_mb),
            absent: Vec::new(),
            replay_ok: true,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Fills in every per-layer metric, 0 for the absent ones, printing the
/// reason for each.
fn complete_per_layer(report: &Report) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            if let Some(m) = report.metrics.iter().find(|m| m.name == name) {
                return m.clone();
            }
            let reason = report
                .absent
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("not measured by this workload", |(_, r)| *r);
            println!("# missing {name}: {reason}");
            Metric {
                name,
                value: 0.0,
                unit,
            }
        })
        .collect()
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let set: Vec<&str> = GUARDED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "servebench: refusing to run with {} set: the benchmark measures the engine as deployed",
            set.join(", ")
        );
        std::process::exit(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} | nproc {} engine workers {} | cpu {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        mpspmm_core::default_workers(),
        sys::cpu_model()
    );
    let report = match args.workload.as_str() {
        "ppi-gcn" => ppi::run(&args),
        "nell-spmm" => nell::run(&args),
        "molecule-pack" => molecule::run(&args),
        other => {
            eprintln!("servebench: unknown workload {other} (ppi-gcn, nell-spmm, molecule-pack)");
            std::process::exit(2);
        }
    };
    let metrics = if args.trace {
        complete_per_layer(&report)
    } else {
        report.metrics.clone()
    };
    for m in &metrics {
        println!("# {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# requests attempted {} failed {} (verified {})",
        report.tally.attempted, report.tally.failed, report.tally.verified
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = report.tally.failed == 0 && report.tally.attempted > 0 && report.replay_ok;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.attempted.max(1),
        report.tally.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload nell-spmm --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "nell-spmm");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload x --seconds")).is_err());
        assert!(parse_args(&argv("--workload x --bogus 1")).is_err());
    }

    #[test]
    fn benchmark_json_declares_every_printed_metric() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared = |name: &str, unit: &str| {
            spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in PER_LAYER {
            assert!(
                declared(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let phase = harness::PhaseReport {
            cpu_ms_per_req: 1.0,
            goodput_per_s: 1.0,
            latency_ms_p50: 1.0,
            latency_ms_p90: 1.0,
            steal_share: 0.0,
            requests: 1,
            wall_s: 1.0,
            windows: 1,
            whole_cpu_ms_per_req: 1.0,
            whole_goodput_per_s: 1.0,
            latencies_ms: Vec::new(),
        };
        for m in harness::end_to_end(1.0, &phase, 1.0) {
            assert!(
                declared(m.name, m.unit),
                "{} missing from BENCHMARK.json",
                m.name
            );
        }
        let entries = spec.matches("\"name\": ").count();
        assert_eq!(
            entries,
            PER_LAYER.len() + 3 + 3,
            "3 workloads and 3 gated metrics"
        );
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
