//! Pieces every workload shares: the measured phase's CPU and latency
//! accounting, reply verification, repeated set-up timing, and the
//! metric list a run prints.

use std::time::{Duration, Instant};

use mpspmm_core::EngineStats;
use mpspmm_serve::ServeError;
use mpspmm_sparse::DenseMatrix;

use crate::sys;
use crate::trace::Tracer;

/// Median of a sample (mean of the middle two when even); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile, `q` in [0, 1] (0 gives the minimum); 0 when
/// empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Counts every request's outcome. A request fails when admission
/// rejects it, no reply arrives, the reply is an error, or the reply
/// differs from the reference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Replies that arrived without error, matching or not.
    pub completed: u64,
    /// Replies equal to the reference.
    pub verified: u64,
}

/// The oracle suites' exact comparison (`max_abs_diff == 0.0`): same
/// shape, every element equal, `-0.0 == 0.0`. Compared element by
/// element so that a NaN, which `max_abs_diff` skips, fails.
pub fn same_output(got: &DenseMatrix<f32>, want: &DenseMatrix<f32>) -> bool {
    got.rows() == want.rows()
        && got.cols() == want.cols()
        && got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(g, w)| g == w)
}

impl Tally {
    /// Records one request's outcome: `None` when it was rejected at
    /// admission or never answered.
    pub fn record(
        &mut self,
        reply: Option<Result<DenseMatrix<f32>, ServeError>>,
        want: &DenseMatrix<f32>,
    ) {
        self.attempted += 1;
        match reply {
            Some(Ok(got)) => {
                self.completed += 1;
                if same_output(&got, want) {
                    self.verified += 1;
                } else {
                    self.failed += 1;
                }
            }
            Some(Err(_)) | None => self.failed += 1,
        }
    }
}

/// Accounting of one measured phase of closed-loop traffic.
///
/// The generator's own work (payload preparation and reply checks) runs
/// through [`generator`](Self::generator), which keeps its CPU time out
/// of the per-request CPU figure and its wall time out of goodput; the
/// traced replay runs through [`aside`](Self::aside), which does the
/// same for every thread. Latency is timed by the caller around
/// submission and reply only.
///
/// CPU per request and goodput are medians over windows of a fixed
/// number of round trips. Load from other tenants of the host arrives in
/// episodes and, besides stealing time, slows the work that does run, so
/// it inflates CPU time as well as wall time; the median keeps the
/// windows an episode hits from setting the figure.
pub struct Phase {
    start: Mark,
    window: Mark,
    machine: sys::MachineCpu,
    excluded_cpu_ns: u64,
    excluded_wall: Duration,
    per_window: usize,
    trips: usize,
    /// One sample per request, in ms.
    latencies_ms: Vec<f64>,
    window_cpu_ms_per_req: Vec<f64>,
    window_goodput_per_s: Vec<f64>,
}

/// Running totals sampled at a window boundary.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    cpu_ns: u64,
    excluded_cpu_ns: u64,
    excluded_wall: Duration,
    tally: Tally,
}

/// `(CPU ms per completed request, verified replies per serving second)`
/// between two marks.
fn rates(from: &Mark, to: &Mark) -> (f64, f64) {
    let cpu_ns =
        (to.cpu_ns - from.cpu_ns).saturating_sub(to.excluded_cpu_ns - from.excluded_cpu_ns);
    let completed = (to.tally.completed - from.tally.completed) as f64;
    let verified = (to.tally.verified - from.tally.verified) as f64;
    let serving = (to.at - from.at).saturating_sub(to.excluded_wall - from.excluded_wall);
    (
        ratio(cpu_ns as f64 / 1e6, completed),
        ratio(verified, serving.as_secs_f64()),
    )
}

/// What a measured phase reports.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Median over windows.
    pub cpu_ms_per_req: f64,
    /// Median over windows.
    pub goodput_per_s: f64,
    pub latency_ms_p50: f64,
    pub latency_ms_p90: f64,
    pub steal_share: f64,
    pub requests: u64,
    pub wall_s: f64,
    pub windows: usize,
    /// CPU per request over the whole phase.
    pub whole_cpu_ms_per_req: f64,
    /// Goodput over the whole phase.
    pub whole_goodput_per_s: f64,
    pub latencies_ms: Vec<f64>,
}

impl Phase {
    /// Starts the phase with windows of `per_window` round trips;
    /// `tally` is the running tally, whose growth is what the phase
    /// reports.
    pub fn start(tally: &Tally, per_window: usize) -> Self {
        let machine = sys::machine_cpu();
        let mark = Mark {
            at: Instant::now(),
            cpu_ns: sys::threads_cpu_ns(),
            excluded_cpu_ns: 0,
            excluded_wall: Duration::ZERO,
            tally: *tally,
        };
        Self {
            start: mark,
            window: mark,
            machine,
            excluded_cpu_ns: 0,
            excluded_wall: Duration::ZERO,
            per_window: per_window.max(1),
            trips: 0,
            latencies_ms: Vec::new(),
            window_cpu_ms_per_req: Vec::new(),
            window_goodput_per_s: Vec::new(),
        }
    }

    /// Runs generator-side work, see the type docs.
    pub fn generator<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let wall = Instant::now();
        let cpu = sys::thread_cpu_ns();
        let out = f();
        self.excluded_cpu_ns += sys::thread_cpu_ns().saturating_sub(cpu);
        self.excluded_wall += wall.elapsed();
        out
    }

    /// Runs work that belongs neither to the served traffic nor to the
    /// generator, such as the traced replay: the CPU time of every thread
    /// and the wall time it takes are kept out of the phase's figures.
    pub fn aside<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let wall = Instant::now();
        let cpu = sys::threads_cpu_ns();
        let out = f();
        self.excluded_cpu_ns += sys::threads_cpu_ns().saturating_sub(cpu);
        self.excluded_wall += wall.elapsed();
        out
    }

    fn mark(&mut self, tally: &Tally) -> Mark {
        let (at, cpu_ns) = self.generator(|| (Instant::now(), sys::threads_cpu_ns()));
        Mark {
            at,
            cpu_ns,
            excluded_cpu_ns: self.excluded_cpu_ns,
            excluded_wall: self.excluded_wall,
            tally: *tally,
        }
    }

    /// Called before each round trip: closes the current window once it
    /// holds its round trips.
    pub fn next_round(&mut self, tally: &Tally) {
        if self.trips < self.per_window {
            return;
        }
        let mark = self.mark(tally);
        let (cpu, goodput) = rates(&self.window, &mark);
        self.window_cpu_ms_per_req.push(cpu);
        self.window_goodput_per_s.push(goodput);
        self.window = mark;
        self.trips = 0;
    }

    /// Records one round trip of `requests` requests that all completed
    /// together after `elapsed`.
    pub fn round_trip(&mut self, elapsed: Duration, requests: usize) {
        let ms = elapsed.as_secs_f64() * 1e3;
        self.latencies_ms.extend(std::iter::repeat_n(ms, requests));
        self.trips += 1;
    }

    /// Ends the phase. A last window short of its round trips is left
    /// out of the window medians.
    pub fn finish(mut self, tally: &Tally) -> PhaseReport {
        self.next_round(tally);
        let end = self.mark(tally);
        let (whole_cpu, whole_goodput) = rates(&self.start, &end);
        // A phase shorter than one window reports its whole-phase rates.
        if self.window_cpu_ms_per_req.is_empty() {
            self.window_cpu_ms_per_req.push(whole_cpu);
            self.window_goodput_per_s.push(whole_goodput);
        }
        PhaseReport {
            cpu_ms_per_req: median(&self.window_cpu_ms_per_req),
            goodput_per_s: median(&self.window_goodput_per_s),
            latency_ms_p50: percentile(&self.latencies_ms, 0.5),
            latency_ms_p90: percentile(&self.latencies_ms, 0.9),
            steal_share: sys::steal_share(self.machine, sys::machine_cpu()),
            requests: tally.attempted - self.start.tally.attempted,
            wall_s: (end.at - self.start.at).as_secs_f64(),
            windows: self.window_cpu_ms_per_req.len(),
            whole_cpu_ms_per_req: whole_cpu,
            whole_goodput_per_s: whole_goodput,
            latencies_ms: self.latencies_ms,
        }
    }
}

/// Runs `setup` `count` times, each a fresh set-up, and returns the
/// median wall time in seconds with the last set-up's result. The
/// earlier results are dropped by `discard` outside the timed region.
pub fn time_setups<T>(
    count: usize,
    mut tracer: Option<&mut Tracer>,
    mut setup: impl FnMut(Option<&mut Tracer>) -> T,
    mut discard: impl FnMut(T),
) -> (f64, T) {
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for _ in 0..count {
        if let Some(old) = last.take() {
            discard(old);
        }
        let t0 = Instant::now();
        let ready = setup(tracer.as_deref_mut());
        times.push(t0.elapsed().as_secs_f64());
        last = Some(ready);
    }
    println!(
        "# {count} set-ups: min {:.6} s, median {:.6} s, max {:.6} s",
        percentile(&times, 0.0),
        median(&times),
        percentile(&times, 1.0)
    );
    (median(&times), last.expect("at least one set-up"))
}

/// Peak RSS over set-up and the measured phase, above the RSS when the
/// mark was reset, in MB.
pub fn peak_rss_mb(rss_at_reset_kb: u64) -> f64 {
    sys::peak_rss_kb().saturating_sub(rss_at_reset_kb) as f64 / 1024.0
}

/// The gated end-to-end metrics of one untraced measured phase.
pub fn end_to_end(setup_s: f64, phase: &PhaseReport, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "cpu_ms_per_req",
            value: phase.cpu_ms_per_req,
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MB",
        },
    ]
}

/// The wall-clock end-to-end metrics of one untraced measured phase.
/// Host steal moves them by far more than any useful bound between runs
/// of the same code, so they are reported with the per-layer metrics of
/// the traced run instead of being gated.
pub fn wall_clock(phase: &PhaseReport) -> Vec<Metric> {
    vec![
        Metric {
            name: "goodput_per_s",
            value: phase.goodput_per_s,
            unit: "1/s",
        },
        Metric {
            name: "latency_ms_p50",
            value: phase.latency_ms_p50,
            unit: "ms",
        },
        Metric {
            name: "latency_ms_p90",
            value: phase.latency_ms_p90,
            unit: "ms",
        },
    ]
}

/// Per-layer metrics common to every workload's traced run.
///
/// `untraced` and `traced` are the two served phases; their difference
/// is the tracing overhead. `pairs` holds, for each traced round trip,
/// its served latency and the duration of its direct replay right after
/// it, both in ms: served minus replayed is the serving layer's own share
/// (queue wait, dispatch, reply). Pairing keeps host-load swings, which
/// move both alike, out of the difference. The replay must account for a
/// share of the served latency within `expected_share`, the workload's
/// stated breakdown tolerance.
pub fn traced_serve_metrics(
    untraced: &PhaseReport,
    traced: &PhaseReport,
    tracer: &Tracer,
    pairs: &[(f64, f64)],
    expected_share: (f64, f64),
) -> Vec<Metric> {
    let submit_us: Vec<f64> = tracer
        .work("serve.submit")
        .iter()
        .map(|&(ms, requests)| ms * 1e3 / requests.max(1.0))
        .collect();
    let overhead: Vec<f64> = pairs
        .iter()
        .map(|&(served, replay)| served - replay)
        .collect();
    let shares: Vec<f64> = pairs
        .iter()
        .map(|&(served, replay)| ratio(replay, served))
        .collect();
    let share = median(&shares);
    let (lo, hi) = expected_share;
    let (self_ok, nested) = tracer.check();
    println!(
        "# check self times >= 0: {}; children within parents: {}",
        pass(self_ok),
        pass(nested)
    );
    println!(
        "# check replay / served latency, median of {} pairs: {share:.3}; stated range [{lo}, {hi}]: {}",
        pairs.len(),
        pass((lo..=hi).contains(&share))
    );
    vec![
        Metric {
            name: "serve.submit_us_p50",
            value: median(&submit_us),
            unit: "us",
        },
        Metric {
            name: "serve.overhead_ms_p50",
            value: median(&overhead),
            unit: "ms",
        },
        Metric {
            name: "trace.overhead_cpu_ms_per_req",
            value: traced.cpu_ms_per_req - untraced.cpu_ms_per_req,
            unit: "ms",
        },
        Metric {
            name: "trace.overhead_latency_ms_p50",
            value: traced.latency_ms_p50 - untraced.latency_ms_p50,
            unit: "ms",
        },
    ]
}

fn pass(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Engine counters as per-layer rates: the plan-cache hit rate since the
/// engine started, and the arena reuse and gather-dispatch shares over
/// the measured phase (`before` to `after`).
pub fn engine_metrics(before: &EngineStats, after: &EngineStats) -> Vec<Metric> {
    let reuses = (after.arena_reuses - before.arena_reuses) as f64;
    let misses = (after.arena_misses - before.arena_misses) as f64;
    let gather = (after.gather_segments - before.gather_segments) as f64;
    let stream = (after.stream_segments - before.stream_segments) as f64;
    vec![
        Metric {
            name: "core.plan_cache_hit_rate",
            value: after.hit_rate(),
            unit: "ratio",
        },
        Metric {
            name: "core.arena_reuse_rate",
            value: ratio(reuses, reuses + misses),
            unit: "ratio",
        },
        Metric {
            name: "core.gather_share",
            value: ratio(gather, gather + stream),
            unit: "ratio",
        },
    ]
}

/// Median duration and computed rate of the replayed SpMM runs: each
/// `core.spmm` span carries its `2 * nnz * cols` flops, so the rate is
/// computed from operand sizes, not counted by hardware.
pub fn spmm_metrics(tracer: &Tracer) -> Vec<Metric> {
    let runs = tracer.work("core.spmm");
    let gflops: Vec<f64> = runs.iter().map(|&(ms, flops)| flops / (ms * 1e6)).collect();
    let ms: Vec<f64> = runs.iter().map(|&(ms, _)| ms).collect();
    vec![
        Metric {
            name: "core.spmm_ms_p50",
            value: median(&ms),
            unit: "ms",
        },
        Metric {
            name: "core.spmm_gflops",
            value: median(&gflops),
            unit: "GFLOP/s",
        },
    ]
}

/// The median of the named spans' durations as a metric.
pub fn span_median(tracer: &Tracer, span: &str, name: &'static str, unit: &'static str) -> Metric {
    let scale = if unit == "us" { 1e3 } else { 1.0 };
    Metric {
        name,
        value: median(&tracer.durations_ms(span)) * scale,
        unit,
    }
}

/// Prints a phase's figures as a comment line.
pub fn print_phase(label: &str, p: &PhaseReport) {
    println!(
        "# {label}: {} requests in {:.2} s; median of {} windows: cpu {:.4} ms/req, \
         goodput {:.2}/s; whole phase: cpu {:.4} ms/req, goodput {:.2}/s; \
         latency p50 {:.3} ms p90 {:.3} ms ({} samples); steal_share {:.4}",
        p.requests,
        p.wall_s,
        p.windows,
        p.cpu_ms_per_req,
        p.goodput_per_s,
        p.whole_cpu_ms_per_req,
        p.whole_goodput_per_s,
        p.latency_ms_p50,
        p.latency_ms_p90,
        p.latencies_ms.len(),
        p.steal_share
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_reply_counts_as_failed() {
        let want = DenseMatrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.5);
        let mut tally = Tally::default();
        tally.record(Some(Ok(want.clone())), &want);
        let mut corrupted = want.clone();
        corrupted.set(2, 1, corrupted.get(2, 1) + f32::EPSILON * 4.0);
        tally.record(Some(Ok(corrupted)), &want);
        let mut nan = want.clone();
        nan.set(0, 0, f32::NAN);
        tally.record(Some(Ok(nan)), &want);
        tally.record(Some(Err(ServeError::DeadlineExceeded)), &want);
        tally.record(None, &want);
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 4,
                completed: 3,
                verified: 1
            }
        );
    }

    #[test]
    fn signed_zeros_compare_equal_like_the_oracle_suites() {
        let a = DenseMatrix::from_vec(1, 2, vec![0.0f32, 1.0]).unwrap();
        let b = DenseMatrix::from_vec(1, 2, vec![-0.0f32, 1.0]).unwrap();
        assert!(same_output(&a, &b));
        let wrong_shape = DenseMatrix::from_vec(2, 1, vec![0.0f32, 1.0]).unwrap();
        assert!(!same_output(&a, &wrong_shape));
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
