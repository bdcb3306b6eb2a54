//! Multi-shard scale-out benchmark — partitioned SpMM + GCN forward.
//!
//! The single-engine baseline holds the whole graph in one memory
//! domain: past a handful of workers its SpMM wall is pinned to the
//! node's bandwidth, not its core count (the working set here is
//! hundreds of megabytes — far past any cache). Sharding splits the
//! rows across `S` engines, each with a private arena, plan cache, and
//! worker pool — the software shape of `S` memory domains. This harness
//! quantifies that scale-out on a host with few cores the way
//! `bench_spgemm` does: **model walls in measured units** plus **real
//! executions for every correctness claim**.
//!
//! Roofline model, per shard (and for the unsharded baseline as the
//! 1-shard case without halo traffic):
//!
//! * **compute leg** — merge items (rows + nnz) × a serial ns/item
//!   calibrated on an L2-resident graph (the engine's compute ceiling,
//!   free of DRAM stalls, as rooflines require), divided by the shard's
//!   workers;
//! * **memory leg** — a no-reuse traffic model (CSR stream + per-nnz
//!   operand-row gather + output write) over a measured streaming-copy
//!   bandwidth; each shard owns a full bandwidth domain, the baseline's
//!   workers share one;
//! * **halo leg** — sharded runs additionally gather the dense-operand
//!   rows their columns touch: local halo rows cost a copy (read +
//!   write), rows outside the shard's own band cross the interconnect,
//!   modeled at 1/4 node bandwidth.
//!
//! The wall is `max(compute, memory) + halo`, and a GCN forward chains
//! the per-layer GEMM (flops over a measured serial flop rate, operands
//! streamed) and SpMM walls. At equal *total* worker count the compute
//! legs match, so every modeled win is bandwidth scale-out priced
//! against real halo amplification — the honest trade.
//!
//! Real checks (both modes): sharded SpMM output is asserted
//! **bit-identical** to [`execute_sequential`] on the whole matrix at
//! every tested shard × worker combination, and the 4-shard GCN forward
//! is bit-identical to the 1-shard forward (DESIGN.md §2.15). Full mode
//! additionally asserts the modeled 4-shard forward speedup ≥ 2.5× over
//! the single-engine wall at equal total workers.
//!
//! Writes `BENCH_shard.json`. Pass `--smoke` for the seconds-fast tier-1
//! gate (scaled-down graph, no speedup floor: the halo fractions of a
//! tiny graph are not the large-graph regime the acceptance targets).

use mpspmm_bench::{banner, time_ns, SEED};
use mpspmm_core::executor::execute_sequential;
use mpspmm_core::{BatchMergeSpmm, ExecEngine, ShardedEngine, SpmmKernel};
use mpspmm_gcn::GcnModel;
use mpspmm_graphs::{DatasetSpec, GraphClass};
use mpspmm_sparse::{DenseMatrix, ShardedCsr};

/// Total workers split among shards — every configuration gets the same
/// compute budget, so sharding cannot win by adding cores.
const TOTAL_WORKERS: usize = 8;

/// Dense feature width of the standalone SpMM scaling curve.
const SPMM_DIM: usize = 16;

/// GCN dims: feature-sized layers keep SpMM (which scales with nnz)
/// dominant over GEMM (which scales with rows), as in the paper's
/// inference setting.
const IN_FEATURES: usize = 8;
const HIDDEN: usize = 8;
const CLASSES: usize = 4;

/// Remote halo rows cross the shard interconnect, modeled at 1/4 of a
/// node's streaming bandwidth (the classic NUMA/fabric discount).
const INTERCONNECT_SLOWDOWN: f64 = 4.0;

/// Modeled speedup floor the full run must clear (ISSUE acceptance).
const REQUIRED_FORWARD_SPEEDUP: f64 = 2.5;

/// Merge-item count: rows + nnz, the cost the planner balances on and
/// the unit `ns_per_item` is calibrated in.
fn items(rows: usize, nnz: usize) -> f64 {
    (rows + nnz) as f64
}

/// No-reuse SpMM traffic in bytes: CSR stream (8 B column index + 4 B
/// value per nnz), one dense operand row gathered per nnz, one output
/// row written per row.
fn spmm_bytes(rows: usize, nnz: usize, dim: usize) -> f64 {
    (nnz * 12 + nnz * dim * 4 + rows * dim * 4) as f64
}

/// Streamed GEMM traffic: read the activation and weight, write the
/// product.
fn gemm_bytes(rows: usize, k: usize, n: usize) -> f64 {
    ((rows * k + k * n + rows * n) * 4) as f64
}

/// Measured calibration constants, all in real units.
struct Calibration {
    /// Serial ns per merge item at each dense width used, measured on an
    /// L2-resident graph (compute ceiling).
    ns_per_item: Vec<(usize, f64)>,
    /// Serial ns per GEMM flop (multiply + add counted separately).
    ns_per_flop: f64,
    /// Streaming-copy bandwidth in bytes per nanosecond.
    bw: f64,
}

impl Calibration {
    fn item_ns(&self, dim: usize) -> f64 {
        self.ns_per_item
            .iter()
            .find(|(d, _)| *d == dim)
            .map(|(_, ns)| *ns)
            .expect("dim calibrated")
    }
}

fn calibrate(smoke: bool) -> Calibration {
    let (warm, iters) = if smoke { (2, 7) } else { (3, 15) };
    // ~150 KB CSR + a few-hundred-KB dense operand: resident in L2/L3,
    // so the measured rate is arithmetic + planner overhead, not DRAM.
    let cal = DatasetSpec::custom("shard-cal", GraphClass::PowerLaw, 1_500, 12_000, 300)
        .synthesize(SEED ^ 5);
    let serial = ExecEngine::with_worker_count(1);
    let kernel = BatchMergeSpmm::new();
    let mut ns_per_item = Vec::new();
    for dim in [SPMM_DIM, HIDDEN, CLASSES] {
        let b = DenseMatrix::from_fn(cal.cols(), dim, |r, c| {
            ((r * 29 + c * 13) % 23) as f32 * 0.25 - 2.5
        });
        let prep = serial.plan_cached(&kernel, &cal, dim, 0);
        let ns = time_ns(warm, iters, || {
            let _ = serial.execute_prepared(&prep, &cal, &b).unwrap();
        });
        ns_per_item.push((dim, ns / items(cal.rows(), cal.nnz())));
    }

    let h = DenseMatrix::from_fn(512, 32, |r, c| ((r * 7 + c) % 11) as f32 * 0.125 - 0.5);
    let w = DenseMatrix::from_fn(32, 32, |r, c| ((r * 3 + c * 5) % 13) as f32 * 0.25 - 1.5);
    let gemm_ns = time_ns(warm, iters, || {
        let _ = serial.gemm(&h, &w).unwrap();
    });
    let ns_per_flop = gemm_ns / (512.0 * 32.0 * 32.0 * 2.0);

    // Stream a buffer far past cache; count read + write traffic.
    let floats = if smoke { 4usize << 20 } else { 32usize << 20 };
    let src = vec![1.0f32; floats];
    let mut dst = vec![0.0f32; floats];
    let copy_ns = time_ns(1, if smoke { 3 } else { 5 }, || {
        dst.copy_from_slice(&src);
    });
    assert!(dst[floats / 2] == 1.0);
    let bw = (floats * 8) as f64 / copy_ns;

    Calibration {
        ns_per_item,
        ns_per_flop,
        bw,
    }
}

/// Per-shard halo census: (total halo rows, rows outside the own band).
fn halo_census(sharded: &ShardedCsr) -> Vec<(usize, usize)> {
    sharded
        .shards()
        .iter()
        .map(|s| {
            let band = s.row_range();
            let remote = s.halo_cols.iter().filter(|c| !band.contains(c)).count();
            (s.halo_cols.len(), remote)
        })
        .collect()
}

/// Modeled halo-gather ns for one shard at `dim`: local rows are a
/// node-bandwidth copy (read + write), remote rows cross the
/// interconnect.
fn halo_ns(halo: usize, remote: usize, dim: usize, cal: &Calibration) -> f64 {
    let local = (halo - remote) as f64 * (dim * 8) as f64 / cal.bw;
    let cross = remote as f64 * (dim * 4) as f64 * INTERCONNECT_SLOWDOWN / cal.bw;
    local + cross
}

/// Modeled SpMM wall for one engine over `rows`/`nnz` with `workers`
/// sharing one bandwidth domain.
fn spmm_wall(rows: usize, nnz: usize, dim: usize, workers: usize, cal: &Calibration) -> f64 {
    let compute = items(rows, nnz) * cal.item_ns(dim) / workers as f64;
    compute.max(spmm_bytes(rows, nnz, dim) / cal.bw)
}

/// Modeled GEMM wall (one bandwidth domain, `workers` cores).
fn gemm_wall(rows: usize, k: usize, n: usize, workers: usize, cal: &Calibration) -> f64 {
    let compute = (rows * k * n) as f64 * 2.0 * cal.ns_per_flop / workers as f64;
    compute.max(gemm_bytes(rows, k, n) / cal.bw)
}

/// Modeled sharded SpMM wall: slowest shard's roofline plus its halo
/// gather. `census` pairs with `sharded.shards()`.
fn sharded_spmm_wall(
    sharded: &ShardedCsr,
    census: &[(usize, usize)],
    dim: usize,
    workers_per_shard: usize,
    cal: &Calibration,
) -> f64 {
    sharded
        .shards()
        .iter()
        .zip(census)
        .map(|(s, &(halo, remote))| {
            spmm_wall(s.matrix.rows(), s.nnz(), dim, workers_per_shard, cal)
                + halo_ns(halo, remote, dim, cal)
        })
        .fold(0.0f64, f64::max)
}

/// Modeled two-layer GCN forward wall for the unsharded baseline.
fn forward_wall_single(rows: usize, nnz: usize, workers: usize, cal: &Calibration) -> f64 {
    gemm_wall(rows, IN_FEATURES, HIDDEN, workers, cal)
        + spmm_wall(rows, nnz, HIDDEN, workers, cal)
        + gemm_wall(rows, HIDDEN, CLASSES, workers, cal)
        + spmm_wall(rows, nnz, CLASSES, workers, cal)
}

/// Modeled two-layer GCN forward wall for a sharded engine: per layer,
/// the slowest shard's GEMM-band + SpMM + halo chain.
fn forward_wall_sharded(
    sharded: &ShardedCsr,
    census: &[(usize, usize)],
    workers_per_shard: usize,
    cal: &Calibration,
) -> f64 {
    let mut total = 0.0;
    for (k, n) in [(IN_FEATURES, HIDDEN), (HIDDEN, CLASSES)] {
        total += sharded
            .shards()
            .iter()
            .zip(census)
            .map(|(s, &(halo, remote))| {
                gemm_wall(s.matrix.rows(), k, n, workers_per_shard, cal)
                    + spmm_wall(s.matrix.rows(), s.nnz(), n, workers_per_shard, cal)
                    + halo_ns(halo, remote, n, cal)
            })
            .fold(0.0f64, f64::max);
    }
    total
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "BENCH shard",
        "multi-shard scale-out: modeled bandwidth-domain walls + real bit-identity",
        !smoke,
    );

    // Full graph: ~11x the nnz of the largest Table II input (PPI,
    // 818,716 nnz) — the scale where one memory domain is the wall.
    let (nodes, nnz, max_deg) = if smoke {
        (4_000, 40_000, 500)
    } else {
        (300_000, 9_000_000, 6_000)
    };
    let (warm, iters) = if smoke { (1, 5) } else { (1, 3) };

    println!("\nsynthesizing power-law graph: {nodes} nodes, {nnz} nnz ...");
    let a = DatasetSpec::custom("shard-powerlaw", GraphClass::PowerLaw, nodes, nnz, max_deg)
        .synthesize(SEED);
    let cal = calibrate(smoke);
    println!(
        "calibration: {} | gemm {:.3} ns/flop | stream {:.2} GB/s",
        cal.ns_per_item
            .iter()
            .map(|(d, ns)| format!("dim{d} {ns:.2} ns/item"))
            .collect::<Vec<_>>()
            .join(", "),
        cal.ns_per_flop,
        cal.bw * 1e9 / 1e9, // bytes/ns == GB/s
    );

    let b = DenseMatrix::from_fn(a.cols(), SPMM_DIM, |r, c| {
        ((r * 31 + c * 7) % 19) as f32 * 0.125 - 1.0
    });
    println!("sequential oracle on the full matrix (dim {SPMM_DIM}) ...");
    let oracle = {
        let plan = BatchMergeSpmm::new().plan(&a, SPMM_DIM);
        execute_sequential(&plan, &a, &b).unwrap().0
    };

    let x = DenseMatrix::from_fn(a.rows(), IN_FEATURES, |r, c| {
        ((r * 17 + c * 3) % 13) as f32 * 0.25 - 1.5
    });
    let model = GcnModel::two_layer(IN_FEATURES, HIDDEN, CLASSES, SEED);

    let baseline_spmm = spmm_wall(a.rows(), a.nnz(), SPMM_DIM, TOTAL_WORKERS, &cal);
    let baseline_fwd = forward_wall_single(a.rows(), a.nnz(), TOTAL_WORKERS, &cal);

    println!(
        "\n{:<7} {:>3} {:>14} {:>8} {:>14} {:>8} {:>10} {:>12} {:>9}",
        "shards",
        "w",
        "spmm model ns",
        "speedup",
        "fwd model ns",
        "speedup",
        "halo amp",
        "wall spmm ns",
        "bit-id"
    );

    let mut records = Vec::new();
    let mut forward_speedup_4 = 0.0f64;
    let mut forward_baseline: Option<DenseMatrix<f32>> = None;
    let mut all_bit_identical = true;

    for shards in [1usize, 2, 4, 8] {
        let wps = TOTAL_WORKERS / shards;
        let sharded = ShardedCsr::partition(&a, shards);
        let census = halo_census(&sharded);
        let amp = sharded.halo_amplification();
        let remote_rows: usize = census.iter().map(|&(_, r)| r).sum();

        // The 1-shard row *is* the single-engine baseline: no halo
        // gather, one bandwidth domain, all TOTAL_WORKERS cores.
        let (spmm_model, fwd_model) = if shards == 1 {
            (baseline_spmm, baseline_fwd)
        } else {
            (
                sharded_spmm_wall(&sharded, &census, SPMM_DIM, wps, &cal),
                forward_wall_sharded(&sharded, &census, wps, &cal),
            )
        };
        let spmm_speedup = baseline_spmm / spmm_model;
        let fwd_speedup = baseline_fwd / fwd_model;
        if shards == 4 {
            forward_speedup_4 = fwd_speedup;
        }

        // Real execution: wall (honest but serialized on this 1-core
        // container) and the bit-identity assertion vs the sequential
        // oracle at this exact shard x worker combination.
        let se = ShardedEngine::from_sharded(sharded, TOTAL_WORKERS);
        assert_eq!(se.workers_per_shard(), wps);
        let got = se.spmm(&b).unwrap();
        let bit_identical = got.as_slice() == oracle.as_slice();
        assert!(
            bit_identical,
            "sharded SpMM diverged from execute_sequential at shards={shards} workers={wps}"
        );
        all_bit_identical &= bit_identical;
        let wall_spmm = time_ns(warm, iters, || {
            let _ = se.spmm(&b).unwrap();
        });

        let fwd = model.forward_sharded(&se, &x).unwrap();
        match &forward_baseline {
            None => forward_baseline = Some(fwd),
            Some(base) => assert_eq!(
                fwd.as_slice(),
                base.as_slice(),
                "forward_sharded diverged from the 1-shard forward at shards={shards}"
            ),
        }

        println!(
            "{:<7} {:>3} {:>14.0} {:>7.2}x {:>14.0} {:>7.2}x {:>10.3} {:>12.0} {:>9}",
            shards,
            wps,
            spmm_model,
            spmm_speedup,
            fwd_model,
            fwd_speedup,
            amp,
            wall_spmm,
            bit_identical
        );

        records.push(format!(
            concat!(
                "    {{\"shards\": {}, \"workers_per_shard\": {}, \"total_workers\": {}, ",
                "\"model_spmm_wall_ns\": {:.0}, \"model_spmm_speedup\": {:.3}, ",
                "\"model_forward_wall_ns\": {:.0}, \"model_forward_speedup\": {:.3}, ",
                "\"halo_amplification\": {:.4}, \"remote_halo_rows\": {}, ",
                "\"wall_spmm_ns\": {:.0}, \"bit_identical\": {}}}"
            ),
            shards,
            wps,
            TOTAL_WORKERS,
            spmm_model,
            spmm_speedup,
            fwd_model,
            fwd_speedup,
            amp,
            remote_rows,
            wall_spmm,
            bit_identical
        ));
    }

    println!(
        "\n4-shard modeled forward speedup at {TOTAL_WORKERS} total workers: \
         {forward_speedup_4:.2}x (floor {REQUIRED_FORWARD_SPEEDUP:.1}x, enforced in full mode)"
    );
    if !smoke {
        assert!(
            forward_speedup_4 >= REQUIRED_FORWARD_SPEEDUP,
            "4-shard forward speedup {forward_speedup_4:.3} below the \
             {REQUIRED_FORWARD_SPEEDUP} acceptance floor"
        );
    }
    assert!(all_bit_identical);

    let json = format!(
        concat!(
            "{{\n  \"baseline\": \"single engine, {} workers, one bandwidth domain \
             (modeled roofline, measured calibrations)\",\n",
            "  \"speedup\": {:.3},\n",
            "  \"smoke\": {},\n",
            "  \"graph\": {{\"nodes\": {}, \"nnz\": {}, \"nnz_vs_largest_table2\": {:.2}}},\n",
            "  \"calibration\": {{\"ns_per_item\": {{{}}}, \"ns_per_flop\": {:.4}, ",
            "\"stream_bw_gbps\": {:.3}, \"interconnect_slowdown\": {:.1}}},\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"acceptance\": {{\n",
            "    \"forward_speedup_4_shards\": {:.3},\n",
            "    \"required_min\": {:.1},\n",
            "    \"bit_identical_all_combinations\": {}\n",
            "  }}\n}}\n"
        ),
        TOTAL_WORKERS,
        forward_speedup_4,
        smoke,
        nodes,
        nnz,
        nnz as f64 / 818_716.0,
        cal.ns_per_item
            .iter()
            .map(|(d, ns)| format!("\"{d}\": {ns:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
        cal.ns_per_flop,
        cal.bw,
        INTERCONNECT_SLOWDOWN,
        records.join(",\n"),
        forward_speedup_4,
        REQUIRED_FORWARD_SPEEDUP,
        all_bit_identical
    );
    std::fs::write("BENCH_shard.json", &json).expect("write BENCH_shard.json");
    println!("wrote BENCH_shard.json");
}
