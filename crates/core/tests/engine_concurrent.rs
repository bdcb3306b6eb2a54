//! Property test for *concurrent* engine use: one shared [`ExecEngine`]
//! and shared graphs driven from many threads at once — the
//! exact shape the serving layer (`mpspmm-serve`) puts the engine in —
//! and, separately, one engine per thread, all on the process-wide pool.
//!
//! Each thread runs its own request stream against one of several shared
//! graphs and compares every result to the ascending row sum (the serial
//! plan's sequential replay) computed up front, with `==`. This pins
//! down that the worker pool and the engine's one SpMM entry point are
//! safe to share: no cross-talk between interleaved jobs and no torn
//! outputs.

use std::sync::Arc;
use std::thread;

use mpspmm_core::executor::execute_sequential;
use mpspmm_core::{Epilogue, ExecEngine, SerialSpmm, SpmmKernel};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Engine worker counts the property tests draw from.
const WORKERS: [usize; 4] = [1, 2, 7, 64];

/// The ascending row sum of `a · b`.
fn row_sum(a: &CsrMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
    execute_sequential(&SerialSpmm.plan(a, b.cols()), a, b)
        .unwrap()
        .0
}

/// A random square CSR matrix with a heavy first row (longer than a
/// worker's share) and `streams` dense operands derived from `seed`.
fn random_graph(
    rows: usize,
    nnz: usize,
    dim: usize,
    streams: usize,
    seed: u64,
) -> (CsrMatrix<f32>, Vec<DenseMatrix<f32>>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coords = std::collections::BTreeSet::new();
    for c in 0..(nnz / 3).min(rows) {
        coords.insert((0usize, c));
    }
    while coords.len() < nnz.min(rows * rows) {
        coords.insert((rng.gen_range(0..rows), rng.gen_range(0..rows)));
    }
    let triplets: Vec<(usize, usize, f32)> = coords
        .into_iter()
        .map(|(r, c)| (r, c, rng.gen_range(-2.0..2.0)))
        .collect();
    let a = CsrMatrix::from_triplets(rows, rows, &triplets).unwrap();
    let blocks = (0..streams)
        .map(|s| {
            let mut frng = SmallRng::seed_from_u64(seed ^ (0x5EED + s as u64));
            DenseMatrix::from_fn(rows, dim, |_, _| frng.gen_range(-1.0..1.0))
        })
        .collect();
    (a, blocks)
}

/// N threads × M graphs × K requests each, every thread on
/// `engines[t]` and all of them sharing each graph, whatever their
/// worker counts;
/// every answer is checked against the oracle computed before any thread
/// started. Returns one message per failing thread.
fn run_concurrent_requests(
    rows: usize,
    fill: usize,
    seed: u64,
    engines: &[Arc<ExecEngine>],
) -> Vec<String> {
    const GRAPHS: usize = 3;
    const REQUESTS_PER_THREAD: usize = 4;
    let threads = engines.len();

    let nnz = (rows * fill).min(rows * rows);

    // Build the shared graphs and per-stream oracles.
    let mut shared = Vec::with_capacity(GRAPHS);
    for g in 0..GRAPHS {
        let dim = [3usize, 8, 17][g % 3];
        let (a, blocks) = random_graph(rows, nnz, dim, threads, seed ^ g as u64);
        let oracles: Vec<DenseMatrix<f32>> = blocks.iter().map(|b| row_sum(&a, b)).collect();
        shared.push(Arc::new((a, blocks, oracles)));
    }
    let shared = Arc::new(shared);

    thread::scope(|scope| {
        let handles: Vec<_> = engines
            .iter()
            .enumerate()
            .map(|(t, engine)| {
                let engine = Arc::clone(engine);
                let shared = Arc::clone(&shared);
                scope.spawn(move || -> Result<(), String> {
                    for r in 0..REQUESTS_PER_THREAD {
                        // Every thread walks the graphs in a different
                        // order so distinct graphs interleave in the pool.
                        let g = (t + r) % GRAPHS;
                        let (a, blocks, oracles) = &*shared[g];
                        let b = &blocks[t];
                        let want = &oracles[t];
                        let got = engine
                            .spmm(a, &[b], &Epilogue::None)
                            .map_err(|e| format!("thread {t} graph {g}: {e}"))?
                            .remove(0);
                        if got.as_slice() != want.as_slice() {
                            let diff = got.max_abs_diff(want).unwrap();
                            return Err(format!(
                                "thread {t} req {r} graph {g}: differs from the row sum by {diff}"
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("worker thread panicked").err())
            .collect()
    })
}

const CLIENT_THREADS: usize = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All threads drive ONE shared engine.
    #[test]
    fn shared_engine_is_correct_under_concurrent_use(
        rows in 4usize..40,
        fill in 1usize..5,
        workers in 0usize..4,
        seed in any::<u64>(),
    ) {
        let engine = Arc::new(ExecEngine::new(WORKERS[workers]));
        let engines = vec![engine; CLIENT_THREADS];
        let failures = run_concurrent_requests(rows, fill, seed, &engines);
        prop_assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    /// Every thread owns its own engine, and all of them submit to the one
    /// process-wide worker pool at once (the shape of a server's engine
    /// beside a reference engine): no engine may observe another's jobs.
    #[test]
    fn engine_per_thread_is_correct_on_the_shared_pool(
        rows in 4usize..40,
        fill in 1usize..5,
        seed in any::<u64>(),
    ) {
        // Engines of every worker count side by side on the one pool.
        let engines: Vec<Arc<ExecEngine>> = (0..CLIENT_THREADS)
            .map(|t| Arc::new(ExecEngine::new(WORKERS[t % WORKERS.len()])))
            .collect();
        let failures = run_concurrent_requests(rows, fill, seed, &engines);
        prop_assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}
