//! Property tests pinning **block-diagonal packed execution** to the
//! per-constituent sequential oracle: a batch of small graphs packed
//! onto one diagonal by [`BlockDiagCsr`] and executed as one prepared
//! run must be **bit-identical** — per constituent, after scattering
//! each row band back out — to running every constituent through
//! [`execute_sequential`] separately. Row spans never split a row across
//! workers, so every output row is one flat fold whatever the data path
//! or worker count. The row-aligned [`BatchMergeSpmm`] plan of a pack,
//! replayed sequentially, is held to the same oracle, and the row-span
//! plans the engine builds per window
//! ([`ExecEngine::plan_batch_cached`]) to its bytes and statistics.

use mpspmm_core::executor::execute_sequential;
use mpspmm_core::{
    default_workers, BatchMergeSpmm, BatchShapeClass, DataPath, Epilogue, ExecEngine, PreparedPlan,
    SerialSpmm, SpmmKernel, GATHER_MAX_NNZ,
};
use mpspmm_sparse::{BlockDiagCsr, CsrMatrix, DenseMatrix};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A random square graph; `nnz == 0` yields a completely empty matrix
/// (rows present, no edges) — a legal packed constituent.
fn random_graph(rows: usize, nnz: usize, seed: u64) -> CsrMatrix<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coords = std::collections::BTreeSet::new();
    while coords.len() < nnz.min(rows * rows) {
        coords.insert((rng.gen_range(0..rows), rng.gen_range(0..rows)));
    }
    let triplets: Vec<(usize, usize, f32)> = coords
        .into_iter()
        .map(|(r, c)| (r, c, rng.gen_range(-2.0..2.0)))
        .collect();
    CsrMatrix::from_triplets(rows, rows, &triplets).unwrap()
}

fn features(rows: usize, dim: usize, seed: u64) -> DenseMatrix<f32> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFEA7);
    DenseMatrix::from_fn(rows, dim, |_, _| rng.gen_range(-1.0..1.0))
}

/// Per-constituent oracle: a one-segment-per-row serial plan replayed by
/// `execute_sequential` — the flat ascending per-row fold the packed
/// row-aligned plan must reproduce inside each diagonal block.
fn sequential_reference(g: &CsrMatrix<f32>, x: &DenseMatrix<f32>, dim: usize) -> DenseMatrix<f32> {
    execute_sequential(&SerialSpmm.plan(g, dim), g, x)
        .unwrap()
        .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn packed_execution_bit_matches_per_graph_sequential(
        count in 2usize..6,
        dim in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut graphs: Vec<Arc<CsrMatrix<f32>>> = Vec::new();
        let mut feats = Vec::new();
        for i in 0..count {
            let rows = rng.gen_range(2usize..24);
            // The first constituent is always empty: packing must carry
            // zero-nnz graphs without disturbing its neighbours' bands.
            let nnz = if i == 0 { 0 } else { rng.gen_range(1..rows * 3) };
            let g = random_graph(rows, nnz, seed ^ (i as u64).wrapping_mul(0x9E37));
            feats.push(features(rows, dim, seed.wrapping_mul(31) ^ i as u64));
            graphs.push(Arc::new(g));
        }
        let pack = BlockDiagCsr::build(&graphs).unwrap();
        let stacked = pack.stack_features(&feats.iter().collect::<Vec<_>>()).unwrap();
        let plan = BatchMergeSpmm::new().plan(pack.matrix(), dim);
        plan.validate(pack.matrix()).unwrap();
        let wants: Vec<DenseMatrix<f32>> = graphs
            .iter()
            .zip(&feats)
            .map(|(g, x)| sequential_reference(g, x, dim))
            .collect();
        let (replay, _) = execute_sequential(&plan, pack.matrix(), &stacked).unwrap();
        for (i, want) in wants.iter().enumerate() {
            prop_assert_eq!(
                pack.scatter_block(&replay, i).as_slice(),
                want.as_slice(),
                "graph {} BatchMergeSpmm replay",
                i
            );
        }
        for path in [DataPath::Scalar, DataPath::Vector] {
            for &workers in &[1usize, 2, 8] {
                let engine = ExecEngine::with_data_path(workers, path);
                let prep = PreparedPlan::new(pack.matrix());
                let (out, _) = engine
                    .execute_prepared(&prep, pack.matrix(), &stacked)
                    .unwrap();
                for (i, want) in wants.iter().enumerate() {
                    let band = pack.scatter_block(&out, i);
                    prop_assert_eq!(
                        band.max_abs_diff(want).unwrap(),
                        0.0,
                        "graph {} path={:?} workers={}",
                        i, path, workers
                    );
                }
            }
        }
    }
}

/// A single-graph batch is zero-copy (the packed matrix *is* the
/// constituent) and must still execute bit-identically at every worker
/// count; a batch of entirely empty graphs must produce all-zero bands.
#[test]
fn single_graph_and_all_empty_batches_round_trip() {
    let g = Arc::new(random_graph(12, 30, 7));
    let pack = BlockDiagCsr::build(std::slice::from_ref(&g)).unwrap();
    assert!(
        Arc::ptr_eq(pack.matrix(), &g),
        "single-graph pack is zero-copy"
    );
    let x = features(12, 5, 3);
    let stacked = pack.stack_features(&[&x]).unwrap();
    let want = sequential_reference(&g, &x, 5);
    for &workers in &[1usize, 2, 8] {
        let engine = ExecEngine::new(workers);
        let prep = PreparedPlan::new(pack.matrix());
        let (out, _) = engine
            .execute_prepared(&prep, pack.matrix(), &stacked)
            .unwrap();
        assert_eq!(
            pack.scatter_block(&out, 0).max_abs_diff(&want).unwrap(),
            0.0,
            "workers={workers}"
        );
    }

    let empties: Vec<Arc<CsrMatrix<f32>>> = (0..3)
        .map(|i| Arc::new(random_graph(4 + i, 0, 0)))
        .collect();
    let pack = BlockDiagCsr::build(&empties).unwrap();
    assert_eq!(pack.nnz(), 0);
    let feats: Vec<DenseMatrix<f32>> = empties.iter().map(|g| features(g.rows(), 3, 1)).collect();
    let stacked = pack
        .stack_features(&feats.iter().collect::<Vec<_>>())
        .unwrap();
    let prep = PreparedPlan::new(pack.matrix());
    let engine = ExecEngine::new(2);
    let (out, _) = engine
        .execute_prepared(&prep, pack.matrix(), &stacked)
        .unwrap();
    assert!(out.as_slice().iter().all(|&v| v == 0.0));
}

/// The tier-1 matrix leg: at the resolved worker count (honouring
/// `MPSPMM_WORKERS`, swept over 1/2/8 by `scripts/tier1.sh`) a packed
/// batch with an adversarial mix — an evil heavy graph next to empty and
/// single-edge graphs — stays bit-identical to the per-graph oracle.
#[test]
fn resolved_worker_count_packed_batch_bit_matches_oracle() {
    let workers = default_workers();
    let graphs: Vec<Arc<CsrMatrix<f32>>> = vec![
        Arc::new(random_graph(6, 0, 1)),
        Arc::new(random_graph(40, 300, 2)),
        Arc::new(random_graph(3, 1, 3)),
        Arc::new(random_graph(17, 51, 4)),
    ];
    let dim = 9;
    let feats: Vec<DenseMatrix<f32>> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| features(g.rows(), dim, 100 + i as u64))
        .collect();
    let pack = BlockDiagCsr::build(&graphs).unwrap();
    let stacked = pack
        .stack_features(&feats.iter().collect::<Vec<_>>())
        .unwrap();
    let prep = PreparedPlan::new(pack.matrix());
    let engine = ExecEngine::new(workers);
    let (out, _) = engine
        .execute_prepared(&prep, pack.matrix(), &stacked)
        .unwrap();
    for (i, (g, x)) in graphs.iter().zip(&feats).enumerate() {
        let want = sequential_reference(g, x, dim);
        assert_eq!(
            pack.scatter_block(&out, i).max_abs_diff(&want).unwrap(),
            0.0,
            "graph {i} workers={workers}"
        );
    }
}

/// A pack of `sizes` graphs (rows, nnz), feature blocks of width `dim`,
/// and each graph's sequential reference.
type Packed = (BlockDiagCsr, DenseMatrix<f32>, Vec<DenseMatrix<f32>>);

fn packed(sizes: &[(usize, usize)], dim: usize, seed: u64) -> Packed {
    let graphs: Vec<Arc<CsrMatrix<f32>>> = sizes
        .iter()
        .enumerate()
        .map(|(i, &(rows, nnz))| Arc::new(random_graph(rows, nnz, seed + i as u64)))
        .collect();
    let feats: Vec<DenseMatrix<f32>> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| features(g.rows(), dim, seed ^ (i as u64 + 1)))
        .collect();
    let pack = BlockDiagCsr::build(&graphs).unwrap();
    let stacked = pack
        .stack_features(&feats.iter().collect::<Vec<_>>())
        .unwrap();
    let wants = graphs
        .iter()
        .zip(&feats)
        .map(|(g, x)| sequential_reference(g, x, dim))
        .collect();
    (pack, stacked, wants)
}

/// Packs with empty graphs among full ones, and a pack with no
/// non-zeros at all.
const PACKS: [&[(usize, usize)]; 2] = [
    &[(7, 0), (30, 140), (1, 1), (12, 0), (19, 60), (9, 30)],
    &[(5, 0), (3, 0), (8, 0)],
];

/// Row-span plans from `plan_batch_cached` equal per-graph sequential
/// execution exactly, on every data path at widths with and without a
/// fixed-width microkernel, at workers {1, 2, 8} and the resolved count;
/// a fused bias lands on every row, empty rows included.
#[test]
fn row_span_plans_bit_match_per_graph_sequential() {
    let class = BatchShapeClass::from_graphs(std::iter::empty());
    for (p, sizes) in PACKS.iter().enumerate() {
        for dim in [1usize, 2, 3, 4, 8, 16, 32] {
            let (pack, stacked, wants) = packed(sizes, dim, 40 + p as u64);
            let bias: Vec<f32> = (0..dim).map(|j| j as f32 * 0.5 - 1.25).collect();
            let epi = Epilogue::Bias(bias);
            for path in [DataPath::Auto, DataPath::Scalar, DataPath::Vector] {
                for workers in [1usize, 2, 8, default_workers()] {
                    let engine = ExecEngine::with_data_path(workers, path);
                    let prep = engine.plan_batch_cached(
                        &BatchMergeSpmm::new(),
                        pack.matrix(),
                        dim,
                        &class,
                    );
                    let (out, _) = engine
                        .execute_prepared(&prep, pack.matrix(), &stacked)
                        .unwrap();
                    let (biased, _) = engine
                        .execute_prepared_fused(&prep, pack.matrix(), &stacked, &epi)
                        .unwrap();
                    for (i, want) in wants.iter().enumerate() {
                        let ctx = format!("pack {p} graph {i} dim {dim} {path:?} w={workers}");
                        assert_eq!(
                            pack.scatter_block(&out, i).as_slice(),
                            want.as_slice(),
                            "{ctx}"
                        );
                        let mut want = want.clone();
                        for row in want.as_mut_slice().chunks_mut(dim) {
                            epi.apply_row(row);
                        }
                        let got = pack.scatter_block(&biased, i);
                        assert_eq!(got.as_slice(), want.as_slice(), "bias {ctx}");
                    }
                }
            }
        }
    }
}

/// A row-span plan gives the bytes of the sequential replay of the
/// `BatchMergeSpmm` plan of the same pack, whose boundaries come from the
/// same search, and reports that plan's write statistics and dispatch
/// split.
#[test]
fn row_span_plan_matches_the_batch_merge_plan() {
    let class = BatchShapeClass::from_graphs(std::iter::empty());
    for (p, sizes) in PACKS.iter().enumerate() {
        for dim in [1usize, 3, 8, 16] {
            let (pack, stacked, _) = packed(sizes, dim, 70 + p as u64);
            let merge = BatchMergeSpmm::new().plan(pack.matrix(), dim);
            let (want, want_stats) = execute_sequential(&merge, pack.matrix(), &stacked).unwrap();
            for workers in [1usize, 2, 8] {
                let engine = ExecEngine::new(workers);
                let spans =
                    engine.plan_batch_cached(&BatchMergeSpmm::new(), pack.matrix(), dim, &class);
                assert_eq!(spans.expected_stats(), want_stats);
                assert_eq!(
                    spans.dispatch_profile(),
                    merge.dispatch_profile(GATHER_MAX_NNZ)
                );
                assert_eq!(spans.shared_row_count(), 0);
                let (got, got_stats) = engine
                    .execute_prepared(&spans, pack.matrix(), &stacked)
                    .unwrap();
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "pack {p} dim {dim} w={workers}"
                );
                assert_eq!(got_stats, want_stats);
            }
        }
    }
}

/// The run-time row-count check covers row-span plans: executing one
/// against a matrix with another row count panics.
#[test]
#[should_panic(expected = "different row count")]
fn row_span_plan_rejects_a_matrix_with_another_row_count() {
    let (pack, stacked, _) = packed(PACKS[0], 4, 90);
    let engine = ExecEngine::new(2);
    let class = BatchShapeClass::from_graphs(std::iter::empty());
    let prep = engine.plan_batch_cached(&BatchMergeSpmm::new(), pack.matrix(), 4, &class);
    let taller = CsrMatrix::<f32>::zeros(pack.rows() + 1, pack.cols());
    let _ = engine.execute_prepared(&prep, &taller, &stacked);
}

/// `plan_batch_cached` builds a fresh row-span plan per call and stores
/// nothing.
#[test]
fn batch_plans_are_built_per_call_and_never_stored() {
    let (pack, _, _) = packed(PACKS[0], 8, 95);
    let engine = ExecEngine::new(3);
    let class = BatchShapeClass::from_graphs(std::iter::empty());
    let p1 = engine.plan_batch_cached(&BatchMergeSpmm::new(), pack.matrix(), 8, &class);
    let p2 = engine.plan_batch_cached(&BatchMergeSpmm::new(), pack.matrix(), 8, &class);
    assert!(!Arc::ptr_eq(&p1, &p2), "nothing is cached");
    let stats = engine.stats();
    assert_eq!(stats.batch_plan_misses, 2, "one build per call");
    assert_eq!((stats.batch_plan_hits, stats.batch_plan_rebuilds), (0, 0));
    engine.clear_cache();
    assert_eq!(engine.stats().batch_plan_misses, 0);
}
