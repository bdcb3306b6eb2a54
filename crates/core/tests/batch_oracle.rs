//! Property tests pinning **block-diagonal packed execution** to the
//! per-constituent sequential oracle: a batch of small graphs packed
//! onto one diagonal by [`BlockDiagCsr`] and executed as one prepared
//! run must be **bit-identical** — per constituent, after scattering
//! each row band back out — to running every constituent through
//! [`execute_sequential`] separately. Row spans never split a row across
//! workers, so every output row is one flat fold whatever the data path
//! or worker count. The row-aligned [`BatchMergeSpmm`] plan of a pack,
//! replayed sequentially, is held to the same oracle.
//!
//! The constituent path pins [`ExecEngine::spmm_packed`] to the same
//! per-graph oracle without building the pack: every graph of a
//! [`PackedGraphs`] window, read from its own CSR and its own operand
//! rows, equals that graph's own `ExecEngine::spmm`, bit for bit.
//!
//! The column-batch oracle pins a list of blocks through
//! [`ExecEngine::spmm`] the same way: every block of a list, folded in
//! place into its own output with the epilogue applied per block, equals
//! that block's own sequential row sum followed by the epilogue, at any
//! worker count.

use mpspmm_core::executor::execute_sequential;
use mpspmm_core::{
    default_workers, BatchMergeSpmm, DataPath, Epilogue, ExecEngine, PackedGraphs, PackedOut,
    SerialSpmm, SpmmKernel,
};
use mpspmm_sparse::{BlockDiagCsr, CsrMatrix, DenseMatrix, SparseFormatError};
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

/// `engine`'s plain product of `a` and the one block `x`.
fn product(engine: &ExecEngine, a: &CsrMatrix<f32>, x: &DenseMatrix<f32>) -> DenseMatrix<f32> {
    engine.spmm(a, &[x], &Epilogue::None).unwrap().remove(0)
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
                let out = product(&engine, pack.matrix(), &stacked);
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
        let out = product(&engine, pack.matrix(), &stacked);
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
    let engine = ExecEngine::new(2);
    let out = product(&engine, pack.matrix(), &stacked);
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
    let engine = ExecEngine::new(workers);
    let out = product(&engine, pack.matrix(), &stacked);
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

/// The engine's row spans over a pack equal per-graph sequential
/// execution exactly, on every data path at widths with and without a
/// fixed-width microkernel, at workers {1, 2, 8} and the resolved count;
/// a fused bias lands on every row, empty rows included.
#[test]
fn row_span_plans_bit_match_per_graph_sequential() {
    for (p, sizes) in PACKS.iter().enumerate() {
        for dim in [1usize, 2, 3, 4, 8, 16, 32] {
            let (pack, stacked, wants) = packed(sizes, dim, 40 + p as u64);
            let bias: Vec<f32> = (0..dim).map(|j| j as f32 * 0.5 - 1.25).collect();
            let epi = Epilogue::Bias(bias);
            for path in [DataPath::Scalar, DataPath::Vector] {
                for workers in [1usize, 2, 8, default_workers()] {
                    let engine = ExecEngine::with_data_path(workers, path);
                    let out = product(&engine, pack.matrix(), &stacked);
                    let biased = engine
                        .spmm(pack.matrix(), &[&stacked], &epi)
                        .unwrap()
                        .remove(0);
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

/// A 40 × 100 graph whose evil row 0 holds 100 of its 130 non-zeros
/// (more than a worker's share at two workers or more), with empty rows
/// (every fourth) and single-entry rows.
fn lopsided() -> CsrMatrix<f32> {
    let mut triplets: Vec<(usize, usize, f32)> =
        (0..100).map(|c| (0, c, 0.0625 * c as f32 - 3.0)).collect();
    for r in (1..40).filter(|r| r % 4 != 0) {
        triplets.push((r, (r * 7) % 100, 1.0 - 0.05 * r as f32));
    }
    CsrMatrix::from_triplets(40, 100, &triplets).unwrap()
}

/// Column batches by block widths: zero-width blocks, all single
/// columns (the interleave lane), a mixed batch, and four 16-column
/// blocks (the `nell-spmm` shape).
const COLUMN_BATCHES: [&[usize]; 4] = [&[0, 0], &[1; 5], &[1, 4, 3, 16], &[16; 4]];

/// The epilogues a column batch is checked under; a bias spans `width`
/// columns, the width every block must have for it to apply.
fn batch_epilogues(width: usize) -> [Epilogue; 4] {
    let bias: Vec<f32> = (0..width).map(|j| j as f32 * 0.25 - 1.0).collect();
    [
        Epilogue::None,
        Epilogue::Relu,
        Epilogue::Bias(bias.clone()),
        Epilogue::BiasRelu(bias),
    ]
}

/// The per-block oracle: `x`'s ascending row sum, then `epi` on every
/// row, empty rows included.
fn row_sum_then(a: &CsrMatrix<f32>, x: &DenseMatrix<f32>, epi: &Epilogue) -> DenseMatrix<f32> {
    let mut want = sequential_reference(a, x, x.cols());
    if x.cols() > 0 {
        for row in want.as_mut_slice().chunks_mut(x.cols()) {
            epi.apply_row(row);
        }
    }
    want
}

/// Every column batch, under every epilogue, on every data path, at
/// workers {1, 2, 7, 64} and the resolved count: each block's output
/// equals its own row sum followed by the epilogue, with `==`. A bias
/// that does not fit every block's width is rejected instead.
#[test]
fn column_batches_equal_the_per_block_row_sum() {
    let a = lopsided();
    for (i, widths) in COLUMN_BATCHES.iter().enumerate() {
        let blocks: Vec<DenseMatrix<f32>> = widths
            .iter()
            .enumerate()
            .map(|(j, &k)| features(a.cols(), k, (10 * i + j) as u64))
            .collect();
        let refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
        let uniform = widths.iter().all(|&k| k == widths[0]);
        for epi in batch_epilogues(widths[0]) {
            let fits = uniform || epi.bias().is_none();
            for workers in [1, 2, 7, 64, default_workers()] {
                for path in [DataPath::Scalar, DataPath::Vector] {
                    let engine = ExecEngine::with_data_path(workers, path);
                    let got = engine.spmm(&a, &refs, &epi);
                    let ctx = format!("widths={widths:?} epi={epi:?} w={workers} path={path:?}");
                    if !fits {
                        assert!(got.is_err(), "{ctx}: a bias must fit every block");
                        continue;
                    }
                    let got = got.unwrap();
                    assert_eq!(got.len(), blocks.len(), "{ctx}");
                    for (j, (out, x)) in got.iter().zip(&blocks).enumerate() {
                        assert_eq!((out.rows(), out.cols()), (a.rows(), x.cols()), "{ctx}");
                        let want = row_sum_then(&a, x, &epi);
                        assert_eq!(out.as_slice(), want.as_slice(), "{ctx} block {j}");
                    }
                }
            }
        }
    }
}

/// Arena checkouts of one batch call, from a cold engine.
fn checkouts(workers: usize, widths: &[usize]) -> u64 {
    let a = lopsided();
    let blocks: Vec<DenseMatrix<f32>> = widths.iter().map(|&k| features(100, k, 5)).collect();
    let refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
    let engine = ExecEngine::new(workers);
    engine.spmm(&a, &refs, &Epilogue::None).unwrap();
    let stats = engine.stats();
    stats.arena_reuses + stats.arena_misses
}

/// A batch checks out exactly one buffer per block (its output) and
/// stages nothing, unless every block is a single column: that lane
/// checks out two more, the interleaved operand and its result.
#[test]
fn column_batches_check_out_only_their_outputs() {
    for workers in [1, 2, default_workers()] {
        for widths in [&[1usize, 4, 3, 16][..], &[16; 4], &[2; 3], &[0, 5]] {
            assert_eq!(
                checkouts(workers, widths),
                widths.len() as u64,
                "widths={widths:?} workers={workers}"
            );
        }
        assert_eq!(checkouts(workers, &[1; 6]), 6 + 2, "workers={workers}");
    }
}

/// The windows the constituent path is checked on: a mixed window with a
/// no-edge graph, a zero-row graph and a rectangular lopsided graph; a
/// one-graph window; and a window where one graph holds most of the
/// `rows + nnz` items, so span cuts fall inside it.
fn constituent_windows() -> Vec<Vec<CsrMatrix<f32>>> {
    vec![
        vec![
            random_graph(9, 20, 41),
            random_graph(6, 0, 42),
            CsrMatrix::from_triplets(0, 0, &[]).unwrap(),
            lopsided(),
            random_graph(17, 51, 43),
        ],
        vec![random_graph(12, 30, 44)],
        vec![
            random_graph(3, 1, 45),
            random_graph(80, 2000, 46),
            random_graph(5, 8, 47),
        ],
    ]
}

/// Every graph's rows of a packed run equal, with `==`, that graph's own
/// `ExecEngine::spmm` under the same epilogue and its row sum followed
/// by the epilogue: for every window above, at widths 1 to 33, under
/// every epilogue, on both data paths, at workers {1, 2, 7, 64} and the
/// resolved count, with the operand as one block per graph or one
/// stacked block, and the output per graph or stacked.
#[test]
fn constituent_windows_equal_each_graphs_own_spmm() {
    for (w, graphs) in constituent_windows().iter().enumerate() {
        let window = PackedGraphs::new(graphs);
        for dim in [1usize, 4, 16, 33] {
            let feats: Vec<DenseMatrix<f32>> = graphs
                .iter()
                .enumerate()
                .map(|(i, g)| features(g.cols(), dim, (100 * w + i) as u64))
                .collect();
            let per_graph: Vec<&DenseMatrix<f32>> = feats.iter().collect();
            let all: Vec<f32> = feats.iter().flat_map(|x| x.as_slice()).copied().collect();
            let stacked = DenseMatrix::from_vec(window.cols(), dim, all).unwrap();
            for epi in batch_epilogues(dim) {
                let wants: Vec<DenseMatrix<f32>> = graphs
                    .iter()
                    .zip(&feats)
                    .map(|(g, x)| {
                        let own = ExecEngine::new(1).spmm(g, &[x], &epi).unwrap().remove(0);
                        assert_eq!(own, row_sum_then(g, x, &epi));
                        own
                    })
                    .collect();
                for workers in [1, 2, 7, 64, default_workers()] {
                    for path in [DataPath::Scalar, DataPath::Vector] {
                        let engine = ExecEngine::with_data_path(workers, path);
                        for b in [&per_graph[..], &[&stacked]] {
                            let ctx = format!(
                                "window {w} dim={dim} epi={epi:?} w={workers} {path:?} {} blocks",
                                b.len()
                            );
                            let outs = engine
                                .spmm_packed(&window, b, &epi, PackedOut::PerGraph)
                                .unwrap();
                            assert_eq!(outs, wants, "{ctx}");
                            let out = engine
                                .spmm_packed(&window, b, &epi, PackedOut::Stacked)
                                .unwrap()
                                .remove(0);
                            assert_eq!((out.rows(), out.cols()), (window.rows(), dim));
                            let mut rest = out.as_slice();
                            for (i, want) in wants.iter().enumerate() {
                                let (got, tail) = rest.split_at(want.as_slice().len());
                                assert_eq!(got, want.as_slice(), "{ctx} graph {i} stacked");
                                rest = tail;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A packed run checks nothing out for its operand: a stacked output is
/// one arena checkout, and per-graph outputs are one fresh buffer per
/// graph that leaves the pool untouched. A rejected call checks nothing
/// out: blocks that are neither one per graph nor one stacked block,
/// per-graph blocks of the wrong rows, and a bias of the wrong width.
#[test]
fn constituent_runs_check_out_only_their_outputs() {
    let graphs = constituent_windows().remove(0);
    let window = PackedGraphs::new(&graphs);
    let feats: Vec<DenseMatrix<f32>> = graphs.iter().map(|g| features(g.cols(), 4, 9)).collect();
    let refs: Vec<&DenseMatrix<f32>> = feats.iter().collect();
    let none = Epilogue::None;
    for workers in [1, 2, default_workers()] {
        let engine = ExecEngine::new(workers);
        let counts = || {
            let s = engine.stats();
            (s.arena_reuses, s.arena_misses)
        };
        let rejected = |b: &[&DenseMatrix<f32>], epi: &Epilogue| {
            let got = engine.spmm_packed(&window, b, epi, PackedOut::PerGraph);
            matches!(got, Err(SparseFormatError::ShapeMismatch { .. }))
        };
        let swapped: Vec<&DenseMatrix<f32>> = refs.iter().rev().copied().collect();
        let short = features(window.cols() - 1, 4, 9);
        assert!(rejected(&refs[1..], &none), "workers={workers}");
        assert!(rejected(&swapped, &none), "workers={workers}");
        assert!(rejected(&[&short], &none), "workers={workers}");
        assert!(
            rejected(&refs, &Epilogue::Bias(vec![0.5; 3])),
            "workers={workers}"
        );
        assert_eq!(
            counts(),
            (0, 0),
            "workers={workers}: rejected before checkout"
        );

        let out = engine
            .spmm_packed(&window, &refs, &none, PackedOut::Stacked)
            .unwrap();
        assert_eq!(counts(), (0, 1), "workers={workers}: one stacked output");
        engine.recycle(out.into_iter().next().unwrap());
        engine
            .spmm_packed(&window, &refs, &none, PackedOut::PerGraph)
            .unwrap();
        let n = graphs.len() as u64;
        assert_eq!(
            counts(),
            (0, 1 + n),
            "workers={workers}: one fresh buffer per graph"
        );
        engine
            .spmm_packed(&window, &refs, &none, PackedOut::Stacked)
            .unwrap();
        assert_eq!(
            counts(),
            (1, 1 + n),
            "workers={workers}: the pooled buffer waited"
        );
    }
}
