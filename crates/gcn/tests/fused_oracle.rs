//! Fused-pipeline oracle: for every GCN layer configuration, data path
//! and worker count, the fused engine forward pass must agree **bit-**identically
//! with an unfused composition of the same engine primitives, whose
//! aggregation is the ascending row sum at any worker count.
//!
//! The GCN model paths are also pinned exactly to the seed zero-skip
//! GEMM loop, inlined here as an oracle.

use mpspmm_core::{default_workers, DataPath, Epilogue, ExecEngine};
use mpspmm_gcn::ops::{random_features, xavier_init, Activation};
use mpspmm_gcn::{GcnLayer, GcnModel};
use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};

const NODES: usize = 120;
const IN_DIM: usize = 12;

fn graph() -> CsrMatrix<f32> {
    DatasetSpec::custom("fused", GraphClass::PowerLaw, NODES, 600, 40).synthesize(9)
}

fn worker_counts() -> Vec<usize> {
    let mut ws = vec![1, 2, 7, 64, default_workers()];
    ws.sort_unstable();
    ws.dedup();
    ws
}

fn engine_matrix() -> Vec<(DataPath, usize)> {
    let mut m = Vec::new();
    for path in [DataPath::Scalar, DataPath::Vector, DataPath::Auto] {
        for &w in &worker_counts() {
            m.push((path, w));
        }
    }
    m
}

fn assert_matches(
    got: &DenseMatrix<f32>,
    want: &DenseMatrix<f32>,
    label: &str,
    path: DataPath,
    workers: usize,
) {
    assert_eq!(
        got.as_slice(),
        want.as_slice(),
        "{label} fused != unfused oracle (path={path:?} workers={workers})"
    );
}

/// One GCN configuration under test, holding its own copies of the
/// weight/bias so the unfused oracle can recompose the layer from
/// engine primitives.
struct GcnCase {
    label: &'static str,
    layer: GcnLayer,
    weight: DenseMatrix<f32>,
    bias: Option<Vec<f32>>,
    activation: Activation,
}

fn gcn_cases() -> Vec<GcnCase> {
    let w = xavier_init(IN_DIM, 16, 21);
    let bias: Vec<f32> = (0..16).map(|j| (j as f32) * 0.125 - 1.0).collect();
    vec![
        GcnCase {
            label: "gcn-bias-relu",
            layer: GcnLayer::with_bias(w.clone(), bias.clone(), Activation::Relu),
            weight: w.clone(),
            bias: Some(bias.clone()),
            activation: Activation::Relu,
        },
        GcnCase {
            label: "gcn-identity",
            layer: GcnLayer::new(w.clone(), Activation::Identity),
            weight: w.clone(),
            bias: None,
            activation: Activation::Identity,
        },
        GcnCase {
            label: "gcn-bias-sigmoid-unfused-fallback",
            layer: GcnLayer::with_bias(w.clone(), bias.clone(), Activation::Sigmoid),
            weight: w,
            bias: Some(bias),
            activation: Activation::Sigmoid,
        },
    ]
}

#[test]
fn fused_layer_matches_unfused_oracle() {
    let a = gcn_normalize(&graph());
    let x = random_features(NODES, IN_DIM, 0.4, 33);

    // The fused epilogue path proper, as a one-layer model.
    for case in gcn_cases() {
        let model = GcnModel::new(vec![case.layer.clone()]);
        for &(path, workers) in &engine_matrix() {
            let engine = ExecEngine::with_data_path(workers, path);
            let fused = model.forward(&a, &[&x], &engine).unwrap().remove(0);
            // Unfused composition on the same engine: engine GEMM, plain
            // SpMM, then bias and activation as separate passes.
            let hw = engine.gemm(&x, &case.weight).unwrap();
            let mut want = engine.spmm(&a, &[&hw], &Epilogue::None).unwrap().remove(0);
            if let Some(bias) = &case.bias {
                for r in 0..want.rows() {
                    for (v, &b) in want.row_mut(r).iter_mut().zip(bias) {
                        *v += b;
                    }
                }
            }
            case.activation.apply(&mut want);
            assert_matches(&fused, &want, case.label, path, workers);
        }
    }
}

/// The wide-feature-dim data path end to end: a GCN layer with a
/// 256-wide hidden dimension, at several worker counts, must stay
/// **bit-identical** to the unfused composition on the same engine —
/// every row has one writer, so the fused epilogue lands on exactly the
/// values the unfused run returns.
#[test]
fn wide_hidden_dim_fused_equals_unfused() {
    const OUT_DIM: usize = 256;
    let a = gcn_normalize(&graph());
    let x = random_features(NODES, IN_DIM, 0.4, 34);
    let w = xavier_init(IN_DIM, OUT_DIM, 80);
    let bias: Vec<f32> = (0..OUT_DIM)
        .map(|j| (j % 11) as f32 * 0.125 - 0.5)
        .collect();
    let model = GcnModel::new(vec![GcnLayer::with_bias(
        w.clone(),
        bias.clone(),
        Activation::Relu,
    )]);
    for workers in worker_counts() {
        let engine = ExecEngine::new(workers);
        let fused = model.forward(&a, &[&x], &engine).unwrap().remove(0);
        let hw = engine.gemm(&x, &w).unwrap();
        let mut want = engine.spmm(&a, &[&hw], &Epilogue::None).unwrap().remove(0);
        for r in 0..want.rows() {
            for (v, &b) in want.row_mut(r).iter_mut().zip(&bias) {
                *v += b;
            }
        }
        Activation::Relu.apply(&mut want);
        assert_eq!(
            fused.max_abs_diff(&want).unwrap(),
            0.0,
            "wide-dim fused != unfused oracle (workers={workers})"
        );
    }
}

/// The fused batched path must match per-request fused forwards: the
/// batch folds each block into its own output, and the layer's bias must
/// land on each block exactly as it does on a one-request forward.
#[test]
fn fused_batched_forward_matches_per_request() {
    let a = gcn_normalize(&graph());
    let model = GcnModel::new(vec![
        GcnLayer::with_bias(
            xavier_init(IN_DIM, 10, 60),
            (0..10).map(|j| j as f32 * 0.25 - 1.0).collect(),
            Activation::Relu,
        ),
        GcnLayer::with_bias(
            xavier_init(10, 4, 61),
            vec![0.5, -0.5, 1.0, 0.0],
            Activation::Identity,
        ),
    ]);
    for workers in worker_counts() {
        let engine = ExecEngine::new(workers);
        let blocks: Vec<DenseMatrix<f32>> = (0..3)
            .map(|i| random_features(NODES, IN_DIM, 0.4, 70 + i))
            .collect();
        let refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
        let batched = model.forward(&a, &refs, &engine).unwrap();
        for (x, out) in blocks.iter().zip(&batched) {
            let solo = model.forward(&a, &[x], &engine).unwrap();
            assert_eq!(
                out.max_abs_diff(&solo[0]).unwrap(),
                0.0,
                "batched fused (workers={workers}) must be exact vs solo"
            );
        }
    }
}

/// The seed layer-0 combination: naive `ikj` GEMM with its `a == 0.0`
/// skip, kept here as the oracle the served paths are pinned to.
fn zero_skip_gemm(a: &DenseMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
    let mut out = DenseMatrix::<f32>::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let orow = out.row_mut(i);
        for (p, &av) in a.row(i).iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (dst, &bv) in orow.iter_mut().zip(b.row(p)) {
                *dst += av * bv;
            }
        }
    }
    out
}

/// Raw features at density 0.5: half the entries are stored zeros, and
/// every third entry is negated, so the matrix holds negative values
/// and `-0.0` zeros too.
fn raw_features(cols: usize, seed: u64) -> DenseMatrix<f32> {
    let mut x = random_features(NODES, cols, 0.5, seed);
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        if i % 3 == 0 {
            *v = -*v;
        }
    }
    x
}

/// Every layer's combination, layer 0 included, runs on the engine
/// GEMM. The served batch path and the one-request path must still return
/// the exact bits of the seed composition: the zero-skip loop for each
/// combination, then the same engine's fused aggregation. Exact at
/// every worker count, because both sides run the same aggregation on
/// the same engine.
#[test]
fn model_paths_match_zero_skip_composition_exactly() {
    const RAW: usize = 50;
    const HIDDEN: usize = 128;
    const CLASSES: usize = 16;
    let a = gcn_normalize(&graph());
    let weights = [
        xavier_init(RAW, HIDDEN, 90),
        xavier_init(HIDDEN, CLASSES, 91),
    ];
    let model = GcnModel::new(vec![
        GcnLayer::with_bias(
            weights[0].clone(),
            (0..HIDDEN)
                .map(|j| (j % 7) as f32 * 0.125 - 0.375)
                .collect(),
            Activation::Relu,
        ),
        GcnLayer::with_bias(
            weights[1].clone(),
            (0..CLASSES).map(|j| j as f32 * 0.0625 - 0.5).collect(),
            Activation::Identity,
        ),
    ]);
    let blocks: Vec<DenseMatrix<f32>> = (0..3).map(|i| raw_features(RAW, 95 + i)).collect();
    for &(path, workers) in &engine_matrix() {
        let engine = ExecEngine::with_data_path(workers, path);

        // One block: forward vs zero-skip GEMM + fused engine SpMM per
        // layer.
        let got = model.forward(&a, &[&blocks[0]], &engine).unwrap().remove(0);
        let mut want = blocks[0].clone();
        for (layer, w) in model.layers().iter().zip(&weights) {
            let hw = zero_skip_gemm(&want, w);
            let epi = layer.epilogue().expect("relu and identity fuse");
            want = engine.spmm(&a, &[&hw], epi).unwrap().remove(0);
        }
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "forward (path={path:?} workers={workers})"
        );

        // Three blocks: forward vs zero-skip GEMM per block + one engine
        // SpMM over every block per layer with the layer's own epilogue,
        // which the engine applies per block.
        let refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
        let got = model.forward(&a, &refs, &engine).unwrap();
        let mut want: Vec<DenseMatrix<f32>> = blocks.clone();
        for (layer, w) in model.layers().iter().zip(&weights) {
            let products: Vec<DenseMatrix<f32>> =
                want.iter().map(|h| zero_skip_gemm(h, w)).collect();
            let epi = layer.epilogue().expect("relu and identity fuse");
            let prefs: Vec<&DenseMatrix<f32>> = products.iter().collect();
            want = engine.spmm(&a, &prefs, epi).unwrap();
        }
        assert_eq!(got.len(), want.len());
        for (j, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.as_slice(),
                w.as_slice(),
                "batched forward block {j} (path={path:?} workers={workers})"
            );
        }
    }
}
