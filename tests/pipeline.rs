//! End-to-end integration: synthetic graph → GCN normalization → one
//! engine forward, identical at every worker count and within tolerance
//! of every SpMM kernel's own plan replay.

use merge_path_spmm::core::{
    ExecEngine, MergePathSerialFixup, MergePathSpmm, NnzSplitSpmm, RowSplitSpmm, SerialSpmm,
    SpmmKernel,
};
use merge_path_spmm::gcn::ops::{self, Activation};
use merge_path_spmm::gcn::{online_inference, GcnLayer, GcnModel};
use merge_path_spmm::graphs::{find_dataset, gcn_normalize, DatasetSpec, GraphClass};
use merge_path_spmm::sparse::stats::DegreeStats;
use merge_path_spmm::sparse::{CsrMatrix, DenseMatrix};

fn kernels() -> Vec<Box<dyn SpmmKernel>> {
    vec![
        Box::new(SerialSpmm),
        Box::new(RowSplitSpmm::with_threads(64)),
        Box::new(NnzSplitSpmm::new()),
        Box::new(MergePathSerialFixup::with_threads(50)),
        Box::new(MergePathSpmm::new()),
    ]
}

/// The weights of `GcnModel::two_layer(features, hidden, classes, seed)`,
/// with each layer's activation, so a reference can replay the layers.
fn two_layer_weights(
    features: usize,
    hidden: usize,
    classes: usize,
    seed: u64,
) -> Vec<(DenseMatrix<f32>, Activation)> {
    vec![
        (ops::xavier_init(features, hidden, seed), Activation::Relu),
        (
            ops::xavier_init(hidden, classes, seed ^ 1),
            Activation::Identity,
        ),
    ]
}

/// The model forward at workers {1, 2, 7, 64}: every result must be `==`
/// to the 1-worker one, which is returned.
fn forward_at_every_worker_count(
    layers: &[(DenseMatrix<f32>, Activation)],
    a: &CsrMatrix<f32>,
    x: &DenseMatrix<f32>,
) -> DenseMatrix<f32> {
    let model = GcnModel::new(
        layers
            .iter()
            .map(|(w, act)| GcnLayer::new(w.clone(), *act))
            .collect(),
    );
    let one = model
        .forward(a, &[x], &ExecEngine::new(1))
        .expect("forward");
    for workers in [2, 7, 64] {
        let out = model
            .forward(a, &[x], &ExecEngine::new(workers))
            .expect("forward");
        assert_eq!(out, one, "workers={workers} differs from one worker");
    }
    one.into_iter()
        .next()
        .expect("one block in, one output out")
}

/// The per-layer reference on `kernel`'s own segment plan, replayed
/// sequentially (split rows fold in the plan's order).
fn kernel_reference(
    kernel: &dyn SpmmKernel,
    layers: &[(DenseMatrix<f32>, Activation)],
    a: &CsrMatrix<f32>,
    x: &DenseMatrix<f32>,
) -> DenseMatrix<f32> {
    let mut h = x.clone();
    for (w, act) in layers {
        let hw = ops::gemm(&h, w).expect("gemm");
        h = kernel
            .spmm_sequential(a, &hw)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()))
            .0;
        act.apply(&mut h);
    }
    h
}

#[test]
fn full_gcn_pipeline_agrees_across_kernels() {
    let spec = DatasetSpec::custom("pipe", GraphClass::PowerLaw, 800, 3_600, 120);
    let a = gcn_normalize(&spec.synthesize(5));
    let layers = two_layer_weights(24, 16, 5, 77);
    let x = ops::random_features(a.rows(), 24, 0.4, 8);

    let out = forward_at_every_worker_count(&layers, &a, &x);
    for kernel in kernels() {
        let reference = kernel_reference(kernel.as_ref(), &layers, &a, &x);
        let scale = reference.frobenius_norm().max(1.0);
        assert!(
            out.max_abs_diff(&reference).expect("same shape") < 1e-3 * scale,
            "{} diverges from the engine forward",
            kernel.name()
        );
    }
}

#[test]
fn structured_pipeline_agrees_too() {
    let spec = DatasetSpec::custom("mol", GraphClass::Structured, 1_500, 3_200, 6);
    let a = gcn_normalize(&spec.synthesize(9));
    let layers = two_layer_weights(8, 8, 3, 3);
    let x = ops::random_features(a.rows(), 8, 0.6, 4);
    let out = forward_at_every_worker_count(&layers, &a, &x);
    for kernel in kernels() {
        let reference = kernel_reference(kernel.as_ref(), &layers, &a, &x);
        assert!(
            out.approx_eq(&reference, 1e-3).expect("same shape"),
            "{} diverges from the engine forward",
            kernel.name()
        );
    }
}

#[test]
fn online_inference_overhead_is_sane_on_real_dataset() {
    let spec = find_dataset("Cora").expect("Cora in Table II");
    let a = gcn_normalize(&spec.synthesize(1));
    let model = GcnModel::two_layer(16, 16, 4, 5);
    let x = ops::random_features(a.rows(), 16, 0.3, 6);
    let kernel = MergePathSpmm::new();
    let (out, timing) = online_inference(&model, &a, &x, &kernel).expect("inference");
    assert_eq!(out.rows(), spec.nodes);
    assert!(timing.scheduling.as_nanos() > 0);
    // Scheduling must not dominate even on the smallest graph.
    assert!(
        timing.overhead_fraction() < 0.5,
        "scheduling overhead {:.1}% is implausible",
        timing.overhead_fraction() * 100.0
    );
}

#[test]
fn every_kernel_plan_is_valid_on_every_graph_class() {
    for (class, max_deg) in [(GraphClass::PowerLaw, 200), (GraphClass::Structured, 7)] {
        let spec = DatasetSpec::custom("v", class, 600, 2_400, max_deg);
        let a = spec.synthesize(11);
        let stats = DegreeStats::compute(&a);
        assert_eq!(stats.max, max_deg);
        for kernel in kernels() {
            for dim in [2usize, 16, 64] {
                let plan = kernel.plan(&a, dim);
                plan.validate(&a)
                    .unwrap_or_else(|e| panic!("{} dim {dim}: {e}", kernel.name()));
                assert_eq!(
                    plan.write_stats().total_nnz(),
                    a.nnz(),
                    "{} dim {dim}: plan must cover all non-zeros",
                    kernel.name()
                );
            }
        }
    }
}
