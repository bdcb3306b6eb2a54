//! GCN layers and models on the SpMM engine.

use mpspmm_core::{ExecEngine, Schedule};
use mpspmm_sparse::{CsrMatrix, DenseMatrix, SparseFormatError};

use crate::ops::Activation;

pub use mpspmm_core::Adjacency;

/// One graph-convolution layer: the engine's [`mpspmm_core::Layer`],
/// under the name this crate has always given it.
pub use mpspmm_core::Layer as GcnLayer;

/// A multi-layer GCN model.
///
/// # Example
///
/// ```
/// use mpspmm_core::ExecEngine;
/// use mpspmm_gcn::{GcnModel, ops};
/// use mpspmm_sparse::CsrMatrix;
///
/// let a = CsrMatrix::from_triplets(4, 4, &[(0, 1, 0.5f32), (1, 0, 0.5)])?;
/// let model = GcnModel::two_layer(8, 16, 3, 42);
/// let x = ops::random_features(4, 8, 0.5, 1);
/// let out = model.forward(&a, &[&x], &ExecEngine::new(4))?;
/// assert_eq!(out[0].cols(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GcnModel {
    layers: Vec<GcnLayer>,
}

impl GcnModel {
    /// Builds a model from explicit layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or consecutive widths are inconsistent.
    pub fn new(layers: Vec<GcnLayer>) -> Self {
        assert!(!layers.is_empty(), "model needs at least one layer");
        for w in layers.windows(2) {
            assert_eq!(
                w[0].out_features(),
                w[1].in_features(),
                "layer widths must chain"
            );
        }
        Self { layers }
    }

    /// The standard 2-layer GCN of the paper's evaluation:
    /// `features → hidden → classes` with ReLU in between
    /// (hidden = the "dimension size" swept in Figures 6–7).
    pub fn two_layer(features: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        Self::new(vec![
            GcnLayer::new(
                crate::ops::xavier_init(features, hidden, seed),
                Activation::Relu,
            ),
            GcnLayer::new(
                crate::ops::xavier_init(hidden, classes, seed ^ 1),
                Activation::Identity,
            ),
        ])
    }

    /// The model's layers.
    pub fn layers(&self) -> &[GcnLayer] {
        &self.layers
    }

    /// Input feature width the model expects (first layer's `in_features`).
    pub fn in_features(&self) -> usize {
        self.layers[0].in_features()
    }

    /// Output feature width the model produces (last layer's
    /// `out_features`).
    pub fn out_features(&self) -> usize {
        self.layers[self.layers.len() - 1].out_features()
    }

    /// Widest layer output: the width of the arena buffer every forward
    /// output is cut from.
    pub fn max_features(&self) -> usize {
        self.layers
            .iter()
            .map(GcnLayer::out_features)
            .max()
            .expect("model has at least one layer")
    }

    /// Forward pass on `engine`, returning one output per block, in
    /// order: [`ExecEngine::forward`] over the model's layers. `a_hat` is
    /// one graph ([`Adjacency::Graph`], or a plain `&CsrMatrix`) whose
    /// every block is a request's features, or a packed window of small
    /// graphs ([`Adjacency::Packed`]) with one block per graph, which
    /// runs as one pool dispatch with each worker taking every layer over
    /// its own graphs. Each graph's or block's output is its own
    /// one-graph, one-block forward, bit for bit.
    ///
    /// Layer 0's raw feature matrix and the hidden layers' dense
    /// activations all go through the engine's GEMM, whose result
    /// equals a zero-skipping GEMM's bit for bit whenever the weights are
    /// finite (see [`crate::ops::gemm`]); DESIGN.md §2.10 has the
    /// measurements that retired the skip.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when `a_hat` or any
    /// block's shape is inconsistent with the model.
    pub fn forward<'a>(
        &self,
        a_hat: impl Into<Adjacency<'a>>,
        blocks: &[&DenseMatrix<f32>],
        engine: &ExecEngine,
    ) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
        engine.forward(a_hat, blocks, &self.layers)
    }
}

/// Names the serving benchmark (`servebench/`) still calls, kept until it
/// moves to [`GcnModel::forward`]: one-line bodies, denied to the
/// workspace by the root `clippy.toml` (ROADMAP item 1a deletes them).
#[doc(hidden)]
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
impl GcnModel {
    pub fn forward_batched_prepared(
        &self,
        a_hat: &CsrMatrix<f32>,
        _prep: &mpspmm_core::PreparedPlan,
        blocks: &[&DenseMatrix<f32>],
        engine: &ExecEngine,
    ) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
        self.forward(a_hat, blocks, engine)
    }

    pub fn forward_cached(
        &self,
        a_hat: &CsrMatrix<f32>,
        x: &DenseMatrix<f32>,
        _kernel: &dyn mpspmm_core::SpmmKernel,
        engine: &ExecEngine,
        _epoch: u64,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        Ok(self.forward(a_hat, &[x], engine)?.remove(0))
    }
}

/// Online-vs-offline inference driver (Figure 8, §III-D and §V-C).
///
/// * **Online**: the MergePath-SpMM schedule is recomputed before the
///   inference (the graph may have changed) — the scheduling cost is paid
///   on every invocation.
/// * **Offline**: a prebuilt [`Schedule`] is reused across inferences.
///
/// [`InferenceTiming`] reports the split so the harness can compute the
/// scheduling-overhead percentage the paper reports (~2% geomean).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceTiming {
    /// Time spent computing the merge-path schedule.
    pub scheduling: std::time::Duration,
    /// Time spent in the dense GEMMs and SpMM kernels.
    pub execution: std::time::Duration,
}

impl InferenceTiming {
    /// Scheduling overhead as a fraction of total time, in `[0, 1]`.
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.scheduling + self.execution;
        if total.is_zero() {
            0.0
        } else {
            self.scheduling.as_secs_f64() / total.as_secs_f64()
        }
    }
}

/// Runs a 2-layer-style online inference: rebuilds the merge-path schedule,
/// then runs the model on [`ExecEngine::global`], timing both phases.
///
/// # Errors
///
/// Returns [`SparseFormatError::ShapeMismatch`] when shapes are
/// inconsistent.
pub fn online_inference(
    model: &GcnModel,
    a_hat: &CsrMatrix<f32>,
    x: &DenseMatrix<f32>,
    kernel: &mpspmm_core::MergePathSpmm,
) -> Result<(DenseMatrix<f32>, InferenceTiming), SparseFormatError> {
    // The online setting computes the schedule before the kernel
    // invocations (§V-C: "the MergePath-SpMM schedule is computed and
    // stored in global memory before two kernel invocations").
    let dim = model.layers[0].out_features();
    let t0 = std::time::Instant::now();
    let schedule: Schedule = kernel.schedule(a_hat, dim);
    let scheduling = t0.elapsed();
    // Keep the schedule alive as the kernels would reuse it; the engine
    // plans each aggregation itself, so only the measured scheduling
    // time is charged separately.
    let _ = &schedule;
    let t1 = std::time::Instant::now();
    let out = model.forward(a_hat, &[x], ExecEngine::global())?;
    let execution = t1.elapsed();
    Ok((
        out.into_iter()
            .next()
            .expect("one block in, one output out"),
        InferenceTiming {
            scheduling,
            execution,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{gemm, random_features, xavier_init};
    use mpspmm_core::{MergePathSpmm, NnzSplitSpmm, PackedGraphs, SerialSpmm, SpmmKernel};
    use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};

    fn small_graph() -> CsrMatrix<f32> {
        let spec = DatasetSpec::custom("t", GraphClass::PowerLaw, 100, 400, 30);
        gcn_normalize(&spec.synthesize(3))
    }

    /// The packed windows every constituent-path test runs: graphs with
    /// no non-zeros and with no rows among structured ones, a one-graph
    /// window, and a window where one power-law graph holds most of the
    /// `rows + nnz` items, so span cuts fall inside it.
    fn windows() -> Vec<Vec<CsrMatrix<f32>>> {
        let structured = |i: usize| {
            let spec = DatasetSpec::custom("m", GraphClass::Structured, 20 + i * 3, 60 + i * 10, 6);
            gcn_normalize(&spec.synthesize(i as u64))
        };
        let big = gcn_normalize(
            &DatasetSpec::custom("big", GraphClass::PowerLaw, 300, 3000, 120).synthesize(9),
        );
        vec![
            vec![
                structured(0),
                CsrMatrix::from_triplets(7, 7, &[]).unwrap(),
                structured(1),
                CsrMatrix::from_triplets(0, 0, &[]).unwrap(),
                structured(2),
                structured(3),
            ],
            vec![structured(4)],
            vec![structured(5), big, structured(6)],
        ]
    }

    /// Every graph's output of a packed forward is `==` to that graph's
    /// own forward, at workers {1, 2, 7, 64}: with no-bias and bias
    /// layers under ReLU and identity, and a sigmoid layer.
    #[test]
    fn packed_window_forward_matches_per_graph_forward() {
        let bias = |n: usize| (0..n).map(|j| j as f32 * 0.125 - 0.5).collect::<Vec<_>>();
        let models = [
            GcnModel::two_layer(8, 12, 3, 42),
            GcnModel::new(vec![
                GcnLayer::with_bias(xavier_init(8, 16, 3), bias(16), Activation::Relu),
                GcnLayer::with_bias(xavier_init(16, 5, 4), bias(5), Activation::Identity),
            ]),
            GcnModel::new(vec![
                GcnLayer::new(xavier_init(8, 6, 5), Activation::Sigmoid),
                GcnLayer::with_bias(xavier_init(6, 4, 6), bias(4), Activation::Relu),
            ]),
        ];
        let ref_engine = ExecEngine::new(1);
        for graphs in windows() {
            let window = PackedGraphs::new(&graphs);
            let feats: Vec<DenseMatrix<f32>> = graphs
                .iter()
                .enumerate()
                .map(|(i, g)| random_features(g.rows(), 8, 0.6, i as u64))
                .collect();
            let blocks: Vec<&DenseMatrix<f32>> = feats.iter().collect();
            for model in &models {
                let expect: Vec<DenseMatrix<f32>> = graphs
                    .iter()
                    .zip(&feats)
                    .map(|(g, x)| model.forward(g, &[x], &ref_engine).unwrap().remove(0))
                    .collect();
                for workers in [1, 2, 7, 64] {
                    let engine = ExecEngine::new(workers);
                    let outs = model.forward(&window, &blocks, &engine).unwrap();
                    let at = format!("{} graphs, workers={workers}", graphs.len());
                    assert_eq!(outs, expect, "{at}");
                }
            }
        }
    }

    #[test]
    fn two_layer_forward_has_expected_shape() {
        let a = small_graph();
        let model = GcnModel::two_layer(32, 16, 7, 11);
        let x = random_features(100, 32, 0.4, 2);
        let out = model
            .forward(&a, &[&x], &ExecEngine::new(2))
            .unwrap()
            .remove(0);
        assert_eq!(out.rows(), 100);
        assert_eq!(out.cols(), 7);
    }

    #[test]
    fn kernels_produce_matching_inference_results() {
        // Each kernel's own segment plan, replayed per layer, agrees with
        // the engine forward to rounding.
        let a = small_graph();
        let weights = [xavier_init(16, 8, 5), xavier_init(8, 4, 5 ^ 1)];
        let model = GcnModel::two_layer(16, 8, 4, 5);
        let x = random_features(100, 16, 0.4, 9);
        let got = model
            .forward(&a, &[&x], &ExecEngine::new(2))
            .unwrap()
            .remove(0);
        let kernels: [&dyn SpmmKernel; 3] = [
            &SerialSpmm,
            &MergePathSpmm::with_threads(8),
            &NnzSplitSpmm::new(),
        ];
        for kernel in kernels {
            let mut h = x.clone();
            for (w, act) in weights.iter().zip([Activation::Relu, Activation::Identity]) {
                h = kernel.spmm_sequential(&a, &gemm(&h, w).unwrap()).unwrap().0;
                act.apply(&mut h);
            }
            assert!(got.approx_eq(&h, 1e-3).unwrap(), "{}", kernel.name());
        }
    }

    #[test]
    fn relu_between_layers_bounds_hidden_values() {
        let a = small_graph();
        let model = GcnModel::two_layer(8, 4, 2, 1);
        let first = GcnModel::new(vec![model.layers()[0].clone()]);
        let x = random_features(100, 8, 0.5, 1);
        let h1 = first
            .forward(&a, &[&x], &ExecEngine::new(1))
            .unwrap()
            .remove(0);
        assert!(h1.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn online_inference_reports_timing() {
        let a = small_graph();
        let model = GcnModel::two_layer(16, 16, 4, 2);
        let x = random_features(100, 16, 0.4, 3);
        let kernel = MergePathSpmm::new();
        let (out, timing) = online_inference(&model, &a, &x, &kernel).unwrap();
        assert_eq!(out.rows(), 100);
        assert!(timing.overhead_fraction() >= 0.0 && timing.overhead_fraction() <= 1.0);
    }

    #[test]
    fn recycled_buffers_do_not_change_the_forward() {
        let a = small_graph();
        let model = GcnModel::two_layer(16, 16, 4, 2);
        let x = random_features(100, 16, 0.4, 3);
        let engine = ExecEngine::new(2);
        let first = model.forward(&a, &[&x], &engine).unwrap().remove(0);
        for _ in 0..10 {
            let out = model.forward(&a, &[&x], &engine).unwrap().remove(0);
            assert_eq!(out, first);
            engine.recycle(out);
        }
    }

    #[test]
    fn forward_reaches_zero_allocation_steady_state() {
        let a = small_graph();
        let model = GcnModel::two_layer(16, 16, 4, 2);
        let x = random_features(100, 16, 0.4, 3);
        let engine = ExecEngine::new(2);
        // Warm up: first passes populate the arena with the activation
        // and H×W scratch shapes this model cycles through.
        let mut outs = Vec::new();
        for _ in 0..2 {
            outs.push(model.forward(&a, &[&x], &engine).unwrap().remove(0));
        }
        for out in outs.drain(..) {
            engine.recycle(out);
        }
        let warm_misses = engine.stats().arena_misses;
        let warm_reuses = engine.stats().arena_reuses;
        for _ in 0..5 {
            let out = model.forward(&a, &[&x], &engine).unwrap().remove(0);
            engine.recycle(out);
        }
        let stats = engine.stats();
        assert_eq!(
            stats.arena_misses, warm_misses,
            "steady-state inference must not allocate fresh engine buffers"
        );
        assert!(stats.arena_reuses > warm_reuses);
    }

    /// A model of one layer per width step, ReLU between layers.
    fn chain(widths: &[usize]) -> GcnModel {
        let last = widths.len() - 2;
        GcnModel::new(
            widths
                .windows(2)
                .enumerate()
                .map(|(i, w)| {
                    let act = if i == last {
                        Activation::Identity
                    } else {
                        Activation::Relu
                    };
                    GcnLayer::new(xavier_init(w[0], w[1], 7 + i as u64), act)
                })
                .collect(),
        )
    }

    /// The served buffer pattern: a serving client drops its replies
    /// instead of recycling them. Once warm, every call then checks out
    /// exactly one fresh arena buffer per block, and every reply is a
    /// buffer sized for the model's widest activation, call after call, so
    /// the allocator refills the space the last reply freed. Widening and narrowing layers, 1 to 3 layers
    /// deep, one block and a 3-block batch.
    #[test]
    fn dropped_replies_cost_one_fresh_buffer_per_block_per_call() {
        let a = small_graph();
        let models: [&[usize]; 6] = [
            &[16, 8],
            &[8, 24],
            &[16, 32, 8],
            &[24, 8, 16],
            &[16, 32, 8, 24],
            &[24, 8, 32, 4],
        ];
        for widths in models {
            let model = chain(widths);
            for n in [1usize, 3] {
                let blocks: Vec<_> = (0..n)
                    .map(|i| random_features(100, widths[0], 0.4, 90 + i as u64))
                    .collect();
                let refs: Vec<&_> = blocks.iter().collect();
                let engine = ExecEngine::new(mpspmm_core::default_workers());
                let forward = || {
                    let before = engine.stats().arena_misses;
                    let outs = model.forward(&a, &refs, &engine).unwrap();
                    let fresh = engine.stats().arena_misses - before;
                    let caps: Vec<usize> =
                        outs.into_iter().map(|o| o.into_vec().capacity()).collect();
                    (fresh, caps)
                };
                for _ in 0..3 {
                    forward();
                }
                // Arena capacities round up to whole 64-byte lines.
                let widest = (100 * model.max_features()).next_multiple_of(16);
                for call in 0..4 {
                    let (fresh, caps) = forward();
                    let at = format!("widths={widths:?} blocks={n} call={call}");
                    assert_eq!(fresh, n as u64, "{at}: one fresh buffer per block");
                    assert_eq!(
                        caps,
                        vec![widest; n],
                        "{at}: replies hold the widest activation"
                    );
                }
            }
        }
    }

    /// [`dropped_replies_cost_one_fresh_buffer_per_block_per_call`] on a
    /// packed window: once warm, a call checks out exactly one fresh
    /// arena buffer per graph, its output, and nothing for a packed
    /// matrix or a stacked operand; each output is a buffer of that
    /// graph's own rows at the model's output width.
    #[test]
    fn dropped_packed_replies_cost_one_fresh_buffer_per_graph_per_call() {
        let models: [&[usize]; 4] = [&[16, 8], &[8, 24], &[16, 32, 2], &[24, 8, 32, 4]];
        for graphs in windows() {
            let window = PackedGraphs::new(&graphs);
            for widths in models {
                let model = chain(widths);
                let feats: Vec<_> = graphs
                    .iter()
                    .enumerate()
                    .map(|(i, g)| random_features(g.rows(), widths[0], 0.4, 90 + i as u64))
                    .collect();
                let refs: Vec<&_> = feats.iter().collect();
                let engine = ExecEngine::new(mpspmm_core::default_workers());
                let forward = || {
                    let before = engine.stats().arena_misses;
                    let outs = model.forward(&window, &refs, &engine).unwrap();
                    let fresh = engine.stats().arena_misses - before;
                    let caps: Vec<usize> =
                        outs.into_iter().map(|o| o.into_vec().capacity()).collect();
                    (fresh, caps)
                };
                for _ in 0..3 {
                    forward();
                }
                // Arena capacities round up to whole 64-byte lines.
                let own: Vec<usize> = graphs
                    .iter()
                    .map(|g| (g.rows() * model.out_features()).next_multiple_of(16))
                    .collect();
                for call in 0..4 {
                    let (fresh, caps) = forward();
                    let at = format!("widths={widths:?} graphs={} call={call}", graphs.len());
                    assert_eq!(
                        fresh,
                        graphs.len() as u64,
                        "{at}: one fresh buffer per graph"
                    );
                    assert_eq!(caps, own, "{at}: each reply holds its graph's rows");
                }
            }
        }
    }

    #[test]
    fn feature_width_accessors() {
        let model = GcnModel::two_layer(32, 16, 7, 11);
        assert_eq!(model.in_features(), 32);
        assert_eq!(model.out_features(), 7);
        assert_eq!(model.max_features(), 16);
    }

    #[test]
    fn batched_forward_matches_per_request_forward() {
        let a = small_graph();
        let model = GcnModel::two_layer(16, 12, 5, 8);
        let engine = ExecEngine::new(2);
        let blocks: Vec<_> = (0..4)
            .map(|i| random_features(100, 16, 0.4, 40 + i))
            .collect();
        let refs: Vec<&_> = blocks.iter().collect();
        let batched = model.forward(&a, &refs, &engine).unwrap();
        assert_eq!(batched.len(), 4);
        for (x, out) in blocks.iter().zip(&batched) {
            let solo = model.forward(&a, &[x], &engine).unwrap().remove(0);
            assert_eq!(out.rows(), 100);
            assert_eq!(out.cols(), 5);
            assert_eq!(out, &solo);
        }
    }

    #[test]
    fn batched_forward_single_worker_is_exact_vs_one_block_calls() {
        let a = small_graph();
        let model = GcnModel::two_layer(8, 8, 3, 4);
        let engine = ExecEngine::new(1);
        let blocks: Vec<_> = (0..3)
            .map(|i| random_features(100, 8, 0.5, 70 + i))
            .collect();
        let refs: Vec<&_> = blocks.iter().collect();
        let batched = model.forward(&a, &refs, &engine).unwrap();
        // Per-request forward on the same engine: the batch
        // merely regroups columns, so single-worker results are
        // bit-identical.
        for (x, out) in blocks.iter().zip(&batched) {
            let solo = model.forward(&a, &[x], &engine).unwrap();
            assert_eq!(out.max_abs_diff(&solo[0]).unwrap(), 0.0);
        }
        assert!(model.forward(&a, &[], &engine).unwrap().is_empty());
    }

    #[test]
    fn batched_forward_rejects_bad_block_shape() {
        let a = small_graph();
        let model = GcnModel::two_layer(16, 8, 4, 5);
        let engine = ExecEngine::new(1);
        let good = random_features(100, 16, 0.4, 1);
        let bad = random_features(100, 10, 0.4, 2);
        for blocks in [vec![&good, &bad], vec![&bad]] {
            assert!(matches!(
                model.forward(&a, &blocks, &engine),
                Err(SparseFormatError::ShapeMismatch { .. })
            ));
        }
    }

    #[test]
    #[should_panic(expected = "layer widths must chain")]
    fn mismatched_layer_widths_panic() {
        GcnModel::new(vec![
            GcnLayer::new(xavier_init(8, 4, 0), Activation::Relu),
            GcnLayer::new(xavier_init(5, 2, 0), Activation::Identity),
        ]);
    }

    #[test]
    fn layer_shape_mismatch_is_an_error() {
        let a = small_graph();
        let model = GcnModel::two_layer(16, 8, 4, 5);
        let bad_x = random_features(100, 10, 0.4, 9);
        assert!(model.forward(&a, &[&bad_x], &ExecEngine::new(1)).is_err());
    }
}
