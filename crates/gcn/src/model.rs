//! GCN layers and models over pluggable SpMM kernels.

use mpspmm_core::{
    parallel_apply_chunks, spgemm_flops_upper_bound, Epilogue, ExecEngine, Schedule, SpmmKernel,
};
use mpspmm_sparse::{CsrMatrix, DenseMatrix, SparseFormatError};

use crate::ops::{gemm, Activation};

/// One graph-convolution layer: `H' = σ(Â · H · W + b)`.
///
/// The forward pass computes the dense combination `H × W` first, then the
/// sparse aggregation `Â × (HW)` through the supplied [`SpmmKernel`] —
/// the `A × (X × W)` multiplication order all the paper's accelerators
/// implement (§II). The optional per-column bias `b` and the activation
/// form the layer's epilogue; on the engine path they are fused into the
/// aggregation's store stage ([`Epilogue`]) instead of re-streaming the
/// output.
#[derive(Debug, Clone, PartialEq)]
pub struct GcnLayer {
    weight: DenseMatrix<f32>,
    bias: Option<Vec<f32>>,
    activation: Activation,
    /// Precomputed fused form of `bias` + `activation`; `None` when the
    /// activation has no store-stage form (sigmoid) and the engine path
    /// must fall back to a separate element-wise pass.
    epilogue: Option<Epilogue>,
}

/// `bias` repeated `blocks` times — the combined-width epilogue of a
/// batched aggregation whose blocks all share one layer width.
fn tile_bias(bias: &[f32], blocks: usize) -> Vec<f32> {
    let mut tiled = Vec::with_capacity(bias.len() * blocks);
    for _ in 0..blocks {
        tiled.extend_from_slice(bias);
    }
    tiled
}

fn build_epilogue(bias: &Option<Vec<f32>>, activation: Activation) -> Option<Epilogue> {
    match (bias, activation) {
        (None, Activation::Identity) => Some(Epilogue::None),
        (None, Activation::Relu) => Some(Epilogue::Relu),
        (Some(b), Activation::Identity) => Some(Epilogue::Bias(b.clone())),
        (Some(b), Activation::Relu) => Some(Epilogue::BiasRelu(b.clone())),
        (_, Activation::Sigmoid) => None,
    }
}

impl GcnLayer {
    /// Creates a layer from a trained/initialized weight matrix.
    pub fn new(weight: DenseMatrix<f32>, activation: Activation) -> Self {
        let bias = None;
        let epilogue = build_epilogue(&bias, activation);
        Self {
            weight,
            bias,
            activation,
            epilogue,
        }
    }

    /// Creates a layer with a per-output-column bias: `σ(Â·H·W + b)`.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.cols()`.
    pub fn with_bias(weight: DenseMatrix<f32>, bias: Vec<f32>, activation: Activation) -> Self {
        assert_eq!(
            bias.len(),
            weight.cols(),
            "bias width must match output features"
        );
        let bias = Some(bias);
        let epilogue = build_epilogue(&bias, activation);
        Self {
            weight,
            bias,
            activation,
            epilogue,
        }
    }

    /// The layer's input feature width.
    pub fn in_features(&self) -> usize {
        self.weight.rows()
    }

    /// The layer's output feature width (the SpMM dense dimension).
    pub fn out_features(&self) -> usize {
        self.weight.cols()
    }

    /// The layer's per-column bias, if any.
    pub fn bias(&self) -> Option<&[f32]> {
        self.bias.as_deref()
    }

    /// The store-stage form of this layer's bias + activation, when one
    /// exists (sigmoid has none and always runs unfused).
    pub fn epilogue(&self) -> Option<&Epilogue> {
        self.epilogue.as_ref()
    }

    /// The unfused epilogue: bias add then activation, each a separate
    /// pass over `out`. The fused engine path produces element-identical
    /// results without these extra passes.
    fn apply_unfused(&self, out: &mut DenseMatrix<f32>) {
        if let Some(bias) = &self.bias {
            let cols = out.cols();
            if cols > 0 {
                parallel_apply_chunks(out.as_mut_slice(), cols, |_, span| {
                    for row in span.chunks_mut(cols) {
                        for (v, &b) in row.iter_mut().zip(bias) {
                            *v += b;
                        }
                    }
                });
            }
        }
        self.activation.apply(out);
    }

    /// Forward pass: `σ(Â × (H × W) + b)`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when the feature or
    /// adjacency shapes are inconsistent.
    pub fn forward(
        &self,
        a_hat: &CsrMatrix<f32>,
        h: &DenseMatrix<f32>,
        kernel: &dyn SpmmKernel,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        let hw = gemm(h, &self.weight)?;
        let mut out = kernel.spmm(a_hat, &hw)?;
        self.apply_unfused(&mut out);
        Ok(out)
    }

    /// Forward pass on `engine` as one fused pipeline: the dense
    /// combination `H × W` runs on the engine's parallel k-blocked GEMM
    /// ([`ExecEngine::gemm`]), and the aggregation ([`ExecEngine::spmm`],
    /// which plans `Â` per call) applies the layer's bias/activation
    /// [`Epilogue`] at the SpMM store stage instead of re-streaming the
    /// output afterwards.
    ///
    /// The dense product `H × W` is recycled into the engine's buffer
    /// arena once the aggregation has consumed it, so after warm-up the
    /// per-layer scratch comes from the pool instead of the allocator.
    ///
    /// This serves every layer, the first included: a model's moderately
    /// sparse raw features go through the same engine GEMM as dense
    /// hidden activations. Its result equals a zero-skipping GEMM's bit
    /// for bit whenever the weights are finite (see [`crate::ops::gemm`]);
    /// DESIGN.md §2.10 has the measurements that retired the skip.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when the feature or
    /// adjacency shapes are inconsistent.
    pub fn forward_cached(
        &self,
        a_hat: &CsrMatrix<f32>,
        h: &DenseMatrix<f32>,
        engine: &ExecEngine,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        let hw = engine.gemm(h, &self.weight)?;
        self.aggregate_fused(a_hat, hw, engine)
    }

    /// The shared aggregation tail of the engine paths: fused epilogue
    /// when the activation has a store-stage form, separate passes
    /// otherwise; `hw` is recycled into the arena either way.
    fn aggregate_fused(
        &self,
        a_hat: &CsrMatrix<f32>,
        hw: DenseMatrix<f32>,
        engine: &ExecEngine,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        let epi = self.epilogue.as_ref().unwrap_or(&Epilogue::None);
        let (mut out, _) = engine.spmm(a_hat, &hw, epi)?;
        engine.recycle(hw);
        if self.epilogue.is_none() {
            self.apply_unfused(&mut out);
        }
        Ok(out)
    }

    /// Mega-batch aggregation: always the plain prepared run plus one
    /// flat bias/activation sweep. The fused store-stage epilogue pays a
    /// per-row dispatch that a tens-of-thousands-row packed batch of
    /// tiny rows turns into the dominant cost; the unfused composition
    /// computes the same bits (DESIGN.md §2.10) with one streaming pass.
    fn aggregate_mega(
        &self,
        a_hat: &CsrMatrix<f32>,
        hw: DenseMatrix<f32>,
        prep: &mpspmm_core::PreparedPlan,
        engine: &ExecEngine,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        let (mut out, _) = engine.execute_prepared(prep, a_hat, &hw)?;
        engine.recycle(hw);
        self.apply_unfused(&mut out);
        Ok(out)
    }

    /// Unified-engine forward pass with a *sparse* input feature matrix:
    /// both the combination `X × W` and the aggregation `Â × (XW)` run on
    /// the same SpMM kernel (§II: "a workload-efficient computation
    /// paradigm that uses a unified SpMM engine").
    ///
    /// The input features `X` are moderately sparse (nodes lack most
    /// features), so the first multiplication is also a CSR×dense SpMM —
    /// a rectangular one, which the merge-path decomposition handles
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when shapes are
    /// inconsistent.
    pub fn forward_sparse_input(
        &self,
        a_hat: &CsrMatrix<f32>,
        x: &CsrMatrix<f32>,
        kernel: &dyn SpmmKernel,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        let xw = kernel.spmm(x, &self.weight)?;
        let mut out = kernel.spmm(a_hat, &xw)?;
        self.apply_unfused(&mut out);
        Ok(out)
    }
}

/// A multi-layer GCN model.
///
/// # Example
///
/// ```
/// use mpspmm_core::MergePathSpmm;
/// use mpspmm_gcn::{GcnModel, ops};
/// use mpspmm_sparse::CsrMatrix;
///
/// let a = CsrMatrix::from_triplets(4, 4, &[(0, 1, 0.5f32), (1, 0, 0.5)])?;
/// let model = GcnModel::two_layer(8, 16, 3, 42);
/// let x = ops::random_features(4, 8, 0.5, 1);
/// let out = model.forward(&a, &x, &MergePathSpmm::with_threads(4))?;
/// assert_eq!(out.cols(), 3);
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

    /// Widest layer output. A [`PreparedPlan`] is width-independent, so
    /// one plan serves every layer and every batch width.
    ///
    /// [`PreparedPlan`]: mpspmm_core::PreparedPlan
    pub fn max_features(&self) -> usize {
        self.layers
            .iter()
            .map(GcnLayer::out_features)
            .max()
            .expect("model has at least one layer")
    }

    /// Full forward pass through all layers with one SpMM kernel.
    ///
    /// Each layer invokes the kernel once — a 2-layer model is the
    /// "2 kernel invocations" scenario of the paper's Figure 8 online
    /// overhead study.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when shapes are
    /// inconsistent.
    pub fn forward(
        &self,
        a_hat: &CsrMatrix<f32>,
        x: &DenseMatrix<f32>,
        kernel: &dyn SpmmKernel,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        let mut h = self.layers[0].forward(a_hat, x, kernel)?;
        for layer in &self.layers[1..] {
            h = layer.forward(a_hat, &h, kernel)?;
        }
        Ok(h)
    }

    /// Full forward pass on `engine` as a fused pipeline (see
    /// [`GcnLayer::forward_cached`]): each layer is one engine GEMM plus
    /// one SpMM with the bias/activation epilogue fused into the store
    /// stage.
    ///
    /// Layer 0's raw feature matrix and the hidden layers' dense
    /// activations all go through the engine's blocked GEMM.
    ///
    /// Inter-layer activations ping-pong through the engine's buffer
    /// arena: each layer's input is recycled as soon as the next
    /// activation exists, so a steady-state forward pass allocates no
    /// fresh activation buffers regardless of depth.
    ///
    /// `kernel` and `epoch` are unused; they stay in the signature for
    /// the serving benchmark, which still passes them.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when shapes are
    /// inconsistent.
    pub fn forward_cached(
        &self,
        a_hat: &CsrMatrix<f32>,
        x: &DenseMatrix<f32>,
        _kernel: &dyn SpmmKernel,
        engine: &ExecEngine,
        _epoch: u64,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        let mut h = self.layers[0].forward_cached(a_hat, x, engine)?;
        for layer in &self.layers[1..] {
            let next = layer.forward_cached(a_hat, &h, engine)?;
            engine.recycle(std::mem::replace(&mut h, next));
        }
        Ok(h)
    }

    /// Batched forward pass over several independent feature matrices on
    /// the *same* graph, sharing every aggregation SpMM: per layer, each
    /// request's dense combination `H_i × W` is computed separately, the
    /// products are concatenated column-wise, and **one** engine run
    /// aggregates `Â × [H_0W | H_1W | …]` for the whole batch — the
    /// dense-column batching of Batched SpMM for GCN serving, valid
    /// because `Â (H_i W)` only ever reads `H_i W`'s own columns.
    ///
    /// `prep` is the graph's prepared aggregation plan (plans are
    /// width-independent, so any plan built for `a_hat` works at every
    /// batch width; [`GcnModel::max_features`] is the
    /// conventional planning dimension). Returns one output matrix per
    /// input block, in order.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when `a_hat` or any
    /// block's shape is inconsistent with the model.
    pub fn forward_batched_prepared(
        &self,
        a_hat: &CsrMatrix<f32>,
        prep: &mpspmm_core::PreparedPlan,
        blocks: &[&DenseMatrix<f32>],
        engine: &ExecEngine,
    ) -> Result<Vec<DenseMatrix<f32>>, SparseFormatError> {
        if blocks.is_empty() {
            return Ok(Vec::new());
        }
        let mut hs: Vec<DenseMatrix<f32>> = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut products = Vec::with_capacity(blocks.len());
            for j in 0..blocks.len() {
                let h = if i == 0 { blocks[j] } else { &hs[j] };
                products.push(engine.gemm(h, &layer.weight)?);
            }
            let refs: Vec<&DenseMatrix<f32>> = products.iter().collect();
            // Every block in a model batch has this layer's output width,
            // so a per-block bias tiles to a combined-width bias and the
            // whole batch epilogue fuses into the one aggregation run.
            let batch_epi = layer.epilogue.as_ref().map(|epi| match epi {
                Epilogue::Bias(b) => Epilogue::Bias(tile_bias(b, blocks.len())),
                Epilogue::BiasRelu(b) => Epilogue::BiasRelu(tile_bias(b, blocks.len())),
                uniform => uniform.clone(),
            });
            let aggregated = match batch_epi {
                Some(epi) => engine.execute_prepared_batch_fused(prep, a_hat, &refs, &epi)?,
                None => {
                    let mut agg = engine.execute_prepared_batch(prep, a_hat, &refs)?;
                    for out in &mut agg {
                        layer.apply_unfused(out);
                    }
                    agg
                }
            };
            drop(refs);
            // The per-request products and the previous layer's
            // activations are dead now: hand both back to the arena so
            // the next layer (and the next batch) reuse them.
            for p in products {
                engine.recycle(p);
            }
            for old in std::mem::replace(&mut hs, aggregated) {
                engine.recycle(old);
            }
        }
        Ok(hs)
    }

    /// Forward pass over a **block-diagonal mega-batch**: `a_hat` packs
    /// many small graphs on the diagonal (see
    /// [`BlockDiagCsr`](mpspmm_sparse::BlockDiagCsr)) and `stacked`
    /// vertically stacks their feature matrices in the same order. Every
    /// layer is then **one** GEMM over the stacked rows plus **one**
    /// SpMM over the packed adjacency — the whole batch pays a single
    /// dispatch per layer, however many graphs it holds.
    ///
    /// This is exact, not approximate: block-diagonality means row band
    /// `i` of `Â_pack × H` reads only `H`'s band `i`, which is
    /// `Â_i × H_i` — each graph's forward is computed as if it ran
    /// alone, and the per-column bias/activation epilogue is uniform
    /// across bands. Callers scatter per-graph outputs back out of the
    /// returned matrix's row bands.
    ///
    /// `prep` is the packed adjacency's prepared plan, normally the one
    /// [`ExecEngine::plan_batch_cached`] builds per window straight from
    /// the packed row pointers.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when `stacked`'s
    /// shape is inconsistent with `a_hat` or the model.
    pub fn forward_mega_batched(
        &self,
        a_hat: &CsrMatrix<f32>,
        prep: &mpspmm_core::PreparedPlan,
        stacked: &DenseMatrix<f32>,
        engine: &ExecEngine,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        if stacked.cols() != self.in_features() {
            return Err(SparseFormatError::ShapeMismatch {
                left: (a_hat.cols(), self.in_features()),
                right: (stacked.rows(), stacked.cols()),
            });
        }
        // Aggregation deliberately skips the fused epilogue: at
        // mega-batch row counts the per-row fused bookkeeping costs more
        // than one flat bias/activation sweep over the finished output,
        // and `spmm → epilogue` is element-for-element identical to the
        // fused composition (DESIGN.md §2.10), so bit-identity with the
        // per-graph oracle is preserved.
        let first = &self.layers[0];
        let hw = engine.gemm(stacked, &first.weight)?;
        let mut h = first.aggregate_mega(a_hat, hw, prep, engine)?;
        for layer in &self.layers[1..] {
            let hw = engine.gemm(&h, &layer.weight)?;
            let next = layer.aggregate_mega(a_hat, hw, prep, engine)?;
            engine.recycle(std::mem::replace(&mut h, next));
        }
        Ok(h)
    }

    /// Sum of all layers' output widths — the Σd term of the two-hop
    /// crossover model.
    fn sum_features(&self) -> usize {
        self.layers.iter().map(GcnLayer::out_features).sum()
    }

    /// Forward pass with **two-hop aggregation**: every layer computes
    /// `σ(Â² · H · W + b)` instead of the usual one-hop `Â · H · W` —
    /// the propagation rule of 2-hop GCN variants. `path` picks how
    /// `Â²` is realized (see [`TwoHopPath`]); the default
    /// [`Auto`](TwoHopPath::Auto) resolves by the flop crossover model.
    ///
    /// On the [`Squared`](TwoHopPath::Squared) path the engine's
    /// SpGEMM ([`ExecEngine::spgemm`]) materializes `Â² = Â × Â` once
    /// and each layer aggregates through it.
    ///
    /// The two paths are mathematically equal but associate the f32
    /// reductions differently (`Â·(Â·HW)` vs `(Â·Â)·HW`), so their
    /// outputs agree to rounding, not bit-for-bit — same contract as
    /// any kernel-vs-kernel comparison in this crate.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when shapes are
    /// inconsistent.
    pub fn forward_two_hop(
        &self,
        a_hat: &CsrMatrix<f32>,
        x: &DenseMatrix<f32>,
        engine: &ExecEngine,
        path: TwoHopPath,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        let squared = match path.resolve(a_hat, self.sum_features()) {
            TwoHopPath::Squared => Some(engine.spgemm(a_hat, a_hat)?),
            _ => None,
        };
        let mut h: Option<DenseMatrix<f32>> = None;
        for layer in &self.layers {
            let hw = engine.gemm(h.as_ref().unwrap_or(x), &layer.weight)?;
            let out = match &squared {
                Some(a2) => layer.aggregate_fused(a2, hw, engine)?,
                None => {
                    let (inner, _) = engine.spmm(a_hat, &hw, &Epilogue::None)?;
                    engine.recycle(hw);
                    layer.aggregate_fused(a_hat, inner, engine)?
                }
            };
            if let Some(prev) = h.replace(out) {
                engine.recycle(prev);
            }
        }
        Ok(h.expect("model has at least one layer"))
    }
}

/// How [`GcnModel::forward_two_hop`] realizes the two-hop propagation
/// `Â² · (H W)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TwoHopPath {
    /// `Â · (Â · (H W))` — two SpMMs per layer, `Â²` never
    /// materialized. Wins when `Â²` would be much denser than `Â`
    /// (flops scale with `nnz(Â²)` on the other path).
    Chained,
    /// `(Â · Â) · (H W)` — one SpGEMM up front, then a single SpMM per
    /// layer against the materialized square. Wins when the layer-width
    /// sum is large enough to amortize the SpGEMM.
    Squared,
    /// Flop-model crossover via [`resolve`](Self::resolve).
    #[default]
    Auto,
}

impl TwoHopPath {
    /// Resolves [`Auto`](Self::Auto) for a model whose layer output
    /// widths sum to `sum_dims`: chained costs `2 · nnz(Â) · Σd`
    /// multiply-adds; squared costs the SpGEMM's flop upper bound
    /// ([`spgemm_flops_upper_bound`]) once plus at most `ub · Σd` for
    /// the per-layer SpMMs (`ub ≥ nnz(Â²)`, so the model is
    /// conservative about squaring). Pinned variants return themselves;
    /// the result is never `Auto`.
    pub fn resolve(self, a_hat: &CsrMatrix<f32>, sum_dims: usize) -> TwoHopPath {
        match self {
            TwoHopPath::Auto => {
                let chained = 2 * a_hat.nnz() * sum_dims;
                let ub = spgemm_flops_upper_bound(a_hat, a_hat);
                let squared = ub + ub * sum_dims;
                if squared < chained {
                    TwoHopPath::Squared
                } else {
                    TwoHopPath::Chained
                }
            }
            pinned => pinned,
        }
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
/// then runs the model, timing both phases.
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
    // Keep the schedule alive as the kernels would reuse it; the kernel
    // trait rebuilds internally, so we charge only the measured
    // scheduling time separately.
    let _ = &schedule;
    let t1 = std::time::Instant::now();
    let out = model.forward(a_hat, x, kernel)?;
    let execution = t1.elapsed();
    Ok((
        out,
        InferenceTiming {
            scheduling,
            execution,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{random_features, xavier_init};
    use mpspmm_core::{MergePathSpmm, NnzSplitSpmm, PreparedPlan, SerialSpmm};
    use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};

    fn small_graph() -> CsrMatrix<f32> {
        let spec = DatasetSpec::custom("t", GraphClass::PowerLaw, 100, 400, 30);
        gcn_normalize(&spec.synthesize(3))
    }

    #[test]
    fn mega_batched_forward_matches_per_graph_forward() {
        use mpspmm_core::{BatchMergeSpmm, BatchShapeClass};
        use mpspmm_sparse::BlockDiagCsr;
        use std::sync::Arc;

        let graphs: Vec<Arc<CsrMatrix<f32>>> = (0..4)
            .map(|i| {
                let spec =
                    DatasetSpec::custom("m", GraphClass::Structured, 20 + i * 3, 60 + i * 10, 6);
                Arc::new(gcn_normalize(&spec.synthesize(i as u64)))
            })
            .collect();
        let model = GcnModel::two_layer(8, 12, 3, 42);
        let feats: Vec<DenseMatrix<f32>> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| random_features(g.rows(), 8, 0.6, i as u64))
            .collect();

        let pack = BlockDiagCsr::build(&graphs).unwrap();
        let stacked = pack
            .stack_features(&feats.iter().collect::<Vec<_>>())
            .unwrap();
        let engine = ExecEngine::new(2);
        let class = BatchShapeClass::from_graphs(
            graphs
                .iter()
                .map(|g| (g.rows(), g.nnz(), g.structure_hash())),
        );
        let prep = engine.plan_batch_cached(
            &BatchMergeSpmm::new(),
            pack.matrix(),
            model.max_features(),
            &class,
        );
        let packed_out = model
            .forward_mega_batched(pack.matrix(), &prep, &stacked, &engine)
            .unwrap();
        assert_eq!(packed_out.rows(), pack.rows());

        // Per-graph reference on a 1-worker engine with an unsplit-row
        // plan: the same flat per-row fold, so bands must match bitwise.
        let ref_engine = ExecEngine::new(1);
        for (i, (g, x)) in graphs.iter().zip(&feats).enumerate() {
            let expect = model
                .forward_cached(g, x, &MergePathSpmm::with_threads(1), &ref_engine, i as u64)
                .unwrap();
            let band = pack.scatter_block(&packed_out, i);
            assert_eq!(band, expect, "graph {i} band differs");
        }
    }

    #[test]
    fn mega_batched_rejects_bad_feature_width() {
        let a = small_graph();
        let model = GcnModel::two_layer(8, 12, 3, 1);
        let engine = ExecEngine::new(1);
        let prep = PreparedPlan::new(&a);
        let bad = DenseMatrix::zeros(a.rows(), 5);
        assert!(matches!(
            model.forward_mega_batched(&a, &prep, &bad, &engine),
            Err(SparseFormatError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn two_layer_forward_has_expected_shape() {
        let a = small_graph();
        let model = GcnModel::two_layer(32, 16, 7, 11);
        let x = random_features(100, 32, 0.4, 2);
        let out = model.forward(&a, &x, &SerialSpmm).unwrap();
        assert_eq!(out.rows(), 100);
        assert_eq!(out.cols(), 7);
    }

    #[test]
    fn kernels_produce_matching_inference_results() {
        let a = small_graph();
        let model = GcnModel::two_layer(16, 8, 4, 5);
        let x = random_features(100, 16, 0.4, 9);
        let serial = model.forward(&a, &x, &SerialSpmm).unwrap();
        let mp = model
            .forward(&a, &x, &MergePathSpmm::with_threads(8))
            .unwrap();
        let gnn = model.forward(&a, &x, &NnzSplitSpmm::new()).unwrap();
        assert!(mp.approx_eq(&serial, 1e-3).unwrap());
        assert!(gnn.approx_eq(&serial, 1e-3).unwrap());
    }

    #[test]
    fn relu_between_layers_bounds_hidden_values() {
        let a = small_graph();
        let model = GcnModel::two_layer(8, 4, 2, 1);
        let x = random_features(100, 8, 0.5, 1);
        let h1 = model.layers()[0].forward(&a, &x, &SerialSpmm).unwrap();
        assert!(h1.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn unified_engine_matches_dense_gemm_path() {
        // Running X×W on the SpMM engine must compute the same layer
        // output as the dense GEMM path.
        let a = small_graph();
        let layer = GcnLayer::new(xavier_init(12, 8, 4), Activation::Relu);
        let x_dense = random_features(100, 12, 0.4, 6);
        let x_sparse = crate::ops::random_sparse_features(100, 12, 0.4, 6);
        let kernel = MergePathSpmm::with_threads(8);
        let via_gemm = layer.forward(&a, &x_dense, &kernel).unwrap();
        let via_spmm = layer.forward_sparse_input(&a, &x_sparse, &kernel).unwrap();
        assert!(via_spmm.approx_eq(&via_gemm, 1e-3).unwrap());
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
    fn cached_forward_matches_plain_forward() {
        let a = small_graph();
        let model = GcnModel::two_layer(16, 16, 4, 2);
        let x = random_features(100, 16, 0.4, 3);
        let kernel = MergePathSpmm::new();
        let engine = ExecEngine::new(2);
        let plain = model.forward(&a, &x, &kernel).unwrap();
        for _ in 0..10 {
            let out = model.forward_cached(&a, &x, &kernel, &engine, 0).unwrap();
            assert!(out.approx_eq(&plain, 1e-4).unwrap());
        }
    }

    #[test]
    fn cached_forward_reaches_zero_allocation_steady_state() {
        let a = small_graph();
        let model = GcnModel::two_layer(16, 16, 4, 2);
        let x = random_features(100, 16, 0.4, 3);
        let kernel = MergePathSpmm::new();
        let engine = ExecEngine::new(2);
        // Warm up: first passes populate the arena with the activation
        // and H×W scratch shapes this model cycles through.
        let mut outs = Vec::new();
        for _ in 0..2 {
            outs.push(model.forward_cached(&a, &x, &kernel, &engine, 0).unwrap());
        }
        for out in outs.drain(..) {
            engine.recycle(out);
        }
        let warm_misses = engine.stats().arena_misses;
        let warm_reuses = engine.stats().arena_reuses;
        for _ in 0..5 {
            let out = model.forward_cached(&a, &x, &kernel, &engine, 0).unwrap();
            engine.recycle(out);
        }
        let stats = engine.stats();
        assert_eq!(
            stats.arena_misses, warm_misses,
            "steady-state inference must not allocate fresh engine buffers"
        );
        assert!(stats.arena_reuses > warm_reuses);
    }

    #[test]
    fn two_hop_paths_agree_and_match_explicit_square() {
        let a = small_graph();
        let model = GcnModel::two_layer(16, 12, 5, 8);
        let x = random_features(100, 16, 0.4, 3);
        let kernel = MergePathSpmm::new();
        let engine = ExecEngine::new(2);
        // Reference: forward through the oracle square (bit-identical
        // to the engine's SpGEMM) on the plain kernel path.
        let a2 = mpspmm_core::spgemm_sequential(&a, &a).unwrap();
        let reference = model.forward(&a2, &x, &kernel).unwrap();
        let squared = model
            .forward_two_hop(&a, &x, &engine, TwoHopPath::Squared)
            .unwrap();
        let chained = model
            .forward_two_hop(&a, &x, &engine, TwoHopPath::Chained)
            .unwrap();
        assert!(squared.approx_eq(&reference, 1e-4).unwrap());
        // Different association (Â·(Â·HW) vs (Â·Â)·HW): rounding-level
        // agreement only.
        assert!(chained.approx_eq(&reference, 1e-3).unwrap());
        assert!(engine.stats().spgemm.rows > 0, "Squared path ran SpGEMM");
    }

    #[test]
    fn two_hop_auto_resolves_by_flop_model_and_never_returns_auto() {
        let a = small_graph();
        for dims in [1usize, 4096] {
            let resolved = TwoHopPath::Auto.resolve(&a, dims);
            assert_ne!(resolved, TwoHopPath::Auto);
        }
        // Pinned variants resolve to themselves.
        assert_eq!(TwoHopPath::Chained.resolve(&a, 16), TwoHopPath::Chained);
        assert_eq!(TwoHopPath::Squared.resolve(&a, 16), TwoHopPath::Squared);
        // A huge width sum amortizes the one-off SpGEMM iff the square's
        // flop bound beats re-streaming Â twice per layer; check the
        // model picks consistently with its own arithmetic.
        let ub = mpspmm_core::spgemm_flops_upper_bound(&a, &a);
        let dims = 4096;
        let want = if ub + ub * dims < 2 * a.nnz() * dims {
            TwoHopPath::Squared
        } else {
            TwoHopPath::Chained
        };
        assert_eq!(TwoHopPath::Auto.resolve(&a, dims), want);
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
        let kernel = MergePathSpmm::new();
        let engine = ExecEngine::new(2);
        let blocks: Vec<_> = (0..4)
            .map(|i| random_features(100, 16, 0.4, 40 + i))
            .collect();
        let refs: Vec<&_> = blocks.iter().collect();
        let batched = model
            .forward_batched_prepared(&a, &PreparedPlan::new(&a), &refs, &engine)
            .unwrap();
        assert_eq!(batched.len(), 4);
        for (x, out) in blocks.iter().zip(&batched) {
            let solo = model.forward(&a, x, &kernel).unwrap();
            assert_eq!(out.rows(), 100);
            assert_eq!(out.cols(), 5);
            assert!(out.approx_eq(&solo, 1e-3).unwrap());
        }
    }

    #[test]
    fn batched_forward_single_worker_is_exact_vs_prepared_path() {
        let a = small_graph();
        let model = GcnModel::two_layer(8, 8, 3, 4);
        let engine = ExecEngine::new(1);
        let prep = PreparedPlan::new(&a);
        let blocks: Vec<_> = (0..3)
            .map(|i| random_features(100, 8, 0.5, 70 + i))
            .collect();
        let refs: Vec<&_> = blocks.iter().collect();
        let batched = model
            .forward_batched_prepared(&a, &prep, &refs, &engine)
            .unwrap();
        // Per-request forward through the same prepared plan: the batch
        // merely regroups columns, so single-worker results are
        // bit-identical.
        for (x, out) in blocks.iter().zip(&batched) {
            let solo = model
                .forward_batched_prepared(&a, &prep, &[x], &engine)
                .unwrap();
            assert_eq!(out.max_abs_diff(&solo[0]).unwrap(), 0.0);
        }
        assert!(model
            .forward_batched_prepared(&a, &prep, &[], &engine)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn batched_forward_rejects_bad_block_shape() {
        let a = small_graph();
        let model = GcnModel::two_layer(16, 8, 4, 5);
        let engine = ExecEngine::new(1);
        let good = random_features(100, 16, 0.4, 1);
        let bad = random_features(100, 10, 0.4, 2);
        assert!(model
            .forward_batched_prepared(&a, &PreparedPlan::new(&a), &[&good, &bad], &engine)
            .is_err());
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
        assert!(model.forward(&a, &bad_x, &SerialSpmm).is_err());
    }
}
