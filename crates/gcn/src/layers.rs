//! Beyond GCN: the other aggregation-style GNN layers the paper cites as
//! motivation (§I: GraphSAGE, GIN) — all built on the same engine SpMM
//! aggregation, and all with *different* dense-dimension profiles, which
//! is exactly why §III-C studies a range of dimension sizes.

use mpspmm_core::{Epilogue, ExecEngine};
use mpspmm_sparse::{CsrMatrix, DenseMatrix, SparseFormatError};

use crate::ops::Activation;

/// A Graph Isomorphism Network layer (Xu et al.):
/// `H' = MLP((A + (1 + ε)I) · H)` — sum aggregation first (an SpMM at the
/// *input* feature width), then a two-layer MLP.
///
/// Build the sum operator with
/// [`mpspmm_graphs::sum_with_self_loops`](https://docs.rs/)-style
/// preprocessing and pass it as `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct GinLayer {
    w1: DenseMatrix<f32>,
    w2: DenseMatrix<f32>,
    activation: Activation,
}

impl GinLayer {
    /// Creates a GIN layer with MLP weights `w1` (`in × hidden`) and `w2`
    /// (`hidden × out`).
    ///
    /// # Panics
    ///
    /// Panics if the MLP widths do not chain.
    pub fn new(w1: DenseMatrix<f32>, w2: DenseMatrix<f32>, activation: Activation) -> Self {
        assert_eq!(w1.cols(), w2.rows(), "MLP widths must chain");
        Self { w1, w2, activation }
    }

    /// Input feature width (the SpMM dense dimension of this layer).
    pub fn in_features(&self) -> usize {
        self.w1.rows()
    }

    /// Output feature width.
    pub fn out_features(&self) -> usize {
        self.w2.cols()
    }

    /// Forward pass on `engine`: `MLP(op · H)` with ReLU inside the MLP
    /// and this layer's activation outside. Aggregation comes FIRST
    /// (unlike GCN), so the SpMM ([`ExecEngine::spmm`], which plans `op`
    /// per call) runs at the input width and GIN exercises different
    /// Figure 6/7 dimension points. Both MLP products run on the
    /// engine's parallel blocked GEMM and their scratch recycles through
    /// the buffer arena.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] on inconsistent shapes.
    pub fn forward(
        &self,
        op: &CsrMatrix<f32>,
        h: &DenseMatrix<f32>,
        engine: &ExecEngine,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        let (agg, _) = engine.spmm(op, h, &Epilogue::None)?;
        let mut hidden = engine.gemm(&agg, &self.w1)?;
        engine.recycle(agg);
        Activation::Relu.apply(&mut hidden);
        let mut out = engine.gemm(&hidden, &self.w2)?;
        engine.recycle(hidden);
        self.activation.apply(&mut out);
        Ok(out)
    }
}

/// A GraphSAGE layer with mean aggregation (Hamilton et al.):
/// `H' = σ(H·W_self + (D⁻¹(A + I))·H·W_neigh)`.
///
/// Pass the row-normalized mean operator (`mean_normalize`) as `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct SageMeanLayer {
    w_self: DenseMatrix<f32>,
    w_neigh: DenseMatrix<f32>,
    activation: Activation,
}

impl SageMeanLayer {
    /// Creates a layer from the self- and neighbour-path weights (both
    /// `in × out`).
    ///
    /// # Panics
    ///
    /// Panics if the two weight matrices disagree in shape.
    pub fn new(
        w_self: DenseMatrix<f32>,
        w_neigh: DenseMatrix<f32>,
        activation: Activation,
    ) -> Self {
        assert_eq!(w_self.rows(), w_neigh.rows(), "input widths must match");
        assert_eq!(w_self.cols(), w_neigh.cols(), "output widths must match");
        Self {
            w_self,
            w_neigh,
            activation,
        }
    }

    /// Input feature width.
    pub fn in_features(&self) -> usize {
        self.w_self.rows()
    }

    /// Output feature width (the SpMM dense dimension of this layer).
    pub fn out_features(&self) -> usize {
        self.w_self.cols()
    }

    /// Forward pass on `engine`: `σ(H·W_self + op·(H·W_neigh))`, with
    /// [`ExecEngine::spmm`] planning `op` per call. Both dense products
    /// run on the engine's parallel blocked GEMM; the neighbour product
    /// recycles through the buffer arena as soon as the aggregation has
    /// consumed it.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] on inconsistent shapes.
    pub fn forward(
        &self,
        op: &CsrMatrix<f32>,
        h: &DenseMatrix<f32>,
        engine: &ExecEngine,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        let hw_neigh = engine.gemm(h, &self.w_neigh)?;
        let (neigh, _) = engine.spmm(op, &hw_neigh, &Epilogue::None)?;
        engine.recycle(hw_neigh);
        let mut out = engine.gemm(h, &self.w_self)?;
        if out.rows() != neigh.rows() || out.cols() != neigh.cols() {
            return Err(SparseFormatError::ShapeMismatch {
                left: (out.rows(), out.cols()),
                right: (neigh.rows(), neigh.cols()),
            });
        }
        for (dst, &src) in out.as_mut_slice().iter_mut().zip(neigh.as_slice()) {
            *dst += src;
        }
        engine.recycle(neigh);
        self.activation.apply(&mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{gemm, random_features, xavier_init};
    use mpspmm_graphs::{mean_normalize, sum_with_self_loops, DatasetSpec, GraphClass};

    fn graph() -> CsrMatrix<f32> {
        DatasetSpec::custom("l", GraphClass::PowerLaw, 120, 500, 30).synthesize(4)
    }

    #[test]
    fn gin_forward_shapes_and_worker_agreement() {
        let a = graph();
        let op = sum_with_self_loops(&a, 0.3);
        let layer = GinLayer::new(
            xavier_init(12, 24, 1),
            xavier_init(24, 6, 2),
            Activation::Identity,
        );
        assert_eq!(layer.in_features(), 12);
        assert_eq!(layer.out_features(), 6);
        let x = random_features(a.rows(), 12, 0.5, 3);
        let one = layer.forward(&op, &x, &ExecEngine::new(1)).unwrap();
        let many = layer.forward(&op, &x, &ExecEngine::new(16)).unwrap();
        assert_eq!(one.cols(), 6);
        assert_eq!(many, one);
    }

    #[test]
    fn gin_epsilon_changes_output() {
        let a = graph();
        let layer = GinLayer::new(xavier_init(8, 8, 5), xavier_init(8, 4, 6), Activation::Relu);
        let x = random_features(a.rows(), 8, 0.5, 7);
        let engine = ExecEngine::new(1);
        let small = layer
            .forward(&sum_with_self_loops(&a, 0.0), &x, &engine)
            .unwrap();
        let large = layer
            .forward(&sum_with_self_loops(&a, 2.0), &x, &engine)
            .unwrap();
        assert!(small.max_abs_diff(&large).unwrap() > 1e-4);
    }

    #[test]
    fn sage_mean_forward_matches_manual_composition() {
        let a = graph();
        let op = mean_normalize(&a);
        let w_self = xavier_init(10, 5, 8);
        let w_neigh = xavier_init(10, 5, 9);
        let layer = SageMeanLayer::new(w_self.clone(), w_neigh.clone(), Activation::Identity);
        let x = random_features(a.rows(), 10, 0.5, 10);
        let engine = ExecEngine::new(2);
        let got = layer.forward(&op, &x, &engine).unwrap();
        // Manual: H W_self + op (H W_neigh).
        let mut want = gemm(&x, &w_self).unwrap();
        let (neigh, _) = engine
            .spmm(&op, &gemm(&x, &w_neigh).unwrap(), &Epilogue::None)
            .unwrap();
        for (dst, &src) in want.as_mut_slice().iter_mut().zip(neigh.as_slice()) {
            *dst += src;
        }
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "MLP widths must chain")]
    fn gin_rejects_mismatched_mlp() {
        GinLayer::new(xavier_init(8, 9, 0), xavier_init(8, 4, 0), Activation::Relu);
    }

    #[test]
    #[should_panic(expected = "output widths must match")]
    fn sage_rejects_mismatched_weights() {
        SageMeanLayer::new(xavier_init(8, 4, 0), xavier_init(8, 5, 0), Activation::Relu);
    }
}
