//! The store stage: the one element-wise stage of a GNN layer.
//!
//! A GNN layer follows its aggregation SpMM with a cheap element-wise
//! pass — bias add, then an activation. Run separately, that pass
//! re-streams the whole `rows × dim` output through the cache right after
//! the engine wrote it. The engine instead accepts an [`Epilogue`] and
//! applies it **as each output row is finalized**, while the row is still
//! register/L1-hot. Every row has one writer, which stores the row's complete sum and
//! applies the epilogue right after, empty rows included (a bias still
//! changes them). In a column batch the epilogue applies per block: each
//! block's rows get it, and a bias must match each block's width.
//!
//! The epilogue therefore runs exactly once per row, after the row's
//! final SpMM value exists — so a fused run is element-for-element the
//! `spmm → epilogue` composition of the unfused pipeline (see DESIGN.md
//! §2.10 for the full argument). [`Activation::apply`] runs the same row
//! code over a whole matrix, so each activation is written once.

use mpspmm_sparse::{DenseMatrix, SparseFormatError};

/// Nonlinear activation functions used between GCN layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// No activation (final layer before softmax/loss).
    #[default]
    Identity,
    /// Rectified linear unit, `max(0, x)`, as `if v < 0.0 { 0.0 } else
    /// { v }`: `-0.0` and NaN pass through.
    Relu,
    /// Logistic sigmoid, `1 / (1 + e^-x)`.
    Sigmoid,
}

impl Activation {
    /// Applies the activation element-wise in place, serially, with the
    /// row code of the engine's store stage ([`Epilogue::apply_row`]).
    pub fn apply(&self, m: &mut DenseMatrix<f32>) {
        self.apply_slice(m.as_mut_slice());
    }

    /// The activation over `dst`. `inline(always)` so the ISA clone that
    /// runs the engine's row fold compiles it too.
    #[inline(always)]
    fn apply_slice(self, dst: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                // Select form — post-SpMM signs are near-random, and a
                // branched store mispredicts half the time. Whole
                // register blocks are selected and stored back
                // unconditionally: selected in place, the AVX-512 clone
                // turns the select into a masked store of the negative
                // lanes, which cost the width-32 ReLU fold about 45% more
                // CPU.
                let mut blocks = dst.chunks_exact_mut(RELU_BLOCK);
                for blk in &mut blocks {
                    let mut r: [f32; RELU_BLOCK] = (&*blk).try_into().expect("a full block");
                    r.iter_mut().for_each(relu);
                    blk.copy_from_slice(&r);
                }
                blocks.into_remainder().iter_mut().for_each(relu);
            }
            Activation::Sigmoid => {
                for v in dst {
                    *v = 1.0 / (1.0 + (-*v).exp());
                }
            }
        }
    }
}

/// Floats per register block of the ReLU select: one `zmm` register.
const RELU_BLOCK: usize = 16;

/// `v = max(0, v)`, keeping `-0.0` and NaN.
#[inline(always)]
fn relu(v: &mut f32) {
    *v = if *v < 0.0 { 0.0 } else { *v };
}

/// An element-wise per-row transform fused into the engine's store stage:
/// `v = activation(v + bias[j])` for output column `j`, the bias added
/// *before* the activation (the standard `σ(x + b)` layer form).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Epilogue {
    /// Per-column bias, added first; its length must equal the output
    /// width.
    pub bias: Option<Vec<f32>>,
    /// Applied after the bias.
    pub activation: Activation,
}

impl Epilogue {
    /// No transform — the engine's plain product. A noop epilogue adds
    /// zero work to any store.
    pub const NONE: Epilogue = Epilogue {
        bias: None,
        activation: Activation::Identity,
    };

    /// Whether this epilogue changes nothing (the engine skips all fused
    /// bookkeeping for noop epilogues).
    pub fn is_noop(&self) -> bool {
        self.bias.is_none() && self.activation == Activation::Identity
    }

    /// Checks this epilogue against the dense output width it will be
    /// applied at.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when a bias vector's
    /// length differs from `dim`.
    pub fn validate(&self, dim: usize) -> Result<(), SparseFormatError> {
        match &self.bias {
            Some(b) if b.len() != dim => Err(SparseFormatError::ShapeMismatch {
                left: (1, b.len()),
                right: (1, dim),
            }),
            _ => Ok(()),
        }
    }

    /// Applies the epilogue to one finalized output row in place: the
    /// bias, if any, then the activation. `dst.len()` must equal the
    /// validated `dim`. `inline(always)` so the ISA clone that runs the
    /// engine's row fold compiles it too.
    #[inline(always)]
    pub fn apply_row(&self, dst: &mut [f32]) {
        apply_parts(self.bias.as_deref(), self.activation, dst);
    }
}

/// [`Epilogue::apply_row`] from its parts. The engine's row fold passes
/// `activation` as a constant, so the activation's `match` folds away in
/// each of its instances.
#[inline(always)]
pub(crate) fn apply_parts(bias: Option<&[f32]>, activation: Activation, dst: &mut [f32]) {
    if let Some(bias) = bias {
        for (v, &b) in dst.iter_mut().zip(bias) {
            *v += b;
        }
    }
    activation.apply_slice(dst);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relu_epilogue() -> Epilogue {
        Epilogue {
            activation: Activation::Relu,
            ..Epilogue::NONE
        }
    }

    #[test]
    fn noop_detection_and_default() {
        assert!(Epilogue::NONE.is_noop());
        assert!(Epilogue::default().is_noop());
        assert!(!relu_epilogue().is_noop());
        let bias = Epilogue {
            bias: Some(vec![0.0]),
            ..Epilogue::NONE
        };
        assert!(!bias.is_noop());
    }

    #[test]
    fn relu_matches_activation_semantics() {
        let mut row = [-1.0f32, -0.0, 0.0, 2.5];
        relu_epilogue().apply_row(&mut row);
        assert_eq!(row, [0.0, -0.0, 0.0, 2.5]);
        // -0.0 is preserved by the `< 0.0` test.
        assert!(row[1].is_sign_negative());
        // Whole register blocks and the remainder after them alike, on a
        // row and on a matrix.
        let specials = [
            -1.5f32,
            -0.0,
            0.0,
            2.5,
            f32::NAN,
            f32::NEG_INFINITY,
            f32::INFINITY,
        ];
        for len in [RELU_BLOCK - 1, RELU_BLOCK, 2 * RELU_BLOCK + 3] {
            let mut row: Vec<f32> = (0..len).map(|i| specials[i % specials.len()]).collect();
            let want: Vec<u32> = row
                .iter()
                .map(|&v| if v < 0.0 { 0.0f32 } else { v }.to_bits())
                .collect();
            let mut m = DenseMatrix::from_vec(1, len, row.clone()).unwrap();
            relu_epilogue().apply_row(&mut row);
            Activation::Relu.apply(&mut m);
            let got: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "len={len}");
            let got: Vec<u32> = m.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "matrix len={len}");
        }
    }

    #[test]
    fn bias_then_activation() {
        let bias = vec![1.0f32, -2.0, 0.5];
        let with = |activation| Epilogue {
            bias: Some(bias.clone()),
            activation,
        };
        let mut a = [0.0f32, 1.0, -1.0];
        with(Activation::Identity).apply_row(&mut a);
        assert_eq!(a, [1.0, -1.0, -0.5]);
        let mut b = [0.0f32, 1.0, -1.0];
        with(Activation::Relu).apply_row(&mut b);
        assert_eq!(b, [1.0, 0.0, 0.0]);
        let mut c = [0.0f32, 1.0, -1.0];
        with(Activation::Sigmoid).apply_row(&mut c);
        let want = [1.0f32, -1.0, -0.5].map(|x| 1.0 / (1.0 + (-x).exp()));
        assert_eq!(c, want);
    }

    #[test]
    fn validate_checks_bias_width_only() {
        let bias = |n: usize, activation| Epilogue {
            bias: Some(vec![0.0; n]),
            activation,
        };
        assert!(Epilogue::NONE.validate(7).is_ok());
        assert!(relu_epilogue().validate(0).is_ok());
        assert!(bias(4, Activation::Identity).validate(4).is_ok());
        assert!(bias(4, Activation::Identity).validate(5).is_err());
        assert!(bias(2, Activation::Relu).validate(3).is_err());
    }
}
