//! Fused dense epilogue applied at the SpMM store stage.
//!
//! A GNN layer follows its aggregation SpMM with a cheap element-wise
//! pass — bias add, ReLU, or both. Run separately, that pass re-streams
//! the whole `rows × dim` output through the cache right after the engine
//! wrote it. The engine instead accepts an [`Epilogue`] and applies it
//! **as each output row is finalized**, while the row is still
//! register/L1-hot. Every row has one writer, which stores the row's complete sum and
//! applies the epilogue right after, empty rows included (a bias still
//! changes them). In a column batch the epilogue applies per block: each
//! block's rows get it, and a bias must match each block's width.
//!
//! The epilogue therefore runs exactly once per row, after the row's
//! final SpMM value exists — so a fused run is element-for-element the
//! `spmm → epilogue` composition of the unfused pipeline (see DESIGN.md
//! §2.10 for the full argument).

use mpspmm_sparse::SparseFormatError;

/// An element-wise per-row transform fused into the engine's store stage.
///
/// `Relu` matches the GCN `Activation::Relu` semantics exactly
/// (`if v < 0.0 { v = 0.0 }`, which preserves `-0.0`); the bias variants
/// add `bias[j]` to output column `j` *before* any clamp, the standard
/// `relu(x + b)` layer form.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Epilogue {
    /// No transform — the engine's classic output. This is the hot-path
    /// default: a noop epilogue adds zero work to any store.
    #[default]
    None,
    /// `v = max(0, v)` per element (implemented as the GCN activation's
    /// exact comparison so fused and unfused outputs are bit-identical).
    Relu,
    /// `v += bias[j]` per element of column `j`.
    Bias(Vec<f32>),
    /// `v = relu(v + bias[j])` — the fused form of a biased ReLU layer.
    BiasRelu(Vec<f32>),
}

impl Epilogue {
    /// Whether this epilogue changes nothing (the engine skips all fused
    /// bookkeeping for noop epilogues).
    pub fn is_noop(&self) -> bool {
        matches!(self, Epilogue::None)
    }

    /// The bias vector, if this variant carries one.
    pub fn bias(&self) -> Option<&[f32]> {
        match self {
            Epilogue::Bias(b) | Epilogue::BiasRelu(b) => Some(b),
            _ => None,
        }
    }

    /// Checks this epilogue against the dense output width it will be
    /// applied at.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when a bias vector's
    /// length differs from `dim`.
    pub fn validate(&self, dim: usize) -> Result<(), SparseFormatError> {
        match self.bias() {
            Some(b) if b.len() != dim => Err(SparseFormatError::ShapeMismatch {
                left: (1, b.len()),
                right: (1, dim),
            }),
            _ => Ok(()),
        }
    }

    /// Applies the epilogue to one finalized output row in place.
    /// `dst.len()` must equal the validated `dim`. `inline(always)` so
    /// the ISA clone that runs the engine's row fold compiles it too.
    #[inline(always)]
    pub fn apply_row(&self, dst: &mut [f32]) {
        match self {
            Epilogue::None => {}
            Epilogue::Relu => {
                // Select form — post-SpMM signs are near-random, and a
                // branched store mispredicts half the time. `-0.0` and
                // NaN pass through exactly as before. Whole register
                // blocks are selected and stored back unconditionally:
                // selected in place, the AVX-512 clone turns the select
                // into a masked store of the negative lanes, which cost
                // the width-32 ReLU fold about 45% more CPU.
                let mut blocks = dst.chunks_exact_mut(RELU_BLOCK);
                for blk in &mut blocks {
                    let mut r: [f32; RELU_BLOCK] = (&*blk).try_into().expect("a full block");
                    r.iter_mut().for_each(relu);
                    blk.copy_from_slice(&r);
                }
                blocks.into_remainder().iter_mut().for_each(relu);
            }
            Epilogue::Bias(bias) => {
                for (v, &b) in dst.iter_mut().zip(bias) {
                    *v += b;
                }
            }
            Epilogue::BiasRelu(bias) => {
                for (v, &b) in dst.iter_mut().zip(bias) {
                    let x = *v + b;
                    *v = if x < 0.0 { 0.0 } else { x };
                }
            }
        }
    }
}

/// Floats per register block of the ReLU epilogue: one `zmm` register.
const RELU_BLOCK: usize = 16;

/// `v = max(0, v)` with the GCN activation's exact comparison.
#[inline(always)]
fn relu(v: &mut f32) {
    *v = if *v < 0.0 { 0.0 } else { *v };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_detection_and_default() {
        assert!(Epilogue::None.is_noop());
        assert!(Epilogue::default().is_noop());
        assert!(!Epilogue::Relu.is_noop());
        assert!(!Epilogue::Bias(vec![0.0]).is_noop());
    }

    #[test]
    fn relu_matches_activation_semantics() {
        let mut row = [-1.0f32, -0.0, 0.0, 2.5];
        Epilogue::Relu.apply_row(&mut row);
        assert_eq!(row, [0.0, -0.0, 0.0, 2.5]);
        // -0.0 is preserved, exactly like Activation::Relu's `< 0.0` test.
        assert!(row[1].is_sign_negative());
        // Whole register blocks and the remainder after them alike.
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
            Epilogue::Relu.apply_row(&mut row);
            let got: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "len={len}");
        }
    }

    #[test]
    fn bias_and_bias_relu_compose() {
        let bias = vec![1.0f32, -2.0, 0.5];
        let mut a = [0.0f32, 1.0, -1.0];
        Epilogue::Bias(bias.clone()).apply_row(&mut a);
        assert_eq!(a, [1.0, -1.0, -0.5]);
        let mut b = [0.0f32, 1.0, -1.0];
        Epilogue::BiasRelu(bias).apply_row(&mut b);
        assert_eq!(b, [1.0, 0.0, 0.0]);
    }

    #[test]
    fn validate_checks_bias_width_only() {
        assert!(Epilogue::None.validate(7).is_ok());
        assert!(Epilogue::Relu.validate(0).is_ok());
        assert!(Epilogue::Bias(vec![0.0; 4]).validate(4).is_ok());
        assert!(Epilogue::Bias(vec![0.0; 4]).validate(5).is_err());
        assert!(Epilogue::BiasRelu(vec![0.0; 2]).validate(3).is_err());
    }
}
