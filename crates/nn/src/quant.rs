//! Quantized int8 inference path: per-layer i8 weights with per-output-neuron
//! scales, served through the same workspace machinery as the f32 models.
//!
//! [`Mlp::quantize`] converts a trained network into a [`QuantizedMlp`] whose
//! layers store the **transpose** of each weight matrix as a [`QuantMatrix`]:
//! row `j` of the transposed matrix is output neuron `j`'s weight vector, so
//! the per-row scales of the quantized format become per-output-neuron
//! scales. Activations are quantized dynamically per batch row at serve time
//! into [`QuantRows`] (one pass per layer input), so no calibration set is
//! needed, and [`QuantRows::matmul_nt_into`] computes
//!
//! ```text
//! z[i][j] = acc[i][j] * x_scale[i] * w_scale[j] + b[j]
//! ```
//!
//! where `acc[i][j]` is the `i32` dot product of the i8 codes of input row
//! `i` and output neuron `j`, summed on an integer kernel (AVX-512 VNNI,
//! AVX2 or portable, chosen by CPU feature; every body gives the same
//! bits). `acc as f32` is exact while the input width is at most
//! [`MAX_EXACT_DEPTH`] (1 040), which [`Mlp::quantize`] asserts. Biases and
//! activations stay f32: everything after the product is identical to the
//! f32 path.
//!
//! Both serving entry points — the allocating [`QuantizedMlp::forward`] and
//! the workspace-threaded `predict_*_batch` family — run the same code and
//! are bit-identical to each other and across thread counts. They are *not*
//! bit-identical to the f32 model: quantization is lossy. The acceptance gate
//! that decides whether a given model may serve at int8 lives in `anole-core`.
//!
//! A layer charges its i8 payload plus f32 per-output scales and f32 biases,
//! so the 32→48→16 serving detector takes 2,816 bytes against 9,472 at f32
//! (3.4× smaller). The packed copy of the codes the host derives for the
//! integer kernel is not charged.

use std::fmt;

use anole_tensor::{Matrix, QuantMatrix, QuantRows, MAX_EXACT_DEPTH};

use crate::workspace::{BatchWorkspace, Workspace};
use crate::{Activation, Dense, Mlp, NnError};

/// Numeric precision of a served model's weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full-precision f32 weights (the training format).
    #[default]
    Fp32,
    /// Symmetric per-row int8 weights with f32 scales.
    Int8,
}

impl Precision {
    /// Short lowercase label used in telemetry columns (`fp32` / `i8`).
    pub fn label(self) -> &'static str {
        match self {
            Precision::Fp32 => "fp32",
            Precision::Int8 => "i8",
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A dense layer with int8 weights: `a = act(dequant(x_q · W_qᵀ) + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedDense {
    /// `out_dim × in_dim` transposed weights; row `j`'s scale is output
    /// neuron `j`'s dequantization factor.
    weights_t: QuantMatrix,
    bias: Matrix,
    activation: Activation,
}

anole_json::json_struct!(QuantizedDense { weights_t, bias, activation });

impl QuantizedDense {
    /// Quantizes a trained dense layer (weights transposed, bias copied).
    fn from_dense(layer: &Dense) -> Self {
        Self {
            weights_t: QuantMatrix::quantize(&layer.weights().transpose()),
            bias: layer.bias().clone(),
            activation: layer.activation(),
        }
    }

    /// Input width the layer expects.
    pub fn in_dim(&self) -> usize {
        self.weights_t.cols()
    }

    /// Output width the layer produces.
    pub fn out_dim(&self) -> usize {
        self.weights_t.rows()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Bytes this layer holds resident: i8 payload + scales + f32 bias.
    pub fn storage_bytes(&self) -> u64 {
        self.weights_t.storage_bytes() + self.bias.len() as u64 * 4
    }

    /// Forward pass into caller-provided buffers: quantizes `x` row-wise
    /// into `x_q`, multiplies it by the weights into `z`, adds the bias,
    /// applies the activation into `a`. Allocation-free once the buffers are
    /// warm.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] if `x` is not `n × in_dim`.
    pub fn forward_into(
        &self,
        x: &Matrix,
        x_q: &mut QuantRows,
        z: &mut Matrix,
        a: &mut Matrix,
    ) -> Result<(), NnError> {
        if x.cols() != self.in_dim() {
            return Err(NnError::InputWidth {
                expected: self.in_dim(),
                actual: x.cols(),
            });
        }
        x_q.quantize_from(x);
        x_q.matmul_nt_into(&self.weights_t, z)?;
        z.add_row_broadcast_assign(&self.bias)?;
        self.activation.forward_into(z, a);
        Ok(())
    }
}

/// An [`Mlp`] converted to the int8 serving format by [`Mlp::quantize`].
///
/// Inference-only: quantization discards the gradient machinery, so a
/// `QuantizedMlp` cannot be trained further. Re-quantize from the f32 model
/// after any retraining.
///
/// # Examples
///
/// ```
/// use anole_nn::{Activation, Mlp, Workspace};
/// use anole_tensor::{Matrix, Seed};
///
/// let model = Mlp::builder(32).hidden(48, Activation::Relu).output(16).build(Seed(0));
/// let quant = model.quantize();
/// // 2,304 i8 weights plus 64 f32 scales and 64 f32 biases: 3.4× smaller.
/// assert_eq!((model.weight_bytes(), quant.weight_bytes()), (9_472, 2_816));
/// let mut ws = Workspace::new();
/// let probs = quant.predict_proba_batch(&Matrix::zeros(2, 32), &mut ws)?;
/// assert_eq!(probs.shape(), (2, 16));
/// # Ok::<(), anole_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMlp {
    layers: Vec<QuantizedDense>,
}

anole_json::json_struct!(QuantizedMlp { layers });

impl QuantizedMlp {
    /// Input width the network expects.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width (number of classes / detection cells).
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Borrows the layers.
    pub fn layers(&self) -> &[QuantizedDense] {
        &self.layers
    }

    /// Bytes the quantized network holds resident (i8 payloads, per-row
    /// scales, and f32 biases) — the value the slot cache charges against
    /// device memory, 3.4× smaller than the f32 [`Mlp::weight_bytes`] for
    /// the serving detector.
    pub fn weight_bytes(&self) -> u64 {
        self.layers.iter().map(QuantizedDense::storage_bytes).sum()
    }

    /// Allocating forward pass returning the network output.
    ///
    /// Bit-identical to the workspace paths (same code, fresh buffers).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] when `x` has the wrong width.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let mut x_q = QuantRows::default();
        let mut a = x.clone();
        for layer in &self.layers {
            let mut z = Matrix::default();
            let mut next = Matrix::default();
            layer.forward_into(&a, &mut x_q, &mut z, &mut next)?;
            a = next;
        }
        Ok(a)
    }

    /// Workspace-backed forward pass over the batch staged in `main.x`,
    /// mirroring `Mlp::forward_ws`: per-layer pre/post-activations land in
    /// `main.zs`/`main.acts`, and `x_q` is the shared row-quantization
    /// scratch (each layer fully overwrites it).
    fn forward_ws(&self, main: &mut BatchWorkspace, x_q: &mut QuantRows) -> Result<(), NnError> {
        main.ensure_layers(self.layers.len());
        for (idx, layer) in self.layers.iter().enumerate() {
            let (before, rest) = main.acts.split_at_mut(idx);
            let input = if idx == 0 { &main.x } else { &before[idx - 1] };
            layer.forward_into(input, x_q, &mut main.zs[idx], &mut rest[0])?;
        }
        Ok(())
    }

    /// Workspace-backed batch forward returning the raw logits, still owned
    /// by the workspace. Allocation-free once warm; bit-identical to
    /// [`QuantizedMlp::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] when `x` has the wrong width.
    pub fn predict_batch<'w>(
        &self,
        x: &Matrix,
        ws: &'w mut Workspace,
    ) -> Result<&'w Matrix, NnError> {
        let main = &mut ws.main;
        main.x.copy_from(x);
        self.forward_ws(main, &mut ws.quant_in)?;
        Ok(main.logits())
    }

    /// Workspace-backed row-wise softmax of the logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] when `x` has the wrong width.
    pub fn predict_proba_batch<'w>(
        &self,
        x: &Matrix,
        ws: &'w mut Workspace,
    ) -> Result<&'w Matrix, NnError> {
        let main = &mut ws.main;
        main.x.copy_from(x);
        self.forward_ws(main, &mut ws.quant_in)?;
        crate::softmax_into(main.logits(), &mut ws.infer_out);
        Ok(&ws.infer_out)
    }

    /// Workspace-backed element-wise sigmoid of the logits (detector heads).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] when `x` has the wrong width.
    pub fn predict_sigmoid_batch<'w>(
        &self,
        x: &Matrix,
        ws: &'w mut Workspace,
    ) -> Result<&'w Matrix, NnError> {
        let main = &mut ws.main;
        main.x.copy_from(x);
        self.forward_ws(main, &mut ws.quant_in)?;
        crate::sigmoid_into(main.logits(), &mut ws.infer_out);
        Ok(&ws.infer_out)
    }
}

impl Mlp {
    /// Converts the trained network into the int8 serving format: each
    /// layer's weights are transposed and quantized symmetrically per output
    /// neuron; biases stay f32. See the [`quant`](crate::quant) module docs
    /// for the format and accuracy contract.
    ///
    /// # Panics
    ///
    /// Panics if a layer is wider than [`MAX_EXACT_DEPTH`] inputs, past which
    /// the int8 product would no longer be exact.
    pub fn quantize(&self) -> QuantizedMlp {
        for layer in self.layers() {
            assert!(
                layer.in_dim() <= MAX_EXACT_DEPTH,
                "int8 layers take at most {MAX_EXACT_DEPTH} inputs, not {}",
                layer.in_dim()
            );
        }
        QuantizedMlp {
            layers: self.layers().iter().map(QuantizedDense::from_dense).collect(),
        }
    }
}

/// Precision-agnostic serving interface.
///
/// `M_decision` and each specialist detector opt into int8 independently —
/// the acceptance gate in `anole-core` keeps a model at f32 when quantization
/// costs it more than ε of F1 — so serving code dispatches through this trait
/// instead of hard-coding a weight format.
pub trait Predictor {
    /// The weight format this predictor serves at.
    fn precision(&self) -> Precision;

    /// Output width (number of classes / detection cells).
    fn output_dim(&self) -> usize;

    /// Bytes held resident while the model is serving.
    fn resident_bytes(&self) -> u64;

    /// Workspace-backed row-wise softmax over the batch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] when `x` has the wrong width.
    fn predict_proba_batch<'w>(
        &self,
        x: &Matrix,
        ws: &'w mut Workspace,
    ) -> Result<&'w Matrix, NnError>;

    /// Workspace-backed element-wise sigmoid over the batch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] when `x` has the wrong width.
    fn predict_sigmoid_batch<'w>(
        &self,
        x: &Matrix,
        ws: &'w mut Workspace,
    ) -> Result<&'w Matrix, NnError>;
}

impl Predictor for Mlp {
    fn precision(&self) -> Precision {
        Precision::Fp32
    }

    fn output_dim(&self) -> usize {
        self.output_dim()
    }

    fn resident_bytes(&self) -> u64 {
        self.weight_bytes()
    }

    fn predict_proba_batch<'w>(
        &self,
        x: &Matrix,
        ws: &'w mut Workspace,
    ) -> Result<&'w Matrix, NnError> {
        Mlp::predict_proba_batch(self, x, ws)
    }

    fn predict_sigmoid_batch<'w>(
        &self,
        x: &Matrix,
        ws: &'w mut Workspace,
    ) -> Result<&'w Matrix, NnError> {
        Mlp::predict_sigmoid_batch(self, x, ws)
    }
}

impl Predictor for QuantizedMlp {
    fn precision(&self) -> Precision {
        Precision::Int8
    }

    fn output_dim(&self) -> usize {
        self.output_dim()
    }

    fn resident_bytes(&self) -> u64 {
        self.weight_bytes()
    }

    fn predict_proba_batch<'w>(
        &self,
        x: &Matrix,
        ws: &'w mut Workspace,
    ) -> Result<&'w Matrix, NnError> {
        QuantizedMlp::predict_proba_batch(self, x, ws)
    }

    fn predict_sigmoid_batch<'w>(
        &self,
        x: &Matrix,
        ws: &'w mut Workspace,
    ) -> Result<&'w Matrix, NnError> {
        QuantizedMlp::predict_sigmoid_batch(self, x, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anole_tensor::{rng_from_seed, Seed};

    fn model() -> Mlp {
        Mlp::builder(6)
            .hidden(16, Activation::Relu)
            .hidden(8, Activation::Tanh)
            .output(3)
            .build(Seed(21))
    }

    fn input(rows: usize, seed: u64) -> Matrix {
        Matrix::random_normal(rows, 6, 1.0, &mut rng_from_seed(Seed(seed)))
    }

    #[test]
    fn quantized_forward_tracks_fp32_forward() {
        let m = model();
        let q = m.quantize();
        let x = input(8, 1);
        let f = m.forward(&x).unwrap();
        let g = q.forward(&x).unwrap();
        assert_eq!(f.shape(), g.shape());
        for i in 0..f.rows() {
            for j in 0..f.cols() {
                let (a, b) = (f.get(i, j), g.get(i, j));
                assert!(
                    (a - b).abs() < 0.35,
                    "[{i},{j}] fp32 {a} vs i8 {b} drifted too far"
                );
            }
        }
    }

    #[test]
    fn workspace_paths_match_allocating_forward_exactly() {
        let m = model();
        let q = m.quantize();
        let x = input(5, 2);
        let mut ws = Workspace::new();
        let logits = q.forward(&x).unwrap();
        assert_eq!(q.predict_batch(&x, &mut ws).unwrap(), &logits);
        assert_eq!(
            q.predict_proba_batch(&x, &mut ws).unwrap(),
            &crate::softmax(&logits)
        );
        assert_eq!(
            q.predict_sigmoid_batch(&x, &mut ws).unwrap(),
            &crate::sigmoid(&logits)
        );
    }

    #[test]
    fn quantized_storage_counts_payload_scales_and_bias() {
        // 6→16→8→3: 248 weights, 27 outputs each with a scale and a bias.
        let (m, q) = (model(), model().quantize());
        assert_eq!(m.weight_bytes(), 4 * (248 + 27));
        assert_eq!(q.weight_bytes(), 248 + 4 * (27 + 27));
        // The f32 scales and biases weigh as much as the payload here; at
        // the serving detector's 32→48→16 the payload dominates.
        let detector = Mlp::builder(32)
            .hidden(48, Activation::Relu)
            .output(16)
            .build(Seed(3));
        let (fp32, int8) = (detector.weight_bytes(), detector.quantize().weight_bytes());
        assert_eq!((fp32, int8), (9_472, 2_816));
        assert!(int8 * 3 < fp32, "quantized {int8} bytes vs fp32 {fp32} bytes");
    }

    #[test]
    fn predictor_trait_dispatches_both_precisions() {
        let m = model();
        let q = m.quantize();
        let x = input(3, 3);
        let mut ws = Workspace::new();
        let serving: Vec<&dyn Predictor> = vec![&m, &q];
        for p in serving {
            let probs = p.predict_proba_batch(&x, &mut ws).unwrap();
            assert_eq!(probs.shape(), (3, p.output_dim()));
            match p.precision() {
                Precision::Fp32 => assert_eq!(p.resident_bytes(), m.weight_bytes()),
                Precision::Int8 => assert_eq!(p.resident_bytes(), q.weight_bytes()),
            }
        }
    }

    #[test]
    fn wrong_input_width_is_reported() {
        let q = model().quantize();
        let err = q.forward(&Matrix::zeros(1, 9)).unwrap_err();
        assert!(matches!(err, NnError::InputWidth { expected: 6, actual: 9 }));
        let mut ws = Workspace::new();
        let err = q.predict_batch(&Matrix::zeros(1, 9), &mut ws).unwrap_err();
        assert!(matches!(err, NnError::InputWidth { expected: 6, actual: 9 }));
    }

    #[test]
    fn precision_labels_are_stable() {
        assert_eq!(Precision::Fp32.label(), "fp32");
        assert_eq!(Precision::Int8.label(), "i8");
        assert_eq!(Precision::default(), Precision::Fp32);
        assert_eq!(format!("{}", Precision::Int8), "i8");
    }

    #[test]
    fn json_round_trip_preserves_outputs() {
        let q = model().quantize();
        let json = anole_json::to_string(&q);
        let back: QuantizedMlp = anole_json::from_str(&json).unwrap();
        assert_eq!(back, q);
        let x = input(2, 4);
        assert_eq!(q.forward(&x).unwrap(), back.forward(&x).unwrap());
    }
}
