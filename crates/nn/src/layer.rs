//! A fully connected layer with manual backpropagation.

use anole_tensor::{Matrix, StdRng};

use crate::{Activation, NnError};

/// A dense (fully connected) layer: `a = act(x · W + b)`.
///
/// Weights are `in_dim × out_dim`, initialized with He/Xavier-style scaling
/// depending on the activation. The layer caches nothing; the caller (the
/// [`Mlp`](crate::Mlp)) keeps the activations needed for backpropagation so
/// that inference stays allocation-lean.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    weights: Matrix,
    bias: Matrix,
    activation: Activation,
}

/// Gradients of a dense layer produced by [`Dense::backward`].
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGrads {
    /// Gradient w.r.t. the weights, same shape as the weight matrix.
    pub d_weights: Matrix,
    /// Gradient w.r.t. the bias, shape `1 × out_dim`.
    pub d_bias: Matrix,
    /// Gradient w.r.t. the layer input, for propagating to earlier layers.
    pub d_input: Matrix,
}

anole_json::json_struct!(Dense { weights, bias, activation });

impl Dense {
    /// Creates a layer with activation-appropriate random initialization.
    ///
    /// He initialization for ReLU, Xavier for the rest.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut StdRng) -> Self {
        let scale = match activation {
            Activation::Relu => (2.0 / in_dim as f32).sqrt(),
            _ => (1.0 / in_dim as f32).sqrt(),
        };
        Self {
            weights: Matrix::random_normal(in_dim, out_dim, scale, rng),
            bias: Matrix::zeros(1, out_dim),
            activation,
        }
    }

    /// Input width the layer expects.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output width the layer produces.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Borrows the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Borrows the bias row.
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Multiply–add FLOPs of one forward pass on a single sample.
    pub fn flops_per_sample(&self) -> u64 {
        // x·W: in*out multiplies + in*out adds; bias add: out; activation: out.
        (2 * self.in_dim() as u64 + 2) * self.out_dim() as u64
    }

    /// Forward pass returning `(pre_activation, post_activation)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] if `x` is not `n × in_dim`.
    pub fn forward(&self, x: &Matrix) -> Result<(Matrix, Matrix), NnError> {
        let mut z = Matrix::default();
        let mut a = Matrix::default();
        self.forward_into(x, &mut z, &mut a)?;
        Ok((z, a))
    }

    /// [`Dense::forward`] writing into caller-provided buffers.
    ///
    /// `z` and `a` are reshaped with [`Matrix::resize_scratch`] and fully
    /// overwritten, so the pass is allocation-free once they have warm
    /// capacity. Bit-identical to the allocating wrapper (which is this
    /// method on fresh matrices).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] if `x` is not `n × in_dim`.
    pub fn forward_into(&self, x: &Matrix, z: &mut Matrix, a: &mut Matrix) -> Result<(), NnError> {
        if x.cols() != self.in_dim() {
            return Err(NnError::InputWidth {
                expected: self.in_dim(),
                actual: x.cols(),
            });
        }
        x.matmul_into(&self.weights, z)?;
        z.add_row_broadcast_assign(&self.bias)?;
        self.activation.forward_into(z, a);
        Ok(())
    }

    /// Backward pass.
    ///
    /// `x` is the input that produced `(z, a)` in [`Dense::forward`];
    /// `d_out` is the loss gradient w.r.t. the post-activation output.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the cached matrices are inconsistent.
    pub fn backward(
        &self,
        x: &Matrix,
        z: &Matrix,
        a: &Matrix,
        d_out: &Matrix,
    ) -> Result<DenseGrads, NnError> {
        let dz = d_out.hadamard(&self.activation.derivative(z, a))?;
        let d_weights = x.matmul_tn(&dz)?;
        let d_bias = dz.sum_rows();
        let d_input = dz.matmul_nt(&self.weights)?;
        Ok(DenseGrads {
            d_weights,
            d_bias,
            d_input,
        })
    }

    /// [`Dense::backward`] writing into caller-provided buffers.
    ///
    /// `d_out` arrives as `dL/da` and is turned into `dL/dz` **in place**
    /// (the hadamard with the activation derivative fuses into one pass);
    /// `grads` receives the weight and bias gradients. When
    /// `d_input` is `Some((d_in, nt_pack))`, the input gradient is written
    /// to `d_in` using `nt_pack` as the [`Matrix::matmul_nt_into`] transpose
    /// scratch; the first layer passes `None` and skips the product whose
    /// result backprop would discard anyway.
    ///
    /// Bit-identical to [`Dense::backward`] output-for-output.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the cached matrices are inconsistent.
    pub(crate) fn backward_ws(
        &self,
        x: &Matrix,
        z: &Matrix,
        a: &Matrix,
        d_out: &mut Matrix,
        (d_weights, d_bias): (&mut Matrix, &mut Matrix),
        d_input: Option<(&mut Matrix, &mut Matrix)>,
    ) -> Result<(), NnError> {
        self.activation.apply_derivative_inplace(z, a, d_out);
        x.matmul_tn_into(d_out, d_weights)?;
        d_out.sum_rows_into(d_bias);
        if let Some((d_in, nt_pack)) = d_input {
            d_out.matmul_nt_into(&self.weights, nt_pack, d_in)?;
        }
        Ok(())
    }

    /// Applies a parameter update: `W += dw`, `b += db` (caller pre-scales).
    ///
    /// # Errors
    ///
    /// Returns a shape error if update shapes disagree with the parameters.
    pub fn apply_update(&mut self, dw: &Matrix, db: &Matrix) -> Result<(), NnError> {
        self.weights.axpy(1.0, dw)?;
        self.bias.axpy(1.0, db)?;
        Ok(())
    }

    /// Mutable access to `(weights, bias)` for the fused optimizer kernels.
    pub(crate) fn params_mut(&mut self) -> (&mut Matrix, &mut Matrix) {
        (&mut self.weights, &mut self.bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anole_tensor::{rng_from_seed, Seed};

    fn layer(in_dim: usize, out_dim: usize, act: Activation) -> Dense {
        let mut rng = rng_from_seed(Seed(11));
        Dense::new(in_dim, out_dim, act, &mut rng)
    }

    #[test]
    fn forward_shape_and_width_check() {
        let l = layer(3, 5, Activation::Relu);
        let x = Matrix::zeros(4, 3);
        let (z, a) = l.forward(&x).unwrap();
        assert_eq!(z.shape(), (4, 5));
        assert_eq!(a.shape(), (4, 5));
        let bad = Matrix::zeros(4, 2);
        assert!(matches!(
            l.forward(&bad),
            Err(NnError::InputWidth { expected: 3, actual: 2 })
        ));
    }

    #[test]
    fn zero_input_passes_bias_through_identity() {
        let mut l = layer(2, 2, Activation::Identity);
        l.apply_update(&Matrix::zeros(2, 2), &Matrix::row_vector(&[1.0, -1.0]))
            .unwrap();
        let (_, a) = l.forward(&Matrix::zeros(1, 2)).unwrap();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), -1.0);
    }

    #[test]
    fn gradient_check_weights() {
        // Finite-difference check of dW on a scalar loss L = sum(a).
        let l = layer(3, 2, Activation::Tanh);
        let mut rng = rng_from_seed(Seed(5));
        let x = Matrix::random_normal(4, 3, 1.0, &mut rng);
        let (z, a) = l.forward(&x).unwrap();
        let d_out = Matrix::filled(4, 2, 1.0); // dL/da = 1
        let grads = l.backward(&x, &z, &a, &d_out).unwrap();

        let eps = 1e-2f32;
        for (wi, wj) in [(0usize, 0usize), (1, 1), (2, 0)] {
            let mut lp = l.clone();
            let mut bump = Matrix::zeros(3, 2);
            bump.set(wi, wj, eps);
            lp.apply_update(&bump, &Matrix::zeros(1, 2)).unwrap();
            let (_, ap) = lp.forward(&x).unwrap();

            let mut lm = l.clone();
            let bump_m = bump.scale(-1.0);
            lm.apply_update(&bump_m, &Matrix::zeros(1, 2)).unwrap();
            let (_, am) = lm.forward(&x).unwrap();

            let numeric =
                (ap.iter().sum::<f32>() - am.iter().sum::<f32>()) / (2.0 * eps);
            let analytic = grads.d_weights.get(wi, wj);
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "dW[{wi},{wj}] numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradient_check_input() {
        let l = layer(3, 2, Activation::Sigmoid);
        let mut rng = rng_from_seed(Seed(6));
        let x = Matrix::random_normal(1, 3, 1.0, &mut rng);
        let (z, a) = l.forward(&x).unwrap();
        let d_out = Matrix::filled(1, 2, 1.0);
        let grads = l.backward(&x, &z, &a, &d_out).unwrap();

        let eps = 1e-2f32;
        for j in 0..3 {
            let mut xp = x.clone();
            xp.set(0, j, x.get(0, j) + eps);
            let mut xm = x.clone();
            xm.set(0, j, x.get(0, j) - eps);
            let (_, ap) = l.forward(&xp).unwrap();
            let (_, am) = l.forward(&xm).unwrap();
            let numeric = (ap.iter().sum::<f32>() - am.iter().sum::<f32>()) / (2.0 * eps);
            assert!(
                (numeric - grads.d_input.get(0, j)).abs() < 2e-2,
                "dX[{j}] mismatch"
            );
        }
    }

    #[test]
    fn parameter_and_flop_accounting() {
        let l = layer(10, 4, Activation::Relu);
        assert_eq!(l.parameter_count(), 10 * 4 + 4);
        assert_eq!(l.flops_per_sample(), (2 * 10 + 2) * 4);
    }
}
