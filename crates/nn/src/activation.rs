//! Element-wise activation functions with their derivatives.

use anole_tensor::{math, Matrix};

/// Elements per stack buffer in the passes that batch a transcendental call
/// (the sigmoid here, the softmax and loss terms in `loss.rs`): nothing is
/// allocated, and a buffer small enough to zero in a few vector stores
/// keeps a single-row forward cheap.
pub(crate) const CHUNK: usize = 64;

/// An element-wise activation function applied after a dense layer.
///
/// # Examples
///
/// ```
/// use anole_nn::Activation;
/// use anole_tensor::Matrix;
///
/// let z = Matrix::row_vector(&[-1.0, 2.0]);
/// let a = Activation::Relu.forward(&z);
/// assert_eq!(a.as_slice(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// `max(0, x)` — used in hidden layers throughout the reproduction.
    Relu,
    /// Logistic sigmoid — used by multi-label detector heads.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Pass-through, used by logit-producing output layers.
    Identity,
}

anole_json::json_enum!(Activation { Relu, Sigmoid, Tanh, Identity });

impl Activation {
    /// Applies the activation to every entry of `z`.
    pub fn forward(&self, z: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(z, &mut out);
        out
    }

    /// [`Activation::forward`] writing into a caller-provided buffer.
    ///
    /// `out` is reshaped with [`Matrix::resize_scratch`] and fully
    /// overwritten. Tanh and the sigmoid's exponential run on the slice
    /// kernels of [`anole_tensor::math`], which give the bits of glibc's
    /// `tanhf` and `expf`.
    pub fn forward_into(&self, z: &Matrix, out: &mut Matrix) {
        out.resize_scratch(z.rows(), z.cols());
        let src = z.as_slice();
        let dst = out.as_mut_slice();
        match self {
            Activation::Relu => {
                for (o, &v) in dst.iter_mut().zip(src.iter()) {
                    *o = v.max(0.0);
                }
            }
            Activation::Sigmoid => sigmoid_slice(src, dst),
            Activation::Tanh => math::tanh_into(src, dst),
            Activation::Identity => dst.copy_from_slice(src),
        }
    }

    /// Computes `d activation / d z` given the pre-activation `z` and the
    /// post-activation `a` (some derivatives are cheaper from one or the
    /// other).
    pub fn derivative(&self, z: &Matrix, a: &Matrix) -> Matrix {
        match self {
            Activation::Relu => z.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
            Activation::Sigmoid => a.map(|s| s * (1.0 - s)),
            Activation::Tanh => a.map(|t| 1.0 - t * t),
            Activation::Identity => Matrix::filled(z.rows(), z.cols(), 1.0),
        }
    }

    /// Multiplies `d` element-wise by the derivative, in place.
    ///
    /// Equivalent to `d.hadamard(&self.derivative(z, a))` without the two
    /// intermediate matrices, and bit-identical to it: each element computes
    /// the same `d · d'` product (for ReLU the masked factor is the literal
    /// `1.0`/`0.0` the allocating path produced, preserving `-0.0` results
    /// where `d` is negative and the unit is inactive; for Identity the
    /// factor `1.0` is exact, so the pass is skipped entirely).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `d`, `z`, and `a` share a shape.
    pub fn apply_derivative_inplace(&self, z: &Matrix, a: &Matrix, d: &mut Matrix) {
        debug_assert_eq!(z.shape(), d.shape(), "derivative shape mismatch");
        debug_assert_eq!(a.shape(), d.shape(), "derivative shape mismatch");
        let dst = d.as_mut_slice();
        match self {
            Activation::Relu => {
                for (dv, &zv) in dst.iter_mut().zip(z.as_slice().iter()) {
                    *dv *= if zv > 0.0 { 1.0 } else { 0.0 };
                }
            }
            Activation::Sigmoid => {
                for (dv, &av) in dst.iter_mut().zip(a.as_slice().iter()) {
                    *dv *= av * (1.0 - av);
                }
            }
            Activation::Tanh => {
                for (dv, &av) in dst.iter_mut().zip(a.as_slice().iter()) {
                    *dv *= 1.0 - av * av;
                }
            }
            Activation::Identity => {}
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Identity => "identity",
        };
        f.write_str(name)
    }
}

/// Numerically stable logistic sigmoid of every element of `x`, written to
/// `out`: `e = exp(−|x|)`, then `1/(1+e)` where `x ≥ 0` and `e/(1+e)`
/// elsewhere, so the exponential never overflows.
fn sigmoid_slice(x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(out.len(), x.len(), "sigmoid: output length");
    let mut neg_abs = [0.0f32; CHUNK];
    for (xs, os) in x.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
        let neg_abs = &mut neg_abs[..xs.len()];
        for (n, &v) in neg_abs.iter_mut().zip(xs) {
            *n = -v.abs();
        }
        math::exp_into(neg_abs, os);
        for (o, &v) in os.iter_mut().zip(xs) {
            let e = *o;
            let numerator = if v >= 0.0 { 1.0 } else { e };
            *o = numerator / (1.0 + e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let z = Matrix::row_vector(&[-3.0, 0.0, 4.5]);
        assert_eq!(Activation::Relu.forward(&z).as_slice(), &[0.0, 0.0, 4.5]);
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        let z = Matrix::row_vector(&[-100.0, 0.0, 100.0]);
        let a = Activation::Sigmoid.forward(&z);
        assert!(a.get(0, 0) >= 0.0 && a.get(0, 0) < 1e-6);
        assert!((a.get(0, 1) - 0.5).abs() < 1e-6);
        assert!(a.get(0, 2) > 1.0 - 1e-6 && a.get(0, 2) <= 1.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for act in [
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Identity,
        ] {
            for &x in &[-1.5f32, -0.2, 0.3, 2.0] {
                let z = Matrix::row_vector(&[x]);
                let a = act.forward(&z);
                let d = act.derivative(&z, &a).get(0, 0);
                let fp = act.forward(&Matrix::row_vector(&[x + eps])).get(0, 0);
                let fm = act.forward(&Matrix::row_vector(&[x - eps])).get(0, 0);
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (d - numeric).abs() < 5e-2,
                    "{act} at {x}: analytic {d} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Activation::Relu.to_string(), "relu");
        assert_eq!(Activation::Identity.to_string(), "identity");
    }
}
