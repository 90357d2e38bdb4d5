//! The first-order optimizer: Adam.
//!
//! Adam has two update paths that produce bit-identical weights: the fused
//! [`Adam::step`] used by the trainer — a single pass over `[parameters,
//! optimizer state]` slices in lockstep, allocation-free after the lazy
//! state initialisation — and the historical [`Adam::step_reference`] kept
//! as the plainly-auditable specification the property tests compare
//! against.

use anole_tensor::{Matrix, ShapeError};

use crate::{Mlp, NnError};

/// Declarative optimizer choice carried by
/// [`TrainConfig`](crate::TrainConfig). It stays an enum so stored
/// configs, bundles and checkpoints keep their `{"Adam":{"lr":…}}` form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Adam with default `(β₁, β₂) = (0.9, 0.999)`.
    Adam {
        /// Learning rate.
        lr: f32,
    },
}

anole_json::json_enum!(OptimizerKind { Adam { lr } });

impl OptimizerKind {
    /// Instantiates the optimizer state for a training run.
    pub fn build(self) -> Adam {
        let OptimizerKind::Adam { lr } = self;
        Adam::new(lr)
    }
}

impl Default for OptimizerKind {
    /// Adam at `lr = 1e-2`, a robust default for the small networks here.
    fn default() -> Self {
        OptimizerKind::Adam { lr: 1e-2 }
    }
}

/// Fused Adam update on one parameter matrix: moment updates, bias
/// correction, and the parameter step in a single pass over `[θ, m, v]`.
///
/// Per-element arithmetic is copied verbatim from the reference
/// `moment_update`, so results are bit-identical (the reference's final
/// `apply_update` adds `1.0·update`, which is exact).
#[allow(clippy::too_many_arguments)]
fn fused_adam(
    param: &mut Matrix,
    first: &mut Matrix,
    second: &mut Matrix,
    grad: &Matrix,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
) -> Result<(), NnError> {
    if grad.shape() != param.shape()
        || first.shape() != param.shape()
        || second.shape() != param.shape()
    {
        return Err(ShapeError::new("fused_adam", param.shape(), grad.shape()).into());
    }
    let moments = first.as_mut_slice().iter_mut().zip(second.as_mut_slice());
    let state = param.as_mut_slice().iter_mut().zip(moments);
    for ((w, (m, v)), &g) in state.zip(grad.as_slice()) {
        let mi = beta1 * *m + (1.0 - beta1) * g;
        let vi = beta2 * *v + (1.0 - beta2) * g * g;
        *m = mi;
        *v = vi;
        let m_hat = mi / bc1;
        let v_hat = vi / bc2;
        *w += -lr * m_hat / (v_hat.sqrt() + eps);
    }
    Ok(())
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    first: Vec<(Matrix, Matrix)>,
    second: Vec<(Matrix, Matrix)>,
}

impl Adam {
    /// Creates an Adam optimizer with standard moment coefficients.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            first: Vec::new(),
            second: Vec::new(),
        }
    }

    /// Applies one update step given per-layer `(d_weights, d_bias)` grads.
    ///
    /// Layers within the model's frozen prefix are left untouched. Uses the
    /// fused single-pass kernel; allocation-free after the first call's
    /// lazy state initialisation.
    ///
    /// # Errors
    ///
    /// Returns a shape error if gradient shapes disagree with the parameters.
    pub fn step(&mut self, model: &mut Mlp, grads: &[(Matrix, Matrix)]) -> Result<(), NnError> {
        self.ensure_moments(grads);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let frozen = model.frozen_prefix();
        for (idx, layer) in model.layers_mut().iter_mut().enumerate() {
            if idx < frozen {
                continue;
            }
            let (dw, db) = &grads[idx];
            let (mw, mb) = &mut self.first[idx];
            let (vw, vb) = &mut self.second[idx];
            let (w, b) = layer.params_mut();
            fused_adam(w, mw, vw, dw, self.lr, self.beta1, self.beta2, self.eps, bc1, bc2)?;
            fused_adam(b, mb, vb, db, self.lr, self.beta1, self.beta2, self.eps, bc1, bc2)?;
        }
        Ok(())
    }

    /// The original allocate-an-update-matrix step, kept as the
    /// bit-identity reference for [`Adam::step`]. Same state, same results,
    /// more allocations.
    ///
    /// # Errors
    ///
    /// Returns a shape error if gradient shapes disagree with the parameters.
    pub fn step_reference(
        &mut self,
        model: &mut Mlp,
        grads: &[(Matrix, Matrix)],
    ) -> Result<(), NnError> {
        self.ensure_moments(grads);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let frozen = model.frozen_prefix();
        for (idx, layer) in model.layers_mut().iter_mut().enumerate() {
            if idx < frozen {
                continue;
            }
            let (dw, db) = &grads[idx];
            let update_w = self.moment_update(idx, true, dw, bc1, bc2);
            let update_b = self.moment_update(idx, false, db, bc1, bc2);
            layer.apply_update(&update_w, &update_b)?;
        }
        Ok(())
    }

    /// Lazily sizes the moment state to the gradient shapes (warm-up
    /// allocation; every later step reuses it).
    fn ensure_moments(&mut self, grads: &[(Matrix, Matrix)]) {
        if self.first.is_empty() {
            let zeros = |m: &Matrix| Matrix::zeros(m.rows(), m.cols());
            self.first = grads.iter().map(|(dw, db)| (zeros(dw), zeros(db))).collect();
            self.second = grads.iter().map(|(dw, db)| (zeros(dw), zeros(db))).collect();
        }
    }

    fn moment_update(&mut self, idx: usize, weights: bool, g: &Matrix, bc1: f32, bc2: f32) -> Matrix {
        let (m, v) = if weights {
            (&mut self.first[idx].0, &mut self.second[idx].0)
        } else {
            (&mut self.first[idx].1, &mut self.second[idx].1)
        };
        let mut update = Matrix::zeros(g.rows(), g.cols());
        for i in 0..g.len() {
            let gi = g.as_slice()[i];
            let mi = self.beta1 * m.as_slice()[i] + (1.0 - self.beta1) * gi;
            let vi = self.beta2 * v.as_slice()[i] + (1.0 - self.beta2) * gi * gi;
            m.as_mut_slice()[i] = mi;
            v.as_mut_slice()[i] = vi;
            let m_hat = mi / bc1;
            let v_hat = vi / bc2;
            update.as_mut_slice()[i] = -self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
        update
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{softmax_cross_entropy, Activation, Mlp};
    use anole_tensor::{Matrix, Seed};

    fn tiny_problem() -> (Mlp, Matrix, Vec<usize>) {
        let model = Mlp::builder(2).hidden(8, Activation::Tanh).output(2).build(Seed(3));
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        let y = vec![0usize, 1, 1, 0]; // XOR
        (model, x, y)
    }

    fn loss_of(model: &Mlp, x: &Matrix, y: &[usize]) -> f32 {
        softmax_cross_entropy(&model.forward(x).unwrap(), y).unwrap().loss
    }

    fn run_steps(mut opt: Adam, steps: usize) -> f32 {
        let (mut model, x, y) = tiny_problem();
        for _ in 0..steps {
            let cache = model.forward_cached(&x).unwrap();
            let lv = softmax_cross_entropy(cache.output(), &y).unwrap();
            let grads = model.backward(&cache, &lv.d_logits).unwrap();
            opt.step(&mut model, &grads).unwrap();
        }
        loss_of(&model, &x, &y)
    }

    #[test]
    fn adam_solves_xor() {
        let final_loss = run_steps(OptimizerKind::Adam { lr: 0.05 }.build(), 400);
        assert!(final_loss < 0.05, "adam final loss {final_loss}");
    }

    #[test]
    fn frozen_prefix_layers_do_not_move() {
        let (mut model, x, y) = tiny_problem();
        model.set_frozen_prefix(1);
        let before = model.layers()[0].weights().clone();
        let mut opt = OptimizerKind::Adam { lr: 0.05 }.build();
        let initial = loss_of(&model, &x, &y);
        for _ in 0..200 {
            let cache = model.forward_cached(&x).unwrap();
            let lv = softmax_cross_entropy(cache.output(), &y).unwrap();
            let grads = model.backward(&cache, &lv.d_logits).unwrap();
            opt.step(&mut model, &grads).unwrap();
        }
        assert_eq!(model.layers()[0].weights(), &before);
        // The head must still have moved and improved the loss.
        assert!(loss_of(&model, &x, &y) < initial);
    }

    #[test]
    fn default_kind_is_adam() {
        assert!(matches!(OptimizerKind::default(), OptimizerKind::Adam { .. }));
    }

    #[test]
    fn fused_step_matches_reference_bitwise() {
        let kind = OptimizerKind::Adam { lr: 0.01 };
        let (mut m_fused, x, y) = tiny_problem();
        let mut m_ref = m_fused.clone();
        let mut opt_fused = kind.build();
        let mut opt_ref = kind.build();
        for _ in 0..25 {
            let cache = m_fused.forward_cached(&x).unwrap();
            let lv = softmax_cross_entropy(cache.output(), &y).unwrap();
            let grads = m_fused.backward(&cache, &lv.d_logits).unwrap();
            opt_fused.step(&mut m_fused, &grads).unwrap();

            let cache = m_ref.forward_cached(&x).unwrap();
            let lv = softmax_cross_entropy(cache.output(), &y).unwrap();
            let grads = m_ref.backward(&cache, &lv.d_logits).unwrap();
            opt_ref.step_reference(&mut m_ref, &grads).unwrap();
        }
        assert_eq!(m_fused, m_ref, "fused vs reference diverged");
    }
}
