//! Multi-layer perceptron with a builder, cached forward pass, and manual
//! backpropagation.

use anole_tensor::{rng_from_seed, Matrix, Seed};

use crate::workspace::{BatchWorkspace, Workspace};
use crate::{Activation, Dense, NnError};

/// A feed-forward network of dense layers.
///
/// The reproduction uses `Mlp` for all three network roles in the paper:
/// scene encoder (`M_scene`), decision model (`M_decision`, whose backbone
/// layers are frozen during training, §IV-C), and the compressed / deep
/// detectors.
///
/// # Examples
///
/// ```
/// use anole_nn::{Activation, Mlp};
/// use anole_tensor::{Matrix, Seed};
///
/// let model = Mlp::builder(4).hidden(8, Activation::Relu).output(3).build(Seed(0));
/// let probs = model.predict_proba(&Matrix::zeros(2, 4))?;
/// assert_eq!(probs.shape(), (2, 3));
/// # Ok::<(), anole_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
    frozen_prefix: usize,
}

/// Builder for [`Mlp`]; see [`Mlp::builder`].
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    input_dim: usize,
    specs: Vec<(usize, Activation)>,
}

impl MlpBuilder {
    /// Appends a hidden layer of `width` units.
    pub fn hidden(mut self, width: usize, activation: Activation) -> Self {
        self.specs.push((width, activation));
        self
    }

    /// Appends the output layer producing `classes` raw logits.
    pub fn output(mut self, classes: usize) -> Self {
        self.specs.push((classes, Activation::Identity));
        self
    }

    /// Appends an output layer with an explicit activation (e.g. sigmoid
    /// heads; note the losses in this crate expect raw logits).
    pub fn output_with_activation(mut self, classes: usize, activation: Activation) -> Self {
        self.specs.push((classes, activation));
        self
    }

    /// Builds the network with deterministic initialization from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if no layers were specified.
    pub fn build(self, seed: Seed) -> Mlp {
        assert!(!self.specs.is_empty(), "an Mlp needs at least one layer");
        let mut rng = rng_from_seed(seed);
        let mut layers = Vec::with_capacity(self.specs.len());
        let mut in_dim = self.input_dim;
        for (width, activation) in self.specs {
            layers.push(Dense::new(in_dim, width, activation, &mut rng));
            in_dim = width;
        }
        Mlp {
            layers,
            frozen_prefix: 0,
        }
    }
}

/// Per-layer activations cached by [`Mlp::forward_cached`] for backprop.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// Input to each layer (`inputs[0]` is the batch itself).
    pub inputs: Vec<Matrix>,
    /// Pre-activation of each layer.
    pub zs: Vec<Matrix>,
    /// Post-activation of each layer (`activations.last()` is the output).
    pub activations: Vec<Matrix>,
}

impl ForwardCache {
    /// The network output (post-activation of the last layer).
    ///
    /// # Panics
    ///
    /// Panics if the cache is empty, which cannot happen for caches produced
    /// by [`Mlp::forward_cached`].
    pub fn output(&self) -> &Matrix {
        self.activations.last().expect("non-empty cache")
    }
}

anole_json::json_struct!(Mlp { layers, frozen_prefix });

impl Mlp {
    /// Starts building a network that consumes `input_dim`-wide samples.
    pub fn builder(input_dim: usize) -> MlpBuilder {
        MlpBuilder {
            input_dim,
            specs: Vec::new(),
        }
    }

    /// Builds a network from pre-constructed layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or consecutive widths disagree.
    pub fn from_layers(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "an Mlp needs at least one layer");
        for w in layers.windows(2) {
            assert_eq!(
                w[0].out_dim(),
                w[1].in_dim(),
                "layer widths must chain: {} vs {}",
                w[0].out_dim(),
                w[1].in_dim()
            );
        }
        Self {
            layers,
            frozen_prefix: 0,
        }
    }

    /// Input width the network expects.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width (number of classes / detection cells).
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Borrows the layers.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutably borrows the layers (used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Number of leading layers excluded from training updates.
    ///
    /// The paper freezes the `M_scene` backbone while training `M_decision`
    /// (§IV-C); the trainer consults this value and skips updates for the
    /// first `frozen_prefix` layers. A frozen prefix still runs forward and
    /// backward on every batch. `M_decision` avoids that cost: it embeds
    /// its training rows through the backbone once, trains the head alone,
    /// and then marks the joined network's backbone with this value.
    pub fn frozen_prefix(&self) -> usize {
        self.frozen_prefix
    }

    /// Freezes the first `layers` layers against training updates.
    ///
    /// Frozen layers keep their weights, but the trainer still runs them
    /// forward and backward on every batch; to train only a head on top of
    /// a fixed prefix, as `M_decision` does, train the head alone on the
    /// prefix's outputs.
    ///
    /// # Panics
    ///
    /// Panics if `layers` exceeds the layer count.
    pub fn set_frozen_prefix(&mut self, layers: usize) {
        assert!(layers <= self.layers.len(), "cannot freeze {layers} layers");
        self.frozen_prefix = layers;
    }

    /// Total number of trainable parameters (frozen layers included).
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Dense::parameter_count).sum()
    }

    /// Size of the serialized weights in bytes (4 bytes per parameter).
    pub fn weight_bytes(&self) -> u64 {
        self.parameter_count() as u64 * 4
    }

    /// Multiply–add FLOPs of a single-sample forward pass.
    pub fn flops_per_sample(&self) -> u64 {
        self.layers.iter().map(Dense::flops_per_sample).sum()
    }

    /// Plain forward pass returning the network output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] when `x` has the wrong width.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let mut a = x.clone();
        for layer in &self.layers {
            let (_, next) = layer.forward(&a)?;
            a = next;
        }
        Ok(a)
    }

    /// Forward pass retaining the intermediate activations for backprop.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] when `x` has the wrong width.
    pub fn forward_cached(&self, x: &Matrix) -> Result<ForwardCache, NnError> {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut zs = Vec::with_capacity(self.layers.len());
        let mut activations = Vec::with_capacity(self.layers.len());
        let mut a = x.clone();
        for layer in &self.layers {
            let (z, next) = layer.forward(&a)?;
            inputs.push(a);
            zs.push(z);
            activations.push(next.clone());
            a = next;
        }
        Ok(ForwardCache {
            inputs,
            zs,
            activations,
        })
    }

    /// Backpropagates `d_output` through the network, returning per-layer
    /// `(d_weights, d_bias)` pairs in layer order.
    ///
    /// Frozen layers still receive gradient entries (so indices line up) but
    /// the trainer skips applying them.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `d_output` does not match the cached output.
    pub fn backward(
        &self,
        cache: &ForwardCache,
        d_output: &Matrix,
    ) -> Result<Vec<(Matrix, Matrix)>, NnError> {
        let mut grads = vec![(Matrix::default(), Matrix::default()); self.layers.len()];
        let mut d = d_output.clone();
        for (idx, layer) in self.layers.iter().enumerate().rev() {
            let g = layer.backward(&cache.inputs[idx], &cache.zs[idx], &cache.activations[idx], &d)?;
            grads[idx] = (g.d_weights, g.d_bias);
            d = g.d_input;
        }
        Ok(grads)
    }

    /// Workspace-backed forward pass over the batch staged in `ws.x`.
    ///
    /// Writes per-layer pre/post-activations into `ws.zs`/`ws.acts`
    /// (the last entry of `ws.acts` is the logits) without allocating once
    /// the buffers are warm. Bit-identical to [`Mlp::forward_cached`]: each
    /// layer consumes the previous layer's post-activation buffer, exactly
    /// the matrix the allocating path moves into `inputs`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] when `ws.x` has the wrong width.
    pub(crate) fn forward_ws(&self, ws: &mut BatchWorkspace) -> Result<(), NnError> {
        ws.ensure_layers(self.layers.len());
        for (idx, layer) in self.layers.iter().enumerate() {
            let (before, rest) = ws.acts.split_at_mut(idx);
            let input = if idx == 0 { &ws.x } else { &before[idx - 1] };
            layer.forward_into(input, &mut ws.zs[idx], &mut rest[0])?;
        }
        Ok(())
    }

    /// Workspace-backed backprop of the gradient staged in `ws.d_logits`.
    ///
    /// Consumes `ws.d_logits` (the top layer turns it into `dL/dz` in place)
    /// and leaves per-layer `(d_weights, d_bias)` in `ws.grads`. Below the
    /// top layer the upstream gradient alternates between `ws.d_prev` and
    /// `ws.d_next` by depth, so the pass reuses two buffers regardless of
    /// depth, and each buffer always holds the same layers' gradients: one
    /// pass grows every buffer to its steady-state size.
    ///
    /// Bit-identical to [`Mlp::backward`] for every gradient entry; the one
    /// intentional difference is that the input gradient of layer 0 — which
    /// the allocating path computes and immediately discards — is skipped.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the staged buffers are inconsistent.
    pub(crate) fn backward_ws(&self, ws: &mut BatchWorkspace) -> Result<(), NnError> {
        let top = self.layers.len() - 1;
        for (idx, layer) in self.layers.iter().enumerate().rev() {
            let input = if idx == 0 { &ws.x } else { &ws.acts[idx - 1] };
            let (dw, db) = &mut ws.grads[idx];
            let grads = (dw, db);
            // Read the gradient the layer above wrote; write the input
            // gradient into the other buffer.
            let (d_out, d_in) = match top - idx {
                0 => (&mut ws.d_logits, &mut ws.d_prev),
                depth if depth % 2 == 1 => (&mut ws.d_prev, &mut ws.d_next),
                _ => (&mut ws.d_next, &mut ws.d_prev),
            };
            let d_input = (idx > 0).then_some((d_in, &mut ws.nt_pack));
            layer.backward_ws(input, &ws.zs[idx], &ws.acts[idx], d_out, grads, d_input)?;
        }
        Ok(())
    }

    /// Embedding of each sample: the activation feeding the final layer.
    ///
    /// For a single-layer network this is the input itself. This is how
    /// `M_scene` produces the scene representation `H_i` of Algorithm 1.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] when `x` has the wrong width.
    pub fn embed(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let mut a = x.clone();
        for layer in &self.layers[..self.layers.len() - 1] {
            let (_, next) = layer.forward(&a)?;
            a = next;
        }
        Ok(a)
    }

    /// Width of the embedding produced by [`Mlp::embed`].
    pub fn embedding_dim(&self) -> usize {
        self.layers.last().expect("non-empty").in_dim()
    }

    /// Row-wise softmax of the logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] when `x` has the wrong width.
    pub fn predict_proba(&self, x: &Matrix) -> Result<Matrix, NnError> {
        Ok(crate::softmax(&self.forward(x)?))
    }

    /// Argmax class per sample.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] when `x` has the wrong width.
    pub fn classify(&self, x: &Matrix) -> Result<Vec<usize>, NnError> {
        let logits = self.forward(x)?;
        Ok((0..logits.rows())
            .map(|i| anole_tensor::argmax(logits.row(i)).expect("non-empty row"))
            .collect())
    }

    /// Workspace-backed batch forward for serving: stages `x` into `ws`,
    /// runs `Mlp::forward_ws`, and returns the logits still owned by the
    /// workspace. Allocation-free once `ws` is warm for this model shape,
    /// and bit-identical to [`Mlp::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputWidth`] when `x` has the wrong width.
    pub fn predict_batch<'w>(&self, x: &Matrix, ws: &'w mut Workspace) -> Result<&'w Matrix, NnError> {
        let main = &mut ws.main;
        main.x.copy_from(x);
        self.forward_ws(main)?;
        Ok(main.logits())
    }

    /// Workspace-backed [`Mlp::predict_proba`]: row-wise softmax of the
    /// logits, written into the workspace's inference buffer. Bit-identical
    /// to the allocating path and allocation-free once warm.
    ///
    /// # Examples
    ///
    /// ```
    /// use anole_nn::{Activation, Mlp, Workspace};
    /// use anole_tensor::{Matrix, Seed};
    ///
    /// let model = Mlp::builder(4).hidden(8, Activation::Relu).output(3).build(Seed(0));
    /// let x = Matrix::zeros(2, 4);
    /// let mut ws = Workspace::new();
    /// let from_ws = model.predict_proba_batch(&x, &mut ws)?.clone();
    /// assert_eq!(from_ws, model.predict_proba(&x)?);
    /// # Ok::<(), anole_nn::NnError>(())
    /// ```
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
        self.forward_ws(main)?;
        crate::softmax_into(main.logits(), &mut ws.infer_out);
        Ok(&ws.infer_out)
    }

    /// Workspace-backed element-wise sigmoid of the logits (the detector
    /// heads' activation), written into the workspace's inference buffer.
    /// Bit-identical to `sigmoid(&self.forward(x)?)` and allocation-free
    /// once warm.
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
        self.forward_ws(main)?;
        crate::sigmoid_into(main.logits(), &mut ws.infer_out);
        Ok(&ws.infer_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Mlp {
        Mlp::builder(3)
            .hidden(5, Activation::Relu)
            .hidden(4, Activation::Tanh)
            .output(2)
            .build(Seed(42))
    }

    #[test]
    fn builder_chains_widths() {
        let m = model();
        assert_eq!(m.input_dim(), 3);
        assert_eq!(m.output_dim(), 2);
        assert_eq!(m.embedding_dim(), 4);
        assert_eq!(m.layers().len(), 3);
        assert_eq!(m.parameter_count(), (3 * 5 + 5) + (5 * 4 + 4) + (4 * 2 + 2));
    }

    #[test]
    fn forward_and_cache_agree() {
        let m = model();
        let x = Matrix::random_normal(4, 3, 1.0, &mut rng_from_seed(Seed(1)));
        let plain = m.forward(&x).unwrap();
        let cache = m.forward_cached(&x).unwrap();
        assert_eq!(&plain, cache.output());
        assert_eq!(cache.inputs.len(), 3);
        assert_eq!(cache.inputs[0], x);
    }

    #[test]
    fn embed_matches_manual_prefix_forward() {
        let m = model();
        let x = Matrix::random_normal(2, 3, 1.0, &mut rng_from_seed(Seed(2)));
        let cache = m.forward_cached(&x).unwrap();
        let emb = m.embed(&x).unwrap();
        assert_eq!(emb, cache.activations[1]);
        assert_eq!(emb.cols(), m.embedding_dim());
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn full_network_gradient_check() {
        let m = model();
        let x = Matrix::random_normal(3, 3, 1.0, &mut rng_from_seed(Seed(3)));
        let labels = vec![0usize, 1, 0];
        let cache = m.forward_cached(&x).unwrap();
        let lv = crate::softmax_cross_entropy(cache.output(), &labels).unwrap();
        let grads = m.backward(&cache, &lv.d_logits).unwrap();

        let eps = 1e-2f32;
        // Check one weight in every layer.
        for layer_idx in 0..3 {
            let w_shape = m.layers()[layer_idx].weights().shape();
            let (wi, wj) = (w_shape.0 - 1, w_shape.1 - 1);

            let mut bump = Matrix::zeros(w_shape.0, w_shape.1);
            bump.set(wi, wj, eps);
            let mut mp = m.clone();
            mp.layers_mut()[layer_idx]
                .apply_update(&bump, &Matrix::zeros(1, w_shape.1))
                .unwrap();
            let mut mm = m.clone();
            mm.layers_mut()[layer_idx]
                .apply_update(&bump.scale(-1.0), &Matrix::zeros(1, w_shape.1))
                .unwrap();

            let fp = crate::softmax_cross_entropy(&mp.forward(&x).unwrap(), &labels)
                .unwrap()
                .loss;
            let fm = crate::softmax_cross_entropy(&mm.forward(&x).unwrap(), &labels)
                .unwrap()
                .loss;
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = grads[layer_idx].0.get(wi, wj);
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "layer {layer_idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn frozen_prefix_guard() {
        let mut m = model();
        m.set_frozen_prefix(2);
        assert_eq!(m.frozen_prefix(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot freeze")]
    fn frozen_prefix_rejects_too_many() {
        let mut m = model();
        m.set_frozen_prefix(7);
    }

    #[test]
    fn classify_is_argmax_of_proba() {
        let m = model();
        let x = Matrix::random_normal(5, 3, 1.0, &mut rng_from_seed(Seed(4)));
        let proba = m.predict_proba(&x).unwrap();
        let classes = m.classify(&x).unwrap();
        for (i, &c) in classes.iter().enumerate() {
            assert_eq!(anole_tensor::argmax(proba.row(i)), Some(c));
        }
    }

    #[test]
    fn json_round_trip_preserves_outputs() {
        let m = model();
        let json = anole_json::to_string(&m);
        let back: Mlp = anole_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        let x = Matrix::random_normal(2, 3, 1.0, &mut rng_from_seed(Seed(5)));
        assert_eq!(m.forward(&x).unwrap(), back.forward(&x).unwrap());
    }

    #[test]
    fn wrong_input_width_is_reported() {
        let m = model();
        let err = m.forward(&Matrix::zeros(1, 7)).unwrap_err();
        assert!(matches!(err, NnError::InputWidth { expected: 3, actual: 7 }));
    }

    #[test]
    fn workspace_serving_paths_match_allocating_paths() {
        let m = model();
        let x = Matrix::random_normal(6, 3, 1.0, &mut rng_from_seed(Seed(9)));
        let mut ws = Workspace::new();
        let logits = m.forward(&x).unwrap();
        assert_eq!(m.predict_batch(&x, &mut ws).unwrap(), &logits);
        let proba = m.predict_proba(&x).unwrap();
        assert_eq!(m.predict_proba_batch(&x, &mut ws).unwrap(), &proba);
        let sig = crate::sigmoid(&logits);
        assert_eq!(m.predict_sigmoid_batch(&x, &mut ws).unwrap(), &sig);
    }

    #[test]
    fn one_workspace_serves_models_of_different_shapes() {
        let a = model();
        let b = Mlp::builder(5)
            .hidden(7, Activation::Relu)
            .output(4)
            .build(Seed(11));
        let xa = Matrix::random_normal(2, 3, 1.0, &mut rng_from_seed(Seed(12)));
        let xb = Matrix::random_normal(3, 5, 1.0, &mut rng_from_seed(Seed(13)));
        let mut ws = Workspace::new();
        for _ in 0..2 {
            let pa = a.predict_proba(&xa).unwrap();
            assert_eq!(a.predict_proba_batch(&xa, &mut ws).unwrap(), &pa);
            let pb = b.predict_proba(&xb).unwrap();
            assert_eq!(b.predict_proba_batch(&xb, &mut ws).unwrap(), &pb);
        }
    }

    #[test]
    fn workspace_serving_reports_wrong_width() {
        let m = model();
        let mut ws = Workspace::new();
        let err = m.predict_batch(&Matrix::zeros(1, 7), &mut ws).unwrap_err();
        assert!(matches!(err, NnError::InputWidth { expected: 3, actual: 7 }));
    }
}
