//! Reusable scratch buffers backing the zero-allocation training hot path.
//!
//! A [`Workspace`] owns every intermediate buffer one trainer needs — the
//! gathered mini-batch, per-layer pre/post-activations, the loss gradient,
//! backprop ping-pong buffers, and per-layer weight/bias gradients — so the
//! inner loop can run arbitrarily many mini-batches without touching the heap
//! once the buffers have grown to their steady-state sizes (the *warm-up*
//! allocations of the first batch of each shape).
//!
//! Buffers are reshaped per batch with [`Matrix::resize_scratch`], which
//! reuses capacity; every kernel writing into them fully overwrites its
//! output, so stale contents can never leak into results. Reuse is purely an
//! allocator-traffic optimisation: the workspace-threaded forward/backward
//! paths produce bit-identical results to the allocating reference paths
//! (`Mlp::forward_cached` / `Mlp::backward` / `Optimizer::step_reference`),
//! which is asserted by property tests.

use anole_tensor::{Matrix, QuantRows};

/// Scratch buffers for one forward/backward pass over one mini-batch.
#[derive(Debug, Default)]
pub(crate) struct BatchWorkspace {
    /// Gathered input rows of the current mini-batch.
    pub x: Matrix,
    /// Gathered hard labels (classification path).
    pub labels: Vec<usize>,
    /// Gathered dense target rows (soft / multi-label paths).
    pub targets: Matrix,
    /// Per-layer pre-activations (`z = x·W + b`).
    pub zs: Vec<Matrix>,
    /// Per-layer post-activations; the last entry is the logits.
    pub acts: Vec<Matrix>,
    /// Loss gradient w.r.t. the logits, produced by the loss-into functions
    /// and turned into `dL/dz` in place by the top layer's backward.
    pub d_logits: Matrix,
    /// Upstream gradient of the layers at even depth below the top one.
    pub d_next: Matrix,
    /// Upstream gradient of the layers at odd depth below the top one.
    pub d_prev: Matrix,
    /// Packed `rhsᵀ` scratch for [`Matrix::matmul_nt_into`] in backprop.
    pub nt_pack: Matrix,
    /// Per-layer `(d_weights, d_bias)` written by the backward pass.
    pub grads: Vec<(Matrix, Matrix)>,
    /// `(z, activation)` buffers of the layers a deeper network ran beyond
    /// the current one's depth, deepest first, kept for its next pass.
    spare: Vec<(Matrix, Matrix)>,
}

impl BatchWorkspace {
    /// Sizes the per-layer buffer vectors for an `n`-layer model, so each
    /// lines up 1:1 with the model's layers.
    ///
    /// Growing pushes default (empty) matrices — a warm-up allocation the
    /// first time a model shape is seen. The pre- and post-activations of
    /// the layers a shrink drops are parked and handed back, layer by
    /// layer, when a deeper model runs again: the serving engine alternates
    /// its decision and detector networks, of different depths, on one
    /// workspace without reallocating them every frame.
    pub fn ensure_layers(&mut self, n: usize) {
        while self.zs.len() > n {
            let z = self.zs.pop().expect("more layers than n");
            let act = self.acts.pop().expect("acts line up with zs");
            self.spare.push((z, act));
        }
        while self.zs.len() < n {
            let (z, act) = self.spare.pop().unwrap_or_default();
            self.zs.push(z);
            self.acts.push(act);
        }
        self.grads.resize_with(n, Default::default);
    }

    /// The network output of the last [`Mlp::forward_ws`](crate::Mlp) pass.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has populated the workspace.
    pub fn logits(&self) -> &Matrix {
        self.acts.last().expect("forward_ws must run before logits()")
    }

    /// Disjoint borrows of the buffers the loss functions need: the logits,
    /// the `d_logits` output, and the label/target gather scratch.
    pub fn loss_parts(&mut self) -> (&Matrix, &mut Matrix, &mut Vec<usize>, &mut Matrix) {
        (
            self.acts.last().expect("forward_ws must run before the loss"),
            &mut self.d_logits,
            &mut self.labels,
            &mut self.targets,
        )
    }
}

/// Reusable scratch arena for [`Trainer`](crate::Trainer) runs.
///
/// Create one per training thread and pass it to the `_ws` fit variants
/// ([`Trainer::fit_classifier_ws`](crate::Trainer::fit_classifier_ws) and
/// friends) to amortise every per-batch buffer across batches, epochs, and
/// whole training runs. The convenience fit methods without a workspace
/// argument create a fresh one internally, so results never depend on reuse
/// — a recycled workspace trains bit-identically to a fresh one.
///
/// A workspace may be reused across models of different shapes; buffers grow
/// to the largest shape seen (per-layer vectors shrink to keep gradient
/// indices aligned).
///
/// # Examples
///
/// ```
/// use anole_nn::{Activation, Mlp, TrainConfig, Trainer, Workspace};
/// use anole_tensor::{Matrix, Seed};
///
/// let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]])?;
/// let y = vec![0, 1, 1, 1];
/// let trainer = Trainer::new(TrainConfig { epochs: 50, batch_size: 4, ..TrainConfig::default() });
/// let mut ws = Workspace::new();
/// // One warm-up, then both runs reuse the same buffers.
/// for seed in [1, 2] {
///     let mut model = Mlp::builder(2).hidden(8, Activation::Relu).output(2).build(Seed(seed));
///     trainer.fit_classifier_ws(&mut model, &x, &y, Seed(seed + 10), &mut ws)?;
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    /// Scratch for the mini-batch forward/backward pass.
    pub(crate) main: BatchWorkspace,
    /// Output buffer for the workspace-backed serving paths
    /// ([`Mlp::predict_proba_batch`](crate::Mlp::predict_proba_batch) and
    /// friends): softmax/sigmoid results land here so inference allocates
    /// nothing once warm.
    pub(crate) infer_out: Matrix,
    /// Row-quantization scratch for the int8 serving path
    /// ([`QuantizedMlp`](crate::QuantizedMlp)): each quantized layer
    /// overwrites it with the codes and scales of its input batch.
    pub(crate) quant_in: QuantRows,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        anole_obs::counter_add!("nn.workspace.created", 1);
        Self::default()
    }
}
