//! Mini-batch training loops for classifiers and multi-label heads.
//!
//! The inner loop is allocation-free after warm-up: every per-batch buffer
//! (gathered batch, activations, loss gradient, per-layer gradients) lives in
//! a [`Workspace`] that is reused across batches and epochs. The convenience
//! `fit_*` methods create a workspace internally; the `fit_*_ws` variants
//! accept one from the caller so repeated training runs (e.g. the OSP
//! repository's candidate fan-out) can amortise warm-up across runs. Both are
//! bit-identical — buffer reuse never changes results.

use anole_tensor::{rng_from_seed, Matrix, Seed};

use crate::workspace::{BatchWorkspace, Workspace};
use crate::{
    bce_with_logits_into, soft_cross_entropy_into, softmax_cross_entropy_into, Mlp, NnError,
    OptimizerKind,
};

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Optimizer to use.
    pub optimizer: OptimizerKind,
}

anole_json::json_struct!(TrainConfig { epochs, batch_size, optimizer });

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 32,
            optimizer: OptimizerKind::default(),
        }
    }
}

/// Summary of a completed training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Loss of the final epoch.
    pub final_loss: f32,
}

/// Which supervision signal a training run optimises.
///
/// Borrowed views into the caller's dataset.
enum LossSource<'a> {
    /// Hard class labels → softmax cross-entropy.
    Hard { labels: &'a [usize] },
    /// Soft target distributions → soft cross-entropy.
    Soft { targets: &'a Matrix },
    /// Dense 0/1 targets → sigmoid BCE with a positive-cell weight.
    Multi { targets: &'a Matrix, pos_weight: f32 },
}

impl LossSource<'_> {
    /// Gathers this batch's supervision into the workspace, evaluates the
    /// loss against `bws`'s logits, and leaves `dL/d(logits)` in
    /// `bws.d_logits`. Bit-identical to the historical closure-based path
    /// (gather + allocating loss call) for each variant.
    fn loss_into(&self, idx: &[usize], bws: &mut BatchWorkspace) -> Result<f32, NnError> {
        let (logits, d_logits, labels_buf, targets_buf) = bws.loss_parts();
        match self {
            LossSource::Hard { labels } => {
                labels_buf.clear();
                labels_buf.extend(idx.iter().map(|&i| labels[i]));
                softmax_cross_entropy_into(logits, labels_buf, d_logits)
            }
            LossSource::Soft { targets } => {
                targets.gather_rows_into(idx, targets_buf);
                soft_cross_entropy_into(logits, targets_buf, d_logits)
            }
            LossSource::Multi { targets, pos_weight } => {
                targets.gather_rows_into(idx, targets_buf);
                bce_with_logits_into(logits, targets_buf, *pos_weight, d_logits)
            }
        }
    }
}

/// Mini-batch trainer driving an [`Mlp`] with a [`TrainConfig`].
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `model` as a softmax classifier on `(x, labels)`.
    ///
    /// # Errors
    ///
    /// * [`NnError::EmptyDataset`] if `x` has no rows.
    /// * [`NnError::SampleCount`] if `labels.len() != x.rows()`.
    /// * Width/label errors surfaced from the forward and loss passes.
    pub fn fit_classifier(
        &self,
        model: &mut Mlp,
        x: &Matrix,
        labels: &[usize],
        seed: Seed,
    ) -> Result<TrainReport, NnError> {
        self.fit_classifier_ws(model, x, labels, seed, &mut Workspace::new())
    }

    /// [`Trainer::fit_classifier`] reusing a caller-provided [`Workspace`].
    ///
    /// # Errors
    ///
    /// Same as [`Trainer::fit_classifier`].
    pub fn fit_classifier_ws(
        &self,
        model: &mut Mlp,
        x: &Matrix,
        labels: &[usize],
        seed: Seed,
        ws: &mut Workspace,
    ) -> Result<TrainReport, NnError> {
        if x.rows() == 0 {
            return Err(NnError::EmptyDataset);
        }
        if labels.len() != x.rows() {
            return Err(NnError::SampleCount {
                samples: x.rows(),
                labels: labels.len(),
            });
        }
        self.run(model, x, seed, LossSource::Hard { labels }, ws)
    }

    /// Trains `model` as a classifier against *soft* target distributions
    /// (one row per sample, rows summing to 1).
    ///
    /// # Errors
    ///
    /// * [`NnError::EmptyDataset`] if `x` has no rows.
    /// * [`NnError::SampleCount`] if target rows disagree with `x`.
    pub fn fit_soft_classifier(
        &self,
        model: &mut Mlp,
        x: &Matrix,
        targets: &Matrix,
        seed: Seed,
    ) -> Result<TrainReport, NnError> {
        self.fit_soft_classifier_ws(model, x, targets, seed, &mut Workspace::new())
    }

    /// [`Trainer::fit_soft_classifier`] reusing a caller-provided
    /// [`Workspace`].
    ///
    /// # Errors
    ///
    /// Same as [`Trainer::fit_soft_classifier`].
    pub fn fit_soft_classifier_ws(
        &self,
        model: &mut Mlp,
        x: &Matrix,
        targets: &Matrix,
        seed: Seed,
        ws: &mut Workspace,
    ) -> Result<TrainReport, NnError> {
        if x.rows() == 0 {
            return Err(NnError::EmptyDataset);
        }
        if targets.rows() != x.rows() {
            return Err(NnError::SampleCount {
                samples: x.rows(),
                labels: targets.rows(),
            });
        }
        self.run(model, x, seed, LossSource::Soft { targets }, ws)
    }

    /// Trains `model` as a multi-label (sigmoid) predictor against dense 0/1
    /// `targets`, weighting positive cells by `pos_weight` in the BCE loss.
    ///
    /// # Errors
    ///
    /// * [`NnError::EmptyDataset`] if `x` has no rows.
    /// * [`NnError::SampleCount`] if target rows disagree with `x`.
    pub fn fit_multilabel(
        &self,
        model: &mut Mlp,
        x: &Matrix,
        targets: &Matrix,
        pos_weight: f32,
        seed: Seed,
    ) -> Result<TrainReport, NnError> {
        self.fit_multilabel_ws(model, x, targets, pos_weight, seed, &mut Workspace::new())
    }

    /// [`Trainer::fit_multilabel`] reusing a caller-provided [`Workspace`].
    ///
    /// # Errors
    ///
    /// Same as [`Trainer::fit_multilabel`].
    pub fn fit_multilabel_ws(
        &self,
        model: &mut Mlp,
        x: &Matrix,
        targets: &Matrix,
        pos_weight: f32,
        seed: Seed,
        ws: &mut Workspace,
    ) -> Result<TrainReport, NnError> {
        if x.rows() == 0 {
            return Err(NnError::EmptyDataset);
        }
        if targets.rows() != x.rows() {
            return Err(NnError::SampleCount {
                samples: x.rows(),
                labels: targets.rows(),
            });
        }
        self.run(model, x, seed, LossSource::Multi { targets, pos_weight }, ws)
    }

    fn run(
        &self,
        model: &mut Mlp,
        x: &Matrix,
        seed: Seed,
        src: LossSource<'_>,
        ws: &mut Workspace,
    ) -> Result<TrainReport, NnError> {
        let _span = anole_obs::span!("nn.trainer.fit");
        anole_obs::counter_add!("nn.train.runs", 1);
        let mut rng = rng_from_seed(seed);
        let mut optimizer = self.config.optimizer.build();
        let n = x.rows();
        let batch = self.config.batch_size.clamp(1, n);
        let mut order: Vec<usize> = (0..n).collect();
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        let bws = &mut ws.main;

        for _ in 0..self.config.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for idx in order.chunks(batch) {
                x.gather_rows_into(idx, &mut bws.x);
                model.forward_ws(bws)?;
                let loss = src.loss_into(idx, bws)?;
                model.backward_ws(bws)?;
                optimizer.step(model, &bws.grads)?;
                epoch_loss += loss;
                batches += 1;
            }
            let mean_loss = epoch_loss / batches.max(1) as f32;
            epoch_losses.push(mean_loss);
            anole_obs::counter_add!("nn.train.epochs", 1);
            anole_obs::counter_add!("nn.train.batches", batches as u64);
            anole_obs::gauge_set!("nn.train.epoch_loss", f64::from(mean_loss));
            // Gradient norm of the trainable layers in the epoch's last
            // batch — purely observational, never fed back into training.
            anole_obs::gauge_set!(
                "nn.train.grad_norm",
                grad_frobenius_norm(&bws.grads[model.frozen_prefix()..])
            );
        }

        let final_loss = *epoch_losses.last().unwrap_or(&f32::NAN);
        Ok(TrainReport {
            epoch_losses,
            final_loss,
        })
    }
}

/// Frobenius norm over every `(d_weights, d_bias)` pair, accumulated in f64.
/// Only evaluated when observability is enabled (feeds the
/// `nn.train.grad_norm` gauge); never part of the training computation.
fn grad_frobenius_norm(grads: &[(Matrix, Matrix)]) -> f64 {
    let mut sum = 0.0f64;
    for (dw, db) in grads {
        for &v in dw.as_slice() {
            sum += f64::from(v) * f64::from(v);
        }
        for &v in db.as_slice() {
            sum += f64::from(v) * f64::from(v);
        }
    }
    sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Activation;

    fn blobs(n_per_class: usize, seed: Seed) -> (Matrix, Vec<usize>) {
        // Two well-separated Gaussian blobs in 2-D.
        let mut rng = rng_from_seed(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            let center = if class == 0 { -2.0 } else { 2.0 };
            for _ in 0..n_per_class {
                let jitter = Matrix::random_normal(1, 2, 0.5, &mut rng);
                rows.push(vec![center + jitter.get(0, 0), center + jitter.get(0, 1)]);
                labels.push(class);
            }
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs).unwrap(), labels)
    }

    #[test]
    fn classifier_learns_blobs() {
        let (x, y) = blobs(50, Seed(7));
        let mut model = Mlp::builder(2).hidden(8, Activation::Relu).output(2).build(Seed(8));
        let report = Trainer::new(TrainConfig {
            epochs: 40,
            batch_size: 16,
            ..TrainConfig::default()
        })
        .fit_classifier(&mut model, &x, &y, Seed(9))
        .unwrap();
        assert!(report.final_loss < 0.1, "loss {}", report.final_loss);
        let preds = model.classify(&x).unwrap();
        let correct = preds.iter().zip(y.iter()).filter(|(a, b)| a == b).count();
        assert!(correct as f32 / y.len() as f32 > 0.95);
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let (x, y) = blobs(40, Seed(17));
        let mut model = Mlp::builder(2).hidden(6, Activation::Tanh).output(2).build(Seed(18));
        let report = Trainer::new(TrainConfig {
            epochs: 20,
            batch_size: 8,
            ..TrainConfig::default()
        })
        .fit_classifier(&mut model, &x, &y, Seed(19))
        .unwrap();
        let first = report.epoch_losses.first().unwrap();
        let last = report.epoch_losses.last().unwrap();
        assert!(last < first);
    }

    #[test]
    fn multilabel_learns_identity_pattern() {
        // Target = which half of the input carries signal.
        let mut rng = rng_from_seed(Seed(31));
        let n = 120;
        let mut x = Matrix::random_normal(n, 4, 0.1, &mut rng);
        let mut t = Matrix::zeros(n, 2);
        for i in 0..n {
            if i % 2 == 0 {
                x.set(i, 0, x.get(i, 0) + 2.0);
                t.set(i, 0, 1.0);
            } else {
                x.set(i, 2, x.get(i, 2) + 2.0);
                t.set(i, 1, 1.0);
            }
        }
        let mut model = Mlp::builder(4).hidden(8, Activation::Relu).output(2).build(Seed(32));
        let report = Trainer::new(TrainConfig {
            epochs: 60,
            batch_size: 16,
            ..TrainConfig::default()
        })
        .fit_multilabel(&mut model, &x, &t, 1.0, Seed(33))
        .unwrap();
        assert!(report.final_loss < 0.1, "loss {}", report.final_loss);
        let probs = crate::sigmoid(&model.forward(&x).unwrap());
        let mut correct = 0;
        for i in 0..n {
            let want = if i % 2 == 0 { 0 } else { 1 };
            if probs.get(i, want) > 0.5 && probs.get(i, 1 - want) < 0.5 {
                correct += 1;
            }
        }
        assert!(correct as f32 / n as f32 > 0.9);
    }

    #[test]
    fn soft_classifier_matches_hard_labels_on_one_hot_targets() {
        let (x, y) = blobs(40, Seed(47));
        let mut one_hot = Matrix::zeros(x.rows(), 2);
        for (i, &label) in y.iter().enumerate() {
            one_hot.set(i, label, 1.0);
        }
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 16,
            ..TrainConfig::default()
        };
        let mut soft_model = Mlp::builder(2).hidden(8, Activation::Relu).output(2).build(Seed(48));
        let report = Trainer::new(cfg)
            .fit_soft_classifier(&mut soft_model, &x, &one_hot, Seed(49))
            .unwrap();
        assert!(report.final_loss < 0.15, "loss {}", report.final_loss);
        let preds = soft_model.classify(&x).unwrap();
        let correct = preds.iter().zip(y.iter()).filter(|(a, b)| a == b).count();
        assert!(correct as f32 / y.len() as f32 > 0.9);
    }

    #[test]
    fn soft_classifier_rejects_mismatched_targets() {
        let mut model = Mlp::builder(2).output(2).build(Seed(1));
        let err = Trainer::new(TrainConfig::default())
            .fit_soft_classifier(&mut model, &Matrix::zeros(3, 2), &Matrix::zeros(2, 2), Seed(2))
            .unwrap_err();
        assert!(matches!(err, NnError::SampleCount { .. }));
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let mut model = Mlp::builder(2).output(2).build(Seed(1));
        let err = Trainer::new(TrainConfig::default())
            .fit_classifier(&mut model, &Matrix::zeros(0, 2), &[], Seed(2))
            .unwrap_err();
        assert_eq!(err, NnError::EmptyDataset);
    }

    #[test]
    fn label_count_mismatch_is_rejected() {
        let mut model = Mlp::builder(2).output(2).build(Seed(1));
        let err = Trainer::new(TrainConfig::default())
            .fit_classifier(&mut model, &Matrix::zeros(3, 2), &[0, 1], Seed(2))
            .unwrap_err();
        assert!(matches!(err, NnError::SampleCount { samples: 3, labels: 2 }));
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let (x, y) = blobs(30, Seed(41));
        let mut m1 = Mlp::builder(2).hidden(4, Activation::Relu).output(2).build(Seed(42));
        let mut m2 = Mlp::builder(2).hidden(4, Activation::Relu).output(2).build(Seed(42));
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 8,
            ..TrainConfig::default()
        };
        let r1 = Trainer::new(cfg).fit_classifier(&mut m1, &x, &y, Seed(43)).unwrap();
        let r2 = Trainer::new(cfg).fit_classifier(&mut m2, &x, &y, Seed(43)).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        // A workspace recycled across runs (even across loss kinds and
        // model shapes) must train exactly like a fresh one.
        let (x, y) = blobs(80, Seed(71));
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 160,
            ..TrainConfig::default()
        };
        let build = || Mlp::builder(2).hidden(6, Activation::Relu).output(2).build(Seed(72));
        let mut ws = Workspace::new();

        // Warm the workspace on an unrelated multilabel run.
        let mut warm = Mlp::builder(2).hidden(3, Activation::Tanh).output(2).build(Seed(73));
        let t = Matrix::zeros(x.rows(), 2);
        Trainer::new(TrainConfig { epochs: 1, ..cfg })
            .fit_multilabel_ws(&mut warm, &x, &t, 1.0, Seed(74), &mut ws)
            .unwrap();

        let mut fresh_model = build();
        let fresh = Trainer::new(cfg)
            .fit_classifier(&mut fresh_model, &x, &y, Seed(75))
            .unwrap();
        let mut reused_model = build();
        let reused = Trainer::new(cfg)
            .fit_classifier_ws(&mut reused_model, &x, &y, Seed(75), &mut ws)
            .unwrap();
        assert_eq!(fresh, reused);
        assert_eq!(fresh_model, reused_model);
    }
}
