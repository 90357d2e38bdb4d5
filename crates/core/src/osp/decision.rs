//! The decision model `M_decision` (§IV-C): a frozen scene backbone plus a
//! small MLP head predicting per-model suitability.

use anole_data::{DrivingDataset, Frame, FrameRef};
use anole_detect::ConfusionMatrix;
use anole_nn::{softmax, Activation, Mlp, Precision, QuantizedMlp, Trainer, Workspace};
use anole_tensor::{argmax, split_seed, Matrix, Seed};

use crate::osp::{f1_table, ModelRepository, SceneModel, SuitabilitySets};
use crate::{AnoleError, DecisionConfig};

/// Hidden width of the decision head (paper: a 2-layer MLP).
const HEAD_HIDDEN: usize = 64;

/// The trained decision model.
///
/// Layout: the scene encoder's layers up to (and including) the embedding
/// layer, frozen, followed by a trainable two-layer head producing one logit
/// per compressed model. Softmax over the logits gives the model allocation
/// vector `v^x` of §V-A.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionModel {
    net: Mlp,
    n_models: usize,
    /// Int8 serving twin, set by [`DecisionModel::quantize_gated`] when
    /// quantized routing agrees closely enough with fp32 routing. When set,
    /// the workspace serving path routes through it. Deserializes to `None`
    /// from models saved before quantization existed.
    quantized: Option<QuantizedMlp>,
}

anole_json::json_struct!(DecisionModel { net, n_models, quantized });

impl DecisionModel {
    /// Trains the decision model on the sampled suitability sets.
    ///
    /// # Errors
    ///
    /// * [`AnoleError::InsufficientData`] if the sets contain fewer than two
    ///   distinct model labels (nothing to discriminate).
    /// * Training errors from the network.
    pub fn train(
        dataset: &DrivingDataset,
        scene_model: &SceneModel,
        sets: &SuitabilitySets,
        n_models: usize,
        config: &DecisionConfig,
        seed: Seed,
    ) -> Result<Self, AnoleError> {
        let mut distinct: Vec<usize> = sets.samples.iter().map(|&(_, id)| id).collect();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() < 2 {
            return Err(AnoleError::InsufficientData {
                stage: "decision model",
                detail: format!("{} distinct model labels", distinct.len()),
            });
        }

        let refs: Vec<FrameRef> = sets.samples.iter().map(|&(r, _)| r).collect();
        let x = dataset.features_matrix(&refs);
        // The paper's targets: the (normalized) model-allocation vector v^x.
        // Suitability sets lacking membership vectors fall back to one-hot
        // targets on the arm the sample was drawn for.
        let mut targets = Matrix::zeros(refs.len(), n_models);
        for (i, &(_, arm)) in sets.samples.iter().enumerate() {
            let v = sets.memberships.get(i).map_or(&[][..], Vec::as_slice);
            write_normalized(&mut targets, i, v, arm);
        }

        Self::train_from_features(scene_model, &x, &targets, config, seed)
    }

    /// Trains a decision model directly from a feature matrix and soft
    /// per-model target distributions (one row each, rows summing to 1).
    ///
    /// This is the workhorse behind every `M_decision` training: OSP's
    /// [`DecisionModel::train`], and the retrains of repository expansion
    /// ([`AnoleSystem::extend_with_frames`](crate::AnoleSystem::extend_with_frames))
    /// and re-profiling
    /// ([`AnoleSystem::reprofile_with_frames`](crate::AnoleSystem::reprofile_with_frames)),
    /// whose targets span the repository as it stands after the change.
    ///
    /// The frozen backbone runs once over the training rows, in fixed-size
    /// row blocks; the head then trains alone on those embeddings.
    /// The weights equal those of training the joined network with the
    /// backbone frozen: each embedding row is the one a mini-batch forward
    /// would compute, and frozen layers never take an update.
    ///
    /// # Errors
    ///
    /// Surfaces training errors from the network.
    pub fn train_from_features(
        scene_model: &SceneModel,
        x: &Matrix,
        targets: &Matrix,
        config: &DecisionConfig,
        seed: Seed,
    ) -> Result<Self, AnoleError> {
        let _span = anole_obs::span!("osp.tdm.train");
        let t0 = anole_obs::now();
        let n_models = targets.cols();
        // Backbone: every scene-model layer except its classification head.
        let scene_layers = scene_model.network().layers();
        let backbone = Mlp::from_layers(scene_layers[..scene_layers.len() - 1].to_vec());
        let mut head = Mlp::builder(scene_model.embedding_dim())
            .hidden(HEAD_HIDDEN, Activation::Relu)
            .output(n_models)
            .build(split_seed(seed, 0));

        let embeddings = embed_rows(&backbone, x)?;

        let report = Trainer::new(config.train).fit_soft_classifier(
            &mut head,
            &embeddings,
            targets,
            split_seed(seed, 1),
        )?;
        let dt_ms = anole_obs::elapsed_ms(t0);
        anole_obs::gauge_set!("osp.tdm.duration_ms", dt_ms);
        anole_obs::gauge_set!("osp.tdm.final_loss", f64::from(report.final_loss));
        let epochs = report.epoch_losses.len();
        anole_obs::counter_add!("osp.tdm.epochs", epochs as u64);
        if dt_ms > 0.0 {
            anole_obs::gauge_set!("osp.tdm.epochs_per_sec", epochs as f64 / (dt_ms / 1000.0));
        }
        let frozen = backbone.layers().len();
        let mut layers = backbone.layers().to_vec();
        layers.extend_from_slice(head.layers());
        let mut net = Mlp::from_layers(layers);
        net.set_frozen_prefix(frozen);
        Ok(Self {
            net,
            n_models,
            quantized: None,
        })
    }

    /// Number of compressed models this decision model ranks.
    pub fn model_count(&self) -> usize {
        self.n_models
    }

    /// The underlying network.
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// The model allocation vector `v^x` for a batch: suitability
    /// probabilities per compressed model (softmax over the head logits).
    ///
    /// # Errors
    ///
    /// Returns a width error if `x` does not match the feature dimension.
    pub fn suitability(&self, x: &Matrix) -> Result<Matrix, AnoleError> {
        match &self.quantized {
            Some(q) => Ok(softmax(&q.forward(x)?)),
            None => Ok(softmax(&self.net.forward(x)?)),
        }
    }

    /// Workspace-backed variant of [`DecisionModel::suitability`]:
    /// bit-identical probabilities with zero steady-state allocations once
    /// the workspace is warm.
    ///
    /// # Errors
    ///
    /// Returns a width error if `x` does not match the feature dimension.
    pub fn suitability_ws<'w>(
        &self,
        x: &Matrix,
        ws: &'w mut Workspace,
    ) -> Result<&'w Matrix, AnoleError> {
        match &self.quantized {
            Some(q) => Ok(q.predict_proba_batch(x, ws)?),
            None => Ok(self.net.predict_proba_batch(x, ws)?),
        }
    }

    /// The weight format routing currently serves at.
    pub fn serving_precision(&self) -> Precision {
        if self.quantized.is_some() {
            Precision::Int8
        } else {
            Precision::Fp32
        }
    }

    /// Quantizes the decision network behind a routing-agreement gate:
    /// scores `x` (one gate frame per row) at fp32 and at int8, and adopts
    /// the int8 twin only when the two rankings pick the same top-1 model on
    /// at least `1 − epsilon` of the rows. Routing drift is what hurts a
    /// deployment — a mis-routed frame is served by a worse specialist — so
    /// the gate bounds exactly that, mirroring the per-specialist F1 gate.
    ///
    /// Returns whether int8 was adopted and the measured agreement fraction.
    /// On rejection (or an empty gate set) the model keeps serving at fp32.
    ///
    /// # Errors
    ///
    /// Returns a width error if `x` does not match the feature dimension.
    pub fn quantize_gated(&mut self, x: &Matrix, epsilon: f32) -> Result<(bool, f32), AnoleError> {
        if x.rows() == 0 {
            self.quantized = None;
            return Ok((false, 0.0));
        }
        let q = self.net.quantize();
        let fp = softmax(&self.net.forward(x)?);
        let i8_probs = softmax(&q.forward(x)?);
        let mut agreed = 0usize;
        for i in 0..x.rows() {
            if argmax(fp.row(i)) == argmax(i8_probs.row(i)) {
                agreed += 1;
            }
        }
        let agreement = agreed as f32 / x.rows() as f32;
        let accepted = agreement >= 1.0 - epsilon;
        self.quantized = accepted.then_some(q);
        Ok((accepted, agreement))
    }

    /// Model ids of one frame ranked by decreasing suitability.
    ///
    /// # Errors
    ///
    /// Returns a width error if the feature width is wrong.
    pub fn rank(&self, features: &[f32]) -> Result<Vec<usize>, AnoleError> {
        let probs = self.suitability(&Matrix::row_vector(features))?;
        let row = probs.row(0);
        let mut ids: Vec<usize> = (0..row.len()).collect();
        ids.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap_or(std::cmp::Ordering::Equal));
        Ok(ids)
    }

    /// The top-1 model and its suitability probability.
    ///
    /// # Errors
    ///
    /// Returns a width error if the feature width is wrong.
    pub fn best_model(&self, features: &[f32]) -> Result<(usize, f32), AnoleError> {
        let probs = self.suitability(&Matrix::row_vector(features))?;
        let row = probs.row(0);
        let best = argmax(row).expect("non-empty suitability row");
        Ok((best, row[best]))
    }

    /// Fig. 6b: confusion of predicted-best vs true-best model on a
    /// labelled set. The true best is the repository model with the highest
    /// per-frame F1 (ties → lowest id); frames where no model scores above
    /// zero are skipped.
    ///
    /// # Errors
    ///
    /// Returns a width error if the dataset's feature width is wrong.
    pub fn confusion(
        &self,
        dataset: &DrivingDataset,
        repository: &ModelRepository,
        refs: &[FrameRef],
        threshold: f32,
    ) -> Result<ConfusionMatrix, AnoleError> {
        let mut cm = ConfusionMatrix::new(self.n_models);
        if refs.is_empty() {
            return Ok(cm);
        }
        // Batch the scoring: one decision forward over all frames and the
        // batched per-frame F1 table, instead of per-frame row-vector
        // forwards. Per-row results are bit-identical to the row-vector
        // path, so the matrix is unchanged.
        let x = dataset.features_matrix(refs);
        let suitability = self.suitability(&x)?;
        let frames: Vec<&Frame> = refs.iter().map(|&r| dataset.frame(r)).collect();
        let f1 = f1_table(repository.models(), &frames, threshold)?;
        for i in 0..refs.len() {
            let (best, score) = best_scoring(f1.row(i));
            if score <= 0.0 {
                continue;
            }
            let predicted = argmax(suitability.row(i)).expect("non-empty suitability row");
            cm.record(best, predicted);
        }
        Ok(cm)
    }
}

/// Writes `v` into `targets` row `row`, normalized to sum 1; falls back to a
/// one-hot on `fallback` when `v` is all-zero.
pub(crate) fn write_normalized(targets: &mut Matrix, row: usize, v: &[f32], fallback: usize) {
    let mass: f32 = v.iter().sum();
    if mass > 0.0 {
        for (j, &m) in v.iter().enumerate() {
            targets.set(row, j, m / mass);
        }
    } else {
        targets.set(row, fallback, 1.0);
    }
}

/// The model with the highest of one frame's per-model `scores` (the first
/// on ties; model 0 when none is positive) and its score.
pub(crate) fn best_scoring(scores: &[f32]) -> (usize, f32) {
    let mut best = (0, 0.0);
    for (id, &score) in scores.iter().enumerate() {
        if score > best.1 {
            best = (id, score);
        }
    }
    best
}

/// Rows per forward when [`DecisionModel::train_from_features`] embeds its
/// training rows: enough to amortise each forward, few enough that no
/// intermediate activation spans the whole training set.
const EMBED_BLOCK_ROWS: usize = 256;

/// The `backbone` outputs of every row of `x`, computed in blocks of
/// [`EMBED_BLOCK_ROWS`] rows through one workspace.
fn embed_rows(backbone: &Mlp, x: &Matrix) -> Result<Matrix, AnoleError> {
    let (cols, width) = (x.cols(), backbone.output_dim());
    let mut embeddings = Matrix::zeros(x.rows(), width);
    let mut ws = Workspace::new();
    let mut block = Matrix::default();
    for start in (0..x.rows()).step_by(EMBED_BLOCK_ROWS) {
        let n = EMBED_BLOCK_ROWS.min(x.rows() - start);
        block.resize_scratch(n, cols);
        block
            .as_mut_slice()
            .copy_from_slice(&x.as_slice()[start * cols..(start + n) * cols]);
        let out = backbone.predict_batch(&block, &mut ws)?;
        embeddings.as_mut_slice()[start * width..(start + n) * width]
            .copy_from_slice(out.as_slice());
    }
    Ok(embeddings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osp::AdaptiveSampler;
    use crate::{AnoleConfig, SceneModelConfig};
    use anole_data::DatasetConfig;
    use anole_nn::Dense;

    fn setup() -> (DrivingDataset, ModelRepository, DecisionModel, AnoleConfig) {
        let (dataset, _, repo, decision, config) = setup_with_scene();
        (dataset, repo, decision, config)
    }

    fn setup_with_scene() -> (
        DrivingDataset,
        SceneModel,
        ModelRepository,
        DecisionModel,
        AnoleConfig,
    ) {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(61));
        let split = dataset.split();
        let config = AnoleConfig::fast();
        let mut scfg = SceneModelConfig::default();
        scfg.train.epochs = 10;
        let scene = SceneModel::train(&dataset, &split.train, &scfg, Seed(62)).unwrap();
        let repo = ModelRepository::train(
            &dataset,
            &scene,
            &split.train,
            &split.val,
            &config,
            Seed(63),
        )
        .unwrap();
        let sampler = AdaptiveSampler::new(config.sampling, config.detector.threshold);
        let sets = sampler.collect(&dataset, &repo, Seed(64)).unwrap();
        let decision = DecisionModel::train(
            &dataset,
            &scene,
            &sets,
            repo.len(),
            &config.decision,
            Seed(65),
        )
        .unwrap();
        (dataset, scene, repo, decision, config)
    }

    /// Every weight and bias of `net` as bits, layer by layer.
    fn weight_bits(net: &Mlp) -> Vec<u32> {
        net.layers()
            .iter()
            .flat_map(|l| l.weights().iter().chain(l.bias().iter()))
            .map(|v| v.to_bits())
            .collect()
    }

    /// Trains the decision network as one `Mlp`: the scene backbone frozen
    /// with `set_frozen_prefix` and run on every batch, the head on top.
    fn train_joined(
        scene: &SceneModel,
        x: &Matrix,
        targets: &Matrix,
        config: &DecisionConfig,
        seed: Seed,
    ) -> Mlp {
        let layers = scene.network().layers();
        let backbone = &layers[..layers.len() - 1];
        let head = Mlp::builder(scene.embedding_dim())
            .hidden(HEAD_HIDDEN, Activation::Relu)
            .output(targets.cols())
            .build(split_seed(seed, 0));
        let mut joined: Vec<Dense> = backbone.to_vec();
        joined.extend_from_slice(head.layers());
        let mut net = Mlp::from_layers(joined);
        net.set_frozen_prefix(backbone.len());
        Trainer::new(config.train)
            .fit_soft_classifier(&mut net, x, targets, split_seed(seed, 1))
            .unwrap();
        net
    }

    #[test]
    fn head_trained_on_embeddings_equals_the_joined_network_bit_for_bit() {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(68));
        let split = dataset.split();
        let mut scfg = SceneModelConfig::default();
        scfg.train.epochs = 3;
        let scene = SceneModel::train(&dataset, &split.train, &scfg, Seed(69)).unwrap();
        // More rows than one embedding block, and soft targets over 5 models.
        let refs = &split.train[..300.min(split.train.len())];
        let x = dataset.features_matrix(refs);
        let mut rng = anole_tensor::rng_from_seed(Seed(70));
        let targets = softmax(&Matrix::random_normal(x.rows(), 5, 1.0, &mut rng));
        let mut config = AnoleConfig::fast().decision;
        config.train.epochs = 3;
        // The second case's batches are larger than any shipped config's 64.
        for batch in [64, 160] {
            config.train.batch_size = batch;
            let seed = Seed(71);
            let decision =
                DecisionModel::train_from_features(&scene, &x, &targets, &config, seed).unwrap();
            let joined = train_joined(&scene, &x, &targets, &config, seed);
            assert_eq!(
                weight_bits(decision.network()),
                weight_bits(&joined),
                "batch {batch}"
            );
            assert_eq!(decision.network().frozen_prefix(), joined.frozen_prefix());
            assert_eq!(decision.network(), &joined);
        }
    }

    #[test]
    fn suitability_rows_are_distributions() {
        let (dataset, _, decision, _) = setup();
        let split = dataset.split();
        let x = dataset.features_matrix(&split.val[..8.min(split.val.len())]);
        let probs = decision.suitability(&x).unwrap();
        assert_eq!(probs.cols(), decision.model_count());
        for i in 0..probs.rows() {
            let sum: f32 = probs.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn rank_orders_by_suitability() {
        let (dataset, _, decision, _) = setup();
        let split = dataset.split();
        let frame = dataset.frame(split.val[0]);
        let ranking = decision.rank(&frame.features).unwrap();
        assert_eq!(ranking.len(), decision.model_count());
        let probs = decision
            .suitability(&Matrix::row_vector(&frame.features))
            .unwrap();
        for w in ranking.windows(2) {
            assert!(probs.get(0, w[0]) >= probs.get(0, w[1]));
        }
        let (best, p) = decision.best_model(&frame.features).unwrap();
        assert_eq!(best, ranking[0]);
        assert!(p > 0.0 && p <= 1.0);
    }

    #[test]
    fn decision_beats_uniform_routing_on_validation() {
        let (dataset, repo, decision, config) = setup();
        let split = dataset.split();
        let cm = decision
            .confusion(&dataset, &repo, &split.val, config.detector.threshold)
            .unwrap();
        let uniform = 1.0 / repo.len() as f32;
        assert!(
            cm.accuracy() > uniform,
            "top-1 routing accuracy {:.3} vs uniform {:.3}",
            cm.accuracy(),
            uniform
        );
    }

    #[test]
    fn backbone_is_frozen_scene_prefix() {
        let (_, scene, _, decision, _) = setup_with_scene();
        let scene_layers = scene.network().layers();
        let backbone = &scene_layers[..scene_layers.len() - 1];
        let net = decision.network();
        assert_eq!(net.frozen_prefix(), backbone.len());
        assert_eq!(net.layers().len(), backbone.len() + 2);
        for (ours, theirs) in net.layers().iter().zip(backbone) {
            let bits = |l: &Dense| -> Vec<u32> {
                l.weights().iter().chain(l.bias().iter()).map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(ours), bits(theirs));
            assert_eq!(ours.activation(), theirs.activation());
        }
    }

    #[test]
    fn rejects_degenerate_label_sets() {
        let (dataset, repo, _, config) = setup();
        let split = dataset.split();
        let mut scfg = SceneModelConfig::default();
        scfg.train.epochs = 3;
        let scene = SceneModel::train(&dataset, &split.train, &scfg, Seed(66)).unwrap();
        let degenerate = SuitabilitySets {
            samples: vec![(split.train[0], 0); 10],
            memberships: vec![vec![1.0]; 10],
            accepted_counts: vec![10],
            draw_counts: vec![10],
            rejected: 0,
        };
        let err = DecisionModel::train(
            &dataset,
            &scene,
            &degenerate,
            repo.len(),
            &config.decision,
            Seed(67),
        )
        .unwrap_err();
        assert!(matches!(err, AnoleError::InsufficientData { .. }));
    }
}
