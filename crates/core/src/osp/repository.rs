//! Algorithm 1: compressed-model training with multi-level clustering.
//!
//! Scene embeddings (one mean embedding per semantic scene present in the
//! training data) are clustered with k = 2, 3, …; each cluster defines a
//! candidate scene group, a compressed detector is trained on the group's
//! frames, and the detector is accepted into the repository when its
//! validation F1 exceeds δ — until `n` models exist.

use std::collections::HashSet;

use anole_cluster::MultiLevelClustering;
use anole_data::{DrivingDataset, Frame, FrameRef};
use anole_detect::{threshold_probs, DetectionCounts};
use anole_nn::{
    sigmoid, Activation, Mlp, ModelProfile, Precision, QuantizedMlp, ReferenceModel, Trainer,
    Workspace,
};
use anole_tensor::{split_seed, Matrix, Seed};

use crate::checkpoint::{Step, TrainRecovery};
use crate::osp::SceneModel;
use crate::{AnoleConfig, AnoleError, DetectorConfig};

/// Where in the multi-level sweep a model came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterOrigin {
    /// The k of the clustering level.
    pub k: usize,
    /// The cluster index within that level.
    pub cluster: usize,
    /// The semantic scenes (indices) grouped into this cluster.
    pub scenes: Vec<usize>,
}

/// One compressed scene-specific detector `Mᵢ`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedModel {
    /// Repository index.
    pub id: usize,
    /// The detector network.
    pub net: Mlp,
    /// Cost profile (YOLOv3-tiny reference scale).
    pub profile: ModelProfile,
    /// Validation F1 at acceptance time.
    pub validation_f1: f32,
    /// Provenance in the clustering sweep.
    pub origin: ClusterOrigin,
    /// The training set Γᵢ (frame references).
    pub training_set: Vec<FrameRef>,
    /// Int8 serving twin, present when the acceptance gate admitted this
    /// model for quantized serving
    /// ([`AnoleSystem::quantize_models`](crate::AnoleSystem::quantize_models)).
    /// When set, every detection path serves from it instead of `net`.
    /// Deserializes to `None` from repositories saved before quantization
    /// existed.
    pub quantized: Option<QuantizedMlp>,
}

anole_json::json_struct!(ClusterOrigin { k, cluster, scenes });
anole_json::json_struct!(CompressedModel {
    id,
    net,
    profile,
    validation_f1,
    origin,
    training_set,
    quantized,
});

impl CompressedModel {
    /// Per-cell detection probabilities for a batch of frames, served at
    /// [`CompressedModel::serving_precision`].
    ///
    /// # Errors
    ///
    /// Returns a width error if `x` does not match the feature dimension.
    fn detect_probs(&self, x: &Matrix) -> Result<Matrix, AnoleError> {
        match &self.quantized {
            Some(q) => Ok(sigmoid(&q.forward(x)?)),
            None => Ok(sigmoid(&self.net.forward(x)?)),
        }
    }

    /// Workspace-backed variant of `detect_probs`:
    /// bit-identical probabilities with zero steady-state allocations once
    /// the workspace is warm.
    ///
    /// # Errors
    ///
    /// Returns a width error if `x` does not match the feature dimension.
    pub fn detect_probs_ws<'w>(
        &self,
        x: &Matrix,
        ws: &'w mut Workspace,
    ) -> Result<&'w Matrix, AnoleError> {
        match &self.quantized {
            Some(q) => Ok(q.predict_sigmoid_batch(x, ws)?),
            None => Ok(self.net.predict_sigmoid_batch(x, ws)?),
        }
    }

    /// The weight format this model currently serves at.
    pub fn serving_precision(&self) -> Precision {
        if self.quantized.is_some() {
            Precision::Int8
        } else {
            Precision::Fp32
        }
    }

    /// Bytes the serving weights hold resident: the int8 twin's footprint
    /// (~¼ of f32) when quantized, the f32 weights otherwise. This is the
    /// weight the slot cache charges against its byte budget.
    pub fn serving_bytes(&self) -> u64 {
        match &self.quantized {
            Some(q) => q.weight_bytes(),
            None => self.net.weight_bytes(),
        }
    }

    /// Thresholded detections for one frame.
    ///
    /// # Errors
    ///
    /// Returns a width error if the feature width is wrong.
    pub fn detect(&self, features: &[f32], threshold: f32) -> Result<Vec<bool>, AnoleError> {
        let probs = self.detect_probs(&Matrix::row_vector(features))?;
        Ok(threshold_probs(probs.row(0), threshold))
    }

    /// Frame-averaged F1 of this model on the referenced frames.
    ///
    /// # Errors
    ///
    /// Returns a width error if the dataset's feature width is wrong.
    pub fn evaluate_f1(
        &self,
        dataset: &DrivingDataset,
        refs: &[FrameRef],
        threshold: f32,
    ) -> Result<f32, AnoleError> {
        let frames: Vec<&Frame> = refs.iter().map(|&r| dataset.frame(r)).collect();
        self.frames_f1(&frames, threshold)
    }

    /// F1 of this model over `frames`, pooled over every cell, from one
    /// batched forward; 0 for no frames.
    fn frames_f1(&self, frames: &[&Frame], threshold: f32) -> Result<f32, AnoleError> {
        if frames.is_empty() {
            return Ok(0.0);
        }
        let probs = self.detect_probs(&stack_frames(frames).0)?;
        let mut counts = DetectionCounts::default();
        for (i, frame) in frames.iter().enumerate() {
            counts.accumulate(&threshold_probs(probs.row(i), threshold), &frame.truth);
        }
        Ok(counts.f1())
    }
}

/// The repository of compressed models produced by Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRepository {
    models: Vec<CompressedModel>,
    /// Levels of the sweep that were examined (diagnostics).
    pub levels_examined: usize,
}

anole_json::json_struct!(ModelRepository { models, levels_examined });

impl ModelRepository {
    /// Runs Algorithm 1.
    ///
    /// `train` and `val` are the 6:2:2 train/validation splits; `scene_model`
    /// must already be trained on `train`.
    ///
    /// Clusters that repeat an already-accepted scene grouping at a later k
    /// are skipped (they would duplicate a model); the paper's procedure
    /// implicitly avoids this by construction of its scene set.
    ///
    /// # Errors
    ///
    /// * [`AnoleError::EmptyRepository`] if no cluster validates above δ.
    /// * Training/clustering errors from the substrates.
    pub fn train(
        dataset: &DrivingDataset,
        scene_model: &SceneModel,
        train: &[FrameRef],
        val: &[FrameRef],
        config: &AnoleConfig,
        seed: Seed,
    ) -> Result<Self, AnoleError> {
        Self::train_with_recovery(dataset, scene_model, train, val, config, seed, None)
    }

    /// Runs Algorithm 1 with per-specialist crash recovery.
    ///
    /// With a [`TrainRecovery`], every trained candidate (model + validation
    /// F1) is checkpointed under its `(k, cluster)` coordinates as it passes
    /// the δ gate's evaluation, and candidates already checkpointed by an
    /// earlier, interrupted run are reloaded instead of retrained. Candidate
    /// seeds are keyed by the same coordinates, so a reloaded candidate is
    /// bit-identical to a retrained one and the resumed repository matches an
    /// uninterrupted run exactly.
    ///
    /// # Errors
    ///
    /// As [`ModelRepository::train`], plus [`AnoleError::Checkpoint`] on real
    /// checkpoint I/O failures (injected write faults are absorbed).
    pub fn train_with_recovery(
        dataset: &DrivingDataset,
        scene_model: &SceneModel,
        train: &[FrameRef],
        val: &[FrameRef],
        config: &AnoleConfig,
        seed: Seed,
        mut recovery: Option<&mut TrainRecovery>,
    ) -> Result<Self, AnoleError> {
        let _span = anole_obs::span!("osp.tcm.train");
        let t0 = anole_obs::now();
        let mut candidates_trained = 0usize;
        // Mean embedding per semantic scene class: the H_i of Algorithm 1.
        let class_count = scene_model.class_count();
        let (scene_means, _) = scene_model.class_centroids(dataset, train)?;

        // Pre-index train/val frames per scene class.
        let frames_per_class = |refs: &[FrameRef]| -> Vec<Vec<FrameRef>> {
            let mut per = vec![Vec::new(); class_count];
            for r in refs {
                let scene = dataset.clips()[r.clip].attributes.scene_index();
                if let Some(class) = scene_model.class_of_semantic(scene) {
                    per[class].push(*r);
                }
            }
            per
        };
        let train_per_class = frames_per_class(train);
        let val_per_class = frames_per_class(val);

        let mut models = Vec::new();
        let mut accepted_groups: HashSet<Vec<usize>> = HashSet::new();
        let mut levels_examined = 0;

        let sweep = MultiLevelClustering::new(&scene_means, split_seed(seed, 0));
        for level in sweep {
            if models.len() >= config.repository.target_models {
                break;
            }
            let level = level?;
            levels_examined += 1;

            // Describe this level's candidate clusters (dedup against groups
            // accepted at earlier levels; within one level groups are
            // necessarily distinct).
            struct Candidate {
                cluster: usize,
                scenes: Vec<usize>,
                train: Vec<FrameRef>,
                val: Vec<FrameRef>,
            }
            let mut candidates = Vec::new();
            for cluster in 0..level.k {
                let classes = level.fit.members_of(cluster);
                let mut scenes: Vec<usize> = classes
                    .iter()
                    .map(|&c| scene_model.semantic_scene_of(c))
                    .collect();
                scenes.sort_unstable();
                if accepted_groups.contains(&scenes) {
                    continue;
                }
                let train: Vec<FrameRef> = classes
                    .iter()
                    .flat_map(|&c| train_per_class[c].iter().copied())
                    .collect();
                let val: Vec<FrameRef> = classes
                    .iter()
                    .flat_map(|&c| val_per_class[c].iter().copied())
                    .collect();
                if train.len() < 8 || val.is_empty() {
                    continue;
                }
                candidates.push(Candidate {
                    cluster,
                    scenes,
                    train,
                    val,
                });
            }

            // Train the level's candidates in parallel, bounded by the global
            // [`anole_tensor::ParallelConfig`] rather than one thread per
            // candidate. Seeds are keyed by (k, cluster), not acceptance
            // order, and results are collected in cluster order, so the
            // output is identical to a sequential run for any thread count.
            let train_candidate = |c: &Candidate,
                                   ws: &mut Workspace|
             -> Result<(CompressedModel, f32), AnoleError> {
                let _span = anole_obs::span!("osp.tcm.train_candidate");
                anole_obs::counter_add!("osp.tcm.candidates_trained", 1);
                let model_seed = split_seed(seed, 100 + level.k as u64 * 131 + c.cluster as u64);
                let frames = |refs: &[FrameRef]| -> Vec<&Frame> {
                    refs.iter().map(|&r| dataset.frame(r)).collect()
                };
                let origin = ClusterOrigin {
                    k: level.k,
                    cluster: c.cluster,
                    scenes: c.scenes.clone(),
                };
                let candidate = fit_specialist(
                    &frames(&c.train),
                    &frames(&c.val),
                    &config.detector,
                    origin,
                    c.train.clone(),
                    model_seed,
                    ws,
                )?;
                // Checkpoints hold `(model, F1)` pairs and acceptance reads
                // the pair's F1, so stores whose models hold 0 still resume.
                let f1 = candidate.validation_f1;
                Ok((candidate, f1))
            };
            // Reload candidates checkpointed by an earlier, interrupted run
            // (main thread only); the fan-out below trains just the misses.
            let mut slots: Vec<Option<(CompressedModel, f32)>> =
                (0..candidates.len()).map(|_| None).collect();
            if let Some(rec) = recovery.as_mut() {
                for (slot, c) in slots.iter_mut().zip(&candidates) {
                    let step = Step::Specialist { k: level.k, cluster: c.cluster };
                    *slot = step.load(rec);
                }
            }
            let misses: Vec<usize> = slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.is_none().then_some(i))
                .collect();
            candidates_trained += misses.len();

            let threads = anole_tensor::parallel_config()
                .effective_threads()
                .clamp(1, misses.len().max(1));
            // Each worker reuses one training workspace across its whole
            // candidate share, so warm-up allocations happen once per worker
            // rather than once per candidate.
            let trained: Vec<(usize, _)> =
                if threads <= 1 {
                    let mut ws = Workspace::new();
                    misses
                        .iter()
                        .map(|&i| (i, train_candidate(&candidates[i], &mut ws)))
                        .collect()
                } else {
                    let per_worker = misses.len().div_ceil(threads);
                    std::thread::scope(|scope| {
                        let train_candidate = &train_candidate;
                        let candidates = &candidates;
                        let handles: Vec<_> = misses
                            .chunks(per_worker)
                            .map(|chunk| {
                                scope.spawn(move || {
                                    let mut ws = Workspace::new();
                                    chunk
                                        .iter()
                                        .map(|&i| (i, train_candidate(&candidates[i], &mut ws)))
                                        .collect::<Vec<_>>()
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .flat_map(|h| h.join().expect("training thread panicked"))
                            .collect()
                    })
                };
            for (i, result) in trained {
                let pair = result?;
                if let Some(rec) = recovery.as_mut() {
                    let step = Step::Specialist { k: level.k, cluster: candidates[i].cluster };
                    step.save(rec, &pair)?;
                }
                slots[i] = Some(pair);
            }

            // Accept sequentially, in cluster order, until the target.
            for (candidate, f1) in slots.into_iter().flatten() {
                if models.len() >= config.repository.target_models {
                    break;
                }
                if f1 > config.repository.delta {
                    anole_obs::counter_add!("osp.tcm.candidates_accepted", 1);
                    accepted_groups.insert(candidate.origin.scenes.clone());
                    models.push(CompressedModel {
                        id: models.len(),
                        validation_f1: f1,
                        ..candidate
                    });
                }
            }
        }

        if models.is_empty() {
            return Err(AnoleError::EmptyRepository);
        }
        let dt_ms = anole_obs::elapsed_ms(t0);
        anole_obs::gauge_set!("osp.tcm.duration_ms", dt_ms);
        if dt_ms > 0.0 {
            anole_obs::gauge_set!(
                "osp.tcm.candidates_per_sec",
                candidates_trained as f64 / (dt_ms / 1000.0)
            );
        }
        Ok(Self {
            models,
            levels_examined,
        })
    }

    /// The accepted models, in id order.
    pub fn models(&self) -> &[CompressedModel] {
        &self.models
    }

    /// Mutable access for the quantization sweep (crate-internal: callers
    /// must keep `id` fields dense and in slot order).
    pub(crate) fn models_mut(&mut self) -> &mut [CompressedModel] {
        &mut self.models
    }

    /// Number of models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the repository is empty (never true for a trained one).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Borrows model `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn model(&self, id: usize) -> &CompressedModel {
        &self.models[id]
    }

    /// Sizes of the training sets |Γᵢ|, used by adaptive sampling.
    pub fn training_set_sizes(&self) -> Vec<usize> {
        self.models.iter().map(|m| m.training_set.len()).collect()
    }

    /// Appends an externally trained specialist (online repository
    /// expansion, the §II case-3 remedy), assigning it the next id, which
    /// is returned.
    pub fn push(&mut self, mut model: CompressedModel) -> usize {
        let id = self.models.len();
        model.id = id;
        self.models.push(model);
        id
    }
}

/// Trains one compressed specialist on the `fit` frames and scores its
/// validation F1 on the `val` frames with one batched forward: the recipe
/// behind Algorithm 1's candidates, expansion's new specialist and the
/// re-profile's refreshed ones. The model's id is 0 until the repository
/// assigns one.
pub(crate) fn fit_specialist(
    fit: &[&Frame],
    val: &[&Frame],
    config: &DetectorConfig,
    origin: ClusterOrigin,
    training_set: Vec<FrameRef>,
    seed: Seed,
    ws: &mut Workspace,
) -> Result<CompressedModel, AnoleError> {
    let (x, y) = stack_frames(fit);
    let net = fit_detector(&x, &y, &[COMPRESSED_HIDDEN], config, seed, ws)?;
    let mut model = CompressedModel {
        id: 0,
        profile: ModelProfile::of_mlp(ReferenceModel::Yolov3Tiny, &net),
        net,
        validation_f1: 0.0,
        origin,
        training_set,
        quantized: None,
    };
    model.validation_f1 = model.frames_f1(val, config.threshold)?;
    Ok(model)
}

/// Stacks `frames` into a feature matrix and a 0/1 ground-truth matrix,
/// one row per frame.
pub(crate) fn stack_frames(frames: &[&Frame]) -> (Matrix, Matrix) {
    let (dim, cells) = frames.first().map_or((0, 0), |f| (f.features.len(), f.truth.len()));
    let mut x = Matrix::zeros(frames.len(), dim);
    let mut y = Matrix::zeros(frames.len(), cells);
    for (i, frame) in frames.iter().enumerate() {
        x.row_mut(i).copy_from_slice(&frame.features);
        for (j, &t) in frame.truth.iter().enumerate() {
            if t {
                y.set(i, j, 1.0);
            }
        }
    }
    (x, y)
}

/// Hidden width of a compressed detector (the YOLOv3-tiny stand-in).
pub(crate) const COMPRESSED_HIDDEN: usize = 48;

/// Positive-cell weight in every detector's BCE loss.
const POS_WEIGHT: f32 = 2.0;

/// Builds a detector with ReLU hidden layers of the given widths and trains
/// it on `(x, y)` as a multi-label grid predictor with the positive-cell
/// weight [`POS_WEIGHT`]: the one recipe behind every compressed, expansion
/// and baseline detector.
pub(crate) fn fit_detector(
    x: &Matrix,
    y: &Matrix,
    hidden: &[usize],
    config: &DetectorConfig,
    seed: Seed,
    ws: &mut Workspace,
) -> Result<Mlp, AnoleError> {
    let mut builder = Mlp::builder(x.cols());
    for &h in hidden {
        builder = builder.hidden(h, Activation::Relu);
    }
    let mut net = builder.output(y.cols()).build(split_seed(seed, 0));
    Trainer::new(config.train).fit_multilabel_ws(
        &mut net,
        x,
        y,
        POS_WEIGHT,
        split_seed(seed, 1),
        ws,
    )?;
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anole_data::DatasetConfig;
    use crate::SceneModelConfig;

    fn setup() -> (DrivingDataset, SceneModel, ModelRepository, AnoleConfig) {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(41));
        let split = dataset.split();
        let config = AnoleConfig::fast();
        let mut scfg = SceneModelConfig::default();
        scfg.train.epochs = 10;
        let scene = SceneModel::train(&dataset, &split.train, &scfg, Seed(42)).unwrap();
        let repo = ModelRepository::train(
            &dataset,
            &scene,
            &split.train,
            &split.val,
            &config,
            Seed(43),
        )
        .unwrap();
        (dataset, scene, repo, config)
    }

    #[test]
    fn repository_is_populated_up_to_target() {
        let (_, _, repo, config) = setup();
        assert!(repo.len() >= 2, "only {} models", repo.len());
        assert!(repo.len() <= config.repository.target_models);
        assert!(repo.levels_examined >= 1);
    }

    #[test]
    fn accepted_models_beat_delta_on_validation() {
        let (_, _, repo, config) = setup();
        for m in repo.models() {
            assert!(
                m.validation_f1 > config.repository.delta,
                "model {} f1 {}",
                m.id,
                m.validation_f1
            );
        }
    }

    #[test]
    fn scene_groups_are_unique() {
        let (_, _, repo, _) = setup();
        let mut seen = HashSet::new();
        for m in repo.models() {
            assert!(seen.insert(m.origin.scenes.clone()), "duplicate group");
        }
    }

    #[test]
    fn models_are_specialists_on_their_own_clusters() {
        let (dataset, _, repo, config) = setup();
        let split = dataset.split();
        // A model should do at least as well on its own validation scenes as
        // the weakest model does there, and meaningfully better than random.
        for m in repo.models().iter().take(3) {
            let own_val: Vec<FrameRef> = split
                .val
                .iter()
                .copied()
                .filter(|r| {
                    m.origin
                        .scenes
                        .contains(&dataset.clips()[r.clip].attributes.scene_index())
                })
                .collect();
            let f1 = m
                .evaluate_f1(&dataset, &own_val, config.detector.threshold)
                .unwrap();
            assert!(f1 > 0.2, "model {} own-scene f1 {}", m.id, f1);
        }
    }

    #[test]
    fn ids_are_dense_and_training_sets_nonempty() {
        let (_, _, repo, _) = setup();
        for (i, m) in repo.models().iter().enumerate() {
            assert_eq!(m.id, i);
            assert!(!m.training_set.is_empty());
            assert_eq!(
                m.profile.reference,
                ReferenceModel::Yolov3Tiny,
                "compressed models carry the tiny reference profile"
            );
        }
        assert_eq!(repo.training_set_sizes().len(), repo.len());
    }

    #[test]
    fn repository_is_bit_identical_across_thread_counts() {
        use anole_tensor::{parallel_config, set_parallel_config, ParallelConfig};
        // Eight workers outnumber every level's candidates, so the fan-out's
        // clamp runs too. `Debug` prints each float in its shortest
        // round-trip form and keeps the sign of zero, so equal text means
        // equal bits (trained weights are never NaN).
        let (dataset, scene, repo, config) = setup();
        let split = dataset.split();
        let expected = format!("{repo:?}");
        let prior = parallel_config();
        for threads in [1usize, 2, 8] {
            set_parallel_config(ParallelConfig { threads });
            let retrained = ModelRepository::train(
                &dataset,
                &scene,
                &split.train,
                &split.val,
                &config,
                Seed(43),
            );
            set_parallel_config(prior);
            let got = format!("{:?}", retrained.unwrap());
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn impossible_delta_yields_empty_repository_error() {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(44));
        let split = dataset.split();
        let mut config = AnoleConfig::fast();
        config.repository.delta = 0.999;
        let mut scfg = SceneModelConfig::default();
        scfg.train.epochs = 5;
        let scene = SceneModel::train(&dataset, &split.train, &scfg, Seed(45)).unwrap();
        let err = ModelRepository::train(
            &dataset,
            &scene,
            &split.train,
            &split.val,
            &config,
            Seed(46),
        )
        .unwrap_err();
        assert_eq!(err, AnoleError::EmptyRepository);
    }
}
