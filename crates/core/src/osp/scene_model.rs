//! The weakly-supervised scene encoder `M_scene` (paper §IV-A).
//!
//! Semantic scenes (attribute combinations) provide the labels; the trained
//! classifier's penultimate activations are the scene representation used
//! for clustering (Algorithm 1) and as the decision model's backbone.

use anole_data::{DrivingDataset, FrameRef};
use anole_detect::ConfusionMatrix;
use anole_nn::{Activation, Mlp, Trainer};
use anole_tensor::{Matrix, Seed};

use crate::{AnoleError, SceneModelConfig};

/// Width of `M_scene`'s first hidden layer.
const HIDDEN: usize = 64;

/// Width of `M_scene`'s embedding layer (the representation Algorithm 1
/// clusters).
const EMBEDDING: usize = 32;

/// The scene-representation model.
///
/// Wraps the classifier network together with the mapping from dense class
/// indices to semantic scene indices (only scenes present in the training
/// data get a class).
#[derive(Debug, Clone, PartialEq)]
pub struct SceneModel {
    net: Mlp,
    /// `class → semantic scene index`.
    scene_of_class: Vec<usize>,
}

anole_json::json_struct!(SceneModel { net, scene_of_class });

impl SceneModel {
    /// Trains `M_scene` on the referenced frames, using each frame's
    /// semantic scene as its label.
    ///
    /// # Errors
    ///
    /// * [`AnoleError::InsufficientData`] if fewer than two distinct
    ///   semantic scenes appear in `refs`.
    /// * Training errors surfaced from the network.
    pub fn train(
        dataset: &DrivingDataset,
        refs: &[FrameRef],
        config: &SceneModelConfig,
        seed: Seed,
    ) -> Result<Self, AnoleError> {
        let _span = anole_obs::span!("osp.scene.train");
        let t0 = anole_obs::now();
        anole_obs::counter_add!("osp.scene.frames", refs.len() as u64);
        let semantic = dataset.scene_indices(refs);
        let mut present: Vec<usize> = semantic.clone();
        present.sort_unstable();
        present.dedup();
        if present.len() < 2 {
            return Err(AnoleError::InsufficientData {
                stage: "scene model",
                detail: format!("{} distinct semantic scenes", present.len()),
            });
        }

        let labels: Vec<usize> = semantic
            .iter()
            .map(|s| present.binary_search(s).expect("present scene"))
            .collect();
        let x = dataset.features_matrix(refs);

        let mut net = Mlp::builder(dataset.config().world.feature_dim)
            .hidden(HIDDEN, Activation::Relu)
            .hidden(EMBEDDING, Activation::Tanh)
            .output(present.len())
            .build(anole_tensor::split_seed(seed, 0));
        Trainer::new(config.train).fit_classifier(
            &mut net,
            &x,
            &labels,
            anole_tensor::split_seed(seed, 1),
        )?;

        let dt_ms = anole_obs::elapsed_ms(t0);
        anole_obs::gauge_set!("osp.scene.duration_ms", dt_ms);
        if dt_ms > 0.0 {
            anole_obs::gauge_set!(
                "osp.scene.frames_per_sec",
                refs.len() as f64 / (dt_ms / 1000.0)
            );
        }
        Ok(Self {
            net,
            scene_of_class: present,
        })
    }

    /// Number of scene classes the encoder distinguishes.
    pub fn class_count(&self) -> usize {
        self.scene_of_class.len()
    }

    /// Semantic scene index of a dense class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn semantic_scene_of(&self, class: usize) -> usize {
        self.scene_of_class[class]
    }

    /// Dense class of a semantic scene, if it was present at training time.
    pub fn class_of_semantic(&self, scene: usize) -> Option<usize> {
        self.scene_of_class.binary_search(&scene).ok()
    }

    /// The underlying network.
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// Width of the scene embedding.
    pub fn embedding_dim(&self) -> usize {
        self.net.embedding_dim()
    }

    /// Embeds samples into the scene-representation space.
    ///
    /// # Errors
    ///
    /// Returns a width error if `x` does not match the feature dimension.
    pub fn embed(&self, x: &Matrix) -> Result<Matrix, AnoleError> {
        Ok(self.net.embed(x)?)
    }

    /// Mean embedding of each scene class over the referenced frames: row
    /// `c` averages the embeddings of the frames whose semantic scene is
    /// class `c` (the `H_c` of Algorithm 1) and stays zero for a class
    /// without frames. Also returns each class's frame count.
    ///
    /// # Errors
    ///
    /// Returns a width error if the features do not match the encoder.
    pub(crate) fn class_centroids(
        &self,
        dataset: &DrivingDataset,
        refs: &[FrameRef],
    ) -> Result<(Matrix, Vec<usize>), AnoleError> {
        let emb = self.embed(&dataset.features_matrix(refs))?;
        let classes: Vec<Option<usize>> = dataset
            .scene_indices(refs)
            .into_iter()
            .map(|scene| self.class_of_semantic(scene))
            .collect();
        Ok(class_means(&emb, &classes, self.class_count()))
    }

    /// Predicts dense scene classes.
    ///
    /// # Errors
    ///
    /// Returns a width error if `x` does not match the feature dimension.
    pub fn classify(&self, x: &Matrix) -> Result<Vec<usize>, AnoleError> {
        Ok(self.net.classify(x)?)
    }

    /// Scene-classification confusion matrix on a labelled set (Fig. 6a).
    /// Frames whose semantic scene was absent at training time are skipped.
    ///
    /// # Errors
    ///
    /// Returns a width error if features do not match the input dimension.
    pub fn confusion(
        &self,
        dataset: &DrivingDataset,
        refs: &[FrameRef],
    ) -> Result<ConfusionMatrix, AnoleError> {
        let mut cm = ConfusionMatrix::new(self.class_count());
        let kept: Vec<FrameRef> = refs
            .iter()
            .copied()
            .filter(|r| {
                self.class_of_semantic(dataset.clips()[r.clip].attributes.scene_index())
                    .is_some()
            })
            .collect();
        if kept.is_empty() {
            return Ok(cm);
        }
        let x = dataset.features_matrix(&kept);
        let pred = self.classify(&x)?;
        for (r, p) in kept.iter().zip(pred) {
            let truth = self
                .class_of_semantic(dataset.clips()[r.clip].attributes.scene_index())
                .expect("filtered to present scenes");
            cm.record(truth, p);
        }
        Ok(cm)
    }
}

/// Mean row per class: row `c` of the result sums, in row order, the rows
/// of `rows` whose entry in `classes` is `Some(c)`, then scales the sum by
/// the reciprocal of their count; a class with no rows stays zero. Also
/// returns each class's row count.
pub(crate) fn class_means(
    rows: &Matrix,
    classes: &[Option<usize>],
    class_count: usize,
) -> (Matrix, Vec<usize>) {
    let mut sums = Matrix::zeros(class_count, rows.cols());
    let mut counts = vec![0usize; class_count];
    for (i, class) in classes.iter().enumerate() {
        if let Some(class) = *class {
            counts[class] += 1;
            for (s, &v) in sums.row_mut(class).iter_mut().zip(rows.row(i)) {
                *s += v;
            }
        }
    }
    for (class, &count) in counts.iter().enumerate() {
        if count > 0 {
            let inv = 1.0 / count as f32;
            sums.row_mut(class).iter_mut().for_each(|v| *v *= inv);
        }
    }
    (sums, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anole_data::DatasetConfig;

    fn setup() -> (DrivingDataset, SceneModel) {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(31));
        let split = dataset.split();
        let mut cfg = SceneModelConfig::default();
        cfg.train.epochs = 15;
        let model = SceneModel::train(&dataset, &split.train, &cfg, Seed(32)).unwrap();
        (dataset, model)
    }

    #[test]
    fn learns_to_separate_scenes() {
        let (dataset, model) = setup();
        let split = dataset.split();
        let cm = model.confusion(&dataset, &split.val).unwrap();
        assert!(
            cm.accuracy() > 0.6,
            "scene validation accuracy {:.3}",
            cm.accuracy()
        );
    }

    #[test]
    fn class_mapping_is_consistent() {
        let (_, model) = setup();
        for class in 0..model.class_count() {
            let scene = model.semantic_scene_of(class);
            assert_eq!(model.class_of_semantic(scene), Some(class));
        }
    }

    #[test]
    fn embeddings_have_configured_width() {
        let (dataset, model) = setup();
        let split = dataset.split();
        let x = dataset.features_matrix(&split.val[..4.min(split.val.len())]);
        let emb = model.embed(&x).unwrap();
        assert_eq!(emb.cols(), model.embedding_dim());
        assert_eq!(emb.cols(), EMBEDDING);
    }

    #[test]
    fn same_scene_embeddings_are_closer_than_cross_scene() {
        let (dataset, model) = setup();
        // Mean within-clip vs cross-clip embedding distance over a few clips.
        let clips: Vec<usize> = (0..dataset.clips().len().min(4)).collect();
        let mut embeddings = Vec::new();
        for &c in &clips {
            let refs = dataset.clip_frames(c);
            let x = dataset.features_matrix(&refs[..10]);
            embeddings.push(model.embed(&x).unwrap());
        }
        let mut within = 0.0;
        let mut cross = 0.0;
        let mut wn = 0;
        let mut cn = 0;
        for (i, a) in embeddings.iter().enumerate() {
            for r1 in 0..a.rows() {
                for (j, b) in embeddings.iter().enumerate() {
                    for r2 in 0..b.rows() {
                        if i == j && r1 < r2 {
                            within += anole_tensor::l2_distance(a.row(r1), b.row(r2));
                            wn += 1;
                        } else if i < j {
                            let same_scene = dataset.clips()[clips[i]].attributes
                                == dataset.clips()[clips[j]].attributes;
                            if !same_scene {
                                cross += anole_tensor::l2_distance(a.row(r1), b.row(r2));
                                cn += 1;
                            }
                        }
                    }
                }
            }
        }
        if wn > 0 && cn > 0 {
            assert!(within / wn as f32 * 2.0 < cross / cn as f32);
        }
    }

    #[test]
    fn single_scene_dataset_is_rejected() {
        let dataset = DrivingDataset::generate(
            &DatasetConfig {
                kitti_clips: 1,
                bdd_clips: 0,
                shd_clips: 0,
                ..DatasetConfig::small()
            },
            Seed(35),
        );
        // One clip → unseen (hold-out) → no training frames at all, or a
        // single scene; either way training must fail cleanly.
        let split = dataset.split();
        let err = SceneModel::train(&dataset, &split.train, &SceneModelConfig::default(), Seed(0));
        assert!(err.is_err());
    }
}
