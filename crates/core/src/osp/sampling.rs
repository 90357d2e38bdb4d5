//! Adaptive scene sampling (§IV-B): building balanced suitability sets
//! `Ψᵢ^sub` for decision-model training.

use anole_bandit::{RandomSampler, SamplingStrategy, ThompsonSampler};
use anole_data::{DrivingDataset, Frame, FrameRef};
use anole_detect::DetectionCounts;
use anole_nn::{NnError, Workspace};
use anole_tensor::{rng_from_seed, Matrix, Seed};

use crate::osp::{CompressedModel, ModelRepository};
use crate::{AnoleError, SamplingConfig};

/// The sampled suitability sets: training material for `M_decision`.
#[derive(Debug, Clone, PartialEq)]
pub struct SuitabilitySets {
    /// Accepted `(frame, model id)` pairs: frame ∈ Ψᵢ^sub for model i (the
    /// id is the arm whose training set the frame was drawn from).
    pub samples: Vec<(FrameRef, usize)>,
    /// Per accepted frame, its model-allocation vector `v^x` of §IV-C
    /// before normalization, scored against the repository it was collected
    /// on: `memberships[s][i]` is model i's per-frame F1 squared when that
    /// F1 clears `accept_f1` (else 0), and the owner arm of an
    /// [`AdaptiveSampler::collect`] sample carries twice the larger of the
    /// row's peak and 1 on top. Runs parallel to `samples`. Only OSP's first
    /// [`DecisionModel::train`](crate::osp::DecisionModel::train) reads it;
    /// expansion and re-profiling rescore the samples against the current
    /// repository.
    pub memberships: Vec<Vec<f32>>,
    /// Accepted samples per model (|Ψᵢ^sub|).
    pub accepted_counts: Vec<usize>,
    /// Raw draws per model (|Sᵢ| in the paper's Fig. 3).
    pub draw_counts: Vec<usize>,
    /// Draws whose model failed the acceptance test.
    pub rejected: usize,
}

anole_json::json_struct!(SuitabilitySets {
    samples,
    memberships,
    accepted_counts,
    draw_counts,
    rejected,
});

impl SuitabilitySets {
    /// Total accepted samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing was accepted.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Per-frame F1 of one model on a raw frame (also usable for frames outside
/// a dataset, e.g. freshly collected footage during repository expansion).
///
/// # Errors
///
/// Returns a width error if the frame's feature width is wrong.
pub fn frame_f1_of(
    model: &CompressedModel,
    frame: &Frame,
    threshold: f32,
) -> Result<f32, AnoleError> {
    let pred = model.detect(&frame.features, threshold)?;
    let mut counts = DetectionCounts::default();
    counts.accumulate(&pred, &frame.truth);
    Ok(counts.f1())
}

/// Frames per batched detector forward in [`f1_table`].
const SCORE_BLOCK_ROWS: usize = 256;

/// Per-frame F1 of each of `models` on each of `frames`: entry `(i, j)` is
/// what [`frame_f1_of`] returns for `models[j]` on `frames[i]`.
///
/// Every model scores the frames in blocks of [`SCORE_BLOCK_ROWS`] with
/// batched workspace forwards. The kernels compute each output row the same
/// way whatever rows share its batch, so each entry equals the single-frame
/// score bit for bit.
///
/// # Errors
///
/// Returns a width error if a frame's feature width does not match the
/// models' input width.
pub(crate) fn f1_table(
    models: &[CompressedModel],
    frames: &[&Frame],
    threshold: f32,
) -> Result<Matrix, AnoleError> {
    let mut table = Matrix::zeros(frames.len(), models.len());
    let Some(first) = models.first() else {
        return Ok(table);
    };
    let dim = first.net.input_dim();
    let mut x = Matrix::default();
    let mut pred = Vec::new();
    let mut ws = Workspace::new();
    for (b, block) in frames.chunks(SCORE_BLOCK_ROWS).enumerate() {
        x.resize_scratch(block.len(), dim);
        for (i, frame) in block.iter().enumerate() {
            if frame.features.len() != dim {
                let actual = frame.features.len();
                return Err(NnError::InputWidth {
                    expected: dim,
                    actual,
                }
                .into());
            }
            x.row_mut(i).copy_from_slice(&frame.features);
        }
        for (j, model) in models.iter().enumerate() {
            let probs = model.detect_probs_ws(&x, &mut ws)?;
            for (i, frame) in block.iter().enumerate() {
                pred.clear();
                pred.extend(probs.row(i).iter().map(|&p| p >= threshold));
                let mut counts = DetectionCounts::default();
                counts.accumulate(&pred, &frame.truth);
                table.set(b * SCORE_BLOCK_ROWS + i, j, counts.f1());
            }
        }
    }
    Ok(table)
}

/// The model-allocation vector `v^x` of §IV-C from one frame's row of
/// [`f1_table`]: an entry per model, non-zero when the model predicts the
/// frame well. Guaranteed non-zero for frames accepted by
/// [`AdaptiveSampler::collect`].
pub(crate) fn membership(scores: &[f32], accept_f1: f32) -> Vec<f32> {
    // Quality-weighted membership: the paper's v^x is binary; weighting by
    // per-frame F1 sharpens the target toward the best-fitting models,
    // which measurably improves top-1 routing in this reproduction (see
    // EXPERIMENTS.md).
    scores
        .iter()
        .map(|&f1| if f1 > accept_f1 { f1 * f1 } else { 0.0 })
        .collect()
}

/// Weights the owner `arm` of a membership vector: adds twice the vector's
/// peak (at least 1). The owner is the specialist whose training set (or
/// new footage) the frame came from.
pub(crate) fn boost_owner(v: &mut [f32], arm: usize) {
    let peak = v.iter().cloned().fold(0.0f32, f32::max).max(1.0);
    v[arm] += 2.0 * peak;
}

/// The adaptive sampler wiring the Thompson scheduler to actual model tests.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveSampler {
    config: SamplingConfig,
    /// Detection threshold used in the per-frame acceptance test.
    threshold: f32,
}

impl AdaptiveSampler {
    /// Creates a sampler.
    pub fn new(config: SamplingConfig, threshold: f32) -> Self {
        Self { config, threshold }
    }

    /// Per-frame F1 of one model on one frame — the §IV-B "satisfactory
    /// prediction accuracy" test.
    ///
    /// # Errors
    ///
    /// Returns a width error if the dataset's feature width is wrong.
    pub fn frame_f1(
        &self,
        model: &CompressedModel,
        dataset: &DrivingDataset,
        r: FrameRef,
    ) -> Result<f32, AnoleError> {
        frame_f1_of(model, dataset.frame(r), self.threshold)
    }

    /// Collects suitability sets with the paper's Thompson-sampling
    /// procedure: each round picks the not-yet-well-sampled training set
    /// with the highest Beta draw, samples one frame from it, and tests only
    /// that model on the frame.
    ///
    /// Stops after `κ` draws or when every arm is well sampled. Every draw
    /// reads one table of per-frame F1 scores, each model's on each frame a
    /// draw can pick (the union of the training sets, sorted), so no frame
    /// is scored twice.
    ///
    /// # Errors
    ///
    /// Returns a width error if the dataset's feature width is wrong.
    pub fn collect(
        &self,
        dataset: &DrivingDataset,
        repository: &ModelRepository,
        seed: Seed,
    ) -> Result<SuitabilitySets, AnoleError> {
        let _span = anole_obs::span!("osp.ass.collect");
        let t0 = anole_obs::now();
        let sizes = repository.training_set_sizes();
        let mut scheduler = ThompsonSampler::new(&sizes, self.config.theta);
        let mut rng = rng_from_seed(seed);
        let mut samples = Vec::new();
        let mut memberships = Vec::new();
        let mut accepted_counts = vec![0usize; repository.len()];
        let mut rejected = 0;
        let cap = self.config.max_draws_per_arm.max(1);
        let key = |r: &FrameRef| (r.clip, r.frame);
        let mut pool: Vec<FrameRef> = repository
            .models()
            .iter()
            .flat_map(|m| m.training_set.iter().copied())
            .collect();
        pool.sort_unstable_by_key(key);
        pool.dedup();
        let frames: Vec<&Frame> = pool.iter().map(|&r| dataset.frame(r)).collect();
        let table = f1_table(repository.models(), &frames, self.threshold)?;

        for _ in 0..self.config.kappa {
            let Some(arm) = scheduler.select(&mut rng) else {
                break;
            };
            let model = repository.model(arm);
            let r = model.training_set[rng.usize(0..model.training_set.len())];
            let row = pool
                .binary_search_by_key(&key(&r), key)
                .expect("the pool holds every training frame");
            let scores = table.row(row);
            if scores[arm] > self.config.accept_f1 {
                samples.push((r, arm));
                let mut v = membership(scores, self.config.accept_f1);
                // Weight the arm whose training set the frame came from: the
                // "home" specialist is the scene-stable signal, while the
                // other memberships carry the cross-model structure that
                // helps on unseen scenes.
                boost_owner(&mut v, arm);
                memberships.push(v);
                accepted_counts[arm] += 1;
            } else {
                rejected += 1;
            }
            scheduler.record_sampled(arm);
            if scheduler.counts()[arm] >= cap {
                scheduler.set_exhausted(arm);
            }
        }

        let rounds: usize = scheduler.counts().iter().sum();
        anole_obs::counter_add!("osp.ass.rounds", rounds as u64);
        anole_obs::counter_add!("osp.ass.accepted", samples.len() as u64);
        anole_obs::counter_add!("osp.ass.rejected", rejected as u64);
        let dt_ms = anole_obs::elapsed_ms(t0);
        anole_obs::gauge_set!("osp.ass.duration_ms", dt_ms);
        if dt_ms > 0.0 {
            anole_obs::gauge_set!("osp.ass.rounds_per_sec", rounds as f64 / (dt_ms / 1000.0));
        }
        Ok(SuitabilitySets {
            samples,
            memberships,
            accepted_counts,
            draw_counts: scheduler.counts().to_vec(),
            rejected,
        })
    }

    /// The random-sampling baseline of Fig. 3a: draw frames uniformly from
    /// the pooled training data and test *every* model on each; a frame
    /// joins Ψᵢ^sub of every model that predicts it well, so counts mirror
    /// each model's prevalence in the pool. Draws read one table of every
    /// model's per-frame F1 on each frame of `pool`.
    ///
    /// # Errors
    ///
    /// Returns a width error if the dataset's feature width is wrong.
    pub fn collect_random(
        &self,
        dataset: &DrivingDataset,
        repository: &ModelRepository,
        pool: &[FrameRef],
        seed: Seed,
    ) -> Result<SuitabilitySets, AnoleError> {
        let mut rng = rng_from_seed(seed);
        // Track prevalence-weighted arm draws through the shared trait so
        // Fig. 3a uses the exact baseline from the bandit crate.
        let mut baseline = RandomSampler::new(&vec![1; repository.len().max(1)]);
        let mut samples = Vec::new();
        let mut memberships = Vec::new();
        let mut accepted_counts = vec![0usize; repository.len()];
        let mut rejected = 0;
        let frames: Vec<&Frame> = pool.iter().map(|&r| dataset.frame(r)).collect();
        let table = f1_table(repository.models(), &frames, self.threshold)?;

        for _ in 0..self.config.kappa {
            if pool.is_empty() {
                break;
            }
            let i = rng.usize(0..pool.len());
            let r = pool[i];
            let v = membership(table.row(i), self.config.accept_f1);
            let mut any = false;
            for (id, &member) in v.iter().enumerate() {
                if member > 0.0 {
                    samples.push((r, id));
                    memberships.push(v.clone());
                    accepted_counts[id] += 1;
                    baseline.record_sampled(id);
                    any = true;
                }
            }
            if !any {
                rejected += 1;
            }
        }

        Ok(SuitabilitySets {
            samples,
            memberships,
            accepted_counts,
            draw_counts: baseline.counts().to_vec(),
            rejected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osp::SceneModel;
    use crate::{AnoleConfig, SceneModelConfig};
    use anole_data::DatasetConfig;

    fn setup() -> (DrivingDataset, ModelRepository, AnoleConfig) {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(51));
        let split = dataset.split();
        let config = AnoleConfig::fast();
        let mut scfg = SceneModelConfig::default();
        scfg.train.epochs = 10;
        let scene = SceneModel::train(&dataset, &split.train, &scfg, Seed(52)).unwrap();
        let repo = ModelRepository::train(
            &dataset,
            &scene,
            &split.train,
            &split.val,
            &config,
            Seed(53),
        )
        .unwrap();
        (dataset, repo, config)
    }

    #[test]
    fn adaptive_collection_touches_every_model() {
        let (dataset, repo, config) = setup();
        let sampler = AdaptiveSampler::new(config.sampling, config.detector.threshold);
        let sets = sampler.collect(&dataset, &repo, Seed(54)).unwrap();
        assert!(!sets.is_empty());
        assert_eq!(sets.draw_counts.len(), repo.len());
        assert!(sets.draw_counts.iter().all(|&c| c > 0), "{:?}", sets.draw_counts);
        assert_eq!(
            sets.draw_counts.iter().sum::<usize>(),
            sets.len() + sets.rejected
        );
    }

    /// The bits of frame `r`'s membership row, scored one (frame, model)
    /// pair at a time: F1² above `accept_f1`, plus twice the row's peak (at
    /// least 1) on `owner`.
    fn per_pair_membership(
        sampler: &AdaptiveSampler,
        repo: &ModelRepository,
        dataset: &DrivingDataset,
        r: FrameRef,
        owner: Option<usize>,
    ) -> Vec<u32> {
        let accept = sampler.config.accept_f1;
        let mut v: Vec<f32> = repo
            .models()
            .iter()
            .map(|m| {
                let f1 = sampler.frame_f1(m, dataset, r).unwrap();
                if f1 > accept {
                    f1 * f1
                } else {
                    0.0
                }
            })
            .collect();
        if let Some(arm) = owner {
            let peak = v.iter().cloned().fold(0.0f32, f32::max).max(1.0);
            v[arm] += 2.0 * peak;
        }
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn accepted_samples_really_pass_the_test() {
        let (dataset, repo, config) = setup();
        let sampler = AdaptiveSampler::new(config.sampling, config.detector.threshold);
        let sets = sampler.collect(&dataset, &repo, Seed(55)).unwrap();
        assert_eq!(sets.memberships.len(), sets.len());
        for (&(r, id), v) in sets.samples.iter().zip(&sets.memberships) {
            let f1 = sampler.frame_f1(repo.model(id), &dataset, r).unwrap();
            assert!(f1 > config.sampling.accept_f1);
            assert_eq!(
                bits(v),
                per_pair_membership(&sampler, &repo, &dataset, r, Some(id)),
                "{r:?} drawn for model {id}"
            );
        }
    }

    #[test]
    fn f1_table_matches_per_frame_scores_at_both_precisions() {
        let (dataset, repo, config) = setup();
        let threshold = config.detector.threshold;
        let mut models = repo.models().to_vec();
        models[0].quantized = Some(models[0].net.quantize());
        // More frames than one scoring block.
        let frames: Vec<&Frame> =
            dataset.clips().iter().flat_map(|c| &c.frames).take(300).collect();
        assert!(frames.len() > SCORE_BLOCK_ROWS);
        let table = f1_table(&models, &frames, threshold).unwrap();
        assert_eq!(table.shape(), (frames.len(), models.len()));
        for (i, frame) in frames.iter().enumerate() {
            for (j, model) in models.iter().enumerate() {
                let f1 = frame_f1_of(model, frame, threshold).unwrap();
                assert_eq!(table.get(i, j).to_bits(), f1.to_bits(), "frame {i}, model {j}");
            }
        }
        let mut narrow = frames[0].clone();
        narrow.features.pop();
        let err = f1_table(&models, &[frames[1], &narrow], threshold).unwrap_err();
        assert!(matches!(err, AnoleError::Nn(NnError::InputWidth { .. })), "{err:?}");
    }

    #[test]
    fn random_samples_really_pass_the_test() {
        let (dataset, repo, config) = setup();
        let split = dataset.split();
        let sampler = AdaptiveSampler::new(config.sampling, config.detector.threshold);
        let sets = sampler
            .collect_random(&dataset, &repo, &split.train, Seed(58))
            .unwrap();
        assert!(!sets.is_empty());
        assert_eq!(sets.memberships.len(), sets.len());
        for (&(r, id), v) in sets.samples.iter().zip(&sets.memberships) {
            let f1 = sampler.frame_f1(repo.model(id), &dataset, r).unwrap();
            assert!(f1 > config.sampling.accept_f1);
            assert_eq!(
                bits(v),
                per_pair_membership(&sampler, &repo, &dataset, r, None),
                "{r:?} accepted for model {id}"
            );
        }
    }

    #[test]
    fn labels_are_in_range_and_frames_from_own_training_set() {
        let (dataset, repo, config) = setup();
        let _ = dataset;
        let sampler = AdaptiveSampler::new(config.sampling, config.detector.threshold);
        let sets = sampler.collect(&dataset, &repo, Seed(56)).unwrap();
        for &(r, id) in &sets.samples {
            assert!(id < repo.len());
            assert!(repo.model(id).training_set.contains(&r));
        }
    }

    #[test]
    fn random_collection_is_less_balanced_or_equal() {
        let (dataset, repo, config) = setup();
        let split = dataset.split();
        let sampler = AdaptiveSampler::new(config.sampling, config.detector.threshold);
        let adaptive = sampler.collect(&dataset, &repo, Seed(57)).unwrap();
        let random = sampler
            .collect_random(&dataset, &repo, &split.train, Seed(58))
            .unwrap();
        let b_adaptive = anole_bandit::balance_coefficient(&adaptive.accepted_counts);
        let b_random = anole_bandit::balance_coefficient(&random.accepted_counts);
        // Adaptive sampling exists to improve balance; allow equality for
        // tiny test repositories.
        assert!(
            b_adaptive >= b_random * 0.8,
            "adaptive {b_adaptive:.3} vs random {b_random:.3}"
        );
    }

    #[test]
    fn kappa_bounds_total_draws() {
        let (dataset, repo, mut config) = setup();
        config.sampling.kappa = 50;
        let sampler = AdaptiveSampler::new(config.sampling, config.detector.threshold);
        let sets = sampler.collect(&dataset, &repo, Seed(59)).unwrap();
        assert!(sets.draw_counts.iter().sum::<usize>() <= 50);
    }

    #[test]
    fn deterministic_given_seed() {
        let (dataset, repo, config) = setup();
        let sampler = AdaptiveSampler::new(config.sampling, config.detector.threshold);
        let a = sampler.collect(&dataset, &repo, Seed(60)).unwrap();
        let b = sampler.collect(&dataset, &repo, Seed(60)).unwrap();
        assert_eq!(a, b);
    }
}
