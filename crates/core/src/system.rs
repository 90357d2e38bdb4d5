//! The assembled Anole system: one call trains the whole offline pipeline.

use anole_data::{DrivingDataset, Frame};
use anole_device::DeviceKind;
use anole_nn::Workspace;
use anole_tensor::{split_seed, Matrix, Seed};

use crate::checkpoint::{OspStage, Step, TrainRecovery};
use crate::omi::OnlineEngine;
use crate::osp::{
    best_scoring, boost_owner, f1_table, fit_specialist, membership, stack_frames,
    write_normalized, AdaptiveSampler, ClusterOrigin, CompressedModel, DecisionModel,
    ModelRepository, SceneModel, SuitabilitySets,
};
use crate::{AnoleConfig, AnoleError};

/// A fully trained Anole system: scene encoder, compressed-model repository,
/// and decision model, ready to be deployed to an [`OnlineEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnoleSystem {
    config: AnoleConfig,
    scene_model: SceneModel,
    repository: ModelRepository,
    decision: DecisionModel,
    suitability_sets: SuitabilitySets,
}

anole_json::json_struct!(AnoleSystem {
    config,
    scene_model,
    repository,
    decision,
    suitability_sets,
});

impl AnoleSystem {
    /// Runs the entire offline scene profiling of Fig. 2: trains `M_scene`,
    /// runs Algorithm 1, collects balanced suitability sets with Thompson
    /// sampling, and trains `M_decision`.
    ///
    /// # Errors
    ///
    /// Any stage's error is surfaced; see [`AnoleError`].
    pub fn train(
        dataset: &DrivingDataset,
        config: &AnoleConfig,
        seed: Seed,
    ) -> Result<Self, AnoleError> {
        Self::train_inner(dataset, config, seed, None)
    }

    /// Crash-safe variant of [`AnoleSystem::train`]: each completed stage
    /// (and each specialist candidate inside Algorithm 1) is checkpointed
    /// through `recovery`, and stages already checkpointed by an earlier,
    /// interrupted run are reloaded instead of retrained.
    ///
    /// Every stage trainer is deterministic given its `split_seed` stream,
    /// so a resumed run produces a system bit-identical to an uninterrupted
    /// run with the same seed — with zero faults injected the two are
    /// `==`. Invalid checkpoints (corrupt, version-mismatched, or written
    /// under a different config/seed/dataset) are discarded, never trusted.
    ///
    /// # Errors
    ///
    /// As [`AnoleSystem::train`], plus [`AnoleError::Checkpoint`] on real
    /// checkpoint I/O failures and [`AnoleError::Aborted`] when the
    /// recovery's fault plan kills training at a stage boundary (call again
    /// with the same store to resume).
    pub fn train_resumable(
        dataset: &DrivingDataset,
        config: &AnoleConfig,
        seed: Seed,
        recovery: &mut TrainRecovery,
    ) -> Result<Self, AnoleError> {
        let system = Self::train_inner(dataset, config, seed, Some(recovery))?;
        recovery.finish();
        Ok(system)
    }

    fn train_inner(
        dataset: &DrivingDataset,
        config: &AnoleConfig,
        seed: Seed,
        mut recovery: Option<&mut TrainRecovery>,
    ) -> Result<Self, AnoleError> {
        let _span = anole_obs::span!("osp.train");
        anole_obs::counter_add!("osp.train.runs", 1);
        let split = dataset.split();
        let scene_model = Step::Stage(OspStage::SceneModel).run(recovery.as_deref_mut(), |_| {
            SceneModel::train(dataset, &split.train, &config.scene, split_seed(seed, 0))
        })?;
        let repository = Step::Stage(OspStage::Repository).run(recovery.as_deref_mut(), |rec| {
            ModelRepository::train_with_recovery(
                dataset,
                &scene_model,
                &split.train,
                &split.val,
                config,
                split_seed(seed, 1),
                rec,
            )
        })?;
        let suitability_sets =
            Step::Stage(OspStage::Suitability).run(recovery.as_deref_mut(), |_| {
                let sampler = AdaptiveSampler::new(config.sampling, config.detector.threshold);
                sampler.collect(dataset, &repository, split_seed(seed, 2))
            })?;
        let decision = Step::Stage(OspStage::Decision).run(recovery, |_| {
            DecisionModel::train(
                dataset,
                &scene_model,
                &suitability_sets,
                repository.len(),
                &config.decision,
                split_seed(seed, 3),
            )
        })?;
        Ok(Self {
            config: *config,
            scene_model,
            repository,
            decision,
            suitability_sets,
        })
    }

    /// The configuration the system was trained with.
    pub fn config(&self) -> &AnoleConfig {
        &self.config
    }

    /// The scene encoder `M_scene`.
    pub fn scene_model(&self) -> &SceneModel {
        &self.scene_model
    }

    /// The compressed-model repository.
    pub fn repository(&self) -> &ModelRepository {
        &self.repository
    }

    /// The decision model `M_decision`.
    pub fn decision(&self) -> &DecisionModel {
        &self.decision
    }

    /// The suitability sets used to train the decision model (diagnostics).
    pub fn suitability_sets(&self) -> &SuitabilitySets {
        &self.suitability_sets
    }

    /// Deploys the system to a simulated device.
    pub fn online_engine(&self, device: DeviceKind, seed: Seed) -> OnlineEngine<'_> {
        OnlineEngine::new(self, device, seed)
    }

    /// Overrides the deployment cache configuration (capacity sweeps and
    /// eviction-policy ablations re-deploy the same trained system with
    /// different cache settings).
    pub fn set_cache_config(&mut self, cache: crate::CacheConfig) {
        self.config.cache = cache;
    }

    /// Overrides the serving-SLO configuration (read by the gateway and the
    /// lifecycle's canary promotion gate; the trained models are untouched).
    pub fn set_slo_config(&mut self, slo: crate::SloConfig) {
        self.config.slo = slo;
    }

    /// Converts the repository and the decision model to the int8 serving
    /// format, behind per-model acceptance gates (ε =
    /// [`QuantConfig::epsilon_f1`](crate::QuantConfig::epsilon_f1)):
    ///
    /// * each compressed specialist is quantized only if its validation-split
    ///   F1 at int8 stays within ε of its fp32 F1 — a model the gate rejects
    ///   keeps serving at fp32;
    /// * the decision model is quantized only if int8 routing picks the same
    ///   top-1 specialist as fp32 routing on at least `1 − ε` of the
    ///   validation frames.
    ///
    /// The sweep is deterministic (quantization is a pure function of the
    /// trained weights and the fixed validation split) and idempotent:
    /// re-running it re-derives the same twins and the same verdicts.
    /// Already-quantized models are re-gated from their f32 weights, so the
    /// gate never compounds quantization error across calls.
    ///
    /// # Errors
    ///
    /// Surfaces width errors from the underlying forwards.
    pub fn quantize_models(
        &mut self,
        dataset: &DrivingDataset,
    ) -> Result<QuantizationReport, AnoleError> {
        let _span = anole_obs::span!("osp.quantize");
        let epsilon = self.config.quant.epsilon_f1;
        let threshold = self.config.detector.threshold;
        let val = &dataset.split().val;
        let mut report = QuantizationReport::default();
        for model in self.repository.models_mut() {
            model.quantized = None;
            let fp32_f1 = model.evaluate_f1(dataset, val, threshold)?;
            model.quantized = Some(model.net.quantize());
            let int8_f1 = model.evaluate_f1(dataset, val, threshold)?;
            let outcome = ModelQuantOutcome {
                id: model.id,
                fp32_f1,
                int8_f1,
            };
            if fp32_f1 - int8_f1 > epsilon {
                model.quantized = None;
                anole_obs::counter_add!("omi.engine.quant.rejected", 1);
                report.rejected.push(outcome);
            } else {
                anole_obs::counter_add!("omi.engine.quant.accepted", 1);
                report.accepted.push(outcome);
            }
        }
        let x_val = dataset.features_matrix(val);
        let (decision_accepted, agreement) = self.decision.quantize_gated(&x_val, epsilon)?;
        if !decision_accepted {
            anole_obs::counter_add!("omi.engine.quant.rejected", 1);
        }
        report.decision_quantized = decision_accepted;
        report.decision_agreement = agreement;
        anole_obs::gauge_set!(
            "omi.engine.quant.models",
            report.accepted.len() as f64 + f64::from(decision_accepted)
        );
        Ok(report)
    }

    /// Online repository expansion — the paper's remedy for §II case 3
    /// ("train new models to deal with x and the like in the future").
    ///
    /// Given freshly collected labelled frames from an uncovered scene,
    /// trains a new compressed specialist on them, appends it to the
    /// repository, and retrains the decision head (frozen scene backbone)
    /// over the widened model set. Its targets are the stored suitability
    /// samples plus the new footage, every row rescored against the widened
    /// repository and the footage owned by the new specialist. Returns the
    /// new model's id.
    ///
    /// # Errors
    ///
    /// * [`AnoleError::InsufficientData`] if fewer than 10 frames are
    ///   supplied (too few to train and validate a specialist).
    /// * Training errors from the substrates.
    pub fn extend_with_frames(
        &mut self,
        dataset: &DrivingDataset,
        frames: &[Frame],
        seed: Seed,
    ) -> Result<usize, AnoleError> {
        if frames.len() < 10 {
            return Err(AnoleError::InsufficientData {
                stage: "repository expansion",
                detail: format!("{} frames (need at least 10)", frames.len()),
            });
        }
        let footage: Vec<&Frame> = frames.iter().collect();
        let candidate = self.new_specialist(&footage, seed)?;
        let new_id = self.repository.push(candidate);
        // Every footage frame is owned by the new specialist.
        let (x, targets) = self.decision_targets(dataset, frames, |_| Some(new_id))?;
        self.decision = DecisionModel::train_from_features(
            &self.scene_model,
            &x,
            &targets,
            &self.config.decision,
            split_seed(seed, 2),
        )?;
        Ok(new_id)
    }

    /// `M_decision`'s training rows over the current repository: the stored
    /// suitability samples first, then `footage`. One [`f1_table`] scores
    /// every frame against every model, and each row is the frame's
    /// membership plus the owner boost on its owner (a stored sample's drawn
    /// arm, footage frame `k`'s `footage_owner(k)` if any), normalized, as
    /// [`AdaptiveSampler::collect`] builds it. A row with no mass falls back
    /// to a one-hot on its owner, else on its best-scoring model. Where no
    /// score moved since collection, a stored sample's row equals its
    /// normalized stored membership.
    fn decision_targets(
        &self,
        dataset: &DrivingDataset,
        footage: &[Frame],
        footage_owner: impl Fn(usize) -> Option<usize>,
    ) -> Result<(Matrix, Matrix), AnoleError> {
        let samples = &self.suitability_sets.samples;
        let frames: Vec<&Frame> =
            samples.iter().map(|&(r, _)| dataset.frame(r)).chain(footage).collect();
        let owners = samples
            .iter()
            .map(|&(_, arm)| Some(arm))
            .chain((0..footage.len()).map(footage_owner));
        let threshold = self.config.detector.threshold;
        let scores = f1_table(self.repository.models(), &frames, threshold)?;
        let mut targets = Matrix::zeros(frames.len(), self.repository.len());
        for (i, owner) in owners.enumerate() {
            let row = scores.row(i);
            let mut v = membership(row, self.config.sampling.accept_f1);
            if let Some(arm) = owner {
                boost_owner(&mut v, arm);
            }
            write_normalized(&mut targets, i, &v, owner.unwrap_or_else(|| best_scoring(row).0));
        }
        Ok((stack_frames(&frames).0, targets))
    }

    /// Trains a specialist for footage no existing one covers (4/5 fit
    /// split, 1/5 validation), returning the candidate with `id` 0 — the
    /// repository assigns the real id on push. The footage lies outside the
    /// dataset, so the candidate's origin and training set are empty.
    fn new_specialist(&self, frames: &[&Frame], seed: Seed) -> Result<CompressedModel, AnoleError> {
        let (fit, val) = frames.split_at((frames.len() * 4 / 5).max(1));
        let origin = ClusterOrigin {
            k: 0,
            cluster: 0,
            scenes: Vec::new(),
        };
        let detector = &self.config.detector;
        fit_specialist(fit, val, detector, origin, Vec::new(), seed, &mut Workspace::new())
    }

    /// Guarded continual re-profiling: the incremental Algorithm 1.
    ///
    /// Where [`AnoleSystem::extend_with_frames`] always bolts on one new
    /// specialist, this re-runs only the *affected* part of offline scene
    /// profiling against freshly pooled (drifting) footage:
    ///
    /// 1. **Assignment** — the footage is scored against every existing
    ///    specialist (`M_scene` itself is reused, never retrained). Frames a
    ///    specialist already predicts well are assigned to it; specialists
    ///    holding a meaningful share of the footage are *stale* (their scene
    ///    moved under them). Frames no specialist covers are *novel*.
    /// 2. **Refresh** — each stale specialist is retrained from its original
    ///    training set plus its assigned footage; untouched specialists keep
    ///    their weights bit-for-bit. A refreshed model drops its quantized
    ///    twin (re-run [`AnoleSystem::quantize_models`] to re-gate it).
    /// 3. **Expansion** — if at least 10 novel frames pooled, one new
    ///    specialist is trained on them (as in repository expansion).
    /// 4. **Decision refresh** — the decision head is retrained (frozen
    ///    scene backbone) on the targets expansion builds, recomputed
    ///    against the refreshed repository: each stored suitability sample
    ///    is owned by the specialist it was drawn for, each novel footage
    ///    frame by the new specialist, and covered footage by none.
    ///
    /// Every step is checkpointed through `recovery` (when supplied) as an
    /// OSP stage is, and each boundary is a
    /// [`FaultKind::ReprofileAbort`](crate::omi::FaultKind::ReprofileAbort)
    /// abort point: a killed re-profile, re-invoked on a fresh clone of the
    /// pre-profile system with the same store, resumes from its checkpoints
    /// and produces a system bit-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// * [`AnoleError::InsufficientData`] if fewer than 10 frames are
    ///   supplied.
    /// * [`AnoleError::Aborted`] at an injected re-profile kill.
    /// * Training and checkpoint errors from the substrates.
    pub fn reprofile_with_frames(
        &mut self,
        dataset: &DrivingDataset,
        frames: &[Frame],
        seed: Seed,
        mut recovery: Option<&mut TrainRecovery>,
    ) -> Result<ReprofileReport, AnoleError> {
        let _span = anole_obs::span!("osp.reprofile");
        anole_obs::counter_add!("omi.engine.drift.reprofiles", 1);
        if frames.len() < 10 {
            return Err(AnoleError::InsufficientData {
                stage: "continual re-profile",
                detail: format!("{} frames (need at least 10)", frames.len()),
            });
        }

        // Step 0: assignment. Deterministic (no RNG), so the checkpoint
        // only buys resume speed — a recomputed assignment is identical.
        let step = Step::Reprofile { index: 0, name: "reprofile assignment" };
        let assignment = step.run(recovery.as_deref_mut(), |_| self.assign(frames))?;

        // Steps 1..=N: refresh each stale specialist in id order.
        let val: Vec<&Frame> = dataset.split().val.iter().map(|&r| dataset.frame(r)).collect();
        let mut refreshed = Vec::with_capacity(assignment.affected.len());
        for (pos, (&id, assigned)) in
            assignment.affected.iter().zip(&assignment.assigned).enumerate()
        {
            let step = Step::Reprofile { index: 1 + pos, name: "reprofile specialist" };
            let retrained = step.run(recovery.as_deref_mut(), |_| {
                let old = self.repository.model(id);
                let fit: Vec<&Frame> = old
                    .training_set
                    .iter()
                    .map(|&r| dataset.frame(r))
                    .chain(assigned.iter().map(|&i| &frames[i]))
                    .collect();
                let mut m = fit_specialist(
                    &fit,
                    &val,
                    &self.config.detector,
                    old.origin.clone(),
                    old.training_set.clone(),
                    split_seed(seed, 100 + id as u64),
                    &mut Workspace::new(),
                )?;
                m.id = id;
                Ok(m)
            })?;
            self.repository.models_mut()[id] = retrained;
            refreshed.push(id);
        }

        // Step N+1: one new specialist for the novel footage, if enough
        // pooled. The checkpointed candidate carries id 0; push assigns the
        // same id on an uninterrupted run and on a resume.
        let new_step = 1 + assignment.affected.len();
        let mut new_model = None;
        if assignment.novel.len() >= 10 {
            let step = Step::Reprofile { index: new_step, name: "reprofile expansion" };
            let candidate = step.run(recovery.as_deref_mut(), |_| {
                let novel: Vec<&Frame> = assignment.novel.iter().map(|&i| &frames[i]).collect();
                self.new_specialist(&novel, split_seed(seed, 200))
            })?;
            new_model = Some(self.repository.push(candidate));
        }

        // Final step: retrain the decision head against the refreshed
        // repository. The stale specialists' scores moved, so every target
        // row is rescored.
        let decision_step = new_step + 1;
        let step = Step::Reprofile { index: decision_step, name: "reprofile decision" };
        self.decision = step.run(recovery.as_deref_mut(), |_| {
            let owner = |k: usize| new_model.filter(|_| assignment.novel.contains(&k));
            let (x, targets) = self.decision_targets(dataset, frames, owner)?;
            DecisionModel::train_from_features(
                &self.scene_model,
                &x,
                &targets,
                &self.config.decision,
                split_seed(seed, 300),
            )
        })?;
        if let Some(rec) = recovery {
            rec.finish();
        }
        anole_obs::gauge_set!("omi.engine.drift.stale_models", refreshed.len() as f64);

        Ok(ReprofileReport {
            assigned_frames: assignment.assigned.iter().map(Vec::len).sum(),
            novel_frames: assignment.novel.len(),
            refreshed,
            new_model,
            total_steps: decision_step + 1,
        })
    }

    /// The re-profile's assignment: scores `frames` against every
    /// specialist, assigns each frame to every specialist that covers it,
    /// and keeps the specialists holding a meaningful share as stale.
    fn assign(&self, frames: &[Frame]) -> Result<ReprofileAssignment, AnoleError> {
        let n = self.repository.len();
        let accept = self.config.sampling.accept_f1;
        let footage: Vec<&Frame> = frames.iter().collect();
        let threshold = self.config.detector.threshold;
        let scores = f1_table(self.repository.models(), &footage, threshold)?;
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut novel = Vec::new();
        for i in 0..frames.len() {
            let mut covered = false;
            for (id, &f1) in scores.row(i).iter().enumerate() {
                if f1 > accept {
                    assigned[id].push(i);
                    covered = true;
                }
            }
            if !covered {
                novel.push(i);
            }
        }
        // A specialist is stale only when a meaningful share of the
        // footage lands on it; grazing hits don't trigger retrains.
        let min_assigned = (frames.len() / 5).max(8);
        let affected: Vec<usize> = (0..n).filter(|&m| assigned[m].len() >= min_assigned).collect();
        let assigned: Vec<Vec<usize>> =
            affected.iter().map(|&m| std::mem::take(&mut assigned[m])).collect();
        Ok(ReprofileAssignment { affected, assigned, novel })
    }
}

/// Per-model verdict of the quantization sweep: validation F1 at both
/// precisions, so the accuracy cost of int8 is auditable per specialist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelQuantOutcome {
    /// Repository index of the specialist.
    pub id: usize,
    /// Validation F1 served at fp32.
    pub fp32_f1: f32,
    /// Validation F1 served at int8.
    pub int8_f1: f32,
}

impl ModelQuantOutcome {
    /// F1 lost by quantizing (positive when int8 is worse).
    pub fn f1_delta(&self) -> f32 {
        self.fp32_f1 - self.int8_f1
    }
}

/// What [`AnoleSystem::quantize_models`] decided.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantizationReport {
    /// Specialists now serving at int8 (F1 delta within ε).
    pub accepted: Vec<ModelQuantOutcome>,
    /// Specialists the gate kept at fp32 (F1 delta above ε).
    pub rejected: Vec<ModelQuantOutcome>,
    /// Whether the decision model now routes at int8.
    pub decision_quantized: bool,
    /// Measured top-1 routing agreement between fp32 and int8 on the gate
    /// set (0.0 when the gate set was empty).
    pub decision_agreement: f32,
}

impl QuantizationReport {
    /// Largest F1 the gate allowed any accepted specialist to lose.
    pub fn worst_accepted_delta(&self) -> f32 {
        self.accepted.iter().map(ModelQuantOutcome::f1_delta).fold(0.0, f32::max)
    }
}

/// Checkpointed step-0 artifact of a re-profile: which specialists the
/// footage landed on and which frames nobody covered.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ReprofileAssignment {
    /// Ids of specialists holding enough footage to be retrained.
    affected: Vec<usize>,
    /// Frame indices (into the footage slice) assigned to each affected
    /// specialist, in `affected` order.
    assigned: Vec<Vec<usize>>,
    /// Frame indices no existing specialist covered.
    novel: Vec<usize>,
}

anole_json::json_struct!(ReprofileAssignment { affected, assigned, novel });

/// What [`AnoleSystem::reprofile_with_frames`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReprofileReport {
    /// Ids of the specialists retrained in place (stale scenes).
    pub refreshed: Vec<usize>,
    /// Id of the specialist trained on novel footage, if enough pooled.
    pub new_model: Option<usize>,
    /// Footage frames assigned to an existing specialist (with multiplicity
    /// — a frame several specialists cover counts once per specialist).
    pub assigned_frames: usize,
    /// Footage frames no existing specialist covered.
    pub novel_frames: usize,
    /// Checkpointed step count, including the decision refresh.
    pub total_steps: usize,
}

impl ReprofileReport {
    /// Whether the re-profile changed any model at all.
    pub fn changed_anything(&self) -> bool {
        !self.refreshed.is_empty() || self.new_model.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anole_data::DatasetConfig;

    #[test]
    fn full_pipeline_trains_end_to_end() {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(81));
        let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(82)).unwrap();
        assert!(system.repository().len() >= 2);
        assert_eq!(system.decision().model_count(), system.repository().len());
        assert!(!system.suitability_sets().is_empty());
        assert!(system.scene_model().class_count() >= 2);
    }

    #[test]
    fn training_is_deterministic() {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(83));
        let a = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(84)).unwrap();
        let b = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(84)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn expansion_adds_a_working_specialist() {
        use anole_data::{ClipId, DatasetSource, Location, SceneAttributes, TimeOfDay, Weather};

        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(91));
        let mut system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(92)).unwrap();
        let before_count = system.repository().len();

        // A scene combination the small dataset cannot contain (KITTI/BDD/SHD
        // profiles never sample snowy toll booths at night).
        let exotic = SceneAttributes::new(Weather::Snowy, Location::TollBooth, TimeOfDay::Night);
        assert!(dataset.clips().iter().all(|c| c.attributes != exotic));
        let footage = dataset.world().generate_clip(
            ClipId(7000),
            DatasetSource::Shd,
            exotic,
            120,
            1.0,
            Seed(93),
        );
        let holdout = dataset.world().generate_clip(
            ClipId(7001),
            DatasetSource::Shd,
            exotic,
            60,
            1.0,
            Seed(94),
        );
        let threshold = system.config().detector.threshold;
        let best_before: f32 = system
            .repository()
            .models()
            .iter()
            .map(|m| {
                let mut counts = anole_detect::DetectionCounts::default();
                for f in &holdout.frames {
                    counts.accumulate(&m.detect(&f.features, threshold).unwrap(), &f.truth);
                }
                counts.f1()
            })
            .fold(0.0, f32::max);

        let new_id = system
            .extend_with_frames(&dataset, &footage.frames, Seed(95))
            .unwrap();
        assert_eq!(new_id, before_count);
        assert_eq!(system.repository().len(), before_count + 1);
        assert_eq!(system.decision().model_count(), before_count + 1);
        assert!(system.repository().model(new_id).validation_f1 > 0.0);

        // The new specialist must dominate the exotic scene.
        let new_model = system.repository().model(new_id);
        let mut counts = anole_detect::DetectionCounts::default();
        for f in &holdout.frames {
            counts.accumulate(&new_model.detect(&f.features, threshold).unwrap(), &f.truth);
        }
        assert!(
            counts.f1() > best_before,
            "new specialist {:.3} vs best previous {:.3}",
            counts.f1(),
            best_before
        );

        // And the retrained router must actually route exotic frames to it
        // more often than chance.
        let mut hits = 0;
        for f in &holdout.frames {
            if system.decision().rank(&f.features).unwrap()[0] == new_id {
                hits += 1;
            }
        }
        assert!(
            hits * (before_count + 1) > holdout.frames.len(),
            "router picked the new model only {hits}/{} times",
            holdout.frames.len()
        );
    }

    #[test]
    fn expansion_rejects_too_little_footage() {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(96));
        let mut system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(97)).unwrap();
        let frame = dataset.frame(dataset.split().test[0]).clone();
        let err = system
            .extend_with_frames(&dataset, &[frame], Seed(98))
            .unwrap_err();
        assert!(matches!(err, AnoleError::InsufficientData { .. }));
    }

    #[test]
    fn quantize_sweep_enforces_the_f1_gate() {
        use anole_nn::Precision;

        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(181));
        let mut system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(182)).unwrap();
        let epsilon = system.config().quant.epsilon_f1;
        let report = system.quantize_models(&dataset).unwrap();

        assert_eq!(
            report.accepted.len() + report.rejected.len(),
            system.repository().len()
        );
        for o in &report.accepted {
            assert!(
                o.f1_delta() <= epsilon,
                "model {} accepted with delta {}",
                o.id,
                o.f1_delta()
            );
            assert_eq!(
                system.repository().model(o.id).serving_precision(),
                Precision::Int8
            );
        }
        for o in &report.rejected {
            assert!(
                o.f1_delta() > epsilon,
                "model {} rejected with delta {}",
                o.id,
                o.f1_delta()
            );
            assert_eq!(
                system.repository().model(o.id).serving_precision(),
                Precision::Fp32
            );
        }
        assert!(report.worst_accepted_delta() <= epsilon);
        assert_eq!(
            system.decision().serving_precision(),
            if report.decision_quantized { Precision::Int8 } else { Precision::Fp32 }
        );
        if report.decision_quantized {
            assert!(report.decision_agreement >= 1.0 - epsilon);
        }
        // Quantized models charge ~¼ the bytes of their f32 twins.
        for o in &report.accepted {
            let m = system.repository().model(o.id);
            assert!(m.serving_bytes() * 3 < m.net.weight_bytes());
        }

        // The sweep is idempotent: re-running re-derives identical verdicts.
        let again = system.quantize_models(&dataset).unwrap();
        assert_eq!(report, again);
    }

    fn reprofile_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("anole-reprofile-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn reprofile_rejects_too_little_footage() {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(201));
        let mut system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(202)).unwrap();
        let frame = dataset.frame(dataset.split().test[0]).clone();
        let err = system
            .reprofile_with_frames(&dataset, &[frame], Seed(203), None)
            .unwrap_err();
        assert!(matches!(err, AnoleError::InsufficientData { .. }));
    }

    #[test]
    fn reprofile_learns_novel_scenes_deterministically() {
        use anole_data::{ClipId, DatasetSource, Location, SceneAttributes, TimeOfDay, Weather};

        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(205));
        let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(206)).unwrap();
        let before_count = system.repository().len();

        let exotic = SceneAttributes::new(Weather::Snowy, Location::TollBooth, TimeOfDay::Night);
        assert!(dataset.clips().iter().all(|c| c.attributes != exotic));
        let footage = dataset.world().generate_clip(
            ClipId(7100),
            DatasetSource::Shd,
            exotic,
            120,
            1.0,
            Seed(207),
        );

        let mut a = system.clone();
        let report_a = a
            .reprofile_with_frames(&dataset, &footage.frames, Seed(208), None)
            .unwrap();
        let mut b = system.clone();
        let report_b = b
            .reprofile_with_frames(&dataset, &footage.frames, Seed(208), None)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(report_a, report_b);

        // No existing specialist covers the exotic scene, so the footage
        // pools as novel and produces exactly one new specialist.
        assert_eq!(report_a.new_model, Some(before_count));
        assert!(report_a.novel_frames >= 10);
        assert_eq!(a.repository().len(), before_count + 1);
        assert_eq!(a.decision().model_count(), before_count + 1);
        assert!(a.repository().model(before_count).validation_f1 >= 0.0);
        assert!(report_a.changed_anything());
        assert_eq!(
            report_a.total_steps,
            // assignment + per-model refreshes + new specialist + decision
            1 + report_a.refreshed.len() + 2
        );
    }

    #[test]
    fn reprofile_refreshes_covered_specialists_in_place() {
        use anole_data::{ClipId, DatasetSource};

        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(211));
        let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(212)).unwrap();
        let before = system.repository().clone();

        // Fresh footage from a scene the dataset already profiles: frames
        // land on the specialists holding that scene instead of pooling as
        // a new model.
        let known = dataset.clips()[0].attributes;
        let footage = dataset.world().generate_clip(
            ClipId(7200),
            DatasetSource::Shd,
            known,
            150,
            1.0,
            Seed(213),
        );
        let mut reprofiled = system.clone();
        let report = reprofiled
            .reprofile_with_frames(&dataset, &footage.frames, Seed(214), None)
            .unwrap();

        assert!(report.assigned_frames > 0, "in-distribution footage must be covered");
        assert!(!report.refreshed.is_empty(), "the covering specialist must go stale");
        for &id in &report.refreshed {
            let m = reprofiled.repository().model(id);
            assert_ne!(m.net, before.model(id).net, "refreshed model {id} kept old weights");
            assert!(m.quantized.is_none(), "refresh must drop the stale int8 twin");
            assert_eq!(m.id, id);
            assert_eq!(m.origin, before.model(id).origin);
        }
        // Untouched specialists keep their weights bit-for-bit.
        for m in reprofiled.repository().models() {
            if !report.refreshed.contains(&m.id) && Some(m.id) != report.new_model {
                assert_eq!(m, before.model(m.id), "untouched model {} changed", m.id);
            }
        }
        assert_eq!(reprofiled.decision().model_count(), reprofiled.repository().len());
    }

    #[test]
    fn reprofile_targets_of_unmoved_samples_are_their_stored_memberships() {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(231));
        let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(232)).unwrap();
        let sets = system.suitability_sets();
        let n_models = system.repository().len();

        // Scored against the repository the samples were collected on, no
        // score has moved: the re-profile's target rows are the stored
        // (owner-boosted) memberships, normalized, bit for bit.
        let (_, targets) = system.decision_targets(&dataset, &[], |_| None).unwrap();
        assert_eq!(targets.shape(), (sets.len(), n_models));

        let mut expected = Matrix::zeros(sets.len(), n_models);
        for (i, (v, &(_, owner))) in sets.memberships.iter().zip(&sets.samples).enumerate() {
            assert_eq!(v.len(), n_models);
            write_normalized(&mut expected, i, v, owner);
        }
        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (i, &(r, owner)) in sets.samples.iter().enumerate() {
            assert_eq!(
                bits(targets.row(i)),
                bits(expected.row(i)),
                "sample {i} ({r:?}, drawn for model {owner})"
            );
        }
    }

    #[test]
    fn expansion_targets_span_the_current_repository() {
        use anole_data::{ClipId, DatasetSource, Location, SceneAttributes, TimeOfDay, Weather};

        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(181));
        let mut system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(182)).unwrap();
        let before = system.repository().len();
        // Two scenes the dataset does not hold, one expansion each.
        let mut footage = Vec::new();
        for (i, weather) in [Weather::Snowy, Weather::Foggy].into_iter().enumerate() {
            let scene = SceneAttributes::new(weather, Location::TollBooth, TimeOfDay::Night);
            assert!(dataset.clips().iter().all(|c| c.attributes != scene));
            let clip = dataset.world().generate_clip(
                ClipId(7400 + i),
                DatasetSource::Shd,
                scene,
                120,
                1.0,
                Seed(183 + i as u64),
            );
            footage.push(clip.frames);
        }
        system.extend_with_frames(&dataset, &footage[0], Seed(185)).unwrap();
        let new_id = system.extend_with_frames(&dataset, &footage[1], Seed(186)).unwrap();
        assert_eq!(new_id, before + 1);

        // The second retrain's targets, written out one (frame, model) pair
        // at a time: every current model's per-frame F1 as a membership,
        // boosted on the stored sample's arm or, for footage, on the new
        // specialist, normalized.
        let config = system.config();
        let threshold = config.detector.threshold;
        let models = system.repository().models();
        let rows: Vec<(&Frame, usize)> = system
            .suitability_sets()
            .samples
            .iter()
            .map(|&(r, arm)| (dataset.frame(r), arm))
            .chain(footage[1].iter().map(|f| (f, new_id)))
            .collect();
        let mut x = Matrix::zeros(rows.len(), dataset.config().world.feature_dim);
        let mut targets = Matrix::zeros(rows.len(), before + 2);
        for (i, &(frame, owner)) in rows.iter().enumerate() {
            let scores: Vec<f32> = models
                .iter()
                .map(|m| crate::osp::frame_f1_of(m, frame, threshold).unwrap())
                .collect();
            let mut v = membership(&scores, config.sampling.accept_f1);
            boost_owner(&mut v, owner);
            let mass: f32 = v.iter().sum();
            for (j, &m) in v.iter().enumerate() {
                targets.set(i, j, m / mass);
            }
            x.row_mut(i).copy_from_slice(&frame.features);
        }
        let expected = DecisionModel::train_from_features(
            system.scene_model(),
            &x,
            &targets,
            &config.decision,
            split_seed(Seed(186), 2),
        )
        .unwrap();
        assert_eq!(system.decision(), &expected);
    }

    #[test]
    fn killed_reprofile_resumes_bit_identically() {
        use crate::checkpoint::CheckpointStore;
        use crate::omi::{FaultKind, FaultPlan};
        use anole_data::{ClipId, DatasetSource, Location, SceneAttributes, TimeOfDay, Weather};

        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(221));
        let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(222)).unwrap();
        let exotic = SceneAttributes::new(Weather::Snowy, Location::TollBooth, TimeOfDay::Night);
        let footage = dataset.world().generate_clip(
            ClipId(7300),
            DatasetSource::Shd,
            exotic,
            120,
            1.0,
            Seed(223),
        );

        let mut uninterrupted = system.clone();
        let clean_report = uninterrupted
            .reprofile_with_frames(&dataset, &footage.frames, Seed(224), None)
            .unwrap();

        // Kill the re-profile right after the new-specialist step lands.
        let dir = reprofile_dir("resume");
        let store = CheckpointStore::open(&dir, 77).unwrap();
        let mut recovery = TrainRecovery::new(store).with_injector(
            FaultPlan::new(Seed(225)).at(1, FaultKind::ReprofileAbort).injector(),
        );
        let mut killed = system.clone();
        let err = killed
            .reprofile_with_frames(&dataset, &footage.frames, Seed(224), Some(&mut recovery))
            .unwrap_err();
        assert!(matches!(err, AnoleError::Aborted { .. }));

        // Resume on a fresh clone of the pre-profile system with the same
        // store: checkpointed steps load, only the rest retrains, and the
        // result is bit-identical to the uninterrupted run.
        let store = CheckpointStore::open(&dir, 77).unwrap();
        let mut recovery = TrainRecovery::new(store);
        let mut resumed = system.clone();
        let resumed_report = resumed
            .reprofile_with_frames(&dataset, &footage.frames, Seed(224), Some(&mut recovery))
            .unwrap();
        assert_eq!(resumed, uninterrupted);
        assert_eq!(resumed_report, clean_report);
        assert!(recovery.report.resumed_reprofile_steps >= 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn engine_runs_a_stream() {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(85));
        let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(86)).unwrap();
        let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(87));
        let split = dataset.split();
        for r in split.test.iter().take(30) {
            let out = engine.step(&dataset.frame(*r).features).unwrap();
            assert!(out.models_executed > 0);
        }
        assert_eq!(engine.health_report().frames, 30);
    }
}
