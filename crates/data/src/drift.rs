//! Non-stationary drift worlds: seeded drift schedules layered over the
//! stationary generator.
//!
//! The source paper trains the scene hierarchy once and leaves distribution
//! shift to future work; this module makes shift a first-class, reproducible
//! experimental condition. A [`DriftSchedule`] is a list of drift phases
//! applied as a *deterministic post-transform* over a clip produced by the
//! unmodified [`WorldModel::generate_clip`] path. The stationary RNG stream
//! is never touched: an empty schedule (and any frame outside every phase)
//! leaves the generated frames **byte-identical** to the stationary world,
//! which is what lets the drift subsystem stay enabled in production
//! pipelines without perturbing existing fixed-seed results.
//!
//! Four drift families are modelled, mirroring how deployed dashcam
//! distributions actually move:
//!
//! * [`DriftPhase::Gradual`] — covariate drift: features blend linearly
//!   toward a target scene's latent style over a frame window (season
//!   change, slow weather fronts);
//! * [`DriftPhase::Abrupt`] — a regime switch: the full shift lands at one
//!   frame (entering a tunnel, a storm breaking);
//! * [`DriftPhase::NovelScene`] — an attribute combination absent from the
//!   training distribution appears mid-stream and persists (paper §II
//!   case 3);
//! * [`DriftPhase::SensorDegradation`] — the sensor itself decays: signal
//!   gain ramps down toward a floor while seeded read-out noise ramps up
//!   (lens fouling, failing AGC).
//!
//! All drift transforms operate in pre-`tanh` space, so drifted features
//! keep the stationary invariant `|v| <= 1`. Ground-truth occupancy is
//! never altered — drift moves `P(x)`, not `P(y)`, which is exactly the
//! condition under which a frozen specialist repository degrades.

use anole_tensor::{rng_from_seed, Seed};

use crate::{ClipId, DatasetSource, SceneAttributes, VideoClip, WorldModel};

/// One phase of a drift schedule. Frame indices are relative to the clip
/// the schedule is applied to; phases may overlap (effects compose
/// additively in pre-activation space).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftPhase {
    /// Gradual covariate drift: between `start` and `end` the frame's
    /// style blends linearly from the clip's own scene toward `target`'s,
    /// reaching `strength` (1.0 = fully the target style) at `end` and
    /// holding it afterwards.
    Gradual {
        /// Scene whose style the stream drifts toward.
        target: SceneAttributes,
        /// First frame at which any shift is visible.
        start: usize,
        /// Frame at which the shift reaches full `strength`.
        end: usize,
        /// Fraction of the style delta applied at `end` (clamped to `[0, 2]`).
        strength: f32,
    },
    /// Abrupt regime switch: from frame `at` onward the full `strength`
    /// shift toward `target` is applied.
    Abrupt {
        /// Scene whose style the stream switches to.
        target: SceneAttributes,
        /// Switch frame.
        at: usize,
        /// Fraction of the style delta applied (clamped to `[0, 2]`).
        strength: f32,
    },
    /// A novel attribute combination appears at frame `at` and persists.
    /// Mechanically an abrupt switch; kept as its own variant so schedules
    /// document *why* the target scene is interesting (it is absent from
    /// the training distribution).
    NovelScene {
        /// The unseen scene that appears mid-stream.
        target: SceneAttributes,
        /// First frame of the novel regime.
        at: usize,
        /// Fraction of the style delta applied (clamped to `[0, 2]`).
        strength: f32,
    },
    /// Sensor degradation: between `start` and `end` the signal gain decays
    /// linearly from 1.0 to `min_gain` and additive read-out noise ramps
    /// from 0 to `noise_std`; both hold at their terminal values afterwards.
    SensorDegradation {
        /// First degraded frame.
        start: usize,
        /// Frame at which degradation bottoms out.
        end: usize,
        /// Terminal signal gain (clamped to `[0.05, 1]`).
        min_gain: f32,
        /// Terminal standard deviation of additive sensor noise.
        noise_std: f32,
    },
}

impl DriftPhase {
    /// Progress of this phase at `frame`: 0 before it starts, 1 once it has
    /// fully landed, linear in between.
    fn progress(&self, frame: usize) -> f32 {
        let (start, end) = match *self {
            DriftPhase::Gradual { start, end, .. } => (start, end),
            DriftPhase::Abrupt { at, .. } | DriftPhase::NovelScene { at, .. } => (at, at),
            DriftPhase::SensorDegradation { start, end, .. } => (start, end),
        };
        if frame < start {
            0.0
        } else if frame >= end {
            1.0
        } else {
            (frame - start) as f32 / (end - start) as f32
        }
    }
}

/// A seeded, composable drift schedule. Applying the same schedule to the
/// same clip always produces the same drifted clip; an empty schedule is a
/// literal no-op.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftSchedule {
    /// The phases, applied additively where they overlap.
    pub phases: Vec<DriftPhase>,
    /// Seed of the schedule's own noise stream (used only by
    /// [`DriftPhase::SensorDegradation`]); independent from the clip seed so
    /// stationary generation never observes it.
    pub seed: Seed,
}

impl DriftSchedule {
    /// A schedule with no phases: applying it changes nothing.
    pub fn stationary(seed: Seed) -> Self {
        Self { phases: Vec::new(), seed }
    }

    /// Builds a schedule from phases.
    pub fn new(phases: Vec<DriftPhase>, seed: Seed) -> Self {
        Self { phases, seed }
    }

    /// Whether the schedule can alter any frame.
    fn is_stationary(&self) -> bool {
        self.phases.is_empty()
    }

    /// Applies the schedule to `clip` in place. Frames before every phase's
    /// onset are left untouched at the byte level; the world model supplies
    /// the style geometry of the clip's own scene and of each drift target.
    fn apply(&self, world: &WorldModel, clip: &mut VideoClip) {
        if self.is_stationary() {
            return;
        }
        let source = world.scene_style(&clip.attributes);
        let source_gain = source.signal_gain();
        // Pre-resolve per-phase style deltas so the per-frame loop is cheap.
        let resolved: Vec<ResolvedPhase> = self
            .phases
            .iter()
            .map(|phase| match *phase {
                DriftPhase::Gradual { target, strength, .. }
                | DriftPhase::Abrupt { target, strength, .. }
                | DriftPhase::NovelScene { target, strength, .. } => {
                    let t = world.scene_style(&target);
                    let delta: Vec<f32> = t
                        .latent
                        .iter()
                        .zip(source.latent.iter())
                        .map(|(&a, &b)| a - b)
                        .collect();
                    ResolvedPhase::Style {
                        phase: *phase,
                        delta,
                        gain_ratio: t.signal_gain() / source_gain,
                        strength: strength.clamp(0.0, 2.0),
                    }
                }
                DriftPhase::SensorDegradation { min_gain, noise_std, .. } => {
                    ResolvedPhase::Sensor {
                        phase: *phase,
                        min_gain: min_gain.clamp(0.05, 1.0),
                        noise_std: noise_std.max(0.0),
                    }
                }
            })
            .collect();

        let mut rng = rng_from_seed(self.seed);
        for (i, frame) in clip.frames.iter_mut().enumerate() {
            let mut shift = vec![0.0f32; frame.features.len()];
            let mut scale = 1.0f32;
            let mut noise_std = 0.0f32;
            let mut active = false;
            for r in &resolved {
                match r {
                    ResolvedPhase::Style { phase, delta, gain_ratio, strength } => {
                        let w = phase.progress(i) * strength;
                        if w > 0.0 {
                            active = true;
                            for (s, &d) in shift.iter_mut().zip(delta.iter()) {
                                *s += w * d;
                            }
                            scale *= 1.0 + w * (gain_ratio - 1.0);
                        }
                    }
                    ResolvedPhase::Sensor { phase, min_gain, noise_std: terminal } => {
                        let p = phase.progress(i);
                        if p > 0.0 {
                            active = true;
                            scale *= 1.0 + p * (min_gain - 1.0);
                            noise_std += p * terminal;
                        }
                    }
                }
            }
            if !active {
                continue;
            }
            scale = scale.clamp(0.05, 4.0);
            let mut brightness_scale = scale.min(1.0);
            for (k, v) in frame.features.iter_mut().enumerate() {
                // Invert the bounded activation, drift in pre-activation
                // space, re-bound. Features sit strictly inside (-1, 1), so
                // atanh is finite; clamp defensively anyway.
                let raw = v.clamp(-0.999_99, 0.999_99).atanh();
                let mut drifted = scale * raw + shift[k];
                if noise_std > 0.0 {
                    drifted += rng.normal_f32() * noise_std;
                }
                *v = drifted.tanh();
            }
            if noise_std > 0.0 {
                brightness_scale *= 1.0 / (1.0 + noise_std);
            }
            // Photometric metadata tracks the applied attenuation so drifted
            // clips stay plausible in the Fig. 5 statistics.
            frame.meta.brightness = (frame.meta.brightness * brightness_scale).clamp(0.02, 1.0);
            frame.meta.contrast = (frame.meta.contrast * brightness_scale).clamp(0.02, 1.0);
        }
    }
}

enum ResolvedPhase {
    Style { phase: DriftPhase, delta: Vec<f32>, gain_ratio: f32, strength: f32 },
    Sensor { phase: DriftPhase, min_gain: f32, noise_std: f32 },
}

/// Generates a clip through the stationary path and then applies `schedule`.
/// With a stationary schedule this is exactly [`WorldModel::generate_clip`].
#[allow(clippy::too_many_arguments)]
pub fn generate_drifted_clip(
    world: &WorldModel,
    id: ClipId,
    source: DatasetSource,
    attrs: SceneAttributes,
    length: usize,
    density: f32,
    clip_seed: Seed,
    schedule: &DriftSchedule,
) -> VideoClip {
    let mut clip = world.generate_clip(id, source, attrs, length, density, clip_seed);
    schedule.apply(world, &mut clip);
    clip
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Location, TimeOfDay, Weather, WorldConfig};

    fn world() -> WorldModel {
        WorldModel::new(WorldConfig::default(), Seed(31))
    }

    fn urban_day() -> SceneAttributes {
        SceneAttributes::new(Weather::Clear, Location::Urban, TimeOfDay::Daytime)
    }

    fn foggy_night() -> SceneAttributes {
        SceneAttributes::new(Weather::Foggy, Location::Tunnel, TimeOfDay::Night)
    }

    fn stationary_clip(seed: Seed) -> VideoClip {
        world().generate_clip(ClipId(0), DatasetSource::Shd, urban_day(), 80, 1.0, seed)
    }

    #[test]
    fn stationary_schedule_is_a_byte_identical_noop() {
        let baseline = stationary_clip(Seed(1));
        let drifted = generate_drifted_clip(
            &world(),
            ClipId(0),
            DatasetSource::Shd,
            urban_day(),
            80,
            1.0,
            Seed(1),
            &DriftSchedule::stationary(Seed(999)),
        );
        assert_eq!(baseline, drifted);
    }

    #[test]
    fn frames_before_onset_are_untouched() {
        let baseline = stationary_clip(Seed(2));
        let schedule = DriftSchedule::new(
            vec![DriftPhase::Abrupt { target: foggy_night(), at: 40, strength: 1.0 }],
            Seed(7),
        );
        let mut drifted = baseline.clone();
        schedule.apply(&world(), &mut drifted);
        assert_eq!(baseline.frames[..40], drifted.frames[..40]);
        assert_ne!(baseline.frames[40..], drifted.frames[40..]);
    }

    #[test]
    fn drift_application_is_deterministic() {
        let schedule = DriftSchedule::new(
            vec![
                DriftPhase::Gradual { target: foggy_night(), start: 10, end: 50, strength: 1.0 },
                DriftPhase::SensorDegradation { start: 30, end: 70, min_gain: 0.4, noise_std: 0.2 },
            ],
            Seed(11),
        );
        let mut a = stationary_clip(Seed(3));
        let mut b = stationary_clip(Seed(3));
        schedule.apply(&world(), &mut a);
        schedule.apply(&world(), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn gradual_drift_ramps_monotonically_toward_target() {
        let w = world();
        let baseline = stationary_clip(Seed(4));
        let schedule = DriftSchedule::new(
            vec![DriftPhase::Gradual { target: foggy_night(), start: 0, end: 79, strength: 1.0 }],
            Seed(13),
        );
        let mut drifted = baseline.clone();
        schedule.apply(&w, &mut drifted);
        let dist = |i: usize| {
            anole_tensor::l2_distance(&baseline.frames[i].features, &drifted.frames[i].features)
        };
        // Displacement grows with progress (sampled sparsely to dodge noise).
        assert!(dist(10) < dist(40));
        assert!(dist(40) < dist(75));
    }

    #[test]
    fn drifted_features_stay_bounded() {
        let schedule = DriftSchedule::new(
            vec![
                DriftPhase::Abrupt { target: foggy_night(), at: 0, strength: 2.0 },
                DriftPhase::SensorDegradation { start: 0, end: 10, min_gain: 0.05, noise_std: 1.5 },
            ],
            Seed(17),
        );
        let mut clip = stationary_clip(Seed(5));
        schedule.apply(&world(), &mut clip);
        for f in &clip.frames {
            assert!(f.features.iter().all(|v| v.is_finite() && v.abs() <= 1.0));
            assert!((0.02..=1.0).contains(&f.meta.brightness));
            assert!((0.02..=1.0).contains(&f.meta.contrast));
        }
    }

    #[test]
    fn drift_never_alters_ground_truth() {
        let baseline = stationary_clip(Seed(6));
        let schedule = DriftSchedule::new(
            vec![
                DriftPhase::NovelScene { target: foggy_night(), at: 5, strength: 1.5 },
                DriftPhase::SensorDegradation { start: 0, end: 40, min_gain: 0.2, noise_std: 0.5 },
            ],
            Seed(19),
        );
        let mut drifted = baseline.clone();
        schedule.apply(&world(), &mut drifted);
        for (b, d) in baseline.frames.iter().zip(drifted.frames.iter()) {
            assert_eq!(b.truth, d.truth);
            assert_eq!(b.meta.object_count, d.meta.object_count);
        }
    }

    #[test]
    fn sensor_degradation_darkens_metadata() {
        let baseline = stationary_clip(Seed(8));
        let schedule = DriftSchedule::new(
            vec![DriftPhase::SensorDegradation { start: 0, end: 20, min_gain: 0.3, noise_std: 0.4 }],
            Seed(23),
        );
        let mut drifted = baseline.clone();
        schedule.apply(&world(), &mut drifted);
        let mean = |c: &VideoClip| {
            c.frames.iter().map(|f| f.meta.brightness).sum::<f32>() / c.len() as f32
        };
        assert!(mean(&drifted) < mean(&baseline));
    }

    #[test]
    fn phase_progress_starts_at_onset() {
        let g = DriftPhase::Gradual { target: foggy_night(), start: 10, end: 30, strength: 1.0 };
        assert_eq!(g.progress(9), 0.0);
        assert_eq!(g.progress(20), 0.5);
        assert_eq!(g.progress(30), 1.0);
        let a = DriftPhase::Abrupt { target: foggy_night(), at: 5, strength: 1.0 };
        assert_eq!(a.progress(4), 0.0);
        assert_eq!(a.progress(5), 1.0);
    }
}
