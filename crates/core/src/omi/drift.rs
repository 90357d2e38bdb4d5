//! Scene-drift detection: flagging §II case-3 frames online.
//!
//! The paper observes that "the prediction confidence can be used to
//! indicate whether such models exist" — i.e. a persistently low model
//! allocation confidence signals the device has entered a scene no
//! repository model covers (case 3 of the problem formulation), and fresh
//! footage should be collected for repository expansion
//! ([`AnoleSystem::extend_with_frames`](crate::AnoleSystem::extend_with_frames)).
//!
//! [`DriftDetector`] keeps a rolling window of a calibrated signal and
//! latches into [`DriftState::Drifting`] when the window mean stays past a
//! calibrated floor for `enter_windows` consecutive observations; it
//! unlatches after `exit_windows` consecutive in-distribution observations
//! (hysteresis), and emits at most one typed [`DriftEvent`] per `cooldown`
//! observations. Two calibrated signals feed it: the decision model's
//! **top-1 suitability confidence** ([`DriftDetector::calibrated`]), which
//! gateway sessions watch, and the embedding-space [`SceneDistanceScorer`],
//! which keeps discriminating as the repository grows and softmax
//! confidence flattens, and which the fleet lifecycle uses.

use std::collections::VecDeque;

use anole_data::{DrivingDataset, FrameRef};
use anole_tensor::Matrix;

use crate::osp::class_means;
use crate::{AnoleError, AnoleSystem};

/// Current drift judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriftState {
    /// Confidence is consistent with scenes seen at profiling time.
    #[default]
    Nominal,
    /// The calibrated signal has stayed past its floor long enough: the
    /// stream is likely outside every model's distribution (case 3).
    Drifting,
}

impl std::fmt::Display for DriftState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DriftState::Nominal => "nominal",
            DriftState::Drifting => "drifting",
        })
    }
}

/// Which calibrated signal a detector (or an emitted event) watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriftSignal {
    /// Top-1 suitability of the decision model.
    #[default]
    Confidence,
    /// Embedding distance to the nearest training-scene centroid.
    SceneDistance,
}

/// A typed drift alarm: the detector latched into
/// [`DriftState::Drifting`] (outside any cooldown window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvent {
    /// Observation index (0-based) at which the event fired.
    pub frame: usize,
    /// The signal that tripped.
    pub signal: DriftSignal,
    /// Rolling window mean at emission.
    pub window_mean: f32,
    /// The calibrated floor the mean crossed.
    pub floor: f32,
}

/// Rolling-signal drift detector with hysteresis and cooldown.
///
/// # Examples
///
/// ```
/// use anole_core::omi::{DriftDetector, DriftState};
///
/// let mut detector = DriftDetector::new(4, 0.5);
/// for _ in 0..4 {
///     detector.observe(0.9).unwrap();
/// }
/// assert_eq!(detector.state(), DriftState::Nominal);
/// for _ in 0..4 {
///     detector.observe(0.1).unwrap();
/// }
/// assert_eq!(detector.state(), DriftState::Drifting);
/// assert_eq!(detector.events().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DriftDetector {
    window: usize,
    floor: f32,
    history: VecDeque<f32>,
    enter_windows: usize,
    exit_windows: usize,
    cooldown: usize,
    signal: DriftSignal,
    observations: usize,
    below_streak: usize,
    above_streak: usize,
    latched: bool,
    last_event_at: Option<usize>,
    events: Vec<DriftEvent>,
}

impl DriftDetector {
    /// Creates a detector with a rolling `window` and signal `floor`. A
    /// window of 1 tracks the instantaneous signal. Hysteresis defaults to
    /// trip-and-release on a single window (`enter_windows = exit_windows =
    /// 1`) with no cooldown.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize, floor: f32) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            floor,
            history: VecDeque::with_capacity(window),
            enter_windows: 1,
            exit_windows: 1,
            cooldown: 0,
            signal: DriftSignal::Confidence,
            observations: 0,
            below_streak: 0,
            above_streak: 0,
            latched: false,
            last_event_at: None,
            events: Vec::new(),
        }
    }

    /// Sets the hysteresis: `enter` consecutive below-floor windows latch
    /// the detector into `Drifting`; `exit` consecutive in-distribution
    /// observations release it. Values are clamped to at least 1.
    #[must_use]
    pub fn with_hysteresis(mut self, enter: usize, exit: usize) -> Self {
        self.enter_windows = enter.max(1);
        self.exit_windows = exit.max(1);
        self
    }

    /// Sets the minimum number of observations between emitted
    /// [`DriftEvent`]s (0 = every latch emits).
    #[must_use]
    pub fn with_cooldown(mut self, cooldown: usize) -> Self {
        self.cooldown = cooldown;
        self
    }

    /// Tags the detector (and its emitted events) with the signal it
    /// watches.
    #[must_use]
    fn with_signal(mut self, signal: DriftSignal) -> Self {
        self.signal = signal;
        self
    }

    /// Calibrates the floor from a trained system: the `quantile` of the
    /// top-1 suitability over the given (validation) frames. Streams whose
    /// rolling confidence sits below what the weakest calibration frames
    /// achieved are flagged.
    ///
    /// # Errors
    ///
    /// Surfaces inference errors from the decision model.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`, `refs` is empty, or `quantile` is outside
    /// `(0, 1)`.
    pub fn calibrated(
        system: &AnoleSystem,
        dataset: &DrivingDataset,
        refs: &[FrameRef],
        window: usize,
        quantile: f32,
    ) -> Result<Self, AnoleError> {
        assert!(!refs.is_empty(), "calibration set is empty");
        assert!(quantile > 0.0 && quantile < 1.0, "quantile must be in (0,1)");
        let x = dataset.features_matrix(refs);
        let probs = system.decision().suitability(&x)?;
        let mut confidences: Vec<f32> = (0..probs.rows())
            .map(|i| {
                let row = probs.row(i);
                row[anole_tensor::argmax(row).expect("non-empty")]
            })
            .collect();
        confidences.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((confidences.len() - 1) as f32 * quantile) as usize;
        Ok(Self::new(window, confidences[idx]))
    }

    /// The calibrated signal floor.
    pub fn floor(&self) -> f32 {
        self.floor
    }

    /// Feeds one observation of the calibrated signal; returns the updated
    /// state.
    ///
    /// # Errors
    ///
    /// [`AnoleError::InvalidFrame`] on a NaN or infinite input — a poisoned
    /// confidence would pollute the rolling mean silently otherwise. The
    /// window is left untouched.
    pub fn observe(&mut self, confidence: f32) -> Result<DriftState, AnoleError> {
        if !confidence.is_finite() {
            return Err(AnoleError::InvalidFrame {
                detail: format!("non-finite drift signal {confidence}"),
            });
        }
        if self.history.len() == self.window {
            self.history.pop_front();
        }
        self.history.push_back(confidence);
        let below = self.window_below_floor();
        if below {
            self.below_streak += 1;
            self.above_streak = 0;
        } else {
            self.above_streak += 1;
            self.below_streak = 0;
        }
        if !self.latched && self.below_streak >= self.enter_windows {
            self.latched = true;
            let off_cooldown = self
                .last_event_at
                .is_none_or(|at| self.observations - at >= self.cooldown);
            if off_cooldown {
                self.last_event_at = Some(self.observations);
                self.events.push(DriftEvent {
                    frame: self.observations,
                    signal: self.signal,
                    window_mean: self.window_mean(),
                    floor: self.floor,
                });
                anole_obs::counter_add!("omi.engine.drift.events", 1);
            }
        } else if self.latched && self.above_streak >= self.exit_windows {
            self.latched = false;
        }
        self.observations += 1;
        Ok(self.state())
    }

    /// Convenience: observes a frame directly through a system's decision
    /// model.
    ///
    /// # Errors
    ///
    /// Surfaces inference errors from the decision model.
    pub fn observe_frame(
        &mut self,
        system: &AnoleSystem,
        features: &[f32],
    ) -> Result<DriftState, AnoleError> {
        let probs = system.decision().suitability(&Matrix::row_vector(features))?;
        let row = probs.row(0);
        self.observe(row[anole_tensor::argmax(row).expect("non-empty")])
    }

    /// Current state: drifting while the hysteresis latch is set.
    pub fn state(&self) -> DriftState {
        if self.latched {
            DriftState::Drifting
        } else {
            DriftState::Nominal
        }
    }

    /// Typed drift alarms emitted so far (edge-triggered, cooldown-gated).
    pub fn events(&self) -> &[DriftEvent] {
        &self.events
    }

    /// Clears the rolling window and releases the latch (e.g. after an
    /// expansion deployed). Emitted events and counters are kept.
    #[cfg(test)]
    fn reset(&mut self) {
        self.history.clear();
        self.below_streak = 0;
        self.above_streak = 0;
        self.latched = false;
    }

    fn window_below_floor(&self) -> bool {
        self.history.len() == self.window && self.window_mean() < self.floor
    }

    fn window_mean(&self) -> f32 {
        if self.history.is_empty() {
            return 0.0;
        }
        self.history.iter().sum::<f32>() / self.history.len() as f32
    }
}

/// Embedding-space OOD scorer: distance of a frame's scene embedding to the
/// nearest training-scene centroid.
///
/// The decision model's softmax confidence flattens as the repository
/// grows, which weakens confidence-based drift detection; the scene
/// *representation* keeps discriminating, because an unseen attribute
/// combination lands away from every training-scene centroid. Calibrate a
/// distance ceiling on validation frames and flag streams whose rolling
/// distance exceeds it.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneDistanceScorer {
    centroids: Matrix,
}

impl SceneDistanceScorer {
    /// Builds per-scene-class centroids from the referenced (training)
    /// frames' embeddings.
    ///
    /// # Errors
    ///
    /// Surfaces inference errors; fails with
    /// [`AnoleError::InsufficientData`] when `refs` is empty.
    pub fn calibrate(
        system: &AnoleSystem,
        dataset: &DrivingDataset,
        refs: &[FrameRef],
    ) -> Result<Self, AnoleError> {
        if refs.is_empty() {
            return Err(AnoleError::InsufficientData {
                stage: "scene-distance scorer",
                detail: "no calibration frames".into(),
            });
        }
        let (means, counts) = system.scene_model().class_centroids(dataset, refs)?;
        let kept: Vec<usize> = (0..counts.len()).filter(|&c| counts[c] > 0).collect();
        Ok(Self {
            centroids: means.select_rows(&kept),
        })
    }

    /// Distance of each row of `emb` to its nearest centroid.
    fn nearest_distances(&self, emb: &Matrix) -> Vec<f32> {
        (0..emb.rows())
            .map(|i| {
                (0..self.centroids.rows())
                    .map(|c| anole_tensor::l2_distance(emb.row(i), self.centroids.row(c)))
                    .fold(f32::INFINITY, f32::min)
            })
            .collect()
    }

    /// Distance of one frame's embedding to its nearest centroid.
    ///
    /// # Errors
    ///
    /// Surfaces inference errors from the scene model.
    pub fn score(&self, system: &AnoleSystem, features: &[f32]) -> Result<f32, AnoleError> {
        let emb = system.scene_model().embed(&Matrix::row_vector(features))?;
        Ok(self.nearest_distances(&emb)[0])
    }

    /// The `quantile` of distances over a reference (validation) set — the
    /// ceiling above which a stream counts as drifting.
    ///
    /// # Errors
    ///
    /// Surfaces inference errors.
    ///
    /// # Panics
    ///
    /// Panics if `refs` is empty or `quantile` is outside `(0, 1)`.
    pub fn ceiling(
        &self,
        system: &AnoleSystem,
        dataset: &DrivingDataset,
        refs: &[FrameRef],
        quantile: f32,
    ) -> Result<f32, AnoleError> {
        assert!(!refs.is_empty(), "reference set is empty");
        assert!(quantile > 0.0 && quantile < 1.0, "quantile must be in (0,1)");
        // One batched embedding pass instead of a row-vector forward per
        // frame; each row matches the per-frame path bit-for-bit.
        let x = dataset.features_matrix(refs);
        let emb = system.scene_model().embed(&x)?;
        let mut distances = self.nearest_distances(&emb);
        distances.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        Ok(distances[((distances.len() - 1) as f32 * quantile) as usize])
    }

    /// Adds a centroid for newly covered footage (after a repository
    /// expansion the scene is no longer out-of-distribution and must stop
    /// being flagged).
    ///
    /// # Errors
    ///
    /// Surfaces inference errors; fails with
    /// [`AnoleError::InsufficientData`] when `frames` is empty.
    pub fn add_centroid(
        &mut self,
        system: &AnoleSystem,
        frames: &[anole_data::Frame],
    ) -> Result<(), AnoleError> {
        if frames.is_empty() {
            return Err(AnoleError::InsufficientData {
                stage: "scene-distance scorer",
                detail: "no frames for the new centroid".into(),
            });
        }
        // One batched embedding pass; each row matches the per-frame
        // forward bit-for-bit.
        let rows: Vec<&[f32]> = frames.iter().map(|f| f.features.as_slice()).collect();
        let x = Matrix::from_rows(&rows).map_err(anole_nn::NnError::from)?;
        let emb = system.scene_model().embed(&x)?;
        let (centroid, _) = class_means(&emb, &vec![Some(0); emb.rows()], 1);
        self.centroids = Matrix::vstack(&[&self.centroids, &centroid]).expect("same width");
        Ok(())
    }

    /// Builds a [`DriftDetector`] over this scorer: internally the detector
    /// watches *negated* distances, so its below-floor rule flags
    /// above-ceiling distances. Feed it `-scorer.score(...)`, or use
    /// [`SceneDistanceScorer::observe_frame`].
    pub fn detector(&self, window: usize, ceiling: f32) -> DriftDetector {
        DriftDetector::new(window, -ceiling).with_signal(DriftSignal::SceneDistance)
    }

    /// Scores a frame and feeds the (negated) distance into `detector`.
    ///
    /// # Errors
    ///
    /// Surfaces inference errors.
    pub fn observe_frame(
        &self,
        detector: &mut DriftDetector,
        system: &AnoleSystem,
        features: &[f32],
    ) -> Result<DriftState, AnoleError> {
        let distance = self.score(system, features)?;
        detector.observe(-distance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnoleConfig;
    use anole_data::{
        ClipId, DatasetConfig, DatasetSource, Location, SceneAttributes, TimeOfDay, Weather,
    };
    use anole_tensor::Seed;

    #[test]
    fn nominal_until_window_fills() {
        let mut d = DriftDetector::new(3, 0.5);
        assert_eq!(d.observe(0.1).unwrap(), DriftState::Nominal);
        assert_eq!(d.observe(0.1).unwrap(), DriftState::Nominal);
        assert_eq!(d.observe(0.1).unwrap(), DriftState::Drifting);
        assert_eq!(d.events().len(), 1);
        assert_eq!(d.events()[0].frame, 2);
        assert_eq!(d.events()[0].signal, DriftSignal::Confidence);
    }

    #[test]
    fn recovers_when_confidence_returns() {
        let mut d = DriftDetector::new(2, 0.5);
        d.observe(0.1).unwrap();
        d.observe(0.1).unwrap();
        assert_eq!(d.state(), DriftState::Drifting);
        d.observe(0.9).unwrap();
        d.observe(0.9).unwrap();
        assert_eq!(d.state(), DriftState::Nominal);
        d.reset();
        assert_eq!(d.state(), DriftState::Nominal);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = DriftDetector::new(0, 0.5);
    }

    #[test]
    fn window_of_one_tracks_instantaneous_signal() {
        let mut d = DriftDetector::new(1, 0.5);
        assert_eq!(d.observe(0.9).unwrap(), DriftState::Nominal);
        assert_eq!(d.observe(0.1).unwrap(), DriftState::Drifting);
        assert_eq!(d.observe(0.9).unwrap(), DriftState::Nominal);
        assert_eq!(d.events().len(), 1);
    }

    #[test]
    fn non_finite_inputs_are_rejected_without_polluting_the_window() {
        let mut d = DriftDetector::new(2, 0.5);
        d.observe(0.9).unwrap();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = d.observe(bad).unwrap_err();
            assert!(matches!(err, AnoleError::InvalidFrame { .. }), "{bad} accepted");
        }
        // The window holds only the one valid observation: a second valid
        // low value cannot yet fill the window with a drifting mean.
        assert_eq!(d.observe(0.9).unwrap(), DriftState::Nominal);
        assert!(d.events().is_empty());
    }

    #[test]
    fn hysteresis_requires_consecutive_windows_to_enter_and_exit() {
        let mut d = DriftDetector::new(1, 0.5).with_hysteresis(3, 2);
        // Two below-floor windows: not yet latched.
        assert_eq!(d.observe(0.1).unwrap(), DriftState::Nominal);
        assert_eq!(d.observe(0.1).unwrap(), DriftState::Nominal);
        // Third consecutive: latch.
        assert_eq!(d.observe(0.1).unwrap(), DriftState::Drifting);
        // One good window is not enough to release.
        assert_eq!(d.observe(0.9).unwrap(), DriftState::Drifting);
        // Second consecutive good window releases.
        assert_eq!(d.observe(0.9).unwrap(), DriftState::Nominal);
        // A broken below-floor streak does not latch.
        d.observe(0.1).unwrap();
        d.observe(0.9).unwrap();
        d.observe(0.1).unwrap();
        d.observe(0.1).unwrap();
        assert_eq!(d.state(), DriftState::Nominal);
    }

    #[test]
    fn cooldown_suppresses_rapid_event_emission() {
        let mut d = DriftDetector::new(1, 0.5).with_cooldown(10);
        // First latch emits.
        d.observe(0.1).unwrap();
        assert_eq!(d.events().len(), 1);
        // Release and re-latch immediately: suppressed by cooldown.
        d.observe(0.9).unwrap();
        d.observe(0.1).unwrap();
        assert_eq!(d.events().len(), 1);
        // Far enough in the future, a new latch emits again.
        d.observe(0.9).unwrap();
        for _ in 0..10 {
            d.observe(0.9).unwrap();
        }
        d.observe(0.1).unwrap();
        assert_eq!(d.events().len(), 2);
    }

    #[test]
    fn embedding_scorer_separates_exotic_scenes() {
        let dataset =
            anole_data::DrivingDataset::generate(&DatasetConfig::small(), Seed(164));
        let system = crate::AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(165)).unwrap();
        let split = dataset.split();
        let scorer = SceneDistanceScorer::calibrate(&system, &dataset, &split.train).unwrap();
        let ceiling = scorer
            .ceiling(&system, &dataset, &split.val, 0.9)
            .unwrap();
        assert!(ceiling > 0.0);

        // Mean distance of an exotic stream must exceed the ceiling more
        // often than a seen test stream does.
        let exceed = |frames: &[anole_data::Frame]| {
            frames
                .iter()
                .filter(|f| scorer.score(&system, &f.features).unwrap() > ceiling)
                .count() as f32
                / frames.len() as f32
        };
        let seen: Vec<anole_data::Frame> = split
            .test
            .iter()
            .take(150)
            .map(|&r| dataset.frame(r).clone())
            .collect();
        let exotic_attrs =
            SceneAttributes::new(Weather::Foggy, Location::TollBooth, TimeOfDay::Night);
        let exotic = dataset.world().generate_clip(
            ClipId(8100),
            DatasetSource::Shd,
            exotic_attrs,
            150,
            1.0,
            Seed(166),
        );
        assert!(
            exceed(&exotic.frames) > 2.0 * exceed(&seen).max(0.01),
            "exotic {:.2} vs seen {:.2}",
            exceed(&exotic.frames),
            exceed(&seen)
        );

        // The detector wrapper fires on the exotic stream.
        let mut detector = scorer.detector(10, ceiling);
        assert_eq!(detector.events().len(), 0);
        let mut drift = 0;
        for f in &exotic.frames {
            if scorer.observe_frame(&mut detector, &system, &f.features).unwrap()
                == DriftState::Drifting
            {
                drift += 1;
            }
        }
        assert!(drift > 0, "embedding detector never fired on the exotic stream");
        assert!(!detector.events().is_empty());
        assert_eq!(detector.events()[0].signal, DriftSignal::SceneDistance);
    }

    #[test]
    fn calibrated_detector_flags_exotic_scenes_more_than_seen_ones() {
        let dataset =
            anole_data::DrivingDataset::generate(&DatasetConfig::small(), Seed(161));
        let system = crate::AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(162)).unwrap();
        let split = dataset.split();
        let mut detector =
            DriftDetector::calibrated(&system, &dataset, &split.val, 10, 0.1).unwrap();
        assert!(detector.floor() > 0.0);

        // Seen test stream: mostly nominal.
        let mut seen_drift = 0usize;
        for &r in split.test.iter().take(200) {
            if detector.observe_frame(&system, &dataset.frame(r).features).unwrap()
                == DriftState::Drifting
            {
                seen_drift += 1;
            }
        }

        // Exotic never-seen scene: drift should fire more often.
        detector.reset();
        let exotic = SceneAttributes::new(Weather::Snowy, Location::GasStation, TimeOfDay::Night);
        let clip = dataset.world().generate_clip(
            ClipId(8000),
            DatasetSource::Shd,
            exotic,
            200,
            1.0,
            Seed(163),
        );
        let mut exotic_drift = 0usize;
        for frame in &clip.frames {
            if detector.observe_frame(&system, &frame.features).unwrap() == DriftState::Drifting {
                exotic_drift += 1;
            }
        }
        assert!(
            exotic_drift > seen_drift,
            "exotic {exotic_drift} vs seen {seen_drift}"
        );
    }
}
