//! Fault injection and graceful degradation for the online engine.
//!
//! The paper's premise is a vehicle-mounted device that must keep producing
//! detections under hostile conditions — unstable uplinks, memory pressure,
//! fast scene change (§I, §VI-H). This module makes that robustness property
//! explicit and testable:
//!
//! * [`FaultPlan`] — a deterministic, seeded schedule of faults: per-frame
//!   Bernoulli rates (model-load failures, sensor dropouts, NaN-poisoned
//!   frames, decision-model anomalies) plus exactly-scheduled events
//!   (mid-stream memory pressure, bundle corruption).
//! * [`FaultInjector`] — the plan's runtime: one draw per frame, fully
//!   reproducible from the plan's seed and independent of the engine's own
//!   RNG, so a zero-fault plan leaves the engine bit-identical to an
//!   un-instrumented run.
//! * [`HealthState`] / [`HealthReport`] — the degradation ladder the engine
//!   walks (`Healthy → Degraded → Critical`) and the aggregate story of a
//!   run: fault counts, retries, excluded models, fallback depths.
//!
//! The engine-side behaviour (fallback chain, bounded load retries, permanent
//! exclusion) lives in [`crate::omi::OnlineEngine`]; see `docs/robustness.md`
//! for the full taxonomy.

use anole_tensor::{rng_from_seed, Seed, StdRng};

/// The engine's degradation ladder.
///
/// `Healthy` means the full Anole pipeline is serving frames. `Degraded`
/// means faults are being absorbed (retries, exclusions) but a real model
/// still serves every frame. `Critical` means the engine is surviving on the
/// pinned fallback model or on replayed last-good detections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Full pipeline, no recent faults.
    Healthy,
    /// Faults absorbed; a cached model still serves every frame.
    Degraded,
    /// Serving from the pinned fallback or last-good detections only.
    Critical,
}

impl HealthState {
    /// All states, mildest first.
    pub const ALL: [HealthState; 3] =
        [HealthState::Healthy, HealthState::Degraded, HealthState::Critical];

    /// Index into per-state counters (0 = healthy).
    pub fn index(self) -> usize {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Critical => 2,
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Critical => "critical",
        };
        f.write_str(name)
    }
}

/// How a scheduled or drawn model-load fault fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadFault {
    /// The load fails but retries may succeed (flaky I/O, transient OOM).
    Transient,
    /// The load fails deterministically (driver wedged, file unreadable).
    Permanent,
    /// The stored artifact fails its checksum — permanently unusable.
    Corruption,
}

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The next model load fails once; bounded retries may recover it.
    TransientLoadFailure,
    /// The next model load fails permanently; the model is excluded.
    PermanentLoadFailure,
    /// The next model's deployment artifact is checksum-corrupt; the model
    /// is excluded (the device cannot re-download mid-stream).
    BundleCorruption,
    /// The camera produced no usable frame this step.
    SensorDropout,
    /// The frame arrived NaN-poisoned (broken preprocessing, bit flips).
    NanFrame,
    /// Memory pressure: the model cache shrinks to this many slots.
    MemoryPressure {
        /// New slot count of the model cache.
        capacity: usize,
    },
    /// The decision model emits garbage suitability scores this frame.
    DecisionAnomaly,
    /// Server-side: the next checkpoint write fails with an I/O error (the
    /// stage result stays in memory; only resume coverage is lost). The
    /// event index counts checkpoint writes, not frames.
    CheckpointWriteFailure,
    /// Server-side: the next written or downloaded artifact is silently
    /// truncated/corrupted at rest; its checksum must catch it on load.
    /// The event index counts artifacts per context (checkpoint writes or
    /// download arrivals), not frames.
    TruncatedArtifact,
    /// Server-side: the device's download link dies mid-bundle; the session
    /// must reconnect with priced backoff and resume. The event index counts
    /// download chunks, not frames.
    LinkDeath,
    /// Server-side: a fleet device panics during its daily run. The event
    /// index counts device-attempt draws, not frames.
    DevicePanic,
    /// Server-side: the training process is killed right after the stage
    /// with this index completes (and its checkpoint is written). The event
    /// index is the OSP stage index (0 = scene model … 3 = decision model).
    TrainAbort,
    /// Gateway-side: a session's bounded frame queue overflows — the
    /// producer pushes despite backpressure and the oldest queued frame is
    /// force-dropped. The event index counts overflow draws (one per
    /// full-queue push attempt), not frames.
    QueueOverflow,
    /// Gateway-side: a session consumes its next frame slowly (thermal
    /// throttling, competing load); the frame's service time is multiplied
    /// by the gateway's slow factor. The event index counts consumer draws,
    /// not frames.
    SlowConsumer,
    /// Gateway-side: a session stalls and consumes nothing for a few
    /// scheduling windows (GC pause, watchdog reset). The event index counts
    /// stall draws, not frames.
    SessionStall,
    /// Gateway-side: the scheduler itself skips one scheduling window (the
    /// coordinator hiccups); queues age and deadlines keep running. The
    /// event index counts scheduling windows, not frames.
    SchedulerHiccup,
    /// Rollout-side: a device receives a stale bundle — the delivered
    /// manifest predates the candidate being rolled out (CDN lag, a
    /// half-propagated push) — and must be re-served from the last-good
    /// bundle. The event index counts bundle deliveries, not frames.
    StaleBundle,
    /// Rollout-side: the candidate bundle itself is silently regressed
    /// (bad re-profile data, a mis-trained specialist); the canary gate
    /// must catch it and roll the fleet back. The event index counts
    /// rollout candidates, not frames.
    RegressedUpdate,
    /// Server-side: the continual re-profiling run is killed right after
    /// the re-profile step with this index completes (and its checkpoint is
    /// written). The event index is the re-profile step index, mirroring
    /// [`FaultKind::TrainAbort`] for the incremental pipeline.
    ReprofileAbort,
}

/// How a server-side checkpoint write fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointFault {
    /// The write itself fails (I/O error); no file is produced.
    WriteFailure,
    /// The file is written but truncated — a corrupt artifact at rest.
    Truncated,
}

/// A fault pinned to a specific frame index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Frame index (0-based step count) at which the fault fires.
    pub frame: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, seeded fault schedule.
///
/// Rates are per-frame Bernoulli probabilities, clamped to `[0, 1]`;
/// scheduled events fire at exact frame indices. The same plan always
/// produces the same fault stream.
///
/// # Examples
///
/// ```
/// use anole_core::omi::{FaultKind, FaultPlan};
/// use anole_tensor::Seed;
///
/// let plan = FaultPlan::new(Seed(7))
///     .with_transient_load_rate(0.1)
///     .with_sensor_dropout_rate(0.02)
///     .at(120, FaultKind::MemoryPressure { capacity: 2 });
/// assert!(!plan.is_zero_fault());
/// let mut a = plan.clone().injector();
/// let mut b = plan.injector();
/// for frame in 0..200 {
///     assert_eq!(a.next_frame(), b.next_frame(), "frame {frame}");
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: Seed,
    transient_load_rate: f32,
    permanent_load_rate: f32,
    sensor_dropout_rate: f32,
    nan_frame_rate: f32,
    decision_anomaly_rate: f32,
    checkpoint_write_rate: f32,
    truncated_artifact_rate: f32,
    link_death_rate: f32,
    queue_overflow_rate: f32,
    slow_consumer_rate: f32,
    session_stall_rate: f32,
    scheduler_hiccup_rate: f32,
    scheduled: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with every rate zero and no scheduled events.
    pub fn new(seed: Seed) -> Self {
        Self {
            seed,
            transient_load_rate: 0.0,
            permanent_load_rate: 0.0,
            sensor_dropout_rate: 0.0,
            nan_frame_rate: 0.0,
            decision_anomaly_rate: 0.0,
            checkpoint_write_rate: 0.0,
            truncated_artifact_rate: 0.0,
            link_death_rate: 0.0,
            queue_overflow_rate: 0.0,
            slow_consumer_rate: 0.0,
            session_stall_rate: 0.0,
            scheduler_hiccup_rate: 0.0,
            scheduled: Vec::new(),
        }
    }

    /// Per-frame probability that a model load fails transiently.
    #[must_use]
    pub fn with_transient_load_rate(mut self, rate: f32) -> Self {
        self.transient_load_rate = clamp_rate(rate);
        self
    }

    /// Per-frame probability that a model load fails permanently.
    #[must_use]
    pub fn with_permanent_load_rate(mut self, rate: f32) -> Self {
        self.permanent_load_rate = clamp_rate(rate);
        self
    }

    /// Per-frame probability of a sensor dropout (no usable frame).
    #[must_use]
    pub fn with_sensor_dropout_rate(mut self, rate: f32) -> Self {
        self.sensor_dropout_rate = clamp_rate(rate);
        self
    }

    /// Per-frame probability of a NaN-poisoned frame.
    #[must_use]
    pub fn with_nan_frame_rate(mut self, rate: f32) -> Self {
        self.nan_frame_rate = clamp_rate(rate);
        self
    }

    /// Per-frame probability of a decision-model anomaly.
    #[must_use]
    pub fn with_decision_anomaly_rate(mut self, rate: f32) -> Self {
        self.decision_anomaly_rate = clamp_rate(rate);
        self
    }

    /// Per-write probability that a server-side checkpoint write fails.
    #[must_use]
    pub fn with_checkpoint_write_rate(mut self, rate: f32) -> Self {
        self.checkpoint_write_rate = clamp_rate(rate);
        self
    }

    /// Per-artifact probability that a written or downloaded artifact is
    /// silently truncated/corrupted.
    #[must_use]
    pub fn with_truncated_artifact_rate(mut self, rate: f32) -> Self {
        self.truncated_artifact_rate = clamp_rate(rate);
        self
    }

    /// Per-chunk probability that the download link dies mid-bundle.
    #[must_use]
    pub fn with_link_death_rate(mut self, rate: f32) -> Self {
        self.link_death_rate = clamp_rate(rate);
        self
    }

    /// Per-push probability that a full session queue overflows (the oldest
    /// queued frame is force-dropped instead of deferring the producer).
    #[must_use]
    pub fn with_queue_overflow_rate(mut self, rate: f32) -> Self {
        self.queue_overflow_rate = clamp_rate(rate);
        self
    }

    /// Per-draw probability that a session consumes its next frame slowly.
    #[must_use]
    pub fn with_slow_consumer_rate(mut self, rate: f32) -> Self {
        self.slow_consumer_rate = clamp_rate(rate);
        self
    }

    /// Per-draw probability that a session stalls for a few windows.
    #[must_use]
    pub fn with_session_stall_rate(mut self, rate: f32) -> Self {
        self.session_stall_rate = clamp_rate(rate);
        self
    }

    /// Per-window probability that the gateway scheduler skips a window.
    #[must_use]
    pub fn with_scheduler_hiccup_rate(mut self, rate: f32) -> Self {
        self.scheduler_hiccup_rate = clamp_rate(rate);
        self
    }

    /// Schedules `kind` at exact `frame`.
    ///
    /// For the server-side kinds the index counts occurrences of that
    /// category instead of frames: checkpoint writes
    /// ([`FaultKind::CheckpointWriteFailure`]), artifacts in the current
    /// context ([`FaultKind::TruncatedArtifact`]), download chunks
    /// ([`FaultKind::LinkDeath`]), device-attempt draws
    /// ([`FaultKind::DevicePanic`]), or OSP stage indices
    /// ([`FaultKind::TrainAbort`]).
    #[must_use]
    pub fn at(mut self, frame: usize, kind: FaultKind) -> Self {
        self.scheduled.push(FaultEvent { frame, kind });
        self
    }

    /// Whether this plan can never inject anything (all rates zero, no
    /// scheduled events). Such a plan leaves the engine bit-identical to an
    /// un-instrumented run.
    pub fn is_zero_fault(&self) -> bool {
        self.transient_load_rate == 0.0
            && self.permanent_load_rate == 0.0
            && self.sensor_dropout_rate == 0.0
            && self.nan_frame_rate == 0.0
            && self.decision_anomaly_rate == 0.0
            && self.checkpoint_write_rate == 0.0
            && self.truncated_artifact_rate == 0.0
            && self.link_death_rate == 0.0
            && self.queue_overflow_rate == 0.0
            && self.slow_consumer_rate == 0.0
            && self.session_stall_rate == 0.0
            && self.scheduler_hiccup_rate == 0.0
            && self.scheduled.is_empty()
    }

    /// Builds the runtime injector for this plan.
    pub fn injector(self) -> FaultInjector {
        let rng = rng_from_seed(self.seed);
        FaultInjector {
            plan: self,
            rng,
            frame: 0,
            checkpoint_writes: 0,
            artifacts: 0,
            chunks: 0,
            device_draws: 0,
            overflow_draws: 0,
            consumer_draws: 0,
            stall_draws: 0,
            window_draws: 0,
            delivery_draws: 0,
            candidate_draws: 0,
        }
    }
}

fn clamp_rate(rate: f32) -> f32 {
    if rate.is_nan() {
        0.0
    } else {
        rate.clamp(0.0, 1.0)
    }
}

/// The faults injected into one frame, pre-sorted by how the engine consumes
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameFaults {
    /// Cache shrink to this capacity, if a memory-pressure event fired.
    pub memory_pressure: Option<usize>,
    /// The camera produced nothing usable.
    pub sensor_dropout: bool,
    /// The frame is NaN-poisoned.
    pub nan_frame: bool,
    /// The decision model emits garbage this frame.
    pub decision_anomaly: bool,
    /// The next attempted model load fails this way.
    pub load_fault: Option<LoadFault>,
}

impl FrameFaults {
    /// Whether anything at all was injected.
    #[cfg(test)]
    fn any(&self) -> bool {
        self.memory_pressure.is_some()
            || self.sensor_dropout
            || self.nan_frame
            || self.decision_anomaly
            || self.load_fault.is_some()
    }

    /// Number of distinct faults injected this frame.
    pub fn count(&self) -> u32 {
        self.memory_pressure.is_some() as u32
            + self.sensor_dropout as u32
            + self.nan_frame as u32
            + self.decision_anomaly as u32
            + self.load_fault.is_some() as u32
    }
}

/// Runtime of a [`FaultPlan`]: owns its own RNG (never the engine's) and
/// advances one frame per [`FaultInjector::next_frame`] call.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    frame: usize,
    checkpoint_writes: usize,
    artifacts: usize,
    chunks: usize,
    device_draws: usize,
    overflow_draws: usize,
    consumer_draws: usize,
    stall_draws: usize,
    window_draws: usize,
    delivery_draws: usize,
    candidate_draws: usize,
}

impl FaultInjector {
    /// The plan this injector executes.
    #[cfg(test)]
    fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draws the faults for the next frame. Exactly five Bernoulli draws are
    /// consumed per call regardless of the rates, so scheduled events never
    /// shift the random stream.
    pub fn next_frame(&mut self) -> FrameFaults {
        let mut faults = FrameFaults::default();
        // Fixed draw order keeps the stream reproducible.
        let transient = self.rng.f32() < self.plan.transient_load_rate;
        let permanent = self.rng.f32() < self.plan.permanent_load_rate;
        faults.sensor_dropout = self.rng.f32() < self.plan.sensor_dropout_rate;
        faults.nan_frame = self.rng.f32() < self.plan.nan_frame_rate;
        faults.decision_anomaly = self.rng.f32() < self.plan.decision_anomaly_rate;
        if permanent {
            faults.load_fault = Some(LoadFault::Permanent);
        } else if transient {
            faults.load_fault = Some(LoadFault::Transient);
        }
        for event in &self.plan.scheduled {
            if event.frame != self.frame {
                continue;
            }
            match event.kind {
                FaultKind::TransientLoadFailure => {
                    faults.load_fault = Some(worse(faults.load_fault, LoadFault::Transient));
                }
                FaultKind::PermanentLoadFailure => {
                    faults.load_fault = Some(worse(faults.load_fault, LoadFault::Permanent));
                }
                FaultKind::BundleCorruption => {
                    faults.load_fault = Some(worse(faults.load_fault, LoadFault::Corruption));
                }
                FaultKind::SensorDropout => faults.sensor_dropout = true,
                FaultKind::NanFrame => faults.nan_frame = true,
                FaultKind::MemoryPressure { capacity } => {
                    faults.memory_pressure = Some(capacity);
                }
                FaultKind::DecisionAnomaly => faults.decision_anomaly = true,
                // Server-side kinds are drawn by their own category counters
                // (`next_checkpoint_write`, `artifact_arrives_corrupt`,
                // `link_dies`, `device_panics`, `train_abort_after`), never
                // by the per-frame stream.
                FaultKind::CheckpointWriteFailure
                | FaultKind::TruncatedArtifact
                | FaultKind::LinkDeath
                | FaultKind::DevicePanic
                | FaultKind::TrainAbort => {}
                // Gateway kinds likewise draw on their own counters
                // (`queue_overflows`, `consumer_slows`, `session_stalls`,
                // `scheduler_hiccups`).
                FaultKind::QueueOverflow
                | FaultKind::SlowConsumer
                | FaultKind::SessionStall
                | FaultKind::SchedulerHiccup => {}
                // Rollout kinds draw on their own counters too
                // (`bundle_is_stale`, `update_regresses`,
                // `reprofile_abort_after`).
                FaultKind::StaleBundle
                | FaultKind::RegressedUpdate
                | FaultKind::ReprofileAbort => {}
            }
        }
        self.frame += 1;
        faults
    }

    /// Draws the fate of the next checkpoint write. Two Bernoulli draws are
    /// consumed per call regardless of rates; scheduled
    /// [`FaultKind::CheckpointWriteFailure`] / [`FaultKind::TruncatedArtifact`]
    /// events fire when their index equals the number of writes drawn so
    /// far. A write failure dominates a truncation.
    pub fn next_checkpoint_write(&mut self) -> Option<CheckpointFault> {
        let write_fails = self.rng.f32() < self.plan.checkpoint_write_rate;
        let truncated = self.rng.f32() < self.plan.truncated_artifact_rate;
        let mut fault = if write_fails {
            Some(CheckpointFault::WriteFailure)
        } else if truncated {
            Some(CheckpointFault::Truncated)
        } else {
            None
        };
        for event in &self.plan.scheduled {
            if event.frame != self.checkpoint_writes {
                continue;
            }
            match event.kind {
                FaultKind::CheckpointWriteFailure => fault = Some(CheckpointFault::WriteFailure),
                FaultKind::TruncatedArtifact if fault != Some(CheckpointFault::WriteFailure) => {
                    fault = Some(CheckpointFault::Truncated);
                }
                _ => {}
            }
        }
        self.checkpoint_writes += 1;
        fault
    }

    /// Whether the next downloaded artifact arrives corrupt (fails its
    /// manifest checksum on the device). One draw per call; scheduled
    /// [`FaultKind::TruncatedArtifact`] events fire by arrival index.
    pub fn artifact_arrives_corrupt(&mut self) -> bool {
        let index = bump(&mut self.artifacts);
        self.draw(
            self.plan.truncated_artifact_rate,
            FaultKind::TruncatedArtifact,
            index,
        )
    }

    /// Whether the download link dies before the next chunk transfer. One
    /// draw per call; scheduled [`FaultKind::LinkDeath`] events fire by
    /// chunk index.
    pub fn link_dies(&mut self) -> bool {
        let index = bump(&mut self.chunks);
        self.draw(self.plan.link_death_rate, FaultKind::LinkDeath, index)
    }

    /// Whether the next fleet device attempt panics. Purely scheduled, like
    /// [`FaultInjector::bundle_is_stale`]: [`FaultKind::DevicePanic`] events
    /// fire by draw index (the supervisor draws once per device attempt in
    /// a fixed order) and no randomness is consumed.
    pub fn device_panics(&mut self) -> bool {
        let index = bump(&mut self.device_draws);
        self.scheduled_at(FaultKind::DevicePanic, index)
    }

    /// Whether a full session queue's next push overflows (the gateway
    /// force-drops the oldest frame instead of deferring the producer). One
    /// draw per call; scheduled [`FaultKind::QueueOverflow`] events fire by
    /// draw index.
    pub fn queue_overflows(&mut self) -> bool {
        let index = bump(&mut self.overflow_draws);
        self.draw(
            self.plan.queue_overflow_rate,
            FaultKind::QueueOverflow,
            index,
        )
    }

    /// Whether a session serves its next frame slowly. One draw per call;
    /// scheduled [`FaultKind::SlowConsumer`] events fire by draw index.
    pub fn consumer_slows(&mut self) -> bool {
        let index = bump(&mut self.consumer_draws);
        self.draw(self.plan.slow_consumer_rate, FaultKind::SlowConsumer, index)
    }

    /// Whether a session stalls (consumes nothing for a few windows). One
    /// draw per call; scheduled [`FaultKind::SessionStall`] events fire by
    /// draw index.
    pub fn session_stalls(&mut self) -> bool {
        let index = bump(&mut self.stall_draws);
        self.draw(self.plan.session_stall_rate, FaultKind::SessionStall, index)
    }

    /// Whether the gateway scheduler skips the next scheduling window. One
    /// draw per call; scheduled [`FaultKind::SchedulerHiccup`] events fire
    /// by window index.
    pub fn scheduler_hiccups(&mut self) -> bool {
        let index = bump(&mut self.window_draws);
        self.draw(
            self.plan.scheduler_hiccup_rate,
            FaultKind::SchedulerHiccup,
            index,
        )
    }

    /// Whether the next bundle delivery during a rollout is stale (the
    /// device got an outdated manifest and must be re-served last-good).
    /// Purely scheduled, like [`FaultInjector::reprofile_abort_after`]:
    /// [`FaultKind::StaleBundle`] events fire by delivery index and no
    /// randomness is consumed.
    pub fn bundle_is_stale(&mut self) -> bool {
        let index = bump(&mut self.delivery_draws);
        self.scheduled_at(FaultKind::StaleBundle, index)
    }

    /// Whether the next rollout candidate is silently regressed (the canary
    /// gate must detect and reject it). Purely scheduled:
    /// [`FaultKind::RegressedUpdate`] events fire by candidate index and no
    /// randomness is consumed.
    pub fn update_regresses(&mut self) -> bool {
        let index = bump(&mut self.candidate_draws);
        self.scheduled_at(FaultKind::RegressedUpdate, index)
    }

    /// Whether a [`FaultKind::ReprofileAbort`] is scheduled right after the
    /// re-profile step with this index. Purely scheduled — consumes no
    /// randomness — mirroring [`FaultInjector::train_abort_after`].
    pub fn reprofile_abort_after(&self, step_index: usize) -> bool {
        self.scheduled_at(FaultKind::ReprofileAbort, step_index)
    }

    /// Whether a [`FaultKind::TrainAbort`] is scheduled right after the OSP
    /// stage with this index. Purely scheduled — consumes no randomness —
    /// so checking it never shifts any other fault stream.
    pub fn train_abort_after(&self, stage_index: usize) -> bool {
        self.scheduled_at(FaultKind::TrainAbort, stage_index)
    }

    /// Whether one load retry also fails (drawn at the transient rate, so a
    /// flaky link keeps being flaky). Only called by the engine while a
    /// transient load fault is being retried — a zero-fault plan never
    /// reaches this.
    pub fn retry_fails(&mut self) -> bool {
        self.rng.f32() < self.plan.transient_load_rate
    }

    /// One Bernoulli draw at `rate`, or'd with a `kind` event the plan
    /// schedules at `index`, the call's position in its category.
    fn draw(&mut self, rate: f32, kind: FaultKind, index: usize) -> bool {
        let drawn = self.rng.f32() < rate;
        drawn || self.scheduled_at(kind, index)
    }

    /// Whether the plan schedules a `kind` event at `index`.
    fn scheduled_at(&self, kind: FaultKind, index: usize) -> bool {
        self.plan
            .scheduled
            .iter()
            .any(|e| e.frame == index && e.kind == kind)
    }
}

/// Returns `*counter`, then increments it.
fn bump(counter: &mut usize) -> usize {
    *counter += 1;
    *counter - 1
}

fn worse(current: Option<LoadFault>, incoming: LoadFault) -> LoadFault {
    match current {
        None | Some(LoadFault::Transient) => incoming,
        Some(existing) => existing,
    }
}

/// Per-kind fault counters accumulated by the engine (applied faults, not
/// drawn-and-ignored ones).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transient load failures absorbed.
    pub transient_load: usize,
    /// Permanent load failures absorbed.
    pub permanent_load: usize,
    /// Corrupt bundle artifacts detected.
    pub bundle_corruption: usize,
    /// Sensor dropouts absorbed.
    pub sensor_dropout: usize,
    /// NaN-poisoned frames absorbed.
    pub nan_frames: usize,
    /// Memory-pressure events absorbed.
    pub memory_pressure: usize,
    /// Decision-model anomalies absorbed.
    pub decision_anomaly: usize,
}

impl FaultCounts {
    /// Total faults absorbed.
    pub fn total(&self) -> usize {
        self.transient_load
            + self.permanent_load
            + self.bundle_corruption
            + self.sensor_dropout
            + self.nan_frames
            + self.memory_pressure
            + self.decision_anomaly
    }
}

/// Aggregate health story of an online run.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Health state after the last step.
    pub state: HealthState,
    /// Steps taken.
    pub frames: usize,
    /// Steps spent in each state (`HealthState::index` order).
    pub frames_by_state: [usize; 3],
    /// Faults absorbed, by kind.
    pub faults: FaultCounts,
    /// Load retries performed.
    pub retries: usize,
    /// Whole-frame load failures (every bounded retry exhausted).
    pub load_strikes: usize,
    /// Models permanently excluded from selection.
    pub excluded_models: Vec<usize>,
    /// Frames served at each fallback depth: 0 = requested model,
    /// 1 = best cached model, 2 = pinned fallback model, 3 = last-good
    /// detections.
    pub fallback_depths: [usize; 4],
    /// Model ids evicted by mid-stream memory pressure, in eviction order.
    pub pressure_evicted: Vec<usize>,
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} after {} frames ({} degraded, {} critical); {} faults, {} retries, {} excluded",
            self.state,
            self.frames,
            self.frames_by_state[1],
            self.frames_by_state[2],
            self.faults.total(),
            self.retries,
            self.excluded_models.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fault_plan_injects_nothing() {
        let mut injector = FaultPlan::new(Seed(1)).injector();
        for _ in 0..500 {
            let faults = injector.next_frame();
            assert!(!faults.any());
            assert_eq!(faults.count(), 0);
        }
        assert!(injector.plan().is_zero_fault());
        assert_eq!(injector.frame, 500);
    }

    #[test]
    fn same_plan_same_stream() {
        let plan = FaultPlan::new(Seed(42))
            .with_transient_load_rate(0.3)
            .with_sensor_dropout_rate(0.1)
            .with_nan_frame_rate(0.05)
            .with_decision_anomaly_rate(0.05)
            .at(17, FaultKind::MemoryPressure { capacity: 1 });
        let mut a = plan.clone().injector();
        let mut b = plan.injector();
        for frame in 0..300 {
            assert_eq!(a.next_frame(), b.next_frame(), "diverged at frame {frame}");
        }
    }

    #[test]
    fn rates_produce_roughly_proportional_faults() {
        let mut injector = FaultPlan::new(Seed(7))
            .with_sensor_dropout_rate(0.2)
            .injector();
        let n = 2000;
        let hits = (0..n).filter(|_| injector.next_frame().sensor_dropout).count();
        let rate = hits as f32 / n as f32;
        assert!((rate - 0.2).abs() < 0.04, "observed rate {rate}");
    }

    #[test]
    fn scheduled_events_fire_exactly_once() {
        let mut injector = FaultPlan::new(Seed(9))
            .at(3, FaultKind::MemoryPressure { capacity: 2 })
            .at(5, FaultKind::BundleCorruption)
            .at(5, FaultKind::SensorDropout)
            .injector();
        for frame in 0..10 {
            let faults = injector.next_frame();
            match frame {
                3 => assert_eq!(faults.memory_pressure, Some(2)),
                5 => {
                    assert_eq!(faults.load_fault, Some(LoadFault::Corruption));
                    assert!(faults.sensor_dropout);
                    assert_eq!(faults.count(), 2);
                }
                _ => assert!(!faults.any(), "unexpected fault at frame {frame}"),
            }
        }
    }

    #[test]
    fn permanent_faults_dominate_transient() {
        assert_eq!(worse(Some(LoadFault::Transient), LoadFault::Corruption), LoadFault::Corruption);
        assert_eq!(worse(Some(LoadFault::Permanent), LoadFault::Transient), LoadFault::Permanent);
        assert_eq!(worse(None, LoadFault::Transient), LoadFault::Transient);
    }

    #[test]
    fn rates_are_clamped() {
        let plan = FaultPlan::new(Seed(1))
            .with_transient_load_rate(7.0)
            .with_nan_frame_rate(-3.0)
            .with_sensor_dropout_rate(f32::NAN);
        assert_eq!(plan.transient_load_rate, 1.0);
        assert_eq!(plan.nan_frame_rate, 0.0);
        assert_eq!(plan.sensor_dropout_rate, 0.0);
        // A saturated transient rate fires every frame.
        let mut injector = plan.injector();
        assert_eq!(injector.next_frame().load_fault, Some(LoadFault::Transient));
    }

    #[test]
    fn server_side_categories_use_independent_counters() {
        let plan = FaultPlan::new(Seed(11))
            .at(0, FaultKind::CheckpointWriteFailure)
            .at(1, FaultKind::TruncatedArtifact)
            .at(2, FaultKind::LinkDeath)
            .at(0, FaultKind::DevicePanic)
            .at(3, FaultKind::TrainAbort);
        assert!(!plan.is_zero_fault());
        let mut injector = plan.injector();
        // Checkpoint writes: failure at write 0, truncation at write 1.
        assert_eq!(injector.next_checkpoint_write(), Some(CheckpointFault::WriteFailure));
        assert_eq!(injector.next_checkpoint_write(), Some(CheckpointFault::Truncated));
        assert_eq!(injector.next_checkpoint_write(), None);
        // Download arrivals share the TruncatedArtifact kind on their own
        // counter: arrival 1 is corrupt, others clean.
        assert!(!injector.artifact_arrives_corrupt());
        assert!(injector.artifact_arrives_corrupt());
        assert!(!injector.artifact_arrives_corrupt());
        // Chunks: death only at chunk 2.
        assert!(!injector.link_dies());
        assert!(!injector.link_dies());
        assert!(injector.link_dies());
        // Devices: panic only on draw 0.
        assert!(injector.device_panics());
        assert!(!injector.device_panics());
        // Stage aborts consult the schedule without consuming randomness.
        assert!(injector.train_abort_after(3));
        assert!(!injector.train_abort_after(1));
        // The per-frame stream is untouched by server-side schedules.
        for frame in 0..6 {
            assert!(!injector.next_frame().any(), "frame {frame}");
        }
    }

    #[test]
    fn gateway_categories_use_independent_counters() {
        let plan = FaultPlan::new(Seed(14))
            .at(1, FaultKind::QueueOverflow)
            .at(0, FaultKind::SlowConsumer)
            .at(2, FaultKind::SessionStall)
            .at(1, FaultKind::SchedulerHiccup);
        assert!(!plan.is_zero_fault());
        let mut injector = plan.injector();
        // Each category draws on its own index stream.
        assert!(!injector.queue_overflows());
        assert!(injector.queue_overflows());
        assert!(injector.consumer_slows());
        assert!(!injector.consumer_slows());
        assert!(!injector.session_stalls());
        assert!(!injector.session_stalls());
        assert!(injector.session_stalls());
        assert!(!injector.scheduler_hiccups());
        assert!(injector.scheduler_hiccups());
        // The per-frame stream is untouched by gateway schedules.
        for frame in 0..6 {
            assert!(!injector.next_frame().any(), "frame {frame}");
        }
    }

    #[test]
    fn gateway_rates_draw_proportionally() {
        let mut injector = FaultPlan::new(Seed(15))
            .with_queue_overflow_rate(0.3)
            .with_scheduler_hiccup_rate(0.1)
            .injector();
        assert!(!injector.plan().is_zero_fault());
        let n = 2000;
        let overflows = (0..n).filter(|_| injector.queue_overflows()).count();
        let rate = overflows as f32 / n as f32;
        assert!((rate - 0.3).abs() < 0.05, "observed {rate}");
        let hiccups = (0..n).filter(|_| injector.scheduler_hiccups()).count();
        let rate = hiccups as f32 / n as f32;
        assert!((rate - 0.1).abs() < 0.04, "observed {rate}");
    }

    #[test]
    fn rollout_categories_use_independent_counters() {
        let plan = FaultPlan::new(Seed(16))
            .at(1, FaultKind::StaleBundle)
            .at(0, FaultKind::RegressedUpdate)
            .at(2, FaultKind::ReprofileAbort);
        assert!(!plan.is_zero_fault());
        let mut injector = plan.injector();
        // Deliveries: stale only at delivery 1.
        assert!(!injector.bundle_is_stale());
        assert!(injector.bundle_is_stale());
        assert!(!injector.bundle_is_stale());
        // Candidates: regression only on candidate 0.
        assert!(injector.update_regresses());
        assert!(!injector.update_regresses());
        // Re-profile aborts consult the schedule without consuming
        // randomness.
        assert!(injector.reprofile_abort_after(2));
        assert!(!injector.reprofile_abort_after(0));
        // The per-frame stream is untouched by rollout schedules.
        for frame in 0..6 {
            assert!(!injector.next_frame().any(), "frame {frame}");
        }
    }

    #[test]
    fn scheduled_write_failure_dominates_truncation() {
        let mut injector = FaultPlan::new(Seed(12))
            .at(0, FaultKind::TruncatedArtifact)
            .at(0, FaultKind::CheckpointWriteFailure)
            .injector();
        assert_eq!(injector.next_checkpoint_write(), Some(CheckpointFault::WriteFailure));
    }

    #[test]
    fn server_side_rates_draw_proportionally() {
        let mut injector = FaultPlan::new(Seed(13))
            .with_link_death_rate(0.25)
            .injector();
        let n = 2000;
        let deaths = (0..n).filter(|_| injector.link_dies()).count();
        let rate = deaths as f32 / n as f32;
        assert!((rate - 0.25).abs() < 0.05, "observed {rate}");
        assert!(!injector.plan().is_zero_fault());
    }

    #[test]
    fn health_state_index_and_display() {
        for (i, s) in HealthState::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(HealthState::Critical.to_string(), "critical");
    }

    #[test]
    fn report_summarizes() {
        let report = HealthReport {
            state: HealthState::Degraded,
            frames: 10,
            frames_by_state: [6, 3, 1],
            faults: FaultCounts { sensor_dropout: 2, ..FaultCounts::default() },
            retries: 1,
            load_strikes: 0,
            excluded_models: vec![4],
            fallback_depths: [7, 1, 1, 1],
            pressure_evicted: Vec::new(),
        };
        let text = report.to_string();
        assert!(text.contains("degraded after 10 frames"));
        assert!(text.contains("2 faults"));
    }
}
