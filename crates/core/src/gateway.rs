//! Fleet serving gateway: N devices multiplexed as long-lived sessions.
//!
//! In a serving fleet frames arrive on a cadence, devices fall behind,
//! queues fill, models fail to load in bursts, and one slow or crashing
//! session must never take the others with it. The [`Gateway`] models that
//! regime as a message-queue-driven scheduler (the fleet lifecycle,
//! [`run_fleet`](crate::lifecycle::run_fleet), serves each day through it):
//!
//! * every admitted session owns a **bounded frame queue** of four frames;
//!   when it fills, the producer receives explicit backpressure and pauses (a
//!   [`FaultKind::QueueOverflow`] injection forces the lossy alternative —
//!   the oldest frame is dropped);
//! * each session walks the state machine `Admitted → Active → Draining →
//!   {Completed, Shed, Quarantined}` — every admitted session reaches a
//!   terminal state, enforced structurally by a window watchdog that
//!   force-sheds what is still live after `max(4096, 64 × longest
//!   session)` windows;
//! * frames carry a **deadline budget**: a frame still queued past it is
//!   shed (served from last-good detections via the health ladder) instead
//!   of stalling the fleet, and a session that sheds too many consecutive
//!   frames is itself shed;
//! * the scheduler stacks every frame offered within one **scheduling
//!   window**, from however many sessions, into a single cross-device
//!   batched `M_decision` forward and hands each engine its row
//!   ([`OnlineEngine::step_with_scores`]); per-row the batched forward is
//!   bit-identical to the engine's own scoring, so batching is purely a
//!   throughput optimization, and a frame with non-finite features fails
//!   its own session only, as it would alone;
//! * admission past the high-water mark is a typed
//!   [`AnoleError::SessionRejected`], never a panic;
//! * repeated model-load failures (six, fleet-wide) trip a **circuit
//!   breaker**: all engines ride their fallback chains with loads
//!   suppressed until, after a 500 ms cooldown, a priced half-open probe
//!   on one session succeeds;
//! * every frame dispatch runs under `catch_unwind`, so a panicking session
//!   (injected via [`SessionSpec::inject_panic`] or real) is quarantined
//!   while the rest of the fleet keeps serving;
//! * every session steps on the gateway's one step scratch (inference
//!   workspace, staged row, executed models, fused map), which the batched
//!   decision forward runs on too, so a session holds only what a later
//!   frame of its own reads.
//!
//! The scheduler runs on **virtual time** (simulated milliseconds): the run
//! is deterministic, wall-clock-free, and byte-identical with the
//! observability feature on or off.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use anole_data::Frame;
use anole_detect::DetectionCounts;
use anole_device::DeviceKind;
use anole_obs::{
    AlertSeverity, CounterSample, FixedHistogram, HistogramSample, MetricsSnapshot, SeriesRecorder,
    SloAlert, SloEngine, SloSpec,
};
use anole_tensor::Seed;

use crate::omi::{
    DriftDetector, DriftState, FaultInjector, FaultKind, FaultPlan, FlightRecord, OnlineEngine,
    StepOutcome, StepScratch,
};
use crate::{AnoleError, AnoleSystem};

/// Virtual milliseconds between consecutive frames of one session's
/// producer (its camera cadence).
const FRAME_INTERVAL_MS: f64 = 33.0;

/// Scheduling-window length in virtual milliseconds: frames ready within one
/// window are stacked into one batched decision forward.
const WINDOW_MS: f64 = 33.0;

/// How long an injected [`FaultKind::SessionStall`] parks the session: three
/// scheduling windows.
const STALL_MS: f64 = 3.0 * WINDOW_MS;

/// Device model every session's engine simulates.
const DEVICE: DeviceKind = DeviceKind::JetsonTx2Nx;

/// Queue-depth histogram buckets (frames waiting per session).
const QUEUE_DEPTH_BOUNDS: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// Bounded per-session frame queue capacity. A full queue signals
/// backpressure to the producer (or drops the oldest frame under an
/// injected [`FaultKind::QueueOverflow`]).
const QUEUE_CAPACITY: usize = 4;

/// Model-load failures (fleet-wide, while the breaker is closed) that trip
/// the circuit breaker.
const BREAKER_THRESHOLD: usize = 6;

/// Virtual milliseconds the breaker stays open before a half-open probe.
const BREAKER_COOLDOWN_MS: f64 = 500.0;

/// The window watchdog's floor: a run is never cut before this many
/// scheduling windows.
const MIN_WATCHDOG_WINDOWS: usize = 4096;

/// Per-frame callback invoked after each successfully processed frame (in
/// the same `catch_unwind` scope as the step itself). The fleet lifecycle
/// uses it for drift scoring and footage collection.
pub type FrameHandler<'a> = Box<dyn FnMut(&Frame, &StepOutcome) -> Result<(), AnoleError> + 'a>;

/// Configuration of a [`Gateway`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayConfig {
    /// High-water mark: sessions admitted and not yet terminal. Admission
    /// past it returns [`AnoleError::SessionRejected`].
    pub max_sessions: usize,
    /// Per-frame deadline budget in virtual milliseconds, measured from the
    /// frame's nominal arrival. Queued frames past it are shed.
    /// `f64::INFINITY` disables shedding.
    pub deadline_ms: f64,
    /// Consecutive shed frames after which the whole session is shed.
    /// `usize::MAX` disables session shedding.
    pub shed_session_after: usize,
    /// Latency multiplier applied to a frame hit by an injected
    /// [`FaultKind::SlowConsumer`].
    pub slow_factor: f64,
    /// Per-session flight-recorder depth: every admitted engine keeps a
    /// bounded ring of its last N wide events (one compact
    /// [`FlightFrame`](crate::omi::FlightFrame) per frame), dumped into the
    /// session's report when it goes `Quarantined`/`Shed` or its drift
    /// detector latches. `0` (the default) disables recording.
    pub flight_recorder_frames: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            max_sessions: 4096,
            deadline_ms: 100.0,
            shed_session_after: 8,
            slow_factor: 4.0,
            flight_recorder_frames: 0,
        }
    }
}

impl GatewayConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`AnoleError::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), AnoleError> {
        fn bad(what: &'static str, detail: String) -> Result<(), AnoleError> {
            Err(AnoleError::InvalidConfig { what, detail })
        }
        if self.max_sessions == 0 {
            return bad("max_sessions", "the gateway must admit at least one session".into());
        }
        if self.deadline_ms.is_nan() || self.deadline_ms <= 0.0 {
            return bad(
                "deadline_ms",
                format!("{} is not a positive budget (use INFINITY to disable)", self.deadline_ms),
            );
        }
        if self.shed_session_after == 0 {
            return bad("shed_session_after", "shedding a session needs at least one miss".into());
        }
        if !(self.slow_factor.is_finite() && self.slow_factor >= 1.0) {
            return bad(
                "slow_factor",
                format!("{} would speed the consumer up", self.slow_factor),
            );
        }
        Ok(())
    }
}

/// Everything the gateway needs to admit one session.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The frames this session's producer will offer, in order.
    pub frames: Vec<Frame>,
    /// Seed of the session's engine.
    pub seed: Seed,
    /// Pinned fallback model for the engine, if any.
    pub pinned: Option<usize>,
    /// Pre-load the whole repository into the session's cache at admission.
    pub warm: bool,
    /// Per-session engine fault plan (device-level faults: load failures,
    /// sensor dropouts, …). Gateway-level faults come from
    /// [`Gateway::with_fault_plan`] instead.
    pub fault_plan: Option<FaultPlan>,
    /// Panic on this session's first frame dispatch — the chaos hook for
    /// the quarantine path.
    pub inject_panic: bool,
    /// Per-session drift detector, fed the decision confidence of every
    /// processed frame. `None` (the default) keeps the session's behaviour
    /// and report bit-identical to a drift-unaware gateway.
    pub drift: Option<DriftDetector>,
}

impl SessionSpec {
    /// A plain session: warm cache, no pinned fallback, no faults.
    pub fn new(frames: Vec<Frame>, seed: Seed) -> Self {
        Self {
            frames,
            seed,
            pinned: None,
            warm: true,
            fault_plan: None,
            inject_panic: false,
            drift: None,
        }
    }

    /// Attaches a calibrated per-session drift detector (see
    /// [`SessionSpec::drift`]).
    #[must_use]
    pub fn with_drift_detector(mut self, detector: DriftDetector) -> Self {
        self.drift = Some(detector);
        self
    }
}

/// Lifecycle state of one gateway session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Admitted but no frame offered yet.
    Admitted,
    /// Producing and consuming frames.
    Active,
    /// Producer exhausted; queued frames still draining.
    Draining,
    /// Terminal: every offered frame was processed or shed frame-by-frame.
    Completed,
    /// Terminal: the session was dropped by load shedding (or the window
    /// watchdog) with frames still outstanding.
    Shed,
    /// Terminal: the session panicked or returned a typed engine error and
    /// was isolated from the fleet.
    Quarantined,
}

impl SessionState {
    /// Whether this state ends the session.
    pub fn is_terminal(self) -> bool {
        matches!(self, SessionState::Completed | SessionState::Shed | SessionState::Quarantined)
    }
}

/// Why a session (or fleet device) was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The session panicked during a frame dispatch.
    Panicked,
    /// The session's engine (or frame handler) returned a typed error.
    EngineError,
    /// A fleet device kept panicking through its bounded retries.
    RetriesExhausted {
        /// Total attempts made (initial + retries).
        attempts: usize,
    },
}

/// One quarantined session, with enough context to debug it offline.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// Gateway session id (device index for fleet runs).
    pub session: usize,
    /// Why it was quarantined.
    pub reason: QuarantineReason,
    /// First gateway-level fault injected into this session before it died,
    /// if any — the leading suspect.
    pub first_fault: Option<FaultKind>,
    /// Human-readable detail (panic note or error display).
    pub detail: String,
    /// Flight-recorder dump: the last frames this session served before it
    /// died, captured when the gateway armed per-session recorders
    /// ([`GatewayConfig::flight_recorder_frames`] > 0). `None` otherwise.
    pub flight: Option<FlightRecord>,
}

/// Circuit-breaker state over model loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Loads flow normally; failures accumulate toward the threshold.
    Closed,
    /// Loads are suppressed fleet-wide; engines ride their fallback chains.
    Open,
    /// One probe session has loads re-enabled; its next load decides.
    HalfOpen,
}

/// Per-session slice of a [`GatewayReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Session id, in admission order.
    pub id: usize,
    /// Terminal state the session reached.
    pub state: SessionState,
    /// Frames the spec carried.
    pub frames_total: usize,
    /// Frames fully processed by the engine.
    pub processed: usize,
    /// Frames shed past their deadline (served from last-good replay).
    pub shed_frames: usize,
    /// Frames dropped without service: queue-overflow losses plus frames
    /// discarded when the session went terminal early.
    pub dropped_frames: usize,
    /// Times the producer was paused by a full queue.
    pub backpressure_signals: usize,
    /// Deepest the session's queue ever got.
    pub peak_queue_depth: usize,
    /// Detection outcomes over processed + shed frames.
    pub counts: DetectionCounts,
    /// F1 over `counts`.
    pub f1: f32,
    /// Quarantine reason, when `state` is [`SessionState::Quarantined`].
    pub quarantine: Option<QuarantineReason>,
    /// Drift episodes (nominal→drifting transitions past hysteresis and
    /// cooldown) emitted by the session's detector; 0 without one.
    pub drift_events: usize,
    /// Drift latch of the session's detector when it went terminal;
    /// `Nominal` without a detector.
    pub drift_state: DriftState,
    /// Flight-recorder dump for sessions that ended badly (`Quarantined`,
    /// `Shed`, or drift latched away from `Nominal`), when the gateway
    /// armed recorders. Healthy sessions and unarmed runs carry `None`.
    pub flight: Option<FlightRecord>,
}

/// Deterministic summary of one gateway run. Contains no wall-clock data:
/// two runs with the same sessions, config, and fault plan are equal.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayReport {
    /// One entry per admitted session, in admission order.
    pub sessions: Vec<SessionReport>,
    /// Sessions admitted.
    pub admitted: usize,
    /// Admissions refused at the high-water mark.
    pub rejected: usize,
    /// Sessions that completed cleanly.
    pub completed: usize,
    /// Sessions shed (load shedding or watchdog).
    pub shed_sessions: usize,
    /// Quarantined sessions, in the order they died.
    pub quarantined: Vec<QuarantineRecord>,
    /// Frames offered by all producers.
    pub frames_offered: usize,
    /// Frames fully processed.
    pub frames_processed: usize,
    /// Frames shed past deadline.
    pub frames_shed: usize,
    /// Frames dropped without service.
    pub frames_dropped: usize,
    /// Decision forwards that stacked two or more frames.
    pub batched_calls: usize,
    /// Frames scored in those stacked forwards.
    pub batched_frames: usize,
    /// Decision forwards over a window's only frame.
    pub single_calls: usize,
    /// Scheduling windows executed.
    pub windows: usize,
    /// Windows skipped by injected scheduler hiccups.
    pub hiccups: usize,
    /// Injected session stalls.
    pub stalls: usize,
    /// Frames slowed by injected slow-consumer faults.
    pub slow_frames: usize,
    /// Frames dropped by injected queue overflows.
    pub overflows: usize,
    /// Producer pauses under backpressure.
    pub backpressure_signals: usize,
    /// Times the load circuit breaker tripped open.
    pub breaker_trips: usize,
    /// Half-open probes issued.
    pub breaker_probes: usize,
    /// Breaker state when the run ended.
    pub breaker_state: BreakerState,
    /// Sessions force-shed by the window watchdog.
    pub watchdog_shed: usize,
    /// Deepest any session queue ever got.
    pub peak_queue_depth: usize,
    /// Models evicted by mid-stream memory pressure across all engines.
    pub pressure_evictions: u64,
    /// Median end-to-end step latency (arrival → completion, virtual ms).
    pub step_latency_p50_ms: f64,
    /// 95th-percentile step latency (virtual ms).
    pub step_latency_p95_ms: f64,
    /// 99th-percentile step latency (virtual ms).
    pub step_latency_p99_ms: f64,
    /// Virtual time the run took.
    pub sim_duration_ms: f64,
    /// Burn-rate alerts fired by the SLO engine over the run, in firing
    /// order (empty unless [`Gateway::with_slos`] armed it).
    pub slo_violations: Vec<SloAlert>,
}

impl GatewayReport {
    /// Admitted sessions that did **not** reach a terminal state. The
    /// scheduler guarantees zero structurally (the watchdog force-sheds
    /// stragglers); chaos tests assert it anyway.
    pub fn lost_sessions(&self) -> usize {
        self.sessions.iter().filter(|s| !s.state.is_terminal()).count()
    }

    /// Fleet-wide detection counts (all sessions merged).
    fn fleet_counts(&self) -> DetectionCounts {
        let mut total = DetectionCounts::default();
        for s in &self.sessions {
            total.merge(&s.counts);
        }
        total
    }

    /// Fleet-wide F1 over every session's merged detection counts.
    pub fn fleet_f1(&self) -> f32 {
        self.fleet_counts().f1()
    }
}

/// One admitted session and its scheduling bookkeeping.
struct Session<'a> {
    id: usize,
    state: SessionState,
    engine: OnlineEngine<'a>,
    frames: Vec<Frame>,
    /// Next frame index the producer will offer.
    next_frame: usize,
    /// Queued frames: (frame index, nominal arrival in virtual ms).
    queue: VecDeque<(usize, f64)>,
    /// Nominal arrival of the next produced frame (advances by the frame
    /// interval per frame, independent of backpressure pauses — a paused
    /// frame ages against its deadline).
    next_arrival_ms: f64,
    busy_until_ms: f64,
    stalled_until_ms: f64,
    inject_panic: bool,
    handler: Option<FrameHandler<'a>>,
    drift: Option<DriftDetector>,
    counts: DetectionCounts,
    offered: usize,
    processed: usize,
    shed_frames: usize,
    dropped_frames: usize,
    backpressure_signals: usize,
    peak_queue: usize,
    consecutive_shed: usize,
    first_fault: Option<FaultKind>,
    /// Breaker accounting baseline (post-warm, so admission warm-up
    /// failures never trip the serving breaker).
    last_load_failures: usize,
    quarantine: Option<QuarantineReason>,
    quarantine_detail: String,
}

impl Session<'_> {
    /// Flight-recorder dump with the session's drift latch stamped in, when
    /// the engine carries a recorder.
    fn flight(&self) -> Option<FlightRecord> {
        self.engine.flight_record().map(|mut rec| {
            if let Some(d) = &self.drift {
                rec.drift_state = d.state();
            }
            rec
        })
    }

    fn report(&self) -> SessionReport {
        let drift_state = self.drift.as_ref().map_or(DriftState::Nominal, DriftDetector::state);
        // The dump is reserved for post-mortems: only sessions that ended
        // badly carry one, so healthy reports stay byte-identical whether
        // or not recorders were armed.
        let crashed = matches!(self.state, SessionState::Quarantined | SessionState::Shed)
            || drift_state != DriftState::Nominal;
        SessionReport {
            id: self.id,
            state: self.state,
            frames_total: self.frames.len(),
            processed: self.processed,
            shed_frames: self.shed_frames,
            dropped_frames: self.dropped_frames,
            backpressure_signals: self.backpressure_signals,
            peak_queue_depth: self.peak_queue,
            counts: self.counts,
            f1: self.counts.f1(),
            quarantine: self.quarantine,
            drift_events: self.drift.as_ref().map_or(0, |d| d.events().len()),
            drift_state,
            flight: if crashed { self.flight() } else { None },
        }
    }
}

/// Half-open probe bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Probe {
    session: usize,
    base_attempts: usize,
    base_failures: usize,
}

/// A frame selected for dispatch this window.
struct Candidate {
    session: usize,
    frame: usize,
    arrival_ms: f64,
    slow: bool,
}

/// How a session reaches its terminal state ([`Gateway::retire`]).
enum Retirement {
    /// Every offered frame was processed or shed.
    Completed,
    /// Too many consecutive frames were shed.
    Shed,
    /// The window watchdog ran out.
    Watchdog,
    /// A frame dispatch panicked.
    Panicked { frame: usize },
    /// The engine (or the frame handler or drift detector) returned an error.
    Failed(AnoleError),
}

/// SLO evaluation state attached by [`Gateway::with_slos`].
///
/// The recorder is fed a *synthetic* snapshot built from the gateway's own
/// run counters — never the process-global obs registry — so burn-rate
/// alerts are deterministic, byte-stable across thread counts, and
/// identical with the `obs` feature on or off.
struct SloRuntime {
    series: SeriesRecorder,
    engine: SloEngine,
}

/// The serving gateway. See the [module docs](self) for the full model.
///
/// The gateway owns one step scratch: the batched decision forward runs on
/// it, and it is lent to every dispatched frame, batched or not, so each
/// session's [`OnlineEngine`] holds only what a later frame of its own
/// reads, and a session that panics or fails mid-step leaves nothing
/// another session reads.
///
/// # Examples
///
/// ```
/// use anole_core::gateway::{Gateway, GatewayConfig, SessionSpec};
/// use anole_core::{AnoleConfig, AnoleSystem};
/// use anole_data::{DatasetConfig, DrivingDataset};
/// use anole_tensor::Seed;
///
/// let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(1));
/// let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(2))?;
/// let frames: Vec<_> =
///     dataset.split().test.iter().take(8).map(|&i| dataset.frame(i).clone()).collect();
///
/// let mut gateway = Gateway::new(&system, GatewayConfig::default())?;
/// gateway.admit(SessionSpec::new(frames.clone(), Seed(3)))?;
/// gateway.admit(SessionSpec::new(frames, Seed(4)))?;
/// let report = gateway.run();
/// assert_eq!(report.lost_sessions(), 0);
/// assert_eq!(report.completed, 2);
/// # Ok::<(), anole_core::AnoleError>(())
/// ```
pub struct Gateway<'a> {
    system: &'a AnoleSystem,
    config: GatewayConfig,
    sessions: Vec<Session<'a>>,
    /// Ready-queue index: ids of admitted, non-terminal sessions in
    /// admission order. Scheduler loops walk this instead of scanning the
    /// whole roster, so a window over a mostly-terminal 100k-session run
    /// costs O(live) rather than O(admitted). Ids whose session went
    /// terminal mid-window linger until the end-of-window compaction (every
    /// consumer re-checks `is_terminal`); `active_count` is exact at all
    /// times.
    active_ids: Vec<usize>,
    /// Exact count of admitted, non-terminal sessions (maintained on every
    /// state transition; never scans).
    active_count: usize,
    injector: Option<FaultInjector>,
    rejected: usize,
    breaker: BreakerState,
    breaker_failures: usize,
    breaker_trips: usize,
    breaker_probes: usize,
    breaker_opened_at_ms: f64,
    probe: Option<Probe>,
    session_errors: Vec<(usize, AnoleError)>,
    // Run-level counters (fields, not locals, so a re-entrant `run` on a
    // finished gateway reports consistently instead of zeroing them).
    windows: usize,
    hiccups: usize,
    stalls: usize,
    slow_frames: usize,
    overflows: usize,
    batched_calls: usize,
    batched_frames: usize,
    single_calls: usize,
    watchdog_shed: usize,
    now_ms: f64,
    latency_hist: FixedHistogram,
    depth_hist: FixedHistogram,
    // SLO runtime (`None` unless `with_slos` armed it) plus the cumulative
    // run counters its synthetic snapshots diff window-over-window.
    slo: Option<SloRuntime>,
    frames_processed_run: u64,
    frames_shed_run: u64,
    sessions_quarantined_run: u64,
    // Per-window scratch: the dispatch candidates and the batched scores.
    candidates: Vec<Candidate>,
    score_buf: Vec<f32>,
    /// The one step scratch the batched decision forward and every
    /// session's frames run on.
    scratch: StepScratch,
}

impl<'a> Gateway<'a> {
    /// Creates an idle gateway over a trained system.
    ///
    /// # Errors
    ///
    /// [`AnoleError::InvalidConfig`] if the configuration is invalid.
    pub fn new(system: &'a AnoleSystem, config: GatewayConfig) -> Result<Self, AnoleError> {
        config.validate()?;
        Ok(Self {
            system,
            config,
            sessions: Vec::new(),
            active_ids: Vec::new(),
            active_count: 0,
            injector: None,
            rejected: 0,
            breaker: BreakerState::Closed,
            breaker_failures: 0,
            breaker_trips: 0,
            breaker_probes: 0,
            breaker_opened_at_ms: 0.0,
            probe: None,
            session_errors: Vec::new(),
            windows: 0,
            hiccups: 0,
            stalls: 0,
            slow_frames: 0,
            overflows: 0,
            batched_calls: 0,
            batched_frames: 0,
            single_calls: 0,
            watchdog_shed: 0,
            now_ms: 0.0,
            latency_hist: FixedHistogram::new(anole_obs::LATENCY_MS_BOUNDS),
            depth_hist: FixedHistogram::new(QUEUE_DEPTH_BOUNDS),
            slo: None,
            frames_processed_run: 0,
            frames_shed_run: 0,
            sessions_quarantined_run: 0,
            candidates: Vec::new(),
            score_buf: Vec::new(),
            scratch: StepScratch::new(),
        })
    }

    /// Attaches a gateway-level fault plan. Only the gateway fault kinds
    /// ([`FaultKind::QueueOverflow`], [`FaultKind::SlowConsumer`],
    /// [`FaultKind::SessionStall`], [`FaultKind::SchedulerHiccup`]) are
    /// drawn from it; device-level faults belong on each
    /// [`SessionSpec::fault_plan`]. A zero-fault plan leaves the run
    /// bit-identical to no plan at all.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.injector = Some(plan.injector());
        self
    }

    /// Arms declarative SLOs: after every executed scheduling window the
    /// gateway captures its own run counters into a bounded
    /// [`SeriesRecorder`] and evaluates multi-window burn rates
    /// ([`SloEngine`]). Spec metric names resolve against the synthetic
    /// per-gateway series: counters `gateway.frames.processed`,
    /// `gateway.frames.shed`, `gateway.frames.total`,
    /// `gateway.sessions.quarantined`; histograms `gateway.step.latency_ms`
    /// and `gateway.queue.depth`. Fired alerts land in
    /// [`GatewayReport::slo_violations`]. This is strictly passive: serving
    /// decisions and every other report field stay bit-identical to an
    /// unarmed run.
    pub fn with_slos(mut self, specs: Vec<SloSpec>) -> Self {
        let horizon = specs
            .iter()
            .map(|s| s.slow_windows)
            .max()
            .unwrap_or(anole_obs::DEFAULT_SLOW_WINDOWS)
            .max(64);
        self.slo = Some(SloRuntime {
            series: SeriesRecorder::new(horizon),
            engine: SloEngine::new(specs),
        });
        self
    }

    /// Sessions admitted and not yet terminal. O(1): maintained on every
    /// session state transition, never recomputed by scanning the roster.
    fn active_sessions(&self) -> usize {
        self.active_count
    }

    /// Fleet-wide model-load attempts (each one a cold load priced into
    /// background time) summed over every admitted session's engine.
    pub fn fleet_load_attempts(&self) -> usize {
        self.sessions.iter().map(|s| s.engine.load_attempt_count()).sum()
    }

    /// Typed errors from quarantined sessions, drained in the order the
    /// sessions died. The gateway absorbs them (quarantine, not abort);
    /// callers that treat a typed error as fatal — the fleet lifecycle does
    /// — pull them from here after the run.
    pub fn take_session_errors(&mut self) -> Vec<(usize, AnoleError)> {
        std::mem::take(&mut self.session_errors)
    }

    /// Admits a session. See [`Gateway::admit_with_handler`].
    ///
    /// # Errors
    ///
    /// As [`Gateway::admit_with_handler`].
    pub fn admit(&mut self, spec: SessionSpec) -> Result<usize, AnoleError> {
        self.admit_inner(spec, None)
    }

    /// Admits a session with a per-frame handler and returns its id.
    ///
    /// # Errors
    ///
    /// * [`AnoleError::SessionRejected`] past the high-water mark.
    /// * [`AnoleError::InvalidFrame`] if a spec frame has the wrong feature
    ///   width (caught at admission, not mid-run).
    pub fn admit_with_handler(
        &mut self,
        spec: SessionSpec,
        handler: FrameHandler<'a>,
    ) -> Result<usize, AnoleError> {
        self.admit_inner(spec, Some(handler))
    }

    fn admit_inner(
        &mut self,
        spec: SessionSpec,
        handler: Option<FrameHandler<'a>>,
    ) -> Result<usize, AnoleError> {
        let active = self.active_sessions();
        if active >= self.config.max_sessions {
            self.rejected += 1;
            anole_obs::counter_add!("gateway.sessions.rejected", 1);
            return Err(AnoleError::SessionRejected { active, limit: self.config.max_sessions });
        }
        let width = self.system.decision().network().input_dim();
        if let Some(at) = spec.frames.iter().position(|f| f.features.len() != width) {
            return Err(AnoleError::InvalidFrame {
                detail: format!(
                    "session frame {at} has feature width {} but the decision model expects {width}",
                    spec.frames[at].features.len()
                ),
            });
        }
        let mut engine = self.system.online_engine(DEVICE, spec.seed);
        if let Some(pinned) = spec.pinned {
            engine = engine.with_pinned_fallback(pinned);
        }
        if let Some(plan) = spec.fault_plan {
            engine = engine.with_fault_injector(plan.injector());
        }
        if self.config.flight_recorder_frames > 0 {
            engine = engine.with_flight_recorder(self.config.flight_recorder_frames);
        }
        if self.breaker != BreakerState::Closed {
            // Admitted into an open breaker: ride the fallback chain until
            // the fleet-wide probe succeeds.
            engine.set_loads_enabled(false);
        }
        if spec.warm {
            engine.warm(&(0..self.system.repository().len()).collect::<Vec<_>>());
        }
        let last_load_failures = engine.load_failure_count();
        let id = self.sessions.len();
        self.active_ids.push(id);
        self.active_count += 1;
        self.sessions.push(Session {
            id,
            state: SessionState::Admitted,
            engine,
            frames: spec.frames,
            next_frame: 0,
            queue: VecDeque::with_capacity(QUEUE_CAPACITY),
            next_arrival_ms: self.now_ms,
            busy_until_ms: self.now_ms,
            stalled_until_ms: self.now_ms,
            inject_panic: spec.inject_panic,
            handler,
            drift: spec.drift,
            counts: DetectionCounts::default(),
            offered: 0,
            processed: 0,
            shed_frames: 0,
            dropped_frames: 0,
            backpressure_signals: 0,
            peak_queue: 0,
            consecutive_shed: 0,
            first_fault: None,
            last_load_failures,
            quarantine: None,
            quarantine_detail: String::new(),
        });
        anole_obs::counter_add!("gateway.sessions.admitted", 1);
        Ok(id)
    }

    /// Runs every admitted session to a terminal state and reports.
    ///
    /// The scheduler advances virtual time window by window, each window a
    /// sequence of phases: producers enqueue due frames (pausing under
    /// backpressure), over-deadline frames are shed and idle sessions offer
    /// a frame, the offered frames are stacked into one batched decision
    /// forward and dispatched, each with its row, and drained sessions
    /// retire; then the circuit breaker arbitrates model loads. The loop
    /// always terminates: total service work is finite and the window
    /// watchdog force-sheds stragglers, so `report.lost_sessions() == 0`
    /// holds structurally.
    pub fn run(&mut self) -> GatewayReport {
        // The window watchdog's cut-off.
        let longest = self.sessions.iter().map(|s| s.frames.len()).max().unwrap_or(0);
        let max_windows = longest.saturating_mul(64).max(MIN_WATCHDOG_WINDOWS);
        // A window offers at most one frame per live session: size its
        // candidate list and score rows once, so no window grows them.
        self.candidates.reserve(self.active_count);
        self.score_buf.clear();
        self.score_buf.reserve(self.active_count * self.system.repository().len());
        while self.active_count > 0 {
            if self.windows >= max_windows {
                for idx in std::mem::take(&mut self.active_ids) {
                    if !self.sessions[idx].state.is_terminal() {
                        self.retire(idx, Retirement::Watchdog);
                    }
                }
                break;
            }
            self.windows += 1;
            let now = self.now_ms;
            anole_obs::gauge_set!("gateway.sessions.active", self.active_sessions() as f64);

            // An injected scheduler hiccup skips this whole window: nothing
            // is produced or dispatched, but virtual time still advances —
            // queued frames age toward their deadlines.
            if self.injector.as_mut().is_some_and(FaultInjector::scheduler_hiccups) {
                self.hiccups += 1;
                anole_obs::counter_add!("gateway.faults.scheduler_hiccup", 1);
                self.now_ms += WINDOW_MS;
                continue;
            }

            self.produce(now);
            let mut candidates = std::mem::take(&mut self.candidates);
            self.shed_and_select(now, &mut candidates);
            self.score(&candidates);
            self.dispatch(now, &candidates);
            self.candidates = candidates;
            self.retire_drained();

            self.tick_breaker(now);
            self.tick_slo(now);
            // Compact the ready-queue index: drop ids that went terminal
            // this window, preserving admission order for the survivors.
            if self.active_ids.len() > self.active_count {
                let sessions = &self.sessions;
                self.active_ids.retain(|&idx| !sessions[idx].state.is_terminal());
            }
            self.now_ms += WINDOW_MS;
        }

        self.report()
    }

    /// Produce: every live session's producer enqueues its due frames, in
    /// session-id order (the ready-queue index holds live ids in admission
    /// order). A full queue pauses the producer, or under an injected
    /// overflow drops the oldest queued frame.
    fn produce(&mut self, now: f64) {
        for &idx in &self.active_ids {
            let s = &mut self.sessions[idx];
            if s.state.is_terminal() {
                continue;
            }
            while s.next_frame < s.frames.len() && s.next_arrival_ms <= now {
                if s.queue.len() >= QUEUE_CAPACITY {
                    let forced = self.injector.as_mut().is_some_and(FaultInjector::queue_overflows);
                    if forced {
                        // Injected overflow: the bounded queue holds its
                        // bound by dropping the oldest frame.
                        s.queue.pop_front();
                        s.dropped_frames += 1;
                        self.overflows += 1;
                        s.first_fault.get_or_insert(FaultKind::QueueOverflow);
                        anole_obs::counter_add!("gateway.faults.queue_overflow", 1);
                    } else {
                        // Backpressure: the producer pauses until the
                        // consumer drains; the frame keeps its nominal
                        // arrival and ages toward its deadline.
                        s.backpressure_signals += 1;
                        anole_obs::counter_add!("gateway.backpressure.signals", 1);
                        break;
                    }
                }
                s.queue.push_back((s.next_frame, s.next_arrival_ms));
                s.offered += 1;
                s.next_frame += 1;
                s.next_arrival_ms += FRAME_INTERVAL_MS;
                s.peak_queue = s.peak_queue.max(s.queue.len());
            }
            if s.state == SessionState::Admitted && s.offered > 0 {
                s.state = SessionState::Active;
            }
            self.depth_hist.record(s.queue.len() as f64);
            anole_obs::histogram_record!(
                "gateway.queue.depth",
                QUEUE_DEPTH_BOUNDS,
                s.queue.len() as f64
            );
        }
    }

    /// Shed and select, in session-id order: frames queued past the
    /// deadline are shed onto a last-good replay (a session that sheds
    /// `shed_session_after` in a row is shed whole), then the oldest frame
    /// of each idle session becomes a dispatch candidate in `candidates`,
    /// unless an injected stall parks the session.
    fn shed_and_select(&mut self, now: f64, candidates: &mut Vec<Candidate>) {
        let deadline_ms = self.config.deadline_ms;
        candidates.clear();
        let ids = std::mem::take(&mut self.active_ids);
        for &idx in &ids {
            if deadline_ms.is_finite() && !self.sessions[idx].state.is_terminal() {
                self.shed_late(idx, now, deadline_ms);
            }
            let s = &mut self.sessions[idx];
            let busy = now < s.busy_until_ms || now < s.stalled_until_ms;
            if s.state.is_terminal() || s.queue.is_empty() || busy {
                continue;
            }
            if self.injector.as_mut().is_some_and(FaultInjector::session_stalls) {
                s.stalled_until_ms = now + STALL_MS;
                s.first_fault.get_or_insert(FaultKind::SessionStall);
                self.stalls += 1;
                anole_obs::counter_add!("gateway.faults.session_stall", 1);
                continue;
            }
            let slow = self.injector.as_mut().is_some_and(FaultInjector::consumer_slows);
            if slow {
                s.first_fault.get_or_insert(FaultKind::SlowConsumer);
                self.slow_frames += 1;
                anole_obs::counter_add!("gateway.faults.slow_consumer", 1);
            }
            let (frame, arrival_ms) = s.queue.pop_front().expect("queue checked non-empty");
            candidates.push(Candidate { session: idx, frame, arrival_ms, slow });
        }
        self.active_ids = ids;
    }

    /// Sheds session `idx`'s frames queued past the deadline: each is
    /// served from last-good detections via the health ladder instead of
    /// stalling the fleet. A session that sheds `shed_session_after` frames
    /// in a row cannot keep up at all, and is shed whole rather than left to
    /// starve the window forever.
    fn shed_late(&mut self, idx: usize, now: f64, deadline_ms: f64) {
        while let Some(&(frame, arrival)) = self.sessions[idx].queue.front() {
            if now - arrival <= deadline_ms {
                return;
            }
            let s = &mut self.sessions[idx];
            s.queue.pop_front();
            let out = s.engine.replay_last_good();
            self.account_frame(idx, frame, &out, None);
            if self.sessions[idx].consecutive_shed >= self.config.shed_session_after {
                self.retire(idx, Retirement::Shed);
                return;
            }
        }
    }

    /// Score: one cross-device batched decision forward over every frame
    /// the window offers, into `score_buf`, one row per candidate; per row
    /// it is bit-identical to each engine scoring its own frame. A frame
    /// with non-finite features gets a row too; its engine rejects the
    /// frame itself, failing that session alone.
    fn score(&mut self, candidates: &[Candidate]) {
        if candidates.is_empty() {
            return;
        }
        let width = self.system.decision().network().input_dim();
        let scratch = &mut self.scratch;
        scratch.row.resize_scratch(candidates.len(), width);
        for (row, c) in candidates.iter().enumerate() {
            let features = &self.sessions[c.session].frames[c.frame].features;
            scratch.row.row_mut(row).copy_from_slice(features);
        }
        let scores = self
            .system
            .decision()
            .suitability_ws(&scratch.row, &mut scratch.ws)
            .expect("admission checked every frame's feature width");
        self.score_buf.clear();
        for row in 0..scores.rows() {
            self.score_buf.extend_from_slice(scores.row(row));
        }
        if candidates.len() == 1 {
            self.single_calls += 1;
        } else {
            self.batched_calls += 1;
            self.batched_frames += candidates.len();
            anole_obs::counter_add!("gateway.batch.calls", 1);
            anole_obs::counter_add!("gateway.batch.frames", candidates.len() as u64);
        }
    }

    /// Dispatch: steps each candidate frame on its row of the window's
    /// scores under `catch_unwind`, so a panicking or failing session is
    /// quarantined while the rest of the fleet keeps serving.
    fn dispatch(&mut self, now: f64, candidates: &[Candidate]) {
        let model_count = self.system.repository().len();
        for (ci, c) in candidates.iter().enumerate() {
            let s = &mut self.sessions[c.session];
            if s.state.is_terminal() {
                // Can only happen if a prior candidate of this window
                // quarantined the session; one frame per session per window
                // makes that impossible, but stay defensive.
                continue;
            }
            let scores_row = &self.score_buf[ci * model_count..(ci + 1) * model_count];
            let panic_now = s.inject_panic;
            let sid = s.id;
            let frame = &s.frames[c.frame];
            let engine = &mut s.engine;
            let handler = s.handler.as_mut();
            let drift = s.drift.as_mut();
            // A step that panics or fails leaves the scratch half written;
            // the next step overwrites or clears each buffer before reading.
            let scratch = &mut self.scratch;
            let dispatched = catch_unwind(AssertUnwindSafe(
                move || -> Result<StepOutcome, AnoleError> {
                    if panic_now {
                        panic!("injected session panic (session {sid})");
                    }
                    let out = engine.step_in(&frame.features, Some(scores_row), scratch)?;
                    if let Some(h) = handler {
                        h(frame, &out)?;
                    }
                    if let Some(d) = drift {
                        // The engine's top-1 routing confidence is the
                        // session-local drift signal.
                        d.observe(out.suitability)?;
                    }
                    Ok(out)
                },
            ));
            match dispatched {
                Err(_) => self.retire(c.session, Retirement::Panicked { frame: c.frame }),
                Ok(Err(error)) => self.retire(c.session, Retirement::Failed(error)),
                Ok(Ok(out)) => {
                    let service =
                        out.latency_ms as f64 * if c.slow { self.config.slow_factor } else { 1.0 };
                    let done_at = now + service;
                    self.sessions[c.session].busy_until_ms = done_at;
                    self.account_frame(c.session, c.frame, &out, Some(done_at - c.arrival_ms));
                }
            }
        }
    }

    /// Accounts frame `frame` of session `idx` once its fate is known:
    /// processed, with its queue-to-done `latency` in virtual ms, or shed
    /// (`None`). Only such frames are scored: their detections join the
    /// session's counts. Moves the session, run and obs counters (the run
    /// counters feed the SLO snapshot), and hands the load failures a
    /// processed frame caused to the breaker.
    fn account_frame(&mut self, idx: usize, frame: usize, out: &StepOutcome, latency: Option<f64>) {
        let s = &mut self.sessions[idx];
        s.counts.accumulate(&out.detections, &s.frames[frame].truth);
        match latency {
            Some(ms) => {
                s.processed += 1;
                s.consecutive_shed = 0;
                let failures = s.engine.load_failure_count();
                if failures > s.last_load_failures {
                    if self.breaker == BreakerState::Closed {
                        self.breaker_failures += failures - s.last_load_failures;
                    }
                    s.last_load_failures = failures;
                }
                self.frames_processed_run += 1;
                self.latency_hist.record(ms);
                anole_obs::histogram_record!(
                    "gateway.step.latency_ms",
                    anole_obs::LATENCY_MS_BOUNDS,
                    ms
                );
                anole_obs::counter_add!("gateway.frames.processed", 1);
            }
            None => {
                s.shed_frames += 1;
                s.consecutive_shed += 1;
                self.frames_shed_run += 1;
                anole_obs::counter_add!("gateway.frames.shed", 1);
            }
        }
    }

    /// Retire: a session whose producer is exhausted completes once its
    /// queue is empty and drains until then.
    fn retire_drained(&mut self) {
        let ids = std::mem::take(&mut self.active_ids);
        for &idx in &ids {
            let s = &mut self.sessions[idx];
            if s.state.is_terminal() || s.next_frame < s.frames.len() {
                continue;
            }
            if s.queue.is_empty() {
                self.retire(idx, Retirement::Completed);
            } else {
                s.state = SessionState::Draining;
            }
        }
        self.active_ids = ids;
    }

    /// Moves session `idx` to its terminal state: the one place a session
    /// leaves the fleet. Its outstanding (queued and unproduced) frames are
    /// dropped, and the counters that feed the SLO snapshot and the report
    /// move.
    fn retire(&mut self, idx: usize, end: Retirement) {
        let s = &mut self.sessions[idx];
        s.dropped_frames += s.queue.len() + (s.frames.len() - s.next_frame);
        s.queue.clear();
        s.next_frame = s.frames.len();
        self.active_count -= 1;
        s.state = match end {
            Retirement::Completed => {
                anole_obs::counter_add!("gateway.sessions.completed", 1);
                SessionState::Completed
            }
            Retirement::Shed => {
                anole_obs::counter_add!("gateway.sessions.shed", 1);
                SessionState::Shed
            }
            Retirement::Watchdog => {
                self.watchdog_shed += 1;
                anole_obs::counter_add!("gateway.sessions.watchdog_shed", 1);
                SessionState::Shed
            }
            Retirement::Panicked { frame } => {
                s.quarantine = Some(QuarantineReason::Panicked);
                s.quarantine_detail = format!("panicked on frame {frame}");
                SessionState::Quarantined
            }
            Retirement::Failed(error) => {
                s.quarantine = Some(QuarantineReason::EngineError);
                s.quarantine_detail = error.to_string();
                self.session_errors.push((s.id, error));
                SessionState::Quarantined
            }
        };
        if s.state == SessionState::Quarantined {
            // The in-flight frame is lost too: keep processed + shed +
            // dropped == frames_total.
            s.dropped_frames += 1;
            self.sessions_quarantined_run += 1;
            anole_obs::counter_add!("gateway.sessions.quarantined", 1);
        }
    }

    /// Advances the model-load circuit breaker by one window.
    ///
    /// Failures observed while closed accumulate toward the threshold;
    /// tripping suppresses loads fleet-wide. After the cooldown, exactly
    /// one session is re-armed as a half-open probe: a load failure on it
    /// re-opens the breaker, a clean attempted load closes it and re-arms
    /// the whole fleet. Runs with no load failures never enter this code's
    /// side-effectful paths, preserving zero-fault bit-identity.
    fn tick_breaker(&mut self, now: f64) {
        match self.breaker {
            BreakerState::Closed => {
                if self.breaker_failures >= BREAKER_THRESHOLD {
                    self.breaker = BreakerState::Open;
                    self.breaker_opened_at_ms = now;
                    self.breaker_trips += 1;
                    anole_obs::counter_add!("gateway.breaker.trips", 1);
                    for &idx in &self.active_ids {
                        let s = &mut self.sessions[idx];
                        if !s.state.is_terminal() {
                            s.engine.set_loads_enabled(false);
                        }
                    }
                }
            }
            BreakerState::Open => {
                if now - self.breaker_opened_at_ms >= BREAKER_COOLDOWN_MS {
                    if let Some(idx) = self
                        .active_ids
                        .iter()
                        .copied()
                        .find(|&idx| !self.sessions[idx].state.is_terminal())
                    {
                        let s = &mut self.sessions[idx];
                        s.engine.set_loads_enabled(true);
                        self.probe = Some(Probe {
                            session: idx,
                            base_attempts: s.engine.load_attempt_count(),
                            base_failures: s.engine.load_failure_count(),
                        });
                        self.breaker = BreakerState::HalfOpen;
                        self.breaker_probes += 1;
                        anole_obs::counter_add!("gateway.breaker.probes", 1);
                    }
                    // No live session to probe: stay open, the run is over.
                }
            }
            BreakerState::HalfOpen => {
                let Some(probe) = self.probe else {
                    self.breaker = BreakerState::Open;
                    self.breaker_opened_at_ms = now;
                    return;
                };
                let s = &mut self.sessions[probe.session];
                let failures = s.engine.load_failure_count();
                let attempts = s.engine.load_attempt_count();
                if failures > probe.base_failures {
                    // Probe failed: back to open, cooldown restarts.
                    s.last_load_failures = failures;
                    s.engine.set_loads_enabled(false);
                    self.breaker = BreakerState::Open;
                    self.breaker_opened_at_ms = now;
                    self.probe = None;
                } else if attempts > probe.base_attempts {
                    // A load was attempted and none failed: close and
                    // re-arm the fleet.
                    self.breaker = BreakerState::Closed;
                    self.breaker_failures = 0;
                    self.probe = None;
                    for &idx in &self.active_ids {
                        let s2 = &mut self.sessions[idx];
                        if !s2.state.is_terminal() {
                            s2.engine.set_loads_enabled(true);
                        }
                    }
                } else if s.state.is_terminal() {
                    // Probe died before deciding: re-open and pick another
                    // after the next cooldown.
                    self.breaker = BreakerState::Open;
                    self.breaker_opened_at_ms = now;
                    self.probe = None;
                }
            }
        }
    }

    /// Synthetic metrics snapshot over the gateway's own run counters —
    /// the SLO recorder's input. Deliberately *not* the process-global obs
    /// registry: these values are per-gateway, deterministic, and present
    /// with the `obs` feature off, so burn-rate alerts never vary with
    /// what else the process measured.
    fn slo_snapshot(&self) -> MetricsSnapshot {
        let processed = self.frames_processed_run;
        let shed = self.frames_shed_run;
        MetricsSnapshot {
            counters: vec![
                CounterSample { name: "gateway.frames.processed".to_string(), value: processed },
                CounterSample { name: "gateway.frames.shed".to_string(), value: shed },
                CounterSample {
                    name: "gateway.frames.total".to_string(),
                    value: processed + shed,
                },
                CounterSample {
                    name: "gateway.sessions.quarantined".to_string(),
                    value: self.sessions_quarantined_run,
                },
            ],
            histograms: vec![
                HistogramSample {
                    name: "gateway.queue.depth".to_string(),
                    histogram: self.depth_hist.clone(),
                },
                HistogramSample {
                    name: "gateway.step.latency_ms".to_string(),
                    histogram: self.latency_hist.clone(),
                },
            ],
            ..MetricsSnapshot::default()
        }
    }

    /// Captures this window into the SLO time series and evaluates burn
    /// rates. Hiccup windows skip this (with the rest of the window), so
    /// one recorder window == one executed scheduling window.
    fn tick_slo(&mut self, now: f64) {
        let Some(mut slo) = self.slo.take() else {
            return;
        };
        let snap = self.slo_snapshot();
        slo.series.capture(now as u64, &snap);
        let fired = slo.engine.evaluate(&slo.series);
        let pages = fired.iter().filter(|a| a.severity == AlertSeverity::Page).count();
        let warns = fired.len() - pages;
        if pages > 0 {
            anole_obs::counter_add!("gateway.slo.pages", pages as u64);
        }
        if warns > 0 {
            anole_obs::counter_add!("gateway.slo.warns", warns as u64);
        }
        self.slo = Some(slo);
    }

    /// Builds the deterministic run report from current state.
    fn report(&self) -> GatewayReport {
        let sessions: Vec<SessionReport> = self.sessions.iter().map(Session::report).collect();
        let quarantined = self
            .sessions
            .iter()
            .filter(|s| s.state == SessionState::Quarantined)
            .map(|s| QuarantineRecord {
                session: s.id,
                reason: s.quarantine.unwrap_or(QuarantineReason::Panicked),
                first_fault: s.first_fault,
                detail: s.quarantine_detail.clone(),
                flight: s.flight(),
            })
            .collect();
        GatewayReport {
            admitted: self.sessions.len(),
            rejected: self.rejected,
            completed: sessions.iter().filter(|s| s.state == SessionState::Completed).count(),
            shed_sessions: sessions.iter().filter(|s| s.state == SessionState::Shed).count(),
            quarantined,
            frames_offered: self.sessions.iter().map(|s| s.offered).sum(),
            frames_processed: self.frames_processed_run as usize,
            frames_shed: self.frames_shed_run as usize,
            frames_dropped: self.sessions.iter().map(|s| s.dropped_frames).sum(),
            batched_calls: self.batched_calls,
            batched_frames: self.batched_frames,
            single_calls: self.single_calls,
            windows: self.windows,
            hiccups: self.hiccups,
            stalls: self.stalls,
            slow_frames: self.slow_frames,
            overflows: self.overflows,
            backpressure_signals: self.sessions.iter().map(|s| s.backpressure_signals).sum(),
            breaker_trips: self.breaker_trips,
            breaker_probes: self.breaker_probes,
            breaker_state: self.breaker,
            watchdog_shed: self.watchdog_shed,
            peak_queue_depth: self.sessions.iter().map(|s| s.peak_queue).max().unwrap_or(0),
            pressure_evictions: self
                .sessions
                .iter()
                .map(|s| s.engine.pressure_evicted().len() as u64)
                .sum(),
            step_latency_p50_ms: self.latency_hist.quantile(0.5),
            step_latency_p95_ms: self.latency_hist.quantile(0.95),
            step_latency_p99_ms: self.latency_hist.quantile(0.99),
            sim_duration_ms: self.now_ms,
            slo_violations: self.slo.as_ref().map_or_else(Vec::new, |s| s.engine.alerts().to_vec()),
            sessions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnoleConfig;
    use anole_data::{DatasetConfig, DrivingDataset};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn world() -> (DrivingDataset, AnoleSystem) {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(401));
        let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(402)).unwrap();
        (dataset, system)
    }

    fn test_frames(dataset: &DrivingDataset, n: usize) -> Vec<Frame> {
        dataset.split().test.iter().take(n).map(|&i| dataset.frame(i).clone()).collect()
    }

    /// Fleet-style config: lossless (no deadline, no session shedding).
    fn lossless() -> GatewayConfig {
        GatewayConfig {
            deadline_ms: f64::INFINITY,
            shed_session_after: usize::MAX,
            ..GatewayConfig::default()
        }
    }

    #[test]
    fn batched_sessions_match_sequential_engines_bit_for_bit() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 12);
        // Three sessions through the gateway, outcomes recorded by handler.
        let outcomes: Vec<Rc<RefCell<Vec<StepOutcome>>>> =
            (0..3).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
        let mut gateway = Gateway::new(&system, lossless()).unwrap();
        for (i, sink) in outcomes.iter().enumerate() {
            let sink = Rc::clone(sink);
            gateway
                .admit_with_handler(
                    SessionSpec::new(frames.clone(), Seed(500 + i as u64)),
                    Box::new(move |_, out| {
                        sink.borrow_mut().push(out.clone());
                        Ok(())
                    }),
                )
                .unwrap();
        }
        let report = gateway.run();
        assert_eq!(report.lost_sessions(), 0);
        assert_eq!(report.completed, 3);
        assert!(report.batched_calls > 0, "three live sessions stack every window");
        assert_eq!(report.single_calls, 0);

        // The same frames through bare engines, one step at a time.
        for (i, sink) in outcomes.iter().enumerate() {
            let mut engine =
                system.online_engine(DeviceKind::JetsonTx2Nx, Seed(500 + i as u64));
            engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
            let expected: Vec<StepOutcome> =
                frames.iter().map(|f| engine.step(&f.features).unwrap()).collect();
            assert_eq!(*sink.borrow(), expected, "session {i} diverged from its bare engine");
            assert_eq!(report.sessions[i].processed, frames.len());
        }
    }

    #[test]
    fn sessions_on_different_frames_share_one_scratch_bit_for_bit() {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(401));
        // Every int8 twin of this world scores within 0.003 F1 of its fp32
        // model, most of them higher. A twin must gain 0.0015 F1 to pass
        // this ε, which splits the repository between int8 and fp32.
        let mut config = AnoleConfig::fast();
        config.quant.epsilon_f1 = -0.0015;
        let mut system = AnoleSystem::train(&dataset, &config, Seed(402)).unwrap();
        let quant = system.quantize_models(&dataset).unwrap();
        assert!(!quant.accepted.is_empty() && !quant.rejected.is_empty(), "{quant:?}");

        // (offset into the test split, frames): at every window the
        // sessions stage different frames at the same frame index, and
        // they run out one after another.
        let streams = [(0, 16), (7, 14), (19, 12), (31, 10), (43, 8)];
        let test = dataset.split().test;
        let frames = |(offset, len): (usize, usize)| -> Vec<Frame> {
            (offset..offset + len).map(|k| dataset.frame(test[k % test.len()]).clone()).collect()
        };
        // Session 1 reuses its own last scores on a decision anomaly and
        // replays its own last-good detections on a dropout.
        let plans = |i: usize| {
            (i == 1).then(|| {
                FaultPlan::new(Seed(531))
                    .at(3, FaultKind::DecisionAnomaly)
                    .at(9, FaultKind::SensorDropout)
                    .at(11, FaultKind::DecisionAnomaly)
            })
        };
        // Windows with two sessions left or more stack their frames; the
        // last two, with session 0 alone, score its one frame.
        let mut gateway = Gateway::new(&system, lossless()).unwrap();
        let outcomes: Vec<Rc<RefCell<Vec<StepOutcome>>>> =
            streams.iter().map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
        for (i, (&stream, sink)) in streams.iter().zip(&outcomes).enumerate() {
            let sink = Rc::clone(sink);
            let spec = SessionSpec {
                fault_plan: plans(i),
                ..SessionSpec::new(frames(stream), Seed(520 + i as u64))
            };
            gateway
                .admit_with_handler(
                    spec,
                    Box::new(move |_, out| {
                        sink.borrow_mut().push(out.clone());
                        Ok(())
                    }),
                )
                .unwrap();
        }
        let report = gateway.run();
        assert_eq!(report.completed, streams.len());
        assert!(report.batched_calls > 0 && report.single_calls > 0, "{report:?}");

        let all: Vec<usize> = (0..system.repository().len()).collect();
        for (i, (&stream, sink)) in streams.iter().zip(&outcomes).enumerate() {
            let mut engine = system.online_engine(DEVICE, Seed(520 + i as u64));
            if let Some(plan) = plans(i) {
                engine = engine.with_fault_injector(plan.injector());
            }
            engine.warm(&all);
            let expected: Vec<StepOutcome> =
                frames(stream).iter().map(|f| engine.step(&f.features).unwrap()).collect();
            assert_eq!(*sink.borrow(), expected, "session {i} diverged from its bare engine");
        }
        let served: Vec<StepOutcome> = outcomes.iter().flat_map(|o| o.take()).collect();
        let executed = |n: usize| served.iter().filter(|o| o.models_executed == n).count();
        assert!(executed(1) > 0 && executed(2) > 0, "single-model and hedged frames");
        assert!(executed(0) > 0, "a replayed frame");
        for precision in [anole_nn::Precision::Int8, anole_nn::Precision::Fp32] {
            let ran = |o: &StepOutcome| o.models_executed > 0 && o.precision == precision;
            assert!(served.iter().any(ran), "no frame served at {precision:?}");
        }
    }

    #[test]
    fn per_session_drift_detectors_report_without_perturbing_serving() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 16);

        let mut plain = Gateway::new(&system, lossless()).unwrap();
        plain.admit(SessionSpec::new(frames.clone(), Seed(601))).unwrap();
        let plain_report = plain.run();

        // A floor no confidence can reach: the detector latches on the
        // first window and emits exactly one episode.
        let mut hot = Gateway::new(&system, lossless()).unwrap();
        hot.admit(
            SessionSpec::new(frames.clone(), Seed(601))
                .with_drift_detector(DriftDetector::new(2, 2.0)),
        )
        .unwrap();
        let hot_report = hot.run();
        assert_eq!(hot_report.sessions[0].drift_state, DriftState::Drifting);
        assert_eq!(hot_report.sessions[0].drift_events, 1);
        // Observation is passive: serving outcomes are untouched.
        assert_eq!(hot_report.sessions[0].counts, plain_report.sessions[0].counts);
        assert_eq!(hot_report.sessions[0].processed, plain_report.sessions[0].processed);

        // A floor below any confidence: the detector never latches and the
        // whole report is bit-identical to running without one.
        let mut calm = Gateway::new(&system, lossless()).unwrap();
        calm.admit(
            SessionSpec::new(frames, Seed(601)).with_drift_detector(DriftDetector::new(2, -1.0)),
        )
        .unwrap();
        assert_eq!(calm.run(), plain_report);
    }

    #[test]
    fn admission_control_rejects_past_high_water_mark() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 2);
        let mut gateway =
            Gateway::new(&system, GatewayConfig { max_sessions: 2, ..lossless() }).unwrap();
        gateway.admit(SessionSpec::new(frames.clone(), Seed(1))).unwrap();
        gateway.admit(SessionSpec::new(frames.clone(), Seed(2))).unwrap();
        let err = gateway.admit(SessionSpec::new(frames.clone(), Seed(3))).unwrap_err();
        assert!(
            matches!(err, AnoleError::SessionRejected { active: 2, limit: 2 }),
            "{err}"
        );
        let report = gateway.run();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.admitted, 2);
        // Terminal sessions free their slots: a finished gateway admits again.
        gateway.admit(SessionSpec::new(frames, Seed(4))).unwrap();
    }

    #[test]
    fn wrong_width_frames_are_rejected_at_admission() {
        let (dataset, system) = world();
        let mut frames = test_frames(&dataset, 3);
        frames[1].features.push(0.0);
        let mut gateway = Gateway::new(&system, lossless()).unwrap();
        let err = gateway.admit(SessionSpec::new(frames, Seed(1))).unwrap_err();
        assert!(matches!(err, AnoleError::InvalidFrame { .. }), "{err}");
    }

    #[test]
    fn deadline_shedding_serves_late_frames_from_replay() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 30);
        // A consumer slowed 20× against a 1 ms deadline: frames pile up in
        // the queue and age out. Session shedding stays off so the run
        // still drains everything frame-by-frame.
        let config = GatewayConfig {
            deadline_ms: 1.0,
            shed_session_after: usize::MAX,
            slow_factor: 20.0,
            ..GatewayConfig::default()
        };
        let mut gateway = Gateway::new(&system, config)
            .unwrap()
            .with_fault_plan(FaultPlan::new(Seed(77)).with_slow_consumer_rate(1.0));
        gateway.admit(SessionSpec::new(frames.clone(), Seed(7))).unwrap();
        let report = gateway.run();
        assert_eq!(report.lost_sessions(), 0);
        assert!(report.frames_shed > 0, "nothing shed: {report:?}");
        assert_eq!(
            report.frames_processed + report.frames_shed,
            frames.len(),
            "every offered frame is either processed or shed"
        );
        assert!(report.sessions[0].state.is_terminal());
    }

    #[test]
    fn hopeless_sessions_are_shed_whole() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 40);
        let config = GatewayConfig {
            deadline_ms: 1.0,
            shed_session_after: 3,
            slow_factor: 20.0,
            ..GatewayConfig::default()
        };
        let mut gateway = Gateway::new(&system, config)
            .unwrap()
            .with_fault_plan(FaultPlan::new(Seed(88)).with_slow_consumer_rate(1.0));
        gateway.admit(SessionSpec::new(frames, Seed(8))).unwrap();
        let report = gateway.run();
        assert_eq!(report.lost_sessions(), 0);
        assert_eq!(report.shed_sessions, 1);
        assert_eq!(report.sessions[0].state, SessionState::Shed);
        assert!(report.sessions[0].dropped_frames > 0);
    }

    #[test]
    fn panic_isolation_quarantines_only_the_offender() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 6);
        let mut gateway = Gateway::new(&system, lossless()).unwrap();
        gateway.admit(SessionSpec::new(frames.clone(), Seed(1))).unwrap();
        gateway
            .admit(SessionSpec {
                inject_panic: true,
                ..SessionSpec::new(frames.clone(), Seed(2))
            })
            .unwrap();
        gateway.admit(SessionSpec::new(frames.clone(), Seed(3))).unwrap();
        let report = gateway.run();
        assert_eq!(report.lost_sessions(), 0);
        assert_eq!(report.completed, 2);
        assert_eq!(report.quarantined.len(), 1);
        let record = &report.quarantined[0];
        assert_eq!(record.session, 1);
        assert_eq!(record.reason, QuarantineReason::Panicked);
        assert_eq!(report.sessions[1].state, SessionState::Quarantined);
        // The survivors served every frame.
        assert_eq!(report.sessions[0].processed, frames.len());
        assert_eq!(report.sessions[2].processed, frames.len());
        assert!(gateway.take_session_errors().is_empty());
    }

    #[test]
    fn breaker_trips_on_load_failure_bursts_and_fleet_rides_fallback() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 40);
        // Cold caches + every load permanently failing: failures accumulate
        // fast, the breaker trips, and sessions ride their pinned fallback.
        let mut gateway = Gateway::new(&system, lossless()).unwrap();
        for i in 0..3 {
            gateway
                .admit(SessionSpec {
                    pinned: Some(0),
                    warm: false,
                    fault_plan: Some(
                        FaultPlan::new(Seed(900 + i)).with_permanent_load_rate(1.0),
                    ),
                    ..SessionSpec::new(frames.clone(), Seed(910 + i))
                })
                .unwrap();
        }
        let report = gateway.run();
        assert_eq!(report.lost_sessions(), 0);
        assert!(report.breaker_trips >= 1, "breaker never tripped: {report:?}");
        // Probes keep failing against a 100% failure rate, so the breaker
        // cannot end closed.
        assert_ne!(report.breaker_state, BreakerState::Closed);
        // Every frame was still served (fallback chain, not starvation).
        assert_eq!(report.frames_processed, 3 * frames.len());
    }

    #[test]
    fn breaker_recloses_after_transient_burst() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 60);
        // A scheduled burst of permanent load faults early on, clean after:
        // the breaker trips, cools down, probes successfully, and recloses.
        // A fault fails the session's next load and armed faults do not
        // stack, so each session's burst of six fails three loads: six in
        // all, the breaker's threshold.
        let burst = |seed: u64| {
            (0..BREAKER_THRESHOLD).fold(FaultPlan::new(Seed(seed)), |plan, frame| {
                plan.at(frame, FaultKind::PermanentLoadFailure)
            })
        };
        // Pin the *last* repository model so the probe session's cold cache
        // keeps missing on the (usually different) top-ranked model and the
        // half-open probe actually attempts a load.
        let pinned = Some(system.repository().len() - 1);
        let mut gateway = Gateway::new(&system, lossless()).unwrap();
        for (i, seed) in [950, 953].into_iter().enumerate() {
            gateway
                .admit(SessionSpec {
                    pinned,
                    warm: false,
                    fault_plan: Some(burst(seed)),
                    ..SessionSpec::new(frames.clone(), Seed(951 + i as u64))
                })
                .unwrap();
        }
        let report = gateway.run();
        assert_eq!(report.lost_sessions(), 0);
        assert!(report.breaker_trips >= 1);
        assert!(report.breaker_probes >= 1);
        assert_eq!(report.breaker_state, BreakerState::Closed);
    }

    #[test]
    fn gateway_faults_inject_and_zero_fault_plan_is_identity() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 25);
        let run = |plan: Option<FaultPlan>| {
            let mut gateway = Gateway::new(&system, lossless()).unwrap();
            if let Some(plan) = plan {
                gateway = gateway.with_fault_plan(plan);
            }
            for i in 0..4 {
                gateway.admit(SessionSpec::new(frames.clone(), Seed(700 + i))).unwrap();
            }
            gateway.run()
        };
        let plain = run(None);
        let zero = run(Some(FaultPlan::new(Seed(42))));
        assert_eq!(plain, zero, "a zero-fault plan must be a perfect no-op");

        let chaotic = run(Some(
            FaultPlan::new(Seed(43))
                .with_queue_overflow_rate(0.5)
                .with_slow_consumer_rate(0.3)
                .with_session_stall_rate(0.2)
                .with_scheduler_hiccup_rate(0.2),
        ));
        assert_eq!(chaotic.lost_sessions(), 0);
        assert!(chaotic.hiccups > 0);
        assert!(chaotic.stalls > 0);
        assert!(chaotic.slow_frames > 0);
        assert!(chaotic.windows > plain.windows, "stalls and hiccups stretch the run");
    }

    #[test]
    fn unbatched_run_matches_batched_run_per_session() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 10);
        let spec = |i: u64| SessionSpec::new(frames.clone(), Seed(600 + i));
        let mut gateway = Gateway::new(&system, lossless()).unwrap();
        for i in 0..3 {
            gateway.admit(spec(i)).unwrap();
        }
        let batched = gateway.run();
        assert!(batched.batched_calls > 0 && batched.single_calls == 0);
        for i in 0..3 {
            // Alone in its own gateway, every window scores one frame.
            let mut gateway = Gateway::new(&system, lossless()).unwrap();
            gateway.admit(spec(i)).unwrap();
            let single = gateway.run();
            assert!(single.batched_calls == 0 && single.single_calls > 0);
            // How many frames a window stacks is the only difference;
            // everything observable about the session is bit-identical.
            let alone = SessionReport { id: i as usize, ..single.sessions[0].clone() };
            assert_eq!(batched.sessions[i as usize], alone, "session {i}");
        }
    }

    #[test]
    fn watchdog_force_sheds_a_permanently_stalled_fleet() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 5);
        // Stall on every draw: no session ever becomes eligible.
        let mut gateway = Gateway::new(&system, lossless())
            .unwrap()
            .with_fault_plan(FaultPlan::new(Seed(55)).with_session_stall_rate(1.0));
        gateway.admit(SessionSpec::new(frames, Seed(56))).unwrap();
        let report = gateway.run();
        assert_eq!(report.lost_sessions(), 0);
        assert_eq!(report.watchdog_shed, 1);
        assert_eq!(report.sessions[0].state, SessionState::Shed);
        // Five frames are far below the floor, so the floor cuts the run.
        assert_eq!(report.windows, MIN_WATCHDOG_WINDOWS);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let (_dataset, system) = world();
        let err = Gateway::new(
            &system,
            GatewayConfig { shed_session_after: 0, ..GatewayConfig::default() },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(
            matches!(err, AnoleError::InvalidConfig { what: "shed_session_after", .. }),
            "{err}"
        );
        let err = Gateway::new(
            &system,
            GatewayConfig { slow_factor: 0.5, ..GatewayConfig::default() },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, AnoleError::InvalidConfig { what: "slow_factor", .. }), "{err}");
    }

    #[test]
    fn a_non_finite_frame_quarantines_only_its_session_alone_or_stacked() {
        let (dataset, system) = world();
        // Session 1 carries a NaN feature at frame `at` and runs 12 frames
        // beside two 8-frame sessions: at frame 2 its window stacks three
        // frames, at frame 10 it is the only session left.
        let run = |at: usize| {
            let mut poisoned = test_frames(&dataset, 12);
            poisoned[at].features[3] = f32::NAN;
            let mut gateway = Gateway::new(&system, lossless()).unwrap();
            gateway.admit(SessionSpec::new(test_frames(&dataset, 8), Seed(1))).unwrap();
            gateway.admit(SessionSpec::new(poisoned, Seed(2))).unwrap();
            gateway.admit(SessionSpec::new(test_frames(&dataset, 8), Seed(3))).unwrap();
            let report = gateway.run();
            assert_eq!(report.lost_sessions(), 0);
            assert_eq!(report.completed, 2, "frame {at}: {report:?}");
            assert_eq!(report.sessions[0].processed, 8);
            assert_eq!(report.sessions[2].processed, 8);
            assert_eq!(report.sessions[1].state, SessionState::Quarantined);
            assert_eq!(report.sessions[1].processed, at);
            assert_eq!(report.quarantined.len(), 1);
            assert_eq!(report.quarantined[0].reason, QuarantineReason::EngineError);
            let errors = gateway.take_session_errors();
            assert_eq!(errors.len(), 1);
            assert_eq!(errors[0].0, 1);
            assert!(matches!(errors[0].1, AnoleError::InvalidFrame { .. }), "{}", errors[0].1);
            (report.single_calls, report.quarantined[0].detail.clone())
        };
        let (stacked_singles, stacked) = run(2);
        let (alone_singles, alone) = run(10);
        // Stacked, the poisoned frame shared a three-row forward; alone, it
        // was its window's only frame.
        assert_eq!(stacked_singles, 0);
        assert!(alone_singles > 0);
        assert!(stacked.contains("feature 3"), "{stacked}");
        assert_eq!(stacked, alone);
    }

    #[test]
    fn engine_errors_quarantine_and_surface_via_side_channel() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 4);
        let mut gateway = Gateway::new(&system, lossless()).unwrap();
        gateway.admit(SessionSpec::new(frames.clone(), Seed(1))).unwrap();
        // A handler error is indistinguishable from an engine error to the
        // scheduler: the session quarantines, the fleet keeps going.
        gateway
            .admit_with_handler(
                SessionSpec::new(frames.clone(), Seed(2)),
                Box::new(|_, _| {
                    Err(AnoleError::InvalidFrame { detail: "handler refused".into() })
                }),
            )
            .unwrap();
        let report = gateway.run();
        assert_eq!(report.lost_sessions(), 0);
        assert_eq!(report.completed, 1);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].reason, QuarantineReason::EngineError);
        // Only frames whose fate is known are scored: the refused frame is
        // dropped, so it never reaches the session's detection counts.
        let cells = frames[0].truth.len() as u64;
        for s in &report.sessions {
            let c = s.counts;
            let counted =
                c.true_positives + c.false_positives + c.false_negatives + c.true_negatives;
            assert_eq!(counted, (s.processed + s.shed_frames) as u64 * cells, "session {}", s.id);
        }
        let errors = gateway.take_session_errors();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, 1);
        assert!(matches!(errors[0].1, AnoleError::InvalidFrame { .. }));
        assert!(gateway.take_session_errors().is_empty(), "drained");
    }

    /// Shed-heavy config shared by the SLO tests: a consumer slowed 20×
    /// against a 1 ms deadline sheds a large fraction of frames, blowing a
    /// 0.1% shed budget by orders of magnitude every window.
    fn slo_world() -> (GatewayConfig, FaultPlan, Vec<SloSpec>) {
        let config = GatewayConfig {
            deadline_ms: 1.0,
            shed_session_after: usize::MAX,
            slow_factor: 20.0,
            ..GatewayConfig::default()
        };
        let plan = FaultPlan::new(Seed(77)).with_slow_consumer_rate(1.0);
        let specs = vec![SloSpec::error_ratio(
            "gateway-shed-ratio",
            "gateway.frames.shed",
            "gateway.frames.total",
            0.001,
        )
        .with_slow_windows(4)];
        (config, plan, specs)
    }

    #[test]
    fn slo_runtime_is_passive_and_alerts_are_byte_stable() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 30);
        let run = |specs: Option<Vec<SloSpec>>| {
            let (config, plan, _) = slo_world();
            let mut gateway = Gateway::new(&system, config).unwrap().with_fault_plan(plan);
            if let Some(specs) = specs {
                gateway = gateway.with_slos(specs);
            }
            gateway.admit(SessionSpec::new(frames.clone(), Seed(7))).unwrap();
            gateway.run()
        };
        let plain = run(None);
        let instrumented = run(Some(slo_world().2));

        // The budget is blown every window, so both the fast page and (once
        // the long window fills) the slow warn fire.
        let alerts = &instrumented.slo_violations;
        let pages = alerts.iter().filter(|a| a.severity == AlertSeverity::Page).count();
        assert!(pages >= 1, "no page: {alerts:?}");
        let warns = alerts.len() - pages;
        assert!(warns >= 1, "no warn: {alerts:?}");
        // The runtime is strictly passive: everything except the alert list
        // is bit-identical to the unarmed run.
        let mut stripped = instrumented.clone();
        stripped.slo_violations.clear();
        assert_eq!(stripped, plain);
        // Deterministic: a rerun produces identical alerts.
        let rerun = run(Some(slo_world().2));
        assert_eq!(rerun.slo_violations, instrumented.slo_violations);
    }

    #[test]
    fn slo_series_deltas_equal_the_report_totals() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 12);
        let (config, plan, specs) = slo_world();
        let mut gateway =
            Gateway::new(&system, config).unwrap().with_fault_plan(plan).with_slos(specs);
        gateway.admit(SessionSpec::new(frames.clone(), Seed(7))).unwrap();
        gateway
            .admit(SessionSpec { inject_panic: true, ..SessionSpec::new(frames.clone(), Seed(8)) })
            .unwrap();
        gateway
            .admit_with_handler(
                SessionSpec::new(frames, Seed(9)),
                Box::new(|_, _| Err(AnoleError::InvalidFrame { detail: "refused".into() })),
            )
            .unwrap();
        let report = gateway.run();
        assert!(report.frames_processed > 0 && report.frames_shed > 0);
        assert_eq!(report.quarantined.len(), 2);
        // One recorder window per executed scheduling window, all retained,
        // so each counter's deltas sum to the run total the report shows.
        let series = &gateway.slo.as_ref().unwrap().series;
        let windows = report.windows;
        assert_eq!(series.total_windows(), windows as u64);
        assert_eq!(series.windows(), windows);
        let delta = |name: &str| series.delta(name, windows) as usize;
        assert_eq!(delta("gateway.frames.processed"), report.frames_processed);
        assert_eq!(delta("gateway.frames.shed"), report.frames_shed);
        assert_eq!(delta("gateway.sessions.quarantined"), report.quarantined.len());
        let _ = gateway.take_session_errors();
    }

    #[test]
    fn an_unbounded_flight_recorder_admits_and_completes() {
        let (dataset, system) = world();
        let config = GatewayConfig { flight_recorder_frames: usize::MAX, ..lossless() };
        let mut gateway = Gateway::new(&system, config).unwrap();
        gateway.admit(SessionSpec::new(test_frames(&dataset, 6), Seed(3))).unwrap();
        let report = gateway.run();
        assert_eq!(report.sessions[0].state, SessionState::Completed);
        assert_eq!(report.sessions[0].processed, 6);
    }

    #[test]
    fn flight_records_attach_to_crashed_sessions_only() {
        let (dataset, system) = world();
        let frames = test_frames(&dataset, 8);
        let config = GatewayConfig { flight_recorder_frames: 4, ..lossless() };
        let mut gateway = Gateway::new(&system, config).unwrap();
        gateway.admit(SessionSpec::new(frames.clone(), Seed(1))).unwrap();
        // Session 1 serves a scheduled sensor dropout at engine frame 2,
        // then its handler refuses frame 5: the quarantine dump must still
        // hold the fault frame.
        let mut served = 0usize;
        gateway
            .admit_with_handler(
                SessionSpec {
                    fault_plan: Some(
                        FaultPlan::new(Seed(2)).at(2, FaultKind::SensorDropout),
                    ),
                    ..SessionSpec::new(frames.clone(), Seed(2))
                },
                Box::new(move |_, _| {
                    served += 1;
                    if served > 5 {
                        Err(AnoleError::InvalidFrame { detail: "handler refused".into() })
                    } else {
                        Ok(())
                    }
                }),
            )
            .unwrap();
        let report = gateway.run();
        assert_eq!(report.quarantined.len(), 1);
        let flight = report.quarantined[0].flight.as_ref().expect("armed recorder dumps");
        assert_eq!(flight.capacity, 4);
        assert!(flight.frames_seen >= 5);
        assert!(
            flight.frames.iter().any(|f| f.faults > 0),
            "fault frame missing from dump: {}",
            flight.render()
        );
        assert_eq!(report.sessions[1].flight, report.quarantined[0].flight);
        // The healthy session recorded too, but its report omits the dump:
        // the quarantined session's two records carry the only ones.
        assert_eq!(report.sessions[0].flight, None);
        let sessions = report.sessions.iter().map(|s| &s.flight);
        let dumps = sessions.chain(report.quarantined.iter().map(|q| &q.flight));
        assert_eq!(dumps.filter(|f| f.is_some()).count(), 2);

        // Unarmed runs never dump, even for quarantined sessions.
        let mut plain = Gateway::new(&system, lossless()).unwrap();
        plain
            .admit(SessionSpec {
                inject_panic: true,
                ..SessionSpec::new(frames, Seed(3))
            })
            .unwrap();
        let plain_report = plain.run();
        assert_eq!(plain_report.quarantined[0].flight, None);
        assert!(plain_report.sessions.iter().all(|s| s.flight.is_none()));
        let _ = plain.take_session_errors();
        let _ = gateway.take_session_errors();
    }
}
