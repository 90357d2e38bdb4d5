//! Cache-based model deployment and per-frame inference (§V-B, §V-C), with
//! fault absorption and graceful degradation.
//!
//! Under fault injection (see [`crate::omi::FaultPlan`]) the engine walks an
//! explicit fallback chain instead of panicking or propagating NaNs:
//!
//! 1. the requested model (cache hit, or synchronous load on a cold cache);
//! 2. the best *cached* model (the paper's CMD fallback);
//! 3. a pinned always-resident fallback model
//!    ([`OnlineEngine::with_pinned_fallback`]);
//! 4. the last-good detections, replayed when no model can run at all.
//!
//! Failed model loads are retried in the background, up to three attempts,
//! and like every background load charge no modelled time; models that
//! keep failing are excluded permanently.
//! Health is tracked on a `Healthy → Degraded → Critical` ladder and
//! summarized by [`OnlineEngine::health_report`].

use std::collections::VecDeque;

use anole_cache::{CacheStats, SlotCache};
use anole_device::{DeviceKind, LatencyModel};
use anole_nn::{Precision, ReferenceModel, Workspace};
use anole_tensor::{rng_from_seed, Matrix, Seed, StdRng};

use crate::omi::drift::DriftState;
use crate::omi::faults::{
    FaultCounts, FaultInjector, FrameFaults, HealthReport, HealthState, LoadFault,
};
use crate::{AnoleError, AnoleSystem};

/// Load attempts per load (1 initial + 2 retries) before a strike.
const MAX_LOAD_ATTEMPTS: u32 = 3;
/// Whole-load failures after which a model is excluded permanently.
const MAX_LOAD_STRIKES: u32 = 3;
/// Consecutive clean frames needed to climb one rung of the health ladder.
const RECOVERY_FRAMES: u32 = 8;

/// What happened on one online-inference step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// The model `M_decision` ranked first.
    pub requested: usize,
    /// The model actually used (best-ranked *cached* model on a miss).
    pub used: usize,
    /// Whether the requested model was already resident.
    pub cache_hit: bool,
    /// Thresholded cell detections of the used model (or the fused top-k
    /// maps on a low-confidence, hedged frame).
    pub detections: Vec<bool>,
    /// Number of compressed models executed this frame (>1 when hedged,
    /// 0 when the frame was served from last-good detections).
    pub models_executed: usize,
    /// End-to-end frame latency in milliseconds (decision + detection, plus
    /// a synchronous load when nothing usable was cached).
    pub latency_ms: f32,
    /// Suitability probability of the requested model.
    pub suitability: f32,
    /// Health state after this step.
    pub health: HealthState,
    /// Which tier of the fallback chain served the frame: 0 = requested
    /// model, 1 = best cached model, 2 = pinned fallback model,
    /// 3 = last-good detections replayed.
    pub fallback_depth: usize,
    /// Number of faults injected into this step.
    pub faults: u32,
    /// Weight format of the model that served the frame (`Fp32` on frames
    /// replayed from last-good detections, which run no model).
    pub precision: Precision,
}

/// One compact wide-event row of the per-session flight recorder: what one
/// frame requested, what actually served it, and every signal that decides
/// its fate (fallback depth, fault draws, health, precision). Sized for the
/// ring: 24 bytes of plain scalars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightFrame {
    /// Engine frame index (0-based) this event describes.
    pub frame: u32,
    /// Model `M_decision` ranked first.
    pub requested: u16,
    /// Model that actually served the frame.
    pub used: u16,
    pub cache_hit: bool,
    /// Fallback tier that served the frame (0..=3, as in
    /// [`StepOutcome::fallback_depth`]).
    pub fallback_depth: u8,
    /// Compressed models executed (0 on a last-good replay).
    pub models_executed: u8,
    /// Faults injected into this frame (saturated at 255).
    pub faults: u8,
    /// Health state *after* the frame.
    pub health: HealthState,
    /// Weight format of the serving model.
    pub precision: Precision,
    pub latency_ms: f32,
    pub suitability: f32,
}

impl FlightFrame {
    /// The event for frame `frame` served as `outcome`. Indices and counts
    /// saturate at their field's maximum, and the fallback depth at 3.
    pub fn new(frame: usize, outcome: &StepOutcome) -> Self {
        Self {
            frame: u32::try_from(frame).unwrap_or(u32::MAX),
            requested: u16::try_from(outcome.requested).unwrap_or(u16::MAX),
            used: u16::try_from(outcome.used).unwrap_or(u16::MAX),
            cache_hit: outcome.cache_hit,
            fallback_depth: outcome.fallback_depth.min(3) as u8,
            models_executed: u8::try_from(outcome.models_executed).unwrap_or(u8::MAX),
            faults: u8::try_from(outcome.faults).unwrap_or(u8::MAX),
            health: outcome.health,
            precision: outcome.precision,
            latency_ms: outcome.latency_ms,
            suitability: outcome.suitability,
        }
    }
}

/// The dumped contents of a session's flight recorder: the last
/// `capacity` frames (of `frames_seen` total) in arrival order, plus the
/// session's drift state at dump time. Produced by
/// [`OnlineEngine::flight_record`]; the serving gateway attaches one to
/// `SessionReport`/`QuarantineRecord` when a session is quarantined, shed,
/// or drift-latched, so post-mortems show the frames that killed the
/// session instead of just counting them.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Ring capacity the recorder ran with.
    pub capacity: usize,
    /// Total frames the recorder observed (≥ `frames.len()`).
    pub frames_seen: u64,
    /// Session drift state at dump time (`Nominal` for engines running
    /// outside a drift-monitored gateway session).
    pub drift_state: DriftState,
    /// The retained frames, oldest first.
    pub frames: Vec<FlightFrame>,
}

impl FlightRecord {
    /// Renders the record as an aligned text table, one line per frame,
    /// for chaos-test failure output and fleet post-mortems.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "# flight: last {} of {} frames (drift: {:?})\n\
             # frame req->used hit depth exec faults health    precision latency_ms suit\n",
            self.frames.len(),
            self.frames_seen,
            self.drift_state,
        );
        for f in &self.frames {
            let _ = writeln!(
                out,
                "{:>7} {:>4}->{:<4} {:>3} {:>5} {:>4} {:>6} {:<9} {:<9} {:>10.3} {:.3}",
                f.frame,
                f.requested,
                f.used,
                if f.cache_hit { "y" } else { "n" },
                f.fallback_depth,
                f.models_executed,
                f.faults,
                format!("{:?}", f.health),
                format!("{:?}", f.precision),
                f.latency_ms,
                f.suitability,
            );
        }
        out
    }
}

/// Bounded ring behind the engine's flight recorder. Strictly passive:
/// frames are copied in at the end of `finish_step` and nothing is ever
/// read back on the serving path. It starts empty and grows to `cap`
/// frames, so a depth of `usize::MAX` keeps every frame without reserving
/// them up front.
#[derive(Debug)]
struct FlightRing {
    cap: usize,
    seen: u64,
    ring: VecDeque<FlightFrame>,
}

impl FlightRing {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            seen: 0,
            ring: VecDeque::new(),
        }
    }

    fn push(&mut self, frame: FlightFrame) {
        self.seen += 1;
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(frame);
    }
}

/// What MSS decided for one frame.
struct Choice {
    /// The best non-excluded model (the pinned model on a pinned-only frame).
    requested: usize,
    /// Suitability of `requested` (0.0 on a pinned-only frame).
    suitability: f32,
    /// Whether every model is excluded, so the pinned model serves without a
    /// decision.
    pinned_only: bool,
}

/// Whether model `a` ranks before model `b`: higher suitability first, and
/// equal suitabilities (+0.0 and −0.0 included) by lower id. On finite
/// scores this is the order a stable sort of the ids by descending score
/// gives, so each consumer selects what it needs instead of sorting.
fn ranks_before(scores: &[f32], a: usize, b: usize) -> bool {
    scores[a] > scores[b] || (scores[a] == scores[b] && a < b)
}

/// The first of `ids` in ranking order.
fn best_of(scores: &[f32], ids: impl Iterator<Item = usize>) -> Option<usize> {
    ids.reduce(|best, id| if ranks_before(scores, id, best) { id } else { best })
}

/// The models that can serve a frame without a load: the cached ones and
/// the pinned one. They are at most the cache's slots plus one, so CMD and
/// MI scan them instead of ranking every model.
struct Residents<'e> {
    scores: &'e [f32],
    excluded: &'e [bool],
    cache: &'e SlotCache,
    pinned: Option<usize>,
}

impl Residents<'_> {
    /// The best non-excluded resident model not in `skip`.
    fn best(&self, skip: &[usize]) -> Option<usize> {
        let ids = self.cache.iter().chain(self.pinned);
        best_of(self.scores, ids.filter(|id| !self.excluded[*id] && !skip.contains(id)))
    }

    /// CMD's miss fallback and its tier: 1 when the model is cached, 2 when
    /// it is the pinned model.
    fn fallback(&self) -> Option<(usize, usize)> {
        self.best(&[]).map(|id| (id, if self.cache.contains(id) { 1 } else { 2 }))
    }

    /// MI's hedge: adds the best resident models not yet in `executed` until
    /// it holds `limit` models or none is left.
    fn hedge(&self, executed: &mut Vec<usize>, limit: usize) {
        while executed.len() < limit {
            match self.best(executed) {
                Some(id) => executed.push(id),
                None => break,
            }
        }
    }
}

/// Which resident model CMD handed to MI, and at what fallback tier.
#[derive(Default)]
struct Cached {
    used: usize,
    cache_hit: bool,
    fallback_depth: usize,
    /// Load time the frame stalls on when nothing usable was resident.
    sync_load_ms: f32,
}

/// What one step fills and no later frame reads: the inference workspace,
/// the staged feature row, the models MI runs and the fused probability map
/// of a hedged frame. A step resizes and overwrites, or clears, each buffer
/// before it reads it, so nothing one frame leaves here reaches another:
/// a standalone engine owns one scratch, and a gateway lends one to all its
/// sessions.
#[derive(Debug)]
pub(crate) struct StepScratch {
    /// Decision scoring and detection share it, so a warm step allocates
    /// only its returned detections. The gateway's batched decision forward
    /// runs on it too.
    pub(crate) ws: Workspace,
    /// Staged feature matrix feeding the workspace paths: one row for a
    /// step, one per frame for the gateway's batched forward.
    pub(crate) row: Matrix,
    /// The models MI runs this frame, served model first.
    executed: Vec<usize>,
    /// The fused probability map of a hedged frame.
    fused: Vec<f32>,
}

impl StepScratch {
    /// An empty scratch; its buffers grow on the first steps.
    pub(crate) fn new() -> Self {
        Self {
            ws: Workspace::new(),
            row: Matrix::default(),
            executed: Vec::new(),
            fused: Vec::new(),
        }
    }
}

/// The on-device Anole engine: MSS (pick the most suitable model per
/// frame), CMD (LFU cache with best-cached fallback), and MI (run the chosen
/// compressed model).
///
/// Model loads on a miss happen in the background (the frame is served by
/// the best cached model) and charge no modelled time, retries included.
/// Only when the cache is completely empty does a synchronous load stall
/// the frame.
///
/// The engine keeps what a later frame reads: the cache, the last
/// suitability vector, exclusions and load strikes, the last-good
/// detections, the RNG and the counters. What a step only fills (the
/// inference workspace, the staged row, the executed models and the fused
/// map) is scratch: [`OnlineEngine::step`] builds the engine's own on its
/// first call, and a [`Gateway`](crate::gateway::Gateway) lends its one
/// scratch to every session instead, so a session never builds one.
///
/// Attaching a [`FaultInjector`] ([`OnlineEngine::with_fault_injector`])
/// subjects the engine to that plan's faults; a zero-fault plan leaves
/// every [`StepOutcome`] bit-identical to an un-instrumented engine.
#[derive(Debug)]
pub struct OnlineEngine<'a> {
    system: &'a AnoleSystem,
    cache: SlotCache,
    latency: LatencyModel,
    rng: StdRng,
    /// Frames a model served (replayed frames ran none).
    served_frames: usize,
    /// The model that served the last such frame.
    last_used: Option<usize>,
    /// The last scored frame's suitability vector, reused across frames.
    /// `None` until a frame is scored.
    suitability: Option<Vec<f32>>,
    total_latency_ms: f64,
    hedged_frames: usize,
    latency_budget_ms: Option<f32>,
    injector: Option<FaultInjector>,
    pinned: Option<usize>,
    excluded: Vec<bool>,
    load_strikes: Vec<u32>,
    pending_load_fault: Option<LoadFault>,
    last_good: Option<Vec<bool>>,
    health: HealthState,
    clean_streak: u32,
    frames_by_state: [usize; 3],
    fault_counts: FaultCounts,
    retries: usize,
    strikes_total: usize,
    fallback_depths: [usize; 4],
    /// Gate on `attempt_load`: the serving gateway opens it (sets `false`)
    /// when its model-load circuit breaker trips, so the engine rides the
    /// fallback chain without burning load attempts. Defaults to `true`.
    loads_enabled: bool,
    /// Real load attempts made (suppressed attempts while loads are
    /// disabled are not counted).
    load_attempts: usize,
    /// Model ids evicted by mid-stream memory pressure
    /// (`SlotCache::set_capacity`), in eviction order — surfaced so the
    /// gateway can account for them instead of silently dropping them.
    pressure_evicted: Vec<usize>,
    /// The scratch of this engine's own steps, built on the first one. A
    /// gateway session steps on the gateway's scratch and never builds it.
    scratch: Option<Box<StepScratch>>,
    /// Per-session flight recorder (`None` unless
    /// [`OnlineEngine::with_flight_recorder`] armed it). Write-only on the
    /// serving path; read only by [`OnlineEngine::flight_record`].
    flight: Option<FlightRing>,
}

impl<'a> OnlineEngine<'a> {
    /// Creates an engine with an empty cache on the given device.
    pub fn new(system: &'a AnoleSystem, device: DeviceKind, seed: Seed) -> Self {
        let cache_cfg = system.config().cache;
        let n_models = system.repository().len();
        let cache = match cache_cfg.byte_budget {
            Some(budget) => {
                SlotCache::with_byte_budget(cache_cfg.capacity, cache_cfg.policy, budget)
            }
            None => SlotCache::new(cache_cfg.capacity, cache_cfg.policy),
        };
        Self {
            system,
            cache,
            latency: LatencyModel::for_device(device),
            rng: rng_from_seed(seed),
            served_frames: 0,
            last_used: None,
            suitability: None,
            total_latency_ms: 0.0,
            hedged_frames: 0,
            latency_budget_ms: None,
            injector: None,
            pinned: None,
            excluded: vec![false; n_models],
            load_strikes: vec![0; n_models],
            pending_load_fault: None,
            last_good: None,
            health: HealthState::Healthy,
            clean_streak: 0,
            frames_by_state: [0; 3],
            fault_counts: FaultCounts::default(),
            retries: 0,
            strikes_total: 0,
            fallback_depths: [0; 4],
            loads_enabled: true,
            load_attempts: 0,
            pressure_evicted: Vec::new(),
            scratch: None,
            flight: None,
        }
    }

    /// Arms the per-session flight recorder: the last `capacity` frames'
    /// wide events are retained in a bounded ring and can be dumped with
    /// [`OnlineEngine::flight_record`]. Strictly passive — the ring is
    /// write-only on the serving path, so an armed recorder changes no
    /// [`StepOutcome`]. A zero capacity leaves the recorder off.
    pub fn with_flight_recorder(mut self, capacity: usize) -> Self {
        self.flight = (capacity > 0).then(|| FlightRing::new(capacity));
        self
    }

    /// Dumps the flight recorder's current contents (`None` when no
    /// recorder was armed). The record's `drift_state` is `Nominal`; a
    /// drift-monitoring caller stamps its own detector state in.
    pub fn flight_record(&self) -> Option<FlightRecord> {
        self.flight.as_ref().map(|ring| FlightRecord {
            capacity: ring.cap,
            frames_seen: ring.seen,
            drift_state: DriftState::Nominal,
            frames: ring.ring.iter().copied().collect(),
        })
    }

    /// Constrains the engine to a per-frame latency budget (§II: "achieve
    /// the best-effort inference accuracy within a specific latency
    /// budget"). The number of compressed models fused per frame is derived
    /// from the budget: as many mean tiny-model inferences as fit after the
    /// mean decision stage, clamped to 1..=4. The budget replaces the
    /// configured `hedge_top_k`, so a roomy budget can fuse more models than
    /// `hedge_top_k` would.
    ///
    /// # Panics
    ///
    /// Panics if `budget_ms` is not strictly positive.
    pub fn with_latency_budget(mut self, budget_ms: f32) -> Self {
        assert!(budget_ms > 0.0, "latency budget must be positive");
        self.latency_budget_ms = Some(budget_ms);
        self
    }

    /// Subjects the engine to `injector`'s fault plan. The injector owns its
    /// own RNG, so a zero-fault plan changes nothing about the engine's
    /// outputs.
    pub fn with_fault_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Pins `model_id` as the always-resident fallback: it serves frames
    /// when nothing usable is cached, is immune to eviction (it lives
    /// outside the slot cache) and to permanent exclusion, and never needs
    /// loading.
    ///
    /// # Panics
    ///
    /// Panics if `model_id` is not a repository model.
    pub fn with_pinned_fallback(mut self, model_id: usize) -> Self {
        assert!(
            model_id < self.system.repository().len(),
            "pinned fallback {model_id} out of range"
        );
        self.pinned = Some(model_id);
        self
    }

    /// The per-frame model-count limit implied by the latency budget (the
    /// configured `hedge_top_k` when no budget is set).
    pub fn models_per_frame_limit(&self) -> usize {
        match self.latency_budget_ms {
            None => self.system.config().decision.hedge_top_k.max(1),
            Some(budget) => {
                let decision = self.latency.mean_scene_decision_ms();
                let tiny = self.latency.mean_inference_ms(ReferenceModel::Yolov3Tiny);
                (((budget - decision) / tiny).floor() as isize).clamp(1, 4) as usize
            }
        }
    }

    /// Mean end-to-end frame latency so far (0.0 before any step).
    pub fn mean_latency_ms(&self) -> f32 {
        if self.served_frames == 0 {
            0.0
        } else {
            (self.total_latency_ms / self.served_frames as f64) as f32
        }
    }

    /// Fraction of frames that took the low-confidence hedged path.
    pub fn hedge_rate(&self) -> f32 {
        if self.served_frames == 0 {
            0.0
        } else {
            self.hedged_frames as f32 / self.served_frames as f32
        }
    }

    /// Pre-loads the given models (the paper downloads and pre-loads as many
    /// models as memory allows before going online). Each model charges its
    /// serving-precision footprint when a cache byte budget is configured.
    pub fn warm(&mut self, model_ids: &[usize]) {
        for &id in model_ids {
            let bytes = self.system.repository().model(id).serving_bytes();
            self.cache.insert_weighted(id, bytes);
        }
    }

    /// Cache statistics so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Current health state.
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// Whether `model_id` has been permanently excluded.
    fn is_excluded(&self, model_id: usize) -> bool {
        self.excluded.get(model_id).copied().unwrap_or(false)
    }

    /// The detections of the last frame a model actually served.
    #[cfg(test)]
    fn last_good(&self) -> Option<&[bool]> {
        self.last_good.as_deref()
    }

    /// Aggregate health story of the run so far.
    pub fn health_report(&self) -> HealthReport {
        HealthReport {
            state: self.health,
            frames: self.frames_by_state.iter().sum(),
            frames_by_state: self.frames_by_state,
            faults: self.fault_counts,
            retries: self.retries,
            load_strikes: self.strikes_total,
            excluded_models: self
                .excluded
                .iter()
                .enumerate()
                .filter_map(|(id, &e)| e.then_some(id))
                .collect(),
            fallback_depths: self.fallback_depths,
            pressure_evicted: self.pressure_evicted.clone(),
        }
    }

    /// Enables or disables model loads. While disabled, `attempt_load`
    /// returns `false` without consuming pending faults or pricing costs —
    /// the engine serves every frame from the fallback chain (best cached →
    /// pinned → last-good). Used by the serving gateway's circuit breaker.
    pub fn set_loads_enabled(&mut self, enabled: bool) {
        self.loads_enabled = enabled;
    }

    /// Real load attempts made so far (excludes attempts suppressed while
    /// loads were disabled).
    pub fn load_attempt_count(&self) -> usize {
        self.load_attempts
    }

    /// Whole-model load failures so far: permanent failures, corrupt
    /// bundles, and transient loads that exhausted their bounded retries.
    /// The gateway's circuit breaker watches the delta of this counter.
    pub fn load_failure_count(&self) -> usize {
        self.fault_counts.permanent_load + self.fault_counts.bundle_corruption + self.strikes_total
    }

    /// Model ids evicted by mid-stream memory pressure, in eviction order.
    pub fn pressure_evicted(&self) -> &[usize] {
        &self.pressure_evicted
    }

    /// The resident models, ranked by the last scored frame.
    fn residents(&self) -> Residents<'_> {
        Residents {
            scores: self.suitability.as_deref().expect("set by mss"),
            excluded: &self.excluded,
            cache: &self.cache,
            pinned: self.pinned,
        }
    }

    /// Rejects a frame of the wrong width or with NaN/Inf values (they would
    /// poison the decision scores), then stages it as the single-row matrix
    /// the workspace-backed decision/detection paths read. Reuses the
    /// buffer; no allocation once warm.
    fn stage_frame(&self, features: &[f32], scratch: &mut StepScratch) -> Result<(), AnoleError> {
        let expected = self.system.decision().network().input_dim();
        if features.len() != expected {
            return Err(AnoleError::InvalidFrame {
                detail: format!(
                    "feature width {} but the engine expects {expected}",
                    features.len()
                ),
            });
        }
        if let Some(position) = features.iter().position(|v| !v.is_finite()) {
            return Err(AnoleError::InvalidFrame {
                detail: format!("non-finite value at feature {position}"),
            });
        }
        scratch.row.resize_scratch(1, features.len());
        scratch.row.row_mut(0).copy_from_slice(features);
        Ok(())
    }

    /// Permanently excludes `id` from selection and loading. The pinned
    /// fallback is immune.
    fn exclude(&mut self, id: usize) {
        if self.pinned == Some(id) {
            return;
        }
        if let Some(flag) = self.excluded.get_mut(id) {
            *flag = true;
        }
        self.cache.remove(id);
    }

    /// Attempts to load `id` into the cache, consuming any pending injected
    /// load fault. Returns whether the model ended up resident.
    fn attempt_load(&mut self, id: usize) -> bool {
        if !self.loads_enabled {
            // Circuit breaker open: the load is suppressed without consuming
            // the pending fault or pricing any cost, so re-enabling loads
            // resumes exactly where the fault stream left off.
            anole_obs::counter_add!("omi.load.suppressed", 1);
            return false;
        }
        let bytes = self.system.repository().model(id).serving_bytes();
        self.load_attempts += 1;
        anole_obs::counter_add!("omi.load.attempts", 1);
        match self.pending_load_fault.take() {
            None => {
                self.cache.insert_weighted(id, bytes);
                anole_obs::counter_add!("cache.cold_loads", 1);
                true
            }
            Some(LoadFault::Permanent) => {
                self.fault_counts.permanent_load += 1;
                anole_obs::counter_add!("omi.faults.permanent_load", 1);
                self.exclude(id);
                false
            }
            Some(LoadFault::Corruption) => {
                self.fault_counts.bundle_corruption += 1;
                anole_obs::counter_add!("omi.faults.bundle_corruption", 1);
                // The checksum check rejects the artifact after reading it.
                self.exclude(id);
                false
            }
            Some(LoadFault::Transient) => {
                self.fault_counts.transient_load += 1;
                anole_obs::counter_add!("omi.faults.transient_load", 1);
                let mut loaded = false;
                for _ in 1..MAX_LOAD_ATTEMPTS {
                    self.retries += 1;
                    anole_obs::counter_add!("omi.load.retries", 1);
                    let fails_again =
                        self.injector.as_mut().map(FaultInjector::retry_fails).unwrap_or(false);
                    if !fails_again {
                        loaded = true;
                        break;
                    }
                }
                if loaded {
                    self.cache.insert_weighted(id, bytes);
                    anole_obs::counter_add!("cache.cold_loads", 1);
                } else {
                    self.strikes_total += 1;
                    if let Some(strikes) = self.load_strikes.get_mut(id) {
                        *strikes += 1;
                        if *strikes >= MAX_LOAD_STRIKES {
                            self.exclude(id);
                        }
                    }
                }
                loaded
            }
        }
    }

    /// Serves a deadline-shed frame by replaying the last-good detections
    /// (all-clear before any good frame). The serving gateway calls this
    /// when a queued frame ages past its latency budget: the frame runs no
    /// model, draws no injector faults, and counts against the health
    /// ladder at fallback depth 3 — so sustained shedding degrades the
    /// session to `Critical` exactly like any other starved stream.
    pub fn replay_last_good(&mut self) -> StepOutcome {
        let outcome = self.replay_outcome();
        self.finish_step(outcome)
    }

    /// A frame no model can process: the last-good detections replayed
    /// (all-clear before any good frame). It runs no model and costs one
    /// watchdog tick.
    fn replay_outcome(&self) -> StepOutcome {
        let cells = self.system.repository().model(0).net.output_dim();
        let detections = self.last_good.clone().unwrap_or_else(|| vec![false; cells]);
        let reference = self.last_used.or(self.pinned).unwrap_or(0);
        StepOutcome {
            requested: reference,
            used: reference,
            cache_hit: false,
            detections,
            models_executed: 0,
            latency_ms: self.latency.mean_inference_ms(ReferenceModel::DecisionMlp),
            suitability: 0.0,
            health: self.health,
            fallback_depth: 3,
            faults: 0,
            precision: Precision::Fp32,
        }
    }

    /// Writes every per-frame fact, all derived from the finished outcome:
    /// the served count, last model, latency sum, hedge count and last-good
    /// detections of a frame a model served, the health ladder and its counters, the obs
    /// metrics, and the flight ring. Stamps the final health state into the
    /// outcome.
    fn finish_step(&mut self, mut outcome: StepOutcome) -> StepOutcome {
        if outcome.models_executed > 0 {
            self.served_frames += 1;
            self.last_used = Some(outcome.used);
            self.total_latency_ms += outcome.latency_ms as f64;
            if outcome.models_executed > 1 {
                self.hedged_frames += 1;
            }
            self.last_good.get_or_insert_with(Vec::new).clone_from(&outcome.detections);
        }
        let previous_health = self.health;
        self.climb_ladder(&outcome);
        self.frames_by_state[self.health.index()] += 1;
        self.fallback_depths[outcome.fallback_depth.min(3)] += 1;
        outcome.health = self.health;
        anole_obs::counter_add!("omi.step.frames", 1);
        anole_obs::histogram_record!(
            "omi.step.latency_ms",
            anole_obs::LATENCY_MS_BOUNDS,
            f64::from(outcome.latency_ms)
        );
        anole_obs::histogram_record!(
            "omi.fallback.depth",
            anole_obs::DEPTH_BOUNDS,
            outcome.fallback_depth as f64
        );
        if self.health != previous_health {
            anole_obs::counter_add!("omi.health.transitions", 1);
        }
        anole_obs::gauge_set!("omi.health.state", self.health.index() as f64);
        if outcome.precision == Precision::Int8 {
            anole_obs::counter_add!("omi.engine.quant.frames_i8", 1);
        }
        anole_obs::gauge_set!(
            "omi.engine.quant.resident",
            self.quantized_resident() as f64
        );
        if let Some(ring) = &mut self.flight {
            let frame = self.frames_by_state.iter().sum::<usize>() - 1;
            ring.push(FlightFrame::new(frame, &outcome));
        }
        outcome
    }

    /// Moves the health ladder for one frame: a frame served at tier 2 or
    /// deeper makes the engine `Critical`, a faulted frame degrades a
    /// healthy one, and `RECOVERY_FRAMES` clean frames in a row climb one
    /// rung (back to `Healthy` only while no model is excluded).
    fn climb_ladder(&mut self, outcome: &StepOutcome) {
        if outcome.fallback_depth >= 2 {
            self.health = HealthState::Critical;
            self.clean_streak = 0;
        } else if outcome.faults > 0 {
            if self.health == HealthState::Healthy {
                self.health = HealthState::Degraded;
            }
            self.clean_streak = 0;
        } else {
            self.clean_streak += 1;
            if self.clean_streak >= RECOVERY_FRAMES {
                let excluded_any = self.excluded.iter().any(|&e| e);
                self.health = match self.health {
                    HealthState::Critical => {
                        self.clean_streak = 0;
                        HealthState::Degraded
                    }
                    HealthState::Degraded if !excluded_any => HealthState::Healthy,
                    other => other,
                };
            }
        }
    }

    /// Number of cache-resident models currently serving at int8.
    pub fn quantized_resident(&self) -> usize {
        self.cache
            .iter()
            .filter(|&id| self.system.repository().model(id).serving_precision() == Precision::Int8)
            .count()
    }

    /// Runs one frame through the full Anole pipeline.
    ///
    /// # Errors
    ///
    /// * [`AnoleError::InvalidFrame`] if `features` has the wrong width or
    ///   contains NaN/Inf values (they would poison the decision scores).
    /// * [`AnoleError::FaultExhausted`] if every model is excluded and
    ///   neither a pinned fallback nor last-good detections exist.
    pub fn step(&mut self, features: &[f32]) -> Result<StepOutcome, AnoleError> {
        self.with_own_scratch(|engine, scratch| engine.step_in(features, None, scratch))
    }

    /// As [`OnlineEngine::step`], but with this frame's raw suitability
    /// probabilities computed externally — the serving gateway stacks frames
    /// from many sessions into one batched `M_decision` forward and hands
    /// each engine its row. Because the batched decision forward is bit-
    /// identical per row to the row-vector path, `step_with_scores(x, row)`
    /// is bit-identical to `step(x)` when `row` is the engine's own scoring
    /// of `x`. Ranking, cache traffic, hedging, and latency pricing all
    /// still happen inside the engine.
    ///
    /// # Errors
    ///
    /// As [`OnlineEngine::step`], plus [`AnoleError::InvalidFrame`] when
    /// `scores` does not have one finite entry per repository model.
    pub fn step_with_scores(
        &mut self,
        features: &[f32],
        scores: &[f32],
    ) -> Result<StepOutcome, AnoleError> {
        self.with_own_scratch(|engine, scratch| engine.step_in(features, Some(scores), scratch))
    }

    /// Runs `step` on the engine's own scratch, built on first use.
    fn with_own_scratch<R>(&mut self, step: impl FnOnce(&mut Self, &mut StepScratch) -> R) -> R {
        let mut scratch = self.scratch.take().unwrap_or_else(|| Box::new(StepScratch::new()));
        let result = step(self, &mut scratch);
        self.scratch = Some(scratch);
        result
    }

    /// Rejects externally computed scores that do not hold one finite entry
    /// per repository model.
    fn check_scores(&self, scores: &[f32]) -> Result<(), AnoleError> {
        let expected = self.system.repository().len();
        if scores.len() != expected {
            return Err(AnoleError::InvalidFrame {
                detail: format!(
                    "suitability width {} but the repository holds {expected} models",
                    scores.len()
                ),
            });
        }
        if let Some(position) = scores.iter().position(|v| !v.is_finite()) {
            return Err(AnoleError::InvalidFrame {
                detail: format!("non-finite value at score {position}"),
            });
        }
        Ok(())
    }

    /// As [`OnlineEngine::step`] on the caller's scratch, or, given
    /// `external_scores`, as [`OnlineEngine::step_with_scores`].
    pub(crate) fn step_in(
        &mut self,
        features: &[f32],
        external_scores: Option<&[f32]>,
        scratch: &mut StepScratch,
    ) -> Result<StepOutcome, AnoleError> {
        if let Some(scores) = external_scores {
            self.check_scores(scores)?;
        }
        let _span = anole_obs::span!("omi.engine.step");
        self.stage_frame(features, scratch)?;
        let faults = self.absorb_faults();
        // MSS ranks, CMD picks a resident model, MI runs it. A stage that
        // finds nothing able to serve the frame hands it to a last-good
        // replay instead.
        let mut outcome = match self.mss(external_scores, &faults, scratch)? {
            None => self.replay_outcome(),
            Some(choice) => match self.cmd(&choice) {
                None => self.replay_outcome(),
                Some(cached) => self.mi(&choice, &cached, scratch)?,
            },
        };
        outcome.faults = faults.count();
        Ok(self.finish_step(outcome))
    }

    /// Draws this frame's injected faults and absorbs them: memory pressure
    /// shrinks the cache before anything touches it, a load fault arms the
    /// next load attempt (whenever that happens), and every applied fault is
    /// counted.
    fn absorb_faults(&mut self) -> FrameFaults {
        let faults = match self.injector.as_mut() {
            Some(injector) => injector.next_frame(),
            None => FrameFaults::default(),
        };
        if let Some(capacity) = faults.memory_pressure {
            self.fault_counts.memory_pressure += 1;
            anole_obs::counter_add!("omi.faults.memory_pressure", 1);
            let evicted = self.cache.set_capacity(capacity);
            anole_obs::counter_add!("omi.cache.pressure_evicted", evicted.len() as u64);
            self.pressure_evicted.extend(evicted);
        }
        if let Some(incoming) = faults.load_fault {
            self.pending_load_fault = Some(match self.pending_load_fault {
                None | Some(LoadFault::Transient) => incoming,
                Some(existing) => existing,
            });
        }
        if faults.sensor_dropout || faults.nan_frame {
            if faults.sensor_dropout {
                self.fault_counts.sensor_dropout += 1;
                anole_obs::counter_add!("omi.faults.sensor_dropout", 1);
            }
            if faults.nan_frame {
                self.fault_counts.nan_frames += 1;
                anole_obs::counter_add!("omi.faults.nan_frames", 1);
            }
        } else if faults.decision_anomaly {
            // An unusable frame never reaches the decision stage, so its
            // decision anomaly is not absorbed.
            self.fault_counts.decision_anomaly += 1;
            anole_obs::counter_add!("omi.faults.decision_anomaly", 1);
        }
        faults
    }

    /// MSS: scores the frame and requests the best non-excluded model.
    /// `None` when the frame must be replayed: it is unusable (no model can
    /// run on it, not even the decision stage), a decision anomaly hit
    /// before any trustworthy scores existed, or every model is excluded and
    /// nothing is pinned.
    ///
    /// # Errors
    ///
    /// [`AnoleError::FaultExhausted`] when every model is excluded and
    /// neither a pinned fallback nor last-good detections exist.
    fn mss(
        &mut self,
        external_scores: Option<&[f32]>,
        faults: &FrameFaults,
        scratch: &mut StepScratch,
    ) -> Result<Option<Choice>, AnoleError> {
        if faults.sensor_dropout || faults.nan_frame {
            return Ok(None);
        }
        // A decision anomaly discards this frame's garbage scores and reuses
        // the last scored vector instead of letting nonsense steer routing.
        if !faults.decision_anomaly {
            self.score(external_scores, scratch)?;
        }
        let Some(scores) = self.suitability.as_deref() else {
            return Ok(None);
        };
        match best_of(scores, (0..scores.len()).filter(|&id| !self.is_excluded(id))) {
            Some(id) => Ok(Some(Choice {
                requested: id,
                suitability: scores[id],
                pinned_only: false,
            })),
            None if self.pinned.is_none() && self.last_good.is_none() => {
                Err(AnoleError::FaultExhausted {
                    detail: format!(
                        "all {} models excluded, no pinned fallback, no last-good detections",
                        self.excluded.len()
                    ),
                })
            }
            // Every model excluded: the pinned model serves, or last-good
            // detections are replayed.
            None => Ok(self.pinned.map(|pinned| Choice {
                requested: pinned,
                suitability: 0.0,
                pinned_only: true,
            })),
        }
    }

    /// Copies this frame's suitability scores (the gateway's batched row,
    /// or the engine's own decision forward) into the reused buffer.
    fn score(
        &mut self,
        external_scores: Option<&[f32]>,
        scratch: &mut StepScratch,
    ) -> Result<(), AnoleError> {
        let current: &[f32] = match external_scores {
            Some(scores) => scores,
            None => self.system.decision().suitability_ws(&scratch.row, &mut scratch.ws)?.row(0),
        };
        let scores = self.suitability.get_or_insert_with(Vec::new);
        scores.clear();
        scores.extend_from_slice(current);
        Ok(())
    }

    /// CMD: serves the requested model from the cache (an LFU touch), or on
    /// a miss picks the best resident model and background-loads the
    /// requested one for future frames. `None` when nothing is resident and
    /// that load failed.
    fn cmd(&mut self, choice: &Choice) -> Option<Cached> {
        let requested = choice.requested;
        let mut cached = Cached { used: requested, ..Cached::default() };
        if choice.pinned_only {
            // Every model is excluded: the pinned model serves directly,
            // with no cache traffic.
            cached.fallback_depth = 2;
            return Some(cached);
        }
        if self.cache.touch(requested) || self.pinned == Some(requested) {
            cached.cache_hit = true;
            return Some(cached);
        }
        // The best resident model serves the frame: tier 1 when it is cached,
        // tier 2 when it is the pinned model. The tier is fixed here, because
        // the background load below may evict the cached model once it has
        // served this frame.
        let fallback = self.residents().fallback();
        // An injected load fault fails this load.
        let loaded = self.attempt_load(requested);
        match fallback {
            Some((id, depth)) => {
                self.cache.refresh(id);
                cached.used = id;
                cached.fallback_depth = depth;
            }
            None if loaded => {
                // Nothing resident at all: stall on the load.
                anole_obs::counter_add!("omi.load.sync_stalls", 1);
                cached.sync_load_ms = self.latency.load_ms(ReferenceModel::Yolov3Tiny);
            }
            None => return None,
        }
        Some(cached)
    }

    /// MI: runs the served model — or, on a low-confidence frame, hedges
    /// across the top-k resident models (a low top-1 suitability signals
    /// that no single well-fitting model exists, §II case 3) — prices the
    /// frame, and returns its per-frame record.
    fn mi(
        &mut self,
        choice: &Choice,
        cached: &Cached,
        scratch: &mut StepScratch,
    ) -> Result<StepOutcome, AnoleError> {
        scratch.executed.clear();
        scratch.executed.push(cached.used);
        let fuse_limit = self.models_per_frame_limit();
        let threshold = self.system.config().decision.confidence_threshold;
        if fuse_limit > 1 && choice.suitability < threshold {
            self.residents().hedge(&mut scratch.executed, fuse_limit);
        }
        let detections = self.detect(scratch)?;
        // A pinned-only frame was never ranked, so it pays no decision stage.
        let decision_ms = if choice.pinned_only {
            0.0
        } else {
            self.latency.scene_decision_ms(&mut self.rng)
        };
        let mut latency_ms = decision_ms + cached.sync_load_ms;
        for _ in &scratch.executed {
            latency_ms += self.latency.inference_ms(ReferenceModel::Yolov3Tiny, &mut self.rng);
        }
        for &id in &scratch.executed[1..] {
            self.cache.refresh(id);
        }
        Ok(StepOutcome {
            requested: choice.requested,
            used: cached.used,
            cache_hit: cached.cache_hit,
            detections,
            models_executed: scratch.executed.len(),
            latency_ms,
            suitability: choice.suitability,
            health: self.health,
            fallback_depth: cached.fallback_depth,
            faults: 0,
            precision: self.system.repository().model(cached.used).serving_precision(),
        })
    }

    /// Thresholded detections of the one executed model, or of the
    /// suitability-weighted average of the executed models' probability
    /// maps.
    fn detect(&self, scratch: &mut StepScratch) -> Result<Vec<bool>, AnoleError> {
        let StepScratch { ws, row, executed, fused } = scratch;
        let repository = self.system.repository();
        let threshold = self.system.config().detector.threshold;
        if let [id] = executed[..] {
            let probs = repository.model(id).detect_probs_ws(row, ws)?;
            return Ok(anole_detect::threshold_probs(probs.row(0), threshold));
        }
        let scores = self.suitability.as_deref().expect("set by mss");
        fused.clear();
        let mut weight_sum = 0.0f32;
        for &id in executed.iter() {
            let probs = repository.model(id).detect_probs_ws(row, ws)?;
            let w = scores[id].max(1e-6);
            if fused.is_empty() {
                fused.resize(probs.cols(), 0.0);
            }
            for (f, &p) in fused.iter_mut().zip(probs.row(0).iter()) {
                *f += w * p;
            }
            weight_sum += w;
        }
        fused.iter_mut().for_each(|f| *f /= weight_sum.max(1e-6));
        // Averaging dilutes the confident model's positives; compensate with
        // a slightly lower detection threshold on fused maps.
        Ok(anole_detect::threshold_probs(fused, threshold * 0.85))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omi::faults::{FaultKind, FaultPlan};
    use crate::AnoleConfig;
    use anole_data::{DatasetConfig, DrivingDataset};

    fn system() -> (DrivingDataset, AnoleSystem) {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(71));
        let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(72)).unwrap();
        (dataset, system)
    }

    /// The selection as MSS, CMD and MI made it before they selected: a
    /// stable sort of every id by descending score, excluded ids dropped.
    fn sorted_ranking(scores: &[f32], excluded: &[bool]) -> Vec<usize> {
        let mut ranking: Vec<usize> = (0..scores.len()).collect();
        ranking.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        ranking.retain(|&id| !excluded[id]);
        ranking
    }

    #[test]
    fn selection_matches_a_stable_sort() {
        let mut rng = rng_from_seed(Seed(0x5E1EC7));
        let mut hedged = 0;
        for case in 0..4000 {
            let width = rng.usize(1..25);
            // Few distinct values force ties, and ±0.0 must tie with each
            // other.
            let pool = [0.0, -0.0, 0.25, 0.5, rng.f32_in(-1.0..1.0), rng.f32()];
            let scores: Vec<f32> = (0..width)
                .map(|_| if rng.gen_bool(0.6) { pool[rng.usize(0..pool.len())] } else { rng.f32() })
                .collect();
            let mut excluded: Vec<bool> = (0..width).map(|_| rng.gen_bool(0.3)).collect();
            let pinned = rng.gen_bool(0.5).then(|| rng.usize(0..width));
            if let Some(pinned) = pinned {
                excluded[pinned] = false; // the pinned model is never excluded
            }
            // Inserted in random order, so the scans do not visit the
            // resident ids by ascending id.
            let mut resident_ids: Vec<usize> = (0..width).filter(|_| rng.gen_bool(0.4)).collect();
            rng.shuffle(&mut resident_ids);
            let mut cache = SlotCache::new(width, anole_cache::EvictionPolicy::Lfu);
            for &id in &resident_ids {
                cache.insert(id);
            }
            let limit = rng.usize(1..5);
            let at = format!("case {case}: {scores:?} excluded {excluded:?} pinned {pinned:?}");

            let ranking = sorted_ranking(&scores, &excluded);
            let requested = best_of(&scores, (0..width).filter(|&id| !excluded[id]));
            assert_eq!(requested, ranking.first().copied(), "{at}");

            let resident = |id: usize| cache.contains(id) || pinned == Some(id);
            let residents = Residents {
                scores: &scores,
                excluded: &excluded,
                cache: &cache,
                pinned,
            };
            let fallback = ranking
                .iter()
                .copied()
                .find(|&id| resident(id))
                .map(|id| (id, if cache.contains(id) { 1 } else { 2 }));
            assert_eq!(residents.fallback(), fallback, "{at}");

            // MI hedges around the model that served: the fallback on a
            // miss, or the request itself.
            let Some(used) = fallback.map(|(id, _)| id).or(requested) else {
                continue;
            };
            let mut expected = vec![used];
            for &id in &ranking {
                if expected.len() >= limit {
                    break;
                }
                if id != used && resident(id) {
                    expected.push(id);
                }
            }
            let mut executed = vec![used];
            residents.hedge(&mut executed, limit);
            assert_eq!(executed, expected, "{at} limit {limit}");
            hedged += usize::from(executed.len() > 2);
        }
        assert!(hedged > 100, "too few hedges of three or more models: {hedged}");
    }

    #[test]
    fn step_produces_consistent_outcome() {
        let (dataset, system) = system();
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(73));
        let split = dataset.split();
        let frame = dataset.frame(split.test[0]);
        let out = engine.step(&frame.features).unwrap();
        assert!(out.requested < system.repository().len());
        assert!(out.used < system.repository().len());
        assert_eq!(out.detections.len(), dataset.config().world.grid.cells());
        assert!(out.latency_ms > 0.0);
        assert!(out.suitability > 0.0 && out.suitability <= 1.0);
        assert_eq!(out.health, HealthState::Healthy);
        assert_eq!(out.faults, 0);
        assert_eq!(engine.served_frames, 1);
    }

    #[test]
    fn first_step_on_cold_cache_is_a_synchronous_load() {
        let (dataset, system) = system();
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonNano, Seed(74));
        let split = dataset.split();
        let frame = dataset.frame(split.test[0]);
        let out = engine.step(&frame.features).unwrap();
        assert!(!out.cache_hit);
        assert_eq!(out.used, out.requested);
        assert_eq!(out.fallback_depth, 0);
        // Nano loads 34 MB at 80 MB/s → ~425 ms stall.
        assert!(out.latency_ms > 300.0, "latency {}", out.latency_ms);
    }

    #[test]
    fn warm_cache_avoids_the_stall() {
        let (dataset, system) = system();
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(75));
        engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
        let split = dataset.split();
        let frame = dataset.frame(split.test[0]);
        let out = engine.step(&frame.features).unwrap();
        assert!(out.cache_hit || out.used != out.requested || out.latency_ms < 100.0);
        // Paper: ~13.9 ms on TX2 (3.1 decision + 10.8 tiny); with the
        // default top-2 hedge a frame costs at most 3.1 + 2 x 10.8 ms.
        assert!(out.latency_ms < 40.0, "latency {}", out.latency_ms);
    }

    #[test]
    fn misses_fall_back_to_best_cached_model() {
        let (dataset, mut system) = system();
        if system.repository().len() < 2 {
            return; // cannot exercise fallback with a single model
        }
        let mut cache_cfg = system.config().cache;
        cache_cfg.capacity = 1;
        system.set_cache_config(cache_cfg);
        // No pinned model and no faults: every miss after the first frame is
        // served by the one cached model, which the background load of the
        // requested model then evicts. That is still a cached fallback
        // (tier 1), and the engine stays healthy.
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(76));
        let test = dataset.split().test;
        let mut fallbacks = 0;
        for &r in &test {
            let out = engine.step(&dataset.frame(r).features).unwrap();
            assert!(out.fallback_depth <= 1, "depth {}", out.fallback_depth);
            assert_eq!(out.health, HealthState::Healthy);
            fallbacks += usize::from(out.fallback_depth == 1);
        }
        let stats = engine.cache_stats();
        assert!(fallbacks > 0, "fallback path never exercised: {stats}");
        assert_eq!(stats.lookups(), test.len() as u64);
        let report = engine.health_report();
        assert_eq!(report.fallback_depths[1], fallbacks);
        assert_eq!(report.frames_by_state, [report.frames, 0, 0]);
    }

    #[test]
    fn latency_budget_bounds_models_per_frame() {
        let (dataset, system) = system();
        let split = dataset.split();

        // A budget below one tiny inference still runs one model.
        let mut tight = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(80))
            .with_latency_budget(8.0);
        assert_eq!(tight.models_per_frame_limit(), 1);
        tight.warm(&(0..system.repository().len()).collect::<Vec<_>>());
        for r in split.test.iter().take(40) {
            let out = tight.step(&dataset.frame(*r).features).unwrap();
            assert_eq!(out.models_executed, 1);
        }
        // Mean within ~budget plus the decision stage floor.
        assert!(tight.mean_latency_ms() < 16.0, "{}", tight.mean_latency_ms());

        // A generous budget allows up to the clamp of 4.
        let roomy = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(81))
            .with_latency_budget(50.0);
        assert_eq!(roomy.models_per_frame_limit(), 4);

        // No budget: the configured hedge_top_k applies.
        let default = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(82));
        assert_eq!(
            default.models_per_frame_limit(),
            system.config().decision.hedge_top_k
        );
    }

    #[test]
    fn budgeted_engine_stays_under_budget_on_average() {
        let (dataset, system) = system();
        let split = dataset.split();
        for budget in [15.0f32, 26.0, 40.0] {
            let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(83))
                .with_latency_budget(budget);
            engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
            for r in split.test.iter().take(60) {
                engine.step(&dataset.frame(*r).features).unwrap();
            }
            assert!(
                engine.mean_latency_ms() <= budget * 1.1,
                "budget {budget}: mean {}",
                engine.mean_latency_ms()
            );
        }
    }

    #[test]
    #[should_panic(expected = "latency budget must be positive")]
    fn zero_budget_is_rejected() {
        let (_, system) = system();
        let _ = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(84))
            .with_latency_budget(0.0);
    }

    #[test]
    fn served_frame_count_tracks_every_step() {
        let (dataset, system) = system();
        let mut engine = OnlineEngine::new(&system, DeviceKind::Laptop, Seed(77));
        let split = dataset.split();
        for r in split.test.iter().take(20) {
            let out = engine.step(&dataset.frame(*r).features).unwrap();
            assert!(out.used < system.repository().len());
            assert_eq!(engine.last_used, Some(out.used));
        }
        assert_eq!(engine.served_frames, 20);
    }

    #[test]
    fn wrong_width_and_non_finite_frames_are_rejected() {
        let (dataset, system) = system();
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(170));
        let frame = dataset.frame(dataset.split().test[0]);

        let err = engine.step(&frame.features[..frame.features.len() - 1]).unwrap_err();
        assert!(matches!(err, AnoleError::InvalidFrame { .. }), "{err}");
        assert!(err.to_string().contains("feature width"));

        let mut poisoned = frame.features.clone();
        poisoned[2] = f32::NAN;
        let err = engine.step(&poisoned).unwrap_err();
        assert!(matches!(err, AnoleError::InvalidFrame { .. }), "{err}");
        assert!(err.to_string().contains("feature 2"));

        let mut inf = frame.features.clone();
        inf[0] = f32::INFINITY;
        assert!(engine.step(&inf).is_err());
        // Rejected frames leave no trace in the engine.
        assert_eq!(engine.served_frames, 0);
        assert_eq!(engine.health_report().frames, 0);
    }

    #[test]
    fn zero_fault_injector_is_bit_identical_to_plain_engine() {
        let (dataset, system) = system();
        let split = dataset.split();
        let mut plain = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(200));
        let mut chaos = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(200))
            .with_fault_injector(FaultPlan::new(Seed(201)).injector());
        for r in split.test.iter().take(40) {
            let features = &dataset.frame(*r).features;
            let a = plain.step(features).unwrap();
            let b = chaos.step(features).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(plain.cache_stats(), chaos.cache_stats());
        assert_eq!(chaos.health(), HealthState::Healthy);
        assert_eq!(chaos.health_report().faults.total(), 0);
    }

    #[test]
    fn sensor_dropout_replays_last_good_detections() {
        let (dataset, system) = system();
        let split = dataset.split();
        let plan = FaultPlan::new(Seed(210)).at(1, FaultKind::SensorDropout);
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(211))
            .with_fault_injector(plan.injector());
        engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());

        let good = engine.step(&dataset.frame(split.test[0]).features).unwrap();
        let dropped = engine.step(&dataset.frame(split.test[1]).features).unwrap();
        assert_eq!(dropped.models_executed, 0);
        assert_eq!(dropped.fallback_depth, 3);
        assert_eq!(dropped.detections, good.detections);
        assert_eq!(dropped.health, HealthState::Critical);
        assert_eq!(dropped.faults, 1);
        // The dropped frame ran no model.
        assert_eq!(engine.served_frames, 1);
        let report = engine.health_report();
        assert_eq!(report.faults.sensor_dropout, 1);
        assert_eq!(report.fallback_depths[3], 1);
        assert_eq!(report.frames, 2);
    }

    #[test]
    fn first_frame_dropout_serves_all_clear() {
        let (dataset, system) = system();
        let plan = FaultPlan::new(Seed(212)).at(0, FaultKind::NanFrame);
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(213))
            .with_fault_injector(plan.injector());
        let out = engine.step(&dataset.frame(dataset.split().test[0]).features).unwrap();
        assert!(out.detections.iter().all(|&d| !d));
        assert_eq!(out.models_executed, 0);
        assert_eq!(engine.health_report().faults.nan_frames, 1);
    }

    #[test]
    fn memory_pressure_shrinks_the_cache_mid_stream() {
        let (dataset, system) = system();
        let split = dataset.split();
        let plan = FaultPlan::new(Seed(220)).at(5, FaultKind::MemoryPressure { capacity: 1 });
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(221))
            .with_fault_injector(plan.injector());
        engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
        for r in split.test.iter().take(12) {
            engine.step(&dataset.frame(*r).features).unwrap();
        }
        assert!(engine.cache_stats().evictions as usize >= system.repository().len() - 1);
        assert_eq!(engine.health_report().faults.memory_pressure, 1);
        assert!(engine.health_report().frames_by_state[1] > 0, "never degraded");
    }

    #[test]
    fn permanent_load_failures_exclude_models_and_pinned_survives() {
        let (dataset, system) = system();
        if system.repository().len() < 2 {
            return;
        }
        let split = dataset.split();
        // Pin a model that is NOT the first frame's top pick, so the first
        // request is guaranteed to go through the (failing) load path.
        let top = {
            let mut probe = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(229));
            probe.step(&dataset.frame(split.test[0]).features).unwrap().requested
        };
        let pinned = (top + 1) % system.repository().len();
        let plan = FaultPlan::new(Seed(230)).with_permanent_load_rate(1.0);
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(231))
            .with_fault_injector(plan.injector())
            .with_pinned_fallback(pinned);
        // Cold cache + every load failing: the engine must keep serving.
        let mut outcomes = Vec::new();
        for r in split.test.iter().take(40) {
            outcomes.push(engine.step(&dataset.frame(*r).features).unwrap());
        }
        let report = engine.health_report();
        assert!(report.faults.permanent_load > 0);
        assert!(report.excluded_models.contains(&top));
        // The pinned model is immune to exclusion.
        assert!(!engine.is_excluded(pinned));
        assert!(!report.excluded_models.contains(&pinned));
        // Every frame was still served, some by the pinned fallback.
        assert_eq!(outcomes.len(), 40);
        assert!(outcomes.iter().all(|o| !o.detections.is_empty()));
        assert!(outcomes.iter().any(|o| o.fallback_depth >= 2));
        // The first frame already fell through to the pinned tier, and with
        // faults on every frame the engine never recovers from Critical.
        assert_eq!(engine.health(), HealthState::Critical);
    }

    #[test]
    fn exhaustion_without_any_fallback_is_a_typed_error() {
        let (dataset, system) = system();
        let split = dataset.split();
        let plan = FaultPlan::new(Seed(240)).with_permanent_load_rate(1.0);
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(241))
            .with_fault_injector(plan.injector());
        // No pinned fallback, no warm cache, no last-good: every step fails
        // its load until all models are excluded, then the engine reports
        // exhaustion instead of panicking.
        let mut saw_exhaustion = false;
        for r in split.test.iter().take(system.repository().len() + 2) {
            match engine.step(&dataset.frame(*r).features) {
                Ok(out) => assert_eq!(out.models_executed, 0),
                Err(AnoleError::FaultExhausted { .. }) => {
                    saw_exhaustion = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(saw_exhaustion, "exhaustion never surfaced");
    }

    #[test]
    fn transient_failure_is_retried_until_the_load_succeeds() {
        let (dataset, system) = system();
        if system.repository().len() < 2 {
            return;
        }
        let split = dataset.split();
        // A scheduled transient failure on the very first load (the cold
        // cache guarantees frame 0 loads, because the pinned model is picked
        // to differ from frame 0's top-ranked request); with a zero
        // transient *rate* the first retry succeeds deterministically.
        let top = {
            let mut probe = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(249));
            probe.step(&dataset.frame(split.test[0]).features).unwrap().requested
        };
        let plan = FaultPlan::new(Seed(250)).at(0, FaultKind::TransientLoadFailure);
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(251))
            .with_fault_injector(plan.injector())
            .with_pinned_fallback((top + 1) % system.repository().len());
        for r in split.test.iter().take(60) {
            engine.step(&dataset.frame(*r).features).unwrap();
        }
        let report = engine.health_report();
        assert_eq!(report.faults.transient_load, 1);
        assert!(report.retries > 0, "no retries happened");
        assert_eq!(report.load_strikes, 0, "the retry should have succeeded");
    }

    #[test]
    fn corrupt_first_load_serves_no_model_and_excludes_it() {
        let (dataset, system) = system();
        let split = dataset.split();
        let plan = FaultPlan::new(Seed(260)).at(0, FaultKind::BundleCorruption);
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(261))
            .with_fault_injector(plan.injector());
        let first = engine.step(&dataset.frame(split.test[0]).features).unwrap();
        assert_eq!(first.models_executed, 0, "corrupt first load must not serve a model");
        let report = engine.health_report();
        assert_eq!(report.faults.bundle_corruption, 1);
        assert_eq!(report.excluded_models.len(), 1);
        assert!(engine.is_excluded(report.excluded_models[0]));
    }

    #[test]
    fn step_with_scores_matches_step_bit_for_bit() {
        use anole_nn::Workspace;

        let (dataset, system) = system();
        let split = dataset.split();
        let mut plain = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(300));
        let mut external = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(300));
        plain.warm(&(0..system.repository().len()).collect::<Vec<_>>());
        external.warm(&(0..system.repository().len()).collect::<Vec<_>>());
        let mut ws = Workspace::new();
        for r in split.test.iter().take(40) {
            let features = &dataset.frame(*r).features;
            let row = Matrix::row_vector(features);
            let scores =
                system.decision().suitability_ws(&row, &mut ws).unwrap().row(0).to_vec();
            let a = plain.step(features).unwrap();
            let b = external.step_with_scores(features, &scores).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(plain.cache_stats(), external.cache_stats());
        assert_eq!(plain.mean_latency_ms(), external.mean_latency_ms());
        assert_eq!(
            (plain.served_frames, plain.last_used),
            (external.served_frames, external.last_used)
        );

        // A wrong-width score vector is rejected, not misread.
        let frame = dataset.frame(split.test[0]);
        let err = external.step_with_scores(&frame.features, &[0.5]).unwrap_err();
        assert!(matches!(err, AnoleError::InvalidFrame { .. }), "{err}");
        // So is a non-finite score, which the ranking order cannot place.
        let n = system.repository().len();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut scores = vec![0.5f32; n];
            scores[n - 1] = bad;
            let err = external.step_with_scores(&frame.features, &scores).unwrap_err();
            assert!(matches!(err, AnoleError::InvalidFrame { .. }), "{err}");
            assert!(err.to_string().contains(&format!("score {}", n - 1)), "{err}");
        }
        // Rejected frames leave no trace in the engine.
        assert_eq!(
            (external.served_frames, external.last_used),
            (plain.served_frames, plain.last_used)
        );
        assert_eq!(external.cache_stats(), plain.cache_stats());
    }

    #[test]
    fn disabled_loads_ride_the_fallback_chain() {
        let (dataset, system) = system();
        let split = dataset.split();
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(310))
            .with_pinned_fallback(0);
        assert!(engine.loads_enabled);
        engine.set_loads_enabled(false);
        // Cold cache + loads disabled: every frame is served by the pinned
        // fallback (directly, or at depth 0 when the pinned model is the
        // top pick), and no load is ever attempted or priced.
        for r in split.test.iter().take(20) {
            let out = engine.step(&dataset.frame(*r).features).unwrap();
            assert!(
                out.fallback_depth >= 2 || out.used == 0,
                "depth {} used {}",
                out.fallback_depth,
                out.used
            );
        }
        assert_eq!(engine.load_attempt_count(), 0);
        assert_eq!(engine.load_failure_count(), 0);
        assert_eq!(engine.cache_stats().insertions, 0);
        // Re-enabling loads resumes normal operation.
        engine.set_loads_enabled(true);
        for r in split.test.iter().take(20) {
            engine.step(&dataset.frame(*r).features).unwrap();
        }
        assert!(engine.load_attempt_count() > 0);
        assert!(engine.cache_stats().insertions > 0);
    }

    #[test]
    fn pressure_evictions_are_accounted_not_dropped() {
        let (dataset, system) = system();
        if system.repository().len() < 2 {
            return;
        }
        let split = dataset.split();
        let plan = FaultPlan::new(Seed(320)).at(3, FaultKind::MemoryPressure { capacity: 1 });
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(321))
            .with_fault_injector(plan.injector());
        engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
        for r in split.test.iter().take(8) {
            engine.step(&dataset.frame(*r).features).unwrap();
        }
        // `warm` fills the cache up to its capacity, and a miss before the
        // pressure event swaps one resident model for another, so the
        // squeeze to capacity 1 evicts all but one of the resident models.
        let resident = system.repository().len().min(system.config().cache.capacity);
        let evicted = engine.pressure_evicted();
        assert_eq!(evicted.len(), resident - 1);
        assert_eq!(engine.cache_stats().capacity_evictions as usize, evicted.len());
        assert_eq!(engine.health_report().pressure_evicted, evicted);
        // Pressure evictions are a subset of total evictions.
        assert!(engine.cache_stats().evictions >= engine.cache_stats().capacity_evictions);
    }

    /// A fast-config system whose every model passed the quantization gate
    /// (ε = 1.0 admits any finite F1 delta; these tests exercise the serving
    /// plumbing, not the gate itself).
    fn quantized_system(data_seed: u64, train_seed: u64) -> (DrivingDataset, AnoleSystem) {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(data_seed));
        let mut cfg = AnoleConfig::fast();
        cfg.quant.epsilon_f1 = 1.0;
        let mut system = AnoleSystem::train(&dataset, &cfg, Seed(train_seed)).unwrap();
        let report = system.quantize_models(&dataset).unwrap();
        assert_eq!(report.accepted.len(), system.repository().len());
        assert!(report.decision_quantized);
        (dataset, system)
    }

    #[test]
    fn outcome_precision_tracks_the_serving_model() {
        let (dataset, system) = quantized_system(330, 331);
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(332));
        engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
        let split = dataset.split();
        for r in split.test.iter().take(20) {
            let out = engine.step(&dataset.frame(*r).features).unwrap();
            assert_eq!(
                out.precision,
                system.repository().model(out.used).serving_precision()
            );
            assert_eq!(out.precision, Precision::Int8);
        }
        assert_eq!(engine.quantized_resident(), engine.cache.len());
    }

    #[test]
    fn quantized_models_pack_denser_under_a_byte_budget() {
        let (dataset, mut int8) = quantized_system(340, 341);
        if int8.repository().len() < 4 {
            return; // too few specialists to demonstrate 3× packing
        }
        // The f32 twin of the same system: same nets, no quantized models.
        let mut fp32 = {
            let mut cfg = AnoleConfig::fast();
            cfg.quant.epsilon_f1 = 1.0;
            AnoleSystem::train(&dataset, &cfg, Seed(341)).unwrap()
        };
        let model_bytes = fp32.repository().model(0).serving_bytes();
        assert!(int8.repository().model(0).serving_bytes() * 3 < model_bytes);

        // A budget that fits exactly one f32 specialist.
        let cache_cfg = crate::CacheConfig {
            capacity: 64,
            byte_budget: Some(model_bytes + model_bytes / 3),
            ..crate::CacheConfig::default()
        };
        fp32.set_cache_config(cache_cfg);
        int8.set_cache_config(cache_cfg);

        let all: Vec<usize> = (0..fp32.repository().len()).collect();
        let mut e_fp = OnlineEngine::new(&fp32, DeviceKind::JetsonTx2Nx, Seed(342));
        let mut e_i8 = OnlineEngine::new(&int8, DeviceKind::JetsonTx2Nx, Seed(342));
        e_fp.warm(&all);
        e_i8.warm(&all);
        assert_eq!(e_fp.cache.len(), 1, "budget sized for one f32 model");
        assert!(
            e_i8.cache.len() >= 3 * e_fp.cache.len(),
            "int8 {} vs fp32 {} resident at the same byte budget",
            e_i8.cache.len(),
            e_fp.cache.len()
        );
        assert_eq!(e_i8.quantized_resident(), e_i8.cache.len());
        assert_eq!(e_fp.quantized_resident(), 0);
        let budget = cache_cfg.byte_budget.unwrap();
        assert!(e_fp.cache_stats().resident_bytes <= budget);
        assert!(e_i8.cache_stats().resident_bytes <= budget);
    }

    #[test]
    fn engine_recovers_health_after_a_fault_burst() {
        let (dataset, system) = system();
        let split = dataset.split();
        // One dropout burst early, then a clean stream.
        let plan = FaultPlan::new(Seed(270))
            .at(2, FaultKind::SensorDropout)
            .at(3, FaultKind::SensorDropout);
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(271))
            .with_fault_injector(plan.injector());
        engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
        for r in split.test.iter().take(40) {
            engine.step(&dataset.frame(*r).features).unwrap();
        }
        // Dropouts made it Critical; the clean tail walks it back to
        // Healthy (no models were excluded).
        assert_eq!(engine.health(), HealthState::Healthy);
        let report = engine.health_report();
        assert!(report.frames_by_state[2] > 0, "never critical");
        assert!(report.frames_by_state[0] > 0, "never recovered");
        assert!(report.excluded_models.is_empty());
    }

    #[test]
    fn per_frame_records_agree_with_the_returned_outcomes() {
        let (dataset, system) = system();
        let n = system.repository().len();
        if n < 3 {
            return; // tier 1 needs a cached model besides `top` and the pinned one
        }
        let test = dataset.split().test;
        // Frame 0 requests `top`; the pinned model is its least suitable
        // one, so every cached model outranks it. With everything but those
        // two warm, frame 0 falls back to a cached model (tier 1); once
        // memory pressure empties the cache for good, misses fall through
        // to the pinned model (tier 2); a dropout replays last-good
        // detections (tier 3); the frames in between mostly hit (tier 0).
        let top = {
            let mut probe = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(479));
            probe.step(&dataset.frame(test[0]).features).unwrap().requested
        };
        let first = Matrix::row_vector(&dataset.frame(test[0]).features);
        let scores = system.decision().suitability(&first).unwrap();
        let row = scores.row(0);
        let pinned = (0..n).min_by(|&a, &b| row[a].total_cmp(&row[b])).unwrap();
        let plan = FaultPlan::new(Seed(480))
            .at(3, FaultKind::SensorDropout)
            .at(10, FaultKind::DecisionAnomaly)
            .at(20, FaultKind::TransientLoadFailure)
            .at(30, FaultKind::PermanentLoadFailure)
            .at(40, FaultKind::MemoryPressure { capacity: 0 });
        let ring = 16;
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(481))
            .with_fault_injector(plan.injector())
            .with_pinned_fallback(pinned)
            .with_flight_recorder(ring);
        let warm: Vec<usize> = (0..n).filter(|&id| id != top && id != pinned).collect();
        engine.warm(&warm);
        let outcomes: Vec<StepOutcome> =
            test.iter().map(|&r| engine.step(&dataset.frame(r).features).unwrap()).collect();
        assert_eq!(outcomes[0].fallback_depth, 1);

        let mut depths = [0usize; 4];
        let mut states = [0usize; 3];
        for o in &outcomes {
            depths[o.fallback_depth] += 1;
            states[o.health.index()] += 1;
        }
        assert!(depths.iter().all(|&d| d > 0), "a fallback tier was never reached: {depths:?}");
        let report = engine.health_report();
        assert_eq!(report.frames, outcomes.len());
        assert_eq!(report.fallback_depths, depths);
        assert_eq!(report.frames_by_state, states);

        // Model-served frames feed the served count, last model, latency
        // mean, hedge rate and last-good detections; replayed frames feed
        // none of them.
        let served: Vec<&StepOutcome> = outcomes.iter().filter(|o| o.models_executed > 0).collect();
        assert_eq!(engine.served_frames, served.len());
        assert_eq!(engine.last_used, served.last().map(|o| o.used));
        let total_ms: f64 = served.iter().map(|o| o.latency_ms as f64).sum();
        assert_eq!(engine.mean_latency_ms(), (total_ms / served.len() as f64) as f32);
        let hedged = served.iter().filter(|o| o.models_executed > 1).count();
        assert_eq!(engine.hedge_rate(), hedged as f32 / served.len() as f32);
        assert_eq!(engine.last_good(), served.last().map(|o| o.detections.as_slice()));

        // The flight ring holds the last `ring` outcomes.
        let record = engine.flight_record().unwrap();
        assert_eq!(record.frames_seen, outcomes.len() as u64);
        assert_eq!(record.frames.len(), ring);
        let first = outcomes.len() - ring;
        for (i, (f, o)) in record.frames.iter().zip(&outcomes[first..]).enumerate() {
            let expected = FlightFrame {
                frame: (first + i) as u32,
                requested: o.requested as u16,
                used: o.used as u16,
                cache_hit: o.cache_hit,
                fallback_depth: o.fallback_depth as u8,
                models_executed: o.models_executed as u8,
                faults: o.faults as u8,
                health: o.health,
                precision: o.precision,
                latency_ms: o.latency_ms,
                suitability: o.suitability,
            };
            assert_eq!(*f, expected);
        }

        // Telemetry stores the same event per frame as the ring.
        let mut telemetry = crate::omi::Telemetry::new();
        for o in &outcomes {
            telemetry.record(o, None);
        }
        let events: Vec<FlightFrame> = telemetry.records()[first..]
            .iter()
            .map(|r| r.event)
            .collect();
        assert_eq!(events, record.frames);
    }

    #[test]
    fn flight_recorder_is_bounded_and_strictly_passive() {
        let (dataset, system) = system();
        let split = dataset.split();
        let mut plain = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(450));
        let mut recorded = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(450))
            .with_flight_recorder(4);
        assert!(plain.flight_record().is_none());
        let frames = 12;
        for r in split.test.iter().take(frames) {
            let a = plain.step(&dataset.frame(*r).features).unwrap();
            let b = recorded.step(&dataset.frame(*r).features).unwrap();
            assert_eq!(a, b, "an armed recorder must not perturb serving");
        }
        let record = recorded.flight_record().unwrap();
        assert_eq!(record.capacity, 4);
        assert_eq!(record.frames_seen, frames as u64);
        assert_eq!(record.frames.len(), 4, "ring keeps only the last K frames");
        let indices: Vec<u32> = record.frames.iter().map(|f| f.frame).collect();
        assert_eq!(indices, vec![8, 9, 10, 11]);
        assert_eq!(record.drift_state, DriftState::Nominal);
    }

    #[test]
    fn an_unbounded_flight_recorder_keeps_every_frame() {
        let (dataset, system) = system();
        let split = dataset.split();
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(455))
            .with_flight_recorder(usize::MAX);
        for r in split.test.iter().take(20) {
            engine.step(&dataset.frame(*r).features).unwrap();
        }
        let record = engine.flight_record().unwrap();
        assert_eq!(record.capacity, usize::MAX);
        assert_eq!(record.frames_seen, 20);
        let indices: Vec<u32> = record.frames.iter().map(|f| f.frame).collect();
        assert_eq!(indices, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn flight_recorder_retains_the_fault_frames() {
        let (dataset, system) = system();
        let split = dataset.split();
        let plan = FaultPlan::new(Seed(460))
            .at(2, FaultKind::SensorDropout)
            .at(3, FaultKind::SensorDropout);
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(461))
            .with_fault_injector(plan.injector())
            .with_flight_recorder(8);
        for r in split.test.iter().take(6) {
            engine.step(&dataset.frame(*r).features).unwrap();
        }
        let record = engine.flight_record().unwrap();
        let faulted: Vec<u32> = record
            .frames
            .iter()
            .filter(|f| f.faults > 0)
            .map(|f| f.frame)
            .collect();
        assert_eq!(faulted, vec![2, 3], "the injected frames are in the ring");
        let text = record.render();
        assert!(text.starts_with("# flight: last 6 of 6 frames"));
        assert_eq!(text.lines().count(), 2 + 6, "header + one line per frame");
    }

    #[test]
    fn zero_capacity_flight_recorder_stays_off() {
        let (dataset, system) = system();
        let split = dataset.split();
        let mut engine = OnlineEngine::new(&system, DeviceKind::JetsonTx2Nx, Seed(470))
            .with_flight_recorder(0);
        engine.step(&dataset.frame(split.test[0]).features).unwrap();
        assert!(engine.flight_record().is_none());
    }
}
