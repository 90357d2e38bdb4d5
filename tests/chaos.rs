//! Chaos harness: the online pipeline under injected faults.
//!
//! Streams clips through `run_realtime` while a seeded `FaultPlan` injects
//! model-load failures, sensor dropouts, NaN frames, memory pressure, and
//! decision anomalies. The engine must never panic, must surface its health
//! through telemetry, and must degrade gracefully: stream F1 under faults
//! stays above a pinned-fallback-model-only baseline, and a zero-fault plan
//! leaves every output bit-identical to an un-instrumented engine.

use std::sync::OnceLock;

use anole::core::omi::{
    run_realtime, FaultKind, FaultPlan, FrameProcessor, HealthState, OnlineEngine, Telemetry,
};
use anole::core::{AnoleConfig, AnoleError, AnoleSystem};
use anole::data::{DatasetConfig, DatasetSource, DrivingDataset, Frame};
use anole::device::{DeviceKind, LatencyModel};
use anole::nn::ReferenceModel;
use anole::tensor::{rng_from_seed, Seed, StdRng};

/// Training dominates test time; every test shares one trained system.
fn world() -> &'static (DrivingDataset, AnoleSystem) {
    static WORLD: OnceLock<(DrivingDataset, AnoleSystem)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(9001));
        let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(9002)).unwrap();
        (dataset, system)
    })
}

fn test_frames(dataset: &DrivingDataset, n: usize) -> Vec<Frame> {
    dataset
        .split()
        .test
        .iter()
        .take(n)
        .map(|&r| dataset.frame(r).clone())
        .collect()
}

/// An engine streamed through `run_realtime` while logging telemetry.
struct TelemetryProcessor<'a> {
    engine: OnlineEngine<'a>,
    telemetry: Telemetry,
}

impl FrameProcessor for TelemetryProcessor<'_> {
    fn process(
        &mut self,
        frame: &Frame,
        _source: DatasetSource,
    ) -> Result<(Vec<bool>, f32), AnoleError> {
        let outcome = self.engine.step(&frame.features)?;
        self.telemetry.record(&outcome, Some(&frame.truth));
        Ok((outcome.detections, outcome.latency_ms))
    }
}

/// The degenerate deployment the fallback chain bottoms out at: one fixed
/// compressed model for every frame, no routing, no cache.
struct PinnedOnly<'a> {
    system: &'a AnoleSystem,
    model: usize,
    latency: LatencyModel,
    rng: StdRng,
}

impl<'a> PinnedOnly<'a> {
    fn new(system: &'a AnoleSystem, model: usize, device: DeviceKind, seed: Seed) -> Self {
        Self {
            system,
            model,
            latency: LatencyModel::for_device(device),
            rng: rng_from_seed(seed),
        }
    }
}

impl FrameProcessor for PinnedOnly<'_> {
    fn process(
        &mut self,
        frame: &Frame,
        _source: DatasetSource,
    ) -> Result<(Vec<bool>, f32), AnoleError> {
        let threshold = self.system.config().detector.threshold;
        let detections = self
            .system
            .repository()
            .model(self.model)
            .detect(&frame.features, threshold)?;
        let ms = self.latency.inference_ms(ReferenceModel::Yolov3Tiny, &mut self.rng);
        Ok((detections, ms))
    }
}

fn chaos_engine<'a>(system: &'a AnoleSystem, plan: FaultPlan, seed: Seed) -> OnlineEngine<'a> {
    let mut engine = system
        .online_engine(DeviceKind::JetsonTx2Nx, seed)
        .with_fault_injector(plan.injector())
        .with_pinned_fallback(0);
    engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
    engine
}

/// ISSUE acceptance: ≥10% model-load failure plus one mid-stream
/// memory-pressure event. The stream completes without panicking, telemetry
/// reports `Degraded` health, and stream F1 beats running the pinned
/// fallback model alone.
#[test]
fn survives_load_failures_and_memory_pressure_above_pinned_baseline() {
    let (dataset, system) = world();
    let frames = test_frames(dataset, 150);

    let plan = FaultPlan::new(Seed(31))
        .with_transient_load_rate(0.12)
        .at(40, FaultKind::MemoryPressure { capacity: 2 });
    let mut chaos = TelemetryProcessor {
        engine: chaos_engine(system, plan, Seed(32)),
        telemetry: Telemetry::new(),
    };
    let report = run_realtime(&mut chaos, &frames, DatasetSource::Shd, 30.0).unwrap();
    assert_eq!(report.frames_offered, frames.len());
    assert!(report.frames_processed > 0);

    // Health is surfaced through telemetry, not just the engine.
    assert!(chaos.telemetry.degraded_frames() > 0, "no degraded frames recorded");
    assert!(
        chaos.telemetry.records().iter().any(|r| r.event.health == HealthState::Degraded),
        "telemetry never reported Degraded"
    );
    assert!(chaos.telemetry.fault_total() > 0);
    let health = chaos.engine.health_report();
    assert!(health.faults.transient_load > 0, "no load faults applied: {health}");
    assert_eq!(health.faults.memory_pressure, 1);

    // Graceful degradation still beats the pinned-model-only deployment.
    let mut pinned_only = PinnedOnly::new(system, 0, DeviceKind::JetsonTx2Nx, Seed(33));
    let baseline = run_realtime(&mut pinned_only, &frames, DatasetSource::Shd, 30.0).unwrap();
    assert!(
        report.stream_f1 > baseline.stream_f1,
        "chaos anole {} vs pinned-only {}",
        report.stream_f1,
        baseline.stream_f1
    );
}

/// Escalating fault schedules: every level completes, and stream F1 decays
/// monotonically-ish (generous slack for simulation noise) as faults ramp
/// from none to brutal.
#[test]
fn escalating_fault_schedules_degrade_f1_without_panics() {
    let (dataset, system) = world();
    let frames = test_frames(dataset, 120);

    let levels: Vec<FaultPlan> = vec![
        FaultPlan::new(Seed(41)),
        FaultPlan::new(Seed(42))
            .with_transient_load_rate(0.08)
            .with_sensor_dropout_rate(0.05),
        FaultPlan::new(Seed(43))
            .with_transient_load_rate(0.15)
            .with_sensor_dropout_rate(0.05)
            .with_nan_frame_rate(0.02)
            .at(40, FaultKind::MemoryPressure { capacity: 2 }),
        FaultPlan::new(Seed(44))
            .with_transient_load_rate(0.25)
            .with_permanent_load_rate(0.05)
            .with_sensor_dropout_rate(0.12)
            .with_nan_frame_rate(0.05)
            .with_decision_anomaly_rate(0.05)
            .at(30, FaultKind::MemoryPressure { capacity: 1 })
            .at(60, FaultKind::BundleCorruption),
    ];

    let mut f1s = Vec::new();
    for (level, plan) in levels.into_iter().enumerate() {
        let zero = plan.is_zero_fault();
        let mut engine = chaos_engine(system, plan, Seed(45));
        let report = run_realtime(&mut engine, &frames, DatasetSource::Shd, 30.0)
            .unwrap_or_else(|e| panic!("level {level} failed: {e}"));
        assert!(report.frames_processed > 0, "level {level} processed nothing");
        assert!(
            (0.0..=1.0).contains(&report.stream_f1),
            "level {level} f1 {}",
            report.stream_f1
        );
        if zero {
            assert_eq!(engine.health(), HealthState::Healthy);
        } else {
            assert!(engine.health_report().faults.total() > 0, "level {level} injected nothing");
        }
        f1s.push(report.stream_f1);
    }
    // Monotonic-ish: each escalation may cost accuracy but never *gains*
    // more than simulation noise, and the worst level is strictly worse
    // than fault-free.
    for pair in f1s.windows(2) {
        assert!(pair[1] <= pair[0] + 0.15, "f1 rose under more faults: {f1s:?}");
    }
    assert!(
        *f1s.last().unwrap() < f1s[0] + 0.05,
        "brutal faults did not degrade f1: {f1s:?}"
    );
}

/// Zero-fault plan → the instrumented engine is bit-identical to the plain
/// engine through the whole real-time pipeline.
#[test]
fn zero_fault_plan_is_bit_identical_through_run_realtime() {
    let (dataset, system) = world();
    let frames = test_frames(dataset, 100);

    let mut plain = TelemetryProcessor {
        engine: system.online_engine(DeviceKind::JetsonTx2Nx, Seed(51)),
        telemetry: Telemetry::new(),
    };
    plain
        .engine
        .warm(&(0..system.repository().len()).collect::<Vec<_>>());
    let plain_report = run_realtime(&mut plain, &frames, DatasetSource::Shd, 30.0).unwrap();

    // Same engine seed, zero-fault injector, no pinned fallback.
    let mut chaos = TelemetryProcessor {
        engine: system
            .online_engine(DeviceKind::JetsonTx2Nx, Seed(51))
            .with_fault_injector(FaultPlan::new(Seed(52)).injector()),
        telemetry: Telemetry::new(),
    };
    chaos
        .engine
        .warm(&(0..system.repository().len()).collect::<Vec<_>>());
    let chaos_report = run_realtime(&mut chaos, &frames, DatasetSource::Shd, 30.0).unwrap();

    assert_eq!(plain_report, chaos_report);
    // The models that served each frame, in order.
    let served = |p: &TelemetryProcessor<'_>| -> Vec<u16> {
        let events = p.telemetry.records().iter().map(|r| &r.event);
        events
            .filter(|e| e.models_executed > 0)
            .map(|e| e.used)
            .collect()
    };
    assert_eq!(served(&plain), served(&chaos));
    let (plain, instrumented) = (plain.engine, chaos.engine);
    assert_eq!(plain.cache_stats(), instrumented.cache_stats());
    assert_eq!(plain.mean_latency_ms(), instrumented.mean_latency_ms());
    assert_eq!(instrumented.health(), HealthState::Healthy);
    assert_eq!(instrumented.health_report().faults.total(), 0);
    assert_eq!(instrumented.health_report().fallback_depths[2], 0);
    assert_eq!(instrumented.health_report().fallback_depths[3], 0);
}

/// Everything-at-once worst case: high rates on every fault class for a
/// long stream. The only acceptable failure mode is a typed error — never
/// a panic — and with a pinned fallback not even that.
#[test]
fn saturated_fault_rates_never_panic() {
    let (dataset, system) = world();
    let frames = test_frames(dataset, 200);
    let plan = FaultPlan::new(Seed(61))
        .with_transient_load_rate(0.4)
        .with_permanent_load_rate(0.1)
        .with_sensor_dropout_rate(0.3)
        .with_nan_frame_rate(0.2)
        .with_decision_anomaly_rate(0.2)
        .at(10, FaultKind::MemoryPressure { capacity: 1 })
        .at(20, FaultKind::BundleCorruption)
        .at(90, FaultKind::MemoryPressure { capacity: 0 })
        .at(110, FaultKind::MemoryPressure { capacity: 3 });
    let mut engine = chaos_engine(system, plan, Seed(62));
    let report = run_realtime(&mut engine, &frames, DatasetSource::Shd, 30.0).unwrap();
    assert_eq!(report.frames_offered, frames.len());
    let health = engine.health_report();
    assert!(health.faults.total() > 0);
    assert_ne!(engine.health(), HealthState::Healthy);
    // The pinned fallback kept the stream alive through it all.
    assert!(report.frames_processed > 0);
}

/// Any seeded plan whose rates all clamp to zero leaves the chaos-wrapped
/// engine's `StepOutcome` stream equal to the plain engine's, frame for
/// frame. Determinism guard over 8 seeded cases.
#[test]
fn any_zero_rate_plan_matches_plain_engine() {
    let (dataset, system) = world();
    let mut rng = rng_from_seed(Seed(0xC4_0001));
    for case in 0..8 {
        let (plan_seed, engine_seed) = (rng.next_u64(), rng.usize(0..1_000) as u64);
        // A rate in (-4, 0]: zero itself and negative values clamp to zero.
        let negative_rate = -rng.f32_in(0.0..4.0);
        let at = format!("case {case} (rate {negative_rate})");
        let plan = FaultPlan::new(Seed(plan_seed))
            .with_transient_load_rate(negative_rate)
            .with_permanent_load_rate(0.0)
            .with_sensor_dropout_rate(negative_rate)
            .with_nan_frame_rate(0.0)
            .with_decision_anomaly_rate(negative_rate);
        assert!(plan.is_zero_fault(), "{at}");

        let mut plain = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(engine_seed));
        let mut chaos = system
            .online_engine(DeviceKind::JetsonTx2Nx, Seed(engine_seed))
            .with_fault_injector(plan.injector());
        let split = dataset.split();
        for &r in split.test.iter().take(30) {
            let features = &dataset.frame(r).features;
            let a = plain.step(features).unwrap();
            let b = chaos.step(features).unwrap();
            assert_eq!(a, b, "{at}");
        }
        assert_eq!(plain.cache_stats(), chaos.cache_stats(), "{at}");
        assert_eq!(chaos.health(), HealthState::Healthy, "{at}");
    }
}
