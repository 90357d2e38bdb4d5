//! Allocation budget of serving: once warm, an engine step allocates
//! exactly once — the `Vec<bool>` of detections it returns — a gateway
//! window allocates nothing of its own, and a gateway session allocates
//! only its own state (no workspace buffer: every session steps on the
//! gateway's one scratch), at fp32 and with every model int8 under a cache
//! byte budget that holds one model.
//!
//! This binary installs the counting allocator, which counts the
//! allocations of the measuring thread only.

use anole_core::gateway::{Gateway, GatewayConfig, GatewayReport, SessionSpec};
use anole_core::omi::{OnlineEngine, StepOutcome};
use anole_core::{AnoleConfig, AnoleSystem};
use anole_data::{DatasetConfig, DrivingDataset, Frame};
use anole_device::DeviceKind;
use anole_nn::alloc_count::{measure, CountingAllocator};
use anole_nn::{Precision, Workspace};
use anole_tensor::{Matrix, Seed};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Frames run before measuring.
const WARM_FRAMES: usize = 64;
/// Frames measured, one step at a time: enough that a per-frame store
/// growing by doubling would reallocate within them.
const MEASURED_FRAMES: usize = 200;

fn system(cache_slots: usize) -> (DrivingDataset, AnoleSystem) {
    let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(91));
    let mut system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(92)).unwrap();
    let mut cache = system.config().cache;
    cache.capacity = cache_slots;
    system.set_cache_config(cache);
    (dataset, system)
}

/// A system of `system`'s world trained with every int8 twin accepted (an
/// ε of 1) and converted, served from a cache whose byte budget holds one
/// model: the setting of perfbench's `fleet-int8`, where every model and
/// decision forward runs the int8 kernels and a model switch evicts.
fn quantized_system() -> (DrivingDataset, AnoleSystem) {
    let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(91));
    let mut config = AnoleConfig::fast();
    config.quant.epsilon_f1 = 1.0;
    let mut system = AnoleSystem::train(&dataset, &config, Seed(92)).unwrap();
    let report = system.quantize_models(&dataset).unwrap();
    assert!(
        report.rejected.is_empty(),
        "every twin is accepted: {report:?}"
    );
    let largest = system
        .repository()
        .models()
        .iter()
        .map(|m| m.serving_bytes())
        .max();
    let mut cache = system.config().cache;
    cache.byte_budget = largest;
    system.set_cache_config(cache);
    (dataset, system)
}

fn test_frames(dataset: &DrivingDataset, count: usize) -> Vec<Frame> {
    let test = dataset.split().test;
    (0..count)
        .map(|i| dataset.frame(test[i % test.len()]).clone())
        .collect()
}

/// What the measured frames exercised.
#[derive(Debug, Default)]
struct Stretch {
    hits: usize,
    hedged: usize,
    evicting_misses: usize,
    int8: usize,
}

/// Warms `engine` on the first `WARM_FRAMES` frames, then steps it through
/// `MEASURED_FRAMES` more and asserts each step allocates exactly once.
/// `step` serves one frame; `prepare` runs outside the measurement, before
/// each step.
fn check_steps<P>(
    engine: &mut OnlineEngine<'_>,
    frames: &[Frame],
    mut prepare: impl FnMut(&Frame) -> P,
    mut step: impl FnMut(&mut OnlineEngine<'_>, &Frame, &P) -> StepOutcome,
) -> Stretch {
    let mut warm = Stretch::default();
    let mut measured = Stretch::default();
    for (i, frame) in frames.iter().enumerate() {
        let input = prepare(frame);
        let evictions = engine.cache_stats().evictions;
        let (out, allocs) = measure(|| step(engine, frame, &input));
        assert!(out.models_executed > 0, "frame {i} ran no model: {out:?}");
        let stretch = if i < WARM_FRAMES {
            &mut warm
        } else {
            &mut measured
        };
        stretch.hits += usize::from(out.cache_hit);
        stretch.hedged += usize::from(out.models_executed > 1);
        let evicted = engine.cache_stats().evictions > evictions;
        stretch.evicting_misses += usize::from(!out.cache_hit && evicted);
        stretch.int8 += usize::from(out.precision == Precision::Int8);
        if i >= WARM_FRAMES {
            assert_eq!(allocs, 1, "frame {i} allocated {allocs} times: {out:?}");
        }
    }
    for (name, stretch) in [("warm-up", &warm), ("measured", &measured)] {
        assert!(
            stretch.hits > 0 && stretch.hedged > 0 && stretch.evicting_misses > 0,
            "the {name} frames must hit, hedge and evict: {stretch:?}"
        );
    }
    measured
}

/// Checks, through [`check_steps`], that a warm engine's own step and the
/// gateway's step on externally computed scores each allocate only their
/// detections over the same frames, and that both serve alike.
fn check_engine(dataset: &DrivingDataset, system: &AnoleSystem) -> Stretch {
    let frames = test_frames(dataset, WARM_FRAMES + MEASURED_FRAMES);
    let all: Vec<usize> = (0..system.repository().len()).collect();

    let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(93));
    engine.warm(&all);
    let own = check_steps(
        &mut engine,
        &frames,
        |_| (),
        |engine, frame, _| engine.step(&frame.features).unwrap(),
    );

    // The gateway's path: the scores come from a batched forward, computed
    // here outside the measurement.
    let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(93));
    engine.warm(&all);
    let mut ws = Workspace::new();
    let external = check_steps(
        &mut engine,
        &frames,
        |frame| {
            let row = Matrix::row_vector(&frame.features);
            system
                .decision()
                .suitability_ws(&row, &mut ws)
                .unwrap()
                .row(0)
                .to_vec()
        },
        |engine, frame, scores| engine.step_with_scores(&frame.features, scores).unwrap(),
    );
    assert_eq!(format!("{own:?}"), format!("{external:?}"));
    own
}

#[test]
fn a_warm_engine_step_allocates_only_its_detections() {
    // Two slots for six models: a quarter of the frames or more miss and
    // evict.
    let (dataset, system) = system(2);
    assert_eq!(check_engine(&dataset, &system).int8, 0);
}

#[test]
fn a_warm_int8_engine_step_allocates_only_its_detections() {
    let (dataset, system) = quantized_system();
    assert_eq!(check_engine(&dataset, &system).int8, MEASURED_FRAMES);
}

/// A gateway of `sessions` warm sessions streaming the first `frames` test
/// frames each, run to completion; returns its report and the run's
/// allocations (admission is not measured).
fn gateway_run(
    system: &AnoleSystem,
    dataset: &DrivingDataset,
    sessions: usize,
    frames: usize,
) -> (GatewayReport, u64) {
    let mut gateway = Gateway::new(system, GatewayConfig::default()).unwrap();
    for session in 0..sessions as u64 {
        let spec = SessionSpec::new(test_frames(dataset, frames), Seed(100 + session));
        gateway.admit(spec).unwrap();
    }
    measure(|| gateway.run())
}

/// Asserts that every frame of `report`'s sessions was processed, that every
/// window scored in one batch, and that all `sessions` completed.
fn assert_lossless(report: &GatewayReport, sessions: usize) {
    assert_eq!(report.frames_processed, report.frames_offered);
    assert_eq!(report.frames_shed, 0);
    assert_eq!(report.completed, sessions);
    // No engine runs a decision forward of its own for the first time late
    // in one run only.
    assert_eq!(report.single_calls, 0);
}

/// Checks that a gateway run over more frames allocates exactly one more
/// time per extra frame, the detections each step returns.
fn check_gateway(dataset: &DrivingDataset, system: &AnoleSystem) {
    // Each engine's one-time warm-ups (its first detections, first hedged
    // frame and so on) fall in the frames both runs serve, so the
    // difference is the extra frames alone.
    // With the `obs` feature on, the first run to reach a metric registers
    // it in the process-wide registry, so an unmeasured run goes first.
    gateway_run(system, dataset, 6, 64);
    let (short, short_allocs) = gateway_run(system, dataset, 6, 17);
    let (long, long_allocs) = gateway_run(system, dataset, 6, 64);
    for report in [&short, &long] {
        assert_lossless(report, 6);
    }
    assert!(long.windows > short.windows && long.batched_calls > short.batched_calls);
    let extra_frames = (long.frames_processed - short.frames_processed) as u64;
    assert_eq!(
        long_allocs - short_allocs,
        extra_frames,
        "{extra_frames} more frames over {} more windows",
        long.windows - short.windows
    );
}

#[test]
fn a_gateway_window_allocates_nothing_of_its_own() {
    let (dataset, system) = system(5);
    check_gateway(&dataset, &system);
}

#[test]
fn an_int8_gateway_window_allocates_nothing_of_its_own() {
    let (dataset, system) = quantized_system();
    check_gateway(&dataset, &system);
}

/// Frames each session streams in the per-session budget.
const SESSION_FRAMES: usize = 17;

/// The run-time allocations of one gateway session's own state over
/// `SESSION_FRAMES` frames, by what they hold. None is a workspace buffer,
/// a staged row, an executed-model list or a fused map: those belong to the
/// gateway's one step scratch.
const SESSION_ALLOCATIONS: [(&str, u64); 3] = [
    ("the detections each step returns", SESSION_FRAMES as u64),
    ("the suitability vector, on the first scored frame", 1),
    ("the last-good detections, on the first served frame", 1),
];

/// Checks that a gateway of twice the sessions over the same per-session
/// frames allocates, per extra session, exactly `SESSION_ALLOCATIONS`: the
/// gateway's own buffers and its step scratch grow the same number of times
/// whatever the fleet size.
fn check_sessions(dataset: &DrivingDataset, system: &AnoleSystem) {
    const SESSIONS: usize = 6;
    // Registers every obs metric before the measured runs.
    gateway_run(system, dataset, SESSIONS, SESSION_FRAMES);
    let (small, small_allocs) = gateway_run(system, dataset, SESSIONS, SESSION_FRAMES);
    let (large, large_allocs) = gateway_run(system, dataset, 2 * SESSIONS, SESSION_FRAMES);
    assert_lossless(&small, SESSIONS);
    assert_lossless(&large, 2 * SESSIONS);
    assert_eq!(small.windows, large.windows);
    let per_session: u64 = SESSION_ALLOCATIONS.iter().map(|(_, count)| count).sum();
    assert_eq!(
        large_allocs - small_allocs,
        SESSIONS as u64 * per_session,
        "{SESSIONS} more sessions of {SESSION_FRAMES} frames; each should allocate only \
         {SESSION_ALLOCATIONS:?}"
    );
}

#[test]
fn a_gateway_session_allocates_only_its_own_state() {
    let (dataset, system) = system(5);
    check_sessions(&dataset, &system);
}

#[test]
fn an_int8_gateway_session_allocates_only_its_own_state() {
    let (dataset, system) = quantized_system();
    check_sessions(&dataset, &system);
}
