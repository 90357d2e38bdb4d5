//! Allocation budget of serving: once warm, an engine step allocates
//! exactly once — the `Vec<bool>` of detections it returns — and a gateway
//! window allocates nothing of its own.
//!
//! This binary installs the counting allocator, which counts the
//! allocations of the measuring thread only.

use anole_core::gateway::{Gateway, GatewayConfig, GatewayReport, SessionSpec};
use anole_core::omi::{OnlineEngine, StepOutcome};
use anole_core::{AnoleConfig, AnoleSystem};
use anole_data::{DatasetConfig, DrivingDataset, Frame};
use anole_device::DeviceKind;
use anole_nn::alloc_count::{measure, CountingAllocator};
use anole_nn::Workspace;
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

#[test]
fn a_warm_engine_step_allocates_only_its_detections() {
    // Two slots for six models: a quarter of the frames or more miss and
    // evict.
    let (dataset, system) = system(2);
    let frames = test_frames(&dataset, WARM_FRAMES + MEASURED_FRAMES);
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
}

/// A gateway of six warm sessions streaming the first `frames` test frames
/// each, run to completion; returns its report and the run's allocations.
fn gateway_run(
    system: &AnoleSystem,
    dataset: &DrivingDataset,
    frames: usize,
) -> (GatewayReport, u64) {
    let mut gateway = Gateway::new(system, GatewayConfig::default()).unwrap();
    for session in 0..6 {
        let spec = SessionSpec::new(test_frames(dataset, frames), Seed(100 + session));
        gateway.admit(spec).unwrap();
    }
    measure(|| gateway.run())
}

#[test]
fn a_gateway_window_allocates_nothing_of_its_own() {
    let (dataset, system) = system(5);
    // Each engine's one-time warm-ups (its first detections, first hedged
    // frame and so on) fall in the frames both runs serve, so the
    // difference is the extra frames alone.
    // With the `obs` feature on, the first run to reach a metric registers
    // it in the process-wide registry, so an unmeasured run goes first.
    gateway_run(&system, &dataset, 64);
    let (short, short_allocs) = gateway_run(&system, &dataset, 17);
    let (long, long_allocs) = gateway_run(&system, &dataset, 64);
    for report in [&short, &long] {
        assert_eq!(report.frames_processed, report.frames_offered);
        assert_eq!(report.frames_shed, 0);
        assert_eq!(report.completed, 6);
        // Every window scores in one batch: no engine runs a decision
        // forward of its own for the first time late in the longer run.
        assert_eq!(report.single_calls, 0);
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
