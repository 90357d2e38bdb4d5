//! End-to-end integration tests spanning every crate: dataset generation →
//! offline scene profiling → online inference on the device simulator.

use anole::core::eval::{cross_scene_experiment, evaluate_refs, new_scene_experiment};
use anole::core::{AnoleConfig, AnoleSystem, MethodKind, Ssm};
use anole::data::{DatasetConfig, DrivingDataset};
use anole::device::DeviceKind;
use anole::tensor::Seed;

fn small_world(seed: u64) -> (DrivingDataset, AnoleSystem) {
    let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(seed));
    let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(seed + 1))
        .expect("training succeeds on the small dataset");
    (dataset, system)
}

#[test]
fn full_pipeline_produces_working_online_engine() {
    let (dataset, system) = small_world(11);
    let split = dataset.split();
    let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(13));
    engine.warm(&(0..system.config().cache.capacity).collect::<Vec<_>>());
    let result = evaluate_refs(&mut engine, &dataset, &split.test, 10).unwrap();
    // An untrained random detector on ~2 occupied cells of 16 scores far
    // below 0.3; the trained pipeline must clear it.
    assert!(result.overall_f1 > 0.3, "online F1 {}", result.overall_f1);
    // Engine bookkeeping is consistent: a model served every frame.
    let health = engine.health_report();
    assert_eq!(health.frames, split.test.len());
    assert_eq!(health.fallback_depths[3], 0);
    assert!(engine.mean_latency_ms() > 0.0);
    assert_eq!(
        engine.cache_stats().lookups(),
        split.test.len() as u64
    );
}

#[test]
fn anole_beats_the_single_shallow_model_cross_scene() {
    // This headline claim needs more data and training than the smoke
    // config: use a mid-scale world (the full paper-scale run lives in the
    // `repro` binary and EXPERIMENTS.md).
    let config = DatasetConfig {
        frames_per_clip: 120,
        kitti_clips: 4,
        bdd_clips: 12,
        shd_clips: 4,
        ..DatasetConfig::default()
    };
    let dataset = DrivingDataset::generate(&config, Seed(23));
    let mut anole_config = AnoleConfig::default();
    anole_config.repository.target_models = 10;
    anole_config.scene.train.epochs = 20;
    anole_config.detector.train.epochs = 15;
    anole_config.decision.train.epochs = 20;
    anole_config.sampling.kappa = 4000;
    anole_config.sampling.max_draws_per_arm = 400;
    let system = AnoleSystem::train(&dataset, &anole_config, Seed(24)).unwrap();
    let split = dataset.split();

    let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(29));
    engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
    let anole = evaluate_refs(&mut engine, &dataset, &split.test, 10).unwrap();

    let mut ssm = Ssm::train(&dataset, &split.train, system.config(), Seed(31)).unwrap();
    let ssm_result = evaluate_refs(&mut ssm, &dataset, &split.test, 10).unwrap();

    // The core claim at small scale: the routed pack of specialists beats
    // one compressed model of the same architecture.
    assert!(
        anole.overall_f1 > ssm_result.overall_f1,
        "Anole {} vs SSM {}",
        anole.overall_f1,
        ssm_result.overall_f1
    );
}

#[test]
fn cross_scene_report_is_internally_consistent() {
    let (dataset, system) = small_world(37);
    let report = cross_scene_experiment(&dataset, &system, 10, Seed(41)).unwrap();
    for source in &report.sources {
        for (_, result) in &source.methods {
            // Overall F1 lies within the span of the windowed series.
            let lo = result.windowed.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = result.windowed.iter().cloned().fold(0.0f32, f32::max);
            assert!(result.overall_f1 >= lo - 1e-6 && result.overall_f1 <= hi + 1e-6);
        }
    }
}

#[test]
fn new_scene_report_only_uses_unseen_clips() {
    let (dataset, system) = small_world(43);
    let report = new_scene_experiment(&dataset, &system, Seed(47)).unwrap();
    assert!(!report.rows.is_empty());
    for row in &report.rows {
        assert!(!dataset.clips()[row.clip].seen);
        assert_eq!(row.source, dataset.clips()[row.clip].source);
    }
}

#[test]
fn system_serializes_and_round_trips() {
    let (dataset, system) = small_world(53);
    let json = anole::json::to_string(&system);
    let back: AnoleSystem = anole::json::from_str(&json).unwrap();
    assert_eq!(&back, &system);
    assert_eq!(anole::json::to_string(&back), json);
    // The deserialized system predicts identically.
    let split = dataset.split();
    let frame = dataset.frame(split.test[0]);
    let a = system.decision().rank(&frame.features).unwrap();
    let b = back.decision().rank(&frame.features).unwrap();
    assert_eq!(a, b);
}

#[test]
fn training_is_reproducible_across_runs() {
    let (_, system_a) = small_world(59);
    let (_, system_b) = small_world(59);
    assert_eq!(&system_a, &system_b);
}

#[test]
fn different_devices_differ_only_in_cost_not_accuracy() {
    let (dataset, system) = small_world(61);
    let split = dataset.split();
    let refs = &split.test[..60.min(split.test.len())];

    let run = |device| {
        let mut engine = system.online_engine(device, Seed(67));
        engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
        let result = evaluate_refs(&mut engine, &dataset, refs, 10).unwrap();
        (result.overall_f1, engine.mean_latency_ms())
    };
    let (f1_nano, ms_nano) = run(DeviceKind::JetsonNano);
    let (f1_tx2, ms_tx2) = run(DeviceKind::JetsonTx2Nx);
    assert_eq!(f1_nano, f1_tx2, "accuracy must not depend on the device");
    assert!(ms_nano > ms_tx2, "the Nano is slower than the TX2");
}

#[test]
fn unseen_methods_all_get_reasonable_scores() {
    let (dataset, system) = small_world(71);
    let report = new_scene_experiment(&dataset, &system, Seed(73)).unwrap();
    for kind in [
        MethodKind::Anole,
        MethodKind::Sdm,
        MethodKind::Ssm,
        MethodKind::Cdg,
        MethodKind::Dmm,
    ] {
        let mean = report.mean_f1(kind).unwrap();
        assert!(
            (0.05..1.0).contains(&mean),
            "{kind} unseen mean {mean} out of plausible band"
        );
    }
}
