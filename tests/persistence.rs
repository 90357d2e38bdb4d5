//! Integration: the full persistence story — generate a dataset, train a
//! system, save both to disk, reload them in a "new process", and verify
//! the reloaded deployment behaves identically.

use anole::core::deploy::{download_resumable, load_bundle, read_manifest, save_bundle};
use anole::core::omi::{Telemetry, TelemetryRecord};
use anole::core::{AnoleConfig, AnoleSystem};
use anole::data::{DatasetConfig, DrivingDataset};
use anole::device::{DeviceKind, UnstableLink};
use anole::tensor::{rng_from_seed, Seed};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("anole-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn dataset_and_bundle_round_trip_preserves_behaviour() {
    let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(201));
    let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(202)).unwrap();

    let dataset_dir = temp_dir("dataset");
    dataset.save_to_dir(&dataset_dir).unwrap();
    let bundle_dir = temp_dir("bundle");
    let manifest = save_bundle(&system, &bundle_dir).unwrap();

    // "New process": load everything back from disk.
    let dataset2 = DrivingDataset::load_from_dir(&dataset_dir).unwrap();
    let system2 = load_bundle(&bundle_dir).unwrap();
    assert_eq!(read_manifest(&bundle_dir).unwrap(), manifest);

    // Identical online behaviour on the identical stream.
    let run = |dataset: &DrivingDataset, system: &AnoleSystem| {
        let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(203));
        engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
        let mut telemetry = Telemetry::new();
        for &r in dataset.split().test.iter().take(40) {
            let frame = dataset.frame(r);
            let out = engine.step(&frame.features).unwrap();
            telemetry.record(&out, Some(&frame.truth));
        }
        telemetry
    };
    // With obs on, each record links to its step span, whose id is unique
    // per process: the two runs differ there by construction, and nowhere
    // else.
    let behaviour = |t: &Telemetry| {
        let records = t.records().iter().map(|r| TelemetryRecord { span_id: 0, ..r.clone() });
        records.collect::<Vec<_>>()
    };
    let original = run(&dataset, &system);
    let reloaded = run(&dataset2, &system2);
    assert_eq!(behaviour(&original), behaviour(&reloaded));

    // The staged download of the bundle completes over the unstable link.
    let mut link = UnstableLink::new();
    let mut rng = rng_from_seed(Seed(204));
    let report = download_resumable(&manifest, &mut link, &mut rng, None, 1).unwrap();
    assert!(report.total_ms > 0.0);
    assert!(report.chunks > 0);
    assert_eq!(report.transferred_bytes, report.payload_bytes);

    std::fs::remove_dir_all(&dataset_dir).unwrap();
    std::fs::remove_dir_all(&bundle_dir).unwrap();
}

#[test]
fn expanded_system_survives_a_bundle_round_trip() {
    let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(211));
    let mut system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(212)).unwrap();
    // Expand with fresh footage, then persist the *expanded* system.
    let exotic = anole::data::SceneAttributes::new(
        anole::data::Weather::Snowy,
        anole::data::Location::TollBooth,
        anole::data::TimeOfDay::Night,
    );
    let footage = dataset.world().generate_clip(
        anole::data::ClipId(9100),
        anole::data::DatasetSource::Shd,
        exotic,
        80,
        1.0,
        Seed(213),
    );
    let new_id = system.extend_with_frames(&dataset, &footage.frames, Seed(214)).unwrap();

    let dir = temp_dir("expanded");
    let manifest = save_bundle(&system, &dir).unwrap();
    assert_eq!(manifest.model_count, system.repository().len());
    assert!(manifest
        .entries
        .iter()
        .any(|e| e.file == format!("model_{new_id:03}.json")));
    let reloaded = load_bundle(&dir).unwrap();
    assert_eq!(&reloaded, &system);
    std::fs::remove_dir_all(&dir).unwrap();
}
