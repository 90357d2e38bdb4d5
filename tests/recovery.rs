//! Kill-resume harness: the offline (OSP) pipeline under crashes.
//!
//! Aborts training at every stage boundary via an injected
//! `FaultKind::TrainAbort`, resumes from the checkpoint store, and asserts
//! the recovered system is bit-identical to an uninterrupted run with the
//! same seed. Also covers checkpoint-write faults, truncated artifacts,
//! single-bit corruption of checkpoints and bundle artifacts (both must be
//! detected on load), resumable downloads under random fault rates, and the
//! supervised fleet's quarantine path.
//!
//! `ANOLE_CHAOS_SEED` (default 0) perturbs every fault-plan seed so CI can
//! sweep the suite across seeds; scheduled faults and the bit-identity
//! contract hold for any seed.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use anole::core::checkpoint::specialist_key;
use anole::core::deploy::{download_resumable, load_bundle, save_bundle};
use anole::core::lifecycle::{run_fleet, FleetConfig};
use anole::core::omi::{FaultKind, FaultPlan};
use anole::core::{
    context_key, AnoleConfig, AnoleError, AnoleSystem, CheckpointStore, OspStage, TrainRecovery,
};
use anole::data::{DatasetConfig, DrivingDataset};
use anole::device::UnstableLink;
use anole::tensor::{rng_from_seed, Seed};

/// CI sweeps this env var across a small seed matrix; every assertion below
/// must hold for any value.
fn chaos_seed() -> u64 {
    std::env::var("ANOLE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

const TRAIN_SEED: Seed = Seed(9101);

/// Training dominates test time; every test shares one dataset, config, and
/// uninterrupted reference system.
fn world() -> &'static (DrivingDataset, AnoleConfig, AnoleSystem) {
    static WORLD: OnceLock<(DrivingDataset, AnoleConfig, AnoleSystem)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(9100));
        let config = AnoleConfig::fast();
        let system = AnoleSystem::train(&dataset, &config, TRAIN_SEED).unwrap();
        (dataset, config, system)
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "anole-recovery-{tag}-{}-{}",
        chaos_seed(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &Path) -> CheckpointStore {
    let (dataset, config, _) = world();
    CheckpointStore::open(dir, context_key(dataset, config, TRAIN_SEED)).unwrap()
}

/// With an empty store and no faults, the resumable path trains everything
/// itself and matches `AnoleSystem::train` bit-for-bit; a second run over
/// the now-populated store resumes all four stages without retraining.
#[test]
fn resumable_train_matches_plain_and_then_resumes_fully() {
    let (dataset, config, baseline) = world();
    let dir = temp_dir("fresh");

    let mut recovery = TrainRecovery::new(open_store(&dir));
    let system = AnoleSystem::train_resumable(dataset, config, TRAIN_SEED, &mut recovery).unwrap();
    assert_eq!(&system, baseline);
    assert!(recovery.report.resumed_stages.is_empty());
    assert_eq!(recovery.report.first_trained_stage, Some("scene model"));
    assert!(recovery.report.checkpoints.writes > OspStage::ALL.len());
    assert_eq!(recovery.report.checkpoints.discarded, 0);

    let mut resumed = TrainRecovery::new(open_store(&dir));
    let again = AnoleSystem::train_resumable(dataset, config, TRAIN_SEED, &mut resumed).unwrap();
    assert_eq!(&again, baseline);
    assert_eq!(
        resumed.report.resumed_stages,
        OspStage::ALL.iter().map(|s| s.name()).collect::<Vec<_>>()
    );
    assert_eq!(resumed.report.first_trained_stage, None);
    // All four stages reloaded whole; the per-specialist checkpoints inside
    // the repository stage were never needed.
    assert_eq!(resumed.report.resumed_specialists, 0);
    assert_eq!(resumed.report.checkpoints.writes, 0);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// ISSUE acceptance: kill training right after each stage boundary, resume,
/// and end with a system bit-identical to the uninterrupted run.
#[test]
fn kill_after_any_stage_then_resume_is_bit_identical() {
    let (dataset, config, baseline) = world();
    for stage in OspStage::ALL {
        let dir = temp_dir(&format!("kill-{}", stage.index()));

        let plan = FaultPlan::new(Seed(chaos_seed().wrapping_add(700 + stage.index() as u64)))
            .at(stage.index(), FaultKind::TrainAbort);
        let mut killed = TrainRecovery::new(open_store(&dir)).with_injector(plan.injector());
        let err = AnoleSystem::train_resumable(dataset, config, TRAIN_SEED, &mut killed)
            .unwrap_err();
        assert_eq!(err, AnoleError::Aborted { stage: stage.name() });
        // The kill landed *after* the stage checkpoint became durable.
        assert!(killed.store().has(stage.key()), "no checkpoint at {stage}");

        let mut resumed = TrainRecovery::new(open_store(&dir));
        let system =
            AnoleSystem::train_resumable(dataset, config, TRAIN_SEED, &mut resumed).unwrap();
        assert_eq!(&system, baseline, "resume after {stage} diverged");
        let expected_resumed: Vec<&str> = OspStage::ALL[..=stage.index()]
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(resumed.report.resumed_stages, expected_resumed);
        let expected_first = OspStage::ALL.get(stage.index() + 1).map(|s| s.name());
        assert_eq!(resumed.report.first_trained_stage, expected_first);
        assert_eq!(resumed.report.checkpoints.discarded, 0);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Checkpoint resume stays bit-identical through the
/// workspace-reusing trainer even when the thread count changes between the
/// original run and the resume. Per-worker warm workspaces and the thread
/// count of the repository fan-out must never leak into the trained weights.
#[test]
fn resume_with_different_thread_count_is_bit_identical() {
    use anole::tensor::{parallel_config, set_parallel_config, ParallelConfig};
    let (dataset, config, baseline) = world();
    let dir = temp_dir("threads");

    let plan =
        FaultPlan::new(Seed(chaos_seed().wrapping_add(750))).at(0, FaultKind::TrainAbort);
    let mut killed = TrainRecovery::new(open_store(&dir)).with_injector(plan.injector());
    AnoleSystem::train_resumable(dataset, config, TRAIN_SEED, &mut killed).unwrap_err();
    assert!(killed.store().has(OspStage::ALL[0].key()));

    // The config is process-global, but training is thread-count-invariant
    // by contract, so neither this override nor concurrent tests can move
    // the weights.
    let prior = parallel_config();
    set_parallel_config(ParallelConfig { threads: 3 });
    let mut resumed = TrainRecovery::new(open_store(&dir));
    let result = AnoleSystem::train_resumable(dataset, config, TRAIN_SEED, &mut resumed);
    set_parallel_config(prior);
    let system = result.unwrap();
    assert_eq!(&system, baseline, "resume under threads=3 diverged");
    assert_eq!(resumed.report.resumed_stages, vec!["scene model"]);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash inside Algorithm 1 loses the repository stage but not the
/// specialists already trained: with only the per-specialist checkpoints on
/// disk, resume reloads them and still reproduces the baseline exactly.
#[test]
fn specialist_checkpoints_resume_mid_repository() {
    let (dataset, config, baseline) = world();
    let dir = temp_dir("specialists");

    let mut first = TrainRecovery::new(open_store(&dir));
    AnoleSystem::train_resumable(dataset, config, TRAIN_SEED, &mut first).unwrap();
    // Simulate a crash before any *stage* completed by dropping the stage
    // checkpoints and keeping the specialist ones.
    let mut store = open_store(&dir);
    for stage in OspStage::ALL {
        store.remove(stage.key());
    }
    let specialists_on_disk = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("specialist_"))
        .count();
    assert!(specialists_on_disk > 0, "run wrote no specialist checkpoints");

    let mut resumed = TrainRecovery::new(store);
    let system = AnoleSystem::train_resumable(dataset, config, TRAIN_SEED, &mut resumed).unwrap();
    assert_eq!(&system, baseline);
    assert!(resumed.report.resumed_stages.is_empty());
    assert_eq!(resumed.report.resumed_specialists, specialists_on_disk);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoint-write failures cost only resume coverage, never the run:
/// training completes bit-identically and the store simply stays empty.
#[test]
fn write_faults_never_break_training() {
    let (dataset, config, baseline) = world();
    let dir = temp_dir("wfaults");

    let plan = FaultPlan::new(Seed(chaos_seed().wrapping_add(710)))
        .with_checkpoint_write_rate(1.0);
    let mut recovery = TrainRecovery::new(open_store(&dir)).with_injector(plan.injector());
    let system = AnoleSystem::train_resumable(dataset, config, TRAIN_SEED, &mut recovery).unwrap();
    assert_eq!(&system, baseline);
    assert_eq!(recovery.report.checkpoints.writes, 0);
    assert!(recovery.report.checkpoints.write_faults > 0);
    for stage in OspStage::ALL {
        assert!(!recovery.store().has(stage.key()));
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// An artifact that lands truncated at rest is discarded on resume — the
/// stage silently retrains instead of trusting the corrupt checkpoint.
#[test]
fn truncated_checkpoint_is_discarded_and_retrained() {
    let (dataset, config, baseline) = world();
    let dir = temp_dir("truncated");

    // Write 0 is the scene-model stage checkpoint; it lands corrupt.
    let plan = FaultPlan::new(Seed(chaos_seed().wrapping_add(720)))
        .at(0, FaultKind::TruncatedArtifact);
    let mut first = TrainRecovery::new(open_store(&dir)).with_injector(plan.injector());
    let system = AnoleSystem::train_resumable(dataset, config, TRAIN_SEED, &mut first).unwrap();
    assert_eq!(&system, baseline);
    assert_eq!(first.report.checkpoints.truncated_writes, 1);

    let mut resumed = TrainRecovery::new(open_store(&dir));
    let again = AnoleSystem::train_resumable(dataset, config, TRAIN_SEED, &mut resumed).unwrap();
    assert_eq!(&again, baseline);
    assert!(resumed.report.checkpoints.discarded >= 1);
    assert!(!resumed.report.resumed_stages.contains(&"scene model"));
    assert!(resumed.report.resumed_stages.contains(&"model repository"));
    assert_eq!(resumed.report.first_trained_stage, Some("scene model"));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// ISSUE acceptance: a device that keeps panicking is quarantined after its
/// bounded retries while the rest of the fleet completes the schedule.
#[test]
fn panicking_device_is_quarantined_without_aborting_the_fleet() {
    let (dataset, _, system) = world();
    let familiar = dataset.clips()[0].attributes;
    let schedule = [familiar, familiar];
    let config = FleetConfig {
        devices: 2,
        frames_per_day: 40,
        min_footage: 100_000,
    };
    // Day 0 draws panic decisions for devices 0 and 1 (draws 0, 1), then
    // for device 0's retry (draw 2): device 0 panics twice and is
    // quarantined; device 1 never panics.
    let plan = FaultPlan::new(Seed(chaos_seed().wrapping_add(730)))
        .at(0, FaultKind::DevicePanic)
        .at(2, FaultKind::DevicePanic);
    let (report, _) = run_fleet(
        dataset,
        system.clone(),
        &schedule,
        &config,
        Seed(9200),
        Some(plan.injector()),
    )
    .unwrap();
    let quarantined: Vec<usize> = report.quarantine_records.iter().map(|r| r.session).collect();
    assert_eq!(quarantined, vec![0]);
    assert_eq!(report.days.len(), schedule.len());
    assert_eq!(report.days[0].device_panics, 2);
    // Device 1 drove both days alone after device 0 was quarantined.
    assert!(report.days.iter().all(|d| d.active_devices == 1));
}

/// Resumable downloads under random link-death and corruption rates: the
/// bundle always completes within the session budget and every byte is
/// accounted for (payload + waste == transferred).
#[test]
fn resumable_download_survives_random_faults_with_exact_byte_accounting() {
    let (_, _, system) = world();
    let dir = temp_dir("download");
    let manifest = save_bundle(system, &dir).unwrap();

    let plan = FaultPlan::new(Seed(chaos_seed().wrapping_add(740)))
        .with_link_death_rate(0.002)
        .with_truncated_artifact_rate(0.1);
    let mut link = UnstableLink::new();
    let mut rng = rng_from_seed(Seed(9300));
    let report = download_resumable(
        &manifest,
        &mut link,
        &mut rng,
        Some(&mut plan.injector()),
        64,
    )
    .unwrap();
    assert!(report.sessions >= 1);
    assert_eq!(report.payload_bytes, manifest.total_transfer_bytes());
    assert_eq!(
        report.transferred_bytes,
        report.payload_bytes + report.wasted_bytes
    );
    if report.link_deaths + report.corrupt_arrivals > 0 {
        assert!(report.sessions > 1);
        assert!(report.wasted_bytes > 0);
    } else {
        assert_eq!(report.wasted_bytes, 0);
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A file and its pristine bytes.
type Artifact = (PathBuf, Vec<u8>);

/// Shared fixture for the bit-flip property tests: a saved bundle plus one
/// saved checkpoint, with pristine byte images kept in memory.
fn flip_fixture() -> &'static (PathBuf, Vec<Artifact>, PathBuf, Vec<u8>) {
    static FIXTURE: OnceLock<(PathBuf, Vec<Artifact>, PathBuf, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (_, _, system) = world();
        let dir = temp_dir("bitflip");
        let manifest = save_bundle(system, &dir).unwrap();
        let artifacts: Vec<Artifact> = manifest
            .entries
            .iter()
            .map(|e| {
                let path = dir.join(&e.file);
                let bytes = std::fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();

        let mut store = open_store(&dir);
        store
            .save(&specialist_key(2, 1), &vec![0.5f32; 257], None)
            .unwrap();
        let ckpt_path = dir.join(format!("{}.ckpt", specialist_key(2, 1)));
        let ckpt_bytes = std::fs::read(&ckpt_path).unwrap();
        (dir, artifacts, ckpt_path, ckpt_bytes)
    })
}

/// Any single bit-flip anywhere in any serialized bundle artifact is
/// detected when the bundle is loaded (8 seeded cases).
#[test]
fn any_single_bit_flip_in_a_bundle_artifact_is_detected() {
    let (dir, artifacts, _, _) = flip_fixture();
    let mut rng = rng_from_seed(Seed(0x4E_0001));
    for case in 0..8 {
        let (path, pristine) = &artifacts[rng.usize(0..artifacts.len())];
        let (i, bit) = (rng.usize(0..pristine.len()), rng.usize(0..8));
        let mut flipped = pristine.clone();
        flipped[i] ^= 1 << bit;
        std::fs::write(path, &flipped).unwrap();
        let result = load_bundle(dir);
        std::fs::write(path, pristine).unwrap();
        let at = format!("case {case} ({} byte {i} bit {bit})", path.display());
        assert!(result.is_err(), "{at}: bit flip went undetected");
        // And the pristine bundle still loads.
        assert!(load_bundle(dir).is_ok(), "{at}");
    }
}

/// Any single bit-flip anywhere in a checkpoint file is detected on load —
/// the artifact is discarded, never deserialized (8 seeded cases).
#[test]
fn any_single_bit_flip_in_a_checkpoint_is_detected() {
    let (_, _, ckpt_path, pristine) = flip_fixture();
    let mut rng = rng_from_seed(Seed(0x4E_0002));
    for case in 0..8 {
        let (i, bit) = (rng.usize(0..pristine.len()), rng.usize(0..8));
        let mut flipped = pristine.clone();
        flipped[i] ^= 1 << bit;
        std::fs::write(ckpt_path, &flipped).unwrap();
        let mut store = open_store(ckpt_path.parent().unwrap());
        let loaded: Option<Vec<f32>> = store.load(&specialist_key(2, 1));
        // Restore for the next case (a failed load deletes the file).
        std::fs::write(ckpt_path, pristine).unwrap();
        let at = format!("case {case} (byte {i} bit {bit})");
        assert!(loaded.is_none(), "{at}: bit flip went undetected");
        assert_eq!(store.stats.discarded, 1, "{at}");
    }
}
