//! Fleet lifecycle: the paper's full loop, day after day.
//!
//! §II case 3's remedy — "train new models to deal with x and the like in
//! the future" — is not a one-shot event but an operating loop: a fleet of
//! devices drives all day, each flagging low-confidence (drifting) streams
//! and keeping the flagged footage; overnight, the cloud trains a new
//! specialist on the pooled footage, widens the decision model, and ships
//! the update; the next day the fleet benefits. [`run_fleet`] simulates
//! that loop. Daily operation is multiplexed through the serving
//! [`Gateway`]: every device is a long-lived session with a bounded frame
//! queue and panic isolation, and frames arriving in the same scheduling
//! window are scored through one cross-device batched decision forward
//! (bit-identical per frame to each device stepping alone). The day
//! borrows the system; overnight expansion mutates it between days.
//! [`reprofile_and_rollout`] closes the loop for a re-profile instead: the
//! staged rollout's F1 canary gate alone decides whether the candidate
//! ships.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

use anole_data::{ClipId, DatasetSource, DrivingDataset, Frame, SceneAttributes};
use anole_detect::DetectionCounts;
use anole_tensor::{split_seed, Seed};

use crate::checkpoint::TrainRecovery;
use crate::deploy::{self, RolloutOutcome, RolloutReport};
use crate::gateway::{
    FrameHandler, Gateway, GatewayConfig, QuarantineReason, QuarantineRecord, SessionSpec,
    SessionState,
};
use crate::omi::{DriftDetector, DriftState, FaultInjector, FaultKind, SceneDistanceScorer};
use crate::{AnoleError, AnoleSystem, ReprofileReport};

/// Rolling window of each device's drift detector, in frames.
const DRIFT_WINDOW: usize = 15;

/// Share of validation frames whose drift score may exceed the detector's
/// calibrated ceiling.
const DRIFT_QUANTILE: f32 = 0.1;

/// Configuration of a fleet-lifecycle run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of devices driving concurrently.
    pub devices: usize,
    /// Frames each device records per day per scenario.
    pub frames_per_day: usize,
    /// Minimum pooled drifting frames before an overnight expansion runs.
    pub min_footage: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            devices: 3,
            frames_per_day: 120,
            min_footage: 60,
        }
    }
}

/// How many times a panicked device's daily run is retried before the
/// device is quarantined for the rest of the run.
const DEVICE_RETRIES: usize = 1;

/// One day of fleet operation.
#[derive(Debug, Clone, PartialEq)]
pub struct DayReport {
    /// Day index (0-based).
    pub day: usize,
    /// The scenario the fleet drove this day.
    pub scenario: SceneAttributes,
    /// Fleet-wide F1 over the day's frames.
    pub f1: f32,
    /// Fraction of frames flagged as drifting.
    pub drift_rate: f32,
    /// Frames collected for retraining this day.
    pub collected_frames: usize,
    /// New model id if an overnight expansion ran after this day.
    pub expanded_model: Option<usize>,
    /// Repository size at the end of the day (post-expansion).
    pub repository_size: usize,
    /// Device runs that panicked this day (initial attempts and retries).
    pub device_panics: usize,
    /// Devices that completed their daily run (quarantined devices and
    /// retry-exhausted panickers excluded); the F1/drift denominators.
    pub active_devices: usize,
}

/// Full lifecycle report.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// One report per day, in order.
    pub days: Vec<DayReport>,
    /// One typed record per device quarantined after exhausting its panic
    /// retries, in the order they were quarantined; `session` is the
    /// device index. A quarantined device stops running for the rest of
    /// the fleet run; the others are unaffected.
    pub quarantine_records: Vec<QuarantineRecord>,
}

impl FleetReport {
    /// F1 of the first and last day a given scenario was driven, if it
    /// appears at least twice — the before/after of the expansion loop.
    pub fn improvement_on(&self, scenario: SceneAttributes) -> Option<(f32, f32)> {
        let mut days = self.days.iter().filter(|d| d.scenario == scenario);
        let first = days.next()?;
        let last = days.next_back()?;
        Some((first.f1, last.f1))
    }
}

/// Per-device drift bookkeeping filled in by the session's frame handler.
#[derive(Debug, Default)]
struct DeviceDayState {
    drifting: usize,
    collected: Vec<Frame>,
}

/// Builds the per-frame handler a fleet session runs after every processed
/// frame: OOD-score the frame and keep it if it drifts. Runs inside the
/// gateway's per-session `catch_unwind` scope, in the same order as the
/// pre-gateway fleet loop (accumulate counts, then observe).
fn drift_handler<'g>(
    scorer: &'g SceneDistanceScorer,
    system: &'g AnoleSystem,
    mut detector: DriftDetector,
    state: Rc<RefCell<DeviceDayState>>,
) -> FrameHandler<'g> {
    Box::new(move |frame, _out| {
        let drift = scorer.observe_frame(&mut detector, system, &frame.features)?;
        if drift == DriftState::Drifting {
            let mut state = state.borrow_mut();
            state.drifting += 1;
            state.collected.push(frame.clone());
        }
        Ok(())
    })
}

/// One device's daily run: its detection counts, drifting-frame count and
/// collected footage, or the typed error it failed with; `None` when it
/// panicked.
type DeviceDay = Option<Result<(DetectionCounts, usize, Vec<Frame>), AnoleError>>;

/// Serves one day of fleet devices through a lossless gateway, each
/// session admitted with its drift handler, and returns each device's
/// [`DeviceDay`] in admission order. The day's roster and every panic
/// retry run through here.
fn serve_devices(
    system: &AnoleSystem,
    scorer: &SceneDistanceScorer,
    ceiling: f32,
    devices: Vec<(usize, SessionSpec)>,
) -> Result<Vec<DeviceDay>, AnoleError> {
    // Lossless fleet profile: bounded queues and backpressure keep memory
    // flat, but nothing is shed — every recorded frame is served.
    let config = GatewayConfig {
        max_sessions: devices.len().max(1),
        deadline_ms: f64::INFINITY,
        shed_session_after: usize::MAX,
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::new(system, config)?;
    let mut states = Vec::with_capacity(devices.len());
    for (device_idx, spec) in devices {
        let state = Rc::<RefCell<DeviceDayState>>::default();
        let detector = scorer.detector(DRIFT_WINDOW, ceiling);
        gateway.admit_with_handler(
            spec,
            drift_handler(scorer, system, detector, Rc::clone(&state)),
        )?;
        states.push((device_idx, state));
    }
    let report = gateway.run();
    let mut errors: Vec<Option<AnoleError>> = Vec::new();
    errors.resize_with(states.len(), || None);
    for (sid, error) in gateway.take_session_errors() {
        errors[sid] = Some(error);
    }
    let mut outcomes = Vec::with_capacity(states.len());
    for ((session, (device_idx, state)), error) in report.sessions.iter().zip(states).zip(errors) {
        outcomes.push(match session.state {
            SessionState::Completed => {
                let state = state.take();
                Some(Ok((session.counts, state.drifting, state.collected)))
            }
            // A typed failure is reported, not absorbed; a session
            // quarantined without one panicked.
            SessionState::Quarantined => error.map(Err),
            state => {
                // Unreachable under the lossless profile (nothing is shed
                // and the roster always fits); surface it rather than
                // mis-count the day.
                return Err(AnoleError::FaultExhausted {
                    detail: format!(
                        "fleet session for device {device_idx} ended in {state:?} under the lossless fleet profile"
                    ),
                });
            }
        });
    }
    Ok(outcomes)
}

/// Runs the fleet loop over a day-by-day scenario schedule.
///
/// Each day, every device streams `frames_per_day` fresh frames of the
/// day's scenario through its own engine. The devices are multiplexed as
/// sessions of the serving [`Gateway`] (lossless profile: bounded queues
/// with backpressure but no deadline shedding), which stacks frames from
/// different devices into batched decision forwards; the outcome of every
/// frame is bit-identical to each device stepping its own engine in
/// isolation. Drifting frames are flagged and pooled; after the day, if
/// the pooled flagged footage reaches `min_footage`, the system is
/// extended with a new specialist and the pool is cleared.
///
/// Every device session runs behind the gateway's `catch_unwind`
/// isolation, so one panicking device cannot take down the fleet. A
/// panicked device is retried once (sequentially, after the fleet pass, in
/// device order); a device whose retry panics too is quarantined for the
/// rest of the run and listed in [`FleetReport::quarantine_records`] with a
/// typed [`QuarantineRecord`], while the remaining devices keep driving and
/// the schedule completes.
///
/// Panics are injected deterministically via `injector`, a
/// [`FaultInjector`] with [`FaultKind::DevicePanic`] events scheduled by
/// draw index: the supervisor draws one panic decision per device attempt,
/// on the coordinator in device order, so the outcome is identical for any
/// scheduling. With `injector` `None` or a zero-fault plan no device
/// panics, and the two runs are bit-identical.
///
/// Returns the per-day reports and the final (possibly expanded) system.
///
/// # Errors
///
/// Surfaces inference, calibration, and expansion errors. Device *errors*
/// (as opposed to panics) surface too — a typed failure is a bug to
/// report, not a crash to absorb. The gateway quarantines the erring
/// session so the other devices finish their day, then the first error in
/// device order is returned.
///
/// # Panics
///
/// Panics if `config.devices == 0` or the schedule is empty.
pub fn run_fleet(
    dataset: &DrivingDataset,
    mut system: AnoleSystem,
    schedule: &[SceneAttributes],
    config: &FleetConfig,
    seed: Seed,
    mut injector: Option<FaultInjector>,
) -> Result<(FleetReport, AnoleSystem), AnoleError> {
    assert!(config.devices > 0, "fleet needs at least one device");
    assert!(!schedule.is_empty(), "schedule is empty");

    let split = dataset.split();
    // OOD scoring: scene-embedding distance to the nearest training-scene
    // centroid (the decision model's softmax confidence flattens at large
    // repository sizes and stops discriminating).
    let mut scorer = SceneDistanceScorer::calibrate(&system, dataset, &split.train)?;
    let ceiling = scorer.ceiling(&system, dataset, &split.val, 1.0 - DRIFT_QUANTILE)?;
    let mut footage_pool: Vec<Frame> = Vec::new();
    let mut days = Vec::with_capacity(schedule.len());
    let mut quarantine_records: Vec<QuarantineRecord> = Vec::new();

    for (day, &scenario) in schedule.iter().enumerate() {
        // Each device derives its RNG streams from (day, device_idx), so
        // results are identical however sessions interleave.
        let device_spec = |device_idx: usize| -> SessionSpec {
            let device_seed = split_seed(seed, (day * config.devices + device_idx) as u64 + 1);
            let clip = dataset.world().generate_clip(
                ClipId(usize::MAX - day * 100 - device_idx),
                DatasetSource::Shd,
                scenario,
                config.frames_per_day,
                1.0,
                split_seed(device_seed, 0),
            );
            SessionSpec::new(clip.frames, split_seed(device_seed, 1))
        };
        let roster: Vec<usize> = (0..config.devices)
            .filter(|&i| quarantine_records.iter().all(|r| r.session != i))
            .collect();
        // Panic decisions are drawn on the coordinator, one per first
        // attempt in device order, before the gateway runs, so scheduling
        // changes cannot shift the fault stream.
        let specs = roster
            .iter()
            .map(|&device_idx| {
                let mut spec = device_spec(device_idx);
                spec.inject_panic = injector.as_mut().is_some_and(FaultInjector::device_panics);
                (device_idx, spec)
            })
            .collect();
        let outcomes = serve_devices(&system, &scorer, ceiling, specs)?;

        // Panicked devices retry sequentially in device order, each attempt
        // drawing its own panic decision; an exhausted device is
        // quarantined and the rest of the fleet drives on.
        let mut day_panics = 0usize;
        let mut results = Vec::with_capacity(roster.len());
        for (&device_idx, mut outcome) in roster.iter().zip(outcomes) {
            let mut retries = 0;
            while outcome.is_none() {
                day_panics += 1;
                if retries == DEVICE_RETRIES {
                    quarantine_records.push(QuarantineRecord {
                        session: device_idx,
                        reason: QuarantineReason::RetriesExhausted {
                            attempts: DEVICE_RETRIES + 1,
                        },
                        first_fault: Some(FaultKind::DevicePanic),
                        detail: format!(
                            "device {device_idx} panicked on its initial attempt and all {DEVICE_RETRIES} retries (day {day})"
                        ),
                        flight: None,
                    });
                    break;
                }
                retries += 1;
                if !injector.as_mut().is_some_and(FaultInjector::device_panics) {
                    let retry = vec![(device_idx, device_spec(device_idx))];
                    outcome = serve_devices(&system, &scorer, ceiling, retry)?.remove(0);
                }
            }
            results.extend(outcome);
        }

        let mut active_devices = 0usize;
        let mut day_counts = DetectionCounts::default();
        let mut drifting = 0usize;
        let mut collected_today = 0usize;
        for result in results {
            let (counts, device_drifting, collected) = result?;
            active_devices += 1;
            day_counts.merge(&counts);
            drifting += device_drifting;
            collected_today += collected.len();
            footage_pool.extend(collected);
        }

        // Overnight: expand when enough flagged footage has pooled, and
        // teach the drift scorer that the scene is now covered.
        let expanded_model = if footage_pool.len() >= config.min_footage {
            let new_id = system.extend_with_frames(
                dataset,
                &footage_pool,
                split_seed(seed, 10_000 + day as u64),
            )?;
            scorer.add_centroid(&system, &footage_pool)?;
            footage_pool.clear();
            Some(new_id)
        } else {
            None
        };

        let total_frames = active_devices * config.frames_per_day;
        days.push(DayReport {
            day,
            scenario,
            f1: day_counts.f1(),
            drift_rate: drifting as f32 / total_frames.max(1) as f32,
            collected_frames: collected_today,
            expanded_model,
            repository_size: system.repository().len(),
            device_panics: day_panics,
            active_devices,
        });
    }

    Ok((FleetReport { days, quarantine_records }, system))
}

/// The closed offline↔online loop in one call: guarded continual
/// re-profiling followed by a staged, gated rollout.
///
/// The current `system` is pinned as the last-good bundle under
/// `work_dir/last_good`; a clone is re-profiled on the pooled drifting
/// `footage` via [`AnoleSystem::reprofile_with_frames`] (checkpointed
/// through `recovery` when supplied, so a killed re-profile resumes
/// bit-identically on the next call with the same store); the re-profiled
/// candidate then goes through [`deploy::staged_rollout`] against a fleet
/// of `fleet_devices`, whose F1 canary gate decides between promotion and
/// rollback. The returned system is what the fleet serves afterwards: the
/// candidate on promotion, or the last-good bundle — reloaded and
/// checksum-verified — on rollback, in which case zero sessions were ever
/// served from the candidate.
///
/// # Errors
///
/// Re-profiling errors ([`AnoleError::Aborted`] on an injected kill —
/// call again with the same recovery store to resume), bundle I/O errors,
/// and download failures.
#[allow(clippy::too_many_arguments)]
pub fn reprofile_and_rollout(
    system: &AnoleSystem,
    dataset: &DrivingDataset,
    footage: &[Frame],
    fleet_devices: usize,
    work_dir: &Path,
    seed: Seed,
    recovery: Option<&mut TrainRecovery>,
    injector: Option<&mut FaultInjector>,
) -> Result<(AnoleSystem, ReprofileReport, RolloutReport), AnoleError> {
    let last_good_dir = work_dir.join("last_good");
    let candidate_dir = work_dir.join("candidate");
    deploy::save_bundle(system, &last_good_dir)?;

    let mut candidate = system.clone();
    let reprofile = candidate.reprofile_with_frames(dataset, footage, seed, recovery)?;
    let rollout = deploy::staged_rollout(
        &candidate,
        &last_good_dir,
        &candidate_dir,
        dataset,
        fleet_devices,
        split_seed(seed, 777),
        injector,
    )?;
    let served = match rollout.outcome {
        RolloutOutcome::Promoted => candidate,
        RolloutOutcome::RolledBack => deploy::load_bundle(&last_good_dir)?,
    };
    Ok((served, reprofile, rollout))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnoleConfig;
    use anole_data::{DatasetConfig, Location, TimeOfDay, Weather};

    fn world() -> (DrivingDataset, AnoleSystem) {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(181));
        let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(182)).unwrap();
        (dataset, system)
    }

    #[test]
    fn lifecycle_expands_on_exotic_scenes_and_improves() {
        let (dataset, system) = world();
        let before_models = system.repository().len();
        let familiar = dataset.clips()[0].attributes;
        let exotic =
            SceneAttributes::new(Weather::Foggy, Location::TollBooth, TimeOfDay::Night);
        // Two familiar days, then three days in the exotic scene.
        let schedule = [familiar, familiar, exotic, exotic, exotic];
        let config = FleetConfig {
            devices: 2,
            frames_per_day: 80,
            min_footage: 50,
        };
        let (report, final_system) =
            run_fleet(&dataset, system, &schedule, &config, Seed(183), None).unwrap();
        assert_eq!(report.days.len(), 5);

        // Exotic days must drift enough to pool footage (the sharper
        // exotic-vs-seen discrimination claim is covered at the right
        // granularity by the drift module's own tests; at this tiny scale
        // even fresh familiar clips are mildly out-of-distribution).
        assert!(
            report.days[2..5].iter().any(|d| d.drift_rate > 0.1),
            "no exotic day drifted: {:?}",
            report.days.iter().map(|d| d.drift_rate).collect::<Vec<_>>()
        );

        // At least one expansion ran, growing the repository.
        assert!(report.days.iter().any(|d| d.expanded_model.is_some()));
        assert!(final_system.repository().len() > before_models);

        // And the fleet got better at the exotic scene.
        let (first, last) = report.improvement_on(exotic).unwrap();
        assert!(
            last > first,
            "no improvement on the exotic scene: {first} → {last}"
        );
    }

    #[test]
    fn lifecycle_without_drift_never_expands() {
        let (dataset, system) = world();
        let before = system.repository().len();
        let familiar = dataset.clips()[0].attributes;
        let config = FleetConfig {
            devices: 2,
            frames_per_day: 60,
            min_footage: 100_000, // unreachable
        };
        let (report, final_system) =
            run_fleet(&dataset, system, &[familiar, familiar], &config, Seed(184), None)
                .unwrap();
        assert!(report.days.iter().all(|d| d.expanded_model.is_none()));
        assert_eq!(final_system.repository().len(), before);
    }

    #[test]
    #[should_panic(expected = "schedule is empty")]
    fn empty_schedule_is_rejected() {
        let (dataset, system) = world();
        let _ = run_fleet(&dataset, system, &[], &FleetConfig::default(), Seed(185), None);
    }

    #[test]
    fn improvement_on_requires_two_occurrences() {
        let report = FleetReport {
            days: vec![DayReport {
                day: 0,
                scenario: SceneAttributes::from_scene_index(0),
                f1: 0.5,
                drift_rate: 0.0,
                collected_frames: 0,
                expanded_model: None,
                repository_size: 5,
                device_panics: 0,
                active_devices: 3,
            }],
            quarantine_records: Vec::new(),
        };
        assert!(report
            .improvement_on(SceneAttributes::from_scene_index(0))
            .is_none());
        assert!(report
            .improvement_on(SceneAttributes::from_scene_index(1))
            .is_none());
    }

    fn loop_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("anole-loop-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn closed_loop_promotes_a_reprofiled_candidate() {
        let (dataset, system) = world();
        let exotic =
            SceneAttributes::new(Weather::Snowy, Location::TollBooth, TimeOfDay::Night);
        let footage = dataset.world().generate_clip(
            ClipId(8000),
            DatasetSource::Shd,
            exotic,
            120,
            1.0,
            Seed(192),
        );
        let dir = loop_dir("promote");
        let (served, reprofile, rollout) = reprofile_and_rollout(
            &system,
            &dataset,
            &footage.frames,
            6,
            &dir,
            Seed(193),
            None,
            None,
        )
        .unwrap();
        assert!(reprofile.changed_anything());
        assert_eq!(rollout.outcome, RolloutOutcome::Promoted);
        assert_eq!(rollout.sessions_on_candidate, 6);
        // The served system is the re-profiled candidate, not the original.
        assert_ne!(served, system);
        assert_eq!(
            served.repository().len(),
            system.repository().len() + usize::from(reprofile.new_model.is_some())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn closed_loop_reverts_to_last_good_on_injected_regression() {
        use crate::omi::FaultPlan;

        let (dataset, system) = world();
        let exotic =
            SceneAttributes::new(Weather::Snowy, Location::TollBooth, TimeOfDay::Night);
        let footage = dataset.world().generate_clip(
            ClipId(8001),
            DatasetSource::Shd,
            exotic,
            120,
            1.0,
            Seed(194),
        );
        let dir = loop_dir("revert");
        let mut injector =
            FaultPlan::new(Seed(195)).at(0, FaultKind::RegressedUpdate).injector();
        let (served, _reprofile, rollout) = reprofile_and_rollout(
            &system,
            &dataset,
            &footage.frames,
            6,
            &dir,
            Seed(196),
            None,
            Some(&mut injector),
        )
        .unwrap();
        assert_eq!(rollout.outcome, RolloutOutcome::RolledBack);
        assert!(rollout.regression_injected);
        assert_eq!(rollout.sessions_on_candidate, 0);
        // The fleet keeps serving exactly the pinned last-good system.
        assert_eq!(served, system);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn supervised_run_with_zero_faults_matches_unsupervised() {
        use crate::omi::FaultPlan;

        let (dataset, system) = world();
        let familiar = dataset.clips()[0].attributes;
        let schedule = [familiar, familiar];
        let config = FleetConfig {
            devices: 2,
            frames_per_day: 40,
            min_footage: 100_000,
        };
        let (plain, plain_system) =
            run_fleet(&dataset, system.clone(), &schedule, &config, Seed(186), None).unwrap();
        let injector = FaultPlan::new(Seed(187)).injector();
        let (supervised, supervised_system) = run_fleet(
            &dataset,
            system,
            &schedule,
            &config,
            Seed(186),
            Some(injector),
        )
        .unwrap();
        assert_eq!(plain, supervised);
        assert_eq!(plain_system, supervised_system);
        assert!(supervised.quarantine_records.is_empty());
        assert!(supervised.days.iter().all(|d| d.device_panics == 0));
        assert!(supervised.days.iter().all(|d| d.active_devices == 2));
    }

    #[test]
    fn quarantine_records_carry_typed_reasons() {
        use crate::omi::FaultPlan;

        let (dataset, system) = world();
        let familiar = dataset.clips()[0].attributes;
        let schedule = [familiar, familiar];
        let config = FleetConfig {
            devices: 2,
            frames_per_day: 30,
            min_footage: 100_000,
        };
        // Every attempt panics: day 0 draws both first attempts (draws 0,
        // 1), then device 0's retry (2) and device 1's (3). Both devices
        // burn their retry and the fleet finishes the schedule with an
        // empty roster.
        let plan = FaultPlan::new(Seed(190))
            .at(0, FaultKind::DevicePanic)
            .at(1, FaultKind::DevicePanic)
            .at(2, FaultKind::DevicePanic)
            .at(3, FaultKind::DevicePanic);
        let (report, _) = run_fleet(
            &dataset,
            system,
            &schedule,
            &config,
            Seed(191),
            Some(plan.injector()),
        )
        .unwrap();
        let quarantined: Vec<usize> = report.quarantine_records.iter().map(|r| r.session).collect();
        assert_eq!(quarantined, vec![0, 1]);
        for (record, device) in report.quarantine_records.iter().zip([0usize, 1]) {
            assert_eq!(
                record.reason,
                QuarantineReason::RetriesExhausted { attempts: 2 }
            );
            assert_eq!(record.first_fault, Some(FaultKind::DevicePanic));
            assert!(record.detail.contains(&format!("device {device}")));
        }
        // 2 initial panics + 2 retry panics on day 0; none on day 1.
        assert_eq!(report.days[0].device_panics, 4);
        assert_eq!(report.days[0].active_devices, 0);
        assert_eq!(report.days[1].device_panics, 0);
        assert_eq!(report.days[1].active_devices, 0);
    }
}
