//! Deployment bundles: the offline→online hand-off of Fig. 2.
//!
//! The paper's mobile devices "communicate with a cloud server via an
//! unstable wireless network connection for offline model training and
//! downloading" (§II-A). This module packages a trained [`AnoleSystem`]
//! into a directory bundle — a manifest plus one JSON artifact per model —
//! with checksums verified on load, and prices the download of such a
//! bundle over the [`UnstableLink`] simulator.

use std::path::{Path, PathBuf};

use anole_data::DrivingDataset;
use anole_device::UnstableLink;
use anole_nn::ReferenceModel;
use anole_json::json_struct;
use anole_tensor::{rng_from_seed, split_seed, Seed, StdRng};

use crate::omi::FaultInjector;
use crate::{AnoleError, AnoleSystem};

/// One artifact in a deployment bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// File name within the bundle directory.
    pub file: String,
    /// Human-readable role ("scene model", "compressed model 3", …).
    pub role: String,
    /// Serialized size in bytes (what the device actually stores).
    pub serialized_bytes: u64,
    /// Paper-scale transfer size in bytes (what the download simulator
    /// prices — e.g. 34 MB per compressed model, Table II).
    pub transfer_bytes: u64,
    /// FNV-1a checksum of the serialized artifact.
    pub checksum: u64,
}

/// The bundle manifest: what a device must download before going online.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Bundle format version.
    pub version: u32,
    /// Number of compressed models in the repository.
    pub model_count: usize,
    /// Every artifact, in download order.
    pub entries: Vec<ManifestEntry>,
}

json_struct!(ManifestEntry { file, role, serialized_bytes, transfer_bytes, checksum });
json_struct!(Manifest { version, model_count, entries });

/// The one bundle format version this build writes and reads.
pub const BUNDLE_VERSION: u32 = 1;

impl Manifest {
    /// Total paper-scale bytes a device must transfer.
    pub fn total_transfer_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.transfer_bytes).sum()
    }
}

/// FNV-1a over a byte string — a dependency-free integrity check.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

fn deploy_err(detail: impl std::fmt::Display) -> AnoleError {
    AnoleError::Deploy {
        detail: detail.to_string(),
    }
}

/// Writes a trained system as a deployment bundle under `dir`.
///
/// Layout: `manifest.json`, `scene_model.json`, `decision.json`,
/// `model_000.json` … Returns the manifest.
///
/// # Errors
///
/// Surfaces filesystem failures as [`AnoleError::Deploy`].
pub fn save_bundle(system: &AnoleSystem, dir: &Path) -> Result<Manifest, AnoleError> {
    std::fs::create_dir_all(dir).map_err(deploy_err)?;
    let mut entries = Vec::new();

    let mut write = |file: String, role: String, transfer: u64, json: String| -> Result<(), AnoleError> {
        let bytes = json.as_bytes();
        entries.push(ManifestEntry {
            file: file.clone(),
            role,
            serialized_bytes: bytes.len() as u64,
            transfer_bytes: transfer,
            checksum: fnv1a(bytes),
        });
        std::fs::write(dir.join(&file), bytes).map_err(deploy_err)
    };

    let scene_json = anole_json::to_string(system.scene_model());
    write(
        "scene_model.json".into(),
        "scene model".into(),
        ReferenceModel::Resnet18.weight_bytes(),
        scene_json,
    )?;
    let decision_json = anole_json::to_string(system.decision());
    write(
        "decision.json".into(),
        "decision model".into(),
        ReferenceModel::DecisionMlp.weight_bytes(),
        decision_json,
    )?;
    for model in system.repository().models() {
        let json = anole_json::to_string(model);
        write(
            format!("model_{:03}.json", model.id),
            format!("compressed model {}", model.id),
            ReferenceModel::Yolov3Tiny.weight_bytes(),
            json,
        )?;
    }
    // The full system (config + suitability sets) for cloud-side resume.
    let system_json = anole_json::to_string(system);
    write("system.json".into(), "full system".into(), 0, system_json)?;

    let manifest = Manifest {
        version: BUNDLE_VERSION,
        model_count: system.repository().len(),
        entries,
    };
    let manifest_json = anole_json::to_string_pretty(&manifest);
    std::fs::write(dir.join("manifest.json"), manifest_json).map_err(deploy_err)?;
    Ok(manifest)
}

/// Reads the manifest of a bundle directory.
///
/// # Errors
///
/// Fails when the manifest is missing or malformed, or written in a bundle
/// format other than [`BUNDLE_VERSION`].
pub fn read_manifest(dir: &Path) -> Result<Manifest, AnoleError> {
    let json = std::fs::read_to_string(dir.join("manifest.json")).map_err(deploy_err)?;
    let manifest: Manifest = anole_json::from_str(&json).map_err(deploy_err)?;
    if manifest.version != BUNDLE_VERSION {
        return Err(deploy_err(format!(
            "bundle format version {} (this build reads {BUNDLE_VERSION})",
            manifest.version
        )));
    }
    Ok(manifest)
}

/// Loads a bundle back into a full system, verifying every checksum.
///
/// # Errors
///
/// Fails when the manifest or any artifact is missing, corrupt (checksum
/// mismatch), or malformed.
pub fn load_bundle(dir: &Path) -> Result<AnoleSystem, AnoleError> {
    let manifest = read_manifest(dir)?;
    for entry in &manifest.entries {
        let bytes = std::fs::read(dir.join(&entry.file)).map_err(deploy_err)?;
        if fnv1a(&bytes) != entry.checksum {
            return Err(deploy_err(format!("checksum mismatch in {}", entry.file)));
        }
    }
    let system_path: PathBuf = dir.join("system.json");
    let json = std::fs::read_to_string(system_path).map_err(deploy_err)?;
    let system: AnoleSystem = anole_json::from_str(&json).map_err(deploy_err)?;
    if system.repository().len() != manifest.model_count {
        return Err(deploy_err(format!(
            "manifest lists {} models, bundle holds {}",
            manifest.model_count,
            system.repository().len()
        )));
    }
    Ok(system)
}

/// Report of a resumable bundle download (see [`download_resumable`]).
///
/// Byte accounting is exact: on success,
/// `transferred_bytes == payload_bytes + wasted_bytes` — every byte sent
/// over the link either landed in a verified artifact or is accounted as
/// waste (in-flight progress lost to a link death, or a whole artifact that
/// arrived checksum-corrupt and was re-fetched). Completed artifacts are
/// never re-sent.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumableDownloadReport {
    /// Wall-clock milliseconds including retries and reconnect backoff.
    pub total_ms: f64,
    /// Chunks transferred successfully (including later-wasted ones).
    pub chunks: usize,
    /// Chunks that timed out and were retried within a session.
    pub retries: usize,
    /// Mid-bundle link deaths survived by reconnecting.
    pub link_deaths: usize,
    /// Artifacts that arrived checksum-corrupt and were re-fetched.
    pub corrupt_arrivals: usize,
    /// Download sessions used (1 = the link never died).
    pub sessions: usize,
    /// Paper-scale payload of the manifest, in bytes.
    pub payload_bytes: u64,
    /// Bytes actually sent over the link, re-sent bytes included.
    pub transferred_bytes: u64,
    /// Re-sent bytes: in-flight progress lost to link deaths plus corrupt
    /// arrivals.
    pub wasted_bytes: u64,
    /// Reconnect backoff milliseconds (already included in `total_ms`).
    pub backoff_ms: f64,
}

/// Downloads a bundle over an unstable uplink in 256 KiB chunks with
/// retry-on-timeout and per-artifact resume, pricing the wall-clock cost.
/// This is the offline phase, so tail latency is tolerable — the point is
/// that it happens *before* inference, not during (§II-A).
///
/// The link can also die mid-bundle (injected via
/// [`FaultKind::LinkDeath`](crate::omi::FaultKind::LinkDeath)) and artifacts
/// can arrive checksum-corrupt
/// ([`FaultKind::TruncatedArtifact`](crate::omi::FaultKind::TruncatedArtifact)).
/// Completion is tracked per manifest entry, so each reconnect session —
/// priced with exponential backoff — re-transfers only the artifacts still
/// missing or checksum-failed; verified artifacts are never re-sent. With
/// `injector` `None` (or a zero-fault plan) the download is one ideal
/// session: a timed-out chunk is retried in place and nothing is wasted.
///
/// # Errors
///
/// [`AnoleError::DownloadIncomplete`] when artifacts are still missing
/// after `max_sessions` sessions.
pub fn download_resumable(
    manifest: &Manifest,
    link: &mut UnstableLink,
    rng: &mut StdRng,
    mut injector: Option<&mut FaultInjector>,
    max_sessions: usize,
) -> Result<ResumableDownloadReport, AnoleError> {
    const CHUNK: u64 = 256 * 1024;
    const BASE_BACKOFF_MS: f64 = 200.0;

    let mut report = ResumableDownloadReport {
        total_ms: 0.0,
        chunks: 0,
        retries: 0,
        link_deaths: 0,
        corrupt_arrivals: 0,
        sessions: 0,
        payload_bytes: manifest.total_transfer_bytes(),
        transferred_bytes: 0,
        wasted_bytes: 0,
        backoff_ms: 0.0,
    };
    let mut complete = vec![false; manifest.entries.len()];

    'sessions: for session in 0..max_sessions.max(1) {
        report.sessions = session + 1;
        if session > 0 {
            // Priced exponential backoff before reconnecting (capped so the
            // simulated wait stays finite under long fault bursts).
            let backoff = BASE_BACKOFF_MS * f64::from(1u32 << (session - 1).min(6) as u32);
            report.backoff_ms += backoff;
            report.total_ms += backoff;
        }
        for (i, entry) in manifest.entries.iter().enumerate() {
            if complete[i] {
                continue;
            }
            // Partial progress does not survive a link death: the in-flight
            // artifact restarts from zero next session (its bytes are waste).
            let mut entry_bytes = 0u64;
            let mut remaining = entry.transfer_bytes;
            while remaining > 0 {
                if injector.as_deref_mut().is_some_and(FaultInjector::link_dies) {
                    report.link_deaths += 1;
                    report.wasted_bytes += entry_bytes;
                    continue 'sessions;
                }
                let size = remaining.min(CHUNK);
                match link.round_trip_ms(size, rng) {
                    Ok(ms) => {
                        report.total_ms += ms as f64;
                        remaining -= size;
                        entry_bytes += size;
                        report.transferred_bytes += size;
                        report.chunks += 1;
                    }
                    Err(timeout) => {
                        report.total_ms += timeout as f64;
                        report.retries += 1;
                    }
                }
            }
            // The device verifies the manifest checksum on arrival; a corrupt
            // artifact stays incomplete and is re-fetched next session.
            if injector
                .as_deref_mut()
                .is_some_and(FaultInjector::artifact_arrives_corrupt)
            {
                report.corrupt_arrivals += 1;
                report.wasted_bytes += entry.transfer_bytes;
            } else {
                complete[i] = true;
            }
        }
        if complete.iter().all(|&c| c) {
            debug_assert_eq!(
                report.transferred_bytes,
                report.payload_bytes + report.wasted_bytes
            );
            return Ok(report);
        }
    }
    Err(AnoleError::DownloadIncomplete {
        missing: complete.iter().filter(|&&c| !c).count(),
        attempts: report.sessions,
    })
}

/// End-to-end routed accuracy of a system on held-out frames: each frame is
/// routed by the decision model to its top-ranked specialist, whose
/// detections are scored against the truth. This is the fleet-facing metric
/// the canary gate compares — it exercises routing *and* detection, so a
/// regression in either shows up.
///
/// # Errors
///
/// Surfaces routing and inference errors from the substrates.
fn routed_validation_f1(
    system: &AnoleSystem,
    dataset: &DrivingDataset,
    refs: &[anole_data::FrameRef],
) -> Result<f32, AnoleError> {
    let threshold = system.config().detector.threshold;
    let mut counts = anole_detect::DetectionCounts::default();
    for &r in refs {
        let frame = dataset.frame(r);
        let top = system.decision().rank(&frame.features)?[0];
        let pred = system.repository().model(top).detect(&frame.features, threshold)?;
        counts.accumulate(&pred, &frame.truth);
    }
    Ok(counts.f1())
}

/// What [`staged_rollout`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutOutcome {
    /// The candidate passed the canary gate and now serves the whole fleet.
    Promoted,
    /// The candidate regressed (measured or injected); the fleet stays on
    /// the last-good bundle and the canary cohort was re-served it.
    RolledBack,
}

/// Report of one staged rollout (see [`staged_rollout`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutReport {
    /// Promotion or rollback.
    pub outcome: RolloutOutcome,
    /// Routed validation F1 of the candidate bundle.
    pub candidate_f1: f32,
    /// Routed validation F1 of the last-good bundle.
    pub last_good_f1: f32,
    /// Whether a [`FaultKind::RegressedUpdate`](crate::omi::FaultKind)
    /// fired for this candidate (silent regression the gate must catch).
    pub regression_injected: bool,
    /// Devices in the canary cohort.
    pub canary_devices: usize,
    /// Devices in the whole fleet.
    pub fleet_devices: usize,
    /// Deliveries that arrived stale and were retried.
    pub stale_deliveries: usize,
    /// Devices left serving sessions from the candidate bundle — the whole
    /// fleet on promotion, **zero** on rollback (the canary cohort only
    /// shadow-evaluates; no session is ever served from an unpromoted
    /// bundle).
    pub sessions_on_candidate: usize,
    /// Bundle downloads performed (canary + promotion or re-serve).
    pub downloads: usize,
    /// Wall-clock milliseconds spent downloading across the fleet.
    pub download_ms: f64,
}

/// Fraction of the fleet serving as the canary cohort of a staged rollout
/// (at least one device).
const CANARY_FRACTION: f32 = 0.25;

/// Promotion gate ε: a candidate's routed validation F1 must not fall more
/// than this below the last-good bundle's (the shape of the quantization
/// acceptance gate).
const EPSILON_F1: f32 = 0.02;

/// Download sessions per bundle delivery before a rollout gives up: the
/// budget of stale-delivery retries and of each resumable download.
const MAX_DOWNLOAD_SESSIONS: usize = 8;

/// Delivers `manifest` to one device, retrying stale arrivals. Each attempt
/// that draws [`FaultKind::StaleBundle`](crate::omi::FaultKind) is discarded
/// before any bytes move (the device rejects the outdated manifest version);
/// fresh arrivals then pay the full resumable-download price.
fn deliver(
    manifest: &Manifest,
    seed: Seed,
    device: u64,
    injector: &mut Option<&mut FaultInjector>,
    draw_stale: bool,
    report: &mut RolloutReport,
) -> Result<(), AnoleError> {
    for _ in 0..MAX_DOWNLOAD_SESSIONS {
        if draw_stale && injector.as_deref_mut().is_some_and(FaultInjector::bundle_is_stale) {
            report.stale_deliveries += 1;
            anole_obs::counter_add!("omi.engine.drift.stale_bundles", 1);
            continue;
        }
        let mut link = UnstableLink::new();
        let mut rng = rng_from_seed(split_seed(seed, device));
        let dl = download_resumable(
            manifest,
            &mut link,
            &mut rng,
            injector.as_deref_mut(),
            MAX_DOWNLOAD_SESSIONS,
        )?;
        report.downloads += 1;
        report.download_ms += dl.total_ms;
        return Ok(());
    }
    Err(deploy_err(format!(
        "device {device} still served a stale bundle after {MAX_DOWNLOAD_SESSIONS} delivery attempts"
    )))
}

/// Staged rollout of a re-profiled candidate with canary gating and
/// auto-rollback — the online half of the continual re-profiling loop.
///
/// The candidate is bundled to `candidate_dir` and delivered (over the
/// unstable uplink, with stale-bundle retries) to a canary cohort of
/// `⌈fleet · 0.25⌉` devices, which *shadow-evaluate* it: routed
/// validation F1 is measured on `dataset`'s validation split while every
/// live session keeps serving the last-good bundle from `last_good_dir`.
/// Promotion mirrors the quantization acceptance gate: the candidate is
/// promoted only when `candidate_f1 + 0.02 ≥ last_good_f1` and no
/// [`FaultKind::RegressedUpdate`](crate::omi::FaultKind) fired. On
/// promotion the rest of the fleet downloads the candidate; on rollback the
/// canary cohort is re-served the last-good bundle and
/// `sessions_on_candidate` is zero — fleet-wide, no session was ever served
/// from the regressed bundle.
///
/// Deterministic for a fixed `(seed, injector plan)`: device download RNGs
/// are split per device index, so reports are bit-identical across runs.
///
/// # Errors
///
/// * [`AnoleError::Deploy`] for an empty fleet, bundle I/O failures, or a
///   device exhausting its stale-delivery retries.
/// * [`AnoleError::DownloadIncomplete`] when a download exhausts its
///   sessions.
pub fn staged_rollout(
    candidate: &AnoleSystem,
    last_good_dir: &Path,
    candidate_dir: &Path,
    dataset: &DrivingDataset,
    fleet_devices: usize,
    seed: Seed,
    mut injector: Option<&mut FaultInjector>,
) -> Result<RolloutReport, AnoleError> {
    let _span = anole_obs::span!("deploy.staged_rollout");
    if fleet_devices == 0 {
        return Err(deploy_err("staged rollout needs at least one device"));
    }
    let last_good = load_bundle(last_good_dir)?;
    let candidate_manifest = save_bundle(candidate, candidate_dir)?;
    let last_good_manifest = read_manifest(last_good_dir)?;
    let val = &dataset.split().val;
    let candidate_f1 = routed_validation_f1(candidate, dataset, val)?;
    let last_good_f1 = routed_validation_f1(&last_good, dataset, val)?;

    let canary = ((fleet_devices as f32 * CANARY_FRACTION).ceil() as usize).clamp(1, fleet_devices);
    let mut report = RolloutReport {
        outcome: RolloutOutcome::RolledBack,
        candidate_f1,
        last_good_f1,
        regression_injected: false,
        canary_devices: canary,
        fleet_devices,
        stale_deliveries: 0,
        sessions_on_candidate: 0,
        downloads: 0,
        download_ms: 0.0,
    };

    // Canary phase: deliver the candidate to the cohort for shadow
    // evaluation. Sessions keep serving last-good until promotion.
    for d in 0..canary {
        deliver(
            &candidate_manifest,
            seed,
            1000 + d as u64,
            &mut injector,
            true,
            &mut report,
        )?;
    }
    report.regression_injected =
        injector.as_deref_mut().is_some_and(FaultInjector::update_regresses);

    let promote = !report.regression_injected && candidate_f1 + EPSILON_F1 >= last_good_f1;
    if promote {
        // Fan out to the rest of the fleet; canary devices already hold the
        // bundle and just switch their sessions over.
        for d in canary..fleet_devices {
            deliver(
                &candidate_manifest,
                seed,
                1000 + d as u64,
                &mut injector,
                true,
                &mut report,
            )?;
        }
        report.outcome = RolloutOutcome::Promoted;
        report.sessions_on_candidate = fleet_devices;
        anole_obs::counter_add!("omi.engine.drift.promotions", 1);
    } else {
        // Auto-rollback: re-serve the pinned last-good bundle to the canary
        // cohort. Its manifest version is pinned, so no stale draws apply.
        for d in 0..canary {
            deliver(
                &last_good_manifest,
                seed,
                2000 + d as u64,
                &mut injector,
                false,
                &mut report,
            )?;
        }
        report.outcome = RolloutOutcome::RolledBack;
        report.sessions_on_candidate = 0;
        anole_obs::counter_add!("omi.engine.drift.rollbacks", 1);
    }
    anole_obs::gauge_set!(
        "omi.engine.drift.fleet_on_candidate",
        report.sessions_on_candidate as f64
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnoleConfig;
    use anole_data::{DatasetConfig, DrivingDataset};
    use anole_tensor::{rng_from_seed, Seed};

    fn system() -> AnoleSystem {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(131));
        AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(132)).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("anole-bundle-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn bundle_round_trips() {
        let system = system();
        let dir = temp_dir("roundtrip");
        let manifest = save_bundle(&system, &dir).unwrap();
        assert_eq!(manifest.model_count, system.repository().len());
        // scene + decision + models + system.json
        assert_eq!(manifest.entries.len(), system.repository().len() + 3);
        let loaded = load_bundle(&dir).unwrap();
        assert_eq!(&loaded, &system);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let system = system();
        let dir = temp_dir("corrupt");
        save_bundle(&system, &dir).unwrap();
        let victim = dir.join("model_000.json");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        std::fs::write(&victim, bytes).unwrap();
        let err = load_bundle(&dir).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Drops the last value of the first serialized weight vector: the
    /// `data` array that follows a matrix's `"cols":N`.
    fn truncate_first_weight_vector(json: &str) -> String {
        let key = ",\"data\":[";
        let mut from = 0;
        loop {
            let at = from + json[from..].find(key).expect("a serialized matrix");
            let open = at + key.len();
            let close = open + json[open..].find(']').expect("a closed array");
            let after_cols = json[..at].rsplit_once("\"cols\":").map(|(_, n)| n);
            let is_matrix = after_cols.is_some_and(|n| n.bytes().all(|b| b.is_ascii_digit()));
            if let Some(last) = json[open..close].rfind(',').filter(|_| is_matrix) {
                return format!("{}{}", &json[..open + last], &json[close..]);
            }
            from = close;
        }
    }

    #[test]
    fn truncated_weight_vector_is_an_error_not_a_panic() {
        let system = system();
        let dir = temp_dir("truncated");
        save_bundle(&system, &dir).unwrap();
        // Shorten one weight vector in system.json and re-sign the manifest,
        // so the checksum passes and only the shape check can catch it.
        let json = truncate_first_weight_vector(&read_system_json(&dir));
        rewrite_system_json(&dir, &json);

        let err = load_bundle(&dir).unwrap_err();
        assert!(err.to_string().contains("incompatible shapes"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn read_system_json(dir: &Path) -> String {
        std::fs::read_to_string(dir.join("system.json")).unwrap()
    }

    /// Replaces `system.json` and re-signs the manifest, so the checksum
    /// passes and only the reader can reject the new bytes.
    fn rewrite_system_json(dir: &Path, json: &str) {
        std::fs::write(dir.join("system.json"), json).unwrap();
        let mut manifest = read_manifest(dir).unwrap();
        for entry in manifest.entries.iter_mut().filter(|e| e.file == "system.json") {
            entry.checksum = fnv1a(json.as_bytes());
        }
        std::fs::write(dir.join("manifest.json"), anole_json::to_string_pretty(&manifest)).unwrap();
    }

    #[test]
    fn manifest_json_is_pinned() {
        let entry = |file: &str, role: &str, checksum| ManifestEntry {
            file: file.into(),
            role: role.into(),
            serialized_bytes: 120,
            transfer_bytes: 34_000_000,
            checksum,
        };
        let manifest = Manifest {
            version: BUNDLE_VERSION,
            model_count: 1,
            entries: vec![
                entry("model_000.json", "compressed model 0", u64::MAX),
                entry("system.json", "full \"system\"", 7),
            ],
        };
        let json = anole_json::to_string_pretty(&manifest);
        assert_eq!(
            json,
            r#"{
  "version": 1,
  "model_count": 1,
  "entries": [
    {
      "file": "model_000.json",
      "role": "compressed model 0",
      "serialized_bytes": 120,
      "transfer_bytes": 34000000,
      "checksum": 18446744073709551615
    },
    {
      "file": "system.json",
      "role": "full \"system\"",
      "serialized_bytes": 120,
      "transfer_bytes": 34000000,
      "checksum": 7
    }
  ]
}"#
        );
        assert_eq!(anole_json::from_str::<Manifest>(&json).unwrap(), manifest);
    }

    #[test]
    fn truncated_manifest_or_system_json_is_a_deploy_error() {
        let system = system();
        let dir = temp_dir("truncations");
        save_bundle(&system, &dir).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        for end in 0..manifest.len() {
            std::fs::write(dir.join("manifest.json"), &manifest[..end]).unwrap();
            let err = load_bundle(&dir).unwrap_err();
            assert!(matches!(err, AnoleError::Deploy { .. }), "prefix {end}: {err}");
        }
        std::fs::write(dir.join("manifest.json"), &manifest).unwrap();
        let json = read_system_json(&dir);
        let n = json.len();
        for end in [0, 1, n / 3, n / 2, n - 2, n - 1] {
            rewrite_system_json(&dir, &json[..end]);
            let err = load_bundle(&dir).unwrap_err();
            assert!(matches!(err, AnoleError::Deploy { .. }), "prefix {end}: {err}");
        }
        rewrite_system_json(&dir, &json);
        assert_eq!(load_bundle(&dir).unwrap(), system);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_of_another_format_version_is_rejected() {
        let system = system();
        let dir = temp_dir("version");
        save_bundle(&system, &dir).unwrap();
        let path = dir.join("manifest.json");
        let manifest = std::fs::read_to_string(&path).unwrap();
        let bumped = manifest.replacen("\"version\": 1", "\"version\": 2", 1);
        assert_ne!(bumped, manifest);
        std::fs::write(&path, bumped).unwrap();
        let err = load_bundle(&dir).unwrap_err();
        assert!(matches!(err, AnoleError::Deploy { .. }), "{err}");
        assert!(err.to_string().contains("version 2"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bundle_saved_before_quantization_still_loads() {
        // Models and decision nets written before int8 serving existed carry
        // no `quantized` member; it reads as `None`.
        fn strip_quantized(value: &mut anole_json::Value) {
            match value {
                anole_json::Value::Object(members) => {
                    members.retain(|(k, _)| k != "quantized");
                    members.iter_mut().for_each(|(_, v)| strip_quantized(v));
                }
                anole_json::Value::Array(items) => items.iter_mut().for_each(strip_quantized),
                _ => {}
            }
        }
        let system = system();
        let dir = temp_dir("pre-quant");
        save_bundle(&system, &dir).unwrap();
        let json = read_system_json(&dir);
        let mut value = anole_json::parse(&json).unwrap();
        strip_quantized(&mut value);
        let old = anole_json::to_string(&value);
        assert!(json.contains("\"quantized\":null") && !old.contains("quantized"));
        rewrite_system_json(&dir, &old);
        assert_eq!(load_bundle(&dir).unwrap(), system);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_fails_cleanly() {
        let dir = temp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_bundle(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transfer_size_matches_paper_scale() {
        let system = system();
        let dir = temp_dir("sizes");
        let manifest = save_bundle(&system, &dir).unwrap();
        let n = system.repository().len() as u64;
        let expected = ReferenceModel::Resnet18.weight_bytes()
            + ReferenceModel::DecisionMlp.weight_bytes()
            + n * ReferenceModel::Yolov3Tiny.weight_bytes();
        assert_eq!(manifest.total_transfer_bytes(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn download_simulation_completes_despite_outages() {
        let system = system();
        let dir = temp_dir("download");
        let manifest = save_bundle(&system, &dir).unwrap();
        let mut link = UnstableLink::new();
        let mut rng = rng_from_seed(Seed(133));
        let report = download_resumable(&manifest, &mut link, &mut rng, None, 1).unwrap();
        assert!(report.total_ms > 0.0);
        let expected_chunks =
            manifest.entries.iter().map(|e| e.transfer_bytes.div_ceil(256 * 1024)).sum::<u64>();
        assert_eq!(report.chunks as u64, expected_chunks);
        // An unstable link makes retries overwhelmingly likely at this size.
        assert!(report.retries > 0, "no retries over {} chunks", report.chunks);
        // Without faults a timed-out chunk is retried in place: one session,
        // nothing wasted.
        assert_eq!(report.sessions, 1);
        assert_eq!(report.link_deaths, 0);
        assert_eq!(report.wasted_bytes, 0);
        assert_eq!(report.transferred_bytes, report.payload_bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv1a_is_stable_and_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"anole"), fnv1a(b"anolf"));
        assert_eq!(fnv1a(b"anole"), fnv1a(b"anole"));
    }

    #[test]
    fn link_death_retransfers_only_the_inflight_artifact() {
        use crate::omi::{FaultKind, FaultPlan};

        let system = system();
        let dir = temp_dir("resume-death");
        let manifest = save_bundle(&system, &dir).unwrap();
        let mut link = UnstableLink::new();
        let mut rng = rng_from_seed(Seed(135));
        // Die a few chunk draws into the first artifact (it spans ~180
        // chunks, so draw 3 is mid-entry).
        let mut injector = FaultPlan::new(Seed(136)).at(3, FaultKind::LinkDeath).injector();
        let report =
            download_resumable(&manifest, &mut link, &mut rng, Some(&mut injector), 6).unwrap();
        assert_eq!(report.link_deaths, 1);
        assert_eq!(report.sessions, 2);
        assert!(report.backoff_ms > 0.0);
        // Only the in-flight artifact's partial progress was re-sent: at
        // most 3 chunks of waste, never the completed artifacts.
        assert_eq!(report.transferred_bytes, report.payload_bytes + report.wasted_bytes);
        assert!(report.wasted_bytes <= 3 * 256 * 1024, "wasted {}", report.wasted_bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_arrival_is_refetched_whole() {
        use crate::omi::{FaultKind, FaultPlan};

        let system = system();
        let dir = temp_dir("resume-corrupt");
        let manifest = save_bundle(&system, &dir).unwrap();
        let mut link = UnstableLink::new();
        let mut rng = rng_from_seed(Seed(137));
        // The first artifact arrives checksum-corrupt once.
        let mut injector =
            FaultPlan::new(Seed(138)).at(0, FaultKind::TruncatedArtifact).injector();
        let report =
            download_resumable(&manifest, &mut link, &mut rng, Some(&mut injector), 6).unwrap();
        assert_eq!(report.corrupt_arrivals, 1);
        assert_eq!(report.sessions, 2);
        assert_eq!(report.wasted_bytes, manifest.entries[0].transfer_bytes);
        assert_eq!(report.transferred_bytes, report.payload_bytes + report.wasted_bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_sessions_report_missing_artifacts() {
        use crate::omi::FaultPlan;

        let system = system();
        let dir = temp_dir("resume-exhaust");
        let manifest = save_bundle(&system, &dir).unwrap();
        let mut link = UnstableLink::new();
        let mut rng = rng_from_seed(Seed(139));
        // Every arrival corrupt: no artifact can ever verify.
        let mut injector =
            FaultPlan::new(Seed(140)).with_truncated_artifact_rate(1.0).injector();
        let err = download_resumable(&manifest, &mut link, &mut rng, Some(&mut injector), 2)
            .unwrap_err();
        assert_eq!(
            err,
            AnoleError::DownloadIncomplete { missing: manifest.entries.len(), attempts: 2 }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn rollout_fixture(tag: &str) -> (DrivingDataset, AnoleSystem, PathBuf, PathBuf) {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(141));
        let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(142)).unwrap();
        let last_good = temp_dir(&format!("{tag}-lastgood"));
        let candidate = temp_dir(&format!("{tag}-candidate"));
        save_bundle(&system, &last_good).unwrap();
        (dataset, system, last_good, candidate)
    }

    #[test]
    fn rollout_promotes_a_healthy_candidate_deterministically() {
        let (dataset, system, last_good, candidate_dir) = rollout_fixture("promote");
        let run = || {
            staged_rollout(
                &system,
                &last_good,
                &candidate_dir,
                &dataset,
                8,
                Seed(143),
                None,
            )
            .unwrap()
        };
        let report = run();
        assert_eq!(report.outcome, RolloutOutcome::Promoted);
        assert_eq!(report.canary_devices, 2);
        assert_eq!(report.fleet_devices, 8);
        assert_eq!(report.sessions_on_candidate, 8);
        assert_eq!(report.downloads, 8);
        assert_eq!(report.stale_deliveries, 0);
        assert!(!report.regression_injected);
        // An identical candidate gates at equality: F1s match exactly.
        assert_eq!(report.candidate_f1, report.last_good_f1);
        assert!(report.download_ms > 0.0);
        assert_eq!(report, run());
        std::fs::remove_dir_all(&last_good).unwrap();
        std::fs::remove_dir_all(&candidate_dir).unwrap();
    }

    #[test]
    fn injected_regression_is_caught_at_canary_and_rolled_back() {
        use crate::omi::{FaultKind, FaultPlan};

        let (dataset, system, last_good, candidate_dir) = rollout_fixture("regress");
        let mut injector =
            FaultPlan::new(Seed(144)).at(0, FaultKind::RegressedUpdate).injector();
        let report = staged_rollout(
            &system,
            &last_good,
            &candidate_dir,
            &dataset,
            8,
            Seed(145),
            Some(&mut injector),
        )
        .unwrap();
        assert_eq!(report.outcome, RolloutOutcome::RolledBack);
        assert!(report.regression_injected);
        // Zero sessions fleet-wide ever served the regressed bundle; the
        // canary cohort downloaded it for shadow evaluation, then was
        // re-served last-good.
        assert_eq!(report.sessions_on_candidate, 0);
        assert_eq!(report.downloads, report.canary_devices * 2);
        std::fs::remove_dir_all(&last_good).unwrap();
        std::fs::remove_dir_all(&candidate_dir).unwrap();
    }

    #[test]
    fn measured_regression_rolls_back_without_injection() {
        let (dataset, system, last_good, candidate_dir) = rollout_fixture("measured");
        let _ = system;
        // A candidate trained on a *different* world: same shapes, but its
        // specialists and router are tuned to foreign scene geometry, so its
        // routed F1 on this fleet's validation split collapses and the gate
        // must refuse it on measurement alone.
        let foreign = DrivingDataset::generate(&DatasetConfig::small(), Seed(146));
        let broken = AnoleSystem::train(&foreign, &AnoleConfig::fast(), Seed(142)).unwrap();
        let report = staged_rollout(
            &broken,
            &last_good,
            &candidate_dir,
            &dataset,
            4,
            Seed(147),
            None,
        )
        .unwrap();
        assert_eq!(report.outcome, RolloutOutcome::RolledBack);
        assert!(!report.regression_injected);
        assert!(
            report.candidate_f1 + EPSILON_F1 < report.last_good_f1,
            "candidate {:.3} vs last-good {:.3}",
            report.candidate_f1,
            report.last_good_f1
        );
        assert_eq!(report.sessions_on_candidate, 0);
        std::fs::remove_dir_all(&last_good).unwrap();
        std::fs::remove_dir_all(&candidate_dir).unwrap();
    }

    #[test]
    fn stale_deliveries_are_retried_until_fresh() {
        use crate::omi::{FaultKind, FaultPlan};

        let (dataset, system, last_good, candidate_dir) = rollout_fixture("stale");
        // The first two delivery draws arrive stale; retries then succeed.
        let mut injector = FaultPlan::new(Seed(148))
            .at(0, FaultKind::StaleBundle)
            .at(1, FaultKind::StaleBundle)
            .injector();
        let report = staged_rollout(
            &system,
            &last_good,
            &candidate_dir,
            &dataset,
            4,
            Seed(149),
            Some(&mut injector),
        )
        .unwrap();
        assert_eq!(report.outcome, RolloutOutcome::Promoted);
        assert_eq!(report.stale_deliveries, 2);
        assert_eq!(report.downloads, 4);
        std::fs::remove_dir_all(&last_good).unwrap();
        std::fs::remove_dir_all(&candidate_dir).unwrap();
    }
}
