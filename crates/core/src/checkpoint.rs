//! Crash-safe checkpointing for the offline (OSP) pipeline.
//!
//! The paper's offline stage trains `M_scene`, up to n = 19 compressed
//! specialists, and `M_decision` on a cloud server (§IV, Fig. 2) — minutes
//! of work that, before this module, a single panic or kill threw away
//! entirely. [`CheckpointStore`] snapshots each completed stage (and each
//! trained specialist candidate inside Algorithm 1) as a versioned,
//! FNV-checksummed artifact written via tmp-file + atomic rename, and
//! [`AnoleSystem::train_resumable`](crate::AnoleSystem::train_resumable)
//! reloads completed stages and re-enters training at the first incomplete
//! one.
//!
//! Trust model: a checkpoint is **evidence, not truth**. Loading validates
//! the magic string, format version, stage key, context binding (config +
//! seed + dataset fingerprint), and payload checksum; anything invalid is
//! discarded — deleted best-effort — and the stage retrains from scratch.
//! Because every stage trainer is deterministic given its seed, a resumed
//! run is bit-identical to an uninterrupted one (asserted by
//! `tests/recovery.rs`).

use std::path::{Path, PathBuf};

use anole_data::DrivingDataset;
use anole_json::{FromJson, ToJson};
use anole_tensor::Seed;

use crate::deploy::fnv1a;
use crate::omi::{CheckpointFault, FaultInjector};
use crate::{AnoleConfig, AnoleError};

/// Checkpoint format version; bump on any incompatible layout change.
/// Version-mismatched files are discarded on load, never trusted.
pub const CHECKPOINT_VERSION: u32 = 1;

const MAGIC: &str = "anole-checkpoint";
const EXT: &str = "ckpt";

/// The OSP stage boundaries, in pipeline order. Each completed stage is
/// snapshotted under its [`OspStage::key`];
/// [`FaultKind::TrainAbort`](crate::omi::FaultKind::TrainAbort) events are
/// scheduled by [`OspStage::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OspStage {
    /// `M_scene` after the TCM classifier fit (§IV-A).
    SceneModel,
    /// The full repository after Algorithm 1's δ-gated sweep.
    Repository,
    /// Suitability sets after adaptive scene sampling (§IV-B).
    Suitability,
    /// `M_decision` after the decision-model fit (§IV-C).
    Decision,
}

impl OspStage {
    /// All stages, in pipeline order.
    pub const ALL: [OspStage; 4] = [
        OspStage::SceneModel,
        OspStage::Repository,
        OspStage::Suitability,
        OspStage::Decision,
    ];

    /// Position in the pipeline (0-based).
    pub fn index(self) -> usize {
        match self {
            OspStage::SceneModel => 0,
            OspStage::Repository => 1,
            OspStage::Suitability => 2,
            OspStage::Decision => 3,
        }
    }

    /// Stable artifact key (also the file stem).
    pub fn key(self) -> &'static str {
        match self {
            OspStage::SceneModel => "stage_scene_model",
            OspStage::Repository => "stage_repository",
            OspStage::Suitability => "stage_suitability",
            OspStage::Decision => "stage_decision",
        }
    }

    /// Human-readable stage name.
    pub fn name(self) -> &'static str {
        match self {
            OspStage::SceneModel => "scene model",
            OspStage::Repository => "model repository",
            OspStage::Suitability => "suitability sets",
            OspStage::Decision => "decision model",
        }
    }
}

impl std::fmt::Display for OspStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The on-disk envelope wrapping every checkpointed artifact.
#[derive(Debug)]
struct Envelope {
    magic: String,
    version: u32,
    key: String,
    /// Binds the artifact to (config, seed, dataset); a checkpoint written
    /// under any other training context must not be reloaded.
    context: u64,
    /// FNV-1a over the payload bytes.
    checksum: u64,
    /// JSON of the artifact itself.
    payload: String,
}

anole_json::json_struct!(Envelope { magic, version, key, context, checksum, payload });

/// Binds checkpoints to their training context: the config, the seed, and a
/// cheap dataset fingerprint (generator config + clip/frame counts). A
/// checkpoint from any other context validates as stale and is discarded.
pub fn context_key(dataset: &DrivingDataset, config: &AnoleConfig, seed: Seed) -> u64 {
    let mut text = anole_json::to_string(config);
    text.push('|');
    text.push_str(&anole_json::to_string(dataset.config()));
    text.push('|');
    text.push_str(&format!(
        "seed={};clips={};frames={}",
        seed.0,
        dataset.clips().len(),
        dataset.frame_count()
    ));
    fnv1a(text.as_bytes())
}

/// Counters describing what a store did during one training run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Artifacts written durably.
    pub writes: usize,
    /// Writes dropped by an injected I/O failure (training continued).
    pub write_faults: usize,
    /// Writes that landed truncated/corrupt (injected; caught on load).
    pub truncated_writes: usize,
    /// Artifacts reloaded from a valid checkpoint.
    pub loads: usize,
    /// Invalid checkpoints (corrupt, wrong version, wrong context)
    /// discarded on load.
    pub discarded: usize,
}

/// A directory of versioned, checksummed training checkpoints.
///
/// Writes go through tmp-file + atomic rename, so a crash mid-write never
/// leaves a half-written artifact under the final name. An optional
/// [`FaultInjector`] exercises the failure paths deterministically.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    context: u64,
    /// What happened during this run.
    pub stats: CheckpointStats,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory bound to the given
    /// training context.
    ///
    /// # Errors
    ///
    /// [`AnoleError::Checkpoint`] if the directory cannot be created.
    pub fn open(dir: &Path, context: u64) -> Result<Self, AnoleError> {
        std::fs::create_dir_all(dir).map_err(|e| AnoleError::Checkpoint {
            detail: format!("cannot create {}: {e}", dir.display()),
        })?;
        Ok(Self {
            dir: dir.to_path_buf(),
            context,
            stats: CheckpointStats::default(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The context key the store validates against.
    pub fn context(&self) -> u64 {
        self.context
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.{EXT}"))
    }

    /// Whether a checkpoint file exists for `key` (without validating it).
    pub fn has(&self, key: &str) -> bool {
        self.path_for(key).exists()
    }

    /// Writes `value` as the checkpoint for `key` via tmp-file + atomic
    /// rename. Returns `true` when the artifact is durable; `false` when an
    /// injected write fault dropped it (the caller's in-memory result is
    /// still good — only resume coverage is lost, so training continues).
    ///
    /// # Errors
    ///
    /// [`AnoleError::Checkpoint`] on real I/O failures.
    pub fn save<T: ToJson>(
        &mut self,
        key: &str,
        value: &T,
        injector: Option<&mut FaultInjector>,
    ) -> Result<bool, AnoleError> {
        let fault = injector.and_then(FaultInjector::next_checkpoint_write);
        if fault == Some(CheckpointFault::WriteFailure) {
            self.stats.write_faults += 1;
            return Ok(false);
        }
        let payload = anole_json::to_string(value);
        let envelope = Envelope {
            magic: MAGIC.to_string(),
            version: CHECKPOINT_VERSION,
            key: key.to_string(),
            context: self.context,
            checksum: fnv1a(payload.as_bytes()),
            payload,
        };
        let mut bytes = anole_json::to_string(&envelope).into_bytes();
        if fault == Some(CheckpointFault::Truncated) {
            // The artifact lands corrupt at rest; the loader must catch it.
            bytes.truncate(bytes.len() / 2);
            self.stats.truncated_writes += 1;
        }
        let path = self.path_for(key);
        let tmp = self.dir.join(format!("{key}.{EXT}.tmp"));
        let io_err = |what: &str, e: std::io::Error| AnoleError::Checkpoint {
            detail: format!("{what} {}: {e}", path.display()),
        };
        std::fs::write(&tmp, &bytes).map_err(|e| io_err("cannot write", e))?;
        std::fs::rename(&tmp, &path).map_err(|e| io_err("cannot commit", e))?;
        self.stats.writes += 1;
        Ok(true)
    }

    /// Loads and validates the checkpoint for `key`. Any invalid checkpoint
    /// — unreadable, unparsable, wrong magic/version/key/context, checksum
    /// mismatch, or undeserializable payload — is discarded (the file is
    /// deleted best-effort) and `None` is returned so the caller retrains.
    pub fn load<T: FromJson>(&mut self, key: &str) -> Option<T> {
        let path = self.path_for(key);
        let bytes = std::fs::read(&path).ok()?;
        match self.validate::<T>(key, &bytes) {
            Some(value) => {
                self.stats.loads += 1;
                Some(value)
            }
            None => {
                self.stats.discarded += 1;
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    fn validate<T: FromJson>(&self, key: &str, bytes: &[u8]) -> Option<T> {
        let envelope: Envelope = anole_json::from_str(std::str::from_utf8(bytes).ok()?).ok()?;
        if envelope.magic != MAGIC
            || envelope.version != CHECKPOINT_VERSION
            || envelope.key != key
            || envelope.context != self.context
            || fnv1a(envelope.payload.as_bytes()) != envelope.checksum
        {
            return None;
        }
        anole_json::from_str(&envelope.payload).ok()
    }

    /// Removes the checkpoint for `key`, if present.
    pub fn remove(&mut self, key: &str) {
        let _ = std::fs::remove_file(self.path_for(key));
    }

    /// Removes every checkpoint file in the store (e.g. after a training
    /// run completes and the bundle has shipped).
    pub fn clear(&mut self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == EXT) {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// Key for one specialist-candidate checkpoint inside Algorithm 1's sweep,
/// addressed by its clustering coordinates (stable across runs — candidate
/// seeds are keyed the same way).
pub fn specialist_key(k: usize, cluster: usize) -> String {
    format!("specialist_k{k:03}_c{cluster:03}")
}

/// What a resumable training run recovered, stage by stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Stage names reloaded from valid checkpoints, in pipeline order.
    pub resumed_stages: Vec<&'static str>,
    /// Specialist candidates reloaded inside an incomplete repository stage.
    pub resumed_specialists: usize,
    /// Re-profile steps reloaded inside an interrupted incremental
    /// re-profile.
    pub resumed_reprofile_steps: usize,
    /// First stage that actually ran (None when everything resumed).
    pub first_trained_stage: Option<&'static str>,
    /// Store counters (writes, faults, loads, discards).
    pub checkpoints: CheckpointStats,
}

/// Recovery context threaded through
/// [`AnoleSystem::train_resumable`](crate::AnoleSystem::train_resumable):
/// a checkpoint store plus an optional fault injector that exercises
/// checkpoint-write failures, artifact truncation, and post-stage aborts.
#[derive(Debug)]
pub struct TrainRecovery {
    store: CheckpointStore,
    injector: Option<FaultInjector>,
    /// Filled in as training proceeds.
    pub report: RecoveryReport,
}

impl TrainRecovery {
    /// Wraps a store with no fault injection.
    pub fn new(store: CheckpointStore) -> Self {
        Self {
            store,
            injector: None,
            report: RecoveryReport::default(),
        }
    }

    /// Attaches a seeded fault injector. A zero-fault plan leaves training
    /// bit-identical to an uninstrumented run.
    #[must_use]
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Copies the store counters into the report (called at step
    /// boundaries and by `finish`).
    fn sync_stats(&mut self) {
        self.report.checkpoints = self.store.stats.clone();
    }

    /// Finalizes the report after a successful run.
    pub fn finish(&mut self) {
        self.sync_stats();
    }
}

/// One checkpointed step of a training run: an OSP stage, one of
/// Algorithm 1's specialist candidates, or a step of an incremental
/// re-profile.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// A stage of the OSP pipeline.
    Stage(OspStage),
    /// The specialist candidate at Algorithm 1's `(k, cluster)`.
    Specialist { k: usize, cluster: usize },
    /// Step `index` of
    /// [`AnoleSystem::reprofile_with_frames`](crate::AnoleSystem::reprofile_with_frames),
    /// numbered in execution order so a resumed re-profile replays the same
    /// sequence; `name` is the stage an abort after it reports.
    Reprofile { index: usize, name: &'static str },
}

impl Step {
    /// The artifact key (also the file stem).
    fn key(self) -> String {
        match self {
            Step::Stage(stage) => stage.key().to_string(),
            Step::Specialist { k, cluster } => specialist_key(k, cluster),
            Step::Reprofile { index, .. } => format!("reprofile_step{index:03}"),
        }
    }

    /// Loads this step's checkpoint, recording the resume in the report.
    pub(crate) fn load<T: FromJson>(self, recovery: &mut TrainRecovery) -> Option<T> {
        let value = recovery.store.load(&self.key());
        if value.is_some() {
            let report = &mut recovery.report;
            match self {
                Step::Stage(stage) => report.resumed_stages.push(stage.name()),
                Step::Specialist { .. } => report.resumed_specialists += 1,
                Step::Reprofile { .. } => report.resumed_reprofile_steps += 1,
            }
        }
        value
    }

    /// Saves this step's checkpoint (write faults are absorbed; see
    /// [`CheckpointStore::save`]), recording the first trained OSP stage.
    ///
    /// # Errors
    ///
    /// [`AnoleError::Checkpoint`] on real I/O failures.
    pub(crate) fn save<T: ToJson>(
        self,
        recovery: &mut TrainRecovery,
        value: &T,
    ) -> Result<(), AnoleError> {
        if let Step::Stage(stage) = self {
            recovery.report.first_trained_stage.get_or_insert(stage.name());
        }
        recovery.store.save(&self.key(), value, recovery.injector.as_mut())?;
        Ok(())
    }

    /// Runs this step through `recovery`: reloads a valid checkpoint, or
    /// runs `train`, saves its result and stops at the step's abort point.
    /// The abort point sits *after* the save, so an injected kill always
    /// lands at a step boundary with that step's checkpoint durable; a
    /// reloaded step skips its abort point (the kill already happened).
    /// `train` receives the recovery back, for steps that checkpoint inside.
    ///
    /// # Errors
    ///
    /// `train`'s error, [`AnoleError::Checkpoint`] on real I/O failures, and
    /// [`AnoleError::Aborted`] when the fault plan schedules a
    /// [`TrainAbort`](crate::omi::FaultKind::TrainAbort) at this OSP stage's
    /// index or a [`ReprofileAbort`](crate::omi::FaultKind::ReprofileAbort)
    /// at this re-profile step's index.
    pub(crate) fn run<T: ToJson + FromJson>(
        self,
        mut recovery: Option<&mut TrainRecovery>,
        train: impl FnOnce(Option<&mut TrainRecovery>) -> Result<T, AnoleError>,
    ) -> Result<T, AnoleError> {
        if let Some(value) = recovery.as_deref_mut().and_then(|r| self.load(r)) {
            return Ok(value);
        }
        let value = train(recovery.as_deref_mut())?;
        if let Some(rec) = recovery {
            self.save(rec, &value)?;
            rec.sync_stats();
            let aborted = rec.injector.as_ref().and_then(|i| match self {
                Step::Stage(stage) => i.train_abort_after(stage.index()).then_some(stage.name()),
                Step::Reprofile { index, name } => i.reprofile_abort_after(index).then_some(name),
                Step::Specialist { .. } => None,
            });
            if let Some(stage) = aborted {
                return Err(AnoleError::Aborted { stage });
            }
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omi::{FaultKind, FaultPlan};

    fn temp_store(tag: &str, context: u64) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("anole-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(&dir, context).unwrap()
    }

    #[test]
    fn round_trips_and_counts() {
        let mut store = temp_store("roundtrip", 7);
        assert!(!store.has("stage_scene_model"));
        assert!(store.save("stage_scene_model", &vec![1u32, 2, 3], None).unwrap());
        assert!(store.has("stage_scene_model"));
        let loaded: Vec<u32> = store.load("stage_scene_model").unwrap();
        assert_eq!(loaded, vec![1, 2, 3]);
        assert_eq!(store.stats.writes, 1);
        assert_eq!(store.stats.loads, 1);
        assert_eq!(store.stats.discarded, 0);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn envelope_json_is_pinned() {
        let mut store = temp_store("golden", u64::MAX);
        assert!(store.save("stage_scene_model", &vec![(7u64, -0.5f32)], None).unwrap());
        let bytes = std::fs::read_to_string(store.dir().join("stage_scene_model.ckpt")).unwrap();
        assert_eq!(
            bytes,
            concat!(
                r#"{"magic":"anole-checkpoint","version":1,"key":"stage_scene_model","#,
                r#""context":18446744073709551615,"checksum":CHECKSUM,"payload":"[[7,-0.5]]"}"#
            )
            .replace("CHECKSUM", &fnv1a(b"[[7,-0.5]]").to_string())
        );
        assert_eq!(store.load::<Vec<(u64, f32)>>("stage_scene_model"), Some(vec![(7, -0.5)]));
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn every_truncation_and_bit_flip_is_discarded() {
        let mut store = temp_store("flips", 11);
        let value = vec![(3u64, 0.25f32), (u64::MAX, -0.0)];
        store.save("stage_decision", &value, None).unwrap();
        let path = store.dir().join("stage_decision.ckpt");
        let bytes = std::fs::read(&path).unwrap();
        let mut damaged = Vec::new();
        for end in 0..bytes.len() {
            damaged.push(bytes[..end].to_vec());
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                damaged.push(flipped);
            }
        }
        for (n, artifact) in damaged.iter().enumerate() {
            std::fs::write(&path, artifact).unwrap();
            assert_eq!(store.load::<Vec<(u64, f32)>>("stage_decision"), None, "artifact {n}");
            assert_eq!(store.stats.discarded, n + 1);
        }
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load::<Vec<(u64, f32)>>("stage_decision"), Some(value));
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn wrong_context_is_discarded() {
        let dir = std::env::temp_dir().join(format!("anole-ckpt-ctx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer = CheckpointStore::open(&dir, 1).unwrap();
        writer.save("stage_decision", &42u64, None).unwrap();
        let mut reader = CheckpointStore::open(&dir, 2).unwrap();
        assert_eq!(reader.load::<u64>("stage_decision"), None);
        assert_eq!(reader.stats.discarded, 1);
        // The stale file was deleted, not left to be retried forever.
        assert!(!reader.has("stage_decision"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_discarded_not_trusted() {
        let mut store = temp_store("corrupt", 3);
        store.save("stage_repository", &String::from("payload"), None).unwrap();
        let path = store.dir().join("stage_repository.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(store.load::<String>("stage_repository"), None);
        assert_eq!(store.stats.discarded, 1);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn wrong_key_and_version_are_rejected() {
        let mut store = temp_store("keys", 3);
        store.save("stage_suitability", &1u8, None).unwrap();
        // Same bytes presented under another key must not validate.
        std::fs::copy(
            store.dir().join("stage_suitability.ckpt"),
            store.dir().join("stage_decision.ckpt"),
        )
        .unwrap();
        assert_eq!(store.load::<u8>("stage_decision"), None);
        // A future-versioned envelope is discarded too.
        let json = std::fs::read_to_string(store.dir().join("stage_suitability.ckpt")).unwrap();
        let bumped = json.replace("\"version\":1", "\"version\":999");
        assert_ne!(json, bumped);
        std::fs::write(store.dir().join("stage_suitability.ckpt"), bumped).unwrap();
        assert_eq!(store.load::<u8>("stage_suitability"), None);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn injected_write_failure_drops_the_artifact_gracefully() {
        let mut store = temp_store("wfault", 3);
        let mut injector = FaultPlan::new(anole_tensor::Seed(5))
            .at(0, FaultKind::CheckpointWriteFailure)
            .injector();
        let durable = store.save("stage_scene_model", &7u32, Some(&mut injector)).unwrap();
        assert!(!durable);
        assert!(!store.has("stage_scene_model"));
        assert_eq!(store.stats.write_faults, 1);
        // The next write (write index 1) goes through.
        assert!(store.save("stage_scene_model", &7u32, Some(&mut injector)).unwrap());
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn injected_truncation_is_caught_on_load() {
        let mut store = temp_store("tfault", 3);
        let mut injector = FaultPlan::new(anole_tensor::Seed(6))
            .at(0, FaultKind::TruncatedArtifact)
            .injector();
        assert!(store.save("stage_decision", &vec![9u8; 64], Some(&mut injector)).unwrap());
        assert_eq!(store.stats.truncated_writes, 1);
        assert_eq!(store.load::<Vec<u8>>("stage_decision"), None);
        assert_eq!(store.stats.discarded, 1);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn clear_removes_only_checkpoints() {
        let mut store = temp_store("clear", 3);
        store.save("stage_scene_model", &1u8, None).unwrap();
        store.save(&specialist_key(2, 1), &2u8, None).unwrap();
        std::fs::write(store.dir().join("notes.txt"), b"keep me").unwrap();
        store.clear();
        assert!(!store.has("stage_scene_model"));
        assert!(!store.has(&specialist_key(2, 1)));
        assert!(store.dir().join("notes.txt").exists());
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn stages_are_ordered_and_named() {
        for (i, stage) in OspStage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert!(!stage.key().is_empty());
        }
        assert_eq!(OspStage::SceneModel.to_string(), "scene model");
        assert_eq!(specialist_key(3, 12), "specialist_k003_c012");
    }

    #[test]
    fn abort_point_fires_only_at_the_scheduled_stage() {
        let store = temp_store("abort", 3);
        let dir = store.dir().to_path_buf();
        let mut recovery = TrainRecovery::new(store).with_injector(
            FaultPlan::new(anole_tensor::Seed(8))
                .at(OspStage::Repository.index(), FaultKind::TrainAbort)
                .injector(),
        );
        let train = |_: Option<&mut TrainRecovery>| Ok(7u8);
        let scene = Step::Stage(OspStage::SceneModel).run(Some(&mut recovery), train);
        assert_eq!(scene, Ok(7));
        let err = Step::Stage(OspStage::Repository).run(Some(&mut recovery), train).unwrap_err();
        assert_eq!(err, AnoleError::Aborted { stage: "model repository" });
        // The killed stage's checkpoint is durable: a rerun reloads it and
        // skips its abort point.
        let resumed = Step::Stage(OspStage::Repository).run(Some(&mut recovery), train);
        assert_eq!(resumed, Ok(7));
        assert_eq!(recovery.report.resumed_stages, vec!["model repository"]);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
