//! Dataset assembly: source profiles (KITTI / BDD100k / SHD analogues),
//! seen/unseen partitioning, and 6:2:2 frame splits (paper §VI-A1).

use anole_tensor::{rng_from_seed, split_seed, Matrix, Seed, StdRng};

use crate::{
    ClipId, Frame, FrameRef, Location, SceneAttributes, TimeOfDay, VideoClip, Weather,
    WorldConfig, WorldModel,
};

/// The source dataset a clip mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetSource {
    /// KITTI: Karlsruhe, clear/overcast daytime, moderate traffic.
    Kitti,
    /// BDD100k: New York / Bay Area, highly diverse, dense traffic.
    Bdd100k,
    /// SHD: Shanghai dashcam; highways, tunnels, day and night.
    Shd,
}

impl DatasetSource {
    /// All sources in display order.
    pub const ALL: [DatasetSource; 3] =
        [DatasetSource::Kitti, DatasetSource::Bdd100k, DatasetSource::Shd];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetSource::Kitti => "KITTI",
            DatasetSource::Bdd100k => "BDD100k",
            DatasetSource::Shd => "SHD",
        }
    }
}

impl std::fmt::Display for DatasetSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Attribute distribution and density of one source dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceProfile {
    /// Which source this profiles.
    pub source: DatasetSource,
    /// Object-density multiplier relative to the world's scene rates.
    pub density: f32,
    weather_weights: Vec<f32>,
    location_weights: Vec<f32>,
    time_weights: Vec<f32>,
}

impl SourceProfile {
    /// The built-in profile of a source.
    pub fn of(source: DatasetSource) -> Self {
        match source {
            DatasetSource::Kitti => Self {
                source,
                density: 0.7,
                weather_weights: vec![0.6, 0.4, 0.0, 0.0, 0.0],
                location_weights: vec![0.30, 0.35, 0.35, 0.0, 0.0, 0.0, 0.0, 0.0],
                time_weights: vec![1.0, 0.0, 0.0],
            },
            DatasetSource::Bdd100k => Self {
                source,
                density: 1.3,
                weather_weights: vec![0.40, 0.20, 0.20, 0.10, 0.10],
                location_weights: vec![0.20, 0.40, 0.15, 0.05, 0.05, 0.05, 0.05, 0.05],
                time_weights: vec![0.50, 0.20, 0.30],
            },
            DatasetSource::Shd => Self {
                source,
                density: 1.0,
                weather_weights: vec![0.5, 0.3, 0.2, 0.0, 0.0],
                location_weights: vec![0.40, 0.30, 0.0, 0.0, 0.20, 0.0, 0.10, 0.0],
                time_weights: vec![0.50, 0.10, 0.40],
            },
        }
    }

    /// Samples clip attributes according to this source's distribution.
    fn sample_attributes(&self, rng: &mut StdRng) -> SceneAttributes {
        SceneAttributes::new(
            Weather::ALL[weighted_choice(&self.weather_weights, rng)],
            Location::ALL[weighted_choice(&self.location_weights, rng)],
            TimeOfDay::ALL[weighted_choice(&self.time_weights, rng)],
        )
    }
}

fn weighted_choice(weights: &[f32], rng: &mut StdRng) -> usize {
    let total: f32 = weights.iter().sum();
    let mut target = rng.f32_in(0.0..total.max(f32::MIN_POSITIVE));
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

/// Configuration of a generated dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// The generative world parameters.
    pub world: WorldConfig,
    /// Frames per clip.
    pub frames_per_clip: usize,
    /// Number of KITTI-like clips.
    pub kitti_clips: usize,
    /// Number of BDD100k-like clips.
    pub bdd_clips: usize,
    /// Number of SHD-like clips.
    pub shd_clips: usize,
    /// Fraction of each clip's frames used for training (paper: 0.6).
    pub train_fraction: f32,
    /// Fraction used for validation (paper: 0.2; the rest is test).
    pub val_fraction: f32,
    /// Fraction of clips held out as unseen scenes (paper: 0.1).
    pub unseen_fraction: f32,
}

anole_json::json_struct!(DatasetConfig {
    world,
    frames_per_clip,
    kitti_clips,
    bdd_clips,
    shd_clips,
    train_fraction,
    val_fraction,
    unseen_fraction,
});

impl Default for DatasetConfig {
    /// The paper's dataset shape: 10 + 44 + 10 = 64 clips, ~16k frames.
    fn default() -> Self {
        Self {
            world: WorldConfig::default(),
            frames_per_clip: 250,
            kitti_clips: 10,
            bdd_clips: 44,
            shd_clips: 10,
            train_fraction: 0.6,
            val_fraction: 0.2,
            unseen_fraction: 0.1,
        }
    }
}

impl DatasetConfig {
    /// A reduced dataset for fast unit tests.
    pub fn small() -> Self {
        Self {
            frames_per_clip: 60,
            kitti_clips: 3,
            bdd_clips: 6,
            shd_clips: 3,
            ..Self::default()
        }
    }

    /// Total clip count.
    fn total_clips(&self) -> usize {
        self.kitti_clips + self.bdd_clips + self.shd_clips
    }
}

/// Frame-level split of the seen clips plus the held-out unseen clips.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSplit {
    /// Training frames (first 60% of every seen clip).
    pub train: Vec<FrameRef>,
    /// Validation frames (next 20%).
    pub val: Vec<FrameRef>,
    /// Test frames (final 20%).
    pub test: Vec<FrameRef>,
    /// Indices of clips held out entirely (new-scene experiments).
    pub unseen_clips: Vec<usize>,
}

/// `dataset.json`: what regenerates the world model of a saved dataset.
struct DatasetMeta {
    config: DatasetConfig,
    seed: Seed,
}

anole_json::json_struct!(DatasetMeta { config, seed });

/// Error returned by dataset persistence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetIoError {
    detail: String,
}

impl DatasetIoError {
    fn from_display(detail: impl std::fmt::Display) -> Self {
        Self {
            detail: detail.to_string(),
        }
    }
}

impl std::fmt::Display for DatasetIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dataset persistence error: {}", self.detail)
    }
}

impl std::error::Error for DatasetIoError {}

/// A fully generated driving dataset.
#[derive(Debug, Clone)]
pub struct DrivingDataset {
    clips: Vec<VideoClip>,
    config: DatasetConfig,
    world: WorldModel,
    seed: Seed,
}

impl DrivingDataset {
    /// Generates the dataset: builds the world, samples per-source clips,
    /// and marks each source's unseen hold-outs.
    pub fn generate(config: &DatasetConfig, seed: Seed) -> Self {
        let world = WorldModel::new(config.world, split_seed(seed, 0));
        let mut clips = Vec::with_capacity(config.total_clips());
        let mut rng = rng_from_seed(split_seed(seed, 1));

        let plan = [
            (DatasetSource::Kitti, config.kitti_clips),
            (DatasetSource::Bdd100k, config.bdd_clips),
            (DatasetSource::Shd, config.shd_clips),
        ];
        for (source, count) in plan {
            let profile = SourceProfile::of(source);
            let mut source_indices = Vec::with_capacity(count);
            for _ in 0..count {
                let id = ClipId(clips.len());
                let attrs = profile.sample_attributes(&mut rng);
                let clip_seed = split_seed(seed, 1000 + clips.len() as u64);
                let clip = world.generate_clip(
                    id,
                    source,
                    attrs,
                    config.frames_per_clip,
                    profile.density,
                    clip_seed,
                );
                source_indices.push(clips.len());
                clips.push(clip);
            }
            // Hold out ~unseen_fraction of this source's clips (at least 1).
            let n_unseen = ((count as f32 * config.unseen_fraction).round() as usize)
                .max(usize::from(count > 0));
            rng.shuffle(&mut source_indices);
            for &idx in source_indices.iter().take(n_unseen) {
                clips[idx].seen = false;
            }
        }

        Self {
            clips,
            config: *config,
            world,
            seed,
        }
    }

    /// Rebuilds a dataset from persisted parts: the same `(config, seed)`
    /// pair regenerates the identical world; `clips` may be the generated
    /// set or a curated subset.
    ///
    /// Used by [`DrivingDataset::load_from_dir`].
    pub fn from_parts(config: DatasetConfig, seed: Seed, clips: Vec<VideoClip>) -> Self {
        let world = WorldModel::new(config.world, split_seed(seed, 0));
        Self {
            clips,
            config,
            world,
            seed,
        }
    }

    /// The seed the dataset was generated with.
    pub fn seed(&self) -> Seed {
        self.seed
    }

    /// Persists the dataset to a directory: `dataset.json` (config + seed)
    /// plus `clips.anol` (the compact binary codec).
    ///
    /// # Errors
    ///
    /// Surfaces filesystem failures.
    pub fn save_to_dir(&self, dir: &std::path::Path) -> Result<(), DatasetIoError> {
        std::fs::create_dir_all(dir).map_err(DatasetIoError::from_display)?;
        let meta = DatasetMeta {
            config: self.config,
            seed: self.seed,
        };
        let json = anole_json::to_string_pretty(&meta);
        std::fs::write(dir.join("dataset.json"), json).map_err(DatasetIoError::from_display)?;
        std::fs::write(dir.join("clips.anol"), crate::encode_clips(&self.clips))
            .map_err(DatasetIoError::from_display)?;
        Ok(())
    }

    /// Loads a dataset persisted with [`DrivingDataset::save_to_dir`]. The
    /// world model is regenerated from the stored `(config, seed)` pair, so
    /// fresh-clip generation (real-world runs, fleet lifecycles) behaves
    /// identically to the original instance.
    ///
    /// # Errors
    ///
    /// Surfaces filesystem, JSON, and codec failures.
    pub fn load_from_dir(dir: &std::path::Path) -> Result<Self, DatasetIoError> {
        let json = std::fs::read_to_string(dir.join("dataset.json"))
            .map_err(DatasetIoError::from_display)?;
        let meta: DatasetMeta =
            anole_json::from_str(&json).map_err(DatasetIoError::from_display)?;
        let bytes =
            std::fs::read(dir.join("clips.anol")).map_err(DatasetIoError::from_display)?;
        let clips = crate::decode_clips(&bytes).map_err(DatasetIoError::from_display)?;
        Ok(Self::from_parts(meta.config, meta.seed, clips))
    }

    /// The generated clips, in id order.
    pub fn clips(&self) -> &[VideoClip] {
        &self.clips
    }

    /// The generating world (used by experiments that need fresh clips from
    /// the same world, e.g. the real-world UAV runs).
    pub fn world(&self) -> &WorldModel {
        &self.world
    }

    /// The configuration the dataset was generated from.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// Total number of frames across all clips.
    pub fn frame_count(&self) -> usize {
        self.clips.iter().map(VideoClip::len).sum()
    }

    /// Borrows a frame by reference.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of bounds.
    pub fn frame(&self, r: FrameRef) -> &Frame {
        &self.clips[r.clip].frames[r.frame]
    }

    /// The 6:2:2 split over seen clips plus the unseen clip list.
    pub fn split(&self) -> DatasetSplit {
        let mut split = DatasetSplit {
            train: Vec::new(),
            val: Vec::new(),
            test: Vec::new(),
            unseen_clips: Vec::new(),
        };
        for (ci, clip) in self.clips.iter().enumerate() {
            if !clip.seen {
                split.unseen_clips.push(ci);
                continue;
            }
            let (train_end, val_end) = self.split_points(clip.len());
            for fi in 0..clip.len() {
                let r = FrameRef { clip: ci, frame: fi };
                if fi < train_end {
                    split.train.push(r);
                } else if fi < val_end {
                    split.val.push(r);
                } else {
                    split.test.push(r);
                }
            }
        }
        split
    }

    /// Frame-index range of a seen clip's test portion.
    ///
    /// # Panics
    ///
    /// Panics if `clip` is out of bounds.
    pub fn test_range(&self, clip: usize) -> std::ops::Range<usize> {
        let len = self.clips[clip].len();
        let (_, val_end) = self.split_points(len);
        val_end..len
    }

    fn split_points(&self, len: usize) -> (usize, usize) {
        let train_end = (len as f32 * self.config.train_fraction).floor() as usize;
        let val_end =
            (len as f32 * (self.config.train_fraction + self.config.val_fraction)).floor() as usize;
        (train_end.min(len), val_end.min(len))
    }

    /// Stacks the referenced frames' features into a matrix (one row each).
    pub fn features_matrix(&self, refs: &[FrameRef]) -> Matrix {
        let d = self.config.world.feature_dim;
        let mut m = Matrix::zeros(refs.len(), d);
        for (i, &r) in refs.iter().enumerate() {
            m.row_mut(i).copy_from_slice(&self.frame(r).features);
        }
        m
    }

    /// Stacks the referenced frames' ground truth into a 0/1 matrix.
    pub fn truth_matrix(&self, refs: &[FrameRef]) -> Matrix {
        let cells = self.config.world.grid.cells();
        let mut m = Matrix::zeros(refs.len(), cells);
        for (i, &r) in refs.iter().enumerate() {
            for (j, &t) in self.frame(r).truth.iter().enumerate() {
                if t {
                    m.set(i, j, 1.0);
                }
            }
        }
        m
    }

    /// Semantic scene index of each referenced frame (the clip's attributes).
    pub fn scene_indices(&self, refs: &[FrameRef]) -> Vec<usize> {
        refs.iter()
            .map(|r| self.clips[r.clip].attributes.scene_index())
            .collect()
    }

    /// All frame references of one clip, in order.
    pub fn clip_frames(&self, clip: usize) -> Vec<FrameRef> {
        (0..self.clips[clip].len())
            .map(|frame| FrameRef { clip, frame })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> DrivingDataset {
        DrivingDataset::generate(&DatasetConfig::small(), Seed(21))
    }

    #[test]
    fn generates_requested_clip_counts() {
        let ds = dataset();
        let cfg = DatasetConfig::small();
        assert_eq!(ds.clips().len(), cfg.total_clips());
        let kitti = ds.clips().iter().filter(|c| c.source == DatasetSource::Kitti).count();
        assert_eq!(kitti, cfg.kitti_clips);
        assert_eq!(ds.frame_count(), cfg.total_clips() * cfg.frames_per_clip);
    }

    #[test]
    fn each_source_has_an_unseen_clip() {
        let ds = dataset();
        for source in DatasetSource::ALL {
            assert!(
                ds.clips().iter().any(|c| c.source == source && !c.seen),
                "{source} lacks an unseen clip"
            );
        }
    }

    #[test]
    fn split_covers_every_frame_exactly_once() {
        let ds = dataset();
        let split = ds.split();
        let seen_frames: usize = ds.clips().iter().filter(|c| c.seen).map(VideoClip::len).sum();
        assert_eq!(split.train.len() + split.val.len() + split.test.len(), seen_frames);
        // 6:2:2 ratio within each clip.
        let len = ds.config().frames_per_clip as f32;
        let per_clip_train = (len * 0.6).floor() as usize;
        let seen_clips = ds.clips().iter().filter(|c| c.seen).count();
        assert_eq!(split.train.len(), per_clip_train * seen_clips);
        // No overlap.
        use std::collections::HashSet;
        let mut all: HashSet<FrameRef> = HashSet::new();
        for r in split.train.iter().chain(&split.val).chain(&split.test) {
            assert!(all.insert(*r), "duplicate frame ref {r:?}");
        }
    }

    #[test]
    fn unseen_clips_never_appear_in_split() {
        let ds = dataset();
        let split = ds.split();
        for r in split.train.iter().chain(&split.val).chain(&split.test) {
            assert!(ds.clips()[r.clip].seen);
        }
        for &u in &split.unseen_clips {
            assert!(!ds.clips()[u].seen);
        }
    }

    #[test]
    fn test_range_is_final_fifth() {
        let ds = dataset();
        let range = ds.test_range(0);
        let len = ds.clips()[0].len();
        assert_eq!(range.end, len);
        assert_eq!(range.start, (len as f32 * 0.8).floor() as usize);
    }

    #[test]
    fn matrices_match_frames() {
        let ds = dataset();
        let refs = ds.clip_frames(0);
        let x = ds.features_matrix(&refs);
        let y = ds.truth_matrix(&refs);
        assert_eq!(x.rows(), refs.len());
        assert_eq!(x.cols(), ds.config().world.feature_dim);
        assert_eq!(y.cols(), ds.config().world.grid.cells());
        let f0 = ds.frame(refs[0]);
        assert_eq!(x.row(0), f0.features.as_slice());
        for (j, &t) in f0.truth.iter().enumerate() {
            assert_eq!(y.get(0, j) > 0.5, t);
        }
    }

    #[test]
    fn scene_indices_come_from_clip_attributes() {
        let ds = dataset();
        let refs = ds.clip_frames(2);
        let idx = ds.scene_indices(&refs);
        assert!(idx.iter().all(|&i| i == ds.clips()[2].attributes.scene_index()));
    }

    #[test]
    fn kitti_profile_is_daytime_only() {
        let ds = DrivingDataset::generate(
            &DatasetConfig {
                kitti_clips: 12,
                bdd_clips: 0,
                shd_clips: 0,
                ..DatasetConfig::small()
            },
            Seed(33),
        );
        for clip in ds.clips() {
            assert_eq!(clip.attributes.time, TimeOfDay::Daytime);
            assert!(matches!(clip.attributes.weather, Weather::Clear | Weather::Overcast));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DrivingDataset::generate(&DatasetConfig::small(), Seed(55));
        let b = DrivingDataset::generate(&DatasetConfig::small(), Seed(55));
        assert_eq!(a.clips(), b.clips());
    }

    #[test]
    fn save_and_load_round_trip() {
        let original = DrivingDataset::generate(&DatasetConfig::small(), Seed(77));
        let dir = std::env::temp_dir().join(format!("anole-ds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        original.save_to_dir(&dir).unwrap();
        let loaded = DrivingDataset::load_from_dir(&dir).unwrap();
        assert_eq!(loaded.clips(), original.clips());
        assert_eq!(loaded.config(), original.config());
        assert_eq!(loaded.seed(), original.seed());
        // The regenerated world is the same world: fresh clips match.
        let attrs = original.clips()[0].attributes;
        let a = original
            .world()
            .generate_clip(ClipId(999), DatasetSource::Shd, attrs, 10, 1.0, Seed(1));
        let b = loaded
            .world()
            .generate_clip(ClipId(999), DatasetSource::Shd, attrs, 10, 1.0, Seed(1));
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_from_missing_dir_fails_cleanly() {
        let err =
            DrivingDataset::load_from_dir(std::path::Path::new("/nonexistent/anole")).unwrap_err();
        assert!(err.to_string().contains("dataset persistence error"));
    }

    #[test]
    fn bdd_is_denser_than_kitti() {
        let ds = DrivingDataset::generate(
            &DatasetConfig {
                kitti_clips: 6,
                bdd_clips: 6,
                shd_clips: 0,
                ..DatasetConfig::small()
            },
            Seed(60),
        );
        let mean_count = |source: DatasetSource| {
            let (sum, n) = ds
                .clips()
                .iter()
                .filter(|c| c.source == source)
                .flat_map(|c| c.frames.iter())
                .fold((0.0f32, 0usize), |(s, n), f| (s + f.meta.object_count as f32, n + 1));
            sum / n as f32
        };
        assert!(mean_count(DatasetSource::Bdd100k) > mean_count(DatasetSource::Kitti));
    }
}
