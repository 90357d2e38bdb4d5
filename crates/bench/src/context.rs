//! Shared experiment context: one generated dataset and one trained system,
//! reused by every table/figure runner.

use anole_core::{AnoleConfig, AnoleSystem};
use anole_data::{DatasetConfig, DrivingDataset};
use anole_tensor::{split_seed, Seed};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's dataset shape: 64 clips, 16k frames, 19 models. Run this
    /// in release builds (`cargo run --release -p anole-bench --bin repro`).
    Paper,
    /// A reduced setup for smoke tests and debug builds.
    Small,
}

impl Scale {
    /// Dataset configuration at this scale.
    fn dataset_config(&self) -> DatasetConfig {
        match self {
            Scale::Paper => DatasetConfig::default(),
            Scale::Small => DatasetConfig::small(),
        }
    }

    /// Anole configuration at this scale.
    fn anole_config(&self) -> AnoleConfig {
        match self {
            Scale::Paper => AnoleConfig::default(),
            Scale::Small => AnoleConfig::fast(),
        }
    }
}

/// The trained world every experiment consumes.
#[derive(Debug)]
pub struct Context {
    /// Scale the context was built at.
    pub scale: Scale,
    /// Base seed.
    pub seed: Seed,
    /// The generated driving dataset.
    pub dataset: DrivingDataset,
    /// The fully trained Anole system.
    pub system: AnoleSystem,
}

impl Context {
    /// Generates the dataset and trains the full system.
    ///
    /// # Errors
    ///
    /// Surfaces training errors.
    pub fn build(scale: Scale, seed: Seed) -> Result<Self, anole_core::AnoleError> {
        let dataset = DrivingDataset::generate(&scale.dataset_config(), split_seed(seed, 1));
        let system = AnoleSystem::train(&dataset, &scale.anole_config(), split_seed(seed, 2))?;
        Ok(Self {
            scale,
            seed,
            dataset,
            system,
        })
    }
}
