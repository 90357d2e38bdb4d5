//! The Anole scheme (ICDCS 2024): offline scene profiling and online model
//! inference for cross-scene prediction on mobile devices.
//!
//! Anole's answer to the online mobile inference problem is to replace one
//! general model with an *army of compressed scene-specific models* plus a
//! lightweight decision model that routes every test sample to the
//! best-fitting specialist:
//!
//! * **Offline scene profiling** ([`osp`]), run "on the cloud server":
//!   * [`osp::SceneModel`] — the weakly-supervised scene encoder trained on
//!     semantic-scene labels (§IV-A);
//!   * [`osp::ModelRepository`] — Algorithm 1: multi-level clustering over
//!     scene embeddings, one compressed detector per accepted cluster;
//!   * [`osp::AdaptiveSampler`] — §IV-B: Thompson-sampled, balanced
//!     per-model suitability sets `Ψᵢ^sub`;
//!   * [`osp::DecisionModel`] — §IV-C: frozen scene backbone + MLP head
//!     predicting per-model suitability.
//! * **Online model inference** ([`omi`]), run on the device simulator:
//!   [`omi::OnlineEngine`] ranks models per frame (MSS), serves from an LFU
//!   model cache with best-cached fallback (CMD), and runs the chosen
//!   compressed detector (MI).
//! * **Fleet serving** ([`gateway`]): a message-queue-driven gateway
//!   multiplexing many simulated devices as long-lived sessions —
//!   bounded queues with backpressure, deadline-based load shedding,
//!   cross-device batched decision scoring, a model-load circuit breaker,
//!   and per-session panic isolation.
//! * **Baselines**: [`Sdm`], [`Ssm`], [`Cdg`], and [`Dmm`] from §VI-A3.
//! * **Evaluation protocols** ([`eval`]): cross-scene (Fig. 8), new-scene
//!   (Table III), and real-world streaming (Fig. 10) experiments.
//!
//! # Examples
//!
//! Train the full system on a small synthetic dataset and run it online:
//!
//! ```
//! use anole_core::{AnoleConfig, AnoleSystem};
//! use anole_data::{DatasetConfig, DrivingDataset};
//! use anole_tensor::Seed;
//!
//! let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(1));
//! let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(2))?;
//! assert!(system.repository().len() >= 2);
//!
//! let mut engine = system.online_engine(anole_device::DeviceKind::JetsonTx2Nx, Seed(3));
//! let split = dataset.split();
//! let outcome = engine.step(&dataset.frame(split.test[0]).features)?;
//! assert!(outcome.latency_ms > 0.0);
//! # Ok::<(), anole_core::AnoleError>(())
//! ```

mod baselines;
pub mod checkpoint;
mod config;
pub mod deploy;
mod error;
pub mod gateway;
pub mod lifecycle;
pub mod eval;
pub mod omi;
pub mod osp;
mod system;

pub use baselines::{train_baselines, Cdg, Dmm, InferenceMethod, MethodKind, Sdm, Ssm};
pub use checkpoint::{
    context_key, CheckpointStats, CheckpointStore, OspStage, RecoveryReport, TrainRecovery,
};
pub use config::{
    AnoleConfig, CacheConfig, DecisionConfig, DetectorConfig, QuantConfig, RepositoryConfig,
    SamplingConfig, SceneModelConfig, SloConfig,
};
pub use error::AnoleError;
pub use system::{AnoleSystem, ModelQuantOutcome, QuantizationReport, ReprofileReport};
