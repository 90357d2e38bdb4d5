//! Offline Scene Profiling (paper §IV): everything that runs on the cloud
//! server before deployment.

mod decision;
mod repository;
mod sampling;
mod scene_model;

pub use decision::DecisionModel;
pub(crate) use decision::{best_scoring, write_normalized};
pub(crate) use repository::{fit_detector, fit_specialist, stack_frames};
pub use repository::{ClusterOrigin, CompressedModel, ModelRepository};
pub use sampling::{frame_f1_of, AdaptiveSampler, SuitabilitySets};
pub(crate) use sampling::{boost_owner, f1_table, membership};
pub use scene_model::SceneModel;
