//! Evaluation protocols of §VI: cross-scene (Fig. 8), new-scene
//! (Table III), and real-world streaming (Fig. 10) experiments, plus the
//! shared stream evaluator.

mod cross_scene;
mod new_scene;
mod real_world;

pub use cross_scene::{cross_scene_experiment, CrossSceneReport, SourceResult};
pub use new_scene::{new_scene_experiment, NewSceneReport, NewSceneRow};
pub use real_world::{real_world_experiment, RealWorldReport, ScenarioResult};

use anole_data::{DatasetSource, DrivingDataset, Frame, FrameRef};
use anole_detect::{windowed_f1, DetectionCounts};

use crate::{AnoleError, InferenceMethod};

/// Result of running one method over one frame stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// F1 over the whole stream.
    pub overall_f1: f32,
    /// F1 per window of `window` frames (the paper scores every 10 frames).
    pub windowed: Vec<f32>,
}

/// Evaluates a method over referenced dataset frames in order.
///
/// # Errors
///
/// Surfaces prediction errors from the method.
pub fn evaluate_refs(
    method: &mut dyn InferenceMethod,
    dataset: &DrivingDataset,
    refs: &[FrameRef],
    window: usize,
) -> Result<StreamResult, AnoleError> {
    let frames: Vec<&Frame> = refs.iter().map(|&r| dataset.frame(r)).collect();
    let sources: Vec<DatasetSource> = refs
        .iter()
        .map(|r| dataset.clips()[r.clip].source)
        .collect();
    evaluate_stream(method, &frames, &sources, window)
}

/// Evaluates a method over raw frames (fresh clips outside the dataset).
///
/// # Errors
///
/// Surfaces prediction errors from the method.
pub fn evaluate_frames(
    method: &mut dyn InferenceMethod,
    frames: &[Frame],
    source: DatasetSource,
    window: usize,
) -> Result<StreamResult, AnoleError> {
    let frame_refs: Vec<&Frame> = frames.iter().collect();
    evaluate_stream(method, &frame_refs, &vec![source; frames.len()], window)
}

/// Predicts every frame in one batch, then scores the stream overall and
/// per window of `window` frames.
fn evaluate_stream(
    method: &mut dyn InferenceMethod,
    frames: &[&Frame],
    sources: &[DatasetSource],
    window: usize,
) -> Result<StreamResult, AnoleError> {
    let preds = method.predict_batch(frames, sources)?;
    let mut pairs = Vec::with_capacity(frames.len());
    let mut counts = DetectionCounts::default();
    for (frame, pred) in frames.iter().zip(preds) {
        counts.accumulate(&pred, &frame.truth);
        pairs.push((pred, frame.truth.clone()));
    }
    Ok(StreamResult {
        overall_f1: counts.f1(),
        windowed: windowed_f1(&pairs, window.max(1)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnoleConfig, AnoleSystem, Ssm};
    use anole_data::DatasetConfig;
    use anole_tensor::Seed;

    #[test]
    fn evaluate_refs_and_frames_agree_for_the_same_stream() {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(1));
        let split = dataset.split();
        let config = AnoleConfig::fast();
        let mut ssm = Ssm::train(&dataset, &split.train, &config, Seed(2)).unwrap();

        let refs = &split.test[..40.min(split.test.len())];
        let by_ref = evaluate_refs(&mut ssm, &dataset, refs, 10).unwrap();

        // Rebuild the same stream as raw frames (all from the same source so
        // the oracle argument is irrelevant for SSM).
        let frames: Vec<_> = refs.iter().map(|&r| dataset.frame(r).clone()).collect();
        let by_frame =
            evaluate_frames(&mut ssm, &frames, anole_data::DatasetSource::Kitti, 10).unwrap();
        assert_eq!(by_ref.overall_f1, by_frame.overall_f1);
        assert_eq!(by_ref.windowed, by_frame.windowed);
    }

    #[test]
    fn empty_streams_evaluate_to_zero() {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(6));
        let split = dataset.split();
        let config = AnoleConfig::fast();
        let mut ssm = Ssm::train(&dataset, &split.train, &config, Seed(7)).unwrap();
        let result = evaluate_refs(&mut ssm, &dataset, &[], 10).unwrap();
        assert_eq!(result.overall_f1, 0.0);
        assert!(result.windowed.is_empty());
        let result =
            evaluate_frames(&mut ssm, &[], anole_data::DatasetSource::Shd, 10).unwrap();
        assert_eq!(result.overall_f1, 0.0);
    }

    #[test]
    fn anole_engine_works_through_the_trait() {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(3));
        let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(4)).unwrap();
        let mut engine = system.online_engine(anole_device::DeviceKind::JetsonTx2Nx, Seed(5));
        let split = dataset.split();
        let result = evaluate_refs(&mut engine, &dataset, &split.test[..30], 10).unwrap();
        assert!(result.overall_f1 >= 0.0 && result.overall_f1 <= 1.0);
        assert_eq!(result.windowed.len(), 3);
    }
}
