//! The candidate methods of §VI-A3: SDM, SSM, CDG, and DMM, behind one
//! [`InferenceMethod`] interface shared with Anole's online engine.

use anole_cluster::{KMeans, KMeansFit};
use anole_data::{DatasetSource, DrivingDataset, Frame, FrameRef};
use anole_nn::{sigmoid, Mlp, ReferenceModel, Workspace};
use anole_tensor::{split_seed, Matrix, Seed};

use crate::omi::OnlineEngine;
use crate::osp::fit_detector;
use crate::{AnoleConfig, AnoleError};

/// Identifies a candidate method in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// The full Anole system.
    Anole,
    /// Single Deep Model: one YOLOv3-class model trained on everything.
    Sdm,
    /// Single Shallow Model: one YOLOv3-tiny-class model trained on
    /// everything.
    Ssm,
    /// Clustering-based Domain Generalization: feature-space clusters, one
    /// compressed model each, nearest-centroid selection.
    Cdg,
    /// Dataset-based Multiple Models: one compressed model per source
    /// dataset, oracle source routing.
    Dmm,
}

impl MethodKind {
    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::Anole => "Anole",
            MethodKind::Sdm => "SDM",
            MethodKind::Ssm => "SSM",
            MethodKind::Cdg => "CDG",
            MethodKind::Dmm => "DMM",
        }
    }
}

impl std::fmt::Display for MethodKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A method that can predict per-cell detections for a frame.
///
/// `source` carries the frame's source dataset; only DMM (an oracle-routing
/// baseline) consults it.
pub trait InferenceMethod {
    /// Which method this is.
    fn kind(&self) -> MethodKind;

    /// The paper-scale models executed per frame, for latency/power pricing.
    fn pipeline(&self) -> Vec<ReferenceModel>;

    /// Predicts cell detections for one frame.
    ///
    /// # Errors
    ///
    /// Returns a width error if the frame's feature width is wrong.
    fn predict(&mut self, frame: &Frame, source: DatasetSource) -> Result<Vec<bool>, AnoleError>;

    /// Predicts cell detections for a whole stream at once, in order.
    /// `frames` and `sources` are parallel slices.
    ///
    /// The default delegates to [`InferenceMethod::predict`] frame by frame.
    /// Stateless methods override it with one forward pass per involved
    /// network; the matmul kernel accumulates each output element
    /// identically for any batch size, so overrides return detections
    /// bit-identical to the per-frame path. Streaming methods (the online
    /// engine) keep the default — their model selection is stateful and
    /// must see frames one at a time.
    ///
    /// # Errors
    ///
    /// Returns a width error if any frame's feature width is wrong.
    fn predict_batch(
        &mut self,
        frames: &[&Frame],
        sources: &[DatasetSource],
    ) -> Result<Vec<Vec<bool>>, AnoleError> {
        frames
            .iter()
            .zip(sources)
            .map(|(frame, &source)| self.predict(frame, source))
            .collect()
    }
}

/// `fit_detector` on the referenced frames.
fn train_detector(
    dataset: &DrivingDataset,
    refs: &[FrameRef],
    hidden: &[usize],
    config: &AnoleConfig,
    seed: Seed,
    ws: &mut Workspace,
) -> Result<Mlp, AnoleError> {
    let (x, y) = (dataset.features_matrix(refs), dataset.truth_matrix(refs));
    fit_detector(&x, &y, hidden, &config.detector, seed, ws)
}

fn detect(net: &Mlp, frame: &Frame, threshold: f32) -> Result<Vec<bool>, AnoleError> {
    let probs = sigmoid(&net.forward(&Matrix::row_vector(&frame.features))?);
    Ok(anole_detect::threshold_probs(probs.row(0), threshold))
}

/// One forward pass over a stack of frames; detections match per-frame
/// [`detect`] bit-for-bit (the matmul kernel's accumulation order per output
/// element is batch-size independent).
fn detect_batch(
    net: &Mlp,
    frames: &[&Frame],
    threshold: f32,
) -> Result<Vec<Vec<bool>>, AnoleError> {
    let Some(first) = frames.first() else {
        return Ok(Vec::new());
    };
    let width = first.features.len();
    if frames.iter().any(|f| f.features.len() != width) {
        // Ragged widths cannot stack; fall back so whichever frame is
        // actually wrong produces its canonical error.
        return frames.iter().map(|f| detect(net, f, threshold)).collect();
    }
    let mut x = Matrix::zeros(frames.len(), width);
    for (i, f) in frames.iter().enumerate() {
        x.row_mut(i).copy_from_slice(&f.features);
    }
    let probs = sigmoid(&net.forward(&x)?);
    Ok((0..frames.len())
        .map(|i| anole_detect::threshold_probs(probs.row(i), threshold))
        .collect())
}

/// Batches frames by the model each will run, scores each group with one
/// forward pass, and reassembles predictions in input order.
fn detect_grouped(
    models: &[&Mlp],
    assignment: &[usize],
    frames: &[&Frame],
    threshold: f32,
) -> Result<Vec<Vec<bool>>, AnoleError> {
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); models.len()];
    for (i, &m) in assignment.iter().enumerate() {
        groups[m].push(i);
    }
    let mut out: Vec<Vec<bool>> = vec![Vec::new(); frames.len()];
    for (m, idxs) in groups.iter().enumerate() {
        if idxs.is_empty() {
            continue;
        }
        let group: Vec<&Frame> = idxs.iter().map(|&i| frames[i]).collect();
        let preds = detect_batch(models[m], &group, threshold)?;
        for (&i, pred) in idxs.iter().zip(preds) {
            out[i] = pred;
        }
    }
    Ok(out)
}

/// Single Deep Model: the fully-fledged YOLOv3 stand-in trained on all
/// training samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Sdm {
    net: Mlp,
    threshold: f32,
}

impl Sdm {
    /// Trains the deep baseline on the referenced frames.
    ///
    /// # Errors
    ///
    /// Surfaces training errors.
    pub fn train(
        dataset: &DrivingDataset,
        refs: &[FrameRef],
        config: &AnoleConfig,
        seed: Seed,
    ) -> Result<Self, AnoleError> {
        let hidden = vec![config.detector.deep_hidden; config.detector.deep_layers];
        let net = train_detector(dataset, refs, &hidden, config, seed, &mut Workspace::new())?;
        Ok(Self {
            net,
            threshold: config.detector.threshold,
        })
    }

    /// The deep network (for profiling).
    pub fn network(&self) -> &Mlp {
        &self.net
    }
}

impl InferenceMethod for Sdm {
    fn kind(&self) -> MethodKind {
        MethodKind::Sdm
    }

    fn pipeline(&self) -> Vec<ReferenceModel> {
        vec![ReferenceModel::Yolov3]
    }

    fn predict(&mut self, frame: &Frame, _source: DatasetSource) -> Result<Vec<bool>, AnoleError> {
        detect(&self.net, frame, self.threshold)
    }

    fn predict_batch(
        &mut self,
        frames: &[&Frame],
        _sources: &[DatasetSource],
    ) -> Result<Vec<Vec<bool>>, AnoleError> {
        detect_batch(&self.net, frames, self.threshold)
    }
}

/// Single Shallow Model: one compressed model trained on everything.
#[derive(Debug, Clone, PartialEq)]
pub struct Ssm {
    net: Mlp,
    threshold: f32,
}

impl Ssm {
    /// Trains the shallow baseline on the referenced frames.
    ///
    /// # Errors
    ///
    /// Surfaces training errors.
    pub fn train(
        dataset: &DrivingDataset,
        refs: &[FrameRef],
        config: &AnoleConfig,
        seed: Seed,
    ) -> Result<Self, AnoleError> {
        let hidden = [config.detector.compressed_hidden];
        let net = train_detector(dataset, refs, &hidden, config, seed, &mut Workspace::new())?;
        Ok(Self {
            net,
            threshold: config.detector.threshold,
        })
    }
}

impl InferenceMethod for Ssm {
    fn kind(&self) -> MethodKind {
        MethodKind::Ssm
    }

    fn pipeline(&self) -> Vec<ReferenceModel> {
        vec![ReferenceModel::Yolov3Tiny]
    }

    fn predict(&mut self, frame: &Frame, _source: DatasetSource) -> Result<Vec<bool>, AnoleError> {
        detect(&self.net, frame, self.threshold)
    }

    fn predict_batch(
        &mut self,
        frames: &[&Frame],
        _sources: &[DatasetSource],
    ) -> Result<Vec<Vec<bool>>, AnoleError> {
        detect_batch(&self.net, frames, self.threshold)
    }
}

/// Clustering-based Domain Generalization: k-means in raw feature space,
/// one compressed model per cluster, nearest-centroid selection online.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdg {
    clustering: KMeansFit,
    models: Vec<Mlp>,
    threshold: f32,
}

impl Cdg {
    /// Trains the CDG baseline with `k` feature-space domains.
    ///
    /// # Errors
    ///
    /// Surfaces clustering and training errors.
    pub fn train(
        dataset: &DrivingDataset,
        refs: &[FrameRef],
        k: usize,
        config: &AnoleConfig,
        seed: Seed,
    ) -> Result<Self, AnoleError> {
        let x = dataset.features_matrix(refs);
        let clustering = KMeans::new(k).fit(&x, split_seed(seed, 0))?;
        let mut models = Vec::with_capacity(k);
        // One workspace amortises training buffers across all k domains.
        let mut ws = Workspace::new();
        for cluster in 0..k {
            let members: Vec<FrameRef> = clustering
                .members_of(cluster)
                .into_iter()
                .map(|i| refs[i])
                .collect();
            let net = train_detector(
                dataset,
                &members,
                &[config.detector.compressed_hidden],
                config,
                split_seed(seed, 1 + cluster as u64),
                &mut ws,
            )?;
            models.push(net);
        }
        Ok(Self {
            clustering,
            models,
            threshold: config.detector.threshold,
        })
    }

    /// Number of domains.
    pub fn domains(&self) -> usize {
        self.models.len()
    }
}

impl InferenceMethod for Cdg {
    fn kind(&self) -> MethodKind {
        MethodKind::Cdg
    }

    fn pipeline(&self) -> Vec<ReferenceModel> {
        vec![ReferenceModel::Yolov3Tiny]
    }

    fn predict(&mut self, frame: &Frame, _source: DatasetSource) -> Result<Vec<bool>, AnoleError> {
        let cluster = self.clustering.predict(&frame.features);
        detect(&self.models[cluster], frame, self.threshold)
    }

    fn predict_batch(
        &mut self,
        frames: &[&Frame],
        _sources: &[DatasetSource],
    ) -> Result<Vec<Vec<bool>>, AnoleError> {
        let assignment: Vec<usize> = frames
            .iter()
            .map(|f| self.clustering.predict(&f.features))
            .collect();
        let models: Vec<&Mlp> = self.models.iter().collect();
        detect_grouped(&models, &assignment, frames, self.threshold)
    }
}

/// Dataset-based Multiple Models: one compressed model per source dataset,
/// routed by the (oracle) source label of the test sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Dmm {
    models: Vec<(DatasetSource, Mlp)>,
    threshold: f32,
}

impl Dmm {
    /// Trains one compressed model per source present in `refs`.
    ///
    /// # Errors
    ///
    /// Surfaces training errors.
    pub fn train(
        dataset: &DrivingDataset,
        refs: &[FrameRef],
        config: &AnoleConfig,
        seed: Seed,
    ) -> Result<Self, AnoleError> {
        let mut models = Vec::new();
        // One workspace amortises training buffers across all sources.
        let mut ws = Workspace::new();
        for (i, source) in DatasetSource::ALL.iter().enumerate() {
            let subset: Vec<FrameRef> = refs
                .iter()
                .copied()
                .filter(|r| dataset.clips()[r.clip].source == *source)
                .collect();
            if subset.is_empty() {
                continue;
            }
            let net = train_detector(
                dataset,
                &subset,
                &[config.detector.compressed_hidden],
                config,
                split_seed(seed, i as u64),
                &mut ws,
            )?;
            models.push((*source, net));
        }
        Ok(Self {
            models,
            threshold: config.detector.threshold,
        })
    }
}

impl InferenceMethod for Dmm {
    fn kind(&self) -> MethodKind {
        MethodKind::Dmm
    }

    fn pipeline(&self) -> Vec<ReferenceModel> {
        vec![ReferenceModel::Yolov3Tiny]
    }

    fn predict(&mut self, frame: &Frame, source: DatasetSource) -> Result<Vec<bool>, AnoleError> {
        let net = self
            .models
            .iter()
            .find(|(s, _)| *s == source)
            .or_else(|| self.models.first())
            .map(|(_, net)| net)
            .expect("DMM trained with at least one source");
        detect(net, frame, self.threshold)
    }

    fn predict_batch(
        &mut self,
        frames: &[&Frame],
        sources: &[DatasetSource],
    ) -> Result<Vec<Vec<bool>>, AnoleError> {
        assert!(!self.models.is_empty(), "DMM trained with at least one source");
        let assignment: Vec<usize> = sources
            .iter()
            .map(|source| {
                self.models
                    .iter()
                    .position(|(s, _)| s == source)
                    .unwrap_or(0)
            })
            .collect();
        let models: Vec<&Mlp> = self.models.iter().map(|(_, net)| net).collect();
        detect_grouped(&models, &assignment, frames, self.threshold)
    }
}

/// Anole's online engine viewed as a candidate method: the decision model
/// selects a compressed model per frame through the LFU cache.
impl InferenceMethod for OnlineEngine<'_> {
    fn kind(&self) -> MethodKind {
        MethodKind::Anole
    }

    fn pipeline(&self) -> Vec<ReferenceModel> {
        vec![
            ReferenceModel::Resnet18,
            ReferenceModel::DecisionMlp,
            ReferenceModel::Yolov3Tiny,
        ]
    }

    fn predict(&mut self, frame: &Frame, _source: DatasetSource) -> Result<Vec<bool>, AnoleError> {
        Ok(self.step(&frame.features)?.detections)
    }
}

/// Convenience: trains every baseline on the same split.
///
/// Returns `(sdm, ssm, cdg, dmm)`; `cdg_k` domains for CDG.
///
/// # Errors
///
/// Surfaces the first failing baseline's error.
pub fn train_baselines(
    dataset: &DrivingDataset,
    refs: &[FrameRef],
    cdg_k: usize,
    config: &AnoleConfig,
    seed: Seed,
) -> Result<(Sdm, Ssm, Cdg, Dmm), AnoleError> {
    Ok((
        Sdm::train(dataset, refs, config, split_seed(seed, 10))?,
        Ssm::train(dataset, refs, config, split_seed(seed, 11))?,
        Cdg::train(dataset, refs, cdg_k, config, split_seed(seed, 12))?,
        Dmm::train(dataset, refs, config, split_seed(seed, 13))?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anole_data::DatasetConfig;

    fn setup() -> (DrivingDataset, AnoleConfig, Vec<FrameRef>) {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(91));
        let config = AnoleConfig::fast();
        let split = dataset.split();
        (dataset, config, split.train)
    }

    #[test]
    fn sdm_and_ssm_learn_something() {
        let (dataset, config, train) = setup();
        let split = dataset.split();
        let mut sdm = Sdm::train(&dataset, &train, &config, Seed(92)).unwrap();
        let mut ssm = Ssm::train(&dataset, &train, &config, Seed(93)).unwrap();
        let mut sdm_counts = anole_detect::DetectionCounts::default();
        let mut ssm_counts = anole_detect::DetectionCounts::default();
        for r in split.val.iter().take(100) {
            let frame = dataset.frame(*r);
            let source = dataset.clips()[r.clip].source;
            sdm_counts.accumulate(&sdm.predict(frame, source).unwrap(), &frame.truth);
            ssm_counts.accumulate(&ssm.predict(frame, source).unwrap(), &frame.truth);
        }
        assert!(sdm_counts.f1() > 0.2, "SDM f1 {}", sdm_counts.f1());
        assert!(ssm_counts.f1() > 0.1, "SSM f1 {}", ssm_counts.f1());
    }

    #[test]
    fn cdg_routes_to_nearest_cluster() {
        let (dataset, config, train) = setup();
        let cdg = Cdg::train(&dataset, &train, 3, &config, Seed(94)).unwrap();
        assert_eq!(cdg.domains(), 3);
        let split = dataset.split();
        let frame = dataset.frame(split.val[0]);
        let cluster = cdg.clustering.predict(&frame.features);
        assert!(cluster < 3);
    }

    #[test]
    fn dmm_has_one_model_per_source() {
        let (dataset, config, train) = setup();
        let mut dmm = Dmm::train(&dataset, &train, &config, Seed(95)).unwrap();
        assert_eq!(dmm.models.len(), 3);
        let split = dataset.split();
        let frame = dataset.frame(split.val[0]);
        // Routing by any source works.
        for source in DatasetSource::ALL {
            let det = dmm.predict(frame, source).unwrap();
            assert_eq!(det.len(), dataset.config().world.grid.cells());
        }
    }

    #[test]
    fn pipelines_match_paper_model_classes() {
        let (dataset, config, train) = setup();
        let sdm = Sdm::train(&dataset, &train, &config, Seed(96)).unwrap();
        assert_eq!(sdm.pipeline(), vec![ReferenceModel::Yolov3]);
        let ssm = Ssm::train(&dataset, &train, &config, Seed(97)).unwrap();
        assert_eq!(ssm.pipeline(), vec![ReferenceModel::Yolov3Tiny]);
        assert_eq!(sdm.kind().name(), "SDM");
        assert_eq!(MethodKind::Anole.to_string(), "Anole");
    }

    #[test]
    fn train_baselines_builds_all_four() {
        let (dataset, config, train) = setup();
        let (sdm, ssm, cdg, dmm) = train_baselines(&dataset, &train, 3, &config, Seed(98)).unwrap();
        assert_eq!(sdm.kind(), MethodKind::Sdm);
        assert_eq!(ssm.kind(), MethodKind::Ssm);
        assert_eq!(cdg.kind(), MethodKind::Cdg);
        assert_eq!(dmm.kind(), MethodKind::Dmm);
    }

    #[test]
    fn predict_batch_matches_per_frame_predictions() {
        let (dataset, config, train) = setup();
        let (mut sdm, mut ssm, mut cdg, mut dmm) =
            train_baselines(&dataset, &train, 3, &config, Seed(99)).unwrap();
        let split = dataset.split();
        let refs: Vec<FrameRef> = split.val.iter().take(60).copied().collect();
        let frames: Vec<&Frame> = refs.iter().map(|r| dataset.frame(*r)).collect();
        let sources: Vec<DatasetSource> =
            refs.iter().map(|r| dataset.clips()[r.clip].source).collect();

        let methods: &mut [&mut dyn InferenceMethod] = &mut [&mut sdm, &mut ssm, &mut cdg, &mut dmm];
        for method in methods.iter_mut() {
            let batched = method.predict_batch(&frames, &sources).unwrap();
            assert_eq!(batched.len(), frames.len(), "{}", method.kind());
            for ((frame, &source), batch_row) in frames.iter().zip(&sources).zip(&batched) {
                let single = method.predict(frame, source).unwrap();
                assert_eq!(&single, batch_row, "{} batched != per-frame", method.kind());
            }
        }
    }
}
