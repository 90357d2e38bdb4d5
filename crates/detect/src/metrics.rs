//! Precision / recall / F1 over grid-cell detections.

/// Accumulated detection outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectionCounts {
    /// Predicted occupied, truly occupied.
    pub true_positives: u64,
    /// Predicted occupied, truly empty.
    pub false_positives: u64,
    /// Predicted empty, truly occupied.
    pub false_negatives: u64,
    /// Predicted empty, truly empty.
    pub true_negatives: u64,
}

impl DetectionCounts {
    /// Accumulates one frame's cell-wise predictions against ground truth.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn accumulate(&mut self, predicted: &[bool], truth: &[bool]) {
        assert_eq!(predicted.len(), truth.len(), "cell count mismatch");
        for (&p, &t) in predicted.iter().zip(truth.iter()) {
            match (p, t) {
                (true, true) => self.true_positives += 1,
                (true, false) => self.false_positives += 1,
                (false, true) => self.false_negatives += 1,
                (false, false) => self.true_negatives += 1,
            }
        }
    }

    /// Merges another set of counts into this one.
    pub fn merge(&mut self, other: &DetectionCounts) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
        self.true_negatives += other.true_negatives;
    }

    /// Precision `tp / (tp + fp)`; 0.0 when nothing was predicted positive.
    pub fn precision(&self) -> f32 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f32 / denom as f32
        }
    }

    /// Recall `tp / (tp + fn)`; 0.0 when nothing was truly positive.
    fn recall(&self) -> f32 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f32 / denom as f32
        }
    }

    /// F1 = `2pr / (p + r)` (paper §VI-A4); 0.0 when undefined.
    pub fn f1(&self) -> f32 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Total cells counted.
    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
    }
}

impl std::fmt::Display for DetectionCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "P={:.3} R={:.3} F1={:.3} (tp={} fp={} fn={})",
            self.precision(),
            self.recall(),
            self.f1(),
            self.true_positives,
            self.false_positives,
            self.false_negatives
        )
    }
}

/// Thresholds per-cell probabilities into boolean detections.
///
/// # Examples
///
/// ```
/// let det = anole_detect::threshold_probs(&[0.9, 0.2, 0.5], 0.5);
/// assert_eq!(det, vec![true, false, true]);
/// ```
pub fn threshold_probs(probs: &[f32], threshold: f32) -> Vec<bool> {
    probs.iter().map(|&p| p >= threshold).collect()
}

/// F1 computed over consecutive windows of `window` frames, the paper's
/// "F1 score is calculated every ten frames" protocol (§VI-D). Each element
/// of `frames` is a `(predicted, truth)` cell-vector pair. A trailing
/// partial window is scored too.
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn windowed_f1(frames: &[(Vec<bool>, Vec<bool>)], window: usize) -> Vec<f32> {
    assert!(window > 0, "window must be positive");
    frames
        .chunks(window)
        .map(|chunk| {
            let mut counts = DetectionCounts::default();
            for (pred, truth) in chunk {
                counts.accumulate(pred, truth);
            }
            counts.f1()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_scores_one() {
        let mut c = DetectionCounts::default();
        c.accumulate(&[true, false, true], &[true, false, true]);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
        assert_eq!(c.f1(), 1.0);
    }

    #[test]
    fn all_wrong_scores_zero() {
        let mut c = DetectionCounts::default();
        c.accumulate(&[true, false], &[false, true]);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn empty_everything_is_zero_not_nan() {
        let c = DetectionCounts::default();
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn known_f1_value() {
        // tp=2, fp=1, fn=1 → P=2/3, R=2/3, F1=2/3.
        let mut c = DetectionCounts::default();
        c.accumulate(&[true, true, true, false, false], &[true, true, false, true, false]);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_joint_accumulation() {
        let pred_a = [true, false, true];
        let truth_a = [true, true, false];
        let pred_b = [false, false, true];
        let truth_b = [false, true, true];

        let mut joint = DetectionCounts::default();
        joint.accumulate(&pred_a, &truth_a);
        joint.accumulate(&pred_b, &truth_b);

        let mut a = DetectionCounts::default();
        a.accumulate(&pred_a, &truth_a);
        let mut b = DetectionCounts::default();
        b.accumulate(&pred_b, &truth_b);
        a.merge(&b);
        assert_eq!(a, joint);
    }

    #[test]
    fn threshold_is_inclusive() {
        assert_eq!(threshold_probs(&[0.5], 0.5), vec![true]);
        assert_eq!(threshold_probs(&[0.4999], 0.5), vec![false]);
    }

    #[test]
    fn windowed_f1_scores_each_window() {
        let perfect = (vec![true, false], vec![true, false]);
        let wrong = (vec![true, false], vec![false, true]);
        let frames = vec![perfect.clone(), perfect.clone(), wrong.clone(), wrong.clone()];
        let series = windowed_f1(&frames, 2);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0], 1.0);
        assert_eq!(series[1], 0.0);
    }

    #[test]
    fn windowed_f1_handles_partial_tail() {
        let perfect = (vec![true], vec![true]);
        let series = windowed_f1(&[perfect.clone(), perfect.clone(), perfect], 2);
        assert_eq!(series.len(), 2);
        assert_eq!(series[1], 1.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn windowed_f1_rejects_zero_window() {
        let _ = windowed_f1(&[], 0);
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn accumulate_rejects_length_mismatch() {
        let mut c = DetectionCounts::default();
        c.accumulate(&[true], &[true, false]);
    }

    #[test]
    fn display_mentions_scores() {
        let mut c = DetectionCounts::default();
        c.accumulate(&[true], &[true]);
        let text = c.to_string();
        assert!(text.contains("F1=1.000"));
    }
}
