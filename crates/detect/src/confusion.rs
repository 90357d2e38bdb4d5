//! Confusion matrices for the scene encoder and decision model (Fig. 6).

/// An `n × n` confusion matrix of integer counts: rows are true classes,
/// columns predicted classes.
///
/// # Examples
///
/// ```
/// let mut cm = anole_detect::ConfusionMatrix::new(2);
/// cm.record(0, 0);
/// cm.record(0, 1);
/// cm.record(1, 1);
/// assert!((cm.accuracy() - 2.0 / 3.0).abs() < 1e-6);
/// assert_eq!(cm.count(0, 1), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix over `classes` classes.
    pub fn new(classes: usize) -> Self {
        Self {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(truth < self.classes && predicted < self.classes, "label out of range");
        self.counts[truth * self.classes + predicted] += 1;
    }

    /// Count at `(truth, predicted)`.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn count(&self, truth: usize, predicted: usize) -> u64 {
        assert!(truth < self.classes && predicted < self.classes, "label out of range");
        self.counts[truth * self.classes + predicted]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy (diagonal mass / total); 0.0 when empty.
    pub fn accuracy(&self) -> f32 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: u64 = (0..self.classes).map(|i| self.count(i, i)).sum();
        diag as f32 / total as f32
    }

    /// Row-normalized matrix: `P(predicted | true)`. Rows with no
    /// observations are all-zero.
    fn row_normalized(&self) -> Vec<Vec<f32>> {
        (0..self.classes)
            .map(|t| {
                let row_sum: u64 = (0..self.classes).map(|p| self.count(t, p)).sum();
                (0..self.classes)
                    .map(|p| {
                        if row_sum == 0 {
                            0.0
                        } else {
                            self.count(t, p) as f32 / row_sum as f32
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

impl std::fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "confusion ({} classes, acc {:.3}):", self.classes, self.accuracy())?;
        let norm = self.row_normalized();
        for row in norm.iter().take(24) {
            write!(f, "  ")?;
            for v in row.iter().take(24) {
                write!(f, "{:5.2}", v)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ConfusionMatrix {
        /// A matrix over parallel true/predicted label slices.
        fn from_labels(classes: usize, truth: &[usize], predicted: &[usize]) -> Self {
            assert_eq!(truth.len(), predicted.len(), "label count mismatch");
            let mut cm = Self::new(classes);
            for (&t, &p) in truth.iter().zip(predicted) {
                cm.record(t, p);
            }
            cm
        }
    }

    #[test]
    fn records_and_counts() {
        let mut cm = ConfusionMatrix::new(3);
        cm.record(0, 0);
        cm.record(1, 2);
        cm.record(1, 2);
        assert_eq!(cm.count(1, 2), 2);
        assert_eq!(cm.total(), 3);
        assert!((cm.accuracy() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn row_normalization_sums_to_one_or_zero() {
        let cm = ConfusionMatrix::from_labels(3, &[0, 0, 1], &[0, 1, 1]);
        let norm = cm.row_normalized();
        let sum0: f32 = norm[0].iter().sum();
        let sum2: f32 = norm[2].iter().sum();
        assert!((sum0 - 1.0).abs() < 1e-6);
        assert_eq!(sum2, 0.0);
    }

    #[test]
    fn empty_matrix_metrics_are_zero() {
        let cm = ConfusionMatrix::new(4);
        assert_eq!(cm.accuracy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn record_rejects_out_of_range() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(2, 0);
    }

    #[test]
    fn display_shows_accuracy() {
        let cm = ConfusionMatrix::from_labels(2, &[0, 1], &[0, 1]);
        assert!(cm.to_string().contains("acc 1.000"));
    }
}
