//! Small statistics helpers: means, CDFs, vector similarities.
//!
//! These back both the dataset-diversity figures (Fig. 5 of the paper plots
//! empirical CDFs of brightness/contrast/object statistics) and the
//! clustering / selection logic that compares embeddings.

/// One point of an empirical CDF: `fraction` of samples are `<= value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPoint {
    /// Sample value at this step of the CDF.
    pub value: f32,
    /// Fraction of the population with value `<=` this point, in `(0, 1]`.
    pub fraction: f32,
}

/// Computes the empirical CDF of `values` at `steps` evenly spaced quantiles.
///
/// Returns an empty vector when `values` is empty or `steps == 0`.
///
/// # Examples
///
/// ```
/// let cdf = anole_tensor::empirical_cdf(&[1.0, 2.0, 3.0, 4.0], 4);
/// assert_eq!(cdf.len(), 4);
/// assert_eq!(cdf.last().unwrap().fraction, 1.0);
/// assert_eq!(cdf.last().unwrap().value, 4.0);
/// ```
pub fn empirical_cdf(values: &[f32], steps: usize) -> Vec<CdfPoint> {
    if values.is_empty() || steps == 0 {
        return Vec::new();
    }
    let mut sorted: Vec<f32> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len();
    (1..=steps)
        .map(|s| {
            let fraction = s as f32 / steps as f32;
            let idx = ((fraction * n as f32).ceil() as usize).clamp(1, n) - 1;
            CdfPoint {
                value: sorted[idx],
                fraction,
            }
        })
        .collect()
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f32>() / values.len() as f32
    }
}

/// Population standard deviation; 0.0 for an empty slice.
#[cfg(test)]
fn stddev(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / values.len() as f32).sqrt()
}

/// Index of the maximum value, or `None` for an empty slice.
///
/// Ties resolve to the earliest index, which keeps model selection
/// deterministic when two models score identically.
///
/// # Examples
///
/// ```
/// assert_eq!(anole_tensor::argmax(&[0.1, 0.7, 0.7]), Some(1));
/// assert_eq!(anole_tensor::argmax(&[]), None);
/// ```
pub fn argmax(values: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2_distance length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

/// Cosine similarity in `[-1, 1]`; 0.0 when either vector is all-zero.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine_similarity length mismatch");
    let dot: f32 = a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
    let na: f32 = a.iter().map(|v| v * v).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|v| v * v).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_and_ends_at_max() {
        let vals = [3.0, 1.0, 2.0, 5.0, 4.0];
        let cdf = empirical_cdf(&vals, 10);
        assert_eq!(cdf.len(), 10);
        for w in cdf.windows(2) {
            assert!(w[1].value >= w[0].value);
            assert!(w[1].fraction > w[0].fraction);
        }
        assert_eq!(cdf.last().unwrap().value, 5.0);
    }

    #[test]
    fn cdf_empty_inputs() {
        assert!(empirical_cdf(&[], 5).is_empty());
        assert!(empirical_cdf(&[1.0], 0).is_empty());
    }

    #[test]
    fn cdf_median_of_uniform() {
        let vals: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let cdf = empirical_cdf(&vals, 2);
        assert!((cdf[0].value - 499.0).abs() <= 1.0, "median {}", cdf[0].value);
    }

    #[test]
    fn mean_and_stddev_known_values() {
        let vals = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&vals) - 5.0).abs() < 1e-6);
        assert!((stddev(&vals) - 2.0).abs() < 1e-6);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[]), 0.0);
    }

    #[test]
    fn argmax_prefers_earliest_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[-5.0]), Some(0));
    }

    #[test]
    fn distances_behave() {
        assert!((l2_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0], &[1.0]), 0.0);
    }
}
