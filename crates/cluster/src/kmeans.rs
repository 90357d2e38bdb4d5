//! Deterministic k-means (k-means++ initialization, Lloyd iterations).
//!
//! Every step runs on the caller's thread in ascending point order, so a
//! fit depends only on the points, `k` and the seed.

use anole_tensor::{l2_distance, rng_from_seed, Matrix, Seed, StdRng};

/// Error returned by clustering routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// `k` was zero.
    ZeroClusters,
    /// Fewer points than clusters were supplied.
    TooFewPoints {
        /// Number of points available.
        points: usize,
        /// Number of clusters requested.
        k: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::ZeroClusters => write!(f, "k must be at least 1"),
            ClusterError::TooFewPoints { points, k } => {
                write!(f, "cannot form {k} clusters from {points} points")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Lloyd iterations stop once no centroid moves by this much or more.
const TOLERANCE: f32 = 1e-4;

/// k-means configuration.
///
/// # Examples
///
/// ```
/// use anole_cluster::KMeans;
///
/// let km = KMeans::new(3).with_max_iterations(50);
/// assert_eq!(km.k(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeans {
    k: usize,
    max_iterations: usize,
}

/// Result of a k-means fit.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansFit {
    /// Cluster centroids, one row per cluster.
    pub centroids: Matrix,
    /// Cluster index of each input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their assigned centroid.
    pub inertia: f32,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

impl KMeans {
    /// Creates a k-means configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iterations: 100,
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Sets the maximum number of Lloyd iterations (default 100).
    pub fn with_max_iterations(mut self, iterations: usize) -> Self {
        self.max_iterations = iterations;
        self
    }

    /// Clusters `points` (one row per point).
    ///
    /// # Errors
    ///
    /// * [`ClusterError::ZeroClusters`] if `k == 0`.
    /// * [`ClusterError::TooFewPoints`] if `points.rows() < k`.
    #[allow(clippy::needless_range_loop)] // parallel-array indexing is clearest here
    pub fn fit(&self, points: &Matrix, seed: Seed) -> Result<KMeansFit, ClusterError> {
        if self.k == 0 {
            return Err(ClusterError::ZeroClusters);
        }
        if points.rows() < self.k {
            return Err(ClusterError::TooFewPoints {
                points: points.rows(),
                k: self.k,
            });
        }

        let mut rng = rng_from_seed(seed);
        let mut centroids = self.init_pp(points, &mut rng);
        let mut assignments = vec![0usize; points.rows()];
        let mut iterations = 0;

        for iter in 0..self.max_iterations {
            iterations = iter + 1;
            // Assignment step.
            for (i, slot) in assignments.iter_mut().enumerate() {
                *slot = nearest_centroid(points.row(i), &centroids).0;
            }
            // Update step.
            let mut sums = Matrix::zeros(self.k, points.cols());
            let mut counts = vec![0usize; self.k];
            for (i, &a) in assignments.iter().enumerate() {
                counts[a] += 1;
                for (s, &v) in sums.row_mut(a).iter_mut().zip(points.row(i).iter()) {
                    *s += v;
                }
            }
            let mut movement = 0.0f32;
            for c in 0..self.k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at the point farthest from its
                    // centroid, a standard empty-cluster repair.
                    let far = farthest_point(points, &centroids, &assignments);
                    sums.row_mut(c).copy_from_slice(points.row(far));
                    counts[c] = 1;
                }
                let inv = 1.0 / counts[c] as f32;
                let new_row: Vec<f32> = sums.row(c).iter().map(|v| v * inv).collect();
                movement = movement.max(l2_distance(centroids.row(c), &new_row));
                centroids.row_mut(c).copy_from_slice(&new_row);
            }
            if movement < TOLERANCE {
                break;
            }
        }

        // Final assignment and inertia.
        let mut inertia = 0.0;
        for (i, slot) in assignments.iter_mut().enumerate() {
            let (a, d) = nearest_centroid(points.row(i), &centroids);
            *slot = a;
            inertia += d * d;
        }

        Ok(KMeansFit {
            centroids,
            assignments,
            inertia,
            iterations,
        })
    }

    /// k-means++ initialization: first centroid uniform, the rest sampled
    /// proportionally to squared distance from the nearest chosen centroid.
    fn init_pp(&self, points: &Matrix, rng: &mut StdRng) -> Matrix {
        let n = points.rows();
        let mut centroids = Matrix::zeros(self.k, points.cols());
        let first = rng.usize(0..n);
        centroids.row_mut(0).copy_from_slice(points.row(first));

        let mut d2 = vec![f32::INFINITY; n];
        for c in 1..self.k {
            // Each point's squared distance to its nearest chosen centroid:
            // fold in the centroid chosen last.
            for (i, best) in d2.iter_mut().enumerate() {
                let d = l2_distance(points.row(i), centroids.row(c - 1));
                *best = best.min(d * d);
            }
            let total: f32 = d2.iter().sum();
            let idx = if total <= f32::EPSILON {
                rng.usize(0..n)
            } else {
                let mut target = rng.f32_in(0.0..total);
                let mut chosen = n - 1;
                for (i, &w) in d2.iter().enumerate() {
                    if target < w {
                        chosen = i;
                        break;
                    }
                    target -= w;
                }
                chosen
            };
            centroids.row_mut(c).copy_from_slice(points.row(idx));
        }
        centroids
    }
}

impl KMeansFit {
    /// Assigns a new point to its nearest centroid.
    ///
    /// # Panics
    ///
    /// Panics if `point` does not match the centroid dimensionality.
    pub fn predict(&self, point: &[f32]) -> usize {
        nearest_centroid(point, &self.centroids).0
    }

    /// Number of clusters in the fit.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// Number of points assigned to each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// Indices of the points assigned to cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.k()`.
    pub fn members_of(&self, c: usize) -> Vec<usize> {
        assert!(c < self.k(), "cluster index out of range");
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == c).then_some(i))
            .collect()
    }
}

/// Returns `(index, distance)` of the centroid nearest to `point`.
///
/// # Panics
///
/// Panics if `centroids` has no rows.
pub(crate) fn nearest_centroid(point: &[f32], centroids: &Matrix) -> (usize, f32) {
    assert!(centroids.rows() > 0, "no centroids");
    let mut best = (0usize, f32::INFINITY);
    for c in 0..centroids.rows() {
        let d = l2_distance(point, centroids.row(c));
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

fn farthest_point(points: &Matrix, centroids: &Matrix, assignments: &[usize]) -> usize {
    let mut best = (0usize, -1.0f32);
    #[allow(clippy::needless_range_loop)]
    for i in 0..points.rows() {
        let d = l2_distance(points.row(i), centroids.row(assignments[i]));
        if d > best.1 {
            best = (i, d);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(centers: &[(f32, f32)], per: usize, spread: f32, seed: Seed) -> Matrix {
        let mut rng = rng_from_seed(seed);
        let mut rows = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per {
                let jitter = Matrix::random_normal(1, 2, spread, &mut rng);
                rows.push(vec![cx + jitter.get(0, 0), cy + jitter.get(0, 1)]);
            }
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs).unwrap()
    }

    #[test]
    fn separates_clear_blobs() {
        let pts = blobs(&[(0.0, 0.0), (20.0, 20.0), (-20.0, 20.0)], 30, 0.5, Seed(1));
        let fit = KMeans::new(3).fit(&pts, Seed(2)).unwrap();
        // Every blob must map to a single cluster.
        for blob in 0..3 {
            let first = fit.assignments[blob * 30];
            for i in 0..30 {
                assert_eq!(fit.assignments[blob * 30 + i], first, "blob {blob}");
            }
        }
        // And the three blobs to three different clusters.
        let mut seen: Vec<usize> = (0..3).map(|b| fit.assignments[b * 30]).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn inertia_decreases_with_k() {
        let pts = blobs(&[(0.0, 0.0), (8.0, 8.0), (16.0, 0.0), (0.0, 16.0)], 25, 1.0, Seed(3));
        let mut last = f32::INFINITY;
        for k in 1..=4 {
            let fit = KMeans::new(k).fit(&pts, Seed(4)).unwrap();
            assert!(fit.inertia <= last + 1e-3, "k={k}: {} > {last}", fit.inertia);
            last = fit.inertia;
        }
    }

    #[test]
    fn k_equal_n_gives_zero_inertia() {
        let pts = blobs(&[(0.0, 0.0), (5.0, 5.0)], 2, 0.3, Seed(5));
        let fit = KMeans::new(4).fit(&pts, Seed(6)).unwrap();
        assert!(fit.inertia < 1e-6);
    }

    #[test]
    fn rejects_bad_inputs() {
        let pts = Matrix::zeros(3, 2);
        assert_eq!(KMeans::new(0).fit(&pts, Seed(0)).unwrap_err(), ClusterError::ZeroClusters);
        assert_eq!(
            KMeans::new(5).fit(&pts, Seed(0)).unwrap_err(),
            ClusterError::TooFewPoints { points: 3, k: 5 }
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = blobs(&[(0.0, 0.0), (10.0, 0.0)], 20, 1.0, Seed(7));
        let a = KMeans::new(2).fit(&pts, Seed(8)).unwrap();
        let b = KMeans::new(2).fit(&pts, Seed(8)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn assignments_are_nearest_centroids() {
        let pts = blobs(&[(0.0, 0.0), (10.0, 10.0)], 15, 2.0, Seed(9));
        let fit = KMeans::new(2).fit(&pts, Seed(10)).unwrap();
        for i in 0..pts.rows() {
            let (nearest, _) = nearest_centroid(pts.row(i), &fit.centroids);
            assert_eq!(fit.assignments[i], nearest);
        }
    }
}
