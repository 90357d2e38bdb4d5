//! The multi-level clustering sweep of Algorithm 1.
//!
//! Algorithm 1 clusters scene embeddings with k = 2, then 3, and so on,
//! harvesting any cluster whose trained model validates above δ, until the
//! model repository holds n models. [`MultiLevelClustering`] is the iterator
//! that produces each level's clustering; the harvesting policy lives in
//! `anole-core`, which owns model training.

use anole_tensor::{Matrix, Seed};

use crate::{ClusterError, KMeans, KMeansFit};

/// One level of the multi-granularity sweep: a full k-means fit at a given k.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterLevel {
    /// The number of clusters at this level.
    pub k: usize,
    /// The clustering of the embedded points at this level.
    pub fit: KMeansFit,
}

/// Iterator over k-means fits with increasing k (k = 2, 3, …).
///
/// Each level reuses the same embedding matrix and derives its RNG stream
/// from the base seed and k, so any level is reproducible in isolation.
///
/// # Examples
///
/// ```
/// use anole_cluster::MultiLevelClustering;
/// use anole_tensor::{Matrix, Seed};
///
/// let emb = Matrix::from_rows(&[&[0.0], &[0.1], &[5.0], &[5.1], &[9.0]])?;
/// let mut sweep = MultiLevelClustering::new(&emb, Seed(3));
/// let level2 = sweep.next().unwrap()?;
/// assert_eq!(level2.k, 2);
/// let level3 = sweep.next().unwrap()?;
/// assert_eq!(level3.k, 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiLevelClustering<'a> {
    embeddings: &'a Matrix,
    seed: Seed,
    next_k: usize,
}

impl<'a> MultiLevelClustering<'a> {
    /// Starts a sweep at k = 2 over `embeddings` (one row per point).
    ///
    /// The sweep ends when k would exceed the number of points.
    pub fn new(embeddings: &'a Matrix, seed: Seed) -> Self {
        Self {
            embeddings,
            seed,
            next_k: 2,
        }
    }
}

impl Iterator for MultiLevelClustering<'_> {
    type Item = Result<ClusterLevel, ClusterError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next_k > self.embeddings.rows() {
            return None;
        }
        let k = self.next_k;
        self.next_k += 1;
        let seed = anole_tensor::split_seed(self.seed, k as u64);
        Some(
            KMeans::new(k)
                .fit(self.embeddings, seed)
                .map(|fit| ClusterLevel { k, fit }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_points(n: usize) -> Matrix {
        let rows: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32 * 3.0]).collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs).unwrap()
    }

    #[test]
    fn sweep_visits_increasing_k() {
        let emb = line_points(6);
        let ks: Vec<usize> = MultiLevelClustering::new(&emb, Seed(1))
            .map(|l| l.unwrap().k)
            .collect();
        assert_eq!(ks, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn each_level_is_a_valid_partition() {
        let emb = line_points(9);
        for level in MultiLevelClustering::new(&emb, Seed(2)).take(4) {
            let level = level.unwrap();
            assert_eq!(level.fit.assignments.len(), 9);
            assert!(level.fit.assignments.iter().all(|&a| a < level.k));
            // Every cluster non-empty after repair.
            let sizes = level.fit.cluster_sizes();
            assert!(sizes.iter().all(|&s| s > 0), "sizes {sizes:?} at k={}", level.k);
        }
    }

    #[test]
    fn levels_are_reproducible_independently() {
        let emb = line_points(7);
        let all: Vec<ClusterLevel> = MultiLevelClustering::new(&emb, Seed(5))
            .map(|l| l.unwrap())
            .collect();
        // Level k is the k-means fit at the base seed split by k, so it can
        // be rebuilt alone.
        let fit = KMeans::new(4)
            .fit(&emb, anole_tensor::split_seed(Seed(5), 4))
            .unwrap();
        assert_eq!(ClusterLevel { k: 4, fit }, all[2]);
    }

    #[test]
    fn empty_embedding_yields_no_levels() {
        let emb = Matrix::zeros(0, 3);
        assert!(MultiLevelClustering::new(&emb, Seed(0)).next().is_none());
        let one = Matrix::zeros(1, 3);
        assert!(MultiLevelClustering::new(&one, Seed(0)).next().is_none());
    }
}
