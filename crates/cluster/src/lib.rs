//! k-means clustering and the multi-level clustering sweep used by Anole's
//! scene partitioning (Algorithm 1 of the paper).
//!
//! The paper embeds all semantic scenes with `M_scene`, then repeatedly
//! clusters the embeddings with k = 2, 3, … and trains one compressed model
//! per cluster, keeping models that validate above a threshold δ. This crate
//! provides the clustering half: deterministic k-means with k-means++
//! initialization, the inertia of each fit, and
//! [`MultiLevelClustering`] which yields the cluster assignments for each k
//! in turn.
//!
//! # Examples
//!
//! ```
//! use anole_cluster::KMeans;
//! use anole_tensor::{Matrix, Seed};
//!
//! // Two obvious blobs around (0,0) and (10,10).
//! let points = Matrix::from_rows(&[
//!     &[0.0, 0.1], &[0.1, 0.0], &[10.0, 10.1], &[10.1, 10.0],
//! ])?;
//! let fit = KMeans::new(2).fit(&points, Seed(1))?;
//! assert_eq!(fit.assignments[0], fit.assignments[1]);
//! assert_ne!(fit.assignments[0], fit.assignments[2]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod kmeans;
mod multilevel;

pub use kmeans::{ClusterError, KMeans, KMeansFit};
pub use multilevel::{ClusterLevel, MultiLevelClustering};
