//! Property tests of k-means and the multi-level sweep, over seeded random
//! cases.

use std::ops::Range;

use anole_cluster::{KMeans, MultiLevelClustering};
use anole_tensor::{rng_from_seed, Matrix, Seed, StdRng};

/// Cases per property.
const CASES: usize = 24;

/// Between `rows.start` and `rows.end - 1` points of `dim` coordinates, each
/// uniform in `[-50, 50)`.
fn points(rng: &mut StdRng, rows: Range<usize>, dim: usize) -> Matrix {
    let rows = rng.usize(rows);
    Matrix::random_uniform(rows, dim, -50.0, 50.0, rng)
}

/// Assignments form a partition: every point gets a cluster in range and
/// every cluster is non-empty after repair.
#[test]
fn fit_is_a_partition() {
    let mut rng = rng_from_seed(Seed(0xC1_0001));
    for case in 0..CASES {
        let points = points(&mut rng, 5..40, 3);
        let (k, seed) = (rng.usize(1..5), rng.usize(0..100) as u64);
        let fit = KMeans::new(k).fit(&points, Seed(seed)).unwrap();
        assert_eq!(fit.assignments.len(), points.rows(), "case {case}");
        assert!(fit.assignments.iter().all(|&a| a < k), "case {case}");
        assert!(fit.cluster_sizes().iter().all(|&s| s > 0), "case {case}");
        assert!(fit.inertia >= 0.0, "case {case}");
    }
}

/// Inertia equals the sum of squared point-to-centroid distances.
#[test]
fn inertia_matches_definition() {
    let mut rng = rng_from_seed(Seed(0xC1_0002));
    for case in 0..CASES {
        let (points, seed) = (points(&mut rng, 4..25, 2), rng.usize(0..100) as u64);
        let fit = KMeans::new(2).fit(&points, Seed(seed)).unwrap();
        let mut manual = 0.0f32;
        for i in 0..points.rows() {
            let d = anole_tensor::l2_distance(points.row(i), fit.centroids.row(fit.assignments[i]));
            manual += d * d;
        }
        let (inertia, tol) = (fit.inertia, manual.max(1.0) * 1e-3);
        assert!((manual - inertia).abs() < tol, "case {case}: {manual} vs {inertia}");
    }
}

/// Translating all points translates the centroids but preserves assignments
/// and inertia.
#[test]
fn translation_invariance() {
    let mut rng = rng_from_seed(Seed(0xC1_0003));
    for case in 0..CASES {
        let points = points(&mut rng, 6..20, 2);
        let (dx, seed) = (rng.f32_in(-20.0..20.0), rng.usize(0..50) as u64);
        let fit = KMeans::new(2).fit(&points, Seed(seed)).unwrap();
        let fit2 = KMeans::new(2).fit(&points.map(|v| v + dx), Seed(seed)).unwrap();
        assert_eq!(&fit.assignments, &fit2.assignments, "case {case}");
        assert!((fit.inertia - fit2.inertia).abs() < fit.inertia.max(1.0) * 0.05, "case {case}");
    }
}

/// The multi-level sweep produces one valid level per k and is reproducible
/// per level.
#[test]
fn sweep_levels_valid() {
    let mut rng = rng_from_seed(Seed(0xC1_0005));
    for case in 0..CASES {
        let (points, seed) = (points(&mut rng, 4..12, 2), Seed(rng.usize(0..50) as u64));
        let levels: Vec<_> = MultiLevelClustering::new(&points, seed).map(Result::unwrap).collect();
        assert_eq!(levels.len(), points.rows().saturating_sub(1), "case {case}");
        for (i, level) in levels.iter().enumerate() {
            assert_eq!(level.k, i + 2, "case {case}");
            assert_eq!(level.fit.assignments.len(), points.rows(), "case {case}");
        }
    }
}
