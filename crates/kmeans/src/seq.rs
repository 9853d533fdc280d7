//! The sequential reference — a faithful port of the assignment's
//! "intentionally understandable" starter code.
//!
//! One iteration has the two phases the assignment names:
//!
//! 1. **Assignment**: each point is re-assigned to the cluster with the
//!    closest centroid; the code tracks the assignment array and the number
//!    of *cluster changes*. (These are the write/update races once
//!    parallelized.)
//! 2. **Update**: each cluster's new centroid is the arithmetic mean of its
//!    points, computed by counting members and summing coordinates. Empty
//!    clusters keep their previous centroid.
//!
//! This file is the sequential step: both phases' accumulation. The main
//! loop, the means and the termination checks (in order: few changes,
//! small shift, max iterations) are the crate's one Lloyd driver.

use peachy_data::kernels::Candidates;
use peachy_data::Matrix;

use crate::config::{check_inputs, lloyd, IterStats, KMeansConfig, KMeansResult};

/// Run k-means sequentially from the given initial centroids.
pub fn fit_seq(points: &Matrix, config: &KMeansConfig, init: Matrix) -> KMeansResult {
    check_inputs(points, config, &init);
    let (k, d) = (init.rows(), points.cols());
    let mut assignments: Vec<u32> = vec![u32::MAX; points.rows()];
    lloyd(config, init, |centroids| {
        // Phase 1: assignment (+ change counting). Centroid norms are
        // hoisted once per iteration; the per-point scan is the same
        // kernel every parallel implementation uses.
        let cand = Candidates::new(centroids);
        let mut stats = IterStats::zeros(k, d);
        for (i, slot) in assignments.iter_mut().enumerate() {
            let a = cand.nearest(points.row(i));
            if *slot != a {
                stats.changes += 1;
                *slot = a;
            }
        }
        // Phase 2: update (counts + coordinate sums; the driver takes the
        // means).
        for (i, &a) in assignments.iter().enumerate() {
            stats.add(a, points.row(i));
        }
        stats
    })
    .result(assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Termination;
    use crate::init::random_init;
    use crate::metrics::inertia;
    use peachy_data::synth::gaussian_blobs;

    fn cfg() -> KMeansConfig {
        KMeansConfig::default()
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let data = gaussian_blobs(600, 2, 3, 0.2, 5);
        let init = crate::init::kmeans_plus_plus(&data.points, 3, 17);
        let r = fit_seq(&data.points, &cfg(), init);
        // Same-blob points share a cluster.
        for i in 0..data.len() {
            for j in (i + 1)..data.len().min(i + 50) {
                if data.labels[i] == data.labels[j] {
                    assert_eq!(r.assignments[i], r.assignments[j], "points {i},{j}");
                }
            }
        }
        assert_eq!(r.termination, Termination::FewChanges);
    }

    #[test]
    fn inertia_never_increases_across_iterations() {
        // Run one iteration at a time by chaining max_iters=1 runs.
        let data = gaussian_blobs(400, 3, 4, 1.5, 8);
        let mut centroids = random_init(&data.points, 4, 2);
        let mut last = f64::INFINITY;
        for _ in 0..10 {
            let r = fit_seq(
                &data.points,
                &KMeansConfig {
                    max_iters: 1,
                    min_changes: 0,
                    min_shift: 0.0,
                },
                centroids.clone(),
            );
            let obj = inertia(&data.points, &r.centroids, &r.assignments);
            assert!(obj <= last + 1e-9, "inertia rose: {last} → {obj}");
            last = obj;
            centroids = r.centroids;
        }
    }

    #[test]
    fn max_iters_respected() {
        let data = gaussian_blobs(200, 2, 4, 3.0, 9);
        let r = fit_seq(
            &data.points,
            &KMeansConfig {
                max_iters: 3,
                min_changes: 0,
                min_shift: 0.0,
            },
            random_init(&data.points, 4, 1),
        );
        assert!(r.iterations <= 3);
        if r.iterations == 3 && r.last_changes > 0 && r.last_shift > 0.0 {
            assert_eq!(r.termination, Termination::MaxIters);
        }
    }

    #[test]
    fn single_cluster_converges_to_mean() {
        let data = gaussian_blobs(100, 3, 2, 1.0, 4);
        let r = fit_seq(&data.points, &cfg(), random_init(&data.points, 1, 3));
        // Centroid equals the global mean.
        let n = data.points.rows() as f64;
        for j in 0..3 {
            let mean: f64 = (0..data.points.rows())
                .map(|i| data.points.get(i, j))
                .sum::<f64>()
                / n;
            assert!((r.centroids.get(0, j) - mean).abs() < 1e-9);
        }
        assert!(r.assignments.iter().all(|&a| a == 0));
    }

    #[test]
    fn empty_cluster_keeps_centroid() {
        // Two coincident clusters of points at 0 and a far-away centroid
        // that captures nothing.
        let p = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![0.2]]);
        let init = Matrix::from_rows(&[vec![0.0], vec![100.0]]);
        let r = fit_seq(&p, &cfg(), init);
        assert_eq!(r.centroids.get(1, 0), 100.0, "empty cluster must not move");
        assert!(r.assignments.iter().all(|&a| a == 0));
    }

    #[test]
    fn k_equals_n_zero_inertia() {
        let p = Matrix::from_rows(&[vec![0.0], vec![5.0], vec![9.0]]);
        let r = fit_seq(&p, &cfg(), p.clone());
        assert_eq!(inertia(&p, &r.centroids, &r.assignments), 0.0);
    }

    #[test]
    fn change_threshold_terminates_early() {
        let data = gaussian_blobs(500, 2, 3, 0.3, 6);
        let r = fit_seq(
            &data.points,
            &KMeansConfig {
                max_iters: 100,
                min_changes: 500,
                min_shift: 0.0,
            },
            random_init(&data.points, 3, 5),
        );
        // Everything changes in iteration 1 (from unassigned), ≤ 500.
        assert_eq!(r.iterations, 1);
        assert_eq!(r.termination, Termination::FewChanges);
    }

    use peachy_data::Matrix;
}
