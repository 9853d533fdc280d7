//! Clustering-quality diagnostics: silhouette coefficient and the elbow
//! sweep — how the classroom answers "what should K be?" after the
//! assignment's algorithm work is done.

use peachy_data::kernels::dist2;
use peachy_data::Matrix;
use peachy_par::prelude::*;

use crate::config::KMeansConfig;
use crate::init::kmeans_plus_plus;
use crate::metrics::inertia;
use crate::seq::fit_seq;

/// Mean silhouette coefficient over all points:
/// `s(i) = (b(i) − a(i)) / max(a(i), b(i))` with `a` the mean distance to
/// the own cluster and `b` the smallest mean distance to another cluster.
/// Ranges in [−1, 1]; higher is better. Points in singleton clusters score 0.
///
/// O(n²) — intended for the modest n of a quality diagnostic.
pub fn silhouette(points: &Matrix, assignments: &[u32], k: usize) -> f64 {
    assert_eq!(points.rows(), assignments.len());
    assert!(k >= 2, "silhouette needs at least two clusters");
    let n = points.rows();
    let counts = {
        let mut c = vec![0usize; k];
        for &a in assignments {
            c[a as usize] += 1;
        }
        c
    };
    let total: f64 = (0..n)
        .into_par_iter()
        .map(|i| {
            let own = assignments[i] as usize;
            if counts[own] <= 1 {
                return 0.0;
            }
            // Mean distance to each cluster.
            let mut sums = vec![0.0f64; k];
            for j in 0..n {
                if j != i {
                    sums[assignments[j] as usize] += dist2(points.row(i), points.row(j)).sqrt();
                }
            }
            let a = sums[own] / (counts[own] - 1) as f64;
            let b = (0..k)
                .filter(|&c| c != own && counts[c] > 0)
                .map(|c| sums[c] / counts[c] as f64)
                .fold(f64::INFINITY, f64::min);
            if !b.is_finite() {
                return 0.0; // only one non-empty cluster
            }
            (b - a) / a.max(b)
        })
        .sum();
    total / n as f64
}

/// One row of an elbow sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElbowPoint {
    /// Number of clusters tried.
    pub k: usize,
    /// Final inertia (within-cluster sum of squares).
    pub inertia: f64,
    /// Mean silhouette (f64::NAN for k < 2).
    pub silhouette: f64,
}

/// Sweep `k` over `candidates`, fitting each with k-means++ seeds, and
/// report inertia + silhouette per k — the data behind an elbow plot.
pub fn elbow_sweep(points: &Matrix, candidates: &[usize], seed: u64) -> Vec<ElbowPoint> {
    assert!(!candidates.is_empty());
    candidates
        .iter()
        .map(|&k| {
            let init = kmeans_plus_plus(points, k, seed ^ (k as u64));
            let r = fit_seq(points, &KMeansConfig::default(), init);
            ElbowPoint {
                k,
                inertia: inertia(points, &r.centroids, &r.assignments),
                silhouette: if k >= 2 {
                    silhouette(points, &r.assignments, k)
                } else {
                    f64::NAN
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachy_data::synth::gaussian_blobs;

    #[test]
    fn silhouette_high_for_true_clustering() {
        let data = gaussian_blobs(300, 2, 3, 0.3, 150);
        let s = silhouette(&data.points, &data.labels, 3);
        assert!(s > 0.6, "tight blobs should score high: {s}");
    }

    #[test]
    fn silhouette_low_for_random_assignment() {
        let data = gaussian_blobs(200, 2, 3, 0.3, 151);
        // Blobs label points round-robin (i % 3), so scramble by grouping
        // consecutive triples instead — decorrelated from geometry.
        let random: Vec<u32> = (0..200).map(|i| ((i / 3) % 3) as u32).collect();
        let s_true = silhouette(&data.points, &data.labels, 3);
        let s_random = silhouette(&data.points, &random, 3);
        assert!(
            s_random < s_true - 0.3,
            "random {s_random} vs true {s_true}"
        );
        assert!(s_random < 0.1);
    }

    #[test]
    fn silhouette_bounds() {
        let data = gaussian_blobs(120, 3, 4, 1.5, 152);
        let s = silhouette(&data.points, &data.labels, 4);
        assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn elbow_inertia_decreases_with_k() {
        let data = gaussian_blobs(400, 2, 4, 0.6, 153);
        let sweep = elbow_sweep(&data.points, &[1, 2, 4, 8], 154);
        for w in sweep.windows(2) {
            assert!(
                w[1].inertia <= w[0].inertia + 1e-9,
                "inertia must fall with k: {sweep:?}"
            );
        }
    }

    #[test]
    fn silhouette_peaks_near_true_k() {
        // 4 well-separated blobs: silhouette at k = 4 beats k = 2 and k = 8.
        let data = gaussian_blobs(400, 2, 4, 0.25, 155);
        let sweep = elbow_sweep(&data.points, &[2, 4, 8], 156);
        let s = |k: usize| sweep.iter().find(|p| p.k == k).unwrap().silhouette;
        assert!(s(4) > s(8), "k=4 {} vs k=8 {}", s(4), s(8));
    }

    #[test]
    #[should_panic(expected = "at least two clusters")]
    fn silhouette_k1_rejected() {
        let data = gaussian_blobs(10, 2, 1, 1.0, 157);
        silhouette(&data.points, &data.labels, 1);
    }
}
