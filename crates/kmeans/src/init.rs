//! Centroid initialization: random point sampling (the starter code's
//! method) and k-means++ (an extension for better seeds).

use peachy_data::kernels;
use peachy_data::Matrix;
use peachy_prng::{Lcg64, RandomStream};

/// Pick `k` distinct data points uniformly at random as initial centroids
/// — "initially, centroid positions are chosen randomly".
pub fn random_init(points: &Matrix, k: usize, seed: u64) -> Matrix {
    assert!(k >= 1, "k must be positive");
    assert!(points.rows() >= k, "need at least k points");
    let mut rng = Lcg64::seed_from(seed);
    // Partial Fisher–Yates: draw k distinct indices.
    let n = points.rows();
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.next_below((n - i) as u64) as usize;
        idx.swap(i, j);
    }
    points.select_rows(&idx[..k])
}

/// k-means++ seeding (Arthur & Vassilvitskii 2007): the first centroid is
/// uniform; each subsequent centroid is drawn with probability proportional
/// to its squared distance from the nearest already-chosen centroid.
pub fn kmeans_plus_plus(points: &Matrix, k: usize, seed: u64) -> Matrix {
    assert!(k >= 1, "k must be positive");
    assert!(points.rows() >= k, "need at least k points");
    let mut rng = Lcg64::seed_from(seed);
    let n = points.rows();
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    chosen.push(rng.next_below(n as u64) as usize);
    // dist2[i] = squared distance to the nearest chosen centroid.
    let mut dist2: Vec<f64> = (0..n)
        .map(|i| kernels::dist2(points.row(i), points.row(chosen[0])))
        .collect();
    while chosen.len() < k {
        let total: f64 = dist2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with centroids; pick any unchosen.
            (0..n)
                .find(|i| !chosen.contains(i))
                .expect("k <= n guarantees a spare point")
        } else {
            let mut target = rng.next_f64() * total;
            let mut pick = n - 1;
            for (i, &d) in dist2.iter().enumerate() {
                if target < d {
                    pick = i;
                    break;
                }
                target -= d;
            }
            pick
        };
        chosen.push(next);
        for i in 0..n {
            let d = kernels::dist2(points.row(i), points.row(next));
            if d < dist2[i] {
                dist2[i] = d;
            }
        }
    }
    points.select_rows(&chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachy_data::synth::gaussian_blobs;

    #[test]
    fn random_init_picks_distinct_points() {
        let data = gaussian_blobs(100, 3, 4, 1.0, 1);
        let c = random_init(&data.points, 10, 5);
        assert_eq!(c.rows(), 10);
        // All centroids are actual data points.
        for ci in 0..c.rows() {
            let found = (0..data.points.rows()).any(|pi| data.points.row(pi) == c.row(ci));
            assert!(found, "centroid {ci} is not a data point");
        }
        // Distinct rows.
        for i in 0..c.rows() {
            for j in (i + 1)..c.rows() {
                assert_ne!(c.row(i), c.row(j), "duplicate centroids {i},{j}");
            }
        }
    }

    #[test]
    fn random_init_deterministic() {
        let data = gaussian_blobs(50, 2, 2, 1.0, 3);
        assert_eq!(
            random_init(&data.points, 3, 7),
            random_init(&data.points, 3, 7)
        );
        assert_ne!(
            random_init(&data.points, 3, 7),
            random_init(&data.points, 3, 8)
        );
    }

    #[test]
    fn plus_plus_spreads_centroids() {
        // On three tight, far-apart blobs, k-means++ should pick one seed
        // per blob almost surely; random init often doesn't.
        let data = gaussian_blobs(300, 2, 3, 0.05, 11);
        let c = kmeans_plus_plus(&data.points, 3, 13);
        // Each pair of centroids must be far apart (inter-blob distance ≫ 1).
        for i in 0..3 {
            for j in (i + 1)..3 {
                let d = kernels::dist2(c.row(i), c.row(j));
                assert!(d > 1.0, "centroids {i},{j} too close: {d}");
            }
        }
    }

    #[test]
    fn plus_plus_handles_duplicate_points() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![(i % 2) as f64]).collect();
        let m = peachy_data::Matrix::from_rows(&rows);
        let c = kmeans_plus_plus(&m, 2, 1);
        assert_eq!(c.rows(), 2);
        // Must have chosen one of each value.
        assert_ne!(c.row(0), c.row(1));
    }

    #[test]
    #[should_panic(expected = "at least k points")]
    fn too_few_points_rejected() {
        let m = peachy_data::Matrix::from_rows(&[vec![0.0]]);
        random_init(&m, 2, 1);
    }
}
