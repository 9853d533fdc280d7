//! Synthetic classification / clustering point clouds.
//!
//! Replaces the datahub.io instances (§2) and the course-provided point
//! clouds (§3). Every generator takes explicit size/shape parameters and a
//! seed; the default experiment configurations mirror the paper's quoted
//! sizes (e.g. the 40-dimensional, 5 000-point k-NN test case).

use peachy_prng::{Lcg64, Normal, RandomStream, UniformF64};

use crate::matrix::{LabeledDataset, Matrix};

/// Isotropic Gaussian blobs: `k` class centres placed uniformly in
/// `[-10, 10]^d`, `n` points split round-robin across classes with noise
/// `spread` around each centre.
///
/// This is the workhorse dataset: well-separated for small `spread` (k-NN
/// accuracy ≈ 1), overlapping for large `spread`.
pub fn gaussian_blobs(n: usize, d: usize, k: u32, spread: f64, seed: u64) -> LabeledDataset {
    assert!(n > 0 && d > 0 && k > 0);
    let mut rng = Lcg64::seed_from(seed);
    let centre_dist = UniformF64::new(-10.0, 10.0);
    let centres: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..d).map(|_| centre_dist.sample(&mut rng)).collect())
        .collect();
    let mut noise = Normal::new(0.0, spread);
    let mut points = Matrix::zeros(0, 0);
    let mut labels = Vec::with_capacity(n);
    let mut row = vec![0.0; d];
    for i in 0..n {
        let class = (i as u32) % k;
        let centre = &centres[class as usize];
        for (j, c) in centre.iter().enumerate() {
            row[j] = c + noise.sample(&mut rng);
        }
        points.push_row(&row);
        labels.push(class);
    }
    LabeledDataset::new(points, labels, k)
}

/// Concentric rings in 2-D: class `c` lies on a circle of radius `c + 1`
/// with angular uniformity and radial noise. Not linearly separable — a
/// classic k-NN showcase.
pub fn concentric_rings(n: usize, k: u32, radial_noise: f64, seed: u64) -> LabeledDataset {
    assert!(n > 0 && k > 0);
    let mut rng = Lcg64::seed_from(seed);
    let angle = UniformF64::new(0.0, std::f64::consts::TAU);
    let mut noise = Normal::new(0.0, radial_noise);
    let mut points = Matrix::zeros(0, 0);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = (i as u32) % k;
        let r = (class as f64 + 1.0) + noise.sample(&mut rng);
        let t = angle.sample(&mut rng);
        points.push_row(&[r * t.cos(), r * t.sin()]);
        labels.push(class);
    }
    LabeledDataset::new(points, labels, k)
}

/// The two-moons dataset: two interleaving half-circles with Gaussian
/// noise. Binary, 2-D.
pub fn two_moons(n: usize, noise_sd: f64, seed: u64) -> LabeledDataset {
    assert!(n > 0);
    let mut rng = Lcg64::seed_from(seed);
    let angle = UniformF64::new(0.0, std::f64::consts::PI);
    let mut noise = Normal::new(0.0, noise_sd);
    let mut points = Matrix::zeros(0, 0);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let t = angle.sample(&mut rng);
        let (x, y, class) = if i % 2 == 0 {
            (t.cos(), t.sin(), 0u32)
        } else {
            (1.0 - t.cos(), 0.5 - t.sin(), 1u32)
        };
        points.push_row(&[x + noise.sample(&mut rng), y + noise.sample(&mut rng)]);
        labels.push(class);
    }
    LabeledDataset::new(points, labels, 2)
}

/// Uniform unlabelled cloud in `[lo, hi]^d` — for clustering stress tests
/// where no structure exists.
pub fn uniform_cloud(n: usize, d: usize, lo: f64, hi: f64, seed: u64) -> Matrix {
    assert!(n > 0 && d > 0);
    let mut rng = Lcg64::seed_from(seed);
    let dist = UniformF64::new(lo, hi);
    let mut points = Matrix::zeros(0, 0);
    let mut row = vec![0.0; d];
    for _ in 0..n {
        for v in row.iter_mut() {
            *v = dist.sample(&mut rng);
        }
        points.push_row(&row);
    }
    points
}

/// The paper's §2 k-NN benchmark instance: 40-dimensional blobs, 5 000
/// database points and 5 000 queries ("takes about 5 seconds sequentially"
/// in the original C++). Database and queries are drawn from one generation
/// (same class centres) and split, so classification accuracy is
/// meaningful. Returns `(database, queries)`.
pub fn knn_paper_instance(seed: u64) -> (LabeledDataset, LabeledDataset) {
    let all = gaussian_blobs(10_000, 40, 8, 3.0, seed);
    let db = all.select(&(0..5_000).collect::<Vec<_>>());
    let queries = all.select(&(5_000..10_000).collect::<Vec<_>>());
    (db, queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::dist2;

    #[test]
    fn blobs_shape_and_balance() {
        let ds = gaussian_blobs(300, 5, 3, 1.0, 1);
        assert_eq!(ds.len(), 300);
        assert_eq!(ds.dims(), 5);
        assert_eq!(ds.classes, 3);
        assert_eq!(ds.class_counts(), vec![100, 100, 100]);
    }

    #[test]
    fn blobs_deterministic() {
        let a = gaussian_blobs(50, 3, 2, 1.0, 42);
        let b = gaussian_blobs(50, 3, 2, 1.0, 42);
        assert_eq!(a, b);
        let c = gaussian_blobs(50, 3, 2, 1.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn tight_blobs_cluster_around_centres() {
        // With tiny spread, same-class points are much closer to each other
        // than to other-class points.
        let ds = gaussian_blobs(100, 4, 2, 0.01, 7);
        let first_c0 = ds.labels.iter().position(|&l| l == 0).unwrap();
        let first_c1 = ds.labels.iter().position(|&l| l == 1).unwrap();
        for i in 0..ds.len() {
            let d0 = dist2(ds.points.row(i), ds.points.row(first_c0));
            let d1 = dist2(ds.points.row(i), ds.points.row(first_c1));
            if ds.labels[i] == 0 {
                assert!(d0 < d1);
            } else {
                assert!(d1 < d0);
            }
        }
    }

    #[test]
    fn rings_have_correct_radii() {
        let ds = concentric_rings(200, 2, 0.0, 3);
        for i in 0..ds.len() {
            let p = ds.points.row(i);
            let r = (p[0] * p[0] + p[1] * p[1]).sqrt();
            let expect = ds.labels[i] as f64 + 1.0;
            assert!((r - expect).abs() < 1e-9, "r={r} expect={expect}");
        }
    }

    #[test]
    fn moons_binary_and_2d() {
        let ds = two_moons(100, 0.05, 5);
        assert_eq!(ds.classes, 2);
        assert_eq!(ds.dims(), 2);
        assert_eq!(ds.class_counts(), vec![50, 50]);
    }

    #[test]
    fn uniform_cloud_in_bounds() {
        let m = uniform_cloud(500, 3, -2.0, 5.0, 9);
        for row in m.iter_rows() {
            for &v in row {
                assert!((-2.0..5.0).contains(&v));
            }
        }
    }

    #[test]
    fn paper_instance_dimensions() {
        let (db, q) = knn_paper_instance(1);
        assert_eq!(db.len(), 5_000);
        assert_eq!(q.len(), 5_000);
        assert_eq!(db.dims(), 40);
        assert_eq!(q.dims(), 40);
    }
}
