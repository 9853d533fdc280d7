//! Clustering quality metrics, delegating to the shared kernel layer.
//!
//! All distance arithmetic lives in [`peachy_data::kernels`]; this module
//! keeps the k-means-flavoured names. Every k-means implementation in the
//! crate (sequential, strategy ladder, distributed, locality) routes its
//! assignment step through [`kernels::Candidates`], so assignments stay
//! bit-identical across implementations by construction.

use peachy_data::kernels;
use peachy_data::Matrix;

/// Index of the nearest centroid to `point` (ties break to the lowest
/// index — deterministic across all implementations).
///
/// One-shot convenience over [`kernels::Candidates`]; loops that query
/// many points against the same centroids should build the `Candidates`
/// once (hoisting the centroid norms) and call
/// [`kernels::Candidates::nearest`] — the result is identical.
#[inline]
pub fn nearest_centroid(point: &[f64], centroids: &Matrix) -> u32 {
    kernels::Candidates::new(centroids).nearest(point)
}

/// Inertia: total squared distance of each point to its assigned centroid
/// (the objective k-means minimizes). Rayon-parallel over row blocks with
/// a deterministic merge ([`kernels::assigned_dist2_sum`]).
pub fn inertia(points: &Matrix, centroids: &Matrix, assignments: &[u32]) -> f64 {
    kernels::assigned_dist2_sum(points, centroids, assignments)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_centroid_picks_closest() {
        let c = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        assert_eq!(nearest_centroid(&[1.0], &c), 0);
        assert_eq!(nearest_centroid(&[9.0], &c), 1);
    }

    #[test]
    fn nearest_centroid_tie_breaks_low_index() {
        let c = Matrix::from_rows(&[vec![-1.0], vec![1.0]]);
        assert_eq!(nearest_centroid(&[0.0], &c), 0);
    }

    #[test]
    fn inertia_zero_when_points_on_centroids() {
        let p = Matrix::from_rows(&[vec![0.0], vec![5.0]]);
        let c = p.clone();
        assert_eq!(inertia(&p, &c, &[0, 1]), 0.0);
    }

    #[test]
    fn inertia_sums_squares() {
        let p = Matrix::from_rows(&[vec![1.0], vec![4.0]]);
        let c = Matrix::from_rows(&[vec![0.0]]);
        assert_eq!(inertia(&p, &c, &[0, 0]), 1.0 + 16.0);
    }
}
