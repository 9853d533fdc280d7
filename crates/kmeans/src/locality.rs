//! The "dynamic buffers" alternative the assignment compares against.
//!
//! From §3: "Other educational proposals use dynamic buffers to store the
//! points in each cluster. This achieves better locality when traversing
//! buffers in the second step, but adds complexity." This module is that
//! design, implemented so the trade-off can actually be measured (see the
//! `E3_layout_ablation` bench): after the assignment phase, point indices
//! are *gathered per cluster*, and the update phase walks each cluster's
//! buffer sequentially.
//!
//! Results are identical to the static-layout sequential reference
//! whenever summation order per cluster matches — which it does, because
//! the gather preserves point order within each cluster.

use peachy_data::kernels::Candidates;
use peachy_data::Matrix;

use crate::config::{check_inputs, lloyd, IterStats, KMeansConfig, KMeansResult};

/// Run k-means with per-cluster gather buffers (the locality layout).
pub fn fit_buffers(points: &Matrix, config: &KMeansConfig, init: Matrix) -> KMeansResult {
    check_inputs(points, config, &init);
    let (k, d) = (init.rows(), points.cols());
    let mut assignments: Vec<u32> = vec![u32::MAX; points.rows()];
    // Reused gather buffers: one Vec of point indices per cluster.
    let mut buffers: Vec<Vec<usize>> = vec![Vec::new(); k];
    lloyd(config, init, |centroids| {
        // Phase 1: assignment, gathering indices into cluster buffers.
        for b in buffers.iter_mut() {
            b.clear();
        }
        let cand = Candidates::new(centroids);
        let mut stats = IterStats::zeros(k, d);
        for (i, slot) in assignments.iter_mut().enumerate() {
            let a = cand.nearest(points.row(i));
            if *slot != a {
                stats.changes += 1;
                *slot = a;
            }
            buffers[a as usize].push(i);
        }

        // Phase 2: per-cluster sequential traversal — the locality win.
        for (c, buffer) in buffers.iter().enumerate() {
            stats.counts[c] = buffer.len() as u64;
            let sum = &mut stats.sums[c * d..(c + 1) * d];
            for &i in buffer {
                for (s, &v) in sum.iter_mut().zip(points.row(i)) {
                    *s += v;
                }
            }
        }
        stats
    })
    .result(assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_init;
    use crate::seq::fit_seq;
    use peachy_data::synth::gaussian_blobs;

    #[test]
    fn identical_to_static_layout() {
        // Same per-cluster summation order → bit-identical results.
        let data = gaussian_blobs(2_000, 3, 5, 1.2, 81);
        let init = random_init(&data.points, 5, 82);
        let cfg = KMeansConfig::default();
        let a = fit_seq(&data.points, &cfg, init.clone());
        let b = fit_buffers(&data.points, &cfg, init);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids, "bit-identical expected");
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.termination, b.termination);
    }

    #[test]
    fn empty_cluster_kept() {
        let p = Matrix::from_rows(&[vec![0.0], vec![0.5]]);
        let init = Matrix::from_rows(&[vec![0.0], vec![50.0]]);
        let r = fit_buffers(&p, &KMeansConfig::default(), init);
        assert_eq!(r.centroids.get(1, 0), 50.0);
    }

    #[test]
    fn single_iteration_cap() {
        let data = gaussian_blobs(200, 2, 3, 2.0, 83);
        let init = random_init(&data.points, 3, 84);
        let r = fit_buffers(
            &data.points,
            &KMeansConfig {
                max_iters: 1,
                min_changes: 0,
                min_shift: 0.0,
            },
            init,
        );
        assert_eq!(r.iterations, 1);
    }
}
