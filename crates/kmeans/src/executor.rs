//! The executor seam for k-means: one entry point, three backends.
//!
//! [`fit_with`] selects the implementation by [`Executor`] variant instead
//! of making callers pick among `fit_seq` / `fit` / `fit_distributed`:
//!
//! * `Seq` → the sequential reference ([`crate::seq::fit_seq`]);
//! * `Rayon { chunks }` → the reduction strategy over an `EvenBlocks(n,
//!   chunks)` decomposition — bit-identical to `fit(…, Reduction)` when
//!   `chunks` is the historical default width;
//! * `Cluster { ranks, plan }` → the collective-based distributed fit.
//!
//! Assignments are **identical across all three backends** (the shared
//! nearest-centroid kernel is decomposition-independent); centroids agree
//! to rounding, each backend bit-identical to its standalone counterpart.
//! With `Some(stats)`, [`fit_with`] also reports comm-volume counters,
//! which is what the E15 experiment compares across backends:
//! shared-memory backends scatter/gather by borrowing (zero collective
//! bytes), the cluster backend pays for every element it moves.

use peachy_cluster::{CommStats, Executor, RankError};
use peachy_data::Matrix;

use crate::config::{KMeansConfig, KMeansResult};
use crate::distributed::fit_on_cluster;
use crate::seq::fit_seq;
use crate::strategies::{fit_impl, Strategy, REDUCTION_CHUNKS};

/// Run k-means on the chosen backend, accumulating communication counters
/// into `stats` when given.
pub fn fit_with(
    points: &Matrix,
    config: &KMeansConfig,
    init: Matrix,
    exec: &Executor,
    stats: Option<&CommStats>,
) -> KMeansResult {
    match exec {
        Executor::Seq => fit_seq(points, config, init),
        Executor::Rayon { chunks } => {
            fit_impl(points, config, init, Strategy::Reduction, *chunks, stats)
        }
        Executor::Cluster { ranks, plan } => {
            fit_on_cluster(points, config, &init, *ranks, plan, stats).unwrap_or_else(|errors| {
                panic!(
                    "{}",
                    RankError::primary(&errors).expect("a failed run names its ranks")
                )
            })
        }
    }
}

/// The historical reduction decomposition width, re-exported so callers
/// can request the exact backend-default geometry.
pub const DEFAULT_CHUNKS: usize = REDUCTION_CHUNKS;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_init;
    use crate::strategies::fit;
    use peachy_data::synth::gaussian_blobs;

    fn cfg() -> KMeansConfig {
        KMeansConfig {
            max_iters: 50,
            min_changes: 0,
            min_shift: 1e-12,
        }
    }

    #[test]
    fn seq_backend_is_fit_seq() {
        let data = gaussian_blobs(500, 2, 3, 0.7, 11);
        let init = random_init(&data.points, 3, 12);
        let a = fit_with(&data.points, &cfg(), init.clone(), &Executor::seq(), None);
        let b = fit_seq(&data.points, &cfg(), init);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn rayon_backend_is_reduction_strategy() {
        let data = gaussian_blobs(1_500, 3, 4, 1.0, 13);
        let init = random_init(&data.points, 4, 14);
        let a = fit_with(
            &data.points,
            &cfg(),
            init.clone(),
            &Executor::rayon(DEFAULT_CHUNKS),
            None,
        );
        let b = fit(&data.points, &cfg(), init, Strategy::Reduction);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids, "bit-identical to fit(Reduction)");
    }

    #[test]
    fn cluster_backend_is_fit_distributed() {
        let data = gaussian_blobs(700, 2, 3, 0.9, 15);
        let init = random_init(&data.points, 3, 16);
        let a = fit_with(
            &data.points,
            &cfg(),
            init.clone(),
            &Executor::cluster(4),
            None,
        );
        let b = crate::distributed::fit_distributed(&data.points, &cfg(), init, 4);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids, "bit-identical to fit_distributed");
    }

    #[test]
    fn assignments_agree_across_backends_under_seeds() {
        for seed in [1u64, 2, 3] {
            let data = gaussian_blobs(900, 3, 4, 1.1, seed);
            let init = random_init(&data.points, 4, seed + 100);
            let seq = fit_with(&data.points, &cfg(), init.clone(), &Executor::seq(), None);
            let ray = fit_with(
                &data.points,
                &cfg(),
                init.clone(),
                &Executor::rayon(64),
                None,
            );
            let clu = fit_with(&data.points, &cfg(), init, &Executor::cluster(3), None);
            assert_eq!(seq.assignments, ray.assignments, "seed {seed}");
            assert_eq!(seq.assignments, clu.assignments, "seed {seed}");
            assert_eq!(seq.iterations, ray.iterations, "seed {seed}");
            assert_eq!(seq.iterations, clu.iterations, "seed {seed}");
        }
    }

    #[test]
    fn counters_rank_backends_by_comm_volume() {
        let data = gaussian_blobs(800, 2, 3, 0.8, 17);
        let init = random_init(&data.points, 3, 18);

        let seq_stats = CommStats::new();
        fit_with(
            &data.points,
            &cfg(),
            init.clone(),
            &Executor::seq(),
            Some(&seq_stats),
        );
        assert_eq!(seq_stats.collective_bytes(), 0);
        assert_eq!(seq_stats.scattered(), 0, "seq moves nothing");

        let ray_stats = CommStats::new();
        fit_with(
            &data.points,
            &cfg(),
            init.clone(),
            &Executor::rayon(64),
            Some(&ray_stats),
        );
        assert!(ray_stats.scattered() > 0, "rayon partitions per iteration");
        assert_eq!(ray_stats.collective_bytes(), 0, "borrows move no bytes");

        let clu_stats = CommStats::new();
        fit_with(
            &data.points,
            &cfg(),
            init,
            &Executor::cluster(4),
            Some(&clu_stats),
        );
        assert!(clu_stats.scattered() > 0);
        assert!(clu_stats.gathered() > 0);
        assert!(
            clu_stats.collective_bytes() > 0,
            "the cluster pays for every element it moves"
        );
    }
}
