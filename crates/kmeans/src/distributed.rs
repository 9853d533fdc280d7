//! Distributed-memory k-means on [`peachy_cluster`] — the MPI leg of §3.
//!
//! The structure follows the assignment's guidance: "the data structures
//! should be distributed; the initial data and results can be communicated
//! with collective communication operations" and the core insight that "a
//! distributed reduction is needed in any case":
//!
//! * the root scatters point blocks (`scatter`) and broadcasts the initial
//!   centroids (`broadcast`);
//! * each iteration, every rank assigns its local points and computes
//!   local `counts`/`sums`/`changes`;
//! * one `allreduce` combines the accumulators, after which every rank
//!   deterministically computes the same new centroids (replicated update —
//!   no second broadcast needed);
//! * at the end, the root gathers the assignment blocks (`gather`).

//!
//! When ranks can die, [`fit_distributed_resilient`] wraps the same SPMD
//! body in a retry loop: a failed attempt (any rank lost mid-collective
//! aborts the whole job cleanly — no hangs) is re-submitted on the
//! surviving rank count, and because assignments are rank-count invariant
//! the recovered answer is bit-identical to the fault-free run.

use peachy_cluster::{
    dist::block_range, Cluster, CommStats, Executor, FaultPlan, RankError, RetryPolicy, Shared,
};
use peachy_data::kernels::Candidates;
use peachy_data::Matrix;

use crate::config::{check_inputs, lloyd, IterStats, KMeansConfig, KMeansResult};
use crate::executor::fit_with;

/// Run k-means on `ranks` simulated distributed-memory ranks.
///
/// Semantically equivalent to the sequential reference; floating-point
/// sums are combined in rank order inside the tree allreduce, so centroids
/// may differ from the sequential run by rounding only.
pub fn fit_distributed(
    points: &Matrix,
    config: &KMeansConfig,
    init: Matrix,
    ranks: usize,
) -> KMeansResult {
    fit_with(points, config, init, &Executor::cluster(ranks), None)
}

/// One supervised SPMD attempt under a chaos plan: `Ok` only if every
/// rank completed, otherwise all per-rank failures. Counters (if given)
/// are bumped at the root only, so totals are per-job, not per-rank.
pub(crate) fn fit_on_cluster(
    points: &Matrix,
    config: &KMeansConfig,
    init: &Matrix,
    ranks: usize,
    plan: &FaultPlan,
    stats: Option<&CommStats>,
) -> Result<KMeansResult, Vec<RankError>> {
    check_inputs(points, config, init);
    assert!(ranks >= 1, "need at least one rank");
    let (n, d, k) = (points.rows(), points.cols(), init.rows());

    let results = Cluster::run_with_plan(ranks, plan, |comm| {
        let rank = comm.rank();
        let size = comm.size();

        // Distribute: root scatters point blocks, broadcasts centroids.
        // block_range is total over ranks > n — trailing ranks get empty
        // chunks — which is why the free function is used here, not the
        // clipped `Block` type.
        let chunks: Option<Vec<Vec<f64>>> = (rank == 0).then(|| {
            (0..size)
                .map(|r| {
                    let range = block_range(n, size, r);
                    points.as_slice()[range.start * d..range.end * d].to_vec()
                })
                .collect()
        });
        let local_flat: Vec<f64> = comm.scatter(0, chunks);
        if rank == 0 {
            if let Some(s) = stats {
                s.add_scattered((n * d) as u64);
                // Scattered points + broadcast centroids, 8 bytes per f64.
                s.add_collective_bytes((n * d * 8 + k * d * 8) as u64);
            }
        }
        let local_n = local_flat.len() / d.max(1);
        let local = Matrix::from_vec(local_n, d, local_flat);
        // Zero-copy broadcast: the tree fan-out forwards one `Arc` per
        // edge instead of deep-cloning the centroid block per child; each
        // rank then takes its own mutable copy exactly once.
        let centroids_shared = comm.broadcast(
            0,
            Shared::new(if rank == 0 {
                init.as_slice().to_vec()
            } else {
                Vec::new()
            }),
        );
        let centroids = Matrix::from_vec(k, d, (*centroids_shared).clone());
        drop(centroids_shared);

        let mut assignments = vec![u32::MAX; local_n];
        let fit = lloyd(config, centroids, |centroids| {
            // Local assignment + local accumulators, via the same shared
            // kernel as every other implementation (norms hoisted once per
            // iteration → identical assignments to the sequential run).
            let cand = Candidates::new(centroids);
            let mut part = IterStats::zeros(k, d);
            for (i, slot) in assignments.iter_mut().enumerate() {
                let row = local.row(i);
                let a = cand.nearest(row);
                if *slot != a {
                    part.changes += 1;
                    *slot = a;
                }
                part.add(a, row);
            }

            // The distributed reduction: one allreduce fuses all three
            // accumulators (changes, counts, sums). The shared variant
            // broadcasts the combined total as one `Arc` per tree edge —
            // the accumulators are only read afterwards, so no rank needs
            // its own copy. Every rank then computes the same centroids
            // (replicated update).
            let reduced = comm.allreduce_shared(part, IterStats::merge);
            if rank == 0 {
                if let Some(s) = stats {
                    // One fused allreduce payload: changes + counts + sums.
                    s.add_collective_bytes((8 * (1 + k + k * d)) as u64);
                }
            }
            reduced
        });

        // Collect results at the root.
        let gathered = comm.gather(0, assignments);
        // Measured bytes: every rank folds what its transport actually
        // sent into one total, charged once at the root (the accounting
        // allreduce itself is excluded — it runs after the measurement).
        let job_bytes = comm.allreduce(comm.bytes_sent(), |a, b| a + b);
        if rank == 0 {
            if let Some(s) = stats {
                s.add_gathered(n as u64);
                s.add_collective_bytes((n * 4) as u64); // u32 assignments
                s.add_bytes(job_bytes);
            }
        }
        gathered.map(|blocks| fit.result(blocks.concat()))
    });

    let mut errors = Vec::new();
    let mut root: Option<KMeansResult> = None;
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Ok(opt) => {
                if rank == 0 {
                    root = opt;
                }
            }
            Err(e) => errors.push(e),
        }
    }
    if errors.is_empty() {
        Ok(root.expect("root assembles the result"))
    } else {
        Err(errors)
    }
}

/// What a resilient distributed fit reports alongside the result.
#[derive(Debug, Clone)]
pub struct ResilientFit {
    /// The clustering — bit-identical assignments to a fault-free run.
    pub result: KMeansResult,
    /// Cluster attempts used (1 = no failures).
    pub attempts: u32,
    /// Rank count of the successful attempt (shrinks when nodes are lost).
    pub final_ranks: usize,
}

/// Failure-aware distributed k-means: run [`fit_distributed`]'s SPMD body
/// under chaos `plan`; if the attempt fails (a rank panicked or was
/// killed, aborting the whole job cleanly via peer-death cascade), resubmit
/// on the surviving rank count — the failed nodes are excluded, mirroring
/// how a scheduler restarts an MPI job without the crashed hosts. Bounded
/// by `policy.max_attempts`.
///
/// Because assignments are rank-count invariant (a property the test suite
/// pins down), the recovered clustering is **bit-identical** to the
/// fault-free run.
pub fn fit_distributed_resilient(
    points: &Matrix,
    config: &KMeansConfig,
    init: Matrix,
    ranks: usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
) -> Result<ResilientFit, Vec<RankError>> {
    assert!(policy.max_attempts >= 1, "max_attempts must be >= 1");
    let mut ranks_now = ranks;
    let mut plan_now = plan.clone();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match fit_on_cluster(points, config, &init, ranks_now, &plan_now, None) {
            Ok(result) => {
                return Ok(ResilientFit {
                    result,
                    attempts: attempt,
                    final_ranks: ranks_now,
                })
            }
            Err(errors) => {
                if attempt >= policy.max_attempts {
                    return Err(errors);
                }
                // Exclude the primarily-failed nodes from the resubmission;
                // peer-death casualties are healthy nodes and keep running.
                let lost = errors.iter().filter(|e| e.is_primary()).count().max(1);
                ranks_now = ranks_now.saturating_sub(lost).max(1);
                plan_now = FaultPlan::none();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_init;
    use crate::seq::fit_seq;
    use peachy_data::synth::gaussian_blobs;

    fn cfg() -> KMeansConfig {
        KMeansConfig {
            max_iters: 50,
            min_changes: 0,
            min_shift: 1e-12,
        }
    }

    #[test]
    fn matches_sequential_for_all_rank_counts() {
        let data = gaussian_blobs(1_200, 3, 4, 1.0, 19);
        let init = random_init(&data.points, 4, 20);
        let seq = fit_seq(&data.points, &cfg(), init.clone());
        for ranks in [1, 2, 3, 5, 8] {
            let dist = fit_distributed(&data.points, &cfg(), init.clone(), ranks);
            assert_eq!(dist.assignments, seq.assignments, "ranks={ranks}");
            assert_eq!(dist.iterations, seq.iterations, "ranks={ranks}");
            for c in 0..4 {
                for j in 0..3 {
                    assert!(
                        (dist.centroids.get(c, j) - seq.centroids.get(c, j)).abs() < 1e-9,
                        "ranks={ranks} centroid ({c},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn more_ranks_than_points() {
        let data = gaussian_blobs(3, 2, 2, 0.5, 21);
        let init = random_init(&data.points, 2, 22);
        let seq = fit_seq(&data.points, &cfg(), init.clone());
        let dist = fit_distributed(&data.points, &cfg(), init, 6);
        assert_eq!(dist.assignments, seq.assignments);
    }

    #[test]
    fn resilient_fit_single_attempt_when_fault_free() {
        let data = gaussian_blobs(300, 2, 3, 0.8, 31);
        let init = random_init(&data.points, 3, 32);
        let seq = fit_seq(&data.points, &cfg(), init.clone());
        let fit = fit_distributed_resilient(
            &data.points,
            &cfg(),
            init,
            4,
            &FaultPlan::none(),
            &RetryPolicy::default(),
        )
        .expect("no faults injected");
        assert_eq!(fit.attempts, 1);
        assert_eq!(fit.final_ranks, 4);
        assert_eq!(fit.result.assignments, seq.assignments);
    }

    #[test]
    fn resilient_fit_recovers_bit_identically_after_rank_death() {
        let data = gaussian_blobs(400, 3, 3, 1.0, 33);
        let init = random_init(&data.points, 3, 34);
        let seq = fit_seq(&data.points, &cfg(), init.clone());
        for seed in [1, 2, 3] {
            // Rank 2 dies mid-collective; the whole attempt aborts cleanly
            // and the resubmission runs on the survivors.
            let plan = FaultPlan::new(seed).kill(2, 5);
            let fit = fit_distributed_resilient(
                &data.points,
                &cfg(),
                init.clone(),
                4,
                &plan,
                &RetryPolicy::default(),
            )
            .expect("retry succeeds on survivors");
            assert_eq!(fit.attempts, 2, "seed {seed}");
            assert_eq!(fit.final_ranks, 3, "seed {seed}: crashed node excluded");
            assert_eq!(
                fit.result.assignments, seq.assignments,
                "seed {seed}: bit-identical to the fault-free clustering"
            );
        }
    }

    #[test]
    fn resilient_fit_reports_failures_when_budget_exhausted() {
        let data = gaussian_blobs(60, 2, 2, 0.5, 35);
        let init = random_init(&data.points, 2, 36);
        let plan = FaultPlan::new(1).kill(1, 0);
        let errors = fit_distributed_resilient(
            &data.points,
            &cfg(),
            init,
            3,
            &plan,
            &RetryPolicy { max_attempts: 1 },
        )
        .expect_err("single attempt, scheduled kill");
        assert!(errors.iter().any(|e| e.rank == 1 && e.is_primary()));
    }

    #[test]
    fn assignments_in_original_point_order() {
        // Gathered blocks must reassemble in rank (and therefore point) order.
        let data = gaussian_blobs(100, 2, 2, 0.2, 23);
        let init = random_init(&data.points, 2, 24);
        let seq = fit_seq(&data.points, &cfg(), init.clone());
        let dist = fit_distributed(&data.points, &cfg(), init, 4);
        assert_eq!(dist.assignments.len(), 100);
        assert_eq!(dist.assignments, seq.assignments);
    }
}
