//! Task → rank distribution: the assignment's PDC concept.
//!
//! "The PDC concept covered is how to distribute independent tasks to
//! different nodes in MPI when the number of nodes is not evenly divisible
//! by the number of tasks." Two classic assignments are provided (block
//! and round-robin), plus the [`peachy_cluster`]-backed distributed
//! ensemble trainer and the suggested variation of killing the
//! lowest-performing models and reassigning resources.

use peachy_cluster::{task_farm, ByteSized, Cluster, RetryPolicy, Shared};
use peachy_data::matrix::LabeledDataset;

use crate::ensemble::Ensemble;
use crate::nn::{DenseNet, NetConfig, TrainConfig};

/// Block assignment of `tasks` over `ranks`: rank `r` gets a contiguous
/// run, the first `tasks % ranks` ranks get one extra. Delegates to the
/// workspace-wide balanced-block rule ([`peachy_cluster::dist::block_range`]).
pub fn block_assignment(tasks: usize, ranks: usize, rank: usize) -> std::ops::Range<usize> {
    peachy_cluster::dist::block_range(tasks, ranks, rank)
}

/// Round-robin assignment: rank `r` gets tasks `r, r+ranks, r+2·ranks, …`
/// ([`peachy_cluster::dist::cyclic_indices`]).
pub fn round_robin_assignment(tasks: usize, ranks: usize, rank: usize) -> Vec<usize> {
    peachy_cluster::dist::cyclic_indices(tasks, ranks, rank).collect()
}

/// Load imbalance of an assignment: `max_load / mean_load` (1.0 = perfect).
pub fn imbalance(loads: &[usize]) -> f64 {
    assert!(!loads.is_empty());
    let total: usize = loads.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    let max = *loads.iter().max().expect("non-empty") as f64;
    max / mean
}

/// Train an ensemble of `m` models distributed over `ranks` simulated
/// nodes with block assignment; the root gathers the trained members and
/// re-broadcasts the assembled weight set, so *every* rank ends the job
/// holding the full ensemble (as it would for distributed inference).
///
/// Every rank holds the full training set (as in the assignment, where
/// each model trains on all data) and trains only its assigned models.
/// The weight broadcast rides the zero-copy collective: the tree fan-out
/// moves one `Arc` per edge, never a deep copy of the trained networks.
pub fn distribute_training(
    config: &NetConfig,
    tc: &TrainConfig,
    m: usize,
    ranks: usize,
    data: &LabeledDataset,
) -> Ensemble {
    assert!(m >= 1 && ranks >= 1);
    let mut outputs = Cluster::run(ranks, |comm| {
        let my_tasks = block_assignment(m, comm.size(), comm.rank());
        let trained: Vec<(usize, DenseNet)> = my_tasks
            .map(|task| {
                let seed = tc
                    .seed
                    .wrapping_add(task as u64)
                    .wrapping_mul(0x9e3779b97f4a7c15);
                let mut net = DenseNet::new(config, seed);
                net.train(data, &TrainConfig { seed, ..*tc });
                (task, net)
            })
            .collect();
        let assembled = comm.gather(0, trained).map(|blocks| {
            let mut members: Vec<(usize, DenseNet)> = blocks.into_iter().flatten().collect();
            members.sort_by_key(|(task, _)| *task);
            members
        });
        comm.broadcast(0, Shared::new(assembled.unwrap_or_default()))
    });
    let shared = outputs.swap_remove(0);
    drop(outputs); // release the other ranks' handles so root's unwraps clean
    let members = Shared::try_unwrap(shared).unwrap_or_else(|kept| (*kept).clone());
    assert_eq!(members.len(), m, "every task trained exactly once");
    Ensemble::from_members(members.into_iter().map(|(_, net)| net).collect())
}

/// Dynamic **master–worker** (self-scheduling) task distribution: rank 0
/// dispatches task indices to workers on demand, so slow tasks do not
/// stall a whole block — the classic alternative to the static block
/// assignment when task costs vary (and the natural substrate for the
/// "reassign resources" variation). It is [`task_farm`] on a fault-free
/// cluster.
///
/// `work(task)` runs on a worker for every `task ∈ 0..tasks`; results
/// return in task order. With one rank, the master executes everything
/// itself. Also returns how many tasks each rank executed.
pub fn master_worker<T, F>(tasks: usize, ranks: usize, work: F) -> (Vec<T>, Vec<usize>)
where
    T: Send + ByteSized + 'static,
    F: Fn(usize) -> T + Send + Sync,
{
    assert!(ranks >= 1);
    let mut outputs = Cluster::run(ranks, |comm| {
        task_farm(comm, tasks, &RetryPolicy::default(), &work)
    });
    let farm = outputs.swap_remove(0).expect("the master reports");
    (farm.results, farm.executed)
}

/// The "interesting variation": train in generations, and after each
/// generation *kill* the fraction of models with the worst validation
/// accuracy, reassigning their resources (the survivors train longer).
///
/// Returns the surviving ensemble and the per-generation survivor counts.
pub fn train_with_culling(
    config: &NetConfig,
    tc: &TrainConfig,
    m: usize,
    generations: usize,
    cull_fraction: f64,
    train: &LabeledDataset,
    validation: &LabeledDataset,
) -> (Ensemble, Vec<usize>) {
    assert!(m >= 1 && generations >= 1);
    assert!(
        (0.0..1.0).contains(&cull_fraction),
        "cull fraction in [0,1)"
    );
    let mut members: Vec<DenseNet> = (0..m)
        .map(|i| {
            let seed = tc
                .seed
                .wrapping_add(i as u64)
                .wrapping_mul(0x9e3779b97f4a7c15);
            DenseNet::new(config, seed)
        })
        .collect();
    let mut history = Vec::with_capacity(generations);
    for gen in 0..generations {
        use peachy_par::prelude::*;
        members.par_iter_mut().enumerate().for_each(|(i, net)| {
            let seed = tc.seed.wrapping_add((gen * m + i) as u64);
            net.train(train, &TrainConfig { seed, ..*tc });
        });
        // Record the population that actually trained this generation.
        history.push(members.len());
        if gen + 1 < generations {
            // Rank by validation accuracy; drop the worst fraction (at
            // least one survivor always remains).
            let mut scored: Vec<(f64, DenseNet)> = members
                .drain(..)
                .map(|net| (net.accuracy(validation), net))
                .collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite accuracy"));
            let keep = ((scored.len() as f64) * (1.0 - cull_fraction))
                .ceil()
                .max(1.0) as usize;
            scored.truncate(keep);
            members = scored.into_iter().map(|(_, net)| net).collect();
        }
    }
    (Ensemble::from_members(members), history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachy_data::synth::gaussian_blobs;
    use std::collections::HashSet;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    #[test]
    fn block_assignment_covers_all_tasks() {
        // The paper's exact scenario: tasks not divisible by ranks.
        for (tasks, ranks) in [(10usize, 3usize), (10, 4), (10, 6), (7, 7), (3, 8)] {
            let mut seen = vec![0u32; tasks];
            for r in 0..ranks {
                for t in block_assignment(tasks, ranks, r) {
                    seen[t] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "tasks={tasks} ranks={ranks}: {seen:?}"
            );
        }
    }

    #[test]
    fn block_loads_differ_by_at_most_one() {
        for (tasks, ranks) in [(10usize, 3usize), (11, 4), (100, 7)] {
            let loads: Vec<usize> = (0..ranks)
                .map(|r| block_assignment(tasks, ranks, r).len())
                .collect();
            let max = loads.iter().max().unwrap();
            let min = loads.iter().min().unwrap();
            assert!(max - min <= 1, "{loads:?}");
        }
    }

    #[test]
    fn round_robin_covers_all_tasks() {
        for (tasks, ranks) in [(10usize, 3usize), (5, 8), (9, 2)] {
            let mut seen = vec![0u32; tasks];
            for r in 0..ranks {
                for t in round_robin_assignment(tasks, ranks, r) {
                    seen[t] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1));
        }
    }

    #[test]
    fn imbalance_metric() {
        assert_eq!(imbalance(&[2, 2, 2]), 1.0);
        assert!((imbalance(&[4, 3, 3, 3, 3]) - 4.0 / 3.2).abs() < 1e-12);
        assert_eq!(imbalance(&[0, 0]), 1.0);
    }

    #[test]
    fn distributed_training_equals_local_ensemble() {
        // Same seeds → the distributed ensemble must equal the rayon one.
        let data = gaussian_blobs(200, 4, 3, 0.8, 30);
        let config = NetConfig {
            layers: vec![4, 8, 3],
        };
        let tc = TrainConfig {
            epochs: 3,
            batch: 16,
            lr: 0.1,
            momentum: 0.9,
            seed: 7,
        };
        let local = Ensemble::train(&config, &tc, 5, &data);
        let distributed = distribute_training(&config, &tc, 5, 3, &data);
        assert_eq!(distributed.len(), 5);
        let x = data.points.row(0);
        assert_eq!(local.member_probs(x), distributed.member_probs(x));
    }

    #[test]
    fn distributed_training_rank_count_invariant() {
        let data = gaussian_blobs(150, 4, 3, 0.8, 31);
        let config = NetConfig {
            layers: vec![4, 8, 3],
        };
        let tc = TrainConfig {
            epochs: 2,
            batch: 16,
            lr: 0.1,
            momentum: 0.9,
            seed: 8,
        };
        let x = data.points.row(3);
        let reference = distribute_training(&config, &tc, 10, 1, &data).member_probs(x);
        for ranks in [3, 4, 6] {
            let probs = distribute_training(&config, &tc, 10, ranks, &data).member_probs(x);
            assert_eq!(probs, reference, "ranks = {ranks}");
        }
    }

    #[test]
    fn master_worker_returns_all_results_in_order() {
        for ranks in [1usize, 2, 3, 5] {
            let (results, executed) = master_worker(13, ranks, |t| t * t);
            assert_eq!(
                results,
                (0..13).map(|t| t * t).collect::<Vec<_>>(),
                "ranks={ranks}"
            );
            assert_eq!(executed.iter().sum::<usize>(), 13);
            if ranks > 1 {
                assert_eq!(executed[0], 0, "master must not execute tasks");
            }
        }
    }

    #[test]
    fn master_worker_zero_tasks() {
        let (results, executed) = master_worker(0, 4, |_| 0u32);
        assert!(results.is_empty());
        assert_eq!(executed.iter().sum::<usize>(), 0);
    }

    #[test]
    fn master_worker_balances_uneven_costs() {
        // One pathological task (index 0) costs ~50× a normal one; dynamic
        // scheduling must let other workers absorb the rest meanwhile.
        // On a loaded machine the first workers to run could drain all 40
        // tasks before a slow-starting one asks for work. So each task first
        // waits until all four workers hold one (a bounded wait: a farm that
        // starves a requesting worker fails the assert, not hangs).
        let started = (Mutex::new(HashSet::new()), Condvar::new());
        let (results, executed) = master_worker(40, 5, |t| {
            let (workers, joined) = &started;
            let mut workers = workers.lock().expect("no task panics holding the lock");
            workers.insert(std::thread::current().id());
            joined.notify_all();
            drop(
                joined
                    .wait_timeout_while(workers, Duration::from_secs(10), |w| w.len() < 4)
                    .expect("no task panics holding the lock"),
            );
            let spin = if t == 0 { 2_000_000 } else { 40_000 };
            let mut acc = t as u64;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        });
        assert_eq!(results.len(), 40);
        // Every worker got at least one task (no starvation on 4 workers/40 tasks).
        for (rank, &count) in executed.iter().enumerate().skip(1) {
            assert!(count >= 1, "worker {rank} starved: {executed:?}");
        }
    }

    #[test]
    fn master_worker_trains_an_ensemble() {
        // The assignment's real use: models as tasks.
        let data = gaussian_blobs(150, 4, 3, 0.8, 34);
        let config = NetConfig {
            layers: vec![4, 8, 3],
        };
        let tc = TrainConfig {
            epochs: 2,
            batch: 16,
            lr: 0.1,
            momentum: 0.9,
            seed: 11,
        };
        let (members, _) = master_worker(5, 3, |task| {
            let seed = tc
                .seed
                .wrapping_add(task as u64)
                .wrapping_mul(0x9e3779b97f4a7c15);
            let mut net = DenseNet::new(&config, seed);
            net.train(&data, &TrainConfig { seed, ..tc });
            net
        });
        let dynamic = Ensemble::from_members(members);
        // Same seeds → identical to the static block-distributed ensemble.
        let static_ens = distribute_training(&config, &tc, 5, 3, &data);
        let x = data.points.row(0);
        assert_eq!(dynamic.member_probs(x), static_ens.member_probs(x));
    }

    #[test]
    fn culling_shrinks_population() {
        let all = gaussian_blobs(260, 4, 3, 0.8, 32);
        let train = all.select(&(0..200).collect::<Vec<_>>());
        let val = all.select(&(200..260).collect::<Vec<_>>());
        let config = NetConfig {
            layers: vec![4, 8, 3],
        };
        let tc = TrainConfig {
            epochs: 2,
            batch: 16,
            lr: 0.1,
            momentum: 0.9,
            seed: 9,
        };
        let (ens, history) = train_with_culling(&config, &tc, 8, 3, 0.5, &train, &val);
        assert_eq!(history, vec![8, 4, 2]);
        assert_eq!(ens.len(), 2);
    }

    #[test]
    fn culling_never_extinct() {
        let all = gaussian_blobs(120, 4, 2, 0.8, 33);
        let train = all.select(&(0..100).collect::<Vec<_>>());
        let val = all.select(&(100..120).collect::<Vec<_>>());
        let config = NetConfig {
            layers: vec![4, 6, 2],
        };
        let tc = TrainConfig {
            epochs: 1,
            batch: 16,
            lr: 0.1,
            momentum: 0.9,
            seed: 10,
        };
        let (ens, _) = train_with_culling(&config, &tc, 2, 5, 0.9, &train, &val);
        assert!(!ens.is_empty());
    }
}
