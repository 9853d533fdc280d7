//! Failure-aware MapReduce driver: the §2 engine on top of the
//! fault-tolerant task farm.
//!
//! The plain [`MapReduce`](crate::MapReduce) engine block-partitions map
//! tasks statically, so a dead rank takes its share of the input down with
//! it. This driver instead runs the **map phase as a self-scheduling task
//! farm** ([`peachy_cluster::task_farm`]): map tasks owned by a rank that
//! dies are reassigned to survivors, bounded by a [`RetryPolicy`], and the
//! manager degrades to serial execution if every worker is lost. The
//! group/reduce phase then runs on the manager over the farm's
//! task-indexed results, so the output table is **bit-identical to a
//! fault-free run** for deterministic map/reduce functions — the Spark
//! lineage-replay guarantee at teaching scale.

use std::collections::BTreeMap;

use peachy_cluster::{task_farm, ByteSized, Cluster, FaultPlan, RankError, RetryPolicy};

/// What a resilient run produced (reported by the manager).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilientOutcome<K, R> {
    /// The reduced table, sorted by key — deterministic regardless of
    /// which ranks computed which map tasks.
    pub table: Vec<(K, R)>,
    /// Map tasks re-dispatched after their assigned rank died.
    pub reassigned: u64,
    /// Map tasks completed per rank.
    pub executed: Vec<usize>,
    /// Ranks that failed during the run (empty in a fault-free run).
    pub failed_ranks: Vec<usize>,
}

/// Run a full map → group → reduce job on `ranks` ranks with the map
/// phase farmed out fault-tolerantly under the given chaos `plan`
/// (use [`FaultPlan::none`] for a production run).
///
/// `map_fn(task, emit)` is called once per task index in `0..n_tasks` on
/// whichever rank the task lands on; `reduce_fn` folds each key's values
/// (in task order) on the manager. Both must be deterministic for the
/// bit-identical guarantee.
///
/// Returns `Err` only if the manager rank itself failed; worker deaths
/// are absorbed and listed in [`ResilientOutcome::failed_ranks`].
pub fn map_reduce_resilient<K, V, R, M, RF>(
    ranks: usize,
    plan: &FaultPlan,
    policy: &RetryPolicy,
    n_tasks: usize,
    map_fn: M,
    reduce_fn: RF,
) -> Result<ResilientOutcome<K, R>, RankError>
where
    K: Ord + Send + ByteSized + 'static,
    V: Send + ByteSized + 'static,
    R: Send,
    M: Fn(usize, &mut dyn FnMut(K, V)) + Send + Sync,
    RF: Fn(&K, Vec<V>) -> R + Send + Sync,
{
    let mut results = Cluster::run_with_plan(ranks, plan, |comm| {
        let farm = task_farm(comm, n_tasks, policy, |t| {
            let mut pairs: Vec<(K, V)> = Vec::new();
            map_fn(t, &mut |k, v| pairs.push((k, v)));
            pairs
        })?;
        // Manager only: group values by key in task order, then reduce.
        let mut groups: BTreeMap<K, Vec<V>> = BTreeMap::new();
        for pairs in farm.results {
            for (k, v) in pairs {
                groups.entry(k).or_default().push(v);
            }
        }
        let table: Vec<(K, R)> = groups
            .into_iter()
            .map(|(k, vs)| {
                let r = reduce_fn(&k, vs);
                (k, r)
            })
            .collect();
        Some((table, farm.reassigned, farm.executed))
    });

    let failed_ranks: Vec<usize> = results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_err())
        .map(|(rank, _)| rank)
        .collect();
    match results.swap_remove(0) {
        Ok(report) => {
            let (table, reassigned, executed) = report.expect("manager reports");
            Ok(ResilientOutcome {
                table,
                reassigned,
                executed,
                failed_ranks,
            })
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachy_cluster::EdgeFault;
    use std::collections::HashMap;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    /// Word-count-shaped job: task i emits (i % 7, i²).
    fn emit_mod7(task: usize, emit: &mut dyn FnMut(usize, u64)) {
        emit(task % 7, (task as u64) * (task as u64));
    }

    fn sum(_: &usize, vs: Vec<u64>) -> u64 {
        vs.iter().sum()
    }

    fn reference_table(n_tasks: usize) -> Vec<(usize, u64)> {
        map_reduce_resilient(
            1,
            &FaultPlan::none(),
            &RetryPolicy::default(),
            n_tasks,
            emit_mod7,
            sum,
        )
        .expect("serial run cannot fail")
        .table
    }

    #[test]
    fn fault_free_run_matches_serial() {
        let expected = reference_table(50);
        let out = map_reduce_resilient(
            4,
            &FaultPlan::none(),
            &RetryPolicy::default(),
            50,
            emit_mod7,
            sum,
        )
        .expect("no faults injected");
        assert_eq!(out.table, expected);
        assert_eq!(out.reassigned, 0);
        assert!(out.failed_ranks.is_empty());
    }

    #[test]
    fn dead_rank_tasks_rerun_bit_identically() {
        let expected = reference_table(40);
        for seed in [1, 2, 3] {
            // Rank 2 dies on its 3rd send, the report of its 2nd map task;
            // that task must be reassigned.
            let plan = FaultPlan::new(seed).kill(2, 2);
            // Self-scheduling could let the other workers drain the job
            // before rank 2 holds two tasks, and then it would never die.
            // So every worker starts two tasks freely, and a third waits
            // until all three workers have started two (a bounded wait: a
            // broken farm fails the asserts, not hangs).
            let started = (Mutex::new(HashMap::new()), Condvar::new());
            let gated_map = |task: usize, emit: &mut dyn FnMut(usize, u64)| {
                let (counts, progressed) = &started;
                let me = std::thread::current().id();
                let mut counts = counts.lock().expect("no task panics holding the lock");
                *counts.entry(me).or_insert(0usize) += 1;
                progressed.notify_all();
                if counts[&me] > 2 {
                    drop(
                        progressed
                            .wait_timeout_while(counts, Duration::from_secs(10), |c| {
                                c.values().filter(|&&n| n >= 2).count() < 3
                            })
                            .expect("no task panics holding the lock"),
                    );
                } else {
                    drop(counts);
                }
                emit_mod7(task, emit);
            };
            let out = map_reduce_resilient(4, &plan, &RetryPolicy::default(), 40, gated_map, sum)
                .expect("manager survives");
            assert_eq!(
                out.table, expected,
                "seed {seed}: bit-identical to fault-free"
            );
            assert_eq!(out.failed_ranks, vec![2], "seed {seed}");
            assert!(out.reassigned >= 1, "seed {seed}");
        }
    }

    #[test]
    fn chaos_without_kills_is_transparent() {
        let expected = reference_table(30);
        let plan = FaultPlan::new(9).all_edges(EdgeFault {
            dup_p: 0.2,
            reorder_p: 0.2,
            delay: Duration::from_micros(20),
            ..EdgeFault::none()
        });
        let out = map_reduce_resilient(3, &plan, &RetryPolicy::default(), 30, emit_mod7, sum)
            .expect("no kills scheduled");
        assert_eq!(out.table, expected);
        assert!(out.failed_ranks.is_empty());
    }
}
