//! A fault-tolerant, self-scheduling task farm (the paper's §7 pattern,
//! hardened).
//!
//! Rank 0 is the **manager**: it hands out task indices one at a time to
//! whichever worker asks next (self-scheduling, so fast workers take more
//! tasks). Workers request work, compute, and return the result with
//! their next request. On top of the classic pattern, the farm is
//! **failure-aware**:
//!
//! * a worker that dies (panic or scheduled [`FaultPlan`](crate::FaultPlan)
//!   kill) is detected via its death notice; the task it was holding is
//!   reassigned to a surviving worker, bounded by [`RetryPolicy`];
//! * once a task's retry budget is exhausted — or no workers remain — the
//!   manager runs it locally, so the farm degrades gracefully all the way
//!   down to serial execution;
//! * results are keyed by task index, so the output is **bit-identical**
//!   to a fault-free run for deterministic task functions, no matter which
//!   rank ends up computing what.
//!
//! The farm tolerates rank death, message delay, duplication, and
//! reordering. It does *not* implement retransmission, so plans that
//! **drop** messages can stall it — drop injection is for exercising the
//! timeout-aware receives, not the farm.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Duration;

use crate::comm::Comm;
use crate::fault::{RecvError, RetryPolicy};
use crate::message::ByteSized;

/// Tags reserved by the farm protocol (chosen high to stay out of the way
/// of application tags).
const TAG_REQUEST: u32 = 0xFAE0_0001;
const TAG_ASSIGN: u32 = 0xFAE0_0002;

/// Assignment sentinel: no more work, worker may leave.
const DONE: usize = usize::MAX;

/// Manager rank of the farm.
const MANAGER: usize = 0;

/// How long the manager waits for worker traffic before re-checking for
/// deaths, and how long workers wait before re-polling the manager.
const POLL: Duration = Duration::from_millis(2);

/// What the farm produced, reported by the manager rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmOutcome<T> {
    /// Per-task results, indexed by task id — independent of which rank
    /// computed each task.
    pub results: Vec<T>,
    /// Tasks completed per rank (index 0 counts the manager's last-resort
    /// local executions).
    pub executed: Vec<usize>,
    /// Tasks re-dispatched after their assigned worker died.
    pub reassigned: u64,
}

/// Run `n_tasks` independent tasks through the farm; every rank of the
/// cluster must call this collectively. The manager (rank 0) returns
/// `Some(outcome)`, workers return `None`.
///
/// `work` must be deterministic for the bit-identical-under-failure
/// guarantee to hold; it runs on whichever rank the task lands on.
pub fn task_farm<T, F>(
    comm: &mut Comm,
    n_tasks: usize,
    policy: &RetryPolicy,
    work: F,
) -> Option<FarmOutcome<T>>
where
    T: Send + ByteSized + 'static,
    F: Fn(usize) -> T,
{
    assert!(policy.max_attempts >= 1, "max_attempts must be >= 1");
    if comm.rank() == MANAGER {
        Some(run_manager(comm, n_tasks, policy, work))
    } else {
        run_worker(comm, work);
        None
    }
}

fn run_manager<T, F>(
    comm: &mut Comm,
    n_tasks: usize,
    policy: &RetryPolicy,
    work: F,
) -> FarmOutcome<T>
where
    T: Send + ByteSized + 'static,
    F: Fn(usize) -> T,
{
    let size = comm.size();
    let mut results: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
    let mut executed = vec![0usize; size];
    let mut attempts = vec![0u32; n_tasks];
    let mut pending: VecDeque<usize> = (0..n_tasks).collect();
    // worker -> task currently assigned to it
    let mut outstanding: HashMap<usize, usize> = HashMap::new();
    let mut idle: VecDeque<usize> = VecDeque::new();
    let mut alive: HashSet<usize> = (1..size).collect();
    let mut done = 0usize;
    let mut reassigned = 0u64;

    while done < n_tasks {
        // Absorb worker deaths and recover the tasks they were holding.
        for w in comm.dead_peers() {
            if alive.remove(&w) {
                idle.retain(|&x| x != w);
                if let Some(t) = outstanding.remove(&w) {
                    if attempts[t] >= policy.max_attempts {
                        // Retry budget exhausted: last resort, run it here.
                        results[t] = Some(work(t));
                        executed[MANAGER] += 1;
                        done += 1;
                    } else {
                        pending.push_front(t);
                        reassigned += 1;
                    }
                }
            }
        }
        // No workers left: degrade gracefully to serial on the manager.
        if alive.is_empty() {
            while let Some(t) = pending.pop_front() {
                results[t] = Some(work(t));
                executed[MANAGER] += 1;
                done += 1;
            }
            continue;
        }
        // Hand pending tasks to idle workers, one each (self-scheduling).
        while !pending.is_empty() && !idle.is_empty() {
            let w = idle.pop_front().expect("idle non-empty");
            if !alive.contains(&w) {
                continue;
            }
            let t = pending.pop_front().expect("pending non-empty");
            attempts[t] += 1;
            outstanding.insert(w, t);
            comm.send(w, TAG_ASSIGN, t);
        }
        // Wait briefly for worker traffic, then re-check for deaths.
        match comm.recv_any_timeout::<Option<(usize, T)>>(TAG_REQUEST, POLL) {
            Ok((w, report)) => {
                if let Some((t, v)) = report {
                    if outstanding.get(&w) == Some(&t) {
                        outstanding.remove(&w);
                    }
                    if results[t].is_none() {
                        results[t] = Some(v);
                        executed[w] += 1;
                        done += 1;
                    }
                }
                idle.push_back(w);
            }
            Err(RecvError::Timeout) => {}
            Err(_) => {} // teardown or spurious failure: the death scan above decides
        }
    }

    // All results are in: dismiss the survivors. Workers still computing a
    // task can only exist if that task was completed elsewhere after their
    // death — i.e. they are dead — so every live worker will request again.
    let mut to_dismiss = alive;
    while let Some(w) = idle.pop_front() {
        if to_dismiss.remove(&w) {
            comm.send(w, TAG_ASSIGN, DONE);
        }
    }
    while !to_dismiss.is_empty() {
        for w in comm.dead_peers() {
            to_dismiss.remove(&w);
        }
        if let Ok((w, _late_report)) =
            comm.recv_any_timeout::<Option<(usize, T)>>(TAG_REQUEST, POLL)
        {
            if to_dismiss.remove(&w) {
                comm.send(w, TAG_ASSIGN, DONE);
            }
        }
    }

    FarmOutcome {
        results: results
            .into_iter()
            .map(|r| r.expect("every task completed"))
            .collect(),
        executed,
        reassigned,
    }
}

fn run_worker<T, F>(comm: &mut Comm, work: F)
where
    T: Send + ByteSized + 'static,
    F: Fn(usize) -> T,
{
    let mut report: Option<(usize, T)> = None;
    loop {
        comm.send(MANAGER, TAG_REQUEST, report.take());
        loop {
            match comm.recv_timeout::<usize>(MANAGER, TAG_ASSIGN, POLL) {
                Ok(t) if t == DONE => return,
                Ok(t) => {
                    report = Some((t, work(t)));
                    break;
                }
                Err(RecvError::Timeout) => continue,
                // Manager dead or cluster tearing down: nothing left to do.
                Err(_) => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, RankErrorKind};
    use crate::Cluster;
    use std::sync::{Condvar, Mutex};

    fn square(t: usize) -> u64 {
        (t as u64) * (t as u64)
    }

    fn farm_results(outcomes: Vec<Option<FarmOutcome<u64>>>) -> FarmOutcome<u64> {
        outcomes
            .into_iter()
            .flatten()
            .next()
            .expect("manager reported")
    }

    #[test]
    fn farm_matches_serial() {
        let n = 37;
        let expected: Vec<u64> = (0..n).map(square).collect();
        let out = Cluster::run(4, |comm| {
            task_farm(comm, n, &RetryPolicy::default(), square)
        });
        let outcome = farm_results(out);
        assert_eq!(outcome.results, expected);
        assert_eq!(outcome.reassigned, 0);
        assert_eq!(outcome.executed.iter().sum::<usize>(), n);
        assert_eq!(
            outcome.executed[0], 0,
            "manager computes nothing when workers live"
        );
    }

    #[test]
    fn farm_single_rank_runs_serially() {
        let out = Cluster::run(1, |comm| {
            task_farm(comm, 5, &RetryPolicy::default(), square)
        });
        let outcome = farm_results(out);
        assert_eq!(outcome.results, vec![0, 1, 4, 9, 16]);
        assert_eq!(outcome.executed, vec![5]);
    }

    #[test]
    fn farm_zero_tasks() {
        let out = Cluster::run(3, |comm| {
            task_farm(comm, 0, &RetryPolicy::default(), square)
        });
        let outcome = farm_results(out);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.executed.iter().sum::<usize>(), 0);
    }

    #[test]
    fn killed_worker_tasks_are_absorbed_bit_identically() {
        let n = 24;
        let expected: Vec<u64> = (0..n).map(square).collect();
        for seed in [1, 2, 3] {
            // Worker 2 dies on its 2nd transport send: the report of its
            // first task, so it dies holding that task.
            let plan = FaultPlan::new(seed).kill(2, 1);
            // Self-scheduling could let the other workers drain the farm
            // before worker 2 asks for work, and then it would never send
            // a report. So their tasks wait until worker 2 holds one (a
            // bounded wait: a broken farm fails the asserts, not hangs).
            let worker_2_busy = (Mutex::new(false), Condvar::new());
            let results = Cluster::run_with_plan(4, &plan, |comm| {
                let rank = comm.rank();
                task_farm(comm, n, &RetryPolicy::default(), |t| {
                    let (busy, started) = &worker_2_busy;
                    let mut busy = busy.lock().expect("no task panics holding the lock");
                    if rank == 2 {
                        *busy = true;
                        started.notify_all();
                    }
                    drop(
                        started
                            .wait_timeout_while(busy, Duration::from_secs(10), |busy| !*busy)
                            .expect("no task panics holding the lock"),
                    );
                    square(t)
                })
            });
            let outcome = results[0]
                .as_ref()
                .expect("manager survives")
                .clone()
                .expect("manager reports");
            assert_eq!(outcome.results, expected, "seed {seed}: bit-identical");
            assert!(
                outcome.reassigned >= 1,
                "seed {seed}: dead worker's task reassigned"
            );
            assert_eq!(results[2].as_ref().unwrap_err().kind, RankErrorKind::Killed);
            for rank in [1, 3] {
                assert!(results[rank].is_ok(), "seed {seed}: rank {rank} survives");
            }
        }
    }

    #[test]
    fn farm_degrades_to_manager_when_all_workers_die() {
        let n = 9;
        let expected: Vec<u64> = (0..n).map(square).collect();
        // Every worker dies at its very first send (the initial request).
        let plan = FaultPlan::new(7).kill(1, 0).kill(2, 0);
        let results = Cluster::run_with_plan(3, &plan, |comm| {
            task_farm(comm, n, &RetryPolicy::default(), square)
        });
        let outcome = results[0]
            .as_ref()
            .expect("manager survives")
            .clone()
            .expect("manager reports");
        assert_eq!(outcome.results, expected);
        assert_eq!(outcome.executed[0], n, "manager absorbed everything");
    }
}
