//! # peachy-cluster
//!
//! An in-process, message-passing "cluster": the distributed-memory
//! substrate for the Peachy Parallel Assignments reproduction.
//!
//! Three of the paper's six assignments are distributed-memory exercises
//! (MapReduce-MPI k-NN in §2, the MPI leg of k-means in §3, the MPI4Py task
//! farm in §7). This crate substitutes for MPI with the same *semantics* at
//! laptop scale: a fixed set of **ranks**, each running on its own OS
//! thread with **no shared mutable state**, exchanging data exclusively
//! through typed point-to-point messages and MPI-style collectives.
//!
//! What is faithfully preserved from MPI:
//!
//! * SPMD execution — every rank runs the same function, branching on
//!   [`Comm::rank`].
//! * Ownership transfer — a sent value is *moved* to the receiver; there is
//!   no back-door shared memory.
//! * Selective receive by `(source, tag)` with out-of-order buffering.
//! * The collective call discipline — all ranks must invoke collectives in
//!   the same order, matched by an internal sequence number.
//! * Algorithmic structure — broadcast/reduce use binomial trees, barrier
//!   uses dissemination, so message counts scale as `O(n log n)` like a
//!   real MPI implementation (linear variants are provided for ablation
//!   benchmarks).
//!
//! What is deliberately simulated: transport (`std::sync::mpsc` channels
//! instead of a network). Latency/bandwidth of a cluster are not modelled;
//! the crate is about *communication structure*, which is what the
//! assignments teach.
//!
//! Beyond the happy path, the cluster is **failure-aware** (fail-stop
//! model, see DESIGN.md "Failure model"): [`Cluster::run_with_plan`] runs
//! every rank under a supervisor that catches panics, broadcasts death
//! notices so blocked peers wake instead of deadlocking, and reports a
//! per-rank [`Result<T, RankError>`]. Its [`FaultPlan`] injects
//! reproducible transport chaos (message drop / duplicate / reorder /
//! delay plus scheduled rank death) for testing fault-tolerant protocols
//! such as [`farm::task_farm`]; [`FaultPlan::none`] gives a clean run.
//!
//! The crate also hosts the workspace's **distribution + executor layer**
//! ([`dist`], [`exec`], [`stats`]): the single source of block/cyclic
//! partition math, the `Seq`/`Rayon`/`Cluster` backend seam every
//! assignment's "partition → local compute → combine" loop runs through,
//! and the communication counters that make backend runs comparable.
//!
//! ```
//! use peachy_cluster::Cluster;
//!
//! // Sum of ranks via allreduce, SPMD-style.
//! let results = Cluster::run(4, |comm| {
//!     comm.allreduce(comm.rank() as u64, |a, b| a + b)
//! });
//! assert_eq!(results, vec![6, 6, 6, 6]);
//! ```

// Rank-indexed loops in the collectives mirror MPI pseudocode on purpose.
#![allow(clippy::needless_range_loop)]

pub mod collectives;
pub mod comm;
pub mod dist;
pub mod exec;
pub mod farm;
pub mod fault;
pub mod hierarchy;
pub mod message;
pub mod stats;

pub use collectives::{ReduceOp, Shared};
pub use comm::{Comm, ANY_SOURCE};
pub use dist::{
    block_range, Block, BlockCyclic, Contiguous, Cyclic, Distribution, EvenBlocks, HashRing,
};
pub use exec::Executor;
pub use farm::{task_farm, FarmOutcome};
pub use fault::{
    EdgeFault, FaultPlan, RankError, RankErrorKind, RecvError, RetryPolicy, TickBackoff,
};
pub use hierarchy::NodeMap;
pub use message::ByteSized;
pub use stats::{CommStats, StageComm};

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use fault::{KilledByPlan, PeerDeadAbort};
use message::Envelope;

/// Entry point: run an SPMD function on `n` ranks and collect each rank's
/// return value in rank order.
pub struct Cluster;

impl Cluster {
    /// Spawn `n` ranks, each executing `f(comm)` on its own thread.
    ///
    /// The panicking convenience wrapper around a clean
    /// [`Cluster::run_with_plan`]: if any rank fails, panics with the
    /// primary failure's report (rank id + panic message) after all threads
    /// have been joined — mirroring `mpirun` aborting the whole job and
    /// naming the guilty rank.
    pub fn run<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        let results = Self::run_with_plan(n, &FaultPlan::none(), f);
        let mut out = Vec::with_capacity(results.len());
        let mut errors = Vec::new();
        for r in results {
            match r {
                Ok(v) => out.push(v),
                Err(e) => errors.push(e),
            }
        }
        if let Some(e) = RankError::primary(&errors) {
            panic!("{e}");
        }
        out
    }

    /// Supervised SPMD run: every rank's panic is caught, classified, and
    /// returned as `Err(RankError)` in that rank's slot; surviving ranks
    /// keep running. When a rank dies, a death notice is broadcast so
    /// peers blocked on it wake up (their blocking receives abort with a
    /// [`RankErrorKind::PeerDead`] classification; timeout-aware receives
    /// get [`RecvError::PeerDead`]) — a failed job terminates instead of
    /// deadlocking.
    ///
    /// Every rank's sends are filtered through `plan` (drop / duplicate /
    /// reorder / delay per directed edge, plus scheduled fail-stop rank
    /// deaths), seeded so the same plan replays the same faults;
    /// [`FaultPlan::none`] gives a clean transport.
    pub fn run_with_plan<T, F>(n: usize, plan: &FaultPlan, f: F) -> Vec<Result<T, RankError>>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        assert!(n > 0, "cluster needs at least one rank");
        silence_intentional_panics();
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n)
            .map(|_| std::sync::mpsc::channel::<Envelope>())
            .unzip();

        let mut results: Vec<Option<Result<T, RankError>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(rank, rx)| {
                    let senders = senders.clone();
                    let fault = (!plan.is_empty()).then(|| plan.state_for(rank, n));
                    let f = &f;
                    scope.spawn(move || {
                        let notify = senders.clone();
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            let mut comm = Comm::new(rank, senders, rx, fault);
                            f(&mut comm)
                        }));
                        match outcome {
                            Ok(v) => Ok(v),
                            Err(payload) => {
                                // Fail-stop: announce this rank's death so
                                // peers blocked on it wake up. Channel FIFO
                                // guarantees every message it actually sent
                                // is seen before the notice.
                                for (dst, tx) in notify.iter().enumerate() {
                                    if dst != rank {
                                        let _ = tx.send(Envelope::death(rank));
                                    }
                                }
                                Err(classify_panic(rank, payload))
                            }
                        }
                    })
                })
                .collect();
            for (rank, handle) in handles.into_iter().enumerate() {
                // The closure never unwinds (panics are caught inside), but
                // classify defensively rather than poisoning the spawner.
                results[rank] = Some(
                    handle
                        .join()
                        .unwrap_or_else(|payload| Err(classify_panic(rank, payload))),
                );
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("rank produced no result"))
            .collect()
    }
}

/// Turn a caught panic payload into a classified per-rank failure report.
fn classify_panic(rank: usize, payload: Box<dyn Any + Send>) -> RankError {
    let kind = if payload.is::<KilledByPlan>() {
        RankErrorKind::Killed
    } else if let Some(abort) = payload.downcast_ref::<PeerDeadAbort>() {
        RankErrorKind::PeerDead { peer: abort.peer }
    } else if let Some(msg) = payload.downcast_ref::<&'static str>() {
        RankErrorKind::Panicked((*msg).to_string())
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        RankErrorKind::Panicked(msg.clone())
    } else {
        RankErrorKind::Panicked("<non-string panic payload>".to_string())
    };
    RankError { rank, kind }
}

/// Install (once, process-wide) a panic hook that suppresses the default
/// stderr backtrace for the cluster's *intentional* panics — scheduled
/// fault-plan kills and peer-death aborts — which are caught and reported
/// as [`RankError`]s, not bugs. All other panics print as usual.
fn silence_intentional_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<KilledByPlan>() || p.is::<PeerDeadAbort>() {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let out = Cluster::run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            42
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn results_in_rank_order() {
        let out = Cluster::run(8, |comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        Cluster::run(0, |_| ());
    }

    #[test]
    #[should_panic(expected = "rank 3 exploded")]
    fn rank_panic_propagates() {
        Cluster::run(4, |comm| {
            if comm.rank() == 3 {
                panic!("rank 3 exploded");
            }
        });
    }

    #[test]
    fn ping_pong() {
        let out = Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, String::from("ping"));
                comm.recv::<String>(1, 8)
            } else {
                let msg = comm.recv::<String>(0, 7);
                comm.send(0, 8, format!("{msg}-pong"));
                msg
            }
        });
        assert_eq!(out, vec!["ping-pong".to_string(), "ping".to_string()]);
    }

    #[test]
    fn run_fallible_reports_rank_and_message() {
        let results = Cluster::run_with_plan(3, &FaultPlan::none(), |comm| {
            if comm.rank() == 1 {
                panic!("boom at rank {}", comm.rank());
            }
            comm.rank()
        });
        assert_eq!(results[0], Ok(0));
        assert_eq!(results[2], Ok(2));
        let err = results[1].as_ref().expect_err("rank 1 panicked");
        assert_eq!(err.rank, 1);
        assert_eq!(err.kind, RankErrorKind::Panicked("boom at rank 1".into()));
    }

    #[test]
    fn peer_blocked_on_dead_rank_wakes_up() {
        // Rank 1 dies before sending; rank 0 is blocked in recv and must
        // abort with a PeerDead classification instead of hanging.
        let results = Cluster::run_with_plan(2, &FaultPlan::none(), |comm| {
            if comm.rank() == 0 {
                comm.recv::<u32>(1, 0)
            } else {
                panic!("rank 1 dies before sending");
            }
        });
        let e0 = results[0].as_ref().expect_err("rank 0 aborted");
        assert_eq!(e0.kind, RankErrorKind::PeerDead { peer: 1 });
        assert!(results[1].as_ref().unwrap_err().is_primary());
    }

    #[test]
    fn legacy_run_reports_primary_failure_not_casualty() {
        let caught = std::panic::catch_unwind(|| {
            Cluster::run(2, |comm| {
                if comm.rank() == 0 {
                    comm.recv::<u32>(1, 0);
                } else {
                    panic!("original failure");
                }
            })
        });
        let payload = caught.expect_err("job failed");
        let msg = payload.downcast_ref::<String>().expect("formatted report");
        assert!(
            msg.contains("rank 1") && msg.contains("original failure"),
            "must name the primary failure, got: {msg}"
        );
    }

    #[test]
    fn scheduled_kill_classified_as_killed() {
        let plan = FaultPlan::new(11).kill(1, 0);
        let results = Cluster::run_with_plan(2, &plan, |comm| {
            if comm.rank() == 1 {
                comm.send(0, 0, ()); // first send event triggers the kill
            }
            comm.rank()
        });
        assert_eq!(results[0], Ok(0));
        assert_eq!(results[1].as_ref().unwrap_err().kind, RankErrorKind::Killed);
    }

    #[test]
    fn chaos_plan_without_kills_preserves_results() {
        use std::time::Duration;
        let plan = FaultPlan::new(5).all_edges(EdgeFault {
            dup_p: 0.3,
            reorder_p: 0.3,
            delay: Duration::from_micros(50),
            ..EdgeFault::none()
        });
        let results = Cluster::run_with_plan(4, &plan, |comm| {
            comm.allreduce(comm.rank() as u64 + 1, |a, b| a + b)
        });
        for r in results {
            assert_eq!(r, Ok(10));
        }
    }
}
