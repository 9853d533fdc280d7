//! Chaos property tests: collectives under reproducible fault injection.
//!
//! Two invariants, enforced under a watchdog so a regression can only fail,
//! never hang the suite:
//!
//! * **benign chaos is invisible** — plans that delay, duplicate, or
//!   reorder messages (but never drop them or kill ranks) leave every
//!   collective's result bit-identical to the fault-free run;
//! * **death terminates the job** — plans that kill a rank mid-collective
//!   end with the victim classified `Killed` and *every* survivor
//!   returning a `PeerDead`-classified error: no deadlocks, no partial
//!   completions of the full collective suite.
//!
//! The CI fault-injection job runs the fixed seed matrix below plus one
//! extra seed from `PEACHY_CHAOS_SEED` (logged for reproduction).

use std::time::Duration;

use peachy_cluster::{
    Cluster, Comm, EdgeFault, FaultPlan, RankError, RankErrorKind, RecvError, Shared,
};
use peachy_prng::cases::check;

/// Hard ceiling on one chaos run; generous next to the µs-scale injected
/// delays, tiny next to a real hang.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Run `f` on its own thread and panic if it outlives the watchdog —
/// turning a would-be deadlock into a clean failure.
fn with_watchdog<T, F>(f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => {
            let _ = handle.join();
            v
        }
        Err(_) => panic!("watchdog: chaos run exceeded {WATCHDOG:?} — deadlock?"),
    }
}

/// Every collective in one pass; the digest is rank-independent wherever a
/// collective returns the same value everywhere, so fault-free and chaotic
/// runs can be compared element-wise.
fn collective_suite(comm: &mut Comm) -> Vec<i64> {
    let n = comm.size();
    let rank = comm.rank();
    let mut digest = Vec::new();
    comm.barrier();
    digest.push(comm.broadcast(0, if rank == 0 { 4096 } else { 0 }));
    let reduced = comm.reduce(0, rank as i64 + 1, |a, b| a + b);
    digest.push(reduced.unwrap_or(-1));
    digest.push(comm.allreduce(rank as i64, |a, b| a.max(b)));
    let chunks = (rank == 0).then(|| (0..n as i64).map(|i| i * 3 + 1).collect::<Vec<_>>());
    digest.push(comm.scatter(0, chunks));
    let gathered = comm.gather(0, rank as i64 * 7);
    digest.push(gathered.map(|v| v.iter().sum::<i64>()).unwrap_or(-1));
    let a2a = comm.alltoall(
        (0..n)
            .map(|dst| (rank * n + dst) as i64)
            .collect::<Vec<_>>(),
    );
    digest.push(a2a.iter().sum());
    digest.push(comm.allgather(rank as i64).iter().sum());
    digest
}

fn run_suite(n: usize, plan: FaultPlan) -> Vec<Result<Vec<i64>, RankError>> {
    with_watchdog(move || Cluster::run_with_plan(n, &plan, collective_suite))
}

/// The collectives with zero-copy (`Arc`) payloads in one pass. Same digest
/// idea as [`collective_suite`], but every payload travels as a shared envelope
/// — the path where a fault plan's ghost duplicates must stay payload-free
/// and drop/reorder/delay must act on the `Arc` envelope as a whole.
fn shared_collective_suite(comm: &mut Comm) -> Vec<i64> {
    let rank = comm.rank();
    let mut digest = Vec::new();
    let bc = comm.broadcast(
        0,
        Shared::new((0..8).map(|i| (i * 13) as i64).collect::<Vec<_>>()),
    );
    digest.push(bc.iter().sum());
    let ag = comm.allgather(Shared::new(vec![rank as i64 * 5; 3]));
    digest.push(ag.iter().map(|piece| piece.iter().sum::<i64>()).sum());
    let ar = comm.allreduce_shared(vec![rank as i64, 1], |a, b| {
        a.iter().zip(&b).map(|(x, y)| x + y).collect()
    });
    digest.extend(ar.iter());
    digest.push(*comm.broadcast_linear(0, Shared::new(if rank == 0 { 11 } else { 0 })));
    digest
}

fn run_shared_suite(n: usize, plan: FaultPlan) -> Vec<Result<Vec<i64>, RankError>> {
    with_watchdog(move || Cluster::run_with_plan(n, &plan, shared_collective_suite))
}

/// The fault-free reference digests for a cluster of `n`.
fn reference(n: usize) -> Vec<Vec<i64>> {
    run_suite(n, FaultPlan::none())
        .into_iter()
        .map(|r| r.expect("fault-free run cannot fail"))
        .collect()
}

/// Assert the death-plan postcondition: victim `Killed`, every survivor
/// `PeerDead`, nobody hung.
fn assert_death_cascade(results: &[Result<Vec<i64>, RankError>], victim: usize, ctx: &str) {
    for (rank, r) in results.iter().enumerate() {
        let err = r
            .as_ref()
            .expect_err(&format!("{ctx}: rank {rank} must not complete the suite"));
        assert_eq!(err.rank, rank, "{ctx}");
        if rank == victim {
            assert_eq!(
                err.kind,
                RankErrorKind::Killed,
                "{ctx}: victim classification"
            );
        } else {
            assert!(
                matches!(err.kind, RankErrorKind::PeerDead { .. }),
                "{ctx}: rank {rank} must report a dead peer, got {err}"
            );
        }
    }
}

const CASES: u32 = 16;

/// Delay/duplicate/reorder plans complete every collective with results
/// bit-identical to the fault-free run, on every rank.
#[test]
fn benign_chaos_is_invisible() {
    check("benign_chaos_is_invisible", CASES, |g| {
        let (n, seed) = (g.range(2usize..7), g.any::<u64>());
        let (dup_p, reorder_p) = (g.range(0.0f64..0.4), g.range(0.0f64..0.4));
        let delay_us = g.range(0u64..80);
        let plan = FaultPlan::new(seed).all_edges(EdgeFault {
            drop_p: 0.0,
            dup_p,
            reorder_p,
            delay: Duration::from_micros(delay_us),
        });
        let chaotic = run_suite(n, plan);
        let expected = reference(n);
        for (rank, r) in chaotic.into_iter().enumerate() {
            let digest = r.expect("no kills scheduled: every rank completes");
            assert_eq!(digest, expected[rank], "rank {rank}");
        }
    });
}

/// The zero-copy collectives under the same benign chaos: shared
/// (`Arc`) payloads survive duplication (ghost markers), reordering,
/// and delay bit-identically to a clean run — fault fates are
/// payload-agnostic.
#[test]
fn benign_chaos_is_invisible_to_shared_payloads() {
    check("benign_chaos_is_invisible_to_shared_payloads", CASES, |g| {
        let (n, seed) = (g.range(2usize..7), g.any::<u64>());
        let (dup_p, reorder_p) = (g.range(0.0f64..0.4), g.range(0.0f64..0.4));
        let delay_us = g.range(0u64..80);
        let plan = FaultPlan::new(seed).all_edges(EdgeFault {
            drop_p: 0.0,
            dup_p,
            reorder_p,
            delay: Duration::from_micros(delay_us),
        });
        let chaotic = run_shared_suite(n, plan);
        let expected: Vec<Vec<i64>> = run_shared_suite(n, FaultPlan::none())
            .into_iter()
            .map(|r| r.expect("fault-free run cannot fail"))
            .collect();
        for (rank, r) in chaotic.into_iter().enumerate() {
            let digest = r.expect("no kills scheduled: every rank completes");
            assert_eq!(digest, expected[rank], "rank {rank}");
        }
    });
}

/// Killing one rank mid-collective terminates the whole job (watchdog):
/// the victim reports `Killed`, every survivor `PeerDead`.
#[test]
fn rank_death_cascades_to_every_survivor() {
    check("rank_death_cascades_to_every_survivor", CASES, |g| {
        let (n, seed) = (g.range(3usize..7), g.any::<u64>());
        let (victim_sel, kill_after) = (g.range(0usize..100), g.range(0u64..2));
        let victim = victim_sel % n;
        let plan = FaultPlan::new(seed).kill(victim, kill_after);
        let results = run_suite(n, plan);
        assert_death_cascade(&results, victim, &format!("seed {seed} victim {victim}"));
    });
}

/// Death and benign chaos combined: survivors still all abort, still no
/// hang, even with duplicates and reordering in flight.
#[test]
fn death_amid_benign_chaos_still_terminates() {
    check("death_amid_benign_chaos_still_terminates", CASES, |g| {
        let (n, seed, victim_sel) = (g.range(3usize..6), g.any::<u64>(), g.range(0usize..100));
        let (dup_p, reorder_p) = (g.range(0.0f64..0.3), g.range(0.0f64..0.3));
        let victim = victim_sel % n;
        let plan = FaultPlan::new(seed)
            .all_edges(EdgeFault {
                drop_p: 0.0,
                dup_p,
                reorder_p,
                delay: Duration::ZERO,
            })
            .kill(victim, 1);
        let results = run_suite(n, plan);
        assert_death_cascade(&results, victim, &format!("seed {seed} victim {victim}"));
    });
}

/// The CI seed matrix: fixed seeds for regression pinning, plus one extra
/// from the environment (the CI job passes a random one and logs it).
#[test]
fn chaos_seed_matrix_death_plans_terminate() {
    let mut seeds: Vec<u64> = vec![1, 2, 3, 7, 42];
    if let Ok(extra) = std::env::var("PEACHY_CHAOS_SEED") {
        match extra.trim().parse::<u64>() {
            Ok(v) => seeds.push(v),
            Err(_) => panic!("PEACHY_CHAOS_SEED must be a u64, got {extra:?}"),
        }
    }
    for seed in seeds {
        eprintln!("chaos_seed_matrix: seed {seed}");
        let n = 5;
        let victim = (seed as usize % (n - 1)) + 1;
        let plan = FaultPlan::new(seed)
            .all_edges(EdgeFault {
                drop_p: 0.0,
                dup_p: 0.2,
                reorder_p: 0.2,
                delay: Duration::from_micros(20),
            })
            .kill(victim, seed % 2);
        let results = run_suite(n, plan);
        assert_death_cascade(&results, victim, &format!("matrix seed {seed}"));
    }
}

/// Dropped messages surface as timeouts on the failure-aware receive —
/// the legacy blocking receive is never used with lossy plans.
#[test]
fn full_drop_plan_times_out_cleanly() {
    let plan = FaultPlan::new(3).edge(
        0,
        1,
        EdgeFault {
            drop_p: 1.0,
            ..EdgeFault::none()
        },
    );
    let results = with_watchdog(move || {
        Cluster::run_with_plan(2, &plan, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, 123i32); // eaten by the wire
                comm.sent_count()
            } else {
                let got = comm.recv_timeout::<i32>(0, 9, Duration::from_millis(50));
                assert_eq!(got, Err(RecvError::Timeout));
                0
            }
        })
    });
    assert_eq!(results[0], Ok(1), "drop still counts as a send event");
}
