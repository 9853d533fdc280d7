//! Serving under chaos: worker kills must never lose a request, answer
//! one twice, or break backend bit-equality.
//!
//! A [`FaultPlan`] kills pool workers, counted in batches dispatched to
//! each logical rank (batch `b` goes to rank `b.id % workers`). The
//! doomed attempt kills whichever worker takes it, a fresh worker takes
//! its place, and the batch replays after a seeded [`TickBackoff`]. The
//! invariants pinned here, per seed and per backend:
//!
//! * **exactly-once** — every admitted request's `Response` resolves to
//!   exactly one value (a double fill panics the slot, so a violation
//!   cannot pass silently), and `completed + failed + rejected ==
//!   submitted`;
//! * **chaos-transparency** — responses, batch boundaries, and the
//!   latency histogram are bit-identical to the same trace served with
//!   no kills (replays happen *around* the service, never inside its
//!   math), and identical across `Seq` / `Rayon` / `Cluster`;
//! * **the chaos is exact** — `worker_respawns`, `replayed` and
//!   `backoff_ticks` equal what the kill schedule dictates, read off the
//!   clean run's batch log.
//!
//! The CI serve-smoke job runs the fixed seed matrix below plus one extra
//! seed from `PEACHY_CHAOS_SEED` (logged for reproduction), mirroring the
//! cluster fault-injection job.

use peachy_cluster::{EdgeFault, Executor, FaultPlan, TickBackoff};
use peachy_data::synth::gaussian_blobs;
use peachy_prng::{mix_seed, Lcg64, RandomStream};
use peachy_serve::{
    query_trace, BatchRecord, KnnService, ServeConfig, ServeError, Server, Service, ShardConfig,
    ShardedServer, ShardedService,
};

/// Fixed regression seeds plus the CI-provided random one.
fn seed_matrix() -> Vec<u64> {
    let mut seeds: Vec<u64> = vec![1, 2, 3, 7, 42];
    if let Ok(extra) = std::env::var("PEACHY_CHAOS_SEED") {
        match extra.trim().parse::<u64>() {
            Ok(v) => seeds.push(v),
            Err(_) => panic!("PEACHY_CHAOS_SEED must be a u64, got {extra:?}"),
        }
    }
    seeds
}

const WORKERS: usize = 3;

fn base_cfg(seed: u64) -> ServeConfig {
    ServeConfig {
        capacity: 32,
        max_batch_size: 4,
        max_wait: 2,
        workers: WORKERS,
        backoff: TickBackoff::linear(1, 3, seed),
        ..ServeConfig::default()
    }
}

/// What a kill schedule dictates for one run.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    respawns: u64,
    replayed: u64,
    backoff_ticks: u64,
}

/// A seeded kill for every logical rank, each at a dispatch the clean
/// run's batch log shows will happen, plus what it must cost: one
/// respawn per kill, and one replay of the doomed batch.
fn kill_schedule(seed: u64, clean_log: &[BatchRecord]) -> (FaultPlan, Expected) {
    let mut rng = Lcg64::seed_from(mix_seed(seed ^ 0xdead));
    let backoff = base_cfg(seed).backoff;
    let mut plan = FaultPlan::new(seed);
    let mut expected = Expected {
        respawns: 0,
        replayed: 0,
        backoff_ticks: 0,
    };
    for rank in 0..WORKERS {
        let on_rank: Vec<&BatchRecord> = clean_log
            .iter()
            .filter(|b| b.id as usize % WORKERS == rank)
            .collect();
        assert!(
            !on_rank.is_empty(),
            "rank {rank} got no batch (seed {seed})"
        );
        let after = rng.next_below(on_rank.len() as u64);
        plan = plan.kill(rank, after);
        expected.respawns += 1;
        expected.replayed += on_rank[after as usize].size as u64;
        expected.backoff_ticks += backoff.delay_ticks(1);
    }
    (plan, expected)
}

struct ChaosRun {
    responses: Vec<Result<u32, ServeError>>,
    batch_log: Vec<BatchRecord>,
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    observed: Expected,
    latency_counts: Vec<u64>,
}

fn run_knn(seed: u64, exec: Executor, plan: FaultPlan) -> ChaosRun {
    let db = gaussian_blobs(120, 4, 3, 1.5, 500 + seed);
    let pool = gaussian_blobs(30, 4, 3, 1.5, 600 + seed);
    let cfg = ServeConfig {
        plan,
        ..base_cfg(seed)
    };
    let server = Server::start(KnnService::new(db, 3), exec, cfg);
    let trace = query_trace(seed, 30, 1.5, &pool.points);
    let responses = server.run_trace(trace);
    let report = server.shutdown();
    let s = &report.stats;
    ChaosRun {
        responses,
        batch_log: report.batch_log,
        submitted: s.submitted(),
        rejected: s.rejected(),
        completed: s.completed(),
        failed: s.failed(),
        observed: Expected {
            respawns: s.worker_respawns(),
            replayed: s.replayed(),
            backoff_ticks: s.backoff_ticks(),
        },
        latency_counts: s.latency_counts(),
    }
}

#[test]
fn chaos_seed_matrix_no_request_lost_or_answered_twice() {
    for seed in seed_matrix() {
        eprintln!("serve chaos: seed {seed}");
        let clean = run_knn(seed, Executor::rayon(4), FaultPlan::none());
        assert_eq!(clean.observed.respawns, 0, "clean run must not kill");
        let (plan, expected) = kill_schedule(seed, &clean.batch_log);

        for exec in [Executor::seq(), Executor::rayon(4), Executor::cluster(3)] {
            let label = format!("{exec:?}");
            let chaotic = run_knn(seed, exec, plan.clone());

            // Exactly-once: every admitted request resolved exactly once
            // (the Response slot panics on double fill — reaching these
            // asserts at all means no request was answered twice), and
            // the ledger covers every submission.
            assert_eq!(
                chaotic.completed + chaotic.failed + chaotic.rejected,
                chaotic.submitted,
                "accounting leak on {label}, seed {seed}"
            );
            let answered = chaotic
                .responses
                .iter()
                .filter(|r| !matches!(r, Err(ServeError::Overloaded)))
                .count() as u64;
            assert_eq!(
                answered,
                chaotic.completed + chaotic.failed,
                "response/ledger mismatch on {label}, seed {seed}"
            );
            assert_eq!(chaotic.failed, 0, "a kill failed a request on {label}");

            // The kill schedule, exactly.
            assert_eq!(chaotic.observed, expected, "{label}, seed {seed}");

            // Chaos-transparency: bit-identical to the clean run.
            assert_eq!(
                chaotic.responses, clean.responses,
                "chaos changed answers on {label}, seed {seed}"
            );
            assert_eq!(chaotic.batch_log, clean.batch_log, "{label}, seed {seed}");
            assert_eq!(chaotic.latency_counts, clean.latency_counts);
            assert_eq!(
                (chaotic.submitted, chaotic.rejected, chaotic.completed),
                (clean.submitted, clean.rejected, clean.completed)
            );
        }
    }
}

#[test]
fn kills_survive_on_a_cluster_executor_with_transport_faults() {
    // Stack the two fault layers: a chaotic transport *inside* the
    // executor (duplicates + reorders, no losses) and worker kills
    // around it. Answers must still match the clean sequential run.
    let db = gaussian_blobs(80, 3, 2, 1.5, 900);
    let pool = gaussian_blobs(20, 3, 2, 1.5, 901);
    let trace = query_trace(11, 20, 1.0, &pool.points);
    let reference = {
        let server = Server::start(
            KnnService::new(db.clone(), 3),
            Executor::seq(),
            base_cfg(11),
        );
        let out = server.run_trace(trace.clone());
        server.shutdown();
        out
    };
    let transport = FaultPlan::new(11).all_edges(EdgeFault {
        dup_p: 0.2,
        reorder_p: 0.2,
        ..EdgeFault::none()
    });
    let exec = Executor::Cluster {
        ranks: 2,
        plan: transport,
    };
    let cfg = ServeConfig {
        plan: FaultPlan::new(11).kill(0, 1).kill(2, 0),
        ..base_cfg(11)
    };
    let server = Server::start(KnnService::new(db, 3), exec, cfg);
    let out = server.run_trace(trace);
    let report = server.shutdown();
    assert_eq!(out, reference);
    let s = &report.stats;
    assert_eq!(s.worker_respawns(), 2);
    assert!(s.replayed() > 0);
    assert_eq!(s.completed() + s.rejected(), s.submitted());
}

/// A service that panics on every batch.
struct AlwaysPanics;

impl Service for AlwaysPanics {
    type Input = u32;
    type Output = u32;

    fn name(&self) -> &'static str {
        "always-panics"
    }

    fn answer(&self, _inputs: &[u32]) -> Vec<u32> {
        panic!("this service always panics")
    }
}

#[test]
fn an_always_panicking_service_is_answered_failed_once() {
    let server = Server::start(AlwaysPanics, Executor::seq(), base_cfg(5));
    let out = server.run_trace((0..10u64).map(|i| (i / 3, i as u32)));
    let report = server.shutdown();
    assert!(
        out.iter().all(|r| *r == Err(ServeError::Failed)),
        "every request fails: {out:?}"
    );
    let s = &report.stats;
    assert_eq!((s.submitted(), s.completed(), s.failed()), (10, 0, 10));
    assert_eq!(s.completed() + s.failed() + s.rejected(), s.submitted());
    // One attempt per batch: each batch takes down one worker, and a
    // genuine panic is never replayed.
    assert_eq!(s.worker_respawns(), s.batches());
    assert_eq!((s.replayed(), s.backoff_ticks()), (0, 0));
}

/// The sharded twin of [`AlwaysPanics`]: every shard batch panics.
struct AlwaysPanicsSharded;

impl ShardedService for AlwaysPanicsSharded {
    type Input = u64;
    type Output = u32;
    type State = u64;

    fn name(&self) -> &'static str {
        "always-panics-sharded"
    }

    fn route_key(&self, input: &u64) -> u64 {
        *input
    }

    fn build_shard(&self, shard: usize, _num_shards: usize) -> u64 {
        shard as u64
    }

    fn run_shard(&self, _shard: usize, _state: &u64, _inputs: &[u64]) -> Vec<u32> {
        panic!("this sharded service always panics")
    }
}

#[test]
fn an_always_panicking_sharded_service_is_answered_failed_once() {
    // The pool's rule on the sharded tier: each batch fails once, on every
    // backend, and a service panic is not a rank death — no replay, no
    // reshard, no epoch bump.
    for exec in [Executor::seq(), Executor::rayon(2), Executor::cluster(2)] {
        let label = format!("{exec:?}");
        let cfg = ShardConfig {
            num_shards: 4,
            initial_ranks: 2,
            max_batch_size: 4,
            max_wait: 2,
            ..ShardConfig::default()
        };
        let mut server = ShardedServer::start(AlwaysPanicsSharded, exec, cfg);
        let out = server.run_trace((0..10u64).map(|i| (i / 3, i)));
        let report = server.shutdown();
        assert!(
            out.iter().all(|r| *r == Err(ServeError::Failed)),
            "{label}: every request fails: {out:?}"
        );
        let s = &report.stats;
        assert_eq!(
            s.completed() + s.failed() + s.rejected(),
            s.submitted(),
            "{label}"
        );
        assert_eq!((s.submitted(), s.failed()), (10, 10), "{label}");
        assert_eq!((s.replayed(), s.epochs()), (0, 0), "{label}");
        assert!(report.reshard_log.is_empty(), "{label}");
    }
}
