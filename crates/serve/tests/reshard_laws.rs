//! The elastic-serving acceptance laws, pinned as tests.
//!
//! A scripted join/drain/kill/revive trace served by a
//! [`ShardedServer`] must be **invisible to clients** and **cheap to
//! survive**:
//!
//! * **backend bit-equality** — responses, batch boundaries, the
//!   per-epoch reshard ledger, and the stats fingerprint are identical
//!   across `Seq` / `Rayon` / `Cluster`, per chaos seed;
//! * **elasticity-transparency** — the same trace served by a static,
//!   fault-free server yields the same responses: kills, joins, and
//!   drains never change an answer, only the reshard ledger;
//! * **zero loss** — a mid-trace kill loses no accepted request: every
//!   response resolves `Ok` (or a deterministic `Overloaded`), the
//!   ledger balances, and the lost batches are replayed;
//! * **map purity** — the final shard map is recomputable from
//!   `(membership, epoch, seed)` alone;
//! * **minimal migration** — the shard delta beats the full-rebuild
//!   strawman on both the logical and the wire byte meters, and a kill
//!   moves nothing between survivors (the ring's law).
//!
//! Chaos here is the benign transport kind (dup/reorder/delay — no
//! drops: a dropped completion token costs a 5 s wall-clock deadline,
//! which a unit suite should not pay). The CI `reshard-laws` job runs
//! the fixed seed matrix plus a logged `PEACHY_CHAOS_SEED`.

use std::collections::BTreeSet;
use std::time::Duration;

use peachy_cluster::{EdgeFault, Executor, FaultPlan, TickBackoff};
use peachy_data::synth::gaussian_blobs;
use peachy_serve::{
    keyed_query_trace, BatchRecord, ReshardCause, ReshardRecord, ScaleEvent, ServeError,
    ShardConfig, ShardMap, ShardedKnnService, ShardedServer,
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

/// The scripted membership story every test replays: rank 4 joins, rank
/// 2 is killed mid-round (after its third dispatched batch) and later
/// revives, rank 1 drains near the end.
fn scripted_cfg(seed: u64) -> ShardConfig {
    ShardConfig {
        num_shards: 16,
        vnodes: 16,
        initial_ranks: 4,
        max_batch_size: 4,
        max_wait: 2,
        backoff: TickBackoff::linear(1, 3, seed),
        plan: FaultPlan::new(seed)
            .all_edges(EdgeFault {
                dup_p: 0.15,
                reorder_p: 0.15,
                delay: Duration::from_millis(1),
                ..EdgeFault::none()
            })
            .kill(2, 2)
            .revive(2, 3),
        scaling: vec![(6, ScaleEvent::Add(4)), (18, ScaleEvent::Drain(1))],
        ..ShardConfig::default()
    }
}

struct ElasticRun {
    responses: Vec<Result<u32, ServeError>>,
    reshard_log: Vec<ReshardRecord>,
    batch_log: Vec<BatchRecord>,
    final_map: ShardMap,
    final_members: Vec<usize>,
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    replayed: u64,
    backoff_ticks: u64,
    epochs: u64,
    shards_moved: u64,
    shards_rebuilt: u64,
    bytes_migrated: u64,
    wire_bytes: u64,
    latency_counts: Vec<u64>,
}

fn run_elastic(seed: u64, exec: Executor, cfg: ShardConfig) -> ElasticRun {
    let db = gaussian_blobs(96, 4, 3, 1.5, 700 + seed);
    let pool = gaussian_blobs(24, 4, 3, 1.5, 800 + seed);
    let mut server = ShardedServer::start(ShardedKnnService::new(db, 3), exec, cfg);
    let responses = server.run_trace(keyed_query_trace(seed, 24, 2.0, &pool.points));
    let final_members = server.members();
    let report = server.shutdown();
    let s = &report.stats;
    ElasticRun {
        responses,
        reshard_log: report.reshard_log,
        batch_log: report.batch_log,
        final_map: report.final_map,
        final_members,
        submitted: s.submitted(),
        rejected: s.rejected(),
        completed: s.completed(),
        failed: s.failed(),
        replayed: s.replayed(),
        backoff_ticks: s.backoff_ticks(),
        epochs: s.epochs(),
        shards_moved: s.shards_moved(),
        shards_rebuilt: s.shards_rebuilt(),
        bytes_migrated: s.bytes_migrated(),
        wire_bytes: s.comm().bytes(),
        latency_counts: s.latency_counts(),
    }
}

#[test]
fn scripted_elasticity_is_bit_identical_across_backends() {
    for seed in seed_matrix() {
        eprintln!("reshard laws: seed {seed}");
        // Elasticity-transparency reference: same trace, static
        // membership, no faults.
        let quiet = run_elastic(
            seed,
            Executor::seq(),
            ShardConfig {
                plan: FaultPlan::none(),
                scaling: Vec::new(),
                ..scripted_cfg(seed)
            },
        );
        assert_eq!(quiet.epochs, 0, "the quiet run must never reshard");
        assert_eq!(quiet.failed, 0);

        let reference = run_elastic(seed, Executor::seq(), scripted_cfg(seed));
        assert_eq!(
            reference.responses, quiet.responses,
            "elasticity changed answers (seed {seed})"
        );

        for exec in [Executor::rayon(4), Executor::cluster(4)] {
            let label = format!("{exec:?}");
            let run = run_elastic(seed, exec, scripted_cfg(seed));
            assert_eq!(run.responses, reference.responses, "{label}, seed {seed}");
            assert_eq!(
                run.reshard_log, reference.reshard_log,
                "{label}, seed {seed}"
            );
            assert_eq!(run.batch_log, reference.batch_log, "{label}, seed {seed}");
            assert_eq!(run.final_map, reference.final_map, "{label}, seed {seed}");
            assert_eq!(run.latency_counts, reference.latency_counts, "{label}");
            assert_eq!(
                (
                    run.submitted,
                    run.rejected,
                    run.completed,
                    run.failed,
                    run.replayed,
                    run.backoff_ticks,
                    run.epochs,
                    run.shards_moved,
                    run.shards_rebuilt,
                    run.bytes_migrated,
                ),
                (
                    reference.submitted,
                    reference.rejected,
                    reference.completed,
                    reference.failed,
                    reference.replayed,
                    reference.backoff_ticks,
                    reference.epochs,
                    reference.shards_moved,
                    reference.shards_rebuilt,
                    reference.bytes_migrated,
                ),
                "ledger fingerprint diverged on {label}, seed {seed}"
            );
        }
    }
}

#[test]
fn a_kill_mid_trace_loses_no_accepted_request() {
    for seed in [1u64, 7, 42] {
        for exec in [Executor::seq(), Executor::cluster(4)] {
            let label = format!("{exec:?}");
            let run = run_elastic(seed, exec, scripted_cfg(seed));

            // Every accepted request resolved Ok; the only permissible
            // error is deterministic admission control.
            for (i, r) in run.responses.iter().enumerate() {
                assert!(
                    matches!(r, Ok(_) | Err(ServeError::Overloaded)),
                    "request {i} resolved {r:?} on {label}, seed {seed}"
                );
            }
            assert_eq!(run.failed, 0, "{label}, seed {seed}");
            assert_eq!(
                run.completed + run.rejected,
                run.submitted,
                "ledger leak on {label}, seed {seed}"
            );

            // The kill actually fired, lost batches were replayed, and
            // the scripted revival brought the rank back.
            assert!(run.replayed > 0, "kill never fired on {label}, seed {seed}");
            let kill = run
                .reshard_log
                .iter()
                .find(|r| r.cause == ReshardCause::Kill(2))
                .unwrap_or_else(|| panic!("no kill record on {label}, seed {seed}"));
            assert!(kill.requests_replayed > 0);
            // The ring's law: a death rebuilds the dead rank's shards and
            // moves nothing between survivors.
            assert!(kill.shards_rebuilt > 0, "{label}, seed {seed}");
            assert_eq!(kill.shards_moved, 0, "{label}, seed {seed}");
            assert_eq!(kill.bytes_migrated, 0, "{label}, seed {seed}");
            assert!(
                run.reshard_log
                    .iter()
                    .any(|r| r.cause == ReshardCause::Revive(2)),
                "rank 2 never revived on {label}, seed {seed}"
            );
            // Join and drain both transfer warm state.
            for cause in [ReshardCause::Join(4), ReshardCause::Drain(1)] {
                let rec = run
                    .reshard_log
                    .iter()
                    .find(|r| r.cause == cause)
                    .unwrap_or_else(|| panic!("no {cause:?} record on {label}"));
                assert!(rec.shards_moved > 0, "{cause:?} moved nothing on {label}");
                assert!(rec.bytes_migrated > 0, "{cause:?} was free on {label}");
            }
        }
    }
}

#[test]
fn a_huge_backoff_flushes_promptly_and_answers_every_request() {
    // Replays wait 10^15 ticks. Flush must jump the clock through the
    // scripted membership changes to the replays' tick, not step to it.
    const BASE: u64 = 1_000_000_000_000_000;
    let seed = 7;
    for exec in [Executor::seq(), Executor::cluster(4)] {
        let label = format!("{exec:?}");
        let cfg = ShardConfig {
            backoff: TickBackoff::linear(BASE, 0, seed),
            ..scripted_cfg(seed)
        };
        let db = gaussian_blobs(96, 4, 3, 1.5, 700 + seed);
        let pool = gaussian_blobs(24, 4, 3, 1.5, 800 + seed);
        let mut server = ShardedServer::start(ShardedKnnService::new(db, 3), exec, cfg);
        let responses = server.run_trace(keyed_query_trace(seed, 24, 2.0, &pool.points));
        let report = server.shutdown();
        let s = &report.stats;
        for (i, r) in responses.iter().enumerate() {
            assert!(
                matches!(r, Ok(_) | Err(ServeError::Overloaded)),
                "request {i} resolved {r:?} on {label}"
            );
        }
        assert_eq!(s.failed(), 0, "{label}");
        assert_eq!(s.completed() + s.rejected(), s.submitted(), "{label}");
        assert!(s.replayed() > 0, "kill never fired on {label}");
        assert!(report.final_tick > BASE, "replays waited out {BASE} ticks");
        // Every scripted change still ran at its own tick, in order.
        let ticks: Vec<u64> = report.reshard_log.iter().map(|r| r.tick).collect();
        assert!(ticks.windows(2).all(|w| w[0] <= w[1]), "{ticks:?}");
        for cause in [
            ReshardCause::Join(4),
            ReshardCause::Revive(2),
            ReshardCause::Drain(1),
        ] {
            let rec = report
                .reshard_log
                .iter()
                .find(|r| r.cause == cause)
                .unwrap_or_else(|| panic!("no {cause:?} record on {label}"));
            assert!(rec.tick < BASE, "{cause:?} ran at tick {}", rec.tick);
        }
    }
}

#[test]
fn shard_maps_are_pure_functions_of_membership_epoch_and_seed() {
    let seed = 7;
    let cfg = scripted_cfg(seed);
    let run = run_elastic(seed, Executor::rayon(4), cfg.clone());

    // Anyone holding (membership, epoch, seed) recomputes the exact map.
    let members: BTreeSet<usize> = run.final_members.iter().copied().collect();
    let recomputed = ShardMap::compute(
        &members,
        run.final_map.epoch(),
        cfg.num_shards,
        cfg.vnodes,
        cfg.seed,
    );
    assert_eq!(recomputed, run.final_map);
    assert_eq!(run.final_map.epoch(), run.epochs);
    assert_eq!(run.final_map.members(), &run.final_members[..]);

    // Epochs are dense and the ledger tells the whole story.
    for (i, rec) in run.reshard_log.iter().enumerate() {
        assert_eq!(rec.epoch, i as u64 + 1, "epoch gap at {i}");
    }
    // Every shard is owned by a final member.
    for shard in 0..cfg.num_shards {
        assert!(members.contains(&run.final_map.owner(shard)));
    }
}

#[test]
fn delta_migration_beats_the_full_rebuild_strawman() {
    let seed = 42;
    for exec in [Executor::seq(), Executor::cluster(4)] {
        let label = format!("{exec:?}");
        let delta = run_elastic(seed, exec.clone(), scripted_cfg(seed));
        let rebuild = run_elastic(
            seed,
            exec,
            ShardConfig {
                full_rebuild: true,
                ..scripted_cfg(seed)
            },
        );
        // The strawman must not change a single answer — only the bill.
        assert_eq!(rebuild.responses, delta.responses, "{label}");
        assert_eq!(rebuild.epochs, delta.epochs, "{label}");
        assert!(
            delta.bytes_migrated < rebuild.bytes_migrated,
            "delta {} B must beat full rebuild {} B on {label}",
            delta.bytes_migrated,
            rebuild.bytes_migrated
        );
        if matches!(label.as_str(), l if l.contains("Cluster")) {
            // The wire meter agrees with the logical one: fewer shards
            // shipped, fewer bytes on the transport.
            assert!(
                delta.wire_bytes < rebuild.wire_bytes,
                "wire {} B vs {} B on {label}",
                delta.wire_bytes,
                rebuild.wire_bytes
            );
        }
    }
}
