//! Integration-scale checks for the paper's named variations — the
//! extension experiments listed in EXPERIMENTS.md, exercised across crate
//! boundaries at sizes the unit tests don't reach.

use peachy::cluster::{CommStats, Executor};
use peachy::data::digits::digit_dataset;
use peachy::data::iris::iris;
use peachy::data::selfdesc::SelfDescribing;
use peachy::data::split::train_test_split;
use peachy::data::synth::gaussian_blobs;
use peachy::ensemble::{
    ensemble_calibration, master_worker, model_calibration, train_with_history, EarlyStop,
    Ensemble, NetConfig, TrainConfig,
};
use peachy::heat::heat2d::{solve2d_forall, solve2d_serial, Heat2dProblem};
use peachy::kmeans::{elbow_sweep, silhouette};
use peachy::knn::cv::select_k;
use peachy::traffic::{self, output, OpenRoad, OpenRoadConfig, RoadConfig};

/// §5 sweep: capacity falls monotonically as p rises (randomness destroys
/// throughput), and the sweep is deterministic.
#[test]
fn traffic_sweep_capacity_ordering() {
    let ps = [0.0, 0.15, 0.3, 0.5];
    let densities: Vec<f64> = (1..=10).map(|i| i as f64 * 0.07).collect();
    let points = traffic::run_sweep(800, 5, 3, &ps, &densities, 300, 300);
    let curve = traffic::capacity_curve(&points, &ps);
    for w in curve.windows(2) {
        assert!(w[0].2 > w[1].2, "capacity must fall with p: {:?}", curve);
    }
}

/// §5 open boundaries at scale: long-run conservation and a throughput
/// ceiling below the closed-ring capacity.
#[test]
fn open_road_long_run() {
    let mut road = OpenRoad::new(&OpenRoadConfig {
        length: 1_000,
        v_max: 5,
        p: 0.13,
        alpha: 0.6,
        seed: 44,
    });
    road.run(10_000);
    assert_eq!(
        road.injected(),
        road.departed() + road.positions().len() as u64
    );
    let tp = road.throughput();
    assert!(tp > 0.2 && tp < 0.8, "throughput = {tp}");
}

/// §5 self-describing output at scale: byte round-trip then re-simulate
/// from the container's own metadata.
#[test]
fn selfdesc_records_verify_at_scale() {
    let config = RoadConfig {
        length: 2_000,
        cars: 400,
        v_max: 5,
        p: 0.18,
        seed: 45,
    };
    let ds = output::record_run(&config, 150);
    let bytes = ds.encode();
    assert!(bytes.len() > 150 * 400 * 8, "both trajectory arrays stored");
    let back = SelfDescribing::decode(&bytes).expect("decode");
    assert_eq!(output::verify(&back), Ok(150));
}

/// §7 master–worker at scale: heavy skew, many tasks, results in order.
#[test]
fn master_worker_scale_and_order() {
    let (results, executed) = master_worker(200, 6, |t| {
        // Task cost skew: every 50th task is 30× heavier.
        let spin = if t % 50 == 0 { 300_000 } else { 10_000 };
        let mut acc = t as u64;
        for i in 0..spin {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        (t, acc)
    });
    assert_eq!(results.len(), 200);
    for (i, (t, _)) in results.iter().enumerate() {
        assert_eq!(*t, i, "results must be in task order");
    }
    assert_eq!(executed.iter().sum::<usize>(), 200);
    assert_eq!(executed[0], 0, "master does not execute");
}

/// §7 calibration: the ensemble is no more confident than its own accuracy
/// warrants, relative to a single member, on an overlapping-class problem.
#[test]
fn ensemble_calibration_structure() {
    let all = gaussian_blobs(700, 6, 4, 2.2, 46);
    let train = all.select(&(0..500).collect::<Vec<_>>());
    let test = all.select(&(500..700).collect::<Vec<_>>());
    let tc = TrainConfig {
        epochs: 6,
        batch: 16,
        lr: 0.08,
        momentum: 0.9,
        seed: 47,
    };
    let ens = Ensemble::train(
        &NetConfig {
            layers: vec![6, 20, 4],
        },
        &tc,
        5,
        &train,
    );
    let ens_rep = ensemble_calibration(&ens, &test, 10);
    let one_rep = model_calibration(&ens.members()[0], &test, 10);
    assert!(ens_rep.accuracy >= one_rep.accuracy - 0.05);
    // Ensemble averaging softens confidence.
    assert!(ens_rep.mean_confidence <= one_rep.mean_confidence + 1e-9);
}

/// §7 interval evaluation on the digit problem: accuracy improves along
/// the training curve; early stopping with patience never fires while
/// still improving fast.
#[test]
fn training_curve_on_digits() {
    let all = digit_dataset(1_500, 0.05, 48);
    let tt = train_test_split(&all, 0.8, 49);
    let mut net = peachy::ensemble::DenseNet::new(&NetConfig::digits_default(32), 50);
    let tc = TrainConfig {
        epochs: 1,
        batch: 16,
        lr: 0.05,
        momentum: 0.9,
        seed: 51,
    };
    let curve = train_with_history(
        &mut net,
        &tt.train,
        &tt.test,
        &tc,
        8,
        2,
        Some(EarlyStop {
            patience: 6,
            min_delta: 0.0,
        }),
    );
    assert_eq!(curve.checkpoints.last().unwrap().epoch, 8);
    assert!(
        curve.best_accuracy() > 0.7,
        "best = {}",
        curve.best_accuracy()
    );
    let first = curve.checkpoints[0].val_accuracy;
    assert!(curve.best_accuracy() >= first);
}

/// §2 + §3 model selection on real data: CV picks a sensible k for iris,
/// and the elbow/silhouette sweep prefers K = 3 clusters on iris (the
/// botanical truth) over K = 8.
#[test]
fn model_selection_on_iris() {
    let data = iris();
    let (_, best_k) = select_k(&data, &[1, 3, 5, 9, 15], 5, 52);
    assert!((1..=15).contains(&best_k));
    let sweep = elbow_sweep(&data.points, &[2, 3, 8], 53);
    let s = |k: usize| sweep.iter().find(|p| p.k == k).unwrap().silhouette;
    assert!(s(2) > 0.5, "iris clusters cleanly: {}", s(2));
    assert!(
        s(2).max(s(3)) > s(8),
        "true structure beats over-clustering"
    );
    // And the true labels score a decent silhouette themselves.
    let truth = silhouette(&data.points, &data.labels, 3);
    assert!(truth > 0.4, "label silhouette = {truth}");
}

/// E15: one k-means, three executor backends — identical answers, and the
/// comm-volume counters rank the backends exactly as DESIGN.md says.
#[test]
fn e15_comm_volume_counters() {
    let data = gaussian_blobs(2_000, 4, 5, 1.0, 7);
    let init = peachy::kmeans::kmeans_plus_plus(&data.points, 5, 11);
    let config = peachy::kmeans::KMeansConfig {
        max_iters: 8,
        min_changes: 0,
        min_shift: 0.0,
    };
    let mut runs = Vec::new();
    for exec in [Executor::seq(), Executor::rayon(64), Executor::cluster(4)] {
        let stats = CommStats::new();
        let result =
            peachy::kmeans::fit_with(&data.points, &config, init.clone(), &exec, Some(&stats));
        runs.push((exec, result, stats));
    }
    // Identical assignments on every backend — the decomposition never
    // leaks into the answer.
    for (exec, result, _) in &runs[1..] {
        assert_eq!(
            result.assignments, runs[0].1.assignments,
            "{exec:?} diverged from Seq"
        );
    }
    let (_, _, seq) = &runs[0];
    let (_, _, rayon) = &runs[1];
    let (_, _, cluster) = &runs[2];
    // Seq moves nothing; Rayon scatters slices but no collective bytes;
    // Cluster pays for every byte through the collectives.
    assert_eq!(seq.scattered(), 0);
    assert_eq!(seq.collective_bytes(), 0);
    assert!(rayon.scattered() > 0);
    assert_eq!(rayon.collective_bytes(), 0);
    assert!(cluster.scattered() > 0);
    assert!(cluster.collective_bytes() > 0);
    // The cluster's floor: the one-time n*d*8 scatter alone.
    assert!(cluster.collective_bytes() >= (2_000 * 4 * 8) as u64);
}

/// E16: the serving layer at integration scale — one seeded open-loop
/// k-NN trace on all three backends, with and without fault-plan worker
/// kills. Responses, batch boundaries, and the deterministic ledger are
/// bit-identical everywhere; admission control rejects the overload
/// instead of queueing it; latency percentiles are bounded by the
/// batching window.
#[test]
fn e16_serving_layer_end_to_end() {
    use peachy::cluster::FaultPlan;
    use peachy::serve::{query_trace, KnnService, ServeConfig, Server};
    let db = gaussian_blobs(300, 6, 4, 2.0, 16);
    let pool = gaussian_blobs(80, 6, 4, 2.0, 17);
    let cfg = ServeConfig {
        capacity: 4,
        max_batch_size: 8,
        max_wait: 3,
        workers: 3,
        ..ServeConfig::default()
    };
    let run = |exec: Executor, plan: FaultPlan| {
        let server = Server::start(
            KnnService::new(db.clone(), 5),
            exec,
            ServeConfig {
                plan,
                ..cfg.clone()
            },
        );
        let out = server.run_trace(query_trace(16, 50, 5.0, &pool.points));
        (out, server.shutdown())
    };
    let (seq_out, seq_rep) = run(Executor::seq(), FaultPlan::none());
    // Every worker rank dies once, on its second dispatched batch.
    let kills = FaultPlan::new(16).kill(0, 1).kill(1, 1).kill(2, 1);
    for exec in [Executor::rayon(4), Executor::cluster(3)] {
        for plan in [FaultPlan::none(), kills.clone()] {
            let chaotic = !plan.is_empty();
            let (out, rep) = run(exec.clone(), plan);
            assert_eq!(out, seq_out, "{exec:?} chaos={chaotic} diverged");
            assert_eq!(rep.batch_log, seq_rep.batch_log);
            assert_eq!(rep.stats.latency_counts(), seq_rep.stats.latency_counts());
            assert_eq!(rep.stats.worker_respawns(), if chaotic { 3 } else { 0 });
            assert_eq!(
                rep.stats.completed() + rep.stats.rejected(),
                rep.stats.submitted(),
                "accounting leak on {exec:?} chaos={chaotic}"
            );
        }
    }
    let s = &seq_rep.stats;
    // Offered 5/tick against capacity 4: the controller must shed load…
    assert!(s.rejected() > 0, "overload trace must reject");
    // Undispatched work (bounded ingress + the partial batch the batcher
    // is still coalescing) never exceeds capacity + max_batch_size.
    assert!(s.max_queue_depth() <= 4 + 8, "queue bounded by capacity");
    // …and what it admits completes within the batching window's latency
    // envelope (close at the latest max_wait ticks after arrival).
    let (p50, p99) = (s.p50().unwrap(), s.p99().unwrap());
    assert!(p50 <= p99 && p99 <= 3, "latency ticks p50={p50} p99={p99}");
}

/// E19: elastic sharded serving at integration scale — one scripted
/// join/kill/revive/drain story over a keyed k-NN trace, delta migration
/// vs the full-rebuild strawman, on the Seq and Cluster backends.
/// Elasticity never changes an answer; the delta path strictly beats the
/// strawman's migration bill; the kill rebuilds rather than moves.
#[test]
fn e19_elastic_resharding_end_to_end() {
    use peachy::cluster::{FaultPlan, TickBackoff};
    use peachy::serve::{
        keyed_query_trace, ReshardCause, ScaleEvent, ShardConfig, ShardedKnnService, ShardedServer,
    };
    let db = gaussian_blobs(300, 6, 4, 2.0, 19);
    let pool = gaussian_blobs(80, 6, 4, 2.0, 20);
    let trace = keyed_query_trace(19, 30, 3.0, &pool.points);
    let cfg = ShardConfig {
        num_shards: 16,
        initial_ranks: 4,
        max_batch_size: 4,
        max_wait: 2,
        backoff: TickBackoff::linear(1, 3, 19),
        plan: FaultPlan::new(19).kill(2, 2).revive(2, 3),
        scaling: vec![(8, ScaleEvent::Add(4)), (22, ScaleEvent::Drain(1))],
        ..ShardConfig::default()
    };
    let run = |exec: Executor, full_rebuild: bool| {
        let mut server = ShardedServer::start(
            ShardedKnnService::new(db.clone(), 5),
            exec,
            ShardConfig {
                full_rebuild,
                ..cfg.clone()
            },
        );
        let out = server.run_trace(trace.clone());
        (out, server.shutdown())
    };
    let (quiet_out, _) = {
        let mut server = ShardedServer::start(
            ShardedKnnService::new(db.clone(), 5),
            Executor::seq(),
            ShardConfig {
                plan: FaultPlan::none(),
                scaling: Vec::new(),
                ..cfg.clone()
            },
        );
        (server.run_trace(trace.clone()), server.shutdown())
    };
    for exec in [Executor::seq(), Executor::cluster(4)] {
        let (delta_out, delta_rep) = run(exec.clone(), false);
        let (full_out, full_rep) = run(exec.clone(), true);
        assert_eq!(delta_out, quiet_out, "{exec:?}: elasticity changed answers");
        assert_eq!(full_out, quiet_out, "{exec:?}: strawman changed answers");
        assert_eq!(delta_rep.reshard_log.len(), full_rep.reshard_log.len());
        assert!(
            delta_rep.stats.bytes_migrated() < full_rep.stats.bytes_migrated(),
            "{exec:?}: delta {} B vs full rebuild {} B",
            delta_rep.stats.bytes_migrated(),
            full_rep.stats.bytes_migrated()
        );
        assert!(delta_rep.stats.replayed() > 0, "{exec:?}: kill never fired");
        assert_eq!(delta_rep.stats.failed(), 0);
        let kill = delta_rep
            .reshard_log
            .iter()
            .find(|r| r.cause == ReshardCause::Kill(2))
            .expect("kill record");
        assert_eq!((kill.shards_moved, kill.bytes_migrated), (0, 0));
        assert!(kill.shards_rebuilt > 0);
    }
}

/// §6 2-D extension: forall equals serial at integration scale and decays
/// towards equilibrium.
#[test]
fn heat2d_scale() {
    let p = Heat2dProblem {
        w: 257,
        h: 129,
        alpha: 0.25,
        nt: 150,
        mode: (2, 1),
    };
    let serial = solve2d_serial(&p);
    assert_eq!(solve2d_forall(&p, 8), serial);
    let max_err = serial
        .iter()
        .zip(&p.exact())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err < 1e-12, "max err = {max_err:.2e}");
}
