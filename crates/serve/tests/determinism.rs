//! Batcher determinism across executor backends: the serving layer's
//! bit-exactness contract, as a fixed seed × config grid.
//!
//! For a fixed seeded arrival trace and `ServeConfig`, the virtual-time
//! batcher must produce **identical batch boundaries** (ids, close ticks,
//! sizes, causes) and **identical responses** on `Seq`, `Rayon`, and
//! `Cluster` executors — batching is a pure function of `(trace, config)`
//! and services are decomposition-independent. The grid replays each
//! trace through all three backends and diffs everything observable:
//! responses, the batch log, and the deterministic half of the ledger.

use peachy_cluster::Executor;
use peachy_data::synth::gaussian_blobs;
use peachy_serve::{
    query_trace, BatchRecord, KmeansAssignService, KnnService, ServeConfig, ServeError, Server,
    ServerReport,
};

fn run_knn(
    seed: u64,
    rate: f64,
    cfg: &ServeConfig,
    exec: Executor,
) -> (Vec<Result<u32, ServeError>>, ServerReport) {
    let db = gaussian_blobs(150, 4, 3, 1.5, 100 + seed);
    let pool = gaussian_blobs(40, 4, 3, 1.5, 200 + seed);
    let server = Server::start(KnnService::new(db, 3), exec, cfg.clone());
    let trace = query_trace(seed, 40, rate, &pool.points);
    let out = server.run_trace(trace);
    (out, server.shutdown())
}

fn run_kmeans(
    seed: u64,
    cfg: &ServeConfig,
    exec: Executor,
) -> (Vec<Result<u32, ServeError>>, ServerReport) {
    let data = gaussian_blobs(120, 3, 4, 1.0, 300 + seed);
    let centroids = data.points.select_rows(&[0, 30, 60, 90]);
    let server = Server::start(KmeansAssignService::new(centroids), exec, cfg.clone());
    let trace = query_trace(seed, 40, 1.3, &data.points);
    let out = server.run_trace(trace);
    (out, server.shutdown())
}

/// The deterministic slice of the ledger (comm counters are backend-
/// dependent by design and excluded).
fn ledger_fingerprint(r: &ServerReport) -> (u64, u64, u64, u64, u64, Vec<u64>, Vec<u64>) {
    let s = &r.stats;
    (
        s.submitted(),
        s.rejected(),
        s.completed(),
        s.failed(),
        s.batches(),
        s.batch_size_counts(),
        s.latency_counts(),
    )
}

fn assert_identical_across_backends<F>(run: F)
where
    F: Fn(Executor) -> (Vec<Result<u32, ServeError>>, ServerReport),
{
    let (seq_out, seq_rep) = run(Executor::seq());
    for exec in [Executor::rayon(4), Executor::cluster(3)] {
        let label = format!("{exec:?}");
        let (out, rep) = run(exec);
        assert_eq!(out, seq_out, "responses differ on {label}");
        let seq_log: &Vec<BatchRecord> = &seq_rep.batch_log;
        assert_eq!(
            &rep.batch_log, seq_log,
            "batch boundaries differ on {label}"
        );
        assert_eq!(
            ledger_fingerprint(&rep),
            ledger_fingerprint(&seq_rep),
            "ledger differs on {label}"
        );
    }
    // The trace actually exercised the batcher.
    assert!(seq_rep.stats.batches() > 1, "degenerate trace");
    assert!(seq_rep.stats.completed() > 0);
}

#[test]
fn knn_traces_replay_identically_on_all_backends() {
    for seed in [1, 2, 3] {
        for (max_batch, max_wait) in [(4, 2), (8, 5), (1, 1)] {
            let cfg = ServeConfig {
                capacity: 64,
                max_batch_size: max_batch,
                max_wait,
                workers: 3,
                ..ServeConfig::default()
            };
            assert_identical_across_backends(|exec| run_knn(seed, 1.3, &cfg, exec));
        }
    }
}

#[test]
fn kmeans_traces_replay_identically_on_all_backends() {
    for seed in [1, 2, 3] {
        let cfg = ServeConfig {
            capacity: 64,
            max_batch_size: 6,
            max_wait: 3,
            workers: 2,
            ..ServeConfig::default()
        };
        assert_identical_across_backends(|exec| run_kmeans(seed, &cfg, exec));
    }
}

#[test]
fn tight_capacity_rejects_identically_on_all_backends() {
    // Overload is part of the contract: the *same* requests must be
    // rejected on every backend, because admission happens in virtual
    // time, not worker time.
    for seed in [1, 2, 3] {
        let cfg = ServeConfig {
            capacity: 3,
            max_batch_size: 4,
            max_wait: 2,
            workers: 2,
            ..ServeConfig::default()
        };
        let (out, rep) = run_knn(seed, 4.0, &cfg, Executor::seq());
        assert!(
            rep.stats.rejected() > 0,
            "seed {seed}: overload trace must reject"
        );
        assert_eq!(
            rep.stats.completed() + rep.stats.rejected(),
            rep.stats.submitted()
        );
        assert_identical_across_backends(|exec| run_knn(seed, 4.0, &cfg, exec));
        let rejected_at: Vec<usize> = out
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == Err(ServeError::Overloaded))
            .map(|(i, _)| i)
            .collect();
        assert!(!rejected_at.is_empty());
    }
}

#[test]
fn repeat_runs_are_bit_identical() {
    let cfg = ServeConfig {
        capacity: 32,
        max_batch_size: 5,
        max_wait: 3,
        ..ServeConfig::default()
    };
    let (a_out, a_rep) = run_kmeans(7, &cfg, Executor::rayon(4));
    let (b_out, b_rep) = run_kmeans(7, &cfg, Executor::rayon(4));
    assert_eq!(a_out, b_out);
    assert_eq!(a_rep.batch_log, b_rep.batch_log);
    assert_eq!(ledger_fingerprint(&a_rep), ledger_fingerprint(&b_rep));
}
