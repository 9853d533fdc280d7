//! Serving k-NN classifications through the micro-batching request server.
//!
//! An open-loop arrival process (seeded, so every run offers the *same*
//! load) pushes query rows at a [`KnnService`]; the server coalesces them
//! into batches in virtual time, executes each batch on an
//! [`Executor`](peachy::cluster::Executor) backend, and keeps a ledger of
//! queue depth, batch sizes, and latency percentiles in virtual ticks.
//!
//! The run sweeps offered load across all three backends and prints each
//! [`ServerReport`](peachy::serve::ServerReport) summary table. Two things
//! to notice in the output:
//!
//! * every backend answers identically and logs identical batch
//!   boundaries and latency histograms — batching happens in virtual
//!   time, so the executor only changes *how* a batch is computed;
//! * past the capacity knee the admission controller starts rejecting
//!   (`rejected` > 0) instead of letting the queue grow without bound,
//!   and p99 latency saturates near `max_wait`.
//!
//! ```sh
//! cargo run --release --example serve_knn
//! ```
//!
//! With `--elastic`, the example instead drives the **sharded elastic
//! tier**: a consistent-hash shard map over an elastic membership, a
//! scripted join, a mid-trace rank kill (with replay of the lost
//! batches), a revival, and a graceful drain. It prints the shard map
//! before and after the scripted kill plus the per-epoch reshard ledger
//! — and the answers still match a fault-free run, which is the point.
//!
//! ```sh
//! cargo run --release --example serve_knn -- --elastic
//! ```

use peachy::cluster::{EdgeFault, Executor, FaultPlan, TickBackoff};
use peachy::data::synth::gaussian_blobs;
use peachy::serve::{
    keyed_query_trace, query_trace, KnnService, ScaleEvent, ServeConfig, Server, ShardConfig,
    ShardedKnnService, ShardedServer,
};

fn main() {
    if std::env::args().any(|a| a == "--elastic") {
        elastic();
    } else {
        fixed_pool();
    }
}

fn fixed_pool() {
    let seed = 42;
    let db = gaussian_blobs(400, 8, 4, 2.0, seed);
    let pool = gaussian_blobs(100, 8, 4, 2.0, seed + 1);
    let ticks = 60;

    println!("=== k-NN serving: seeded open-loop traffic, virtual-time batching ===");
    for rate in [1.0, 3.0, 8.0] {
        println!("\n--- offered load {rate} req/tick over {ticks} ticks ---");
        for exec in [Executor::seq(), Executor::rayon(4), Executor::cluster(4)] {
            let cfg = ServeConfig {
                capacity: 24,
                max_batch_size: 8,
                max_wait: 3,
                workers: 2,
                ..ServeConfig::default()
            };
            let server = Server::start(KnnService::new(db.clone(), 5), exec, cfg);
            let trace = query_trace(seed, ticks, rate, &pool.points);
            let responses = server.run_trace(trace);
            let ok = responses.iter().filter(|r| r.is_ok()).count();
            let report = server.shutdown();
            println!("{report}");
            println!("  answered   {ok} of {} offered\n", responses.len());
        }
    }
    println!("(identical ledgers across backends at each load are the point)");
}

fn elastic() {
    let seed = 42;
    let db = gaussian_blobs(400, 8, 4, 2.0, seed);
    let pool = gaussian_blobs(100, 8, 4, 2.0, seed + 1);
    let cfg = ShardConfig {
        num_shards: 16,
        initial_ranks: 4,
        max_batch_size: 4,
        max_wait: 2,
        backoff: TickBackoff::linear(1, 3, seed),
        // Rank 2 dies after its third dispatched batch and revives three
        // ticks later; benign transport chaos rides every cluster round.
        plan: FaultPlan::new(seed)
            .all_edges(EdgeFault {
                dup_p: 0.15,
                reorder_p: 0.15,
                ..EdgeFault::none()
            })
            .kill(2, 2)
            .revive(2, 3),
        scaling: vec![(6, ScaleEvent::Add(4)), (18, ScaleEvent::Drain(1))],
        ..ShardConfig::default()
    };
    let trace = keyed_query_trace(seed, 24, 2.0, &pool.points);

    println!("=== elastic sharded k-NN: join, kill, revive, drain — no answer changes ===");
    let mut quiet_answers = None;
    for exec in [Executor::seq(), Executor::cluster(4)] {
        println!("\n--- backend {exec:?} ---");
        let mut server =
            ShardedServer::start(ShardedKnnService::new(db.clone(), 5), exec, cfg.clone());
        println!("{}", server.shard_map());

        let responses = server.run_trace(trace.clone());
        println!("shard map after the scripted kill/revive/drain story:");
        let report = server.shutdown();
        println!("{report}");

        let answers: Vec<_> = responses.into_iter().map(|r| r.ok()).collect();
        match &quiet_answers {
            None => quiet_answers = Some(answers),
            Some(reference) => {
                assert_eq!(&answers, reference, "backends must answer identically");
                println!(
                    "answers identical to the Seq run ({} requests)",
                    answers.len()
                );
            }
        }
    }
    println!("\n(the reshard ledger moved only the shard delta; the kill rebuilt, not moved)");
}
