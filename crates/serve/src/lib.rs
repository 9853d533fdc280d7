//! # peachy-serve
//!
//! The serving front-end over the workspace's compute substrate: the layer
//! that turns *per-request* work into *batched, scheduled, observable*
//! execution, the way an inference server fronts a model.
//!
//! The paper's assignments all end at "run the job once"; the ROADMAP's
//! north star is a system that serves heavy traffic. This crate closes the
//! gap with four pieces, each deliberately deterministic so every test can
//! pin exact behaviour:
//!
//! * **Admission control** — a bounded ingress queue. [`Server::submit`]
//!   beyond `capacity` rejects with [`ServeError::Overloaded`] instead of
//!   growing a queue without bound: backpressure is a *response*, not an
//!   OOM.
//! * **Micro-batching in virtual time** — the batcher coalesces admitted
//!   requests into batches of at most `max_batch_size`, closing early once
//!   the oldest request has waited `max_wait` **ticks**. The clock is
//!   virtual ([`Server::advance`]), so batch boundaries are a pure
//!   function of the arrival trace and the config — identical on every
//!   machine and backend.
//! * **Execution on the executor seam** — closed batches run on a worker
//!   pool; each worker hands the batch to its [`Service`] over a
//!   [`peachy_cluster::Executor`] (`Seq`/`Rayon`/`Cluster`), so one server
//!   definition serves from a plain loop, the rayon pool, or in-process
//!   ranks — with bit-identical responses. Worker kills come from a
//!   [`peachy_cluster::FaultPlan`], counted in batches dispatched to each
//!   logical rank; the killed worker respawns and its batch replays after
//!   a [`peachy_cluster::TickBackoff`]. Every request is answered exactly
//!   once.
//! * **Latency accounting** — [`ServerStats`] extends
//!   [`peachy_cluster::CommStats`] with queue-depth, batch-size and
//!   latency histograms (p50/p95/p99 in virtual ticks) and the
//!   submitted/rejected/completed/failed/replayed ledger, one per server.
//!
//! Three built-in services prove the seam is generic: k-NN classification
//! ([`KnnService`]), nearest-centroid assignment ([`KmeansAssignService`]),
//! and neural-net inference ([`EnsembleService`]). Each writes its model
//! once, as [`Service::answer`]; the provided [`Service::run_batch`] is the
//! one split of a batch over the executor.
//!
//! The [`shard`] module adds the **elastic tier**: a [`ShardedServer`]
//! drives the same front end (admission, batcher, replay, `run_trace`,
//! [`ServerReport`]) but routes requests to consistent-hash shards
//! ([`ShardMap`], epoch-numbered and a pure function of membership ×
//! seed), survives scripted rank deaths from the same
//! [`peachy_cluster::FaultPlan`] by migrating exactly the moved shards and
//! replaying in-flight requests, and scales live via scripted
//! [`ScaleEvent`]s — all in virtual time, so a whole
//! join/kill/drain trace is bit-identical across backends and chaos seeds.
//! A shard's state is a pool service: [`ShardedKnnService`] builds a
//! [`KnnService`] per database block, and [`Replicated`] copies one
//! row-input service into every shard.
//!
//! ```
//! use peachy_cluster::{Executor, FaultPlan};
//! use peachy_serve::{EchoService, ServeConfig, Server};
//!
//! // Worker rank 0 dies on its first batch; the batch replays and answers.
//! let cfg = ServeConfig {
//!     plan: FaultPlan::none().kill(0, 0),
//!     ..ServeConfig::default()
//! };
//! let server = Server::start(EchoService, Executor::seq(), cfg);
//! let r = server.submit(7).unwrap();
//! server.flush();
//! assert_eq!(r.wait().unwrap(), 7);
//! let report = server.shutdown();
//! assert_eq!((report.stats.worker_respawns(), report.stats.replayed()), (1, 1));
//! ```

mod front;
pub mod server;
pub mod service;
pub mod shard;
pub mod stats;
pub mod trace;

pub use server::{BatchRecord, Response, ServeConfig, ServeError, Server, ServerReport};
pub use service::{
    row_route_key, EchoService, EnsembleService, KmeansAssignService, KnnService, Replicated,
    Service, ShardedEnsembleService, ShardedKmeansAssignService, ShardedKnnService,
};
pub use shard::{
    ReshardCause, ReshardRecord, ScaleEvent, ShardConfig, ShardMap, ShardedServer, ShardedService,
};
pub use stats::{CloseCause, ServerStats};
pub use trace::{keyed_query_trace, open_loop_arrivals, query_trace};
