//! The fixed-pool server: bounded ingress → virtual-time micro-batcher →
//! worker pool → per-request responses.
//!
//! ## Determinism contract
//!
//! Time is **virtual**: the clock only moves when [`Server::advance`] is
//! called, and the batcher only runs on tick boundaries (and on
//! [`Server::flush`]). Batch boundaries — which requests share a batch,
//! at which tick each batch closes, and why — are therefore a pure
//! function of `(arrival trace, ServeConfig)`: no wall-clock, no thread
//! races. Combined with services whose per-request output is independent
//! of how a batch is decomposed (all built-ins are), every request's
//! response is bit-identical across `Seq`, `Rayon`, and `Cluster`
//! executors, with or without injected worker kills.
//!
//! ## Failure model
//!
//! Worker kills come from a [`FaultPlan`], counted in batches dispatched
//! to each logical rank: batch `b` goes to rank `b.id % workers`. The
//! count is taken as the batch is dispatched, under the batcher's lock,
//! so it depends on the trace alone. The doomed attempt still goes to the
//! shared queue and really kills whichever worker takes it; a fresh
//! worker takes its place. The batch replays [`ServeConfig::backoff`]
//! ticks after the loss through the batcher's ready list, as on the
//! sharded tier. Logical ranks only count kills: every worker takes work
//! from one queue, so a slow worker never holds back the pool.
//!
//! A batch whose service panics is answered [`ServeError::Failed`] after
//! one attempt — the [`Service`] contract makes services pure, so a retry
//! would only panic again — and its worker respawns. Each request
//! resolves **exactly once**: the response slot panics on a double fill,
//! and `completed + failed + rejected == submitted` holds at shutdown.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use peachy_cluster::fault::fail_stop;
use peachy_cluster::{Executor, FaultPlan, TickBackoff};

use crate::front::{check_batching, Backend, Batch, Batcher, Front, KillCounter};
use crate::service::Service;
use crate::shard::{ReshardRecord, ShardMap};
use crate::stats::{CloseCause, ServerStats};

/// Why a request was not (or could not be) answered with an output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Rejected at admission: the ingress queue was at capacity.
    Overloaded,
    /// The service panicked on the request's batch.
    Failed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "rejected: ingress queue at capacity"),
            ServeError::Failed => write!(f, "failed: the service panicked"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Server tuning knobs. Everything that shapes batch boundaries is in
/// here, which is why runs are reproducible from `(trace, config)`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Ingress bound: admitted-but-undrained requests beyond this are
    /// rejected with [`ServeError::Overloaded`].
    pub capacity: usize,
    /// Largest batch the batcher will close.
    pub max_batch_size: usize,
    /// Ticks the oldest pending request may wait before the batcher
    /// closes a partial batch.
    pub max_wait: u64,
    /// Worker threads executing batches (also the logical ranks that
    /// [`ServeConfig::plan`] kills are counted on).
    pub workers: usize,
    /// Deterministic virtual-tick delay before a killed batch replays.
    pub backoff: TickBackoff,
    /// Worker kills, counted in batches dispatched to each logical rank.
    /// The pool rejects edge faults (give the executor its own transport
    /// plan) and revivals (a killed worker respawns at once).
    pub plan: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            capacity: 256,
            max_batch_size: 32,
            max_wait: 4,
            workers: 2,
            backoff: TickBackoff::none(),
            plan: FaultPlan::none(),
        }
    }
}

impl ServeConfig {
    /// Check the config: a batcher shape with every bound at least 1, at
    /// least one worker, and a plan of kills alone, each of a worker in
    /// the pool (edge faults belong on the executor's plan, and a killed
    /// worker respawns at once, so revivals have no meaning).
    pub fn validate(&self) -> Result<(), String> {
        check_batching(self.capacity, self.max_batch_size, self.max_wait)?;
        if self.workers == 0 {
            return Err("need at least one worker".to_string());
        }
        if !self.plan.transport_only().is_empty() {
            return Err(
                "the pool takes no edge faults: put them on the executor's own plan".to_string(),
            );
        }
        let kills = self.plan.scheduled_kills();
        if self.plan.doomed_ranks().len() != kills.len() {
            return Err(
                "the pool respawns killed workers at once: drop the plan's revivals".to_string(),
            );
        }
        match kills.iter().find(|&&(rank, _)| rank >= self.workers) {
            Some((rank, _)) => Err(format!(
                "kill of rank {rank} outside a pool of {}",
                self.workers
            )),
            None => Ok(()),
        }
    }
}

/// One closed batch in the server's log: enough to compare batcher
/// behaviour bit-for-bit across backends and seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Dispatch order (0-based).
    pub id: u64,
    /// Virtual tick at which the batch closed.
    pub close_tick: u64,
    /// Requests in the batch.
    pub size: usize,
    /// What closed it.
    pub cause: CloseCause,
}

/// End-of-run summary returned by [`Server::shutdown`] and
/// [`ShardedServer::shutdown`](crate::ShardedServer::shutdown).
pub struct ServerReport {
    /// The service that ran.
    pub service: &'static str,
    /// Human label of the executor backend.
    pub backend: String,
    /// The full ledger (shared with any still-held stats handles).
    pub stats: Arc<ServerStats>,
    /// Every batch the server closed, in dispatch order (replays do not
    /// re-log).
    pub batch_log: Vec<BatchRecord>,
    /// Virtual clock at shutdown.
    pub final_tick: u64,
    /// One record per epoch bump, in order; empty on the pool.
    pub reshard_log: Vec<ReshardRecord>,
    /// The shard map the server ended on; empty on the pool.
    pub final_map: ShardMap,
}

impl fmt::Display for ServerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.stats;
        let (by_size, by_timeout, by_flush) = s.close_causes();
        writeln!(
            f,
            "service {} on {} — {} ticks",
            self.service, self.backend, self.final_tick
        )?;
        writeln!(
            f,
            "  requests   submitted {:>6}  completed {:>6}  rejected {:>5}  failed {:>5}",
            s.submitted(),
            s.completed(),
            s.rejected(),
            s.failed()
        )?;
        writeln!(
            f,
            "  batches    closed {:>9}  by size {:>8}  by wait {:>6}  by flush {:>4}",
            s.batches(),
            by_size,
            by_timeout,
            by_flush
        )?;
        writeln!(
            f,
            "  failures   replayed reqs {:>3}  backoff ticks {:>4}  worker respawns {:>3}",
            s.replayed(),
            s.backoff_ticks(),
            s.worker_respawns()
        )?;
        writeln!(
            f,
            "  queue      max depth {:>6}  latency ticks p50 {:?} p95 {:?} p99 {:?}",
            s.max_queue_depth(),
            s.p50(),
            s.p95(),
            s.p99()
        )?;
        write!(
            f,
            "  backend    scattered {:>6}  gathered {:>7}  collective bytes {:>8}  measured bytes {:>8}  peak resident {:>8}",
            s.comm().scattered(),
            s.comm().gathered(),
            s.comm().collective_bytes(),
            s.comm().bytes(),
            s.comm().peak_resident_bytes()
        )?;
        if self.final_map.num_shards() == 0 {
            return Ok(());
        }
        writeln!(
            f,
            "\n  shards     epochs {:>9}  moved {:>4} / rebuilt {:>4}  migrated {:>8} B",
            s.epochs(),
            s.shards_moved(),
            s.shards_rebuilt(),
            s.bytes_migrated()
        )?;
        for r in &self.reshard_log {
            writeln!(f, "  {r}")?;
        }
        write!(f, "{}", self.final_map)
    }
}

/// A blocking handle to one request's eventual answer.
///
/// The slot is filled exactly once — by whatever answers the batch. A
/// second fill panics, which is the invariant the chaos tests lean on.
pub struct Response<O> {
    pub(crate) id: u64,
    pub(crate) slot: Arc<Slot<O>>,
}

impl<O> fmt::Debug for Response<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Response")
            .field("id", &self.id)
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl<O> Response<O> {
    /// The server-assigned request id (submission order, 0-based).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Has the answer arrived yet? (Non-blocking.)
    pub fn is_ready(&self) -> bool {
        !matches!(*self.slot.state.lock().unwrap(), SlotState::Pending)
    }

    /// Block until the answer arrives and take it.
    pub fn wait(self) -> Result<O, ServeError> {
        self.slot.take()
    }
}

pub(crate) enum SlotState<O> {
    Pending,
    Ready(Result<O, ServeError>),
    Taken,
}

/// Exactly-once response cell.
pub(crate) struct Slot<O> {
    state: Mutex<SlotState<O>>,
    cv: Condvar,
}

impl<O> Slot<O> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn fill(&self, v: Result<O, ServeError>) {
        let mut st = self.state.lock().unwrap();
        match *st {
            SlotState::Pending => {
                *st = SlotState::Ready(v);
                self.cv.notify_all();
            }
            _ => panic!("response slot filled twice — exactly-once violated"),
        }
    }

    pub(crate) fn take(&self) -> Result<O, ServeError> {
        let mut st = self.state.lock().unwrap();
        loop {
            match std::mem::replace(&mut *st, SlotState::Taken) {
                SlotState::Ready(v) => return v,
                SlotState::Pending => {
                    *st = SlotState::Pending;
                    st = self.cv.wait(st).unwrap();
                }
                SlotState::Taken => panic!("response already taken"),
            }
        }
    }
}

type PoolBatch<S> = Batch<<S as Service>::Input, <S as Service>::Output>;

/// What the shared work queue carries.
enum Job<S: Service> {
    Run(PoolBatch<S>),
    /// A dispatch a [`FaultPlan`] kill dooms: the worker that takes it
    /// dies.
    Kill,
}

/// The pool back end: hands due batches to the worker threads, counting
/// each dispatch against the plan's kills.
struct Pool<S: Service> {
    /// The shared work queue; dropping it lets workers drain it and exit.
    queue: mpsc::Sender<Job<S>>,
    kills: KillCounter,
    backoff: TickBackoff,
    ranks: usize,
}

impl<S: Service> Backend for Pool<S> {
    type Input = S::Input;
    type Output = S::Output;

    fn shard_of(&self, _input: &S::Input) -> usize {
        0
    }

    fn run(&mut self, due: Vec<PoolBatch<S>>, q: &mut Batcher<S::Input, S::Output>) {
        for batch in due {
            let job = if self.kills.dispatch(batch.id as usize % self.ranks) {
                q.replay(batch, &self.backoff);
                Job::Kill
            } else {
                Job::Run(batch)
            };
            self.queue.send(job).expect("workers hold the receiver");
        }
    }
}

/// What the worker threads share.
struct Workers<S: Service> {
    service: S,
    exec: Executor,
    stats: Arc<ServerStats>,
    queue: Mutex<mpsc::Receiver<Job<S>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl<S: Service> Workers<S> {
    fn spawn(me: &Arc<Self>, worker_id: usize) {
        let worker = Arc::clone(me);
        let handle = std::thread::Builder::new()
            .name(format!("serve-worker-{worker_id}"))
            .spawn(move || worker.work(worker_id))
            .expect("spawn worker thread");
        me.handles
            .lock()
            .expect("no thread panics holding the handles")
            .push(handle);
    }

    /// Take jobs until the queue is closed and empty. A job that panics —
    /// a planned kill or a panicking service — takes its worker down, and
    /// a fresh worker takes its place.
    fn work(self: Arc<Self>, worker_id: usize) {
        loop {
            let job = self
                .queue
                .lock()
                .expect("no thread panics holding the queue")
                .recv();
            match job {
                Err(_) => return,
                Ok(Job::Run(batch)) => {
                    let outputs = catch_unwind(AssertUnwindSafe(|| {
                        self.service
                            .run_batch(&batch.inputs, &self.exec, self.stats.comm())
                    }))
                    .ok();
                    if batch.answer(outputs, &self.stats) {
                        continue;
                    }
                }
                Ok(Job::Kill) => {
                    let _ = catch_unwind(|| fail_stop());
                }
            }
            self.stats.record_respawn();
            Workers::spawn(&self, worker_id);
            return;
        }
    }
}

/// The micro-batching request server. See the module docs for the
/// determinism and failure contracts.
pub struct Server<S: Service> {
    front: Mutex<Front<Pool<S>>>,
    workers: Arc<Workers<S>>,
}

impl<S: Service> Server<S> {
    /// Spawn the worker pool and start accepting requests at tick 0.
    /// Panics if [`ServeConfig::validate`] rejects `cfg`.
    pub fn start(service: S, exec: Executor, cfg: ServeConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let q = Batcher::new(1, cfg.capacity, cfg.max_batch_size, cfg.max_wait);
        let (tx, rx) = mpsc::channel();
        let workers = Arc::new(Workers {
            service,
            exec,
            stats: Arc::clone(&q.stats),
            queue: Mutex::new(rx),
            handles: Mutex::new(Vec::new()),
        });
        for w in 0..cfg.workers {
            Workers::spawn(&workers, w);
        }
        let back = Pool {
            queue: tx,
            kills: KillCounter::new(&cfg.plan),
            backoff: cfg.backoff,
            ranks: cfg.workers,
        };
        Server {
            front: Mutex::new(Front { q, back }),
            workers,
        }
    }

    fn front(&self) -> MutexGuard<'_, Front<Pool<S>>> {
        self.front
            .lock()
            .expect("an earlier call panicked inside the batcher")
    }

    /// Offer one request. Admitted requests get a [`Response`] handle;
    /// beyond `capacity` the request is rejected immediately with
    /// [`ServeError::Overloaded`] — the queue never grows unbounded and
    /// the caller never blocks.
    pub fn submit(&self, input: S::Input) -> Result<Response<S::Output>, ServeError> {
        self.front().q.submit(input)
    }

    /// Advance the virtual clock by `ticks`, running the batcher at each
    /// boundary: drain the ingress queue, close full batches, close a
    /// partial batch once its oldest request has waited `max_wait` ticks,
    /// and dispatch every due batch.
    pub fn advance(&self, ticks: u64) {
        self.front().advance(ticks);
    }

    /// Close and dispatch everything pending, in `max_batch_size` chunks.
    /// Advances the clock only while a killed batch waits out its replay
    /// backoff. Used at end-of-trace and by shutdown.
    pub fn flush(&self) {
        self.front().flush();
    }

    /// The current virtual tick.
    pub fn now(&self) -> u64 {
        self.front().q.clock
    }

    /// The live ledger (shared; also returned by [`Server::shutdown`]).
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.workers.stats)
    }

    /// Drive a whole seeded trace: submit each `(tick, input)` at its
    /// tick (advancing the clock as needed), flush at the end, and block
    /// for every answer. The result vector aligns with the trace;
    /// rejected submissions yield `Err(Overloaded)` in place.
    ///
    /// Arrival ticks must be nondecreasing — the trace *is* the arrival
    /// order, which is exactly what makes the run reproducible.
    pub fn run_trace<I>(&self, trace: I) -> Vec<Result<S::Output, ServeError>>
    where
        I: IntoIterator<Item = (u64, S::Input)>,
    {
        self.front().run_trace(trace)
    }

    /// Flush, let the workers answer every dispatched batch and exit, and
    /// return the end-of-run report. Consumes the server; outstanding
    /// [`Response`] handles stay valid.
    pub fn shutdown(self) -> ServerReport {
        self.flush();
        let Server { front, workers } = self;
        // Dropping the back end closes the queue: workers drain it (kills
        // included) and exit. A killed worker's replacement is joined in
        // a later round.
        let Front { q, back } = front
            .into_inner()
            .expect("an earlier call panicked inside the batcher");
        drop(back);
        loop {
            let handles = std::mem::take(
                &mut *workers
                    .handles
                    .lock()
                    .expect("no thread panics holding the handles"),
            );
            if handles.is_empty() {
                break;
            }
            for h in handles {
                h.join().expect("workers catch every panic");
            }
        }
        ServerReport {
            service: workers.service.name(),
            backend: backend_label(&workers.exec),
            stats: q.stats,
            batch_log: q.batch_log,
            final_tick: q.clock,
            reshard_log: Vec::new(),
            final_map: ShardMap::default(),
        }
    }
}

/// Short human label for an executor backend (report tables, benches).
pub(crate) fn backend_label(exec: &Executor) -> String {
    match exec {
        Executor::Seq => "seq".to_string(),
        Executor::Rayon { chunks } => format!("rayon({chunks})"),
        Executor::Cluster { ranks, .. } => format!("cluster({ranks})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::EchoService;
    use crate::stats::CloseCause;

    fn cfg(capacity: usize, max_batch: usize, max_wait: u64) -> ServeConfig {
        ServeConfig {
            capacity,
            max_batch_size: max_batch,
            max_wait,
            workers: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn echo_round_trip() {
        let server = Server::start(EchoService, Executor::seq(), cfg(8, 4, 2));
        let r = server.submit(41).unwrap();
        assert!(!r.is_ready());
        server.advance(2); // wait-close at tick 2
        assert_eq!(r.wait().unwrap(), 41);
        let report = server.shutdown();
        assert_eq!(report.stats.completed(), 1);
        assert_eq!(report.batch_log.len(), 1);
        assert_eq!(report.batch_log[0].cause, CloseCause::Timeout);
    }

    #[test]
    fn batch_closes_on_size_then_wait() {
        let server = Server::start(EchoService, Executor::seq(), cfg(64, 2, 3));
        for v in 0..5 {
            server.submit(v).unwrap();
        }
        server.advance(1); // drain: close [0,1] and [2,3] by size; 1 pending
        server.advance(3); // at tick 3, request 4 (arrival 0) has waited 3 ≥ 3
        let report = server.shutdown();
        let sizes: Vec<usize> = report.batch_log.iter().map(|b| b.size).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
        assert_eq!(report.batch_log[0].cause, CloseCause::Size);
        assert_eq!(report.batch_log[1].cause, CloseCause::Size);
        assert_eq!(report.batch_log[2].cause, CloseCause::Timeout);
        assert_eq!(report.batch_log[2].close_tick, 3);
        assert_eq!(report.stats.completed(), 5);
    }

    #[test]
    fn flush_closes_full_batches_by_size() {
        let server = Server::start(EchoService, Executor::seq(), cfg(64, 2, 3));
        for v in 0..5 {
            server.submit(v).unwrap();
        }
        server.flush();
        let report = server.shutdown();
        let causes: Vec<CloseCause> = report.batch_log.iter().map(|b| b.cause).collect();
        assert_eq!(
            causes,
            vec![CloseCause::Size, CloseCause::Size, CloseCause::Flush]
        );
    }

    #[test]
    fn overload_rejects_and_accounts_every_request() {
        // Capacity 4, 11 offered in one tick: 7 must be rejected, nothing
        // lost, nothing blocked, accounting exact.
        let server = Server::start(EchoService, Executor::seq(), cfg(4, 4, 2));
        let results: Vec<_> = (0..11).map(|v| server.submit(v)).collect();
        let rejected = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(rejected, 7);
        assert!(
            results[..4].iter().all(|r| r.is_ok()),
            "first `capacity` submissions are admitted"
        );
        server.flush();
        for r in results.into_iter().flatten() {
            r.wait().unwrap();
        }
        let report = server.shutdown();
        let s = &report.stats;
        assert_eq!(s.submitted(), 11);
        assert_eq!(s.rejected(), 7);
        assert_eq!(s.completed(), 4);
        assert_eq!(s.completed() + s.rejected(), s.submitted());
        assert!(s.max_queue_depth() <= 4);
    }

    #[test]
    fn draining_admits_again() {
        let server = Server::start(EchoService, Executor::seq(), cfg(2, 2, 2));
        server.submit(0).unwrap();
        server.submit(1).unwrap();
        assert_eq!(server.submit(2).unwrap_err(), ServeError::Overloaded);
        server.advance(1); // batcher drains ingress → capacity frees up
        let r = server.submit(3).unwrap();
        server.flush();
        assert_eq!(r.wait().unwrap(), 3);
        server.shutdown();
    }

    #[test]
    fn plan_kills_are_replayed_to_success() {
        // 40 requests in batches of 4: batches 0..10, rank = id % 2. Rank 0
        // dies on its third dispatch (batch 4), rank 1 on its first
        // (batch 1): two kills, two replayed batches of 4.
        let mut c = cfg(64, 4, 2);
        c.plan = FaultPlan::none().kill(0, 2).kill(1, 0);
        let server = Server::start(EchoService, Executor::rayon(2), c);
        let out = server.run_trace((0..40u64).map(|i| (i / 8, i as u32)));
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r, Ok(i as u32), "request {i} answered exactly once");
        }
        let report = server.shutdown();
        let s = &report.stats;
        assert_eq!(s.completed(), 40);
        assert_eq!(s.failed(), 0);
        assert_eq!(s.worker_respawns(), 2);
        assert_eq!(s.replayed(), 8);
        assert_eq!(report.batch_log.len(), 10, "replays do not re-log");
    }

    #[test]
    fn a_huge_backoff_replays_without_stepping_the_clock() {
        const BASE: u64 = 1_000_000_000_000_000;
        let mut c = cfg(64, 4, 2);
        c.plan = FaultPlan::none().kill(0, 1);
        c.backoff = TickBackoff::linear(BASE, 0, 1);
        let server = Server::start(EchoService, Executor::rayon(2), c);
        let out = server.run_trace((0..16u64).map(|i| (i / 4, i as u32)));
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r, Ok(i as u32), "request {i} answered exactly once");
        }
        assert!(server.now() > BASE, "the replay waited out its backoff");
        assert_eq!(server.shutdown().stats.replayed(), 4);
    }

    #[test]
    fn pool_rejects_plan_entries_it_cannot_honour() {
        let edge = FaultPlan::new(1).all_edges(peachy_cluster::EdgeFault {
            dup_p: 0.5,
            ..peachy_cluster::EdgeFault::none()
        });
        let revival = FaultPlan::none().kill(0, 1).revive(0, 2);
        let outside = FaultPlan::none().kill(2, 0);
        for plan in [edge, revival, outside] {
            let c = ServeConfig {
                plan,
                ..cfg(8, 4, 2)
            };
            assert!(c.validate().is_err(), "{c:?}");
        }
    }

    #[test]
    fn report_renders_a_summary_table() {
        let server = Server::start(EchoService, Executor::seq(), cfg(8, 4, 2));
        let r = server.submit(1).unwrap();
        server.flush();
        r.wait().unwrap();
        let report = server.shutdown();
        let text = format!("{report}");
        assert!(text.contains("service echo on seq"));
        assert!(text.contains("submitted"));
        assert!(text.contains("latency ticks"));
        assert!(text.contains("peak resident"));
        assert!(!text.contains("shard map"), "the pool has no shard map");
    }
}
