//! Elastic sharded serving: consistent-hash shard maps, live resharding,
//! and rank-death failover with deterministic state migration.
//!
//! ## The shape
//!
//! The fixed-pool [`Server`](crate::Server) parallelizes *within* a
//! batch; this tier partitions the service's **state** into a fixed
//! number of shards and spreads the shards over an *elastic* membership
//! of ranks. Three maps compose:
//!
//! 1. request → shard: `owner_of_key(route_key, num_shards, seed)` —
//!    fixed for the server's lifetime, because `num_shards` never
//!    changes. Elasticity moves shards, never requests.
//! 2. shard → rank: an epoch-numbered [`ShardMap`] computed on a
//!    [`HashRing`] over the live membership — a **pure function of
//!    (membership set, epoch, seed)**, recomputable by anyone from those
//!    three values alone.
//! 3. shard → state: [`ShardedService::build_shard`] is deterministic,
//!    so a shard rebuilt after its owner died is bit-identical to the
//!    state that was lost.
//!
//! Together these give the headline robustness property: a scripted
//! join/leave/kill trace produces **bit-identical responses** across
//! `Seq`, `Rayon`, and `Cluster` executors and across chaos seeds
//! (pinned by `serve/tests/reshard_laws.rs`).
//!
//! ## Time, rounds, and failure
//!
//! Like the fixed-pool server, time is virtual: the batcher closes
//! batches on tick boundaries as a pure function of `(trace, config)`.
//! Each boundary then executes at most one **round** — all closed
//! batches whose retry backoff has elapsed — on the executor seam. On
//! the cluster backend a round is a real SPMD step over the live
//! membership: each rank computes its shards' batches, then exchanges
//! completion tokens with every peer, detecting deaths via death notices
//! and [`recv_deadline`](peachy_cluster::Comm::recv_deadline) instead of
//! blocking forever.
//!
//! A scheduled [`FaultPlan::kill`] is counted in *batches dispatched* to
//! the doomed rank — the serving tier's transport events — so the death
//! round is identical on every backend. On the cluster the kill is real:
//! the rank's `KilledByPlan` panic unwinds before its completion tokens
//! leave, survivors observe the death, and the supervisor returns its
//! slot as `Err(Killed)`. The dead rank's round batches are lost, then
//! **replayed** under the bumped epoch after a deterministic
//! [`TickBackoff`] delay — so every accepted request still resolves
//! `Ok`, and resolves *identically*, because shard routing never moved
//! and shard state is rebuild-identical.
//!
//! A service fault is not a rank death. When `run_shard` panics, or
//! does not answer each input once, its batch is answered
//! [`ServeError::Failed`] once, on every backend, and nothing else
//! follows: no replay, no reshard, no epoch bump. This is the pool's
//! rule, and for the same reason — services are pure, so a retry would
//! only fail again. The panic is caught per batch inside the round, so
//! on the cluster the rank lives on and sends its completion tokens.
//!
//! ## Migration cost
//!
//! A reshard moves only the shard delta the ring dictates: on a join,
//! ~`shards/n` shards transfer to the new rank; on a drain, the drained
//! rank's shards transfer out; on a kill the dead rank's shards are
//! **rebuilt** (nothing to transfer) and — the ring's law — no shard
//! moves between survivors. Transfers are accounted twice, on purpose:
//! logical [`ByteSized`] bytes in [`ServerStats::bytes_migrated`]
//! (backend-independent, so ledgers stay comparable), and measured
//! transport bytes in the comm block when the cluster backend actually
//! ships `Shared` (Arc) payloads between ranks. The
//! [`ShardConfig::full_rebuild`] strawman rebroadcasts *every* shard on
//! every epoch bump — the E19 ablation baseline that the delta path must
//! beat.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use peachy_cluster::dist::owner_of_key;
use peachy_cluster::{
    ByteSized, Cluster, Comm, Executor, FaultPlan, HashRing, RankErrorKind, RecvError, Shared,
    TickBackoff,
};
use peachy_prng::{mix_seed, SplitMix64};

use crate::front::{check_batching, Backend, Batch, Batcher, Front, KillCounter};
use crate::server::{backend_label, Response, ServeError, ServerReport};
use crate::stats::ServerStats;

/// Tag for the per-round completion-token exchange.
const TOKEN_TAG: u32 = 0xE1A5;
/// How long a survivor waits for a peer's completion token before
/// assuming it was lost to injected delay (deaths are detected through
/// death notices, which are not subject to edge chaos).
const TOKEN_DEADLINE: Duration = Duration::from_secs(5);

/// A service whose state splits into `num_shards` independent shards.
///
/// The two purity requirements that make elasticity invisible to
/// clients:
///
/// * `build_shard(shard, num_shards)` is deterministic — rebuilding a
///   shard after its owner died yields bit-identical state;
/// * `run_shard` answers each input independently of how inputs were
///   batched — so replay after a failure cannot change an answer.
pub trait ShardedService: Send + Sync + 'static {
    /// One request's payload.
    type Input: Send + Sync + 'static;
    /// One request's answer.
    type Output: Send + ByteSized + 'static;
    /// One shard's warm state. `ByteSized` is what prices migration.
    type State: Send + Sync + ByteSized + 'static;

    /// Short name for reports and logs.
    fn name(&self) -> &'static str;

    /// The routing key deciding which shard serves `input`. Must depend
    /// only on the input value.
    fn route_key(&self, input: &Self::Input) -> u64;

    /// Deterministically build shard `shard` of `num_shards` from the
    /// service definition.
    fn build_shard(&self, shard: usize, num_shards: usize) -> Self::State;

    /// Answer every input (all routed to `shard`), in order.
    fn run_shard(
        &self,
        shard: usize,
        state: &Self::State,
        inputs: &[Self::Input],
    ) -> Vec<Self::Output>;
}

/// An epoch-numbered assignment of shards to ranks.
///
/// **Purity contract:** `ShardMap::compute(members, epoch, …)` is the
/// *only* constructor, and the assignment half depends on nothing but
/// `(members, num_shards, vnodes, seed)` — the epoch is version
/// metadata. Deliberately so: if the epoch participated in the hash,
/// every bump would reshuffle every shard, forfeiting the ring's
/// minimal-movement law. Anyone holding `(membership, epoch, seed)` can
/// recompute the exact map a server is using — the reproducibility half
/// of the acceptance contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardMap {
    epoch: u64,
    seed: u64,
    vnodes: usize,
    members: Vec<usize>,
    /// `owners[shard]` = rank serving that shard.
    owners: Vec<usize>,
}

impl ShardMap {
    /// Compute the map for `members` at `epoch`.
    pub fn compute(
        members: &BTreeSet<usize>,
        epoch: u64,
        num_shards: usize,
        vnodes: usize,
        seed: u64,
    ) -> Self {
        assert!(!members.is_empty(), "a shard map needs at least one rank");
        assert!(num_shards > 0, "need at least one shard");
        let ring = HashRing::new(members.iter().copied(), vnodes, seed);
        let owners = (0..num_shards)
            .map(|s| ring.owner_of_key(&(s as u64)))
            .collect();
        Self {
            epoch,
            seed,
            vnodes,
            members: members.iter().copied().collect(),
            owners,
        }
    }

    /// The map's epoch (bumped once per membership change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of shards (fixed for a server's lifetime).
    pub fn num_shards(&self) -> usize {
        self.owners.len()
    }

    /// Live members, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The rank serving `shard`.
    pub fn owner(&self, shard: usize) -> usize {
        self.owners[shard]
    }

    /// Shards served by `member`, ascending.
    pub fn shards_on(&self, member: usize) -> Vec<usize> {
        (0..self.owners.len())
            .filter(|&s| self.owners[s] == member)
            .collect()
    }

    /// Shards whose owner differs between `self` and `newer`, ascending.
    /// Both maps must shard the same space.
    pub fn moved_shards(&self, newer: &ShardMap) -> Vec<usize> {
        assert_eq!(self.num_shards(), newer.num_shards(), "shard spaces differ");
        (0..self.owners.len())
            .filter(|&s| self.owners[s] != newer.owners[s])
            .collect()
    }
}

impl fmt::Display for ShardMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "shard map epoch {} ({} shards over {} ranks, seed {:#x})",
            self.epoch,
            self.num_shards(),
            self.members.len(),
            self.seed
        )?;
        for &m in &self.members {
            let shards = self.shards_on(m);
            writeln!(f, "  rank {m:>3} ← {:>2} shards {shards:?}", shards.len())?;
        }
        Ok(())
    }
}

/// Why an epoch was bumped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshardCause {
    /// A scripted rank joined ([`ScaleEvent::Add`]).
    Join(usize),
    /// A scripted rank drained gracefully ([`ScaleEvent::Drain`]).
    Drain(usize),
    /// A rank died to a [`FaultPlan::kill`] mid-round.
    Kill(usize),
    /// A killed rank rejoined per [`FaultPlan::revive`].
    Revive(usize),
}

/// One entry of the per-epoch reshard ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshardRecord {
    /// The epoch this reshard produced.
    pub epoch: u64,
    /// Virtual tick at which the membership changed.
    pub tick: u64,
    /// What changed.
    pub cause: ReshardCause,
    /// Shards whose warm state transferred between live ranks.
    pub shards_moved: usize,
    /// Shards rebuilt from the service definition (owner died).
    pub shards_rebuilt: usize,
    /// Logical [`ByteSized`] bytes of transferred state.
    pub bytes_migrated: u64,
    /// Requests replayed because their batch was on the dead rank.
    pub requests_replayed: u64,
}

impl fmt::Display for ReshardRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch {:>3} @tick {:>4} {:?}: {} moved / {} rebuilt, {} B migrated, {} replayed",
            self.epoch,
            self.tick,
            self.cause,
            self.shards_moved,
            self.shards_rebuilt,
            self.bytes_migrated,
            self.requests_replayed
        )
    }
}

/// A scripted membership change, scheduled in [`ShardConfig::scaling`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleEvent {
    /// Rank joins; the ring hands it ~`shards/n` shards, transferred
    /// from their previous owners.
    Add(usize),
    /// Rank drains gracefully; its shards transfer to the survivors.
    Drain(usize),
}

impl std::str::FromStr for ScaleEvent {
    type Err = String;

    /// `"add 4"` / `"drain 1"` — the textual form scenario specs use.
    fn from_str(s: &str) -> Result<Self, String> {
        let mut words = s.split_whitespace();
        let (verb, rank) = (words.next(), words.next());
        if words.next().is_some() {
            return Err(format!("expected `add N` or `drain N`, got `{s}`"));
        }
        let rank: usize = rank
            .ok_or_else(|| format!("missing rank in `{s}`"))?
            .parse()
            .map_err(|_| format!("bad rank in `{s}`"))?;
        match verb {
            Some("add") => Ok(ScaleEvent::Add(rank)),
            Some("drain") => Ok(ScaleEvent::Drain(rank)),
            _ => Err(format!("expected `add N` or `drain N`, got `{s}`")),
        }
    }
}

/// Tuning and scripting for a [`ShardedServer`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Shards to split the service state into. Fixed for the server's
    /// lifetime — this is what keeps request routing invariant under
    /// elasticity.
    pub num_shards: usize,
    /// Virtual nodes per rank on the [`HashRing`].
    pub vnodes: usize,
    /// Seed for both request → shard and shard → rank placement.
    pub seed: u64,
    /// Ranks at epoch 0 (members `0..initial_ranks`).
    pub initial_ranks: usize,
    /// Ingress bound, as in [`crate::ServeConfig::capacity`].
    pub capacity: usize,
    /// Largest batch the per-shard batcher will close.
    pub max_batch_size: usize,
    /// Ticks the oldest pending request may wait before a partial close.
    pub max_wait: u64,
    /// Deterministic virtual-tick delay before a lost batch replays.
    pub backoff: TickBackoff,
    /// Chaos script: edge faults ride every cluster round; kills are
    /// translated into serve-level events (batches dispatched to the
    /// doomed rank) and fire **once** — a revived rank lives on;
    /// revivals script the rank's rejoin.
    pub plan: FaultPlan,
    /// Scripted membership changes, `(tick, event)`, applied at that
    /// tick's boundary in list order. Must be sorted by tick.
    pub scaling: Vec<(u64, ScaleEvent)>,
    /// Strawman mode for the E19 ablation: rebroadcast *every* shard's
    /// state on every epoch bump instead of moving only the delta.
    pub full_rebuild: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            num_shards: 16,
            vnodes: 16,
            seed: 0x5ead_ed5e_11ce_0007,
            initial_ranks: 4,
            capacity: 256,
            max_batch_size: 8,
            max_wait: 4,
            backoff: TickBackoff::none(),
            plan: FaultPlan::none(),
            scaling: Vec::new(),
            full_rebuild: false,
        }
    }
}

impl ShardConfig {
    /// Check the config: a batcher shape with every bound at least 1, at
    /// least one shard, virtual node and rank, a shard count that fits a
    /// message tag, and a scaling script sorted by tick that the epoch-0
    /// membership `0..initial_ranks` can follow — each add of a
    /// non-member, each drain of a member other than the last. A drained
    /// rank may be added back. The plan's kills are not walked: when one
    /// fires depends on dispatch counts.
    pub fn validate(&self) -> Result<(), String> {
        check_batching(self.capacity, self.max_batch_size, self.max_wait)?;
        if self.num_shards == 0 {
            return Err("need at least one shard".to_string());
        }
        if self.vnodes == 0 {
            return Err("need at least one virtual node".to_string());
        }
        if self.initial_ranks == 0 {
            return Err("need at least one rank".to_string());
        }
        if u32::try_from(self.num_shards).is_err() {
            return Err("shard count must fit a message tag".to_string());
        }
        let mut members: BTreeSet<usize> = (0..self.initial_ranks).collect();
        let mut last = 0;
        for &(tick, event) in &self.scaling {
            if tick < last {
                return Err("scaling events must be sorted by tick".to_string());
            }
            last = tick;
            match event {
                ScaleEvent::Add(rank) => {
                    if !members.insert(rank) {
                        return Err(format!(
                            "scripted add of rank {rank} which is already a member"
                        ));
                    }
                }
                ScaleEvent::Drain(rank) => {
                    if !members.contains(&rank) {
                        return Err(format!(
                            "scripted drain of rank {rank} which is not a member"
                        ));
                    }
                    if members.len() == 1 {
                        return Err("cannot drain the last rank".to_string());
                    }
                    members.remove(&rank);
                }
            }
        }
        Ok(())
    }
}

type ShardBatch<S> = Batch<<S as ShardedService>::Input, <S as ShardedService>::Output>;

/// The elastic sharded server.
///
/// Unlike [`crate::Server`] there is no worker pool: execution happens
/// synchronously inside [`ShardedServer::advance`] /
/// [`ShardedServer::flush`], in virtual time, on the configured
/// [`Executor`]. That is a deliberate robustness trade — every request
/// resolves before `flush` returns (nothing can hang), and the whole run
/// is a pure function of `(trace, config)` with no thread scheduling in
/// sight. The executor decides only *how* a round is computed: `Seq` and
/// `Rayon` map batches over the seam, `Cluster` runs a real SPMD round
/// per boundary with the chaos plan attached.
pub struct ShardedServer<S: ShardedService> {
    front: Front<Shards<S>>,
}

/// The sharded back end: membership, the shard map and states, and the
/// synchronous rounds that serve them.
struct Shards<S: ShardedService> {
    service: S,
    exec: Executor,
    cfg: ShardConfig,
    stats: Arc<ServerStats>,

    members: BTreeSet<usize>,
    dead: BTreeSet<usize>,
    epoch: u64,
    map: ShardMap,
    /// Shard → warm state. The driver is the single address space; on
    /// the cluster backend migration additionally ships the Arc'd state
    /// between ranks so the wire cost is measured, not modeled.
    states: BTreeMap<usize, Arc<S::State>>,

    /// The plan's kills, counted in batches dispatched to each rank — the
    /// serve-level "send events" that [`FaultPlan::kill`] thresholds
    /// count. A kill is one-shot: a revived rank lives on.
    kills: KillCounter,
    /// Killed ranks scheduled to rejoin: `(due_tick, rank)`.
    pending_revivals: Vec<(u64, usize)>,
    /// Scripted scaling not yet applied (sorted by tick).
    scaling: VecDeque<(u64, ScaleEvent)>,
    round_no: u64,

    reshard_log: Vec<ReshardRecord>,
}

impl<S: ShardedService> ShardedServer<S> {
    /// Build the epoch-0 server: compute the initial map and all shard
    /// states. Panics if [`ShardConfig::validate`] rejects `cfg`.
    pub fn start(service: S, exec: Executor, cfg: ShardConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let q = Batcher::new(
            cfg.num_shards,
            cfg.capacity,
            cfg.max_batch_size,
            cfg.max_wait,
        );
        let members: BTreeSet<usize> = (0..cfg.initial_ranks).collect();
        let map = ShardMap::compute(&members, 0, cfg.num_shards, cfg.vnodes, cfg.seed);
        let states = (0..cfg.num_shards)
            .map(|s| (s, Arc::new(service.build_shard(s, cfg.num_shards))))
            .collect();
        let back = Shards {
            service,
            exec,
            stats: Arc::clone(&q.stats),
            members,
            dead: BTreeSet::new(),
            epoch: 0,
            map,
            states,
            kills: KillCounter::new(&cfg.plan),
            pending_revivals: Vec::new(),
            scaling: cfg.scaling.iter().copied().collect(),
            round_no: 0,
            reshard_log: Vec::new(),
            cfg,
        };
        Self {
            front: Front { q, back },
        }
    }

    /// The current virtual tick.
    pub fn now(&self) -> u64 {
        self.front.q.clock
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.front.back.epoch
    }

    /// The current shard map.
    pub fn shard_map(&self) -> &ShardMap {
        &self.front.back.map
    }

    /// Live members, ascending.
    pub fn members(&self) -> Vec<usize> {
        self.front.back.members.iter().copied().collect()
    }

    /// The per-epoch reshard ledger so far.
    pub fn reshard_log(&self) -> &[ReshardRecord] {
        &self.front.back.reshard_log
    }

    /// The ledger handle (shared; readable while the server runs).
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.front.q.stats
    }

    /// The shard serving `input` — fixed for the server's lifetime.
    pub fn shard_of(&self, input: &S::Input) -> usize {
        self.front.back.shard_of(input)
    }

    /// Submit a request at the current tick. Rejects with
    /// [`ServeError::Overloaded`] when the ingress bound is hit.
    pub fn submit(&mut self, input: S::Input) -> Result<Response<S::Output>, ServeError> {
        self.front.q.submit(input)
    }

    /// Advance the virtual clock by `ticks`, running the boundary
    /// pipeline at each: revivals → scripted scaling → ingress drain →
    /// batch closes → one serving round of every due batch.
    pub fn advance(&mut self, ticks: u64) {
        self.front.advance(ticks);
    }

    /// Close everything pending and run rounds (advancing the clock as
    /// needed for backoff gates) until every accepted request has
    /// resolved.
    pub fn flush(&mut self) {
        self.front.flush();
    }

    /// Drive a `(tick, input)` trace to completion and return every
    /// response in submission order. Same contract as
    /// [`crate::Server::run_trace`]; since execution is synchronous,
    /// every slot is already resolved when this returns.
    pub fn run_trace<I>(&mut self, trace: I) -> Vec<Result<S::Output, ServeError>>
    where
        I: IntoIterator<Item = (u64, S::Input)>,
    {
        self.front.run_trace(trace)
    }

    /// Flush and return the end-of-run report. Consumes the server;
    /// outstanding [`Response`] handles stay valid.
    pub fn shutdown(mut self) -> ServerReport {
        self.flush();
        let Front { q, back } = self.front;
        ServerReport {
            service: back.service.name(),
            backend: backend_label(&back.exec),
            stats: q.stats,
            batch_log: q.batch_log,
            final_tick: q.clock,
            reshard_log: back.reshard_log,
            final_map: back.map,
        }
    }
}

impl<S: ShardedService> Backend for Shards<S> {
    type Input = S::Input;
    type Output = S::Output;

    fn shard_of(&self, input: &S::Input) -> usize {
        owner_of_key(
            &self.service.route_key(input),
            self.cfg.num_shards,
            self.cfg.seed,
        )
    }

    fn on_tick(&mut self, tick: u64) {
        self.apply_revivals(tick);
        self.apply_scaling(tick);
    }

    fn next_tick(&self) -> Option<u64> {
        let revival = self.pending_revivals.iter().map(|&(t, _)| t).min();
        let scaling = self.scaling.front().map(|&(t, _)| t);
        revival.into_iter().chain(scaling).min()
    }

    /// Execute one round of `due` batches; this is where kills fire, are
    /// detected, and are survived.
    fn run(&mut self, due: Vec<ShardBatch<S>>, q: &mut Batcher<S::Input, S::Output>) {
        self.round_no += 1;

        // Count dispatches and decide, deterministically, who dies this
        // round: a rank whose cumulative dispatched-batch count crosses
        // its kill threshold. All of a dying rank's round batches are
        // lost — on the cluster its results genuinely unwind with the
        // KilledByPlan panic before any completion token escapes.
        let owners: Vec<usize> = due.iter().map(|b| self.map.owner(b.shard)).collect();
        let mut dying: BTreeSet<usize> = BTreeSet::new();
        for &owner in &owners {
            if self.kills.dispatch(owner) {
                dying.insert(owner);
            }
        }

        let mut alive: Vec<ShardBatch<S>> = Vec::new();
        // Lost batches keep their dispatch-time owner: the map is about
        // to change under the reshard, but accountability must not.
        let mut lost: Vec<(usize, ShardBatch<S>)> = Vec::new();
        for (b, owner) in due.into_iter().zip(owners) {
            if dying.contains(&owner) {
                lost.push((owner, b));
            } else {
                alive.push(b);
            }
        }

        let outputs = self.run_alive_batches(&alive, &dying);
        for (batch, outs) in alive.iter().zip(outputs) {
            batch.answer(outs, &self.stats);
        }

        // Handle deaths: epoch bump, rebuild, replay — ascending rank
        // order so every backend reshards identically.
        for rank in dying {
            let (my_lost, rest): (Vec<_>, Vec<_>) =
                lost.into_iter().partition(|(owner, _)| *owner == rank);
            lost = rest;
            let replayed: u64 = my_lost.iter().map(|(_, b)| b.inputs.len() as u64).sum();
            assert!(
                self.members.len() > 1,
                "fault plan killed the last live rank"
            );
            self.members.remove(&rank);
            self.dead.insert(rank);
            self.reshard(q.clock, ReshardCause::Kill(rank), Some(rank), replayed);
            for (_, b) in my_lost {
                q.replay(b, &self.cfg.backoff);
            }
            if let Some(after) = self.cfg.plan.revival_of(rank) {
                let due = q.clock.saturating_add(1).saturating_add(after);
                self.pending_revivals.push((due, rank));
            }
        }
        assert!(
            lost.is_empty(),
            "lost batches must all belong to dying ranks"
        );
    }
}

/// Serve one batch on its shard's state. `None` when `run_shard` panics:
/// the batch is then answered [`ServeError::Failed`] once, with no
/// replay, as on the pool.
fn serve_batch<S: ShardedService>(
    service: &S,
    states: &BTreeMap<usize, Arc<S::State>>,
    b: &ShardBatch<S>,
) -> Option<Vec<S::Output>> {
    catch_unwind(AssertUnwindSafe(|| {
        service.run_shard(b.shard, &states[&b.shard], &b.inputs)
    }))
    .ok()
}

impl<S: ShardedService> Shards<S> {
    fn apply_revivals(&mut self, tick: u64) {
        let due: Vec<usize> = self
            .pending_revivals
            .iter()
            .filter(|&&(t, _)| t <= tick)
            .map(|&(_, r)| r)
            .collect();
        self.pending_revivals.retain(|&(t, _)| t > tick);
        for rank in due {
            self.dead.remove(&rank);
            self.members.insert(rank);
            self.reshard(tick, ReshardCause::Revive(rank), None, 0);
        }
    }

    fn apply_scaling(&mut self, tick: u64) {
        while let Some(&(at, event)) = self.scaling.front() {
            if at > tick {
                break;
            }
            self.scaling.pop_front();
            match event {
                ScaleEvent::Add(rank) => {
                    assert!(
                        !self.members.contains(&rank) && !self.dead.contains(&rank),
                        "scripted add of rank {rank} which is already known"
                    );
                    self.members.insert(rank);
                    self.reshard(tick, ReshardCause::Join(rank), None, 0);
                }
                ScaleEvent::Drain(rank) => {
                    assert!(
                        self.members.contains(&rank),
                        "scripted drain of rank {rank} which is not a member"
                    );
                    assert!(self.members.len() > 1, "cannot drain the last rank");
                    self.members.remove(&rank);
                    self.reshard(tick, ReshardCause::Drain(rank), None, 0);
                }
            }
        }
    }

    /// Run the surviving batches of one round on the configured backend
    /// and return per-batch outputs, aligned with `alive` (`None` where
    /// `run_shard` panicked).
    fn run_alive_batches(
        &self,
        alive: &[ShardBatch<S>],
        dying: &BTreeSet<usize>,
    ) -> Vec<Option<Vec<S::Output>>> {
        if alive.is_empty() && dying.is_empty() {
            return Vec::new();
        }
        match &self.exec {
            Executor::Cluster { .. } => self.run_cluster_round(alive, dying),
            exec => {
                if alive.is_empty() {
                    return Vec::new();
                }
                let dist =
                    peachy_cluster::EvenBlocks::new(alive.len(), exec.parts_for(alive.len()));
                let service = &self.service;
                let states = &self.states;
                exec.map_parts(&dist, Some(self.stats.comm()), |_, range| {
                    range
                        .map(|i| serve_batch(service, states, &alive[i]))
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect()
            }
        }
    }

    /// One real SPMD round: every live member (dying ones included —
    /// their death must *happen*, not be skipped) computes its batches,
    /// then exchanges completion tokens. Dying ranks panic at their
    /// first token send; survivors detect the deaths via death notices
    /// under `recv_deadline` and return normally.
    fn run_cluster_round(
        &self,
        alive: &[ShardBatch<S>],
        dying: &BTreeSet<usize>,
    ) -> Vec<Option<Vec<S::Output>>> {
        let slots_to_rank: Vec<usize> = self.members.iter().copied().collect();
        let rank_to_slot: BTreeMap<usize, usize> = slots_to_rank
            .iter()
            .enumerate()
            .map(|(slot, &rank)| (rank, slot))
            .collect();
        let m = slots_to_rank.len();

        // Which alive batches each slot computes.
        let mut slot_batches: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (i, b) in alive.iter().enumerate() {
            slot_batches[rank_to_slot[&self.map.owner(b.shard)]].push(i);
        }

        // Fresh (reproducible) chaos each round, plus the real kills.
        let round_seed = SplitMix64::mix(mix_seed(self.cfg.plan.seed()) ^ self.round_no);
        let mut plan = self.cfg.plan.transport_only().with_seed(round_seed);
        for rank in dying {
            plan = plan.kill(rank_to_slot[rank], 0);
        }

        let service = &self.service;
        let states = &self.states;
        let comm_stats = Arc::clone(self.stats.comm());
        let results = Cluster::run_with_plan(m, &plan, move |comm: &mut Comm| {
            let me = comm.rank();
            let answers: Vec<(usize, Option<Vec<S::Output>>)> = slot_batches[me]
                .iter()
                .map(|&i| (i, serve_batch(service, states, &alive[i])))
                .collect();
            // Completion-token barrier with failure detection: a dying
            // rank panics at its first send, so its answers never leave
            // this scope; survivors see the death notice instead of
            // blocking.
            for dst in 0..m {
                if dst != me {
                    comm.send(dst, TOKEN_TAG, ());
                }
            }
            let mut detected: Vec<usize> = Vec::new();
            let deadline = Instant::now() + TOKEN_DEADLINE;
            for src in 0..m {
                if src == me {
                    continue;
                }
                match comm.recv_deadline::<()>(src, TOKEN_TAG, deadline) {
                    Ok(()) => {}
                    Err(RecvError::PeerDead { .. }) => detected.push(src),
                    // A token lost to injected drop/delay from a live
                    // peer: benign for this barrier.
                    Err(RecvError::Timeout | RecvError::Disconnected) => {}
                }
            }
            comm_stats.add_bytes(comm.bytes_sent());
            (answers, detected)
        });

        // Per batch: `Some` once a surviving rank returned its outputs.
        let mut outputs: Vec<Option<Option<Vec<S::Output>>>> =
            (0..alive.len()).map(|_| None).collect();
        let mut detected_union: BTreeSet<usize> = BTreeSet::new();
        for (slot, result) in results.into_iter().enumerate() {
            match result {
                Ok((answers, detected)) => {
                    for (i, outs) in answers {
                        outputs[i] = Some(outs);
                    }
                    detected_union.extend(detected);
                }
                Err(e) => {
                    let rank = slots_to_rank[slot];
                    assert!(
                        dying.contains(&rank) && matches!(e.kind, RankErrorKind::Killed),
                        "rank {rank} failed outside the fault plan: {e}"
                    );
                }
            }
        }
        if !dying.is_empty() && m > 1 {
            let dying_slots: BTreeSet<usize> = dying.iter().map(|r| rank_to_slot[r]).collect();
            assert_eq!(
                detected_union, dying_slots,
                "survivors must detect exactly the scheduled deaths"
            );
        }
        outputs
            .into_iter()
            .map(|o| o.expect("surviving rank lost a batch without dying"))
            .collect()
    }

    /// Bump the epoch, recompute the map, and move/rebuild exactly the
    /// shard delta (or everything, under the `full_rebuild` strawman).
    /// `dead_owner` marks a rank whose state is gone (kill) rather than
    /// transferable (drain).
    fn reshard(
        &mut self,
        tick: u64,
        cause: ReshardCause,
        dead_owner: Option<usize>,
        replayed: u64,
    ) {
        let old_map = self.map.clone();
        self.epoch += 1;
        self.map = ShardMap::compute(
            &self.members,
            self.epoch,
            self.cfg.num_shards,
            self.cfg.vnodes,
            self.cfg.seed,
        );

        let mut rebuilt: Vec<usize> = Vec::new();
        let mut transfers: Vec<(usize, usize, usize)> = Vec::new(); // (src, dst, shard)
        for shard in old_map.moved_shards(&self.map) {
            let src = old_map.owner(shard);
            let dst = self.map.owner(shard);
            if Some(src) == dead_owner {
                rebuilt.push(shard);
            } else {
                transfers.push((src, dst, shard));
            }
        }
        if self.cfg.full_rebuild {
            // Strawman: rebroadcast every shard from the lowest live
            // rank, moved or not (rebuilt shards still must be rebuilt).
            let root = *self.members.iter().next().unwrap();
            transfers = (0..self.cfg.num_shards)
                .filter(|s| !rebuilt.contains(s))
                .map(|s| (root, self.map.owner(s), s))
                .collect();
        }

        for &shard in &rebuilt {
            self.states.insert(
                shard,
                Arc::new(self.service.build_shard(shard, self.cfg.num_shards)),
            );
        }
        let bytes: u64 = transfers
            .iter()
            .map(|&(_, _, s)| self.states[&s].approx_bytes() as u64)
            .sum();

        // On the cluster backend, actually ship the moved states between
        // ranks as Shared (Arc) payloads so the transport's byte meter —
        // not a model — prices the migration. Migration runs on a clean
        // transport: chaos is scripted against serving rounds.
        if matches!(self.exec, Executor::Cluster { .. }) && !transfers.is_empty() {
            let mut participants: BTreeSet<usize> = self.members.clone();
            for &(src, _, _) in &transfers {
                participants.insert(src);
            }
            let parts: Vec<usize> = participants.iter().copied().collect();
            let slot_of: BTreeMap<usize, usize> =
                parts.iter().enumerate().map(|(i, &r)| (r, i)).collect();
            let jobs: Vec<(usize, usize, u32, Shared<S::State>)> = transfers
                .iter()
                .map(|&(src, dst, s)| {
                    (
                        slot_of[&src],
                        slot_of[&dst],
                        s as u32,
                        Arc::clone(&self.states[&s]),
                    )
                })
                .collect();
            let comm_stats = Arc::clone(self.stats.comm());
            Cluster::run(parts.len(), move |comm: &mut Comm| {
                let me = comm.rank();
                for (src, dst, tag, state) in &jobs {
                    if *src == me && *dst != me {
                        comm.send(*dst, *tag, Arc::clone(state));
                    }
                }
                for (src, dst, tag, _) in &jobs {
                    if *dst == me && *src != me {
                        let _received: Shared<S::State> = comm.recv(*src, *tag);
                    }
                }
                comm_stats.add_bytes(comm.bytes_sent());
            });
        }

        self.stats
            .record_reshard(transfers.len() as u64, rebuilt.len() as u64, bytes);
        self.reshard_log.push(ReshardRecord {
            epoch: self.epoch,
            tick,
            cause,
            shards_moved: transfers.len(),
            shards_rebuilt: rebuilt.len(),
            bytes_migrated: bytes,
            requests_replayed: replayed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_walks_the_scaling_script_from_the_initial_membership() {
        use ScaleEvent::{Add, Drain};
        let base = ShardConfig {
            initial_ranks: 2,
            ..ShardConfig::default()
        };
        let scripted = |scaling: Vec<(u64, ScaleEvent)>| {
            ShardConfig {
                scaling,
                ..base.clone()
            }
            .validate()
        };
        let err = |r: Result<(), String>| r.expect_err("config must be rejected");

        assert_eq!(base.validate(), Ok(()));
        let zero_shards = ShardConfig {
            num_shards: 0,
            ..base.clone()
        };
        assert!(err(zero_shards.validate()).contains("at least one shard"));
        let zero_ranks = ShardConfig {
            initial_ranks: 0,
            ..base.clone()
        };
        assert!(err(zero_ranks.validate()).contains("at least one rank"));
        let zero_wait = ShardConfig {
            max_wait: 0,
            ..base.clone()
        };
        assert!(err(zero_wait.validate()).contains("max_wait"));

        assert!(err(scripted(vec![(5, Add(2)), (3, Add(3))])).contains("sorted by tick"));
        assert!(err(scripted(vec![(1, Add(1))])).contains("already a member"));
        assert!(err(scripted(vec![(1, Drain(2))])).contains("not a member"));
        assert!(err(scripted(vec![(1, Drain(0)), (2, Drain(1))])).contains("last rank"));
        // A drained rank may come back, and a joined one may leave.
        assert_eq!(scripted(vec![(1, Drain(1)), (2, Add(1))]), Ok(()));
        assert_eq!(scripted(vec![(1, Add(4)), (1, Drain(4))]), Ok(()));
    }
}
