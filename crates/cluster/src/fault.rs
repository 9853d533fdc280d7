//! Fault injection and failure reporting: the chaos seam of the cluster.
//!
//! Real distributed assignments run on hardware that drops packets,
//! reorders them, and loses whole nodes; the teaching stacks the paper
//! leans on (Spark, Parsl) treat worker failure as a first-class event.
//! This module makes those adverse conditions *reproducible* at laptop
//! scale:
//!
//! * [`FaultPlan`] describes, per directed rank edge, the probability of
//!   dropping, duplicating, reordering, or delaying each message, plus
//!   scheduled **rank death** (fail-stop). Plans are driven by the
//!   seedable [`peachy_prng`] generators, so a chaos run is exactly
//!   repeatable from its seed.
//! * [`RecvError`] is what the timeout-aware receives on
//!   [`Comm`](crate::Comm) return instead of blocking forever.
//! * [`RankError`] is the per-rank failure report produced by
//!   [`Cluster::run_with_plan`](crate::Cluster::run_with_plan).
//! * [`RetryPolicy`] bounds the retry-with-reassignment loops built on
//!   top (the task farm, the resilient MapReduce driver, the dataflow
//!   partition executor).
//!
//! What the seam simulates — and what it does not — is documented in
//! DESIGN.md ("Failure model").

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use peachy_prng::{mix_seed, Lcg64, RandomStream, SplitMix64};

/// Why a receive did not produce a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No matching message arrived within the allowed time (zero time for
    /// `try_recv`).
    Timeout,
    /// The awaited source rank is known to have died (fail-stop); no
    /// matching message from it is buffered, and none can ever arrive.
    PeerDead {
        /// The dead source rank.
        peer: usize,
    },
    /// The underlying channel is closed — the cluster is tearing down.
    Disconnected,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::PeerDead { peer } => write!(f, "peer rank {peer} is dead"),
            RecvError::Disconnected => write!(f, "cluster channel disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}

/// How a rank failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankErrorKind {
    /// The rank's closure panicked; the payload message is preserved.
    Panicked(String),
    /// The rank was killed by a [`FaultPlan`] schedule (fail-stop).
    Killed,
    /// The rank aborted because a peer it depended on died first.
    PeerDead {
        /// The dead peer that caused the abort.
        peer: usize,
    },
}

/// A rank's failure report: which rank, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankError {
    /// The failed rank.
    pub rank: usize,
    /// Failure classification.
    pub kind: RankErrorKind,
}

impl RankError {
    /// Is this failure a secondary casualty of another rank's death
    /// (either classified [`RankErrorKind::PeerDead`], or a panic whose
    /// message reports a dead peer)?
    pub fn is_peer_dead(&self) -> bool {
        matches!(self.kind, RankErrorKind::PeerDead { .. })
    }

    /// Is this the primary failure (scheduled kill or own panic)?
    pub fn is_primary(&self) -> bool {
        !self.is_peer_dead()
    }

    /// The failure a failed run reports: its first primary failure, else
    /// its first failure. `None` only for an empty slice.
    pub fn primary(errors: &[RankError]) -> Option<&RankError> {
        errors.iter().find(|e| e.is_primary()).or(errors.first())
    }
}

impl fmt::Display for RankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            RankErrorKind::Panicked(msg) => write!(f, "rank {} panicked: {msg}", self.rank),
            RankErrorKind::Killed => write!(f, "rank {} killed by fault plan", self.rank),
            RankErrorKind::PeerDead { peer } => {
                write!(f, "rank {} aborted: peer rank {peer} died", self.rank)
            }
        }
    }
}

impl std::error::Error for RankError {}

/// Bounded-retry configuration for failure-aware executors (task farm,
/// resilient MapReduce, dataflow partition retry). A retry runs at once:
/// the one backoff in the workspace is [`TickBackoff`], in virtual ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per task (first run included). Must be ≥ 1.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3 }
    }
}

/// Deterministic retry backoff measured in **virtual ticks**, not wall
/// time: delay grows linearly with the attempt index plus seeded jitter,
/// so a chaotic serving run stays a pure function of
/// `(trace, config, seed)`.
///
/// `delay_ticks(attempt)` is a pure function — no clocks, no global RNG —
/// which is what lets the sharded serving tier schedule a replayed batch
/// at `now + delay` identically on every backend and every rerun. Jitter
/// is drawn from a [`SplitMix64`]-mixed stream keyed by `(seed, attempt)`,
/// so two servers with different seeds desynchronize their retry storms
/// while each remains reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickBackoff {
    /// Base delay in ticks; retry `a` waits `base·a` ticks before jitter.
    pub base: u64,
    /// Exclusive upper bound on the seeded jitter added per retry
    /// (`0` disables jitter).
    pub jitter: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for TickBackoff {
    fn default() -> Self {
        Self::none()
    }
}

impl TickBackoff {
    /// No delay at all: every retry is eligible at the next tick.
    pub fn none() -> Self {
        Self {
            base: 0,
            jitter: 0,
            seed: 0,
        }
    }

    /// Linear backoff of `base` ticks per attempt with `jitter` ticks of
    /// seeded noise.
    pub fn linear(base: u64, jitter: u64, seed: u64) -> Self {
        Self { base, jitter, seed }
    }

    /// Ticks to wait before retry number `attempt` (1-based count of
    /// completed attempts). Pure: same `(self, attempt)` always yields
    /// the same delay.
    pub fn delay_ticks(&self, attempt: u32) -> u64 {
        let linear = self.base.saturating_mul(attempt as u64);
        if self.jitter == 0 {
            return linear;
        }
        let draw =
            SplitMix64::mix(mix_seed(self.seed) ^ (attempt as u64).wrapping_mul(0x9e37_79b9));
        // Saturating: once `base · attempt` saturates, a wrapping add
        // would turn the longest delay into the shortest.
        linear.saturating_add(draw % self.jitter)
    }
}

/// Per-directed-edge message fault rates. All probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EdgeFault {
    /// Probability a message is silently dropped (lost on the wire).
    pub drop_p: f64,
    /// Probability a message is delivered twice (the receiver-side
    /// transport dedups, so protocols above never see the copy).
    pub dup_p: f64,
    /// Probability a message is held back behind later traffic
    /// (reordering; selective receive must still match correctly).
    pub reorder_p: f64,
    /// Maximum extra latency per message; the actual delay is uniform in
    /// `[0, delay)`. Zero disables delay injection.
    pub delay: Duration,
}

impl EdgeFault {
    /// A fault-free edge.
    pub fn none() -> Self {
        Self::default()
    }

    /// Check every probability lies in `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop_p", self.drop_p),
            ("dup_p", self.dup_p),
            ("reorder_p", self.reorder_p),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} outside [0, 1]"));
            }
        }
        Ok(())
    }

    /// `self`, or a panic naming the first bad probability.
    fn checked(self) -> Self {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        self
    }
}

/// A reproducible chaos schedule for one cluster run.
///
/// Message faults are sampled from a dedicated PRNG stream per directed
/// edge (derived from the plan seed and the `(src, dst)` pair), so the
/// same plan replays the same faults regardless of thread scheduling.
/// Rank deaths are counted in *transport events* (sends attempted by the
/// doomed rank), which is likewise scheduling-independent.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    default_edge: Option<EdgeFault>,
    edges: HashMap<(usize, usize), EdgeFault>,
    kills: HashMap<usize, u64>,
    revivals: HashMap<usize, u64>,
}

impl FaultPlan {
    /// An empty plan (no faults) — what [`Cluster::run`](crate::Cluster::run)
    /// uses.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan whose edge streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Apply `fault` to every directed edge (specific [`FaultPlan::edge`]
    /// entries still take precedence). Panics if [`EdgeFault::validate`]
    /// rejects `fault`.
    pub fn all_edges(mut self, fault: EdgeFault) -> Self {
        self.default_edge = Some(fault.checked());
        self
    }

    /// Apply `fault` to the directed edge `src → dst`. Panics if
    /// [`EdgeFault::validate`] rejects `fault`.
    pub fn edge(mut self, src: usize, dst: usize, fault: EdgeFault) -> Self {
        self.edges.insert((src, dst), fault.checked());
        self
    }

    /// Schedule `rank` to die (fail-stop) once it has attempted
    /// `after_events` transport sends. `after_events = 0` kills it at its
    /// first send.
    pub fn kill(mut self, rank: usize, after_events: u64) -> Self {
        self.kills.insert(rank, after_events);
        self
    }

    /// Schedule `rank` to rejoin `after_events` supervisor events after
    /// its scheduled death.
    ///
    /// Within one SPMD run fail-stop is permanent — a killed OS thread
    /// does not come back — so the transport ignores revivals. They are
    /// consumed by supervisors that span runs, such as the elastic
    /// serving tier, which counts virtual ticks after the death as its
    /// events and re-admits the rank (with freshly built shard state)
    /// once the count elapses. `after_events = 0` rejoins at the first
    /// tick boundary after the death is handled.
    pub fn revive(mut self, rank: usize, after_events: u64) -> Self {
        self.revivals.insert(rank, after_events);
        self
    }

    /// Ranks whose scheduled death is *permanent*: killed and never
    /// revived. A rank with both a [`FaultPlan::kill`] and a
    /// [`FaultPlan::revive`] entry is expected back, so it is not doomed.
    pub fn doomed_ranks(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .kills
            .keys()
            .filter(|rank| !self.revivals.contains_key(rank))
            .copied()
            .collect();
        v.sort_unstable();
        v
    }

    /// All scheduled `(rank, after_events)` deaths, ascending by rank —
    /// revived or not.
    pub fn scheduled_kills(&self) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self.kills.iter().map(|(&r, &e)| (r, e)).collect();
        v.sort_unstable();
        v
    }

    /// The scheduled revival delay for `rank`, if any.
    pub fn revival_of(&self, rank: usize) -> Option<u64> {
        self.revivals.get(&rank).copied()
    }

    /// The seed the plan's edge streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The same plan reseeded: edge fault streams re-derive from `seed`,
    /// kills and revivals are unchanged. Lets a supervisor that runs many
    /// short SPMD rounds under one plan draw fresh (but reproducible)
    /// chaos each round instead of replaying identical fates.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A copy with only the message-level chaos (drop/dup/reorder/delay):
    /// kills and revivals stripped. Supervisors that schedule deaths
    /// themselves (counting their own events) use this as the per-round
    /// base plan and re-attach kills at the translated moment.
    pub fn transport_only(&self) -> Self {
        Self {
            seed: self.seed,
            default_edge: self.default_edge,
            edges: self.edges.clone(),
            kills: HashMap::new(),
            revivals: HashMap::new(),
        }
    }

    /// Does this plan inject anything at all?
    pub fn is_empty(&self) -> bool {
        self.default_edge.is_none()
            && self.edges.is_empty()
            && self.kills.is_empty()
            && self.revivals.is_empty()
    }

    /// Build the per-rank runtime state consumed by the transport.
    pub(crate) fn state_for(&self, rank: usize, size: usize) -> FaultState {
        let edges = (0..size)
            .map(|dst| {
                let fault = self
                    .edges
                    .get(&(rank, dst))
                    .copied()
                    .or(self.default_edge)
                    .unwrap_or_default();
                // One independent, well-mixed stream per directed edge.
                let stream_seed =
                    SplitMix64::mix(mix_seed(self.seed) ^ ((rank as u64) << 32) ^ dst as u64);
                EdgeState {
                    fault,
                    rng: Lcg64::seed_from(stream_seed),
                }
            })
            .collect();
        FaultState {
            edges,
            kill_after: self.kills.get(&rank).copied(),
            events: 0,
        }
    }
}

/// What the transport must do with one outgoing message.
///
/// Fates are decided per *send event* and never inspect the payload, so
/// they apply identically to deep-cloned values and to shared
/// (`Arc`-payload) envelopes from the zero-copy collectives. In
/// particular, a duplicate is delivered as a payload-free ghost marker —
/// it carries no bytes and clones no `Arc` — and drop/reorder/delay act
/// on the envelope as a whole, whatever it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SendFate {
    /// Discard instead of delivering.
    pub drop: bool,
    /// Deliver a ghost duplicate alongside the original.
    pub duplicate: bool,
    /// Number of later envelopes the receiver must absorb before this one
    /// becomes matchable (0 = in order).
    pub hold_back: u32,
    /// Extra latency to impose before delivery.
    pub delay: Duration,
}

struct EdgeState {
    fault: EdgeFault,
    rng: Lcg64,
}

/// Per-rank runtime fault state: one PRNG stream per outgoing edge plus
/// the rank's own death schedule.
pub(crate) struct FaultState {
    edges: Vec<EdgeState>,
    kill_after: Option<u64>,
    events: u64,
}

/// Panic payload used for scheduled fail-stop deaths. `pub(crate)` so the
/// supervisor can classify it; never observable by user code.
pub(crate) struct KilledByPlan;

/// Die the way a [`FaultPlan::kill`] kills a rank: unwind with the plan's
/// fail-stop payload, which the process-wide panic hook keeps off stderr.
/// For supervisors that count kills in their own events (the serving
/// tier's worker pool) and want the death itself to be real.
pub fn fail_stop() -> ! {
    crate::silence_intentional_panics();
    std::panic::panic_any(KilledByPlan)
}

/// Panic payload used when a collective aborts on a dead peer.
pub(crate) struct PeerDeadAbort {
    pub peer: usize,
}

impl FaultState {
    /// Account one transport event and decide this message's fate.
    /// Panics with [`KilledByPlan`] when the rank's scheduled death is
    /// reached — the fail-stop moment.
    pub(crate) fn on_send(&mut self, dst: usize) -> SendFate {
        if let Some(after) = self.kill_after {
            if self.events >= after {
                std::panic::panic_any(KilledByPlan);
            }
        }
        self.events += 1;
        let edge = &mut self.edges[dst];
        let f = edge.fault;
        let mut fate = SendFate::default();
        // Always draw the same number of variates per event so fates stay
        // aligned with the edge stream regardless of rates.
        let (d, dup, reord, lat) = (
            edge.rng.next_f64(),
            edge.rng.next_f64(),
            edge.rng.next_f64(),
            edge.rng.next_f64(),
        );
        fate.drop = d < f.drop_p;
        fate.duplicate = dup < f.dup_p;
        if reord < f.reorder_p {
            fate.hold_back = 1 + (edge.rng.next_u64() % 3) as u32;
        }
        if !f.delay.is_zero() {
            fate.delay = f.delay.mul_f64(lat);
        }
        fate
    }

    /// Events attempted so far (for tests).
    #[cfg(test)]
    pub(crate) fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_replays_identically() {
        let fates = |seed: u64| {
            let plan = FaultPlan::new(seed).all_edges(EdgeFault {
                drop_p: 0.3,
                dup_p: 0.2,
                reorder_p: 0.25,
                delay: Duration::ZERO,
            });
            let mut st = plan.state_for(1, 4);
            (0..64).map(|i| st.on_send(i % 4)).collect::<Vec<_>>()
        };
        assert_eq!(fates(7), fates(7));
        assert_ne!(fates(7), fates(8), "different seeds, different chaos");
    }

    #[test]
    fn edge_override_beats_default() {
        let plan = FaultPlan::new(1)
            .all_edges(EdgeFault {
                drop_p: 1.0,
                ..EdgeFault::none()
            })
            .edge(
                0,
                2,
                EdgeFault {
                    drop_p: 0.0,
                    ..EdgeFault::none()
                },
            );
        let mut st = plan.state_for(0, 3);
        assert!(st.on_send(1).drop, "default edge drops everything");
        assert!(!st.on_send(2).drop, "override edge drops nothing");
    }

    #[test]
    fn kill_counts_events() {
        let plan = FaultPlan::new(0).kill(2, 3);
        let mut st = plan.state_for(2, 4);
        for _ in 0..3 {
            st.on_send(0);
        }
        assert_eq!(st.events(), 3);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| st.on_send(0)));
        let payload = died.expect_err("fourth event must kill");
        assert!(payload.is::<KilledByPlan>());
    }

    #[test]
    fn other_ranks_unaffected_by_kill() {
        let plan = FaultPlan::new(0).kill(2, 0);
        let mut st = plan.state_for(1, 4);
        for _ in 0..100 {
            st.on_send(3);
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_probability_rejected() {
        let _ = FaultPlan::new(0).all_edges(EdgeFault {
            drop_p: 1.5,
            ..EdgeFault::none()
        });
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::new(3).kill(0, 5).is_empty());
        assert_eq!(
            FaultPlan::new(3).kill(4, 0).kill(1, 0).doomed_ranks(),
            vec![1, 4]
        );
    }

    #[test]
    fn revive_cancels_doom_but_not_the_kill() {
        let plan = FaultPlan::new(3).kill(4, 0).kill(1, 2).revive(4, 1);
        // Rank 4 is expected back, so only rank 1 is permanently doomed…
        assert_eq!(plan.doomed_ranks(), vec![1]);
        // …but both deaths are still scheduled and visible to supervisors.
        assert_eq!(plan.scheduled_kills(), vec![(1, 2), (4, 0)]);
        assert_eq!(plan.revival_of(4), Some(1));
        assert_eq!(plan.revival_of(1), None);
        assert!(!plan.is_empty());
        // The transport still kills the revived rank within this run.
        let mut st = plan.state_for(4, 6);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| st.on_send(0)));
        assert!(died
            .expect_err("kill fires despite revival")
            .is::<KilledByPlan>());
    }

    #[test]
    fn transport_only_strips_deaths_and_keeps_chaos() {
        let plan = FaultPlan::new(9)
            .all_edges(EdgeFault {
                drop_p: 0.5,
                ..EdgeFault::none()
            })
            .kill(0, 0)
            .revive(0, 2);
        let stripped = plan.transport_only();
        assert!(stripped.scheduled_kills().is_empty());
        assert!(stripped.revival_of(0).is_none());
        assert!(!stripped.is_empty(), "edge chaos survives the strip");
        // Same seed → same edge fates (probed from an undoomed rank).
        let fates = |p: &FaultPlan| {
            let mut st = p.state_for(1, 3);
            (0..32)
                .map(|i| st.on_send(2 * (i % 2)).drop)
                .collect::<Vec<_>>()
        };
        assert_eq!(fates(&stripped), fates(&plan.clone().with_seed(9)));
        assert_ne!(fates(&stripped), fates(&stripped.clone().with_seed(10)));
    }

    #[test]
    fn tick_backoff_is_pure_and_attempt_indexed() {
        let b = TickBackoff::linear(3, 5, 42);
        for attempt in 1..10 {
            let d = b.delay_ticks(attempt);
            assert_eq!(d, b.delay_ticks(attempt), "pure function of attempt");
            let linear = 3 * attempt as u64;
            assert!(d >= linear && d < linear + 5, "attempt {attempt}: {d}");
        }
        // Jitter actually varies across attempts and seeds.
        let draws: Vec<u64> = (1..20).map(|a| b.delay_ticks(a) - 3 * a as u64).collect();
        assert!(draws.iter().any(|&j| j != draws[0]), "jitter is constant");
        let other = TickBackoff::linear(3, 5, 43);
        assert!(
            (1..20).any(|a| b.delay_ticks(a) != other.delay_ticks(a)),
            "seed must matter"
        );
        // Degenerate configs.
        assert_eq!(TickBackoff::none().delay_ticks(7), 0);
        assert_eq!(TickBackoff::linear(2, 0, 0).delay_ticks(4), 8);
    }

    #[test]
    fn tick_backoff_saturates_instead_of_wrapping() {
        let b = TickBackoff::linear(u64::MAX / 2, 3, 1);
        let delays: Vec<u64> = (1..=4).map(|a| b.delay_ticks(a)).collect();
        assert!(
            delays.windows(2).all(|w| w[0] <= w[1]),
            "delays never decrease: {delays:?}"
        );
        assert_eq!(delays[3], u64::MAX, "{delays:?}");
    }

    #[test]
    fn errors_display() {
        let e = RankError {
            rank: 3,
            kind: RankErrorKind::PeerDead { peer: 1 },
        };
        assert!(e.to_string().contains("rank 3"));
        assert!(e.to_string().contains("rank 1"));
        assert!(e.is_peer_dead());
        assert!(!e.is_primary());
        assert_eq!(RecvError::Timeout.to_string(), "receive timed out");
        assert!(RecvError::PeerDead { peer: 2 }.to_string().contains('2'));
        assert!(RecvError::Disconnected.to_string().contains("disconnected"));
    }

    #[test]
    fn retry_policy_default_bounds() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 3);
    }
}
