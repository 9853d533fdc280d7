//! The serving ledger: request accounting, histograms, percentiles.
//!
//! [`ServerStats`] *extends* the cluster layer's
//! [`peachy_cluster::CommStats`] rather than duplicating it:
//! the embedded comm block is what [`crate::Service::run_batch`] feeds
//! through `Executor::map_parts`, so one stats object answers both "what
//! did the server do" (admission, batching, latency) and "what did the
//! backend move" (scatter/gather elements, collective bytes).
//!
//! Everything is a relaxed atomic or a fixed-shape histogram of relaxed
//! atomics, so the ledger is cheap enough to leave on and safe to update
//! from any worker: every worker of a server shares one ledger.
//!
//! Latencies are measured in **virtual ticks** (close tick − arrival
//! tick): the deterministic queueing + batching delay. Wall-clock
//! execution time is real but machine-dependent, so it is deliberately
//! not part of the ledger.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use peachy_cluster::CommStats;

/// Latency histogram resolution: one bucket per tick, saturating at the
/// last bucket. 512 ticks of batching delay is far beyond any sane
/// `max_wait`, so saturation marks a bug, not a measurement.
pub const LATENCY_BUCKETS: usize = 512;

/// Why a batch was closed (recorded per batch in both the stats and the
/// server's batch log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseCause {
    /// The pending buffer reached `max_batch_size` (also during a flush).
    Size,
    /// The oldest pending request had waited `max_wait` ticks.
    Timeout,
    /// An explicit flush (end of trace / shutdown) closed a partial batch.
    Flush,
}

/// Monotonic serving counters plus histograms for one server run.
///
/// All increments are relaxed atomics: the values are aggregates read
/// after (or alongside) the run, not synchronization.
#[derive(Debug)]
pub struct ServerStats {
    comm: Arc<CommStats>,
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    worker_respawns: AtomicU64,
    batches: AtomicU64,
    closed_by_size: AtomicU64,
    closed_by_timeout: AtomicU64,
    closed_by_flush: AtomicU64,
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
    epochs: AtomicU64,
    shards_moved: AtomicU64,
    shards_rebuilt: AtomicU64,
    bytes_migrated: AtomicU64,
    replayed: AtomicU64,
    backoff_ticks: AtomicU64,
    /// `batch_hist[s]` = number of batches closed with exactly `s`
    /// requests; index 0 is unused (batches are never empty).
    batch_hist: Vec<AtomicU64>,
    /// `latency_hist[t]` = number of requests whose virtual-tick latency
    /// was `t` (last bucket saturates).
    latency_hist: Vec<AtomicU64>,
}

impl ServerStats {
    /// Fresh zeroed ledger sized for batches of at most `max_batch_size`.
    pub fn new(max_batch_size: usize) -> Arc<Self> {
        assert!(max_batch_size > 0, "batches must hold at least one request");
        Arc::new(Self {
            comm: CommStats::new(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            closed_by_size: AtomicU64::new(0),
            closed_by_timeout: AtomicU64::new(0),
            closed_by_flush: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            shards_moved: AtomicU64::new(0),
            shards_rebuilt: AtomicU64::new(0),
            bytes_migrated: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            backoff_ticks: AtomicU64::new(0),
            batch_hist: (0..=max_batch_size).map(|_| AtomicU64::new(0)).collect(),
            latency_hist: (0..LATENCY_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// The embedded communication counters (what the backend moved);
    /// [`crate::Service::run_batch`] counts each batch's split into it.
    pub fn comm(&self) -> &Arc<CommStats> {
        &self.comm
    }

    /// Requests offered to [`crate::Server::submit`] (admitted + rejected).
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Requests refused at admission ([`crate::ServeError::Overloaded`]).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Requests answered with a service output.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Requests answered with [`crate::ServeError::Failed`]: their
    /// batch's service panicked.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Pool worker threads that died (to a plan kill or a panicking
    /// service) and were replaced.
    pub fn worker_respawns(&self) -> u64 {
        self.worker_respawns.load(Ordering::Relaxed)
    }

    /// Batches closed (replays not counted again).
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Batches closed by (size, timeout, flush).
    pub fn close_causes(&self) -> (u64, u64, u64) {
        (
            self.closed_by_size.load(Ordering::Relaxed),
            self.closed_by_timeout.load(Ordering::Relaxed),
            self.closed_by_flush.load(Ordering::Relaxed),
        )
    }

    /// Admitted-but-undispatched requests right now (ingress + pending
    /// buffer). A gauge, not a counter.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// High-water mark of [`ServerStats::queue_depth`].
    pub fn max_queue_depth(&self) -> u64 {
        self.max_queue_depth.load(Ordering::Relaxed)
    }

    /// Epoch bumps performed by the sharded tier (one per membership
    /// change: join, drain, kill, or revive). Zero on the fixed-pool
    /// [`crate::Server`].
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Shards whose warm state was *transferred* between live ranks
    /// during reshards.
    pub fn shards_moved(&self) -> u64 {
        self.shards_moved.load(Ordering::Relaxed)
    }

    /// Shards rebuilt from the service definition (their old owner died,
    /// so there was nothing to transfer).
    pub fn shards_rebuilt(&self) -> u64 {
        self.shards_rebuilt.load(Ordering::Relaxed)
    }

    /// Logical payload bytes of transferred shard state
    /// ([`peachy_cluster::ByteSized`] accounting — backend-independent;
    /// the cluster backend *additionally* measures the real transport
    /// bytes in [`ServerStats::comm`]).
    pub fn bytes_migrated(&self) -> u64 {
        self.bytes_migrated.load(Ordering::Relaxed)
    }

    /// Requests replayed because a fault-plan kill lost their batch (a
    /// pool worker or a sharded-tier rank; each replayed batch counts
    /// every request in it once per replay).
    pub fn replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Total virtual-tick retry delay scheduled by the deterministic
    /// backoff ([`peachy_cluster::TickBackoff`]) across all replays.
    pub fn backoff_ticks(&self) -> u64 {
        self.backoff_ticks.load(Ordering::Relaxed)
    }

    /// Snapshot of the batch-size histogram (`[s]` = batches of size `s`).
    pub fn batch_size_counts(&self) -> Vec<u64> {
        self.batch_hist
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Snapshot of the latency histogram (`[t]` = requests with latency
    /// `t` ticks; last bucket saturates).
    pub fn latency_counts(&self) -> Vec<u64> {
        self.latency_hist
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Nearest-rank percentile of the recorded latencies, in virtual
    /// ticks: the smallest latency `t` such that at least `⌈q·N⌉` of the
    /// `N` recorded requests had latency ≤ `t`. Returns `None` before any
    /// request was dispatched.
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let counts = self.latency_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for (t, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(t as u64);
            }
        }
        Some((counts.len() - 1) as u64)
    }

    /// Median latency in ticks.
    pub fn p50(&self) -> Option<u64> {
        self.latency_percentile(0.50)
    }

    /// 95th-percentile latency in ticks.
    pub fn p95(&self) -> Option<u64> {
        self.latency_percentile(0.95)
    }

    /// 99th-percentile latency in ticks.
    pub fn p99(&self) -> Option<u64> {
        self.latency_percentile(0.99)
    }

    pub(crate) fn record_submit(&self, depth_now: u64) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.record_depth(depth_now);
    }

    pub(crate) fn record_reject(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_depth(&self, depth_now: u64) {
        self.queue_depth.store(depth_now, Ordering::Relaxed);
        self.max_queue_depth.fetch_max(depth_now, Ordering::Relaxed);
    }

    pub(crate) fn record_batch(&self, size: usize, cause: CloseCause) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        match cause {
            CloseCause::Size => &self.closed_by_size,
            CloseCause::Timeout => &self.closed_by_timeout,
            CloseCause::Flush => &self.closed_by_flush,
        }
        .fetch_add(1, Ordering::Relaxed);
        let slot = size.min(self.batch_hist.len() - 1);
        self.batch_hist[slot].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_latency(&self, ticks: u64) {
        let slot = (ticks as usize).min(self.latency_hist.len() - 1);
        self.latency_hist[slot].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_completed(&self, n: u64) {
        self.completed.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_failed(&self, n: u64) {
        self.failed.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_reshard(&self, moved: u64, rebuilt: u64, bytes: u64) {
        self.epochs.fetch_add(1, Ordering::Relaxed);
        self.shards_moved.fetch_add(moved, Ordering::Relaxed);
        self.shards_rebuilt.fetch_add(rebuilt, Ordering::Relaxed);
        self.bytes_migrated.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_replayed(&self, n: u64) {
        self.replayed.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_backoff(&self, ticks: u64) {
        self.backoff_ticks.fetch_add(ticks, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = ServerStats::new(4);
        assert_eq!(s.p50(), None, "no data yet");
        for l in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            s.record_latency(l);
        }
        assert_eq!(s.latency_percentile(0.0), Some(1), "q=0 is the minimum");
        assert_eq!(s.p50(), Some(5));
        assert_eq!(s.p95(), Some(10));
        assert_eq!(s.p99(), Some(10));
        assert_eq!(s.latency_percentile(1.0), Some(10));
    }

    #[test]
    fn latency_saturates_at_last_bucket() {
        let s = ServerStats::new(2);
        s.record_latency(10_000_000);
        assert_eq!(s.p50(), Some((LATENCY_BUCKETS - 1) as u64));
    }

    #[test]
    fn reshard_counters_accumulate() {
        let s = ServerStats::new(4);
        s.record_reshard(3, 0, 4096);
        s.record_reshard(0, 5, 0);
        s.record_replayed(7);
        s.record_backoff(12);
        assert_eq!(s.epochs(), 2);
        assert_eq!(s.shards_moved(), 3);
        assert_eq!(s.shards_rebuilt(), 5);
        assert_eq!(s.bytes_migrated(), 4096);
        assert_eq!(s.replayed(), 7);
        assert_eq!(s.backoff_ticks(), 12);
    }

    #[test]
    fn depth_gauge_tracks_high_water_mark() {
        let s = ServerStats::new(2);
        s.record_submit(1);
        s.record_submit(2);
        s.record_depth(0);
        assert_eq!(s.queue_depth(), 0);
        assert_eq!(s.max_queue_depth(), 2);
        assert_eq!(s.submitted(), 2);
    }
}
