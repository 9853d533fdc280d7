//! Lightweight communication-volume counters shared by every backend.
//!
//! One counter block serves the whole workspace: the executor's
//! scatter/gather bookkeeping, the collectives' byte accounting in the
//! kmeans cluster path, and the dataflow shuffle (whose `ShuffleStats` is
//! now an alias of [`CommStats`]). Counters are relaxed atomics behind an
//! `Arc` — cheap enough to leave on, precise enough to compare backends in
//! the E15 experiment.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-stage communication totals: the labeled slice of
/// [`CommStats::records`]/[`CommStats::bytes`] attributed to one lineage
/// stage (one shuffle boundary). The dataflow optimizer's cost model reads
/// these to price a subtree by what it actually moved, instead of one
/// global counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageComm {
    /// Records that crossed this stage's boundary.
    pub records: u64,
    /// Measured payload bytes that crossed this stage's boundary.
    pub bytes: u64,
}

/// Monotonic communication counters for one run.
///
/// All increments use relaxed ordering: the counts are aggregates read
/// after the run completes, not synchronization. The per-stage ledger is a
/// mutex-guarded map — it is touched once per shuffle materialization, not
/// per record, so contention is negligible.
#[derive(Debug, Default)]
pub struct CommStats {
    scattered: AtomicU64,
    gathered: AtomicU64,
    collective_bytes: AtomicU64,
    records: AtomicU64,
    shuffles: AtomicU64,
    bytes: AtomicU64,
    shuffles_elided: AtomicU64,
    spills: AtomicU64,
    spill_bytes: AtomicU64,
    unspill_bytes: AtomicU64,
    peak_resident_bytes: AtomicU64,
    stages: Mutex<BTreeMap<u32, StageComm>>,
}

impl CommStats {
    /// Fresh zeroed counters, shared via `Arc` so workers and the caller
    /// see the same block.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Elements distributed from a root / source view out to parts.
    pub fn scattered(&self) -> u64 {
        self.scattered.load(Ordering::Relaxed)
    }

    /// Elements (or per-part results) collected back in part order.
    pub fn gathered(&self) -> u64 {
        self.gathered.load(Ordering::Relaxed)
    }

    /// Payload bytes moved through cluster collectives
    /// (scatter/gather/broadcast/allreduce). Zero on shared-memory
    /// backends, where "communication" is a slice borrow.
    pub fn collective_bytes(&self) -> u64 {
        self.collective_bytes.load(Ordering::Relaxed)
    }

    /// Records repartitioned by shuffles.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Number of shuffle operations performed.
    pub fn shuffles(&self) -> u64 {
        self.shuffles.load(Ordering::Relaxed)
    }

    /// Measured payload bytes moved, as estimated by
    /// [`ByteSized`](crate::ByteSized) at every send/shuffle site. Unlike
    /// [`CommStats::collective_bytes`] (an analytic per-algorithm formula
    /// kept for E15 continuity), this counter is fed by the transport and
    /// shuffle layers themselves, so it covers collectives, dataflow
    /// shuffles, and the executor paths uniformly.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Count `n` elements scattered.
    pub fn add_scattered(&self, n: u64) {
        self.scattered.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` elements gathered.
    pub fn add_gathered(&self, n: u64) {
        self.gathered.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` payload bytes through a collective.
    pub fn add_collective_bytes(&self, n: u64) {
        self.collective_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one shuffle that moved `records` records.
    pub fn add_shuffle(&self, records: u64) {
        self.records.fetch_add(records, Ordering::Relaxed);
        self.shuffles.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` measured payload bytes.
    pub fn add_bytes(&self, n: u64) {
        self.bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Shuffles whose data movement the plan optimizer removed entirely
    /// (upstream already hash-partitioned by the same seed and count).
    pub fn shuffles_elided(&self) -> u64 {
        self.shuffles_elided.load(Ordering::Relaxed)
    }

    /// Count one shuffle elided by the optimizer (zero records moved).
    pub fn add_elided_shuffle(&self) {
        self.shuffles_elided.fetch_add(1, Ordering::Relaxed);
    }

    /// Partitions spilled to disk by byte-budgeted partition stores.
    pub fn spills(&self) -> u64 {
        self.spills.load(Ordering::Relaxed)
    }

    /// Encoded bytes written to spill files.
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes.load(Ordering::Relaxed)
    }

    /// Encoded bytes read back (replayed) from spill files.
    pub fn unspill_bytes(&self) -> u64 {
        self.unspill_bytes.load(Ordering::Relaxed)
    }

    /// Count one partition spilled to disk with `bytes` encoded bytes.
    pub fn add_spill(&self, bytes: u64) {
        self.spills.fetch_add(1, Ordering::Relaxed);
        self.spill_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count `bytes` replayed from a spill file.
    pub fn add_unspill(&self, bytes: u64) {
        self.unspill_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// High-water mark of the largest single resident materialization
    /// (decoded partition, shuffle bucket, or streamed row) charged so far.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident_bytes.load(Ordering::Relaxed)
    }

    /// Raise the resident high-water mark to at least `bytes`.
    ///
    /// Unlike every other counter this is a `max`, not a sum: the meter
    /// records the biggest thing that was ever held in memory at once, so
    /// charging the same materialization twice is harmless and the final
    /// value is independent of charge order (and therefore of schedule).
    /// A charge that cannot raise the peak skips the atomic write, since
    /// the streaming paths charge once per row.
    pub fn charge_resident(&self, bytes: u64) {
        if bytes > self.peak_resident_bytes.load(Ordering::Relaxed) {
            self.peak_resident_bytes.fetch_max(bytes, Ordering::Relaxed);
        }
    }

    /// Attribute `records`/`bytes` to the labeled stage `stage` (in
    /// addition to the global counters — call [`CommStats::add_shuffle`] /
    /// [`CommStats::add_bytes`] separately for those).
    pub fn add_stage(&self, stage: u32, records: u64, bytes: u64) {
        let mut stages = self.stages.lock().unwrap_or_else(|e| e.into_inner());
        let entry = stages.entry(stage).or_default();
        entry.records += records;
        entry.bytes += bytes;
    }

    /// The labeled totals for one stage, if anything was attributed to it.
    pub fn stage_comm(&self, stage: u32) -> Option<StageComm> {
        let stages = self.stages.lock().unwrap_or_else(|e| e.into_inner());
        stages.get(&stage).copied()
    }

    /// All labeled stage totals, ascending by stage id.
    pub fn stages(&self) -> Vec<(u32, StageComm)> {
        let stages = self.stages.lock().unwrap_or_else(|e| e.into_inner());
        stages.iter().map(|(&id, &c)| (id, c)).collect()
    }

    /// Fold another counter block into this one.
    ///
    /// Merging is associative and commutative (plain counter addition,
    /// per-stage entries added key-wise), so per-worker ledgers can be
    /// combined in any order — or any grouping — and reach the same totals.
    /// `other` is read, not drained: merging the same ledger twice
    /// double-counts, which is on the caller.
    pub fn merge_from(&self, other: &CommStats) {
        self.add_scattered(other.scattered());
        self.add_gathered(other.gathered());
        self.add_collective_bytes(other.collective_bytes());
        self.records.fetch_add(other.records(), Ordering::Relaxed);
        self.shuffles.fetch_add(other.shuffles(), Ordering::Relaxed);
        self.add_bytes(other.bytes());
        self.shuffles_elided
            .fetch_add(other.shuffles_elided(), Ordering::Relaxed);
        self.spills.fetch_add(other.spills(), Ordering::Relaxed);
        self.spill_bytes
            .fetch_add(other.spill_bytes(), Ordering::Relaxed);
        self.unspill_bytes
            .fetch_add(other.unspill_bytes(), Ordering::Relaxed);
        // The peak meter merges by max, not addition: ranks run
        // concurrently, so the fleet-wide high-water mark is the largest
        // single rank's, not their sum. Max is associative and commutative,
        // so the merge law below still holds.
        self.peak_resident_bytes
            .fetch_max(other.peak_resident_bytes(), Ordering::Relaxed);
        for (id, c) in other.stages() {
            self.add_stage(id, c.records, c.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_independently() {
        let s = CommStats::new();
        s.add_scattered(10);
        s.add_scattered(5);
        s.add_gathered(7);
        s.add_collective_bytes(1024);
        s.add_shuffle(100);
        s.add_shuffle(23);
        s.add_bytes(512);
        s.add_bytes(8);
        assert_eq!(s.scattered(), 15);
        assert_eq!(s.gathered(), 7);
        assert_eq!(s.collective_bytes(), 1024);
        assert_eq!(s.records(), 123);
        assert_eq!(s.shuffles(), 2);
        assert_eq!(s.bytes(), 520);
    }

    #[test]
    fn stage_ledger_attributes_bytes() {
        let s = CommStats::new();
        assert_eq!(s.stage_comm(3), None);
        s.add_stage(3, 10, 160);
        s.add_stage(7, 5, 40);
        s.add_stage(3, 2, 32);
        assert_eq!(
            s.stage_comm(3),
            Some(StageComm {
                records: 12,
                bytes: 192
            })
        );
        assert_eq!(
            s.stages(),
            vec![
                (
                    3,
                    StageComm {
                        records: 12,
                        bytes: 192
                    }
                ),
                (
                    7,
                    StageComm {
                        records: 5,
                        bytes: 40
                    }
                ),
            ]
        );
        // Stage attribution is a label, not a second count: the global
        // counters move only through add_shuffle/add_bytes.
        assert_eq!(s.records(), 0);
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    fn elided_shuffles_count_and_merge() {
        let s = CommStats::new();
        s.add_elided_shuffle();
        s.add_elided_shuffle();
        assert_eq!(s.shuffles_elided(), 2);
        assert_eq!(s.shuffles(), 0, "an elided shuffle is not a shuffle");
        let total = CommStats::new();
        total.merge_from(&s);
        total.merge_from(&s);
        assert_eq!(total.shuffles_elided(), 4);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let ledger = |sc: u64, ga: u64, by: u64, rec: u64, bytes: u64| {
            let s = CommStats::new();
            s.add_scattered(sc);
            s.add_gathered(ga);
            s.add_collective_bytes(by);
            s.add_shuffle(rec);
            s.add_bytes(bytes);
            s.add_stage(1, rec, bytes);
            s.add_stage(2, rec * 2, bytes * 2);
            s.add_elided_shuffle();
            s.add_spill(bytes * 3);
            s.add_unspill(bytes * 3);
            s.add_unspill(bytes * 3);
            s.charge_resident(bytes * 4);
            s.charge_resident(bytes); // lower charge never lowers the peak
            s
        };
        let flat = |s: &CommStats| {
            (
                s.scattered(),
                s.gathered(),
                s.collective_bytes(),
                s.records(),
                s.shuffles(),
                s.bytes(),
                s.shuffles_elided(),
                s.spills(),
                s.spill_bytes(),
                s.unspill_bytes(),
                s.peak_resident_bytes(),
                s.stages(),
            )
        };
        let a = ledger(1, 2, 3, 4, 5);
        let b = ledger(10, 20, 30, 40, 50);
        let c = ledger(100, 200, 300, 400, 500);

        // (a ⊕ b) ⊕ c
        let left = CommStats::new();
        left.merge_from(&a);
        left.merge_from(&b);
        left.merge_from(&c);

        // a ⊕ (b ⊕ c), built in reversed (out-of-order) arrival order.
        let bc = CommStats::new();
        bc.merge_from(&c);
        bc.merge_from(&b);
        let right = CommStats::new();
        right.merge_from(&bc);
        right.merge_from(&a);

        assert_eq!(flat(&left), flat(&right));
        assert_eq!(
            flat(&left),
            (
                111,
                222,
                333,
                444,
                3,
                555,
                3,
                3,
                1665,
                3330,
                // max across the three ledgers (500 * 4), not their sum.
                2000,
                vec![
                    (
                        1,
                        StageComm {
                            records: 444,
                            bytes: 555
                        }
                    ),
                    (
                        2,
                        StageComm {
                            records: 888,
                            bytes: 1110
                        }
                    ),
                ]
            )
        );
    }

    #[test]
    fn shared_across_threads() {
        let s = CommStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.add_scattered(1);
                    }
                });
            }
        });
        assert_eq!(s.scattered(), 4000);
    }
}
