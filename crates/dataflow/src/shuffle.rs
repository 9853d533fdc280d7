//! The shuffle: hash partitioning of keyed rows, materialized once.
//!
//! Wide transformations cannot pipeline — every output partition may need
//! rows from every input partition. Like Spark's shuffle files, the map
//! side here runs once (each input partition bucketing its rows by
//! `hash(key) % partitions`) and the bucketed output is kept for the
//! reduce side to consume. [`ShuffleStats`] counts the records crossing
//! the boundary so pipelines can be *measured* while being improved — the
//! §4 exercise.
//!
//! The map side is a stage of its own. Before an action's partition tasks
//! start, the stage runner (`optimize::prepare_action`) routes every
//! shuffle bottom-up from the action's thread, so each route pass is one
//! top-level parallel loop over its input partitions. A shuffle the runner
//! does not reach — one under a retry, or one that `take` pulls on —
//! routes lazily inside the first reduce-side task that needs a bucket:
//! its input partitions then run inline on that task's thread while every
//! other task waits for the bucket.
//!
//! The hash is the workspace's seeded version-stable hasher
//! ([`peachy_cluster::dist::owner_of_key`], built on the splitmix
//! finalizer), not `DefaultHasher`: bucket placement is pinned by test and
//! survives Rust releases.

use std::hash::Hash;
use std::sync::{Arc, OnceLock};

use peachy_cluster::dist::{owner_of_key, ROUTE_SEED};
use peachy_cluster::ByteSized;
use peachy_par::prelude::*;

use crate::dataset::{take_rows, up, Op};
use crate::plan::{Lineage, PlanKind, PlanNode, ELIDED_MARK, SHUFFLE_MARK};
use crate::store::{framed_len, PartitionStore, SpillFile, SpillRow, SpillSink};

/// Counters shared by all shuffles in a lineage (attach one per pipeline
/// run to compare variants). This is the workspace-wide
/// [`peachy_cluster::CommStats`] block — the shuffle increments its
/// `records`/`shuffles` counters, so dataflow runs are directly comparable
/// with executor-backend runs in the E15 experiment.
pub type ShuffleStats = peachy_cluster::CommStats;

/// Stable key → partition routing, shared with the MapReduce collate
/// (same hasher, same [`ROUTE_SEED`]).
pub(crate) fn partition_of<K: Hash>(key: &K, partitions: usize) -> usize {
    owner_of_key(key, partitions, ROUTE_SEED)
}

/// One input partition's rows, bucketed by output partition.
type Bucketed<K, V> = Vec<Vec<(K, V)>>;

/// The wide lineage node: hash-shuffles `(K, V)` rows into `partitions`
/// buckets, then applies `post` to each bucket (group, reduce, …).
pub(crate) struct ShuffleOp<K, V, T, F> {
    pub parent: Arc<dyn Op<(K, V)>>,
    pub partitions: usize,
    pub post: F,
    pub name: &'static str,
    pub stats: Option<Arc<ShuffleStats>>,
    /// Stage id labeling this boundary's traffic in the per-stage
    /// [`CommStats`](peachy_cluster::CommStats) ledger (allocated at
    /// construction via [`crate::plan::next_stage_id`]).
    pub stage_id: u32,
    /// The materialized buckets, behind the storage seam: a bucket whose
    /// exact byte size (known from the route pass, before any bucket is
    /// built) does not fit the budget is streamed to disk instead of
    /// merged in RAM.
    pub buckets: PartitionStore<(K, V)>,
    /// Guards the one-shot route-and-materialize pass, so the stage
    /// runner and a lazy reduce-side task never route twice.
    pub routed: OnceLock<()>,
    /// Per-output-partition memo of `post`'s result: repeated actions on
    /// a shuffled dataset pay the bucket clone + regroup exactly once.
    pub posted: PartitionStore<T>,
    pub _marker: std::marker::PhantomData<fn() -> T>,
}

impl<K, V, T, F> ShuffleOp<K, V, T, F>
where
    K: Clone + Send + Sync + Hash + Eq + ByteSized + SpillRow + 'static,
    V: Clone + Send + Sync + ByteSized + SpillRow + 'static,
    T: Send + Sync,
    F: Send + Sync,
{
    /// Route every input partition into the buckets, once. The stage
    /// runner calls this from the action's thread before any reduce-side
    /// task starts. A reduce-side task calls it too, for the shuffles the
    /// runner leaves lazy (under `take` or a retry); there the pass runs
    /// inline on that task's thread.
    fn route(&self) {
        self.routed.get_or_init(|| {
            let (counts, sizes) = if self.buckets.streams() {
                self.route_streaming()
            } else {
                self.route_materialized()
            };
            let moved: u64 = counts.iter().map(|&c| c as u64).sum();
            let moved_bytes: u64 = sizes.iter().sum();
            if let Some(stats) = &self.stats {
                stats.add_shuffle(moved);
                stats.add_bytes(moved_bytes);
                stats.add_stage(self.stage_id, moved, moved_bytes);
            }
        });
    }

    /// The mem-mode (and rebuild-strawman) map side: every parent
    /// partition materialized and bucketed in one parallel loop (parallel
    /// when the stage runner calls it from the action's thread; inline on
    /// a lazy reduce-side task's thread otherwise), two passes — route
    /// every row first, then fill exact-capacity buckets, so no bucket
    /// ever reallocates mid-fill. Each input also meters its per-bucket
    /// byte volume, so every output bucket's exact size is known before
    /// any bucket is merged — the spill decision happens pre-fill.
    fn route_materialized(&self) -> (Vec<usize>, Vec<u64>) {
        let per_input: Vec<(Bucketed<K, V>, Vec<u64>)> = (0..self.parent.partitions())
            .into_par_iter()
            .map(|i| {
                let rows = take_rows(self.parent.compute_partition_shared(i));
                let mut counts = vec![0usize; self.partitions];
                let routes: Vec<u32> = rows
                    .iter()
                    .map(|(k, _)| {
                        let p = partition_of(k, self.partitions);
                        counts[p] += 1;
                        p as u32
                    })
                    .collect();
                let mut buckets: Vec<Vec<(K, V)>> =
                    counts.iter().map(|&c| Vec::with_capacity(c)).collect();
                let mut bucket_bytes = vec![0u64; self.partitions];
                for (row, p) in rows.into_iter().zip(routes) {
                    bucket_bytes[p as usize] += row.approx_bytes() as u64;
                    buckets[p as usize].push(row);
                }
                (buckets, bucket_bytes)
            })
            .collect();
        // Exact per-bucket sizes: the sum over inputs of each input's
        // share of the bucket. The greedy pre-sized plan decides which
        // buckets stay resident — a pure function of sizes and budget.
        let mut sizes = vec![0u64; self.partitions];
        let mut counts = vec![0usize; self.partitions];
        for (input, bytes) in &per_input {
            for p in 0..self.partitions {
                counts[p] += input[p].len();
                sizes[p] += bytes[p];
            }
        }
        let spill = self.buckets.plan_presized(&sizes);
        // Spilled buckets stream-encode straight out of the per-input
        // buckets in input-partition order — the same merge order a
        // resident bucket gets — without ever concatenating in RAM.
        for (p, &spill_p) in spill.iter().enumerate() {
            if spill_p {
                let file = self.buckets.spill_file(p, counts[p]);
                let mut sink = file.segment(0);
                for (input, _) in &per_input {
                    input[p].iter().for_each(|row| sink.push(row));
                }
                sink.close();
                file.finish();
            }
        }
        self.fill_resident_buckets(
            per_input.into_iter().map(|(input, _)| input),
            &counts,
            &spill,
        );
        (counts, sizes)
    }

    /// Fill every bucket the plan keeps resident from the inputs' shares,
    /// merged into exact-capacity vectors in input-partition order, so
    /// downstream grouping is deterministic.
    fn fill_resident_buckets(
        &self,
        inputs: impl IntoIterator<Item = Bucketed<K, V>>,
        counts: &[usize],
        spill: &[bool],
    ) {
        let mut merged: Bucketed<K, V> = counts
            .iter()
            .zip(spill)
            .map(|(&c, &s)| Vec::with_capacity(if s { 0 } else { c }))
            .collect();
        for input in inputs {
            for ((bucket, share), &s) in merged.iter_mut().zip(input).zip(spill) {
                if !s {
                    bucket.extend(share);
                }
            }
        }
        for (p, rows) in merged.into_iter().enumerate() {
            if !spill[p] {
                self.buckets.fill_resident(p, Arc::new(rows));
            }
        }
    }

    /// The streaming map side (budgeted stores with streaming on): no
    /// input partition is ever materialized just to be bucketed.
    ///
    /// Both passes push every input through the narrow chain, in one
    /// parallel loop each. Pass 1 meters, per input and bucket, the rows,
    /// their bytes (for the spill plan) and their framed spill bytes. Those
    /// fix the layout of each spilled bucket's file: the header, then input
    /// 0's rows, input 1's rows, and so on — the input-partition merge
    /// order the materialized path produces. Pass 2 then replays the inputs
    /// *in parallel*: each writes its rows of every spilled bucket as that
    /// file's segment `i`, with positioned writes at its own offset, and
    /// collects its rows of every resident bucket in a share of exact
    /// capacity. The shares concatenate in input order afterwards, so every
    /// bucket, on disk or in RAM, holds the rows a sequential pass would
    /// have written, byte for byte.
    ///
    /// The cost is running the upstream chain twice, which is exactly the
    /// engine's lineage-recompute contract (row closures are pure;
    /// anything effectful sits behind a cache or retry barrier, whose
    /// stores replay pass 2 instead of recomputing).
    fn route_streaming(&self) -> (Vec<usize>, Vec<u64>) {
        let n_in = self.parent.partitions();
        // Per input and bucket: (rows, bytes, framed spill bytes).
        let metered: Vec<Vec<(usize, u64, u64)>> = (0..n_in)
            .into_par_iter()
            .map(|i| {
                let mut meter = vec![(0usize, 0u64, 0u64); self.partitions];
                let mut scratch = Vec::new();
                self.parent.push_partition(i, &mut |row: (K, V)| {
                    let m = &mut meter[partition_of(&row.0, self.partitions)];
                    m.0 += 1;
                    m.1 += row.approx_bytes() as u64;
                    m.2 += framed_len(&row, &mut scratch);
                });
                meter
            })
            .collect();
        let mut sizes = vec![0u64; self.partitions];
        let mut counts = vec![0usize; self.partitions];
        for meter in &metered {
            for (p, &(rows, bytes, _)) in meter.iter().enumerate() {
                counts[p] += rows;
                sizes[p] += bytes;
            }
        }
        let spill = self.buckets.plan_presized(&sizes);
        let files: Vec<Option<SpillFile<'_, (K, V)>>> = spill
            .iter()
            .enumerate()
            .map(|(p, &s)| {
                s.then(|| {
                    let shares: Vec<(usize, u64)> =
                        metered.iter().map(|m| (m[p].0, m[p].2)).collect();
                    self.buckets.spill_segments(p, &shares)
                })
            })
            .collect();
        let shares: Vec<Bucketed<K, V>> = (0..n_in)
            .into_par_iter()
            .map(|i| {
                let mut sinks: Vec<Option<SpillSink<'_, (K, V)>>> = files
                    .iter()
                    .map(|file| file.as_ref().map(|f| f.segment(i)))
                    .collect();
                let mut resident: Bucketed<K, V> = metered[i]
                    .iter()
                    .zip(&spill)
                    .map(|(&(rows, ..), &s)| Vec::with_capacity(if s { 0 } else { rows }))
                    .collect();
                self.parent.push_partition(i, &mut |row: (K, V)| {
                    let p = partition_of(&row.0, self.partitions);
                    match &mut sinks[p] {
                        Some(sink) => sink.push(&row),
                        None => resident[p].push(row),
                    }
                });
                sinks.into_iter().flatten().for_each(SpillSink::close);
                resident
            })
            .collect();
        for file in files.into_iter().flatten() {
            file.finish();
        }
        self.fill_resident_buckets(shares, &counts, &spill);
        (counts, sizes)
    }
}

impl<K, V, T, F> Op<T> for ShuffleOp<K, V, T, F>
where
    K: Clone + Send + Sync + Hash + Eq + ByteSized + SpillRow + 'static,
    V: Clone + Send + Sync + ByteSized + SpillRow + 'static,
    T: Clone + Send + Sync + SpillRow + 'static,
    F: Fn(&mut dyn FnMut(&mut dyn FnMut((K, V)))) -> Vec<T> + Send + Sync,
{
    fn partitions(&self) -> usize {
        self.partitions
    }
    fn compute_partition_shared(&self, idx: usize) -> Arc<Vec<T>> {
        self.posted.get_or_init(idx, || {
            self.route();
            // The merge pass replays the bucket out of its store: resident
            // rows clone out one at a time, a spilled bucket decodes
            // row-by-row — it is never rebuilt as one `Vec` just to be
            // grouped.
            Arc::new((self.post)(&mut |emit| {
                assert!(self.buckets.replay(idx, emit), "route filled every bucket");
            }))
        })
    }
    fn push_partition(&self, idx: usize, emit: &mut dyn FnMut(T)) {
        // A filled memoized post replays from its store (a spilled post
        // cell streams); the first consumer computes and fills.
        if !self.posted.replay(idx, emit) {
            for row in take_rows(self.compute_partition_shared(idx)) {
                emit(row);
            }
        }
    }
}

impl<K, V, T, F> Lineage for ShuffleOp<K, V, T, F>
where
    K: Clone + Send + Sync + Hash + Eq + ByteSized + SpillRow + 'static,
    V: Clone + Send + Sync + ByteSized + SpillRow + 'static,
    T: Clone + Send + Sync + SpillRow + 'static,
    F: Fn(&mut dyn FnMut(&mut dyn FnMut((K, V)))) -> Vec<T> + Send + Sync,
{
    fn plan(&self) -> PlanNode {
        let measured = self
            .stats
            .as_ref()
            .and_then(|s| s.stage_comm(self.stage_id))
            .map(|c| c.bytes);
        // The buckets store is the shuffle's materialization: its spill
        // picture is the one worth rendering. Predicted volume prefers
        // the measured stage bytes over size estimates.
        let est_bytes = measured.or_else(|| {
            up(&self.parent)
                .est_rows()
                .map(|r| r * std::mem::size_of::<(K, V)>() as u64)
        });
        PlanNode {
            id: self.lineage_id(),
            label: format!(
                "{}[{} partitions] {}",
                self.name, self.partitions, SHUFFLE_MARK
            ),
            kind: PlanKind::Shuffle {
                stage: self.stage_id,
                elided: false,
            },
            partitions: self.partitions,
            est_rows: Lineage::est_rows(self),
            row_bytes: std::mem::size_of::<T>(),
            measured_bytes: measured,
            residency: self.buckets.residency(est_bytes),
            children: vec![up(&self.parent).plan()],
        }
    }
    fn lineage_children(&self, visit: &mut dyn FnMut(&dyn Lineage)) {
        visit(up(&self.parent));
    }
    fn run_stage(&self, inputs: &mut dyn FnMut(&dyn Lineage)) {
        inputs(up(&self.parent));
        self.route();
    }
    fn est_rows(&self) -> Option<u64> {
        // Exact once every output partition's post has run; before that,
        // the parent's row count is an upper bound (posts only group or
        // reduce, never expand, in this engine's combinators).
        let done: Option<u64> = (0..self.partitions)
            .map(|p| self.posted.part_len(p).map(|rows| rows as u64))
            .sum();
        done.or_else(|| up(&self.parent).est_rows())
    }
}

/// A shuffle boundary the optimizer removed: the parent(s) are provably
/// hash-partitioned by the same seed and partition count the shuffle would
/// have routed with, so output partition `p` is exactly `post` applied to
/// the concatenation of each parent's partition `p` — the same input rows,
/// in the same order, a naive shuffle's bucket `p` would have received.
/// Zero records cross the boundary; the rewrite is a narrow per-partition
/// pass.
///
/// Co-partitioned joins are the multi-parent case: instead of unioning two
/// pre-tagged sides and re-shuffling, both sides' matching partitions feed
/// `post` directly (left's rows before right's, matching the union order
/// a naive plan shuffles).
pub(crate) struct ElidedShuffleOp<R, T, F> {
    pub parents: Vec<Arc<dyn Op<R>>>,
    pub partitions: usize,
    pub post: F,
    pub name: &'static str,
    pub stats: Option<Arc<ShuffleStats>>,
    /// Stage id the *naive* boundary would have carried — kept so plan
    /// reports can say which boundary disappeared.
    pub stage_id: u32,
    pub posted: PartitionStore<T>,
    /// Records the elision in [`ShuffleStats`] exactly once per op.
    pub noted: OnceLock<()>,
}

impl<R, T, F> Op<T> for ElidedShuffleOp<R, T, F>
where
    R: Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + SpillRow + 'static,
    F: Fn(&mut dyn FnMut(&mut dyn FnMut(R))) -> Vec<T> + Send + Sync,
{
    fn partitions(&self) -> usize {
        self.partitions
    }
    fn compute_partition_shared(&self, idx: usize) -> Arc<Vec<T>> {
        self.posted.get_or_init(idx, || {
            self.noted.get_or_init(|| {
                if let Some(stats) = &self.stats {
                    stats.add_elided_shuffle();
                }
            });
            // Push the parents' partition `idx` in parent order (left
            // before right, matching the union order a naive shuffle's
            // bucket receives) — a parent whose partition spilled streams
            // rather than rebuilds.
            Arc::new((self.post)(&mut |emit| {
                for parent in &self.parents {
                    debug_assert_eq!(parent.partitions(), self.partitions);
                    parent.push_partition(idx, emit);
                }
            }))
        })
    }
    fn push_partition(&self, idx: usize, emit: &mut dyn FnMut(T)) {
        if !self.posted.replay(idx, emit) {
            for row in take_rows(self.compute_partition_shared(idx)) {
                emit(row);
            }
        }
    }
}

impl<R, T, F> Lineage for ElidedShuffleOp<R, T, F>
where
    R: Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + SpillRow + 'static,
    F: Fn(&mut dyn FnMut(&mut dyn FnMut(R))) -> Vec<T> + Send + Sync,
{
    fn plan(&self) -> PlanNode {
        let est_bytes = Lineage::est_rows(self).map(|r| r * std::mem::size_of::<T>() as u64);
        PlanNode {
            id: self.lineage_id(),
            label: format!(
                "{}[{} partitions] {}",
                self.name, self.partitions, ELIDED_MARK
            ),
            kind: PlanKind::Shuffle {
                stage: self.stage_id,
                elided: true,
            },
            partitions: self.partitions,
            est_rows: Lineage::est_rows(self),
            row_bytes: std::mem::size_of::<T>(),
            measured_bytes: None,
            residency: self.posted.residency(est_bytes),
            children: self.parents.iter().map(|p| up(p).plan()).collect(),
        }
    }
    fn lineage_children(&self, visit: &mut dyn FnMut(&dyn Lineage)) {
        for parent in &self.parents {
            visit(up(parent));
        }
    }
    fn est_rows(&self) -> Option<u64> {
        let done: Option<u64> = (0..self.partitions)
            .map(|p| self.posted.part_len(p).map(|rows| rows as u64))
            .sum();
        done.or_else(|| self.parents.iter().map(|p| up(p).est_rows()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Every row `rows` pushes, in order: the identity post.
    fn pushed<R>(rows: impl FnOnce(&mut dyn FnMut(R))) -> Vec<R> {
        let mut out = Vec::new();
        rows(&mut |row| out.push(row));
        out
    }

    /// Gives a test post the signature a shuffle takes, so that it accepts
    /// pushed rows of every lifetime.
    fn post<F>(f: F) -> F
    where
        F: Fn(&mut dyn FnMut(&mut dyn FnMut((u64, u64)))) -> Vec<(u64, u64)>,
    {
        f
    }

    #[test]
    fn post_runs_once_per_partition_across_actions() {
        let rows: Vec<(u64, u64)> = (0..40).map(|i| (i % 5, i)).collect();
        let ds = Dataset::from_vec(rows, 4);
        let post_calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&post_calls);
        let partitions = 3;
        let op = ShuffleOp {
            parent: Arc::clone(&ds.op),
            partitions,
            post: post(move |bucket| {
                c.fetch_add(1, Ordering::Relaxed);
                pushed(bucket)
            }),
            name: "Identity",
            stats: None,
            stage_id: crate::plan::next_stage_id(),
            buckets: PartitionStore::new(partitions, Default::default()),
            routed: OnceLock::new(),
            posted: PartitionStore::new(partitions, Default::default()),
            _marker: std::marker::PhantomData,
        };
        let first: Vec<Vec<(u64, u64)>> = (0..partitions)
            .map(|p| take_rows(op.compute_partition_shared(p)))
            .collect();
        assert_eq!(post_calls.load(Ordering::Relaxed), partitions as u64);
        // Repeated actions reuse the memoized post output: no new calls,
        // bit-identical rows, and the shared handle is the same allocation.
        for round in 0..3 {
            for (p, expected) in first.iter().enumerate() {
                assert_eq!(&*op.compute_partition_shared(p), expected, "round {round}");
                assert!(Arc::ptr_eq(
                    &op.compute_partition_shared(p),
                    &op.compute_partition_shared(p)
                ));
            }
        }
        assert_eq!(
            post_calls.load(Ordering::Relaxed),
            partitions as u64,
            "post memoized: clone+regroup paid once per partition"
        );
        let total: usize = first.iter().map(Vec::len).sum();
        assert_eq!(total, 40, "every row lands in exactly one bucket");
    }

    #[test]
    fn shuffle_reports_record_and_byte_volume() {
        let rows: Vec<(u64, u64)> = (0..32).map(|i| (i, i * 2)).collect();
        let ds = Dataset::from_vec(rows, 4);
        let stats = Arc::new(ShuffleStats::new());
        let op = ShuffleOp {
            parent: Arc::clone(&ds.op),
            partitions: 2,
            post: post(|bucket| pushed(bucket)),
            name: "Identity",
            stats: Some(Arc::clone(&stats)),
            stage_id: crate::plan::next_stage_id(),
            buckets: PartitionStore::new(2, Default::default()),
            routed: OnceLock::new(),
            posted: PartitionStore::new(2, Default::default()),
            _marker: std::marker::PhantomData,
        };
        op.compute_partition_shared(0);
        op.compute_partition_shared(1);
        assert_eq!(stats.shuffles(), 1, "materialized once");
        assert_eq!(stats.records(), 32);
        // Every (u64, u64) row is 16 bytes; all 32 cross the boundary.
        assert_eq!(stats.bytes(), 32 * 16);
        // The same traffic is attributed to this boundary's stage label.
        assert_eq!(
            stats.stage_comm(op.stage_id),
            Some(peachy_cluster::StageComm {
                records: 32,
                bytes: 32 * 16
            })
        );
        assert_eq!(stats.stages().len(), 1, "one labeled stage");
    }

    #[test]
    fn elided_shuffle_concatenates_matching_partitions() {
        // Two parents pretend to be co-partitioned; the elided boundary
        // must produce post(left_p ++ right_p) per partition and count one
        // elision, zero shuffles, zero records moved.
        let left = Dataset::from_vec(vec![(0u64, 1u64), (0, 2), (1, 3), (1, 4)], 2);
        let right = Dataset::from_vec(vec![(0u64, 10u64), (0, 20), (1, 30), (1, 40)], 2);
        let stats = Arc::new(ShuffleStats::new());
        let partitions = 2;
        let op = ElidedShuffleOp {
            parents: vec![Arc::clone(&left.op), Arc::clone(&right.op)],
            partitions,
            post: post(|bucket| pushed(bucket)),
            name: "Identity",
            stats: Some(Arc::clone(&stats)),
            stage_id: crate::plan::next_stage_id(),
            posted: PartitionStore::new(partitions, Default::default()),
            noted: OnceLock::new(),
        };
        assert_eq!(
            *op.compute_partition_shared(0),
            vec![(0, 1), (0, 2), (0, 10), (0, 20)],
            "left partition rows precede right partition rows"
        );
        assert_eq!(
            *op.compute_partition_shared(1),
            vec![(1, 3), (1, 4), (1, 30), (1, 40)]
        );
        op.compute_partition_shared(0); // memoized replay
        assert_eq!(stats.shuffles_elided(), 1, "counted once per op");
        assert_eq!(stats.shuffles(), 0);
        assert_eq!(stats.records(), 0, "nothing crossed the boundary");
        assert_eq!(stats.bytes(), 0);
        assert!(op.plan().label.contains("shuffle elided"));
    }

    #[test]
    fn partition_of_is_stable_and_in_range() {
        for key in 0..1000u64 {
            let p = partition_of(&key, 7);
            assert!(p < 7);
            assert_eq!(p, partition_of(&key, 7));
        }
    }

    #[test]
    fn partition_spreads_keys() {
        let mut counts = vec![0usize; 8];
        for key in 0..10_000u64 {
            counts[partition_of(&key, 8)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*min > 800 && *max < 1800, "skewed: {counts:?}");
    }

    #[test]
    fn bucket_assignment_is_pinned() {
        // Version-stability contract: these exact placements must never
        // change (a compiler upgrade that moves them would silently
        // repartition every persisted pipeline). Computed once from the
        // seeded splitmix hasher and frozen here.
        let got: Vec<usize> = (0..16u64).map(|k| partition_of(&k, 8)).collect();
        assert_eq!(got, PINNED_U64_BUCKETS);
        let words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"];
        let got: Vec<usize> = words.iter().map(|w| partition_of(w, 4)).collect();
        assert_eq!(got, PINNED_STR_BUCKETS);
    }

    /// `partition_of(&k, 8)` for `k in 0..16`.
    const PINNED_U64_BUCKETS: [usize; 16] = [0, 6, 1, 4, 5, 3, 3, 2, 6, 1, 2, 5, 2, 1, 4, 2];
    /// `partition_of(w, 4)` for the NATO words above.
    const PINNED_STR_BUCKETS: [usize; 6] = [1, 0, 2, 0, 3, 0];
}
