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
//! One operator, `ShuffleOp`, is every such boundary. Its input says where
//! bucket `p` comes from: hash-routed out of its parent into a bucket
//! store, or — where the optimizer elided the boundary — the parents'
//! partition `p`, in parent order, moving nothing.
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
use crate::store::{framed_len, PartitionStore, SpillFile, SpillRow, SpillSink, StoreConfig};

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

/// Where a shuffle's bucket `p` comes from.
enum Input<K, V> {
    /// Hash-routed out of the parent's rows into a bucket store, which
    /// spills the buckets whose exact sizes, metered first, overrun it.
    Routed {
        parent: Arc<dyn Op<(K, V)>>,
        buckets: PartitionStore<(K, V)>,
    },
    /// Elided: the parents are hash-partitioned by the seed and count the
    /// shuffle would route with, so bucket `p` is their partition `p`, in
    /// parent order — the rows a routed bucket `p` would receive, in order
    /// (a co-partitioned join's left rows precede its right ones).
    Elided(Vec<Arc<dyn Op<(K, V)>>>),
}

/// The wide lineage node: `(K, V)` rows into `partitions` buckets, then
/// `post` applied to each bucket (group, reduce, join, …).
pub(crate) struct ShuffleOp<K, V, T, F> {
    input: Input<K, V>,
    partitions: usize,
    post: F,
    name: &'static str,
    stats: Option<Arc<ShuffleStats>>,
    /// Stage id labeling this boundary's traffic in the per-stage
    /// [`CommStats`](peachy_cluster::CommStats) ledger (allocated at
    /// construction via [`crate::plan::next_stage_id`]); an elided one
    /// keeps it so plan reports say which boundary disappeared.
    stage_id: u32,
    /// Guards the one-shot map side — the route pass, or the elision's
    /// count — so the stage runner and a lazy reduce-side task never run
    /// it twice.
    routed: OnceLock<()>,
    /// Per-output-partition memo of `post`'s result: repeated actions on
    /// a shuffled dataset pay the bucket clone + regroup exactly once.
    posted: PartitionStore<T>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<K, V, T, F> ShuffleOp<K, V, T, F>
where
    K: Clone + Send + Sync + Hash + Eq + ByteSized + SpillRow + 'static,
    V: Clone + Send + Sync + ByteSized + SpillRow + 'static,
    T: Clone + Send + Sync + SpillRow + 'static,
    F: Fn(&mut dyn FnMut(&mut dyn FnMut((K, V)))) -> Vec<T> + Send + Sync,
{
    /// The boundary over `parents`: routed out of its one parent, or, when
    /// `elided`, a narrow pass over every parent's matching partitions.
    pub(crate) fn new(
        name: &'static str,
        partitions: usize,
        post: F,
        stats: Option<Arc<ShuffleStats>>,
        cfg: StoreConfig,
        parents: Vec<Arc<dyn Op<(K, V)>>>,
        elided: bool,
    ) -> Self {
        let input = if elided {
            Input::Elided(parents)
        } else {
            let Ok([parent]) = <[_; 1]>::try_from(parents) else {
                panic!("a routed shuffle has one parent");
            };
            let buckets = PartitionStore::new(partitions, cfg.clone());
            Input::Routed { parent, buckets }
        };
        Self {
            input,
            partitions,
            post,
            name,
            stats,
            stage_id: crate::plan::next_stage_id(),
            routed: OnceLock::new(),
            posted: PartitionStore::new(partitions, cfg),
            _marker: std::marker::PhantomData,
        }
    }

    fn parents(&self) -> &[Arc<dyn Op<(K, V)>>] {
        match &self.input {
            Input::Routed { parent, .. } => std::slice::from_ref(parent),
            Input::Elided(parents) => parents,
        }
    }

    /// Run the map side once: route every input partition into the
    /// buckets, or count the elision. The stage runner calls this from the
    /// action's thread before any reduce-side task starts. A reduce-side
    /// task calls it too, for the shuffles the runner leaves lazy (under
    /// `take` or a retry); there the pass runs inline on that task's
    /// thread.
    fn route(&self) {
        self.routed.get_or_init(|| match &self.input {
            Input::Routed { parent, buckets } => {
                let (records, bytes) = self.route_buckets(parent, buckets);
                if let Some(stats) = &self.stats {
                    stats.add_shuffle(records);
                    stats.add_bytes(bytes);
                    stats.add_stage(self.stage_id, records, bytes);
                }
            }
            Input::Elided(_) => self.stats.iter().for_each(|s| s.add_elided_shuffle()),
        });
    }

    /// The route pass: two passes over `parent`'s partitions, each one
    /// parallel loop (inline on a lazy reduce-side task's thread). Returns
    /// the records and bytes that crossed the boundary.
    ///
    /// Pass 1 meters, per input and bucket, the rows, their bytes (for the
    /// spill plan) and, under a budget, their framed spill bytes. So every
    /// bucket's exact size is known before any bucket fills, the greedy
    /// pre-sized plan picks the buckets that spill, and each spilled
    /// bucket's file is laid out: the header, then input 0's rows, input
    /// 1's rows, and so on, one segment per input. Pass 2 then runs the
    /// inputs in parallel: each writes its rows of every spilled bucket as
    /// that file's segment `i` and keeps its rows of every resident bucket
    /// in a share of exact capacity. The shares merge in input order, so
    /// every bucket, on disk or in RAM, holds its rows in input-partition
    /// order, byte for byte what one sequential pass would write.
    ///
    /// Store modes differ only in where pass 2 gets its rows. A store that
    /// does not stream (mem mode and the rebuild strawman) keeps each
    /// input's rows, bucketed, from pass 1. A streaming store keeps none:
    /// pass 2 pushes the input through the narrow chain again, which is
    /// exactly the engine's lineage-recompute contract (row closures are
    /// pure; anything effectful sits behind a cache or retry barrier,
    /// whose stores replay instead of recomputing).
    fn route_buckets(
        &self,
        parent: &Arc<dyn Op<(K, V)>>,
        buckets: &PartitionStore<(K, V)>,
    ) -> (u64, u64) {
        let n = self.partitions;
        let (streams, budgeted) = (buckets.streams(), buckets.budgeted());
        // Per input: (rows, bytes, framed spill bytes) of each bucket, and
        // the input's rows by bucket where the store keeps them.
        type Metered<K, V> = (Vec<(usize, u64, u64)>, Option<Bucketed<K, V>>);
        let metered: Vec<Metered<K, V>> = (0..parent.partitions())
            .into_par_iter()
            .map(|i| {
                let mut meter = vec![(0usize, 0u64, 0u64); n];
                let mut scratch = Vec::new();
                let mut tally = |row: &(K, V)| {
                    let p = partition_of(&row.0, n);
                    let m = &mut meter[p];
                    m.0 += 1;
                    m.1 += row.approx_bytes() as u64;
                    if budgeted {
                        m.2 += framed_len(row, &mut scratch);
                    }
                    p as u32
                };
                if streams {
                    parent.push_partition(i, &mut |row| {
                        tally(&row);
                    });
                    return (meter, None);
                }
                // Route every row first, then fill exact-capacity shares,
                // so no share reallocates mid-fill.
                let rows = take_rows(parent.compute_partition_shared(i));
                let routes: Vec<u32> = rows.iter().map(tally).collect();
                let mut shares: Bucketed<K, V> =
                    meter.iter().map(|m| Vec::with_capacity(m.0)).collect();
                for (row, p) in rows.into_iter().zip(routes) {
                    shares[p as usize].push(row);
                }
                (meter, Some(shares))
            })
            .collect();
        let mut counts = vec![0usize; n];
        let mut sizes = vec![0u64; n];
        for (meter, _) in &metered {
            for (p, &(rows, bytes, _)) in meter.iter().enumerate() {
                counts[p] += rows;
                sizes[p] += bytes;
            }
        }
        let spill = buckets.plan_presized(&sizes);
        let files: Vec<Option<SpillFile<'_, (K, V)>>> = spill
            .iter()
            .enumerate()
            .map(|(p, &s)| {
                s.then(|| {
                    let segments: Vec<(usize, u64)> =
                        metered.iter().map(|(m, _)| (m[p].0, m[p].2)).collect();
                    buckets.spill_segments(p, &segments)
                })
            })
            .collect();
        let shares: Vec<Bucketed<K, V>> = metered
            .into_par_iter()
            .enumerate()
            .map(|(i, (meter, kept))| {
                let mut sinks: Vec<Option<SpillSink<'_, (K, V)>>> = files
                    .iter()
                    .map(|file| file.as_ref().map(|f| f.segment(i)))
                    .collect();
                let resident = match kept {
                    Some(mut shares) => {
                        for (share, sink) in shares.iter_mut().zip(&mut sinks) {
                            if let Some(sink) = sink {
                                std::mem::take(share).iter().for_each(|row| sink.push(row));
                            }
                        }
                        shares
                    }
                    None => {
                        let mut resident: Bucketed<K, V> = meter
                            .iter()
                            .zip(&spill)
                            .map(|(&(rows, ..), &s)| Vec::with_capacity(if s { 0 } else { rows }))
                            .collect();
                        parent.push_partition(i, &mut |row: (K, V)| {
                            let p = partition_of(&row.0, n);
                            match &mut sinks[p] {
                                Some(sink) => sink.push(&row),
                                None => resident[p].push(row),
                            }
                        });
                        resident
                    }
                };
                sinks.into_iter().flatten().for_each(SpillSink::close);
                resident
            })
            .collect();
        for file in files.into_iter().flatten() {
            file.finish();
        }
        // Merge each resident bucket into an exact-capacity vector, in
        // input order, so downstream grouping is deterministic. A spilled
        // bucket's shares are empty.
        let mut merged: Bucketed<K, V> = counts
            .iter()
            .zip(&spill)
            .map(|(&c, &s)| Vec::with_capacity(if s { 0 } else { c }))
            .collect();
        for input in shares {
            for (bucket, share) in merged.iter_mut().zip(input) {
                bucket.extend(share);
            }
        }
        for (p, rows) in merged.into_iter().enumerate() {
            if !spill[p] {
                buckets.fill_resident(p, Arc::new(rows));
            }
        }
        (counts.iter().map(|&c| c as u64).sum(), sizes.iter().sum())
    }

    /// Run `post` over bucket `idx`. A routed bucket replays out of its
    /// store: resident rows clone out one at a time, a spilled bucket
    /// decodes row by row — it is never rebuilt as one `Vec` just to be
    /// grouped. An elided bucket pushes the parents' partition `idx` in
    /// parent order, so a parent whose partition spilled streams rather
    /// than rebuilds.
    fn run_post(&self, idx: usize) -> Arc<Vec<T>> {
        self.route();
        Arc::new((self.post)(&mut |emit| match &self.input {
            Input::Routed { buckets, .. } => {
                assert!(buckets.replay(idx, emit), "route filled every bucket");
            }
            Input::Elided(parents) => {
                for parent in parents {
                    debug_assert_eq!(parent.partitions(), self.partitions);
                    parent.push_partition(idx, emit);
                }
            }
        }))
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
        self.posted.get_or_init(idx, || self.run_post(idx))
    }
    fn push_partition(&self, idx: usize, emit: &mut dyn FnMut(T)) {
        // A filled memoized post replays from its store (a spilled post
        // cell streams); the first consumer computes and fills.
        self.posted.replay_or_init(idx, emit, || self.run_post(idx));
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
        let est_rows = Lineage::est_rows(self);
        // A routed shuffle's buckets store is its materialization: its
        // spill picture is the one worth rendering, and predicted volume
        // prefers the measured stage bytes over size estimates. An elided
        // one holds only its posts.
        let (residency, mark) = match &self.input {
            Input::Routed { parent, buckets } => {
                let est_bytes = measured.or_else(|| {
                    up(parent)
                        .est_rows()
                        .map(|r| r * std::mem::size_of::<(K, V)>() as u64)
                });
                (buckets.residency(est_bytes), SHUFFLE_MARK)
            }
            Input::Elided(_) => {
                let est_bytes = est_rows.map(|r| r * std::mem::size_of::<T>() as u64);
                (self.posted.residency(est_bytes), ELIDED_MARK)
            }
        };
        PlanNode {
            id: self.lineage_id(),
            label: format!("{}[{} partitions] {mark}", self.name, self.partitions),
            kind: PlanKind::Shuffle {
                stage: self.stage_id,
                elided: matches!(self.input, Input::Elided(_)),
            },
            partitions: self.partitions,
            est_rows,
            row_bytes: std::mem::size_of::<T>(),
            measured_bytes: measured,
            residency,
            children: self.parents().iter().map(|p| up(p).plan()).collect(),
        }
    }
    fn lineage_children(&self, visit: &mut dyn FnMut(&dyn Lineage)) {
        for parent in self.parents() {
            visit(up(parent));
        }
    }
    fn run_stage(&self, inputs: &mut dyn FnMut(&dyn Lineage)) {
        self.lineage_children(inputs);
        self.route();
    }
    fn est_rows(&self) -> Option<u64> {
        // Exact once every output partition's post has run; before that,
        // the parents' row count is an upper bound (posts only group or
        // reduce, never expand, in this engine's combinators).
        let done: Option<u64> = (0..self.partitions)
            .map(|p| self.posted.part_len(p).map(|rows| rows as u64))
            .sum();
        done.or_else(|| self.parents().iter().map(|p| up(p).est_rows()).sum())
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

    fn cfg() -> StoreConfig {
        StoreConfig::default()
    }

    /// Gives a test post the signature a shuffle takes, so that it accepts
    /// pushed rows of every lifetime.
    fn post<R, F>(f: F) -> F
    where
        F: Fn(&mut dyn FnMut(&mut dyn FnMut(R))) -> Vec<R>,
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
        let identity = post(move |bucket| {
            c.fetch_add(1, Ordering::Relaxed);
            pushed(bucket)
        });
        let parents = vec![Arc::clone(&ds.op)];
        let op = ShuffleOp::new(
            "Identity",
            partitions,
            identity,
            None,
            cfg(),
            parents,
            false,
        );
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
        let identity = post(|bucket| pushed(bucket));
        let stats_in: Option<Arc<ShuffleStats>> = Some(Arc::clone(&stats));
        let parents = vec![Arc::clone(&ds.op)];
        let op = ShuffleOp::new("Identity", 2, identity, stats_in, cfg(), parents, false);
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
        let identity = post(|bucket| pushed(bucket));
        let parents = vec![Arc::clone(&left.op), Arc::clone(&right.op)];
        let stats_in: Option<Arc<ShuffleStats>> = Some(Arc::clone(&stats));
        let op = ShuffleOp::new(
            "Identity",
            partitions,
            identity,
            stats_in,
            cfg(),
            parents,
            true,
        );
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
    fn streamed_and_kept_routes_write_identical_bucket_files() {
        // One spilling route per store mode, at one budget: the streaming
        // store pushes its inputs through the chain twice, the rebuild
        // strawman keeps them from pass 1, and both write every spilled
        // bucket as one segment per input.
        let rows: Vec<(u64, String)> = (0..4_000u64)
            .map(|i| (i % 113, "v".repeat(i as usize % 17)))
            .collect();
        let budget = rows.iter().map(|r| r.approx_bytes() as u64).sum::<u64>() / 2;
        let route = |stream: bool| {
            let ds = Dataset::from_vec(rows.clone(), 4).map(|(k, v)| (k * 3, v));
            let stats = ShuffleStats::new();
            let cfg = StoreConfig {
                budget: Some(budget),
                stats: Some(Arc::clone(&stats)),
                stream,
            };
            let identity = post(|bucket| pushed(bucket));
            let op = ShuffleOp::new("Identity", 8, identity, None, cfg, vec![ds.op], false);
            op.route();
            let Input::Routed { buckets, .. } = &op.input else {
                unreachable!("a routed shuffle");
            };
            let dir = buckets.spill_dir().expect("some bucket spilled");
            let files: Vec<Option<Vec<u8>>> = (0..8)
                .map(|p| std::fs::read(dir.join(format!("part-{p}.bin"))).ok())
                .collect();
            let out: Vec<Vec<(u64, String)>> = (0..8)
                .map(|p| take_rows(op.compute_partition_shared(p)))
                .collect();
            (files, stats.spills(), stats.spill_bytes(), out)
        };
        let (streamed, kept) = (route(true), route(false));
        let spilled = streamed.0.iter().flatten().count();
        assert!(0 < spilled && spilled < 8, "{spilled} of 8 buckets spilled");
        assert_eq!(streamed.0, kept.0, "every bucket file byte-identical");
        assert_eq!(streamed.1, kept.1, "spills");
        assert_eq!(streamed.2, kept.2, "spill_bytes");
        assert_eq!(streamed.3, kept.3, "posted rows");
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
