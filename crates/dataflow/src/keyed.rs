//! Keyed datasets and wide transformations.
//!
//! A [`KeyedDataset<K, V>`] wraps a `Dataset<(K, V)>` and unlocks the
//! shuffle-backed operations of the §4 pipelines: per-key reduction,
//! grouping, counting, and joins (inner and left-outer — the arrests ⋈
//! population join of Figure 2 is a left join on NTA code).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use peachy_cluster::dist::ROUTE_SEED;
use peachy_cluster::{ByteSized, Executor};

use crate::dataset::{Dataset, Op};
use crate::optimize::PlanReport;
use crate::plan::Partitioning;
use crate::shuffle::{ShuffleOp, ShuffleStats};
use crate::store::{SpillReader, SpillRow};

/// A dataset of key–value rows supporting wide transformations.
///
/// Alongside the rows, a `KeyedDataset` tracks what it *knows* about their
/// [`Partitioning`]: every hash shuffle leaves its output `HashKeyed` by
/// the routing seed and partition count, and key-preserving narrow ops
/// (`map_values`, `filter_keys`) carry that fact forward. A downstream
/// shuffle whose routing the current layout already
/// [`satisfies`](Partitioning::satisfies) is **elided** — rewritten into a
/// narrow per-partition pass that moves zero records.
pub struct KeyedDataset<K, V> {
    inner: Dataset<(K, V)>,
    stats: Option<Arc<ShuffleStats>>,
    partitioning: Partitioning,
}

impl<K, V> Clone for KeyedDataset<K, V> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
            stats: self.stats.clone(),
            partitioning: self.partitioning,
        }
    }
}

impl<K, V> KeyedDataset<K, V>
where
    K: Clone + Send + Sync + Hash + Eq + SpillRow + 'static,
    V: Clone + Send + Sync + SpillRow + 'static,
{
    /// Wrap an existing `(K, V)` dataset (layout unknown: no elision until
    /// a shuffle establishes one).
    pub fn from_dataset(inner: Dataset<(K, V)>) -> Self {
        Self {
            inner,
            stats: None,
            partitioning: Partitioning::Arbitrary,
        }
    }

    /// Attach shuffle counters (shared across derived datasets) so a
    /// pipeline's communication volume can be measured. The same block
    /// also meters spill traffic: stores built downstream charge their
    /// disk writes and read-backs to it.
    pub fn with_stats(mut self, stats: Arc<ShuffleStats>) -> Self {
        self.inner = self.inner.with_stats(Arc::clone(&stats));
        self.stats = Some(stats);
        self
    }

    /// What this dataset knows about how its rows are laid out.
    pub fn partitioning(&self) -> Partitioning {
        self.partitioning
    }

    /// Assert that the rows are already hash-partitioned by `seed` into
    /// `partitions` buckets (`owner_of_key(key, partitions, seed)` placed
    /// every row) — e.g. data reloaded from a previous run's shuffled
    /// output. The optimizer trusts the claim to elide matching shuffles;
    /// a *false* claim silently mis-groups keys, so this is a performance
    /// assertion, not a hint. Claims that don't match a downstream
    /// shuffle's seed and count are ignored (the shuffle runs for real).
    pub fn assume_hash_partitioned(mut self, seed: u64, partitions: usize) -> Self {
        assert_eq!(
            self.inner.num_partitions(),
            partitions,
            "claimed partition count must match the actual layout"
        );
        self.partitioning = Partitioning::HashKeyed { seed, partitions };
        self
    }

    /// The underlying `(K, V)` dataset (narrow view).
    pub fn rows(&self) -> Dataset<(K, V)> {
        self.inner.clone()
    }

    /// Narrow: transform values, keep keys. Keys don't move, so the known
    /// partitioning survives.
    pub fn map_values<W, F>(&self, f: F) -> KeyedDataset<K, W>
    where
        W: Clone + Send + Sync + SpillRow + 'static,
        F: Fn(V) -> W + Send + Sync + 'static,
    {
        KeyedDataset {
            inner: self.inner.map(move |(k, v)| (k, f(v))),
            stats: self.stats.clone(),
            partitioning: self.partitioning,
        }
    }

    /// Narrow: keep rows whose key satisfies the predicate (a subset of a
    /// hash-partitioned layout is still hash-partitioned).
    pub fn filter_keys<F>(&self, pred: F) -> KeyedDataset<K, V>
    where
        F: Fn(&K) -> bool + Send + Sync + 'static,
    {
        KeyedDataset {
            inner: self.inner.filter(move |(k, _)| pred(k)),
            stats: self.stats.clone(),
            partitioning: self.partitioning,
        }
    }

    /// Should a shuffle routing into `partitions` buckets be elided for
    /// this dataset's layout?
    fn elides(&self, partitions: usize) -> bool {
        self.inner.optimizer_config().elide_shuffles
            && self.partitioning.satisfies(ROUTE_SEED, partitions)
    }

    fn shuffle_with<T, F>(&self, name: &'static str, partitions: usize, post: F) -> Dataset<T>
    where
        K: ByteSized,
        V: ByteSized,
        T: Clone + Send + Sync + SpillRow + 'static,
        F: Fn(&mut dyn FnMut(&mut dyn FnMut((K, V)))) -> Vec<T> + Send + Sync + 'static,
    {
        // Elided, where every key in partition p already routes to p:
        // bucket p of a real shuffle would hold exactly partition p's
        // rows, in the same order (one contributing input partition), so
        // `post` runs per partition and nothing moves.
        self.shuffle_node(
            name,
            partitions,
            post,
            vec![Arc::clone(&self.inner.op)],
            self.elides(partitions),
        )
    }

    /// Wide: merge all values of each key with an associative operator.
    ///
    /// Performs **map-side combining** first (values co-located in an input
    /// partition merge before the shuffle), so the shuffle moves at most
    /// one record per (input partition, key) — the optimization the course
    /// asks students to discover.
    pub fn reduce_by_key<F>(&self, f: F) -> KeyedDataset<K, V>
    where
        K: ByteSized,
        V: ByteSized,
        F: Fn(V, V) -> V + Send + Sync + Clone + 'static,
    {
        let partitions = self.inner.num_partitions();
        // Map-side combine: merge within each partition, then shuffle the
        // pre-combined rows.
        let g = f.clone();
        let combined = self.combine_within_partitions(g);
        KeyedDataset {
            inner: combined.shuffle_with("ReduceByKey", partitions, move |bucket| {
                fold_keyed(bucket, |v| v, &f)
            }),
            stats: self.stats.clone(),
            partitioning: Partitioning::HashKeyed {
                seed: ROUTE_SEED,
                partitions,
            },
        }
    }

    /// Wide: Spark's `aggregateByKey` — accumulate values of type `V` into
    /// accumulators of a *different* type `A`, with map-side combining:
    /// `seq` folds a value into an accumulator within a partition, `comb`
    /// merges accumulators across partitions. `reduce_by_key` is the
    /// special case `A = V`.
    pub fn aggregate_by_key<A, S, C>(&self, zero: A, seq: S, comb: C) -> KeyedDataset<K, A>
    where
        K: ByteSized,
        A: Clone + Send + Sync + ByteSized + SpillRow + 'static,
        S: Fn(A, V) -> A + Send + Sync + 'static,
        C: Fn(A, A) -> A + Send + Sync + 'static,
    {
        let partitions = self.inner.num_partitions();
        // Map side: fold each partition's values into per-key accumulators.
        let combined: KeyedDataset<K, A> = KeyedDataset {
            inner: self
                .inner
                .fold_partitions(move |rows| fold_keyed(rows, |v| seq(zero.clone(), v), &seq)),
            stats: self.stats.clone(),
            // Per-partition folding keeps every key where it was.
            partitioning: self.partitioning,
        };
        KeyedDataset {
            // Reduce side: merge accumulators.
            inner: combined.shuffle_with("AggregateByKey", partitions, move |bucket| {
                fold_keyed(bucket, |a| a, &comb)
            }),
            stats: self.stats.clone(),
            partitioning: Partitioning::HashKeyed {
                seed: ROUTE_SEED,
                partitions,
            },
        }
    }

    /// Wide: `foldByKey` — aggregate with a single operator and a zero.
    pub fn fold_by_key<F>(&self, zero: V, f: F) -> KeyedDataset<K, V>
    where
        K: ByteSized,
        V: ByteSized,
        F: Fn(V, V) -> V + Send + Sync + Clone + 'static,
    {
        let g = f.clone();
        self.aggregate_by_key(zero, f, g)
    }

    /// Wide (no combiner): group all values per key.
    pub fn group_by_key(&self) -> KeyedDataset<K, Vec<V>>
    where
        K: ByteSized,
        V: ByteSized,
    {
        let partitions = self.inner.num_partitions();
        KeyedDataset {
            inner: self.shuffle_with("GroupByKey", partitions, |bucket| {
                let mut groups: HashMap<K, Vec<V>> = HashMap::new();
                bucket(&mut |(k, v)| groups.entry(k).or_default().push(v));
                groups.into_iter().collect::<Vec<(K, Vec<V>)>>()
            }),
            stats: self.stats.clone(),
            partitioning: Partitioning::HashKeyed {
                seed: ROUTE_SEED,
                partitions,
            },
        }
    }

    /// Wide: count rows per key (reduce_by_key over 1s).
    pub fn count_by_key(&self) -> KeyedDataset<K, u64>
    where
        K: ByteSized,
    {
        self.map_values(|_| 1u64).reduce_by_key(|a, b| a + b)
    }

    /// Build the shuffle (or elided pass) behind a join: both sides
    /// tagged, routed into `partitions` buckets, `post` applied per
    /// bucket. When *both* sides are provably co-partitioned to match the
    /// routing, the boundary is elided with a two-parent pass: output
    /// partition `p` is `post(left_p ++ right_p)` — exactly the rows, in
    /// exactly the order, that bucket `p` of the naive tag-union shuffle
    /// would receive (each side's partition `p` is that bucket's only
    /// contributor, and left input partitions precede right ones in the
    /// union).
    fn join_shuffle<W, T, F>(
        &self,
        name: &'static str,
        other: &KeyedDataset<K, W>,
        partitions: usize,
        post: F,
    ) -> Dataset<T>
    where
        K: ByteSized,
        V: ByteSized,
        W: Clone + Send + Sync + ByteSized + SpillRow + 'static,
        T: Clone + Send + Sync + SpillRow + 'static,
        F: Fn(&mut dyn FnMut(&mut dyn FnMut((K, Either<V, W>)))) -> Vec<T> + Send + Sync + 'static,
    {
        if self.elides(partitions) && other.elides(partitions) {
            let left = self.inner.map(|(k, v)| (k, Either::Left(v)));
            let right = other.inner.map(|(k, w)| (k, Either::Right(w)));
            return self.shuffle_node(name, partitions, post, vec![left.op, right.op], true);
        }
        self.tag_union(other).shuffle_with(name, partitions, post)
    }

    /// The one constructor of a shuffle node: a [`ShuffleOp`] routed out
    /// of its one parent, or elided over `parents`' matching partitions.
    fn shuffle_node<U, T, F>(
        &self,
        name: &'static str,
        partitions: usize,
        post: F,
        parents: Vec<Arc<dyn Op<(K, U)>>>,
        elided: bool,
    ) -> Dataset<T>
    where
        K: ByteSized,
        U: Clone + Send + Sync + ByteSized + SpillRow + 'static,
        T: Clone + Send + Sync + SpillRow + 'static,
        F: Fn(&mut dyn FnMut(&mut dyn FnMut((K, U)))) -> Vec<T> + Send + Sync + 'static,
    {
        let (stats, cfg) = (self.stats.clone(), self.inner.store_cfg());
        let op = ShuffleOp::new(name, partitions, post, stats, cfg, parents, elided);
        Dataset {
            op: Arc::new(op),
            opt: self.inner.opt,
            stats: self.inner.stats.clone(),
        }
    }

    /// Wide: inner join with another keyed dataset — every (v, w) pair for
    /// matching keys.
    pub fn join<W>(&self, other: &KeyedDataset<K, W>) -> KeyedDataset<K, (V, W)>
    where
        K: ByteSized,
        V: ByteSized,
        W: Clone + Send + Sync + ByteSized + SpillRow + 'static,
    {
        let partitions = self
            .inner
            .num_partitions()
            .max(other.inner.num_partitions());
        KeyedDataset {
            // A closure, not the fn item: the post must take pushed rows of
            // every lifetime, which a generic fn instantiates for only one.
            inner: self.join_shuffle("Join", other, partitions, |bucket| join_bucket(bucket)),
            stats: self.stats.clone(),
            partitioning: Partitioning::HashKeyed {
                seed: ROUTE_SEED,
                partitions,
            },
        }
    }

    /// Wide: left-outer join — every left row appears, with `None` where
    /// the right side has no match.
    pub fn left_join<W>(&self, other: &KeyedDataset<K, W>) -> KeyedDataset<K, (V, Option<W>)>
    where
        K: ByteSized,
        V: ByteSized,
        W: Clone + Send + Sync + ByteSized + SpillRow + 'static,
    {
        let partitions = self
            .inner
            .num_partitions()
            .max(other.inner.num_partitions());
        KeyedDataset {
            inner: self.join_shuffle("LeftJoin", other, partitions, |bucket| {
                left_join_bucket(bucket)
            }),
            stats: self.stats.clone(),
            partitioning: Partitioning::HashKeyed {
                seed: ROUTE_SEED,
                partitions,
            },
        }
    }

    /// Narrow join: **broadcast hash join**. The (small) `other` side is
    /// materialized once and handed to every partition of `self`, so the
    /// big side never crosses a shuffle — Spark's broadcast-join
    /// optimization, the right plan when joining a fact table against a
    /// small dimension table (e.g. arrests ⋈ population in the §4
    /// pipeline). Semantics identical to [`KeyedDataset::join`] up to
    /// output order.
    pub fn broadcast_join<W>(&self, other: &KeyedDataset<K, W>) -> KeyedDataset<K, (V, W)>
    where
        W: Clone + Send + Sync + SpillRow + 'static,
    {
        let table: std::sync::Arc<HashMap<K, Vec<W>>> = {
            let mut m: HashMap<K, Vec<W>> = HashMap::new();
            for (k, w) in other.inner.collect() {
                m.entry(k).or_default().push(w);
            }
            std::sync::Arc::new(m)
        };
        let inner = self.inner.flat_map(move |(k, v)| {
            let matches: Vec<(K, (V, W))> = match table.get(&k) {
                Some(ws) => ws
                    .iter()
                    .map(|w| (k.clone(), (v.clone(), w.clone())))
                    .collect(),
                None => Vec::new(),
            };
            matches
        });
        KeyedDataset {
            inner,
            stats: self.stats.clone(),
            // The big side's rows never move; keys are unchanged.
            partitioning: self.partitioning,
        }
    }

    /// Action: collect as `(K, V)` pairs.
    pub fn collect(&self) -> Vec<(K, V)> {
        self.inner.collect()
    }

    /// Action: collect into a hash map (later duplicates win).
    pub fn collect_map(&self) -> HashMap<K, V> {
        self.inner.collect().into_iter().collect()
    }

    /// Action: row count.
    pub fn count(&self) -> usize {
        self.inner.count()
    }

    /// Action: collect scheduled by a cluster-layer [`Executor`].
    pub fn collect_with(&self, exec: &Executor) -> Vec<(K, V)>
    where
        K: ByteSized,
        V: ByteSized,
    {
        self.inner.collect_with(exec)
    }

    /// Action: count scheduled by a cluster-layer [`Executor`].
    pub fn count_with(&self, exec: &Executor) -> usize {
        self.inner.count_with(exec)
    }

    /// Lineage plan of the underlying dataset.
    pub fn explain(&self) -> String {
        self.inner.explain()
    }

    /// The optimizer's naive-vs-optimized view of the underlying plan.
    pub fn explain_plans(&self) -> PlanReport {
        self.inner.explain_plans()
    }

    // -- internals --

    /// Merge values per key *within* each partition (narrow).
    fn combine_within_partitions<F>(&self, f: F) -> KeyedDataset<K, V>
    where
        F: Fn(V, V) -> V + Send + Sync + 'static,
    {
        // Combining needs the whole partition, so it is a partition-wise
        // pass rather than a row-wise narrow op.
        KeyedDataset {
            inner: self
                .inner
                .fold_partitions(move |rows| fold_keyed(rows, |v| v, &f)),
            stats: self.stats.clone(),
            // Per-partition merging keeps every key where it was.
            partitioning: self.partitioning,
        }
    }

    /// Union of self (tagged Left) and other (tagged Right).
    fn tag_union<W>(&self, other: &KeyedDataset<K, W>) -> KeyedDataset<K, Either<V, W>>
    where
        W: Clone + Send + Sync + SpillRow + 'static,
    {
        let left = self.inner.map(|(k, v)| (k, Either::Left(v)));
        let right = other.inner.map(|(k, w)| (k, Either::Right(w)));
        KeyedDataset {
            inner: left.union_with(&right),
            stats: self.stats.clone(),
            // Concatenation shifts the right side's partition indices:
            // even two co-partitioned inputs stop satisfying any routing.
            partitioning: Partitioning::Arbitrary,
        }
    }
}

/// Two-sided tagged value used by joins.
#[derive(Debug, Clone, PartialEq)]
pub enum Either<L, R> {
    /// Left-side value.
    Left(L),
    /// Right-side value.
    Right(R),
}

impl<L: ByteSized, R: ByteSized> ByteSized for Either<L, R> {
    fn approx_bytes(&self) -> usize {
        match self {
            Either::Left(l) => l.approx_bytes(),
            Either::Right(r) => r.approx_bytes(),
        }
    }
}

impl<L: SpillRow, R: SpillRow> SpillRow for Either<L, R> {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        match self {
            Either::Left(l) => {
                out.push(0);
                l.spill_encode(out);
            }
            Either::Right(r) => {
                out.push(1);
                r.spill_encode(out);
            }
        }
    }
    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        match r.read_array::<1>()[0] {
            0 => Either::Left(L::spill_decode(r)),
            1 => Either::Right(R::spill_decode(r)),
            tag => panic!("invalid Either tag in spill stream: {tag}"),
        }
    }
}

/// Fold the `(K, V)` rows that `rows` pushes into its sink into one
/// accumulator per key, with one hash probe per row: a key's first value
/// seeds its accumulator through `first`, and each later value folds in
/// through `fold`. Every map-side combine and reduce-side merge of
/// `reduce_by_key` and `aggregate_by_key` runs through it. Output order is
/// the hash map's, as it always was.
fn fold_keyed<K: Hash + Eq, V, A>(
    rows: impl FnOnce(&mut dyn FnMut((K, V))),
    first: impl Fn(V) -> A,
    fold: impl Fn(A, V) -> A,
) -> Vec<(K, A)> {
    // The accumulator is moved out to fold and moved back in place, so the
    // probe that found the entry is the only one.
    let mut accs: HashMap<K, Option<A>> = HashMap::new();
    rows(&mut |(k, v)| match accs.entry(k) {
        Entry::Occupied(mut slot) => {
            let acc = slot
                .get_mut()
                .take()
                .expect("every key holds an accumulator");
            *slot.get_mut() = Some(fold(acc, v));
        }
        Entry::Vacant(slot) => {
            slot.insert(Some(first(v)));
        }
    });
    accs.into_iter()
        .map(|(k, acc)| (k, acc.expect("every key holds an accumulator")))
        .collect()
}

/// The inner-join post: every `(v, w)` pair of each key, left keys by
/// first arrival, then left values by arrival, then right values by
/// arrival.
fn join_bucket<K, V, W>(bucket: impl FnOnce(&mut dyn FnMut((K, Either<V, W>)))) -> Vec<(K, (V, W))>
where
    K: Clone + Hash + Eq,
    V: Clone,
    W: Clone,
{
    let b = JoinBucket::new(bucket);
    let mut out = Vec::with_capacity(b.left_keys.iter().map(|&id| b.pairs(id)).sum());
    for &id in &b.left_keys {
        let k = b.key(id);
        for v in b.left.values(id) {
            for w in b.right.values(id) {
                out.push((k.clone(), (v.clone(), w.clone())));
            }
        }
    }
    out
}

/// The left-outer-join post: [`join_bucket`]'s rows and order, with
/// `(v, None)` in place of the pairs of a left key no right value matches.
fn left_join_bucket<K, V, W>(
    bucket: impl FnOnce(&mut dyn FnMut((K, Either<V, W>))),
) -> Vec<(K, (V, Option<W>))>
where
    K: Clone + Hash + Eq,
    V: Clone,
    W: Clone,
{
    let b = JoinBucket::new(bucket);
    let rows = |id| b.pairs(id).max(b.left.len(id));
    let mut out = Vec::with_capacity(b.left_keys.iter().map(|&id| rows(id)).sum());
    for &id in &b.left_keys {
        let k = b.key(id);
        for v in b.left.values(id) {
            if b.right.len(id) == 0 {
                out.push((k.clone(), (v.clone(), None)));
            }
            for w in b.right.values(id) {
                out.push((k.clone(), (v.clone(), Some(w.clone()))));
            }
        }
    }
    out
}

/// A join bucket grouped by key in flat arrays, with no `Vec` per key:
/// every key gets an id on first arrival from either side, and each side
/// keeps its values in one array sorted by key id.
struct JoinBucket<K, V, W> {
    /// Keys by id.
    keys: Vec<Option<K>>,
    /// Ids of the keys with a left value, by first left arrival — the
    /// order join output follows.
    left_keys: Vec<u32>,
    left: Side<V>,
    right: Side<W>,
}

impl<K: Hash + Eq, V, W> JoinBucket<K, V, W> {
    fn new(bucket: impl FnOnce(&mut dyn FnMut((K, Either<V, W>)))) -> Self {
        let mut ids: HashMap<K, u32> = HashMap::new();
        let mut has_left: Vec<bool> = Vec::new();
        let mut left_keys = Vec::new();
        let mut left = Vec::new();
        let mut right = Vec::new();
        bucket(&mut |(k, side)| {
            let fresh = ids.len() as u32;
            let id = *ids.entry(k).or_insert(fresh);
            if id == fresh {
                has_left.push(false);
            }
            match side {
                Either::Left(v) => {
                    if !std::mem::replace(&mut has_left[id as usize], true) {
                        left_keys.push(id);
                    }
                    left.push((id, v));
                }
                Either::Right(w) => right.push((id, w)),
            }
        });
        let mut keys: Vec<Option<K>> = (0..ids.len()).map(|_| None).collect();
        for (k, id) in ids {
            keys[id as usize] = Some(k);
        }
        Self {
            left: Side::new(left, keys.len()),
            right: Side::new(right, keys.len()),
            keys,
            left_keys,
        }
    }

    fn key(&self, id: u32) -> &K {
        self.keys[id as usize]
            .as_ref()
            .expect("every id names a key")
    }

    /// Matched `(left, right)` pairs for key `id`.
    fn pairs(&self, id: u32) -> usize {
        self.left.len(id) * self.right.len(id)
    }
}

/// One side of a [`JoinBucket`]: key `id`'s values are
/// `rows[start[id]..start[id + 1]]`, in arrival order.
struct Side<V> {
    start: Vec<usize>,
    rows: Vec<(u32, V)>,
}

impl<V> Side<V> {
    fn new(mut rows: Vec<(u32, V)>, keys: usize) -> Self {
        // Stable: each key's values keep their arrival order.
        rows.sort_by_key(|&(id, _)| id);
        let mut start = vec![0; keys + 1];
        for &(id, _) in &rows {
            start[id as usize + 1] += 1;
        }
        for id in 0..keys {
            start[id + 1] += start[id];
        }
        Self { start, rows }
    }

    fn len(&self, id: u32) -> usize {
        self.start[id as usize + 1] - self.start[id as usize]
    }

    fn values(&self, id: u32) -> impl Iterator<Item = &V> {
        self.rows[self.start[id as usize]..self.start[id as usize + 1]]
            .iter()
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(pairs: Vec<(&'static str, i64)>, parts: usize) -> KeyedDataset<&'static str, i64> {
        KeyedDataset::from_dataset(Dataset::from_vec(pairs, parts))
    }

    #[test]
    fn reduce_by_key_sums() {
        let ds = kv(vec![("a", 1), ("b", 2), ("a", 3), ("c", 4), ("a", 5)], 3);
        let mut out = ds.reduce_by_key(|x, y| x + y).collect();
        out.sort();
        assert_eq!(out, vec![("a", 9), ("b", 2), ("c", 4)]);
    }

    #[test]
    fn group_by_key_collects_all_values() {
        let ds = kv(vec![("a", 1), ("a", 2), ("b", 3)], 2);
        let mut out = ds.group_by_key().collect();
        out.sort();
        // Values arrive in input-partition order.
        assert_eq!(out, vec![("a", vec![1, 2]), ("b", vec![3])]);
    }

    #[test]
    fn aggregate_by_key_changes_type() {
        // Per-key mean: accumulate (sum, count), finish on collect.
        let ds = kv(vec![("a", 2), ("a", 4), ("b", 10), ("a", 6)], 3);
        let mut means: Vec<(&str, f64)> = ds
            .aggregate_by_key(
                (0i64, 0u32),
                |(s, c), v| (s + v, c + 1),
                |a, b| (a.0 + b.0, a.1 + b.1),
            )
            .collect()
            .into_iter()
            .map(|(k, (s, c))| (k, s as f64 / c as f64))
            .collect();
        means.sort_by_key(|(k, _)| *k);
        assert_eq!(means, vec![("a", 4.0), ("b", 10.0)]);
    }

    #[test]
    fn aggregate_by_key_combines_map_side() {
        let rows: Vec<(u32, u64)> = (0..1000).map(|i| (i % 4, 1u64)).collect();
        let stats = ShuffleStats::new();
        let ds =
            KeyedDataset::from_dataset(Dataset::from_vec(rows, 5)).with_stats(Arc::clone(&stats));
        let mut out = ds
            .aggregate_by_key(0u64, |a, v| a + v, |a, b| a + b)
            .collect();
        out.sort();
        assert_eq!(out, vec![(0, 250), (1, 250), (2, 250), (3, 250)]);
        assert!(
            stats.records() <= 20,
            "map-side combining must bound shuffle: {}",
            stats.records()
        );
    }

    #[test]
    fn fold_by_key_matches_reduce_by_key() {
        let ds = kv(vec![("x", 3), ("y", 4), ("x", 5)], 2);
        let mut a = ds.fold_by_key(0, |p, q| p + q).collect();
        let mut b = ds.reduce_by_key(|p, q| p + q).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn count_by_key_counts() {
        let ds = kv(vec![("x", 0), ("y", 0), ("x", 0), ("x", 0)], 4);
        let m = ds.count_by_key().collect_map();
        assert_eq!(m["x"], 3);
        assert_eq!(m["y"], 1);
    }

    #[test]
    fn inner_join_matches_pairs() {
        let left = kv(vec![("a", 1), ("b", 2), ("a", 3)], 2);
        let right = KeyedDataset::from_dataset(Dataset::from_vec(
            vec![("a", "A1"), ("c", "C1"), ("a", "A2")],
            2,
        ));
        let mut out = left.join(&right).collect();
        out.sort();
        assert_eq!(
            out,
            vec![
                ("a", (1, "A1")),
                ("a", (1, "A2")),
                ("a", (3, "A1")),
                ("a", (3, "A2")),
            ]
        );
    }

    #[test]
    fn broadcast_join_matches_shuffle_join() {
        let left = kv(vec![("a", 1), ("b", 2), ("a", 3), ("d", 9)], 3);
        let right = KeyedDataset::from_dataset(Dataset::from_vec(
            vec![("a", "A1"), ("c", "C1"), ("a", "A2"), ("b", "B1")],
            2,
        ));
        let mut shuffle = left.join(&right).collect();
        let mut broadcast = left.broadcast_join(&right).collect();
        shuffle.sort();
        broadcast.sort();
        assert_eq!(shuffle, broadcast);
    }

    #[test]
    fn broadcast_join_is_narrow() {
        let stats = ShuffleStats::new();
        let left = kv(vec![("a", 1), ("b", 2)], 2).with_stats(Arc::clone(&stats));
        let right = kv(vec![("a", 10)], 1);
        let out = left.broadcast_join(&right).collect();
        assert_eq!(out, vec![("a", (1, 10))]);
        assert_eq!(
            stats.shuffles(),
            0,
            "broadcast join must not shuffle the big side"
        );
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let left = kv(vec![("a", 1), ("b", 2)], 1);
        let right = KeyedDataset::from_dataset(Dataset::from_vec(vec![("a", 10)], 1));
        let mut out = left.left_join(&right).collect();
        out.sort_by_key(|(k, _)| *k);
        assert_eq!(out, vec![("a", (1, Some(10))), ("b", (2, None))]);
    }

    #[test]
    fn map_values_and_filter_keys_are_narrow() {
        let stats = ShuffleStats::new();
        let ds = kv(vec![("a", 1), ("b", 2)], 2).with_stats(Arc::clone(&stats));
        let out = ds
            .map_values(|v| v * 10)
            .filter_keys(|k| *k == "a")
            .collect();
        assert_eq!(out, vec![("a", 10)]);
        assert_eq!(stats.shuffles(), 0, "narrow ops must not shuffle");
    }

    #[test]
    fn map_side_combine_cuts_shuffle_volume() {
        // 1000 rows, 2 keys, 4 partitions: reduce_by_key should shuffle at
        // most 8 records; group_by_key shuffles all 1000.
        let rows: Vec<(u32, u64)> = (0..1000).map(|i| (i % 2, 1u64)).collect();
        let stats_reduce = ShuffleStats::new();
        let ds = KeyedDataset::from_dataset(Dataset::from_vec(rows.clone(), 4))
            .with_stats(Arc::clone(&stats_reduce));
        let mut reduced = ds.reduce_by_key(|a, b| a + b).collect();
        reduced.sort();
        assert_eq!(reduced, vec![(0, 500), (1, 500)]);
        assert!(
            stats_reduce.records() <= 8,
            "shuffled {}",
            stats_reduce.records()
        );

        let stats_group = ShuffleStats::new();
        let ds = KeyedDataset::from_dataset(Dataset::from_vec(rows, 4))
            .with_stats(Arc::clone(&stats_group));
        let grouped = ds.group_by_key().collect();
        assert_eq!(grouped.iter().map(|(_, v)| v.len()).sum::<usize>(), 1000);
        assert_eq!(stats_group.records(), 1000);
    }

    #[test]
    fn shuffle_materializes_once_per_action_chain() {
        let stats = ShuffleStats::new();
        let ds = kv(vec![("a", 1), ("b", 2), ("a", 3)], 2).with_stats(Arc::clone(&stats));
        let reduced = ds.reduce_by_key(|x, y| x + y);
        reduced.count();
        reduced.collect();
        // The shuffle op memoizes: two actions, one materialization.
        assert_eq!(stats.shuffles(), 1);
    }

    #[test]
    fn chained_aggregation_elides_second_shuffle() {
        use crate::optimize::OptimizerConfig;
        let rows: Vec<(u32, u64)> = (0..300).map(|i| (i % 16, 1u64)).collect();
        let run = |cfg: OptimizerConfig| {
            let stats = ShuffleStats::new();
            let ds =
                KeyedDataset::from_dataset(Dataset::from_vec(rows.clone(), 4).with_optimizer(cfg))
                    .with_stats(Arc::clone(&stats));
            // reduce_by_key leaves the data hash-partitioned; the second
            // aggregation routes by the same seed into the same count.
            let mut out = ds
                .reduce_by_key(|a, b| a + b)
                .filter_keys(|k| k % 2 == 0)
                .map_values(|v| v * 10)
                .reduce_by_key(|a, b| a + b)
                .collect();
            out.sort();
            (out, stats.shuffles(), stats.shuffles_elided())
        };
        let (optimized, shuffles, elided) = run(OptimizerConfig::default());
        let (naive, naive_shuffles, naive_elided) = run(OptimizerConfig::naive());
        assert_eq!(optimized, naive, "elision must be invisible in the rows");
        assert_eq!((shuffles, elided), (1, 1), "second boundary elided");
        assert_eq!((naive_shuffles, naive_elided), (2, 0));
    }

    #[test]
    fn co_partitioned_join_elides_shuffle() {
        use crate::optimize::OptimizerConfig;
        let lrows: Vec<(u32, u64)> = (0..200).map(|i| (i % 10, 1u64)).collect();
        let rrows: Vec<(u32, u64)> = (0..100).map(|i| (i % 7, 2u64)).collect();
        let run = |cfg: OptimizerConfig| {
            let stats = ShuffleStats::new();
            let left =
                KeyedDataset::from_dataset(Dataset::from_vec(lrows.clone(), 4).with_optimizer(cfg))
                    .with_stats(Arc::clone(&stats))
                    .count_by_key();
            let right =
                KeyedDataset::from_dataset(Dataset::from_vec(rrows.clone(), 4).with_optimizer(cfg))
                    .with_stats(Arc::clone(&stats))
                    .count_by_key();
            let mut out = left.left_join(&right).collect();
            out.sort();
            (out, stats.shuffles(), stats.shuffles_elided())
        };
        let (optimized, shuffles, elided) = run(OptimizerConfig::default());
        let (naive, naive_shuffles, naive_elided) = run(OptimizerConfig::naive());
        assert_eq!(
            optimized, naive,
            "co-partitioned join must match shuffled join"
        );
        assert_eq!(
            (shuffles, elided),
            (2, 1),
            "two count shuffles stay, the join boundary is elided"
        );
        assert_eq!((naive_shuffles, naive_elided), (3, 0));
    }

    #[test]
    fn mismatched_seed_does_not_elide() {
        use peachy_cluster::dist::ROUTE_SEED;
        let rows: Vec<(u32, u64)> = (0..100).map(|i| (i % 8, 1u64)).collect();
        let stats = ShuffleStats::new();
        // A layout claimed under a *different* seed does not satisfy the
        // shuffle's routing: the shuffle must run for real.
        let ds = KeyedDataset::from_dataset(Dataset::from_vec(rows.clone(), 4))
            .with_stats(Arc::clone(&stats))
            .assume_hash_partitioned(ROUTE_SEED ^ 1, 4);
        let mut out = ds.reduce_by_key(|a, b| a + b).collect();
        out.sort();
        let expected: Vec<(u32, u64)> = (0..8).map(|k| (k, if k < 4 { 13 } else { 12 })).collect();
        assert_eq!(out, expected);
        assert_eq!(stats.shuffles(), 1, "wrong seed: no elision");
        assert_eq!(stats.shuffles_elided(), 0);
    }

    #[test]
    fn mismatched_partition_count_does_not_elide() {
        let lrows: Vec<(u32, u64)> = (0..200).map(|i| (i % 10, 1u64)).collect();
        let rrows: Vec<(u32, u64)> = (0..100).map(|i| (i % 7, 2u64)).collect();
        let stats = ShuffleStats::new();
        // Both sides genuinely hash-partitioned — but into *different*
        // counts (4 and 6). The join routes into max(4, 6) = 6 buckets,
        // which neither layout satisfies: the shuffle must run.
        let left = KeyedDataset::from_dataset(Dataset::from_vec(lrows.clone(), 4))
            .with_stats(Arc::clone(&stats))
            .count_by_key();
        let right = KeyedDataset::from_dataset(Dataset::from_vec(rrows.clone(), 6))
            .with_stats(Arc::clone(&stats))
            .count_by_key();
        let mut out = left.left_join(&right).collect();
        out.sort();
        assert_eq!(
            (stats.shuffles(), stats.shuffles_elided()),
            (3, 0),
            "count mismatch: the join boundary must not elide"
        );
        // Same rows as the fully co-partitioned variant of this join.
        let co_left = KeyedDataset::from_dataset(Dataset::from_vec(lrows, 6)).count_by_key();
        let co_right = KeyedDataset::from_dataset(Dataset::from_vec(rrows, 6)).count_by_key();
        let mut expected = co_left.left_join(&co_right).collect();
        expected.sort();
        assert_eq!(out, expected);
    }

    #[test]
    fn elision_disabled_by_config() {
        use crate::optimize::OptimizerConfig;
        let rows: Vec<(u32, u64)> = (0..100).map(|i| (i % 8, 1u64)).collect();
        let stats = ShuffleStats::new();
        let cfg = OptimizerConfig {
            elide_shuffles: false,
            ..OptimizerConfig::default()
        };
        let ds = KeyedDataset::from_dataset(Dataset::from_vec(rows, 4).with_optimizer(cfg))
            .with_stats(Arc::clone(&stats));
        ds.reduce_by_key(|a, b| a + b)
            .reduce_by_key(|a, b| a + b)
            .collect();
        assert_eq!(stats.shuffles(), 2, "elision off: both boundaries run");
        assert_eq!(stats.shuffles_elided(), 0);
    }

    #[test]
    fn assume_hash_partitioned_enables_elision_on_reload() {
        use peachy_cluster::dist::ROUTE_SEED;
        // Simulate writing shuffled output and reloading it: the reloaded
        // dataset's layout is hash-keyed, but the type system forgot. The
        // claim restores the knowledge and the re-aggregation elides.
        let rows: Vec<(String, u64)> = (0..200).map(|i| (format!("key{}", i % 12), 1u64)).collect();
        let first =
            KeyedDataset::from_dataset(Dataset::from_vec(rows, 4)).reduce_by_key(|a, b| a + b);
        let stats = ShuffleStats::new();
        let claimed = KeyedDataset::from_dataset(first.rows())
            .with_stats(Arc::clone(&stats))
            .assume_hash_partitioned(ROUTE_SEED, 4);
        let mut a = claimed.reduce_by_key(|x, y| x + y).collect();
        a.sort();
        let mut b = first.collect();
        b.sort();
        assert_eq!(
            a, b,
            "per-key totals already final: elided re-reduce is identity"
        );
        assert_eq!(stats.shuffles(), 0);
        assert_eq!(stats.shuffles_elided(), 1);
    }

    /// The join posts against a nested-loop reference: for each left key by
    /// first arrival, each of its left values by arrival, each matching
    /// right value by arrival (`outer`: `None` when there is none).
    fn nested_loop_join(
        bucket: &[(String, Either<u64, u64>)],
        outer: bool,
    ) -> Vec<(String, (u64, Option<u64>))> {
        let mut done: Vec<&String> = Vec::new();
        let mut out = Vec::new();
        for (k, side) in bucket {
            if !matches!(side, Either::Left(_)) || done.contains(&k) {
                continue;
            }
            done.push(k);
            for (lk, l) in bucket {
                let Either::Left(v) = l else { continue };
                if lk != k {
                    continue;
                }
                let mut matched = false;
                for (rk, r) in bucket {
                    if let (true, Either::Right(w)) = (rk == k, r) {
                        out.push((k.clone(), (*v, Some(*w))));
                        matched = true;
                    }
                }
                if outer && !matched {
                    out.push((k.clone(), (*v, None)));
                }
            }
        }
        out
    }

    #[test]
    fn join_kernels_emit_nested_loop_order() {
        use peachy_prng::{Lcg64, RandomStream};
        for seed in 0..16u64 {
            let mut rng = Lcg64::seed_from(seed);
            // Keys 0..8 can arrive on either side (so repeat on both);
            // keys 8..10 are left-only and 10..12 right-only. Values are
            // arrival indices, so any reordering shows.
            let bucket: Vec<(String, Either<u64, u64>)> = (0..240u64)
                .map(|i| {
                    let key = rng.next_u64() % 12;
                    let left = match key {
                        0..=7 => rng.next_u64() % 2 == 0,
                        8..=9 => true,
                        _ => false,
                    };
                    let side = if left {
                        Either::Left(i)
                    } else {
                        Either::Right(i)
                    };
                    (format!("key-{key}"), side)
                })
                .collect();

            let inner: Vec<(String, (u64, u64))> = nested_loop_join(&bucket, false)
                .into_iter()
                .map(|(k, (v, w))| (k, (v, w.expect("inner rows match"))))
                .collect();
            assert_eq!(
                join_bucket(|emit| bucket.iter().cloned().for_each(emit)),
                inner,
                "seed {seed}"
            );

            let outer = nested_loop_join(&bucket, true);
            assert!(
                outer.iter().any(|(_, (_, w))| w.is_none()),
                "seed {seed}: unmatched left keys"
            );
            assert_eq!(
                left_join_bucket(|emit| bucket.iter().cloned().for_each(emit)),
                outer,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn empty_keyed_dataset() {
        let ds = kv(vec![], 3);
        assert!(ds.reduce_by_key(|a, b| a + b).collect().is_empty());
        assert!(ds.group_by_key().collect().is_empty());
        let other = kv(vec![("a", 1)], 1);
        assert!(ds.join(&other).collect().is_empty());
    }
}
