//! The MapReduce engine: map, combine, collate (shuffle), reduce, gather.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use peachy_cluster::dist::ROUTE_SEED;
use peachy_cluster::{ByteSized, Comm};

/// Balanced block distribution of `n` items over `size` ranks: rank `r`
/// owns a contiguous range, sizes differing by at most one. Re-exported
/// from the workspace-wide partition vocabulary.
pub use peachy_cluster::dist::block_range;

/// A rank-local store of key–value pairs produced by a map phase.
#[derive(Debug, Clone)]
pub struct Kv<K, V> {
    pairs: Vec<(K, V)>,
}

impl<K, V> Kv<K, V> {
    /// An empty store.
    pub fn new() -> Self {
        Self { pairs: Vec::new() }
    }

    /// Number of local pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the local store is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Borrow the local pairs.
    pub fn pairs(&self) -> &[(K, V)] {
        &self.pairs
    }

    /// Add one pair.
    pub fn emit(&mut self, key: K, value: V) {
        self.pairs.push((key, value));
    }
}

impl<K: Hash + Eq, V> Kv<K, V> {
    /// Local pre-reduction (a *combiner*): merge all local values sharing a
    /// key with `f` before the shuffle, cutting communication volume.
    ///
    /// This is the two-level optimization of §2: the cross-rank shuffle then
    /// carries one pair per (rank, key) instead of one per emission.
    pub fn combine<F>(self, f: F) -> Kv<K, V>
    where
        F: Fn(V, V) -> V,
    {
        // One probe per pair: the merged value is moved out of its slot to
        // fold and moved back in place.
        let mut merged: HashMap<K, Option<V>> = HashMap::new();
        for (k, v) in self.pairs {
            match merged.entry(k) {
                Entry::Occupied(mut slot) => {
                    let prev = slot.get_mut().take().expect("every key holds a value");
                    *slot.get_mut() = Some(f(prev, v));
                }
                Entry::Vacant(slot) => {
                    slot.insert(Some(v));
                }
            }
        }
        Kv {
            pairs: merged
                .into_iter()
                .map(|(k, v)| (k, v.expect("every key holds a value")))
                .collect(),
        }
    }
}

impl<K, V> Default for Kv<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// A rank-local store of grouped pairs after the shuffle: each key this
/// rank owns, with *all* values for it from every rank.
#[derive(Debug, Clone)]
pub struct Grouped<K, V> {
    groups: Vec<(K, Vec<V>)>,
}

impl<K, V> Grouped<K, V> {
    /// Number of keys owned by this rank.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether this rank owns no keys.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Borrow the groups.
    pub fn groups(&self) -> &[(K, Vec<V>)] {
        &self.groups
    }

    /// Reduce each key's value list to a single result, locally.
    pub fn reduce<R, F>(self, f: F) -> Vec<(K, R)>
    where
        F: Fn(&K, Vec<V>) -> R,
    {
        self.groups
            .into_iter()
            .map(|(k, vs)| {
                let r = f(&k, vs);
                (k, r)
            })
            .collect()
    }
}

/// Stable key→rank routing: `stable_hash(key) % size`. Uses the
/// workspace's seeded version-stable hasher so every rank computes
/// identical routes — and keeps computing them across Rust releases,
/// unlike `DefaultHasher`.
fn owner_of<K: Hash>(key: &K, size: usize) -> usize {
    peachy_cluster::dist::owner_of_key(key, size, ROUTE_SEED)
}

/// The per-rank MapReduce driver, borrowing the rank's communicator.
pub struct MapReduce<'c> {
    comm: &'c mut Comm,
}

impl<'c> MapReduce<'c> {
    /// Wrap a communicator.
    pub fn new(comm: &'c mut Comm) -> Self {
        Self { comm }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Cluster size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The half-open range of global task indices this rank maps, using
    /// balanced block distribution (first `n_tasks % size` ranks get one
    /// extra — the uneven-division pattern §7 teaches).
    pub fn my_tasks(&self, n_tasks: usize) -> std::ops::Range<usize> {
        block_range(n_tasks, self.size(), self.rank())
    }

    /// Map phase: `n_tasks` global tasks are block-distributed over ranks;
    /// this rank calls `f(task_index, emit)` for each of its tasks.
    pub fn map<K, V, F>(&mut self, n_tasks: usize, f: F) -> Kv<K, V>
    where
        F: Fn(usize, &mut dyn FnMut(K, V)),
    {
        let mut kv = Kv::new();
        for i in self.my_tasks(n_tasks) {
            let mut emit = |k: K, v: V| kv.emit(k, v);
            f(i, &mut emit);
        }
        kv
    }

    /// Collate: shuffle pairs to their owner rank (`hash(key) % size`) and
    /// group values by key. Collective — every rank must call it.
    pub fn collate<K, V>(&mut self, kv: Kv<K, V>) -> Grouped<K, V>
    where
        K: Hash + Eq + Send + ByteSized + 'static,
        V: Send + ByteSized + 'static,
    {
        let size = self.size();
        // Bucket local pairs by destination rank.
        let mut buckets: Vec<Vec<(K, V)>> = (0..size).map(|_| Vec::new()).collect();
        for (k, v) in kv.pairs {
            let dst = owner_of(&k, size);
            buckets[dst].push((k, v));
        }
        // One all-to-all exchange carries everything.
        let received = self.comm.alltoall(buckets);
        // Group by key.
        let mut groups: HashMap<K, Vec<V>> = HashMap::new();
        for bucket in received {
            for (k, v) in bucket {
                groups.entry(k).or_default().push(v);
            }
        }
        Grouped {
            groups: groups.into_iter().collect(),
        }
    }

    /// Gather every rank's reduced pairs at `root` (`Some` there, `None`
    /// elsewhere). Collective.
    pub fn gather_results<K, R>(&mut self, root: usize, local: Vec<(K, R)>) -> Option<Vec<(K, R)>>
    where
        K: Send + ByteSized + 'static,
        R: Send + ByteSized + 'static,
    {
        self.comm
            .gather(root, local)
            .map(|per_rank| per_rank.into_iter().flatten().collect())
    }

    /// Gather every rank's reduced pairs on *all* ranks. Collective.
    pub fn allgather_results<K, R>(&mut self, local: Vec<(K, R)>) -> Vec<(K, R)>
    where
        K: Clone + Send + ByteSized + 'static,
        R: Clone + Send + ByteSized + 'static,
    {
        self.comm.allgather(local).into_iter().flatten().collect()
    }

    /// Total pair count across all ranks (for communication-cost
    /// accounting in tests/benches). Collective.
    pub fn global_pair_count<K, V>(&mut self, kv: &Kv<K, V>) -> u64 {
        self.comm.allreduce(kv.len() as u64, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachy_cluster::Cluster;

    #[test]
    fn block_range_covers_everything() {
        for n in [0usize, 1, 7, 10, 100] {
            for size in [1usize, 2, 3, 7, 16] {
                let mut total = 0;
                let mut expected_start = 0;
                for r in 0..size {
                    let range = block_range(n, size, r);
                    assert_eq!(range.start, expected_start, "ranges must be contiguous");
                    expected_start = range.end;
                    total += range.len();
                }
                assert_eq!(total, n, "n={n} size={size}");
            }
        }
    }

    #[test]
    fn block_range_balanced() {
        // 10 tasks over 4 ranks: 3,3,2,2.
        let sizes: Vec<usize> = (0..4).map(|r| block_range(10, 4, r).len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn map_covers_all_tasks_exactly_once() {
        let out = Cluster::run(3, |comm| {
            let mut mr = MapReduce::new(comm);
            let kv = mr.map(10, |i, emit| emit(i, ()));
            kv.pairs().iter().map(|&(k, _)| k).collect::<Vec<_>>()
        });
        let mut all: Vec<usize> = out.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn collate_groups_all_values_for_a_key() {
        let out = Cluster::run(4, |comm| {
            let mut mr = MapReduce::new(comm);
            // Every rank emits ("x", rank) and ("y", rank*10).
            let mut kv = Kv::new();
            kv.emit("x", mr.rank());
            kv.emit("y", mr.rank() * 10);
            let grouped = mr.collate(kv);
            let reduced = grouped.reduce(|_, mut vs| {
                vs.sort_unstable();
                vs
            });
            mr.allgather_results(reduced)
        });
        for result in out {
            let mut result = result;
            result.sort();
            assert_eq!(
                result,
                vec![("x", vec![0, 1, 2, 3]), ("y", vec![0, 10, 20, 30])]
            );
        }
    }

    #[test]
    fn keys_are_owned_by_exactly_one_rank() {
        let out = Cluster::run(4, |comm| {
            let mut mr = MapReduce::new(comm);
            let kv = mr.map(100, |i, emit| emit(i % 17, 1u32));
            let grouped = mr.collate(kv);
            grouped.groups().iter().map(|(k, _)| *k).collect::<Vec<_>>()
        });
        let mut all: Vec<usize> = out.into_iter().flatten().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 17, "each key owned exactly once");
    }

    #[test]
    fn combine_preserves_reduction_result() {
        // Sum per key must be identical with and without the combiner.
        let run = |use_combiner: bool| {
            Cluster::run(3, move |comm| {
                let mut mr = MapReduce::new(comm);
                let kv = mr.map(60, |i, emit| emit(i % 5, i as u64));
                let kv = if use_combiner {
                    kv.combine(|a, b| a + b)
                } else {
                    kv
                };
                let grouped = mr.collate(kv);
                let mut res = mr.allgather_results(grouped.reduce(|_, vs| vs.iter().sum::<u64>()));
                res.sort();
                res
            })
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn combine_cuts_shuffled_pair_count() {
        let counts = Cluster::run(4, |comm| {
            let mut mr = MapReduce::new(comm);
            let kv = mr.map(400, |i, emit| emit(i % 3, 1u64));
            let before = mr.global_pair_count(&kv);
            let kv = kv.combine(|a, b| a + b);
            let after = mr.global_pair_count(&kv);
            (before, after)
        });
        let (before, after) = counts[0];
        assert_eq!(before, 400);
        assert!(
            after <= 12,
            "after combine: ≤ keys × ranks = 3×4 pairs, got {after}"
        );
    }

    #[test]
    fn gather_results_only_at_root() {
        let out = Cluster::run(3, |comm| {
            let mut mr = MapReduce::new(comm);
            let kv = mr.map(9, |i, emit| emit(i, i * i));
            let grouped = mr.collate(kv);
            let reduced = grouped.reduce(|_, vs| vs[0]);
            mr.gather_results(2, reduced)
        });
        assert!(out[0].is_none() && out[1].is_none());
        let mut table = out[2].clone().unwrap();
        table.sort();
        assert_eq!(table, (0..9).map(|i| (i, i * i)).collect::<Vec<_>>());
    }

    #[test]
    fn empty_map_produces_empty_result() {
        let out = Cluster::run(2, |comm| {
            let mut mr = MapReduce::new(comm);
            let kv: Kv<u32, u32> = mr.map(0, |_, _| unreachable!());
            let grouped = mr.collate(kv);
            mr.allgather_results(grouped.reduce(|_, vs| vs.len()))
        });
        assert!(out.iter().all(Vec::is_empty));
    }

    #[test]
    fn single_rank_degenerates_to_sequential() {
        let out = Cluster::run(1, |comm| {
            let mut mr = MapReduce::new(comm);
            let kv = mr.map(5, |i, emit| emit("k", i as u64));
            let grouped = mr.collate(kv);
            grouped.reduce(|_, vs| vs.iter().sum::<u64>())
        });
        assert_eq!(out[0], vec![("k", 10)]);
    }
}
