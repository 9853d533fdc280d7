//! The served k-NN database: rows packed once into the panel layout of
//! [`peachy_data::kernels::Panels`], plus their labels.
//!
//! Answers are bit-identical to the row-major [`crate::brute`] reference:
//! [`dist2_scan_panels`] visits the same rows in the same order with the
//! same distance bits as [`peachy_data::kernels::dist2_scan`], so the heap
//! sees the same offers. Only the scan is faster.

use peachy_cluster::dist::EvenBlocks;
use peachy_cluster::{CommStats, Executor};
use peachy_data::kernels::{dist2_scan_panels, Panels};
use peachy_data::matrix::{LabeledDataset, Matrix};

use crate::heap::BoundedMaxHeap;
use crate::{majority_vote, Neighbor};

/// A labelled database packed for repeated exact queries.
pub struct KnnIndex {
    rows: Panels,
    labels: Vec<u32>,
    classes: u32,
}

impl KnnIndex {
    /// Pack `db`'s points in place (Θ(n·d), no second copy of the rows).
    pub fn new(db: LabeledDataset) -> Self {
        Self {
            rows: Panels::new(db.points),
            labels: db.labels,
            classes: db.classes,
        }
    }

    /// Number of database points.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the database is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Dimensionality of the points.
    #[inline]
    pub fn dims(&self) -> usize {
        self.rows.cols()
    }

    /// The k nearest points to `query` by bounded max-heap, Θ(n (d + log k));
    /// equal to [`crate::brute::nearest_heap`] on the unpacked database.
    pub fn nearest(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        assert!(!self.is_empty(), "empty database");
        assert_eq!(query.len(), self.dims(), "query dimensionality mismatch");
        let mut heap = BoundedMaxHeap::new(k.min(self.len()));
        dist2_scan_panels(&self.rows, query, |i, d2| {
            if heap.would_keep(d2) {
                heap.offer(Neighbor {
                    dist2: d2,
                    index: i,
                    label: self.labels[i],
                });
            }
        });
        heap.into_sorted()
    }

    /// Classify one query by k-NN + majority vote.
    pub fn classify(&self, query: &[f64], k: usize) -> u32 {
        majority_vote(&self.nearest(query, k), self.classes)
    }

    /// Classify every row of `queries` on the chosen [`Executor`] backend:
    /// queries are block-partitioned, each part classifies its own slice,
    /// and the per-part predictions are concatenated in part order.
    /// Predictions are per-query integers, so every backend and every
    /// decomposition produces the output of
    /// [`crate::brute::classify_batch_seq`].
    pub fn classify_batch_with(&self, queries: &Matrix, k: usize, exec: &Executor) -> Vec<u32> {
        self.classify_batch_opt_stats(queries, k, exec, None)
    }

    /// [`KnnIndex::classify_batch_with`], also accumulating scatter/gather
    /// element counts and (on the cluster backend) collective payload bytes
    /// into `stats` — the same [`CommStats`] vocabulary the kmeans executor
    /// path reports into, so E15/E16-style backend comparisons can include
    /// k-NN.
    pub fn classify_batch_with_stats(
        &self,
        queries: &Matrix,
        k: usize,
        exec: &Executor,
        stats: &CommStats,
    ) -> Vec<u32> {
        self.classify_batch_opt_stats(queries, k, exec, Some(stats))
    }

    fn classify_batch_opt_stats(
        &self,
        queries: &Matrix,
        k: usize,
        exec: &Executor,
        stats: Option<&CommStats>,
    ) -> Vec<u32> {
        let n = queries.rows();
        if n == 0 {
            return Vec::new();
        }
        // Refit the backend to the batch: a cluster executor configured with
        // more ranks than there are queries still classifies correctly.
        let exec = exec.shrink_to(n);
        let dist = EvenBlocks::new(n, exec.parts_for(n));
        let kernel = |_p: usize, range: std::ops::Range<usize>| {
            range
                .map(|q| self.classify(queries.row(q), k))
                .collect::<Vec<u32>>()
        };
        match stats {
            Some(s) => exec.map_parts_counted(&dist, s, kernel),
            None => exec.map_parts(&dist, kernel),
        }
        .concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::classify_batch_seq;
    use peachy_data::synth::gaussian_blobs;

    #[test]
    fn executor_backends_match_sequential() {
        let db = gaussian_blobs(250, 6, 3, 2.0, 9);
        let queries = gaussian_blobs(61, 6, 3, 2.0, 10);
        let reference = classify_batch_seq(&db, &queries, 5);
        let index = KnnIndex::new(db);
        for exec in [Executor::seq(), Executor::rayon(8), Executor::cluster(4)] {
            assert_eq!(
                index.classify_batch_with(&queries.points, 5, &exec),
                reference,
                "{exec:?}"
            );
        }
    }

    #[test]
    fn counted_batch_matches_and_feeds_stats() {
        let db = gaussian_blobs(200, 5, 3, 2.0, 13);
        let queries = gaussian_blobs(37, 5, 3, 2.0, 14);
        let reference = classify_batch_seq(&db, &queries, 5);
        let index = KnnIndex::new(db);

        let s = CommStats::new();
        let pred = index.classify_batch_with_stats(&queries.points, 5, &Executor::rayon(4), &s);
        assert_eq!(pred, reference);
        assert_eq!(s.scattered(), 37, "one element per query scattered");
        assert_eq!(s.gathered(), 4, "one result per part gathered");
        assert_eq!(s.collective_bytes(), 0, "rayon borrows, moves no bytes");

        let s = CommStats::new();
        let pred = index.classify_batch_with_stats(&queries.points, 5, &Executor::cluster(4), &s);
        assert_eq!(pred, reference);
        assert!(s.collective_bytes() > 0, "cluster pays for what it moves");
    }

    #[test]
    fn batch_smaller_than_rank_count_shrinks() {
        let db = gaussian_blobs(100, 4, 2, 2.0, 15);
        let queries = gaussian_blobs(2, 4, 2, 2.0, 16);
        let reference = classify_batch_seq(&db, &queries, 3);
        // 8 ranks, 2 queries: must shrink instead of panicking.
        assert_eq!(
            KnnIndex::new(db).classify_batch_with(&queries.points, 3, &Executor::cluster(8)),
            reference
        );
    }
}
