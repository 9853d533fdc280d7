//! Brute-force k-NN: the direct Θ(nqd) algorithm with both top-k selection
//! strategies and a pool-parallel batch classifier, over the row-major
//! database. These are the reference every other k-NN path (the packed
//! [`crate::KnnIndex`], the trees, MapReduce, the GPU model) is held to.

use peachy_data::kernels::dist2_scan;
use peachy_data::matrix::LabeledDataset;
use peachy_par::prelude::*;

use crate::heap::BoundedMaxHeap;
use crate::{majority_vote, Neighbor};

/// The k nearest database neighbours of `query`, by bounded max-heap:
/// Θ(n (d + log k)). Distances come from the lane-blocked
/// [`dist2_scan`] kernel, which visits rows in ascending order with
/// bit-identical values to the scalar loop — so heap contents (and the
/// exact-agreement guarantees with the tree/GPU backends) are unchanged.
pub fn nearest_heap(db: &LabeledDataset, query: &[f64], k: usize) -> Vec<Neighbor> {
    assert!(!db.is_empty(), "empty database");
    assert_eq!(query.len(), db.dims(), "query dimensionality mismatch");
    let k = k.min(db.len());
    let mut heap = BoundedMaxHeap::new(k);
    dist2_scan(&db.points, 0..db.len(), query, |i, d2| {
        if heap.would_keep(d2) {
            heap.offer(Neighbor {
                dist2: d2,
                index: i,
                label: db.labels[i],
            });
        }
    });
    heap.into_sorted()
}

/// The k nearest neighbours by full sort: Θ(n (d + log n)) — the baseline
/// the assignment's cost analysis compares against.
pub fn nearest_sort(db: &LabeledDataset, query: &[f64], k: usize) -> Vec<Neighbor> {
    assert!(!db.is_empty(), "empty database");
    assert_eq!(query.len(), db.dims(), "query dimensionality mismatch");
    let k = k.min(db.len());
    let mut all: Vec<Neighbor> = Vec::with_capacity(db.len());
    dist2_scan(&db.points, 0..db.len(), query, |i, d2| {
        all.push(Neighbor {
            dist2: d2,
            index: i,
            label: db.labels[i],
        });
    });
    all.sort_by(|a, b| {
        a.cmp_key()
            .partial_cmp(&b.cmp_key())
            .expect("finite distances")
    });
    all.truncate(k);
    all
}

/// Classify one query by heap-based k-NN + majority vote.
pub fn classify_heap(db: &LabeledDataset, query: &[f64], k: usize) -> u32 {
    majority_vote(&nearest_heap(db, query, k), db.classes)
}

/// Classify one query by sort-based k-NN + majority vote.
pub fn classify_sort(db: &LabeledDataset, query: &[f64], k: usize) -> u32 {
    majority_vote(&nearest_sort(db, query, k), db.classes)
}

/// Sequentially classify every query row.
pub fn classify_batch_seq(db: &LabeledDataset, queries: &LabeledDataset, k: usize) -> Vec<u32> {
    (0..queries.len())
        .map(|q| classify_heap(db, queries.points.row(q), k))
        .collect()
}

/// Classify every query row in parallel over the rayon pool — the
/// shared-memory (OpenMP-analogue) adaptation of the assignment. Queries
/// are embarrassingly parallel; output order matches input order.
pub fn classify_batch_par(db: &LabeledDataset, queries: &LabeledDataset, k: usize) -> Vec<u32> {
    (0..queries.len())
        .into_par_iter()
        .map(|q| classify_heap(db, queries.points.row(q), k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachy_data::matrix::Matrix;
    use peachy_data::synth::gaussian_blobs;

    fn tiny_db() -> LabeledDataset {
        // 1-D points 0..6, label = point < 3 ? 0 : 1.
        let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        LabeledDataset::new(Matrix::from_rows(&rows), vec![0, 0, 0, 1, 1, 1], 2)
    }

    #[test]
    fn nearest_heap_finds_true_neighbours() {
        let db = tiny_db();
        let nn = nearest_heap(&db, &[2.2], 3);
        let idx: Vec<usize> = nn.iter().map(|n| n.index).collect();
        assert_eq!(idx, vec![2, 3, 1]); // distances 0.04, 0.64, 1.44
    }

    #[test]
    fn heap_and_sort_agree_exactly() {
        let db = gaussian_blobs(400, 6, 4, 2.0, 3);
        let queries = gaussian_blobs(50, 6, 4, 2.0, 4);
        for q in 0..queries.len() {
            let query = queries.points.row(q);
            for k in [1, 5, 17] {
                assert_eq!(
                    nearest_heap(&db, query, k),
                    nearest_sort(&db, query, k),
                    "q={q} k={k}"
                );
            }
        }
    }

    #[test]
    fn k_larger_than_db_is_clamped() {
        let db = tiny_db();
        let nn = nearest_heap(&db, &[0.0], 100);
        assert_eq!(nn.len(), 6);
    }

    #[test]
    fn classify_respects_majority() {
        let db = tiny_db();
        assert_eq!(classify_heap(&db, &[0.5], 3), 0);
        assert_eq!(classify_heap(&db, &[4.5], 3), 1);
    }

    #[test]
    fn parallel_matches_sequential() {
        let db = gaussian_blobs(300, 8, 3, 2.5, 7);
        let queries = gaussian_blobs(80, 8, 3, 2.5, 8);
        assert_eq!(
            classify_batch_seq(&db, &queries, 7),
            classify_batch_par(&db, &queries, 7)
        );
    }

    #[test]
    fn well_separated_blobs_classified_accurately() {
        // Draw db and queries from the SAME generation so class centres
        // coincide, then split.
        let all = gaussian_blobs(700, 10, 4, 0.5, 21);
        let db = all.select(&(0..500).collect::<Vec<_>>());
        let queries = all.select(&(500..700).collect::<Vec<_>>());
        let pred = classify_batch_seq(&db, &queries, 9);
        let correct = pred
            .iter()
            .zip(&queries.labels)
            .filter(|(p, l)| p == l)
            .count();
        assert!(
            correct as f64 / 200.0 > 0.95,
            "accuracy = {}",
            correct as f64 / 200.0
        );
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn query_dim_mismatch_panics() {
        nearest_heap(&tiny_db(), &[0.0, 1.0], 1);
    }

    #[test]
    #[should_panic(expected = "empty database")]
    fn empty_db_panics() {
        let db = LabeledDataset::new(Matrix::zeros(0, 0), vec![], 1);
        nearest_heap(&db, &[], 1);
    }
}
