//! The served k-NN database: rows packed once into the panel layout of
//! [`peachy_data::kernels::Panels`], plus their labels.
//!
//! Answers are bit-identical to the row-major [`crate::brute`] reference:
//! [`dist2_scan_panels`] visits the same rows in the same order with the
//! same distance bits as [`peachy_data::kernels::dist2_scan`], so the heap
//! sees the same offers. Only the scan is faster.
//!
//! A batch of queries is searched tile by tile: the database is walked
//! in tiles of 2,048 rows (256 KiB at d = 16), and each tile is scanned
//! for every query before the next tile is read, so a database larger
//! than the core's cache is read from memory once per batch rather than
//! once per query. Within a tile each query's heap is offered that
//! query's rows in ascending order, so every heap sees exactly the
//! offers a lone query makes.

use peachy_data::kernels::{dist2_scan_panels, Panels};
use peachy_data::matrix::LabeledDataset;

use crate::heap::BoundedMaxHeap;
use crate::{majority_vote, Neighbor};

/// Database rows per tile of a batch search: 256 KiB of rows at d = 16,
/// an eighth of a 2 MiB L2. A multiple of
/// [`LANES`](peachy_data::kernels::LANES), so tiles never cut a panel.
const TILE_ROWS: usize = 2_048;

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
        let mut found = self.nearest_batch(&[query], k);
        found.pop().expect("one answer per query")
    }

    /// The k nearest points to each query, in query order, each equal to
    /// [`KnnIndex::nearest`] on that query: one tiled pass over the
    /// database for the whole batch.
    pub fn nearest_batch(&self, queries: &[&[f64]], k: usize) -> Vec<Vec<Neighbor>> {
        self.search(queries, k, TILE_ROWS)
    }

    /// Classify one query by k-NN + majority vote.
    pub fn classify(&self, query: &[f64], k: usize) -> u32 {
        majority_vote(&self.nearest(query, k), self.classes)
    }

    /// Classify each query by k-NN + majority vote, in query order, each
    /// equal to [`KnnIndex::classify`] on that query.
    pub fn classify_batch(&self, queries: &[&[f64]], k: usize) -> Vec<u32> {
        self.nearest_batch(queries, k)
            .iter()
            .map(|found| majority_vote(found, self.classes))
            .collect()
    }

    /// The batch search over `tile`-row tiles (`tile` a positive multiple
    /// of [`LANES`](peachy_data::kernels::LANES)); every tile size gives
    /// the same answers.
    fn search(&self, queries: &[&[f64]], k: usize, tile: usize) -> Vec<Vec<Neighbor>> {
        assert!(!self.is_empty(), "empty database");
        for query in queries {
            assert_eq!(query.len(), self.dims(), "query dimensionality mismatch");
        }
        let mut heaps: Vec<BoundedMaxHeap> = queries
            .iter()
            .map(|_| BoundedMaxHeap::new(k.min(self.len())))
            .collect();
        for start in (0..self.len()).step_by(tile) {
            let rows = start..(start + tile).min(self.len());
            for (query, heap) in queries.iter().zip(&mut heaps) {
                dist2_scan_panels(&self.rows, rows.clone(), query, |i, d2| {
                    if heap.would_keep(d2) {
                        heap.offer(Neighbor {
                            dist2: d2,
                            index: i,
                            label: self.labels[i],
                        });
                    }
                });
            }
        }
        heaps.into_iter().map(BoundedMaxHeap::into_sorted).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{classify_heap, nearest_heap};
    use peachy_data::kernels::LANES;
    use peachy_data::matrix::Matrix;
    use peachy_data::synth::gaussian_blobs;

    /// Databases the tiling must not show through: a ragged row count,
    /// duplicated rows (equal distances break by index), and d = 1 with
    /// few distinct values.
    fn databases() -> Vec<(&'static str, LabeledDataset)> {
        let tied = gaussian_blobs(4 * LANES + 5, 3, 2, 1.0, 52);
        let order: Vec<usize> = (0..tied.len()).chain(0..2 * LANES + 1).collect();
        let n = 3 * LANES + 5;
        let line: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % 7) as f64]).collect();
        let labels = (0..n).map(|i| i as u32 % 3).collect();
        vec![
            ("ragged", gaussian_blobs(5 * LANES + 3, 6, 3, 2.0, 51)),
            ("tied", tied.select(&order)),
            (
                "d = 1",
                LabeledDataset::new(Matrix::from_rows(&line), labels, 3),
            ),
        ]
    }

    #[test]
    fn tiled_search_equals_brute_heap() {
        for (name, db) in databases() {
            let queries = gaussian_blobs(33, db.dims(), 2, 2.0, 53);
            let index = KnnIndex::new(db.clone());
            // One panel, an odd number of panels, more than the database.
            let tiles = [LANES, 3 * LANES, (db.len() / LANES + 1) * LANES];
            for batch in [0usize, 1, 33] {
                let rows: Vec<&[f64]> = queries.points.iter_rows().take(batch).collect();
                for k in [1usize, 4, db.len() + 2] {
                    let expected: Vec<_> = rows.iter().map(|q| nearest_heap(&db, q, k)).collect();
                    for tile in tiles {
                        let found = index.search(&rows, k, tile);
                        assert_eq!(found, expected, "{name}: tile {tile}, batch {batch}, k {k}");
                    }
                    let votes: Vec<u32> = rows.iter().map(|q| classify_heap(&db, q, k)).collect();
                    assert_eq!(index.classify_batch(&rows, k), votes, "{name}: k {k}");
                }
            }
        }
    }
}
