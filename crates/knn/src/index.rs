//! The served k-NN database: rows packed once into the panel layout of
//! [`peachy_data::kernels::Panels`], plus their labels.
//!
//! Answers are bit-identical to the row-major [`crate::brute`] reference:
//! [`dist2_scan_panels`] visits the same rows in the same order with the
//! same distance bits as [`peachy_data::kernels::dist2_scan`], so the heap
//! sees the same offers. Only the scan is faster.

use peachy_data::kernels::{dist2_scan_panels, Panels};
use peachy_data::matrix::LabeledDataset;

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
}
