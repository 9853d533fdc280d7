//! # peachy-knn
//!
//! *k*-Nearest-Neighbor classification — the §2 Peachy assignment, in all
//! the variants the assignment text describes or suggests:
//!
//! * [`brute`] — the direct algorithm: Θ(nqd) distances, with the two
//!   top-*k* selection strategies the assignment contrasts — full sort
//!   (Θ(n log n) per query) vs. a bounded max-heap (Θ(n log k), the CLRS
//!   heap trick) — plus a pool-parallel batch classifier (the "shared
//!   memory programming models" adaptation). Its row-major scan is the
//!   reference every other variant is tested against.
//! * [`index`] — [`KnnIndex`], the served database: the same heap search
//!   over rows packed once into the kernel layer's panel layout, whose
//!   distance scan vectorizes. It answers a batch of queries in one pass
//!   over the database, tile by cache-sized tile, and a single query as a
//!   batch of one; the serving layer splits request batches over executor
//!   backends. Both serving tiers answer from it; its answers equal
//!   [`brute`]'s bit for bit.
//! * [`mapreduce`] — the assignment's actual task: k-NN on the
//!   MapReduce-MPI-style engine, with map tasks computing distances over
//!   database blocks and a reduction phase extracting nearest neighbours
//!   per query; the per-rank *combiner* (local top-k) reproduces the
//!   communication-cost optimization the assignment highlights.
//! * [`kdtree`] — the "Data Structures" adaptation: a space-partitioning
//!   tree with box lower-bound pruning, which wins at low dimension and
//!   loses to brute force at d=40 (the curse of dimensionality — measured
//!   in the benches).
//! * [`heap`] — the bounded max-heap used by all of the above.
//! * [`metrics`] — accuracy and confusion matrices.
//!
//! Ties in the majority vote are broken toward the smallest class label,
//! deterministically, in every implementation — so all variants agree
//! bit-for-bit and the test-suite can assert cross-implementation equality.

pub mod app;
pub mod brute;
pub mod cv;
pub mod gpu;
pub mod heap;
pub mod index;
pub mod kdtree;
pub mod mapreduce;
pub mod metrics;
pub mod quadtree;

pub use brute::{classify_batch_par, classify_batch_seq, classify_heap, classify_sort};
pub use heap::BoundedMaxHeap;
pub use index::KnnIndex;
pub use kdtree::KdTree;
pub use mapreduce::{knn_mapreduce, KnnMrConfig};
pub use quadtree::QuadTree;

/// One candidate neighbour: squared distance plus the database point's
/// class label (and index for deterministic tie-breaks on equal distance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Squared Euclidean distance to the query.
    pub dist2: f64,
    /// Index of the database point.
    pub index: usize,
    /// Class label of the database point.
    pub label: u32,
}

impl Neighbor {
    /// Ordering: by distance, then by database index (total and
    /// deterministic; distances are finite by construction).
    #[inline]
    pub fn cmp_key(&self) -> (f64, usize) {
        (self.dist2, self.index)
    }
}

/// Majority vote over neighbour labels; ties break toward the smallest
/// label. `classes` bounds the label range.
pub fn majority_vote(neighbors: &[Neighbor], classes: u32) -> u32 {
    assert!(!neighbors.is_empty(), "cannot vote over zero neighbours");
    let mut counts = vec![0u32; classes as usize];
    for n in neighbors {
        counts[n.label as usize] += 1;
    }
    let mut best = 0u32;
    for (label, &c) in counts.iter().enumerate() {
        if c > counts[best as usize] {
            best = label as u32;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(label: u32) -> Neighbor {
        Neighbor {
            dist2: 1.0,
            index: 0,
            label,
        }
    }

    #[test]
    fn vote_majority_wins() {
        assert_eq!(majority_vote(&[nb(2), nb(1), nb(2)], 3), 2);
    }

    #[test]
    fn vote_tie_breaks_to_smallest_label() {
        assert_eq!(majority_vote(&[nb(3), nb(1), nb(1), nb(3)], 4), 1);
        assert_eq!(majority_vote(&[nb(0), nb(2)], 3), 0);
    }

    #[test]
    #[should_panic(expected = "zero neighbours")]
    fn vote_empty_panics() {
        majority_vote(&[], 2);
    }
}
