//! KD-tree: the "Data Structures" adaptation of §2.
//!
//! The assignment suggests space-partitioning trees that "can accelerate
//! spatial search; for a 'box' of the search space, compute a lower bound
//! on the distance from its points to a query point and decide whether to
//! examine any point in the box". This KD-tree does exactly that: each
//! node owns an axis-aligned box; traversal prunes any subtree whose box
//! lower-bound distance cannot beat the current k-th best.
//!
//! The build recursion is parallelized with `peachy_par::join` (the "more
//! challenging" variant: *build the tree in parallel*).

use peachy_data::kernels::dist2;
use peachy_data::matrix::LabeledDataset;

use crate::heap::BoundedMaxHeap;
use crate::{majority_vote, Neighbor};

/// Leaf size below which nodes store points directly.
const LEAF_SIZE: usize = 16;
/// Subtree size below which the parallel build goes sequential.
const PAR_BUILD_CUTOFF: usize = 4096;

#[derive(Debug)]
enum Node {
    Leaf {
        /// Indices into the dataset.
        points: Vec<usize>,
    },
    Split {
        axis: usize,
        /// Split coordinate: left ≤ value < right.
        value: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A KD-tree over a labelled dataset, for exact k-NN queries.
#[derive(Debug)]
pub struct KdTree<'d> {
    db: &'d LabeledDataset,
    root: Node,
    /// Global bounding box (min, max per dimension).
    bounds: (Vec<f64>, Vec<f64>),
}

impl<'d> KdTree<'d> {
    /// Build sequentially.
    pub fn build(db: &'d LabeledDataset) -> Self {
        Self::build_inner(db, false)
    }

    /// Build with parallel recursion over the rayon pool.
    pub fn build_par(db: &'d LabeledDataset) -> Self {
        Self::build_inner(db, true)
    }

    fn build_inner(db: &'d LabeledDataset, parallel: bool) -> Self {
        assert!(!db.is_empty(), "empty database");
        let d = db.dims();
        let mut min = vec![f64::INFINITY; d];
        let mut max = vec![f64::NEG_INFINITY; d];
        for row in db.points.iter_rows() {
            for (j, &v) in row.iter().enumerate() {
                min[j] = min[j].min(v);
                max[j] = max[j].max(v);
            }
        }
        let mut indices: Vec<usize> = (0..db.len()).collect();
        let root = build_node(db, &mut indices, 0, parallel);
        Self {
            db,
            root,
            bounds: (min, max),
        }
    }

    /// Number of points indexed.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Always false (construction requires a non-empty dataset).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Exact k nearest neighbours of `query`, identical (including order)
    /// to [`crate::brute::nearest_heap`].
    pub fn nearest(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.db.dims(), "query dimensionality mismatch");
        let k = k.min(self.db.len());
        let mut heap = BoundedMaxHeap::new(k);
        // Working copy of the query's clamped coordinates relative to the
        // current box: tracks the lower-bound distance incrementally.
        let mut lo = self.bounds.0.clone();
        let mut hi = self.bounds.1.clone();
        let root_bound = box_lower_bound(query, &lo, &hi);
        search(
            self.db, &self.root, query, root_bound, &mut lo, &mut hi, &mut heap,
        );
        heap.into_sorted()
    }

    /// Classify by k-NN + majority vote.
    pub fn classify(&self, query: &[f64], k: usize) -> u32 {
        majority_vote(&self.nearest(query, k), self.db.classes)
    }

    /// Tree depth (for balance diagnostics).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }
}

/// Squared distance from `query` to the axis-aligned box `[lo, hi]` —
/// the pruning lower bound the assignment describes.
fn box_lower_bound(query: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((&q, &l), &h) in query.iter().zip(lo).zip(hi) {
        let d = if q < l {
            l - q
        } else if q > h {
            q - h
        } else {
            0.0
        };
        acc += d * d;
    }
    acc
}

fn build_node(db: &LabeledDataset, indices: &mut [usize], depth: usize, parallel: bool) -> Node {
    if indices.len() <= LEAF_SIZE {
        return Node::Leaf {
            points: indices.to_vec(),
        };
    }
    // Axis: widest spread at this node (better than round-robin for skewed
    // data); fall back to depth % d on ties.
    let d = db.dims();
    let mut best_axis = depth % d;
    let mut best_spread = -1.0;
    for axis in 0..d {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &i in indices.iter() {
            let v = db.points.get(i, axis);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let spread = hi - lo;
        if spread > best_spread {
            best_spread = spread;
            best_axis = axis;
        }
    }
    if best_spread == 0.0 {
        // All points identical in every axis: cannot split.
        return Node::Leaf {
            points: indices.to_vec(),
        };
    }
    let axis = best_axis;
    // Median split via select_nth_unstable on the axis coordinate.
    let mid = indices.len() / 2;
    indices.select_nth_unstable_by(mid, |&a, &b| {
        db.points
            .get(a, axis)
            .partial_cmp(&db.points.get(b, axis))
            .expect("finite coordinates")
            .then(a.cmp(&b))
    });
    let value = db.points.get(indices[mid], axis);
    let (left_idx, right_idx) = indices.split_at_mut(mid);
    let (left, right) = if parallel && indices_len_over_cutoff(left_idx, right_idx) {
        let (l, r) = peachy_par::join(
            || build_node(db, left_idx, depth + 1, true),
            || build_node(db, right_idx, depth + 1, true),
        );
        (l, r)
    } else {
        (
            build_node(db, left_idx, depth + 1, parallel),
            build_node(db, right_idx, depth + 1, parallel),
        )
    };
    Node::Split {
        axis,
        value,
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn indices_len_over_cutoff(a: &[usize], b: &[usize]) -> bool {
    a.len() + b.len() > PAR_BUILD_CUTOFF
}

#[allow(clippy::too_many_arguments)]
fn search(
    db: &LabeledDataset,
    node: &Node,
    query: &[f64],
    bound: f64,
    lo: &mut [f64],
    hi: &mut [f64],
    heap: &mut BoundedMaxHeap,
) {
    if heap.prunable(bound) {
        return; // the whole box cannot beat the current k-th best
    }
    match node {
        Node::Leaf { points } => {
            for &i in points {
                let d2 = dist2(db.points.row(i), query);
                // Offer unconditionally: equal-distance candidates may still
                // win the (dist, index) tie-break against the current worst.
                heap.offer(Neighbor {
                    dist2: d2,
                    index: i,
                    label: db.labels[i],
                });
            }
        }
        Node::Split {
            axis,
            value,
            left,
            right,
        } => {
            let axis = *axis;
            let value = *value;
            // Visit the side containing the query first.
            let query_left = query[axis] < value;
            let (first, second) = if query_left {
                (left.as_ref(), right.as_ref())
            } else {
                (right.as_ref(), left.as_ref())
            };
            // Near side: box shrinks but the bound cannot increase past the
            // current bound on the query's own side.
            {
                let (saved_lo, saved_hi) = (lo[axis], hi[axis]);
                if query_left {
                    hi[axis] = hi[axis].min(value);
                } else {
                    lo[axis] = lo[axis].max(value);
                }
                search(db, first, query, bound, lo, hi, heap);
                lo[axis] = saved_lo;
                hi[axis] = saved_hi;
            }
            // Far side: recompute the bound with the split plane applied.
            {
                let (saved_lo, saved_hi) = (lo[axis], hi[axis]);
                if query_left {
                    lo[axis] = lo[axis].max(value);
                } else {
                    hi[axis] = hi[axis].min(value);
                }
                let far_bound = box_lower_bound(query, lo, hi);
                search(db, second, query, far_bound, lo, hi, heap);
                lo[axis] = saved_lo;
                hi[axis] = saved_hi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::nearest_heap;
    use peachy_data::matrix::Matrix;
    use peachy_data::synth::{concentric_rings, gaussian_blobs};

    #[test]
    fn matches_brute_force_exactly() {
        for (d, seed) in [(2usize, 1u64), (5, 2), (12, 3)] {
            let db = gaussian_blobs(500, d, 4, 3.0, seed);
            let queries = gaussian_blobs(40, d, 4, 3.0, seed + 100);
            let tree = KdTree::build(&db);
            for q in 0..queries.len() {
                let query = queries.points.row(q);
                for k in [1, 7, 23] {
                    assert_eq!(
                        tree.nearest(query, k),
                        nearest_heap(&db, query, k),
                        "d={d} q={q} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_build_equals_sequential_results() {
        let db = gaussian_blobs(6000, 3, 5, 2.0, 9);
        let queries = gaussian_blobs(30, 3, 5, 2.0, 10);
        let seq = KdTree::build(&db);
        let par = KdTree::build_par(&db);
        for q in 0..queries.len() {
            let query = queries.points.row(q);
            assert_eq!(seq.nearest(query, 9), par.nearest(query, 9));
        }
    }

    #[test]
    fn handles_duplicate_points() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 3) as f64, 0.0]).collect();
        let db = LabeledDataset::new(Matrix::from_rows(&rows), vec![0; 100], 1);
        let tree = KdTree::build(&db);
        let nn = tree.nearest(&[1.0, 0.0], 5);
        assert_eq!(nn.len(), 5);
        assert!(nn.iter().all(|n| n.dist2 == 0.0));
        assert_eq!(nn, nearest_heap(&db, &[1.0, 0.0], 5));
    }

    #[test]
    fn all_identical_points() {
        let rows: Vec<Vec<f64>> = (0..50).map(|_| vec![2.0, 2.0]).collect();
        let db = LabeledDataset::new(Matrix::from_rows(&rows), vec![0; 50], 1);
        let tree = KdTree::build(&db);
        assert_eq!(tree.nearest(&[0.0, 0.0], 3).len(), 3);
    }

    #[test]
    fn query_outside_bounding_box() {
        let db = gaussian_blobs(200, 2, 2, 1.0, 5);
        let tree = KdTree::build(&db);
        let far = [1000.0, -1000.0];
        assert_eq!(tree.nearest(&far, 4), nearest_heap(&db, &far, 4));
    }

    #[test]
    fn classify_agrees_with_brute() {
        let db = concentric_rings(600, 3, 0.1, 8);
        let queries = concentric_rings(100, 3, 0.1, 9);
        let tree = KdTree::build(&db);
        for q in 0..queries.len() {
            let query = queries.points.row(q);
            assert_eq!(
                tree.classify(query, 5),
                crate::brute::classify_heap(&db, query, 5)
            );
        }
    }

    #[test]
    fn depth_is_logarithmic_for_balanced_data() {
        let db = gaussian_blobs(4096, 3, 1, 5.0, 4);
        let tree = KdTree::build(&db);
        // 4096 points / leaf 16 = 256 leaves → ~8 split levels + leaf.
        assert!(tree.depth() <= 14, "depth = {}", tree.depth());
    }

    #[test]
    fn box_lower_bound_cases() {
        let lo = [0.0, 0.0];
        let hi = [1.0, 1.0];
        assert_eq!(box_lower_bound(&[0.5, 0.5], &lo, &hi), 0.0); // inside
        assert_eq!(box_lower_bound(&[2.0, 0.5], &lo, &hi), 1.0); // right of box
        assert_eq!(box_lower_bound(&[2.0, 2.0], &lo, &hi), 2.0); // corner
    }
}
