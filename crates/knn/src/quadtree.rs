//! Quad-tree spatial index — the §2 "Data Structures" adaptation, verbatim:
//! "the assignment could focus on space partitioning trees like
//! quad-trees. These can accelerate spatial search; for a 'box' of the
//! search space, compute a lower bound on the distance from its points to
//! a query point and decide whether to examine any point in the box."
//!
//! Strictly 2-D (that is what makes it a *quad* tree); each internal node
//! splits its square into four children at the midpoint. Exact k-NN with
//! the same `(dist², index)` tie-breaking as every other implementation in
//! this crate, so results are `assert_eq!`-able against brute force and
//! the KD-tree.

use peachy_data::kernels::dist2;
use peachy_data::matrix::LabeledDataset;

use crate::heap::BoundedMaxHeap;
use crate::{majority_vote, Neighbor};

/// Points per leaf before splitting.
const LEAF_SIZE: usize = 16;
/// Maximum depth guard (duplicate-heavy data cannot split forever).
const MAX_DEPTH: usize = 32;

#[derive(Debug)]
enum Node {
    Leaf {
        points: Vec<usize>,
    },
    /// Children in quadrant order: [SW, SE, NW, NE] (x then y bit).
    Split {
        cx: f64,
        cy: f64,
        children: Box<[Node; 4]>,
    },
}

/// A quad-tree over a 2-D labelled dataset.
#[derive(Debug)]
pub struct QuadTree<'d> {
    db: &'d LabeledDataset,
    root: Node,
    min: (f64, f64),
    max: (f64, f64),
}

impl<'d> QuadTree<'d> {
    /// Build over a 2-D dataset. Panics unless `db.dims() == 2`.
    pub fn build(db: &'d LabeledDataset) -> Self {
        assert!(!db.is_empty(), "empty database");
        assert_eq!(db.dims(), 2, "a quad-tree indexes exactly 2-D data");
        let mut min = (f64::INFINITY, f64::INFINITY);
        let mut max = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for row in db.points.iter_rows() {
            min.0 = min.0.min(row[0]);
            min.1 = min.1.min(row[1]);
            max.0 = max.0.max(row[0]);
            max.1 = max.1.max(row[1]);
        }
        let indices: Vec<usize> = (0..db.len()).collect();
        let root = build_node(db, indices, min, max, 0);
        Self { db, root, min, max }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Exact k nearest neighbours, identical to
    /// [`crate::brute::nearest_heap`] including order.
    pub fn nearest(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), 2, "query must be 2-D");
        let k = k.min(self.db.len());
        let mut heap = BoundedMaxHeap::new(k);
        search(self.db, &self.root, query, self.min, self.max, &mut heap);
        heap.into_sorted()
    }

    /// Classify by majority vote of the k nearest.
    pub fn classify(&self, query: &[f64], k: usize) -> u32 {
        majority_vote(&self.nearest(query, k), self.db.classes)
    }

    /// Tree depth (diagnostics).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { children, .. } => {
                    1 + children.iter().map(d).max().expect("4 children")
                }
            }
        }
        d(&self.root)
    }
}

fn build_node(
    db: &LabeledDataset,
    indices: Vec<usize>,
    min: (f64, f64),
    max: (f64, f64),
    depth: usize,
) -> Node {
    if indices.len() <= LEAF_SIZE || depth >= MAX_DEPTH {
        return Node::Leaf { points: indices };
    }
    let cx = (min.0 + max.0) / 2.0;
    let cy = (min.1 + max.1) / 2.0;
    let mut quads: [Vec<usize>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for i in indices {
        let x = db.points.get(i, 0);
        let y = db.points.get(i, 1);
        let q = usize::from(x >= cx) | (usize::from(y >= cy) << 1);
        quads[q].push(i);
    }
    // Degenerate split (all points in one quadrant at the boundary): leaf.
    if quads.iter().filter(|q| !q.is_empty()).count() <= 1 && depth > 0 {
        let only = quads
            .into_iter()
            .find(|q| !q.is_empty())
            .unwrap_or_default();
        return Node::Leaf { points: only };
    }
    let [sw, se, nw, ne] = quads;
    let children = Box::new([
        build_node(db, sw, min, (cx, cy), depth + 1),
        build_node(db, se, (cx, min.1), (max.0, cy), depth + 1),
        build_node(db, nw, (min.0, cy), (cx, max.1), depth + 1),
        build_node(db, ne, (cx, cy), max, depth + 1),
    ]);
    Node::Split { cx, cy, children }
}

/// Squared distance from `q` to the box `[min, max]` — the assignment's
/// pruning lower bound.
fn box_bound(q: &[f64], min: (f64, f64), max: (f64, f64)) -> f64 {
    let dx = if q[0] < min.0 {
        min.0 - q[0]
    } else if q[0] > max.0 {
        q[0] - max.0
    } else {
        0.0
    };
    let dy = if q[1] < min.1 {
        min.1 - q[1]
    } else if q[1] > max.1 {
        q[1] - max.1
    } else {
        0.0
    };
    dx * dx + dy * dy
}

fn search(
    db: &LabeledDataset,
    node: &Node,
    query: &[f64],
    min: (f64, f64),
    max: (f64, f64),
    heap: &mut BoundedMaxHeap,
) {
    if heap.prunable(box_bound(query, min, max)) {
        return;
    }
    match node {
        Node::Leaf { points } => {
            for &i in points {
                let d2 = dist2(db.points.row(i), query);
                heap.offer(Neighbor {
                    dist2: d2,
                    index: i,
                    label: db.labels[i],
                });
            }
        }
        Node::Split { cx, cy, children } => {
            let (cx, cy) = (*cx, *cy);
            let boxes = [
                (min, (cx, cy)),
                ((cx, min.1), (max.0, cy)),
                ((min.0, cy), (cx, max.1)),
                ((cx, cy), max),
            ];
            // Visit children nearest-first for better pruning.
            let mut order: [usize; 4] = [0, 1, 2, 3];
            let bounds: Vec<f64> = boxes
                .iter()
                .map(|&(lo, hi)| box_bound(query, lo, hi))
                .collect();
            order.sort_by(|&a, &b| bounds[a].partial_cmp(&bounds[b]).expect("finite"));
            for &ci in &order {
                let (lo, hi) = boxes[ci];
                search(db, &children[ci], query, lo, hi, heap);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::nearest_heap;
    use crate::kdtree::KdTree;
    use peachy_data::matrix::Matrix;
    use peachy_data::synth::{concentric_rings, gaussian_blobs, two_moons};

    #[test]
    fn matches_brute_force_exactly() {
        let db = gaussian_blobs(800, 2, 4, 2.0, 5);
        let queries = gaussian_blobs(60, 2, 4, 2.0, 6);
        let tree = QuadTree::build(&db);
        for q in 0..queries.len() {
            let query = queries.points.row(q);
            for k in [1, 7, 25] {
                assert_eq!(
                    tree.nearest(query, k),
                    nearest_heap(&db, query, k),
                    "q={q} k={k}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_kdtree_on_rings() {
        let db = concentric_rings(700, 3, 0.1, 7);
        let queries = concentric_rings(50, 3, 0.1, 8);
        let quad = QuadTree::build(&db);
        let kd = KdTree::build(&db);
        for q in 0..queries.len() {
            let query = queries.points.row(q);
            assert_eq!(quad.nearest(query, 9), kd.nearest(query, 9));
        }
    }

    #[test]
    fn handles_duplicates_and_ties() {
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![(i % 4) as f64, (i % 3) as f64])
            .collect();
        let db = LabeledDataset::new(Matrix::from_rows(&rows), vec![0; 120], 1);
        let tree = QuadTree::build(&db);
        let nn = tree.nearest(&[1.0, 1.0], 7);
        assert_eq!(nn, nearest_heap(&db, &[1.0, 1.0], 7));
    }

    #[test]
    fn all_identical_points_terminate() {
        let rows: Vec<Vec<f64>> = (0..100).map(|_| vec![3.0, 3.0]).collect();
        let db = LabeledDataset::new(Matrix::from_rows(&rows), vec![0; 100], 1);
        let tree = QuadTree::build(&db);
        assert_eq!(tree.nearest(&[0.0, 0.0], 5).len(), 5);
        assert!(tree.depth() <= MAX_DEPTH + 1);
    }

    #[test]
    fn query_far_outside() {
        let db = two_moons(300, 0.05, 9);
        let tree = QuadTree::build(&db);
        let far = [500.0, -500.0];
        assert_eq!(tree.nearest(&far, 3), nearest_heap(&db, &far, 3));
    }

    #[test]
    fn classify_matches_brute() {
        let db = two_moons(400, 0.08, 10);
        let queries = two_moons(60, 0.08, 11);
        let tree = QuadTree::build(&db);
        for q in 0..queries.len() {
            let query = queries.points.row(q);
            assert_eq!(
                tree.classify(query, 5),
                crate::brute::classify_heap(&db, query, 5)
            );
        }
    }

    #[test]
    #[should_panic(expected = "exactly 2-D")]
    fn rejects_non_2d() {
        let db = gaussian_blobs(10, 3, 2, 1.0, 1);
        QuadTree::build(&db);
    }

    #[test]
    fn box_bound_cases() {
        assert_eq!(box_bound(&[0.5, 0.5], (0.0, 0.0), (1.0, 1.0)), 0.0);
        assert_eq!(box_bound(&[2.0, 0.5], (0.0, 0.0), (1.0, 1.0)), 1.0);
        assert_eq!(box_bound(&[-1.0, -1.0], (0.0, 0.0), (1.0, 1.0)), 2.0);
    }
}
