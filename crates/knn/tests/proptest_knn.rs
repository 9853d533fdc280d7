//! Property tests: all k-NN implementations must agree exactly.

use std::ops::Range;

use peachy_data::matrix::{LabeledDataset, Matrix};
use peachy_knn::{
    brute::{nearest_heap, nearest_sort},
    knn_mapreduce, KdTree, KnnIndex, KnnMrConfig,
};
use peachy_prng::cases::{check, Gen};

const CASES: u32 = 48;

/// Arbitrary small labelled dataset, with a dimension drawn from `dims` and
/// integer-ish coordinates (to exercise distance ties), plus a query set.
fn dataset(g: &mut Gen, dims: Range<usize>) -> (LabeledDataset, Vec<Vec<f64>>) {
    let (n, d, q) = (g.range(2usize..40), g.range(dims), g.range(1usize..6));
    let point =
        |g: &mut Gen| -> Vec<f64> { (0..d).map(|_| g.range(-8i32..8) as f64 / 2.0).collect() };
    let rows: Vec<(Vec<f64>, u32)> = (0..n).map(|_| (point(g), g.range(0u32..3))).collect();
    let queries = (0..q).map(|_| point(g)).collect();
    let points = Matrix::from_rows(&rows.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>());
    let labels: Vec<u32> = rows.iter().map(|(_, l)| *l).collect();
    (LabeledDataset::new(points, labels, 3), queries)
}

/// Heap selection equals sort selection, and the packed index's heap
/// search equals both, for every query and k. The database repeats some
/// of its rows at higher indices, so equal distances must break by index.
#[test]
fn heap_equals_sort() {
    check("heap_equals_sort", CASES, |g| {
        let ((db, queries), k) = (dataset(g, 1..4), g.range(1usize..10));
        let n = db.len();
        let copies = g.vec(1..n, |g| g.range(0..n));
        let db = db.select(&(0..n).chain(copies).collect::<Vec<_>>());
        let index = KnnIndex::new(db.clone());
        for q in &queries {
            let heap = nearest_heap(&db, q, k);
            assert_eq!(heap, nearest_sort(&db, q, k));
            assert_eq!(index.nearest(q, k), heap);
        }
    });
}

/// KD-tree equals brute force (including tie-breaks on duplicates).
#[test]
fn kdtree_equals_brute() {
    check("kdtree_equals_brute", CASES, |g| {
        let ((db, queries), k) = (dataset(g, 1..4), g.range(1usize..10));
        let tree = KdTree::build(&db);
        for q in &queries {
            assert_eq!(tree.nearest(q, k), nearest_heap(&db, q, k));
        }
    });
}

/// Quad-tree equals brute force on any 2-D dataset.
#[test]
fn quadtree_equals_brute() {
    check("quadtree_equals_brute", CASES, |g| {
        let ((db, queries), k) = (dataset(g, 2..3), g.range(1usize..10));
        let tree = peachy_knn::QuadTree::build(&db);
        for q in &queries {
            assert_eq!(tree.nearest(q, k), nearest_heap(&db, q, k));
        }
    });
}

/// Neighbour distances are sorted ascending and are true distances.
#[test]
fn neighbours_sorted_and_consistent() {
    check("neighbours_sorted_and_consistent", CASES, |g| {
        let ((db, queries), k) = (dataset(g, 1..4), g.range(1usize..10));
        for q in &queries {
            let nn = nearest_heap(&db, q, k);
            assert_eq!(nn.len(), k.min(db.len()));
            for w in nn.windows(2) {
                assert!(w[0].cmp_key() <= w[1].cmp_key());
            }
            for n in &nn {
                let d2 = peachy_data::kernels::dist2(db.points.row(n.index), q);
                assert_eq!(n.dist2, d2);
                assert_eq!(n.label, db.labels[n.index]);
            }
        }
    });
}

/// MapReduce k-NN equals sequential classification for any rank/block
/// configuration, with or without the combiner.
#[test]
fn mapreduce_equals_sequential() {
    check("mapreduce_equals_sequential", CASES, |g| {
        let (db, queries) = dataset(g, 1..4);
        let (k, ranks, blocks) = (g.range(1usize..6), g.range(1usize..5), g.range(1usize..7));
        let combine = g.any::<bool>();
        let qm = Matrix::from_rows(&queries);
        let qds = LabeledDataset::new(qm, vec![0; queries.len()], 1);
        let expected = peachy_knn::classify_batch_seq(&db, &qds, k);
        let out = knn_mapreduce(
            &db,
            &qds,
            KnnMrConfig {
                k,
                ranks,
                map_blocks: blocks,
                combine,
            },
        );
        assert_eq!(out.predictions, expected);
    });
}
