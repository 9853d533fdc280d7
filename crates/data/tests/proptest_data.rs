//! Property tests for dataset plumbing: CSV round-trips, splits, geometry.

use peachy_data::csv;
use peachy_data::geo::{Point, Polygon};
use peachy_data::kernels::dist2;
use peachy_data::matrix::{LabeledDataset, Matrix};
use peachy_data::split::{k_folds, shuffled_indices, train_test_split};
use peachy_prng::cases::{check, Gen};

const CASES: u32 = 256;

/// Values that survive a text round-trip exactly.
fn finite_f64(g: &mut Gen) -> f64 {
    g.range(-1_000_000i64..1_000_000) as f64 / 64.0
}

#[test]
fn csv_matrix_roundtrip() {
    check("csv_matrix_roundtrip", CASES, |g| {
        let (rows, cols, seed) = (g.range(1usize..20), g.range(1usize..8), g.any::<u64>());
        let data: Vec<f64> = (0..rows * cols)
            .map(|i| {
                ((seed.wrapping_add(i as u64).wrapping_mul(2654435761)) % 1_000_000) as f64 / 128.0
            })
            .collect();
        let m = Matrix::from_vec(rows, cols, data);
        let back = csv::read_matrix(&csv::write_matrix(&m)).unwrap();
        assert_eq!(m, back);
    });
}

#[test]
fn csv_labeled_roundtrip() {
    check("csv_labeled_roundtrip", CASES, |g| {
        let rows = g.vec(1..30, |g| (finite_f64(g), finite_f64(g), g.range(0u32..5)));
        let points = Matrix::from_rows(
            &rows
                .iter()
                .map(|(a, b, _)| vec![*a, *b])
                .collect::<Vec<_>>(),
        );
        let labels: Vec<u32> = rows.iter().map(|(_, _, l)| *l).collect();
        let classes = labels.iter().max().unwrap() + 1;
        let ds = LabeledDataset::new(points, labels, classes);
        let back = csv::read_labeled(&csv::write_labeled(&ds)).unwrap();
        assert_eq!(ds.points, back.points);
        assert_eq!(ds.labels, back.labels);
    });
}

#[test]
fn shuffle_is_permutation() {
    check("shuffle_is_permutation", CASES, |g| {
        let (n, seed) = (g.range(1usize..500), g.any::<u64>());
        let mut idx = shuffled_indices(n, seed);
        idx.sort_unstable();
        assert_eq!(idx, (0..n).collect::<Vec<_>>());
    });
}

#[test]
fn split_partitions_dataset() {
    check("split_partitions_dataset", CASES, |g| {
        let (n, frac, seed) = (g.range(2usize..200), g.range(0.05f64..0.95), g.any::<u64>());
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let ds = LabeledDataset::new(Matrix::from_rows(&rows), vec![0; n], 1);
        let tt = train_test_split(&ds, frac, seed);
        assert_eq!(tt.train.len() + tt.test.len(), n);
        assert!(!tt.train.is_empty() && !tt.test.is_empty());
        let mut ids: Vec<f64> = tt
            .train
            .points
            .iter_rows()
            .chain(tt.test.points.iter_rows())
            .map(|r| r[0])
            .collect();
        ids.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected: Vec<f64> = (0..n).map(|i| i as f64).collect();
        assert_eq!(ids, expected);
    });
}

#[test]
fn folds_partition() {
    check("folds_partition", CASES, |g| {
        // n >= 4 > k, so every fold can be non-empty.
        let (n, k, seed) = (g.range(4usize..100), g.range(2usize..4), g.any::<u64>());
        let folds = k_folds(n, k, seed);
        let mut all: Vec<usize> = folds.concat();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
        let max = folds.iter().map(Vec::len).max().unwrap();
        let min = folds.iter().map(Vec::len).min().unwrap();
        assert!(max - min <= 1);
    });
}

#[test]
fn squared_distance_is_metric_like() {
    check("squared_distance_is_metric_like", CASES, |g| {
        let a = g.vec(1..10, finite_f64);
        // d(x,x) = 0 and d(x,y) = d(y,x) ≥ 0.
        let b: Vec<f64> = a.iter().map(|v| v + 1.0).collect();
        assert_eq!(dist2(&a, &a), 0.0);
        assert_eq!(dist2(&a, &b), dist2(&b, &a));
        assert!(dist2(&a, &b) >= 0.0);
    });
}

#[test]
fn convex_polygon_contains_centroid() {
    check("convex_polygon_contains_centroid", CASES, |g| {
        let (n, r) = (g.range(3usize..12), g.range(0.5f64..10.0));
        // Regular n-gon of radius r centred at (3, 4).
        let verts: Vec<Point> = (0..n)
            .map(|i| {
                let t = std::f64::consts::TAU * i as f64 / n as f64;
                Point {
                    x: 3.0 + r * t.cos(),
                    y: 4.0 + r * t.sin(),
                }
            })
            .collect();
        let poly = Polygon::new(verts);
        let centroid = Point { x: 3.0, y: 4.0 };
        let outside = Point {
            x: 3.0 + 2.0 * r,
            y: 4.0,
        };
        assert!(poly.contains(centroid));
        // A point well outside the circumradius is excluded.
        assert!(!poly.contains(outside));
        // Area of a regular n-gon: (1/2) n r² sin(2π/n).
        let expected = 0.5 * n as f64 * r * r * (std::f64::consts::TAU / n as f64).sin();
        assert!((poly.signed_area().abs() - expected).abs() < 1e-9 * expected.max(1.0));
    });
}
