//! E1 + E11: k-NN timing — heap vs sort selection, rayon batch, MapReduce
//! rank sweep, tiled batch search on the served index, and the KD-tree vs
//! brute-force crossover over dimension.

use peachy::data::synth::gaussian_blobs;
use peachy::knn::{
    brute::{nearest_heap, nearest_sort},
    classify_batch_par, classify_batch_seq, knn_mapreduce, KdTree, KnnIndex, KnnMrConfig,
};
use peachy_bench::harness::{BenchmarkId, Harness};

fn small_instance() -> (peachy::data::LabeledDataset, peachy::data::LabeledDataset) {
    // A scaled copy of the paper's instance (full 5k×5k runs live in the
    // example; benches iterate many times so they use n = q = 1 000).
    let all = gaussian_blobs(2_000, 40, 8, 3.0, 1);
    (
        all.select(&(0..1_000).collect::<Vec<_>>()),
        all.select(&(1_000..2_000).collect::<Vec<_>>()),
    )
}

/// E1: top-k selection strategy, per query — Θ(n log k) heap vs
/// Θ(n log n) sort.
fn bench_selection(c: &mut Harness) {
    let (db, queries) = small_instance();
    let q = queries.points.row(0);
    let mut group = c.benchmark_group("E1_selection_per_query");
    for k in [1usize, 15, 100] {
        group.bench_with_input(BenchmarkId::new("heap", k), &k, |b, &k| {
            b.iter(|| nearest_heap(&db, q, k))
        });
        group.bench_with_input(BenchmarkId::new("sort", k), &k, |b, &k| {
            b.iter(|| nearest_sort(&db, q, k))
        });
    }
}

/// E1: the full batch, sequential vs rayon vs MapReduce over ranks, plus
/// the sequential batch on the served, panel-packed [`KnnIndex`], one
/// query at a time and as one tiled batch.
fn bench_batch(c: &mut Harness) {
    let (db, queries) = small_instance();
    let k = 15;
    let mut group = c.benchmark_group("E1_batch");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| classify_batch_seq(&db, &queries, k))
    });
    group.bench_function("rayon", |b| b.iter(|| classify_batch_par(&db, &queries, k)));
    let index = KnnIndex::new(db.clone());
    group.bench_function("packed_index", |b| {
        b.iter(|| {
            queries
                .points
                .iter_rows()
                .map(|q| index.classify(q, k))
                .collect::<Vec<u32>>()
        })
    });
    let rows: Vec<&[f64]> = queries.points.iter_rows().collect();
    group.bench_function("packed_index_batch", |b| {
        b.iter(|| index.classify_batch(&rows, k))
    });
    for ranks in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("mapreduce_ranks", ranks),
            &ranks,
            |b, &ranks| {
                b.iter(|| {
                    knn_mapreduce(
                        &db,
                        &queries,
                        KnnMrConfig {
                            k,
                            ranks,
                            map_blocks: ranks * 2,
                            combine: true,
                        },
                    )
                })
            },
        );
    }
}

/// E1: the served index on a database that outgrows L2 (100 000 × 16,
/// 12.8 MB): 32-query batches answered one query at a time, each
/// streaming the whole database, against one tiled pass per batch.
fn bench_tiled(c: &mut Harness) {
    let all = gaussian_blobs(100_032, 16, 8, 2.0, 29);
    let queries = all.select(&(100_000..100_032).collect::<Vec<_>>());
    let index = KnnIndex::new(all.select(&(0..100_000).collect::<Vec<_>>()));
    let rows: Vec<&[f64]> = queries.points.iter_rows().collect();
    let k = 5;
    let mut group = c.benchmark_group("E1_tiled");
    group.sample_size(10);
    group.bench_function("per_query", |b| {
        b.iter(|| {
            rows.iter()
                .map(|q| index.classify(q, k))
                .collect::<Vec<u32>>()
        })
    });
    group.bench_function("batch", |b| b.iter(|| index.classify_batch(&rows, k)));
}

/// E11: KD-tree vs brute force across dimensionality — the tree wins at
/// low d and loses by d = 40 (curse of dimensionality).
fn bench_kdtree_crossover(c: &mut Harness) {
    let mut group = c.benchmark_group("E11_kdtree_crossover");
    group.sample_size(10);
    for d in [2usize, 8, 40] {
        let all = gaussian_blobs(20_000 + 200, d, 8, 2.0, d as u64);
        let db = all.select(&(0..20_000).collect::<Vec<_>>());
        let queries = all.select(&(20_000..20_200).collect::<Vec<_>>());
        let tree = KdTree::build(&db);
        group.bench_with_input(BenchmarkId::new("kdtree", d), &d, |b, _| {
            b.iter(|| {
                (0..queries.len())
                    .map(|i| tree.nearest(queries.points.row(i), 9).len())
                    .sum::<usize>()
            })
        });
        group.bench_with_input(BenchmarkId::new("brute", d), &d, |b, _| {
            b.iter(|| {
                (0..queries.len())
                    .map(|i| nearest_heap(&db, queries.points.row(i), 9).len())
                    .sum::<usize>()
            })
        });
    }
}

/// E11 (2-D): quad-tree vs KD-tree vs brute on planar data — the
/// assignment names quad-trees specifically.
fn bench_quadtree(c: &mut Harness) {
    let all = gaussian_blobs(20_200, 2, 8, 2.0, 23);
    let db = all.select(&(0..20_000).collect::<Vec<_>>());
    let queries = all.select(&(20_000..20_200).collect::<Vec<_>>());
    let quad = peachy::knn::QuadTree::build(&db);
    let kd = KdTree::build(&db);
    let mut group = c.benchmark_group("E11_quadtree_2d");
    group.sample_size(10);
    group.bench_function("quadtree", |b| {
        b.iter(|| {
            (0..queries.len())
                .map(|i| quad.nearest(queries.points.row(i), 9).len())
                .sum::<usize>()
        })
    });
    group.bench_function("kdtree", |b| {
        b.iter(|| {
            (0..queries.len())
                .map(|i| kd.nearest(queries.points.row(i), 9).len())
                .sum::<usize>()
        })
    });
    group.bench_function("brute", |b| {
        b.iter(|| {
            (0..queries.len())
                .map(|i| nearest_heap(&db, queries.points.row(i), 9).len())
                .sum::<usize>()
        })
    });
}

/// E11 (build): parallel vs sequential KD-tree construction.
fn bench_kdtree_build(c: &mut Harness) {
    let db = gaussian_blobs(50_000, 3, 8, 2.0, 7);
    let mut group = c.benchmark_group("E11_kdtree_build");
    group.sample_size(10);
    group.bench_function("sequential", |b| b.iter(|| KdTree::build(&db).depth()));
    group.bench_function("parallel", |b| b.iter(|| KdTree::build_par(&db).depth()));
}

fn main() {
    let mut c = Harness::from_args();
    bench_selection(&mut c);
    bench_batch(&mut c);
    bench_tiled(&mut c);
    bench_kdtree_crossover(&mut c);
    bench_quadtree(&mut c);
    bench_kdtree_build(&mut c);
}
