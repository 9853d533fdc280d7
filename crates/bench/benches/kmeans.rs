//! E3: the k-means parallelization-strategy ladder and the distributed
//! version — the time-per-iteration cost of critical regions vs atomics vs
//! reductions, which is the ordering the assignment teaches.

use peachy::data::synth::gaussian_blobs;
use peachy::kmeans::{fit, fit_distributed, fit_seq, kmeans_plus_plus, KMeansConfig, Strategy};
use peachy_bench::harness::{BenchmarkId, Harness};

fn bench_strategies(c: &mut Harness) {
    let data = gaussian_blobs(50_000, 4, 32, 1.0, 13);
    let init = kmeans_plus_plus(&data.points, 32, 17);
    // Fixed 5 iterations: measure iteration cost, not convergence luck.
    let config = KMeansConfig {
        max_iters: 5,
        min_changes: 0,
        min_shift: 0.0,
    };
    let mut group = c.benchmark_group("E3_strategies");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| fit_seq(&data.points, &config, init.clone()).iterations)
    });
    for (name, strategy) in [
        ("critical", Strategy::Critical),
        ("atomic", Strategy::Atomic),
        ("reduction", Strategy::Reduction),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| fit(&data.points, &config, init.clone(), strategy).iterations)
        });
    }
}

fn bench_distributed(c: &mut Harness) {
    let data = gaussian_blobs(50_000, 4, 32, 1.0, 13);
    let init = kmeans_plus_plus(&data.points, 32, 17);
    let config = KMeansConfig {
        max_iters: 5,
        min_changes: 0,
        min_shift: 0.0,
    };
    let mut group = c.benchmark_group("E3_distributed_ranks");
    group.sample_size(10);
    for ranks in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(ranks), &ranks, |b, &ranks| {
            b.iter(|| fit_distributed(&data.points, &config, init.clone(), ranks).iterations)
        });
    }
}

/// Ablation: static layout vs the "dynamic buffers" locality layout —
/// the §3 design comparison ("better locality … but adds complexity").
fn bench_layout(c: &mut Harness) {
    let data = gaussian_blobs(100_000, 8, 16, 1.0, 29);
    let init = kmeans_plus_plus(&data.points, 16, 31);
    let config = KMeansConfig {
        max_iters: 5,
        min_changes: 0,
        min_shift: 0.0,
    };
    let mut group = c.benchmark_group("E3_layout_ablation");
    group.sample_size(10);
    group.bench_function("static_layout", |b| {
        b.iter(|| fit_seq(&data.points, &config, init.clone()).iterations)
    });
    group.bench_function("cluster_buffers", |b| {
        b.iter(|| peachy::kmeans::fit_buffers(&data.points, &config, init.clone()).iterations)
    });
}

/// Ablation: k-means++ vs random init — iterations to convergence.
fn bench_init(c: &mut Harness) {
    let data = gaussian_blobs(20_000, 4, 16, 0.8, 19);
    let config = KMeansConfig::default();
    let mut group = c.benchmark_group("E3_init_ablation");
    group.sample_size(10);
    group.bench_function("random_init", |b| {
        b.iter(|| {
            let init = peachy::kmeans::random_init(&data.points, 16, 23);
            fit_seq(&data.points, &config, init).iterations
        })
    });
    group.bench_function("kmeans_plus_plus", |b| {
        b.iter(|| {
            let init = kmeans_plus_plus(&data.points, 16, 23);
            fit_seq(&data.points, &config, init).iterations
        })
    });
}

/// E15: the same fit through the unified executor seam — `Seq`, `Rayon`,
/// `Cluster` — so backend overhead is measured against one code path.
fn bench_executor_backends(c: &mut Harness) {
    use peachy::cluster::Executor;
    let data = gaussian_blobs(20_000, 4, 16, 1.0, 13);
    let init = kmeans_plus_plus(&data.points, 16, 17);
    let config = KMeansConfig {
        max_iters: 5,
        min_changes: 0,
        min_shift: 0.0,
    };
    let mut group = c.benchmark_group("E15_executor_backends");
    group.sample_size(10);
    for (name, exec) in [
        ("seq", Executor::seq()),
        ("rayon_64", Executor::rayon(64)),
        ("cluster_4", Executor::cluster(4)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                peachy::kmeans::fit_with(&data.points, &config, init.clone(), &exec, None)
                    .iterations
            })
        });
    }
}

fn main() {
    let mut c = Harness::from_args();
    bench_strategies(&mut c);
    bench_distributed(&mut c);
    bench_layout(&mut c);
    bench_init(&mut c);
    bench_executor_backends(&mut c);
}
