//! E12: dataflow-engine behaviour — narrow-op fusion, shuffle cost,
//! map-side combining (reduce_by_key vs group_by_key), joins, caching.
//! E18: the plan optimizer ablation — the same pipelines under
//! `OptimizerConfig::naive()` vs the default (fusion + shuffle elision +
//! auto-cache), on wordcount, the city hotspot analysis, and a chained
//! aggregation.
//! E20: the out-of-core ablation — the same pipelines fully resident vs
//! under a byte budget that forces partitions through disk spill.
//! E22: the streaming ablation — spilled partitions replayed one row at a
//! time vs rebuilt whole on access (the strawman), on a fully
//! skewed group-by whose one bucket dwarfs every source partition.

use peachy::dataflow::{Dataset, KeyedDataset, OptimizerConfig};
use peachy::prng::{Lcg64, RandomStream};
use peachy_bench::harness::{BenchmarkId, Harness};
use peachy_bench::optimizer_scenarios as e18;

fn rows(n: usize, keys: u64) -> Vec<(u64, u64)> {
    let mut rng = Lcg64::seed_from(1);
    (0..n)
        .map(|_| (rng.next_below(keys), rng.next_below(100)))
        .collect()
}

fn bench_narrow_chain(c: &mut Harness) {
    let data: Vec<u64> = (0..1_000_000).collect();
    let mut group = c.benchmark_group("E12_narrow_fusion");
    group.sample_size(10);
    for partitions in [1usize, 4, 16] {
        let ds = Dataset::from_vec(data.clone(), partitions)
            .map(|x| x * 3)
            .filter(|x| x % 7 != 0)
            .map(|x| x + 1);
        group.bench_with_input(
            BenchmarkId::from_parameter(partitions),
            &partitions,
            |b, _| b.iter(|| ds.count()),
        );
    }
}

fn bench_shuffle(c: &mut Harness) {
    let mut group = c.benchmark_group("E12_shuffle");
    group.sample_size(10);
    // Few keys: reduce_by_key's map-side combining shines.
    let few = rows(500_000, 16);
    let ds = KeyedDataset::from_dataset(Dataset::from_vec(few, 8));
    group.bench_function("reduce_by_key_16keys", |b| {
        b.iter(|| ds.reduce_by_key(|a, b| a + b).count())
    });
    group.bench_function("group_by_key_16keys", |b| {
        b.iter(|| ds.group_by_key().count())
    });
    // Many keys: combining cannot help much.
    let many = rows(500_000, 400_000);
    let ds = KeyedDataset::from_dataset(Dataset::from_vec(many, 8));
    group.bench_function("reduce_by_key_400kkeys", |b| {
        b.iter(|| ds.reduce_by_key(|a, b| a + b).count())
    });
}

fn bench_join(c: &mut Harness) {
    let left = KeyedDataset::from_dataset(Dataset::from_vec(rows(200_000, 10_000), 8));
    let right = KeyedDataset::from_dataset(Dataset::from_vec(rows(10_000, 10_000), 8));
    let mut group = c.benchmark_group("E12_join");
    group.sample_size(10);
    group.bench_function("inner_join", |b| b.iter(|| left.join(&right).count()));
    group.bench_function("left_join", |b| b.iter(|| left.left_join(&right).count()));
}

fn bench_cache(c: &mut Harness) {
    let base = Dataset::from_vec((0..300_000u64).collect::<Vec<_>>(), 8).map(|x| {
        // Deliberately non-trivial per-row work.
        let mut acc = x;
        for _ in 0..10 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        acc
    });
    let cached = base.cache();
    cached.count(); // warm
    let mut group = c.benchmark_group("E12_cache");
    group.sample_size(10);
    group.bench_function("uncached_recompute", |b| b.iter(|| base.count()));
    group.bench_function("cached", |b| b.iter(|| cached.count()));
}

fn bench_optimizer(c: &mut Harness) {
    let text = e18::corpus(200_000, e18::E18_SEED);
    let tables = e18::city_tables(100_000);
    let mut group = c.benchmark_group("E18_optimizer");
    group.sample_size(10);
    for (label, cfg) in [
        ("naive", OptimizerConfig::naive()),
        ("optimized", OptimizerConfig::default()),
    ] {
        group.bench_function(format!("wordcount_{label}"), |b| {
            b.iter(|| e18::wordcount(&text, 8, cfg).0.len())
        });
        group.bench_function(format!("city_hotspot_{label}"), |b| {
            b.iter(|| e18::city_hotspot(&tables, 8, cfg).0)
        });
        group.bench_function(format!("chained_agg_{label}"), |b| {
            b.iter(|| e18::chained_aggregation(500_000, 8, cfg).0)
        });
    }
}

fn bench_spill(c: &mut Harness) {
    let text = e18::corpus(200_000, e18::E18_SEED);
    let mut group = c.benchmark_group("E20_spill");
    group.sample_size(10);
    for (label, wordcount_cfg, agg_cfg) in [
        (
            "resident",
            OptimizerConfig::default(),
            OptimizerConfig::default(),
        ),
        ("spilled", e18::spill_cfg(1024), e18::spill_cfg(256 * 1024)),
    ] {
        group.bench_function(format!("wordcount_{label}"), |b| {
            b.iter(|| e18::wordcount(&text, 8, wordcount_cfg).0.len())
        });
        group.bench_function(format!("chained_agg_{label}"), |b| {
            b.iter(|| e18::chained_aggregation(500_000, 8, agg_cfg).0)
        });
    }
}

fn bench_stream(c: &mut Harness) {
    let mut group = c.benchmark_group("E22_stream");
    group.sample_size(10);
    for budget in [64 * 1024u64, 1024] {
        group.bench_function(format!("skewed_group_stream_{budget}B"), |b| {
            b.iter(|| e18::skewed_group(16_000, 8, e18::spill_cfg(budget)).0)
        });
        group.bench_function(format!("skewed_group_rebuild_{budget}B"), |b| {
            b.iter(|| e18::skewed_group(16_000, 8, e18::rebuild_cfg(budget)).0)
        });
    }
}

fn main() {
    let mut c = Harness::from_args();
    bench_narrow_chain(&mut c);
    bench_shuffle(&mut c);
    bench_join(&mut c);
    bench_cache(&mut c);
    bench_optimizer(&mut c);
    bench_spill(&mut c);
    bench_stream(&mut c);
}
