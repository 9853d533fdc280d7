//! E17: zero-copy collective payloads and sized shuffles.
//!
//! Two ablations behind this experiment: (1) the tree broadcast of a deep
//! payload copies it once per child, so its cost grows with payload size,
//! while the same `broadcast` (and the flat `broadcast_linear`) of a
//! `Shared` (`Arc`) payload moves one refcount bump per edge, so its
//! per-child cost should be payload-size-independent; (2) the shuffle's
//! two-pass exact-capacity bucketing vs the naive flat push-and-grow
//! strategy it replaced.

use peachy::cluster::dist::{owner_of_key, ROUTE_SEED};
use peachy::cluster::{Cluster, Shared};
use peachy::dataflow::{Dataset, KeyedDataset};
use peachy::prng::{Lcg64, RandomStream};
use peachy_bench::harness::{BenchmarkId, Harness};

const RANKS: usize = 8;

fn bench_broadcast_payload(c: &mut Harness) {
    let mut group = c.benchmark_group("E17_broadcast_payload");
    group.sample_size(10);
    for &len in &[1_000usize, 10_000, 100_000] {
        let payload: Vec<f64> = (0..len).map(|i| i as f64).collect();
        let p = payload.clone();
        group.bench_with_input(BenchmarkId::new("clone_tree", len), &len, |b, _| {
            b.iter(|| {
                let p = p.clone();
                Cluster::run(RANKS, move |comm| {
                    let v = if comm.rank() == 0 {
                        p.clone()
                    } else {
                        Vec::new()
                    };
                    comm.broadcast(0, v).len()
                })
            })
        });
        let p = payload.clone();
        group.bench_with_input(BenchmarkId::new("shared_tree", len), &len, |b, _| {
            b.iter(|| {
                let p = p.clone();
                Cluster::run(RANKS, move |comm| {
                    let v = Shared::new(if comm.rank() == 0 {
                        p.clone()
                    } else {
                        Vec::new()
                    });
                    comm.broadcast(0, v).len()
                })
            })
        });
        let p = payload.clone();
        group.bench_with_input(BenchmarkId::new("shared_linear", len), &len, |b, _| {
            b.iter(|| {
                let p = p.clone();
                Cluster::run(RANKS, move |comm| {
                    let v = Shared::new(if comm.rank() == 0 {
                        p.clone()
                    } else {
                        Vec::new()
                    });
                    comm.broadcast_linear(0, v).len()
                })
            })
        });
    }
}

fn rows(n: usize, keys: u64) -> Vec<(u64, u64)> {
    let mut rng = Lcg64::seed_from(17);
    (0..n)
        .map(|_| (rng.next_below(keys), rng.next_below(100)))
        .collect()
}

fn bench_shuffle_bucketing(c: &mut Harness) {
    let mut group = c.benchmark_group("E17_shuffle_bucketing");
    group.sample_size(10);
    let n = 500_000;
    let data = rows(n, u64::MAX); // effectively all-distinct keys
    let partitions = 8usize;
    // The engine end-to-end (its map side is the two-pass sized path).
    group.bench_function("sized_engine_group_by_key", |b| {
        b.iter(|| {
            KeyedDataset::from_dataset(Dataset::from_vec(data.clone(), partitions))
                .group_by_key()
                .count()
        })
    });
    // The isolated map-side ablation: identical routing, different
    // bucket-allocation strategy.
    group.bench_function("flat_push_and_grow", |b| {
        b.iter(|| {
            let mut buckets: Vec<Vec<(u64, u64)>> = (0..partitions).map(|_| Vec::new()).collect();
            for &(k, v) in &data {
                buckets[owner_of_key(&k, partitions, ROUTE_SEED)].push((k, v));
            }
            buckets.iter().map(Vec::len).sum::<usize>()
        })
    });
    group.bench_function("sized_two_pass", |b| {
        b.iter(|| {
            let mut counts = vec![0usize; partitions];
            let routes: Vec<u32> = data
                .iter()
                .map(|(k, _)| {
                    let p = owner_of_key(k, partitions, ROUTE_SEED);
                    counts[p] += 1;
                    p as u32
                })
                .collect();
            let mut buckets: Vec<Vec<(u64, u64)>> =
                counts.iter().map(|&c| Vec::with_capacity(c)).collect();
            for (&row, p) in data.iter().zip(routes) {
                buckets[p as usize].push(row);
            }
            buckets.iter().map(Vec::len).sum::<usize>()
        })
    });
}

fn main() {
    let mut c = Harness::from_args();
    bench_broadcast_payload(&mut c);
    bench_shuffle_bucketing(&mut c);
}
