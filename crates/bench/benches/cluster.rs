//! Substrate ablation: collective algorithms — binomial tree vs linear
//! broadcast/reduce, flat vs hierarchical (node-aware) reduction — the
//! "architectural knowledge" lesson of §2 made measurable.

use peachy::cluster::{task_farm, Cluster, EdgeFault, FaultPlan, NodeMap, RetryPolicy};
use peachy_bench::harness::{BenchmarkId, Harness};

fn bench_broadcast(c: &mut Harness) {
    let payload: Vec<u64> = (0..1_000).collect();
    let mut group = c.benchmark_group("cluster_broadcast");
    group.sample_size(10);
    for ranks in [4usize, 8, 16] {
        let p = payload.clone();
        group.bench_with_input(BenchmarkId::new("tree", ranks), &ranks, |b, &ranks| {
            b.iter(|| {
                let p = p.clone();
                Cluster::run(ranks, move |comm| {
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
        group.bench_with_input(BenchmarkId::new("linear", ranks), &ranks, |b, &ranks| {
            b.iter(|| {
                let p = p.clone();
                Cluster::run(ranks, move |comm| {
                    let v = if comm.rank() == 0 {
                        p.clone()
                    } else {
                        Vec::new()
                    };
                    comm.broadcast_linear(0, v).len()
                })
            })
        });
    }
}

fn bench_reduce(c: &mut Harness) {
    let mut group = c.benchmark_group("cluster_reduce");
    group.sample_size(10);
    for ranks in [8usize, 16] {
        group.bench_with_input(BenchmarkId::new("tree", ranks), &ranks, |b, &ranks| {
            b.iter(|| {
                Cluster::run(ranks, |comm| {
                    let v = vec![comm.rank() as u64; 1_000];
                    comm.reduce(0, v, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect())
                        .map(|v| v[0])
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("linear", ranks), &ranks, |b, &ranks| {
            b.iter(|| {
                Cluster::run(ranks, |comm| {
                    let v = vec![comm.rank() as u64; 1_000];
                    comm.reduce_linear(0, v, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect())
                        .map(|v| v[0])
                })
            })
        });
        group.bench_with_input(
            BenchmarkId::new("hierarchical_4pn", ranks),
            &ranks,
            |b, &ranks| {
                b.iter(|| {
                    Cluster::run(ranks, |comm| {
                        let v = vec![comm.rank() as u64; 1_000];
                        comm.hierarchical_reduce(NodeMap::block(4), 0, v, |a, b| {
                            a.iter().zip(&b).map(|(x, y)| x + y).collect()
                        })
                        .map(|v| v[0])
                    })
                })
            },
        );
    }
}

fn bench_barrier_and_allreduce(c: &mut Harness) {
    let mut group = c.benchmark_group("cluster_sync");
    group.sample_size(10);
    for ranks in [4usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("barrier_x100", ranks),
            &ranks,
            |b, &ranks| {
                b.iter(|| {
                    Cluster::run(ranks, |comm| {
                        for _ in 0..100 {
                            comm.barrier();
                        }
                    })
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("allreduce_x100", ranks),
            &ranks,
            |b, &ranks| {
                b.iter(|| {
                    Cluster::run(ranks, |comm| {
                        let mut acc = comm.rank() as u64;
                        for _ in 0..100 {
                            acc = comm.allreduce(acc, |a, b| a.wrapping_add(b));
                        }
                        acc
                    })
                })
            },
        );
    }
}

/// E14: what surviving a worker death costs the §7 task farm — fault-free
/// vs one killed worker vs benign (dup/reorder) chaos, same 64-task grid.
/// All three produce bit-identical result tables; only the overhead moves.
fn bench_farm_retry(c: &mut Harness) {
    // Deterministic, CPU-bound task: a short LCG-iterate sum.
    fn farm_task(task: usize) -> u64 {
        let mut x = task as u64 + 1;
        let mut acc = 0u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            acc = acc.wrapping_add(x >> 33);
        }
        acc
    }

    const RANKS: usize = 4;
    const TASKS: usize = 64;
    let plans: [(&str, FaultPlan); 3] = [
        ("fault_free", FaultPlan::none()),
        // Worker 2 dies after its 4th transport send, mid-farm.
        ("kill_one_worker", FaultPlan::new(7).kill(2, 3)),
        (
            "benign_chaos",
            FaultPlan::new(7).all_edges(EdgeFault {
                drop_p: 0.0,
                dup_p: 0.2,
                reorder_p: 0.2,
                delay: std::time::Duration::ZERO,
            }),
        ),
    ];

    let mut group = c.benchmark_group("E14_farm_retry");
    group.sample_size(10);
    for (id, plan) in plans {
        group.bench_function(id, |b| {
            b.iter(|| {
                let mut results = Cluster::run_with_plan(RANKS, &plan, |comm| {
                    task_farm(comm, TASKS, &RetryPolicy::default(), farm_task)
                });
                results
                    .swap_remove(0)
                    .expect("manager survives every E14 plan")
                    .expect("manager reports the outcome")
                    .results
            })
        });
    }
}

fn main() {
    let mut c = Harness::from_args();
    bench_broadcast(&mut c);
    bench_reduce(&mut c);
    bench_barrier_and_allreduce(&mut c);
    bench_farm_retry(&mut c);
}
