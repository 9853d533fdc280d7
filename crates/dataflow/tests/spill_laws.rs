//! Out-of-core laws: spilling must be invisible everywhere but the disk.
//!
//! The storage seam's hard contract: running the same job under any
//! [`OptimizerConfig::spill_budget`] — unlimited, tight, or a pathological
//! 1 KiB that spills nearly everything — must produce bit-identical rows
//! and identical non-spill [`ShuffleStats`] counters, on every executor
//! and under benign transport chaos. The spill decision itself is a pure
//! function of (data, budget, config): the fair-share rule reads only a
//! partition's own size, and the pre-sized shuffle plan is greedy in
//! bucket-index order, so no rayon schedule can change what hits disk.
//!
//! The seed grid mirrors the E18 optimizer-equivalence suite; CI rolls a
//! fresh grid per run via `PEACHY_CHAOS_SEED` while logging it for replay.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use peachy_cluster::{EdgeFault, Executor, FaultPlan};
use peachy_dataflow::{
    Dataset, OptimizerConfig, PartitionStore, RetryPolicy, ShuffleStats, StoreConfig,
};
use peachy_prng::{Lcg64, RandomStream};

fn base_seed() -> u64 {
    std::env::var("PEACHY_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00C0_FFEE_5EED)
}

/// The budget grid every law runs over: unlimited, tight enough to spill
/// the bigger holders, and a pathological floor that spills nearly every
/// partition of every holder.
const BUDGETS: [Option<u64>; 3] = [None, Some(64 * 1024), Some(1024)];

fn cfg_with(budget: Option<u64>) -> OptimizerConfig {
    OptimizerConfig {
        spill_budget: budget,
        ..OptimizerConfig::default()
    }
}

/// One random pipeline under an explicit budget, with a fresh counter
/// block attached to *every* layer (source store, narrow auto-caches,
/// shuffles). Same generator as the E18 equivalence suite, so the grid
/// covers caches, repartitions, retries, unions, and chained wide ops.
fn build(seed: u64, cfg: OptimizerConfig) -> (Dataset<(u64, u64)>, bool, Arc<ShuffleStats>) {
    let stats = ShuffleStats::new();
    let mut rng = Lcg64::seed_from(seed);
    let rows = 50 + (rng.next_u64() % 350) as usize;
    let parts = 1 + (rng.next_u64() % 7) as usize;
    let source: Vec<u64> = (0..rows as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24)
        .collect();
    let mut ds = Dataset::from_vec_with(source, parts, cfg).with_stats(Arc::clone(&stats));

    let narrow_ops = rng.next_u64() % 6;
    for _ in 0..narrow_ops {
        ds = match rng.next_u64() % 7 {
            0 => ds.map(|x| x.wrapping_mul(3).wrapping_add(1)),
            1 => {
                let m = 2 + rng.next_u64() % 5;
                ds.filter(move |x| x % m != 0)
            }
            2 => ds.flat_map(|x| if x % 2 == 0 { vec![x, x / 2] } else { vec![x] }),
            3 => ds.union_with(&ds.map(|x| x ^ 0xFF)),
            4 => ds.cache(),
            5 => {
                let p = 1 + (rng.next_u64() % 7) as usize;
                ds.repartition(p)
            }
            _ => ds.with_retry(RetryPolicy::default()),
        };
    }

    if rng.next_u64() % 4 == 0 {
        return (ds.map(|x| (x, x)), false, stats);
    }

    let modulus = 2 + rng.next_u64() % 9;
    let mut keyed = ds
        .key_by(move |x| x % modulus)
        .with_stats(Arc::clone(&stats));
    let wide_ops = 1 + rng.next_u64() % 3;
    for _ in 0..wide_ops {
        keyed = match rng.next_u64() % 5 {
            0 => keyed.count_by_key(),
            1 => keyed.reduce_by_key(|a, b| a.wrapping_add(b)),
            2 => keyed
                .reduce_by_key(|a, b| a.min(b))
                .map_values(|v| v.rotate_left(7)),
            3 => keyed.group_by_key().map_values(|vs| vs.len() as u64),
            _ => {
                let other = keyed.count_by_key();
                keyed
                    .reduce_by_key(|a, b| a.wrapping_add(b))
                    .join(&other)
                    .map_values(|(v, w)| v ^ w)
            }
        };
    }
    (keyed.rows(), true, stats)
}

fn canon(mut rows: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    rows.sort_unstable();
    rows
}

/// The counters a budget must NOT move: everything except the spill
/// traffic itself.
fn non_spill_counters(stats: &ShuffleStats) -> (u64, u64, u64, u64) {
    (
        stats.records(),
        stats.bytes(),
        stats.shuffles(),
        stats.shuffles_elided(),
    )
}

#[test]
fn results_are_bit_identical_across_budgets() {
    let base = base_seed();
    println!("spill-laws grid base seed: {base:#x}");
    for i in 0..16 {
        let seed = base.wrapping_add(i).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let (ref_ds, wide, ref_stats) = build(seed, cfg_with(None));
        let reference = ref_ds.collect();
        assert_eq!(
            ref_stats.spills(),
            0,
            "seed {seed}: an unlimited budget must never touch disk"
        );
        for budget in [BUDGETS[1], BUDGETS[2]] {
            let (ds, w, stats) = build(seed, cfg_with(budget));
            assert_eq!(w, wide, "builder must be deterministic in seed");
            let got = ds.collect();
            if wide {
                assert_eq!(
                    canon(got),
                    canon(reference.clone()),
                    "seed {seed} at budget {budget:?}: multiset diverged"
                );
            } else {
                assert_eq!(
                    got, reference,
                    "seed {seed} at budget {budget:?}: rows or order diverged"
                );
            }
            assert_eq!(
                non_spill_counters(&stats),
                non_spill_counters(&ref_stats),
                "seed {seed} at budget {budget:?}: spilling leaked into the shuffle ledger"
            );
        }
    }
}

#[test]
fn budgets_hold_on_every_executor() {
    let base = base_seed() ^ 0xBAC0;
    for i in 0..4 {
        let seed = base.wrapping_add(i).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let (ref_ds, wide, _) = build(seed, cfg_with(None));
        let reference = canon(ref_ds.collect());
        for exec in [Executor::seq(), Executor::rayon(3), Executor::cluster(4)] {
            for budget in BUDGETS {
                let (ds, _, _) = build(seed, cfg_with(budget));
                let got = ds.collect_with(&exec);
                if wide {
                    assert_eq!(
                        canon(got),
                        reference,
                        "seed {seed} at {budget:?} on {exec:?}"
                    );
                } else {
                    assert_eq!(
                        got,
                        ref_ds.collect(),
                        "seed {seed} at {budget:?} on {exec:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn budgets_hold_under_benign_chaos() {
    let base = base_seed() ^ 0x000C_4A05;
    for i in 0..4 {
        let seed = base.wrapping_add(i).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let plan = FaultPlan::new(seed).all_edges(EdgeFault {
            drop_p: 0.0,
            dup_p: 0.2,
            reorder_p: 0.3,
            delay: Duration::from_micros(50),
        });
        let chaotic = Executor::Cluster { ranks: 4, plan };
        let (ref_ds, wide, _) = build(seed, cfg_with(None));
        let reference = canon(ref_ds.collect());
        for budget in [BUDGETS[1], BUDGETS[2]] {
            let (ds, _, _) = build(seed, cfg_with(budget));
            let got = ds.collect_with(&chaotic);
            if wide {
                assert_eq!(
                    canon(got),
                    reference,
                    "seed {seed} at {budget:?} under chaos"
                );
            } else {
                assert_eq!(
                    got,
                    ref_ds.collect(),
                    "seed {seed} at {budget:?} under chaos"
                );
            }
        }
    }
}

/// Same job, same budget, twice: the spill/unspill counter trace must be
/// identical — spill order is a pure function of (data, budget, config),
/// never of scheduling.
#[test]
fn spill_trace_is_deterministic() {
    let base = base_seed() ^ 0x00DE_7E12;
    for i in 0..8 {
        let seed = base.wrapping_add(i).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let trace = |budget: Option<u64>| {
            let (ds, _, stats) = build(seed, cfg_with(budget));
            ds.collect();
            ds.count();
            (stats.spills(), stats.spill_bytes(), stats.unspill_bytes())
        };
        for budget in [BUDGETS[1], BUDGETS[2]] {
            assert_eq!(
                trace(budget),
                trace(budget),
                "seed {seed} at {budget:?}: spill trace must be schedule-free"
            );
        }
    }
}

/// An over-budget wordcount demonstrably spills, and every temp file is
/// gone once the lineage is dropped.
#[test]
fn over_budget_job_spills_and_cleans_up() {
    let spill_root = std::env::temp_dir().join(format!("peachy-spill-{}", std::process::id()));
    let dirs = |root: &std::path::Path| -> std::collections::HashSet<std::ffi::OsString> {
        std::fs::read_dir(root)
            .map(|d| d.flatten().map(|e| e.file_name()).collect())
            .unwrap_or_default()
    };
    let before = dirs(&spill_root);

    let lines: Vec<String> = (0..2_000)
        .map(|i| format!("word{} word{} common", i % 50, i % 13))
        .collect();
    let (stats, during) = {
        let stats = ShuffleStats::new();
        let counts = Dataset::from_vec_with(lines, 8, cfg_with(Some(1024)))
            .with_stats(Arc::clone(&stats))
            .flat_map(|line| {
                line.split_whitespace()
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            })
            .key_by(|w| w.clone())
            .with_stats(Arc::clone(&stats))
            .map_values(|_| 1u64)
            .reduce_by_key(|a, b| a + b);
        let table = counts.collect();
        // word0..word49 (the %13 words are a subset) plus "common".
        assert_eq!(table.len(), 51);
        assert_eq!(
            table.iter().map(|(_, n)| n).sum::<u64>(),
            3 * 2_000,
            "every word counted exactly once regardless of where it lived"
        );
        assert!(
            stats.spills() > 0,
            "a 1 KiB budget over ~100 KiB of text must spill"
        );
        assert!(stats.spill_bytes() > 0);
        assert!(
            stats.unspill_bytes() > 0,
            "spilled buckets must have been streamed back"
        );
        let during: Vec<_> = dirs(&spill_root).difference(&before).cloned().collect();
        assert!(!during.is_empty(), "spilling must create store directories");
        (stats, during)
    };
    // The lineage (and with it every PartitionStore) is dropped: every
    // store directory that appeared during the job must disappear. Other
    // tests of this binary share the per-process root and may race their
    // own short-lived directories into `during`, so poll briefly.
    let gone = |during: &[std::ffi::OsString]| {
        let now = dirs(&spill_root);
        during.iter().all(|d| !now.contains(d))
    };
    for _ in 0..100 {
        if gone(&during) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        gone(&during),
        "dropped stores must remove their spill directories"
    );
    assert!(stats.spill_bytes() >= stats.spills());
}

/// Auto-cache arming reads the byte threshold alone: an auto-cache whose
/// contents blow the whole budget wholly spills under the fair-share rule
/// and is replayed from disk, never recomputed, whether spilled reads
/// stream or rebuild — so it is armed at every budget and in both read
/// modes. The rows are identical throughout.
#[test]
fn oversized_auto_cache_is_armed_in_every_read_mode() {
    let run = |cfg: OptimizerConfig| {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let ds = Dataset::from_vec_with((0..10_000u64).collect::<Vec<_>>(), 4, cfg).map(move |x| {
            counter.fetch_add(1, Ordering::SeqCst);
            x.wrapping_mul(7)
        });
        let total = ds.reduce(|a, b| a.wrapping_add(b));
        assert_eq!(ds.count(), 10_000);
        assert_eq!(ds.collect().len(), 10_000);
        assert!(total.is_some());
        calls.load(Ordering::SeqCst)
    };
    assert_eq!(
        run(cfg_with(None)),
        20_000,
        "unlimited budget: the shared subtree auto-caches as before"
    );
    assert_eq!(
        run(cfg_with(Some(1024))),
        20_000,
        "streaming store: a spilled cache replays row by row, so arming still wins"
    );
    assert_eq!(
        run(OptimizerConfig {
            stream_spills: false,
            ..cfg_with(Some(1024))
        }),
        20_000,
        "rebuild-on-access strawman: the spilled cache is rebuilt from disk, not recomputed"
    );
}

/// Unit-flavoured cleanup law at the seam itself: a store that spilled
/// removes its directory on drop.
#[test]
fn partition_store_cleans_its_directory() {
    let parts: Vec<Vec<u64>> = (0..4).map(|p| vec![p; 64]).collect();
    let store = PartitionStore::prefilled(
        parts,
        StoreConfig {
            budget: Some(100),
            ..StoreConfig::default()
        },
    );
    let dir = store
        .spill_dir()
        .expect("a 2 KiB prefill against 100 B must spill")
        .to_path_buf();
    assert!(dir.is_dir());
    assert!(store.spilled_parts() > 0);
    drop(store);
    assert!(!dir.exists(), "drop must remove the spill directory");
}
