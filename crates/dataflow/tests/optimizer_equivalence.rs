//! Optimizer equivalence laws, pinned on a seeded grid of random DAGs.
//!
//! The plan optimizer's hard contract: fusing narrow ops, eliding
//! co-partitioned shuffles, and auto-caching shared subtrees must be
//! *invisible* in the results. For every seed in the grid this suite
//! builds the same pipeline twice — once under [`OptimizerConfig::default`]
//! (all rewrites on) and once under [`OptimizerConfig::naive`] (all off) —
//! and demands identical output, row for row. That holds for wide plans
//! too: every shuffle post groups through one fixed-seed hasher, so its
//! output order is a pure function of the rows pushed into it, and no
//! rewrite reorders those. The law is then re-checked across the Seq /
//! Rayon / Cluster executors and under benign transport chaos
//! (duplicates, reordering, delay).
//!
//! The base seed is `0xC0FFEE_5EED`, overridable via `OPTIMIZER_LAWS_SEED`
//! so CI can roll a fresh grid per run while logging the seed for replay.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use peachy_cluster::{EdgeFault, Executor, FaultPlan};
use peachy_dataflow::{Dataset, KeyedDataset, OptimizerConfig, RetryPolicy, ShuffleStats};
use peachy_prng::{Lcg64, RandomStream};

fn base_seed() -> u64 {
    std::env::var("OPTIMIZER_LAWS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00C0_FFEE_5EED)
}

/// One random pipeline: a narrow chain over a deterministic source,
/// usually followed by a chain of wide (shuffle-backed) ops. Both builds
/// of a seed draw the same random choices, so the only difference between
/// the two pipelines is `cfg`. Returns the final dataset plus whether any
/// shuffle is involved.
fn build(seed: u64, cfg: OptimizerConfig) -> (Dataset<(u64, u64)>, bool) {
    let mut rng = Lcg64::seed_from(seed);
    let rows = 50 + (rng.next_u64() % 350) as usize;
    let parts = 1 + (rng.next_u64() % 7) as usize;
    let source: Vec<u64> = (0..rows as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24)
        .collect();
    let mut ds = Dataset::from_vec(source, parts).with_optimizer(cfg);

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
        // Narrow-only plan: exact order must survive fusion + auto-cache.
        return (ds.map(|x| (x, x)), false);
    }

    let modulus = 2 + rng.next_u64() % 9;
    let mut keyed = ds.key_by(move |x| x % modulus);
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
                // Diamond: the same subtree feeds both join sides, so this
                // arm exercises auto-cache AND co-partitioned join elision.
                let other = keyed.count_by_key();
                keyed
                    .reduce_by_key(|a, b| a.wrapping_add(b))
                    .join(&other)
                    .map_values(|(v, w)| v ^ w)
            }
        };
    }
    (keyed.rows(), true)
}

fn canon(mut rows: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    rows.sort_unstable();
    rows
}

#[test]
fn optimized_plans_match_naive_across_seed_grid() {
    let base = base_seed();
    println!("optimizer-laws grid base seed: {base:#x}");
    for i in 0..32 {
        let seed = base.wrapping_add(i).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let (opt_ds, wide) = build(seed, OptimizerConfig::default());
        let (naive_ds, naive_wide) = build(seed, OptimizerConfig::naive());
        assert_eq!(wide, naive_wide, "builder must be deterministic in seed");
        assert_eq!(
            opt_ds.collect(),
            naive_ds.collect(),
            "seed {seed}: optimized rows or row order diverged from naive"
        );
        assert_eq!(opt_ds.count(), naive_ds.count(), "seed {seed}: count");

        // The explain report is advisory, but its cost model must never
        // claim the rewrites ADD traffic.
        let report = opt_ds.explain_plans();
        assert!(
            report.predicted_optimized_shuffle_bytes <= report.predicted_naive_shuffle_bytes,
            "seed {seed}: optimizer predicted a regression:\n{report}"
        );
    }
}

#[test]
fn optimized_results_agree_on_every_backend() {
    let base = base_seed() ^ 0xBAC0;
    for i in 0..8 {
        let seed = base.wrapping_add(i).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let (naive_ds, wide) = build(seed, OptimizerConfig::naive());
        let reference = naive_ds.collect();
        for exec in [Executor::seq(), Executor::rayon(3), Executor::cluster(4)] {
            for cfg in [OptimizerConfig::default(), OptimizerConfig::naive()] {
                let (ds, w) = build(seed, cfg);
                assert_eq!(w, wide);
                // collect_with must preserve the exact serial order.
                let got = ds.collect_with(&exec);
                assert_eq!(got, reference, "seed {seed} on {exec:?}");
                assert_eq!(ds.count_with(&exec), reference.len(), "seed {seed} count");
            }
        }
    }
}

#[test]
fn benign_chaos_does_not_change_results() {
    let base = base_seed() ^ 0x000C_4A05;
    for i in 0..6 {
        let seed = base.wrapping_add(i).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let plan = FaultPlan::new(seed).all_edges(EdgeFault {
            drop_p: 0.0,
            dup_p: 0.2,
            reorder_p: 0.3,
            delay: Duration::from_micros(50),
        });
        let chaotic = Executor::Cluster { ranks: 4, plan };
        let (naive_ds, wide) = build(seed, OptimizerConfig::naive());
        let reference = naive_ds.collect();
        for cfg in [OptimizerConfig::default(), OptimizerConfig::naive()] {
            let (ds, w) = build(seed, cfg);
            assert_eq!(w, wide);
            let got = ds.collect_with(&chaotic);
            assert_eq!(got, reference, "seed {seed} under chaos");
        }
    }
}

/// Negative law: an intervening repartition destroys the hash layout, so
/// the optimizer must NOT elide the next shuffle — and saying so must not
/// change the rows.
#[test]
fn repartition_between_aggregations_blocks_elision() {
    let rows: Vec<(u64, u64)> = (0..400).map(|i| (i % 13, 1)).collect();
    let run = |cfg: OptimizerConfig| {
        let stats = ShuffleStats::new();
        let first =
            KeyedDataset::from_dataset(Dataset::from_vec(rows.clone(), 4).with_optimizer(cfg))
                .with_stats(Arc::clone(&stats))
                .count_by_key();
        let rebalanced =
            KeyedDataset::from_dataset(first.rows().repartition(6)).with_stats(Arc::clone(&stats));
        let out = rebalanced.reduce_by_key(|a, b| a + b).collect();
        (out, stats.shuffles(), stats.shuffles_elided())
    };
    let (optimized, shuffles, elided) = run(OptimizerConfig::default());
    let (naive, naive_shuffles, naive_elided) = run(OptimizerConfig::naive());
    assert_eq!(optimized, naive);
    assert_eq!(
        (shuffles, elided),
        (2, 0),
        "repartition resets the layout claim; both boundaries must move data"
    );
    assert_eq!((naive_shuffles, naive_elided), (2, 0));
    let expected: Vec<(u64, u64)> = (0..13)
        .map(|k| (k, if k < 400 % 13 { 31 } else { 30 }))
        .collect();
    assert_eq!(canon(optimized), expected);
}

/// Regression for the double-compute bug: a subtree consumed by several
/// actions used to be recomputed per action. With the optimizer on, the
/// auto-cache arms once the lifetime consumer count reaches two and fills
/// during that second action, so the third and every later action replays
/// pinned rows. The naive config preserves the old recomputing behaviour.
#[test]
fn shared_subtree_is_not_recomputed_across_actions() {
    let calls = Arc::new(AtomicUsize::new(0));
    let run = |cfg: OptimizerConfig| {
        let calls = Arc::clone(&calls);
        calls.store(0, Ordering::SeqCst);
        let counter = Arc::clone(&calls);
        let ds = Dataset::from_vec((0..1_000u64).collect::<Vec<_>>(), 4)
            .with_optimizer(cfg)
            .map(move |x| {
                counter.fetch_add(1, Ordering::SeqCst);
                x.wrapping_mul(7)
            });
        let total = ds.reduce(|a, b| a.wrapping_add(b));
        let n = ds.count();
        assert_eq!(ds.collect().len(), 1_000);
        assert_eq!(n, 1_000);
        assert!(total.is_some());
        calls.load(Ordering::SeqCst)
    };
    assert_eq!(
        run(OptimizerConfig::default()),
        2_000,
        "the third action must replay the auto-cached rows, not the closure"
    );
    assert_eq!(run(OptimizerConfig::naive()), 3_000);
}

/// The shuffle post-image is memoized independently of the optimizer:
/// repeated actions on one keyed result replay the posted buckets, so the
/// map-side closure runs exactly once even under the naive config.
#[test]
fn shuffle_memoization_survives_repeated_actions() {
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    let ds = Dataset::from_vec((0..600u64).collect::<Vec<_>>(), 3)
        .with_optimizer(OptimizerConfig::naive())
        .map(move |x| {
            counter.fetch_add(1, Ordering::SeqCst);
            x
        });
    let reduced = ds.key_by(|x| x % 9).reduce_by_key(|a, b| a + b);
    let first = reduced.collect();
    let n = reduced.count();
    let second = reduced.collect();
    assert_eq!(first, second);
    assert_eq!(n, 9);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        600,
        "three actions, one map-side pass"
    );
}
