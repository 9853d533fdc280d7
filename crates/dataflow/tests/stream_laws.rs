//! Streaming out-of-core laws: replaying spilled rows one at a time must
//! change *nothing* but the memory high-water mark.
//!
//! [`OptimizerConfig::stream_spills`] swaps every rebuild-the-partition
//! read for a row-by-row replay
//! ([`peachy_dataflow::store::PartitionStore::replay`]), and makes a
//! shuffle's route pass push its inputs through the narrow chain a second
//! time instead of keeping them in RAM between its passes; in both modes a
//! spilled bucket is encoded row by row, one segment per input. The laws
//! here pin the two sides of that trade on the same seeded random-DAG grid
//! the spill laws use:
//!
//! * rows and non-spill counters are bit-identical to mem-mode (and to the
//!   rebuild-on-access strawman) at every budget, on every executor, and
//!   under benign transport chaos;
//! * the deterministic [`ShuffleStats::peak_resident_bytes`] meter never
//!   reads higher streaming than rebuilding, and on a skewed group it
//!   reads *strictly* lower — the residency win the mode exists for.
//!
//! CI rolls a fresh grid per run via `PEACHY_CHAOS_SEED`, logging it for
//! replay.

use std::sync::Arc;
use std::time::Duration;

use peachy_cluster::{EdgeFault, Executor, FaultPlan};
use peachy_dataflow::{Dataset, OptimizerConfig, RetryPolicy, ShuffleStats};
use peachy_prng::{Lcg64, RandomStream};

fn base_seed() -> u64 {
    std::env::var("PEACHY_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00C0_FFEE_5EED)
}

/// Budgets that actually spill on the generator's row counts.
const SPILL_BUDGETS: [u64; 2] = [64 * 1024, 1024];

/// A config pair differing only in how spilled partitions are consumed.
/// Auto-cache arming reads only the byte threshold, so it is *identical*
/// in both modes — the runs execute the same plan and differ purely in
/// streamed-vs-rebuilt reads, which is exactly what the peak comparison
/// must isolate.
fn cfg(budget: Option<u64>, stream: bool) -> OptimizerConfig {
    OptimizerConfig {
        spill_budget: budget,
        stream_spills: stream,
        ..OptimizerConfig::default()
    }
}

/// The same seeded random-pipeline generator as `spill_laws.rs` (kept in
/// lockstep by hand — integration tests cannot share modules): covers
/// narrow chains, caches, repartitions, retries, unions, and 1–3 chained
/// wide ops over 1–7 partitions.
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

fn non_spill_counters(stats: &ShuffleStats) -> (u64, u64, u64, u64) {
    (
        stats.records(),
        stats.bytes(),
        stats.shuffles(),
        stats.shuffles_elided(),
    )
}

/// The central grid law: at every spilling budget, both consumption modes
/// reproduce the unbudgeted rows and ledger exactly, and the streaming
/// peak never exceeds the rebuild peak.
#[test]
fn streaming_is_bit_identical_and_never_peaks_higher() {
    let base = base_seed();
    println!("stream-laws grid base seed: {base:#x}");
    for i in 0..16 {
        let seed = base.wrapping_add(i).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let (ref_ds, wide, ref_stats) = build(seed, cfg(None, true));
        let reference = ref_ds.collect();
        for budget in SPILL_BUDGETS {
            let mut peaks = [0u64; 2];
            for (slot, stream) in [(0usize, true), (1usize, false)] {
                let (ds, w, stats) = build(seed, cfg(Some(budget), stream));
                assert_eq!(w, wide, "builder must be deterministic in seed");
                let got = ds.collect();
                if wide {
                    assert_eq!(
                        canon(got),
                        canon(reference.clone()),
                        "seed {seed} at budget {budget} (stream={stream}): multiset diverged"
                    );
                } else {
                    assert_eq!(
                        got, reference,
                        "seed {seed} at budget {budget} (stream={stream}): rows diverged"
                    );
                }
                assert_eq!(
                    non_spill_counters(&stats),
                    non_spill_counters(&ref_stats),
                    "seed {seed} at budget {budget} (stream={stream}): ledger diverged"
                );
                peaks[slot] = stats.peak_resident_bytes();
            }
            assert!(
                peaks[0] <= peaks[1],
                "seed {seed} at budget {budget}: streaming peak {} exceeds rebuild peak {}",
                peaks[0],
                peaks[1]
            );
        }
    }
}

/// The streamed rows survive every executor and benign transport chaos —
/// scheduling and message mischief cannot observe the replay seam.
#[test]
fn streaming_holds_on_every_executor_and_under_chaos() {
    let base = base_seed() ^ 0x57EA;
    for i in 0..4 {
        let seed = base.wrapping_add(i).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let (ref_ds, wide, _) = build(seed, cfg(None, true));
        let reference = canon(ref_ds.collect());
        let plan = FaultPlan::new(seed).all_edges(EdgeFault {
            drop_p: 0.0,
            dup_p: 0.2,
            reorder_p: 0.3,
            delay: Duration::from_micros(50),
        });
        let execs = [
            Executor::seq(),
            Executor::rayon(3),
            Executor::cluster(4),
            Executor::Cluster { ranks: 4, plan },
        ];
        for exec in execs {
            for budget in SPILL_BUDGETS {
                let (ds, _, _) = build(seed, cfg(Some(budget), true));
                let got = ds.collect_with(&exec);
                if wide {
                    assert_eq!(canon(got), reference, "seed {seed} at {budget} on {exec:?}");
                } else {
                    assert_eq!(got, ref_ds.collect(), "seed {seed} at {budget} on {exec:?}");
                }
            }
        }
    }
}

/// The high-water meter is a pure function of (data, budget, config): the
/// charge set is fixed by the plan and `max` is order-free, so repeats and
/// executor swaps read the same number.
#[test]
fn peak_meter_is_deterministic() {
    let base = base_seed() ^ 0x00AB_C4E5;
    for i in 0..6 {
        let seed = base.wrapping_add(i).wrapping_mul(0x2545_F491_4F6C_DD1D);
        for budget in SPILL_BUDGETS {
            let peak_with = |exec: Option<&Executor>| {
                let (ds, _, stats) = build(seed, cfg(Some(budget), true));
                match exec {
                    Some(e) => {
                        ds.collect_with(e);
                    }
                    None => {
                        ds.collect();
                    }
                }
                stats.peak_resident_bytes()
            };
            let reference = peak_with(None);
            assert_eq!(
                peak_with(None),
                reference,
                "seed {seed} at {budget}: repeat moved the peak"
            );
            for exec in [Executor::seq(), Executor::rayon(3), Executor::cluster(4)] {
                assert_eq!(
                    peak_with(Some(&exec)),
                    reference,
                    "seed {seed} at {budget} on {exec:?}: executor moved the peak"
                );
            }
        }
    }
}

/// The residency win, pinned strictly: a fully skewed group-by routes the
/// whole dataset into one shuffle bucket (~256 KiB against a 1 KiB
/// budget). The rebuild strawman must materialize that bucket to post it;
/// the streaming merge decodes it row-by-row, so its high-water mark stays
/// at the (half-sized) posted groups and never sees the bucket itself.
#[test]
fn streaming_peak_is_strictly_below_rebuild_on_a_skewed_group() {
    let run = |stream: bool| {
        let stats = ShuffleStats::new();
        let rows: Vec<u64> = (0..16_000).collect();
        let ds =
            Dataset::from_vec_with(rows, 8, cfg(Some(1024), stream)).with_stats(Arc::clone(&stats));
        let grouped = ds
            .key_by(|_| 0u64)
            .with_stats(Arc::clone(&stats))
            .group_by_key();
        let out = grouped.collect();
        assert_eq!(out.len(), 1, "one key, one group");
        assert_eq!(out[0].1.len(), 16_000, "every row grouped");
        assert!(stats.spills() > 0, "a 1 KiB budget over 256 KiB must spill");
        stats.peak_resident_bytes()
    };
    let streamed = run(true);
    let rebuilt = run(false);
    assert!(
        streamed < rebuilt,
        "streaming must strictly lower the high-water mark: streamed {streamed} B vs rebuilt {rebuilt} B"
    );
}

/// The optimizer knows which nodes stream: a budgeted plan report counts
/// them and renders the `stream@` residency tag; the strawman config
/// reports the same spill picture without the tag.
#[test]
fn plan_report_renders_streamed_nodes() {
    let build_report = |stream: bool| {
        let rows: Vec<u64> = (0..16_000).collect();
        let ds = Dataset::from_vec_with(rows, 4, cfg(Some(1024), stream));
        let keyed = ds.key_by(|x| x % 3).group_by_key();
        keyed.collect();
        keyed.explain_plans()
    };
    let streamed = build_report(true);
    assert!(
        streamed.streamed_nodes > 0,
        "spilled stores under a streaming config must report as streamed"
    );
    let text = streamed.to_string();
    assert!(
        text.contains("stream@1024B"),
        "report must tag streaming residency:\n{text}"
    );
    assert!(text.contains("node(s) streamed"), "summary line:\n{text}");

    let rebuilt = build_report(false);
    assert_eq!(
        rebuilt.streamed_nodes, 0,
        "the strawman rebuilds: no node may claim to stream"
    );
    assert!(!rebuilt.to_string().contains("stream@"));
}
