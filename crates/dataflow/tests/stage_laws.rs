//! Stage laws: how the stage runner schedules a plan's shuffles.
//!
//! Before an action's partition tasks start, the runner routes every
//! shuffle bottom-up from the action's own thread, so each map side is one
//! top-level parallel loop over its input partitions. Three things follow
//! and are pinned here:
//!
//! * the input partitions of a shuffle that sits under a second shuffle
//!   run concurrently, instead of inline inside the upper shuffle's lazy
//!   route pass;
//! * `take` stays lazy: a shuffle its prefix never reaches is never
//!   routed;
//! * a shuffle under a retry is routed inside the retried partition task,
//!   so a map-side panic is retried under the policy — and a permanent
//!   one still escapes the action.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use peachy_dataflow::{Dataset, KeyedDataset, RetryPolicy, ShuffleStats};

/// Counts the partition tasks inside it at once. Each entrant waits up to
/// one second for a second one to arrive, so two tasks that can overlap
/// do; after one fruitless wait nobody waits again.
#[derive(Default)]
struct Rendezvous {
    meet: Mutex<Meet>,
    arrived: Condvar,
}

#[derive(Default)]
struct Meet {
    in_flight: usize,
    most: usize,
    gave_up: bool,
}

impl Rendezvous {
    fn visit(&self) {
        let mut meet = self
            .meet
            .lock()
            .expect("no visitor panics holding the lock");
        meet.in_flight += 1;
        meet.most = meet.most.max(meet.in_flight);
        self.arrived.notify_all();
        let (mut meet, wait) = self
            .arrived
            .wait_timeout_while(meet, Duration::from_secs(1), |m| m.most < 2 && !m.gave_up)
            .expect("no visitor panics holding the lock");
        meet.gave_up |= wait.timed_out();
        meet.in_flight -= 1;
    }

    fn most(&self) -> usize {
        self.meet
            .lock()
            .expect("no visitor panics holding the lock")
            .most
    }
}

/// Per-key sums of `(key, value)` rows, sorted by key.
fn sums(rows: impl IntoIterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
    let mut by_key = BTreeMap::new();
    for (k, v) in rows {
        *by_key.entry(k).or_insert(0) += v;
    }
    by_key.into_iter().collect()
}

#[test]
fn input_partitions_of_a_lower_shuffle_run_concurrently() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("one core: no concurrency to observe");
        return;
    }
    let rows: Vec<(u64, u64)> = (0..4_000).map(|i| (i % 97, i)).collect();
    let meet = Arc::new(Rendezvous::default());
    let m = Arc::clone(&meet);
    let stats = ShuffleStats::new();
    let input = Dataset::from_vec(rows.clone(), 8).map_partitions(move |part| {
        m.visit();
        part
    });
    let lower = KeyedDataset::from_dataset(input)
        .with_stats(Arc::clone(&stats))
        .reduce_by_key(|a, b| a + b);
    // Re-keying forgets the layout, so the upper shuffle moves rows too.
    let upper = KeyedDataset::from_dataset(lower.rows().map(|(k, v)| (k % 7, v)))
        .with_stats(Arc::clone(&stats))
        .reduce_by_key(|a, b| a + b);

    let mut got = upper.collect();
    got.sort_unstable();
    assert_eq!(got, sums(rows.into_iter().map(|(k, v)| (k % 7, v))));
    assert_eq!(stats.shuffles(), 2, "both boundaries routed once");
    assert!(
        meet.most() >= 2,
        "the lower shuffle's input partitions ran one at a time"
    );
}

#[test]
fn take_stays_lazy_and_routes_no_unreached_shuffle() {
    let stats = ShuffleStats::new();
    let left = Dataset::from_vec((0..100u64).map(|i| (i, i)).collect(), 4);
    let right = KeyedDataset::from_dataset(Dataset::from_vec(
        (0..100u64).map(|i| (i % 9, i)).collect(),
        4,
    ))
    .with_stats(Arc::clone(&stats))
    .reduce_by_key(|a, b| a + b)
    .rows();
    let both = left.union_with(&right);

    // The left partitions alone hold 100 rows.
    assert_eq!(
        both.take(30),
        (0..30u64).map(|i| (i, i)).collect::<Vec<_>>()
    );
    assert_eq!(
        stats.shuffles(),
        0,
        "take routed a shuffle it never reached"
    );

    assert_eq!(both.collect().len(), 109);
    assert_eq!(stats.shuffles(), 1, "a full action routes it, once");
}

#[test]
fn retry_below_a_shuffle_recovers_a_transient_map_side_panic() {
    let rows: Vec<u64> = (0..2_000).collect();
    let failed = Arc::new(AtomicBool::new(false));
    let f = Arc::clone(&failed);
    let stats = ShuffleStats::new();
    let retried = Dataset::from_vec(rows.clone(), 6)
        .map(move |x| {
            if x == 1_234 && !f.swap(true, SeqCst) {
                panic!("transient map-side failure");
            }
            x
        })
        .key_by(|x| x % 13)
        .with_stats(Arc::clone(&stats))
        .reduce_by_key(|a, b| a + b)
        .rows()
        .with_retry(RetryPolicy { max_attempts: 3 });

    let mut got = retried.collect();
    got.sort_unstable();
    assert_eq!(got, sums(rows.into_iter().map(|x| (x % 13, x))));
    assert!(failed.load(SeqCst), "the map side failed once");
    assert_eq!(stats.shuffles(), 1, "the failed route pass counts nothing");
}

#[test]
#[should_panic(expected = "permanent map-side failure")]
fn retry_below_a_shuffle_still_raises_a_permanent_map_side_panic() {
    Dataset::from_vec((0..100u64).collect(), 4)
        .map(|x: u64| -> u64 {
            if x == 42 {
                panic!("permanent map-side failure");
            }
            x
        })
        .key_by(|x| x % 5)
        .reduce_by_key(|a, b| a + b)
        .rows()
        .with_retry(RetryPolicy { max_attempts: 2 })
        .collect();
}
