//! E18 scenario builders: the optimizer-ablation pipelines shared by the
//! `dataflow` bench, `report_all`, and the committed
//! `BENCH_6.json` baseline. Each scenario runs the same lineage under
//! [`OptimizerConfig::naive`] and [`OptimizerConfig::default`]; the comm
//! counters are deterministic (seeded inputs, fixed partition counts), so
//! the regression gate can demand exact matches across machines.

use std::sync::Arc;

use peachy::city::{hotspot_growth_with, CityTables};
use peachy::data::geo::{CityConfig, SyntheticCity};
use peachy::dataflow::{Dataset, KeyedDataset, OptimizerConfig, ShuffleStats};
use peachy::prng::{Lcg64, RandomStream};

use crate::harness::median_ns;

/// Fixed seed for every E18 input — counters must replay bit-identically.
pub const E18_SEED: u64 = 1806;

/// One timed pipeline run: wall-clock median over the iterations plus the
/// comm counters of a single run (they are identical run-to-run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measured {
    /// Median wall time across the iterations, nanoseconds.
    pub median_ns: u64,
    /// Rows in the final result.
    pub rows: u64,
    /// Records moved through real shuffles.
    pub records: u64,
    /// Bytes moved through real shuffles.
    pub bytes: u64,
    /// Real (materialized) shuffle boundaries.
    pub shuffles: u64,
    /// Boundaries served from co-partitioned parents instead.
    pub elided: u64,
    /// Partitions written to disk by byte-budgeted stores (E20).
    pub spills: u64,
    /// Encoded bytes those spills wrote.
    pub spill_bytes: u64,
    /// Encoded bytes streamed back from spilled partitions.
    pub unspill_bytes: u64,
    /// High-water mark of bytes materialized or decoded at once by
    /// byte-budgeted stores (the E22 streaming meter).
    pub peak_resident_bytes: u64,
}

/// Run `run` `iters` times; each call must build a FRESH pipeline (shuffle
/// posts are memoized per op, so reusing one would time a cache hit).
pub fn measure<F>(iters: usize, run: F) -> Measured
where
    F: Fn() -> (usize, Arc<ShuffleStats>),
{
    let (median_ns, (rows, stats)) = median_ns(iters, 1, run);
    Measured {
        median_ns,
        rows: rows as u64,
        records: stats.records(),
        bytes: stats.bytes(),
        shuffles: stats.shuffles(),
        elided: stats.shuffles_elided(),
        spills: stats.spills(),
        spill_bytes: stats.spill_bytes(),
        unspill_bytes: stats.unspill_bytes(),
        peak_resident_bytes: stats.peak_resident_bytes(),
    }
}

/// The default optimizer under a byte budget — the E20 ablation knob: the
/// same pipeline resident (`OptimizerConfig::default`) vs spilled
/// (`spill_cfg(budget)`) must produce identical rows and comm counters,
/// differing only in the spill traffic.
pub fn spill_cfg(budget: u64) -> OptimizerConfig {
    OptimizerConfig {
        spill_budget: Some(budget),
        ..OptimizerConfig::default()
    }
}

/// The E22 strawman: the same byte budget, but spilled partitions are
/// rebuilt whole on access instead of replayed one row at a time.
pub fn rebuild_cfg(budget: u64) -> OptimizerConfig {
    OptimizerConfig {
        spill_budget: Some(budget),
        stream_spills: false,
        ..OptimizerConfig::default()
    }
}

/// The E22 streaming-ablation pipeline: a fully skewed group-by. Every
/// row routes to a single shuffle bucket, so the bucket dwarfs any source
/// partition — the rebuild-on-access strawman must materialize it whole to
/// post it, while streaming consumption decodes it row-by-row and its
/// high-water mark stays at the (half-sized) posted groups.
pub fn skewed_group(
    n: usize,
    partitions: usize,
    cfg: OptimizerConfig,
) -> (usize, Arc<ShuffleStats>) {
    let rows: Vec<u64> = (0..n as u64).collect();
    let stats = ShuffleStats::new();
    let grouped = Dataset::from_vec_with(rows, partitions, cfg)
        .with_stats(Arc::clone(&stats))
        .key_by(|_| 0u64)
        .with_stats(Arc::clone(&stats))
        .group_by_key()
        .collect();
    let total = grouped.iter().map(|(_, vs)| vs.len()).sum();
    (total, stats)
}

/// A seeded word corpus: `words` draws from a small vocabulary, ~12 words
/// per line.
pub fn corpus(words: usize, seed: u64) -> String {
    const VOCAB: [&str; 24] = [
        "peach",
        "parallel",
        "assignment",
        "shuffle",
        "partition",
        "lineage",
        "cluster",
        "reduce",
        "combine",
        "broadcast",
        "join",
        "cache",
        "stage",
        "narrow",
        "wide",
        "fuse",
        "elide",
        "plan",
        "cost",
        "bytes",
        "rank",
        "chunk",
        "worker",
        "task",
    ];
    let mut rng = Lcg64::seed_from(seed);
    let mut text = String::with_capacity(words * 8);
    for i in 0..words {
        text.push_str(VOCAB[rng.next_below(VOCAB.len() as u64) as usize]);
        text.push(if i % 12 == 11 { '\n' } else { ' ' });
    }
    text
}

/// Wordcount with a second aggregation pass: count words, drop the rare
/// ones, then re-aggregate per first letter — the second shuffle routes by
/// the same layout and elides under the default config. The narrow
/// ingest chain (flat_map → filter) additionally fuses.
pub fn wordcount(
    text: &str,
    partitions: usize,
    cfg: OptimizerConfig,
) -> (Vec<(String, u64)>, Arc<ShuffleStats>) {
    let stats = ShuffleStats::new();
    let mut out = Dataset::from_text(text, partitions)
        .with_optimizer(cfg)
        .flat_map(|line| {
            line.split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .filter(|w| w.len() > 3)
        .key_by(|w| w.clone())
        .with_stats(Arc::clone(&stats))
        .count_by_key()
        .filter_keys(|w| !w.ends_with('e'))
        .reduce_by_key(|a, b| a + b)
        .collect();
    out.sort();
    (out, stats)
}

/// The standard E18 city: 8×8 NTAs, seeded, sized for sub-second runs.
pub fn city_tables(arrests: usize) -> CityTables {
    let config = CityConfig {
        grid_w: 8,
        grid_h: 8,
        arrests,
        ..CityConfig::default()
    };
    let city = SyntheticCity::generate(config, E18_SEED);
    CityTables::from_city(&city, config.current_year)
}

/// The city hotspot-growth analysis under `cfg` (the flagship elision
/// site: both join sides are co-partitioned `count_by_key` outputs).
pub fn city_hotspot(
    tables: &CityTables,
    partitions: usize,
    cfg: OptimizerConfig,
) -> (usize, Arc<ShuffleStats>) {
    let (rows, stats) = hotspot_growth_with(tables, 4, partitions, cfg);
    (rows.len(), stats)
}

/// A keyed chained aggregation over seeded numeric rows — the pure
/// dataflow (no parsing) elision scenario.
pub fn chained_aggregation(
    n: usize,
    partitions: usize,
    cfg: OptimizerConfig,
) -> (usize, Arc<ShuffleStats>) {
    let mut rng = Lcg64::seed_from(E18_SEED);
    let rows: Vec<(u64, u64)> = (0..n)
        .map(|_| (rng.next_below(1 << 14), rng.next_below(100)))
        .collect();
    let stats = ShuffleStats::new();
    let out = KeyedDataset::from_dataset(Dataset::from_vec_with(rows, partitions, cfg))
        .with_stats(Arc::clone(&stats))
        .reduce_by_key(|a, b| a + b)
        .filter_keys(|k| k % 3 != 0)
        .map_values(|v| v * 2)
        .reduce_by_key(|a, b| a + b)
        .count();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_config_invariant_and_optimizer_moves_fewer_bytes() {
        let text = corpus(20_000, E18_SEED);
        let (opt, opt_stats) = wordcount(&text, 8, OptimizerConfig::default());
        let (naive, naive_stats) = wordcount(&text, 8, OptimizerConfig::naive());
        assert_eq!(opt, naive);
        assert!(opt_stats.shuffles_elided() >= 1);
        assert!(opt_stats.bytes() < naive_stats.bytes());

        let (n_opt, s_opt) = chained_aggregation(50_000, 8, OptimizerConfig::default());
        let (n_naive, s_naive) = chained_aggregation(50_000, 8, OptimizerConfig::naive());
        assert_eq!(n_opt, n_naive);
        assert!(s_opt.bytes() < s_naive.bytes());
    }

    #[test]
    fn measure_reports_counters_of_a_fresh_run() {
        let m = measure(3, || {
            chained_aggregation(10_000, 4, OptimizerConfig::default())
        });
        assert!(m.rows > 0);
        assert!(m.shuffles >= 1);
        assert!(m.elided >= 1);
    }
}
