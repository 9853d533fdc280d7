//! # peachy-dataflow
//!
//! A Spark-like dataflow engine: the substrate for the §4 "Data Science
//! Pipeline" assignment, where students "design, construct, and improve
//! data analysis pipelines using Hadoop, MapReduce, and Spark".
//!
//! The engine reproduces the concepts the assignment teaches, at laptop
//! scale:
//!
//! * **Lazy lineage** — a [`Dataset<T>`] is a recipe, not data. Narrow
//!   transformations ([`Dataset::map`], [`Dataset::filter`],
//!   [`Dataset::flat_map`], [`Dataset::union_with`]) extend the lineage
//!   without computing anything.
//! * **Partitions** — every dataset is split into partitions, the unit of
//!   parallelism; actions evaluate partitions concurrently on the
//!   `peachy-par` pool.
//! * **Stage pipelining** — chains of narrow ops fuse: one pass per
//!   partition, no intermediate materialization.
//! * **Wide transformations & the shuffle** — [`keyed::KeyedDataset`]
//!   provides `reduce_by_key`, `group_by_key`, `join`, … implemented with a
//!   hash-partitioned shuffle whose map-side output is materialized once
//!   (like Spark's shuffle files) and whose record volume is observable via
//!   [`ShuffleStats`] — so the "improve the pipeline" exercise (map-side
//!   combining, partition sizing) is measurable.
//! * **Caching** — [`Dataset::cache`] pins a dataset's partitions in memory
//!   after first evaluation, cutting recomputation exactly as `RDD.cache()`
//!   does.
//! * **Explain** — [`Dataset::explain`] prints the lineage tree with stage
//!   boundaries, the mental model the course builds. `explain()`,
//!   [`Dataset::num_stages`] and [`Dataset::explain_plans`] all read one
//!   tree of [`PlanNode`]s, the single description of each lineage node.
//! * **Task retry** — [`Dataset::with_retry`] makes partition evaluation
//!   failure-aware: a panicking compute (flaky UDF, simulated executor
//!   loss) is recomputed from lineage up to a [`RetryPolicy`] bound,
//!   Spark's task-retry behaviour on the lineage graph.
//! * **The plan optimizer** — every action runs through a cost-based
//!   rewrite pass ([`optimize`]): adjacent narrow ops fuse into one
//!   push-based pass, shuffles whose input is provably co-partitioned are
//!   elided entirely, and subtrees consumed by multiple actions are
//!   auto-cached when the measured/estimated recompute volume clears a
//!   threshold. [`Dataset::explain_plans`] renders the naive and optimized
//!   plans side by side with predicted shuffle bytes; every rewrite is
//!   individually gated by [`OptimizerConfig`] and pinned bit-identical to
//!   the naive plan by the equivalence suite.
//! * **Out-of-core partitions** — every resident-partition holder (source
//!   rows, caches, shuffle buckets) lives behind one storage seam,
//!   [`store::PartitionStore`]. With a byte budget configured
//!   (`OptimizerConfig::spill_budget`), partitions that would overrun it
//!   are spilled to temp files in a deterministic encoding and streamed
//!   back on access — results stay bit-identical at every budget, and
//!   [`ShuffleStats`] meters the spill traffic.
//! * **Streaming out-of-core execution** — spilled partitions are consumed
//!   through a row [`store::RowCursor`] instead of being rebuilt in memory:
//!   fused narrow chains, the shuffle's route/fill passes (writing through
//!   [`store::SpillSink`]s) and the merge-side posts all pull rows straight
//!   off disk. A deterministic high-water meter
//!   (`ShuffleStats::peak_resident_bytes`) proves the residency win, and
//!   the plan report renders which nodes stream.
//!
//! ```
//! use peachy_dataflow::Dataset;
//!
//! let words = Dataset::from_vec(vec!["a b", "b c c"], 2)
//!     .flat_map(|line| line.split_whitespace().map(str::to_string).collect::<Vec<_>>());
//! let counts = words.key_by(|w| w.clone()).map_values(|_| 1u64).reduce_by_key(|a, b| a + b);
//! let mut table = counts.collect();
//! table.sort();
//! assert_eq!(table, vec![("a".into(), 1), ("b".into(), 2), ("c".into(), 2)]);
//! ```

pub mod dataset;
pub mod keyed;
pub mod ops;
pub mod optimize;
pub mod plan;
pub mod shuffle;
pub mod store;

pub use dataset::Dataset;
pub use keyed::KeyedDataset;
pub use optimize::{OptimizerConfig, PlanReport};
pub use peachy_cluster::{ByteSized, RetryPolicy};
pub use plan::{Partitioning, PlanKind, PlanNode};
pub use shuffle::ShuffleStats;
pub use store::{PartitionStore, Residency, RowCursor, SpillReader, SpillRow, SpillSink, StoreConfig};
