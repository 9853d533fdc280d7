//! # peachy-spec — a declarative scenario layer
//!
//! Course assignments keep rewriting the same driver: build a dataset,
//! chain a handful of transforms, shuffle by a key, maybe join, collect,
//! sort, print — or stand up a model server and replay a query trace
//! against it. `peachy-spec` turns that driver into *data*: a small
//! sectioned key/value text format (`.peachy` files) that declares
//! sources, stages, sinks and services, and a compiler that lowers the
//! declaration onto the existing engine — [`peachy_dataflow`] lineage
//! for pipelines (so the plan optimizer and the spill seam apply
//! unchanged) and [`peachy_serve`] for services (including the elastic
//! sharded tier, with scripted scaling and fault plans straight from the
//! spec).
//!
//! The format is hand-rolled and dependency-free. A document is a list
//! of `[section]` headers with `key = value` entries; values are
//! booleans, 64-bit ints, floats, or (optionally quoted) strings.
//! Section order doesn't matter except that a stage may only reference
//! sources and *earlier* stages — lineage is a DAG by construction.
//!
//! ```text
//! [scenario]
//! name = wordish
//!
//! [source.rows]
//! kind = inline
//! columns = "word"
//! row = "peach"
//! row = "plum"
//! row = "peach"
//!
//! [stage.counts]
//! input = rows
//! op = count
//! key = word
//!
//! [sink]
//! from = counts
//! sort = "word"
//! ```
//!
//! ```
//! use peachy_spec::{Runner, RunOptions};
//! # let text = "[scenario]\nname = t\n[source.r]\nkind = inline\ncolumns = \"w\"\nrow = \"a\"\nrow = \"b\"\nrow = \"a\"\n[stage.c]\ninput = r\nop = count\nkey = w\n[sink]\nfrom = c\nsort = \"w\"\n";
//! let report = Runner::from_str(text).unwrap().run(&RunOptions::default()).unwrap();
//! assert_eq!(report.rows.len(), 2);
//! ```
//!
//! Four design rules keep the layer honest:
//!
//! 1. **Compile, don't interpret.** A spec lowers to the same
//!    [`Dataset`](peachy_dataflow::Dataset)/[`KeyedDataset`](peachy_dataflow::KeyedDataset)
//!    lineage a hand-written driver builds, so the optimizer's fusion,
//!    shuffle elision and spill budgeting — and the engine's
//!    determinism laws — apply without a parallel code path. The
//!    equivalence suite pins committed specs bit-identical (rows *and*
//!    shuffle counters) to their Rust twins.
//! 2. **The engine's configs, not mirrors.** A parsed scenario holds
//!    the engine's own [`OptimizerConfig`](peachy_dataflow::OptimizerConfig),
//!    [`CityConfig`](peachy_data::geo::CityConfig),
//!    [`ServeConfig`](peachy_serve::ServeConfig) (a pool service) and
//!    [`ShardConfig`](peachy_serve::ShardConfig) (`knn_sharded`, with
//!    `[backoff]` and `[scaling]`), so a knob has one meaning and one
//!    default. A rider section belongs to one tier: `[serve]` to the
//!    pool, `[shard]`/`[backoff]`/`[scaling]` to the sharded tier.
//! 3. **Errors name the line, and nothing panics.** Every parse or
//!    validation failure reports the line, the section, and — when a
//!    key or reference is merely misspelled — a `did you mean` hint from
//!    edit distance over the known names. A well-typed value out of
//!    range is a [`SpecError`] too: each engine config's own `validate`
//!    is reported at its section's line, and the spec's own values at
//!    their entry's line, before any engine assert can see them.
//! 4. **Chaos is part of the scenario.** A `[fault]` section is the
//!    engine's [`FaultPlan`](peachy_cluster::FaultPlan); pipelines take
//!    its transport half on cluster backends, the sharded tier takes
//!    kills and revivals too, the fixed pool rejects it, and a reseeded
//!    chaotic run must equal the clean one bit-for-bit.

pub mod compile;
pub mod expr;
pub mod parse;
pub mod run;
pub mod spec;
pub mod value;

pub use parse::{nearest, parse_document, RawDoc, RawEntry, RawSection, RawValue, SpecError};
pub use run::{Counters, RunOptions, Runner, ScenarioReport, ServeCounters};
pub use spec::{
    parse_scenario, BlobParams, CityTable, DataSpec, PoolModel, RunSpec, ScenarioSpec, ServiceKind,
    ServiceSpec, SinkSpec, SourceDecl, SourceKind, StageDecl, StageOp, TraceSpec,
};
pub use value::{Row, Value};
