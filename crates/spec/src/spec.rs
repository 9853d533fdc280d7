//! The typed scenario model and its validator.
//!
//! [`parse_scenario`] turns raw `.peachy` text into a [`ScenarioSpec`]:
//! every section and key is checked against a known-vocabulary table, so
//! a typo'd key (`partions`), a wrong type (`partitions = "four"`), a
//! missing required key, or a dangling reference (`input = claen`) all
//! fail here — with the offending line, the enclosing section, and a
//! "did you mean" hint — before any dataset is built.
//!
//! The scenario holds the engine's own configs, built as the sections
//! are read, so an out-of-range value fails here too: a config's own
//! `validate` error at its section's line, a spec value's at its entry's.
//!
//! The grammar reference lives in `DESIGN.md` ("The scenario layer");
//! the lowering onto dataflow/serve is in [`crate::compile`] and
//! [`crate::run`].

use std::fmt;
use std::time::Duration;

use peachy_cluster::{EdgeFault, FaultPlan, TickBackoff};
use peachy_data::geo::CityConfig;
use peachy_dataflow::OptimizerConfig;
use peachy_serve::{ScaleEvent, ServeConfig, ShardConfig};

use crate::parse::{parse_document, RawDoc, RawEntry, RawSection, RawValue, SpecError};
use crate::value::{Row, Value};

/// Every section name the grammar knows, for `[sectoin]` hints.
const KNOWN_SECTIONS: &[&str] = &[
    "scenario", "run", "source", "stage", "sink", "service", "serve", "shard", "backoff", "fault",
    "scaling", "trace", "report",
];

/// The sections that shape a serving tier rather than declare something,
/// each with the tier that reads it. A rider belongs to one tier, and the
/// other tier rejects it; only `[fault]` also rides a pipeline.
const RIDERS: &[(&str, &str)] = &[
    ("serve", POOL),
    ("shard", SHARDED),
    ("backoff", SHARDED),
    ("scaling", SHARDED),
    ("fault", SHARDED),
];
const POOL: &str = "the fixed pool";
const SHARDED: &str = "the sharded tier";

/// A validated scenario: either a pipeline (`sources → stages → sink`)
/// or a service run (`[service]` + `[trace]`), plus the shared knobs.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// `[scenario] name`.
    pub name: String,
    /// `[run]` engine knobs.
    pub run: RunSpec,
    /// `[source.X]` declarations, in order.
    pub sources: Vec<SourceDecl>,
    /// `[stage.X]` declarations, in order.
    pub stages: Vec<StageDecl>,
    /// `[sink]`, for pipeline scenarios.
    pub sink: Option<SinkSpec>,
    /// `[service]` (+ `[serve]`/`[shard]`/`[backoff]`/`[scaling]`/`[trace]`).
    pub service: Option<ServiceSpec>,
    /// `[fault]`: transport chaos for cluster pipelines, the full plan
    /// (kills included) for the sharded serving tier. Empty without a
    /// `[fault]` section.
    pub fault: FaultPlan,
    /// `[report] explain = true`: attach the optimizer's plan rendering.
    pub explain: bool,
}

/// `[run]`: partitioning and optimizer knobs shared by every source.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Partitions per source dataset.
    pub partitions: usize,
    /// `optimizer` (`default` or `naive`) with its `spill_budget`.
    pub optimizer: OptimizerConfig,
}

impl Default for RunSpec {
    fn default() -> Self {
        Self {
            partitions: 4,
            optimizer: OptimizerConfig::default(),
        }
    }
}

/// One `[source.X]`.
#[derive(Debug, Clone)]
pub struct SourceDecl {
    /// Name stages refer to.
    pub name: String,
    /// Header line.
    pub line: usize,
    /// What the source yields.
    pub kind: SourceKind,
}

/// The source vocabulary.
#[derive(Debug, Clone)]
pub enum SourceKind {
    /// Literal rows written in the spec.
    Inline {
        /// Column names.
        columns: Vec<String>,
        /// Parsed rows (cells inferred int → float → string).
        rows: Vec<Row>,
    },
    /// One table of a generated synthetic city.
    City {
        /// Generator config.
        config: CityConfig,
        /// Generator seed.
        seed: u64,
        /// Which table.
        table: CityTable,
    },
    /// Gaussian blob rows: `label` + `x0..x{dims-1}`.
    Blobs(BlobParams),
    /// Fisher's iris rows: `label` + `x0..x3`.
    Iris,
}

/// The tables a city source can yield.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CityTable {
    /// `kind = city_arrests`: raw current-year arrest CSV lines (one
    /// string column `line`), exactly what `Dataset::from_text` ingests.
    CurrentArrests,
    /// `kind = city_arrests`, `table = historic`: the earlier years' lines.
    HistoricArrests,
    /// `kind = city_population`: `(code, population)` rows.
    Population,
}

/// `gaussian_blobs` parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BlobParams {
    /// Points.
    pub n: usize,
    /// Dimensions.
    pub dims: usize,
    /// Classes / blob centers.
    pub classes: u32,
    /// Cluster spread.
    pub spread: f64,
    /// Generator seed.
    pub seed: u64,
}

/// One `[stage.X]`.
#[derive(Debug, Clone)]
pub struct StageDecl {
    /// Name later stages / the sink refer to.
    pub name: String,
    /// Header line.
    pub line: usize,
    /// Input source or stage name.
    pub input: String,
    /// The operation.
    pub op: StageOp,
}

/// The stage vocabulary. Narrow ops keep rows; `key_by`/`count`/`sum`/
/// `group` move to the keyed world (and shuffle); `join` combines two
/// keyed stages; `unkey` returns to rows.
#[derive(Debug, Clone)]
pub enum StageOp {
    /// Clean arrest CSV lines into `[year, offense, x, y]`.
    ParseArrest,
    /// Point-in-polygon lookup against a city source's NTA boundaries;
    /// yields `[code]`, dropping out-of-city points.
    Locate {
        /// Name of the city source whose boundaries to use.
        boundaries: String,
    },
    /// Full projection: `col.NAME = "expr"` entries, in order.
    Map {
        /// `(column, expression, line)` in declaration order.
        cols: Vec<(String, String, usize)>,
    },
    /// Keep rows where the predicate holds.
    Filter {
        /// Boolean expression over the input schema.
        pred: String,
        /// Line of the `where` entry.
        line: usize,
    },
    /// Keep the named columns, in the given order.
    Select {
        /// Column names.
        cols: Vec<String>,
        /// Line of the `cols` entry.
        line: usize,
    },
    /// Key rows by a column (value = the remaining columns).
    KeyBy {
        /// Key column.
        key: String,
        /// Line of the `key` entry.
        line: usize,
    },
    /// Count rows per key: `key → [count]`.
    Count {
        /// Key column.
        key: String,
        /// Line of the `key` entry.
        line: usize,
    },
    /// Sum a column per key: `key → [col]`.
    Sum {
        /// Key column.
        key: String,
        /// Summed column.
        col: String,
        /// Line of the `key` entry.
        line: usize,
    },
    /// Collect rows per key into a nested list: `key → [group]`.
    Group {
        /// Key column.
        key: String,
        /// Line of the `key` entry.
        line: usize,
    },
    /// Inner (or broadcast) join with another keyed stage.
    Join {
        /// The right-hand keyed stage.
        with: String,
        /// Ship the right side to every partition instead of shuffling.
        broadcast: bool,
        /// Line of the `with` entry.
        line: usize,
    },
    /// Keyed → rows: `[key_as, …values]`.
    Unkey {
        /// Column name for the key.
        key_as: String,
    },
}

/// `[sink]`.
#[derive(Debug, Clone)]
pub struct SinkSpec {
    /// Stage (or source) to materialize.
    pub from: String,
    /// Line of the `from` entry.
    pub line: usize,
    /// `kind = count`: a single `[count]` row instead of the rows.
    pub count_only: bool,
    /// Sort keys: `(column, descending, line)`.
    pub sort: Vec<(String, bool, usize)>,
    /// Keep only the first N rows after sorting.
    pub limit: Option<usize>,
    /// Golden file (relative to the spec) the rendered rows must match.
    pub golden: Option<String>,
}

/// `[service]` plus its rider sections.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Which service to stand up, on which tier.
    pub kind: ServiceKind,
    /// Header line.
    pub line: usize,
    /// k (neighbours / centroids), where the kind uses it.
    pub k: usize,
    /// The dataset behind the service.
    pub data: DataSpec,
    /// `[trace]`: the offered load.
    pub trace: TraceSpec,
}

/// Service kinds the runner can stand up, each with its tier's config.
#[derive(Debug, Clone)]
pub enum ServiceKind {
    /// A model on the fixed-pool server, shaped by `[serve]`.
    Pool {
        /// The served model.
        model: PoolModel,
        /// The server's config.
        serve: ServeConfig,
    },
    /// Elastic sharded k-NN (consistent-hash shard map, scripted scaling
    /// and faults), shaped by `[shard]`, `[backoff]` and `[scaling]`. Its
    /// `plan` is the scenario's `[fault]`, attached at run time.
    KnnSharded(ShardConfig),
}

/// The models the fixed pool serves.
#[derive(Debug, Clone)]
pub enum PoolModel {
    /// k-NN classification.
    Knn,
    /// Nearest-centroid assignment (k-means++ seeded from the data).
    KmeansAssign {
        /// Seed for the k-means++ init.
        centroid_seed: u64,
    },
    /// Dense-net prediction (trained at startup).
    Ensemble {
        /// Hidden-layer width.
        hidden: usize,
        /// Training epochs.
        epochs: usize,
        /// Training seed.
        train_seed: u64,
    },
}

/// Where the service's labeled data comes from.
#[derive(Debug, Clone)]
pub enum DataSpec {
    /// Fisher's iris, optionally train/test split `(frac, seed)`.
    Iris {
        /// `split`/`split_seed`, when the trace replays the test half.
        split: Option<(f64, u64)>,
    },
    /// Synthetic Gaussian blobs.
    Blobs(BlobParams),
}

/// `[trace]`.
#[derive(Debug, Clone)]
pub enum TraceSpec {
    /// Submit every test row of the service's iris split at tick 0.
    TestSplit,
    /// `query_trace(seed, ticks, rate, pool)`, or `keyed_query_trace`
    /// when `keyed` (the sharded tier).
    Queries {
        /// Query pool generator.
        pool: BlobParams,
        /// Arrival seed.
        seed: u64,
        /// Trace length.
        ticks: u64,
        /// Mean arrivals per tick.
        rate: f64,
        /// `kind = keyed_queries`: each query carries a routing key.
        keyed: bool,
    },
}

/// Parse and validate `.peachy` text into a [`ScenarioSpec`].
pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, SpecError> {
    let doc = parse_document(text)?;
    from_doc(&doc)
}

// ---------------------------------------------------------------------------
// Typed-entry helpers over a raw section.

fn unknown_key(sec: &RawSection, e: &RawEntry, known: &[&str]) -> SpecError {
    SpecError::at(
        e.line,
        &sec.name,
        format!("unknown key `{}` (known: {})", e.key, known.join(", ")),
    )
    .with_hint_from(&e.key, known)
}

/// Reject entries whose key is neither in `known` nor under a prefix.
fn check_keys(sec: &RawSection, known: &[&str], prefixes: &[&str]) -> Result<(), SpecError> {
    for e in &sec.entries {
        let ok = known.contains(&e.key.as_str())
            || prefixes
                .iter()
                .any(|p| e.key.starts_with(p) && e.key.len() > p.len());
        if !ok {
            return Err(unknown_key(sec, e, known));
        }
    }
    Ok(())
}

fn type_err(sec: &RawSection, e: &RawEntry, want: &str) -> SpecError {
    SpecError::at(
        e.line,
        &sec.name,
        format!(
            "`{}` must be {want}, got {} ({:?})",
            e.key,
            e.value.type_name(),
            e.value
        ),
    )
}

fn req<'a>(sec: &'a RawSection, key: &str) -> Result<&'a RawEntry, SpecError> {
    sec.get(key)
        .ok_or_else(|| SpecError::at(sec.line, &sec.name, format!("missing required key `{key}`")))
}

fn as_str(sec: &RawSection, e: &RawEntry) -> Result<String, SpecError> {
    match &e.value {
        RawValue::Str(s) => Ok(s.clone()),
        _ => Err(type_err(sec, e, "a string")),
    }
}

fn as_usize(sec: &RawSection, e: &RawEntry) -> Result<usize, SpecError> {
    match &e.value {
        RawValue::Int(i) if *i >= 0 => Ok(*i as usize),
        _ => Err(type_err(sec, e, "a non-negative integer")),
    }
}

fn as_u64(sec: &RawSection, e: &RawEntry) -> Result<u64, SpecError> {
    match &e.value {
        RawValue::Int(i) if *i >= 0 => Ok(*i as u64),
        _ => Err(type_err(sec, e, "a non-negative integer")),
    }
}

fn as_u32(sec: &RawSection, e: &RawEntry) -> Result<u32, SpecError> {
    match &e.value {
        RawValue::Int(i) if *i >= 0 && *i <= u32::MAX as i64 => Ok(*i as u32),
        _ => Err(type_err(sec, e, "a 32-bit non-negative integer")),
    }
}

fn as_f64(sec: &RawSection, e: &RawEntry) -> Result<f64, SpecError> {
    match &e.value {
        RawValue::Float(f) => Ok(*f),
        RawValue::Int(i) => Ok(*i as f64),
        _ => Err(type_err(sec, e, "a number")),
    }
}

fn as_bool(sec: &RawSection, e: &RawEntry) -> Result<bool, SpecError> {
    match &e.value {
        RawValue::Bool(b) => Ok(*b),
        _ => Err(type_err(sec, e, "a bool")),
    }
}

fn opt<T>(
    sec: &RawSection,
    key: &str,
    f: impl Fn(&RawSection, &RawEntry) -> Result<T, SpecError>,
) -> Result<Option<T>, SpecError> {
    sec.get(key).map(|e| f(sec, e)).transpose()
}

/// Overwrite `field` with `key`'s value, when the section sets it.
fn set<T>(
    sec: &RawSection,
    key: &str,
    f: impl Fn(&RawSection, &RawEntry) -> Result<T, SpecError>,
    field: &mut T,
) -> Result<(), SpecError> {
    if let Some(v) = opt(sec, key, f)? {
        *field = v;
    }
    Ok(())
}

/// `v`, the value of `e`, when `ok`; otherwise a range error saying what
/// `e` must be.
fn in_range<T: fmt::Display>(
    sec: &RawSection,
    e: &RawEntry,
    v: T,
    ok: bool,
    want: &str,
) -> Result<T, SpecError> {
    if ok {
        return Ok(v);
    }
    Err(SpecError::at(
        e.line,
        &sec.name,
        format!("`{}` = {v} is out of range: it must be {want}", e.key),
    ))
}

/// A count that must be at least 1.
fn as_count(sec: &RawSection, e: &RawEntry) -> Result<usize, SpecError> {
    let n = as_usize(sec, e)?;
    in_range(sec, e, n, n >= 1, "at least 1")
}

/// A finite, non-negative number.
fn as_nonneg(sec: &RawSection, e: &RawEntry) -> Result<f64, SpecError> {
    let x = as_f64(sec, e)?;
    in_range(
        sec,
        e,
        x,
        x.is_finite() && x >= 0.0,
        "finite and at least 0",
    )
}

/// An engine config's own `validate` error, at `sec`'s header line.
fn invalid(sec: &RawSection, message: String) -> SpecError {
    SpecError::at(sec.line, &sec.name, message)
}

/// Split a comma-separated list (`"a, b"`) into trimmed names.
fn name_list(sec: &RawSection, e: &RawEntry) -> Result<Vec<String>, SpecError> {
    let raw = as_str(sec, e)?;
    let names: Vec<String> = raw
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if names.is_empty() {
        return Err(SpecError::at(
            e.line,
            &sec.name,
            format!("`{}` names no columns", e.key),
        ));
    }
    for n in &names {
        if !n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(SpecError::at(
                e.line,
                &sec.name,
                format!(
                    "bad column name `{n}` in `{}` (letters, digits, `_`)",
                    e.key
                ),
            ));
        }
    }
    Ok(names)
}

/// Parse `"rank @ after"` (kills/revives).
fn rank_at(sec: &RawSection, e: &RawEntry) -> Result<(usize, u64), SpecError> {
    let raw = as_str(sec, e)?;
    let parse = || -> Option<(usize, u64)> {
        let (rank, after) = raw.split_once('@')?;
        Some((rank.trim().parse().ok()?, after.trim().parse().ok()?))
    };
    parse().ok_or_else(|| {
        SpecError::at(
            e.line,
            &sec.name,
            format!(
                "`{}` must look like \"2 @ 3\" (rank @ after-events), got `{raw}`",
                e.key
            ),
        )
    })
}

/// Parse a `[scaling]` event: `"add 4 @ 6"` / `"drain 1 @ 18"`.
fn scale_event(sec: &RawSection, e: &RawEntry) -> Result<(u64, ScaleEvent), SpecError> {
    let raw = as_str(sec, e)?;
    let bad = |msg: String| SpecError::at(e.line, &sec.name, msg);
    let Some((ev, tick)) = raw.split_once('@') else {
        return Err(bad(format!(
            "`event` must look like \"add 4 @ 6\", got `{raw}`"
        )));
    };
    let tick: u64 = tick
        .trim()
        .parse()
        .map_err(|_| bad(format!("bad tick in scaling event `{raw}`")))?;
    let ev: ScaleEvent = ev
        .trim()
        .parse()
        .map_err(|msg: String| bad(format!("bad scaling event `{raw}`: {msg}")))?;
    Ok((tick, ev))
}

/// Parse sink sort keys: `"per_100k desc, code"`.
fn sort_keys(sec: &RawSection, e: &RawEntry) -> Result<Vec<(String, bool, usize)>, SpecError> {
    let raw = as_str(sec, e)?;
    let mut keys = Vec::new();
    for part in raw.split(',') {
        let words: Vec<&str> = part.split_whitespace().collect();
        let (col, desc) = match words.as_slice() {
            [col] => (*col, false),
            [col, dir] => match *dir {
                "asc" => (*col, false),
                "desc" => (*col, true),
                other => {
                    return Err(SpecError::at(
                        e.line,
                        &sec.name,
                        format!("sort direction must be `asc` or `desc`, got `{other}`"),
                    )
                    .with_hint_from(other, &["asc", "desc"]))
                }
            },
            _ => {
                return Err(SpecError::at(
                    e.line,
                    &sec.name,
                    format!("bad sort key `{}` (want `col` or `col desc`)", part.trim()),
                ))
            }
        };
        keys.push((col.to_string(), desc, e.line));
    }
    if keys.is_empty() {
        return Err(SpecError::at(e.line, &sec.name, "empty sort key list"));
    }
    Ok(keys)
}

// ---------------------------------------------------------------------------
// Section validators.

fn city_config(sec: &RawSection) -> Result<(CityConfig, u64), SpecError> {
    let mut c = CityConfig::default();
    set(sec, "grid_w", as_usize, &mut c.grid_w)?;
    set(sec, "grid_h", as_usize, &mut c.grid_h)?;
    set(sec, "arrests", as_usize, &mut c.arrests)?;
    set(sec, "dirty_frac", as_f64, &mut c.dirty_frac)?;
    set(sec, "hotspots", as_usize, &mut c.hotspots)?;
    set(sec, "current_year", as_u32, &mut c.current_year)?;
    set(sec, "historic_years", as_u32, &mut c.historic_years)?;
    c.validate().map_err(|m| invalid(sec, m))?;
    Ok((c, as_u64(sec, req(sec, "seed")?)?))
}

fn blob_params(sec: &RawSection, prefix: &str) -> Result<BlobParams, SpecError> {
    let get = |k: &str| req(sec, &format!("{prefix}{k}"));
    let classes = get("classes")?;
    let c = as_u32(sec, classes)?;
    Ok(BlobParams {
        n: as_count(sec, get("n")?)?,
        dims: as_count(sec, get("dims")?)?,
        classes: in_range(sec, classes, c, c >= 1, "at least 1")?,
        spread: as_nonneg(sec, get("spread")?)?,
        seed: as_u64(sec, get("seed")?)?,
    })
}

const CITY_KEYS: &[&str] = &[
    "kind",
    "grid_w",
    "grid_h",
    "arrests",
    "dirty_frac",
    "hotspots",
    "current_year",
    "historic_years",
    "seed",
    "table",
];

fn source_decl(sec: &RawSection, name: &str) -> Result<SourceDecl, SpecError> {
    const KINDS: &[&str] = &["inline", "city_arrests", "city_population", "blobs", "iris"];
    let kind_entry = req(sec, "kind")?;
    let kind_name = as_str(sec, kind_entry)?;
    let kind = match kind_name.as_str() {
        "inline" => {
            check_keys(sec, &["kind", "columns", "row"], &[])?;
            let columns = name_list(sec, req(sec, "columns")?)?;
            let mut rows = Vec::new();
            for e in sec.get_all("row") {
                let raw = as_str(sec, e)?;
                let cells: Vec<Value> = raw.split(',').map(|c| infer_cell(c.trim())).collect();
                if cells.len() != columns.len() {
                    return Err(SpecError::at(
                        e.line,
                        &sec.name,
                        format!(
                            "row has {} cells, schema has {} columns",
                            cells.len(),
                            columns.len()
                        ),
                    ));
                }
                rows.push(cells);
            }
            if rows.is_empty() {
                return Err(SpecError::at(
                    sec.line,
                    &sec.name,
                    "inline source has no `row` entries",
                ));
            }
            SourceKind::Inline { columns, rows }
        }
        "city_arrests" | "city_population" => {
            check_keys(sec, CITY_KEYS, &[])?;
            let table = opt(sec, "table", as_str)?;
            let table_line = || sec.get("table").expect("present").line;
            let table = match (kind_name.as_str(), table.as_deref()) {
                ("city_population", None) => CityTable::Population,
                ("city_population", Some(_)) => {
                    return Err(SpecError::at(
                        table_line(),
                        &sec.name,
                        "`table` only applies to kind = city_arrests",
                    ))
                }
                (_, None | Some("current")) => CityTable::CurrentArrests,
                (_, Some("historic")) => CityTable::HistoricArrests,
                (_, Some(other)) => {
                    return Err(SpecError::at(
                        table_line(),
                        &sec.name,
                        format!("`table` must be `current` or `historic`, got `{other}`"),
                    )
                    .with_hint_from(other, &["current", "historic"]))
                }
            };
            let (config, seed) = city_config(sec)?;
            SourceKind::City {
                config,
                seed,
                table,
            }
        }
        "blobs" => {
            check_keys(
                sec,
                &["kind", "n", "dims", "classes", "spread", "seed"],
                &[],
            )?;
            SourceKind::Blobs(blob_params(sec, "")?)
        }
        "iris" => {
            check_keys(sec, &["kind"], &[])?;
            SourceKind::Iris
        }
        other => {
            return Err(SpecError::at(
                kind_entry.line,
                &sec.name,
                format!(
                    "unknown source kind `{other}` (known: {})",
                    KINDS.join(", ")
                ),
            )
            .with_hint_from(other, KINDS))
        }
    };
    Ok(SourceDecl {
        name: name.to_string(),
        line: sec.line,
        kind,
    })
}

/// Inline cells: int, then float, then string.
fn infer_cell(cell: &str) -> Value {
    if let Ok(i) = cell.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = cell.parse::<f64>() {
        return Value::Float(f);
    }
    Value::Str(cell.to_string())
}

fn stage_decl(sec: &RawSection, name: &str) -> Result<StageDecl, SpecError> {
    const OPS: &[&str] = &[
        "parse_arrest",
        "locate",
        "map",
        "filter",
        "select",
        "key_by",
        "count",
        "sum",
        "group",
        "join",
        "unkey",
    ];
    let input = as_str(sec, req(sec, "input")?)?;
    let op_entry = req(sec, "op")?;
    let op_name = as_str(sec, op_entry)?;
    let op = match op_name.as_str() {
        "parse_arrest" => {
            check_keys(sec, &["input", "op"], &[])?;
            StageOp::ParseArrest
        }
        "locate" => {
            check_keys(sec, &["input", "op", "boundaries"], &[])?;
            StageOp::Locate {
                boundaries: as_str(sec, req(sec, "boundaries")?)?,
            }
        }
        "map" => {
            check_keys(sec, &["input", "op"], &["col."])?;
            let mut cols = Vec::new();
            for e in &sec.entries {
                if let Some(col) = e.key.strip_prefix("col.") {
                    cols.push((col.to_string(), as_str(sec, e)?, e.line));
                }
            }
            if cols.is_empty() {
                return Err(SpecError::at(
                    sec.line,
                    &sec.name,
                    "map stage has no `col.NAME = \"expr\"` entries",
                ));
            }
            StageOp::Map { cols }
        }
        "filter" => {
            check_keys(sec, &["input", "op", "where"], &[])?;
            let e = req(sec, "where")?;
            StageOp::Filter {
                pred: as_str(sec, e)?,
                line: e.line,
            }
        }
        "select" => {
            check_keys(sec, &["input", "op", "cols"], &[])?;
            let e = req(sec, "cols")?;
            StageOp::Select {
                cols: name_list(sec, e)?,
                line: e.line,
            }
        }
        "key_by" | "count" | "group" => {
            check_keys(sec, &["input", "op", "key"], &[])?;
            let e = req(sec, "key")?;
            let key = as_str(sec, e)?;
            match op_name.as_str() {
                "key_by" => StageOp::KeyBy { key, line: e.line },
                "count" => StageOp::Count { key, line: e.line },
                _ => StageOp::Group { key, line: e.line },
            }
        }
        "sum" => {
            check_keys(sec, &["input", "op", "key", "col"], &[])?;
            let e = req(sec, "key")?;
            StageOp::Sum {
                key: as_str(sec, e)?,
                col: as_str(sec, req(sec, "col")?)?,
                line: e.line,
            }
        }
        "join" => {
            check_keys(sec, &["input", "op", "with", "kind"], &[])?;
            let e = req(sec, "with")?;
            let broadcast = match opt(sec, "kind", as_str)?.as_deref() {
                None | Some("inner") => false,
                Some("broadcast") => true,
                Some(other) => {
                    return Err(SpecError::at(
                        sec.get("kind").expect("present").line,
                        &sec.name,
                        format!("join kind must be `inner` or `broadcast`, got `{other}`"),
                    )
                    .with_hint_from(other, &["inner", "broadcast"]))
                }
            };
            StageOp::Join {
                with: as_str(sec, e)?,
                broadcast,
                line: e.line,
            }
        }
        "unkey" => {
            check_keys(sec, &["input", "op", "key_as"], &[])?;
            StageOp::Unkey {
                key_as: as_str(sec, req(sec, "key_as")?)?,
            }
        }
        other => {
            return Err(SpecError::at(
                op_entry.line,
                &sec.name,
                format!("unknown stage op `{other}` (known: {})", OPS.join(", ")),
            )
            .with_hint_from(other, OPS))
        }
    };
    Ok(StageDecl {
        name: name.to_string(),
        line: sec.line,
        input,
        op,
    })
}

fn sink_spec(sec: &RawSection) -> Result<SinkSpec, SpecError> {
    check_keys(sec, &["from", "kind", "sort", "limit", "golden"], &[])?;
    let from_entry = req(sec, "from")?;
    let count_only = match opt(sec, "kind", as_str)?.as_deref() {
        None | Some("collect") => false,
        Some("count") => true,
        Some(other) => {
            return Err(SpecError::at(
                sec.get("kind").expect("present").line,
                &sec.name,
                format!("sink kind must be `collect` or `count`, got `{other}`"),
            )
            .with_hint_from(other, &["collect", "count"]))
        }
    };
    Ok(SinkSpec {
        from: as_str(sec, from_entry)?,
        line: from_entry.line,
        count_only,
        sort: opt(sec, "sort", sort_keys)?.unwrap_or_default(),
        limit: opt(sec, "limit", as_usize)?,
        golden: opt(sec, "golden", as_str)?,
    })
}

/// `[service]` up to its tier: the kind as written, the pool model
/// (`None` for `knn_sharded`), `k` and the data.
type ServiceHead = (String, Option<PoolModel>, usize, DataSpec);

fn service_spec(sec: &RawSection) -> Result<ServiceHead, SpecError> {
    const KINDS: &[&str] = &["knn", "kmeans_assign", "ensemble", "knn_sharded"];
    const DATA: &[&str] = &["iris", "blobs"];
    check_keys(
        sec,
        &[
            "kind",
            "k",
            "data",
            "split",
            "split_seed",
            "n",
            "dims",
            "classes",
            "spread",
            "seed",
            "centroid_seed",
            "hidden",
            "epochs",
            "train_seed",
        ],
        &[],
    )?;
    let kind_entry = req(sec, "kind")?;
    let kind_name = as_str(sec, kind_entry)?;
    let model = match kind_name.as_str() {
        "knn" => Some(PoolModel::Knn),
        "knn_sharded" => None,
        "kmeans_assign" => Some(PoolModel::KmeansAssign {
            centroid_seed: opt(sec, "centroid_seed", as_u64)?.unwrap_or(1),
        }),
        "ensemble" => Some(PoolModel::Ensemble {
            hidden: opt(sec, "hidden", as_count)?.unwrap_or(16),
            epochs: opt(sec, "epochs", as_count)?.unwrap_or(4),
            train_seed: opt(sec, "train_seed", as_u64)?.unwrap_or(1),
        }),
        other => {
            return Err(SpecError::at(
                kind_entry.line,
                &sec.name,
                format!(
                    "unknown service kind `{other}` (known: {})",
                    KINDS.join(", ")
                ),
            )
            .with_hint_from(other, KINDS))
        }
    };
    let data_entry = req(sec, "data")?;
    let data_name = as_str(sec, data_entry)?;
    let data = match data_name.as_str() {
        "iris" => {
            let split = match (sec.get("split"), opt(sec, "split_seed", as_u64)?) {
                (Some(e), seed) => {
                    let frac = as_f64(sec, e)?;
                    let frac = in_range(sec, e, frac, frac > 0.0 && frac < 1.0, "in (0, 1)")?;
                    Some((frac, seed.unwrap_or(0)))
                }
                (None, Some(_)) => {
                    return Err(SpecError::at(
                        sec.get("split_seed").expect("present").line,
                        &sec.name,
                        "`split_seed` without `split`",
                    ))
                }
                (None, None) => None,
            };
            DataSpec::Iris { split }
        }
        "blobs" => DataSpec::Blobs(blob_params(sec, "")?),
        other => {
            return Err(SpecError::at(
                data_entry.line,
                &sec.name,
                format!("service data must be one of: {}", DATA.join(", ")),
            )
            .with_hint_from(other, DATA))
        }
    };
    let k = opt(sec, "k", as_count)?.unwrap_or(5);
    Ok((kind_name, model, k, data))
}

fn trace_spec(sec: &RawSection) -> Result<TraceSpec, SpecError> {
    const KINDS: &[&str] = &["test_split", "queries", "keyed_queries"];
    check_keys(
        sec,
        &[
            "kind",
            "seed",
            "ticks",
            "rate",
            "pool_n",
            "pool_dims",
            "pool_classes",
            "pool_spread",
            "pool_seed",
        ],
        &[],
    )?;
    let kind_entry = req(sec, "kind")?;
    let kind_name = as_str(sec, kind_entry)?;
    match kind_name.as_str() {
        "test_split" => Ok(TraceSpec::TestSplit),
        "queries" | "keyed_queries" => Ok(TraceSpec::Queries {
            pool: blob_params(sec, "pool_")?,
            seed: as_u64(sec, req(sec, "seed")?)?,
            ticks: as_u64(sec, req(sec, "ticks")?)?,
            rate: as_nonneg(sec, req(sec, "rate")?)?,
            keyed: kind_name == "keyed_queries",
        }),
        other => Err(SpecError::at(
            kind_entry.line,
            &sec.name,
            format!("unknown trace kind `{other}` (known: {})", KINDS.join(", ")),
        )
        .with_hint_from(other, KINDS)),
    }
}

fn fault_plan(sec: &RawSection) -> Result<FaultPlan, SpecError> {
    check_keys(
        sec,
        &[
            "seed",
            "drop_p",
            "dup_p",
            "reorder_p",
            "delay_ms",
            "kill",
            "revive",
        ],
        &[],
    )?;
    let edge = EdgeFault {
        drop_p: opt(sec, "drop_p", as_f64)?.unwrap_or(0.0),
        dup_p: opt(sec, "dup_p", as_f64)?.unwrap_or(0.0),
        reorder_p: opt(sec, "reorder_p", as_f64)?.unwrap_or(0.0),
        delay: Duration::from_millis(opt(sec, "delay_ms", as_u64)?.unwrap_or(0)),
    };
    edge.validate().map_err(|m| invalid(sec, m))?;
    let mut plan = FaultPlan::new(as_u64(sec, req(sec, "seed")?)?).all_edges(edge);
    for e in sec.get_all("kill") {
        let (rank, after) = rank_at(sec, e)?;
        plan = plan.kill(rank, after);
    }
    for e in sec.get_all("revive") {
        let (rank, after) = rank_at(sec, e)?;
        plan = plan.revive(rank, after);
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Document assembly + cross-reference validation.

fn from_doc(doc: &RawDoc) -> Result<ScenarioSpec, SpecError> {
    let mut name = None;
    let mut run = RunSpec::default();
    let mut sources: Vec<SourceDecl> = Vec::new();
    let mut stages: Vec<StageDecl> = Vec::new();
    let mut sink = None;
    let mut service_core = None;
    // The tier configs the rider sections shape, and the riders seen:
    // `(head, the tier that reads it, section)`.
    let mut serve = ServeConfig::default();
    let mut shard = ShardConfig::default();
    let mut riders: Vec<(&str, &str, &RawSection)> = Vec::new();
    let mut trace = None;
    let mut fault = FaultPlan::none();
    let mut explain = false;

    for sec in &doc.sections {
        let (head, sub) = match sec.name.split_once('.') {
            Some((h, s)) => (h, Some(s)),
            None => (sec.name.as_str(), None),
        };
        let dup = |what: &str| {
            SpecError::at(sec.line, &sec.name, format!("duplicate `[{what}]` section"))
        };
        if let Some(&(head, reader)) = RIDERS.iter().find(|(r, _)| *r == head) {
            // `[scaling]` sections add up; every other rider is declared once.
            if head != "scaling" && riders.iter().any(|(h, ..)| *h == head) {
                return Err(dup(head));
            }
            riders.push((head, reader, sec));
        }
        match head {
            "scenario" => {
                check_keys(sec, &["name"], &[])?;
                if name.is_some() {
                    return Err(dup("scenario"));
                }
                name = Some(as_str(sec, req(sec, "name")?)?);
            }
            "run" => {
                check_keys(sec, &["partitions", "optimizer", "spill_budget"], &[])?;
                run.partitions = opt(sec, "partitions", as_usize)?.unwrap_or(4).max(1);
                run.optimizer = match opt(sec, "optimizer", as_str)?.as_deref() {
                    None | Some("default") => OptimizerConfig::default(),
                    Some("naive") => OptimizerConfig::naive(),
                    Some(other) => {
                        return Err(SpecError::at(
                            sec.get("optimizer").expect("present").line,
                            &sec.name,
                            format!("optimizer must be `default` or `naive`, got `{other}`"),
                        )
                        .with_hint_from(other, &["default", "naive"]))
                    }
                };
                run.optimizer.spill_budget = opt(sec, "spill_budget", as_u64)?;
            }
            "source" => {
                let Some(sub) = sub else {
                    return Err(SpecError::at(
                        sec.line,
                        &sec.name,
                        "sources need a name: `[source.NAME]`",
                    ));
                };
                if sources.iter().any(|s| s.name == sub) {
                    return Err(SpecError::at(
                        sec.line,
                        &sec.name,
                        format!("duplicate source `{sub}`"),
                    ));
                }
                sources.push(source_decl(sec, sub)?);
            }
            "stage" => {
                let Some(sub) = sub else {
                    return Err(SpecError::at(
                        sec.line,
                        &sec.name,
                        "stages need a name: `[stage.NAME]`",
                    ));
                };
                if stages.iter().any(|s| s.name == sub) || sources.iter().any(|s| s.name == sub) {
                    return Err(SpecError::at(
                        sec.line,
                        &sec.name,
                        format!("duplicate name `{sub}`"),
                    ));
                }
                stages.push(stage_decl(sec, sub)?);
            }
            "sink" => {
                if sink.is_some() {
                    return Err(dup("sink"));
                }
                sink = Some(sink_spec(sec)?);
            }
            "service" => {
                if service_core.is_some() {
                    return Err(dup("service"));
                }
                service_core = Some((sec, service_spec(sec)?));
            }
            "serve" => {
                check_keys(
                    sec,
                    &["capacity", "max_batch_size", "max_wait", "workers"],
                    &[],
                )?;
                set(sec, "capacity", as_usize, &mut serve.capacity)?;
                set(sec, "max_batch_size", as_usize, &mut serve.max_batch_size)?;
                set(sec, "max_wait", as_u64, &mut serve.max_wait)?;
                set(sec, "workers", as_usize, &mut serve.workers)?;
            }
            "shard" => {
                check_keys(
                    sec,
                    &[
                        "num_shards",
                        "vnodes",
                        "seed",
                        "initial_ranks",
                        "capacity",
                        "max_batch_size",
                        "max_wait",
                        "full_rebuild",
                    ],
                    &[],
                )?;
                set(sec, "num_shards", as_usize, &mut shard.num_shards)?;
                set(sec, "vnodes", as_usize, &mut shard.vnodes)?;
                set(sec, "seed", as_u64, &mut shard.seed)?;
                set(sec, "initial_ranks", as_usize, &mut shard.initial_ranks)?;
                set(sec, "capacity", as_usize, &mut shard.capacity)?;
                set(sec, "max_batch_size", as_usize, &mut shard.max_batch_size)?;
                set(sec, "max_wait", as_u64, &mut shard.max_wait)?;
                set(sec, "full_rebuild", as_bool, &mut shard.full_rebuild)?;
            }
            "backoff" => {
                check_keys(sec, &["base", "jitter", "seed"], &[])?;
                shard.backoff = TickBackoff::linear(
                    as_u64(sec, req(sec, "base")?)?,
                    opt(sec, "jitter", as_u64)?.unwrap_or(0),
                    opt(sec, "seed", as_u64)?.unwrap_or(0),
                );
            }
            "scaling" => {
                check_keys(sec, &["event"], &[])?;
                for e in sec.get_all("event") {
                    shard.scaling.push(scale_event(sec, e)?);
                }
            }
            "fault" => fault = fault_plan(sec)?,
            "trace" => {
                if trace.is_some() {
                    return Err(dup("trace"));
                }
                trace = Some(trace_spec(sec)?);
            }
            "report" => {
                check_keys(sec, &["explain"], &[])?;
                explain = opt(sec, "explain", as_bool)?.unwrap_or(false);
            }
            other => {
                return Err(SpecError::at(
                    sec.line,
                    &sec.name,
                    format!(
                        "unknown section `[{other}]` (known: {})",
                        KNOWN_SECTIONS.join(", ")
                    ),
                )
                .with_hint_from(other, KNOWN_SECTIONS))
            }
        }
    }

    let name = name.ok_or_else(|| SpecError::at(0, "", "spec has no `[scenario]` section"))?;

    // Cross-reference checks, while names are cheap to hint against.
    let known_names = |sources: &[SourceDecl], stages: &[StageDecl], upto: usize| -> Vec<String> {
        sources
            .iter()
            .map(|s| s.name.clone())
            .chain(stages.iter().take(upto).map(|s| s.name.clone()))
            .collect()
    };
    for (idx, st) in stages.iter().enumerate() {
        let names = known_names(&sources, &stages, idx);
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        if !refs.contains(&st.input.as_str()) {
            return Err(SpecError::at(
                st.line,
                &format!("stage.{}", st.name),
                format!("input `{}` is not a source or earlier stage", st.input),
            )
            .with_hint_from(&st.input, &refs));
        }
        if let StageOp::Join { with, line, .. } = &st.op {
            if !refs.contains(&with.as_str()) {
                return Err(SpecError::at(
                    *line,
                    &format!("stage.{}", st.name),
                    format!("join `with = {with}` is not a source or earlier stage"),
                )
                .with_hint_from(with, &refs));
            }
        }
        if let StageOp::Locate { boundaries } = &st.op {
            let cities: Vec<&str> = sources
                .iter()
                .filter(|s| matches!(s.kind, SourceKind::City { .. }))
                .map(|s| s.name.as_str())
                .collect();
            if !cities.contains(&boundaries.as_str()) {
                return Err(SpecError::at(
                    st.line,
                    &format!("stage.{}", st.name),
                    format!("locate `boundaries = {boundaries}` must name a city source"),
                )
                .with_hint_from(boundaries, &cities));
            }
        }
    }
    if let Some(sink) = &sink {
        let names = known_names(&sources, &stages, stages.len());
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        if !refs.contains(&sink.from.as_str()) {
            return Err(SpecError::at(
                sink.line,
                "sink",
                format!("`from = {}` is not a source or stage", sink.from),
            )
            .with_hint_from(&sink.from, &refs));
        }
    }

    let service = match service_core {
        Some((svc_sec, (kind_name, model, k, data))) => {
            let line = svc_sec.line;
            let trace = trace.ok_or_else(|| {
                SpecError::at(line, "service", "a `[service]` needs a `[trace]` section")
            })?;
            if matches!(trace, TraceSpec::TestSplit)
                && !matches!(&data, DataSpec::Iris { split: Some(_) })
            {
                return Err(SpecError::at(
                    line,
                    "trace",
                    "trace kind `test_split` needs `data = iris` with a `split` in [service]",
                ));
            }
            let keyed = matches!(trace, TraceSpec::Queries { keyed: true, .. });
            if model.is_none() && !keyed {
                return Err(SpecError::at(
                    line,
                    "trace",
                    "service `knn_sharded` routes by key: use trace kind `keyed_queries`",
                ));
            }
            if model.is_some() && keyed {
                return Err(SpecError::at(
                    line,
                    "trace",
                    "trace kind `keyed_queries` is only for service `knn_sharded`",
                ));
            }
            let tier = if model.is_some() { POOL } else { SHARDED };
            for &(head, reader, r) in &riders {
                if reader != tier {
                    return Err(SpecError::at(
                        r.line,
                        &r.name,
                        format!(
                            "`[{head}]` shapes {reader}, but service `{kind_name}` runs on {tier}"
                        ),
                    ));
                }
            }
            // A config error belongs to the rider that set the value; an
            // absent rider leaves defaults, which always validate.
            let rider = |head: &str| {
                riders
                    .iter()
                    .find(|(h, ..)| *h == head)
                    .map_or(svc_sec, |r| r.2)
            };
            let kind = match model {
                Some(model) => {
                    serve.validate().map_err(|m| invalid(rider("serve"), m))?;
                    ServiceKind::Pool { model, serve }
                }
                None => {
                    // A config that validates without its script is
                    // faulted by the script.
                    let unscripted = ShardConfig {
                        scaling: Vec::new(),
                        ..shard.clone()
                    };
                    unscripted
                        .validate()
                        .map_err(|m| invalid(rider("shard"), m))?;
                    shard.validate().map_err(|m| invalid(rider("scaling"), m))?;
                    ServiceKind::KnnSharded(shard)
                }
            };
            Some(ServiceSpec {
                kind,
                line,
                k,
                data,
                trace,
            })
        }
        None => {
            if trace.is_some() {
                return Err(SpecError::at(
                    0,
                    "trace",
                    "a `[trace]` needs a `[service]` section",
                ));
            }
            if let Some(&(head, reader, r)) = riders.iter().find(|(h, ..)| *h != "fault") {
                return Err(SpecError::at(
                    r.line,
                    &r.name,
                    format!("`[{head}]` shapes {reader} and needs a `[service]` section"),
                ));
            }
            None
        }
    };

    match (&sink, &service) {
        (None, None) => {
            return Err(SpecError::at(
                0,
                "",
                "spec declares neither a `[sink]` nor a `[service]` — nothing to run",
            ))
        }
        (Some(_), Some(_)) => {
            return Err(SpecError::at(
                0,
                "",
                "spec declares both `[sink]` and `[service]` — pick one per scenario",
            ))
        }
        _ => {}
    }

    Ok(ScenarioSpec {
        name,
        run,
        sources,
        stages,
        sink,
        service,
        fault,
        explain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const CITY: &str = r#"
[scenario]
name = demo

[run]
partitions = 2

[source.arrests]
kind = city_arrests
grid_w = 4
grid_h = 4
arrests = 1000
seed = 7

[stage.clean]
input = arrests
op = parse_arrest

[stage.current]
input = clean
op = filter
where = "year == 2021"

[sink]
from = current
"#;

    #[test]
    fn validates_a_pipeline_spec() {
        let spec = parse_scenario(CITY).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.run.partitions, 2);
        assert_eq!(spec.sources.len(), 1);
        assert_eq!(spec.stages.len(), 2);
        assert!(spec.sink.is_some());
        assert!(spec.service.is_none());
    }

    #[test]
    fn unknown_key_hints_nearest() {
        let err = parse_scenario("[scenario]\nname = x\n[run]\npartions = 4\n[sink]\nfrom = x\n")
            .unwrap_err();
        assert_eq!(err.line, 4);
        assert_eq!(err.section, "run");
        assert_eq!(err.hint.as_deref(), Some("partitions"));
    }

    #[test]
    fn dangling_stage_input_hints_nearest_name() {
        let err = parse_scenario(
            "[scenario]\nname = x\n[source.rows]\nkind = iris\n[stage.s]\ninput = rosw\nop = parse_arrest\n[sink]\nfrom = s\n",
        )
        .unwrap_err();
        assert_eq!(err.section, "stage.s");
        assert_eq!(err.hint.as_deref(), Some("rows"));
    }

    #[test]
    fn sink_or_service_required() {
        let err = parse_scenario("[scenario]\nname = x\n").unwrap_err();
        assert!(err.message.contains("neither"));
    }

    #[test]
    fn service_requires_trace() {
        let err = parse_scenario(
            "[scenario]\nname = x\n[service]\nkind = knn\ndata = iris\nsplit = 0.7\n",
        )
        .unwrap_err();
        assert!(err.message.contains("needs a `[trace]`"));
    }

    #[test]
    fn scaling_and_fault_entries_parse() {
        let spec = parse_scenario(
            "[scenario]\nname = x\n[service]\nkind = knn_sharded\ndata = blobs\nn = 10\ndims = 2\nclasses = 2\nspread = 1.0\nseed = 1\n[scaling]\nevent = \"add 4 @ 6\"\nevent = \"drain 1 @ 18\"\n[fault]\nseed = 42\ndup_p = 0.15\nkill = \"2 @ 2\"\nrevive = \"2 @ 3\"\n[trace]\nkind = keyed_queries\npool_n = 5\npool_dims = 2\npool_classes = 2\npool_spread = 1.0\npool_seed = 2\nseed = 3\nticks = 8\nrate = 1.0\n",
        )
        .unwrap();
        let Some(ServiceKind::KnnSharded(shard)) = spec.service.map(|s| s.kind) else {
            panic!("knn_sharded carries a ShardConfig");
        };
        assert_eq!(
            shard.scaling,
            vec![(6, ScaleEvent::Add(4)), (18, ScaleEvent::Drain(1))]
        );
        assert_eq!(spec.fault.scheduled_kills(), vec![(2, 2)]);
        assert_eq!(spec.fault.revival_of(2), Some(3));
    }
}
