//! Executing a compiled scenario: the [`Runner`] and its
//! [`ScenarioReport`].
//!
//! A pipeline scenario collects its sink stage on the chosen
//! [`Executor`] and reports rows plus the run's merged shuffle counters;
//! a service scenario stands up the declared server (fixed-pool or the
//! elastic sharded tier), replays the declared trace in virtual time,
//! and reports one row per response plus the server's ledger. Both paths
//! are deterministic in `(spec, executor, seeds)` — which is what the
//! spec↔Rust equivalence suite and the chaos-vs-clean law lean on.
//!
//! Chaos placement follows the engine's conventions: a `[fault]` section
//! rides a `cluster:N` pipeline executor as its *transport-only* plan
//! (kills don't apply to a collect), while the sharded tier takes the
//! full plan — kills, revivals and all — as its `ShardConfig::plan`, the
//! one config field set here rather than by the parser. The fixed pool
//! takes none: the parser rejects `[fault]` under a pool service.
//! [`RunOptions::chaos_seed`] reseeds the plan, the `PEACHY_CHAOS_SEED`
//! convention of the CI chaos jobs.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use peachy_cluster::{Executor, FaultPlan};
use peachy_data::iris::iris;
use peachy_data::split::train_test_split;
use peachy_data::LabeledDataset;
use peachy_dataflow::ShuffleStats;
use peachy_ensemble::nn::{DenseNet, NetConfig, TrainConfig};
use peachy_kmeans::init::kmeans_plus_plus;
use peachy_serve::{
    keyed_query_trace, query_trace, EnsembleService, KmeansAssignService, KnnService, ServeConfig,
    ServeError, Server, ServerStats, Service, ShardConfig, ShardedKnnService, ShardedServer,
};

use crate::compile::{compile, make_blobs, Node};
use crate::parse::SpecError;
use crate::spec::{
    parse_scenario, DataSpec, PoolModel, ScenarioSpec, ServiceKind, ServiceSpec, SinkSpec,
    TraceSpec,
};
use crate::value::{Row, Value};

/// How to execute a scenario.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The backend (pipelines collect on it; servers batch onto it).
    pub executor: Executor,
    /// Reseed the spec's `[fault]` plan (the `PEACHY_CHAOS_SEED`
    /// convention); `None` keeps the seed written in the spec.
    pub chaos_seed: Option<u64>,
    /// Apply the `[fault]` section at all. `false` runs the identical
    /// scenario fault-free — the clean half of the chaos-equals-clean law.
    pub apply_fault: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            executor: Executor::Seq,
            chaos_seed: None,
            apply_fault: true,
        }
    }
}

impl RunOptions {
    /// Run on `executor` with spec faults applied.
    pub fn on(executor: Executor) -> Self {
        Self {
            executor,
            ..Self::default()
        }
    }
}

/// The backend-invariant dataflow counters a scenario reports (the
/// shuffle family of `CommStats`; scatter/gather traffic is backend
/// shaped and deliberately excluded).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Records through shuffle boundaries.
    pub records: u64,
    /// Encoded bytes through shuffle boundaries. Deterministic, but
    /// measured over [`Value`]-encoded rows — compare spec runs to spec
    /// runs, not to typed Rust twins.
    pub bytes: u64,
    /// Shuffle boundaries executed.
    pub shuffles: u64,
    /// Shuffle boundaries the optimizer elided.
    pub shuffles_elided: u64,
    /// Partitions spilled by byte-budgeted stores.
    pub spills: u64,
    /// Encoded bytes written to spill files.
    pub spill_bytes: u64,
    /// Encoded bytes replayed from spill files.
    pub unspill_bytes: u64,
    /// High-water mark of bytes materialized or decoded at once by
    /// budgeted stores (the streaming-execution meter; 0 when nothing
    /// charged it).
    pub peak_resident_bytes: u64,
}

impl Counters {
    fn from_stats(stats: &ShuffleStats) -> Self {
        Self {
            records: stats.records(),
            bytes: stats.bytes(),
            shuffles: stats.shuffles(),
            shuffles_elided: stats.shuffles_elided(),
            spills: stats.spills(),
            spill_bytes: stats.spill_bytes(),
            unspill_bytes: stats.unspill_bytes(),
            peak_resident_bytes: stats.peak_resident_bytes(),
        }
    }
}

/// The server-side ledger of a service scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests offered.
    pub submitted: u64,
    /// Requests turned away at admission.
    pub rejected: u64,
    /// Requests answered.
    pub completed: u64,
    /// Requests whose service panicked.
    pub failed: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Shard-map epochs (elastic tier).
    pub epochs: u64,
    /// Shards transferred by resharding.
    pub shards_moved: u64,
    /// Shards rebuilt after a kill.
    pub shards_rebuilt: u64,
    /// Requests replayed after a rank death.
    pub replayed: u64,
    /// Virtual ticks spent in retry backoff.
    pub backoff_ticks: u64,
    /// Latency percentiles in virtual ticks.
    pub p50: Option<u64>,
    /// 95th percentile.
    pub p95: Option<u64>,
    /// 99th percentile.
    pub p99: Option<u64>,
}

impl ServeCounters {
    fn from_stats(s: &ServerStats) -> Self {
        Self {
            submitted: s.submitted(),
            rejected: s.rejected(),
            completed: s.completed(),
            failed: s.failed(),
            batches: s.batches(),
            epochs: s.epochs(),
            shards_moved: s.shards_moved(),
            shards_rebuilt: s.shards_rebuilt(),
            replayed: s.replayed(),
            backoff_ticks: s.backoff_ticks(),
            p50: s.p50(),
            p95: s.p95(),
            p99: s.p99(),
        }
    }
}

/// What a scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// `[scenario] name`.
    pub name: String,
    /// Column names of `rows`.
    pub columns: Vec<String>,
    /// The materialized output (sink rows, or one row per response).
    pub rows: Vec<Row>,
    /// Dataflow counters (zero for pure service scenarios).
    pub counters: Counters,
    /// Server ledger, for service scenarios.
    pub serve: Option<ServeCounters>,
    /// The optimizer's plan rendering, when `[report] explain = true`.
    pub explain: Option<String>,
}

impl ScenarioReport {
    /// Render rows as text: header line, then one comma-joined line per
    /// row — the golden-file format.
    pub fn render_rows(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

/// A loaded scenario, ready to run any number of times.
pub struct Runner {
    spec: ScenarioSpec,
    /// Directory golden paths resolve against (the spec file's parent).
    base: Option<PathBuf>,
}

impl Runner {
    /// Parse and validate `.peachy` text. Not the `FromStr` trait:
    /// callers shouldn't need a trait import for the primary entry point.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &str) -> Result<Self, SpecError> {
        Ok(Self {
            spec: parse_scenario(text)?,
            base: None,
        })
    }

    /// Load, parse and validate a `.peachy` file; golden paths resolve
    /// relative to it.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::at(0, "", format!("cannot read `{}`: {e}", path.display())))?;
        Ok(Self {
            spec: parse_scenario(&text)?,
            base: path.parent().map(Path::to_path_buf),
        })
    }

    /// The validated scenario.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Force `[report] explain` on (the runner's `--explain` flag).
    pub fn with_explain(mut self) -> Self {
        self.spec.explain = true;
        self
    }

    /// Execute under `opts`.
    pub fn run(&self, opts: &RunOptions) -> Result<ScenarioReport, SpecError> {
        match &self.spec.service {
            Some(service) => self.run_service(service, opts),
            None => self.run_pipeline(opts),
        }
    }

    /// The spec's fault plan under the run's seed override; empty when
    /// the spec has none or the run disables it.
    fn fault_plan(&self, opts: &RunOptions) -> FaultPlan {
        if !opts.apply_fault {
            return FaultPlan::none();
        }
        let plan = self.spec.fault.clone();
        match opts.chaos_seed {
            Some(seed) => plan.with_seed(seed),
            None => plan,
        }
    }

    // -- pipelines ---------------------------------------------------------

    fn run_pipeline(&self, opts: &RunOptions) -> Result<ScenarioReport, SpecError> {
        let sink = self
            .spec
            .sink
            .as_ref()
            .expect("validated: sink xor service");
        // Transport chaos rides a cluster backend; kills don't apply to a
        // one-shot collect, so only the transport half of the plan is used.
        let plan = self.fault_plan(opts);
        let exec = match &opts.executor {
            Executor::Cluster { ranks, .. } if !plan.is_empty() => Executor::Cluster {
                ranks: *ranks,
                plan: plan.transport_only(),
            },
            exec => exec.clone(),
        };

        let compiled = compile(&self.spec)?;
        let node = compiled.nodes.get(&sink.from).expect("validated reference");
        let columns = node.columns();
        let explain = if self.spec.explain {
            Some(match node {
                Node::Rows { ds, .. } => render_plans(&ds.explain_plans()),
                Node::Keyed { ds, .. } => render_plans(&ds.explain_plans()),
            })
        } else {
            None
        };
        let mut rows: Vec<Row> = match node {
            Node::Rows { ds, .. } => ds.collect_with(&exec),
            Node::Keyed { ds, .. } => ds
                .collect_with(&exec)
                .into_iter()
                .map(|(k, v)| std::iter::once(k).chain(v).collect())
                .collect(),
        };

        sort_rows(&mut rows, &columns, sink)?;
        if let Some(limit) = sink.limit {
            rows.truncate(limit);
        }
        if sink.count_only {
            rows = vec![vec![Value::Int(rows.len() as i64)]];
        }
        let report = ScenarioReport {
            name: self.spec.name.clone(),
            columns: if sink.count_only {
                vec!["count".to_string()]
            } else {
                columns
            },
            rows,
            counters: Counters::from_stats(&compiled.stats),
            serve: None,
            explain,
        };
        self.check_golden(sink, &report)?;
        Ok(report)
    }

    /// Compare (or, under `PEACHY_SPEC_BLESS=1`, write) the sink's golden
    /// file.
    fn check_golden(&self, sink: &SinkSpec, report: &ScenarioReport) -> Result<(), SpecError> {
        let Some(golden) = &sink.golden else {
            return Ok(());
        };
        let path = match &self.base {
            Some(base) => base.join(golden),
            None => PathBuf::from(golden),
        };
        let rendered = report.render_rows();
        if std::env::var_os("PEACHY_SPEC_BLESS").is_some() {
            return std::fs::write(&path, rendered).map_err(|e| {
                SpecError::at(
                    sink.line,
                    "sink",
                    format!("cannot bless `{}`: {e}", path.display()),
                )
            });
        }
        let expected = std::fs::read_to_string(&path).map_err(|e| {
            SpecError::at(
                sink.line,
                "sink",
                format!(
                    "cannot read golden `{}`: {e} (set PEACHY_SPEC_BLESS=1 to create it)",
                    path.display()
                ),
            )
        })?;
        if expected != rendered {
            let diff = first_difference(&expected, &rendered);
            return Err(SpecError::at(
                sink.line,
                "sink",
                format!("output differs from golden `{}`: {diff}", path.display()),
            ));
        }
        Ok(())
    }

    // -- services ----------------------------------------------------------

    fn run_service(
        &self,
        svc: &ServiceSpec,
        opts: &RunOptions,
    ) -> Result<ScenarioReport, SpecError> {
        // Checks that need the built data, reported at the `[service]` line.
        let bad = |section: &str, msg: String| SpecError::at(svc.line, section, msg);
        // The service's data, and (for test_split traces) the held-out rows.
        let (data, test): (LabeledDataset, Option<LabeledDataset>) = match &svc.data {
            DataSpec::Iris {
                split: Some((frac, seed)),
            } => {
                let tt = train_test_split(&iris(), *frac, *seed);
                (tt.train, Some(tt.test))
            }
            DataSpec::Iris { split: None } => (iris(), None),
            DataSpec::Blobs(p) => (make_blobs(p), None),
        };
        if let TraceSpec::Queries { pool, .. } = &svc.trace {
            if pool.dims != data.dims() {
                return Err(bad(
                    "trace",
                    format!(
                        "query pool has {} dims, the service's data {}",
                        pool.dims,
                        data.dims()
                    ),
                ));
            }
        }

        let (responses, stats) = match &svc.kind {
            ServiceKind::Pool { model, serve } => {
                let trace: Vec<(u64, Vec<f64>)> = match &svc.trace {
                    TraceSpec::TestSplit => {
                        let test = test.as_ref().expect("validated: test_split implies split");
                        (0..test.len())
                            .map(|i| (0, test.points.row(i).to_vec()))
                            .collect()
                    }
                    TraceSpec::Queries {
                        pool,
                        seed,
                        ticks,
                        rate,
                        ..
                    } => query_trace(*seed, *ticks, *rate, &make_blobs(pool).points),
                };
                let exec = &opts.executor;
                match model {
                    PoolModel::Knn => serve_pool(KnnService::new(data, svc.k), exec, serve, trace),
                    PoolModel::KmeansAssign { centroid_seed } => {
                        if svc.k > data.len() {
                            return Err(bad(
                                "service",
                                format!(
                                    "kmeans_assign needs k ≤ training rows, got k = {} over {} rows",
                                    svc.k,
                                    data.len()
                                ),
                            ));
                        }
                        let centroids = kmeans_plus_plus(&data.points, svc.k, *centroid_seed);
                        serve_pool(KmeansAssignService::new(centroids), exec, serve, trace)
                    }
                    PoolModel::Ensemble {
                        hidden,
                        epochs,
                        train_seed,
                    } => {
                        let config = NetConfig {
                            layers: vec![data.dims(), *hidden, data.classes as usize],
                        };
                        let tc = TrainConfig {
                            epochs: *epochs,
                            seed: *train_seed,
                            ..TrainConfig::default()
                        };
                        let mut net = DenseNet::new(&config, *train_seed);
                        net.train(&data, &tc);
                        serve_pool(EnsembleService::new(net), exec, serve, trace)
                    }
                }
            }
            ServiceKind::KnnSharded(cfg) => {
                let TraceSpec::Queries {
                    pool,
                    seed,
                    ticks,
                    rate,
                    ..
                } = &svc.trace
                else {
                    unreachable!("validated: knn_sharded implies keyed_queries");
                };
                if data.len() < cfg.num_shards {
                    return Err(bad(
                        "service",
                        format!(
                            "knn_sharded needs a data row per shard, got {} rows for {} shards",
                            data.len(),
                            cfg.num_shards
                        ),
                    ));
                }
                let keyed = keyed_query_trace(*seed, *ticks, *rate, &make_blobs(pool).points);
                // The elastic tier takes the FULL plan: kills, revivals,
                // transport chaos — replay keeps the answers clean.
                let cfg = ShardConfig {
                    plan: self.fault_plan(opts),
                    ..cfg.clone()
                };
                let mut server = ShardedServer::start(
                    ShardedKnnService::new(data, svc.k),
                    opts.executor.clone(),
                    cfg,
                );
                let responses = server.run_trace(keyed);
                (responses, server.shutdown().stats)
            }
        };

        let rows: Vec<Row> = responses
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let out = match r {
                    Ok(label) => Value::Int(*label as i64),
                    Err(e) => Value::Str(e.to_string()),
                };
                vec![Value::Int(i as i64), out]
            })
            .collect();
        Ok(ScenarioReport {
            name: self.spec.name.clone(),
            columns: vec!["request".to_string(), "output".to_string()],
            rows,
            counters: Counters::default(),
            serve: Some(ServeCounters::from_stats(&stats)),
            explain: None,
        })
    }
}

/// Stand up a fixed-pool server, drive `trace` through it, and shut it
/// down: the one run every pool service shares.
fn serve_pool<S>(
    service: S,
    exec: &Executor,
    cfg: &ServeConfig,
    trace: Vec<(u64, Vec<f64>)>,
) -> (Vec<Result<u32, ServeError>>, Arc<ServerStats>)
where
    S: Service<Input = Vec<f64>, Output = u32>,
{
    let server = Server::start(service, exec.clone(), cfg.clone());
    let responses = server.run_trace(trace);
    (responses, server.shutdown().stats)
}

/// Stable sort by the sink's keys (leftmost outermost), using the
/// [`Value::total_cmp`] total order.
fn sort_rows(rows: &mut [Row], columns: &[String], sink: &SinkSpec) -> Result<(), SpecError> {
    if sink.sort.is_empty() {
        return Ok(());
    }
    let mut keys = Vec::new();
    for (col, desc, line) in &sink.sort {
        let idx = columns.iter().position(|c| c == col).ok_or_else(|| {
            let known: Vec<&str> = columns.iter().map(String::as_str).collect();
            SpecError::at(
                *line,
                "sink",
                format!(
                    "sort column `{col}` is not in the output (columns: {})",
                    known.join(", ")
                ),
            )
            .with_hint_from(col, &known)
        })?;
        keys.push((idx, *desc));
    }
    rows.sort_by(|a, b| {
        for &(idx, desc) in &keys {
            let ord = a[idx].total_cmp(&b[idx]);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(())
}

fn render_plans(report: &peachy_dataflow::PlanReport) -> String {
    format!(
        "naive plan:\n{}\noptimized plan:\n{}\nfused runs: {}  elided shuffles: {}  auto-cached: {}\n",
        report.naive, report.optimized, report.fused_runs, report.elided_shuffles, report.auto_cached
    )
}

/// `line N: got .. want ..` for golden mismatches.
fn first_difference(expected: &str, got: &str) -> String {
    let mut e = expected.lines();
    let mut g = got.lines();
    let mut line = 1;
    loop {
        match (e.next(), g.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (Some(a), Some(b)) => {
                return format!("first difference at line {line}: `{a}` vs `{b}`")
            }
            (Some(a), None) => {
                return format!("output ends early at line {line} (golden has `{a}`)")
            }
            (None, Some(b)) => return format!("output has extra line {line}: `{b}`"),
            (None, None) => return "identical?".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_report_counts_shuffles() {
        let text = "\
[scenario]\nname = t\n[run]\npartitions = 2\n\
[source.rows]\nkind = inline\ncolumns = \"k, v\"\nrow = \"a, 1\"\nrow = \"a, 2\"\nrow = \"b, 5\"\n\
[stage.sums]\ninput = rows\nop = sum\nkey = k\ncol = v\n\
[sink]\nfrom = sums\nsort = \"k\"\n";
        let report = Runner::from_str(text)
            .unwrap()
            .run(&RunOptions::default())
            .unwrap();
        assert_eq!(report.columns, vec!["k", "v"]);
        assert_eq!(
            report.rows,
            vec![
                vec![Value::Str("a".into()), Value::Int(3)],
                vec![Value::Str("b".into()), Value::Int(5)],
            ]
        );
        assert_eq!(report.counters.shuffles, 1);
    }

    #[test]
    fn sink_count_and_limit() {
        let text = "\
[scenario]\nname = t\n\
[source.rows]\nkind = inline\ncolumns = \"n\"\nrow = \"3\"\nrow = \"1\"\nrow = \"2\"\n\
[sink]\nfrom = rows\nkind = count\n";
        let report = Runner::from_str(text)
            .unwrap()
            .run(&RunOptions::default())
            .unwrap();
        assert_eq!(report.rows, vec![vec![Value::Int(3)]]);

        let text = "\
[scenario]\nname = t\n\
[source.rows]\nkind = inline\ncolumns = \"n\"\nrow = \"3\"\nrow = \"1\"\nrow = \"2\"\n\
[sink]\nfrom = rows\nsort = \"n desc\"\nlimit = 2\n";
        let report = Runner::from_str(text)
            .unwrap()
            .run(&RunOptions::default())
            .unwrap();
        assert_eq!(report.rows, vec![vec![Value::Int(3)], vec![Value::Int(2)]]);
    }

    #[test]
    fn backends_agree_on_a_keyed_pipeline() {
        let text = "\
[scenario]\nname = t\n[run]\npartitions = 3\n\
[source.rows]\nkind = inline\ncolumns = \"k, v\"\nrow = \"a, 1\"\nrow = \"b, 2\"\nrow = \"a, 3\"\nrow = \"c, 4\"\nrow = \"b, 6\"\n\
[stage.counts]\ninput = rows\nop = count\nkey = k\n\
[sink]\nfrom = counts\nsort = \"k\"\n";
        let runner = Runner::from_str(text).unwrap();
        let seq = runner.run(&RunOptions::default()).unwrap();
        for exec in [Executor::rayon(4), Executor::cluster(3)] {
            let other = runner.run(&RunOptions::on(exec)).unwrap();
            assert_eq!(other.rows, seq.rows);
            assert_eq!(other.counters, seq.counters);
        }
    }

    #[test]
    fn explain_is_attached_on_request() {
        let text = "\
[scenario]\nname = t\n[report]\nexplain = true\n\
[source.rows]\nkind = inline\ncolumns = \"k\"\nrow = \"a\"\nrow = \"b\"\nrow = \"a\"\n\
[stage.counts]\ninput = rows\nop = count\nkey = k\n\
[sink]\nfrom = counts\nsort = \"k\"\n";
        let report = Runner::from_str(text)
            .unwrap()
            .run(&RunOptions::default())
            .unwrap();
        let explain = report.explain.expect("explain requested");
        assert!(explain.contains("naive plan"), "{explain}");
        assert!(explain.contains("optimized plan"), "{explain}");
    }

    #[test]
    fn knn_service_on_iris_answers_every_test_row() {
        let text = "\
[scenario]\nname = t\n\
[service]\nkind = knn\nk = 5\ndata = iris\nsplit = 0.7\nsplit_seed = 2023\n\
[serve]\ncapacity = 64\nmax_batch_size = 8\nmax_wait = 3\n\
[trace]\nkind = test_split\n";
        let report = Runner::from_str(text)
            .unwrap()
            .run(&RunOptions::default())
            .unwrap();
        let serve = report.serve.expect("service report");
        assert_eq!(serve.completed as usize, report.rows.len());
        assert!(report.rows.iter().all(|r| matches!(r[1], Value::Int(_))));
    }
}
