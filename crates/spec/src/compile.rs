//! Lowering: a validated [`ScenarioSpec`] onto [`peachy_dataflow`]
//! lineage.
//!
//! Each source/stage becomes a `Node`: either rows (`Dataset<Row>` plus
//! a column-name schema) or a keyed dataset (`KeyedDataset<Value, Row>`
//! plus the key's name and the value columns). The compiler tracks which
//! world every stage lives in so that narrow ops stay narrow and keyed
//! stages keep their `HashKeyed` partitioning claim between an
//! aggregation and a join — which is exactly what lets the PR 6 optimizer
//! elide the join-side shuffle for spec pipelines just as it does for the
//! hand-written city twin. Expressions are compiled (and column names
//! resolved) here, at build time, so a bad expression is a [`SpecError`]
//! with a line and a hint rather than a runtime panic.
//!
//! The lowering mirrors the hand-written pipelines deliberately:
//! `count` is `key_by → with_stats → map_values(1) → reduce_by_key(+)`,
//! `key_by` is `KeyedDataset::from_dataset` over explicit pairs, joins
//! concatenate value columns — so a spec run reproduces its Rust twin's
//! rows *and* shuffle counters bit-for-bit.

use std::collections::HashMap;
use std::sync::Arc;

use peachy_data::geo::{locate, ArrestRecord, CityConfig, Nta, Point, SyntheticCity};
use peachy_data::iris::iris;
use peachy_data::synth::gaussian_blobs;
use peachy_data::LabeledDataset;
use peachy_dataflow::{Dataset, KeyedDataset, ShuffleStats};

use crate::expr::{add_values, parse_expr};
use crate::parse::SpecError;
use crate::spec::{BlobParams, CityTable, ScenarioSpec, SourceKind, StageOp};
use crate::value::{Row, Value};

/// One compiled source or stage.
pub(crate) enum Node {
    /// Plain rows with a column schema.
    Rows {
        /// The dataset.
        ds: Dataset<Row>,
        /// Column names.
        schema: Vec<String>,
    },
    /// A keyed dataset: key column + value columns.
    Keyed {
        /// The keyed dataset.
        ds: KeyedDataset<Value, Row>,
        /// Name of the key column.
        key_name: String,
        /// Names of the value columns.
        vschema: Vec<String>,
    },
}

impl Node {
    /// The flattened column view (`[key, …values]` for keyed nodes).
    pub(crate) fn columns(&self) -> Vec<String> {
        match self {
            Node::Rows { schema, .. } => schema.clone(),
            Node::Keyed {
                key_name, vschema, ..
            } => std::iter::once(key_name.clone())
                .chain(vschema.iter().cloned())
                .collect(),
        }
    }
}

/// A fully lowered scenario, ready for [`crate::run::Runner`].
pub(crate) struct Compiled {
    /// Every source and stage by name.
    pub nodes: HashMap<String, Node>,
    /// The run's single counter block (attached at every keyed boundary).
    pub stats: Arc<ShuffleStats>,
}

/// Rows for a blob dataset: `[label, x0, …]`.
pub(crate) fn labeled_rows(ds: &LabeledDataset) -> Vec<Row> {
    (0..ds.len())
        .map(|i| {
            std::iter::once(Value::Int(ds.labels[i] as i64))
                .chain(ds.points.row(i).iter().map(|&x| Value::Float(x)))
                .collect()
        })
        .collect()
}

/// Schema for a blob dataset: `label, x0..x{d-1}`.
fn labeled_schema(dims: usize) -> Vec<String> {
    std::iter::once("label".to_string())
        .chain((0..dims).map(|d| format!("x{d}")))
        .collect()
}

/// Build the [`LabeledDataset`] a [`BlobParams`] describes.
pub(crate) fn make_blobs(p: &BlobParams) -> LabeledDataset {
    gaussian_blobs(p.n, p.dims, p.classes, p.spread, p.seed)
}

fn col_idx(schema: &[String], name: &str, line: usize, section: &str) -> Result<usize, SpecError> {
    schema.iter().position(|c| c == name).ok_or_else(|| {
        let known: Vec<&str> = schema.iter().map(String::as_str).collect();
        SpecError::at(
            line,
            section,
            format!("unknown column `{name}` (columns: {})", known.join(", ")),
        )
        .with_hint_from(name, &known)
    })
}

/// Lower every source and stage of `spec`.
pub(crate) fn compile(spec: &ScenarioSpec) -> Result<Compiled, SpecError> {
    let stats = ShuffleStats::new();
    let partitions = spec.run.partitions;
    let cfg = spec.run.optimizer;

    let mut nodes: HashMap<String, Node> = HashMap::new();
    // Cities are deterministic in (config, seed); generate each distinct
    // one once even when several sources view it.
    let mut cities: Vec<((CityConfig, u64), Arc<SyntheticCity>)> = Vec::new();
    let mut city_for = |key: (CityConfig, u64)| -> Arc<SyntheticCity> {
        if let Some((_, city)) = cities.iter().find(|(k, _)| *k == key) {
            return Arc::clone(city);
        }
        let city = Arc::new(SyntheticCity::generate(key.0, key.1));
        cities.push((key, Arc::clone(&city)));
        city
    };
    // Source name → its city, for `locate` boundary lookups.
    let mut city_of: HashMap<String, Arc<SyntheticCity>> = HashMap::new();

    for src in &spec.sources {
        let node = match &src.kind {
            SourceKind::Inline { columns, rows } => Node::Rows {
                ds: Dataset::from_vec_with(rows.clone(), partitions, cfg),
                schema: columns.clone(),
            },
            SourceKind::City {
                config,
                seed,
                table,
            } => {
                let city = city_for((*config, *seed));
                city_of.insert(src.name.clone(), Arc::clone(&city));
                let arrest_lines = |records: &[ArrestRecord]| Node::Rows {
                    ds: Dataset::from_text(&SyntheticCity::arrests_csv(records), partitions)
                        .with_optimizer(cfg)
                        .map(|line| vec![Value::Str(line)]),
                    schema: vec!["line".to_string()],
                };
                match table {
                    CityTable::CurrentArrests => arrest_lines(&city.arrests_current),
                    CityTable::HistoricArrests => arrest_lines(&city.arrests_historic),
                    CityTable::Population => {
                        let rows: Vec<Row> = city
                            .population
                            .iter()
                            .map(|(code, pop)| {
                                vec![Value::Str(code.clone()), Value::Int(*pop as i64)]
                            })
                            .collect();
                        Node::Rows {
                            ds: Dataset::from_vec_with(rows, partitions, cfg),
                            schema: vec!["code".to_string(), "population".to_string()],
                        }
                    }
                }
            }
            SourceKind::Blobs(p) => {
                let ds = make_blobs(p);
                Node::Rows {
                    ds: Dataset::from_vec_with(labeled_rows(&ds), partitions, cfg),
                    schema: labeled_schema(p.dims),
                }
            }
            SourceKind::Iris => {
                let ds = iris();
                let dims = ds.dims();
                Node::Rows {
                    ds: Dataset::from_vec_with(labeled_rows(&ds), partitions, cfg),
                    schema: labeled_schema(dims),
                }
            }
        };
        nodes.insert(src.name.clone(), node);
    }

    for st in &spec.stages {
        let section = format!("stage.{}", st.name);
        let input = nodes.get(&st.input).expect("validated reference");
        let rows_input = |op: &str| -> Result<(&Dataset<Row>, &Vec<String>), SpecError> {
            match input {
                Node::Rows { ds, schema } => Ok((ds, schema)),
                Node::Keyed { .. } => Err(SpecError::at(
                    st.line,
                    &section,
                    format!(
                        "op `{op}` needs a rows input, but `{}` is keyed (unkey it first)",
                        st.input
                    ),
                )),
            }
        };
        let keyed_input = |name: &str, op: &str| -> Result<&Node, SpecError> {
            match nodes.get(name).expect("validated reference") {
                n @ Node::Keyed { .. } => Ok(n),
                Node::Rows { .. } => Err(SpecError::at(
                    st.line,
                    &section,
                    format!(
                        "op `{op}` needs a keyed input, but `{name}` is rows (key_by it first)"
                    ),
                )),
            }
        };

        let node = match &st.op {
            StageOp::ParseArrest => {
                let (ds, schema) = rows_input("parse_arrest")?;
                if schema.len() != 1 {
                    return Err(SpecError::at(
                        st.line,
                        &section,
                        format!(
                            "parse_arrest wants single-column text lines, got {} columns",
                            schema.len()
                        ),
                    ));
                }
                Node::Rows {
                    // Mirrors `peachy::city::parse_arrest`: id,year,offense,x,y
                    // with dirty rows (missing fields, unparsable or
                    // non-finite numbers) dropped.
                    ds: ds.flat_map(|row: Row| {
                        let Some(Value::Str(line)) = row.into_iter().next() else {
                            return None;
                        };
                        let fields: Vec<&str> = line.split(',').collect();
                        if fields.len() != 5 {
                            return None;
                        }
                        let year: u32 = fields[1].trim().parse().ok()?;
                        let x: f64 = fields[3].trim().parse().ok()?;
                        let y: f64 = fields[4].trim().parse().ok()?;
                        if !x.is_finite() || !y.is_finite() {
                            return None;
                        }
                        Some(vec![
                            Value::Int(year as i64),
                            Value::Str(fields[2].trim().to_string()),
                            Value::Float(x),
                            Value::Float(y),
                        ])
                    }),
                    schema: ["year", "offense", "x", "y"].map(String::from).to_vec(),
                }
            }
            StageOp::Locate { boundaries } => {
                let (ds, schema) = rows_input("locate")?;
                let xi = col_idx(schema, "x", st.line, &section)?;
                let yi = col_idx(schema, "y", st.line, &section)?;
                let city = city_of.get(boundaries).expect("validated city source");
                let ntas: Arc<Vec<Nta>> = Arc::new(city.ntas.clone());
                Node::Rows {
                    ds: ds.flat_map(move |row: Row| {
                        let (x, y) = match (&row[xi], &row[yi]) {
                            (Value::Float(x), Value::Float(y)) => (*x, *y),
                            (a, b) => panic!(
                                "locate wants float x/y, got {} and {}",
                                a.type_name(),
                                b.type_name()
                            ),
                        };
                        locate(&ntas, Point { x, y })
                            .map(|idx| vec![Value::Str(ntas[idx].code.clone())])
                    }),
                    schema: vec!["code".to_string()],
                }
            }
            StageOp::Map { cols } => {
                let (ds, schema) = rows_input("map")?;
                let mut out_schema = Vec::new();
                let mut exprs = Vec::new();
                for (name, src, line) in cols {
                    if out_schema.contains(name) {
                        return Err(SpecError::at(
                            *line,
                            &section,
                            format!("duplicate output column `{name}`"),
                        ));
                    }
                    out_schema.push(name.clone());
                    exprs.push(parse_expr(src, schema, *line, &section)?);
                }
                Node::Rows {
                    ds: ds.map(move |row: Row| exprs.iter().map(|e| e.eval(&row)).collect::<Row>()),
                    schema: out_schema,
                }
            }
            StageOp::Filter { pred, line } => {
                let (ds, schema) = rows_input("filter")?;
                let pred = parse_expr(pred, schema, *line, &section)?;
                Node::Rows {
                    ds: ds.filter(move |row: &Row| pred.eval_bool(row)),
                    schema: schema.clone(),
                }
            }
            StageOp::Select { cols, line } => {
                let (ds, schema) = rows_input("select")?;
                let idxs: Vec<usize> = cols
                    .iter()
                    .map(|c| col_idx(schema, c, *line, &section))
                    .collect::<Result<_, _>>()?;
                Node::Rows {
                    ds: ds
                        .map(move |row: Row| idxs.iter().map(|&i| row[i].clone()).collect::<Row>()),
                    schema: cols.clone(),
                }
            }
            StageOp::KeyBy { key, line } => {
                let (ds, schema) = rows_input("key_by")?;
                let ki = col_idx(schema, key, *line, &section)?;
                let vschema: Vec<String> = schema
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != ki)
                    .map(|(_, c)| c.clone())
                    .collect();
                let pairs = ds.map(move |row: Row| {
                    let key = row[ki].clone();
                    let value: Row = row
                        .into_iter()
                        .enumerate()
                        .filter(|(i, _)| *i != ki)
                        .map(|(_, v)| v)
                        .collect();
                    (key, value)
                });
                Node::Keyed {
                    ds: KeyedDataset::from_dataset(pairs).with_stats(Arc::clone(&stats)),
                    key_name: key.clone(),
                    vschema,
                }
            }
            StageOp::Count { key, line } => {
                let (ds, schema) = rows_input("count")?;
                let ki = col_idx(schema, key, *line, &section)?;
                Node::Keyed {
                    ds: ds
                        .key_by(move |row: &Row| row[ki].clone())
                        .with_stats(Arc::clone(&stats))
                        .map_values(|_| vec![Value::Int(1)])
                        .reduce_by_key(|a, b| vec![add_values(a[0].clone(), b[0].clone())]),
                    key_name: key.clone(),
                    vschema: vec!["count".to_string()],
                }
            }
            StageOp::Sum { key, col, line } => {
                let (ds, schema) = rows_input("sum")?;
                let ki = col_idx(schema, key, *line, &section)?;
                let ci = col_idx(schema, col, *line, &section)?;
                Node::Keyed {
                    ds: ds
                        .key_by(move |row: &Row| row[ki].clone())
                        .with_stats(Arc::clone(&stats))
                        .map_values(move |row: Row| vec![row[ci].clone()])
                        .reduce_by_key(|a, b| vec![add_values(a[0].clone(), b[0].clone())]),
                    key_name: key.clone(),
                    vschema: vec![col.clone()],
                }
            }
            StageOp::Group { key, line } => {
                let (ds, schema) = rows_input("group")?;
                let ki = col_idx(schema, key, *line, &section)?;
                Node::Keyed {
                    ds: ds
                        .key_by(move |row: &Row| row[ki].clone())
                        .with_stats(Arc::clone(&stats))
                        .group_by_key()
                        .map_values(|rows: Vec<Row>| {
                            vec![Value::List(rows.into_iter().map(Value::List).collect())]
                        }),
                    key_name: key.clone(),
                    vschema: vec!["group".to_string()],
                }
            }
            StageOp::Join {
                with,
                broadcast,
                line,
            } => {
                let (lds, lkey, lvs) = match keyed_input(&st.input, "join")? {
                    Node::Keyed {
                        ds,
                        key_name,
                        vschema,
                    } => (ds, key_name, vschema),
                    Node::Rows { .. } => unreachable!(),
                };
                let (rds, rvs) = match keyed_input(with, "join")? {
                    Node::Keyed { ds, vschema, .. } => (ds, vschema),
                    Node::Rows { .. } => unreachable!(),
                };
                if let Some(clash) = lvs.iter().find(|c| rvs.contains(c)) {
                    return Err(SpecError::at(
                        *line,
                        &section,
                        format!(
                            "both join sides have a `{clash}` column — select/map one side first"
                        ),
                    ));
                }
                let joined = if *broadcast {
                    lds.broadcast_join(rds)
                } else {
                    lds.join(rds)
                };
                Node::Keyed {
                    ds: joined
                        .map_values(|(a, b): (Row, Row)| a.into_iter().chain(b).collect::<Row>()),
                    key_name: lkey.clone(),
                    vschema: lvs.iter().chain(rvs.iter()).cloned().collect(),
                }
            }
            StageOp::Unkey { key_as } => {
                let (kds, vschema) = match keyed_input(&st.input, "unkey")? {
                    Node::Keyed { ds, vschema, .. } => (ds, vschema),
                    Node::Rows { .. } => unreachable!(),
                };
                let schema: Vec<String> = std::iter::once(key_as.clone())
                    .chain(vschema.iter().cloned())
                    .collect();
                Node::Rows {
                    ds: kds
                        .rows()
                        .map(|(k, v): (Value, Row)| std::iter::once(k).chain(v).collect::<Row>()),
                    schema,
                }
            }
        };
        nodes.insert(st.name.clone(), node);
    }

    Ok(Compiled { nodes, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_scenario;

    fn run_rows(text: &str, from: &str) -> (Vec<Row>, Vec<String>) {
        let spec = parse_scenario(text).unwrap();
        let compiled = compile(&spec).unwrap();
        match &compiled.nodes[from] {
            Node::Rows { ds, schema } => (ds.collect(), schema.clone()),
            Node::Keyed { ds, .. } => (
                ds.collect()
                    .into_iter()
                    .map(|(k, v)| std::iter::once(k).chain(v).collect())
                    .collect(),
                compiled.nodes[from].columns(),
            ),
        }
    }

    const HEADER: &str = "[scenario]\nname = t\n[run]\npartitions = 2\n";

    #[test]
    fn inline_map_filter_lowers() {
        let text = format!(
            "{HEADER}[source.rows]\nkind = inline\ncolumns = \"name, n\"\nrow = \"a, 1\"\nrow = \"b, 2\"\nrow = \"c, 3\"\n\
             [stage.big]\ninput = rows\nop = filter\nwhere = \"n >= 2\"\n\
             [stage.scaled]\ninput = big\nop = map\ncol.name = \"name\"\ncol.twice = \"n * 2\"\n\
             [sink]\nfrom = scaled\n"
        );
        let (mut rows, schema) = run_rows(&text, "scaled");
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(schema, vec!["name", "twice"]);
        assert_eq!(
            rows,
            vec![
                vec![Value::Str("b".into()), Value::Int(4)],
                vec![Value::Str("c".into()), Value::Int(6)],
            ]
        );
    }

    #[test]
    fn count_and_join_lower_onto_keyed_world() {
        let text = format!(
            "{HEADER}[source.votes]\nkind = inline\ncolumns = \"city, n\"\nrow = \"ana, 1\"\nrow = \"bo, 1\"\nrow = \"ana, 1\"\n\
             [source.pops]\nkind = inline\ncolumns = \"city, pop\"\nrow = \"ana, 10\"\nrow = \"bo, 20\"\n\
             [stage.counts]\ninput = votes\nop = count\nkey = city\n\
             [stage.keyed_pops]\ninput = pops\nop = key_by\nkey = city\n\
             [stage.joined]\ninput = counts\nop = join\nwith = keyed_pops\n\
             [stage.flat]\ninput = joined\nop = unkey\nkey_as = city\n\
             [sink]\nfrom = flat\n"
        );
        let (mut rows, schema) = run_rows(&text, "flat");
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(schema, vec!["city", "count", "pop"]);
        assert_eq!(
            rows,
            vec![
                vec![Value::Str("ana".into()), Value::Int(2), Value::Int(10)],
                vec![Value::Str("bo".into()), Value::Int(1), Value::Int(20)],
            ]
        );
    }

    #[test]
    fn bad_expression_column_is_a_compile_error() {
        let text = format!(
            "{HEADER}[source.rows]\nkind = inline\ncolumns = \"n\"\nrow = \"1\"\n\
             [stage.f]\ninput = rows\nop = filter\nwhere = \"m > 0\"\n[sink]\nfrom = f\n"
        );
        let spec = parse_scenario(&text).unwrap();
        let err = compile(&spec).err().expect("unknown column must fail");
        assert_eq!(err.section, "stage.f");
        assert_eq!(err.hint.as_deref(), Some("n"));
    }

    #[test]
    fn group_nests_rows_per_key() {
        let text = format!(
            "{HEADER}[source.rows]\nkind = inline\ncolumns = \"k, v\"\nrow = \"a, 1\"\nrow = \"a, 2\"\nrow = \"b, 3\"\n\
             [stage.g]\ninput = rows\nop = group\nkey = k\n[sink]\nfrom = g\n"
        );
        let (rows, schema) = run_rows(&text, "g");
        assert_eq!(schema, vec!["k", "group"]);
        let a = rows
            .iter()
            .find(|r| r[0] == Value::Str("a".into()))
            .unwrap();
        let Value::List(groups) = &a[1] else {
            panic!("expected list")
        };
        assert_eq!(groups.len(), 2);
    }
}
