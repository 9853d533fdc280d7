//! The malformed-spec table: every parse or validation failure must
//! name the line, the section, and — when a name is merely misspelled —
//! a `did you mean` hint. One row per way a `.peachy` file can go
//! wrong; the satellite law for the scenario layer's error quality.
//!
//! The second table edits the committed specs: each row is one
//! well-typed value an engine config or service rejects, or one rider
//! section on the wrong tier, and each must be a `SpecError` at its line,
//! never a panic inside `Runner::run`.

use std::path::PathBuf;

use peachy_spec::{parse_scenario, RunOptions, Runner, SpecError};

struct Case {
    name: &'static str,
    text: &'static str,
    /// Exact 1-based line the error must point at (0 = whole-spec error).
    line: Option<usize>,
    /// Exact section the error must name.
    section: &'static str,
    /// Exact `did you mean` hint, when one is required.
    hint: Option<&'static str>,
    /// Substring the message must contain.
    msg: &'static str,
}

const CASES: &[Case] = &[
    Case {
        name: "unknown_section_hints_nearest",
        text: "[scenario]\nname = x\n[sinnk]\nfrom = a\n",
        line: Some(3),
        section: "sinnk",
        hint: Some("sink"),
        msg: "unknown section",
    },
    Case {
        name: "misspelled_run_key",
        text: "[scenario]\nname = x\n[run]\npartitons = 2\n",
        line: Some(4),
        section: "run",
        hint: Some("partitions"),
        msg: "unknown key",
    },
    Case {
        name: "unknown_source_kind",
        text: "[scenario]\nname = x\n[source.d]\nkind = irs\n",
        line: Some(4),
        section: "source.d",
        hint: Some("iris"),
        msg: "unknown source kind",
    },
    Case {
        name: "unknown_stage_op",
        text: "[scenario]\nname = x\n[source.d]\nkind = iris\n[stage.s]\ninput = d\nop = fliter\n",
        line: Some(7),
        section: "stage.s",
        hint: Some("filter"),
        msg: "unknown stage op",
    },
    Case {
        name: "source_missing_kind",
        text: "[scenario]\nname = x\n[source.d]\ncolumns = \"a\"\n",
        line: Some(3),
        section: "source.d",
        hint: None,
        msg: "kind",
    },
    Case {
        name: "inline_row_arity_mismatch",
        text: "[scenario]\nname = x\n[source.d]\nkind = inline\ncolumns = \"a, b\"\nrow = \"1\"\n",
        line: Some(6),
        section: "source.d",
        hint: None,
        msg: "row has 1 cells, schema has 2 columns",
    },
    Case {
        name: "inline_source_without_rows",
        text: "[scenario]\nname = x\n[source.d]\nkind = inline\ncolumns = \"a\"\n",
        line: Some(3),
        section: "source.d",
        hint: None,
        msg: "no `row` entries",
    },
    Case {
        name: "wrongly_typed_value",
        text: "[scenario]\nname = x\n[run]\npartitions = 2.5\n",
        line: Some(4),
        section: "run",
        hint: None,
        msg: "must be",
    },
    Case {
        name: "duplicate_scenario_section",
        text: "[scenario]\nname = x\n[scenario]\nname = y\n",
        line: Some(3),
        section: "scenario",
        hint: None,
        msg: "duplicate `[scenario]`",
    },
    Case {
        name: "duplicate_source_name",
        text: "[scenario]\nname = x\n[source.d]\nkind = iris\n[source.d]\nkind = iris\n",
        line: Some(5),
        section: "source.d",
        hint: None,
        msg: "duplicate source `d`",
    },
    Case {
        name: "stage_cannot_reference_later_stage",
        text: "[scenario]\nname = x\n[source.rows]\nkind = iris\n\
               [stage.one]\ninput = two\nop = parse_arrest\n\
               [stage.two]\ninput = rows\nop = parse_arrest\n[sink]\nfrom = two\n",
        line: Some(5),
        section: "stage.one",
        hint: None,
        msg: "not a source or earlier stage",
    },
    Case {
        name: "stage_input_typo_hints_nearest",
        text: "[scenario]\nname = x\n[source.rows]\nkind = iris\n\
               [stage.s]\ninput = rosw\nop = parse_arrest\n[sink]\nfrom = s\n",
        line: Some(5),
        section: "stage.s",
        hint: Some("rows"),
        msg: "not a source or earlier stage",
    },
    Case {
        name: "join_with_typo_hints_nearest",
        text: "[scenario]\nname = x\n[source.rows]\nkind = iris\n\
               [stage.counts]\ninput = rows\nop = count\nkey = label\n\
               [stage.j]\ninput = counts\nop = join\nwith = conts\n[sink]\nfrom = j\n",
        line: Some(12),
        section: "stage.j",
        hint: Some("counts"),
        msg: "not a source or earlier stage",
    },
    Case {
        name: "locate_needs_a_city_source",
        text: "[scenario]\nname = x\n[source.rows]\nkind = iris\n\
               [stage.s]\ninput = rows\nop = locate\nboundaries = rows\n[sink]\nfrom = s\n",
        line: Some(5),
        section: "stage.s",
        hint: None,
        msg: "must name a city source",
    },
    Case {
        name: "neither_sink_nor_service",
        text: "[scenario]\nname = x\n[source.rows]\nkind = iris\n",
        line: Some(0),
        section: "",
        hint: None,
        msg: "neither a `[sink]` nor a `[service]`",
    },
    Case {
        name: "both_sink_and_service",
        text: "[scenario]\nname = x\n[source.rows]\nkind = iris\n[sink]\nfrom = rows\n\
               [service]\nkind = knn\ndata = iris\n[trace]\nkind = queries\n\
               pool_n = 4\npool_dims = 2\npool_classes = 2\npool_spread = 1.0\npool_seed = 1\n\
               seed = 1\nticks = 2\nrate = 1.0\n",
        line: Some(0),
        section: "",
        hint: None,
        msg: "both `[sink]` and `[service]`",
    },
    Case {
        name: "trace_without_service",
        text: "[scenario]\nname = x\n[source.rows]\nkind = iris\n[sink]\nfrom = rows\n\
               [trace]\nkind = test_split\n",
        line: Some(0),
        section: "trace",
        hint: None,
        msg: "needs a `[service]`",
    },
    Case {
        name: "service_without_trace",
        text: "[scenario]\nname = x\n[service]\nkind = knn\ndata = iris\n",
        line: Some(3),
        section: "service",
        hint: None,
        msg: "needs a `[trace]`",
    },
    Case {
        name: "sharded_service_needs_keyed_trace",
        text: "[scenario]\nname = x\n\
               [service]\nkind = knn_sharded\ndata = blobs\nn = 8\ndims = 2\nclasses = 2\nspread = 1.0\nseed = 1\n\
               [trace]\nkind = queries\npool_n = 4\npool_dims = 2\npool_classes = 2\npool_spread = 1.0\npool_seed = 1\n\
               seed = 1\nticks = 2\nrate = 1.0\n",
        line: Some(3),
        section: "trace",
        hint: None,
        msg: "keyed_queries",
    },
    Case {
        name: "test_split_trace_needs_a_split",
        text: "[scenario]\nname = x\n[service]\nkind = knn\ndata = iris\n[trace]\nkind = test_split\n",
        line: Some(3),
        section: "trace",
        hint: None,
        msg: "`split`",
    },
    Case {
        name: "bad_scaling_event",
        text: "[scenario]\nname = x\n[scaling]\nevent = \"groww 4 @ 6\"\n",
        line: Some(4),
        section: "scaling",
        hint: None,
        msg: "bad scaling event",
    },
    Case {
        name: "bad_kill_syntax",
        text: "[scenario]\nname = x\n[fault]\nseed = 1\nkill = \"2 at 3\"\n",
        line: Some(5),
        section: "fault",
        hint: None,
        msg: "rank @ after",
    },
    Case {
        name: "bad_sort_direction_hints",
        text: "[scenario]\nname = x\n[source.rows]\nkind = iris\n[sink]\nfrom = rows\nsort = \"label dsec\"\n",
        line: Some(7),
        section: "sink",
        hint: Some("desc"),
        msg: "sort direction",
    },
    Case {
        name: "optimizer_typo_hints",
        text: "[scenario]\nname = x\n[run]\noptimizer = navie\n",
        line: Some(4),
        section: "run",
        hint: Some("naive"),
        msg: "optimizer must be",
    },
    Case {
        name: "line_without_equals",
        text: "[scenario]\nname = x\n[run]\nwhat is this\n",
        line: Some(4),
        section: "run",
        hint: None,
        msg: "expected `key = value`",
    },
    Case {
        name: "unterminated_section_header",
        text: "[scenario]\nname = x\n[run\n",
        line: Some(3),
        section: "scenario",
        hint: None,
        msg: "unterminated section header",
    },
    Case {
        name: "unterminated_string",
        text: "[scenario]\nname = x\n[run]\npartitions = \"4\n",
        line: Some(4),
        section: "run",
        hint: None,
        msg: "unterminated string",
    },
    Case {
        name: "rider_without_a_service",
        text: "[scenario]\nname = x\n[source.rows]\nkind = iris\n[sink]\nfrom = rows\n[serve]\nworkers = 2\n",
        line: Some(7),
        section: "serve",
        hint: None,
        msg: "needs a `[service]`",
    },
    Case {
        name: "key_before_any_section",
        text: "name = x\n[scenario]\n",
        line: Some(1),
        section: "",
        hint: None,
        msg: "before any [section]",
    },
];

/// One bad edit of a committed spec.
struct Edit {
    name: &'static str,
    /// The spec under `specs/` the row edits.
    spec: &'static str,
    /// Replace the first occurrence of `find`…
    find: &'static str,
    /// …with this.
    with: &'static str,
    /// The error must point at the last line that starts with this.
    at: &'static str,
    /// Exact section the error must name.
    section: &'static str,
    /// Substring the message must contain.
    msg: &'static str,
    /// The value is data-dependent: the spec parses, and `Runner::run`
    /// reports it once the data is built.
    on_run: bool,
}

const ELASTIC: &str = "elastic_knn.peachy";
const IRIS: &str = "iris_knn.peachy";

const EDITS: &[Edit] = &[
    Edit {
        name: "dup_p_outside_unit_interval",
        spec: ELASTIC,
        find: "dup_p = 0.15",
        with: "dup_p = 1.5",
        at: "[fault]",
        section: "fault",
        msg: "dup_p = 1.5 outside [0, 1]",
        on_run: false,
    },
    Edit {
        name: "zero_shards",
        spec: ELASTIC,
        find: "num_shards = 16",
        with: "num_shards = 0",
        at: "[shard]",
        section: "shard",
        msg: "at least one shard",
        on_run: false,
    },
    Edit {
        name: "zero_initial_ranks",
        spec: ELASTIC,
        find: "initial_ranks = 4",
        with: "initial_ranks = 0",
        at: "[shard]",
        section: "shard",
        msg: "at least one rank",
        on_run: false,
    },
    Edit {
        name: "zero_max_wait",
        spec: IRIS,
        find: "max_wait = 3",
        with: "max_wait = 0",
        at: "[serve]",
        section: "serve",
        msg: "max_wait must be at least 1 tick",
        on_run: false,
    },
    Edit {
        name: "drain_of_a_rank_never_joined",
        spec: ELASTIC,
        find: "drain 1 @ 18",
        with: "drain 9 @ 18",
        at: "[scaling]",
        section: "scaling",
        msg: "drain of rank 9 which is not a member",
        on_run: false,
    },
    Edit {
        name: "unsorted_scaling_events",
        spec: ELASTIC,
        find: "event = \"add 4 @ 6\"\nevent = \"drain 1 @ 18\"",
        with: "event = \"drain 1 @ 18\"\nevent = \"add 4 @ 6\"",
        at: "[scaling]",
        section: "scaling",
        msg: "sorted by tick",
        on_run: false,
    },
    Edit {
        name: "negative_trace_rate",
        spec: ELASTIC,
        find: "rate = 2.0",
        with: "rate = -1.0",
        at: "rate",
        section: "trace",
        msg: "`rate` = -1 is out of range: it must be finite and at least 0",
        on_run: false,
    },
    Edit {
        name: "zero_k",
        spec: ELASTIC,
        find: "k = 5",
        with: "k = 0",
        at: "k =",
        section: "service",
        msg: "`k` = 0 is out of range: it must be at least 1",
        on_run: false,
    },
    Edit {
        name: "split_outside_unit_interval",
        spec: IRIS,
        find: "split = 0.7",
        with: "split = 1.5",
        at: "split =",
        section: "service",
        msg: "`split` = 1.5 is out of range: it must be in (0, 1)",
        on_run: false,
    },
    Edit {
        name: "empty_blob_data",
        spec: ELASTIC,
        find: "n = 400",
        with: "n = 0",
        at: "n =",
        section: "service",
        msg: "`n` = 0 is out of range: it must be at least 1",
        on_run: false,
    },
    Edit {
        name: "kmeans_k_beyond_training_rows",
        spec: IRIS,
        find: "kind = knn\nk = 5",
        with: "kind = kmeans_assign\nk = 500",
        at: "[service]",
        section: "service",
        msg: "kmeans_assign needs k ≤ training rows",
        on_run: true,
    },
    Edit {
        name: "ensemble_with_no_hidden_units",
        spec: IRIS,
        find: "kind = knn",
        with: "kind = ensemble\nhidden = 0",
        at: "hidden",
        section: "service",
        msg: "`hidden` = 0 is out of range: it must be at least 1",
        on_run: false,
    },
    Edit {
        name: "second_shard_section",
        spec: ELASTIC,
        find: "[backoff]",
        with: "[shard]\nvnodes = 8\n\n[backoff]",
        at: "[shard]",
        section: "shard",
        msg: "duplicate `[shard]` section",
        on_run: false,
    },
    Edit {
        name: "serve_under_the_sharded_tier",
        spec: ELASTIC,
        find: "[backoff]",
        with: "[serve]\nworkers = 0\n\n[backoff]",
        at: "[serve]",
        section: "serve",
        msg: "`[serve]` shapes the fixed pool, but service `knn_sharded` runs on the sharded tier",
        on_run: false,
    },
    Edit {
        name: "shard_under_the_pool",
        spec: IRIS,
        find: "[trace]",
        with: "[shard]\nnum_shards = 4\n\n[trace]",
        at: "[shard]",
        section: "shard",
        msg: "`[shard]` shapes the sharded tier, but service `knn` runs on the fixed pool",
        on_run: false,
    },
    Edit {
        name: "backoff_under_the_pool",
        spec: IRIS,
        find: "[trace]",
        with: "[backoff]\nbase = 1\n\n[trace]",
        at: "[backoff]",
        section: "backoff",
        msg: "`[backoff]` shapes the sharded tier, but service `knn` runs on the fixed pool",
        on_run: false,
    },
    Edit {
        name: "fault_under_the_pool",
        spec: IRIS,
        find: "[trace]",
        with: "[fault]\nseed = 1\nkill = \"0 @ 1\"\n\n[trace]",
        at: "[fault]",
        section: "fault",
        msg: "`[fault]` shapes the sharded tier, but service `knn` runs on the fixed pool",
        on_run: false,
    },
];

/// The row's line, section, message and hint checks.
fn check(
    name: &str,
    err: &SpecError,
    line: Option<usize>,
    section: &str,
    hint: Option<&str>,
    msg: &str,
) {
    assert_eq!(err.section, section, "{name}: section ({err})");
    assert!(
        err.message.contains(msg),
        "{name}: message `{}` missing `{msg}`",
        err.message
    );
    if let Some(line) = line {
        assert_eq!(err.line, line, "{name}: line ({err})");
    }
    if let Some(hint) = hint {
        assert_eq!(err.hint.as_deref(), Some(hint), "{name}: hint ({err})");
    }
}

#[test]
fn every_malformed_spec_reports_line_section_and_hint() {
    assert!(CASES.len() >= 15, "the table must stay substantial");
    for case in CASES {
        let err = match parse_scenario(case.text) {
            Err(e) => e,
            Ok(_) => panic!("{}: expected a parse error, got Ok", case.name),
        };
        check(
            case.name,
            &err,
            case.line,
            case.section,
            case.hint,
            case.msg,
        );
    }
}

#[test]
fn every_bad_value_in_a_committed_spec_is_a_spec_error() {
    let specs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    for edit in EDITS {
        let committed = std::fs::read_to_string(specs.join(edit.spec)).expect("committed spec");
        assert!(
            committed.contains(edit.find),
            "{}: `{}` not in {}",
            edit.name,
            edit.find,
            edit.spec
        );
        let text = committed.replacen(edit.find, edit.with, 1);
        let line = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.starts_with(edit.at))
            .map(|(i, _)| i + 1)
            .last()
            .expect("the edited spec has the line");
        let err = match Runner::from_str(&text) {
            Err(e) => {
                assert!(!edit.on_run, "{}: must parse ({e})", edit.name);
                e
            }
            Ok(runner) => {
                assert!(edit.on_run, "{}: expected a parse error, got Ok", edit.name);
                match runner.run(&RunOptions::default()) {
                    Err(e) => e,
                    Ok(_) => panic!("{}: expected a run error, got Ok", edit.name),
                }
            }
        };
        check(edit.name, &err, Some(line), edit.section, None, edit.msg);
    }
}

#[test]
fn errors_render_with_position_and_hint() {
    let err = parse_scenario("[scenario]\nname = x\n[sinnk]\nfrom = a\n").unwrap_err();
    let shown = err.to_string();
    assert!(shown.contains("line 3"), "{shown}");
    assert!(shown.contains("[sinnk]"), "{shown}");
    assert!(shown.contains("did you mean `sink`"), "{shown}");
}
