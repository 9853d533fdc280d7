//! The malformed-spec table: every parse or validation failure must
//! name the line, the section, and — when a name is merely misspelled —
//! a `did you mean` hint. One row per way a `.peachy` file can go
//! wrong; the satellite law for the scenario layer's error quality.

use peachy_spec::parse_scenario;

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
        name: "key_before_any_section",
        text: "name = x\n[scenario]\n",
        line: Some(1),
        section: "",
        hint: None,
        msg: "before any [section]",
    },
];

#[test]
fn every_malformed_spec_reports_line_section_and_hint() {
    assert!(CASES.len() >= 15, "the table must stay substantial");
    for case in CASES {
        let err = match parse_scenario(case.text) {
            Err(e) => e,
            Ok(_) => panic!("{}: expected a parse error, got Ok", case.name),
        };
        assert_eq!(err.section, case.section, "{}: section ({err})", case.name);
        assert!(
            err.message.contains(case.msg),
            "{}: message `{}` missing `{}`",
            case.name,
            err.message,
            case.msg
        );
        if let Some(line) = case.line {
            assert_eq!(err.line, line, "{}: line ({err})", case.name);
        }
        if let Some(hint) = case.hint {
            assert_eq!(
                err.hint.as_deref(),
                Some(hint),
                "{}: hint ({err})",
                case.name
            );
        }
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
