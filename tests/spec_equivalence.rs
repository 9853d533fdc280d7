//! Spec ↔ Rust equivalence (the scenario-layer tentpole law).
//!
//! The three committed `.peachy` scenarios must be *bit-identical* to
//! their hand-written Rust twins — output rows and the backend-invariant
//! shuffle counters (records, shuffles, elided, spills) — on every
//! backend. Plus the satellite laws: a chaotic spec run equals the
//! clean one under fixed seeds (including a `PEACHY_CHAOS_SEED`-style
//! reseed), and a spill-budgeted spec run spills yet answers the same.

use std::path::PathBuf;

use peachy::city::{arrests_per_100k_with, CityTables, NtaRate};
use peachy::cluster::Executor;
use peachy::data::geo::{CityConfig, SyntheticCity};
use peachy::data::iris::iris;
use peachy::data::split::train_test_split;
use peachy::dataflow::OptimizerConfig;
use peachy::knn::classify_batch_seq;
use peachy::spec::{Counters, RunOptions, Runner, ScenarioReport, Value};

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

/// The city the committed `city_rates.peachy` declares: 4×4 grid, 8 000
/// arrests, seed 99, everything else default.
fn small_city_tables() -> CityTables {
    let config = CityConfig {
        grid_w: 4,
        grid_h: 4,
        arrests: 8_000,
        ..CityConfig::default()
    };
    let city = SyntheticCity::generate(config, 99);
    CityTables::from_city(&city, config.current_year)
}

/// One spec row rendered as an [`NtaRate`] for field-wise comparison.
fn as_rate(row: &[Value]) -> NtaRate {
    let Value::Str(code) = &row[0] else {
        panic!("code column")
    };
    let (Value::Int(arrests), Value::Int(population)) = (&row[1], &row[2]) else {
        panic!("count columns")
    };
    let Value::Float(per_100k) = row[3] else {
        panic!("rate column")
    };
    NtaRate {
        code: code.clone(),
        arrests: *arrests as u64,
        population: *population as u64,
        per_100k,
    }
}

fn backends() -> Vec<Executor> {
    vec![Executor::seq(), Executor::rayon(4), Executor::cluster(4)]
}

#[test]
fn city_spec_matches_the_rust_twin_on_every_backend() {
    let (twin_rows, twin_stats) =
        arrests_per_100k_with(&small_city_tables(), 4, OptimizerConfig::default());
    let twin_counters = (
        twin_stats.records(),
        twin_stats.shuffles(),
        twin_stats.shuffles_elided(),
        twin_stats.spills(),
    );
    assert!(!twin_rows.is_empty(), "the twin must produce rates");

    let runner = Runner::from_file(specs_dir().join("city_rates.peachy")).expect("spec parses");
    let mut peaks = Vec::new();
    for exec in backends() {
        let label = format!("{exec:?}");
        let report = runner.run(&RunOptions::on(exec)).expect("spec runs");
        assert_eq!(
            report.columns,
            vec!["code", "arrests", "population", "per_100k"],
            "{label}"
        );
        assert_eq!(report.rows.len(), twin_rows.len(), "{label}");
        for (spec_row, twin) in report.rows.iter().zip(&twin_rows) {
            let spec = as_rate(spec_row);
            assert_eq!(spec.code, twin.code, "{label}");
            assert_eq!(spec.arrests, twin.arrests, "{label}");
            assert_eq!(spec.population, twin.population, "{label}");
            assert_eq!(
                spec.per_100k.to_bits(),
                twin.per_100k.to_bits(),
                "{label}: per_100k must be bit-identical ({} vs {})",
                spec.per_100k,
                twin.per_100k
            );
        }
        let c = &report.counters;
        assert_eq!(
            (c.records, c.shuffles, c.shuffles_elided, c.spills),
            twin_counters,
            "{label}: shuffle-family counters must match the twin"
        );
        peaks.push(c.peak_resident_bytes);
    }
    // Like `bytes`, the high-water meter is measured over the encoded row
    // representation (Value rows here, typed rows in the twin), so it is
    // pinned spec ≡ spec: deterministic and identical on every backend.
    assert!(
        peaks[0] > 0,
        "materializing the tables must charge the meter"
    );
    assert!(
        peaks.iter().all(|&p| p == peaks[0]),
        "peak_resident_bytes must be backend-invariant: {peaks:?}"
    );
}

#[test]
fn iris_spec_answers_match_the_reference_classifier() {
    let tt = train_test_split(&iris(), 0.7, 2023);
    let reference = classify_batch_seq(&tt.train, &tt.test, 5);

    let runner = Runner::from_file(specs_dir().join("iris_knn.peachy")).expect("spec parses");
    for exec in backends() {
        let label = format!("{exec:?}");
        let report = runner.run(&RunOptions::on(exec)).expect("spec runs");
        assert_eq!(report.rows.len(), reference.len(), "{label}");
        for (row, want) in report.rows.iter().zip(&reference) {
            assert_eq!(
                row[1],
                Value::Int(*want as i64),
                "{label}: answers must match"
            );
        }
        let serve = report.serve.expect("service scenarios carry the ledger");
        assert_eq!(serve.completed as usize, reference.len(), "{label}");
        assert_eq!(serve.failed, 0, "{label}");
    }
}

#[test]
fn elastic_spec_is_backend_invariant_under_scripted_chaos() {
    let runner = Runner::from_file(specs_dir().join("elastic_knn.peachy")).expect("spec parses");
    let seq = runner.run(&RunOptions::default()).expect("seq run");
    assert!(!seq.rows.is_empty(), "the trace must produce responses");
    assert!(
        seq.rows.iter().all(|r| matches!(r[1], Value::Int(_))),
        "replay must keep every answer clean"
    );
    let seq_serve = seq.serve.clone().expect("ledger");
    assert!(seq_serve.epochs > 0, "scripted scaling must reshard");

    let cluster = runner
        .run(&RunOptions::on(Executor::cluster(4)))
        .expect("cluster run");
    assert_eq!(
        cluster.rows, seq.rows,
        "answers must not depend on the backend"
    );
}

/// The committed city spec with its `golden =` line dropped (in-memory
/// variants resolve goldens against the cwd, which differs per backend)
/// and `extra` spliced into `[run]`.
fn city_text(extra: &str) -> String {
    let text = std::fs::read_to_string(specs_dir().join("city_rates.peachy")).expect("spec file");
    let text: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("golden"))
        .map(|l| format!("{l}\n"))
        .collect();
    text.replace("[run]\n", &format!("[run]\n{extra}"))
}

#[test]
fn chaotic_pipeline_run_is_bit_identical_to_clean() {
    let chaotic_text = format!(
        "{}\n[fault]\nseed = 7\ndrop_p = 0.05\ndup_p = 0.10\nreorder_p = 0.10\n",
        city_text("")
    );
    let runner = Runner::from_str(&chaotic_text).expect("spec parses");

    let clean = runner
        .run(&RunOptions {
            executor: Executor::cluster(4),
            chaos_seed: None,
            apply_fault: false,
        })
        .expect("clean run");
    let chaotic = runner
        .run(&RunOptions {
            executor: Executor::cluster(4),
            chaos_seed: None,
            apply_fault: true,
        })
        .expect("chaotic run");
    assert_eq!(chaotic.rows, clean.rows, "chaos must not change the answer");

    // The PEACHY_CHAOS_SEED convention: any reseed, same rows.
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let reseeded = runner
            .run(&RunOptions {
                executor: Executor::cluster(4),
                chaos_seed: Some(seed),
                apply_fault: true,
            })
            .expect("reseeded run");
        assert_eq!(
            reseeded.rows, clean.rows,
            "seed {seed} must not change the answer"
        );
    }
}

#[test]
fn spill_budgeted_spec_spills_yet_answers_the_same() {
    let free = Runner::from_str(&city_text(""))
        .expect("spec parses")
        .run(&RunOptions::default())
        .expect("unbudgeted run");
    assert_eq!(free.counters.spills, 0, "no budget, no spills");

    let budgeted = Runner::from_str(&city_text("spill_budget = 1\n"))
        .expect("spec parses")
        .run(&RunOptions::default())
        .expect("budgeted run");
    assert!(budgeted.counters.spills > 0, "a 1-byte budget must spill");
    assert!(budgeted.counters.spill_bytes > 0);
    assert_eq!(
        budgeted.rows, free.rows,
        "spilling must not change the answer"
    );
    // Streaming consumption (the default) keeps the budgeted run's
    // high-water mark at or below the mem-mode run: spilled partitions are
    // decoded row-by-row, never rebuilt whole.
    assert!(budgeted.counters.peak_resident_bytes > 0);
    assert!(
        budgeted.counters.peak_resident_bytes <= free.counters.peak_resident_bytes,
        "budgeted peak {} must not exceed mem-mode peak {}",
        budgeted.counters.peak_resident_bytes,
        free.counters.peak_resident_bytes
    );
}

#[test]
fn explain_rides_any_spec_run() {
    let report: ScenarioReport =
        Runner::from_str(&format!("{}[report]\nexplain = true\n", city_text("")))
            .expect("spec parses")
            .run(&RunOptions::default())
            .expect("run");
    let explain = report.explain.expect("explain requested");
    assert!(explain.contains("optimized plan"), "{explain}");
}

#[test]
fn counters_are_cheap_to_snapshot() {
    // A regression guard on the report shape the bench harness consumes.
    let report = Runner::from_str(&city_text(""))
        .expect("spec parses")
        .run(&RunOptions::default())
        .expect("run");
    let c: Counters = report.counters.clone();
    assert_eq!(c, report.counters);
    assert!(c.shuffles > 0);
}
