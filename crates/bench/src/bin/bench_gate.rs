//! Regression gate over two bench snapshots (the committed baseline and a
//! freshly emitted one):
//!
//! ```sh
//! cargo run --release -p peachy-bench --bin report_all -- --emit-bench fresh.json
//! cargo run --release -p peachy-bench --bin bench_gate -- fresh.json
//! ```
//!
//! With one argument the baseline is auto-discovered: the `BENCH_<N>.json`
//! with the highest `N` in the current directory, so cutting a new
//! baseline (`BENCH_8.json`, …) never requires touching CI. An explicit
//! two-argument form (`bench_gate BENCH_6.json fresh.json`) pins one.
//!
//! Two kinds of checks:
//!
//! * **Comm counters** (`rows`, `records`, `bytes`, `shuffles`, `elided`,
//!   and the input `seed`) must match the baseline **exactly** — the E18
//!   inputs are seeded and partition counts fixed, so any drift means the
//!   optimizer's routing or elision behaviour changed.
//! * **Peak residency** (`peak_resident_bytes`, the E22 streaming
//!   high-water mark) is a ceiling, not an identity: the current value
//!   may come in *under* the baseline (a streaming improvement) but never
//!   above it (a regression back toward rebuild-on-access).
//! * **Wall time** is machine-dependent, so the gate compares the
//!   *speedup* of each timed pair per scenario, not absolute nanoseconds:
//!   E18's naive ÷ optimized, E20's resident ÷ spilled and E22's
//!   `rebuilt_X` ÷ `streamed_X` medians. The current speedup may not fall
//!   below the baseline speedup by more than `BENCH_GATE_TIME_FACTOR`
//!   (default 2.0).
//!
//! The snapshot format is deliberately flat (one `"key": value` line per
//! metric) so this binary needs no JSON dependency.

use std::collections::{BTreeMap, BTreeSet};
use std::process::exit;

fn parse(path: &str) -> BTreeMap<String, u64> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("bench_gate: read {path}: {e}"));
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        // Non-numeric values (e.g. the schema tag) are not gated metrics.
        if let Ok(n) = value.trim().parse::<u64>() {
            map.insert(key.to_string(), n);
        }
    }
    map
}

/// The committed `BENCH_<N>.json` with the highest `N` in `dir`.
fn newest_baseline(dir: &str) -> Option<String> {
    let mut best: Option<(u64, String)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name().into_string().ok()?;
        let n: u64 = match name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|n| n.parse().ok())
        {
            Some(n) => n,
            None => continue,
        };
        if best.as_ref().is_none_or(|(b, _)| n > *b) {
            best = Some((n, name));
        }
    }
    best.map(|(_, name)| name)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (baseline_path, current_path) = match args.len() {
        2 => {
            let found = newest_baseline(".").unwrap_or_else(|| {
                eprintln!("bench_gate: no BENCH_<N>.json baseline in the current directory");
                exit(2);
            });
            println!("bench_gate: baseline {found}");
            (found, args[1].clone())
        }
        3 => (args[1].clone(), args[2].clone()),
        _ => {
            eprintln!("usage: bench_gate [<baseline.json>] <current.json>");
            exit(2);
        }
    };
    let baseline = parse(&baseline_path);
    let current = parse(&current_path);
    let factor: f64 = std::env::var("BENCH_GATE_TIME_FACTOR")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);
    let mut failures = 0;

    for (key, base) in &baseline {
        if key.ends_with(".median_ns") {
            continue; // absolute times are compared as speedups below
        }
        match current.get(key) {
            // The high-water meter gates one-sidedly: lower is a
            // streaming win, higher is a residency regression.
            Some(cur) if key.ends_with(".peak_resident_bytes") && cur <= base => {}
            Some(cur) if key.ends_with(".peak_resident_bytes") => {
                eprintln!("[!!] {key}: peak regressed above baseline ({base} → {cur})");
                failures += 1;
            }
            Some(cur) if cur == base => {}
            Some(cur) => {
                eprintln!("[!!] {key}: baseline {base}, current {cur}");
                failures += 1;
            }
            None => {
                eprintln!("[!!] {key}: missing from current snapshot");
                failures += 1;
            }
        }
    }

    let speedup =
        |map: &BTreeMap<String, u64>, (reference, gated): &(String, String)| -> Option<f64> {
            let reference = *map.get(&format!("{reference}.median_ns"))? as f64;
            let gated = *map.get(&format!("{gated}.median_ns"))? as f64;
            (gated > 0.0).then(|| reference / gated)
        };
    let pairs = timed_pairs(&baseline);
    for pair in &pairs {
        let (Some(base), Some(cur)) = (speedup(&baseline, pair), speedup(&current, pair)) else {
            eprintln!("[!!] {} ÷ {}: median_ns metrics incomplete", pair.0, pair.1);
            failures += 1;
            continue;
        };
        let ok = cur * factor >= base;
        println!(
            "[{}] {} ÷ {}: speedup {base:.2}x baseline, {cur:.2}x current (allowed drift {factor}x)",
            if ok { "ok" } else { "!!" },
            pair.0,
            pair.1,
        );
        if !ok {
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("\nbench_gate: {failures} check(s) failed");
        exit(1);
    }
    println!(
        "\nbench_gate: counters match, speedups within {factor}x across {} timed pair(s)",
        pairs.len()
    );
}

/// The `(reference, gated)` variants the gate times against each other,
/// one per reference variant in the baseline: `S.naive` ÷ `S.optimized`,
/// `S.resident` ÷ `S.spilled` and `S.rebuilt_X` ÷ `S.streamed_X`. A
/// scenario with `rebuilt_X` runs is E22's, whose `S.resident` run is a
/// reference beside the pairs rather than one side of a pair.
fn timed_pairs(baseline: &BTreeMap<String, u64>) -> Vec<(String, String)> {
    let streaming: BTreeSet<&str> = baseline
        .keys()
        .filter_map(|key| Some(key.split_once(".rebuilt_")?.0))
        .collect();
    baseline
        .keys()
        .filter_map(|key| {
            let reference = key.strip_suffix(".median_ns")?;
            let (scenario, variant) = reference.rsplit_once('.')?;
            let gated = match variant {
                "naive" => "optimized".to_string(),
                "resident" if !streaming.contains(scenario) => "spilled".to_string(),
                _ => format!("streamed_{}", variant.strip_prefix("rebuilt_")?),
            };
            Some((reference.to_string(), format!("{scenario}.{gated}")))
        })
        .collect()
}
