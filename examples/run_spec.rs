//! The `.peachy` scenario runner (experiment E21).
//!
//! Loads declarative scenario files, executes them on the chosen
//! backend, and prints the report: sink rows (or service responses),
//! the shuffle-counter ledger, the serve ledger, and — when the spec
//! asks — the optimizer's plan explanation.
//!
//! ```sh
//! cargo run --release --example run_spec -- specs/city_rates.peachy
//! cargo run --release --example run_spec -- --exec cluster:4 specs/*.peachy
//! cargo run --release --example run_spec -- --explain specs/city_rates.peachy
//! ```
//!
//! `--exec seq|rayon:N|cluster:N` picks the backend (default `seq`);
//! `--explain` forces plan explanation on; `PEACHY_CHAOS_SEED` reseeds
//! any `[fault]` section, the same convention the CI chaos jobs use.

use peachy::cluster::Executor;
use peachy::spec::{RunOptions, Runner, ScenarioReport};

fn main() {
    let mut exec = Executor::Seq;
    let mut explain = false;
    let mut files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exec" => {
                let value = args.next().unwrap_or_else(|| usage("--exec needs a value"));
                exec = value.parse().unwrap_or_else(|e: String| usage(&e));
            }
            "--explain" => explain = true,
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown flag `{other}`")),
            other => files.push(other.to_string()),
        }
    }
    if files.is_empty() {
        usage("no spec files given");
    }
    let chaos_seed = std::env::var("PEACHY_CHAOS_SEED").ok().map(|s| {
        s.parse()
            .unwrap_or_else(|_| usage("PEACHY_CHAOS_SEED must be a u64"))
    });

    let opts = RunOptions {
        executor: exec,
        chaos_seed,
        apply_fault: true,
    };
    let mut failed = false;
    for file in &files {
        println!("=== {file} ===");
        let report = Runner::from_file(file).and_then(|runner| {
            let runner = if explain {
                runner.with_explain()
            } else {
                runner
            };
            runner.run(&opts)
        });
        match report {
            Ok(report) => print_report(&report),
            Err(e) => {
                println!("{e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn print_report(report: &ScenarioReport) {
    println!("scenario: {}", report.name);
    if let Some(explain) = &report.explain {
        println!("{explain}");
    }
    let rendered = report.render_rows();
    let total = report.rows.len();
    for (i, line) in rendered.lines().enumerate() {
        if i > 20 {
            println!("... ({} rows total)", total);
            break;
        }
        println!("{line}");
    }
    let c = &report.counters;
    if c.shuffles + c.shuffles_elided > 0 {
        println!(
            "counters: {} records, {} shuffles ({} elided), {} spills ({} bytes out, {} back)",
            c.records, c.shuffles, c.shuffles_elided, c.spills, c.spill_bytes, c.unspill_bytes
        );
    }
    if let Some(s) = &report.serve {
        println!(
            "serve: {}/{} completed ({} rejected, {} failed), {} batches, {} replayed",
            s.completed, s.submitted, s.rejected, s.failed, s.batches, s.replayed
        );
        if s.epochs > 0 {
            println!(
                "elastic: {} epochs, {} shards moved, {} rebuilt, {} backoff ticks",
                s.epochs, s.shards_moved, s.shards_rebuilt, s.backoff_ticks
            );
        }
        if let (Some(p50), Some(p95), Some(p99)) = (s.p50, s.p95, s.p99) {
            println!("latency ticks: p50={p50} p95={p95} p99={p99}");
        }
    }
    println!();
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!("usage: run_spec [--exec seq|rayon:N|cluster:N] [--explain] <file.peachy>...");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
