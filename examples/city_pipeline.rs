//! §4 — the data-science pipeline (experiment E5, Figure 2).
//!
//! Generates a synthetic city (the NYC-open-data substitute), then runs the
//! three analysis questions of the exemplar student project, ending with
//! the arrests-per-100k heat map of Figure 2.
//!
//! ```sh
//! cargo run --release --example city_pipeline
//! ```

use peachy::city::{
    arrests_per_100k, heat_map_ascii, hotspot_growth, hotspot_growth_with, hotspot_plan,
    offenses_by_year, CityTables,
};
use peachy::data::geo::{CityConfig, SyntheticCity};
use peachy::dataflow::OptimizerConfig;

fn main() {
    let config = CityConfig {
        grid_w: 8,
        grid_h: 8,
        arrests: 200_000,
        ..CityConfig::default()
    };
    println!("=== E5 (Figure 2): NYC-style arrests pipeline ===");
    println!(
        "city: {}×{} NTAs, {} arrest records ({}% dirty), current year {}\n",
        config.grid_w,
        config.grid_h,
        config.arrests,
        config.dirty_frac * 100.0,
        config.current_year
    );
    let city = SyntheticCity::generate(config, 2023);
    let tables = CityTables::from_city(&city, config.current_year);

    // Analysis 1: arrests per 100k per NTA (the Figure-2 question).
    let (rates, stats) = arrests_per_100k(&tables, 8);
    println!("-- analysis 1: arrests per 100 000 citizens per NTA (top 10) --");
    println!(
        "{:>8} {:>9} {:>12} {:>12}",
        "NTA", "arrests", "population", "per 100k"
    );
    for r in rates.iter().take(10) {
        println!(
            "{:>8} {:>9} {:>12} {:>12.1}",
            r.code, r.arrests, r.population, r.per_100k
        );
    }
    println!(
        "\npipeline shuffled {} records across {} shuffles (map-side combining on)",
        stats.records(),
        stats.shuffles()
    );

    println!("\nheat map (darker = more arrests per 100k):");
    println!("{}", heat_map_ascii(&rates, config.grid_w, config.grid_h));

    // Analysis 2: offense mix per year.
    let mix = offenses_by_year(&tables, 8);
    let years: std::collections::BTreeSet<u32> = mix.iter().map(|((y, _), _)| *y).collect();
    println!("-- analysis 2: offense mix per year --");
    print!("{:>10}", "year");
    for off in peachy::data::geo::OFFENSES {
        print!("{off:>11}");
    }
    println!();
    for year in years {
        print!("{year:>10}");
        for off in peachy::data::geo::OFFENSES {
            let count = mix
                .iter()
                .find(|((y, o), _)| *y == year && o == off)
                .map(|(_, c)| *c)
                .unwrap_or(0);
            print!("{count:>11}");
        }
        println!();
    }

    // Analysis 3: hotspot growth.
    let growth = hotspot_growth(&tables, config.historic_years, 8);
    println!("\n-- analysis 3: fastest-growing NTAs (current vs historic yearly mean) --");
    println!(
        "{:>8} {:>9} {:>14} {:>8}",
        "NTA", "current", "historic/year", "ratio"
    );
    for (code, cur, per_year) in growth.iter().take(8) {
        println!(
            "{:>8} {:>9} {:>14.1} {:>8.2}",
            code,
            cur,
            per_year,
            *cur as f64 / per_year.max(1e-9)
        );
    }

    // The optimizer's view of analysis 3: both join inputs are already
    // hash-partitioned count_by_key outputs, so the optimized plan elides
    // the join shuffle and the narrow parse chain fuses.
    println!("\n-- plan optimizer: analysis 3, naive vs optimized --");
    println!("{}", hotspot_plan(&tables, 8));
    let (_, naive_stats) =
        hotspot_growth_with(&tables, config.historic_years, 8, OptimizerConfig::naive());
    let (_, opt_stats) = hotspot_growth_with(
        &tables,
        config.historic_years,
        8,
        OptimizerConfig::default(),
    );
    println!(
        "measured: {} -> {} shuffle bytes, {} -> {} shuffles ({} elided)",
        naive_stats.bytes(),
        opt_stats.bytes(),
        naive_stats.shuffles(),
        opt_stats.shuffles(),
        opt_stats.shuffles_elided(),
    );

    // Verify against generator ground truth.
    let mut ok = true;
    for (idx, nta) in city.ntas.iter().enumerate() {
        let truth = city.truth_current_counts[idx];
        let got = rates
            .iter()
            .find(|r| r.code == nta.code)
            .map(|r| r.arrests)
            .unwrap_or(0);
        if truth != got {
            ok = false;
        }
    }
    println!("\nground-truth check: pipeline counts match generator? {ok}");
}
