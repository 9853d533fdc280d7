//! The §4 exemplar pipeline: arrests per 100 000 citizens per
//! neighbourhood (Figure 2), plus two further analysis questions, built on
//! the [`peachy_dataflow`] engine over the synthetic city of
//! [`peachy_data::geo`].
//!
//! The pipeline mirrors the student submission the paper describes:
//! four CSV datasets (historic arrests, current-year arrests, NTA
//! boundaries, NTA population) are ingested as text, cleaned, spatially
//! joined (point-in-polygon), aggregated per NTA, joined with population,
//! and rendered as a heat map.

use std::sync::Arc;

use peachy_data::geo::{locate, Nta, Point, Polygon, SyntheticCity};
use peachy_dataflow::{
    ByteSized, Dataset, KeyedDataset, OptimizerConfig, ShuffleStats, SpillReader, SpillRow,
};

/// A cleaned arrest event: year plus a validated city coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanArrest {
    /// Calendar year.
    pub year: u32,
    /// Offense category.
    pub offense: String,
    /// Validated location.
    pub at: Point,
}

impl ByteSized for CleanArrest {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<u32>() + self.offense.len() + 2 * std::mem::size_of::<f64>()
    }
}

impl SpillRow for CleanArrest {
    // `Point` belongs to `peachy_data`, which does not know about spilling,
    // so its two coordinates are encoded inline here.
    fn spill_encode(&self, out: &mut Vec<u8>) {
        self.year.spill_encode(out);
        self.offense.spill_encode(out);
        self.at.x.spill_encode(out);
        self.at.y.spill_encode(out);
    }
    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        CleanArrest {
            year: u32::spill_decode(r),
            offense: String::spill_decode(r),
            at: Point {
                x: f64::spill_decode(r),
                y: f64::spill_decode(r),
            },
        }
    }
}

/// Result row of the Figure-2 analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct NtaRate {
    /// NTA code.
    pub code: String,
    /// Arrests counted in the NTA (current year).
    pub arrests: u64,
    /// Residents.
    pub population: u64,
    /// Arrests per 100 000 citizens.
    pub per_100k: f64,
}

impl ByteSized for NtaRate {
    fn approx_bytes(&self) -> usize {
        self.code.len() + 2 * std::mem::size_of::<u64>() + std::mem::size_of::<f64>()
    }
}

impl SpillRow for NtaRate {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        self.code.spill_encode(out);
        self.arrests.spill_encode(out);
        self.population.spill_encode(out);
        self.per_100k.spill_encode(out);
    }
    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        NtaRate {
            code: String::spill_decode(r),
            arrests: u64::spill_decode(r),
            population: u64::spill_decode(r),
            per_100k: f64::spill_decode(r),
        }
    }
}

/// Parse one arrests CSV line (`id,year,offense,x,y`); dirty rows (missing
/// fields, unparsable numbers) yield `None` — the cleaning stage.
pub fn parse_arrest(line: &str) -> Option<CleanArrest> {
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
    Some(CleanArrest {
        year,
        offense: fields[2].trim().to_string(),
        at: Point { x, y },
    })
}

/// Parse the boundaries CSV (`code,name,x0,y0,x1,y1,…`) back into NTAs.
pub fn parse_boundaries(text: &str) -> Vec<Nta> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            assert!(
                fields.len() >= 8 && fields.len().is_multiple_of(2),
                "bad boundary row: {line}"
            );
            let vertices = fields[2..]
                .chunks_exact(2)
                .map(|xy| Point {
                    x: xy[0].trim().parse().expect("boundary x"),
                    y: xy[1].trim().parse().expect("boundary y"),
                })
                .collect();
            Nta {
                code: fields[0].trim().to_string(),
                name: fields[1].trim().to_string(),
                boundary: Polygon::new(vertices),
            }
        })
        .collect()
}

/// Parse the population CSV (`code,population`).
pub fn parse_population(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let (code, pop) = line.split_once(',').expect("population row");
            (
                code.trim().to_string(),
                pop.trim().parse().expect("population count"),
            )
        })
        .collect()
}

/// The ingested pipeline inputs, as raw CSV text (exactly what the course's
/// students download).
pub struct CityTables {
    /// Historic arrests CSV.
    pub arrests_historic: String,
    /// Current-year arrests CSV.
    pub arrests_current: String,
    /// NTA boundary CSV.
    pub boundaries: String,
    /// NTA population CSV.
    pub population: String,
    /// The year the "current" table covers.
    pub current_year: u32,
}

impl CityTables {
    /// Render a generated city into its four CSV tables.
    pub fn from_city(city: &SyntheticCity, current_year: u32) -> Self {
        Self {
            arrests_historic: SyntheticCity::arrests_csv(&city.arrests_historic),
            arrests_current: SyntheticCity::arrests_csv(&city.arrests_current),
            boundaries: city.boundaries_csv(),
            population: city.population_csv(),
            current_year,
        }
    }
}

/// Analysis 1 (Figure 2): arrests per 100 000 citizens per NTA, current
/// year. Returns rows sorted by descending rate, plus shuffle statistics.
pub fn arrests_per_100k(
    tables: &CityTables,
    partitions: usize,
) -> (Vec<NtaRate>, Arc<ShuffleStats>) {
    arrests_per_100k_with(tables, partitions, OptimizerConfig::default())
}

/// [`arrests_per_100k`] under an explicit [`OptimizerConfig`] — the
/// ablation knob for the E18 optimizer experiment (naive vs optimized on
/// the same tables).
pub fn arrests_per_100k_with(
    tables: &CityTables,
    partitions: usize,
    cfg: OptimizerConfig,
) -> (Vec<NtaRate>, Arc<ShuffleStats>) {
    per_100k(tables, partitions, cfg, false)
}

/// Analysis 1, improved plan: same question as [`arrests_per_100k`] but
/// joining population with a **broadcast hash join** — the population
/// table is tiny (one row per NTA), so shipping it to every partition
/// avoids shuffling the aggregated counts at all. The "improve the
/// pipeline" exercise of the assignment, as an executable ablation.
pub fn arrests_per_100k_broadcast(
    tables: &CityTables,
    partitions: usize,
) -> (Vec<NtaRate>, Arc<ShuffleStats>) {
    per_100k(tables, partitions, OptimizerConfig::default(), true)
}

/// Analysis 1 under either plan. The two differ only in the population
/// join: a shuffle join against `partitions` partitions, or (`broadcast`)
/// a broadcast join against one.
fn per_100k(
    tables: &CityTables,
    partitions: usize,
    cfg: OptimizerConfig,
    broadcast: bool,
) -> (Vec<NtaRate>, Arc<ShuffleStats>) {
    let stats = ShuffleStats::new();
    let ntas = Arc::new(parse_boundaries(&tables.boundaries));

    // Ingest + clean: current-year arrests only, valid coordinates only.
    let current_year = tables.current_year;
    let arrests = Dataset::from_text(&tables.arrests_current, partitions)
        .with_optimizer(cfg)
        .flat_map(|line| parse_arrest(&line))
        .filter(move |a| a.year == current_year);

    // Spatial join: point-in-polygon lookup against the NTA polygons.
    let located = arrests.flat_map(move |a| locate(&ntas, a.at).map(|idx| ntas[idx].code.clone()));

    // Aggregate: arrests per NTA code.
    let counts = located
        .key_by(|code| code.clone())
        .with_stats(Arc::clone(&stats))
        .map_values(|_| 1u64)
        .reduce_by_key(|a, b| a + b);

    // Join with population and normalize per 100k.
    let population = KeyedDataset::from_dataset(Dataset::from_vec(
        parse_population(&tables.population),
        if broadcast { 1 } else { partitions },
    ));
    let joined = if broadcast {
        counts.broadcast_join(&population)
    } else {
        counts.join(&population)
    };
    let mut rows: Vec<NtaRate> = joined
        .collect()
        .into_iter()
        .map(|(code, (arrests, population))| NtaRate {
            code,
            arrests,
            population,
            per_100k: arrests as f64 * 100_000.0 / population as f64,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.per_100k
            .partial_cmp(&a.per_100k)
            .expect("finite")
            .then(a.code.cmp(&b.code))
    });
    (rows, stats)
}

/// Analysis 2: offense mix per year across both arrest tables — a
/// union + multi-key aggregation.
pub fn offenses_by_year(tables: &CityTables, partitions: usize) -> Vec<((u32, String), u64)> {
    let historic = Dataset::from_text(&tables.arrests_historic, partitions);
    let current = Dataset::from_text(&tables.arrests_current, partitions);
    let mut rows = historic
        .union_with(&current)
        .flat_map(|line| parse_arrest(&line))
        .key_by(|a| (a.year, a.offense.clone()))
        .count_by_key()
        .collect();
    rows.sort();
    rows
}

/// Analysis 3: each NTA's share of current-year arrests relative to its
/// historic yearly average — "which neighbourhoods are getting worse?".
/// Returns `(code, current, historic_per_year)` sorted by growth.
pub fn hotspot_growth(
    tables: &CityTables,
    historic_years: u32,
    partitions: usize,
) -> Vec<(String, u64, f64)> {
    hotspot_growth_with(
        tables,
        historic_years,
        partitions,
        OptimizerConfig::default(),
    )
    .0
}

/// [`hotspot_growth`] under an explicit [`OptimizerConfig`], with shuffle
/// statistics. Both join sides are `count_by_key` outputs over the same
/// partition count, so the optimizer elides the join shuffle entirely —
/// the flagship elision site of the E18 experiment.
pub fn hotspot_growth_with(
    tables: &CityTables,
    historic_years: u32,
    partitions: usize,
    cfg: OptimizerConfig,
) -> (Vec<(String, u64, f64)>, Arc<ShuffleStats>) {
    let ntas = Arc::new(parse_boundaries(&tables.boundaries));
    let stats = ShuffleStats::new();
    let locate_codes = |text: &str| {
        let ntas = Arc::clone(&ntas);
        Dataset::from_text(text, partitions)
            .with_optimizer(cfg)
            .flat_map(|line| parse_arrest(&line))
            .flat_map(move |a| locate(&ntas, a.at).map(|idx| ntas[idx].code.clone()))
            .key_by(|code| code.clone())
            .with_stats(Arc::clone(&stats))
            .count_by_key()
    };
    let current = locate_codes(&tables.arrests_current);
    let historic = locate_codes(&tables.arrests_historic);
    let mut rows: Vec<(String, u64, f64)> = current
        .left_join(&historic)
        .collect()
        .into_iter()
        .map(|(code, (cur, hist))| {
            let per_year = hist.unwrap_or(0) as f64 / historic_years as f64;
            (code, cur, per_year)
        })
        .collect();
    rows.sort_by(|a, b| {
        let ga = a.1 as f64 / a.2.max(1e-9);
        let gb = b.1 as f64 / b.2.max(1e-9);
        gb.partial_cmp(&ga).expect("finite").then(a.0.cmp(&b.0))
    });
    (rows, stats)
}

/// The optimizer's rendering of the hotspot-growth plan: the naive and
/// optimized lineage side by side, with predicted shuffle bytes — the
/// `explain_plans()` surface of the dataflow engine applied to the §4
/// pipeline. Both join inputs are `count_by_key` outputs over the same
/// partition count, so the optimized plan elides the join boundary.
pub fn hotspot_plan(tables: &CityTables, partitions: usize) -> peachy_dataflow::PlanReport {
    let ntas = Arc::new(parse_boundaries(&tables.boundaries));
    let locate_codes = |text: &str| {
        let ntas = Arc::clone(&ntas);
        Dataset::from_text(text, partitions)
            .flat_map(|line| parse_arrest(&line))
            .flat_map(move |a| locate(&ntas, a.at).map(|idx| ntas[idx].code.clone()))
            .key_by(|code| code.clone())
            .count_by_key()
    };
    let current = locate_codes(&tables.arrests_current);
    let historic = locate_codes(&tables.arrests_historic);
    current.left_join(&historic).explain_plans()
}

/// Render the Figure-2 heat map as ASCII: one cell per NTA in grid layout,
/// shaded by arrests-per-100k quintile.
pub fn heat_map_ascii(rates: &[NtaRate], grid_w: usize, grid_h: usize) -> String {
    const SHADES: [char; 5] = ['.', ':', 'o', 'O', '@'];
    let mut by_code: std::collections::HashMap<&str, f64> = std::collections::HashMap::new();
    for r in rates {
        by_code.insert(&r.code, r.per_100k);
    }
    let max = rates
        .iter()
        .map(|r| r.per_100k)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let mut out = String::new();
    for gy in (0..grid_h).rev() {
        for gx in 0..grid_w {
            let code = format!("NTA{:03}", gy * grid_w + gx);
            let shade = match by_code.get(code.as_str()) {
                Some(&rate) => {
                    let level = ((rate / max) * (SHADES.len() as f64 - 1.0)).round() as usize;
                    SHADES[level.min(SHADES.len() - 1)]
                }
                None => ' ',
            };
            out.push(shade);
            out.push(shade); // double width for roughly square cells
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use peachy_data::geo::CityConfig;

    fn small_city() -> (SyntheticCity, CityTables) {
        let config = CityConfig {
            grid_w: 4,
            grid_h: 4,
            arrests: 8_000,
            ..CityConfig::default()
        };
        let city = SyntheticCity::generate(config, 99);
        let tables = CityTables::from_city(&city, config.current_year);
        (city, tables)
    }

    #[test]
    fn parse_arrest_cleans_dirty_rows() {
        assert!(parse_arrest("1,2021,fraud,1.5,2.5").is_some());
        assert!(parse_arrest("1,2021,fraud,,2.5").is_none(), "missing x");
        assert!(parse_arrest("1,2021,fraud,1.5,").is_none(), "missing y");
        assert!(parse_arrest("1,zzz,fraud,1.5,2.5").is_none(), "bad year");
        assert!(parse_arrest("1,2021,fraud,NaN,2.5").is_none(), "NaN coord");
        assert!(parse_arrest("not a csv row").is_none());
    }

    #[test]
    fn boundaries_roundtrip() {
        let (city, tables) = small_city();
        let parsed = parse_boundaries(&tables.boundaries);
        assert_eq!(parsed, city.ntas);
    }

    #[test]
    fn population_roundtrip() {
        let (city, tables) = small_city();
        assert_eq!(parse_population(&tables.population), city.population);
    }

    #[test]
    fn figure2_counts_match_ground_truth() {
        let (city, tables) = small_city();
        let (rows, _) = arrests_per_100k(&tables, 4);
        // Every NTA with ≥1 arrest appears, with exactly the ground-truth count.
        for (idx, nta) in city.ntas.iter().enumerate() {
            let truth = city.truth_current_counts[idx];
            let found = rows.iter().find(|r| r.code == nta.code);
            match found {
                Some(r) => {
                    assert_eq!(r.arrests, truth, "NTA {}", nta.code);
                    let pop = city.population[idx].1;
                    assert_eq!(r.population, pop);
                    assert!((r.per_100k - truth as f64 * 100_000.0 / pop as f64).abs() < 1e-9);
                }
                None => assert_eq!(truth, 0, "NTA {} missing from output", nta.code),
            }
        }
    }

    #[test]
    fn figure2_sorted_by_rate() {
        let (_, tables) = small_city();
        let (rows, _) = arrests_per_100k(&tables, 4);
        for w in rows.windows(2) {
            assert!(w[0].per_100k >= w[1].per_100k);
        }
    }

    #[test]
    fn figure2_partition_count_does_not_change_answer() {
        let (_, tables) = small_city();
        let (a, _) = arrests_per_100k(&tables, 1);
        let (b, _) = arrests_per_100k(&tables, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn broadcast_plan_same_answer_fewer_shuffles() {
        let (_, tables) = small_city();
        let (shuffle_rows, shuffle_stats) = arrests_per_100k(&tables, 4);
        let (bcast_rows, bcast_stats) = arrests_per_100k_broadcast(&tables, 4);
        assert_eq!(shuffle_rows, bcast_rows, "both plans must agree");
        // The shuffle plan pays for the join; the broadcast plan only pays
        // for the count aggregation.
        assert!(
            bcast_stats.records() <= shuffle_stats.records(),
            "broadcast {} vs shuffle {}",
            bcast_stats.records(),
            shuffle_stats.records()
        );
    }

    #[test]
    fn offense_mix_covers_all_years() {
        let (_, tables) = small_city();
        let rows = offenses_by_year(&tables, 4);
        let years: std::collections::HashSet<u32> = rows.iter().map(|((y, _), _)| *y).collect();
        assert!(years.contains(&2021), "current year present");
        assert!(years.len() >= 4, "historic years present: {years:?}");
        // Total counts match the number of clean arrests.
        let total: u64 = rows.iter().map(|(_, c)| *c).sum();
        let clean = Dataset::from_text(&tables.arrests_historic, 1)
            .flat_map(|l| parse_arrest(&l))
            .count()
            + Dataset::from_text(&tables.arrests_current, 1)
                .flat_map(|l| parse_arrest(&l))
                .count();
        assert_eq!(total as usize, clean);
    }

    #[test]
    fn hotspot_growth_has_all_active_ntas() {
        let (_, tables) = small_city();
        let rows = hotspot_growth(&tables, 4, 4);
        assert!(!rows.is_empty());
        for (_, cur, _) in &rows {
            assert!(*cur > 0);
        }
    }

    #[test]
    fn heat_map_dimensions() {
        let (_, tables) = small_city();
        let (rows, _) = arrests_per_100k(&tables, 2);
        let art = heat_map_ascii(&rows, 4, 4);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.chars().count() == 8));
        // The hottest NTA renders as '@'.
        assert!(art.contains('@'));
    }
}
