//! A synthetic city: the stand-in for the NYC open-data sets of §4.
//!
//! The paper's exemplar pipeline joins four datasets published by
//! data.cityofnewyork.us — arrests (historic + current year), Neighborhood
//! Tabulation Area (NTA) boundaries, and NTA population — to produce a heat
//! map of arrests per 100 000 citizens per NTA. This module generates a
//! city with the same shape:
//!
//! * a grid of jittered polygonal **NTAs** that exactly tile the city
//!   rectangle (shared jittered vertices, so no gaps/overlaps),
//! * a **population** table keyed by NTA code,
//! * two **arrest** event tables (historic years + current year) drawn from
//!   a spatial mixture of hotspots over uniform background, with a
//!   controllable fraction of *dirty* records (missing or out-of-bounds
//!   coordinates) for the pipeline's cleaning stage,
//! * **ground truth** per-NTA arrest counts so the pipeline's output can be
//!   verified end-to-end.
//!
//! All tables can be rendered to CSV so the dataflow pipeline genuinely
//! starts from text ingestion like the real assignment.

use peachy_prng::{Bernoulli, Lcg64, Normal, RandomStream, UniformF64, UniformU64};

/// A 2-D point (city coordinates, arbitrary units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A simple (non-self-intersecting) polygon.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Create from at least three vertices.
    pub fn new(vertices: Vec<Point>) -> Self {
        assert!(vertices.len() >= 3, "a polygon needs at least 3 vertices");
        Self { vertices }
    }

    /// Borrow the vertex list.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Axis-aligned bounding box `(min, max)`.
    pub fn bbox(&self) -> (Point, Point) {
        let mut min = Point {
            x: f64::INFINITY,
            y: f64::INFINITY,
        };
        let mut max = Point {
            x: f64::NEG_INFINITY,
            y: f64::NEG_INFINITY,
        };
        for v in &self.vertices {
            min.x = min.x.min(v.x);
            min.y = min.y.min(v.y);
            max.x = max.x.max(v.x);
            max.y = max.y.max(v.y);
        }
        (min, max)
    }

    /// Point-in-polygon by ray casting (even–odd rule). Points exactly on
    /// an edge may land on either side; the city generator never places
    /// arrests exactly on shared edges, and the pipeline treats NTAs as a
    /// partition (first match wins).
    pub fn contains(&self, p: Point) -> bool {
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            if (vi.y > p.y) != (vj.y > p.y) {
                let x_cross = vj.x + (p.y - vj.y) / (vi.y - vj.y) * (vi.x - vj.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Signed area (shoelace formula); positive for counter-clockwise.
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            acc += a.x * b.y - b.x * a.y;
        }
        acc / 2.0
    }
}

/// One Neighborhood Tabulation Area: a code, a display name, a boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Nta {
    /// Short code, e.g. "NTA07".
    pub code: String,
    /// Display name, e.g. "District 07".
    pub name: String,
    /// Boundary polygon.
    pub boundary: Polygon,
}

/// One arrest event record, as ingested (pre-cleaning): coordinates may be
/// missing or out of bounds for a controllable fraction of records.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrestRecord {
    /// Record id, unique across both tables.
    pub id: u64,
    /// Calendar year of the arrest.
    pub year: u32,
    /// Offense category string.
    pub offense: String,
    /// X coordinate; `None` models a missing field.
    pub x: Option<f64>,
    /// Y coordinate; `None` models a missing field.
    pub y: Option<f64>,
}

impl ArrestRecord {
    /// A record is clean when both coordinates are present and finite.
    pub fn coords(&self) -> Option<Point> {
        match (self.x, self.y) {
            (Some(x), Some(y)) if x.is_finite() && y.is_finite() => Some(Point { x, y }),
            _ => None,
        }
    }
}

/// Offense categories used by the generator.
pub const OFFENSES: [&str; 6] = [
    "larceny",
    "assault",
    "burglary",
    "fraud",
    "vandalism",
    "other",
];

/// Configuration for [`SyntheticCity::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CityConfig {
    /// NTA grid width (columns).
    pub grid_w: usize,
    /// NTA grid height (rows).
    pub grid_h: usize,
    /// Total arrest events across both tables.
    pub arrests: usize,
    /// Fraction of arrest records that are dirty (missing/invalid coords).
    pub dirty_frac: f64,
    /// Number of spatial hotspots.
    pub hotspots: usize,
    /// Year treated as "current" (its records go to the current-year table).
    pub current_year: u32,
    /// Number of historic years before `current_year`.
    pub historic_years: u32,
}

impl Default for CityConfig {
    fn default() -> Self {
        Self {
            grid_w: 8,
            grid_h: 8,
            arrests: 50_000,
            dirty_frac: 0.02,
            hotspots: 5,
            current_year: 2021,
            historic_years: 4,
        }
    }
}

impl CityConfig {
    /// Check the generator can honour the config: a non-empty grid,
    /// arrests and hotspots, a `dirty_frac` in `[0, 1]`, and at least one
    /// historic year, none before year 0.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("grid_w", self.grid_w),
            ("grid_h", self.grid_h),
            ("arrests", self.arrests),
            ("hotspots", self.hotspots),
        ] {
            if v == 0 {
                return Err(format!("{name} must be at least 1"));
            }
        }
        if !(0.0..=1.0).contains(&self.dirty_frac) {
            return Err(format!("dirty_frac = {} outside [0, 1]", self.dirty_frac));
        }
        if self.historic_years == 0 {
            return Err("need at least one historic year".to_string());
        }
        if self.historic_years > self.current_year {
            return Err(format!(
                "{} historic years reach before year 0 (current_year = {})",
                self.historic_years, self.current_year
            ));
        }
        Ok(())
    }
}

/// The generated city: the four "downloaded" tables plus ground truth.
#[derive(Debug, Clone)]
pub struct SyntheticCity {
    /// NTA boundaries (dataset 1).
    pub ntas: Vec<Nta>,
    /// Population per NTA code (dataset 2).
    pub population: Vec<(String, u64)>,
    /// Historic arrests, years < current (dataset 3).
    pub arrests_historic: Vec<ArrestRecord>,
    /// Current-year arrests (dataset 4).
    pub arrests_current: Vec<ArrestRecord>,
    /// Ground truth: clean in-bounds arrest count per NTA index, current year.
    pub truth_current_counts: Vec<u64>,
    /// City bounds (max x = grid_w, max y = grid_h; min is origin).
    pub width: f64,
    /// City height.
    pub height: f64,
}

impl SyntheticCity {
    /// Generate a city deterministically from `config` and `seed`. Panics
    /// if [`CityConfig::validate`] rejects `config`.
    pub fn generate(config: CityConfig, seed: u64) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let CityConfig {
            grid_w,
            grid_h,
            arrests,
            dirty_frac,
            hotspots,
            current_year,
            historic_years,
        } = config;
        let mut rng = Lcg64::seed_from(seed);

        // 1. Jitter the interior grid vertices once; boundary vertices stay
        // put so the city rectangle is preserved. Shared vertices keep the
        // NTAs a gap-free partition.
        let jitter = UniformF64::new(-0.25, 0.25);
        let mut verts = vec![vec![Point { x: 0.0, y: 0.0 }; grid_w + 1]; grid_h + 1];
        for (gy, row) in verts.iter_mut().enumerate() {
            for (gx, v) in row.iter_mut().enumerate() {
                let interior_x = gx > 0 && gx < grid_w;
                let interior_y = gy > 0 && gy < grid_h;
                v.x = gx as f64
                    + if interior_x {
                        jitter.sample(&mut rng)
                    } else {
                        0.0
                    };
                v.y = gy as f64
                    + if interior_y {
                        jitter.sample(&mut rng)
                    } else {
                        0.0
                    };
            }
        }
        let mut ntas = Vec::with_capacity(grid_w * grid_h);
        for gy in 0..grid_h {
            for gx in 0..grid_w {
                let idx = gy * grid_w + gx;
                let boundary = Polygon::new(vec![
                    verts[gy][gx],
                    verts[gy][gx + 1],
                    verts[gy + 1][gx + 1],
                    verts[gy + 1][gx],
                ]);
                ntas.push(Nta {
                    code: format!("NTA{idx:03}"),
                    name: format!("District {idx:03}"),
                    boundary,
                });
            }
        }

        // 2. Population: log-uniform-ish between 5k and 150k.
        let pop_dist = UniformF64::new(5_000f64.ln(), 150_000f64.ln());
        let population: Vec<(String, u64)> = ntas
            .iter()
            .map(|n| {
                (
                    n.code.clone(),
                    pop_dist.sample(&mut rng).exp().round() as u64,
                )
            })
            .collect();

        // 3. Hotspot mixture for arrest locations.
        let cx = UniformF64::new(0.0, grid_w as f64);
        let cy = UniformF64::new(0.0, grid_h as f64);
        let centres: Vec<Point> = (0..hotspots)
            .map(|_| Point {
                x: cx.sample(&mut rng),
                y: cy.sample(&mut rng),
            })
            .collect();
        let mut spot_noise = Normal::new(0.0, 0.6);
        let background = Bernoulli::new(0.3);
        let dirty = Bernoulli::new(dirty_frac);
        let year_dist = UniformU64::new(
            (current_year - historic_years) as u64,
            current_year as u64 + 1,
        );
        let offense_dist = UniformU64::new(0, OFFENSES.len() as u64);
        let spot_dist = UniformU64::new(0, hotspots as u64);

        let mut historic = Vec::new();
        let mut current = Vec::new();
        let mut truth = vec![0u64; ntas.len()];
        for id in 0..arrests as u64 {
            let year = year_dist.sample(&mut rng) as u32;
            let offense = OFFENSES[offense_dist.sample(&mut rng) as usize].to_string();
            let (x, y) = if background.sample(&mut rng) {
                (cx.sample(&mut rng), cy.sample(&mut rng))
            } else {
                let c = centres[spot_dist.sample(&mut rng) as usize];
                (
                    c.x + spot_noise.sample(&mut rng),
                    c.y + spot_noise.sample(&mut rng),
                )
            };
            let record = if dirty.sample(&mut rng) {
                // Three flavours of dirt: missing x, missing y, out of city.
                match rng.next_below(3) {
                    0 => ArrestRecord {
                        id,
                        year,
                        offense,
                        x: None,
                        y: Some(y),
                    },
                    1 => ArrestRecord {
                        id,
                        year,
                        offense,
                        x: Some(x),
                        y: None,
                    },
                    _ => ArrestRecord {
                        id,
                        year,
                        offense,
                        x: Some(-1000.0),
                        y: Some(-1000.0),
                    },
                }
            } else {
                ArrestRecord {
                    id,
                    year,
                    offense,
                    x: Some(x),
                    y: Some(y),
                }
            };
            // Ground truth for the current year: clean, in-bounds records.
            if year == current_year {
                if let Some(p) = record.coords() {
                    if let Some(nta_idx) = locate(&ntas, p) {
                        truth[nta_idx] += 1;
                    }
                }
            }
            if year == current_year {
                current.push(record);
            } else {
                historic.push(record);
            }
        }

        Self {
            ntas,
            population,
            arrests_historic: historic,
            arrests_current: current,
            truth_current_counts: truth,
            width: grid_w as f64,
            height: grid_h as f64,
        }
    }

    /// Render the NTA boundary table as CSV: `code,name,x0,y0,x1,y1,…`
    /// (variable-length vertex list per row, like a flattened WKT).
    pub fn boundaries_csv(&self) -> String {
        let mut out = String::new();
        for nta in &self.ntas {
            out.push_str(&nta.code);
            out.push(',');
            out.push_str(&nta.name);
            for v in nta.boundary.vertices() {
                out.push_str(&format!(",{},{}", v.x, v.y));
            }
            out.push('\n');
        }
        out
    }

    /// Render the population table as CSV: `code,population`.
    pub fn population_csv(&self) -> String {
        let mut out = String::new();
        for (code, pop) in &self.population {
            out.push_str(&format!("{code},{pop}\n"));
        }
        out
    }

    /// Render an arrest table as CSV: `id,year,offense,x,y`, with empty
    /// fields for missing coordinates — the dirty data the pipeline must
    /// clean.
    pub fn arrests_csv(records: &[ArrestRecord]) -> String {
        let mut out = String::new();
        for r in records {
            let x = r.x.map(|v| v.to_string()).unwrap_or_default();
            let y = r.y.map(|v| v.to_string()).unwrap_or_default();
            out.push_str(&format!("{},{},{},{},{}\n", r.id, r.year, r.offense, x, y));
        }
        out
    }
}

/// Index of the NTA containing `p`, if any (first match — NTAs partition
/// the city so matches are unique up to shared edges).
pub fn locate(ntas: &[Nta], p: Point) -> Option<usize> {
    ntas.iter().position(|n| n.boundary.contains(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::new(vec![
            Point { x: 0.0, y: 0.0 },
            Point { x: 1.0, y: 0.0 },
            Point { x: 1.0, y: 1.0 },
            Point { x: 0.0, y: 1.0 },
        ])
    }

    #[test]
    fn point_in_square() {
        let sq = unit_square();
        assert!(sq.contains(Point { x: 0.5, y: 0.5 }));
        assert!(!sq.contains(Point { x: 1.5, y: 0.5 }));
        assert!(!sq.contains(Point { x: -0.1, y: 0.5 }));
        assert!(!sq.contains(Point { x: 0.5, y: 2.0 }));
    }

    #[test]
    fn point_in_concave_polygon() {
        // L-shape: (0,0)-(2,0)-(2,1)-(1,1)-(1,2)-(0,2)
        let l = Polygon::new(vec![
            Point { x: 0.0, y: 0.0 },
            Point { x: 2.0, y: 0.0 },
            Point { x: 2.0, y: 1.0 },
            Point { x: 1.0, y: 1.0 },
            Point { x: 1.0, y: 2.0 },
            Point { x: 0.0, y: 2.0 },
        ]);
        assert!(l.contains(Point { x: 0.5, y: 1.5 }));
        assert!(l.contains(Point { x: 1.5, y: 0.5 }));
        assert!(!l.contains(Point { x: 1.5, y: 1.5 })); // the notch
    }

    #[test]
    fn signed_area_square() {
        assert!((unit_square().signed_area() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn degenerate_polygon_rejected() {
        Polygon::new(vec![Point { x: 0.0, y: 0.0 }, Point { x: 1.0, y: 1.0 }]);
    }

    fn small_city() -> SyntheticCity {
        SyntheticCity::generate(
            CityConfig {
                grid_w: 4,
                grid_h: 3,
                arrests: 5_000,
                ..CityConfig::default()
            },
            7,
        )
    }

    #[test]
    fn city_shape() {
        let city = small_city();
        assert_eq!(city.ntas.len(), 12);
        assert_eq!(city.population.len(), 12);
        assert_eq!(
            city.arrests_historic.len() + city.arrests_current.len(),
            5_000
        );
        assert!(!city.arrests_current.is_empty());
        assert!(!city.arrests_historic.is_empty());
    }

    #[test]
    fn city_deterministic() {
        let a = SyntheticCity::generate(CityConfig::default(), 3);
        let b = SyntheticCity::generate(CityConfig::default(), 3);
        assert_eq!(a.ntas, b.ntas);
        assert_eq!(a.arrests_current, b.arrests_current);
        assert_eq!(a.truth_current_counts, b.truth_current_counts);
    }

    #[test]
    fn ntas_tile_the_city() {
        // Every interior point belongs to at least one NTA, and areas sum
        // to the rectangle's area.
        let city = small_city();
        let total_area: f64 = city
            .ntas
            .iter()
            .map(|n| n.boundary.signed_area().abs())
            .sum();
        assert!(
            (total_area - 12.0).abs() < 1e-9,
            "areas sum to {total_area}"
        );
        // Probe a grid of points.
        for i in 0..40 {
            for j in 0..30 {
                let p = Point {
                    x: 0.05 + i as f64 * 0.1,
                    y: 0.05 + j as f64 * 0.1,
                };
                assert!(locate(&city.ntas, p).is_some(), "uncovered point {p:?}");
            }
        }
    }

    #[test]
    fn truth_counts_match_recount() {
        let city = small_city();
        let mut recount = vec![0u64; city.ntas.len()];
        for r in &city.arrests_current {
            if let Some(p) = r.coords() {
                if let Some(i) = locate(&city.ntas, p) {
                    recount[i] += 1;
                }
            }
        }
        assert_eq!(recount, city.truth_current_counts);
    }

    #[test]
    fn dirty_fraction_about_right() {
        let city = SyntheticCity::generate(
            CityConfig {
                arrests: 20_000,
                dirty_frac: 0.1,
                ..CityConfig::default()
            },
            11,
        );
        let all: Vec<&ArrestRecord> = city
            .arrests_historic
            .iter()
            .chain(&city.arrests_current)
            .collect();
        // The generator marks dirt as a missing field or the (-1000,-1000)
        // sentinel; hotspot noise may push *clean* records slightly out of
        // bounds, which is realistic and not counted here.
        let dirty = all
            .iter()
            .filter(|r| {
                r.coords()
                    .map(|p| p.x == -1000.0 && p.y == -1000.0)
                    .unwrap_or(true)
            })
            .count();
        let frac = dirty as f64 / all.len() as f64;
        assert!((frac - 0.1).abs() < 0.02, "dirty frac = {frac}");
    }

    #[test]
    fn csv_renders_missing_fields_empty() {
        let rec = ArrestRecord {
            id: 1,
            year: 2021,
            offense: "fraud".into(),
            x: None,
            y: Some(2.5),
        };
        let csv = SyntheticCity::arrests_csv(&[rec]);
        assert_eq!(csv, "1,2021,fraud,,2.5\n");
    }

    #[test]
    fn coords_rejects_partial_and_nan() {
        let r = ArrestRecord {
            id: 0,
            year: 2020,
            offense: "x".into(),
            x: Some(f64::NAN),
            y: Some(1.0),
        };
        assert_eq!(r.coords(), None);
        let r = ArrestRecord {
            id: 0,
            year: 2020,
            offense: "x".into(),
            x: None,
            y: Some(1.0),
        };
        assert_eq!(r.coords(), None);
    }
}
