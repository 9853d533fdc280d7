//! §3 — K-means and the parallelization-strategy ladder (experiments E2, E3).
//!
//! Renders Figure 1 (a 2-D clustering scatter) as ASCII and times the
//! strategy ladder: critical region → atomic → reduction → distributed.
//!
//! ```sh
//! cargo run --release --example kmeans_strategies
//! ```

use std::time::Instant;

use peachy::data::synth::gaussian_blobs;
use peachy::kmeans::{
    fit, fit_distributed, fit_seq, inertia, kmeans_plus_plus, KMeansConfig, Strategy,
};

fn main() {
    // ---- Figure 1: 2-D, K = 3 ----
    println!("=== E2 (Figure 1): K-means, 2-D dataset, K = 3 ===\n");
    let data = gaussian_blobs(3_000, 2, 3, 0.9, 7);
    let init = kmeans_plus_plus(&data.points, 3, 11);
    let result = fit_seq(&data.points, &KMeansConfig::default(), init);
    println!(
        "{}",
        scatter_ascii(&data.points, &result.assignments, &result.centroids, 64, 28)
    );
    println!(
        "{} iterations, inertia {:.1}, terminated on {:?}\n",
        result.iterations,
        inertia(&data.points, &result.centroids, &result.assignments),
        result.termination
    );

    // ---- E3: the strategy ladder ----
    println!("=== E3: strategy ladder, n = 200 000, d = 4, K = 32 ===\n");
    let data = gaussian_blobs(200_000, 4, 32, 1.0, 13);
    let init = kmeans_plus_plus(&data.points, 32, 17);
    let config = KMeansConfig {
        max_iters: 20,
        min_changes: 0,
        min_shift: 0.0,
    };

    let t0 = Instant::now();
    let seq = fit_seq(&data.points, &config, init.clone());
    let t_seq = t0.elapsed();
    println!("{:<22} {:>10.2?}   (reference)", "sequential", t_seq);

    // The ladder in the paper's order: each rung should beat the last.
    let mut ladder = Vec::new();
    for (name, strategy) in [
        ("critical (mutex)", Strategy::Critical),
        ("atomic (CAS)", Strategy::Atomic),
        ("reduction", Strategy::Reduction),
    ] {
        let t0 = Instant::now();
        let r = fit(&data.points, &config, init.clone(), strategy);
        let t = t0.elapsed();
        assert_eq!(r.assignments, seq.assignments);
        println!(
            "{name:<22} {t:>10.2?}   speedup {:>5.2}×",
            t_seq.as_secs_f64() / t.as_secs_f64()
        );
        ladder.push((name, t));
    }

    for ranks in [2usize, 4, 8] {
        let t0 = Instant::now();
        let r = fit_distributed(&data.points, &config, init.clone(), ranks);
        let t = t0.elapsed();
        assert_eq!(r.assignments, seq.assignments);
        println!(
            "{:<22} {t:>10.2?}   speedup {:>5.2}×",
            format!("distributed ({ranks} ranks)"),
            t_seq.as_secs_f64() / t.as_secs_f64()
        );
    }

    // Report the ordering this run measured, not the one the paper expects.
    let mut fastest_first = ladder.clone();
    fastest_first.sort_by_key(|&(_, t)| t);
    let order: Vec<String> = fastest_first
        .iter()
        .map(|(name, t)| format!("{name} {t:.2?}"))
        .collect();
    println!("\nmeasured, fastest first: {}", order.join(" < "));
    for pair in ladder.windows(2) {
        let ((prev, t_prev), (next, t_next)) = (pair[0], pair[1]);
        let verdict = if t_next < t_prev {
            "beats"
        } else {
            "does NOT beat"
        };
        println!(
            "  {next} {verdict} {prev} here ({:.2}× its time)",
            t_next.as_secs_f64() / t_prev.as_secs_f64()
        );
    }
    println!(
        "(The distributed version needs the same reduction anyway: one allreduce per iteration.)"
    );
}

/// Plot points colour-coded by cluster (digits) plus centroids (*).
fn scatter_ascii(
    points: &peachy::data::Matrix,
    assignments: &[u32],
    centroids: &peachy::data::Matrix,
    w: usize,
    h: usize,
) -> String {
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for row in points.iter_rows() {
        min_x = min_x.min(row[0]);
        max_x = max_x.max(row[0]);
        min_y = min_y.min(row[1]);
        max_y = max_y.max(row[1]);
    }
    let mut grid = vec![vec![' '; w]; h];
    let place = |x: f64, y: f64| -> (usize, usize) {
        let gx = ((x - min_x) / (max_x - min_x) * (w - 1) as f64).round() as usize;
        let gy = ((y - min_y) / (max_y - min_y) * (h - 1) as f64).round() as usize;
        (gx.min(w - 1), gy.min(h - 1))
    };
    for (i, row) in points.iter_rows().enumerate() {
        let (gx, gy) = place(row[0], row[1]);
        grid[gy][gx] = char::from_digit(assignments[i], 10).unwrap_or('?');
    }
    for c in 0..centroids.rows() {
        let (gx, gy) = place(centroids.get(c, 0), centroids.get(c, 1));
        grid[gy][gx] = '*';
    }
    grid.into_iter()
        .rev()
        .map(|row| row.into_iter().collect::<String>() + "\n")
        .collect()
}
