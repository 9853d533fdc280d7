//! Property tests: strategy equivalence and k-means invariants.

use std::cell::RefCell;

use peachy_data::kernels::dist2;
use peachy_data::synth::gaussian_blobs;
use peachy_data::Matrix;
use peachy_kmeans::{
    fit, fit_buffers, fit_distributed, fit_gpu, fit_seq, inertia, random_init, GpuLaunch,
    GpuStrategy, KMeansConfig, KMeansResult, Strategy, Termination,
};
use peachy_prng::cases::check;

const CASES: u32 = 16;

fn cfg(max_iters: usize) -> KMeansConfig {
    KMeansConfig {
        max_iters,
        min_changes: 0,
        min_shift: 1e-12,
    }
}

/// Configs that between them stop on every rule: convergence and a loose
/// churn bound (few changes), a coarse shift bound (small shift) and a
/// short cap (max iterations).
fn every_rule() -> [KMeansConfig; 4] {
    [
        cfg(30),
        KMeansConfig {
            max_iters: 100,
            min_changes: 5,
            min_shift: 0.0,
        },
        KMeansConfig {
            max_iters: 100,
            min_changes: 0,
            min_shift: 0.5,
        },
        KMeansConfig {
            max_iters: 2,
            min_changes: 0,
            min_shift: 0.0,
        },
    ]
}

/// `got` stopped where `want` did: same assignments, iteration count,
/// termination rule and final churn.
fn same_stop(got: &KMeansResult, want: &KMeansResult, what: &str) {
    assert_eq!(got.assignments, want.assignments, "{what}: assignments");
    assert_eq!(got.iterations, want.iterations, "{what}: iterations");
    assert_eq!(got.termination, want.termination, "{what}: termination");
    assert_eq!(got.last_changes, want.last_changes, "{what}: last_changes");
}

/// Each termination rule stopped at least one of the `seen` runs.
fn assert_every_rule(seen: &[Termination]) {
    for rule in [
        Termination::FewChanges,
        Termination::SmallShift,
        Termination::MaxIters,
    ] {
        assert!(seen.contains(&rule), "no case stopped on {rule:?}");
    }
}

// Every property below draws n from a range starting above its largest k,
// so each case has at least as many points as clusters.

/// Every shared-memory and device variant stops where the sequential
/// reference does, under every termination rule; the gather-buffer layout
/// also matches it bit for bit.
#[test]
fn strategies_equal_sequential() {
    let seen = RefCell::new(Vec::new());
    check("strategies_equal_sequential", CASES, |g| {
        let (n, d, k) = (
            g.range(20usize..400),
            g.range(1usize..5),
            g.range(1usize..6),
        );
        let seed = g.any::<u64>();
        let data = gaussian_blobs(n, d, k as u32, 1.0, seed);
        let init = random_init(&data.points, k, seed ^ 0xabcd);
        for config in every_rule() {
            let seq = fit_seq(&data.points, &config, init.clone());
            seen.borrow_mut().push(seq.termination);
            for strategy in [Strategy::Critical, Strategy::Atomic, Strategy::Reduction] {
                let par = fit(&data.points, &config, init.clone(), strategy);
                same_stop(&par, &seq, &format!("{strategy:?}"));
            }
            for strategy in [GpuStrategy::Atomic, GpuStrategy::BlockReduction] {
                let launch = GpuLaunch::default();
                let gpu = fit_gpu(&data.points, &config, init.clone(), strategy, launch);
                same_stop(&gpu, &seq, &format!("gpu {strategy:?}"));
            }
            let buf = fit_buffers(&data.points, &config, init.clone());
            same_stop(&buf, &seq, "buffers");
            assert_eq!(
                buf.last_shift.to_bits(),
                seq.last_shift.to_bits(),
                "buffers last_shift"
            );
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&buf.centroids),
                bits(&seq.centroids),
                "buffers centroids"
            );
        }
    });
    assert_every_rule(&seen.into_inner());
}

/// Distributed stops where the sequential reference does for arbitrary
/// rank counts, under every termination rule.
#[test]
fn distributed_equals_sequential() {
    let seen = RefCell::new(Vec::new());
    check("distributed_equals_sequential", CASES, |g| {
        let (n, k, ranks) = (
            g.range(20usize..300),
            g.range(1usize..5),
            g.range(1usize..6),
        );
        let seed = g.any::<u64>();
        let data = gaussian_blobs(n, 2, k as u32, 1.0, seed);
        let init = random_init(&data.points, k, seed ^ 0x1234);
        for config in every_rule() {
            let seq = fit_seq(&data.points, &config, init.clone());
            seen.borrow_mut().push(seq.termination);
            let dist = fit_distributed(&data.points, &config, init.clone(), ranks);
            same_stop(&dist, &seq, &format!("{ranks} ranks"));
        }
    });
    assert_every_rule(&seen.into_inner());
}

/// Each point's final assignment really is its nearest final centroid
/// when the run converged by assignment stability. The assignment
/// kernel scores candidates via the ‖c‖² − 2x·c decomposition, which
/// can differ from the exact Σ(x−c)² by ~1 ulp — so a disagreement
/// with the exact argmin is tolerated only if the two candidates are
/// equidistant to within that rounding window.
#[test]
fn converged_assignments_are_nearest() {
    check("converged_assignments_are_nearest", CASES, |g| {
        let (n, k, seed) = (g.range(20usize..300), g.range(1usize..5), g.any::<u64>());
        let data = gaussian_blobs(n, 3, k as u32, 0.8, seed);
        let init = random_init(&data.points, k, seed ^ 0x77);
        let r = fit_seq(&data.points, &KMeansConfig::default(), init);
        if r.termination == Termination::FewChanges {
            for i in 0..n {
                let mut best = 0u32;
                let mut best_d = f64::INFINITY;
                for c in 0..k {
                    let d2 = dist2(data.points.row(i), r.centroids.row(c));
                    if d2 < best_d {
                        best_d = d2;
                        best = c as u32;
                    }
                }
                let a = r.assignments[i];
                if a != best {
                    let da = dist2(data.points.row(i), r.centroids.row(a as usize));
                    assert!(
                        (da - best_d).abs() <= 1e-9 * (1.0 + da + best_d),
                        "point {i} assigned {a} (d2={da}) but nearest is {best} (d2={best_d})"
                    );
                }
            }
        }
    });
}

/// Inertia decreases (weakly) with more iterations of the same run.
#[test]
fn inertia_monotone() {
    check("inertia_monotone", CASES, |g| {
        let (n, k, seed) = (g.range(30usize..200), g.range(2usize..5), g.any::<u64>());
        let data = gaussian_blobs(n, 2, k as u32, 1.5, seed);
        let mut centroids = random_init(&data.points, k, seed ^ 0x5a);
        let mut last = f64::INFINITY;
        for _ in 0..6 {
            let r = fit_seq(&data.points, &cfg(1), centroids.clone());
            let obj = inertia(&data.points, &r.centroids, &r.assignments);
            assert!(obj <= last + 1e-9);
            last = obj;
            centroids = r.centroids;
        }
    });
}

/// k = n converges to zero inertia with each point its own centroid.
#[test]
fn k_equals_n() {
    check("k_equals_n", CASES, |g| {
        let n = g.range(2usize..20);
        // Distinct 1-D points.
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 2.0]).collect();
        let m = Matrix::from_rows(&rows);
        let r = fit_seq(&m, &KMeansConfig::default(), m.clone());
        assert_eq!(inertia(&m, &r.centroids, &r.assignments), 0.0);
    });
}
