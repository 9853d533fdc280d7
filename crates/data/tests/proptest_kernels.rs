//! Property tests for the blocked kernel layer: the exact family must be
//! bit-identical to the scalar loops, the decomposed family must agree
//! within the documented rounding window and preserve the lowest-index
//! tie-break — across ragged shapes (0/1/non-multiple-of-block sizes).

use std::ops::Range;

use peachy_data::kernels::{
    argmin_dist2, argmin_dist2_ref, dist2, dist2_scan, dist2_scan_panels, dot, matmul_nt,
    matmul_nt_ref, pairwise_dist2, pairwise_dist2_ref, Candidates, Panels, LANES,
};
use peachy_data::matrix::Matrix;
use peachy_prng::cases::{check, Gen};

const CASES: u32 = 24;

/// Continuous-ish values at mixed magnitudes, plus exact hits on zero (one
/// draw in six).
fn coord(g: &mut Gen) -> f64 {
    if g.range(0u32..6) == 0 {
        0.0
    } else {
        g.range(-1_000_000i64..1_000_000) as f64 / 1024.0
    }
}

/// A matrix with a row count drawn from `rows` and `cols` columns.
fn matrix(g: &mut Gen, rows: std::ops::Range<usize>, cols: usize) -> Matrix {
    let n = g.range(rows);
    let data = (0..n * cols).map(|_| coord(g)).collect();
    Matrix::from_vec(n, cols, data)
}

/// Scale-aware tolerance for the ‖x‖² − 2x·c + ‖c‖² decomposition: the
/// absolute error of either form is a few ulps of the norm magnitudes.
fn dist2_tol(x: &[f64], c: &[f64]) -> f64 {
    1e-9 * (1.0 + dot(x, x) + dot(c, c))
}

/// A range over `n` rows that the panel scan accepts: it starts on a
/// `LANES` boundary and ends on one or inside the row-major tail.
fn panel_range(g: &mut Gen, n: usize) -> Range<usize> {
    let full = n / LANES * LANES;
    let start = LANES * g.range(0..full / LANES + 1);
    let ends: Vec<usize> = (start..=n)
        .filter(|&end| end.is_multiple_of(LANES) || end > full)
        .collect();
    start..ends[g.range(0..ends.len())]
}

/// Exact family: the lane-blocked scan, and the panel scan over the same
/// rows packed, visit every index of the whole matrix and of a random
/// panel-aligned range in order, with values bit-identical to the scalar
/// pair kernel. Every case covers fewer rows than `LANES`, an exact
/// multiple of `LANES`, a ragged count at d = 1, and a free draw.
#[test]
fn dist2_scan_is_bit_exact() {
    check("dist2_scan_is_bit_exact", CASES, |g| {
        let shapes = [
            (g.range(0usize..LANES), g.range(0usize..20)),
            (LANES * g.range(1usize..5), g.range(0usize..20)),
            (LANES * g.range(1usize..5) + g.range(1usize..LANES), 1),
            (g.range(0usize..70), g.range(0usize..20)),
        ];
        for (n, d) in shapes {
            let rows = matrix(g, n..n + 1, d);
            let x: Vec<f64> = (0..d).map(|_| coord(g)).collect();
            let panels = Panels::new(rows.clone());
            for range in [0..n, panel_range(g, n)] {
                let expected: Vec<(usize, u64)> = range
                    .clone()
                    .map(|i| (i, dist2(rows.row(i), &x).to_bits()))
                    .collect();
                let mut visited = Vec::new();
                dist2_scan(&rows, range.clone(), &x, |i, v| {
                    visited.push((i, v.to_bits()))
                });
                assert_eq!(visited, expected, "row-major, {n} rows, d = {d}, {range:?}");
                let mut packed = Vec::new();
                dist2_scan_panels(&panels, range.clone(), &x, |i, v| {
                    packed.push((i, v.to_bits()))
                });
                assert_eq!(packed, expected, "panels, {n} rows, d = {d}, {range:?}");
            }
        }
    });
}

/// Exact family: scanning an interior sub-range yields the same values
/// as the full scan (lane carve-up does not depend on the range start).
#[test]
fn dist2_scan_subrange_matches() {
    check("dist2_scan_subrange_matches", CASES, |g| {
        let rows = matrix(g, 1..60, 3);
        let x: Vec<f64> = (0..3).map(|_| coord(g)).collect();
        let (lo, hi) = (g.range(0usize..60), g.range(0usize..60));
        let n = rows.rows();
        let (lo, hi) = (lo.min(n), hi.min(n));
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let mut full = vec![f64::NAN; n];
        dist2_scan(&rows, 0..n, &x, |i, v| full[i] = v);
        dist2_scan(&rows, lo..hi, &x, |i, v| {
            assert_eq!(v, full[i], "sub-range row {i} diverged");
        });
    });
}

/// Decomposed family: pairwise distances agree with the scalar
/// reference within the documented relative window, and are ≥ 0.
#[test]
fn pairwise_dist2_close_to_reference() {
    check("pairwise_dist2_close_to_reference", CASES, |g| {
        let (d, seedx, seedc) = (
            g.range(1usize..10),
            g.range(0usize..50),
            g.range(0usize..40),
        );
        let mk = |n: usize, seed: usize| {
            let v: Vec<f64> = (0..n * d)
                .map(|i| (((seed * 7919 + i * 104729) % 2_000_001) as f64 - 1_000_000.0) / 1024.0)
                .collect();
            Matrix::from_vec(n, d, v)
        };
        let x = mk(seedx, seedx + 1);
        let c = mk(seedc, seedc + 2);
        let blocked = pairwise_dist2(&x, &c);
        let exact = pairwise_dist2_ref(&x, &c);
        assert_eq!((blocked.rows(), blocked.cols()), (x.rows(), c.rows()));
        for i in 0..x.rows() {
            for j in 0..c.rows() {
                let (a, b) = (blocked.get(i, j), exact.get(i, j));
                assert!(a >= 0.0);
                assert!(
                    (a - b).abs() <= dist2_tol(x.row(i), c.row(j)),
                    "({i}, {j}): blocked {a} vs exact {b}"
                );
            }
        }
    });
}

/// Decomposed family: the fused batch argmin picks the same index as
/// the scalar reference, or — when the two scoring forms round a
/// near-tie differently — a candidate whose exact distance is within
/// the rounding window of the reference winner's.
#[test]
fn argmin_dist2_agrees_with_reference() {
    check("argmin_dist2_agrees_with_reference", CASES, |g| {
        let d = g.range(1usize..8);
        let x = matrix(g, 0..50, d);
        let k = g.range(1usize..30);
        let c = {
            // Candidates drawn from the query rows (forces exact ties and
            // duplicates) padded with shifted copies.
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(k);
            for j in 0..k {
                if x.rows() > 0 && j % 2 == 0 {
                    rows.push(x.row(j % x.rows()).to_vec());
                } else {
                    rows.push((0..d).map(|p| (j * d + p) as f64 / 8.0 - 1.5).collect());
                }
            }
            Matrix::from_rows(&rows)
        };
        let blocked = argmin_dist2(&x, &c);
        let reference = argmin_dist2_ref(&x, &c);
        assert_eq!(blocked.len(), reference.len());
        for i in 0..x.rows() {
            let (a, b) = (blocked[i] as usize, reference[i] as usize);
            if a != b {
                let da = dist2(x.row(i), c.row(a));
                let db = dist2(x.row(i), c.row(b));
                assert!(
                    (da - db).abs() <= dist2_tol(x.row(i), c.row(a)),
                    "row {i}: blocked chose {a} (d2={da}) vs reference {b} (d2={db})"
                );
                // A legitimate near-tie flip must still not pick a higher
                // index over an exactly-equal-scoring lower one.
                assert!(da != db || a < b, "row {i} broke the tie upward");
            }
        }
    });
}

/// Tie-break: with every candidate row duplicated, the decomposed
/// scores of the copies are bitwise equal, so the first copy must win.
#[test]
fn argmin_duplicate_candidates_break_low() {
    check("argmin_duplicate_candidates_break_low", CASES, |g| {
        let base = matrix(g, 1..(LANES * 2 + 3), 3);
        let x = matrix(g, 0..40, 3);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..base.rows() {
            rows.push(base.row(i).to_vec());
        }
        for i in 0..base.rows() {
            rows.push(base.row(i).to_vec());
        }
        let c = Matrix::from_rows(&rows);
        let cand = Candidates::new(&c);
        for &a in &cand.assign(&x) {
            assert!(
                (a as usize) < base.rows(),
                "picked duplicate copy {a} of {} candidates",
                c.rows()
            );
        }
    });
}

/// Batch assignment is bit-identical to one-row-at-a-time queries,
/// whatever the shape (the row/candidate blocking is invisible).
#[test]
fn batch_assign_matches_single_rows() {
    check("batch_assign_matches_single_rows", CASES, |g| {
        let (x, c) = (matrix(g, 0..40, 4), matrix(g, 1..25, 4));
        let cand = Candidates::new(&c);
        let batch = cand.assign(&x);
        assert_eq!(batch.len(), x.rows());
        for (i, &a) in batch.iter().enumerate() {
            assert_eq!(a, cand.nearest(x.row(i)), "row {i}");
        }
    });
}

/// Exact family: the blocked GEMM is bit-identical to the scalar
/// reference (it reproduces the per-row accumulation order).
#[test]
fn matmul_nt_is_bit_exact() {
    check("matmul_nt_is_bit_exact", CASES, |g| {
        let (a, w, with_bias) = (matrix(g, 0..40, 5), matrix(g, 0..20, 5), g.any::<bool>());
        let bias: Vec<f64> = (0..w.rows()).map(|o| o as f64 / 4.0 - 1.0).collect();
        let b = with_bias.then_some(&bias[..]);
        let blocked = matmul_nt(&a, w.as_slice(), w.rows(), b);
        let exact = matmul_nt_ref(&a, w.as_slice(), w.rows(), b);
        assert_eq!(blocked, exact);
    });
}
