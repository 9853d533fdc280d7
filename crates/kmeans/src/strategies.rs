//! The shared-memory parallelization-strategy ladder.
//!
//! All strategies parallelize the same two phases and differ only in how
//! they resolve the races the assignment asks students to find:
//!
//! * the **write race** on the per-point assignment array (benign once
//!   points are partitioned — each point is written by exactly one task);
//! * the **update races** on the shared `changes` counter and the
//!   per-cluster `counts`/`sums` accumulators.
//!
//! [`Strategy::Critical`] serializes every accumulator update through one
//! mutex (stage 2 of the ladder); [`Strategy::Atomic`] replaces the lock
//! with atomic fetch-adds and CAS loops on bit-cast `f64`s (stage 3);
//! [`Strategy::Reduction`] gives each chunk its own private accumulators
//! and merges them after the parallel region (stage 4) — and, because the
//! chunk decomposition is fixed and the merge is ordered, its output is
//! **bit-identical regardless of thread count**, unlike the other two whose
//! floating-point sums depend on interleaving (by about 1 ulp).
//!
//! Each strategy is only a step: one pass over the points that fills the
//! pass's accumulators. The main loop, the means and the termination rule
//! are the crate's one Lloyd driver, shared with every other variant.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use peachy_cluster::dist::EvenBlocks;
use peachy_cluster::{CommStats, Executor};
use peachy_data::kernels::Candidates;
use peachy_data::Matrix;
use peachy_par::prelude::*;

use crate::config::{check_inputs, lloyd, IterStats, KMeansConfig, KMeansResult};

/// Which race-resolution strategy to use for the shared accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// One mutex (critical region) around every accumulator update.
    Critical,
    /// Lock-free atomic updates (CAS loop for the f64 sums).
    Atomic,
    /// Per-chunk private accumulators merged deterministically.
    Reduction,
}

/// Default decomposition width for the reduction strategy: independent of
/// the rayon pool size, so results do not depend on the number of threads.
/// The actual chunk geometry is derived from an [`EvenBlocks`] distribution
/// of this width, never hardcoded in the loop.
pub(crate) const REDUCTION_CHUNKS: usize = 64;

/// Run parallel k-means from the given initial centroids.
pub fn fit(
    points: &Matrix,
    config: &KMeansConfig,
    init: Matrix,
    strategy: Strategy,
) -> KMeansResult {
    fit_impl(points, config, init, strategy, REDUCTION_CHUNKS, None)
}

/// [`fit`] with an explicit reduction decomposition width and optional
/// communication counters — the entry point the executor seam
/// ([`crate::executor::fit_with`]) drives.
pub(crate) fn fit_impl(
    points: &Matrix,
    config: &KMeansConfig,
    init: Matrix,
    strategy: Strategy,
    reduction_chunks: usize,
    stats: Option<&CommStats>,
) -> KMeansResult {
    check_inputs(points, config, &init);
    let mut assignments: Vec<u32> = vec![u32::MAX; points.rows()];
    lloyd(config, init, |centroids| {
        // Hoist the centroid norms once per iteration; every strategy
        // shares the same kernel, so assignments are identical across the
        // whole ladder (and the sequential reference) by construction.
        let cand = Candidates::new(centroids);
        match strategy {
            Strategy::Critical => iter_critical(points, &cand, &mut assignments),
            Strategy::Atomic => iter_atomic(points, &cand, &mut assignments),
            Strategy::Reduction => {
                iter_reduction(points, &cand, &mut assignments, reduction_chunks, stats)
            }
        }
    })
    .result(assignments)
}

/// Stage 2: every shared update inside a critical region.
fn iter_critical(points: &Matrix, cand: &Candidates<'_>, assignments: &mut [u32]) -> IterStats {
    let shared = Mutex::new(IterStats::zeros(cand.len(), points.cols()));
    assignments
        .par_iter_mut()
        .enumerate()
        .for_each(|(i, slot)| {
            let row = points.row(i);
            let a = cand.nearest(row);
            let changed = *slot != a;
            *slot = a;
            // The critical region: counter, count and coordinate sums together.
            let mut guard = shared
                .lock()
                .expect("nothing panics in the critical region");
            if changed {
                guard.changes += 1;
            }
            guard.add(a, row);
        });
    shared
        .into_inner()
        .expect("nothing panics in the critical region")
}

/// Atomic f64 add by CAS on the bit pattern — the "substitute critical
/// regions with atomic operations" stage.
#[inline]
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f64::from_bits(cur) + v;
        match cell.compare_exchange_weak(cur, next.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Stage 3: atomics instead of locks.
fn iter_atomic(points: &Matrix, cand: &Candidates<'_>, assignments: &mut [u32]) -> IterStats {
    let k = cand.len();
    let d = points.cols();
    let changes = AtomicUsize::new(0);
    let counts: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
    let sums: Vec<AtomicU64> = (0..k * d)
        .map(|_| AtomicU64::new(0.0f64.to_bits()))
        .collect();
    assignments
        .par_iter_mut()
        .enumerate()
        .for_each(|(i, slot)| {
            let row = points.row(i);
            let a = cand.nearest(row);
            if *slot != a {
                changes.fetch_add(1, Ordering::Relaxed);
            }
            *slot = a;
            counts[a as usize].fetch_add(1, Ordering::Relaxed);
            for (j, &v) in row.iter().enumerate() {
                atomic_f64_add(&sums[a as usize * d + j], v);
            }
        });
    IterStats {
        changes: changes.into_inner(),
        counts: counts.into_iter().map(AtomicU64::into_inner).collect(),
        sums: sums
            .into_iter()
            .map(|c| f64::from_bits(c.into_inner()))
            .collect(),
    }
}

/// Stage 4: reduction over a fixed [`EvenBlocks`] decomposition, merged in
/// part order through the executor seam.
fn iter_reduction(
    points: &Matrix,
    cand: &Candidates<'_>,
    assignments: &mut [u32],
    chunks: usize,
    stats: Option<&CommStats>,
) -> IterStats {
    let k = cand.len();
    let d = points.cols();
    let n = points.rows();
    // The decomposition comes from the distribution, not ad-hoc chunk
    // math: EvenBlocks reproduces the historical `par_chunks_mut` grouping
    // exactly, so the ordered merge below (and thus every partial-sum
    // grouping) is bit-identical to the original loop.
    let dist = EvenBlocks::new(n, chunks);
    let exec = Executor::Rayon { chunks };
    // Each part owns a disjoint slice of the assignment array and its own
    // accumulators; no shared mutable state exists inside the parallel region.
    let kernel = |_part: usize, range: std::ops::Range<usize>, slots: &mut [u32]| {
        let base = range.start;
        let mut part = IterStats::zeros(k, d);
        for (off, slot) in slots.iter_mut().enumerate() {
            let row = points.row(base + off);
            let a = cand.nearest(row);
            if *slot != a {
                part.changes += 1;
            }
            *slot = a;
            part.add(a, row);
        }
        part
    };
    let partials: Vec<IterStats> = exec.map_parts_mut(&dist, assignments, stats, kernel);
    // Ordered, sequential merge: deterministic whatever the pool size.
    partials
        .into_iter()
        .fold(IterStats::zeros(k, d), IterStats::merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_init;
    use crate::seq::fit_seq;
    use peachy_data::synth::gaussian_blobs;

    fn cfg() -> KMeansConfig {
        KMeansConfig {
            max_iters: 50,
            min_changes: 0,
            min_shift: 1e-12,
        }
    }

    fn assert_matches_seq(strategy: Strategy) {
        let data = gaussian_blobs(2_000, 4, 5, 1.0, 33);
        let init = random_init(&data.points, 5, 44);
        let seq = fit_seq(&data.points, &cfg(), init.clone());
        let par = fit(&data.points, &cfg(), init, strategy);
        assert_eq!(par.assignments, seq.assignments, "{strategy:?} assignments");
        assert_eq!(par.iterations, seq.iterations, "{strategy:?} iterations");
        assert_eq!(par.termination, seq.termination, "{strategy:?} termination");
        for c in 0..5 {
            for j in 0..4 {
                let a = par.centroids.get(c, j);
                let b = seq.centroids.get(c, j);
                assert!(
                    (a - b).abs() < 1e-9,
                    "{strategy:?} centroid ({c},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn critical_matches_sequential() {
        assert_matches_seq(Strategy::Critical);
    }

    #[test]
    fn atomic_matches_sequential() {
        assert_matches_seq(Strategy::Atomic);
    }

    #[test]
    fn reduction_matches_sequential() {
        assert_matches_seq(Strategy::Reduction);
    }

    #[test]
    fn reduction_bit_identical_across_thread_counts() {
        let data = gaussian_blobs(3_000, 3, 4, 1.5, 55);
        let init = random_init(&data.points, 4, 66);
        let run = || fit(&data.points, &cfg(), init.clone(), Strategy::Reduction);
        // A pool task runs every parallel call it makes inline, so this fit
        // uses one thread; the second uses the whole pool.
        let mut r1 = None;
        peachy_par::scope(|s| s.spawn(|_| r1 = Some(run())));
        let r1 = r1.expect("the scope ran its task");
        let pooled = run();
        assert_eq!(r1.assignments, pooled.assignments);
        assert_eq!(
            r1.centroids, pooled.centroids,
            "bit-identical centroids required"
        );
        assert_eq!(r1.iterations, pooled.iterations);
    }

    #[test]
    fn reduction_decomposition_matches_legacy_chunking() {
        // Regression: the EvenBlocks-derived geometry must equal the old
        // inline rule `chunk = n.div_ceil(REDUCTION_CHUNKS).max(1)` fed to
        // `par_chunks_mut` — same chunk count, same ranges — for any n.
        for n in [1usize, 7, 63, 64, 65, 100, 1000, 4096, 5000] {
            let chunk = n.div_ceil(REDUCTION_CHUNKS).max(1);
            let legacy: Vec<std::ops::Range<usize>> = (0..n.div_ceil(chunk))
                .map(|ci| ci * chunk..((ci + 1) * chunk).min(n))
                .collect();
            let dist = EvenBlocks::new(n, REDUCTION_CHUNKS);
            assert_eq!(dist.chunk_len(), chunk, "n = {n}");
            let new: Vec<std::ops::Range<usize>> =
                (0..dist.parts()).map(|p| dist.local_range(p)).collect();
            assert_eq!(new, legacy, "n = {n}");
        }
    }

    #[test]
    fn reduction_bit_identical_to_legacy_iteration() {
        // One full iteration through the executor vs a verbatim copy of
        // the pre-refactor par_chunks_mut loop: assignments and every
        // accumulator must match bit for bit.
        let data = gaussian_blobs(1_777, 3, 4, 1.2, 91);
        let init = random_init(&data.points, 4, 92);
        let points = &data.points;
        let cand = Candidates::new(&init);
        let (k, d, n) = (4usize, 3usize, points.rows());

        let mut new_assign = vec![u32::MAX; n];
        let new_stats = iter_reduction(points, &cand, &mut new_assign, REDUCTION_CHUNKS, None);

        let mut old_assign = vec![u32::MAX; n];
        let chunk = n.div_ceil(REDUCTION_CHUNKS).max(1);
        let partials: Vec<IterStats> = old_assign
            .par_chunks_mut(chunk)
            .enumerate()
            .map(|(ci, slots)| {
                let base = ci * chunk;
                let mut changes = 0usize;
                let mut counts = vec![0u64; k];
                let mut sums = vec![0.0f64; k * d];
                for (off, slot) in slots.iter_mut().enumerate() {
                    let row = points.row(base + off);
                    let a = cand.nearest(row);
                    if *slot != a {
                        changes += 1;
                    }
                    *slot = a;
                    counts[a as usize] += 1;
                    let s = &mut sums[a as usize * d..(a as usize + 1) * d];
                    for (acc, &v) in s.iter_mut().zip(row) {
                        *acc += v;
                    }
                }
                IterStats {
                    changes,
                    counts,
                    sums,
                }
            })
            .collect();
        let mut old_stats = IterStats {
            changes: 0,
            counts: vec![0; k],
            sums: vec![0.0; k * d],
        };
        for p in partials {
            old_stats.changes += p.changes;
            for (t, v) in old_stats.counts.iter_mut().zip(p.counts) {
                *t += v;
            }
            for (t, v) in old_stats.sums.iter_mut().zip(p.sums) {
                *t += v;
            }
        }

        assert_eq!(new_assign, old_assign);
        assert_eq!(new_stats.changes, old_stats.changes);
        assert_eq!(new_stats.counts, old_stats.counts);
        assert_eq!(
            new_stats
                .sums
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>(),
            old_stats
                .sums
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>(),
            "partial-sum grouping must be preserved bit for bit"
        );
    }

    #[test]
    fn atomic_f64_add_accumulates() {
        let cell = AtomicU64::new(0.0f64.to_bits());
        (0..1000)
            .into_par_iter()
            .for_each(|_| atomic_f64_add(&cell, 0.5));
        assert_eq!(f64::from_bits(cell.into_inner()), 500.0);
    }

    #[test]
    fn single_point_single_cluster() {
        let p = Matrix::from_rows(&[vec![3.0, 4.0]]);
        for s in [Strategy::Critical, Strategy::Atomic, Strategy::Reduction] {
            let r = fit(&p, &cfg(), p.clone(), s);
            assert_eq!(r.assignments, vec![0]);
            assert_eq!(r.centroids.row(0), &[3.0, 4.0]);
        }
    }

    #[test]
    fn strategies_agree_with_each_other() {
        let data = gaussian_blobs(1_000, 2, 3, 0.8, 77);
        let init = random_init(&data.points, 3, 88);
        let a = fit(&data.points, &cfg(), init.clone(), Strategy::Critical);
        let b = fit(&data.points, &cfg(), init.clone(), Strategy::Atomic);
        let c = fit(&data.points, &cfg(), init, Strategy::Reduction);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(b.assignments, c.assignments);
    }

    use peachy_data::Matrix;
}
