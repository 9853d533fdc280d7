//! Configuration, termination criteria and results, and the one Lloyd
//! driver every variant runs.

use std::borrow::Borrow;

use peachy_cluster::ByteSized;
use peachy_data::kernels::dist2;
use peachy_data::Matrix;

/// Stopping thresholds, mirroring the assignment's three criteria: "the
/// program ends if thresholds on the number of iterations, number of
/// cluster changes, or centroid displacement are reached".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Hard cap on iterations.
    pub max_iters: usize,
    /// Stop when an iteration changes at most this many assignments.
    pub min_changes: usize,
    /// Stop when the largest centroid displacement (Euclidean) in an
    /// iteration is at most this.
    pub min_shift: f64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            max_iters: 100,
            min_changes: 0,
            min_shift: 1e-9,
        }
    }
}

/// Why the main loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Hit the iteration cap.
    MaxIters,
    /// Assignment churn fell to `min_changes` or below.
    FewChanges,
    /// Largest centroid displacement fell to `min_shift` or below.
    SmallShift,
}

/// Outcome of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Final centroid positions, one per row.
    pub centroids: Matrix,
    /// Cluster index per point.
    pub assignments: Vec<u32>,
    /// Iterations executed.
    pub iterations: usize,
    /// Which criterion fired.
    pub termination: Termination,
    /// Assignment changes in the final iteration.
    pub last_changes: usize,
    /// Largest centroid displacement in the final iteration.
    pub last_shift: f64,
}

/// The input checks every variant makes before its first pass.
pub(crate) fn check_inputs(points: &Matrix, config: &KMeansConfig, init: &Matrix) {
    assert!(init.rows() >= 1, "need at least one centroid");
    assert!(points.rows() >= 1, "need at least one point");
    assert_eq!(points.cols(), init.cols(), "dimensionality mismatch");
    assert!(config.max_iters >= 1, "need at least one iteration");
}

/// One pass's accumulators: how many assignments changed, and each
/// cluster's member count and coordinate sums (`k × d`, row-major). The
/// variants differ only in how they fill these without racing.
pub(crate) struct IterStats {
    pub(crate) changes: usize,
    pub(crate) counts: Vec<u64>,
    pub(crate) sums: Vec<f64>,
}

impl IterStats {
    /// Empty accumulators for `k` clusters in `d` dimensions.
    pub(crate) fn zeros(k: usize, d: usize) -> Self {
        Self {
            changes: 0,
            counts: vec![0; k],
            sums: vec![0.0; k * d],
        }
    }

    /// Count `row` as a member of cluster `a`.
    #[inline]
    pub(crate) fn add(&mut self, a: u32, row: &[f64]) {
        let (a, d) = (a as usize, row.len());
        self.counts[a] += 1;
        for (acc, &v) in self.sums[a * d..(a + 1) * d].iter_mut().zip(row) {
            *acc += v;
        }
    }

    /// Element-wise sum of two partial accumulators, `self` on the left.
    pub(crate) fn merge(mut self, other: Self) -> Self {
        self.changes += other.changes;
        for (t, v) in self.counts.iter_mut().zip(other.counts) {
            *t += v;
        }
        for (t, v) in self.sums.iter_mut().zip(other.sums) {
            *t += v;
        }
        self
    }
}

impl ByteSized for IterStats {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<usize>() + 8 * (self.counts.len() + self.sums.len())
    }
}

/// Where [`lloyd`] stopped: a [`KMeansResult`] short of its assignments,
/// which live wherever the variant's step keeps them.
pub(crate) struct Lloyd {
    centroids: Matrix,
    iterations: usize,
    termination: Termination,
    last_changes: usize,
    last_shift: f64,
}

impl Lloyd {
    /// The result, with the step's final assignments.
    pub(crate) fn result(self, assignments: Vec<u32>) -> KMeansResult {
        KMeansResult {
            centroids: self.centroids,
            assignments,
            iterations: self.iterations,
            termination: self.termination,
            last_changes: self.last_changes,
            last_shift: self.last_shift,
        }
    }
}

/// Lloyd's iteration, written once. `step` runs one assignment phase
/// against the current centroids and returns its accumulators; the driver
/// turns them into the cluster means (an empty cluster keeps its centroid),
/// measures the largest shift and checks the thresholds in order: few
/// changes, small shift, max iterations.
pub(crate) fn lloyd<S: Borrow<IterStats>>(
    config: &KMeansConfig,
    mut centroids: Matrix,
    mut step: impl FnMut(&Matrix) -> S,
) -> Lloyd {
    let d = centroids.cols();
    let mut iterations = 0;
    loop {
        let stats = step(&centroids);
        let stats = stats.borrow();
        let mut shift: f64 = 0.0;
        for (c, &count) in stats.counts.iter().enumerate() {
            if count == 0 {
                continue; // empty cluster: centroid stays put
            }
            let inv = 1.0 / count as f64;
            let new: Vec<f64> = stats.sums[c * d..(c + 1) * d]
                .iter()
                .map(|s| s * inv)
                .collect();
            shift = shift.max(dist2(&new, centroids.row(c)).sqrt());
            centroids.row_mut(c).copy_from_slice(&new);
        }
        iterations += 1;

        let termination = if stats.changes <= config.min_changes {
            Termination::FewChanges
        } else if shift <= config.min_shift {
            Termination::SmallShift
        } else if iterations >= config.max_iters {
            Termination::MaxIters
        } else {
            continue;
        };
        return Lloyd {
            centroids,
            iterations,
            termination,
            last_changes: stats.changes,
            last_shift: shift,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = KMeansConfig::default();
        assert!(c.max_iters > 0);
        assert!(c.min_shift >= 0.0);
    }

    #[test]
    fn every_variant_rejects_zero_iterations() {
        use crate::{fit, fit_buffers, fit_distributed, fit_gpu, fit_seq};
        use crate::{GpuLaunch, GpuStrategy, Strategy};
        let p = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let config = KMeansConfig {
            max_iters: 0,
            ..KMeansConfig::default()
        };
        let runs: [&dyn Fn() -> KMeansResult; 7] = [
            &|| fit_seq(&p, &config, p.clone()),
            &|| fit(&p, &config, p.clone(), Strategy::Critical),
            &|| fit(&p, &config, p.clone(), Strategy::Atomic),
            &|| fit(&p, &config, p.clone(), Strategy::Reduction),
            &|| fit_buffers(&p, &config, p.clone()),
            &|| {
                fit_gpu(
                    &p,
                    &config,
                    p.clone(),
                    GpuStrategy::Atomic,
                    GpuLaunch::default(),
                )
            },
            &|| fit_distributed(&p, &config, p.clone(), 2),
        ];
        for (i, run) in runs.iter().enumerate() {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("max_iters = 0 must be rejected");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "need at least one iteration", "variant {i}");
        }
    }
}
