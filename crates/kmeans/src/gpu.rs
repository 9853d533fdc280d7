//! The CUDA leg of the assignment series, on the [`peachy_gpu`] execution
//! model: "For CUDA/OpenCL, students should use thread-blocks and
//! coalesced memory accesses. They then determine the situations when
//! atomic operations or reductions are more profitable."
//!
//! Device memory layout (one flat [`GlobalBuffer`], word offsets below):
//!
//! ```text
//! points      n·d   f64   row-major
//! centroids   k·d   f64
//! assignments n     u64
//! changes     1     u64
//! counts      k     u64
//! sums        k·d   f64
//! ```
//!
//! Each iteration launches one kernel that fuses the assignment phase and
//! the accumulation phase; the tiny centroid update (k·d work) runs on the
//! host, as real small-k CUDA implementations do. Two accumulation
//! strategies are provided for the atomics-vs-reduction comparison:
//!
//! * [`GpuStrategy::Atomic`] — every thread issues `k·d`-independent
//!   global atomic adds (simple, contended);
//! * [`GpuStrategy::BlockReduction`] — per-thread partials in shared
//!   memory, a block-tree merge, then **one** atomic add per word per
//!   block.

use peachy_data::Matrix;
use peachy_gpu::{GlobalBuffer, Kernel, Launch, Phase, ThreadCtx};

use crate::config::{check_inputs, lloyd, IterStats, KMeansConfig, KMeansResult};

/// Accumulation strategy for the update phase on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuStrategy {
    /// Global atomics per point.
    Atomic,
    /// Shared-memory block reduction, then one atomic per block.
    BlockReduction,
}

/// Launch geometry for the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuLaunch {
    /// Number of blocks.
    pub grid: usize,
    /// Threads per block.
    pub block: usize,
}

impl Default for GpuLaunch {
    fn default() -> Self {
        Self { grid: 8, block: 64 }
    }
}

struct Offsets {
    n: usize,
    d: usize,
    k: usize,
    centroids: usize,
    assignments: usize,
    changes: usize,
    counts: usize,
    sums: usize,
}

impl Offsets {
    fn new(n: usize, d: usize, k: usize) -> Self {
        let centroids = n * d;
        let assignments = centroids + k * d;
        let changes = assignments + n;
        let counts = changes + 1;
        let sums = counts + k;
        Self {
            n,
            d,
            k,
            centroids,
            assignments,
            changes,
            counts,
            sums,
        }
    }
    fn total(&self) -> usize {
        self.sums + self.k * self.d
    }
}

/// The fused assign+accumulate kernel.
struct KMeansKernel {
    off: Offsets,
    strategy: GpuStrategy,
}

impl KMeansKernel {
    /// Per-thread shared slice length for the reduction strategy.
    fn slice_len(&self) -> usize {
        1 + self.off.k + self.off.k * self.off.d // changes + counts + sums
    }

    fn assign_point(&self, i: usize, g: &GlobalBuffer) -> (u32, bool) {
        let off = &self.off;
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        for c in 0..off.k {
            let mut d2 = 0.0;
            for j in 0..off.d {
                let diff = g.load(i * off.d + j) - g.load(off.centroids + c * off.d + j);
                d2 += diff * diff;
            }
            if d2 < best_d {
                best_d = d2;
                best = c as u32;
            }
        }
        let old = g.load_u64(off.assignments + i);
        let changed = old != best as u64;
        g.store_u64(off.assignments + i, best as u64);
        (best, changed)
    }
}

impl Kernel for KMeansKernel {
    fn phases(&self) -> usize {
        unreachable!("depends on block_dim")
    }
    fn phases_for(&self, block_dim: usize) -> usize {
        match self.strategy {
            GpuStrategy::Atomic => 1,
            // accumulate + ceil(log2(block)) tree rounds + final atomic.
            GpuStrategy::BlockReduction => {
                1 + (usize::BITS - (block_dim - 1).leading_zeros()) as usize + 1
            }
        }
    }
    fn run(&self, phase: Phase, t: ThreadCtx, shared: &mut [f64], g: &GlobalBuffer) {
        let off = &self.off;
        match self.strategy {
            GpuStrategy::Atomic => {
                let mut i = t.global_id();
                while i < off.n {
                    let (a, changed) = self.assign_point(i, g);
                    if changed {
                        g.atomic_add_u64(off.changes, 1);
                    }
                    g.atomic_add_u64(off.counts + a as usize, 1);
                    for j in 0..off.d {
                        g.atomic_add(off.sums + a as usize * off.d + j, g.load(i * off.d + j));
                    }
                    i += t.grid_span();
                }
            }
            GpuStrategy::BlockReduction => {
                let sl = self.slice_len();
                let rounds = (usize::BITS - (t.block_dim - 1).leading_zeros()) as usize;
                if phase == 0 {
                    // Accumulate into this thread's private shared slice.
                    let base = t.thread * sl;
                    let mut i = t.global_id();
                    while i < off.n {
                        let (a, changed) = self.assign_point(i, g);
                        if changed {
                            shared[base] += 1.0;
                        }
                        shared[base + 1 + a as usize] += 1.0;
                        for j in 0..off.d {
                            shared[base + 1 + off.k + a as usize * off.d + j] +=
                                g.load(i * off.d + j);
                        }
                        i += t.grid_span();
                    }
                } else if phase <= rounds {
                    // Tree-merge slices: active thread adds its partner's.
                    let width = (t.block_dim.next_power_of_two() >> phase).max(1);
                    if t.thread < width && t.thread + width < t.block_dim {
                        let (dst, src) = (t.thread * sl, (t.thread + width) * sl);
                        for w in 0..sl {
                            let v = shared[src + w];
                            shared[dst + w] += v;
                        }
                    }
                } else if t.thread == 0 {
                    // One atomic add per word per block.
                    g.atomic_add_u64(off.changes, shared[0] as u64);
                    for c in 0..off.k {
                        g.atomic_add_u64(off.counts + c, shared[1 + c] as u64);
                    }
                    for w in 0..off.k * off.d {
                        g.atomic_add(off.sums + w, shared[1 + off.k + w]);
                    }
                }
            }
        }
    }
}

/// Run k-means on the simulated device.
pub fn fit_gpu(
    points: &Matrix,
    config: &KMeansConfig,
    init: Matrix,
    strategy: GpuStrategy,
    launch: GpuLaunch,
) -> KMeansResult {
    check_inputs(points, config, &init);
    let (n, d, k) = (points.rows(), points.cols(), init.rows());
    let off = Offsets::new(n, d, k);

    // Device allocation: points + centroids, zero elsewhere; assignments
    // start at an impossible value so iteration 1 counts all changes.
    let mut host = vec![0.0f64; off.total()];
    host[..n * d].copy_from_slice(points.as_slice());
    host[off.centroids..off.centroids + k * d].copy_from_slice(init.as_slice());
    let g = GlobalBuffer::from_f64(&host);
    for i in 0..n {
        g.store_u64(off.assignments + i, u64::MAX);
    }

    let kernel = KMeansKernel {
        off: Offsets::new(n, d, k),
        strategy,
    };
    let shared = match strategy {
        GpuStrategy::Atomic => 0,
        GpuStrategy::BlockReduction => launch.block * kernel.slice_len(),
    };
    lloyd(config, init, |centroids| {
        // Reset accumulators, upload current centroids.
        g.store_u64(off.changes, 0);
        for c in 0..k {
            g.store_u64(off.counts + c, 0);
        }
        for w in 0..k * d {
            g.store(off.sums + w, 0.0);
        }
        for (w, &v) in centroids.as_slice().iter().enumerate() {
            g.store(off.centroids + w, v);
        }

        Launch {
            grid: launch.grid,
            block: launch.block,
            shared,
        }
        .run(&kernel, &g);

        // Read the accumulators back; the (tiny) centroid update runs on
        // the host.
        IterStats {
            changes: g.load_u64(off.changes) as usize,
            counts: (0..k).map(|c| g.load_u64(off.counts + c)).collect(),
            sums: (0..k * d).map(|w| g.load(off.sums + w)).collect(),
        }
    })
    .result(
        (0..n)
            .map(|i| g.load_u64(off.assignments + i) as u32)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_init;
    use crate::seq::fit_seq;
    use peachy_data::synth::gaussian_blobs;

    fn cfg() -> KMeansConfig {
        KMeansConfig {
            max_iters: 40,
            min_changes: 0,
            min_shift: 1e-12,
        }
    }

    #[test]
    fn gpu_atomic_matches_sequential_assignments() {
        let data = gaussian_blobs(1_000, 3, 4, 1.0, 101);
        let init = random_init(&data.points, 4, 102);
        let seq = fit_seq(&data.points, &cfg(), init.clone());
        let gpu = fit_gpu(
            &data.points,
            &cfg(),
            init,
            GpuStrategy::Atomic,
            GpuLaunch::default(),
        );
        assert_eq!(gpu.assignments, seq.assignments);
        assert_eq!(gpu.iterations, seq.iterations);
        assert_eq!(gpu.termination, seq.termination);
    }

    #[test]
    fn gpu_reduction_matches_sequential_assignments() {
        let data = gaussian_blobs(1_000, 3, 4, 1.0, 103);
        let init = random_init(&data.points, 4, 104);
        let seq = fit_seq(&data.points, &cfg(), init.clone());
        let gpu = fit_gpu(
            &data.points,
            &cfg(),
            init,
            GpuStrategy::BlockReduction,
            GpuLaunch::default(),
        );
        assert_eq!(gpu.assignments, seq.assignments);
        assert_eq!(gpu.iterations, seq.iterations);
    }

    #[test]
    fn launch_geometry_does_not_change_answer() {
        let data = gaussian_blobs(500, 2, 3, 0.8, 105);
        let init = random_init(&data.points, 3, 106);
        let reference = fit_gpu(
            &data.points,
            &cfg(),
            init.clone(),
            GpuStrategy::Atomic,
            GpuLaunch { grid: 1, block: 1 },
        );
        for (grid, block) in [(2usize, 16usize), (8, 64), (3, 33)] {
            for strategy in [GpuStrategy::Atomic, GpuStrategy::BlockReduction] {
                let r = fit_gpu(
                    &data.points,
                    &cfg(),
                    init.clone(),
                    strategy,
                    GpuLaunch { grid, block },
                );
                assert_eq!(
                    r.assignments, reference.assignments,
                    "grid={grid} block={block} {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn centroids_close_to_sequential() {
        let data = gaussian_blobs(600, 4, 3, 1.2, 107);
        let init = random_init(&data.points, 3, 108);
        let seq = fit_seq(&data.points, &cfg(), init.clone());
        let gpu = fit_gpu(
            &data.points,
            &cfg(),
            init,
            GpuStrategy::BlockReduction,
            GpuLaunch::default(),
        );
        for c in 0..3 {
            for j in 0..4 {
                assert!((gpu.centroids.get(c, j) - seq.centroids.get(c, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn single_point_single_cluster() {
        let p = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let r = fit_gpu(
            &p,
            &cfg(),
            p.clone(),
            GpuStrategy::Atomic,
            GpuLaunch::default(),
        );
        assert_eq!(r.assignments, vec![0]);
    }

    use peachy_data::Matrix;
}
