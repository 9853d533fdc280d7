//! E13: the flat-vs-blocked kernel ablation — how much of the "as fast as
//! the hardware allows" budget the shared kernel layer recovers over the
//! naïve scalar loops, mirroring the flat-vs-tree collectives ablation.
//!
//! The headline comparison is the k-means assignment shape (n=50k, d=16,
//! k=64): scalar per-pair argmin vs the lane-blocked decomposed scan
//! (serial) vs the fused rayon batch argmin. The GEMM and k-NN scan
//! kernels get the same flat-vs-blocked treatment on their natural shapes;
//! the scan adds the packed panel layout the served k-NN index uses.

use peachy::data::kernels::{
    argmin_dist2, argmin_dist2_ref, dist2, dist2_scan, dist2_scan_panels, matmul_nt, matmul_nt_ref,
    pairwise_dist2, pairwise_dist2_ref, Candidates, Panels,
};
use peachy::data::synth::gaussian_blobs;
use peachy_bench::harness::Harness;

/// The acceptance-criterion shape: blocked+rayon argmin must beat the
/// scalar nearest-centroid loop by ≥2× here.
fn bench_argmin(c: &mut Harness) {
    let x = gaussian_blobs(50_000, 16, 8, 1.0, 41).points;
    let cents = gaussian_blobs(64, 16, 8, 1.0, 42).points;
    let mut group = c.benchmark_group("E13_kernel_argmin");
    group.sample_size(10);
    group.bench_function("scalar_loop", |b| {
        b.iter(|| argmin_dist2_ref(&x, &cents).len())
    });
    group.bench_function("blocked_serial", |b| {
        // The decomposed lane-blocked scan without rayon: one Candidates
        // per call (hoisted norms), queried row by row.
        b.iter(|| {
            let cand = Candidates::new(&cents);
            (0..x.rows())
                .map(|i| cand.nearest(x.row(i)) as u64)
                .sum::<u64>()
        })
    });
    group.bench_function("blocked_rayon", |b| {
        b.iter(|| argmin_dist2(&x, &cents).len())
    });
}

fn bench_pairwise(c: &mut Harness) {
    let x = gaussian_blobs(8_000, 16, 8, 1.0, 43).points;
    let cents = gaussian_blobs(64, 16, 8, 1.0, 44).points;
    let mut group = c.benchmark_group("E13_kernel_pairwise");
    group.sample_size(10);
    group.bench_function("flat", |b| b.iter(|| pairwise_dist2_ref(&x, &cents).rows()));
    group.bench_function("blocked_rayon", |b| {
        b.iter(|| pairwise_dist2(&x, &cents).rows())
    });
}

/// The k-NN hot path: streaming distances for one query over a large
/// database, scalar pair loop vs the lane-blocked exact scan on row-major
/// rows vs the same scan on the packed panel layout.
fn bench_scan(c: &mut Harness) {
    let db = gaussian_blobs(200_000, 16, 8, 1.0, 45).points;
    let q = gaussian_blobs(1, 16, 8, 1.0, 46).points;
    let query: Vec<f64> = q.row(0).to_vec();
    let mut group = c.benchmark_group("E13_kernel_scan");
    group.sample_size(10);
    group.bench_function("scalar_loop", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..db.rows() {
                acc += dist2(db.row(i), &query);
            }
            acc
        })
    });
    group.bench_function("blocked_lanes", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            dist2_scan(&db, 0..db.rows(), &query, |_, d2| acc += d2);
            acc
        })
    });
    let panels = Panels::new(db);
    group.bench_function("panels", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            dist2_scan_panels(&panels, 0..panels.rows(), &query, |_, d2| acc += d2);
            acc
        })
    });
}

/// The NN batch forward shape: activations × weightsᵀ.
fn bench_matmul(c: &mut Harness) {
    let a = gaussian_blobs(8_192, 64, 8, 1.0, 47).points;
    let w = gaussian_blobs(32, 64, 8, 1.0, 48).points;
    let bias = vec![0.1f64; 32];
    let mut group = c.benchmark_group("E13_kernel_matmul");
    group.sample_size(10);
    group.bench_function("flat", |b| {
        b.iter(|| matmul_nt_ref(&a, w.as_slice(), 32, Some(&bias)).rows())
    });
    group.bench_function("blocked_rayon", |b| {
        b.iter(|| matmul_nt(&a, w.as_slice(), 32, Some(&bias)).rows())
    });
}

fn main() {
    let mut c = Harness::from_args();
    bench_argmin(&mut c);
    bench_pairwise(&mut c);
    bench_scan(&mut c);
    bench_matmul(&mut c);
}
