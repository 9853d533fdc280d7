//! Blocked, rayon-parallel compute kernels for the distance/GEMM hot paths.
//!
//! Every distance-heavy assignment in the suite — the k-means assignment
//! phase, brute-force k-NN, inertia, and the ensemble NN forward pass —
//! bottoms out in a handful of dense kernels. This module is their single
//! home; no scalar distance loop should live anywhere else (call sites use
//! these functions). The kernels come in two numeric families with different
//! equivalence guarantees:
//!
//! * **Exact family** — [`dist2`], [`dist2_scan`], [`dist2_scan_panels`]
//!   over [`Panels`], [`assigned_dist2_sum`], [`matvec`], [`matvec_t`],
//!   [`matmul_nt`]. These evaluate the textbook sums (Σ(x−y)², Σw·x) with
//!   the *same left-to-right per-pair accumulation order* as the naïve
//!   scalar loops, but blocked into [`LANES`] independent accumulator
//!   chains so the CPU can overlap the add latency (ILP).
//!   Because each pair's chain is untouched, results are **bit-identical**
//!   to the scalar reference for every input — which is what lets the
//!   k-NN suite keep its "all five implementations agree exactly"
//!   property tests (the simulated-GPU classifier computes (x−y)² inline
//!   on its own device model and cannot share this code).
//!
//! * **Decomposed family** — [`Candidates`], [`argmin_dist2`],
//!   [`pairwise_dist2`]. These use the dot-product decomposition
//!   ‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖², hoisting the candidate norms ‖c‖²
//!   out of the inner loop so one query row costs a k-wide GEMV instead
//!   of k subtract-square passes. Values differ from the exact family by
//!   rounding (≲ 1 ulp of the norm scale), so this family is used only
//!   where *every* consumer routes through it — the k-means assignment
//!   step across all strategies (`seq`, `strategies`, `distributed`,
//!   `locality` all share [`Candidates`], so their cross-strategy
//!   bit-equality tests still hold).
//!
//! **Panels.** On a row-major matrix the [`LANES`] chains of
//! [`dist2_scan`] read one coordinate of eight rows at a stride of `d`
//! values, which no vector load can gather, so the lane loop compiles to
//! scalar code. [`Panels`] stores each full eight-row block
//! dimension-major instead, packed in place inside the matrix's own
//! buffer: the eight values one coordinate step needs are adjacent, and
//! [`dist2_scan_panels`] runs the same chains as vector loads and vector
//! arithmetic, with the same bits — compiled for AVX2 where the running
//! CPU has it, through the module's one `unsafe` call. The served k-NN
//! database is packed this way; the row-major scan stays the reference
//! the k-NN laws and the taught algorithms use.
//!
//! **Tie-breaking.** All argmin kernels scan candidates in ascending index
//! order with a strict `<` comparison, so on exactly equal keys the lowest
//! index wins — the same documented contract as the scalar reference. The
//! decomposition preserves this for the ties that matter for determinism:
//! duplicate candidate rows produce bitwise-equal scores g(j) = ‖c_j‖² −
//! 2·x·c_j (g is a deterministic function of the candidate row), so they
//! still tie exactly and break low. Geometric ties between *distinct*
//! candidates may resolve differently from the exact form by ≤ 1 ulp of
//! rounding; the property tests bound that window (see
//! `tests/proptest_kernels.rs`).
//!
//! **Blocking scheme.** Batch kernels parallelize over [`ROW_BLOCK`]-row
//! chunks of the query matrix with rayon (one task per chunk, merged in
//! chunk order — deterministic for any pool size), and tile the candidate
//! axis in [`CAND_BLOCK`]-row cache blocks scanned through a [`LANES`]-wide
//! register micro-kernel (one accumulator chain per candidate row, shared
//! broadcast of the query element). `CAND_BLOCK` is a multiple of `LANES`,
//! so lane-group boundaries are identical whether a range is scanned whole
//! or in cache blocks — per-row results never depend on the blocking.

use std::ops::Range;

use peachy_par::prelude::*;

use crate::matrix::Matrix;

/// Query rows per rayon task (and per cache block) in the batch kernels.
pub const ROW_BLOCK: usize = 128;

/// Candidate rows per cache block in the batch argmin; must be a multiple
/// of [`LANES`] so lane groups align across block boundaries.
pub const CAND_BLOCK: usize = 256;

/// Width of the register micro-tile: independent accumulator chains the
/// inner loops keep in flight.
pub const LANES: usize = 8;

/// Squared Euclidean distance between two equal-length slices — the
/// scalar reference pair kernel (Θ(d), single accumulator chain).
///
/// The square root is deliberately omitted (monotone, so nearest-neighbour
/// ordering is unchanged). Every blocked kernel in the exact family
/// reproduces this function's accumulation order bit-for-bit.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Dot product with a single left-to-right accumulator chain — the
/// reference order every decomposed kernel reproduces per pair.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// ‖row‖² for every row of `m` (always `m.rows()` long, even for
/// zero-width matrices).
pub fn row_norms2(m: &Matrix) -> Vec<f64> {
    (0..m.rows()).map(|i| dot(m.row(i), m.row(i))).collect()
}

/// Visit `(i, dist2(rows.row(i), x))` for every `i` in `range`, in
/// ascending order.
///
/// [`LANES`] consecutive rows are accumulated concurrently (independent
/// chains → instruction-level parallelism), but each pair's sum runs
/// left-to-right exactly like [`dist2`], so every visited value is
/// **bit-identical** to the scalar loop. This is the k-NN hot path: the
/// caller streams the distances into a bounded heap or a sort buffer
/// without materializing anything per block.
pub fn dist2_scan(
    rows: &Matrix,
    range: Range<usize>,
    x: &[f64],
    mut visit: impl FnMut(usize, f64),
) {
    let d = rows.cols();
    debug_assert_eq!(x.len(), d);
    debug_assert!(range.end <= rows.rows());
    let flat = rows.as_slice();
    let mut i = range.start;
    while i + LANES <= range.end {
        let block = &flat[i * d..(i + LANES) * d];
        let mut acc = [0.0f64; LANES];
        for (p, &xp) in x.iter().enumerate() {
            for (l, a) in acc.iter_mut().enumerate() {
                let diff = block[l * d + p] - xp;
                *a += diff * diff;
            }
        }
        for (l, &a) in acc.iter().enumerate() {
            visit(i + l, a);
        }
        i += LANES;
    }
    for j in i..range.end {
        visit(j, dist2(rows.row(j), x));
    }
}

/// A [`Matrix`] repacked for [`dist2_scan_panels`]: each full block of
/// [`LANES`] rows is stored dimension-major, so `panel[p * LANES + l]` is
/// coordinate `p` of the block's row `l`, and one coordinate of all
/// `LANES` rows is one contiguous run. The last `rows % LANES` rows stay
/// row-major.
///
/// Packing is in place: the matrix's own buffer is transposed block by
/// block through one `LANES × cols` tile, so the packed rows cost no more
/// memory than the matrix they came from.
pub struct Panels {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Panels {
    /// Repack `m`'s buffer in place (Θ(rows·cols)).
    pub fn new(m: Matrix) -> Self {
        let (mut data, rows, cols) = m.into_parts();
        let block_len = LANES * cols;
        let mut tile = vec![0.0; block_len];
        for b in 0..rows / LANES {
            let block = &mut data[b * block_len..(b + 1) * block_len];
            tile.copy_from_slice(block);
            for l in 0..LANES {
                for p in 0..cols {
                    block[p * LANES + l] = tile[l * cols + p];
                }
            }
        }
        Self { data, rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (dimensions).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// Visit `(i, dist2(row i, x))` for every `i` in `range`, in ascending
/// order — [`dist2_scan`] on the panel layout.
///
/// `range` must not cut a panel: it starts at a multiple of [`LANES`] and
/// ends at one or inside the row-major tail, so a scan carved into such
/// ranges visits exactly what the whole scan visits.
///
/// Each coordinate step loads one contiguous run of [`LANES`] values and
/// updates [`LANES`] independent chains, which the compiler turns into
/// vector loads and arithmetic; [`dist2_scan`] reads the same lanes a row
/// apart and stays scalar. Each chain still adds its squared differences
/// left to right from zero, so every visited value is **bit-identical**
/// to [`dist2`] and to [`dist2_scan`]. On x86-64 CPUs with AVX2 the same
/// body runs compiled for AVX2 (four lanes per instruction instead of
/// two), chosen at run time; AVX2 adds no fused multiply-add, so the bits
/// do not change.
pub fn dist2_scan_panels(
    rows: &Panels,
    range: Range<usize>,
    x: &[f64],
    visit: impl FnMut(usize, f64),
) {
    let full = rows.rows / LANES * LANES;
    assert!(
        range.start.is_multiple_of(LANES)
            && (range.end.is_multiple_of(LANES) || range.end > full)
            && range.end <= rows.rows,
        "panel scan range {range:?} cuts a panel of a {}-row matrix",
        rows.rows
    );
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `scan_panels_avx2` requires only that the running CPU
        // supports AVX2, which the detection just above established.
        return unsafe { scan_panels_avx2(rows, range, x, visit) };
    }
    scan_panels(rows, range, x, visit)
}

/// [`scan_panels`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_panels_avx2(rows: &Panels, range: Range<usize>, x: &[f64], visit: impl FnMut(usize, f64)) {
    scan_panels(rows, range, x, visit)
}

/// The body of [`dist2_scan_panels`], inlined into each instantiation so
/// that each is compiled for its own target features.
#[inline(always)]
fn scan_panels(rows: &Panels, range: Range<usize>, x: &[f64], mut visit: impl FnMut(usize, f64)) {
    let d = rows.cols;
    debug_assert_eq!(x.len(), d);
    let panels_end = range.end.min(rows.rows / LANES * LANES);
    let mut i = range.start;
    while i < panels_end {
        let panel = &rows.data[i * d..(i + LANES) * d];
        let mut acc = [0.0f64; LANES];
        for (col, &xp) in panel.as_chunks::<LANES>().0.iter().zip(x) {
            for (a, &v) in acc.iter_mut().zip(col) {
                let diff = v - xp;
                *a += diff * diff;
            }
        }
        for (l, &a) in acc.iter().enumerate() {
            visit(i + l, a);
        }
        i += LANES;
    }
    for j in i..range.end {
        visit(j, dist2(&rows.data[j * d..(j + 1) * d], x));
    }
}

/// `Σᵢ dist2(points.row(i), targets.row(assignments[i]))` — the inertia /
/// objective kernel.
///
/// Rayon over fixed [`ROW_BLOCK`] chunks with block partials summed in
/// chunk order, so the total is deterministic for any thread-pool size;
/// each pair is the exact scalar [`dist2`].
pub fn assigned_dist2_sum(points: &Matrix, targets: &Matrix, assignments: &[u32]) -> f64 {
    assert_eq!(points.rows(), assignments.len(), "one assignment per row");
    let partials: Vec<f64> = assignments
        .par_chunks(ROW_BLOCK)
        .enumerate()
        .map(|(bi, chunk)| {
            let base = bi * ROW_BLOCK;
            let mut acc = 0.0;
            for (off, &a) in chunk.iter().enumerate() {
                acc += dist2(points.row(base + off), targets.row(a as usize));
            }
            acc
        })
        .collect();
    partials.iter().sum()
}

/// A candidate set prepared for repeated nearest-index queries: the rows
/// plus their hoisted ‖c‖² norms (the decomposed family's amortized part).
///
/// Build one per centroid set (k-means builds one per iteration) and reuse
/// it across every query row; [`Candidates::nearest`] on one row and
/// [`Candidates::assign_into`] on a whole matrix produce identical indices
/// row-for-row, regardless of blocking or thread count.
pub struct Candidates<'a> {
    rows: &'a Matrix,
    norms2: Vec<f64>,
}

impl<'a> Candidates<'a> {
    /// Prepare a candidate set (Θ(k·d): one pass for the norms).
    pub fn new(rows: &'a Matrix) -> Self {
        Self {
            norms2: row_norms2(rows),
            rows,
        }
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.rows()
    }

    /// Whether the candidate set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Dimensionality of the candidates.
    #[inline]
    pub fn dims(&self) -> usize {
        self.rows.cols()
    }

    /// The hoisted squared norms, one per candidate row.
    #[inline]
    pub fn norms2(&self) -> &[f64] {
        &self.norms2
    }

    /// Scan scores g(j) = ‖c_j‖² − 2·x·c_j for `j` in `range` (ascending),
    /// folding them into `state = (best_g, best_index)` with strict `<`.
    ///
    /// argmin over g equals argmin over distance because ‖x‖² is a
    /// constant offset per query row. The per-pair dot product runs
    /// left-to-right (identical to [`dot`]) in both the lane micro-kernel
    /// and the tail, so the visited score sequence — and therefore the
    /// winning index — is independent of how `range` was carved up, as
    /// long as cut points are multiples of [`LANES`].
    fn fold_scores(&self, x: &[f64], range: Range<usize>, state: &mut (f64, u32)) {
        let d = self.rows.cols();
        debug_assert_eq!(x.len(), d);
        let flat = self.rows.as_slice();
        let mut j = range.start;
        while j + LANES <= range.end {
            let block = &flat[j * d..(j + LANES) * d];
            let mut acc = [0.0f64; LANES];
            for (p, &xp) in x.iter().enumerate() {
                for (l, a) in acc.iter_mut().enumerate() {
                    *a += xp * block[l * d + p];
                }
            }
            for (l, &a) in acc.iter().enumerate() {
                let g = self.norms2[j + l] - 2.0 * a;
                if g < state.0 {
                    *state = (g, (j + l) as u32);
                }
            }
            j += LANES;
        }
        for jj in j..range.end {
            let g = self.norms2[jj] - 2.0 * dot(x, self.rows.row(jj));
            if g < state.0 {
                *state = (g, jj as u32);
            }
        }
    }

    /// Index of the nearest candidate to `x` (ties break to the lowest
    /// index). One Θ(k·d) lane-blocked pass; norms are already hoisted.
    pub fn nearest(&self, x: &[f64]) -> u32 {
        assert!(!self.is_empty(), "no candidates");
        let mut state = (f64::INFINITY, 0u32);
        self.fold_scores(x, 0..self.len(), &mut state);
        state.1
    }

    /// Nearest index for every row of `x`, written into `out` — the fused
    /// batch argmin: rayon over [`ROW_BLOCK`] row chunks, candidates tiled
    /// in [`CAND_BLOCK`] cache blocks, no n×k distance matrix ever
    /// materialized. Row `i`'s result is bit-identical to
    /// `self.nearest(x.row(i))`.
    pub fn assign_into(&self, x: &Matrix, out: &mut [u32]) {
        assert_eq!(x.rows(), out.len(), "one output slot per row");
        assert_eq!(x.cols(), self.dims(), "dimensionality mismatch");
        assert!(!self.is_empty(), "no candidates");
        let k = self.len();
        let d = x.cols();
        let flat = x.as_slice();
        out.par_chunks_mut(ROW_BLOCK)
            .enumerate()
            .for_each(|(bi, chunk)| {
                let r0 = bi * ROW_BLOCK;
                let mut state = vec![(f64::INFINITY, 0u32); chunk.len()];
                let mut j0 = 0;
                while j0 < k {
                    let jend = (j0 + CAND_BLOCK).min(k);
                    for (ri, st) in state.iter_mut().enumerate() {
                        let row = &flat[(r0 + ri) * d..(r0 + ri + 1) * d];
                        self.fold_scores(row, j0..jend, st);
                    }
                    j0 = jend;
                }
                for (slot, st) in chunk.iter_mut().zip(&state) {
                    *slot = st.1;
                }
            });
    }

    /// Convenience allocating form of [`Candidates::assign_into`].
    pub fn assign(&self, x: &Matrix) -> Vec<u32> {
        let mut out = vec![0u32; x.rows()];
        self.assign_into(x, &mut out);
        out
    }

    /// Decomposed squared distances of one query row to candidates in
    /// `range`, written to `out[j - range.start]` — clamped at zero
    /// (cancellation can produce tiny negatives).
    fn dists2_range_into(&self, x: &[f64], xnorm2: f64, range: Range<usize>, out: &mut [f64]) {
        debug_assert_eq!(out.len(), range.len());
        let d = self.rows.cols();
        let flat = self.rows.as_slice();
        let mut j = range.start;
        while j + LANES <= range.end {
            let block = &flat[j * d..(j + LANES) * d];
            let mut acc = [0.0f64; LANES];
            for (p, &xp) in x.iter().enumerate() {
                for (l, a) in acc.iter_mut().enumerate() {
                    *a += xp * block[l * d + p];
                }
            }
            for (l, &a) in acc.iter().enumerate() {
                let d2 = xnorm2 + (self.norms2[j + l] - 2.0 * a);
                out[j + l - range.start] = d2.max(0.0);
            }
            j += LANES;
        }
        for jj in j..range.end {
            let d2 = xnorm2 + (self.norms2[jj] - 2.0 * dot(x, self.rows.row(jj)));
            out[jj - range.start] = d2.max(0.0);
        }
    }
}

/// Nearest-candidate index per row of `x` — the fused batch argmin over
/// the decomposition (see [`Candidates`]). Never materializes the n×k
/// distance matrix.
pub fn argmin_dist2(x: &Matrix, c: &Matrix) -> Vec<u32> {
    Candidates::new(c).assign(x)
}

/// Scalar reference for [`argmin_dist2`]: per-row, per-candidate
/// [`dist2`] with strict `<` in ascending index order. Kept (and exported)
/// purely for equivalence testing and the flat-vs-blocked ablation bench.
pub fn argmin_dist2_ref(x: &Matrix, c: &Matrix) -> Vec<u32> {
    assert_eq!(x.cols(), c.cols(), "dimensionality mismatch");
    assert!(!c.is_empty(), "no candidates");
    (0..x.rows())
        .map(|i| {
            let row = x.row(i);
            let mut best = 0u32;
            let mut best_d = f64::INFINITY;
            for j in 0..c.rows() {
                let d2 = dist2(row, c.row(j));
                if d2 < best_d {
                    best_d = d2;
                    best = j as u32;
                }
            }
            best
        })
        .collect()
}

/// Full n×k matrix of squared distances between the rows of `x` and the
/// rows of `c`, via the ‖x‖² − 2x·c + ‖c‖² decomposition: rayon over row
/// blocks, candidates in cache blocks, entries clamped at zero.
pub fn pairwise_dist2(x: &Matrix, c: &Matrix) -> Matrix {
    assert_eq!(x.cols(), c.cols(), "dimensionality mismatch");
    let n = x.rows();
    let k = c.rows();
    if n == 0 || k == 0 {
        return Matrix::zeros(n, k);
    }
    let cand = Candidates::new(c);
    let xnorms = row_norms2(x);
    let d = x.cols();
    let flat = x.as_slice();
    let mut data = vec![0.0f64; n * k];
    data.par_chunks_mut(ROW_BLOCK * k)
        .enumerate()
        .for_each(|(bi, chunk)| {
            let r0 = bi * ROW_BLOCK;
            let mut j0 = 0;
            while j0 < k {
                let jend = (j0 + CAND_BLOCK).min(k);
                for (ri, orow) in chunk.chunks_mut(k).enumerate() {
                    let i = r0 + ri;
                    let row = &flat[i * d..(i + 1) * d];
                    cand.dists2_range_into(row, xnorms[i], j0..jend, &mut orow[j0..jend]);
                }
                j0 = jend;
            }
        });
    Matrix::from_vec(n, k, data)
}

/// Scalar reference for [`pairwise_dist2`] (exact Σ(x−y)² entries).
pub fn pairwise_dist2_ref(x: &Matrix, c: &Matrix) -> Matrix {
    assert_eq!(x.cols(), c.cols(), "dimensionality mismatch");
    let mut out = Matrix::zeros(x.rows(), c.rows());
    for i in 0..x.rows() {
        for j in 0..c.rows() {
            out.set(i, j, dist2(x.row(i), c.row(j)));
        }
    }
    out
}

/// Dense GEMV, `out = W·x (+ bias)`: `w` is `rows × cols` row-major.
///
/// Blocked over [`LANES`] output rows with independent accumulator
/// chains; each output element is `bias[o]` followed by the products in
/// ascending column order — bit-identical to the naïve two-loop version
/// (and to what `ensemble::nn` computed before it was rewired here).
pub fn matvec(
    w: &[f64],
    rows: usize,
    cols: usize,
    x: &[f64],
    bias: Option<&[f64]>,
    out: &mut Vec<f64>,
) {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(x.len(), cols, "input width mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), rows, "bias width mismatch");
    }
    out.clear();
    out.resize(rows, 0.0);
    matvec_into(w, rows, cols, x, bias, out);
}

/// The non-allocating core of [`matvec`]; `out` must be `rows` long.
fn matvec_into(
    w: &[f64],
    rows: usize,
    cols: usize,
    x: &[f64],
    bias: Option<&[f64]>,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), rows);
    let mut o = 0;
    while o + LANES <= rows {
        let block = &w[o * cols..(o + LANES) * cols];
        let mut acc = [0.0f64; LANES];
        if let Some(b) = bias {
            acc.copy_from_slice(&b[o..o + LANES]);
        }
        for (p, &xp) in x.iter().enumerate() {
            for (l, a) in acc.iter_mut().enumerate() {
                *a += block[l * cols + p] * xp;
            }
        }
        out[o..o + LANES].copy_from_slice(&acc);
        o += LANES;
    }
    for oo in o..rows {
        let row = &w[oo * cols..(oo + 1) * cols];
        let mut a = bias.map_or(0.0, |b| b[oo]);
        for (wi, xi) in row.iter().zip(x) {
            a += wi * xi;
        }
        out[oo] = a;
    }
}

/// Transposed GEMV, `out = Wᵀ·y`: accumulates row contributions in
/// ascending row order — bit-identical to the naïve nested loop the NN
/// backward pass used (`out[p] += y[o]·w[o][p]`, `o` outer).
pub fn matvec_t(w: &[f64], rows: usize, cols: usize, y: &[f64], out: &mut Vec<f64>) {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(y.len(), rows, "input width mismatch");
    out.clear();
    out.resize(cols, 0.0);
    for (o, &yo) in y.iter().enumerate() {
        let row = &w[o * cols..(o + 1) * cols];
        for (op, wi) in out.iter_mut().zip(row) {
            *op += yo * wi;
        }
    }
}

/// Dense GEMM against a transposed right operand, `A·Wᵀ (+ bias)`:
/// `a` is n×d, `w` is `w_rows × d` row-major, result is n×`w_rows`.
///
/// This is the batch NN forward step (activations × weightsᵀ). Rayon over
/// [`ROW_BLOCK`] row chunks; each output element reproduces [`matvec`]'s
/// accumulation order exactly, so a batched forward pass is bit-identical
/// to n single-row passes.
pub fn matmul_nt(a: &Matrix, w: &[f64], w_rows: usize, bias: Option<&[f64]>) -> Matrix {
    let n = a.rows();
    let d = a.cols();
    assert_eq!(w.len(), w_rows * d, "weight shape mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), w_rows, "bias width mismatch");
    }
    if n == 0 || w_rows == 0 {
        return Matrix::zeros(n, w_rows);
    }
    let flat = a.as_slice();
    let mut data = vec![0.0f64; n * w_rows];
    data.par_chunks_mut(ROW_BLOCK * w_rows)
        .enumerate()
        .for_each(|(bi, chunk)| {
            let r0 = bi * ROW_BLOCK;
            for (ri, orow) in chunk.chunks_mut(w_rows).enumerate() {
                let i = r0 + ri;
                matvec_into(w, w_rows, d, &flat[i * d..(i + 1) * d], bias, orow);
            }
        });
    Matrix::from_vec(n, w_rows, data)
}

/// Scalar reference for [`matmul_nt`] (same accumulation order, no
/// blocking, no rayon) — for equivalence tests and the ablation bench.
pub fn matmul_nt_ref(a: &Matrix, w: &[f64], w_rows: usize, bias: Option<&[f64]>) -> Matrix {
    let n = a.rows();
    let d = a.cols();
    assert_eq!(w.len(), w_rows * d, "weight shape mismatch");
    let mut out = Matrix::zeros(n, w_rows);
    for i in 0..n {
        for o in 0..w_rows {
            let mut acc = bias.map_or(0.0, |b| b[o]);
            for (wi, xi) in w[o * d..(o + 1) * d].iter().zip(a.row(i)) {
                acc += wi * xi;
            }
            out.set(i, o, acc);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::gaussian_blobs;

    fn toy(n: usize, d: usize, seed: u64) -> Matrix {
        // Deterministic continuous data without pulling in a PRNG dep here.
        let mut v = Vec::with_capacity(n * d);
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for _ in 0..n * d {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            v.push(((s >> 11) as f64 / (1u64 << 53) as f64) * 8.0 - 4.0);
        }
        Matrix::from_vec(n, d, v)
    }

    #[test]
    fn dist2_matches_hand_values() {
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist2(&[1.0], &[1.0]), 0.0);
        assert_eq!(dist2(&[], &[]), 0.0);
    }

    #[test]
    fn dist2_scan_bit_identical_to_scalar() {
        // Sizes straddle the LANES boundary, including 0, 1 and non-multiples.
        for n in [0usize, 1, 7, 8, 9, 31] {
            for d in [0usize, 1, 3, 16] {
                let rows = toy(n, d, (n * 31 + d) as u64);
                let x = toy(1, d, 99);
                let mut seen = Vec::new();
                dist2_scan(&rows, 0..n, x.row(0), |i, v| seen.push((i, v)));
                assert_eq!(seen.len(), n);
                let mut packed = Vec::new();
                dist2_scan_panels(&Panels::new(rows.clone()), 0..n, x.row(0), |i, v| {
                    packed.push((i, v.to_bits()))
                });
                let bits: Vec<(usize, u64)> = seen.iter().map(|&(i, v)| (i, v.to_bits())).collect();
                assert_eq!(packed, bits, "panels n={n} d={d}");
                for (i, v) in seen {
                    // Bitwise equality, not approximate.
                    assert_eq!(v, dist2(rows.row(i), x.row(0)), "n={n} d={d} i={i}");
                }
            }
        }
    }

    #[test]
    fn dist2_scan_subrange_matches_full() {
        let rows = toy(30, 5, 3);
        let x = toy(1, 5, 4);
        let mut full = vec![0.0; 30];
        dist2_scan(&rows, 0..30, x.row(0), |i, v| full[i] = v);
        let mut part = Vec::new();
        dist2_scan(&rows, 11..23, x.row(0), |i, v| part.push((i, v)));
        for (i, v) in part {
            assert_eq!(v, full[i]);
        }
    }

    #[test]
    fn dispatched_panel_scan_matches_portable_body() {
        // On an AVX2 host this compares the two instantiations; elsewhere
        // the dispatched scan is the portable body itself. The shapes are
        // ragged, an exact multiple of LANES, and d = 1.
        for (n, d) in [(5 * LANES + 3, 16), (4 * LANES, 5), (3 * LANES + 6, 1)] {
            let rows = Panels::new(toy(n, d, (n * 7 + d) as u64));
            let x = toy(1, d, 5);
            let full = n / LANES * LANES;
            let mid_tail = full + (n - full).div_ceil(2);
            // Whole, ending on a panel, only the tail, and from a later
            // panel into the middle of the tail.
            for range in [0..n, 0..full, 2 * LANES..full, full..n, LANES..mid_tail] {
                let mut portable = Vec::new();
                scan_panels(&rows, range.clone(), x.row(0), |i, v| {
                    portable.push((i, v.to_bits()))
                });
                let mut dispatched = Vec::new();
                dist2_scan_panels(&rows, range.clone(), x.row(0), |i, v| {
                    dispatched.push((i, v.to_bits()))
                });
                assert_eq!(dispatched, portable, "n={n} d={d} {range:?}");
                let rows_seen: Vec<usize> = portable.iter().map(|&(i, _)| i).collect();
                assert_eq!(rows_seen, range.collect::<Vec<_>>(), "n={n} d={d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cuts a panel")]
    fn panel_scan_rejects_a_range_inside_a_panel() {
        let rows = Panels::new(toy(3 * LANES, 2, 1));
        dist2_scan_panels(&rows, 0..LANES + 1, &[0.0, 0.0], |_, _| {});
    }

    #[test]
    fn batch_argmin_matches_single_row_nearest() {
        let x = toy(ROW_BLOCK + 37, 6, 1); // spans multiple row blocks
        let c = toy(CAND_BLOCK + LANES + 3, 6, 2); // spans cand blocks + tail
        let cand = Candidates::new(&c);
        let batch = cand.assign(&x);
        for (i, &got) in batch.iter().enumerate() {
            assert_eq!(got, cand.nearest(x.row(i)), "row {i}");
        }
    }

    #[test]
    fn argmin_agrees_with_scalar_reference_on_continuous_data() {
        let x = toy(200, 8, 5);
        let c = toy(33, 8, 6);
        assert_eq!(argmin_dist2(&x, &c), argmin_dist2_ref(&x, &c));
    }

    #[test]
    fn argmin_tie_breaks_to_lowest_index_on_duplicates() {
        // Candidate rows duplicated: the decomposed score g is a
        // deterministic function of the row, so copies tie exactly and
        // the first copy must win.
        let base = toy(9, 4, 7);
        let mut dup_rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..base.rows() {
            dup_rows.push(base.row(i).to_vec());
        }
        for i in 0..base.rows() {
            dup_rows.push(base.row(i).to_vec());
        }
        let c = Matrix::from_rows(&dup_rows);
        let x = toy(50, 4, 8);
        for &a in &argmin_dist2(&x, &c) {
            assert!(
                (a as usize) < base.rows(),
                "must pick the first copy, got {a}"
            );
        }
    }

    #[test]
    fn argmin_symmetric_exact_tie() {
        let c = Matrix::from_rows(&[vec![-1.0], vec![1.0]]);
        let x = Matrix::from_rows(&[vec![0.0]]);
        assert_eq!(argmin_dist2(&x, &c), vec![0]);
    }

    #[test]
    fn pairwise_close_to_reference() {
        let x = toy(40, 5, 11);
        let c = toy(19, 5, 12);
        let blocked = pairwise_dist2(&x, &c);
        let exact = pairwise_dist2_ref(&x, &c);
        for i in 0..x.rows() {
            for j in 0..c.rows() {
                let (a, b) = (blocked.get(i, j), exact.get(i, j));
                let scale = 1.0 + dot(x.row(i), x.row(i)) + dot(c.row(j), c.row(j));
                assert!((a - b).abs() <= 1e-9 * scale, "({i},{j}): {a} vs {b}");
                assert!(a >= 0.0);
            }
        }
    }

    #[test]
    fn pairwise_degenerate_shapes() {
        assert_eq!(
            pairwise_dist2(&Matrix::zeros(0, 3), &toy(4, 3, 1)).rows(),
            0
        );
        let nk0 = pairwise_dist2(&toy(4, 3, 1), &Matrix::zeros(0, 3));
        assert_eq!((nk0.rows(), nk0.cols()), (4, 0));
        // d = 0: all distances are zero.
        let z = pairwise_dist2(&Matrix::zeros(3, 0), &Matrix::zeros(2, 0));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn assigned_sum_exact_on_exact_inputs() {
        let p = Matrix::from_rows(&[vec![1.0], vec![4.0]]);
        let c = Matrix::from_rows(&[vec![0.0]]);
        assert_eq!(assigned_dist2_sum(&p, &c, &[0, 0]), 17.0);
        assert_eq!(assigned_dist2_sum(&p, &p, &[0, 1]), 0.0);
    }

    #[test]
    fn matvec_bit_identical_to_naive() {
        for rows in [0usize, 1, 5, 8, 13] {
            for cols in [0usize, 1, 4, 9] {
                let w = toy(rows, cols.max(1), (rows + cols) as u64);
                let wflat = &w.as_slice()[..rows * cols];
                let x = toy(1, cols, 21);
                let b = toy(1, rows, 22);
                let mut out = Vec::new();
                matvec(wflat, rows, cols, x.row(0), Some(b.row(0)), &mut out);
                for o in 0..rows {
                    let mut acc = b.get(0, o);
                    for p in 0..cols {
                        acc += wflat[o * cols + p] * x.get(0, p);
                    }
                    assert_eq!(out[o], acc, "rows={rows} cols={cols} o={o}");
                }
            }
        }
    }

    #[test]
    fn matvec_t_transposes() {
        // W = [[1,2],[3,4],[5,6]] (3×2), y = [1,10,100] → Wᵀy = [531, 642].
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = Vec::new();
        matvec_t(&w, 3, 2, &[1.0, 10.0, 100.0], &mut out);
        assert_eq!(out, vec![531.0, 642.0]);
    }

    #[test]
    fn matmul_bit_identical_to_reference() {
        let a = toy(ROW_BLOCK + 9, 7, 31); // spans row blocks
        let w = toy(11, 7, 32);
        let b = toy(1, 11, 33);
        let blocked = matmul_nt(&a, w.as_slice(), 11, Some(b.row(0)));
        let naive = matmul_nt_ref(&a, w.as_slice(), 11, Some(b.row(0)));
        assert_eq!(blocked, naive, "bit-identical GEMM required");
        let nb = matmul_nt(&a, w.as_slice(), 11, None);
        assert_eq!(nb, matmul_nt_ref(&a, w.as_slice(), 11, None));
    }

    #[test]
    fn matmul_matches_row_matvec() {
        let a = toy(17, 4, 41);
        let w = toy(6, 4, 42);
        let b = toy(1, 6, 43);
        let full = matmul_nt(&a, w.as_slice(), 6, Some(b.row(0)));
        let mut out = Vec::new();
        for i in 0..a.rows() {
            matvec(w.as_slice(), 6, 4, a.row(i), Some(b.row(0)), &mut out);
            assert_eq!(full.row(i), &out[..], "row {i}");
        }
    }

    #[test]
    fn kernels_on_blob_data_match_references() {
        // End-to-end sanity on realistic data shapes.
        let data = gaussian_blobs(500, 6, 4, 1.0, 77);
        let c = gaussian_blobs(64, 6, 4, 1.0, 78);
        assert_eq!(
            argmin_dist2(&data.points, &c.points),
            argmin_dist2_ref(&data.points, &c.points)
        );
    }
}
