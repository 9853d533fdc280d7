//! Procedural handwritten-ish digits: the MNIST substitute for §7.
//!
//! The hyper-parameter-optimization assignment trains a small fully
//! connected network on MNIST and probes it with an ambiguous digit (the
//! paper's Figure 4 shows a blurry "4" that even humans find confusing).
//! This module renders 28×28 grey-scale digits from seven-segment-style
//! stroke skeletons with per-sample elastic jitter, affine distortion and
//! pixel noise — enough variation that a dense net must genuinely
//! generalize — plus a *blend* knob that interpolates two digits to create
//! controlled ambiguity for the uncertainty experiment.

use peachy_prng::{Lcg64, Normal, RandomStream, UniformF64};

use crate::matrix::{LabeledDataset, Matrix};

/// Image side length (MNIST-compatible 28×28).
pub const SIDE: usize = 28;
/// Pixels per image.
pub const PIXELS: usize = SIDE * SIDE;

/// Key points of the segment grid in the unit square (x, y), y downward.
const TL: (f64, f64) = (0.25, 0.12);
const TR: (f64, f64) = (0.75, 0.12);
const ML: (f64, f64) = (0.25, 0.50);
const MR: (f64, f64) = (0.75, 0.50);
const BL: (f64, f64) = (0.25, 0.88);
const BR: (f64, f64) = (0.75, 0.88);

/// Strokes (pairs of key-point indices into [TL, TR, ML, MR, BL, BR]) for
/// each digit, seven-segment style: A=top, B=upper-right, C=lower-right,
/// D=bottom, E=lower-left, F=upper-left, G=middle.
const POINTS: [(f64, f64); 6] = [TL, TR, ML, MR, BL, BR];

fn segments_for(digit: u32) -> &'static [(usize, usize)] {
    // Index pairs into POINTS: 0=TL 1=TR 2=ML 3=MR 4=BL 5=BR
    const A: (usize, usize) = (0, 1); // top
    const B: (usize, usize) = (1, 3); // upper right
    const C: (usize, usize) = (3, 5); // lower right
    const D: (usize, usize) = (4, 5); // bottom
    const E: (usize, usize) = (2, 4); // lower left
    const F: (usize, usize) = (0, 2); // upper left
    const G: (usize, usize) = (2, 3); // middle
    match digit {
        0 => &[A, B, C, D, E, F],
        1 => &[B, C],
        2 => &[A, B, G, E, D],
        3 => &[A, B, G, C, D],
        4 => &[F, G, B, C],
        5 => &[A, F, G, C, D],
        6 => &[A, F, G, C, D, E],
        7 => &[A, B, C],
        8 => &[A, B, C, D, E, F, G],
        9 => &[A, B, C, D, F, G],
        _ => panic!("digit must be 0..=9, got {digit}"),
    }
}

/// Distance from point `p` to segment `(a, b)`.
fn seg_distance(p: (f64, f64), a: (f64, f64), b: (f64, f64)) -> f64 {
    let (px, py) = p;
    let (ax, ay) = a;
    let (bx, by) = b;
    let (dx, dy) = (bx - ax, by - ay);
    let len2 = dx * dx + dy * dy;
    let t = if len2 == 0.0 {
        0.0
    } else {
        (((px - ax) * dx + (py - ay) * dy) / len2).clamp(0.0, 1.0)
    };
    let (cx, cy) = (ax + t * dx, ay + t * dy);
    ((px - cx).powi(2) + (py - cy).powi(2)).sqrt()
}

/// Rendering style parameters; randomized per sample by [`DigitRenderer`].
#[derive(Debug, Clone, Copy)]
pub struct Style {
    /// Stroke half-width in unit-square units.
    pub stroke: f64,
    /// Anti-alias falloff width.
    pub falloff: f64,
    /// Rotation in radians.
    pub rotation: f64,
    /// Isotropic scale.
    pub scale: f64,
    /// Translation (x, y).
    pub shift: (f64, f64),
    /// Per-key-point jitter applied before rendering.
    pub jitter: [(f64, f64); 6],
    /// Additive Gaussian pixel noise standard deviation.
    pub pixel_noise: f64,
}

impl Style {
    /// A clean, centred, noise-free style (used for the "low uncertainty"
    /// probe of Figure 4).
    pub fn clean() -> Self {
        Self {
            stroke: 0.055,
            falloff: 0.03,
            rotation: 0.0,
            scale: 1.0,
            shift: (0.0, 0.0),
            jitter: [(0.0, 0.0); 6],
            pixel_noise: 0.0,
        }
    }
}

/// Render a single digit (or a blend of two) to `PIXELS` grey values in
/// `[0, 1]`.
pub fn render(digit: u32, style: &Style) -> Vec<f64> {
    render_blend(digit, digit, 0.0, style)
}

/// Render an interpolation between `digit_a` and `digit_b`.
///
/// `blend = 0` is pure `digit_a`, `blend = 1` pure `digit_b`; intermediate
/// values superimpose the two skeletons with complementary intensities,
/// producing the genuinely ambiguous gliffs of the Figure-4 experiment.
pub fn render_blend(digit_a: u32, digit_b: u32, blend: f64, style: &Style) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&blend), "blend must be in [0,1]");
    let mut points = POINTS;
    for (p, j) in points.iter_mut().zip(&style.jitter) {
        p.0 += j.0;
        p.1 += j.1;
    }
    // Pre-transform: rotate/scale about the centre, then shift.
    let (sin, cos) = style.rotation.sin_cos();
    let transform = |p: (f64, f64)| -> (f64, f64) {
        let (x, y) = (p.0 - 0.5, p.1 - 0.5);
        let (x, y) = (x * cos - y * sin, x * sin + y * cos);
        (
            x * style.scale + 0.5 + style.shift.0,
            y * style.scale + 0.5 + style.shift.1,
        )
    };
    let place = |(i, j): (usize, usize)| (transform(points[i]), transform(points[j]));
    let segs_a: Vec<_> = segments_for(digit_a).iter().map(|&s| place(s)).collect();
    let segs_b: Vec<_> = segments_for(digit_b).iter().map(|&s| place(s)).collect();

    type Seg = ((f64, f64), (f64, f64));
    let mut img = vec![0.0f64; PIXELS];
    let ink = |segs: &[Seg], p: (f64, f64)| -> f64 {
        let mut best = f64::INFINITY;
        for &(a, b) in segs {
            best = best.min(seg_distance(p, a, b));
        }
        // 1 inside the stroke, linear falloff outside.
        (1.0 - (best - style.stroke) / style.falloff).clamp(0.0, 1.0)
    };
    for (idx, v) in img.iter_mut().enumerate() {
        let px = ((idx % SIDE) as f64 + 0.5) / SIDE as f64;
        let py = ((idx / SIDE) as f64 + 0.5) / SIDE as f64;
        let a = ink(&segs_a, (px, py));
        let b = ink(&segs_b, (px, py));
        *v = ((1.0 - blend) * a + blend * b).clamp(0.0, 1.0);
    }
    img
}

/// Randomized digit renderer: draws style parameters per sample.
pub struct DigitRenderer {
    rng: Lcg64,
    noise: Normal,
}

impl DigitRenderer {
    /// Create with a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Lcg64::seed_from(seed),
            noise: Normal::standard(),
        }
    }

    /// Draw a random style: small rotation, scale, shift, per-point jitter
    /// and pixel noise.
    pub fn random_style(&mut self, pixel_noise: f64) -> Style {
        let rot = UniformF64::new(-0.18, 0.18);
        let scale = UniformF64::new(0.82, 1.08);
        let shift = UniformF64::new(-0.06, 0.06);
        let jit = UniformF64::new(-0.035, 0.035);
        let stroke = UniformF64::new(0.045, 0.075);
        let mut jitter = [(0.0, 0.0); 6];
        for j in jitter.iter_mut() {
            *j = (jit.sample(&mut self.rng), jit.sample(&mut self.rng));
        }
        Style {
            stroke: stroke.sample(&mut self.rng),
            falloff: 0.03,
            rotation: rot.sample(&mut self.rng),
            scale: scale.sample(&mut self.rng),
            shift: (shift.sample(&mut self.rng), shift.sample(&mut self.rng)),
            jitter,
            pixel_noise,
        }
    }

    /// Render one sample of `digit` with a freshly-drawn style.
    pub fn sample(&mut self, digit: u32, pixel_noise: f64) -> Vec<f64> {
        let style = self.random_style(pixel_noise);
        let mut img = render(digit, &style);
        if pixel_noise > 0.0 {
            for v in img.iter_mut() {
                *v = (*v + self.noise.sample(&mut self.rng) * pixel_noise).clamp(0.0, 1.0);
            }
        }
        img
    }
}

/// Generate a labelled 10-class digit dataset: `n` images, balanced across
/// digits, with the given pixel noise.
pub fn digit_dataset(n: usize, pixel_noise: f64, seed: u64) -> LabeledDataset {
    assert!(n > 0);
    let mut renderer = DigitRenderer::new(seed);
    let mut points = Matrix::zeros(0, 0);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let digit = (i % 10) as u32;
        points.push_row(&renderer.sample(digit, pixel_noise));
        labels.push(digit);
    }
    LabeledDataset::new(points, labels, 10)
}

/// Render an image as ASCII art (for terminal figures).
pub fn ascii_art(img: &[f64]) -> String {
    const SHADES: [char; 5] = [' ', '.', 'o', '#', '@'];
    let mut out = String::with_capacity((SIDE + 1) * SIDE);
    for y in 0..SIDE {
        for x in 0..SIDE {
            let v = img[y * SIDE + x];
            let shade = ((v * (SHADES.len() as f64 - 1.0)).round() as usize).min(SHADES.len() - 1);
            out.push(SHADES[shade]);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::dist2;

    #[test]
    fn render_in_unit_range() {
        for d in 0..10 {
            let img = render(d, &Style::clean());
            assert_eq!(img.len(), PIXELS);
            assert!(img.iter().all(|&v| (0.0..=1.0).contains(&v)), "digit {d}");
            // Some ink, some background.
            let ink: f64 = img.iter().sum();
            assert!(
                ink > 10.0 && ink < PIXELS as f64 * 0.8,
                "digit {d} ink = {ink}"
            );
        }
    }

    #[test]
    fn digits_are_mutually_distinct() {
        let imgs: Vec<Vec<f64>> = (0..10).map(|d| render(d, &Style::clean())).collect();
        for i in 0..10 {
            for j in (i + 1)..10 {
                let d = dist2(&imgs[i], &imgs[j]);
                assert!(d > 1.0, "digits {i} and {j} too similar: {d}");
            }
        }
    }

    #[test]
    fn one_is_subset_of_eight() {
        // Segment containment sanity: every inked pixel of "1" is inked in "8".
        let one = render(1, &Style::clean());
        let eight = render(8, &Style::clean());
        for (a, b) in one.iter().zip(&eight) {
            assert!(b + 1e-9 >= *a);
        }
    }

    #[test]
    fn blend_midpoint_between_endpoints() {
        let s = Style::clean();
        let a = render(4, &s);
        let b = render(9, &s);
        let mid = render_blend(4, 9, 0.5, &s);
        for ((x, y), m) in a.iter().zip(&b).zip(&mid) {
            assert!((0.5 * x + 0.5 * y - m).abs() < 1e-9);
        }
    }

    #[test]
    fn blend_zero_is_first_digit() {
        let s = Style::clean();
        assert_eq!(render_blend(3, 7, 0.0, &s), render(3, &s));
    }

    #[test]
    #[should_panic(expected = "digit must be 0..=9")]
    fn bad_digit_panics() {
        render(10, &Style::clean());
    }

    #[test]
    fn renderer_deterministic() {
        let mut a = DigitRenderer::new(5);
        let mut b = DigitRenderer::new(5);
        assert_eq!(a.sample(3, 0.05), b.sample(3, 0.05));
    }

    #[test]
    fn samples_vary() {
        let mut r = DigitRenderer::new(5);
        let a = r.sample(3, 0.0);
        let b = r.sample(3, 0.0);
        assert_ne!(a, b, "two samples of the same digit should differ in style");
    }

    #[test]
    fn dataset_balanced() {
        let ds = digit_dataset(200, 0.05, 9);
        assert_eq!(ds.len(), 200);
        assert_eq!(ds.dims(), PIXELS);
        assert_eq!(ds.classes, 10);
        assert_eq!(ds.class_counts(), vec![20; 10]);
    }

    #[test]
    fn ascii_art_shape() {
        let art = ascii_art(&render(0, &Style::clean()));
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), SIDE);
        assert!(lines.iter().all(|l| l.chars().count() == SIDE));
    }

    #[test]
    fn nearest_template_classifies_clean_samples() {
        // A 1-NN over clean templates should classify lightly-jittered
        // samples well — the geometric sanity check that the generator
        // produces learnable classes.
        let templates: Vec<Vec<f64>> = (0..10).map(|d| render(d, &Style::clean())).collect();
        let mut r = DigitRenderer::new(123);
        let mut correct = 0;
        let total = 100;
        for i in 0..total {
            let digit = (i % 10) as u32;
            let img = r.sample(digit, 0.02);
            let best = (0..10)
                .min_by(|&a, &b| {
                    dist2(&img, &templates[a])
                        .partial_cmp(&dist2(&img, &templates[b]))
                        .unwrap()
                })
                .unwrap();
            if best as u32 == digit {
                correct += 1;
            }
        }
        assert!(
            correct >= 80,
            "template 1-NN accuracy too low: {correct}/{total}"
        );
    }
}
