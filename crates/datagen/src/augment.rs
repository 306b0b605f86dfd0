//! Image data augmentation: small random rotation and translation with
//! bilinear resampling — the transform the paper applies during ACAI
//! pretraining and in the `*`-variant models (DEC*, IDEC*, ADEC).
//!
//! Augmentation only applies to image-modality datasets; the paper marks
//! text (‡) and tabular (†) datasets as unsupported, which callers express
//! by checking [`crate::Dataset::supports_augmentation`].

use adec_tensor::{Matrix, SeedRng};

/// Augmentation parameters.
#[derive(Debug, Clone, Copy)]
pub struct AugmentConfig {
    /// Maximum absolute rotation in radians (paper: "slight random
    /// rotation"; default ±10°).
    pub max_rotation: f32,
    /// Maximum absolute translation as a fraction of image size
    /// (default ±10%).
    pub max_shift: f32,
}

impl Default for AugmentConfig {
    fn default() -> Self {
        AugmentConfig {
            max_rotation: 10.0_f32.to_radians(),
            max_shift: 0.1,
        }
    }
}

/// Bilinear sample of image `img` (`h × w`, row-major) at fractional
/// coordinates, with zero padding outside the frame.
fn bilinear(img: &[f32], h: usize, w: usize, x: f32, y: f32) -> f32 {
    if x < -1.0 || y < -1.0 || x > w as f32 || y > h as f32 {
        return 0.0;
    }
    let x0 = x.floor();
    let y0 = y.floor();
    let fx = x - x0;
    let fy = y - y0;
    let px = |ix: i64, iy: i64| -> f32 {
        if ix < 0 || iy < 0 || ix >= w as i64 || iy >= h as i64 {
            0.0
        } else {
            img[iy as usize * w + ix as usize]
        }
    };
    let (x0, y0) = (x0 as i64, y0 as i64);
    px(x0, y0) * (1.0 - fx) * (1.0 - fy)
        + px(x0 + 1, y0) * fx * (1.0 - fy)
        + px(x0, y0 + 1) * (1.0 - fx) * fy
        + px(x0 + 1, y0 + 1) * fx * fy
}

/// Rotates and translates a single flattened `h × w` image.
pub fn rotate_translate(
    img: &[f32],
    h: usize,
    w: usize,
    theta: f32,
    dx: f32,
    dy: f32,
) -> Vec<f32> {
    assert_eq!(img.len(), h * w, "rotate_translate: image length mismatch");
    let (cx, cy) = ((w as f32 - 1.0) / 2.0, (h as f32 - 1.0) / 2.0);
    let (cos, sin) = (theta.cos(), theta.sin());
    let mut out = Vec::with_capacity(h * w);
    for py in 0..h {
        for px in 0..w {
            // Inverse map: undo translation, then rotation, around center.
            let ux = px as f32 - cx - dx;
            let uy = py as f32 - cy - dy;
            let sx = cos * ux + sin * uy + cx;
            let sy = -sin * ux + cos * uy + cy;
            out.push(bilinear(img, h, w, sx, sy));
        }
    }
    out
}

/// Applies a fresh random rotation+translation to every row of `batch`
/// (each row a flattened `h × w` image). Each row gets exactly the bits
/// [`rotate_translate`] gives it under the same draws of `(θ, dx, dy)`.
pub fn augment_batch(
    batch: &Matrix,
    h: usize,
    w: usize,
    cfg: &AugmentConfig,
    rng: &mut SeedRng,
) -> Matrix {
    assert_eq!(batch.cols(), h * w, "augment_batch: width mismatch");
    let mut out = Matrix::zeros(batch.rows(), batch.cols());
    let mut resampler = Resampler::new(h, w);
    for i in 0..batch.rows() {
        let theta = rng.uniform(-cfg.max_rotation, cfg.max_rotation);
        let dx = rng.uniform(-cfg.max_shift, cfg.max_shift) * w as f32;
        let dy = rng.uniform(-cfg.max_shift, cfg.max_shift) * h as f32;
        resampler.run(batch.row(i), theta, dx, dy, out.row_mut(i));
    }
    out
}

/// `x.floor()` without a libm call, exact for `|x| ≤ 2²²`: adding and
/// subtracting 1.5·2²³ rounds `x` to an integer, and a round-up is taken
/// back by one. It gives +0 where `floor` gives −0, which needs `x = −0`;
/// a sample coordinate is never −0, as it ends by adding a centre ≥ +0.
#[inline(always)]
fn floor_exact(x: f32) -> f32 {
    const ROUND: f32 = 12_582_912.0;
    let r = (x + ROUND) - ROUND;
    if r > x {
        r - 1.0
    } else {
        r
    }
}

/// [`rotate_translate`] over many images of one shape. Past one cosine
/// and sine per image, its per-pixel passes have no branch and no libm
/// call, and the compiler vectorizes them. The same bits: each sum keeps
/// its order and association, and the four taps of a pixel are read from
/// a zero-padded copy of the image, where a tap outside the frame finds
/// the 0 that [`bilinear`] substitutes.
struct Resampler {
    h: usize,
    w: usize,
    /// The current image with one zero row and column before it and two
    /// after, `(h + 3) × (w + 3)`: the taps of every sample that passes
    /// the frame test land inside.
    padded: Vec<f32>,
    /// Per column `px`: `cos·ux` and `(−sin)·ux`.
    cos_ux: Vec<f32>,
    neg_sin_ux: Vec<f32>,
    /// Per pixel: the fractional parts of the sample coordinates and the
    /// offset of the top-left tap in `padded`.
    fx: Vec<f32>,
    fy: Vec<f32>,
    tap: Vec<i32>,
}

impl Resampler {
    fn new(h: usize, w: usize) -> Resampler {
        // Keeps every admitted coordinate in `floor_exact`'s range and
        // every tap offset exact in `f32` and `i32`.
        assert!(
            (h + 3) * (w + 3) < 1 << 22,
            "augment_batch: {h}x{w} image too large"
        );
        let n = h * w;
        Resampler {
            h,
            w,
            padded: vec![0.0; (h + 3) * (w + 3)],
            cos_ux: vec![0.0; w],
            neg_sin_ux: vec![0.0; w],
            fx: vec![0.0; n],
            fy: vec![0.0; n],
            tap: vec![0; n],
        }
    }

    /// Writes `rotate_translate(img, h, w, theta, dx, dy)` into `out`.
    fn run(&mut self, img: &[f32], theta: f32, dx: f32, dy: f32, out: &mut [f32]) {
        let (h, w, n) = (self.h, self.w, self.h * self.w);
        let stride = w + 3;
        for r in 0..h {
            let start = (r + 1) * stride + 1;
            self.padded[start..start + w].copy_from_slice(&img[r * w..(r + 1) * w]);
        }
        let (cx, cy) = ((w as f32 - 1.0) / 2.0, (h as f32 - 1.0) / 2.0);
        let (cos, sin) = (theta.cos(), theta.sin());
        for px in 0..w {
            let ux = px as f32 - cx - dx;
            self.cos_ux[px] = cos * ux;
            self.neg_sin_ux[px] = -sin * ux;
        }
        let (wf, hf, stride_f) = (w as f32, h as f32, stride as f32);
        for py in 0..h {
            let uy = py as f32 - cy - dy;
            let (sin_uy, cos_uy) = (sin * uy, cos * uy);
            let row = py * w..(py + 1) * w;
            let (fx, fy) = (&mut self.fx[row.clone()], &mut self.fy[row.clone()]);
            let tap = &mut self.tap[row];
            let (cos_ux, neg_sin_ux) = (&self.cos_ux[..w], &self.neg_sin_ux[..w]);
            for px in 0..w {
                let x = cos_ux[px] + sin_uy + cx;
                let y = neg_sin_ux[px] + cos_uy + cy;
                // A sample that fails `bilinear`'s frame test is moved to
                // (w, −1), whose four taps are all padding and whose
                // weights are 1 and 0: it reads +0, as `bilinear` returns.
                let in_frame = !(x < -1.0 || y < -1.0 || x > wf || y > hf);
                let (x, y) = if in_frame { (x, y) } else { (wf, -1.0) };
                let (x0, y0) = (floor_exact(x), floor_exact(y));
                fx[px] = x - x0;
                fy[px] = y - y0;
                // SSE2 has no 32-bit integer vector multiply, so the offset
                // is formed in `f32`, exact below 2²⁴, and converted once.
                tap[px] = ((y0 + 1.0) * stride_f + (x0 + 1.0)) as i32;
            }
        }
        let (fx, fy, tap) = (&self.fx[..n], &self.fy[..n], &self.tap[..n]);
        for (i, o) in out[..n].iter_mut().enumerate() {
            let q = &self.padded[tap[i] as usize..][..stride + 2];
            let (p00, p10, p01, p11) = (q[0], q[1], q[stride], q[stride + 1]);
            *o = p00 * (1.0 - fx[i]) * (1.0 - fy[i])
                + p10 * fx[i] * (1.0 - fy[i])
                + p01 * (1.0 - fx[i]) * fy[i]
                + p11 * fx[i] * fy[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cross_image(n: usize) -> Vec<f32> {
        let mut img = vec![0.0f32; n * n];
        for i in 0..n {
            img[(n / 2) * n + i] = 1.0;
            img[i * n + n / 2] = 1.0;
        }
        img
    }

    #[test]
    fn identity_transform_is_noop() {
        let img = cross_image(9);
        let out = rotate_translate(&img, 9, 9, 0.0, 0.0, 0.0);
        for (a, b) in img.iter().zip(out.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn translation_moves_mass() {
        let mut img = vec![0.0f32; 49];
        img[3 * 7 + 3] = 1.0; // center pixel
        let out = rotate_translate(&img, 7, 7, 0.0, 2.0, 0.0);
        assert!(out[3 * 7 + 5] > 0.9, "mass should move 2 px right");
        assert!(out[3 * 7 + 3] < 0.1);
    }

    #[test]
    fn rotation_90_degrees_maps_axes() {
        let mut img = vec![0.0f32; 49];
        img[3 * 7 + 6] = 1.0; // rightmost center pixel
        let out = rotate_translate(&img, 7, 7, std::f32::consts::FRAC_PI_2, 0.0, 0.0);
        // 90° CCW in image coordinates sends +x to a vertical position.
        let total: f32 = out.iter().sum();
        assert!(total > 0.5, "mass must be preserved approximately");
        assert!(out[3 * 7 + 6] < 0.1, "pixel must have moved");
    }

    #[test]
    fn mass_roughly_preserved_under_small_transform() {
        let img = cross_image(11);
        let before: f32 = img.iter().sum();
        let out = rotate_translate(&img, 11, 11, 0.1, 0.5, -0.5);
        let after: f32 = out.iter().sum();
        assert!((after - before).abs() / before < 0.15, "{before} vs {after}");
    }

    #[test]
    fn batch_augmentation_shapes_and_variation() {
        let mut rng = SeedRng::new(1);
        let img = cross_image(8);
        let batch = Matrix::from_rows(&[img.clone(), img]);
        let out = augment_batch(&batch, 8, 8, &AugmentConfig::default(), &mut rng);
        assert_eq!(out.shape(), (2, 64));
        // Two independent augmentations of the same image should differ.
        assert_ne!(out.row(0), out.row(1));
    }

    #[test]
    fn batch_matches_the_single_image_reference_bitwise() {
        // The extreme config rotates up to half a turn and shifts up to
        // 60% of a side, so taps land on the frame edge, outside it and at
        // negative coordinates.
        let extreme = AugmentConfig {
            max_rotation: std::f32::consts::PI,
            max_shift: 0.6,
        };
        let shapes = [
            (5, 5),
            (6, 6),
            (12, 12),
            (16, 16),
            (28, 28),
            (5, 12),
            (12, 5),
        ];
        for cfg in [AugmentConfig::default(), extreme] {
            for (h, w) in shapes {
                for seed in [1u64, 7, 42, 2024] {
                    let mut rng = SeedRng::new(seed);
                    let mut batch = Matrix::randn(6, h * w, 0.0, 1.0, &mut rng);
                    // Non-finite and signed-zero pixels in two corners: a
                    // sample outside the frame must still read exactly 0.
                    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
                    for (r, s) in specials.into_iter().enumerate() {
                        batch.row_mut(r)[0] = s;
                        batch.row_mut(r)[h * w - 1] = s;
                    }
                    let mut draws = SeedRng::from_state(&rng.export_state());
                    let out = augment_batch(&batch, h, w, &cfg, &mut rng);
                    for i in 0..batch.rows() {
                        let theta = draws.uniform(-cfg.max_rotation, cfg.max_rotation);
                        let dx = draws.uniform(-cfg.max_shift, cfg.max_shift) * w as f32;
                        let dy = draws.uniform(-cfg.max_shift, cfg.max_shift) * h as f32;
                        let want = rotate_translate(batch.row(i), h, w, theta, dx, dy);
                        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(out.row(i)),
                            bits(&want),
                            "{h}x{w} seed {seed} row {i} cfg {cfg:?}"
                        );
                    }
                    assert_eq!(rng.export_state(), draws.export_state(), "draw count");
                }
            }
        }
    }

    #[test]
    fn zero_padding_outside_frame() {
        let img = vec![1.0f32; 25];
        // Shift far: most mass leaves the frame, padding fills with zeros.
        let out = rotate_translate(&img, 5, 5, 0.0, 4.0, 0.0);
        let filled = out.iter().filter(|&&v| v > 0.5).count();
        assert!(filled <= 5, "only one column should remain, got {filled}");
    }
}
