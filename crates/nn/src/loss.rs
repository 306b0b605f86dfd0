//! Clustering-objective helpers: the DEC soft assignment (paper eq. 1) and
//! target distribution (paper eq. 3), plus hard-label extraction (eq. 15).
//!
//! The differentiable KL objective itself lives on the tape
//! ([`crate::Tape::dec_kl`]); these are the plain-matrix counterparts used
//! for prediction, target refresh, and metric computation.

use adec_tensor::Matrix;

/// Student-t soft assignment `Q` (paper eq. 1).
///
/// `q_ij ∝ (1 + ‖zᵢ − μⱼ‖²/α)^{-(α+1)/2}`, normalized over clusters `j`.
/// Returns an `n × k` row-stochastic matrix.
pub fn soft_assignment(z: &Matrix, mu: &Matrix, alpha: f32) -> Matrix {
    assert_eq!(z.cols(), mu.cols(), "soft_assignment: dimension mismatch");
    adec_tensor::debug_assert_finite!(z, "soft_assignment embedding");
    adec_tensor::debug_assert_finite!(mu, "soft_assignment centroids");
    let n = z.rows();
    let k = mu.rows();
    let mut q = Matrix::zeros(n, k);
    let exponent = -(alpha + 1.0) / 2.0;
    for i in 0..n {
        let mut row_sum = 0.0f32;
        for j in 0..k {
            let mut sq = 0.0f32;
            for t in 0..z.cols() {
                let d = z.get(i, t) - mu.get(j, t);
                sq += d * d;
            }
            let v = (1.0 + sq / alpha).powf(exponent);
            q.set(i, j, v);
            row_sum += v;
        }
        let inv = 1.0 / row_sum.max(1e-12);
        for j in 0..k {
            q.set(i, j, q.get(i, j) * inv);
        }
    }
    q
}

/// DEC auxiliary target distribution `P` (paper eq. 3):
/// `p_ij = (q_ij² / f_j) / Σ_j' (q_ij'² / f_j')` with `f_j = Σ_i q_ij`.
///
/// Sharpens high-confidence assignments and normalizes per cluster
/// frequency to prevent large clusters from dominating.
pub fn target_distribution(q: &Matrix) -> Matrix {
    adec_tensor::debug_assert_finite!(q, "target_distribution Q");
    let (n, k) = q.shape();
    let f = q.col_sums();
    let mut p = Matrix::zeros(n, k);
    for i in 0..n {
        let mut row_sum = 0.0f32;
        for j in 0..k {
            let v = q.get(i, j) * q.get(i, j) / f[j].max(1e-12);
            p.set(i, j, v);
            row_sum += v;
        }
        let inv = 1.0 / row_sum.max(1e-12);
        for j in 0..k {
            p.set(i, j, p.get(i, j) * inv);
        }
    }
    p
}

/// Hard cluster labels `argmax_j q_ij` (paper eq. 15).
pub fn hard_labels(q: &Matrix) -> Vec<usize> {
    (0..q.rows()).map(|i| q.row_argmax(i)).collect()
}

/// KL(P‖Q) summed over all rows — the plain (non-differentiable) value, for
/// monitoring.
// The f64 accumulator rounds to the f32 result on purpose.
#[allow(clippy::cast_possible_truncation)]
pub fn kl_divergence(p: &Matrix, q: &Matrix) -> f32 {
    assert_eq!(p.shape(), q.shape(), "kl_divergence: shape mismatch");
    let mut acc = 0.0f64;
    for (pi, qi) in p.as_slice().iter().zip(q.as_slice().iter()) {
        if *pi > 0.0 {
            acc += (*pi as f64) * ((*pi / qi.max(1e-12)) as f64).ln();
        }
    }
    acc as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use adec_tensor::SeedRng;

    fn entropy_row(row: &[f32]) -> f32 {
        row.iter()
            .filter(|&&v| v > 0.0)
            .map(|&v| -v * v.ln())
            .sum()
    }

    #[test]
    fn q_rows_are_stochastic() {
        let mut rng = SeedRng::new(1);
        let z = Matrix::randn(10, 4, 0.0, 1.0, &mut rng);
        let mu = Matrix::randn(3, 4, 0.0, 1.0, &mut rng);
        let q = soft_assignment(&z, &mu, 1.0);
        for i in 0..10 {
            let s: f32 = q.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            for &v in q.row(i) {
                assert!(v >= 0.0);
            }
        }
    }

    #[test]
    fn closest_centroid_gets_highest_q() {
        let z = Matrix::from_vec(1, 2, vec![0.1, 0.0]);
        let mu = Matrix::from_vec(2, 2, vec![0.0, 0.0, 5.0, 5.0]);
        let q = soft_assignment(&z, &mu, 1.0);
        assert!(q.get(0, 0) > q.get(0, 1));
        assert!(q.get(0, 0) > 0.9);
    }

    #[test]
    fn p_sharpens_q() {
        // Target distribution should have lower (or equal) per-row entropy
        // than Q on confident rows.
        let mut rng = SeedRng::new(2);
        let z = Matrix::randn(30, 3, 0.0, 2.0, &mut rng);
        let mu = Matrix::randn(4, 3, 0.0, 2.0, &mut rng);
        let q = soft_assignment(&z, &mu, 1.0);
        let p = target_distribution(&q);
        let hq: f32 = (0..30).map(|i| entropy_row(q.row(i))).sum();
        let hp: f32 = (0..30).map(|i| entropy_row(p.row(i))).sum();
        assert!(hp < hq, "P entropy {hp} should be below Q entropy {hq}");
    }

    #[test]
    fn p_rows_are_stochastic() {
        let mut rng = SeedRng::new(3);
        let z = Matrix::randn(12, 3, 0.0, 1.0, &mut rng);
        let mu = Matrix::randn(3, 3, 0.0, 1.0, &mut rng);
        let p = target_distribution(&soft_assignment(&z, &mu, 1.0));
        for i in 0..12 {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn kl_zero_iff_equal() {
        let mut rng = SeedRng::new(4);
        let z = Matrix::randn(8, 3, 0.0, 1.0, &mut rng);
        let mu = Matrix::randn(2, 3, 0.0, 1.0, &mut rng);
        let q = soft_assignment(&z, &mu, 1.0);
        assert!(kl_divergence(&q, &q).abs() < 1e-5);
        let p = target_distribution(&q);
        assert!(kl_divergence(&p, &q) > 0.0);
    }

    #[test]
    fn hard_labels_argmax() {
        let q = Matrix::from_vec(2, 3, vec![0.1, 0.8, 0.1, 0.5, 0.2, 0.3]);
        assert_eq!(hard_labels(&q), vec![1, 0]);
    }

    #[test]
    fn alpha_controls_tail_behaviour() {
        // For well-separated centroids the Gaussian limit (large α) assigns
        // far more sharply than the heavy-tailed α = 1 Student kernel,
        // which is exactly why DEC fixes α = 1: it keeps gradients alive
        // for distant points.
        let z = Matrix::from_vec(1, 1, vec![1.0]);
        let mu = Matrix::from_vec(2, 1, vec![0.0, 4.0]); // d² = 1 vs 9
        let q1 = soft_assignment(&z, &mu, 1.0);
        let q50 = soft_assignment(&z, &mu, 50.0);
        assert!(q50.get(0, 0) > q1.get(0, 0));
        assert!(q1.get(0, 1) > q50.get(0, 1), "heavy tail keeps mass on the far cluster");
    }
}
