//! Training-time reference profile: a compact statistical fingerprint of
//! the model's *healthy operating regime*, embedded in the checkpoint so
//! a serving process can later compare live traffic against it (the
//! drift sentinel).
//!
//! The profile is computed once, at final-checkpoint time, from the same
//! `(z, q, μ)` triple the trainer already has in hand: the latent
//! embedding of the training set, its soft assignment, and the centroids.
//! Everything in it is a small summary — per-dimension latent moments,
//! entropy/confidence moments, nearest-centroid distance quantiles, and
//! the cluster-occupancy histogram — so it adds a few hundred bytes to a
//! checkpoint, not megabytes.
//!
//! Serialization lives in [`crate::checkpoint`] as an optional trailing
//! payload section: checkpoints written before this section existed (or
//! by phases that have no clustering state, like pretraining) simply
//! omit it, and decode to `profile: None`.

use adec_tensor::Matrix;

/// Quantile levels recorded for the nearest-centroid distance
/// distribution, in order: p10, p25, p50, p75, p90.
pub const DISTANCE_QUANTILES: [f32; 5] = [0.10, 0.25, 0.50, 0.75, 0.90];

/// Statistical fingerprint of a trained model over its training data.
/// See the module docs for what each piece is for.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceProfile {
    /// Number of training rows the profile summarizes.
    pub rows: u64,
    /// Per-dimension mean of the latent embedding `z`.
    pub latent_mean: Vec<f32>,
    /// Per-dimension population variance of `z`.
    pub latent_var: Vec<f32>,
    /// Mean of per-row soft-assignment entropy `−Σ_j q_ij ln q_ij` (nats).
    pub entropy_mean: f32,
    /// Population standard deviation of the per-row entropy.
    pub entropy_std: f32,
    /// Mean of per-row max soft-assignment probability.
    pub confidence_mean: f32,
    /// Population standard deviation of the per-row max probability.
    pub confidence_std: f32,
    /// Squared-L2 nearest-centroid distance quantiles at the
    /// [`DISTANCE_QUANTILES`] levels (non-decreasing).
    pub distance_quantiles: Vec<f32>,
    /// Fraction of rows argmax-assigned to each cluster (sums to 1).
    pub occupancy: Vec<f32>,
}

impl ReferenceProfile {
    /// Computes the profile from the latent embedding `z` (n×d), the soft
    /// assignment `q` (n×k), and the centroids `mu` (k×d) — exactly the
    /// values a clustering trainer holds when writing its final
    /// checkpoint. Deterministic: fixed iteration order, f64 accumulation.
    ///
    /// # Panics
    /// Panics when shapes disagree or any side is empty.
    pub fn compute(z: &Matrix, q: &Matrix, mu: &Matrix) -> ReferenceProfile {
        assert!(z.rows() > 0 && z.cols() > 0, "profile: empty embedding");
        assert_eq!(z.rows(), q.rows(), "profile: z/q row mismatch");
        assert_eq!(q.cols(), mu.rows(), "profile: q columns must match centroid count");
        assert_eq!(z.cols(), mu.cols(), "profile: z/centroid width mismatch");
        let n = z.rows();
        let d = z.cols();
        let k = mu.rows();
        let nf = n as f64;

        let mut latent_mean = vec![0.0f64; d];
        let mut latent_sq = vec![0.0f64; d];
        for i in 0..n {
            for (c, &v) in z.row(i).iter().enumerate() {
                let v = f64::from(v);
                latent_mean[c] += v;
                latent_sq[c] += v * v;
            }
        }
        // The f64 accumulators round to the f32 fields on purpose, here and
        // in the three summaries below.
        #[allow(clippy::cast_possible_truncation)]
        let latent_var: Vec<f32> = latent_mean
            .iter()
            .zip(latent_sq.iter())
            .map(|(&s, &sq)| {
                let m = s / nf;
                ((sq / nf - m * m).max(0.0)) as f32
            })
            .collect();
        #[allow(clippy::cast_possible_truncation)]
        let latent_mean: Vec<f32> = latent_mean.iter().map(|&s| (s / nf) as f32).collect();

        let mut ent_sum = 0.0f64;
        let mut ent_sq = 0.0f64;
        let mut conf_sum = 0.0f64;
        let mut conf_sq = 0.0f64;
        let mut occupancy = vec![0u64; k];
        let mut distances = Vec::with_capacity(n);
        for i in 0..n {
            let row = q.row(i);
            let mut ent = 0.0f64;
            let mut best = (0usize, f32::NEG_INFINITY);
            for (j, &p) in row.iter().enumerate() {
                if p > 0.0 {
                    ent -= f64::from(p) * f64::from(p).ln();
                }
                if p > best.1 {
                    best = (j, p);
                }
            }
            ent_sum += ent;
            ent_sq += ent * ent;
            let conf = f64::from(best.1.max(0.0));
            conf_sum += conf;
            conf_sq += conf * conf;
            occupancy[best.0] += 1;

            let zi = z.row(i);
            let mut nearest = f32::INFINITY;
            for j in 0..k {
                let dist: f32 = mu
                    .row(j)
                    .iter()
                    .zip(zi.iter())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if dist < nearest {
                    nearest = dist;
                }
            }
            distances.push(nearest);
        }
        distances.sort_by(f32::total_cmp);

        #[allow(clippy::cast_possible_truncation)]
        let moments = |sum: f64, sq: f64| {
            let mean = sum / nf;
            let var = (sq / nf - mean * mean).max(0.0);
            (mean as f32, var.sqrt() as f32)
        };
        let (entropy_mean, entropy_std) = moments(ent_sum, ent_sq);
        let (confidence_mean, confidence_std) = moments(conf_sum, conf_sq);

        // The rounded rank of a quantile in [0, 1] is in 0..n.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let distance_quantiles = DISTANCE_QUANTILES
            .iter()
            .map(|&p| {
                // Nearest-rank on the sorted list; n ≥ 1 keeps this in range.
                let idx = ((n - 1) as f64 * f64::from(p)).round() as usize;
                distances[idx.min(n - 1)]
            })
            .collect();
        #[allow(clippy::cast_possible_truncation)]
        let occupancy = occupancy.iter().map(|&c| (c as f64 / nf) as f32).collect();

        ReferenceProfile {
            rows: n as u64,
            latent_mean,
            latent_var,
            entropy_mean,
            entropy_std,
            confidence_mean,
            confidence_std,
            distance_quantiles,
            occupancy,
        }
    }

    /// Latent dimensionality the profile was computed at.
    pub fn latent_dim(&self) -> usize {
        self.latent_mean.len()
    }

    /// Cluster count the profile was computed at.
    pub fn clusters(&self) -> usize {
        self.occupancy.len()
    }

    /// Whether the profile's shape matches a model's `(latent_dim, k)` —
    /// the sentinel refuses to score live traffic against a profile from
    /// a differently-shaped model.
    pub fn matches(&self, latent_dim: usize, clusters: usize) -> bool {
        self.latent_dim() == latent_dim
            && self.latent_var.len() == latent_dim
            && self.clusters() == clusters
            && self.distance_quantiles.len() == DISTANCE_QUANTILES.len()
    }

    /// Structural sanity of a decoded profile: consistent lengths, a
    /// positive row count, and every statistic finite. The checkpoint
    /// decoder rejects profiles that fail this rather than handing the
    /// sentinel garbage that passed the checksum.
    pub fn validate(&self) -> Result<(), String> {
        if self.rows == 0 {
            return Err("profile covers zero rows".into());
        }
        if self.latent_mean.is_empty() || self.latent_mean.len() != self.latent_var.len() {
            return Err(format!(
                "latent moment lengths inconsistent ({} mean, {} var)",
                self.latent_mean.len(),
                self.latent_var.len()
            ));
        }
        if self.distance_quantiles.len() != DISTANCE_QUANTILES.len() {
            return Err(format!(
                "expected {} distance quantiles, found {}",
                DISTANCE_QUANTILES.len(),
                self.distance_quantiles.len()
            ));
        }
        if self.occupancy.is_empty() {
            return Err("empty occupancy histogram".into());
        }
        let all = self
            .latent_mean
            .iter()
            .chain(self.latent_var.iter())
            .chain(self.distance_quantiles.iter())
            .chain(self.occupancy.iter())
            .chain([&self.entropy_mean, &self.entropy_std])
            .chain([&self.confidence_mean, &self.confidence_std]);
        for &v in all {
            if !v.is_finite() {
                return Err("profile contains non-finite statistics".into());
            }
        }
        if self.latent_var.iter().any(|&v| v < 0.0) {
            return Err("negative latent variance".into());
        }
        Ok(())
    }
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::unwrap_used, clippy::float_cmp, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::loss::soft_assignment;
    use adec_tensor::SeedRng;

    fn sample_inputs() -> (Matrix, Matrix, Matrix) {
        let mut rng = SeedRng::new(3);
        let z = Matrix::randn(64, 3, 0.0, 1.0, &mut rng);
        let mu = Matrix::randn(4, 3, 0.0, 1.0, &mut rng);
        let q = soft_assignment(&z, &mu, 1.0);
        (z, q, mu)
    }

    #[test]
    fn profile_shapes_and_invariants() {
        let (z, q, mu) = sample_inputs();
        let p = ReferenceProfile::compute(&z, &q, &mu);
        assert_eq!(p.rows, 64);
        assert_eq!(p.latent_dim(), 3);
        assert_eq!(p.clusters(), 4);
        assert!(p.matches(3, 4));
        assert!(!p.matches(3, 5));
        assert!(!p.matches(2, 4));
        p.validate().unwrap();
        // Occupancy is a distribution over clusters.
        let total: f32 = p.occupancy.iter().sum();
        assert!((total - 1.0).abs() < 1e-5, "occupancy sums to {total}");
        // Quantiles are non-decreasing and non-negative.
        for w in p.distance_quantiles.windows(2) {
            assert!(w[0] <= w[1], "quantiles not sorted: {:?}", p.distance_quantiles);
        }
        assert!(p.distance_quantiles[0] >= 0.0);
        // Entropy of a k=4 soft assignment is in [0, ln 4].
        assert!(p.entropy_mean >= 0.0 && p.entropy_mean <= 4.0f32.ln() + 1e-5);
        assert!((0.25..=1.0).contains(&p.confidence_mean));
        assert!(p.latent_var.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn profile_is_deterministic() {
        let (z, q, mu) = sample_inputs();
        let a = ReferenceProfile::compute(&z, &q, &mu);
        let b = ReferenceProfile::compute(&z, &q, &mu);
        assert_eq!(a, b, "identical inputs must produce a bitwise-equal profile");
    }

    #[test]
    fn degenerate_one_row_profile_is_valid() {
        let z = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let mu = Matrix::from_vec(2, 2, vec![1.0, -1.0, 5.0, 5.0]);
        let q = soft_assignment(&z, &mu, 1.0);
        let p = ReferenceProfile::compute(&z, &q, &mu);
        assert_eq!(p.rows, 1);
        assert_eq!(p.entropy_std, 0.0);
        assert_eq!(p.distance_quantiles, vec![0.0; 5]);
        assert_eq!(p.occupancy, vec![1.0, 0.0]);
        p.validate().unwrap();
    }

    #[test]
    fn validate_rejects_broken_profiles() {
        let (z, q, mu) = sample_inputs();
        let good = ReferenceProfile::compute(&z, &q, &mu);
        let mut p = good.clone();
        p.rows = 0;
        assert!(p.validate().is_err());
        let mut p = good.clone();
        p.latent_var.pop();
        assert!(p.validate().is_err());
        let mut p = good.clone();
        p.entropy_mean = f32::NAN;
        assert!(p.validate().is_err());
        let mut p = good.clone();
        p.occupancy.clear();
        assert!(p.validate().is_err());
        let mut p = good.clone();
        p.distance_quantiles.push(1.0);
        assert!(p.validate().is_err());
        let mut p = good;
        p.latent_var[0] = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "z/q row mismatch")]
    fn compute_rejects_shape_mismatch() {
        let (z, q, mu) = sample_inputs();
        let short = Matrix::from_fn(32, 3, |r, c| z.get(r, c));
        let _ = ReferenceProfile::compute(&short, &q, &mu);
    }
}
