//! Lloyd's k-means with k-means++ seeding and multiple restarts.
//!
//! This is both a Table-1 baseline and a substrate: GMM initialization,
//! spectral clustering's final step, kernel k-means seeding, DEC/IDEC/ADEC
//! centroid initialization, and DCN's latent clustering all run through it.

use adec_tensor::{linalg::pairwise_sq_dists, Matrix, SeedRng};

/// k-means configuration.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iter: usize,
    /// Number of independent k-means++ restarts; the best inertia wins.
    pub n_init: usize,
    /// Relative inertia-improvement tolerance for early stopping.
    pub tol: f32,
}

impl KMeansConfig {
    /// Standard configuration for `k` clusters (20 restarts like DEC's
    /// published setup, 300 iterations, 1e-4 tolerance).
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iter: 300,
            n_init: 20,
            tol: 1e-4,
        }
    }

    /// Cheaper preset used inside iterative algorithms (single restart).
    pub fn fast(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iter: 100,
            n_init: 4,
            tol: 1e-4,
        }
    }
}

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Cluster centers, `k × d`.
    pub centroids: Matrix,
    /// Hard assignment per training sample.
    pub labels: Vec<usize>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f32,
    /// Lloyd iterations performed by the winning restart.
    pub iterations: usize,
}

impl KMeans {
    /// Assigns new points to the nearest centroid.
    pub fn predict(&self, data: &Matrix) -> Vec<usize> {
        assign(data, &self.centroids).0
    }
}

/// k-means++ seeding: first center uniform, subsequent centers sampled
/// proportionally to squared distance from the nearest chosen center.
fn kmeanspp_init(data: &Matrix, k: usize, rng: &mut SeedRng) -> Matrix {
    let n = data.rows();
    let mut centers = Vec::with_capacity(k);
    centers.push(rng.below(n));
    let mut min_sq = pairwise_sq_dists(data, &data.gather_rows(&[centers[0]]))
        .col(0);
    while centers.len() < k {
        let next = rng.weighted_index(&min_sq);
        centers.push(next);
        let d_new = pairwise_sq_dists(data, &data.gather_rows(&[next])).col(0);
        for (m, d) in min_sq.iter_mut().zip(d_new.iter()) {
            *m = m.min(*d);
        }
    }
    data.gather_rows(&centers)
}

/// Nearest-centroid assignment; returns `(labels, inertia)`. Each row
/// goes to the centroid at the smallest squared distance, ties to the
/// lowest index. Lloyd's iterations and DCN's hard assignment both use it.
pub fn assign(data: &Matrix, centroids: &Matrix) -> (Vec<usize>, f32) {
    let d = pairwise_sq_dists(data, centroids);
    let mut labels = Vec::with_capacity(data.rows());
    let mut inertia = 0.0f32;
    for i in 0..data.rows() {
        let row = d.row(i);
        let mut best = 0usize;
        let mut best_v = f32::INFINITY;
        for (j, &v) in row.iter().enumerate() {
            if v < best_v {
                best_v = v;
                best = j;
            }
        }
        labels.push(best);
        inertia += best_v;
    }
    (labels, inertia)
}

/// Recomputes centroids as cluster means; empty clusters are re-seeded at
/// the point farthest from its current centroid.
fn update_centroids(
    data: &Matrix,
    labels: &[usize],
    k: usize,
    rng: &mut SeedRng,
) -> Matrix {
    let d = data.cols();
    let mut sums = Matrix::zeros(k, d);
    let mut counts = vec![0usize; k];
    for (i, &l) in labels.iter().enumerate() {
        counts[l] += 1;
        for (s, &v) in sums.row_mut(l).iter_mut().zip(data.row(i)) {
            *s += v;
        }
    }
    for j in 0..k {
        if counts[j] == 0 {
            // Re-seed the empty cluster at a random data point.
            let idx = rng.below(data.rows());
            sums.row_mut(j).copy_from_slice(data.row(idx));
        } else {
            let inv = 1.0 / counts[j] as f32;
            for v in sums.row_mut(j) {
                *v *= inv;
            }
        }
    }
    sums
}

/// Runs k-means and returns the best-of-`n_init` fitted model.
///
/// # Panics
/// Panics if `k == 0`, `k > n`, or the data is empty.
pub fn kmeans(data: &Matrix, cfg: &KMeansConfig, rng: &mut SeedRng) -> KMeans {
    let n = data.rows();
    assert!(cfg.k > 0 && cfg.k <= n, "kmeans: invalid k={} for n={n}", cfg.k);
    assert!(n > 0 && data.cols() > 0, "kmeans: empty data");

    let mut best: Option<KMeans> = None;
    for _restart in 0..cfg.n_init.max(1) {
        let mut centroids = kmeanspp_init(data, cfg.k, rng);
        let (mut labels, mut inertia) = assign(data, &centroids);
        let mut iterations = 0usize;
        for it in 0..cfg.max_iter {
            centroids = update_centroids(data, &labels, cfg.k, rng);
            let (new_labels, new_inertia) = assign(data, &centroids);
            iterations = it + 1;
            let rel_improve = (inertia - new_inertia) / inertia.max(1e-12);
            labels = new_labels;
            inertia = new_inertia;
            if rel_improve < cfg.tol && rel_improve >= 0.0 {
                break;
            }
        }
        let candidate = KMeans {
            centroids,
            labels,
            inertia,
            iterations,
        };
        if best.as_ref().is_none_or(|b| candidate.inertia < b.inertia) {
            best = Some(candidate);
        }
    }
    match best {
        Some(b) => b,
        // The restart loop runs max(n_init, 1) >= 1 times and always fills
        // an empty `best`.
        None => unreachable!("kmeans: n_init >= 1 guarantees a candidate"),
    }
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Three well-separated Gaussian blobs.
    pub(crate) fn blobs(n_per: usize, rng: &mut SeedRng) -> (Matrix, Vec<usize>) {
        let centers = [(0.0f32, 0.0f32), (10.0, 0.0), (0.0, 10.0)];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per {
                rows.push(vec![cx + rng.normal(0.0, 0.5), cy + rng.normal(0.0, 0.5)]);
                labels.push(c);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn nearest_centroid_assignment() {
        let z = Matrix::from_vec(2, 1, vec![0.1, 4.9]);
        let c = Matrix::from_vec(2, 1, vec![0.0, 5.0]);
        assert_eq!(assign(&z, &c).0, vec![0, 1]);
    }

    #[test]
    fn separable_blobs_are_recovered() {
        let mut rng = SeedRng::new(1);
        let (data, truth) = blobs(40, &mut rng);
        let model = kmeans(&data, &KMeansConfig::new(3), &mut rng);
        let acc = adec_metrics::accuracy(&truth, &model.labels);
        assert!(acc > 0.99, "ACC {acc}");
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let mut rng = SeedRng::new(2);
        let (data, _) = blobs(30, &mut rng);
        let m2 = kmeans(&data, &KMeansConfig::new(2), &mut rng);
        let m3 = kmeans(&data, &KMeansConfig::new(3), &mut rng);
        let m6 = kmeans(&data, &KMeansConfig::new(6), &mut rng);
        assert!(m3.inertia < m2.inertia);
        assert!(m6.inertia < m3.inertia);
    }

    #[test]
    fn predict_matches_training_labels() {
        let mut rng = SeedRng::new(3);
        let (data, _) = blobs(25, &mut rng);
        let model = kmeans(&data, &KMeansConfig::new(3), &mut rng);
        assert_eq!(model.predict(&data), model.labels);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng_a = SeedRng::new(7);
        let (data, _) = blobs(20, &mut rng_a);
        let mut r1 = SeedRng::new(99);
        let mut r2 = SeedRng::new(99);
        let m1 = kmeans(&data, &KMeansConfig::fast(3), &mut r1);
        let m2 = kmeans(&data, &KMeansConfig::fast(3), &mut r2);
        assert_eq!(m1.labels, m2.labels);
        assert_eq!(m1.inertia, m2.inertia);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0], vec![9.0, 0.0]]);
        let mut rng = SeedRng::new(4);
        let model = kmeans(&data, &KMeansConfig::new(3), &mut rng);
        assert!(model.inertia < 1e-6);
    }

    #[test]
    fn kmeanspp_spreads_centers() {
        let mut rng = SeedRng::new(5);
        let (data, _) = blobs(30, &mut rng);
        let init = kmeanspp_init(&data, 3, &mut rng);
        // With well-separated blobs, the three seeds land in distinct blobs
        // nearly always: pairwise distances all large.
        let d = pairwise_sq_dists(&init, &init);
        let mut min_off = f32::INFINITY;
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    min_off = min_off.min(d.get(i, j));
                }
            }
        }
        assert!(min_off > 10.0, "seeds collapsed: {min_off}");
    }

    #[test]
    #[should_panic(expected = "invalid k")]
    fn k_larger_than_n_panics() {
        let data = Matrix::zeros(2, 2);
        let mut rng = SeedRng::new(6);
        let _ = kmeans(&data, &KMeansConfig::new(5), &mut rng);
    }
}
