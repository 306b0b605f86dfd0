//! Normalized-cut spectral clustering (the paper's SC row).
//!
//! Pipeline: symmetric k-nearest-neighbor affinity → symmetric normalized
//! Laplacian `L_sym = I − D^{-1/2} W D^{-1/2}` → bottom-k eigenvectors
//! (via the dense Jacobi solver) → row normalization → k-means.
//!
//! For inputs beyond `max_eigen_n` points the eigenproblem is solved on a
//! random landmark subset and the remaining points inherit the label of
//! their nearest landmark — a Nyström-style approximation that keeps the
//! dense eigensolver tractable (documented substitution; the paper's SC
//! baseline itself goes out-of-memory on the large datasets, see Table 1).

use crate::kmeans::{kmeans, KMeansConfig};
use adec_tensor::{linalg::pairwise_sq_dists, symmetric_eigen, Matrix, SeedRng};

/// Spectral clustering configuration.
#[derive(Debug, Clone)]
pub struct SpectralConfig {
    /// Number of clusters.
    pub k: usize,
    /// Neighbors in the kNN affinity graph.
    pub n_neighbors: usize,
    /// Maximum points for the dense eigensolve; larger inputs use
    /// landmarks.
    pub max_eigen_n: usize,
}

impl SpectralConfig {
    /// Standard configuration.
    pub fn new(k: usize) -> Self {
        SpectralConfig {
            k,
            n_neighbors: 10,
            max_eigen_n: 400,
        }
    }
}

/// Builds the symmetric kNN affinity with self-tuning (local-scale) RBF
/// weights.
fn knn_affinity(data: &Matrix, n_neighbors: usize) -> Matrix {
    let n = data.rows();
    let d2 = pairwise_sq_dists(data, data);
    // Local scale: distance to the m-th neighbor.
    let m = n_neighbors.min(n - 1).max(1);
    let mut sigma = vec![0.0f32; n];
    let mut order: Vec<usize> = (0..n).collect();
    let mut neighbor_sets: Vec<Vec<usize>> = Vec::with_capacity(n);
    for i in 0..n {
        order.sort_unstable_by(|&a, &b| {
            d2.get(i, a)
                .partial_cmp(&d2.get(i, b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // order[0] == i itself (distance 0).
        let nth = order[m.min(n - 1)];
        sigma[i] = d2.get(i, nth).sqrt().max(1e-6);
        neighbor_sets.push(order[1..=m].to_vec());
    }
    let mut w = Matrix::zeros(n, n);
    for (i, neigh) in neighbor_sets.iter().enumerate() {
        for &j in neigh {
            let aff = (-d2.get(i, j) / (sigma[i] * sigma[j])).exp();
            // Symmetrize with max so the graph is undirected.
            let v = w.get(i, j).max(aff);
            w.set(i, j, v);
            w.set(j, i, v);
        }
    }
    w
}

/// Spectral embedding: rows are the `k` bottom eigenvectors of `L_sym`,
/// row-normalized (Ng–Jordan–Weiss).
// expect justified above the call site: infallible public API, loud death.
#[allow(clippy::expect_used)]
fn spectral_embedding(affinity: &Matrix, k: usize) -> Matrix {
    let n = affinity.rows();
    let deg = affinity.row_sums();
    let inv_sqrt: Vec<f32> = deg.iter().map(|&d| 1.0 / d.max(1e-12).sqrt()).collect();
    // L_sym = I − D^{-1/2} W D^{-1/2}; its *smallest* eigenvectors equal the
    // *largest* of the normalized affinity, so decompose the latter.
    let norm_aff = Matrix::from_fn(n, n, |i, j| affinity.get(i, j) * inv_sqrt[i] * inv_sqrt[j]);
    // Jacobi failure on a symmetric affinity is unrecoverable here and the
    // public API is infallible; die loudly with the solver's context.
    let eig = symmetric_eigen(&norm_aff).expect("spectral: eigensolve failed");
    let mut emb = Matrix::zeros(n, k);
    for j in 0..k.min(n) {
        for i in 0..n {
            emb.set(i, j, eig.vectors.get(i, j));
        }
    }
    // Row-normalize.
    for i in 0..n {
        let norm: f32 = emb.row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for v in emb.row_mut(i) {
                *v /= norm;
            }
        }
    }
    emb
}

/// Spectral clustering on a precomputed symmetric affinity matrix
/// (used by the self-expressive subspace methods, whose affinity is
/// `|C| + |C|ᵀ` rather than a kNN graph).
///
/// Applies degree regularization (Amini et al.'s regularized spectral
/// clustering): a small uniform "teleport" weight is added to every pair so
/// that tiny satellite components cannot monopolize the top eigenvectors —
/// without it, a handful of weakly coded points each claim an eigenvalue-1
/// slot and the informative cut of the main component is pushed out of the
/// top-k embedding.
pub fn spectral_on_affinity(affinity: &Matrix, k: usize, rng: &mut SeedRng) -> Vec<usize> {
    let n = affinity.rows();
    let tau = 1e-2 * affinity.row_sums().iter().sum::<f32>() / (n as f32 * n as f32).max(1.0);
    let regularized = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0.0
        } else {
            affinity.get(i, j) + tau
        }
    });
    let emb = spectral_embedding(&regularized, k);
    kmeans(&emb, &KMeansConfig::fast(k), rng).labels
}

/// Runs normalized-cut spectral clustering.
pub fn spectral_clustering(data: &Matrix, cfg: &SpectralConfig, rng: &mut SeedRng) -> Vec<usize> {
    let n = data.rows();
    assert!(cfg.k > 0 && cfg.k <= n, "spectral: invalid k={}", cfg.k);

    if n <= cfg.max_eigen_n {
        let aff = knn_affinity(data, cfg.n_neighbors);
        let emb = spectral_embedding(&aff, cfg.k);
        return kmeans(&emb, &KMeansConfig::fast(cfg.k), rng).labels;
    }

    // Landmark path: eigensolve on a subset, 1-NN label extension.
    let landmarks = rng.sample_indices(n, cfg.max_eigen_n);
    let sub = data.gather_rows(&landmarks);
    let aff = knn_affinity(&sub, cfg.n_neighbors);
    let emb = spectral_embedding(&aff, cfg.k);
    let sub_labels = kmeans(&emb, &KMeansConfig::fast(cfg.k), rng).labels;

    let d2 = pairwise_sq_dists(data, &sub);
    (0..n)
        .map(|i| {
            let row = d2.row(i);
            let mut best = 0usize;
            let mut best_v = f32::INFINITY;
            for (j, &v) in row.iter().enumerate() {
                if v < best_v {
                    best_v = v;
                    best = j;
                }
            }
            sub_labels[best]
        })
        .collect()
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Two concentric rings — the classic case where k-means fails but
    /// spectral clustering succeeds.
    fn rings(n_per: usize, rng: &mut SeedRng) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (c, &r) in [1.0f32, 5.0].iter().enumerate() {
            for i in 0..n_per {
                let theta = std::f32::consts::TAU * i as f32 / n_per as f32;
                rows.push(vec![
                    r * theta.cos() + rng.normal(0.0, 0.08),
                    r * theta.sin() + rng.normal(0.0, 0.08),
                ]);
                labels.push(c);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn separates_concentric_rings() {
        let mut rng = SeedRng::new(1);
        let (data, truth) = rings(60, &mut rng);
        let pred = spectral_clustering(&data, &SpectralConfig::new(2), &mut rng);
        let acc = adec_metrics::accuracy(&truth, &pred);
        assert!(acc > 0.95, "ACC {acc}");
        // Sanity: plain k-means cannot do this.
        let km = kmeans(&data, &KMeansConfig::fast(2), &mut rng);
        let km_acc = adec_metrics::accuracy(&truth, &km.labels);
        assert!(km_acc < 0.8, "k-means unexpectedly solved rings: {km_acc}");
    }

    #[test]
    fn affinity_is_symmetric_nonnegative() {
        let mut rng = SeedRng::new(2);
        let (data, _) = rings(20, &mut rng);
        let aff = knn_affinity(&data, 5);
        for i in 0..aff.rows() {
            for j in 0..aff.cols() {
                assert!((aff.get(i, j) - aff.get(j, i)).abs() < 1e-6);
                assert!(aff.get(i, j) >= 0.0);
            }
            assert_eq!(aff.get(i, i), 0.0, "no self loops");
        }
    }

    #[test]
    fn landmark_path_matches_blob_structure() {
        let mut rng = SeedRng::new(3);
        // Three blobs with n above the eigen cap.
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for (c, &(cx, cy)) in [(0.0f32, 0.0f32), (15.0, 0.0), (0.0, 15.0)].iter().enumerate() {
            for _ in 0..60 {
                rows.push(vec![cx + rng.normal(0.0, 0.5), cy + rng.normal(0.0, 0.5)]);
                truth.push(c);
            }
        }
        let data = Matrix::from_rows(&rows);
        let cfg = SpectralConfig {
            max_eigen_n: 60, // force the landmark path
            ..SpectralConfig::new(3)
        };
        let pred = spectral_clustering(&data, &cfg, &mut rng);
        let acc = adec_metrics::accuracy(&truth, &pred);
        assert!(acc > 0.95, "landmark ACC {acc}");
    }

    #[test]
    fn embedding_rows_unit_norm() {
        let mut rng = SeedRng::new(4);
        let (data, _) = rings(15, &mut rng);
        let aff = knn_affinity(&data, 4);
        let emb = spectral_embedding(&aff, 2);
        for i in 0..emb.rows() {
            let norm: f32 = emb.row(i).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-4 || norm < 1e-6);
        }
    }
}
