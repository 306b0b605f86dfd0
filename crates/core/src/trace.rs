//! Training instrumentation: per-interval ACC/NMI learning curves and the
//! paper's Δ_FR / Δ_FD gradient diagnostics (Figures 7–12).

use adec_metrics::{accuracy, hungarian_min_cost, nmi, Contingency};
use adec_nn::{Mlp, Tape, Var};
use adec_tensor::Matrix;

/// What a clustering run should record while training.
#[derive(Debug, Clone, Default)]
pub struct TraceConfig {
    /// Ground-truth labels; enables ACC/NMI curves and Δ_FR.
    pub y_true: Option<Vec<usize>>,
    /// Record Δ_FR / Δ_FD gradient cosines at every update interval
    /// (adds two-to-three extra backward passes per interval).
    pub tradeoff: bool,
    /// Probe batch size for gradient diagnostics.
    pub probe_size: usize,
}

impl TraceConfig {
    /// Curves only (ACC/NMI per interval).
    pub fn curves(y_true: &[usize]) -> Self {
        TraceConfig {
            y_true: Some(y_true.to_vec()),
            tradeoff: false,
            probe_size: 128,
        }
    }

    /// Curves plus Δ_FR/Δ_FD diagnostics.
    pub fn full(y_true: &[usize]) -> Self {
        TraceConfig {
            y_true: Some(y_true.to_vec()),
            tradeoff: true,
            probe_size: 128,
        }
    }

    /// ACC and NMI of `labels` against the ground truth, when there is one.
    pub(crate) fn scores(&self, labels: &[usize]) -> (Option<f32>, Option<f32>) {
        match &self.y_true {
            Some(y_true) => (Some(accuracy(y_true, labels)), Some(nmi(y_true, labels))),
            None => (None, None),
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct TracePoint {
    /// Training iteration at which the snapshot was taken.
    pub iter: usize,
    /// Clustering accuracy (None without ground truth).
    pub acc: Option<f32>,
    /// Normalized mutual information (None without ground truth).
    pub nmi: Option<f32>,
    /// Δ_FR: cosine(pseudo-supervised grad, true-supervised grad).
    pub delta_fr: Option<f32>,
    /// Δ_FD: cosine(pseudo-supervised grad, self-supervised grad).
    pub delta_fd: Option<f32>,
    /// Mean clustering (KL) loss at the snapshot.
    pub kl_loss: f32,
}

/// The full learning-curve record of a run.
#[derive(Debug, Clone, Default)]
pub struct TrainTrace {
    /// Recorded points in iteration order.
    pub points: Vec<TracePoint>,
}

impl TrainTrace {
    /// Records a point with only the ACC/NMI of `labels` (no loss, no
    /// gradient probes), for trainers that track nothing else.
    pub(crate) fn push_scores(&mut self, iter: usize, cfg: &TraceConfig, labels: &[usize]) {
        let (acc, nmi) = cfg.scores(labels);
        self.points.push(TracePoint {
            iter,
            acc,
            nmi,
            delta_fr: None,
            delta_fd: None,
            kl_loss: 0.0,
        });
    }

    /// Series of `(iter, acc)` pairs (only points with ground truth).
    pub fn acc_series(&self) -> Vec<(usize, f32)> {
        self.points.iter().filter_map(|p| p.acc.map(|a| (p.iter, a))).collect()
    }

    /// Series of `(iter, nmi)` pairs.
    pub fn nmi_series(&self) -> Vec<(usize, f32)> {
        self.points.iter().filter_map(|p| p.nmi.map(|a| (p.iter, a))).collect()
    }

    /// Series of `(iter, Δ_FR)` pairs.
    pub fn fr_series(&self) -> Vec<(usize, f32)> {
        self.points.iter().filter_map(|p| p.delta_fr.map(|a| (p.iter, a))).collect()
    }

    /// Series of `(iter, Δ_FD)` pairs.
    pub fn fd_series(&self) -> Vec<(usize, f32)> {
        self.points.iter().filter_map(|p| p.delta_fd.map(|a| (p.iter, a))).collect()
    }

    /// Mean of a metric over the recorded points (None if never recorded).
    pub fn mean_of(&self, get: impl Fn(&TracePoint) -> Option<f32>) -> Option<f32> {
        let vals: Vec<f32> = self.points.iter().filter_map(get).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f32>() / vals.len() as f32)
        }
    }

    /// Root-mean-square step-to-step fluctuation of the ACC curve — the
    /// quantity behind the paper's "IDEC* fluctuates, ADEC is smooth"
    /// observation (Figures 11–12).
    pub fn acc_fluctuation(&self) -> Option<f32> {
        let acc = self.acc_series();
        if acc.len() < 2 {
            return None;
        }
        let diffs: Vec<f32> = acc.windows(2).map(|w| (w[1].1 - w[0].1).abs()).collect();
        Some((diffs.iter().map(|d| d * d).sum::<f32>() / diffs.len() as f32).sqrt())
    }
}

/// The result of a deep-clustering run.
#[derive(Debug, Clone)]
pub struct ClusterOutput {
    /// Final hard cluster labels.
    pub labels: Vec<usize>,
    /// Final soft assignment matrix `Q` over the full dataset.
    pub q: Matrix,
    /// Mini-batch iterations performed.
    pub iterations: usize,
    /// Whether the `tol` convergence criterion fired before `max_iter`.
    pub converged: bool,
    /// Recorded learning curves / diagnostics.
    pub trace: TrainTrace,
    /// Wall-clock seconds of the clustering phase.
    pub seconds: f64,
}

impl ClusterOutput {
    /// Convenience: final ACC against ground truth.
    pub fn acc(&self, y_true: &[usize]) -> f32 {
        accuracy(y_true, &self.labels)
    }

    /// Convenience: final NMI against ground truth.
    pub fn nmi(&self, y_true: &[usize]) -> f32 {
        nmi(y_true, &self.labels)
    }
}

/// Optimal (Hungarian) class → cluster mapping of the current prediction:
/// `map[class]` is the cluster index the ground-truth class corresponds to.
/// Compute this on the **full** dataset — a mini-batch contingency is far
/// too noisy for a stable matching.
pub fn class_to_cluster_map(q: &Matrix, y_true: &[usize]) -> Vec<usize> {
    let k = q.cols();
    let y_pred: Vec<usize> = (0..q.rows()).map(|i| q.row_argmax(i)).collect();
    let c = Contingency::new(y_true, &y_pred);
    // Max-profit matching pred-cluster → true-class on a padded square.
    let dim = k.max(c.n_true());
    let max_count = c.table().iter().flatten().copied().max().unwrap_or(0) as i64;
    let mut cost = vec![vec![max_count; dim]; dim];
    for (r, row) in c.table().iter().enumerate() {
        for (t, &count) in row.iter().enumerate() {
            cost[r][t] = max_count - count as i64;
        }
    }
    let assignment = hungarian_min_cost(&cost);
    let mut class_to_cluster = vec![0usize; dim];
    for (cluster, class) in assignment.iter().enumerate() {
        if *class < dim {
            class_to_cluster[*class] = cluster.min(k.saturating_sub(1));
        }
    }
    class_to_cluster
}

/// Builds the *true-supervised* target distribution used by Δ_FR: each
/// sample's row is one-hot on the cluster its ground-truth class maps to
/// under the optimal (Hungarian) cluster↔class matching of the current
/// prediction. This instantiates `L(x, y_true, w)` from eq. 5 with the same
/// KL functional form as the pseudo-supervised loss.
pub fn supervised_target(q: &Matrix, y_true: &[usize]) -> Matrix {
    let map = class_to_cluster_map(q, y_true);
    supervised_target_with_map(y_true, &map, q.cols())
}

/// Like [`supervised_target`] but with a precomputed class → cluster map
/// (use [`class_to_cluster_map`] on the full dataset, then build targets
/// for any subset of samples).
pub fn supervised_target_with_map(y_true: &[usize], map: &[usize], k: usize) -> Matrix {
    let mut p = Matrix::zeros(y_true.len(), k);
    for (i, &class) in y_true.iter().enumerate() {
        let cluster = map.get(class).copied().unwrap_or(0).min(k - 1);
        p.set(i, cluster, 1.0);
    }
    p
}

/// Gradients w.r.t. the *encoder* parameters of the loss that `graph`
/// builds on a fresh tape, in `encoder.param_ids()` order. Used to
/// evaluate eqs. 5–6: the probes pass the graphs the trainers step on, so
/// Δ_FR and Δ_FD measure the objectives the models apply.
pub fn encoder_gradients(encoder: &Mlp, graph: impl FnOnce(&mut Tape) -> Var) -> Vec<Matrix> {
    let mut tape = Tape::new();
    let loss = graph(&mut tape);
    tape.backward(loss);
    encoder.param_ids().into_iter().map(|id| tape.param_grad(id)).collect()
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::autoencoder::{ArchPreset, Autoencoder};
    use crate::dec::kl_graph;
    use crate::pretrain::ae_graph;
    use adec_metrics::gradient_cosine;
    use adec_nn::{soft_assignment, ParamStore};
    use adec_tensor::SeedRng;

    #[test]
    fn supervised_target_is_one_hot_aligned() {
        // Q already nearly correct → supervised target should put each
        // sample's mass on its own cluster under the identity mapping.
        let q = Matrix::from_vec(
            4,
            2,
            vec![0.9, 0.1, 0.8, 0.2, 0.1, 0.9, 0.2, 0.8],
        );
        let y_true = vec![0, 0, 1, 1];
        let p = supervised_target(&q, &y_true);
        assert_eq!(p.get(0, 0), 1.0);
        assert_eq!(p.get(1, 0), 1.0);
        assert_eq!(p.get(2, 1), 1.0);
        assert_eq!(p.get(3, 1), 1.0);
    }

    #[test]
    fn supervised_target_respects_permuted_clusters() {
        // Prediction uses swapped cluster ids; mapping must follow.
        let q = Matrix::from_vec(
            4,
            2,
            vec![0.1, 0.9, 0.2, 0.8, 0.9, 0.1, 0.8, 0.2],
        );
        let y_true = vec![0, 0, 1, 1];
        let p = supervised_target(&q, &y_true);
        assert_eq!(p.get(0, 1), 1.0, "class 0 maps to cluster 1");
        assert_eq!(p.get(2, 0), 1.0, "class 1 maps to cluster 0");
    }

    #[test]
    fn encoder_gradients_nonzero_and_aligned() {
        let mut rng = SeedRng::new(1);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(&mut store, 6, ArchPreset::Small, &mut rng);
        let x = Matrix::randn(10, 6, 0.0, 1.0, &mut rng);
        let z = ae.embed(&store, &x);
        let mu = Matrix::randn(2, z.cols(), 0.0, 1.0, &mut rng);
        let q = soft_assignment(&z, &mu, 1.0);
        let p = adec_nn::target_distribution(&q);
        let mu_id = store.register("test.mu", mu);

        let g_kl = encoder_gradients(&ae.encoder, |t| kl_graph(t, &ae, &store, &x, mu_id, &p, 1.0));
        let g_rec = encoder_gradients(&ae.encoder, |t| ae_graph(t, &ae, &store, &x, None, 0.0));
        assert_eq!(g_kl.len(), ae.encoder.param_ids().len());
        let kl_norm: f32 = g_kl.iter().map(|g| g.sq_norm()).sum();
        let rec_norm: f32 = g_rec.iter().map(|g| g.sq_norm()).sum();
        assert!(kl_norm > 0.0);
        assert!(rec_norm > 0.0);
        // Self-cosine is 1.
        assert!((gradient_cosine(&g_kl, &g_kl) - 1.0).abs() < 1e-5);
        let c = gradient_cosine(&g_kl, &g_rec);
        assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn trace_series_and_fluctuation() {
        let mut trace = TrainTrace::default();
        for (i, acc) in [(0usize, 0.5f32), (10, 0.7), (20, 0.6), (30, 0.8)] {
            trace.points.push(TracePoint {
                iter: i,
                acc: Some(acc),
                nmi: Some(acc - 0.1),
                delta_fr: None,
                delta_fd: Some(-0.5),
                kl_loss: 1.0,
            });
        }
        assert_eq!(trace.acc_series().len(), 4);
        assert_eq!(trace.fd_series().len(), 4);
        assert!(trace.fr_series().is_empty());
        let fluct = trace.acc_fluctuation().unwrap();
        assert!(fluct > 0.0 && fluct < 0.3);
        assert!((trace.mean_of(|p| p.acc).unwrap() - 0.65).abs() < 1e-5);
    }
}
