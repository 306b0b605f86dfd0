//! Training instrumentation: per-interval ACC/NMI learning curves and the
//! paper's Δ_FR / Δ_FD gradient diagnostics (Figures 7–12).

use adec_metrics::{accuracy, gradient_cosine, hungarian_min_cost, nmi, Contingency};
use adec_nn::{Mlp, ParamId, ParamStore, Tape};
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

    /// Serializes the trace as JSONL: one object per recorded point, in
    /// order. Floats use [`adec_obs::json::format_f32`], so every `f32`
    /// bit pattern (including `NaN`, infinities and `-0.0`) survives a
    /// [`TrainTrace::from_jsonl`] round trip exactly; absent metrics are
    /// written as `null`.
    pub fn to_jsonl(&self) -> String {
        use adec_obs::json::format_f32;
        let opt = |v: Option<f32>| v.map_or_else(|| "null".to_string(), format_f32);
        let mut out = String::new();
        for p in &self.points {
            out.push_str(&format!(
                "{{\"iter\":{},\"kl_loss\":{},\"acc\":{},\"nmi\":{},\"delta_fr\":{},\"delta_fd\":{}}}\n",
                p.iter,
                format_f32(p.kl_loss),
                opt(p.acc),
                opt(p.nmi),
                opt(p.delta_fr),
                opt(p.delta_fd),
            ));
        }
        out
    }

    /// Parses a trace previously written by [`TrainTrace::to_jsonl`].
    /// Blank lines are skipped; any malformed line is an error naming the
    /// 1-based line number.
    pub fn from_jsonl(text: &str) -> Result<TrainTrace, String> {
        use adec_obs::json::{parse_f32, Json};
        let req_f32 = |obj: &Json, key: &str| -> Result<f32, String> {
            obj.get(key)
                .and_then(parse_f32)
                .ok_or_else(|| format!("missing or invalid field `{key}`"))
        };
        let opt_f32 = |obj: &Json, key: &str| -> Result<Option<f32>, String> {
            match obj.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => parse_f32(v)
                    .map(Some)
                    .ok_or_else(|| format!("invalid field `{key}`")),
            }
        };
        let mut trace = TrainTrace::default();
        for (li, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let parse_line = |line: &str| -> Result<TracePoint, String> {
                let obj = Json::parse(line)?;
                let iter = obj
                    .get("iter")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "missing or invalid field `iter`".to_string())?;
                Ok(TracePoint {
                    iter: usize::try_from(iter).map_err(|e| e.to_string())?,
                    acc: opt_f32(&obj, "acc")?,
                    nmi: opt_f32(&obj, "nmi")?,
                    delta_fr: opt_f32(&obj, "delta_fr")?,
                    delta_fd: opt_f32(&obj, "delta_fd")?,
                    kl_loss: req_f32(&obj, "kl_loss")?,
                })
            };
            let point =
                parse_line(line).map_err(|e| format!("trace jsonl line {}: {e}", li + 1))?;
            trace.points.push(point);
        }
        Ok(trace)
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

/// Which self/pseudo-supervised loss to differentiate on a probe batch.
pub enum GradLoss<'a> {
    /// The DEC KL objective with the given targets (pseudo or supervised).
    DecKl {
        /// Centroid matrix `k × d`.
        mu: &'a Matrix,
        /// Target distribution rows aligned with the probe batch.
        p: &'a Matrix,
        /// Student-t degrees of freedom.
        alpha: f32,
    },
    /// Vanilla reconstruction through the given decoder.
    Reconstruction {
        /// Decoder network.
        decoder: &'a Mlp,
    },
    /// ADEC's adversarial encoder regularizer
    /// `E[log(1 − D(G(E(x))))]` through decoder and discriminator.
    Adversarial {
        /// Decoder network.
        decoder: &'a Mlp,
        /// Discriminator network (logit output).
        discriminator: &'a Mlp,
    },
}

/// Gradients of the chosen loss w.r.t. the *encoder* parameters on a probe
/// batch, in `encoder.param_ids()` order. Used to evaluate eqs. 5–6.
pub fn encoder_gradients(
    encoder: &Mlp,
    store: &ParamStore,
    x: &Matrix,
    loss: GradLoss<'_>,
) -> Vec<Matrix> {
    let mut tape = Tape::new();
    let xv = tape.leaf(x.clone());
    let z = encoder.forward(&mut tape, store, xv);
    let loss_node = match loss {
        GradLoss::DecKl { mu, p, alpha } => {
            let muv = tape.leaf(mu.clone());
            let kl = tape.dec_kl(z, muv, p, alpha);
            tape.scale(kl, 1.0 / x.rows() as f32)
        }
        GradLoss::Reconstruction { decoder } => {
            let xhat = decoder.forward(&mut tape, store, z);
            let target = tape.leaf(x.clone());
            tape.mse(xhat, target)
        }
        GradLoss::Adversarial {
            decoder,
            discriminator,
        } => {
            let xhat = decoder.forward(&mut tape, store, z);
            let logits = discriminator.forward(&mut tape, store, xhat);
            // Non-saturating generator objective −E[log σ(s)] =
            // E[softplus(−s)], matching the ADEC encoder step.
            let neg = tape.scale(logits, -1.0);
            let sp = tape.softplus(neg);
            tape.mean_all(sp)
        }
    };
    tape.backward(loss_node);

    let encoder_ids: Vec<ParamId> = encoder.param_ids();
    let mut grads = Vec::with_capacity(encoder_ids.len());
    for id in encoder_ids {
        // The first binding of each id on this tape belongs to the encoder
        // forward pass just executed, so the lookup cannot miss.
        #[allow(clippy::expect_used)]
        let var = tape
            .bindings()
            .iter()
            .find(|(bid, _)| *bid == id)
            .map(|&(_, v)| v)
            .expect("encoder param must be bound"); // lint:allow(expect)
        grads.push(tape.grad(var));
    }
    grads
}

/// Computes the cosine between two encoder gradient sets (helper for the
/// runners; re-exported logic of `adec_metrics::gradient_cosine`).
pub fn grad_cosine(a: &[Matrix], b: &[Matrix]) -> f32 {
    gradient_cosine(a, b)
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;
    use adec_nn::{soft_assignment, Activation};
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
        let encoder = Mlp::new(&mut store, &[6, 8, 3], Activation::Relu, Activation::Linear, &mut rng);
        let decoder = Mlp::new(&mut store, &[3, 8, 6], Activation::Relu, Activation::Linear, &mut rng);
        let x = Matrix::randn(10, 6, 0.0, 1.0, &mut rng);
        let z = encoder.infer(&store, &x);
        let mu = Matrix::randn(2, 3, 0.0, 1.0, &mut rng);
        let q = soft_assignment(&z, &mu, 1.0);
        let p = adec_nn::target_distribution(&q);

        let g_kl = encoder_gradients(&encoder, &store, &x, GradLoss::DecKl { mu: &mu, p: &p, alpha: 1.0 });
        let g_rec = encoder_gradients(&encoder, &store, &x, GradLoss::Reconstruction { decoder: &decoder });
        assert_eq!(g_kl.len(), encoder.param_ids().len());
        let kl_norm: f32 = g_kl.iter().map(|g| g.sq_norm()).sum();
        let rec_norm: f32 = g_rec.iter().map(|g| g.sq_norm()).sum();
        assert!(kl_norm > 0.0);
        assert!(rec_norm > 0.0);
        // Self-cosine is 1.
        assert!((grad_cosine(&g_kl, &g_kl) - 1.0).abs() < 1e-5);
        let c = grad_cosine(&g_kl, &g_rec);
        assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn trace_jsonl_round_trip_is_lossless() {
        let mut trace = TrainTrace::default();
        let specials = [
            (0usize, Some(0.5f32), Some(0.42f32), None, Some(-0.5f32), 1.25f32),
            (10, None, None, Some(f32::NAN), Some(f32::INFINITY), f32::MIN_POSITIVE),
            (20, Some(-0.0), Some(f32::MAX), Some(f32::NEG_INFINITY), None, -0.0),
            (4096, Some(1.0e-40), None, None, None, std::f32::consts::PI),
        ];
        for (iter, acc, nmi, delta_fr, delta_fd, kl_loss) in specials {
            trace.points.push(TracePoint { iter, acc, nmi, delta_fr, delta_fd, kl_loss });
        }
        let text = trace.to_jsonl();
        assert_eq!(text.lines().count(), trace.points.len());
        let back = TrainTrace::from_jsonl(&text).unwrap();
        assert_eq!(back.points.len(), trace.points.len());
        let bits = |v: Option<f32>| v.map(f32::to_bits);
        for (a, b) in trace.points.iter().zip(back.points.iter()) {
            assert_eq!(a.iter, b.iter);
            assert_eq!(a.kl_loss.to_bits(), b.kl_loss.to_bits());
            assert_eq!(bits(a.acc), bits(b.acc));
            assert_eq!(bits(a.nmi), bits(b.nmi));
            assert_eq!(bits(a.delta_fr), bits(b.delta_fr));
            assert_eq!(bits(a.delta_fd), bits(b.delta_fd));
        }
        // Blank lines are tolerated; malformed lines are located exactly.
        assert!(TrainTrace::from_jsonl("\n\n").unwrap().points.is_empty());
        let err = TrainTrace::from_jsonl("{\"iter\":1,\"kl_loss\":0.5}\n{}").unwrap_err();
        assert!(err.contains("line 2"), "unexpected error: {err}");
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
