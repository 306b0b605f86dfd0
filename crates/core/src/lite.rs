//! Fully-connected "lite" re-implementations of the remaining deep
//! baselines from the paper's Table 1.
//!
//! * [`ae_kmeans`] / [`ae_finch`] — cluster the pretrained embedding with
//!   k-means / FINCH (the paper's AE+k-means and AE+FINCH rows).
//! * [`deepcluster_lite`] — DeepCluster (Caron et al. 2018): alternate
//!   k-means pseudo-labels with classifier training, on an MLP encoder
//!   instead of a convnet.
//! * [`depict_lite`] — DEPICT (Dizaji et al. 2017): softmax classification
//!   head with a self-sharpened target plus reconstruction, fully
//!   connected instead of convolutional.
//! * [`sr_kmeans_lite`] — SR-k-means (Jabi et al. 2018): soft regularized
//!   latent k-means with reconstruction.
//!
//! JULE and VaDE have their own reduced implementations in
//! [`crate::jule`] and [`crate::vade`].

use crate::autoencoder::Autoencoder;
use crate::dec::{init_centroids, label_change, minibatch};
use crate::trace::{ClusterOutput, TraceConfig, TrainTrace};
use adec_classic::{finch, kmeans, KMeansConfig};
use adec_nn::{
    hard_labels, soft_assignment, target_distribution, Activation, Mlp, Optimizer, ParamId,
    ParamStore, Sgd, Tape,
};
use adec_tensor::{linalg::pairwise_sq_dists, Matrix, SeedRng};
use std::time::Instant;

/// AE + k-means: cluster the pretrained embedding directly.
pub fn ae_kmeans(
    ae: &Autoencoder,
    store: &ParamStore,
    data: &Matrix,
    k: usize,
    rng: &mut SeedRng,
) -> Vec<usize> {
    let z = ae.embed(store, data);
    kmeans(&z, &KMeansConfig::new(k), rng).labels
}

/// AE + FINCH: first-neighbor clustering of the pretrained embedding.
pub fn ae_finch(ae: &Autoencoder, store: &ParamStore, data: &Matrix, k: usize) -> Vec<usize> {
    let z = ae.embed(store, data);
    finch(&z, k)
}

/// Shared configuration for the iterative lite baselines.
#[derive(Debug, Clone)]
pub struct LiteConfig {
    /// Number of clusters K.
    pub k: usize,
    /// Alternation rounds (re-labelling / target refreshes).
    pub rounds: usize,
    /// Gradient steps per round.
    pub steps_per_round: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// What to record.
    pub trace: TraceConfig,
}

impl LiteConfig {
    /// CPU-budget defaults.
    pub fn fast(k: usize) -> Self {
        LiteConfig {
            k,
            rounds: 10,
            steps_per_round: 60,
            batch_size: 128,
            lr: 0.01,
            trace: TraceConfig::default(),
        }
    }
}

/// DeepCluster-lite: alternate (a) k-means on the embedding to produce
/// pseudo-labels with (b) encoder + linear-head classification training on
/// those labels.
pub fn deepcluster_lite(
    ae: &Autoencoder,
    store: &mut ParamStore,
    data: &Matrix,
    cfg: &LiteConfig,
    rng: &mut SeedRng,
) -> ClusterOutput {
    let start = Instant::now();
    let head = Mlp::new(
        store,
        &[ae.latent_dim(), cfg.k],
        Activation::Linear,
        Activation::Linear,
        rng,
    );
    let trainable: std::collections::HashSet<ParamId> = ae
        .encoder
        .param_ids()
        .into_iter()
        .chain(head.param_ids())
        .collect();
    let mut opt = Sgd::new(cfg.lr, 0.9).with_clip(5.0);
    let mut trace = TrainTrace::default();
    let mut labels: Vec<usize> = vec![0; data.rows()];
    let mut converged = false;

    for round in 0..cfg.rounds {
        let z = ae.embed(store, data);
        let new_labels = kmeans(&z, &KMeansConfig::fast(cfg.k), rng).labels;
        trace.push_scores(round * cfg.steps_per_round, &cfg.trace, &new_labels);
        if round > 0 && label_change(&labels, &new_labels) < 0.001 {
            converged = true;
            break;
        }
        labels = new_labels;

        // One-hot pseudo-label targets.
        for _ in 0..cfg.steps_per_round {
            let (idx, x_b) = minibatch(data, cfg.batch_size, None, rng);
            let mut targets = Matrix::zeros(idx.len(), cfg.k);
            for (row, &i) in idx.iter().enumerate() {
                targets.set(row, labels[i], 1.0);
            }
            let mut tape = Tape::new();
            let xv = tape.leaf(x_b);
            let z = ae.encoder.forward(&mut tape, store, xv);
            let logits = head.forward(&mut tape, store, z);
            let loss = tape.softmax_cross_entropy(logits, &targets);
            tape.backward(loss);
            opt.step_filtered(&tape, store, |id| trainable.contains(&id));
        }
    }

    let z = ae.embed(store, data);
    let final_labels = kmeans(&z, &KMeansConfig::fast(cfg.k), rng).labels;
    let mut q = Matrix::zeros(data.rows(), cfg.k);
    for (i, &l) in final_labels.iter().enumerate() {
        q.set(i, l, 1.0);
    }
    ClusterOutput {
        labels: final_labels,
        q,
        iterations: cfg.rounds * cfg.steps_per_round,
        converged,
        trace,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// DEPICT-lite: a softmax clustering head over the embedding trained
/// against a DEC-style sharpened target, regularized end-to-end by
/// reconstruction.
pub fn depict_lite(
    ae: &Autoencoder,
    store: &mut ParamStore,
    data: &Matrix,
    cfg: &LiteConfig,
    rng: &mut SeedRng,
) -> ClusterOutput {
    let start = Instant::now();
    let head = Mlp::new(
        store,
        &[ae.latent_dim(), cfg.k],
        Activation::Linear,
        Activation::Linear,
        rng,
    );
    let trainable: std::collections::HashSet<ParamId> = ae
        .param_ids()
        .into_iter()
        .chain(head.param_ids())
        .collect();
    let mut opt = Sgd::new(cfg.lr, 0.9).with_clip(5.0);
    let mut trace = TrainTrace::default();
    let mut converged = false;
    let mut y_prev: Option<Vec<usize>> = None;
    let mut p_full = Matrix::zeros(0, 0);

    // Initialize the head so that its argmax matches k-means clusters:
    // train briefly against k-means pseudo-labels.
    {
        let z = ae.embed(store, data);
        let init_labels = kmeans(&z, &KMeansConfig::fast(cfg.k), rng).labels;
        let mut targets = Matrix::zeros(data.rows(), cfg.k);
        for (i, &l) in init_labels.iter().enumerate() {
            targets.set(i, l, 1.0);
        }
        let head_ids: std::collections::HashSet<ParamId> = head.param_ids().into_iter().collect();
        let mut head_opt = Sgd::new(0.1, 0.9);
        for _ in 0..100 {
            let (idx, x_b) = minibatch(data, cfg.batch_size, None, rng);
            let t_b = targets.gather_rows(&idx);
            let mut tape = Tape::new();
            let xv = tape.leaf(x_b);
            let z = ae.encoder.forward(&mut tape, store, xv);
            let logits = head.forward(&mut tape, store, z);
            let loss = tape.softmax_cross_entropy(logits, &t_b);
            tape.backward(loss);
            head_opt.step_filtered(&tape, store, |id| head_ids.contains(&id));
        }
    }

    let soft_probs = |store: &ParamStore| -> Matrix {
        let z = ae.embed(store, data);
        let logits = head.infer(store, &z);
        let mut probs = Matrix::zeros(logits.rows(), logits.cols());
        for i in 0..logits.rows() {
            let row = logits.row(i);
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let denom: f32 = row.iter().map(|&v| (v - m).exp()).sum();
            for j in 0..logits.cols() {
                probs.set(i, j, ((logits.get(i, j) - m).exp()) / denom);
            }
        }
        probs
    };

    let total_iters = cfg.rounds * cfg.steps_per_round;
    for i in 0..total_iters {
        if i % cfg.steps_per_round == 0 {
            let probs = soft_probs(store);
            p_full = target_distribution(&probs);
            let y_pred = hard_labels(&probs);
            trace.push_scores(i, &cfg.trace, &y_pred);
            if let Some(prev) = &y_prev {
                if label_change(prev, &y_pred) < 0.001 {
                    converged = true;
                    break;
                }
            }
            y_prev = Some(y_pred);
        }
        let (idx, x_b) = minibatch(data, cfg.batch_size, None, rng);
        let p_b = p_full.gather_rows(&idx);
        let mut tape = Tape::new();
        let xv = tape.leaf(x_b.clone());
        let z = ae.encoder.forward(&mut tape, store, xv);
        let logits = head.forward(&mut tape, store, z);
        let ce = tape.softmax_cross_entropy(logits, &p_b);
        let xhat = ae.decoder.forward(&mut tape, store, z);
        let target = tape.leaf(x_b);
        let rec = tape.mse(xhat, target);
        let loss = tape.add(ce, rec);
        tape.backward(loss);
        opt.step_filtered(&tape, store, |id| trainable.contains(&id));
    }

    let probs = soft_probs(store);
    ClusterOutput {
        labels: hard_labels(&probs),
        q: probs,
        iterations: total_iters,
        converged,
        trace,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// SR-k-means-lite: soft regularized latent k-means — the network minimizes
/// reconstruction plus a soft k-means attraction toward the
/// responsibility-weighted centroid mixture, with centroids re-estimated
/// as responsibility-weighted means every round.
pub fn sr_kmeans_lite(
    ae: &Autoencoder,
    store: &mut ParamStore,
    data: &Matrix,
    cfg: &LiteConfig,
    rng: &mut SeedRng,
) -> ClusterOutput {
    let start = Instant::now();
    let mut centroids = init_centroids(ae, store, data, cfg.k, rng);
    let trainable: std::collections::HashSet<ParamId> = ae.param_ids().into_iter().collect();
    let mut opt = Sgd::new(cfg.lr, 0.9).with_clip(5.0);
    let mut trace = TrainTrace::default();
    let mut converged = false;
    let mut y_prev: Option<Vec<usize>> = None;
    let lambda = 1.0f32;

    let responsibilities = |z: &Matrix, centroids: &Matrix| -> Matrix {
        // Softmax over negative squared distances (temperature 1).
        let d2 = pairwise_sq_dists(z, centroids);
        let mut s = Matrix::zeros(z.rows(), centroids.rows());
        for i in 0..z.rows() {
            let row = d2.row(i);
            let m = row.iter().cloned().fold(f32::INFINITY, f32::min);
            let denom: f32 = row.iter().map(|&v| (-(v - m)).exp()).sum();
            for j in 0..centroids.rows() {
                s.set(i, j, (-(d2.get(i, j) - m)).exp() / denom);
            }
        }
        s
    };

    let total_iters = cfg.rounds * cfg.steps_per_round;
    for i in 0..total_iters {
        if i % cfg.steps_per_round == 0 {
            let z = ae.embed(store, data);
            let s = responsibilities(&z, &centroids);
            // Weighted centroid re-estimation.
            for j in 0..cfg.k {
                let wsum: f32 = (0..z.rows()).map(|r| s.get(r, j)).sum::<f32>().max(1e-8);
                for t in 0..z.cols() {
                    let num: f32 = (0..z.rows()).map(|r| s.get(r, j) * z.get(r, t)).sum();
                    centroids.set(j, t, num / wsum);
                }
            }
            let y_pred: Vec<usize> = (0..s.rows()).map(|r| s.row_argmax(r)).collect();
            trace.push_scores(i, &cfg.trace, &y_pred);
            if let Some(prev) = &y_prev {
                if label_change(prev, &y_pred) < 0.001 {
                    converged = true;
                    break;
                }
            }
            y_prev = Some(y_pred);
        }
        let (_, x_b) = minibatch(data, cfg.batch_size, None, rng);
        // Soft targets: responsibility-weighted centroid mixture (constant
        // within the step).
        let z_now = ae.embed(store, &x_b);
        let s = responsibilities(&z_now, &centroids);
        let soft_targets = s.matmul(&centroids);

        let mut tape = Tape::new();
        let xv = tape.leaf(x_b.clone());
        let z = ae.encoder.forward(&mut tape, store, xv);
        let xhat = ae.decoder.forward(&mut tape, store, z);
        let target = tape.leaf(x_b);
        let rec = tape.mse(xhat, target);
        let t = tape.leaf(soft_targets);
        let km = tape.mse(z, t);
        let km_scaled = tape.scale(km, lambda);
        let loss = tape.add(rec, km_scaled);
        tape.backward(loss);
        opt.step_filtered(&tape, store, |id| trainable.contains(&id));
    }

    let z = ae.embed(store, data);
    let q = soft_assignment(&z, &centroids, 1.0);
    ClusterOutput {
        labels: hard_labels(&q),
        q,
        iterations: total_iters,
        converged,
        trace,
        seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
// Test code: unwraps are the assertions themselves here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::autoencoder::ArchPreset;
    use crate::dec::tests::blob_manifold;
    use crate::pretrain::{pretrain_autoencoder, PretrainConfig};
    use adec_datagen::Modality;

    fn setup(seed: u64) -> (Matrix, Vec<usize>, ParamStore, Autoencoder, SeedRng) {
        let mut rng = SeedRng::new(seed);
        let (data, y) = blob_manifold(40, 3, 24, &mut rng);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(&mut store, 24, ArchPreset::Small, &mut rng);
        pretrain_autoencoder(
            &ae,
            &mut store,
            &data,
            Modality::Tabular,
            &PretrainConfig {
                iterations: 400,
                batch_size: 64,
                lr: 1e-3,
                ..PretrainConfig::vanilla(400)
            },
            &mut rng,
        )
        .unwrap();
        (data, y, store, ae, rng)
    }

    #[test]
    fn ae_kmeans_beats_raw_kmeans_floor() {
        let (data, y, store, ae, mut rng) = setup(51);
        let pred = ae_kmeans(&ae, &store, &data, 3, &mut rng);
        let acc = adec_metrics::accuracy(&y, &pred);
        assert!(acc > 0.6, "AE+k-means ACC {acc}");
    }

    #[test]
    fn ae_finch_produces_valid_partition() {
        let (data, _y, store, ae, _rng) = setup(52);
        let pred = ae_finch(&ae, &store, &data, 3);
        assert_eq!(pred.len(), data.rows());
        let uniq: std::collections::HashSet<usize> = pred.iter().copied().collect();
        assert!(uniq.len() <= 3 + 1);
    }

    #[test]
    fn deepcluster_lite_trains() {
        let (data, y, mut store, ae, mut rng) = setup(53);
        let mut cfg = LiteConfig::fast(3);
        cfg.rounds = 6;
        cfg.trace = TraceConfig::curves(&y);
        let out = deepcluster_lite(&ae, &mut store, &data, &cfg, &mut rng);
        let acc = out.acc(&y);
        assert!(acc > 0.6, "DeepCluster-lite ACC {acc}");
        assert!(!out.trace.points.is_empty());
    }

    #[test]
    fn depict_lite_trains() {
        let (data, y, mut store, ae, mut rng) = setup(54);
        let mut cfg = LiteConfig::fast(3);
        cfg.rounds = 8;
        let out = depict_lite(&ae, &mut store, &data, &cfg, &mut rng);
        let acc = out.acc(&y);
        assert!(acc > 0.6, "DEPICT-lite ACC {acc}");
        // Q rows are softmax probabilities.
        for i in 0..out.q.rows() {
            let s: f32 = out.q.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn sr_kmeans_lite_trains() {
        let (data, y, mut store, ae, mut rng) = setup(55);
        let mut cfg = LiteConfig::fast(3);
        cfg.rounds = 8;
        let out = sr_kmeans_lite(&ae, &mut store, &data, &cfg, &mut rng);
        let acc = out.acc(&y);
        assert!(acc > 0.6, "SR-k-means-lite ACC {acc}");
    }
}
