//! Deep Embedded Clustering (paper §2.2; Xie et al. 2016).
//!
//! After pretraining, the decoder is discarded and the encoder plus the
//! embedded centroids are jointly optimized to minimize `KL(P‖Q)` with the
//! Student-t soft assignment (eq. 1) and the self-sharpening target
//! distribution (eq. 3), refreshed every `update_interval` iterations.

use crate::autoencoder::Autoencoder;
use crate::cluster_loop::{cluster_loop, ClusterTrainer, Probe, StepCheck};
use crate::guard::{faults::FaultPlan, DurabilityConfig, Fault, GuardConfig, TrainError, TrainGuard};
use crate::trace::{encoder_gradients, grad_cosine, ClusterOutput, GradLoss, TraceConfig};
use adec_classic::{kmeans, KMeansConfig};
use adec_nn::{
    hard_labels, kl_divergence, soft_assignment, target_distribution, Optimizer, ParamId,
    ParamStore, Sgd, Tape, Var,
};
use adec_tensor::{Matrix, SeedRng};

/// DEC configuration.
#[derive(Debug, Clone)]
pub struct DecConfig {
    /// Number of clusters K.
    pub k: usize,
    /// Student-t degrees of freedom (paper: α = 1).
    pub alpha: f32,
    /// SGD learning rate (paper: 0.001).
    pub lr: f32,
    /// SGD momentum (paper: 0.9).
    pub momentum: f32,
    /// Mini-batch size (paper: 256).
    pub batch_size: usize,
    /// Maximum mini-batch iterations (paper: 10⁵).
    pub max_iter: usize,
    /// Label-change convergence threshold (paper: 0.001).
    pub tol: f32,
    /// Target-distribution refresh interval T.
    pub update_interval: usize,
    /// Train on augmented views (paper's integrated prior knowledge for
    /// image data): `Some((h, w))` applies a fresh random
    /// rotation/translation to every mini-batch while targets stay
    /// computed from the clean data. [`crate::Session`] fills this
    /// automatically for image datasets.
    pub augment: Option<(usize, usize)>,
    /// What to record while training.
    pub trace: TraceConfig,
    /// Divergence detection and rollback-recovery policy.
    pub guard: GuardConfig,
    /// Deterministic fault injections (tests / chaos harness).
    pub faults: FaultPlan,
    /// Checkpoint scheduling and resumption.
    pub durability: DurabilityConfig,
}

impl DecConfig {
    /// Paper-faithful hyperparameters.
    pub fn paper(k: usize) -> Self {
        DecConfig {
            k,
            alpha: 1.0,
            lr: 0.001,
            momentum: 0.9,
            batch_size: 256,
            max_iter: 100_000,
            tol: 0.001,
            update_interval: 140,
            augment: None,
            trace: TraceConfig::default(),
            guard: GuardConfig::default(),
            faults: FaultPlan::default(),
            durability: DurabilityConfig::default(),
        }
    }

    /// CPU-budget configuration for harnesses and tests.
    pub fn fast(k: usize) -> Self {
        DecConfig {
            k,
            alpha: 1.0,
            lr: 0.01,
            momentum: 0.9,
            batch_size: 128,
            max_iter: 1_200,
            tol: 0.001,
            update_interval: 140,
            augment: None,
            trace: TraceConfig::default(),
            guard: GuardConfig::default(),
            faults: FaultPlan::default(),
            durability: DurabilityConfig::default(),
        }
    }
}

/// DEC runner (stateless; operates on a pretrained [`Autoencoder`]).
pub struct Dec;

/// Initializes embedded centroids with k-means on the encoder output
/// (Algorithm 1's initialization step, shared by every deep model here).
pub(crate) fn init_centroids(
    ae: &Autoencoder,
    store: &ParamStore,
    data: &Matrix,
    k: usize,
    rng: &mut SeedRng,
) -> Matrix {
    let z = ae.embed(store, data);
    kmeans(&z, &KMeansConfig::fast(k), rng).centroids
}

/// Samples a minibatch of `data`: its row indices and its training view.
/// With `augment` set the view is a fresh random rotation/translation of
/// the rows (the paper's clustering-phase augmentation; targets are still
/// computed from the clean data).
pub(crate) fn minibatch(
    data: &Matrix,
    batch_size: usize,
    augment: Option<(usize, usize)>,
    rng: &mut SeedRng,
) -> (Vec<usize>, Matrix) {
    let idx = rng.sample_indices(data.rows(), batch_size.min(data.rows()));
    let x_b = data.gather_rows(&idx);
    let x_b = match augment {
        Some((h, w)) => adec_datagen::augment::augment_batch(
            &x_b,
            h,
            w,
            &adec_datagen::augment::AugmentConfig::default(),
            rng,
        ),
        None => x_b,
    };
    (idx, x_b)
}

/// Fraction of labels that changed between two assignments (the paper's
/// `tol` criterion).
pub(crate) fn label_change(a: &[usize], b: &[usize]) -> f32 {
    assert_eq!(a.len(), b.len());
    let changed = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
    changed as f32 / a.len() as f32
}

impl Dec {
    /// Runs the DEC clustering phase, mutating the encoder and returning
    /// the final assignment. The decoder is untouched (discarded).
    ///
    /// The loop runs under a [`TrainGuard`]: a non-finite/exploding loss,
    /// poisoned parameters, or a collapsed cluster roll the run back to
    /// the last refresh snapshot with a reduced learning rate instead of
    /// producing garbage metrics; the structured [`TrainError`] surfaces
    /// only once the retry budget is spent. With
    /// [`DurabilityConfig::checkpoint_dir`] set, refresh points write
    /// rolling checkpoints and a resumed run reproduces the
    /// uninterrupted trajectory bitwise.
    pub fn run(
        ae: &Autoencoder,
        store: &mut ParamStore,
        data: &Matrix,
        cfg: &DecConfig,
        rng: &mut SeedRng,
    ) -> Result<ClusterOutput, TrainError> {
        let (_, out) = cluster_loop!("dec", ae, data, cfg).run(store, rng, |store, rng| {
            let mu0 = init_centroids(ae, store, data, cfg.k, rng);
            let mu_id = store.register("dec.centroids", mu0);
            crate::archspec::clustering_spec("dec", ae, store, store.get(mu_id), "sgd+momentum").assert_valid();
            let mut params = ae.encoder.param_ids();
            params.push(mu_id);
            DecTrainer {
                ae,
                data,
                cfg,
                targets: KlTargets::new(mu_id, cfg.alpha),
                params,
                opt: Sgd::new(cfg.lr, cfg.momentum).with_clip(5.0),
            }
        })?;
        Ok(out)
    }
}

/// DEC's part of the shared clustering loop: KL self-training of the
/// encoder and the centroids.
struct DecTrainer<'a> {
    ae: &'a Autoencoder,
    data: &'a Matrix,
    cfg: &'a DecConfig,
    targets: KlTargets,
    /// The encoder and the centroids: what the step updates and the
    /// guard protects.
    params: Vec<ParamId>,
    opt: Sgd,
}

impl ClusterTrainer for DecTrainer<'_> {
    fn centroids(&self) -> ParamId {
        self.targets.mu_id
    }

    fn guarded(&self) -> Vec<ParamId> {
        self.params.clone()
    }

    fn optimizers(&mut self) -> &mut [Sgd] {
        std::slice::from_mut(&mut self.opt)
    }

    fn alpha(&self) -> f32 {
        self.cfg.alpha
    }

    fn refresh(&mut self, store: &ParamStore, guard: &TrainGuard) -> Result<Vec<usize>, Fault> {
        self.targets.refresh(self.ae, self.data, store, guard)
    }

    fn probe(&self, store: &ParamStore, rng: &mut SeedRng) -> Probe {
        self.targets.probe(self.ae, self.data, store, &self.cfg.trace, None, rng)
    }

    fn step(
        &mut self,
        store: &mut ParamStore,
        rng: &mut SeedRng,
        check: &mut StepCheck<'_>,
    ) -> Result<(), Fault> {
        let (idx, x_b) = minibatch(self.data, self.cfg.batch_size, self.cfg.augment, rng);
        let p_b = self.targets.batch(&idx);

        let _prof_tape = adec_nn::profiler::phase("dec.kl");
        let mut tape = Tape::new();
        let loss = kl_graph(&mut tape, self.ae, store, &x_b, self.targets.mu_id, &p_b, self.cfg.alpha);
        check.loss(tape.scalar(loss))?;
        tape.backward(loss);
        self.opt.step_filtered(&tape, store, |id| self.params.contains(&id));
        Ok(())
    }
}

/// The `dec.kl` step graph: `KL(P‖Q)` of a batch through the encoder and
/// the centroids, averaged over its rows. ADEC's clustering pass
/// (`adec.encoder.kl`) is the same graph.
pub(crate) fn kl_graph(
    tape: &mut Tape,
    ae: &Autoencoder,
    store: &ParamStore,
    x_b: &Matrix,
    mu_id: ParamId,
    p_b: &Matrix,
    alpha: f32,
) -> Var {
    let xv = tape.leaf(x_b.clone());
    let z = ae.encoder.forward(tape, store, xv);
    let mu = tape.param(store, mu_id);
    let kl = tape.dec_kl(z, mu, p_b, alpha);
    tape.scale(kl, 1.0 / x_b.rows() as f32)
}

/// DEC's self-training targets, shared by DEC, IDEC and ADEC: the
/// Student-t soft assignment `Q` of the full data (eq. 1) and its
/// sharpened target `P` (eq. 3), as of the last refresh.
pub(crate) struct KlTargets {
    /// The centroid parameter.
    pub mu_id: ParamId,
    alpha: f32,
    q: Matrix,
    p: Matrix,
}

impl KlTargets {
    /// Targets over `mu_id`, empty until the first refresh.
    pub fn new(mu_id: ParamId, alpha: f32) -> KlTargets {
        KlTargets {
            mu_id,
            alpha,
            q: Matrix::zeros(0, 0),
            p: Matrix::zeros(0, 0),
        }
    }

    /// Recomputes `Q` and `P` from the full data, unless the guard finds
    /// the assignment or the parameters faulted; returns the hard labels.
    pub fn refresh(
        &mut self,
        ae: &Autoencoder,
        data: &Matrix,
        store: &ParamStore,
        guard: &TrainGuard,
    ) -> Result<Vec<usize>, Fault> {
        let z = ae.embed(store, data);
        let q = soft_assignment(&z, store.get(self.mu_id), self.alpha);
        guard.check_assignments(&q).and_then(|()| guard.check_params(store))?;
        self.p = target_distribution(&q);
        let labels = hard_labels(&q);
        self.q = q;
        Ok(labels)
    }

    /// The rows of `P` for a minibatch.
    pub fn batch(&self, idx: &[usize]) -> Matrix {
        self.p.gather_rows(idx)
    }

    /// The mean KL loss at the last refresh and, with
    /// [`TraceConfig::tradeoff`], the Δ_FR / Δ_FD gradient probes.
    /// `self_loss` is the model's self-supervised gradient source for
    /// Δ_FD (None → Δ_FD not recorded, as for plain DEC which has no
    /// regularizer).
    pub fn probe(
        &self,
        ae: &Autoencoder,
        data: &Matrix,
        store: &ParamStore,
        cfg: &TraceConfig,
        self_loss: Option<GradLoss<'_>>,
        rng: &mut SeedRng,
    ) -> Probe {
        let (q_full, p_full) = (&self.q, &self.p);
        let kl_loss = kl_divergence(p_full, q_full) / q_full.rows() as f32;

        let (mut delta_fr, mut delta_fd) = (None, None);
        if cfg.tradeoff {
            let probe = rng.sample_indices(data.rows(), cfg.probe_size.min(data.rows()));
            let x_probe = data.gather_rows(&probe);
            let mu = store.get(self.mu_id).clone();

            // Sharpness-normalized probe: as the embedding spreads out, the
            // α = 1 assignment saturates to one-hot and the residual gradients
            // concentrate on the (anti-parallel) error set, which conflates
            // convergence sharpness with Feature Randomness. Measuring both
            // models with the Student-t bandwidth matched to the current
            // nearest-centroid distance scale keeps the probe assignment at
            // comparable entropy — a measurement-only normalization applied
            // identically to every model.
            let z_probe = ae.encoder.infer(store, &x_probe);
            let probe_alpha = {
                let d2 = adec_tensor::pairwise_sq_dists(&z_probe, &mu);
                let mut acc = 0.0f32;
                for i in 0..d2.rows() {
                    let mut best = f32::INFINITY;
                    for j in 0..d2.cols() {
                        best = best.min(d2.get(i, j));
                    }
                    acc += best;
                }
                (acc / d2.rows().max(1) as f32).max(self.alpha)
            };
            let q_probe = soft_assignment(&z_probe, &mu, probe_alpha);
            let p_probe = target_distribution(&q_probe);
            let g_pseudo = encoder_gradients(
                &ae.encoder,
                store,
                &x_probe,
                GradLoss::DecKl {
                    mu: &mu,
                    p: &p_probe,
                    alpha: probe_alpha,
                },
            );
            if let Some(y_true) = &cfg.y_true {
                let y_probe: Vec<usize> = probe.iter().map(|&i| y_true[i]).collect();
                // The cluster↔class mapping comes from the FULL-data
                // assignment — a probe-sized contingency gives unstable
                // Hungarian matchings that corrupt the supervised target.
                let map = crate::trace::class_to_cluster_map(q_full, y_true);
                let p_sup = crate::trace::supervised_target_with_map(&y_probe, &map, q_full.cols());
                let g_true = encoder_gradients(
                    &ae.encoder,
                    store,
                    &x_probe,
                    GradLoss::DecKl {
                        mu: &mu,
                        p: &p_sup,
                        alpha: probe_alpha,
                    },
                );
                delta_fr = Some(grad_cosine(&g_pseudo, &g_true));
            }
            if let Some(self_loss) = self_loss {
                let g_self = encoder_gradients(&ae.encoder, store, &x_probe, self_loss);
                delta_fd = Some(grad_cosine(&g_pseudo, &g_self));
            }
        }
        Probe {
            kl_loss,
            grad_norm: None,
            delta_fr,
            delta_fd,
        }
    }
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
pub(crate) mod tests {
    use super::*;
    use crate::autoencoder::ArchPreset;
    use crate::pretrain::{pretrain_autoencoder, PretrainConfig};
    use adec_datagen::Modality;

    /// Structured toy data: K latent blobs pushed through a fixed random
    /// nonlinearity — clusterable but not linearly.
    pub(crate) fn blob_manifold(
        n_per: usize,
        k: usize,
        dim: usize,
        rng: &mut SeedRng,
    ) -> (Matrix, Vec<usize>) {
        let w = Matrix::randn(4, dim, 0.0, 0.8, rng);
        let centers = Matrix::randn(k, 4, 0.0, 2.5, rng);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..k {
            for _ in 0..n_per {
                let mut latent = Matrix::zeros(1, 4);
                for t in 0..4 {
                    latent.set(0, t, centers.get(c, t) + rng.normal(0.0, 0.35));
                }
                let mut out = latent.matmul(&w);
                out.map_inplace(|v| v.tanh());
                rows.push(out.row(0).to_vec());
                labels.push(c);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn dec_improves_over_initial_kmeans() {
        let mut rng = SeedRng::new(11);
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
        let z = ae.embed(&store, &data);
        let init = kmeans(&z, &KMeansConfig::fast(3), &mut rng);
        let init_acc = adec_metrics::accuracy(&y, &init.labels);

        let mut cfg = DecConfig::fast(3);
        cfg.max_iter = 600;
        cfg.trace = TraceConfig::curves(&y);
        let out = Dec::run(&ae, &mut store, &data, &cfg, &mut rng).unwrap();
        let final_acc = out.acc(&y);
        assert!(
            final_acc >= init_acc - 0.02,
            "DEC should not be worse than its init: {init_acc} -> {final_acc}"
        );
        assert!(final_acc > 0.75, "DEC final ACC {final_acc}");
        assert!(!out.trace.points.is_empty());
    }

    #[test]
    fn dec_convergence_criterion_fires_on_stable_labels() {
        let mut rng = SeedRng::new(12);
        let (data, _) = blob_manifold(30, 2, 16, &mut rng);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(&mut store, 16, ArchPreset::Small, &mut rng);
        pretrain_autoencoder(
            &ae,
            &mut store,
            &data,
            Modality::Tabular,
            &PretrainConfig {
                iterations: 300,
                batch_size: 64,
                lr: 1e-3,
                ..PretrainConfig::vanilla(300)
            },
            &mut rng,
        )
        .unwrap();
        let mut cfg = DecConfig::fast(2);
        cfg.max_iter = 2_000;
        cfg.tol = 0.01;
        let out = Dec::run(&ae, &mut store, &data, &cfg, &mut rng).unwrap();
        assert!(out.converged, "well-separated 2-cluster case should converge early");
        assert!(out.iterations < 2_000);
    }

    #[test]
    fn label_change_fraction() {
        assert_eq!(label_change(&[0, 1, 2], &[0, 1, 2]), 0.0);
        assert_eq!(label_change(&[0, 1, 2], &[0, 1, 0]), 1.0 / 3.0);
        assert_eq!(label_change(&[0, 0], &[1, 1]), 1.0);
    }

    #[test]
    fn q_stays_row_stochastic_after_training() {
        let mut rng = SeedRng::new(13);
        let (data, _) = blob_manifold(20, 2, 12, &mut rng);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(&mut store, 12, ArchPreset::Small, &mut rng);
        let mut cfg = DecConfig::fast(2);
        cfg.max_iter = 150;
        let out = Dec::run(&ae, &mut store, &data, &cfg, &mut rng).unwrap();
        for i in 0..out.q.rows() {
            let s: f32 = out.q.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }
}
