//! Improved Deep Embedded Clustering (paper §2.3; Guo et al. 2017).
//!
//! Identical to DEC except the fine-tuning objective keeps the decoder and
//! regularizes the clustering loss with reconstruction:
//! `L = L_r + γ·L_DEC` (eq. 4). The balancing coefficient γ is exactly the
//! hyperparameter whose sensitivity the paper's Figure 10 probes, and the
//! within-network clustering/reconstruction competition is the Feature
//! Drift mechanism ADEC removes.

use crate::autoencoder::Autoencoder;
use crate::cluster_loop::{cluster_loop, ClusterTrainer, Probe, StepCheck};
use crate::dec::{init_centroids, minibatch, KlTargets};
use crate::guard::{faults::FaultPlan, DurabilityConfig, Fault, GuardConfig, TrainError, TrainGuard};
use crate::trace::{ClusterOutput, GradLoss, TraceConfig};
use adec_nn::{Optimizer, ParamId, ParamStore, Sgd, Tape, Var};
use adec_tensor::Matrix;
use adec_tensor::SeedRng;

/// IDEC configuration.
#[derive(Debug, Clone)]
pub struct IdecConfig {
    /// Number of clusters K.
    pub k: usize,
    /// Student-t degrees of freedom (paper: α = 1).
    pub alpha: f32,
    /// Clustering-loss weight γ (IDEC paper default: 0.1; the Figure-10
    /// sweep varies this over 10⁻³…10³).
    pub gamma: f32,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Maximum mini-batch iterations.
    pub max_iter: usize,
    /// Label-change convergence threshold.
    pub tol: f32,
    /// Target-distribution refresh interval T.
    pub update_interval: usize,
    /// Train on augmented views (see [`crate::DecConfig::augment`]).
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

impl IdecConfig {
    /// Paper-faithful hyperparameters.
    pub fn paper(k: usize) -> Self {
        IdecConfig {
            k,
            alpha: 1.0,
            gamma: 0.1,
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

    /// CPU-budget configuration.
    pub fn fast(k: usize) -> Self {
        IdecConfig {
            k,
            alpha: 1.0,
            gamma: 0.1,
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

/// IDEC runner.
pub struct Idec;

impl Idec {
    /// Runs the IDEC fine-tuning phase: joint reconstruction + clustering
    /// through encoder, decoder, and centroids.
    ///
    /// Guarded and checkpointed exactly like [`crate::Dec::run`].
    pub fn run(
        ae: &Autoencoder,
        store: &mut ParamStore,
        data: &Matrix,
        cfg: &IdecConfig,
        rng: &mut SeedRng,
    ) -> Result<ClusterOutput, TrainError> {
        let (_, out) = cluster_loop!("idec", ae, data, cfg).run(store, rng, |store, rng| {
            let mu0 = init_centroids(ae, store, data, cfg.k, rng);
            let mu_id = store.register("idec.centroids", mu0);
            crate::archspec::clustering_spec("idec", ae, store, store.get(mu_id), "sgd+momentum").assert_valid();
            let mut params = ae.param_ids();
            params.push(mu_id);
            IdecTrainer {
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

/// IDEC's part of the shared clustering loop: DEC's targets, with the
/// decoder's reconstruction loss kept in the step.
struct IdecTrainer<'a> {
    ae: &'a Autoencoder,
    data: &'a Matrix,
    cfg: &'a IdecConfig,
    targets: KlTargets,
    /// Encoder, decoder and centroids: what the step updates and the
    /// guard protects.
    params: Vec<ParamId>,
    opt: Sgd,
}

impl ClusterTrainer for IdecTrainer<'_> {
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
        let self_loss = GradLoss::Reconstruction {
            decoder: &self.ae.decoder,
        };
        self.targets.probe(self.ae, self.data, store, &self.cfg.trace, Some(self_loss), rng)
    }

    fn step(
        &mut self,
        store: &mut ParamStore,
        rng: &mut SeedRng,
        check: &mut StepCheck<'_>,
    ) -> Result<(), Fault> {
        let (idx, x_b) = minibatch(self.data, self.cfg.batch_size, self.cfg.augment, rng);
        let p_b = self.targets.batch(&idx);

        let _prof_tape = adec_nn::profiler::phase("idec.step");
        let mut tape = Tape::new();
        let loss = step_graph(&mut tape, self.ae, store, &x_b, self.targets.mu_id, &p_b, self.cfg);
        check.loss(tape.scalar(loss))?;
        tape.backward(loss);
        self.opt.step_filtered(&tape, store, |id| self.params.contains(&id));
        Ok(())
    }
}

/// The `idec.step` graph (eq. 4): reconstruction plus γ times the mean
/// `KL(P‖Q)` of a batch, through encoder, decoder and centroids.
pub(crate) fn step_graph(
    tape: &mut Tape,
    ae: &Autoencoder,
    store: &ParamStore,
    x_b: &Matrix,
    mu_id: ParamId,
    p_b: &Matrix,
    cfg: &IdecConfig,
) -> Var {
    let xv = tape.leaf(x_b.clone());
    let z = ae.encoder.forward(tape, store, xv);
    let xhat = ae.decoder.forward(tape, store, z);
    let target = tape.leaf(x_b.clone());
    let rec = tape.mse(xhat, target);
    let mu = tape.param(store, mu_id);
    let kl = tape.dec_kl(z, mu, p_b, cfg.alpha);
    let kl_mean = tape.scale(kl, cfg.gamma / x_b.rows() as f32);
    tape.add(rec, kl_mean)
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

    fn pretrained_setup(
        seed: u64,
    ) -> (Matrix, Vec<usize>, ParamStore, Autoencoder, SeedRng) {
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
    fn idec_clusters_structured_data() {
        let (data, y, mut store, ae, mut rng) = pretrained_setup(21);
        let mut cfg = IdecConfig::fast(3);
        cfg.max_iter = 600;
        cfg.trace = TraceConfig::curves(&y);
        let out = Idec::run(&ae, &mut store, &data, &cfg, &mut rng).unwrap();
        let acc = out.acc(&y);
        assert!(acc > 0.75, "IDEC ACC {acc}");
    }

    #[test]
    fn idec_preserves_reconstruction_better_than_dec() {
        // IDEC keeps the decoder in the loop, so post-training
        // reconstruction must be much better than after DEC (which corrupts
        // the encoder w.r.t. the frozen decoder).
        let (data, _y, store, ae, mut rng) = pretrained_setup(22);

        let mut store_dec = ParamStore::new();
        // Rebuild an identical setup for DEC by snapshot/restore.
        let ids: Vec<_> = store.iter().map(|(id, _, _)| id).collect();
        let snap = store.snapshot(&ids);
        for (id, name, value) in store.iter() {
            let new_id = store_dec.register(name.to_string(), value.clone());
            assert_eq!(new_id.index(), id.index());
        }
        let _ = snap;

        let mut cfg_dec = crate::dec::DecConfig::fast(3);
        cfg_dec.max_iter = 400;
        let _ = crate::dec::Dec::run(&ae, &mut store_dec, &data, &cfg_dec, &mut rng).unwrap();
        let dec_rec = ae.reconstruction_error(&store_dec, &data);

        let mut cfg_idec = IdecConfig::fast(3);
        cfg_idec.max_iter = 400;
        let mut store_idec = store;
        let _ = Idec::run(&ae, &mut store_idec, &data, &cfg_idec, &mut rng).unwrap();
        let idec_rec = ae.reconstruction_error(&store_idec, &data);

        assert!(
            idec_rec < dec_rec,
            "IDEC reconstruction {idec_rec} should beat DEC's {dec_rec}"
        );
    }

    #[test]
    fn gamma_zero_reduces_to_pure_reconstruction() {
        // With γ = 0 the clustering loss vanishes; labels then stay near
        // the k-means initialization (no sharpening pressure).
        let (data, _y, mut store, ae, mut rng) = pretrained_setup(23);
        let z_before = ae.embed(&store, &data);
        let mut cfg = IdecConfig::fast(3);
        cfg.gamma = 0.0;
        cfg.max_iter = 200;
        let _ = Idec::run(&ae, &mut store, &data, &cfg, &mut rng).unwrap();
        let z_after = ae.embed(&store, &data);
        // The embedding should move only a little relative to its scale.
        let rel = z_before.sub(&z_after).norm() / z_before.norm().max(1e-6);
        assert!(rel < 0.5, "γ=0 should not reshape the embedding much, rel {rel}");
    }

    #[test]
    fn idec_records_feature_drift() {
        let (data, y, mut store, ae, mut rng) = pretrained_setup(24);
        let mut cfg = IdecConfig::fast(3);
        cfg.max_iter = 200;
        cfg.trace = TraceConfig::full(&y);
        let out = Idec::run(&ae, &mut store, &data, &cfg, &mut rng).unwrap();
        let fd = out.trace.fd_series();
        assert!(!fd.is_empty(), "Δ_FD must be recorded");
        for (_, v) in fd {
            assert!((-1.0..=1.0).contains(&v));
        }
        assert!(!out.trace.fr_series().is_empty(), "Δ_FR must be recorded");
    }
}
