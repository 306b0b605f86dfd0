//! ADEC — Adversarial Deep Embedded Clustering (paper §4.2–4.3,
//! Algorithm 1).
//!
//! Three networks are trained **separately**, never through a shared
//! weighted loss, which is how ADEC escapes the Feature-Drift competition:
//!
//! * **Encoder E_φ** minimizes eq. 10 — the DEC KL objective plus the
//!   adversarial regularizer `E[log(1 − D(G(E(x))))]`, which penalizes
//!   embeddings whose decodings the discriminator can tell from real data
//!   (reducing Feature Randomness without a balancing hyperparameter).
//! * **Decoder G_θ** minimizes eq. 11 — plain reconstruction with the
//!   encoder *frozen*, acting as a monitor that catches up with the
//!   encoder's moves without drifting them.
//! * **Discriminator D_ω** ascends eq. 12 — the standard GAN value
//!   separating real samples from decoded embeddings.
//!
//! Because the decoder needs more steps than the others to stay in sync,
//! Algorithm 1 alternates M decoder-only iterations with M joint
//! iterations (`aux_iterations`), refreshing the target distribution P
//! every `update_interval` iterations and stopping when fewer than `tol`
//! of the labels change between refreshes.

use crate::autoencoder::Autoencoder;
use crate::cluster_loop::{cluster_loop, ClusterTrainer, Probe, StepCheck};
use crate::dec::{init_centroids, kl_graph, minibatch, KlTargets};
use crate::guard::{
    faults::FaultPlan, DurabilityConfig, ExtraCursor, Fault, GuardConfig, TrainError, TrainGuard,
};
use crate::trace::{ClusterOutput, GradLoss, TraceConfig};
use adec_nn::{Activation, Mlp, Optimizer, ParamId, ParamStore, Sgd, Tape, Var};
use adec_tensor::{Matrix, SeedRng};

/// ADEC configuration (paper defaults in [`AdecConfig::paper`]).
#[derive(Debug, Clone)]
pub struct AdecConfig {
    /// Number of clusters K.
    pub k: usize,
    /// Student-t degrees of freedom (paper: α = 1).
    pub alpha: f32,
    /// SGD learning rate ϑ (paper: 0.001).
    pub lr: f32,
    /// SGD momentum (paper: 0.9).
    pub momentum: f32,
    /// Mini-batch size (paper: 256).
    pub batch_size: usize,
    /// Maximum mini-batch iterations MaxIter (paper: 10⁵).
    pub max_iter: usize,
    /// Label-change convergence threshold tol (paper: 0.001).
    pub tol: f32,
    /// Target-distribution refresh interval T.
    pub update_interval: usize,
    /// Auxiliary decoder-only iterations M per alternation block.
    pub aux_iterations: usize,
    /// Hidden width of the discriminator.
    pub disc_hidden: usize,
    /// Discriminator warm-up iterations before clustering starts
    /// (Algorithm 1's "pretrain the discriminator" step).
    pub disc_pretrain: usize,
    /// Share of the clustering-gradient norm the adversarial regularizer
    /// may contribute in the encoder step (see [`encoder_step`]'s adaptive
    /// balancing). `0.0` disables the regularizer (ablation); values in
    /// `[0.1, 0.5]` behave nearly identically (the flat region the paper's
    /// "no critical balancing hyperparameter" claim corresponds to, swept
    /// by Ablation B), while `1.0` lets the discriminator fight the
    /// within-class collapse it is supposed to permit. Default `0.3`.
    pub adversarial_weight: f32,
    /// Use the paper's literal saturating generator term
    /// `E[log(1 − D(G(E(x))))]` instead of the default non-saturating
    /// `−E[log D(G(E(x)))]`. The literal form is unbounded below in the
    /// discriminator logit, so whenever the encoder outruns the
    /// discriminator it can inflate the embedding without limit and
    /// collapse the clustering; the non-saturating form (standard since
    /// Goodfellow et al. 2014, §3) has the same gradient direction but is
    /// bounded below by 0. See `DESIGN.md` §3 (compute substitutions).
    pub saturating_adversarial: bool,
    /// Train on augmented views (see [`crate::DecConfig::augment`]); the
    /// discriminator's "real" samples are augmented too, which matches the
    /// paper's "x stands for the data samples after carrying out the
    /// random transformations" and keeps the critic from overfitting the
    /// finite sample.
    pub augment: Option<(usize, usize)>,
    /// What to record while training.
    pub trace: TraceConfig,
    /// Fault detection and recovery policy for the training loop.
    pub guard: GuardConfig,
    /// Deterministic fault injections (tests and drills; empty in
    /// production runs).
    pub faults: FaultPlan,
    /// Checkpoint/resume policy.
    pub durability: DurabilityConfig,
}

impl AdecConfig {
    /// Paper-faithful hyperparameters.
    pub fn paper(k: usize) -> Self {
        AdecConfig {
            k,
            alpha: 1.0,
            lr: 0.001,
            momentum: 0.9,
            batch_size: 256,
            max_iter: 100_000,
            tol: 0.001,
            update_interval: 140,
            aux_iterations: 5,
            disc_hidden: 256,
            disc_pretrain: 500,
            adversarial_weight: 0.3,
            saturating_adversarial: false,
            augment: None,
            trace: TraceConfig::default(),
            guard: GuardConfig::default(),
            faults: FaultPlan::default(),
            durability: DurabilityConfig::default(),
        }
    }

    /// CPU-budget configuration for harnesses and tests.
    pub fn fast(k: usize) -> Self {
        AdecConfig {
            k,
            alpha: 1.0,
            lr: 0.01,
            momentum: 0.9,
            batch_size: 128,
            max_iter: 1_200,
            tol: 0.001,
            update_interval: 140,
            aux_iterations: 5,
            disc_hidden: 64,
            disc_pretrain: 100,
            adversarial_weight: 0.3,
            saturating_adversarial: false,
            augment: None,
            trace: TraceConfig::default(),
            guard: GuardConfig::default(),
            faults: FaultPlan::default(),
            durability: DurabilityConfig::default(),
        }
    }
}

/// ADEC runner. Owns the discriminator it builds for a run.
pub struct Adec {
    /// The trained discriminator (available after [`Adec::run`] for
    /// inspection).
    pub discriminator: Mlp,
}

impl Adec {
    /// Builds the discriminator, runs Algorithm 1, and returns the
    /// assignment plus the runner holding the trained discriminator.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] when the guard exhausts its recovery budget,
    /// a scheduled `kill` fault fires, or checkpoint I/O fails.
    pub fn run(
        ae: &Autoencoder,
        store: &mut ParamStore,
        data: &Matrix,
        cfg: &AdecConfig,
        rng: &mut SeedRng,
    ) -> Result<(Adec, ClusterOutput), TrainError> {
        let (trainer, out) = cluster_loop!("adec", ae, data, cfg).run(store, rng, |store, rng| {
            let h = cfg.disc_hidden;
            let discriminator = Mlp::new(
                store,
                &[ae.input_dim(), h, h, 1],
                Activation::Relu,
                Activation::Linear,
                rng,
            );
            let mu0 = init_centroids(ae, store, data, cfg.k, rng);
            let mu_id = store.register("adec.centroids", mu0);
            crate::archspec::adversarial_spec("adec", ae, store, store.get(mu_id), &discriminator, "sgd+momentum")
                .assert_valid();
            let opt = || Sgd::new(cfg.lr, cfg.momentum).with_clip(5.0);
            AdecTrainer {
                ae,
                data,
                cfg,
                targets: KlTargets::new(mu_id, cfg.alpha),
                discriminator,
                opts: [opt(), opt(), opt()],
                decoder_only: true,
                block_j: 0,
                last_grad_norm: None,
            }
        })?;
        Ok((
            Adec {
                discriminator: trainer.discriminator,
            },
            out,
        ))
    }
}

/// ADEC's part of the shared clustering loop: DEC's targets, and
/// Algorithm 1's alternation of decoder-only blocks with joint blocks.
struct AdecTrainer<'a> {
    ae: &'a Autoencoder,
    data: &'a Matrix,
    cfg: &'a AdecConfig,
    targets: KlTargets,
    discriminator: Mlp,
    /// Encoder, decoder and discriminator optimizers.
    opts: [Sgd; 3],
    /// Algorithm 1's `test` flag: the current block trains the decoder
    /// alone.
    decoder_only: bool,
    /// Iterations taken in the current block.
    block_j: usize,
    last_grad_norm: Option<f32>,
}

impl ClusterTrainer for AdecTrainer<'_> {
    fn centroids(&self) -> ParamId {
        self.targets.mu_id
    }

    fn guarded(&self) -> Vec<ParamId> {
        let mut ids = self.ae.param_ids();
        ids.extend(self.discriminator.param_ids());
        ids.push(self.targets.mu_id);
        ids
    }

    fn optimizers(&mut self) -> &mut [Sgd] {
        &mut self.opts
    }

    fn alpha(&self) -> f32 {
        self.cfg.alpha
    }

    /// Algorithm 1 line 2: pretrain the discriminator. A resumed run
    /// skips it: the restored parameters and RNG state already account
    /// for it.
    fn warm_up(&mut self, store: &mut ParamStore, rng: &mut SeedRng) {
        for _ in 0..self.cfg.disc_pretrain {
            let (_, x_b) = minibatch(self.data, self.cfg.batch_size, self.cfg.augment, rng);
            let fake = self.ae.reconstruct(store, &x_b);
            discriminator_step(&self.discriminator, store, &x_b, &fake, &mut self.opts[2]);
        }
    }

    fn refresh(&mut self, store: &ParamStore, guard: &TrainGuard) -> Result<Vec<usize>, Fault> {
        self.targets.refresh(self.ae, self.data, store, guard)
    }

    fn probe(&self, store: &ParamStore, rng: &mut SeedRng) -> Probe {
        let self_loss = GradLoss::Adversarial {
            decoder: &self.ae.decoder,
            discriminator: &self.discriminator,
        };
        Probe {
            grad_norm: self.last_grad_norm,
            ..self.targets.probe(self.ae, self.data, store, &self.cfg.trace, Some(self_loss), rng)
        }
    }

    fn step(
        &mut self,
        store: &mut ParamStore,
        rng: &mut SeedRng,
        check: &mut StepCheck<'_>,
    ) -> Result<(), Fault> {
        let ae = self.ae;
        let (idx, x_b) = minibatch(self.data, self.cfg.batch_size, self.cfg.augment, rng);
        let [enc_opt, dec_opt, disc_opt] = &mut self.opts;
        if self.decoder_only {
            // Auxiliary block: decoder catch-up only (eq. 11).
            check.loss(decoder_step(ae, store, &x_b, dec_opt))?;
        } else {
            // Joint block: encoder (eq. 10), decoder (eq. 11),
            // discriminator (eq. 12), centroids (Theorem 3).
            let p_b = self.targets.batch(&idx);
            let (kl_loss, grad_norm) = encoder_step(
                ae,
                &self.discriminator,
                store,
                &x_b,
                &p_b,
                self.targets.mu_id,
                self.cfg,
                enc_opt,
            );
            self.last_grad_norm = Some(grad_norm);
            check
                .loss(kl_loss)
                .and_then(|()| check.guard.check_grad_norm(grad_norm))?;
            let dec_loss = decoder_step(ae, store, &x_b, dec_opt);
            let fake = ae.reconstruct(store, &x_b);
            let disc_loss = discriminator_step(&self.discriminator, store, &x_b, &fake, disc_opt);
            check
                .guard
                .check_loss(dec_loss)
                .and_then(|()| check.guard.check_loss(disc_loss))?;
        }
        self.block_j += 1;
        if self.block_j >= self.cfg.aux_iterations {
            self.decoder_only = !self.decoder_only;
            self.block_j = 0;
        }
        Ok(())
    }

    fn rollback(&mut self) {
        self.decoder_only = true;
        self.block_j = 0;
    }

    fn push_extra(&self, extra: &mut Vec<u64>) {
        extra.push(u64::from(self.decoder_only));
        extra.push(self.block_j as u64);
    }

    fn take_extra(&mut self, cur: &mut ExtraCursor<'_>) -> Result<(), TrainError> {
        self.decoder_only = cur.word()? != 0;
        self.block_j = cur.word()? as usize;
        Ok(())
    }
}

/// Encoder update minimizing eq. 10 with **adaptive gradient balancing**:
/// the adversarial regularizer's gradient is rescaled so its norm never
/// exceeds the clustering gradient's norm. This keeps the paper's
/// "no balancing hyperparameter" property while making the combination
/// scale-free — without it, the regularizer's raw gradient (flowing through
/// decoder *and* discriminator) can be an order of magnitude larger than
/// the KL gradient and drag the embedding off to a GAN-style collapse.
/// Centroids receive the Theorem-3 KL gradient only (the adversarial term
/// does not depend on μ).
///
/// Returns the clustering loss and the clustering-gradient norm, which the
/// caller's [`TrainGuard`] inspects for divergence.
#[allow(clippy::too_many_arguments)]
fn encoder_step(
    ae: &Autoencoder,
    discriminator: &Mlp,
    store: &mut ParamStore,
    x_b: &Matrix,
    p_b: &Matrix,
    mu_id: ParamId,
    cfg: &AdecConfig,
    opt: &mut Sgd,
) -> (f32, f32) {
    let enc_ids: Vec<ParamId> = ae.encoder.param_ids();

    // Pass 1: clustering gradient (encoder + centroids).
    let prof_kl = adec_nn::profiler::phase("adec.encoder.kl");
    let mut kl_tape = Tape::new();
    let loss = kl_graph(&mut kl_tape, ae, store, x_b, mu_id, p_b, cfg.alpha);
    kl_tape.backward(loss);
    let kl_value = kl_tape.scalar(loss);
    // Every id queried below was bound during the forward pass on the same
    // tape, so the lookup cannot miss.
    #[allow(clippy::expect_used)]
    let grad_of = |tape: &Tape, id: ParamId| -> Matrix {
        let var = tape
            .bindings()
            .iter()
            .find(|(bid, _)| *bid == id)
            .map(|&(_, v)| v)
            .expect("parameter bound on tape"); // lint:allow(expect)
        tape.grad(var)
    };
    let mut kl_grads: Vec<(ParamId, Matrix)> = enc_ids
        .iter()
        .map(|&id| (id, grad_of(&kl_tape, id)))
        .collect();
    let mu_grad = grad_of(&kl_tape, mu_id);
    let kl_norm = kl_grads
        .iter()
        .map(|(_, g)| g.sq_norm())
        .sum::<f32>()
        .sqrt();
    drop(prof_kl);

    if cfg.adversarial_weight.abs() > 0.0 {
        // Pass 2: adversarial gradient (encoder only; decoder and
        // discriminator frozen).
        let _prof_adv = adec_nn::profiler::phase("adec.encoder.adv");
        let mut adv_tape = Tape::new();
        let loss = adversarial_graph(
            &mut adv_tape,
            ae,
            discriminator,
            store,
            x_b,
            cfg.saturating_adversarial,
        );
        adv_tape.backward(loss);
        let adv_grads: Vec<Matrix> = enc_ids.iter().map(|&id| grad_of(&adv_tape, id)).collect();
        let adv_norm = adv_grads
            .iter()
            .map(|g| g.sq_norm())
            .sum::<f32>()
            .sqrt();
        let scale = if adv_norm > 1e-12 {
            cfg.adversarial_weight * (kl_norm / adv_norm).min(1.0)
        } else {
            0.0
        };
        for ((_, g_kl), g_adv) in kl_grads.iter_mut().zip(adv_grads.iter()) {
            g_kl.axpy(scale, g_adv);
        }
    }

    kl_grads.push((mu_id, mu_grad));
    opt.step_grads(store, &kl_grads);
    (kl_value, kl_norm)
}

/// The `adec.encoder.adv` graph: eq. 10's adversarial regularizer on a
/// batch, through encoder, decoder and discriminator.
pub(crate) fn adversarial_graph(
    tape: &mut Tape,
    ae: &Autoencoder,
    discriminator: &Mlp,
    store: &ParamStore,
    x_b: &Matrix,
    saturating: bool,
) -> Var {
    let xv = tape.leaf(x_b.clone());
    let z = ae.encoder.forward(tape, store, xv);
    let xhat = ae.decoder.forward(tape, store, z);
    let logits = discriminator.forward(tape, store, xhat);
    if saturating {
        // Literal eq. 10: E[log(1 − σ(s))] = −E[softplus(s)].
        // Unbounded below; kept for the faithfulness ablation.
        let sp = tape.softplus(logits);
        let m = tape.mean_all(sp);
        tape.scale(m, -1.0)
    } else {
        // Non-saturating form −E[log σ(s)] = E[softplus(−s)]:
        // same gradient direction, bounded below by 0.
        let neg = tape.scale(logits, -1.0);
        let sp = tape.softplus(neg);
        tape.mean_all(sp)
    }
}

/// Decoder update minimizing eq. 11 with the encoder frozen.
/// Returns the reconstruction loss for guard inspection.
fn decoder_step(ae: &Autoencoder, store: &mut ParamStore, x_b: &Matrix, opt: &mut Sgd) -> f32 {
    let _prof = adec_nn::profiler::phase("adec.decoder");
    let mut tape = Tape::new();
    let loss = decoder_graph(&mut tape, ae, store, x_b);
    tape.backward(loss);
    let value = tape.scalar(loss);
    let decoder_ids = ae.decoder.param_ids();
    opt.step_filtered(&tape, store, |id| decoder_ids.contains(&id));
    value
}

/// The `adec.decoder` graph (eq. 11): reconstruction of a batch whose
/// embedding is computed without gradient and fed to the decoder as a
/// constant.
pub(crate) fn decoder_graph(tape: &mut Tape, ae: &Autoencoder, store: &ParamStore, x_b: &Matrix) -> Var {
    let z = ae.encoder.infer(store, x_b); // detached
    let zv = tape.leaf(z);
    let xhat = ae.decoder.forward(tape, store, zv);
    let target = tape.leaf(x_b.clone());
    tape.mse(xhat, target)
}

/// Discriminator update ascending eq. 12. Returns the discriminator loss
/// for guard inspection.
fn discriminator_step(
    discriminator: &Mlp,
    store: &mut ParamStore,
    real: &Matrix,
    fake: &Matrix,
    opt: &mut Sgd,
) -> f32 {
    let _prof = adec_nn::profiler::phase("adec.discriminator");
    let mut tape = Tape::new();
    let loss = discriminator_graph(&mut tape, discriminator, store, real, fake);
    tape.backward(loss);
    let value = tape.scalar(loss);
    let disc_ids = discriminator.param_ids();
    opt.step_filtered(&tape, store, |id| disc_ids.contains(&id));
    value
}

/// The `adec.discriminator` graph (eq. 12): `BCE(D(x), 1) + BCE(D(fake), 0)`
/// on logits, with one-sided label smoothing (real target 0.9, Salimans
/// et al. 2016): the discriminator stays informative without becoming the
/// over-confident critic that would fight the within-class collapse ADEC
/// aims for.
pub(crate) fn discriminator_graph(
    tape: &mut Tape,
    discriminator: &Mlp,
    store: &ParamStore,
    real: &Matrix,
    fake: &Matrix,
) -> Var {
    let rv = tape.leaf(real.clone());
    let r_logits = discriminator.forward(tape, store, rv);
    let ones = Matrix::full(real.rows(), 1, 0.9);
    let l_real = tape.bce_with_logits(r_logits, &ones);
    let fv = tape.leaf(fake.clone());
    let f_logits = discriminator.forward(tape, store, fv);
    let zeros = Matrix::zeros(fake.rows(), 1);
    let l_fake = tape.bce_with_logits(f_logits, &zeros);
    tape.add(l_real, l_fake)
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

    fn pretrained_setup(seed: u64) -> (Matrix, Vec<usize>, ParamStore, Autoencoder, SeedRng) {
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
    fn adec_clusters_structured_data() {
        let (data, y, mut store, ae, mut rng) = pretrained_setup(41);
        let mut cfg = AdecConfig::fast(3);
        cfg.max_iter = 600;
        cfg.trace = TraceConfig::curves(&y);
        let (_model, out) = Adec::run(&ae, &mut store, &data, &cfg, &mut rng).unwrap();
        let acc = out.acc(&y);
        assert!(acc > 0.75, "ADEC ACC {acc}");
    }

    #[test]
    fn discriminator_separates_real_from_fake_after_warmup() {
        let (data, _y, mut store, ae, mut rng) = pretrained_setup(42);
        let mut cfg = AdecConfig::fast(3);
        cfg.max_iter = 50;
        cfg.disc_pretrain = 300;
        let (model, _out) = Adec::run(&ae, &mut store, &data, &cfg, &mut rng).unwrap();
        // Real samples should receive higher logits than reconstructions on
        // average.
        let real_logits = model.discriminator.infer(&store, &data);
        let fake = ae.reconstruct(&store, &data);
        let fake_logits = model.discriminator.infer(&store, &fake);
        assert!(
            real_logits.mean() > fake_logits.mean(),
            "real {} vs fake {}",
            real_logits.mean(),
            fake_logits.mean()
        );
    }

    #[test]
    fn alternation_trains_decoder_more_than_encoder() {
        // With aux blocks, the decoder receives ~2x the updates of the
        // encoder. Verify indirectly: reconstruction after ADEC stays
        // reasonable (the decoder caught up with the moving encoder).
        let (data, _y, mut store, ae, mut rng) = pretrained_setup(43);
        let before = ae.reconstruction_error(&store, &data);
        let mut cfg = AdecConfig::fast(3);
        cfg.max_iter = 600;
        let (_m, _out) = Adec::run(&ae, &mut store, &data, &cfg, &mut rng).unwrap();
        let after = ae.reconstruction_error(&store, &data);
        assert!(
            after < before * 4.0,
            "decoder must track the encoder: {before} -> {after}"
        );
    }

    #[test]
    fn adversarial_ablation_runs() {
        let (data, y, mut store, ae, mut rng) = pretrained_setup(44);
        let mut cfg = AdecConfig::fast(3);
        cfg.max_iter = 300;
        cfg.adversarial_weight = 0.0;
        let (_m, out) = Adec::run(&ae, &mut store, &data, &cfg, &mut rng).unwrap();
        // Without the adversarial term this degenerates toward DEC with a
        // decoder side-car; it must still produce a valid clustering.
        assert_eq!(out.labels.len(), data.rows());
        let acc = out.acc(&y);
        assert!(acc > 0.4, "ablated ADEC ACC {acc}");
    }

    #[test]
    fn adec_records_tradeoff_metrics() {
        let (data, y, mut store, ae, mut rng) = pretrained_setup(45);
        let mut cfg = AdecConfig::fast(3);
        cfg.max_iter = 200;
        cfg.trace = TraceConfig::full(&y);
        let (_m, out) = Adec::run(&ae, &mut store, &data, &cfg, &mut rng).unwrap();
        assert!(!out.trace.fr_series().is_empty());
        assert!(!out.trace.fd_series().is_empty());
        for (_, v) in out.trace.fd_series() {
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn convergence_flag_reflects_tol() {
        let (data, _y, mut store, ae, mut rng) = pretrained_setup(46);
        let mut cfg = AdecConfig::fast(3);
        cfg.max_iter = 3;
        cfg.update_interval = 1;
        cfg.tol = 1.1; // any change fraction < 1.1 → immediate convergence
        let (_m, out) = Adec::run(&ae, &mut store, &data, &cfg, &mut rng).unwrap();
        assert!(out.converged);
        assert!(out.iterations <= 3);
    }
}
