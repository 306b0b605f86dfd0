//! Autoencoder pretraining (paper §4.1).
//!
//! Two regimes:
//!
//! * **Vanilla** — plain reconstruction with Adam, as used by original
//!   DEC/IDEC.
//! * **ACAI** — the paper's pretraining: reconstruction regularized by an
//!   *adversarially constrained interpolation* (Berthelot et al. 2019).
//!   A critic C_ψ is trained to regress the interpolation coefficient α
//!   from decoded latent mixtures (eq. 9) while the autoencoder is trained
//!   to fool it into outputting 0 (eq. 8), optionally on augmented
//!   (rotated/translated) samples. This is what turns DEC/IDEC into the
//!   paper's DEC*/IDEC* variants and is ADEC's default pretraining.

use crate::autoencoder::Autoencoder;
use crate::guard::{
    begin_resume, f32_word, faults::FaultPlan, word_f32, DurabilityConfig, ExtraCursor,
    GuardConfig, RunMark, TrainError, TrainGuard,
};
use crate::dec::minibatch;
use adec_datagen::Modality;
use adec_nn::{
    Activation, Adam, Checkpoint, Mlp, OptState, Optimizer, ParamId, ParamStore, Tape, Var,
};
use adec_tensor::{Matrix, SeedRng};

/// How many iterations apart pretraining offers a checkpoint opportunity
/// (pretraining has no natural refresh boundary like the clustering loops).
const CHECKPOINT_STRIDE: usize = 100;

/// Pretraining configuration.
#[derive(Debug, Clone)]
pub struct PretrainConfig {
    /// Mini-batch iterations (paper: 1.3×10⁵ at batch 256).
    pub iterations: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate (paper: 1e-4).
    pub lr: f32,
    /// Enable the ACAI critic and interpolation regularizer.
    pub acai: bool,
    /// ACAI regularization weight λ (paper: 0.5).
    pub lambda: f32,
    /// Apply rotation/translation augmentation on image datasets.
    pub augment: bool,
    /// Hidden width of the critic network.
    pub critic_hidden: usize,
    /// Fault detection and recovery policy for the training loop.
    pub guard: GuardConfig,
    /// Deterministic fault injections (tests and drills; empty in
    /// production runs).
    pub faults: FaultPlan,
    /// Checkpoint/resume policy.
    pub durability: DurabilityConfig,
}

impl PretrainConfig {
    /// Vanilla reconstruction pretraining (original DEC/IDEC setting).
    pub fn vanilla(iterations: usize) -> Self {
        PretrainConfig {
            iterations,
            batch_size: 256,
            lr: 1e-4,
            acai: false,
            lambda: 0.0,
            augment: false,
            critic_hidden: 64,
            guard: GuardConfig::default(),
            faults: FaultPlan::default(),
            durability: DurabilityConfig::default(),
        }
    }

    /// Paper pretraining: ACAI + augmentation, paper iteration budget.
    pub fn acai_paper() -> Self {
        PretrainConfig {
            iterations: 130_000,
            batch_size: 256,
            lr: 1e-4,
            acai: true,
            lambda: 0.5,
            augment: true,
            critic_hidden: 256,
            ..PretrainConfig::vanilla(130_000)
        }
    }

    /// CPU-budget ACAI pretraining used by the experiment harnesses.
    pub fn acai_fast() -> Self {
        PretrainConfig {
            iterations: 1_500,
            batch_size: 128,
            lr: 1e-3,
            acai: true,
            lambda: 0.5,
            augment: true,
            critic_hidden: 64,
            ..PretrainConfig::vanilla(1_500)
        }
    }

    /// CPU-budget vanilla pretraining matched to [`PretrainConfig::acai_fast`].
    pub fn vanilla_fast() -> Self {
        PretrainConfig {
            acai: false,
            lambda: 0.0,
            augment: false,
            ..PretrainConfig::acai_fast()
        }
    }
}

/// Summary of a pretraining run.
#[derive(Debug, Clone)]
pub struct PretrainStats {
    /// Mean reconstruction MSE on the full dataset after pretraining.
    pub final_reconstruction_mse: f32,
    /// Final critic regression loss (0 when ACAI is disabled).
    pub final_critic_loss: f32,
    /// Iterations performed.
    pub iterations: usize,
}

/// Serializes pretraining loop state into checkpoint extras.
fn pretrain_extra(mark: RunMark, last_critic_loss: f32) -> Vec<u64> {
    let mut extra = Vec::new();
    mark.push(&mut extra);
    extra.push(f32_word(last_critic_loss));
    extra
}

/// Pretrains the autoencoder in place; returns stats and (for ACAI) leaves
/// the critic parameters in the store (they are not reused afterwards).
///
/// # Errors
///
/// Returns [`TrainError`] when the guard exhausts its recovery budget,
/// a scheduled `kill` fault fires, or checkpoint I/O fails.
pub fn pretrain_autoencoder(
    ae: &Autoencoder,
    store: &mut ParamStore,
    data: &Matrix,
    modality: Modality,
    cfg: &PretrainConfig,
    rng: &mut SeedRng,
) -> Result<PretrainStats, TrainError> {
    let _prof_phase = adec_nn::profiler::phase("pretrain");
    let prof_init = adec_nn::profiler::section("init");
    let ae_ids: std::collections::HashSet<ParamId> = ae.param_ids().into_iter().collect();
    let critic = if cfg.acai {
        Some(Mlp::new(
            store,
            &[ae.input_dim(), cfg.critic_hidden, cfg.critic_hidden, 1],
            Activation::Relu,
            Activation::Linear,
            rng,
        ))
    } else {
        None
    };
    let critic_ids: std::collections::HashSet<ParamId> = critic
        .as_ref()
        .map(|c| c.param_ids().into_iter().collect())
        .unwrap_or_default();
    if let Some(c) = &critic {
        crate::archspec::critic_spec("pretrain+acai", ae, store, c, "adam").assert_valid();
    }

    let mut guarded: Vec<ParamId> = ae.param_ids();
    if let Some(c) = &critic {
        guarded.extend(c.param_ids());
    }
    let mut guard = TrainGuard::new("pretrain", cfg.guard.clone(), guarded);
    let mut faults = cfg.faults.activate();

    let mut ae_opt = Adam::new(cfg.lr).with_clip(5.0);
    let mut critic_opt = Adam::new(cfg.lr).with_clip(5.0);
    let mut last_critic_loss = 0.0f32;
    let mut last_ae_loss = 0.0f32;
    let mut start_iter = 0usize;
    let mut done_iterations = cfg.iterations;
    let mut already_done = false;

    if let Some((iter, ckpt)) = begin_resume(&cfg.durability, "pretrain", store, rng)? {
        ckpt.opt(0)?.apply_adam(&mut ae_opt)?;
        ckpt.opt(1)?.apply_adam(&mut critic_opt)?;
        let mut cur = ExtraCursor::new(&ckpt.extra);
        let mark = RunMark::take(&mut cur)?;
        last_critic_loss = word_f32(cur.word()?)?;
        cur.finish()?;
        if mark.done {
            done_iterations = mark.iterations;
            already_done = true;
        } else {
            start_iter = iter;
        }
    }
    let start_iter = if already_done { cfg.iterations } else { start_iter };
    let augment = modality.augment_shape().filter(|_| cfg.augment);
    drop(prof_init);

    for i in start_iter..cfg.iterations {
        // A rollback re-enters the loop here; the macro keeps both
        // optimizers in sync on every recovery path.
        macro_rules! recover {
            ($fault:expr) => {{
                let rec = guard.recover(store, $fault, i)?;
                ae_opt.lr *= rec.lr_scale;
                critic_opt.lr *= rec.lr_scale;
                ae_opt.reset();
                critic_opt.reset();
                continue;
            }};
        }

        if faults.kill_requested(i) {
            return Err(TrainError::Killed {
                phase: "pretrain".into(),
                iter: i,
            });
        }
        if i % CHECKPOINT_STRIDE == 0 {
            let _prof_refresh = adec_nn::profiler::section("refresh");
            if let Err(fault) = guard.check_params(store) {
                recover!(fault);
            }
            guard.mark_good(i, store);
            adec_obs::emit(
                adec_obs::Event::new(adec_obs::Level::Info, "train.interval")
                    .field("phase", "pretrain")
                    .field("iter", i)
                    .field("ae_loss", last_ae_loss)
                    .field("critic_loss", last_critic_loss)
                    .sampled(),
            );
            cfg.durability
                .maybe_write("pretrain", i / CHECKPOINT_STRIDE, || Checkpoint {
                    phase: "pretrain".into(),
                    iter: i as u64,
                    rng: rng.export_state(),
                    store: store.clone(),
                    opts: vec![
                        OptState::capture_adam(&ae_opt),
                        OptState::capture_adam(&critic_opt),
                    ],
                    extra: pretrain_extra(RunMark::mid_run(), last_critic_loss),
                    profile: None,
                })?;
        }

        let _prof_step = adec_nn::profiler::section("step");
        let (_, x) = minibatch(data, cfg.batch_size, augment, rng);
        let b = x.rows();

        // ---------------- Autoencoder step (eq. 8) ----------------
        let ae_loss;
        {
            let _prof_tape = adec_nn::profiler::phase("pretrain.ae");
            // Interpolate latents of the batch with a shuffled copy.
            let acai = critic.as_ref().map(|critic| {
                let perm = rng.permutation(b);
                let x2 = x.gather_rows(&perm);
                let alphas: Vec<f32> = (0..b).map(|_| rng.uniform(0.0, 0.5)).collect();
                (critic, x2, alphas)
            });
            let mut tape = Tape::new();
            let loss = ae_graph(&mut tape, ae, store, &x, acai, cfg.lambda);
            ae_loss = tape.scalar(loss);
            tape.backward(loss);
            ae_opt.step_filtered(&tape, store, |id| ae_ids.contains(&id));
        }
        let observed = faults.corrupt_loss(i, ae_loss);
        if let Err(fault) = guard.check_loss(observed) {
            recover!(fault);
        }
        last_ae_loss = ae_loss;

        // ---------------- Critic step (eq. 9) ----------------
        if let Some(critic) = &critic {
            let _prof_tape = adec_nn::profiler::phase("pretrain.critic");
            let perm = rng.permutation(b);
            let x2 = x.gather_rows(&perm);
            let alphas: Vec<f32> = (0..b).map(|_| rng.uniform(0.0, 0.5)).collect();
            let gamma = rng.uniform(0.0, 1.0);
            let mut tape = Tape::new();
            let loss = critic_graph(&mut tape, ae, critic, store, &x, &x2, alphas, gamma);
            last_critic_loss = tape.scalar(loss);
            tape.backward(loss);
            critic_opt.step_filtered(&tape, store, |id| critic_ids.contains(&id));
            if let Err(fault) = guard.check_loss(last_critic_loss) {
                recover!(fault);
            }
        }
    }

    let _prof_final = adec_nn::profiler::section("finalize");
    cfg.durability.write_final("pretrain", || Checkpoint {
        phase: "pretrain".into(),
        iter: done_iterations as u64,
        rng: rng.export_state(),
        store: store.clone(),
        opts: vec![
            OptState::capture_adam(&ae_opt),
            OptState::capture_adam(&critic_opt),
        ],
        extra: pretrain_extra(
            RunMark::finished(true, done_iterations),
            last_critic_loss,
        ),
        // Pretraining has no centroids yet — nothing to profile against.
        profile: None,
    })?;

    Ok(PretrainStats {
        final_reconstruction_mse: ae.reconstruction_error(store, data),
        final_critic_loss: last_critic_loss,
        iterations: done_iterations,
    })
}

/// The `pretrain.ae` graph (eq. 8): reconstruction of the batch `x`, plus,
/// when `acai` carries the critic, the shuffled copy `x2` and one α per
/// row, λ times the critic's mean squared score of the decoded latent
/// mixture `αᵢ·E(xᵢ) + (1−αᵢ)·E(x2ᵢ)`.
pub(crate) fn ae_graph(
    tape: &mut Tape,
    ae: &Autoencoder,
    store: &ParamStore,
    x: &Matrix,
    acai: Option<(&Mlp, Matrix, Vec<f32>)>,
    lambda: f32,
) -> Var {
    let xv = tape.leaf(x.clone());
    let z = ae.encoder.forward(tape, store, xv);
    let xhat = ae.decoder.forward(tape, store, z);
    let target = tape.leaf(x.clone());
    let rec = tape.mse(xhat, target);
    let Some((critic, x2, alphas)) = acai else {
        return rec;
    };
    let x2v = tape.leaf(x2);
    let z2 = ae.encoder.forward(tape, store, x2v);
    let inv: Vec<f32> = alphas.iter().map(|a| 1.0 - a).collect();
    let za = tape.row_scale(z, &alphas);
    let zb = tape.row_scale(z2, &inv);
    let zmix = tape.add(za, zb);
    let xmix = ae.decoder.forward(tape, store, zmix);
    let c_out = critic.forward(tape, store, xmix);
    let c_sq = tape.square(c_out);
    let c_pen = tape.mean_all(c_sq);
    let scaled = tape.scale(c_pen, lambda);
    tape.add(rec, scaled)
}

/// The `pretrain.critic` graph (eq. 9): the critic regresses each row's α
/// from the decoded mixture `αᵢ·E(xᵢ) + (1−αᵢ)·E(x2ᵢ)` and scores the blend
/// `γ·x + (1−γ)·x̂` toward 0. The interpolants are computed with `infer`,
/// so no gradient reaches the autoencoder.
#[allow(clippy::too_many_arguments)]
pub(crate) fn critic_graph(
    tape: &mut Tape,
    ae: &Autoencoder,
    critic: &Mlp,
    store: &ParamStore,
    x: &Matrix,
    x2: &Matrix,
    alphas: Vec<f32>,
    gamma: f32,
) -> Var {
    let z1 = ae.encoder.infer(store, x);
    let z2 = ae.encoder.infer(store, x2);
    let zmix = adec_tensor::row_lerp(&z1, &z2, &alphas);
    let xmix = ae.decoder.infer(store, &zmix);
    let xhat = ae.decoder.infer(store, &z1);
    let xblend = x.zip_with(&xhat, |a, b| gamma * a + (1.0 - gamma) * b);
    let alpha_target = Matrix::from_vec(x.rows(), 1, alphas);
    let xmix_v = tape.leaf(xmix);
    let c1 = critic.forward(tape, store, xmix_v);
    let target = tape.leaf(alpha_target);
    let loss1 = tape.mse(c1, target);
    let xblend_v = tape.leaf(xblend);
    let c2 = critic.forward(tape, store, xblend_v);
    let c2_sq = tape.square(c2);
    let loss2 = tape.mean_all(c2_sq);
    tape.add(loss1, loss2)
}

/// Stacked-denoising pretraining configuration (the greedy layer-wise
/// strategy of Vincent et al. 2010 that the *original* DEC and IDEC use,
/// cited by the paper in §4.1 — provided for faithful non-`*` baselines).
#[derive(Debug, Clone)]
pub struct SdaeConfig {
    /// Masking-corruption probability (fraction of inputs zeroed).
    pub mask_prob: f32,
    /// Gradient iterations per greedy layer stage.
    pub layer_iterations: usize,
    /// End-to-end fine-tuning iterations after the greedy stages.
    pub finetune_iterations: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
}

impl Default for SdaeConfig {
    fn default() -> Self {
        SdaeConfig {
            mask_prob: 0.2,
            layer_iterations: 400,
            finetune_iterations: 800,
            batch_size: 128,
            lr: 1e-3,
        }
    }
}

/// Zeroes each entry independently with probability `p` (masking noise).
fn corrupt_mask(x: &Matrix, p: f32, rng: &mut SeedRng) -> Matrix {
    let mut out = x.clone();
    for v in out.as_mut_slice() {
        if rng.coin(p) {
            *v = 0.0;
        }
    }
    out
}

/// Greedy stacked-denoising pretraining: each encoder layer `l` is trained
/// together with its mirrored decoder layer as a one-hidden-layer
/// denoising autoencoder on the (frozen) features of the layers below,
/// followed by end-to-end denoising fine-tuning of the full autoencoder.
pub fn pretrain_stacked_denoising(
    ae: &Autoencoder,
    store: &mut ParamStore,
    data: &Matrix,
    cfg: &SdaeConfig,
    rng: &mut SeedRng,
) -> PretrainStats {
    let n_layers = ae.encoder.n_layers();
    assert_eq!(
        n_layers,
        ae.decoder.n_layers(),
        "stacked denoising needs a mirrored decoder"
    );

    // Greedy stages.
    for l in 0..n_layers {
        let enc_layer = ae.encoder.layer(l);
        let dec_layer = ae.decoder.layer(n_layers - 1 - l);
        let stage_ids: std::collections::HashSet<ParamId> =
            [enc_layer.w, enc_layer.b, dec_layer.w, dec_layer.b].into_iter().collect();
        let mut opt = Adam::new(cfg.lr).with_clip(5.0);
        // Features of the frozen stack below this layer.
        let features = ae.encoder.infer_prefix(store, data, l);
        for _ in 0..cfg.layer_iterations {
            let (_, clean) = minibatch(&features, cfg.batch_size, None, rng);
            let corrupted = corrupt_mask(&clean, cfg.mask_prob, rng);
            let mut tape = Tape::new();
            let xv = tape.leaf(corrupted);
            let h = enc_layer.forward(&mut tape, store, xv);
            let recon = dec_layer.forward(&mut tape, store, h);
            let target = tape.leaf(clean);
            let loss = tape.mse(recon, target);
            tape.backward(loss);
            opt.step_filtered(&tape, store, |id| stage_ids.contains(&id));
        }
    }

    // End-to-end denoising fine-tune.
    let all_ids: std::collections::HashSet<ParamId> = ae.param_ids().into_iter().collect();
    let mut opt = Adam::new(cfg.lr).with_clip(5.0);
    for _ in 0..cfg.finetune_iterations {
        let (_, clean) = minibatch(data, cfg.batch_size, None, rng);
        let corrupted = corrupt_mask(&clean, cfg.mask_prob, rng);
        let mut tape = Tape::new();
        let xv = tape.leaf(corrupted);
        let z = ae.encoder.forward(&mut tape, store, xv);
        let recon = ae.decoder.forward(&mut tape, store, z);
        let target = tape.leaf(clean);
        let loss = tape.mse(recon, target);
        tape.backward(loss);
        opt.step_filtered(&tape, store, |id| all_ids.contains(&id));
    }

    PretrainStats {
        final_reconstruction_mse: ae.reconstruction_error(store, data),
        final_critic_loss: 0.0,
        iterations: n_layers * cfg.layer_iterations + cfg.finetune_iterations,
    }
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::autoencoder::ArchPreset;

    fn toy_data(rng: &mut SeedRng) -> Matrix {
        // Low-rank structured data an AE can compress.
        let basis = Matrix::randn(3, 16, 0.0, 1.0, rng);
        let coef = Matrix::randn(80, 3, 0.0, 1.0, rng);
        coef.matmul(&basis)
    }

    #[test]
    fn vanilla_pretraining_reduces_error() {
        let mut rng = SeedRng::new(1);
        let data = toy_data(&mut rng);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(&mut store, 16, ArchPreset::Small, &mut rng);
        let before = ae.reconstruction_error(&store, &data);
        let cfg = PretrainConfig {
            iterations: 300,
            batch_size: 32,
            lr: 1e-3,
            ..PretrainConfig::vanilla(300)
        };
        let stats =
            pretrain_autoencoder(&ae, &mut store, &data, Modality::Tabular, &cfg, &mut rng)
                .unwrap();
        assert!(
            stats.final_reconstruction_mse < before * 0.5,
            "before {before}, after {}",
            stats.final_reconstruction_mse
        );
    }

    #[test]
    fn acai_pretraining_reduces_error_and_trains_critic() {
        let mut rng = SeedRng::new(2);
        let data = toy_data(&mut rng);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(&mut store, 16, ArchPreset::Small, &mut rng);
        let before = ae.reconstruction_error(&store, &data);
        let cfg = PretrainConfig {
            iterations: 300,
            batch_size: 32,
            lr: 1e-3,
            acai: true,
            lambda: 0.5,
            augment: false,
            critic_hidden: 32,
            ..PretrainConfig::vanilla(300)
        };
        let stats =
            pretrain_autoencoder(&ae, &mut store, &data, Modality::Tabular, &cfg, &mut rng)
                .unwrap();
        assert!(stats.final_reconstruction_mse < before * 0.7);
        // Critic regression loss should be below the trivial predictor:
        // predicting the mean of U[0, 0.5] gives MSE ≈ Var = 1/48 ≈ 0.021,
        // plus the realistic-input term; a trained critic lands well below
        // the untrained ~0.1-1 range.
        assert!(stats.final_critic_loss.is_finite());
        assert!(stats.final_critic_loss < 1.0, "critic loss {}", stats.final_critic_loss);
    }

    #[test]
    fn stacked_denoising_reduces_error() {
        let mut rng = SeedRng::new(8);
        let data = toy_data(&mut rng);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(&mut store, 16, ArchPreset::Small, &mut rng);
        let before = ae.reconstruction_error(&store, &data);
        let cfg = SdaeConfig {
            layer_iterations: 150,
            finetune_iterations: 300,
            batch_size: 32,
            ..SdaeConfig::default()
        };
        let stats = pretrain_stacked_denoising(&ae, &mut store, &data, &cfg, &mut rng);
        assert!(
            stats.final_reconstruction_mse < before * 0.6,
            "SDAE: before {before}, after {}",
            stats.final_reconstruction_mse
        );
        assert_eq!(stats.iterations, 3 * 150 + 300);
    }

    #[test]
    fn masking_corruption_zeroes_expected_fraction() {
        let mut rng = SeedRng::new(9);
        let x = Matrix::full(50, 40, 1.0);
        let corrupted = corrupt_mask(&x, 0.3, &mut rng);
        let zeros = corrupted.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f32 / corrupted.len() as f32;
        assert!((frac - 0.3).abs() < 0.05, "masked fraction {frac}");
        // The original is untouched.
        assert_eq!(x.sum(), 2000.0);
    }

    #[test]
    fn critic_params_not_touched_by_vanilla() {
        let mut rng = SeedRng::new(4);
        let data = toy_data(&mut rng);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(&mut store, 16, ArchPreset::Small, &mut rng);
        let n_before = store.len();
        let cfg = PretrainConfig::vanilla(10);
        pretrain_autoencoder(&ae, &mut store, &data, Modality::Tabular, &cfg, &mut rng).unwrap();
        assert_eq!(store.len(), n_before, "vanilla must not register a critic");
    }
}
