//! Per-phase tape manifests: every training phase a shipped trainer runs,
//! rebuilt as a one-batch tape and exported for dataflow analysis.
//!
//! The trainers in [`crate::pretrain`], [`crate::dec`], [`crate::idec`],
//! [`crate::dcn`], and [`crate::adec`] each build their step tapes inside
//! a training loop, where a miswired graph only surfaces as a silently
//! absent gradient or a mid-batch shape assert. [`phase_tapes`] builds the
//! same graphs against synthetic data — the clustering phases by calling
//! the very graph builders the trainers' steps call, the two pretraining
//! phases by mirroring `pretrain.rs` — pairs each with a
//! [`PhaseManifest`] declaring which parameters the phase must update,
//! which are intentionally frozen, and which are intentionally bound more
//! than once (weight sharing), and hands them to
//! [`adec_analysis::analyze_tape`]. `adec --check --deep` and the
//! per-trainer test gate both run this audit, so gradient connectivity is
//! proven before any epoch runs.
//!
//! The phase set (nine tapes across the five trainers):
//!
//! | phase | loss | updates | frozen |
//! |---|---|---|---|
//! | `pretrain.ae` | eq. 8 (rec + λ·critic) | encoder+decoder | critic |
//! | `pretrain.critic` | eq. 9 | critic | encoder+decoder (detached) |
//! | `dec.kl` | KL(P‖Q)/b | encoder+centroids | decoder |
//! | `idec.step` | rec + γ·KL | encoder+decoder+centroids | — |
//! | `dcn.step` | rec + λ/2·‖z−Ms‖² | encoder+decoder | centroids (closed form) |
//! | `adec.encoder.kl` | eq. 10 KL term | encoder+centroids | decoder+disc |
//! | `adec.encoder.adv` | eq. 10 adversarial term | encoder | decoder+disc+centroids |
//! | `adec.decoder` | eq. 11 | decoder | encoder (detached)+disc |
//! | `adec.discriminator` | eq. 12 | discriminator | encoder+decoder (detached) |

use crate::autoencoder::{ArchPreset, Autoencoder};
use crate::idec::IdecConfig;
use crate::{adec, dcn, dec, idec};
use adec_analysis::{analyze_tape, PhaseManifest, Report};
use adec_nn::{Activation, Mlp, ParamId, ParamStore, Tape, TapeIr, Var};
use adec_tensor::{Matrix, SeedRng};

/// One phase's exported graph plus the manifest it must satisfy.
pub struct PhaseTape {
    /// Exported tape IR for one step of this phase.
    pub ir: TapeIr,
    /// Node id of the phase's loss.
    pub loss: usize,
    /// The connectivity contract the graph is held to.
    pub manifest: PhaseManifest,
}

impl PhaseTape {
    /// The phase name, from the manifest.
    pub fn phase(&self) -> &str {
        &self.manifest.phase
    }

    /// Runs the full dataflow analysis over this phase's graph.
    pub fn analyze(&self) -> Report {
        analyze_tape(&self.ir, self.loss, &self.manifest)
    }
}

/// `(store index, registered name)` roles for a set of parameter ids —
/// the form [`PhaseManifest`] builders consume.
fn roles(store: &ParamStore, ids: &[ParamId]) -> Vec<(usize, String)> {
    ids.iter().map(|&id| (id.index(), store.name(id).to_string())).collect()
}

/// Builds one step graph on a fresh tape and pairs it with its manifest.
fn audit(store: &ParamStore, manifest: PhaseManifest, build: impl FnOnce(&mut Tape) -> Var) -> PhaseTape {
    let mut tape = Tape::new();
    let loss = build(&mut tape);
    PhaseTape {
        ir: tape.export_ir(store),
        loss: loss.index(),
        manifest,
    }
}

/// Builds every shipped trainer's per-phase tapes against synthetic data.
///
/// `input_dim`/`preset` fix the autoencoder, `k` the cluster count,
/// `disc_hidden`/`critic_hidden` the adversary widths (mirroring
/// [`crate::AdecConfig`] and [`crate::PretrainConfig`]), and `batch` the
/// synthetic batch size. Deterministic: the same arguments always produce
/// the same graphs.
pub fn phase_tapes(
    input_dim: usize,
    preset: ArchPreset,
    k: usize,
    disc_hidden: usize,
    critic_hidden: usize,
    batch: usize,
) -> Vec<PhaseTape> {
    let mut rng = SeedRng::new(0xADEC);
    let mut store = ParamStore::new();
    let ae = Autoencoder::new(&mut store, input_dim, preset, &mut rng);
    let critic = Mlp::new(
        &mut store,
        &[input_dim, critic_hidden, critic_hidden, 1],
        Activation::Relu,
        Activation::Linear,
        &mut rng,
    );
    let discriminator = Mlp::new(
        &mut store,
        &[input_dim, disc_hidden, disc_hidden, 1],
        Activation::Relu,
        Activation::Linear,
        &mut rng,
    );
    let latent = ae.latent_dim();
    let mu_id = store.register("adec.centroids", Matrix::randn(k, latent, 0.0, 0.1, &mut rng));

    let enc_ids = ae.encoder.param_ids();
    let dec_ids = ae.decoder.param_ids();
    let ae_ids = ae.param_ids();
    let critic_ids = critic.param_ids();
    let disc_ids = discriminator.param_ids();

    let x = Matrix::randn(batch, input_dim, 0.0, 1.0, &mut rng);
    let x2 = Matrix::randn(batch, input_dim, 0.0, 1.0, &mut rng);
    let p_b = Matrix::full(batch, k, 1.0 / k as f32);
    let alphas: Vec<f32> = (0..batch).map(|_| rng.uniform(0.0, 0.5)).collect();
    let inv: Vec<f32> = alphas.iter().map(|a| 1.0 - a).collect();
    let alpha = 1.0f32; // Student-t dof, AdecConfig::paper
    let lambda = 0.5f32; // ACAI λ, PretrainConfig::acai_paper; DcnConfig::fast λ

    let mut phases = Vec::new();

    // ---- pretrain.ae: ACAI autoencoder step (pretrain.rs, eq. 8) ----
    {
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let z = ae.encoder.forward(&mut tape, &store, xv);
        let xhat = ae.decoder.forward(&mut tape, &store, z);
        let target = tape.leaf(x.clone());
        let rec = tape.mse(xhat, target);
        let x2v = tape.leaf(x2.clone());
        let z2 = ae.encoder.forward(&mut tape, &store, x2v);
        let za = tape.row_scale(z, &alphas);
        let zb = tape.row_scale(z2, &inv);
        let zmix = tape.add(za, zb);
        let xmix = ae.decoder.forward(&mut tape, &store, zmix);
        let c_out = critic.forward(&mut tape, &store, xmix);
        let c_sq = tape.square(c_out);
        let c_pen = tape.mean_all(c_sq);
        let scaled = tape.scale(c_pen, lambda);
        let loss = tape.add(rec, scaled);
        phases.push(PhaseTape {
            ir: tape.export_ir(&store),
            loss: loss.index(),
            manifest: PhaseManifest::new("pretrain.ae")
                .update_all(roles(&store, &ae_ids))
                .freeze_all(roles(&store, &critic_ids))
                // Both encoder and decoder run two forward passes on this
                // tape (clean batch + latent mixture).
                .share_all(roles(&store, &ae_ids)),
        });
    }

    // ---- pretrain.critic: ACAI critic step (pretrain.rs, eq. 9) ----
    {
        let zmix = adec_tensor::row_lerp(
            &ae.encoder.infer(&store, &x),
            &ae.encoder.infer(&store, &x2),
            &alphas,
        );
        let xmix = ae.decoder.infer(&store, &zmix);
        let xblend = ae.decoder.infer(&store, &ae.encoder.infer(&store, &x));
        let alpha_target = Matrix::from_vec(batch, 1, alphas.clone());
        let mut tape = Tape::new();
        let xmix_v = tape.leaf(xmix);
        let c1 = critic.forward(&mut tape, &store, xmix_v);
        let target = tape.leaf(alpha_target);
        let loss1 = tape.mse(c1, target);
        let xblend_v = tape.leaf(xblend);
        let c2 = critic.forward(&mut tape, &store, xblend_v);
        let c2_sq = tape.square(c2);
        let loss2 = tape.mean_all(c2_sq);
        let loss = tape.add(loss1, loss2);
        phases.push(PhaseTape {
            ir: tape.export_ir(&store),
            loss: loss.index(),
            manifest: PhaseManifest::new("pretrain.critic")
                .update_all(roles(&store, &critic_ids))
                // The interpolants are computed with infer(): the
                // autoencoder is detached by construction.
                .freeze_all(roles(&store, &ae_ids))
                // The critic scores both the interpolant and the blend.
                .share_all(roles(&store, &critic_ids)),
        });
    }

    // ---- dec.kl: DEC KL step (dec.rs) ----
    phases.push(audit(
        &store,
        PhaseManifest::new("dec.kl")
            .update_all(roles(&store, &enc_ids))
            .update(mu_id.index(), store.name(mu_id))
            // DEC abandons the decoder after pretraining.
            .freeze_all(roles(&store, &dec_ids)),
        |tape| dec::kl_graph(tape, &ae, &store, &x, mu_id, &p_b, alpha),
    ));

    // ---- idec.step: IDEC joint step (idec.rs) ----
    phases.push(audit(
        &store,
        PhaseManifest::new("idec.step")
            .update_all(roles(&store, &ae_ids))
            .update(mu_id.index(), store.name(mu_id)),
        |tape| idec::step_graph(tape, &ae, &store, &x, mu_id, &p_b, &IdecConfig::paper(k)),
    ));

    // ---- dcn.step: DCN network step (dcn.rs) ----
    let targets = Matrix::randn(batch, latent, 0.0, 0.1, &mut rng);
    phases.push(audit(
        &store,
        PhaseManifest::new("dcn.step")
            .update_all(roles(&store, &ae_ids))
            // DCN updates centroids with its closed-form per-sample
            // rule outside the tape.
            .freeze(mu_id.index(), store.name(mu_id)),
        |tape| dcn::step_graph(tape, &ae, &store, &x, targets, lambda),
    ));

    // ---- adec.encoder.kl: clustering gradient pass (adec.rs, eq. 10) ----
    phases.push(audit(
        &store,
        PhaseManifest::new("adec.encoder.kl")
            .update_all(roles(&store, &enc_ids))
            .update(mu_id.index(), store.name(mu_id))
            .freeze_all(roles(&store, &dec_ids))
            .freeze_all(roles(&store, &disc_ids)),
        |tape| dec::kl_graph(tape, &ae, &store, &x, mu_id, &p_b, alpha),
    ));

    // ---- adec.encoder.adv: adversarial regularizer pass (adec.rs) ----
    phases.push(audit(
        &store,
        PhaseManifest::new("adec.encoder.adv")
            .update_all(roles(&store, &enc_ids))
            // Decoder and discriminator carry gradient but only the
            // encoder's is applied; centroids are not in this term.
            .freeze_all(roles(&store, &dec_ids))
            .freeze_all(roles(&store, &disc_ids))
            .freeze(mu_id.index(), store.name(mu_id)),
        // The non-saturating form, the shipped default.
        |tape| adec::adversarial_graph(tape, &ae, &discriminator, &store, &x, false),
    ));

    // ---- adec.decoder: reconstruction catch-up (adec.rs, eq. 11) ----
    phases.push(audit(
        &store,
        PhaseManifest::new("adec.decoder")
            .update_all(roles(&store, &dec_ids))
            .freeze_all(roles(&store, &enc_ids))
            .freeze_all(roles(&store, &disc_ids))
            .freeze(mu_id.index(), store.name(mu_id)),
        |tape| adec::decoder_graph(tape, &ae, &store, &x),
    ));

    // ---- adec.discriminator: GAN value ascent (adec.rs, eq. 12) ----
    let fake = ae.reconstruct(&store, &x);
    phases.push(audit(
        &store,
        PhaseManifest::new("adec.discriminator")
            .update_all(roles(&store, &disc_ids))
            .freeze_all(roles(&store, &ae_ids))
            .freeze(mu_id.index(), store.name(mu_id))
            // The discriminator scores real and fake batches on the
            // same tape.
            .share_all(roles(&store, &disc_ids)),
        |tape| adec::discriminator_graph(tape, &discriminator, &store, &x, &fake),
    ));

    phases
}

/// The phase set at audit-default sizes: a small autoencoder, paper-shaped
/// adversaries, and a batch large enough to exercise broadcasting.
pub fn default_phase_tapes() -> Vec<PhaseTape> {
    phase_tapes(24, ArchPreset::Small, 4, 32, 32, 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nine_phases_are_built() {
        let phases = default_phase_tapes();
        let names: Vec<&str> = phases.iter().map(PhaseTape::phase).collect();
        assert_eq!(
            names,
            vec![
                "pretrain.ae",
                "pretrain.critic",
                "dec.kl",
                "idec.step",
                "dcn.step",
                "adec.encoder.kl",
                "adec.encoder.adv",
                "adec.decoder",
                "adec.discriminator",
            ]
        );
        for p in &phases {
            assert!(!p.ir.is_empty(), "{} exported an empty graph", p.phase());
            assert!(p.loss < p.ir.len());
        }
    }

    #[test]
    fn builder_is_deterministic() {
        let a = default_phase_tapes();
        let b = default_phase_tapes();
        for (pa, pb) in a.iter().zip(b.iter()) {
            assert_eq!(pa.phase(), pb.phase());
            assert_eq!(pa.loss, pb.loss);
            assert_eq!(pa.ir.len(), pb.ir.len());
        }
    }
}
