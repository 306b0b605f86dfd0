//! Bridges live `adec-core` models to the `adec-analysis` architecture
//! checker.
//!
//! Every builder here converts real wired-up networks (with their
//! parameter-store bindings) into a declarative [`ArchSpec`], so
//! constructors can call [`ArchSpec::assert_valid`] and die with a
//! structured diagnostic *before* the first gradient step, and the CLI's
//! `--check` mode can print the full report without training anything.
//! The spec vocabulary itself lives in `adec_analysis`.

use crate::autoencoder::{ArchPreset, Autoencoder};
use adec_analysis::{ArchSpec, ChainRole, ChainSpec, ClusterHeadSpec, Report};
use adec_nn::{Mlp, ParamStore};
use adec_tensor::{Matrix, SeedRng};

/// Spec for a bare encoder/decoder pair: mirror symmetry, dimension
/// chaining, and the encoder→decoder coupling.
///
/// `optimizer` names the optimizer the training loop will attach (purely
/// informational; `"adam"` for pretraining, `"sgd+momentum"` for the DEC
/// family).
pub fn autoencoder_spec(model: &str, ae: &Autoencoder, store: &ParamStore, optimizer: &str) -> ArchSpec {
    ArchSpec::new(model, ae.input_dim())
        .with_chain(ChainSpec::from_mlp("encoder", ChainRole::Encoder, &ae.encoder, store).with_optimizer(optimizer))
        .with_chain(ChainSpec::from_mlp("decoder", ChainRole::Decoder, &ae.decoder, store).with_optimizer(optimizer))
        .with_coupling("encoder", "decoder")
}

/// [`autoencoder_spec`] plus a cluster head bound to live centroids
/// (DEC / IDEC / DCN and the clustering half of ADEC).
pub fn clustering_spec(
    model: &str,
    ae: &Autoencoder,
    store: &ParamStore,
    centroids: &Matrix,
    optimizer: &str,
) -> ArchSpec {
    autoencoder_spec(model, ae, store, optimizer).with_head(ClusterHeadSpec {
        k: centroids.rows(),
        latent_dim: ae.latent_dim(),
        centroid_shape: Some(centroids.shape()),
    })
}

/// [`clustering_spec`] plus the ADEC discriminator, which consumes decoder
/// reconstructions in data space.
pub fn adversarial_spec(
    model: &str,
    ae: &Autoencoder,
    store: &ParamStore,
    centroids: &Matrix,
    discriminator: &Mlp,
    optimizer: &str,
) -> ArchSpec {
    clustering_spec(model, ae, store, centroids, optimizer)
        .with_chain(
            ChainSpec::from_mlp("discriminator", ChainRole::Discriminator, discriminator, store)
                .with_optimizer(optimizer),
        )
        .with_coupling("decoder", "discriminator")
}

/// [`autoencoder_spec`] plus the ACAI pretraining critic, which scores
/// interpolated reconstructions in data space.
pub fn critic_spec(model: &str, ae: &Autoencoder, store: &ParamStore, critic: &Mlp, optimizer: &str) -> ArchSpec {
    autoencoder_spec(model, ae, store, optimizer)
        .with_chain(ChainSpec::from_mlp("critic", ChainRole::Discriminator, critic, store).with_optimizer(optimizer))
        .with_coupling("decoder", "critic")
}

/// Validation-only sweep for the CLI's `--check` mode: builds throwaway
/// instances of every model family at the given data dimensionality and
/// returns the merged report. Nothing is trained; the scratch parameter
/// stores are dropped on return.
pub fn check_preset(input_dim: usize, preset: ArchPreset, k: usize, disc_hidden: usize) -> Report {
    let mut report = Report::new();
    let mut rng = SeedRng::new(0);

    let mut store = ParamStore::new();
    let ae = Autoencoder::new(&mut store, input_dim, preset, &mut rng);
    report.extend(autoencoder_spec("autoencoder", &ae, &store, "adam").validate());

    // The DEC-family head: k centroids in the latent space, exactly the
    // shape `init_centroids` registers.
    let centroids = Matrix::zeros(k, ae.latent_dim());
    report.extend(clustering_spec("dec", &ae, &store, &centroids, "sgd+momentum").validate());

    let discriminator = Mlp::new(
        &mut store,
        &[input_dim, disc_hidden, disc_hidden, 1],
        adec_nn::Activation::Relu,
        adec_nn::Activation::Linear,
        &mut rng,
    );
    report.extend(adversarial_spec("adec", &ae, &store, &centroids, &discriminator, "sgd+momentum").validate());

    let critic = Mlp::new(
        &mut store,
        &[input_dim, disc_hidden, disc_hidden, 1],
        adec_nn::Activation::Relu,
        adec_nn::Activation::Linear,
        &mut rng,
    );
    report.extend(critic_spec("pretrain+acai", &ae, &store, &critic, "adam").validate());

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use adec_nn::Activation;

    fn fixture() -> (ParamStore, Autoencoder) {
        let mut store = ParamStore::new();
        let mut rng = SeedRng::new(3);
        let ae = Autoencoder::new(&mut store, 48, ArchPreset::Small, &mut rng);
        (store, ae)
    }

    #[test]
    fn live_models_validate_cleanly_for_every_family() {
        for preset in [ArchPreset::Small, ArchPreset::Medium, ArchPreset::Paper] {
            let report = check_preset(96, preset, 10, 32);
            assert!(report.is_pass(), "{preset:?}:\n{report}");
            assert!(report.is_empty(), "{preset:?} should not even warn:\n{report}");
        }
    }

    #[test]
    fn mis_mirrored_decoder_is_rejected_from_live_mlps() {
        let mut store = ParamStore::new();
        let mut rng = SeedRng::new(5);
        // Hand-wire the classic slip: decoder widths not the encoder's
        // reverse (400 where 32 should be).
        let ae = Autoencoder {
            encoder: Mlp::new(&mut store, &[48, 64, 32, 10], Activation::Relu, Activation::Linear, &mut rng),
            decoder: Mlp::new(&mut store, &[10, 400, 64, 48], Activation::Relu, Activation::Linear, &mut rng),
        };
        let report = autoencoder_spec("autoencoder", &ae, &store, "adam").validate();
        assert!(!report.is_pass());
        assert!(report.has_rule("arch.mirror-mismatch"), "{report}");
    }

    #[test]
    fn wrong_centroid_count_or_width_is_rejected() {
        let (store, ae) = fixture();
        // 7 centroids of width 3 against a 10-dim latent with k=7 declared
        // by rows: width mismatch surfaces as arch.cluster-head.
        let centroids = Matrix::zeros(7, 3);
        let report = clustering_spec("dec", &ae, &store, &centroids, "sgd").validate();
        assert!(!report.is_pass());
        assert!(report.has_rule("arch.cluster-head"), "{report}");
    }

    #[test]
    fn discriminator_in_latent_space_fails_the_coupling() {
        let (mut store, ae) = fixture();
        let mut rng = SeedRng::new(9);
        // Wired against the latent (10) instead of data space (48): the
        // decoder→discriminator coupling must flag it.
        let disc = Mlp::new(&mut store, &[10, 16, 1], Activation::Relu, Activation::Linear, &mut rng);
        let centroids = Matrix::zeros(4, ae.latent_dim());
        let report = adversarial_spec("adec", &ae, &store, &centroids, &disc, "sgd").validate();
        assert!(!report.is_pass());
        assert!(report.has_rule("arch.coupling-dim-mismatch"), "{report}");
    }

    #[test]
    fn two_headed_discriminator_is_rejected() {
        let (mut store, ae) = fixture();
        let mut rng = SeedRng::new(11);
        let disc = Mlp::new(&mut store, &[48, 16, 2], Activation::Relu, Activation::Linear, &mut rng);
        let centroids = Matrix::zeros(4, ae.latent_dim());
        let report = adversarial_spec("adec", &ae, &store, &centroids, &disc, "sgd").validate();
        assert!(report.has_rule("arch.discriminator-output"), "{report}");
    }
}
