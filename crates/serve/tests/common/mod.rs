//! Shared builders for the serve integration tests.

// Test code: panics here are the assertions themselves. The module is
// shared by several test binaries, not all of which use every builder.
#![allow(clippy::panic, clippy::unwrap_used, dead_code)]

use adec_nn::{soft_assignment, Activation, Checkpoint, Mlp, ParamStore, ReferenceProfile};
use adec_serve::{InferenceModel, ServerConfig, ServerHandle};
use adec_tensor::{Matrix, SeedRng};

/// Data dim of the synthetic model.
pub const INPUT_DIM: usize = 6;
/// Latent dim of the synthetic model.
pub const LATENT_DIM: usize = 3;
/// Cluster count of the synthetic model.
pub const K: usize = 4;

/// A tiny "trained" checkpoint registered exactly the way the trainers
/// register parameters: encoder, decoder, a critic bystander, centroids.
pub fn sample_checkpoint(seed: u64) -> Checkpoint {
    sample_checkpoint_and_encoder(seed).0
}

/// [`sample_checkpoint`] plus a handle on its encoder.
fn sample_checkpoint_and_encoder(seed: u64) -> (Checkpoint, Mlp) {
    let mut rng = SeedRng::new(seed);
    let mut store = ParamStore::new();
    let encoder = Mlp::new(
        &mut store,
        &[INPUT_DIM, 5, LATENT_DIM],
        Activation::Relu,
        Activation::Linear,
        &mut rng,
    );
    Mlp::new(
        &mut store,
        &[LATENT_DIM, 5, INPUT_DIM],
        Activation::Relu,
        Activation::Linear,
        &mut rng,
    );
    Mlp::new(
        &mut store,
        &[INPUT_DIM, 4, 1],
        Activation::Relu,
        Activation::Linear,
        &mut rng,
    );
    store.register("dec.centroids", Matrix::randn(K, LATENT_DIM, 0.0, 1.0, &mut rng));
    let ck = Checkpoint {
        phase: "dec".into(),
        iter: 10,
        rng: rng.export_state(),
        store,
        opts: vec![],
        extra: vec![],
        profile: None,
    };
    (ck, encoder)
}

/// The sample checkpoint carrying a reference profile, computed the way
/// the trainers compute it: over the model's own embedding of 256 seeded
/// inputs, so a server on it runs the drift sentinel.
pub fn profiled_checkpoint(seed: u64) -> Checkpoint {
    let (mut ck, encoder) = sample_checkpoint_and_encoder(seed);
    let x = Matrix::randn(256, INPUT_DIM, 0.0, 1.0, &mut SeedRng::new(seed + 1));
    let z = encoder.infer(&ck.store, &x);
    let mu = ck.store.iter().find(|(_, name, _)| name.ends_with(".centroids")).unwrap().2.clone();
    ck.profile = Some(ReferenceProfile::compute(&z, &soft_assignment(&z, &mu, 1.0), &mu));
    ck
}

/// Same checkpoint minus the decoder group — forces `NoDecoder` mode.
pub fn decoderless_checkpoint(seed: u64) -> Checkpoint {
    let mut ck = sample_checkpoint(seed);
    let mut store = ParamStore::new();
    for (_, name, value) in ck.store.iter() {
        if !name.starts_with(&format!("mlp{LATENT_DIM}x{INPUT_DIM}.")) {
            store.register(name.to_string(), value.clone());
        }
    }
    ck.store = store;
    ck
}

/// Boots a server on an ephemeral port with test-friendly budgets.
pub fn start_server(model: InferenceModel, tweak: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig {
        port: 0,
        replicas: 2,
        max_inflight: 8,
        deadline_ms: 5_000,
        read_deadline_ms: 500,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    match ServerHandle::start(model, config) {
        Ok(h) => h,
        Err(e) => panic!("server failed to start: {e}"),
    }
}

/// A deterministic `/assign` body: `rows` CSV rows of `cols` features.
pub fn sample_body(cols: usize, rows: usize, seed: u64) -> Vec<u8> {
    adec_loadgen::csv_rows(cols, rows, &mut SeedRng::new(seed))
}

/// Full-mode model from the sample checkpoint.
pub fn sample_model(seed: u64) -> InferenceModel {
    match InferenceModel::from_checkpoint(sample_checkpoint(seed), 1.0) {
        Ok(m) => m,
        Err(e) => panic!("model build failed: {e}"),
    }
}

/// Fresh per-test scratch directory under the OS temp dir.
pub fn scratch_dir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("adec-serve-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Writes the sample checkpoint for `seed` to `path` atomically.
pub fn write_checkpoint(path: &std::path::Path, seed: u64) {
    if let Err(e) = sample_checkpoint(seed).save_atomic(path) {
        panic!("checkpoint write failed: {e}");
    }
}

/// Boots a fleet server: `replicas` workers, hot reload armed at
/// `reload_path` (which must already hold the seed-7 sample checkpoint
/// so `/reload` of the same file is a valid same-bytes swap).
pub fn start_fleet_server(
    replicas: usize,
    reload_path: &std::path::Path,
    tweak: impl FnOnce(&mut ServerConfig),
) -> ServerHandle {
    let reload = reload_path.to_path_buf();
    start_server(sample_model(7), move |c| {
        c.replicas = replicas;
        c.reload_path = Some(reload);
        tweak(c);
    })
}
