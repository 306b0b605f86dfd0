//! Versioned model registry: atomic zero-downtime checkpoint hot reload.
//!
//! The live model is an immutable [`ModelVersion`] behind an `Arc`. Every
//! request snapshots the `Arc` exactly once, so a request always computes
//! with the weights belonging to the `model_version` it reports — there is
//! no observable torn version/weights pair, ever.
//!
//! A reload is **staged**: the candidate checkpoint is streamed once,
//! CRC-verified and decoded without its optimizer state
//! ([`Checkpoint::read_weights`], which also yields the whole file's
//! CRC32), rebuilt into an [`InferenceModel`],
//! re-checked against the architecture validator
//! ([`adec_analysis::ArchSpec`]) and a serving-compatibility gate (same
//! input width, latent width, and cluster count as the live model), and
//! only then swapped in. Any failure on that
//! path refuses the reload with a typed [`ReloadError`] and a
//! `serve.reload.refused` event — the live `Arc` is never touched.
//!
//! After a successful swap the old version *drains*: in-flight requests
//! holding its `Arc` finish on the old weights while new requests land on
//! the new ones. The supervisor polls [`ModelRegistry::poll_drains`] so the
//! drain end is visible as a `serve.reload.drain` lifecycle event. Neither
//! the drain queue nor the retired history holds a retired version's
//! weights: they keep its number, phase and served counter, and watch the
//! version through a `Weak`, so its packed network is freed as soon as its
//! last request finishes.

use crate::model::{InferenceModel, ModelError};
use adec_analysis::{ActKind, ArchSpec, ChainRole, ChainSpec, ClusterHeadSpec, LayerSpec};
use adec_nn::checkpoint::Verified;
use adec_nn::{Checkpoint, CheckpointError};
use adec_obs::{emit, Event, Level};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// How many retired versions to keep for per-version `/metrics` labels.
const RETIRED_CAP: usize = 8;

/// One immutable, servable generation of the model.
#[derive(Debug)]
pub struct ModelVersion {
    /// The weights and assignment function.
    pub model: InferenceModel,
    /// Monotonically increasing version number; the initial load is 1.
    pub version: u64,
    /// Where the weights came from (checkpoint path, or "initial").
    pub source: String,
    served: Arc<AtomicU64>,
}

impl ModelVersion {
    /// Requests answered by this version so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Counts one answered request against this version.
    pub fn count_served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }
}

/// What the registry keeps of a version once it retires: its number,
/// phase and served counter, for `/metrics` and the drain event, and a
/// `Weak` that tells when its last in-flight request let go of it.
#[derive(Debug, Clone)]
pub(crate) struct VersionRecord {
    pub(crate) version: u64,
    pub(crate) phase: String,
    served: Arc<AtomicU64>,
    weights: Weak<ModelVersion>,
}

impl VersionRecord {
    fn of(v: &Arc<ModelVersion>) -> VersionRecord {
        VersionRecord {
            version: v.version,
            phase: v.model.phase.clone(),
            served: Arc::clone(&v.served),
            weights: Arc::downgrade(v),
        }
    }

    pub(crate) fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }
}

/// Typed hot-reload refusal. Every variant leaves the live model untouched.
#[derive(Debug)]
pub enum ReloadError {
    /// The candidate file could not be read.
    Io(std::io::Error),
    /// The candidate bytes are not a valid checkpoint (bad magic, CRC
    /// mismatch, version mismatch, …).
    Checkpoint(CheckpointError),
    /// The checkpoint decoded but is not servable.
    Model(ModelError),
    /// The rebuilt model failed the architecture validator.
    Arch(String),
    /// The candidate serves a different request shape than the live model.
    Incompatible {
        /// Which dimension disagrees ("input_dim", "latent_dim", "k").
        what: &'static str,
        /// The live model's value.
        have: usize,
        /// The candidate's value.
        found: usize,
    },
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Io(e) => write!(f, "reload read failed: {e}"),
            ReloadError::Checkpoint(e) => write!(f, "reload checkpoint invalid: {e}"),
            ReloadError::Model(e) => write!(f, "reload model unservable: {e}"),
            ReloadError::Arch(msg) => write!(f, "reload failed architecture check: {msg}"),
            ReloadError::Incompatible { what, have, found } => write!(
                f,
                "reload incompatible with live model: {what} is {found}, live serves {have}"
            ),
        }
    }
}

impl std::error::Error for ReloadError {}

impl ReloadError {
    /// Stable machine-readable refusal reason for logs and metrics.
    pub fn reason(&self) -> &'static str {
        match self {
            ReloadError::Io(_) => "io",
            ReloadError::Checkpoint(CheckpointError::StoreVersionMismatch { .. }) => {
                "store-version-mismatch"
            }
            ReloadError::Checkpoint(CheckpointError::VersionMismatch { .. }) => "version-mismatch",
            ReloadError::Checkpoint(_) => "corrupt-checkpoint",
            ReloadError::Model(_) => "unservable-model",
            ReloadError::Arch(_) => "arch-check-failed",
            ReloadError::Incompatible { .. } => "incompatible-shape",
        }
    }
}

/// The registry: one live version, a short retired history, and the
/// reload state machine.
#[derive(Debug)]
pub struct ModelRegistry {
    current: Mutex<Arc<ModelVersion>>,
    retired: Mutex<Vec<VersionRecord>>,
    /// Old versions still owed a `serve.reload.drain` end event, with the
    /// instant their swap completed.
    draining: Mutex<Vec<(VersionRecord, Instant)>>,
    /// Completed reloads (the initial load is generation 0).
    generation: AtomicU64,
    /// Refused reloads.
    refused: AtomicU64,
    next_version: AtomicU64,
    alpha: f32,
}

impl ModelRegistry {
    /// Wraps an already-loaded model as version 1, generation 0.
    pub fn new(model: InferenceModel, alpha: f32, source: impl Into<String>) -> ModelRegistry {
        let first = Arc::new(ModelVersion {
            model,
            version: 1,
            source: source.into(),
            served: Arc::new(AtomicU64::new(0)),
        });
        ModelRegistry {
            current: Mutex::new(first),
            retired: Mutex::new(Vec::new()),
            draining: Mutex::new(Vec::new()),
            generation: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            next_version: AtomicU64::new(2),
            alpha,
        }
    }

    /// Snapshot of the live version. Requests call this exactly once and
    /// use the returned `Arc` for both the answer and the reported
    /// version — the atomicity guarantee lives here.
    pub fn current(&self) -> Arc<ModelVersion> {
        match self.current.lock() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Completed reload count (0 until the first successful swap).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Refused reload count.
    pub fn refused(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
    }

    /// Live + retired versions, newest live first — for per-version
    /// `/metrics` labels.
    pub(crate) fn versions(&self) -> Vec<VersionRecord> {
        let mut out = vec![VersionRecord::of(&self.current())];
        if let Ok(retired) = self.retired.lock() {
            out.extend(retired.iter().rev().cloned());
        }
        out
    }

    /// Stages `path` and, if every gate passes, atomically swaps it live.
    /// An explicit reload always swaps, even when the bytes are identical
    /// to the live version (the swap-is-a-no-op property is part of the
    /// service contract and is tested).
    ///
    /// # Errors
    ///
    /// [`ReloadError`] when any staging gate refuses; the live model is
    /// untouched and `serve.reload.refused` is emitted (Warn, so the
    /// refusal is also a stderr log line).
    pub fn reload(&self, path: &Path) -> Result<Arc<ModelVersion>, ReloadError> {
        self.begin(path);
        self.settle(path, self.stage(Checkpoint::read_weights(path)))
    }

    /// A watched reload: reads `path` and swaps or refuses it as
    /// [`ModelRegistry::reload`] does, unless the whole-file checksum the
    /// read computed is `seen` — a touched but unchanged file, whether it
    /// was swapped in or refused the last time, which is dropped before
    /// the model build. Returns that checksum (`None` when the read stopped
    /// short of the payload's end), with the outcome when the candidate
    /// was new. `serve.reload.begin` comes only then, after the read.
    pub(crate) fn reload_changed(
        &self,
        path: &Path,
        seen: Option<u32>,
    ) -> (Option<u32>, Option<Result<Arc<ModelVersion>, ReloadError>>) {
        let read = Checkpoint::read_weights(path);
        let checksum = match &read {
            Ok((_, checksum)) => Some(*checksum),
            Err((_, checksum)) => *checksum,
        };
        if checksum.is_some() && checksum == seen {
            return (checksum, None);
        }
        self.begin(path);
        (checksum, Some(self.settle(path, self.stage(read))))
    }

    fn begin(&self, path: &Path) {
        emit(
            Event::new(Level::Info, "serve.reload.begin")
                .field("source", path.display().to_string())
                .field("live_version", self.current().version),
        );
    }

    /// Swaps a staged model live, or counts and logs its refusal.
    fn settle(
        &self,
        path: &Path,
        staged: Result<InferenceModel, ReloadError>,
    ) -> Result<Arc<ModelVersion>, ReloadError> {
        let source = path.display().to_string();
        match staged {
            Ok(model) => Ok(self.swap(model, source)),
            Err(err) => {
                self.refused.fetch_add(1, Ordering::Relaxed);
                let mut ev = Event::new(Level::Warn, "serve.reload.refused")
                    .field("source", source.as_str())
                    .field("reason", err.reason())
                    .field("detail", err.to_string());
                if let ReloadError::Checkpoint(CheckpointError::StoreVersionMismatch {
                    found,
                    supported,
                }) = &err
                {
                    ev = ev
                        .field("store_version_found", u64::from(*found))
                        .field("store_version_supported", u64::from(*supported));
                }
                emit(ev);
                Err(err)
            }
        }
    }

    /// Validates the candidate in a staging slot; never touches the live
    /// `Arc`. `read` is one streamed read of the file
    /// ([`Checkpoint::read_weights`]): verified, its weights decoded, with
    /// the whole file's CRC32. The build and the architecture and
    /// serving-compatibility gates follow.
    fn stage(&self, read: Verified) -> Result<InferenceModel, ReloadError> {
        let (ck, checksum) = read.map_err(|(err, _)| match err {
            CheckpointError::Io(e) => ReloadError::Io(e),
            err => ReloadError::Checkpoint(err),
        })?;
        let model = InferenceModel::from_checkpoint(ck, self.alpha)
            .map_err(ReloadError::Model)?
            .with_checksum(checksum);
        let report = arch_spec_of(&model).validate();
        if !report.is_pass() {
            return Err(ReloadError::Arch(report.to_string()));
        }
        let live = self.current();
        let gates = [
            ("input_dim", live.model.input_dim(), model.input_dim()),
            ("latent_dim", live.model.latent_dim(), model.latent_dim()),
            ("k", live.model.k(), model.k()),
        ];
        for (what, have, found) in gates {
            if have != found {
                return Err(ReloadError::Incompatible { what, have, found });
            }
        }
        Ok(model)
    }

    /// Swaps a validated model live as the next version and retires the
    /// old one into the drain queue, keeping only its record.
    fn swap(&self, model: InferenceModel, source: String) -> Arc<ModelVersion> {
        let next = Arc::new(ModelVersion {
            model,
            version: self.next_version.fetch_add(1, Ordering::Relaxed),
            source,
            served: Arc::new(AtomicU64::new(0)),
        });
        let old = {
            let mut guard = match self.current.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            std::mem::replace(&mut *guard, Arc::clone(&next))
        };
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        emit(
            Event::new(Level::Info, "serve.reload.swap")
                .field("version", next.version)
                .field("old_version", old.version)
                .field("generation", generation)
                .field("source", next.source.as_str())
                .field("checksum", u64::from(next.model.checksum())),
        );
        emit(
            Event::new(Level::Info, "serve.reload.drain")
                .field("phase", "begin")
                .field("version", old.version),
        );
        let record = VersionRecord::of(&old);
        // The weights go now unless an in-flight request still holds them.
        drop(old);
        if let Ok(mut draining) = self.draining.lock() {
            draining.push((record.clone(), Instant::now()));
        }
        if let Ok(mut retired) = self.retired.lock() {
            retired.push(record);
            if retired.len() > RETIRED_CAP {
                retired.remove(0);
            }
        }
        next
    }

    /// Emits `serve.reload.drain` end events for retired versions no
    /// longer referenced by any in-flight request. Called periodically by
    /// the fleet supervisor; returns how many versions finished draining
    /// this call.
    pub fn poll_drains(&self) -> usize {
        let mut done = Vec::new();
        if let Ok(mut draining) = self.draining.lock() {
            // An entry is drained once no request holds its version.
            draining.retain(|(old, since)| {
                if old.weights.strong_count() == 0 {
                    let waited =
                        u64::try_from(since.elapsed().as_millis()).unwrap_or(u64::MAX);
                    done.push((old.version, old.served(), waited));
                    false
                } else {
                    true
                }
            });
        }
        for (version, served, waited_ms) in &done {
            emit(
                Event::new(Level::Info, "serve.reload.drain")
                    .field("phase", "end")
                    .field("version", *version)
                    .field("served", *served)
                    .field("waited_ms", *waited_ms),
            );
        }
        done.len()
    }
}

/// Loads a checkpoint into an [`InferenceModel`] for the *initial* serve,
/// emitting the same distinct refusal line the hot-reload path produces
/// when the store format version is unsupported (satellite: a
/// version-mismatched payload must not surface as a generic parse error).
///
/// # Errors
///
/// The errors of [`InferenceModel::load`].
pub fn load_initial(path: &Path, alpha: f32) -> Result<InferenceModel, ModelError> {
    InferenceModel::load(path, alpha).inspect_err(|err| {
        if let ModelError::Checkpoint(CheckpointError::StoreVersionMismatch { found, supported }) =
            err
        {
            emit(
                Event::new(Level::Warn, "serve.model.refused")
                    .field("source", path.display().to_string())
                    .field("reason", "store-version-mismatch")
                    .field("store_version_found", u64::from(*found))
                    .field("store_version_supported", u64::from(*supported))
                    .field("detail", err.to_string()),
            );
        }
    })
}

/// Rebuilds the architecture spec of a servable model for re-validation.
/// The serve-side reconstruction has already normalized activations to
/// the workspace convention (ReLU hidden, linear last), so the spec is
/// built from layer widths alone.
fn arch_spec_of(model: &InferenceModel) -> ArchSpec {
    let data_dim = model.input_dim();
    let mut spec = ArchSpec::new(format!("serve-{}", model.phase), data_dim);
    if let Some(dims) = model.encoder_dims() {
        spec = spec.with_chain(chain_of("encoder", ChainRole::Encoder, &dims));
    }
    if let Some(dims) = model.decoder_dims() {
        spec = spec.with_chain(chain_of("decoder", ChainRole::Decoder, &dims));
    }
    spec.with_head(ClusterHeadSpec {
        k: model.k(),
        latent_dim: model.latent_dim(),
        centroid_shape: Some((model.k(), model.latent_dim())),
    })
}

fn chain_of(name: &str, role: ChainRole, dims: &[usize]) -> ChainSpec {
    let layers = dims
        .iter()
        .zip(dims.iter().skip(1))
        .enumerate()
        .map(|(i, (&fan_in, &fan_out))| {
            let act = if i + 2 == dims.len() { ActKind::Linear } else { ActKind::Relu };
            LayerSpec::new(format!("{name}.l{i}"), fan_in, fan_out, act)
        })
        .collect();
    ChainSpec::new(name, role, layers)
}

#[cfg(test)]
// Test code: unwraps are the assertions themselves here.
#[allow(clippy::unwrap_used, clippy::panic, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::model::tests::sample_checkpoint;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("adec_registry_{tag}_{}.ckpt", std::process::id()))
    }

    fn sample_model() -> InferenceModel {
        InferenceModel::from_checkpoint(sample_checkpoint(), 1.0).unwrap()
    }

    #[test]
    fn arch_spec_of_servable_models_passes() {
        let model = sample_model();
        let report = arch_spec_of(&model).validate();
        assert!(report.is_pass(), "{report}");
    }

    #[test]
    fn reload_swaps_and_counts_generations() {
        let path = temp_path("swap");
        sample_checkpoint().save_atomic(&path).unwrap();
        let reg = ModelRegistry::new(sample_model(), 1.0, "initial");
        assert_eq!(reg.current().version, 1);
        assert_eq!(reg.generation(), 0);
        let v2 = reg.reload(&path).unwrap();
        assert_eq!(v2.version, 2);
        assert_eq!(reg.generation(), 1);
        assert_eq!(reg.current().version, 2);
        assert_eq!(reg.versions().len(), 2);
        // The old version has no in-flight holders → drains immediately.
        assert_eq!(reg.poll_drains(), 1);
        assert_eq!(reg.poll_drains(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_reload_leaves_live_untouched() {
        let path = temp_path("corrupt");
        let mut bytes = sample_checkpoint().encode().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let reg = ModelRegistry::new(sample_model(), 1.0, "initial");
        let live = reg.current();
        let err = reg.reload(&path).unwrap_err();
        assert!(matches!(err, ReloadError::Checkpoint(_)), "{err}");
        assert_eq!(reg.refused(), 1);
        assert_eq!(reg.generation(), 0);
        assert!(Arc::ptr_eq(&live, &reg.current()), "live Arc was disturbed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_version_mismatch_refusal_is_distinct() {
        let path = temp_path("storever");
        let mut bytes = sample_checkpoint().encode().unwrap();
        let pos = bytes
            .windows(8)
            .position(|w| w == b"ADECPS01")
            .expect("payload embeds the store magic");
        bytes[pos + 7] = b'2';
        assert!(adec_nn::checkpoint::reseal_checksum(&mut bytes));
        std::fs::write(&path, &bytes).unwrap();
        let reg = ModelRegistry::new(sample_model(), 1.0, "initial");
        let err = reg.reload(&path).unwrap_err();
        assert_eq!(err.reason(), "store-version-mismatch");
        assert!(err.to_string().contains("version 2"), "{err}");
        assert_eq!(reg.generation(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn incompatible_shape_is_refused() {
        let path = temp_path("shape");
        sample_checkpoint().save_atomic(&path).unwrap();
        // Live model serves latent-space inputs (3-d); candidate wants 6-d.
        let mut ck = sample_checkpoint();
        let mut store = adec_nn::ParamStore::new();
        for (_, name, value) in ck.store.iter() {
            if name.ends_with(".centroids") {
                store.register(name.to_string(), value.clone());
            }
        }
        ck.store = store;
        let centroid_only = InferenceModel::from_checkpoint(ck, 1.0).unwrap();
        let reg = ModelRegistry::new(centroid_only, 1.0, "initial");
        let err = reg.reload(&path).unwrap_err();
        assert_eq!(err.reason(), "incompatible-shape");
        let _ = std::fs::remove_file(&path);
    }
}
