//! Checkpoint → inference model, with a graceful-degradation ladder.
//!
//! A PR-3 training checkpoint ([`adec_nn::Checkpoint`]) carries the full
//! [`ParamStore`] of the run that wrote it: encoder layers, decoder layers,
//! possibly an ACAI critic or GAN discriminator, and the embedded centroids
//! (`dec.centroids` / `idec.centroids` / `dcn.centroids` /
//! `adec.centroids`). Serving only needs the *assignment function* — the
//! encoder `E_φ` and the centroids `μ` of the paper's Eq. 1 — so this
//! module reconstructs exactly that from the store, by name and shape,
//! without registering anything new. The build consumes the decoded
//! checkpoint and packs the served weights into gemm panels once, here,
//! releasing each raw weight from the store as soon as it is packed; only
//! the packed copy is kept, and a request multiplies against it and packs
//! nothing.
//!
//! The degradation ladder (also reported in every response):
//!
//! 1. **Full** — encoder, centroids, and decoder all present and finite:
//!    responses carry soft assignments `q_ij` plus a per-sample
//!    reconstruction error (an outlier score).
//! 2. **NoDecoder** — decoder tensors missing or non-finite: soft
//!    assignments only, no reconstruction error.
//! 3. **CentroidOnly** — encoder tensors missing or non-finite but the
//!    centroids are intact: the service accepts *latent-space* vectors and
//!    answers hard nearest-centroid assignments.
//!
//! Missing or non-finite centroids are not servable at all and fail the
//! load with a typed [`ModelError`].

use crate::drift::BatchDriftStats;
use adec_nn::profile::row_stats;
use adec_nn::{soft_assignment, Checkpoint, CheckpointError, ParamId, ParamStore, ReferenceProfile};
use adec_tensor::kernels::{self, PackedB};
use adec_tensor::{finite_scan, FusedAct, Matrix};
use std::path::Path;

/// Hard ceiling on per-feature magnitude accepted by [`InferenceModel::assign`].
/// Keeps hostile-but-finite inputs (e.g. 3.4e38) from overflowing the
/// forward pass into non-finite activations.
pub const MAX_FEATURE_MAGNITUDE: f32 = 1e6;

/// Which rung of the degradation ladder the loaded checkpoint supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Encoder + centroids + decoder: soft assignments and recon error.
    Full,
    /// Encoder + centroids: soft assignments, no recon error.
    NoDecoder,
    /// Centroids only: hard nearest-centroid assignment of latent vectors.
    CentroidOnly,
}

impl ServeMode {
    /// Stable wire name used in JSON responses.
    pub fn as_str(&self) -> &'static str {
        match self {
            ServeMode::Full => "full",
            ServeMode::NoDecoder => "degraded-no-decoder",
            ServeMode::CentroidOnly => "degraded-centroid-only",
        }
    }

    /// Ladder position: higher is more degraded.
    pub fn rank(&self) -> u8 {
        match self {
            ServeMode::Full => 0,
            ServeMode::NoDecoder => 1,
            ServeMode::CentroidOnly => 2,
        }
    }

    /// The more degraded of two rungs. The ladder only ever moves down:
    /// a checkpoint limitation and a load-shed decision combine by taking
    /// the worse of the two.
    pub fn worse(a: ServeMode, b: ServeMode) -> ServeMode {
        if a.rank() >= b.rank() {
            a
        } else {
            b
        }
    }
}

/// Typed model-construction failure.
#[derive(Debug)]
pub enum ModelError {
    /// The checkpoint file could not be read or verified.
    Checkpoint(CheckpointError),
    /// The store has no (unique) `*.centroids` parameter — serving needs a
    /// clustering-phase checkpoint, not a pretraining one.
    NoCentroids(String),
    /// The centroids exist but contain NaN/Inf values.
    DegradedCentroids(String),
    /// The store's layer tensors do not form a consistent network.
    BadTopology(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            ModelError::NoCentroids(msg) => write!(f, "no servable centroids: {msg}"),
            ModelError::DegradedCentroids(msg) => write!(f, "degraded centroids: {msg}"),
            ModelError::BadTopology(msg) => write!(f, "bad model topology: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for ModelError {
    fn from(e: CheckpointError) -> ModelError {
        ModelError::Checkpoint(e)
    }
}

/// A typed per-request inference failure (mapped to HTTP 4xx by the server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignError {
    /// Input width does not match what the model accepts.
    DimMismatch {
        /// Features per row in the request.
        got: usize,
        /// Features per row the model expects.
        want: usize,
    },
    /// A feature exceeds [`MAX_FEATURE_MAGNITUDE`].
    OutOfRange {
        /// 0-based row of the offending value.
        row: usize,
    },
    /// The forward pass produced a non-finite embedding (should be
    /// unreachable for validated inputs over a finite model).
    NonFinite,
}

impl std::fmt::Display for AssignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssignError::DimMismatch { got, want } => {
                write!(f, "expected {want} features per row, got {got}")
            }
            AssignError::OutOfRange { row } => write!(
                f,
                "row {row}: feature magnitude exceeds {MAX_FEATURE_MAGNITUDE:e}"
            ),
            AssignError::NonFinite => write!(f, "forward pass produced non-finite values"),
        }
    }
}

impl std::error::Error for AssignError {}

/// One sample's assignment.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Hard cluster label (argmax of `q`, or nearest centroid).
    pub label: usize,
    /// Soft assignment row `q_i·` (empty in centroid-only mode).
    pub q: Vec<f32>,
    /// Squared distance to the winning centroid (centroid-only mode).
    pub dist: Option<f32>,
    /// Mean squared reconstruction error (full mode only).
    pub recon_error: Option<f32>,
}

/// A served dense layer: its weight packed once for the gemm, its bias,
/// and its activation.
#[derive(Debug, Clone)]
struct DenseW {
    w: PackedB,
    b: Vec<f32>,
    act: FusedAct,
}

/// A served feed-forward stack, with the workspace's fixed activation
/// convention (ReLU hidden, linear last — exactly how
/// [`adec_nn::Mlp::new`] builds them).
#[derive(Debug, Clone)]
struct Net {
    layers: Vec<DenseW>,
}

impl Net {
    /// Packs a group of store layers ([`collect_nets`]) for serving,
    /// releasing each raw weight from the store once it is packed, before
    /// the next layer packs: the build holds the decoded weights plus one
    /// packed tensor at most.
    fn pack(store: &mut ParamStore, group: &[Layer]) -> Net {
        let last = group.len().saturating_sub(1);
        let layers = group
            .iter()
            .enumerate()
            .map(|(i, &(w, b))| DenseW {
                w: PackedB::new(&std::mem::replace(store.get_mut(w), Matrix::zeros(0, 0))),
                b: store.get(b).row(0).to_vec(),
                act: if i == last { FusedAct::Identity } else { FusedAct::Relu },
            })
            .collect();
        Net { layers }
    }

    fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.w.rows())
    }

    /// Layer widths, input first: `[in, h0, …, out]`.
    fn dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.layers.len() + 1);
        dims.push(self.input_dim());
        dims.extend(self.layers.iter().map(|l| l.w.cols()));
        dims
    }

    fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for layer in &self.layers {
            let lin = kernels::matmul_packed(&h, &layer.w);
            h = kernels::add_bias_act(&lin, &layer.b, layer.act);
        }
        h
    }
}

/// One dense layer as the store holds it: the ids of its `in × out`
/// weight and its `1 × out` bias.
type Layer = (ParamId, ParamId);

fn group_input_dim(store: &ParamStore, group: &[Layer]) -> usize {
    group.first().map_or(0, |&(w, _)| store.get(w).rows())
}

fn group_output_dim(store: &ParamStore, group: &[Layer]) -> usize {
    group.last().map_or(0, |&(w, _)| store.get(w).cols())
}

fn group_is_finite(store: &ParamStore, group: &[Layer]) -> bool {
    group.iter().all(|&(w, b)| {
        finite_scan(store.get(w).as_slice()).is_clean()
            && finite_scan(store.get(b).as_slice()).is_clean()
    })
}

/// Splits a parameter name of the form `{prefix}.l{idx}.{w|b}` into its
/// parts; returns `None` for anything else (centroids, ad-hoc params).
fn parse_layer_name(name: &str) -> Option<(&str, usize, bool)> {
    let (rest, is_w) = match name.strip_suffix(".w") {
        Some(rest) => (rest, true),
        None => (name.strip_suffix(".b")?, false),
    };
    let dot = rest.rfind(".l")?;
    let idx: usize = rest.get(dot + 2..)?.parse().ok()?;
    let prefix = rest.get(..dot)?;
    Some((prefix, idx, is_w))
}

/// Groups the store's parameters into candidate networks: a run of
/// `{p}.l0.w, {p}.l0.b, {p}.l1.w, …` becomes one group. Registration
/// order is preserved (the encoder is always the first group a trainer
/// registers). Malformed runs are skipped, not fatal — serving degrades
/// instead of refusing.
fn collect_nets(store: &ParamStore) -> Vec<Vec<Layer>> {
    let mut nets: Vec<Vec<Layer>> = Vec::new();
    let mut current: Vec<Layer> = Vec::new();
    let mut pending: Option<(&str, usize, ParamId)> = None;
    let mut current_prefix = "";

    let mut flush = |current: &mut Vec<Layer>, pending: &mut Option<(&str, usize, ParamId)>| {
        *pending = None;
        if !current.is_empty() {
            nets.push(std::mem::take(current));
        }
    };

    for (id, name, value) in store.iter() {
        match parse_layer_name(name) {
            Some((prefix, idx, true)) => {
                // A `.w` starts a new layer; layer 0 starts a new group, as
                // does any prefix change or out-of-order index.
                if idx == 0 || prefix != current_prefix || idx != current.len() {
                    flush(&mut current, &mut pending);
                    if idx != 0 {
                        current_prefix = "";
                        continue;
                    }
                    current_prefix = prefix;
                }
                pending = Some((prefix, idx, id));
            }
            Some((prefix, idx, false)) => {
                // A `.b` completes the pending `.w` of the same layer.
                let matched = match pending.take() {
                    Some((p, i, w))
                        if p == prefix
                            && i == idx
                            && value.rows() == 1
                            && value.cols() == store.get(w).cols()
                            && current
                                .last()
                                .is_none_or(|&(prev, _)| store.get(prev).cols() == store.get(w).rows()) =>
                    {
                        Some(w)
                    }
                    _ => None,
                };
                match matched {
                    Some(w) => current.push((w, id)),
                    None => flush(&mut current, &mut pending),
                }
            }
            None => flush(&mut current, &mut pending),
        }
    }
    flush(&mut current, &mut pending);
    nets
}

/// The servable assignment function reconstructed from a checkpoint.
#[derive(Debug, Clone)]
pub struct InferenceModel {
    /// Training phase that wrote the checkpoint ("dec", "idec", …).
    pub phase: String,
    /// Degradation rung (see module docs).
    pub mode: ServeMode,
    /// Student-t degrees of freedom for the soft assignment (paper Eq. 1).
    pub alpha: f32,
    encoder: Option<Net>,
    decoder: Option<Net>,
    centroids: Matrix,
    /// Training-time reference profile, when the checkpoint carried one
    /// whose shape matches the reconstructed model (drift sentinel input).
    profile: Option<ReferenceProfile>,
    /// CRC32 of the whole checkpoint file the model was read from.
    checksum: u32,
}

impl InferenceModel {
    /// Reads and verifies a checkpoint file, then builds the model. The
    /// optimizer state is verified but not decoded
    /// ([`Checkpoint::load_weights`]).
    ///
    /// # Errors
    ///
    /// [`ModelError::Checkpoint`] on unreadable/corrupt files, otherwise
    /// the errors of [`InferenceModel::from_checkpoint`].
    pub fn load(path: impl AsRef<Path>, alpha: f32) -> Result<InferenceModel, ModelError> {
        let (ck, checksum) = Checkpoint::load_weights(path)?;
        Ok(InferenceModel::from_checkpoint(ck, alpha)?.with_checksum(checksum))
    }

    /// Builds the model from a decoded checkpoint, which it consumes: each
    /// served layer is packed and its raw weight released before the next
    /// packs, so the build holds at most the decoded weights plus one
    /// packed tensor, and the rest of the store goes when it returns.
    ///
    /// # Errors
    ///
    /// [`ModelError::NoCentroids`] when the store has no unique
    /// `*.centroids` tensor, [`ModelError::DegradedCentroids`] when it has
    /// one but it is non-finite, [`ModelError::BadTopology`] when the
    /// centroid tensor is degenerate.
    pub fn from_checkpoint(ck: Checkpoint, alpha: f32) -> Result<InferenceModel, ModelError> {
        let Checkpoint { phase, mut store, profile, .. } = ck;
        let preferred = format!("{phase}.centroids");
        let mut candidates: Vec<(&str, &Matrix)> = store
            .iter()
            .filter(|(_, name, _)| name.ends_with(".centroids"))
            .map(|(_, name, value)| (name, value))
            .collect();
        if let Some(pos) = candidates.iter().position(|(n, _)| *n == preferred) {
            candidates = vec![candidates.swap_remove(pos)];
        }
        let (_, mu) = match candidates.as_slice() {
            [] => {
                return Err(ModelError::NoCentroids(format!(
                    "checkpoint phase '{phase}' has no '*.centroids' parameter \
                     (serve needs a clustering-phase checkpoint, not 'pretrain')"
                )))
            }
            [one] => *one,
            many => {
                return Err(ModelError::NoCentroids(format!(
                    "ambiguous: {} centroid tensors and none named '{preferred}'",
                    many.len()
                )))
            }
        };
        if mu.rows() == 0 || mu.cols() == 0 {
            return Err(ModelError::BadTopology(format!(
                "centroid tensor has degenerate shape {:?}",
                mu.shape()
            )));
        }
        if !finite_scan(mu.as_slice()).is_clean() {
            return Err(ModelError::DegradedCentroids(
                "centroid tensor contains non-finite values".into(),
            ));
        }
        let centroids = mu.clone();
        let latent = centroids.cols();

        let nets = collect_nets(&store);
        // The encoder is the first group whose output lands in centroid
        // space (trainers register it first); degrade it away if its
        // tensors went non-finite.
        let encoder = nets
            .iter()
            .find(|g| group_output_dim(&store, g) == latent)
            .filter(|g| group_is_finite(&store, g));
        let decoder = encoder.and_then(|enc| {
            let data = group_input_dim(&store, enc);
            nets.iter()
                .find(|g| group_input_dim(&store, g) == latent && group_output_dim(&store, g) == data)
                .filter(|g| group_is_finite(&store, g))
        });
        let mode = match (encoder, decoder) {
            (Some(_), Some(_)) => ServeMode::Full,
            (Some(_), None) => ServeMode::NoDecoder,
            (None, _) => ServeMode::CentroidOnly,
        };
        // Keep the reference profile only when it describes *this* model:
        // a profile from a differently-shaped run would feed the sentinel
        // garbage, which is worse than disabling it.
        let profile =
            profile.filter(|p| p.matches(latent, centroids.rows()) && p.validate().is_ok());
        // Pack only the served networks, once. A group serving as both
        // encoder and decoder (data width equal to the latent width) packs
        // once: its raw weights are gone after the first.
        let encoder_net = encoder.map(|g| Net::pack(&mut store, g));
        let decoder = decoder.map(|g| match (encoder, &encoder_net) {
            (Some(enc), Some(net)) if std::ptr::eq(enc, g) => net.clone(),
            _ => Net::pack(&mut store, g),
        });
        Ok(InferenceModel {
            phase,
            mode,
            alpha,
            encoder: encoder_net,
            decoder,
            centroids,
            profile,
            checksum: 0,
        })
    }

    /// The model, recorded as read from a file whose whole-file CRC32 is
    /// `checksum`.
    pub(crate) fn with_checksum(self, checksum: u32) -> InferenceModel {
        InferenceModel { checksum, ..self }
    }

    /// CRC32 of the whole checkpoint file the model was read from, 0 when
    /// it was built from a checkpoint in memory: the hot-reload watcher
    /// tells a touched but unchanged file by it, and the reload events
    /// report it.
    pub fn checksum(&self) -> u32 {
        self.checksum
    }

    /// Features per input row this model accepts: the data dimension in
    /// full/no-decoder modes, the latent dimension in centroid-only mode.
    pub fn input_dim(&self) -> usize {
        self.encoder
            .as_ref()
            .map_or(self.centroids.cols(), Net::input_dim)
    }

    /// Latent (embedding) dimensionality.
    pub fn latent_dim(&self) -> usize {
        self.centroids.cols()
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// Layer widths of the reconstructed encoder, input first (`None` in
    /// centroid-only mode). Lets the hot-reload validator rebuild an
    /// [`adec_analysis::ArchSpec`] chain without re-reading the store.
    pub fn encoder_dims(&self) -> Option<Vec<usize>> {
        self.encoder.as_ref().map(Net::dims)
    }

    /// Layer widths of the reconstructed decoder, input first (`None`
    /// below full mode).
    pub fn decoder_dims(&self) -> Option<Vec<usize>> {
        self.decoder.as_ref().map(Net::dims)
    }

    /// Validates a batch without computing: width and magnitude bounds.
    ///
    /// # Errors
    ///
    /// [`AssignError::DimMismatch`] / [`AssignError::OutOfRange`].
    pub fn validate(&self, x: &Matrix) -> Result<(), AssignError> {
        assert!(x.rows() > 0, "validate: empty batch");
        if x.cols() != self.input_dim() {
            return Err(AssignError::DimMismatch {
                got: x.cols(),
                want: self.input_dim(),
            });
        }
        for r in 0..x.rows() {
            if x.row(r).iter().any(|v| v.abs() > MAX_FEATURE_MAGNITUDE) {
                return Err(AssignError::OutOfRange { row: r });
            }
        }
        Ok(())
    }

    /// The rung a request is actually answered at: the worse of what the
    /// checkpoint supports and what the caller (the server's load-shed
    /// gate) asks for.
    pub fn effective_mode(&self, tier: ServeMode) -> ServeMode {
        ServeMode::worse(self.mode, tier)
    }

    /// Validates a batch and embeds it: `z = E_φ(x)` through the encoder,
    /// or `x` itself for a centroid-only model, which takes latent input.
    /// Every answer and every drift statistic of the batch is computed
    /// from this one embedding. Deterministic: each row's embedding
    /// depends on that row alone, bitwise, at any worker count and batch
    /// split (the kernel layer's row-chunk invariant).
    ///
    /// # Errors
    ///
    /// The validation errors of [`InferenceModel::validate`], plus
    /// [`AssignError::NonFinite`] should the embedding overflow.
    pub fn embed(&self, x: &Matrix) -> Result<Matrix, AssignError> {
        self.validate(x)?;
        let z = match &self.encoder {
            Some(enc) => enc.forward(x),
            None => x.clone(),
        };
        if !finite_scan(z.as_slice()).is_clean() {
            return Err(AssignError::NonFinite);
        }
        Ok(z)
    }

    /// Assigns a batch at the model's own rung.
    ///
    /// # Errors
    ///
    /// The errors of [`InferenceModel::embed`].
    pub fn assign(&self, x: &Matrix) -> Result<Vec<Assignment>, AssignError> {
        assert!(x.cols() > 0, "assign: zero-width batch");
        let z = self.embed(x)?;
        // Tier Full adds no pressure: the effective rung is self.mode.
        Ok(self.assign_with_tier(x, &z, ServeMode::Full))
    }

    /// Answers a batch `x` from its embedding `z` ([`InferenceModel::embed`])
    /// at (no better than) the requested tier — the load-shedding entry
    /// point. The accepted input width never changes with the tier: a
    /// sheddable request is still a *data-space* request; shedding to
    /// centroid-only keeps the embedding but skips the Student-t soft
    /// assignment and the decoder reconstruction (the two most expensive
    /// parts of a full answer, in compute and in response bytes).
    pub fn assign_with_tier(&self, x: &Matrix, z: &Matrix, tier: ServeMode) -> Vec<Assignment> {
        assert_eq!(x.rows(), z.rows(), "assign_with_tier: batch and embedding differ in rows");
        let effective = self.effective_mode(tier);
        if effective == ServeMode::CentroidOnly {
            // Hard nearest-centroid over the embedding: the shed rung, and
            // the only rung of a model without an encoder.
            return (0..z.rows())
                .map(|i| {
                    let (_, _, _, label, dist) = row_stats(z.row(i), &[], &self.centroids);
                    Assignment { label, q: Vec::new(), dist: Some(dist), recon_error: None }
                })
                .collect();
        }
        let q = soft_assignment(z, &self.centroids, self.alpha);
        let recon: Option<Vec<f32>> = if effective == ServeMode::Full {
            self.decoder.as_ref().map(|dec| {
                let xhat = dec.forward(z);
                (0..x.rows())
                    .map(|i| {
                        let d: f32 = xhat
                            .row(i)
                            .iter()
                            .zip(x.row(i).iter())
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum();
                        d / x.cols() as f32
                    })
                    .collect()
            })
        } else {
            None
        };
        (0..x.rows())
            .map(|i| Assignment {
                label: argmax(q.row(i)),
                q: q.row(i).to_vec(),
                dist: None,
                recon_error: recon.as_ref().and_then(|r| r.get(i)).copied(),
            })
            .collect()
    }

    /// The training-time reference profile this model was shipped with,
    /// if any (drift-sentinel input).
    pub fn profile(&self) -> Option<&ReferenceProfile> {
        self.profile.as_ref()
    }

    /// Reduces embedded batches ([`InferenceModel::embed`]), in order, to
    /// the additive summary the drift sentinel accumulates, scored against
    /// this model's own profile (`None` without one). Rows add in the
    /// order given, so the embeddings of a request's chunks, reduced in
    /// request order, give the same bits as the whole request's.
    pub(crate) fn drift_reduce(&self, embeddings: &[Matrix]) -> Option<BatchDriftStats> {
        let profile = self.profile.as_ref()?;
        let mut stats = BatchDriftStats::new(self.latent_dim(), self.k());
        for z in embeddings {
            stats.add_rows(z, &self.centroids, self.alpha, profile);
        }
        Some(stats)
    }

    /// Embeds a batch and reduces it for the drift sentinel: `None` when
    /// the model has no profile or the batch fails
    /// [`InferenceModel::embed`] — a batch the sentinel must not learn
    /// from. Independent of the serving tier.
    pub fn drift_stats(&self, x: &Matrix) -> Option<BatchDriftStats> {
        assert!(x.rows() > 0, "drift_stats: empty batch");
        self.profile.as_ref()?;
        let z = self.embed(x).ok()?;
        self.drift_reduce(std::slice::from_ref(&z))
    }
}

/// Index of the strictly-largest value; ties break to the lowest index.
fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (j, &v) in row.iter().enumerate() {
        if v > best_v {
            best = j;
            best_v = v;
        }
    }
    best
}

#[cfg(test)]
// Test code: unwraps are the assertions themselves here.
#[allow(clippy::unwrap_used, clippy::float_cmp, clippy::panic)]
pub(crate) mod tests {
    use super::*;
    use adec_nn::{Activation, Mlp};
    use adec_tensor::SeedRng;

    /// A tiny synthetic "trained" checkpoint: 6-d data, 3-d latent, 4
    /// centroids — built exactly how the trainers register parameters.
    pub(crate) fn sample_checkpoint() -> Checkpoint {
        let mut rng = SeedRng::new(41);
        let mut store = ParamStore::new();
        Mlp::new(&mut store, &[6, 5, 3], Activation::Relu, Activation::Linear, &mut rng);
        Mlp::new(&mut store, &[3, 5, 6], Activation::Relu, Activation::Linear, &mut rng);
        // An ACAI-critic-shaped bystander the model must ignore.
        Mlp::new(&mut store, &[6, 4, 1], Activation::Relu, Activation::Linear, &mut rng);
        store.register("dec.centroids", Matrix::randn(4, 3, 0.0, 1.0, &mut rng));
        Checkpoint {
            phase: "dec".into(),
            iter: 10,
            rng: rng.export_state(),
            store,
            opts: vec![],
            extra: vec![],
            profile: None,
        }
    }

    /// A checkpoint whose widths are not multiples of the gemm's panel
    /// width [`kernels::NR`]: 45-d data, 6-d latent, 5 centroids, and a
    /// critic bystander.
    fn ragged_checkpoint() -> Checkpoint {
        let mut rng = SeedRng::new(43);
        let mut store = ParamStore::new();
        Mlp::new(&mut store, &[45, 33, 18, 6], Activation::Relu, Activation::Linear, &mut rng);
        Mlp::new(&mut store, &[6, 18, 33, 45], Activation::Relu, Activation::Linear, &mut rng);
        Mlp::new(&mut store, &[45, 7, 1], Activation::Relu, Activation::Linear, &mut rng);
        store.register("dec.centroids", Matrix::randn(5, 6, 0.0, 1.0, &mut rng));
        Checkpoint { store, ..sample_checkpoint() }
    }

    /// The store's `{prefix}.l{i}` layers run in order through the naive
    /// triple-loop gemm, which shares no code with the packed row driver
    /// the model runs: ReLU on hidden layers, Identity on the last.
    fn reference_forward(store: &ParamStore, prefix: &str, x: &Matrix) -> Matrix {
        let param = |name: String| store.iter().find(|(_, n, _)| *n == name).map(|(_, _, v)| v);
        let mut h = x.clone();
        let mut i = 0;
        while let Some(w) = param(format!("{prefix}.l{i}.w")) {
            let b = param(format!("{prefix}.l{i}.b")).unwrap();
            let hidden = param(format!("{prefix}.l{}.w", i + 1)).is_some();
            let act = if hidden { FusedAct::Relu } else { FusedAct::Identity };
            h = kernels::add_bias_act(&kernels::matmul_naive(&h, w), b.row(0), act);
            i += 1;
        }
        assert!(i > 0, "no layers named {prefix}.l0");
        h
    }

    #[test]
    fn assign_matches_a_reference_forward_over_the_store_at_every_tier() {
        let mut rng = SeedRng::new(17);
        for (ck, data, latent) in [(sample_checkpoint(), 6, 3), (ragged_checkpoint(), 45, 6)] {
            let model = InferenceModel::from_checkpoint(ck.clone(), 1.0).unwrap();
            assert_eq!(model.mode, ServeMode::Full);
            let mu = ck.store.iter().find(|(_, n, _)| *n == "dec.centroids").unwrap().2;
            // 70 rows: taller than the gemm's 64-row `A` block.
            for rows in [1, 5, 16, 70] {
                let x = Matrix::randn(rows, data, 0.0, 1.0, &mut rng);
                let z = reference_forward(&ck.store, &format!("mlp{data}x{latent}"), &x);
                let xhat = reference_forward(&ck.store, &format!("mlp{latent}x{data}"), &z);
                let q = soft_assignment(&z, mu, 1.0);
                assert_eq!(model.embed(&x).unwrap(), z, "{data}-d, {rows} rows: embedding");
                for tier in [ServeMode::Full, ServeMode::NoDecoder, ServeMode::CentroidOnly] {
                    let got = model.assign_with_tier(&x, &model.embed(&x).unwrap(), tier);
                    assert_eq!(got.len(), rows);
                    for (i, a) in got.iter().enumerate() {
                        let ctx = format!("{data}-d, {rows} rows, tier {tier:?}, row {i}");
                        if tier == ServeMode::CentroidOnly {
                            let (_, _, _, label, dist) = row_stats(z.row(i), &[], mu);
                            assert_eq!((a.label, a.dist), (label, Some(dist)), "{ctx}");
                            assert!(a.q.is_empty() && a.recon_error.is_none(), "{ctx}");
                            continue;
                        }
                        let recon = (tier == ServeMode::Full).then(|| {
                            let d: f32 = xhat
                                .row(i)
                                .iter()
                                .zip(x.row(i))
                                .map(|(a, b)| (a - b) * (a - b))
                                .sum();
                            d / data as f32
                        });
                        assert_eq!(a.q, q.row(i), "{ctx}");
                        assert_eq!(a.label, argmax(q.row(i)), "{ctx}");
                        assert_eq!(a.recon_error, recon, "{ctx}");
                        assert!(a.dist.is_none(), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_group_serving_as_encoder_and_decoder_packs_once() {
        // Data width equal to the latent width: the one `3 → 5 → 3` group
        // is both the encoder and the decoder.
        let mut rng = SeedRng::new(19);
        let mut store = ParamStore::new();
        Mlp::new(&mut store, &[3, 5, 3], Activation::Relu, Activation::Linear, &mut rng);
        store.register("dec.centroids", Matrix::randn(4, 3, 0.0, 1.0, &mut rng));
        let ck = Checkpoint { store, ..sample_checkpoint() };
        let model = InferenceModel::from_checkpoint(ck.clone(), 1.0).unwrap();
        assert_eq!(model.mode, ServeMode::Full);
        assert_eq!(model.decoder_dims(), Some(vec![3, 5, 3]));
        let x = Matrix::randn(6, 3, 0.0, 1.0, &mut rng);
        let z = reference_forward(&ck.store, "mlp3x3", &x);
        let xhat = reference_forward(&ck.store, "mlp3x3", &z);
        assert_eq!(model.embed(&x).unwrap(), z);
        for (i, a) in model.assign(&x).unwrap().iter().enumerate() {
            let d: f32 = xhat.row(i).iter().zip(x.row(i)).map(|(a, b)| (a - b) * (a - b)).sum();
            assert_eq!(a.recon_error, Some(d / 3.0), "row {i}");
        }
    }

    #[test]
    fn full_mode_round_trip() {
        let model = InferenceModel::from_checkpoint(sample_checkpoint(), 1.0).unwrap();
        assert_eq!(model.mode, ServeMode::Full);
        assert_eq!(model.input_dim(), 6);
        assert_eq!(model.latent_dim(), 3);
        assert_eq!(model.k(), 4);

        let mut rng = SeedRng::new(7);
        let x = Matrix::randn(5, 6, 0.0, 1.0, &mut rng);
        let out = model.assign(&x).unwrap();
        assert_eq!(out.len(), 5);
        for a in &out {
            assert!(a.label < 4);
            assert_eq!(a.q.len(), 4);
            let s: f32 = a.q.iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "q rows sum to 1, got {s}");
            assert!(a.recon_error.unwrap() >= 0.0);
            assert!(a.dist.is_none());
        }
        // Determinism: same input, bitwise-same output.
        let again = model.assign(&x).unwrap();
        for (a, b) in out.iter().zip(again.iter()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.q, b.q);
            assert_eq!(a.recon_error, b.recon_error);
        }
    }

    #[test]
    fn missing_decoder_degrades_not_fails() {
        let mut ck = sample_checkpoint();
        // Rebuild the store without the decoder group.
        let mut store = ParamStore::new();
        for (_, name, value) in ck.store.iter() {
            if !name.starts_with("mlp3x6.") {
                store.register(name.to_string(), value.clone());
            }
        }
        ck.store = store;
        let model = InferenceModel::from_checkpoint(ck, 1.0).unwrap();
        assert_eq!(model.mode, ServeMode::NoDecoder);
        let x = Matrix::zeros(2, 6);
        let out = model.assign(&x).unwrap();
        assert!(out.iter().all(|a| a.recon_error.is_none() && a.q.len() == 4));
    }

    #[test]
    fn non_finite_encoder_degrades_to_centroid_only() {
        let mut ck = sample_checkpoint();
        // Poison one encoder weight; the model must fall back rather than
        // serve garbage embeddings.
        let poisoned = ck
            .store
            .iter()
            .find(|(_, n, _)| *n == "mlp6x3.l0.w")
            .map(|(id, _, _)| id)
            .unwrap();
        ck.store.get_mut(poisoned).set(0, 0, f32::NAN);
        let model = InferenceModel::from_checkpoint(ck.clone(), 1.0).unwrap();
        assert_eq!(model.mode, ServeMode::CentroidOnly);
        // Centroid-only accepts latent-dim rows and answers hard labels.
        assert_eq!(model.input_dim(), 3);
        let z = Matrix::from_vec(1, 3, ck.store.iter().last().unwrap().2.row(2).to_vec());
        let out = model.assign(&z).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.first().unwrap().label, 2, "exact centroid → its own label");
        assert_eq!(out.first().unwrap().dist, Some(0.0));
        assert!(out.first().unwrap().q.is_empty());
    }

    #[test]
    fn pretrain_checkpoint_is_refused() {
        let mut ck = sample_checkpoint();
        ck.phase = "pretrain".into();
        let mut store = ParamStore::new();
        for (_, name, value) in ck.store.iter() {
            if !name.ends_with(".centroids") {
                store.register(name.to_string(), value.clone());
            }
        }
        ck.store = store;
        match InferenceModel::from_checkpoint(ck, 1.0) {
            Err(ModelError::NoCentroids(msg)) => assert!(msg.contains("pretrain")),
            other => panic!("expected NoCentroids, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_centroids_are_fatal() {
        let mut ck = sample_checkpoint();
        let mu_id = ck
            .store
            .iter()
            .find(|(_, n, _)| n.ends_with(".centroids"))
            .map(|(id, _, _)| id)
            .unwrap();
        ck.store.get_mut(mu_id).set(1, 1, f32::INFINITY);
        assert!(matches!(
            InferenceModel::from_checkpoint(ck, 1.0),
            Err(ModelError::DegradedCentroids(_))
        ));
    }

    #[test]
    fn validation_rejects_bad_width_and_magnitude() {
        let model = InferenceModel::from_checkpoint(sample_checkpoint(), 1.0).unwrap();
        let narrow = Matrix::zeros(1, 4);
        assert_eq!(
            model.validate(&narrow),
            Err(AssignError::DimMismatch { got: 4, want: 6 })
        );
        let mut huge = Matrix::zeros(2, 6);
        huge.set(1, 3, 1e9);
        assert_eq!(model.validate(&huge), Err(AssignError::OutOfRange { row: 1 }));
    }

    #[test]
    fn worse_takes_the_more_degraded_rung() {
        use ServeMode::{CentroidOnly, Full, NoDecoder};
        assert_eq!(ServeMode::worse(Full, Full), Full);
        assert_eq!(ServeMode::worse(Full, NoDecoder), NoDecoder);
        assert_eq!(ServeMode::worse(NoDecoder, Full), NoDecoder);
        assert_eq!(ServeMode::worse(CentroidOnly, NoDecoder), CentroidOnly);
        assert_eq!(ServeMode::worse(NoDecoder, CentroidOnly), CentroidOnly);
        assert!(Full.rank() < NoDecoder.rank() && NoDecoder.rank() < CentroidOnly.rank());
    }

    #[test]
    fn shed_tiers_keep_width_and_labels_but_shed_payload() {
        let model = InferenceModel::from_checkpoint(sample_checkpoint(), 1.0).unwrap();
        assert_eq!(model.mode, ServeMode::Full);
        let mut rng = SeedRng::new(13);
        let x = Matrix::randn(4, 6, 0.0, 1.0, &mut rng);

        let z = model.embed(&x).unwrap();
        let full = model.assign_with_tier(&x, &z, ServeMode::Full);
        let nodec = model.assign_with_tier(&x, &z, ServeMode::NoDecoder);
        let cent = model.assign_with_tier(&x, &z, ServeMode::CentroidOnly);

        // The Student-t q is monotone decreasing in centroid distance, so
        // argmax(q) and nearest-centroid agree: shedding never changes the
        // hard label, only the payload richness.
        for ((f, n), c) in full.iter().zip(nodec.iter()).zip(cent.iter()) {
            assert_eq!(f.label, n.label);
            assert_eq!(f.label, c.label);
            assert!(f.recon_error.is_some() && !f.q.is_empty());
            assert!(n.recon_error.is_none() && !n.q.is_empty());
            assert!(c.recon_error.is_none() && c.q.is_empty() && c.dist.is_some());
        }
        // assign() is exactly the tier-Full path.
        let plain = model.assign(&x).unwrap();
        for (a, b) in plain.iter().zip(full.iter()) {
            assert_eq!(a.q, b.q);
            assert_eq!(a.recon_error, b.recon_error);
        }
        // Every rung embeds, and so validates against, the *data* width.
        assert!(matches!(
            model.embed(&Matrix::zeros(1, 3)),
            Err(AssignError::DimMismatch { got: 3, want: 6 })
        ));
    }

    #[test]
    fn layer_name_parsing() {
        assert_eq!(parse_layer_name("mlp6x3.l0.w"), Some(("mlp6x3", 0, true)));
        assert_eq!(parse_layer_name("mlp6x3.l12.b"), Some(("mlp6x3", 12, false)));
        assert_eq!(parse_layer_name("dec.centroids"), None);
        assert_eq!(parse_layer_name("mlp6x3.lx.w"), None);
        assert_eq!(parse_layer_name("w"), None);
    }
}
