//! Checkpoint → inference model, with a graceful-degradation ladder.
//!
//! A PR-3 training checkpoint ([`adec_nn::Checkpoint`]) carries the full
//! [`ParamStore`] of the run that wrote it: encoder layers, decoder layers,
//! possibly an ACAI critic or GAN discriminator, and the embedded centroids
//! (`dec.centroids` / `idec.centroids` / `dcn.centroids` /
//! `adec.centroids`). Serving only needs the *assignment function* — the
//! encoder `E_φ` and the centroids `μ` of the paper's Eq. 1 — so this
//! module reconstructs exactly that from the store, by name and shape,
//! without registering anything new.
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
use adec_nn::{soft_assignment, Checkpoint, CheckpointError, ParamStore, ReferenceProfile};
use adec_tensor::{finite_scan, kernels, FusedAct, Matrix};
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

/// A dense layer materialized out of a checkpoint store.
#[derive(Debug, Clone)]
struct DenseW {
    w: Matrix,
    b: Vec<f32>,
    act: FusedAct,
}

/// A feed-forward stack reconstructed from consecutive `{prefix}.l{i}.{w,b}`
/// parameters, with the workspace's fixed activation convention (ReLU
/// hidden, linear last — exactly how [`adec_nn::Mlp::new`] builds them).
#[derive(Debug, Clone)]
struct Net {
    layers: Vec<DenseW>,
}

impl Net {
    fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.w.rows())
    }

    fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.w.cols())
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
            let lin = h.matmul(&layer.w);
            h = kernels::add_bias_act(&lin, &layer.b, layer.act);
        }
        h
    }

    fn is_finite(&self) -> bool {
        self.layers.iter().all(|l| {
            finite_scan(l.w.as_slice()).is_clean() && finite_scan(&l.b).is_clean()
        })
    }
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
/// `{p}.l0.w, {p}.l0.b, {p}.l1.w, …` becomes one [`Net`]. Registration
/// order is preserved (the encoder is always the first group a trainer
/// registers). Malformed runs are skipped, not fatal — serving degrades
/// instead of refusing.
fn collect_nets(store: &ParamStore) -> Vec<Net> {
    let mut nets: Vec<Net> = Vec::new();
    let mut current: Vec<DenseW> = Vec::new();
    let mut pending: Option<(String, usize, Matrix)> = None;
    let mut current_prefix = String::new();

    let mut flush = |current: &mut Vec<DenseW>, pending: &mut Option<(String, usize, Matrix)>| {
        *pending = None;
        if !current.is_empty() {
            nets.push(Net {
                layers: std::mem::take(current),
            });
        }
    };

    for (_, name, value) in store.iter() {
        match parse_layer_name(name) {
            Some((prefix, idx, true)) => {
                // A `.w` starts a new layer; layer 0 starts a new group, as
                // does any prefix change or out-of-order index.
                if idx == 0 || prefix != current_prefix || idx != current.len() {
                    flush(&mut current, &mut pending);
                    if idx != 0 {
                        current_prefix.clear();
                        continue;
                    }
                    current_prefix = prefix.to_string();
                }
                pending = Some((prefix.to_string(), idx, value.clone()));
            }
            Some((prefix, idx, false)) => {
                // A `.b` completes the pending `.w` of the same layer.
                let matched = match pending.take() {
                    Some((p, i, w))
                        if p == prefix
                            && i == idx
                            && value.rows() == 1
                            && value.cols() == w.cols()
                            && current
                                .last()
                                .is_none_or(|prev: &DenseW| prev.w.cols() == w.rows()) =>
                    {
                        Some(w)
                    }
                    _ => None,
                };
                match matched {
                    Some(w) => current.push(DenseW {
                        w,
                        b: value.row(0).to_vec(),
                        act: FusedAct::Relu, // fixed up to Linear on the last layer below
                    }),
                    None => flush(&mut current, &mut pending),
                }
            }
            None => flush(&mut current, &mut pending),
        }
    }
    flush(&mut current, &mut pending);

    // The workspace convention: hidden layers ReLU, final layer linear.
    for net in &mut nets {
        if let Some(last) = net.layers.last_mut() {
            last.act = FusedAct::Identity;
        }
    }
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
}

impl InferenceModel {
    /// Reads and verifies a checkpoint file, then builds the model.
    ///
    /// # Errors
    ///
    /// [`ModelError::Checkpoint`] on unreadable/corrupt files, otherwise
    /// the errors of [`InferenceModel::from_checkpoint`].
    pub fn load(path: impl AsRef<Path>, alpha: f32) -> Result<InferenceModel, ModelError> {
        let ck = Checkpoint::load(path)?;
        InferenceModel::from_checkpoint(&ck, alpha)
    }

    /// Builds the model from an in-memory checkpoint.
    ///
    /// # Errors
    ///
    /// [`ModelError::NoCentroids`] when the store has no unique
    /// `*.centroids` tensor, [`ModelError::DegradedCentroids`] when it has
    /// one but it is non-finite, [`ModelError::BadTopology`] when the
    /// centroid tensor is degenerate.
    pub fn from_checkpoint(ck: &Checkpoint, alpha: f32) -> Result<InferenceModel, ModelError> {
        let store = &ck.store;
        let preferred = format!("{}.centroids", ck.phase);
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
                    "checkpoint phase '{}' has no '*.centroids' parameter \
                     (serve needs a clustering-phase checkpoint, not 'pretrain')",
                    ck.phase
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

        let nets = collect_nets(store);
        // The encoder is the first group whose output lands in centroid
        // space (trainers register it first); degrade it away if its
        // tensors went non-finite.
        let encoder = nets
            .iter()
            .find(|n| n.output_dim() == latent && !n.layers.is_empty())
            .filter(|n| n.is_finite())
            .cloned();
        let decoder = encoder.as_ref().and_then(|enc| {
            nets.iter()
                .find(|n| n.input_dim() == latent && n.output_dim() == enc.input_dim())
                .filter(|n| n.is_finite())
                .cloned()
        });
        let mode = match (&encoder, &decoder) {
            (Some(_), Some(_)) => ServeMode::Full,
            (Some(_), None) => ServeMode::NoDecoder,
            (None, _) => ServeMode::CentroidOnly,
        };
        // Keep the reference profile only when it describes *this* model:
        // a profile from a differently-shaped run would feed the sentinel
        // garbage, which is worse than disabling it.
        let profile = ck
            .profile
            .as_ref()
            .filter(|p| p.matches(latent, centroids.rows()) && p.validate().is_ok())
            .cloned();
        Ok(InferenceModel {
            phase: ck.phase.clone(),
            mode,
            alpha,
            encoder,
            decoder: if mode == ServeMode::Full { decoder } else { None },
            centroids,
            profile,
        })
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

    /// Assigns a validated batch at the model's own rung. Deterministic:
    /// identical input bytes and model produce bitwise-identical outputs
    /// at any worker count (the kernel layer's row-chunk invariant).
    ///
    /// # Errors
    ///
    /// The validation errors of [`InferenceModel::validate`], plus
    /// [`AssignError::NonFinite`] should the forward pass overflow.
    pub fn assign(&self, x: &Matrix) -> Result<Vec<Assignment>, AssignError> {
        assert!(x.cols() > 0, "assign: zero-width batch");
        // Tier Full adds no pressure: the effective rung is self.mode.
        self.assign_with_tier(x, ServeMode::Full)
    }

    /// Assigns a validated batch at (no better than) the requested tier —
    /// the load-shedding entry point. The accepted input width never
    /// changes with the tier: a sheddable request is still a *data-space*
    /// request; shedding to centroid-only keeps the encoder forward but
    /// skips the Student-t soft assignment and the decoder reconstruction
    /// (the two most expensive parts of a full answer, in compute and in
    /// response bytes).
    ///
    /// # Errors
    ///
    /// Same as [`InferenceModel::assign`].
    pub fn assign_with_tier(
        &self,
        x: &Matrix,
        tier: ServeMode,
    ) -> Result<Vec<Assignment>, AssignError> {
        assert!(x.cols() > 0, "assign: zero-width batch");
        self.validate(x)?;
        let effective = self.effective_mode(tier);
        match &self.encoder {
            Some(enc) => {
                let z = enc.forward(x);
                if !finite_scan(z.as_slice()).is_clean() {
                    return Err(AssignError::NonFinite);
                }
                if effective == ServeMode::CentroidOnly {
                    // Shed rung: hard nearest-centroid over the embedding.
                    return Ok((0..z.rows())
                        .map(|i| {
                            let (label, dist) = self.nearest_centroid(z.row(i));
                            Assignment {
                                label,
                                q: Vec::new(),
                                dist: Some(dist),
                                recon_error: None,
                            }
                        })
                        .collect());
                }
                let q = soft_assignment(&z, &self.centroids, self.alpha);
                let recon: Option<Vec<f32>> = if effective == ServeMode::Full {
                    self.decoder.as_ref().map(|dec| {
                        let xhat = dec.forward(&z);
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
                Ok((0..x.rows())
                    .map(|i| Assignment {
                        label: argmax(q.row(i)),
                        q: q.row(i).to_vec(),
                        dist: None,
                        recon_error: recon.as_ref().and_then(|r| r.get(i)).copied(),
                    })
                    .collect())
            }
            None => Ok((0..x.rows())
                .map(|i| {
                    let (label, dist) = self.nearest_centroid(x.row(i));
                    Assignment {
                        label,
                        q: Vec::new(),
                        dist: Some(dist),
                        recon_error: None,
                    }
                })
                .collect()),
        }
    }

    /// The training-time reference profile this model was shipped with,
    /// if any (drift-sentinel input).
    pub fn profile(&self) -> Option<&ReferenceProfile> {
        self.profile.as_ref()
    }

    /// Reduces a validated batch to the additive summary the drift
    /// sentinel accumulates, scored against this model's own profile.
    /// `None` when the model has no profile, the batch width is wrong, or
    /// the embedding went non-finite — a batch the sentinel must not
    /// learn from. Independent of the serving tier: drift statistics are
    /// always computed at full soft-assignment fidelity so load shedding
    /// cannot mask (or fake) a shift.
    pub fn drift_stats(&self, x: &Matrix) -> Option<BatchDriftStats> {
        assert!(x.rows() > 0, "drift_stats: empty batch");
        let profile = self.profile.as_ref()?;
        if x.cols() != self.input_dim() {
            return None;
        }
        // Centroid-only models accept latent-space input directly.
        let owned;
        let z: &Matrix = match &self.encoder {
            Some(enc) => {
                owned = enc.forward(x);
                &owned
            }
            None => x,
        };
        if !finite_scan(z.as_slice()).is_clean() {
            return None;
        }
        let q = soft_assignment(z, &self.centroids, self.alpha);
        let p90 = profile.distance_quantiles.last().copied().unwrap_or(f32::INFINITY);
        let mut stats = BatchDriftStats::new(self.latent_dim(), self.k());
        stats.rows = z.rows() as u64;
        for i in 0..z.rows() {
            for (slot, &v) in stats.latent_sum.iter_mut().zip(z.row(i).iter()) {
                *slot += f64::from(v);
            }
            let row = q.row(i);
            let mut ent = 0.0f64;
            let mut best = (0usize, f32::NEG_INFINITY);
            for (j, &p) in row.iter().enumerate() {
                if p > 0.0 {
                    ent -= f64::from(p) * f64::from(p).ln();
                }
                if p > best.1 {
                    best = (j, p);
                }
            }
            stats.entropy_sum += ent;
            stats.confidence_sum += f64::from(best.1.max(0.0));
            if let Some(slot) = stats.occupancy.get_mut(best.0) {
                *slot += 1;
            }
            let (_, nearest) = self.nearest_centroid(z.row(i));
            if nearest > p90 {
                stats.tail_rows += 1;
            }
        }
        Some(stats)
    }

    /// Nearest centroid by squared L2; ties break to the lowest index so
    /// the answer is deterministic.
    fn nearest_centroid(&self, z: &[f32]) -> (usize, f32) {
        let mut best = (0usize, f32::INFINITY);
        for j in 0..self.centroids.rows() {
            let d: f32 = self
                .centroids
                .row(j)
                .iter()
                .zip(z.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if d < best.1 {
                best = (j, d);
            }
        }
        best
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

    #[test]
    fn full_mode_round_trip() {
        let ck = sample_checkpoint();
        let model = InferenceModel::from_checkpoint(&ck, 1.0).unwrap();
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
        let model = InferenceModel::from_checkpoint(&ck, 1.0).unwrap();
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
        let model = InferenceModel::from_checkpoint(&ck, 1.0).unwrap();
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
        match InferenceModel::from_checkpoint(&ck, 1.0) {
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
            InferenceModel::from_checkpoint(&ck, 1.0),
            Err(ModelError::DegradedCentroids(_))
        ));
    }

    #[test]
    fn validation_rejects_bad_width_and_magnitude() {
        let model = InferenceModel::from_checkpoint(&sample_checkpoint(), 1.0).unwrap();
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
        let model = InferenceModel::from_checkpoint(&sample_checkpoint(), 1.0).unwrap();
        assert_eq!(model.mode, ServeMode::Full);
        let mut rng = SeedRng::new(13);
        let x = Matrix::randn(4, 6, 0.0, 1.0, &mut rng);

        let full = model.assign_with_tier(&x, ServeMode::Full).unwrap();
        let nodec = model.assign_with_tier(&x, ServeMode::NoDecoder).unwrap();
        let cent = model.assign_with_tier(&x, ServeMode::CentroidOnly).unwrap();

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
        // The shed rung still validates against the *data* width.
        assert!(matches!(
            model.assign_with_tier(&Matrix::zeros(1, 3), ServeMode::CentroidOnly),
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
