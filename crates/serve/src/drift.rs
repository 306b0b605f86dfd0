//! Online drift sentinel: windowed detection + the mitigation ladder.
//!
//! At train time every final checkpoint embeds a [`ReferenceProfile`] of
//! the model's healthy operating regime (latent moments, assignment
//! entropy/confidence, centroid-distance quantiles, cluster occupancy —
//! see [`adec_nn::profile`]). At serve time the embedding each `/assign`
//! request was answered from is reduced, after the response is written,
//! to a [`BatchDriftStats`] summary (`BatchDriftStats::add_rows`, over
//! the same per-row routine as the profile); every worker merges its
//! summary into the sentinel's one pending window, which closes once it
//! holds `window_rows` rows fleet-wide and reduces to five standardized
//! drift signals:
//!
//! | signal       | what it watches                                        |
//! |--------------|--------------------------------------------------------|
//! | `latent`     | per-dimension embedding mean vs the profile            |
//! | `entropy`    | soft-assignment entropy mean vs the profile            |
//! | `confidence` | max-q mean vs the profile                              |
//! | `occupancy`  | cluster-occupancy histogram (χ² against the profile)   |
//! | `distance`   | excess mass above the profile's p90 centroid distance  |
//!
//! Each signal is calibrated to sit at O(1) — well under the CUSUM
//! allowance — while traffic matches the profile, and to grow like
//! `√window_rows` under a sustained shift, so every [`adec_metrics::Cusum`]
//! inherits the documented detection bound `ceil(h / (signal − k))`
//! windows. An alarm **latches** until every score decays back to zero
//! (hysteresis: the flapping zone between `k` and `h` cannot toggle the
//! mitigation ladder), or until a hot reload installs a fresh profile and
//! resets the sentinel.
//!
//! The mitigation ladder ([`DriftPolicy`]) is strictly cumulative:
//!
//! * `observe` — detect and report only; responses are byte-identical to
//!   a sentinel-less server (asserted by tests).
//! * `degrade` — while alarmed, fold severity into the load-shed ladder
//!   (alarm → `NoDecoder`, severity ≥ 2 → `CentroidOnly`) and stamp
//!   `/assign` responses with a drift flag.
//! * `gate` — additionally fail `/readyz` (503) until a refit checkpoint
//!   hot-reloads and resets the sentinel.

use crate::model::ServeMode;
use adec_metrics::detect::{Cusum, DEFAULT_THRESHOLD};
use adec_nn::profile::{row_stats, DISTANCE_QUANTILES};
use adec_nn::{soft_assignment, ReferenceProfile};
use adec_obs::{emit, Event, Level};
use adec_tensor::Matrix;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Default rows per detection window.
pub const DEFAULT_WINDOW_ROWS: usize = 256;

/// The five drift signals, in reporting order.
pub const SIGNALS: [&str; 5] = ["latent", "entropy", "confidence", "occupancy", "distance"];

/// What the sentinel is allowed to do about an alarm (cumulative ladder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftPolicy {
    /// Detect and report only; never touch a response.
    Observe,
    /// Fold alarm severity into the degradation ladder and stamp
    /// `/assign` responses with a drift flag.
    Degrade,
    /// `Degrade` plus: fail `/readyz` while alarmed, demanding a refit
    /// checkpoint reload.
    Gate,
}

impl DriftPolicy {
    /// Stable wire name (`/driftz`, CLI flag values).
    pub fn as_str(&self) -> &'static str {
        match self {
            DriftPolicy::Observe => "observe",
            DriftPolicy::Degrade => "degrade",
            DriftPolicy::Gate => "gate",
        }
    }

    /// Parses a CLI flag value; `None` for anything unknown.
    pub fn parse(s: &str) -> Option<DriftPolicy> {
        [DriftPolicy::Observe, DriftPolicy::Degrade, DriftPolicy::Gate]
            .into_iter()
            .find(|p| p.as_str() == s)
    }
}

/// Sentinel tuning; every field has a safe default. All five signals
/// share the CUSUM defaults of [`Cusum::with_defaults`].
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Mitigation ladder rung.
    pub policy: DriftPolicy,
    /// Rows per detection window (fleet-wide).
    pub window_rows: usize,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig {
            policy: DriftPolicy::Observe,
            window_rows: DEFAULT_WINDOW_ROWS,
        }
    }
}

/// One `/assign` batch reduced to the sums the window signals need.
/// Filled by `BatchDriftStats::add_rows`; additive, so batches merge into
/// one window.
#[derive(Debug, Clone, Default)]
pub struct BatchDriftStats {
    /// Rows summarized.
    pub rows: u64,
    /// Per-dimension sum of the latent embedding (f64: windows are long).
    pub latent_sum: Vec<f64>,
    /// Sum of per-row soft-assignment entropies (nats).
    pub entropy_sum: f64,
    /// Sum of per-row max soft-assignment probabilities.
    pub confidence_sum: f64,
    /// Hard-assignment (argmax q) counts per cluster.
    pub occupancy: Vec<u64>,
    /// Rows whose nearest-centroid distance exceeds the profile's p90.
    pub tail_rows: u64,
}

impl BatchDriftStats {
    /// Empty accumulator for a `latent_dim`-dimensional, `clusters`-way
    /// model.
    pub fn new(latent_dim: usize, clusters: usize) -> BatchDriftStats {
        assert!(latent_dim > 0, "BatchDriftStats: zero latent dim");
        assert!(clusters > 0, "BatchDriftStats: zero clusters");
        BatchDriftStats {
            rows: 0,
            latent_sum: vec![0.0; latent_dim],
            entropy_sum: 0.0,
            confidence_sum: 0.0,
            occupancy: vec![0; clusters],
            tail_rows: 0,
        }
    }

    /// Adds `other` into `self`. Both sides must describe the same model
    /// shape (or be `Default`-empty).
    pub fn merge(&mut self, other: &BatchDriftStats) {
        assert!(
            self.rows == 0
                || other.rows == 0
                || (self.latent_sum.len() == other.latent_sum.len()
                    && self.occupancy.len() == other.occupancy.len()),
            "BatchDriftStats::merge: shape mismatch"
        );
        if other.rows == 0 {
            return;
        }
        if self.rows == 0 {
            *self = other.clone();
            return;
        }
        self.rows += other.rows;
        for (a, b) in self.latent_sum.iter_mut().zip(other.latent_sum.iter()) {
            *a += b;
        }
        self.entropy_sum += other.entropy_sum;
        self.confidence_sum += other.confidence_sum;
        for (a, b) in self.occupancy.iter_mut().zip(other.occupancy.iter()) {
            *a += b;
        }
        self.tail_rows += other.tail_rows;
    }

    /// Adds the rows of one embedded batch `z` (n×d), in order: their
    /// Student-t soft assignment over the centroids `mu` with `alpha`
    /// degrees of freedom, the per-row statistics of
    /// [`adec_nn::profile::row_stats`], and the tail count against
    /// `profile`'s p90 centroid distance. Always at full soft-assignment
    /// fidelity, so load shedding cannot mask (or fake) a shift.
    pub(crate) fn add_rows(&mut self, z: &Matrix, mu: &Matrix, alpha: f32, profile: &ReferenceProfile) {
        assert_eq!(self.latent_sum.len(), z.cols(), "BatchDriftStats::add_rows: width mismatch");
        let q = soft_assignment(z, mu, alpha);
        let p90 = profile.distance_quantiles.last().copied().unwrap_or(f32::INFINITY);
        self.rows += z.rows() as u64;
        for i in 0..z.rows() {
            for (slot, &v) in self.latent_sum.iter_mut().zip(z.row(i)) {
                *slot += f64::from(v);
            }
            let (entropy, label, confidence, _, dist) = row_stats(z.row(i), q.row(i), mu);
            self.entropy_sum += entropy;
            self.confidence_sum += confidence;
            if let Some(slot) = self.occupancy.get_mut(label) {
                *slot += 1;
            }
            if dist > p90 {
                self.tail_rows += 1;
            }
        }
    }
}

/// Point-in-time view of one signal's detector.
#[derive(Debug, Clone)]
pub struct SignalSnapshot {
    /// Signal name (see [`SIGNALS`]).
    pub name: &'static str,
    /// The standardized signal value of the most recent window.
    pub last: f32,
    /// Accumulated CUSUM evidence.
    pub score: f32,
    /// Whether this signal's detector is at or above threshold.
    pub alarmed: bool,
}

/// Point-in-time view of the whole sentinel, for `/driftz` and `/metrics`.
#[derive(Debug, Clone)]
pub struct DriftSnapshot {
    /// Whether a reference profile is loaded (sentinel active).
    pub enabled: bool,
    /// Mitigation policy in force.
    pub policy: DriftPolicy,
    /// Rows per window.
    pub window_rows: usize,
    /// Windows closed since start (monotone across resets).
    pub windows: u64,
    /// Rows consumed into closed windows.
    pub rows: u64,
    /// Rows accumulated toward the next window.
    pub pending_rows: u64,
    /// Whether the alarm latch is set.
    pub alarmed: bool,
    /// Max per-signal severity (score/threshold); ≥ 1 while alarmed.
    pub severity: f32,
    /// Alarm transitions since start (monotone).
    pub alarms: u64,
    /// Clear transitions since start (monotone; resets count too).
    pub clears: u64,
    /// Per-signal detector state.
    pub signals: Vec<SignalSnapshot>,
}

/// Detector state guarded by one mutex: batches merge into the pending
/// window and windows close under it one at a time, in the order their
/// rows arrived, so the `serve.drift.*` event stream is totally ordered.
#[derive(Debug)]
struct DetectorState {
    profile: Option<ReferenceProfile>,
    /// Rows accumulated toward the next window.
    pending: BatchDriftStats,
    cusums: [Cusum; 5],
    last_signals: [f32; 5],
    windows: u64,
    rows: u64,
    alarms: u64,
    clears: u64,
    alarmed: bool,
}

/// Fleet-wide drift sentinel: one pending window for the whole fleet.
///
/// Every worker merges its batch summaries into the pending window under
/// the detector lock; the batch that brings it to `window_rows` rows
/// closes it there and then.
#[derive(Debug)]
pub struct DriftSentinel {
    config: DriftConfig,
    /// Label for `serve.drift.*` events (the server's port).
    instance: u64,
    state: Mutex<DetectorState>,
    // Lock-free mirrors for the request path (ladder + readiness gate).
    alarmed_flag: AtomicBool,
    severity_milli: AtomicU32,
}

impl DriftSentinel {
    /// Builds a sentinel. With no profile the sentinel is permanently
    /// disabled (pre-profile checkpoints keep serving; `/driftz` reports
    /// `profile: absent`).
    pub fn new(
        config: DriftConfig,
        profile: Option<ReferenceProfile>,
        instance: u64,
    ) -> DriftSentinel {
        assert!(config.window_rows > 0, "DriftSentinel: zero window");
        let cusums = std::array::from_fn(|_| Cusum::with_defaults());
        DriftSentinel {
            state: Mutex::new(DetectorState {
                profile,
                pending: BatchDriftStats::default(),
                cusums,
                last_signals: [0.0; 5],
                windows: 0,
                rows: 0,
                alarms: 0,
                clears: 0,
                alarmed: false,
            }),
            alarmed_flag: AtomicBool::new(false),
            severity_milli: AtomicU32::new(0),
            config,
            instance,
        }
    }

    /// The detector state, locked.
    fn state(&self) -> MutexGuard<'_, DetectorState> {
        // Counters, detectors and a window of sums stay structurally valid
        // even if a holder panicked mid-update, so a poisoned lock is
        // recoverable.
        match self.state.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Whether a reference profile is loaded and detection is running.
    pub fn enabled(&self) -> bool {
        self.state().profile.is_some()
    }

    /// The mitigation policy in force.
    pub fn policy(&self) -> DriftPolicy {
        self.config.policy
    }

    /// Whether the alarm latch is currently set (lock-free).
    pub fn alarmed(&self) -> bool {
        self.alarmed_flag.load(Ordering::Relaxed)
    }

    /// Current severity (max score/threshold across signals; lock-free).
    pub fn severity(&self) -> f32 {
        self.severity_milli.load(Ordering::Relaxed) as f32 / 1000.0
    }

    /// The shed rung drift mitigation currently demands: `Full` unless the
    /// policy degrades and the alarm latch is set, then `NoDecoder`,
    /// collapsing to `CentroidOnly` at severity ≥ 2. Folded into the
    /// load-shed ladder via [`ServeMode::worse`].
    pub fn shed_contribution(&self) -> ServeMode {
        if self.config.policy == DriftPolicy::Observe || !self.alarmed() {
            return ServeMode::Full;
        }
        if self.severity() >= 2.0 {
            ServeMode::CentroidOnly
        } else {
            ServeMode::NoDecoder
        }
    }

    /// Whether `/assign` responses carry the drift flag (any policy above
    /// observe — presence is policy-determined, so responses stay
    /// deterministic).
    pub fn stamps_responses(&self) -> bool {
        self.config.policy != DriftPolicy::Observe
    }

    /// Whether `/readyz` must fail right now (gate policy + alarm latch).
    pub fn gates_readiness(&self) -> bool {
        self.config.policy == DriftPolicy::Gate && self.alarmed()
    }

    /// Feeds one batch summary into the pending window, and closes the
    /// window when this batch brings it to `window_rows` rows. A disabled
    /// sentinel keeps nothing.
    pub fn record(&self, batch: &BatchDriftStats) {
        if batch.rows == 0 {
            return;
        }
        let mut state = self.state();
        if state.profile.is_none() {
            return;
        }
        state.pending.merge(batch);
        if state.pending.rows >= self.config.window_rows as u64 {
            self.close_window(&mut state);
        }
    }

    /// Installs a new profile (or none) and drops every accumulator and
    /// score — the hot-reload hook. If the alarm latch was set, emits the
    /// `serve.drift.clear` event with reason `reload`.
    pub fn reset(&self, profile: Option<ReferenceProfile>) {
        let mut state = self.state();
        state.pending = BatchDriftStats::default();
        let was_alarmed = state.alarmed;
        for c in &mut state.cusums {
            c.reset();
        }
        state.last_signals = [0.0; 5];
        state.alarmed = false;
        if was_alarmed {
            state.clears += 1;
            emit(
                Event::new(Level::Info, "serve.drift.clear")
                    .field("instance", self.instance)
                    .field("reason", "reload")
                    .field("window", state.windows),
            );
        }
        state.profile = profile;
        self.alarmed_flag.store(false, Ordering::Relaxed);
        self.severity_milli.store(0, Ordering::Relaxed);
    }

    /// Point-in-time view for `/driftz` and the `/metrics` gauges.
    pub fn snapshot(&self) -> DriftSnapshot {
        let state = self.state();
        let severity = state
            .cusums
            .iter()
            .map(Cusum::severity)
            .fold(0.0f32, f32::max);
        DriftSnapshot {
            enabled: state.profile.is_some(),
            policy: self.config.policy,
            window_rows: self.config.window_rows,
            windows: state.windows,
            rows: state.rows,
            pending_rows: state.pending.rows,
            alarmed: state.alarmed,
            severity,
            alarms: state.alarms,
            clears: state.clears,
            signals: SIGNALS
                .iter()
                .enumerate()
                .map(|(i, name)| SignalSnapshot {
                    name,
                    last: state.last_signals.get(i).copied().unwrap_or(0.0),
                    score: state.cusums.get(i).map_or(0.0, Cusum::score),
                    alarmed: state.cusums.get(i).is_some_and(Cusum::alarmed),
                })
                .collect(),
        }
    }

    /// Closes the pending window: scores it and feeds the detectors. Runs
    /// under the detector lock its caller holds.
    fn close_window(&self, state: &mut DetectorState) {
        let window = std::mem::take(&mut state.pending);
        let signals = match &state.profile {
            Some(profile) => window_signals(&window, profile),
            None => return,
        };
        state.windows += 1;
        state.rows += window.rows;
        state.last_signals = signals;
        for (c, &x) in state.cusums.iter_mut().zip(signals.iter()) {
            c.update(x);
        }
        let severity = state
            .cusums
            .iter()
            .map(Cusum::severity)
            .fold(0.0f32, f32::max);
        let worst = state
            .cusums
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.score().total_cmp(&b.score()))
            .map_or(("none", 0.0), |(i, c)| {
                (SIGNALS.get(i).copied().unwrap_or("none"), c.score())
            });
        emit(
            Event::new(Level::Debug, "serve.drift.window")
                .field("instance", self.instance)
                .field("window", state.windows)
                .field("rows", window.rows)
                .field("max_signal", worst.0)
                .field("max_score", f64::from(worst.1))
                .field("alarmed", if state.alarmed { 1u64 } else { 0u64 }),
        );
        let any_alarmed = state.cusums.iter().any(Cusum::alarmed);
        if !state.alarmed && any_alarmed {
            state.alarmed = true;
            state.alarms += 1;
            emit(
                Event::new(Level::Warn, "serve.drift.alarm")
                    .field("instance", self.instance)
                    .field("window", state.windows)
                    .field("signal", worst.0)
                    .field("score", f64::from(worst.1))
                    .field("threshold", f64::from(DEFAULT_THRESHOLD))
                    .field("severity", f64::from(severity)),
            );
            if self.config.policy != DriftPolicy::Observe {
                emit(
                    Event::new(Level::Warn, "serve.drift.mitigate")
                        .field("instance", self.instance)
                        .field("window", state.windows)
                        .field("action", self.config.policy.as_str())
                        .field("severity", f64::from(severity)),
                );
            }
        } else if state.alarmed && state.cusums.iter().all(|c| c.score() <= 0.0) {
            // Hysteresis: the latch only releases once every signal's
            // evidence has fully decayed, not merely dipped below h.
            state.alarmed = false;
            state.clears += 1;
            emit(
                Event::new(Level::Info, "serve.drift.clear")
                    .field("instance", self.instance)
                    .field("reason", "decay")
                    .field("window", state.windows),
            );
        }
        self.alarmed_flag.store(state.alarmed, Ordering::Relaxed);
        let milli = if state.alarmed { (severity * 1000.0).clamp(0.0, 1e9) as u32 } else { 0 };
        self.severity_milli.store(milli, Ordering::Relaxed);
    }
}

/// Reduces one closed window to the five standardized signals, each ≈ O(1)
/// while the stream matches `profile` and growing with `√rows` under a
/// sustained shift.
fn window_signals(window: &BatchDriftStats, profile: &ReferenceProfile) -> [f32; 5] {
    assert!(window.rows > 0, "window_signals: empty window");
    let n = window.rows as usize;
    let nf = window.rows as f64;

    // latent: mean over dimensions of the standardized per-dim mean shift.
    // (Mean, not max: stationary level ≈ E|N(0,1)| ≈ 0.8 independent of
    // the latent width, so one allowance calibrates every model.)
    let latent = if window.latent_sum.len() == profile.latent_mean.len() {
        let dims = profile.latent_mean.len();
        let sum: f64 = (0..dims)
            .map(|d| {
                let observed = (window.latent_sum.get(d).copied().unwrap_or(0.0) / nf) as f32;
                let mean = profile.latent_mean.get(d).copied().unwrap_or(0.0);
                let std = profile.latent_var.get(d).copied().unwrap_or(0.0).max(0.0).sqrt();
                f64::from(adec_metrics::detect::standardized_shift(observed, mean, std, n))
            })
            .sum();
        (sum / dims.max(1) as f64) as f32
    } else {
        0.0 // shape drifted out from under us (should be unreachable)
    };

    let entropy = adec_metrics::detect::standardized_shift(
        (window.entropy_sum / nf) as f32,
        profile.entropy_mean,
        profile.entropy_std,
        n,
    );
    let confidence = adec_metrics::detect::standardized_shift(
        (window.confidence_sum / nf) as f32,
        profile.confidence_mean,
        profile.confidence_std,
        n,
    );

    // occupancy: χ² of the window histogram against the profile fractions,
    // standardized by the χ²_{k−1} moments (mean k−1, var 2(k−1)).
    let occupancy = if window.occupancy.len() == profile.occupancy.len()
        && profile.occupancy.len() >= 2
    {
        let k = profile.occupancy.len();
        let chi2: f64 = window
            .occupancy
            .iter()
            .zip(profile.occupancy.iter())
            .map(|(&c, &p)| {
                let p = f64::from(p).max(1e-3);
                let f = c as f64 / nf;
                nf * (f - p) * (f - p) / p
            })
            .sum();
        let df = (k - 1) as f64;
        (((chi2 - df) / (2.0 * df).sqrt()).clamp(0.0, 1e4)) as f32
    } else {
        0.0
    };

    // distance: one-sided excess of the above-p90 tail mass over its
    // profile share, in binomial standard errors. One-sided on purpose:
    // a *tighter* cluster fit is not a drift the ladder should punish.
    let p_tail = f64::from(1.0 - DISTANCE_QUANTILES.last().copied().unwrap_or(0.9));
    let tail_frac = window.tail_rows as f64 / nf;
    let se = (p_tail * (1.0 - p_tail) / nf).sqrt().max(1e-9);
    let distance = (((tail_frac - p_tail) / se).clamp(0.0, 1e4)) as f32;

    [latent, entropy, confidence, occupancy, distance]
}

#[cfg(test)]
// Test code: unwraps and exact float comparisons are the assertions here.
#[allow(clippy::unwrap_used, clippy::panic, clippy::float_cmp, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use adec_metrics::detect::DEFAULT_ALLOWANCE;
    use adec_tensor::SeedRng;

    /// A profile over an exactly-known reference batch.
    fn tiny_profile() -> (ReferenceProfile, Matrix, Matrix) {
        let mut rng = SeedRng::new(5);
        let mu = Matrix::randn(3, 2, 0.0, 2.0, &mut rng);
        let z = Matrix::randn(96, 2, 0.0, 1.0, &mut rng);
        let q = soft_assignment(&z, &mu, 1.0);
        (ReferenceProfile::compute(&z, &q, &mu), z, mu)
    }

    /// Batch stats for `z` exactly as the model computes them.
    fn stats_of(z: &Matrix, mu: &Matrix, profile: &ReferenceProfile) -> BatchDriftStats {
        let mut s = BatchDriftStats::new(z.cols(), mu.rows());
        s.add_rows(z, mu, 1.0, profile);
        s
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in [DriftPolicy::Observe, DriftPolicy::Degrade, DriftPolicy::Gate] {
            assert_eq!(DriftPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(DriftPolicy::parse("panic"), None);
    }

    #[test]
    fn batch_stats_merge_is_additive() {
        let mut a = BatchDriftStats::new(2, 3);
        a.rows = 4;
        a.latent_sum = vec![1.0, 2.0];
        a.entropy_sum = 0.5;
        a.occupancy = vec![2, 1, 1];
        a.tail_rows = 1;
        let b = a.clone();
        let mut empty = BatchDriftStats::default();
        empty.merge(&a);
        assert_eq!(empty.rows, 4);
        a.merge(&b);
        assert_eq!(a.rows, 8);
        assert_eq!(a.latent_sum, vec![2.0, 4.0]);
        assert_eq!(a.occupancy, vec![4, 2, 2]);
        assert_eq!(a.tail_rows, 2);
        a.merge(&BatchDriftStats::default()); // no-op
        assert_eq!(a.rows, 8);
    }

    #[test]
    fn reference_window_yields_small_signals() {
        // The window IS the profile's own batch: every signal must sit
        // far below the default allowance.
        let (profile, z, mu) = tiny_profile();
        let window = stats_of(&z, &mu, &profile);
        let signals = window_signals(&window, &profile);
        for (name, s) in SIGNALS.iter().zip(signals.iter()) {
            assert!(
                s.is_finite() && *s < DEFAULT_ALLOWANCE,
                "stationary signal {name} = {s} reaches the allowance"
            );
        }
    }

    #[test]
    fn shifted_window_spikes_the_latent_signal() {
        let (profile, z, mu) = tiny_profile();
        let mut shifted = z.clone();
        shifted.map_inplace(|v| v + 2.0);
        let window = stats_of(&shifted, &mu, &profile);
        let signals = window_signals(&window, &profile);
        assert!(
            signals[0] > DEFAULT_ALLOWANCE + DEFAULT_THRESHOLD,
            "latent signal too weak after a +2.0 global shift: {}",
            signals[0]
        );
    }

    #[test]
    fn sentinel_alarm_latches_and_resets() {
        let (profile, z, mu) = tiny_profile();
        let config = DriftConfig { window_rows: 96, ..DriftConfig::default() };
        let sentinel = DriftSentinel::new(config, Some(profile.clone()), 0);
        assert!(sentinel.enabled());
        assert!(!sentinel.alarmed());

        // Stationary windows: never alarm.
        for _ in 0..6 {
            sentinel.record(&stats_of(&z, &mu, &profile));
        }
        let snap = sentinel.snapshot();
        assert_eq!(snap.windows, 6);
        assert!(!snap.alarmed && snap.alarms == 0, "false alarm: {snap:?}");

        // Sustained shift: alarm within the CUSUM bound, and latch.
        let mut shifted = z.clone();
        shifted.map_inplace(|v| v + 2.0);
        for _ in 0..3 {
            sentinel.record(&stats_of(&shifted, &mu, &profile));
        }
        assert!(sentinel.alarmed(), "no alarm after 3 shifted windows");
        assert!(sentinel.severity() >= 1.0);
        assert_eq!(sentinel.snapshot().alarms, 1);

        // Reset (the reload hook) drops the latch and all evidence.
        sentinel.reset(Some(profile.clone()));
        assert!(!sentinel.alarmed());
        let snap = sentinel.snapshot();
        assert_eq!(snap.clears, 1);
        assert!(snap.signals.iter().all(|s| s.score == 0.0));

        // And the fresh profile keeps accepting stationary traffic.
        for _ in 0..3 {
            sentinel.record(&stats_of(&z, &mu, &profile));
        }
        assert!(!sentinel.alarmed());
    }

    #[test]
    fn ladder_contributions_follow_policy_and_severity() {
        let (profile, z, mu) = tiny_profile();
        for (policy, want_while_alarmed) in [
            (DriftPolicy::Observe, ServeMode::Full),
            (DriftPolicy::Degrade, ServeMode::CentroidOnly),
            (DriftPolicy::Gate, ServeMode::CentroidOnly),
        ] {
            let config =
                DriftConfig { policy, window_rows: 96 };
            let sentinel = DriftSentinel::new(config, Some(profile.clone()), 0);
            assert_eq!(sentinel.shed_contribution(), ServeMode::Full);
            assert!(!sentinel.gates_readiness());
            let mut shifted = z.clone();
            shifted.map_inplace(|v| v + 2.0);
            for _ in 0..4 {
                sentinel.record(&stats_of(&shifted, &mu, &profile));
            }
            assert!(sentinel.alarmed());
            // 4 saturating windows push severity past 2 for the degrading
            // policies, so the contribution bottoms out at centroid-only.
            assert_eq!(sentinel.shed_contribution(), want_while_alarmed, "{policy:?}");
            assert_eq!(sentinel.gates_readiness(), policy == DriftPolicy::Gate);
            assert_eq!(sentinel.stamps_responses(), policy != DriftPolicy::Observe);
        }
    }

    #[test]
    fn profileless_sentinel_is_inert() {
        let sentinel = DriftSentinel::new(DriftConfig::default(), None, 0);
        assert!(!sentinel.enabled());
        let mut batch = BatchDriftStats::new(2, 3);
        batch.rows = 10_000; // way past the window bar
        sentinel.record(&batch);
        let snap = sentinel.snapshot();
        assert_eq!(snap.windows, 0);
        assert!(!snap.alarmed);
        assert_eq!(snap.pending_rows, 0, "disabled sentinel must not hoard rows");
        assert_eq!(sentinel.shed_contribution(), ServeMode::Full);
        assert!(!sentinel.gates_readiness());
    }
}
