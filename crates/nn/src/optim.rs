//! Optimizers: SGD with momentum (the paper's clustering phase,
//! lr = 0.001, momentum = 0.9) and Adam (the paper's pretraining phase,
//! lr = 1e-4, β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
//!
//! Optimizer state is keyed by [`ParamId`] and grown lazily, so one
//! optimizer instance can serve any subset of a [`ParamStore`]. Gradients
//! flow from a finished [`Tape`] via its recorded parameter bindings.

use crate::store::{ParamId, ParamStore};
use crate::tape::Tape;
use adec_tensor::Matrix;

/// Common optimizer interface.
pub trait Optimizer {
    /// Applies one update using the gradients the tape accumulated for every
    /// parameter bound via [`Tape::param`].
    fn step(&mut self, tape: &Tape, store: &mut ParamStore)
    where
        Self: Sized,
    {
        self.step_filtered(tape, store, |_| true);
    }

    /// Like [`Optimizer::step`] but only updates parameters for which
    /// `keep(id)` is true — used to train one network of a multi-network
    /// graph while freezing the others (e.g. ADEC's decoder step with the
    /// encoder frozen).
    fn step_filtered(&mut self, tape: &Tape, store: &mut ParamStore, keep: impl Fn(ParamId) -> bool)
    where
        Self: Sized;

    /// Applies one update from explicitly supplied `(id, gradient)` pairs —
    /// for callers that combine gradients from multiple backward passes
    /// (e.g. ADEC's adaptively balanced encoder step).
    fn step_grads(&mut self, store: &mut ParamStore, grads: &[(ParamId, Matrix)]);

    /// Resets accumulated state (momentum buffers / moments / timestep).
    fn reset(&mut self);
}

fn ensure_slot<'a>(slots: &'a mut Vec<Option<Matrix>>, id: ParamId, like: &Matrix) -> &'a mut Matrix {
    if slots.len() <= id.index() {
        slots.resize(id.index() + 1, None);
    }
    let slot = &mut slots[id.index()];
    if !matches!(slot, Some(m) if m.shape() == like.shape()) {
        *slot = Some(Matrix::zeros(like.rows(), like.cols()));
    }
    // The closure never runs: the reset above guarantees `Some`.
    slot.get_or_insert_with(|| Matrix::zeros(like.rows(), like.cols()))
}

/// Stochastic gradient descent with classical momentum:
/// `v ← m·v + g; w ← w − lr·v`.
#[derive(Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f32,
    /// Optional max-norm gradient clipping (per parameter tensor).
    pub clip_norm: Option<f32>,
    velocity: Vec<Option<Matrix>>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            clip_norm: None,
            velocity: Vec::new(),
        }
    }

    /// Enables per-tensor gradient norm clipping.
    pub fn with_clip(mut self, max_norm: f32) -> Self {
        self.clip_norm = Some(max_norm);
        self
    }
}

/// Checkpointable SGD state: the live learning rate (which a training
/// guard may have backed off from the configured value) and the momentum
/// buffers, indexed by [`ParamId`]. Static hyperparameters (momentum,
/// clipping) are *not* captured — they are config-derived.
#[derive(Debug, Clone)]
pub struct SgdState {
    /// Learning rate at capture time.
    pub lr: f32,
    /// Per-parameter velocity buffers (slot index = `ParamId::index`).
    pub velocity: Vec<Option<Matrix>>,
}

impl Sgd {
    /// Captures the mutable state for checkpointing.
    pub fn export_state(&self) -> SgdState {
        SgdState {
            lr: self.lr,
            velocity: self.velocity.clone(),
        }
    }

    /// Restores state captured by [`Sgd::export_state`].
    pub fn import_state(&mut self, state: SgdState) {
        self.lr = state.lr;
        self.velocity = state.velocity;
    }
}

/// Checkpointable Adam state: learning rate, both moment buffers, and the
/// bias-correction timestep. As with [`SgdState`], static hyperparameters
/// (betas, epsilon, clipping) come from config and are not captured.
#[derive(Debug, Clone)]
pub struct AdamState {
    /// Learning rate at capture time.
    pub lr: f32,
    /// First-moment buffers (slot index = `ParamId::index`).
    pub m: Vec<Option<Matrix>>,
    /// Second-moment buffers (slot index = `ParamId::index`).
    pub v: Vec<Option<Matrix>>,
    /// Bias-correction timestep (number of steps taken).
    pub t: u64,
}

impl Adam {
    /// Captures the mutable state for checkpointing.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            lr: self.lr,
            m: self.m.clone(),
            v: self.v.clone(),
            t: self.t,
        }
    }

    /// Restores state captured by [`Adam::export_state`].
    pub fn import_state(&mut self, state: AdamState) {
        self.lr = state.lr;
        self.m = state.m;
        self.v = state.v;
        self.t = state.t;
    }
}

fn clipped(grad: Matrix, clip: Option<f32>) -> Matrix {
    match clip {
        Some(max) => {
            let n = grad.norm();
            if n > max {
                grad.scale(max / n)
            } else {
                grad
            }
        }
        None => grad,
    }
}

impl Sgd {
    fn apply(&mut self, store: &mut ParamStore, id: ParamId, raw_grad: Matrix) {
        let grad = clipped(raw_grad, self.clip_norm);
        if !grad.all_finite() {
            // A non-finite gradient would poison the weights; skip the
            // update and let the caller's loss monitoring surface it.
            return;
        }
        let v = ensure_slot(&mut self.velocity, id, &grad);
        for (vi, &gi) in v.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *vi = self.momentum * *vi + gi;
        }
        store.get_mut(id).axpy(-self.lr, v);
        adec_tensor::debug_assert_finite!(store.get(id), "sgd-updated parameter");
    }
}

impl Optimizer for Sgd {
    fn step_filtered(&mut self, tape: &Tape, store: &mut ParamStore, keep: impl Fn(ParamId) -> bool) {
        for &(id, var) in tape.bindings() {
            if keep(id) {
                self.apply(store, id, tape.grad(var));
            }
        }
    }

    fn step_grads(&mut self, store: &mut ParamStore, grads: &[(ParamId, Matrix)]) {
        for (id, grad) in grads {
            self.apply(store, *id, grad.clone());
        }
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }
}

/// Adam optimizer (Kingma & Ba, 2014) with bias correction.
#[derive(Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    /// Optional max-norm gradient clipping (per parameter tensor).
    pub clip_norm: Option<f32>,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
    t: u64,
}

impl Adam {
    /// Creates Adam with the paper's pretraining hyperparameters except the
    /// learning rate, which is supplied by the caller.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: None,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Enables per-tensor gradient norm clipping.
    pub fn with_clip(mut self, max_norm: f32) -> Self {
        self.clip_norm = Some(max_norm);
        self
    }
}

impl Adam {
    fn apply(&mut self, store: &mut ParamStore, id: ParamId, raw_grad: Matrix, bc1: f32, bc2: f32) {
        let grad = clipped(raw_grad, self.clip_norm);
        if !grad.all_finite() {
            return;
        }
        let m = ensure_slot(&mut self.m, id, &grad);
        for (mi, &gi) in m.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
        }
        let m_hat = m.scale(1.0 / bc1);
        let v = ensure_slot(&mut self.v, id, &grad);
        for (vi, &gi) in v.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
        }
        let v_hat = v.scale(1.0 / bc2);
        let update = m_hat.zip_with(&v_hat, |mh, vh| mh / (vh.sqrt() + self.eps));
        store.get_mut(id).axpy(-self.lr, &update);
        adec_tensor::debug_assert_finite!(store.get(id), "adam-updated parameter");
    }

    fn bias_corrections(&mut self) -> (f32, f32) {
        self.t += 1;
        // Step counts stay far below i32::MAX over any realistic training
        // run, and the correction saturates to 1.0 long before that anyway.
        #[allow(clippy::cast_possible_truncation)]
        let t = self.t as i32;
        (1.0 - self.beta1.powi(t), 1.0 - self.beta2.powi(t))
    }
}

impl Optimizer for Adam {
    fn step_filtered(&mut self, tape: &Tape, store: &mut ParamStore, keep: impl Fn(ParamId) -> bool) {
        let (bc1, bc2) = self.bias_corrections();
        for &(id, var) in tape.bindings() {
            if keep(id) {
                self.apply(store, id, tape.grad(var), bc1, bc2);
            }
        }
    }

    fn step_grads(&mut self, store: &mut ParamStore, grads: &[(ParamId, Matrix)]) {
        let (bc1, bc2) = self.bias_corrections();
        for (id, grad) in grads {
            self.apply(store, *id, grad.clone(), bc1, bc2);
        }
    }

    fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimizes f(w) = ‖w − target‖² with each optimizer and checks
    /// convergence to the target.
    fn converges(opt: &mut dyn DynOpt) -> f32 {
        let mut store = ParamStore::new();
        let target = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
        let w = store.register("w", Matrix::zeros(1, 3));
        for _ in 0..400 {
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let t = tape.leaf(target.clone());
            let loss = tape.mse(wv, t);
            tape.backward(loss);
            opt.dyn_step(&tape, &mut store);
        }
        store.get(w).sub(&target).max_abs()
    }

    // Object-safe shim for the test.
    trait DynOpt {
        fn dyn_step(&mut self, tape: &Tape, store: &mut ParamStore);
    }
    impl DynOpt for Sgd {
        fn dyn_step(&mut self, tape: &Tape, store: &mut ParamStore) {
            self.step(tape, store);
        }
    }
    impl DynOpt for Adam {
        fn dyn_step(&mut self, tape: &Tape, store: &mut ParamStore) {
            self.step(tape, store);
        }
    }

    #[test]
    fn sgd_converges() {
        let mut opt = Sgd::new(0.2, 0.0);
        assert!(converges(&mut opt) < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::new(0.05, 0.9);
        assert!(converges(&mut opt) < 1e-3);
    }

    #[test]
    fn adam_converges() {
        let mut opt = Adam::new(0.05);
        assert!(converges(&mut opt) < 1e-2);
    }

    #[test]
    fn filtered_step_freezes_params() {
        let mut store = ParamStore::new();
        let a = store.register("a", Matrix::full(1, 1, 1.0));
        let b = store.register("b", Matrix::full(1, 1, 1.0));
        let mut opt = Sgd::new(0.1, 0.0);
        let mut tape = Tape::new();
        let av = tape.param(&store, a);
        let bv = tape.param(&store, b);
        let sum = tape.add(av, bv);
        let sq = tape.square(sum);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        opt.step_filtered(&tape, &mut store, |id| id == a);
        assert!(store.get(a).get(0, 0) < 1.0, "a should move");
        assert_eq!(store.get(b).get(0, 0), 1.0, "b must stay frozen");
    }

    #[test]
    fn clipping_bounds_update() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 1));
        let mut opt = Sgd::new(1.0, 0.0).with_clip(0.5);
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        // loss = 100·w → raw gradient 100, clipped to 0.5.
        let scaled = tape.scale(wv, 100.0);
        let loss = tape.sum_all(scaled);
        tape.backward(loss);
        opt.step(&tape, &mut store);
        assert!((store.get(w).get(0, 0) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn non_finite_gradients_are_skipped() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 1, 2.0));
        let mut opt = Adam::new(0.1);
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        // Build a NaN gradient by scaling with infinity.
        let s = tape.scale(wv, f32::INFINITY);
        let loss = tape.sum_all(s);
        tape.backward(loss);
        opt.step(&tape, &mut store);
        assert_eq!(store.get(w).get(0, 0), 2.0, "weights must be untouched");
    }

    #[test]
    fn adam_state_round_trip_continues_bitwise() {
        // Train two optimizers in lockstep; mid-run, export one's state
        // into a fresh instance. Both must produce identical weights for
        // the rest of the run — moments and timestep included.
        let run = |restore_at: Option<usize>| -> Matrix {
            let mut store = ParamStore::new();
            let target = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
            let w = store.register("w", Matrix::zeros(1, 3));
            let mut opt = Adam::new(0.05);
            for step in 0..60 {
                if restore_at == Some(step) {
                    let mut fresh = Adam::new(0.05);
                    fresh.import_state(opt.export_state());
                    opt = fresh;
                }
                let mut tape = Tape::new();
                let wv = tape.param(&store, w);
                let t = tape.leaf(target.clone());
                let loss = tape.mse(wv, t);
                tape.backward(loss);
                opt.step(&tape, &mut store);
            }
            store.get(w).clone()
        };
        assert_eq!(run(None), run(Some(30)));
    }

    #[test]
    fn sgd_state_round_trip_continues_bitwise() {
        let run = |restore_at: Option<usize>| -> Matrix {
            let mut store = ParamStore::new();
            let target = Matrix::from_vec(1, 2, vec![0.75, -1.5]);
            let w = store.register("w", Matrix::zeros(1, 2));
            let mut opt = Sgd::new(0.05, 0.9);
            for step in 0..40 {
                if restore_at == Some(step) {
                    let mut fresh = Sgd::new(0.05, 0.9);
                    fresh.import_state(opt.export_state());
                    opt = fresh;
                }
                let mut tape = Tape::new();
                let wv = tape.param(&store, w);
                let t = tape.leaf(target.clone());
                let loss = tape.mse(wv, t);
                tape.backward(loss);
                opt.step(&tape, &mut store);
            }
            store.get(w).clone()
        };
        assert_eq!(run(None), run(Some(17)));
    }

    #[test]
    fn state_captures_backed_off_lr() {
        let mut opt = Sgd::new(0.1, 0.9);
        opt.lr *= 0.5;
        assert_eq!(opt.export_state().lr, 0.05);
    }

    #[test]
    fn reset_clears_state() {
        let mut opt = Sgd::new(0.1, 0.9);
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 1, 1.0));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let loss = tape.sum_all(wv);
        tape.backward(loss);
        opt.step(&tape, &mut store);
        opt.reset();
        assert!(opt.velocity.is_empty());
    }
}
