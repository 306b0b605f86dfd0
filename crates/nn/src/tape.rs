//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a computation graph over [`Matrix`] values. Each
//! operation appends a node holding its forward value and enough cached
//! state for the backward pass. [`Tape::backward`] seeds the loss gradient
//! with 1 and walks the tape in reverse, accumulating gradients into every
//! node that (transitively) requires them.
//!
//! The op set is exactly what the ADEC pipeline needs — dense layers,
//! the [`FusedAct`] activations, the reductions behind MSE/BCE, row-wise
//! interpolation for ACAI, and the DEC KL objective as a composite node
//! whose backward implements the analytic gradients of the paper's
//! Theorems 2 and 3 (verified against finite differences in the tests).

use crate::store::{ParamId, ParamStore};
use adec_tensor::kernels::{self, stable_sigmoid, FusedAct};
use adec_tensor::Matrix;
use std::time::Instant;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The node id this handle refers to — the index of the node in the
    /// tape's arena and in an exported [`TapeIr`]. Analysis passes use it
    /// to name the loss node when handing an IR to `adec-analysis`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The operation that produced a node, with cached backward state.
enum Op {
    /// Constant or parameter leaf.
    Leaf,
    /// `a · b`.
    MatMul(Var, Var),
    /// Fused `act(x + bias)` as a single node — the kernel-layer path for
    /// dense layers (`adec_tensor::kernels::add_bias_act`).
    AddBiasAct(Var, Var, FusedAct),
    /// `a + b` (same shape).
    Add(Var, Var),
    /// `a − b` (same shape).
    Sub(Var, Var),
    /// Hadamard `a ∘ b` (same shape).
    Mul(Var, Var),
    /// `c · a` for a compile-time constant scalar.
    Scale(Var, f32),
    /// `act(a)` elementwise, without a bias.
    Act(Var, FusedAct),
    /// Numerically-stable softplus `ln(1 + eˣ)`.
    Softplus(Var),
    /// Elementwise exponential.
    Exp(Var),
    /// Elementwise square.
    Square(Var),
    /// Mean over all elements, producing a `1 × 1` scalar node.
    MeanAll(Var),
    /// Sum over all elements, producing a `1 × 1` scalar node.
    SumAll(Var),
    /// Per-row sums, producing an `n × 1` column node.
    RowSum(Var),
    /// Each row `i` of `x` scaled by constant weight `w[i]`.
    RowScale(Var, Vec<f32>),
    /// Binary cross-entropy with logits against a constant target,
    /// averaged over all elements.
    BceWithLogits {
        logits: Var,
        targets: Matrix,
        inv_n: f32,
    },
    /// Row-wise softmax cross-entropy against a constant (row-stochastic)
    /// target, averaged over rows. Caches the softmax for backward.
    SoftmaxCe {
        logits: Var,
        targets: Matrix,
        softmax: Matrix,
    },
    /// DEC clustering objective `KL(P ‖ Q)` (sum over the batch) as a
    /// composite node. Backward implements Theorems 2–3 of the paper.
    DecKl {
        z: Var,
        mu: Var,
        /// Target distribution rows aligned with the batch (constant).
        p: Matrix,
        /// Student-t degrees of freedom (paper uses α = 1).
        alpha: f32,
        /// Cached soft assignment from the forward pass.
        q: Matrix,
    },
}

/// Op name of a bare activation: the activation's own name.
fn act_name(act: FusedAct) -> &'static str {
    match act {
        FusedAct::Identity => "identity",
        FusedAct::Relu => "relu",
        FusedAct::Sigmoid => "sigmoid",
        FusedAct::Tanh => "tanh",
    }
}

/// Stable op name matching [`IrOp::name`], so runtime profiles line up
/// with phase-manifest op sets.
fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Leaf => "leaf",
        Op::MatMul(..) => "matmul",
        Op::AddBiasAct(..) => "add_bias_act",
        Op::Add(..) => "add",
        Op::Sub(..) => "sub",
        Op::Mul(..) => "mul",
        Op::Scale(..) => "scale",
        Op::Act(_, act) => act_name(*act),
        Op::Softplus(..) => "softplus",
        Op::Exp(..) => "exp",
        Op::Square(..) => "square",
        Op::MeanAll(..) => "mean_all",
        Op::SumAll(..) => "sum_all",
        Op::RowSum(..) => "row_sum",
        Op::RowScale(..) => "row_scale",
        Op::BceWithLogits { .. } => "bce_with_logits",
        Op::SoftmaxCe { .. } => "softmax_ce",
        Op::DecKl { .. } => "dec_kl",
    }
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    needs_grad: bool,
}

/// A single-use reverse-mode autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    bindings: Vec<(ParamId, Var)>,
    /// Profiler watermark: the instant the previous node was pushed.
    /// Time between two pushes is attributed to the later op, since an
    /// eager method computes its value immediately before pushing.
    prof_mark: Option<Instant>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(64),
            bindings: Vec::new(),
            prof_mark: None,
        }
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> Var {
        if crate::profiler::enabled() {
            let now = Instant::now();
            let dur = self
                .prof_mark
                .map(|m| crate::profiler::ns(now.duration_since(m)))
                .unwrap_or(0);
            crate::profiler::record_op(op_name(&op), dur, self.op_flops(&op, &value));
        }
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        if crate::profiler::enabled() {
            self.prof_mark = Some(Instant::now());
        }
        Var(self.nodes.len() - 1)
    }

    /// Nominal forward FLOPs of `op` producing `out` (see the profiler
    /// docs: 2·m·k·n for matmul, 1/element for arithmetic, 8/element
    /// for transcendentals — a ranking model, not a hardware counter).
    fn op_flops(&self, op: &Op, out: &Matrix) -> u64 {
        let len = |v: &Var| self.nodes[v.0].value.len() as u64;
        match op {
            Op::Leaf => 0,
            Op::MatMul(a, b) => {
                let (m, k) = self.nodes[a.0].value.shape();
                let n = self.nodes[b.0].value.cols();
                2 * m as u64 * k as u64 * n as u64
            }
            Op::Add(..) | Op::Sub(..) | Op::Mul(..) | Op::Scale(..) | Op::Square(_) => {
                out.len() as u64
            }
            Op::AddBiasAct(_, _, act) => act.flops_per_element() * out.len() as u64,
            // The fused op's count without its bias add.
            Op::Act(_, act) => (act.flops_per_element() - 1) * out.len() as u64,
            Op::Softplus(_) | Op::Exp(_) => 8 * out.len() as u64,
            Op::MeanAll(a) | Op::SumAll(a) | Op::RowSum(a) => len(a),
            Op::RowScale(a, _) => len(a),
            Op::BceWithLogits { logits, .. } => 10 * len(logits),
            Op::SoftmaxCe { softmax, .. } => 10 * softmax.len() as u64,
            Op::DecKl { z, mu, .. } => {
                let (n, d) = self.nodes[z.0].value.shape();
                let k = self.nodes[mu.0].value.rows();
                4 * n as u64 * k as u64 * d as u64
            }
        }
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Adds a constant leaf (no gradient is propagated into it).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Adds a leaf that *does* accumulate a gradient without being bound to
    /// a store parameter (gradient checks inspect it with [`Tape::grad`]).
    pub fn grad_leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Binds a store parameter into the tape as a gradient-tracking leaf and
    /// records the binding so optimizers can route gradients back.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let v = self.push(store.get(id).clone(), Op::Leaf, true);
        self.bindings.push((id, v));
        v
    }

    /// The `(ParamId, Var)` bindings recorded by [`Tape::param`].
    pub fn bindings(&self) -> &[(ParamId, Var)] {
        &self.bindings
    }

    /// The gradient [`Tape::backward`] accumulated into the first binding
    /// of the store parameter `id`.
    ///
    /// # Panics
    /// Panics if `id` was never bound on this tape.
    pub fn param_grad(&self, id: ParamId) -> Matrix {
        let var = self.bindings.iter().find(|(bid, _)| *bid == id).map(|&(_, v)| v);
        // Callers ask for parameters their own graph bound.
        #[allow(clippy::expect_used)]
        self.grad(var.expect("param_grad: parameter not bound on this tape"))
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The gradient accumulated into a node by [`Tape::backward`]
    /// (zeros if the node never received one).
    pub fn grad(&self, v: Var) -> Matrix {
        match &self.nodes[v.0].grad {
            Some(g) => g.clone(),
            None => Matrix::zeros(self.nodes[v.0].value.rows(), self.nodes[v.0].value.cols()),
        }
    }

    /// The scalar value of a `1 × 1` node (e.g. a loss).
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar: node is not 1x1");
        m.get(0, 0)
    }

    // ------------------------------------------------------------------
    // Forward ops
    // ------------------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(value, Op::MatMul(a, b), ng)
    }

    /// Fused `act(x + bias)` (bias a `1 × cols` row) computed by the
    /// tensor kernel layer in one pass. Backward runs
    /// `g ⊙ act′(output)` into `x` and its column sums into `bias` —
    /// value-identical to a bias add followed by [`Tape::act`].
    pub fn add_bias_act(&mut self, x: Var, bias: Var, act: FusedAct) -> Var {
        assert_eq!(self.value(bias).rows(), 1, "add_bias_act: bias must be 1 x cols");
        let value = kernels::add_bias_act(self.value(x), self.value(bias).row(0), act);
        let ng = self.needs(x) || self.needs(bias);
        self.push(value, Op::AddBiasAct(x, bias, act), ng)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(value, Op::Add(a, b), ng)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(value, Op::Sub(a, b), ng)
    }

    /// Hadamard product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(value, Op::Mul(a, b), ng)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).scale(c);
        let ng = self.needs(a);
        self.push(value, Op::Scale(a, c), ng)
    }

    /// `act(a)` elementwise: [`FusedAct::eval`] forward, `g ⊙ act′(output)`
    /// backward, the same definitions as [`Tape::add_bias_act`].
    pub fn act(&mut self, a: Var, act: FusedAct) -> Var {
        let value = self.value(a).map(|v| act.eval(v));
        let ng = self.needs(a);
        self.push(value, Op::Act(a, act), ng)
    }

    /// Softplus `ln(1 + eˣ)` (numerically stable).
    pub fn softplus(&mut self, a: Var) -> Var {
        let value = self.value(a).map(stable_softplus);
        let ng = self.needs(a);
        self.push(value, Op::Softplus(a), ng)
    }

    /// Elementwise exponential (inputs clamped to ≤ 30 to avoid overflow).
    pub fn exp(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|v| v.min(30.0).exp());
        let ng = self.needs(a);
        self.push(value, Op::Exp(a), ng)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|v| v * v);
        let ng = self.needs(a);
        self.push(value, Op::Square(a), ng)
    }

    /// Mean over all elements (`1 × 1` output).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).mean()]);
        let ng = self.needs(a);
        self.push(value, Op::MeanAll(a), ng)
    }

    /// Sum over all elements (`1 × 1` output).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        let ng = self.needs(a);
        self.push(value, Op::SumAll(a), ng)
    }

    /// Per-row sums (`n × 1` output) — e.g. row-wise squared distances for
    /// triplet losses.
    pub fn row_sum(&mut self, a: Var) -> Var {
        let sums = self.value(a).row_sums();
        let n = sums.len();
        let value = Matrix::from_vec(n, 1, sums);
        let ng = self.needs(a);
        self.push(value, Op::RowSum(a), ng)
    }

    /// Scales row `i` of `x` by the constant `weights[i]` — the building
    /// block of ACAI's latent interpolation `α z₁ + (1−α) z₂` with a
    /// per-sample α.
    pub fn row_scale(&mut self, x: Var, weights: &[f32]) -> Var {
        assert_eq!(
            self.value(x).rows(),
            weights.len(),
            "row_scale: weight length mismatch"
        );
        let xv = self.value(x);
        let mut value = xv.clone();
        for (r, &w) in weights.iter().enumerate() {
            for v in value.row_mut(r) {
                *v *= w;
            }
        }
        let ng = self.needs(x);
        self.push(value, Op::RowScale(x, weights.to_vec()), ng)
    }

    // ------------------------------------------------------------------
    // Composite losses
    // ------------------------------------------------------------------

    /// Mean-squared-error `mean((a − b)²)` as a scalar node.
    pub fn mse(&mut self, a: Var, b: Var) -> Var {
        let d = self.sub(a, b);
        let s = self.square(d);
        self.mean_all(s)
    }

    /// Binary cross-entropy with logits against a constant target matrix in
    /// `[0, 1]`, averaged over all elements.
    ///
    /// Uses the stable form `max(x,0) − x·t + ln(1 + e^{−|x|})`.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &Matrix) -> Var {
        let x = self.value(logits);
        assert_eq!(x.shape(), targets.shape(), "bce_with_logits: shape mismatch");
        let value = Matrix::from_vec(
            1,
            1,
            vec![x
                .as_slice()
                .iter()
                .zip(targets.as_slice().iter())
                .map(|(&xi, &ti)| xi.max(0.0) - xi * ti + (1.0 + (-xi.abs()).exp()).ln())
                .sum::<f32>()
                / x.len() as f32],
        );
        let inv_n = 1.0 / x.len() as f32;
        let grad_needed = self.needs(logits);
        self.push(
            value,
            Op::BceWithLogits {
                logits,
                targets: targets.clone(),
                inv_n,
            },
            grad_needed,
        )
    }

    /// Row-wise softmax cross-entropy `−(1/n) Σᵢ Σⱼ tᵢⱼ log softmax(x)ᵢⱼ`
    /// against a constant target distribution (each row of `targets`
    /// should sum to 1; one-hot rows give classification CE).
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: &Matrix) -> Var {
        let x = self.value(logits);
        assert_eq!(x.shape(), targets.shape(), "softmax_cross_entropy: shape mismatch");
        adec_tensor::debug_assert_finite!(x, "softmax_cross_entropy logits");
        let (n, k) = x.shape();
        // The fused kernel computes the row max / log-denominator in the
        // same operation order this loop used to, so the cached softmax
        // and the loss are bit-identical to the pre-kernel-layer path.
        let sm = kernels::softmax_rows_detailed(x);
        let mut loss = 0.0f64;
        for i in 0..n {
            for j in 0..k {
                let t = targets.get(i, j);
                if t > 0.0 {
                    let log_p = x.get(i, j) - sm.row_max[i] - sm.log_denom[i];
                    loss -= (t as f64) * log_p as f64;
                }
            }
        }
        let softmax = sm.probs;
        // The f64 loss accumulator rounds to the tape's f32 value on purpose.
        #[allow(clippy::cast_possible_truncation)]
        let value = Matrix::from_vec(1, 1, vec![(loss / n as f64) as f32]);
        let ng = self.needs(logits);
        self.push(
            value,
            Op::SoftmaxCe {
                logits,
                targets: targets.clone(),
                softmax,
            },
            ng,
        )
    }

    /// The DEC clustering loss `KL(P ‖ Q)` summed over the batch.
    ///
    /// `z` is the `n × d` batch embedding, `mu` the `k × d` centroid matrix,
    /// `p` the (constant) target-distribution rows for this batch, and
    /// `alpha` the Student-t degrees of freedom (paper: α = 1).
    ///
    /// Backward implements the analytic gradients of Theorems 2 and 3:
    /// `∂L/∂zᵢ = ((α+1)/α) Σⱼ (1 + ‖zᵢ−μⱼ‖²/α)⁻¹ (pᵢⱼ − qᵢⱼ)(zᵢ − μⱼ)` and
    /// the negated, i-summed counterpart for `μⱼ`.
    pub fn dec_kl(&mut self, z: Var, mu: Var, p: &Matrix, alpha: f32) -> Var {
        let q = crate::loss::soft_assignment(self.value(z), self.value(mu), alpha);
        assert_eq!(q.shape(), p.shape(), "dec_kl: P/Q shape mismatch");
        adec_tensor::debug_assert_finite!(p, "dec_kl target distribution");
        let mut loss = 0.0f64;
        for i in 0..q.rows() {
            for j in 0..q.cols() {
                let pij = p.get(i, j);
                if pij > 0.0 {
                    loss += (pij as f64) * ((pij / q.get(i, j).max(1e-12)) as f64).ln();
                }
            }
        }
        // The f64 loss accumulator rounds to the tape's f32 value on purpose.
        #[allow(clippy::cast_possible_truncation)]
        let value = Matrix::from_vec(1, 1, vec![loss as f32]);
        let ng = self.needs(z) || self.needs(mu);
        self.push(
            value,
            Op::DecKl {
                z,
                mu,
                p: p.clone(),
                alpha,
                q,
            },
            ng,
        )
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Adds `delta` into `v`'s gradient, moving it into an empty slot.
    fn accumulate(&mut self, v: Var, delta: Matrix) {
        if !self.nodes[v.0].needs_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            Some(g) => g.axpy(1.0, &delta),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Runs the backward pass from the scalar node `loss`, accumulating
    /// gradients into every reachable gradient-tracking node.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 × 1`.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward: loss must be a scalar node"
        );
        self.nodes[loss.0].grad = Some(Matrix::from_vec(1, 1, vec![1.0]));
        for idx in (0..=loss.0).rev() {
            if !self.nodes[idx].needs_grad {
                continue;
            }
            let Some(g) = self.nodes[idx].grad.clone() else {
                continue;
            };
            // Take the op out temporarily to appease the borrow checker.
            let op = std::mem::replace(&mut self.nodes[idx].op, Op::Leaf);
            let prof_start = crate::profiler::enabled().then(Instant::now);
            match &op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    if self.needs(*a) {
                        let da = g.matmul_nt(self.value(*b));
                        self.accumulate(*a, da);
                    }
                    if self.needs(*b) {
                        let db = self.value(*a).matmul_tn(&g);
                        self.accumulate(*b, db);
                    }
                }
                Op::AddBiasAct(x, bias, act) => {
                    let (dx, dbias) =
                        kernels::add_bias_act_backward(&g, &self.nodes[idx].value, *act);
                    let db = Matrix::from_vec(1, dx.cols(), dbias);
                    self.accumulate(*x, dx);
                    self.accumulate(*bias, db);
                }
                Op::Add(a, b) => {
                    if self.needs(*a) {
                        self.accumulate(*a, g.clone());
                    }
                    self.accumulate(*b, g);
                }
                Op::Sub(a, b) => {
                    let neg = self.needs(*b).then(|| g.scale(-1.0));
                    self.accumulate(*a, g);
                    if let Some(neg) = neg {
                        self.accumulate(*b, neg);
                    }
                }
                Op::Mul(a, b) => {
                    if self.needs(*a) {
                        let da = g.mul(self.value(*b));
                        self.accumulate(*a, da);
                    }
                    if self.needs(*b) {
                        let db = g.mul(self.value(*a));
                        self.accumulate(*b, db);
                    }
                }
                Op::Scale(a, c) => {
                    if self.needs(*a) {
                        let da = g.scale(*c);
                        self.accumulate(*a, da);
                    }
                }
                Op::Act(a, act) => {
                    if self.needs(*a) {
                        let y = &self.nodes[idx].value;
                        let da = g.zip_with(y, |gi, yi| gi * act.grad_from_output(yi));
                        self.accumulate(*a, da);
                    }
                }
                Op::Softplus(a) => {
                    if self.needs(*a) {
                        let da = g.zip_with(self.value(*a), |gi, xi| gi * stable_sigmoid(xi));
                        self.accumulate(*a, da);
                    }
                }
                Op::Exp(a) => {
                    if self.needs(*a) {
                        // The cached output *is* the derivative.
                        let out = &self.nodes[idx].value;
                        let da = g.mul(out);
                        self.accumulate(*a, da);
                    }
                }
                Op::Square(a) => {
                    if self.needs(*a) {
                        let da = g.zip_with(self.value(*a), |gi, xi| 2.0 * gi * xi);
                        self.accumulate(*a, da);
                    }
                }
                Op::MeanAll(a) => {
                    if self.needs(*a) {
                        let xv = self.value(*a);
                        let gv = g.get(0, 0) / xv.len() as f32;
                        let da = Matrix::full(xv.rows(), xv.cols(), gv);
                        self.accumulate(*a, da);
                    }
                }
                Op::SumAll(a) => {
                    if self.needs(*a) {
                        let xv = self.value(*a);
                        let da = Matrix::full(xv.rows(), xv.cols(), g.get(0, 0));
                        self.accumulate(*a, da);
                    }
                }
                Op::RowSum(a) => {
                    if self.needs(*a) {
                        let xv = self.value(*a);
                        let da = Matrix::from_fn(xv.rows(), xv.cols(), |r, _| g.get(r, 0));
                        self.accumulate(*a, da);
                    }
                }
                Op::RowScale(a, weights) => {
                    if self.needs(*a) {
                        let mut da = g;
                        for (r, &w) in weights.iter().enumerate() {
                            for v in da.row_mut(r) {
                                *v *= w;
                            }
                        }
                        self.accumulate(*a, da);
                    }
                }
                Op::BceWithLogits {
                    logits,
                    targets,
                    inv_n,
                } => {
                    if self.needs(*logits) {
                        let gv = g.get(0, 0) * inv_n;
                        let da = self
                            .value(*logits)
                            .zip_with(targets, |xi, ti| gv * (stable_sigmoid(xi) - ti));
                        self.accumulate(*logits, da);
                    }
                }
                Op::SoftmaxCe {
                    logits,
                    targets,
                    softmax,
                } => {
                    if self.needs(*logits) {
                        let gv = g.get(0, 0) / softmax.rows() as f32;
                        let da = softmax.zip_with(targets, |s, t| gv * (s - t));
                        self.accumulate(*logits, da);
                    }
                }
                Op::DecKl { z, mu, p, alpha, q } => {
                    let (dz, dmu) =
                        dec_kl_backward(self.value(*z), self.value(*mu), p, q, *alpha, g.get(0, 0));
                    self.accumulate(*z, dz);
                    self.accumulate(*mu, dmu);
                }
            }
            if let Some(t0) = prof_start {
                // Backward of an op is roughly two forward-shaped passes
                // (one gradient per input); merge into the same op row.
                let flops = 2 * self.op_flops(&op, &self.nodes[idx].value);
                let wall = crate::profiler::ns(t0.elapsed());
                crate::profiler::record_op(op_name(&op), wall, flops);
            }
            self.nodes[idx].op = op;
        }
    }
}

// ----------------------------------------------------------------------
// IR export for the static-analysis layer
// ----------------------------------------------------------------------

/// Structural operation of one exported tape node.
///
/// This mirrors the private `Op` enum one-to-one but carries only what an
/// analyzer needs: input node ids, constant shapes, and finiteness flags
/// for cached constants — never the tensor payloads. Inputs are plain node
/// indices, so analysis fixtures can hand-construct defective graphs (a
/// shape-mismatched fused op, say) that the live tape's constructor
/// asserts would refuse to build.
#[derive(Debug, Clone, PartialEq)]
pub enum IrOp {
    /// Constant, gradient leaf, or bound parameter.
    Leaf,
    /// `a · b`.
    MatMul {
        /// Left operand node.
        a: usize,
        /// Right operand node.
        b: usize,
    },
    /// Fused `act(x + bias)`.
    AddBiasAct {
        /// Input node.
        x: usize,
        /// Bias row node.
        bias: usize,
        /// Fused activation.
        act: FusedAct,
    },
    /// `a + b`.
    Add {
        /// Left operand node.
        a: usize,
        /// Right operand node.
        b: usize,
    },
    /// `a − b`.
    Sub {
        /// Left operand node.
        a: usize,
        /// Right operand node.
        b: usize,
    },
    /// Hadamard `a ∘ b`.
    Mul {
        /// Left operand node.
        a: usize,
        /// Right operand node.
        b: usize,
    },
    /// `c · a`.
    Scale {
        /// Input node.
        a: usize,
        /// Scalar constant.
        c: f32,
    },
    /// `act(a)` elementwise.
    Act {
        /// Input node.
        a: usize,
        /// Activation.
        act: FusedAct,
    },
    /// Softplus.
    Softplus {
        /// Input node.
        a: usize,
    },
    /// Clamped elementwise exponential.
    Exp {
        /// Input node.
        a: usize,
    },
    /// Elementwise square.
    Square {
        /// Input node.
        a: usize,
    },
    /// Mean over all elements.
    MeanAll {
        /// Input node.
        a: usize,
    },
    /// Sum over all elements.
    SumAll {
        /// Input node.
        a: usize,
    },
    /// Per-row sums.
    RowSum {
        /// Input node.
        a: usize,
    },
    /// Row `i` scaled by constant weight `w[i]`.
    RowScale {
        /// Input node.
        a: usize,
        /// Number of row weights (must equal the input's row count).
        weights_len: usize,
        /// Whether every weight is finite.
        weights_finite: bool,
    },
    /// Stable BCE-with-logits against a constant target.
    BceWithLogits {
        /// Logits node.
        logits: usize,
        /// Target matrix rows.
        target_rows: usize,
        /// Target matrix columns.
        target_cols: usize,
        /// Whether every target entry is finite.
        targets_finite: bool,
    },
    /// Row-wise softmax cross-entropy against a constant target.
    SoftmaxCe {
        /// Logits node.
        logits: usize,
        /// Target matrix rows.
        target_rows: usize,
        /// Target matrix columns.
        target_cols: usize,
        /// Whether every target entry is finite.
        targets_finite: bool,
    },
    /// DEC `KL(P ‖ Q)` composite.
    DecKl {
        /// Embedding node (`n × d`).
        z: usize,
        /// Centroid node (`k × d`).
        mu: usize,
        /// Target-distribution rows.
        p_rows: usize,
        /// Target-distribution columns.
        p_cols: usize,
        /// Whether every target-distribution entry is finite.
        p_finite: bool,
    },
}

impl IrOp {
    /// Stable op name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            IrOp::Leaf => "leaf",
            IrOp::MatMul { .. } => "matmul",
            IrOp::AddBiasAct { .. } => "add_bias_act",
            IrOp::Add { .. } => "add",
            IrOp::Sub { .. } => "sub",
            IrOp::Mul { .. } => "mul",
            IrOp::Scale { .. } => "scale",
            IrOp::Act { act, .. } => act_name(*act),
            IrOp::Softplus { .. } => "softplus",
            IrOp::Exp { .. } => "exp",
            IrOp::Square { .. } => "square",
            IrOp::MeanAll { .. } => "mean_all",
            IrOp::SumAll { .. } => "sum_all",
            IrOp::RowSum { .. } => "row_sum",
            IrOp::RowScale { .. } => "row_scale",
            IrOp::BceWithLogits { .. } => "bce_with_logits",
            IrOp::SoftmaxCe { .. } => "softmax_ce",
            IrOp::DecKl { .. } => "dec_kl",
        }
    }

    /// Input node ids, in operand order.
    pub fn inputs(&self) -> Vec<usize> {
        match *self {
            IrOp::Leaf => Vec::new(),
            IrOp::MatMul { a, b }
            | IrOp::Add { a, b }
            | IrOp::Sub { a, b }
            | IrOp::Mul { a, b } => vec![a, b],
            IrOp::AddBiasAct { x, bias, .. } => vec![x, bias],
            IrOp::Scale { a, .. }
            | IrOp::Act { a, .. }
            | IrOp::Softplus { a }
            | IrOp::Exp { a }
            | IrOp::Square { a }
            | IrOp::MeanAll { a }
            | IrOp::SumAll { a }
            | IrOp::RowSum { a }
            | IrOp::RowScale { a, .. } => vec![a],
            IrOp::BceWithLogits { logits, .. } | IrOp::SoftmaxCe { logits, .. } => vec![logits],
            IrOp::DecKl { z, mu, .. } => vec![z, mu],
        }
    }
}

/// Parameter binding of an exported leaf: the store index plus the
/// human-readable name, so diagnostics can say *which* parameter is
/// miswired without the analyzer depending on a live [`ParamStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrParam {
    /// `ParamId::index()` of the bound parameter.
    pub index: usize,
    /// Store-registered parameter name.
    pub name: String,
}

/// One node of an exported tape graph.
#[derive(Debug, Clone, PartialEq)]
pub struct TapeIrNode {
    /// Node id — its position on the tape (inputs always have smaller ids).
    pub id: usize,
    /// Structural operation.
    pub op: IrOp,
    /// Recorded output rows.
    pub rows: usize,
    /// Recorded output columns.
    pub cols: usize,
    /// Whether the backward pass propagates a gradient into this node.
    pub needs_grad: bool,
    /// Whether every recorded output entry was finite at export time.
    pub value_finite: bool,
    /// Parameter binding, when this leaf was created by [`Tape::param`].
    pub param: Option<IrParam>,
}

/// An exported tape graph: the analyzable IR consumed by
/// `adec-analysis`'s dataflow passes (shape propagation, gradient
/// connectivity, dead-node detection, NaN lattice).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TapeIr {
    /// Nodes in tape order.
    pub nodes: Vec<TapeIrNode>,
}

impl TapeIr {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl Tape {
    /// Exports the recorded graph as an analyzable [`TapeIr`].
    ///
    /// Purely observational: no numerics change, no gradients move. The
    /// export captures op structure, recorded shapes, `needs_grad` flags, a
    /// finiteness scan of every recorded value, and the `(index, name)` of
    /// each parameter binding resolved through `store`.
    pub fn export_ir(&self, store: &ParamStore) -> TapeIr {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(id, node)| {
                let op = match &node.op {
                    Op::Leaf => IrOp::Leaf,
                    Op::MatMul(a, b) => IrOp::MatMul { a: a.0, b: b.0 },
                    Op::AddBiasAct(x, bias, act) => IrOp::AddBiasAct {
                        x: x.0,
                        bias: bias.0,
                        act: *act,
                    },
                    Op::Add(a, b) => IrOp::Add { a: a.0, b: b.0 },
                    Op::Sub(a, b) => IrOp::Sub { a: a.0, b: b.0 },
                    Op::Mul(a, b) => IrOp::Mul { a: a.0, b: b.0 },
                    Op::Scale(a, c) => IrOp::Scale { a: a.0, c: *c },
                    Op::Act(a, act) => IrOp::Act { a: a.0, act: *act },
                    Op::Softplus(a) => IrOp::Softplus { a: a.0 },
                    Op::Exp(a) => IrOp::Exp { a: a.0 },
                    Op::Square(a) => IrOp::Square { a: a.0 },
                    Op::MeanAll(a) => IrOp::MeanAll { a: a.0 },
                    Op::SumAll(a) => IrOp::SumAll { a: a.0 },
                    Op::RowSum(a) => IrOp::RowSum { a: a.0 },
                    Op::RowScale(a, weights) => IrOp::RowScale {
                        a: a.0,
                        weights_len: weights.len(),
                        weights_finite: weights.iter().all(|w| w.is_finite()),
                    },
                    Op::BceWithLogits { logits, targets, .. } => IrOp::BceWithLogits {
                        logits: logits.0,
                        target_rows: targets.rows(),
                        target_cols: targets.cols(),
                        targets_finite: targets.all_finite(),
                    },
                    Op::SoftmaxCe { logits, targets, .. } => IrOp::SoftmaxCe {
                        logits: logits.0,
                        target_rows: targets.rows(),
                        target_cols: targets.cols(),
                        targets_finite: targets.all_finite(),
                    },
                    Op::DecKl { z, mu, p, .. } => IrOp::DecKl {
                        z: z.0,
                        mu: mu.0,
                        p_rows: p.rows(),
                        p_cols: p.cols(),
                        p_finite: p.all_finite(),
                    },
                };
                let param = self
                    .bindings
                    .iter()
                    .find(|(_, v)| v.0 == id)
                    .map(|(pid, _)| IrParam {
                        index: pid.index(),
                        name: store.name(*pid).to_string(),
                    });
                TapeIrNode {
                    id,
                    op,
                    rows: node.value.rows(),
                    cols: node.value.cols(),
                    needs_grad: node.needs_grad,
                    value_finite: node.value.all_finite(),
                    param,
                }
            })
            .collect();
        TapeIr { nodes }
    }
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tape").field("nodes", &self.nodes.len()).finish()
    }
}

/// Backward of [`Tape::dec_kl`] for upstream gradient `gv`: with
/// `wᵢⱼ = ((α+1)/α) (1 + ‖zᵢ−μⱼ‖²/α)⁻¹ (pᵢⱼ − qᵢⱼ)`, returns
/// `gv · Σⱼ wᵢⱼ (zᵢ − μⱼ)` for `z` and `gv · Σᵢ (−wᵢⱼ)(zᵢ − μⱼ)` for `μ`
/// (Theorems 2–3). Each weight is computed once per pair and feeds both.
fn dec_kl_backward(z: &Matrix, mu: &Matrix, p: &Matrix, q: &Matrix, alpha: f32, gv: f32) -> (Matrix, Matrix) {
    let (n, d) = z.shape();
    let k = mu.rows();
    let coeff = (alpha + 1.0) / alpha;
    let mut dz = Matrix::zeros(n, d);
    let mut dmu = Matrix::zeros(k, d);
    for i in 0..n {
        let zi = z.row(i);
        for j in 0..k {
            let muj = mu.row(j);
            let mut sq = 0.0f32;
            for t in 0..d {
                let diff = zi[t] - muj[t];
                sq += diff * diff;
            }
            let w = coeff / (1.0 + sq / alpha) * (p.get(i, j) - q.get(i, j));
            for t in 0..d {
                let diff = zi[t] - muj[t];
                dz.set(i, t, dz.get(i, t) + w * diff);
                dmu.set(j, t, dmu.get(j, t) + (-w) * diff);
            }
        }
    }
    dz.map_inplace(|v| v * gv);
    dmu.map_inplace(|v| v * gv);
    (dz, dmu)
}

#[inline]
fn stable_softplus(x: f32) -> f32 {
    x.max(0.0) + (1.0 + (-x.abs()).exp()).ln()
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::grad_check::numeric_grad;
    use adec_tensor::SeedRng;

    /// Finite-difference check of a scalar function of a single input.
    fn check_unary(build: impl Fn(&mut Tape, Var) -> Var, x: &Matrix, tol: f32) {
        let mut tape = Tape::new();
        let xv = tape.grad_leaf(x.clone());
        let loss = build(&mut tape, xv);
        tape.backward(loss);
        let analytic = tape.grad(xv);

        let numeric = numeric_grad(
            |m| {
                let mut t = Tape::new();
                let v = t.leaf(m.clone());
                let l = build(&mut t, v);
                t.scalar(l)
            },
            x,
            1e-2,
        );
        let diff = analytic.sub(&numeric).max_abs();
        assert!(diff < tol, "gradient mismatch {diff}\nanalytic {analytic:?}\nnumeric {numeric:?}");
    }

    #[test]
    fn grad_mean_of_square() {
        let mut rng = SeedRng::new(1);
        let x = Matrix::randn(3, 4, 0.0, 1.0, &mut rng);
        check_unary(
            |t, v| {
                let s = t.square(v);
                t.mean_all(s)
            },
            &x,
            1e-3,
        );
    }

    #[test]
    fn grad_through_activations() {
        let mut rng = SeedRng::new(2);
        let x = Matrix::randn(2, 5, 0.0, 1.0, &mut rng);
        for f in [
            (|t: &mut Tape, v: Var| t.act(v, FusedAct::Sigmoid)) as fn(&mut Tape, Var) -> Var,
            |t, v| t.act(v, FusedAct::Tanh),
            |t, v| t.softplus(v),
        ] {
            check_unary(
                |t, v| {
                    let a = f(t, v);
                    let s = t.square(a);
                    t.sum_all(s)
                },
                &x,
                5e-2,
            );
        }
    }

    #[test]
    fn grad_relu_masks_negative() {
        let x = Matrix::from_vec(1, 4, vec![-2.0, -0.5, 0.5, 2.0]);
        let mut tape = Tape::new();
        let xv = tape.grad_leaf(x);
        let r = tape.act(xv, FusedAct::Relu);
        let loss = tape.sum_all(r);
        tape.backward(loss);
        assert_eq!(tape.grad(xv).as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    /// `Tape::act` is `FusedAct::eval` forward and `g · grad_from_output(y)`
    /// backward, bit for bit, for every activation — over ±0, ±MAX, ±∞ and
    /// NaN inputs and upstream gradients of both signs.
    #[test]
    fn act_matches_fused_act_bitwise() {
        let mut rng = SeedRng::new(21);
        let mut xs = Matrix::randn(3, 7, 0.0, 3.0, &mut rng);
        let specials = [0.0, -0.0, f32::MAX, -f32::MAX, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        xs.row_mut(0).copy_from_slice(&specials);
        let w = Matrix::randn(3, 7, 0.0, 1.0, &mut rng);
        for act in [FusedAct::Identity, FusedAct::Relu, FusedAct::Sigmoid, FusedAct::Tanh] {
            let mut tape = Tape::new();
            let x = tape.grad_leaf(xs.clone());
            let y = tape.act(x, act);
            // `sum(w ∘ y)` hands `y` the upstream gradient `w`.
            let wv = tape.leaf(w.clone());
            let wy = tape.mul(y, wv);
            let loss = tape.sum_all(wy);
            tape.backward(loss);
            let want_y = xs.map(|v| act.eval(v));
            let want_dx = w.zip_with(&want_y, |gi, yi| gi * act.grad_from_output(yi));
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(tape.value(y)), bits(&want_y), "{act:?} forward");
            assert_eq!(bits(&tape.grad(x)), bits(&want_dx), "{act:?} backward");
        }
    }

    #[test]
    fn grad_matmul_both_sides() {
        let mut rng = SeedRng::new(3);
        let a0 = Matrix::randn(3, 4, 0.0, 1.0, &mut rng);
        let b0 = Matrix::randn(4, 2, 0.0, 1.0, &mut rng);

        let mut tape = Tape::new();
        let a = tape.grad_leaf(a0.clone());
        let b = tape.grad_leaf(b0.clone());
        let c = tape.matmul(a, b);
        let s = tape.square(c);
        let loss = tape.sum_all(s);
        tape.backward(loss);
        let ga = tape.grad(a);
        let gb = tape.grad(b);

        let num_a = numeric_grad(
            |m| {
                let mut t = Tape::new();
                let av = t.leaf(m.clone());
                let bv = t.leaf(b0.clone());
                let c = t.matmul(av, bv);
                let s = t.square(c);
                let l = t.sum_all(s);
                t.scalar(l)
            },
            &a0,
            1e-2,
        );
        let num_b = numeric_grad(
            |m| {
                let mut t = Tape::new();
                let av = t.leaf(a0.clone());
                let bv = t.leaf(m.clone());
                let c = t.matmul(av, bv);
                let s = t.square(c);
                let l = t.sum_all(s);
                t.scalar(l)
            },
            &b0,
            1e-2,
        );
        assert!(ga.sub(&num_a).max_abs() < 5e-2);
        assert!(gb.sub(&num_b).max_abs() < 5e-2);
    }

    #[test]
    fn grad_bias_broadcast() {
        let mut rng = SeedRng::new(4);
        let x0 = Matrix::randn(5, 3, 0.0, 1.0, &mut rng);
        let b0 = Matrix::randn(1, 3, 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let b = tape.grad_leaf(b0.clone());
        let y = tape.add_bias_act(x, b, FusedAct::Identity);
        let s = tape.square(y);
        let loss = tape.sum_all(s);
        tape.backward(loss);
        let gb = tape.grad(b);
        let num_b = numeric_grad(
            |m| {
                let mut t = Tape::new();
                let xv = t.leaf(x0.clone());
                let bv = t.leaf(m.clone());
                let y = t.add_bias_act(xv, bv, FusedAct::Identity);
                let s = t.square(y);
                let l = t.sum_all(s);
                t.scalar(l)
            },
            &b0,
            1e-2,
        );
        assert!(gb.sub(&num_b).max_abs() < 5e-2);
    }

    #[test]
    fn grad_row_scale() {
        let mut rng = SeedRng::new(5);
        let x0 = Matrix::randn(3, 2, 0.0, 1.0, &mut rng);
        let w = vec![0.2, 0.7, 1.5];
        let wc = w.clone();
        check_unary(
            move |t, v| {
                let r = t.row_scale(v, &wc);
                let s = t.square(r);
                t.sum_all(s)
            },
            &x0,
            5e-2,
        );
        let _ = w;
    }

    #[test]
    fn grad_bce_with_logits() {
        let mut rng = SeedRng::new(6);
        let x0 = Matrix::randn(4, 1, 0.0, 2.0, &mut rng);
        let t0 = Matrix::from_vec(4, 1, vec![1.0, 0.0, 1.0, 0.0]);
        let targets = t0.clone();
        check_unary(
            move |t, v| t.bce_with_logits(v, &targets),
            &x0,
            1e-3,
        );
        let _ = t0;
    }

    #[test]
    fn bce_forward_matches_naive() {
        let x = Matrix::from_vec(1, 2, vec![0.3, -1.2]);
        let t = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let loss = tape.bce_with_logits(xv, &t);
        let got = tape.scalar(loss);
        let naive = -((stable_sigmoid(0.3)).ln() + (1.0 - stable_sigmoid(-1.2)).ln()) / 2.0;
        assert!((got - naive).abs() < 1e-5, "got {got} naive {naive}");
    }

    #[test]
    fn grad_dec_kl_matches_finite_difference() {
        let mut rng = SeedRng::new(7);
        let z0 = Matrix::randn(6, 3, 0.0, 1.0, &mut rng);
        let mu0 = Matrix::randn(2, 3, 0.0, 1.0, &mut rng);
        let q = crate::loss::soft_assignment(&z0, &mu0, 1.0);
        let p = crate::loss::target_distribution(&q);

        let mut tape = Tape::new();
        let z = tape.grad_leaf(z0.clone());
        let mu = tape.grad_leaf(mu0.clone());
        let loss = tape.dec_kl(z, mu, &p, 1.0);
        tape.backward(loss);
        let gz = tape.grad(z);
        let gmu = tape.grad(mu);

        let num_z = numeric_grad(
            |m| {
                let mut t = Tape::new();
                let zv = t.leaf(m.clone());
                let mv = t.leaf(mu0.clone());
                let l = t.dec_kl(zv, mv, &p, 1.0);
                t.scalar(l)
            },
            &z0,
            1e-2,
        );
        let num_mu = numeric_grad(
            |m| {
                let mut t = Tape::new();
                let zv = t.leaf(z0.clone());
                let mv = t.leaf(m.clone());
                let l = t.dec_kl(zv, mv, &p, 1.0);
                t.scalar(l)
            },
            &mu0,
            1e-2,
        );
        assert!(
            gz.sub(&num_z).max_abs() < 5e-2,
            "z grad mismatch {:?} vs {:?}",
            gz,
            num_z
        );
        assert!(
            gmu.sub(&num_mu).max_abs() < 5e-2,
            "mu grad mismatch {:?} vs {:?}",
            gmu,
            num_mu
        );
    }

    /// The DecKl backward as two passes: every distance and weight is
    /// computed once for `dz` and again, negated, for `dμ`.
    fn dec_kl_two_pass(z: &Matrix, mu: &Matrix, p: &Matrix, alpha: f32, gv: f32) -> (Matrix, Matrix) {
        let q = crate::loss::soft_assignment(z, mu, alpha);
        let (n, d) = z.shape();
        let k = mu.rows();
        let coeff = (alpha + 1.0) / alpha;
        let mut dz = Matrix::zeros(n, d);
        for i in 0..n {
            for j in 0..k {
                let mut sq = 0.0f32;
                for t in 0..d {
                    let diff = z.get(i, t) - mu.get(j, t);
                    sq += diff * diff;
                }
                let w = coeff / (1.0 + sq / alpha) * (p.get(i, j) - q.get(i, j));
                for t in 0..d {
                    let diff = z.get(i, t) - mu.get(j, t);
                    dz.set(i, t, dz.get(i, t) + w * diff);
                }
            }
        }
        dz.map_inplace(|v| v * gv);
        let mut dmu = Matrix::zeros(k, d);
        for i in 0..n {
            for j in 0..k {
                let mut sq = 0.0f32;
                for t in 0..d {
                    let diff = z.get(i, t) - mu.get(j, t);
                    sq += diff * diff;
                }
                let w = -coeff / (1.0 + sq / alpha) * (p.get(i, j) - q.get(i, j));
                for t in 0..d {
                    let diff = z.get(i, t) - mu.get(j, t);
                    dmu.set(j, t, dmu.get(j, t) + w * diff);
                }
            }
        }
        dmu.map_inplace(|v| v * gv);
        (dz, dmu)
    }

    /// The one-pass DecKl backward gives the two-pass loops' bits for `z`
    /// and `μ`, whichever of them needs a gradient: random shapes and α,
    /// rows sitting on a centroid with ±0 coordinates, and ±1e18 distances.
    #[test]
    fn dec_kl_backward_matches_two_pass_bitwise() {
        let mut rng = SeedRng::new(31);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for case in 0..200 {
            let (n, k, d) = (1 + rng.below(9), 1 + rng.below(5), 1 + rng.below(7));
            let alpha = [1.0, 0.5, 2.0, rng.uniform(0.05, 20.0)][case % 4];
            let mut mu0 = Matrix::randn(k, d, 0.0, 2.0, &mut rng);
            let mut z0 = Matrix::randn(n, d, 0.0, 2.0, &mut rng);
            match case % 5 {
                // Row 0 sits on centroid 0, both with ±0 coordinates.
                1 => {
                    let zeros: Vec<f32> = (0..d).map(|t| if t % 2 == 0 { 0.0 } else { -0.0 }).collect();
                    mu0.row_mut(0).copy_from_slice(&zeros);
                    z0.row_mut(0).copy_from_slice(&zeros);
                }
                // Far points: distances near 1e18, squares near 1e37.
                2 => {
                    z0.map_inplace(|v| v.signum() * 1e18);
                    mu0.row_mut(0).iter_mut().for_each(|v| *v = -1e18);
                }
                _ => {}
            }
            let q = crate::loss::soft_assignment(&z0, &mu0, alpha);
            let p = crate::loss::target_distribution(&q);
            let scale = rng.uniform(-2.0, 2.0);
            let (want_dz, want_dmu) = dec_kl_two_pass(&z0, &mu0, &p, alpha, scale);
            for (z_grad, mu_grad) in [(true, true), (true, false), (false, true), (false, false)] {
                let mut tape = Tape::new();
                let leaf = |t: &mut Tape, m: &Matrix, g: bool| if g { t.grad_leaf(m.clone()) } else { t.leaf(m.clone()) };
                let z = leaf(&mut tape, &z0, z_grad);
                let mu = leaf(&mut tape, &mu0, mu_grad);
                let kl = tape.dec_kl(z, mu, &p, alpha);
                let loss = tape.scale(kl, scale);
                tape.backward(loss);
                let zero = |m: &Matrix| Matrix::zeros(m.rows(), m.cols());
                let want_z = if z_grad { want_dz.clone() } else { zero(&z0) };
                let want_mu = if mu_grad { want_dmu.clone() } else { zero(&mu0) };
                let at = format!("case {case} ({n}x{d}, k {k}, alpha {alpha}, grads {z_grad}/{mu_grad})");
                assert_eq!(bits(&tape.grad(z)), bits(&want_z), "dz {at}");
                assert_eq!(bits(&tape.grad(mu)), bits(&want_mu), "dmu {at}");
            }
        }
    }

    #[test]
    fn grad_row_sum() {
        let mut rng = SeedRng::new(10);
        let x = Matrix::randn(3, 4, 0.0, 1.0, &mut rng);
        check_unary(
            |t, v| {
                let r = t.row_sum(v);
                let s = t.square(r);
                t.sum_all(s)
            },
            &x,
            5e-2,
        );
    }

    #[test]
    fn grad_exp() {
        let mut rng = SeedRng::new(9);
        let x = Matrix::randn(2, 3, 0.0, 1.0, &mut rng);
        check_unary(
            |t, v| {
                let e = t.exp(v);
                t.sum_all(e)
            },
            &x,
            5e-2,
        );
    }

    #[test]
    fn softmax_ce_forward_and_gradient() {
        let mut rng = SeedRng::new(8);
        let x0 = Matrix::randn(4, 3, 0.0, 1.5, &mut rng);
        // One-hot targets.
        let mut t = Matrix::zeros(4, 3);
        for (i, c) in [0usize, 2, 1, 2].iter().enumerate() {
            t.set(i, *c, 1.0);
        }
        let targets = t.clone();
        check_unary(move |tape, v| tape.softmax_cross_entropy(v, &targets), &x0, 5e-3);

        // Forward sanity: a confident correct logit has near-zero loss.
        let logits = Matrix::from_vec(1, 2, vec![10.0, -10.0]);
        let onehot = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let mut tape = Tape::new();
        let lv = tape.leaf(logits);
        let loss = tape.softmax_cross_entropy(lv, &onehot);
        assert!(tape.scalar(loss) < 1e-3);
    }

    #[test]
    fn shared_subexpression_accumulates() {
        // loss = sum(x ∘ x) → grad = 2x even when both Mul operands are the
        // same node.
        let x0 = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let mut tape = Tape::new();
        let x = tape.grad_leaf(x0.clone());
        let m = tape.mul(x, x);
        let loss = tape.sum_all(m);
        tape.backward(loss);
        assert_eq!(tape.grad(x).as_slice(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn exported_ir_mirrors_the_live_graph() {
        let mut store = ParamStore::new();
        let w = store.register("test.w", Matrix::eye(3));
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(2, 3, 1.0));
        let wv = tape.param(&store, w);
        let h = tape.matmul(x, wv);
        let s = tape.square(h);
        let loss = tape.mean_all(s);

        let ir = tape.export_ir(&store);
        assert_eq!(ir.len(), 5);
        assert_eq!(ir.nodes[x.0].op, IrOp::Leaf);
        assert!(!ir.nodes[x.0].needs_grad);
        assert!(ir.nodes[x.0].param.is_none());
        let pw = ir.nodes[wv.0].param.as_ref().unwrap();
        assert_eq!((pw.index, pw.name.as_str()), (w.index(), "test.w"));
        assert!(ir.nodes[wv.0].needs_grad);
        assert_eq!(ir.nodes[h.0].op, IrOp::MatMul { a: x.0, b: wv.0 });
        assert_eq!(ir.nodes[h.0].op.inputs(), vec![x.0, wv.0]);
        assert_eq!((ir.nodes[h.0].rows, ir.nodes[h.0].cols), (2, 3));
        assert_eq!(ir.nodes[loss.0].op, IrOp::MeanAll { a: s.0 });
        assert_eq!((ir.nodes[loss.0].rows, ir.nodes[loss.0].cols), (1, 1));
        assert!(ir.nodes.iter().all(|n| n.value_finite));
        assert_eq!(ir.nodes[loss.0].op.name(), "mean_all");
    }

    #[test]
    fn exported_ir_flags_nonfinite_values_and_constants() {
        let store = ParamStore::new();
        let mut tape = Tape::new();
        let bad = tape.leaf(Matrix::from_vec(1, 2, vec![1.0, f32::NAN]));
        let scaled = tape.scale(bad, f32::INFINITY);
        let ir = tape.export_ir(&store);
        assert!(!ir.nodes[bad.0].value_finite);
        match ir.nodes[scaled.0].op {
            IrOp::Scale { c, .. } => assert!(!c.is_finite()),
            ref op => panic!("unexpected op {op:?}"),
        }
    }

    #[test]
    fn constants_receive_no_gradient() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(1, 2, 3.0));
        let s = tape.square(x);
        let loss = tape.sum_all(s);
        tape.backward(loss);
        assert_eq!(tape.grad(x).sum(), 0.0);
    }
}
