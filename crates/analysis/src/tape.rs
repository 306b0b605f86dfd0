//! Tape dataflow analysis: abstract interpretation over exported
//! [`TapeIr`] graphs.
//!
//! The source lints in [`crate::lint`] and the [`crate::arch`] spec
//! checker see code and declared architectures; neither sees what a
//! trainer *actually wires together* at run time. This pass does: a
//! trainer builds its per-phase tape exactly as the training loop would,
//! exports it with [`adec_nn::Tape::export_ir`], and [`analyze_tape`]
//! proves four properties before any epoch runs:
//!
//! 1. **Shape safety** — every node's recorded output shape equals the
//!    shape its op implies from its operand shapes (including the fused
//!    `add_bias_act` node and the composite DEC KL loss), so no epoch can
//!    die in a mid-batch shape assert (`tape.shape-mismatch`).
//! 2. **Gradient connectivity** — every parameter the phase's
//!    [`PhaseManifest`] declares as updated is bound into the tape and
//!    backward-reachable from the loss (`tape.unreachable-param`), params
//!    bound twice are flagged (`tape.double-bind`), and bound params with
//!    no declared role are surfaced (`tape.unlisted-param`). Intentional
//!    detachment — ADEC's frozen decoder during the encoder's adversarial
//!    step, the critic during the AE step — is declared in the manifest's
//!    frozen allowlist instead of being invisible.
//! 3. **Liveness** — every computed node feeds the loss; dead subgraphs
//!    are either wasted work or a miswired objective (`tape.dead-node`).
//! 4. **Finiteness** — a NaN-propagation lattice over
//!    `{finite, maybe-non-finite}`: leaves seed from a finiteness scan of
//!    their recorded values, op constants (scale factors, row weights,
//!    loss targets) inject, and contamination propagates through every op
//!    toward the loss (`tape.nonfinite-value` at the source,
//!    `tape.nan-path` when the contamination reaches the loss). The
//!    lattice is deliberately value-seeded rather than
//!    capability-seeded: every float op *can* overflow, so flagging
//!    "could manufacture inf" statically would drown the report; instead
//!    ops whose recorded output went non-finite while every input was
//!    finite are reported as manufacture sites, and
//!    [`adec_tensor::kernels::FusedAct::saturating`] annotations exempt
//!    activations whose outputs are bounded.

use crate::diagnostics::{registry_hint, Diagnostic, Report};
use adec_nn::{IrOp, TapeIr, TapeIrNode};

/// One parameter's role in a phase: its `ParamId::index()` plus the
/// store-registered name used in diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamRole {
    /// Store index of the parameter.
    pub index: usize,
    /// Human-readable parameter name.
    pub name: String,
}

/// Declares which parameters a training phase updates and which are
/// intentionally frozen (bound but optimizer-filtered, or detached via an
/// `infer` path). The connectivity pass holds the exported tape to this
/// contract.
#[derive(Debug, Clone, Default)]
pub struct PhaseManifest {
    /// Phase name used in diagnostic locations, e.g. `adec.encoder.adv`.
    pub phase: String,
    /// Params that must receive a gradient from this phase's loss.
    pub updates: Vec<ParamRole>,
    /// Allowlist of params intentionally *not* updated by this phase.
    pub frozen: Vec<ParamRole>,
    /// Allowlist of params intentionally bound into the tape more than
    /// once — weight sharing, where one module runs several forward passes
    /// on the same tape (ACAI's twin encoder passes, the discriminator's
    /// real/fake passes). Undeclared repeat bindings are `tape.double-bind`
    /// errors, because the optimizer walks the bindings and applies one
    /// partial update per binding.
    pub shared: Vec<ParamRole>,
}

impl PhaseManifest {
    /// Creates an empty manifest for the named phase.
    pub fn new(phase: impl Into<String>) -> Self {
        PhaseManifest {
            phase: phase.into(),
            updates: Vec::new(),
            frozen: Vec::new(),
            shared: Vec::new(),
        }
    }

    /// Declares a parameter this phase must update.
    #[must_use]
    pub fn update(mut self, index: usize, name: impl Into<String>) -> Self {
        self.updates.push(ParamRole { index, name: name.into() });
        self
    }

    /// Declares parameters this phase must update, from
    /// `(index, name)`-style iterators (e.g. a whole MLP's param ids).
    #[must_use]
    pub fn update_all(mut self, roles: impl IntoIterator<Item = (usize, String)>) -> Self {
        for (index, name) in roles {
            self.updates.push(ParamRole { index, name });
        }
        self
    }

    /// Declares an intentionally-frozen parameter.
    #[must_use]
    pub fn freeze(mut self, index: usize, name: impl Into<String>) -> Self {
        self.frozen.push(ParamRole { index, name: name.into() });
        self
    }

    /// Declares intentionally-frozen parameters in bulk.
    #[must_use]
    pub fn freeze_all(mut self, roles: impl IntoIterator<Item = (usize, String)>) -> Self {
        for (index, name) in roles {
            self.frozen.push(ParamRole { index, name });
        }
        self
    }

    /// Declares a parameter whose repeated binding is intentional weight
    /// sharing (several forward passes of the same module on one tape).
    #[must_use]
    pub fn share(mut self, index: usize, name: impl Into<String>) -> Self {
        self.shared.push(ParamRole { index, name: name.into() });
        self
    }

    /// Declares intentionally-shared parameters in bulk.
    #[must_use]
    pub fn share_all(mut self, roles: impl IntoIterator<Item = (usize, String)>) -> Self {
        for (index, name) in roles {
            self.shared.push(ParamRole { index, name });
        }
        self
    }
}

fn loc(phase: &str, node: &TapeIrNode) -> String {
    format!("phase \"{}\" node {} ({})", phase, node.id, node.op.name())
}

fn error(rule: &'static str, location: String, message: String) -> Diagnostic {
    Diagnostic::error(rule, location, message).with_hint(registry_hint(rule))
}

fn warning(rule: &'static str, location: String, message: String) -> Diagnostic {
    Diagnostic::warning(rule, location, message).with_hint(registry_hint(rule))
}

/// Runs every dataflow pass over an exported tape and returns the merged,
/// canonically-ordered report. `loss` is the id of the phase's loss node.
pub fn analyze_tape(ir: &TapeIr, loss: usize, manifest: &PhaseManifest) -> Report {
    let mut report = Report::new();
    let phase = manifest.phase.as_str();

    if structure_is_broken(ir, loss, phase, &mut report) {
        report.canonical_sort();
        return report;
    }

    shape_pass(ir, phase, &mut report);
    let grad_reached = grad_reachable(ir, loss);
    connectivity_pass(ir, manifest, &grad_reached, &mut report);
    liveness_pass(ir, loss, phase, &mut report);
    nan_pass(ir, loss, phase, &mut report);

    report.canonical_sort();
    report
}

/// Structural sanity: ids in tape order, loss in range and scalar. A
/// broken structure makes every later pass report nonsense, so it
/// short-circuits.
fn structure_is_broken(ir: &TapeIr, loss: usize, phase: &str, report: &mut Report) -> bool {
    let mut broken = false;
    if ir.nodes.is_empty() || loss >= ir.nodes.len() {
        report.push(error(
            "tape.shape-mismatch",
            format!("phase \"{phase}\""),
            format!("loss node {loss} is out of range for a {}-node tape", ir.nodes.len()),
        ));
        return true;
    }
    for node in &ir.nodes {
        for input in node.op.inputs() {
            if input >= node.id {
                report.push(error(
                    "tape.shape-mismatch",
                    loc(phase, node),
                    format!("input {input} does not precede the node on the tape"),
                ));
                broken = true;
            }
        }
    }
    let loss_node = &ir.nodes[loss];
    if (loss_node.rows, loss_node.cols) != (1, 1) {
        report.push(error(
            "tape.shape-mismatch",
            loc(phase, loss_node),
            format!("loss node must be 1x1, recorded {}x{}", loss_node.rows, loss_node.cols),
        ));
        broken = true;
    }
    broken
}

/// Full shape/dim propagation: recompute every node's output shape from
/// its operands and compare with what the tape recorded.
fn shape_pass(ir: &TapeIr, phase: &str, report: &mut Report) {
    for node in &ir.nodes {
        let shape_of = |id: usize| (ir.nodes[id].rows, ir.nodes[id].cols);
        let mut mismatch = |message: String| {
            report.push(error("tape.shape-mismatch", loc(phase, node), message));
        };
        let expected = match node.op {
            IrOp::Leaf => None,
            IrOp::MatMul { a, b } => {
                let ((m, ka), (kb, n)) = (shape_of(a), shape_of(b));
                if ka != kb {
                    mismatch(format!("inner dimension mismatch {m}x{ka} . {kb}x{n}"));
                    continue;
                }
                Some((m, n))
            }
            IrOp::AddBias { x, bias } | IrOp::AddBiasAct { x, bias, .. } => {
                let ((rows, cols), (brows, bcols)) = (shape_of(x), shape_of(bias));
                if brows != 1 || bcols != cols {
                    mismatch(format!(
                        "bias must be 1x{cols} to broadcast over a {rows}x{cols} input, got {brows}x{bcols}"
                    ));
                    continue;
                }
                Some((rows, cols))
            }
            IrOp::Add { a, b } | IrOp::Sub { a, b } | IrOp::Mul { a, b } => {
                if shape_of(a) != shape_of(b) {
                    let ((ar, ac), (br, bc)) = (shape_of(a), shape_of(b));
                    mismatch(format!("elementwise operands disagree: {ar}x{ac} vs {br}x{bc}"));
                    continue;
                }
                Some(shape_of(a))
            }
            IrOp::Scale { a, .. }
            | IrOp::Relu { a }
            | IrOp::Sigmoid { a }
            | IrOp::Tanh { a }
            | IrOp::Softplus { a }
            | IrOp::Exp { a }
            | IrOp::Square { a } => Some(shape_of(a)),
            IrOp::MeanAll { .. } | IrOp::SumAll { .. } => Some((1, 1)),
            IrOp::RowSum { a } => Some((shape_of(a).0, 1)),
            IrOp::RowScale { a, weights_len, .. } => {
                let (rows, cols) = shape_of(a);
                if weights_len != rows {
                    mismatch(format!("{weights_len} row weights for a {rows}-row input"));
                    continue;
                }
                Some((rows, cols))
            }
            IrOp::BceWithLogits { logits, target_rows, target_cols, .. }
            | IrOp::SoftmaxCe { logits, target_rows, target_cols, .. } => {
                if shape_of(logits) != (target_rows, target_cols) {
                    let (lr, lc) = shape_of(logits);
                    mismatch(format!("targets {target_rows}x{target_cols} vs logits {lr}x{lc}"));
                    continue;
                }
                Some((1, 1))
            }
            IrOp::DecKl { z, mu, p_rows, p_cols, .. } => {
                let ((n, d), (k, dmu)) = (shape_of(z), shape_of(mu));
                if d != dmu {
                    mismatch(format!("embedding dim {d} vs centroid dim {dmu}"));
                    continue;
                }
                if (p_rows, p_cols) != (n, k) {
                    mismatch(format!(
                        "target distribution {p_rows}x{p_cols} for {n} samples and {k} clusters"
                    ));
                    continue;
                }
                Some((1, 1))
            }
        };
        if let Some((rows, cols)) = expected {
            if (rows, cols) != (node.rows, node.cols) {
                report.push(error(
                    "tape.shape-mismatch",
                    loc(phase, node),
                    format!(
                        "op implies {rows}x{cols} but the tape recorded {}x{}",
                        node.rows, node.cols
                    ),
                ));
            }
        }
    }
}

/// The set of nodes the backward pass accumulates a gradient into,
/// mirroring `Tape::backward` exactly: the gradient enters at the loss and
/// flows from a gradient-carrying node into each operand whose
/// `needs_grad` flag is set.
fn grad_reachable(ir: &TapeIr, loss: usize) -> Vec<bool> {
    let mut reached = vec![false; ir.nodes.len()];
    if !ir.nodes[loss].needs_grad {
        return reached;
    }
    reached[loss] = true;
    let mut stack = vec![loss];
    while let Some(id) = stack.pop() {
        for input in ir.nodes[id].op.inputs() {
            if ir.nodes[input].needs_grad && !reached[input] {
                reached[input] = true;
                stack.push(input);
            }
        }
    }
    reached
}

/// Gradient connectivity against the phase manifest.
fn connectivity_pass(ir: &TapeIr, manifest: &PhaseManifest, reached: &[bool], report: &mut Report) {
    let phase = manifest.phase.as_str();
    // (store index, node id) for every binding, in tape order.
    let bound: Vec<(usize, &TapeIrNode)> = ir
        .nodes
        .iter()
        .filter_map(|n| n.param.as_ref().map(|p| (p.index, n)))
        .collect();

    for (i, &(index, node)) in bound.iter().enumerate() {
        let declared_shared = manifest.shared.iter().any(|r| r.index == index);
        if !declared_shared && bound[..i].iter().any(|&(prev, _)| prev == index) {
            let name = node.param.as_ref().map(|p| p.name.as_str()).unwrap_or("?");
            report.push(error(
                "tape.double-bind",
                loc(phase, node),
                format!(
                    "param \"{name}\" (index {index}) is already bound into this tape \
                     and is not declared shared"
                ),
            ));
        }
    }

    for role in &manifest.updates {
        let bindings: Vec<&TapeIrNode> = bound
            .iter()
            .filter(|&&(index, _)| index == role.index)
            .map(|&(_, n)| n)
            .collect();
        if bindings.is_empty() {
            report.push(error(
                "tape.unreachable-param",
                format!("phase \"{phase}\""),
                format!(
                    "param \"{}\" (index {}) must be updated by this phase but is never bound into the tape",
                    role.name, role.index
                ),
            ));
        } else if !bindings.iter().any(|n| reached[n.id]) {
            report.push(error(
                "tape.unreachable-param",
                loc(phase, bindings[0]),
                format!(
                    "param \"{}\" (index {}) is bound but receives no gradient from the loss",
                    role.name, role.index
                ),
            ));
        }
    }

    for &(index, node) in &bound {
        let declared = manifest.updates.iter().chain(manifest.frozen.iter()).any(|r| r.index == index);
        if !declared {
            let name = node.param.as_ref().map(|p| p.name.as_str()).unwrap_or("?");
            report.push(warning(
                "tape.unlisted-param",
                loc(phase, node),
                format!("param \"{name}\" (index {index}) is bound but has no declared role in this phase"),
            ));
        }
    }
}

/// Dead-node detection: every *computed* node must be an ancestor of the
/// loss. Leaves are inputs, not computation — an unused bound param is
/// already the connectivity pass's business, and unused constants are
/// harmless.
fn liveness_pass(ir: &TapeIr, loss: usize, phase: &str, report: &mut Report) {
    let mut live = vec![false; ir.nodes.len()];
    live[loss] = true;
    let mut stack = vec![loss];
    while let Some(id) = stack.pop() {
        for input in ir.nodes[id].op.inputs() {
            if !live[input] {
                live[input] = true;
                stack.push(input);
            }
        }
    }
    for node in &ir.nodes {
        if !live[node.id] && !matches!(node.op, IrOp::Leaf) {
            report.push(error(
                "tape.dead-node",
                loc(phase, node),
                "computed node does not feed the loss".to_string(),
            ));
        }
    }
}

/// Whether an op injects a non-finite *constant* regardless of its
/// operands.
fn injects_nonfinite(op: &IrOp) -> bool {
    match *op {
        IrOp::Scale { c, .. } => !c.is_finite(),
        IrOp::RowScale { weights_finite, .. } => !weights_finite,
        IrOp::BceWithLogits { targets_finite, .. } | IrOp::SoftmaxCe { targets_finite, .. } => {
            !targets_finite
        }
        IrOp::DecKl { p_finite, .. } => !p_finite,
        _ => false,
    }
}

/// Whether an op's output is bounded for every finite input, so
/// contamination cannot be *manufactured* past it (NaN still flows
/// through — saturation dampens, it does not launder).
fn saturates(op: &IrOp) -> bool {
    match op {
        IrOp::Sigmoid { .. } | IrOp::Tanh { .. } => true,
        IrOp::AddBiasAct { act, .. } => act.saturating(),
        _ => false,
    }
}

/// The NaN-propagation lattice: per node, `finite ⊑ maybe-non-finite`,
/// join = OR over inputs, seeded by the recorded-value finiteness scan
/// and non-finite op constants. A second component tracks whether the
/// contamination is *unguarded* — has reached this node without passing a
/// saturating op whose recorded output stayed finite. Only unguarded
/// contamination at the loss warns: a saturating activation between the
/// source and the loss bounds overflow-scale magnitudes, which is the
/// guard the rule asks for (the value-scan errors still report the
/// source itself either way).
fn nan_pass(ir: &TapeIr, loss: usize, phase: &str, report: &mut Report) {
    let mut maybe = vec![false; ir.nodes.len()];
    let mut unguarded = vec![false; ir.nodes.len()];
    for node in &ir.nodes {
        let inputs = node.op.inputs();
        let input_contaminated = inputs.iter().any(|&i| maybe[i]);
        let input_unguarded = inputs.iter().any(|&i| unguarded[i]);
        let inputs_recorded_finite = inputs.iter().all(|&i| ir.nodes[i].value_finite);

        let mut source = false;
        if injects_nonfinite(&node.op) {
            report.push(error(
                "tape.nonfinite-value",
                loc(phase, node),
                "op carries a non-finite constant (scale factor, row weights, or loss targets)"
                    .to_string(),
            ));
            source = true;
        }
        if !node.value_finite {
            if matches!(node.op, IrOp::Leaf) {
                report.push(error(
                    "tape.nonfinite-value",
                    loc(phase, node),
                    "leaf holds non-finite values".to_string(),
                ));
            } else if inputs_recorded_finite && !injects_nonfinite(&node.op) {
                report.push(error(
                    "tape.nonfinite-value",
                    loc(phase, node),
                    "op manufactured non-finite values from finite inputs".to_string(),
                ));
            }
            source = true;
        }
        maybe[node.id] = source || input_contaminated;
        let guards_here = saturates(&node.op) && node.value_finite;
        unguarded[node.id] = source || (input_unguarded && !guards_here);
    }
    if unguarded[loss] {
        report.push(warning(
            "tape.nan-path",
            loc(phase, &ir.nodes[loss]),
            "non-finite values can reach the loss with no saturating guard between".to_string(),
        ));
    }
}

#[cfg(test)]
// Test code: unwraps are the assertions themselves here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use adec_nn::{IrParam, ParamStore, Tape, TapeIrNode};
    use adec_tensor::kernels::FusedAct;
    use adec_tensor::Matrix;

    fn two_layer_phase() -> (Report, PhaseManifest) {
        let mut store = ParamStore::new();
        let w = store.register("enc.w", Matrix::eye(3));
        let b = store.register("enc.b", Matrix::zeros(1, 3));
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(4, 3, 0.5));
        let wv = tape.param(&store, w);
        let bv = tape.param(&store, b);
        let h = tape.matmul(x, wv);
        let a = tape.add_bias_act(h, bv, FusedAct::Relu);
        let target = tape.leaf(Matrix::zeros(4, 3));
        let loss = tape.mse(a, target);
        let manifest = PhaseManifest::new("test.phase")
            .update(w.index(), "enc.w")
            .update(b.index(), "enc.b");
        (analyze_tape(&tape.export_ir(&store), loss.index(), &manifest), manifest)
    }

    #[test]
    fn clean_phase_is_empty() {
        let (report, _) = two_layer_phase();
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn unreachable_param_is_flagged() {
        let mut store = ParamStore::new();
        let w = store.register("enc.w", Matrix::eye(2));
        let orphan = store.register("dec.w", Matrix::eye(2));
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(3, 2, 1.0));
        let wv = tape.param(&store, w);
        let _bound_but_unused = tape.param(&store, orphan);
        let h = tape.matmul(x, wv);
        let s = tape.square(h);
        let loss = tape.mean_all(s);
        let manifest = PhaseManifest::new("test.unreachable")
            .update(w.index(), "enc.w")
            .update(orphan.index(), "dec.w");
        let report = analyze_tape(&tape.export_ir(&store), loss.index(), &manifest);
        assert!(report.has_rule("tape.unreachable-param"), "{report}");
        assert!(!report.is_pass());
        // The never-bound case reads differently from the disconnected case.
        let missing = PhaseManifest::new("test.unbound").update(99, "ghost.w");
        let report = analyze_tape(&tape.export_ir(&store), loss.index(), &missing);
        assert!(report.errors().any(|d| d.message.contains("never bound")), "{report}");
    }

    #[test]
    fn frozen_allowlist_suppresses_the_error() {
        let mut store = ParamStore::new();
        let w = store.register("enc.w", Matrix::eye(2));
        let frozen = store.register("disc.w", Matrix::eye(2));
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(3, 2, 1.0));
        let wv = tape.param(&store, w);
        let _held = tape.param(&store, frozen);
        let h = tape.matmul(x, wv);
        let s = tape.square(h);
        let loss = tape.mean_all(s);
        let manifest = PhaseManifest::new("test.frozen")
            .update(w.index(), "enc.w")
            .freeze(frozen.index(), "disc.w");
        let report = analyze_tape(&tape.export_ir(&store), loss.index(), &manifest);
        assert!(report.is_pass(), "{report}");
        assert!(!report.has_rule("tape.unlisted-param"));
    }

    #[test]
    fn unlisted_bound_param_warns() {
        let mut store = ParamStore::new();
        let w = store.register("enc.w", Matrix::eye(2));
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(3, 2, 1.0));
        let wv = tape.param(&store, w);
        let h = tape.matmul(x, wv);
        let s = tape.square(h);
        let loss = tape.mean_all(s);
        let manifest = PhaseManifest::new("test.unlisted");
        let report = analyze_tape(&tape.export_ir(&store), loss.index(), &manifest);
        assert!(report.has_rule("tape.unlisted-param"));
        assert!(report.is_pass(), "unlisted is a warning: {report}");
    }

    #[test]
    fn double_bound_param_is_flagged() {
        let mut store = ParamStore::new();
        let w = store.register("enc.w", Matrix::eye(2));
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(3, 2, 1.0));
        let w1 = tape.param(&store, w);
        let w2 = tape.param(&store, w);
        let h1 = tape.matmul(x, w1);
        let h2 = tape.matmul(h1, w2);
        let s = tape.square(h2);
        let loss = tape.mean_all(s);
        let manifest = PhaseManifest::new("test.double").update(w.index(), "enc.w");
        let ir = tape.export_ir(&store);
        let report = analyze_tape(&ir, loss.index(), &manifest);
        assert!(report.has_rule("tape.double-bind"), "{report}");
        // Declaring the weight shared marks the reuse as intentional
        // weight sharing and silences the finding.
        let shared = PhaseManifest::new("test.double")
            .update(w.index(), "enc.w")
            .share(w.index(), "enc.w");
        let report = analyze_tape(&ir, loss.index(), &shared);
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn dead_compute_node_is_flagged() {
        let mut store = ParamStore::new();
        let w = store.register("enc.w", Matrix::eye(2));
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(3, 2, 1.0));
        let wv = tape.param(&store, w);
        let h = tape.matmul(x, wv);
        let _dead = tape.square(x); // computed, never used
        let s = tape.square(h);
        let loss = tape.mean_all(s);
        let manifest = PhaseManifest::new("test.dead").update(w.index(), "enc.w");
        let report = analyze_tape(&tape.export_ir(&store), loss.index(), &manifest);
        assert!(report.has_rule("tape.dead-node"), "{report}");
        assert!(!report.is_pass());
    }

    #[test]
    fn shape_mismatched_fused_op_is_flagged() {
        // The live tape asserts this shape at construction, so the defect
        // is seeded in a hand-built IR — exactly what a miscompiled or
        // hand-rolled graph would look like.
        let node = |id: usize, op: IrOp, rows: usize, cols: usize| TapeIrNode {
            id,
            op,
            rows,
            cols,
            needs_grad: true,
            value_finite: true,
            param: None,
        };
        let ir = TapeIr {
            nodes: vec![
                TapeIrNode { needs_grad: false, ..node(0, IrOp::Leaf, 4, 3) },
                TapeIrNode {
                    param: Some(IrParam { index: 0, name: "enc.b".into() }),
                    ..node(1, IrOp::Leaf, 1, 5) // bias width 5 against a 3-wide input
                },
                node(2, IrOp::AddBiasAct { x: 0, bias: 1, act: FusedAct::Relu }, 4, 3),
                node(3, IrOp::Square { a: 2 }, 4, 3),
                node(4, IrOp::MeanAll { a: 3 }, 1, 1),
            ],
        };
        let manifest = PhaseManifest::new("test.shape").update(0, "enc.b");
        let report = analyze_tape(&ir, 4, &manifest);
        assert!(report.has_rule("tape.shape-mismatch"), "{report}");
        assert!(!report.is_pass());
    }

    #[test]
    fn nonfinite_leaf_contaminates_the_loss() {
        let store = ParamStore::new();
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(1, 2, vec![1.0, f32::NAN]));
        let s = tape.square(x);
        let loss = tape.mean_all(s);
        let manifest = PhaseManifest::new("test.nan");
        let report = analyze_tape(&tape.export_ir(&store), loss.index(), &manifest);
        assert!(report.has_rule("tape.nonfinite-value"), "{report}");
        assert!(report.has_rule("tape.nan-path"), "{report}");
    }

    #[test]
    fn saturating_guard_downgrades_the_nan_path_warning() {
        // leaf(1e30) → square overflows to +inf (a manufacture site), but
        // the sigmoid behind it saturates back to finite — the source
        // error stays, the unguarded-path warning goes away.
        let store = ParamStore::new();
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(1, 2, 1.0e30));
        let sq = tape.square(x);
        let guarded = tape.sigmoid(sq);
        let loss = tape.mean_all(guarded);
        let manifest = PhaseManifest::new("test.guarded");
        let report = analyze_tape(&tape.export_ir(&store), loss.index(), &manifest);
        assert!(report.has_rule("tape.nonfinite-value"), "{report}");
        assert!(!report.has_rule("tape.nan-path"), "{report}");
    }

    #[test]
    fn nonfinite_scale_constant_is_flagged() {
        let store = ParamStore::new();
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(1, 2, 1.0));
        let s = tape.scale(x, f32::NAN);
        let loss = tape.mean_all(s);
        let manifest = PhaseManifest::new("test.nan-const");
        let report = analyze_tape(&tape.export_ir(&store), loss.index(), &manifest);
        assert!(report.has_rule("tape.nonfinite-value"), "{report}");
    }

    #[test]
    fn out_of_range_loss_short_circuits() {
        let ir = TapeIr::default();
        let report = analyze_tape(&ir, 0, &PhaseManifest::new("test.range"));
        assert!(report.has_rule("tape.shape-mismatch"));
    }

    #[test]
    fn every_emitted_diagnostic_carries_a_registry_hint() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::eye(2));
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(2, 2, 1.0));
        let _unused = tape.param(&store, w);
        let s = tape.square(x);
        let _dead = tape.square(s);
        let loss = tape.mean_all(s);
        let manifest = PhaseManifest::new("test.hints").update(w.index(), "w");
        let report = analyze_tape(&tape.export_ir(&store), loss.index(), &manifest);
        assert!(!report.is_empty());
        for d in &report.diagnostics {
            assert!(d.hint.as_deref().is_some_and(|h| !h.is_empty()), "{d}");
        }
    }
}
