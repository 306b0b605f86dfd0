//! Structured diagnostics shared by every analysis pass.
//!
//! Each finding carries a stable rule id, a severity, a human-readable
//! location, a message, and (when the checker knows one) a fix hint, so
//! callers can render, filter, and gate on findings programmatically
//! instead of parsing strings.

use std::fmt;

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Stylistic or suspicious-but-plausible; never fails a gate alone.
    Warning,
    /// A definite violation; gates (constructors, CLI `--check`, the lint
    /// test) fail when at least one error is present.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single finding from an analysis pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `arch.chain-dim-mismatch` or
    /// `lint.silent-detach`. Tests key on this.
    pub rule: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Where it was found — `chain "encoder" layer 2` for architecture
    /// findings, `path/to/file.rs:41` for lint findings.
    pub location: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the checker knows.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(rule: &'static str, location: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
            hint: None,
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(rule: &'static str, location: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Warning,
            location: location.into(),
            message: message.into(),
            hint: None,
        }
    }

    /// Attaches a fix hint.
    #[must_use]
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}: {}", self.severity, self.rule, self.location, self.message)?;
        if let Some(hint) = &self.hint {
            write!(f, "\n  hint: {hint}")?;
        }
        Ok(())
    }
}

/// The outcome of one analysis pass: an ordered list of findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Merges another report into this one.
    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity findings only.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// True when no finding has error severity (warnings allowed).
    pub fn is_pass(&self) -> bool {
        self.error_count() == 0
    }

    /// True when there are no findings at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any finding uses the given rule id.
    pub fn has_rule(&self, rule: &str) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    /// Sorts findings into the canonical order: errors before warnings,
    /// then by rule id, location, and message. After this, rendering is a
    /// pure function of the finding *set* — two passes that discover the
    /// same findings in different orders display identically.
    pub fn canonical_sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.rule.cmp(b.rule))
                .then_with(|| a.location.cmp(&b.location))
                .then_with(|| a.message.cmp(&b.message))
        });
    }
}

/// Registry entry for one rule id: its pass family, default severity,
/// one-line summary, and the canonical fix hint.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule id (`family.name`).
    pub id: &'static str,
    /// Severity the rule fires at.
    pub severity: Severity,
    /// What the rule detects.
    pub summary: &'static str,
    /// How to fix a finding.
    pub hint: &'static str,
}

/// Every rule id any pass in this crate can emit, across all four
/// families (`arch.*` spec validation, `lint.*` source scanning, `tape.*`
/// dataflow analysis, `det.*` determinism auditing). Tests assert the ids
/// are unique and each carries a non-empty hint; DESIGN.md §12 renders
/// this table.
pub const RULES: &[RuleInfo] = &[
    // --- arch: declarative architecture validation --------------------
    RuleInfo { id: "arch.empty-chain", severity: Severity::Error, summary: "a layer chain has no layers", hint: "give every ChainSpec at least one LayerSpec" },
    RuleInfo { id: "arch.zero-dim", severity: Severity::Error, summary: "a layer has zero fan-in or fan-out", hint: "all layer dimensions must be >= 1" },
    RuleInfo { id: "arch.chain-dim-mismatch", severity: Severity::Error, summary: "adjacent layers disagree on their shared dimension", hint: "layer i's fan-out must equal layer i+1's fan-in" },
    RuleInfo { id: "arch.data-dim", severity: Severity::Error, summary: "the first encoder layer does not match the data dimension", hint: "set the encoder input width to the dataset's feature count" },
    RuleInfo { id: "arch.mirror-mismatch", severity: Severity::Error, summary: "decoder does not mirror the encoder", hint: "reverse the encoder dims to build the decoder" },
    RuleInfo { id: "arch.coupling-dim-mismatch", severity: Severity::Error, summary: "coupled chains disagree on the handoff dimension", hint: "the producing chain's output width must equal the consumer's input width" },
    RuleInfo { id: "arch.discriminator-output", severity: Severity::Error, summary: "discriminator/critic does not end in a single logit", hint: "give the adversary a final fan-out of 1" },
    RuleInfo { id: "arch.cluster-head", severity: Severity::Error, summary: "centroid matrix shape disagrees with k or the latent dim", hint: "centroids must be k x latent_dim" },
    RuleInfo { id: "arch.param-binding", severity: Severity::Error, summary: "a layer's declared shape disagrees with its bound store parameter", hint: "rebuild the spec from the live store with ChainSpec::from_mlp" },
    RuleInfo { id: "arch.hidden-activation", severity: Severity::Warning, summary: "a hidden layer uses an unusual activation", hint: "ADEC's MLPs use ReLU hidden layers" },
    RuleInfo { id: "arch.optimizer-missing", severity: Severity::Warning, summary: "a chain declares no optimizer", hint: "name the optimizer that updates the chain" },
    RuleInfo { id: "arch.latent-vs-clusters", severity: Severity::Warning, summary: "latent dimension is smaller than the cluster count", hint: "use a latent dim >= k so centroids can separate" },
    // --- lint: source-text scanning (the generic rules are clippy's) -----
    RuleInfo { id: "lint.kernel-assert", severity: Severity::Error, summary: "kernel entry point without a shape assert", hint: "open the body with assert!/debug_assert! on the argument dimensions, or justify with // lint:allow(kernel-assert)" },
    RuleInfo { id: "lint.silent-detach", severity: Severity::Error, summary: "tape output cloned into a detached Matrix outside infer/serve paths", hint: "keep the computation on the tape so the backward edge is recorded, use infer() for an intentional stop-gradient, or justify with // lint:allow(silent-detach)" },
    // --- tape: dataflow analysis over exported tape IR ----------------
    RuleInfo { id: "tape.shape-mismatch", severity: Severity::Error, summary: "a node's recorded shape disagrees with the shape its op implies", hint: "fix the operand shapes; the live tape would assert here at run time" },
    RuleInfo { id: "tape.unreachable-param", severity: Severity::Error, summary: "a parameter this phase must update receives no gradient from the loss", hint: "bind the param into the tape on the loss path, or move it to the phase's frozen list" },
    RuleInfo { id: "tape.unlisted-param", severity: Severity::Warning, summary: "a bound parameter is in neither the updates nor the frozen list", hint: "declare the param in the phase manifest so its role is audited" },
    RuleInfo { id: "tape.double-bind", severity: Severity::Error, summary: "the same parameter is bound into the tape twice without a shared declaration", hint: "bind each param once per tape, or declare it shared in the phase manifest when the reuse is intentional weight sharing" },
    RuleInfo { id: "tape.dead-node", severity: Severity::Error, summary: "a computed node does not feed the loss", hint: "remove the dead computation or connect it to the loss" },
    RuleInfo { id: "tape.nonfinite-value", severity: Severity::Error, summary: "a node holds (or a constant injects) non-finite values", hint: "trace where the NaN/inf entered; upstream guards should have caught it" },
    RuleInfo { id: "tape.nan-path", severity: Severity::Warning, summary: "non-finite values can reach the loss with no saturating guard between", hint: "insert a clamped/saturating op or a finiteness guard on the path" },
    // --- det: determinism auditing ------------------------------------
    RuleInfo { id: "det.reduction-order", severity: Severity::Error, summary: "a reduction loop violates the ascending-k single-accumulator discipline", hint: "accumulate in ascending index order with one accumulator per output element" },
    RuleInfo { id: "det.schedule-divergence", severity: Severity::Error, summary: "a kernel produced different bits under a permuted schedule or another instruction-set level", hint: "make each output element owned by exactly one chunk; never reduce across chunks; keep every ISA clone on the ascending-k single-accumulator order" },
];

/// Looks up a rule id in [`RULES`].
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// The registry's fix hint for `rule` (empty for an unknown id), so every
/// pass attaches the same hint text.
pub(crate) fn registry_hint(rule: &str) -> String {
    rule_info(rule).map(|r| r.hint.to_string()).unwrap_or_default()
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "ok: no findings");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_puts_error_above_warning() {
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn report_gates_on_errors_only() {
        let mut r = Report::new();
        assert!(r.is_pass() && r.is_empty());
        r.push(Diagnostic::warning("arch.hidden-activation", "chain \"encoder\"", "odd activation"));
        assert!(r.is_pass());
        assert!(!r.is_empty());
        r.push(
            Diagnostic::error("arch.chain-dim-mismatch", "chain \"encoder\" layer 1", "500 -> 2000 vs 500")
                .with_hint("layer 1 output must equal layer 2 input"),
        );
        assert!(!r.is_pass());
        assert_eq!(r.error_count(), 1);
        assert!(r.has_rule("arch.chain-dim-mismatch"));
        assert!(!r.has_rule("arch.zero-dim"));
    }

    #[test]
    fn display_includes_rule_location_and_hint() {
        let d = Diagnostic::error("lint.silent-detach", "crates/core/src/adec.rs:50", "tape value cloned")
            .with_hint("keep the computation on the tape");
        let s = d.to_string();
        assert!(s.contains("error[lint.silent-detach]"));
        assert!(s.contains("adec.rs:50"));
        assert!(s.contains("hint:"));
    }
}
