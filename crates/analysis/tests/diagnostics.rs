//! Gate over the diagnostics vocabulary itself: the rule registry must be
//! coherent (unique ids, known families, non-empty summaries and hints),
//! every finding the passes emit must belong to the registry, and report
//! rendering must be a deterministic function of the finding set.

// Test code: panicking on an incoherent registry is the desired behaviour.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use adec_analysis::{lint_source, rule_info, Diagnostic, Report, Severity, RULES};

#[test]
fn rule_ids_are_unique_across_all_families() {
    let mut seen = std::collections::BTreeSet::new();
    for rule in RULES {
        assert!(seen.insert(rule.id), "duplicate rule id {}", rule.id);
    }
}

#[test]
fn rule_ids_use_known_family_prefixes() {
    for rule in RULES {
        let family = rule.id.split('.').next().unwrap_or("");
        assert!(
            matches!(family, "arch" | "lint" | "tape" | "det"),
            "rule {} has unknown family {family:?}",
            rule.id
        );
        assert!(rule.id.split('.').nth(1).is_some_and(|n| !n.is_empty()), "rule {} has no name part", rule.id);
    }
}

#[test]
fn every_rule_carries_a_summary_and_a_hint() {
    for rule in RULES {
        assert!(!rule.summary.trim().is_empty(), "rule {} has an empty summary", rule.id);
        assert!(!rule.hint.trim().is_empty(), "rule {} has an empty hint", rule.id);
    }
}

#[test]
fn every_rule_renders_with_its_hint() {
    for rule in RULES {
        let d = match rule.severity {
            Severity::Error => Diagnostic::error(rule.id, "somewhere", rule.summary),
            Severity::Warning => Diagnostic::warning(rule.id, "somewhere", rule.summary),
        }
        .with_hint(rule.hint);
        let rendered = d.to_string();
        assert!(rendered.contains(&format!("[{}]", rule.id)), "{rendered}");
        assert!(rendered.contains("hint:"), "{rendered}");
        assert!(rendered.contains(rule.hint), "{rendered}");
    }
}

#[test]
fn rule_info_resolves_every_registered_id_and_rejects_unknown() {
    for rule in RULES {
        let info = rule_info(rule.id).unwrap_or_else(|| panic!("rule_info missed {}", rule.id));
        assert_eq!(info.severity, rule.severity);
    }
    assert!(rule_info("tape.not-a-rule").is_none());
    assert!(rule_info("").is_none());
}

#[test]
fn lint_findings_all_belong_to_the_registry_with_matching_severity() {
    // One fixture per lint rule; every finding's id, severity and hint must
    // match its registry entry, and every registered lint rule must fire.
    let fixtures = [
        (
            "crates/tensor/src/kernels.rs",
            "pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {\n    body()\n}\n",
        ),
        ("crates/core/src/adec.rs", "fn f(t: &Tape, z: Var) { let m = t.value(z).clone(); }\n"),
    ];
    let mut rules_hit = std::collections::BTreeSet::new();
    for (rel, src) in fixtures {
        for d in lint_source(rel, src) {
            let info = rule_info(d.rule).unwrap_or_else(|| panic!("unregistered rule {}", d.rule));
            assert_eq!(info.severity, d.severity, "severity drift for {}", d.rule);
            assert_eq!(d.hint.as_deref(), Some(info.hint), "hint drift for {}", d.rule);
            rules_hit.insert(d.rule);
        }
    }
    // Clippy checks the generic rules; the registry keeps only these two.
    let registered: std::collections::BTreeSet<&str> =
        RULES.iter().map(|r| r.id).filter(|id| id.starts_with("lint.")).collect();
    assert_eq!(registered, std::collections::BTreeSet::from(["lint.kernel-assert", "lint.silent-detach"]));
    assert_eq!(rules_hit, registered, "a registered lint rule has no firing fixture");
}

#[test]
fn canonical_sort_makes_rendering_order_independent() {
    let findings = [
        Diagnostic::warning("tape.nan-path", "phase \"adec.encoder\" node 9 (exp)", "unguarded"),
        Diagnostic::error("tape.shape-mismatch", "phase \"adec.encoder\" node 4 (mat_mul)", "inner dims"),
        Diagnostic::error("det.reduction-order", "kernels.rs:10", "descending"),
        Diagnostic::error("det.reduction-order", "kernels.rs:3", "descending"),
        Diagnostic::warning("arch.optimizer-missing", "chain \"decoder\"", "no optimizer"),
    ];

    let mut forward = Report::new();
    for d in &findings {
        forward.push(d.clone());
    }
    let mut backward = Report::new();
    for d in findings.iter().rev() {
        backward.push(d.clone());
    }
    forward.canonical_sort();
    backward.canonical_sort();
    assert_eq!(forward, backward);
    assert_eq!(forward.to_string(), backward.to_string());

    // Errors first, then rule id, then location.
    let order: Vec<(&str, &str)> = forward
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.location.as_str()))
        .collect();
    assert_eq!(
        order,
        vec![
            ("det.reduction-order", "kernels.rs:10"),
            ("det.reduction-order", "kernels.rs:3"),
            ("tape.shape-mismatch", "phase \"adec.encoder\" node 4 (mat_mul)"),
            ("arch.optimizer-missing", "chain \"decoder\""),
            ("tape.nan-path", "phase \"adec.encoder\" node 9 (exp)"),
        ]
    );
}

#[test]
fn empty_report_renders_ok_and_sort_is_idempotent() {
    let mut r = Report::new();
    r.canonical_sort();
    assert_eq!(r.to_string(), "ok: no findings");
    let mut once = Report::new();
    once.push(Diagnostic::error("lint.kernel-assert", "a.rs:1", "x"));
    once.push(Diagnostic::warning("arch.latent-vs-clusters", "head", "tight"));
    once.canonical_sort();
    let rendered = once.to_string();
    once.canonical_sort();
    assert_eq!(once.to_string(), rendered);
}
