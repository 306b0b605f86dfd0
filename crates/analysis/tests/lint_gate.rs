//! The workspace lint gate: `cargo test` fails when a domain rule
//! (`lint.kernel-assert`, `lint.silent-detach`) is broken in library code
//! without a `// lint:allow(rule)` justification, when a clippy lint that
//! replaced a retired source-lint rule is no longer denied (in a crate, or in
//! the perfbench step of `scripts/check.sh`), or when a second `unsafe` site
//! appears.

// Test code: indexing into just-collected findings is the assertion here.
#![allow(clippy::indexing_slicing)]

use adec_analysis::lint_workspace;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
}

#[test]
fn workspace_sources_pass_the_lint_suite() {
    let report = lint_workspace(&workspace_root());
    assert!(report.is_empty(), "{} lint finding(s):\n{report}", report.diagnostics.len());
}

/// The `name = "level"` entries of one `[table]` of a TOML file.
fn toml_table<'a>(toml: &'a str, table: &str) -> Vec<(&'a str, &'a str)> {
    toml.lines()
        .skip_while(|l| l.trim() != table)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim(), v.trim()))
        .collect()
}

#[test]
fn clippy_denies_every_lint_that_replaced_a_retired_lint_rule() {
    // Clippy does not run under `cargo test`, so this is what stops a
    // retired rule's replacement from being dropped silently.
    let root = workspace_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    let clippy = toml_table(&manifest, "[workspace.lints.clippy]");
    for lint in ["unwrap_used", "expect_used", "panic", "float_cmp", "print_stderr"] {
        assert!(
            clippy.contains(&(lint, "\"deny\"")),
            "Cargo.toml [workspace.lints.clippy] must set {lint} = \"deny\", found {clippy:?}"
        );
    }
    // The workspace table binds only the crates that opt into it.
    let mut manifests = vec![root.join("Cargo.toml")];
    if let Ok(dir) = std::fs::read_dir(root.join("crates")) {
        manifests.extend(dir.flatten().map(|e| e.path().join("Cargo.toml")).filter(|p| p.is_file()));
    }
    assert!(manifests.len() > 10, "only {} manifests found — wrong root?", manifests.len());
    for path in &manifests {
        let toml = std::fs::read_to_string(path).unwrap_or_default();
        assert!(
            toml_table(&toml, "[lints]").contains(&("workspace", "true")),
            "{} must set [lints] workspace = true",
            path.display()
        );
    }
    for krate in ["tensor", "nn"] {
        let lib = std::fs::read_to_string(root.join(format!("crates/{krate}/src/lib.rs"))).unwrap_or_default();
        let denied: Vec<&str> = lib
            .lines()
            .filter_map(|l| l.trim().strip_prefix("#![deny(")?.strip_suffix(")]"))
            .flat_map(|list| list.split(',').map(str::trim))
            .collect();
        for lint in ["clippy::cast_possible_truncation", "clippy::cast_sign_loss", "clippy::cast_possible_wrap"] {
            assert!(denied.contains(&lint), "crates/{krate}/src/lib.rs must deny {lint}, denies {denied:?}");
        }
    }
}

#[test]
fn check_sh_holds_perfbench_to_the_panic_family_and_float_rules() {
    // perfbench/ is a workspace of its own: the workspace clippy run and
    // `[workspace.lints]` never reach it, so check.sh runs clippy on it.
    let script = std::fs::read_to_string(workspace_root().join("scripts/check.sh")).unwrap_or_default();
    let joined = script.replace("\\\n", " ");
    let step = joined
        .lines()
        .find(|l| l.starts_with("cargo clippy") && l.contains("--manifest-path perfbench/Cargo.toml"));
    assert!(step.is_some(), "scripts/check.sh must run clippy on perfbench/");
    for lint in ["unwrap_used", "expect_used", "panic", "float_cmp"] {
        let flag = format!("-D clippy::{lint}");
        assert!(step.is_some_and(|s| s.contains(&flag)), "the perfbench clippy step must pass {flag}");
    }
}

#[test]
fn the_scanner_actually_sees_workspace_files() {
    // Guards against the gate silently passing because path resolution broke
    // and zero files were scanned.
    let files = adec_analysis::collect_rs_files(&workspace_root());
    assert!(files.len() > 40, "only {} .rs files found — wrong root?", files.len());
    assert!(files.iter().any(|p| p.ends_with("crates/tensor/src/matrix.rs")));
}

/// Whether a masked source line uses the `unsafe` keyword (`unsafe_code`
/// in a lint attribute is an identifier, not the keyword).
fn uses_unsafe_keyword(line: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices("unsafe").any(|(at, word)| {
        !line[..at].chars().next_back().is_some_and(is_ident)
            && !line[at + word.len()..].chars().next().is_some_and(is_ident)
    })
}

#[test]
fn the_one_unsafe_block_is_the_documented_gemm_dispatch() {
    // (location, in kernels.rs, directly under a `// SAFETY:` comment)
    let mut sites = Vec::new();
    for path in adec_analysis::collect_rs_files(&workspace_root()) {
        let Ok(src) = std::fs::read_to_string(&path) else { continue };
        let raw: Vec<&str> = src.lines().collect();
        for (line, text) in adec_analysis::lint::mask_source(&src).lines().enumerate() {
            if uses_unsafe_keyword(text) {
                let documented = raw[..line]
                    .iter()
                    .rev()
                    .take_while(|l| l.trim_start().starts_with("//"))
                    .last()
                    .is_some_and(|l| l.trim_start().starts_with("// SAFETY:"));
                sites.push((
                    format!("{}:{}", path.display(), line + 1),
                    path.ends_with("crates/tensor/src/kernels.rs"),
                    documented,
                ));
            }
        }
    }
    assert_eq!(sites.len(), 1, "want exactly one `unsafe` site, found {sites:?}");
    let (location, in_kernels, documented) = &sites[0];
    assert!(in_kernels, "the `unsafe` site must be the gemm dispatch in kernels.rs, found {location}");
    assert!(
        documented,
        "{location}: the `unsafe` block must be directly preceded by a `// SAFETY:` comment"
    );
}
