//! The workspace lint gate: `cargo test` fails when a banned pattern is
//! introduced in library code without a `// lint:allow(rule)` justification
//! or a baseline entry.

// Test code: indexing into just-collected findings is the assertion here.
#![allow(clippy::indexing_slicing)]

use adec_analysis::{lint_workspace, Baseline};
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
    let root = workspace_root();
    let full = lint_workspace(&root);
    let baseline = std::fs::read_to_string(root.join("crates/analysis/lint.baseline"))
        .map(|text| Baseline::parse(&text))
        .unwrap_or_default();
    let fresh = baseline.filter_new(&full);
    assert!(
        fresh.is_pass(),
        "new lint findings beyond the baseline ({} error(s)):\n{}",
        fresh.error_count(),
        fresh
    );
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
