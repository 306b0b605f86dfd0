//! Source lint pass over the workspace's own `.rs` files, for the two
//! domain rules clippy cannot express.
//!
//! The scanner masks out comments and string literals with a small
//! character-level state machine, tracks `#[cfg(test)]` regions by brace
//! depth, and then applies two rules to what remains:
//!
//! * `lint.kernel-assert` — every `pub fn` in the tensor kernels
//!   (`matrix.rs`, `linalg.rs`, `kernels.rs`), the training guard, and the
//!   serving model (`crates/serve/src/model.rs`, whose matrix-taking entry
//!   points face network input) taking a `&Matrix`/`&[f32]` must open with
//!   a dimension assert.
//! * `lint.silent-detach` — cloning a value off a live tape
//!   (`.value(..)..clone()` on one line) in training-path library code.
//!   A cloned tape value carries no backward edge, so gradients silently
//!   stop at the copy — exactly the feature-drift failure mode the ADEC
//!   paper's alternated training exists to avoid. The tape's own autodiff
//!   internals (`crates/nn/src/tape.rs`) and inference/serving paths
//!   (`crates/serve/`), where detaching is the point, are exempt.
//!
//! The generic rules — no `unwrap`/`expect`/`panic!` or bare `eprintln!`
//! in library code, no exact float comparison, no narrowing or
//! sign-changing casts in the kernel crates — are clippy's: see
//! `[workspace.lints.clippy]` in the root `Cargo.toml`, the crate roots of
//! `adec-tensor` and `adec-nn`, and the perfbench step of `scripts/check.sh`.
//!
//! Any line (or its predecessor) may carry `// lint:allow(rule)` to
//! suppress a finding; `allow_hatch` reads that syntax for every scan in
//! this crate.

use crate::diagnostics::{registry_hint, Diagnostic, Report};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// How many lines into a kernel `pub fn` body we look for the opening
/// dimension assert.
const KERNEL_ASSERT_WINDOW: usize = 12;

/// Replaces the contents of comments, string literals, and char literals
/// with spaces, preserving length and line structure so byte offsets and
/// line numbers still line up with the original.
pub fn mask_source(src: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Chr,
    }
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let next = if i + 1 < bytes.len() { bytes[i + 1] } else { 0 };
        match st {
            St::Code => {
                if b == b'/' && next == b'/' {
                    st = St::LineComment;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'/' && next == b'*' {
                    st = St::BlockComment(1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'"' {
                    st = St::Str;
                    out.push(b' ');
                    i += 1;
                } else if b == b'r' && (next == b'"' || next == b'#') && !prev_is_ident(bytes, i) {
                    // Raw string r"..." or r#"..."# (count the hashes).
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while j < bytes.len() && bytes[j] == b'#' {
                        hashes += 1;
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j] == b'"' {
                        out.extend(std::iter::repeat_n(b' ', j - i + 1));
                        i = j + 1;
                        st = St::RawStr(hashes);
                    } else {
                        out.push(b);
                        i += 1;
                    }
                } else if b == b'\'' && is_char_literal(bytes, i) {
                    st = St::Chr;
                    out.push(b' ');
                    i += 1;
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            St::LineComment => {
                if b == b'\n' {
                    st = St::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
            St::BlockComment(depth) => {
                if b == b'*' && next == b'/' {
                    st = if depth == 1 { St::Code } else { St::BlockComment(depth - 1) };
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'/' && next == b'*' {
                    st = St::BlockComment(depth + 1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            St::Str => {
                if b == b'\\' {
                    // Preserve line structure when the escape is a \<newline>
                    // string continuation.
                    out.push(b' ');
                    out.push(if next == b'\n' { b'\n' } else { b' ' });
                    i += 2;
                } else if b == b'"' {
                    st = St::Code;
                    out.push(b' ');
                    i += 1;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if b == b'"' {
                    let end = i + 1 + hashes;
                    if end <= bytes.len() && bytes[i + 1..end].iter().all(|&c| c == b'#') {
                        out.extend(std::iter::repeat_n(b' ', hashes + 1));
                        i = end;
                        st = St::Code;
                        continue;
                    }
                }
                out.push(if b == b'\n' { b'\n' } else { b' ' });
                i += 1;
            }
            St::Chr => {
                if b == b'\\' {
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'\'' {
                    st = St::Code;
                    out.push(b' ');
                    i += 1;
                } else {
                    out.push(b' ');
                    i += 1;
                }
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// Distinguishes a char literal from a lifetime at a `'` in code position.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    if prev_is_ident(bytes, i) {
        // A byte-char literal b'x' is the one place an identifier char may
        // directly precede the quote.
        let byte_prefix = bytes[i - 1] == b'b' && (i < 2 || !prev_is_ident(bytes, i - 1));
        if !byte_prefix {
            return false;
        }
    }
    match bytes.get(i + 1) {
        Some(b'\\') => true,                       // '\n', '\'', '\u{..}'
        Some(_) => bytes.get(i + 2) == Some(&b'\''), // 'x'
        None => false,
    }
}

/// Path classes exempt from `lint.silent-detach`: tests, benches,
/// examples and binary entry points.
fn is_exempt_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.contains("/bin/")
        || rel.ends_with("/main.rs")
        || rel.ends_with("/build.rs")
}

/// Paths where detaching a value from the tape is legitimate and the
/// `silent-detach` rule stays quiet: the tape's own backward pass reads
/// recorded values to build gradients, and inference/serving code runs
/// with no tape at all.
fn is_detach_exempt_path(rel: &str) -> bool {
    rel == "crates/nn/src/tape.rs" || rel.starts_with("crates/serve/")
}

/// Tensor kernel files where every matrix-taking `pub fn` must open with a
/// dimension assert. The training guard qualifies too: its matrix-taking
/// health checks sit on every epoch's hot path and must reject degenerate
/// shapes before scanning. The serving model is on the list because its
/// matrix-taking entry points sit on the request path, where a degenerate
/// shape arrives from the network, not from our own code. The load
/// harness's quantile estimator qualifies for the same reason: the bucket
/// slices it takes come from scraped histograms, and a bounds/cumulative
/// length mismatch silently misreports the SLO. The serve fleet and model
/// registry qualify because their matrix-taking entry points (if any are
/// ever added) would sit on the reload/request path, staged from
/// checkpoint bytes read off disk rather than from our own code. The
/// drift sentinel, the change detectors it is built on, and the stream
/// simulator qualify because their slice/matrix-taking entry points are
/// fed from live traffic, scraped statistics, and generated streams —
/// a silent shape mismatch there corrupts an alarm decision. The trace
/// ring and the tape-op profiler qualify because they sit on every
/// request / every tape push: any future slice-taking entry point there
/// would be hot-path code fed by untrusted span and op streams.
fn needs_kernel_asserts(rel: &str) -> bool {
    rel == "crates/tensor/src/matrix.rs"
        || rel == "crates/tensor/src/linalg.rs"
        || rel == "crates/tensor/src/kernels.rs"
        || rel == "crates/core/src/guard.rs"
        || rel == "crates/serve/src/model.rs"
        || rel == "crates/serve/src/registry.rs"
        || rel == "crates/serve/src/fleet.rs"
        || rel == "crates/serve/src/drift.rs"
        || rel == "crates/metrics/src/detect.rs"
        || rel == "crates/datagen/src/stream.rs"
        || rel == "crates/loadgen/src/stats.rs"
        || rel == "crates/obs/src/trace.rs"
        || rel == "crates/nn/src/profiler.rs"
}

/// Parses every `lint:allow(a, b)` occurrence on a line into rule names
/// (with or without the `lint.` prefix).
fn allows_on_line(line: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut rest = line;
    while let Some(pos) = rest.find("lint:allow(") {
        let after = &rest[pos + "lint:allow(".len()..];
        if let Some(close) = after.find(')') {
            for rule in after[..close].split(',') {
                let rule = rule.trim().trim_start_matches("lint.");
                if !rule.is_empty() {
                    out.insert(rule.to_string());
                }
            }
            rest = &after[close + 1..];
        } else {
            break;
        }
    }
    out
}

/// The `// lint:allow(rule)` escape hatch of `src`: a predicate on a
/// 0-based line index and a rule name (without the `lint.` prefix) that
/// holds when that line or the one before it allows the rule.
pub(crate) fn allow_hatch(src: &str) -> impl Fn(usize, &str) -> bool {
    let allows: Vec<BTreeSet<String>> = src.lines().map(allows_on_line).collect();
    move |line_idx, rule| {
        let names = |i: usize| allows.get(i).is_some_and(|s| s.contains(rule));
        names(line_idx) || (line_idx > 0 && names(line_idx - 1))
    }
}

/// Lints one file's source text. `rel` is the workspace-relative path with
/// forward slashes; it selects which rules apply.
pub fn lint_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let masked = mask_source(src);
    let masked_lines: Vec<&str> = masked.lines().collect();
    let allowed = allow_hatch(src);

    // Mark #[cfg(test)] regions: from the attribute to the close of the
    // brace block it introduces. A `;` at the attribute's nesting before
    // any `{` ends a braceless item (`#[cfg(test)] use std::fmt;`), which
    // must not lend its test status to the next braced item.
    let mut in_test = vec![false; masked_lines.len()];
    let mut depth: i32 = 0;
    let mut nest: i32 = 0; // open `(`/`[` at any brace depth
    let mut test_until: Option<i32> = None; // region open while depth > this
    let mut pending_test_attr: Option<(i32, i32)> = None; // (depth, nest) at the attribute
    for (li, line) in masked_lines.iter().enumerate() {
        let attr_at = line.find("#[cfg(test)]");
        for (ci, c) in line.char_indices() {
            if Some(ci) == attr_at && test_until.is_none() {
                pending_test_attr = Some((depth, nest));
            }
            match c {
                '{' => {
                    if pending_test_attr.take().is_some() {
                        test_until = Some(depth);
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_until.is_some_and(|floor| depth <= floor) {
                        test_until = None;
                    }
                }
                '(' | '[' => nest += 1,
                ')' | ']' => nest -= 1,
                ';' if pending_test_attr == Some((depth, nest)) => pending_test_attr = None,
                _ => {}
            }
        }
        in_test[li] = test_until.is_some() || pending_test_attr.is_some();
    }

    let mut out = Vec::new();
    if !is_exempt_path(rel) && !is_detach_exempt_path(rel) {
        for (li, line) in masked_lines.iter().enumerate() {
            if !in_test[li]
                && line.contains(".value(")
                && line.contains(".clone()")
                && !allowed(li, "silent-detach")
            {
                out.push(
                    Diagnostic::error(
                        "lint.silent-detach",
                        format!("{rel}:{}", li + 1),
                        "tape value cloned off the graph in training-path code",
                    )
                    .with_hint(registry_hint("lint.silent-detach")),
                );
            }
        }
    }

    if needs_kernel_asserts(rel) {
        kernel_assert_pass(rel, &masked_lines, &allowed, &mut out);
    }
    out
}

/// Checks that each `pub fn` taking a `&Matrix`/`&[f32]` opens with an
/// assert within the first [`KERNEL_ASSERT_WINDOW`] body lines.
fn kernel_assert_pass(
    rel: &str,
    masked_lines: &[&str],
    allowed: &dyn Fn(usize, &str) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    let mut li = 0;
    while li < masked_lines.len() {
        let line = masked_lines[li];
        let Some(fn_pos) = line.find("pub fn ") else {
            li += 1;
            continue;
        };
        // Join the signature until its opening brace.
        let mut sig = String::from(&line[fn_pos..]);
        let mut body_start = li;
        let mut guard = 0;
        while !sig.contains('{') && guard < 8 {
            body_start += 1;
            guard += 1;
            if let Some(next) = masked_lines.get(body_start) {
                sig.push(' ');
                sig.push_str(next);
            } else {
                break;
            }
        }
        let sig_only = sig.split('{').next().unwrap_or("");
        // Only the parameter list counts — a `-> &[f32]` return type must
        // not trigger the rule.
        let params = sig_only.split("->").next().unwrap_or("");
        let takes_kernel_args = params.contains("&Matrix")
            || params.contains("& Matrix")
            || params.contains("&[f32]")
            || params.contains("&[f64]");
        if takes_kernel_args && !allowed(li, "kernel-assert") {
            // Scan at most KERNEL_ASSERT_WINDOW lines, stopping at the fn's
            // closing brace so a neighbour's asserts can't satisfy the rule.
            let mut fn_depth: i32 = 0;
            let mut entered = false;
            let mut has_check = false;
            let window_end = (body_start + 1 + KERNEL_ASSERT_WINDOW).min(masked_lines.len());
            'scan: for l in &masked_lines[body_start..window_end] {
                if l.contains("assert") || l.contains("Err(") {
                    has_check = true;
                    break;
                }
                for c in l.chars() {
                    match c {
                        '{' => {
                            fn_depth += 1;
                            entered = true;
                        }
                        '}' => {
                            fn_depth -= 1;
                            if entered && fn_depth <= 0 {
                                break 'scan;
                            }
                        }
                        _ => {}
                    }
                }
            }
            if !has_check {
                out.push(
                    Diagnostic::error(
                        "lint.kernel-assert",
                        format!("{rel}:{}", li + 1),
                        format!(
                            "kernel `pub fn` takes matrix/slice arguments but has no dimension assert in its first {KERNEL_ASSERT_WINDOW} body lines"
                        ),
                    )
                    .with_hint(registry_hint("lint.kernel-assert")),
                );
            }
        }
        li = body_start + 1;
    }
}

/// Recursively collects workspace-relative paths of `.rs` files under
/// `root`, skipping build output and VCS metadata. Sorted for determinism.
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "node_modules" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Lints every `.rs` file in the workspace rooted at `root`. Findings are
/// ordered by (file, line).
pub fn lint_workspace(root: &Path) -> Report {
    let mut report = Report::new();
    for path in collect_rs_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = fs::read_to_string(&path) else { continue };
        report.diagnostics.extend(lint_source(&rel, &src));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/demo/src/kernel.rs";

    #[test]
    fn masking_strips_strings_comments_and_char_literals() {
        let src = "let s = \"x.unwrap()\"; // panic!(boom)\nlet c = '\"'; let l: &'static str = r#\"f!(\"#;";
        let masked = mask_source(src);
        assert!(!masked.contains("unwrap"));
        assert!(!masked.contains("panic"));
        assert!(!masked.contains("f!("));
        assert!(masked.contains("let s ="));
        assert!(masked.contains("&'static str"));
        assert_eq!(masked.lines().count(), src.lines().count());
    }

    #[test]
    fn byte_char_literal_with_quote_does_not_desync() {
        // b'"' once flipped the string-masking phase and inverted every
        // finding after it.
        let src = "fn f(b: u8) -> bool { b == b'\"' }\nfn g() { t.value(x).clone(); }\nfn h() { t.value(y).clone(); }\n";
        let diags = lint_source(LIB, src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].location.ends_with(":2"));
        assert!(diags[1].location.ends_with(":3"));
    }

    #[test]
    fn string_continuation_keeps_line_numbers_aligned() {
        let src = "fn f() -> String {\n    String::from(\n        \"line one\\n\\\n         line two\",\n    )\n}\nfn g() { t.value(x).clone(); }\n";
        let diags = lint_source(LIB, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].location.ends_with(":7"), "{diags:?}");
    }

    #[test]
    fn detach_in_string_or_comment_is_ignored() {
        let diags = lint_source(LIB, "// call .value(z).clone() here\nlet s = \".value(z).clone()\";\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn lint_allow_suppresses_same_and_next_line() {
        let same = "pub fn f() { t.value(x).clone() } // lint:allow(silent-detach)\n";
        assert!(lint_source(LIB, same).is_empty());
        let above = "// detached on purpose -- lint:allow(silent-detach)\npub fn f() { t.value(x).clone() }\n";
        assert!(lint_source(LIB, above).is_empty());
        let prefixed = "pub fn f() { t.value(x).clone() } // lint:allow(lint.silent-detach)\n";
        assert!(lint_source(LIB, prefixed).is_empty());
        let listed = "pub fn f() { t.value(x).clone() } // lint:allow(reduction-order, silent-detach)\n";
        assert!(lint_source(LIB, listed).is_empty());
        let wrong_rule = "pub fn f() { t.value(x).clone() } // lint:allow(kernel-assert)\n";
        assert_eq!(lint_source(LIB, wrong_rule).len(), 1);
        let two_above = "// lint:allow(silent-detach)\n\npub fn f() { t.value(x).clone() }\n";
        assert_eq!(lint_source(LIB, two_above).len(), 1);
    }

    #[test]
    fn exempt_paths_skip_silent_detach() {
        for path in [
            "crates/demo/tests/t.rs",
            "tests/properties.rs",
            "crates/bench/benches/b.rs",
            "examples/demo.rs",
            "crates/cli/src/main.rs",
            "crates/core/src/bin/tool.rs",
        ] {
            assert!(lint_source(path, "fn f() { t.value(x).clone(); }").is_empty(), "{path}");
        }
        assert_eq!(lint_source(LIB, "fn f() { t.value(x).clone(); }").len(), 1);
    }

    #[test]
    fn kernel_assert_rule_wants_early_dimension_checks() {
        let good = "impl Matrix {\n    pub fn matmul(&self, other: &Matrix) -> Matrix {\n        assert_eq!(self.cols, other.rows);\n        body()\n    }\n}\n";
        assert!(lint_source("crates/tensor/src/matrix.rs", good).is_empty());
        let bad = "impl Matrix {\n    pub fn matmul(&self, other: &Matrix) -> Matrix {\n        body()\n    }\n}\n";
        let diags = lint_source("crates/tensor/src/matrix.rs", bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "lint.kernel-assert");
        // The same file outside the kernel list is not checked.
        assert!(lint_source("crates/nn/src/layers.rs", bad).is_empty());
        // The kernels module itself is on the list.
        let kernel_bad = "pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {\n    body()\n}\n";
        let diags = lint_source("crates/tensor/src/kernels.rs", kernel_bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "lint.kernel-assert");
        // Allowable.
        let allowed = "impl Matrix {\n    // shape-oblivious by design -- lint:allow(kernel-assert)\n    pub fn scale(&self, xs: &[f32]) -> Matrix {\n        body()\n    }\n}\n";
        assert!(lint_source("crates/tensor/src/matrix.rs", allowed).is_empty());
    }

    #[test]
    fn serving_model_is_on_the_kernel_assert_list() {
        // The serving model's matrix-taking entry points face network
        // input, so the same opening-assert discipline applies there.
        let bad = "impl InferenceModel {\n    pub fn assign(&self, x: &Matrix) -> Vec<usize> {\n        body()\n    }\n}\n";
        let diags = lint_source("crates/serve/src/model.rs", bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "lint.kernel-assert");
        // The rest of the serve crate is not on the kernel list.
        assert!(lint_source("crates/serve/src/server.rs", bad).is_empty());
    }

    #[test]
    fn drift_pipeline_files_are_on_the_kernel_assert_list() {
        // The sentinel, the detectors under it, and the stream simulator
        // all take slices/matrices born outside our own code (live
        // traffic, scraped stats, generated streams): opening asserts
        // are what keeps a shape mismatch from corrupting an alarm.
        let bad = "pub fn window_signals(xs: &[f32]) -> f32 {\n    body()\n}\n";
        for rel in [
            "crates/serve/src/drift.rs",
            "crates/metrics/src/detect.rs",
            "crates/datagen/src/stream.rs",
        ] {
            let diags = lint_source(rel, bad);
            assert_eq!(diags.len(), 1, "{rel}: {diags:?}");
            assert_eq!(diags[0].rule, "lint.kernel-assert", "{rel}");
        }
        let good = "pub fn window_signals(xs: &[f32]) -> f32 {\n    assert!(!xs.is_empty());\n    body()\n}\n";
        assert!(lint_source("crates/serve/src/drift.rs", good).is_empty());
        // Sibling files in those crates stay off the kernel list.
        assert!(lint_source("crates/metrics/src/tradeoff.rs", bad).is_empty());
        assert!(lint_source("crates/datagen/src/digits.rs", bad).is_empty());
    }

    #[test]
    fn trace_and_profiler_files_are_on_the_kernel_assert_list() {
        // The trace ring and tape-op profiler run on every request /
        // every tape push; slice-taking entry points there must validate
        // their shapes up front like any other hot-path kernel.
        let bad = "pub fn weighted_stages(ms: &[f64]) -> f64 {\n    body()\n}\n";
        for rel in ["crates/obs/src/trace.rs", "crates/nn/src/profiler.rs"] {
            let diags = lint_source(rel, bad);
            assert!(
                diags.iter().any(|d| d.rule == "lint.kernel-assert"),
                "{rel}: {diags:?}"
            );
        }
        let good = "pub fn weighted_stages(ms: &[f64]) -> f64 {\n    assert!(!ms.is_empty());\n    body()\n}\n";
        assert!(lint_source("crates/obs/src/trace.rs", good)
            .iter()
            .all(|d| d.rule != "lint.kernel-assert"));
        // Sibling files in those crates stay off the kernel list.
        assert!(lint_source("crates/obs/src/span.rs", bad)
            .iter()
            .all(|d| d.rule != "lint.kernel-assert"));
    }

    #[test]
    fn load_stats_is_on_the_kernel_assert_list() {
        // The quantile estimator consumes scraped histogram slices; a
        // bounds/cumulative mismatch silently misreports the SLO, so the
        // opening-assert discipline applies — including to `&[f64]`
        // parameters, which the kernel crates themselves never use.
        let bad = "pub fn quantile(bounds: &[f64], cumulative: &[u64]) -> f64 {\n    body()\n}\n";
        let diags = lint_source("crates/loadgen/src/stats.rs", bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "lint.kernel-assert");
        let good = "pub fn quantile(bounds: &[f64], cumulative: &[u64]) -> f64 {\n    assert!(cumulative.len() == bounds.len() + 1);\n    body()\n}\n";
        assert!(lint_source("crates/loadgen/src/stats.rs", good).is_empty());
        // The rest of the loadgen crate is not on the kernel list.
        assert!(lint_source("crates/loadgen/src/client.rs", bad).is_empty());
        // A `-> &[f64]` return type alone must not trigger the rule.
        let ret_only = "pub fn bounds(&self) -> &[f64] {\n    body()\n}\n";
        assert!(lint_source("crates/loadgen/src/stats.rs", ret_only).is_empty());
    }

    #[test]
    fn silent_detach_is_flagged_in_training_code() {
        let src = "pub fn step(tape: &Tape, z: Var) -> Matrix {\n    let frozen = tape.value(z).clone();\n    frozen\n}\n";
        let diags = lint_source("crates/core/src/adec.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "lint.silent-detach");
        assert!(diags[0].location.ends_with(":2"));
        assert!(diags[0].hint.is_some());
    }

    #[test]
    fn silent_detach_exempts_tape_internals_and_serve_paths() {
        let src = "fn backward_piece(t: &Tape, z: Var) {\n    let zv = t.value(z).clone();\n    use_it(zv);\n}\n";
        assert!(lint_source("crates/nn/src/tape.rs", src).is_empty());
        assert!(lint_source("crates/serve/src/model.rs", src).is_empty());
        // Reading a value without cloning it is fine anywhere.
        let read_only = "fn peek(t: &Tape, z: Var) -> f32 { t.value(z).mean() }\n";
        assert!(lint_source("crates/core/src/dec.rs", read_only).is_empty());
    }

    #[test]
    fn silent_detach_allow_hatch_and_test_exemption() {
        let allowed =
            "// target distribution is detached by design -- lint:allow(silent-detach)\nlet p = tape.value(q).clone();\n";
        assert!(lint_source("crates/core/src/dec.rs", allowed).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { let v = tape.value(z).clone(); }\n}\n";
        assert!(lint_source("crates/core/src/dec.rs", in_test).is_empty());
        // The `;` inside `[f32; 4]` does not end the attributed item.
        let test_fn = "#[cfg(test)]\nfn helper(t: &Tape) -> [f32; 4] {\n    let v = t.value(z).clone();\n}\n";
        assert!(lint_source("crates/core/src/dec.rs", test_fn).is_empty());
    }

    #[test]
    fn cfg_test_on_a_braceless_item_leaves_the_next_item_linted() {
        // The `;` ends the attribute's item, so the function after it is
        // library code and its detach is a finding.
        let src = "#[cfg(test)]\nuse std::fmt;\npub fn step(tape: &Tape, z: Var) -> Matrix {\n    tape.value(z).clone()\n}\n";
        let diags = lint_source("crates/core/src/adec.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].location.ends_with(":4"), "{diags:?}");
    }

    #[test]
    fn pub_fn_without_matrix_args_is_not_assert_checked() {
        let src = "impl Matrix {\n    pub fn rows(&self) -> usize {\n        self.rows\n    }\n}\n";
        assert!(lint_source("crates/tensor/src/matrix.rs", src).is_empty());
    }
}
