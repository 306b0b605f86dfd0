//! Source lint pass over the workspace's own `.rs` files.
//!
//! The scanner masks out comments and string literals with a small
//! character-level state machine, tracks `#[cfg(test)]` regions by brace
//! depth, and then applies a fixed rule set to what remains:
//!
//! * `lint.unwrap` / `lint.expect` / `lint.panic` — banned in non-test
//!   library code (tests, benches, examples, and binary entry points are
//!   exempt).
//! * `lint.obs-eprintln` — bare `eprintln!` in library code; diagnostics
//!   must go through `adec_obs::emit` (Warn/Error events mirror to
//!   stderr), keeping every message structured and capturable.
//! * `lint.float-eq` — `==`/`!=` with a float literal on either side.
//! * `lint.as-narrowing` — unchecked `as` casts to a narrower integer type
//!   in kernel code (`crates/tensor`, `crates/nn`).
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
//! Any line (or its predecessor) may carry `// lint:allow(rule)` to
//! suppress a finding; the [`Baseline`] machinery grandfathers historical
//! findings per `(rule, file)` and ratchets the count downward.

use crate::diagnostics::{Diagnostic, Report};
use std::collections::{BTreeMap, BTreeSet};
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

/// Path classes that are exempt from the panic-family rules.
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

/// Kernel crates where the `as-narrowing` rule applies.
fn is_kernel_path(rel: &str) -> bool {
    rel.starts_with("crates/tensor/src/") || rel.starts_with("crates/nn/src/")
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

fn is_float_literal(token: &str) -> bool {
    let t = token.trim_end_matches("f32").trim_end_matches("f64").trim_end_matches('_');
    let mut chars = t.chars();
    let Some(first) = chars.next() else { return false };
    first.is_ascii_digit() && t.contains('.') && t.chars().all(|c| c.is_ascii_digit() || c == '.' || c == '_')
}

fn token_before(line: &str, idx: usize) -> &str {
    let head = line[..idx].trim_end();
    let start = head
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
        .map_or(0, |p| p + c_len(head, p));
    &head[start..]
}

fn token_after(line: &str, idx: usize) -> &str {
    let tail = line[idx..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
        .unwrap_or(tail.len());
    &tail[..end]
}

fn c_len(s: &str, byte_pos: usize) -> usize {
    s[byte_pos..].chars().next().map_or(1, char::len_utf8)
}

/// True when `needle` occurs in `line` followed by a non-identifier
/// character (or end of line).
fn has_cast_to(line: &str, needle: &str) -> bool {
    let mut search = line;
    let mut offset = 0;
    while let Some(pos) = search.find(needle) {
        let end = offset + pos + needle.len();
        let boundary = line[end..]
            .chars()
            .next()
            .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'));
        if boundary {
            return true;
        }
        search = &search[pos + needle.len()..];
        offset = end;
    }
    false
}

/// Lints one file's source text. `rel` is the workspace-relative path with
/// forward slashes; it selects which rule groups apply.
pub fn lint_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let masked = mask_source(src);
    let masked_lines: Vec<&str> = masked.lines().collect();
    let raw_lines: Vec<&str> = src.lines().collect();
    let allows: Vec<BTreeSet<String>> = raw_lines.iter().map(|l| allows_on_line(l)).collect();
    let allowed = |line_idx: usize, rule: &str| -> bool {
        allows.get(line_idx).is_some_and(|s| s.contains(rule))
            || (line_idx > 0 && allows.get(line_idx - 1).is_some_and(|s| s.contains(rule)))
    };

    // Mark #[cfg(test)] regions: from the attribute to the close of the
    // brace block it introduces.
    let mut in_test = vec![false; masked_lines.len()];
    let mut depth: i32 = 0;
    let mut test_until: Option<i32> = None; // region open while depth > this
    let mut pending_test_attr = false;
    for (li, line) in masked_lines.iter().enumerate() {
        if line.contains("#[cfg(test)]") {
            pending_test_attr = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    if pending_test_attr && test_until.is_none() {
                        test_until = Some(depth);
                        pending_test_attr = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(floor) = test_until {
                        if depth <= floor {
                            test_until = None;
                        }
                    }
                }
                _ => {}
            }
        }
        in_test[li] = test_until.is_some() || pending_test_attr;
    }

    let exempt = is_exempt_path(rel);
    let kernel = is_kernel_path(rel);
    let mut out = Vec::new();

    for (li, line) in masked_lines.iter().enumerate() {
        let line_no = li + 1;
        let loc = || format!("{rel}:{line_no}");
        let lib_code = !exempt && !in_test[li];

        if lib_code {
            if line.contains(".unwrap()") && !allowed(li, "unwrap") {
                out.push(
                    Diagnostic::error("lint.unwrap", loc(), "`.unwrap()` in library code")
                        .with_hint("propagate the error, restructure to make the case impossible, or justify with // lint:allow(unwrap)"),
                );
            }
            if line.contains(".expect(") && !allowed(li, "expect") {
                out.push(
                    Diagnostic::error("lint.expect", loc(), "`.expect(...)` in library code")
                        .with_hint("propagate the error or justify with // lint:allow(expect)"),
                );
            }
            if line.contains("panic!(") && !allowed(li, "panic") {
                out.push(
                    Diagnostic::error("lint.panic", loc(), "`panic!` in library code")
                        .with_hint("return a Result or justify with // lint:allow(panic)"),
                );
            }
            if line.contains("eprintln!(") && !allowed(li, "obs-eprintln") {
                out.push(
                    Diagnostic::error("lint.obs-eprintln", loc(), "bare `eprintln!` in library code")
                        .with_hint("emit an adec_obs Warn/Error event (which mirrors to stderr), or justify with // lint:allow(obs-eprintln)"),
                );
            }
            for op in ["==", "!="] {
                let mut from = 0;
                while let Some(pos) = line[from..].find(op) {
                    let idx = from + pos;
                    let before = token_before(line, idx);
                    let after = token_after(line, idx + op.len());
                    if (is_float_literal(before) || is_float_literal(after)) && !allowed(li, "float-eq") {
                        out.push(
                            Diagnostic::error(
                                "lint.float-eq",
                                loc(),
                                format!("float comparison `{before} {op} {after}`"),
                            )
                            .with_hint("compare with a tolerance, or justify an exact-representation case with // lint:allow(float-eq)"),
                        );
                        break; // one finding per line is enough
                    }
                    from = idx + op.len();
                }
            }
            if kernel
                && ["u8", "u16", "u32", "i8", "i16", "i32"].iter().any(|t| has_cast_to(line, &format!(" as {t}")))
                && !allowed(li, "as-narrowing")
            {
                out.push(
                    Diagnostic::error("lint.as-narrowing", loc(), "unchecked narrowing `as` cast in kernel code")
                        .with_hint("use try_from/TryInto, assert the range first, or justify with // lint:allow(as-narrowing)"),
                );
            }
            if line.contains(".value(")
                && line.contains(".clone()")
                && !is_detach_exempt_path(rel)
                && !allowed(li, "silent-detach")
            {
                out.push(
                    Diagnostic::error(
                        "lint.silent-detach",
                        loc(),
                        "tape value cloned off the graph in training-path code",
                    )
                    .with_hint(
                        "keep the computation on the tape so the backward edge is recorded, \
                         use infer() for an intentional stop-gradient, or justify with \
                         // lint:allow(silent-detach)",
                    ),
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
                    .with_hint("open the body with assert!/debug_assert! on the argument dimensions, or justify with // lint:allow(kernel-assert)"),
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

/// Grandfathered finding counts per `(rule, file)`, with a downward
/// ratchet: a file may keep its historical findings but may not add more.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<(String, String), usize>,
}

impl Baseline {
    /// An empty baseline (every finding is new).
    pub fn new() -> Self {
        Baseline::default()
    }

    /// Parses the `rule <TAB> file <TAB> count` format; `#` lines are
    /// comments.
    pub fn parse(text: &str) -> Self {
        let mut counts = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(rule), Some(file), Some(count)) = (parts.next(), parts.next(), parts.next()) else {
                continue;
            };
            if let Ok(n) = count.parse::<usize>() {
                counts.insert((rule.to_string(), file.to_string()), n);
            }
        }
        Baseline { counts }
    }

    /// Builds a baseline that grandfathers every finding in `report`.
    pub fn from_report(report: &Report) -> Self {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for d in &report.diagnostics {
            let file = d.location.split(':').next().unwrap_or(&d.location).to_string();
            *counts.entry((d.rule.to_string(), file)).or_insert(0) += 1;
        }
        Baseline { counts }
    }

    /// Renders the persistable form.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# adec-lint baseline: grandfathered findings per (rule, file).\n\
             # Regenerate with `cargo run -p adec-analysis --bin adec-lint -- --write-baseline`.\n\
             # The gate fails only on findings beyond these counts (downward ratchet).\n",
        );
        for ((rule, file), n) in &self.counts {
            out.push_str(&format!("{rule}\t{file}\t{n}\n"));
        }
        out
    }

    /// True when nothing is grandfathered.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Returns the findings in `report` that exceed the grandfathered
    /// count for their `(rule, file)` bucket. Within a bucket the earliest
    /// findings are considered grandfathered.
    pub fn filter_new(&self, report: &Report) -> Report {
        let mut seen: BTreeMap<(String, String), usize> = BTreeMap::new();
        let mut out = Report::new();
        for d in &report.diagnostics {
            let file = d.location.split(':').next().unwrap_or(&d.location).to_string();
            let key = (d.rule.to_string(), file);
            let used = seen.entry(key.clone()).or_insert(0);
            *used += 1;
            let budget = self.counts.get(&key).copied().unwrap_or(0);
            if *used > budget {
                out.push(d.clone());
            }
        }
        out
    }
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
        let src = "fn f(b: u8) -> bool { b == b'\"' }\nfn g() { x.unwrap(); }\nfn h() { y.unwrap(); }\n";
        let diags = lint_source(LIB, src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].location.ends_with(":2"));
        assert!(diags[1].location.ends_with(":3"));
    }

    #[test]
    fn string_continuation_keeps_line_numbers_aligned() {
        let src = "fn f() -> String {\n    String::from(\n        \"line one\\n\\\n         line two\",\n    )\n}\nfn g() { x.unwrap(); }\n";
        let diags = lint_source(LIB, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].location.ends_with(":7"), "{diags:?}");
    }

    #[test]
    fn unwrap_in_lib_code_is_flagged() {
        let diags = lint_source(LIB, "pub fn f() { let x = maybe().unwrap(); }\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "lint.unwrap");
        assert!(diags[0].location.ends_with(":1"));
    }

    #[test]
    fn unwrap_in_string_or_comment_is_ignored() {
        let diags = lint_source(LIB, "// call .unwrap() here\nlet s = \".unwrap()\";\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn lint_allow_suppresses_same_and_next_line() {
        let same = "pub fn f() { x.unwrap() } // lint:allow(unwrap)\n";
        assert!(lint_source(LIB, same).is_empty());
        let above = "// invariant: always present -- lint:allow(unwrap)\npub fn f() { x.unwrap() }\n";
        assert!(lint_source(LIB, above).is_empty());
        let prefixed = "pub fn f() { x.unwrap() } // lint:allow(lint.unwrap)\n";
        assert!(lint_source(LIB, prefixed).is_empty());
        let wrong_rule = "pub fn f() { x.unwrap() } // lint:allow(panic)\n";
        assert_eq!(lint_source(LIB, wrong_rule).len(), 1);
    }

    #[test]
    fn expect_and_panic_are_flagged_and_test_code_is_exempt() {
        let src = "fn a() { b().expect(\"msg\"); }\nfn c() { panic!(\"no\"); }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); panic!(\"ok in tests\"); }\n}\n";
        let diags = lint_source(LIB, src);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["lint.expect", "lint.panic"], "{diags:?}");
    }

    #[test]
    fn bare_eprintln_in_lib_code_is_flagged() {
        let diags = lint_source(LIB, "pub fn f() { eprintln!(\"adec: warning: x\"); }\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "lint.obs-eprintln");

        // The escape hatch works on the same and the preceding line.
        let same = "pub fn f() { eprintln!(\"x\"); } // lint:allow(obs-eprintln)\n";
        assert!(lint_source(LIB, same).is_empty());
        let above = "// console output -- lint:allow(obs-eprintln)\npub fn f() { eprintln!(\"x\"); }\n";
        assert!(lint_source(LIB, above).is_empty());

        // Test code and exempt paths (main.rs, tests, benches) stay free.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { eprintln!(\"dbg\"); }\n}\n";
        assert!(lint_source(LIB, in_test).is_empty());
        assert!(lint_source("crates/cli/src/main.rs", "fn main() { eprintln!(\"x\"); }\n").is_empty());
    }

    #[test]
    fn exempt_paths_skip_panic_family() {
        for path in [
            "crates/demo/tests/t.rs",
            "tests/properties.rs",
            "crates/bench/benches/b.rs",
            "crates/cli/src/main.rs",
            "crates/analysis/src/bin/adec-lint.rs",
        ] {
            assert!(lint_source(path, "fn f() { x.unwrap(); }").is_empty(), "{path}");
        }
    }

    #[test]
    fn float_eq_catches_literal_comparisons() {
        let diags = lint_source(LIB, "fn f(x: f32) -> bool { x == 0.5 }\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "lint.float-eq");
        let neq = lint_source(LIB, "fn f(x: f32) -> bool { 1.0f32 != x }\n");
        assert_eq!(neq.len(), 1);
        // Integer comparisons and tolerance idioms pass.
        assert!(lint_source(LIB, "fn g(n: usize) -> bool { n == 0 }\n").is_empty());
        assert!(lint_source(LIB, "fn h(x: f32) -> bool { (x - 0.5).abs() < 1e-6 }\n").is_empty());
    }

    #[test]
    fn narrowing_casts_flagged_only_in_kernel_crates() {
        let src = "fn f(n: usize) -> u32 { n as u32 }\n";
        let kernel = lint_source("crates/tensor/src/rng.rs", src);
        assert_eq!(kernel.len(), 1);
        assert_eq!(kernel[0].rule, "lint.as-narrowing");
        assert!(lint_source("crates/metrics/src/lib.rs", src).is_empty());
        // Widening and float casts are fine even in kernels.
        assert!(lint_source("crates/tensor/src/rng.rs", "fn f(n: u32) -> u64 { n as u64 }\n").is_empty());
        assert!(lint_source("crates/tensor/src/rng.rs", "fn f(n: usize) -> f32 { n as f32 }\n").is_empty());
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
        // The rest of the serve crate is covered by the generic
        // unwrap/expect/panic bans, not the kernel-assert rule.
        assert!(lint_source("crates/serve/src/server.rs", bad).is_empty());
        let request_path = "fn handle(&self) {\n    self.q.pop().unwrap();\n}\n";
        let diags = lint_source("crates/serve/src/server.rs", request_path);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "lint.unwrap");
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
    }

    #[test]
    fn pub_fn_without_matrix_args_is_not_assert_checked() {
        let src = "impl Matrix {\n    pub fn rows(&self) -> usize {\n        self.rows\n    }\n}\n";
        assert!(lint_source("crates/tensor/src/matrix.rs", src).is_empty());
    }

    #[test]
    fn baseline_roundtrip_and_ratchet() {
        let mut report = Report::new();
        report.push(Diagnostic::error("lint.unwrap", "a.rs:3", "x"));
        report.push(Diagnostic::error("lint.unwrap", "a.rs:9", "y"));
        report.push(Diagnostic::error("lint.panic", "b.rs:1", "z"));
        let base = Baseline::from_report(&report);
        let reparsed = Baseline::parse(&base.render());
        assert_eq!(base, reparsed);
        // Same findings: nothing new.
        assert!(base.filter_new(&report).is_empty());
        // One extra unwrap in a.rs: exactly the excess is reported.
        report.push(Diagnostic::error("lint.unwrap", "a.rs:20", "w"));
        let fresh = base.filter_new(&report);
        assert_eq!(fresh.diagnostics.len(), 1);
        assert!(fresh.diagnostics[0].location.ends_with(":20"));
        // Fewer findings than baseline also passes (ratchet direction).
        let mut reduced = Report::new();
        reduced.push(Diagnostic::error("lint.unwrap", "a.rs:3", "x"));
        assert!(base.filter_new(&reduced).is_empty());
    }

    #[test]
    fn empty_baseline_reports_everything() {
        let mut report = Report::new();
        report.push(Diagnostic::error("lint.unwrap", "a.rs:3", "x"));
        assert_eq!(Baseline::new().filter_new(&report).diagnostics.len(), 1);
    }
}
