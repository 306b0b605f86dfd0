//! Determinism auditor: proves the bit-reproducibility invariant instead
//! of assuming it.
//!
//! The kernel layer's contract (see `adec-tensor`) is that results are
//! bit-identical at any `ADEC_THREADS` and at any instruction-set level,
//! because parallelism only ever splits *output ownership* — every element
//! is written by exactly one chunk — and every reduction, in every
//! compiled clone of the gemm, walks its inner dimension ascending with a
//! single accumulator. This module attacks that contract from two sides:
//!
//! * **Schedule-permutation harness** ([`audit_schedule_determinism`]):
//!   runs the real pool-parallel kernels under adversarial schedules —
//!   every instruction-set level this CPU runs
//!   (`adec_tensor::kernels::Isa::available`), crossed with thread counts
//!   {1, 2, 4} and rotated chunk launch orders
//!   (`adec_tensor::pool::set_schedule_rotation`) — and requires the
//!   output bits to match the scalar serial reference exactly
//!   (`det.schedule-divergence` otherwise).
//! * **Static reduction scan** ([`audit_reduction_source`]): scans
//!   `kernels.rs`/`pool.rs` for reduction loops that violate the
//!   ascending-index single-accumulator discipline — a `.rev()`/
//!   descending-range iteration feeding a `+=` accumulation reassociates
//!   the float sum and silently shifts trajectories
//!   (`det.reduction-order`).
//!
//! Both surfaces emit the shared [`Diagnostic`] vocabulary, so `adec
//! --check --deep` renders them next to tape and arch findings.

use crate::diagnostics::{registry_hint, Diagnostic, Report};
use crate::lint::{allow_hatch, mask_source};
use adec_tensor::kernels::{self, set_isa_override, FusedAct, Isa};
use adec_tensor::pool::{set_schedule_rotation, set_thread_override};
use adec_tensor::{Matrix, SeedRng};
use std::path::Path;
use std::sync::Mutex;

/// Serializes harness runs: the pool's thread override, the schedule
/// rotation and the kernel level are process-global, so two concurrent audits (e.g. parallel
/// `#[test]`s) would corrupt each other's reference runs.
static SCHEDULE_LOCK: Mutex<()> = Mutex::new(());

/// Thread counts the harness sweeps. `1` is the serial reference.
pub const AUDIT_THREADS: [usize; 3] = [1, 2, 4];

/// Chunk-launch rotations the harness sweeps at each thread count.
pub const AUDIT_ROTATIONS: [usize; 3] = [0, 1, 3];

/// Runs `kernel` under every audited schedule — each available
/// instruction-set level × [`AUDIT_THREADS`] × [`AUDIT_ROTATIONS`] — and
/// reports `det.schedule-divergence` wherever its output bits differ from
/// the reference at (`scalar`, 1 thread, rotation 0). The kernel is
/// re-invoked per schedule, so it must be a pure function of its captured
/// inputs.
///
/// Restores the pool and the kernel level it found before returning.
pub fn audit_kernel_schedules<F>(name: &str, mut kernel: F) -> Report
where
    F: FnMut() -> Vec<f32>,
{
    let _guard = SCHEDULE_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let found_isa = Isa::active();
    let mut report = Report::new();
    set_isa_override(Isa::Scalar);
    set_thread_override(1);
    set_schedule_rotation(0);
    let reference = kernel();
    for &isa in Isa::available() {
        set_isa_override(isa);
        for threads in AUDIT_THREADS {
            for rotation in AUDIT_ROTATIONS {
                set_thread_override(threads);
                set_schedule_rotation(rotation);
                let out = kernel();
                let identical = out.len() == reference.len()
                    && out
                        .iter()
                        .zip(reference.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !identical {
                    report.push(
                        Diagnostic::error(
                            "det.schedule-divergence",
                            format!("kernel \"{name}\""),
                            format!(
                                "output bits diverge from the scalar serial reference at isa={isa} threads={threads} rotation={rotation}"
                            ),
                        )
                        .with_hint(registry_hint("det.schedule-divergence")),
                    );
                }
            }
        }
    }
    set_schedule_rotation(0);
    set_thread_override(0);
    set_isa_override(found_isa);
    report
}

/// The fixed kernel suite: every pool-parallel kernel in `adec-tensor`,
/// at shapes large enough to cross [`adec_tensor::pool::PARALLEL_MIN_WORK`]
/// so the parallel path genuinely runs. Seeded, so every invocation audits
/// the same computation.
pub fn audit_schedule_determinism() -> Report {
    let mut rng = SeedRng::new(0xDE7);
    let a = Matrix::randn(96, 64, 0.0, 1.0, &mut rng);
    let b = Matrix::randn(64, 48, 0.0, 1.0, &mut rng);
    let at = Matrix::randn(64, 96, 0.0, 1.0, &mut rng);
    let bt = Matrix::randn(48, 64, 0.0, 1.0, &mut rng);
    let wide = Matrix::randn(256, 256, 0.0, 1.0, &mut rng);
    let wide2 = Matrix::randn(256, 256, 0.0, 1.0, &mut rng);
    let bias: Vec<f32> = (0..256).map(|i| (i as f32) * 0.01 - 1.0).collect();
    let t: Vec<f32> = (0..256).map(|i| (i as f32) / 256.0).collect();

    let mut report = Report::new();
    report.extend(audit_kernel_schedules("matmul", || {
        kernels::matmul(&a, &b).as_slice().to_vec()
    }));
    report.extend(audit_kernel_schedules("matmul_at_b", || {
        kernels::matmul_at_b(&at, &b).as_slice().to_vec()
    }));
    report.extend(audit_kernel_schedules("matmul_a_bt", || {
        kernels::matmul_a_bt(&a, &bt).as_slice().to_vec()
    }));
    report.extend(audit_kernel_schedules("add_bias_act", || {
        kernels::add_bias_act(&wide, &bias, FusedAct::Tanh).as_slice().to_vec()
    }));
    report.extend(audit_kernel_schedules("row_lerp", || {
        kernels::row_lerp(&wide, &wide2, &t).as_slice().to_vec()
    }));
    report
}

/// Window (in lines) after a descending iteration within which a `+=`
/// accumulation is attributed to that loop.
const REDUCTION_WINDOW: usize = 6;

/// Statically scans one source file for reduction loops that violate the
/// ascending-index single-accumulator discipline: a `for` iterating a
/// reversed range (`.rev()`) or stepping downward, with a float `+=`
/// accumulation inside the loop window. Comments and string literals are
/// masked first, and a `// lint:allow(reduction-order)` on the flagged
/// line (or the line before) suppresses the finding — the lint pass's
/// escape hatch, read by the same parser.
pub fn audit_reduction_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let masked = mask_source(src);
    let lines: Vec<&str> = masked.lines().collect();
    let allowed = allow_hatch(src);
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let descending = line.contains("for ") && line.contains(".rev()");
        if !descending {
            continue;
        }
        if allowed(i, "reduction-order") {
            continue;
        }
        for offset in 1..=REDUCTION_WINDOW {
            let Some(body) = lines.get(i + offset) else { break };
            if body.contains("+=") && !allowed(i + offset, "reduction-order") {
                out.push(
                    Diagnostic::error(
                        "det.reduction-order",
                        format!("{rel}:{}", i + 1),
                        format!(
                            "descending iteration accumulates with `+=` on line {}; \
                             reductions must walk ascending with a single accumulator",
                            i + offset + 1
                        ),
                    )
                    .with_hint(registry_hint("det.reduction-order")),
                );
                break;
            }
        }
    }
    out
}

/// Scans the kernel-discipline source files (`kernels.rs`, `pool.rs`,
/// `matrix.rs`) under `root` for reduction-order violations. Files that do
/// not exist are skipped silently: the analyzer also runs from installed
/// binaries where no checkout is present, and the runtime harness still
/// covers those builds.
pub fn audit_reduction_workspace(root: &Path) -> Report {
    let mut report = Report::new();
    for rel in [
        "crates/tensor/src/kernels.rs",
        "crates/tensor/src/pool.rs",
        "crates/tensor/src/matrix.rs",
    ] {
        if let Ok(src) = std::fs::read_to_string(root.join(rel)) {
            for d in audit_reduction_source(rel, &src) {
                report.push(d);
            }
        }
    }
    report
}

#[cfg(test)]
// Test code: unwraps are the assertions themselves here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn real_kernels_are_schedule_invariant() {
        let report = audit_schedule_determinism();
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn seeded_schedule_dependent_kernel_is_caught() {
        // A kernel that (wrongly) lets the chunk *launch rank* leak into
        // its output: the canonical violation the harness exists for.
        let rows = 64;
        let cols = 1024; // rows*cols ≥ PARALLEL_MIN_WORK → parallel path
        let report = audit_kernel_schedules("seeded-divergence", || {
            let rank = AtomicUsize::new(0);
            let mut out = vec![0.0f32; rows * cols];
            adec_tensor::pool::parallel_rows(&mut out, rows, cols, usize::MAX, |_, _, chunk| {
                let r = rank.fetch_add(1, Ordering::SeqCst);
                for v in chunk.iter_mut() {
                    *v = r as f32;
                }
            });
            out
        });
        assert!(report.has_rule("det.schedule-divergence"), "{report}");
        assert!(!report.is_pass());
    }

    #[test]
    fn isa_dependent_kernel_is_caught_and_named() {
        // A kernel whose bits depend on the instruction-set level: what an
        // AVX2 clone that reassociated its sums would look like.
        let report = audit_kernel_schedules("seeded-isa-divergence", || {
            vec![if Isa::active() == Isa::Scalar { 0.0 } else { 1.0 }]
        });
        if Isa::available().len() > 1 {
            assert!(report.has_rule("det.schedule-divergence"), "{report}");
            assert!(report.to_string().contains("isa=avx2"), "{report}");
        } else {
            // One level only: nothing to diverge from.
            assert!(report.is_empty(), "{report}");
        }
    }

    #[test]
    fn descending_reduction_is_caught_with_correct_rule_id() {
        let src = "\
pub fn dot_rev(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for k in (0..a.len()).rev() {
        acc += a[k] * b[k];
    }
    acc
}
";
        let findings = audit_reduction_source("fixtures/bad_kernel.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "det.reduction-order");
        assert!(findings[0].location.contains("bad_kernel.rs:3"));
        assert!(findings[0].hint.is_some());
    }

    #[test]
    fn allow_escape_hatch_suppresses_the_scan() {
        let src = "\
fn walk_back(xs: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    // lint:allow(reduction-order) -- order-insensitive integer walk
    for k in (0..xs.len()).rev() {
        acc += 1.0;
    }
    acc
}
";
        assert!(audit_reduction_source("x.rs", src).is_empty());
        // The list form names several rules in one hatch, as in the lint
        // pass.
        let listed = src.replace(
            "lint:allow(reduction-order)",
            "lint:allow(reduction-order, silent-detach)",
        );
        assert!(audit_reduction_source("x.rs", &listed).is_empty());
        let other_rule = src.replace("lint:allow(reduction-order)", "lint:allow(silent-detach)");
        assert_eq!(audit_reduction_source("x.rs", &other_rule).len(), 1);
    }

    #[test]
    fn reversed_loop_without_accumulation_is_fine() {
        let src = "\
fn drain(xs: &mut Vec<f32>) {
    for k in (0..xs.len()).rev() {
        xs.remove(k);
    }
}
";
        assert!(audit_reduction_source("x.rs", src).is_empty());
    }

    #[test]
    fn shipped_kernel_sources_scan_clean() {
        // The workspace root is two levels up from this crate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = audit_reduction_workspace(&root);
        assert!(report.is_empty(), "{report}");
    }
}
