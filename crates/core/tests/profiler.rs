//! Acceptance drill for the tape-op profiler: one seeded pipeline over
//! all five trainers must (a) attribute every phase-manifest op to its
//! phase and (b) explain ≥95% of each trainer's measured wall time
//! through its coverage sections.
//!
//! Kept as a single test: the profiler accumulates into process-global
//! state, so the whole drill runs in one deterministic pass.

// Test code: panics are the assertions themselves here.
#![allow(clippy::unwrap_used, clippy::panic)]

use adec_core::profiling::{
    check_manifest_coverage, check_section_coverage, run_profiled_pipeline, ProfileScale,
    TRAINER_PHASES,
};
use adec_nn::profiler::{profile_from_json, profile_to_json};

#[test]
fn profiled_pipeline_covers_manifest_ops_and_phase_wall_time() {
    let profile = match run_profiled_pipeline(11, ProfileScale::quick()) {
        Ok(p) => p,
        Err(e) => panic!("profiled pipeline failed: {e:?}"),
    };

    // Every trainer phase is present with measured wall time and ops.
    for name in TRAINER_PHASES {
        let p = profile.phase(name).unwrap_or_else(|| {
            panic!("trainer phase {name} missing")
        });
        assert!(p.wall_ns > 0, "{name}: no wall time recorded");
        assert!(p.calls >= 1, "{name}: phase guard never closed");
        assert!(!p.sections.is_empty(), "{name}: no coverage sections");
    }

    // (a) runtime op attribution matches the declared per-phase dataflow.
    let manifest_problems = check_manifest_coverage(&profile);
    assert!(
        manifest_problems.is_empty(),
        "manifest coverage violations: {manifest_problems:?}"
    );

    // (b) sections explain >= 95% of each trainer's wall time.
    let section_problems = check_section_coverage(&profile, 0.95);
    assert!(
        section_problems.is_empty(),
        "section coverage violations: {section_problems:?}"
    );

    // The inner step phases carry the FLOP-bearing ops (matmul present
    // with nonzero FLOPs), which is what the roofline table reports.
    for inner in ["dec.kl", "idec.step", "dcn.step", "adec.encoder.kl"] {
        let p = profile.phase(inner).unwrap_or_else(|| {
            panic!("inner phase {inner} missing")
        });
        let mm = p.op("matmul").unwrap_or_else(|| {
            panic!("{inner}: matmul not recorded")
        });
        assert!(mm.flops > 0, "{inner}: matmul recorded zero FLOPs");
        assert!(mm.calls > 0);
    }

    // The profile survives its JSON round trip unchanged (the `adec
    // prof --out` / `--trace-out` interchange format).
    let body = profile_to_json(&profile);
    let back = match profile_from_json(&body) {
        Ok(p) => p,
        Err(e) => panic!("profile JSON did not round-trip: {e}"),
    };
    assert_eq!(back, profile);
}
