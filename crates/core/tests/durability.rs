//! Durability drills for the guarded training loops: every fault class the
//! harness can inject must be (a) recovered from under the default retry
//! budget, (b) surfaced as a structured error when the budget is zero, and
//! (c) — for kills — resumable to a bitwise-identical trajectory.

// Test code: unwrap on a just-produced result is the assertion itself.
#![allow(clippy::unwrap_used, clippy::panic)]

use adec_core::guard::faults::{bit_flip_file, truncate_file, FaultKind, FaultPlan};
use adec_core::guard::{DurabilityConfig, GuardConfig, TrainError};
use adec_core::prelude::*;
use adec_core::pretrain::PretrainConfig;
use adec_core::ArchPreset;
use adec_datagen::{Benchmark, Size};
use adec_nn::{Checkpoint, CheckpointError};
use std::path::PathBuf;

fn fresh_session(seed: u64) -> (adec_datagen::Dataset, Session) {
    let ds = Benchmark::Protein.generate(Size::Small, seed);
    let session = Session::new(&ds, ArchPreset::Medium, seed);
    (ds, session)
}

fn pretrained(seed: u64) -> (adec_datagen::Dataset, Session) {
    let (ds, mut session) = fresh_session(seed);
    session
        .pretrain(&PretrainConfig {
            iterations: 200,
            ..PretrainConfig::vanilla_fast()
        })
        .unwrap();
    (ds, session)
}

fn dec_cfg(k: usize, faults: FaultPlan) -> DecConfig {
    DecConfig {
        max_iter: 240,
        faults,
        ..DecConfig::fast(k)
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adec_core_durability_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// (a) Every recoverable fault class heals under the default retry budget.
// ---------------------------------------------------------------------------

#[test]
fn nan_loss_is_recovered() {
    let (ds, mut session) = pretrained(31);
    let cfg = dec_cfg(ds.n_classes, FaultPlan::single(FaultKind::NanLoss, 60));
    let out = session.run_dec(&cfg).unwrap();
    assert_eq!(out.labels.len(), ds.len());
}

#[test]
fn exploding_loss_is_recovered() {
    let (ds, mut session) = pretrained(32);
    let cfg = dec_cfg(ds.n_classes, FaultPlan::single(FaultKind::ExplodeLoss, 60));
    let out = session.run_dec(&cfg).unwrap();
    assert_eq!(out.labels.len(), ds.len());
}

#[test]
fn centroid_collapse_is_recovered() {
    let (ds, mut session) = pretrained(33);
    let cfg = dec_cfg(ds.n_classes, FaultPlan::single(FaultKind::Collapse, 60));
    let out = session.run_dec(&cfg).unwrap();
    assert_eq!(out.labels.len(), ds.len());
}

#[test]
fn faults_recover_in_adec_too() {
    let (ds, mut session) = pretrained(34);
    let cfg = AdecConfig {
        max_iter: 240,
        faults: FaultPlan::single(FaultKind::NanLoss, 60),
        ..AdecConfig::fast(ds.n_classes)
    };
    let out = session.run_adec(&cfg).unwrap();
    assert_eq!(out.labels.len(), ds.len());
}

#[test]
fn pretraining_recovers_from_nan_loss() {
    let (_ds, mut session) = fresh_session(35);
    let stats = session
        .pretrain(&PretrainConfig {
            iterations: 200,
            faults: FaultPlan::single(FaultKind::NanLoss, 50),
            ..PretrainConfig::vanilla_fast()
        })
        .unwrap();
    assert!(stats.final_reconstruction_mse.is_finite());
}

// ---------------------------------------------------------------------------
// (b) With a zero retry budget the same faults surface as structured errors.
// ---------------------------------------------------------------------------

#[test]
fn exhausted_retry_budget_surfaces_unrecoverable() {
    for kind in [FaultKind::NanLoss, FaultKind::ExplodeLoss, FaultKind::Collapse] {
        let (ds, mut session) = pretrained(36);
        let cfg = DecConfig {
            guard: GuardConfig {
                max_retries: 0,
                ..GuardConfig::default()
            },
            ..dec_cfg(ds.n_classes, FaultPlan::single(kind, 60))
        };
        let err = session.run_dec(&cfg).unwrap_err();
        assert!(
            matches!(err, TrainError::Unrecoverable { .. } | TrainError::Diverged { .. }),
            "{kind:?}: unexpected error {err}"
        );
    }
}

#[test]
fn disabled_guard_lets_faults_through_silently() {
    // With the guard off, an injected NaN is not caught — the run completes
    // (assignments come from whatever the store degraded to). This pins the
    // opt-out escape hatch.
    let (ds, mut session) = pretrained(37);
    let cfg = DecConfig {
        guard: GuardConfig {
            enabled: false,
            ..GuardConfig::default()
        },
        ..dec_cfg(ds.n_classes, FaultPlan::single(FaultKind::NanLoss, 60))
    };
    let out = session.run_dec(&cfg).unwrap();
    assert_eq!(out.labels.len(), ds.len());
}

#[test]
fn kill_fault_aborts_with_structured_error() {
    let (ds, mut session) = pretrained(38);
    let cfg = dec_cfg(ds.n_classes, FaultPlan::single(FaultKind::Kill, 60));
    let err = session.run_dec(&cfg).unwrap_err();
    match err {
        TrainError::Killed { phase, iter } => {
            assert_eq!(phase, "dec");
            assert_eq!(iter, 60);
        }
        other => panic!("expected Killed, got {other}"),
    }
}

// ---------------------------------------------------------------------------
// (c) Kill + resume replays the uninterrupted trajectory bitwise, for every
//     trainer on the shared clustering loop.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Trainer {
    Dec,
    Idec,
    Dcn,
    Adec,
}

impl Trainer {
    /// The checkpoint phase (and file stem) the trainer writes.
    fn phase(self) -> &'static str {
        match self {
            Trainer::Dec => "dec",
            Trainer::Idec => "idec",
            Trainer::Dcn => "dcn",
            Trainer::Adec => "adec",
        }
    }

    /// Runs the trainer for 240 iterations (refresh points at 0 and 140).
    fn run(
        self,
        session: &mut Session,
        k: usize,
        faults: FaultPlan,
        durability: DurabilityConfig,
    ) -> Result<ClusterOutput, TrainError> {
        match self {
            Trainer::Dec => session.run_dec(&DecConfig {
                durability,
                ..dec_cfg(k, faults)
            }),
            Trainer::Idec => session.run_idec(&IdecConfig {
                max_iter: 240,
                faults,
                durability,
                ..IdecConfig::fast(k)
            }),
            Trainer::Dcn => session.run_dcn(&DcnConfig {
                max_iter: 240,
                faults,
                durability,
                ..DcnConfig::fast(k)
            }),
            Trainer::Adec => session.run_adec(&AdecConfig {
                max_iter: 240,
                // Blocks of 3 put the refresh at 140 mid-block (140 mod 6
                // = 2), so a resume must restore the block counter too.
                aux_iterations: 3,
                faults,
                durability,
                ..AdecConfig::fast(k)
            }),
        }
    }
}

/// Kills `trainer` at iteration 145, resumes it in a fresh session from
/// the checkpoint written at 140, and requires the uninterrupted run's
/// labels, iteration count and final checkpoint bytes.
fn kill_and_resume_is_bitwise_identical(trainer: Trainer) {
    let phase = trainer.phase();
    let dir_a = tmp_dir(&format!("ref_{phase}"));
    let dir_b = tmp_dir(&format!("killed_{phase}"));
    let rolling = |dir: &PathBuf, resume: Option<Checkpoint>| DurabilityConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 1,
        resume,
    };
    let k;
    let reference = {
        let (ds, mut session) = pretrained(39);
        k = ds.n_classes;
        trainer
            .run(&mut session, k, FaultPlan::default(), rolling(&dir_a, None))
            .unwrap()
    };

    // Same seed, killed mid-run.
    let (_ds, mut session) = pretrained(39);
    let killed = trainer.run(
        &mut session,
        k,
        FaultPlan::single(FaultKind::Kill, 145),
        rolling(&dir_b, None),
    );
    assert!(
        matches!(killed.unwrap_err(), TrainError::Killed { iter: 145, .. }),
        "{phase}: expected a kill at 145"
    );
    let ckpt_path = dir_b.join(format!("{phase}.ckpt"));
    let ckpt = Checkpoint::load(&ckpt_path).unwrap();
    assert_eq!(ckpt.iter, 140, "{phase}: resuming from the wrong checkpoint");

    // Fresh session, resume from the mid-run checkpoint. The checkpoint
    // restores weights, optimizer moments, RNG and the trainer's loop
    // state, so the continuation must reproduce the reference run exactly
    // — including its final checkpoint bytes.
    let (_ds, mut session) = pretrained(39);
    let resumed = trainer
        .run(&mut session, k, FaultPlan::default(), rolling(&dir_b, Some(ckpt)))
        .unwrap();

    assert_eq!(reference.labels, resumed.labels, "{phase}: labels differ");
    assert_eq!(reference.iterations, resumed.iterations, "{phase}: iterations differ");
    assert_eq!(reference.converged, resumed.converged, "{phase}: convergence differs");
    assert_eq!(
        std::fs::read(dir_a.join(format!("{phase}.ckpt"))).unwrap(),
        std::fs::read(&ckpt_path).unwrap(),
        "{phase}: final checkpoint bytes differ after resume"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn dec_kill_and_resume_is_bitwise_identical() {
    kill_and_resume_is_bitwise_identical(Trainer::Dec);
}

#[test]
fn idec_kill_and_resume_is_bitwise_identical() {
    kill_and_resume_is_bitwise_identical(Trainer::Idec);
}

#[test]
fn dcn_kill_and_resume_is_bitwise_identical() {
    kill_and_resume_is_bitwise_identical(Trainer::Dcn);
}

#[test]
fn adec_kill_and_resume_is_bitwise_identical() {
    kill_and_resume_is_bitwise_identical(Trainer::Adec);
}

// ---------------------------------------------------------------------------
// Damaged checkpoint files are refused with typed errors, never half-loaded.
// ---------------------------------------------------------------------------

#[test]
fn truncated_and_corrupted_checkpoints_are_refused() {
    let dir = tmp_dir("damage");
    let (ds, mut session) = pretrained(40);
    let cfg = DecConfig {
        durability: DurabilityConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            resume: None,
        },
        ..dec_cfg(ds.n_classes, FaultPlan::default())
    };
    session.run_dec(&cfg).unwrap();
    let path = dir.join("dec.ckpt");
    let pristine = std::fs::read(&path).unwrap();

    truncate_file(&path, (pristine.len() / 2) as u64).unwrap();
    assert!(matches!(
        Checkpoint::load(&path).unwrap_err(),
        CheckpointError::Truncated
    ));

    std::fs::write(&path, &pristine).unwrap();
    bit_flip_file(&path, pristine.len() - 1, 0x01).unwrap();
    assert!(matches!(
        Checkpoint::load(&path).unwrap_err(),
        CheckpointError::BadChecksum { .. }
    ));

    std::fs::write(&path, &pristine).unwrap();
    bit_flip_file(&path, 0, 0x01).unwrap();
    assert!(matches!(
        Checkpoint::load(&path).unwrap_err(),
        CheckpointError::BadMagic
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
