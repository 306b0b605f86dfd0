//! The clustering loop DEC, IDEC, DCN and ADEC share — the skeleton of
//! the paper's Algorithm 1: refresh the targets every `update_interval`
//! iterations, take one minibatch step per iteration, and stop once fewer
//! than `tol` of the labels change between two refreshes.
//!
//! [`ClusterLoop`] owns the kill check, the refresh protocol (guard
//! checks, `mark_good`, rolling checkpoint, [`TracePoint`] and
//! `train.interval` event, label-change stop), the guarded step with its
//! rollback, resumption, the final checkpoint with its
//! [`ReferenceProfile`], and the profiler's `init` / `refresh` / `step` /
//! `finalize` sections. A trainer implements [`ClusterTrainer`]. Every
//! checkpoint's `extra` words start with the driver's `[RunMark, y_prev]`
//! prefix; the trainer's own words follow.

use crate::autoencoder::Autoencoder;
use crate::dec::label_change;
use crate::guard::faults::{ActiveFaults, FaultPlan};
use crate::guard::{
    begin_resume, push_labels, take_labels, DurabilityConfig, ExtraCursor, Fault, GuardConfig,
    RunMark, TrainError, TrainGuard,
};
use crate::trace::{ClusterOutput, TraceConfig, TracePoint, TrainTrace};
use adec_nn::{
    hard_labels, profiler, soft_assignment, Checkpoint, OptState, Optimizer, ParamId,
    ParamStore, ReferenceProfile, Sgd,
};
use adec_tensor::{Matrix, SeedRng};
use std::time::Instant;

/// One clustering run's schedule and policies, as every DEC-family config
/// spells them.
pub(crate) struct ClusterLoop<'a> {
    /// Checkpoint, guard, telemetry and profiler phase ("dec", …).
    pub phase: &'static str,
    pub ae: &'a Autoencoder,
    pub data: &'a Matrix,
    pub max_iter: usize,
    pub update_interval: usize,
    pub tol: f32,
    pub trace: &'a TraceConfig,
    pub guard: &'a GuardConfig,
    pub faults: &'a FaultPlan,
    pub durability: &'a DurabilityConfig,
}

/// The [`ClusterLoop`] of a trainer config: `cluster_loop!("dec", ae,
/// data, cfg)`.
macro_rules! cluster_loop {
    ($phase:literal, $ae:expr, $data:expr, $cfg:ident) => {
        $crate::cluster_loop::ClusterLoop {
            phase: $phase,
            ae: $ae,
            data: $data,
            max_iter: $cfg.max_iter,
            update_interval: $cfg.update_interval,
            tol: $cfg.tol,
            trace: &$cfg.trace,
            guard: &$cfg.guard,
            faults: &$cfg.faults,
            durability: &$cfg.durability,
        }
    };
}
pub(crate) use cluster_loop;

/// What a trainer measures at a refresh point besides ACC/NMI: its mean
/// KL loss (DCN: 0), its latest encoder gradient norm, and Δ_FR / Δ_FD.
#[derive(Debug, Default)]
pub(crate) struct Probe {
    pub kl_loss: f32,
    pub grad_norm: Option<f32>,
    pub delta_fr: Option<f32>,
    pub delta_fd: Option<f32>,
}

/// A step's view of the guard at one iteration.
pub(crate) struct StepCheck<'a> {
    /// The run's guard, for checks beyond the primary loss.
    pub guard: &'a TrainGuard,
    faults: &'a mut ActiveFaults,
    iter: usize,
}

impl StepCheck<'_> {
    /// Checks the step's primary loss, after the fault plan has had its
    /// chance to corrupt it.
    pub fn loss(&mut self, value: f32) -> Result<(), Fault> {
        self.guard.check_loss(self.faults.corrupt_loss(self.iter, value))
    }
}

/// A trainer's part of the loop: everything [`ClusterLoop`] does not own.
pub(crate) trait ClusterTrainer {
    /// The centroid parameter (fault poisoning and the final profile).
    fn centroids(&self) -> ParamId;

    /// Parameters the guard snapshots and rolls back, in a fixed order.
    fn guarded(&self) -> Vec<ParamId>;

    /// Every optimizer, in checkpoint order.
    fn optimizers(&mut self) -> &mut [Sgd];

    /// Student-t degrees of freedom of the final soft assignment.
    fn alpha(&self) -> f32;

    /// Work before the first iteration of a fresh (not resumed) run.
    fn warm_up(&mut self, _store: &mut ParamStore, _rng: &mut SeedRng) {}

    /// Recomputes the targets from the full data under the guard's
    /// checks, returning the hard labels.
    fn refresh(&mut self, store: &ParamStore, guard: &TrainGuard) -> Result<Vec<usize>, Fault>;

    /// Measures the refresh just taken; may draw from `rng`.
    fn probe(&self, _store: &ParamStore, _rng: &mut SeedRng) -> Probe {
        Probe::default()
    }

    /// Takes one minibatch step.
    fn step(
        &mut self,
        store: &mut ParamStore,
        rng: &mut SeedRng,
        check: &mut StepCheck<'_>,
    ) -> Result<(), Fault>;

    /// Keeps loop state of its own as known good (after a clean refresh).
    fn commit(&mut self) {}

    /// Returns loop state of its own to the last commit (after a fault).
    fn rollback(&mut self) {}

    /// Appends the trainer's checkpoint words after the driver's prefix.
    fn push_extra(&self, _extra: &mut Vec<u64>) {}

    /// Reads back what [`ClusterTrainer::push_extra`] wrote.
    fn take_extra(&mut self, _cur: &mut ExtraCursor<'_>) -> Result<(), TrainError> {
        Ok(())
    }

    /// The run's final labels and reported assignment, from the final
    /// embedding `z` and its soft assignment `q`.
    fn output(&self, _z: &Matrix, q: Matrix, _store: &ParamStore) -> (Vec<usize>, Matrix) {
        (hard_labels(&q), q)
    }
}

impl ClusterLoop<'_> {
    /// Runs the loop over the trainer `build` creates, returning the
    /// trainer (for the state it trained) and the run's output.
    ///
    /// # Errors
    ///
    /// [`TrainError`] when the guard exhausts its budget, an injected kill
    /// fires, or checkpoint I/O or resumption fails.
    pub fn run<T: ClusterTrainer>(
        &self,
        store: &mut ParamStore,
        rng: &mut SeedRng,
        build: impl FnOnce(&mut ParamStore, &mut SeedRng) -> T,
    ) -> Result<(T, ClusterOutput), TrainError> {
        let start = Instant::now();
        let _prof_phase = profiler::phase(self.phase);
        let prof_init = profiler::section("init");
        let mut trainer = build(store, rng);
        let mu_id = trainer.centroids();
        let mut guard = TrainGuard::new(self.phase, self.guard.clone(), trainer.guarded());
        let mut faults = self.faults.activate();
        let mut trace = TrainTrace::default();
        let mut y_prev: Option<Vec<usize>> = None;
        let mut converged = false;
        let mut iterations = 0usize;
        let mut start_iter = 0usize;

        match begin_resume(self.durability, self.phase, store, rng)? {
            Some((iter, ckpt)) => {
                for (slot, opt) in trainer.optimizers().iter_mut().enumerate() {
                    ckpt.opt(slot)?.apply_sgd(opt)?;
                }
                let mut cur = ExtraCursor::new(&ckpt.extra);
                let mark = RunMark::take(&mut cur)?;
                y_prev = take_labels(&mut cur)?;
                trainer.take_extra(&mut cur)?;
                cur.finish()?;
                if mark.done {
                    converged = mark.converged;
                    iterations = mark.iterations;
                    start_iter = self.max_iter;
                } else {
                    start_iter = iter;
                }
            }
            None => trainer.warm_up(store, rng),
        }
        drop(prof_init);

        let mut force_refresh = start_iter % self.update_interval != 0;
        'iters: for i in start_iter..self.max_iter {
            if faults.kill_requested(i) {
                return Err(TrainError::Killed {
                    phase: self.phase.into(),
                    iter: i,
                });
            }
            iterations = i + 1;
            let natural = i % self.update_interval == 0;
            let fault = 'iter: {
                if natural || force_refresh {
                    let _prof_refresh = profiler::section("refresh");
                    force_refresh = false;
                    let y_pred = match trainer.refresh(store, &guard) {
                        Ok(y_pred) => y_pred,
                        Err(fault) => break 'iter Some(fault),
                    };
                    guard.mark_good(i, store);
                    trainer.commit();
                    if natural {
                        let mark = RunMark::mid_run();
                        self.durability.maybe_write(self.phase, i / self.update_interval, || {
                            self.checkpoint(&mut trainer, i, mark, y_prev.as_deref(), store, rng)
                        })?;
                    }
                    let probe = trainer.probe(store, rng);
                    self.record(&mut trace, i, &y_pred, probe);
                    if y_prev.as_deref().is_some_and(|prev| label_change(prev, &y_pred) < self.tol) {
                        converged = true;
                        break 'iters;
                    }
                    y_prev = Some(y_pred);
                }
                let _prof_step = profiler::section("step");
                faults.poison_centroids(i, store, mu_id);
                let mut check = StepCheck {
                    guard: &guard,
                    faults: &mut faults,
                    iter: i,
                };
                trainer.step(store, rng, &mut check).err()
            };
            if let Some(fault) = fault {
                let rec = guard.recover(store, fault, i)?;
                for opt in trainer.optimizers() {
                    opt.lr *= rec.lr_scale;
                    opt.reset();
                }
                trainer.rollback();
                y_prev = None;
                force_refresh = true;
            }
        }

        let _prof_final = profiler::section("finalize");
        let z = self.ae.embed(store, self.data);
        let q = soft_assignment(&z, store.get(mu_id), trainer.alpha());
        let mark = RunMark::finished(converged, iterations);
        self.durability.write_final(self.phase, || Checkpoint {
            profile: Some(ReferenceProfile::compute(&z, &q, store.get(mu_id))),
            ..self.checkpoint(&mut trainer, iterations, mark, y_prev.as_deref(), store, rng)
        })?;
        let (labels, q) = trainer.output(&z, q, store);
        let output = ClusterOutput {
            labels,
            q,
            iterations,
            converged,
            trace,
            seconds: start.elapsed().as_secs_f64(),
        };
        Ok((trainer, output))
    }

    /// The run's checkpoint at `iter`, without a reference profile.
    fn checkpoint<T: ClusterTrainer>(
        &self,
        trainer: &mut T,
        iter: usize,
        mark: RunMark,
        y_prev: Option<&[usize]>,
        store: &ParamStore,
        rng: &SeedRng,
    ) -> Checkpoint {
        let mut extra = Vec::new();
        mark.push(&mut extra);
        push_labels(&mut extra, y_prev);
        trainer.push_extra(&mut extra);
        Checkpoint {
            phase: self.phase.into(),
            iter: iter as u64,
            rng: rng.export_state(),
            store: store.clone(),
            opts: trainer.optimizers().iter().map(OptState::capture_sgd).collect(),
            extra,
            profile: None,
        }
    }

    /// Records one refresh point and emits its sampled `train.interval`
    /// event.
    fn record(&self, trace: &mut TrainTrace, iter: usize, labels: &[usize], probe: Probe) {
        let (acc, nmi) = self.trace.scores(labels);
        adec_obs::emit(
            adec_obs::Event::new(adec_obs::Level::Info, "train.interval")
                .field("phase", self.phase)
                .field("iter", iter)
                .field("kl_loss", probe.kl_loss)
                .opt_field("grad_norm", probe.grad_norm)
                .opt_field("acc", acc)
                .opt_field("nmi", nmi)
                .opt_field("delta_fr", probe.delta_fr)
                .opt_field("delta_fd", probe.delta_fd)
                .sampled(),
        );
        trace.points.push(TracePoint {
            iter,
            acc,
            nmi,
            delta_fr: probe.delta_fr,
            delta_fd: probe.delta_fd,
            kl_loss: probe.kl_loss,
        });
    }
}
