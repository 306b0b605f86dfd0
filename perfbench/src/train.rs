//! `train-digits`: ACAI pretraining, then DEC*, IDEC*, DCN and ADEC from
//! the pretrained snapshot, serially, with rolling checkpoints on.
//!
//! Gemm at training shapes, the tape and optimizers, augmentation and the
//! guarded loops do nearly all the work; nothing is served.

use crate::layers;
use crate::procfs;
use crate::record::RunRecord;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{fnv1a, RunContext};
use adec_core::prelude::*;
use adec_core::{DurabilityConfig, PretrainStats};
use adec_datagen::{Benchmark, Dataset, Size};
use std::path::Path;
use std::time::Instant;

/// ACAI + augmentation pretraining iterations in one set-up.
pub const PRETRAIN_ITERS: usize = 150;
/// Iteration budget of each clustering trainer; `tol = 0` keeps the
/// label-change early stop from ever firing, so every run does exactly
/// this many iterations.
pub const CLUSTER_ITERS: usize = 300;
/// Trainers in one job.
const TRAINERS: [&str; 4] = ["dec", "idec", "dcn", "adec"];

/// Independent set-up + job pipelines per run: one per 4 s of
/// `--seconds`, at least two so that label hashes can be compared. Host
/// contention drifts over tens of seconds, so a run times about twice
/// `--seconds` of training to average over it.
pub fn pipelines(seconds: u64) -> usize {
    usize::try_from(seconds.div_ceil(4))
        .unwrap_or(2)
        .clamp(2, 8)
}

fn pretrain_config() -> PretrainConfig {
    PretrainConfig {
        iterations: PRETRAIN_ITERS,
        ..PretrainConfig::acai_fast()
    }
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: 1,
        resume: None,
    }
}

/// The outputs of one job: each trainer's labels and iteration count.
struct Job {
    seconds: f64,
    labels: Vec<Vec<usize>>,
    iterations: Vec<usize>,
    converged: Vec<bool>,
}

fn run_job(
    tracer: &Tracer,
    session: &mut Session,
    k: usize,
    dir: &Path,
) -> Result<Job, TrainError> {
    let t0 = Instant::now();
    let mut dec = DecConfig::fast(k);
    dec.max_iter = CLUSTER_ITERS;
    dec.tol = 0.0;
    dec.durability = durability(dir);
    let dec = tracer.span("core.dec", || session.run_dec(&dec))?;
    let mut idec = IdecConfig::fast(k);
    idec.max_iter = CLUSTER_ITERS;
    idec.tol = 0.0;
    idec.durability = durability(dir);
    let idec = tracer.span("core.idec", || session.run_idec(&idec))?;
    let mut dcn = DcnConfig::fast(k);
    dcn.max_iter = CLUSTER_ITERS;
    dcn.tol = 0.0;
    dcn.durability = durability(dir);
    let dcn = tracer.span("core.dcn", || session.run_dcn(&dcn))?;
    let mut adec = AdecConfig::fast(k);
    adec.max_iter = CLUSTER_ITERS;
    adec.tol = 0.0;
    adec.durability = durability(dir);
    let adec = tracer.span("core.adec", || session.run_adec(&adec))?;
    let seconds = t0.elapsed().as_secs_f64();
    let outs = [dec, idec, dcn, adec];
    Ok(Job {
        seconds,
        labels: outs.iter().map(|o| o.labels.clone()).collect(),
        iterations: outs.iter().map(|o| o.iterations).collect(),
        converged: outs.iter().map(|o| o.converged).collect(),
    })
}

fn labels_hash(labels: &[usize]) -> u64 {
    let bytes: Vec<u8> = labels
        .iter()
        .flat_map(|&l| (l as u32).to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// Runs the workload and fills `rec`.
pub fn run(ctx: &RunContext, rec: &mut RunRecord) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let n = pipelines(ctx.seconds);
    let mut setups: Vec<(Dataset, Session, PretrainStats)> = Vec::with_capacity(n);
    let mut setup_s = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        let ds = tracer.span("datagen.generate", || {
            Benchmark::DigitsFull.generate(Size::Small, ctx.seed)
        });
        let mut session = tracer.span("core.session_new", || {
            Session::new(&ds, ArchPreset::Medium, ctx.seed)
        });
        let stats = tracer
            .span("core.pretrain", || session.pretrain(&pretrain_config()))
            .map_err(|e| format!("pretraining failed: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        setups.push((ds, session, stats));
    }
    let mse_bits: Vec<u32> = setups
        .iter()
        .map(|(_, _, s)| s.final_reconstruction_mse.to_bits())
        .collect();
    rec.check(
        "pretraining_is_deterministic",
        mse_bits.windows(2).all(|w| w[0] == w[1]),
        format!("final reconstruction MSE bits of {n} set-ups: {mse_bits:?}"),
    );

    let cpu0 = procfs::self_cpu_ticks().ok_or("cannot read /proc/self/stat")?;
    let mut jobs = Vec::with_capacity(n);
    for (i, (ds, session, _)) in setups.iter_mut().enumerate() {
        let dir = ctx.work_dir.join(format!("job{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let job = run_job(tracer, session, ds.n_classes, &dir)
            .map_err(|e| format!("training job {i} failed: {e}"))?;
        jobs.push(job);
    }
    let cpu1 = procfs::self_cpu_ticks().ok_or("cannot read /proc/self/stat")?;
    let peak_rss = procfs::peak_rss_mb(Path::new("/proc/self/status")).unwrap_or(f64::NAN);

    // Checks: exact budgets, identical labels across independent jobs,
    // the same hash as earlier runs of this source and seed, and a final
    // ADEC checkpoint that serve can load and that reproduces ADEC's labels.
    let all_iters: Vec<usize> = jobs.iter().flat_map(|j| j.iterations.clone()).collect();
    rec.check(
        "iterations_equal_budget",
        all_iters.iter().all(|&i| i == CLUSTER_ITERS)
            && jobs.iter().all(|j| !j.converged.contains(&true)),
        format!("iterations {all_iters:?}, budget {CLUSTER_ITERS}, early stop never fires"),
    );
    let hashes: Vec<u64> = jobs
        .iter()
        .map(|j| fnv1a_words(&j.labels.iter().map(|l| labels_hash(l)).collect::<Vec<_>>()))
        .collect();
    rec.check(
        "labels_identical_across_jobs",
        hashes.windows(2).all(|w| w[0] == w[1]),
        format!(
            "label hashes of {} jobs ({}): {hashes:016x?}",
            n,
            TRAINERS.join("+")
        ),
    );
    let adec_labels = jobs
        .last()
        .and_then(|j| j.labels.last())
        .cloned()
        .unwrap_or_default();
    let adec_hash = labels_hash(&adec_labels);
    let (same, detail) = ctx.compare_hash("train-digits", adec_hash);
    rec.check("adec_labels_match_earlier_runs", same, detail);

    let (ds, _, _) = setups.last().ok_or("no set-up ran")?;
    let ckpt = ctx.work_dir.join(format!("job{}", n - 1)).join("adec.ckpt");
    match tracer.span("serve.model.load", || {
        adec_serve::InferenceModel::load(&ckpt, 1.0)
    }) {
        Ok(model) => {
            let served: Vec<usize> = model
                .assign(&ds.data)
                .map(|a| a.iter().map(|x| x.label).collect())
                .unwrap_or_default();
            let agree = served
                .iter()
                .zip(&adec_labels)
                .filter(|(a, b)| a == b)
                .count();
            rec.check(
                "final_checkpoint_serves_adec_labels",
                served.len() == adec_labels.len() && agree == adec_labels.len(),
                format!(
                    "{} loads; in-process assign agrees on {agree}/{} rows",
                    ckpt.display(),
                    adec_labels.len()
                ),
            );
        }
        Err(e) => rec.check(
            "final_checkpoint_serves_adec_labels",
            false,
            format!("{}: {e}", ckpt.display()),
        ),
    }

    let job_s: Vec<f64> = jobs.iter().map(|j| j.seconds).collect();
    let iterations = (TRAINERS.len() * CLUSTER_ITERS * n) as f64;
    let acc = adec_metrics::accuracy(&ds.labels, &adec_labels);
    rec.attempted = (TRAINERS.len() * n) as u64;
    rec.succeeded = rec.attempted;
    rec.samples = n as u64;
    rec.diagnostic("train_s", median(&job_s).unwrap_or(f64::NAN), "s");
    rec.diagnostic("p50_ms", median(&job_s).unwrap_or(f64::NAN) * 1e3, "ms");
    rec.diagnostic("adec_acc", f64::from(acc), "ratio");
    rec.diagnostic("pipelines", n as f64, "count");

    if !tracer.enabled() {
        rec.metric("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s");
        rec.metric("p50_ms", median(&job_s).unwrap_or(f64::NAN) * 1e3, "ms");
        rec.metric(
            "cpu_us_per_op",
            (cpu1.seconds() - cpu0.seconds()) * 1e6 / iterations,
            "us",
        );
        rec.metric(
            "ok_share",
            rec.succeeded as f64 / rec.attempted as f64,
            "ratio",
        );
        rec.metric("peak_rss_mb", peak_rss, "MB");
        return Ok(());
    }

    // Traced run: per-phase medians from the spans, then the layer
    // timings on this workload's data and pretrained model.
    layers::phase_medians(tracer, rec);
    rec.metric(
        "core.iters",
        all_iters.iter().copied().min().unwrap_or(0) as f64,
        "count",
    );
    rec.metric("core.adec_acc", f64::from(acc), "ratio");
    let (ds, session, _) = setups.first_mut().ok_or("no set-up ran")?;
    layers::training_layers(tracer, rec, session, ds);
    crate::serve::not_exercised(rec);
    Ok(())
}

fn fnv1a_words(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(&bytes)
}
