//! Method dispatch: generates the dataset, runs the selected method, and
//! returns an evaluation report.
//!
//! Deep methods support durable runs: `--checkpoint-dir` makes the
//! pretraining and clustering loops write atomic, checksummed checkpoints
//! (`pretrain.ckpt`, `<method>.ckpt`), and `--resume` picks the run back up
//! from the newest phase present — a resumed run reproduces the
//! uninterrupted trajectory bitwise. `ADEC_FAULTS` (e.g. `kill@145`)
//! injects deterministic faults into the clustering loop for durability
//! drills; see [`adec_core::guard::faults`].

use crate::args::{Args, Method, PretrainKind};
use adec_classic::{
    ensc, finch, gmm, kernel_kmeans::rbf_kernel_kmeans, kmeans, lsnmf_cluster,
    spectral_clustering, ssc_omp, ward_agglomerative, EnscConfig, GmmConfig, KMeansConfig,
    SpectralConfig, SscOmpConfig,
};
use adec_core::guard::faults::FaultPlan;
use adec_core::jule::{self, JuleConfig};
use adec_core::lite::{ae_finch, ae_kmeans, deepcluster_lite, depict_lite, sr_kmeans_lite, LiteConfig};
use adec_core::prelude::*;
use adec_core::pretrain::{PretrainConfig, SdaeConfig};
use adec_core::vade::{self, VadeConfig};
use adec_core::{pretrain_stacked_denoising, ArchPreset};
use adec_datagen::Size;
use adec_metrics::{accuracy, ari, nmi, purity};
use adec_nn::{Checkpoint, CheckpointError};
use adec_tensor::SeedRng;
use std::path::PathBuf;
use std::time::Instant;

/// Result of one CLI run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Dataset display name.
    pub dataset: &'static str,
    /// Method CLI name.
    pub method: String,
    /// Predicted labels.
    pub labels: Vec<usize>,
    /// Clustering accuracy.
    pub acc: f32,
    /// Normalized mutual information.
    pub nmi: f32,
    /// Adjusted Rand index.
    pub ari: f32,
    /// Purity.
    pub purity: f32,
    /// Total wall-clock seconds (including pretraining for deep methods).
    pub seconds: f64,
}

/// A failed CLI run, with a distinct exit code per failure class so
/// supervisors (and the CI fault drills) can tell them apart.
#[derive(Debug)]
pub enum RunError {
    /// Flag combination that only becomes invalid at run time.
    Usage(String),
    /// The guarded training loop gave up (divergence, injected kill, …).
    Train(TrainError),
    /// A checkpoint could not be read or written.
    Checkpoint(CheckpointError),
    /// Auxiliary file I/O (labels, weights) failed.
    Io(String),
    /// The inference service could not start or serve (bad model topology,
    /// port in use, …).
    Serve(String),
    /// The load harness failed: target unreachable, counts did not
    /// reconcile with the server's metrics, or a soak detected drift.
    Load(String),
}

impl RunError {
    /// Process exit code for this failure class: 2 usage, 3 training,
    /// 4 checkpoint, 5 auxiliary I/O, 6 serving, 7 load harness.
    pub fn exit_code(&self) -> i32 {
        match self {
            RunError::Usage(_) => 2,
            RunError::Train(_) => 3,
            RunError::Checkpoint(_) => 4,
            RunError::Io(_) => 5,
            RunError::Serve(_) => 6,
            RunError::Load(_) => 7,
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Usage(msg) => write!(f, "{msg}"),
            RunError::Train(e) => write!(f, "training failed: {e}"),
            RunError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            RunError::Io(msg) => write!(f, "io: {msg}"),
            RunError::Serve(msg) => write!(f, "serve: {msg}"),
            RunError::Load(msg) => write!(f, "load: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<TrainError> for RunError {
    fn from(e: TrainError) -> RunError {
        match e {
            // A checkpoint failure surfaced through a trainer keeps its
            // class (and exit code 4).
            TrainError::Checkpoint(c) => RunError::Checkpoint(c),
            other => RunError::Train(other),
        }
    }
}

impl From<CheckpointError> for RunError {
    fn from(e: CheckpointError) -> RunError {
        RunError::Checkpoint(e)
    }
}

/// Writes one operator console line (not a diagnostic) to stderr. This is
/// the CLI's one sanctioned `eprintln!`; diagnostics go through `adec_obs`.
#[allow(clippy::print_stderr)]
fn console(line: std::fmt::Arguments<'_>) {
    eprintln!("{line}");
}

/// Runs the hardened inference service until a graceful shutdown
/// (`POST /shutdown`) drains it. Prints `listening on 127.0.0.1:<port>`
/// to stdout once bound, so supervisors (and the chaos drill) can wait on
/// readiness even with `--port 0`.
///
/// # Errors
///
/// [`RunError::Checkpoint`] when the checkpoint file is unreadable or
/// corrupt (exit 4, same class as training), [`RunError::Serve`] when the
/// model is not servable or the listener cannot bind (exit 6).
pub fn serve(args: &crate::args::ServeArgs) -> Result<(), RunError> {
    use adec_serve::model::ModelError;
    let ckpt_path = std::path::PathBuf::from(&args.checkpoint);
    let model = adec_serve::load_initial(&ckpt_path, args.alpha).map_err(|e| {
        match e {
            ModelError::Checkpoint(c) => RunError::Checkpoint(c),
            other => RunError::Serve(other.to_string()),
        }
    })?;
    console(format_args!(
        "serving {} checkpoint '{}' in {} mode: input_dim={} clusters={} drift={}({})",
        model.phase,
        args.checkpoint,
        model.mode.as_str(),
        model.input_dim(),
        model.k(),
        args.drift_policy.as_str(),
        if model.profile().is_some() { "profile present" } else { "profile absent" },
    ));
    let config = adec_serve::ServerConfig {
        port: args.port,
        replicas: args.replicas,
        max_inflight: args.max_inflight,
        deadline_ms: args.deadline_ms,
        read_deadline_ms: args.read_deadline_ms,
        wedge_budget_ms: args.wedge_budget_ms,
        reload_path: Some(ckpt_path),
        watch_path: args.watch_checkpoint.as_ref().map(std::path::PathBuf::from),
        drift: adec_serve::DriftConfig {
            policy: args.drift_policy,
            window_rows: args.drift_window,
        },
        trace_slow_ms: args.trace_slow_ms,
        ..adec_serve::ServerConfig::default()
    };
    let handle = adec_serve::ServerHandle::start(model, config)
        .map_err(|e| RunError::Serve(e.to_string()))?;
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let stats = handle.join();
    console(format_args!(
        "drained: served={} rejected_busy={} client_errors={} disconnects={} deadline_expired={} caught_panics={} respawns={} reloads={} reloads_refused={}",
        stats.served,
        stats.rejected_busy,
        stats.client_errors,
        stats.disconnects,
        stats.deadline_expired,
        stats.caught_panics,
        stats.respawns,
        stats.reloads,
        stats.reloads_refused,
    ));
    Ok(())
}

/// Drives a running `adec serve` with the seeded open-loop load harness
/// and writes the `BENCH_serve.json` report (single-run mode), or runs a
/// multi-window soak and checks RSS/queue-depth stability (`--soak N`).
///
/// # Errors
///
/// [`RunError::Usage`] for an unparseable address, [`RunError::Load`]
/// (exit 7) when the server is unreachable, the client/server counts do
/// not reconcile, or a soak detects drift, [`RunError::Io`] when the
/// report cannot be written.
pub fn load(args: &crate::args::LoadArgs) -> Result<(), RunError> {
    let addr: std::net::SocketAddr = args
        .addr
        .parse()
        .map_err(|_| RunError::Usage(format!("invalid --addr '{}' (want host:port)", args.addr)))?;
    let config = adec_loadgen::LoadConfig {
        addr,
        schedule: adec_loadgen::ScheduleConfig {
            seed: args.seed,
            rps: args.rps,
            duration: std::time::Duration::from_millis(args.duration_ms),
            arrival: args.arrival,
            mix: args.mix,
            batch_rows: args.rows,
            ..adec_loadgen::ScheduleConfig::default()
        },
        discover_dim: true,
        concurrency: args.concurrency,
        conn: args.conn,
        ..adec_loadgen::LoadConfig::default()
    };

    if args.soak_windows >= 2 {
        let soak = adec_loadgen::run_soak(&config, args.soak_windows, args.server_pid)
            .map_err(|e| RunError::Load(e.to_string()))?;
        for (i, w) in soak.windows.iter().enumerate() {
            console(format_args!(
                "soak window {}/{}: ok={} errors={} achieved_rps={:.1} p99={:?} rss_kb={:?} mean_queue_depth={:?}",
                i + 1,
                soak.windows.len(),
                w.ok_200,
                w.valid_errors,
                w.achieved_rps,
                w.p99,
                w.rss_kb,
                w.mean_queue_depth,
            ));
        }
        println!("soak: {}", soak.detail);
        if !soak.stable() {
            return Err(RunError::Load(format!("soak detected drift: {}", soak.detail)));
        }
        return Ok(());
    }

    let report = adec_loadgen::run_load(&config).map_err(|e| RunError::Load(e.to_string()))?;
    report
        .write(&args.out)
        .map_err(|e| RunError::Io(format!("report '{}': {e}", args.out)))?;
    let o = &report.outcomes;
    println!(
        "load: offered {} requests at {} rps ({}); {} OK, {} busy-503, {} deadline-503, error_rate {:.4}; p99 {}; report written to {}",
        report.schedule_requests,
        report.rps,
        report.arrival,
        o.ok_200,
        o.busy_503,
        o.deadline_503,
        o.error_rate(),
        report
            .timing
            .latency
            .map_or("n/a".to_string(), |l| format!("{:.1}ms", l.p99 * 1e3)),
        args.out,
    );
    if report.reconcile.checked && !report.reconcile.consistent {
        return Err(RunError::Load(format!(
            "client/server counts do not reconcile: {}",
            report.reconcile.detail
        )));
    }
    // When the server traces, every client-stamped /tracez exemplar must
    // match a request this client actually sent (same id, server time not
    // exceeding the client-observed latency).
    if report.trace.checked && !report.trace.consistent {
        return Err(RunError::Load(format!(
            "/tracez exemplars do not reconcile with the client schedule: {}",
            report.trace.detail
        )));
    }
    Ok(())
}

/// The `adec prof` subcommand. Three modes:
///
/// * default — runs the five-trainer profiled pipeline
///   ([`adec_core::profiling::run_profiled_pipeline`]) and prints the
///   per-op table under a header naming the active instruction-set level
///   (wall time, FLOPs, GFLOP/s, percent of the best kernel throughput
///   measured at that level in `BENCH_kernels.json` when present),
///   optionally writing the `adec-prof/v1` JSON to `--out`;
/// * `--check <file>` — verifies an existing profile covers every
///   phase-manifest op and that sections explain ≥95% of each trainer
///   phase's wall time;
/// * `--diff <old> <new>` — per-op ns/call regression report, failing
///   under `--fail-above` when any op regresses past the fraction.
///
/// Returns `Ok(false)` when a check/diff gate fails (the caller exits 1,
/// like `--check` mode).
///
/// # Errors
///
/// [`RunError::Io`] for unreadable/unparseable profile files,
/// [`RunError::Train`] when the profiled pipeline itself fails.
pub fn prof(args: &crate::args::ProfArgs) -> Result<bool, RunError> {
    if let Some((old_path, new_path)) = &args.diff {
        let old = read_profile(old_path)?;
        let new = read_profile(new_path)?;
        return Ok(print_profile_diff(&old, &new, args.fail_above));
    }
    if let Some(path) = &args.check {
        let profile = read_profile(path)?;
        let mut problems = adec_core::profiling::check_manifest_coverage(&profile);
        problems.extend(adec_core::profiling::check_section_coverage(&profile, 0.95));
        if problems.is_empty() {
            println!(
                "prof check: every phase-manifest op recorded; sections cover >= 95% of each trainer phase"
            );
            return Ok(true);
        }
        for p in &problems {
            println!("prof check: {p}");
        }
        return Ok(false);
    }

    let scale = adec_core::profiling::ProfileScale {
        pretrain_iters: args.pretrain_iters,
        cluster_iters: args.cluster_iters,
    };
    let profile = adec_core::profiling::run_profiled_pipeline(args.seed, scale)?;
    // Persist before printing: the profile survives even if stdout is a
    // pipe that closes under the table.
    if let Some(path) = &args.out {
        std::fs::write(path, adec_nn::profiler::profile_to_json(&profile))
            .map_err(|e| RunError::Io(format!("profile '{path}': {e}")))?;
    }
    print_profile_table(&profile);
    if let Some(path) = &args.out {
        println!("profile written to {path}");
    }
    Ok(true)
}

fn read_profile(path: &str) -> Result<adec_nn::profiler::Profile, RunError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| RunError::Io(format!("profile '{path}': {e}")))?;
    adec_nn::profiler::profile_from_json(&text)
        .map_err(|e| RunError::Io(format!("profile '{path}': {e}")))
}

/// One non-naive `BENCH_kernels.json` entry: kernel name, the
/// instruction-set level it was timed at, and its GFLOP/s.
type KernelRate = (String, String, f64);

/// The non-naive kernel entries of `BENCH_kernels.json` in the working
/// directory; empty when the file is absent or malformed (the table then
/// omits the roofline column values).
fn kernel_rooflines() -> Vec<KernelRate> {
    std::fs::read_to_string("BENCH_kernels.json")
        .map(|text| parse_kernel_rates(&text))
        .unwrap_or_default()
}

/// Parses the entries of an `adec-bench-kernels/v1` document. An entry
/// without `"isa"` predates the field and was timed at `scalar`.
fn parse_kernel_rates(text: &str) -> Vec<KernelRate> {
    use adec_obs::json::Json;
    let Ok(doc) = Json::parse(text) else {
        return Vec::new();
    };
    let Some(entries) = doc.get("entries").and_then(Json::as_arr) else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|e| {
            let name = e.get("name").and_then(Json::as_str)?;
            if name.ends_with("_naive") {
                return None;
            }
            let isa = e.get("isa").and_then(Json::as_str).unwrap_or("scalar");
            let gflops = e.get("gflops").and_then(Json::as_f64)?;
            Some((name.to_string(), isa.to_string(), gflops))
        })
        .collect()
}

/// Maps a profiled tape-op name onto the kernel-bench family that
/// measures it (`matmul` covers the transposed variants, `add_bias`
/// covers the fused activations). Ops without a benchmarked kernel get
/// no roofline.
fn kernel_family(op: &str) -> Option<&'static str> {
    match op {
        "matmul" => Some("matmul"),
        "add_bias_act" => Some("add_bias"),
        "softmax_ce" => Some("softmax"),
        _ => None,
    }
}

/// The best measured GFLOP/s of the kernel family behind `op`, over the
/// entries timed at instruction-set level `isa` only: a run is scored
/// against the kernels it actually ran.
fn roofline_for(op: &str, isa: &str, rates: &[KernelRate]) -> Option<f64> {
    let family = kernel_family(op)?;
    rates
        .iter()
        .filter(|(name, level, _)| level == isa && name.starts_with(family))
        .map(|(_, _, g)| *g)
        .fold(None, |acc: Option<f64>, g| Some(acc.map_or(g, |a| a.max(g))))
}

/// Prints the per-phase op table plus each phase's section breakdown.
fn print_profile_table(profile: &adec_nn::profiler::Profile) {
    let isa = adec_tensor::kernels::Isa::active().to_string();
    let rates = kernel_rooflines();
    println!("kernel isa: {isa} (rooflines from BENCH_kernels.json entries at this level)");
    println!(
        "{:<20} {:<16} {:>9} {:>12} {:>10} {:>9}  roofline",
        "phase", "op", "calls", "wall_ms", "gflop", "gflop/s"
    );
    for phase in &profile.phases {
        for op in &phase.ops {
            let wall_ms = op.wall_ns as f64 / 1e6;
            let gflop = op.flops as f64 / 1e9;
            let rate = op.gflops();
            let roof = match roofline_for(&op.name, &isa, &rates) {
                Some(peak) if peak > 0.0 => {
                    format!("{:.0}% of {peak:.1}", rate / peak * 100.0)
                }
                _ => "-".to_string(),
            };
            println!(
                "{:<20} {:<16} {:>9} {:>12.3} {:>10.3} {:>9.2}  {roof}",
                phase.name, op.name, op.calls, wall_ms, gflop, rate
            );
        }
        if !phase.sections.is_empty() {
            let parts: Vec<String> = phase
                .sections
                .iter()
                .map(|s| format!("{} {:.1}ms", s.name, s.wall_ns as f64 / 1e6))
                .collect();
            println!(
                "{:<20} sections cover {:.1}% of {:.1}ms: {}",
                phase.name,
                phase.coverage() * 100.0,
                phase.wall_ns as f64 / 1e6,
                parts.join(", ")
            );
        }
    }
}

/// Prints the per-op ns/call comparison and returns whether it passes
/// `fail_above` (always true without a limit).
fn print_profile_diff(
    old: &adec_nn::profiler::Profile,
    new: &adec_nn::profiler::Profile,
    fail_above: Option<f64>,
) -> bool {
    println!(
        "{:<20} {:<16} {:>13} {:>13} {:>9}",
        "phase", "op", "old ns/call", "new ns/call", "delta"
    );
    let mut worst: Option<(f64, String)> = None;
    for phase in &new.phases {
        let old_phase = old.phase(&phase.name);
        for op in &phase.ops {
            let new_pc = if op.calls > 0 { op.wall_ns as f64 / op.calls as f64 } else { 0.0 };
            let Some(old_op) = old_phase.and_then(|p| p.op(&op.name)).filter(|o| o.calls > 0)
            else {
                println!(
                    "{:<20} {:<16} {:>13} {:>13.0} {:>9}",
                    phase.name, op.name, "-", new_pc, "new"
                );
                continue;
            };
            let old_pc = old_op.wall_ns as f64 / old_op.calls as f64;
            if old_pc <= 0.0 || op.calls == 0 {
                continue;
            }
            let ratio = new_pc / old_pc;
            println!(
                "{:<20} {:<16} {:>13.0} {:>13.0} {:>+8.1}%",
                phase.name,
                op.name,
                old_pc,
                new_pc,
                (ratio - 1.0) * 100.0
            );
            if worst.as_ref().is_none_or(|(w, _)| ratio > *w) {
                worst = Some((ratio, format!("{}/{}", phase.name, op.name)));
            }
        }
    }
    match (fail_above, worst) {
        (Some(limit), Some((w, name))) if w > 1.0 + limit => {
            println!(
                "prof diff: FAIL — {name} regressed {:.1}% (allowed {:.0}%)",
                (w - 1.0) * 100.0,
                limit * 100.0
            );
            false
        }
        (Some(limit), _) => {
            println!("prof diff: ok — no op regressed more than {:.0}%", limit * 100.0);
            true
        }
        (None, _) => true,
    }
}

fn arch_for(size: Size) -> ArchPreset {
    match size {
        Size::Small | Size::Medium => ArchPreset::Medium,
        Size::Paper => ArchPreset::Paper,
    }
}

/// Checkpoint phase name for methods with guarded, checkpointable
/// clustering loops; `None` for deep methods whose clustering phase does
/// not checkpoint (their pretraining still does).
fn phase_for(method: Method) -> Option<&'static str> {
    match method {
        Method::Dcn => Some("dcn"),
        Method::Dec => Some("dec"),
        Method::Idec => Some("idec"),
        Method::Adec => Some("adec"),
        _ => None,
    }
}

/// Validation-only mode (`--check`): builds throwaway instances of every
/// model family at this configuration's dimensions and runs the
/// architecture checker over them, without any training.
///
/// With `--deep` the report additionally covers, at this configuration's
/// exact dimensions: the tape dataflow analysis of every trainer phase
/// (shape propagation, gradient connectivity against the phase manifests,
/// dead nodes, undeclared double binds, NaN paths), the
/// schedule-permutation determinism audit of the pool-parallel kernels,
/// and — when run from a source checkout — the static reduction-order
/// scan of the kernel sources.
pub fn check(args: &Args) -> adec_analysis::Report {
    let ds = args.dataset.generate(args.size, args.seed);
    let disc_hidden = match args.size {
        Size::Small | Size::Medium => 64,
        Size::Paper => 256,
    };
    let mut report =
        adec_core::archspec::check_preset(ds.dim(), arch_for(args.size), ds.n_classes, disc_hidden);
    if args.deep {
        // Audit the phase graphs at the dimensions this config would
        // actually train (small synthetic batch: graph topology, not data,
        // is what the passes inspect).
        let phases = adec_core::phases::phase_tapes(
            ds.dim(),
            arch_for(args.size),
            ds.n_classes,
            disc_hidden,
            disc_hidden,
            16,
        );
        for phase in &phases {
            report.extend(phase.analyze());
        }
        report.extend(adec_analysis::audit_schedule_determinism());
        // Best-effort when installed outside a checkout: missing source
        // files are skipped, never reported.
        report.extend(adec_analysis::audit_reduction_workspace(std::path::Path::new(".")));
        report.canonical_sort();
    }
    report
}

/// Runs the configured method and returns the report.
///
/// With `--telemetry <path>` a JSONL event sink is installed for the
/// duration of the run and flushed before returning, so the log is
/// complete even on a training failure. Telemetry observes the run; it
/// never alters the trajectory (the CLI test proves checkpoints stay
/// bitwise identical with it on or off).
///
/// With `--trace-out <path>` the tape-op profiler is enabled for the run
/// and the accumulated `adec-prof/v1` profile is written afterwards. Like
/// telemetry it is purely observational: the profiler only reads clocks,
/// so the trajectory is bitwise identical with it on or off (proved by
/// the CLI trace drill).
///
/// # Errors
///
/// Returns a [`RunError`] carrying the failure class (usage, training,
/// checkpoint, or I/O) and its exit code.
pub fn run(args: &Args) -> Result<RunReport, RunError> {
    if let Some(path) = &args.telemetry {
        adec_obs::install_jsonl_sink(
            path,
            adec_obs::SinkOptions {
                sample_every: args.telemetry_interval,
                ..adec_obs::SinkOptions::default()
            },
        )
        .map_err(|e| RunError::Io(format!("telemetry log '{path}': {e}")))?;
    }
    if args.trace_out.is_some() {
        adec_nn::profiler::reset();
        adec_nn::profiler::enable();
    }
    let result = run_inner(args);
    let result = if let Some(path) = &args.trace_out {
        adec_nn::profiler::disable();
        let profile = adec_nn::profiler::snapshot();
        result.and_then(|report| {
            std::fs::write(path, adec_nn::profiler::profile_to_json(&profile))
                .map_err(|e| RunError::Io(format!("profile '{path}': {e}")))?;
            Ok(report)
        })
    } else {
        result
    };
    if args.telemetry.is_some() {
        if let Ok(report) = &result {
            adec_obs::emit(
                adec_obs::Event::new(adec_obs::Level::Info, "run.done")
                    .field("dataset", report.dataset)
                    .field("method", report.method.as_str())
                    .field("acc", report.acc)
                    .field("nmi", report.nmi)
                    .field("seconds", report.seconds),
            );
        }
        adec_obs::flush_sink();
    }
    result
}

fn run_inner(args: &Args) -> Result<RunReport, RunError> {
    let ds = args.dataset.generate(args.size, args.seed);
    let k = ds.n_classes;
    let mut rng = SeedRng::new(args.seed ^ 0xC11);
    let start = Instant::now();

    let faults = FaultPlan::from_env().map_err(RunError::Usage)?;
    let ckpt_dir: Option<PathBuf> = args.checkpoint_dir.as_ref().map(PathBuf::from);
    if args.resume && ckpt_dir.is_none() {
        return Err(RunError::Usage(
            "--resume requires --checkpoint-dir (see --help)".into(),
        ));
    }
    if ckpt_dir.is_some() && !args.method.is_deep() {
        return Err(RunError::Usage(
            "--checkpoint-dir applies to deep methods only (see --list)".into(),
        ));
    }

    let labels: Vec<usize> = if args.method.is_deep() {
        let mut session = Session::new(&ds, arch_for(args.size), args.seed);
        let phase = phase_for(args.method);

        // Resolve what --resume picks up: the clustering checkpoint if the
        // run already reached that phase, otherwise the pretraining one.
        let mut resume_method: Option<Checkpoint> = None;
        let mut resume_pretrain: Option<Checkpoint> = None;
        if args.resume {
            if let Some(dir) = &ckpt_dir {
                let method_path = phase.map(|p| dir.join(format!("{p}.ckpt")));
                if let Some(path) = method_path.filter(|p| p.exists()) {
                    resume_method = Some(Checkpoint::load(&path)?);
                } else {
                    let pre_path = dir.join("pretrain.ckpt");
                    if pre_path.exists() {
                        resume_pretrain = Some(Checkpoint::load(&pre_path)?);
                    } else {
                        return Err(RunError::Usage(format!(
                            "--resume: no checkpoint found in {}",
                            dir.display()
                        )));
                    }
                }
            }
        }

        match args.pretrain {
            PretrainKind::Sdae => {
                // SDAE registers no extra parameters, so when resuming a
                // clustering checkpoint the whole phase can be skipped: the
                // checkpoint's store restores every weight.
                if resume_method.is_none() {
                    let cfg = SdaeConfig {
                        layer_iterations: args.pretrain_iters / 4,
                        finetune_iterations: args.pretrain_iters / 2,
                        ..SdaeConfig::default()
                    };
                    pretrain_stacked_denoising(&session.ae, &mut session.store, &session.data, &cfg, &mut rng);
                }
            }
            kind => {
                let mut cfg = match kind {
                    PretrainKind::Vanilla => PretrainConfig {
                        iterations: args.pretrain_iters,
                        ..PretrainConfig::vanilla_fast()
                    },
                    PretrainKind::Acai => PretrainConfig {
                        iterations: args.pretrain_iters,
                        augment: false,
                        ..PretrainConfig::acai_fast()
                    },
                    _ => PretrainConfig {
                        iterations: args.pretrain_iters,
                        ..PretrainConfig::acai_fast()
                    },
                };
                if resume_method.is_some() {
                    // Layout-only pass: still registers the ACAI critic so
                    // the store matches the checkpointed run, but trains
                    // nothing — the clustering checkpoint restores weights.
                    cfg.iterations = 0;
                } else {
                    cfg.durability = DurabilityConfig {
                        checkpoint_dir: ckpt_dir.clone(),
                        checkpoint_every: args.checkpoint_every,
                        resume: resume_pretrain.take(),
                    };
                }
                session.pretrain(&cfg)?;
            }
        }
        if let Some(path) = &args.save_weights {
            adec_nn::io::save_store(&session.store, path)
                .map_err(|e| RunError::Io(e.to_string()))?;
            console(format_args!("saved weights to {path}"));
        }
        let trace = if args.progress {
            TraceConfig::curves(&ds.labels)
        } else {
            TraceConfig::default()
        };
        let durability = DurabilityConfig {
            checkpoint_dir: ckpt_dir.clone(),
            checkpoint_every: args.checkpoint_every,
            resume: resume_method,
        };

        let out = match args.method {
            Method::AeKmeans => {
                let labels = ae_kmeans(&session.ae, &session.store, &session.data, k, &mut rng);
                return Ok(finish(&ds, args, labels, start));
            }
            Method::AeFinch => {
                let labels = ae_finch(&session.ae, &session.store, &session.data, k);
                return Ok(finish(&ds, args, labels, start));
            }
            Method::DeepCluster => {
                let mut cfg = LiteConfig::fast(k);
                cfg.rounds = (args.iters / cfg.steps_per_round).max(4);
                cfg.trace = trace;
                let mut lrng = session.fork_rng(0xDC);
                deepcluster_lite(&session.ae, &mut session.store, &session.data, &cfg, &mut lrng)
            }
            Method::SrKmeans => {
                let mut cfg = LiteConfig::fast(k);
                cfg.rounds = (args.iters / cfg.steps_per_round).max(4);
                cfg.trace = trace;
                let mut lrng = session.fork_rng(0x51);
                sr_kmeans_lite(&session.ae, &mut session.store, &session.data, &cfg, &mut lrng)
            }
            Method::Depict => {
                let mut cfg = LiteConfig::fast(k);
                cfg.rounds = (args.iters / cfg.steps_per_round).max(4);
                cfg.trace = trace;
                let mut lrng = session.fork_rng(0xDE);
                depict_lite(&session.ae, &mut session.store, &session.data, &cfg, &mut lrng)
            }
            Method::Dcn => {
                let mut cfg = DcnConfig::fast(k);
                cfg.max_iter = args.iters;
                cfg.trace = trace;
                cfg.faults = faults;
                cfg.durability = durability;
                session.run_dcn(&cfg)?
            }
            Method::Dec => {
                let mut cfg = DecConfig::fast(k);
                cfg.max_iter = args.iters;
                cfg.trace = trace;
                cfg.faults = faults;
                cfg.durability = durability;
                session.run_dec(&cfg)?
            }
            Method::Idec => {
                let mut cfg = IdecConfig::fast(k);
                cfg.max_iter = args.iters;
                cfg.trace = trace;
                cfg.faults = faults;
                cfg.durability = durability;
                session.run_idec(&cfg)?
            }
            Method::Jule => {
                let mut cfg = JuleConfig::fast(k);
                cfg.rounds = (args.iters / cfg.steps_per_round).clamp(3, 12);
                cfg.trace = trace;
                let mut lrng = session.fork_rng(0x3B1E);
                jule::run(&session.ae, &mut session.store, &session.data, &cfg, &mut lrng)
            }
            Method::Adec => {
                let mut cfg = AdecConfig::fast(k);
                cfg.max_iter = args.iters;
                cfg.trace = trace;
                cfg.faults = faults;
                cfg.durability = durability;
                session.run_adec(&cfg)?
            }
            _ => unreachable!("non-deep methods handled below"),
        };
        if args.progress {
            for p in &out.trace.points {
                if let (Some(a), Some(n)) = (p.acc, p.nmi) {
                    console(format_args!("iter {:>6}: ACC {a:.3} NMI {n:.3}", p.iter));
                }
            }
        }
        out.labels
    } else {
        match args.method {
            Method::Kmeans => kmeans(&ds.data, &KMeansConfig::new(k), &mut rng).labels,
            Method::Gmm => gmm::fit(&ds.data, &GmmConfig::new(k), &mut rng).labels,
            Method::Lsnmf => lsnmf_cluster(&ds.data, k, &mut rng),
            Method::Agglomerative => ward_agglomerative(&ds.data, k),
            Method::SscOmp => ssc_omp(&ds.data, &SscOmpConfig::new(k), &mut rng),
            Method::Ensc => ensc(&ds.data, &EnscConfig::new(k), &mut rng),
            Method::Spectral => spectral_clustering(&ds.data, &SpectralConfig::new(k), &mut rng),
            Method::RbfKmeans => rbf_kernel_kmeans(&ds.data, k, &mut rng),
            Method::Finch => finch(&ds.data, k),
            Method::Vade => {
                let mut store = adec_nn::ParamStore::new();
                let mut cfg = VadeConfig::fast(k);
                cfg.vae_iterations = args.pretrain_iters;
                cfg.cluster_iterations = args.iters;
                if args.progress {
                    cfg.trace = TraceConfig::curves(&ds.labels);
                }
                vade::run(&mut store, &ds.data, arch_for(args.size), &cfg, &mut rng).labels
            }
            _ => unreachable!("deep methods handled above"),
        }
    };

    Ok(finish(&ds, args, labels, start))
}

fn finish(
    ds: &adec_datagen::Dataset,
    args: &Args,
    labels: Vec<usize>,
    start: Instant,
) -> RunReport {
    RunReport {
        dataset: ds.name,
        method: Method::ALL
            .iter()
            .find(|(_, m)| *m == args.method)
            .map(|(n, _)| n.to_string())
            .unwrap_or_default(),
        acc: accuracy(&ds.labels, &labels),
        nmi: nmi(&ds.labels, &labels),
        ari: ari(&ds.labels, &labels),
        purity: purity(&ds.labels, &labels),
        labels,
        seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
// Test code: unwrap on a just-produced result is the assertion itself.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn quick_args(extra: &[&str]) -> Args {
        let mut base = vec![
            "--size".to_string(),
            "small".to_string(),
            "--iters".to_string(),
            "120".to_string(),
            "--pretrain-iters".to_string(),
            "100".to_string(),
        ];
        base.extend(extra.iter().map(|s| s.to_string()));
        parse(&base).unwrap()
    }

    #[test]
    fn rooflines_only_score_a_run_against_its_own_isa_level() {
        let doc = r#"{"schema":"adec-bench-kernels/v1","isa":"avx2","entries":[
            {"name":"matmul","tier":"medium","isa":"scalar","gflops":20.0},
            {"name":"matmul","tier":"medium","isa":"avx2","gflops":36.5},
            {"name":"matmul_at_b","tier":"small","isa":"avx2","gflops":40.0},
            {"name":"matmul_naive","tier":"medium","isa":"avx2","gflops":90.0},
            {"name":"add_bias_relu","tier":"medium","isa":"avx2","gflops":2.1},
            {"name":"softmax_rows","tier":"medium","gflops":1.3}
        ]}"#;
        let rates = parse_kernel_rates(doc);
        assert_eq!(rates.len(), 5, "naive entries carry no roofline: {rates:?}");
        // The best matmul-family entry at each level, never across levels.
        assert_eq!(roofline_for("matmul", "scalar", &rates), Some(20.0));
        assert_eq!(roofline_for("matmul", "avx2", &rates), Some(40.0));
        assert_eq!(roofline_for("add_bias_act", "avx2", &rates), Some(2.1));
        assert_eq!(roofline_for("add_bias_act", "scalar", &rates), None);
        // An entry without "isa" predates the field: it ran at scalar.
        assert_eq!(roofline_for("softmax_ce", "scalar", &rates), Some(1.3));
        assert_eq!(roofline_for("softmax_ce", "avx2", &rates), None);
        assert_eq!(roofline_for("sum", "avx2", &rates), None);
    }

    #[test]
    fn shallow_method_runs() {
        let args = quick_args(&["--method", "kmeans", "--dataset", "protein"]);
        let report = run(&args).unwrap();
        assert_eq!(report.labels.len(), 240);
        assert!(report.acc > 0.2);
        assert!(report.seconds >= 0.0);
    }

    #[test]
    fn deep_method_runs() {
        let args = quick_args(&["--method", "dec", "--dataset", "protein"]);
        let report = run(&args).unwrap();
        assert_eq!(report.labels.len(), 240);
        assert!((0.0..=1.0).contains(&report.acc));
    }

    #[test]
    fn vade_runs() {
        let args = quick_args(&["--method", "vade", "--dataset", "protein"]);
        let report = run(&args).unwrap();
        assert_eq!(report.labels.len(), 240);
    }

    #[test]
    fn sdae_pretraining_path_runs() {
        let args = quick_args(&[
            "--method", "ae-kmeans", "--dataset", "protein", "--pretrain", "sdae",
        ]);
        let report = run(&args).unwrap();
        assert_eq!(report.labels.len(), 240);
    }

    #[test]
    fn usage_errors_have_exit_code_2() {
        let args = quick_args(&["--method", "dec", "--dataset", "protein", "--resume"]);
        let err = run(&args).unwrap_err();
        assert!(matches!(err, RunError::Usage(_)), "{err}");
        assert_eq!(err.exit_code(), 2);

        let dir = std::env::temp_dir().join(format!("adec_cli_usage_{}", std::process::id()));
        let dir_s = dir.to_string_lossy().into_owned();
        let args = quick_args(&[
            "--method", "kmeans", "--dataset", "protein", "--checkpoint-dir", &dir_s,
        ]);
        let err = run(&args).unwrap_err();
        assert!(matches!(err, RunError::Usage(_)), "{err}");

        let args = quick_args(&[
            "--method", "dec", "--dataset", "protein", "--checkpoint-dir", &dir_s, "--resume",
        ]);
        let err = run(&args).unwrap_err();
        assert!(matches!(err, RunError::Usage(_)), "--resume with empty dir: {err}");
    }

    #[test]
    fn checkpointed_run_resumes_to_identical_labels() {
        let dir = std::env::temp_dir().join(format!("adec_cli_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_string_lossy().into_owned();
        let flags = [
            "--method", "dec", "--dataset", "protein", "--checkpoint-dir", &dir_s,
        ];
        let first = run(&quick_args(&flags)).unwrap();
        assert!(dir.join("pretrain.ckpt").exists());
        assert!(dir.join("dec.ckpt").exists());

        // Resuming a finished run reuses its final checkpoint: no retraining,
        // identical assignment.
        let mut resumed_flags = flags.to_vec();
        resumed_flags.push("--resume");
        let second = run(&quick_args(&resumed_flags)).unwrap();
        assert_eq!(first.labels, second.labels);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_refused_with_exit_code_4() {
        let dir = std::env::temp_dir().join(format!("adec_cli_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_string_lossy().into_owned();
        let flags = [
            "--method", "dec", "--dataset", "protein", "--checkpoint-dir", &dir_s,
        ];
        run(&quick_args(&flags)).unwrap();
        // Flip one payload bit: the CRC must catch it on resume.
        adec_core::guard::faults::bit_flip_file(dir.join("dec.ckpt"), 64, 0x10).unwrap();
        let mut resumed_flags = flags.to_vec();
        resumed_flags.push("--resume");
        let err = run(&quick_args(&resumed_flags)).unwrap_err();
        assert!(matches!(err, RunError::Checkpoint(_)), "{err}");
        assert_eq!(err.exit_code(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
