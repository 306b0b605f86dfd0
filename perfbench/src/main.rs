//! `adec-perfbench`: one run of one benchmark workload, in a fresh
//! process.
//!
//! ```text
//! adec-perfbench --workload <train-digits|serve-single|serve-batch>
//!                --seed N --seconds S --trace 0|1
//!                --adec PATH --out DIR [--source-digest HEX]
//! ```
//!
//! Prints every metric by name with its unit, writes the run's full
//! record (and, when traced, its spans) under `--out`, and prints the
//! result JSON as the last line of standard output. Exits 0 when every
//! output check passed, 1 when a check failed or the run could not
//! finish, 2 on a usage error. `perfbench/run.py` builds the programs and
//! calls this; see `perfbench/README.md`.

mod layers;
mod procfs;
mod record;
mod serve;
mod spans;
mod stats;
mod train;

use record::RunRecord;
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics of an untraced run, on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, on every workload. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("datagen.generate_s", "s"),
    ("core.session_new_s", "s"),
    ("core.pretrain_s", "s"),
    ("core.dec_s", "s"),
    ("core.idec_s", "s"),
    ("core.dcn_s", "s"),
    ("core.adec_s", "s"),
    ("core.iters", "count"),
    ("core.adec_acc", "ratio"),
    ("datagen.augment_ms_per_batch", "ms"),
    ("nn.embed_full_ms", "ms"),
    ("classic.kmeans_ms", "ms"),
    ("tensor.matmul_gflops.train", "GFLOP/s"),
    ("tensor.matmul_at_b_gflops.train", "GFLOP/s"),
    ("tensor.matmul_a_bt_gflops.train", "GFLOP/s"),
    ("tensor.matmul_us.serve_m1", "us"),
    ("tensor.matmul_us.serve_m16", "us"),
    ("serve.model.assign_us_per_call", "us"),
    ("serve.model.drift_us_per_call", "us"),
    ("serve.request_ms_mean", "ms"),
    ("serve.eval_ms_mean", "ms"),
    ("serve.queue_depth_mean", "count"),
    ("serve.full_tier_share", "ratio"),
    ("serve.replica_share_max", "ratio"),
    ("serve.rejected_busy", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.caught_panics", "count"),
    ("serve.other_us_per_req", "us"),
    ("serve.boot_ms", "ms"),
    ("serve.warmup_ms", "ms"),
    ("serve.held_out_acc", "ratio"),
    ("loadgen.lateness_ms_p99", "ms"),
    ("loadgen.service_ms_p50", "ms"),
    ("loadgen.p99_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.wall_s", "s"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pretraining plus the four clustering trainers; nothing served.
    TrainDigits,
    /// One-row requests to the small checkpoint.
    ServeSingle,
    /// 16-row requests to the paper-tier checkpoint.
    ServeBatch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TrainDigits,
        Workload::ServeSingle,
        Workload::ServeBatch,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainDigits => "train-digits",
            Workload::ServeSingle => "serve-single",
            Workload::ServeBatch => "serve-batch",
        }
    }
}

/// What every workload needs to run.
pub struct RunContext {
    /// Workload being run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// `--seconds`: the timed window of the serve workloads, and the
    /// number of training pipelines.
    pub seconds: u64,
    /// Span recorder (disabled on untraced runs).
    pub tracer: Tracer,
    /// The release `adec` binary.
    pub adec: PathBuf,
    /// Scratch directory of this run, removed at the end.
    pub work_dir: PathBuf,
    /// Where records and label hashes are kept between runs.
    pub out_dir: PathBuf,
    /// Digest of the sources the programs were built from.
    pub source_digest: String,
}

impl RunContext {
    /// Compares `hash` with the one an earlier run of the same sources,
    /// workload and seed stored, storing it when there is none.
    pub fn compare_hash(&self, what: &str, hash: u64) -> (bool, String) {
        if self.source_digest.is_empty() {
            return (
                true,
                "no --source-digest: compared across jobs of this run only".to_string(),
            );
        }
        let dir = self.out_dir.join("hashes");
        let path = dir.join(format!(
            "{what}-seed{}-{}.txt",
            self.seed, self.source_digest
        ));
        let now = format!("{hash:016x}");
        match std::fs::read_to_string(&path) {
            Ok(earlier) => (
                earlier.trim() == now,
                format!(
                    "this run {now}, earlier runs of these sources {}",
                    earlier.trim()
                ),
            ),
            Err(_) => {
                let stored =
                    std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &now));
                (
                    stored.is_ok(),
                    format!("first run of these sources and seed: stored {now} ({stored:?})"),
                )
            }
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fixed loop over a 256 KiB buffer, which stays in the L2 cache, timed
/// at the start and end of every run to show how contended the host's
/// caches were: a co-tenant on the same core slows this loop, and the
/// gemm-bound layers, while leaving a register-only loop untouched.
/// Recorded beside the run; never used to scale a metric.
fn calibration_ms() -> f64 {
    let buf: Vec<u64> = (0..32 * 1024).collect();
    let t0 = Instant::now();
    let mut sum = 0u64;
    for _ in 0..4_000 {
        for v in std::hint::black_box(&buf) {
            sum = sum.wrapping_add(*v);
        }
    }
    std::hint::black_box(sum);
    t0.elapsed().as_secs_f64() * 1e3
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    adec: PathBuf,
    out: PathBuf,
    source_digest: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut adec, mut out, mut source_digest) = (None, None, String::new());
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or(format!("bad --seconds '{value}'"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (want 0 or 1)")),
                });
            }
            "--adec" => adec = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--source-digest" => source_digest = value.clone(),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        adec: adec.ok_or("--adec is required")?,
        out: out.ok_or("--out is required")?,
        source_digest,
    })
}

/// Median of one metric over the untraced records of a workload.
fn untraced_median(out: &std::path::Path, workload: &str, name: &str) -> Option<f64> {
    let values: Vec<f64> = std::fs::read_dir(out)
        .ok()?
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path()).ok())
        .filter_map(|t| RunRecord::from_json(&t).ok())
        .filter(|r| r.workload == workload && !r.trace && r.correct())
        .filter_map(|r| r.metrics.iter().find(|m| m.name == name).map(|m| m.value))
        .collect();
    stats::median(&values)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("adec-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let run_id = format!(
        "{name}-seed{}-trace{}-pid{}",
        args.seed,
        u8::from(args.trace),
        std::process::id()
    );
    let work_dir = args.out.join("work").join(&run_id);
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("adec-perfbench: {}: {e}", work_dir.display());
        return ExitCode::from(1);
    }
    let ctx = RunContext {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace, &run_id),
        adec: args.adec,
        work_dir,
        out_dir: args.out,
        source_digest: args.source_digest,
    };
    let mut rec = RunRecord {
        workload: name.to_string(),
        seed: ctx.seed,
        seconds: ctx.seconds,
        trace: args.trace,
        ..RunRecord::default()
    };
    rec.diagnostic("host.calibration_ms_start", calibration_ms(), "ms");
    rec.diagnostic(
        "host.loadavg_start",
        procfs::loadavg_1m().unwrap_or(f64::NAN),
        "load",
    );
    rec.diagnostic(
        "host.time_wait_start",
        procfs::time_wait_sockets() as f64,
        "count",
    );
    let steal0 = procfs::steal_ticks();
    let t0 = Instant::now();

    let result = match ctx.workload {
        Workload::TrainDigits => train::run(&ctx, &mut rec),
        Workload::ServeSingle | Workload::ServeBatch => serve::run(&ctx, &mut rec),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    if let Err(e) = result {
        eprintln!("adec-perfbench: {name} seed {}: {e}", ctx.seed);
        return ExitCode::from(1);
    }

    rec.diagnostic("host.calibration_ms_end", calibration_ms(), "ms");
    rec.diagnostic(
        "host.loadavg_end",
        procfs::loadavg_1m().unwrap_or(f64::NAN),
        "load",
    );
    let steal = match (steal0, procfs::steal_ticks()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64,
        _ => f64::NAN,
    };
    rec.diagnostic("host.steal_ticks", steal, "count");
    if args.trace {
        let spans = ctx.tracer.len() as f64;
        rec.metric("trace.spans", spans, "count");
        rec.metric(
            "trace.overhead_share",
            spans * spans::span_cost_ns() / (wall_s * 1e9),
            "ratio",
        );
        rec.metric("trace.wall_s", wall_s, "s");
        if let Some(base) = untraced_median(&ctx.out_dir, name, "p50_ms") {
            let traced = rec
                .diagnostics
                .iter()
                .find(|d| d.name == "p50_ms")
                .map_or(f64::NAN, |d| d.value);
            rec.diagnostic("trace.p50_vs_untraced_share", traced / base - 1.0, "ratio");
        }
        let path = ctx.out_dir.join(format!("{run_id}-spans.json"));
        if let Err(e) = std::fs::write(&path, ctx.tracer.to_json()) {
            rec.check("spans_written", false, format!("{}: {e}", path.display()));
        }
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut got: Vec<(&str, &str)> = rec
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    let mut want = expected.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    let complete = got == want;
    rec.check(
        "every_metric_reported",
        complete,
        format!("{} of {} metrics", got.len(), want.len()),
    );

    let record_path = ctx.out_dir.join(format!(
        "{name}-seed{}-trace{}.json",
        ctx.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&record_path, rec.to_json()) {
        eprintln!("adec-perfbench: {}: {e}", record_path.display());
    }
    println!(
        "{name} seed {} ({}):",
        ctx.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for m in &rec.metrics {
        println!("  metric     {:<34} {} {}", m.name, m.value, m.unit);
    }
    for d in &rec.diagnostics {
        println!("  diagnostic {:<34} {} {}", d.name, d.value, d.unit);
    }
    for c in &rec.checks {
        println!(
            "  check      {:<34} {} — {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    println!(
        "  requests attempted {}, succeeded {}, failed {}; {} samples",
        rec.attempted, rec.succeeded, rec.failed, rec.samples
    );
    println!("{}", rec.result_line());
    if rec.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let a = parse_args(&argv(
            "--workload serve-batch --seed 4 --seconds 20 --trace 1 --adec a --out o",
        ))
        .expect("valid arguments");
        assert_eq!(a.workload, Workload::ServeBatch);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 20, true));
        assert!(parse_args(&argv(
            "--workload nope --seed 1 --seconds 1 --trace 0 --adec a --out o"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload train-digits --seed 1 --seconds 0 --trace 0 --adec a --out o"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload train-digits --seed 1 --seconds 5 --trace 2 --adec a --out o"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload train-digits --seed 1")).is_err());
    }

    #[test]
    fn metric_lists_have_unique_valid_names() {
        for list in [&END_TO_END[..], &PER_LAYER[..]] {
            let mut names: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), list.len());
            for (name, unit) in list {
                assert!(
                    name.len() <= 64
                        && name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                );
                assert!(
                    unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
                );
            }
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
