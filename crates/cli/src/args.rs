//! Command-line argument parsing (hand-rolled; the workspace deliberately
//! avoids non-approved dependencies).

use adec_datagen::{Benchmark, Size};

/// Every runnable method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// k-means in raw feature space.
    Kmeans,
    /// Gaussian mixture (EM).
    Gmm,
    /// Least-squares NMF clustering.
    Lsnmf,
    /// Ward agglomerative clustering.
    Agglomerative,
    /// Sparse subspace clustering by OMP.
    SscOmp,
    /// Elastic-net subspace clustering.
    Ensc,
    /// Normalized-cut spectral clustering.
    Spectral,
    /// RBF kernel k-means.
    RbfKmeans,
    /// FINCH first-neighbor clustering.
    Finch,
    /// k-means on the pretrained embedding.
    AeKmeans,
    /// FINCH on the pretrained embedding.
    AeFinch,
    /// DeepCluster (fully-connected lite variant).
    DeepCluster,
    /// Deep Clustering Network.
    Dcn,
    /// Deep Embedded Clustering.
    Dec,
    /// Improved DEC.
    Idec,
    /// SR-k-means (lite variant).
    SrKmeans,
    /// DEPICT (fully-connected lite variant).
    Depict,
    /// JULE (lite variant).
    Jule,
    /// VaDE (lite variant).
    Vade,
    /// The paper's ADEC.
    Adec,
}

impl Method {
    /// All methods with their CLI names.
    pub const ALL: [(&'static str, Method); 20] = [
        ("kmeans", Method::Kmeans),
        ("gmm", Method::Gmm),
        ("lsnmf", Method::Lsnmf),
        ("ac", Method::Agglomerative),
        ("ssc-omp", Method::SscOmp),
        ("ensc", Method::Ensc),
        ("sc", Method::Spectral),
        ("rbf-kmeans", Method::RbfKmeans),
        ("finch", Method::Finch),
        ("ae-kmeans", Method::AeKmeans),
        ("ae-finch", Method::AeFinch),
        ("deepcluster", Method::DeepCluster),
        ("dcn", Method::Dcn),
        ("dec", Method::Dec),
        ("idec", Method::Idec),
        ("sr-kmeans", Method::SrKmeans),
        ("depict", Method::Depict),
        ("jule", Method::Jule),
        ("vade", Method::Vade),
        ("adec", Method::Adec),
    ];

    /// Parses a CLI method name.
    pub fn parse(name: &str) -> Option<Method> {
        Method::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, m)| m)
    }

    /// Whether the method needs a pretrained autoencoder.
    pub fn is_deep(&self) -> bool {
        matches!(
            self,
            Method::AeKmeans
                | Method::AeFinch
                | Method::DeepCluster
                | Method::Dcn
                | Method::Dec
                | Method::Idec
                | Method::SrKmeans
                | Method::Depict
                | Method::Jule
                | Method::Adec
        )
    }
}

/// Pretraining strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PretrainKind {
    /// Plain reconstruction (original DEC/IDEC).
    Vanilla,
    /// ACAI interpolation regularizer.
    Acai,
    /// ACAI + image augmentation (the paper's `*` setting; default).
    AcaiAugment,
    /// Greedy stacked-denoising (Vincent et al., original DEC init).
    Sdae,
}

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Benchmark to generate.
    pub dataset: Benchmark,
    /// Method to run.
    pub method: Method,
    /// Dataset scale.
    pub size: Size,
    /// Experiment seed.
    pub seed: u64,
    /// Pretraining strategy for deep methods.
    pub pretrain: PretrainKind,
    /// Pretraining iterations.
    pub pretrain_iters: usize,
    /// Clustering iterations.
    pub iters: usize,
    /// Optional path to write predicted labels as CSV.
    pub labels_out: Option<String>,
    /// Optional path to save pretrained weights.
    pub save_weights: Option<String>,
    /// Print per-interval ACC/NMI while training.
    pub progress: bool,
    /// Write an `adec-prof/v1` tape-op profile JSON here after the run.
    pub trace_out: Option<String>,
    /// Validate the model architectures for this configuration and exit
    /// without training.
    pub check: bool,
    /// With `--check`: additionally run the tape dataflow analysis over
    /// every trainer phase and the kernel determinism audit. Invalid
    /// without `--check`.
    pub deep: bool,
    /// Directory for training checkpoints (deep methods).
    pub checkpoint_dir: Option<String>,
    /// Write a checkpoint every N checkpoint opportunities.
    pub checkpoint_every: usize,
    /// Resume from the newest checkpoint in `--checkpoint-dir`.
    pub resume: bool,
    /// Write a JSONL telemetry event log here (see `adec-obs`).
    pub telemetry: Option<String>,
    /// Keep every Nth sampled telemetry event (1 = keep all).
    pub telemetry_interval: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            dataset: Benchmark::DigitsTest,
            method: Method::Adec,
            size: Size::Small,
            seed: 7,
            pretrain: PretrainKind::AcaiAugment,
            pretrain_iters: 1_200,
            iters: 1_800,
            labels_out: None,
            save_weights: None,
            progress: false,
            trace_out: None,
            check: false,
            deep: false,
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            telemetry: None,
            telemetry_interval: 1,
        }
    }
}

/// Arguments for the `adec serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Path to the trained checkpoint to serve.
    pub checkpoint: String,
    /// Port to bind on 127.0.0.1 (0 = ephemeral; the bound port is printed).
    pub port: u16,
    /// Bound on the accepted-but-unserved connection queue.
    pub max_inflight: usize,
    /// Per-request compute budget in milliseconds.
    pub deadline_ms: u64,
    /// Per-socket read budget in milliseconds.
    pub read_deadline_ms: u64,
    /// Student-t degrees of freedom for the soft assignment.
    pub alpha: f32,
    /// Supervised replica workers answering requests.
    pub replicas: usize,
    /// Checkpoint path to poll for automatic hot reload.
    pub watch_checkpoint: Option<String>,
    /// Busy budget before a wedged replica is superseded (0 = derived).
    pub wedge_budget_ms: u64,
    /// Drift mitigation policy: "observe", "degrade", or "gate".
    pub drift_policy: String,
    /// Rows per drift detection window.
    pub drift_window: usize,
    /// Causal tracing tail-sampling threshold in milliseconds
    /// (`None` = tracing off; `Some(0)` retains every request).
    pub trace_slow_ms: Option<u64>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            checkpoint: String::new(),
            port: 8423,
            max_inflight: 64,
            deadline_ms: 2_000,
            read_deadline_ms: 2_000,
            alpha: 1.0,
            replicas: 2,
            watch_checkpoint: None,
            wedge_budget_ms: 0,
            drift_policy: "observe".to_string(),
            drift_window: 256,
            trace_slow_ms: None,
        }
    }
}

/// The `adec serve --help` text.
pub fn serve_usage() -> String {
    "adec serve — serve soft cluster assignments from a trained checkpoint\n\
     \n\
     USAGE:\n\
       adec serve --checkpoint <PATH> [OPTIONS]\n\
     \n\
     OPTIONS:\n\
       --checkpoint <PATH>      trained checkpoint to load (required)\n\
       --port <N>               port on 127.0.0.1 (default 8423; 0 = ephemeral)\n\
       --max-inflight <N>       queue bound before 503     (default 64)\n\
       --deadline-ms <N>        per-request compute budget (default 2000)\n\
       --read-deadline-ms <N>   per-socket read budget     (default 2000)\n\
       --alpha <X>              Student-t dof for q_ij     (default 1.0)\n\
       --replicas <N>           supervised replica workers (default 2)\n\
       --watch-checkpoint <P>   poll P (mtime+checksum) and hot reload on change\n\
       --wedge-budget-ms <N>    busy budget before a replica is superseded\n\
                                (default 0 = read+compute deadlines + 2000)\n\
       --drift-policy <P>       drift mitigation ladder: observe | degrade | gate\n\
                                (default observe; needs a checkpoint with a\n\
                                reference profile to do anything)\n\
       --drift-window <N>       rows per drift detection window (default 256)\n\
       --trace-slow-ms <N>      enable causal tracing; keep full span trees for\n\
                                requests slower than N ms (errors and shed\n\
                                requests always retained; 0 = retain all)\n\
       --help                   this message\n\
     \n\
     ENDPOINTS:\n\
       GET  /healthz    liveness (200 while the process serves at all)\n\
       GET  /readyz     readiness + model card + fleet card (model_version,\n\
                        reload_generation, replicas, replicas_live); 503 while\n\
                        a drift alarm is latched under --drift-policy gate\n\
       GET  /driftz     drift sentinel state (per-signal scores, alarm latch)\n\
       GET  /statz      request counters + per-replica counters\n\
       GET  /tracez     slowest retained request traces with per-stage\n\
                        breakdown (?format=chrome for chrome://tracing JSON)\n\
       GET  /metrics    Prometheus text exposition (counters + latency histograms,\n\
                        per-replica, per-model-version and drift series)\n\
       POST /assign     CSV rows of features -> JSON soft assignments\n\
       POST /reload     stage + validate --checkpoint, atomically swap it live\n\
                        (local-only; 409 on refusal, live model untouched)\n\
       POST /shutdown   stop accepting, drain in-flight, exit 0\n"
        .to_string()
}

/// Parses the argument list after the `serve` subcommand token.
pub fn parse_serve(argv: &[String]) -> Result<ServeArgs, ParseError> {
    let mut args = ServeArgs::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, ParseError> {
            it.next()
                .ok_or_else(|| ParseError(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--checkpoint" => args.checkpoint = value("--checkpoint")?.clone(),
            "--port" => {
                let v = value("--port")?;
                args.port = v
                    .parse()
                    .map_err(|_| ParseError(format!("invalid port '{v}'")))?;
            }
            "--max-inflight" => {
                let v = value("--max-inflight")?;
                args.max_inflight = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| ParseError(format!("invalid queue bound '{v}'")))?;
            }
            "--deadline-ms" => {
                let v = value("--deadline-ms")?;
                args.deadline_ms = v
                    .parse()
                    .map_err(|_| ParseError(format!("invalid deadline '{v}'")))?;
            }
            "--read-deadline-ms" => {
                let v = value("--read-deadline-ms")?;
                args.read_deadline_ms = v
                    .parse()
                    .ok()
                    .filter(|&n: &u64| n >= 1)
                    .ok_or_else(|| ParseError(format!("invalid read deadline '{v}'")))?;
            }
            "--alpha" => {
                let v = value("--alpha")?;
                args.alpha = v
                    .parse()
                    .ok()
                    .filter(|a: &f32| a.is_finite() && *a > 0.0)
                    .ok_or_else(|| ParseError(format!("invalid alpha '{v}'")))?;
            }
            "--replicas" => {
                let v = value("--replicas")?;
                args.replicas = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| ParseError(format!("invalid replica count '{v}'")))?;
            }
            "--watch-checkpoint" => {
                args.watch_checkpoint = Some(value("--watch-checkpoint")?.clone());
            }
            "--wedge-budget-ms" => {
                let v = value("--wedge-budget-ms")?;
                args.wedge_budget_ms = v
                    .parse()
                    .map_err(|_| ParseError(format!("invalid wedge budget '{v}'")))?;
            }
            "--drift-policy" => {
                let v = value("--drift-policy")?;
                if !matches!(v.as_str(), "observe" | "degrade" | "gate") {
                    return Err(ParseError(format!(
                        "invalid drift policy '{v}' (want observe, degrade, or gate)"
                    )));
                }
                args.drift_policy = v.clone();
            }
            "--drift-window" => {
                let v = value("--drift-window")?;
                args.drift_window = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| ParseError(format!("invalid drift window '{v}'")))?;
            }
            "--trace-slow-ms" => {
                let v = value("--trace-slow-ms")?;
                args.trace_slow_ms = Some(
                    v.parse()
                        .map_err(|_| ParseError(format!("invalid trace threshold '{v}'")))?,
                );
            }
            other => return Err(ParseError(format!("unknown flag '{other}' (see adec serve --help)"))),
        }
    }
    if args.checkpoint.is_empty() {
        return Err(ParseError("--checkpoint is required".into()));
    }
    Ok(args)
}

/// Arguments for the `adec load` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadArgs {
    /// Server address to drive (host:port).
    pub addr: String,
    /// Schedule seed.
    pub seed: u64,
    /// Offered load, requests per second.
    pub rps: f64,
    /// Run length in milliseconds.
    pub duration_ms: u64,
    /// Arrival process: "poisson" or "uniform".
    pub arrival: adec_loadgen::Arrival,
    /// Connection strategy: "reconnect" or "reuse".
    pub conn: adec_loadgen::ConnStrategy,
    /// Payload mix spec (already parsed).
    pub mix: adec_loadgen::PayloadMix,
    /// Client worker threads.
    pub concurrency: usize,
    /// Rows per valid batch payload.
    pub rows: usize,
    /// Where to write the BENCH_serve.json report.
    pub out: String,
    /// Soak mode: run this many consecutive windows and check stability
    /// (0 = single load run).
    pub soak_windows: usize,
    /// Server PID for RSS monitoring in soak mode.
    pub server_pid: Option<u32>,
}

impl Default for LoadArgs {
    fn default() -> Self {
        LoadArgs {
            addr: "127.0.0.1:8423".into(),
            seed: 7,
            rps: 100.0,
            duration_ms: 10_000,
            arrival: adec_loadgen::Arrival::Poisson,
            conn: adec_loadgen::ConnStrategy::Reconnect,
            mix: adec_loadgen::PayloadMix::default(),
            concurrency: 32,
            rows: 16,
            out: "BENCH_serve.json".into(),
            soak_windows: 0,
            server_pid: None,
        }
    }
}

/// The `adec load --help` text.
pub fn load_usage() -> String {
    "adec load — seeded open-loop load harness for a running `adec serve`\n\
     \n\
     USAGE:\n\
       adec load [--addr HOST:PORT] [OPTIONS]\n\
     \n\
     OPTIONS:\n\
       --addr <HOST:PORT>   server to drive                (default 127.0.0.1:8423)\n\
       --seed <N>           schedule seed                  (default 7)\n\
       --rps <X>            offered requests per second    (default 100)\n\
       --duration <D>       run length, e.g. 10s / 500ms   (default 10s)\n\
       --arrival <NAME>     poisson | uniform              (default poisson)\n\
       --conn <NAME>        reconnect | reuse              (default reconnect)\n\
       --mix <SPEC>         kind=weight list, e.g. valid=8,batch=1,malformed=1\n\
                            (kinds: valid, batch, malformed, oversized, slowloris)\n\
       --concurrency <N>    client worker threads          (default 32)\n\
       --rows <N>           rows per valid batch payload   (default 16)\n\
       --out <PATH>         report path                    (default BENCH_serve.json)\n\
       --soak <N>           run N consecutive windows and check RSS/queue stability\n\
       --server-pid <PID>   PID whose VmRSS the soak mode samples\n\
       --help               this message\n\
     \n\
     The schedule (arrival instants, payload kinds, body bytes) is fully\n\
     determined by the seed: same seed, same requests, byte for byte. The\n\
     report cross-checks client-side counts against the server's /metrics.\n\
     Exits 7 when the run cannot reconcile or a soak detects drift.\n"
        .to_string()
}

/// Parses a human duration: `10s`, `500ms`, `2m`, or bare seconds.
fn parse_duration_ms(v: &str) -> Option<u64> {
    let v = v.trim();
    let (num, scale) = if let Some(rest) = v.strip_suffix("ms") {
        (rest, 1u64)
    } else if let Some(rest) = v.strip_suffix('s') {
        (rest, 1_000)
    } else if let Some(rest) = v.strip_suffix('m') {
        (rest, 60_000)
    } else {
        (v, 1_000)
    };
    let n: f64 = num.trim().parse().ok()?;
    if !(n.is_finite() && n >= 0.0) {
        return None;
    }
    let ms = n * scale as f64;
    if ms < 1.0 {
        return None;
    }
    Some(ms as u64)
}

/// Parses the argument list after the `load` subcommand token.
pub fn parse_load(argv: &[String]) -> Result<LoadArgs, ParseError> {
    let mut args = LoadArgs::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, ParseError> {
            it.next()
                .ok_or_else(|| ParseError(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?.clone(),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| ParseError(format!("invalid seed '{v}'")))?;
            }
            "--rps" => {
                let v = value("--rps")?;
                args.rps = v
                    .parse()
                    .ok()
                    .filter(|r: &f64| r.is_finite() && *r > 0.0)
                    .ok_or_else(|| ParseError(format!("invalid rps '{v}'")))?;
            }
            "--duration" => {
                let v = value("--duration")?;
                args.duration_ms = parse_duration_ms(v)
                    .ok_or_else(|| ParseError(format!("invalid duration '{v}' (try 10s, 500ms)")))?;
            }
            "--arrival" => {
                let v = value("--arrival")?;
                args.arrival = adec_loadgen::Arrival::parse(v)
                    .ok_or_else(|| ParseError(format!("unknown arrival '{v}'")))?;
            }
            "--conn" => {
                let v = value("--conn")?;
                args.conn = adec_loadgen::ConnStrategy::parse(v)
                    .ok_or_else(|| ParseError(format!("unknown connection strategy '{v}'")))?;
            }
            "--mix" => {
                let v = value("--mix")?;
                args.mix = adec_loadgen::PayloadMix::parse(v)
                    .map_err(|e| ParseError(format!("invalid mix: {e}")))?;
            }
            "--concurrency" => {
                let v = value("--concurrency")?;
                args.concurrency = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| ParseError(format!("invalid concurrency '{v}'")))?;
            }
            "--rows" => {
                let v = value("--rows")?;
                args.rows = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| ParseError(format!("invalid row count '{v}'")))?;
            }
            "--out" => args.out = value("--out")?.clone(),
            "--soak" => {
                let v = value("--soak")?;
                args.soak_windows = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 2)
                    .ok_or_else(|| {
                        ParseError(format!("invalid soak window count '{v}' (need >= 2)"))
                    })?;
            }
            "--server-pid" => {
                let v = value("--server-pid")?;
                args.server_pid = Some(
                    v.parse()
                        .map_err(|_| ParseError(format!("invalid pid '{v}'")))?,
                );
            }
            other => {
                return Err(ParseError(format!(
                    "unknown flag '{other}' (see adec load --help)"
                )))
            }
        }
    }
    Ok(args)
}

/// Arguments for the `adec prof` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfArgs {
    /// Pipeline seed.
    pub seed: u64,
    /// Pretraining iterations for the profiled pipeline.
    pub pretrain_iters: usize,
    /// Clustering iterations per trainer for the profiled pipeline.
    pub cluster_iters: usize,
    /// Write the adec-prof/v1 profile JSON here.
    pub out: Option<String>,
    /// Check an existing profile JSON for manifest + section coverage
    /// instead of running the pipeline.
    pub check: Option<String>,
    /// Compare two profile JSONs (`old`, `new`) per op instead of running
    /// the pipeline.
    pub diff: Option<(String, String)>,
    /// With `--diff`: fail when any op's ns/call regresses by more than
    /// this fraction (e.g. 0.25 = 25%).
    pub fail_above: Option<f64>,
}

impl Default for ProfArgs {
    fn default() -> Self {
        ProfArgs {
            seed: 7,
            pretrain_iters: 60,
            cluster_iters: 60,
            out: None,
            check: None,
            diff: None,
            fail_above: None,
        }
    }
}

/// The `adec prof --help` text.
pub fn prof_usage() -> String {
    "adec prof — tape-op profiler: per-op wall time and FLOP throughput\n\
     \n\
     USAGE:\n\
       adec prof [--out <PATH>] [OPTIONS]           profile the five-trainer pipeline\n\
       adec prof --check <PROFILE.json>             coverage-check an existing profile\n\
       adec prof --diff <OLD.json> <NEW.json>       per-op regression report\n\
     \n\
     OPTIONS:\n\
       --seed <N>            pipeline seed                      (default 7)\n\
       --pretrain-iters <N>  pretraining iterations             (default 60)\n\
       --cluster-iters <N>   iterations per clustering trainer  (default 60)\n\
       --out <PATH>          write the adec-prof/v1 profile JSON here\n\
       --check <PATH>        verify a profile covers every phase-manifest op and\n\
                             that sections explain >= 95% of each trainer phase's\n\
                             wall time; exit 1 on gaps\n\
       --diff <OLD> <NEW>    per-op ns/call comparison between two profiles\n\
       --fail-above <FRAC>   with --diff: exit 1 when any op regresses by more\n\
                             than FRAC (e.g. 0.25 = 25%)\n\
       --help                this message\n\
     \n\
     The table reports per-op GFLOP/s against the best measured kernel\n\
     throughput in BENCH_kernels.json (when present in the working\n\
     directory). Profiling is observational: the pipeline trajectory is\n\
     identical with the profiler on or off.\n"
        .to_string()
}

/// Parses the argument list after the `prof` subcommand token.
pub fn parse_prof(argv: &[String]) -> Result<ProfArgs, ParseError> {
    let mut args = ProfArgs::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, ParseError> {
            it.next()
                .ok_or_else(|| ParseError(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| ParseError(format!("invalid seed '{v}'")))?;
            }
            "--pretrain-iters" => {
                let v = value("--pretrain-iters")?;
                args.pretrain_iters = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| ParseError(format!("invalid iteration count '{v}'")))?;
            }
            "--cluster-iters" => {
                let v = value("--cluster-iters")?;
                args.cluster_iters = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| ParseError(format!("invalid iteration count '{v}'")))?;
            }
            "--out" => args.out = Some(value("--out")?.clone()),
            "--check" => args.check = Some(value("--check")?.clone()),
            "--diff" => {
                let old = value("--diff")?.clone();
                let new = value("--diff")?.clone();
                args.diff = Some((old, new));
            }
            "--fail-above" => {
                let v = value("--fail-above")?;
                args.fail_above = Some(
                    v.parse()
                        .ok()
                        .filter(|f: &f64| f.is_finite() && *f > 0.0)
                        .ok_or_else(|| ParseError(format!("invalid fraction '{v}'")))?,
                );
            }
            other => {
                return Err(ParseError(format!(
                    "unknown flag '{other}' (see adec prof --help)"
                )))
            }
        }
    }
    if args.fail_above.is_some() && args.diff.is_none() {
        return Err(ParseError("--fail-above requires --diff".into()));
    }
    if args.check.is_some() && args.diff.is_some() {
        return Err(ParseError("--check and --diff are mutually exclusive".into()));
    }
    Ok(args)
}

/// Argument-parsing failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn parse_dataset(name: &str) -> Result<Benchmark, ParseError> {
    match name {
        "digits-full" | "mnist-full" => Ok(Benchmark::DigitsFull),
        "digits-test" | "mnist-test" => Ok(Benchmark::DigitsTest),
        "usps" => Ok(Benchmark::DigitsUsps),
        "fashion" => Ok(Benchmark::Fashion),
        "reuters" | "tfidf" => Ok(Benchmark::Tfidf),
        "protein" | "mice" => Ok(Benchmark::Protein),
        other => Err(ParseError(format!(
            "unknown dataset '{other}' (try digits-full, digits-test, usps, fashion, reuters, protein)"
        ))),
    }
}

/// The `--help` text.
pub fn usage() -> String {
    let methods: Vec<&str> = Method::ALL.iter().map(|(n, _)| *n).collect();
    format!(
        "adec — Adversarial Deep Embedded Clustering (paper reproduction)\n\
         \n\
         USAGE:\n\
           adec [OPTIONS]\n\
           adec serve --checkpoint <PATH> [OPTIONS]   (see adec serve --help)\n\
           adec load [OPTIONS]                        (see adec load --help)\n\
           adec prof [OPTIONS]                        (see adec prof --help)\n\
         \n\
         OPTIONS:\n\
           --dataset <NAME>        digits-full | digits-test | usps | fashion | reuters | protein\n\
           --method <NAME>         {}\n\
           --size <SIZE>           small | medium | paper        (default small)\n\
           --seed <N>              experiment seed               (default 7)\n\
           --pretrain <KIND>       vanilla | acai | acai-aug | sdae (default acai-aug)\n\
           --pretrain-iters <N>    pretraining iterations        (default 1200)\n\
           --iters <N>             clustering iterations         (default 1800)\n\
           --labels-out <PATH>     write predicted labels as CSV\n\
           --save-weights <PATH>   save pretrained weights (deep methods)\n\
           --progress              print per-interval ACC/NMI\n\
           --trace-out <PATH>      write an adec-prof/v1 tape-op profile JSON after the run\n\
                                   (observational: the trajectory is bitwise unchanged)\n\
           --check                 validate model architectures for this configuration, then exit\n\
           --deep                  with --check: also audit tape dataflow + kernel determinism\n\
           --checkpoint-dir <DIR>  write atomic training checkpoints here (deep methods)\n\
           --checkpoint-every <N>  checkpoint every N opportunities    (default 1)\n\
           --resume                resume from the checkpoints in --checkpoint-dir\n\
           --telemetry <PATH>      write a JSONL telemetry event log (spans, losses, guard events)\n\
           --telemetry-interval <N> keep every Nth per-interval event  (default 1)\n\
           --list                  list methods and datasets\n\
           --help                  this message\n",
        methods.join(" | ")
    )
}

/// Parses a raw argument list (without the program name).
pub fn parse(argv: &[String]) -> Result<Args, ParseError> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, ParseError> {
            it.next()
                .ok_or_else(|| ParseError(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--dataset" => args.dataset = parse_dataset(value("--dataset")?)?,
            "--method" => {
                let name = value("--method")?;
                args.method = Method::parse(name)
                    .ok_or_else(|| ParseError(format!("unknown method '{name}'")))?;
            }
            "--size" => {
                args.size = match value("--size")?.as_str() {
                    "small" => Size::Small,
                    "medium" => Size::Medium,
                    "paper" => Size::Paper,
                    other => return Err(ParseError(format!("unknown size '{other}'"))),
                }
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .map_err(|_| ParseError(format!("invalid seed '{v}'")))?;
            }
            "--pretrain" => {
                args.pretrain = match value("--pretrain")?.as_str() {
                    "vanilla" => PretrainKind::Vanilla,
                    "acai" => PretrainKind::Acai,
                    "acai-aug" => PretrainKind::AcaiAugment,
                    "sdae" => PretrainKind::Sdae,
                    other => return Err(ParseError(format!("unknown pretraining '{other}'"))),
                }
            }
            "--pretrain-iters" => {
                let v = value("--pretrain-iters")?;
                args.pretrain_iters = v
                    .parse()
                    .map_err(|_| ParseError(format!("invalid iteration count '{v}'")))?;
            }
            "--iters" => {
                let v = value("--iters")?;
                args.iters = v
                    .parse()
                    .map_err(|_| ParseError(format!("invalid iteration count '{v}'")))?;
            }
            "--labels-out" => args.labels_out = Some(value("--labels-out")?.clone()),
            "--save-weights" => args.save_weights = Some(value("--save-weights")?.clone()),
            "--progress" => args.progress = true,
            "--trace-out" => args.trace_out = Some(value("--trace-out")?.clone()),
            "--check" => args.check = true,
            "--deep" => args.deep = true,
            "--checkpoint-dir" => args.checkpoint_dir = Some(value("--checkpoint-dir")?.clone()),
            "--checkpoint-every" => {
                let v = value("--checkpoint-every")?;
                args.checkpoint_every = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| ParseError(format!("invalid checkpoint stride '{v}'")))?;
            }
            "--resume" => args.resume = true,
            "--telemetry" => args.telemetry = Some(value("--telemetry")?.clone()),
            "--telemetry-interval" => {
                let v = value("--telemetry-interval")?;
                args.telemetry_interval = v
                    .parse()
                    .ok()
                    .filter(|&n: &u64| n > 0)
                    .ok_or_else(|| ParseError(format!("invalid telemetry interval '{v}'")))?;
            }
            other => {
                return Err(ParseError(format!(
                    "unknown flag '{other}' (see --help)"
                )))
            }
        }
    }
    if args.deep && !args.check {
        return Err(ParseError(
            "--deep requires --check (the deep audit is part of check mode)".into(),
        ));
    }
    Ok(args)
}

#[cfg(test)]
// Test code: unwrap on a just-parsed result is the assertion itself.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn strs(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_when_empty() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.method, Method::Adec);
        assert_eq!(args.dataset, Benchmark::DigitsTest);
        assert_eq!(args.seed, 7);
    }

    #[test]
    fn full_flag_set() {
        let args = parse(&strs(&[
            "--dataset", "reuters", "--method", "idec", "--size", "medium", "--seed", "42",
            "--pretrain", "vanilla", "--iters", "500", "--pretrain-iters", "300",
            "--labels-out", "out.csv", "--progress",
        ]))
        .unwrap();
        assert_eq!(args.dataset, Benchmark::Tfidf);
        assert_eq!(args.method, Method::Idec);
        assert_eq!(args.size, Size::Medium);
        assert_eq!(args.seed, 42);
        assert_eq!(args.pretrain, PretrainKind::Vanilla);
        assert_eq!(args.iters, 500);
        assert_eq!(args.pretrain_iters, 300);
        assert_eq!(args.labels_out.as_deref(), Some("out.csv"));
        assert!(args.progress);
    }

    #[test]
    fn trace_out_flag_parses() {
        let args = parse(&strs(&["--trace-out", "prof.json"])).unwrap();
        assert_eq!(args.trace_out.as_deref(), Some("prof.json"));
        assert!(!args.progress);
        assert_eq!(parse(&[]).unwrap().trace_out, None);
        assert!(parse(&strs(&["--trace-out"])).unwrap_err().0.contains("requires a value"));
    }

    #[test]
    fn prof_args_parse_with_defaults() {
        let d = parse_prof(&[]).unwrap();
        assert_eq!(d, ProfArgs::default());

        let full = parse_prof(&strs(&[
            "--seed", "11", "--pretrain-iters", "80", "--cluster-iters", "40",
            "--out", "prof.json",
        ]))
        .unwrap();
        assert_eq!(full.seed, 11);
        assert_eq!(full.pretrain_iters, 80);
        assert_eq!(full.cluster_iters, 40);
        assert_eq!(full.out.as_deref(), Some("prof.json"));

        let diff = parse_prof(&strs(&["--diff", "a.json", "b.json", "--fail-above", "0.25"])).unwrap();
        assert_eq!(diff.diff, Some(("a.json".into(), "b.json".into())));
        assert_eq!(diff.fail_above, Some(0.25));

        let check = parse_prof(&strs(&["--check", "prof.json"])).unwrap();
        assert_eq!(check.check.as_deref(), Some("prof.json"));
    }

    #[test]
    fn prof_args_reject_nonsense() {
        assert!(parse_prof(&strs(&["--diff", "a.json"])).unwrap_err().0.contains("requires a value"));
        assert!(parse_prof(&strs(&["--fail-above", "0.5"]))
            .unwrap_err().0.contains("--fail-above requires --diff"));
        assert!(parse_prof(&strs(&["--diff", "a", "b", "--fail-above", "-1"]))
            .unwrap_err().0.contains("invalid fraction"));
        assert!(parse_prof(&strs(&["--check", "p.json", "--diff", "a", "b"]))
            .unwrap_err().0.contains("mutually exclusive"));
        assert!(parse_prof(&strs(&["--cluster-iters", "0"]))
            .unwrap_err().0.contains("invalid iteration count"));
        assert!(parse_prof(&strs(&["--wat"])).unwrap_err().0.contains("unknown flag"));
    }

    #[test]
    fn every_method_name_parses() {
        for (name, method) in Method::ALL {
            assert_eq!(Method::parse(name), Some(method), "{name}");
        }
        assert_eq!(Method::parse("nope"), None);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&strs(&["--method"])).unwrap_err().0.contains("requires a value"));
        assert!(parse(&strs(&["--method", "zzz"])).unwrap_err().0.contains("unknown method"));
        assert!(parse(&strs(&["--dataset", "zzz"])).unwrap_err().0.contains("unknown dataset"));
        assert!(parse(&strs(&["--wat"])).unwrap_err().0.contains("unknown flag"));
        assert!(parse(&strs(&["--trace"])).unwrap_err().0.contains("unknown flag"));
        assert!(parse(&strs(&["--seed", "abc"])).unwrap_err().0.contains("invalid seed"));
    }

    #[test]
    fn deep_requires_check() {
        let both = parse(&strs(&["--check", "--deep"])).unwrap();
        assert!(both.check && both.deep);
        let shallow = parse(&strs(&["--check"])).unwrap();
        assert!(shallow.check && !shallow.deep);
        assert!(parse(&strs(&["--deep"]))
            .unwrap_err()
            .0
            .contains("--deep requires --check"));
    }

    #[test]
    fn checkpoint_flags_parse() {
        let args = parse(&strs(&[
            "--checkpoint-dir", "ckpts", "--checkpoint-every", "5", "--resume",
        ]))
        .unwrap();
        assert_eq!(args.checkpoint_dir.as_deref(), Some("ckpts"));
        assert_eq!(args.checkpoint_every, 5);
        assert!(args.resume);

        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.checkpoint_dir, None);
        assert_eq!(defaults.checkpoint_every, 1);
        assert!(!defaults.resume);

        assert!(parse(&strs(&["--checkpoint-every", "0"]))
            .unwrap_err()
            .0
            .contains("invalid checkpoint stride"));
        assert!(parse(&strs(&["--checkpoint-every", "x"]))
            .unwrap_err()
            .0
            .contains("invalid checkpoint stride"));
    }

    #[test]
    fn telemetry_flags_parse() {
        let args = parse(&strs(&["--telemetry", "run.jsonl", "--telemetry-interval", "10"])).unwrap();
        assert_eq!(args.telemetry.as_deref(), Some("run.jsonl"));
        assert_eq!(args.telemetry_interval, 10);

        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.telemetry, None);
        assert_eq!(defaults.telemetry_interval, 1);

        assert!(parse(&strs(&["--telemetry-interval", "0"]))
            .unwrap_err()
            .0
            .contains("invalid telemetry interval"));
        assert!(parse(&strs(&["--telemetry"])).unwrap_err().0.contains("requires a value"));
    }

    #[test]
    fn deep_flag_classification() {
        assert!(Method::Adec.is_deep());
        assert!(Method::AeKmeans.is_deep());
        assert!(!Method::Kmeans.is_deep());
        assert!(!Method::Spectral.is_deep());
        // VaDE builds its own networks (not the shared AE), so it is not
        // "deep" in the needs-shared-pretraining sense.
        assert!(!Method::Vade.is_deep());
    }

    #[test]
    fn serve_args_parse_with_defaults() {
        let args = parse_serve(&strs(&["--checkpoint", "dec.ckpt"])).unwrap();
        assert_eq!(args.checkpoint, "dec.ckpt");
        assert_eq!(args.port, 8423);
        assert_eq!(args.max_inflight, 64);
        assert_eq!(args.deadline_ms, 2_000);
        assert_eq!(args.read_deadline_ms, 2_000);

        assert_eq!(args.replicas, 2);
        assert_eq!(args.watch_checkpoint, None);
        assert_eq!(args.wedge_budget_ms, 0);
        assert_eq!(args.drift_policy, "observe");
        assert_eq!(args.drift_window, 256);

        let full = parse_serve(&strs(&[
            "--checkpoint", "x.ckpt", "--port", "0",
            "--max-inflight", "8", "--deadline-ms", "100", "--read-deadline-ms", "250",
            "--alpha", "2.0", "--replicas", "4", "--watch-checkpoint", "watch.ckpt",
            "--wedge-budget-ms", "400", "--drift-policy", "gate", "--drift-window", "64",
            "--trace-slow-ms", "250",
        ]))
        .unwrap();
        assert_eq!(full.port, 0);
        assert_eq!(full.max_inflight, 8);
        assert_eq!(full.deadline_ms, 100);
        assert_eq!(full.read_deadline_ms, 250);
        assert!((full.alpha - 2.0).abs() < 1e-6);
        assert_eq!(full.replicas, 4);
        assert_eq!(full.watch_checkpoint.as_deref(), Some("watch.ckpt"));
        assert_eq!(full.wedge_budget_ms, 400);
        assert_eq!(full.drift_policy, "gate");
        assert_eq!(full.drift_window, 64);
        assert_eq!(full.trace_slow_ms, Some(250));
        assert_eq!(args.trace_slow_ms, None, "tracing defaults off");
    }

    #[test]
    fn serve_args_reject_nonsense() {
        assert!(parse_serve(&[]).unwrap_err().0.contains("--checkpoint is required"));
        assert!(parse_serve(&strs(&["--checkpoint", "x", "--port", "banana"]))
            .unwrap_err().0.contains("invalid port"));
        assert!(parse_serve(&strs(&["--checkpoint", "x", "--workers", "2"]))
            .unwrap_err().0.contains("unknown flag '--workers'"));
        assert!(parse_serve(&strs(&["--checkpoint", "x", "--max-inflight", "0"]))
            .unwrap_err().0.contains("invalid queue bound"));
        assert!(parse_serve(&strs(&["--checkpoint", "x", "--read-deadline-ms", "0"]))
            .unwrap_err().0.contains("invalid read deadline"));
        assert!(parse_serve(&strs(&["--checkpoint", "x", "--alpha", "-1"]))
            .unwrap_err().0.contains("invalid alpha"));
        assert!(parse_serve(&strs(&["--checkpoint", "x", "--replicas", "0"]))
            .unwrap_err().0.contains("invalid replica count"));
        assert!(parse_serve(&strs(&["--checkpoint", "x", "--wedge-budget-ms", "x"]))
            .unwrap_err().0.contains("invalid wedge budget"));
        assert!(parse_serve(&strs(&["--checkpoint", "x", "--drift-policy", "panic"]))
            .unwrap_err().0.contains("invalid drift policy"));
        assert!(parse_serve(&strs(&["--checkpoint", "x", "--drift-window", "0"]))
            .unwrap_err().0.contains("invalid drift window"));
        assert!(parse_serve(&strs(&["--checkpoint", "x", "--trace-slow-ms", "fast"]))
            .unwrap_err().0.contains("invalid trace threshold"));
        assert!(parse_serve(&strs(&["--checkpoint", "x", "--wat"]))
            .unwrap_err().0.contains("unknown flag"));
    }

    #[test]
    fn load_args_parse_with_defaults() {
        let d = parse_load(&[]).unwrap();
        assert_eq!(d, LoadArgs::default());

        let full = parse_load(&strs(&[
            "--addr", "127.0.0.1:9000", "--seed", "11", "--rps", "500",
            "--duration", "10s", "--arrival", "uniform", "--conn", "reuse",
            "--mix", "valid=1,slowloris=0", "--concurrency", "8", "--rows", "4",
            "--out", "bench.json", "--soak", "3", "--server-pid", "1234",
        ]))
        .unwrap();
        assert_eq!(full.addr, "127.0.0.1:9000");
        assert_eq!(full.seed, 11);
        assert!((full.rps - 500.0).abs() < 1e-9);
        assert_eq!(full.duration_ms, 10_000);
        assert_eq!(full.arrival, adec_loadgen::Arrival::Uniform);
        assert_eq!(full.conn, adec_loadgen::ConnStrategy::Reuse);
        assert_eq!(full.mix.valid_single, 1);
        assert_eq!(full.mix.slowloris, 0);
        assert_eq!(full.concurrency, 8);
        assert_eq!(full.rows, 4);
        assert_eq!(full.out, "bench.json");
        assert_eq!(full.soak_windows, 3);
        assert_eq!(full.server_pid, Some(1234));
    }

    #[test]
    fn load_args_reject_nonsense() {
        assert!(parse_load(&strs(&["--rps", "0"])).unwrap_err().0.contains("invalid rps"));
        assert!(parse_load(&strs(&["--rps", "inf"])).unwrap_err().0.contains("invalid rps"));
        assert!(parse_load(&strs(&["--duration", "x"])).unwrap_err().0.contains("invalid duration"));
        assert!(parse_load(&strs(&["--arrival", "burst"])).unwrap_err().0.contains("unknown arrival"));
        assert!(parse_load(&strs(&["--conn", "quic"])).unwrap_err().0.contains("unknown connection"));
        assert!(parse_load(&strs(&["--mix", "nope=1"])).unwrap_err().0.contains("invalid mix"));
        assert!(parse_load(&strs(&["--concurrency", "0"])).unwrap_err().0.contains("invalid concurrency"));
        assert!(parse_load(&strs(&["--soak", "1"])).unwrap_err().0.contains("need >= 2"));
        assert!(parse_load(&strs(&["--wat"])).unwrap_err().0.contains("unknown flag"));
    }

    #[test]
    fn durations_parse_human_suffixes() {
        assert_eq!(parse_duration_ms("10s"), Some(10_000));
        assert_eq!(parse_duration_ms("500ms"), Some(500));
        assert_eq!(parse_duration_ms("2m"), Some(120_000));
        assert_eq!(parse_duration_ms("1.5s"), Some(1_500));
        assert_eq!(parse_duration_ms("3"), Some(3_000), "bare numbers are seconds");
        assert_eq!(parse_duration_ms("0ms"), None, "sub-millisecond runs are rejected");
        assert_eq!(parse_duration_ms("-1s"), None);
        assert_eq!(parse_duration_ms("abc"), None);
    }

    #[test]
    fn usage_mentions_every_method() {
        let text = usage();
        for (name, _) in Method::ALL {
            assert!(text.contains(name), "usage text missing {name}");
        }
    }
}
