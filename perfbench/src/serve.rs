//! `serve-single` and `serve-batch`: the release `adec serve` binary, run
//! as its own process, under an open-loop schedule from
//! `adec_loadgen::{Schedule, run_schedule}`.
//!
//! * `serve-single` sends one-row bodies to the small checkpoint
//!   (144–128–64–10): fixed costs per request (connect, accept, HTTP
//!   parse, routing, the per-call cost of `assign` and the drift
//!   sentinel's second encoder pass) dominate, not gemm FLOPs.
//! * `serve-batch` sends 16-row bodies to a paper-tier checkpoint
//!   (256–500–500–2000–10): model evaluation and CSV decode dominate and
//!   HTTP is under 1 % of the cost. Its 17 MB checkpoint also gives a
//!   boot long enough to time steadily.

use crate::layers;
use crate::procfs;
use crate::record::RunRecord;
use crate::stats::{median, order_stat};
use crate::{RunContext, Workload};
use adec_core::prelude::*;
use adec_core::DurabilityConfig;
use adec_datagen::{Benchmark, Dataset, Size};
use adec_loadgen::client::{self, ClientConfig, ConnStrategy, RequestOutcome, Tier};
use adec_loadgen::{Arrival, PayloadKind, PayloadMix, PlannedRequest, Schedule, ScheduleConfig};
use adec_obs::json::Json;
use adec_obs::prom::Exposition;
use adec_serve::InferenceModel;
use adec_tensor::Matrix;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The loadgen client gives up on a request after this long; a request
/// that failed or was never answered is counted at this latency, which is
/// over any limit the benchmark could set.
const GIVE_UP_MS: f64 = 30_000.0;
/// How long a server may take to print its address, become ready, or
/// exit after `POST /shutdown`.
const PROCESS_DEADLINE: Duration = Duration::from_secs(60);

/// What differs between the two serve workloads.
pub struct ServeSpec {
    /// digits-full size of the training set and of the held-out draw.
    size: Size,
    /// Architecture of the served checkpoint.
    arch: ArchPreset,
    /// Pretraining of the untimed checkpoint preparation.
    pretrain: PretrainConfig,
    /// Mini-batch size of the preparation's ADEC run.
    batch_size: usize,
    /// ADEC iterations of the preparation.
    cluster_iters: usize,
    /// Rows in each `/assign` body.
    rows: usize,
    /// Offered load, requests per second.
    rps: f64,
    /// Arrival process of the open loop.
    arrival: Arrival,
    /// Server boots in set-up; `setup_s` is their median.
    boots: usize,
    /// Requests answered back to back after `/readyz` in each boot.
    warmup: usize,
    /// Bodies per pass when timing the in-process model.
    model_calls: usize,
}

impl ServeSpec {
    /// The spec of a serve workload.
    pub fn of(workload: Workload) -> ServeSpec {
        match workload {
            Workload::ServeBatch => ServeSpec {
                size: Size::Medium,
                arch: ArchPreset::Paper,
                pretrain: PretrainConfig {
                    batch_size: 32,
                    ..PretrainConfig::vanilla(10)
                },
                batch_size: 32,
                cluster_iters: 10,
                rows: 16,
                // About 30 % of one client connection at ~25 ms per
                // request; higher rates turn host noise into client-side
                // queueing.
                rps: 12.0,
                arrival: Arrival::Uniform,
                boots: 5,
                warmup: 8,
                model_calls: 8,
            },
            _ => ServeSpec {
                size: Size::Small,
                arch: ArchPreset::Medium,
                pretrain: PretrainConfig {
                    iterations: 150,
                    ..PretrainConfig::acai_fast()
                },
                batch_size: 128,
                cluster_iters: 150,
                rows: 1,
                rps: 250.0,
                arrival: Arrival::Poisson,
                boots: 7,
                warmup: 400,
                model_calls: 64,
            },
        }
    }
}

/// One request body, kept with the rows the server will parse out of it
/// and their ground-truth classes.
struct Body {
    csv: Vec<u8>,
    x: Matrix,
    truth: Vec<usize>,
}

/// Renders held-out rows into `/assign` bodies of `rows` rows each, and
/// parses each body back the way the server does, so in-process
/// reference labels see exactly the served floats.
fn bodies(held_out: &Dataset, rows: usize) -> Vec<Body> {
    let n = held_out.len();
    (0..(n / rows).max(1))
        .map(|j| {
            let idx: Vec<usize> = (0..rows).map(|r| (j * rows + r) % n).collect();
            let mut csv = String::new();
            for &i in &idx {
                let line: Vec<String> = held_out
                    .data
                    .row(i)
                    .iter()
                    .map(|v| format!("{v}"))
                    .collect();
                csv.push_str(&line.join(","));
                csv.push('\n');
            }
            let parsed: Vec<f32> = csv
                .lines()
                .flat_map(|l| {
                    l.split(',')
                        .map(|f| f.trim().parse::<f32>().unwrap_or(f32::NAN))
                })
                .collect();
            Body {
                x: Matrix::from_vec(rows, held_out.dim(), parsed),
                truth: idx.iter().map(|&i| held_out.labels[i]).collect(),
                csv: csv.into_bytes(),
            }
        })
        .collect()
}

/// A running `adec serve` child process. Dropping it kills and reaps the
/// process if it is still running.
struct Server {
    child: Child,
    addr: SocketAddr,
    stdout: Option<JoinHandle<()>>,
}

impl Server {
    fn spawn(adec: &Path, ckpt: &Path, stderr_path: &Path) -> Result<Server, String> {
        let stderr = std::fs::File::create(stderr_path)
            .map_err(|e| format!("{}: {e}", stderr_path.display()))?;
        let mut child = Command::new(adec)
            .arg("serve")
            .arg("--checkpoint")
            .arg(ckpt)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr))
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", adec.display()))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout not captured".to_string());
        };
        let (tx, rx) = mpsc::channel();
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(stdout),
        };
        let line = rx
            .recv_timeout(PROCESS_DEADLINE)
            .map_err(|_| "server printed no address".to_string())?;
        server.addr = line
            .strip_prefix("listening on ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or(format!("unexpected first line from server: {line:?}"))?;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + PROCESS_DEADLINE;
        while Instant::now() < deadline {
            if matches!(client::get(self.addr, "/readyz"), Some((200, _))) {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("server never became ready".to_string())
    }

    /// `POST /shutdown`, then waits for the drained process to exit.
    fn shutdown(mut self) -> Result<ExitStatus, String> {
        let answered = adec_serve::chaos::post(self.addr, "/shutdown", b"");
        let deadline = Instant::now() + PROCESS_DEADLINE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(t) = self.stdout.take() {
                        let _ = t.join();
                    }
                    return Ok(status);
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    return Err(format!(
                        "server did not exit after POST /shutdown ({answered:?})"
                    ))
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(t) = self.stdout.take() {
            let _ = t.join();
        }
    }
}

/// A schedule that offers every body at once: the single client worker
/// then sends them back to back, so its duration tracks the server.
fn back_to_back(bodies: &[Body], count: usize, kind: PayloadKind, input_dim: usize) -> Schedule {
    Schedule {
        requests: (0..count)
            .map(|i| PlannedRequest {
                at: Duration::ZERO,
                kind,
                body: bodies[i % bodies.len()].csv.clone(),
            })
            .collect(),
        config: ScheduleConfig {
            input_dim,
            ..ScheduleConfig::default()
        },
    }
}

fn all_ok(outcomes: &[RequestOutcome]) -> bool {
    outcomes.iter().all(|o| o.status == Some(200))
}

/// One strict `/metrics` scrape.
struct Scrape {
    exposition: Exposition,
    /// `adec_serve_replica_served` by replica. The exposition keeps only
    /// label-free samples, so these are read from the text.
    replica_served: Vec<f64>,
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let (status, body) = client::get(addr, "/metrics").ok_or("/metrics unreachable")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let text = std::str::from_utf8(&body).map_err(|_| "/metrics is not UTF-8".to_string())?;
    Ok(Scrape {
        exposition: adec_obs::prom::check_exposition(text)?,
        replica_served: replica_served(text),
    })
}

/// Values of `adec_serve_replica_served{replica="N"}`, indexed by N.
fn replica_served(text: &str) -> Vec<f64> {
    let mut out: Vec<(usize, f64)> = text
        .lines()
        .filter_map(|l| l.strip_prefix("adec_serve_replica_served{replica=\""))
        .filter_map(|rest| {
            let (idx, value) = rest.split_once("\"} ")?;
            Some((idx.parse().ok()?, value.trim().parse().ok()?))
        })
        .collect();
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, v)| v).collect()
}

fn delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    after.exposition.sample(name).unwrap_or(0.0) - before.exposition.sample(name).unwrap_or(0.0)
}

/// Trains the served checkpoint through the public trainer API with
/// durability on, untimed. Serving cost depends on the architecture, not
/// on how long the model trained.
fn prepare_checkpoint(
    ctx: &RunContext,
    spec: &ServeSpec,
) -> Result<(PathBuf, Dataset, Session, f64), String> {
    let tracer = &ctx.tracer;
    let ds = tracer.span("datagen.generate", || {
        Benchmark::DigitsFull.generate(spec.size, ctx.seed)
    });
    let mut session = tracer.span("core.session_new", || {
        Session::new(&ds, spec.arch, ctx.seed)
    });
    tracer
        .span("core.pretrain", || session.pretrain(&spec.pretrain))
        .map_err(|e| format!("checkpoint pretraining failed: {e}"))?;
    let mut cfg = AdecConfig::fast(ds.n_classes);
    cfg.max_iter = spec.cluster_iters;
    cfg.batch_size = spec.batch_size;
    cfg.tol = 0.0;
    cfg.disc_pretrain = cfg.disc_pretrain.min(spec.cluster_iters);
    cfg.durability = DurabilityConfig {
        checkpoint_dir: Some(ctx.work_dir.clone()),
        checkpoint_every: 1,
        resume: None,
    };
    let out = tracer
        .span("core.adec", || session.run_adec(&cfg))
        .map_err(|e| format!("checkpoint training failed: {e}"))?;
    if out.iterations != spec.cluster_iters {
        return Err(format!(
            "checkpoint ADEC ran {} of {} iterations",
            out.iterations, spec.cluster_iters
        ));
    }
    let acc = f64::from(adec_metrics::accuracy(&ds.labels, &out.labels));
    Ok((ctx.work_dir.join("adec.ckpt"), ds, session, acc))
}

/// Labels out of an `/assign` response body, if it parses and answered
/// every row at full fidelity.
fn served_labels(body: &[u8], rows: usize) -> Result<Vec<usize>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let doc = Json::parse(text)?;
    let mode = doc.get("mode").and_then(Json::as_str);
    if mode != Some("full") {
        return Err(format!("answered in mode {mode:?}"));
    }
    let items = doc
        .get("assignments")
        .and_then(Json::as_arr)
        .ok_or("no assignments array")?;
    if items.len() != rows {
        return Err(format!("{} assignments for {rows} rows", items.len()));
    }
    items
        .iter()
        .map(|a| {
            a.get("label")
                .and_then(Json::as_u64)
                .and_then(|l| usize::try_from(l).ok())
                .ok_or("assignment without a label".to_string())
        })
        .collect()
}

/// Runs the workload and fills `rec`.
pub fn run(ctx: &RunContext, rec: &mut RunRecord) -> Result<(), String> {
    let spec = ServeSpec::of(ctx.workload);
    let tracer = &ctx.tracer;
    let (ckpt, train_ds, session, prep_acc) = prepare_checkpoint(ctx, &spec)?;
    let held_out = Benchmark::DigitsTest.generate(spec.size, ctx.seed);
    let bodies = bodies(&held_out, spec.rows);
    let model = InferenceModel::load(&ckpt, 1.0).map_err(|e| format!("{}: {e}", ckpt.display()))?;
    let expected: Vec<Vec<usize>> = bodies
        .iter()
        .map(|b| {
            model
                .assign(&b.x)
                .map(|a| a.iter().map(|x| x.label).collect::<Vec<_>>())
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("in-process assign failed: {e}"))?;
    let kind = if spec.rows == 1 {
        PayloadKind::ValidSingle
    } else {
        PayloadKind::ValidBatch
    };
    let dim = held_out.dim();

    // The timed window's schedule: arrival instants from the seeded
    // Poisson/uniform process, bodies from the held-out draw, all
    // rendered before the window opens.
    let mut schedule = Schedule::build(&ScheduleConfig {
        seed: ctx.seed,
        rps: spec.rps,
        duration: Duration::from_secs(ctx.seconds),
        arrival: spec.arrival,
        mix: PayloadMix {
            valid_single: u32::from(spec.rows == 1),
            valid_batch: u32::from(spec.rows > 1),
            ..PayloadMix::all_valid()
        },
        input_dim: dim,
        batch_rows: spec.rows,
        ..ScheduleConfig::default()
    });
    for (i, req) in schedule.requests.iter_mut().enumerate() {
        req.kind = kind;
        req.body = bodies[i % bodies.len()].csv.clone();
    }
    let warmup = back_to_back(&bodies, spec.warmup, kind, dim);
    // Counting its dispatcher, the generator uses at most `nproc` threads
    // and connections.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let client = |addr| ClientConfig {
        addr,
        concurrency: nproc.saturating_sub(1).max(1),
        conn: ConnStrategy::Reconnect,
        ..ClientConfig::default()
    };

    // Set-up: boot, /readyz, a fixed warm-up answered; several times.
    let mut boot_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut clean_exits = Vec::new();
    let mut warm_ok = true;
    let mut server = None;
    for b in 0..spec.boots {
        let t0 = Instant::now();
        let s = tracer.span("serve.boot", || {
            let s = Server::spawn(
                &ctx.adec,
                &ckpt,
                &ctx.work_dir.join(format!("server{b}.stderr")),
            )?;
            s.wait_ready().map(|()| s)
        })?;
        boot_s.push(t0.elapsed().as_secs_f64());
        let warm = tracer.span("serve.warmup", || {
            client::run_schedule(&warmup, &client(s.addr))
        });
        warm_ok &= all_ok(&warm) && warm.len() == spec.warmup;
        setup_s.push(t0.elapsed().as_secs_f64());
        if b + 1 < spec.boots {
            clean_exits.push(s.shutdown().map(|st| st.success()).unwrap_or(false));
        } else {
            server = Some(s);
        }
    }
    let server = server.ok_or("no server booted")?;
    rec.check(
        "warmup_answered",
        warm_ok,
        format!(
            "{} boots x {} back-to-back requests all 200",
            spec.boots, spec.warmup
        ),
    );

    // The timed window.
    let before = tracer.span("serve.scrape", || scrape(server.addr))?;
    let cpu0 = procfs::cpu_ticks(server.pid()).ok_or("cannot read server /proc stat")?;
    let outcomes = tracer.span("loadgen.run_schedule", || {
        client::run_schedule(&schedule, &client(server.addr))
    });
    let cpu1 = procfs::cpu_ticks(server.pid()).ok_or("cannot read server /proc stat")?;
    let after = tracer.span("serve.scrape", || scrape(server.addr))?;
    let peak_rss = procfs::peak_rss_mb(&PathBuf::from(format!("/proc/{}/status", server.pid())))
        .unwrap_or(f64::NAN);

    let attempted = outcomes.len();
    let ok: Vec<&RequestOutcome> = outcomes.iter().filter(|o| o.status == Some(200)).collect();
    let latencies_ms: Vec<f64> = outcomes
        .iter()
        .map(|o| {
            if o.status == Some(200) {
                o.sched_latency_s * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let ok_full = ok.iter().filter(|o| o.tier == Some(Tier::Full)).count();
    rec.check(
        "every_200_parses_at_full_tier",
        ok_full == ok.len(),
        format!("{ok_full}/{} answers carried mode \"full\"", ok.len()),
    );
    let served = delta(&before, &after, "adec_serve_served_total");
    rec.check(
        "served_total_reconciles",
        (served - (ok.len() as f64 + 1.0)).abs() < 0.5,
        format!(
            "adec_serve_served_total delta {served} = {} client 200s + 1 scrape",
            ok.len()
        ),
    );
    let panics = after.exposition.sample("adec_serve_caught_panics_total");
    rec.check(
        "no_caught_panics",
        panics == Some(0.0),
        format!("adec_serve_caught_panics_total = {panics:?}"),
    );

    // Labels: replay every distinct body once and compare with
    // in-process `InferenceModel::assign` on the same checkpoint and rows.
    // (`run_schedule` keeps status and tier but not bodies.)
    let mut mismatches = Vec::new();
    let mut served_all = Vec::new();
    let mut truth_all = Vec::new();
    tracer.span("serve.verify", || {
        for (j, (body, want)) in bodies.iter().zip(&expected).enumerate() {
            match adec_serve::chaos::post(server.addr, "/assign", &body.csv) {
                Ok(Some((200, resp))) => match served_labels(&resp, spec.rows) {
                    Ok(got) if &got == want => {
                        served_all.extend(got);
                        truth_all.extend(body.truth.iter().copied());
                    }
                    Ok(got) => {
                        mismatches.push(format!("body {j}: served {got:?}, in-process {want:?}"))
                    }
                    Err(e) => mismatches.push(format!("body {j}: {e}")),
                },
                other => mismatches.push(format!("body {j}: {other:?}")),
            }
        }
    });
    rec.check(
        "labels_match_in_process_assign",
        mismatches.is_empty(),
        if mismatches.is_empty() {
            format!(
                "{} distinct bodies, {} rows",
                bodies.len(),
                served_all.len()
            )
        } else {
            mismatches
                .iter()
                .take(3)
                .cloned()
                .collect::<Vec<_>>()
                .join("; ")
        },
    );
    let status = tracer.span("serve.shutdown", || server.shutdown());
    clean_exits.push(matches!(status, Ok(s) if s.success()));
    let drained = (0..spec.boots)
        .map(|b| {
            std::fs::read_to_string(ctx.work_dir.join(format!("server{b}.stderr")))
                .unwrap_or_default()
        })
        .filter(|e| e.contains("drained:") && e.contains("caught_panics=0"))
        .count();
    rec.check(
        "drains_and_exits_zero",
        clean_exits.iter().all(|&c| c) && drained == spec.boots,
        format!(
            "exit codes clean: {clean_exits:?}; {drained}/{} drained with caught_panics=0",
            spec.boots
        ),
    );

    let cpu_us = (cpu1.seconds() - cpu0.seconds()) * 1e6 / attempted.max(1) as f64;
    rec.attempted = attempted as u64;
    rec.succeeded = ok.len() as u64;
    rec.failed = (attempted - ok.len()) as u64;
    rec.samples = latencies_ms.len() as u64;
    let pct = |q: f64| order_stat(&latencies_ms, q).map_or(f64::NAN, |v| v.min(GIVE_UP_MS));
    rec.diagnostic("p50_ms", pct(0.5), "ms");
    rec.diagnostic("p99_ms", pct(0.99), "ms");
    rec.diagnostic("server_cpu_us_per_req", cpu_us, "us");
    rec.diagnostic(
        "failed_share",
        rec.failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    let held_out_acc = if served_all.is_empty() {
        f64::NAN
    } else {
        f64::from(adec_metrics::accuracy(&truth_all, &served_all))
    };
    rec.diagnostic("held_out_acc", held_out_acc, "ratio");
    rec.diagnostic("distinct_bodies", bodies.len() as f64, "count");

    if !tracer.enabled() {
        rec.metric("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s");
        rec.metric("p50_ms", pct(0.5), "ms");
        rec.metric("cpu_us_per_op", cpu_us, "us");
        rec.metric(
            "ok_share",
            ok.len() as f64 / attempted.max(1) as f64,
            "ratio",
        );
        rec.metric("peak_rss_mb", peak_rss, "MB");
        return Ok(());
    }

    // Traced run: the layers under training and under the server, timed
    // in-process after the load window, and the server's own counters
    // over the window.
    layers::phase_medians(tracer, rec);
    rec.metric("core.iters", spec.cluster_iters as f64, "count");
    rec.metric("core.adec_acc", prep_acc, "ratio");
    let mut session = session;
    layers::training_layers(tracer, rec, &mut session, &train_ds);
    let calls = spec.model_calls.min(bodies.len() * 8);
    let per_call = |name: &str, f: &dyn Fn(&Matrix)| {
        tracer.span(name, || {
            let mut i = 0;
            layers::seconds_per_call(5, calls, || {
                f(&bodies[i % bodies.len()].x);
                i += 1;
            })
        })
    };
    let assign_s = per_call("serve.model.assign", &|x| {
        std::hint::black_box(model.assign(x).ok());
    });
    let drift_s = per_call("serve.model.drift", &|x| {
        std::hint::black_box(model.drift_stats(x));
    });
    rec.metric("serve.model.assign_us_per_call", assign_s * 1e6, "us");
    rec.metric("serve.model.drift_us_per_call", drift_s * 1e6, "us");
    counter_metrics(rec, &before, &after);
    rec.metric(
        "serve.other_us_per_req",
        cpu_us - (assign_s + drift_s) * 1e6,
        "us",
    );
    rec.metric(
        "serve.boot_ms",
        median(&boot_s).unwrap_or(f64::NAN) * 1e3,
        "ms",
    );
    rec.metric(
        "serve.warmup_ms",
        median(&tracer.seconds("serve.warmup")).unwrap_or(f64::NAN) * 1e3,
        "ms",
    );
    rec.metric("serve.held_out_acc", held_out_acc, "ratio");
    let lateness: Vec<f64> = ok
        .iter()
        .map(|o| (o.sched_latency_s - o.service_latency_s) * 1e3)
        .collect();
    let service: Vec<f64> = ok.iter().map(|o| o.service_latency_s * 1e3).collect();
    rec.metric(
        "loadgen.lateness_ms_p99",
        order_stat(&lateness, 0.99).unwrap_or(f64::NAN),
        "ms",
    );
    rec.metric(
        "loadgen.service_ms_p50",
        order_stat(&service, 0.5).unwrap_or(f64::NAN),
        "ms",
    );
    rec.metric("loadgen.p99_ms", pct(0.99), "ms");
    Ok(())
}

/// The server's own view of the window: `/metrics` deltas between the
/// scrapes before and after it.
fn counter_metrics(rec: &mut RunRecord, before: &Scrape, after: &Scrape) {
    let d = |name: &str| delta(before, after, name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mean = |metric: &str| ratio(d(&format!("{metric}_sum")), d(&format!("{metric}_count")));
    rec.metric(
        "serve.request_ms_mean",
        mean("adec_serve_request_seconds") * 1e3,
        "ms",
    );
    rec.metric(
        "serve.eval_ms_mean",
        mean("adec_serve_assign_eval_seconds") * 1e3,
        "ms",
    );
    rec.metric(
        "serve.queue_depth_mean",
        mean("adec_serve_queue_depth"),
        "count",
    );
    let full = d("adec_serve_served_full_total");
    let answers =
        full + d("adec_serve_served_no_decoder_total") + d("adec_serve_served_centroid_only_total");
    rec.metric("serve.full_tier_share", ratio(full, answers), "ratio");
    let replicas: Vec<f64> = after
        .replica_served
        .iter()
        .zip(&before.replica_served)
        .map(|(a, b)| a - b)
        .collect();
    rec.metric(
        "serve.replica_share_max",
        ratio(
            replicas.iter().copied().fold(0.0, f64::max),
            replicas.iter().sum(),
        ),
        "ratio",
    );
    rec.metric(
        "serve.rejected_busy",
        d("adec_serve_rejected_busy_total"),
        "count",
    );
    rec.metric(
        "serve.deadline_expired",
        d("adec_serve_deadline_expired_total"),
        "count",
    );
    rec.metric(
        "serve.caught_panics",
        after
            .exposition
            .sample("adec_serve_caught_panics_total")
            .unwrap_or(f64::NAN),
        "count",
    );
}

/// The serve-layer metrics of a workload that serves nothing: zero.
pub fn not_exercised(rec: &mut RunRecord) {
    for (name, unit) in [
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
    ] {
        rec.metric(name, 0.0, unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_parse_back_to_the_rendered_floats() {
        let ds = Benchmark::DigitsTest.generate(Size::Small, 5);
        let single = bodies(&ds, 1);
        assert_eq!(single.len(), ds.len());
        assert_eq!(single[3].x.row(0), ds.data.row(3));
        assert_eq!(single[3].truth, vec![ds.labels[3]]);
        let batch = bodies(&ds, 16);
        assert_eq!(batch.len(), ds.len() / 16);
        assert_eq!(batch[1].x.rows(), 16);
        assert_eq!(batch[1].x.row(0), ds.data.row(16));
        assert_eq!(String::from_utf8_lossy(&batch[0].csv).lines().count(), 16);
    }

    fn scrape_of(samples: &[(&str, f64)], replica_served: Vec<f64>) -> Scrape {
        Scrape {
            exposition: Exposition {
                types: Vec::new(),
                samples: samples.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            },
            replica_served,
        }
    }

    #[test]
    fn counters_are_deltas_over_the_window() {
        let before = scrape_of(
            &[
                ("adec_serve_request_seconds_sum", 1.0),
                ("adec_serve_request_seconds_count", 10.0),
                ("adec_serve_served_full_total", 10.0),
                ("adec_serve_caught_panics_total", 0.0),
            ],
            vec![5.0, 5.0],
        );
        let after = scrape_of(
            &[
                ("adec_serve_request_seconds_sum", 1.4),
                ("adec_serve_request_seconds_count", 30.0),
                ("adec_serve_served_full_total", 27.0),
                ("adec_serve_served_no_decoder_total", 3.0),
                ("adec_serve_caught_panics_total", 0.0),
            ],
            vec![20.0, 10.0],
        );
        let mut rec = RunRecord::default();
        counter_metrics(&mut rec, &before, &after);
        let get = |name: &str| rec.metrics.iter().find(|m| m.name == name).map(|m| m.value);
        assert!((get("serve.request_ms_mean").unwrap() - 20.0).abs() < 1e-9);
        assert!((get("serve.full_tier_share").unwrap() - 17.0 / 20.0).abs() < 1e-12);
        assert_eq!(get("serve.replica_share_max"), Some(0.75));
        assert_eq!(get("serve.eval_ms_mean"), Some(0.0));
        assert_eq!(get("serve.caught_panics"), Some(0.0));
    }

    #[test]
    fn replica_counters_are_read_by_label() {
        let text = "# TYPE adec_serve_replica_served counter\n\
                    adec_serve_replica_served{replica=\"1\"} 7\n\
                    adec_serve_replica_served{replica=\"0\"} 12\n\
                    adec_serve_served_total 19\n";
        assert_eq!(replica_served(text), vec![12.0, 7.0]);
        assert!(replica_served("adec_serve_served_total 3\n").is_empty());
    }

    #[test]
    fn response_labels_are_read_strictly() {
        let ok = br#"{"mode":"full","phase":"adec","model_version":1,"assignments":[{"label":3,"q":[0.1]},{"label":0,"q":[0.9]}]}"#;
        assert_eq!(served_labels(ok, 2), Ok(vec![3, 0]));
        assert!(served_labels(ok, 3).is_err());
        let shed = br#"{"mode":"degraded-centroid-only","assignments":[{"label":3}]}"#;
        assert!(served_labels(shed, 1).is_err());
        assert!(served_labels(b"not json", 1).is_err());
    }
}
