//! Chaos client for CI: runs the deterministic hostile-input drill
//! against an `adec serve` process listening on `127.0.0.1:<port>`.
//!
//! Usage: `adec-chaos --port 8423 [--max-inflight 32] [--read-deadline-ms 2000] [--seed 7] [--shutdown]`
//!
//! With `--fleet --reload-path <P> --alt-checkpoint <P>` the hostile-input
//! drill is followed by the fleet robustness drill (replica-kill,
//! replica-wedge, reload-under-fire, corrupt-reload) — the server must be
//! running with `--replicas >= 2` and its `--checkpoint` at the reload
//! path.
//!
//! With `--drift --reload-path <P> --refit-checkpoint <P>` the drift
//! drill runs *instead of* the hostile-input drill (hostile traffic would
//! contaminate the sentinel's first window): stationary no-false-alarm,
//! bounded detection of a mean shift, the mitigation ladder, and recovery
//! via a refit-checkpoint hot reload. `--dataset`/`--data-size`/
//! `--data-seed` must name the distribution the server's checkpoint was
//! trained on, and `--drift-window` must match the server's.
//!
//! Exit codes: 0 = every scenario passed, 1 = a scenario failed,
//! 2 = usage error. With `--shutdown`, the drill finishes by POSTing
//! `/shutdown` and verifying the server drains (connection refused soon
//! after) — CI then asserts the *server* exited 0.

// A drill client reports scenario failures and usage errors on stderr.
#![allow(clippy::print_stderr)]

use adec_datagen::{Benchmark, Size};
use adec_serve::chaos;
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

struct Args {
    port: u16,
    max_inflight: usize,
    read_deadline_ms: u64,
    seed: u64,
    shutdown: bool,
    fleet: bool,
    reload_path: Option<String>,
    alt_checkpoint: Option<String>,
    wedge_budget_ms: u64,
    drift: bool,
    refit_checkpoint: Option<String>,
    drift_window: usize,
    max_windows: usize,
    dataset: String,
    data_size: String,
    data_seed: u64,
}

/// Maps the CLI's dataset/size names (the same ones `adec --dataset` and
/// `--size` accept) to generator inputs.
fn parse_data_spec(dataset: &str, size: &str) -> Result<(Benchmark, Size), String> {
    let bench = Benchmark::parse(dataset).ok_or_else(|| format!("unknown dataset '{dataset}'"))?;
    let size = Size::parse(size).ok_or_else(|| format!("unknown size '{size}'"))?;
    Ok((bench, size))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        port: 0,
        max_inflight: 32,
        read_deadline_ms: 2_000,
        seed: 7,
        shutdown: false,
        fleet: false,
        reload_path: None,
        alt_checkpoint: None,
        wedge_budget_ms: 400,
        drift: false,
        refit_checkpoint: None,
        drift_window: 64,
        max_windows: 8,
        dataset: "protein".to_string(),
        data_size: "small".to_string(),
        data_seed: 7,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--port" => args.port = take("--port")?.parse().map_err(|e| format!("--port: {e}"))?,
            "--max-inflight" => {
                args.max_inflight = take("--max-inflight")?
                    .parse()
                    .map_err(|e| format!("--max-inflight: {e}"))?
            }
            "--read-deadline-ms" => {
                args.read_deadline_ms = take("--read-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--read-deadline-ms: {e}"))?
            }
            "--seed" => args.seed = take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--shutdown" => args.shutdown = true,
            "--fleet" => args.fleet = true,
            "--reload-path" => args.reload_path = Some(take("--reload-path")?.clone()),
            "--alt-checkpoint" => args.alt_checkpoint = Some(take("--alt-checkpoint")?.clone()),
            "--wedge-budget-ms" => {
                args.wedge_budget_ms = take("--wedge-budget-ms")?
                    .parse()
                    .map_err(|e| format!("--wedge-budget-ms: {e}"))?
            }
            "--drift" => args.drift = true,
            "--refit-checkpoint" => args.refit_checkpoint = Some(take("--refit-checkpoint")?.clone()),
            "--drift-window" => {
                args.drift_window = take("--drift-window")?
                    .parse()
                    .map_err(|e| format!("--drift-window: {e}"))?
            }
            "--max-windows" => {
                args.max_windows = take("--max-windows")?
                    .parse()
                    .map_err(|e| format!("--max-windows: {e}"))?
            }
            "--dataset" => args.dataset = take("--dataset")?.clone(),
            "--data-size" => args.data_size = take("--data-size")?.clone(),
            "--data-seed" => {
                args.data_seed = take("--data-seed")?
                    .parse()
                    .map_err(|e| format!("--data-seed: {e}"))?
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.port == 0 {
        return Err("--port is required".into());
    }
    if args.fleet && (args.reload_path.is_none() || args.alt_checkpoint.is_none()) {
        return Err("--fleet requires --reload-path and --alt-checkpoint".into());
    }
    if args.drift && (args.reload_path.is_none() || args.refit_checkpoint.is_none()) {
        return Err("--drift requires --reload-path and --refit-checkpoint".into());
    }
    if args.drift && args.fleet {
        return Err("--drift and --fleet are mutually exclusive (run separate drills)".into());
    }
    if args.drift && (args.drift_window == 0 || args.max_windows == 0) {
        return Err("--drift-window and --max-windows must be >= 1".into());
    }
    parse_data_spec(&args.dataset, &args.data_size)?;
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("adec-chaos: {msg}");
            eprintln!("usage: adec-chaos --port <p> [--max-inflight n] [--read-deadline-ms n] [--seed n] [--shutdown]");
            std::process::exit(2);
        }
    };
    let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, args.port));

    // Wait for readiness: the server may still be loading the checkpoint.
    let ready_by = Instant::now() + Duration::from_secs(30);
    loop {
        if adec_loadgen::client::discover_input_dim(addr).is_some() {
            break;
        }
        if Instant::now() > ready_by {
            eprintln!("adec-chaos: server at {addr} never became ready");
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    if args.drift {
        // parse_args enforced both paths and a valid data spec.
        if let (Some(reload_path), Some(refit_checkpoint)) =
            (args.reload_path.as_ref(), args.refit_checkpoint.as_ref())
        {
            let (bench, size) = match parse_data_spec(&args.dataset, &args.data_size) {
                Ok(spec) => spec,
                Err(msg) => {
                    eprintln!("adec-chaos: {msg}");
                    std::process::exit(2);
                }
            };
            let drift_config = chaos::DriftDrillConfig {
                base: bench.generate(size, args.data_seed),
                reload_path: reload_path.into(),
                refit_checkpoint: refit_checkpoint.into(),
                seed: args.seed,
                window_rows: args.drift_window,
                max_windows: args.max_windows,
            };
            let drift_report = chaos::run_drift_drill(addr, &drift_config);
            print!("{}", drift_report.render());
            if !drift_report.all_passed() {
                std::process::exit(1);
            }
        }
    } else {
        let report = chaos::run_drill(addr, args.max_inflight, args.read_deadline_ms, args.seed);
        print!("{}", report.render());
        if !report.all_passed() {
            std::process::exit(1);
        }
    }

    if args.fleet {
        // parse_args enforced both paths are present.
        if let (Some(reload_path), Some(alt_checkpoint)) =
            (args.reload_path.as_ref(), args.alt_checkpoint.as_ref())
        {
            let fleet_config = chaos::FleetDrillConfig {
                reload_path: reload_path.into(),
                alt_checkpoint: alt_checkpoint.into(),
                seed: args.seed,
                wedge_budget_ms: args.wedge_budget_ms,
            };
            let fleet_report = chaos::run_fleet_drill(addr, &fleet_config);
            print!("{}", fleet_report.render());
            if !fleet_report.all_passed() {
                std::process::exit(1);
            }
        }
    }

    if args.shutdown {
        match chaos::post(addr, "/shutdown", b"") {
            Ok(Some((200, _))) => {}
            other => {
                eprintln!("adec-chaos: POST /shutdown answered {other:?}, want 200");
                std::process::exit(1);
            }
        }
        // Drain must complete: within the grace window new connections
        // start failing (listener closed).
        let gone_by = Instant::now() + Duration::from_secs(30);
        loop {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
                Err(_) => break,
                Ok(s) => drop(s),
            }
            if Instant::now() > gone_by {
                eprintln!("adec-chaos: server still accepting 30s after /shutdown");
                std::process::exit(1);
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        println!("PASS shutdown-drain: listener closed after /shutdown");
    }
}
