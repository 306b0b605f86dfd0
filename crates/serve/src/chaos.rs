//! Deterministic chaos drill for the serving path.
//!
//! One harness, two callers: the in-process integration tests
//! (`crates/serve/tests/chaos.rs`) run it against a [`crate::server::ServerHandle`]
//! inside the test process, and the `adec-chaos` binary runs the *same*
//! scenarios against the real release binary in CI. Every byte of hostile
//! input comes from [`adec_tensor::SeedRng`], so a failing drill replays
//! exactly.
//!
//! Scenarios (each ends by asserting the server still answers `/healthz`):
//!
//! - **garbage** — seeded random bytes, never a valid request → 400.
//! - **truncation** — valid request prefixes cut at every interesting
//!   length, then the socket closes → no response expected, no crash.
//! - **huge head / huge body** — exceed the byte budgets → 431 / 413,
//!   including an *honest* oversized `Content-Length` rejected before the
//!   body uploads.
//! - **slowloris** — bytes dripped slower than the read deadline → 408.
//! - **mid-body reset** — declare a body, send half, reset the socket.
//! - **flood** — more concurrent connections than `max_inflight` →
//!   some 200s, some 503 + `Retry-After`, zero hangs.
//! - **determinism** — the same `/assign` body sent twice must produce
//!   byte-identical responses.
//! - **metrics** — after all of the above, `GET /metrics` must return a
//!   body that passes the strict Prometheus exposition parser, report
//!   zero caught panics, and show the latency histogram populated.
//!
//! Requests go through the load harness's client ([`adec_loadgen::client`]);
//! only the scenarios that need byte-level control of the socket (the
//! slow-loris drip, the mid-body reset and the fault injector) open raw
//! `TcpStream`s.

use adec_loadgen::client::{self, json_body};
use adec_loadgen::{csv_body, csv_rows};
use adec_obs::json::Json;
use adec_obs::prom::Exposition;
use adec_tensor::SeedRng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

pub use adec_loadgen::client::post;

/// How long a raw socket waits on the server before declaring it wedged.
/// Generous: CI machines stall.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// The `/statz` event counters, in `/statz` order; `/metrics` exports
/// each as `adec_serve_<key>_total`.
pub const STATZ_COUNTERS: [&str; 12] = [
    "served",
    "rejected_busy",
    "client_errors",
    "disconnects",
    "deadline_expired",
    "caught_panics",
    "served_full",
    "served_no_decoder",
    "served_centroid_only",
    "respawns",
    "reloads",
    "reloads_refused",
];

/// One scenario's verdict.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name (stable, used in CI asserts).
    pub name: &'static str,
    /// Human-readable pass/fail detail.
    pub detail: String,
    /// Whether the scenario held.
    pub passed: bool,
}

/// Full drill report.
#[derive(Debug, Clone)]
pub struct DrillReport {
    /// Per-scenario verdicts, in execution order.
    pub scenarios: Vec<ScenarioResult>,
}

impl DrillReport {
    /// True when every scenario passed.
    pub fn all_passed(&self) -> bool {
        self.scenarios.iter().all(|s| s.passed)
    }

    /// Plain-text table for logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.scenarios {
            out.push_str(if s.passed { "PASS " } else { "FAIL " });
            out.push_str(s.name);
            out.push_str(": ");
            out.push_str(&s.detail);
            out.push('\n');
        }
        out
    }
}

/// Sends raw bytes and returns the status of whatever came back.
fn raw_status(addr: SocketAddr, payload: &[u8]) -> Option<u16> {
    let raw = client::exchange(addr, payload).ok()?;
    client::split_response(&raw).map(|(status, _, _)| status)
}

/// A nonnegative integer field of a parsed JSON object.
fn json_usize(doc: &Json, key: &str) -> Option<usize> {
    usize::try_from(doc.get(key)?.as_u64()?).ok()
}

/// A boolean field of a parsed JSON object.
fn json_bool(doc: &Json, key: &str) -> Option<bool> {
    match doc.get(key)? {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Checks one server's counters across two scrapes taken back to back:
/// `statz` first, then `metrics`. Every event counter must agree exactly,
/// except `served`, which `/metrics` reports higher by exactly one — the
/// `/statz` request itself.
///
/// # Errors
///
/// The first counter that is missing or disagrees.
fn check_counter_agreement(statz: &Json, metrics: &Exposition) -> Result<(), String> {
    for key in STATZ_COUNTERS {
        let want = statz
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("/statz has no {key}"))?
            + u64::from(key == "served");
        let name = format!("adec_serve_{key}_total");
        let got = metrics.sample(&name);
        if got != Some(want as f64) {
            return Err(format!("{name}={got:?} but /statz implies {want}"));
        }
    }
    Ok(())
}

fn healthz_alive(addr: SocketAddr) -> bool {
    matches!(client::get(addr, "/healthz"), Some((200, _)))
}

fn result(name: &'static str, passed: bool, detail: String) -> ScenarioResult {
    ScenarioResult {
        name,
        detail,
        passed,
    }
}

/// Asserts the server survived a scenario: still answers `/healthz` 200.
fn with_liveness(name: &'static str, addr: SocketAddr, passed: bool, detail: String) -> ScenarioResult {
    if !passed {
        return result(name, false, detail);
    }
    if healthz_alive(addr) {
        result(name, true, detail)
    } else {
        result(name, false, format!("{detail}; BUT /healthz died afterwards"))
    }
}

/// Runs every scenario against a live server. `max_inflight` and
/// `read_deadline_ms` must match the server's config so the flood and
/// slowloris scenarios size themselves correctly.
pub fn run_drill(
    addr: SocketAddr,
    max_inflight: usize,
    read_deadline_ms: u64,
    seed: u64,
) -> DrillReport {
    let mut scenarios = Vec::new();
    let mut rng = SeedRng::new(seed);

    // -- readiness + discovery ------------------------------------------
    let input_dim = client::discover_input_dim(addr);
    scenarios.push(result(
        "readyz-discovery",
        input_dim.is_some(),
        format!("input_dim={input_dim:?}"),
    ));
    let input_dim = input_dim.unwrap_or(1);

    // -- garbage bytes ---------------------------------------------------
    let mut garbage_ok = true;
    let mut garbage_detail = String::from("all rejected with 400");
    for i in 0..8 {
        let n = 1 + rng.below(200);
        let noise: Vec<u8> = (0..n).map(|_| rng.below(256) as u8).collect();
        // Terminate the head so the server must judge the bytes, not wait.
        let mut payload = noise;
        payload.extend_from_slice(b"\r\n\r\n");
        match raw_status(addr, &payload) {
            Some(400) | Some(431) => {}
            other => {
                garbage_ok = false;
                garbage_detail = format!("garbage #{i} answered {other:?}, want 400/431");
                break;
            }
        }
    }
    scenarios.push(with_liveness("garbage", addr, garbage_ok, garbage_detail));

    // -- truncations -----------------------------------------------------
    let body = csv_rows(input_dim, 2, &mut SeedRng::new(seed ^ 1));
    let full = client::render_post("/assign", None, &body);
    let mut trunc_ok = true;
    let mut trunc_detail = format!("{} prefixes survived", full.len().min(24) + 3);
    for cut in (0..full.len().min(24)).chain([full.len() / 2, full.len().saturating_sub(1), full.len().saturating_sub(3)]) {
        let prefix = full.get(..cut).unwrap_or(&full);
        if client::exchange(addr, prefix).is_err() {
            trunc_ok = false;
            trunc_detail = format!("connect failed at cut={cut}");
            break;
        }
    }
    scenarios.push(with_liveness("truncation", addr, trunc_ok, trunc_detail));

    // -- huge head -------------------------------------------------------
    let mut huge_head = b"GET /assign HTTP/1.1\r\npad: ".to_vec();
    huge_head.extend(std::iter::repeat_n(b'x', 64 * 1024));
    let head_status = raw_status(addr, &huge_head);
    scenarios.push(with_liveness(
        "huge-head",
        addr,
        head_status == Some(431),
        format!("answered {head_status:?}, want 431"),
    ));

    // -- huge body (honest content-length, rejected pre-upload) ----------
    let huge_decl = b"POST /assign HTTP/1.1\r\nhost: chaos\r\ncontent-length: 999999999\r\n\r\n";
    let body_status = raw_status(addr, huge_decl);
    scenarios.push(with_liveness(
        "huge-body",
        addr,
        body_status == Some(413),
        format!("answered {body_status:?}, want 413"),
    ));

    // -- slowloris -------------------------------------------------------
    let slow = (|| -> std::io::Result<Option<u16>> {
        let mut stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        let drip = Duration::from_millis((read_deadline_ms / 4).max(10));
        // Drip a byte at a time for ~2x the read deadline.
        for b in b"GET /hea".iter().cycle().take(12) {
            if stream.write_all(&[*b]).is_err() {
                break; // server already gave up on us — that's the point
            }
            std::thread::sleep(drip);
        }
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        Ok(client::split_response(&out).map(|(status, _, _)| status))
    })();
    let slow_pass = matches!(slow, Ok(Some(408)) | Ok(None));
    scenarios.push(with_liveness(
        "slowloris",
        addr,
        slow_pass,
        format!("answered {slow:?}, want 408 or cutoff"),
    ));

    // -- mid-body reset --------------------------------------------------
    // std offers no stable SO_LINGER, so the rudest goodbye available is
    // an abrupt close with the declared body mostly unsent; the server
    // sees EOF/ECONNRESET mid-body either way.
    let reset_ok = (|| -> std::io::Result<()> {
        let mut stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
        stream.write_all(b"POST /assign HTTP/1.1\r\nhost: chaos\r\ncontent-length: 1000\r\n\r\nhalf,of,a")?;
        let _ = stream.shutdown(Shutdown::Both);
        drop(stream);
        Ok(())
    })()
    .is_ok();
    scenarios.push(with_liveness(
        "mid-body-reset",
        addr,
        reset_ok,
        "socket closed mid-body".to_string(),
    ));

    // -- flood -----------------------------------------------------------
    let flood_n = max_inflight * 2 + 8;
    let flood_threads: Vec<_> = (0..flood_n)
        .map(|_| std::thread::spawn(move || client::get(addr, "/healthz").map(|(s, _)| s)))
        .collect();
    let mut ok200 = 0usize;
    let mut busy503 = 0usize;
    let mut other = 0usize;
    for t in flood_threads {
        match t.join() {
            Ok(Some(200)) => ok200 += 1,
            Ok(Some(503)) => busy503 += 1,
            _ => other += 1,
        }
    }
    // Every connection must get SOME typed answer; at least one must be
    // served. (Whether 503s appear depends on scheduling, so they are
    // reported, not required.)
    let flood_pass = ok200 >= 1 && other == 0;
    scenarios.push(with_liveness(
        "flood",
        addr,
        flood_pass,
        format!("{flood_n} conns: {ok200}x200 {busy503}x503 {other}x other"),
    ));

    // -- determinism -----------------------------------------------------
    let body = csv_rows(input_dim, 16, &mut SeedRng::new(seed ^ 2));
    let first = client::post(addr, "/assign", &body).ok().flatten();
    let second = client::post(addr, "/assign", &body).ok().flatten();
    let det_pass = match (&first, &second) {
        (Some((200, a)), Some((200, b))) => a == b,
        _ => false,
    };
    scenarios.push(with_liveness(
        "determinism",
        addr,
        det_pass,
        match (&first, &second) {
            (Some((200, a)), Some((200, b))) if a == b => {
                format!("two identical {}–byte responses", a.len())
            }
            (a, b) => format!(
                "statuses {:?}/{:?} or bodies differ",
                a.as_ref().map(|x| x.0),
                b.as_ref().map(|x| x.0)
            ),
        },
    ));

    // -- load under faults ----------------------------------------------
    // The open-loop harness offers a fixed schedule of mixed traffic
    // (valid, malformed, oversized, slow-loris) while a fault injector
    // hammers the same server with garbage and mid-body resets. The
    // contract under fire: valid traffic keeps being answered, every 503
    // carries Retry-After, no unexplained statuses, and (checked by the
    // metrics scenario that follows) zero caught panics.
    let caught_panics = || {
        client::scrape_metrics(addr)
            .ok()
            .and_then(|exp| exp.sample("adec_serve_caught_panics_total"))
    };
    let panics_before = caught_panics();
    let stop_faults = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let injector = {
        let stop = std::sync::Arc::clone(&stop_faults);
        let mut fault_rng = SeedRng::new(seed ^ 0x10ad);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let n = 1 + fault_rng.below(120);
                let mut noise: Vec<u8> = (0..n).map(|_| fault_rng.below(256) as u8).collect();
                noise.extend_from_slice(b"\r\n\r\n");
                let _ = client::exchange(addr, &noise);
                // A mid-body reset between garbage bursts.
                if let Ok(mut s) = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT) {
                    let _ = s.write_all(
                        b"POST /assign HTTP/1.1\r\nhost: chaos\r\ncontent-length: 900\r\n\r\nhalf",
                    );
                    let _ = s.shutdown(Shutdown::Both);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let load_config = adec_loadgen::LoadConfig {
        addr,
        schedule: adec_loadgen::ScheduleConfig {
            seed: seed ^ 3,
            rps: 150.0,
            duration: Duration::from_secs(2),
            input_dim,
            ..adec_loadgen::ScheduleConfig::default()
        },
        discover_dim: false, // already discovered above
        concurrency: 8,
        slow_drip: Duration::from_millis((read_deadline_ms / 4).max(10)),
        ..adec_loadgen::LoadConfig::default()
    };
    let load_outcome = adec_loadgen::run_load(&load_config);
    stop_faults.store(true, std::sync::atomic::Ordering::Relaxed);
    let _ = injector.join();
    let panics_after = caught_panics();
    let (load_pass, load_detail) = match load_outcome {
        Ok(report) => {
            let o = &report.outcomes;
            let panic_delta = match (panics_before, panics_after) {
                (Some(a), Some(b)) => b - a,
                _ => f64::NAN, // scrape failed: fail loudly below
            };
            // Counters are integral; NaN (scrape failure) fails the check.
            let pass = o.ok_200 >= 1
                && o.retry_after_missing == 0
                && o.other_status == 0
                && panic_delta.abs() < 0.5;
            (
                pass,
                format!(
                    "{} scheduled: {}x200 {}x400 {}x408 {}x413 {}x busy-503 {}x deadline-503 \
                     {}x no-response; 503s missing Retry-After: {}; panic delta {panic_delta}",
                    report.schedule_requests,
                    o.ok_200,
                    o.bad_request_400,
                    o.timeout_408,
                    o.payload_413,
                    o.busy_503,
                    o.deadline_503,
                    o.no_response,
                    o.retry_after_missing,
                ),
            )
        }
        Err(e) => (false, format!("load harness failed to run: {e}")),
    };
    scenarios.push(with_liveness("load", addr, load_pass, load_detail));

    // -- metrics ---------------------------------------------------------
    // The drill just battered the server; its scrape must still be valid
    // exposition format, prove no worker panicked, and show the request
    // latency histogram actually collecting.
    let (metrics_pass, metrics_detail) = match client::scrape_metrics(addr) {
        Ok(exp) => {
            let panics = exp.sample("adec_serve_caught_panics_total");
            let latency_count = exp.sample("adec_serve_request_seconds_count");
            if panics != Some(0.0) {
                (false, format!("caught_panics_total={panics:?}, want 0"))
            } else if !latency_count.is_some_and(|c| c > 0.0) {
                (
                    false,
                    format!("request_seconds_count={latency_count:?}, want > 0"),
                )
            } else {
                (
                    true,
                    format!(
                        "valid exposition, 0 panics, {} timed requests",
                        latency_count.unwrap_or(0.0)
                    ),
                )
            }
        }
        Err(err) => (false, err),
    };
    scenarios.push(with_liveness("metrics", addr, metrics_pass, metrics_detail));

    DrillReport { scenarios }
}

// ---------------------------------------------------------------------------
// Fleet drill: replica-kill, replica-wedge, reload-under-fire, corrupt-reload
// ---------------------------------------------------------------------------

/// Configuration for [`run_fleet_drill`]. The drill *mutates the file at
/// `reload_path`* (swapping in the alternate checkpoint, corrupting it,
/// patching its store version) and restores a valid checkpoint at the end.
#[derive(Debug, Clone)]
pub struct FleetDrillConfig {
    /// The path the server's `POST /reload` stages from (its `--checkpoint`).
    pub reload_path: std::path::PathBuf,
    /// A second valid checkpoint with the same dims but different weights.
    pub alt_checkpoint: std::path::PathBuf,
    /// Seed for the drill's deterministic traffic.
    pub seed: u64,
    /// The server's wedge budget, bounding how long the wedge scenario
    /// waits for the supervisor to supersede.
    pub wedge_budget_ms: u64,
}

/// The respawn counter, scraped from `/metrics`.
fn respawns(addr: SocketAddr) -> Option<f64> {
    client::scrape_metrics(addr)
        .ok()?
        .sample("adec_serve_respawns_total")
}

/// The live model version, straight from `/readyz`.
fn model_version_of(addr: SocketAddr) -> Option<usize> {
    let (200, body) = client::get(addr, "/readyz")? else {
        return None;
    };
    json_usize(&json_body(&body)?, "model_version")
}

/// Replaces `path`'s contents atomically (temp file + rename in-dir), so a
/// concurrent `--watch-checkpoint` poll never reads a half-written file.
fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("chaos-tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Tallies from pounding `/assign` with valid traffic.
#[derive(Debug, Clone, Copy, Default)]
struct PoundTally {
    ok_200: usize,
    busy_503: usize,
    other: usize,
    no_response: usize,
}

impl PoundTally {
    /// Tallies one `/assign` answer.
    fn record(&mut self, answer: std::io::Result<Option<(u16, Vec<u8>)>>) {
        match answer {
            Ok(Some((200, _))) => self.ok_200 += 1,
            Ok(Some((503, _))) => self.busy_503 += 1,
            Ok(Some(_)) => self.other += 1,
            _ => self.no_response += 1,
        }
    }

    fn merge(&mut self, other: PoundTally) {
        self.ok_200 += other.ok_200;
        self.busy_503 += other.busy_503;
        self.other += other.other;
        self.no_response += other.no_response;
    }

    fn render(&self) -> String {
        format!(
            "{}x200 {}x busy-503 {}x other {}x no-response",
            self.ok_200, self.busy_503, self.other, self.no_response
        )
    }

    /// The fleet contract under fire: every request gets a typed answer
    /// (200 or budgeted 503), and some are actually served.
    fn within_budget(&self) -> bool {
        self.ok_200 >= 1 && self.other == 0 && self.no_response == 0
    }
}

/// Pounds `/assign` from `threads` clients, `per_thread` requests each.
fn pound_assign(
    addr: SocketAddr,
    input_dim: usize,
    seed: u64,
    threads: usize,
    per_thread: usize,
) -> PoundTally {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let body = csv_rows(input_dim, 4, &mut SeedRng::new(seed ^ (t as u64)));
            std::thread::spawn(move || {
                let mut tally = PoundTally::default();
                for _ in 0..per_thread {
                    tally.record(client::post(addr, "/assign", &body));
                }
                tally
            })
        })
        .collect();
    let mut total = PoundTally::default();
    for h in handles {
        if let Ok(t) = h.join() {
            total.merge(t);
        }
    }
    total
}

/// Polls `/metrics` until `adec_serve_respawns_total` exceeds
/// `floor + need`, up to `budget`. Returns the last observed value.
fn wait_for_respawns(addr: SocketAddr, floor: f64, need: f64, budget: Duration) -> Option<f64> {
    let deadline = std::time::Instant::now() + budget;
    loop {
        let seen = respawns(addr);
        if seen.is_some_and(|v| v > floor + need) {
            return seen;
        }
        if std::time::Instant::now() >= deadline {
            return seen;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
}

/// The `"assignments":[...]` tail of an `/assign` response: everything a
/// completed same-bytes hot swap must leave bitwise untouched (the
/// `model_version` field outside it legitimately advances).
fn assignments_part(body: &[u8]) -> Option<&[u8]> {
    let key = b"\"assignments\":";
    let pos = body.windows(key.len()).position(|w| w == key)?;
    body.get(pos..)
}

/// Runs the fleet robustness scenarios against a live *fleet* server
/// (needs `--replicas >= 2` and a reloadable checkpoint). Covers:
/// replica-kill and replica-wedge under load (supervisor respawns within
/// budget, error budget respected), reload-under-fire (version advances
/// atomically, zero dropped requests), same-bytes swap no-op, corrupt
/// reload and store-version-mismatch reload (live model untouched, typed
/// refusals), and a final metrics audit (zero caught panics).
pub fn run_fleet_drill(addr: SocketAddr, config: &FleetDrillConfig) -> DrillReport {
    let mut scenarios = Vec::new();
    let seed = config.seed;

    // -- discovery -------------------------------------------------------
    let input_dim = client::discover_input_dim(addr);
    let version0 = model_version_of(addr);
    scenarios.push(result(
        "fleet-discovery",
        input_dim.is_some() && version0.is_some(),
        format!("input_dim={input_dim:?} model_version={version0:?}"),
    ));
    let input_dim = input_dim.unwrap_or(1);

    let (orig, alt) = match (
        std::fs::read(&config.reload_path),
        std::fs::read(&config.alt_checkpoint),
    ) {
        (Ok(o), Ok(a)) => (o, a),
        (o, a) => {
            scenarios.push(result(
                "fleet-files",
                false,
                format!(
                    "checkpoint files unreadable: reload={:?} alt={:?}",
                    o.err(),
                    a.err()
                ),
            ));
            return DrillReport { scenarios };
        }
    };
    scenarios.push(result(
        "fleet-files",
        true,
        format!("reload={} bytes, alt={} bytes", orig.len(), alt.len()),
    ));

    // -- replica-kill under load ----------------------------------------
    // Kill two replicas while valid traffic flows. In-flight requests must
    // all be answered (a kill lands between requests, never mid-request)
    // and the supervisor must respawn within its backoff budget.
    let respawns_before = respawns(addr).unwrap_or(f64::NAN);
    let kill_tally = {
        let pound = std::thread::spawn(move || pound_assign(addr, input_dim, seed ^ 0x1337, 4, 30));
        std::thread::sleep(Duration::from_millis(30));
        let k0 = client::post(addr, "/chaos/kill-replica", b"0")
            .ok()
            .flatten();
        std::thread::sleep(Duration::from_millis(60));
        let k1 = client::post(addr, "/chaos/kill-replica", b"1")
            .ok()
            .flatten();
        let mut tally = pound.join().unwrap_or_default();
        if !matches!(k0, Some((200, _))) || !matches!(k1, Some((200, _))) {
            tally.other += 1; // a failed kill order fails the scenario
        }
        tally
    };
    let respawns_after = wait_for_respawns(addr, respawns_before, 1.5, Duration::from_secs(5));
    let kill_pass = kill_tally.within_budget()
        && respawns_after.is_some_and(|v| v > respawns_before + 1.5); // both kills respawned
    scenarios.push(with_liveness(
        "replica-kill",
        addr,
        kill_pass,
        format!(
            "{}; respawns {respawns_before} -> {respawns_after:?}",
            kill_tally.render()
        ),
    ));

    // -- replica-wedge under load ---------------------------------------
    // Wedge one replica: the fleet keeps answering on the others, and the
    // supervisor supersedes the stuck worker within the wedge budget.
    let respawns_before = respawns(addr).unwrap_or(f64::NAN);
    let wedge_order = client::post(addr, "/chaos/wedge-replica", b"0")
        .ok()
        .flatten();
    let wedge_tally = pound_assign(addr, input_dim, seed ^ 0xd00f, 2, 10);
    let wedge_wait = Duration::from_millis(config.wedge_budget_ms.saturating_mul(2) + 5_000);
    let respawns_after = wait_for_respawns(addr, respawns_before, 0.5, wedge_wait);
    let wedge_pass = matches!(wedge_order, Some((200, _)))
        && wedge_tally.within_budget()
        && respawns_after.is_some_and(|v| v > respawns_before + 0.5);
    scenarios.push(with_liveness(
        "replica-wedge",
        addr,
        wedge_pass,
        format!(
            "order={:?}; {}; respawns {respawns_before} -> {respawns_after:?}",
            wedge_order.as_ref().map(|(s, _)| s),
            wedge_tally.render()
        ),
    ));

    // -- reload-under-fire ----------------------------------------------
    // Swap to the alternate checkpoint while traffic flows: the version
    // must advance by exactly one, with zero dropped requests.
    let v_before = model_version_of(addr);
    let reload_result = if write_atomic(&config.reload_path, &alt).is_ok() {
        let pound = std::thread::spawn(move || pound_assign(addr, input_dim, seed ^ 0xf1fe, 4, 25));
        std::thread::sleep(Duration::from_millis(40));
        let reload = client::post(addr, "/reload", b"").ok().flatten();
        let tally = pound.join().unwrap_or_default();
        Some((reload, tally))
    } else {
        None
    };
    let v_after = model_version_of(addr);
    let (reload_pass, reload_detail) = match (&reload_result, v_before, v_after) {
        (Some((Some((200, _)), tally)), Some(a), Some(b)) => (
            b == a + 1 && tally.within_budget(),
            format!("version {a} -> {b}; {}", tally.render()),
        ),
        (r, a, b) => (
            false,
            format!(
                "reload={:?} version {a:?} -> {b:?}",
                r.as_ref().map(|(resp, _)| resp.as_ref().map(|(s, _)| *s))
            ),
        ),
    };
    scenarios.push(with_liveness("reload-under-fire", addr, reload_pass, reload_detail));

    // -- post-swap determinism ------------------------------------------
    // A completed swap must leave the service deterministic on the new
    // weights: identical requests, byte-identical answers.
    let det_body = csv_rows(input_dim, 8, &mut SeedRng::new(seed ^ 0xde7e));
    let det_a = client::post(addr, "/assign", &det_body).ok().flatten();
    let det_b = client::post(addr, "/assign", &det_body).ok().flatten();
    let det_pass = matches!((&det_a, &det_b), (Some((200, a)), Some((200, b))) if a == b);
    scenarios.push(with_liveness(
        "post-swap-determinism",
        addr,
        det_pass,
        format!(
            "statuses {:?}/{:?}",
            det_a.as_ref().map(|x| x.0),
            det_b.as_ref().map(|x| x.0)
        ),
    ));

    // -- swap-noop (same bytes) -----------------------------------------
    // Reloading the *same* checkpoint bytes is a completed swap (the
    // version advances) but must not flip a single label or probability:
    // the "assignments" tail is bitwise identical.
    let noop_before = client::post(addr, "/assign", &det_body).ok().flatten();
    let noop_reload = client::post(addr, "/reload", b"").ok().flatten();
    let noop_after = client::post(addr, "/assign", &det_body).ok().flatten();
    let v_noop = model_version_of(addr);
    let noop_pass = match (&noop_before, &noop_reload, &noop_after, v_after, v_noop) {
        (Some((200, a)), Some((200, _)), Some((200, b)), Some(va), Some(vn)) => {
            vn == va + 1
                && assignments_part(a).is_some()
                && assignments_part(a) == assignments_part(b)
        }
        _ => false,
    };
    scenarios.push(with_liveness(
        "swap-noop",
        addr,
        noop_pass,
        format!(
            "version {v_after:?} -> {v_noop:?}; assignments identical: {}",
            match (&noop_before, &noop_after) {
                (Some((_, a)), Some((_, b))) =>
                    (assignments_part(a) == assignments_part(b)).to_string(),
                _ => "n/a".to_string(),
            }
        ),
    ));

    // -- corrupt-reload --------------------------------------------------
    // A bit-flipped checkpoint must be refused with a typed 409 and leave
    // the live model bitwise untouched.
    let before = client::post(addr, "/assign", &det_body).ok().flatten();
    let v_live = model_version_of(addr);
    let mut corrupt = alt.clone();
    let mid = corrupt.len() / 2;
    if let Some(b) = corrupt.get_mut(mid) {
        *b ^= 0x40;
    }
    let corrupt_reload = if write_atomic(&config.reload_path, &corrupt).is_ok() {
        client::post(addr, "/reload", b"").ok().flatten()
    } else {
        None
    };
    let after = client::post(addr, "/assign", &det_body).ok().flatten();
    let v_after_corrupt = model_version_of(addr);
    let corrupt_pass = match (&corrupt_reload, &before, &after) {
        (Some((409, rbody)), Some((200, a)), Some((200, b))) => {
            let text = String::from_utf8_lossy(rbody);
            text.contains("corrupt-checkpoint") && a == b && v_live == v_after_corrupt
        }
        _ => false,
    };
    scenarios.push(with_liveness(
        "corrupt-reload",
        addr,
        corrupt_pass,
        format!(
            "reload={:?}; version {v_live:?} -> {v_after_corrupt:?}; live responses identical: {}",
            corrupt_reload.as_ref().map(|(s, _)| s),
            matches!((&before, &after), (Some((_, a)), Some((_, b))) if a == b)
        ),
    ));

    // -- version-mismatch reload ----------------------------------------
    // A checkpoint whose parameter-store format version is from the
    // future must be refused *distinctly*: its own reason, with the found
    // version named in the detail.
    let mut patched = alt.clone();
    let magic_pos = patched.windows(8).position(|w| w == b"ADECPS01");
    let patched_ok = magic_pos.is_some_and(|pos| {
        if let Some(b) = patched.get_mut(pos + 7) {
            *b = b'2';
        }
        adec_nn::checkpoint::reseal_checksum(&mut patched)
    });
    let mismatch_reload = if patched_ok && write_atomic(&config.reload_path, &patched).is_ok() {
        client::post(addr, "/reload", b"").ok().flatten()
    } else {
        None
    };
    let mismatch_pass = match &mismatch_reload {
        Some((409, rbody)) => {
            let text = String::from_utf8_lossy(rbody);
            text.contains("store-version-mismatch") && text.contains("version 2")
        }
        _ => false,
    };
    scenarios.push(with_liveness(
        "version-mismatch-reload",
        addr,
        mismatch_pass,
        format!(
            "reload={:?} (expect 409 naming found version)",
            mismatch_reload.as_ref().map(|(s, _)| s)
        ),
    ));

    // -- restore ---------------------------------------------------------
    // Leave the reload path holding the bytes that are actually live (the
    // alternate checkpoint after the completed swaps above).
    let restored = write_atomic(&config.reload_path, &alt).is_ok();
    scenarios.push(result(
        "restore-checkpoint",
        restored,
        "reload path restored to the live checkpoint bytes".to_string(),
    ));

    // -- fleet metrics audit ---------------------------------------------
    // After kills, wedges, swaps, and refused reloads: the exposition is
    // still strictly valid, no worker ever panicked, the fleet is whole,
    // the reload counters add up, and `/statz` scraped just before agrees
    // with `/metrics` on every counter (both read the one counter set).
    let statz = client::get(addr, "/statz").and_then(|(_, body)| json_body(&body));
    let (metrics_pass, metrics_detail) = match (client::scrape_metrics(addr), statz) {
        (Ok(exp), Some(statz)) => {
            let panics = exp.sample("adec_serve_caught_panics_total");
            let live = exp.sample("adec_serve_replicas_live");
            let reloads = exp.sample("adec_serve_reloads_total");
            let refused = exp.sample("adec_serve_reloads_refused_total");
            let generation = exp.sample("adec_serve_reload_generation");
            let agreement = check_counter_agreement(&statz, &exp);
            let pass = panics == Some(0.0)
                && live.is_some_and(|v| v >= 1.0)
                && reloads.is_some_and(|v| v >= 2.0)
                && refused.is_some_and(|v| v >= 2.0)
                && generation == reloads
                && agreement.is_ok();
            (
                pass,
                format!(
                    "panics={panics:?} replicas_live={live:?} reloads={reloads:?} \
                     refused={refused:?} generation={generation:?} statz agreement: {}",
                    agreement.err().unwrap_or_else(|| "exact".to_string())
                ),
            )
        }
        (Err(err), _) => (false, err),
        (_, None) => (false, "/statz unreachable or not JSON".to_string()),
    };
    scenarios.push(with_liveness("fleet-metrics", addr, metrics_pass, metrics_detail));

    DrillReport { scenarios }
}

// ---------------------------------------------------------------------------
// Drift drill: stationary no-false-alarm, bounded detection, ladder, recovery
// ---------------------------------------------------------------------------

/// Configuration for [`run_drift_drill`]. The server must have been
/// started from a checkpoint *trained on `base`* (so its embedded
/// reference profile describes `base`'s distribution) with a drift window
/// of `window_rows`. The drill mutates the file at `reload_path` (copying
/// in the refit checkpoint) during the recovery scenario.
#[derive(Debug, Clone)]
pub struct DriftDrillConfig {
    /// The training distribution: stationary traffic is bootstrap-resampled
    /// from these rows, shifted traffic is derived from them.
    pub base: adec_datagen::Dataset,
    /// The path the server's `POST /reload` stages from (its `--checkpoint`).
    pub reload_path: std::path::PathBuf,
    /// A valid refit checkpoint (same dims, profiled on `base`) that the
    /// recovery scenario hot-loads to clear the alarm.
    pub refit_checkpoint: std::path::PathBuf,
    /// Seed for the drill's deterministic streams.
    pub seed: u64,
    /// The server's `--drift-window` (rows per detector window).
    pub window_rows: usize,
    /// Detection-latency bound: the drill fails if a 2.5σ mean shift is
    /// not alarmed within this many windows (the documented bound is 2;
    /// CI uses 8 for slack).
    pub max_windows: usize,
}

/// Number of stationary windows the no-false-alarm scenario streams.
const STATIONARY_WINDOWS: usize = 6;

/// The fields of `GET /driftz` the drill asserts on.
#[derive(Debug, Clone)]
struct DriftzView {
    policy: String,
    profile: String,
    enabled: bool,
    window_rows: usize,
    windows: usize,
    alarms: usize,
    clears: usize,
    alarmed: bool,
}

/// Fetches and parses `/driftz`.
fn driftz_view(addr: SocketAddr) -> Option<DriftzView> {
    let (200, body) = client::get(addr, "/driftz")? else {
        return None;
    };
    let doc = json_body(&body)?;
    Some(DriftzView {
        policy: doc.get("policy")?.as_str()?.to_string(),
        profile: doc.get("profile")?.as_str()?.to_string(),
        enabled: json_bool(&doc, "enabled")?,
        window_rows: json_usize(&doc, "window_rows")?,
        windows: json_usize(&doc, "windows")?,
        alarms: json_usize(&doc, "alarms")?,
        clears: json_usize(&doc, "clears")?,
        alarmed: json_bool(&doc, "alarmed")?,
    })
}

/// Renders a matrix as an `/assign` CSV body.
fn matrix_body(x: &adec_tensor::Matrix) -> Vec<u8> {
    csv_body((0..x.rows()).map(|r| x.row(r)))
}

/// Streams `windows` detector windows of rows from `sim` through
/// `/assign`, in requests of at most 32 rows each.
fn pump_windows(
    addr: SocketAddr,
    sim: &mut adec_datagen::StreamSim,
    window_rows: usize,
    windows: usize,
) -> PoundTally {
    let mut tally = PoundTally::default();
    for _ in 0..windows {
        let mut left = window_rows;
        while left > 0 {
            let take = left.min(32);
            tally.record(client::post(
                addr,
                "/assign",
                &matrix_body(&sim.next_batch(take)),
            ));
            left -= take;
        }
    }
    tally
}

/// Polls `/driftz` until the closed-window counter reaches `target`
/// (window accounting intentionally lags the `/assign` response).
fn wait_for_drift_windows(addr: SocketAddr, target: usize, budget: Duration) -> Option<usize> {
    let deadline = std::time::Instant::now() + budget;
    loop {
        let seen = driftz_view(addr).map(|v| v.windows);
        if seen.is_some_and(|v| v >= target) || std::time::Instant::now() >= deadline {
            return seen;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs the drift-sentinel scenarios against a live server started from a
/// profiled checkpoint. Covers: discovery (`/driftz` reports a present
/// profile and the expected window size), stationary no-false-alarm
/// (bootstrap traffic from the training distribution never alarms),
/// bounded detection (a 2.5σ mean shift alarms within
/// [`DriftDrillConfig::max_windows`] windows), the mitigation ladder
/// (policy-dependent response stamping, degradation, and readiness
/// gating), recovery (hot-reloading a refit checkpoint clears the latch
/// and stationary traffic stays clear), and a drift metrics audit.
pub fn run_drift_drill(addr: SocketAddr, config: &DriftDrillConfig) -> DrillReport {
    use adec_datagen::{ShiftKind, ShiftSchedule, StreamSim};

    let mut scenarios = Vec::new();
    let w = config.window_rows;

    // -- discovery -------------------------------------------------------
    // The sentinel is armed: profile present, window size as drilled, and
    // the served input dim matches the drill's base dataset.
    let input_dim = client::discover_input_dim(addr);
    let view0 = driftz_view(addr);
    let discovery_pass = input_dim == Some(config.base.dim())
        && view0.as_ref().is_some_and(|v| {
            v.enabled && v.profile == "present" && v.window_rows == w && !v.alarmed
        });
    scenarios.push(result(
        "drift-discovery",
        discovery_pass,
        format!("input_dim={input_dim:?} driftz={view0:?}"),
    ));
    let Some(view0) = view0 else {
        return DrillReport { scenarios };
    };
    let policy = view0.policy.clone();

    // -- stationary no-false-alarm ---------------------------------------
    // Six windows of bootstrap resamples from the training distribution:
    // every request answered, zero alarms, latch clear.
    let mut stationary = StreamSim::from_dataset(&config.base, config.seed, ShiftSchedule::stationary());
    let tally = pump_windows(addr, &mut stationary, w, STATIONARY_WINDOWS);
    let windows_seen =
        wait_for_drift_windows(addr, view0.windows + STATIONARY_WINDOWS, Duration::from_secs(10));
    let view = driftz_view(addr);
    let stationary_pass = tally.within_budget()
        && tally.busy_503 == 0
        && windows_seen.is_some_and(|v| v >= view0.windows + STATIONARY_WINDOWS)
        && view.as_ref().is_some_and(|v| !v.alarmed && v.alarms == 0);
    scenarios.push(with_liveness(
        "drift-stationary",
        addr,
        stationary_pass,
        format!("{}; windows={windows_seen:?} driftz={view:?}", tally.render()),
    ));
    let windows_base = view.map_or(view0.windows + STATIONARY_WINDOWS, |v| v.windows);

    // -- bounded detection ------------------------------------------------
    // A sustained 2.5σ mean shift must latch the alarm within the
    // configured window bound.
    let mut shifted = StreamSim::from_dataset(
        &config.base,
        config.seed ^ 0x5717,
        ShiftSchedule::single(0, ShiftKind::MeanShift, 2.5),
    );
    let mut detected_after = None;
    let mut detect_tally = PoundTally::default();
    for i in 1..=config.max_windows {
        detect_tally.merge(pump_windows(addr, &mut shifted, w, 1));
        wait_for_drift_windows(addr, windows_base + i, Duration::from_secs(10));
        if driftz_view(addr).is_some_and(|v| v.alarmed) {
            detected_after = Some(i);
            break;
        }
    }
    let view = driftz_view(addr);
    let detect_pass = detect_tally.within_budget()
        && detect_tally.busy_503 == 0
        && detected_after.is_some()
        && view.as_ref().is_some_and(|v| v.alarmed && v.alarms >= 1);
    scenarios.push(with_liveness(
        "drift-detection",
        addr,
        detect_pass,
        format!(
            "alarm after {detected_after:?} shifted windows (bound {}); {}; driftz={view:?}",
            config.max_windows,
            detect_tally.render()
        ),
    ));

    // -- mitigation ladder ------------------------------------------------
    // With the alarm latched, the response contract is policy-dependent:
    // observe stays invisible; degrade stamps `"drift":true` and degrades
    // the serve mode; gate additionally fails readiness with the alarm
    // named. Two more saturating windows first, so severity is past the
    // harder-degradation knee and the ladder choice is stable.
    pump_windows(addr, &mut shifted, w, 2);
    let probe = matrix_body(&shifted.next_batch(4));
    let assign = client::post(addr, "/assign", &probe).ok().flatten();
    let ready = client::get(addr, "/readyz");
    let (mitigation_pass, mitigation_detail) = match (&assign, &ready) {
        (Some((200, body)), Some((ready_status, ready_body))) => {
            let doc = json_body(body);
            let drift_field = doc.as_ref().and_then(|d| json_bool(d, "drift"));
            let mode = doc
                .as_ref()
                .and_then(|d| d.get("mode")?.as_str())
                .unwrap_or_default()
                .to_string();
            let ready_alarmed = json_body(ready_body).and_then(|d| json_bool(&d, "drift_alarmed"));
            let pass = match policy.as_str() {
                "observe" => drift_field.is_none() && mode == "full" && *ready_status == 200,
                "degrade" => {
                    drift_field == Some(true)
                        && mode.starts_with("degraded")
                        && *ready_status == 200
                }
                "gate" => {
                    drift_field == Some(true)
                        && mode.starts_with("degraded")
                        && *ready_status == 503
                        && ready_alarmed == Some(true)
                }
                _ => false,
            };
            (
                pass,
                format!(
                    "policy={policy} drift={drift_field:?} mode={mode} \
                     readyz={ready_status} drift_alarmed={ready_alarmed:?}"
                ),
            )
        }
        (a, r) => (
            false,
            format!(
                "assign={:?} readyz={:?}",
                a.as_ref().map(|x| x.0),
                r.as_ref().map(|x| x.0)
            ),
        ),
    };
    scenarios.push(with_liveness("drift-mitigation", addr, mitigation_pass, mitigation_detail));

    // -- recovery by refit reload -----------------------------------------
    // Hot-loading the refit checkpoint must clear the latch (reason:
    // reload), restore readiness, and leave the sentinel calm on further
    // stationary traffic.
    let refit = std::fs::read(&config.refit_checkpoint);
    let reload = match &refit {
        Ok(bytes) if write_atomic(&config.reload_path, bytes).is_ok() => {
            client::post(addr, "/reload", b"").ok().flatten()
        }
        _ => None,
    };
    let view_cleared = driftz_view(addr);
    let ready_after = client::get(addr, "/readyz").map(|(s, _)| s);
    let windows_at_recovery = view_cleared.as_ref().map_or(0, |v| v.windows);
    let alarms_at_recovery = view_cleared.as_ref().map_or(usize::MAX, |v| v.alarms);
    pump_windows(addr, &mut stationary, w, 2);
    wait_for_drift_windows(addr, windows_at_recovery + 2, Duration::from_secs(10));
    let view_after = driftz_view(addr);
    let recovery_pass = matches!(reload, Some((200, _)))
        && view_cleared
            .as_ref()
            .is_some_and(|v| !v.alarmed && v.clears >= 1)
        && ready_after == Some(200)
        && view_after
            .as_ref()
            .is_some_and(|v| !v.alarmed && v.alarms == alarms_at_recovery);
    scenarios.push(with_liveness(
        "drift-recovery",
        addr,
        recovery_pass,
        format!(
            "reload={:?} readyz={ready_after:?} cleared={view_cleared:?} after={view_after:?}",
            reload.as_ref().map(|(s, _)| s)
        ),
    ));

    // -- drift metrics audit ----------------------------------------------
    // The exposition stays strictly valid and the drift gauges agree with
    // the drill's history: enabled, not alarmed now, at least one alarm
    // and one clear on the counters.
    let (metrics_pass, metrics_detail) = match client::scrape_metrics(addr) {
        Ok(exp) => {
            let enabled = exp.sample("adec_serve_drift_enabled");
            let alarmed = exp.sample("adec_serve_drift_alarmed");
            let alarms = exp.sample("adec_serve_drift_alarms_total");
            let clears = exp.sample("adec_serve_drift_clears_total");
            let windows = exp.sample("adec_serve_drift_windows_total");
            let pass = enabled == Some(1.0)
                && alarmed == Some(0.0)
                && alarms.is_some_and(|v| v >= 1.0)
                && clears.is_some_and(|v| v >= 1.0)
                && windows.is_some_and(|v| v >= (STATIONARY_WINDOWS + 2) as f64);
            (
                pass,
                format!(
                    "enabled={enabled:?} alarmed={alarmed:?} alarms={alarms:?} \
                     clears={clears:?} windows={windows:?}"
                ),
            )
        }
        Err(err) => (false, err),
    };
    scenarios.push(with_liveness("drift-metrics", addr, metrics_pass, metrics_detail));

    DrillReport { scenarios }
}
