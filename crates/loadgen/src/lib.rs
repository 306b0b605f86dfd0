//! # adec-loadgen: open-loop load harness for the adec-serve path
//!
//! A seeded, dependency-free load generator that drives a running
//! `adec serve` instance over real sockets and grades it against a
//! latency SLO. The design split:
//!
//! * [`schedule`] — the deterministic plan: arrival instants (Poisson or
//!   uniform), payload kinds (valid / malformed / oversized / slow-loris
//!   by weight), and exact body bytes, all derived from one seed.
//! * [`client`] — the wire engine: a dispatcher that releases requests at
//!   their scheduled instants (open loop — offered load never adapts to
//!   server speed) plus a worker pool speaking minimal HTTP/1.1.
//! * [`stats`] — percentile estimation over `adec-obs` fixed-bucket
//!   histograms, the same math a Prometheus dashboard would apply.
//! * [`report`] — the `BENCH_serve.json` artifact consumed by
//!   `scripts/bench_compare.py` for the CI regression ratchet.
//!
//! [`run_load`] glues them together: discover the model's input width
//! from `/readyz`, scrape `/metrics` (strictly parsed), run the schedule,
//! scrape again, and cross-check the server's `adec_serve_served_total`
//! delta against the client's own 200 count — a load report whose counts
//! don't reconcile with the server's is reporting on a different run than
//! the one that happened. [`run_soak`] repeats windows of load and checks
//! that RSS and mean queue depth stay flat.

pub mod client;
pub mod report;
pub mod schedule;
pub mod stats;

pub use client::{run_schedule, ClientConfig, ConnStrategy, RequestOutcome, Tier};
pub use report::{
    LoadReport, OutcomeCounts, Reconcile, ServerSide, Timing, TraceCheck, REPORT_SCHEMA,
};
pub use schedule::{
    csv_body, csv_rows, Arrival, PayloadKind, PayloadMix, PlannedRequest, Schedule, ScheduleConfig,
};
pub use stats::{quantile_from_buckets, LatencySummary, LOAD_LATENCY_BUCKETS};

use adec_obs::Registry;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Everything one load run needs.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// The server under test.
    pub addr: SocketAddr,
    /// Schedule parameters (seed, rps, duration, arrival, mix, …).
    /// `input_dim` here is a fallback: when [`LoadConfig::discover_dim`]
    /// is set (the default), the width probed from `/readyz` wins.
    pub schedule: ScheduleConfig,
    /// Probe `/readyz` for the model's input width before building the
    /// schedule (turn off to send deliberately mis-sized rows).
    pub discover_dim: bool,
    /// Client worker threads.
    pub concurrency: usize,
    /// Connection strategy.
    pub conn: ConnStrategy,
    /// Gap between dripped slow-loris bytes.
    pub slow_drip: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 8423)),
            schedule: ScheduleConfig::default(),
            discover_dim: true,
            concurrency: 32,
            conn: ConnStrategy::Reconnect,
            slow_drip: Duration::from_millis(150),
        }
    }
}

/// Why a load run could not even start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// `/readyz` was unreachable or not ready.
    Unreachable(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Unreachable(detail) => write!(f, "server unreachable: {detail}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// One strict `/metrics` scrape, decomposed. The core fields
/// (`served`, queue-depth sum/count) exist on every server version; the
/// fleet fields are `Option`s so the harness still drives pre-fleet
/// servers and the test stub.
#[derive(Debug, Clone, Copy, Default)]
struct ServerScrape {
    /// `adec_serve_served_total`.
    served: f64,
    /// `adec_serve_queue_depth_sum` (for the soak mean-depth check).
    depth_sum: f64,
    /// `adec_serve_queue_depth_count`.
    depth_count: f64,
    /// `adec_serve_respawns_total`, when the server exports fleet series.
    respawns: Option<f64>,
    /// `adec_serve_reload_generation` gauge.
    reload_generation: Option<f64>,
    /// `adec_serve_model_version` gauge.
    model_version: Option<f64>,
}

/// Scrapes `/metrics`, parses it strictly, and returns the readings the
/// harness cross-checks. `None` when the scrape fails — reconciliation
/// then reports itself unchecked rather than guessing.
fn scrape_served(addr: SocketAddr) -> Option<ServerScrape> {
    let exposition = client::scrape_metrics(addr).ok()?;
    Some(ServerScrape {
        served: exposition.sample("adec_serve_served_total")?,
        depth_sum: exposition.sample("adec_serve_queue_depth_sum").unwrap_or(0.0),
        depth_count: exposition.sample("adec_serve_queue_depth_count").unwrap_or(0.0),
        respawns: exposition.sample("adec_serve_respawns_total"),
        reload_generation: exposition.sample("adec_serve_reload_generation"),
        model_version: exposition.sample("adec_serve_model_version"),
    })
}

/// Converts an `Option<f64>` counter reading to the report's integral
/// form (counters and gauges here are whole numbers by construction).
fn sample_as_u64(v: Option<f64>) -> Option<u64> {
    v.map(|x| x.max(0.0) as u64)
}

/// Runs one complete load pass and returns the filled report.
///
/// # Errors
///
/// [`LoadError::Unreachable`] when input-width discovery is on and
/// `/readyz` does not answer 200.
pub fn run_load(config: &LoadConfig) -> Result<LoadReport, LoadError> {
    let mut sched_config = config.schedule.clone();
    if config.discover_dim {
        sched_config.input_dim = client::discover_input_dim(config.addr).ok_or_else(|| {
            LoadError::Unreachable(format!("/readyz on {} did not expose input_dim", config.addr))
        })?;
    }
    let schedule = Schedule::build(&sched_config);

    // Scrape *after* discovery so the /readyz hit is outside the window;
    // the before-scrape itself is the only extra served increment inside
    // it (route() encodes the body before counting the scrape).
    let before = scrape_served(config.addr);

    let client_config = ClientConfig {
        addr: config.addr,
        concurrency: config.concurrency,
        conn: config.conn,
        slow_drip: config.slow_drip,
    };
    let started = Instant::now();
    let outcomes = run_schedule(&schedule, &client_config);
    let elapsed = started.elapsed().as_secs_f64();

    let after = scrape_served(config.addr);

    let mut report = LoadReport::new(&schedule, config.conn.as_str(), config.concurrency);
    report.outcomes = OutcomeCounts::from_outcomes(&outcomes);

    // Latency histograms over 200s only: hostile payloads *should* be cut
    // off slowly (slow-loris sits in the drip for seconds by design) and
    // must not pollute the SLO tail.
    let registry = Registry::new();
    let sched_hist = registry.histogram("load_sched_latency", LOAD_LATENCY_BUCKETS);
    let service_hist = registry.histogram("load_service_latency", LOAD_LATENCY_BUCKETS);
    let mut answered = 0u64;
    for o in &outcomes {
        if o.status.is_some() {
            answered += 1;
        }
        if o.status == Some(200) {
            sched_hist.observe(o.sched_latency_s);
            service_hist.observe(o.service_latency_s);
        }
    }
    report.timing = Timing {
        latency: LatencySummary::from_snapshot(&sched_hist.snapshot()),
        service: LatencySummary::from_snapshot(&service_hist.snapshot()),
        offered_rps: sched_config.rps,
        achieved_rps: if elapsed > 0.0 { answered as f64 / elapsed } else { 0.0 },
        elapsed_s: elapsed,
    };
    report.reconcile = reconcile(before, after, report.outcomes.ok_200);
    report.trace = check_traces(config.addr, &outcomes);
    report.server = match after {
        Some(s) => ServerSide {
            checked: true,
            respawns: sample_as_u64(s.respawns),
            reload_generation: sample_as_u64(s.reload_generation),
            model_version: sample_as_u64(s.model_version),
        },
        None => ServerSide::default(),
    };
    Ok(report)
}

/// Cross-checks the server's served-counter delta against the client's
/// 200 count. The before-scrape increments the counter *after* encoding
/// its own body, so the expected delta is `client 200s + 1`; the
/// after-scrape's increment lands outside its own body the same way.
///
/// The counter belongs to the one server instance under test, so the
/// check is exact whenever nothing else talks to *that* server during the
/// run — which is precisely the regime CI runs in.
fn reconcile(before: Option<ServerScrape>, after: Option<ServerScrape>, ok_200: u64) -> Reconcile {
    let (Some(before), Some(after)) = (before, after) else {
        return Reconcile::unchecked("metrics scrape unavailable; counts not cross-checked");
    };
    let delta = (after.served - before.served).max(0.0) as u64;
    let expected = ok_200 + 1;
    Reconcile {
        checked: true,
        server_served_delta: delta,
        client_expected: expected,
        consistent: delta == expected,
        detail: format!(
            "server served {delta} (scrape delta), client saw {ok_200} OK + 1 scrape = {expected}"
        ),
    }
}

/// Scrapes `/tracez` and reconciles every exemplar carrying a
/// client-stamped (`load-<index>`) id against the client's own record of
/// that schedule slot: the request must exist, the echoed id must agree,
/// and the server's claimed end-to-end time must not exceed what the
/// client observed (plus a small slack for the response's network tail).
/// Inert — `checked: false` — when the server has tracing disabled or
/// the scrape fails.
fn check_traces(addr: SocketAddr, outcomes: &[client::RequestOutcome]) -> TraceCheck {
    let Some((status, body)) = client::get(addr, "/tracez") else {
        return TraceCheck::unchecked("/tracez unreachable");
    };
    if status != 200 {
        return TraceCheck::unchecked(format!("/tracez answered {status}"));
    }
    let Ok(text) = String::from_utf8(body) else {
        return TraceCheck::unchecked("/tracez body not UTF-8");
    };
    let Ok(doc) = adec_obs::json::Json::parse(&text) else {
        return TraceCheck::unchecked("/tracez body did not parse");
    };
    if !matches!(doc.get("enabled"), Some(adec_obs::json::Json::Bool(true))) {
        return TraceCheck::unchecked("server tracing disabled");
    }
    let Some(exemplars) = doc.get("exemplars").and_then(adec_obs::json::Json::as_arr) else {
        return TraceCheck::unchecked("/tracez missing exemplars array");
    };
    let mut seen = 0u64;
    let mut matched = 0u64;
    let mut first_miss = String::new();
    for ex in exemplars {
        let Some(rid) = ex.get("request_id").and_then(adec_obs::json::Json::as_str) else {
            continue;
        };
        let Some(index) = rid.strip_prefix("load-").and_then(|s| s.parse::<usize>().ok())
        else {
            continue; // server-minted or foreign id; not ours to check
        };
        // Only answered requests can be corroborated: on a disconnect or
        // timeout the echoed id never reached the client, so those
        // exemplars (retained as errors by tail sampling) are skipped.
        if ex.get("status").and_then(adec_obs::json::Json::as_str) != Some("200") {
            continue;
        }
        seen += 1;
        let total_ms = ex.get("total_ms").and_then(adec_obs::json::Json::as_f64).unwrap_or(0.0);
        let ok = outcomes.get(index).is_some_and(|o| {
            o.index == index
                && o.request_id.as_deref() == Some(rid)
                && o.service_latency_s * 1e3 + 50.0 >= total_ms
        });
        if ok {
            matched += 1;
        } else if first_miss.is_empty() {
            first_miss = format!("; first mismatch: {rid} ({total_ms}ms)");
        }
    }
    TraceCheck {
        checked: true,
        exemplars: seen,
        matched,
        consistent: matched == seen,
        detail: format!(
            "{matched}/{seen} client-stamped /tracez exemplars reconciled{first_miss}"
        ),
    }
}

/// One soak window's worth of evidence.
#[derive(Debug, Clone)]
pub struct SoakWindow {
    /// p99 of scheduled latency (seconds), when the window had 200s.
    pub p99: Option<f64>,
    /// Responses per second over the window.
    pub achieved_rps: f64,
    /// 200 count.
    pub ok_200: u64,
    /// Valid requests that did not come back 200.
    pub valid_errors: u64,
    /// Mean queue depth sampled server-side over the window, when the
    /// scrape delta was usable.
    pub mean_queue_depth: Option<f64>,
    /// Server RSS (kB) after the window, when a PID was given.
    pub rss_kb: Option<u64>,
}

/// Verdict of a soak run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Per-window evidence, in order.
    pub windows: Vec<SoakWindow>,
    /// RSS stayed flat (trivially true when unmeasured).
    pub rss_stable: bool,
    /// Mean queue depth stayed flat (trivially true when unmeasured).
    pub queue_stable: bool,
    /// Human-readable verdict detail.
    pub detail: String,
}

impl SoakReport {
    /// Overall pass/fail.
    pub fn stable(&self) -> bool {
        self.rss_stable && self.queue_stable
    }
}

/// Reads VmRSS (kB) for a PID from `/proc` (Linux only; `None` elsewhere
/// or when the file is unreadable).
pub fn rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `windows` consecutive load windows (each window re-seeds with
/// `seed + window`, so bodies differ while staying reproducible) and
/// checks for drift: RSS and mean queue depth in the *last* window must
/// not have grown materially over the *first*. A leak shows up as
/// monotone growth across windows; normal jitter does not.
///
/// # Errors
///
/// Propagates the first window's [`LoadError`] (later windows reuse the
/// discovered width).
pub fn run_soak(
    config: &LoadConfig,
    windows: usize,
    server_pid: Option<u32>,
) -> Result<SoakReport, LoadError> {
    assert!(windows >= 2, "soak: need at least 2 windows to detect drift");
    let mut evidence = Vec::with_capacity(windows);
    for w in 0..windows {
        let mut window_config = config.clone();
        window_config.schedule.seed = config.schedule.seed.wrapping_add(w as u64);
        let depth_before = scrape_served(config.addr);
        let report = run_load(&window_config)?;
        let depth_after = scrape_served(config.addr);
        let mean_queue_depth = match (depth_before, depth_after) {
            (Some(b), Some(a)) if a.depth_count > b.depth_count => {
                Some((a.depth_sum - b.depth_sum) / (a.depth_count - b.depth_count))
            }
            _ => None,
        };
        evidence.push(SoakWindow {
            p99: report.timing.latency.map(|l| l.p99),
            achieved_rps: report.timing.achieved_rps,
            ok_200: report.outcomes.ok_200,
            valid_errors: report.outcomes.valid_requests - report.outcomes.valid_ok,
            mean_queue_depth,
            rss_kb: server_pid.and_then(rss_kb),
        });
    }

    let first = evidence.first();
    let last = evidence.last();
    // RSS budget: 1.5x the first window plus a 16 MiB allocator slack —
    // loose enough for arena warm-up, tight enough that a per-request
    // leak over thousands of requests blows through it.
    let rss_stable = match (first.and_then(|w| w.rss_kb), last.and_then(|w| w.rss_kb)) {
        (Some(a), Some(b)) => b <= a.saturating_mul(3) / 2 + 16 * 1024,
        _ => true,
    };
    let queue_stable = match (
        first.and_then(|w| w.mean_queue_depth),
        last.and_then(|w| w.mean_queue_depth),
    ) {
        (Some(a), Some(b)) => b <= a * 2.0 + 1.0,
        _ => true,
    };
    let detail = format!(
        "rss {:?} -> {:?} kB ({}), mean queue depth {:?} -> {:?} ({})",
        first.and_then(|w| w.rss_kb),
        last.and_then(|w| w.rss_kb),
        if rss_stable { "stable" } else { "GROWING" },
        first.and_then(|w| w.mean_queue_depth),
        last.and_then(|w| w.mean_queue_depth),
        if queue_stable { "stable" } else { "GROWING" },
    );
    Ok(SoakReport { windows: evidence, rss_stable, queue_stable, detail })
}

#[cfg(test)]
// Test code: unwraps are the assertions themselves here.
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    fn scrape(served: f64) -> ServerScrape {
        ServerScrape { served, ..ServerScrape::default() }
    }

    #[test]
    fn reconcile_math() {
        // 10 client 200s; before-scrape adds 1 to the window.
        let r = reconcile(Some(scrape(100.0)), Some(scrape(111.0)), 10);
        assert!(r.checked);
        assert!(r.consistent, "{}", r.detail);
        assert_eq!(r.server_served_delta, 11);

        let off = reconcile(Some(scrape(100.0)), Some(scrape(115.0)), 10);
        assert!(off.checked);
        assert!(!off.consistent);

        let unchecked = reconcile(None, Some(scrape(1.0)), 10);
        assert!(!unchecked.checked);
    }

    #[test]
    fn fleet_samples_convert_to_report_integers() {
        assert_eq!(sample_as_u64(None), None);
        assert_eq!(sample_as_u64(Some(3.0)), Some(3));
        assert_eq!(sample_as_u64(Some(-1.0)), Some(0), "clamped, never wrapped");
    }

    #[test]
    fn unreachable_server_is_an_error() {
        // A port from the ephemeral range nobody is listening on.
        let config = LoadConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 1)),
            ..LoadConfig::default()
        };
        let err = run_load(&config).unwrap_err();
        assert!(matches!(err, LoadError::Unreachable(_)));
        assert!(err.to_string().contains("unreachable"));
    }

    #[test]
    fn rss_probe_reads_own_process() {
        // Our own PID always has a VmRSS line on Linux.
        let pid = std::process::id();
        let rss = rss_kb(pid);
        assert!(rss.is_some_and(|kb| kb > 0), "VmRSS should be readable for self");
    }
}
