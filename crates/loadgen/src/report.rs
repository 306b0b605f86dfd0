//! `BENCH_serve.json`: the serve-path benchmark artifact.
//!
//! Schema `adec-bench-serve/v1`, hand-rolled like every JSON emitter in
//! the workspace (floats use Rust's shortest-roundtrip `Display`, so the
//! same report always renders to the same bytes). The document splits
//! into a **deterministic** part — config, schedule (count, FNV hash,
//! per-kind counts), and outcome counts, identical across runs with the
//! same seed against an uncontended server — and a **timing** part
//! (latency percentiles, achieved throughput) plus the `/metrics`
//! reconciliation, which depend on the wall clock. The determinism test
//! compares [`LoadReport::deterministic_json`]; the SLO gate
//! (`scripts/bench_compare.py`) reads the timing part.

use crate::client::RequestOutcome;
use crate::schedule::{PayloadKind, Schedule};
use crate::stats::LatencySummary;

/// Current report schema tag.
pub const REPORT_SCHEMA: &str = "adec-bench-serve/v1";

/// Outcome counts over the whole run.
#[derive(Debug, Clone, Default)]
pub struct OutcomeCounts {
    /// 200s.
    pub ok_200: u64,
    /// 400s (malformed / bad input).
    pub bad_request_400: u64,
    /// 408s (read deadline — the slow-loris answer).
    pub timeout_408: u64,
    /// 413s (body budget).
    pub payload_413: u64,
    /// 431s (head budget).
    pub head_431: u64,
    /// Accept-gate 503s (`{"error":"busy"}`).
    pub busy_503: u64,
    /// Compute-deadline 503s (`{"error":"deadline"}`).
    pub deadline_503: u64,
    /// Any other status.
    pub other_status: u64,
    /// Connection died without a status line.
    pub no_response: u64,
    /// 200 responses per degradation tier (full / no-decoder /
    /// centroid-only), in ladder order.
    pub tiers: [u64; 3],
    /// 503s missing the contractual `Retry-After` header.
    pub retry_after_missing: u64,
    /// Reuse attempts denied by the server's `connection: close`.
    pub reuse_denied: u64,
    /// Scheduled requests that carried a valid payload.
    pub valid_requests: u64,
    /// Valid requests answered 200.
    pub valid_ok: u64,
}

impl OutcomeCounts {
    /// Tallies the client outcomes.
    pub fn from_outcomes(outcomes: &[RequestOutcome]) -> OutcomeCounts {
        let mut c = OutcomeCounts::default();
        for o in outcomes {
            match o.status {
                Some(200) => c.ok_200 += 1,
                Some(400) => c.bad_request_400 += 1,
                Some(408) => c.timeout_408 += 1,
                Some(413) => c.payload_413 += 1,
                Some(431) => c.head_431 += 1,
                Some(503) => {
                    match o.busy {
                        Some(crate::client::BusyClass::Deadline) => c.deadline_503 += 1,
                        _ => c.busy_503 += 1,
                    }
                    if !o.retry_after {
                        c.retry_after_missing += 1;
                    }
                }
                Some(_) => c.other_status += 1,
                None => c.no_response += 1,
            }
            if let Some(tier) = o.tier {
                match tier {
                    crate::client::Tier::Full => c.tiers[0] += 1,
                    crate::client::Tier::NoDecoder => c.tiers[1] += 1,
                    crate::client::Tier::CentroidOnly => c.tiers[2] += 1,
                }
            }
            if o.reuse_denied {
                c.reuse_denied += 1;
            }
            if matches!(o.kind, PayloadKind::ValidSingle | PayloadKind::ValidBatch) {
                c.valid_requests += 1;
                if o.status == Some(200) {
                    c.valid_ok += 1;
                }
            }
        }
        c
    }

    /// Fraction of *valid* requests that did not come back 200 — the
    /// error budget. Hostile payloads are excluded: a 400 for garbage is
    /// the server doing its job, not an error.
    pub fn error_rate(&self) -> f64 {
        if self.valid_requests == 0 {
            return 0.0;
        }
        (self.valid_requests - self.valid_ok) as f64 / self.valid_requests as f64
    }

    /// Fraction of all scheduled requests shed at the accept gate.
    pub fn busy_rate(&self, total: u64) -> f64 {
        if total == 0 {
            return 0.0;
        }
        self.busy_503 as f64 / total as f64
    }
}

/// The `/metrics` before/after cross-check.
#[derive(Debug, Clone)]
pub struct Reconcile {
    /// Whether both scrapes succeeded and parsed strictly.
    pub checked: bool,
    /// `adec_serve_served_total` delta between the scrapes.
    pub server_served_delta: u64,
    /// What the client expects that delta to be (its 200 count plus the
    /// before-scrape's own served increment).
    pub client_expected: u64,
    /// `delta == expected` (exact — both sides count the same events).
    pub consistent: bool,
    /// Human-readable summary.
    pub detail: String,
}

impl Reconcile {
    /// The "no scrape available" placeholder.
    pub fn unchecked(detail: impl Into<String>) -> Reconcile {
        Reconcile {
            checked: false,
            server_served_delta: 0,
            client_expected: 0,
            consistent: false,
            detail: detail.into(),
        }
    }
}

/// The `/tracez` cross-check: every retained exemplar carrying a
/// client-stamped id (`load-<index>`) must correspond to a request the
/// client actually sent, whose echoed id matches, and whose
/// client-observed service time is no shorter than the server's claimed
/// end-to-end time — a server cannot have spent longer on a request than
/// the client waited for it.
#[derive(Debug, Clone)]
pub struct TraceCheck {
    /// Whether the server had tracing enabled and `/tracez` parsed.
    pub checked: bool,
    /// Exemplars with a client-stamped (`load-`) request id.
    pub exemplars: u64,
    /// Exemplars that reconciled against a client observation.
    pub matched: u64,
    /// `matched == exemplars`.
    pub consistent: bool,
    /// Human-readable summary.
    pub detail: String,
}

impl TraceCheck {
    /// The "tracing off / scrape unavailable" placeholder.
    pub fn unchecked(detail: impl Into<String>) -> TraceCheck {
        TraceCheck {
            checked: false,
            exemplars: 0,
            matched: 0,
            consistent: false,
            detail: detail.into(),
        }
    }
}

/// Fleet-side readings from the closing `/metrics` scrape. All fields are
/// `Option`s: a pre-fleet server (or the test stub) simply doesn't export
/// them, and the harness must keep driving those too.
#[derive(Debug, Clone, Default)]
pub struct ServerSide {
    /// Whether the closing scrape succeeded and parsed strictly.
    pub checked: bool,
    /// `adec_serve_respawns_total` — replica workers the supervisor
    /// replaced during (or before) the run.
    pub respawns: Option<u64>,
    /// `adec_serve_reload_generation` — completed checkpoint hot swaps.
    pub reload_generation: Option<u64>,
    /// `adec_serve_model_version` — the live model version number.
    pub model_version: Option<u64>,
}

/// Wall-clock results of the run.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Open-loop latency of 200 responses, measured from each request's
    /// *scheduled* instant (includes any client-side queueing — the
    /// coordinated-omission-safe number).
    pub latency: Option<LatencySummary>,
    /// Send-to-response service time of 200 responses.
    pub service: Option<LatencySummary>,
    /// The configured offered load.
    pub offered_rps: f64,
    /// Responses (any status) per second of actual run time.
    pub achieved_rps: f64,
    /// Wall-clock seconds from first dispatch to last response.
    pub elapsed_s: f64,
}

/// Everything `BENCH_serve.json` holds.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The schedule that was run (config + requests are inside).
    pub schedule_requests: usize,
    /// FNV-1a 64 hash of the schedule.
    pub schedule_hash: u64,
    /// Per-kind request counts, in [`PayloadKind::ALL`] order.
    pub kind_counts: [usize; 5],
    /// Copied schedule config fields for the report header.
    pub seed: u64,
    /// Offered load (requests/second).
    pub rps: f64,
    /// Run length in seconds.
    pub duration_s: f64,
    /// Arrival process name.
    pub arrival: &'static str,
    /// Connection strategy name.
    pub conn: &'static str,
    /// Client worker threads.
    pub concurrency: usize,
    /// Model input width used for valid payloads.
    pub input_dim: usize,
    /// Rows per valid batch payload.
    pub batch_rows: usize,
    /// Mix weights, in [`PayloadKind::ALL`] order.
    pub mix_weights: [u32; 5],
    /// Outcome tallies.
    pub outcomes: OutcomeCounts,
    /// Server-side cross-check.
    pub reconcile: Reconcile,
    /// `/tracez` exemplar cross-check (inert when tracing is off).
    pub trace: TraceCheck,
    /// Fleet-side readings from the closing scrape.
    pub server: ServerSide,
    /// Wall-clock numbers.
    pub timing: Timing,
}

fn push_kv_u64(out: &mut String, key: &str, v: u64, comma: bool) {
    out.push_str(&format!(r#""{key}":{v}"#));
    if comma {
        out.push(',');
    }
}

fn latency_json(s: Option<&LatencySummary>) -> String {
    match s {
        None => r#"{"count":0}"#.to_string(),
        Some(s) => format!(
            r#"{{"count":{},"mean":{},"p50":{},"p95":{},"p99":{},"p999":{}}}"#,
            s.count, s.mean, s.p50, s.p95, s.p99, s.p999
        ),
    }
}

impl LoadReport {
    /// Assembles the report skeleton from a schedule (timing, outcomes,
    /// and reconciliation are filled by the caller).
    pub fn new(schedule: &Schedule, conn: &'static str, concurrency: usize) -> LoadReport {
        let c = &schedule.config;
        LoadReport {
            schedule_requests: schedule.requests.len(),
            schedule_hash: schedule.fnv_hash(),
            kind_counts: schedule.kind_counts(),
            seed: c.seed,
            rps: c.rps,
            duration_s: c.duration.as_secs_f64(),
            arrival: c.arrival.as_str(),
            conn,
            concurrency,
            input_dim: c.input_dim,
            batch_rows: c.batch_rows,
            mix_weights: [
                c.mix.valid_single,
                c.mix.valid_batch,
                c.mix.malformed,
                c.mix.oversized,
                c.mix.slowloris,
            ],
            outcomes: OutcomeCounts::default(),
            reconcile: Reconcile::unchecked("not yet reconciled"),
            trace: TraceCheck::unchecked("not yet checked"),
            server: ServerSide::default(),
            timing: Timing {
                latency: None,
                service: None,
                offered_rps: c.rps,
                achieved_rps: 0.0,
                elapsed_s: 0.0,
            },
        }
    }

    /// The seed-determined sections: config, schedule identity, and
    /// outcome counts. Two runs with the same seed against the same
    /// uncontended server must agree on every byte of this.
    pub fn deterministic_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        out.push_str(&format!(r#""schema":"{REPORT_SCHEMA}","config":{{"#));
        out.push_str(&format!(
            r#""seed":{},"rps":{},"duration_s":{},"arrival":"{}","conn":"{}","concurrency":{},"input_dim":{},"batch_rows":{},"mix":{{"#,
            self.seed,
            self.rps,
            self.duration_s,
            self.arrival,
            self.conn,
            self.concurrency,
            self.input_dim,
            self.batch_rows,
        ));
        for (i, (kind, w)) in PayloadKind::ALL.iter().zip(self.mix_weights).enumerate() {
            push_kv_u64(&mut out, kind.as_str(), u64::from(w), i + 1 < PayloadKind::ALL.len());
        }
        out.push_str("}},");
        out.push_str(&format!(
            r#""schedule":{{"requests":{},"fnv_hash":"{:016x}","kinds":{{"#,
            self.schedule_requests, self.schedule_hash
        ));
        for (i, (kind, n)) in PayloadKind::ALL.iter().zip(self.kind_counts).enumerate() {
            push_kv_u64(&mut out, kind.as_str(), n as u64, i + 1 < PayloadKind::ALL.len());
        }
        out.push_str("}},");
        let c = &self.outcomes;
        out.push_str(r#""outcomes":{"statuses":{"#);
        push_kv_u64(&mut out, "ok_200", c.ok_200, true);
        push_kv_u64(&mut out, "bad_request_400", c.bad_request_400, true);
        push_kv_u64(&mut out, "timeout_408", c.timeout_408, true);
        push_kv_u64(&mut out, "payload_413", c.payload_413, true);
        push_kv_u64(&mut out, "head_431", c.head_431, true);
        push_kv_u64(&mut out, "busy_503", c.busy_503, true);
        push_kv_u64(&mut out, "deadline_503", c.deadline_503, true);
        push_kv_u64(&mut out, "other", c.other_status, true);
        push_kv_u64(&mut out, "no_response", c.no_response, false);
        out.push_str(r#"},"tiers":{"#);
        push_kv_u64(&mut out, "full", c.tiers[0], true);
        push_kv_u64(&mut out, "degraded_no_decoder", c.tiers[1], true);
        push_kv_u64(&mut out, "degraded_centroid_only", c.tiers[2], false);
        out.push_str("},");
        push_kv_u64(&mut out, "valid_requests", c.valid_requests, true);
        push_kv_u64(&mut out, "valid_ok", c.valid_ok, true);
        out.push_str(&format!(r#""error_rate":{},"#, c.error_rate()));
        out.push_str(&format!(
            r#""busy_rate":{},"#,
            c.busy_rate(self.schedule_requests as u64)
        ));
        push_kv_u64(&mut out, "retry_after_missing", c.retry_after_missing, true);
        push_kv_u64(&mut out, "reuse_denied", c.reuse_denied, false);
        out.push_str("}}");
        out
    }

    /// The full document: deterministic sections plus reconciliation and
    /// timing.
    pub fn to_json(&self) -> String {
        let mut out = self.deterministic_json();
        // Splice the volatile sections in before the final brace.
        out.pop();
        let r = &self.reconcile;
        out.push_str(&format!(
            r#","reconcile":{{"checked":{},"server_served_delta":{},"client_expected":{},"consistent":{},"detail":"{}"}}"#,
            r.checked,
            r.server_served_delta,
            r.client_expected,
            r.consistent,
            adec_obs::json::escape(&r.detail),
        ));
        let tc = &self.trace;
        out.push_str(&format!(
            r#","trace":{{"checked":{},"exemplars":{},"matched":{},"consistent":{},"detail":"{}"}}"#,
            tc.checked,
            tc.exemplars,
            tc.matched,
            tc.consistent,
            adec_obs::json::escape(&tc.detail),
        ));
        let s = &self.server;
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |n| n.to_string());
        out.push_str(&format!(
            r#","server":{{"checked":{},"respawns":{},"reload_generation":{},"model_version":{}}}"#,
            s.checked,
            opt(s.respawns),
            opt(s.reload_generation),
            opt(s.model_version),
        ));
        let t = &self.timing;
        out.push_str(&format!(
            r#","timing":{{"latency_s":{},"service_s":{},"offered_rps":{},"achieved_rps":{},"elapsed_s":{}}}}}"#,
            latency_json(t.latency.as_ref()),
            latency_json(t.service.as_ref()),
            t.offered_rps,
            t.achieved_rps,
            t.elapsed_s,
        ));
        out
    }

    /// Writes the full document (with a trailing newline) to `path`.
    ///
    /// # Errors
    ///
    /// Any filesystem error from [`std::fs::write`].
    pub fn write(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut body = self.to_json();
        body.push('\n');
        std::fs::write(path, body)
    }
}

#[cfg(test)]
// Test code: unwraps are the assertions themselves here.
#[allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::client::{BusyClass, Tier};
    use crate::schedule::{Schedule, ScheduleConfig};

    fn outcome(status: Option<u16>, kind: PayloadKind) -> RequestOutcome {
        RequestOutcome {
            index: 0,
            kind,
            status,
            tier: None,
            busy: None,
            retry_after: status == Some(503),
            sched_latency_s: 0.01,
            service_latency_s: 0.005,
            reuse_denied: false,
            request_id: None,
        }
    }

    #[test]
    fn counts_and_rates() {
        let mut outs = vec![
            outcome(Some(200), PayloadKind::ValidSingle),
            outcome(Some(200), PayloadKind::ValidBatch),
            outcome(Some(400), PayloadKind::Malformed),
            outcome(Some(413), PayloadKind::Oversized),
            outcome(Some(408), PayloadKind::Slowloris),
            outcome(None, PayloadKind::ValidSingle),
        ];
        outs[0].tier = Some(Tier::Full);
        outs[1].tier = Some(Tier::CentroidOnly);
        let mut busy = outcome(Some(503), PayloadKind::ValidSingle);
        busy.busy = Some(BusyClass::QueueFull);
        outs.push(busy);
        let c = OutcomeCounts::from_outcomes(&outs);
        assert_eq!(c.ok_200, 2);
        assert_eq!(c.bad_request_400, 1);
        assert_eq!(c.payload_413, 1);
        assert_eq!(c.timeout_408, 1);
        assert_eq!(c.no_response, 1);
        assert_eq!(c.busy_503, 1);
        assert_eq!(c.tiers, [1, 0, 1]);
        assert_eq!(c.valid_requests, 4);
        assert_eq!(c.valid_ok, 2);
        assert!((c.error_rate() - 0.5).abs() < 1e-12);
        assert!((c.busy_rate(7) - 1.0 / 7.0).abs() < 1e-12);
        assert_eq!(c.retry_after_missing, 0);
    }

    #[test]
    fn missing_retry_after_is_counted() {
        let mut bad = outcome(Some(503), PayloadKind::ValidSingle);
        bad.retry_after = false;
        bad.busy = Some(BusyClass::QueueFull);
        let c = OutcomeCounts::from_outcomes(&[bad]);
        assert_eq!(c.retry_after_missing, 1);
    }

    #[test]
    fn report_json_is_wellformed_and_deterministic() {
        let config = ScheduleConfig { input_dim: 3, ..ScheduleConfig::default() };
        let schedule = Schedule::build(&config);
        let mut report = LoadReport::new(&schedule, "reconnect", 8);
        report.outcomes = OutcomeCounts::from_outcomes(&[outcome(Some(200), PayloadKind::ValidSingle)]);
        report.timing.achieved_rps = 99.5;
        report.timing.elapsed_s = 1.005;

        report.server = ServerSide {
            checked: true,
            respawns: Some(2),
            reload_generation: Some(1),
            model_version: None,
        };

        let full = report.to_json();
        assert!(full.starts_with(r#"{"schema":"adec-bench-serve/v1""#));
        assert!(full.contains(r#""fnv_hash":""#));
        assert!(full.contains(
            r#""server":{"checked":true,"respawns":2,"reload_generation":1,"model_version":null}"#
        ));
        assert!(full.contains(r#""p50":"#) || full.contains(r#""count":0"#));
        assert!(full.contains(r#""achieved_rps":99.5"#));
        // A detail with a quote, a backslash, a newline and a control
        // character still yields a document that parses back to it.
        let detail = "a \"quoted\" C:\\path\nnext\u{1} end";
        report.reconcile.detail = detail.to_string();
        report.trace.detail = detail.to_string();
        let full = report.to_json();
        let doc = adec_obs::json::Json::parse(&full).unwrap_or_else(|e| panic!("{e}: {full}"));
        for section in ["reconcile", "trace"] {
            let got = doc.get(section).and_then(|s| s.get("detail")).and_then(|d| d.as_str());
            assert_eq!(got, Some(detail), "{section}");
        }
        assert_eq!(doc.get("timing").and_then(|t| t.get("achieved_rps")).and_then(|v| v.as_f64()), Some(99.5));

        // The deterministic view is a prefix of the full document and
        // stable across identical runs.
        let det1 = report.deterministic_json();
        let det2 = report.deterministic_json();
        assert_eq!(det1, det2);
        assert!(!det1.contains("timing"), "deterministic view must exclude timing");
        assert!(!det1.contains("reconcile"), "deterministic view must exclude reconcile");
        assert!(!det1.contains("\"server\""), "deterministic view must exclude server");
    }
}
