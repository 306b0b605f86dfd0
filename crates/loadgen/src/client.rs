//! The wire side of the harness: dispatcher + worker pool over real
//! sockets.
//!
//! One dispatcher thread walks the prebuilt [`Schedule`] and releases each
//! request at its scheduled instant into an unbounded channel; `concurrency`
//! worker threads pull jobs and run them. When every worker is busy, jobs
//! wait in the channel — and because latency is measured **from the
//! scheduled instant**, that wait is charged to the server, exactly as a
//! real user would experience it (no coordinated omission).
//!
//! Workers speak a minimal HTTP/1.1 subset: write a request, read to
//! EOF, parse status + headers + body. The serve contract is
//! one-request-per-connection (`connection: close` on every response), so
//! `--conn reuse` cannot actually hold a socket open; it *tries*, detects
//! the advertised close, and reports how many times reuse was denied —
//! documenting the contract and ready for a future keep-alive serve path.
//!
//! This is the workspace's one HTTP client: the chaos drill, the
//! integration tests and the benchmark harness all go through
//! [`exchange`], [`get`], [`post`] and [`scrape_metrics`].

use crate::schedule::{PayloadKind, Schedule};
use adec_obs::json::Json;
use adec_obs::prom::{check_exposition, Exposition};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a worker waits for any single response before declaring it
/// lost. Generous: CI machines stall.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Bytes dripped by a slow-loris job before giving up.
const SLOWLORIS_BYTES: usize = 10;

/// Connection handling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnStrategy {
    /// A fresh TCP connection per request (matches the serve contract).
    Reconnect,
    /// Try to keep the connection; fall back (and count the denial) when
    /// the server closes it.
    Reuse,
}

impl ConnStrategy {
    /// Stable name used in reports and CLI flags.
    pub fn as_str(&self) -> &'static str {
        match self {
            ConnStrategy::Reconnect => "reconnect",
            ConnStrategy::Reuse => "reuse",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<ConnStrategy> {
        match name {
            "reconnect" => Some(ConnStrategy::Reconnect),
            "reuse" => Some(ConnStrategy::Reuse),
            _ => None,
        }
    }
}

/// Degradation tier reported by the server in an `/assign` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `"mode":"full"`.
    Full,
    /// `"mode":"degraded-no-decoder"`.
    NoDecoder,
    /// `"mode":"degraded-centroid-only"`.
    CentroidOnly,
}

impl Tier {
    /// Report key for this tier.
    pub fn as_str(&self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::NoDecoder => "degraded_no_decoder",
            Tier::CentroidOnly => "degraded_centroid_only",
        }
    }
}

/// Classification of a 503 body (the serve path has two distinct 503s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyClass {
    /// Accept-gate rejection (`{"error":"busy",…}`).
    QueueFull,
    /// Compute-deadline expiry (`{"error":"deadline",…}`).
    Deadline,
    /// A 503 with an unrecognized body.
    Other,
}

/// The observed fate of one scheduled request.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Index into the schedule.
    pub index: usize,
    /// What was sent.
    pub kind: PayloadKind,
    /// HTTP status, or `None` when the connection died without one.
    pub status: Option<u16>,
    /// Degradation tier parsed from a 200 `/assign` body.
    pub tier: Option<Tier>,
    /// Which kind of 503, when `status == Some(503)`.
    pub busy: Option<BusyClass>,
    /// Whether a 503 carried the contractual `Retry-After` header.
    pub retry_after: bool,
    /// Seconds from the *scheduled* instant to response completion (the
    /// open-loop, coordinated-omission-safe number).
    pub sched_latency_s: f64,
    /// Seconds from the actual send to response completion (pure service
    /// time; excludes client-side queueing).
    pub service_latency_s: f64,
    /// Whether connection reuse was attempted and denied by the server.
    pub reuse_denied: bool,
    /// The `x-request-id` the server echoed back, when one was present.
    /// The client stamps `load-<index>` on every request, so this is how
    /// a server-side trace exemplar is tied back to a schedule slot.
    pub request_id: Option<String>,
}

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The server.
    pub addr: SocketAddr,
    /// Worker threads executing requests.
    pub concurrency: usize,
    /// Connection strategy.
    pub conn: ConnStrategy,
    /// Gap between dripped slow-loris bytes; sized from the server's read
    /// deadline so the drill actually outlasts it.
    pub slow_drip: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 8423)),
            concurrency: 32,
            conn: ConnStrategy::Reconnect,
            slow_drip: Duration::from_millis(150),
        }
    }
}

struct Job {
    index: usize,
    kind: PayloadKind,
    body: Vec<u8>,
    scheduled: Instant,
}

/// Runs the whole schedule against the server and returns one outcome per
/// request, in schedule order. Blocks until every response (or failure)
/// has been collected.
pub fn run_schedule(schedule: &Schedule, config: &ClientConfig) -> Vec<RequestOutcome> {
    assert!(config.concurrency >= 1, "client: concurrency must be >= 1");
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let (out_tx, out_rx) = mpsc::channel::<RequestOutcome>();
    let job_rx = Arc::new(Mutex::new(job_rx));

    let workers: Vec<_> = (0..config.concurrency)
        .map(|i| {
            let rx = Arc::clone(&job_rx);
            let tx = out_tx.clone();
            let cfg = config.clone();
            std::thread::Builder::new()
                .name(format!("adec-load-worker-{i}"))
                .spawn(move || worker_loop(&rx, &tx, &cfg))
        })
        .filter_map(Result::ok)
        .collect();
    drop(out_tx);

    // The open loop: release each job at its scheduled instant, not when
    // a worker happens to be free.
    let t0 = Instant::now();
    let total = schedule.requests.len();
    for (index, req) in schedule.requests.iter().enumerate() {
        let target = t0 + req.at;
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let job = Job { index, kind: req.kind, body: req.body.clone(), scheduled: target };
        if job_tx.send(job).is_err() {
            break;
        }
    }
    drop(job_tx);

    let mut outcomes: Vec<RequestOutcome> = out_rx.iter().collect();
    for w in workers {
        let _ = w.join();
    }
    outcomes.sort_by_key(|o| o.index);
    debug_assert_eq!(outcomes.len(), total, "every scheduled request must produce an outcome");
    outcomes
}

fn worker_loop(
    rx: &Arc<Mutex<mpsc::Receiver<Job>>>,
    tx: &mpsc::Sender<RequestOutcome>,
    config: &ClientConfig,
) {
    loop {
        let job = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        let job = match job {
            Ok(j) => j,
            Err(_) => return, // dispatcher done, channel drained
        };
        let outcome = execute(&job, config);
        if tx.send(outcome).is_err() {
            return;
        }
    }
}

/// Executes one job: connect, send, read, classify.
fn execute(job: &Job, config: &ClientConfig) -> RequestOutcome {
    let sent_at = Instant::now();
    let raw = match job.kind {
        PayloadKind::Slowloris => slowloris_exchange(config),
        _ => {
            let rid = format!("load-{}", job.index);
            exchange(config.addr, &render_post("/assign", Some(&rid), &job.body)).ok()
        }
    };
    let done = Instant::now();
    let parsed = raw.as_deref().and_then(split_response);
    let (status, head, body) = match parsed {
        Some((s, h, b)) => (Some(s), h, b),
        None => (None, String::new(), Vec::new()),
    };
    let tier = if status == Some(200) { parse_tier(&body) } else { None };
    let busy = if status == Some(503) { Some(classify_busy(&body)) } else { None };
    RequestOutcome {
        index: job.index,
        kind: job.kind,
        status,
        tier,
        busy,
        retry_after: head.contains("retry-after:"),
        sched_latency_s: done.saturating_duration_since(job.scheduled).as_secs_f64(),
        service_latency_s: done.saturating_duration_since(sent_at).as_secs_f64(),
        // The serve contract is one-request-per-connection; a reuse
        // attempt is denied whenever the response advertises the close.
        reuse_denied: config.conn == ConnStrategy::Reuse && head.contains("connection: close"),
        request_id: header_value(&head, "x-request-id"),
    }
}

/// Renders a full `POST` request declaring its body length. Schedule
/// jobs stamp `request_id` with their slot (`load-<index>`); the server
/// echoes it back and attaches it to its trace exemplars.
pub fn render_post(path: &str, request_id: Option<&str>, body: &[u8]) -> Vec<u8> {
    let mut head = format!("POST {path} HTTP/1.1\r\nhost: adec-load\r\n");
    if let Some(rid) = request_id {
        head.push_str(&format!("x-request-id: {rid}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    let mut payload = head.into_bytes();
    payload.extend_from_slice(body);
    payload
}

/// Pulls one header value out of a lowercased response head.
fn header_value(head: &str, name: &str) -> Option<String> {
    head.lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim() == name)
        .map(|(_, v)| v.trim().to_string())
}

/// One request/response exchange: connect, write `payload` (tolerating
/// mid-write resets — an oversized body is legitimately cut off by the
/// 413 path), read to EOF. Returns the raw response bytes, possibly empty
/// when the server just closed; only a failed connect is an error.
pub fn exchange(addr: SocketAddr, payload: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
    let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
    let _ = stream.set_write_timeout(Some(CLIENT_TIMEOUT));
    // A server that already answered (413/431) may reset the upload;
    // whatever response it buffered is still readable afterwards.
    let _ = stream.write_all(payload);
    let _ = stream.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    Ok(out)
}

/// Drips a partial request head slower than any sane read deadline; the
/// server must cut us off (408 or a bare close), never hang.
fn slowloris_exchange(config: &ClientConfig) -> Option<Vec<u8>> {
    let mut stream = TcpStream::connect_timeout(&config.addr, CLIENT_TIMEOUT).ok()?;
    let _ = stream.set_read_timeout(Some(CLIENT_TIMEOUT));
    for b in b"POST /assign HTTP/1.1\r\n".iter().take(SLOWLORIS_BYTES) {
        if stream.write_all(&[*b]).is_err() {
            break; // server gave up on us — that's the point
        }
        std::thread::sleep(config.slow_drip);
    }
    let _ = stream.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    Some(out)
}

/// Splits a raw response into (status, lowercased head, body).
pub fn split_response(raw: &[u8]) -> Option<(u16, String, Vec<u8>)> {
    let sep = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(raw.get(..sep)?).ok()?.to_ascii_lowercase();
    let status: u16 = head
        .strip_prefix("http/1.")?
        .split(' ')
        .nth(1)?
        .parse()
        .ok()?;
    Some((status, head, raw.get(sep + 4..).unwrap_or(&[]).to_vec()))
}

/// Pulls the degradation tier out of an `/assign` 200 body.
fn parse_tier(body: &[u8]) -> Option<Tier> {
    let text = std::str::from_utf8(body).ok()?;
    if text.contains(r#""mode":"full""#) {
        Some(Tier::Full)
    } else if text.contains(r#""mode":"degraded-no-decoder""#) {
        Some(Tier::NoDecoder)
    } else if text.contains(r#""mode":"degraded-centroid-only""#) {
        Some(Tier::CentroidOnly)
    } else {
        None
    }
}

/// Tells the two 503 classes apart by their error tag.
fn classify_busy(body: &[u8]) -> BusyClass {
    match std::str::from_utf8(body) {
        Ok(text) if text.contains(r#""error":"busy""#) => BusyClass::QueueFull,
        Ok(text) if text.contains(r#""error":"deadline""#) => BusyClass::Deadline,
        _ => BusyClass::Other,
    }
}

/// GETs a path (readiness probes, metrics scrapes) and returns
/// (status, body); `None` when no HTTP response came back.
pub fn get(addr: SocketAddr, path: &str) -> Option<(u16, Vec<u8>)> {
    let payload = format!("GET {path} HTTP/1.1\r\nhost: adec-load\r\n\r\n");
    let raw = exchange(addr, payload.as_bytes()).ok()?;
    split_response(&raw).map(|(s, _, b)| (s, b))
}

/// POSTs a body to a path and returns (status, body): `Err` when the
/// connect failed, `Ok(None)` when the server closed without a response.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> std::io::Result<Option<(u16, Vec<u8>)>> {
    let raw = exchange(addr, &render_post(path, None, body))?;
    Ok(split_response(&raw).map(|(s, _, b)| (s, b)))
}

/// Parses a response body as JSON (`None` unless it is UTF-8 JSON).
pub fn json_body(body: &[u8]) -> Option<Json> {
    Json::parse(std::str::from_utf8(body).ok()?).ok()
}

/// Scrapes `/metrics` and validates it with the strict exposition parser.
///
/// # Errors
///
/// A one-line reason when the scrape is unreachable, not a 200, or not
/// a valid exposition.
pub fn scrape_metrics(addr: SocketAddr) -> Result<Exposition, String> {
    let (status, body) = get(addr, "/metrics").ok_or("/metrics unreachable")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}, want 200"));
    }
    let text = std::str::from_utf8(&body).map_err(|_| "/metrics body is not UTF-8".to_string())?;
    check_exposition(text).map_err(|e| format!("exposition rejected: {e}"))
}

/// Probes `/readyz` for the model's accepted input width.
pub fn discover_input_dim(addr: SocketAddr) -> Option<usize> {
    let (200, body) = get(addr, "/readyz")? else {
        return None;
    };
    usize::try_from(json_body(&body)?.get("input_dim")?.as_u64()?).ok()
}

#[cfg(test)]
// Test code: unwraps are the assertions themselves here.
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn response_splitting() {
        let raw = b"HTTP/1.1 503 Busy\r\nretry-after: 1\r\nconnection: close\r\n\r\n{\"error\":\"busy\"}";
        let (status, head, body) = split_response(raw).unwrap();
        assert_eq!(status, 503);
        assert!(head.contains("retry-after:"));
        assert!(head.contains("connection: close"));
        assert_eq!(classify_busy(&body), BusyClass::QueueFull);
        assert_eq!(split_response(b"garbage"), None);
        assert_eq!(split_response(b""), None);
    }

    #[test]
    fn tier_parsing() {
        assert_eq!(parse_tier(br#"{"mode":"full","assignments":[]}"#), Some(Tier::Full));
        assert_eq!(
            parse_tier(br#"{"mode":"degraded-no-decoder","assignments":[]}"#),
            Some(Tier::NoDecoder)
        );
        assert_eq!(
            parse_tier(br#"{"mode":"degraded-centroid-only","assignments":[]}"#),
            Some(Tier::CentroidOnly)
        );
        assert_eq!(parse_tier(b"nope"), None);
    }

    #[test]
    fn busy_classification() {
        assert_eq!(classify_busy(br#"{"error":"deadline","detail":"x"}"#), BusyClass::Deadline);
        assert_eq!(classify_busy(b"???"), BusyClass::Other);
    }

    #[test]
    fn strategy_and_tier_names() {
        assert_eq!(ConnStrategy::parse("reconnect"), Some(ConnStrategy::Reconnect));
        assert_eq!(ConnStrategy::parse("reuse"), Some(ConnStrategy::Reuse));
        assert_eq!(ConnStrategy::parse("x"), None);
        assert_eq!(Tier::Full.as_str(), "full");
        assert_eq!(Tier::NoDecoder.as_str(), "degraded_no_decoder");
        assert_eq!(Tier::CentroidOnly.as_str(), "degraded_centroid_only");
    }

    #[test]
    fn http_rendering_declares_length_and_stamps_request_id() {
        let p = render_post("/assign", Some("load-7"), b"1,2,3\n");
        let text = String::from_utf8(p).unwrap();
        assert!(text.starts_with("POST /assign HTTP/1.1\r\n"));
        assert!(text.contains("x-request-id: load-7\r\n"));
        assert!(text.contains("content-length: 6\r\n"));
        assert!(text.ends_with("\r\n\r\n1,2,3\n"));
        let bare = String::from_utf8(render_post("/reload", None, b"")).unwrap();
        assert_eq!(
            bare,
            "POST /reload HTTP/1.1\r\nhost: adec-load\r\ncontent-length: 0\r\n\r\n"
        );
    }

    #[test]
    fn header_readback_from_lowercased_head() {
        let head = "http/1.1 200 ok\r\nx-request-id: load-3\r\nconnection: close";
        assert_eq!(header_value(head, "x-request-id"), Some("load-3".to_string()));
        assert_eq!(header_value(head, "retry-after"), None);
    }
}
