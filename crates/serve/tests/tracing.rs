//! Causal-tracing integration tests: request-id propagation, tail-based
//! sampling, the `/tracez` exemplar contract, and the acceptance drill —
//! an injected-slow request whose exemplar stage breakdown must sum to
//! within 10% of its end-to-end latency.

// Test code: unwraps and panics are the assertions themselves here, and
// slice bounds follow from the parsed HTTP framing being asserted first.
#![allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)]

mod common;

use adec_loadgen::client::{get, post};
use adec_obs::trace::check_chrome_trace;
use common::{sample_body, sample_model, start_server, INPUT_DIM};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One raw HTTP exchange returning (status, lowercased headers, body).
fn exchange(
    addr: SocketAddr,
    head: &str,
    body: &[u8],
    pause_mid_body: Option<Duration>,
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(head.as_bytes()).unwrap();
    match pause_mid_body {
        Some(pause) if body.len() >= 2 => {
            let split = body.len() / 2;
            stream.write_all(&body[..split]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(pause);
            stream.write_all(&body[split..]).unwrap();
        }
        _ => stream.write_all(body).unwrap(),
    }
    stream.flush().unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let sep = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    let head_text = String::from_utf8_lossy(&raw[..sep]).to_string();
    let mut lines = head_text.lines();
    let status: u16 = lines
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, raw[sep + 4..].to_vec())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

fn assign_head(rid: Option<&str>, body_len: usize) -> String {
    let rid_line = rid.map(|r| format!("x-request-id: {r}\r\n")).unwrap_or_default();
    format!("POST /assign HTTP/1.1\r\nhost: test\r\n{rid_line}content-length: {body_len}\r\n\r\n")
}

/// Pulls `"field":<float>` out of a hand-rolled JSON body.
fn float_field(text: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let start = text.find(&key)? + key.len();
    let num: String = text
        .get(start..)?
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

#[test]
fn request_id_is_echoed_or_minted() {
    let server = start_server(sample_model(21), |c| c.trace_slow_ms = Some(0));
    let addr = server.addr();
    let body = sample_body(INPUT_DIM, 2, 5);

    let (status, headers, _) =
        exchange(addr, &assign_head(Some("load-0"), body.len()), &body, None);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-request-id"), Some("load-0"));

    // No client id: the server mints one.
    let (status, headers, _) = exchange(addr, &assign_head(None, body.len()), &body, None);
    assert_eq!(status, 200);
    let minted = header(&headers, "x-request-id").unwrap();
    assert!(minted.starts_with("srv-"), "minted id was {minted:?}");

    // An invalid client id (bad characters) is ignored, not echoed.
    let (status, headers, _) = exchange(
        addr,
        &assign_head(Some("bad id with spaces!"), body.len()),
        &body,
        None,
    );
    assert_eq!(status, 200);
    assert!(header(&headers, "x-request-id").unwrap().starts_with("srv-"));

    server.shutdown();
    server.join();
}

#[test]
fn tracez_slow_exemplar_stage_sum_within_ten_percent() {
    let server = start_server(sample_model(22), |c| c.trace_slow_ms = Some(50));
    let addr = server.addr();
    let body = sample_body(INPUT_DIM, 4, 9);

    // A fast request: well under the 50ms threshold, must NOT be retained.
    let (status, _, _) = exchange(addr, &assign_head(Some("load-fast"), body.len()), &body, None);
    assert_eq!(status, 200);

    // The injected-slow request: the body arrives in two halves with a
    // 150ms pause, so the decode stage dominates and the request crosses
    // the slow threshold deterministically.
    let started = Instant::now();
    let (status, headers, _) = exchange(
        addr,
        &assign_head(Some("load-slow"), body.len()),
        &body,
        Some(Duration::from_millis(150)),
    );
    let measured_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-request-id"), Some("load-slow"));

    let (status, tracez) = get(addr, "/tracez").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(tracez).unwrap();
    assert!(text.contains(r#""enabled":true"#), "{text}");
    assert!(text.contains(r#""slow_ms":50"#), "{text}");
    assert!(
        !text.contains(r#""request_id":"load-fast""#),
        "fast request must not survive tail sampling: {text}"
    );

    // Isolate the slow exemplar's JSON object.
    let at = text.find(r#""request_id":"load-slow""#).unwrap_or_else(|| {
        panic!("slow request not retained: {text}");
    });
    let rest = &text[at..];
    let end = rest.find("]}").unwrap() + 2;
    let exemplar = &rest[..end];
    assert!(exemplar.contains(r#""status":"200""#), "{exemplar}");
    assert!(exemplar.contains(r#""tier":"full""#), "{exemplar}");
    let total_ms = float_field(exemplar, "total_ms").unwrap();
    assert!(
        total_ms >= 150.0,
        "slow exemplar total {total_ms}ms is below the injected pause"
    );
    // The exemplar's end-to-end time agrees with the client's measurement
    // (client adds connect + first-byte overhead, so exemplar <= client).
    assert!(
        total_ms <= measured_ms && measured_ms - total_ms <= measured_ms * 0.10,
        "exemplar total {total_ms}ms vs client-measured {measured_ms}ms"
    );

    // The acceptance drill: the per-stage breakdown explains the latency.
    let mut stage_sum = 0.0;
    for stage in ["queue_wait", "decode", "eval", "encode"] {
        let frag = exemplar
            .split(&format!(r#""name":"{stage}""#))
            .nth(1)
            .unwrap_or_else(|| panic!("stage {stage} missing: {exemplar}"));
        stage_sum += float_field(frag, "ms").unwrap();
    }
    // "drift" only appears when the checkpoint carries a profile; add it
    // if present rather than requiring it.
    if let Some(frag) = exemplar.split(r#""name":"drift""#).nth(1) {
        stage_sum += float_field(frag, "ms").unwrap();
    }
    let gap = (total_ms - stage_sum).abs();
    assert!(
        gap <= total_ms * 0.10,
        "stages sum to {stage_sum}ms but the exemplar took {total_ms}ms (gap {gap}ms > 10%)"
    );

    // Chrome export variant round-trips through the strict parser and
    // contains the retained trace's stages.
    let (status, chrome) = get(addr, "/tracez?format=chrome").unwrap();
    assert_eq!(status, 200);
    let doc = check_chrome_trace(&String::from_utf8(chrome).unwrap()).unwrap();
    assert!(!doc.named("request").is_empty(), "no root events exported");
    assert!(!doc.named("decode").is_empty(), "no decode stage exported");

    server.shutdown();
    server.join();
}

#[test]
fn tail_sampling_always_retains_errors_and_tracez_is_get_only() {
    // Threshold far above anything this test does: only errors survive.
    let server = start_server(sample_model(23), |c| c.trace_slow_ms = Some(60_000));
    let addr = server.addr();

    let good = sample_body(INPUT_DIM, 2, 3);
    let (status, _, _) = exchange(addr, &assign_head(Some("load-ok"), good.len()), &good, None);
    assert_eq!(status, 200);
    let bad = b"1,2\n".to_vec();
    let (status, _, _) = exchange(addr, &assign_head(Some("load-bad"), bad.len()), &bad, None);
    assert_eq!(status, 400);

    let (status, tracez) = get(addr, "/tracez").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(tracez).unwrap();
    assert!(text.contains(r#""request_id":"load-bad""#), "{text}");
    assert!(text.contains(r#""status":"400""#), "{text}");
    assert!(!text.contains(r#""request_id":"load-ok""#), "{text}");

    // Method contract: POST /tracez is 405, like the other read-only
    // endpoints.
    let (status, resp) = post(addr, "/tracez", b"").unwrap().unwrap();
    assert_eq!(status, 405, "{}", String::from_utf8_lossy(&resp));

    server.shutdown();
    server.join();
}

#[test]
fn tracing_disabled_server_reports_inert_tracez() {
    let server = start_server(sample_model(24), |_| {});
    let addr = server.addr();
    let body = sample_body(INPUT_DIM, 2, 3);
    let (status, headers, _) =
        exchange(addr, &assign_head(Some("load-1"), body.len()), &body, None);
    assert_eq!(status, 200);
    // Request ids still flow when tracing is off.
    assert_eq!(header(&headers, "x-request-id"), Some("load-1"));

    let (status, tracez) = get(addr, "/tracez").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(tracez).unwrap();
    assert!(text.contains(r#""enabled":false"#), "{text}");
    assert!(text.contains(r#""exemplars":[]"#), "{text}");

    server.shutdown();
    server.join();
}
