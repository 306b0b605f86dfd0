//! Backpressure contract: drive offered load above the bounded queue and
//! assert the degradation ladder engages in order — full answers at low
//! occupancy, `degraded-no-decoder` above 50%, `degraded-centroid-only`
//! above 75%, and a `503 busy` (with `Retry-After`) only once the queue
//! is actually full — with zero deadline violations on anything accepted.
//!
//! The setup is deterministic, not statistical: one worker is pinned by a
//! stalled partial request, the queue is filled to capacity while it is
//! stuck, and then the drain order (= arrival order) fixes exactly which
//! queue depth each request observes.

// Test code: unwraps are the assertions themselves here.
#![allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)]

mod common;

use common::{sample_model, start_server, INPUT_DIM};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Opens a connection and writes a complete valid single-row `/assign`
/// request, leaving the response unread (the server will queue it).
fn send_assign(addr: SocketAddr) -> TcpStream {
    let row: Vec<String> = (0..INPUT_DIM).map(|i| format!("0.{}", i + 1)).collect();
    let body = format!("{}\n", row.join(","));
    let req = format!(
        "POST /assign HTTP/1.1\r\nhost: backpressure\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(req.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    stream
}

/// Reads a queued connection to EOF and returns (status, body).
fn read_response(mut stream: TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .strip_prefix("HTTP/1.")
        .and_then(|r| r.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {text:?}"));
    let body = text.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

fn mode_of(body: &str) -> &'static str {
    if body.contains(r#""mode":"full""#) {
        "full"
    } else if body.contains(r#""mode":"degraded-no-decoder""#) {
        "degraded-no-decoder"
    } else if body.contains(r#""mode":"degraded-centroid-only""#) {
        "degraded-centroid-only"
    } else {
        panic!("no mode in body: {body:?}")
    }
}

fn rank(mode: &str) -> u8 {
    match mode {
        "full" => 0,
        "degraded-no-decoder" => 1,
        "degraded-centroid-only" => 2,
        other => panic!("unknown mode {other}"),
    }
}

#[test]
fn ladder_degrades_in_order_under_queue_pressure() {
    const CAP: usize = 8;
    let server = start_server(sample_model(33), |c| {
        c.replicas = 1;
        c.max_inflight = CAP;
        // The pin below holds the worker for up to the read deadline;
        // accepted requests wait in the queue meanwhile. No deadline runs
        // while a request waits: the read deadline starts when a worker
        // begins reading it, the compute deadline when the worker begins
        // handling `/assign`, after the read. The compute deadline covers
        // one tiny request, so 15 s is a wide margin for a slow host.
        c.read_deadline_ms = 2_000;
        c.deadline_ms = 15_000;
    });
    let addr = server.addr();

    // Pin the only worker: a partial request head that never completes.
    // The worker sits in the read until the read deadline cuts it off.
    let mut pin = TcpStream::connect(addr).unwrap();
    pin.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    pin.write_all(b"POST /he").unwrap();
    // Give the worker time to pop the pin so the queue is empty again.
    std::thread::sleep(Duration::from_millis(300));

    // Fill the queue to capacity while the worker is stuck. Sequential
    // connects from one thread fix the arrival (= drain) order. The
    // requests are tiny, so the writes complete without a reader.
    let queued: Vec<TcpStream> = (0..CAP).map(|_| send_assign(addr)).collect();

    // One past capacity: the acceptor must shed it on the spot with the
    // contractual Retry-After, even though the worker is pinned.
    let mut over = TcpStream::connect(addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    over.write_all(
        b"POST /assign HTTP/1.1\r\nhost: over\r\ncontent-length: 4\r\n\r\n1,2\n",
    )
    .unwrap();
    let mut raw = Vec::new();
    let _ = over.read_to_end(&mut raw);
    let over_text = String::from_utf8_lossy(&raw).to_ascii_lowercase();
    assert!(over_text.starts_with("http/1.1 503"), "over-cap got: {over_text:?}");
    assert!(over_text.contains("retry-after:"), "503 busy must carry Retry-After");
    assert!(over_text.contains(r#""error":"busy""#), "must be the queue-full 503");

    // Release the worker: closing the pin's write half hands its blocked
    // read an EOF mid-head (400) without waiting out the full read
    // deadline, and the worker then drains the queue in arrival order.
    let _ = pin.shutdown(Shutdown::Write);
    let (pin_status, pin_body) = read_response(pin);
    assert_eq!(pin_status, 400, "the stalled head must be rejected, not served: {pin_body}");

    // Request i is popped with CAP-1-i requests still queued behind it:
    // depths 7,6,5,4,…,0 → centroid-only, no-decoder ×2, full ×5.
    let modes: Vec<&'static str> = queued
        .into_iter()
        .map(|s| {
            let (status, body) = read_response(s);
            assert_eq!(status, 200, "accepted requests must be answered, not dropped");
            mode_of(&body)
        })
        .collect();
    assert_eq!(
        modes,
        vec![
            "degraded-centroid-only",
            "degraded-no-decoder",
            "degraded-no-decoder",
            "full",
            "full",
            "full",
            "full",
            "full",
        ],
        "ladder must engage exactly by observed queue depth"
    );
    for pair in modes.windows(2) {
        assert!(
            rank(pair[0]) >= rank(pair[1]),
            "drain must walk the ladder back up, never down: {modes:?}"
        );
    }

    // Server-side accounting agrees: per-tier counters, no deadline was
    // violated on any accepted request, and nothing panicked.
    let stats = server.stats();
    assert_eq!(stats.served_by_tier, [5, 2, 1], "full / no-decoder / centroid-only");
    assert_eq!(stats.rejected_busy, 1, "exactly the over-cap request was shed");
    assert_eq!(stats.deadline_expired, 0, "accepted requests must meet their deadline");
    assert_eq!(stats.caught_panics, 0);

    server.shutdown();
}
