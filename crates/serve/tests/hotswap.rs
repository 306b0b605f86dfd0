//! Hot-swap properties: a same-bytes reload is a response no-op
//! (bitwise-identical assignments), and a different-checkpoint reload
//! changes `model_version` atomically — no response ever pairs one
//! version's number with the other version's assignments.

#![allow(clippy::panic, clippy::unwrap_used, clippy::indexing_slicing)]

mod common;

use adec_loadgen::client;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn assign(addr: SocketAddr, body: &[u8]) -> (u16, String) {
    match client::post(addr, "/assign", body) {
        Ok(Some((status, bytes))) => (status, String::from_utf8_lossy(&bytes).into_owned()),
        other => panic!("/assign gave {other:?}"),
    }
}

fn model_version_of(body: &str) -> u64 {
    let tail = body
        .split("\"model_version\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no model_version in {body:?}"));
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|e| panic!("bad model_version in {body:?}: {e}"))
}

fn assignments_of(body: &str) -> &str {
    body.split("\"assignments\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no assignments in {body:?}"))
}

fn reload(addr: SocketAddr) -> (u16, String) {
    match client::post(addr, "/reload", b"") {
        Ok(Some((status, bytes))) => (status, String::from_utf8_lossy(&bytes).into_owned()),
        other => panic!("/reload gave {other:?}"),
    }
}

#[test]
fn same_bytes_reload_is_a_response_noop() {
    let dir = common::scratch_dir("hotswap-noop");
    let reload_path = dir.join("model.ckpt");
    common::write_checkpoint(&reload_path, 7);
    let handle = common::start_fleet_server(2, &reload_path, |_| {});
    let addr = handle.addr();

    let body = common::sample_body(common::INPUT_DIM, 8, 11);
    let (status, before) = assign(addr, &body);
    assert_eq!(status, 200, "pre-swap assign: {before}");
    assert_eq!(model_version_of(&before), 1);

    let (status, reloaded) = reload(addr);
    assert_eq!(status, 200, "same-bytes reload must succeed: {reloaded}");

    let (status, after) = assign(addr, &body);
    assert_eq!(status, 200, "post-swap assign: {after}");
    assert_eq!(model_version_of(&after), 2, "explicit reload advances the version");
    assert_eq!(
        assignments_of(&before),
        assignments_of(&after),
        "same checkpoint bytes must produce bitwise-identical assignments"
    );

    // /readyz advances version and generation together.
    let readyz = match client::get(addr, "/readyz") {
        Some((200, bytes)) => String::from_utf8_lossy(&bytes).into_owned(),
        other => panic!("/readyz gave {other:?}"),
    };
    assert!(readyz.contains("\"model_version\":2"), "readyz: {readyz}");
    assert!(readyz.contains("\"reload_generation\":1"), "readyz: {readyz}");

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.caught_panics, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn different_checkpoint_swaps_version_atomically() {
    let dir = common::scratch_dir("hotswap-atomic");
    let reload_path = dir.join("model.ckpt");
    common::write_checkpoint(&reload_path, 7);
    let handle = common::start_fleet_server(2, &reload_path, |c| c.max_inflight = 32);
    let addr = handle.addr();
    let body = Arc::new(common::sample_body(common::INPUT_DIM, 8, 13));

    let (status, before) = assign(addr, &body);
    assert_eq!(status, 200, "pre-swap assign: {before}");
    let sub_old = assignments_of(&before).to_string();

    // Stage the different model, then hammer /assign while swapping.
    common::write_checkpoint(&reload_path, 8);
    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let body = Arc::clone(&body);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(Some((200, bytes))) = client::post(addr, "/assign", &body) {
                        seen.push(String::from_utf8_lossy(&bytes).into_owned());
                    }
                }
                seen
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(50));
    let (status, reloaded) = reload(addr);
    assert_eq!(status, 200, "reload under fire must succeed: {reloaded}");
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);

    let (status, after) = assign(addr, &body);
    assert_eq!(status, 200, "post-swap assign: {after}");
    assert_eq!(model_version_of(&after), 2);
    let sub_new = assignments_of(&after).to_string();
    assert_ne!(sub_old, sub_new, "seed-8 model must answer differently than seed-7");

    let mut observed = 0usize;
    for hammer in hammers {
        for resp in hammer.join().unwrap_or_else(|_| panic!("hammer panicked")) {
            observed += 1;
            let version = model_version_of(&resp);
            let sub = assignments_of(&resp);
            let consistent =
                (version == 1 && sub == sub_old) || (version == 2 && sub == sub_new);
            assert!(consistent, "torn version/assignments pair: {resp}");
        }
    }
    assert!(observed > 0, "hammer threads never got a response");

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.caught_panics, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
