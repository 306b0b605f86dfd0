//! The full chaos drill, in-process: the same scenarios CI runs against
//! the release binary, here against an ephemeral-port server so failures
//! are debuggable under `cargo test`.

// Test code: unwraps are the assertions themselves here.
#![allow(clippy::unwrap_used)]

mod common;

use adec_serve::chaos::run_drill;
use common::{sample_model, start_server};

#[test]
fn chaos_drill_in_process() {
    let max_inflight = 4;
    let read_deadline_ms = 300;
    let server = start_server(sample_model(21), |c| {
        c.max_inflight = max_inflight;
        c.read_deadline_ms = read_deadline_ms;
        c.replicas = 2;
    });
    let addr = server.addr();

    let report = run_drill(addr, max_inflight, read_deadline_ms, 1234);
    assert!(report.all_passed(), "\n{}", report.render());

    // The server took every hit and kept serving; now it must drain
    // cleanly with zero caught panics (i.e. the lint guarantee held at
    // runtime too).
    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.caught_panics, 0, "worker panicked during the drill");
    assert!(stats.served > 0);
    assert!(stats.client_errors > 0, "drill should have produced typed client errors");
}

#[test]
fn drill_is_reproducible() {
    // Same seed, same scenario outcomes — the drill itself is deterministic
    // even though timings differ between runs.
    let server = start_server(sample_model(22), |c| {
        c.max_inflight = 4;
        c.read_deadline_ms = 300;
    });
    let addr = server.addr();
    let a = run_drill(addr, 4, 300, 99);
    let b = run_drill(addr, 4, 300, 99);
    assert!(a.all_passed(), "\n{}", a.render());
    assert!(b.all_passed(), "\n{}", b.render());
    assert_eq!(
        a.scenarios.iter().map(|s| s.name).collect::<Vec<_>>(),
        b.scenarios.iter().map(|s| s.name).collect::<Vec<_>>(),
    );
    server.shutdown();
    server.join();
}
