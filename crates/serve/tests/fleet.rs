//! End-to-end fleet robustness: runs the full chaos fleet drill
//! (replica-kill, replica-wedge, reload-under-fire, corrupt-reload,
//! version-mismatch-reload) in-process against a 3-replica server, and
//! checks that a queued request never waits on a wedged replica while
//! another worker frees up.

#![allow(clippy::panic, clippy::unwrap_used)]

mod common;

use adec_loadgen::client;
use adec_serve::chaos;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn fleet_drill_passes_in_process() {
    let dir = common::scratch_dir("fleet-drill");
    let reload_path = dir.join("model.ckpt");
    let alt_path = dir.join("alt.ckpt");
    common::write_checkpoint(&reload_path, 7);
    common::write_checkpoint(&alt_path, 8);

    let handle = common::start_fleet_server(3, &reload_path, |c| {
        c.wedge_budget_ms = 300;
        c.max_inflight = 16;
    });
    let addr = handle.addr();

    let config = chaos::FleetDrillConfig {
        reload_path: reload_path.clone(),
        alt_checkpoint: alt_path,
        seed: 7,
        wedge_budget_ms: 300,
    };
    let report = chaos::run_fleet_drill(addr, &config);
    assert!(report.all_passed(), "fleet drill failed:\n{}", report.render());

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.caught_panics, 0, "panic guard tripped during the drill");
    assert!(
        stats.respawns >= 2,
        "kill + wedge must respawn at least twice, saw {}",
        stats.respawns
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_queued_request_goes_to_the_first_free_worker_not_a_wedged_one() {
    const READ_DEADLINE_MS: u64 = 300;
    let server = common::start_server(common::sample_model(7), |c| {
        c.replicas = 2;
        c.wedge_budget_ms = 3_000;
        c.read_deadline_ms = READ_DEADLINE_MS;
    });
    let addr = server.addr();

    // Wedge replica 0 for twice the budget. Its worker enters the wedge at
    // its next loop top, microseconds after this response is read; the
    // pause leaves a wide margin.
    let wedged = client::post(addr, "/chaos/wedge-replica", b"0").unwrap();
    assert_eq!(wedged.map(|(status, _)| status), Some(200));
    std::thread::sleep(Duration::from_millis(200));

    // Pin replica 1, the one free worker, with a request head that never
    // completes: it holds the worker until the read deadline cuts it off.
    let mut pin = TcpStream::connect(addr).unwrap();
    pin.write_all(b"POST /assign HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // Both workers are busy, so this request queues. Replica 1 frees up
    // within the read deadline; replica 0 stays wedged for seconds (until
    // supersession at the 3 s budget), so waiting on it fails the bound.
    let body = common::sample_body(common::INPUT_DIM, 1, 3);
    let sent = Instant::now();
    let answer = client::post(addr, "/assign", &body).unwrap();
    let waited = sent.elapsed();
    assert_eq!(answer.map(|(status, _)| status), Some(200));
    assert!(
        waited < Duration::from_millis(READ_DEADLINE_MS + 1_000),
        "queued /assign waited {waited:?} behind a wedged replica"
    );

    drop(pin);
    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.caught_panics, 0);
}
