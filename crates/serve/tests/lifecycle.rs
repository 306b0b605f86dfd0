//! Structured lifecycle events: replica spawn/death/respawn and reload
//! begin/swap/drain land in the JSONL sink with strictly increasing
//! `seq`, so the fleet's story can be reconstructed after the fact.
//! Single test fn: the sink is process-global.

#![allow(clippy::panic, clippy::unwrap_used, clippy::indexing_slicing)]

mod common;

use adec_loadgen::client;
use adec_obs::json::Json;
use adec_obs::{flush_sink, install_jsonl_sink, shutdown_sink, SinkOptions};
use std::time::{Duration, Instant};

fn first_seq(events: &[(String, u64)], kind: &str) -> u64 {
    events
        .iter()
        .find(|(k, _)| k == kind)
        .map(|&(_, seq)| seq)
        .unwrap_or_else(|| panic!("no {kind} event in {events:?}"))
}

#[test]
fn lifecycle_events_are_seq_ordered() {
    let dir = common::scratch_dir("lifecycle");
    let sink_path = dir.join("events.jsonl");
    install_jsonl_sink(&sink_path, SinkOptions::default()).unwrap();

    let reload_path = dir.join("model.ckpt");
    common::write_checkpoint(&reload_path, 7);
    let handle = common::start_fleet_server(2, &reload_path, |_| {});
    let addr = handle.addr();

    // Kill replica 0 and wait for the supervisor to respawn it.
    match client::post(addr, "/chaos/kill-replica", b"0") {
        Ok(Some((200, _))) => {}
        other => panic!("kill-replica gave {other:?}"),
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().respawns < 1 {
        assert!(Instant::now() < deadline, "replica 0 never respawned");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Hot swap (same bytes — still a full begin/swap/drain cycle), then
    // give the supervisor a few ticks to observe the old version drain.
    match client::post(addr, "/reload", b"") {
        Ok(Some((200, _))) => {}
        other => panic!("reload gave {other:?}"),
    }
    std::thread::sleep(Duration::from_millis(300));

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.caught_panics, 0);

    flush_sink();
    let events: Vec<(String, u64)> = std::fs::read_to_string(&sink_path)
        .unwrap()
        .lines()
        .map(|line| {
            let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            let kind = doc.get("kind").and_then(Json::as_str).unwrap().to_string();
            let seq = doc.get("seq").and_then(Json::as_u64).unwrap();
            (kind, seq)
        })
        .collect();
    shutdown_sink();

    // Every event carries a strictly increasing seq in file order.
    for pair in events.windows(2) {
        assert!(pair[0].1 < pair[1].1, "seq not strictly increasing: {pair:?}");
    }

    // The full lifecycle is present and causally ordered.
    let spawns = events.iter().filter(|(k, _)| k == "serve.replica.spawn").count();
    assert!(spawns >= 2, "both replicas must log a spawn, saw {spawns}");
    let death = first_seq(&events, "serve.replica.death");
    let respawn = first_seq(&events, "serve.replica.respawn");
    assert!(death < respawn, "death (seq {death}) must precede respawn (seq {respawn})");
    let begin = first_seq(&events, "serve.reload.begin");
    let swap = first_seq(&events, "serve.reload.swap");
    let drain = first_seq(&events, "serve.reload.drain");
    assert!(begin < swap, "reload.begin (seq {begin}) must precede swap (seq {swap})");
    assert!(swap < drain, "reload.swap (seq {swap}) must precede drain (seq {drain})");

    let _ = std::fs::remove_dir_all(&dir);
}
