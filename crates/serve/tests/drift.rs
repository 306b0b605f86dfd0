//! Serve-level drift-sentinel properties: per-shift-kind detection
//! bounds, the gate-policy lifecycle over HTTP with seq-ordered
//! `serve.drift.*` events, forward compatibility with profile-less
//! checkpoints, and observe-mode byte identity.
//!
//! The harness is a centroid-only checkpoint whose centroids are the
//! class means of three well-separated Gaussian blobs: the latent space
//! *is* the input space, so every [`ShiftKind`] the stream simulator can
//! inject couples to the sentinel's signals deterministically.

#![allow(clippy::panic, clippy::unwrap_used, clippy::indexing_slicing)]

mod common;

use adec_datagen::{Dataset, Modality, ShiftKind, ShiftSchedule, StreamSim};
use adec_loadgen::client;
use adec_nn::{soft_assignment, Checkpoint, ParamStore, ReferenceProfile};
use adec_obs::json::Json;
use adec_obs::{flush_sink, install_jsonl_sink, SinkOptions};
use adec_serve::{DriftConfig, DriftPolicy, DriftSentinel, InferenceModel};
use adec_tensor::{Matrix, SeedRng};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Feature (and latent) dimensionality of the blob harness.
const DIM: usize = 4;
/// Blob count (= cluster count).
const K: usize = 3;
/// Rows per blob in the base dataset.
const ROWS_PER_CLASS: usize = 64;
/// Detector window used throughout.
const WINDOW: usize = 64;
/// Documented detection-latency bound, in windows, for drill magnitudes.
const DETECT_BOUND: usize = 8;

/// Three separated Gaussian blobs (centers `6·e_c`, noise σ 0.5).
fn blobs(seed: u64) -> Dataset {
    let mut rng = SeedRng::new(seed);
    let n = K * ROWS_PER_CLASS;
    let mut data = Matrix::randn(n, DIM, 0.0, 0.5, &mut rng);
    let mut labels = Vec::with_capacity(n);
    for c in 0..K {
        for r in 0..ROWS_PER_CLASS {
            let row = c * ROWS_PER_CLASS + r;
            data.set(row, c, data.get(row, c) + 6.0);
            labels.push(c);
        }
    }
    Dataset { name: "blobs", data, labels, n_classes: K, modality: Modality::Tabular }
}

/// A centroid-only checkpoint over the blobs: centroids are the class
/// means, the profile (when kept) is computed exactly the way the
/// trainers do it.
fn blob_checkpoint(ds: &Dataset, with_profile: bool) -> Checkpoint {
    let mut mu = Matrix::zeros(K, DIM);
    let mut counts = [0usize; K];
    for (i, &l) in ds.labels.iter().enumerate() {
        counts[l] += 1;
        for d in 0..DIM {
            mu.set(l, d, mu.get(l, d) + ds.data.get(i, d));
        }
    }
    for c in 0..K {
        for d in 0..DIM {
            mu.set(c, d, mu.get(c, d) / counts[c] as f32);
        }
    }
    let q = soft_assignment(&ds.data, &mu, 1.0);
    let profile = ReferenceProfile::compute(&ds.data, &q, &mu);
    let mut store = ParamStore::new();
    store.register("dec.centroids", mu);
    let mut rng = SeedRng::new(11);
    let _ = rng.uniform(0.0, 1.0);
    Checkpoint {
        phase: "dec".into(),
        iter: 1,
        rng: rng.export_state(),
        store,
        opts: vec![],
        extra: vec![],
        profile: with_profile.then_some(profile),
    }
}

fn blob_model(ds: &Dataset, with_profile: bool) -> InferenceModel {
    match InferenceModel::from_checkpoint(blob_checkpoint(ds, with_profile), 1.0) {
        Ok(m) => m,
        Err(e) => panic!("blob model build failed: {e}"),
    }
}

/// POSTs the matrix to `/assign` as CSV (in requests of at most 32 rows)
/// and returns the last response body.
fn post_rows(addr: SocketAddr, x: &Matrix) -> Vec<u8> {
    let mut last = Vec::new();
    let mut start = 0;
    while start < x.rows() {
        let end = (start + 32).min(x.rows());
        let body = adec_loadgen::csv_body((start..end).map(|r| x.row(r)));
        match client::post(addr, "/assign", &body) {
            Ok(Some((200, resp))) => last = resp,
            other => panic!("/assign gave {other:?}"),
        }
        start = end;
    }
    last
}

/// Fetches and parses `/driftz`.
fn driftz(addr: SocketAddr) -> Json {
    match client::get(addr, "/driftz") {
        Some((200, body)) => {
            let text = String::from_utf8(body).unwrap();
            Json::parse(&text).unwrap_or_else(|e| panic!("bad /driftz {text:?}: {e}"))
        }
        other => panic!("/driftz gave {other:?}"),
    }
}

fn driftz_u64(doc: &Json, field: &str) -> u64 {
    doc.get(field)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no {field} in {doc:?}"))
}

fn driftz_bool(doc: &Json, field: &str) -> bool {
    match doc.get(field) {
        Some(&Json::Bool(b)) => b,
        other => panic!("no bool {field}, got {other:?}"),
    }
}

/// Polls `/driftz` until the window counter reaches `target` (closing
/// intentionally lags the `/assign` response).
fn wait_for_windows(addr: SocketAddr, target: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let doc = driftz(addr);
        if driftz_u64(&doc, "windows") >= target || Instant::now() >= deadline {
            return doc;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Satellite property suite: the sentinel fed straight from the model's
/// batch statistics never alarms on the training distribution, and every
/// shift kind at drill magnitude is detected within the documented bound.
#[test]
fn stationary_never_alarms_and_every_shift_kind_is_detected() {
    let ds = blobs(3);
    let model = blob_model(&ds, true);
    let config =
        DriftConfig { policy: DriftPolicy::Degrade, window_rows: WINDOW };

    // Stationary control: ten windows, not one alarm.
    let sentinel = DriftSentinel::new(config.clone(), model.profile().cloned(), 0);
    let mut sim = StreamSim::from_dataset(&ds, 21, ShiftSchedule::stationary());
    for _ in 0..10 {
        let batch = model.drift_stats(&sim.next_batch(WINDOW)).unwrap();
        sentinel.record(&batch);
    }
    let snap = sentinel.snapshot();
    assert_eq!(snap.windows, 10);
    assert!(!snap.alarmed && snap.alarms == 0, "stationary false alarm: {snap:?}");

    // Every shift kind, drill magnitude, fresh sentinel: bounded latency.
    for (i, &kind) in ShiftKind::ALL.iter().enumerate() {
        let magnitude = match kind {
            ShiftKind::MeanShift => 2.0,
            ShiftKind::CovScale => 1.0,
            ShiftKind::ClusterBirth => 0.5,
            ShiftKind::ClusterDeath => 1.0,
            ShiftKind::PriorShift => 4.0,
        };
        let sentinel = DriftSentinel::new(config.clone(), model.profile().cloned(), 0);
        let mut sim = StreamSim::from_dataset(
            &ds,
            100 + i as u64,
            ShiftSchedule::single(0, kind, magnitude),
        );
        let mut detected = None;
        for w in 1..=DETECT_BOUND {
            let batch = model.drift_stats(&sim.next_batch(WINDOW)).unwrap();
            sentinel.record(&batch);
            if sentinel.alarmed() {
                detected = Some(w);
                break;
            }
        }
        assert!(
            detected.is_some(),
            "{} at magnitude {magnitude} not detected within {DETECT_BOUND} windows: {:?}",
            kind.as_str(),
            sentinel.snapshot()
        );
    }
}

/// The full gate-policy lifecycle over HTTP, with the obs sink capturing
/// the event stream: stationary traffic leaves readiness green, a mean
/// shift latches the alarm and fails `/readyz`, responses carry the drift
/// flag, a refit hot reload clears the latch, and the
/// `serve.drift.{window,alarm,mitigate,clear}` events land seq-ordered.
/// Single sink-installing test: the sink is process-global, so events are
/// filtered by this server's `instance` (its port).
#[test]
fn gate_policy_lifecycle_and_events_over_http() {
    let dir = common::scratch_dir("drift-lifecycle");
    let sink_path = dir.join("events.jsonl");
    install_jsonl_sink(&sink_path, SinkOptions::default()).unwrap();

    let ds = blobs(4);
    let ck = blob_checkpoint(&ds, true);
    let reload_path = dir.join("model.ckpt");
    ck.save_atomic(&reload_path).unwrap();
    let model = InferenceModel::from_checkpoint(ck, 1.0).unwrap();
    let reload = reload_path.clone();
    let handle = common::start_server(model, move |c| {
        c.reload_path = Some(reload);
        c.drift =
            DriftConfig { policy: DriftPolicy::Gate, window_rows: WINDOW };
    });
    let addr = handle.addr();
    let instance = u64::from(addr.port());

    // Armed and calm: profile present, readiness green.
    let doc = driftz(addr);
    assert!(driftz_bool(&doc, "enabled"), "sentinel not enabled: {doc:?}");
    assert_eq!(doc.get("profile").and_then(Json::as_str), Some("present"));
    assert!(!driftz_bool(&doc, "alarmed"));

    // Two stationary windows: no alarm, still ready.
    let mut stationary = StreamSim::from_dataset(&ds, 31, ShiftSchedule::stationary());
    for _ in 0..2 {
        post_rows(addr, &stationary.next_batch(WINDOW));
    }
    let doc = wait_for_windows(addr, 2);
    assert_eq!(driftz_u64(&doc, "alarms"), 0, "stationary false alarm: {doc:?}");
    match client::get(addr, "/readyz") {
        Some((200, _)) => {}
        other => panic!("stationary /readyz gave {other:?}"),
    }

    // Sustained mean shift: the alarm must latch within the bound.
    let mut shifted =
        StreamSim::from_dataset(&ds, 32, ShiftSchedule::single(0, ShiftKind::MeanShift, 2.5));
    let mut alarmed = false;
    for w in 1..=DETECT_BOUND {
        post_rows(addr, &shifted.next_batch(WINDOW));
        let doc = wait_for_windows(addr, 2 + w as u64);
        if driftz_bool(&doc, "alarmed") {
            alarmed = true;
            break;
        }
    }
    assert!(alarmed, "mean shift not detected within {DETECT_BOUND} windows");

    // Gate policy: readiness fails naming the alarm; responses stamped.
    match client::get(addr, "/readyz") {
        Some((503, body)) => {
            let text = String::from_utf8_lossy(&body);
            assert!(text.contains("\"drift_alarmed\":true"), "readyz body: {text}");
        }
        other => panic!("alarmed /readyz gave {other:?}"),
    }
    let body = post_rows(addr, &stationary.next_batch(4));
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("\"drift\":true"), "alarmed /assign not stamped: {text}");

    // Refit reload (same profiled bytes) clears the latch and readiness.
    match client::post(addr, "/reload", b"") {
        Ok(Some((200, _))) => {}
        other => panic!("/reload gave {other:?}"),
    }
    let doc = driftz(addr);
    assert!(!driftz_bool(&doc, "alarmed"), "reload left the latch set: {doc:?}");
    assert!(driftz_u64(&doc, "clears") >= 1, "no clear recorded: {doc:?}");
    match client::get(addr, "/readyz") {
        Some((200, _)) => {}
        other => panic!("post-reload /readyz gave {other:?}"),
    }

    // Stationary traffic after recovery stays calm.
    let alarms_after_reload = driftz_u64(&doc, "alarms");
    let windows_after_reload = driftz_u64(&doc, "windows");
    for _ in 0..2 {
        post_rows(addr, &stationary.next_batch(WINDOW));
    }
    let doc = wait_for_windows(addr, windows_after_reload + 2);
    assert!(!driftz_bool(&doc, "alarmed"), "re-alarmed on stationary traffic: {doc:?}");
    assert_eq!(driftz_u64(&doc, "alarms"), alarms_after_reload);

    handle.shutdown();
    let stats = handle.join();
    assert_eq!(stats.caught_panics, 0);

    // The event record: this server's drift events, in file order.
    flush_sink();
    let events: Vec<(String, u64, Json)> = std::fs::read_to_string(&sink_path)
        .unwrap()
        .lines()
        .filter_map(|line| {
            let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            let kind = doc.get("kind").and_then(Json::as_str)?.to_string();
            let seq = doc.get("seq").and_then(Json::as_u64)?;
            if kind.starts_with("serve.drift.")
                && doc.get("instance").and_then(Json::as_u64) == Some(instance)
            {
                Some((kind, seq, doc))
            } else {
                None
            }
        })
        .collect();
    for pair in events.windows(2) {
        assert!(pair[0].1 < pair[1].1, "seq not strictly increasing: {pair:?}");
    }
    let seq_of = |kind: &str| {
        events
            .iter()
            .find(|(k, _, _)| k == kind)
            .map(|&(_, seq, _)| seq)
            .unwrap_or_else(|| panic!("no {kind} event"))
    };
    let first_window = seq_of("serve.drift.window");
    let alarm = seq_of("serve.drift.alarm");
    let mitigate = seq_of("serve.drift.mitigate");
    let clear = seq_of("serve.drift.clear");
    assert!(first_window < alarm, "window (seq {first_window}) must precede alarm (seq {alarm})");
    assert!(alarm < mitigate, "alarm (seq {alarm}) must precede mitigate (seq {mitigate})");
    assert!(mitigate < clear, "mitigate (seq {mitigate}) must precede clear (seq {clear})");
    let (_, _, mitigate_doc) =
        events.iter().find(|(k, _, _)| k == "serve.drift.mitigate").unwrap();
    assert_eq!(mitigate_doc.get("action").and_then(Json::as_str), Some("gate"));
    let (_, _, clear_doc) = events.iter().find(|(k, _, _)| k == "serve.drift.clear").unwrap();
    assert_eq!(clear_doc.get("reason").and_then(Json::as_str), Some("reload"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Forward compatibility: a pre-profile checkpoint serves normally with
/// the sentinel disabled — `/driftz` and `/readyz` report the absent
/// profile, traffic never accumulates windows, and even the gate policy
/// never gates readiness.
#[test]
fn profileless_checkpoint_serves_with_sentinel_disabled() {
    let ds = blobs(5);
    let model = blob_model(&ds, false);
    let handle = common::start_server(model, |c| {
        c.drift =
            DriftConfig { policy: DriftPolicy::Gate, window_rows: WINDOW };
    });
    let addr = handle.addr();

    let doc = driftz(addr);
    assert!(!driftz_bool(&doc, "enabled"), "sentinel enabled without a profile: {doc:?}");
    assert_eq!(doc.get("profile").and_then(Json::as_str), Some("absent"));
    match client::get(addr, "/readyz") {
        Some((200, body)) => {
            let text = String::from_utf8_lossy(&body);
            assert!(text.contains("\"drift_profile\":\"absent\""), "readyz body: {text}");
        }
        other => panic!("/readyz gave {other:?}"),
    }

    // Plenty of traffic — even shifted — closes no windows and never gates.
    let mut sim =
        StreamSim::from_dataset(&ds, 41, ShiftSchedule::single(0, ShiftKind::MeanShift, 3.0));
    for _ in 0..3 {
        post_rows(addr, &sim.next_batch(WINDOW));
    }
    let doc = driftz(addr);
    assert_eq!(driftz_u64(&doc, "windows"), 0);
    assert_eq!(driftz_u64(&doc, "pending_rows"), 0);
    match client::get(addr, "/readyz") {
        Some((200, _)) => {}
        other => panic!("profile-less /readyz gave {other:?}"),
    }

    handle.shutdown();
    assert_eq!(handle.join().caught_panics, 0);
}

/// Observe policy is invisible on the wire: against the same weights, a
/// profiled server under `observe` answers byte-for-byte identically to a
/// profile-stripped server, window closings included.
#[test]
fn observe_policy_responses_match_profile_stripped_server() {
    let ds = blobs(6);
    let observed = common::start_server(blob_model(&ds, true), |c| {
        c.drift = DriftConfig {
            policy: DriftPolicy::Observe,
            window_rows: WINDOW,
        };
    });
    let stripped = common::start_server(blob_model(&ds, false), |_| {});

    // Enough stationary traffic to close windows on the observed server,
    // then a shifted batch: still byte-identical (observe never stamps).
    let mut sim_a = StreamSim::from_dataset(&ds, 51, ShiftSchedule::stationary());
    let mut sim_b = StreamSim::from_dataset(&ds, 51, ShiftSchedule::stationary());
    for _ in 0..2 {
        let a = post_rows(observed.addr(), &sim_a.next_batch(WINDOW));
        let b = post_rows(stripped.addr(), &sim_b.next_batch(WINDOW));
        assert_eq!(a, b, "observe-mode response differs from sentinel-less run");
    }
    let mut shift_a =
        StreamSim::from_dataset(&ds, 52, ShiftSchedule::single(0, ShiftKind::MeanShift, 2.5));
    let mut shift_b =
        StreamSim::from_dataset(&ds, 52, ShiftSchedule::single(0, ShiftKind::MeanShift, 2.5));
    for _ in 0..3 {
        let a = post_rows(observed.addr(), &shift_a.next_batch(WINDOW));
        let b = post_rows(stripped.addr(), &shift_b.next_batch(WINDOW));
        assert_eq!(a, b, "observe-mode response differs after shift");
    }

    // The sentinel *was* watching: windows closed on the observed server.
    let doc = driftz(observed.addr());
    assert!(driftz_u64(&doc, "windows") >= 2, "observe sentinel idle: {doc:?}");

    observed.shutdown();
    stripped.shutdown();
    assert_eq!(observed.join().caught_panics, 0);
    assert_eq!(stripped.join().caught_panics, 0);
}

/// Degrade policy stamps responses and folds into the shed ladder but
/// keeps readiness green: drift is a quality degradation, not an outage.
#[test]
fn degrade_policy_stamps_responses_but_keeps_readiness() {
    let ds = blobs(7);
    let handle = common::start_server(blob_model(&ds, true), |c| {
        c.drift = DriftConfig {
            policy: DriftPolicy::Degrade,
            window_rows: WINDOW,
        };
    });
    let addr = handle.addr();

    // Un-alarmed: stamped with drift=false, ready.
    let mut stationary = StreamSim::from_dataset(&ds, 61, ShiftSchedule::stationary());
    let body = post_rows(addr, &stationary.next_batch(4));
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("\"drift\":false"), "calm degrade-mode not stamped: {text}");

    // Drive to alarm.
    let mut shifted =
        StreamSim::from_dataset(&ds, 62, ShiftSchedule::single(0, ShiftKind::MeanShift, 2.5));
    let mut alarmed = false;
    for w in 1..=DETECT_BOUND {
        post_rows(addr, &shifted.next_batch(WINDOW));
        let doc = wait_for_windows(addr, w as u64);
        if driftz_bool(&doc, "alarmed") {
            alarmed = true;
            break;
        }
    }
    assert!(alarmed, "mean shift not detected within {DETECT_BOUND} windows");

    let body = post_rows(addr, &stationary.next_batch(4));
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("\"drift\":true"), "alarmed degrade-mode not stamped: {text}");
    match client::get(addr, "/readyz") {
        Some((200, _)) => {}
        other => panic!("degrade policy must not gate readiness, got {other:?}"),
    }

    handle.shutdown();
    assert_eq!(handle.join().caught_panics, 0);
}

/// The served sentinel reduces a request exactly as the offline path
/// does, across chunk boundaries: one 100-row body (evaluated in chunks of
/// 32, 32, 32 and 4) closes one 100-row window whose signals equal, to the
/// bit, those of an in-process sentinel fed `drift_stats` of the same rows.
#[test]
fn served_window_matches_offline_drift_stats_across_chunks() {
    const ROWS: usize = 100;
    let ck = common::profiled_checkpoint(9);
    let model = InferenceModel::from_checkpoint(ck, 1.0).unwrap();
    // Shifted off the profile's inputs, so every signal is non-trivial.
    let x = Matrix::randn(ROWS, common::INPUT_DIM, 0.5, 1.5, &mut SeedRng::new(12));
    let config = DriftConfig { window_rows: ROWS, ..DriftConfig::default() };

    let offline = DriftSentinel::new(config.clone(), model.profile().cloned(), 0);
    offline.record(&model.drift_stats(&x).unwrap());
    let want = offline.snapshot();
    assert_eq!(want.windows, 1);

    let handle = common::start_server(model, move |c| c.drift = config);
    let addr = handle.addr();
    let body = adec_loadgen::csv_body((0..ROWS).map(|r| x.row(r)));
    match client::post(addr, "/assign", &body) {
        Ok(Some((200, _))) => {}
        other => panic!("/assign gave {other:?}"),
    }
    let doc = wait_for_windows(addr, 1);
    assert_eq!(driftz_u64(&doc, "windows"), 1, "{doc:?}");
    assert_eq!(driftz_u64(&doc, "rows"), ROWS as u64, "{doc:?}");
    // Compare the rendered values, not parsed ones: the text is the
    // shortest round-trip form of each f32.
    let text = match client::get(addr, "/driftz") {
        Some((200, body)) => String::from_utf8(body).unwrap(),
        other => panic!("/driftz gave {other:?}"),
    };
    for s in &want.signals {
        let expected = format!(r#"{{"name":"{}","last":{},"score":{},"#, s.name, s.last, s.score);
        assert!(text.contains(&expected), "served {} differs from offline {expected}: {text}", s.name);
    }

    handle.shutdown();
    assert_eq!(handle.join().caught_panics, 0);
}
