//! Happy-path and endpoint-contract tests for the serve stack, run fully
//! in-process against an ephemeral-port server.

// Test code: unwraps and panics are the assertions themselves here.
#![allow(clippy::unwrap_used, clippy::panic)]

mod common;

use adec_loadgen::client::{discover_input_dim, get, post, scrape_metrics};
use adec_obs::json::Json;
use adec_serve::chaos::STATZ_COUNTERS;
use adec_serve::{InferenceModel, ServeMode, ServeStats};
use common::{
    decoderless_checkpoint, sample_body, sample_checkpoint, sample_model, start_server, INPUT_DIM,
    K,
};

#[test]
fn healthz_and_readyz_report_the_model() {
    let server = start_server(sample_model(1), |_| {});
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, b"ok\n");

    let (status, body) = get(addr, "/readyz").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains(r#""ready":true"#), "{text}");
    assert!(text.contains(r#""mode":"full""#), "{text}");
    assert!(text.contains(&format!(r#""input_dim":{INPUT_DIM}"#)), "{text}");
    assert!(text.contains(&format!(r#""clusters":{K}"#)), "{text}");
    assert_eq!(discover_input_dim(addr), Some(INPUT_DIM));

    server.shutdown();
    server.join();
}

#[test]
fn assign_round_trip_full_mode() {
    let server = start_server(sample_model(2), |_| {});
    let addr = server.addr();

    let body = sample_body(INPUT_DIM, 5, 42);
    let (status, resp) = post(addr, "/assign", &body).unwrap().unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    let text = String::from_utf8(resp).unwrap();
    assert!(text.contains(r#""mode":"full""#), "{text}");
    assert!(text.contains(r#""recon_error":"#), "{text}");
    assert_eq!(text.matches(r#""label":"#).count(), 5, "{text}");

    let stats = server.stats();
    assert!(stats.served >= 1);
    assert_eq!(stats.caught_panics, 0);
    server.shutdown();
    server.join();
}

#[test]
fn assign_rejects_bad_bodies_with_400() {
    let server = start_server(sample_model(3), |_| {});
    let addr = server.addr();

    for bad in [
        &b"not,numbers,at,all,xx,yy\n"[..],
        &b"1,2,3\n"[..],                 // wrong width
        &b"1,2,3,4,5,NaN\n"[..],        // non-finite
        &b"1,2,3,4,5,9e30\n"[..],       // over the magnitude bound
        &b""[..],                       // empty
        &[0xff, 0xfe][..],              // not UTF-8
    ] {
        let (status, resp) = post(addr, "/assign", bad).unwrap().unwrap();
        assert_eq!(status, 400, "body {:?} -> {}", bad, String::from_utf8_lossy(&resp));
        let text = String::from_utf8(resp).unwrap();
        assert!(text.contains(r#""error":""#), "{text}");
    }
    // Server still healthy after the parade of junk.
    assert_eq!(get(addr, "/healthz").unwrap().0, 200);
    server.shutdown();
    server.join();
}

#[test]
fn unknown_paths_and_methods_get_typed_errors() {
    let server = start_server(sample_model(4), |_| {});
    let addr = server.addr();

    assert_eq!(get(addr, "/nope").unwrap().0, 404);
    assert_eq!(post(addr, "/healthz", b"").unwrap().unwrap().0, 405);
    assert_eq!(get(addr, "/assign").unwrap().0, 405);
    server.shutdown();
    server.join();
}

#[test]
fn degraded_no_decoder_serves_and_says_so() {
    let model = InferenceModel::from_checkpoint(&decoderless_checkpoint(5), 1.0).unwrap();
    assert_eq!(model.mode, ServeMode::NoDecoder);
    let server = start_server(model, |_| {});
    let addr = server.addr();

    let (status, body) = get(addr, "/readyz").unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8(body).unwrap().contains("degraded-no-decoder"));

    let (status, resp) = post(addr, "/assign", &sample_body(INPUT_DIM, 3, 9)).unwrap().unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(resp).unwrap();
    assert!(text.contains(r#""mode":"degraded-no-decoder""#), "{text}");
    assert!(text.contains(r#""q":["#), "{text}");
    assert!(!text.contains("recon_error"), "{text}");
    server.shutdown();
    server.join();
}

#[test]
fn centroid_only_mode_serves_latent_vectors() {
    let mut ck = sample_checkpoint(6);
    // Poison the encoder: the ladder must drop to centroid-only.
    let id = ck
        .store
        .iter()
        .find(|(_, n, _)| *n == format!("mlp{INPUT_DIM}x3.l0.w"))
        .map(|(id, _, _)| id)
        .unwrap();
    ck.store.get_mut(id).set(0, 0, f32::NAN);
    let model = InferenceModel::from_checkpoint(&ck, 1.0).unwrap();
    assert_eq!(model.mode, ServeMode::CentroidOnly);
    let latent = model.latent_dim();

    let server = start_server(model, |_| {});
    let addr = server.addr();
    assert_eq!(discover_input_dim(addr), Some(latent));
    let (status, resp) = post(addr, "/assign", &sample_body(latent, 2, 10)).unwrap().unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(resp).unwrap();
    assert!(text.contains(r#""mode":"degraded-centroid-only""#), "{text}");
    assert!(text.contains(r#""dist":"#), "{text}");
    assert!(!text.contains(r#""q":["#), "{text}");
    server.shutdown();
    server.join();
}

#[test]
fn compute_deadline_zero_rejects_with_503() {
    let server = start_server(sample_model(7), |c| c.deadline_ms = 0);
    let addr = server.addr();

    let (status, resp) = post(addr, "/assign", &sample_body(INPUT_DIM, 2, 11)).unwrap().unwrap();
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&resp));
    assert!(String::from_utf8(resp).unwrap().contains("deadline"));
    // Health endpoints don't run compute and stay green.
    assert_eq!(get(addr, "/healthz").unwrap().0, 200);
    let stats = server.stats();
    assert!(stats.deadline_expired >= 1);
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_endpoint_drains_to_joinable_exit() {
    let server = start_server(sample_model(8), |_| {});
    let addr = server.addr();

    let (status, body) = post(addr, "/shutdown", b"").unwrap().unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8(body).unwrap().contains("draining"));
    let stats = server.join(); // must not hang
    assert_eq!(stats.caught_panics, 0);
}

#[test]
fn metrics_is_strict_exposition_and_statz_stays_compatible() {
    let server = start_server(sample_model(30), |_| {});
    let addr = server.addr();

    // Generate some traffic so the latency histogram has samples.
    for seed in 0..4 {
        let (status, _) = post(addr, "/assign", &sample_body(INPUT_DIM, 3, 100 + seed)).unwrap().unwrap();
        assert_eq!(status, 200);
    }
    let (status, _) = post(addr, "/assign", b"definitely,not,numbers\n").unwrap().unwrap();
    assert_eq!(status, 400);

    let (status, body) = get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    let exp = adec_obs::prom::check_exposition(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(exp.type_of("adec_serve_served_total"), Some("counter"));
    assert_eq!(exp.type_of("adec_serve_request_seconds"), Some("histogram"));
    assert_eq!(exp.type_of("adec_serve_queue_depth"), Some("histogram"));
    // Each server owns its counters, so other test servers running
    // concurrently in this process cannot move these: the values are
    // exact. The scrape counts itself only after rendering its body.
    assert_eq!(exp.sample("adec_serve_served_total"), Some(4.0), "{text}");
    assert_eq!(
        exp.sample("adec_serve_served_full_total"),
        Some(4.0),
        "{text}"
    );
    assert_eq!(
        exp.sample("adec_serve_client_errors_total"),
        Some(1.0),
        "{text}"
    );
    assert_eq!(
        exp.sample("adec_serve_request_seconds_count"),
        Some(5.0),
        "{text}"
    );
    assert_eq!(
        exp.sample("adec_serve_assign_eval_seconds_count"),
        Some(5.0),
        "{text}"
    );

    // /statz keeps its exact pre-telemetry shape and per-instance values.
    let (status, body) = get(addr, "/statz").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let Json::Obj(entries) = &doc else {
        panic!("/statz is not an object: {doc:?}")
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    let mut want: Vec<&str> = STATZ_COUNTERS.to_vec();
    want.extend([
        "model_version",
        "reload_generation",
        "replicas_live",
        "replicas",
    ]);
    assert_eq!(keys, want);
    let count = |key: &str| doc.get(key).and_then(Json::as_u64);
    assert_eq!(
        count("served"),
        Some(5),
        "the four assigns and the /metrics scrape"
    );
    assert_eq!(count("client_errors"), Some(1));
    assert_eq!(count("caught_panics"), Some(0));

    server.shutdown();
    server.join();
}

#[test]
fn metrics_stays_servable_while_draining() {
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Duration;

    // One worker, generous read deadline: a stalled connection pins the
    // worker long enough for scrapes to queue up behind it.
    let server = start_server(sample_model(31), |c| {
        c.replicas = 1;
        c.read_deadline_ms = 1_500;
    });
    let addr = server.addr();

    // Pin the single worker on a connection that never completes a head.
    let mut stall = TcpStream::connect(addr).unwrap();
    stall.write_all(b"GET /he").unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // These land in the queue and will only be routed after the drain
    // flag is up.
    let scrape = std::thread::spawn(move || get(addr, "/metrics").unwrap());
    let ready = std::thread::spawn(move || get(addr, "/readyz").unwrap());
    std::thread::sleep(Duration::from_millis(200));
    server.shutdown();

    let (metrics_status, metrics_body) = scrape.join().unwrap();
    let (ready_status, _) = ready.join().unwrap();
    assert_eq!(ready_status, 503, "/readyz must refuse while draining");
    assert_eq!(metrics_status, 200, "/metrics must keep serving while draining");
    let text = String::from_utf8(metrics_body).unwrap();
    adec_obs::prom::check_exposition(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));

    drop(stall);
    server.join();
}

#[test]
fn responses_are_bitwise_deterministic() {
    let server = start_server(sample_model(9), |_| {});
    let addr = server.addr();
    let body = sample_body(INPUT_DIM, 8, 12);
    let (s1, r1) = post(addr, "/assign", &body).unwrap().unwrap();
    let (s2, r2) = post(addr, "/assign", &body).unwrap().unwrap();
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(r1, r2, "identical requests must produce identical bytes");
    server.shutdown();
    server.join();
}

#[test]
fn bad_body_details_are_valid_json() {
    let server = start_server(sample_model(32), |_| {});
    let addr = server.addr();
    // The offending CSV field is quoted into the 400 detail; quotes and
    // backslashes in it must come back escaped.
    for (bad, field) in [
        (&b"1,\"x,3"[..], "'\"x'"),
        (&b"1,a\\q,3"[..], "'a\\q'"),
        (&b"{\"json\":\"not csv\"}"[..], "'{\"json\":\"not csv\"}'"),
    ] {
        let (status, resp) = post(addr, "/assign", bad).unwrap().unwrap();
        assert_eq!(status, 400);
        let text = String::from_utf8(resp).unwrap();
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("bad-body"),
            "{text}"
        );
        let detail = doc.get("detail").and_then(Json::as_str).unwrap();
        assert!(detail.ends_with(field), "{detail}");
    }
    server.shutdown();
    server.join();
}

/// `ServeStats` by `/statz` key.
fn stats_by_key(s: &ServeStats) -> [(&'static str, u64); 12] {
    let [full, no_decoder, centroid_only] = s.served_by_tier;
    [
        ("served", s.served),
        ("rejected_busy", s.rejected_busy),
        ("client_errors", s.client_errors),
        ("disconnects", s.disconnects),
        ("deadline_expired", s.deadline_expired),
        ("caught_panics", s.caught_panics),
        ("served_full", full),
        ("served_no_decoder", no_decoder),
        ("served_centroid_only", centroid_only),
        ("respawns", s.respawns),
        ("reloads", s.reloads),
        ("reloads_refused", s.reloads_refused),
    ]
}

#[test]
fn each_server_reports_only_its_own_counts() {
    let servers = [
        start_server(sample_model(33), |_| {}),
        start_server(sample_model(34), |_| {}),
    ];
    // Different traffic per server, so any process-wide sum would show:
    // (valid bodies, malformed bodies, unknown paths).
    let traffic = [(4u64, 1u64, 0u64), (1, 3, 2)];
    for (server, &(ok, bad, missing)) in servers.iter().zip(&traffic) {
        let addr = server.addr();
        for seed in 0..ok {
            let (status, _) = post(addr, "/assign", &sample_body(INPUT_DIM, 2, seed))
                .unwrap()
                .unwrap();
            assert_eq!(status, 200);
        }
        for _ in 0..bad {
            let (status, _) = post(addr, "/assign", b"not,numbers\n").unwrap().unwrap();
            assert_eq!(status, 400);
        }
        for _ in 0..missing {
            assert_eq!(get(addr, "/nope").unwrap().0, 404);
        }
    }
    for (server, &(ok, bad, missing)) in servers.into_iter().zip(&traffic) {
        let addr = server.addr();
        let (status, body) = get(addr, "/statz").unwrap();
        assert_eq!(status, 200);
        let statz = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let metrics = scrape_metrics(addr).unwrap_or_else(|e| panic!("{e}"));
        server.shutdown();
        let joined = stats_by_key(&server.join());
        let count = |key: &str| statz.get(key).and_then(Json::as_u64).unwrap();
        assert_eq!(count("served"), ok);
        assert_eq!(count("served_full"), ok);
        assert_eq!(count("client_errors"), bad + missing);
        for (key, (joined_key, joined_value)) in STATZ_COUNTERS.iter().zip(joined) {
            assert_eq!(*key, joined_key);
            // /metrics also counts the /statz request before it; join()
            // also counts the /metrics scrape.
            let (on_metrics, on_join) = if *key == "served" { (1, 2) } else { (0, 0) };
            let name = format!("adec_serve_{key}_total");
            assert_eq!(
                metrics.sample(&name),
                Some((count(key) + on_metrics) as f64),
                "{name}"
            );
            assert_eq!(joined_value, count(key) + on_join, "join() {key}");
        }
    }
    let global = adec_obs::global().snapshot();
    let names = global
        .counters
        .iter()
        .map(|(n, _)| n)
        .chain(global.histograms.iter().map(|(n, _)| n));
    for name in names {
        assert!(
            !name.starts_with("adec_serve_"),
            "{name} is on the process-global registry"
        );
    }
}
