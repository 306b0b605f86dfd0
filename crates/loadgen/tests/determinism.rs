//! Two `run_load` passes with the same seed against a real in-process
//! adec-serve must produce byte-identical request schedules and identical
//! reports modulo timing — the property the CI ratchet leans on when it
//! diffs a fresh `BENCH_serve.json` against the committed snapshot.
//!
//! The reconciliation check compares the served counter of the one
//! server under test against the client's counts. Each server owns its
//! counters, so other servers in the same process cannot disturb it; only
//! traffic to this server's own address could.

// Test code: unwraps are the assertions themselves here.
#![allow(clippy::unwrap_used, clippy::panic)]

use adec_loadgen::{run_load, Arrival, LoadConfig, PayloadMix, ScheduleConfig};
use adec_nn::{Activation, Checkpoint, Mlp, ParamStore};
use adec_serve::{InferenceModel, ServerConfig, ServerHandle};
use adec_tensor::{Matrix, SeedRng};
use std::time::Duration;

const INPUT_DIM: usize = 6;
const LATENT_DIM: usize = 3;
const K: usize = 4;

/// A tiny "trained" checkpoint, registered the way the trainers register
/// parameters: encoder, decoder, centroids.
fn sample_model(seed: u64) -> InferenceModel {
    let mut rng = SeedRng::new(seed);
    let mut store = ParamStore::new();
    Mlp::new(&mut store, &[INPUT_DIM, 5, LATENT_DIM], Activation::Relu, Activation::Linear, &mut rng);
    Mlp::new(&mut store, &[LATENT_DIM, 5, INPUT_DIM], Activation::Relu, Activation::Linear, &mut rng);
    store.register("dec.centroids", Matrix::randn(K, LATENT_DIM, 0.0, 1.0, &mut rng));
    let ck = Checkpoint {
        phase: "dec".into(),
        iter: 10,
        rng: rng.export_state(),
        store,
        opts: vec![],
        extra: vec![],
        profile: None,
    };
    InferenceModel::from_checkpoint(&ck, 1.0).unwrap()
}

#[test]
fn same_seed_same_schedule_and_deterministic_report() {
    let server = ServerHandle::start(
        sample_model(21),
        ServerConfig {
            port: 0,
            replicas: 2,
            max_inflight: 8,
            deadline_ms: 5_000,
            read_deadline_ms: 400,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Modest rate with the full default mix — hostile kinds included, so
    // the determinism claim covers every body-rendering path.
    let config = LoadConfig {
        addr,
        schedule: ScheduleConfig {
            seed: 7,
            rps: 120.0,
            duration: Duration::from_millis(500),
            arrival: Arrival::Poisson,
            mix: PayloadMix::default(),
            ..ScheduleConfig::default()
        },
        concurrency: 8,
        // Drip slower than the 400ms read deadline so slow-loris jobs are
        // cut off by the server, not tolerated.
        slow_drip: Duration::from_millis(120),
        ..LoadConfig::default()
    };

    let a = run_load(&config).unwrap();
    let b = run_load(&config).unwrap();

    // Byte-identical request schedules: same hash, same counts.
    assert_eq!(a.schedule_hash, b.schedule_hash, "same seed must build the same schedule");
    assert_eq!(a.kind_counts, b.kind_counts);
    assert_eq!(a.schedule_requests, b.schedule_requests);
    assert_eq!(a.schedule_requests, 60, "120 rps for 0.5s");

    // Identical reports modulo timing: the deterministic view (schema +
    // config + schedule + outcomes; no timing, no reconcile) must match
    // byte for byte.
    assert_eq!(a.deterministic_json(), b.deterministic_json());

    // And the deterministic view is a strict prefix of the full report,
    // so a snapshot diff can ignore timing without reparsing.
    assert!(a.to_json().starts_with(
        a.deterministic_json().strip_suffix("}").unwrap()
    ));

    // Nobody else talked to the server, so the served-counter delta must
    // reconcile exactly with the client's own counts — on both runs.
    for (name, report) in [("first", &a), ("second", &b)] {
        assert!(report.reconcile.checked, "{name}: metrics scrape failed");
        assert!(
            report.reconcile.consistent,
            "{name} run out of sync with server: {}",
            report.reconcile.detail
        );
        assert!(report.outcomes.ok_200 > 0, "{name}: no valid request succeeded");
        assert_eq!(report.outcomes.retry_after_missing, 0, "{name}: 503 without Retry-After");
    }

    server.shutdown();
}
