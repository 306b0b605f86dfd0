//! One encoder pass per `/assign`: the drift sentinel reduces the
//! embedding the response was computed from; it does not embed the
//! request a second time. Counted with the kernel pool's process-global
//! dispatch counters, so this binary holds this one test and no other
//! kernel work runs in its process.

#![allow(clippy::panic, clippy::unwrap_used)]

mod common;

use adec_loadgen::client;
use adec_serve::{InferenceModel, ServeMode};

/// Kernel dispatches so far in this process, serial and parallel.
fn dispatches() -> u64 {
    adec_obs::counter("adec_pool_dispatch_serial_total").get()
        + adec_obs::counter("adec_pool_dispatch_parallel_total").get()
}

/// Kernel dispatches one full-tier `/assign` of `body` costs on a fresh
/// server over `model`, counted until the server closes the socket.
fn dispatches_per_assign(model: InferenceModel, body: &[u8]) -> u64 {
    assert_eq!(model.mode, ServeMode::Full);
    let handle = common::start_server(model, |_| {});
    let before = dispatches();
    match client::post(handle.addr(), "/assign", body) {
        Ok(Some((200, resp))) => {
            let text = String::from_utf8_lossy(&resp);
            assert!(text.contains(r#""mode":"full""#), "not a full-tier answer: {text}");
        }
        other => panic!("/assign gave {other:?}"),
    }
    let used = dispatches() - before;
    handle.shutdown();
    assert_eq!(handle.join().caught_panics, 0);
    used
}

#[test]
fn drift_sentinel_adds_no_kernel_dispatch_to_an_assign() {
    let profiled = common::profiled_checkpoint(7);
    let mut stripped = profiled.clone();
    stripped.profile = None;
    let with_sentinel = InferenceModel::from_checkpoint(&profiled, 1.0).unwrap();
    let without_sentinel = InferenceModel::from_checkpoint(&stripped, 1.0).unwrap();
    assert!(with_sentinel.profile().is_some() && without_sentinel.profile().is_none());

    let body = common::sample_body(common::INPUT_DIM, 16, 3);
    let with = dispatches_per_assign(with_sentinel, &body);
    let without = dispatches_per_assign(without_sentinel, &body);
    assert!(without > 0, "a full-tier answer runs the encoder and the decoder");
    assert_eq!(
        with, without,
        "the sentinel cost {} extra kernel dispatches: it re-ran the encoder",
        with.saturating_sub(without)
    );
}
