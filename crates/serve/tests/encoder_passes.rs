//! The kernel work of one full-tier `/assign`. It runs one encoder pass:
//! the drift sentinel reduces the embedding the response was computed
//! from and does not embed the request a second time. It packs no weight:
//! the model packed its served weights once, when it was built. Both are
//! counted with the kernel layer's process-global counters, so each test
//! of this binary holds one lock while it counts, and no other kernel
//! work runs in its process.

#![allow(clippy::panic, clippy::unwrap_used)]

mod common;

use adec_loadgen::client;
use adec_serve::{InferenceModel, ServeMode};
use adec_tensor::kernels::NR;
use std::sync::{Mutex, MutexGuard};

/// Held by each test for as long as it reads the counters.
static COUNTERS: Mutex<()> = Mutex::new(());

fn counting() -> MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Kernel dispatches so far in this process, serial and parallel.
fn dispatches() -> u64 {
    adec_obs::counter("adec_pool_dispatch_serial_total").get()
        + adec_obs::counter("adec_pool_dispatch_parallel_total").get()
}

/// Values packed into gemm `B` panels so far in this process.
fn packed_values() -> u64 {
    adec_obs::counter("adec_kernel_packed_b_values_total").get()
}

/// Kernel dispatches and packed values one full-tier `/assign` of `body`
/// costs on a fresh server over `model`, counted until the server closes
/// the socket.
fn assign_cost(model: InferenceModel, body: &[u8]) -> (u64, u64) {
    assert_eq!(model.mode, ServeMode::Full);
    let handle = common::start_server(model, |_| {});
    let before = (dispatches(), packed_values());
    match client::post(handle.addr(), "/assign", body) {
        Ok(Some((200, resp))) => {
            let text = String::from_utf8_lossy(&resp);
            assert!(text.contains(r#""mode":"full""#), "not a full-tier answer: {text}");
        }
        other => panic!("/assign gave {other:?}"),
    }
    let used = (dispatches() - before.0, packed_values() - before.1);
    handle.shutdown();
    assert_eq!(handle.join().caught_panics, 0);
    used
}

#[test]
fn drift_sentinel_adds_no_kernel_dispatch_to_an_assign() {
    let _counting = counting();
    let profiled = common::profiled_checkpoint(7);
    let mut stripped = profiled.clone();
    stripped.profile = None;
    let with_sentinel = InferenceModel::from_checkpoint(profiled, 1.0).unwrap();
    let without_sentinel = InferenceModel::from_checkpoint(stripped, 1.0).unwrap();
    assert!(with_sentinel.profile().is_some() && without_sentinel.profile().is_none());

    let body = common::sample_body(common::INPUT_DIM, 16, 3);
    let (with, _) = assign_cost(with_sentinel, &body);
    let (without, _) = assign_cost(without_sentinel, &body);
    assert!(without > 0, "a full-tier answer runs the encoder and the decoder");
    assert_eq!(
        with, without,
        "the sentinel cost {} extra kernel dispatches: it re-ran the encoder",
        with.saturating_sub(without)
    );
}

#[test]
fn served_weights_are_packed_once_at_load_and_never_per_request() {
    let _counting = counting();
    let ck = common::profiled_checkpoint(7);
    // The encoder and the decoder are served; the critic bystander is not.
    let served = [
        format!("mlp{}x{}.", common::INPUT_DIM, common::LATENT_DIM),
        format!("mlp{}x{}.", common::LATENT_DIM, common::INPUT_DIM),
    ];
    let padded_panels: usize = ck
        .store
        .iter()
        .filter(|(_, name, _)| name.ends_with(".w") && served.iter().any(|p| name.starts_with(p)))
        .map(|(_, _, w)| w.rows() * w.cols().div_ceil(NR) * NR)
        .sum();

    let before = packed_values();
    let model = InferenceModel::from_checkpoint(ck, 1.0).unwrap();
    assert_eq!(
        packed_values() - before,
        padded_panels as u64,
        "the model build must pack exactly the served layers' panels"
    );

    let body = common::sample_body(common::INPUT_DIM, 16, 3);
    let (dispatched, packed) = assign_cost(model, &body);
    assert!(dispatched > 0, "a full-tier answer runs the encoder and the decoder");
    assert_eq!(packed, 0, "a 16-row /assign packed {packed} weight values");
}
