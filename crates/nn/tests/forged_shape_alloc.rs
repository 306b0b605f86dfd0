//! A forged tensor shape must fail without allocating for it.
//!
//! The payload walker checks a tensor's length against its frame before it
//! reads it, and grows the tensor only as its bytes arrive, so a shape
//! claiming far more data than the file holds fails typed and costs
//! nothing, in the embedded store and in an optimizer slot table, through
//! both in-memory decoders and both file loads. The check reads the
//! process's peak virtual size (`VmPeak`, Linux), which every thread
//! moves: this file holds one test so that no other test runs beside it.

// Test code: unwraps are the assertions themselves here.
#![allow(clippy::unwrap_used, clippy::panic)]

use adec_nn::checkpoint::reseal_checksum;
use adec_nn::io::write_store;
use adec_nn::{Activation, Checkpoint, CheckpointError, Mlp, OptState, Optimizer, ParamStore, Sgd};
use adec_tensor::{Matrix, SeedRng};
use std::path::Path;

/// Bytes before the payload: magic, version, length, CRC.
const HEADER_LEN: usize = 24;

/// Rows and cols of a forged tensor: 2^28 elements, the largest shape
/// either table accepts, i.e. 1 GiB of `f32` in a file of a few hundred
/// bytes.
const FORGED_SIDE: u32 = 1 << 14;

/// The process's peak virtual size in KiB, where the platform reports it.
fn vm_peak_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmPeak:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// `bytes` with the `u32` pair at `at` set to the forged shape, resealed
/// so the checksum passes.
fn forge_shape(bytes: &[u8], at: usize) -> Vec<u8> {
    let mut forged = bytes.to_vec();
    for side in [at, at + 4] {
        forged
            .get_mut(side..side + 4)
            .unwrap()
            .copy_from_slice(&FORGED_SIDE.to_le_bytes());
    }
    assert!(reseal_checksum(&mut forged));
    forged
}

const ENTRY_POINTS: [&str; 4] = ["decode", "decode_weights", "load", "load_weights"];

/// `bytes` through the in-memory decoders, and `file`, which holds them,
/// through the file loads.
fn all_four(bytes: &[u8], file: &Path) -> [Result<Checkpoint, CheckpointError>; 4] {
    [
        Checkpoint::decode(bytes),
        Checkpoint::decode_weights(bytes),
        Checkpoint::load(file),
        Checkpoint::load_weights(file).map(|(ck, _)| ck),
    ]
}

#[test]
fn forged_shapes_fail_typed_without_allocating_for_them() {
    let mut rng = SeedRng::new(5);
    let mut store = ParamStore::new();
    Mlp::new(&mut store, &[5, 4, 2], Activation::Relu, Activation::Linear, &mut rng);
    let grads: Vec<_> = store
        .iter()
        .map(|(id, _, m)| (id, Matrix::full(m.rows(), m.cols(), 0.5)))
        .collect();
    let mut sgd = Sgd::new(0.01, 0.9);
    sgd.step_grads(&mut store.clone(), &grads);
    let ck = Checkpoint {
        phase: "dec".into(),
        iter: 1,
        rng: rng.export_state(),
        store: store.clone(),
        opts: vec![OptState::capture_sgd(&sgd)],
        extra: vec![],
        profile: None,
    };
    let bytes = ck.encode().unwrap();

    // Payload: phase (u32 length + "dec"), iter, four RNG words, the
    // Box–Muller flag and value, the store blob's u64 length; the blob.
    let blob_at = HEADER_LEN + 4 + 3 + 8 + 32 + 5 + 8;
    let mut blob = Vec::new();
    write_store(&store, &mut blob).unwrap();
    // Blob: magic, count, the first name's length and bytes; its shape.
    let first_name = store.iter().next().unwrap().1.len();
    let store_shape_at = blob_at + 8 + 4 + 4 + first_name;
    // After the blob: optimizer count, SGD tag, lr, slot count, the first
    // slot's flag; its shape.
    let slot_shape_at = blob_at + blob.len() + 4 + 1 + 4 + 4 + 1;
    assert_eq!(bytes.get(slot_shape_at - 1), Some(&1), "first slot is present");

    let dir = std::env::temp_dir().join(format!("adec-forged-shape-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store_file = dir.join("store.ckpt");
    let slot_file = dir.join("slot.ckpt");
    let forged_store = forge_shape(&bytes, store_shape_at);
    let forged_slot = forge_shape(&bytes, slot_shape_at);
    std::fs::write(&store_file, &forged_store).unwrap();
    std::fs::write(&slot_file, &forged_slot).unwrap();

    // Warm up: the decoders' own small allocations, and the file loads'
    // read window, are made once here, on the intact bytes.
    let intact_file = dir.join("intact.ckpt");
    std::fs::write(&intact_file, &bytes).unwrap();
    for result in all_four(&bytes, &intact_file) {
        result.unwrap();
    }
    let before = vm_peak_kib();

    for (name, result) in ENTRY_POINTS.iter().zip(all_four(&forged_store, &store_file)) {
        match result {
            Err(CheckpointError::Malformed(msg)) => {
                assert!(msg.starts_with("parameter store:"), "{name}: {msg}");
            }
            other => panic!("{name}, forged store shape: expected Malformed, got {other:?}"),
        }
    }
    for (name, result) in ENTRY_POINTS.iter().zip(all_four(&forged_slot, &slot_file)) {
        match result {
            Err(CheckpointError::Truncated) => {}
            other => panic!("{name}, forged slot shape: expected Truncated, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    if let (Some(before), Some(after)) = (before, vm_peak_kib()) {
        // Allocating either forged tensor would raise the peak by 1 GiB.
        let grown_mib = after.saturating_sub(before) / 1024;
        assert!(grown_mib < 256, "peak virtual size grew {grown_mib} MiB on forged shapes");
    }
}
