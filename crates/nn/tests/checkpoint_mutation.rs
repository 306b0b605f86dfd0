//! Exhaustive mutation drill for the checkpoint loader.
//!
//! The in-module round-trip tests check *selected* truncation lengths and
//! bit flips; this drill is systematic: every truncation length of a real
//! checkpoint, plus seeded random single-byte flips across the whole file,
//! must yield a typed [`CheckpointError`] or (for flips the CRC cannot
//! distinguish, e.g. in ignored padding — there are none today) a valid
//! checkpoint. Nothing may panic, and a failed `load` must never leave a
//! partially-restored [`ParamStore`] behind.
//!
//! The checkpoint carries SGD and Adam state and a reference profile, so
//! mutations land in the optimizer slot tables and the profile section
//! too, and every case runs through all four entry points of the one
//! streamed walker: the in-memory [`Checkpoint::decode`] and weights-only
//! [`Checkpoint::decode_weights`], and the file loads [`Checkpoint::load`]
//! and [`Checkpoint::load_weights`], which read through a fixed window.
//! All four must agree on the error. A resealed pass recomputes the
//! checksum after each flip, so the payload walker itself meets the damage.

// Test code: unwraps are the assertions themselves here.
#![allow(clippy::unwrap_used, clippy::panic)]

use adec_nn::checkpoint::{crc32, reseal_checksum};
use adec_nn::{
    soft_assignment, Activation, Adam, Checkpoint, CheckpointError, Mlp, OptState, Optimizer,
    ParamStore, ReferenceProfile, Sgd,
};
use adec_tensor::{Matrix, SeedRng};
use std::path::PathBuf;

/// A checkpoint with some of everything: params, SGD and Adam state, RNG
/// cache, extra words, and a reference profile.
fn make_checkpoint() -> (Checkpoint, ParamStore) {
    let mut rng = SeedRng::new(77);
    // Burn a normal so the checkpoint carries a cached gaussian word.
    let _ = rng.standard_normal();
    let mut store = ParamStore::new();
    Mlp::new(&mut store, &[5, 4, 2], Activation::Relu, Activation::Linear, &mut rng);
    let mu = store.register("dec.centroids", Matrix::randn(3, 2, 0.0, 1.0, &mut rng));
    // Step both optimizers so every kind of slot table holds real data;
    // the centroids get no gradient, so each table has an absent slot.
    let grads: Vec<_> = store
        .iter()
        .filter(|&(id, _, _)| id != mu)
        .map(|(id, _, m)| (id, Matrix::randn(m.rows(), m.cols(), 0.0, 0.1, &mut rng)))
        .collect();
    let mut sgd = Sgd::new(0.01, 0.9);
    let mut adam = Adam::new(1e-3);
    let mut scratch = store.clone();
    sgd.step_grads(&mut scratch, &grads);
    adam.step_grads(&mut scratch, &grads);
    let z = Matrix::randn(24, 2, 0.0, 1.0, &mut rng);
    let q = soft_assignment(&z, store.get(mu), 1.0);
    let profile = ReferenceProfile::compute(&z, &q, store.get(mu));
    let ck = Checkpoint {
        phase: "dec".into(),
        iter: 42,
        rng: rng.export_state(),
        store: store.clone(),
        opts: vec![OptState::capture_sgd(&sgd), OptState::capture_adam(&adam)],
        extra: vec![9, 8, 7],
        profile: Some(profile),
    };
    (ck, store)
}

/// A temporary file for the file loads of one test.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> TempFile {
        TempFile(std::env::temp_dir().join(format!(
            "adec-ckpt-mutation-{tag}-{}.ckpt",
            std::process::id()
        )))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs `bytes` through all four entry points: `decode` and
/// `decode_weights` in memory, `load` and `load_weights` from `file`.
/// They must agree: the same error variant and message, or all succeed
/// with the same weights, the weights-only pair without the optimizer
/// state and `load_weights` with the CRC32 of the whole file. Returns the
/// shared result.
fn decode_all(bytes: &[u8], file: &TempFile) -> Result<Checkpoint, CheckpointError> {
    std::fs::write(&file.0, bytes).unwrap();
    let full = Checkpoint::decode(bytes);
    let results = [
        Checkpoint::decode_weights(bytes),
        Checkpoint::load(&file.0),
        Checkpoint::load_weights(&file.0).map(|(ck, crc)| {
            assert_eq!(crc, crc32(bytes), "load_weights returned another file's CRC");
            ck
        }),
    ];
    for (name, other) in ["decode_weights", "load", "load_weights"].iter().zip(&results) {
        match (&full, other) {
            (Err(a), Err(b)) => {
                assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "decode gave {a:?}, {name} gave {b:?}"
                );
                // The Display impl must be total too (it feeds CLI errors).
                assert_eq!(a.to_string(), b.to_string(), "{name}");
            }
            (Ok(a), Ok(b)) => {
                let mut a = a.clone();
                if name.ends_with("_weights") {
                    assert!(b.opts.is_empty(), "{name} kept optimizer state");
                    a.opts.clear();
                }
                assert_eq!(a.encode().unwrap(), b.encode().unwrap(), "{name}");
            }
            _ => panic!("decode gave {full:?}, {name} gave {other:?}"),
        }
    }
    full
}

/// A decode that fails must be a typed error, never a panic, and the
/// same from all four entry points. Returns the error for
/// classification. (A decode that *succeeds* under mutation is only
/// acceptable if the bytes were actually unchanged.)
fn decode_must_be_total(bytes: &[u8], original: &[u8], file: &TempFile) -> Option<CheckpointError> {
    match decode_all(bytes, file) {
        Err(e) => Some(e),
        Ok(_) => {
            assert_eq!(
                bytes, original,
                "a mutated byte stream decoded successfully"
            );
            None
        }
    }
}

#[test]
fn every_truncation_length_errors_cleanly() {
    let (ck, _) = make_checkpoint();
    let bytes = ck.encode().unwrap();
    let file = TempFile::new("truncation");
    assert!(decode_all(&bytes, &file).is_ok());
    // Every proper prefix, byte by byte — including the empty file.
    for cut in 0..bytes.len() {
        let prefix = bytes.get(..cut).unwrap();
        let err = decode_must_be_total(prefix, &bytes, &file)
            .unwrap_or_else(|| panic!("truncation to {cut} bytes decoded successfully"));
        drop(err);
    }
}

#[test]
fn seeded_single_byte_flips_error_cleanly() {
    let (ck, _) = make_checkpoint();
    let bytes = ck.encode().unwrap();
    let file = TempFile::new("flips");
    let mut rng = SeedRng::new(2024);
    let mut flips_rejected = 0usize;
    for _ in 0..500 {
        let pos = rng.below(bytes.len());
        let bit = rng.below(8) as u8;
        let mut mutated = bytes.clone();
        let byte = mutated.get_mut(pos).unwrap();
        *byte ^= 1 << bit;
        if decode_must_be_total(&mutated, &bytes, &file).is_some() {
            flips_rejected += 1;
        }
    }
    // CRC32 catches every single-bit flip in the payload; header flips
    // fail structurally. All 500 must be rejected.
    assert_eq!(flips_rejected, 500, "some single-bit flip went undetected");
}

#[test]
fn every_single_byte_zeroing_errors_cleanly() {
    // Denser than random flips: zero each byte in turn (skipping bytes
    // that are already zero, where nothing changes).
    let (ck, _) = make_checkpoint();
    let bytes = ck.encode().unwrap();
    let file = TempFile::new("zeroing");
    for pos in 0..bytes.len() {
        if bytes.get(pos).copied() == Some(0) {
            continue;
        }
        let mut mutated = bytes.clone();
        if let Some(b) = mutated.get_mut(pos) {
            *b = 0;
        }
        assert!(
            decode_must_be_total(&mutated, &bytes, &file).is_some(),
            "zeroing byte {pos} went undetected"
        );
    }
}

#[test]
fn resealed_flips_reach_the_payload_walker() {
    // Every bit of every byte, with the checksum recomputed afterwards:
    // the damage gets past the CRC, so the walker's own framing, flag and
    // bounds checks must catch what they can, identically through all four
    // entry points.
    let (ck, _) = make_checkpoint();
    let bytes = ck.encode().unwrap();
    let file = TempFile::new("resealed");
    let mut bad_slot_flags = 0usize;
    let mut overlong_fields = 0usize;
    let mut decoded = 0usize;
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            *mutated.get_mut(pos).unwrap() ^= 1 << bit;
            assert!(reseal_checksum(&mut mutated));
            match decode_all(&mutated, &file) {
                Ok(_) => decoded += 1,
                Err(CheckpointError::Malformed(msg)) if msg.starts_with("bad slot flag") => {
                    bad_slot_flags += 1;
                }
                Err(CheckpointError::Truncated) => overlong_fields += 1,
                Err(_) => {}
            }
        }
    }
    // Flips in float data decode (to other values); flag flips, and
    // lengths or shapes claiming more data than the payload holds, must
    // not.
    assert!(decoded > 0);
    assert!(bad_slot_flags > 0, "no flip reached a slot flag");
    assert!(overlong_fields > 0, "no flip forged an overlong field");
}

#[test]
fn failed_restore_never_partially_applies() {
    let (ck, template) = make_checkpoint();
    // A live store with the right names/shapes but different values.
    let mut live = ParamStore::new();
    for (_, name, value) in template.iter() {
        live.register(name.to_string(), Matrix::zeros(value.rows(), value.cols()));
    }
    let before: Vec<Vec<f32>> = live.iter().map(|(_, _, m)| m.as_slice().to_vec()).collect();

    // Break the checkpoint's store in a way only positional validation can
    // catch: swap one matrix for a wrong shape.
    let mut bad = ck.clone();
    let victim = bad.store.iter().map(|(id, _, _)| id).next().unwrap();
    *bad.store.get_mut(victim) = Matrix::zeros(1, 1);
    assert!(bad.restore_store(&mut live).is_err());

    // Nothing was written: all-or-nothing held.
    let after: Vec<Vec<f32>> = live.iter().map(|(_, _, m)| m.as_slice().to_vec()).collect();
    assert_eq!(before, after, "failed restore mutated the live store");

    // And the intact checkpoint still applies fully.
    ck.restore_store(&mut live).unwrap();
    let restored: Vec<Vec<f32>> = live.iter().map(|(_, _, m)| m.as_slice().to_vec()).collect();
    let expected: Vec<Vec<f32>> = ck.store.iter().map(|(_, _, m)| m.as_slice().to_vec()).collect();
    assert_eq!(restored, expected);
}
