//! Micro-benchmarks for the numeric substrates: matmul, the Jacobi
//! eigensolver, the Hungarian matcher, k-means, soft assignment, and one
//! full autoencoder forward/backward/update step.
//!
//! A plain self-timed harness (best-of-three mean per-iteration time via
//! `std::time::Instant`), so it builds hermetically offline.

// Experiment-harness code: indices range over the experiment's own
// fixed dimensions, and a panic is an acceptable failure mode here.
#![allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]

use adec_classic::{kmeans, KMeansConfig};
use adec_core::{ArchPreset, Autoencoder};
use adec_metrics::hungarian_min_cost;
use adec_nn::{soft_assignment, Optimizer, ParamStore, Sgd, Tape};
use adec_tensor::{symmetric_eigen, Matrix, SeedRng};
use std::hint::black_box;
use std::time::Instant;

/// Times `f` over `iters` runs, three repetitions, and reports the best
/// (minimum-noise) mean per-iteration duration in microseconds.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    // One untimed warm-up run.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per_iter = start.elapsed().as_secs_f64() / f64::from(iters);
        best = best.min(per_iter);
    }
    println!("{name:<36} {:>12.1} µs/iter", best * 1e6);
}

fn bench_matmul() {
    let mut rng = SeedRng::new(1);
    let a = Matrix::randn(128, 256, 0.0, 1.0, &mut rng);
    let b = Matrix::randn(256, 128, 0.0, 1.0, &mut rng);
    bench("matmul_128x256x128", 20, || {
        black_box(a.matmul(&b));
    });
    bench("matmul_tn_128x256x128", 20, || {
        black_box(b.matmul_tn(&b));
    });
}

fn bench_eigen() {
    let mut rng = SeedRng::new(2);
    let raw = Matrix::randn(60, 60, 0.0, 1.0, &mut rng);
    let sym = raw.matmul_tn(&raw);
    bench("jacobi_eigen_60x60", 5, || {
        black_box(symmetric_eigen(&sym).ok());
    });
}

fn bench_hungarian() {
    let mut rng = SeedRng::new(3);
    let n = 64;
    let cost: Vec<Vec<i64>> = (0..n)
        .map(|_| (0..n).map(|_| rng.below(1000) as i64).collect())
        .collect();
    bench("hungarian_64x64", 20, || {
        black_box(hungarian_min_cost(&cost));
    });
}

fn bench_kmeans() {
    let mut rng = SeedRng::new(4);
    let data = Matrix::randn(400, 10, 0.0, 1.0, &mut rng);
    bench("kmeans_400x10_k10", 5, || {
        let mut r = SeedRng::new(5);
        black_box(kmeans(&data, &KMeansConfig::fast(10), &mut r));
    });
}

fn bench_soft_assignment() {
    let mut rng = SeedRng::new(6);
    let z = Matrix::randn(512, 10, 0.0, 1.0, &mut rng);
    let mu = Matrix::randn(10, 10, 0.0, 1.0, &mut rng);
    bench("soft_assignment_512x10_k10", 50, || {
        black_box(soft_assignment(&z, &mu, 1.0));
    });
}

fn bench_ae_step() {
    let mut rng = SeedRng::new(7);
    let mut store = ParamStore::new();
    let ae = Autoencoder::new(&mut store, 256, ArchPreset::Medium, &mut rng);
    let x = Matrix::randn(128, 256, 0.0, 1.0, &mut rng);
    let mut opt = Sgd::new(0.01, 0.9);
    bench("ae_fwd_bwd_step_medium_b128", 5, || {
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let z = ae.encoder.forward(&mut tape, &store, xv);
        let xhat = ae.decoder.forward(&mut tape, &store, z);
        let target = tape.leaf(x.clone());
        let loss = tape.mse(xhat, target);
        tape.backward(loss);
        opt.step(&tape, &mut store);
        black_box(tape.scalar(loss));
    });
}

fn main() {
    println!("adec micro-benchmarks (self-timed; best of 3 repetitions)");
    bench_matmul();
    bench_eigen();
    bench_hungarian();
    bench_kmeans();
    bench_soft_assignment();
    bench_ae_step();
}
