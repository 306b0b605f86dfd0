//! Per-layer timings for the traced run. Each one calls a layer's public
//! functions directly, inside a span, and reports the median over a few
//! repetitions.

use crate::record::RunRecord;
use crate::spans::Tracer;
use crate::stats::median;
use adec_core::{Autoencoder, Session};
use adec_datagen::Dataset;
use adec_nn::ParamStore;
use adec_tensor::{kernels, Matrix, SeedRng};
use std::hint::black_box;
use std::time::Instant;

/// Median over `reps` repetitions of the mean seconds per call of `f`,
/// each repetition making `calls` calls.
pub fn seconds_per_call(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls.max(1) {
                f();
            }
            t0.elapsed().as_secs_f64() / calls.max(1) as f64
        })
        .collect();
    median(&samples).unwrap_or(f64::NAN)
}

/// Per-layer metric and the span it is the median duration of.
const PHASES: [(&str, &str); 7] = [
    ("datagen.generate_s", "datagen.generate"),
    ("core.session_new_s", "core.session_new"),
    ("core.pretrain_s", "core.pretrain"),
    ("core.dec_s", "core.dec"),
    ("core.idec_s", "core.idec"),
    ("core.dcn_s", "core.dcn"),
    ("core.adec_s", "core.adec"),
];

/// Reports the median seconds of each training phase's spans. A phase
/// the workload never ran reports 0.
pub fn phase_medians(tracer: &Tracer, rec: &mut RunRecord) {
    for (metric, span) in PHASES {
        rec.metric(metric, median(&tracer.seconds(span)).unwrap_or(0.0), "s");
    }
}

/// The layers under training, timed on the workload's own data and
/// pretrained model: augmentation, the full-data embedding, k-means
/// centroid init, and gemm.
pub fn training_layers(tracer: &Tracer, rec: &mut RunRecord, session: &mut Session, ds: &Dataset) {
    session.restore_pretrained();
    let side = match ds.modality {
        adec_datagen::Modality::Image { w, .. } => w,
        _ => 1,
    };
    datagen_augment(tracer, rec, &ds.data, side);
    nn_and_classic(
        tracer,
        rec,
        &session.ae,
        &session.store,
        &ds.data,
        ds.n_classes,
    );
    tensor(tracer, rec);
}

/// Gemm throughput at the trainers' shapes (batch 128, a 144→128 layer:
/// the forward product and both backward products) and latency at the
/// paper architecture's widest serving layer (500→2000) with 1 and 16
/// rows.
fn tensor(tracer: &Tracer, rec: &mut RunRecord) {
    let mut rng = SeedRng::new(0x7E45);
    let x = Matrix::randn(128, 144, 0.0, 1.0, &mut rng);
    let w = Matrix::randn(144, 128, 0.0, 0.1, &mut rng);
    let dy = Matrix::randn(128, 128, 0.0, 1.0, &mut rng);
    let flops = 2.0 * 128.0 * 144.0 * 128.0;
    let gflops = |s: f64| flops / s / 1e9;
    let fwd = tracer.span("tensor.matmul.train", || {
        seconds_per_call(7, 100, || {
            black_box(kernels::matmul(black_box(&x), black_box(&w)));
        })
    });
    let grad_w = tracer.span("tensor.matmul_at_b.train", || {
        seconds_per_call(7, 100, || {
            black_box(kernels::matmul_at_b(black_box(&x), black_box(&dy)));
        })
    });
    let grad_x = tracer.span("tensor.matmul_a_bt.train", || {
        seconds_per_call(7, 100, || {
            black_box(kernels::matmul_a_bt(black_box(&dy), black_box(&w)));
        })
    });
    rec.metric("tensor.matmul_gflops.train", gflops(fwd), "GFLOP/s");
    rec.metric("tensor.matmul_at_b_gflops.train", gflops(grad_w), "GFLOP/s");
    rec.metric("tensor.matmul_a_bt_gflops.train", gflops(grad_x), "GFLOP/s");

    let w_serve = Matrix::randn(500, 2000, 0.0, 0.05, &mut rng);
    for (rows, calls, name) in [(1, 200, "serve_m1"), (16, 20, "serve_m16")] {
        let xs = Matrix::randn(rows, 500, 0.0, 1.0, &mut rng);
        let s = tracer.span(&format!("tensor.matmul.{name}"), || {
            seconds_per_call(7, calls, || {
                black_box(kernels::matmul(black_box(&xs), black_box(&w_serve)));
            })
        });
        rec.metric(&format!("tensor.matmul_us.{name}"), s * 1e6, "us");
    }
}

/// `augment_batch` at batch 128 on rows of the workload's own images.
fn datagen_augment(tracer: &Tracer, rec: &mut RunRecord, data: &Matrix, side: usize) {
    let idx: Vec<usize> = (0..128).map(|i| i % data.rows()).collect();
    let batch = data.gather_rows(&idx);
    let cfg = adec_datagen::augment::AugmentConfig::default();
    let mut rng = SeedRng::new(0xA06);
    let s = tracer.span("datagen.augment", || {
        seconds_per_call(7, 20, || {
            black_box(adec_datagen::augment::augment_batch(
                &batch, side, side, &cfg, &mut rng,
            ));
        })
    });
    rec.metric("datagen.augment_ms_per_batch", s * 1e3, "ms");
}

/// `Autoencoder::embed` over the whole dataset (the pass every target
/// refresh makes), then the k-means centroid initialisation the
/// clustering trainers run on that embedding.
fn nn_and_classic(
    tracer: &Tracer,
    rec: &mut RunRecord,
    ae: &Autoencoder,
    store: &ParamStore,
    data: &Matrix,
    k: usize,
) {
    let calls = if data.rows() * ae.input_dim() > 200_000 {
        1
    } else {
        10
    };
    let embed = tracer.span("nn.embed_full", || {
        seconds_per_call(5, calls, || {
            black_box(ae.embed(store, black_box(data)));
        })
    });
    rec.metric("nn.embed_full_ms", embed * 1e3, "ms");
    let z = ae.embed(store, data);
    let mut rng = SeedRng::new(0xC1A5);
    let km = tracer.span("classic.kmeans", || {
        seconds_per_call(5, 2, || {
            black_box(adec_classic::kmeans(
                &z,
                &adec_classic::KMeansConfig::fast(k),
                &mut rng,
            ));
        })
    });
    rec.metric("classic.kmeans_ms", km * 1e3, "ms");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_per_call_grows_with_work() {
        let light = seconds_per_call(3, 5, || {
            black_box((0..1_000u64).sum::<u64>());
        });
        let heavy = seconds_per_call(3, 5, || {
            black_box((0..black_box(2_000_000u64)).fold(0u64, |a, b| a ^ b.wrapping_mul(31)));
        });
        assert!(light > 0.0 && heavy > light);
    }
}
