//! Kernel-layer benchmark: packed/register-tiled gemm (all three
//! transpose variants) against the retained naive references, plus the
//! fused elementwise ops, at small / medium / paper shapes; and the serve
//! path's gemm, `matmul` (packs `B` on every call) against `matmul_packed`
//! (`B` packed once, as `adec serve` holds its weights), at one and
//! sixteen rows through the paper-tier 500 → 2000 layer.
//!
//! Emits `BENCH_kernels.json` at the repository root with ns/op and
//! GFLOP/s per entry and the packed-vs-naive speedup per gemm shape.
//! Each packed gemm is timed at every instruction-set level this CPU runs
//! (`Isa::available()`); every entry records the level it ran at as
//! `"isa"`, and the document records the detected level.
//! `ADEC_SIZE` (small | medium | paper) bounds how many of the shape
//! tiers run: every size runs `small`, `medium` (the speedup the
//! acceptance gate reads is the medium tier), `serve_m1` and `serve_m16`;
//! `paper` adds the paper-scale encoder shape. `ADEC_THREADS` is honoured
//! by the kernels themselves and recorded in the JSON.

// Experiment-harness code: indices range over the experiment's own
// fixed dimensions, and a panic is an acceptable failure mode here.
#![allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]

use adec_bench::HarnessCfg;
use adec_datagen::Size;
use adec_tensor::kernels::{
    add_bias_act, matmul, matmul_a_bt, matmul_a_bt_naive, matmul_at_b, matmul_at_b_naive,
    matmul_naive, matmul_packed, row_lerp, set_isa_override, softmax_rows, FusedAct, Isa, PackedB,
};
use adec_tensor::{configured_threads, Matrix, SeedRng};
use std::hint::black_box;
use std::time::Instant;

/// Best-of-three mean per-call time in nanoseconds (one untimed warm-up).
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / f64::from(iters));
    }
    best * 1e9
}

struct Entry {
    name: String,
    tier: &'static str,
    isa: Isa,
    shape: Vec<usize>,
    ns_per_op: f64,
    gflops: f64,
    speedup_vs_naive: Option<f64>,
}

impl Entry {
    fn json(&self) -> String {
        let shape = self
            .shape
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let speedup = match self.speedup_vs_naive {
            Some(s) => format!(",\"speedup_vs_naive\":{s:.3}"),
            None => String::new(),
        };
        format!(
            "{{\"name\":\"{}\",\"tier\":\"{}\",\"isa\":\"{}\",\"shape\":[{}],\"ns_per_op\":{:.0},\"gflops\":{:.4}{}}}",
            self.name, self.tier, self.isa, shape, self.ns_per_op, self.gflops, speedup
        )
    }
}

/// Benchmarks the three packed gemm variants at every available
/// instruction-set level, and their naive references, at one `m × k × n`
/// tier.
fn gemm_tier(
    tier: &'static str,
    m: usize,
    k: usize,
    n: usize,
    iters: u32,
    naive_iters: u32,
    entries: &mut Vec<Entry>,
) {
    let mut rng = SeedRng::new(42);
    let a = Matrix::randn(m, k, 0.0, 1.0, &mut rng);
    let b = Matrix::randn(k, n, 0.0, 1.0, &mut rng);
    let at = Matrix::randn(k, m, 0.0, 1.0, &mut rng);
    let bt = Matrix::randn(n, k, 0.0, 1.0, &mut rng);
    let flops = (2 * m * k * n) as f64;

    type Variant<'a> = (&'static str, Box<dyn Fn() -> Matrix + 'a>, Box<dyn Fn() -> Matrix + 'a>);
    let variants: Vec<Variant> = vec![
        (
            "matmul",
            Box::new(|| matmul(&a, &b)),
            Box::new(|| matmul_naive(&a, &b)),
        ),
        (
            "matmul_at_b",
            Box::new(|| matmul_at_b(&at, &b)),
            Box::new(|| matmul_at_b_naive(&at, &b)),
        ),
        (
            "matmul_a_bt",
            Box::new(|| matmul_a_bt(&a, &bt)),
            Box::new(|| matmul_a_bt_naive(&a, &bt)),
        ),
    ];
    for (name, packed, naive) in variants {
        let ns_naive = time_ns(naive_iters, || {
            black_box(naive());
        });
        for &isa in Isa::available() {
            set_isa_override(isa);
            let ns_packed = time_ns(iters, || {
                black_box(packed());
            });
            println!(
                "{tier:<7} {name:<12} {m}x{k}x{n} {isa:<6}: packed {:>10.1} ns ({:.2} GFLOP/s), naive {:>10.1} ns, speedup {:.2}x",
                ns_packed,
                flops / ns_packed,
                ns_naive,
                ns_naive / ns_packed
            );
            entries.push(Entry {
                name: name.to_string(),
                tier,
                isa,
                shape: vec![m, k, n],
                ns_per_op: ns_packed,
                gflops: flops / ns_packed,
                speedup_vs_naive: Some(ns_naive / ns_packed),
            });
        }
        set_isa_override(Isa::detected());
        entries.push(Entry {
            name: format!("{name}_naive"),
            tier,
            isa: Isa::active(),
            shape: vec![m, k, n],
            ns_per_op: ns_naive,
            gflops: flops / ns_naive,
            speedup_vs_naive: None,
        });
    }
}

/// Benchmarks the serve path's gemm at one `m × k × n` tier and every
/// available level: `matmul`, which packs `B` on every call, against
/// `matmul_packed` over a `B` packed once outside the timed loop.
fn serve_tier(tier: &'static str, m: usize, k: usize, n: usize, iters: u32, entries: &mut Vec<Entry>) {
    let mut rng = SeedRng::new(44);
    let a = Matrix::randn(m, k, 0.0, 1.0, &mut rng);
    let b = Matrix::randn(k, n, 0.0, 1.0, &mut rng);
    let packed = PackedB::new(&b);
    let flops = (2 * m * k * n) as f64;
    for &isa in Isa::available() {
        set_isa_override(isa);
        let per_call = time_ns(iters, || {
            black_box(matmul(black_box(&a), black_box(&b)));
        });
        let once = time_ns(iters, || {
            black_box(matmul_packed(black_box(&a), black_box(&packed)));
        });
        println!(
            "{tier:<9} {m}x{k}x{n} {isa:<6}: matmul {per_call:>10.1} ns, matmul_packed {once:>10.1} ns ({:.2}x)",
            per_call / once
        );
        for (name, ns) in [("matmul", per_call), ("matmul_packed", once)] {
            entries.push(Entry {
                name: name.to_string(),
                tier,
                isa,
                shape: vec![m, k, n],
                ns_per_op: ns,
                gflops: flops / ns,
                speedup_vs_naive: None,
            });
        }
    }
    set_isa_override(Isa::detected());
}

/// Benchmarks the fused elementwise kernels at one `rows × cols` tier.
fn fused_tier(tier: &'static str, rows: usize, cols: usize, iters: u32, entries: &mut Vec<Entry>) {
    let mut rng = SeedRng::new(43);
    let x = Matrix::randn(rows, cols, 0.0, 1.0, &mut rng);
    let y = Matrix::randn(rows, cols, 0.0, 1.0, &mut rng);
    let bias: Vec<f32> = (0..cols).map(|_| rng.normal(0.0, 1.0)).collect();
    let t: Vec<f32> = (0..rows).map(|_| rng.uniform(0.0, 1.0)).collect();
    let elems = (rows * cols) as f64;

    type Fused<'a> = (&'static str, f64, Box<dyn Fn() -> Matrix + 'a>);
    let ops: Vec<Fused> = vec![
        // Rough per-element flop counts, for a comparable GFLOP/s column.
        ("add_bias_relu", 2.0, Box::new(|| add_bias_act(&x, &bias, FusedAct::Relu))),
        ("add_bias_tanh", 6.0, Box::new(|| add_bias_act(&x, &bias, FusedAct::Tanh))),
        ("softmax_rows", 8.0, Box::new(|| softmax_rows(&x))),
        ("row_lerp", 3.0, Box::new(|| row_lerp(&x, &y, &t))),
    ];
    for (name, flops_per_elem, f) in ops {
        let ns = time_ns(iters, || {
            black_box(f());
        });
        println!(
            "{tier:<7} {name:<12} {rows}x{cols}: {ns:>10.1} ns ({:.2} GFLOP/s)",
            elems * flops_per_elem / ns
        );
        entries.push(Entry {
            name: name.to_string(),
            tier,
            isa: Isa::active(),
            shape: vec![rows, cols],
            ns_per_op: ns,
            gflops: elems * flops_per_elem / ns,
            speedup_vs_naive: None,
        });
    }
}

fn main() {
    let cfg = HarnessCfg::from_env();
    let mut entries = Vec::new();

    println!(
        "== kernel benchmarks (ADEC_THREADS={}, isa={}) ==",
        configured_threads(),
        Isa::detected()
    );
    gemm_tier("small", 32, 64, 32, 400, 400, &mut entries);
    fused_tier("small", 64, 128, 400, &mut entries);
    gemm_tier("medium", 256, 512, 256, 8, 3, &mut entries);
    fused_tier("medium", 256, 512, 50, &mut entries);
    // One and sixteen served rows through the paper-tier 500 → 2000 layer.
    serve_tier("serve_m1", 1, 500, 2000, 40, &mut entries);
    serve_tier("serve_m16", 16, 500, 2000, 20, &mut entries);
    if matches!(cfg.size, Size::Paper) {
        // The paper encoder's widest layer: batch 256, 2000 → 500.
        gemm_tier("paper", 256, 2000, 500, 3, 1, &mut entries);
        fused_tier("paper", 256, 2000, 20, &mut entries);
    }

    let body = entries.iter().map(Entry::json).collect::<Vec<_>>().join(",\n  ");
    let size = match cfg.size {
        Size::Small => "small",
        Size::Medium => "medium",
        Size::Paper => "paper",
    };
    let json = format!(
        "{{\n\"schema\":\"adec-bench-kernels/v1\",\n\"size\":\"{size}\",\n\"threads\":{},\n\"isa\":\"{}\",\n\"entries\":[\n  {}\n]\n}}\n",
        configured_threads(),
        Isa::detected(),
        body
    );
    // Repo root, next to the other BENCH_/RESULTS artifacts.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_kernels.json");
    std::fs::write(&path, json).expect("write BENCH_kernels.json");
    println!("wrote {}", path.display());

    let medium = entries
        .iter()
        .find(|e| e.name == "matmul" && e.tier == "medium" && e.isa == Isa::detected())
        .expect("medium gemm entry");
    println!(
        "medium gemm speedup vs naive ({}): {:.2}x",
        medium.isa,
        medium.speedup_vs_naive.unwrap_or(0.0)
    );
}
