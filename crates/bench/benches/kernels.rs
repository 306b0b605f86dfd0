//! Kernel-layer benchmark: packed/register-tiled gemm (all three
//! transpose variants) against the retained naive references, plus the
//! fused elementwise ops (bias-ReLU forward and backward, bias-tanh,
//! softmax, lerp), at small / medium / paper shapes; the serve
//! path's gemm, `matmul` (packs `B` on every call) against `matmul_packed`
//! (`B` packed once, as `adec serve` holds its weights), at one and
//! sixteen rows through the paper-tier 500 → 2000 layer; and the
//! checkpoint checksum, `crc32`, over an 8 MiB buffer (tier `payload`).
//!
//! Emits `BENCH_kernels.json` at the repository root with ns/op and
//! GFLOP/s per entry (GB/s, `gb_per_s`, for `crc32`, which does no
//! floating-point work) and the packed-vs-naive speedup per gemm shape.
//! Each packed gemm is timed at every instruction-set level this CPU runs
//! (`Isa::available()`); every entry records the level it ran at as
//! `"isa"`, and the document records the detected level. An entry's
//! `ns_per_op` is the median over 9 repetitions, each sized from a warm-up
//! call to run for at least 10 ms. The repetitions run in rounds over all
//! entries, so each entry's nine are spread across the whole run: a host
//! that turns slow for a second slows one repetition of many entries, not
//! every repetition of one.
//! `ADEC_SIZE` (small | medium | paper) bounds how many of the shape
//! tiers run: every size runs `small`, `medium` (the speedup the
//! acceptance gate reads is the medium tier), `serve_m1`, `serve_m16` and
//! the packed gemms of `paper` (the paper encoder's widest layer, whose
//! packed `B` outgrows L2); `paper` adds that tier's naive references and
//! fused ops. `ADEC_THREADS` is honoured by the kernels themselves and
//! recorded in the JSON. `crc32` has no per-level clone and records
//! `scalar`.

// Experiment-harness code: indices range over the experiment's own
// fixed dimensions, and a panic is an acceptable failure mode here.
#![allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]

use adec_bench::HarnessCfg;
use adec_datagen::Size;
use adec_nn::checkpoint::crc32;
use adec_tensor::kernels::{
    add_bias_act, add_bias_act_backward, matmul, matmul_a_bt, matmul_a_bt_naive, matmul_at_b,
    matmul_at_b_naive, matmul_naive, matmul_packed, row_lerp, set_isa_override, softmax_rows,
    FusedAct, Isa, PackedB,
};
use adec_tensor::{configured_threads, Matrix, SeedRng};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Repetitions per timed entry; the entry is their median.
const REPS: usize = 9;
/// Minimum wall time of one repetition, in seconds.
const REP_MIN_S: f64 = 0.010;

type Call<'a> = Rc<dyn Fn() + 'a>;

/// A timed call: `f`'s result goes through `black_box`.
fn call<'a, T>(f: impl Fn() -> T + 'a) -> Call<'a> {
    Rc::new(move || {
        black_box(f());
    })
}

/// The work one call does, which sets an entry's rate column.
#[derive(Clone, Copy)]
enum Work {
    /// Floating-point operations, reported as GFLOP/s (`gflops`).
    Flops(f64),
    /// Bytes read, reported as GB/s (`gb_per_s`).
    Bytes(f64),
}

impl Work {
    /// The rate at `ns` per call: GFLOP/s or GB/s (units per ns), and its
    /// JSON key and display unit.
    fn rate(self, ns: f64) -> (f64, &'static str, &'static str) {
        match self {
            Work::Flops(flops) => (flops / ns, "gflops", "GFLOP/s"),
            Work::Bytes(bytes) => (bytes / ns, "gb_per_s", "GB/s"),
        }
    }
}

/// One entry to time: what it records, its work, and the call.
struct Job<'a> {
    name: String,
    tier: &'static str,
    isa: Isa,
    shape: Vec<usize>,
    work: Work,
    call: Call<'a>,
}

impl Job<'_> {
    /// The entry's JSON object, timed at `ns` per call.
    fn json(&self, ns: f64, speedup_vs_naive: Option<f64>) -> String {
        let shape = self
            .shape
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let speedup = match speedup_vs_naive {
            Some(s) => format!(",\"speedup_vs_naive\":{s:.3}"),
            None => String::new(),
        };
        let (rate, key, _) = self.work.rate(ns);
        format!(
            "{{\"name\":\"{}\",\"tier\":\"{}\",\"isa\":\"{}\",\"shape\":[{}],\"ns_per_op\":{:.0},\"{key}\":{rate:.4}{}}}",
            self.name, self.tier, self.isa, shape, ns, speedup
        )
    }

    /// Mean seconds per call over `calls` calls at the job's level.
    fn seconds(&self, calls: u32) -> f64 {
        set_isa_override(self.isa);
        let start = Instant::now();
        for _ in 0..calls {
            (self.call)();
        }
        start.elapsed().as_secs_f64() / f64::from(calls)
    }
}

/// Each job's median per-call time in nanoseconds. An untimed warm-up
/// call and a timed call size each job's repetition to at least
/// [`REP_MIN_S`]; then [`REPS`] rounds each time one repetition of every
/// job.
fn time_ns(jobs: &[Job]) -> Vec<f64> {
    let calls: Vec<u32> = jobs
        .iter()
        .map(|job| {
            job.seconds(1);
            (REP_MIN_S / job.seconds(1).max(1e-9)).ceil().max(1.0) as u32
        })
        .collect();
    let mut reps = vec![Vec::with_capacity(REPS); jobs.len()];
    for _ in 0..REPS {
        for ((job, &calls), reps) in jobs.iter().zip(&calls).zip(&mut reps) {
            reps.push(job.seconds(calls));
        }
    }
    set_isa_override(Isa::detected());
    reps.into_iter()
        .map(|mut reps| {
            reps.sort_by(f64::total_cmp);
            reps[REPS / 2] * 1e9
        })
        .collect()
}

/// The operands of one `m × k × n` gemm tier.
struct Gemm {
    tier: &'static str,
    a: Matrix,
    b: Matrix,
    at: Matrix,
    bt: Matrix,
}

impl Gemm {
    fn new(tier: &'static str, m: usize, k: usize, n: usize, seed: u64) -> Gemm {
        let mut rng = SeedRng::new(seed);
        let a = Matrix::randn(m, k, 0.0, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 0.0, 1.0, &mut rng);
        let at = Matrix::randn(k, m, 0.0, 1.0, &mut rng);
        let bt = Matrix::randn(n, k, 0.0, 1.0, &mut rng);
        Gemm { tier, a, b, at, bt }
    }

    fn job<'a>(&self, name: &str, isa: Isa, call: Call<'a>) -> Job<'a> {
        let (m, k, n) = (self.a.rows(), self.a.cols(), self.b.cols());
        Job {
            name: name.to_string(),
            tier: self.tier,
            isa,
            shape: vec![m, k, n],
            work: Work::Flops((2 * m * k * n) as f64),
            call,
        }
    }

    /// The three packed gemm variants at every available level and, if
    /// `with_naive`, their naive references.
    fn variants<'a>(&'a self, with_naive: bool, jobs: &mut Vec<Job<'a>>) {
        let (a, b, at, bt) = (&self.a, &self.b, &self.at, &self.bt);
        let variants: [(&str, Call<'a>, Call<'a>); 3] = [
            ("matmul", call(|| matmul(a, b)), call(|| matmul_naive(a, b))),
            (
                "matmul_at_b",
                call(|| matmul_at_b(at, b)),
                call(|| matmul_at_b_naive(at, b)),
            ),
            (
                "matmul_a_bt",
                call(|| matmul_a_bt(a, bt)),
                call(|| matmul_a_bt_naive(a, bt)),
            ),
        ];
        for (name, packed, naive) in variants {
            for &isa in Isa::available() {
                jobs.push(self.job(name, isa, Rc::clone(&packed)));
            }
            if with_naive {
                jobs.push(self.job(&format!("{name}_naive"), Isa::detected(), naive));
            }
        }
    }

    /// The serve path's gemm at every available level: `matmul`, which
    /// packs `B` on every call, and `matmul_packed` over a `B` packed once
    /// here, outside the timed calls.
    fn serve<'a>(&'a self, jobs: &mut Vec<Job<'a>>) {
        let (a, b) = (&self.a, &self.b);
        let packed = PackedB::new(b);
        let per_call = call(move || matmul(black_box(a), black_box(b)));
        let once = call(move || matmul_packed(black_box(a), black_box(&packed)));
        for &isa in Isa::available() {
            jobs.push(self.job("matmul", isa, Rc::clone(&per_call)));
            jobs.push(self.job("matmul_packed", isa, Rc::clone(&once)));
        }
    }
}

/// The operands of one `rows × cols` fused-op tier.
struct Fused {
    tier: &'static str,
    x: Matrix,
    y: Matrix,
    bias: Vec<f32>,
    t: Vec<f32>,
}

impl Fused {
    fn new(tier: &'static str, rows: usize, cols: usize) -> Fused {
        let mut rng = SeedRng::new(43);
        let x = Matrix::randn(rows, cols, 0.0, 1.0, &mut rng);
        let y = Matrix::randn(rows, cols, 0.0, 1.0, &mut rng);
        let bias: Vec<f32> = (0..cols).map(|_| rng.normal(0.0, 1.0)).collect();
        let t: Vec<f32> = (0..rows).map(|_| rng.uniform(0.0, 1.0)).collect();
        Fused {
            tier,
            x,
            y,
            bias,
            t,
        }
    }

    /// The fused elementwise kernels, with rough per-element flop counts
    /// for a comparable GFLOP/s column. The fused bias-activation counts
    /// with `FusedAct::flops_per_element`, as the tape profiler does, and
    /// its backward, like the tape's, with twice that.
    fn ops<'a>(&'a self, jobs: &mut Vec<Job<'a>>) {
        let (x, y, bias, t) = (&self.x, &self.y, &self.bias, &self.t);
        let (relu, tanh) = (FusedAct::Relu, FusedAct::Tanh);
        let relu_y = add_bias_act(x, bias, relu);
        let per_elem = |act: FusedAct| act.flops_per_element() as f64;
        let ops: [(&str, f64, Call<'a>); 5] = [
            (
                "add_bias_relu",
                per_elem(relu),
                call(move || add_bias_act(x, bias, relu)),
            ),
            (
                "add_bias_relu_backward",
                2.0 * per_elem(relu),
                call(move || add_bias_act_backward(y, &relu_y, relu)),
            ),
            (
                "add_bias_tanh",
                per_elem(tanh),
                call(move || add_bias_act(x, bias, tanh)),
            ),
            ("softmax_rows", 8.0, call(|| softmax_rows(x))),
            ("row_lerp", 3.0, call(|| row_lerp(x, y, t))),
        ];
        for (name, flops_per_elem, call) in ops {
            jobs.push(Job {
                name: name.to_string(),
                tier: self.tier,
                isa: Isa::detected(),
                shape: vec![x.rows(), x.cols()],
                work: Work::Flops((x.rows() * x.cols()) as f64 * flops_per_elem),
                call,
            });
        }
    }
}

fn main() {
    let cfg = HarnessCfg::from_env();
    println!(
        "== kernel benchmarks (ADEC_THREADS={}, isa={}) ==",
        configured_threads(),
        Isa::detected()
    );
    let paper = matches!(cfg.size, Size::Paper);
    let (small, medium) = (
        Gemm::new("small", 32, 64, 32, 42),
        Gemm::new("medium", 256, 512, 256, 42),
    );
    let (fused_small, fused_medium) =
        (Fused::new("small", 64, 128), Fused::new("medium", 256, 512));
    // One and sixteen served rows through the paper-tier 500 → 2000 layer.
    let serve_m1 = Gemm::new("serve_m1", 1, 500, 2000, 44);
    let serve_m16 = Gemm::new("serve_m16", 16, 500, 2000, 44);
    // The paper encoder's widest layer: batch 256, 2000 → 500. Its packed
    // `B` (4 MB) outgrows L2, so every size times its packed gemms; its
    // naive references (up to a second per call) and fused ops run only at
    // `ADEC_SIZE=paper`.
    let paper_gemm = Gemm::new("paper", 256, 2000, 500, 42);
    let fused_paper = paper.then(|| Fused::new("paper", 256, 2000));
    // The checkpoint checksum over 8 MiB: past L2, as a served paper-tier
    // checkpoint (about 23 MB) is.
    let mut rng = SeedRng::new(45);
    let payload: Vec<u8> = (0..8 << 20).map(|_| rng.below(256) as u8).collect();

    let mut jobs = Vec::new();
    small.variants(true, &mut jobs);
    fused_small.ops(&mut jobs);
    medium.variants(true, &mut jobs);
    fused_medium.ops(&mut jobs);
    serve_m1.serve(&mut jobs);
    serve_m16.serve(&mut jobs);
    paper_gemm.variants(paper, &mut jobs);
    if let Some(fused) = &fused_paper {
        fused.ops(&mut jobs);
    }
    jobs.push(Job {
        name: "crc32".to_string(),
        tier: "payload",
        isa: Isa::Scalar,
        shape: vec![payload.len()],
        work: Work::Bytes(payload.len() as f64),
        call: call(|| crc32(black_box(&payload))),
    });

    let ns = time_ns(&jobs);
    let speedup = |i: usize| {
        let naive = format!("{}_naive", jobs[i].name);
        jobs.iter()
            .position(|j| j.tier == jobs[i].tier && j.name == naive)
            .map(|n| ns[n] / ns[i])
    };
    let mut body = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let shape = job
            .shape
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("x");
        let vs_naive = speedup(i)
            .map(|x| format!(", {x:.2}x naive"))
            .unwrap_or_default();
        let (rate, _, unit) = job.work.rate(ns[i]);
        println!(
            "{:<9} {:<22} {shape:<12} {:<6}: {:>12.1} ns ({rate:.2} {unit}){vs_naive}",
            job.tier, job.name, job.isa, ns[i]
        );
        body.push(job.json(ns[i], speedup(i)));
    }
    let body = body.join(",\n  ");
    let size = cfg.size.cli_name();
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

    let medium = jobs
        .iter()
        .position(|j| j.name == "matmul" && j.tier == "medium" && j.isa == Isa::detected())
        .expect("medium gemm entry");
    println!(
        "medium gemm speedup vs naive ({}): {:.2}x",
        jobs[medium].isa,
        speedup(medium).unwrap_or(0.0)
    );
}
