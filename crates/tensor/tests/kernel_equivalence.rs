//! Kernel-equivalence property tests: every packed gemm variant must
//! equal its retained naive reference **bit for bit** (0 ULP) on seeded
//! random matrices — ragged shapes (1×N, N×1, sizes that don't divide the
//! MR/NR tile), shapes that straddle the row driver's `A` block, and the
//! training and serving shapes — at every instruction-set level this CPU
//! runs and every in-process thread count swept here. The fused
//! elementwise ops must match their references as documented per test.
//!
//! The naive references accumulate each output with one `f32` walking `k`
//! in ascending order, as the packed kernels do, so any reassociation in
//! the packed path (a second accumulator, a `k`-split) fails these tests.

// Test code: exact float comparison, bounded indexing, and panics are the
// assertions here.
#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::indexing_slicing)]

use adec_tensor::kernels::{
    add_bias_act, axpy, matmul, matmul_a_bt, matmul_a_bt_naive, matmul_at_b, matmul_at_b_naive,
    matmul_naive, matmul_packed, row_lerp, set_isa_override, softmax_rows_detailed, FusedAct, Isa,
    PackedB,
};
use adec_tensor::pool::set_thread_override;
use adec_tensor::{Matrix, SeedRng};

/// Distance in units-in-the-last-place between two finite floats, with
/// the sign bit folded onto a monotone integer line so +0 and −0 are 0
/// apart.
fn ulp_diff(a: f32, b: f32) -> u32 {
    if a == b {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u32::MAX;
    }
    fn key(x: f32) -> i64 {
        let bits = x.to_bits();
        if bits & 0x8000_0000 != 0 {
            -((bits & 0x7fff_ffff) as i64)
        } else {
            bits as i64
        }
    }
    (key(a) - key(b)).unsigned_abs().min(u64::from(u32::MAX)) as u32
}

fn max_ulp(a: &Matrix, b: &Matrix) -> u32 {
    assert_eq!(a.shape(), b.shape(), "shape mismatch in ULP comparison");
    a.as_slice()
        .iter()
        .zip(b.as_slice().iter())
        .map(|(&x, &y)| ulp_diff(x, y))
        .max()
        .unwrap_or(0)
}

/// Shape grid: tiny, ragged (1×N, N×1, inner dim 1), odd sizes straddling
/// the MR=4 / NR=16 tiles, and block-aligned sizes.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 17, 5),
    (17, 1, 5),
    (5, 9, 1),
    (3, 3, 3),
    (4, 16, 16),
    (5, 17, 15),
    (31, 33, 29),
    (64, 48, 80),
    (65, 127, 33),
    (2, 300, 2),
];

/// Rows of `A` the gemm row driver packs per block (its private `MC`).
const MC: usize = 64;

/// Shapes that straddle the driver's `A` block: one row short of a block,
/// exactly one, one row over, and two blocks plus a ragged tile, with
/// ragged `k` and `n`. Each crosses the pool's parallel gate, so the
/// thread sweep splits it into row chunks that start off the `MR` and `MC`
/// boundaries (at 3 threads, 133 rows split 45 + 44 + 44).
const BLOCK_SHAPES: &[(usize, usize, usize)] = &[
    (MC - 1, 37, 29),
    (MC, 33, 35),
    (MC + 1, 70, 17),
    (2 * MC + 5, 45, 50),
];

/// Thread counts swept in-process; 3 starts row chunks off the `MR` and
/// `MC` boundaries.
const THREADS: [usize; 4] = [1, 2, 3, 4];

#[test]
fn matrix_methods_delegate_to_kernels_exactly() {
    let mut rng = SeedRng::new(4);
    let a = Matrix::randn(19, 23, 0.0, 1.0, &mut rng);
    let b = Matrix::randn(23, 11, 0.0, 1.0, &mut rng);
    assert_eq!(a.matmul(&b), matmul(&a, &b));
    let c = Matrix::randn(19, 7, 0.0, 1.0, &mut rng);
    assert_eq!(a.matmul_tn(&c), matmul_at_b(&a, &c));
    let d = Matrix::randn(9, 23, 0.0, 1.0, &mut rng);
    assert_eq!(a.matmul_nt(&d), matmul_a_bt(&a, &d));
}

#[test]
fn gemm_bit_identical_across_thread_counts() {
    // 64³ = 262 144 scalar ops — comfortably past the parallel gate, so
    // the multi-worker runs genuinely split rows across threads.
    let mut rng = SeedRng::new(5);
    let a = Matrix::randn(64, 64, 0.0, 1.0, &mut rng);
    let b = Matrix::randn(64, 64, 0.0, 1.0, &mut rng);
    let bt = Matrix::randn(64, 64, 0.0, 1.0, &mut rng);

    set_thread_override(1);
    let serial = (matmul(&a, &b), matmul_at_b(&a, &b), matmul_a_bt(&a, &bt));
    for threads in [2usize, 3, 4] {
        set_thread_override(threads);
        assert_eq!(matmul(&a, &b), serial.0, "matmul threads={threads}");
        assert_eq!(matmul_at_b(&a, &b), serial.1, "matmul_at_b threads={threads}");
        assert_eq!(matmul_a_bt(&a, &bt), serial.2, "matmul_a_bt threads={threads}");
    }
    set_thread_override(0);
}

/// The training and serving gemm shapes (`m × k × n`): a 128-row
/// minibatch through the small-tier layers; one and sixteen serve rows
/// through the paper-tier 500 → 2000 layer; the ragged serve layers
/// 2000 → 10 (encoder out) and 10 → 2000 (decoder in) at sixteen rows;
/// and one row through the small-tier 144 → 128 and 64 → 10 layers.
const TRAIN_SERVE_SHAPES: &[(usize, usize, usize)] = &[
    (128, 144, 128),
    (128, 128, 64),
    (1, 500, 2000),
    (16, 500, 2000),
    (16, 2000, 10),
    (16, 10, 2000),
    (1, 144, 128),
    (1, 64, 10),
];

#[test]
fn packed_gemm_matches_naive_bitwise_at_every_isa_level_and_thread_count() {
    type Gemm<'a> = Box<dyn Fn() -> Matrix + 'a>;
    let mut rng = SeedRng::new(15);
    for &(m, k, n) in SHAPES.iter().chain(BLOCK_SHAPES).chain(TRAIN_SERVE_SHAPES) {
        let a = Matrix::randn(m, k, 0.0, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 0.0, 1.0, &mut rng);
        let at = Matrix::randn(k, m, 0.0, 1.0, &mut rng);
        let bt = Matrix::randn(n, k, 0.0, 1.0, &mut rng);
        // Packed once, outside the level and thread loops, as a served
        // weight is: the panels must serve every level and thread count.
        let packed = PackedB::new(&b);
        let ab = matmul_naive(&a, &b);
        let variants: [(&str, Gemm, Matrix); 4] = [
            ("matmul", Box::new(|| matmul(&a, &b)), ab.clone()),
            ("matmul_packed", Box::new(|| matmul_packed(&a, &packed)), ab),
            (
                "matmul_at_b",
                Box::new(|| matmul_at_b(&at, &b)),
                matmul_at_b_naive(&at, &b),
            ),
            (
                "matmul_a_bt",
                Box::new(|| matmul_a_bt(&a, &bt)),
                matmul_a_bt_naive(&a, &bt),
            ),
        ];
        for (name, gemm, naive) in variants {
            for &isa in Isa::available() {
                set_isa_override(isa);
                for threads in THREADS {
                    set_thread_override(threads);
                    let ulp = max_ulp(&gemm(), &naive);
                    assert_eq!(
                        ulp, 0,
                        "{name} {m}x{k}x{n}: {isa} at {threads} threads vs naive: {ulp} ULP"
                    );
                }
            }
        }
    }
    set_isa_override(Isa::detected());
    set_thread_override(0);
}

#[test]
fn fused_ops_bit_identical_across_thread_counts() {
    let mut rng = SeedRng::new(6);
    // 300×300 = 90 000 elements — past the parallel gate for row kernels.
    let x = Matrix::randn(300, 300, 0.0, 2.0, &mut rng);
    let y = Matrix::randn(300, 300, 0.0, 2.0, &mut rng);
    let bias: Vec<f32> = (0..300).map(|_| rng.normal(0.0, 1.0)).collect();
    let t: Vec<f32> = (0..300).map(|_| rng.uniform(0.0, 1.0)).collect();

    set_thread_override(1);
    let serial_act = add_bias_act(&x, &bias, FusedAct::Tanh);
    let serial_lerp = row_lerp(&x, &y, &t);
    for threads in [2usize, 3, 4] {
        set_thread_override(threads);
        assert_eq!(add_bias_act(&x, &bias, FusedAct::Tanh), serial_act, "threads={threads}");
        assert_eq!(row_lerp(&x, &y, &t), serial_lerp, "threads={threads}");
    }
    set_thread_override(0);
}

#[test]
fn fused_add_bias_act_matches_unfused_composition() {
    let mut rng = SeedRng::new(7);
    for &(rows, cols) in &[(1usize, 13usize), (13, 1), (7, 31)] {
        let x = Matrix::randn(rows, cols, 0.0, 2.0, &mut rng);
        let bias: Vec<f32> = (0..cols).map(|_| rng.normal(0.0, 1.0)).collect();
        for act in [FusedAct::Identity, FusedAct::Relu, FusedAct::Sigmoid, FusedAct::Tanh] {
            let fused = add_bias_act(&x, &bias, act);
            let mut unfused = x.add_row_broadcast(&bias);
            unfused.map_inplace(|v| act.eval(v));
            let ulp = max_ulp(&fused, &unfused);
            assert!(ulp == 0, "{act:?} {rows}x{cols}: {ulp} ULP");
        }
    }
}

#[test]
fn fused_softmax_matches_reference_within_4_ulp() {
    let mut rng = SeedRng::new(8);
    for &(rows, cols) in &[(1usize, 9usize), (17, 3), (40, 10)] {
        let x = Matrix::randn(rows, cols, 0.0, 3.0, &mut rng);
        let sm = softmax_rows_detailed(&x);
        // Reference 1: independent re-implementation of the documented
        // kernel order (max → f32 denom → log-space exp) — must agree to
        // ≤ 4 ULP. Reference 2: f64 textbook softmax — loose accuracy bound.
        for i in 0..rows {
            let row = x.row(i);
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for &v in row {
                denom += (v - m).exp();
            }
            let ld = denom.ln();
            let exact: f64 = row.iter().map(|&v| f64::from(v).exp()).sum();
            let mut s = 0.0f32;
            for (j, &v) in row.iter().enumerate() {
                let reference = (v - m - ld).exp();
                let got = sm.probs.get(i, j);
                assert!(
                    ulp_diff(got, reference) <= 4,
                    "softmax[{i}][{j}]: {got} vs {reference}"
                );
                let truth = (f64::from(v).exp() / exact) as f32;
                assert!(
                    (got - truth).abs() <= 1e-6 + 1e-4 * truth.abs(),
                    "softmax[{i}][{j}] off true value: {got} vs {truth}"
                );
                s += got;
            }
            assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
            assert_eq!(sm.row_max[i], m);
            assert_eq!(sm.log_denom[i], ld);
        }
    }
}

#[test]
fn fused_row_lerp_and_axpy_match_references() {
    let mut rng = SeedRng::new(9);
    let a = Matrix::randn(11, 6, 0.0, 1.0, &mut rng);
    let b = Matrix::randn(11, 6, 0.0, 1.0, &mut rng);
    let t: Vec<f32> = (0..11).map(|_| rng.uniform(0.0, 1.0)).collect();
    let fused = row_lerp(&a, &b, &t);
    let reference = Matrix::from_fn(11, 6, |r, c| t[r] * a.get(r, c) + (1.0 - t[r]) * b.get(r, c));
    assert_eq!(max_ulp(&fused, &reference), 0);

    let x: Vec<f32> = (0..64).map(|_| rng.normal(0.0, 1.0)).collect();
    let mut y: Vec<f32> = (0..64).map(|_| rng.normal(0.0, 1.0)).collect();
    let reference: Vec<f32> = y.iter().zip(x.iter()).map(|(&yi, &xi)| yi + 0.37 * xi).collect();
    axpy(0.37, &x, &mut y);
    assert_eq!(y, reference);
}

#[test]
fn zero_and_identity_structure_preserved() {
    // Structured inputs whose products are exactly representable.
    let eye = Matrix::eye(37);
    let mut rng = SeedRng::new(10);
    let a = Matrix::randn(37, 37, 0.0, 1.0, &mut rng);
    assert_eq!(a.matmul(&eye), a);
    assert_eq!(eye.matmul(&a), a);
    let z = Matrix::zeros(37, 37);
    assert_eq!(a.matmul(&z).sum(), 0.0);
}
