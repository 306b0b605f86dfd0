//! Property-style tests for the autodiff tape: every differentiable op is
//! checked against central finite differences on a deterministic fan of
//! random inputs, and the optimizer contracts are exercised on random
//! quadratics (hermetic replacement for the earlier proptest harness).

use adec_nn::{numeric_grad, Adam, Optimizer, ParamStore, Sgd, Tape};
use adec_tensor::kernels::FusedAct;
use adec_tensor::{Matrix, SeedRng};

/// Deterministic seed fan shared by every sweep below.
const SEEDS: [u64; 16] = [
    0, 1, 2, 3, 5, 7, 11, 42, 99, 255, 1024, 9999, 31337, 123_456, 777_777, 3_141_592,
];

fn random_matrix(seed: u64, rows: usize, cols: usize, std: f32) -> Matrix {
    let mut rng = SeedRng::new(seed);
    Matrix::randn(rows, cols, 0.0, std, &mut rng)
}

/// Finite-difference check for a unary scalar-valued tape function.
fn grads_match(build: impl Fn(&mut Tape, adec_nn::Var) -> adec_nn::Var, x: &Matrix, tol: f32) -> bool {
    let mut tape = Tape::new();
    let v = tape.grad_leaf(x.clone());
    let loss = build(&mut tape, v);
    tape.backward(loss);
    let analytic = tape.grad(v);
    let numeric = numeric_grad(
        |m| {
            let mut t = Tape::new();
            let v = t.leaf(m.clone());
            let l = build(&mut t, v);
            t.scalar(l)
        },
        x,
        1e-2,
    );
    analytic.sub(&numeric).max_abs() < tol
}

#[test]
fn pointwise_op_gradients() {
    for seed in SEEDS {
        let rows = 1 + (seed as usize % 3);
        let cols = 1 + (seed as usize % 4);
        let x = random_matrix(seed, rows, cols, 1.0);
        assert!(
            grads_match(|t, v| { let a = t.act(v, FusedAct::Sigmoid); let s = t.square(a); t.sum_all(s) }, &x, 5e-2),
            "sigmoid seed {seed}"
        );
        assert!(
            grads_match(|t, v| { let a = t.act(v, FusedAct::Tanh); let s = t.square(a); t.sum_all(s) }, &x, 5e-2),
            "tanh seed {seed}"
        );
        assert!(
            grads_match(|t, v| { let a = t.softplus(v); t.sum_all(a) }, &x, 5e-2),
            "softplus seed {seed}"
        );
        assert!(
            grads_match(|t, v| { let a = t.exp(v); t.sum_all(a) }, &x, 1e-1),
            "exp seed {seed}"
        );
        assert!(
            grads_match(|t, v| { let a = t.square(v); t.mean_all(a) }, &x, 5e-2),
            "square seed {seed}"
        );
    }
}

#[test]
fn composite_graph_gradients() {
    for seed in SEEDS {
        // A deeper random composition exercising shared subexpressions.
        let x = random_matrix(seed, 3, 3, 0.7);
        let ok = grads_match(
            |t, v| {
                let s = t.act(v, FusedAct::Sigmoid);
                let q = t.mul(s, v); // shares v
                let r = t.act(q, FusedAct::Tanh);
                let sq = t.square(r);
                t.mean_all(sq)
            },
            &x,
            5e-2,
        );
        assert!(ok, "seed {seed}");
    }
}

#[test]
fn matmul_chain_gradients() {
    for seed in SEEDS {
        let a0 = random_matrix(seed, 3, 4, 0.8);
        let w = random_matrix(seed.wrapping_add(1), 4, 2, 0.8);
        let ok = grads_match(
            move |t, v| {
                let wv = t.leaf(w.clone());
                let y = t.matmul(v, wv);
                let r = t.act(y, FusedAct::Relu);
                let s = t.square(r);
                t.sum_all(s)
            },
            &a0,
            1e-1,
        );
        assert!(ok, "seed {seed}");
    }
}

#[test]
fn softmax_ce_gradient_and_bounds() {
    for seed in SEEDS {
        let k = 2 + (seed as usize % 3);
        let x = random_matrix(seed, 3, k, 1.5);
        // Uniform target keeps the check smooth everywhere.
        let targets = Matrix::full(3, k, 1.0 / k as f32);
        let t2 = targets.clone();
        let ok = grads_match(move |t, v| t.softmax_cross_entropy(v, &t2), &x, 5e-2);
        assert!(ok, "seed {seed}");
        // CE against any row-stochastic target is ≥ 0 and finite.
        let mut tape = Tape::new();
        let v = tape.leaf(x);
        let loss = tape.softmax_cross_entropy(v, &targets);
        let val = tape.scalar(loss);
        assert!(val.is_finite() && val >= 0.0, "seed {seed}");
    }
}

#[test]
fn dec_kl_gradients_random_shapes() {
    for seed in SEEDS {
        let n = 2 + (seed as usize % 6);
        let k = 2 + (seed as usize % 2);
        let z0 = random_matrix(seed, n, 3, 1.0);
        let mu0 = random_matrix(seed.wrapping_add(7), k, 3, 1.0);
        let q = adec_nn::soft_assignment(&z0, &mu0, 1.0);
        let p = adec_nn::target_distribution(&q);
        let mu = mu0.clone();
        let p2 = p.clone();
        let ok = grads_match(
            move |t, v| {
                let m = t.leaf(mu.clone());
                t.dec_kl(v, m, &p2, 1.0)
            },
            &z0,
            1e-1,
        );
        assert!(ok, "seed {seed}");
    }
}

#[test]
fn sgd_descends_random_quadratics() {
    for seed in SEEDS {
        // f(w) = ‖w − target‖²: loss decreases monotonically for small lr.
        let target = random_matrix(seed, 1, 4, 2.0);
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 4));
        let mut opt = Sgd::new(0.1, 0.0);
        let mut last = f32::INFINITY;
        for _ in 0..30 {
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let t = tape.leaf(target.clone());
            let loss = tape.mse(wv, t);
            let val = tape.scalar(loss);
            assert!(val <= last + 1e-5, "SGD increased the loss: {last} -> {val} (seed {seed})");
            last = val;
            tape.backward(loss);
            opt.step(&tape, &mut store);
        }
        assert!(last < 0.1 * target.sq_norm().max(1e-3), "seed {seed}");
    }
}

#[test]
fn adam_reaches_random_targets() {
    for seed in SEEDS {
        let target = random_matrix(seed, 1, 3, 1.0);
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 3));
        let mut opt = Adam::new(0.1);
        for _ in 0..200 {
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let t = tape.leaf(target.clone());
            let loss = tape.mse(wv, t);
            tape.backward(loss);
            opt.step(&tape, &mut store);
        }
        assert!(store.get(w).sub(&target).max_abs() < 0.05, "seed {seed}");
    }
}

#[test]
fn step_grads_equals_step_for_same_gradients() {
    for seed in SEEDS {
        // Feeding the tape's own gradients through step_grads must produce
        // the identical update as step.
        let target = random_matrix(seed, 1, 3, 1.0);
        let mut store_a = ParamStore::new();
        let wa = store_a.register("w", Matrix::zeros(1, 3));
        let mut store_b = ParamStore::new();
        let wb = store_b.register("w", Matrix::zeros(1, 3));
        let mut opt_a = Sgd::new(0.05, 0.9);
        let mut opt_b = Sgd::new(0.05, 0.9);
        for _ in 0..5 {
            let mut tape = Tape::new();
            let wv = tape.param(&store_a, wa);
            let t = tape.leaf(target.clone());
            let loss = tape.mse(wv, t);
            tape.backward(loss);
            let grad = tape.grad(wv);
            opt_a.step(&tape, &mut store_a);
            opt_b.step_grads(&mut store_b, &[(wb, grad)]);
            assert!(store_a.get(wa).sub(store_b.get(wb)).max_abs() < 1e-6, "seed {seed}");
        }
    }
}
