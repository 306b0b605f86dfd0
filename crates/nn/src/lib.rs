//! # adec-nn
//!
//! A from-scratch neural-network substrate: tape-based reverse-mode
//! automatic differentiation over [`adec_tensor::Matrix`], fully-connected
//! layers, the loss functions the ADEC paper needs (MSE, BCE-with-logits,
//! the DEC soft-assignment/KL objective with the analytic gradients of the
//! paper's Theorems 2–3), and SGD-with-momentum / Adam optimizers.
//!
//! ## Programming model
//!
//! Persistent parameters live in a [`ParamStore`]. Every training step
//! builds a fresh [`Tape`]: parameters are *bound* into the tape with
//! [`Tape::param`], the forward graph is built with tape methods, and
//! [`Tape::backward`] populates gradients. An optimizer then reads the
//! recorded parameter bindings and updates the store.
//!
//! ```
//! use adec_nn::{Activation, Mlp, ParamStore, Sgd, Optimizer, Tape};
//! use adec_tensor::{Matrix, SeedRng};
//!
//! let mut rng = SeedRng::new(0);
//! let mut store = ParamStore::new();
//! let net = Mlp::new(&mut store, &[4, 8, 2], Activation::Relu, Activation::Linear, &mut rng);
//! let x = Matrix::randn(16, 4, 0.0, 1.0, &mut rng);
//! let y = Matrix::zeros(16, 2);
//!
//! let mut opt = Sgd::new(0.1, 0.9);
//! for _ in 0..10 {
//!     let mut tape = Tape::new();
//!     let xv = tape.leaf(x.clone());
//!     let out = net.forward(&mut tape, &store, xv);
//!     let target = tape.leaf(y.clone());
//!     let loss = tape.mse(out, target);
//!     tape.backward(loss);
//!     opt.step(&tape, &mut store);
//! }
//! ```

// Numeric kernels index with explicit loop counters throughout; the
// iterator rewrites clippy suggests are less readable for the math here.
#![allow(clippy::needless_range_loop)]
// Tape `Var` handles and `ParamId`s are indices valid by construction
// (issued by the arena they index into), and the dense kernels bound their
// loops by matrix shape; checked access would only hide the invariant.
#![allow(clippy::indexing_slicing)]
// A narrowing or sign-changing cast must say why it keeps its value: each
// one carries an allow on its statement or smallest item, with its bound.
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod grad_check;
pub mod io;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod profile;
pub mod profiler;
pub mod store;
pub mod tape;

pub use checkpoint::{Checkpoint, CheckpointError, OptState};
pub use profile::ReferenceProfile;
pub use grad_check::numeric_grad;
pub use layers::{Activation, Dense, Mlp};
pub use loss::{hard_labels, kl_divergence, soft_assignment, target_distribution};
pub use optim::{Adam, Optimizer, Sgd};
pub use store::{ParamId, ParamStore};
pub use tape::{IrOp, IrParam, Tape, TapeIr, TapeIrNode, Var};
