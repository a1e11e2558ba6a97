//! Tape-based reverse-mode automatic differentiation for the RAPID
//! reproduction.
//!
//! The paper trains several small neural re-rankers (Bi-LSTM, GRU,
//! transformer encoders, per-topic LSTMs with self-attention) end-to-end
//! with a cross-entropy loss. Mature GPU frameworks are not available in
//! this environment (the calibration hint is "candle/tch immature for full
//! training pipeline"), so this crate implements exact-gradient training
//! from scratch:
//!
//! * [`Tape`] — a flat arena of graph nodes recorded during the forward
//!   pass; [`Var`] is an index into it. Each node stores its value, an op
//!   tag ([`op::Op`]) naming how it was computed, and its parents.
//! * [`ParamStore`] — named trainable parameters living *outside* the
//!   tape. A fresh tape is built per training step; parameter leaves
//!   share the store's values instead of copying them, and gradients are
//!   accumulated back into the store. Only nodes that some parameter
//!   reaches get a gradient (see [`Tape::backward`]).
//! * [`optim`] — SGD and Adam. Adam carries an always-on non-finite
//!   gradient guard that aborts the run naming the offending parameter
//!   instead of corrupting every weight it touches.
//! * [`loss`] — numerically stable binary cross-entropy with logits,
//!   MSE, and the pairwise logistic loss used by DESA.
//! * [`diag`] — training diagnostics: per-epoch per-parameter norm
//!   traces ([`diag::TrainDiag`], gated by `RAPID_DIAG`) and the
//!   non-finite fail-fast scans the training loops call.
//! * [`gradcheck`] — central-difference verification used by the tests
//!   of this crate and of `rapid-nn`.
//! * [`Checkpoint`] / [`Checkpointer`] — versioned, CRC-protected,
//!   atomically-written training checkpoints carrying parameters,
//!   optimizer state, and the epoch cursor, so an interrupted run can
//!   resume bit-identically.
//!
//! # Tape reuse and epoch safety
//!
//! Training loops reuse one tape across batches via [`Tape::clear`],
//! which keeps the arena's capacity but invalidates every [`Var`]
//! handed out before the clear. Each `clear` bumps the tape's *epoch*
//! ([`Tape::epoch`]); in debug builds every `Var` carries the epoch it
//! was recorded in and `value`/`backward` assert the epochs
//! match, so a stale handle panics with both epochs instead of silently
//! reading whatever node refilled its slot. Release builds carry no
//! epoch field — a `Var` stays a plain index. Whole-graph structural
//! validation (shape consistency, dangling parents) lives in the
//! `rapid-check` crate's `TapeCheck` extension trait.
//!
//! # Example
//!
//! ```
//! use rapid_autograd::{ParamStore, Tape};
//! use rapid_tensor::Matrix;
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", Matrix::from_rows(&[&[2.0], &[1.0]]));
//!
//! let mut tape = Tape::new();
//! let x = tape.constant(Matrix::row_vector(&[3.0, 4.0]));
//! let wv = tape.param(&store, w);
//! let y = tape.matmul(x, wv); // 1x1: 2*3 + 1*4 = 10
//! let loss = tape.sum_all(y);
//! tape.backward(loss, &mut store);
//!
//! assert_eq!(tape.value(y).get(0, 0), 10.0);
//! assert_eq!(store.grad(w).as_slice(), &[3.0, 4.0]);
//! ```

pub mod diag;
pub mod gradcheck;
pub mod loss;
pub mod op;
pub mod optim;
mod params;
#[cfg(feature = "obs-profile")]
mod profile;
mod serialize;
mod tape;

pub use params::{ParamId, ParamStore};
pub use serialize::{Checkpoint, CheckpointConfig, Checkpointer};
pub use tape::{Tape, Var};
