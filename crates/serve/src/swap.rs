//! Zero-downtime checkpoint hot-swap.
//!
//! `POST /admin/reload` replaces the serving model without dropping a
//! request. The state machine:
//!
//! ```text
//!          read bytes        parse + CRC        build candidate
//! Idle ──▶ Loading ────────▶ Parsed ──────────▶ Built
//!            │ read error      │ corrupt/truncated │ shape mismatch
//!            ▼                 ▼                   ▼
//!         Rejected          Rejected            Rejected
//!                                                  │ ok
//!            graph check + golden-list agreement   ▼
//! Live ◀── Arc swap ◀────────────────────────── Validated
//!            (atomic)          │ graph error / drifted order
//!                              ▼
//!                           Rejected (live model untouched)
//! ```
//!
//! The candidate is built **entirely outside the live slot** — a fresh
//! [`ServeModel`] restored from the artifact's bytes — so every
//! rejection leaves the live model byte-identical by construction;
//! there is no partially-applied state to roll back. Only a candidate
//! that passed all three validations (checkpoint CRC footer,
//! `rapid-check` graph validation, golden-list agreement with the live
//! model) is [`Arc`]-swapped in, which in-flight requests never
//! observe: they hold their own clone of the previous `Arc` and finish
//! on it.
//!
//! The `ckpt.corrupt` fault site flips a byte in the loaded artifact
//! copy, making the rejection path chaos-testable without damaging the
//! file on disk.

use std::path::Path;
use std::sync::{Arc, RwLock};

use rapid_autograd::Checkpoint;

use crate::model::ServeModel;

/// External user ids whose served lists anchor the golden-list
/// agreement check. Fixed and arbitrary; what matters is that live and
/// candidate models rank the *same* deterministic candidate pools.
pub const GOLDEN_USERS: [u64; 8] = [3, 11, 42, 77, 123, 999, 4_242, 100_003];

/// Minimum mean pairwise-order agreement (1 = identical order, 0.5 ≈
/// unrelated) between the candidate's and the live model's golden
/// lists. A legitimate successor checkpoint is a fine-tuned
/// continuation and lands near 1; catastrophically broken parameters
/// (NaN scores, garbage ordering) fall toward chance.
pub const GOLDEN_FLOOR: f64 = 0.5;

/// The swappable slot the server reads its model through. Readers take
/// a cheap `Arc` clone; a swap replaces the `Arc` atomically under the
/// write lock, so in-flight requests finish on the model they started
/// with.
pub struct ModelSlot {
    inner: RwLock<Arc<ServeModel>>,
}

impl ModelSlot {
    /// A slot serving `model`.
    pub fn new(model: ServeModel) -> Self {
        Self {
            inner: RwLock::new(Arc::new(model)),
        }
    }

    /// The current model (an `Arc` clone; hold it for the whole
    /// request).
    pub fn get(&self) -> Arc<ServeModel> {
        match self.inner.read() {
            Ok(g) => Arc::clone(&g),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    fn replace(&self, next: Arc<ServeModel>) {
        let mut g = match self.inner.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *g = next;
    }
}

/// Why a hot-swap was rejected (the live model is untouched in every
/// case).
#[derive(Debug)]
pub enum SwapError {
    /// The artifact could not be read.
    Read(std::io::Error),
    /// The bytes failed checkpoint-v2 parsing (truncation, bad magic,
    /// CRC-footer mismatch).
    Corrupt(String),
    /// The checkpoint parsed but does not restore into this config's
    /// model (missing/shape-mismatched parameters).
    Model(String),
    /// The candidate's recorded inference graph failed `rapid-check`.
    Graph(String),
    /// The candidate could not serve the golden lists at all.
    Golden(String),
    /// The candidate served golden lists too far from the live model's.
    Drifted {
        /// Measured mean pairwise-order agreement.
        score: f64,
        /// The [`GOLDEN_FLOOR`] it had to clear.
        floor: f64,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::Read(e) => write!(f, "artifact read failed: {e}"),
            SwapError::Corrupt(e) => write!(f, "artifact rejected: {e}"),
            SwapError::Model(e) => write!(f, "candidate build failed: {e}"),
            SwapError::Graph(e) => write!(f, "candidate graph invalid: {e}"),
            SwapError::Golden(e) => write!(f, "golden-list check failed: {e}"),
            SwapError::Drifted { score, floor } => write!(
                f,
                "golden-list agreement {score:.3} below the {floor:.3} floor"
            ),
        }
    }
}

/// What a successful swap reports back (and `/admin/reload` returns).
#[derive(Debug, Clone, Copy)]
pub struct SwapOutcome {
    /// End-to-end load+validate+swap latency in ms.
    pub swap_ms: f64,
    /// Training epochs the swapped-in artifact had completed.
    pub epochs_done: u64,
    /// The golden-list agreement the candidate scored.
    pub golden_score: f64,
}

/// Loads, validates, and atomically swaps in the checkpoint at `path`.
/// See the module docs for the state machine; counts
/// `serve.swap.success` / `serve.swap.rejected` and observes
/// `serve.swap_ms`.
///
/// # Errors
/// A [`SwapError`] naming the rejected validation; the live model keeps
/// serving unchanged.
pub fn hot_swap(slot: &ModelSlot, path: &Path) -> Result<SwapOutcome, SwapError> {
    let t0 = rapid_obs::clock::now();
    let result = load_and_validate(slot, path);
    let reg = rapid_obs::global();
    match result {
        Ok((candidate, golden_score)) => {
            let epochs_done = candidate.epochs_done;
            slot.replace(Arc::new(candidate));
            let swap_ms = t0.elapsed().as_secs_f64() * 1e3;
            reg.counter_add("serve.swap.success", 1);
            reg.observe("serve.swap_ms", swap_ms);
            rapid_obs::event!(
                rapid_obs::Level::Info,
                "serve",
                "hot-swapped {} in {swap_ms:.1} ms (epochs_done {epochs_done}, golden {golden_score:.3})",
                path.display()
            );
            Ok(SwapOutcome {
                swap_ms,
                epochs_done,
                golden_score,
            })
        }
        Err(e) => {
            reg.counter_add("serve.swap.rejected", 1);
            rapid_obs::event!(
                rapid_obs::Level::Warn,
                "serve",
                "hot-swap of {} rejected: {e}",
                path.display()
            );
            Err(e)
        }
    }
}

fn load_and_validate(slot: &ModelSlot, path: &Path) -> Result<(ServeModel, f64), SwapError> {
    let mut bytes = std::fs::read(path).map_err(SwapError::Read)?;
    // Chaos site: a tripped `ckpt.corrupt` damages the loaded copy the
    // way a torn write or bad disk would — the CRC footer must catch
    // it and the rejection path must leave the live model serving.
    if rapid_faults::is_tripped("ckpt.corrupt") && !bytes.is_empty() {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
    }
    let cp = Checkpoint::from_bytes(&bytes).map_err(|e| SwapError::Corrupt(e.to_string()))?;

    let live = slot.get();
    let candidate = ServeModel::from_checkpoint(live.config(), &cp)
        .map_err(|e| SwapError::Model(e.to_string()))?;
    candidate.validate_graph().map_err(SwapError::Graph)?;

    let score = golden_agreement(&live, &candidate).map_err(SwapError::Golden)?;
    if score < GOLDEN_FLOOR {
        return Err(SwapError::Drifted {
            score,
            floor: GOLDEN_FLOOR,
        });
    }
    Ok((candidate, score))
}

/// Mean pairwise-order agreement between the live and candidate
/// golden lists: 1 when every golden user's list is ordered
/// identically, ~0.5 when the orders are unrelated.
///
/// # Errors
/// When the candidate cannot serve a golden list.
fn golden_agreement(live: &ServeModel, candidate: &ServeModel) -> Result<f64, String> {
    let k = live.config().list_len.min(live.max_list_len()).max(2);
    let mut total = 0.0;
    for &u in &GOLDEN_USERS {
        let a = live
            .rerank(u, None, k)
            .map_err(|e| format!("live rerank failed for golden user {u}: {e:?}"))?;
        let b = candidate
            .rerank(u, None, k)
            .map_err(|e| format!("candidate rerank failed for golden user {u}: {e:?}"))?;
        total += order_agreement(&a.items, &b.items);
    }
    Ok(total / GOLDEN_USERS.len() as f64)
}

/// Fraction of item pairs ordered the same way in both lists (a
/// normalized Kendall agreement; both lists hold the same item set by
/// construction — the candidate pool is a pure function of the user).
fn order_agreement(a: &[usize], b: &[usize]) -> f64 {
    let n = a.len();
    if n < 2 || b.len() != n {
        return 0.0;
    }
    let mut pos_b = std::collections::HashMap::with_capacity(n);
    for (i, &item) in b.iter().enumerate() {
        pos_b.insert(item, i);
    }
    let mut concordant = 0usize;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            let (Some(&bi), Some(&bj)) = (pos_b.get(&a[i]), pos_b.get(&a[j])) else {
                continue;
            };
            pairs += 1;
            if bi < bj {
                concordant += 1;
            }
        }
    }
    if pairs == 0 {
        return 0.0;
    }
    concordant as f64 / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_agreement_is_one_for_identical_and_low_for_reversed() {
        let a = [1usize, 2, 3, 4, 5, 6];
        assert_eq!(order_agreement(&a, &a), 1.0);
        let rev: Vec<usize> = a.iter().rev().copied().collect();
        assert_eq!(order_agreement(&a, &rev), 0.0);
        // One adjacent transposition flips exactly one of n(n-1)/2 pairs.
        let swapped = [2usize, 1, 3, 4, 5, 6];
        let expected = 1.0 - 1.0 / 15.0;
        assert!((order_agreement(&a, &swapped) - expected).abs() < 1e-12);
        // Degenerate shapes do not panic.
        assert_eq!(order_agreement(&[1], &[1]), 0.0);
        assert_eq!(order_agreement(&a, &[1, 2]), 0.0);
    }
}
