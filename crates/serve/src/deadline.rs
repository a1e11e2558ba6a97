//! Per-request deadline budgets and the degradation ladder.
//!
//! Every request carries a latency budget — `X-Rapid-Deadline-Ms` from
//! the client, or [`DEFAULT_DEADLINE_MS`] — anchored when the request is
//! parsed (minus any time the connection already spent queued for a
//! worker, so queue wait counts against the budget the way it does for
//! the caller). Stages on the serving path consult
//! [`Deadline::remaining_ms`] and step down the ladder instead of
//! missing the deadline:
//!
//! ```text
//! Full        — initial rank + RAPID re-rank (the normal path)
//! Blend       — initial rank only (SvmRank + live-preference blend)
//! Passthrough — the deterministic candidate draw order, unscored
//! ```
//!
//! [`DegradeTier::for_remaining_ms`] is a pure function of the
//! remaining budget against two fixed floors, so the ladder is unit
//! testable without a clock: a full RAPID pass needs at least
//! [`FULL_FLOOR_MS`] of headroom, an initial rank at least
//! [`BLEND_FLOOR_MS`]; below that only the passthrough answer fits.

use std::time::{Duration, Instant};

/// The budget (ms) of a request that sends no `X-Rapid-Deadline-Ms`
/// header: the paper's 50 ms serving bar.
pub const DEFAULT_DEADLINE_MS: u64 = 50;

/// Minimum remaining budget (ms) to attempt the full RAPID re-rank.
/// Quick-scale p99 for the prepare+rerank stages is ~2 ms; 5 ms leaves
/// slack for scheduling noise.
pub const FULL_FLOOR_MS: f64 = 5.0;

/// Minimum remaining budget (ms) to attempt the initial-ranker scoring
/// pass.
pub const BLEND_FLOOR_MS: f64 = 1.0;

/// How much of the serving path a request's remaining budget (or the
/// circuit breaker) still allows. Ordered from least to most degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeTier {
    /// Initial rank + RAPID re-rank.
    Full,
    /// Initial rank only; the RAPID stage is skipped.
    Blend,
    /// The unscored candidate draw order (the "initial ranking" as
    /// delivered upstream).
    Passthrough,
}

impl DegradeTier {
    /// The tier the remaining budget still affords (pure; the ladder's
    /// only decision rule).
    pub fn for_remaining_ms(remaining_ms: f64) -> DegradeTier {
        if remaining_ms >= FULL_FLOOR_MS {
            DegradeTier::Full
        } else if remaining_ms >= BLEND_FLOOR_MS {
            DegradeTier::Blend
        } else {
            DegradeTier::Passthrough
        }
    }

    /// The more degraded of two tiers (a stage can only step *down*).
    pub fn cap(self, other: DegradeTier) -> DegradeTier {
        self.max(other)
    }

    /// Stable wire/counter name.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradeTier::Full => "full",
            DegradeTier::Blend => "blend",
            DegradeTier::Passthrough => "passthrough",
        }
    }
}

/// One request's latency budget, anchored at parse time.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    started: Instant,
    budget_ms: f64,
}

impl Deadline {
    /// A budget of `budget_ms` starting now.
    pub fn new(budget_ms: u64) -> Self {
        Self::after_wait(budget_ms, Duration::ZERO)
    }

    /// A budget of `budget_ms` with `waited` already spent (time the
    /// connection sat in the admission queue before a worker picked it
    /// up).
    pub fn after_wait(budget_ms: u64, waited: Duration) -> Self {
        Self {
            started: rapid_obs::clock::now(),
            budget_ms: budget_ms as f64 - waited.as_secs_f64() * 1e3,
        }
    }

    /// An effectively infinite budget (internal callers with no
    /// deadline, e.g. hot-swap validation reranks).
    pub fn unbounded() -> Self {
        Self {
            started: rapid_obs::clock::now(),
            budget_ms: f64::MAX,
        }
    }

    /// The budget this deadline started with, in ms (already net of any
    /// queue wait).
    pub fn budget_ms(&self) -> f64 {
        self.budget_ms
    }

    /// Milliseconds of budget left (negative once expired).
    pub fn remaining_ms(&self) -> f64 {
        self.budget_ms - self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.remaining_ms() <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_floors_partition_the_budget_axis() {
        assert_eq!(DegradeTier::for_remaining_ms(50.0), DegradeTier::Full);
        assert_eq!(
            DegradeTier::for_remaining_ms(FULL_FLOOR_MS),
            DegradeTier::Full
        );
        assert_eq!(
            DegradeTier::for_remaining_ms(FULL_FLOOR_MS - 0.001),
            DegradeTier::Blend
        );
        assert_eq!(
            DegradeTier::for_remaining_ms(BLEND_FLOOR_MS),
            DegradeTier::Blend
        );
        assert_eq!(
            DegradeTier::for_remaining_ms(BLEND_FLOOR_MS - 0.001),
            DegradeTier::Passthrough
        );
        assert_eq!(
            DegradeTier::for_remaining_ms(-10.0),
            DegradeTier::Passthrough
        );
    }

    #[test]
    fn cap_only_ever_steps_down() {
        use DegradeTier::*;
        assert_eq!(Full.cap(Blend), Blend);
        assert_eq!(Blend.cap(Full), Blend);
        assert_eq!(Passthrough.cap(Full), Passthrough);
        assert_eq!(Full.cap(Full), Full);
        assert_eq!(Blend.cap(Passthrough), Passthrough);
    }

    #[test]
    fn queue_wait_is_charged_against_the_budget() {
        let d = Deadline::after_wait(50, Duration::from_millis(49));
        assert!(d.remaining_ms() <= 1.0);
        let spent = Deadline::after_wait(10, Duration::from_millis(20));
        assert!(spent.expired(), "wait longer than the budget expires it");
        assert!(!Deadline::unbounded().expired());
        assert!(Deadline::new(1_000).remaining_ms() > 900.0);
    }
}
