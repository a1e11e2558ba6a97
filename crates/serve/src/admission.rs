//! Admission control: per-endpoint concurrency limits behind the
//! bounded connection queue.
//!
//! The serve transport bounds *queued connections* with a
//! `sync_channel` whose capacity is `ServerConfig::queue_capacity`;
//! this module bounds *in-flight work* per endpoint.
//! A request that cannot take a permit is shed immediately with `429`
//! plus `Retry-After` — the express purpose is that excess offered load
//! turns into fast, retryable refusals instead of an unbounded queue
//! whose p99 grows without limit. The `serve.overload` fault site trips
//! the whole gate shut (everything sheds `503`) so shedding is
//! chaos-testable without generating real overload.
//!
//! Shed responses are *not* availability failures: they carry the work
//! away cleanly and are excluded from the SLO error numerator (see the
//! `serve.shed` counter and DESIGN.md).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Concurrent requests admitted per endpoint (`/rerank` and `/events`
/// each).
pub const INFLIGHT_LIMIT: usize = 16;

/// The `Retry-After` hint (seconds) on shed responses.
pub const RETRY_AFTER_S: u64 = 1;

/// The per-endpoint concurrency gate.
#[derive(Debug)]
pub struct Gate {
    rerank_limit: usize,
    events_limit: usize,
    rerank_inflight: AtomicUsize,
    events_inflight: AtomicUsize,
}

impl Default for Gate {
    fn default() -> Self {
        Self::with_limits(INFLIGHT_LIMIT, INFLIGHT_LIMIT)
    }
}

impl Gate {
    fn with_limits(rerank_limit: usize, events_limit: usize) -> Self {
        Self {
            rerank_limit,
            events_limit,
            rerank_inflight: AtomicUsize::new(0),
            events_inflight: AtomicUsize::new(0),
        }
    }

    /// Takes a `/rerank` permit, or `None` when the endpoint is at its
    /// concurrency limit (the caller sheds).
    pub fn enter_rerank(&self) -> Option<Permit<'_>> {
        Permit::acquire(&self.rerank_inflight, self.rerank_limit)
    }

    /// Takes an `/events` permit, or `None` at the limit.
    pub fn enter_events(&self) -> Option<Permit<'_>> {
        Permit::acquire(&self.events_inflight, self.events_limit)
    }

    /// Current in-flight `/rerank` requests (tests and gauges).
    pub fn rerank_inflight(&self) -> usize {
        self.rerank_inflight.load(Ordering::Relaxed)
    }
}

/// An RAII concurrency permit; dropping it releases the slot.
#[derive(Debug)]
pub struct Permit<'a> {
    slot: &'a AtomicUsize,
}

impl<'a> Permit<'a> {
    fn acquire(counter: &'a AtomicUsize, limit: usize) -> Option<Self> {
        let mut current = counter.load(Ordering::Relaxed);
        loop {
            if current >= limit {
                return None;
            }
            match counter.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Self { slot: counter }),
                Err(seen) => current = seen,
            }
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.slot.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permits_bound_concurrency_and_release_on_drop() {
        let g = Gate::with_limits(2, 1);
        let a = g.enter_rerank().expect("slot 1");
        let _b = g.enter_rerank().expect("slot 2");
        assert!(g.enter_rerank().is_none(), "limit 2 must refuse the third");
        assert_eq!(g.rerank_inflight(), 2);
        drop(a);
        assert!(g.enter_rerank().is_some(), "released slots readmit");

        let _e = g.enter_events().expect("events slot");
        assert!(g.enter_events().is_none());
    }

    #[test]
    fn permits_are_exact_under_contention() {
        let g = std::sync::Arc::new(Gate::with_limits(8, 1));
        let admitted = std::sync::Arc::new(AtomicUsize::new(0));
        let peak = std::sync::Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..16 {
                let g = std::sync::Arc::clone(&g);
                let admitted = std::sync::Arc::clone(&admitted);
                let peak = std::sync::Arc::clone(&peak);
                scope.spawn(move || {
                    for _ in 0..200 {
                        if let Some(_p) = g.enter_rerank() {
                            admitted.fetch_add(1, Ordering::Relaxed);
                            peak.fetch_max(g.rerank_inflight(), Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(peak.load(Ordering::Relaxed) <= 8, "limit never exceeded");
        assert!(admitted.load(Ordering::Relaxed) > 0);
        assert_eq!(g.rerank_inflight(), 0, "all permits returned");
    }
}
