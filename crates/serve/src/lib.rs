//! The online serving layer: an event/rerank HTTP service over the
//! checkpoint-loaded RAPID stack, plus the load harness that drives it.
//!
//! The ROADMAP's north star is a service handling millions of users;
//! this crate is the request path that every later scale item plugs
//! into. It is dependency-free like the rest of the workspace: the
//! transport is the workspace's one HTTP/1.1 layer, `rapid_obs::http`
//! (a hardened framer and a polled listener with a small worker pool),
//! and bodies are the vendored `serde_json` tree ([`api`]).
//!
//! Shape of the system:
//!
//! ```text
//!                 POST /events                POST /rerank
//!                      │                           │
//!                      ▼                           ▼
//!               ┌────────────┐  UserState   ┌─────────────┐
//!               │ UserStore  │ ───────────▶ │  ServeModel │
//!               │ (sharded   │              │ ranker →    │
//!               │  RwLock)   │              │ RAPID batch │
//!               └────────────┘              └─────────────┘
//!                      ▲                           │
//!        history / EMA topic pref          checkpoint v2 hot-load
//! ```
//!
//! * [`state`] — sharded per-user store: capped history, EMA topic
//!   preference from clicked items, replay cursors.
//! * [`model`] — [`model::ServeModel`] boots from any `Checkpointer`
//!   artifact ([`model::train_artifact`] makes one) and serves
//!   initial-ranker → RAPID rankings through the `rapid-exec` degraded
//!   batch path.
//! * [`server`] — routes `/events`, `/rerank`, `/aggregates`, `/slo`,
//!   `/admin/reload`, and mounts the telemetry table (`/healthz`,
//!   `/metrics`, `/snapshot`, `/trace`) for every other path; every
//!   request passes the `serve.request` chaos site.
//! * [`client`] / [`loadgen`] — the in-process HTTP client (plus the
//!   retrying wrapper) and the seeded open-loop load generator behind
//!   `bench_serve`.
//!
//! Overload resilience wraps that request path in four layers (see
//! DESIGN.md "Overload & degradation ladder"):
//!
//! * [`admission`] — bounded connection queue + per-endpoint
//!   concurrency permits; excess load sheds fast (`429`/`503` with
//!   `Retry-After`) instead of queueing without bound.
//! * [`deadline`] — per-request budgets (`X-Rapid-Deadline-Ms`)
//!   propagated into the model, which steps down the
//!   [`deadline::DegradeTier`] ladder rather than missing them.
//! * [`breaker`] — a circuit breaker that answers from passthrough
//!   while the model path is failing, with half-open probes.
//! * [`swap`] — zero-downtime checkpoint hot-swap behind
//!   `POST /admin/reload`, validated (CRC, graph check, golden lists)
//!   before an atomic `Arc` swap.
//! * [`backoff`] — the client-side retry policy (capped exponential
//!   backoff, full jitter, retry budget) closing the loop.

pub mod admission;
pub mod api;
pub mod backoff;
pub mod breaker;
pub mod client;
pub mod deadline;
pub mod loadgen;
pub mod model;
pub mod server;
pub mod state;
pub mod swap;

pub use admission::{Gate, Permit};
pub use backoff::{RetryPolicy, RetryState};
pub use breaker::{Breaker, BreakerConfig, BreakerDecision, BreakerState};
pub use client::{Client, Response, RetryingClient};
pub use deadline::{Deadline, DegradeTier};
pub use loadgen::{run as run_load, LoadConfig, LoadReport};
pub use model::{train_artifact, RerankError, Reranked, ServeConfig, ServeModel};
pub use rapid_obs::http::ServeHandle;
pub use server::{start, AppState, ServerConfig, MAX_BODY_BYTES};
pub use state::{EventOutcome, UserState, UserStore};
pub use swap::{hot_swap, ModelSlot, SwapError, SwapOutcome};
