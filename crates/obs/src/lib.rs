//! `rapid-obs` — the workspace's observability layer.
//!
//! A production re-ranker only earns trust through continuous
//! measurement: per-stage latency, per-worker utilization, training
//! loss trajectories, and a regression gate over the benchmark
//! baseline. This crate is the dependency-free substrate all of that
//! reports through:
//!
//! * [`Registry`] — a thread-safe store of named **counters**,
//!   **gauges**, log-scale **histograms** (p50/p95/p99), aggregated
//!   **span** statistics, and a bounded **event** buffer. A process
//!   global lives behind [`global()`]; tests construct their own.
//! * [`Histogram`] — log-scale buckets (≈ 9 % resolution), exact
//!   count/sum/min/max, quantile estimation, and cross-thread
//!   [`Histogram::merge`].
//! * [`Span`] — an RAII timer with thread-local parent/child nesting:
//!   dropping (or [`Span::finish`]ing) a span records its duration
//!   under its full `parent/child` path.
//! * [`event!`] — leveled structured logging controlled by the
//!   `RAPID_LOG` environment variable (`error|warn|info|debug|trace|off`,
//!   default `warn`). Events print to stderr when they pass the level
//!   threshold and are additionally retained in the registry buffer
//!   (at `info` and above) so they appear in emitted telemetry.
//! * [`Snapshot`] — a point-in-time copy of a registry, emittable as
//!   NDJSON ([`Snapshot::to_ndjson`]), parseable back
//!   ([`Snapshot::from_ndjson`]) into an identical snapshot, and
//!   renderable as a human-readable [`Snapshot::summary_table`].
//! * [`clock`] — the workspace's single time source: monotonic
//!   [`clock::now`], trace timestamps ([`clock::wall_micros`]), and
//!   dense thread ordinals. The `centralized-clock` lint confines raw
//!   `Instant::now`/`SystemTime::now` calls to this crate.
//! * **Timeline + exporters** — every completed [`Span`] also leaves a
//!   [`TimelineEvent`] (begin time, duration, thread) in a bounded
//!   ring; [`Snapshot::to_chrome_trace`] renders the ring as Chrome
//!   trace-event JSON (Perfetto-loadable) and
//!   [`Snapshot::to_prometheus`] renders the aggregates as Prometheus
//!   text exposition.
//! * [`trace`] — request-scoped tracing: a 64-bit trace id plus stage
//!   tree per request ([`trace::start_request`]), thread-local
//!   propagation across worker handoffs ([`trace::install`]),
//!   head sampling, and tail-latency [`Exemplar`]s force-retained on
//!   the latency histogram when a request breaches the configured
//!   threshold.
//! * [`slo`] — declared objectives ([`SloDef`]) evaluated with
//!   multi-window burn-rate math over the timeline ring
//!   ([`evaluate_slos`]), rendered as JSON ([`slo_json`]) and
//!   Prometheus gauges.
//! * [`http`] — the workspace's one HTTP/1.1 transport: a hardened
//!   framer, a polled listener with a bounded queue and worker pool,
//!   and a response writer. `rapid-serve` builds its service on it.
//! * [`serve`] — the telemetry route table (`/metrics`, `/healthz`,
//!   `/snapshot`, `/trace`, `/slo`) mounted on [`http::listen`], started
//!   by binaries via [`install_from_env`] when `RAPID_OBS_ADDR` is set.
//! * Config knobs — [`diag_enabled`] (`RAPID_DIAG`), [`out_dir`]
//!   (`RAPID_OUT_DIR`, default `results`), [`serve_addr`]
//!   (`RAPID_OBS_ADDR`), [`trace_enabled`] (`RAPID_TRACE`, default on),
//!   [`trace_sample`] (`RAPID_TRACE_SAMPLE`), and [`trace_tail_ms`]
//!   (`RAPID_TRACE_TAIL_MS`), each with a programmatic override for
//!   CLI flags and tests.
//!
//! The crate has **zero dependencies** (not even workspace-internal
//! ones) so that `rapid-autograd` can link it for training diagnostics
//! and op-level profiling without cycles, and so the whole layer keeps
//! working in the air-gapped build.

pub mod clock;
mod config;
mod event;
mod hist;
pub mod http;
mod ndjson;
mod prom;
mod registry;
pub mod serve;
pub mod slo;
mod span;
mod timeline;
pub mod trace;

pub use config::{
    diag_enabled, ensure_out_dir, out_dir, serve_addr, set_diag_enabled, set_out_dir,
    set_serve_addr, set_trace_enabled, set_trace_sample, set_trace_tail_ms, trace_enabled,
    trace_sample, trace_tail_ms,
};
pub use event::{level_from_str, log, log_to, set_level, should_log, stderr_enabled, Level};
pub use hist::Histogram;
pub use http::ServeHandle;
pub use ndjson::ParseError;
pub use registry::{
    global, EventRecord, Exemplar, Registry, Snapshot, SpanStat, TimelineEvent, TraceStage,
};
pub use serve::{install_from_env, set_request_hook};
pub use slo::{evaluate_slos, slo_json, SloDef, SloStatus, SloWindow};
pub use span::{time, time_in, Span};
