//! The online API server: the service's routes (`/events`, `/rerank`,
//! `/aggregates`, `/slo`, `/admin/reload`) over keep-alive connections,
//! with the telemetry table of `rapid_obs::serve` (`/healthz`,
//! `/metrics`, `/snapshot`, `/trace`) answering every other path.
//!
//! The transport is the workspace's shared one, `rapid_obs::http`: a
//! nonblocking listener polled every 10 ms under a stop flag, a bounded
//! connection queue ahead of a worker pool (so one slow client cannot
//! stall ingestion), per-stream read/write timeouts, and bounded
//! headers and bodies. Every parsed request passes the
//! `serve.request` fault site (`rapid_faults::should_drop`): an armed
//! `io-error` drops the connection, `delay` stalls it, and `panic` is
//! caught by the per-request `catch_unwind` and answered as a 500 with
//! the server still up — the same chaos contract as the telemetry
//! server.
//!
//! Overload resilience (DESIGN.md "Overload & degradation ladder"):
//!
//! * the connection queue is **bounded**
//!   ([`ServerConfig::queue_capacity`]); a full queue sheds at accept
//!   with a canned `503` + `Retry-After` instead of buffering without
//!   limit,
//! * each endpoint takes an admission [`Permit`] or sheds `429`
//!   ([`crate::admission`]); the `serve.overload` fault site trips the
//!   gate shut for drills,
//! * every request carries a [`Deadline`] (the client's
//!   `X-Rapid-Deadline-Ms` or [`DEFAULT_DEADLINE_MS`]), charged with
//!   its queue wait; `/rerank` propagates it into the model's
//!   [`DegradeTier`] ladder,
//! * a [`Breaker`] over the model path answers from passthrough while
//!   the full path is failing,
//! * `POST /admin/reload` hot-swaps the checkpoint artifact through
//!   [`crate::swap`] with zero dropped requests.
//!
//! Shed responses (`429`/`503` with `Retry-After`) count `serve.shed`
//! and are **excluded** from the availability SLO's error numerator:
//! a shed carried the work away cleanly and told the client when to
//! come back. Deadline *misses* — a 2xx that completed after its
//! budget — are availability failures and mark the trace record.
//!
//! Every parsed request is also one [`rapid_obs::trace`] unit: a
//! [`TraceGuard`](rapid_obs::trace::TraceGuard) minted *before* the
//! fault site (so injected faults carry the trace id), finished by RAII
//! on every exit path, answered with an `X-Rapid-Trace-Id` header, and
//! marked as an error on drops and panics so the availability SLO sees
//! them. `/rerank` additionally arms tail-exemplar capture against
//! `serve.rerank_ms` — a request breaching the configured threshold
//! retains its full stage tree (serve → model → exec → ops).
//!
//! Telemetry: every response increments
//! `serve.http.<endpoint>.<status>`, `/events` maintains
//! `serve.events_{accepted,replayed,rejected}` and the `serve.users`
//! gauge, and `/rerank` records `serve.rerank_ms`. All of it lands in
//! the global registry, so `/snapshot` (NDJSON) and `/aggregates`
//! (single JSON object) expose the serve counters without Prometheus
//! text parsing, and `/slo` evaluates the objectives [`start`] declares
//! (rerank latency and availability) with burn-rate windows, spliced
//! with the live breaker/shed state.

use std::io::Write;
use std::net::TcpStream;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rapid_obs::http::{listen, response_bytes, status_code, ConnBuf, Frame, ServeHandle};
use serde::Value;

use crate::admission::{Gate, Permit, RETRY_AFTER_S};
use crate::api;
use crate::breaker::{Breaker, BreakerDecision};
use crate::deadline::{Deadline, DegradeTier, DEFAULT_DEADLINE_MS, FULL_FLOOR_MS};
use crate::model::{RerankError, ServeModel};
use crate::state::UserStore;
use crate::swap::{hot_swap, ModelSlot, SwapError};

/// Cap on request bodies (1 MiB): batched event ingestion fits
/// comfortably; anything larger answers `413`.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Server shape knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Accepted connections queued ahead of the workers; a full queue
    /// sheds at accept (`503` + `Retry-After`) instead of buffering
    /// without bound.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
        }
    }
}

/// Everything the handlers share: the swappable model slot, the live
/// user store, and the resilience machinery.
pub struct AppState {
    model: ModelSlot,
    /// Live per-user state written by `/events`.
    pub store: UserStore,
    /// Per-endpoint admission permits.
    pub gate: Gate,
    /// The model-path circuit breaker.
    pub breaker: Breaker,
    artifact_path: Option<PathBuf>,
    /// Serializes hot-swaps: `/admin/reload` try-locks it, refusing a
    /// concurrent reload with `429` instead of queueing worker threads
    /// behind a long candidate build, so two swaps can never validate
    /// against the same live model and race the `Arc` replace.
    swap_lock: Mutex<()>,
    admin_token: Option<String>,
}

impl AppState {
    /// Wraps a booted model with a fresh user store sized to its world.
    pub fn new(model: ServeModel) -> Self {
        let ds = model.dataset();
        let store = UserStore::new(16, ds.users.len(), ds.num_topics());
        Self {
            model: ModelSlot::new(model),
            store,
            gate: Gate::default(),
            breaker: Breaker::default(),
            artifact_path: None,
            swap_lock: Mutex::new(()),
            admin_token: None,
        }
    }

    /// Tells the server where its checkpoint artifact lives, enabling
    /// `POST /admin/reload`.
    #[must_use]
    pub fn with_artifact(mut self, path: PathBuf) -> Self {
        self.artifact_path = Some(path);
        self
    }

    /// The currently-serving model. Handlers take one clone per request
    /// and use it throughout, so a concurrent hot-swap never changes
    /// the model under a request's feet.
    pub fn model(&self) -> Arc<ServeModel> {
        self.model.get()
    }

    /// The swappable slot itself (the hot-swap path and tests).
    pub fn model_slot(&self) -> &ModelSlot {
        &self.model
    }

    /// The artifact path `/admin/reload` reloads from, if configured.
    pub fn artifact_path(&self) -> Option<&PathBuf> {
        self.artifact_path.as_ref()
    }

    /// Requires `X-Rapid-Admin-Token: token` on `/admin/reload`.
    /// Without this, the admin route stays open (loopback deployments,
    /// tests); with it, a missing or wrong token answers `401`.
    #[must_use]
    pub fn with_admin_token(mut self, token: impl Into<String>) -> Self {
        self.admin_token = Some(token.into());
        self
    }

    /// The swap serialization lock. `/admin/reload` takes it around
    /// [`hot_swap`]; tests can hold it to simulate an in-flight swap.
    pub fn swap_lock(&self) -> &Mutex<()> {
        &self.swap_lock
    }
}

/// The serving SLOs, declared at boot so `/slo`, `/metrics`, and the
/// bench gate all evaluate the same objectives: rerank p99 under 50 ms
/// at 99% compliance, and 99.9% availability (no 5xx/drops/deadline
/// misses; sheds excluded), both over 1 m / 5 m / 1 h burn-rate
/// windows.
fn declare_slos() {
    let reg = rapid_obs::global();
    reg.declare_slo(rapid_obs::SloDef {
        name: "rerank_latency".to_string(),
        path: "req/rerank".to_string(),
        threshold_ms: 50.0,
        objective: 0.99,
        windows_s: vec![60, 300, 3600],
    });
    reg.declare_slo(rapid_obs::SloDef {
        name: "rerank_availability".to_string(),
        path: "req/rerank".to_string(),
        threshold_ms: 0.0,
        objective: 0.999,
        windows_s: vec![60, 300, 3600],
    });
}

/// Binds and starts the server over `state`.
///
/// # Errors
/// Propagates bind/configuration failures from the listener socket.
pub fn start(state: Arc<AppState>, cfg: &ServerConfig) -> std::io::Result<ServeHandle> {
    declare_slos();
    // Publish the breaker's initial (closed) state so the gauge exists
    // before the first transition.
    rapid_obs::global().gauge_set("serve.breaker_state", state.breaker.state().gauge());
    let handle = listen(
        &cfg.addr,
        cfg.workers,
        cfg.queue_capacity,
        shed_at_accept,
        move |stream, queue_wait, stop| handle_connection(stream, &state, stop, queue_wait),
    )?;
    rapid_obs::event!(
        rapid_obs::Level::Info,
        "serve",
        "serving /events /rerank /aggregates /metrics /healthz /snapshot /trace /slo /admin/reload on http://{}",
        handle.addr()
    );
    Ok(handle)
}

/// Answers a connection the full queue cannot hold: a canned `503` with
/// `Retry-After` and a trace id, then close. Fast refusal is the whole
/// point — the alternative is an unbounded queue whose p99 grows until
/// every response is late.
fn shed_at_accept(mut stream: TcpStream) {
    let trace = rapid_obs::trace::start_request("queue");
    let status = "503 Service Unavailable";
    rapid_obs::global().counter_add("serve.shed", 1);
    count("queue", status);
    let retry_after = RETRY_AFTER_S.to_string();
    let mut extra: Vec<(&str, &str)> = vec![("Retry-After", &retry_after)];
    let trace_header = trace.trace_id().map(|id| format!("{id:016x}"));
    if let Some(id) = trace_header.as_deref() {
        extra.push(("X-Rapid-Trace-Id", id));
    }
    let bytes = response_bytes(
        status,
        "application/json",
        &api::error_body("connection queue full; retry later"),
        false,
        &extra,
    );
    let _ = stream.write_all(&bytes);
}

/// One handler response plus the resilience metadata the transport
/// layer needs: whether this was a shed (excluded from the SLO error
/// numerator) and the `Retry-After` hint to attach.
struct Reply {
    status: &'static str,
    content_type: &'static str,
    body: String,
    shed: bool,
    retry_after_s: Option<u64>,
}

impl Reply {
    fn new(status: &'static str, content_type: &'static str, body: String) -> Self {
        Self {
            status,
            content_type,
            body,
            shed: false,
            retry_after_s: None,
        }
    }

    /// A shed: counted as `serve.shed`, stamped with `Retry-After`,
    /// never marked as an SLO error.
    fn shed(status: &'static str, why: &str) -> Self {
        rapid_obs::global().counter_add("serve.shed", 1);
        Self {
            status,
            content_type: "application/json",
            body: api::error_body(why),
            shed: true,
            retry_after_s: Some(RETRY_AFTER_S),
        }
    }
}

/// Serves one (possibly keep-alive) connection until the peer closes,
/// framing fails, or the server stops. `queue_wait` is charged against
/// the first request's deadline — time spent queued is budget already
/// gone.
fn handle_connection(
    mut stream: TcpStream,
    state: &AppState,
    stop: &AtomicBool,
    queue_wait: Duration,
) {
    let mut conn = ConnBuf::new();
    let mut queue_wait = Some(queue_wait);
    while !stop.load(Ordering::SeqCst) {
        let request = match conn.read_frame(&mut stream, MAX_BODY_BYTES) {
            Ok(request) => request,
            Err(e) => {
                // Framing errors poison the byte stream, so answer and
                // close rather than trying to resynchronise.
                if let Some((status, why)) = e.status() {
                    count(request_key(None), status);
                    let body = api::error_body(why);
                    let bytes = response_bytes(status, "application/json", &body, false, &[]);
                    let _ = stream.write_all(&bytes);
                }
                return;
            }
        };

        // One trace per request, minted *before* the fault site so
        // injected faults are stamped with this request's trace id.
        // The guard finishes by RAII on every exit below — drop, panic,
        // write failure — leaving the `req/<endpoint>` SLO record.
        let mut trace = rapid_obs::trace::start_request(request_key(Some(&request)));

        // Chaos site: armed `io-error` entries drop the connection
        // mid-dialogue, `panic` entries are caught below, `delay`
        // entries stall the worker — all deterministic under the
        // installed plan's seed.
        let dropped = catch_unwind(AssertUnwindSafe(|| {
            rapid_faults::should_drop("serve.request")
        }));
        match dropped {
            Ok(false) => {}
            Ok(true) => {
                trace.mark_error();
                rapid_obs::global().counter_add("serve.requests_dropped", 1);
                return;
            }
            Err(_) => {
                trace.mark_error();
                respond_panic(&mut stream, &request, trace.trace_id());
                return;
            }
        }

        // The request's budget: the client's header, or the server
        // default. The first request on a connection pays for its time
        // in the accept queue.
        let budget_ms = request
            .header("x-rapid-deadline-ms")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(DEFAULT_DEADLINE_MS)
            .max(1);
        let deadline = Deadline::after_wait(budget_ms, queue_wait.take().unwrap_or_default());

        let keep_alive = request.keep_alive();
        let r0 = rapid_obs::clock::now();
        let r0_us = rapid_obs::clock::wall_micros();
        let handled = catch_unwind(AssertUnwindSafe(|| {
            route(&request, state, &mut trace, &deadline)
        }));
        rapid_obs::trace::record_stage("serve/route", r0_us, r0.elapsed());
        match handled {
            Ok(reply) => {
                // Sheds are deliberate refusals with a retry hint, not
                // availability failures; everything else 5xx is.
                if status_code(reply.status) >= 500 && !reply.shed {
                    trace.mark_error();
                }
                count(request_key(Some(&request)), reply.status);
                let w0 = rapid_obs::clock::now();
                let w0_us = rapid_obs::clock::wall_micros();
                let trace_header = trace.trace_id().map(|id| format!("{id:016x}"));
                let retry_header = reply.retry_after_s.map(|s| s.to_string());
                let mut extra: Vec<(&str, &str)> = Vec::new();
                if let Some(id) = trace_header.as_deref() {
                    extra.push(("X-Rapid-Trace-Id", id));
                }
                if let Some(after) = retry_header.as_deref() {
                    extra.push(("Retry-After", after));
                }
                let bytes = response_bytes(
                    reply.status,
                    reply.content_type,
                    &reply.body,
                    keep_alive,
                    &extra,
                );
                let wrote = stream.write_all(&bytes).is_ok();
                rapid_obs::trace::record_stage("serve/respond", w0_us, w0.elapsed());
                if !wrote || !keep_alive {
                    return;
                }
            }
            Err(_) => {
                trace.mark_error();
                respond_panic(&mut stream, &request, trace.trace_id());
                return;
            }
        }
    }
}

/// Answers a caught handler panic with a 500 and closes the connection
/// (its framing state is no longer trustworthy). The trace id still
/// rides the response so the failed request stays correlatable.
fn respond_panic(stream: &mut TcpStream, request: &Frame, trace_id: Option<u64>) {
    let status = "500 Internal Server Error";
    rapid_obs::global().counter_add("serve.panics", 1);
    count(request_key(Some(request)), status);
    let body = api::error_body("handler panicked");
    let trace_header = trace_id.map(|id| format!("{id:016x}"));
    let mut extra: Vec<(&str, &str)> = Vec::new();
    if let Some(id) = trace_header.as_deref() {
        extra.push(("X-Rapid-Trace-Id", id));
    }
    let bytes = response_bytes(status, "application/json", &body, false, &extra);
    let _ = stream.write_all(&bytes);
}

/// The counter key segment for a request's endpoint (unknown paths
/// collapse into `other` so hostile scans cannot mint counters).
fn request_key(request: Option<&Frame>) -> &'static str {
    match request.map(Frame::path) {
        Some("/events") => "events",
        Some("/rerank") => "rerank",
        Some("/aggregates") => "aggregates",
        Some("/metrics") => "metrics",
        Some("/healthz") => "healthz",
        Some("/snapshot") => "snapshot",
        Some("/trace") => "trace",
        Some("/slo") => "slo",
        Some("/admin/reload") => "reload",
        _ => "other",
    }
}

fn count(endpoint: &str, status: &str) {
    rapid_obs::global().counter_add(&format!("serve.http.{endpoint}.{}", status_code(status)), 1);
}

/// Takes the endpoint's admission permit, or builds the shed reply that
/// refuses this request. A tripped `serve.overload` fault site slams
/// the gate shut (everything sheds `503`) so shedding is drillable
/// without real overload.
fn admit<'a>(
    state: &'a AppState,
    enter: impl FnOnce(&'a Gate) -> Option<Permit<'a>>,
    endpoint: &str,
) -> Result<Permit<'a>, Reply> {
    if rapid_faults::is_tripped("serve.overload") {
        return Err(Reply::shed(
            "503 Service Unavailable",
            "overload drill: admission gate tripped",
        ));
    }
    match enter(&state.gate) {
        Some(p) => Ok(p),
        None => Err(Reply::shed(
            "429 Too Many Requests",
            &format!("{endpoint} concurrency limit reached; retry later"),
        )),
    }
}

/// Dispatches one parsed request to its handler; paths the service
/// does not own fall through to the telemetry table. `trace` is this
/// request's live guard; handlers that want tail-exemplar capture arm
/// it here. `deadline` is the request's remaining budget (queue wait
/// already charged).
fn route(
    request: &Frame,
    state: &AppState,
    trace: &mut rapid_obs::trace::TraceGuard,
    deadline: &Deadline,
) -> Reply {
    match (request.method(), request.path()) {
        ("GET", "/aggregates") => {
            Reply::new("200 OK", "application/json", aggregates_body(state))
        }
        ("GET", "/slo") => Reply::new("200 OK", "application/json", slo_body(state)),
        ("POST", "/events") => handle_events(request, state),
        ("POST", "/rerank") => handle_rerank(request, state, trace, deadline),
        ("POST", "/admin/reload") => handle_reload(request, state),
        ("GET", "/events" | "/rerank" | "/admin/reload") | ("POST", "/aggregates" | "/slo") => {
            Reply::new(
                "405 Method Not Allowed",
                "application/json",
                api::error_body("method not allowed"),
            )
        }
        (method, path) => match rapid_obs::serve::route(rapid_obs::global(), method, path) {
            Some((status, content_type, body)) => Reply::new(status, content_type, body),
            None => Reply::new(
                "404 Not Found",
                "application/json",
                api::error_body(
                    "not found; try /events /rerank /aggregates /metrics /healthz /snapshot /trace /slo /admin/reload",
                ),
            ),
        },
    }
}

fn handle_events(request: &Frame, state: &AppState) -> Reply {
    let _permit = match admit(state, Gate::enter_events, "/events") {
        Ok(p) => p,
        Err(shed) => return shed,
    };
    let reg = rapid_obs::global();
    let events = match api::parse_events(&request.body) {
        Ok(events) => events,
        Err(why) => {
            reg.counter_add("serve.events_rejected", 1);
            return Reply::new("400 Bad Request", "application/json", api::error_body(&why));
        }
    };
    let model = state.model();
    let ds = model.dataset();
    let mut accepted = 0u64;
    let mut replayed = 0u64;
    for e in &events {
        let item = (e.item % ds.items.len() as u64) as usize;
        let coverage = e.click.then(|| ds.items[item].coverage.as_slice());
        match state.store.apply_event(e.user, item, coverage, e.seq) {
            crate::state::EventOutcome::Applied => accepted += 1,
            crate::state::EventOutcome::Replayed => replayed += 1,
        }
    }
    reg.counter_add("serve.events_accepted", accepted);
    reg.counter_add("serve.events_replayed", replayed);
    reg.gauge_set("serve.users", state.store.len() as f64);
    Reply::new(
        "200 OK",
        "application/json",
        api::events_body(accepted, replayed),
    )
}

fn handle_rerank(
    request: &Frame,
    state: &AppState,
    trace: &mut rapid_obs::trace::TraceGuard,
    deadline: &Deadline,
) -> Reply {
    let _permit = match admit(state, Gate::enter_rerank, "/rerank") {
        Ok(p) => p,
        Err(shed) => return shed,
    };
    let reg = rapid_obs::global();
    // Arm tail capture: if this request's total latency breaches the
    // configured threshold, its stage tree is retained as an exemplar
    // on the serve.rerank_ms histogram.
    trace.set_latency_hist("serve.rerank_ms");
    // Chaos site: an armed delay here is injected upstream latency —
    // the deadline ladder below must absorb it.
    let _slow = rapid_faults::is_tripped("serve.slow");
    let p0 = rapid_obs::clock::now();
    let p0_us = rapid_obs::clock::wall_micros();
    let parsed = api::parse_rerank(&request.body);
    rapid_obs::trace::record_stage_nested("serve/parse", p0_us, p0.elapsed());
    let req = match parsed {
        Ok(r) => r,
        Err(why) => {
            return Reply::new("400 Bad Request", "application/json", api::error_body(&why));
        }
    };
    // The budget is already gone: doing the work would produce a
    // response nobody can use in time. Shed instead of missing.
    if deadline.expired() {
        return Reply::shed(
            "503 Service Unavailable",
            "deadline exhausted before the model; retry with a larger budget",
        );
    }
    let model = state.model();
    let k = req.k.unwrap_or(model.config().list_len);
    // Client-controlled validation happens *before* the breaker
    // decision: an invalid k must never consume the half-open probe,
    // or a 400 would strand the breaker in half-open with the probe
    // slot taken forever.
    if k == 0 {
        return Reply::new(
            "400 Bad Request",
            "application/json",
            api::error_body("k must be at least 1"),
        );
    }
    if k > model.max_list_len() {
        return Reply::new(
            "400 Bad Request",
            "application/json",
            api::error_body(&format!(
                "k exceeds the served maximum of {}",
                model.max_list_len()
            )),
        );
    }
    let user_state = state.store.get(req.user);
    if user_state.is_none() {
        // Unknown users are a documented cold start, not an error.
        reg.counter_add("serve.cold_users", 1);
    }
    // The breaker caps the tier: open → passthrough for everyone,
    // half-open → one probe takes the full path.
    let decision = state.breaker.decide(rapid_obs::clock::wall_micros());
    let max_tier = match decision {
        BreakerDecision::Full { .. } => DegradeTier::Full,
        BreakerDecision::Passthrough => DegradeTier::Passthrough,
    };
    // Whether the remaining budget could afford the full tier at all,
    // sampled at entry: a step-down forced by a client-chosen tiny
    // deadline says nothing about the model's health and must not
    // count toward tripping the breaker.
    let full_affordable = deadline.remaining_ms() >= FULL_FLOOR_MS;
    let t0 = rapid_obs::clock::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        model.rerank_with_budget(req.user, user_state.as_ref(), k, deadline, max_tier)
    }));
    let result = match result {
        Ok(r) => r,
        Err(payload) => {
            // A model-path panic is a breaker failure; the outer
            // catch_unwind answers the 500.
            if let BreakerDecision::Full { probe } = decision {
                state
                    .breaker
                    .report(probe, false, rapid_obs::clock::wall_micros());
            }
            resume_unwind(payload);
        }
    };
    match result {
        Ok(r) => {
            // The breaker asked for the full path; anything less — the
            // deadline ladder stepped down — counts as a model-path
            // failure, but only when the entry budget could have
            // afforded the full path. A too-small budget neither
            // succeeds nor fails the model; a probe it rode on is
            // aborted so the slot frees for a request that can judge.
            if let BreakerDecision::Full { probe } = decision {
                if r.tier == DegradeTier::Full {
                    state
                        .breaker
                        .report(probe, true, rapid_obs::clock::wall_micros());
                } else if full_affordable {
                    state
                        .breaker
                        .report(probe, false, rapid_obs::clock::wall_micros());
                } else {
                    state.breaker.abort(probe);
                }
            }
            reg.observe("serve.rerank_ms", t0.elapsed().as_secs_f64() * 1e3);
            // A 2xx that finished after its budget is a deadline miss —
            // the one failure mode shedding exists to prevent. Unlike a
            // shed, it *is* an availability failure.
            if deadline.expired() {
                reg.counter_add("serve.deadline_miss", 1);
                trace.mark_error();
            }
            Reply::new("200 OK", "application/json", api::rerank_body(req.user, &r))
        }
        // Unreachable after the up-front validation, but kept so any
        // future error path still releases the probe slot instead of
        // wedging the breaker in half-open.
        Err(e) => {
            if let BreakerDecision::Full { probe } = decision {
                state.breaker.abort(probe);
            }
            let why = match e {
                RerankError::EmptyList => "k must be at least 1".to_string(),
                RerankError::ListTooLong { max } => {
                    format!("k exceeds the served maximum of {max}")
                }
            };
            Reply::new("400 Bad Request", "application/json", api::error_body(&why))
        }
    }
}

/// `POST /admin/reload`: hot-swap the serving model from the configured
/// artifact path. Every rejection leaves the live model serving; the
/// status distinguishes a missing artifact (`404`) from a rejected one
/// (`409`) and a reload already in flight (`429` + `Retry-After`).
/// None is a 5xx — a bad artifact is not an availability failure of
/// the running service.
///
/// Swaps are serialized through [`AppState::swap_lock`]: a candidate
/// build (world regeneration, ranker fit, golden reranks) is orders of
/// magnitude heavier than a request, so concurrent reloads would both
/// starve the worker pool and race the `Arc` replace — the second and
/// later callers are refused immediately instead.
fn handle_reload(request: &Frame, state: &AppState) -> Reply {
    if let Some(expected) = state.admin_token.as_deref() {
        if request.header("x-rapid-admin-token") != Some(expected) {
            return Reply::new(
                "401 Unauthorized",
                "application/json",
                api::error_body("missing or invalid X-Rapid-Admin-Token"),
            );
        }
    }
    let Some(path) = state.artifact_path() else {
        return Reply::new(
            "409 Conflict",
            "application/json",
            api::error_body(
                "no artifact path configured; boot the server with one to enable reload",
            ),
        );
    };
    let _swapping = match state.swap_lock.try_lock() {
        Ok(g) => g,
        Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => {
            let mut reply = Reply::new(
                "429 Too Many Requests",
                "application/json",
                api::error_body("a reload is already in progress; retry later"),
            );
            reply.retry_after_s = Some(RETRY_AFTER_S);
            return reply;
        }
    };
    match hot_swap(state.model_slot(), path) {
        Ok(outcome) => Reply::new("200 OK", "application/json", api::swap_body(&outcome)),
        Err(SwapError::Read(e)) if e.kind() == std::io::ErrorKind::NotFound => Reply::new(
            "404 Not Found",
            "application/json",
            api::error_body(&format!("artifact not found: {e}")),
        ),
        Err(e) => Reply::new(
            "409 Conflict",
            "application/json",
            api::error_body(&e.to_string()),
        ),
    }
}

/// `/slo`: the declared objectives' burn-rate evaluation, spliced with
/// the live resilience state (breaker, sheds, swaps) so one probe shows
/// both "are we in budget" and "what is the service doing about it".
fn slo_body(state: &AppState) -> String {
    let snap = rapid_obs::global().snapshot();
    let raw = rapid_obs::slo_json(&snap);
    let resilience = Value::Object(vec![
        (
            "breaker_state".to_string(),
            Value::Str(format!("{:?}", state.breaker.state()).to_lowercase()),
        ),
        (
            "breaker_trips".to_string(),
            Value::U64(snap.counter("serve.breaker.trips")),
        ),
        ("shed".to_string(), Value::U64(snap.counter("serve.shed"))),
        (
            "deadline_miss".to_string(),
            Value::U64(snap.counter("serve.deadline_miss")),
        ),
    ]);
    match serde_json::parse_value(&raw) {
        Ok(Value::Object(mut fields)) => {
            fields.push(("resilience".to_string(), resilience));
            serde_json::to_string(&Value::Object(fields)).unwrap_or(raw)
        }
        _ => raw,
    }
}

/// One JSON object summarising the serve counters, user store, and
/// rerank latency quantiles — the smoke job's assertion surface.
fn aggregates_body(state: &AppState) -> String {
    let snap = rapid_obs::global().snapshot();
    let http: Vec<(String, Value)> = snap
        .counters()
        .filter_map(|(name, v)| {
            name.strip_prefix("serve.http.")
                .map(|key| (key.to_string(), Value::U64(v)))
        })
        .collect();
    let latency = match snap.histogram("serve.rerank_ms") {
        Some(h) => Value::Object(vec![
            ("count".to_string(), Value::U64(h.count())),
            ("p50_ms".to_string(), Value::F64(h.quantile(0.5))),
            ("p99_ms".to_string(), Value::F64(h.quantile(0.99))),
            ("max_ms".to_string(), Value::F64(h.max())),
        ]),
        None => Value::Null,
    };
    let obj = Value::Object(vec![
        ("users".to_string(), Value::U64(state.store.len() as u64)),
        (
            "model_epochs_done".to_string(),
            Value::U64(state.model().epochs_done),
        ),
        (
            "events".to_string(),
            Value::Object(vec![
                (
                    "accepted".to_string(),
                    Value::U64(snap.counter("serve.events_accepted")),
                ),
                (
                    "replayed".to_string(),
                    Value::U64(snap.counter("serve.events_replayed")),
                ),
                (
                    "rejected".to_string(),
                    Value::U64(snap.counter("serve.events_rejected")),
                ),
            ]),
        ),
        ("http".to_string(), Value::Object(http)),
        ("rerank_latency".to_string(), latency),
        (
            "degraded".to_string(),
            Value::Object(vec![
                (
                    "degraded_requests".to_string(),
                    Value::U64(snap.counter("exec.degraded_requests")),
                ),
                (
                    "fallback_requests".to_string(),
                    Value::U64(snap.counter("exec.fallback_requests")),
                ),
                (
                    "panics".to_string(),
                    Value::U64(snap.counter("serve.panics")),
                ),
                (
                    "requests_dropped".to_string(),
                    Value::U64(snap.counter("serve.requests_dropped")),
                ),
            ]),
        ),
        (
            "resilience".to_string(),
            Value::Object(vec![
                ("shed".to_string(), Value::U64(snap.counter("serve.shed"))),
                (
                    "deadline_miss".to_string(),
                    Value::U64(snap.counter("serve.deadline_miss")),
                ),
                (
                    "degrade_blend".to_string(),
                    Value::U64(snap.counter("serve.degrade.blend")),
                ),
                (
                    "degrade_passthrough".to_string(),
                    Value::U64(snap.counter("serve.degrade.passthrough")),
                ),
                (
                    "breaker_trips".to_string(),
                    Value::U64(snap.counter("serve.breaker.trips")),
                ),
                (
                    "swap_success".to_string(),
                    Value::U64(snap.counter("serve.swap.success")),
                ),
                (
                    "swap_rejected".to_string(),
                    Value::U64(snap.counter("serve.swap.rejected")),
                ),
            ]),
        ),
    ]);
    serde_json::to_string(&obj).unwrap_or_else(|_| "{}".to_string())
}
