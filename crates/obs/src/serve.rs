//! The telemetry endpoint: five `GET` routes over a registry, each
//! rendered from a fresh [`Registry::snapshot`] at request time:
//!
//! * `/healthz` — liveness probe, plain `ok`.
//! * `/metrics` — Prometheus text exposition
//!   ([`crate::Snapshot::to_prometheus`]).
//! * `/snapshot` — the full NDJSON dump
//!   ([`crate::Snapshot::to_ndjson`]).
//! * `/trace` — Chrome trace-event JSON of the span timeline and
//!   exemplar span trees ([`crate::Snapshot::to_chrome_trace`]).
//! * `/slo` — declared objectives with burn rates and remaining error
//!   budget ([`crate::slo_json`]).
//!
//! [`route`] is that table. [`serve`] mounts it on the shared transport
//! ([`crate::http::listen`]) with one worker; the online service
//! (`rapid-serve`) mounts the same table under its own routes. Each
//! connection carries one request: framing errors answer `431`, `413`
//! or `400` and are never routed, a route asked with a method other
//! than `GET` answers `405`, any other path gets a `404` listing the
//! routes, and a panic while handling a connection is caught so the
//! serving thread survives (`obs.request_panics` counts them).
//!
//! [`set_request_hook`] lets a fault-injection layer (`rapid-faults`)
//! interpose on the request path without this crate depending on it:
//! a hook returning `true` drops the connection before routing.
//!
//! [`install_from_env`] is the one-liner for binaries: it starts a
//! server on the global registry when `RAPID_OBS_ADDR` (or
//! [`crate::set_serve_addr`]) names an address, once per process, and
//! leaks the handle so the endpoint lives for the process lifetime.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use crate::http::{listen, response_bytes, ConnBuf, ServeHandle};
use crate::registry::{global, Registry};

/// Connections queued ahead of the endpoint's one worker; a connection
/// arriving at a full queue is answered `503` at accept.
const QUEUE_CAPACITY: usize = 16;

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json; charset=utf-8";

/// The fault-injection interposer, if any. A plain `fn` pointer (not a
/// closure) keeps this dependency-free and trivially `Send`.
static REQUEST_HOOK: std::sync::Mutex<Option<fn() -> bool>> = std::sync::Mutex::new(None);

/// Installs (or with `None` removes) a hook consulted before each
/// request is routed; returning `true` drops the connection, counted as
/// `obs.requests_dropped`. Used by `rapid-faults` to chaos-test clients
/// of the telemetry endpoint.
pub fn set_request_hook(hook: Option<fn() -> bool>) {
    *REQUEST_HOOK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner()) = hook;
}

fn request_hook() -> Option<fn() -> bool> {
    *REQUEST_HOOK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Starts a telemetry server for `registry` on `addr` (e.g.
/// `127.0.0.1:9464`, or port `0` for an OS-assigned one). Returns once
/// the socket is bound, so a subsequent request cannot race the bind.
pub fn serve(registry: &'static Registry, addr: &str) -> std::io::Result<ServeHandle> {
    listen(addr, 1, QUEUE_CAPACITY, busy, move |stream, _, _| {
        handle_connection(stream, registry);
    })
}

/// Starts serving the [`global`] registry if `RAPID_OBS_ADDR` (or a
/// programmatic [`crate::set_serve_addr`]) names an address. Idempotent:
/// only the first call can start a server; every call returns the bound
/// address if one is live. Bind failures are reported as a `warn` event
/// rather than aborting the host process.
pub fn install_from_env() -> Option<SocketAddr> {
    static INSTALLED: OnceLock<Option<SocketAddr>> = OnceLock::new();
    *INSTALLED.get_or_init(|| {
        let addr = crate::config::serve_addr()?;
        match serve(global(), &addr) {
            Ok(handle) => {
                let bound = handle.addr();
                crate::event!(
                    crate::Level::Info,
                    "obs",
                    "serving /metrics /healthz /snapshot /trace /slo on http://{bound}"
                );
                // Serve for the life of the process.
                // lint:allow(trace-context-no-leak) — deliberate: the sidecar handle must outlive every request
                std::mem::forget(handle);
                Some(bound)
            }
            Err(e) => {
                crate::event!(
                    crate::Level::Warn,
                    "obs",
                    "RAPID_OBS_ADDR={addr}: bind failed ({e}); telemetry not served"
                );
                None
            }
        }
    })
}

/// Refuses a connection the full queue cannot hold.
fn busy(mut stream: TcpStream) {
    let bytes = response_bytes("503 Service Unavailable", TEXT, "busy\n", false, &[]);
    let _ = stream.write_all(&bytes);
}

/// Answers one request and closes. The telemetry routes take no body,
/// so any declared body is refused as too large.
fn handle_connection(mut stream: TcpStream, registry: &Registry) {
    // One bad request (or an injected fault) must never take the
    // serving thread down with it.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if request_hook().is_some_and(|hook| hook()) {
            registry.counter_add("obs.requests_dropped", 1);
            return;
        }
        let (status, content_type, body) = match ConnBuf::new().read_frame(&mut stream, 0) {
            Ok(request) => route(registry, request.method(), request.path()).unwrap_or((
                "404 Not Found",
                TEXT,
                "not found; try /healthz /metrics /snapshot /trace /slo\n".to_string(),
            )),
            Err(e) => match e.status() {
                Some((status, why)) => (status, TEXT, format!("{why}\n")),
                None => return,
            },
        };
        let _ = stream.write_all(&response_bytes(status, content_type, &body, false, &[]));
    }));
    if outcome.is_err() {
        registry.counter_add("obs.request_panics", 1);
    }
}

/// The telemetry route table: `(status, content-type, body)` for one of
/// the five routes, rendered from a fresh snapshot of `registry`, with
/// `405` for a method other than `GET`. `None` for any other path, so a
/// server that mounts the table answers its own routes first and its
/// own `404` last.
pub fn route(
    registry: &Registry,
    method: &str,
    path: &str,
) -> Option<(&'static str, &'static str, String)> {
    let (content_type, render): (&'static str, fn(&Registry) -> String) = match path {
        "/healthz" => (TEXT, |_| "ok\n".to_string()),
        "/metrics" => ("text/plain; version=0.0.4; charset=utf-8", |r| {
            r.snapshot().to_prometheus()
        }),
        "/snapshot" => ("application/x-ndjson; charset=utf-8", |r| {
            r.snapshot().to_ndjson()
        }),
        "/trace" => (JSON, |r| r.snapshot().to_chrome_trace()),
        "/slo" => (JSON, |r| crate::slo::slo_json(&r.snapshot())),
        _ => return None,
    };
    Some(if method == "GET" {
        ("200 OK", content_type, render(registry))
    } else {
        (
            "405 Method Not Allowed",
            TEXT,
            "method not allowed\n".to_string(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::MAX_HEADER_BYTES;
    use std::io::Read as _;
    use std::time::Duration;

    /// A static registry distinct from the global one, so these tests
    /// never observe unrelated instrumentation.
    fn test_registry() -> &'static Registry {
        static REG: OnceLock<Registry> = OnceLock::new();
        REG.get_or_init(Registry::new)
    }

    /// The request hook is process-global; live-socket tests serialise
    /// on this lock so a hook installed by one cannot drop another's
    /// connections.
    fn live_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_all_routes_from_a_live_socket() {
        let _live = live_lock();
        let reg = test_registry();
        reg.counter_add("serve.test", 3);
        reg.record_span_timed("serve/span", Duration::from_micros(42), 0, 1);
        let handle = serve(reg, "127.0.0.1:0").expect("bind an ephemeral port");
        let addr = handle.addr();

        for path in ["/healthz", "/healthz?probe=1"] {
            let health = get(addr, path);
            assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
            assert!(health.ends_with("ok\n"), "{health}");
        }

        let metrics = get(addr, "/metrics");
        assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");
        assert!(
            metrics.contains("rapid_counter_total{name=\"serve.test\"} 3"),
            "{metrics}"
        );

        let snapshot = get(addr, "/snapshot");
        assert!(snapshot.contains("\"type\":\"meta\""), "{snapshot}");
        assert!(snapshot.contains("serve.test"), "{snapshot}");

        let trace = get(addr, "/trace");
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        assert!(trace.contains("serve/span"), "{trace}");

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        for known in ["/healthz", "/metrics", "/snapshot", "/trace", "/slo"] {
            assert!(
                missing.contains(known),
                "404 body must list {known}: {missing}"
            );
        }

        handle.stop();
        // After stop, connections are refused (or reset mid-handshake).
        assert!(TcpStream::connect(addr).is_err() || get_may_fail(addr));
    }

    /// Post-stop the port may still accept briefly on some stacks; a
    /// dropped/failed exchange is the accepted outcome either way.
    fn get_may_fail(addr: SocketAddr) -> bool {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            return true;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let _ = write!(stream, "GET /healthz HTTP/1.1\r\n\r\n");
        let mut out = String::new();
        stream.read_to_string(&mut out).is_err() || out.is_empty()
    }

    #[test]
    fn non_get_methods_are_rejected() {
        for method in ["POST", "PUT", "DELETE", "HEAD", "PATCH"] {
            let (status, _, body) = route(test_registry(), method, "/metrics").unwrap();
            assert!(status.starts_with("405"), "{method}: {status}: {body}");
        }
        assert!(route(test_registry(), "GET", "/nope").is_none());
    }

    #[test]
    fn slo_route_reports_declared_objectives() {
        let reg = test_registry();
        reg.declare_slo(crate::slo::SloDef {
            name: "obs_latency".to_string(),
            path: "req/obs".to_string(),
            threshold_ms: 50.0,
            objective: 0.99,
            windows_s: vec![60],
        });
        let (status, content_type, body) = route(reg, "GET", "/slo").unwrap();
        assert_eq!(status, "200 OK");
        assert!(
            content_type.starts_with("application/json"),
            "{content_type}"
        );
        assert!(body.contains("\"name\":\"obs_latency\""), "{body}");
        assert!(body.contains("\"budget_remaining\""), "{body}");
    }

    #[test]
    fn oversized_headers_get_431_and_are_never_routed() {
        let _live = live_lock();
        let handle = serve(test_registry(), "127.0.0.1:0").expect("bind an ephemeral port");
        let addr = handle.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        // A valid request line buried under > MAX_HEADER_BYTES of
        // header padding: refused as a whole, never answered as
        // `/healthz`.
        write!(stream, "GET /healthz HTTP/1.1\r\n").unwrap();
        let filler = format!("X-Pad: {}\r\n", "a".repeat(1024));
        for _ in 0..(MAX_HEADER_BYTES / 1024 + 2) {
            if stream.write_all(filler.as_bytes()).is_err() {
                break; // server already answered and hung up — fine
            }
        }
        let _ = stream.write_all(b"\r\n");
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 431"), "{out}");
        assert!(
            !out.ends_with("ok\n"),
            "an oversized request was routed: {out}"
        );
        // And the server is still healthy for well-formed requests.
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        handle.stop();
    }

    #[test]
    fn request_hook_can_drop_connections_and_panics_are_survived() {
        let _live = live_lock();
        let reg = test_registry();
        let handle = serve(reg, "127.0.0.1:0").expect("bind an ephemeral port");
        let addr = handle.addr();

        set_request_hook(Some(|| true));
        let dropped_before = reg.snapshot().counter("obs.requests_dropped");
        assert!(get_may_fail(addr), "hooked request must be dropped");
        set_request_hook(Some(|| panic!("injected request panic")));
        assert!(get_may_fail(addr), "panicking hook must not answer");
        set_request_hook(None);

        // The serving thread survived both and the counters moved.
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        let snap = reg.snapshot();
        assert!(snap.counter("obs.requests_dropped") > dropped_before);
        assert!(snap.counter("obs.request_panics") >= 1);
        handle.stop();
    }
}
