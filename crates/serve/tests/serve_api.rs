//! End-to-end API tests against a live server: happy paths, hostile
//! HTTP input (oversized body, truncated or deep JSON, unknown users, replayed
//! events), and a raw-bytes fuzz pass in the PR-5 hostile-bytes style.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;

use proptest::prelude::*;
use rapid_serve::{start, AppState, Client, ServeConfig, ServeModel, ServerConfig};

fn tiny_config() -> ServeConfig {
    ServeConfig {
        num_users: 30,
        num_items: 120,
        epochs: 1,
        ..ServeConfig::default()
    }
}

/// One shared server for the whole test binary (training the artifact
/// and booting the model dominates the cost).
fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let cfg = tiny_config();
        let dir = std::env::temp_dir().join(format!("rapid-serve-api-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("serve.ckpt");
        rapid_serve::train_artifact(&cfg, &ckpt).unwrap();
        let model = ServeModel::boot(&cfg, &ckpt).unwrap();
        let handle = start(
            std::sync::Arc::new(AppState::new(model)),
            &ServerConfig::default(),
        )
        .unwrap();
        let addr = handle.addr();
        std::mem::forget(handle); // serve for the life of the test binary
        addr
    })
}

#[test]
fn telemetry_routes_respond() {
    let mut c = Client::new(server_addr());
    let health = c.get("/healthz").unwrap();
    assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));
    let metrics = c.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let snapshot = c.get("/snapshot").unwrap();
    assert_eq!(snapshot.status, 200);
    assert!(
        snapshot.body.contains("\"type\":\"meta\""),
        "snapshot must be registry NDJSON"
    );
    let trace = c.get("/trace").unwrap();
    assert_eq!(trace.status, 200);
    assert!(trace.body.contains("\"traceEvents\""), "{}", trace.body);
}

#[test]
fn events_then_rerank_round_trip() {
    let mut c = Client::new(server_addr());
    let r = c
        .post(
            "/events",
            r#"{"events": [{"user": 9001, "item": 3, "click": true, "seq": 1},
                           {"user": 9002, "item": 4, "click": false, "seq": 1}]}"#,
        )
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let v = serde_json::parse_value(&r.body).unwrap();
    assert_eq!(v.field("accepted").unwrap().as_u64().unwrap(), 2);
    assert_eq!(v.field("replayed").unwrap().as_u64().unwrap(), 0);

    let r = c.post("/rerank", r#"{"user": 9001}"#).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let v = serde_json::parse_value(&r.body).unwrap();
    let items = v.field("items").unwrap().as_array().unwrap();
    assert_eq!(items.len(), tiny_config().list_len);
    let timings = v.field("timings_ms").unwrap();
    for stage in ["rank", "prepare", "rerank"] {
        assert!(timings.field(stage).unwrap().as_f64().unwrap() >= 0.0);
    }
}

#[test]
fn tiny_client_deadlines_degrade_per_request_without_tripping_the_breaker() {
    let mut c = Client::new(server_addr());
    // A 3 ms budget can never afford the full tier (FULL_FLOOR_MS = 5),
    // so every one of these steps down the ladder — but a client-chosen
    // budget must not count as a model-path failure, or one stingy
    // client would trip the breaker into passthrough for everyone
    // (default threshold 5). A budget that expires entirely under CI
    // scheduling sheds with 503, which also must not touch the breaker.
    let mut degraded = 0;
    for _ in 0..12 {
        let r = c
            .post_with_deadline("/rerank", r#"{"user": 42}"#, 3)
            .unwrap();
        assert!(
            r.status == 200 || r.status == 503,
            "{} {}",
            r.status,
            r.body
        );
        if r.status == 200 {
            let v = serde_json::parse_value(&r.body).unwrap();
            assert_ne!(
                v.field("tier").unwrap().as_str().unwrap(),
                "full",
                "a 3 ms budget cannot afford the full tier"
            );
            degraded += 1;
        }
    }
    assert!(
        degraded > 0,
        "every tiny-budget request shed; none degraded"
    );
    let slo = c.get("/slo").unwrap();
    assert_eq!(slo.status, 200);
    let v = serde_json::parse_value(&slo.body).unwrap();
    let resilience = v.field("resilience").unwrap();
    assert_eq!(
        resilience.field("breaker_state").unwrap().as_str().unwrap(),
        "closed",
        "client-side tiny deadlines must not open the breaker"
    );

    // A generous budget immediately serves the full tier again.
    let r = c
        .post_with_deadline("/rerank", r#"{"user": 42}"#, 10_000)
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
}

#[test]
fn invalid_k_is_a_400_before_the_model_path() {
    let mut c = Client::new(server_addr());
    let r = c.post("/rerank", r#"{"user": 1, "k": 0}"#).unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    let r = c.post("/rerank", r#"{"user": 1, "k": 100000}"#).unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    // The service keeps serving valid requests on the same connection.
    let r = c.post("/rerank", r#"{"user": 1}"#).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
}

#[test]
fn replayed_events_are_detected_not_reapplied() {
    let mut c = Client::new(server_addr());
    let body = r#"{"user": 7700, "item": 5, "click": true, "seq": 10}"#;
    let first = c.post("/events", body).unwrap();
    let v = serde_json::parse_value(&first.body).unwrap();
    assert_eq!(v.field("accepted").unwrap().as_u64().unwrap(), 1);
    let second = c.post("/events", body).unwrap();
    assert_eq!(second.status, 200);
    let v = serde_json::parse_value(&second.body).unwrap();
    assert_eq!(v.field("accepted").unwrap().as_u64().unwrap(), 0);
    assert_eq!(v.field("replayed").unwrap().as_u64().unwrap(), 1);
}

#[test]
fn unknown_user_is_a_cold_start_200() {
    let mut c = Client::new(server_addr());
    let r = c
        .post("/rerank", r#"{"user": 18446744073709551615}"#)
        .unwrap();
    assert_eq!(r.status, 200, "unknown users cold-start, not error");
    let v = serde_json::parse_value(&r.body).unwrap();
    assert!(!v.field("items").unwrap().as_array().unwrap().is_empty());
}

#[test]
fn rerank_determinism_over_http() {
    let mut c = Client::new(server_addr());
    let a = c.post("/rerank", r#"{"user": 31337}"#).unwrap();
    let b = c.post("/rerank", r#"{"user": 31337}"#).unwrap();
    let items = |body: &str| {
        let v = serde_json::parse_value(body).unwrap();
        v.field("items")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(items(&a.body), items(&b.body));
}

#[test]
fn truncated_json_and_bad_fields_get_400() {
    let mut c = Client::new(server_addr());
    for body in [
        r#"{"user": 1, "ite"#,
        r#"{"item": 2}"#,
        r#"{"user": 1, "item": 2, "click": "yes"}"#,
        r#"{"events": []}"#,
        "not json at all",
    ] {
        let r = c.post("/events", body).unwrap();
        assert_eq!(r.status, 400, "{body:?} → {}", r.body);
        assert!(r.body.contains("error"), "{}", r.body);
    }
    let r = c.post("/rerank", r#"{"k": 5}"#).unwrap();
    assert_eq!(r.status, 400);
    let r = c.post("/rerank", r#"{"user": 1, "k": 0}"#).unwrap();
    assert_eq!(r.status, 400);
    let r = c.post("/rerank", r#"{"user": 1, "k": 10000}"#).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("maximum"), "{}", r.body);
}

#[test]
fn deeply_nested_bodies_get_400_and_the_server_survives() {
    // The parser recurses once per `[`: without its nesting cap, this
    // body overflows a worker's stack and aborts the whole process.
    let deep = "[".repeat(100_000);
    let mut c = Client::new(server_addr());
    for path in ["/events", "/rerank"] {
        let r = c.post(path, &deep).unwrap();
        assert_eq!(r.status, 400, "{path} → {}", r.body);
        assert!(r.body.contains("nesting"), "{}", r.body);
    }
    let health = Client::new(server_addr()).get("/healthz").unwrap();
    assert_eq!(health.status, 200);
}

#[test]
fn unknown_paths_and_wrong_methods_are_refused() {
    let mut c = Client::new(server_addr());
    assert_eq!(c.get("/nope").unwrap().status, 404);
    assert_eq!(c.get("/rerank").unwrap().status, 405);
    assert_eq!(c.post("/healthz", "{}").unwrap().status, 405);
    assert_eq!(c.post("/slo", "{}").unwrap().status, 405);
    assert_eq!(c.post("/trace", "{}").unwrap().status, 405);
}

#[test]
fn responses_carry_a_fresh_trace_id_per_request() {
    let mut c = Client::new(server_addr());
    let a = c.post("/rerank", r#"{"user": 4242}"#).unwrap();
    let b = c.post("/rerank", r#"{"user": 4242}"#).unwrap();
    let a_id = a.trace_id.expect("rerank response must carry a trace id");
    let b_id = b.trace_id.expect("rerank response must carry a trace id");
    assert_eq!(a_id.len(), 16, "trace id is 16 hex chars: {a_id:?}");
    assert!(a_id.chars().all(|c| c.is_ascii_hexdigit()), "{a_id:?}");
    assert_ne!(a_id, b_id, "each request mints its own trace");
    // Error responses are traced too.
    let bad = c.post("/rerank", "not json").unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.trace_id.is_some(), "4xx responses still stamp the id");
}

#[test]
fn slo_route_reports_the_rerank_objectives() {
    let mut c = Client::new(server_addr());
    // Put at least one request on the SLO substrate first.
    c.post("/rerank", r#"{"user": 606}"#).unwrap();
    let r = c.get("/slo").unwrap();
    assert_eq!(r.status, 200);
    let v = serde_json::parse_value(&r.body).unwrap();
    let slos = v.field("slos").unwrap().as_array().unwrap();
    let names: Vec<String> = slos
        .iter()
        .map(|s| {
            s.field("name")
                .unwrap()
                .as_str()
                .unwrap()
                .trim_matches('"')
                .to_string()
        })
        .collect();
    assert!(
        names.iter().any(|n| n == "rerank_latency"),
        "missing rerank_latency in {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "rerank_availability"),
        "missing rerank_availability in {names:?}"
    );
    let latency = slos
        .iter()
        .find(|s| {
            s.field("name")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("rerank_latency")
        })
        .unwrap();
    assert!(latency.field("total").unwrap().as_u64().unwrap() >= 1);
    let remaining = latency.field("budget_remaining").unwrap().as_f64().unwrap();
    assert!(remaining.is_finite());
    assert!(
        !latency
            .field("windows")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty(),
        "burn-rate windows must be reported"
    );
}

#[test]
fn oversized_body_is_rejected_with_413() {
    // Raw socket: declare a body far over the server cap. The refusal
    // must arrive *without* the server reading 2 MiB first.
    let mut s = TcpStream::connect(server_addr()).unwrap();
    s.write_all(b"POST /events HTTP/1.1\r\nContent-Length: 2097152\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    let _ = s.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");
}

#[test]
fn truncated_body_is_rejected_with_400() {
    let mut s = TcpStream::connect(server_addr()).unwrap();
    s.write_all(b"POST /events HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"user\":")
        .unwrap();
    // Half-close: the server sees EOF before the declared 50 bytes.
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut response = String::new();
    let _ = s.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
}

#[test]
fn unparsable_deadline_hints_fall_back_to_the_default() {
    // A deadline is an optimisation hint, never a reason to 400.
    let mut s = TcpStream::connect(server_addr()).unwrap();
    let body = r#"{"user": 42}"#;
    write!(
        s,
        "POST /rerank HTTP/1.1\r\nX-Rapid-Deadline-Ms: soon\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    let _ = s.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
}

#[test]
fn aggregates_expose_serve_state_as_json() {
    let mut c = Client::new(server_addr());
    // Make sure at least one event and one rerank happened first.
    c.post("/events", r#"{"user": 555, "item": 1}"#).unwrap();
    c.post("/rerank", r#"{"user": 555}"#).unwrap();
    let r = c.get("/aggregates").unwrap();
    assert_eq!(r.status, 200);
    let v = serde_json::parse_value(&r.body).unwrap();
    assert!(v.field("users").unwrap().as_u64().unwrap() >= 1);
    assert!(
        v.field("events")
            .unwrap()
            .field("accepted")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );
    let latency = v.field("rerank_latency").unwrap();
    assert!(latency.field("count").unwrap().as_u64().unwrap() >= 1);
    assert!(latency.field("p99_ms").unwrap().as_f64().unwrap() >= 0.0);
    assert!(v.field("model_epochs_done").unwrap().as_u64().unwrap() >= 1);
    // Per-endpoint HTTP counters are structured, not Prometheus text.
    let http = v.field("http").unwrap();
    assert!(http.field("rerank.200").unwrap().as_u64().unwrap() >= 1);
}

proptest! {
    /// Arbitrary bytes thrown at the socket must never take the server
    /// down: after each volley, a fresh health check still answers.
    #[test]
    fn hostile_raw_bytes_never_kill_the_server(
        raw in proptest::collection::vec(0u32..256, 0..600),
    ) {
        let addr = server_addr();
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.write_all(&bytes);
            // Terminate the frame so malformed volleys fail fast
            // instead of waiting out the server's read timeout.
            let _ = s.write_all(b"\r\n\r\n");
            let _ = s.shutdown(std::net::Shutdown::Write);
            let mut sink = String::new();
            let _ = s.read_to_string(&mut sink);
        }
        let health = Client::new(addr).get("/healthz");
        prop_assert!(matches!(health, Ok(r) if r.status == 200));
    }
}
