//! Seeded random-entity load generator with open-loop arrival.
//!
//! Two phases against a live server:
//!
//! 1. **Ingest** — batched `POST /events` covering a configurable number
//!    of *distinct* external users. Ids come from SplitMix64 over the
//!    seed, which is a bijection on `u64`: distinct indices are distinct
//!    users by construction, so "hundreds of thousands of distinct
//!    users" is a property of the generator, not a hope.
//! 2. **Rerank** — `POST /rerank` at a configured QPS with *open-loop*
//!    arrival: request `i`'s start time is fixed at `i / qps` seconds
//!    from phase start regardless of how fast earlier responses came
//!    back, and latency is measured from that scheduled instant, so
//!    server-side queueing delay counts against the latency budget the
//!    way it would for real independent clients.
//!
//! Worker threads share the schedule through one atomic cursor; each
//! holds one keep-alive [`Client`] connection.
//!
//! Overload knobs: [`LoadConfig::ramp_qps_to`] turns the rerank phase
//! into a linear QPS ramp (offered load climbing past capacity),
//! [`LoadConfig::deadline_ms`] attaches `X-Rapid-Deadline-Ms` to every
//! rerank, and shed responses (`429`/`503`) are counted separately from
//! other non-2xx — a shed is the server *working as designed* under
//! overload. Ingest rides the [`RetryingClient`] backoff machine;
//! replayed batches are safe because every event carries a `seq`
//! watermark.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::backoff::RetryPolicy;
use crate::client::{Client, RetryingClient};
use crate::state::hash64;

/// Load shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Distinct external users to ingest events for.
    pub users: u64,
    /// Events per `POST /events` batch.
    pub event_batch: usize,
    /// Total `POST /rerank` requests.
    pub reranks: u64,
    /// Open-loop arrival rate for the rerank phase (requests/second).
    pub qps: f64,
    /// Worker threads (one keep-alive connection each).
    pub connections: usize,
    /// Seed for user-id generation and request targeting.
    pub seed: u64,
    /// Run the ingest phase (`false` reuses state a previous run
    /// ingested — overload phases against a warmed server).
    pub ingest: bool,
    /// `X-Rapid-Deadline-Ms` attached to every rerank (`None` → server
    /// default).
    pub deadline_ms: Option<u64>,
    /// When set, the rerank phase ramps the offered QPS linearly from
    /// [`LoadConfig::qps`] to this value over the run — the overload
    /// scenario's "offered load exceeds capacity" sweep.
    pub ramp_qps_to: Option<f64>,
    /// Measure latency from the instant the request was *sent* rather
    /// than its scheduled open-loop instant. Under deliberate overload
    /// the generator itself falls behind schedule, so scheduled-instant
    /// latency measures generator backlog; send-instant latency
    /// isolates what shedding guarantees — the requests the server
    /// chose to serve stay fast. The shed count captures the refused
    /// excess.
    pub latency_from_send: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            users: 120_000,
            event_batch: 2_000,
            reranks: 600,
            qps: 80.0,
            connections: 4,
            seed: 0x10ad,
            ingest: true,
            deadline_ms: None,
            ramp_qps_to: None,
            latency_from_send: false,
        }
    }
}

/// What a load run observed.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Distinct users whose events were sent.
    pub distinct_users: u64,
    /// Events sent across all batches.
    pub events_sent: u64,
    /// `POST /events` requests issued.
    pub event_posts: u64,
    /// `POST /rerank` requests issued.
    pub rerank_requests: u64,
    /// Responses outside the 2xx class (any endpoint), sheds excluded.
    pub non_2xx: u64,
    /// Shed responses (`429`/`503` with `Retry-After`) — deliberate
    /// load-shedding refusals, tracked apart from real failures.
    pub shed: u64,
    /// Client-side retries issued by the ingest phase's backoff.
    pub retries: u64,
    /// Requests that failed at the transport layer.
    pub transport_errors: u64,
    /// Per-request rerank latency in ms, measured from the scheduled
    /// (open-loop) start instant.
    pub latencies_ms: Vec<f64>,
    /// Ingest-phase wall-clock seconds.
    pub ingest_s: f64,
    /// Rerank-phase wall-clock seconds.
    pub rerank_s: f64,
}

impl LoadReport {
    /// Exact latency quantile over the recorded rerank requests (`NaN`
    /// when none completed).
    pub fn latency_quantile(&self, q: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let idx = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }

    /// Achieved rerank throughput (requests/second).
    pub fn achieved_qps(&self) -> f64 {
        if self.rerank_s <= 0.0 {
            return 0.0;
        }
        self.rerank_requests as f64 / self.rerank_s
    }
}

/// The `i`-th distinct external user id for a seed (SplitMix64 is a
/// bijection, so distinct `i` → distinct ids).
pub fn user_id(seed: u64, i: u64) -> u64 {
    hash64(seed ^ (i.wrapping_mul(0x0100_0000_01b3)))
}

/// Runs the two-phase load against a live server at `addr`.
pub fn run(addr: SocketAddr, cfg: &LoadConfig) -> LoadReport {
    let mut report = LoadReport {
        distinct_users: cfg.users,
        ..LoadReport::default()
    };

    // Phase 1: ingest. Batches are split across worker threads by an
    // atomic cursor over batch indices, each client retrying sheds and
    // transport failures with seeded backoff (safe: batches carry seq
    // watermarks, so a replayed batch is deduplicated server-side).
    let batches = (cfg.users as usize).div_ceil(cfg.event_batch.max(1)) as u64;
    let cursor = AtomicU64::new(0);
    let non_2xx = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let transport = AtomicU64::new(0);
    let events_sent = AtomicU64::new(0);
    let t0 = rapid_obs::clock::now();
    if cfg.ingest {
        std::thread::scope(|scope| {
            for w in 0..cfg.connections.max(1) {
                let (cursor, events_sent) = (&cursor, &events_sent);
                let (shed, non_2xx, transport, retries) = (&shed, &non_2xx, &transport, &retries);
                scope.spawn(move || {
                    let mut client =
                        RetryingClient::new(addr, RetryPolicy::default(), cfg.seed ^ w as u64);
                    loop {
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        if b >= batches {
                            break;
                        }
                        let lo = b * cfg.event_batch as u64;
                        let hi = (lo + cfg.event_batch as u64).min(cfg.users);
                        let body = events_batch_body(cfg.seed, lo, hi);
                        events_sent.fetch_add(hi - lo, Ordering::Relaxed);
                        match client.post_retrying("/events", &body, None) {
                            Ok(r) if (200..300).contains(&r.status) => {}
                            Ok(r) if r.is_shed() => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(_) => {
                                non_2xx.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                transport.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    retries.fetch_add(client.retries, Ordering::Relaxed);
                });
            }
        });
    }
    report.ingest_s = t0.elapsed().as_secs_f64();
    report.event_posts = if cfg.ingest { batches } else { 0 };
    report.events_sent = events_sent.load(Ordering::Relaxed);

    // Phase 2: rerank at open-loop arrival. The schedule is fixed up
    // front: constant spacing at `qps`, or — under `ramp_qps_to` — the
    // instantaneous rate climbing linearly, so offered load sweeps past
    // capacity within one run.
    let schedule = arrival_schedule(cfg);
    let cursor = AtomicU64::new(0);
    let latencies = Mutex::new(Vec::with_capacity(cfg.reranks as usize));
    let t1 = rapid_obs::clock::now();
    std::thread::scope(|scope| {
        for _ in 0..cfg.connections.max(1) {
            let (schedule, cursor, latencies) = (&schedule, &cursor, &latencies);
            let (shed, non_2xx, transport) = (&shed, &non_2xx, &transport);
            scope.spawn(move || {
                let mut client = Client::new(addr);
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= cfg.reranks {
                        break;
                    }
                    let scheduled_s = schedule[i as usize];
                    loop {
                        let now_s = t1.elapsed().as_secs_f64();
                        if now_s >= scheduled_s {
                            break;
                        }
                        std::thread::sleep(Duration::from_secs_f64(
                            (scheduled_s - now_s).min(0.005),
                        ));
                    }
                    let u = user_id(cfg.seed, hash64(cfg.seed ^ i) % cfg.users);
                    let body = format!("{{\"user\": {u}}}");
                    let sent_at = t1.elapsed().as_secs_f64();
                    let result = match cfg.deadline_ms {
                        Some(ms) => client.post_with_deadline("/rerank", &body, ms),
                        None => client.post("/rerank", &body),
                    };
                    match result {
                        Ok(r) if (200..300).contains(&r.status) => {
                            let done = t1.elapsed().as_secs_f64();
                            // Open-loop latency: from the scheduled
                            // instant, so generator lag counts too —
                            // unless the config asks for send-instant
                            // (overload phases).
                            let from = if cfg.latency_from_send {
                                sent_at
                            } else {
                                scheduled_s.min(sent_at)
                            };
                            local.push((done - from) * 1e3);
                        }
                        Ok(r) if r.is_shed() => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {
                            non_2xx.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            transport.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                match latencies.lock() {
                    Ok(mut all) => all.extend(local),
                    Err(poisoned) => poisoned.into_inner().extend(local),
                }
            });
        }
    });
    report.rerank_s = t1.elapsed().as_secs_f64();
    report.rerank_requests = cfg.reranks;
    report.non_2xx = non_2xx.load(Ordering::Relaxed);
    report.shed = shed.load(Ordering::Relaxed);
    report.retries = retries.load(Ordering::Relaxed);
    report.transport_errors = transport.load(Ordering::Relaxed);
    report.latencies_ms = match latencies.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    };
    report
}

/// Per-request scheduled start times (seconds from phase start).
/// Constant rate without a ramp; with `ramp_qps_to`, request `i+1`
/// follows request `i` by `1 / rate(i)` where the rate interpolates
/// linearly across the run.
fn arrival_schedule(cfg: &LoadConfig) -> Vec<f64> {
    let n = cfg.reranks as usize;
    let q0 = cfg.qps.max(1e-6);
    let q1 = cfg.ramp_qps_to.unwrap_or(q0).max(1e-6);
    let mut schedule = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for i in 0..n {
        schedule.push(t);
        let frac = if n > 1 {
            i as f64 / (n - 1) as f64
        } else {
            0.0
        };
        let rate = q0 + (q1 - q0) * frac;
        t += 1.0 / rate;
    }
    schedule
}

/// The `/events` body covering users `lo..hi` of the seeded id space.
/// Every third event is an impression (no click), and each event
/// carries `seq: 1` so a full replay of the same batch is detected
/// server-side.
fn events_batch_body(seed: u64, lo: u64, hi: u64) -> String {
    let mut body = String::with_capacity(48 * (hi - lo) as usize);
    body.push_str("{\"events\": [");
    for i in lo..hi {
        if i > lo {
            body.push(',');
        }
        let u = user_id(seed, i);
        let item = hash64(u ^ 0x17e3) % 100_000;
        let click = i % 3 != 0;
        body.push_str(&format!(
            "{{\"user\": {u}, \"item\": {item}, \"click\": {click}, \"seq\": 1}}"
        ));
    }
    body.push_str("]}");
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_ids_are_distinct_across_a_large_range() {
        let mut ids: Vec<u64> = (0..200_000).map(|i| user_id(9, i)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200_000, "SplitMix64 must not collide");
    }

    #[test]
    fn batch_bodies_are_valid_json_with_the_right_count() {
        let body = events_batch_body(9, 0, 50);
        let v = serde_json::parse_value(&body).unwrap();
        let events = v.field("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 50);
        for e in events {
            e.field("user").unwrap().as_u64().unwrap();
            e.field("item").unwrap().as_u64().unwrap();
        }
    }

    #[test]
    fn ramped_schedules_compress_toward_the_target_rate() {
        let cfg = LoadConfig {
            reranks: 100,
            qps: 10.0,
            ramp_qps_to: Some(100.0),
            ..LoadConfig::default()
        };
        let s = arrival_schedule(&cfg);
        assert_eq!(s.len(), 100);
        assert_eq!(s[0], 0.0);
        assert!(s.windows(2).all(|w| w[1] > w[0]), "monotone arrivals");
        let first_gap = s[1] - s[0];
        let last_gap = s[99] - s[98];
        assert!(
            last_gap < first_gap / 5.0,
            "late arrivals must be much denser: first {first_gap}, last {last_gap}"
        );

        // No ramp → constant spacing at 1/qps.
        let flat = arrival_schedule(&LoadConfig {
            reranks: 10,
            qps: 50.0,
            ramp_qps_to: None,
            ..LoadConfig::default()
        });
        for w in flat.windows(2) {
            assert!((w[1] - w[0] - 0.02).abs() < 1e-9);
        }
    }

    #[test]
    fn latency_quantiles_are_exact_order_statistics() {
        let r = LoadReport {
            latencies_ms: vec![5.0, 1.0, 3.0, 2.0, 4.0],
            ..LoadReport::default()
        };
        assert_eq!(r.latency_quantile(0.0), 1.0);
        assert_eq!(r.latency_quantile(0.5), 3.0);
        assert_eq!(r.latency_quantile(1.0), 5.0);
        assert!(LoadReport::default().latency_quantile(0.5).is_nan());
    }
}
