//! Serving load test: boots the `rapid-serve` stack end to end —
//! train a checkpoint artifact, hot-load it into a [`ServeModel`],
//! start the HTTP server on a loopback port — then drives the seeded
//! random-entity load generator against it and writes
//! `BENCH_serve.json` (repo root, the committed gate report) plus
//! `telemetry_serve.ndjson`, `trace_serve.json` (Chrome trace with
//! tail-exemplar span trees), and `slo_serve.json` under `--out-dir`.
//!
//! The load has two phases (see `rapid_serve::loadgen`): batched
//! `/events` ingest covering ≥ 100k *distinct* simulated users
//! (SplitMix64 ids — distinctness by construction), then `/rerank` at
//! a fixed open-loop arrival rate where latency is measured from each
//! request's *scheduled* instant, so server-side queueing counts
//! against the recorded p50/p99 exactly as it would for independent
//! real clients.
//!
//! After the steady run, three resilience scenarios execute against
//! the same warmed state:
//!
//! 1. **Hot-swap under load** — a side thread POSTs `/admin/reload`
//!    mid-run while in-capacity traffic flows; the budget is zero
//!    disruptions (no non-2xx, no sheds, no transport errors, no
//!    dropped requests) across the swap.
//! 2. **Overload ramp** — the server restarts with a tiny accept
//!    queue, `serve.slow` injects per-request latency, and offered QPS
//!    ramps linearly past capacity with a 50 ms deadline on every
//!    request. The budget: shedding engages (`shed > 0`) while the 2xx
//!    goodput p99 — measured from send, isolating server behavior from
//!    generator backlog — stays ≤ 50 ms, and no 2xx ever misses its
//!    deadline.
//! 3. **Corrupt swap** — `ckpt.corrupt` arms, `/admin/reload` must be
//!    rejected without touching live parameters (asserted
//!    byte-identical), and the live model must still answer 2xx.
//!
//! The run lowers the tail-exemplar threshold so p99-ish requests
//! retain their span trees, then mines the registry snapshot for the
//! observability budgets: how many tail exemplars crossed the
//! serve → model → exec stage boundary, how much of the slowest such
//! request's latency its top-level stages account for, and whether any
//! declared SLO spent its error budget. A post-load in-process A/B
//! pass (tracing on vs off, interleaved) measures the tracing overhead
//! fraction.
//!
//! The report is judged by `rapid-bench --check --serve
//! BENCH_serve.json` against absolute budgets (p50/p99 ≤ 50 ms,
//! ≥ 100k distinct users, zero non-2xx / transport / degraded /
//! fallback / panic / fault-drop counts, tracing overhead ≤ 5%, ≥ 1
//! cross-stage tail exemplar with a coherent span sum, zero exhausted
//! SLO budgets, plus the resilience budgets above). This binary only
//! *produces* the report; the gate stays in one place.

use std::sync::Arc;

use rapid_bench::Cli;
use rapid_faults::FaultPlan;
use rapid_obs::Span;
use rapid_serve::{
    run_load, start, train_artifact, AppState, Client, LoadConfig, ServeConfig, ServeModel,
    ServerConfig,
};
use serde::Serialize;

/// Reranks per arm in the tracing-overhead A/B pass.
const OVERHEAD_CALLS: usize = 200;

#[derive(Serialize)]
struct ServeReport {
    scale: String,
    seed: u64,
    /// Distinct simulated users ingested (generator-guaranteed).
    distinct_users: u64,
    events_sent: u64,
    event_posts: u64,
    rerank_requests: u64,
    qps_target: f64,
    achieved_qps: f64,
    ingest_s: f64,
    rerank_s: f64,
    /// Open-loop rerank latency quantiles, ms (queueing included).
    rerank_p50_ms: f64,
    rerank_p90_ms: f64,
    rerank_p99_ms: f64,
    rerank_max_ms: f64,
    non_2xx: u64,
    transport_errors: u64,
    /// `exec.*` degradation counters — the hot path went through
    /// `rerank_batch`, so a panic anywhere would show up here.
    degraded_requests: u64,
    fallback_requests: u64,
    panics: u64,
    requests_dropped: u64,
    /// Server-side user-store size after ingest (`serve.users` gauge).
    user_store_size: u64,
    events_accepted: u64,
    events_replayed: u64,
    train_ms: f64,
    boot_ms: f64,
    /// Median-latency fraction added by request tracing, from the
    /// interleaved in-process A/B pass (clamped at 0).
    trace_overhead_frac: f64,
    /// Retained `serve.rerank_ms` tail exemplars whose span trees cross
    /// all of the `serve/`, `model/`, and `exec/` stage prefixes.
    tail_exemplars: u64,
    /// For the slowest crossing exemplar: top-level stage duration sum
    /// over measured request latency (0 when none was retained).
    exemplar_span_frac: f64,
    /// Declared SLOs whose error budget was spent during the run.
    slo_exhausted: u64,
    /// The tightest remaining error budget across declared SLOs
    /// (1 = untouched, ≤ 0 = exhausted).
    slo_budget_remaining: f64,
    /// Mid-run `/admin/reload` answered 2xx while load flowed.
    swap_ok: bool,
    /// Wall time of the successful hot-swap (from its response body).
    swap_ms: f64,
    /// Disruptions during the swap phase: non-2xx + sheds + transport
    /// errors + requests dropped. Budget: zero.
    swap_disruptions: u64,
    /// Peak offered QPS of the overload ramp.
    overload_offered_qps: f64,
    /// 2xx goodput p99 during overload, ms, measured from send.
    overload_goodput_p99_ms: f64,
    /// Shed responses (`429`/`503`) during overload — must be > 0, the
    /// server refusing excess instead of queueing without bound.
    overload_shed: u64,
    /// Transport-layer failures during overload (clients abandoning
    /// queued connections) — reported, not budgeted.
    overload_transport_errors: u64,
    /// 2xx responses that finished past their deadline budget, across
    /// every phase. Budget: zero — shed instead of serving late.
    deadline_miss_2xx: u64,
    /// Circuit-breaker trips across the whole run (informational).
    breaker_trips: u64,
    /// `/admin/reload` with a corrupted artifact was rejected.
    corrupt_swap_rejected: bool,
    /// Live model still answered 2xx with byte-identical parameters
    /// after the rejected swap.
    corrupt_swap_live_intact: bool,
}

fn main() {
    let cli = Cli::parse();
    rapid_obs::set_out_dir(&cli.out_dir);
    let out_dir = rapid_obs::ensure_out_dir().expect("create --out-dir");

    let full = cli.scale_tag() == "full";
    let (serve_cfg, load_cfg) = match cli.scale_tag() {
        "full" => (
            ServeConfig {
                seed: cli.seed,
                num_users: 120,
                num_items: 600,
                epochs: 3,
                ..ServeConfig::default()
            },
            LoadConfig {
                users: 400_000,
                event_batch: 4_000,
                reranks: 2_000,
                qps: 120.0,
                connections: 4,
                seed: cli.seed ^ 0x10ad,
                ..LoadConfig::default()
            },
        ),
        _ => (
            ServeConfig {
                seed: cli.seed,
                ..ServeConfig::default()
            },
            LoadConfig {
                seed: cli.seed ^ 0x10ad,
                ..LoadConfig::default()
            },
        ),
    };
    println!(
        "bench_serve [{}] seed={} users={} reranks={} qps={}",
        cli.scale_tag(),
        cli.seed,
        load_cfg.users,
        load_cfg.reranks,
        load_cfg.qps
    );

    // Train the checkpoint artifact the server hot-loads from — the
    // same `Checkpointer` v2 format the training loop writes. A leftover
    // artifact would be resumed instead, and `train_ms` would time the
    // resume rather than a fit.
    let ckpt = out_dir.join("serve.ckpt");
    if let Err(e) = std::fs::remove_file(&ckpt) {
        assert!(
            e.kind() == std::io::ErrorKind::NotFound,
            "remove leftover {}: {e}",
            ckpt.display()
        );
    }
    let span = Span::enter("bench_serve.train");
    train_artifact(&serve_cfg, &ckpt).expect("train serve artifact");
    let train_ms = span.finish().as_secs_f64() * 1e3;

    let span = Span::enter("bench_serve.boot");
    let model = ServeModel::boot(&serve_cfg, &ckpt).expect("boot from artifact");
    let boot_ms = span.finish().as_secs_f64() * 1e3;

    // Keep a handle on the state: the resilience phases and the A/B
    // overhead pass reuse the same model slot. The artifact path arms
    // `/admin/reload`.
    let state = Arc::new(AppState::new(model).with_artifact(ckpt.clone()));
    let handle = start(Arc::clone(&state), &ServerConfig::default()).expect("bind loopback server");
    println!("serving on {} — starting load", handle.addr());

    // Lower the tail threshold below the expected p99 so slow-but-real
    // requests retain exemplar span trees (full-scale p99 sits well
    // above 2 ms; at quick scale everything qualifies and eviction
    // keeps the slowest).
    rapid_obs::set_trace_tail_ms(if full { 2.0 } else { 0.0 });

    let load = run_load(handle.addr(), &load_cfg);
    // Snapshot before the resilience phases and the A/B pass so their
    // deliberate chaos pollutes neither the steady-state error counts
    // nor the exemplar ring / SLO timeline in the report.
    let snapshot = rapid_obs::global().snapshot();

    // ── Phase S2: zero-downtime hot-swap under in-capacity load ──────
    let swap_load_cfg = LoadConfig {
        users: load_cfg.users,
        ingest: false,
        reranks: if full { 400 } else { 200 },
        qps: if full { 60.0 } else { 40.0 },
        connections: 2,
        seed: load_cfg.seed ^ 0x5a9,
        ..LoadConfig::default()
    };
    let dropped_before = rapid_obs::global()
        .snapshot()
        .counter("serve.requests_dropped");
    let swap_at =
        std::time::Duration::from_secs_f64(swap_load_cfg.reranks as f64 / swap_load_cfg.qps * 0.3);
    let swap_addr = handle.addr();
    let swapper = std::thread::spawn(move || {
        std::thread::sleep(swap_at);
        Client::new(swap_addr).post("/admin/reload", "")
    });
    let swap_load = run_load(handle.addr(), &swap_load_cfg);
    let swap_resp = swapper.join().expect("swap thread joins");
    let dropped_after = rapid_obs::global()
        .snapshot()
        .counter("serve.requests_dropped");
    let (swap_ok, swap_ms) = match &swap_resp {
        Ok(r) if r.status == 200 => {
            let ms = serde_json::parse_value(&r.body)
                .ok()
                .and_then(|v| v.field("swap_ms").ok().and_then(|f| f.as_f64().ok()))
                .unwrap_or(0.0);
            (true, ms)
        }
        _ => (false, 0.0),
    };
    let swap_disruptions = swap_load.non_2xx
        + swap_load.shed
        + swap_load.transport_errors
        + (dropped_after - dropped_before);
    println!(
        "hot-swap under load: ok={swap_ok} swap_ms={swap_ms:.1} \
         disruptions={swap_disruptions} (reload status {:?})",
        swap_resp.as_ref().map(|r| r.status)
    );

    // ── Phase S3: overload ramp against a tiny accept queue ──────────
    // Restart with queue_capacity=2 so excess connections shed at
    // accept instead of buffering; `serve.slow` inflates per-request
    // service time so capacity is deterministic-ish and well below the
    // ramp's peak offered rate.
    handle.stop();
    let overload_handle = start(
        Arc::clone(&state),
        &ServerConfig {
            queue_capacity: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind overload server");
    rapid_faults::install(FaultPlan::parse("serve.slow=delay:15").expect("fault spec parses"));
    let overload_cfg = LoadConfig {
        users: load_cfg.users,
        ingest: false,
        reranks: if full { 600 } else { 300 },
        qps: 40.0,
        ramp_qps_to: Some(if full { 500.0 } else { 400.0 }),
        deadline_ms: Some(50),
        latency_from_send: true,
        connections: 12,
        seed: load_cfg.seed ^ 0x07e1,
        ..LoadConfig::default()
    };
    let overload = run_load(overload_handle.addr(), &overload_cfg);
    rapid_faults::clear();
    let overload_offered_qps = overload_cfg.ramp_qps_to.unwrap_or(overload_cfg.qps);
    let overload_goodput_p99_ms = overload.latency_quantile(0.99);
    println!(
        "overload ramp to {overload_offered_qps:.0} qps: goodput_p99 {:.3} ms \
         shed={} non_2xx={} transport={}",
        overload_goodput_p99_ms, overload.shed, overload.non_2xx, overload.transport_errors
    );

    // ── Phase S4: corrupted-checkpoint swap is rejected, live intact ─
    let params_before = state.model().params_bytes();
    rapid_faults::install(FaultPlan::parse("ckpt.corrupt=io-error").expect("fault spec parses"));
    let corrupt_resp = Client::new(overload_handle.addr()).post("/admin/reload", "");
    rapid_faults::clear();
    let corrupt_swap_rejected = matches!(&corrupt_resp, Ok(r) if r.status == 409);
    let params_after = state.model().params_bytes();
    let live_check =
        Client::new(overload_handle.addr()).post("/rerank", &format!("{{\"user\": {}}}", 7u64));
    let corrupt_swap_live_intact = params_before == params_after
        && matches!(&live_check, Ok(r) if (200..300).contains(&r.status));
    println!(
        "corrupt swap: rejected={corrupt_swap_rejected} live_intact={corrupt_swap_live_intact} \
         (reload status {:?})",
        corrupt_resp.as_ref().map(|r| r.status)
    );
    overload_handle.stop();

    let final_counters = rapid_obs::global().snapshot();
    let deadline_miss_2xx = final_counters.counter("serve.deadline_miss");
    let breaker_trips = final_counters.counter("serve.breaker.trips");

    rapid_obs::set_trace_tail_ms(50.0);
    let trace_overhead_frac = trace_overhead(&state, serve_cfg.list_len);

    let crossing: Vec<&rapid_obs::Exemplar> = snapshot
        .exemplars()
        .iter()
        .filter(|e| {
            let has = |prefix: &str| e.stages.iter().any(|s| s.name.starts_with(prefix));
            e.hist == "serve.rerank_ms" && has("serve/") && has("model/") && has("exec/")
        })
        .collect();
    let exemplar_span_frac = crossing
        .iter()
        .max_by_key(|e| e.total_us)
        .map(|e| {
            let top: u64 = e
                .stages
                .iter()
                .filter(|s| !s.nested)
                .map(|s| s.dur_us)
                .sum();
            top as f64 / e.total_us.max(1) as f64
        })
        .unwrap_or(0.0);

    let slos = rapid_obs::evaluate_slos(&snapshot);
    let slo_exhausted = slos.iter().filter(|s| s.exhausted).count() as u64;
    let slo_budget_remaining = slos
        .iter()
        .map(|s| s.budget_remaining)
        .fold(1.0f64, f64::min);

    let report = ServeReport {
        scale: cli.scale_tag().to_string(),
        seed: cli.seed,
        distinct_users: load.distinct_users,
        events_sent: load.events_sent,
        event_posts: load.event_posts,
        rerank_requests: load.rerank_requests,
        qps_target: load_cfg.qps,
        achieved_qps: load.achieved_qps(),
        ingest_s: load.ingest_s,
        rerank_s: load.rerank_s,
        rerank_p50_ms: load.latency_quantile(0.50),
        rerank_p90_ms: load.latency_quantile(0.90),
        rerank_p99_ms: load.latency_quantile(0.99),
        rerank_max_ms: load.latency_quantile(1.0),
        non_2xx: load.non_2xx,
        transport_errors: load.transport_errors,
        degraded_requests: snapshot.counter("exec.degraded_requests"),
        fallback_requests: snapshot.counter("exec.fallback_requests"),
        panics: snapshot.counter("serve.panics"),
        requests_dropped: snapshot.counter("serve.requests_dropped"),
        user_store_size: snapshot.gauge("serve.users").unwrap_or(0.0) as u64,
        events_accepted: snapshot.counter("serve.events_accepted"),
        events_replayed: snapshot.counter("serve.events_replayed"),
        train_ms,
        boot_ms,
        trace_overhead_frac,
        tail_exemplars: crossing.len() as u64,
        exemplar_span_frac,
        slo_exhausted,
        slo_budget_remaining,
        swap_ok,
        swap_ms,
        swap_disruptions,
        overload_offered_qps,
        overload_goodput_p99_ms,
        overload_shed: overload.shed,
        overload_transport_errors: overload.transport_errors,
        deadline_miss_2xx,
        breaker_trips,
        corrupt_swap_rejected,
        corrupt_swap_live_intact,
    };

    println!(
        "ingest: {} events over {} users in {:.2}s ({} posts)",
        report.events_sent, report.distinct_users, report.ingest_s, report.event_posts
    );
    println!(
        "rerank: {} requests at {:.1}/{:.1} qps (achieved/target), \
         p50 {:.3} ms p90 {:.3} ms p99 {:.3} ms max {:.3} ms",
        report.rerank_requests,
        report.achieved_qps,
        report.qps_target,
        report.rerank_p50_ms,
        report.rerank_p90_ms,
        report.rerank_p99_ms,
        report.rerank_max_ms
    );
    println!(
        "errors: non_2xx={} transport={} degraded={} fallback={} panics={} dropped={}",
        report.non_2xx,
        report.transport_errors,
        report.degraded_requests,
        report.fallback_requests,
        report.panics,
        report.requests_dropped
    );
    println!(
        "resilience: deadline_miss_2xx={} breaker_trips={} overload_shed={}",
        report.deadline_miss_2xx, report.breaker_trips, report.overload_shed
    );
    println!(
        "tracing: overhead {:.2}% tail_exemplars={} span_frac {:.3} \
         slo_exhausted={} budget_remaining {:.3}",
        report.trace_overhead_frac * 100.0,
        report.tail_exemplars,
        report.exemplar_span_frac,
        report.slo_exhausted,
        report.slo_budget_remaining
    );

    let json = serde_json::to_string_pretty(&report).expect("serve report serialises");
    std::fs::write("BENCH_serve.json", json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");

    let telemetry = out_dir.join("telemetry_serve.ndjson");
    std::fs::write(&telemetry, snapshot.to_ndjson()).expect("write telemetry_serve.ndjson");
    println!("wrote {}", telemetry.display());

    let trace = out_dir.join("trace_serve.json");
    std::fs::write(&trace, snapshot.to_chrome_trace()).expect("write trace_serve.json");
    println!("wrote {}", trace.display());

    let slo = out_dir.join("slo_serve.json");
    std::fs::write(&slo, rapid_obs::slo_json(&snapshot)).expect("write slo_serve.json");
    println!("wrote {}", slo.display());
}

/// Measures the latency fraction request tracing adds to an in-process
/// rerank: warm up, then interleave traced and untraced calls (same
/// users, same list length, tracing toggled per call so drift hits both
/// arms equally) and compare median per-call latency. Clamped at 0 —
/// noise can make the traced arm come out faster.
fn trace_overhead(state: &AppState, k: usize) -> f64 {
    let model = state.model();
    for u in 0..32u64 {
        let _ = model.rerank(1_000_000 + u, None, k);
    }
    let mut traced = Vec::with_capacity(OVERHEAD_CALLS);
    let mut untraced = Vec::with_capacity(OVERHEAD_CALLS);
    for i in 0..2 * OVERHEAD_CALLS {
        let on = i % 2 == 0;
        rapid_obs::set_trace_enabled(on);
        let user = 2_000_000 + (i as u64 / 2);
        let t = rapid_obs::clock::now();
        {
            let mut guard = rapid_obs::trace::start_request("rerank");
            guard.set_latency_hist("serve.rerank_ms");
            let _ = model.rerank(user, None, k);
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if on {
            traced.push(ms);
        } else {
            untraced.push(ms);
        }
    }
    rapid_obs::set_trace_enabled(true);
    let on = median(&mut traced);
    let off = median(&mut untraced);
    if off <= 0.0 {
        return 0.0;
    }
    ((on - off) / off).max(0.0)
}

fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}
