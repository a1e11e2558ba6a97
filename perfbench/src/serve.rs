//! The `rerank` and `ingest` workloads: the service booted in-process
//! from a checkpoint artifact and driven over loopback HTTP.
//!
//! * `rerank` serves reads only: open-loop slices at a fixed rate well
//!   under capacity (latency timed from each request's scheduled send)
//!   alternate with closed-loop slices on two connections (capacity).
//! * `ingest` runs writes beside reads: one connection posts `/events`
//!   batches closed-loop while a second sends `/rerank` open-loop. Its
//!   `p50_ms` is the client time per post. The `/rerank` latency beside
//!   the writes is reported per layer (`serve.read_p50_ms`): on a shared
//!   2-vCPU host it moved by 0.19–0.24 of its median (quartile spread)
//!   across ten runs, too much to bound.
//!
//! Set-up (timed as `setup_s`, several times per run) is boot, start and
//! an in-process warm-up of the user store. The artifact is trained once
//! per run before that, untimed: a restarting operator pays for boot,
//! not for training. Every measured connection is opened, and one
//! untimed request sent on it, before timing starts, so neither the
//! server's accept poll nor a connection held over from set-up falls
//! inside a timed span. While the service is measured, idle CPUs are
//! kept awake ([`crate::host`]).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rapid_data::Flavor;
use rapid_eval::{ExperimentConfig, Scale};
use rapid_metrics::{topic_coverage_at_k, Dcm};
use rapid_serve::{api, start, train_artifact, AppState, ServeConfig, ServeHandle, ServeModel};
use rapid_serve::{ServerConfig, UserStore};
use serde::Value;

use crate::client::Conn;
use crate::host::IdleKeepers;
use crate::plan::{self, Event, IngestPlan, RerankStream};
use crate::report::Outcome;
use crate::stats::{median, quantile_sorted, sorted};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Open-loop `/rerank` rate of the `rerank` workload (capacity is about
/// ten times higher on two cores).
const RERANK_RATE: f64 = 400.0;
/// Open-loop `/rerank` rate beside the `/events` stream in `ingest`.
const INGEST_READ_RATE: f64 = 200.0;
/// The `rerank` workload alternates open-loop and closed-loop slices of
/// this length.
const SLICE: Duration = Duration::from_secs(1);
/// Closed-loop client connections (at most `nproc` on the reference
/// host and below the server's default worker count).
const CLOSED_CONNS: usize = 2;
/// `/events` posts per block of the ingest throughput.
const POSTS_PER_BLOCK: usize = 4;
/// Every `SAMPLE_EVERY`-th open-loop request is replayed in-process.
const SAMPLE_EVERY: usize = 10;
/// Users whose served lists give `click_at_5` and `div_at_5`.
const COHORT: usize = 1024;
/// Before its due time the open-loop sender sleeps to within this much,
/// then busy-waits: a sleep's wake-up is late by about 0.1 ms here, and
/// yielding instead of spinning can hand the CPU away for a whole tick.
const SPIN: Duration = Duration::from_micros(250);

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Rerank,
    Ingest,
}

/// A booted, started and warmed service.
struct Live {
    state: Arc<AppState>,
    handle: ServeHandle,
}

fn io_fail(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

/// Applies the warm-up through the store call `/events` uses. The events
/// are drawn from the seed as they are applied, inside the timed warm-up.
fn warm(store: &UserStore, model: &ServeModel, events: impl Iterator<Item = Event>) {
    let ds = model.dataset();
    for (user, item, click, seq) in events {
        let cov = click.then(|| ds.items[item].coverage.as_slice());
        store.apply_event(user, item, cov, Some(seq));
    }
}

/// Boot + start + warm-up, returning the service and its timings in ms.
fn setup(cfg: &ServeConfig, ckpt: &Path, seed: u64) -> Result<(Live, f64, f64, f64), String> {
    let t0 = Instant::now();
    let model = ServeModel::boot(cfg, ckpt).map_err(|e| io_fail("boot", e))?;
    let boot_ms = t0.elapsed().as_secs_f64() * 1e3;
    let state = Arc::new(AppState::new(model));
    let handle =
        start(Arc::clone(&state), &ServerConfig::default()).map_err(|e| io_fail("start", e))?;
    let t1 = Instant::now();
    let model = state.model();
    warm(
        &state.store,
        &model,
        plan::warm_events(seed, model.dataset().items.len()),
    );
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok((Live { state, handle }, boot_ms, warm_ms, total_ms))
}

/// Sleeps, then busy-waits, until `due`.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A checked `/rerank` answer.
enum Answer {
    /// 2xx at the full tier with `k` distinct in-range items.
    Full { base_user: usize, items: Vec<usize> },
    /// Shed, errored, or degraded: a failure, but not a wrong answer.
    Failed(String),
    /// A 2xx whose items are not a valid list: a wrong answer.
    Wrong(String),
}

fn check_rerank(status: u16, body: &[u8], k: usize, num_items: usize) -> Answer {
    if status != 200 {
        return Answer::Failed(format!("status {status}"));
    }
    let parsed = std::str::from_utf8(body)
        .ok()
        .and_then(|t| serde_json::parse_value(t).ok());
    let Some(v) = parsed else {
        return Answer::Wrong("unparsable 2xx body".to_string());
    };
    let tier = v
        .field("tier")
        .ok()
        .and_then(|t| t.as_str().ok())
        .unwrap_or("");
    if tier != "full" {
        return Answer::Failed(format!("tier {tier:?}"));
    }
    let items: Option<Vec<usize>> =
        v.field("items")
            .ok()
            .and_then(|a| a.as_array().ok())
            .map(|a| {
                a.iter()
                    .filter_map(|x| x.as_u64().ok().map(|x| x as usize))
                    .collect()
            });
    let base_user = v.field("base_user").ok().and_then(|b| b.as_u64().ok());
    let (Some(items), Some(base_user)) = (items, base_user) else {
        return Answer::Wrong("2xx body without items/base_user".to_string());
    };
    let mut distinct = items.clone();
    distinct.sort_unstable();
    distinct.dedup();
    if items.len() != k || distinct.len() != k || items.iter().any(|&v| v >= num_items) {
        return Answer::Wrong(format!("items {items:?} are not {k} distinct in-range ids"));
    }
    Answer::Full {
        base_user: base_user as usize,
        items,
    }
}

/// Tallies of one request stream.
#[derive(Default)]
struct Tally {
    sent: u64,
    failed: u64,
    wrong: Vec<String>,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, a: &Answer) -> bool {
        self.sent += 1;
        match a {
            Answer::Full { .. } => return true,
            Answer::Failed(why) => self.failures.push(why.clone()),
            Answer::Wrong(why) => self.wrong.push(why.clone()),
        }
        self.failed += 1;
        false
    }

    fn merge(&mut self, o: Tally) {
        self.sent += o.sent;
        self.failed += o.failed;
        self.wrong.extend(o.wrong);
        self.failures.extend(o.failures);
    }

    fn into_outcome(self, what: &str, out: &mut Outcome) {
        out.count(self.sent, self.failed);
        if let Some(first) = self.failures.first() {
            out.note(
                format!("{what}.failures"),
                format!("{} (first: {first})", self.failures.len()),
            );
        }
        if !self.wrong.is_empty() {
            out.problem(format!(
                "{what}: {} wrong answer(s), first: {}",
                self.wrong.len(),
                self.wrong[0]
            ));
        }
    }
}

/// Open-loop `/rerank` results.
#[derive(Default)]
struct OpenLoop {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// `(user, items)` of every `SAMPLE_EVERY`-th request that succeeded.
    sample: Vec<(u64, Vec<usize>)>,
    tally: Tally,
}

impl OpenLoop {
    /// Sends `/rerank` at `rate` per second from `start` until `until`,
    /// timing each request from its scheduled send.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        conn: &mut Conn,
        addr: std::net::SocketAddr,
        stream: &mut RerankStream,
        rate: f64,
        start: Instant,
        until: Instant,
        k: usize,
        num_items: usize,
    ) {
        for i in 0.. {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            if due >= until {
                break;
            }
            let n = self.tally.sent as usize;
            let user = stream.next_user();
            let body = plan::rerank_body(user);
            wait_until(due);
            self.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let resp = conn.request("POST", "/rerank", &body);
            self.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let answer = match resp {
                Ok(resp) => check_rerank(resp.status, &resp.body, k, num_items),
                Err(e) => {
                    if let Ok(fresh) = Conn::open(addr) {
                        *conn = fresh;
                    }
                    Answer::Failed(format!("transport: {e}"))
                }
            };
            if self.tally.record(&answer) && n.is_multiple_of(SAMPLE_EVERY) {
                if let Answer::Full { items, .. } = answer {
                    self.sample.push((user, items));
                }
            }
        }
    }
}

/// A connection that has already been served once, so the server's
/// accept poll is behind it.
fn ready_conn(addr: std::net::SocketAddr) -> Result<Conn, String> {
    let mut c = Conn::open(addr).map_err(|e| io_fail("connect", e))?;
    let r = c
        .request("GET", "/healthz", b"")
        .map_err(|e| io_fail("healthz", e))?;
    if r.status != 200 {
        return Err(format!("healthz answered {}", r.status));
    }
    Ok(c)
}

/// The server's `/aggregates` counters that the workloads read.
struct Counters {
    shed: u64,
    degraded: u64,
    deadline_miss: u64,
    accepted: u64,
    replayed: u64,
    users: u64,
}

fn counters(addr: std::net::SocketAddr) -> Result<Counters, String> {
    let mut c = Conn::open(addr).map_err(|e| io_fail("connect", e))?;
    let r = c
        .request("GET", "/aggregates", b"")
        .map_err(|e| io_fail("aggregates", e))?;
    let text = String::from_utf8(r.body).map_err(|_| "aggregates: not UTF-8".to_string())?;
    let v = serde_json::parse_value(&text).map_err(|e| format!("aggregates: {e:?}"))?;
    let get = |path: &[&str]| -> u64 {
        let mut cur = &v;
        for p in path {
            match cur.field(p) {
                Ok(next) => cur = next,
                Err(_) => return 0,
            }
        }
        cur.as_u64().unwrap_or(0)
    };
    Ok(Counters {
        shed: get(&["resilience", "shed"]),
        degraded: get(&["resilience", "degrade_blend"])
            + get(&["resilience", "degrade_passthrough"])
            + get(&["degraded", "fallback_requests"]),
        deadline_miss: get(&["resilience", "deadline_miss"]),
        accepted: get(&["events", "accepted"]),
        replayed: get(&["events", "replayed"]),
        users: get(&["users"]),
    })
}

/// DCM expected clicks@5 and coverage@5 of served lists — the
/// `Pipeline::evaluate` definitions, on the serving world.
fn quality(model: &ServeModel, lists: &[(usize, Vec<usize>)], out: &mut Outcome) {
    let ds = model.dataset();
    let lambda = ExperimentConfig::new(Flavor::Taobao, Scale::Quick).lambda;
    let dcm = Dcm::standard(model.config().list_len, lambda);
    let (mut clicks, mut div) = (0.0f64, 0.0f64);
    for (base_user, items) in lists {
        let phi = dcm.attractions(ds, *base_user, items);
        clicks += f64::from(dcm.expected_clicks(&phi, 5));
        let covs: Vec<&[f32]> = items
            .iter()
            .map(|&v| ds.items[v].coverage.as_slice())
            .collect();
        div += f64::from(topic_coverage_at_k(&covs, 5));
    }
    let n = lists.len().max(1) as f64;
    out.e2e("click_at_5", "clicks", clicks / n, lists.len());
    out.e2e("div_at_5", "topics", div / n, lists.len());
}

/// Serves `users` over a fresh connection on the quiescent service and
/// checks each list against the in-process `ServeModel::rerank` for the
/// same user and state. Returns `(base_user, items)` per user.
fn served_lists(
    live: &Live,
    users: &[u64],
    k: usize,
    out: &mut Outcome,
) -> Result<Vec<(usize, Vec<usize>)>, String> {
    let model = live.state.model();
    let n_items = model.dataset().items.len();
    let mut conn = ready_conn(live.handle.addr())?;
    let mut tally = Tally::default();
    let mut lists = Vec::with_capacity(users.len());
    for &user in users {
        let resp = conn
            .request("POST", "/rerank", &plan::rerank_body(user))
            .map_err(|e| io_fail("cohort rerank", e))?;
        let answer = check_rerank(resp.status, &resp.body, k, n_items);
        if tally.record(&answer) {
            if let Answer::Full { base_user, items } = answer {
                let st = live.state.store.get(user);
                let local = model
                    .rerank(user, st.as_ref(), k)
                    .map_err(|e| format!("{e:?}"))?;
                if local.items != items || local.base_user != base_user {
                    tally.wrong.push(format!(
                        "user {user}: served {items:?}, in-process {:?}",
                        local.items
                    ));
                }
                lists.push((base_user, items));
            }
        }
    }
    tally.into_outcome("cohort", out);
    Ok(lists)
}

/// Replays sampled `/rerank` requests in-process through the calls the
/// handler makes, under spans (unit = request), returning each request's
/// in-process wall time in ms. With `expect`, also checks each answer
/// equals the list the service returned.
fn replay_reranks(
    live: &Live,
    sample: &[(u64, Vec<usize>)],
    k: usize,
    check: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Vec<f64> {
    let model = live.state.model();
    let mut wall_ms = Vec::with_capacity(sample.len());
    let mut stages: [Vec<f64>; 3] = Default::default();
    let mut mismatches = 0usize;
    for (n, (user, served)) in sample.iter().enumerate() {
        tr.set_unit(n as u64);
        let body = plan::rerank_body(*user);
        let t0 = Instant::now();
        let req_span = tr.begin("serve.request");
        let req = tr.span("serve.api.parse", || api::parse_rerank(&body));
        let Ok(req) = req else {
            tr.end(req_span);
            out.problem(format!(
                "parse_rerank rejected the benchmark's body for user {user}"
            ));
            continue;
        };
        let st = tr.span("serve.state.get", || live.state.store.get(req.user));
        let r = tr.span("serve.model", || model.rerank(req.user, st.as_ref(), k));
        let Ok(r) = r else {
            tr.end(req_span);
            out.problem(format!("in-process rerank refused user {user}"));
            continue;
        };
        let rendered = tr.span("serve.api.render", || api::rerank_body(req.user, &r));
        tr.end(req_span);
        wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(rendered);
        stages[0].push(r.rank_ms * 1e3);
        stages[1].push(r.prepare_ms * 1e3);
        stages[2].push(r.rerank_ms * 1e3);
        if check && r.items != *served {
            mismatches += 1;
        }
    }
    out.check(mismatches == 0, || {
        format!("{mismatches} sampled /rerank answer(s) differ from in-process ServeModel::rerank")
    });
    for (metric, span) in [
        ("serve.api.parse_us", "serve.api.parse"),
        ("serve.state.get_us", "serve.state.get"),
        ("serve.api.render_us", "serve.api.render"),
    ] {
        let per = tr.self_ms_per_unit(span);
        out.layer(metric, "us", median(&per) * 1e3, per.len());
    }
    for (metric, v) in [
        ("serve.model.rank_us", &stages[0]),
        ("serve.model.prepare_us", &stages[1]),
        ("serve.model.rerank_us", &stages[2]),
    ] {
        out.layer(metric, "us", median(v), v.len());
    }
    out.note(
        "serve.model.*_us",
        "stage split returned by ServeModel::rerank (the program's own stage timers)",
    );
    wall_ms
}

/// The serving artifact: trained once per run, before any timing, from
/// the service's default seed, so that the model — and with it the cost
/// and quality of every `/rerank` — is the same whatever the workload
/// seed; the seed drives the traffic.
struct Fixture {
    cfg: ServeConfig,
    dir: PathBuf,
    ckpt: PathBuf,
}

impl Fixture {
    fn train(out_dir: &Path) -> Result<Self, String> {
        let cfg = ServeConfig::default();
        let dir = out_dir.join(format!("fixture-{}", std::process::id()));
        // A leftover checkpoint would be resumed instead of retrained.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| io_fail("fixture dir", e))?;
        let ckpt = dir.join("serve.ckpt");
        train_artifact(&cfg, &ckpt).map_err(|e| io_fail("train_artifact", e))?;
        Ok(Self { cfg, dir, ckpt })
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs `mode`; with `tracer`, follows it with the traced pass.
pub fn run(
    mode: Mode,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    out: &mut Outcome,
    tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let fx = Fixture::train(out_dir)?;

    let (mut boot, mut warmup, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let mut live: Option<Live> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = live.take() {
            prev.handle.stop();
        }
        let (l, b, w, t) = setup(&fx.cfg, &fx.ckpt, seed)?;
        boot.push(b);
        warmup.push(w);
        total.push(t / 1e3);
        live = Some(l);
    }
    let live = live.expect("SETUP_REPS > 0");
    out.e2e("setup_s", "s", median(&total), total.len());
    out.layer("serve.boot_ms", "ms", median(&boot), boot.len());
    out.layer("serve.warmup_ms", "ms", median(&warmup), warmup.len());
    out.note("server.workers", ServerConfig::default().workers);

    let keepers = IdleKeepers::start();
    let result = match mode {
        Mode::Rerank => run_rerank(&live, seed, seconds, out, tracer),
        Mode::Ingest => run_ingest(&live, seed, seconds, out, tracer),
    };
    out.note("idle_keepers", keepers.stop());
    live.handle.stop();
    result
}

/// The tail of an open-loop `/rerank` stream: its p99 and how late the
/// sender ran.
fn read_tail(out: &mut Outcome, latency_ms: &[f64], late_ms: &[f64]) {
    let s = sorted(latency_ms);
    out.layer("serve.p99_ms", "ms", quantile_sorted(&s, 0.99), s.len());
    let late = sorted(late_ms);
    out.layer(
        "loadgen.late_ms",
        "ms",
        quantile_sorted(&late, 0.99),
        late.len(),
    );
    out.note(
        "loadgen.late_ms",
        "p99 of how late the open-loop sender ran",
    );
}

fn counter_deltas(out: &mut Outcome, before: &Counters, after: &Counters) {
    out.layer("serve.shed", "count", (after.shed - before.shed) as f64, 1);
    out.layer(
        "serve.degraded",
        "count",
        (after.degraded - before.degraded) as f64,
        1,
    );
    out.layer(
        "serve.deadline_miss",
        "count",
        (after.deadline_miss - before.deadline_miss) as f64,
        1,
    );
}

fn run_rerank(
    live: &Live,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
    tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let addr = live.handle.addr();
    let model = live.state.model();
    let k = model.config().list_len;
    let n_items = model.dataset().items.len();
    out.note(
        "client.connections",
        format!("1 open-loop, then {CLOSED_CONNS} closed-loop, alternating {SLICE:?} slices"),
    );
    out.note("rerank.open_loop_rate_per_s", RERANK_RATE);
    let before = counters(addr)?;

    // Alternate open-loop and closed-loop slices so both metrics sample
    // the host across the whole run. Connections are opened (and served
    // once) before each slice and closed after it.
    let slices = ((seconds / (2.0 * SLICE.as_secs_f64())).round() as usize).max(1);
    let mut open = OpenLoop::default();
    let mut open_stream = RerankStream::new(seed, 0);
    let mut closed_streams: Vec<RerankStream> = (0..CLOSED_CONNS)
        .map(|c| RerankStream::new(seed, 1 + c as u64))
        .collect();
    let mut tally = Tally::default();
    let mut rates: Vec<f64> = Vec::new();
    for _ in 0..slices {
        let mut conn = ready_conn(addr)?;
        let start = Instant::now() + Duration::from_millis(1);
        open.run(
            &mut conn,
            addr,
            &mut open_stream,
            RERANK_RATE,
            start,
            start + SLICE,
            k,
            n_items,
        );
        drop(conn);

        let conns: Vec<Conn> = (0..CLOSED_CONNS)
            .map(|_| ready_conn(addr))
            .collect::<Result<_, _>>()?;
        let barrier = Barrier::new(CLOSED_CONNS);
        let results: Vec<(u64, Duration, Tally)> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .into_iter()
                .zip(closed_streams.iter_mut())
                .map(|(mut conn, stream)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut tally = Tally::default();
                        let (mut ok, mut last) = (0u64, Duration::ZERO);
                        barrier.wait();
                        let t0 = Instant::now();
                        while t0.elapsed() < SLICE {
                            let body = plan::rerank_body(stream.next_user());
                            let answer = match conn.request("POST", "/rerank", &body) {
                                Ok(r) => check_rerank(r.status, &r.body, k, n_items),
                                Err(e) => {
                                    if let Ok(fresh) = Conn::open(addr) {
                                        conn = fresh;
                                    }
                                    Answer::Failed(format!("transport: {e}"))
                                }
                            };
                            if tally.record(&answer) {
                                ok += 1;
                            }
                            last = t0.elapsed();
                        }
                        (ok, last, tally)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop client thread panicked"))
                .collect()
        });
        let mut ok = 0u64;
        let mut span = Duration::ZERO;
        for (n, last, t) in results {
            ok += n;
            span = span.max(last);
            tally.merge(t);
        }
        rates.push(ok as f64 / span.as_secs_f64());
    }
    let after = counters(addr)?;
    crate::peak_rss(out);
    let open_tally = std::mem::take(&mut open.tally);
    tally.merge(open_tally);
    out.e2e("throughput_per_s", "1/s", median(&rates), rates.len());
    out.e2e(
        "p50_ms",
        "ms",
        median(&open.latency_ms),
        open.latency_ms.len(),
    );
    crate::tail_note(out, "p50_ms", &open.latency_ms);
    read_tail(out, &open.latency_ms, &open.late_ms);
    counter_deltas(out, &before, &after);
    tally.into_outcome("rerank", out);

    let cohort: Vec<u64> = (0..COHORT).map(|i| plan::warm_id(seed, i)).collect();
    let lists = served_lists(live, &cohort, k, out)?;
    quality(&model, &lists, out);

    let mut local = Tracer::new();
    let tr = tracer.unwrap_or(&mut local);
    let inproc = replay_reranks(live, &open.sample, k, true, tr, out);
    out.layer(
        "serve.transport_us",
        "us",
        (median(&open.latency_ms) - median(&inproc)) * 1e3,
        open.latency_ms.len(),
    );
    ok_frac(out);
    Ok(())
}

fn ok_frac(out: &mut Outcome) {
    let (n, bad) = (out.attempted, out.failed);
    out.e2e(
        "ok_frac",
        "frac",
        (n - bad.min(n)) as f64 / n as f64,
        n as usize,
    );
}

/// One answered `/events` post.
struct Posted {
    events: usize,
    bytes: usize,
    resend: bool,
    /// When the post was sent and how long its answer took.
    sent: Instant,
    ms: f64,
    /// `(accepted, replayed)` from the response, if it was a 2xx.
    counts: Option<(u64, u64)>,
}

fn run_ingest(
    live: &Live,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
    tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let addr = live.handle.addr();
    let model = live.state.model();
    let k = model.config().list_len;
    let n_items = model.dataset().items.len();
    out.note(
        "client.connections",
        "1 closed-loop /events + 1 open-loop /rerank",
    );
    out.note("ingest.read_rate_per_s", INGEST_READ_RATE);
    let before = counters(addr)?;

    let mut post_conn = ready_conn(addr)?;
    let mut read_conn = ready_conn(addr)?;
    let start = Instant::now() + Duration::from_millis(1);
    let until = start + Duration::from_secs_f64(seconds);
    let (posted, reads) = std::thread::scope(|s| {
        let poster = s.spawn(|| {
            let mut plan = IngestPlan::new(seed, n_items);
            let mut posted: Vec<Posted> = Vec::new();
            wait_until(start);
            while Instant::now() < until {
                let post = plan.next_post();
                let t0 = Instant::now();
                let resp = post_conn.request("POST", "/events", &post.body);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let counts = match resp {
                    Ok(r) if r.status == 200 => parse_counts(&r.body),
                    Ok(_) => None,
                    Err(_) => {
                        if let Ok(fresh) = Conn::open(addr) {
                            post_conn = fresh;
                        }
                        None
                    }
                };
                posted.push(Posted {
                    events: post.events.len(),
                    bytes: post.body.len(),
                    resend: post.resend,
                    sent: t0,
                    ms,
                    counts,
                });
            }
            posted
        });
        let reader = s.spawn(|| {
            let mut stream = RerankStream::new(seed, 0);
            let mut reads = OpenLoop::default();
            reads.run(
                &mut read_conn,
                addr,
                &mut stream,
                INGEST_READ_RATE,
                start,
                until,
                k,
                n_items,
            );
            reads
        });
        (
            poster.join().expect("poster thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    drop(post_conn);
    drop(read_conn);
    let after = counters(addr)?;
    crate::peak_rss(out);

    // Events acknowledged per second of wall time over blocks of
    // consecutive posts, from the first send to the last answer, so the
    // gaps between posts count too; median over blocks. With one
    // closed-loop connection this is still close to `POST_EVENTS` over
    // the post latency (`p50_ms`, and `serve.events.post_ms` again).
    let rates: Vec<f64> = posted
        .chunks_exact(POSTS_PER_BLOCK)
        .map(|b| {
            let events: usize = b.iter().map(|p| p.events).sum();
            let last = &b[POSTS_PER_BLOCK - 1];
            let wall = last.sent.duration_since(b[0].sent).as_secs_f64() + last.ms / 1e3;
            events as f64 / wall
        })
        .collect();
    out.e2e("throughput_per_s", "1/s", median(&rates), rates.len());
    let post_ms: Vec<f64> = posted.iter().map(|p| p.ms).collect();
    out.e2e("p50_ms", "ms", median(&post_ms), post_ms.len());
    crate::tail_note(out, "p50_ms", &post_ms);
    read_tail(out, &reads.latency_ms, &reads.late_ms);
    out.layer(
        "serve.read_p50_ms",
        "ms",
        median(&reads.latency_ms),
        reads.latency_ms.len(),
    );
    counter_deltas(out, &before, &after);
    out.check(posted.len() >= plan::COHORT_POSTS, || {
        format!(
            "only {} post(s) completed; the quality cohort needs {}",
            posted.len(),
            plan::COHORT_POSTS
        )
    });

    let mut tracer = tracer;
    let expected = reference_replay(
        live,
        seed,
        n_items,
        posted.len(),
        tracer.as_deref_mut(),
        out,
    );
    let mut mismatched = 0u64;
    let mut failed_posts = 0u64;
    for (p, want) in posted.iter().zip(&expected) {
        match p.counts {
            None => failed_posts += 1,
            Some(got) if got != *want => mismatched += 1,
            Some(_) => {}
        }
    }
    out.count(posted.len() as u64, failed_posts + mismatched);
    out.check(mismatched == 0, || {
        format!("{mismatched} post(s) answered counts that differ from the reference replay")
    });
    let sent: u64 = posted.iter().map(|p| p.events as u64).sum();
    let planned_replays: u64 = posted
        .iter()
        .filter(|p| p.resend)
        .map(|p| p.events as u64)
        .sum();
    let (acc, rep) = (
        after.accepted - before.accepted,
        after.replayed - before.replayed,
    );
    out.check(failed_posts > 0 || (acc + rep == sent && rep == planned_replays), || {
        format!(
            "server counted {acc} accepted + {rep} replayed; the plan sent {sent} with {planned_replays} re-sent"
        )
    });
    out.layer(
        "serve.state.replay_frac",
        "frac",
        rep as f64 / (acc + rep).max(1) as f64,
        sent as usize,
    );
    out.note(
        "ingest.planned_replay_frac",
        planned_replays as f64 / sent.max(1) as f64,
    );
    out.layer("serve.state.users", "count", after.users as f64, 1);
    // The figure `p50_ms` reports on this workload, listed again beside
    // the other `/events` layers.
    out.layer(
        "serve.events.post_ms",
        "ms",
        median(&post_ms),
        post_ms.len(),
    );
    let bytes: usize = posted.iter().map(|p| p.bytes).sum();
    out.layer(
        "serve.api.body_bytes",
        "bytes",
        bytes as f64 / posted.len().max(1) as f64,
        posted.len(),
    );
    out.note("ingest.posts", posted.len());

    reads.tally.into_outcome("ingest.rerank", out);
    let cohort: Vec<u64> = plan::cohort(seed).into_iter().take(COHORT).collect();
    let lists = served_lists(live, &cohort, k, out)?;
    quality(&model, &lists, out);

    let mut local = Tracer::new();
    let tr = tracer.unwrap_or(&mut local);
    let inproc = replay_reranks(live, &reads.sample, k, false, tr, out);
    out.layer(
        "serve.transport_us",
        "us",
        (median(&reads.latency_ms) - median(&inproc)) * 1e3,
        reads.latency_ms.len(),
    );
    ok_frac(out);
    Ok(())
}

fn parse_counts(body: &[u8]) -> Option<(u64, u64)> {
    let v: Value = serde_json::parse_value(std::str::from_utf8(body).ok()?).ok()?;
    let accepted = v.field("accepted").ok()?.as_u64().ok()?;
    let replayed = v.field("replayed").ok()?.as_u64().ok()?;
    Some((accepted, replayed))
}

/// Replays the first `posts` posts of the plan through
/// `UserStore::apply_event` on a store warmed like the service's, and
/// returns each post's `(accepted, replayed)`. Traced, each body also
/// goes through `api::parse_events` (checked against the planned events)
/// under spans, unit = post.
fn reference_replay(
    live: &Live,
    seed: u64,
    n_items: usize,
    posts: usize,
    mut tr: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Vec<(u64, u64)> {
    let model = live.state.model();
    let ds = model.dataset();
    let store = UserStore::new(16, ds.users.len(), ds.num_topics());
    warm(&store, &model, plan::warm_events(seed, n_items));
    let apply = |events: &[(u64, u64, bool, Option<u64>)]| {
        let (mut accepted, mut replayed) = (0u64, 0u64);
        for &(user, item, click, seq) in events {
            let item = (item % ds.items.len() as u64) as usize;
            let cov = click.then(|| ds.items[item].coverage.as_slice());
            match store.apply_event(user, item, cov, seq) {
                rapid_serve::EventOutcome::Applied => accepted += 1,
                rapid_serve::EventOutcome::Replayed => replayed += 1,
            }
        }
        (accepted, replayed)
    };
    let mut plan = IngestPlan::new(seed, n_items);
    let mut counts = Vec::with_capacity(posts);
    let (mut parse_us, mut apply_us) = (Vec::new(), Vec::new());
    for n in 0..posts {
        let post = plan.next_post();
        let planned: Vec<(u64, u64, bool, Option<u64>)> = post
            .events
            .iter()
            .map(|&(u, i, c, s)| (u, i as u64, c, Some(s)))
            .collect();
        let Some(tr) = tr.as_deref_mut() else {
            counts.push(apply(&planned));
            continue;
        };
        tr.set_unit(n as u64);
        let per_event_us = |t: Instant| t.elapsed().as_secs_f64() * 1e6 / planned.len() as f64;
        let t0 = Instant::now();
        let parsed = tr.span("serve.api.parse_events", || api::parse_events(&post.body));
        parse_us.push(per_event_us(t0));
        let parsed: Vec<_> = match parsed {
            Ok(evs) => evs
                .iter()
                .map(|e| (e.user, e.item, e.click, e.seq))
                .collect(),
            Err(why) => {
                out.problem(format!("parse_events rejected planned post {n}: {why}"));
                Vec::new()
            }
        };
        out.check(parsed == planned, || {
            format!("post {n}: parse_events does not return the planned events")
        });
        let t1 = Instant::now();
        counts.push(tr.span("serve.state.apply", || apply(&planned)));
        apply_us.push(per_event_us(t1));
    }
    if tr.is_some() {
        out.layer(
            "serve.api.parse_events_us",
            "us",
            median(&parse_us),
            parse_us.len(),
        );
        out.layer(
            "serve.state.apply_us",
            "us",
            median(&apply_us),
            apply_us.len(),
        );
    }
    counts
}
