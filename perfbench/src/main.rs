//! The repository's benchmark: three workloads, each run from a seed,
//! with end-to-end metrics measured untraced and a separate traced pass
//! that times the public functions of each layer from outside.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|rerank|ingest> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --diff <base.json> <new.json>
//! ```
//!
//! * `train` (the paper's Table VI): RAPID-pro training and single-list
//!   inference on the MovieLens-like quick world ([`train`]).
//! * `rerank`: reads only — open-loop `/rerank` latency at a fixed rate,
//!   alternating with closed-loop capacity on two connections ([`serve`]).
//! * `ingest`: `/events` batches closed-loop beside open-loop `/rerank`
//!   reads, so write-side parsing and shard locks meet the read path.
//!
//! Every run prints each metric by name with its unit and sample count,
//! run metadata, and the output checks behind `correct`/`ok_frac`, then,
//! as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and the untraced end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). The whole outcome is also stored in
//! `perfbench/out/result-<workload>-s<seed>-t<trace>.json`; `--diff`
//! compares two such files metric by metric, so a change can show where
//! a saving appears without re-running anything.
//!
//! A traced run measures the selected workload untraced, then replays it
//! under spans kept in memory and written to `perfbench/out/trace-*.ndjson`.
//! It then does the same for the other two workloads (for at most
//! [`OTHER_WORKLOAD_SECONDS`] each), so that every traced run reports
//! every per-layer metric: each layer's figure comes from the selected
//! workload when that workload exercises the layer, otherwise from the
//! first of `train`, `rerank`, `ingest` that does.

mod client;
mod host;
mod plan;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::{Path, PathBuf};

use serde::Value;

use report::{Kind, Outcome};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["train", "rerank", "ingest"];

/// In a traced run, the workloads other than the selected one run for at
/// most this long: they contribute only per-layer figures, which are
/// medians over many units either way.
const OTHER_WORKLOAD_SECONDS: f64 = 10.0;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <train|rerank|ingest> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --diff <base.json> <new.json>".to_string()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{}", usage()))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
    })
}

/// Notes, beside `metric`, the highest percentile of `samples` that has
/// at least ten samples beyond it, with the counts.
pub fn tail_note(out: &mut Outcome, metric: &str, samples: &[f64]) {
    let (p, v, beyond) = stats::supported_tail(samples);
    out.note(
        format!("{metric}.tail"),
        format!("p{p} = {v:.4} ({} samples, {beyond} beyond)", samples.len()),
    );
}

/// Records `peak_rss_mb`, the process's peak resident set (VmHWM) so far.
/// Each workload calls this as its measured phase ends, before the
/// reference computations of its output checks allocate.
pub fn peak_rss(out: &mut Outcome) {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    match kb {
        Some(kb) => out.e2e("peak_rss_mb", "MB", kb / 1024.0, 1),
        None => out.problem("no VmHWM in /proc/self/status".to_string()),
    }
}

/// Runs one workload for `seconds`, traced or not.
fn run_one(
    name: &str,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    match name {
        "train" => train::run(seed, seconds, &mut out, tracer),
        "rerank" => serve::run(
            serve::Mode::Rerank,
            seed,
            seconds,
            out_dir,
            &mut out,
            tracer,
        )?,
        "ingest" => serve::run(
            serve::Mode::Ingest,
            seed,
            seconds,
            out_dir,
            &mut out,
            tracer,
        )?,
        _ => unreachable!("workload names are validated"),
    }
    Ok(out)
}

fn run(args: &Args, out_dir: &Path) -> Result<Outcome, String> {
    if !args.trace {
        return run_one(args.workload, args.seed, args.seconds, out_dir, None);
    }
    let mut order = vec![args.workload];
    order.extend(WORKLOADS.iter().filter(|w| **w != args.workload));
    let mut merged: Option<Outcome> = None;
    for name in order {
        let mut tracer = Tracer::new();
        let seconds = if name == args.workload {
            args.seconds
        } else {
            args.seconds.min(OTHER_WORKLOAD_SECONDS)
        };
        let out = run_one(name, args.seed, seconds, out_dir, Some(&mut tracer))?;
        let path = out_dir.join(format!("trace-{name}-s{}.ndjson", args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        match merged.as_mut() {
            None => merged = Some(out),
            Some(m) => m.absorb_layers(out, name),
        }
    }
    Ok(merged.expect("at least one workload"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--diff") {
        let [_, base, new] = argv.as_slice() else {
            eprintln!("{}", usage());
            std::process::exit(2);
        };
        if let Err(e) = report::diff(base, new) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let mut out = match run(&args, &out_dir) {
        Ok(o) if o.attempted > 0 => o,
        Ok(_) => {
            eprintln!("perfbench: the run attempted no operation");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = [
        ("workload", args.workload.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        (
            "rapid_exec.worker_count",
            rapid_exec::worker_count().to_string(),
        ),
    ];
    for (k, v) in meta.iter().rev() {
        out.notes.insert(0, (k.to_string(), v.clone()));
    }
    out.print_human();
    let path = out_dir.join(format!(
        "result-{}-s{}-t{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let header: Vec<(&str, Value)> = vec![
        ("workload", Value::Str(args.workload.to_string())),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(args.seconds)),
        ("trace", Value::Bool(args.trace)),
    ];
    if let Err(e) = out.write(&path, &header) {
        eprintln!("perfbench: {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("# result file: {}", path.display());
    let kind = if args.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    println!("{}", out.result_line(kind));
}
