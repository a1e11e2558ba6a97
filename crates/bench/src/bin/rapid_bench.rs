//! `rapid-bench` — the bench gate.
//!
//! ```text
//! rapid-bench --check --baseline PATH [--current BENCH_exec.json]
//! rapid-bench --check --serve [BENCH_serve.json]
//! ```
//!
//! The first judges an exec report by `EXEC_BUDGETS` plus one
//! `train_cached_ms` ceiling per model of the baseline report (25% over
//! its time); the second judges a serving report by `SERVE_BUDGETS`.
//! Exit 0 when every budget holds and 1 when any is blown. Bad
//! arguments, an unreadable or malformed report, and a missing or
//! mistyped field exit 2, so CI can't green-wash a broken harness.

use std::process::ExitCode;

use rapid_bench::check::{exec_budgets, judge, Budget, Outcome, SERVE_BUDGETS};
use serde_json::{parse_value, Value};

const USAGE: &str = "usage: rapid-bench --check --baseline PATH [--current PATH]\n       \
                     rapid-bench --check --serve [PATH]";

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_value(&text).map_err(|e| format!("{path}: {e}"))
}

fn judge_file(path: &str, budgets: &[Budget]) -> Result<Outcome, String> {
    judge(&read(path)?, budgets).map_err(|e| format!("{path}: {e}"))
}

/// Parses the arguments and judges the report they name; `None` when
/// the arguments are not a valid invocation.
fn gate(args: &[String]) -> Option<Result<Outcome, String>> {
    let mut args = args.iter().map(String::as_str).peekable();
    let (mut check, mut serve, mut baseline) = (false, None, None);
    let mut current = "BENCH_exec.json";
    while let Some(arg) = args.next() {
        match arg {
            "--check" => check = true,
            "--serve" => {
                let path = args.next_if(|v| !v.starts_with("--"));
                serve = Some(path.unwrap_or("BENCH_serve.json"));
            }
            "--baseline" => baseline = Some(args.next()?),
            "--current" => current = args.next()?,
            _ => return None,
        }
    }
    match (check, serve, baseline) {
        (true, Some(path), None) => {
            println!("serve gate over {path}");
            Some(judge_file(path, SERVE_BUDGETS))
        }
        (true, None, Some(base)) => {
            println!("comparing {current} against baseline {base}");
            let budgets =
                read(base).and_then(|b| exec_budgets(&b).map_err(|e| format!("{base}: {e}")));
            Some(budgets.and_then(|budgets| judge_file(current, &budgets)))
        }
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match gate(&args) {
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Some(Err(e)) => {
            eprintln!("rapid-bench: {e}");
            ExitCode::from(2)
        }
        Some(Ok(outcome)) => {
            print!("{}", outcome.render());
            if outcome.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
