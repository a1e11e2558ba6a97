//! Drives the built `rapid-bench` binary the way CI does. The committed
//! reports pass (exit 0), a baseline doctored to half the real training
//! time fails (exit 1), and a report that is missing, not JSON or lacks
//! a budgeted field, or a call without `--baseline`, is a harness error
//! (exit 2). Doctored copies are written to a temporary directory; the
//! committed reports are only read.

use std::process::Command;

use serde_json::{parse_value, Value};

fn committed(name: &str) -> String {
    format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs the gate from the repo root, as CI does, so a default path
/// resolves to a committed report.
fn exit_code(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_rapid-bench"))
        .current_dir(committed(""))
        .args(args)
        .output()
        .expect("run rapid-bench");
    out.status.code().expect("rapid-bench exited by signal")
}

fn parse(path: &str) -> Value {
    parse_value(&std::fs::read_to_string(path).expect("read report")).expect("parse report")
}

fn json(doc: &Value) -> String {
    serde_json::to_string(doc).expect("serialize")
}

/// The member `key` of the object `doc`.
fn member<'v>(doc: &'v mut Value, key: &str) -> &'v mut Value {
    let Value::Object(fields) = doc else {
        panic!("no object holding `{key}`")
    };
    let (_, value) = fields.iter_mut().find(|(k, _)| k == key).expect(key);
    value
}

/// Writes `text` to `name` in a temporary directory and returns its path.
fn doctored(name: &str, text: &str) -> String {
    let dir = std::env::temp_dir().join(format!("rapid-bench-gate-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write copy");
    path.to_str().expect("utf-8 temp path").to_string()
}

#[test]
fn committed_reports_pass() {
    let exec = committed("BENCH_exec.json");
    let args = ["--check", "--baseline", &exec, "--current", &exec];
    assert_eq!(exit_code(&args), 0);
    let serve = committed("BENCH_serve.json");
    assert_eq!(exit_code(&["--check", "--serve", &serve]), 0);
}

#[test]
fn a_baseline_at_half_the_training_time_fails() {
    let exec = committed("BENCH_exec.json");
    let mut baseline = parse(&exec);
    let Value::Array(models) = member(&mut baseline, "models") else {
        panic!("`models` is not an array in {exec}")
    };
    for model in models {
        let ms = member(model, "train_cached_ms");
        *ms = Value::F64(ms.as_f64().expect("a time") / 2.0);
    }
    let path = doctored("BENCH_exec.halved.json", &json(&baseline));
    let code = exit_code(&["--check", "--baseline", &path, "--current", &exec]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 1);
}

#[test]
fn broken_reports_are_harness_errors() {
    // A serve report without `swap_ok` is a broken harness, not a pass.
    let mut report = parse(&committed("BENCH_serve.json"));
    let Value::Object(fields) = &mut report else {
        panic!("the serve report is not an object")
    };
    let before = fields.len();
    fields.retain(|(key, _)| key != "swap_ok");
    assert_eq!(fields.len(), before - 1);
    let path = doctored("BENCH_serve.no_swap_ok.json", &json(&report));
    let code = exit_code(&["--check", "--serve", &path]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 2);

    let exec = committed("BENCH_exec.json");
    let missing = format!("{exec}.missing");
    assert_eq!(exit_code(&["--check", "--baseline", &missing]), 2);
    let path = doctored("not_json.json", "not json");
    let code = exit_code(&["--check", "--baseline", &exec, "--current", &path]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 2);
}

#[test]
fn the_exec_gate_needs_a_baseline_and_takes_no_tolerance() {
    assert_eq!(exit_code(&["--check"]), 2);
    let exec = committed("BENCH_exec.json");
    let args = ["--check", "--baseline", &exec, "--tolerance", "0.5"];
    assert_eq!(exit_code(&args), 2);
}
