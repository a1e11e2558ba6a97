//! Two runs of one seed must agree on every quality figure. The request
//! streams themselves are checked in `src/plan.rs`; this runs the built
//! benchmark end to end. Meant for `cargo test --release`: in a debug
//! build each run takes minutes.

use std::process::Command;

use serde::Value;

fn run(workload: &str, seed: u64) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "2", "--trace", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse_value(last).expect("the last line is JSON")
}

fn metric(v: &Value, name: &str) -> f64 {
    v.field("metrics")
        .and_then(|m| m.field(name))
        .and_then(|m| m.field("value"))
        .and_then(|x| x.as_f64())
        .unwrap_or_else(|_| panic!("metric {name} missing"))
}

#[test]
fn one_seed_gives_identical_quality_across_runs() {
    for workload in ["train", "rerank", "ingest"] {
        let a = run(workload, 5);
        let b = run(workload, 5);
        for v in [&a, &b] {
            assert!(
                v.field("correct").unwrap().as_bool().unwrap(),
                "{workload}: {v:?}"
            );
        }
        for name in ["click_at_5", "div_at_5"] {
            assert_eq!(
                metric(&a, name).to_bits(),
                metric(&b, name).to_bits(),
                "{workload}: {name} differs between two runs of one seed"
            );
        }
    }
}
