//! Bench gate: judges a `BENCH_*.json` report against a table of
//! budgets.
//!
//! Each report has one table of [`Budget`] rows, a field and the
//! [`Bound`] its value must meet, and [`judge`] reads every row's field
//! from the parsed report, so a new budget is one table line. Every
//! budgeted field is required: a missing or mistyped field is a harness
//! error (`Err`), never a pass, and NaN meets no bound.
//!
//! * [`EXEC_BUDGETS`] bounds `BENCH_exec.json` by the run itself, and
//!   [`exec_budgets`] adds one `train_cached_ms` ceiling per model of a
//!   committed baseline, [`TRAIN_TOLERANCE`] above the baseline's time.
//!   Wall-clock totals and inference figures bounce with CI load, but
//!   cached training time is dominated by deterministic optimizer work
//!   (same seed, same batch count), so a large ratio there means a real
//!   regression rather than noise.
//! * [`SERVE_BUDGETS`] bounds `BENCH_serve.json` absolutely: the 50 ms
//!   live-serving bar, zero errors of any shape, and the observability
//!   and resilience scenarios the serving bench runs.

use std::borrow::Cow;
use std::fmt;

use serde_json::Value;

use Bound::{AtLeast, AtMost, IsTrue, Within};

/// What a budgeted value must meet. Numeric bounds are inclusive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A number no greater than this.
    AtMost(f64),
    /// A number no smaller than this.
    AtLeast(f64),
    /// A number in this closed range.
    Within(f64, f64),
    /// The boolean `true`.
    IsTrue,
}

impl Bound {
    /// Whether `value` meets this bound. NaN meets no numeric bound, and
    /// a value of the wrong JSON type is an error.
    fn admits(self, value: &Value) -> Result<bool, String> {
        let number = || value.as_f64().map_err(|e| e.to_string());
        Ok(match self {
            AtMost(max) => number()? <= max,
            AtLeast(min) => number()? >= min,
            Within(lo, hi) => (lo..=hi).contains(&number()?),
            IsTrue => value.as_bool().map_err(|e| e.to_string())?,
        })
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AtMost(max) => write!(f, "<= {}", number(max)),
            AtLeast(min) => write!(f, ">= {}", number(min)),
            Within(lo, hi) => write!(f, "{}..={}", number(lo), number(hi)),
            IsTrue => f.write_str("== true"),
        }
    }
}

/// A number with at most four decimals and no trailing zeros.
fn number(x: f64) -> String {
    let s = format!("{x:.4}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// One gated field of a report and the bound its value must meet.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// Where the value sits: `.`-separated object keys, where a key
    /// applied to an array picks the element whose `name` equals it
    /// (`models.PRM.train_cached_ms`).
    pub field: Cow<'static, str>,
    /// The bound the value must meet.
    pub bound: Bound,
}

const fn budget(field: &'static str, bound: Bound) -> Budget {
    Budget {
        field: Cow::Borrowed(field),
        bound,
    }
}

/// Allowed growth of each model's `train_cached_ms` over the baseline's.
pub const TRAIN_TOLERANCE: f64 = 0.25;

/// Budgets a `BENCH_exec.json` report is judged by on its own.
pub const EXEC_BUDGETS: &[Budget] = &[
    // Per-epoch atomic checkpoint writes cost at most 5% of the
    // training wall-clock they protect, measured in the same run.
    budget("ckpt_overhead_frac", AtMost(0.05)),
];

/// Budgets of a `BENCH_serve.json` report, all absolute.
pub const SERVE_BUDGETS: &[Budget] = &[
    // The ingest phase drove at least 100k distinct users.
    budget("distinct_users", AtLeast(100_000.0)),
    // The 50 ms live-serving bar, timed open-loop from each request's
    // scheduled send, so queueing counts.
    budget("rerank_p50_ms", AtMost(50.0)),
    budget("rerank_p99_ms", AtMost(50.0)),
    // No error of any shape: non-2xx, transport, degraded or fallback
    // reranks, handler panics, fault-dropped connections.
    budget("non_2xx", AtMost(0.0)),
    budget("transport_errors", AtMost(0.0)),
    budget("degraded_requests", AtMost(0.0)),
    budget("fallback_requests", AtMost(0.0)),
    budget("panics", AtMost(0.0)),
    budget("requests_dropped", AtMost(0.0)),
    // Tracing slows the rerank hot path by at most 5% (the run's own
    // traced-vs-untraced pass); at least one tail exemplar's span tree
    // crosses serve → model → exec, and its top-level stages sum to
    // within 10% of the request's latency; no SLO budget ran out.
    budget("trace_overhead_frac", AtMost(0.05)),
    budget("tail_exemplars", AtLeast(1.0)),
    budget("exemplar_span_frac", Within(0.9, 1.1)),
    budget("slo_exhausted", AtMost(0.0)),
    // A mid-load hot swap answers 2xx and disrupts no request.
    budget("swap_ok", IsTrue),
    budget("swap_disruptions", AtMost(0.0)),
    // Past capacity, 2xx goodput keeps the latency bar, shedding
    // engages, and no 2xx answer misses its deadline.
    budget("overload_goodput_p99_ms", AtMost(50.0)),
    budget("overload_shed", AtLeast(1.0)),
    budget("deadline_miss_2xx", AtMost(0.0)),
    // A corrupted artifact is rejected and the live model keeps
    // serving with its parameters unchanged.
    budget("corrupt_swap_rejected", IsTrue),
    budget("corrupt_swap_live_intact", IsTrue),
];

/// The exec gate's table for a baseline report: [`EXEC_BUDGETS`] plus,
/// per baseline model, `train_cached_ms` at most [`TRAIN_TOLERANCE`]
/// above the baseline's.
pub fn exec_budgets(baseline: &Value) -> Result<Vec<Budget>, String> {
    let models = baseline
        .field("models")
        .and_then(Value::as_array)
        .map_err(|e| e.to_string())?;
    if models.is_empty() {
        return Err("`models` is empty".to_string());
    }
    let mut budgets = EXEC_BUDGETS.to_vec();
    for model in models {
        let name = model
            .field("name")
            .and_then(Value::as_str)
            .map_err(|e| format!("models: {e}"))?;
        let field = format!("models.{name}.train_cached_ms");
        let ms = lookup(baseline, &field)?
            .as_f64()
            .map_err(|e| format!("{field}: {e}"))?;
        budgets.push(Budget {
            field: field.into(),
            bound: AtMost(ms * (1.0 + TRAIN_TOLERANCE)),
        });
    }
    Ok(budgets)
}

/// Reads the value at a [`Budget::field`] path.
fn lookup<'v>(report: &'v Value, path: &str) -> Result<&'v Value, String> {
    path.split('.').try_fold(report, |node, key| match node {
        Value::Array(rows) => rows
            .iter()
            .find(|row| {
                row.field("name")
                    .and_then(Value::as_str)
                    .is_ok_and(|name| name == key)
            })
            .ok_or_else(|| format!("{path}: no entry named `{key}`")),
        _ => node.field(key).map_err(|e| format!("{path}: {e}")),
    })
}

/// One budget as judged: the value read and whether it met the bound.
#[derive(Debug, Clone)]
pub struct Row {
    /// The budget judged.
    pub budget: Budget,
    /// The value read from the report.
    pub value: Value,
    /// Whether the value met the bound.
    pub ok: bool,
}

/// A report judged against a table: one row per budget, in table order.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The judged rows.
    pub rows: Vec<Row>,
}

impl Outcome {
    /// `true` when every budget held.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.ok)
    }

    /// The table of rows plus a verdict line.
    pub fn render(&self) -> String {
        let width = self
            .rows
            .iter()
            .map(|r| r.budget.field.len())
            .fold("field".len(), usize::max);
        let mut out = format!(
            "{:<width$} {:>12} {:>14}  verdict\n",
            "field", "value", "bound"
        );
        for row in &self.rows {
            let value = match row.value {
                Value::Bool(b) => b.to_string(),
                ref v => v.as_f64().map_or_else(|e| e.to_string(), number),
            };
            out.push_str(&format!(
                "{:<width$} {value:>12} {:>14}  {}\n",
                row.budget.field,
                row.budget.bound.to_string(),
                if row.ok { "ok" } else { "FAIL" }
            ));
        }
        let blown = self.rows.iter().filter(|r| !r.ok).count();
        if blown == 0 {
            out.push_str(&format!("PASS: all {} budgets held\n", self.rows.len()));
        } else {
            out.push_str(&format!(
                "FAIL: {blown} of {} budgets blown\n",
                self.rows.len()
            ));
        }
        out
    }
}

/// Judges `report` against `budgets`. A missing or mistyped field is an
/// error naming it: a broken harness, not a blown budget.
pub fn judge(report: &Value, budgets: &[Budget]) -> Result<Outcome, String> {
    let rows = budgets
        .iter()
        .map(|budget| {
            let value = lookup(report, &budget.field)?;
            let ok = budget
                .bound
                .admits(value)
                .map_err(|e| format!("{}: {e}", budget.field))?;
            Ok(Row {
                budget: budget.clone(),
                value: value.clone(),
                ok,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Outcome { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report that sets each budget's field to `value_of(bound)`.
    fn report(budgets: &[Budget], value_of: impl Fn(Bound) -> Value) -> Value {
        let mut doc = exec_report(&[("PRM", 0.0), ("DESA", 0.0), ("Init", 0.0)], 0.0);
        for b in budgets {
            *at(&mut doc, &b.field) = value_of(b.bound);
        }
        doc
    }

    /// A value exactly on the bound: its upper or lower end.
    fn edge(bound: Bound, upper: bool) -> Value {
        match bound {
            AtMost(x) | AtLeast(x) => Value::F64(x),
            Within(lo, hi) => Value::F64(if upper { hi } else { lo }),
            IsTrue => Value::Bool(true),
        }
    }

    /// A value just outside the bound, above or below it.
    fn beyond(bound: Bound, upper: bool) -> Value {
        match bound {
            AtMost(x) => Value::F64(x + 1e-6),
            AtLeast(x) => Value::F64(x - 1e-6),
            Within(lo, hi) => Value::F64(if upper { hi + 1e-6 } else { lo - 1e-6 }),
            IsTrue => Value::Bool(false),
        }
    }

    /// The node at a `.`-separated budget path, for editing; a missing
    /// object member is added as `null`.
    fn at<'v>(doc: &'v mut Value, path: &str) -> &'v mut Value {
        path.split('.')
            .filter(|key| !key.is_empty())
            .fold(doc, |node, key| match node {
                Value::Array(rows) => rows
                    .iter_mut()
                    .find(|r| r.field("name").and_then(Value::as_str) == Ok(key))
                    .unwrap(),
                Value::Object(fields) => {
                    let i = fields
                        .iter()
                        .position(|(k, _)| k == key)
                        .unwrap_or_else(|| {
                            fields.push((key.into(), Value::Null));
                            fields.len() - 1
                        });
                    &mut fields[i].1
                }
                _ => panic!("no `{key}` in `{path}`"),
            })
    }

    fn exec_report(times: &[(&str, f64)], ckpt: f64) -> Value {
        let models = times
            .iter()
            .map(|&(name, ms)| {
                Value::Object(vec![
                    ("name".into(), Value::Str(name.into())),
                    ("train_cached_ms".into(), Value::F64(ms)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("models".into(), Value::Array(models)),
            ("ckpt_overhead_frac".into(), Value::F64(ckpt)),
        ])
    }

    /// Every table under test: serve, and exec against a baseline that
    /// includes a zero-time model (whose ceiling is exactly 0).
    fn tables() -> Vec<Vec<Budget>> {
        let baseline = exec_report(&[("PRM", 100.0), ("DESA", 200.0), ("Init", 0.0)], 0.01);
        vec![SERVE_BUDGETS.to_vec(), exec_budgets(&baseline).unwrap()]
    }

    fn failed(outcome: &Outcome) -> Vec<&str> {
        outcome
            .rows
            .iter()
            .filter(|r| !r.ok)
            .map(|r| r.budget.field.as_ref())
            .collect()
    }

    fn rows(table: &[Budget]) -> Vec<(&str, Bound)> {
        table.iter().map(|b| (b.field.as_ref(), b.bound)).collect()
    }

    #[test]
    fn tables_pin_todays_budgets() {
        assert_eq!(
            rows(EXEC_BUDGETS),
            vec![("ckpt_overhead_frac", AtMost(0.05))]
        );
        assert_eq!(
            rows(SERVE_BUDGETS),
            vec![
                ("distinct_users", AtLeast(100_000.0)),
                ("rerank_p50_ms", AtMost(50.0)),
                ("rerank_p99_ms", AtMost(50.0)),
                ("non_2xx", AtMost(0.0)),
                ("transport_errors", AtMost(0.0)),
                ("degraded_requests", AtMost(0.0)),
                ("fallback_requests", AtMost(0.0)),
                ("panics", AtMost(0.0)),
                ("requests_dropped", AtMost(0.0)),
                ("trace_overhead_frac", AtMost(0.05)),
                ("tail_exemplars", AtLeast(1.0)),
                ("exemplar_span_frac", Within(0.9, 1.1)),
                ("slo_exhausted", AtMost(0.0)),
                ("swap_ok", IsTrue),
                ("swap_disruptions", AtMost(0.0)),
                ("overload_goodput_p99_ms", AtMost(50.0)),
                ("overload_shed", AtLeast(1.0)),
                ("deadline_miss_2xx", AtMost(0.0)),
                ("corrupt_swap_rejected", IsTrue),
                ("corrupt_swap_live_intact", IsTrue),
            ]
        );

        // One train-time row per baseline model, 25% over its time.
        assert_eq!(TRAIN_TOLERANCE, 0.25);
        let table = exec_budgets(&exec_report(&[("PRM", 100.0), ("DESA", 200.0)], 0.01)).unwrap();
        assert_eq!(
            rows(&table),
            vec![
                ("ckpt_overhead_frac", AtMost(0.05)),
                ("models.PRM.train_cached_ms", AtMost(125.0)),
                ("models.DESA.train_cached_ms", AtMost(250.0)),
            ]
        );
    }

    #[test]
    fn values_on_the_bound_pass() {
        for table in tables() {
            for upper in [false, true] {
                let outcome = judge(&report(&table, |b| edge(b, upper)), &table).unwrap();
                assert!(outcome.passed(), "{}", outcome.render());
                assert_eq!(outcome.rows.len(), table.len());
                assert!(outcome.render().contains("PASS"));
            }
        }
    }

    #[test]
    fn breaking_one_row_fails_exactly_that_row() {
        for table in tables() {
            for target in &table {
                for upper in [false, true] {
                    let mut doc = report(&table, |b| edge(b, false));
                    *at(&mut doc, &target.field) = beyond(target.bound, upper);
                    let outcome = judge(&doc, &table).unwrap();
                    assert_eq!(failed(&outcome), vec![target.field.as_ref()]);
                    assert!(outcome.render().contains("FAIL: 1 of"));
                }
            }
        }
    }

    #[test]
    fn a_missing_field_is_an_error_naming_it() {
        for table in tables() {
            for target in &table {
                let mut doc = report(&table, |b| edge(b, false));
                let (parent, key) = target.field.rsplit_once('.').unwrap_or(("", &target.field));
                let Value::Object(fields) = at(&mut doc, parent) else {
                    panic!("`{parent}` is not an object")
                };
                fields.retain(|(k, _)| k != key);
                let err = judge(&doc, &table).unwrap_err();
                assert!(err.contains(target.field.as_ref()), "{err}");
            }
        }
    }

    #[test]
    fn nan_and_mistyped_values_never_pass() {
        for bound in [AtMost(50.0), AtLeast(1.0), Within(0.9, 1.1)] {
            assert_eq!(bound.admits(&Value::F64(f64::NAN)), Ok(false), "{bound}");
            assert!(bound.admits(&Value::Null).is_err(), "{bound}");
            assert!(bound.admits(&Value::Bool(true)).is_err(), "{bound}");
        }
        assert!(IsTrue.admits(&Value::U64(1)).is_err());
        // A report carries NaN as `null`, which the gate rejects as
        // mistyped.
        let mut doc = report(SERVE_BUDGETS, |b| edge(b, false));
        *at(&mut doc, "rerank_p50_ms") = Value::Null;
        let err = judge(&doc, SERVE_BUDGETS).unwrap_err();
        assert!(err.contains("rerank_p50_ms"), "{err}");
    }

    #[test]
    fn exec_gate_judges_each_model_against_its_baseline() {
        let base = exec_report(&[("PRM", 100.0), ("DESA", 100.0), ("Init", 0.0)], 0.01);
        let budgets = exec_budgets(&base).unwrap();
        let run = |prm, desa, init| {
            let cur = exec_report(&[("PRM", prm), ("DESA", desa), ("Init", init)], 0.01);
            let outcome = judge(&cur, &budgets).unwrap();
            failed(&outcome).join(" ")
        };
        // Identical, faster and within-tolerance runs pass.
        assert_eq!(run(100.0, 100.0, 0.0), "");
        assert_eq!(run(10.0, 124.0, 0.0), "");
        // One slow model fails the gate alone; a zero-time baseline
        // admits only zero.
        assert_eq!(run(100.0, 130.0, 0.0), "models.DESA.train_cached_ms");
        assert_eq!(run(100.0, 100.0, 5.0), "models.Init.train_cached_ms");
        // A baseline doctored to half the real time makes the real run
        // look like a 2x slowdown of every timed model.
        assert_eq!(
            run(200.0, 200.0, 0.0),
            "models.PRM.train_cached_ms models.DESA.train_cached_ms"
        );
    }

    #[test]
    fn exec_reports_that_do_not_match_the_baseline_are_errors() {
        let base = exec_report(&[("PRM", 100.0), ("DESA", 100.0)], 0.01);
        let budgets = exec_budgets(&base).unwrap();
        let err = judge(&exec_report(&[("PRM", 100.0)], 0.01), &budgets).unwrap_err();
        assert!(err.contains("DESA"), "{err}");
        assert!(judge(&Value::Object(vec![]), &budgets).is_err());
        assert!(exec_budgets(&exec_report(&[], 0.01)).is_err());
        assert!(exec_budgets(&Value::Object(vec![])).is_err());
        assert!(exec_budgets(&Value::Null).is_err());
    }
}
