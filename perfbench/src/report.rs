//! What one run found: metrics, checks and run metadata; how it is
//! printed, stored, and compared with another run (`--diff`).

use std::fmt::Display;
use std::io::Write;
use std::path::Path;

use serde::Value;

/// Whether a metric is end-to-end (printed untraced) or per layer
/// (printed by the traced run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// Everything one run reports.
pub struct Outcome {
    /// `false` once any output check failed.
    pub correct: bool,
    /// Operations attempted (requests, posts or scored lists).
    pub attempted: u64,
    /// Attempted operations that failed, were shed, degraded or wrong.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run metadata and diagnostics, printed and stored beside metrics.
    pub notes: Vec<(String, String)>,
    /// Why `correct` is false.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.push(name, unit, Kind::EndToEnd, value, samples);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.push(name, unit, Kind::Layer, value, samples);
    }

    /// Folds in another workload's traced run: its per-layer metrics that
    /// this outcome lacks, its counts, and its checks (labelled).
    pub fn absorb_layers(&mut self, other: Outcome, label: &str) {
        for m in other.metrics {
            if m.kind == Kind::Layer && !self.metrics.iter().any(|x| x.name == m.name) {
                self.metrics.push(m);
            }
        }
        self.count(other.attempted, other.failed);
        self.correct &= other.correct;
        for p in other.problems {
            self.problems.push(format!("{label}: {p}"));
        }
        for (k, v) in other.notes {
            self.notes.push((format!("{label}.{k}"), v));
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        unit: &'static str,
        kind: Kind,
        value: f64,
        samples: usize,
    ) {
        if !value.is_finite() {
            self.problem(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push(Metric {
            name,
            unit,
            kind,
            value,
            samples,
        });
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl Display) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Marks the run incorrect.
    pub fn problem(&mut self, why: String) {
        self.correct = false;
        self.problems.push(why);
    }

    /// Marks the run incorrect unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.problem(why());
        }
    }

    /// Counts `n` attempted operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The human-readable report: metadata, every metric with its unit
    /// and sample count, diagnostics and failed checks.
    pub fn print_human(&self) {
        for (k, v) in &self.notes {
            println!("# {k}: {v}");
        }
        for m in &self.metrics {
            let kind = match m.kind {
                Kind::EndToEnd => "e2e",
                Kind::Layer => "layer",
            };
            println!(
                "{kind:5} {:32} {:>16.6} {:8} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for p in &self.problems {
            println!("! check failed: {p}");
        }
        println!(
            "# correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
    }

    /// The final stdout line: the metrics of `kind` only.
    pub fn result_line(&self, kind: Kind) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), json_number(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        let v = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&v).expect("value trees always render")
    }

    /// Stores the whole outcome, every metric with its sample count, as
    /// JSON at `path` (the input of `--diff`).
    pub fn write(&self, path: &Path, header: &[(&str, Value)]) -> std::io::Result<()> {
        let mut fields: Vec<(String, Value)> = header
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        fields.push(("correct".to_string(), Value::Bool(self.correct)));
        fields.push(("attempted".to_string(), Value::U64(self.attempted)));
        fields.push(("failed".to_string(), Value::U64(self.failed)));
        let problems = self
            .problems
            .iter()
            .map(|p| Value::Str(p.clone()))
            .collect();
        fields.push(("problems".to_string(), Value::Array(problems)));
        let notes = self
            .notes
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        fields.push(("notes".to_string(), Value::Object(notes)));
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let kind = match m.kind {
                    Kind::EndToEnd => "end_to_end",
                    Kind::Layer => "per_layer",
                };
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), json_number(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                        ("kind".to_string(), Value::Str(kind.to_string())),
                        ("samples".to_string(), Value::U64(m.samples as u64)),
                    ]),
                )
            })
            .collect();
        fields.push(("metrics".to_string(), Value::Object(metrics)));
        let text = serde_json::to_string_pretty(&Value::Object(fields)).expect("renders");
        let mut f = std::fs::File::create(path)?;
        f.write_all(text.as_bytes())?;
        f.write_all(b"\n")?;
        f.flush()
    }
}

/// JSON has no NaN or infinity; such a value was already reported as a
/// failed check, and is written as `null`.
fn json_number(x: f64) -> Value {
    if x.is_finite() {
        Value::F64(x)
    } else {
        Value::Null
    }
}

/// One stored metric: `(name, unit, kind, value)`.
type Stored = (String, String, String, Option<f64>);

/// A result file's run description (`key=value` pairs) and metrics.
type Loaded = (Vec<(String, String)>, Vec<Stored>);

fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = serde_json::parse_value(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let Value::Object(fields) = v else {
        return Err(format!("{path}: not a result file"));
    };
    let mut header = Vec::new();
    let mut metrics = Vec::new();
    for (k, v) in fields {
        match (k.as_str(), v) {
            ("metrics", Value::Object(ms)) => {
                for (name, m) in ms {
                    let text = |f: &str| {
                        m.field(f)
                            .ok()
                            .and_then(|x| x.as_str().ok())
                            .unwrap_or_default()
                            .to_string()
                    };
                    let value = m.field("value").ok().and_then(|x| x.as_f64().ok());
                    metrics.push((name, text("unit"), text("kind"), value));
                }
            }
            ("workload" | "seed" | "seconds" | "trace" | "correct", v) => {
                header.push((k, serde_json::to_string(&v).unwrap_or_default()));
            }
            _ => {}
        }
    }
    Ok((header, metrics))
}

/// `--diff BASE NEW`: prints, for every metric in either file, its base
/// value, the new value, and the change absolute and relative to base.
pub fn diff(base: &str, new: &str) -> Result<(), String> {
    let (hb, mb) = load(base)?;
    let (hn, mn) = load(new)?;
    let show = |h: &[(String, String)]| {
        h.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("base: {base} ({})", show(&hb));
    println!("new:  {new} ({})", show(&hn));
    println!(
        "{:10} {:32} {:8} {:>14} {:>14} {:>14} {:>9}",
        "kind", "metric", "unit", "base", "new", "delta", "delta%"
    );
    let mut names: Vec<&Stored> = mb.iter().collect();
    names.extend(mn.iter().filter(|m| !mb.iter().any(|b| b.0 == m.0)));
    for m in names {
        let b = mb.iter().find(|x| x.0 == m.0).and_then(|x| x.3);
        let n = mn.iter().find(|x| x.0 == m.0).and_then(|x| x.3);
        let cell = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{x:.6}"));
        let (delta, rel) = match (b, n) {
            (Some(b), Some(n)) => (
                format!("{:+.6}", n - b),
                if b != 0.0 {
                    format!("{:+.2}%", 100.0 * (n - b) / b.abs())
                } else {
                    "-".to_string()
                },
            ),
            _ => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{:10} {:32} {:8} {:>14} {:>14} {:>14} {:>9}",
            m.2,
            m.0,
            m.1,
            cell(b),
            cell(n),
            delta,
            rel
        );
    }
    Ok(())
}
