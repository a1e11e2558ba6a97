//! Dependency-free source linter for the workspace's project rules.
//!
//! This is deliberately a *line scanner*, not a parser: the build is
//! air-gapped (no `syn`), and the rules below are all expressible over
//! sanitized source lines. Each finding carries `path`, `line`, a rule
//! id, and a message, and the `rapid-lint` binary prints them as
//! `file:line: rule: message` with a nonzero exit for CI.
//!
//! ## Rules
//!
//! * `no-unwrap` — no `.unwrap()` / `.expect(` in the non-test library
//!   code of the hot crates (`tensor`, `autograd`, `nn`, `exec`): these
//!   run inside training/serving loops where a panic must carry a real
//!   diagnostic, not "called unwrap on None".
//! * `no-env-var` — process environment reads are confined to
//!   `exec::parallel` (the `RAPID_WORKERS` override), `obs::event`
//!   (the `RAPID_LOG` threshold), `obs::config` (the `RAPID_DIAG` /
//!   `RAPID_OUT_DIR` / `RAPID_OBS_ADDR` knobs), and `faults` (the
//!   `RAPID_FAULTS` chaos spec); configuration everywhere else flows
//!   through typed config structs.
//! * `centralized-clock` — `Instant::now` / `SystemTime::now` are read
//!   only inside `crates/obs/src` (the `rapid_obs::clock` module);
//!   everything else takes timestamps through `rapid_obs::clock::now` /
//!   `wall_micros` so timeline records share one epoch and tests can
//!   reason about a single time source.
//! * `no-bare-print` — no `println!`/`eprintln!` (or their non-newline
//!   forms) in the library code of the instrumented crates (`autograd`,
//!   `exec`, `core`, `rerankers`): diagnostics there go through
//!   `rapid_obs::event!`, which respects `RAPID_LOG` and lands in the
//!   telemetry buffer instead of interleaving with harness output.
//! * `float-eq` — no `==`/`!=` against float literals: use an epsilon
//!   or `total_cmp`. Exact-zero sparsity guards are allowed with an
//!   inline directive (see below).
//! * `doc-header` — every source file opens with a `//!` module doc
//!   before its first code line (the workspace's `missing_docs`
//!   equivalent for air-gapped builds).
//! * `no-expect-in-serve` — no `.unwrap()` / `.expect(` in the
//!   degradation-critical serving paths (`obs::serve`, the shared
//!   transport `obs::http`, `exec::parallel`, and every file of
//!   `rapid-serve`'s request path): these are exactly the paths that
//!   promise to survive faults rather than panic, so even "can't
//!   happen" unwraps are banned there independently of the hot-crate
//!   rule.
//! * `trace-context-no-leak` — on the serving path (`rapid-serve`,
//!   `obs::serve`, `obs::http`, `exec::parallel`), a request-trace guard
//!   (`trace::start_request` / `trace::install`) must be held in a
//!   named binding that lives for the request. Discarding it — a bare
//!   statement or a `let _ =` binding — uninstalls the context before
//!   any stage can record into it, and `mem::forget` pins a stale
//!   context (or a dead connection) to the worker thread forever;
//!   both corrupt tracing silently rather than loudly.
//! * `bounded-queue` — no unbounded buffering primitives on the serve
//!   request path (`rapid-serve`, `obs::serve`, `obs::http`,
//!   `exec::parallel`): `mpsc::channel` and `VecDeque` accept work
//!   without limit, which under overload converts a shed-able burst
//!   into unbounded memory and a collapsed p99. Use
//!   `mpsc::sync_channel` (whose send fails fast when full) or guard
//!   every push with an explicit capacity check and say so via a
//!   `lint:allow(bounded-queue)` directive naming where the bound is
//!   enforced.
//! * `allow-needs-reason` — every `lint:allow(rule)` directive must
//!   carry a trailing justification (`// lint:allow(float-eq) — exact
//!   sparsity guard`), so a suppression always tells the reviewer why
//!   it is safe. Applies everywhere, including test code.
//!
//! ## Scope heuristics
//!
//! Test code is exempt from the content rules: scanning stops applying
//! them after a `#[cfg(test)]` line, which relies on the workspace
//! convention that test modules sit at the bottom of each file.
//! String-literal and comment contents are blanked before matching, so
//! a rule name appearing in a message cannot trip the rule itself.
//!
//! ## Allowlisting
//!
//! A finding is suppressed by an inline directive naming the rule —
//! `// lint:allow(float-eq) — why` — on the offending line or on the
//! line directly above it (for lines too long to carry a trailing
//! comment). The "why" is for reviewers; the scanner only matches the
//! directive.

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (e.g. `no-unwrap`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

impl Finding {
    /// One-line JSON object (`{"file":…,"line":…,"rule":…,"message":…}`)
    /// for `rapid-lint --format json`, consumable by CI annotation
    /// tooling without a JSON dependency on either side.
    pub fn to_json(&self) -> String {
        fn escape(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => vec!['\\', '"'],
                    '\\' => vec!['\\', '\\'],
                    '\n' => vec!['\\', 'n'],
                    c => vec![c],
                })
                .collect()
        }
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            escape(&self.path),
            self.line,
            self.rule,
            escape(&self.message)
        )
    }
}

/// Crates whose library code is on the training/serving hot path and
/// therefore subject to `no-unwrap`.
const HOT_CRATES: [&str; 4] = [
    "crates/tensor/src/",
    "crates/autograd/src/",
    "crates/nn/src/",
    "crates/exec/src/",
];

/// The only files allowed to read the process environment: the
/// `RAPID_WORKERS` override, the `RAPID_LOG` threshold, the
/// observability knobs (`RAPID_DIAG`, `RAPID_OUT_DIR`, `RAPID_OBS_ADDR`),
/// and the `RAPID_FAULTS` chaos spec.
const ENV_ALLOWED_FILES: [&str; 4] = [
    "crates/exec/src/parallel.rs",
    "crates/obs/src/event.rs",
    "crates/obs/src/config.rs",
    "crates/faults/src/lib.rs",
];

/// Paths on the graceful-degradation serving path, where a panic means
/// a dropped request instead of a failed unit test: `.unwrap()` /
/// `.expect(` are banned outright (`no-expect-in-serve`), even where
/// the hot-crate `no-unwrap` rule does not reach. Entries are matched
/// as *prefixes*, so a directory entry (`crates/serve/src/`) covers
/// every request-path function of that crate, including files added
/// after this list was written.
const SERVE_NO_EXPECT_PATHS: [&str; 4] = [
    "crates/obs/src/serve.rs",
    "crates/obs/src/http.rs",
    "crates/exec/src/parallel.rs",
    "crates/serve/src/",
];

/// Paths where a request-trace context is minted or propagated
/// (`trace-context-no-leak`): the same serving-path prefixes as
/// `no-expect-in-serve`, because a leaked or dropped-on-arrival guard
/// breaks exactly the requests those paths promise to keep whole.
const TRACE_GUARD_PATHS: [&str; 4] = [
    "crates/obs/src/serve.rs",
    "crates/obs/src/http.rs",
    "crates/exec/src/parallel.rs",
    "crates/serve/src/",
];

/// Calls that return a trace guard whose `Drop` does the bookkeeping.
const TRACE_GUARD_CALLS: [&str; 2] = ["start_request(", "trace::install("];

/// Paths on the serve request path where buffering must be bounded
/// (`bounded-queue`): the same prefixes as `no-expect-in-serve`,
/// because an unbounded queue there defeats load shedding — the burst
/// that should have been refused with a `503` sits in memory instead,
/// and every queued request's deadline expires before service.
const BOUNDED_QUEUE_PATHS: [&str; 4] = [
    "crates/obs/src/serve.rs",
    "crates/obs/src/http.rs",
    "crates/exec/src/parallel.rs",
    "crates/serve/src/",
];

/// Constructors of buffering primitives with no capacity bound
/// (matched without the opening paren so turbofish forms like
/// `mpsc::channel::<T>()` are caught). `mpsc::sync_channel` does not
/// contain the first needle, and a plain `Vec` of results sized by the
/// caller is not a queue.
const UNBOUNDED_QUEUE_CALLS: [&str; 3] =
    ["mpsc::channel", "VecDeque::new", "VecDeque::with_capacity"];

/// The only crate allowed to read the process clocks directly; everyone
/// else goes through `rapid_obs::clock` so timestamps share one epoch.
const CLOCK_ALLOWED_PREFIX: &str = "crates/obs/src/";

/// Crates whose library diagnostics must flow through `rapid_obs::event!`
/// rather than bare `print!`-family macros.
const PRINT_FREE_CRATES: [&str; 4] = [
    "crates/autograd/src/",
    "crates/exec/src/",
    "crates/core/src/",
    "crates/rerankers/src/",
];

/// `print!`-family macro invocations, longest-first so `eprintln!` is
/// reported as itself and not as its `println!`/`print!` substrings.
const PRINT_MACROS: [&str; 4] = ["eprintln!", "println!", "eprint!", "print!"];

/// The `print!`-family macro invoked on this sanitized line, if any.
fn bare_print_macro(code: &str) -> Option<&'static str> {
    for mac in PRINT_MACROS {
        let mut from = 0;
        while let Some(rel) = code[from..].find(mac) {
            let pos = from + rel;
            let prev = pos.checked_sub(1).map(|p| code.as_bytes()[p]);
            // A standalone invocation: not the tail of a longer
            // identifier (`writeln!`) or of a longer macro name
            // (`eprintln!` when scanning for `println!`).
            if !matches!(prev, Some(b) if b.is_ascii_alphanumeric() || b == b'_') {
                return Some(mac);
            }
            from = pos + mac.len();
        }
    }
    None
}

/// Lints one source file given its workspace-relative `path` (used for
/// rule scoping) and full `source` text.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let env_needle: &str = concat!("std::en", "v::var");

    let unwrap_applies = HOT_CRATES.iter().any(|c| path.starts_with(c));
    let serve_expect_applies = SERVE_NO_EXPECT_PATHS.iter().any(|p| path.starts_with(p));
    let trace_leak_applies = TRACE_GUARD_PATHS.iter().any(|p| path.starts_with(p));
    let bounded_queue_applies = BOUNDED_QUEUE_PATHS.iter().any(|p| path.starts_with(p));
    let env_applies = !ENV_ALLOWED_FILES.contains(&path);
    let print_applies = PRINT_FREE_CRATES.iter().any(|c| path.starts_with(c));
    let clock_applies = !path.starts_with(CLOCK_ALLOWED_PREFIX);

    let mut in_tests = false;
    let mut saw_doc_header = false;
    let mut doc_header_reported = false;
    let mut prev_raw = "";

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = raw.trim_start();

        if trimmed.starts_with("#[cfg(test)") {
            in_tests = true;
        }

        // allow-needs-reason applies to every comment, test code included:
        // a suppression without a why is unreviewable wherever it sits.
        if let Some(tail) = comment_tail(raw) {
            let mut from = 0;
            while let Some(rel) = tail[from..].find("lint:allow(") {
                let start = from + rel + "lint:allow(".len();
                let Some(close) = tail[start..].find(')') else {
                    break;
                };
                let rest = &tail[start + close + 1..];
                let justified = rest
                    .chars()
                    .find(|c| !c.is_whitespace() && !matches!(c, '—' | '-' | ':' | ',' | '.' | '`'))
                    .is_some_and(|c| c.is_alphanumeric());
                if !justified {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: line_no,
                        rule: "allow-needs-reason",
                        message: format!(
                            "`lint:allow({})` without a trailing justification; say why \
                             the suppression is safe",
                            &tail[start..start + close]
                        ),
                    });
                }
                from = start + close + 1;
            }
        }

        // doc-header: a `//!` line must appear before the first code line.
        if !saw_doc_header && !doc_header_reported {
            if trimmed.starts_with("//!") {
                saw_doc_header = true;
            } else if !trimmed.is_empty()
                && !trimmed.starts_with("//")
                && !trimmed.starts_with("#![")
            {
                findings.push(Finding {
                    path: path.to_string(),
                    line: line_no,
                    rule: "doc-header",
                    message: "file has code before any `//!` module doc header".to_string(),
                });
                doc_header_reported = true;
            }
        }

        if in_tests {
            continue;
        }

        let allow = |rule: &str| {
            let directive = format!("lint:allow({rule})");
            raw.contains(&directive) || prev_raw.contains(&directive)
        };
        let code = sanitize(raw);

        if unwrap_applies && !allow("no-unwrap") {
            for needle in [".unwrap()", ".expect("] {
                if code.contains(needle) {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: line_no,
                        rule: "no-unwrap",
                        message: format!(
                            "`{needle}…` in hot-crate library code; return an error or \
                             panic with a specific message (or `lint:allow(no-unwrap)`)"
                        ),
                    });
                }
            }
        }

        if serve_expect_applies && !allow("no-expect-in-serve") {
            for needle in [".unwrap()", ".expect("] {
                if code.contains(needle) {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: line_no,
                        rule: "no-expect-in-serve",
                        message: format!(
                            "`{needle}…` on the graceful-degradation serving path; \
                             handle the error (a panic here drops a request) or \
                             `lint:allow(no-expect-in-serve)`"
                        ),
                    });
                }
            }
        }

        if trace_leak_applies && !allow("trace-context-no-leak") {
            if code.contains("mem::forget(") {
                findings.push(Finding {
                    path: path.to_string(),
                    line: line_no,
                    rule: "trace-context-no-leak",
                    message: "`mem::forget` on the serving path can pin a trace context \
                              (or a connection) to the thread forever; let guards drop \
                              (or `lint:allow(trace-context-no-leak)`)"
                        .to_string(),
                });
            }
            for needle in TRACE_GUARD_CALLS {
                let Some(pos) = code.find(needle) else {
                    continue;
                };
                // A guard is held only by a *named* binding: `let _ =`
                // drops it on this very line, and a bare statement
                // drops it at the trailing semicolon.
                let discarded = code.contains("let _ =") || code.contains("let _:");
                let unbound = !code[..pos].contains('=');
                if discarded || unbound {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: line_no,
                        rule: "trace-context-no-leak",
                        message: format!(
                            "`{needle}…` guard discarded immediately; bind it to a named \
                             local that lives for the request (or \
                             `lint:allow(trace-context-no-leak)`)"
                        ),
                    });
                }
            }
        }

        if bounded_queue_applies && !allow("bounded-queue") {
            for needle in UNBOUNDED_QUEUE_CALLS {
                if code.contains(needle) {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: line_no,
                        rule: "bounded-queue",
                        message: format!(
                            "`{needle}…` buffers without a capacity bound on the serve \
                             request path; use `mpsc::sync_channel` / a capacity-checked \
                             push, or `lint:allow(bounded-queue)` naming where the bound \
                             is enforced"
                        ),
                    });
                }
            }
        }

        if clock_applies && !allow("centralized-clock") {
            for needle in ["Instant::now", "SystemTime::now"] {
                if code.contains(needle) {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: line_no,
                        rule: "centralized-clock",
                        message: format!(
                            "`{needle}` outside `rapid-obs`; take timestamps via \
                             `rapid_obs::clock` so they share one epoch (or \
                             `lint:allow(centralized-clock)`)"
                        ),
                    });
                }
            }
        }

        if env_applies && !allow("no-env-var") && code.contains(env_needle) {
            findings.push(Finding {
                path: path.to_string(),
                line: line_no,
                rule: "no-env-var",
                message: format!(
                    "process environment read outside {}; plumb \
                     configuration through typed config structs",
                    ENV_ALLOWED_FILES.join(" / ")
                ),
            });
        }

        if print_applies && !allow("no-bare-print") {
            if let Some(mac) = bare_print_macro(&code) {
                findings.push(Finding {
                    path: path.to_string(),
                    line: line_no,
                    rule: "no-bare-print",
                    message: format!(
                        "`{mac}` in instrumented-crate library code; emit a leveled \
                         `rapid_obs::event!` instead (or `lint:allow(no-bare-print)`)"
                    ),
                });
            }
        }

        if !allow("float-eq") {
            for op in ["==", "!="] {
                for pos in match_positions(&code, op) {
                    let (before, after) = operands(&code, pos, op.len());
                    if is_float_literal(&before) || is_float_literal(&after) {
                        findings.push(Finding {
                            path: path.to_string(),
                            line: line_no,
                            rule: "float-eq",
                            message: format!(
                                "`{op}` against a float literal; compare with an epsilon \
                                 or `total_cmp` (or `lint:allow(float-eq)` for an exact \
                                 sparsity guard)"
                            ),
                        });
                        break;
                    }
                }
            }
        }

        prev_raw = raw;
    }

    findings
}

/// Recursively lints every `.rs` file under `root/crates/*/src`,
/// returning findings sorted by path and line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();

    let mut findings = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file)?;
        findings.extend(lint_source(&rel, &source));
    }
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Blanks string-literal contents and strips the line-comment tail, so
/// rule needles only match actual code. Char literals are skipped so a
/// quote character inside one does not open a phantom string.
fn sanitize(line: &str) -> String {
    let bytes = line.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    let mut in_string = false;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            if b == b'\\' {
                out.extend_from_slice(b"  ");
                i += 2;
                continue;
            }
            if b == b'"' {
                in_string = false;
                out.push(b'"');
            } else {
                out.push(b' ');
            }
            i += 1;
            continue;
        }
        match b {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break,
            b'"' => {
                in_string = true;
                out.push(b'"');
                i += 1;
            }
            b'\'' => {
                // Char literal ('x', '\n', '\'') or a lifetime. A char
                // literal closes within a few bytes; a lifetime has none.
                if i + 2 < bytes.len() && bytes[i + 1] == b'\\' {
                    let close = bytes[i + 2..].iter().position(|&c| c == b'\'');
                    let skip = close.map_or(1, |c| c + 3);
                    // `repeat(..).take(..)` rather than `repeat_n`: the
                    // workspace MSRV (1.75) predates its stabilisation.
                    #[allow(clippy::manual_repeat_n)]
                    out.extend(std::iter::repeat(b' ').take(skip));
                    i += skip;
                } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                    out.extend_from_slice(b"   ");
                    i += 3;
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The `//`-to-end-of-line comment tail of `line`, if it has one, with
/// string and char literals skipped so a `//` inside a literal does not
/// open a phantom comment. The inverse of [`sanitize`]: this is the part
/// of the line where `lint:allow` directives live.
fn comment_tail(line: &str) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut i = 0;
    let mut in_string = false;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            if b == b'\\' {
                i += 2;
                continue;
            }
            if b == b'"' {
                in_string = false;
            }
            i += 1;
            continue;
        }
        match b {
            b'"' => {
                in_string = true;
                i += 1;
            }
            b'\'' => {
                // Same char-literal vs. lifetime handling as `sanitize`.
                if i + 2 < bytes.len() && bytes[i + 1] == b'\\' {
                    let close = bytes[i + 2..].iter().position(|&c| c == b'\'');
                    i += close.map_or(1, |c| c + 3);
                } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                    i += 3;
                } else {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => return Some(&line[i..]),
            _ => i += 1,
        }
    }
    None
}

/// Byte offsets of every standalone occurrence of `op` (not part of a
/// longer comparison like `<=`/`>=`/`=>`).
fn match_positions(code: &str, op: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut positions = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(op) {
        let pos = from + rel;
        let prev = pos.checked_sub(1).map(|p| bytes[p]);
        let next = bytes.get(pos + op.len()).copied();
        let glued = |c: Option<u8>| matches!(c, Some(b'=') | Some(b'<') | Some(b'>') | Some(b'!'));
        if !glued(prev) && !glued(next) {
            positions.push(pos);
        }
        from = pos + op.len();
    }
    positions
}

/// The textual operands immediately left and right of an operator at
/// byte `pos` with length `len`.
fn operands(code: &str, pos: usize, len: usize) -> (String, String) {
    let float_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '+' | '-');
    let before: String = {
        let left = code[..pos].trim_end();
        let tail: Vec<char> = left.chars().rev().take_while(|&c| float_char(c)).collect();
        tail.into_iter().rev().collect()
    };
    let after: String = code[pos + len..]
        .trim_start()
        .chars()
        .take_while(|&c| float_char(c))
        .collect();
    (before, after)
}

/// `true` for tokens that read as Rust float literals (`0.0`, `1e-3`,
/// `2.5f32`), and `false` for field accesses (`self.0`) and identifiers.
fn is_float_literal(token: &str) -> bool {
    let t = token
        .strip_suffix("f32")
        .or_else(|| token.strip_suffix("f64"))
        .unwrap_or(token);
    let t = t.strip_prefix('-').unwrap_or(t).replace('_', "");
    if !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    (t.contains('.') || t.contains(['e', 'E'])) && t.parse::<f64>().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unwrap_flagged_only_in_hot_crates() {
        let src = "//! Doc.\nfn f() { x.unwrap(); y.expect(\"boom\"); }\n";
        assert_eq!(
            rules(&lint_source("crates/tensor/src/a.rs", src)),
            vec!["no-unwrap", "no-unwrap"]
        );
        assert!(lint_source("crates/metrics/src/a.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "//! Doc.\nfn f() { x.unwrap_or(1).unwrap_or_else(g); }\n";
        assert!(lint_source("crates/exec/src/a.rs", src).is_empty());
    }

    #[test]
    fn env_var_confined_to_parallel() {
        let needle = concat!("std::en", "v::var");
        let src = format!("//! Doc.\nfn f() {{ let _ = {needle}(\"X\"); }}\n");
        assert_eq!(
            rules(&lint_source("crates/data/src/a.rs", &src)),
            vec!["no-env-var"]
        );
        assert!(lint_source("crates/exec/src/parallel.rs", &src).is_empty());
    }

    #[test]
    fn env_var_allowed_in_obs_event() {
        let needle = concat!("std::en", "v::var");
        let src = format!("//! Doc.\nfn f() {{ let _ = {needle}(\"RAPID_LOG\"); }}\n");
        assert!(lint_source("crates/obs/src/event.rs", &src).is_empty());
        assert_eq!(
            rules(&lint_source("crates/obs/src/registry.rs", &src)),
            vec!["no-env-var"]
        );
    }

    #[test]
    fn expect_banned_on_the_serving_path() {
        let src = "//! Doc.\nfn f() { x.unwrap(); y.expect(\"boom\"); }\n";
        // serve.rs sits outside the hot crates, so only the new rule fires.
        assert_eq!(
            rules(&lint_source("crates/obs/src/serve.rs", src)),
            vec!["no-expect-in-serve", "no-expect-in-serve"]
        );
        // parallel.rs is also a hot-crate file: both rules apply there.
        let found = rules(&lint_source("crates/exec/src/parallel.rs", src));
        assert!(found.contains(&"no-unwrap") && found.contains(&"no-expect-in-serve"));
        // Other obs files stay exempt, as before.
        assert!(lint_source("crates/obs/src/registry.rs", src).is_empty());
        // Test modules and allow directives are honoured.
        let src = "//! Doc.\n#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }\n";
        assert!(lint_source("crates/obs/src/serve.rs", src).is_empty());
        let src = "//! Doc.\nfn f() { x.unwrap(); } // lint:allow(no-expect-in-serve) infallible\n";
        assert!(lint_source("crates/obs/src/serve.rs", src).is_empty());
        // `unwrap_or_else` is not `unwrap`.
        let src = "//! Doc.\nfn f() { m.lock().unwrap_or_else(|p| p.into_inner()); }\n";
        assert!(lint_source("crates/obs/src/serve.rs", src).is_empty());
    }

    #[test]
    fn serve_crate_request_path_is_covered_by_prefix() {
        // Every file under crates/serve/src/ — present or future — is
        // on the request path, so the directory prefix must reach it.
        let src = "//! Doc.\nfn f() { x.unwrap(); }\n";
        for file in ["server.rs", "client.rs", "state.rs", "some_new_module.rs"] {
            assert_eq!(
                rules(&lint_source(&format!("crates/serve/src/{file}"), src)),
                vec!["no-expect-in-serve"],
                "{file} must be covered"
            );
        }
        // Integration tests of the serve crate are not request-path code.
        assert!(lint_source("crates/serve/tests/serve_api.rs", src).is_empty());
    }

    #[test]
    fn trace_guards_must_stay_bound_on_the_serve_path() {
        // A bare statement drops the guard at the semicolon.
        let src = "//! Doc.\nfn f() { rapid_obs::trace::start_request(\"k\"); }\n";
        assert_eq!(
            rules(&lint_source("crates/serve/src/server.rs", src)),
            vec!["trace-context-no-leak"]
        );
        // `let _ =` drops it on the same line.
        let src = "//! Doc.\nfn f() { let _ = rapid_obs::trace::install(ctx.clone()); }\n";
        assert_eq!(
            rules(&lint_source("crates/exec/src/parallel.rs", src)),
            vec!["trace-context-no-leak"]
        );
        // `mem::forget` leaks the installed context to the thread.
        let src = "//! Doc.\nfn f() { std::mem::forget(guard); }\n";
        assert_eq!(
            rules(&lint_source("crates/serve/src/server.rs", src)),
            vec!["trace-context-no-leak"]
        );
        // Named bindings — underscore-prefixed included — hold the guard.
        let src = "//! Doc.\nfn f() { let _trace = rapid_obs::trace::install(ctx.clone()); }\n";
        assert!(lint_source("crates/exec/src/parallel.rs", src).is_empty());
        let src = "//! Doc.\nfn f() { let mut trace = rapid_obs::trace::start_request(\"k\"); }\n";
        assert!(lint_source("crates/serve/src/server.rs", src).is_empty());
        // Off the serving path the rule does not apply.
        let src = "//! Doc.\nfn f() { rapid_obs::trace::start_request(\"k\"); }\n";
        assert!(lint_source("crates/bench/src/lib.rs", src).is_empty());
        // Test modules and allow directives are honoured.
        let src = "//! Doc.\n#[cfg(test)]\nmod tests { fn f() { trace::install(ctx); } }\n";
        assert!(lint_source("crates/serve/src/server.rs", src).is_empty());
        let src = "//! Doc.\nfn f() { std::mem::forget(h); } \
                   // lint:allow(trace-context-no-leak) handle lives for the test binary\n";
        assert!(lint_source("crates/serve/src/server.rs", src).is_empty());
    }

    #[test]
    fn unbounded_queues_banned_on_the_serve_path() {
        // Unbounded channel: the accept queue must not buffer without
        // limit.
        let src = "//! Doc.\nfn f() { let (tx, rx) = mpsc::channel::<Conn>(); }\n";
        assert_eq!(
            rules(&lint_source("crates/serve/src/server.rs", src)),
            vec!["bounded-queue"]
        );
        // VecDeque in either form is flagged — `with_capacity` is an
        // allocation hint, not a bound.
        let src = "//! Doc.\nfn f() { let q: VecDeque<R> = VecDeque::new(); }\n";
        assert_eq!(
            rules(&lint_source("crates/serve/src/client.rs", src)),
            vec!["bounded-queue"]
        );
        let src = "//! Doc.\nfn f() { let q = VecDeque::with_capacity(64); }\n";
        assert_eq!(
            rules(&lint_source("crates/exec/src/parallel.rs", src)),
            vec!["bounded-queue"]
        );
        // The bounded primitive passes on its own merits.
        let src = "//! Doc.\nfn f() { let (tx, rx) = mpsc::sync_channel::<Conn>(64); }\n";
        assert!(lint_source("crates/serve/src/server.rs", src).is_empty());
        // Off the request path the rule does not apply.
        let src = "//! Doc.\nfn f() { let q: VecDeque<R> = VecDeque::new(); }\n";
        assert!(lint_source("crates/data/src/a.rs", src).is_empty());
        // The escape hatch needs (and here has) a reason.
        let src = "//! Doc.\nfn f() { let q = VecDeque::new(); } \
                   // lint:allow(bounded-queue) drained to cap 8 two lines down\n";
        assert!(lint_source("crates/serve/src/server.rs", src).is_empty());
        // Test modules are exempt as usual.
        let src = "//! Doc.\n#[cfg(test)]\nmod tests { fn f() { let q = VecDeque::new(); } }\n";
        assert!(lint_source("crates/serve/src/server.rs", src).is_empty());
    }

    #[test]
    fn env_var_allowed_in_faults() {
        let needle = concat!("std::en", "v::var");
        let src = format!("//! Doc.\nfn f() {{ let _ = {needle}(\"RAPID_FAULTS\"); }}\n");
        assert!(lint_source("crates/faults/src/lib.rs", &src).is_empty());
    }

    #[test]
    fn raw_clock_reads_confined_to_obs() {
        let src = "//! Doc.\nfn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            rules(&lint_source("crates/exec/src/parallel.rs", src)),
            vec!["centralized-clock"]
        );
        let src = "//! Doc.\nfn f() { let t = SystemTime::now(); }\n";
        assert_eq!(
            rules(&lint_source("crates/bench/src/lib.rs", src)),
            vec!["centralized-clock"]
        );
        // The obs crate implements the clock, so it may read the raw one.
        let src = "//! Doc.\nfn f() { let t = Instant::now(); }\n";
        assert!(lint_source("crates/obs/src/clock.rs", src).is_empty());
        // The wrapper call itself does not trip the needle.
        let src = "//! Doc.\nfn f() { let t = rapid_obs::clock::now(); }\n";
        assert!(lint_source("crates/core/src/model.rs", src).is_empty());
        // And an allow directive suppresses it.
        let src =
            "//! Doc.\nfn f() { let t = Instant::now(); } // lint:allow(centralized-clock) why\n";
        assert!(lint_source("crates/core/src/model.rs", src).is_empty());
    }

    #[test]
    fn env_var_allowed_in_obs_config() {
        let needle = concat!("std::en", "v::var");
        let src = format!("//! Doc.\nfn f() {{ let _ = {needle}(\"RAPID_DIAG\"); }}\n");
        assert!(lint_source("crates/obs/src/config.rs", &src).is_empty());
    }

    #[test]
    fn bare_print_flagged_only_in_instrumented_crates() {
        let src = "//! Doc.\nfn f() {\n    println!(\"x\");\n    eprintln!(\"y\");\n}\n";
        assert_eq!(
            rules(&lint_source("crates/core/src/a.rs", src)),
            vec!["no-bare-print", "no-bare-print"]
        );
        // The bench/eval binaries keep their human-facing output.
        assert!(lint_source("crates/bench/src/lib.rs", src).is_empty());
        // The longest macro name is reported, not its substrings.
        let f = lint_source(
            "crates/rerankers/src/a.rs",
            "//! Doc.\nfn f() { eprint!(\"x\"); }\n",
        );
        assert!(f[0].message.contains("`eprint!`"));
    }

    #[test]
    fn write_macros_strings_and_allows_are_not_bare_prints() {
        let src = "//! Doc.\nfn f(w: &mut W) { writeln!(w, \"println!\").ok(); }\n";
        assert!(lint_source("crates/exec/src/a.rs", src).is_empty());
        let src = "//! Doc.\nfn f() { println!(\"x\"); } // lint:allow(no-bare-print) CLI output\n";
        assert!(lint_source("crates/autograd/src/a.rs", src).is_empty());
        let src = "//! Doc.\n#[cfg(test)]\nmod tests { fn f() { println!(\"x\"); } }\n";
        assert!(lint_source("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn float_eq_catches_literals_not_field_access() {
        let src = "//! Doc.\nfn f(x: f32) -> bool { x == 0.0 }\n";
        assert_eq!(
            rules(&lint_source("crates/data/src/a.rs", src)),
            vec!["float-eq"]
        );
        let src = "//! Doc.\nfn f(p: (u32, u32)) -> bool { p.0 == p.1 && 1e-3 != x }\n";
        assert_eq!(
            rules(&lint_source("crates/data/src/a.rs", src)),
            vec!["float-eq"]
        );
        let src = "//! Doc.\nfn f(a: usize) -> bool { a == 10 && b <= 2 }\n";
        assert!(lint_source("crates/data/src/a.rs", src).is_empty());
    }

    #[test]
    fn strings_comments_and_tests_are_exempt() {
        let src = "//! Doc.\n// a.unwrap() in a comment\nlet s = \"x == 0.0\";\n\
                   #[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }\n";
        assert!(lint_source("crates/nn/src/a.rs", src).is_empty());
    }

    #[test]
    fn inline_allow_suppresses() {
        let src = "//! Doc.\nfn f(x: f32) -> bool { x == 0.0 } // lint:allow(float-eq) guard\n";
        assert!(lint_source("crates/data/src/a.rs", src).is_empty());
    }

    #[test]
    fn preceding_line_allow_suppresses() {
        let src = "//! Doc.\n// lint:allow(float-eq) — exact-zero guard\nfn f(x: f32) -> bool { x == 0.0 }\n";
        assert!(lint_source("crates/data/src/a.rs", src).is_empty());
        // The directive reaches exactly one line, not the whole file.
        let src = "//! Doc.\n// lint:allow(float-eq) guard\nfn f(x: f32) -> bool { x == 0.0 }\nfn g(x: f32) -> bool { x == 1.0 }\n";
        let f = lint_source("crates/data/src/a.rs", src);
        assert_eq!(rules(&f), vec!["float-eq"]);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn doc_header_required_before_code() {
        let src = "use std::fmt;\n";
        let f = lint_source("crates/data/src/a.rs", src);
        assert_eq!(rules(&f), vec!["doc-header"]);
        assert_eq!(f[0].line, 1);
        let src = "// plain comment\n\n//! Now the doc.\nuse std::fmt;\n";
        assert!(lint_source("crates/data/src/a.rs", src).is_empty());
    }

    #[test]
    fn char_literals_do_not_open_strings() {
        let src = "//! Doc.\nfn f(c: char) -> bool { c == '\"' || 0.0 == x }\n";
        assert_eq!(
            rules(&lint_source("crates/data/src/a.rs", src)),
            vec!["float-eq"]
        );
    }

    #[test]
    fn bare_allow_directives_need_a_reason() {
        // A bare directive is flagged even though it still suppresses.
        let src = "//! Doc.\nfn f(x: f32) -> bool { x == 0.0 } // lint:allow(float-eq)\n";
        assert_eq!(
            rules(&lint_source("crates/data/src/a.rs", src)),
            vec!["allow-needs-reason"]
        );
        // Punctuation alone is not a justification.
        let src = "//! Doc.\n// lint:allow(float-eq) —\nfn f(x: f32) -> bool { x == 0.0 }\n";
        assert_eq!(
            rules(&lint_source("crates/data/src/a.rs", src)),
            vec!["allow-needs-reason"]
        );
        // A trailing reason satisfies the rule (dash separator optional).
        let src =
            "//! Doc.\nfn f(x: f32) -> bool { x == 0.0 } // lint:allow(float-eq) exact guard\n";
        assert!(lint_source("crates/data/src/a.rs", src).is_empty());
        // Test code is not exempt from this rule.
        let src =
            "//! Doc.\n#[cfg(test)]\nmod tests {\n    // lint:allow(float-eq)\n    fn f() {}\n}\n";
        assert_eq!(
            rules(&lint_source("crates/data/src/a.rs", src)),
            vec!["allow-needs-reason"]
        );
        // Directives inside string literals are not comments.
        let src = "//! Doc.\nfn f() { let d = format!(\"lint:allow({rule})\"); }\n";
        assert!(lint_source("crates/data/src/a.rs", src).is_empty());
    }

    #[test]
    fn finding_serializes_to_json() {
        let f = Finding {
            path: "crates/x/src/a.rs".into(),
            line: 7,
            rule: "float-eq",
            message: "say \"why\"".into(),
        };
        assert_eq!(
            f.to_json(),
            "{\"file\":\"crates/x/src/a.rs\",\"line\":7,\"rule\":\"float-eq\",\
             \"message\":\"say \\\"why\\\"\"}"
        );
    }

    #[test]
    fn finding_formats_as_file_line_rule() {
        let f = Finding {
            path: "crates/x/src/a.rs".into(),
            line: 7,
            rule: "float-eq",
            message: "msg".into(),
        };
        assert_eq!(f.to_string(), "crates/x/src/a.rs:7: float-eq: msg");
    }
}
