//! End-to-end linter fixture: a throwaway workspace tree with seeded
//! violations yields `file:line` findings (the CI failure path), and a
//! clean tree yields none.

use std::fs;
use std::path::PathBuf;

use rapid_check::lint_workspace;

fn fixture_root(name: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("rapid-lint-fixture-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

#[test]
fn seeded_violations_are_reported_with_file_and_line() {
    let root = fixture_root("bad");
    let src = root.join("crates/badcrate/src");
    fs::create_dir_all(&src).unwrap();
    // Line 1 doc header, line 2 clean, line 3 a float-eq violation.
    fs::write(
        src.join("lib.rs"),
        "//! Fixture crate.\npub fn f() {}\npub fn g(x: f32) -> bool { x == 0.0 }\n",
    )
    .unwrap();

    let findings = lint_workspace(&root).unwrap();
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.path, "crates/badcrate/src/lib.rs");
    assert_eq!(f.line, 3);
    assert_eq!(f.rule, "float-eq");
    // The rendered form is what CI prints: `file:line: rule: message`.
    assert!(f
        .to_string()
        .starts_with("crates/badcrate/src/lib.rs:3: float-eq:"));

    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn clean_fixture_reports_nothing() {
    let root = fixture_root("clean");
    let src = root.join("crates/goodcrate/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(
        src.join("lib.rs"),
        "//! Fixture crate.\npub fn f(x: f32) -> bool { x.abs() < 1e-6 }\n",
    )
    .unwrap();

    assert!(lint_workspace(&root).unwrap().is_empty());
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn the_shared_http_transport_is_on_the_serve_path() {
    // `crates/obs/src/http.rs` sits outside the `crates/serve/src/`
    // prefix, so it is listed by name on the serve-path rules.
    let root = fixture_root("transport");
    let src = root.join("crates/obs/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(
        src.join("http.rs"),
        "//! Fixture transport.\nfn f() { conn.read().expect(\"x\"); }\nfn g() { let (tx, rx) = mpsc::channel(); }\n",
    )
    .unwrap();

    let found: Vec<(usize, &str)> = lint_workspace(&root)
        .unwrap()
        .iter()
        .map(|f| (f.line, f.rule))
        .collect();
    assert_eq!(found, [(2, "no-expect-in-serve"), (3, "bounded-queue")]);
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn missing_root_is_an_io_error() {
    let root = fixture_root("absent");
    assert!(lint_workspace(&root).is_err());
}
