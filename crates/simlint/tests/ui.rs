//! Fixture-based ui tests: every `tests/fixtures/*.rs` file declares
//! the workspace path it pretends to live at via a
//! `// simlint-fixture-path: <path>` header and is paired with a
//! `.expected` file listing the diagnostics it must produce, one per
//! line as `{line}:{col} {level}[{rule}] {message}`.
//!
//! A *directory* under `tests/fixtures/` is a multi-file fixture: its
//! `.rs` members (each with its own fixture-path header) are analysed
//! together as one workspace — this is how the interprocedural rules
//! prove cross-file reachability — and its `expected` file lists the
//! combined diagnostics as `{path}:{line}:{col} {level}[{rule}]
//! {message}`.

use std::fs;
use std::path::{Path, PathBuf};

use simlint::{check_source, check_sources, Diagnostic};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixtures() -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = fs::read_dir(fixture_dir())
        .expect("fixtures dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    v.sort();
    assert!(!v.is_empty(), "no fixtures found");
    v
}

fn dir_fixtures() -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = fs::read_dir(fixture_dir())
        .expect("fixtures dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.is_dir())
        .collect();
    v.sort();
    assert!(!v.is_empty(), "no directory fixtures found");
    v
}

fn logical_path(src: &str, fixture: &Path) -> String {
    src.lines()
        .find_map(|l| l.strip_prefix("// simlint-fixture-path:"))
        .unwrap_or_else(|| panic!("{} is missing its fixture-path header", fixture.display()))
        .trim()
        .to_string()
}

fn render(d: &Diagnostic) -> String {
    let mut s = format!(
        "{}:{} {}[{}] {}",
        d.line,
        d.col,
        d.severity.label(),
        d.rule,
        d.message
    );
    if let Some(f) = &d.enclosing_fn {
        s.push_str(&format!(" (in fn {f})"));
    }
    s
}

#[test]
fn fixtures_match_expected_diagnostics() {
    let mut failures = Vec::new();
    for fixture in fixtures() {
        let src = fs::read_to_string(&fixture).expect("readable fixture");
        let path = logical_path(&src, &fixture);
        let got: Vec<String> = check_source(&path, &src).iter().map(render).collect();
        let expected_file = fixture.with_extension("expected");
        let expected_text = fs::read_to_string(&expected_file).unwrap_or_else(|_| {
            panic!("{} has no .expected file", fixture.display());
        });
        let expected: Vec<String> = expected_text.lines().map(str::to_string).collect();
        if got != expected {
            failures.push(format!(
                "== {} (as {path})\n-- expected:\n{}\n-- got:\n{}",
                fixture.display(),
                expected.join("\n"),
                got.join("\n"),
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

#[test]
fn dir_fixtures_match_expected_diagnostics() {
    let mut failures = Vec::new();
    for dir in dir_fixtures() {
        let mut members: Vec<PathBuf> = fs::read_dir(&dir)
            .expect("readable fixture dir")
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        members.sort();
        assert!(!members.is_empty(), "{} has no .rs members", dir.display());
        let sources: Vec<(String, String)> = members
            .iter()
            .map(|m| {
                let src = fs::read_to_string(m).expect("readable member");
                (logical_path(&src, m), src)
            })
            .collect();
        let analysis = check_sources(&sources);
        let got: Vec<String> = analysis
            .diags
            .iter()
            .map(|d| format!("{}:{}", d.path, render(d)))
            .collect();
        let expected_file = dir.join("expected");
        let expected_text = fs::read_to_string(&expected_file)
            .unwrap_or_else(|_| panic!("{} has no expected file", dir.display()));
        let expected: Vec<String> = expected_text.lines().map(str::to_string).collect();
        if got != expected {
            failures.push(format!(
                "== {}\n-- expected:\n{}\n-- got:\n{}",
                dir.display(),
                expected.join("\n"),
                got.join("\n"),
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

#[test]
fn every_rule_has_a_positive_fixture() {
    // Guards fixture rot: each shipped rule must keep at least one
    // fixture that exercises a hit.
    let mut uncovered: Vec<&str> = simlint::RULES.iter().map(|(id, _)| *id).collect();
    for fixture in fixtures() {
        let expected = fs::read_to_string(fixture.with_extension("expected")).unwrap_or_default();
        uncovered.retain(|r| !expected.contains(&format!("[{r}]")));
    }
    for dir in dir_fixtures() {
        let expected = fs::read_to_string(dir.join("expected")).unwrap_or_default();
        uncovered.retain(|r| !expected.contains(&format!("[{r}]")));
    }
    assert!(
        uncovered.is_empty(),
        "rules without a hit fixture: {uncovered:?}"
    );
}

#[test]
fn interprocedural_rules_catch_what_lexical_rules_miss() {
    // The acceptance bar for the `*101` family: on the same fixture,
    // the helper file analysed *alone* (no entry reaches it) reports
    // nothing, while the workspace analysis flags the violation one
    // call level deep.
    for (dir, rule) in [("p101_hit", "P101"), ("h101_hit", "H101")] {
        let helper = fixture_dir().join(dir).join("helper.rs");
        let src = fs::read_to_string(&helper).expect("readable helper");
        let path = logical_path(&src, &helper);
        let alone = check_source(&path, &src);
        assert!(
            alone
                .iter()
                .all(|d| !d.rule.starts_with('P') && !d.rule.starts_with('H')),
            "{dir}: helper alone should be lexically invisible: {alone:?}"
        );
        let expected = fs::read_to_string(fixture_dir().join(dir).join("expected")).unwrap();
        assert!(
            expected.contains(&format!("[{rule}]")),
            "{dir}: workspace analysis must flag {rule}"
        );
    }
}

#[test]
fn folded_lexical_ids_are_no_longer_rules() {
    // The file-scoped panic and allocation rules were folded into
    // P101/H101 as their call-depth-0 case; their old ids name nothing.
    let known = simlint::known_rule_ids();
    for retired in ["P001", "H001"] {
        assert!(!known.contains(&retired), "{retired} is still allowable");
        assert!(simlint::RULES.iter().all(|(id, _)| *id != retired));
    }
}

#[test]
fn json_output_round_trips_through_sim_util_json() {
    use sim_util::json::{parse, Value};

    let fixture = fixture_dir().join("p101_entry_hit.rs");
    let src = fs::read_to_string(&fixture).expect("readable fixture");
    let path = logical_path(&src, &fixture);
    let diags = check_source(&path, &src);
    assert!(!diags.is_empty());
    for d in &diags {
        let text = d.render_json();
        let v = parse(&text).expect("diagnostic JSON parses");
        assert_eq!(v.get("rule").and_then(Value::as_str), Some(d.rule));
        assert_eq!(
            v.get("severity").and_then(Value::as_str),
            Some(d.severity.label())
        );
        assert_eq!(v.get("path").and_then(Value::as_str), Some(path.as_str()));
        assert_eq!(
            v.get("line").and_then(Value::as_i64),
            Some(i64::from(d.line))
        );
        assert_eq!(v.get("col").and_then(Value::as_i64), Some(i64::from(d.col)));
        assert_eq!(
            v.get("message").and_then(Value::as_str),
            Some(d.message.as_str())
        );
        // Emit → parse → emit is byte-identical (key order preserved).
        assert_eq!(v.to_json(), text);
    }
}
