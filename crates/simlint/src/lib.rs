//! `simlint` — a zero-dependency determinism & hot-path static
//! analysis pass for the simulator workspace.
//!
//! The headline claims of this reproduction (fast-vs-reference
//! servicing identity, parallel-vs-sequential exploration identity,
//! stream-vs-trace identity) are byte-identity contracts. Runtime
//! property tests verify them today; `simlint` stops the classic ways
//! they rot *before* a flaky diff surfaces:
//!
//! | rule | guards against |
//! |------|----------------|
//! | D001 | wall-clock reads leaking into deterministic code |
//! | D002 | `HashMap`/`HashSet` iteration order feeding output |
//! | D003 | float rounding inside clock/timing accumulation |
//! | R001 | silent `as` truncation in address arithmetic |
//! | X001 | under-synchronized atomics in `sim-exec` |
//! | D101 | hash-ordered iteration escaping into emitted output |
//! | H101 | allocation in or reachable from a `hot_path` entry |
//! | P101 | panic in or reachable from a `service_path` entry |
//! | T101 | f32/f64 crossing a fn boundary into clock construction |
//! | A001 | malformed/unjustified `simlint::allow` comments |
//! | A002 | stale `simlint::allow` comments (warning) |
//! | A003 | malformed/unattached `simlint::entry` annotations |
//! | L001 | files that fail to lex |
//!
//! [`RULES`] is the one table of ids and summaries behind
//! `--list-rules` and [`known_rule_ids`].
//!
//! The lexical pipeline is three stages, all hand-rolled (the
//! workspace is hermetically zero-dependency — no `syn`): [`lexer`]
//! produces tokens with exact line/col spans and an out-of-band
//! comment stream; [`context`] annotates every token with its module
//! path, enclosing `fn` and test-ness; [`rules`] pattern-match the
//! annotated stream. On top of that, [`parse`] lifts the stream into
//! per-function items (facts + call sites), [`callgraph`] links them
//! workspace-wide, and [`reach`] runs the interprocedural `*101`
//! rules over the graph. [`allow`] applies line-targeted suppressions
//! parsed from the comment stream to both passes; [`baseline`] turns
//! surviving diagnostics into stable fingerprints so CI gates only
//! *new* findings.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod allow;
pub mod baseline;
pub mod callgraph;
pub mod context;
pub mod diag;
pub mod lexer;
pub mod parse;
pub mod reach;
pub mod rules;
pub mod walk;

use std::io;
use std::path::Path;

pub use diag::{Diagnostic, Severity};

/// Every rule simlint reports, as `(id, summary)`: the lexical rules,
/// the call-graph rules, then the meta rules about annotations (`A*`)
/// and unreadable files (`L001`).
pub const RULES: &[(&str, &str)] = &[
    (
        "D001",
        "no wall-clock reads (Instant::now / SystemTime / elapsed) outside the bench harness",
    ),
    (
        "D002",
        "no HashMap/HashSet in simulation crates (iteration order is nondeterministic)",
    ),
    (
        "D003",
        "no f32/f64 arithmetic in clock/timing modules (integer picoseconds only)",
    ),
    (
        "R001",
        "no bare narrowing `as` casts in mem3d/layout address arithmetic (use try_into/checked ops)",
    ),
    (
        "X001",
        "no Ordering::Relaxed in sim-exec outside the allowlisted hot counters",
    ),
    (
        "D101",
        "HashMap/HashSet iteration order reaching emitted output (call graph)",
    ),
    (
        "H101",
        "allocation in or reachable from a hot_path entry (call graph)",
    ),
    (
        "P101",
        "panic in or reachable from a service_path entry (call graph)",
    ),
    (
        "T101",
        "f32/f64 crossing a fn boundary into clock construction",
    ),
    (
        "A001",
        "malformed simlint::allow (unknown rule or missing justification)",
    ),
    (
        "A002",
        "stale simlint::allow that suppresses nothing (warning)",
    ),
    (
        "A003",
        "malformed or unattached simlint::entry annotation",
    ),
    ("L001", "file failed to lex"),
];

/// Every rule id `simlint::allow(...)` may name: all of [`RULES`] but
/// the meta rules, whose findings are about the annotations and files
/// themselves and never pass through suppression.
pub fn known_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&str> = RULES
        .iter()
        .map(|(id, _)| *id)
        .filter(|id| !id.starts_with('A') && *id != "L001")
        .collect();
    ids.sort_unstable();
    ids
}

/// The result of analysing a set of sources as one workspace.
#[derive(Debug)]
pub struct Analysis {
    /// Surviving diagnostics, in canonical (path, line, col, rule)
    /// order.
    pub diags: Vec<Diagnostic>,
    /// Number of files analysed.
    pub files: usize,
    /// The workspace call graph, for `--emit callgraph`.
    pub graph: callgraph::CallGraph,
}

/// Analyses `files` — `(workspace-relative path, source text)` pairs —
/// as one workspace: the lexical rules run per file, then every
/// parsed function joins a single call graph for the interprocedural
/// rules. Suppressions collected per file silence findings from both
/// passes; `A002` staleness is judged only after both have run.
pub fn check_sources(files: &[(String, String)]) -> Analysis {
    check_sources_with_deps(files, None)
}

/// [`check_sources`], with a workspace dependency map (crate dir →
/// linkable crate dirs, see [`walk::workspace_deps`]) that tightens
/// call resolution: candidate callees in crates the caller cannot
/// link against are discarded. `None` stays fully permissive, which
/// is what ad-hoc file lists and the fixture suite want.
pub fn check_sources_with_deps(
    files: &[(String, String)],
    deps: Option<&std::collections::BTreeMap<String, Vec<String>>>,
) -> Analysis {
    let known = known_rule_ids();
    let mut diags = Vec::new();
    let mut sups: Vec<(String, allow::Suppressions)> = Vec::new();
    let mut fns = Vec::new();

    for (path, src) in files {
        let lexed = match lexer::lex(src) {
            Ok(l) => l,
            Err(e) => {
                diags.push(Diagnostic {
                    rule: "L001",
                    severity: Severity::Error,
                    path: path.clone(),
                    line: e.line,
                    col: e.col,
                    message: format!("file failed to lex: {}", e.message),
                    enclosing_fn: None,
                    key: "lex".to_string(),
                });
                continue;
            }
        };
        let contexts = context::contexts(&lexed.tokens, walk::path_is_test(path));
        let (mut sup, mut allow_diags) =
            allow::collect(&lexed.comments, &lexed.tokens, &known, path);
        diags.append(&mut allow_diags);
        let (items, mut entry_diags) =
            parse::parse_file(path, &lexed.tokens, &contexts, &lexed.comments);
        diags.append(&mut entry_diags);
        let file = rules::FileCheck {
            path,
            tokens: &lexed.tokens,
            contexts: &contexts,
        };
        for rule in rules::all_rules() {
            if !rule.applies_to(path) {
                continue;
            }
            for d in rule.check(&file) {
                if !sup.suppress(d.rule, d.line) {
                    diags.push(d);
                }
            }
        }
        fns.extend(items);
        sups.push((path.clone(), sup));
    }

    let graph = callgraph::CallGraph::build_with_deps(fns, deps);
    for d in reach::check_graph(&graph) {
        let suppressed = sups
            .iter_mut()
            .find(|(p, _)| p == &d.path)
            .is_some_and(|(_, sup)| sup.suppress(d.rule, d.line));
        if !suppressed {
            diags.push(d);
        }
    }
    for (path, sup) in &sups {
        diags.extend(sup.stale(path));
    }
    diag::sort(&mut diags);
    Analysis {
        diags,
        files: files.len(),
        graph,
    }
}

/// Checks one file's source text as if it lived at workspace-relative
/// `path` (which decides rule applicability, allowlists, and whether
/// the whole file is test code).
///
/// Returns diagnostics in canonical order. A file that fails to lex
/// yields a single `L001` error instead. Interprocedural rules run
/// over the file's own call graph — cross-file reachability needs
/// [`check_sources`] / [`check_workspace`].
pub fn check_source(path: &str, src: &str) -> Vec<Diagnostic> {
    check_sources(&[(path.to_string(), src.to_string())]).diags
}

/// Walks the workspace under `root` and analyses every file as one
/// unit — see [`check_sources`].
///
/// # Errors
///
/// Propagates I/O failures from the directory walk or file reads.
pub fn check_workspace(root: &Path) -> io::Result<Analysis> {
    let files = walk::workspace_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    let deps = walk::workspace_deps(root)?;
    Ok(check_sources_with_deps(&sources, Some(&deps)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppressed_hit_is_silenced_and_not_stale() {
        let src = "fn f() {\n    // simlint::allow(D001): deadline check is wall-clock by design\n    let t = Instant::now();\n}\n";
        let diags = check_source("crates/sim-exec/src/pool.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unsuppressed_hit_is_reported_with_context() {
        let src = "fn poll() { let t = Instant::now(); }\n";
        let diags = check_source("crates/sim-exec/src/pool.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "D001");
        assert_eq!(diags[0].enclosing_fn.as_deref(), Some("poll"));
    }

    #[test]
    fn lex_failure_becomes_l001() {
        let diags = check_source("crates/core/src/x.rs", "fn f() { \"unterminated }");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "L001");
    }

    #[test]
    fn allow_of_one_rule_does_not_cover_another() {
        let src = "fn f() {\n    // simlint::allow(D002): wrong rule for this line\n    let t = Instant::now();\n}\n";
        let diags = check_source("crates/core/src/explore.rs", src);
        // The D001 hit survives AND the D002 allow is stale.
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"D001"), "{diags:?}");
        assert!(rules.contains(&"A002"), "{diags:?}");
    }

    #[test]
    fn interprocedural_diag_crosses_files_in_one_analysis() {
        let files = vec![
            (
                "crates/a/src/lib.rs".to_string(),
                "// simlint::entry(service_path)\npub fn serve() { helper::deep(x); }\n"
                    .to_string(),
            ),
            (
                "crates/a/src/helper.rs".to_string(),
                "pub fn deep(x: Option<u64>) { x.unwrap(); }\n".to_string(),
            ),
        ];
        let a = check_sources(&files);
        let p101: Vec<_> = a.diags.iter().filter(|d| d.rule == "P101").collect();
        assert_eq!(p101.len(), 1, "{:?}", a.diags);
        assert_eq!(p101[0].path, "crates/a/src/helper.rs");
    }

    #[test]
    fn rule_ids_are_unique_and_sorted() {
        let mut ids: Vec<&str> = RULES.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len(), "duplicate id in RULES");
        let known = known_rule_ids();
        let mut sorted = known.clone();
        sorted.sort_unstable();
        assert_eq!(known, sorted);
    }
}
