//! Interprocedural rules over the call graph.
//!
//! | rule | fires when |
//! |------|------------|
//! | P101 | a panicking construct sits in a `service_path` entry or a fn it transitively reaches |
//! | H101 | an allocation construct sits in a `hot_path` entry or a fn it transitively reaches |
//! | T101 | a fn carries `f32`/`f64` in its signature and constructs a clock value itself or via a direct callee |
//! | D101 | a fn uses a hash-ordered collection and (itself or transitively) emits JSON/report output |
//!
//! P101/H101 count the entry itself as call depth 0, so one rule covers
//! the annotated fn and everything it reaches. Each diagnostic lands at
//! the *fact* site (P101/H101/D101) or the function header (T101), so
//! the existing `simlint::allow` machinery suppresses them like any
//! lexical finding. The message carries the BFS chain from the entry
//! point that proves reachability; the
//! fingerprint [`Diagnostic::key`] deliberately does not, so baselines
//! survive call-graph churn.

use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, Severity};
use crate::parse::FactKind;

/// Runs every interprocedural rule over the graph.
pub fn check_graph(g: &CallGraph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // ---- P101 / H101: fact reachability from declared entries ------
    for (rule, scope, kind, noun, fix) in [
        (
            "P101",
            "service_path",
            FactKind::Panic,
            "can panic",
            "return an `Error` variant instead",
        ),
        (
            "H101",
            "hot_path",
            FactKind::Alloc,
            "allocates",
            "hoist the buffer into a reusable workspace",
        ),
    ] {
        let entries = g.entries(scope);
        if entries.is_empty() {
            continue;
        }
        let r = g.reach(&entries);
        for (i, f) in g.fns.iter().enumerate() {
            if !r.visited[i] || f.in_test {
                continue;
            }
            for fact in f.facts.iter().filter(|x| x.kind == kind) {
                let entry = r.origin[i].unwrap_or(i);
                let via = if i == entry {
                    format!("in {scope} entry `{}`", g.fns[entry].qual)
                } else {
                    format!(
                        "reachable from {scope} entry `{}` via {}",
                        g.fns[entry].qual,
                        g.chain(&r, i)
                    )
                };
                diags.push(Diagnostic {
                    rule,
                    severity: Severity::Error,
                    path: f.file.clone(),
                    line: fact.line,
                    col: fact.col,
                    message: format!("`{}` {noun} — {via}; {fix}", fact.what),
                    enclosing_fn: Some(f.name.clone()),
                    key: format!("{}|{}", f.qual, fact.what),
                });
            }
        }
    }

    // ---- T101: f64 signature meeting clock construction -------------
    // Depth 1 by design: the fn itself or a direct callee constructs a
    // clock value. Deeper chains pass through integer domains often
    // enough that flagging them is noise (DESIGN.md).
    for (i, f) in g.fns.iter().enumerate() {
        if !f.f64_sig || f.in_test {
            continue;
        }
        let own = f.facts.iter().find(|x| x.kind == FactKind::ClockCtor);
        let via_callee = g.callees[i].iter().copied().find(|&c| {
            !g.fns[c].in_test && g.fns[c].facts.iter().any(|x| x.kind == FactKind::ClockCtor)
        });
        let detail = match (own, via_callee) {
            (Some(_), _) => "constructs a clock value itself".to_string(),
            (None, Some(c)) => format!("reaches clock construction in `{}`", g.fns[c].qual),
            (None, None) => continue,
        };
        diags.push(Diagnostic {
            rule: "T101",
            severity: Severity::Error,
            path: f.file.clone(),
            line: f.line,
            col: f.col,
            message: format!(
                "fn `{}` carries f32/f64 across its boundary and {detail} — keep \
                 time integral or justify the boundary conversion",
                f.name
            ),
            enclosing_fn: Some(f.name.clone()),
            key: f.qual.clone(),
        });
    }

    // ---- D101: hash-collection use escaping into emitted output -----
    let emitters: Vec<bool> = g
        .fns
        .iter()
        .map(|f| f.facts.iter().any(|x| x.kind == FactKind::Emit))
        .collect();
    let reaches_emit = g.reaches_any(&emitters);
    for (i, f) in g.fns.iter().enumerate() {
        if f.in_test || !reaches_emit[i] {
            continue;
        }
        for fact in f.facts.iter().filter(|x| x.kind == FactKind::HashIter) {
            diags.push(Diagnostic {
                rule: "D101",
                severity: Severity::Error,
                path: f.file.clone(),
                line: fact.line,
                col: fact.col,
                message: format!(
                    "`{}` iteration order can escape into emitted output from fn `{}` — \
                     use `BTree{}` or sort before emitting",
                    fact.what,
                    f.name,
                    &fact.what[4..]
                ),
                enclosing_fn: Some(f.name.clone()),
                key: format!("{}|{}", f.qual, fact.what),
            });
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::context::contexts;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut fns = Vec::new();
        for (path, src) in files {
            let l = lex(src).unwrap();
            let ctxs = contexts(&l.tokens, false);
            let (items, diags) = parse_file(path, &l.tokens, &ctxs, &l.comments);
            assert!(diags.is_empty(), "{diags:?}");
            fns.extend(items);
        }
        check_graph(&CallGraph::build(fns))
    }

    #[test]
    fn p101_flags_transitive_panic_one_call_deep() {
        let diags = run(&[
            (
                "crates/a/src/lib.rs",
                "// simlint::entry(service_path)\npub fn serve() { helper::deep(); }",
            ),
            (
                "crates/a/src/helper.rs",
                "pub fn deep(x: Option<u64>) { x.unwrap(); }",
            ),
        ]);
        let p: Vec<_> = diags.iter().filter(|d| d.rule == "P101").collect();
        assert_eq!(p.len(), 1, "{diags:?}");
        assert_eq!(p[0].path, "crates/a/src/helper.rs");
        assert!(p[0].message.contains("a::serve"));
    }

    #[test]
    fn p101_ignores_unreachable_and_test_panics() {
        let diags = run(&[(
            "crates/a/src/lib.rs",
            "// simlint::entry(service_path)\npub fn serve() {}\n\
             fn island() { x.unwrap(); }\n\
             #[cfg(test)] mod tests { fn t() { y.unwrap(); } }",
        )]);
        assert!(diags.iter().all(|d| d.rule != "P101"), "{diags:?}");
    }

    #[test]
    fn p101_does_not_flag_unwrap_or() {
        let diags = run(&[(
            "crates/a/src/lib.rs",
            "// simlint::entry(service_path)\n\
             fn service() { let x = a.unwrap_or(0).unwrap_or_default(); }",
        )]);
        assert!(diags.iter().all(|d| d.rule != "P101"), "{diags:?}");
    }

    #[test]
    fn h101_flags_reachable_allocation() {
        let diags = run(&[
            (
                "crates/a/src/lib.rs",
                "// simlint::entry(hot_path)\npub fn beat() { stage(); }",
            ),
            (
                "crates/a/src/stage.rs",
                "pub fn stage() { let v = Vec::new(); }",
            ),
        ]);
        let h: Vec<_> = diags.iter().filter(|d| d.rule == "H101").collect();
        assert_eq!(h.len(), 1);
        assert!(h[0].message.contains("Vec::new"));
    }

    #[test]
    fn entry_facts_fire_at_depth_zero_but_unreachable_ones_do_not() {
        let diags = run(&[(
            "crates/a/src/lib.rs",
            "// simlint::entry(service_path)\n\
             pub fn serve(x: Option<u64>) { x.unwrap(); stage(); }\n\
             fn stage(xs: &[u64]) { let _ = xs[0]; }\n\
             fn island(y: Option<u64>) { y.unwrap(); }",
        )]);
        let p: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "P101")
            .map(|d| (d.enclosing_fn.as_deref().unwrap(), d.message.as_str()))
            .collect();
        assert_eq!(p.len(), 2, "{diags:?}");
        assert_eq!(p[0].0, "serve");
        assert!(p[0].1.contains("in service_path entry `a::serve`"), "{p:?}");
        assert_eq!(p[1].0, "stage");
        assert!(p[1].1.contains("via a::serve → a::stage"), "{p:?}");
    }

    #[test]
    fn h101_follows_an_entry_with_impl_trait_arguments() {
        let diags = run(&[(
            "crates/a/src/lib.rs",
            "impl Phase {\n\
             // simlint::entry(hot_path)\n\
             pub fn step(&mut self, limit: impl Into<u64>) -> impl Copy { stage(); }\n\
             }\n\
             fn stage() { let v = Vec::new(); }",
        )]);
        let h: Vec<_> = diags.iter().filter(|d| d.rule == "H101").collect();
        assert_eq!(h.len(), 1, "{diags:?}");
        assert_eq!(h[0].enclosing_fn.as_deref(), Some("stage"));
    }

    #[test]
    fn t101_depth_one_only() {
        let diags = run(&[(
            "crates/a/src/lib.rs",
            "pub fn direct(ns: f64) -> Picos { Picos::from_ns(ns) }\n\
             pub fn one_hop(ns: f64) { mk(ns); }\n\
             fn mk(x: f64) { let p = Picos(0); }\n\
             pub fn two_hops(ns: f64) { via(ns); }\n\
             fn via(x: f64) { mk(x); }\n\
             pub fn integer_only(n: u64) { mk2(n); }",
        )]);
        let t: Vec<String> = diags
            .iter()
            .filter(|d| d.rule == "T101")
            .map(|d| d.enclosing_fn.clone().unwrap())
            .collect();
        assert!(t.contains(&"direct".to_string()), "{t:?}");
        assert!(t.contains(&"one_hop".to_string()));
        assert!(t.contains(&"mk".to_string())); // f64 sig + own ctor
        assert!(t.contains(&"via".to_string())); // f64 sig + direct callee
        assert!(
            !t.contains(&"two_hops".to_string()),
            "depth >1 must not flag"
        );
        assert!(!t.contains(&"integer_only".to_string()));
    }

    #[test]
    fn d101_flags_hash_reaching_emission() {
        let diags = run(&[
            (
                "crates/a/src/lib.rs",
                "pub fn tally() { let m: HashMap<u64, u64> = make(); report::dump(); }\n\
                 pub fn pure() { let s: HashSet<u64> = make(); }",
            ),
            (
                "crates/a/src/report.rs",
                "pub fn dump() { println!(\"x\"); }",
            ),
        ]);
        let d: Vec<_> = diags.iter().filter(|d| d.rule == "D101").collect();
        assert_eq!(d.len(), 1, "{diags:?}");
        assert_eq!(d[0].enclosing_fn.as_deref(), Some("tally"));
    }
}
