//! Item-level parsing on top of the token stream.
//!
//! This is the interprocedural layer's front end: it walks one file's
//! tokens (with their [`TokenContext`]s already computed) and produces
//! one [`FnItem`] per function — its workspace-qualified name, the
//! *local facts* the reachability rules care about (panicking
//! constructs, allocation constructs, hash-collection use, output
//! emission, clock construction), the call and method-call expressions
//! it contains, and any `// simlint::entry(SCOPE)` annotations
//! attached to it.
//!
//! It is deliberately not a Rust grammar. Known resolution limits are
//! documented in DESIGN.md ("Interprocedural analysis"): no type
//! inference (method calls resolve by name), no macro expansion, no
//! trait dispatch beyond name matching. The analysis stays sound for
//! its purpose by over-approximating: a call that *might* target a
//! workspace function becomes an edge.

use crate::context::TokenContext;
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Comment, Token, TokenKind};

/// Entry scopes the interprocedural rules understand.
pub const KNOWN_SCOPES: &[&str] = &["service_path", "hot_path"];

/// What kind of local fact a token sequence established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactKind {
    /// A construct that can panic (`unwrap`, `expect`, `panic!`,
    /// `unreachable!`, `todo!`, `unimplemented!`, slice/array index).
    Panic,
    /// A heap-allocation construct (`Box::new`, `Vec::new`, `vec![]`,
    /// `.collect()`, `.to_vec()`).
    Alloc,
    /// Use of a hash-ordered collection (`HashMap` / `HashSet`).
    HashIter,
    /// Output emission (JSON building, `to_json`, print/write macros).
    Emit,
    /// Construction of a clock value (`Picos::...`, `Picos(..)`,
    /// `from_fs_clock`).
    ClockCtor,
}

/// One local fact inside a function body.
#[derive(Debug, Clone)]
pub struct Fact {
    /// The fact class.
    pub kind: FactKind,
    /// The matched construct, for messages and fingerprints
    /// (`unwrap`, `index`, `Vec::new`, ...).
    pub what: String,
    /// 1-based line of the construct.
    pub line: u32,
    /// 1-based column of the construct.
    pub col: u32,
}

/// One call or method-call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (`service`, `run_phase`, ...).
    pub name: String,
    /// Path qualifier segments before the name (`Picos` for
    /// `Picos::max(..)`, `["mem3d", "timing"]` for a module path);
    /// empty for bare and method calls. `crate`/`self`/`super`
    /// prefixes are dropped.
    pub path: Vec<String>,
    /// `true` for `.name(..)` method-call syntax.
    pub method: bool,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Self type of the enclosing `impl`/`trait` block, if any.
    pub impl_type: Option<String>,
    /// Fully qualified name: file module path + in-file modules +
    /// impl type + name (e.g. `mem3d::system::MemorySystem::service`).
    pub qual: String,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// `true` for functions in test code (`#[cfg(test)]`, `#[test]`,
    /// or files under `tests/`/`benches/`).
    pub in_test: bool,
    /// `true` when the signature mentions `f32`/`f64` (parameter or
    /// return position) — the T101 taint source marker.
    pub f64_sig: bool,
    /// Entry scopes declared for this function via
    /// `// simlint::entry(SCOPE)`.
    pub entries: Vec<String>,
    /// Local facts inside the body.
    pub facts: Vec<Fact>,
    /// Calls inside the body, in source order.
    pub calls: Vec<CallSite>,
}

/// Derives the module path a file's items live under from its
/// workspace-relative path: `crates/mem3d/src/system.rs` →
/// `mem3d::system`, `crates/sim-exec/src/lib.rs` → `sim_exec`,
/// `src/main.rs` → `main`. Test/bench/example files get their
/// directory as a segment so quals stay unique.
pub fn file_module(path: &str) -> String {
    let segs: Vec<&str> = path.split('/').collect();
    let mut out: Vec<String> = Vec::new();
    let rest = if segs.first() == Some(&"crates") && segs.len() > 2 {
        out.push(segs[1].replace('-', "_"));
        &segs[2..]
    } else {
        &segs[..]
    };
    for (i, seg) in rest.iter().enumerate() {
        let last = i + 1 == rest.len();
        if last {
            let stem = seg.strip_suffix(".rs").unwrap_or(seg);
            if stem != "lib" && stem != "mod" {
                out.push(stem.replace('-', "_"));
            }
        } else if *seg != "src" {
            out.push(seg.replace('-', "_"));
        }
    }
    out.join("::")
}

/// Rust keywords that look like call heads but are not.
const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

struct TokenView<'a> {
    tokens: &'a [Token],
}

impl TokenView<'_> {
    fn ident(&self, i: usize) -> Option<&str> {
        self.tokens.get(i).and_then(|t| {
            if t.kind == TokenKind::Ident {
                Some(t.text.as_str())
            } else {
                None
            }
        })
    }

    fn is_punct(&self, i: usize, p: &str) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == p)
    }

    /// Index after a `::<...>` turbofish starting at `i`, or `i`
    /// unchanged when there is none.
    fn skip_turbofish(&self, i: usize) -> usize {
        if !(self.is_punct(i, ":") && self.is_punct(i + 1, ":") && self.is_punct(i + 2, "<")) {
            return i;
        }
        let mut depth = 0usize;
        let mut j = i + 2;
        while j < self.tokens.len() {
            if self.is_punct(j, "<") {
                depth += 1;
            } else if self.is_punct(j, ">") && !self.is_punct(j.wrapping_sub(1), "-") {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        i
    }
}

/// One parsed `// simlint::entry(SCOPE)` marker.
struct EntryMarker {
    scope: String,
    line: u32,
}

const ENTRY_MARKER: &str = "simlint::entry";

/// Parses entry markers from the comment stream; malformed or
/// unknown-scope markers become **A003** diagnostics.
fn collect_entries(comments: &[Comment], path: &str) -> (Vec<EntryMarker>, Vec<Diagnostic>) {
    let mut entries = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        if c.doc || !c.text.contains(ENTRY_MARKER) {
            continue;
        }
        let a003 = |message: String| Diagnostic {
            rule: "A003",
            severity: Severity::Error,
            path: path.to_string(),
            line: c.line,
            col: c.col,
            message,
            enclosing_fn: None,
            key: "entry".to_string(),
        };
        let parsed = (|| {
            let at = c.text.find(ENTRY_MARKER)?;
            let after = c.text[at + ENTRY_MARKER.len()..].strip_prefix('(')?;
            let close = after.find(')')?;
            let scope = after[..close].trim().to_string();
            if scope.is_empty() {
                return None;
            }
            Some(scope)
        })();
        let Some(scope) = parsed else {
            diags.push(a003(
                "malformed simlint::entry: expected `simlint::entry(SCOPE)`".to_string(),
            ));
            continue;
        };
        if !KNOWN_SCOPES.contains(&scope.as_str()) {
            diags.push(a003(format!(
                "simlint::entry names unknown scope `{scope}` (known: {})",
                KNOWN_SCOPES.join(", ")
            )));
            continue;
        }
        entries.push(EntryMarker {
            scope,
            line: c.line,
        });
    }
    (entries, diags)
}

/// Parses one file into function items.
///
/// Returns the items plus any **A003** diagnostics from malformed
/// `simlint::entry` markers. An entry marker attaches to the first
/// `fn` item at or after its line; a marker with no following `fn`
/// in the file is an A003 error.
pub fn parse_file(
    path: &str,
    tokens: &[Token],
    contexts: &[TokenContext],
    comments: &[Comment],
) -> (Vec<FnItem>, Vec<Diagnostic>) {
    let (markers, mut diags) = collect_entries(comments, path);
    let module = file_module(path);
    let v = TokenView { tokens };
    let mut items: Vec<FnItem> = Vec::new();

    let mut i = 0usize;
    while i < tokens.len() {
        if v.ident(i) != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = v.ident(i + 1) else {
            i += 1;
            continue;
        };
        let name = name.to_string();
        // Signature runs to the body `{` or a bodyless `;`.
        let mut j = i + 2;
        let mut f64_sig = false;
        let mut body_open = None;
        while j < tokens.len() {
            match v.ident(j) {
                Some("f64") | Some("f32") => f64_sig = true,
                _ => {}
            }
            if v.is_punct(j, "{") {
                body_open = Some(j);
                break;
            }
            if v.is_punct(j, ";") {
                break;
            }
            j += 1;
        }
        let ctx = &contexts[i];
        let mut item = FnItem {
            name: name.clone(),
            impl_type: ctx.impl_type.clone(),
            qual: {
                let mut parts: Vec<String> = Vec::new();
                if !module.is_empty() {
                    parts.push(module.clone());
                }
                parts.extend(ctx.module_path.iter().cloned());
                if let Some(t) = &ctx.impl_type {
                    parts.push(t.clone());
                }
                parts.push(name.clone());
                parts.join("::")
            },
            file: path.to_string(),
            line: tokens[i].line,
            col: tokens[i].col,
            in_test: ctx.in_test,
            f64_sig,
            entries: Vec::new(),
            facts: Vec::new(),
            calls: Vec::new(),
        };
        let Some(open) = body_open else {
            items.push(item);
            i = j + 1;
            continue;
        };
        // Body range: matched braces from `open`.
        let mut depth = 0usize;
        let mut close = tokens.len();
        let mut k = open;
        while k < tokens.len() {
            if v.is_punct(k, "{") {
                depth += 1;
            } else if v.is_punct(k, "}") {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
            k += 1;
        }
        scan_body(&v, contexts, open + 1, close, &name, &mut item);
        items.push(item);
        i += 2; // continue after the name so nested fns are found too
    }

    // Attach entry markers to the first fn at or after their line.
    for m in markers {
        let target = items
            .iter_mut()
            .filter(|f| f.line >= m.line)
            .min_by_key(|f| (f.line, f.col));
        match target {
            Some(f) => f.entries.push(m.scope),
            None => diags.push(Diagnostic {
                rule: "A003",
                severity: Severity::Error,
                path: path.to_string(),
                line: m.line,
                col: 1,
                message: format!(
                    "simlint::entry({}) has no following fn item to attach to",
                    m.scope
                ),
                enclosing_fn: None,
                key: "entry".to_string(),
            }),
        }
    }
    (items, diags)
}

/// Names whose `name!(..)` invocation can panic at runtime.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
/// Methods whose call can panic.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Print/write macros counted as output emission.
const EMIT_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "writeln", "write"];
/// Functions/methods counted as output emission.
const EMIT_FNS: &[&str] = &["to_json", "render_json", "render_human"];

fn scan_body(
    v: &TokenView,
    contexts: &[TokenContext],
    from: usize,
    to: usize,
    fn_name: &str,
    item: &mut FnItem,
) {
    let tokens = v.tokens;
    for k in from..to.min(tokens.len()) {
        // Skip tokens belonging to a *nested* fn item (its own pass
        // collects them) and test regions inside the body.
        let ctx = &contexts[k];
        if ctx.enclosing_fn.as_deref() != Some(fn_name) || (ctx.in_test && !item.in_test) {
            continue;
        }
        let t = &tokens[k];
        let fact = |kind, what: &str| Fact {
            kind,
            what: what.to_string(),
            line: t.line,
            col: t.col,
        };
        match t.kind {
            TokenKind::Ident => {
                let name = t.text.as_str();
                let prev_dot = k > 0 && v.is_punct(k - 1, ".");
                let after = v.skip_turbofish(k + 1);
                let calls_next = v.is_punct(after, "(");
                let bangs_next = v.is_punct(k + 1, "!");

                // ---- facts -------------------------------------------------
                if (PANIC_METHODS.contains(&name) && calls_next)
                    || (PANIC_MACROS.contains(&name) && bangs_next)
                {
                    item.facts.push(fact(FactKind::Panic, name));
                }
                if calls_next || bangs_next {
                    match name {
                        "new"
                            if k >= 3
                                && v.is_punct(k - 1, ":")
                                && v.is_punct(k - 2, ":")
                                && matches!(v.ident(k - 3), Some("Box" | "Vec")) =>
                        {
                            let owner = v.ident(k - 3).unwrap_or("Vec");
                            item.facts
                                .push(fact(FactKind::Alloc, &format!("{owner}::new")));
                        }
                        "vec" if bangs_next => {
                            item.facts.push(fact(FactKind::Alloc, "vec!"));
                        }
                        "collect" if prev_dot => {
                            item.facts.push(fact(FactKind::Alloc, "collect"));
                        }
                        "to_vec" if prev_dot => {
                            item.facts.push(fact(FactKind::Alloc, "to_vec"));
                        }
                        _ => {}
                    }
                    if (EMIT_MACROS.contains(&name) && bangs_next)
                        || (EMIT_FNS.contains(&name) && calls_next)
                    {
                        item.facts.push(fact(FactKind::Emit, name));
                    }
                    if name == "from_fs_clock" && calls_next {
                        item.facts.push(fact(FactKind::ClockCtor, name));
                    }
                }
                if name == "HashMap" || name == "HashSet" {
                    item.facts.push(fact(FactKind::HashIter, name));
                }
                // `Picos(..)` and `Picos::from_*` construct a clock
                // value; `Picos::max` / `Picos::sum` merely combine
                // existing ones and are not taint sinks.
                let picos_from = v.is_punct(k + 1, ":")
                    && v.is_punct(k + 2, ":")
                    && v.ident(k + 3).is_some_and(|n| n.starts_with("from"));
                if name == "Picos" && (picos_from || v.is_punct(k + 1, "(")) {
                    item.facts.push(fact(FactKind::ClockCtor, "Picos"));
                }

                // ---- calls -------------------------------------------------
                if calls_next && !is_keyword(name) && !bangs_next {
                    if prev_dot {
                        item.calls.push(CallSite {
                            name: name.to_string(),
                            path: Vec::new(),
                            method: true,
                        });
                    } else {
                        // Walk `seg :: seg :: name` backwards.
                        let mut path: Vec<String> = Vec::new();
                        let mut b = k;
                        while b >= 3
                            && v.is_punct(b - 1, ":")
                            && v.is_punct(b - 2, ":")
                            && v.ident(b - 3).is_some()
                        {
                            let seg = v.ident(b - 3).unwrap_or_default();
                            if seg == "crate" || seg == "self" || seg == "super" || seg == "Self" {
                                break;
                            }
                            path.insert(0, seg.to_string());
                            b -= 3;
                        }
                        item.calls.push(CallSite {
                            name: name.to_string(),
                            path,
                            method: false,
                        });
                    }
                }
            }
            TokenKind::Punct if t.text == "[" => {
                // Index expression: `expr[..]` — previous token ends an
                // expression. Attribute (`#[..]`), slice types/literals
                // (`[u8; 4]`, `&[..]`, `= [..]`) do not.
                let prev_is_expr_end = k > 0
                    && match &tokens[k - 1].kind {
                        TokenKind::Ident => !is_keyword(&tokens[k - 1].text),
                        TokenKind::Punct => tokens[k - 1].text == ")" || tokens[k - 1].text == "]",
                        _ => false,
                    };
                if prev_is_expr_end {
                    item.facts.push(fact(FactKind::Panic, "index"));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::contexts;
    use crate::lexer::lex;

    fn parse(path: &str, src: &str) -> (Vec<FnItem>, Vec<Diagnostic>) {
        let l = lex(src).unwrap();
        let ctxs = contexts(&l.tokens, false);
        parse_file(path, &l.tokens, &ctxs, &l.comments)
    }

    fn items(src: &str) -> Vec<FnItem> {
        parse("crates/mem3d/src/system.rs", src).0
    }

    #[test]
    fn file_module_paths() {
        assert_eq!(file_module("crates/mem3d/src/system.rs"), "mem3d::system");
        assert_eq!(file_module("crates/sim-exec/src/lib.rs"), "sim_exec");
        assert_eq!(file_module("crates/core/src/lib.rs"), "core");
        assert_eq!(
            file_module("crates/tenancy/tests/alloc_steady.rs"),
            "tenancy::tests::alloc_steady"
        );
        assert_eq!(file_module("src/main.rs"), "main");
    }

    #[test]
    fn fn_items_are_qualified_with_impl_and_module() {
        let src =
            "impl MemorySystem { pub fn service(&mut self) {} }\nmod inner { fn helper() {} }";
        let f = items(src);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].qual, "mem3d::system::MemorySystem::service");
        assert_eq!(f[1].qual, "mem3d::system::inner::helper");
    }

    #[test]
    fn trait_impl_for_type_uses_self_type() {
        let src = "impl Iterator for ColStream { fn next(&mut self) -> Option<u64> { None } }";
        let f = items(src);
        assert_eq!(f[0].qual, "mem3d::system::ColStream::next");
    }

    #[test]
    fn panic_facts_including_index() {
        let src =
            "fn f(xs: &[u64], i: usize) { xs.get(i).unwrap(); let _ = xs[i]; panic!(\"x\"); }";
        let f = &items(src)[0];
        let whats: Vec<&str> = f.facts.iter().map(|x| x.what.as_str()).collect();
        assert_eq!(whats, ["unwrap", "index", "panic"]);
        assert!(f.facts.iter().all(|x| x.kind == FactKind::Panic));
    }

    #[test]
    fn index_fact_ignores_attrs_types_and_literals() {
        let src = "#[derive(Debug)] struct S { a: [u64; 4] }\nfn f() -> Vec<u64> { let v = [1, 2]; v.to_vec() }";
        let f = &items(src)[0];
        assert!(f.facts.iter().all(|x| x.what != "index"), "{:?}", f.facts);
    }

    #[test]
    fn alloc_facts_match_h101_set() {
        let src = "fn f() { let a = Box::new(1); let b = Vec::new(); let c = vec![0; 8]; \
                   let d = it.collect::<Vec<_>>(); let e = xs.to_vec(); }";
        let f = &items(src)[0];
        let whats: Vec<&str> = f
            .facts
            .iter()
            .filter(|x| x.kind == FactKind::Alloc)
            .map(|x| x.what.as_str())
            .collect();
        assert_eq!(whats, ["Box::new", "Vec::new", "vec!", "collect", "to_vec"]);
    }

    #[test]
    fn emit_hash_and_clock_facts() {
        let src = "fn f() { let m: HashMap<u64, u64> = make(); println!(\"{}\", r.to_json()); \
                   let p = Picos::from_fs_clock(x); }";
        let f = &items(src)[0];
        assert!(f.facts.iter().any(|x| x.kind == FactKind::HashIter));
        assert_eq!(
            f.facts.iter().filter(|x| x.kind == FactKind::Emit).count(),
            2
        );
        assert!(f.facts.iter().any(|x| x.kind == FactKind::ClockCtor));
    }

    #[test]
    fn calls_direct_path_and_method() {
        let src = "fn f() { helper(); mem3d::timing::validate(); Picos::max(a, b); x.service(r); \
                   if cond() { } }";
        let f = &items(src)[0];
        let got: Vec<(String, Vec<String>, bool)> = f
            .calls
            .iter()
            .map(|c| (c.name.clone(), c.path.clone(), c.method))
            .collect();
        assert!(got.contains(&("helper".into(), vec![], false)));
        assert!(got.contains(&(
            "validate".into(),
            vec!["mem3d".into(), "timing".into()],
            false
        )));
        assert!(got.contains(&("max".into(), vec!["Picos".into()], false)));
        assert!(got.contains(&("service".into(), vec![], true)));
        assert!(got.contains(&("cond".into(), vec![], false)));
    }

    #[test]
    fn turbofish_call_is_still_a_call() {
        let src = "fn f() { parse::<u64>(s); }";
        let f = &items(src)[0];
        assert!(f.calls.iter().any(|c| c.name == "parse"));
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let src = "fn f() { if x { } while y() { } match z { _ => {} } println!(\"{}\", 1); }";
        let f = &items(src)[0];
        assert!(f.calls.iter().all(|c| c.name != "if" && c.name != "match"));
        assert!(f.calls.iter().all(|c| c.name != "println"));
        assert!(f.calls.iter().any(|c| c.name == "y"));
    }

    #[test]
    fn f64_signature_detection() {
        let f = items("fn a(x: f64) {}\nfn b() -> f32 { 0.0 }\nfn c(n: u64) {}");
        assert!(f[0].f64_sig);
        assert!(f[1].f64_sig);
        assert!(!f[2].f64_sig);
    }

    #[test]
    fn nested_fn_facts_do_not_leak_to_outer() {
        let src = "fn outer() { fn inner() { x.unwrap(); } inner(); }";
        let f = items(src);
        let outer = f.iter().find(|i| i.name == "outer").unwrap();
        let inner = f.iter().find(|i| i.name == "inner").unwrap();
        assert!(outer.facts.is_empty(), "{:?}", outer.facts);
        assert_eq!(inner.facts.len(), 1);
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
    }

    #[test]
    fn entry_markers_attach_to_next_fn() {
        let src = "// simlint::entry(service_path)\n// simlint::entry(hot_path)\npub fn run() {}\nfn other() {}";
        let (f, diags) = parse("crates/core/src/phases.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(f[0].entries, ["service_path", "hot_path"]);
        assert!(f[1].entries.is_empty());
    }

    #[test]
    fn malformed_and_unknown_entries_are_a003() {
        for src in [
            "// simlint::entry service_path\nfn f() {}",
            "// simlint::entry(warp_path)\nfn f() {}",
            "// simlint::entry(service_path)\nconst X: u64 = 1;",
        ] {
            let (_, diags) = parse("crates/core/src/phases.rs", src);
            assert_eq!(diags.len(), 1, "{src}");
            assert_eq!(diags[0].rule, "A003");
        }
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "#[cfg(test)] mod tests { fn helper() { x.unwrap(); } }\nfn prod() {}";
        let f = items(src);
        let h = f.iter().find(|i| i.name == "helper").unwrap();
        assert!(h.in_test);
        assert!(!f.iter().find(|i| i.name == "prod").unwrap().in_test);
    }
}
