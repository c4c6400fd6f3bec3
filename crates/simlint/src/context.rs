//! Per-token source context: module path, enclosing function, and
//! test-code regions.
//!
//! The tracker walks the token stream once, maintaining a brace-depth
//! stack of scopes. `mod name {` pushes a module scope, `fn name(..) {`
//! binds the pending function name to the scope its body opens, and an
//! attribute `#[cfg(test)]` / `#[test]` immediately before an item
//! marks the whole item (including its braces) as test code. Every
//! token is annotated with the state in force where it appears, so
//! rules can ask "what function am I in?" and "is this test code?"
//! without re-parsing.

use crate::lexer::{Token, TokenKind};

/// The context a single token appears in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenContext {
    /// Module path inside the file (e.g. `["tests"]` for code inside
    /// `mod tests { .. }`); empty at file scope.
    pub module_path: Vec<String>,
    /// Name of the innermost enclosing `fn`, if any.
    pub enclosing_fn: Option<String>,
    /// Self-type of the innermost enclosing `impl` block (or trait
    /// name inside a `trait` definition), if any.
    pub impl_type: Option<String>,
    /// `true` inside `#[cfg(test)]` / `#[test]` items (or when the
    /// whole file is test code, e.g. under `tests/`).
    pub in_test: bool,
}

#[derive(Debug, Clone)]
enum ScopeKind {
    Module(String),
    Fn(String),
    Impl(String),
    Other,
}

#[derive(Debug, Clone)]
struct Scope {
    kind: ScopeKind,
    test: bool,
}

/// Resolves the self-type name of an `impl` header starting at token
/// `start` (the token after `impl`): skips the generic parameter list,
/// walks path segments, and — when `for` appears before the opening
/// brace — restarts on the right-hand side, so `impl<T> Add for
/// Picos` yields `Picos`. Returns `None` for headers it cannot read
/// (e.g. `impl Trait for &mut [u8]`).
fn impl_self_type(tokens: &[Token], start: usize) -> Option<String> {
    let mut i = start;
    let mut last_seg: Option<String> = None;
    let mut angle_depth = 0usize;
    while let Some(t) = tokens.get(i) {
        match (&t.kind, t.text.as_str()) {
            (TokenKind::Punct, "<") => angle_depth += 1,
            // `->` inside generic bounds must not close the list.
            (TokenKind::Punct, ">") if angle_depth > 0 => {
                let arrow =
                    i > 0 && tokens[i - 1].kind == TokenKind::Punct && tokens[i - 1].text == "-";
                if !arrow {
                    angle_depth -= 1;
                }
            }
            (_, _) if angle_depth > 0 => {}
            (TokenKind::Punct, "{" | ";") => break,
            (TokenKind::Ident, "where") => break,
            (TokenKind::Ident, "for") => last_seg = None,
            (TokenKind::Ident, name) => last_seg = Some(name.to_string()),
            _ => {}
        }
        i += 1;
    }
    last_seg
}

/// Computes one [`TokenContext`] per token, in token order.
///
/// `file_is_test` forces every token into test context (used for files
/// under `tests/` and `benches/` directories).
pub fn contexts(tokens: &[Token], file_is_test: bool) -> Vec<TokenContext> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut scopes: Vec<Scope> = Vec::new();
    // Name waiting to be bound to the next `{` (from `mod x` / `fn x`).
    let mut pending: Option<ScopeKind> = None;
    // A `#[cfg(test)]`/`#[test]` attribute seen since the last item:
    // marks the next opened scope (and the tokens before it) as test.
    let mut pending_test = false;
    let mut i = 0usize;

    while i < tokens.len() {
        let t = &tokens[i];
        let in_test = file_is_test || pending_test || scopes.iter().any(|s| s.test);
        // A pending `fn name` covers its own signature tokens (params,
        // return type) even though its body brace hasn't opened yet —
        // fn-level allowlists must exempt the whole item.
        let pending_fn = match &pending {
            Some(ScopeKind::Fn(name)) => Some(name.clone()),
            _ => None,
        };
        out.push(TokenContext {
            module_path: scopes
                .iter()
                .filter_map(|s| match &s.kind {
                    ScopeKind::Module(name) => Some(name.clone()),
                    _ => None,
                })
                .collect(),
            enclosing_fn: pending_fn.or_else(|| {
                scopes.iter().rev().find_map(|s| match &s.kind {
                    ScopeKind::Fn(name) => Some(name.clone()),
                    _ => None,
                })
            }),
            impl_type: scopes.iter().rev().find_map(|s| match &s.kind {
                ScopeKind::Impl(name) => Some(name.clone()),
                _ => None,
            }),
            in_test,
        });

        match (&t.kind, t.text.as_str()) {
            // Attributes: `#` `[` .. `]` — scan the bracket group for
            // a `test` ident (covers `#[test]`, `#[cfg(test)]`,
            // `#[tokio::test]`-style attrs). The group's tokens are
            // consumed here so its contents never confuse scope
            // tracking; their contexts are recorded as current.
            (TokenKind::Punct, "#") if matches!(tokens.get(i + 1), Some(n) if n.kind == TokenKind::Punct && n.text == "[") =>
            {
                let mut depth = 0usize;
                let mut j = i + 1;
                let mut has_test = false;
                while j < tokens.len() {
                    let a = &tokens[j];
                    out.push(TokenContext {
                        module_path: out
                            .last()
                            .map(|c| c.module_path.clone())
                            .unwrap_or_default(),
                        enclosing_fn: out.last().and_then(|c| c.enclosing_fn.clone()),
                        impl_type: out.last().and_then(|c| c.impl_type.clone()),
                        in_test,
                    });
                    match (&a.kind, a.text.as_str()) {
                        (TokenKind::Punct, "[") => depth += 1,
                        (TokenKind::Punct, "]") => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        (TokenKind::Ident, "test") => has_test = true,
                        _ => {}
                    }
                    j += 1;
                }
                if has_test {
                    pending_test = true;
                }
                i = j + 1;
                continue;
            }
            (TokenKind::Ident, "mod") => {
                if let Some(n) = tokens.get(i + 1) {
                    if n.kind == TokenKind::Ident {
                        pending = Some(ScopeKind::Module(n.text.clone()));
                    }
                }
            }
            (TokenKind::Ident, "fn") => {
                if let Some(n) = tokens.get(i + 1) {
                    if n.kind == TokenKind::Ident {
                        pending = Some(ScopeKind::Fn(n.text.clone()));
                    }
                }
            }
            // `impl [<..>] Type {` / `impl [<..>] Trait for Type {` /
            // `trait Name {`: the scope the brace opens is tagged with
            // the *self type* (after `for` when present) so methods can
            // be qualified as `Type::method`. An `impl Trait` inside a
            // pending fn signature is a type, not a block: the brace
            // still opens the fn body.
            (TokenKind::Ident, "impl") if !matches!(pending, Some(ScopeKind::Fn(_))) => {
                if let Some(name) = impl_self_type(tokens, i + 1) {
                    pending = Some(ScopeKind::Impl(name));
                }
            }
            (TokenKind::Ident, "trait") => {
                if let Some(n) = tokens.get(i + 1) {
                    if n.kind == TokenKind::Ident {
                        pending = Some(ScopeKind::Impl(n.text.clone()));
                    }
                }
            }
            (TokenKind::Punct, "{") => {
                let kind = pending.take().unwrap_or(ScopeKind::Other);
                scopes.push(Scope {
                    kind,
                    test: pending_test,
                });
                pending_test = false;
            }
            (TokenKind::Punct, "}") => {
                scopes.pop();
            }
            // `mod name;` / `fn name(..);` without a body: drop any
            // pending scope name at the terminating semicolon so it
            // does not leak onto the next unrelated `{`.
            (TokenKind::Punct, ";") => {
                pending = None;
                pending_test = false;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx_of(src: &str, needle: &str) -> TokenContext {
        let lexed = lex(src).unwrap();
        let ctxs = contexts(&lexed.tokens, false);
        let idx = lexed
            .tokens
            .iter()
            .position(|t| t.text == needle)
            .expect("needle token present");
        ctxs[idx].clone()
    }

    #[test]
    fn module_and_fn_tracking() {
        let src = "mod outer { mod inner { fn work() { let marker = 1; } } }";
        let c = ctx_of(src, "marker");
        assert_eq!(c.module_path, ["outer", "inner"]);
        assert_eq!(c.enclosing_fn.as_deref(), Some("work"));
        assert!(!c.in_test);
    }

    #[test]
    fn cfg_test_marks_whole_item() {
        let src = "#[cfg(test)] mod tests { fn helper() { let marker = 1; } } fn prod() { let other = 2; }";
        assert!(ctx_of(src, "marker").in_test);
        assert!(!ctx_of(src, "other").in_test);
    }

    #[test]
    fn test_attr_marks_fn() {
        let src = "#[test] fn t() { let marker = 1; } fn prod() { let other = 2; }";
        assert!(ctx_of(src, "marker").in_test);
        assert!(!ctx_of(src, "other").in_test);
    }

    #[test]
    fn non_test_attrs_do_not_mark() {
        let src = "#[derive(Debug)] struct S; fn prod() { let marker = 1; }";
        assert!(!ctx_of(src, "marker").in_test);
    }

    #[test]
    fn fn_signature_without_body_does_not_leak() {
        let src = "trait T { fn sig(&self); } fn real() { let marker = 1; }";
        let c = ctx_of(src, "marker");
        assert_eq!(c.enclosing_fn.as_deref(), Some("real"));
    }

    #[test]
    fn fn_signature_tokens_belong_to_the_fn() {
        let src = "fn convert(ns: f64) -> u64 { 0 }";
        assert_eq!(ctx_of(src, "f64").enclosing_fn.as_deref(), Some("convert"));
        assert_eq!(ctx_of(src, "u64").enclosing_fn.as_deref(), Some("convert"));
    }

    #[test]
    fn file_is_test_forces_everything() {
        let c = {
            let lexed = lex("fn prod() { let marker = 1; }").unwrap();
            let ctxs = contexts(&lexed.tokens, true);
            ctxs[0].clone()
        };
        assert!(c.in_test);
    }

    #[test]
    fn impl_trait_in_a_signature_keeps_the_fn_body() {
        let src = "impl Phase { fn step(&mut self, limit: impl Into<u64>) -> impl Copy { \
                   let marker = 1; } }";
        let c = ctx_of(src, "marker");
        assert_eq!(c.enclosing_fn.as_deref(), Some("step"));
        assert_eq!(c.impl_type.as_deref(), Some("Phase"));
    }

    #[test]
    fn nested_fn_reports_innermost() {
        let src = "fn outer() { fn inner() { let marker = 1; } }";
        assert_eq!(ctx_of(src, "marker").enclosing_fn.as_deref(), Some("inner"));
    }
}
