// simlint-fixture-path: crates/core/src/explore.rs
// A file simlint cannot lex is an error, never silently skipped: the
// string below is never closed.
fn f() -> &'static str {
    "unterminated
}
