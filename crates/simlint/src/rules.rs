//! The rule registry.
//!
//! Each rule implements [`Rule`]: it names itself, decides which
//! workspace-relative paths it applies to, and scans the token stream
//! (with per-token [`TokenContext`]) for violations. Rules never see
//! comments or string contents — the lexer already stripped those —
//! and they skip test code themselves via `ctx.in_test`.
//!
//! Two suppression mechanisms exist, deliberately distinct:
//!
//! * **allowlists** (baked into the rule, listed here and in
//!   DESIGN.md) exempt whole files or functions whose *purpose* is the
//!   flagged construct — the bench harness is wall-clock by design,
//!   boundary converters are float by design;
//! * **`simlint::allow` comments** (see [`crate::allow`]) exempt a
//!   single line, and require a written justification at the site.

use crate::context::TokenContext;
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Token, TokenKind};

/// Everything a rule gets to look at for one file.
pub struct FileCheck<'a> {
    /// Workspace-relative path, forward slashes.
    pub path: &'a str,
    /// The lexed token stream.
    pub tokens: &'a [Token],
    /// Per-token context, same length as `tokens`.
    pub contexts: &'a [TokenContext],
}

impl FileCheck<'_> {
    fn diag(&self, rule: &'static str, i: usize, key: &str, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            severity: Severity::Error,
            path: self.path.to_string(),
            line: self.tokens[i].line,
            col: self.tokens[i].col,
            message,
            enclosing_fn: self.contexts[i].enclosing_fn.clone(),
            key: key.to_string(),
        }
    }

    fn is_ident(&self, i: usize, text: &str) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
    }

    fn is_punct(&self, i: usize, text: &str) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
    }

    fn fn_allowed(&self, i: usize, allow: &[(&str, &str)]) -> bool {
        let Some(f) = self.contexts[i].enclosing_fn.as_deref() else {
            return false;
        };
        allow
            .iter()
            .any(|(path, name)| self.path == *path && f == *name)
    }
}

/// One static-analysis rule.
pub trait Rule {
    /// Stable identifier (`D001`, `R001`, ...); its summary lives in
    /// [`crate::RULES`].
    fn id(&self) -> &'static str;
    /// Whether this rule runs on `path` at all.
    fn applies_to(&self, path: &str) -> bool;
    /// Scans one file and reports violations.
    fn check(&self, file: &FileCheck) -> Vec<Diagnostic>;
}

/// Every checkable rule, in id order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(D001),
        Box::new(D002),
        Box::new(D003),
        Box::new(R001),
        Box::new(X001),
    ]
}

// ---------------------------------------------------------------- D001

/// Paths whose *purpose* is wall-clock measurement.
const D001_PATH_ALLOW: &[&str] = &["crates/sim-util/src/bench.rs", "crates/bench/"];

/// D001: no wall-clock reads in deterministic code.
///
/// Simulated time is integer picoseconds advanced by the model;
/// reading the host clock (`Instant::now`, `SystemTime`, `elapsed()`)
/// anywhere it could feed simulated state breaks replayability. The
/// bench harness and the `bench` crate are exempt by allowlist —
/// measuring wall time is their job.
pub struct D001;

impl Rule for D001 {
    fn id(&self) -> &'static str {
        "D001"
    }
    fn applies_to(&self, path: &str) -> bool {
        !D001_PATH_ALLOW.iter().any(|p| path.starts_with(p))
    }
    fn check(&self, f: &FileCheck) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for i in 0..f.tokens.len() {
            if f.contexts[i].in_test {
                continue;
            }
            if f.is_ident(i, "Instant")
                && f.is_punct(i + 1, ":")
                && f.is_punct(i + 2, ":")
                && f.is_ident(i + 3, "now")
            {
                out.push(f.diag(
                    self.id(),
                    i,
                    "Instant::now",
                    "wall-clock read `Instant::now()` in deterministic code".to_string(),
                ));
            } else if f.is_ident(i, "SystemTime") {
                out.push(f.diag(
                    self.id(),
                    i,
                    "SystemTime",
                    "wall-clock type `SystemTime` in deterministic code".to_string(),
                ));
            } else if f.is_ident(i, "elapsed") && f.is_punct(i + 1, "(") {
                out.push(f.diag(
                    self.id(),
                    i,
                    "elapsed",
                    "wall-clock read `.elapsed()` in deterministic code".to_string(),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------- D002

/// Simulation crates whose output order is part of the determinism
/// contract (byte-identical JSON, stable exploration tables).
const D002_SCOPE: &[&str] = &[
    "crates/core/",
    "crates/mem3d/",
    "crates/layout/",
    "crates/fpga-model/",
    "crates/sim-exec/",
    "crates/tenancy/",
    "src/",
];

/// D002: no hash-ordered collections in deterministic output paths.
///
/// `HashMap`/`HashSet` iteration order depends on `RandomState`; any
/// aggregation or report that iterates one can change byte output
/// between runs. Use `BTreeMap`/`BTreeSet` or sort a `Vec`.
pub struct D002;

impl Rule for D002 {
    fn id(&self) -> &'static str {
        "D002"
    }
    fn applies_to(&self, path: &str) -> bool {
        D002_SCOPE.iter().any(|p| path.starts_with(p))
    }
    fn check(&self, f: &FileCheck) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for i in 0..f.tokens.len() {
            if f.contexts[i].in_test {
                continue;
            }
            for name in ["HashMap", "HashSet"] {
                if f.is_ident(i, name) {
                    out.push(f.diag(
                        self.id(),
                        i,
                        name,
                        format!(
                            "`{name}` has nondeterministic iteration order — use \
                             `BTree{}` or a sorted Vec",
                            &name[4..]
                        ),
                    ));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------- D003

/// Clock/timing accumulation modules that must stay integer-only.
const D003_SCOPE: &[&str] = &["crates/core/src/phases.rs", "crates/mem3d/src/timing.rs"];

/// Boundary converters and display code: floats enter/leave the
/// integer-picosecond domain only here, at the edges.
const D003_FN_ALLOW: &[(&str, &str)] = &[
    ("crates/core/src/phases.rs", "read_bandwidth_gbps"),
    ("crates/core/src/phases.rs", "fs_per_byte"),
    ("crates/core/src/phases.rs", "hit_rate"),
    ("crates/mem3d/src/timing.rs", "from_ns_f64"),
    ("crates/mem3d/src/timing.rs", "as_ns_f64"),
    ("crates/mem3d/src/timing.rs", "as_us_f64"),
    ("crates/mem3d/src/timing.rs", "vault_peak_gbps"),
    ("crates/mem3d/src/timing.rs", "fmt"),
];

/// D003: no floating point in clock/timing accumulation.
///
/// Simulated time accumulates as integer picoseconds (the phase engine
/// carries a femtosecond-resolution rational); an `f64` anywhere in
/// that accumulation reintroduces rounding that varies with summation
/// order. Conversion *to* floats for reporting is confined to
/// allowlisted boundary functions.
pub struct D003;

impl Rule for D003 {
    fn id(&self) -> &'static str {
        "D003"
    }
    fn applies_to(&self, path: &str) -> bool {
        D003_SCOPE.contains(&path)
    }
    fn check(&self, f: &FileCheck) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for i in 0..f.tokens.len() {
            if f.contexts[i].in_test || f.fn_allowed(i, D003_FN_ALLOW) {
                continue;
            }
            let t = &f.tokens[i];
            if t.kind == TokenKind::Float {
                out.push(f.diag(
                    self.id(),
                    i,
                    &t.text,
                    format!("float literal `{}` in a timing module", t.text),
                ));
            } else if f.is_ident(i, "f32") || f.is_ident(i, "f64") {
                out.push(f.diag(
                    self.id(),
                    i,
                    &t.text,
                    format!("`{}` in a timing module — keep time integral", t.text),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------- R001

/// Functions whose casts are mask- or modulo-bounded by construction
/// (see the surrounding proofs in `address.rs`).
const R001_FN_ALLOW: &[(&str, &str)] = &[
    ("crates/mem3d/src/address.rs", "fields"),
    ("crates/mem3d/src/address.rs", "decode_arith"),
];

/// Target types an `as` cast may silently truncate into.
const NARROWING: &[&str] = &["u8", "u16", "u32", "usize", "i8", "i16", "i32", "isize"];

/// Address-arithmetic files R001 covers: the mem3d decode/timing core,
/// plus the layout files whose `addr()` bijections feed it — the
/// family registry and the two competitor layouts compute flat byte
/// addresses in `u64`, and a narrowing cast there wraps silently on
/// large-N matrices.
const R001_SCOPE: &[&str] = &[
    "crates/mem3d/src/address.rs",
    "crates/mem3d/src/controller.rs",
    "crates/layout/src/family.rs",
    "crates/layout/src/burst.rs",
    "crates/layout/src/irredundant.rs",
];

/// R001: no bare narrowing `as` casts in address or timing arithmetic.
///
/// `addr as u32` silently truncates; address math must use
/// `try_into()`/`try_from()` or prove the bound with an explicit mask
/// in an allowlisted function. The rule also covers the per-vault
/// controller: `RunPacing::arrival` converts the driver's `u128`
/// femtosecond clock to `u64` picoseconds for every paced beat, and a
/// bare `as` there would silently wrap at the clock ceiling instead of
/// saturating (`Picos::from_fs_clock`).
pub struct R001;

impl Rule for R001 {
    fn id(&self) -> &'static str {
        "R001"
    }
    fn applies_to(&self, path: &str) -> bool {
        R001_SCOPE.contains(&path)
    }
    fn check(&self, f: &FileCheck) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for i in 0..f.tokens.len() {
            if f.contexts[i].in_test || f.fn_allowed(i, R001_FN_ALLOW) {
                continue;
            }
            if f.is_ident(i, "as") {
                if let Some(target) = f.tokens.get(i + 1) {
                    if target.kind == TokenKind::Ident && NARROWING.contains(&target.text.as_str())
                    {
                        out.push(f.diag(
                            self.id(),
                            i,
                            &format!("as {}", target.text),
                            format!(
                                "narrowing `as {}` in address/timing arithmetic — use \
                                 `try_into()` or a checked conversion",
                                target.text
                            ),
                        ));
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------- X001

/// The progress counter: a monotonic tally read only for display,
/// never for synchronization — `Relaxed` is correct and measurably
/// cheaper on the result hot path.
const X001_FN_ALLOW: &[(&str, &str)] = &[
    ("crates/sim-exec/src/sink.rs", "tick"),
    ("crates/sim-exec/src/sink.rs", "done"),
];

/// X001: no `Ordering::Relaxed` in `sim-exec` outside allowlisted
/// counters.
///
/// Cancellation flags and result hand-off need Acquire/Release pairs;
/// a stray `Relaxed` compiles fine and loses the ordering guarantee
/// silently.
pub struct X001;

impl Rule for X001 {
    fn id(&self) -> &'static str {
        "X001"
    }
    fn applies_to(&self, path: &str) -> bool {
        path.starts_with("crates/sim-exec/")
    }
    fn check(&self, f: &FileCheck) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for i in 0..f.tokens.len() {
            if f.contexts[i].in_test || f.fn_allowed(i, X001_FN_ALLOW) {
                continue;
            }
            if f.is_ident(i, "Relaxed") {
                out.push(
                    f.diag(
                        self.id(),
                        i,
                        "Relaxed",
                        "`Ordering::Relaxed` outside the allowlisted counters — use \
                     Acquire/Release (or extend the allowlist with a proof)"
                            .to_string(),
                    ),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::contexts;
    use crate::lexer::lex;

    fn check_at(path: &str, src: &str) -> Vec<Diagnostic> {
        let l = lex(src).unwrap();
        let ctxs = contexts(&l.tokens, false);
        let file = FileCheck {
            path,
            tokens: &l.tokens,
            contexts: &ctxs,
        };
        let mut out = Vec::new();
        for rule in all_rules() {
            if rule.applies_to(path) {
                out.extend(rule.check(&file));
            }
        }
        out
    }

    #[test]
    fn d001_flags_wall_clock_and_respects_allowlist() {
        let src = "fn f() { let t = Instant::now(); let d = t.elapsed(); }";
        let d = check_at("crates/core/src/explore.rs", src);
        assert_eq!(d.iter().filter(|d| d.rule == "D001").count(), 2);
        assert!(check_at("crates/sim-util/src/bench.rs", src).is_empty());
        assert!(check_at("crates/bench/src/bin/hotpath_bench.rs", src).is_empty());
    }

    #[test]
    fn d001_type_position_is_not_flagged() {
        let src = "use std::time::Instant; struct S { deadline: Option<Instant> }";
        assert!(check_at("crates/sim-exec/src/pool.rs", src).is_empty());
    }

    #[test]
    fn d002_flags_hash_collections_in_scope_only() {
        let src = "fn f() { let m: HashMap<u64, u64> = HashMap::new(); }";
        assert_eq!(check_at("crates/core/src/explore.rs", src).len(), 2);
        assert!(check_at("crates/simlint/src/walk.rs", src).is_empty());
    }

    #[test]
    fn d002_skips_test_code() {
        let src = "#[cfg(test)] mod tests { fn f() { let s = HashSet::<u64>::new(); } }";
        assert!(check_at("crates/core/src/explore.rs", src).is_empty());
    }

    #[test]
    fn d003_flags_floats_outside_boundary_fns() {
        let src = "fn accumulate() { let x = 1.5; let y: f64 = x; }";
        let d = check_at("crates/mem3d/src/timing.rs", src);
        assert_eq!(d.len(), 2);
        let boundary = "fn as_ns_f64() { let x = 1.5; }";
        assert!(check_at("crates/mem3d/src/timing.rs", boundary).is_empty());
        assert!(check_at("crates/mem3d/src/system.rs", src).is_empty());
    }

    #[test]
    fn r001_flags_narrowing_not_widening() {
        let src = "fn decode() { let a = x as u32; let b = x as u64; let c = x as u128; }";
        let d = check_at("crates/mem3d/src/address.rs", src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("as u32"));
        let masked = "fn fields() { let a = x as u32; }";
        assert!(check_at("crates/mem3d/src/address.rs", masked).is_empty());
    }

    #[test]
    fn x001_flags_relaxed_outside_counters() {
        let src = "fn f() { c.load(Ordering::Relaxed); }";
        assert_eq!(check_at("crates/sim-exec/src/cancel.rs", src).len(), 1);
        let counter = "fn tick() { c.load(Ordering::Relaxed); }";
        assert!(check_at("crates/sim-exec/src/sink.rs", counter).is_empty());
        assert!(check_at("crates/core/src/explore.rs", src).is_empty());
    }

    #[test]
    fn every_lexical_rule_is_in_the_rule_table() {
        for rule in all_rules() {
            assert!(
                crate::RULES.iter().any(|(id, _)| *id == rule.id()),
                "{} missing from RULES",
                rule.id()
            );
        }
    }
}
