//! Explicit, auditable suppressions.
//!
//! A violation is silenced with a comment of the form
//!
//! ```text
//! // simlint::allow(RULE): why this occurrence is correct
//! ```
//!
//! placed either on its own line immediately above the offending line
//! or trailing on the offending line itself. The rule name must be one
//! the engine knows and the justification must be non-empty — a
//! malformed allow is itself an error (**A001**), and an allow that
//! suppresses nothing is reported as stale (**A002**, a warning that
//! `--deny-all` promotes to an error). Doc comments are never parsed
//! for allows, so documentation may quote the syntax freely.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Comment, Token};

/// One parsed `simlint::allow` marker.
#[derive(Debug, Clone)]
struct AllowEntry {
    rule: String,
    /// The source line the allow silences.
    target_line: u32,
    /// Where the comment itself starts (for A002 reporting).
    line: u32,
    col: u32,
    used: bool,
}

/// The suppression table for one file.
#[derive(Debug, Default)]
pub struct Suppressions {
    entries: Vec<AllowEntry>,
}

impl Suppressions {
    /// Returns `true` (and marks the allow as used) if `rule` at
    /// `line` is covered by an allow.
    pub fn suppress(&mut self, rule: &str, line: u32) -> bool {
        let mut hit = false;
        for e in &mut self.entries {
            if e.rule == rule && e.target_line == line {
                e.used = true;
                hit = true;
            }
        }
        hit
    }

    /// A002 diagnostics for allows that never suppressed anything.
    pub fn stale(&self, path: &str) -> Vec<Diagnostic> {
        self.entries
            .iter()
            .filter(|e| !e.used)
            .map(|e| Diagnostic {
                rule: "A002",
                severity: Severity::Warning,
                path: path.to_string(),
                line: e.line,
                col: e.col,
                message: format!(
                    "stale simlint::allow({}): no {} diagnostic on the targeted line",
                    e.rule, e.rule
                ),
                enclosing_fn: None,
                key: e.rule.clone(),
            })
            .collect()
    }
}

const MARKER: &str = "simlint::allow";

/// Scans the comment stream for allow markers.
///
/// Returns the suppression table plus any **A001** (malformed allow)
/// diagnostics. `known_rules` validates the rule name; `tokens` are
/// needed to decide whether an allow is trailing (targets its own
/// line) or leading (targets the next token-bearing line).
pub fn collect(
    comments: &[Comment],
    tokens: &[Token],
    known_rules: &[&str],
    path: &str,
) -> (Suppressions, Vec<Diagnostic>) {
    let mut sup = Suppressions::default();
    let mut diags = Vec::new();
    for c in comments {
        if c.doc || !c.text.contains(MARKER) {
            continue;
        }
        let a001 = |message: String| Diagnostic {
            rule: "A001",
            severity: Severity::Error,
            path: path.to_string(),
            line: c.line,
            col: c.col,
            message,
            enclosing_fn: None,
            key: "allow".to_string(),
        };
        let Some((rule, rest)) = parse_marker(&c.text) else {
            diags.push(a001(
                "malformed simlint::allow: expected `simlint::allow(RULE): justification`"
                    .to_string(),
            ));
            continue;
        };
        if !known_rules.contains(&rule.as_str()) {
            diags.push(a001(format!("simlint::allow names unknown rule `{rule}`")));
            continue;
        }
        if rest.is_empty() {
            diags.push(a001(format!(
                "simlint::allow({rule}) is missing its justification — write \
                 `simlint::allow({rule}): <why this is correct>`"
            )));
            continue;
        }
        // Trailing comment (code before it on the same line) targets
        // its own line; a standalone comment targets the next line
        // that carries tokens.
        let trailing = tokens.iter().any(|t| t.line == c.line && t.col < c.col);
        let target_line = if trailing {
            c.line
        } else {
            tokens
                .iter()
                .map(|t| t.line)
                .filter(|&l| l > c.line)
                .min()
                .unwrap_or(c.line)
        };
        sup.entries.push(AllowEntry {
            rule,
            target_line,
            line: c.line,
            col: c.col,
            used: false,
        });
    }
    (sup, diags)
}

/// Extracts `(rule, justification)` from a comment body containing the
/// marker, or `None` if the shape is wrong.
fn parse_marker(text: &str) -> Option<(String, String)> {
    let at = text.find(MARKER)?;
    let after = &text[at + MARKER.len()..];
    let after = after.strip_prefix('(')?;
    let close = after.find(')')?;
    let rule = after[..close].trim().to_string();
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric()) {
        return None;
    }
    let rest = &after[close + 1..];
    let rest = rest.trim_start();
    let just = rest.strip_prefix(':').map(str::trim).unwrap_or("");
    Some((rule, just.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const RULES: &[&str] = &["D001", "P101"];

    fn run(src: &str) -> (Suppressions, Vec<Diagnostic>) {
        let l = lex(src).unwrap();
        collect(&l.comments, &l.tokens, RULES, "t.rs")
    }

    #[test]
    fn leading_allow_targets_next_token_line() {
        let src = "// simlint::allow(D001): timeout is wall-clock by design\nlet x = 1;";
        let (mut sup, diags) = run(src);
        assert!(diags.is_empty());
        assert!(sup.suppress("D001", 2));
        assert!(!sup.suppress("D001", 1));
        assert!(sup.stale("t.rs").is_empty());
    }

    #[test]
    fn trailing_allow_targets_own_line() {
        let src = "let x = 1; // simlint::allow(P101): bounds pre-checked";
        let (mut sup, _) = run(src);
        assert!(sup.suppress("P101", 1));
    }

    #[test]
    fn blank_lines_between_allow_and_code_are_skipped() {
        let src = "// simlint::allow(D001): reason\n\n\nlet x = 1;";
        let (mut sup, _) = run(src);
        assert!(sup.suppress("D001", 4));
    }

    #[test]
    fn unknown_rule_is_a001() {
        let (_, diags) = run("// simlint::allow(Z999): nope\nlet x = 1;");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "A001");
        assert!(diags[0].message.contains("Z999"));
    }

    #[test]
    fn missing_justification_is_a001() {
        for src in [
            "// simlint::allow(D001)\nlet x = 1;",
            "// simlint::allow(D001):\nlet x = 1;",
            "// simlint::allow(D001):    \nlet x = 1;",
        ] {
            let (_, diags) = run(src);
            assert_eq!(diags.len(), 1, "{src}");
            assert_eq!(diags[0].rule, "A001");
        }
    }

    #[test]
    fn malformed_marker_is_a001() {
        let (_, diags) = run("// simlint::allow D001: forgot parens\nlet x = 1;");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "A001");
    }

    #[test]
    fn unused_allow_is_stale() {
        let (sup, diags) = run("// simlint::allow(D001): never needed\nlet x = 1;");
        assert!(diags.is_empty());
        let stale = sup.stale("t.rs");
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "A002");
        assert_eq!(stale[0].severity, Severity::Warning);
    }

    #[test]
    fn doc_comments_are_not_parsed() {
        let (sup, diags) = run("/// example: `// simlint::allow(BAD)` is rejected\nlet x = 1;");
        assert!(diags.is_empty());
        assert!(sup.stale("t.rs").is_empty());
    }
}
