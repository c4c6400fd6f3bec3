//! The `simlint` binary: walks the workspace and reports diagnostics.
//!
//! ```text
//! simlint [--json] [--deny-all] [--root PATH] [--list-rules]
//!         [--baseline FILE] [--write-baseline FILE]
//!         [--emit callgraph] [FILES...]
//! ```
//!
//! * `--json` — one JSON object per diagnostic on stdout (JSON lines),
//!   instead of the human format.
//! * `--deny-all` — promote warnings (A002 stale allows) to errors.
//! * `--root PATH` — workspace root; defaults to searching upward from
//!   the current directory for a `Cargo.toml` with `[workspace]`.
//! * `--list-rules` — print the rule table and exit.
//! * `--baseline FILE` — subtract known fingerprints: only diagnostics
//!   *not* recorded in FILE gate the exit status (known ones are
//!   summarized on stderr, stale entries reported; under `--deny-all`
//!   a stale entry also fails the run).
//! * `--write-baseline FILE` — record the current findings as the new
//!   baseline (preserving notes of persisting fingerprints when FILE
//!   already exists) and exit clean.
//! * `--emit callgraph` — dump the workspace call graph as JSON lines
//!   on stdout instead of diagnostics.
//! * `FILES...` — check only these files (paths relative to the root)
//!   instead of walking the whole workspace. The call graph is built
//!   from just those files.
//!
//! Exit status: `0` clean (or warnings only, without `--deny-all`),
//! `1` diagnostics at error severity, `2` usage or I/O error.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{baseline, walk, Analysis, Severity};

struct Options {
    json: bool,
    deny_all: bool,
    root: Option<PathBuf>,
    list_rules: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    emit_callgraph: bool,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        deny_all: false,
        root: None,
        list_rules: false,
        baseline: None,
        write_baseline: None,
        emit_callgraph: false,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--deny-all" => opts.deny_all = true,
            "--list-rules" => opts.list_rules = true,
            "--root" => {
                let p = it.next().ok_or("--root requires a path")?;
                opts.root = Some(PathBuf::from(p));
            }
            "--baseline" => {
                let p = it.next().ok_or("--baseline requires a file")?;
                opts.baseline = Some(PathBuf::from(p));
            }
            "--write-baseline" => {
                let p = it.next().ok_or("--write-baseline requires a file")?;
                opts.write_baseline = Some(PathBuf::from(p));
            }
            "--emit" => {
                let what = it.next().ok_or("--emit requires a kind (callgraph)")?;
                if what != "callgraph" {
                    return Err(format!("--emit supports `callgraph`, not `{what}`"));
                }
                opts.emit_callgraph = true;
            }
            "--help" | "-h" => {
                return Err("usage: simlint [--json] [--deny-all] [--root PATH] \
                            [--list-rules] [--baseline FILE] [--write-baseline FILE] \
                            [--emit callgraph] [FILES...]"
                    .to_string());
            }
            f if !f.starts_with('-') => opts.files.push(f.to_string()),
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("simlint: {msg}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for (id, summary) in simlint::RULES {
            println!("{id}  {summary}");
        }
        return ExitCode::SUCCESS;
    }

    let root = match opts.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| walk::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("simlint: no workspace root found (pass --root)");
            return ExitCode::from(2);
        }
    };

    let result: std::io::Result<Analysis> = if opts.files.is_empty() {
        simlint::check_workspace(&root)
    } else {
        let mut sources = Vec::new();
        let mut err = None;
        for rel in &opts.files {
            match std::fs::read_to_string(root.join(rel)) {
                Ok(src) => sources.push((rel.clone(), src)),
                Err(e) => {
                    err = Some(std::io::Error::new(e.kind(), format!("{rel}: {e}")));
                    break;
                }
            }
        }
        match err {
            Some(e) => Err(e),
            None => Ok(simlint::check_sources(&sources)),
        }
    };

    let analysis = match result {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.emit_callgraph {
        print!("{}", analysis.graph.to_json_lines());
        return ExitCode::SUCCESS;
    }

    let mut diags = analysis.diags;
    let file_count = analysis.files;

    if opts.deny_all {
        for d in &mut diags {
            d.severity = Severity::Error;
        }
    }

    if let Some(path) = &opts.write_baseline {
        // Carry notes over from an existing baseline, if any.
        let prior = std::fs::read_to_string(path)
            .ok()
            .and_then(|t| baseline::Baseline::parse(&t).ok())
            .unwrap_or_default();
        if let Err(e) = std::fs::write(path, prior.render_with(&diags)) {
            eprintln!("simlint: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "simlint: baseline written to {} ({} fingerprints)",
            path.display(),
            diags.len()
        );
        return ExitCode::SUCCESS;
    }

    let mut known_count = 0usize;
    let mut stale_fps: Vec<String> = Vec::new();
    if let Some(path) = &opts.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("simlint: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let base = match baseline::Baseline::parse(&text) {
            Ok(b) => b,
            Err(msg) => {
                eprintln!("simlint: {}: {msg}", path.display());
                return ExitCode::from(2);
            }
        };
        let (new, known, stale) = base.apply(diags);
        diags = new;
        known_count = known.len();
        stale_fps = stale;
    }

    for d in &diags {
        if opts.json {
            println!("{}", d.render_json());
        } else {
            println!("{}", d.render_human());
        }
    }

    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    if !opts.json {
        if diags.is_empty() {
            eprintln!("simlint: clean ({file_count} files)");
        } else {
            eprintln!(
                "simlint: {errors} error(s), {warnings} warning(s) across {file_count} files"
            );
        }
    }
    if opts.baseline.is_some() {
        eprintln!(
            "simlint: baseline absorbed {known_count} known finding(s); {} new, {} stale",
            diags.len(),
            stale_fps.len()
        );
        for fp in &stale_fps {
            eprintln!("simlint: stale baseline entry (fixed?): {fp}");
        }
    }

    // Under --deny-all a stale baseline entry is itself a finding: the
    // debt it tracked is gone, so the ledger must be rewritten.
    if errors > 0 || (opts.deny_all && !stale_fps.is_empty()) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
