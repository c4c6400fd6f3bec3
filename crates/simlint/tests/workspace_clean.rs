//! The workspace itself must be simlint-clean *modulo the committed
//! baseline*: `cargo test` fails on any new diagnostic, independent of
//! the tier-1 script invoking the binary. The same run doubles as the
//! analyzer's self-performance gate — a full-workspace interprocedural
//! pass must stay interactive.

use std::path::Path;
use std::time::{Duration, Instant};

/// Full-workspace lint budget. The pass is pure in-memory string
/// processing; blowing this means something superlinear crept into
/// the parser or the reachability sweeps.
const LINT_BUDGET: Duration = Duration::from_secs(10);

#[test]
fn workspace_has_no_new_diagnostics_and_lints_within_budget() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = simlint::walk::find_workspace_root(here).expect("workspace root");

    let started = Instant::now();
    let analysis = simlint::check_workspace(&root).expect("workspace walk");
    let elapsed = started.elapsed();

    assert!(
        analysis.files > 50,
        "walk looks truncated: only {} files",
        analysis.files
    );

    let text = std::fs::read_to_string(root.join(".simlint-baseline.json"))
        .expect(".simlint-baseline.json at workspace root");
    let base = simlint::baseline::Baseline::parse(&text).expect("baseline parses");
    let (new, _known, stale) = base.apply(analysis.diags);

    let rendered: Vec<String> = new.iter().map(|d| d.render_human()).collect();
    assert!(
        rendered.is_empty(),
        "workspace has simlint diagnostics not in the baseline:\n{}",
        rendered.join("\n")
    );
    assert!(
        stale.is_empty(),
        "baseline entries match nothing (fixed? rerun --write-baseline):\n{}",
        stale.join("\n")
    );

    assert!(
        elapsed <= LINT_BUDGET,
        "full-workspace lint took {elapsed:?}, budget is {LINT_BUDGET:?}"
    );
}

#[test]
fn callgraph_covers_the_core_service_spine() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = simlint::walk::find_workspace_root(here).expect("workspace root");
    let analysis = simlint::check_workspace(&root).expect("workspace walk");
    let g = &analysis.graph;

    let idx = |qual: &str| {
        g.fns
            .iter()
            .position(|f| f.qual == qual)
            .unwrap_or_else(|| panic!("fn `{qual}` missing from call graph"))
    };

    // The entry annotations committed in the tree must be visible.
    assert!(
        !g.entries("service_path").is_empty(),
        "no service_path entries found in the workspace"
    );
    assert!(
        !g.entries("hot_path").is_empty(),
        "no hot_path entries found in the workspace"
    );

    // The memory-system service spine is connected: the fast burst
    // body behind `service_burst` is reachable from the declared
    // service entries.
    let service = idx("mem3d::system::MemorySystem::service_burst_fast");
    let r = g.reach(&g.entries("service_path"));
    assert!(
        r.visited[service],
        "MemorySystem::service_burst_fast not reachable from service_path entries"
    );

    // Every phase pulls its beats through a request stream's `next`,
    // so the stream bodies are inside the resumable phase's H101 sweep
    // (and the service entries' P101 sweep).
    let phase = g.reach(&[idx("core::phases::ResumablePhase::step_until")]);
    for stream in [
        "layout::trace::Walk::next",
        "layout::trace::SegmentStream::next",
        "mem3d::trace::StridedSource::next",
        "mem3d::trace::TraceStream::next",
        "tenancy::offset::OffsetSource::next",
    ] {
        assert!(
            phase.visited[idx(stream)] && r.visited[idx(stream)],
            "{stream} not reachable from the phase stepper"
        );
    }
}

#[test]
fn design_rule_table_lists_exactly_the_rules() {
    // DESIGN.md's "Rules" table documents every rule; it must name the
    // same ids as `simlint::RULES`, no more and no fewer.
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = simlint::walk::find_workspace_root(here).expect("workspace root");
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let table = design
        .split("\n### Rules\n")
        .nth(1)
        .and_then(|rest| rest.split("\n### ").next())
        .expect("DESIGN.md has a `### Rules` section");
    let mut documented: Vec<&str> = table
        .lines()
        .filter_map(|l| l.strip_prefix("| "))
        .filter_map(|l| l.split(' ').next())
        .filter(|id| id.len() == 4 && id[1..].bytes().all(|b| b.is_ascii_digit()))
        .collect();
    documented.sort_unstable();
    let mut ids: Vec<&str> = simlint::RULES.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    assert_eq!(
        documented, ids,
        "DESIGN.md's rule table and simlint::RULES disagree"
    );
}
