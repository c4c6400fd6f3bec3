//! Self-test of the benchmark at tiny sizes: every workload runs, the
//! seed argument is honoured, the digest check catches a forced
//! mismatch, the traced mode reports every per-layer metric, and the
//! simulated figures repeat exactly across runs and thread counts.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use sim_util::json::{parse, Value};

const WORKLOADS: [&str; 3] = ["table2_app", "tenancy_mixed", "explore_sweep"];

/// Metrics that depend only on the simulated inputs: they must repeat
/// bit for bit.
const EXACT_END_TO_END: [&str; 4] = [
    "sim_gbps",
    "sim_improvement",
    "sim_latency_p99_us",
    "sim_slowdown_p50",
];

const EXACT_PER_LAYER: [&str; 11] = [
    "layout.runs",
    "layout.beats_per_run",
    "mem3d.requests",
    "mem3d.activations",
    "mem3d.row_hit_rate",
    "core.explore.points",
    "core.explore.skipped",
    "core.explore.failures",
    "core.cache.hit_ratio",
    "tenancy.jobs_completed",
    "tenancy.queue_wait_p50_us",
];

struct Run {
    code: i32,
    correct: bool,
    failed: i64,
    metrics: BTreeMap<String, f64>,
}

fn run(workload: &str, extra: &[&str]) -> Run {
    let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{workload}-{}.jsonl", extra.join("_")));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--size", "tiny", "--seconds", "1"])
        .args(extra)
        .arg("--spans")
        .arg(&spans)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let v = parse(last).expect("the last line is JSON");
    let metrics = match v.get("metrics") {
        Some(Value::Object(fields)) => fields
            .iter()
            .map(|(k, m)| {
                let value = m.get("value").and_then(Value::as_f64).expect("a value");
                (k.clone(), value)
            })
            .collect(),
        _ => panic!("no metrics object in {last}"),
    };
    Run {
        code: out.status.code().unwrap_or(-1),
        correct: v.get("correct").and_then(Value::as_bool).expect("correct"),
        failed: v.get("failed").and_then(Value::as_i64).expect("failed"),
        metrics,
    }
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
    let v = parse(&text).expect("BENCHMARK.json parses");
    v.get(section)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn assert_same(a: &Run, b: &Run, names: &[&str], what: &str) {
    for name in names {
        assert_eq!(
            a.metrics[*name].to_bits(),
            b.metrics[*name].to_bits(),
            "{name} differs {what}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let names = declared("end_to_end");
    for w in WORKLOADS {
        let r = run(w, &["--seed", "7"]);
        assert_eq!(r.code, 0, "{w} exits 0");
        assert!(r.correct && r.failed == 0, "{w} is correct");
        let printed: Vec<&String> = r.metrics.keys().collect();
        let mut expected: Vec<&String> = names.iter().collect();
        expected.sort();
        assert_eq!(printed, expected, "{w} prints exactly the declared metrics");
        assert!(r.metrics.values().all(|v| v.is_finite()));
    }
}

#[test]
fn seed_changes_no_simulated_result() {
    for w in WORKLOADS {
        let a = run(w, &["--seed", "1"]);
        let b = run(w, &["--seed", "1"]);
        let c = run(w, &["--seed", "99"]);
        assert!(a.correct && b.correct && c.correct, "{w} digests match");
        assert_same(&a, &b, &EXACT_END_TO_END, &format!("between runs of {w}"));
        assert_same(&a, &c, &EXACT_END_TO_END, &format!("between seeds of {w}"));
    }
}

#[test]
fn forced_digest_mismatch_fails_the_run() {
    for w in WORKLOADS {
        let r = run(w, &["--corrupt-digest"]);
        assert_ne!(r.code, 0, "{w} exits non-zero on a mismatch");
        assert!(!r.correct, "{w} reports incorrect output");
        assert!(r.failed > 0, "{w} counts the mismatch as failures");
        assert!(r.metrics["ok_ratio"] < 1.0);
    }
}

#[test]
fn traced_mode_reports_every_per_layer_metric_identically_on_one_and_two_threads() {
    let names = declared("per_layer");
    for w in WORKLOADS {
        let one = run(w, &["--trace", "1", "--threads", "1"]);
        let two = run(w, &["--trace", "1", "--threads", "2"]);
        for r in [&one, &two] {
            assert_eq!(r.code, 0, "{w} traced run exits 0");
            assert!(r.correct, "{w} traced run is correct");
            for name in &names {
                assert!(r.metrics.contains_key(name), "{w} reports {name}");
            }
        }
        assert_eq!(one.metrics["sim_exec.threads"], 1.0);
        assert_same(
            &one,
            &two,
            &EXACT_PER_LAYER,
            &format!("between thread counts on {w}"),
        );
        let u1 = run(w, &["--threads", "1"]);
        let u2 = run(w, &["--threads", "2"]);
        assert_same(
            &u1,
            &u2,
            &EXACT_END_TO_END,
            &format!("between thread counts on {w}"),
        );
    }
}
