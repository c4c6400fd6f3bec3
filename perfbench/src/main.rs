//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <table2_app|tenancy_mixed|explore_sweep> [--seed N]
//!           [--seconds S] [--trace 0|1] [--threads T] [--size full|tiny]
//!           [--spans PATH] [--bless] [--corrupt-digest]
//! ```
//!
//! It sets the workload up (construction plus one warm-up iteration,
//! timed from process start), then runs iterations in a closed loop
//! from one client for `--seconds` (stretched, up to twice that, until
//! 100 iterations are in), then sets the workload up six more times in
//! the same process; `setup_s` is the median of the seven. Every iteration's
//! simulated results are digested and compared with `golden.txt`; a
//! mismatch counts as a failure and makes the exit code non-zero. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! With `--trace 0` the metrics are the end-to-end ones, host times in
//! reference milliseconds (see `host::Calibration`; the raw wall-clock
//! figures go to the summary line). With `--trace 1` the window alternates
//! untraced and traced iterations and runs three layer-peel passes
//! spread over it; the metrics are the per-layer ones (medians over the
//! passes), the tracing overhead and the layer accounting check, which
//! also fails the run when the layers do not cover the iteration. Spans
//! are written as JSON lines when the run ends.
//!
//! `--bless` prints the digest lines `golden.txt` should hold for the
//! workload and size instead of measuring. `--corrupt-digest` flips the
//! expected digest, so the self-test can force a mismatch.

mod host;
mod trace;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sim_util::json::{array, fmt_f64, JsonObject};
use trace::{layer_self_ns, Tracer, PEEL};
use workload::{Layers, Outcome, Sim, Size, NAMES};

const GOLDEN: &str = include_str!("../golden.txt");

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Untraced iterations a run needs so that ten lie beyond p90; the
/// window stretches to at most twice `--seconds` to reach them.
const MIN_SAMPLES: usize = 100;

/// Layer-peel passes in a traced run; each metric is their median.
const PEEL_PASSES: usize = 3;

/// The paper's band for Table 2's improvement at the measured sizes.
const IMPROVEMENT_BAND: (f64, f64) = (0.90, 0.99);

/// Accepted range of the accounting check: the layers' self times in
/// the peel's re-timing of an iteration, plus the iteration's glue,
/// over the traced iteration's median time.
const COVERAGE_TOLERANCE: (f64, f64) = (0.8, 1.25);

/// Metrics as printed: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The per-layer metrics a traced run reports, with their units.
const PER_LAYER: [(&str, &str); 31] = [
    ("layout.col_stream_ns", "ns"),
    ("layout.write_stream_ns", "ns"),
    ("layout.row_stream_ns", "ns"),
    ("layout.runs", "count"),
    ("layout.beats_per_run", "ratio"),
    ("mem3d.decode_self_ns", "ns"),
    ("mem3d.service_self_ns", "ns"),
    ("mem3d.requests", "count"),
    ("mem3d.activations", "count"),
    ("mem3d.row_hit_rate", "ratio"),
    ("core.col_phase_ns", "ns"),
    ("core.row_phase_ns", "ns"),
    ("core.driver_self_ns", "ns"),
    ("core.event_ns_per_kib", "ns/KiB"),
    ("core.scalar_step_ns_per_kib", "ns/KiB"),
    ("core.explore_ns_per_point", "ns"),
    ("core.explore.points", "count"),
    ("core.explore.skipped", "count"),
    ("core.explore.failures", "count"),
    ("core.cache_warm_ns", "ns"),
    ("core.cache.hit_ratio", "ratio"),
    ("tenancy.isolated_ns", "ns"),
    ("tenancy.shared_ns", "ns"),
    ("tenancy.arbitration_ns_per_kib", "ns/KiB"),
    ("tenancy.jobs_completed", "count"),
    ("tenancy.queue_wait_p50_us", "sim_us"),
    ("sim_exec.threads", "count"),
    ("sim_exec.speedup", "ratio"),
    ("sim_exec.efficiency", "ratio"),
    ("setup.family_build_ns", "ns"),
    ("trace.overhead_ms", "ms"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
    size: Size,
    spans: Option<PathBuf>,
    bless: bool,
    corrupt_digest: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
            threads: host::available_parallelism().min(2),
            size: Size::Full,
            spans: None,
            bless: false,
            corrupt_digest: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let number = |v: String| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
            };
            match flag.as_str() {
                "--workload" => a.workload = value()?,
                "--seed" => a.seed = number(value()?)?,
                "--seconds" => a.seconds = number(value()?)?.clamp(1, 120),
                "--trace" => {
                    a.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    }
                }
                "--threads" => {
                    a.threads = usize::try_from(number(value()?)?.clamp(1, 2)).unwrap_or(1)
                }
                "--size" => {
                    let v = value()?;
                    a.size = Size::parse(&v).ok_or_else(|| format!("--size: {v:?}"))?;
                }
                "--spans" => a.spans = Some(PathBuf::from(value()?)),
                "--bless" => a.bless = true,
                "--corrupt-digest" => a.corrupt_digest = true,
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if !NAMES.contains(&a.workload.as_str()) {
            return Err(format!("--workload must be one of {NAMES:?}"));
        }
        Ok(a)
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.bless {
        bless(&args)
    } else {
        run(&args, start)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The committed digest for `(workload, size)`.
fn golden(workload: &str, size: Size) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [w, s, d] if *w == workload && *s == size.name() => u64::from_str_radix(d, 16).ok(),
            _ => None,
        }
    })
}

fn bless(args: &Args) -> Result<bool, String> {
    let mut w = workload::build(&args.workload, args.size, args.seed, args.threads)?;
    let d = w
        .iterate(&mut Tracer::new(false))
        .digest
        .ok_or("an operation failed")?;
    println!("{} {} {d:016x}", args.workload, args.size.name());
    Ok(true)
}

/// Running totals of attempted and failed operations, and the check of
/// every iteration's results.
struct Check {
    expected: u64,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    sim: Option<Sim>,
    payload_bytes: u64,
}

impl Check {
    fn record(&mut self, o: &Outcome) {
        self.attempted += o.ops;
        self.failed += o.failed;
        let Some(d) = o.digest else { return };
        if d != self.expected || self.sim.is_some_and(|s| s != o.sim) {
            self.mismatches += 1;
            self.failed += o.ops - o.failed.min(o.ops);
            return;
        }
        self.sim = Some(o.sim);
        self.payload_bytes = o.payload_bytes;
    }
}

fn run(args: &Args, start: Instant) -> Result<bool, String> {
    println!(
        "{}",
        host::stamp(&args.workload, args.seed, args.threads, args.trace)
    );
    let golden = golden(&args.workload, args.size).ok_or_else(|| {
        format!(
            "golden.txt has no digest for {} {}",
            args.workload,
            args.size.name()
        )
    })?;
    let mut off = Tracer::new(false);
    let mut check = Check {
        expected: if args.corrupt_digest { !golden } else { golden },
        attempted: 0,
        failed: 0,
        mismatches: 0,
        sim: None,
        payload_bytes: 0,
    };

    // Set-up, timed from process start: construction plus one warm-up
    // iteration. Only the calibration run of the set-up comes between
    // it and the first timed iteration.
    let mut w = workload::build(&args.workload, args.size, args.seed, args.threads)?;
    check.record(&w.iterate(&mut off));
    let mut setups = vec![start.elapsed().as_secs_f64()];
    let mut calib = host::Calibration::new(w.threads());
    let mut setup_calib_ms = vec![calib.run()];

    // The measured window. A traced run alternates untraced and traced
    // iterations, so host drift over the window cancels out of the
    // tracing overhead, and spreads its peel passes over the window, so
    // they see the same host as the iterations they are checked against.
    let window = Duration::from_secs(args.seconds);
    let mut tr = Tracer::new(args.trace);
    let mut host_ms = Vec::new();
    let mut calib_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut passes: Vec<Layers> = Vec::new();
    let mut mirrors: Vec<Vec<u32>> = Vec::new();
    let t_window = Instant::now();
    let peels_due = |done: usize| args.trace && done < PEEL_PASSES;
    let samples_due = |n: usize, t: Duration| !args.trace && n < MIN_SAMPLES && t < 2 * window;
    while t_window.elapsed() < window
        || peels_due(passes.len())
        || samples_due(host_ms.len(), t_window.elapsed())
    {
        let t = Instant::now();
        let o = w.iterate(&mut off);
        host_ms.push(t.elapsed().as_secs_f64() * 1e3);
        check.record(&o);
        if !args.trace {
            calib_ms.push(calib.run());
            continue;
        }
        tr.set_iter(u32::try_from(traced_ms.len()).unwrap_or(u32::MAX - 1));
        let root = tr.open("iter", "");
        let o = w.iterate(&mut tr);
        traced_ms.push(tr.close(root) as f64 / 1e6);
        check.record(&o);
        let next_peel = window * (passes.len() as u32 + 1) / (PEEL_PASSES as u32 + 1);
        if peels_due(passes.len()) && t_window.elapsed() >= next_peel {
            tr.set_iter(PEEL);
            let mut m = Layers::new();
            mirrors.push(w.peel(&mut tr, &mut m)?);
            passes.push(m);
        }
    }
    drop(w);

    let mut metrics: Metrics = Vec::new();
    let mut in_band = true;
    let mut covered = true;
    if args.trace {
        (metrics, covered) = traced(args, &tr, &host_ms, &traced_ms, &passes, &mirrors)?;
    } else {
        // More set-ups in the same process, after the window so that
        // they do not delay it; `setup_s` is the median of all of them.
        for _ in 1..SETUPS {
            let t0 = Instant::now();
            let mut w = workload::build(&args.workload, args.size, args.seed, args.threads)?;
            let o = w.iterate(&mut off);
            setups.push(t0.elapsed().as_secs_f64());
            setup_calib_ms.push(calib.run());
            check.record(&o);
        }
        let sim = check.sim.unwrap_or(Sim {
            gbps: 0.0,
            improvement: 0.0,
            latency_p99_us: 0.0,
            slowdown_p50: 0.0,
        });
        if args.workload == "table2_app" && args.size == Size::Full {
            in_band = (IMPROVEMENT_BAND.0..=IMPROVEMENT_BAND.1).contains(&sim.improvement);
            if !in_band {
                eprintln!(
                    "perfbench: sim_improvement {} is outside the paper's band {IMPROVEMENT_BAND:?}",
                    sim.improvement
                );
            }
        }
        // Host times in reference milliseconds: each measurement over
        // the calibration run right after it.
        let reference = |ms: &[f64], calib: &[f64]| -> Vec<f64> {
            ms.iter()
                .zip(calib)
                .map(|(m, c)| m * host::CALIB_REF_MS / c)
                .collect()
        };
        let ref_ms = reference(&host_ms, &calib_ms);
        let p50 = host::median(&ref_ms);
        let mib = check.payload_bytes as f64 / (1024.0 * 1024.0);
        metrics.extend([
            (
                "setup_s",
                host::median(&reference(&setups, &setup_calib_ms)),
                "s",
            ),
            ("host_ms_p50", p50, "ms"),
            ("host_ms_p90", host::percentile(&ref_ms, 90.0), "ms"),
            ("sim_mib_per_host_s", mib / (p50 / 1e3), "MiB/s"),
            ("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0), "MiB"),
            (
                "ok_ratio",
                1.0 - check.failed as f64 / check.attempted.max(1) as f64,
                "ratio",
            ),
            ("sim_gbps", sim.gbps, "GB/s"),
            ("sim_improvement", sim.improvement, "ratio"),
            ("sim_latency_p99_us", sim.latency_p99_us, "sim_us"),
            ("sim_slowdown_p50", sim.slowdown_p50, "ratio"),
        ]);
    }

    // The sample counts behind the percentiles, and the raw wall-clock
    // figures behind the reference-time metrics.
    let mut summary = JsonObject::new();
    summary.field_u64("iterations", host_ms.len() as u64);
    summary.field_u64(
        "beyond_p90",
        (host_ms.len() - (host_ms.len() * 9).div_ceil(10)) as u64,
    );
    summary.field_u64("traced_iterations", traced_ms.len() as u64);
    summary.field_u64("mismatches", check.mismatches);
    summary.field_f64("raw_host_ms_p50", host::median(&host_ms));
    summary.field_f64("raw_host_ms_p90", host::percentile(&host_ms, 90.0));
    if !calib_ms.is_empty() {
        summary.field_f64("calib_ms_p50", host::median(&calib_ms));
    }
    let list = |v: &[f64]| array(v.iter().map(|x| fmt_f64(*x)));
    summary.field_raw("raw_setup_s", &list(&setups));
    summary.field_raw("setup_calib_ms", &list(&setup_calib_ms));
    let mut line = JsonObject::new();
    line.field_raw("summary", &summary.finish());
    println!("{}", line.finish());

    let correct = check.mismatches == 0
        && check.failed == 0
        && in_band
        && covered
        && metrics.iter().all(|m| m.1.is_finite());
    let mut body = JsonObject::new();
    for (name, v, unit) in &metrics {
        let mut m = JsonObject::new();
        m.field_f64("value", if v.is_finite() { *v } else { 0.0 });
        m.field_str("unit", unit);
        body.field_raw(name, &m.finish());
    }
    let mut result = JsonObject::new();
    result.field_bool("correct", correct);
    result.field_u64("attempted", check.attempted.max(1));
    result.field_u64("failed", check.failed);
    result.field_raw("metrics", &body.finish());
    println!("{}", result.finish());
    Ok(correct)
}

/// The per-layer metrics of a traced run, the span dump, and the
/// accounting check: whether the layers' self times plus the glue cover
/// the traced iteration within `COVERAGE_TOLERANCE`.
fn traced(
    args: &Args,
    tr: &Tracer,
    untraced_ms: &[f64],
    traced_ms: &[f64],
    passes: &[Layers],
    mirrors: &[Vec<u32>],
) -> Result<(Metrics, bool), String> {
    let iter_ms = host::median(traced_ms);
    // Glue: the iteration's own time outside any call into a crate.
    let glue_ms = host::median(
        &tr.spans()
            .iter()
            .zip(tr.self_times())
            .filter(|(s, _)| s.name == "iter")
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    // Each layer's self time under the peel's re-timing of an
    // iteration (its mirror spans), as a median over the passes.
    let per_pass: Vec<BTreeMap<&str, i64>> = mirrors
        .iter()
        .map(|roots| layer_self_ns(tr, |id, _| roots.contains(&tr.root(id))))
        .collect();
    let layers: BTreeSet<&str> = per_pass.iter().flat_map(|p| p.keys().copied()).collect();
    let layer_ms: BTreeMap<&str, f64> = layers
        .iter()
        .map(|&l| {
            let v: Vec<f64> = per_pass
                .iter()
                .map(|p| p.get(l).copied().unwrap_or(0) as f64 / 1e6)
                .collect();
            (l, host::median(&v))
        })
        .collect();
    let coverage = (layer_ms.values().sum::<f64>() + glue_ms) / iter_ms;
    let ok = (COVERAGE_TOLERANCE.0..=COVERAGE_TOLERANCE.1).contains(&coverage);
    print_layer_table(tr, &layer_ms, glue_ms, iter_ms);
    eprintln!(
        "perfbench: accounting: layers plus glue cover {:.1}% of the traced iteration ({}; tolerance {COVERAGE_TOLERANCE:?})",
        coverage * 100.0,
        if ok { "ok" } else { "OUTSIDE TOLERANCE" }
    );

    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let v = match name {
            "trace.overhead_ms" => iter_ms - host::median(untraced_ms),
            _ => {
                let vals: Vec<f64> = passes
                    .iter()
                    .map(|m| m.get(name).copied())
                    .collect::<Option<_>>()
                    .ok_or_else(|| format!("the peel did not measure {name}"))?;
                host::median(&vals)
            }
        };
        metrics.push((name, v, unit));
    }
    metrics.push(("accounting.coverage", coverage, "ratio"));

    let path = args.spans.clone().unwrap_or_else(|| {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("perfbench/target"));
        dir.join("perfbench-spans")
            .join(format!("{}-{}.jsonl", args.workload, args.seed))
    });
    write_spans(tr, &path).map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tr.spans().len(),
        path.display()
    );
    Ok((metrics, ok))
}

fn write_spans(tr: &Tracer, path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    tr.write_jsonl(&mut out)?;
    out.flush()
}

/// Prints the self time per layer: inside the traced iterations, where
/// only the top-level calls are spanned, and in the peel's re-timing of
/// an iteration, which splits those calls by layer; then the glue and
/// the traced iteration they are checked against.
fn print_layer_table(tr: &Tracer, peel_ms: &BTreeMap<&str, f64>, glue_ms: f64, iter_ms: f64) {
    let iters = tr
        .spans()
        .iter()
        .filter(|s| s.name == "iter")
        .count()
        .max(1);
    let in_iter = layer_self_ns(tr, |_, s| s.iter != PEEL && s.name != "iter");
    let layers: BTreeSet<&str> = in_iter.keys().chain(peel_ms.keys()).copied().collect();
    println!("layer        self ms/iteration   self ms/peeled iteration");
    for layer in layers {
        let it = in_iter.get(layer).copied().unwrap_or(0) as f64 / 1e6 / iters as f64;
        let pe = peel_ms.get(layer).copied().unwrap_or(0.0);
        println!("{layer:<12} {it:>17.3}   {pe:>24.3}");
    }
    println!("{:<12} {glue_ms:>17.3}   {glue_ms:>24.3}", "glue");
    let peeled = peel_ms.values().sum::<f64>() + glue_ms;
    println!("{:<12} {iter_ms:>17.3}   {peeled:>24.3}", "total");
}
