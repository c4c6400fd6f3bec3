//! **Allocation + cache benchmark** — records the two perf contracts
//! of the zero-allocation / resumable-exploration work as one JSON
//! record per line (`group: "alloc"`, collected into `BENCH_alloc.json`
//! by `scripts/bench_record.sh` and gated by `scripts/check_alloc.py`):
//!
//! * `run_phase_steady` — heap allocations performed by a *warmed*
//!   [`fft2d::run_phase`] (reads, delayed writes, event-driven fast
//!   path). The floor is exactly zero: streams, beats and the report
//!   are allocation-free once the thread's pooled pending-write queue
//!   is sized.
//! * `tenancy_steady` — the differential proof for the multi-tenant
//!   event loop: at a fixed matrix size, adding jobs adds a fixed
//!   per-job setup cost; the increment must be identical across matrix
//!   sizes even though the larger size drives 4x the beats. Any
//!   per-beat allocation would skew the large-size increment.
//! * `explore_cache_warm` — wall clock of a cold design-space sweep
//!   (which populates a fresh JSONL cache) versus a warm re-run that
//!   replays every point from it, with byte-identity of the published
//!   exploration checked before any ratio is reported.
//!
//! The binary installs its own counting global allocator, so it must
//! stay the only measurement running in this process.
//!
//! Knobs: `SIM_BENCH_FAST=1` shrinks the problem sizes (CI smoke).

use std::time::Instant;

use alloc_counter::CountingAlloc;
use bench::common;
use fft2d::{run_phase, Architecture, DriverConfig, ExploreCache};
use layout::{row_phase_stream, LayoutParams, MatrixLayout, RowMajor};
use mem3d::{Direction, Geometry, MemorySystem, Picos, TimingParams};
use sim_util::json::JsonObject;
use tenancy::{
    run_scenario, ArbiterKind, Arrivals, JobShape, JobSpec, Scenario, TenantSpec, Traffic,
};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc::new();

/// Allocations performed by one warmed full phase (read + delayed
/// write) at size `n`, plus the 8-byte beats it moved.
fn run_phase_steady(n: usize) {
    let geom = Geometry::default();
    let timing = TimingParams::default();
    let params = LayoutParams::for_device(n, &geom, &timing);
    let layout = RowMajor::interleaved(&params);
    let cfg = DriverConfig {
        ps_per_byte: 31.25,
        window_bytes: 256 * 1024,
        write_delay: Picos::from_ns(1000),
        latency_probe_bytes: 0,
    };
    let mut mem = MemorySystem::new(geom, timing);

    let run = |mem: &mut MemorySystem, at: Picos| {
        let mut writes = row_phase_stream(&layout, Direction::Write);
        run_phase(
            mem,
            &cfg,
            &mut row_phase_stream(&layout, Direction::Read),
            layout.map_kind(),
            Some((&mut writes, layout.map_kind())),
            at,
        )
        .expect("phase runs")
    };

    // Warmup sizes the pooled pending-write queue.
    let warm = run(&mut mem, Picos::ZERO);
    let before = alloc_counter::allocations();
    let rep = run(&mut mem, warm.end);
    let allocs = alloc_counter::allocations() - before;

    let beats = (rep.read_bytes + rep.write_bytes) / 8;
    let mut o = JsonObject::new();
    o.field_str("group", "alloc");
    o.field_str("id", "run_phase_steady");
    o.field_u64("n", n as u64);
    o.field_u64("beats", beats);
    o.field_u64("warm_allocs", allocs);
    o.field_f64("allocs_per_beat", allocs as f64 / beats as f64);
    println!("{}", o.finish());
}

/// Allocations of one whole tenancy run (setup included).
fn tenancy_run(n: usize, jobs: u64) -> u64 {
    let mk = |name: &str| {
        TenantSpec::new(
            name,
            JobSpec {
                arch: Architecture::Baseline,
                n,
                shape: JobShape::Column,
            },
            Traffic::Open {
                arrivals: Arrivals::Immediate,
                jobs,
            },
        )
    };
    let scenario = Scenario::new(vec![mk("a"), mk("b")], 11);
    let before = alloc_counter::allocations();
    let rep = run_scenario(&scenario, ArbiterKind::RoundRobin, None).expect("run");
    assert_eq!(rep.jobs.len(), (2 * jobs) as usize);
    alloc_counter::allocations() - before
}

/// The differential beat-independence record for the event loop.
fn tenancy_steady(n_small: usize, n_large: usize) {
    for (n, jobs) in [(n_small, 2), (n_small, 4), (n_large, 2), (n_large, 4)] {
        tenancy_run(n, jobs);
    }
    let inc_small = tenancy_run(n_small, 4) - tenancy_run(n_small, 2);
    let inc_large = tenancy_run(n_large, 4) - tenancy_run(n_large, 2);

    let mut o = JsonObject::new();
    o.field_str("group", "alloc");
    o.field_str("id", "tenancy_steady");
    o.field_u64("n_small", n_small as u64);
    o.field_u64("n_large", n_large as u64);
    o.field_u64("per_job_inc_small", inc_small);
    o.field_u64("per_job_inc_large", inc_large);
    // Signed so a regression in either direction is visible.
    o.field_f64("per_beat_excess", inc_large as f64 - inc_small as f64);
    println!("{}", o.finish());
}

/// Cold-vs-warm exploration sweep against a fresh JSONL cache file.
fn explore_cache_warm(n: usize, lanes: &[usize]) {
    let sys = common::default_system();
    let exec = common::exec_config();
    let path = std::env::temp_dir().join(format!("fft2d_alloc_bench_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let t0 = Instant::now();
    let mut cache = ExploreCache::open(&path).expect("create cache");
    let (cold, cold_stats) = sys
        .explore_cached(&exec, n, lanes, &mut cache)
        .expect("cold sweep");
    let cold_ns = t0.elapsed().as_nanos() as u64;
    drop(cache);

    // Warm runs re-open the file each time — the measured path is the
    // resume path: parse the JSONL, replay every point, simulate none.
    let mut warm_ns = u64::MAX;
    let mut identical = true;
    let mut warm_hits = 0u64;
    let mut warm_misses = 0u64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut cache = ExploreCache::open(&path).expect("reopen cache");
        let (warm, warm_stats) = sys
            .explore_cached(&exec, n, lanes, &mut cache)
            .expect("warm sweep");
        warm_ns = warm_ns.min(t0.elapsed().as_nanos() as u64);
        identical &= warm.to_json() == cold.to_json();
        warm_hits = warm_stats.hits as u64;
        warm_misses = warm_stats.misses as u64;
    }
    let _ = std::fs::remove_file(&path);

    let mut o = JsonObject::new();
    o.field_str("group", "alloc");
    o.field_str("id", "explore_cache_warm");
    o.field_u64("n", n as u64);
    o.field_u64("points", cold_stats.misses as u64);
    o.field_u64("warm_hits", warm_hits);
    o.field_u64("warm_misses", warm_misses);
    o.field_u64("cold_ns", cold_ns);
    o.field_u64("warm_ns", warm_ns);
    o.field_f64("speedup", cold_ns as f64 / warm_ns as f64);
    o.field_bool("identical_output", identical);
    println!("{}", o.finish());
}

fn main() {
    let fast = std::env::var_os("SIM_BENCH_FAST").is_some();
    eprintln!(
        "alloc_bench: steady-state allocations + cache warm-up ({})",
        if fast { "smoke sizes" } else { "full sizes" }
    );

    if fast {
        run_phase_steady(128);
        tenancy_steady(32, 64);
        explore_cache_warm(128, &[2, 4, 8]);
    } else {
        run_phase_steady(512);
        tenancy_steady(32, 64);
        explore_cache_warm(512, &[2, 4, 8, 16, 32]);
    }
}
