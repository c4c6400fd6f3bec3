//! The three workloads: one iteration each (timed end to end), the
//! digest of its simulated results, its simulated metrics, and one pass
//! of the layer peel (traced mode).
//!
//! Every call into a workspace crate goes through a public function, so
//! the benchmark measures the crates from outside and needs no change
//! inside them.

use std::collections::BTreeMap;

use fft2d::{improvement, pareto_front, AppResult, Architecture, ExploreCache, System};
use layout::{enumerate_candidates, row_phase_stream, LayoutParams, RowMajor};
use mem3d::{replay_stream, AddressMap, Direction, MemorySystem, Picos, RequestSource};
use sim_exec::ExecConfig;
use sim_util::{SimRng, StableHasher};
use tenancy::{
    run_isolated, run_scenario, AdmissionConfig, ArbiterKind, Arrivals, JobShape, JobSpec,
    Scenario, ServiceReport, TenantSpec, Traffic,
};

use crate::host::{median, percentile};
use crate::trace::{Tracer, ROOT};

/// Per-layer metrics of one peel pass, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The traffic seed of `tenancy_mixed`. It is fixed: between draws the
/// worst tenant's median slowdown moves by up to a quarter, wider than
/// any bound a regression check could use, so the workload seed orders
/// the policy runs instead.
const TRAFFIC_SEED: u64 = 1000;

/// Problem sizes: `Full` is the benchmark, `Tiny` the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// The workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["table2_app", "tenancy_mixed", "explore_sweep"];

/// Simulated end-to-end metrics of one iteration. They depend only on
/// the inputs, so they repeat exactly from run to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    pub gbps: f64,
    pub improvement: f64,
    pub latency_p99_us: f64,
    pub slowdown_p50: f64,
}

/// What one iteration did.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Operations attempted (app runs, submitted jobs, candidates).
    pub ops: u64,
    /// Operations that failed: `Err` returns, rejected, timed-out or
    /// cancelled jobs, explore failures.
    pub failed: u64,
    /// Digest of the simulated results; `None` when a call failed.
    pub digest: Option<u64>,
    /// Simulated payload bytes the iteration moved.
    pub payload_bytes: u64,
    pub sim: Sim,
}

/// One workload: its iteration and its layer peel.
pub trait Workload {
    /// Runs one iteration, with a span around each call into a crate.
    fn iterate(&mut self, tr: &mut Tracer) -> Outcome;

    /// One layer-peel pass: fills `m` and returns the root spans that
    /// re-time the calls an iteration makes. The layers' self times
    /// under those roots are what the accounting check adds up.
    fn peel(&mut self, tr: &mut Tracer, m: &mut Layers) -> Result<Vec<u32>, String>;

    /// Threads an iteration keeps busy.
    fn threads(&self) -> usize {
        1
    }
}

/// Builds workload `name` for `size` from `seed`, on a pool of
/// `threads` threads.
pub fn build(
    name: &str,
    size: Size,
    seed: u64,
    threads: usize,
) -> Result<Box<dyn Workload>, String> {
    let sys = System::default();
    let exec = ExecConfig::sequential()
        .with_threads(threads)
        .with_seed(seed);
    let mut rng = SimRng::seed_from_u64(seed);
    let tiny = size == Size::Tiny;
    let n = match name {
        "table2_app" => {
            if tiny {
                64
            } else {
                2048
            }
        }
        "tenancy_mixed" => {
            if tiny {
                64
            } else {
                256
            }
        }
        "explore_sweep" => {
            if tiny {
                64
            } else {
                1024
            }
        }
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {NAMES:?}"
            ))
        }
    };
    // Constructing the families once checks the registry at this size;
    // the peel times the same construction as `setup.family_build_ns`.
    if build_families(&sys, n) == 0 {
        return Err(format!("no feasible layout family at n = {n}"));
    }
    Ok(match name {
        "table2_app" => Box::new(Table2 { sys, exec, rng, n }),
        "tenancy_mixed" => Box::new(Tenancy {
            scenario: mixed_scenario(n, tiny),
            sys,
            exec,
            rng,
            n,
        }),
        _ => {
            let mut lanes = if tiny { vec![4, 8] } else { vec![4, 8, 16] };
            rng.shuffle(&mut lanes);
            Box::new(Explore {
                sys,
                exec,
                n,
                lanes,
            })
        }
    })
}

fn elem_bytes(sys: &System, n: usize) -> usize {
    params(sys, n).elem_bytes
}

fn params(sys: &System, n: usize) -> LayoutParams {
    let cfg = sys.config();
    LayoutParams::for_device(n, &cfg.geometry, &cfg.timing)
}

/// `FamilyId::build` over every registry candidate at `n`; returns how
/// many are feasible.
fn build_families(sys: &System, n: usize) -> usize {
    let p = params(sys, n);
    enumerate_candidates(&p)
        .into_iter()
        .filter_map(|spec| spec.build(&p).ok())
        .count()
}

fn matrix_kib(sys: &System, n: usize) -> f64 {
    (n * n * elem_bytes(sys, n)) as f64 / 1024.0
}

fn add(m: &mut Layers, key: &'static str, v: f64) {
    *m.entry(key).or_insert(0.0) += v;
}

// ---------------------------------------------------------------- table2_app

/// `System::run_app` for every architecture at one size: the paper's
/// Table 2 unit of work. The seed orders the three runs each iteration;
/// results do not depend on the order.
struct Table2 {
    sys: System,
    exec: ExecConfig,
    rng: SimRng,
    n: usize,
}

impl Workload for Table2 {
    fn iterate(&mut self, tr: &mut Tracer) -> Outcome {
        let mut order = Architecture::ALL;
        self.rng.shuffle(&mut order);
        let mut results: [Option<AppResult>; 3] = [None; 3];
        let mut failed = 0;
        for arch in order {
            let id = tr.open("core.run_app", arch.name());
            let r = self.sys.run_app(arch, self.n);
            tr.close(id);
            match r {
                Ok(r) => results[arch_index(arch)] = Some(r),
                Err(_) => failed += 1,
            }
        }
        let ops = results.len() as u64;
        let [Some(base), Some(opt), Some(tiled)] = results else {
            return failed_outcome(ops, failed);
        };
        let apps = [base, opt, tiled];
        let mut h = StableHasher::new();
        for a in &apps {
            hash_app(&mut h, a);
        }
        let totals: Vec<f64> = apps.iter().map(|a| a.total.as_us_f64()).collect();
        let fastest = totals.iter().copied().fold(f64::INFINITY, f64::min);
        let slowdowns: Vec<f64> = totals.iter().map(|t| t / fastest).collect();
        Outcome {
            ops,
            failed,
            digest: Some(h.finish()),
            payload_bytes: apps
                .iter()
                .map(|a| {
                    a.phase1.read_bytes
                        + a.phase1.write_bytes
                        + a.phase2.read_bytes
                        + a.phase2.write_bytes
                })
                .sum(),
            sim: Sim {
                gbps: opt.throughput_gbps,
                improvement: improvement(base.throughput_gbps, opt.throughput_gbps),
                latency_p99_us: totals.iter().copied().fold(0.0, f64::max),
                slowdown_p50: median(&slowdowns),
            },
        }
    }

    fn peel(&mut self, tr: &mut Tracer, m: &mut Layers) -> Result<Vec<u32>, String> {
        let mirror = phase_peel(tr, &self.sys, self.n, m)?;
        let one = one_tenant_peel(tr, &self.sys, self.n, m)?;
        one.fill(m);
        explore_peel(tr, &self.sys, &self.exec, self.n, &[8], m)?;
        Ok(mirror)
    }
}

fn arch_index(arch: Architecture) -> usize {
    Architecture::ALL
        .iter()
        .position(|&a| a == arch)
        .expect("every architecture is in ALL")
}

fn failed_outcome(ops: u64, failed: u64) -> Outcome {
    Outcome {
        ops,
        failed: failed.max(1),
        digest: None,
        payload_bytes: 0,
        sim: Sim {
            gbps: 0.0,
            improvement: 0.0,
            latency_p99_us: 0.0,
            slowdown_p50: 0.0,
        },
    }
}

fn hash_app(h: &mut StableHasher, a: &AppResult) {
    h.write_str(a.arch.name());
    h.write_usize(a.n);
    for p in [&a.phase1, &a.phase2] {
        h.write_u64(p.read_bytes);
        h.write_u64(p.write_bytes);
        h.write_u64(p.start.as_ps());
        h.write_u64(p.end.as_ps());
        h.write_u64(p.probe_done.as_ps());
        h.write_u64(p.activations);
        h.write_f64_bits(p.row_hit_rate);
    }
    h.write_u64(a.total.as_ps());
    h.write_f64_bits(a.throughput_gbps);
    h.write_u64(a.latency.as_ps());
    h.write_f64_bits(a.data_parallelism);
}

// ------------------------------------------------------------- tenancy_mixed

/// `tenancy::run_scenario` under every arbitration policy on one seeded
/// four-tenant scenario. The workload seed orders the policy runs each
/// iteration; reports do not depend on the order.
struct Tenancy {
    sys: System,
    exec: ExecConfig,
    rng: SimRng,
    n: usize,
    scenario: Scenario,
}

/// Tenant names, as span tags.
const TENANTS: [&str; 4] = [
    "baseline-col",
    "optimized-col",
    "tiled-col",
    "optimized-app",
];

/// Three open-loop tenants with jittered periodic arrivals and one
/// closed-loop client running the full application beside them. The
/// baseline tenant's long jobs hold one of the two run slots most of
/// the time, so the short jobs queue for the other; the queue is deep
/// enough that none is refused. The short jobs' jitter spans their
/// whole period, so their medians sample every phase of the contention.
fn mixed_scenario(n: usize, tiny: bool) -> Scenario {
    let us = |x: u64| Picos::from_ns(x * 1000);
    // (long, short, closed-loop) jobs per tenant.
    let (long, short, app) = if tiny { (1, 3, 2) } else { (4, 20, 10) };
    // Periods scale with the matrix: a column phase moves n² elements.
    let scale = (n * n / (256 * 256)).max(1) as u64;
    let open = |period: u64, jitter: u64, jobs: u64| Traffic::Open {
        arrivals: Arrivals::Periodic {
            period: us(period * scale),
            jitter: us(jitter * scale),
        },
        jobs,
    };
    let job = |arch, shape| JobSpec { arch, n, shape };
    let mut tenants = vec![
        TenantSpec::new(
            TENANTS[0],
            job(Architecture::Baseline, JobShape::Column),
            open(400, 20, long),
        ),
        TenantSpec::new(
            TENANTS[1],
            job(Architecture::Optimized, JobShape::Column),
            open(60, 60, short),
        ),
        TenantSpec::new(
            TENANTS[2],
            job(Architecture::Tiled, JobShape::Column),
            open(60, 60, short),
        ),
        TenantSpec::new(
            TENANTS[3],
            job(Architecture::Optimized, JobShape::App),
            Traffic::Closed {
                clients: 1,
                jobs_per_client: app,
                think: us(60 * scale),
                think_jitter: us(30 * scale),
            },
        ),
    ];
    tenants[1].weight = 2;
    tenants[1].priority = 2;
    tenants[3].priority = 1;
    let mut scenario = Scenario::new(tenants, TRAFFIC_SEED);
    scenario.admission = AdmissionConfig {
        max_running: 2,
        queue_depth: 32,
        max_queue_wait: None,
    };
    scenario
}

impl Workload for Tenancy {
    fn iterate(&mut self, tr: &mut Tracer) -> Outcome {
        let mut order = ArbiterKind::ALL;
        self.rng.shuffle(&mut order);
        let jobs: u64 = self
            .scenario
            .tenants
            .iter()
            .map(|t| t.traffic.total_jobs())
            .sum();
        let mut reports: [Option<ServiceReport>; 3] = [None, None, None];
        let mut failed = 0;
        for kind in order {
            let id = tr.open("tenancy.run_scenario", kind.name());
            let r = run_scenario(&self.scenario, kind, None);
            tr.close(id);
            match r {
                Ok(rep) => {
                    let c = rep.counts;
                    failed += c.rejected + c.timed_out + c.cancelled;
                    reports[policy_index(kind)] = Some(rep);
                }
                Err(_) => failed += jobs,
            }
        }
        let ops = jobs * reports.len() as u64;
        let [Some(a), Some(b), Some(c)] = reports else {
            return failed_outcome(ops, failed);
        };
        let reports = [a, b, c];
        let mut h = StableHasher::new();
        for rep in &reports {
            h.write_str(&rep.to_json());
        }
        let bytes: u64 = reports
            .iter()
            .flat_map(|r| &r.tenants)
            .map(|t| t.bytes)
            .sum();
        let makespan_ps: u64 = reports.iter().map(|r| r.makespan.as_ps()).sum();
        let worst = |f: &dyn Fn(&tenancy::TenantQos) -> f64| {
            reports
                .iter()
                .flat_map(|r| &r.tenants)
                .map(f)
                .fold(0.0, f64::max)
        };
        // Isolated single-job latencies are policy-independent.
        let iso = |t: usize| reports[0].tenants[t].isolated_latency.as_ps() as f64;
        Outcome {
            ops,
            failed,
            digest: Some(h.finish()),
            payload_bytes: bytes,
            sim: Sim {
                gbps: bytes as f64 / makespan_ps as f64 * 1000.0,
                improvement: improvement(1.0 / iso(0), 1.0 / iso(1)),
                latency_p99_us: worst(&|t| t.latency_p99.as_us_f64()),
                slowdown_p50: worst(&|t| t.slowdown_p50),
            },
        }
    }

    fn peel(&mut self, tr: &mut Tracer, m: &mut Layers) -> Result<Vec<u32>, String> {
        let sc = &self.scenario;
        let mut mirror = Vec::new();
        let mut iso = TenancySplit::default();
        for kind in ArbiterKind::ALL {
            let (rep, sid, s_ns) = tr.time("tenancy.run_scenario", kind.name(), ROOT, || {
                run_scenario(sc, kind, None)
            });
            let rep = rep.map_err(|e| e.to_string())?;
            mirror.push(sid);
            iso.scenario_ns += s_ns;
            for (t, q) in rep.tenants.iter().enumerate() {
                let (r, _, i_ns) = tr.time("tenancy.run_isolated", TENANTS[t], sid, || {
                    run_isolated(sc, t)
                });
                r.map_err(|e| e.to_string())?;
                iso.isolated_ns += i_ns;
                iso.solo_ns += i_ns * q.counts.completed();
                iso.queue_wait_us = iso.queue_wait_us.max(q.queue_wait_p50.as_us_f64());
            }
            iso.shared_bytes += rep.tenants.iter().map(|t| t.bytes).sum::<u64>();
            iso.jobs_completed += rep.counts.completed();
        }
        iso.fill(m);
        phase_peel(tr, &self.sys, self.n, m)?;
        // Only the scalar-step figures: the tenancy metrics come from
        // the mixed scenario above.
        one_tenant_peel(tr, &self.sys, self.n, m)?;
        explore_peel(tr, &self.sys, &self.exec, self.n, &[4, 8, 16], m)?;
        Ok(mirror)
    }
}

fn policy_index(kind: ArbiterKind) -> usize {
    ArbiterKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every policy is in ALL")
}

/// Service runs split into the isolated single-job runs each one
/// starts with and the shared run's remainder.
#[derive(Debug, Default)]
struct TenancySplit {
    /// Σ `run_scenario`.
    scenario_ns: u64,
    /// Σ `run_isolated`: the single-job runs inside the scenarios.
    isolated_ns: u64,
    /// What the shared runs' jobs would cost run one at a time: each
    /// tenant's isolated time times its completed jobs.
    solo_ns: u64,
    /// Payload bytes of the shared runs.
    shared_bytes: u64,
    jobs_completed: u64,
    queue_wait_us: f64,
}

impl TenancySplit {
    fn fill(&self, m: &mut Layers) {
        let shared_ns = self.scenario_ns as f64 - self.isolated_ns as f64;
        let kib = self.shared_bytes.max(1) as f64 / 1024.0;
        m.insert("tenancy.isolated_ns", self.isolated_ns as f64);
        m.insert("tenancy.shared_ns", shared_ns);
        m.insert(
            "tenancy.arbitration_ns_per_kib",
            (shared_ns - self.solo_ns as f64) / kib,
        );
        m.insert("tenancy.jobs_completed", self.jobs_completed as f64);
        m.insert("tenancy.queue_wait_p50_us", self.queue_wait_us);
    }
}

// ------------------------------------------------------------- explore_sweep

/// `System::explore_with` over every registry family and the lane
/// options on the pool. The seed orders the lane options and seeds the
/// pool; the digest sorts the points, so neither changes it.
struct Explore {
    sys: System,
    exec: ExecConfig,
    n: usize,
    lanes: Vec<usize>,
}

impl Workload for Explore {
    fn iterate(&mut self, tr: &mut Tracer) -> Outcome {
        let id = tr.open("core.explore_with", "pooled");
        let r = self.sys.explore_with(&self.exec, self.n, &self.lanes);
        tr.close(id);
        let Ok(x) = r else {
            return failed_outcome(1, 1);
        };
        let mut points = x.points.clone();
        points.sort_by_key(|p| (p.lanes, p.family.name(), p.h));
        let mut h = StableHasher::new();
        for p in &points {
            h.write_str(&p.to_json());
        }
        h.write_str(&x.skipped.to_json());
        let mut failures: Vec<String> = x.failures.iter().map(|f| f.to_json()).collect();
        failures.sort();
        for f in &failures {
            h.write_str(f);
        }
        let bytes_per_point = (self.n * self.n * elem_bytes(&self.sys, self.n)) as u64;
        let best = points.iter().map(|p| p.throughput_gbps).fold(0.0, f64::max);
        let best_row_major = points
            .iter()
            .filter(|p| p.family == layout::FamilyId::RowMajor)
            .map(|p| p.throughput_gbps)
            .fold(0.0, f64::max);
        // Simulated column-phase time of each candidate, in µs.
        let times: Vec<f64> = points
            .iter()
            .map(|p| bytes_per_point as f64 / p.throughput_gbps / 1000.0)
            .collect();
        let slowdowns: Vec<f64> = points.iter().map(|p| best / p.throughput_gbps).collect();
        Outcome {
            ops: (x.points.len() + x.skipped.total() + x.failures.len()) as u64,
            failed: x.failures.len() as u64,
            digest: Some(h.finish()),
            payload_bytes: bytes_per_point * points.len() as u64,
            sim: Sim {
                gbps: pareto_front(&points)
                    .iter()
                    .map(|p| p.throughput_gbps)
                    .fold(0.0, f64::max),
                improvement: improvement(best_row_major, best),
                latency_p99_us: percentile(&times, 99.0),
                slowdown_p50: median(&slowdowns),
            },
        }
    }

    fn peel(&mut self, tr: &mut Tracer, m: &mut Layers) -> Result<Vec<u32>, String> {
        let mirror = explore_peel(tr, &self.sys, &self.exec, self.n, &self.lanes, m)?;
        phase_peel(tr, &self.sys, self.n, m)?;
        let one = one_tenant_peel(tr, &self.sys, self.n, m)?;
        one.fill(m);
        Ok(vec![mirror])
    }

    fn threads(&self) -> usize {
        self.exec.threads
    }
}

// ---------------------------------------------------------------- layer peel

fn fresh_mem(sys: &System) -> Result<MemorySystem, String> {
    let cfg = sys.config();
    let mut mem = MemorySystem::try_new(cfg.geometry, cfg.timing).map_err(|e| e.to_string())?;
    mem.set_service_path(cfg.service_path);
    Ok(mem)
}

/// Drains a stream through `next_run` into a null consumer; returns
/// `(runs, beats)`.
fn drain(mut s: impl RequestSource) -> (u64, u64) {
    let (mut runs, mut beats) = (0, 0);
    while let Some(r) = s.next_run() {
        runs += 1;
        beats += u64::from(r.beats);
    }
    (runs, beats)
}

/// Drains a stream and decodes every beat's address.
fn decode_pass(mut s: impl RequestSource, map: &AddressMap) -> Result<u64, String> {
    let mut acc = 0u64;
    while let Some(r) = s.next_run() {
        for i in 0..u64::from(r.beats) {
            let loc = map
                .decode(r.op.addr + i * r.stride)
                .map_err(|e| e.to_string())?;
            acc = acc.wrapping_add(loc.col as u64);
        }
    }
    Ok(acc)
}

/// The phase peel for every architecture at `n`. Per architecture the
/// spans form the chain `core.run_app` ⊃ `core.column_phase` ⊃
/// `mem3d.replay_stream` ⊃ `mem3d.decode` ⊃ `layout.col_stream`, with
/// the row-phase streams under `core.run_app`. Returns the `run_app`
/// spans.
fn phase_peel(tr: &mut Tracer, sys: &System, n: usize, m: &mut Layers) -> Result<Vec<u32>, String> {
    let p = params(sys, n);
    let geometry = sys.config().geometry;
    let mut apps = Vec::new();
    let (mut hits, mut misses) = (0u64, 0u64);
    for arch in Architecture::ALL {
        let tag = arch.name();
        let fam = sys
            .intermediate_family(arch, n)
            .map_err(|e| e.to_string())?;
        let (app, app_id, app_ns) = tr.time("core.run_app", tag, ROOT, || sys.run_app(arch, n));
        app.map_err(|e| e.to_string())?;
        let (col, col_id, col_ns) = tr.time("core.column_phase", tag, app_id, || {
            sys.column_phase(arch, n)
        });
        col.map_err(|e| e.to_string())?;
        let (rep, rep_id, rep_ns) = tr.time("mem3d.replay_stream", tag, col_id, || {
            let mut mem = fresh_mem(sys)?;
            let mut s = fam.col_stream(Direction::Read);
            replay_stream(s.as_mut(), &mut mem, fam.map_kind(), None).map_err(|e| e.to_string())
        });
        let rep = rep?;
        let map = AddressMap::new(fam.map_kind(), geometry);
        let (dec, dec_id, dec_ns) = tr.time("mem3d.decode", tag, rep_id, || {
            decode_pass(fam.col_stream(Direction::Read), &map)
        });
        dec?;
        let ((runs, beats), _, cs_ns) = tr.time("layout.col_stream", tag, dec_id, || {
            drain(fam.col_stream(Direction::Read))
        });
        let input = if fam.reorg_rows() > 0 {
            RowMajor::interleaved(&p)
        } else {
            RowMajor::new(&p)
        };
        let (_, _, rs_ns) = tr.time("layout.row_stream", tag, app_id, || {
            drain(row_phase_stream(&input, Direction::Read))
        });
        let (_, _, ws_ns) = tr.time("layout.write_stream", tag, app_id, || {
            drain(fam.write_stream())
        });
        apps.push(app_id);
        add(m, "layout.col_stream_ns", cs_ns as f64);
        add(m, "layout.write_stream_ns", ws_ns as f64);
        add(m, "layout.row_stream_ns", rs_ns as f64);
        add(m, "layout.runs", runs as f64);
        add(m, "layout.beats", beats as f64);
        add(m, "mem3d.decode_self_ns", dec_ns as f64 - cs_ns as f64);
        add(m, "mem3d.service_self_ns", rep_ns as f64 - dec_ns as f64);
        add(m, "mem3d.requests", rep.stats.requests as f64);
        add(m, "mem3d.activations", rep.stats.activations as f64);
        hits += rep.stats.row_hits;
        misses += rep.stats.row_misses;
        add(m, "core.col_phase_ns", col_ns as f64);
        add(m, "core.row_phase_ns", app_ns as f64 - col_ns as f64);
        add(m, "core.driver_self_ns", col_ns as f64 - rep_ns as f64);
    }
    let beats = m.remove("layout.beats").unwrap_or(0.0);
    m.insert("layout.beats_per_run", beats / m["layout.runs"].max(1.0));
    m.insert(
        "mem3d.row_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let kib = 3.0 * matrix_kib(sys, n);
    m.insert("core.event_ns_per_kib", m["core.col_phase_ns"] / kib);
    Ok(apps)
}

/// One-tenant Column scenarios, one per architecture at `n`:
/// `tenancy::run_scenario` with `tenancy::run_isolated` under it. The
/// isolated run steps the scalar beat body, which gives
/// `core.scalar_step_ns_per_kib`.
fn one_tenant_peel(
    tr: &mut Tracer,
    sys: &System,
    n: usize,
    m: &mut Layers,
) -> Result<TenancySplit, String> {
    let mut split = TenancySplit::default();
    for arch in Architecture::ALL {
        let tag = arch.name();
        let sc = Scenario::new(
            vec![TenantSpec::new(
                tag,
                JobSpec {
                    arch,
                    n,
                    shape: JobShape::Column,
                },
                Traffic::Open {
                    arrivals: Arrivals::Immediate,
                    jobs: 1,
                },
            )],
            0,
        );
        let (rep, sid, s_ns) = tr.time("tenancy.run_scenario", tag, ROOT, || {
            run_scenario(&sc, ArbiterKind::RoundRobin, None)
        });
        let rep = rep.map_err(|e| e.to_string())?;
        let (r, _, i_ns) = tr.time("tenancy.run_isolated", tag, sid, || run_isolated(&sc, 0));
        r.map_err(|e| e.to_string())?;
        split.scenario_ns += s_ns;
        split.isolated_ns += i_ns;
        let bytes: u64 = rep.tenants.iter().map(|t| t.bytes).sum();
        split.shared_bytes += bytes;
        split.solo_ns += i_ns * rep.counts.completed();
        split.jobs_completed += rep.counts.completed();
        for t in &rep.tenants {
            split.queue_wait_us = split.queue_wait_us.max(t.queue_wait_p50.as_us_f64());
        }
    }
    let kib = 3.0 * matrix_kib(sys, n);
    m.insert(
        "core.scalar_step_ns_per_kib",
        split.isolated_ns as f64 / kib,
    );
    Ok(split)
}

/// The explore peel at `(n, lanes)`: a cold pooled sweep into an
/// in-memory cache (the same work as `explore_with`), a warm replay
/// from that cache, a sequential sweep for the pool's speed-up, and
/// the family construction the sweep does per candidate. Returns the
/// pooled sweep's span.
fn explore_peel(
    tr: &mut Tracer,
    sys: &System,
    exec: &ExecConfig,
    n: usize,
    lanes: &[usize],
    m: &mut Layers,
) -> Result<u32, String> {
    let mut cache = ExploreCache::in_memory();
    let (cold, cold_id, cold_ns) = tr.time("core.explore_with", "pooled", ROOT, || {
        sys.explore_cached(exec, n, lanes, &mut cache)
    });
    let (cold, _) = cold.map_err(|e| e.to_string())?;
    let (warm, _, warm_ns) = tr.time("core.explore_cached", "warm", ROOT, || {
        sys.explore_cached(exec, n, lanes, &mut cache)
    });
    let (_, stats) = warm.map_err(|e| e.to_string())?;
    let seq_exec = exec.clone().with_threads(1);
    let (seq, _, seq_ns) = tr.time("core.explore_with", "sequential", ROOT, || {
        sys.explore_with(&seq_exec, n, lanes)
    });
    seq.map_err(|e| e.to_string())?;
    let (_, _, build_ns) = tr.time("setup.family_build", "", ROOT, || build_families(sys, n));

    let candidates = cold.points.len() + cold.skipped.total() + cold.failures.len();
    let threads = exec.threads.clamp(1, candidates.max(1));
    let speedup = seq_ns as f64 / cold_ns.max(1) as f64;
    m.insert(
        "core.explore_ns_per_point",
        seq_ns as f64 / candidates.max(1) as f64,
    );
    m.insert("core.explore.points", cold.points.len() as f64);
    m.insert("core.explore.skipped", cold.skipped.total() as f64);
    m.insert("core.explore.failures", cold.failures.len() as f64);
    m.insert("core.cache_warm_ns", warm_ns as f64);
    m.insert(
        "core.cache.hit_ratio",
        stats.hits as f64 / stats.total().max(1) as f64,
    );
    m.insert("sim_exec.threads", threads as f64);
    m.insert("sim_exec.speedup", speedup);
    m.insert("sim_exec.efficiency", speedup / threads as f64);
    m.insert("setup.family_build_ns", build_ns as f64);
    Ok(cold_id)
}
