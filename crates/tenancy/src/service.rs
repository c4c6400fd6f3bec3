//! The multi-tenant service: one shared memory system, many concurrent
//! jobs, beat-level arbitration.
//!
//! The scheduler is **event-driven on the simulated femtosecond
//! clock**: each iteration picks the earliest of (a) the next traffic
//! arrival, (b) the next queue admission (a run slot free and a job
//! waiting), and (c) the earliest-granted next beat among running
//! phases, where a beat's grant time is its driver-side arrival paced
//! by the kernel clock, held back by the target vault's TSV occupancy
//! ([`mem3d::VaultController::tsv_free_at`]). When several phases'
//! beats target the same vault and are all ready by that grant time,
//! the [`Arbiter`](crate::Arbiter) picks the winner. Ties are broken
//! lexicographically (time, event class, vault, job index), so the
//! whole run is a pure function of the scenario — byte-identical on
//! any host, any thread count.
//!
//! A granted phase does not stop after one beat. It runs on through
//! [`ResumablePhase::step_until`] — fused spans where the memory system
//! can prove them — while its next beat's grant is strictly before the
//! **horizon**: the next arrival, the next admission, and every other
//! running phase's current grant. That is exact, not an approximation.
//! Grants only grow as TSV links fill, so a beat granted strictly
//! before every other phase's grant would win the next iteration's
//! selection outright; no other phase can be ready on its vault by
//! then, so the arbiter would not have been asked and its state
//! (deficit credits included) is untouched. The reports are
//! byte-identical to granting one beat per iteration.
//!
//! [`ResumablePhase::step_until`]: fft2d::ResumablePhase::step_until
//!
//! A **contended** winner goes on past the horizon under a **lease**
//! ([`Arbiter::lease`](crate::Arbiter::lease)): the number of further
//! picks it would win in a row against the same contenders, and a bound
//! on its ready time. A leased beat ([`mem3d::VaultLease`]) targets the
//! contended vault, moves the winning beat's bytes, arrives by the ready
//! bound, and is a TSV tie — it arrives no later than the link frees, so
//! every loser is still ready at its grant and the one-beat loop would
//! have asked the arbiter again, with the same slice but for the
//! winner's `ready`. Its grant must also be strictly before every event
//! outside the contender set: arrivals, admissions, and the grants of
//! phases on other vaults or not yet ready on this one. The winner then
//! wins exactly as the lease promised, and [`Arbiter::commit`](crate::Arbiter::commit)
//! records the picks used. Leased beats run through the same fused span
//! loops as unopposed ones, steady-state jump included.
//!
//! Everything here is on the service path: no panicking constructs
//! (simlint rule P101, from the `run_isolated` and `run_scenario`
//! entries).

use std::collections::VecDeque;

use fft2d::StepLimit;
use mem3d::{MemorySystem, Picos, VaultLease};
use sim_exec::{par_map, CancelToken, ExecConfig, JobError};
use sim_util::SimRng;

use crate::{
    book::{JobPhase, SpecBook},
    percentile,
    traffic::ArrivalSource,
    AdmissionCounts, ArbiterKind, Contender, JobRecord, Scenario, ServiceReport, TenancyError,
    TenantQos,
};

#[cfg(test)]
thread_local! {
    /// Service-loop iterations and arbitration picks (asked or leased)
    /// on this thread, so tests can prove streaks are served in a few
    /// iterations.
    static LOOP_COUNTS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// A job currently holding a run slot.
struct Running<'b> {
    job: u64,
    tenant: usize,
    client: usize,
    submitted: Picos,
    admitted: Picos,
    phase_idx: usize,
    /// Payload bytes of all phases opened so far (exact per-job
    /// accounting — the shared system's counters mix tenants).
    bytes: u64,
    slot: usize,
    phase: JobPhase<'b>,
}

/// A job waiting for a run slot.
struct Queued {
    job: u64,
    tenant: usize,
    client: usize,
    submitted: Picos,
}

/// A running phase's next read beat, as the selection scan saw it.
#[derive(Clone, Copy)]
struct Head {
    /// `max(arrival, tsv_free_at)` on the beat's vault.
    grant: Picos,
    vault: usize,
    arrive: Picos,
    bytes: u32,
}

/// One run slot: `free_at` is when its last occupant finished, so a
/// later admission knows the earliest time the slot was truly free.
#[derive(Clone, Copy)]
struct Slot {
    free_at: Picos,
    occupied: bool,
}

/// The next thing the service does, in simulated-time order. On equal
/// times an arrival precedes a queue admission precedes a beat, so a
/// job arriving exactly when a slot frees still queues behind earlier
/// waiters.
enum Next {
    Arrival(Picos, usize, usize),
    Admit(Picos, usize),
    Beat(Picos, usize, usize),
    Done,
}

fn fresh_mem(platform: &fft2d::SystemConfig) -> Result<MemorySystem, TenancyError> {
    let mut mem = MemorySystem::try_new(platform.geometry, platform.timing)?;
    mem.set_service_path(platform.service_path);
    Ok(mem)
}

/// One tenant's single-job latency on an otherwise idle system — the
/// denominator of the slowdown metric. Uses the same arena base and
/// recipe as the shared run, stepped through the same resumable
/// executor, so the only difference from the shared run is the absence
/// of other tenants.
// simlint::entry(service_path)
pub fn run_isolated(scenario: &Scenario, tenant: usize) -> Result<Picos, TenancyError> {
    scenario.validate()?;
    let book = SpecBook::build(&scenario.platform, &scenario.tenants)?;
    isolated_latency(&book, scenario, tenant)
}

fn isolated_latency(
    book: &SpecBook,
    scenario: &Scenario,
    tenant: usize,
) -> Result<Picos, TenancyError> {
    let mut mem = fresh_mem(&scenario.platform)?;
    let mut t = Picos::ZERO;
    for p in 0..book.phases(tenant) {
        let mut phase = book.open_phase(&mem, tenant, p, t)?;
        // Nothing competes, so each phase runs to its end in one call.
        while phase.step_until(&mut mem, Picos::MAX)?.is_some() {}
        t = phase.finish(&mut mem)?.end;
    }
    Ok(t)
}

/// Runs the scenario under one arbitration policy.
///
/// # Errors
///
/// Returns [`TenancyError::Config`] for a malformed scenario,
/// [`TenancyError::Cancelled`] if `cancel` fires (with the admission
/// ledger at that point), [`TenancyError::NothingAdmitted`] when every
/// job bounced, and [`TenancyError::Driver`] for simulator errors.
// simlint::entry(service_path)
pub fn run_scenario(
    scenario: &Scenario,
    kind: ArbiterKind,
    cancel: Option<&CancelToken>,
) -> Result<ServiceReport, TenancyError> {
    scenario.validate()?;
    let book = SpecBook::build(&scenario.platform, &scenario.tenants)?;
    let isolated = (0..scenario.tenants.len())
        .map(|t| isolated_latency(&book, scenario, t))
        .collect::<Result<Vec<_>, _>>()?;
    run_shared(scenario, &book, kind, cancel, &isolated, true)
}

/// Replays one scenario under several policies, one service run per
/// policy, on the deterministic pool. The isolated baselines are
/// computed once and shared. Results come back in `kinds` order
/// regardless of thread count — each run is single-threaded and the
/// pool only distributes whole runs.
///
/// # Errors
///
/// Propagates the first per-run error in `kinds` order; pool-level
/// faults (a panicked worker) surface as [`TenancyError::Config`].
pub fn run_suite(
    scenario: &Scenario,
    kinds: &[ArbiterKind],
    exec: &ExecConfig,
    cancel: Option<&CancelToken>,
) -> Result<Vec<ServiceReport>, TenancyError> {
    scenario.validate()?;
    let book = SpecBook::build(&scenario.platform, &scenario.tenants)?;
    let isolated = (0..scenario.tenants.len())
        .map(|t| isolated_latency(&book, scenario, t))
        .collect::<Result<Vec<_>, _>>()?;
    let results = par_map(exec, kinds, |kind, _ctx| {
        run_shared(scenario, &book, *kind, cancel, &isolated, true)
    });
    let mut reports = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(Ok(rep)) => reports.push(rep),
            Ok(Err(e)) => return Err(e),
            Err(JobError::Cancelled { .. }) => {
                return Err(TenancyError::Cancelled {
                    counts: AdmissionCounts::default(),
                })
            }
            Err(e) => return Err(TenancyError::Config(format!("pool fault: {e}"))),
        }
    }
    Ok(reports)
}

/// The service loop. A granted phase runs on up to the horizon when
/// `fuse` is set; without it every iteration grants exactly one beat —
/// the beat-at-a-time reference the fused loop must reproduce byte for
/// byte.
fn run_shared(
    scenario: &Scenario,
    book: &SpecBook,
    kind: ArbiterKind,
    cancel: Option<&CancelToken>,
    isolated: &[Picos],
    fuse: bool,
) -> Result<ServiceReport, TenancyError> {
    let tenants = &scenario.tenants;
    let root = SimRng::seed_from_u64(scenario.seed);
    let mut sources: Vec<ArrivalSource> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| ArrivalSource::new(&root, i as u64, t.traffic))
        .collect::<Result<_, _>>()?;
    let mut mem = fresh_mem(&scenario.platform)?;
    let mut arbiter = kind.build(tenants, scenario.platform.geometry.vaults);
    let adm = scenario.admission;
    let mut slots = vec![
        Slot {
            free_at: Picos::ZERO,
            occupied: false,
        };
        adm.max_running
    ];
    let mut running: Vec<Running<'_>> = Vec::new();
    let mut queue: VecDeque<Queued> = VecDeque::new();
    let mut counts = vec![AdmissionCounts::default(); tenants.len()];
    let mut records: Vec<JobRecord> = Vec::new();
    let mut next_job_id = 0u64;
    // Steady-state reuse: the phases recycle their pending-write
    // queues through the driver's per-thread pool, and the arbitration
    // scratch vectors are cleared per grant instead of reallocated —
    // after warmup the event loop performs zero heap allocations per
    // beat (pinned by `tests/alloc_steady.rs`).
    let mut contenders: Vec<Contender> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
    let mut heads: Vec<Option<Head>> = Vec::new();

    loop {
        #[cfg(test)]
        LOOP_COUNTS.with(|n| n.set((n.get().0 + 1, n.get().1)));
        if cancel.is_some_and(|c| c.is_cancelled()) {
            for r in &running {
                bump(&mut counts, r.tenant, |c| c.cancelled += 1);
            }
            for q in &queue {
                bump(&mut counts, q.tenant, |c| c.cancelled += 1);
            }
            return Err(TenancyError::Cancelled {
                counts: total(&counts),
            });
        }

        // Phase transitions and completions: any running job whose read
        // side is exhausted is finished now (its completion time is in
        // the past relative to every future beat — slot bookkeeping is
        // time-stamped, so processing order cannot leak a slot early).
        let mut i = 0;
        while i < running.len() {
            if running.get_mut(i).is_some_and(|r| r.phase.peek().is_some()) {
                i += 1;
                continue;
            }
            let r = running.remove(i);
            let rep = r.phase.finish(&mut mem)?;
            if r.phase_idx + 1 < book.phases(r.tenant) {
                let next = book.open_phase(&mem, r.tenant, r.phase_idx + 1, rep.end)?;
                let bytes = r.bytes + next.total_bytes();
                running.insert(
                    i,
                    Running {
                        job: r.job,
                        tenant: r.tenant,
                        client: r.client,
                        submitted: r.submitted,
                        admitted: r.admitted,
                        phase_idx: r.phase_idx + 1,
                        bytes,
                        slot: r.slot,
                        phase: next,
                    },
                );
                i += 1;
            } else {
                if let Some(s) = slots.get_mut(r.slot) {
                    s.free_at = rep.end;
                    s.occupied = false;
                }
                records.push(JobRecord {
                    job: r.job,
                    tenant: r.tenant,
                    client: r.client,
                    submitted: r.submitted,
                    admitted: r.admitted,
                    completed: rep.end,
                    bytes: r.bytes,
                });
                if let Some(src) = sources.get_mut(r.tenant) {
                    src.job_done(r.client, rep.end)?;
                }
            }
        }

        // The three event classes.
        let mut arrival: Option<(Picos, usize, usize)> = None;
        for (ti, s) in sources.iter().enumerate() {
            if let Some((t, c)) = s.peek() {
                let cand = (t, ti, c);
                if arrival.is_none_or(|a| cand < a) {
                    arrival = Some(cand);
                }
            }
        }
        let free_slot = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.occupied)
            .map(|(si, s)| (s.free_at, si))
            .min();
        let admit = match (queue.front(), free_slot) {
            (Some(h), Some((fa, si))) => Some((h.submitted.max(fa), si)),
            _ => None,
        };
        let mut beat: Option<(Picos, usize, usize)> = None;
        heads.clear();
        for (ri, r) in running.iter_mut().enumerate() {
            let Some(pb) = r.phase.peek() else {
                heads.push(None);
                continue;
            };
            let vault = mem.vault_of(r.phase.read_map(), pb.op.addr)?;
            let grant = pb.arrive.max(mem.controller(vault).tsv_free_at());
            heads.push(Some(Head {
                grant,
                vault,
                arrive: pb.arrive,
                bytes: pb.op.bytes,
            }));
            let cand = (grant, vault, ri);
            if beat.is_none_or(|b| cand < b) {
                beat = Some(cand);
            }
        }

        let mut next = Next::Done;
        let mut key = (Picos(u64::MAX), u8::MAX);
        if let Some((g, v, ri)) = beat {
            if (g, 2) < key {
                key = (g, 2);
                next = Next::Beat(g, v, ri);
            }
        }
        if let Some((t, si)) = admit {
            if (t, 1) < key {
                key = (t, 1);
                next = Next::Admit(t, si);
            }
        }
        if let Some((t, ti, c)) = arrival {
            if (t, 0) < key {
                next = Next::Arrival(t, ti, c);
            }
        }

        match next {
            Next::Done => break,
            Next::Arrival(t, ti, client) => {
                if let Some(src) = sources.get_mut(ti) {
                    src.pop(client)?;
                }
                let job = next_job_id;
                next_job_id += 1;
                bump(&mut counts, ti, |c| c.submitted += 1);
                let q = Queued {
                    job,
                    tenant: ti,
                    client,
                    submitted: t,
                };
                let free_now = slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.occupied && s.free_at <= t)
                    .map(|(si, s)| (s.free_at, si))
                    .min();
                match free_now {
                    Some((_, si)) if queue.is_empty() => {
                        admit_job(book, &mem, &mut running, &mut slots, &mut counts, q, t, si)?;
                    }
                    _ if queue.len() < adm.queue_depth => queue.push_back(q),
                    _ => {
                        bump(&mut counts, ti, |c| c.rejected += 1);
                        if let Some(src) = sources.get_mut(ti) {
                            src.job_done(client, t)?;
                        }
                    }
                }
            }
            Next::Admit(t, si) => {
                if let Some(h) = queue.pop_front() {
                    let late = adm
                        .max_queue_wait
                        .is_some_and(|w| t.saturating_sub(h.submitted) > w);
                    if late {
                        bump(&mut counts, h.tenant, |c| c.timed_out += 1);
                        if let Some(src) = sources.get_mut(h.tenant) {
                            src.job_done(h.client, t)?;
                        }
                    } else {
                        admit_job(book, &mem, &mut running, &mut slots, &mut counts, h, t, si)?;
                    }
                }
            }
            Next::Beat(grant, vault, ri) => {
                contenders.clear();
                owners.clear();
                for (i, (r, h)) in running.iter().zip(&heads).enumerate() {
                    let Some(h) = h else { continue };
                    if h.vault != vault || h.arrive > grant {
                        continue;
                    }
                    let (priority, weight) = tenants
                        .get(r.tenant)
                        .map_or((0, 1), |t| (t.priority, t.weight));
                    contenders.push(Contender {
                        tenant: r.tenant,
                        job: r.job,
                        priority,
                        weight,
                        ready: h.arrive,
                        bytes: h.bytes as u64,
                    });
                    owners.push(i);
                }
                let mut won = None;
                let winner = if contenders.len() <= 1 {
                    ri
                } else {
                    let k = arbiter.pick(vault, &contenders);
                    #[cfg(test)]
                    LOOP_COUNTS.with(|n| n.set((n.get().0, n.get().1 + 1)));
                    match owners.get(k) {
                        Some(&w) => {
                            won = Some(k);
                            w
                        }
                        None => ri,
                    }
                };
                // The winner runs unopposed until the next competing
                // event: an arrival, an admission, or any other
                // phase's grant — and on through its winning streak
                // against the same contenders, up to the first event
                // outside them (see the module docs for why this is
                // exact).
                let mut limit = StepLimit::from(Picos::ZERO);
                if fuse {
                    let mut outside = arrival.map_or(Picos::MAX, |a| a.0);
                    outside = outside.min(admit.map_or(Picos::MAX, |a| a.0));
                    limit.horizon = outside;
                    for (i, h) in heads.iter().enumerate() {
                        if let Some(h) = h.filter(|_| i != winner) {
                            limit.horizon = limit.horizon.min(h.grant);
                            if h.vault != vault || h.arrive > grant {
                                outside = outside.min(h.grant);
                            }
                        }
                    }
                    limit.lease = won
                        .map(|k| arbiter.lease(vault, &contenders, k))
                        .filter(|l| l.picks > 0)
                        .zip(heads.get(winner).copied().flatten())
                        .map(|(l, h)| VaultLease {
                            vault,
                            bytes: h.bytes,
                            picks: l.picks,
                            ready_by: l.ready_by,
                            horizon: outside,
                        });
                }
                if let Some(r) = running.get_mut(winner) {
                    r.phase.step_until(&mut mem, limit)?;
                    if let Some(k) = won.filter(|_| limit.lease.is_some()) {
                        arbiter.commit(vault, &contenders, k, r.phase.leased_picks());
                        #[cfg(test)]
                        LOOP_COUNTS.with(|n| {
                            n.set((n.get().0, n.get().1 + u64::from(r.phase.leased_picks())))
                        });
                    }
                }
            }
        }
    }

    let totals = total(&counts);
    if records.is_empty() {
        return Err(TenancyError::NothingAdmitted { counts: totals });
    }
    records.sort_by_key(|r| (r.completed, r.job));
    let makespan = records
        .iter()
        .map(|r| r.completed)
        .fold(Picos::ZERO, Picos::max);

    let mut qos = Vec::with_capacity(tenants.len());
    let mut lats: Vec<u64> = Vec::new();
    let mut waits: Vec<u64> = Vec::new();
    for (ti, t) in tenants.iter().enumerate() {
        lats.clear();
        waits.clear();
        let mut bytes = 0u64;
        for r in records.iter().filter(|r| r.tenant == ti) {
            lats.push(r.latency().as_ps());
            waits.push(r.queue_wait().as_ps());
            bytes += r.bytes;
        }
        lats.sort_unstable();
        waits.sort_unstable();
        let p50 = percentile(&lats, 50);
        let iso = isolated.get(ti).copied().unwrap_or(Picos::ZERO);
        let slowdown = if iso == Picos::ZERO {
            0.0
        } else {
            p50.as_ps() as f64 / iso.as_ps() as f64
        };
        let gbps = if makespan == Picos::ZERO {
            0.0
        } else {
            bytes as f64 / makespan.as_ps() as f64 * 1_000.0
        };
        qos.push(TenantQos {
            name: t.name.clone(),
            tenant: ti,
            counts: counts.get(ti).copied().unwrap_or_default(),
            latency_p50: p50,
            latency_p95: percentile(&lats, 95),
            latency_p99: percentile(&lats, 99),
            queue_wait_p50: percentile(&waits, 50),
            bytes,
            achieved_gbps: gbps,
            isolated_latency: iso,
            slowdown_p50: slowdown,
        });
    }

    Ok(ServiceReport {
        policy: kind.name(),
        seed: scenario.seed,
        tenants: qos,
        jobs: records,
        counts: totals,
        makespan,
        system: mem.stats(),
    })
}

fn bump(counts: &mut [AdmissionCounts], tenant: usize, f: impl FnOnce(&mut AdmissionCounts)) {
    if let Some(c) = counts.get_mut(tenant) {
        f(c);
    }
}

fn total(counts: &[AdmissionCounts]) -> AdmissionCounts {
    let mut t = AdmissionCounts::default();
    for c in counts {
        t.submitted += c.submitted;
        t.admitted += c.admitted;
        t.rejected += c.rejected;
        t.timed_out += c.timed_out;
        t.cancelled += c.cancelled;
    }
    t
}

#[allow(clippy::too_many_arguments)]
fn admit_job<'b>(
    book: &'b SpecBook,
    mem: &MemorySystem,
    running: &mut Vec<Running<'b>>,
    slots: &mut [Slot],
    counts: &mut [AdmissionCounts],
    q: Queued,
    at: Picos,
    slot: usize,
) -> Result<(), TenancyError> {
    let phase = book.open_phase(mem, q.tenant, 0, at)?;
    let bytes = phase.total_bytes();
    if let Some(s) = slots.get_mut(slot) {
        s.occupied = true;
    }
    bump(counts, q.tenant, |c| c.admitted += 1);
    running.push(Running {
        job: q.job,
        tenant: q.tenant,
        client: q.client,
        submitted: q.submitted,
        admitted: at,
        phase_idx: 0,
        bytes,
        slot,
        phase,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arrivals, JobShape, JobSpec, TenantSpec, Traffic};
    use fft2d::Architecture;

    fn spec(arch: Architecture, n: usize, shape: JobShape) -> JobSpec {
        JobSpec { arch, n, shape }
    }

    fn scenario_3(seed: u64) -> Scenario {
        let mk = |name: &str, arch, pri| TenantSpec {
            priority: pri,
            ..TenantSpec::new(
                name,
                spec(arch, 64, JobShape::Column),
                Traffic::Open {
                    arrivals: Arrivals::Immediate,
                    jobs: 2,
                },
            )
        };
        Scenario::new(
            vec![
                mk("base", Architecture::Baseline, 0),
                mk("opt", Architecture::Optimized, 2),
                mk("tiled", Architecture::Tiled, 1),
            ],
            seed,
        )
    }

    /// One baseline column tenant on `traffic`, run under round robin.
    fn run_one(traffic: Traffic, base_offset: Option<u64>) -> Result<ServiceReport, TenancyError> {
        let tenant = TenantSpec {
            base_offset,
            ..TenantSpec::new(
                "h",
                spec(Architecture::Baseline, 64, JobShape::Column),
                traffic,
            )
        };
        run_scenario(
            &Scenario::new(vec![tenant], 1),
            ArbiterKind::RoundRobin,
            None,
        )
    }

    fn assert_config_error(r: Result<ServiceReport, TenancyError>) {
        let e = r.err();
        assert!(matches!(e, Some(TenancyError::Config(_))), "{e:?}");
    }

    #[test]
    fn a_job_count_past_u64_is_rejected_by_validation() {
        assert_config_error(run_one(
            Traffic::Closed {
                clients: u64::MAX,
                jobs_per_client: 2,
                think: Picos::ZERO,
                think_jitter: Picos::ZERO,
            },
            None,
        ));
    }

    #[test]
    fn an_arena_past_the_address_space_is_a_config_error() {
        let once = Traffic::Open {
            arrivals: Arrivals::Immediate,
            jobs: 1,
        };
        assert_config_error(run_one(once, Some(u64::MAX - 10)));
    }

    #[test]
    fn arrivals_past_the_clock_are_a_config_error() {
        let periodic = Traffic::Open {
            arrivals: Arrivals::Periodic {
                period: Picos(u64::MAX / 2),
                jitter: Picos::ZERO,
            },
            jobs: 3,
        };
        assert_config_error(run_one(periodic, None));
    }

    #[test]
    fn a_think_time_past_the_clock_is_a_config_error() {
        let closed = Traffic::Closed {
            clients: 1,
            jobs_per_client: 2,
            think: Picos(u64::MAX - 5),
            think_jitter: Picos::ZERO,
        };
        assert_config_error(run_one(closed, None));
    }

    /// Up to four tenants on random architectures, sizes, shapes,
    /// traffic, priorities and weights, behind random admission bounds.
    fn random_scenario(rng: &mut SimRng) -> Scenario {
        let tenants = (0..rng.gen_range(1usize..5))
            .map(|i| {
                let job = JobSpec {
                    arch: Architecture::ALL[rng.gen_range(0usize..3)],
                    n: [32, 64][rng.gen_range(0usize..2)],
                    shape: if rng.gen_bool() {
                        JobShape::Column
                    } else {
                        JobShape::App
                    },
                };
                let traffic = match rng.gen_range(0usize..3) {
                    0 => Traffic::Open {
                        arrivals: Arrivals::Immediate,
                        jobs: rng.gen_range(1u64..3),
                    },
                    1 => Traffic::Open {
                        arrivals: Arrivals::Uniform {
                            lo: Picos::ZERO,
                            hi: Picos(rng.gen_range(1u64..400_000)),
                        },
                        jobs: rng.gen_range(1u64..4),
                    },
                    _ => Traffic::Closed {
                        clients: rng.gen_range(1u64..3),
                        jobs_per_client: rng.gen_range(1u64..3),
                        think: Picos(rng.gen_range(0u64..100_000)),
                        think_jitter: Picos(rng.gen_range(0u64..20_000)),
                    },
                };
                TenantSpec {
                    priority: rng.gen_range(0u8..3),
                    weight: rng.gen_range(1u64..4),
                    ..TenantSpec::new(&format!("t{i}"), job, traffic)
                }
            })
            .collect();
        let mut s = Scenario::new(tenants, rng.next_u64());
        s.admission.max_running = rng.gen_range(1usize..4);
        s.admission.queue_depth = rng.gen_range(1usize..6);
        s
    }

    /// Two or three tenants contending for the vaults their arenas
    /// share, on a platform whose kernel rate and prefetch window are
    /// drawn too, so winning streaks start and end every way a lease
    /// can end: out of picks, past the ready bound, on a kernel-bound
    /// beat (no TSV tie), or at another phase's grant.
    fn streak_scenario(rng: &mut SimRng) -> Scenario {
        let tenants = (0..rng.gen_range(2usize..4))
            .map(|i| {
                let job = JobSpec {
                    arch: Architecture::ALL[rng.gen_range(0usize..3)],
                    n: [32, 64, 128][rng.gen_range(0usize..3)],
                    shape: if rng.gen_range(0usize..3) == 0 {
                        JobShape::App
                    } else {
                        JobShape::Column
                    },
                };
                let traffic = if rng.gen_bool() {
                    Traffic::Open {
                        arrivals: Arrivals::Immediate,
                        jobs: rng.gen_range(1u64..3),
                    }
                } else {
                    Traffic::Open {
                        arrivals: Arrivals::Uniform {
                            lo: Picos::ZERO,
                            hi: Picos(rng.gen_range(1u64..2_000_000)),
                        },
                        jobs: rng.gen_range(1u64..3),
                    }
                };
                TenantSpec {
                    priority: rng.gen_range(0u8..2),
                    weight: rng.gen_range(1u64..3),
                    ..TenantSpec::new(&format!("t{i}"), job, traffic)
                }
            })
            .collect();
        let mut s = Scenario::new(tenants, rng.next_u64());
        s.platform.lanes = [1, 2, 8, 16][rng.gen_range(0usize..4)];
        s.platform.window_bytes = [1 << 9, 1 << 12, 1 << 15, 1 << 18][rng.gen_range(0usize..4)];
        s.admission.max_running = rng.gen_range(2usize..4);
        s.admission.queue_depth = 8;
        s
    }

    /// The fused service against the beat-at-a-time loop, byte for byte,
    /// under every policy.
    fn assert_fused_matches_beatwise(s: &Scenario) -> Result<(), String> {
        use sim_util::{prop_assert, prop_assert_eq};
        let book = SpecBook::build(&s.platform, &s.tenants).unwrap();
        let isolated = (0..s.tenants.len())
            .map(|t| isolated_latency(&book, s, t).unwrap())
            .collect::<Vec<_>>();
        for kind in ArbiterKind::ALL {
            let fused = run_shared(s, &book, kind, None, &isolated, true);
            let beatwise = run_shared(s, &book, kind, None, &isolated, false);
            match (fused, beatwise) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.to_json(), b.to_json(), "{}", kind.name()),
                (a, b) => {
                    let (a, b) = (a.err(), b.err());
                    prop_assert!(false, "{}: {:?} vs {:?}", kind.name(), a, b)
                }
            }
        }
        Ok(())
    }

    /// A tenant whose `jobs` jobs all arrive `first` after time zero.
    fn arriving(
        arch: Architecture,
        n: usize,
        shape: JobShape,
        first: Picos,
        jobs: u64,
    ) -> TenantSpec {
        let arrivals = if first == Picos::ZERO {
            Arrivals::Immediate
        } else {
            Arrivals::Periodic {
                period: first,
                jitter: Picos::ZERO,
            }
        };
        TenantSpec::new("t", spec(arch, n, shape), Traffic::Open { arrivals, jobs })
    }

    /// A scenario on a platform with `lanes` kernel lanes and a
    /// `window`-byte prefetch window.
    fn platform_scenario(tenants: Vec<TenantSpec>, lanes: usize, window: u64) -> Scenario {
        let mut s = Scenario::new(tenants, 1);
        s.platform.lanes = lanes;
        s.platform.window_bytes = window;
        s
    }

    #[test]
    fn equal_priority_streak_ending_on_a_ready_tie_matches_beatwise() {
        // Two baseline column jobs at equal priority on vault 0, the
        // later one winning on its earlier ready times until it reaches
        // the other's ready — where the tie goes to the lower tenant.
        // A strict-priority lease one pick too long serves a beat the
        // tie-break gives away.
        let s = platform_scenario(
            vec![
                TenantSpec {
                    priority: 1,
                    weight: 2,
                    ..arriving(
                        Architecture::Baseline,
                        64,
                        JobShape::Column,
                        Picos(1_000_000),
                        1,
                    )
                },
                TenantSpec {
                    priority: 1,
                    weight: 2,
                    ..arriving(
                        Architecture::Baseline,
                        32,
                        JobShape::Column,
                        Picos(100_000),
                        1,
                    )
                },
            ],
            1,
            512,
        );
        assert_fused_matches_beatwise(&s).unwrap();
    }

    #[test]
    fn kernel_bound_winner_mid_streak_matches_beatwise() {
        // A slow two-lane kernel behind a 512-byte window: the winner's
        // arrivals overtake the link mid-streak, and from that beat on
        // the loser, ready at the link's free time, is granted first.
        // The same scenario has a tenant with two jobs running at once,
        // and the third phase's grants fall inside their round-robin
        // streaks.
        let s = platform_scenario(
            vec![
                TenantSpec {
                    weight: 2,
                    ..arriving(
                        Architecture::Baseline,
                        32,
                        JobShape::Column,
                        Picos(100_000),
                        2,
                    )
                },
                TenantSpec {
                    priority: 1,
                    ..arriving(Architecture::Baseline, 128, JobShape::App, Picos::ZERO, 1)
                },
            ],
            2,
            512,
        );
        assert_fused_matches_beatwise(&s).unwrap();
    }

    #[test]
    fn third_phase_granted_inside_a_streak_matches_beatwise() {
        // Two jobs of one tenant share vault 0 — under round robin the
        // lower job's streak is unlimited — while other tenants' phases
        // run beside them: each streak must end at the first grant of a
        // phase outside the contender set.
        let s = platform_scenario(
            vec![
                arriving(
                    Architecture::Optimized,
                    64,
                    JobShape::App,
                    Picos(1_000_000),
                    1,
                ),
                arriving(
                    Architecture::Baseline,
                    128,
                    JobShape::App,
                    Picos(1_000_000),
                    2,
                ),
                TenantSpec {
                    weight: 2,
                    ..arriving(
                        Architecture::Optimized,
                        128,
                        JobShape::Column,
                        Picos(1_000_000),
                        1,
                    )
                },
            ],
            1,
            32 * 1024,
        );
        assert_fused_matches_beatwise(&s).unwrap();
    }

    #[test]
    fn leased_streaks_match_the_beat_at_a_time_loop() {
        sim_util::prop_check!(cases: 24, |rng| {
            assert_fused_matches_beatwise(&streak_scenario(rng))?;
        });
    }

    #[test]
    fn fused_service_matches_the_beat_at_a_time_loop() {
        sim_util::prop_check!(cases: 24, |rng| {
            assert_fused_matches_beatwise(&random_scenario(rng))?;
        });
    }

    #[test]
    fn streaks_take_far_fewer_iterations_than_picks() {
        // The shape of the benchmark's contended vault: an N = 256
        // baseline column job beside a reorganizing column job, both on
        // vault 0 — the baseline winning long streaks of 8-byte beats.
        let s = platform_scenario(
            vec![
                arriving(
                    Architecture::Baseline,
                    256,
                    JobShape::Column,
                    Picos::ZERO,
                    1,
                ),
                TenantSpec {
                    weight: 2,
                    ..arriving(
                        Architecture::Optimized,
                        256,
                        JobShape::Column,
                        Picos(200_000),
                        1,
                    )
                },
            ],
            8,
            256 * 1024,
        );
        let book = SpecBook::build(&s.platform, &s.tenants).unwrap();
        let isolated = [Picos::ZERO; 2];
        let counted = |kind, fuse| {
            LOOP_COUNTS.with(|n| n.set((0, 0)));
            let rep = run_shared(&s, &book, kind, None, &isolated, fuse).unwrap();
            (rep.to_json(), LOOP_COUNTS.with(|n| n.get()))
        };
        for kind in [ArbiterKind::StrictPriority, ArbiterKind::DeficitWeighted] {
            let (fused, (iterations, picks)) = counted(kind, true);
            let (beatwise, (_, beatwise_picks)) = counted(kind, false);
            assert_eq!(fused, beatwise, "{}", kind.name());
            assert_eq!(picks, beatwise_picks, "{}: leased picks", kind.name());
            assert!(
                picks > 1000 && iterations * 20 < picks,
                "{}: {iterations} iterations for {picks} picks",
                kind.name()
            );
        }
    }

    #[test]
    fn contention_run_completes_all_jobs() {
        let rep = run_scenario(&scenario_3(42), ArbiterKind::RoundRobin, None).unwrap();
        assert_eq!(rep.counts.submitted, 6);
        assert_eq!(rep.counts.admitted, 6);
        assert_eq!(rep.jobs.len(), 6);
        assert_eq!(rep.counts.rejected, 0);
        for t in &rep.tenants {
            assert!(t.latency_p50 > Picos::ZERO);
            assert!(
                t.slowdown_p50 >= 1.0,
                "{}: contended p50 cannot beat the isolated run ({})",
                t.name,
                t.slowdown_p50
            );
        }
    }

    #[test]
    fn policies_disagree_under_contention() {
        let rr = run_scenario(&scenario_3(42), ArbiterKind::RoundRobin, None).unwrap();
        let sp = run_scenario(&scenario_3(42), ArbiterKind::StrictPriority, None).unwrap();
        // The high-priority tenant must not be worse off under strict
        // priority than under round robin.
        assert!(sp.tenants[1].latency_p50 <= rr.tenants[1].latency_p50);
        assert_ne!(
            rr.jobs, sp.jobs,
            "policies must produce observably different schedules"
        );
    }

    #[test]
    fn admission_bounds_reject_overload() {
        let mut s = scenario_3(7);
        s.admission.max_running = 1;
        s.admission.queue_depth = 1;
        let rep = run_scenario(&s, ArbiterKind::RoundRobin, None).unwrap();
        assert_eq!(rep.counts.submitted, 6);
        assert!(
            rep.counts.rejected > 0,
            "bounded queue must bounce arrivals"
        );
        assert_eq!(
            rep.counts.admitted + rep.counts.rejected + rep.counts.timed_out,
            6
        );
        assert_eq!(rep.jobs.len(), rep.counts.admitted as usize);
    }

    #[test]
    fn queue_timeout_drops_stale_jobs() {
        let mut s = scenario_3(7);
        s.admission.max_running = 1;
        s.admission.queue_depth = 8;
        s.admission.max_queue_wait = Some(Picos(1));
        let rep = run_scenario(&s, ArbiterKind::RoundRobin, None).unwrap();
        assert!(rep.counts.timed_out > 0, "1 ps of patience must time out");
        assert_eq!(
            rep.counts.admitted + rep.counts.timed_out + rep.counts.rejected,
            6
        );
    }

    #[test]
    fn cancel_token_aborts_with_ledger() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let res = run_scenario(&scenario_3(1), ArbiterKind::RoundRobin, Some(&cancel));
        assert!(
            matches!(res, Err(TenancyError::Cancelled { .. })),
            "expected Cancelled"
        );
    }

    #[test]
    fn closed_loop_self_regulates() {
        let t = TenantSpec::new(
            "closed",
            spec(Architecture::Baseline, 64, JobShape::Column),
            Traffic::Closed {
                clients: 2,
                jobs_per_client: 3,
                think: Picos::from_ns(100),
                think_jitter: Picos::from_ns(10),
            },
        );
        let rep = run_scenario(&Scenario::new(vec![t], 9), ArbiterKind::RoundRobin, None).unwrap();
        assert_eq!(rep.counts.submitted, 6);
        assert_eq!(rep.counts.admitted, 6);
        assert_eq!(rep.jobs.len(), 6);
        // Clients are serial: never more than `clients` jobs in flight.
        for w in rep.jobs.windows(1) {
            assert!(w[0].completed >= w[0].admitted);
        }
    }

    #[test]
    fn suite_runs_policies_in_order() {
        let reps = run_suite(
            &scenario_3(5),
            &ArbiterKind::ALL,
            &ExecConfig::sequential(),
            None,
        )
        .unwrap();
        assert_eq!(reps.len(), 3);
        assert_eq!(reps[0].policy, "round_robin");
        assert_eq!(reps[1].policy, "strict_priority");
        assert_eq!(reps[2].policy, "deficit_weighted");
    }
}
