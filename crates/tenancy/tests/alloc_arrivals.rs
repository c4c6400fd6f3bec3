//! Counting-allocator regression for open-loop arrival sources: a
//! tenant's arrivals are drawn one at a time as they are consumed, so
//! setting up a run costs the same at any job count. A `1 << 40`-job
//! tenant used to ask for terabytes before the first beat.
//!
//! The run is cancelled before its first event, so the measured window
//! holds only set-up: validation, the spec book, the isolated-latency
//! baselines and the arrival sources. Neither their allocation calls
//! nor the bytes they request may scale with the job count.
//!
//! This must stay the only `#[test]` in this file: the global counting
//! allocator tallies every thread in the process, so a concurrently
//! running sibling test would pollute the measured windows.

use alloc_counter::CountingAlloc;
use fft2d::Architecture;
use mem3d::Picos;
use sim_exec::CancelToken;
use tenancy::{
    run_scenario, ArbiterKind, Arrivals, JobShape, JobSpec, Scenario, TenancyError, TenantSpec,
    Traffic,
};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc::new();

/// Allocation calls and bytes of a pre-cancelled run.
fn setup_allocations(arrivals: Arrivals, jobs: u64) -> (u64, u64) {
    let tenant = TenantSpec::new(
        "open",
        JobSpec {
            arch: Architecture::Baseline,
            n: 32,
            shape: JobShape::Column,
        },
        Traffic::Open { arrivals, jobs },
    );
    let scenario = Scenario::new(vec![tenant], 3);
    let cancel = CancelToken::new();
    cancel.cancel();
    let before = (
        alloc_counter::allocations(),
        alloc_counter::allocated_bytes(),
    );
    let r = run_scenario(&scenario, ArbiterKind::RoundRobin, Some(&cancel));
    let after = (
        alloc_counter::allocations(),
        alloc_counter::allocated_bytes(),
    );
    assert!(
        matches!(r, Err(TenancyError::Cancelled { .. })),
        "{arrivals:?} × {jobs}: {r:?}"
    );
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn open_loop_setup_does_not_scale_with_jobs() {
    for arrivals in [
        Arrivals::Immediate,
        Arrivals::Periodic {
            period: Picos(1_000),
            jitter: Picos(100),
        },
        Arrivals::Uniform {
            lo: Picos(10),
            hi: Picos(10_000),
        },
    ] {
        // Warmup pays lazily-grown process state (thread locals,
        // allocator arenas) before the measured windows.
        setup_allocations(arrivals, 1);
        let one = setup_allocations(arrivals, 1);
        let many = setup_allocations(arrivals, 1 << 40);
        assert_eq!(
            many, one,
            "{arrivals:?}: a 2^40-job source must make the allocation calls \
             and request the bytes of a one-job source"
        );
    }
}
