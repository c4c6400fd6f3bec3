//! Counting-allocator regression for the zero-allocation steady state:
//! after one warmup phase has sized the thread's pooled pending-write
//! queue, a full [`fft2d::run_phase`] — reads, delayed writes,
//! event-driven fast path — performs **zero** heap allocations, and so
//! does a [`fft2d::ResumablePhase`] over borrowed streams opened,
//! stepped at finite horizons and finished. Costing the processor —
//! [`fft2d::ProcessorModel::new`] and its kernel latency, which every
//! `run_app` and explored design point pays — allocates nothing either:
//! the kernel is costed in closed form, not built.
//!
//! This must stay the only `#[test]` in this file: the global counting
//! allocator tallies every thread in the process, so a concurrently
//! running sibling test would pollute the measured windows.

use alloc_counter::CountingAlloc;
use fft2d::{run_phase, DriverConfig, ProcessorModel, ResumablePhase};
use fpga_model::resources::devices::VIRTEX7_690T;
use layout::{row_phase_stream, LayoutParams, MatrixLayout, RowMajor};
use mem3d::{Direction, Geometry, MemorySystem, Picos, RequestSource, TimingParams};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc::new();

#[test]
fn warmed_run_phase_allocates_nothing() {
    let geom = Geometry::default();
    let timing = TimingParams::default();
    let params = LayoutParams::for_device(128, &geom, &timing);
    let big = LayoutParams::for_device(2048, &geom, &timing);
    let layout = RowMajor::interleaved(&params);
    let cfg = DriverConfig {
        ps_per_byte: 31.25,
        window_bytes: 256 * 1024,
        write_delay: Picos::from_ns(1000),
        latency_probe_bytes: 0,
    };
    let mut mem = MemorySystem::new(geom, timing);

    // Processor costing at the paper's largest size, for the baseline
    // (no reorganization buffer) and a reorganizing family.
    let before = alloc_counter::allocations();
    let mut latency = Picos::ZERO;
    for reorg_h in [0, 64] {
        let proc = ProcessorModel::new(&big, 8, reorg_h, &VIRTEX7_690T).expect("processor");
        latency += proc.kernel_latency();
    }
    let after = alloc_counter::allocations();
    assert!(latency > Picos::ZERO);
    assert_eq!(
        after - before,
        0,
        "costing a processor must not build a kernel (twiddle ROMs, \
         frame buffers, digit-reversal tables)"
    );

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

    // Warmup: sizes the pooled pending-write queue (and any capacity
    // the memory system grows lazily).
    let warm = run(&mut mem, Picos::ZERO);
    assert_eq!(warm.read_bytes, 128 * 128 * 8);

    let before = alloc_counter::allocations();
    let rep = run(&mut mem, warm.end);
    let after = alloc_counter::allocations();

    assert_eq!(rep.read_bytes, warm.read_bytes);
    assert_eq!(rep.write_bytes, warm.write_bytes);
    assert_eq!(
        after - before,
        0,
        "a warmed run_phase must not allocate (streams, beats, \
         delayed writes and the report are all allocation-free)"
    );

    // The same phase held open: borrowed streams, stepped at finite
    // horizons (each next beat's arrival, so every step serves the
    // granted beat and whatever else is due before it), then finished.
    let before = alloc_counter::allocations();
    let mut reads = row_phase_stream(&layout, Direction::Read);
    let mut writes = row_phase_stream(&layout, Direction::Write);
    let mut phase = ResumablePhase::<&mut dyn RequestSource>::new(
        &mem,
        &cfg,
        &mut reads,
        layout.map_kind(),
        Some((&mut writes, layout.map_kind())),
        rep.end,
    )
    .expect("phase opens");
    let mut steps = 0u64;
    while let Some(next) = phase.peek() {
        phase.step_until(&mut mem, next.arrive).expect("step");
        steps += 1;
    }
    let stepped = phase.finish(&mut mem).expect("phase finishes");
    let after = alloc_counter::allocations();

    assert!(
        steps > 1,
        "finite horizons cut the phase into {steps} steps"
    );
    assert_eq!(stepped.read_bytes, warm.read_bytes);
    assert_eq!(stepped.write_bytes, warm.write_bytes);
    assert_eq!(
        after - before,
        0,
        "a warmed resumable phase must not allocate (opening, stepping \
         and finishing reuse the pooled queue)"
    );
}
