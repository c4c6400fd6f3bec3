//! The request-servicing fast path's contract: the cached shift/mask +
//! decode-once + closed-form-run implementation
//! ([`mem3d::ServicePath::Fast`]) must be **byte-identical** to the
//! original scalar path ([`mem3d::ServicePath::Reference`]) in every
//! observable — per-request [`mem3d::RequestOutcome`]s, accumulated
//! [`mem3d::Stats`], and whole-phase [`PhaseReport`]s — across random
//! layouts, geometries and driver configurations. If this holds, the
//! hot-path overhaul is invisible to every consumer.

use fft2d::{run_phase, DriverConfig, PhaseReport, ResumablePhase};
use layout::{
    band_block_write_stream, col_phase_stream, row_phase_stream, tile_band_write_stream,
    tile_sweep_stream, BlockDynamic, LayoutParams, MatrixLayout, RowMajor, Tiled,
};
use mem3d::{
    AccessTrace, AddressMapKind, Direction, Geometry, MemorySystem, Picos, RequestSource,
    ServicePath, TimingParams, TraceOp,
};
use sim_util::{par_check, prop_assert, prop_assert_eq};

/// Draws a valid geometry; roughly half the draws have a
/// non-power-of-two dimension, exercising the div/mod decode fallback
/// on the fast path as well.
fn random_geom(rng: &mut sim_util::SimRng) -> Geometry {
    let dim = |rng: &mut sim_util::SimRng, pow2: bool| -> usize {
        if pow2 {
            1 << rng.gen_range(0u32..4)
        } else {
            rng.gen_range(1usize..12)
        }
    };
    let pow2 = rng.gen_bool();
    Geometry {
        vaults: dim(rng, pow2),
        layers: dim(rng, pow2),
        banks_per_layer: dim(rng, pow2),
        rows_per_bank: dim(rng, pow2).max(2),
        row_bytes: 1 << rng.gen_range(6u32..12),
    }
}

/// Runs one phase twice — on a fast-path device and on a reference-path
/// device — from identically-generated streams, returning both reports
/// and both devices for state comparison.
fn phase_both_paths(
    geom: Geometry,
    timing: TimingParams,
    cfg: &DriverConfig,
    start: Picos,
    reads: (&mut dyn RequestSource, &mut dyn RequestSource),
    read_map: AddressMapKind,
    writes: Option<(
        &mut dyn RequestSource,
        &mut dyn RequestSource,
        AddressMapKind,
    )>,
) -> (PhaseReport, PhaseReport, MemorySystem, MemorySystem) {
    let (reads_fast, reads_ref) = reads;
    let (writes_fast, writes_ref, write_map) = match writes {
        Some((a, b, map)) => (Some(a), Some(b), Some(map)),
        None => (None, None, None),
    };

    let mut fast = MemorySystem::new(geom, timing);
    assert_eq!(fast.service_path(), ServicePath::Fast);
    let fast_report = run_phase(
        &mut fast,
        cfg,
        reads_fast,
        read_map,
        writes_fast.map(|w| (w, write_map.unwrap())),
        start,
    )
    .expect("fast-path phase");

    let mut reference = MemorySystem::new(geom, timing);
    reference.set_service_path(ServicePath::Reference);
    let ref_report = run_phase(
        &mut reference,
        cfg,
        reads_ref,
        read_map,
        writes_ref.map(|w| (w, write_map.unwrap())),
        start,
    )
    .expect("reference-path phase");

    (fast_report, ref_report, fast, reference)
}

#[test]
fn fast_and_reference_phases_are_byte_identical() {
    par_check!(cases: 48, |rng| {
        let shape = rng.gen_range(0usize..4);
        let n = if shape == 3 {
            256 << rng.gen_range(0u32..2) // 256, 512
        } else {
            1usize << rng.gen_range(4u32..8) // 16..=128
        };
        let cfg = DriverConfig {
            ps_per_byte: [3.9, 31.25, 125.0][rng.gen_range(0usize..3)],
            window_bytes: 1u64 << rng.gen_range(10u32..19),
            write_delay: Picos::from_ns(rng.gen_range(0u64..2000)),
            latency_probe_bytes: if rng.gen_bool() { (n * 8) as u64 } else { 0 },
        };
        let start = Picos(rng.gen_range(0u64..1 << 40));
        let with_writes = rng.gen_bool();
        let timing = if rng.gen_bool() {
            TimingParams::default()
        } else {
            TimingParams::default().with_refresh()
        };

        let (fast, reference, mem_fast, mem_ref) = match shape {
            // Column phase over a row-major layout on a *random* pow2
            // geometry (the strided baseline pattern), row-major
            // write-back.
            0 => {
                let geom = Geometry {
                    vaults: 1 << rng.gen_range(0u32..5),
                    layers: 1 << rng.gen_range(0u32..3),
                    banks_per_layer: 1 << rng.gen_range(0u32..4),
                    rows_per_bank: 1 << rng.gen_range(10u32..14),
                    row_bytes: 1 << rng.gen_range(10u32..14),
                };
                let p = LayoutParams::for_device(n, &geom, &timing);
                let l = if rng.gen_bool() {
                    RowMajor::new(&p)
                } else {
                    RowMajor::interleaved(&p)
                };
                let r = phase_both_paths(
                    geom,
                    timing,
                    &cfg,
                    start,
                    (
                        &mut col_phase_stream(&l, Direction::Read, 1),
                        &mut col_phase_stream(&l, Direction::Read, 1),
                    ),
                    l.map_kind(),
                    with_writes.then_some((
                        &mut row_phase_stream(&l, Direction::Write) as &mut dyn RequestSource,
                        &mut row_phase_stream(&l, Direction::Write) as &mut dyn RequestSource,
                        l.map_kind(),
                    )),
                );
                r
            }
            // Column phase over the block DDL, band write-back.
            1 => {
                let geom = Geometry::default();
                let p = LayoutParams::for_device(n, &geom, &timing);
                let heights = p.valid_block_heights();
                let h = heights[rng.gen_range(0usize..heights.len())];
                let ddl = BlockDynamic::with_height(&p, h).expect("feasible height");
                let r = phase_both_paths(
                    geom,
                    timing,
                    &cfg,
                    start,
                    (
                        &mut col_phase_stream(&ddl, Direction::Read, ddl.w),
                        &mut col_phase_stream(&ddl, Direction::Read, ddl.w),
                    ),
                    ddl.map_kind(),
                    with_writes.then_some((
                        &mut band_block_write_stream(&ddl) as &mut dyn RequestSource,
                        &mut band_block_write_stream(&ddl) as &mut dyn RequestSource,
                        ddl.map_kind(),
                    )),
                );
                r
            }
            // Tile sweep over the Akin et al. tiling, tile write-back.
            2 => {
                let geom = Geometry::default();
                let p = LayoutParams::for_device(n, &geom, &timing);
                let t = Tiled::row_buffer_sized(&p).expect("tiled layout");
                let r = phase_both_paths(
                    geom,
                    timing,
                    &cfg,
                    start,
                    (
                        &mut tile_sweep_stream(&t, Direction::Read),
                        &mut tile_sweep_stream(&t, Direction::Read),
                    ),
                    t.map_kind(),
                    with_writes.then_some((
                        &mut tile_band_write_stream(&t) as &mut dyn RequestSource,
                        &mut tile_band_write_stream(&t) as &mut dyn RequestSource,
                        t.map_kind(),
                    )),
                );
                r
            }
            // The baseline's row-major column walk on the paper's device
            // at N ≤ 512: a 2–4 KiB stride puts several matrix rows in
            // one 8 KiB memory row, so the runs fuse per beat through
            // sub-row strides rather than falling back to scalar beats.
            _ => {
                let geom = Geometry::default();
                let p = LayoutParams::for_device(n, &geom, &timing);
                let l = RowMajor::new(&p);
                let r = phase_both_paths(
                    geom,
                    timing,
                    &cfg,
                    start,
                    (
                        &mut col_phase_stream(&l, Direction::Read, 1),
                        &mut col_phase_stream(&l, Direction::Read, 1),
                    ),
                    l.map_kind(),
                    with_writes.then_some((
                        &mut row_phase_stream(&l, Direction::Write) as &mut dyn RequestSource,
                        &mut row_phase_stream(&l, Direction::Write) as &mut dyn RequestSource,
                        l.map_kind(),
                    )),
                );
                r
            }
        };
        prop_assert!(
            fast == reference,
            "reports diverged for n = {n}:\n  fast:      {fast:?}\n  reference: {reference:?}"
        );
        prop_assert_eq!(
            mem_fast.stats(),
            mem_ref.stats(),
            "device statistics diverged for n = {}",
            n
        );
    });
}

#[test]
fn baseline_column_steady_state_jump_is_byte_identical() {
    // A geometry with small memory rows puts every element of a
    // row-major column in its own row of one bank, so the baseline
    // column phase is a train of long same-bank runs that reach their
    // steady state and jump. The jumping Fast path must equal the
    // scalar Reference path run to completion, and also when
    // `ResumablePhase::step_until` slices the phase at random horizons.
    par_check!(cases: 12, |rng| {
        let n = 256usize << rng.gen_range(0u32..2); // 256, 512
        let row_bytes = 256usize << rng.gen_range(0u32..4); // 256..=2048
        // Fewer rows per bank split each column into bank stretches;
        // more banks keep the whole matrix on the device.
        let split = rng.gen_range(0u32..3);
        let geom = Geometry {
            vaults: 1 << rng.gen_range(0u32..2),
            layers: 1 << rng.gen_range(0u32..2),
            banks_per_layer: 1 << split,
            rows_per_bank: (n * n * 8 / row_bytes) >> split,
            row_bytes,
        };
        let timing = TimingParams::default();
        let cfg = DriverConfig {
            ps_per_byte: [3.9, 31.25, 125.0][rng.gen_range(0usize..3)],
            window_bytes: 1u64 << rng.gen_range(10u32..19),
            write_delay: Picos::ZERO,
            latency_probe_bytes: if rng.gen_bool() {
                rng.gen_range(1u64..(n * n * 8) as u64)
            } else {
                0
            },
        };
        let start = Picos(rng.gen_range(0u64..1 << 40));
        let p = LayoutParams::for_device(n, &geom, &timing);
        let l = RowMajor::new(&p);

        let (fast, reference, mem_fast, mem_ref) = phase_both_paths(
            geom,
            timing,
            &cfg,
            start,
            (
                &mut col_phase_stream(&l, Direction::Read, 1),
                &mut col_phase_stream(&l, Direction::Read, 1),
            ),
            l.map_kind(),
            None,
        );
        // The shape really is the same-bank class: a column's first
        // stretch covers hundreds of beats.
        let (_, _, fit) = mem_fast
            .address_map(l.map_kind())
            .stride_run_location(0, (n * 8) as u64, n as u32)
            .expect("a column strides rows of one bank");
        prop_assert!(fit as usize >= n / 4, "stretch of {fit} beats");
        prop_assert!(
            fast == reference,
            "reports diverged for n = {n}:\n  fast:      {fast:?}\n  reference: {reference:?}"
        );
        prop_assert_eq!(mem_fast.stats(), mem_ref.stats());

        let mut mem = MemorySystem::new(geom, timing);
        let mut phase = ResumablePhase::new(
            &mem,
            &cfg,
            Box::new(col_phase_stream(&l, Direction::Read, 1)),
            l.map_kind(),
            None,
            start,
        )
        .expect("resumable phase");
        while let Some(next) = phase.peek() {
            let horizon = match rng.gen_range(0usize..8) {
                0 => Picos::MAX,
                1 => Picos::ZERO,
                _ => {
                    let reach = 1u64 << rng.gen_range(10u32..24);
                    next.arrive + Picos(rng.gen_range(0..reach))
                }
            };
            phase.step_until(&mut mem, horizon).expect("step");
        }
        prop_assert_eq!(phase.finish(&mut mem).expect("finish"), reference);
        prop_assert_eq!(mem.stats(), mem_ref.stats());
    });
}

#[test]
fn event_core_fallback_boundaries_are_byte_identical() {
    // The skip-ahead core's contention boundaries, each differentially
    // proven against the Reference pipeline: refresh windows (always on
    // here — the same-bank classifier declines, cross-bank spans stay
    // fused *through* them), TSV-saturation crossings (kernel rates
    // from far-memory-bound to far-kernel-bound, windows from a few
    // beats to effectively unbounded) and non-power-of-two geometries
    // (div/mod decode underneath the span classifier).
    par_check!(cases: 64, |rng| {
        let n = 1usize << rng.gen_range(4u32..8); // 16..=128
        let cfg = DriverConfig {
            // 0.5 ps/B: the kernel outruns the TSVs, every span is
            // memory-bound and crosses the saturation boundary.
            // 2000 ps/B: arrivals spread out, spans are conflict-free.
            ps_per_byte: [0.5, 3.9, 125.0, 2000.0][rng.gen_range(0usize..4)],
            window_bytes: 1u64 << rng.gen_range(3u32..22),
            write_delay: Picos::from_ns(rng.gen_range(0u64..500)),
            latency_probe_bytes: if rng.gen_bool() { (n * 4) as u64 } else { 0 },
        };
        let start = Picos(rng.gen_range(0u64..1 << 30));
        let timing = TimingParams::default().with_refresh();

        let (fast, reference, mem_fast, mem_ref) = match rng.gen_range(0usize..3) {
            // Grouped block-DDL column phase: whole-row cross-bank runs
            // fused through refresh windows.
            0 => {
                let geom = Geometry::default();
                let p = LayoutParams::for_device(n, &geom, &timing);
                let heights = p.valid_block_heights();
                let h = heights[rng.gen_range(0usize..heights.len())];
                let ddl = BlockDynamic::with_height(&p, h).expect("feasible height");
                let r = phase_both_paths(
                    geom,
                    timing,
                    &cfg,
                    start,
                    (
                        &mut col_phase_stream(&ddl, Direction::Read, ddl.w),
                        &mut col_phase_stream(&ddl, Direction::Read, ddl.w),
                    ),
                    ddl.map_kind(),
                    None,
                );
                r
            }
            // Baseline strided sweep on a non-power-of-two geometry
            // sized to hold the matrix: row-multiple strides fuse as
            // cross-bank spans, the rest hits the run-probe gate.
            1 => {
                let vaults = rng.gen_range(1usize..12);
                let layers = rng.gen_range(1usize..5);
                let banks = rng.gen_range(1usize..7);
                let row_bytes = 1usize << rng.gen_range(6u32..12);
                let need = (n * n * 8) as u64;
                let rows = (need.div_ceil((vaults * layers * banks * row_bytes) as u64) as usize)
                    .max(2);
                let geom = Geometry {
                    vaults,
                    layers,
                    banks_per_layer: banks,
                    rows_per_bank: rows,
                    row_bytes,
                };
                let p = LayoutParams::for_device(n, &geom, &timing);
                let l = RowMajor::new(&p);
                let r = phase_both_paths(
                    geom,
                    timing,
                    &cfg,
                    start,
                    (
                        &mut col_phase_stream(&l, Direction::Read, 1),
                        &mut col_phase_stream(&l, Direction::Read, 1),
                    ),
                    l.map_kind(),
                    None,
                );
                r
            }
            // Interleaved strided sweep with a write side: the event
            // driver must keep every beat scalar (writes need per-beat
            // attention) and still match exactly.
            _ => {
                let geom = Geometry::default();
                let p = LayoutParams::for_device(n, &geom, &timing);
                let l = RowMajor::interleaved(&p);
                let r = phase_both_paths(
                    geom,
                    timing,
                    &cfg,
                    start,
                    (
                        &mut col_phase_stream(&l, Direction::Read, 1),
                        &mut col_phase_stream(&l, Direction::Read, 1),
                    ),
                    l.map_kind(),
                    Some((
                        &mut row_phase_stream(&l, Direction::Write) as &mut dyn RequestSource,
                        &mut row_phase_stream(&l, Direction::Write) as &mut dyn RequestSource,
                        l.map_kind(),
                    )),
                );
                r
            }
        };
        prop_assert!(
            fast == reference,
            "reports diverged for n = {n}:\n  fast:      {fast:?}\n  reference: {reference:?}"
        );
        prop_assert_eq!(
            mem_fast.stats(),
            mem_ref.stats(),
            "device statistics diverged for n = {}",
            n
        );
    });
}

/// Runs one phase on a reference-path device from per-op streams — the
/// materialized traces, whose runs are single beats, so every burst is
/// pulled and served one at a time — and the same phase on a fast-path
/// device from the layout's run-granular streams, and checks the two
/// agree in report and device statistics.
#[allow(clippy::too_many_arguments)]
fn per_op_reference_matches(
    geom: Geometry,
    timing: TimingParams,
    cfg: &DriverConfig,
    start: Picos,
    reads: &mut dyn RequestSource,
    per_op_reads: AccessTrace,
    map: AddressMapKind,
    writes: Option<(&mut dyn RequestSource, AccessTrace)>,
) -> Result<(), String> {
    let mut fast = MemorySystem::new(geom, timing);
    let mut reference = MemorySystem::new(geom, timing);
    reference.set_service_path(ServicePath::Reference);
    let (writes, per_op_writes) = match writes {
        Some((w, t)) => (Some(w), Some(t)),
        None => (None, None),
    };
    let got = run_phase(&mut fast, cfg, reads, map, writes.map(|w| (w, map)), start)
        .map_err(|e| e.to_string())?;
    let mut per_op_write_stream = per_op_writes.as_ref().map(|t| t.stream());
    let want = run_phase(
        &mut reference,
        cfg,
        &mut per_op_reads.stream(),
        map,
        per_op_write_stream
            .as_mut()
            .map(|w| (w as &mut dyn RequestSource, map)),
        start,
    )
    .map_err(|e| e.to_string())?;
    prop_assert_eq!(got, want, "phase report");
    prop_assert_eq!(fast.stats(), reference.stats(), "device statistics");
    Ok(())
}

#[test]
fn per_op_reference_pipeline_matches_the_unified_stepper() {
    // The guarantee the historical per-op reference driver gave: the
    // Reference path, fed one burst at a time, is the oracle the fused
    // stepper must reproduce — refresh on or off, with and without a
    // write side, across the strided, block-DDL and tiled patterns.
    par_check!(cases: 48, |rng| {
        let n = 1usize << rng.gen_range(4u32..8); // 16..=128
        let cfg = DriverConfig {
            ps_per_byte: [0.5, 3.9, 31.25, 2000.0][rng.gen_range(0usize..4)],
            window_bytes: 1u64 << rng.gen_range(3u32..20),
            write_delay: Picos::from_ns(rng.gen_range(0u64..2000)),
            latency_probe_bytes: if rng.gen_bool() { (n * 8) as u64 } else { 0 },
        };
        let start = Picos(rng.gen_range(0u64..1 << 40));
        let timing = if rng.gen_bool() {
            TimingParams::default()
        } else {
            TimingParams::default().with_refresh()
        };
        let with_writes = rng.gen_bool();
        let geom = Geometry::default();
        let p = LayoutParams::for_device(n, &geom, &timing);
        match rng.gen_range(0usize..3) {
            0 => {
                let l = if rng.gen_bool() {
                    RowMajor::new(&p)
                } else {
                    RowMajor::interleaved(&p)
                };
                per_op_reference_matches(
                    geom,
                    timing,
                    &cfg,
                    start,
                    &mut col_phase_stream(&l, Direction::Read, 1),
                    col_phase_stream(&l, Direction::Read, 1).collect_trace(),
                    l.map_kind(),
                    with_writes.then_some((
                        &mut row_phase_stream(&l, Direction::Write) as &mut dyn RequestSource,
                        row_phase_stream(&l, Direction::Write).collect_trace(),
                    )),
                )?;
            }
            1 => {
                let heights = p.valid_block_heights();
                let h = heights[rng.gen_range(0usize..heights.len())];
                let ddl = BlockDynamic::with_height(&p, h).expect("feasible height");
                per_op_reference_matches(
                    geom,
                    timing,
                    &cfg,
                    start,
                    &mut col_phase_stream(&ddl, Direction::Read, ddl.w),
                    col_phase_stream(&ddl, Direction::Read, ddl.w).collect_trace(),
                    ddl.map_kind(),
                    with_writes.then_some((
                        &mut band_block_write_stream(&ddl) as &mut dyn RequestSource,
                        band_block_write_stream(&ddl).collect_trace(),
                    )),
                )?;
            }
            _ => {
                let t = Tiled::row_buffer_sized(&p).expect("tiled layout");
                per_op_reference_matches(
                    geom,
                    timing,
                    &cfg,
                    start,
                    &mut tile_sweep_stream(&t, Direction::Read),
                    tile_sweep_stream(&t, Direction::Read).collect_trace(),
                    t.map_kind(),
                    with_writes.then_some((
                        &mut tile_band_write_stream(&t) as &mut dyn RequestSource,
                        tile_band_write_stream(&t).collect_trace(),
                    )),
                )?;
            }
        }
    });
}

#[test]
fn per_burst_outcome_sequences_match_on_random_geometries() {
    // Below the driver: every single service_burst outcome — including
    // multi-fragment bursts, arbitrary arrival times and the error
    // cases — must equal the reference path's, over random geometries
    // (power-of-two and not) and every address map kind.
    par_check!(cases: 96, |rng| {
        let g = random_geom(rng);
        let timing = if rng.gen_bool() {
            TimingParams::default()
        } else {
            TimingParams::default().with_refresh()
        };
        let kind = AddressMapKind::ALL[rng.gen_range(0usize..3)];
        let mut fast = MemorySystem::new(g, timing);
        let mut reference = MemorySystem::new(g, timing);
        reference.set_service_path(ServicePath::Reference);
        let cap = g.capacity_bytes();
        let row = g.row_bytes as u64;
        for i in 0..64u64 {
            let addr = match rng.gen_range(0usize..4) {
                // Anywhere, typically a single-fragment burst.
                0 | 1 => rng.gen_range(0u64..cap),
                // Near a row boundary, typically multi-fragment.
                2 => (rng.gen_range(0u64..cap / row) * row).saturating_sub(rng.gen_range(1u64..64)),
                // Near the device end: exercises the range check.
                _ => cap - rng.gen_range(1u64..(4 * row).min(cap)),
            };
            let bytes = match rng.gen_range(0usize..4) {
                0 => rng.gen_range(1u64..64) as u32,
                1 => rng.gen_range(1u64..2 * row) as u32,
                2 => rng.gen_range(1u64..4 * row) as u32,
                _ => 0, // zero-length: BadRequest on both paths
            };
            let dir = if rng.gen_bool() {
                Direction::Read
            } else {
                Direction::Write
            };
            let at = Picos(rng.gen_range(0u64..1 << 40));
            let op = TraceOp { addr, bytes, dir };
            let a = fast.service_burst(kind, op, at);
            let b = reference.service_burst(kind, op, at);
            prop_assert_eq!(
                a,
                b,
                "op {} diverged: {:?} {:?}+{} over {:?} ({:?})",
                i,
                dir,
                addr,
                bytes,
                g,
                kind
            );
        }
        prop_assert_eq!(fast.stats(), reference.stats(), "stats over {:?}", g);
    });
}

#[test]
fn whole_system_results_are_path_independent() {
    // At the very top of the stack: Table-1/Table-2 style results from
    // `fft2d::System` must not depend on the configured service path.
    use fft2d::{Architecture, System, SystemConfig};
    let fast = System::new(SystemConfig::default());
    let reference = System::new(SystemConfig {
        service_path: ServicePath::Reference,
        ..SystemConfig::default()
    });
    for arch in Architecture::ALL {
        let n = 128;
        let a = fast.column_phase(arch, n).expect("fast column phase");
        let b = reference
            .column_phase(arch, n)
            .expect("reference column phase");
        assert_eq!(a, b, "{arch:?} column phase diverged");
        let a = fast.run_app(arch, n).expect("fast app");
        let b = reference.run_app(arch, n).expect("reference app");
        assert_eq!(a, b, "{arch:?} app diverged");
    }
}

/// The kernel rate of `lanes` 8-byte lanes at 500 MHz, in ps per byte.
fn lane_rate(lanes: usize) -> f64 {
    1e6 / (lanes as f64 * 8.0 * 500.0)
}

/// Every controller's `Debug` state, in vault order.
fn controller_states(mem: &MemorySystem) -> Vec<String> {
    (0..mem.geometry().vaults)
        .map(|v| format!("{:?}", mem.controller(v)))
        .collect()
}

#[test]
fn row_major_column_trains_are_byte_identical() {
    // The row-major column sweep is a train of runs: column j + 1 is
    // column j moved one element along the same memory rows, so the
    // Fast path serves a few columns and jumps the train's steady state
    // — on the vault-interleaved map every column hops vaults each
    // beat, on the chunked map it stays in one bank. It must equal the
    // scalar Reference path in the report, the statistics and every
    // controller's state. The phase driver's bytes-issued-equal-bytes-
    // served check (a debug assertion in `run_phase`) runs on every
    // jumped phase here too.
    let geom = Geometry::default();
    let timing = TimingParams::default();
    let mut cases = Vec::new();
    for n in [64usize, 256, 1024, 2048] {
        for interleaved in [false, true] {
            for lanes in [4usize, 8, 16] {
                cases.push((n, interleaved, lanes));
            }
        }
    }
    // The probe lands in the first column or deep inside the train.
    let check = |&(n, interleaved, lanes): &(usize, bool, usize)| {
        let probe = if lanes == 8 { n * n * 5 } else { n * 8 };
        let cfg = DriverConfig {
            ps_per_byte: lane_rate(lanes),
            window_bytes: 256 * 1024,
            write_delay: Picos::ZERO,
            latency_probe_bytes: probe as u64,
        };
        let p = LayoutParams::for_device(n, &geom, &timing);
        let l = if interleaved {
            RowMajor::interleaved(&p)
        } else {
            RowMajor::new(&p)
        };
        let (fast, reference, mem_fast, mem_ref) = phase_both_paths(
            geom,
            timing,
            &cfg,
            Picos::ZERO,
            (
                &mut col_phase_stream(&l, Direction::Read, 1),
                &mut col_phase_stream(&l, Direction::Read, 1),
            ),
            l.map_kind(),
            None,
        );
        let case = format!("n = {n}, interleaved = {interleaved}, lanes = {lanes}");
        assert_eq!(fast, reference, "{case}");
        assert_eq!(fast.read_bytes, (n * n * 8) as u64, "{case}");
        assert_eq!(mem_fast.stats(), mem_ref.stats(), "{case}");
        assert_eq!(
            controller_states(&mem_fast),
            controller_states(&mem_ref),
            "{case}"
        );
    };
    // Two workers split the grid: the Reference legs at N = 2048 are
    // millions of scalar beats each.
    std::thread::scope(|s| {
        let (a, b) = cases.split_at(cases.len() / 2);
        let worker = s.spawn(|| a.iter().for_each(check));
        b.iter().for_each(check);
        worker.join().expect("worker");
    });
}

#[test]
fn row_major_column_trains_resume_at_run_boundaries_and_horizons() {
    // `ResumablePhase::step_until` cuts a train wherever its horizon
    // falls. Cut exactly at the grant of each of the first 8 run
    // boundaries (the first beat of column r), the served prefix must
    // leave every controller as the Reference pipeline leaves it after
    // as many beats, and resuming to the end must give the Reference
    // report; the same at random horizons.
    let geom = Geometry::default();
    let timing = TimingParams::default();
    let n = 256;
    let p = LayoutParams::for_device(n, &geom, &timing);
    for l in [RowMajor::new(&p), RowMajor::interleaved(&p)] {
        let cfg = DriverConfig {
            ps_per_byte: lane_rate(8),
            window_bytes: 16 * 1024,
            write_delay: Picos::ZERO,
            latency_probe_bytes: 0,
        };
        let open = |mem: &MemorySystem| {
            ResumablePhase::new(
                mem,
                &cfg,
                Box::new(col_phase_stream(&l, Direction::Read, 1)),
                l.map_kind(),
                None,
                Picos::ZERO,
            )
            .expect("resumable phase")
        };
        let reference_mem = || {
            let mut m = MemorySystem::new(geom, timing);
            m.set_service_path(ServicePath::Reference);
            m
        };
        // The Reference pipeline beat by beat: each beat's grant, and
        // the whole report.
        let mut mem_ref = reference_mem();
        let mut phase = open(&mem_ref);
        let mut grants = Vec::new();
        while let Some(next) = phase.peek() {
            let vault = mem_ref.vault_of(l.map_kind(), next.op.addr).unwrap();
            grants.push(next.arrive.max(mem_ref.controller(vault).tsv_free_at()));
            phase.step(&mut mem_ref).unwrap();
        }
        let reference = phase.finish(&mut mem_ref).unwrap();
        assert_eq!(grants.len(), n * n);

        // The Reference state after the first `beats` beats.
        let reference_after = |beats: u64| {
            let mut mem = reference_mem();
            let mut phase = open(&mem);
            for _ in 0..beats {
                phase.step(&mut mem).unwrap();
            }
            controller_states(&mem)
        };
        for r in 1..=8 {
            let mut mem = MemorySystem::new(geom, timing);
            let mut phase = open(&mem);
            phase.step_until(&mut mem, grants[r * n]).unwrap();
            let served = mem.stats().requests;
            assert!(served <= (r * n) as u64, "run {r}: served {served} beats");
            assert_eq!(
                controller_states(&mem),
                reference_after(served),
                "{:?} cut at run {r}",
                l.map_kind()
            );
            while phase.step_until(&mut mem, Picos::MAX).unwrap().is_some() {}
            assert_eq!(phase.finish(&mut mem).unwrap(), reference);
            assert_eq!(mem.stats(), mem_ref.stats());
        }
        sim_util::prop_check!(cases: 8, |rng| {
            let mut mem = MemorySystem::new(geom, timing);
            let mut phase = open(&mem);
            while let Some(next) = phase.peek() {
                let horizon = match rng.gen_range(0usize..8) {
                    0 => Picos::MAX,
                    1 => Picos::ZERO,
                    2 => grants[rng.gen_range(0..grants.len())],
                    _ => {
                        let reach = 1u64 << rng.gen_range(10u32..24);
                        next.arrive + Picos(rng.gen_range(0..reach))
                    }
                };
                phase.step_until(&mut mem, horizon).unwrap();
            }
            prop_assert_eq!(phase.finish(&mut mem).unwrap(), reference);
            prop_assert_eq!(controller_states(&mem), controller_states(&mem_ref));
        });
    }
}
