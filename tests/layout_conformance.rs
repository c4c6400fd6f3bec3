//! Layout-family conformance: every family the registry enumerates
//! must honor the [`layout::LayoutFamily`] contract, and the
//! virtualized streams must be bit-identical to the free-function
//! streams the concrete layouts shipped with before the trait existed.
//!
//! Five properties, checked across the whole registry:
//!
//! 1. **Coverage** — each phase stream (row, column, write-back)
//!    touches every element slot of the `N × N` arena exactly once,
//!    never reaches outside it, and moves exactly the bytes its
//!    `total_bytes` promised.
//! 2. **Run fidelity** — expanding every [`mem3d::TraceRun`] a stream's
//!    `next_run` hands out beat by beat reproduces the exact op
//!    sequence `next()` would have produced: the fast-path hook may
//!    group the stream, never reorder or merge it.
//! 3. **Trace thinness** — the collected `*_trace` forms are the
//!    streams, materialized: same ops, same order.
//! 4. **Phase bit-identity** — for the four families that predate the
//!    trait (row-major, col-major, tiled, block-DDL), a `run_phase`
//!    fed by the family's streams produces a [`fft2d::PhaseReport`]
//!    bit-identical to one fed by the original free-function streams.
//! 5. **Reference walk** — the layout layer's one scalar oracle: every
//!    stream's ops equal a per-element walk written here as plain
//!    [`MatrixLayout::addr`] loops, coalesced by the controller's
//!    element merge rule. The library generates streams a progression
//!    at a time; this walk never does.
//! 6. **Run boundaries** — where `next_run` cuts a stream into runs is
//!    pinned by digest: the expansion checks above cannot see a run
//!    split in two or two runs fused, but the memory system's span
//!    classes and trains can.

use fft2d::{run_phase, DriverConfig, PhaseReport};
use layout::{
    band_block_write_stream, col_phase_stream, enumerate_candidates, optimal_h, row_phase_stream,
    tile_band_write_stream, tile_sweep_stream, BlockDynamic, ColMajor, FamilyId, LayoutFamily,
    LayoutParams, MatrixLayout, RowMajor, Tiled, MAX_BURST_BYTES,
};
use mem3d::{
    Direction, Geometry, MemorySystem, Picos, RequestSource, TimingParams, TraceOp, TraceRun,
};
use sim_util::hash::StableHasher;

fn params(n: usize) -> LayoutParams {
    LayoutParams::for_device(n, &Geometry::default(), &TimingParams::default())
}

fn driver() -> DriverConfig {
    DriverConfig {
        ps_per_byte: 31.25,
        window_bytes: 256 * 1024,
        write_delay: Picos::from_ns(1000),
        latency_probe_bytes: 0,
    }
}

/// Drains `src` and checks it covers every `elem`-sized slot of the
/// `[0, n²·elem)` arena exactly once, in bounds, for exactly the bytes
/// it promised up front.
fn assert_covers(src: &mut dyn RequestSource, n: usize, elem: usize, what: &str) {
    let arena = (n * n * elem) as u64;
    assert_eq!(src.total_bytes(), arena, "{what}: total_bytes");
    let mut seen = vec![false; n * n];
    let mut moved = 0u64;
    for op in &mut *src {
        assert!(
            (op.bytes as usize).is_multiple_of(elem),
            "{what}: ragged op {op:?}"
        );
        assert!(
            op.addr.is_multiple_of(elem as u64),
            "{what}: misaligned op at {:#x}",
            op.addr
        );
        assert!(
            op.addr + op.bytes as u64 <= arena,
            "{what}: op at {:#x}+{} leaves the arena",
            op.addr,
            op.bytes
        );
        for slot in 0..(op.bytes as usize / elem) {
            let idx = op.addr as usize / elem + slot;
            assert!(!seen[idx], "{what}: slot {idx} touched twice");
            seen[idx] = true;
        }
        moved += op.bytes as u64;
    }
    assert_eq!(moved, arena, "{what}: bytes moved");
    // Every slot marked: moved == arena and no slot twice imply it,
    // but say so explicitly for the failure message.
    assert!(seen.iter().all(|&s| s), "{what}: uncovered slots");
}

/// Expands a stream run by run into the flat op sequence.
fn expand_runs(src: &mut dyn RequestSource) -> Vec<TraceOp> {
    let mut ops = Vec::new();
    while let Some(run) = src.next_run() {
        let TraceRun { op, beats, stride } = run;
        for beat in 0..beats as u64 {
            ops.push(TraceOp {
                addr: op.addr + beat * stride,
                ..op
            });
        }
    }
    ops
}

#[test]
fn every_family_stream_covers_the_arena_exactly_once() {
    for n in [64, 256] {
        let p = params(n);
        for spec in enumerate_candidates(&p) {
            let fam = spec.build(&p).expect("registry candidates build");
            let elem = p.elem_bytes;
            for dir in [Direction::Read, Direction::Write] {
                assert_covers(&mut *fam.row_stream(dir), n, elem, &format!("{spec:?} row"));
                assert_covers(&mut *fam.col_stream(dir), n, elem, &format!("{spec:?} col"));
            }
            assert_covers(
                &mut *fam.write_stream(),
                n,
                elem,
                &format!("{spec:?} write"),
            );
        }
    }
}

#[test]
fn run_expansion_reproduces_the_scalar_op_sequence() {
    let p = params(256);
    for spec in enumerate_candidates(&p) {
        let fam = spec.build(&p).expect("registry candidates build");
        let scalar: Vec<TraceOp> = fam.col_stream(Direction::Read).collect();
        let fused = expand_runs(&mut *fam.col_stream(Direction::Read));
        assert_eq!(
            scalar, fused,
            "{spec:?}: next_run reordered the column stream"
        );
        let scalar: Vec<TraceOp> = fam.write_stream().collect();
        let fused = expand_runs(&mut *fam.write_stream());
        assert_eq!(
            scalar, fused,
            "{spec:?}: next_run reordered the write stream"
        );
    }
}

/// One column phase through the closed-loop driver.
fn phase_of(reads: &mut dyn RequestSource, map: mem3d::AddressMapKind) -> PhaseReport {
    let mut mem = MemorySystem::new(Geometry::default(), TimingParams::default());
    run_phase(&mut mem, &driver(), reads, map, None, Picos::ZERO).expect("phase")
}

#[test]
fn family_column_phases_match_the_legacy_streams_bit_for_bit() {
    let n = 256;
    let p = params(n);

    // Row-major, both maps: the legacy stream is a group-1 column walk.
    for (param, legacy) in [(0, RowMajor::new(&p)), (1, RowMajor::interleaved(&p))] {
        let fam = FamilyId::RowMajor.build(&p, param).expect("row-major");
        let want = phase_of(
            &mut col_phase_stream(&legacy, Direction::Read, 1),
            legacy.map_kind(),
        );
        let got = phase_of(&mut *fam.col_stream(Direction::Read), fam.map_kind());
        assert_eq!(got, want, "row-major param {param}");
    }

    let legacy = ColMajor::new(&p);
    let fam = FamilyId::ColMajor.build(&p, 0).expect("col-major");
    let want = phase_of(
        &mut col_phase_stream(&legacy, Direction::Read, 1),
        legacy.map_kind(),
    );
    let got = phase_of(&mut *fam.col_stream(Direction::Read), fam.map_kind());
    assert_eq!(got, want, "col-major");

    let tr = Tiled::row_buffer_rows(&p);
    let legacy = Tiled::new(&p, tr.min(n), (p.s / tr).min(n)).expect("tiled");
    let fam = FamilyId::Tiled.build(&p, tr).expect("tiled family");
    let want = phase_of(
        &mut tile_sweep_stream(&legacy, Direction::Read),
        legacy.map_kind(),
    );
    let got = phase_of(&mut *fam.col_stream(Direction::Read), fam.map_kind());
    assert_eq!(got, want, "tiled");

    let h = optimal_h(&p);
    let legacy = BlockDynamic::with_height(&p, h).expect("ddl");
    let fam = FamilyId::BlockDynamic.build(&p, h).expect("ddl family");
    let want = phase_of(
        &mut col_phase_stream(&legacy, Direction::Read, legacy.w),
        legacy.map_kind(),
    );
    let got = phase_of(&mut *fam.col_stream(Direction::Read), fam.map_kind());
    assert_eq!(got, want, "block-ddl");
}

#[test]
fn family_write_back_matches_the_legacy_stream_bit_for_bit() {
    // The row phase of the optimized architecture: interleaved row-major
    // reads, block write-back. The family-built write side must leave
    // the driver in exactly the state the legacy stream did.
    let n = 256;
    let p = params(n);
    let input = RowMajor::interleaved(&p);
    let h = optimal_h(&p);
    let legacy = BlockDynamic::with_height(&p, h).expect("ddl");
    let fam = FamilyId::BlockDynamic.build(&p, h).expect("ddl family");

    let run = |writes: &mut dyn RequestSource, map: mem3d::AddressMapKind| {
        let mut mem = MemorySystem::new(Geometry::default(), TimingParams::default());
        run_phase(
            &mut mem,
            &driver(),
            &mut row_phase_stream(&input, Direction::Read),
            input.map_kind(),
            Some((writes, map)),
            Picos::ZERO,
        )
        .expect("row phase")
    };
    let want = run(&mut band_block_write_stream(&legacy), legacy.map_kind());
    let got = run(&mut *fam.write_stream(), fam.map_kind());
    assert_eq!(got, want, "block-ddl write-back");
}

/// The element visit order of one phase walk.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// Every row left to right, top to bottom.
    Rows,
    /// Columns in groups of `group`; per group, bands of
    /// `column_run` rows, each band's columns top to bottom.
    Columns { group: usize },
    /// Bands of `h` rows; per band, `w`-column blocks left to right,
    /// each block column by column, top to bottom.
    Blocks { w: usize, h: usize },
    /// `tr × tc` tiles, each row by row; tiles down each tile column
    /// (`bands_first = false`) or across each tile band.
    Tiles {
        tr: usize,
        tc: usize,
        bands_first: bool,
    },
}

/// Element addresses in walk order: plain `addr` loops, one per element.
fn reference_addrs(l: &dyn MatrixLayout, order: Order) -> Vec<u64> {
    let n = l.n();
    let mut out = Vec::with_capacity(n * n);
    match order {
        Order::Rows => {
            for r in 0..n {
                for c in 0..n {
                    out.push(l.addr(r, c));
                }
            }
        }
        Order::Columns { group } => {
            let run = l.column_run().min(n);
            for g in (0..n).step_by(group) {
                for band in (0..n).step_by(run) {
                    for c in g..g + group {
                        for r in band..(band + run).min(n) {
                            out.push(l.addr(r, c));
                        }
                    }
                }
            }
        }
        Order::Blocks { w, h } => {
            for band in (0..n).step_by(h) {
                for g in (0..n).step_by(w) {
                    for c in g..g + w {
                        for r in band..band + h {
                            out.push(l.addr(r, c));
                        }
                    }
                }
            }
        }
        Order::Tiles {
            tr,
            tc,
            bands_first,
        } => {
            let tiles: Vec<(usize, usize)> = if bands_first {
                (0..n / tr)
                    .flat_map(|i| (0..n / tc).map(move |j| (i, j)))
                    .collect()
            } else {
                (0..n / tc)
                    .flat_map(|j| (0..n / tr).map(move |i| (i, j)))
                    .collect()
            };
            for (i, j) in tiles {
                for r in i * tr..(i + 1) * tr {
                    for c in j * tc..(j + 1) * tc {
                        out.push(l.addr(r, c));
                    }
                }
            }
        }
    }
    out
}

/// The controller's element merge rule: an access extends the current
/// burst when it starts where the burst ends and the burst stays within
/// `MAX_BURST_BYTES`; anything else closes the burst.
fn coalesce(addrs: &[u64], elem: u32, dir: Direction) -> Vec<TraceOp> {
    let mut ops = Vec::new();
    let (mut start, mut len) = (0u64, 0u32);
    for &addr in addrs {
        if len > 0 && addr == start + len as u64 && len + elem <= MAX_BURST_BYTES {
            len += elem;
        } else {
            if len > 0 {
                ops.push(TraceOp {
                    addr: start,
                    bytes: len,
                    dir,
                });
            }
            start = addr;
            len = elem;
        }
    }
    if len > 0 {
        ops.push(TraceOp {
            addr: start,
            bytes: len,
            dir,
        });
    }
    ops
}

/// Asserts `make()`'s `next()` sequence equals the reference walk of
/// `order` over `l`, and that its `next_run()` expansion does too.
fn assert_matches_reference<'a>(
    l: &dyn MatrixLayout,
    order: Order,
    dir: Direction,
    make: impl Fn() -> Box<dyn RequestSource + 'a>,
    what: &str,
) {
    let want = coalesce(&reference_addrs(l, order), l.elem_bytes() as u32, dir);
    let ops: Vec<TraceOp> = make().collect();
    assert_eq!(ops.len(), want.len(), "{what}: op count");
    if let Some(i) = (0..ops.len()).find(|&i| ops[i] != want[i]) {
        panic!("{what}: op {i} is {:?}, reference {:?}", ops[i], want[i]);
    }
    assert!(
        expand_runs(&mut *make()) == want,
        "{what}: next_run expansion"
    );
}

/// Device parameters at 8- and 4-byte elements (the row buffer holds
/// twice as many of the latter).
fn params_both(n: usize) -> [LayoutParams; 2] {
    let p8 = params(n);
    let p4 = LayoutParams {
        elem_bytes: 4,
        s: p8.s * 2,
        ..p8
    };
    [p8, p4]
}

/// The column and write-back walk orders a family's streams follow.
fn family_orders(fam: &dyn LayoutFamily, p: &LayoutParams) -> (Order, Order) {
    match fam.id() {
        FamilyId::Tiled => {
            let (tr, tc) = (fam.param().min(p.n), (p.s / fam.param()).min(p.n));
            let tiles = |bands_first| Order::Tiles {
                tr,
                tc,
                bands_first,
            };
            (tiles(false), tiles(true))
        }
        FamilyId::RowMajor | FamilyId::ColMajor => (
            Order::Columns {
                group: fam.col_group(),
            },
            Order::Rows,
        ),
        FamilyId::BlockDynamic | FamilyId::BurstInterleaved | FamilyId::Irredundant => (
            Order::Columns {
                group: fam.col_group(),
            },
            Order::Blocks {
                w: fam.col_group(),
                h: fam.reorg_rows(),
            },
        ),
    }
}

/// Checks a family's row (per `dirs`), column and write-back streams,
/// plus — when `ungrouped` — the group-of-one column walk, whose
/// per-element and per-band regimes the grouped family streams skip.
fn check_family(fam: &dyn LayoutFamily, p: &LayoutParams, dirs: &[Direction], ungrouped: bool) {
    let l = fam.layout();
    let tag = format!(
        "{}({}) n={} e={}",
        fam.name(),
        fam.param(),
        p.n,
        p.elem_bytes
    );
    let (col, write) = family_orders(fam, p);
    for &dir in dirs {
        assert_matches_reference(
            l,
            Order::Rows,
            dir,
            || fam.row_stream(dir),
            &format!("{tag} row {dir:?}"),
        );
        assert_matches_reference(
            l,
            col,
            dir,
            || fam.col_stream(dir),
            &format!("{tag} col {dir:?}"),
        );
    }
    assert_matches_reference(
        l,
        write,
        Direction::Write,
        || fam.write_stream(),
        &format!("{tag} write"),
    );
    if ungrouped {
        check_column_groups(l, &[Direction::Read], &tag);
    }
}

/// The public column walk at groups of one, four and `n` over `l`: the
/// per-element, per-band and per-column regimes the family streams'
/// own groups skip, and on row-stride layouts a group's row of
/// one-element segments, coalesced across columns up to the cap.
fn check_column_groups(l: &dyn MatrixLayout, dirs: &[Direction], tag: &str) {
    for group in [1, 4, l.n()] {
        for &dir in dirs {
            assert_matches_reference(
                l,
                Order::Columns { group },
                dir,
                || Box::new(col_phase_stream(l, dir, group)),
                &format!("{tag} col group {group} {dir:?}"),
            );
        }
    }
}

/// The `run_app` input streams (row-major, both maps) at `p`.
fn check_inputs(p: &LayoutParams) {
    for input in [RowMajor::new(p), RowMajor::interleaved(p)] {
        assert_matches_reference(
            &input,
            Order::Rows,
            Direction::Read,
            || Box::new(row_phase_stream(&input, Direction::Read)),
            &format!("input {:?} n={} e={}", input.map_kind(), p.n, p.elem_bytes),
        );
    }
}

/// Every registered family at every candidate parameter, the inputs and
/// both tile streams over many tile shapes, at 8- and 4-byte elements.
fn check_registry(n: usize, dirs: &[Direction]) {
    for p in params_both(n) {
        // Every registered family at every candidate parameter.
        for spec in enumerate_candidates(&p) {
            let fam = spec.build(&p).expect("registry candidates build");
            check_family(fam.as_ref(), &p, dirs, true);
        }
        check_inputs(&p);
        for input in [RowMajor::new(&p), RowMajor::interleaved(&p)] {
            let tag = format!("input {:?} n={n} e={}", input.map_kind(), p.elem_bytes);
            check_column_groups(&input, &[Direction::Read, Direction::Write], &tag);
        }
        // Both tile streams over square, wide, tall and
        // row-buffer-mismatched tiles.
        for (tr, tc) in [(1, 1), (4, 4), (8, 32), (32, 8), (16, 64), (64, 2), (n, 1)] {
            let t = Tiled::new(&p, tr, tc).expect("tile divides n");
            let sweep = Order::Tiles {
                tr,
                tc,
                bands_first: false,
            };
            let what = format!("tiles {tr}x{tc} n={n} e={}", p.elem_bytes);
            assert_matches_reference(
                &t,
                sweep,
                Direction::Read,
                || Box::new(tile_sweep_stream(&t, Direction::Read)),
                &format!("{what} sweep"),
            );
            let band = Order::Tiles {
                tr,
                tc,
                bands_first: true,
            };
            assert_matches_reference(
                &t,
                band,
                Direction::Write,
                || Box::new(tile_band_write_stream(&t)),
                &format!("{what} band write"),
            );
        }
    }
}

#[test]
fn small_streams_match_the_per_element_reference_walk() {
    // The direction only labels the ops: both at the smallest size.
    check_registry(64, &[Direction::Read, Direction::Write]);
}

#[test]
fn registry_streams_match_the_per_element_reference_walk() {
    check_registry(256, &[Direction::Read]);
}

#[test]
fn paper_scale_streams_match_the_per_element_reference_walk() {
    // The walks `run_app` drives: the inputs, and each family's column
    // and write-back streams at its representative parameter.
    let p = params(1024);
    check_inputs(&p);
    for id in FamilyId::ALL {
        let fam = id.build(&p, id.default_param(&p)).expect("default builds");
        check_family(fam.as_ref(), &p, &[], false);
    }
}

/// Folds every run `src.next_run()` hands out, as
/// `(addr, bytes, dir, beats, stride)`, into `h`; returns how many.
fn hash_runs(src: &mut dyn RequestSource, h: &mut StableHasher) -> u64 {
    let mut runs = 0;
    while let Some(TraceRun { op, beats, stride }) = src.next_run() {
        h.write_u64(op.addr);
        h.write_u64(u64::from(op.bytes));
        h.write_u8(u8::from(op.dir == Direction::Write));
        h.write_u64(u64::from(beats));
        h.write_u64(stride);
        runs += 1;
    }
    runs
}

/// The run count and digest of the run sequences at `n`, both element
/// sizes: every registry family's row, column and write-back streams
/// (`every`), or the column and write-back streams `run_app` drives
/// (each family at its representative parameter), then both input
/// streams.
fn run_digest(n: usize, every: bool) -> (u64, u64) {
    let mut h = StableHasher::new();
    let mut runs = 0;
    for p in params_both(n) {
        let specs: Vec<_> = if every {
            enumerate_candidates(&p)
        } else {
            FamilyId::ALL
                .iter()
                .map(|&id| layout::FamilySpec {
                    id,
                    param: id.default_param(&p),
                })
                .collect()
        };
        for spec in specs {
            let fam = spec.build(&p).expect("registry candidates build");
            if every {
                for dir in [Direction::Read, Direction::Write] {
                    runs += hash_runs(&mut *fam.row_stream(dir), &mut h);
                    runs += hash_runs(&mut *fam.col_stream(dir), &mut h);
                }
            } else {
                runs += hash_runs(&mut *fam.col_stream(Direction::Read), &mut h);
            }
            runs += hash_runs(&mut *fam.write_stream(), &mut h);
        }
        for input in [RowMajor::new(&p), RowMajor::interleaved(&p)] {
            runs += hash_runs(&mut row_phase_stream(&input, Direction::Read), &mut h);
        }
    }
    (runs, h.finish())
}

#[test]
fn next_run_boundaries_match_the_burst_at_a_time_fold() {
    // Digests taken from the stream that folded its runs one burst at
    // a time, before streams were generated a progression at a time.
    for (n, every, want) in [
        (64, true, (320_716, 0xbea6_4590_ea40_fe27)),
        (256, true, (6_786_919, 0x1b6c_3f25_f15c_e796)),
        (2048, false, (8_417_785, 0xf0c2_eaee_6c54_ec97)),
    ] {
        assert_eq!(run_digest(n, every), want, "n = {n}");
    }
}
