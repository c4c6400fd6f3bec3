//! Cross-crate consistency: components developed in different crates
//! must agree where their semantics overlap.

use fft_kernel::{digit_reversal, fft, Cplx, DppUnit, FftDirection, KernelConfig, StreamingFft};
use layout::{
    band_block_write_stream, col_phase_stream, row_phase_stream, BlockDynamic, LayoutParams,
    MatrixLayout, RowMajor,
};
use mem3d::{Direction, Geometry, MemorySystem, Picos, RequestSource, TimingParams};
use permute::{Permutation, StreamingPermuter};
use sim_util::{prop_assert, prop_assert_eq, prop_assume, prop_check};

fn params(n: usize) -> LayoutParams {
    LayoutParams::for_device(n, &Geometry::default(), &TimingParams::default())
}

#[test]
fn dpp_unit_agrees_with_streaming_permuter() {
    let perm = Permutation::bit_reversal(32).unwrap();
    let data: Vec<Cplx> = (0..32).map(|i| Cplx::new(i as f64, -(i as f64))).collect();
    let mut dpp = DppUnit::new(perm.clone(), 8).unwrap();
    let mut sp = StreamingPermuter::new(perm, 8).unwrap();
    let mut a = Vec::new();
    let mut b = Vec::new();
    for chunk in data.chunks(8) {
        a.extend(dpp.push(chunk).unwrap());
        b.extend(sp.push(chunk).unwrap());
    }
    a.extend(dpp.flush());
    b.extend(sp.flush());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.re, y.re);
        assert_eq!(x.im, y.im);
    }
}

#[test]
fn kernel_unscrambler_is_the_digit_reversal() {
    // The kernel's final permutation must be the radix's digit reversal;
    // otherwise outputs would not be in natural order.
    let n = 64;
    let rev2 = digit_reversal(n, 2).unwrap();
    let rev4 = digit_reversal(n, 4).unwrap();
    assert!(rev2.then(&rev2).is_identity());
    assert!(rev4.then(&rev4).is_identity());
    // And the kernel using them matches the reference end to end.
    let x: Vec<Cplx> = (0..n)
        .map(|i| Cplx::new((i % 5) as f64, (i % 3) as f64))
        .collect();
    let mut k = StreamingFft::new(KernelConfig::forward(n, 8)).unwrap();
    let got = k.transform(&x).unwrap();
    let expect = fft(&x, FftDirection::Forward).unwrap();
    assert!(fft_kernel::max_abs_diff(&got, &expect) < 1e-9);
}

#[test]
fn every_phase_trace_moves_each_byte_exactly_once() {
    let n = 256;
    let p = params(n);
    let ddl = BlockDynamic::with_height(&p, 32).unwrap();
    let rm = RowMajor::new(&p);
    let matrix_bytes = (n * n * 8) as u64;
    for trace in [
        row_phase_stream(&rm, Direction::Read).collect_trace(),
        col_phase_stream(&rm, Direction::Read, 1).collect_trace(),
        col_phase_stream(&ddl, Direction::Read, ddl.w).collect_trace(),
        band_block_write_stream(&ddl).collect_trace(),
    ] {
        assert_eq!(trace.total_bytes(), matrix_bytes);
    }
}

#[test]
fn replaying_layout_traces_never_leaves_the_device() {
    // Every trace generated from a layout must decode successfully on
    // the geometry the layout was derived from.
    let n = 256;
    let p = params(n);
    let ddl = BlockDynamic::with_height(&p, 64).unwrap();
    let mut mem = MemorySystem::new(Geometry::default(), TimingParams::default());
    let trace = col_phase_stream(&ddl, Direction::Read, ddl.w).collect_trace();
    let stats = trace.replay(&mut mem, ddl.map_kind(), None).unwrap();
    assert_eq!(stats.stats.bytes_read, (n * n * 8) as u64);
}

#[test]
fn paced_replay_never_beats_open_loop() {
    let n = 256;
    let p = params(n);
    let ddl = BlockDynamic::with_height(&p, 64).unwrap();
    let trace = col_phase_stream(&ddl, Direction::Read, ddl.w).collect_trace();
    let mut open = MemorySystem::new(Geometry::default(), TimingParams::default());
    let open_stats = trace.replay(&mut open, ddl.map_kind(), None).unwrap();
    let mut paced = MemorySystem::new(Geometry::default(), TimingParams::default());
    let paced_stats = trace
        .replay(&mut paced, ddl.map_kind(), Some(Picos::from_ns(300)))
        .unwrap();
    assert!(open_stats.bandwidth_gbps() >= paced_stats.bandwidth_gbps());
}

#[test]
fn block_layout_addresses_are_bijective() {
    prop_check!(cases: 16, |rng| {
        let n = 128;
        let p = params(n);
        let h = 1usize << rng.gen_range(3usize..8);
        prop_assume!(p.valid_block_heights().contains(&h));
        let ddl = BlockDynamic::with_height(&p, h).unwrap();
        let mut seen = std::collections::HashSet::new();
        for r in 0..n {
            for c in 0..n {
                prop_assert!(seen.insert(ddl.addr(r, c)), "h = {h}: ({r}, {c}) repeats");
            }
        }
        prop_assert_eq!(seen.len(), n * n, "h = {}", h);
        prop_assert!(seen.iter().all(|a| *a < (n * n * 8) as u64), "h = {h}");
    });
}

#[test]
fn streamed_kernel_is_deterministic() {
    prop_check!(cases: 16, |rng| {
        let n = 64;
        let x: Vec<Cplx> = (0..n)
            .map(|_| Cplx::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect();
        let mut k1 = StreamingFft::new(KernelConfig::forward(n, 4)).unwrap();
        let mut k2 = StreamingFft::new(KernelConfig::forward(n, 4)).unwrap();
        let a = k1.transform(&x).unwrap();
        let b = k2.transform(&x).unwrap();
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    });
}
