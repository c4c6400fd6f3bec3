//! Edge cases and failure injection across the public API surface:
//! degenerate sizes, disabled/enabled refresh, invalid configurations
//! and architecture-independent invariants.

use fft2d::{Architecture, PlatformEnergy, System, SystemConfig};
use fft_kernel::{Cplx, KernelConfig, StreamingFft};
use mem3d::{Geometry, MemorySystem, Picos, TimingParams};

#[test]
fn tiny_matrices_still_work_end_to_end() {
    // 4x4: smaller than one DRAM row; the block layout degenerates to
    // sub-row blocks but everything must still be correct.
    let sys = System::default();
    let n = 4;
    let data: Vec<Cplx> = (0..16).map(|i| Cplx::new(i as f64, 0.0)).collect();
    let got = sys
        .functional_2dfft(Architecture::Optimized, n, &data)
        .unwrap();
    let expect = fft_kernel::fft_2d(&data, n, fft_kernel::FftDirection::Forward).unwrap();
    assert!(fft_kernel::max_abs_diff(&got, &expect) < 1e-10);
}

#[test]
fn refresh_enabled_system_still_reproduces_the_gap() {
    let cfg = SystemConfig {
        timing: TimingParams::default().with_refresh(),
        ..SystemConfig::default()
    };
    let sys = System::new(cfg);
    let base = sys.column_phase(Architecture::Baseline, 512).unwrap();
    let opt = sys.column_phase(Architecture::Optimized, 512).unwrap();
    // Refresh shaves a few percent off both; the 30x+ gap survives.
    assert!(base.throughput_gbps < 0.85);
    assert!(opt.throughput_gbps > 25.0);
    assert!(opt.throughput_gbps > 30.0 * base.throughput_gbps);
}

#[test]
fn invalid_problem_sizes_are_rejected_not_panicking() {
    let sys = System::default();
    // Non-power-of-two: kernel construction must fail cleanly.
    assert!(sys.column_phase(Architecture::Baseline, 500).is_err());
    assert!(sys.run_app(Architecture::Optimized, 300).is_err());
    assert!(sys
        .functional_2dfft(Architecture::Baseline, 100, &[])
        .is_err());
}

#[test]
fn memory_system_rejects_degenerate_devices() {
    let bad = Geometry {
        vaults: 0,
        ..Geometry::default()
    };
    assert!(MemorySystem::try_new(bad, TimingParams::default()).is_err());
    let bad_timing = TimingParams {
        t_in_row: Picos::ZERO,
        ..TimingParams::default()
    };
    assert!(MemorySystem::try_new(Geometry::default(), bad_timing).is_err());
}

#[test]
fn kernel_width_one_lane_is_valid_and_correct() {
    let mut k = StreamingFft::new(KernelConfig::forward(16, 1)).unwrap();
    let x: Vec<Cplx> = (0..16).map(|i| Cplx::new((i % 3) as f64, 0.5)).collect();
    let got = k.transform(&x).unwrap();
    let expect = fft_kernel::fft(&x, fft_kernel::FftDirection::Forward).unwrap();
    assert!(fft_kernel::max_abs_diff(&got, &expect) < 1e-10);
}

#[test]
fn energy_report_is_consistent_with_app_result() {
    let sys = System::default();
    let coeffs = PlatformEnergy::default();
    let app = sys.run_app(Architecture::Optimized, 256).unwrap();
    let bill = sys.price_app(&app, &coeffs);
    assert_eq!(bill.n, 256);
    assert_eq!(bill.duration, app.total);
    // The itemization must be internally consistent.
    let total = bill.memory.total_pj() + bill.fpga_dynamic_pj + bill.fpga_static_pj;
    assert!((bill.total_uj() - total / 1e6).abs() < 1e-12);
}

#[test]
fn batch_runs_work_for_every_architecture() {
    let sys = System::default();
    for arch in Architecture::ALL {
        let b = sys.run_batch(arch, 256, 2).unwrap();
        assert_eq!(b.frames, 2);
        assert!(b.sustained_gbps > 0.0, "{}", arch.name());
    }
}

#[test]
fn config_changes_propagate_to_results() {
    // Halving the TSV rate halves the baseline column throughput
    // (which is activation-bound, so it should NOT change) and caps the
    // optimized one (which is bandwidth/kernel-bound, so it should).
    let slow_tsv = TimingParams {
        tsv_ps_per_byte: Picos(400), // 2.5 GB/s per vault, 40 GB/s peak
        ..TimingParams::default()
    };
    let sys = System::new(SystemConfig {
        timing: slow_tsv,
        ..SystemConfig::default()
    });
    let base = sys.column_phase(Architecture::Baseline, 512).unwrap();
    let opt = sys.column_phase(Architecture::Optimized, 512).unwrap();
    assert!(
        (base.throughput_gbps - 0.8).abs() < 0.1,
        "still activation-bound"
    );
    assert!(
        opt.throughput_gbps < 32.0,
        "now memory-bound below the kernel ceiling"
    );
    assert!(opt.throughput_gbps > 15.0);
}
