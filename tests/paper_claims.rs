//! The paper's headline quantitative claims, asserted against the
//! simulator (shapes and bands, not the authors' absolute testbed
//! numbers — see EXPERIMENTS.md).

use fft2d::{improvement, Architecture, System};

/// Table 1, baseline row: ~1% of peak at 512, ~0.5% at 1024+ — the
/// column phase pays a full row activation per element once the matrix
/// row exceeds the row buffer.
#[test]
fn baseline_column_phase_utilization_band() {
    let sys = System::default();
    let r512 = sys.column_phase(Architecture::Baseline, 512).unwrap();
    assert!(
        (r512.utilization() - 0.01).abs() < 0.002,
        "512: got {:.4}",
        r512.utilization()
    );
    let r1024 = sys.column_phase(Architecture::Baseline, 1024).unwrap();
    assert!(
        (r1024.utilization() - 0.005).abs() < 0.001,
        "1024: got {:.4}",
        r1024.utilization()
    );
}

/// Table 1, baseline row, as an absolute oracle rather than a band:
/// every column element sits behind a row activation in one bank (two
/// elements per memory row at 512, one from 1024 up), so the column
/// phase runs at exactly one activation per `t_diff_row`. The simulated
/// duration must equal `activations × t_diff_row` to within one beat's
/// latency, which turns README's "0.80 / 0.40 / 0.40 GB/s (exact)" row
/// into a checked claim.
#[test]
fn baseline_column_phase_is_one_activation_per_t_diff_row() {
    let sys = System::default();
    let t = sys.config().timing;
    let beat = t.t_activate + t.t_column + t.tsv_ps_per_byte * 8;
    for (n, gbps) in [(512usize, "0.80"), (1024, "0.40"), (2048, "0.40")] {
        let r = sys.column_phase(Architecture::Baseline, n).unwrap();
        let bytes = (n * n * 8) as u64;
        let per_row = (sys.config().geometry.row_bytes as u64 / (n as u64 * 8)).max(1);
        assert_eq!(r.activations, bytes / 8 / per_row, "{n}");
        let duration_ps = bytes as f64 * 1_000.0 / r.throughput_gbps;
        let oracle_ps = (r.activations * t.t_diff_row.as_ps()) as f64;
        assert!(
            (duration_ps - oracle_ps).abs() <= beat.as_ps() as f64,
            "{n}: duration {duration_ps} ps vs {} activations × t_diff_row = {oracle_ps} ps",
            r.activations
        );
        assert_eq!(format!("{:.2}", r.throughput_gbps), gbps, "{n}");
    }
}

/// Table 1, optimized row: the dynamic data layout lifts the column
/// phase to the kernel's 40%-of-peak ceiling — a ~40x utilization gain.
#[test]
fn optimized_column_phase_reaches_kernel_ceiling() {
    let sys = System::default();
    let base = sys.column_phase(Architecture::Baseline, 512).unwrap();
    let opt = sys.column_phase(Architecture::Optimized, 512).unwrap();
    assert!(
        opt.utilization() > 0.30 && opt.utilization() <= 0.41,
        "got {}",
        opt.utilization()
    );
    let gain = opt.utilization() / base.utilization();
    assert!(
        gain > 30.0,
        "utilization gain {gain:.1}x; the paper reports up to 40x"
    );
}

/// Abstract: "approximately 97% improvement in throughput for the
/// complete 2D FFT application" (convention: (opt − base)/opt).
#[test]
fn whole_app_improvement_band() {
    let sys = System::default();
    let n = 512;
    let base = sys.run_app(Architecture::Baseline, n).unwrap();
    let opt = sys.run_app(Architecture::Optimized, n).unwrap();
    let imp = improvement(base.throughput_gbps, opt.throughput_gbps);
    assert!(imp > 0.90 && imp < 0.99, "got {imp:.3}");
}

/// Section 5: "latency is reduced by up to 3x".
#[test]
fn latency_is_reduced_severalfold() {
    let sys = System::default();
    let base = sys.run_app(Architecture::Baseline, 512).unwrap();
    let opt = sys.run_app(Architecture::Optimized, 512).unwrap();
    let ratio = base.latency.as_ps() as f64 / opt.latency.as_ps() as f64;
    assert!(ratio > 1.5, "latency ratio {ratio:.2}");
}

/// Fewer row activations is the mechanism behind everything: the block
/// layout activates once per DRAM row instead of once per element.
#[test]
fn activation_counts_explain_the_gap() {
    let sys = System::default();
    let n = 512;
    let base = sys.column_phase(Architecture::Baseline, n).unwrap();
    let opt = sys.column_phase(Architecture::Optimized, n).unwrap();
    // Baseline: one activation per element read (with 2 elements per row
    // at n = 512, one per two elements).
    assert!(base.activations >= (n * n / 2) as u64);
    // Optimized: one per 1024-element block.
    assert!(opt.activations <= 2 * (n * n / 1024) as u64);
}

/// The data-parallelism column of Table 2: the optimized architecture
/// keeps all lanes busy; the baseline starves them.
#[test]
fn data_parallelism_contrast() {
    let sys = System::default();
    let base = sys.run_app(Architecture::Baseline, 512).unwrap();
    let opt = sys.run_app(Architecture::Optimized, 512).unwrap();
    assert!(opt.data_parallelism > 7.0, "got {}", opt.data_parallelism);
    assert!(base.data_parallelism < 1.0, "got {}", base.data_parallelism);
}

/// An absolute oracle over the design-space sweep: no design point may
/// read faster than the physics allows — neither the device's peak
/// (vaults × TSV rate) nor its kernel's ceiling of `lanes × 8 B` per
/// cycle. The row-major candidates with one column per group are the
/// sweep's cross-run jumps; they must be among the points checked.
#[test]
fn explored_throughput_never_exceeds_the_physical_bound() {
    use layout::FamilyId;
    use mem3d::MemorySystem;
    use sim_exec::ExecConfig;

    let sys = System::default();
    let cfg = sys.config();
    let peak = MemorySystem::new(cfg.geometry, cfg.timing).peak_bandwidth_gbps();
    let lanes = [4usize, 8, 16];
    for n in [256usize, 1024] {
        let ex = sys
            .explore_with(&ExecConfig::sequential().with_threads(2), n, &lanes)
            .unwrap();
        assert!(ex.failures.is_empty(), "{:?}", ex.failures);
        for p in &ex.points {
            // The kernel's clock period is whole picoseconds and its
            // per-byte time whole femtoseconds: allow that rounding.
            let kernel = p.lanes as f64 * 8.0 * p.clock_mhz / 1e3 * (1.0 + 1e-3);
            assert!(
                p.throughput_gbps <= peak.min(kernel),
                "n = {n}: {p:?} beats min({peak}, {kernel}) GB/s"
            );
        }
        for l in lanes {
            assert!(
                ex.points
                    .iter()
                    .any(|p| p.lanes == l && p.family == FamilyId::RowMajor && p.h == 1),
                "n = {n}, lanes = {l}: no row-major h = 1 point"
            );
        }
    }
}
