//! A tour of the instantiated architecture (the paper's Figs. 1–3):
//! memory stack geometry and timing, the streaming kernel's component
//! inventory, and the FPGA cost of the whole processor.
//!
//! Run with: `cargo run --release --example processor_tour`

use fft2d::ProcessorModel;
use fpga_model::resources::devices::VIRTEX7_690T;
use layout::LayoutParams;
use mem3d::{Geometry, TimingParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fig. 1: the 3D memory stack.
    let geom = Geometry::default();
    let timing = TimingParams::default();
    println!("== Fig. 1: 3D memory integrated FPGA ==");
    println!(
        "{} vaults x {} layers x {} banks/layer, {} KiB rows, {} GiB total",
        geom.vaults,
        geom.layers,
        geom.banks_per_layer,
        geom.row_bytes >> 10,
        geom.capacity_bytes() >> 30
    );
    println!(
        "timing: t_in_row {}, t_diff_row {}, t_diff_bank {}, t_in_vault {}",
        timing.t_in_row, timing.t_diff_row, timing.t_diff_bank, timing.t_in_vault
    );
    println!(
        "per-vault TSV link {:.1} GB/s -> device peak {:.0} GB/s",
        timing.vault_peak_gbps(),
        geom.vaults as f64 * timing.vault_peak_gbps()
    );
    println!();

    // Fig. 2: kernel components for a 1024-point FFT at 8 lanes.
    let n = 1024;
    let params = LayoutParams::for_device(n, &geom, &timing);
    let proc = ProcessorModel::new(&params, 8, 128, &VIRTEX7_690T)?;
    let k = proc.kernel_resources();
    println!(
        "== Fig. 2: 1D FFT kernel ({n}-point, {:?}) ==",
        proc.kernel_config().radix
    );
    println!(
        "{} stages, {} radix blocks, {} complex adders, {} complex multipliers",
        k.stages, k.radix_blocks, k.complex_adders, k.complex_multipliers
    );
    println!(
        "twiddle ROMs {} KiB, data buffers {} KiB, fill latency {}",
        k.rom_bytes >> 10,
        (k.buffer_words * 8) >> 10,
        proc.kernel_latency()
    );
    println!();

    // Fig. 3: the full processor on the FPGA.
    println!("== Fig. 3: 2D FFT processor on Virtex-7 690T ==");
    println!("resources: {}", proc.fpga().resources);
    println!(
        "achieved clock {:.0} MHz -> kernel bandwidth {:.1} GB/s \
         ({} lanes x 8 B)",
        proc.fpga().clock_mhz,
        proc.kernel_bandwidth_gbps(),
        proc.kernel_config().width
    );
    Ok(())
}
