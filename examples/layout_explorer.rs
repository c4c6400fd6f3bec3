//! Layout explorer: sweep every feasible block height for a problem size
//! on a configurable device, compare the simulator's best against the
//! paper's Eq. (1) closed form, and show the reorganization cost of each
//! choice.
//!
//! Run with: `cargo run --release --example layout_explorer [N]`

use layout::{optimal_h, optimal_h_bounded, search_optimal_h, LayoutParams, ReorgCost};
use mem3d::{Geometry, MemorySystem, Picos, TimingParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(1024);

    let geom = Geometry {
        vaults: 8,
        layers: 2,
        banks_per_layer: 4,
        rows_per_bank: 8192,
        row_bytes: 2048,
    };
    let timing = TimingParams::default();
    let params = LayoutParams::for_device(n, &geom, &timing);
    let mem = MemorySystem::new(geom, timing);

    println!(
        "device: {} vaults x {} layers x {} banks, {} B rows (s = {} elements, b = {})",
        geom.vaults, geom.layers, geom.banks_per_layer, geom.row_bytes, params.s, params.b
    );
    println!(
        "problem: N = {n} ({} MiB working set)",
        params.matrix_bytes() >> 20
    );
    println!();
    println!(
        "{:>6} {:>6} {:>14} {:>14} {:>16} {:>14}",
        "h", "w", "col GB/s", "activations", "reorg buffer", "reorg fill"
    );

    let results = search_optimal_h(&params, &mem)?;
    let mut sorted = results.clone();
    sorted.sort_by_key(|m| m.h);
    for m in &sorted {
        let cost = ReorgCost::evaluate(&params, m.h, 8, Picos::from_ns(2))?;
        println!(
            "{:>6} {:>6} {:>14.2} {:>14} {:>13} KiB {:>14}",
            m.h,
            m.w,
            m.col_bandwidth_gbps,
            m.activations,
            cost.buffer_bytes >> 10,
            cost.fill_latency,
        );
    }
    println!();
    println!("simulator best:      h = {}", results[0].h);
    println!("Eq. (1) closed form: h = {}", optimal_h(&params));
    println!(
        "Eq. (1) bounded to 2 MiB of reorganization SRAM: h = {}",
        optimal_h_bounded(&params, 2 << 20)
    );
    Ok(())
}
