//! The cost of the dynamic reorganization itself.
//!
//! The optimized architecture does not transpose in memory; it reshapes
//! row-FFT results *on the fly* while writing them back. To emit whole
//! `w × h` blocks (full memory rows), the permutation network must hold
//! `h` complete matrix rows on chip — that SRAM and the pipeline fill
//! delay are the "data reorganization overhead" the paper insists on
//! accounting (its criticism of the earlier DDL work [12]).

use mem3d::Picos;

use crate::{LayoutError, LayoutParams};

/// Reorganization overhead of a block dynamic layout with height `h` on
/// a `width`-lane datapath at a given clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorgCost {
    /// On-chip buffer the permutation network needs, in bytes
    /// (double-buffered band of `h` matrix rows).
    pub buffer_bytes: u64,
    /// Added pipeline latency: the first block can only be written once
    /// the first band of `h` rows has been produced.
    pub fill_latency: Picos,
    /// Crossbar reconfigurations per matrix (one per block column per
    /// band, as the CU retargets the write stream).
    pub reconfigurations: u64,
}

impl ReorgCost {
    /// Computes the overhead for `params` with block height `h`,
    /// a `lanes`-wide datapath and the given clock period.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::Zero`] if `h` or `lanes` is zero.
    pub fn evaluate(
        params: &LayoutParams,
        h: usize,
        lanes: usize,
        clock: Picos,
    ) -> Result<Self, LayoutError> {
        if h == 0 {
            return Err(LayoutError::Zero { what: "h" });
        }
        if lanes == 0 {
            return Err(LayoutError::Zero { what: "lanes" });
        }
        let band_elems = (h * params.n) as u64;
        let buffer_bytes = 2 * band_elems * params.elem_bytes as u64;
        let fill_cycles = band_elems.div_ceil(lanes as u64);
        let w = (params.s / h).max(1) as u64;
        let bands = (params.n as u64).div_ceil(h as u64);
        let blocks_per_band = (params.n as u64).div_ceil(w);
        Ok(ReorgCost {
            buffer_bytes,
            fill_latency: clock * fill_cycles,
            reconfigurations: bands * blocks_per_band,
        })
    }

    /// The buffer expressed in 36-kilobit FPGA block RAMs.
    pub fn bram36(&self) -> u64 {
        let bram_bytes = 36 * 1024 / 8;
        self.buffer_bytes.div_ceil(bram_bytes)
    }
}

impl ReorgCost {
    /// Serializes the overhead report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = sim_util::json::JsonObject::new();
        o.field_u64("buffer_bytes", self.buffer_bytes);
        o.field_u64("fill_latency_ps", self.fill_latency.as_ps());
        o.field_u64("reconfigurations", self.reconfigurations);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem3d::{Geometry, TimingParams};

    fn params(n: usize) -> LayoutParams {
        LayoutParams::for_device(n, &Geometry::default(), &TimingParams::default())
    }

    #[test]
    fn buffer_scales_with_band() {
        let p = params(1024);
        let clock = Picos::from_ns(2);
        let c64 = ReorgCost::evaluate(&p, 64, 8, clock).unwrap();
        let c128 = ReorgCost::evaluate(&p, 128, 8, clock).unwrap();
        assert_eq!(c64.buffer_bytes, 2 * 64 * 1024 * 8);
        assert_eq!(c128.buffer_bytes, 2 * c64.buffer_bytes / 2 * 2);
        assert!(c128.fill_latency > c64.fill_latency);
    }

    #[test]
    fn fill_latency_is_band_over_lanes() {
        let p = params(512);
        let clock = Picos::from_ns(2);
        let c = ReorgCost::evaluate(&p, 16, 8, clock).unwrap();
        // 16 rows × 512 elements / 8 lanes = 1024 cycles of 2 ns.
        assert_eq!(c.fill_latency, Picos::from_ns(2048));
    }

    #[test]
    fn bram_count_rounds_up() {
        let p = params(512);
        let c = ReorgCost::evaluate(&p, 16, 8, Picos::from_ns(2)).unwrap();
        // 2 * 16 * 512 * 8 B = 128 KiB → 29 BRAM36 (4.5 KiB each).
        assert_eq!(c.bram36(), (131072u64).div_ceil(4608));
    }

    #[test]
    fn reconfigurations_count_blocks() {
        let p = params(512);
        let c = ReorgCost::evaluate(&p, 64, 8, Picos::from_ns(2)).unwrap();
        // bands = 512/64 = 8; blocks per band = 512/(1024/64) = 32.
        assert_eq!(c.reconfigurations, 8 * 32);
    }

    #[test]
    fn zero_h_or_lanes_is_an_error() {
        let p = params(512);
        let clock = Picos::from_ns(2);
        assert_eq!(
            ReorgCost::evaluate(&p, 0, 8, clock),
            Err(LayoutError::Zero { what: "h" })
        );
        assert_eq!(
            ReorgCost::evaluate(&p, 16, 0, clock),
            Err(LayoutError::Zero { what: "lanes" })
        );
    }
}
