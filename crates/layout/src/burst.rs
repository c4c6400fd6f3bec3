//! The burst-friendly interleaved layout (after arXiv 2202.05933).
//!
//! Like the paper's DDL, the matrix is carved into `w × h` blocks stored
//! column-major inside and placed with a per-band diagonal rotation — but
//! the block is sized to one *memory burst* (a quarter DRAM row here)
//! instead of a whole row buffer. Several blocks pack into each DRAM
//! row, so both phases still move burst-granular contiguous chunks while
//! the on-chip gather buffer only has to hold `w` sub-row columns — a
//! quarter of the DDL's group buffer for the same block height.
//!
//! The trade: the column phase's bursts are shorter than a full open
//! row, so it re-crosses row boundaries more often than the DDL and
//! gives up some bandwidth in exchange for the smaller on-chip buffer.

use mem3d::AddressMapKind;

use crate::matrix::BlockGrid;
use crate::{Axis, LayoutError, LayoutParams, MatrixLayout};

/// How many burst blocks pack into one DRAM row (the burst is a
/// quarter row: 2 KiB under the default 8 KiB geometry).
const BURSTS_PER_ROW: usize = 4;

/// The burst-friendly interleaved block layout. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstInterleaved {
    n: usize,
    elem_bytes: usize,
    /// Block width in columns.
    pub w: usize,
    /// Block height in rows.
    pub h: usize,
}

impl BurstInterleaved {
    /// Burst capacity in elements for these device parameters: a
    /// quarter of the row buffer, at least one element.
    pub fn burst_elems(params: &LayoutParams) -> usize {
        (params.s / BURSTS_PER_ROW).max(1)
    }

    /// Creates the burst layout with block height `h`. The width is
    /// `burst_elems / h`, capped at `n` (matrices narrower than one
    /// burst pack several sub-burst blocks per burst slot, mirroring
    /// the DDL's degenerate case).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] unless `h` divides both the burst
    /// capacity and `n`, and the resulting width divides `n`.
    // simlint::entry(service_path)
    pub fn with_height(params: &LayoutParams, h: usize) -> Result<Self, LayoutError> {
        let burst = Self::burst_elems(params);
        if h == 0 {
            return Err(LayoutError::Zero { what: "h" });
        }
        if !burst.is_multiple_of(h) {
            return Err(LayoutError::NotDivisor {
                what: "h",
                value: h,
                of: "burst",
                of_value: burst,
            });
        }
        let w = (burst / h).min(params.n);
        if !params.n.is_multiple_of(h) {
            return Err(LayoutError::NotDivisor {
                what: "h",
                value: h,
                of: "n",
                of_value: params.n,
            });
        }
        if !params.n.is_multiple_of(w) {
            return Err(LayoutError::NotDivisor {
                what: "w",
                value: w,
                of: "n",
                of_value: params.n,
            });
        }
        Ok(BurstInterleaved {
            n: params.n,
            elem_bytes: params.elem_bytes,
            w,
            h,
        })
    }

    /// Feasible block heights: powers of two dividing the burst
    /// capacity and `n`, with the induced width dividing `n` too.
    pub fn valid_heights(params: &LayoutParams) -> Vec<usize> {
        let burst = Self::burst_elems(params);
        let mut hs = Vec::new();
        let mut h = 1usize;
        while h <= burst && h <= params.n {
            if burst.is_multiple_of(h)
                && params.n.is_multiple_of(h)
                && params.n.is_multiple_of((burst / h).min(params.n))
            {
                hs.push(h);
            }
            h *= 2;
        }
        hs
    }

    /// Burst-slot index of the block holding `(row, col)`: band-major
    /// with the DDL's per-band diagonal rotation, at burst granularity.
    fn block_index(&self, row: usize, col: usize) -> usize {
        let blocks_per_row = self.n / self.w;
        let br = row / self.h;
        let bc = col / self.w;
        br * blocks_per_row + (bc + br) % blocks_per_row
    }
}

impl MatrixLayout for BurstInterleaved {
    fn addr(&self, row: usize, col: usize) -> u64 {
        assert!(row < self.n && col < self.n, "({row}, {col}) out of range");
        let within = (col % self.w) * self.h + row % self.h;
        ((self.block_index(row, col) * self.w * self.h + within) * self.elem_bytes) as u64
    }

    fn map_kind(&self) -> AddressMapKind {
        AddressMapKind::VaultInterleaved
    }

    fn n(&self) -> usize {
        self.n
    }

    fn elem_bytes(&self) -> usize {
        self.elem_bytes
    }

    fn name(&self) -> &'static str {
        "burst-interleaved"
    }

    fn column_run(&self) -> usize {
        self.h
    }

    fn group_block_addr(&self, band: usize, g: usize, group: usize) -> Option<u64> {
        // Same contract as the DDL: one aligned `w × h` block, stored
        // column-major, is visited by the columns-outer / rows-inner
        // walk in exactly ascending address order from the block base.
        (group == self.w
            && band.is_multiple_of(self.h)
            && g.is_multiple_of(self.w)
            && band + self.h <= self.n
            && g + self.w <= self.n)
            .then(|| self.addr(band, g))
    }

    fn progression(
        &self,
        row: usize,
        col: usize,
        rows: usize,
        cols: usize,
        axis: Axis,
    ) -> Option<(u64, usize)> {
        BlockGrid {
            n: self.n,
            elem_bytes: self.elem_bytes,
            w: self.w,
            h: self.h,
            rotated: true,
        }
        .progression(row, col, rows, cols, axis)
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
    fn blocks_are_burst_sized_and_column_contiguous() {
        let p = params(512);
        let l = BurstInterleaved::with_height(&p, 64).unwrap();
        assert_eq!(l.w * l.h, 256, "one block = one quarter-row burst");
        assert_eq!(l.w, 4);
        for r in 0..63 {
            assert_eq!(l.addr(r + 1, 2) - l.addr(r, 2), 8);
        }
        assert_ne!(l.addr(64, 2) - l.addr(63, 2), 8);
    }

    #[test]
    fn layout_is_bijective() {
        let p = params(64);
        let l = BurstInterleaved::with_height(&p, 16).unwrap();
        let mut seen = vec![false; 64 * 64];
        for r in 0..64 {
            for c in 0..64 {
                let slot = (l.addr(r, c) / 8) as usize;
                assert!(!seen[slot], "address repeats at ({r}, {c})");
                seen[slot] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "layout leaves holes");
    }

    #[test]
    fn validates_heights() {
        let p = params(512);
        assert!(BurstInterleaved::with_height(&p, 0).is_err());
        assert!(BurstInterleaved::with_height(&p, 3).is_err());
        assert!(BurstInterleaved::with_height(&p, 512).is_err(), "h > burst");
        for h in BurstInterleaved::valid_heights(&p) {
            assert!(BurstInterleaved::with_height(&p, h).is_ok());
        }
        assert!(!BurstInterleaved::valid_heights(&p).is_empty());
    }

    #[test]
    fn group_block_contract_holds_on_aligned_cells() {
        let p = params(256);
        let l = BurstInterleaved::with_height(&p, 32).unwrap();
        let base = l.group_block_addr(32, 8, l.w).unwrap();
        let mut expect = base;
        for c in 8..8 + l.w {
            for r in 32..64 {
                assert_eq!(l.addr(r, c), expect);
                expect += 8;
            }
        }
        assert!(l.group_block_addr(1, 0, l.w).is_none(), "misaligned band");
        assert!(l.group_block_addr(0, 0, l.w + 1).is_none(), "wrong group");
    }
}
