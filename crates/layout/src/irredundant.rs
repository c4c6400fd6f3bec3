//! The irredundant consumer-order layout (after arXiv 2401.12071).
//!
//! Blocks are the same `w × h`, row-buffer-sized, column-major-inside
//! shapes the paper's DDL uses — but they are placed in *block-column*
//! order with **no** diagonal rotation: block `(band br, column bc)`
//! lands in slot `bc · (n/h) + br`. The phase-2 column sweep, which
//! walks a block column top to bottom, therefore reads strictly
//! consecutive memory rows — the consumer's exact streaming order, with
//! zero redundant reordering between storage and use. Under the
//! vault-interleaved map consecutive rows rotate vaults, so the column
//! phase gets both full vault parallelism and maximal open-row bursts,
//! without the rotation seams that end the DDL's multi-beat runs.
//!
//! The trade is the mirror image of the DDL's: the row phase's band
//! *writes* scatter across blocks `n/h` memory rows apart, so its
//! write stream serializes where the DDL's diagonal spread it across
//! vaults. This makes the family an honest competitor — it wins where
//! the column phase dominates and loses where row-phase writes do.

use mem3d::AddressMapKind;

use crate::matrix::BlockGrid;
use crate::{Axis, LayoutError, LayoutParams, MatrixLayout};

/// The irredundant (rotation-free, block-column-major) layout. See the
/// module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Irredundant {
    n: usize,
    elem_bytes: usize,
    /// Block width in columns.
    pub w: usize,
    /// Block height in rows.
    pub h: usize,
}

impl Irredundant {
    /// Creates the layout with block height `h`; the width is `s / h`
    /// capped at `n`, exactly like the DDL's.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] unless `h` divides both `s` and `n`,
    /// and the induced width divides `n`.
    // simlint::entry(service_path)
    pub fn with_height(params: &LayoutParams, h: usize) -> Result<Self, LayoutError> {
        if h == 0 {
            return Err(LayoutError::Zero { what: "h" });
        }
        if !params.s.is_multiple_of(h) {
            return Err(LayoutError::NotDivisor {
                what: "h",
                value: h,
                of: "s",
                of_value: params.s,
            });
        }
        let w = (params.s / h).min(params.n);
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
        Ok(Irredundant {
            n: params.n,
            elem_bytes: params.elem_bytes,
            w,
            h,
        })
    }

    /// Block slot for `(row, col)`: block-column-major, no rotation.
    fn block_index(&self, row: usize, col: usize) -> usize {
        (col / self.w) * (self.n / self.h) + row / self.h
    }
}

impl MatrixLayout for Irredundant {
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
        "irredundant"
    }

    fn column_run(&self) -> usize {
        self.h
    }

    fn group_block_addr(&self, band: usize, g: usize, group: usize) -> Option<u64> {
        // One aligned `w × h` block stored column-major is read in
        // exactly ascending address order by the columns-outer /
        // rows-inner group walk, same contract as the DDL's.
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
            rotated: false,
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
    fn column_sweep_is_fully_sequential() {
        // Walking one block column band by band must touch strictly
        // consecutive addresses: that is the family's whole point.
        let p = params(512);
        let l = Irredundant::with_height(&p, 64).unwrap();
        let mut expect = l.addr(0, 0);
        for band in 0..512 / l.h {
            for c in 0..l.w {
                for r in 0..l.h {
                    assert_eq!(l.addr(band * l.h + r, c), expect);
                    expect += 8;
                }
            }
        }
        assert_eq!(expect, (l.w as u64) * 512 * 8, "covered one block column");
    }

    #[test]
    fn layout_is_bijective() {
        let p = params(64);
        let l = Irredundant::with_height(&p, 16).unwrap();
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
        assert!(Irredundant::with_height(&p, 0).is_err());
        assert!(Irredundant::with_height(&p, 3).is_err());
        for h in p.valid_block_heights() {
            assert!(Irredundant::with_height(&p, h).is_ok());
        }
    }

    #[test]
    fn group_block_contract_holds_on_aligned_cells() {
        let p = params(256);
        let l = Irredundant::with_height(&p, 64).unwrap();
        let base = l.group_block_addr(64, 16, l.w).unwrap();
        let mut expect = base;
        for c in 16..16 + l.w {
            for r in 64..128 {
                assert_eq!(l.addr(r, c), expect);
                expect += 8;
            }
        }
        assert!(l.group_block_addr(1, 0, l.w).is_none(), "misaligned band");
        assert!(l.group_block_addr(0, 0, l.w + 1).is_none(), "wrong group");
    }
}
