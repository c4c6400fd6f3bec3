//! Matrix-to-memory layouts.
//!
//! A [`MatrixLayout`] decides where element `(row, col)` of the `n × n`
//! working array lives as a flat byte address, and which hardware
//! interleaving ([`AddressMapKind`]) decodes those addresses to vaults,
//! banks and rows. The combination fully determines the row-activation
//! behaviour of the two FFT phases.

use mem3d::AddressMapKind;

use crate::{LayoutError, LayoutParams};

/// A mapping from matrix coordinates to memory addresses.
///
/// Implementations must be bijective on the `n × n` index space (the
/// property tests in this module verify it for every provided layout).
pub trait MatrixLayout: std::fmt::Debug {
    /// Flat byte address of element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `row` or `col` is out of range.
    fn addr(&self, row: usize, col: usize) -> u64;

    /// The hardware interleaving these addresses are decoded with.
    fn map_kind(&self) -> AddressMapKind;

    /// Matrix dimension.
    fn n(&self) -> usize;

    /// Element size in bytes.
    fn elem_bytes(&self) -> usize;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Longest run of contiguous addresses when walking *down* one
    /// column, in elements. 1 for row-major; `h` for a block layout.
    fn column_run(&self) -> usize {
        1
    }

    /// Constant byte distance between vertically adjacent elements, if
    /// one exists: `Some(s)` only when
    /// `addr(row + 1, col) == addr(row, col) + s` for **every** in-range
    /// `(row, col)`. Lets the column-phase stream describe a whole
    /// column as one strided run instead of `n` per-element virtual
    /// calls. Block/tile layouts, whose column walk changes stride at
    /// block seams, return `None`.
    fn row_stride(&self) -> Option<u64> {
        None
    }

    /// Row-direction contiguity, in elements — the mirror of
    /// [`column_run`](Self::column_run): within every aligned run of
    /// columns `[k·row_run, (k+1)·row_run)` of any row, horizontally
    /// adjacent elements are adjacent in memory
    /// (`addr(row, col + 1) == addr(row, col) + elem_bytes`). `n` for
    /// row-major, the tile width for tiled; the default 1 claims
    /// nothing. Lets the row sweep and the tile walks describe a row
    /// chunk as one segment instead of `row_run` per-element virtual
    /// calls.
    fn row_run(&self) -> usize {
        1
    }

    /// Base address of one fully-contiguous **group block**, if this
    /// layout stores it as one: `Some(base)` only when the
    /// `group × column_run` elements of columns `g..g+group`, rows
    /// `band..band+column_run`, visited columns-outer / rows-inner (the
    /// column-phase walk order), occupy *exactly* the ascending byte
    /// range `[base, base + group·column_run·elem_bytes)`. Lets the
    /// grouped column-phase stream emit one whole-block burst in O(1)
    /// instead of `group·column_run` per-element coalescer steps. Layouts
    /// without such a shape (or for a misaligned `(band, g, group)`)
    /// return `None`.
    fn group_block_addr(&self, band: usize, g: usize, group: usize) -> Option<u64> {
        let _ = (band, g, group);
        None
    }

    /// Base address of one fully-contiguous **row block**, if this
    /// layout stores it as one — the rows-outer mirror of
    /// [`group_block_addr`](Self::group_block_addr): `Some(base)` only
    /// when the `rows × cols` elements of rows `band..band+rows`,
    /// columns `g..g+cols`, visited rows-outer / columns-inner (the
    /// tile walks' order), occupy *exactly* the ascending byte range
    /// `[base, base + rows·cols·elem_bytes)`. Whether a block is claimed
    /// may depend only on its shape and alignment, never on where in
    /// the matrix an aligned block sits. Lets the tile sweep and the
    /// tile write-back emit one segment per tile instead of one per tile
    /// row. Layouts without such a shape (or for a misaligned block)
    /// return `None`.
    fn row_block_addr(&self, band: usize, g: usize, rows: usize, cols: usize) -> Option<u64> {
        let _ = (band, g, rows, cols);
        None
    }
}

/// Row-major order. With the default [`AddressMapKind::Chunked`]
/// interleaving this is the paper's baseline: a matrix row is contiguous,
/// but a matrix column strides by the full row, re-activating a DRAM row
/// of the *same bank* on every access. The
/// [`interleaved`](RowMajor::interleaved) variant spreads consecutive
/// memory rows over vaults — it fixes the *row* phase (which the
/// optimized architecture uses for its input) but cannot fix the column
/// phase, because activations still happen per element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowMajor {
    n: usize,
    elem_bytes: usize,
    map: AddressMapKind,
}

impl RowMajor {
    /// Creates the baseline layout for an `n × n` matrix (chunked map:
    /// naive contiguous allocation inside one vault after another).
    pub fn new(params: &LayoutParams) -> Self {
        RowMajor {
            n: params.n,
            elem_bytes: params.elem_bytes,
            map: AddressMapKind::Chunked,
        }
    }

    /// Row-major over the vault-interleaved map: consecutive memory rows
    /// rotate through all vaults, so sequential row sweeps engage the
    /// whole device.
    pub fn interleaved(params: &LayoutParams) -> Self {
        RowMajor {
            n: params.n,
            elem_bytes: params.elem_bytes,
            map: AddressMapKind::VaultInterleaved,
        }
    }
}

impl MatrixLayout for RowMajor {
    fn addr(&self, row: usize, col: usize) -> u64 {
        assert!(row < self.n && col < self.n, "({row}, {col}) out of range");
        ((row * self.n + col) * self.elem_bytes) as u64
    }

    fn map_kind(&self) -> AddressMapKind {
        self.map
    }

    fn n(&self) -> usize {
        self.n
    }

    fn elem_bytes(&self) -> usize {
        self.elem_bytes
    }

    fn name(&self) -> &'static str {
        "row-major"
    }

    fn row_stride(&self) -> Option<u64> {
        Some((self.n * self.elem_bytes) as u64)
    }

    fn row_run(&self) -> usize {
        self.n
    }
}

/// Column-major order (the mirror image of [`RowMajor`]): favours the
/// column phase and penalizes the row phase. Included to demonstrate
/// that *no static layout* serves both phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColMajor {
    n: usize,
    elem_bytes: usize,
}

impl ColMajor {
    /// Creates the column-major layout for an `n × n` matrix.
    pub fn new(params: &LayoutParams) -> Self {
        ColMajor {
            n: params.n,
            elem_bytes: params.elem_bytes,
        }
    }
}

impl MatrixLayout for ColMajor {
    fn addr(&self, row: usize, col: usize) -> u64 {
        assert!(row < self.n && col < self.n, "({row}, {col}) out of range");
        ((col * self.n + row) * self.elem_bytes) as u64
    }

    fn map_kind(&self) -> AddressMapKind {
        AddressMapKind::Chunked
    }

    fn n(&self) -> usize {
        self.n
    }

    fn elem_bytes(&self) -> usize {
        self.elem_bytes
    }

    fn name(&self) -> &'static str {
        "col-major"
    }

    fn column_run(&self) -> usize {
        self.n
    }

    fn row_stride(&self) -> Option<u64> {
        Some(self.elem_bytes as u64)
    }
}

/// The tiled mapping of Akin et al. (the paper's ref.\[2\]): the matrix is
/// divided into `tile_rows × tile_cols` tiles, each stored row-major in
/// consecutive addresses and sized to fill one DRAM row. A static
/// compromise between the two phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiled {
    n: usize,
    elem_bytes: usize,
    tile_rows: usize,
    tile_cols: usize,
}

impl Tiled {
    /// Tile height in rows.
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Tile width in columns.
    pub fn tile_cols(&self) -> usize {
        self.tile_cols
    }

    /// Creates a tiled layout; `tile_rows * tile_cols` should equal the
    /// row-buffer capacity `s` for the intended effect.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if a tile dimension is zero or does not
    /// evenly divide the matrix.
    pub fn new(
        params: &LayoutParams,
        tile_rows: usize,
        tile_cols: usize,
    ) -> Result<Self, LayoutError> {
        if tile_rows == 0 {
            return Err(LayoutError::Zero { what: "tile_rows" });
        }
        if tile_cols == 0 {
            return Err(LayoutError::Zero { what: "tile_cols" });
        }
        if !params.n.is_multiple_of(tile_rows) {
            return Err(LayoutError::NotDivisor {
                what: "tile_rows",
                value: tile_rows,
                of: "n",
                of_value: params.n,
            });
        }
        if !params.n.is_multiple_of(tile_cols) {
            return Err(LayoutError::NotDivisor {
                what: "tile_cols",
                value: tile_cols,
                of: "n",
                of_value: params.n,
            });
        }
        Ok(Tiled {
            n: params.n,
            elem_bytes: params.elem_bytes,
            tile_rows,
            tile_cols,
        })
    }

    /// The tile height of the square-ish row-buffer-sized tile
    /// ([`Tiled::row_buffer_sized`]), before capping at `n` — the
    /// canonical family parameter for the Akin tiling.
    pub fn row_buffer_rows(params: &LayoutParams) -> usize {
        let mut tr = 1usize;
        while tr * tr < params.s {
            tr *= 2;
        }
        tr
    }

    /// The square-ish tile filling one row buffer (`√s × s/√s`).
    ///
    /// # Errors
    ///
    /// As for [`Tiled::new`].
    pub fn row_buffer_sized(params: &LayoutParams) -> Result<Self, LayoutError> {
        let tr = Self::row_buffer_rows(params);
        let tc = params.s / tr;
        Self::new(params, tr.min(params.n), tc.min(params.n))
    }
}

impl MatrixLayout for Tiled {
    fn addr(&self, row: usize, col: usize) -> u64 {
        assert!(row < self.n && col < self.n, "({row}, {col}) out of range");
        let tiles_per_row = self.n / self.tile_cols;
        let tile_idx = (row / self.tile_rows) * tiles_per_row + col / self.tile_cols;
        let within = (row % self.tile_rows) * self.tile_cols + col % self.tile_cols;
        ((tile_idx * self.tile_rows * self.tile_cols + within) * self.elem_bytes) as u64
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
        "tiled"
    }

    fn column_run(&self) -> usize {
        // Within a tile, column elements stride by tile_cols; only one
        // element is contiguous.
        1
    }

    fn row_run(&self) -> usize {
        // Each tile row is `tile_cols` contiguous elements.
        self.tile_cols
    }

    fn row_block_addr(&self, band: usize, g: usize, rows: usize, cols: usize) -> Option<u64> {
        // A whole aligned tile, stored row-major: the rows-outer /
        // columns-inner walk visits its elements in exactly ascending
        // address order starting at the tile base.
        (rows == self.tile_rows
            && cols == self.tile_cols
            && band.is_multiple_of(self.tile_rows)
            && g.is_multiple_of(self.tile_cols)
            && band + rows <= self.n
            && g + cols <= self.n)
            .then(|| self.addr(band, g))
    }
}

/// The paper's **block dynamic data layout**: the matrix is divided into
/// `w × h` blocks (`w` columns × `h` rows, `w·h = s` elements = one DRAM
/// row), stored *column-major within the block* so that `h` consecutive
/// elements of a matrix column are contiguous.
///
/// Blocks are placed *diagonally*: block `(bc, br)` occupies memory row
/// `br·(n/w) + (bc + br) mod (n/w)` under the
/// [`AddressMapKind::VaultInterleaved`] interleaving. The `+br` rotation
/// makes **both** access directions vault-parallel: the row phase writes
/// one band (`br` fixed, `bc` sweeping) across all vaults, and the
/// column phase walks one block column (`bc` fixed, `br` sweeping)
/// across all vaults too — activations pipeline over vaults, layers and
/// banks in either phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDynamic {
    n: usize,
    elem_bytes: usize,
    /// Block width in columns.
    pub w: usize,
    /// Block height in rows.
    pub h: usize,
}

impl BlockDynamic {
    /// Creates the block layout with height `h`. The width is `s / h`,
    /// capped at `n`: a matrix narrower than one DRAM row packs several
    /// (sub-row) blocks per row, which is the natural degenerate case
    /// for problems that fit inside a single row buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] unless `h` divides both `s` and `n`, and
    /// the resulting width divides `n`.
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
        Ok(BlockDynamic {
            n: params.n,
            elem_bytes: params.elem_bytes,
            w,
            h,
        })
    }

    /// Memory-row index of the block holding `(row, col)`: band-major
    /// with a per-band diagonal rotation (see the type docs).
    fn block_index(&self, row: usize, col: usize) -> usize {
        let blocks_per_row = self.n / self.w;
        let br = row / self.h;
        let bc = col / self.w;
        br * blocks_per_row + (bc + br) % blocks_per_row
    }
}

impl MatrixLayout for BlockDynamic {
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
        "block-ddl"
    }

    fn column_run(&self) -> usize {
        self.h
    }

    fn group_block_addr(&self, band: usize, g: usize, group: usize) -> Option<u64> {
        // A whole aligned block: `w` columns × `h` rows, stored
        // column-major within the block, so the columns-outer /
        // rows-inner walk visits its `w·h` elements in exactly
        // ascending address order starting at the block base.
        (group == self.w
            && band.is_multiple_of(self.h)
            && g.is_multiple_of(self.w)
            && band + self.h <= self.n
            && g + self.w <= self.n)
            .then(|| self.addr(band, g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem3d::{Geometry, TimingParams};
    use sim_util::{prop_assert, prop_assert_eq, prop_check};
    use std::collections::HashSet;

    fn params(n: usize) -> LayoutParams {
        LayoutParams::for_device(n, &Geometry::default(), &TimingParams::default())
    }

    fn all_layouts(n: usize) -> Vec<Box<dyn MatrixLayout>> {
        let p = params(n);
        vec![
            Box::new(RowMajor::new(&p)),
            Box::new(ColMajor::new(&p)),
            Box::new(Tiled::row_buffer_sized(&p).unwrap()),
            Box::new(BlockDynamic::with_height(&p, 32.min(n)).unwrap()),
        ]
    }

    #[test]
    fn row_major_is_contiguous_along_rows() {
        let l = RowMajor::new(&params(64));
        assert_eq!(l.addr(0, 1) - l.addr(0, 0), 8);
        assert_eq!(l.addr(1, 0) - l.addr(0, 0), 64 * 8);
        assert_eq!(l.column_run(), 1);
        assert_eq!(l.name(), "row-major");
    }

    #[test]
    fn col_major_is_contiguous_along_columns() {
        let l = ColMajor::new(&params(64));
        assert_eq!(l.addr(1, 0) - l.addr(0, 0), 8);
        assert_eq!(l.column_run(), 64);
    }

    #[test]
    fn tiled_keeps_a_tile_contiguous() {
        let p = params(256);
        let t = Tiled::row_buffer_sized(&p).unwrap();
        // 1024-element row buffer → 32×32 tiles.
        let base = t.addr(0, 0);
        assert_eq!(t.addr(0, 1) - base, 8);
        let tile_bytes = (p.s * p.elem_bytes) as u64;
        assert_eq!(
            t.addr(0, 32) - base,
            tile_bytes,
            "next tile starts a new row"
        );
        assert!(Tiled::new(&p, 0, 4).is_err());
        assert!(Tiled::new(&p, 3, 4).is_err());
    }

    #[test]
    fn block_dynamic_makes_column_segments_contiguous() {
        let p = params(512);
        let l = BlockDynamic::with_height(&p, 64).unwrap();
        assert_eq!(l.w, 16, "w = s/h = 1024/64");
        for r in 0..63 {
            assert_eq!(
                l.addr(r + 1, 5) - l.addr(r, 5),
                8,
                "column run inside block"
            );
        }
        // Crossing a block boundary jumps to the next memory row.
        assert_ne!(l.addr(64, 5) - l.addr(63, 5), 8);
        assert_eq!(l.column_run(), 64);
    }

    #[test]
    fn block_dynamic_blocks_fill_exactly_one_memory_row() {
        let p = params(512);
        let l = BlockDynamic::with_height(&p, 128).unwrap();
        let row_bytes = (p.s * p.elem_bytes) as u64;
        // All elements of block (0,0) live in [0, row_bytes).
        for r in 0..128 {
            for c in 0..l.w {
                assert!(l.addr(r, c) < row_bytes);
            }
        }
        // The next block down the same block column sits one band later,
        // rotated one slot right: memory row 64 + 1.
        assert_eq!(l.addr(128, 0), 65 * row_bytes);
    }

    #[test]
    fn block_dynamic_rotates_vaults_in_both_directions() {
        let p = params(2048);
        let l = BlockDynamic::with_height(&p, 64).unwrap(); // w = 16
        let row_bytes = (p.s * p.elem_bytes) as u64;
        let vaults = 16u64;
        let vault_of = |r: usize, c: usize| (l.addr(r, c) / row_bytes) % vaults;
        // Down one block column: 16 consecutive bands hit 16 vaults.
        let down: std::collections::HashSet<u64> = (0..16).map(|br| vault_of(br * 64, 0)).collect();
        assert_eq!(down.len(), 16, "column walk must engage every vault");
        // Across one band: 16 consecutive block columns hit 16 vaults.
        let across: std::collections::HashSet<u64> =
            (0..16).map(|bc| vault_of(0, bc * 16)).collect();
        assert_eq!(across.len(), 16, "band writes must engage every vault");
    }

    #[test]
    fn block_dynamic_validates() {
        let p = params(512);
        assert!(BlockDynamic::with_height(&p, 0).is_err());
        assert!(BlockDynamic::with_height(&p, 3).is_err());
        // h = 1024 > n = 512 → block taller than the matrix.
        assert!(BlockDynamic::with_height(&p, 1024).is_err());
    }

    /// Every layout the registry builds, at 8- and 4-byte elements.
    fn registry_layouts(n: usize) -> Vec<Box<dyn crate::LayoutFamily>> {
        let p8 = params(n);
        let p4 = LayoutParams {
            elem_bytes: 4,
            s: p8.s * 2,
            ..p8
        };
        [p8, p4]
            .iter()
            .flat_map(|p| {
                crate::enumerate_candidates(p)
                    .into_iter()
                    .map(move |spec| spec.build(p).expect("registry candidates build"))
            })
            .collect()
    }

    #[test]
    fn group_block_addr_claims_only_contiguous_blocks() {
        // Wherever a layout claims a whole group block, the block's
        // columns-outer / rows-inner walk is exactly the ascending byte
        // range from the claimed base.
        for n in [16, 64, 256] {
            for fam in registry_layouts(n) {
                let l = fam.layout();
                let (e, run, group) = (l.elem_bytes() as u64, l.column_run(), fam.col_group());
                for band in (0..n).step_by(run.min(n)) {
                    for g in (0..n).step_by(group) {
                        let Some(base) = l.group_block_addr(band, g, group) else {
                            continue;
                        };
                        let mut expect = base;
                        for c in g..g + group {
                            for r in band..band + run {
                                assert_eq!(l.addr(r, c), expect, "{fam:?} at ({r}, {c})");
                                expect += e;
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_block_addr_claims_only_contiguous_blocks() {
        // Wherever a layout claims a whole row block, the block's
        // rows-outer / columns-inner walk is exactly the ascending byte
        // range from the claimed base — at every offset, aligned or not,
        // for every power-of-two block shape.
        for n in [16usize, 64, 256] {
            let shapes: Vec<usize> = (0..=n.trailing_zeros()).map(|k| 1 << k).collect();
            for fam in registry_layouts(n) {
                let l = fam.layout();
                let e = l.elem_bytes() as u64;
                for &rows in &shapes {
                    for &cols in &shapes {
                        for band in 0..=n - rows {
                            for g in 0..=n - cols {
                                let Some(base) = l.row_block_addr(band, g, rows, cols) else {
                                    continue;
                                };
                                let mut expect = base;
                                for r in band..band + rows {
                                    for c in g..g + cols {
                                        assert_eq!(l.addr(r, c), expect, "{fam:?} at ({r}, {c})");
                                        expect += e;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // The claim is not vacuous: tiled claims exactly its aligned tiles.
        let t = Tiled::new(&params(64), 8, 16).unwrap();
        assert_eq!(t.row_block_addr(8, 16, 8, 16), Some(t.addr(8, 16)));
        assert!(t.row_block_addr(4, 16, 8, 16).is_none(), "misaligned band");
        assert!(t.row_block_addr(8, 8, 8, 16).is_none(), "misaligned column");
        assert!(t.row_block_addr(8, 16, 8, 8).is_none(), "wrong shape");
        assert!(RowMajor::new(&params(64))
            .row_block_addr(0, 0, 1, 64)
            .is_none());
    }

    #[test]
    fn row_run_claims_only_contiguous_runs() {
        // Inside every aligned run of `row_run` columns, horizontally
        // adjacent elements are adjacent in memory.
        for n in [16, 64, 256] {
            for fam in registry_layouts(n) {
                let l = fam.layout();
                let (e, run) = (l.elem_bytes() as u64, l.row_run());
                assert!(run >= 1, "{fam:?}: row_run must be positive");
                for r in 0..n {
                    for c in 0..n - 1 {
                        if (c + 1) % run != 0 {
                            assert_eq!(
                                l.addr(r, c + 1),
                                l.addr(r, c) + e,
                                "{fam:?}: row_run {run} over-claims at ({r}, {c})"
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(RowMajor::new(&params(64)).row_run(), 64);
        assert_eq!(Tiled::new(&params(64), 8, 16).unwrap().row_run(), 16);
    }

    #[test]
    fn layouts_are_bijective_on_small_matrices() {
        for l in all_layouts(32) {
            let mut seen = HashSet::new();
            for r in 0..32 {
                for c in 0..32 {
                    assert!(
                        seen.insert(l.addr(r, c)),
                        "{} repeats address for ({r}, {c})",
                        l.name()
                    );
                }
            }
            // Addresses are exactly the multiples of elem_bytes in range.
            let max = *seen.iter().max().unwrap();
            assert_eq!(max, (32 * 32 - 1) * 8, "{} leaves holes", l.name());
        }
    }

    #[test]
    fn addresses_stay_in_matrix_footprint() {
        prop_check!(|rng| {
            let r = rng.gen_range(0usize..128);
            let c = rng.gen_range(0usize..128);
            let which = rng.gen_range(0usize..4);
            let layouts = all_layouts(128);
            let l = &layouts[which];
            let a = l.addr(r, c);
            prop_assert!(
                a < (128 * 128 * 8) as u64,
                "{} at ({r}, {c}): {a}",
                l.name()
            );
            prop_assert_eq!(a % 8, 0, "{} at ({}, {})", l.name(), r, c);
        });
    }
}
