//! Flat-address to physical-location mapping policies.
//!
//! The way consecutive byte addresses spread over vaults, layers, banks
//! and rows determines how much of the stack's parallelism a given access
//! stream can exploit. The layouts in the `layout` crate are expressed on
//! top of these maps.
//!
//! # Fast path
//!
//! Address decoding sits on the simulator's hottest path: the strided
//! baseline column phase decodes one address per 8-byte element, tens of
//! millions of times per sweep candidate. [`AddressMap::new`] therefore
//! precomputes a **shift/mask decoder** whenever every geometry dimension
//! is a power of two (true for the default device and every sweep
//! configuration); `decode`/`encode` then cost a handful of shifts
//! instead of a chain of 64-bit divisions. Non-power-of-two geometries
//! fall back to the original div/mod arithmetic, which is also kept
//! verbatim as [`AddressMap::decode_reference`] /
//! [`AddressMap::encode_reference`] — the golden reference the property
//! tests compare the fast path against.

use crate::{Error, Geometry, Location, Result};

/// Interleaving policy for decoding flat byte addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AddressMapKind {
    /// Fully contiguous: a bank is filled row by row before moving to the
    /// next bank, then the next layer, then the next vault.
    ///
    /// Sequential streams stay inside a single vault; strided streams
    /// tend to re-activate rows of the *same* bank, paying `t_diff_row`
    /// on every access. This is the paper's baseline behaviour.
    Chunked,
    /// Consecutive memory rows round-robin over the banks of a layer,
    /// then over layers, then advance the row index; vaults are still
    /// filled one after another.
    RowInterleaved,
    /// Consecutive memory rows round-robin over vaults first, then banks,
    /// then layers. Sequential streams engage every vault; this is the
    /// map the optimized dynamic layout builds on.
    VaultInterleaved,
}

impl AddressMapKind {
    /// Every interleaving policy, in the order the device caches its
    /// maps.
    pub const ALL: [AddressMapKind; 3] = [
        AddressMapKind::Chunked,
        AddressMapKind::RowInterleaved,
        AddressMapKind::VaultInterleaved,
    ];

    /// Dense index of this kind (used to cache one map per kind).
    pub(crate) fn index(self) -> usize {
        match self {
            AddressMapKind::Chunked => 0,
            AddressMapKind::RowInterleaved => 1,
            AddressMapKind::VaultInterleaved => 2,
        }
    }
}

/// Precomputed shift/mask plan for an all-power-of-two geometry.
///
/// The memory-row index splits into four fields; their order depends on
/// the [`AddressMapKind`]. Field 1 is the least significant; field 4 has
/// no mask (it is bounded by the capacity check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pow2Plan {
    /// `log2(row_bytes)`.
    row_shift: u32,
    /// `row_bytes - 1`.
    col_mask: u64,
    /// Masks for the three inner fields of the row index.
    mask: [u64; 3],
    /// Bit offsets of fields 2, 3 and 4 within the row index.
    shift: [u32; 3],
}

impl Pow2Plan {
    /// Builds the plan when every dimension of `geom` (and the row size)
    /// is a power of two, in the field order `dims` (innermost first;
    /// the fourth, outermost dimension needs no mask).
    fn build(geom: &Geometry, dims: [usize; 3]) -> Option<Pow2Plan> {
        let all_pow2 = [
            geom.vaults,
            geom.layers,
            geom.banks_per_layer,
            geom.rows_per_bank,
            geom.row_bytes,
        ]
        .iter()
        .all(|d| d.is_power_of_two());
        if !all_pow2 {
            return None;
        }
        let bits = |d: usize| d.trailing_zeros();
        let s2 = bits(dims[0]);
        let s3 = s2 + bits(dims[1]);
        let s4 = s3 + bits(dims[2]);
        Some(Pow2Plan {
            row_shift: bits(geom.row_bytes),
            col_mask: geom.row_bytes as u64 - 1,
            mask: [dims[0] as u64 - 1, dims[1] as u64 - 1, dims[2] as u64 - 1],
            shift: [s2, s3, s4],
        })
    }

    /// Splits an in-range address into `(col, field1..field4)`.
    #[inline(always)]
    fn fields(&self, addr: u64) -> (u32, usize, usize, usize, usize) {
        let col = (addr & self.col_mask) as u32;
        let ri = addr >> self.row_shift;
        (
            col,
            (ri & self.mask[0]) as usize,
            ((ri >> self.shift[0]) & self.mask[1]) as usize,
            ((ri >> self.shift[1]) & self.mask[2]) as usize,
            (ri >> self.shift[2]) as usize,
        )
    }

    /// Reassembles `(col, field1..field4)` into a flat address.
    #[inline(always)]
    fn assemble(&self, col: u32, f1: usize, f2: usize, f3: usize, f4: usize) -> u64 {
        let ri = f1 as u64
            | (f2 as u64) << self.shift[0]
            | (f3 as u64) << self.shift[1]
            | (f4 as u64) << self.shift[2];
        (ri << self.row_shift) | col as u64
    }
}

/// A concrete address decoder/encoder for one [`Geometry`].
///
/// `decode` and `encode` are exact inverses for every in-range address;
/// this invariant is property-tested, as is the equivalence of the
/// shift/mask fast path with the div/mod
/// [reference](AddressMap::decode_reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    kind: AddressMapKind,
    geom: Geometry,
    /// Cached `geom.capacity_bytes()` so bounds checks avoid three
    /// multiplications per decode.
    capacity: u64,
    /// Shift/mask plan; `None` for non-power-of-two geometries.
    plan: Option<Pow2Plan>,
}

impl AddressMap {
    /// Creates a map with the given interleaving over `geom`,
    /// precomputing the shift/mask fast path when the geometry allows.
    pub fn new(kind: AddressMapKind, geom: Geometry) -> Self {
        let dims = match kind {
            // Field order is innermost-first; the outermost field is
            // unbounded (capacity-checked) and needs no mask.
            AddressMapKind::Chunked => [geom.rows_per_bank, geom.banks_per_layer, geom.layers],
            AddressMapKind::RowInterleaved => {
                [geom.banks_per_layer, geom.layers, geom.rows_per_bank]
            }
            AddressMapKind::VaultInterleaved => [geom.vaults, geom.banks_per_layer, geom.layers],
        };
        AddressMap {
            kind,
            geom,
            capacity: geom.capacity_bytes(),
            plan: Pow2Plan::build(&geom, dims),
        }
    }

    /// Creates a map that never builds a shift/mask plan, so `decode`
    /// and `encode` always take the div/mod reference arithmetic — the
    /// pre-fast-path behaviour. Used by the reference service path and
    /// by tests that want the fallback on power-of-two geometries.
    pub fn reference(kind: AddressMapKind, geom: Geometry) -> Self {
        AddressMap {
            kind,
            geom,
            capacity: geom.capacity_bytes(),
            plan: None,
        }
    }

    /// The interleaving policy of this map.
    pub fn kind(&self) -> AddressMapKind {
        self.kind
    }

    /// The geometry this map decodes into.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// `true` if this map decodes with the shift/mask fast path
    /// (every geometry dimension is a power of two).
    pub fn is_shift_mask(&self) -> bool {
        self.plan.is_some()
    }

    /// Decodes a flat byte address into a physical location.
    ///
    /// Power-of-two geometries take the shift/mask fast path; others
    /// fall back to the [reference arithmetic](Self::decode_reference).
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] if `addr` is at or beyond the device
    /// capacity.
    #[inline]
    pub fn decode(&self, addr: u64) -> Result<Location> {
        if addr >= self.capacity {
            return Err(Error::OutOfRange {
                addr,
                capacity: self.capacity,
            });
        }
        let loc = match &self.plan {
            Some(plan) => {
                let (col, f1, f2, f3, f4) = plan.fields(addr);
                match self.kind {
                    AddressMapKind::Chunked => Location {
                        vault: f4,
                        layer: f3,
                        bank: f2,
                        row: f1,
                        col,
                    },
                    AddressMapKind::RowInterleaved => Location {
                        vault: f4,
                        layer: f2,
                        bank: f1,
                        row: f3,
                        col,
                    },
                    AddressMapKind::VaultInterleaved => Location {
                        vault: f1,
                        layer: f3,
                        bank: f2,
                        row: f4,
                        col,
                    },
                }
            }
            None => self.decode_arith(addr),
        };
        debug_assert!(self.geom.contains(loc));
        debug_assert_eq!(loc, self.decode_arith(addr), "fast/reference divergence");
        Ok(loc)
    }

    /// Encodes a physical location back into its flat byte address.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGeometry`] if `loc` does not belong to this
    /// map's geometry.
    #[inline]
    pub fn encode(&self, loc: Location) -> Result<u64> {
        if !self.geom.contains(loc) {
            return Err(Error::InvalidGeometry(format!(
                "location {loc} outside geometry"
            )));
        }
        let addr = match &self.plan {
            Some(plan) => match self.kind {
                AddressMapKind::Chunked => {
                    plan.assemble(loc.col, loc.row, loc.bank, loc.layer, loc.vault)
                }
                AddressMapKind::RowInterleaved => {
                    plan.assemble(loc.col, loc.bank, loc.layer, loc.row, loc.vault)
                }
                AddressMapKind::VaultInterleaved => {
                    plan.assemble(loc.col, loc.vault, loc.bank, loc.layer, loc.row)
                }
            },
            None => self.encode_arith(loc),
        };
        debug_assert_eq!(addr, self.encode_arith(loc), "fast/reference divergence");
        Ok(addr)
    }

    /// The location of the memory row following `loc`'s (column reset to
    /// zero) — the row a burst continues in after crossing a row
    /// boundary. Pure increment-with-carry arithmetic, so burst walks
    /// never re-decode. Returns `None` past the last row of the device.
    pub fn next_row_location(&self, loc: Location) -> Option<Location> {
        let g = &self.geom;
        let mut loc = Location { col: 0, ..loc };
        // Increment the innermost dimension of the row index and carry
        // outward, in this map's interleaving order.
        let order: [(&mut usize, usize); 4] = match self.kind {
            AddressMapKind::Chunked => {
                let Location {
                    vault,
                    layer,
                    bank,
                    row,
                    ..
                } = &mut loc;
                [
                    (row, g.rows_per_bank),
                    (bank, g.banks_per_layer),
                    (layer, g.layers),
                    (vault, g.vaults),
                ]
            }
            AddressMapKind::RowInterleaved => {
                let Location {
                    vault,
                    layer,
                    bank,
                    row,
                    ..
                } = &mut loc;
                [
                    (bank, g.banks_per_layer),
                    (layer, g.layers),
                    (row, g.rows_per_bank),
                    (vault, g.vaults),
                ]
            }
            AddressMapKind::VaultInterleaved => {
                let Location {
                    vault,
                    layer,
                    bank,
                    row,
                    ..
                } = &mut loc;
                [
                    (vault, g.vaults),
                    (bank, g.banks_per_layer),
                    (layer, g.layers),
                    (row, g.rows_per_bank),
                ]
            }
        };
        let mut overflow = true;
        for (field, limit) in order {
            *field += 1;
            if *field < limit {
                overflow = false;
                break;
            }
            *field = 0;
        }
        if overflow {
            return None;
        }
        Some(loc)
    }

    /// Analyzes a strided run — up to `beats` accesses at
    /// `addr + i·stride` — and returns
    /// `Some((start_location, row_step, fit))` iff the stride advances
    /// the in-bank row by a constant `row_step ≥ 1` per beat under this
    /// interleaving (same vault, layer, bank and column throughout).
    /// `fit ∈ [1, beats]` is the longest *prefix* that stays inside the
    /// starting bank and the device — a run that eventually crosses into
    /// the next bank is served bank by bank, each prefix fused.
    ///
    /// This is the pattern the paper's baseline column phase produces
    /// (one element per DRAM row); recognizing it lets each bank's
    /// stretch resolve in one fused scheduling pass. Returns `None` for
    /// anything else — strides that are not whole rows, or strides that
    /// hop vaults/banks under this interleaving. `None` is not final:
    /// the span classifier (`MemorySystem::service_paced_span`) still
    /// fuses row-multiple strides that hop banks, and strides dividing
    /// the row, as per-beat spans; this probe only decides whether the
    /// run stays in one bank.
    pub fn stride_run_location(
        &self,
        addr: u64,
        stride: u64,
        beats: u32,
    ) -> Option<(Location, usize, u32)> {
        let g = &self.geom;
        let row_bytes = g.row_bytes as u64;
        if beats == 0 || stride == 0 || !stride.is_multiple_of(row_bytes) || addr >= self.capacity {
            return None;
        }
        let step_rows = stride / row_bytes;
        let idx = addr / row_bytes;
        // Rows-per-beat advance within the bank, per interleaving: the
        // row-index step must be a whole multiple of everything that
        // interleaves *inside* the row dimension, else consecutive
        // beats hop banks, layers or vaults.
        let rows = g.rows_per_bank as u64;
        let (inner, row0) = match self.kind {
            AddressMapKind::Chunked => (1, idx % rows),
            AddressMapKind::RowInterleaved => {
                let inner = (g.banks_per_layer * g.layers) as u64;
                (inner, (idx / inner) % rows)
            }
            AddressMapKind::VaultInterleaved => {
                let inner = (g.vaults * g.banks_per_layer * g.layers) as u64;
                (inner, idx / inner)
            }
        };
        if !step_rows.is_multiple_of(inner) {
            return None;
        }
        let row_step = step_rows / inner;
        if row_step == 0 {
            return None;
        }
        // Longest prefix: beat k−1 must land on an in-bank row
        // (`row0 + (k−1)·row_step < rows`) and inside the device.
        let k_bank = (rows - 1 - row0) / row_step + 1;
        let k_cap = (self.capacity - 1 - addr) / stride + 1;
        // The min against `beats` bounds the prefix below u32::MAX, so
        // the conversion cannot fail; the fallback keeps it checked.
        let fit = u32::try_from(k_bank.min(k_cap).min(u64::from(beats))).unwrap_or(beats);
        let loc = self.decode(addr).ok()?;
        // A row step beyond usize (32-bit hosts) declines the fast path
        // rather than truncating.
        Some((loc, usize::try_from(row_step).ok()?, fit))
    }

    /// Decodes with the original div/mod chain, regardless of geometry —
    /// the **golden reference** for the shift/mask fast path. Same
    /// contract as [`decode`](Self::decode).
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] if `addr` is at or beyond the device
    /// capacity.
    pub fn decode_reference(&self, addr: u64) -> Result<Location> {
        if addr >= self.capacity {
            return Err(Error::OutOfRange {
                addr,
                capacity: self.capacity,
            });
        }
        Ok(self.decode_arith(addr))
    }

    /// Encodes with the original multiply/add chain, regardless of
    /// geometry — the golden reference for the fast path. Same contract
    /// as [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGeometry`] if `loc` does not belong to
    /// this map's geometry.
    pub fn encode_reference(&self, loc: Location) -> Result<u64> {
        if !self.geom.contains(loc) {
            return Err(Error::InvalidGeometry(format!(
                "location {loc} outside geometry"
            )));
        }
        Ok(self.encode_arith(loc))
    }

    /// The pre-fast-path decode arithmetic (bounds already checked).
    fn decode_arith(&self, addr: u64) -> Location {
        let row_bytes = self.geom.row_bytes as u64;
        let col = (addr % row_bytes) as u32;
        // Index of the memory row within the whole device.
        let row_idx = addr / row_bytes;

        let vaults = self.geom.vaults as u64;
        let layers = self.geom.layers as u64;
        let banks = self.geom.banks_per_layer as u64;
        let rows = self.geom.rows_per_bank as u64;

        match self.kind {
            AddressMapKind::Chunked => {
                // row, then bank, then layer, then vault.
                let row = row_idx % rows;
                let bank = (row_idx / rows) % banks;
                let layer = (row_idx / (rows * banks)) % layers;
                let vault = row_idx / (rows * banks * layers);
                Location {
                    vault: vault as usize,
                    layer: layer as usize,
                    bank: bank as usize,
                    row: row as usize,
                    col,
                }
            }
            AddressMapKind::RowInterleaved => {
                // bank, then layer, then row, then vault.
                let bank = row_idx % banks;
                let layer = (row_idx / banks) % layers;
                let row = (row_idx / (banks * layers)) % rows;
                let vault = row_idx / (banks * layers * rows);
                Location {
                    vault: vault as usize,
                    layer: layer as usize,
                    bank: bank as usize,
                    row: row as usize,
                    col,
                }
            }
            AddressMapKind::VaultInterleaved => {
                // vault, then bank, then layer, then row.
                let vault = row_idx % vaults;
                let bank = (row_idx / vaults) % banks;
                let layer = (row_idx / (vaults * banks)) % layers;
                let row = row_idx / (vaults * banks * layers);
                Location {
                    vault: vault as usize,
                    layer: layer as usize,
                    bank: bank as usize,
                    row: row as usize,
                    col,
                }
            }
        }
    }

    /// The pre-fast-path encode arithmetic (membership already checked).
    fn encode_arith(&self, loc: Location) -> u64 {
        let row_bytes = self.geom.row_bytes as u64;
        let layers = self.geom.layers as u64;
        let banks = self.geom.banks_per_layer as u64;
        let rows = self.geom.rows_per_bank as u64;
        let vaults = self.geom.vaults as u64;
        let (vault, layer, bank, row) = (
            loc.vault as u64,
            loc.layer as u64,
            loc.bank as u64,
            loc.row as u64,
        );

        let row_idx = match self.kind {
            AddressMapKind::Chunked => ((vault * layers + layer) * banks + bank) * rows + row,
            AddressMapKind::RowInterleaved => {
                ((vault * rows + row) * layers + layer) * banks + bank
            }
            AddressMapKind::VaultInterleaved => {
                ((row * layers + layer) * banks + bank) * vaults + vault
            }
        };
        row_idx * row_bytes + loc.col as u64
    }
}

impl AddressMapKind {
    /// A stable lower-case name (used in reports and JSON output).
    pub fn name(&self) -> &'static str {
        match self {
            AddressMapKind::Chunked => "chunked",
            AddressMapKind::RowInterleaved => "row-interleaved",
            AddressMapKind::VaultInterleaved => "vault-interleaved",
        }
    }
}

impl std::fmt::Display for AddressMapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_util::{prop_assert, prop_assert_eq, prop_check};

    const KINDS: [AddressMapKind; 3] = AddressMapKind::ALL;

    fn small_geom() -> Geometry {
        Geometry {
            vaults: 4,
            layers: 2,
            banks_per_layer: 2,
            rows_per_bank: 8,
            row_bytes: 64,
        }
    }

    /// A valid geometry with non-power-of-two vault/layer/bank/row
    /// counts (`row_bytes` must stay a power of two per `validate`).
    fn odd_geom() -> Geometry {
        Geometry {
            vaults: 3,
            layers: 5,
            banks_per_layer: 6,
            rows_per_bank: 7,
            row_bytes: 64,
        }
    }

    /// Draws a valid random geometry; roughly half the draws have at
    /// least one non-power-of-two dimension (fallback path).
    fn random_geom(rng: &mut sim_util::SimRng) -> Geometry {
        let dim = |rng: &mut sim_util::SimRng, pow2: bool| -> usize {
            if pow2 {
                1 << rng.gen_range(0u32..4)
            } else {
                rng.gen_range(1usize..12)
            }
        };
        let pow2 = rng.gen_bool();
        Geometry {
            vaults: dim(rng, pow2),
            layers: dim(rng, pow2),
            banks_per_layer: dim(rng, pow2),
            rows_per_bank: dim(rng, pow2),
            row_bytes: 1 << rng.gen_range(3u32..10),
        }
    }

    #[test]
    fn chunked_keeps_sequential_in_one_vault() {
        let map = AddressMap::new(AddressMapKind::Chunked, small_geom());
        for addr in 0..small_geom().vault_bytes() {
            assert_eq!(map.decode(addr).unwrap().vault, 0);
        }
        assert_eq!(map.decode(small_geom().vault_bytes()).unwrap().vault, 1);
    }

    #[test]
    fn vault_interleaved_rotates_vaults_per_row() {
        let g = small_geom();
        let map = AddressMap::new(AddressMapKind::VaultInterleaved, g);
        for i in 0..8u64 {
            let loc = map.decode(i * g.row_bytes as u64).unwrap();
            assert_eq!(loc.vault, (i % g.vaults as u64) as usize);
        }
    }

    #[test]
    fn row_interleaved_rotates_banks_per_row() {
        let g = small_geom();
        let map = AddressMap::new(AddressMapKind::RowInterleaved, g);
        let a = map.decode(0).unwrap();
        let b = map.decode(g.row_bytes as u64).unwrap();
        assert_eq!(a.vault, b.vault);
        assert_ne!((a.layer, a.bank), (b.layer, b.bank));
    }

    #[test]
    fn decode_rejects_out_of_range() {
        for g in [small_geom(), odd_geom()] {
            for kind in KINDS {
                let map = AddressMap::new(kind, g);
                assert!(map.decode(g.capacity_bytes()).is_err());
                assert!(map.decode_reference(g.capacity_bytes()).is_err());
            }
        }
    }

    #[test]
    fn encode_rejects_foreign_location() {
        let map = AddressMap::new(AddressMapKind::Chunked, small_geom());
        let bad = Location {
            vault: 99,
            ..Location::ZERO
        };
        assert!(map.encode(bad).is_err());
        assert!(map.encode_reference(bad).is_err());
    }

    #[test]
    fn pow2_geometry_uses_shift_mask_and_odd_falls_back() {
        for kind in KINDS {
            assert!(AddressMap::new(kind, small_geom()).is_shift_mask());
            assert!(AddressMap::new(kind, Geometry::default()).is_shift_mask());
            assert!(!AddressMap::new(kind, odd_geom()).is_shift_mask());
        }
    }

    #[test]
    fn decode_encode_round_trip() {
        prop_check!(|rng| {
            let addr = rng.gen_range(0u64..small_geom().capacity_bytes());
            let kind = KINDS[rng.gen_range(0usize..3)];
            let map = AddressMap::new(kind, small_geom());
            let loc = map.decode(addr).unwrap();
            prop_assert!(small_geom().contains(loc), "{kind:?} at {addr}: {loc}");
            prop_assert_eq!(map.encode(loc).unwrap(), addr, "{:?}", kind);
        });
    }

    #[test]
    fn fast_path_matches_reference_on_random_geometries() {
        // The tentpole contract: shift/mask decode/encode agree with the
        // div/mod reference for every kind, over random in-range
        // addresses, on both power-of-two and fallback geometries.
        prop_check!(cases: 256, |rng| {
            let g = random_geom(rng);
            let kind = KINDS[rng.gen_range(0usize..3)];
            let map = AddressMap::new(kind, g);
            let addr = rng.gen_range(0u64..g.capacity_bytes());
            let fast = map.decode(addr).unwrap();
            let reference = map.decode_reference(addr).unwrap();
            prop_assert_eq!(fast, reference, "{:?} over {:?} at {}", kind, g, addr);
            prop_assert_eq!(
                map.encode(fast).unwrap(),
                map.encode_reference(reference).unwrap(),
                "{:?} over {:?}",
                kind,
                g
            );
            prop_assert_eq!(map.encode(fast).unwrap(), addr);
        });
    }

    #[test]
    fn odd_geometry_round_trips_through_fallback() {
        prop_check!(|rng| {
            let g = odd_geom();
            let kind = KINDS[rng.gen_range(0usize..3)];
            let map = AddressMap::new(kind, g);
            prop_assert!(!map.is_shift_mask());
            let addr = rng.gen_range(0u64..g.capacity_bytes());
            let loc = map.decode(addr).unwrap();
            prop_assert!(g.contains(loc), "{kind:?} at {addr}: {loc}");
            prop_assert_eq!(map.encode(loc).unwrap(), addr, "{:?}", kind);
        });
    }

    #[test]
    fn next_row_location_matches_decode_of_next_row() {
        prop_check!(cases: 128, |rng| {
            let g = random_geom(rng);
            let kind = KINDS[rng.gen_range(0usize..3)];
            let map = AddressMap::new(kind, g);
            let rows = g.capacity_bytes() / g.row_bytes as u64;
            let ri = rng.gen_range(0u64..rows);
            let loc = map.decode(ri * g.row_bytes as u64).unwrap();
            let next = map.next_row_location(loc);
            if ri + 1 == rows {
                prop_assert_eq!(next, None, "{:?} over {:?}: last row", kind, g);
            } else {
                let expect = map.decode((ri + 1) * g.row_bytes as u64).unwrap();
                prop_assert_eq!(next, Some(expect), "{:?} over {:?} row {}", kind, g, ri);
            }
        });
    }

    #[test]
    fn stride_run_location_matches_per_beat_decode() {
        // Soundness: whenever a strided run is recognized, every beat it
        // claims must decode (via the div/mod reference) to the same
        // vault/layer/bank/column with the row advancing by exactly the
        // reported step.
        prop_check!(cases: 256, |rng| {
            let g = random_geom(rng);
            let kind = KINDS[rng.gen_range(0usize..3)];
            let map = AddressMap::new(kind, g);
            let row = g.row_bytes as u64;
            let inner = match kind {
                AddressMapKind::Chunked => 1u64,
                AddressMapKind::RowInterleaved => (g.banks_per_layer * g.layers) as u64,
                AddressMapKind::VaultInterleaved => {
                    (g.vaults * g.banks_per_layer * g.layers) as u64
                }
            };
            let stride = match rng.gen_range(0usize..3) {
                // Aligned to the interleaving: the accept case.
                0 => inner * row * rng.gen_range(1u64..4),
                // Whole rows but not necessarily interleaving-aligned.
                1 => row * rng.gen_range(1u64..8),
                // Arbitrary bytes: must be rejected outright.
                _ => rng.gen_range(1u64..2 * row),
            };
            let beats = rng.gen_range(1u32..9);
            let addr = rng.gen_range(0u64..g.capacity_bytes());
            match map.stride_run_location(addr, stride, beats) {
                Some((loc, step, fit)) => {
                    prop_assert!(step >= 1, "{kind:?} over {g:?}: zero row step");
                    prop_assert!(
                        (1..=beats).contains(&fit),
                        "{kind:?} over {g:?}: fit {fit} outside 1..={beats}"
                    );
                    prop_assert_eq!(
                        loc,
                        map.decode_reference(addr).unwrap(),
                        "{:?} over {:?}: start location",
                        kind,
                        g
                    );
                    for i in 1..fit as u64 {
                        let got = map.decode_reference(addr + i * stride).unwrap();
                        let want = Location {
                            row: loc.row + i as usize * step,
                            ..loc
                        };
                        prop_assert_eq!(
                            got,
                            want,
                            "{:?} over {:?}: beat {} of stride {}",
                            kind,
                            g,
                            i,
                            stride
                        );
                    }
                    // The prefix is maximal: one more beat would leave
                    // the device or the bank.
                    if fit < beats {
                        let next = addr + fit as u64 * stride;
                        match map.decode_reference(next) {
                            Err(_) => {}
                            Ok(l) => prop_assert!(
                                (l.vault, l.layer, l.bank)
                                    != (loc.vault, loc.layer, loc.bank),
                                "{kind:?} over {g:?}: prefix {fit} not maximal"
                            ),
                        }
                    }
                }
                None => {
                    prop_assert!(
                        !stride.is_multiple_of(row)
                            || !(stride / row).is_multiple_of(inner)
                            || stride < inner * row
                            || addr >= g.capacity_bytes(),
                        "{kind:?} over {g:?}: rejected a valid run \
                         (addr {addr}, stride {stride}, beats {beats})"
                    );
                }
            }
        });
    }

    #[test]
    fn decode_is_injective_on_rows() {
        prop_check!(|rng| {
            // Distinct memory-row indexes decode to distinct (vault, layer,
            // bank, row) tuples.
            let g = small_geom();
            let rows = g.capacity_bytes() / 64;
            let a = rng.gen_range(0u64..rows);
            let b = rng.gen_range(0u64..rows);
            let kind = KINDS[rng.gen_range(0usize..3)];
            let map = AddressMap::new(kind, g);
            let la = map.decode(a * g.row_bytes as u64).unwrap();
            let lb = map.decode(b * g.row_bytes as u64).unwrap();
            if a != b {
                prop_assert!(!la.same_row(&lb), "{kind:?}: rows {a} and {b} collide");
            } else {
                prop_assert_eq!(la, lb, "{:?}: row {}", kind, a);
            }
        });
    }
}
