//! Physical organization of the 3D memory stack.

use crate::{Error, Result};

/// Physical organization of the stack: how many vaults, layers, banks and
/// rows the device has and how wide a row is.
///
/// Terminology follows the paper's Fig. 1: a **vault** is the vertical
/// group of banks (one per layer) that shares a TSV bundle; `banks` below
/// is the paper's *B*, the banks of one vault that reside on one layer is
/// always 1 here, so a vault has `layers` banks in total — plus
/// `banks_per_layer` independent banks side by side on each layer.
///
/// The total number of banks in one vault is
/// `layers * banks_per_layer`, matching the paper's statement that the
/// banks of one layer belonging to a vault are "analogous to the banks in
/// a chip in the 2D memory".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Number of independent vaults (each with its own controller + TSVs).
    pub vaults: usize,
    /// Number of stacked memory layers.
    pub layers: usize,
    /// Banks per vault per layer (the paper's `B`).
    pub banks_per_layer: usize,
    /// DRAM rows per bank.
    pub rows_per_bank: usize,
    /// Bytes per DRAM row (the row-buffer size, the paper's `s` in bytes).
    pub row_bytes: usize,
}

impl Geometry {
    /// Total banks in one vault across all layers.
    pub fn banks_per_vault(&self) -> usize {
        self.layers * self.banks_per_layer
    }

    /// Total device capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.vaults as u64
            * self.banks_per_vault() as u64
            * self.rows_per_bank as u64
            * self.row_bytes as u64
    }

    /// Bytes held by a single vault.
    pub fn vault_bytes(&self) -> u64 {
        self.capacity_bytes() / self.vaults as u64
    }

    /// Validates that every dimension is non-zero, that `row_bytes` is
    /// a power of two (required by the address decomposition) and that
    /// the capacity in bytes fits a `u64` (flat addresses are `u64`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGeometry`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        let dims = [
            ("vaults", self.vaults),
            ("layers", self.layers),
            ("banks_per_layer", self.banks_per_layer),
            ("rows_per_bank", self.rows_per_bank),
            ("row_bytes", self.row_bytes),
        ];
        for (name, v) in dims {
            if v == 0 {
                return Err(Error::InvalidGeometry(format!("{name} must be non-zero")));
            }
        }
        if !self.row_bytes.is_power_of_two() {
            return Err(Error::InvalidGeometry(format!(
                "row_bytes must be a power of two, got {}",
                self.row_bytes
            )));
        }
        let capacity = dims
            .iter()
            .try_fold(1u64, |acc, &(_, v)| acc.checked_mul(v as u64));
        if capacity.is_none() {
            return Err(Error::InvalidGeometry(
                "capacity in bytes overflows u64".into(),
            ));
        }
        Ok(())
    }

    /// Decodes a flat byte address with the default *chunked* map
    /// ([`crate::AddressMapKind::Chunked`]): column within row, row within
    /// bank, bank within layer, layer within vault, vault last. See
    /// [`crate::AddressMap`] for alternative interleavings.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] if `addr` exceeds the capacity.
    pub fn location_of(&self, addr: u64) -> Result<Location> {
        crate::AddressMap::new(crate::AddressMapKind::Chunked, *self).decode(addr)
    }

    /// `true` if `loc` indexes a real vault/layer/bank/row of this device.
    pub fn contains(&self, loc: Location) -> bool {
        loc.vault < self.vaults
            && loc.layer < self.layers
            && loc.bank < self.banks_per_layer
            && loc.row < self.rows_per_bank
            && (loc.col as usize) < self.row_bytes
    }
}

impl Default for Geometry {
    /// A 4 GiB, 16-vault, 4-layer stack with 8 banks per vault-layer and
    /// 8 KiB rows — the configuration used for the paper reproduction.
    fn default() -> Self {
        Geometry {
            vaults: 16,
            layers: 4,
            banks_per_layer: 8,
            rows_per_bank: 8192,
            row_bytes: 8192,
        }
    }
}

/// A fully-decoded physical location inside the stack.
///
/// `bank` is the bank index *within one layer* of the vault; together with
/// `layer` it names one physical bank. `col` is the byte offset within the
/// row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Location {
    /// Vault index.
    pub vault: usize,
    /// Layer index within the vault.
    pub layer: usize,
    /// Bank index within the layer.
    pub bank: usize,
    /// Row index within the bank.
    pub row: usize,
    /// Byte offset within the row.
    pub col: u32,
}

impl Location {
    /// A location at the origin of the device.
    pub const ZERO: Location = Location {
        vault: 0,
        layer: 0,
        bank: 0,
        row: 0,
        col: 0,
    };

    /// Flat index of the physical bank within the vault
    /// (`layer * banks_per_layer + bank`).
    pub fn bank_in_vault(&self, geom: &Geometry) -> usize {
        self.layer * geom.banks_per_layer + self.bank
    }

    /// `true` if `self` and `other` name the same physical bank.
    pub fn same_bank(&self, other: &Location) -> bool {
        self.vault == other.vault && self.layer == other.layer && self.bank == other.bank
    }

    /// `true` if `self` and `other` name the same open-row candidate
    /// (same physical bank *and* same row).
    pub fn same_row(&self, other: &Location) -> bool {
        self.same_bank(other) && self.row == other.row
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "v{}/l{}/b{}/r{}+{}",
            self.vault, self.layer, self.bank, self.row, self.col
        )
    }
}

impl Geometry {
    /// Serializes the geometry as a JSON object (the hand-rolled
    /// replacement for the former `serde` derive; see `sim_util::json`).
    pub fn to_json(&self) -> String {
        let mut o = sim_util::json::JsonObject::new();
        o.field_u64("vaults", self.vaults as u64);
        o.field_u64("layers", self.layers as u64);
        o.field_u64("banks_per_layer", self.banks_per_layer as u64);
        o.field_u64("rows_per_bank", self.rows_per_bank as u64);
        o.field_u64("row_bytes", self.row_bytes as u64);
        o.field_u64("capacity_bytes", self.capacity_bytes());
        o.finish()
    }
}

impl Location {
    /// Serializes the location as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = sim_util::json::JsonObject::new();
        o.field_u64("vault", self.vault as u64);
        o.field_u64("layer", self.layer as u64);
        o.field_u64("bank", self.bank as u64);
        o.field_u64("row", self.row as u64);
        o.field_u64("col", u64::from(self.col));
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_valid() {
        let g = Geometry::default();
        g.validate().unwrap();
        assert_eq!(g.banks_per_vault(), 32);
        assert_eq!(g.capacity_bytes(), 16 * 32 * 8192 * 8192);
        assert_eq!(g.vault_bytes() * 16, g.capacity_bytes());
    }

    #[test]
    fn validate_rejects_zero_dims() {
        for field in 0..5 {
            let mut g = Geometry::default();
            match field {
                0 => g.vaults = 0,
                1 => g.layers = 0,
                2 => g.banks_per_layer = 0,
                3 => g.rows_per_bank = 0,
                _ => g.row_bytes = 0,
            }
            assert!(g.validate().is_err(), "field {field} should be rejected");
        }
    }

    #[test]
    fn validate_rejects_non_power_of_two_row() {
        let g = Geometry {
            row_bytes: 1000,
            ..Geometry::default()
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn location_of_start_and_end() {
        let g = Geometry::default();
        assert_eq!(g.location_of(0).unwrap(), Location::ZERO);
        assert!(g.location_of(g.capacity_bytes()).is_err());
        let last = g.location_of(g.capacity_bytes() - 1).unwrap();
        assert!(g.contains(last));
        assert_eq!(last.vault, g.vaults - 1);
    }

    #[test]
    fn location_predicates() {
        let g = Geometry::default();
        let a = Location {
            vault: 1,
            layer: 2,
            bank: 3,
            row: 4,
            col: 5,
        };
        let b = Location { col: 100, ..a };
        let c = Location { row: 9, ..a };
        assert!(a.same_row(&b));
        assert!(a.same_bank(&c));
        assert!(!a.same_row(&c));
        assert_eq!(a.bank_in_vault(&g), 2 * 8 + 3);
        assert_eq!(a.to_string(), "v1/l2/b3/r4+5");
    }

    #[test]
    fn contains_rejects_out_of_bounds() {
        let g = Geometry::default();
        assert!(!g.contains(Location {
            vault: 16,
            ..Location::ZERO
        }));
        assert!(!g.contains(Location {
            col: 8192,
            ..Location::ZERO
        }));
    }
}
