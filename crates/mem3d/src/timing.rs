//! Time representation and the paper's timing parameters.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration or absolute point in time, in picoseconds.
///
/// Every timestamp in the simulator is a `Picos`. Picosecond resolution is
/// fine enough to express sub-nanosecond TSV transfer slots exactly while
/// a `u64` still spans ~213 days of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Picos(pub u64);

impl Picos {
    /// Zero duration.
    pub const ZERO: Picos = Picos(0);

    /// The end of simulated time: a horizon no grant ever reaches.
    pub const MAX: Picos = Picos(u64::MAX);

    /// Creates a duration from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Picos(ns * 1_000)
    }

    /// Creates a duration from a fractional number of nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    // simlint::allow(T101): the one sanctioned f64→Picos boundary — rounds once, here
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "invalid duration: {ns} ns");
        Picos((ns * 1_000.0).round() as u64)
    }

    /// This duration expressed in (fractional) nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This duration expressed in (fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Picos) -> Picos {
        Picos(self.0.saturating_sub(rhs.0))
    }

    /// Converts a femtosecond clock reading (the driver's kernel clock
    /// runs in integer femtoseconds, accumulated in `u128`) to whole
    /// picoseconds, **saturating** at the `Picos` range ceiling instead
    /// of silently truncating the high bits as a bare `as u64` cast
    /// would. Every fs→ps conversion shared between the driver and the
    /// paced fast paths must go through this one function so both sides
    /// stay bit-identical even at the (unreachable in practice, ~213
    /// simulated days) ceiling.
    pub fn from_fs_clock(fs: u128) -> Picos {
        Picos(u64::try_from(fs / 1_000).unwrap_or(u64::MAX))
    }

    /// The larger of two times.
    pub fn max(self, other: Picos) -> Picos {
        Picos(self.0.max(other.0))
    }
}

impl Add for Picos {
    type Output = Picos;
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl Mul<u64> for Picos {
    type Output = Picos;
    fn mul(self, rhs: u64) -> Picos {
        Picos(self.0 * rhs)
    }
}

impl Div<u64> for Picos {
    type Output = Picos;
    fn div(self, rhs: u64) -> Picos {
        Picos(self.0 / rhs)
    }
}

impl Sum for Picos {
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        iter.fold(Picos::ZERO, Add::add)
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} ms", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3} us", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} ns", self.0 as f64 / 1e3)
        } else {
            write!(f, "{} ps", self.0)
        }
    }
}

/// The 3D-memory timing parameters defined in Section 3.1 of the paper,
/// plus the TSV link rate that turns command schedules into bandwidth.
///
/// All four inter-command constraints are minimum separations between the
/// *start* times of the affected operations:
///
/// * [`t_in_row`](Self::t_in_row): successive column accesses to elements
///   in the *same open row* of the same bank;
/// * [`t_diff_row`](Self::t_diff_row): successive activates to *different
///   rows in the same bank* (the most expensive case);
/// * [`t_diff_bank`](Self::t_diff_bank): successive activates to different
///   rows in *different banks on the same layer* of a vault;
/// * [`t_in_vault`](Self::t_in_vault): successive activates to different
///   rows in different banks of the same vault on *different layers*,
///   which pipeline through the shared TSVs and are therefore cheaper
///   than `t_diff_bank`.
///
/// Accesses to different vaults have no mutual constraint (the paper
/// explicitly defines no `t_diff_vault`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Same-bank, same-open-row column access separation.
    pub t_in_row: Picos,
    /// Same-bank activate-to-activate separation (row cycle time).
    pub t_diff_row: Picos,
    /// Different-bank, same-layer activate-to-activate separation.
    pub t_diff_bank: Picos,
    /// Different-bank, different-layer (pipelined) activate separation.
    pub t_in_vault: Picos,
    /// Latency from an activate command until the row is open and the
    /// first column access may start (row-to-column delay).
    pub t_activate: Picos,
    /// Latency from a column access command until its first data beat
    /// appears on the TSVs (CAS-style latency).
    pub t_column: Picos,
    /// Time the shared per-vault TSV link needs to move one byte.
    ///
    /// The reciprocal is the per-vault peak bandwidth; the device peak is
    /// `vaults / tsv_ps_per_byte`.
    pub tsv_ps_per_byte: Picos,
    /// All-bank refresh interval per vault (`tREFI`); zero disables
    /// refresh modelling (the default, so calibration experiments are
    /// refresh-free unless opted in via
    /// [`with_refresh`](TimingParams::with_refresh)).
    pub t_refi: Picos,
    /// Refresh cycle time (`tRFC`): how long the vault is blocked at the
    /// start of each refresh interval.
    pub t_rfc: Picos,
}

impl TimingParams {
    /// Per-vault peak TSV bandwidth in GB/s.
    pub fn vault_peak_gbps(&self) -> f64 {
        1_000.0 / self.tsv_ps_per_byte.as_ps() as f64
    }

    /// The same parameters with DDR-class refresh enabled
    /// (`tREFI` 7.8 µs, `tRFC` 350 ns ≈ 4.5 % of time blocked).
    pub fn with_refresh(self) -> Self {
        TimingParams {
            t_refi: Picos::from_ns(7_800),
            t_rfc: Picos::from_ns(350),
            ..self
        }
    }

    /// `true` if refresh modelling is active.
    pub fn refresh_enabled(&self) -> bool {
        self.t_refi != Picos::ZERO
    }

    /// Pushes a command start time out of any refresh window: the vault
    /// is blocked during `[k·tREFI, k·tREFI + tRFC)` for every `k`.
    pub fn avoid_refresh(&self, t: Picos) -> Picos {
        if !self.refresh_enabled() {
            return t;
        }
        let phase = t.as_ps() % self.t_refi.as_ps();
        if phase < self.t_rfc.as_ps() {
            Picos(t.as_ps() + self.t_rfc.as_ps() - phase)
        } else {
            t
        }
    }

    /// Validates the internal consistency documented on this type.
    ///
    /// # Errors
    ///
    /// Returns an error if any separation is zero or if the ordering
    /// `t_in_row <= t_in_vault <= t_diff_bank <= t_diff_row` expected by
    /// the paper's model is violated.
    pub fn validate(&self) -> crate::Result<()> {
        if self.tsv_ps_per_byte == Picos::ZERO {
            return Err(crate::Error::InvalidTiming(
                "tsv_ps_per_byte must be non-zero".into(),
            ));
        }
        if self.t_in_row == Picos::ZERO || self.t_diff_row == Picos::ZERO {
            return Err(crate::Error::InvalidTiming(
                "t_in_row and t_diff_row must be non-zero".into(),
            ));
        }
        if !(self.t_in_row <= self.t_in_vault
            && self.t_in_vault <= self.t_diff_bank
            && self.t_diff_bank <= self.t_diff_row)
        {
            return Err(crate::Error::InvalidTiming(format!(
                "expected t_in_row <= t_in_vault <= t_diff_bank <= t_diff_row, got \
                 {} <= {} <= {} <= {}",
                self.t_in_row, self.t_in_vault, self.t_diff_bank, self.t_diff_row
            )));
        }
        Ok(())
    }
}

impl Default for TimingParams {
    /// HMC-generation defaults used throughout the reproduction:
    /// 20 ns row cycle, 5 ns cross-bank gap, 2.5 ns cross-layer gap,
    /// 0.8 ns column-to-column gap, and a 5 GB/s per-vault TSV link
    /// (200 ps per byte), giving an 80 GB/s peak for 16 vaults.
    fn default() -> Self {
        TimingParams {
            t_in_row: Picos(800), // 0.8 ns, constructed exactly
            t_diff_row: Picos::from_ns(20),
            t_diff_bank: Picos::from_ns(5),
            t_in_vault: Picos(2_500), // 2.5 ns, constructed exactly
            t_activate: Picos::from_ns(10),
            t_column: Picos::from_ns(5),
            tsv_ps_per_byte: Picos(200),
            t_refi: Picos::ZERO,
            t_rfc: Picos::ZERO,
        }
    }
}

impl TimingParams {
    /// Serializes the timing parameters as a JSON object; every field is
    /// expressed in integer picoseconds.
    pub fn to_json(&self) -> String {
        let mut o = sim_util::json::JsonObject::new();
        o.field_u64("t_in_row_ps", self.t_in_row.as_ps());
        o.field_u64("t_diff_row_ps", self.t_diff_row.as_ps());
        o.field_u64("t_diff_bank_ps", self.t_diff_bank.as_ps());
        o.field_u64("t_in_vault_ps", self.t_in_vault.as_ps());
        o.field_u64("t_activate_ps", self.t_activate.as_ps());
        o.field_u64("t_column_ps", self.t_column.as_ps());
        o.field_u64("tsv_ps_per_byte", self.tsv_ps_per_byte.as_ps());
        o.field_u64("t_refi_ps", self.t_refi.as_ps());
        o.field_u64("t_rfc_ps", self.t_rfc.as_ps());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picos_constructors_round_trip() {
        assert_eq!(Picos::from_ns(3).as_ps(), 3_000);
        assert_eq!(Picos::from_ns_f64(2.5).as_ps(), 2_500);
        assert!((Picos(1_234).as_ns_f64() - 1.234).abs() < 1e-12);
    }

    #[test]
    fn picos_arithmetic() {
        let a = Picos(100);
        let b = Picos(40);
        assert_eq!(a + b, Picos(140));
        assert_eq!(a - b, Picos(60));
        assert_eq!(a * 3, Picos(300));
        assert_eq!(a / 4, Picos(25));
        assert_eq!(b.saturating_sub(a), Picos::ZERO);
        assert_eq!(a.max(b), a);
        let total: Picos = [a, b, Picos(1)].into_iter().sum();
        assert_eq!(total, Picos(141));
    }

    #[test]
    fn picos_display_scales_units() {
        assert_eq!(Picos(5).to_string(), "5 ps");
        assert_eq!(Picos(2_500).to_string(), "2.500 ns");
        assert_eq!(Picos(2_500_000).to_string(), "2.500 us");
        assert_eq!(Picos(2_500_000_000).to_string(), "2.500 ms");
    }

    #[test]
    fn default_timing_is_valid_and_matches_paper_band() {
        let t = TimingParams::default();
        t.validate().expect("default timing must be valid");
        assert!((t.vault_peak_gbps() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_inverted_ordering() {
        let t = TimingParams {
            t_in_vault: Picos::from_ns(50),
            ..TimingParams::default()
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_link_rate() {
        let t = TimingParams {
            tsv_ps_per_byte: Picos::ZERO,
            ..TimingParams::default()
        };
        assert!(t.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_ns_f64_rejects_negative() {
        let _ = Picos::from_ns_f64(-1.0);
    }

    #[test]
    fn refresh_is_off_by_default() {
        let t = TimingParams::default();
        assert!(!t.refresh_enabled());
        assert_eq!(t.avoid_refresh(Picos(123)), Picos(123));
    }

    #[test]
    fn avoid_refresh_skips_blocked_windows() {
        let t = TimingParams::default().with_refresh();
        assert!(t.refresh_enabled());
        // Time 0 falls inside the first refresh window.
        assert_eq!(t.avoid_refresh(Picos::ZERO), t.t_rfc);
        // Mid-window time is pushed to the window's end.
        let mid = Picos(t.t_rfc.as_ps() / 2);
        assert_eq!(t.avoid_refresh(mid), t.t_rfc);
        // Times between windows pass through unchanged.
        let free = Picos(t.t_rfc.as_ps() + 1_000);
        assert_eq!(t.avoid_refresh(free), free);
        // The pattern repeats every tREFI.
        let second = Picos(t.t_refi.as_ps() + 5);
        assert_eq!(
            t.avoid_refresh(second),
            Picos(t.t_refi.as_ps() + t.t_rfc.as_ps())
        );
    }
}
