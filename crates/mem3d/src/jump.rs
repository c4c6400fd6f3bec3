//! The steady-state jump engine (DESIGN.md, "The steady-state jump"):
//! after each whole period of a periodic span it snapshots the touched
//! state, and once two consecutive snapshots are the same state shifted
//! by Δ after a shift-covariant period, it jumps the periods that
//! repeat the last one in closed form. A [`Span`] names the period: one
//! beat advancing `row_step` rows for a same-bank stretch, one run
//! advancing none for a train.

use crate::controller::VaultClocks;
use crate::system::{FS_PER_PS, MAX_ARRIVAL};
use crate::{BankState, Direction, Geometry, Location, Picos, Result, RunPacing, RunServed};
use crate::{Stats, TimingParams, TraceOp, VaultController};

/// The shape of a periodic span.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Span {
    /// Periods in the span.
    pub periods: u32,
    /// Beats per period.
    pub beats: u32,
    /// Rows each touched bank's open row advances per period.
    pub row_advance: usize,
}

/// The state of a span's touched banks and vaults at one period
/// boundary.
#[derive(Clone, Default)]
struct Boundary {
    /// The latest completion of the period that ended here.
    done: Picos,
    /// The kernel clock, in fs.
    t_fs: u128,
    banks: Vec<BankState>,
    vaults: Vec<VaultClocks>,
    /// Each touched vault's statistics (not compared: the difference
    /// of two boundaries is one period's delta).
    stats: Vec<Stats>,
}

impl Boundary {
    /// `Some(Δ)` when `next`, one period later, is this state shifted
    /// by Δ = the gap between the two periods' latest completions:
    /// every open row advanced by exactly `row_advance`, the kernel
    /// clock moved by exactly Δ, and every other time either moved by
    /// exactly Δ (the period wrote it) or did not move (the period
    /// never wrote it, and no later period will read it).
    fn shift_to(&self, next: &Boundary, row_advance: usize) -> Option<u64> {
        let delta = next
            .done
            .as_ps()
            .checked_sub(self.done.as_ps())
            .filter(|&d| d > 0)?;
        let moved = |a: Picos, b: Picos| a == b || a.as_ps().checked_add(delta) == Some(b.as_ps());
        let moved_opt = |a: Option<Picos>, b: Option<Picos>| match (a, b) {
            (Some(a), Some(b)) => moved(a, b),
            (a, b) => a == b,
        };
        let banks = self.banks.iter().zip(&next.banks).all(|(a, b)| {
            a.open_row.map(|r| r + row_advance) == b.open_row
                && moved_opt(a.last_activate, b.last_activate)
                && moved_opt(a.last_column, b.last_column)
        });
        let vaults = self.vaults.iter().zip(&next.vaults).all(|(a, b)| {
            let gate = match (a.0, b.0) {
                (Some((ta, la, ba)), Some((tb, lb, bb))) => (la, ba) == (lb, bb) && moved(ta, tb),
                (a, b) => a == b,
            };
            gate && moved(a.1, b.1)
        });
        let kernel = self.t_fs.checked_add(u128::from(delta) * FS_PER_PS) == Some(next.t_fs);
        (kernel && banks && vaults).then_some(delta)
    }
}

/// Whether a period served with the kernel clock going from `start_fs`
/// to `end_fs` under `pacing` is shift-covariant: every beat's arrival
/// was the raw reading `(t_kernel_fs − window_fs) / 1000` — the window
/// subtraction did not saturate, the reading was not floored, and it
/// fit a [`Picos`]. The clock only grows, so checking both ends covers
/// every beat. Compares in femtoseconds: a reading is at least `floor`
/// exactly when `t_kernel_fs − window_fs ≥ floor·1000`, and fits a
/// `u64` exactly when `t_kernel_fs − window_fs < 2⁶⁴·1000`.
fn covariant(pacing: &RunPacing, start_fs: u128, end_fs: u128) -> bool {
    let raw = |t: u128| t.checked_sub(pacing.window_fs);
    raw(start_fs).is_some_and(|r| r >= u128::from(pacing.floor.as_ps()) * FS_PER_PS)
        && raw(end_fs).is_some_and(|r| r < (1u128 << 64) * FS_PER_PS)
}

/// The jump engine's scratch for one span at a time, sized at
/// construction so a span never allocates: the banks and vaults a
/// period touches and the state at the last two period boundaries. It
/// holds no simulated state, so `Debug` leaves it out of the device's
/// observables.
#[derive(Clone, Default)]
pub(crate) struct Jump {
    geom: Geometry,
    /// Whether the device refreshes: refresh fires at absolute times,
    /// so no span jumps.
    refresh: bool,
    span: Span,
    /// Whole periods of the current span served so far.
    served: u32,
    /// Whether the current span may jump: refresh is off, every beat of
    /// its first period decoded and two periods are left to serve.
    armed: bool,
    /// Whether `prev` holds the boundary a served period ended at.
    marked: bool,
    /// Touched banks as (vault, bank within the vault), first touch
    /// first.
    banks: Vec<(usize, usize)>,
    /// Touched vaults, first touch first.
    vaults: Vec<usize>,
    /// The bytes each vault reads and writes per period, by vault; zero
    /// for untouched vaults.
    vault_bytes: Vec<(u64, u64)>,
    /// Membership flags by flat bank index and by vault; all clear
    /// between spans.
    bank_seen: Vec<bool>,
    vault_seen: Vec<bool>,
    prev: Boundary,
    cur: Boundary,
    /// The touched vaults' statistics after a jump, checked before any
    /// of them is installed.
    jumped: Vec<Stats>,
    /// Periods served one by one (not jumped), the head included, so
    /// tests can prove the jump engages: a jump follows at least two.
    #[cfg(test)]
    pub(crate) periods: u64,
}

impl std::fmt::Debug for Jump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Jump").finish_non_exhaustive()
    }
}

impl Jump {
    pub(crate) fn new(geom: &Geometry, timing: &TimingParams) -> Self {
        let banks = geom.vaults * geom.banks_per_vault();
        let boundary = || Boundary {
            banks: Vec::with_capacity(banks),
            vaults: Vec::with_capacity(geom.vaults),
            stats: Vec::with_capacity(geom.vaults),
            ..Boundary::default()
        };
        Jump {
            geom: *geom,
            refresh: timing.refresh_enabled(),
            banks: Vec::with_capacity(banks),
            vaults: Vec::with_capacity(geom.vaults),
            vault_bytes: vec![(0, 0); geom.vaults],
            bank_seen: vec![false; banks],
            vault_seen: vec![false; geom.vaults],
            prev: boundary(),
            cur: boundary(),
            jumped: Vec::with_capacity(geom.vaults),
            ..Jump::default()
        }
    }

    /// The current span and the whole periods of it served so far.
    pub(crate) fn progress(&self) -> (Span, u32) {
        (self.span, self.served)
    }

    /// Starts `span` after `head`, its first `served` periods, whose
    /// every period touches the banks and vaults of the first period's
    /// `beats`, each moving `op`'s bytes: collects them and marks the
    /// boundary `head` ends at, if it served a period. The span may
    /// jump only if refresh is off, every beat decodes and at least two
    /// periods are left: a jump follows two boundaries.
    pub(crate) fn start(
        &mut self,
        controllers: &[VaultController],
        span: Span,
        beats: impl Iterator<Item = Result<Location>>,
        op: TraceOp,
        head: &RunServed,
        served: u32,
    ) {
        self.span = span;
        self.served = served;
        self.marked = false;
        #[cfg(test)]
        {
            self.periods += u64::from(self.served);
        }
        if span.periods - self.served < 2 {
            self.armed = false;
            return;
        }
        for &v in &self.vaults {
            if let Some(moved) = self.vault_bytes.get_mut(v) {
                *moved = (0, 0);
            }
        }
        self.banks.clear();
        self.vaults.clear();
        let bytes = u64::from(op.bytes);
        let per_beat = match op.dir {
            Direction::Read => (bytes, 0),
            Direction::Write => (0, bytes),
        };
        let bpv = self.geom.banks_per_vault();
        let mut ok = true;
        for beat in beats {
            let Ok(loc) = beat else {
                ok = false;
                break;
            };
            let bank = loc.bank_in_vault(&self.geom);
            let (Some(bank_seen), Some(vault_seen), Some(moved)) = (
                self.bank_seen.get_mut(loc.vault * bpv + bank),
                self.vault_seen.get_mut(loc.vault),
                self.vault_bytes.get_mut(loc.vault),
            ) else {
                ok = false;
                break;
            };
            if !*bank_seen {
                *bank_seen = true;
                self.banks.push((loc.vault, bank));
            }
            if !*vault_seen {
                *vault_seen = true;
                self.vaults.push(loc.vault);
            }
            moved.0 += per_beat.0;
            moved.1 += per_beat.1;
        }
        for &(v, b) in &self.banks {
            if let Some(seen) = self.bank_seen.get_mut(v * bpv + b) {
                *seen = false;
            }
        }
        for &v in &self.vaults {
            if let Some(seen) = self.vault_seen.get_mut(v) {
                *seen = false;
            }
        }
        self.armed = ok && !self.refresh;
        if self.armed && served > 0 {
            self.mark(controllers, head.last_done, head.t_kernel_fs);
            std::mem::swap(&mut self.prev, &mut self.cur);
            self.marked = true;
        }
    }

    /// Records the touched banks and vaults into the current boundary:
    /// the period's latest completion `done` and the kernel clock
    /// `t_fs`.
    fn mark(&mut self, controllers: &[VaultController], done: Picos, t_fs: u128) {
        let b = &mut self.cur;
        b.done = done;
        b.t_fs = t_fs;
        b.banks.clear();
        for &(v, bank) in &self.banks {
            b.banks.push(controllers[v].bank_state(bank));
        }
        b.vaults.clear();
        b.stats.clear();
        for &v in &self.vaults {
            b.vaults.push(controllers[v].clocks());
            b.stats.push(*controllers[v].stats());
        }
    }

    /// Called after each whole period `last`, served from kernel clock
    /// `start_fs` and already folded into `acc` (the span so far): when
    /// the period left the touched state as the period before it left
    /// it, shifted by Δ, and was shift-covariant, every later period
    /// repeats it shifted by Δ — jumps as many as [`cap`](Self::cap)
    /// allows, folding them into `acc`. Returns the whole periods served
    /// so far.
    // simlint::entry(service_path)
    // simlint::entry(hot_path)
    pub(crate) fn after_period(
        &mut self,
        controllers: &mut [VaultController],
        last: &RunServed,
        start_fs: u128,
        pacing: &RunPacing,
        acc: &mut RunServed,
    ) -> u32 {
        #[cfg(test)]
        {
            self.periods += 1;
        }
        self.served += 1;
        let left = self.span.periods - self.served;
        if !self.armed || left == 0 {
            return self.served;
        }
        self.mark(controllers, last.last_done, acc.t_kernel_fs);
        let shift = if self.marked {
            self.prev.shift_to(&self.cur, self.span.row_advance)
        } else {
            None
        };
        if let Some(delta) = shift.filter(|_| covariant(pacing, start_fs, acc.t_kernel_fs)) {
            let k = self.cap(delta, left, last, pacing, acc);
            self.apply(controllers, k, delta, last, acc);
        }
        std::mem::swap(&mut self.prev, &mut self.cur);
        self.marked = true;
        self.served
    }

    /// How many of the `left` periods after `last`, each `delta`
    /// later than the one before, the pacing law serves exactly as it
    /// served `last` (DESIGN.md, "The steady-state jump", lists the
    /// caps and why each suffices). A jumped period's arrivals are at
    /// most the next period's first, and its grants are before its
    /// latest completion.
    fn cap(
        &self,
        delta: u64,
        left: u32,
        last: &RunServed,
        pacing: &RunPacing,
        acc: &RunServed,
    ) -> u32 {
        // The periods j ≥ 1 with `from + j·delta ≤ bound` number
        // `room / delta`; all time caps share the divisor, so one
        // division of the smallest room applies them all.
        let room = |from: Picos, bound: Picos| bound.saturating_sub(from).as_ps();
        let beats = self.span.beats;
        let done = self.cur.done;
        let next_at = pacing.arrival(acc.t_kernel_fs);
        let mut k = u64::from(left);
        let mut rooms = room(next_at, MAX_ARRIVAL);
        if let Some(ahead) = pacing
            .probe_beat
            .and_then(|b| b.checked_sub(u64::from(acc.beats)))
        {
            k = k.min(ahead / u64::from(beats));
        }
        if last.leased < beats {
            rooms = rooms.min(room(done, pacing.horizon));
        }
        if last.leased > 0 {
            let lease = pacing.lease.map(|l| l.after(acc.leased));
            k = k.min(lease.map_or(0, |l| u64::from(l.picks / last.leased)));
            if let Some(l) = lease {
                rooms = rooms
                    .min(room(next_at, l.ready_by))
                    .min(room(done, l.horizon));
            }
        }
        k = k.min(rooms / delta);
        // `k` is at most `left`.
        u32::try_from(k).unwrap_or(left)
    }

    /// Applies `k` more periods of `last`, each `delta` later than the
    /// one before: k·Δ on every moved time and the kernel clock,
    /// k·`row_advance` on every open row, k times the last period's
    /// delta on each touched vault's statistics. Folds them into `acc`
    /// and, if periods are left, re-marks the current boundary; changes
    /// nothing when `k` is zero or the arithmetic would overflow. Every
    /// touched time is at most the period's latest completion, so one
    /// checked sum bounds them all.
    fn apply(
        &mut self,
        controllers: &mut [VaultController],
        k: u32,
        delta: u64,
        last: &RunServed,
        acc: &mut RunServed,
    ) -> Option<()> {
        if k == 0 {
            return None;
        }
        let by = delta.checked_mul(u64::from(k))?;
        let done_k = Picos(self.cur.done.as_ps().checked_add(by)?);
        let t_fs_k = acc.t_kernel_fs.checked_add(u128::from(by) * FS_PER_PS)?;
        let rows = usize::try_from(k)
            .ok()?
            .checked_mul(self.span.row_advance)?;
        self.jumped.clear();
        for (&v, before) in self.vaults.iter().zip(&self.prev.stats) {
            let stats = controllers
                .get(v)?
                .stats()
                .plus_repeats(u64::from(k), before)?;
            self.jumped.push(stats);
        }
        let by = Picos(by);
        for (&(v, bank), before) in self.banks.iter().zip(&self.prev.banks) {
            controllers[v].shift_bank(bank, before, by, rows);
        }
        for ((&v, before), &stats) in self.vaults.iter().zip(&self.prev.vaults).zip(&self.jumped) {
            controllers[v].shift_vault(before, by, stats);
        }
        #[cfg(debug_assertions)]
        self.check_jump(controllers, k);
        // The span's beat count fits a u32 (its caller checked), and so
        // do the lease's picks.
        acc.beats += k * self.span.beats;
        acc.leased += k * last.leased;
        acc.t_kernel_fs = t_fs_k;
        acc.last_done = done_k;
        self.served += k;
        if self.served < self.span.periods {
            self.mark(controllers, done_k, t_fs_k);
        }
        Some(())
    }

    /// The absolute invariants of a jump of `k` periods, against the
    /// current boundary (the state just before it): no touched clock
    /// runs backwards, every open row moved by exactly k·`row_advance`
    /// and stays inside its bank, and each touched vault's bytes read
    /// and written grew by exactly k periods' bytes.
    #[cfg(debug_assertions)]
    fn check_jump(&self, controllers: &[VaultController], k: u32) {
        let rows = k as usize * self.span.row_advance;
        for (&(v, bank), before) in self.banks.iter().zip(&self.cur.banks) {
            let after = controllers[v].bank_state(bank);
            debug_assert!(
                after.last_activate >= before.last_activate
                    && after.last_column >= before.last_column,
                "a jump moved bank {bank} of vault {v} back in time"
            );
            debug_assert!(
                after.open_row == before.open_row.map(|r| r + rows)
                    && after.open_row.is_some_and(|r| r < self.geom.rows_per_bank),
                "a jump moved bank {bank} of vault {v} off its row advance"
            );
        }
        let k = u64::from(k);
        for ((&v, clocks), stats) in self
            .vaults
            .iter()
            .zip(&self.cur.vaults)
            .zip(&self.cur.stats)
        {
            let (activate, tsv_free) = controllers[v].clocks();
            let after = controllers[v].stats();
            let (read, written) = self.vault_bytes[v];
            debug_assert!(
                activate.map(|a| a.0) >= clocks.0.map(|a| a.0) && tsv_free >= clocks.1,
                "a jump moved vault {v} back in time"
            );
            debug_assert!(
                after.bytes_read == stats.bytes_read + k * read
                    && after.bytes_written == stats.bytes_written + k * written,
                "a jump did not conserve vault {v}'s bytes"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_boundary_shift_needs_the_row_advance() {
        // Two boundaries one period apart where every time moved by
        // Δ = 100 and the open row by one: a shift for a period that
        // advances one row, and for no other.
        let bank = |row, t| BankState {
            open_row: Some(row),
            last_activate: Some(Picos(t)),
            last_column: Some(Picos(t + 5)),
        };
        let boundary = |row, t: u64| Boundary {
            done: Picos(t + 50),
            t_fs: u128::from(t) * FS_PER_PS,
            banks: vec![bank(row, t)],
            vaults: vec![(Some((Picos(t), 0, 0)), Picos(t + 50))],
            stats: vec![Stats::default()],
        };
        let (a, b) = (boundary(7, 1_000), boundary(8, 1_100));
        assert_eq!(a.shift_to(&b, 1), Some(100));
        assert_eq!(a.shift_to(&b, 0), None);
        assert_eq!(a.shift_to(&b, 2), None);
        assert_eq!(a.shift_to(&boundary(7, 1_100), 0), Some(100));
    }
}
