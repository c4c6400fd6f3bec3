//! The per-vault memory controller.

use crate::system::MAX_ARRIVAL;
use crate::{BankState, Direction, Geometry, Picos, Request, RequestOutcome, Stats, TimingParams};

/// The closed-loop driver's pacing law for one run of requests, captured
/// so the fused loops of
/// [`MemorySystem::service_paced_span`](crate::MemorySystem::service_paced_span)
/// can advance the kernel consumption clock with **exactly** the
/// driver's per-request integer arithmetic: beat arrivals are
/// `max(floor, (t_kernel_fs − window_fs) / 1000 ps)`, and after each
/// beat `t_kernel_fs = max(t_kernel_fs, done·1000) + op_fs`.
///
/// The fused loops serve beats only while each beat's **grant** —
/// `max(arrival, tsv_free_at)` on the vault it targets, the key an
/// external scheduler orders competing beats by — is strictly before
/// [`horizon`](Self::horizon), or the beat is covered by the
/// [`lease`](Self::lease), and its arrival is at most `u64::MAX / 2` ps
/// (the ceiling [`MemorySystem::service_burst`](crate::MemorySystem::service_burst)
/// rejects); they stop before the first beat that is not. Where the
/// law makes a span periodic, the steady-state jump (DESIGN.md, "The
/// steady-state jump") serves its repeats in closed form, within these
/// same limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPacing {
    /// Kernel consumption clock (femtoseconds) when the run starts.
    pub t_kernel_fs: u128,
    /// Prefetch credit in kernel time (femtoseconds): requests issue
    /// this far ahead of the consumption point.
    pub window_fs: u128,
    /// Kernel time one beat's bytes take to consume (femtoseconds).
    pub op_fs: u128,
    /// Earliest possible arrival (the phase start time).
    pub floor: Picos,
    /// Beat index (0-based) whose completion time the driver's latency
    /// probe fires on, if it fires within this run.
    pub probe_beat: Option<u64>,
    /// Stop before the first beat granted at or after this time
    /// ([`Picos::MAX`] for no limit), unless the lease covers it.
    pub horizon: Picos,
    /// Contended picks an external arbiter granted ahead of time.
    pub lease: Option<VaultLease>,
}

impl RunPacing {
    /// The arrival of a beat issued with the kernel clock at `t_fs`.
    pub(crate) fn arrival(&self, t_fs: u128) -> Picos {
        Picos::from_fs_clock(t_fs.saturating_sub(self.window_fs)).max(self.floor)
    }

    /// Whether a beat of `bytes` bytes on `vault`, arriving at `at`
    /// while the vault's link frees at `tsv_free`, is served: it
    /// arrives by the ceiling, and it is granted before the horizon or
    /// `lease` covers it (using a pick).
    pub(crate) fn admits(
        &self,
        lease: &mut Option<VaultLease>,
        vault: usize,
        bytes: u32,
        at: Picos,
        tsv_free: Picos,
    ) -> bool {
        at <= MAX_ARRIVAL
            && (at.max(tsv_free) < self.horizon
                || lease
                    .as_mut()
                    .is_some_and(|l| l.take(vault, bytes, at, tsv_free)))
    }
}

/// A winning streak granted ahead of time: an external arbiter's
/// promise that the phase it just picked on [`vault`](Self::vault)
/// would win up to [`picks`](Self::picks) more contended picks in a
/// row against the same losers.
///
/// A beat is **leased** — served although its grant is not before
/// [`RunPacing::horizon`] — when all of these hold:
///
/// * it targets [`vault`](Self::vault) and moves
///   [`bytes`](Self::bytes), the winning beat's size;
/// * it is a TSV tie: it arrives no later than the vault's
///   `tsv_free_at`, so its grant is the link's free time — the same
///   grant every loser has;
/// * it arrives no later than [`ready_by`](Self::ready_by), the
///   arbiter's bound on the winner's ready time;
/// * its grant is strictly before [`horizon`](Self::horizon), the
///   earliest event outside the contender set;
/// * picks remain.
///
/// Each leased beat uses one pick. A beat granted before
/// [`RunPacing::horizon`] uses none: no loser is ready for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaultLease {
    /// The contended vault.
    pub vault: usize,
    /// The winning beat's size in bytes.
    pub bytes: u32,
    /// Picks left.
    pub picks: u32,
    /// Latest arrival a leased beat may have.
    pub ready_by: Picos,
    /// Leased beats are granted strictly before this time.
    pub horizon: Picos,
}

impl VaultLease {
    /// Whether the lease covers a beat of `bytes` bytes on `vault`,
    /// arriving at `at` while the vault's link frees at `tsv_free`.
    pub fn covers(&self, vault: usize, bytes: u32, at: Picos, tsv_free: Picos) -> bool {
        vault == self.vault
            && bytes == self.bytes
            && self.picks > 0
            && at <= tsv_free
            && at <= self.ready_by
            && tsv_free < self.horizon
    }

    /// Uses one pick on the beat [`covers`](Self::covers) describes;
    /// `false`, using none, if the lease does not cover it.
    pub fn take(&mut self, vault: usize, bytes: u32, at: Picos, tsv_free: Picos) -> bool {
        let covered = self.covers(vault, bytes, at, tsv_free);
        if covered {
            self.picks -= 1;
        }
        covered
    }

    /// The lease after `used` more picks.
    pub fn after(mut self, used: u32) -> Self {
        self.picks = self.picks.saturating_sub(used);
        self
    }
}

/// Picks `after` used of `before` (both the same lease, or none).
pub(crate) fn picks_used(before: Option<VaultLease>, after: Option<VaultLease>) -> u32 {
    before.map_or(0, |b| b.picks) - after.map_or(0, |a| a.picks)
}

/// What a paced run hands back to the driver: the advanced kernel clock
/// and the completion times the driver observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunServed {
    /// Number of beats actually served — a prefix of the requested run
    /// when it would have crossed into another bank, or the next beat
    /// was not admitted (its grant reached [`RunPacing::horizon`]
    /// outside the lease, or it arrived past the ceiling). May be zero.
    pub beats: u32,
    /// Kernel consumption clock (femtoseconds) after the served prefix.
    pub t_kernel_fs: u128,
    /// Completion time of the prefix's last beat ([`Picos::ZERO`] when
    /// no beat was served).
    pub last_done: Picos,
    /// Completion time of [`RunPacing::probe_beat`], when requested.
    pub probe_done: Option<Picos>,
    /// Beats served under [`RunPacing::lease`] (each used one pick).
    pub leased: u32,
}

/// A dedicated controller for one vault, as in the paper's Fig. 1: it owns
/// the vault's banks (across all layers) and the TSV bundle connecting the
/// vault to the FPGA layer.
///
/// Requests are served in arrival order (FCFS) with an open-page policy:
/// a row stays open until another row of the same bank is needed. The
/// controller enforces
///
/// * `t_diff_row` between activates to the same bank,
/// * `t_diff_bank` between activates to different banks on the same layer,
/// * `t_in_vault` between activates to banks on different layers
///   (activation pipelining through the stack),
/// * `t_in_row` between column commands to the same bank, and
/// * serialization of data beats on the shared TSV link.
#[derive(Debug, Clone)]
pub struct VaultController {
    vault: usize,
    geom: Geometry,
    timing: TimingParams,
    banks: Vec<BankState>,
    /// Most recent activate anywhere in the vault: (start, layer, bank).
    last_vault_activate: Option<(Picos, usize, usize)>,
    /// The TSV data link is busy until this time.
    tsv_free_at: Picos,
    stats: Stats,
}

/// A vault's shared clocks: its most recent activate (start, layer,
/// bank) and the time its TSV link frees.
pub(crate) type VaultClocks = (Option<(Picos, usize, usize)>, Picos);

impl VaultController {
    /// Creates an idle controller for vault `vault` of `geom`.
    pub fn new(vault: usize, geom: Geometry, timing: TimingParams) -> Self {
        let banks = vec![BankState::idle(); geom.banks_per_vault()];
        VaultController {
            vault,
            geom,
            timing,
            banks,
            last_vault_activate: None,
            tsv_free_at: Picos::ZERO,
            stats: Stats::default(),
        }
    }

    /// The vault index this controller serves.
    pub fn vault(&self) -> usize {
        self.vault
    }

    /// Read-only view of a bank's state.
    ///
    /// # Panics
    ///
    /// Panics if `layer` or `bank` are out of range for the geometry.
    pub fn bank(&self, layer: usize, bank: usize) -> &BankState {
        &self.banks[layer * self.geom.banks_per_layer + bank]
    }

    /// Accumulated statistics for this vault.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Earliest time the vault's TSV data link is free again — the
    /// occupancy signal external schedulers (the tenancy service's
    /// arbiters) use to decide which contending request stream gets the
    /// next grant on this vault.
    pub fn tsv_free_at(&self) -> Picos {
        self.tsv_free_at
    }

    /// Clears statistics but keeps row-buffer state.
    pub fn reset_stats(&mut self) {
        self.stats = Stats::default();
    }

    /// Closes all rows and clears all timing history and statistics.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            *b = BankState::idle();
        }
        self.last_vault_activate = None;
        self.tsv_free_at = Picos::ZERO;
        self.stats = Stats::default();
    }

    /// Bank `bank` (index within the vault).
    pub(crate) fn bank_state(&self, bank: usize) -> BankState {
        self.banks[bank]
    }

    /// The vault's shared clocks.
    pub(crate) fn clocks(&self) -> VaultClocks {
        (self.last_vault_activate, self.tsv_free_at)
    }

    /// Moves bank `bank` over a jump: its open row `rows` rows on, and
    /// its activate and column times `by` later — each only where it
    /// differs from `before`, the bank one period earlier: a time the
    /// period did not write, no later period reads (DESIGN.md, "The
    /// steady-state jump").
    pub(crate) fn shift_bank(&mut self, bank: usize, before: &BankState, by: Picos, rows: usize) {
        let b = &mut self.banks[bank];
        b.open_row = b.open_row.map(|r| r + rows);
        if b.last_activate != before.last_activate {
            b.last_activate = b.last_activate.map(|t| t + by);
        }
        if b.last_column != before.last_column {
            b.last_column = b.last_column.map(|t| t + by);
        }
    }

    /// Moves the vault's shared clocks `by` later where they differ
    /// from `before` (as [`shift_bank`](Self::shift_bank)) and installs
    /// `stats`; `last_beat` follows the TSV-free time, the vault's
    /// latest completion.
    pub(crate) fn shift_vault(&mut self, before: &VaultClocks, by: Picos, stats: Stats) {
        if self.last_vault_activate != before.0 {
            self.last_vault_activate = self.last_vault_activate.map(|(t, l, b)| (t + by, l, b));
        }
        if self.tsv_free_at != before.1 {
            self.tsv_free_at += by;
        }
        self.stats = stats;
        self.stats.last_beat = self.stats.last_beat.max(self.tsv_free_at);
    }

    /// Earliest time an activate to (`layer`, `bank`) may start, given the
    /// most recent activate anywhere in this vault.
    fn vault_activate_constraint(&self, layer: usize, bank: usize) -> Picos {
        match self.last_vault_activate {
            None => Picos::ZERO,
            Some((t, l, b)) => {
                if l == layer && b == bank {
                    // Same bank: the per-bank t_diff_row constraint governs;
                    // no extra vault-level constraint.
                    Picos::ZERO
                } else if l == layer {
                    t + self.timing.t_diff_bank
                } else {
                    t + self.timing.t_in_vault
                }
            }
        }
    }

    /// Schedules one request and returns its resolved timing.
    ///
    /// The request must target this controller's vault and must not cross
    /// a row boundary; [`crate::MemorySystem`] guarantees both.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if the request targets another vault or
    /// spills past the end of its row.
    // simlint::entry(service_path)
    // simlint::entry(hot_path)
    pub(crate) fn service(&mut self, req: Request) -> RequestOutcome {
        debug_assert_eq!(req.loc.vault, self.vault, "request routed to wrong vault");
        debug_assert!(
            req.loc.col as u64 + req.bytes as u64 <= self.geom.row_bytes as u64,
            "request crosses a row boundary"
        );

        let t = &self.timing;
        let bank_idx = req.loc.bank_in_vault(&self.geom);
        let row_hit = self.banks[bank_idx].is_open(req.loc.row);

        // 1. Open the row if necessary.
        let row_ready = if row_hit {
            req.at
        } else {
            let act_start = t.avoid_refresh(
                req.at
                    .max(self.banks[bank_idx].next_activate_after(t.t_diff_row))
                    .max(self.vault_activate_constraint(req.loc.layer, req.loc.bank)),
            );
            self.banks[bank_idx].open_row = Some(req.loc.row);
            self.banks[bank_idx].last_activate = Some(act_start);
            self.last_vault_activate = Some((act_start, req.loc.layer, req.loc.bank));
            self.stats.activations += 1;
            act_start + t.t_activate
        };

        // 2. Issue the column command (also barred during refresh).
        let col_start =
            t.avoid_refresh(row_ready.max(self.banks[bank_idx].next_column_after(t.t_in_row)));
        self.banks[bank_idx].last_column = Some(col_start);

        // 3. Move the data over the TSVs.
        let transfer = t.tsv_ps_per_byte * req.bytes as u64;
        let data_ready = col_start + t.t_column;
        let bus_start = data_ready.max(self.tsv_free_at);
        let done = bus_start + transfer;
        self.tsv_free_at = done;

        // 4. Account.
        let outcome = RequestOutcome {
            data_start: bus_start,
            done,
            row_hit,
        };
        self.stats.record(&req, &outcome);
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        match req.dir {
            Direction::Read => self.stats.bytes_read += req.bytes as u64,
            Direction::Write => self.stats.bytes_written += req.bytes as u64,
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Location;

    fn ctl() -> VaultController {
        VaultController::new(0, Geometry::default(), TimingParams::default())
    }

    fn loc(layer: usize, bank: usize, row: usize, col: u32) -> Location {
        Location {
            vault: 0,
            layer,
            bank,
            row,
            col,
        }
    }

    #[test]
    fn first_access_pays_activate_and_column_latency() {
        let mut c = ctl();
        let t = TimingParams::default();
        let out = c.service(Request::read(loc(0, 0, 0, 0), 8));
        assert!(!out.row_hit);
        // activate at 0, row ready at t_activate, column data after
        // t_column, then 8 bytes over the TSVs.
        let expect = t.t_activate + t.t_column + t.tsv_ps_per_byte * 8;
        assert_eq!(out.done, expect);
        assert_eq!(c.stats().activations, 1);
    }

    #[test]
    fn open_row_access_is_a_hit_and_faster() {
        let mut c = ctl();
        let miss = c.service(Request::read(loc(0, 0, 0, 0), 8));
        let hit = c.service(Request::read(loc(0, 0, 0, 8), 8));
        assert!(hit.row_hit);
        assert!(hit.done - miss.done < miss.done, "hit avoids the activate");
        assert_eq!(c.stats().row_hits, 1);
        assert_eq!(c.stats().row_misses, 1);
    }

    #[test]
    fn same_bank_row_conflict_pays_t_diff_row() {
        let mut c = ctl();
        let t = TimingParams::default();
        c.service(Request::read(loc(0, 0, 0, 0), 8));
        let out = c.service(Request::read(loc(0, 0, 1, 0), 8));
        // Second activate may not start before t_diff_row after the first.
        let second_act = t.t_diff_row;
        assert_eq!(
            out.done,
            second_act + t.t_activate + t.t_column + t.tsv_ps_per_byte * 8
        );
    }

    #[test]
    fn different_layer_pipelines_faster_than_same_layer() {
        let t = TimingParams::default();
        // Same layer, different bank.
        let mut c1 = ctl();
        c1.service(Request::read(loc(0, 0, 0, 0), 8));
        let same_layer = c1.service(Request::read(loc(0, 1, 0, 0), 8));
        // Different layer.
        let mut c2 = ctl();
        c2.service(Request::read(loc(0, 0, 0, 0), 8));
        let diff_layer = c2.service(Request::read(loc(1, 0, 0, 0), 8));
        assert!(diff_layer.done < same_layer.done);
        assert_eq!(
            same_layer.done - diff_layer.done,
            t.t_diff_bank - t.t_in_vault
        );
    }

    #[test]
    fn tsv_link_serializes_back_to_back_hits() {
        let mut c = ctl();
        let t = TimingParams::default();
        let a = c.service(Request::read(loc(0, 0, 0, 0), 64));
        let b = c.service(Request::read(loc(0, 0, 0, 64), 64));
        // 64-byte transfers take 64 * 200 ps = 12.8 ns each, far more than
        // t_in_row, so the link is the bottleneck and beats are contiguous.
        assert_eq!(b.done - a.done, t.tsv_ps_per_byte * 64);
    }

    #[test]
    fn streaming_a_row_approaches_link_bandwidth() {
        let mut c = ctl();
        let t = TimingParams::default();
        let geom = Geometry::default();
        let chunk = 64u32;
        let n = geom.row_bytes as u32 / chunk;
        let mut last = Picos::ZERO;
        for i in 0..n {
            last = c
                .service(Request::read(loc(0, 0, 0, i * chunk), chunk))
                .done;
        }
        let bytes = geom.row_bytes as u64;
        let ideal = t.tsv_ps_per_byte * bytes;
        // Only the initial activate+column latency is added on top of the
        // pure transfer time.
        assert!(last.as_ps() < ideal.as_ps() + 20_000);
    }

    #[test]
    fn reset_clears_state_and_stats() {
        let mut c = ctl();
        c.service(Request::read(loc(0, 0, 0, 0), 8));
        c.reset();
        assert_eq!(c.stats().activations, 0);
        assert_eq!(c.bank(0, 0).open_row, None);
        let out = c.service(Request::read(loc(0, 0, 0, 0), 8));
        assert!(!out.row_hit);
    }

    #[test]
    fn reset_stats_keeps_open_rows() {
        let mut c = ctl();
        c.service(Request::read(loc(0, 0, 0, 0), 8));
        c.reset_stats();
        assert_eq!(c.stats().activations, 0);
        let out = c.service(Request::read(loc(0, 0, 0, 8), 8));
        assert!(out.row_hit, "row stayed open across reset_stats");
    }

    #[test]
    fn refresh_steals_bandwidth() {
        let geom = Geometry::default();
        let base = TimingParams::default();
        let with_ref = base.with_refresh();
        let run = |timing: TimingParams| {
            let mut c = VaultController::new(0, geom, timing);
            let mut last = Picos::ZERO;
            for i in 0..4096u32 {
                let col = (i % 128) * 64;
                let row = (i / 128) as usize;
                last = c.service(Request::read(loc(0, 0, row, col), 64)).done;
            }
            last
        };
        let plain = run(base);
        let refreshed = run(with_ref);
        assert!(refreshed > plain, "refresh must cost time");
        // tRFC/tREFI ≈ 4.5%: the slowdown stays single-digit percent.
        let ratio = refreshed.as_ps() as f64 / plain.as_ps() as f64;
        assert!(ratio < 1.10, "got slowdown {ratio}");
    }

    #[test]
    fn arrival_time_defers_scheduling() {
        let mut c = ctl();
        let out = c.service(Request::read(loc(0, 0, 0, 0), 8).arriving_at(Picos(1_000_000)));
        assert!(out.data_start >= Picos(1_000_000));
    }
}
