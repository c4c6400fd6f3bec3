//! The per-vault memory controller.

use crate::{
    BankState, Direction, Geometry, Location, Picos, Request, RequestOutcome, Stats, TimingParams,
};

/// Femtoseconds per picosecond — the driver's kernel clock runs in
/// integer femtoseconds (see `fft2d::run_phase`), and the paced-run fast
/// path replicates its arithmetic exactly.
const FS_PER_PS: u128 = 1_000;

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
/// [`lease`](Self::lease); they stop before the first beat that is
/// neither.
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

#[cfg(test)]
thread_local! {
    /// Fused-loop iterations of [`VaultController::service_paced_run`]
    /// on this thread, so tests can prove the steady-state jump engages.
    static PACED_LOOP_ITERATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// What a paced run hands back to the driver: the advanced kernel clock
/// and the completion times the driver observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunServed {
    /// Number of beats actually served — a prefix of the requested run
    /// when it would have crossed into another bank or the next beat's
    /// grant reached [`RunPacing::horizon`]. May be zero.
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

/// A vault's shared clocks: its most recent activate (start, layer,
/// bank) and the time its TSV link frees.
pub(crate) type VaultClocks = (Option<(Picos, usize, usize)>, Picos);

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

impl VaultController {
    /// Creates an idle controller for vault `vault` of `geom`.
    pub fn new(vault: usize, geom: Geometry, timing: TimingParams) -> Self {
        // simlint::allow(H001): controller construction — one allocation per vault at system build, never per request
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

    /// Moves bank `bank`'s activate and column times `by` later — each
    /// only where it differs from `before`, the bank one train run
    /// earlier: a time the run did not write, no later run of the
    /// train reads (see `MemorySystem::service_paced_span`). Every
    /// controller time is at most the TSV-free time, whose shifted
    /// value the caller checked.
    pub(crate) fn shift_bank(&mut self, bank: usize, before: &BankState, by: Picos) {
        let b = &mut self.banks[bank];
        if b.last_activate != before.last_activate {
            b.last_activate = b.last_activate.map(|t| t + by);
        }
        if b.last_column != before.last_column {
            b.last_column = b.last_column.map(|t| t + by);
        }
    }

    /// Moves the vault's shared clocks `by` later where they differ
    /// from `before` (as [`shift_bank`](Self::shift_bank)) and installs
    /// `stats` (checked by the caller); `last_beat` follows the TSV-free
    /// time, the vault's latest completion.
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

    /// Schedules a **paced strided run**: `beats` accesses of `bytes`
    /// each, beat *i* targeting row `loc.row + i·row_step` of the same
    /// bank at column `loc.col`, with each beat's arrival time derived
    /// from the driver's kernel clock per `pacing` (see [`RunPacing`]).
    ///
    /// Exactly equivalent — in statistics, controller state and the
    /// returned clock/completion times — to the driver's per-request
    /// loop calling [`service`](Self::service) once per beat. The win is
    /// structural: beat 0 goes through the full scalar path (it must
    /// honour whatever row is open and the vault's activate history),
    /// but every later beat is by construction a row **miss** in the
    /// *same* bank (rows strictly ascend), so the scalar path's branches
    /// collapse into straight-line arithmetic over register-resident
    /// state, and the statistics fold in as one batched delta at the
    /// end. This is what lets the strided baseline column phase — `N²`
    /// single-element row misses — resolve at a few nanoseconds per
    /// beat instead of a full driver/system/controller round trip each.
    ///
    /// **Steady-state jump.** The fused loop is a max-plus recurrence:
    /// each beat's clocks are maxima and sums of the previous beat's
    /// clocks and constants. Adding a common Δ to every clock of the
    /// state therefore adds Δ to every later beat — *shift covariance* —
    /// as long as nothing in the beat is pinned to an absolute time:
    /// the vault gate is spent (zero), and the arrival is the raw
    /// reading `(t_kernel_fs − window_fs) / 1000` — the window
    /// subtraction does not saturate, the reading is at or past
    /// `floor`, and it fits a [`Picos`]. (Δ is a whole number of
    /// picoseconds, so the kernel clock moves by Δ·1000 fs and the
    /// integer division shifts by exactly Δ.) Once a covariant beat
    /// ends in the same state as the beat before, measured from its
    /// completion time — `t_kernel_fs − done·1000`, `done − last
    /// activate`, `done − last column` — every later beat repeats it
    /// shifted by Δ = the gap between the two completions, with the same
    /// latency, one `row_step` further along. The loop then advances
    /// *k* beats in closed form: *k*·Δ on every clock, `k·row_step` on
    /// the row, *k*·latency on the latency sum. *k* stops short of the
    /// run's end, of [`RunPacing::probe_beat`] (served by the loop, so
    /// its completion is observed directly) and of the first beat whose
    /// grant — the next grant plus *j*·Δ — reaches the horizon; a jump
    /// whose arithmetic would overflow is not taken. This turns the
    /// baseline column phase, where every beat is one `t_diff_row`
    /// apart, from one loop iteration per beat into a handful per run.
    ///
    /// Beats are served only while their grant is strictly before
    /// [`RunPacing::horizon`] or [`RunPacing::lease`] covers them; the
    /// returned [`RunServed::beats`] counts the served prefix, which is
    /// zero when beat 0 is not due. A jump over leased beats also stops
    /// short of the remaining picks, of the first beat arriving after
    /// [`VaultLease::ready_by`] and of the first granted at or after
    /// [`VaultLease::horizon`]. A TSV tie stays a tie across the jump:
    /// arrival and link-free time both move by Δ per beat.
    ///
    /// The caller ([`crate::MemorySystem::service_paced_span`])
    /// guarantees the preconditions; they are debug-asserted here.
    pub(crate) fn service_paced_run(
        &mut self,
        loc: Location,
        bytes: u32,
        dir: Direction,
        row_step: usize,
        beats: u32,
        pacing: &RunPacing,
    ) -> RunServed {
        debug_assert!(beats >= 2, "paced run needs at least two beats");
        debug_assert!(row_step >= 1, "rows must strictly ascend");
        debug_assert!(
            !self.timing.refresh_enabled(),
            "refresh windows would break the fused schedule"
        );
        debug_assert!(
            loc.row as u64 + (beats as u64 - 1) * (row_step as u64)
                < self.geom.rows_per_bank as u64,
            "run leaves its bank"
        );
        debug_assert!(
            loc.col as u64 + bytes as u64 <= self.geom.row_bytes as u64,
            "beat crosses a row boundary"
        );

        // Checked fs→ps conversion (shared with the driver): a bare
        // `as u64` here would silently truncate the u128 femtosecond
        // clock; `Picos::from_fs_clock` saturates instead, on both
        // sides identically.
        let arrive = |t_fs: u128| {
            Picos::from_fs_clock(t_fs.saturating_sub(pacing.window_fs)).max(pacing.floor)
        };

        // Beat 0: the full scalar path, so an already-open row, a prior
        // activate elsewhere in the vault and a busy TSV link are all
        // honoured exactly.
        // The lease counts down as leased beats are served.
        let mut lease = pacing.lease;
        let vault = self.vault;
        let mut t_fs = pacing.t_kernel_fs;
        let at0 = arrive(t_fs);
        if at0.max(self.tsv_free_at) >= pacing.horizon
            && !lease
                .as_mut()
                .is_some_and(|l| l.take(vault, bytes, at0, self.tsv_free_at))
        {
            return RunServed {
                beats: 0,
                t_kernel_fs: t_fs,
                last_done: Picos::ZERO,
                probe_done: None,
                leased: 0,
            };
        }
        let out0 = self.service(Request {
            loc,
            bytes,
            dir,
            at: at0,
        });
        t_fs = t_fs.max(out0.done.as_ps() as u128 * FS_PER_PS) + pacing.op_fs;
        let mut probe_done = (pacing.probe_beat == Some(0)).then_some(out0.done);

        // Beats 1..: fused loop over register-resident copies of the one
        // bank this run touches, the vault activate gate and the link
        // horizon. The vault gate still reflects beat 0's history on
        // beat 1; from beat 2 on the most recent activate is this bank's
        // own, which adds nothing beyond `t_diff_row` — so the gate
        // collapses to a variable that goes to zero after one use.
        let t = self.timing;
        let transfer = t.tsv_ps_per_byte * bytes as u64;
        let bank_idx = loc.bank_in_vault(&self.geom);
        let mut bank = self.banks[bank_idx];
        let mut vault_gate = match self.last_vault_activate {
            None => Picos::ZERO,
            Some((tv, l, b)) => {
                if l == loc.layer && b == loc.bank {
                    Picos::ZERO
                } else if l == loc.layer {
                    tv + t.t_diff_bank
                } else {
                    tv + t.t_in_vault
                }
            }
        };
        let mut tsv_free = self.tsv_free_at;
        let mut row = loc.row;
        let mut done = out0.done;
        let mut latency_sum = Picos::ZERO;
        let mut latency_max = Picos::ZERO;
        // Last activate issued by the fused loop; read back only when the
        // loop served a beat, so never as its initial value.
        let mut last_act = Picos::ZERO;
        // The previous fused beat's state measured from its completion:
        // (t_fs − done·1000, done − last activate, done − last column).
        let mut prev_rel = None;
        let mut served = 1;
        while served < beats {
            let i = served as u64;
            let at = arrive(t_fs);
            if at.max(tsv_free) >= pacing.horizon
                && !lease
                    .as_mut()
                    .is_some_and(|l| l.take(vault, bytes, at, tsv_free))
            {
                break;
            }
            #[cfg(test)]
            PACED_LOOP_ITERATIONS.with(|n| n.set(n.get() + 1));
            // This beat is shift-covariant when its arrival is the raw
            // kernel-clock reading — neither floored, nor saturated, nor
            // cut off by the window. (The vault gate is spent after beat
            // 1, and beat 2 is the first with a previous fused beat to
            // compare against.)
            let covariant = t_fs.checked_sub(pacing.window_fs).map(|r| r / FS_PER_PS)
                == Some(at.as_ps() as u128);
            served += 1;
            row += row_step;
            let act_start = at
                .max(bank.next_activate_after(t.t_diff_row))
                .max(vault_gate);
            bank.last_activate = Some(act_start);
            last_act = act_start;
            vault_gate = Picos::ZERO;
            let col_start = (act_start + t.t_activate).max(bank.next_column_after(t.t_in_row));
            bank.last_column = Some(col_start);
            let prev_done = done;
            let bus_start = (col_start + t.t_column).max(tsv_free);
            done = bus_start + transfer;
            tsv_free = done;
            let lat = done.saturating_sub(at);
            latency_sum += lat;
            latency_max = latency_max.max(lat);
            t_fs = t_fs.max(done.as_ps() as u128 * FS_PER_PS) + pacing.op_fs;
            if pacing.probe_beat == Some(i) {
                probe_done = Some(done);
            }

            // Steady state: this beat left the same relative state as
            // the one before, so every later beat repeats it shifted by
            // `delta` (see the method docs) — jump over as many as the
            // run, the probe and the horizon (or the lease) allow.
            let rel = (
                t_fs - done.as_ps() as u128 * FS_PER_PS,
                done - last_act,
                done - col_start,
            );
            if covariant && prev_rel == Some(rel) {
                let delta = (done - prev_done).as_ps();
                // Caps wider than the u32 beat count cannot bind.
                let cap = |x: u64| u32::try_from(x).unwrap_or(u32::MAX);
                let mut k = beats - served;
                if let Some(p) = pacing.probe_beat.filter(|&p| p >= u64::from(served)) {
                    k = k.min(cap(p - u64::from(served)));
                }
                // The number of beats from the next whose value, moving
                // up by `delta` per beat from `from`, stays at or below
                // `last`; a zero delta never passes it.
                let within = |from: Picos, last: Picos| {
                    last.as_ps().checked_sub(from.as_ps()).map_or(0, |room| {
                        room.checked_div(delta).map_or(u32::MAX, |q| cap(q + 1))
                    })
                };
                let next_at = arrive(t_fs);
                let grant = next_at.max(tsv_free);
                // Whether the jumped beats are leased: all of them are
                // when the next one is, as grants only grow.
                let lease_jump = grant >= pacing.horizon;
                if !lease_jump {
                    // The last jumped grant, `grant + (k−1)·delta`, stays
                    // before the horizon.
                    k = k.min(within(grant, pacing.horizon - Picos(1)));
                } else if let Some(l) = lease.filter(|l| l.covers(vault, bytes, next_at, tsv_free))
                {
                    k = k.min(l.picks);
                    k = k.min(within(next_at, l.ready_by));
                    k = k.min(within(grant, l.horizon - Picos(1)));
                } else {
                    k = 0;
                }
                let jump = delta.checked_mul(u64::from(k)).and_then(|d| {
                    let done_k = done.as_ps().checked_add(d)?;
                    let lat_k = latency_sum
                        .as_ps()
                        .checked_add(lat.as_ps().checked_mul(u64::from(k))?)?;
                    let t_fs_k = t_fs.checked_add(u128::from(d) * FS_PER_PS)?;
                    // Every jumped arrival must stay unsaturated.
                    u64::try_from(t_fs_k.checked_sub(pacing.window_fs)? / FS_PER_PS).ok()?;
                    let rows = usize::try_from(k).ok()?.checked_mul(row_step)?;
                    Some((Picos(d), Picos(done_k), Picos(lat_k), t_fs_k, rows))
                });
                if let Some((d, done_k, lat_k, t_fs_k, rows)) = jump.filter(|_| k > 0) {
                    if let Some(l) = lease.as_mut().filter(|_| lease_jump) {
                        l.picks -= k;
                    }
                    served += k;
                    row += rows;
                    last_act += d;
                    bank.last_activate = Some(last_act);
                    bank.last_column = Some(col_start + d);
                    done = done_k;
                    tsv_free = done_k;
                    latency_sum = lat_k;
                    t_fs = t_fs_k;
                }
            }
            prev_rel = Some(rel);
        }

        // Write the final state and the batched statistics delta back —
        // only if the fused loop served anything past beat 0, whose own
        // state `service` already recorded. `first_beat` needs no
        // update: transfers are strictly ordered on the link, so no
        // later beat starts before beat 0's.
        let extra = (served - 1) as u64;
        if extra > 0 {
            bank.open_row = Some(row);
            self.banks[bank_idx] = bank;
            self.last_vault_activate = Some((last_act, loc.layer, loc.bank));
            self.tsv_free_at = tsv_free;
            self.stats.requests += extra;
            self.stats.activations += extra;
            self.stats.row_misses += extra;
            self.stats.latency_sum += latency_sum;
            self.stats.latency_max = self.stats.latency_max.max(latency_max);
            self.stats.last_beat = self.stats.last_beat.max(done);
            match dir {
                Direction::Read => self.stats.bytes_read += extra * bytes as u64,
                Direction::Write => self.stats.bytes_written += extra * bytes as u64,
            }
        }
        RunServed {
            beats: served,
            t_kernel_fs: t_fs,
            last_done: done,
            probe_done,
            leased: picks_used(pacing.lease, lease),
        }
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

    /// The driver's scalar loop over a paced strided run: one
    /// [`service`](VaultController::service) per beat under the pacing
    /// law, stopping before the first beat whose grant
    /// (`max(arrival, tsv_free_at)`) reaches the horizon and which the
    /// lease does not cover. Also returns each served beat's arrival and
    /// grant.
    fn scalar_paced(
        c: &mut VaultController,
        loc: Location,
        bytes: u32,
        dir: Direction,
        row_step: usize,
        beats: u32,
        pacing: &RunPacing,
    ) -> (RunServed, Vec<(Picos, Picos)>) {
        let mut served = RunServed {
            beats: 0,
            t_kernel_fs: pacing.t_kernel_fs,
            last_done: Picos::ZERO,
            probe_done: None,
            leased: 0,
        };
        let mut lease = pacing.lease;
        let mut grants = Vec::new();
        for i in 0..beats as u64 {
            let t_fs = served.t_kernel_fs;
            let at =
                Picos((t_fs.saturating_sub(pacing.window_fs) / 1_000) as u64).max(pacing.floor);
            let tsv_free = c.tsv_free_at();
            let grant = at.max(tsv_free);
            if grant >= pacing.horizon
                && !lease
                    .as_mut()
                    .is_some_and(|l| l.take(c.vault(), bytes, at, tsv_free))
            {
                break;
            }
            grants.push((at, grant));
            let beat_loc = Location {
                row: loc.row + i as usize * row_step,
                ..loc
            };
            let out = c.service(Request {
                loc: beat_loc,
                bytes,
                dir,
                at,
            });
            served.beats += 1;
            served.t_kernel_fs = t_fs.max(out.done.as_ps() as u128 * 1_000) + pacing.op_fs;
            served.last_done = out.done;
            if pacing.probe_beat == Some(i) {
                served.probe_done = Some(out.done);
            }
        }
        served.leased = picks_used(pacing.lease, lease);
        (served, grants)
    }

    /// `service_paced_run` must equal [`scalar_paced`] — in the served
    /// prefix, the returned clock and completion times, the statistics,
    /// the whole controller state and all subsequent scheduling
    /// behaviour (probed with follow-up requests). Returns the served
    /// prefix.
    fn assert_paced_matches_scalar(
        mut c: VaultController,
        loc: Location,
        bytes: u32,
        dir: Direction,
        row_step: usize,
        beats: u32,
        pacing: RunPacing,
    ) -> RunServed {
        let mut scalar = c.clone();
        let served = c.service_paced_run(loc, bytes, dir, row_step, beats, &pacing);
        let (expect, _) = scalar_paced(&mut scalar, loc, bytes, dir, row_step, beats, &pacing);
        assert_eq!(served, expect, "served prefix diverged");
        assert_eq!(c.stats(), scalar.stats(), "statistics diverged");
        assert_eq!(
            format!("{c:?}"),
            format!("{scalar:?}"),
            "controller state diverged"
        );
        // State must be indistinguishable afterwards: probe the run's
        // bank (open row, then a conflict) and a different layer.
        for probe_loc in [
            Location {
                row: loc.row + (served.beats.max(1) as usize - 1) * row_step,
                col: 0,
                ..loc
            },
            Location {
                row: 0,
                col: 0,
                ..loc
            },
            Location {
                layer: (loc.layer + 1) % 2,
                row: 3,
                col: 0,
                ..loc
            },
        ] {
            let probe = Request {
                loc: probe_loc,
                bytes: 64,
                dir,
                at: Picos::ZERO,
            };
            assert_eq!(
                c.service(probe),
                scalar.service(probe),
                "follow-up diverged"
            );
        }
        assert_eq!(c.stats(), scalar.stats());
        served
    }

    /// A controller with a few random prior requests somewhere in its
    /// vault.
    fn warmed_ctl(rng: &mut sim_util::SimRng) -> VaultController {
        let geom = Geometry::default();
        let mut c = VaultController::new(0, geom, TimingParams::default());
        for _ in 0..rng.gen_range(0usize..4) {
            let warm = Location {
                vault: 0,
                layer: rng.gen_range(0usize..geom.layers),
                bank: rng.gen_range(0usize..geom.banks_per_layer),
                row: rng.gen_range(0usize..64),
                col: 0,
            };
            c.service(Request::read(warm, 64).arriving_at(Picos(rng.gen_range(0u64..1 << 20))));
        }
        c
    }

    /// A random run start in vault 0.
    fn random_loc(rng: &mut sim_util::SimRng) -> Location {
        let geom = Geometry::default();
        Location {
            vault: 0,
            layer: rng.gen_range(0usize..geom.layers),
            bank: rng.gen_range(0usize..geom.banks_per_layer),
            row: rng.gen_range(0usize..32),
            col: rng.gen_range(0u32..64) * 8,
        }
    }

    #[test]
    fn paced_run_matches_scalar_driver_law() {
        use sim_util::prop_check;
        prop_check!(cases: 64, |rng| {
            let c = warmed_ctl(rng);
            let beats = rng.gen_range(2u32..40);
            let row_step = rng.gen_range(1usize..4);
            let loc = random_loc(rng);
            let bytes = 1 << rng.gen_range(0u32..7);
            let dir = if rng.gen_bool() { Direction::Read } else { Direction::Write };
            let pacing = RunPacing {
                t_kernel_fs: rng.gen_range(0u64..1 << 50) as u128,
                window_fs: rng.gen_range(0u64..1 << 45) as u128,
                op_fs: rng.gen_range(0u64..1 << 20) as u128,
                floor: Picos(rng.gen_range(0u64..1 << 30)),
                probe_beat: rng.gen_bool().then(|| rng.gen_range(0u64..beats as u64)),
                horizon: Picos::MAX,
                lease: None,
            };
            let served = assert_paced_matches_scalar(c, loc, bytes, dir, row_step, beats, pacing);
            assert_eq!(served.beats, beats, "an unbounded horizon serves every beat");
        });
    }

    #[test]
    fn long_paced_runs_jump_exactly() {
        // Runs long enough to reach their steady state and jump: from
        // memory-bound, kernel-bound and floor-bound starts, with
        // sub-picosecond kernel rates, a latency probe anywhere (most
        // often inside the would-be jump) and horizons exactly at, just
        // before and just after a late beat's grant — or leases whose
        // picks, ready bound and horizon sit there. A third of the cases
        // each: no horizon, a horizon, a lease.
        use sim_util::prop_check;
        prop_check!(cases: 96, |rng| {
            let c = warmed_ctl(rng);
            let beats = rng.gen_range(200u32..4000);
            let row_step = rng.gen_range(1usize..3);
            let loc = random_loc(rng);
            let bytes = 1 << rng.gen_range(0u32..7);
            let dir = if rng.gen_bool() { Direction::Read } else { Direction::Write };
            // A remainder that keeps `op_fs` off whole picoseconds.
            let frac = if rng.gen_bool() { rng.gen_range(1u64..1000) } else { 0 };
            let (t_kernel_fs, window_fs, op_ps, floor) = match rng.gen_range(0usize..3) {
                // Memory-bound: a beat is consumed far faster than the
                // bank re-activates (t_diff_row = 20 ns).
                0 => (
                    rng.gen_range(0u64..1 << 40),
                    rng.gen_range(0u64..1 << 40),
                    rng.gen_range(0u64..10_000),
                    Picos(rng.gen_range(0u64..1 << 20)),
                ),
                // Kernel-bound: consumption outlasts t_diff_row.
                1 => (
                    rng.gen_range(0u64..1 << 40),
                    rng.gen_range(0u64..1 << 30),
                    rng.gen_range(21_000u64..200_000),
                    Picos(rng.gen_range(0u64..1 << 20)),
                ),
                // Floor-bound start: a late phase start pins the
                // arrivals — for up to thousands of beats, while the
                // kernel clock catches up with the window.
                _ => {
                    let window = rng.gen_range(1u64 << 30..1 << 37);
                    (
                        window + rng.gen_range(0u64..1 << 30),
                        window,
                        rng.gen_range(0u64..40_000),
                        Picos(rng.gen_range(1u64 << 20..1 << 30)),
                    )
                }
            };
            let mut pacing = RunPacing {
                t_kernel_fs: t_kernel_fs as u128,
                window_fs: window_fs as u128,
                op_fs: op_ps as u128 * 1_000 + frac as u128,
                floor,
                probe_beat: rng.gen_bool().then(|| rng.gen_range(0u64..beats as u64)),
                horizon: Picos::MAX,
                lease: None,
            };
            let near = |rng: &mut sim_util::SimRng, t: Picos| match rng.gen_range(0usize..3) {
                0 => t,
                1 => t + Picos(1),
                _ => t.saturating_sub(Picos(1)),
            };
            let (_, beats_at) = scalar_paced(&mut c.clone(), loc, bytes, dir, row_step, beats, &pacing);
            let late = rng.gen_range(beats_at.len() / 2..beats_at.len());
            match rng.gen_range(0usize..3) {
                0 => {}
                1 => pacing.horizon = near(rng, beats_at[late].1),
                // Leased: the horizon admits at most the first quarter
                // of the run, and the lease's picks, ready bound and
                // horizon each sit at, or one off, a late beat's — or
                // do not bind.
                _ => {
                    pacing.horizon = match rng.gen_range(0usize..2) {
                        0 => Picos::ZERO,
                        _ => beats_at[rng.gen_range(0..beats_at.len() / 4)].1,
                    };
                    let bound = |rng: &mut sim_util::SimRng, t: Picos| {
                        if rng.gen_bool() { near(rng, t) } else { Picos::MAX }
                    };
                    pacing.lease = Some(VaultLease {
                        vault: if rng.gen_range(0usize..16) == 0 { 1 } else { 0 },
                        bytes: if rng.gen_range(0usize..16) == 0 { bytes + 1 } else { bytes },
                        picks: if rng.gen_bool() {
                            near(rng, Picos(late as u64)).as_ps() as u32
                        } else {
                            u32::MAX
                        },
                        ready_by: bound(rng, beats_at[late].0),
                        horizon: bound(rng, beats_at[late].1),
                    });
                }
            }
            assert_paced_matches_scalar(c, loc, bytes, dir, row_step, beats, pacing);
        });
    }

    #[test]
    fn steady_run_jumps_instead_of_stepping() {
        // The baseline column shape: a memory-bound 4000-beat run, every
        // beat a row miss one `t_diff_row` after the last. It must reach
        // its steady state within a few beats and jump the rest — around
        // the probe too — not iterate once per beat.
        let pacing = RunPacing {
            t_kernel_fs: 0,
            window_fs: 0,
            op_fs: 31_250,
            floor: Picos::ZERO,
            probe_beat: Some(2500),
            horizon: Picos::MAX,
            lease: None,
        };
        let iterations = || PACED_LOOP_ITERATIONS.with(|n| n.get());
        let before = iterations();
        let served = assert_paced_matches_scalar(
            ctl(),
            loc(1, 3, 0, 8),
            8,
            Direction::Read,
            2,
            4000,
            pacing,
        );
        let looped = iterations() - before;
        assert_eq!(served.beats, 4000);
        assert!(served.probe_done.is_some());
        assert!(
            looped < 16,
            "{looped} loop iterations for a 4000-beat steady run: the jump did not engage"
        );
    }

    #[test]
    fn leased_steady_run_jumps_too() {
        // The baseline column shape again, but nothing is due on the
        // horizon: every beat is a TSV tie served under a lease (the
        // window keeps arrivals far ahead of the link). The jump must
        // engage across leased beats and stop exactly at the picks.
        let window_fs = 1u128 << 26;
        for picks in [u32::MAX, 2500] {
            let pacing = RunPacing {
                t_kernel_fs: window_fs,
                window_fs,
                op_fs: 31_250,
                floor: Picos::ZERO,
                probe_beat: None,
                horizon: Picos::ZERO,
                lease: Some(VaultLease {
                    vault: 0,
                    bytes: 8,
                    picks,
                    ready_by: Picos::MAX,
                    horizon: Picos::MAX,
                }),
            };
            let iterations = || PACED_LOOP_ITERATIONS.with(|n| n.get());
            let before = iterations();
            let served = assert_paced_matches_scalar(
                ctl(),
                loc(1, 3, 0, 8),
                8,
                Direction::Read,
                2,
                4000,
                pacing,
            );
            let looped = iterations() - before;
            assert_eq!(served.beats, picks.min(4000));
            assert_eq!(served.leased, served.beats, "every beat used a pick");
            assert!(
                looped < 16,
                "{looped} loop iterations for a leased steady run: the jump did not engage"
            );
        }
    }

    #[test]
    fn arrival_time_defers_scheduling() {
        let mut c = ctl();
        let out = c.service(Request::read(loc(0, 0, 0, 0), 8).arriving_at(Picos(1_000_000)));
        assert!(out.data_start >= Picos(1_000_000));
    }
}
