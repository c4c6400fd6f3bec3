//! The per-vault memory controller.

use crate::{
    BankState, Direction, Geometry, Location, Picos, Request, RequestOutcome, Stats, TimingParams,
};

/// Femtoseconds per picosecond — the driver's kernel clock runs in
/// integer femtoseconds (see `fft2d::run_phase`), and the paced-run fast
/// path replicates its arithmetic exactly.
const FS_PER_PS: u128 = 1_000;

/// The closed-loop driver's pacing law for one run of requests, captured
/// so [`VaultController::service_paced_run`] can advance the kernel
/// consumption clock with **exactly** the driver's per-request integer
/// arithmetic: beat arrivals are
/// `max(floor, (t_kernel_fs − window_fs) / 1000 ps)`, and after each
/// beat `t_kernel_fs = max(t_kernel_fs, done·1000) + op_fs`.
///
/// The fused loops serve beats only while each beat's **grant** —
/// `max(arrival, tsv_free_at)` on the vault it targets, the key an
/// external scheduler orders competing beats by — is strictly before
/// [`horizon`](Self::horizon); they stop before the first beat whose
/// grant reaches it.
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
    /// ([`Picos::MAX`] for no limit).
    pub horizon: Picos,
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
    pub fn service(&mut self, req: Request) -> RequestOutcome {
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

    /// Schedules a run of `beats` back-to-back accesses of `first.bytes`
    /// each: beat *i* targets column `first.loc.col + i·bytes` of the
    /// same row, all arriving at `first.at`.
    ///
    /// Exactly equivalent — in outcomes, statistics and controller
    /// state — to calling [`service`](Self::service) once per beat, but
    /// a TSV-bound run (`bytes · tsv_ps_per_byte ≥ t_in_row`, no refresh
    /// modelling) resolves in closed form: after the first beat, every
    /// later beat is a row hit whose column command issues `t_in_row`
    /// after the previous one and whose transfer starts the moment the
    /// link frees, so beat *i* completes at `done₀ + i·transfer`. One
    /// scheduling pass replaces `beats` round trips. Runs that are not
    /// TSV-bound (or with refresh enabled) fall back to the scalar loop.
    ///
    /// Returns the first beat's `data_start` and `row_hit` with the last
    /// beat's `done`.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if `beats` is zero or the run spills
    /// past the end of its row; [`crate::MemorySystem`] guarantees both.
    pub fn service_run(&mut self, first: Request, beats: u32) -> RequestOutcome {
        debug_assert!(beats >= 1, "empty run");
        debug_assert!(
            first.loc.col as u64 + beats as u64 * first.bytes as u64 <= self.geom.row_bytes as u64,
            "run crosses a row boundary"
        );
        let out0 = self.service(first);
        if beats == 1 {
            return out0;
        }
        let t = self.timing;
        let transfer = t.tsv_ps_per_byte * first.bytes as u64;
        if t.refresh_enabled() || transfer < t.t_in_row {
            // Not TSV-bound (or refresh windows may interleave): the
            // closed form below would not be exact, so take the scalar
            // loop.
            let mut done = out0.done;
            for i in 1..beats {
                let frag = Request {
                    loc: crate::Location {
                        col: first.loc.col + i * first.bytes,
                        ..first.loc
                    },
                    ..first
                };
                done = self.service(frag).done;
            }
            return RequestOutcome { done, ..out0 };
        }
        // Closed form. After beat 0 the row is open and every later beat
        // is a hit: col_start_i = col_start_0 + i·t_in_row, and because
        // transfer ≥ t_in_row the data is always ready by the time the
        // link frees, so bus_start_i = done_{i-1} and
        // done_i = done_0 + i·transfer. Only the bank's last column
        // command time, the link horizon and the counters change.
        let extra = (beats - 1) as u64;
        let bank_idx = first.loc.bank_in_vault(&self.geom);
        let col_start_0 = self.banks[bank_idx]
            .last_column
            // simlint::allow(P001): beat 0 went through `service` above,
            // which unconditionally issues a column command on this bank,
            // so `last_column` is always `Some` here.
            .expect("beat 0 issued a column command");
        self.banks[bank_idx].last_column = Some(col_start_0 + t.t_in_row * extra);
        let done = out0.done + transfer * extra;
        self.tsv_free_at = done;
        self.stats
            .record_hit_run(first.at, out0.done, transfer, extra);
        self.stats.row_hits += extra;
        match first.dir {
            Direction::Read => self.stats.bytes_read += extra * first.bytes as u64,
            Direction::Write => self.stats.bytes_written += extra * first.bytes as u64,
        }
        RequestOutcome { done, ..out0 }
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
    /// Beats are served only while their grant is strictly before
    /// [`RunPacing::horizon`]; the returned [`RunServed::beats`] counts
    /// the served prefix, which is zero when beat 0 is not due.
    ///
    /// The caller ([`crate::MemorySystem::service_paced_span`])
    /// guarantees the preconditions; they are debug-asserted here.
    pub fn service_paced_run(
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
        let mut t_fs = pacing.t_kernel_fs;
        let at0 = arrive(t_fs);
        if at0.max(self.tsv_free_at) >= pacing.horizon {
            return RunServed {
                beats: 0,
                t_kernel_fs: t_fs,
                last_done: Picos::ZERO,
                probe_done: None,
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
        let mut served = 1;
        for i in 1..beats as u64 {
            let at = arrive(t_fs);
            if at.max(tsv_free) >= pacing.horizon {
                break;
            }
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

    /// `service_run` must equal the scalar beat-by-beat loop in the
    /// returned outcome, the statistics and all subsequent scheduling
    /// behaviour (probed with one more request after the run).
    fn assert_run_matches_scalar(mut c: VaultController, first: Request, beats: u32) {
        let mut scalar = c.clone();
        let run_out = c.service_run(first, beats);
        let mut first_out = None;
        let mut last = None;
        for i in 0..beats {
            let frag = Request {
                loc: Location {
                    col: first.loc.col + i * first.bytes,
                    ..first.loc
                },
                ..first
            };
            let o = scalar.service(frag);
            first_out.get_or_insert(o);
            last = Some(o);
        }
        let first_out = first_out.unwrap();
        assert_eq!(run_out.data_start, first_out.data_start);
        assert_eq!(run_out.row_hit, first_out.row_hit);
        assert_eq!(run_out.done, last.unwrap().done);
        assert_eq!(c.stats(), scalar.stats());
        // The controller state must be indistinguishable afterwards:
        // a probe request (same row, then a conflicting row) schedules
        // identically on both.
        for probe_loc in [
            Location {
                col: 0,
                ..first.loc
            },
            Location {
                row: first.loc.row + 1,
                col: 0,
                ..first.loc
            },
        ] {
            let probe = Request {
                loc: probe_loc,
                bytes: 64,
                ..first
            };
            assert_eq!(c.service(probe), scalar.service(probe));
        }
        assert_eq!(c.stats(), scalar.stats());
    }

    #[test]
    fn tsv_bound_run_resolves_in_closed_form_identically() {
        // 8-byte beats: transfer = 1.6 ns ≥ t_in_row = 0.8 ns.
        assert_run_matches_scalar(ctl(), Request::read(loc(0, 0, 0, 0), 8), 64);
        // From a non-zero column, arriving late, as writes.
        assert_run_matches_scalar(
            ctl(),
            Request::write(loc(1, 2, 5, 256), 16).arriving_at(Picos(123_456)),
            17,
        );
        // Onto an already-open row (beat 0 is a hit).
        let mut c = ctl();
        c.service(Request::read(loc(0, 0, 7, 0), 8));
        assert_run_matches_scalar(c, Request::read(loc(0, 0, 7, 64), 8), 9);
        // Single-beat run degenerates to plain service.
        assert_run_matches_scalar(ctl(), Request::read(loc(0, 0, 0, 0), 8), 1);
    }

    #[test]
    fn command_bound_run_falls_back_to_scalar_loop() {
        // 1-byte beats: transfer = 200 ps < t_in_row = 800 ps, so the
        // column-command rate, not the link, paces the run.
        assert_run_matches_scalar(ctl(), Request::read(loc(0, 0, 0, 0), 1), 50);
    }

    #[test]
    fn refreshing_run_falls_back_to_scalar_loop() {
        let c = VaultController::new(
            0,
            Geometry::default(),
            TimingParams::default().with_refresh(),
        );
        // Arrivals near a refresh window would break the closed form.
        assert_run_matches_scalar(
            c,
            Request::read(loc(0, 0, 0, 0), 8).arriving_at(Picos(7_799_000)),
            64,
        );
    }

    /// `service_paced_run` must equal a hand-rolled scalar loop applying
    /// the driver's pacing law beat by beat — in the returned clock and
    /// completion times, the statistics, and all subsequent scheduling
    /// behaviour (probed with follow-up requests).
    fn assert_paced_matches_scalar(
        mut c: VaultController,
        loc: Location,
        bytes: u32,
        dir: Direction,
        row_step: usize,
        beats: u32,
        pacing: RunPacing,
    ) {
        let mut scalar = c.clone();
        let served = c.service_paced_run(loc, bytes, dir, row_step, beats, &pacing);

        let mut t_fs = pacing.t_kernel_fs;
        let mut probe = None;
        let mut last = Picos::ZERO;
        for i in 0..beats as u64 {
            let at =
                Picos((t_fs.saturating_sub(pacing.window_fs) / 1_000) as u64).max(pacing.floor);
            let beat_loc = Location {
                row: loc.row + i as usize * row_step,
                ..loc
            };
            let out = scalar.service(Request {
                loc: beat_loc,
                bytes,
                dir,
                at,
            });
            t_fs = t_fs.max(out.done.as_ps() as u128 * 1_000) + pacing.op_fs;
            if pacing.probe_beat == Some(i) {
                probe = Some(out.done);
            }
            last = out.done;
        }
        assert_eq!(served.beats, beats, "controller serves all requested beats");
        assert_eq!(served.t_kernel_fs, t_fs, "kernel clock diverged");
        assert_eq!(served.last_done, last, "last completion diverged");
        assert_eq!(served.probe_done, probe, "probe diverged");
        assert_eq!(c.stats(), scalar.stats(), "statistics diverged");
        // State must be indistinguishable afterwards: probe the run's
        // bank (open row, then a conflict) and a different layer.
        for probe_loc in [
            Location {
                row: loc.row + (beats as usize - 1) * row_step,
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
    }

    #[test]
    fn paced_run_matches_scalar_driver_law() {
        use sim_util::prop_check;
        prop_check!(cases: 64, |rng| {
            let geom = Geometry::default();
            let mut c = VaultController::new(0, geom, TimingParams::default());
            // Random prior state: a few requests somewhere in the vault.
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
            let beats = rng.gen_range(2u32..40);
            let row_step = rng.gen_range(1usize..4);
            let loc = Location {
                vault: 0,
                layer: rng.gen_range(0usize..geom.layers),
                bank: rng.gen_range(0usize..geom.banks_per_layer),
                row: rng.gen_range(0usize..32),
                col: rng.gen_range(0u32..64) * 8,
            };
            let bytes = 1 << rng.gen_range(0u32..7);
            let dir = if rng.gen_bool() { Direction::Read } else { Direction::Write };
            let pacing = RunPacing {
                t_kernel_fs: rng.gen_range(0u64..1 << 50) as u128,
                window_fs: rng.gen_range(0u64..1 << 45) as u128,
                op_fs: rng.gen_range(0u64..1 << 20) as u128,
                floor: Picos(rng.gen_range(0u64..1 << 30)),
                probe_beat: rng.gen_bool().then(|| rng.gen_range(0u64..beats as u64)),
                horizon: Picos::MAX,
            };
            assert_paced_matches_scalar(c, loc, bytes, dir, row_step, beats, pacing);
        });
    }

    #[test]
    fn arrival_time_defers_scheduling() {
        let mut c = ctl();
        let out = c.service(Request::read(loc(0, 0, 0, 0), 8).arriving_at(Picos(1_000_000)));
        assert!(out.data_start >= Picos(1_000_000));
    }
}
