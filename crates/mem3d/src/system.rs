//! The complete memory device: all vaults behind one façade.

use crate::{
    AddressMap, AddressMapKind, BandwidthReport, Direction, Error, Geometry, Location, Picos,
    Request, RequestOutcome, Result, RunPacing, RunServed, Stats, TimingParams, TraceOp, TraceRun,
    VaultController,
};

/// Femtoseconds per picosecond (the driver's kernel clock runs in
/// integer femtoseconds; see `fft2d::run_phase`).
const FS_PER_PS: u128 = 1_000;

/// What the skip-ahead span classifier
/// ([`MemorySystem::service_paced_span`]) decided about a pulled run.
///
/// The three variants encode how much of the run the driver should hand
/// back to its scalar beat loop — in particular,
/// [`Scalar`](SpanOutcome::Scalar) is the **amortized run-probe gate**:
/// it tells the driver the run can *never* fuse, so the remainder costs
/// one branch per beat instead of a failed classification attempt per
/// beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// A conflict-free span was advanced in one fused pass; the served
    /// prefix (possibly the whole run) is described by the payload.
    Served(RunServed),
    /// Not fusable *at this position* (e.g. the last beat before a bank
    /// stretch boundary): step exactly one scalar beat, then re-attempt
    /// classification with the remainder.
    Step,
    /// Structurally ineligible — no position of this run will ever
    /// fuse (wrong service path, empty beats, beats that split across
    /// rows or stride slots, strides that neither are whole rows nor
    /// divide one). Expand the whole
    /// remainder through the scalar loop without re-probing.
    Scalar,
}

/// Which request-servicing implementation the system uses.
///
/// [`Fast`](ServicePath::Fast) is the default: cached shift/mask address
/// maps, decode-once burst walks and closed-form row streaming.
/// [`Reference`](ServicePath::Reference) is the original scalar path —
/// the map is rebuilt per call and every row fragment is decoded with
/// the div/mod chain — kept as the golden reference the differential
/// property tests compare against. Both paths are bit-identical in
/// every observable (outcomes, statistics, controller state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServicePath {
    /// Cached maps + decode-once bursts (the default).
    #[default]
    Fast,
    /// Per-call map construction + per-fragment div/mod decode.
    Reference,
}

/// The complete 3D memory device: one [`VaultController`] per vault, all
/// sharing a [`Geometry`] and [`TimingParams`].
///
/// Vaults are fully independent; the system routes each request to its
/// vault's controller and aggregates statistics. Requests that cross a
/// row boundary are split transparently.
///
/// One [`AddressMap`] per [`AddressMapKind`] is built at construction
/// and cached, so the request hot path never rebuilds a decoder.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    geom: Geometry,
    timing: TimingParams,
    controllers: Vec<VaultController>,
    /// One cached map per [`AddressMapKind`], indexed by `kind.index()`.
    maps: [AddressMap; 3],
    /// Cached `geom.capacity_bytes()` for per-burst bounds checks.
    capacity: u64,
    path: ServicePath,
}

impl MemorySystem {
    /// Builds an idle device.
    ///
    /// # Panics
    ///
    /// Panics if `geom` or `timing` fail validation; use
    /// [`MemorySystem::try_new`] for fallible construction.
    pub fn new(geom: Geometry, timing: TimingParams) -> Self {
        // simlint::allow(P001): documented constructor panic on invalid
        // config; `try_new` is the fallible path and nothing on the
        // request service path calls `new`.
        Self::try_new(geom, timing).expect("invalid memory configuration")
    }

    /// Fallible counterpart of [`MemorySystem::new`].
    ///
    /// # Errors
    ///
    /// Returns the first geometry or timing validation error.
    pub fn try_new(geom: Geometry, timing: TimingParams) -> Result<Self> {
        geom.validate()?;
        timing.validate()?;
        let controllers = (0..geom.vaults)
            .map(|v| VaultController::new(v, geom, timing))
            .collect(); // simlint::allow(H001): system construction — one controller table per device, never per request
        Ok(MemorySystem {
            geom,
            timing,
            controllers,
            maps: AddressMapKind::ALL.map(|k| AddressMap::new(k, geom)),
            capacity: geom.capacity_bytes(),
            path: ServicePath::Fast,
        })
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The cached address map for `kind`.
    pub fn address_map(&self, kind: AddressMapKind) -> &AddressMap {
        &self.maps[kind.index()]
    }

    /// The active request-servicing implementation.
    pub fn service_path(&self) -> ServicePath {
        self.path
    }

    /// Selects the request-servicing implementation. Both paths are
    /// bit-identical in every observable; [`ServicePath::Reference`]
    /// exists for differential testing and before/after benchmarking.
    pub fn set_service_path(&mut self, path: ServicePath) {
        self.path = path;
    }

    /// Device peak bandwidth in GB/s (`vaults × per-vault TSV rate`).
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.geom.vaults as f64 * self.timing.vault_peak_gbps()
    }

    /// Access to one vault's controller (e.g. to inspect bank state).
    ///
    /// # Panics
    ///
    /// Panics if `vault` is out of range.
    pub fn controller(&self, vault: usize) -> &VaultController {
        &self.controllers[vault]
    }

    /// The vault that would serve a burst starting at flat address
    /// `addr` under `map_kind` — the routing hook the tenancy service
    /// uses to group contending request streams by vault controller
    /// before a beat is actually submitted.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] when `addr` is outside the device.
    pub fn vault_of(&self, map_kind: AddressMapKind, addr: u64) -> Result<usize> {
        Ok(self.maps[map_kind.index()].decode(addr)?.vault)
    }

    /// Chunked-map linearization of a location, used for error reporting
    /// on the location-addressed API.
    fn chunked_flat(g: &Geometry, loc: Location) -> u64 {
        (((loc.vault as u64 * g.layers as u64 + loc.layer as u64) * g.banks_per_layer as u64
            + loc.bank as u64)
            * g.rows_per_bank as u64
            + loc.row as u64)
            * g.row_bytes as u64
            + loc.col as u64
    }

    /// Checks that a non-empty `bytes`-long access at `addr` ends inside
    /// the device. An end past `u64::MAX` is out of range too — the sum
    /// must not wrap (or panic in debug builds).
    fn check_range(&self, addr: u64, bytes: u64) -> Result<()> {
        match addr.checked_add(bytes - 1) {
            Some(end) if end < self.capacity => Ok(()),
            end => Err(Error::OutOfRange {
                addr: end.unwrap_or(u64::MAX),
                capacity: self.capacity,
            }),
        }
    }

    /// Serves one request, splitting it at row boundaries if needed.
    /// The continuation row is the *next row of the same bank*, so the
    /// request must fit within its bank.
    ///
    /// Returns the outcome of the final fragment; `data_start` is taken
    /// from the first fragment so latency measurements span the whole
    /// request.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] if the request's location is outside
    /// the geometry or the request runs past the last row of its bank
    /// (the reported address is the location's chunked-map
    /// linearization), and [`Error::BadRequest`] if its length is zero.
    // simlint::entry(service_path)
    // simlint::entry(hot_path)
    pub fn service(&mut self, req: Request) -> Result<RequestOutcome> {
        if !self.geom.contains(req.loc) {
            return Err(Error::OutOfRange {
                addr: Self::chunked_flat(&self.geom, req.loc),
                capacity: self.capacity,
            });
        }
        if req.bytes == 0 {
            return Err(Error::BadRequest("zero-length request".into()));
        }
        let row_bytes = self.geom.row_bytes;
        // Reject requests running past the bank's last row up front
        // (rather than wrapping silently to row 0), so a rejected
        // request leaves no trace in the statistics.
        let bank_avail =
            (self.geom.rows_per_bank - req.loc.row) as u64 * row_bytes as u64 - req.loc.col as u64;
        if req.bytes as u64 > bank_avail {
            return Err(Error::OutOfRange {
                addr: Self::chunked_flat(&self.geom, req.loc) + req.bytes as u64 - 1,
                capacity: self.capacity,
            });
        }
        let mut remaining = req.bytes as usize;
        let mut loc = req.loc;
        // The first fragment is served eagerly (`bytes > 0` was checked
        // above), so the request-wide `data_start` is captured directly
        // instead of through an Option.
        let take = remaining.min(row_bytes - loc.col as usize);
        let mut out = self.controllers[loc.vault].service(Request {
            loc,
            bytes: take as u32,
            ..req
        });
        let data_start = out.data_start;
        remaining -= take;
        while remaining > 0 {
            // Continue in the next row of the same bank (the controller
            // treats this as a row conflict, as real hardware would).
            loc = Location {
                row: loc.row + 1,
                col: 0,
                ..loc
            };
            let take = remaining.min(row_bytes);
            out = self.controllers[loc.vault].service(Request {
                loc,
                bytes: take as u32,
                ..req
            });
            remaining -= take;
        }
        Ok(RequestOutcome { data_start, ..out })
    }

    /// Serves a request addressed by flat byte address through `map_kind`.
    ///
    /// Equivalent to [`service_burst`](Self::service_burst) with the
    /// fields spelled out.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] when the address (plus length) falls
    /// outside the device.
    pub fn service_addr(
        &mut self,
        map_kind: AddressMapKind,
        addr: u64,
        bytes: u32,
        dir: Direction,
        at: Picos,
    ) -> Result<RequestOutcome> {
        self.service_burst(map_kind, TraceOp { addr, bytes, dir }, at)
    }

    /// Serves one coalesced burst arriving at `at`, addressed by flat
    /// byte address through `map_kind`.
    ///
    /// On the [`Fast`](ServicePath::Fast) path the burst's start
    /// location is decoded **once** against the cached map; row
    /// fragments past the first advance with incremental location
    /// arithmetic ([`AddressMap::next_row_location`]) instead of
    /// re-decoding. The [`Reference`](ServicePath::Reference) path
    /// rebuilds the map and decodes every fragment, as the original
    /// implementation did. Both are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] when the address (plus length) falls
    /// outside the device and [`Error::BadRequest`] for empty bursts.
    pub fn service_burst(
        &mut self,
        map_kind: AddressMapKind,
        op: TraceOp,
        at: Picos,
    ) -> Result<RequestOutcome> {
        match self.path {
            ServicePath::Fast => self.service_burst_fast(map_kind, op, at),
            ServicePath::Reference => {
                self.service_addr_reference(map_kind, op.addr, op.bytes, op.dir, at)
            }
        }
    }

    fn service_burst_fast(
        &mut self,
        map_kind: AddressMapKind,
        op: TraceOp,
        at: Picos,
    ) -> Result<RequestOutcome> {
        if op.bytes == 0 {
            return Err(Error::BadRequest("zero-length request".into()));
        }
        self.check_range(op.addr, op.bytes as u64)?;
        let loc = self.maps[map_kind.index()].decode(op.addr)?;
        let row_bytes = self.geom.row_bytes;
        let in_row = row_bytes - loc.col as usize;
        if op.bytes as usize <= in_row {
            // Hot single-fragment case: one decode, one controller call.
            return Ok(self.controllers[loc.vault].service(Request {
                loc,
                bytes: op.bytes,
                dir: op.dir,
                at,
            }));
        }
        // Multi-fragment walk: decode once, then advance rows with
        // carry arithmetic in the map's interleaving order. The first
        // fragment is served eagerly so `data_start` needs no Option.
        let map = self.maps[map_kind.index()];
        let mut remaining = op.bytes as usize;
        let mut loc = loc;
        let mut out = self.controllers[loc.vault].service(Request {
            loc,
            bytes: in_row as u32,
            dir: op.dir,
            at,
        });
        let data_start = out.data_start;
        remaining -= in_row;
        while remaining > 0 {
            // simlint::allow(P001): `end < capacity` was verified at
            // entry, so every continuation row of an in-bounds burst
            // exists — the map can always advance here.
            loc = map.next_row_location(loc).expect("in-bounds burst");
            let take = remaining.min(row_bytes);
            out = self.controllers[loc.vault].service(Request {
                loc,
                bytes: take as u32,
                dir: op.dir,
                at,
            });
            remaining -= take;
        }
        Ok(RequestOutcome { data_start, ..out })
    }

    /// The original scalar implementation of
    /// [`service_addr`](Self::service_addr), kept verbatim as the golden
    /// reference: the address map is rebuilt on every call and every row
    /// fragment is decoded with the div/mod chain.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] when the address (plus length) falls
    /// outside the device and [`Error::BadRequest`] for empty requests.
    pub fn service_addr_reference(
        &mut self,
        map_kind: AddressMapKind,
        addr: u64,
        bytes: u32,
        dir: Direction,
        at: Picos,
    ) -> Result<RequestOutcome> {
        if bytes == 0 {
            return Err(Error::BadRequest("zero-length request".into()));
        }
        let map = AddressMap::reference(map_kind, self.geom);
        self.check_range(addr, bytes as u64)?;
        // Split at row boundaries so each fragment decodes contiguously.
        // The first fragment is served eagerly (`bytes > 0` was checked
        // above), capturing the request-wide `data_start` directly.
        let row_bytes = self.geom.row_bytes as u64;
        let mut cur = addr;
        let mut remaining = bytes as u64;
        let take = remaining.min(row_bytes - cur % row_bytes);
        let loc = map.decode_reference(cur)?;
        let mut out = self.controllers[loc.vault].service(Request {
            loc,
            bytes: take as u32,
            dir,
            at,
        });
        let data_start = out.data_start;
        cur += take;
        remaining -= take;
        while remaining > 0 {
            let in_row = row_bytes - cur % row_bytes;
            let take = remaining.min(in_row);
            let loc = map.decode_reference(cur)?;
            out = self.controllers[loc.vault].service(Request {
                loc,
                bytes: take as u32,
                dir,
                at,
            });
            cur += take;
            remaining -= take;
        }
        Ok(RequestOutcome { data_start, ..out })
    }

    /// Serves a run of `beats` back-to-back accesses of `bytes` each,
    /// starting at `addr` and all landing in the **same memory row** —
    /// exactly equivalent to `beats` calls of
    /// [`service_addr`](Self::service_addr) at consecutive addresses,
    /// all arriving at `at`, but resolved through the controller's
    /// closed-form streaming fast path when eligible.
    ///
    /// Returns the first beat's `data_start` and `row_hit` with the last
    /// beat's `done`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadRequest`] for empty runs or runs that cross a
    /// row boundary, and [`Error::OutOfRange`] when the run falls
    /// outside the device.
    pub fn service_run(
        &mut self,
        map_kind: AddressMapKind,
        addr: u64,
        bytes: u32,
        beats: u32,
        dir: Direction,
        at: Picos,
    ) -> Result<RequestOutcome> {
        if bytes == 0 || beats == 0 {
            return Err(Error::BadRequest("zero-length run".into()));
        }
        let total = bytes as u64 * beats as u64;
        self.check_range(addr, total)?;
        let loc = self.maps[map_kind.index()].decode(addr)?;
        if loc.col as u64 + total > self.geom.row_bytes as u64 {
            return Err(Error::BadRequest("run crosses a row boundary".into()));
        }
        Ok(self.controllers[loc.vault].service_run(
            Request {
                loc,
                bytes,
                dir,
                at,
            },
            beats,
        ))
    }

    /// Classifies a pulled run against register-resident controller
    /// state and advances the clock across the longest conflict-free
    /// span it can prove — the entry point of the **event-driven
    /// skip-ahead core** the phase driver (`fft2d::run_phase`) uses on
    /// the [`Fast`](ServicePath::Fast) path.
    ///
    /// Span classes, in the order they are tried:
    ///
    /// 1. **Same-bank ascending-row spans** — refresh off and
    ///    [`AddressMap::stride_run_location`] proves every beat is a row
    ///    miss in one bank with strictly ascending rows (the baseline's
    ///    strided column sweep): the bank stretch resolves in the
    ///    controller's closed-form fused loop
    ///    ([`VaultController::service_paced_run`]); a run crossing into
    ///    the next bank is served stretch by stretch.
    /// 2. **Per-beat spans** — whole-row strides whose beats hop
    ///    banks/layers/vaults each beat (the optimized DDL layouts'
    ///    grouped column phase emits these as runs of full 8 KiB row
    ///    bursts), and sub-row strides that divide the row size (the
    ///    row-major column walk at N ≤ 512, several matrix rows per
    ///    memory row): the whole run is fused at system level with one
    ///    decode + controller dispatch per beat, skipping the per-beat
    ///    driver round trip. Refresh windows, row hits and TSV
    ///    saturation crossings are *inside* the per-beat schedule, so
    ///    this class stays exact with refresh enabled.
    ///
    /// Everything else falls back: [`SpanOutcome::Step`] when only the
    /// current position blocks fusion (one scalar beat, then retry),
    /// [`SpanOutcome::Scalar`] when the run's shape can never fuse (the
    /// amortized probe gate — the driver stops asking).
    ///
    /// Both classes honour [`RunPacing::horizon`]: they stop before the
    /// first beat whose grant reaches it, so a `Served` span may cover
    /// fewer beats than either class could prove — zero included.
    ///
    /// Every fused span is bit-identical — in outcomes, statistics and
    /// controller state — to the driver's scalar per-beat loop under
    /// the same pacing law; the differential suite
    /// (`tests/hotpath_equivalence.rs`) proves it across every
    /// skip→step transition.
    pub fn service_paced_span(
        &mut self,
        map_kind: AddressMapKind,
        run: TraceRun,
        pacing: &RunPacing,
    ) -> SpanOutcome {
        if self.path != ServicePath::Fast || run.beats < 2 || run.op.bytes == 0 {
            return SpanOutcome::Scalar;
        }
        let row_bytes = self.geom.row_bytes as u64;
        // Each beat must stay inside its row: the fused loops never
        // split a beat into fragments.
        if run.op.addr % row_bytes + run.op.bytes as u64 > row_bytes {
            return SpanOutcome::Scalar;
        }
        // Class 1: same-bank ascending rows, closed form (refresh
        // windows would interleave the fused schedule, so they decline).
        if !self.timing.refresh_enabled() {
            if let Some((loc, row_step, fit)) =
                self.maps[map_kind.index()].stride_run_location(run.op.addr, run.stride, run.beats)
            {
                if fit >= 2 {
                    return SpanOutcome::Served(self.controllers[loc.vault].service_paced_run(
                        loc,
                        run.op.bytes,
                        run.op.dir,
                        row_step,
                        fit,
                        pacing,
                    ));
                }
                // One beat left in this bank stretch: serve it scalar,
                // then the next stretch fuses.
                return SpanOutcome::Step;
            }
        }
        // Class 2: per-beat spans. Every beat must stay inside its row:
        // a whole-row stride keeps the first beat's in-row offset; a
        // stride dividing the row size tiles each row with stride slots,
        // so a first beat inside its slot keeps every beat inside one.
        // The whole run must fit the device, so the per-beat decode
        // cannot fail.
        let stride = run.stride;
        let in_row = stride > 0
            && (stride.is_multiple_of(row_bytes)
                || (row_bytes.is_multiple_of(stride)
                    && run.op.addr % stride + run.op.bytes as u64 <= stride));
        let span = (run.beats as u64 - 1).checked_mul(stride);
        let end = span.and_then(|s| run.op.addr.checked_add(s + run.op.bytes as u64 - 1));
        if in_row && end.is_some_and(|e| e < self.capacity) {
            return SpanOutcome::Served(self.service_paced_xrun(map_kind, run, pacing));
        }
        SpanOutcome::Scalar
    }

    /// Fuses a **per-beat span**: `run.beats` beats that each fit one
    /// memory row, each arrival derived from the driver's kernel clock
    /// per `pacing`. Exactly equivalent to the driver's scalar loop
    /// calling [`service_burst`](Self::service_burst) once per beat —
    /// the same decode and the same per-beat controller schedule — but
    /// with the pacing law replicated in-register and none of the
    /// per-beat driver/stream bookkeeping. Unlike the same-bank closed
    /// form this keeps the full per-beat schedule, so contention
    /// boundaries (refresh windows, TSV saturation crossings, bank
    /// conflicts) resolve inside it without a fallback. It stops before
    /// the first beat whose grant on its vault reaches
    /// [`RunPacing::horizon`].
    ///
    /// Preconditions (caller-checked): fast path, `beats ≥ 2`,
    /// `bytes > 0`, every beat inside one row, whole run inside the
    /// device.
    fn service_paced_xrun(
        &mut self,
        map_kind: AddressMapKind,
        run: TraceRun,
        pacing: &RunPacing,
    ) -> RunServed {
        let map = self.maps[map_kind.index()];
        let mut t_fs = pacing.t_kernel_fs;
        let mut addr = run.op.addr;
        let mut probe_done = None;
        // Beats on different vaults need not complete in order; the
        // driver observes the span's *latest* completion.
        let mut last_done = Picos::ZERO;
        let mut served = 0;
        for i in 0..run.beats as u64 {
            let at = Picos::from_fs_clock(t_fs.saturating_sub(pacing.window_fs)).max(pacing.floor);
            // simlint::allow(P001): the whole run was bounds-checked by
            // `service_paced_span`, so every beat address decodes.
            let loc = map.decode(addr).expect("in-bounds beat");
            if at.max(self.controllers[loc.vault].tsv_free_at()) >= pacing.horizon {
                break;
            }
            served += 1;
            let out = self.controllers[loc.vault].service(Request {
                loc,
                bytes: run.op.bytes,
                dir: run.op.dir,
                at,
            });
            t_fs = t_fs.max(out.done.as_ps() as u128 * FS_PER_PS) + pacing.op_fs;
            last_done = last_done.max(out.done);
            if pacing.probe_beat == Some(i) {
                probe_done = Some(out.done);
            }
            addr += run.stride;
        }
        RunServed {
            beats: served,
            t_kernel_fs: t_fs,
            last_done,
            probe_done,
        }
    }

    /// Aggregated statistics across all vaults.
    pub fn stats(&self) -> Stats {
        let mut total = Stats::default();
        for c in &self.controllers {
            total.merge(c.stats());
        }
        total
    }

    /// Achieved bandwidth vs device peak for the current statistics.
    pub fn bandwidth_report(&self) -> BandwidthReport {
        BandwidthReport {
            achieved_gbps: self.stats().bandwidth_gbps(),
            peak_gbps: self.peak_bandwidth_gbps(),
        }
    }

    /// Clears statistics on every controller, keeping row-buffer state.
    pub fn reset_stats(&mut self) {
        for c in &mut self.controllers {
            c.reset_stats();
        }
    }

    /// Returns the device to its power-on state.
    pub fn reset(&mut self) {
        for c in &mut self.controllers {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Location;

    fn sys() -> MemorySystem {
        MemorySystem::new(Geometry::default(), TimingParams::default())
    }

    fn read_run(addr: u64, bytes: u32, beats: u32, stride: u64) -> TraceRun {
        TraceRun {
            op: TraceOp {
                addr,
                bytes,
                dir: Direction::Read,
            },
            beats,
            stride,
        }
    }

    /// The driver's scalar loop under `pacing`: one `service_burst` per
    /// beat, stopping before the first beat whose grant
    /// (`max(arrival, tsv_free_at)` on its vault) reaches the horizon.
    /// Also returns each served beat's grant.
    fn scalar_span(
        m: &mut MemorySystem,
        kind: AddressMapKind,
        run: TraceRun,
        pacing: &RunPacing,
    ) -> (RunServed, Vec<Picos>) {
        let mut grants = Vec::new();
        let mut served = RunServed {
            beats: 0,
            t_kernel_fs: pacing.t_kernel_fs,
            last_done: Picos::ZERO,
            probe_done: None,
        };
        let mut op = run.op;
        for i in 0..run.beats as u64 {
            let t_fs = served.t_kernel_fs;
            let at = Picos::from_fs_clock(t_fs.saturating_sub(pacing.window_fs)).max(pacing.floor);
            let vault = m.vault_of(kind, op.addr).unwrap();
            let grant = at.max(m.controller(vault).tsv_free_at());
            if grant >= pacing.horizon {
                break;
            }
            grants.push(grant);
            let out = m.service_burst(kind, op, at).unwrap();
            served.beats += 1;
            served.t_kernel_fs = t_fs.max(out.done.as_ps() as u128 * FS_PER_PS) + pacing.op_fs;
            served.last_done = served.last_done.max(out.done);
            if pacing.probe_beat == Some(i) {
                served.probe_done = Some(out.done);
            }
            op.addr += run.stride;
        }
        (served, grants)
    }

    /// A whole run under `pacing` the way the phase driver serves it:
    /// fused spans where the classifier allows, one scalar beat
    /// otherwise.
    fn drive(
        m: &mut MemorySystem,
        kind: AddressMapKind,
        mut run: TraceRun,
        pacing: &RunPacing,
    ) -> RunServed {
        let mut acc = RunServed {
            beats: 0,
            t_kernel_fs: pacing.t_kernel_fs,
            last_done: Picos::ZERO,
            probe_done: None,
        };
        while run.beats > 0 {
            let p = RunPacing {
                t_kernel_fs: acc.t_kernel_fs,
                probe_beat: pacing
                    .probe_beat
                    .and_then(|b| b.checked_sub(acc.beats as u64)),
                ..*pacing
            };
            let got = match m.service_paced_span(kind, run, &p) {
                SpanOutcome::Served(s) if s.beats > 0 => s,
                _ => scalar_span(m, kind, TraceRun { beats: 1, ..run }, &p).0,
            };
            assert!(got.beats > 0, "an unbounded horizon always serves");
            acc.beats += got.beats;
            acc.t_kernel_fs = got.t_kernel_fs;
            acc.last_done = acc.last_done.max(got.last_done);
            acc.probe_done = acc.probe_done.or(got.probe_done);
            run.op.addr += got.beats as u64 * run.stride;
            run.beats -= got.beats;
        }
        acc
    }

    #[test]
    fn span_classification_falls_back_correctly() {
        let geom = Geometry::default();
        let mut m = sys();
        let row = geom.row_bytes as u64;
        let pacing = RunPacing {
            t_kernel_fs: 0,
            window_fs: 0,
            op_fs: 8_000,
            floor: Picos::ZERO,
            probe_beat: None,
            horizon: Picos::MAX,
        };
        // Structurally unfusable shapes gate the probe off: zero-byte
        // beats, single beats, beats crossing a row boundary, strides
        // that neither are whole rows nor divide one, beats straddling
        // their stride slot.
        let kind = AddressMapKind::Chunked;
        for run in [
            read_run(0, 0, 8, row),
            read_run(0, 8, 1, row),
            read_run(row - 4, 8, 8, row),
            read_run(0, 8, 8, row + 8),
            // A sub-row stride that does not divide the row, and one
            // whose first beat straddles its stride slot.
            read_run(0, 8, 8, 3000),
            read_run(row / 4 - 4, 8, 8, row / 4),
        ] {
            assert_eq!(
                m.service_paced_span(kind, run, &pacing),
                SpanOutcome::Scalar,
                "{run:?}"
            );
        }
        // The Reference path never fuses.
        let mut r = sys();
        r.set_service_path(ServicePath::Reference);
        assert_eq!(
            r.service_paced_span(kind, read_run(0, 8, 8, row), &pacing),
            SpanOutcome::Scalar
        );
        // Same shape on the fast path: a same-bank ascending-row span.
        // A stride dividing the row (several matrix rows per memory
        // row, the small-N row-major column walk) fuses per beat.
        for stride in [row, row / 4] {
            assert!(matches!(
                m.service_paced_span(kind, read_run(0, 8, 8, stride), &pacing),
                SpanOutcome::Served(_)
            ));
        }
        // Last row of a bank: the classifier proves a one-beat stretch —
        // step it scalar, then the next bank's stretch fuses.
        let last_row = (geom.rows_per_bank as u64 - 1) * row;
        assert_eq!(
            m.service_paced_span(kind, read_run(last_row, 8, 8, row), &pacing),
            SpanOutcome::Step
        );
        // A run leaving the device also steps: the one in-range beat is
        // served scalar and the next beat raises the same OutOfRange the
        // Reference pipeline would.
        assert_eq!(
            m.service_paced_span(
                kind,
                read_run(geom.capacity_bytes() - row, 8, 8, row),
                &pacing
            ),
            SpanOutcome::Step
        );
    }

    #[test]
    fn cross_bank_span_matches_the_scalar_beat_loop() {
        // Class-2 spans (whole-row strides hopping vaults each beat —
        // the grouped block-DDL column walk) must replay the driver's
        // per-beat arithmetic exactly, with refresh off *and* on.
        for timing in [
            TimingParams::default(),
            TimingParams::default().with_refresh(),
        ] {
            let geom = Geometry::default();
            let kind = AddressMapKind::VaultInterleaved;
            let mut fused = MemorySystem::new(geom, timing);
            let mut scalar = MemorySystem::new(geom, timing);
            let row = geom.row_bytes as u64;
            let run = read_run(3 * row, geom.row_bytes as u32, 64, row);
            let pacing = RunPacing {
                t_kernel_fs: 5_000_000,
                window_fs: 2_000_000,
                op_fs: geom.row_bytes as u128 * 31_250,
                floor: Picos(100),
                probe_beat: Some(7),
                horizon: Picos::MAX,
            };
            let outcome = fused.service_paced_span(kind, run, &pacing);
            let SpanOutcome::Served(served) = outcome else {
                panic!("expected a fused cross-bank span, got {outcome:?}");
            };
            // The driver's scalar loop, replayed on a twin device.
            assert_eq!(served, scalar_span(&mut scalar, kind, run, &pacing).0);
            assert_eq!(served.beats, run.beats);
            assert_eq!(fused.stats(), scalar.stats());
        }
    }

    #[test]
    fn span_cut_at_a_horizon_matches_scalar_beats_and_resumes() {
        use sim_util::{prop_assert, prop_assert_eq, prop_check};
        prop_check!(cases: 96, |rng| {
            let timing = if rng.gen_bool() {
                TimingParams::default()
            } else {
                TimingParams::default().with_refresh()
            };
            let geom = Geometry::default();
            let row = geom.row_bytes as u64;
            // One shape per fused class: same-bank ascending rows (the
            // closed form; refresh sends it per beat), vault-hopping
            // whole rows, and a sub-row stride dividing the row.
            let (kind, stride, bytes) = match rng.gen_range(0usize..3) {
                0 => (
                    AddressMapKind::Chunked,
                    row * rng.gen_range(1u64..4),
                    8u32 << rng.gen_range(0u32..4),
                ),
                1 => (
                    AddressMapKind::VaultInterleaved,
                    row,
                    geom.row_bytes as u32 >> rng.gen_range(0u32..4),
                ),
                _ => (AddressMapKind::Chunked, row >> rng.gen_range(1u32..4), 8),
            };
            let addr = rng.gen_range(0u64..64) * row;
            let run = read_run(addr, bytes, rng.gen_range(2u32..48), stride);
            let pacing = RunPacing {
                t_kernel_fs: rng.gen_range(0u64..1 << 30) as u128,
                window_fs: rng.gen_range(0u64..1 << 28) as u128,
                op_fs: rng.gen_range(0u64..1 << 22) as u128,
                floor: Picos(rng.gen_range(0u64..1 << 16)),
                probe_beat: rng.gen_bool().then(|| rng.gen_range(0u64..run.beats as u64)),
                horizon: Picos::MAX,
            };
            // Random prior traffic, identical on every twin.
            let mut base = MemorySystem::new(geom, timing);
            for _ in 0..rng.gen_range(0usize..6) {
                let op = TraceOp {
                    addr: rng.gen_range(0u64..128) * row + rng.gen_range(0u64..16) * 8,
                    bytes: 64,
                    dir: Direction::Write,
                };
                base.service_burst(kind, op, Picos(rng.gen_range(0u64..1 << 24))).unwrap();
            }
            let (mut cut, mut scalar, mut whole) = (base.clone(), base.clone(), base.clone());
            let uncut = drive(&mut whole, kind, run, &pacing);
            prop_assert_eq!(uncut.beats, run.beats);
            // Cut exactly at, just past or just before some beat's
            // grant on the uncut schedule, or anywhere in the span.
            let grants = scalar_span(&mut base, kind, run, &pacing).1;
            let g = grants[rng.gen_range(0..grants.len())];
            let horizon = match rng.gen_range(0usize..4) {
                0 => g,
                1 => g + Picos(1),
                2 => g.saturating_sub(Picos(1)),
                _ => Picos(rng.gen_range(0..uncut.last_done.as_ps() + 2)),
            };
            let cut_pacing = RunPacing { horizon, ..pacing };

            // The cut span equals scalar beats up to the first beat
            // whose grant reaches the horizon.
            let outcome = cut.service_paced_span(kind, run, &cut_pacing);
            let SpanOutcome::Served(head) = outcome else {
                prop_assert!(false, "{run:?} must fuse, got {outcome:?}");
                unreachable!()
            };
            prop_assert_eq!(head, scalar_span(&mut scalar, kind, run, &cut_pacing).0);
            prop_assert_eq!(
                format!("{cut:?}"),
                format!("{scalar:?}"),
                "device state after the cut"
            );

            // Resuming the remainder gives the uncut result.
            let rest = TraceRun {
                op: TraceOp { addr: run.op.addr + head.beats as u64 * stride, ..run.op },
                beats: run.beats - head.beats,
                ..run
            };
            let tail = if rest.beats == 0 {
                RunServed {
                    beats: 0,
                    t_kernel_fs: head.t_kernel_fs,
                    last_done: Picos::ZERO,
                    probe_done: None,
                }
            } else {
                let rest_pacing = RunPacing {
                    t_kernel_fs: head.t_kernel_fs,
                    probe_beat: pacing.probe_beat.and_then(|b| b.checked_sub(head.beats as u64)),
                    ..pacing
                };
                drive(&mut cut, kind, rest, &rest_pacing)
            };
            prop_assert_eq!(tail.t_kernel_fs, uncut.t_kernel_fs);
            prop_assert_eq!(head.last_done.max(tail.last_done), uncut.last_done);
            prop_assert_eq!(head.probe_done.or(tail.probe_done), uncut.probe_done);
            prop_assert_eq!(
                format!("{cut:?}"),
                format!("{whole:?}"),
                "device state after resuming"
            );
        });
    }

    #[test]
    fn peak_bandwidth_is_vault_sum() {
        let m = sys();
        assert!((m.peak_bandwidth_gbps() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn try_new_rejects_bad_config() {
        let bad_geom = Geometry {
            vaults: 0,
            ..Geometry::default()
        };
        assert!(MemorySystem::try_new(bad_geom, TimingParams::default()).is_err());
        let bad_timing = TimingParams {
            tsv_ps_per_byte: Picos::ZERO,
            ..TimingParams::default()
        };
        assert!(MemorySystem::try_new(Geometry::default(), bad_timing).is_err());
    }

    #[test]
    fn vault_accesses_run_in_parallel() {
        let mut m = sys();
        // Row misses in 16 different vaults: all finish at the same time
        // because vaults are independent.
        let mut dones = Vec::new();
        for v in 0..16 {
            let loc = Location {
                vault: v,
                ..Location::ZERO
            };
            dones.push(m.service(Request::read(loc, 8)).unwrap().done);
        }
        assert!(dones.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn same_vault_accesses_serialize_on_tsvs() {
        let mut m = sys();
        let a = m.service(Request::read(Location::ZERO, 512)).unwrap();
        let b = m
            .service(Request::read(
                Location {
                    col: 512,
                    ..Location::ZERO
                },
                512,
            ))
            .unwrap();
        assert!(b.done > a.done);
    }

    #[test]
    fn row_boundary_split_touches_next_row() {
        let mut m = sys();
        let row_bytes = m.geometry().row_bytes;
        let loc = Location {
            col: (row_bytes - 8) as u32,
            ..Location::ZERO
        };
        let out = m.service(Request::read(loc, 16)).unwrap();
        // The split forced a second activate in row 1.
        assert_eq!(m.stats().activations, 2);
        assert!(out.done > Picos::ZERO);
        assert_eq!(m.stats().bytes_read, 16);
    }

    #[test]
    fn service_past_last_row_of_bank_is_rejected() {
        // Regression: this used to wrap silently to row 0 of the same
        // bank via `%` and keep going.
        let mut m = sys();
        let g = *m.geometry();
        let loc = Location {
            row: g.rows_per_bank - 1,
            col: (g.row_bytes - 8) as u32,
            ..Location::ZERO
        };
        let r = m.service(Request::read(loc, 16));
        assert!(matches!(r, Err(Error::OutOfRange { .. })), "{r:?}");
        // Rejected up front: no fragment was serviced.
        assert_eq!(m.stats().requests, 0);
        // The last in-bank bytes are still reachable.
        assert!(m.service(Request::read(loc, 8)).is_ok());
    }

    #[test]
    fn service_addr_round_trips_stats() {
        let mut m = sys();
        let out = m
            .service_addr(
                AddressMapKind::VaultInterleaved,
                0,
                64,
                Direction::Write,
                Picos::ZERO,
            )
            .unwrap();
        assert!(out.done > Picos::ZERO);
        assert_eq!(m.stats().bytes_written, 64);
    }

    #[test]
    fn service_burst_rejects_overflow() {
        let mut m = sys();
        let cap = m.geometry().capacity_bytes();
        let kind = AddressMapKind::Chunked;
        let op = |addr, bytes| TraceOp {
            addr,
            bytes,
            dir: Direction::Read,
        };
        for path in [ServicePath::Fast, ServicePath::Reference] {
            m.set_service_path(path);
            // Past the device end, empty, and an end address that
            // would overflow `u64`.
            for bad in [op(cap - 4, 8), op(0, 0), op(u64::MAX - 2, 8)] {
                let r = m.service_burst(kind, bad, Picos::ZERO);
                assert!(r.is_err(), "{path:?} {bad:?}: {r:?}");
            }
            let r = crate::replay_stream(
                &mut crate::StridedSource::read(u64::MAX - 2, 8, 8, 1),
                &mut m,
                kind,
                None,
            );
            assert!(
                matches!(r, Err(Error::OutOfRange { .. })),
                "{path:?}: {r:?}"
            );
        }
        let r = m.service_run(kind, u64::MAX - 2, 8, 2, Direction::Read, Picos::ZERO);
        assert!(matches!(r, Err(Error::OutOfRange { .. })), "{r:?}");
        assert_eq!(m.stats().requests, 0);
    }

    #[test]
    fn fast_and_reference_paths_agree_on_bursts() {
        // Per-outcome equality, including multi-fragment bursts that
        // cross several rows (and, under non-Chunked maps, vaults).
        for kind in AddressMapKind::ALL {
            let mut fast = sys();
            let mut reference = sys();
            reference.set_service_path(ServicePath::Reference);
            assert_eq!(fast.service_path(), ServicePath::Fast);
            let row = Geometry::default().row_bytes as u64;
            let cases = [
                (0u64, 8u32),
                (row - 8, 16),                 // crosses one row boundary
                (3 * row - 4, 3 * row as u32), // spans four rows
                (row / 2, row as u32 * 2),
            ];
            for (i, (addr, bytes)) in cases.into_iter().enumerate() {
                let dir = if i % 2 == 0 {
                    Direction::Read
                } else {
                    Direction::Write
                };
                let at = Picos(i as u64 * 1000);
                let a = fast.service_addr(kind, addr, bytes, dir, at).unwrap();
                let b = reference.service_addr(kind, addr, bytes, dir, at).unwrap();
                assert_eq!(a, b, "{kind:?} burst at {addr}+{bytes}");
            }
            assert_eq!(fast.stats(), reference.stats(), "{kind:?} stats");
        }
    }

    #[test]
    fn service_run_matches_scalar_beats() {
        for kind in AddressMapKind::ALL {
            let mut run = sys();
            let mut scalar = sys();
            let base = 4096u64;
            let out_run = run
                .service_run(kind, base, 8, 32, Direction::Read, Picos(500))
                .unwrap();
            let mut first = None;
            let mut last = None;
            for i in 0..32u64 {
                let o = scalar
                    .service_addr(kind, base + i * 8, 8, Direction::Read, Picos(500))
                    .unwrap();
                first.get_or_insert(o.data_start);
                last = Some(o.done);
            }
            assert_eq!(out_run.data_start, first.unwrap(), "{kind:?}");
            assert_eq!(out_run.done, last.unwrap(), "{kind:?}");
            assert_eq!(run.stats(), scalar.stats(), "{kind:?}");
        }
    }

    #[test]
    fn service_run_rejects_bad_shapes() {
        let mut m = sys();
        let row = m.geometry().row_bytes as u64;
        // Crossing a row boundary is the caller's bug, not a split.
        assert!(m
            .service_run(
                AddressMapKind::Chunked,
                row - 8,
                8,
                2,
                Direction::Read,
                Picos::ZERO
            )
            .is_err());
        assert!(m
            .service_run(
                AddressMapKind::Chunked,
                0,
                8,
                0,
                Direction::Read,
                Picos::ZERO
            )
            .is_err());
        let cap = m.geometry().capacity_bytes();
        assert!(m
            .service_run(
                AddressMapKind::Chunked,
                cap - 8,
                8,
                2,
                Direction::Read,
                Picos::ZERO
            )
            .is_err());
        assert_eq!(m.stats().requests, 0);
    }

    #[test]
    fn sequential_stream_beats_strided_stream() {
        // The fundamental effect the paper exploits: unit-stride access is
        // far faster than N-strided access under the Chunked map.
        let mut m = sys();
        let n = 1024u64;
        for i in 0..n {
            m.service_addr(
                AddressMapKind::Chunked,
                i * 8,
                8,
                Direction::Read,
                Picos::ZERO,
            )
            .unwrap();
        }
        let seq = m.stats().bandwidth_gbps();
        m.reset();
        let stride = 1024 * 8;
        for i in 0..n {
            m.service_addr(
                AddressMapKind::Chunked,
                i * stride,
                8,
                Direction::Read,
                Picos::ZERO,
            )
            .unwrap();
        }
        let strided = m.stats().bandwidth_gbps();
        assert!(
            seq > strided * 10.0,
            "sequential {seq} GB/s should dwarf strided {strided} GB/s"
        );
    }

    #[test]
    fn service_rejects_foreign_location_and_zero_length() {
        let mut m = sys();
        let foreign = m.service(Request::read(
            Location {
                vault: 99,
                ..Location::ZERO
            },
            8,
        ));
        assert!(
            matches!(foreign, Err(Error::OutOfRange { .. })),
            "{foreign:?}"
        );
        let empty = m.service(Request::read(Location::ZERO, 0));
        assert!(matches!(empty, Err(Error::BadRequest(_))), "{empty:?}");
        // Rejected requests leave no trace in the statistics.
        assert_eq!(m.stats().requests, 0);
    }
}
