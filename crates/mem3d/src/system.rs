//! The complete memory device: all vaults behind one façade.

use crate::controller::picks_used;
use crate::jump::{Jump, Span};
use crate::{
    AddressMap, AddressMapKind, BandwidthReport, Direction, Error, Geometry, Location, Picos,
    Request, RequestOutcome, Result, RunPacing, RunServed, Stats, TimingParams, TraceOp, TraceRun,
    TraceTrain, VaultController, VaultLease,
};

/// Femtoseconds per picosecond (the driver's kernel clock runs in
/// integer femtoseconds; see `fft2d::run_phase`).
pub(crate) const FS_PER_PS: u128 = 1_000;

/// The latest arrival [`MemorySystem::service_burst`] accepts: half the
/// [`Picos`] range, about 106 simulated days. The controllers add
/// service times to an arrival, so an arrival near [`Picos::MAX`] would
/// overflow their clocks; below this ceiling they would have to serve
/// another 106 days of traffic first.
pub(crate) const MAX_ARRIVAL: Picos = Picos(u64::MAX / 2);

/// What the skip-ahead span classifier
/// ([`MemorySystem::service_paced_span`]) decided about a pulled run or
/// train.
///
/// [`Scalar`](SpanOutcome::Scalar) is the **amortized run-probe gate**:
/// it tells the driver the run can *never* fuse, so the remainder costs
/// one branch per beat instead of a failed classification attempt per
/// beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// A prefix of the train was served in fused passes, exactly as the
    /// driver's scalar beat loop would have served it; the payload
    /// describes the prefix. It may be the whole train, or no beat at
    /// all when the first beat's grant reaches [`RunPacing::horizon`]
    /// and [`RunPacing::lease`] does not cover it.
    Served(RunServed),
    /// Not fusable *at this position*: the same-bank class proved a
    /// stretch of one beat (the last row of a bank, or the last beat
    /// inside the device). Step exactly one scalar beat, then classify
    /// the remainder again.
    Step,
    /// Structurally ineligible — no position of this run will ever
    /// fuse: the [`Reference`](ServicePath::Reference) path, single-beat
    /// runs, zero-byte beats, beats that cross a row boundary or
    /// straddle their stride slot, strides that neither are whole rows
    /// nor divide one, and per-beat spans that leave the device. Expand
    /// the whole remainder through the scalar loop without re-probing.
    Scalar,
}

/// Which request-servicing implementation the system uses.
///
/// [`Fast`](ServicePath::Fast) is the default: cached shift/mask address
/// maps, decode-once burst walks in
/// [`MemorySystem::service_burst`] and the fused span classes of
/// [`MemorySystem::service_paced_span`].
/// [`Reference`](ServicePath::Reference) is the original scalar path —
/// `service_burst` rebuilds the map per call and decodes every row
/// fragment with the div/mod chain, and `service_paced_span` answers
/// [`SpanOutcome::Scalar`], so every beat goes through `service_burst`
/// — kept as the golden reference the differential property tests
/// compare against. Both paths are bit-identical in every observable
/// (outcomes, statistics, controller state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServicePath {
    /// Cached maps, decode-once bursts and fused spans (the default).
    #[default]
    Fast,
    /// Per-call map construction + per-fragment div/mod decode, no
    /// fusion.
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
    /// One cached map per [`AddressMapKind`], in [`AddressMapKind::ALL`]
    /// order.
    maps: [AddressMap; 3],
    /// Cached `geom.capacity_bytes()` for per-burst bounds checks.
    capacity: u64,
    path: ServicePath,
    /// The jump engine's scratch for same-bank spans (periods of one
    /// beat) and for trains (periods of one run), which nest.
    beat_jump: Jump,
    train_jump: Jump,
}

/// The two periodic spans, each served on its own jump engine.
#[derive(Debug, Clone, Copy)]
enum SpanKind {
    /// A same-bank stretch: periods of one beat.
    SameBank,
    /// A train: periods of one run.
    Train,
}

impl MemorySystem {
    /// Builds an idle device.
    ///
    /// # Panics
    ///
    /// Panics if `geom` or `timing` fail validation; use
    /// [`MemorySystem::try_new`] for fallible construction.
    pub fn new(geom: Geometry, timing: TimingParams) -> Self {
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
            .collect();
        Ok(MemorySystem {
            geom,
            timing,
            controllers,
            maps: AddressMapKind::ALL.map(|k| AddressMap::new(k, geom)),
            capacity: geom.capacity_bytes(),
            path: ServicePath::Fast,
            beat_jump: Jump::new(&geom, &timing),
            train_jump: Jump::new(&geom, &timing),
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
        let [chunked, row, vault] = &self.maps;
        match kind {
            AddressMapKind::Chunked => chunked,
            AddressMapKind::RowInterleaved => row,
            AddressMapKind::VaultInterleaved => vault,
        }
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
        Ok(self.address_map(map_kind).decode(addr)?.vault)
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

    /// Serves one coalesced burst arriving at `at`, addressed by flat
    /// byte address through `map_kind` — one of the device's two
    /// request-serving entries (the other is
    /// [`service_paced_span`](Self::service_paced_span)). A burst that
    /// crosses a row boundary is split transparently: the continuation
    /// is the next row in the map's interleaving order. Returns the
    /// outcome of the last fragment with the first fragment's
    /// `data_start`, so latency measurements span the whole burst.
    ///
    /// On the [`Fast`](ServicePath::Fast) path the burst's start
    /// location is decoded **once** against the cached map; row
    /// fragments past the first advance with incremental location
    /// arithmetic ([`AddressMap::next_row_location`]) instead of
    /// re-decoding. The [`Reference`](ServicePath::Reference) path
    /// rebuilds the map and decodes every fragment with the div/mod
    /// chain — the golden oracle. Both are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfRange`] when the address (plus length) falls
    /// outside the device, and [`Error::BadRequest`] for empty bursts
    /// and for arrivals past `u64::MAX / 2` ps (about 106 simulated
    /// days), which would overflow the controllers' clocks. A rejected
    /// burst leaves no trace in the statistics.
    // simlint::entry(service_path)
    // simlint::entry(hot_path)
    pub fn service_burst(
        &mut self,
        map_kind: AddressMapKind,
        op: TraceOp,
        at: Picos,
    ) -> Result<RequestOutcome> {
        if at > MAX_ARRIVAL {
            return Err(Error::BadRequest(
                "arrival past the simulated-time ceiling".into(),
            ));
        }
        match self.path {
            ServicePath::Fast => self.service_burst_fast(map_kind, op, at),
            ServicePath::Reference => self.service_burst_reference(map_kind, op, at),
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
        let loc = self.address_map(map_kind).decode(op.addr)?;
        let row_bytes = self.geom.row_bytes;
        let in_row = row_bytes - loc.col as usize;
        if op.bytes as usize <= in_row {
            // Hot single-fragment case: one decode, one controller call.
            return self.serve_fragment(loc, op.bytes, op.dir, at);
        }
        // Multi-fragment walk: decode once, then advance rows with
        // carry arithmetic in the map's interleaving order. The first
        // fragment is served eagerly so `data_start` needs no Option.
        let map = *self.address_map(map_kind);
        let mut remaining = op.bytes as usize;
        let mut loc = loc;
        let mut out = self.serve_fragment(loc, in_row as u32, op.dir, at)?;
        let data_start = out.data_start;
        remaining -= in_row;
        while remaining > 0 {
            // simlint::allow(P101): `end < capacity` was verified at
            // entry, so every continuation row of an in-bounds burst
            // exists — the map can always advance here.
            loc = map.next_row_location(loc).expect("in-bounds burst");
            let take = remaining.min(row_bytes);
            out = self.serve_fragment(loc, take as u32, op.dir, at)?;
            remaining -= take;
        }
        Ok(RequestOutcome { data_start, ..out })
    }

    /// The original scalar implementation of
    /// [`service_burst`](Self::service_burst), kept verbatim as the
    /// golden reference: the address map is rebuilt on every call and
    /// every row fragment is decoded with the div/mod chain.
    fn service_burst_reference(
        &mut self,
        map_kind: AddressMapKind,
        op: TraceOp,
        at: Picos,
    ) -> Result<RequestOutcome> {
        let TraceOp { addr, bytes, dir } = op;
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
        let mut out = self.serve_fragment(loc, take as u32, dir, at)?;
        let data_start = out.data_start;
        cur += take;
        remaining -= take;
        while remaining > 0 {
            let in_row = row_bytes - cur % row_bytes;
            let take = remaining.min(in_row);
            let loc = map.decode_reference(cur)?;
            out = self.serve_fragment(loc, take as u32, dir, at)?;
            cur += take;
            remaining -= take;
        }
        Ok(RequestOutcome { data_start, ..out })
    }

    /// Serves one row fragment at `loc` on its vault's controller.
    #[inline]
    fn serve_fragment(
        &mut self,
        loc: Location,
        bytes: u32,
        dir: Direction,
        at: Picos,
    ) -> Result<RequestOutcome> {
        let Some(c) = self.controllers.get_mut(loc.vault) else {
            return Err(vault_outside(loc.vault));
        };
        Ok(c.service(Request {
            loc,
            bytes,
            dir,
            at,
        }))
    }

    /// Classifies a pulled train of runs against register-resident
    /// controller state and advances the clock across the longest
    /// conflict-free span it can prove — the entry point of the
    /// **event-driven skip-ahead core** the phase driver
    /// (`fft2d::run_phase`) uses on the [`Fast`](ServicePath::Fast)
    /// path. A single run is a train of one (`train.run.into()`).
    ///
    /// Span classes, in the order they are tried on each run:
    ///
    /// 1. **Same-bank ascending-row spans** — refresh off and
    ///    [`AddressMap::stride_run_location`] proves every beat is a row
    ///    miss in one bank with strictly ascending rows (the baseline's
    ///    strided column sweep): the bank stretch is a periodic span of
    ///    one-beat periods, each advancing the bank's open row by the
    ///    stride's row step; a run crossing into the next bank is served
    ///    stretch by stretch.
    /// 2. **Per-beat spans** — whole-row strides whose beats hop
    ///    banks/layers/vaults each beat (the optimized DDL layouts'
    ///    grouped column phase emits these as runs of full 8 KiB row
    ///    bursts, and the row-major column walk on the vault-interleaved
    ///    map as single elements), and sub-row strides that divide the
    ///    row size (the row-major column walk at N ≤ 512, several matrix
    ///    rows per memory row): the whole run is fused at system level
    ///    with one decode + controller dispatch per beat, skipping the
    ///    per-beat driver round trip. Refresh windows, row hits and TSV
    ///    saturation crossings are *inside* the per-beat schedule, so
    ///    this class stays exact with refresh enabled.
    ///
    /// **Trains.** Once the first run is served whole, the train's
    /// later runs follow it through the same classes, run by run, as
    /// long as every beat stays inside the memory row of the matching
    /// beat of the first run (the rest of the train goes back to the
    /// driver). Decode depends only on `addr / row_bytes`, so every run
    /// of such a train visits the same vaults, banks and rows in the
    /// same order on every map, and the device advances by one fixed
    /// function of the state per run: a train is a periodic span of
    /// one-run periods that advance no rows.
    ///
    /// Both periodic spans jump over their steady state in closed form
    /// with refresh off: the steady-state jump, whose theorem, snapshot,
    /// covariance conditions, caps and exactness argument DESIGN.md
    /// states once ("The steady-state jump").
    ///
    /// Everything else falls back: [`SpanOutcome::Step`] when only the
    /// current position blocks fusion (one scalar beat, then retry),
    /// [`SpanOutcome::Scalar`] when the run's shape can never fuse (the
    /// amortized probe gate — the driver stops asking).
    ///
    /// Both classes honour [`RunPacing::horizon`]: they stop before the
    /// first beat whose grant reaches it, so a `Served` span may cover
    /// fewer beats than either class could prove — zero included. A
    /// `Served` span's beats count from the train's first beat, and so
    /// does [`RunPacing::probe_beat`]. Both classes also serve the beats
    /// [`RunPacing::lease`] covers ([`RunServed::leased`] counts them),
    /// and stop before the first beat arriving past `u64::MAX / 2` ps:
    /// the driver's scalar beat then returns
    /// [`service_burst`](Self::service_burst)'s error for it.
    ///
    /// Every fused span is bit-identical — in outcomes, statistics and
    /// controller state — to the driver's scalar per-beat loop under
    /// the same pacing law; the differential suite
    /// (`tests/hotpath_equivalence.rs`) proves it across every
    /// skip→step transition.
    pub fn service_paced_span(
        &mut self,
        map_kind: AddressMapKind,
        train: TraceTrain,
        pacing: &RunPacing,
    ) -> SpanOutcome {
        let first = self.span_run(map_kind, train.run, pacing);
        match first {
            SpanOutcome::Served(head) if head.beats == train.run.beats => {
                let repeats = self.in_row_repeats(&train);
                if repeats == 0 {
                    return first;
                }
                // The whole train's beat count must fit the served count.
                let repeats = repeats.min(u32::MAX / head.beats - 1);
                SpanOutcome::Served(self.serve_train(map_kind, train, repeats, pacing, head))
            }
            _ => first,
        }
    }

    /// Serves runs 1 to `repeats` of `train` after its first (already
    /// served as `head`) through [`span_run`](Self::span_run), as a
    /// periodic span of one-run periods that advance no rows (DESIGN.md,
    /// "The steady-state jump"). Stops at the first run not served
    /// whole.
    fn serve_train(
        &mut self,
        map_kind: AddressMapKind,
        train: TraceTrain,
        repeats: u32,
        pacing: &RunPacing,
        head: RunServed,
    ) -> RunServed {
        let run = train.run;
        let map = *self.address_map(map_kind);
        let beats = std::iter::successors(Some(run.op.addr), |a| Some(a.wrapping_add(run.stride)))
            .take(run.beats as usize)
            .map(|addr| map.decode(addr));
        let span = Span {
            periods: repeats + 1,
            beats: run.beats,
            row_advance: 0,
        };
        let (jump, controllers) = self.engine(SpanKind::Train);
        jump.start(controllers, span, beats, run.op, &head, 1);
        self.serve_periods(SpanKind::Train, pacing, head, |m, i, p| {
            match m.span_run(map_kind, run.moved(u64::from(i) * train.step)?, p) {
                SpanOutcome::Served(s) => Some(s),
                _ => None,
            }
        })
    }

    /// Serves a **same-bank stretch**: `beats` beats of `op` from `loc`,
    /// beat *i* in row `loc.row + i·row_step` of the same bank, as a
    /// periodic span of one-beat periods that each advance the bank's
    /// open row by `row_step` (DESIGN.md, "The steady-state jump").
    /// Stops before the first beat [`RunPacing::admits`] refuses.
    fn serve_same_bank(
        &mut self,
        loc: Location,
        op: TraceOp,
        row_step: usize,
        beats: u32,
        pacing: &RunPacing,
    ) -> RunServed {
        let head = RunServed {
            beats: 0,
            t_kernel_fs: pacing.t_kernel_fs,
            last_done: Picos::ZERO,
            probe_done: None,
            leased: 0,
        };
        let span = Span {
            periods: beats,
            beats: 1,
            row_advance: row_step,
        };
        let (jump, controllers) = self.engine(SpanKind::SameBank);
        jump.start(controllers, span, std::iter::once(Ok(loc)), op, &head, 0);
        self.serve_periods(SpanKind::SameBank, pacing, head, |m, i, p| {
            let row = loc.row + i as usize * row_step;
            let (mut t_fs, mut lease) = (p.t_kernel_fs, p.lease);
            let done = m.paced_beat(Location { row, ..loc }, op, p, &mut t_fs, &mut lease)?;
            Some(RunServed {
                beats: 1,
                t_kernel_fs: t_fs,
                last_done: done,
                probe_done: (p.probe_beat == Some(0)).then_some(done),
                leased: picks_used(p.lease, lease),
            })
        })
    }

    /// The jump engine `kind` runs on, and the controllers it moves.
    fn engine(&mut self, kind: SpanKind) -> (&mut Jump, &mut [VaultController]) {
        let jump = match kind {
            SpanKind::SameBank => &mut self.beat_jump,
            SpanKind::Train => &mut self.train_jump,
        };
        (jump, &mut self.controllers)
    }

    /// Serves the periods after `head` (the periods the span was
    /// started with on `kind`'s engine), period *i* through
    /// `serve(self, i, pacing)` with the pacing law moved past the beats
    /// served so far (`None`: not served), folding each into `head`;
    /// after each whole period, the engine may jump over the span's
    /// steady state. Stops at the first period not served whole.
    fn serve_periods(
        &mut self,
        kind: SpanKind,
        pacing: &RunPacing,
        mut acc: RunServed,
        mut serve: impl FnMut(&mut Self, u32, &RunPacing) -> Option<RunServed>,
    ) -> RunServed {
        let (span, mut i) = self.engine(kind).0.progress();
        while i < span.periods {
            let start_fs = acc.t_kernel_fs;
            let p = RunPacing {
                t_kernel_fs: start_fs,
                probe_beat: pacing
                    .probe_beat
                    .and_then(|b| b.checked_sub(u64::from(acc.beats))),
                lease: pacing.lease.map(|l| l.after(acc.leased)),
                ..*pacing
            };
            let Some(s) = serve(self, i, &p) else {
                break;
            };
            acc.beats += s.beats;
            acc.leased += s.leased;
            acc.t_kernel_fs = s.t_kernel_fs;
            acc.last_done = acc.last_done.max(s.last_done);
            acc.probe_done = acc.probe_done.or(s.probe_done);
            if s.beats < span.beats {
                break;
            }
            let (jump, controllers) = self.engine(kind);
            i = jump.after_period(controllers, &s, start_fs, pacing, &mut acc);
        }
        acc
    }

    /// Serves one beat of `op` at `loc` under `pacing`, issued with the
    /// kernel clock at `t_fs`, if [`RunPacing::admits`] it (drawing a
    /// leased pick from `lease`): returns its completion and advances
    /// `t_fs` exactly as the driver's scalar beat does. A vault outside
    /// the device serves nothing, so the span ends and the scalar beat
    /// reports the error.
    fn paced_beat(
        &mut self,
        loc: Location,
        op: TraceOp,
        pacing: &RunPacing,
        t_fs: &mut u128,
        lease: &mut Option<VaultLease>,
    ) -> Option<Picos> {
        let c = self.controllers.get_mut(loc.vault)?;
        let at = pacing.arrival(*t_fs);
        if !pacing.admits(lease, loc.vault, op.bytes, at, c.tsv_free_at()) {
            return None;
        }
        let done = c
            .service(Request {
                loc,
                bytes: op.bytes,
                dir: op.dir,
                at,
            })
            .done;
        *t_fs = (*t_fs).max(done.as_ps() as u128 * FS_PER_PS) + pacing.op_fs;
        Some(done)
    }

    /// How many runs after the first of `train` keep every beat inside
    /// the memory row of the matching beat of the first run (at most
    /// `train.repeats`): each beat must stay in its row when the stride
    /// is whole rows, or in its stride slot when the stride divides the
    /// row.
    fn in_row_repeats(&self, train: &TraceTrain) -> u32 {
        let row_bytes = self.geom.row_bytes as u64;
        // No room for even one move (whole-row bursts, for one): skip
        // the divisions below.
        if train.repeats == 0 || train.run.op.bytes as u64 + train.step > row_bytes {
            return 0;
        }
        let stride = train.run.stride;
        let slot = if stride > 0 && stride.is_multiple_of(row_bytes) {
            row_bytes
        } else if stride > 0 && row_bytes.is_multiple_of(stride) {
            stride
        } else {
            return 0;
        };
        let room = (slot - train.run.op.addr % slot).checked_sub(train.run.op.bytes as u64);
        match room.and_then(|r| r.checked_div(train.step)) {
            Some(fit) => u32::try_from(fit).map_or(train.repeats, |f| f.min(train.repeats)),
            None => 0,
        }
    }

    /// One run through the span classes (see
    /// [`service_paced_span`](Self::service_paced_span)).
    fn span_run(
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
        // Class 1: same-bank ascending rows (the jump needs refresh
        // off, so refresh windows decline the class).
        if !self.timing.refresh_enabled() {
            if let Some((loc, row_step, fit)) =
                self.address_map(map_kind)
                    .stride_run_location(run.op.addr, run.stride, run.beats)
            {
                if fit >= 2 {
                    return SpanOutcome::Served(
                        self.serve_same_bank(loc, run.op, row_step, fit, pacing),
                    );
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
    /// per-beat driver/stream bookkeeping. It keeps the full per-beat
    /// schedule, so contention boundaries (refresh windows, TSV
    /// saturation crossings, bank conflicts) resolve inside it without
    /// a fallback. It stops before the first beat
    /// [`RunPacing::admits`] refuses.
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
        let map = *self.address_map(map_kind);
        let mut lease = pacing.lease;
        let mut t_fs = pacing.t_kernel_fs;
        let mut addr = run.op.addr;
        let mut probe_done = None;
        // Beats on different vaults need not complete in order; the
        // driver observes the span's *latest* completion.
        let mut last_done = Picos::ZERO;
        let mut served = 0;
        for i in 0..run.beats as u64 {
            // simlint::allow(P101): the whole run was bounds-checked by
            // `service_paced_span`, so every beat address decodes.
            let loc = map.decode(addr).expect("in-bounds beat");
            let Some(done) = self.paced_beat(loc, run.op, pacing, &mut t_fs, &mut lease) else {
                break;
            };
            served += 1;
            last_done = last_done.max(done);
            if pacing.probe_beat == Some(i) {
                probe_done = Some(done);
            }
            addr += run.stride;
        }
        RunServed {
            beats: served,
            t_kernel_fs: t_fs,
            last_done,
            probe_done,
            leased: picks_used(pacing.lease, lease),
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

    /// Periods both jump engines saw served one by one (see
    /// `Jump::periods`).
    #[cfg(test)]
    pub(crate) fn periods_stepped(&self) -> u64 {
        self.beat_jump.periods + self.train_jump.periods
    }
}

/// The error for a location whose vault the device does not have.
#[cold]
fn vault_outside(vault: usize) -> Error {
    Error::BadRequest(format!("vault {vault} outside the device"))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The driver's scalar loop under `pacing` over every beat of
    /// `train`, run after run: one `service_burst` per beat, stopping
    /// before the first beat whose grant (`max(arrival, tsv_free_at)` on
    /// its vault) reaches the horizon and which the lease does not
    /// cover. Also returns each served beat's vault, arrival and grant.
    fn scalar_span(
        m: &mut MemorySystem,
        kind: AddressMapKind,
        train: TraceTrain,
        pacing: &RunPacing,
    ) -> (RunServed, Vec<(usize, Picos, Picos)>) {
        let mut grants = Vec::new();
        let mut lease = pacing.lease;
        let mut served = RunServed {
            beats: 0,
            t_kernel_fs: pacing.t_kernel_fs,
            last_done: Picos::ZERO,
            probe_done: None,
            leased: 0,
        };
        let run = train.run;
        let beats = (0..=u64::from(train.repeats)).flat_map(|r| {
            (0..u64::from(run.beats)).map(move |i| run.op.addr + r * train.step + i * run.stride)
        });
        for (i, addr) in beats.enumerate() {
            let op = TraceOp { addr, ..run.op };
            let t_fs = served.t_kernel_fs;
            let at = Picos::from_fs_clock(t_fs.saturating_sub(pacing.window_fs)).max(pacing.floor);
            let vault = m.vault_of(kind, op.addr).unwrap();
            let tsv_free = m.controller(vault).tsv_free_at();
            let grant = at.max(tsv_free);
            if grant >= pacing.horizon
                && !lease
                    .as_mut()
                    .is_some_and(|l| l.take(vault, op.bytes, at, tsv_free))
            {
                break;
            }
            grants.push((vault, at, grant));
            let out = m.service_burst(kind, op, at).unwrap();
            served.beats += 1;
            served.t_kernel_fs = t_fs.max(out.done.as_ps() as u128 * FS_PER_PS) + pacing.op_fs;
            served.last_done = served.last_done.max(out.done);
            if pacing.probe_beat == Some(i as u64) {
                served.probe_done = Some(out.done);
            }
        }
        served.leased = picks_used(pacing.lease, lease);
        (served, grants)
    }

    /// The rest of `train` after its first `pos` beats, as the phase
    /// driver hands it over: the remaining train from a run boundary, the
    /// rest of one run otherwise.
    fn train_at(train: TraceTrain, pos: u64) -> TraceTrain {
        let beats = u64::from(train.run.beats);
        let (r, i) = (pos / beats, pos % beats);
        let run = train
            .run
            .moved(r * train.step + i * train.run.stride)
            .unwrap();
        if i == 0 {
            TraceTrain {
                run,
                repeats: train.repeats - r as u32,
                ..train
            }
        } else {
            TraceRun {
                beats: train.run.beats - i as u32,
                ..run
            }
            .into()
        }
    }

    /// The whole of `train` after its first `pos` beats, under `pacing`
    /// (whose clock and probe are at `pos`), the way the phase driver
    /// serves it: fused spans where the classifier allows, one scalar
    /// beat otherwise.
    fn drive_from(
        m: &mut MemorySystem,
        kind: AddressMapKind,
        train: TraceTrain,
        pacing: &RunPacing,
        pos: u64,
    ) -> RunServed {
        let total = u64::from(train.run.beats) * (u64::from(train.repeats) + 1);
        let mut acc = RunServed {
            beats: 0,
            t_kernel_fs: pacing.t_kernel_fs,
            last_done: Picos::ZERO,
            probe_done: None,
            leased: 0,
        };
        while pos + u64::from(acc.beats) < total {
            let rest = train_at(train, pos + u64::from(acc.beats));
            let p = RunPacing {
                t_kernel_fs: acc.t_kernel_fs,
                probe_beat: pacing
                    .probe_beat
                    .and_then(|b| b.checked_sub(acc.beats as u64)),
                lease: pacing.lease.map(|l| l.after(acc.leased)),
                ..*pacing
            };
            let got = match m.service_paced_span(kind, rest, &p) {
                SpanOutcome::Served(s) if s.beats > 0 => s,
                _ => {
                    scalar_span(
                        m,
                        kind,
                        TraceRun {
                            beats: 1,
                            ..rest.run
                        }
                        .into(),
                        &p,
                    )
                    .0
                }
            };
            assert!(got.beats > 0, "an unbounded horizon always serves");
            acc.beats += got.beats;
            acc.leased += got.leased;
            acc.t_kernel_fs = got.t_kernel_fs;
            acc.last_done = acc.last_done.max(got.last_done);
            acc.probe_done = acc.probe_done.or(got.probe_done);
        }
        acc
    }

    /// [`drive_from`] from the first beat.
    fn drive(
        m: &mut MemorySystem,
        kind: AddressMapKind,
        train: TraceTrain,
        pacing: &RunPacing,
    ) -> RunServed {
        drive_from(m, kind, train, pacing, 0)
    }

    /// A same-bank stretch in vault 0 on the chunked map: `beats` beats
    /// of `bytes` bytes from `loc`, beat *i* in row `loc.row + i·row_step`.
    fn same_bank_run(
        loc: Location,
        bytes: u32,
        dir: Direction,
        row_step: usize,
        beats: u32,
    ) -> TraceRun {
        let geom = Geometry::default();
        let map = AddressMap::new(AddressMapKind::Chunked, geom);
        TraceRun {
            op: TraceOp {
                addr: map.encode(loc).unwrap(),
                bytes,
                dir,
            },
            beats,
            stride: (row_step * geom.row_bytes) as u64,
        }
    }

    /// `service_paced_span` over a same-bank stretch must equal
    /// [`scalar_span`] — in the served prefix, the returned clock and
    /// completion times, the statistics, the whole device state and all
    /// subsequent scheduling behaviour (probed with follow-up requests).
    /// Returns the served prefix and how many beats the jump engine saw
    /// served one by one.
    fn assert_same_bank_matches_scalar(
        mut m: MemorySystem,
        loc: Location,
        bytes: u32,
        dir: Direction,
        row_step: usize,
        beats: u32,
        pacing: RunPacing,
    ) -> (RunServed, u64) {
        let kind = AddressMapKind::Chunked;
        let run = same_bank_run(loc, bytes, dir, row_step, beats);
        let mut scalar = m.clone();
        let before = m.beat_jump.periods;
        let outcome = m.service_paced_span(kind, run.into(), &pacing);
        let stepped = m.beat_jump.periods - before;
        let SpanOutcome::Served(served) = outcome else {
            panic!("{run:?} must fuse, got {outcome:?}");
        };
        let (expect, _) = scalar_span(&mut scalar, kind, run.into(), &pacing);
        assert_eq!(served, expect, "served prefix diverged");
        assert_eq!(m.stats(), scalar.stats(), "statistics diverged");
        assert_eq!(
            format!("{m:?}"),
            format!("{scalar:?}"),
            "device state diverged"
        );
        // State must be indistinguishable afterwards: probe the run's
        // bank (open row, then a conflict) and a different layer.
        let map = *m.address_map(kind);
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
            let op = TraceOp {
                addr: map.encode(probe_loc).unwrap(),
                bytes: 64,
                dir,
            };
            assert_eq!(
                m.service_burst(kind, op, Picos::ZERO).unwrap(),
                scalar.service_burst(kind, op, Picos::ZERO).unwrap(),
                "follow-up diverged"
            );
        }
        assert_eq!(m.stats(), scalar.stats());
        (served, stepped)
    }

    /// Asserts a span jumped over its steady state: its jump engine
    /// stepped fewer than `most` of its periods (`what`) one by one, and
    /// at least the two a jump follows — none means the span bypassed
    /// the engine.
    fn assert_jumped(stepped: u64, most: u64, what: &str) {
        assert!(
            (2..most).contains(&stepped),
            "{stepped} {what} stepped one by one: the jump did not engage"
        );
    }

    /// A device with a few random prior requests somewhere in vault 0.
    fn warmed_sys(rng: &mut sim_util::SimRng) -> MemorySystem {
        let geom = Geometry::default();
        let map = AddressMap::new(AddressMapKind::Chunked, geom);
        let mut m = sys();
        for _ in 0..rng.gen_range(0usize..4) {
            let warm = Location {
                vault: 0,
                layer: rng.gen_range(0usize..geom.layers),
                bank: rng.gen_range(0usize..geom.banks_per_layer),
                row: rng.gen_range(0usize..64),
                col: 0,
            };
            let at = Picos(rng.gen_range(0u64..1 << 20));
            m.service_burst(
                AddressMapKind::Chunked,
                read(map.encode(warm).unwrap(), 64),
                at,
            )
            .unwrap();
        }
        m
    }

    /// A random same-bank stretch start in vault 0.
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
            let m = warmed_sys(rng);
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
            let (served, _) = assert_same_bank_matches_scalar(m, loc, bytes, dir, row_step, beats, pacing);
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
            let m = warmed_sys(rng);
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
            let run = same_bank_run(loc, bytes, dir, row_step, beats);
            let (_, beats_at) = scalar_span(&mut m.clone(), AddressMapKind::Chunked, run.into(), &pacing);
            let late = rng.gen_range(beats_at.len() / 2..beats_at.len());
            match rng.gen_range(0usize..3) {
                0 => {}
                1 => pacing.horizon = near(rng, beats_at[late].2),
                // Leased: the horizon admits at most the first quarter
                // of the run, and the lease's picks, ready bound and
                // horizon each sit at, or one off, a late beat's — or
                // do not bind.
                _ => {
                    pacing.horizon = match rng.gen_range(0usize..2) {
                        0 => Picos::ZERO,
                        _ => beats_at[rng.gen_range(0..beats_at.len() / 4)].2,
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
                        ready_by: bound(rng, beats_at[late].1),
                        horizon: bound(rng, beats_at[late].2),
                    });
                }
            }
            assert_same_bank_matches_scalar(m, loc, bytes, dir, row_step, beats, pacing);
        });
    }

    #[test]
    fn steady_run_jumps_instead_of_stepping() {
        // The baseline column shape: a memory-bound 4000-beat run, every
        // beat a row miss one `t_diff_row` after the last. It must reach
        // its steady state within a few beats and jump the rest — around
        // the probe too — not step once per beat.
        let pacing = RunPacing {
            t_kernel_fs: 0,
            window_fs: 0,
            op_fs: 31_250,
            floor: Picos::ZERO,
            probe_beat: Some(2500),
            horizon: Picos::MAX,
            lease: None,
        };
        let loc = Location {
            vault: 0,
            layer: 1,
            bank: 3,
            row: 0,
            col: 8,
        };
        let (served, looped) =
            assert_same_bank_matches_scalar(sys(), loc, 8, Direction::Read, 2, 4000, pacing);
        assert_eq!(served.beats, 4000);
        assert!(served.probe_done.is_some());
        assert_jumped(looped, 16, "beats of a 4000-beat steady run");
    }

    #[test]
    fn leased_steady_run_jumps_too() {
        // The baseline column shape again, but nothing is due on the
        // horizon: every beat is a TSV tie served under a lease (the
        // window keeps arrivals far ahead of the link). The jump must
        // engage across leased beats and stop exactly at the picks.
        let window_fs = 1u128 << 26;
        let loc = Location {
            vault: 0,
            layer: 1,
            bank: 3,
            row: 0,
            col: 8,
        };
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
            let (served, looped) =
                assert_same_bank_matches_scalar(sys(), loc, 8, Direction::Read, 2, 4000, pacing);
            assert_eq!(served.beats, picks.min(4000));
            assert_eq!(served.leased, served.beats, "every beat used a pick");
            assert_jumped(looped, 16, "beats of a leased steady run");
        }
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
            lease: None,
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
                m.service_paced_span(kind, run.into(), &pacing),
                SpanOutcome::Scalar,
                "{run:?}"
            );
        }
        // The Reference path never fuses.
        let mut r = sys();
        r.set_service_path(ServicePath::Reference);
        assert_eq!(
            r.service_paced_span(kind, read_run(0, 8, 8, row).into(), &pacing),
            SpanOutcome::Scalar
        );
        // Same shape on the fast path: a same-bank ascending-row span.
        // A stride dividing the row (several matrix rows per memory
        // row, the small-N row-major column walk) fuses per beat.
        for stride in [row, row / 4] {
            assert!(matches!(
                m.service_paced_span(kind, read_run(0, 8, 8, stride).into(), &pacing),
                SpanOutcome::Served(_)
            ));
        }
        // Last row of a bank: the classifier proves a one-beat stretch —
        // step it scalar, then the next bank's stretch fuses.
        let last_row = (geom.rows_per_bank as u64 - 1) * row;
        assert_eq!(
            m.service_paced_span(kind, read_run(last_row, 8, 8, row).into(), &pacing),
            SpanOutcome::Step
        );
        // A run leaving the device also steps: the one in-range beat is
        // served scalar and the next beat raises the same OutOfRange the
        // Reference pipeline would.
        assert_eq!(
            m.service_paced_span(
                kind,
                read_run(geom.capacity_bytes() - row, 8, 8, row).into(),
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
                lease: None,
            };
            let outcome = fused.service_paced_span(kind, run.into(), &pacing);
            let SpanOutcome::Served(served) = outcome else {
                panic!("expected a fused cross-bank span, got {outcome:?}");
            };
            // The driver's scalar loop, replayed on a twin device.
            assert_eq!(
                served,
                scalar_span(&mut scalar, kind, run.into(), &pacing).0
            );
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
            let shape = rng.gen_range(0usize..3);
            let (kind, stride, bytes) = match shape {
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
            // Same-bank runs are often long enough to reach their steady
            // state and jump, yet stay inside their bank (at most
            // 64 + 2699·3 < 8192 rows), so the cut span is one stretch.
            let beats = if shape == 0 && rng.gen_bool() {
                rng.gen_range(200u32..2700)
            } else {
                rng.gen_range(2u32..48)
            };
            let run = read_run(addr, bytes, beats, stride);
            let pacing = RunPacing {
                t_kernel_fs: rng.gen_range(0u64..1 << 30) as u128,
                window_fs: rng.gen_range(0u64..1 << 28) as u128,
                op_fs: rng.gen_range(0u64..1 << 22) as u128,
                floor: Picos(rng.gen_range(0u64..1 << 16)),
                probe_beat: rng.gen_bool().then(|| rng.gen_range(0u64..run.beats as u64)),
                horizon: Picos::MAX,
                lease: None,
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
            let uncut = drive(&mut whole, kind, run.into(), &pacing);
            prop_assert_eq!(uncut.beats, run.beats);
            // Cut exactly at, just past or just before some beat's
            // grant on the uncut schedule, or anywhere in the span.
            let grants = scalar_span(&mut base, kind, run.into(), &pacing).1;
            let g = grants[rng.gen_range(0..grants.len())].2;
            let horizon = match rng.gen_range(0usize..4) {
                0 => g,
                1 => g + Picos(1),
                2 => g.saturating_sub(Picos(1)),
                _ => Picos(rng.gen_range(0..uncut.last_done.as_ps() + 2)),
            };
            let cut_pacing = RunPacing { horizon, ..pacing };

            // The cut span equals scalar beats up to the first beat
            // whose grant reaches the horizon.
            let outcome = cut.service_paced_span(kind, run.into(), &cut_pacing);
            let SpanOutcome::Served(head) = outcome else {
                prop_assert!(false, "{run:?} must fuse, got {outcome:?}");
                unreachable!()
            };
            prop_assert_eq!(head, scalar_span(&mut scalar, kind, run.into(), &cut_pacing).0);
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
                    leased: 0,
                }
            } else {
                let rest_pacing = RunPacing {
                    t_kernel_fs: head.t_kernel_fs,
                    probe_beat: pacing.probe_beat.and_then(|b| b.checked_sub(head.beats as u64)),
                    ..pacing
                };
                drive(&mut cut, kind, rest.into(), &rest_pacing)
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

    /// A train of `repeats + 1` single-element column runs: `beats`
    /// beats `stride` apart, each run `step` bytes past the last.
    fn column_train(beats: u32, stride: u64, repeats: u32, step: u64) -> TraceTrain {
        TraceTrain {
            run: read_run(0, 8, beats, stride),
            repeats,
            step,
        }
    }

    /// A memory-bound pacing law with no prefetch window, so arrivals
    /// are covariant from the first beat.
    fn unwindowed() -> RunPacing {
        RunPacing {
            t_kernel_fs: 0,
            window_fs: 0,
            op_fs: 250_000,
            floor: Picos::ZERO,
            probe_beat: None,
            horizon: Picos::MAX,
            lease: None,
        }
    }

    /// Serves `train` under `pacing` (unbounded horizon) through the
    /// classifier on one clone of `base` and beat by beat on another:
    /// the served result, the statistics and the whole device state
    /// must agree. Returns the result and how many runs the jump engine
    /// saw served one by one.
    fn assert_train_matches_scalar(
        base: &MemorySystem,
        kind: AddressMapKind,
        train: TraceTrain,
        pacing: &RunPacing,
    ) -> (RunServed, u64) {
        let (mut fused, mut scalar) = (base.clone(), base.clone());
        let before = fused.train_jump.periods;
        let got = drive(&mut fused, kind, train, pacing);
        let looped = fused.train_jump.periods - before;
        let (expect, _) = scalar_span(&mut scalar, kind, train, pacing);
        assert_eq!(got, expect, "served train diverged");
        assert_eq!(fused.stats(), scalar.stats(), "statistics diverged");
        assert_eq!(
            format!("{fused:?}"),
            format!("{scalar:?}"),
            "device state diverged"
        );
        (got, looped)
    }

    #[test]
    fn steady_all_vault_train_jumps_instead_of_serving_every_run() {
        // The row-major column sweep at N = 1024 on the vault-interleaved
        // map: every 1024-beat column hops all 16 vaults and two rows of
        // each of their 32 banks, and column j + 1 is column j moved one
        // element. A steady 1024-run train must be served through a
        // handful of runs, not one per column.
        let m = sys();
        let row = Geometry::default().row_bytes as u64;
        let train = column_train(1024, row, 1023, 8);
        let pacing = RunPacing {
            probe_beat: Some(700 * 1024 + 5),
            ..unwindowed()
        };
        let (served, looped) =
            assert_train_matches_scalar(&m, AddressMapKind::VaultInterleaved, train, &pacing);
        assert_eq!(served.beats, 1024 * 1024);
        assert!(served.probe_done.is_some());
        assert_jumped(looped, 8, "runs of a steady 1024-run train");
    }

    #[test]
    fn single_bank_trains_jump_and_match_scalar() {
        // Every beat of these trains lands in one bank: the row-major
        // column at N = 256 on the chunked map (a 2 KiB stride, four
        // matrix rows per memory row: the per-beat class) and the
        // baseline column at N = 1024 (one row per beat: the same-bank
        // closed form, which jumps inside each run as well).
        let row = Geometry::default().row_bytes as u64;
        for train in [
            column_train(256, row / 4, 255, 8),
            column_train(1024, row, 300, 8),
        ] {
            let (served, looped) =
                assert_train_matches_scalar(&sys(), AddressMapKind::Chunked, train, &unwindowed());
            assert_eq!(served.beats, train.run.beats * (train.repeats + 1));
            assert_jumped(looped, 8, &format!("runs of {train:?}"));
        }
    }

    #[test]
    fn a_step_out_of_the_rows_forms_no_train() {
        // The second run would cross into the next memory row (at a
        // different vault and bank), so only the first run is served.
        let mut m = sys();
        let row = Geometry::default().row_bytes as u64;
        let train = TraceTrain {
            run: read_run(row - 16, 8, 64, row),
            repeats: 40,
            step: 16,
        };
        let kind = AddressMapKind::VaultInterleaved;
        let SpanOutcome::Served(head) = m.service_paced_span(kind, train, &unwindowed()) else {
            panic!("the first run fuses");
        };
        assert_eq!(head.beats, 64);
        let mut scalar = sys();
        assert_eq!(
            head,
            scalar_span(&mut scalar, kind, train.run.into(), &unwindowed()).0
        );
        assert_eq!(format!("{m:?}"), format!("{scalar:?}"));
        // The whole train, driven to the end, still equals its beats.
        let (served, _) = assert_train_matches_scalar(&sys(), kind, train, &unwindowed());
        assert_eq!(served.beats, 64 * 41);
    }

    #[test]
    fn train_over_stale_untouched_banks_matches_scalar() {
        // A 64-beat column touches banks 0..4 of layer 0 in every vault.
        // Earlier traffic leaves rows open and activates pending in the
        // other banks of the same vaults — the vault activate gate of
        // each points at a bank the train never touches when it starts.
        // The train must still jump, and leave those banks as it found
        // them.
        let kind = AddressMapKind::VaultInterleaved;
        let row = Geometry::default().row_bytes as u64;
        let mut base = sys();
        for r in 64..96u64 {
            let op = TraceOp {
                addr: r * row + 64,
                bytes: 64,
                dir: Direction::Write,
            };
            base.service_burst(kind, op, Picos(r * 100)).unwrap();
        }
        let touched = |m: &MemorySystem| {
            let c = m.controller(3);
            (0..Geometry::default().banks_per_layer)
                .map(|b| *c.bank(1, b))
                .collect::<Vec<_>>()
        };
        let stale = touched(&base);
        let train = column_train(64, row, 511, 8);
        let (served, looped) = assert_train_matches_scalar(&base, kind, train, &unwindowed());
        assert_eq!(served.beats, 64 * 512);
        assert_jumped(looped, 8, "runs of a train over stale banks");
        let mut after = base.clone();
        drive(&mut after, kind, train, &unwindowed());
        assert_eq!(touched(&after), stale, "untouched banks moved");
    }

    #[test]
    fn trains_match_scalar_beats_at_any_horizon() {
        use sim_util::{prop_assert, prop_assert_eq, prop_check};
        prop_check!(cases: 64, |rng| {
            let geom = Geometry::default();
            let row = geom.row_bytes as u64;
            // All-vault, single-bank per-beat and same-bank closed-form
            // trains, from column 0 or a later one.
            let (kind, beats, stride) = match rng.gen_range(0usize..3) {
                0 => (AddressMapKind::VaultInterleaved, rng.gen_range(16u32..300), row),
                1 => (AddressMapKind::Chunked, rng.gen_range(2u32..200), row >> rng.gen_range(1u32..4)),
                _ => (AddressMapKind::Chunked, rng.gen_range(2u32..400), row),
            };
            let step = 8 * rng.gen_range(1u64..4);
            let first = rng.gen_range(0u64..8) * 8;
            // Every run stays in the first run's rows (its beats in their
            // stride slots), so one call serves the train up to the
            // horizon.
            let in_row = (stride.min(row) - first - 8) / step;
            let train = TraceTrain {
                run: read_run(first, 8, beats, stride),
                repeats: rng.gen_range(1u32..200).min(in_row as u32),
                step,
            };
            let total = u64::from(beats) * (u64::from(train.repeats) + 1);
            let pacing = RunPacing {
                t_kernel_fs: rng.gen_range(0u64..1 << 30) as u128,
                window_fs: if rng.gen_bool() { 0 } else { rng.gen_range(0u64..1 << 32) as u128 },
                op_fs: rng.gen_range(0u64..1 << 24) as u128,
                floor: Picos(rng.gen_range(0u64..1 << 16)),
                probe_beat: rng.gen_bool().then(|| rng.gen_range(0..total)),
                horizon: Picos::MAX,
                lease: None,
            };
            // Random prior traffic, identical on every twin.
            let mut base = MemorySystem::new(geom, TimingParams::default());
            for _ in 0..rng.gen_range(0usize..6) {
                let op = TraceOp {
                    addr: rng.gen_range(0u64..512) * row + rng.gen_range(0u64..16) * 8,
                    bytes: 64,
                    dir: Direction::Write,
                };
                base.service_burst(kind, op, Picos(rng.gen_range(0u64..1 << 24))).unwrap();
            }
            let (uncut, _) = assert_train_matches_scalar(&base, kind, train, &pacing);
            prop_assert_eq!(u64::from(uncut.beats), total);

            // Cut the train at, just past or just before a late beat's
            // grant, or anywhere: one call serves exactly the scalar
            // beats before the horizon, and resuming gives the uncut
            // result.
            let grants = scalar_span(&mut base.clone(), kind, train, &pacing).1;
            let g = grants[rng.gen_range(grants.len() / 2..grants.len())].2;
            let horizon = match rng.gen_range(0usize..4) {
                0 => g,
                1 => g + Picos(1),
                2 => g.saturating_sub(Picos(1)),
                _ => Picos(rng.gen_range(0..uncut.last_done.as_ps() + 2)),
            };
            let cut_pacing = RunPacing { horizon, ..pacing };
            let (mut cut, mut scalar) = (base.clone(), base.clone());
            let outcome = cut.service_paced_span(kind, train, &cut_pacing);
            let head = match outcome {
                SpanOutcome::Served(head) => head,
                _ => {
                    prop_assert!(false, "{train:?} must fuse, got {outcome:?}");
                    unreachable!()
                }
            };
            prop_assert_eq!(head, scalar_span(&mut scalar, kind, train, &cut_pacing).0);
            prop_assert_eq!(format!("{cut:?}"), format!("{scalar:?}"), "device state after the cut");
            let rest_pacing = RunPacing {
                t_kernel_fs: head.t_kernel_fs,
                probe_beat: pacing.probe_beat.and_then(|b| b.checked_sub(head.beats as u64)),
                ..pacing
            };
            let tail = drive_from(&mut cut, kind, train, &rest_pacing, head.beats.into());
            let mut whole = base.clone();
            drive(&mut whole, kind, train, &pacing);
            prop_assert_eq!(tail.t_kernel_fs, uncut.t_kernel_fs);
            prop_assert_eq!(head.last_done.max(tail.last_done), uncut.last_done);
            prop_assert_eq!(head.probe_done.or(tail.probe_done), uncut.probe_done);
            prop_assert_eq!(format!("{cut:?}"), format!("{whole:?}"), "device state after resuming");
        });
    }

    #[test]
    fn leased_trains_match_scalar_beats() {
        // Per-beat and same-bank trains whose horizon admits at most the
        // first few beats, the rest left to a lease on one vault whose
        // picks, ready bound and horizon sit at, or one off, a late
        // beat's — or do not bind. One call serves exactly the scalar
        // beats the horizon or the lease admits, with the same device
        // state.
        use sim_util::{prop_assert, prop_assert_eq, prop_check};
        prop_check!(cases: 64, |rng| {
            let geom = Geometry::default();
            let row = geom.row_bytes as u64;
            let (kind, beats, stride) = match rng.gen_range(0usize..3) {
                0 => (AddressMapKind::VaultInterleaved, rng.gen_range(16u32..300), row),
                1 => (AddressMapKind::Chunked, rng.gen_range(2u32..200), row >> rng.gen_range(1u32..4)),
                _ => (AddressMapKind::Chunked, rng.gen_range(2u32..400), row),
            };
            let step = 8 * rng.gen_range(1u64..4);
            let in_row = (stride.min(row) - 8) / step;
            let train = TraceTrain {
                run: read_run(0, 8, beats, stride),
                repeats: rng.gen_range(0u32..20).min(in_row as u32),
                step,
            };
            // A prefetch window well ahead of the link, so most beats
            // are TSV ties.
            let mut pacing = RunPacing {
                t_kernel_fs: rng.gen_range(0u64..1 << 30) as u128,
                window_fs: rng.gen_range(1u64 << 20..1 << 34) as u128,
                op_fs: rng.gen_range(0u64..1 << 24) as u128,
                floor: Picos::ZERO,
                probe_beat: None,
                horizon: Picos::MAX,
                lease: None,
            };
            let base = MemorySystem::new(geom, TimingParams::default());
            let beats_at = scalar_span(&mut base.clone(), kind, train, &pacing).1;
            let near = |rng: &mut sim_util::SimRng, t: u64| match rng.gen_range(0usize..4) {
                0 => t,
                1 => t + 1,
                2 => t.saturating_sub(1),
                _ => u64::MAX,
            };
            let late = rng.gen_range(beats_at.len() / 2..beats_at.len());
            let (vault, at, grant) = beats_at[late];
            pacing.horizon = beats_at[rng.gen_range(0..beats_at.len().min(4))].2;
            pacing.lease = Some(VaultLease {
                vault,
                bytes: 8,
                picks: u32::try_from(near(rng, late as u64)).unwrap_or(u32::MAX),
                ready_by: Picos(near(rng, at.as_ps())),
                horizon: Picos(near(rng, grant.as_ps())),
            });
            let (mut fused, mut scalar) = (base.clone(), base.clone());
            let outcome = fused.service_paced_span(kind, train, &pacing);
            let expect = scalar_span(&mut scalar, kind, train, &pacing).0;
            match outcome {
                SpanOutcome::Served(got) => prop_assert_eq!(got, expect),
                _ => prop_assert!(false, "{train:?} must fuse, got {outcome:?}"),
            }
            prop_assert_eq!(format!("{fused:?}"), format!("{scalar:?}"), "device state");
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
        // A capacity past `u64` is rejected, not wrapped (nor a debug
        // overflow panic).
        let huge = Geometry {
            rows_per_bank: 1 << 40,
            row_bytes: 1 << 30,
            ..Geometry::default()
        };
        let r = MemorySystem::try_new(huge, TimingParams::default());
        assert!(matches!(r, Err(Error::InvalidGeometry(_))), "{r:?}");
    }

    fn read(addr: u64, bytes: u32) -> TraceOp {
        TraceOp {
            addr,
            bytes,
            dir: Direction::Read,
        }
    }

    #[test]
    fn vault_accesses_run_in_parallel() {
        let mut m = sys();
        // Row misses in 16 different vaults (the chunked map gives each
        // vault one contiguous slab): all finish at the same time
        // because vaults are independent.
        let vault_bytes = m.geometry().vault_bytes();
        let dones: Vec<_> = (0..16)
            .map(|v| {
                m.service_burst(
                    AddressMapKind::Chunked,
                    read(v * vault_bytes, 8),
                    Picos::ZERO,
                )
                .unwrap()
                .done
            })
            .collect();
        assert!(dones.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn same_vault_accesses_serialize_on_tsvs() {
        let mut m = sys();
        let kind = AddressMapKind::Chunked;
        let a = m.service_burst(kind, read(0, 512), Picos::ZERO).unwrap();
        let b = m.service_burst(kind, read(512, 512), Picos::ZERO).unwrap();
        assert!(b.done > a.done);
    }

    #[test]
    fn row_boundary_split_touches_next_row() {
        let mut m = sys();
        let row_bytes = m.geometry().row_bytes as u64;
        let out = m
            .service_burst(
                AddressMapKind::Chunked,
                read(row_bytes - 8, 16),
                Picos::ZERO,
            )
            .unwrap();
        // The split forced a second activate in the next row.
        assert_eq!(m.stats().activations, 2);
        assert!(out.done > Picos::ZERO);
        assert_eq!(m.stats().bytes_read, 16);
    }

    #[test]
    fn service_burst_round_trips_stats() {
        let mut m = sys();
        let op = TraceOp {
            addr: 0,
            bytes: 64,
            dir: Direction::Write,
        };
        let out = m
            .service_burst(AddressMapKind::VaultInterleaved, op, Picos::ZERO)
            .unwrap();
        assert!(out.done > Picos::ZERO);
        assert_eq!(m.stats().bytes_written, 64);
    }

    #[test]
    fn service_burst_rejects_overflow() {
        let mut m = sys();
        let cap = m.geometry().capacity_bytes();
        let kind = AddressMapKind::Chunked;
        for path in [ServicePath::Fast, ServicePath::Reference] {
            m.set_service_path(path);
            // Past the device end, and an end address that would
            // overflow `u64`.
            for bad in [read(cap - 4, 8), read(u64::MAX - 2, 8)] {
                let r = m.service_burst(kind, bad, Picos::ZERO);
                assert!(
                    matches!(r, Err(Error::OutOfRange { .. })),
                    "{path:?} {bad:?}: {r:?}"
                );
            }
            let empty = m.service_burst(kind, read(0, 0), Picos::ZERO);
            assert!(
                matches!(empty, Err(Error::BadRequest(_))),
                "{path:?}: {empty:?}"
            );
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
        // Rejected bursts leave no trace in the statistics.
        assert_eq!(m.stats().requests, 0);
    }

    #[test]
    fn service_burst_rejects_arrivals_past_the_ceiling() {
        // An arrival near `Picos::MAX` used to overflow the controller's
        // clocks: a panic in debug builds, a wrapped time in release.
        let mut m = sys();
        for path in [ServicePath::Fast, ServicePath::Reference] {
            m.set_service_path(path);
            for at in [MAX_ARRIVAL.as_ps() + 1, u64::MAX - 1, u64::MAX] {
                let r = m.service_burst(AddressMapKind::Chunked, read(0, 64), Picos(at));
                assert!(
                    matches!(r, Err(Error::BadRequest(_))),
                    "{path:?} {at}: {r:?}"
                );
            }
        }
        assert_eq!(m.stats().requests, 0);
        // The ceiling itself is still served.
        let out = m
            .service_burst(AddressMapKind::Chunked, read(0, 64), MAX_ARRIVAL)
            .unwrap();
        assert!(out.done > MAX_ARRIVAL);
    }

    #[test]
    fn paced_spans_stop_before_arrivals_past_the_ceiling() {
        // Arrivals past the ceiling used to reach the controllers' clocks
        // through both fused classes — the same-bank stretch (chunked)
        // and the vault-hopping per-beat span (vault-interleaved): a
        // panic in debug builds, a wrapped time in release. The span
        // stops before such a beat, as at a horizon, and the driver's
        // scalar beat gets `service_burst`'s error for it.
        let row = Geometry::default().row_bytes as u64;
        let run = read_run(0, 8, 4, row);
        for kind in [AddressMapKind::Chunked, AddressMapKind::VaultInterleaved] {
            let mut m = sys();
            let past = RunPacing {
                t_kernel_fs: u128::from(u64::MAX - 10) * 1_000,
                ..unwindowed()
            };
            let outcome = m.service_paced_span(kind, run.into(), &past);
            assert!(
                matches!(outcome, SpanOutcome::Served(s) if s.beats == 0),
                "{kind:?}: {outcome:?}"
            );
            assert_eq!(m.stats().requests, 0);
            let at = past.arrival(past.t_kernel_fs);
            let r = m.service_burst(kind, run.op, at);
            assert!(matches!(r, Err(Error::BadRequest(_))), "{kind:?}: {r:?}");
            // A first beat at the ceiling is served; the next arrives
            // past it.
            let at_ceiling = RunPacing {
                t_kernel_fs: u128::from(MAX_ARRIVAL.as_ps()) * 1_000,
                ..unwindowed()
            };
            let outcome = m.service_paced_span(kind, run.into(), &at_ceiling);
            assert!(
                matches!(outcome, SpanOutcome::Served(s) if s.beats == 1),
                "{kind:?}: {outcome:?}"
            );
            assert_eq!(m.stats().requests, 1);
        }
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
                let op = TraceOp { addr, bytes, dir };
                let at = Picos(i as u64 * 1000);
                let a = fast.service_burst(kind, op, at).unwrap();
                let b = reference.service_burst(kind, op, at).unwrap();
                assert_eq!(a, b, "{kind:?} burst at {addr}+{bytes}");
            }
            assert_eq!(fast.stats(), reference.stats(), "{kind:?} stats");
        }
    }

    #[test]
    fn sequential_stream_beats_strided_stream() {
        // The fundamental effect the paper exploits: unit-stride access is
        // far faster than N-strided access under the Chunked map.
        let mut m = sys();
        let kind = AddressMapKind::Chunked;
        let n = 1024u64;
        for i in 0..n {
            m.service_burst(kind, read(i * 8, 8), Picos::ZERO).unwrap();
        }
        let seq = m.stats().bandwidth_gbps();
        m.reset();
        let stride = 1024 * 8;
        for i in 0..n {
            m.service_burst(kind, read(i * stride, 8), Picos::ZERO)
                .unwrap();
        }
        let strided = m.stats().bandwidth_gbps();
        assert!(
            seq > strided * 10.0,
            "sequential {seq} GB/s should dwarf strided {strided} GB/s"
        );
    }
}
