//! Closed-loop simulation of one application phase.
//!
//! The FFT kernel consumes and produces at most `lanes × 8` bytes per
//! cycle; the memory delivers whatever the layout allows. The driver
//! couples them: read requests are issued ahead of the kernel's
//! consumption point by a bounded prefetch window (the on-chip buffer
//! credit), consumption waits for data, and result write-backs trail
//! production. The achieved phase bandwidth is therefore
//! `min(kernel ceiling, layout-dependent memory bandwidth)` — with all
//! queueing effects simulated rather than assumed.
//!
//! The driver **pulls** both the read and write sides from lazy
//! [`RequestSource`] streams: one read burst is fetched, served and
//! consumed at a time, and write bursts are peeled off the write stream
//! only once the inputs they depend on have been consumed. Nothing is
//! materialized, so a phase costs O(window) memory regardless of N —
//! the `pending` release queue is bounded by the prefetch window plus
//! the write delay, never by the phase length.
//!
//! The kernel consumption clock is integer arithmetic in
//! **femtoseconds** (the fractional ps-per-byte rate is scaled by 1000
//! into an exact integer rational with denominator 1000, accumulated in
//! `u128`), so long phases suffer no floating-point precision loss —
//! an `f64` clock silently drops picoseconds past 2⁵³ ps.
//!
//! Both consumption forms share **one stepper** over one scalar beat
//! body:
//!
//! * [`ResumablePhase`] holds a phase **open between beats** so an
//!   external scheduler (the `tenancy` service) can interleave many
//!   concurrent phases on one shared [`MemorySystem`]. Each
//!   [`step_until`](ResumablePhase::step_until) serves the beat the
//!   scheduler granted and keeps going — fused spans where the memory
//!   system can prove them, scalar beats otherwise — while the next
//!   beat's grant is strictly before a horizon: the earliest competing
//!   event the scheduler knows of.
//! * [`run_phase`] is the same stepper with an unbounded horizon, so a
//!   one-shot phase is a single call. On
//!   [`ServicePath::Reference`](mem3d::ServicePath::Reference) the span
//!   classifier never fuses and the stepper degenerates to the scalar
//!   reference pipeline.
//!
//! A single resumable phase stepped to completion is bit-identical to
//! [`run_phase`] at any horizon — the scalar beat body is the
//! authoritative pacing law, and the fused spans are differentially
//! proven equal to it.

use mem3d::{
    AddressMapKind, MemorySystem, Picos, RequestSource, RunPacing, RunServed, SpanOutcome, Stats,
    TraceOp, TraceRun,
};
use sim_util::pool::ExclusivePool;

use crate::Fft2dError;

/// The phase driver's delayed-write release queue. Bounded by the
/// prefetch window plus the write delay, so its capacity converges
/// after one phase and can be recycled forever.
type PendingWrites = std::collections::VecDeque<(Picos, AddressMapKind, TraceOp)>;

/// Reusable buffers for the phase driver, recycled across phases,
/// candidates, and jobs so the steady-state hot loop performs **zero**
/// heap allocations per beat.
///
/// Ownership rule: the workspace *owns* idle buffers; a driver run
/// ([`run_phase_in`], [`ResumablePhase::new_in`]) **takes** a buffer
/// for the duration of the phase and **returns** it (cleared, capacity
/// intact) when the phase report is assembled. A phase that errors out
/// simply drops its buffer — correctness never depends on the pool, it
/// only recycles capacity.
///
/// One workspace per driving thread: the pool is plain `&mut` state
/// with no interior mutability, which is exactly what makes reuse free.
/// [`run_phase`] and [`ResumablePhase::new`] remain allocation-owning
/// conveniences that build (and drop) a private buffer per phase.
#[derive(Debug, Default)]
pub struct PhaseWorkspace {
    pending: ExclusivePool<PendingWrites>,
}

impl PhaseWorkspace {
    /// An empty workspace; buffers are created on first use and
    /// recycled afterwards.
    pub fn new() -> Self {
        PhaseWorkspace {
            pending: ExclusivePool::new(),
        }
    }

    /// Takes a cleared pending-write queue (pooled capacity if
    /// available, fresh otherwise).
    fn take_pending(&mut self) -> PendingWrites {
        self.pending.take_or(PendingWrites::new)
    }

    /// Returns a drained queue to the pool for the next phase.
    fn put_pending(&mut self, mut q: PendingWrites) {
        q.clear();
        self.pending.put(q);
    }
}

/// Knobs of the closed-loop driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverConfig {
    /// Kernel's one-directional time per byte, in picoseconds.
    // simlint::allow(D003): config knob at the boundary — converted once
    // to an exact integer femtosecond rate by `fs_per_byte` before any
    // accumulation.
    pub ps_per_byte: f64,
    /// On-chip prefetch credit: how many bytes of not-yet-consumed data
    /// may be in flight.
    pub window_bytes: u64,
    /// Delay between consuming input and emitting the corresponding
    /// output (kernel + reorganization pipeline fill).
    pub write_delay: Picos,
    /// Report the completion time of the first this-many read bytes
    /// (used for the latency metric; 0 disables the probe).
    pub latency_probe_bytes: u64,
}

/// Timing summary of one simulated phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseReport {
    /// Bytes read from memory.
    pub read_bytes: u64,
    /// Bytes written to memory.
    pub write_bytes: u64,
    /// Phase start (first request arrival).
    pub start: Picos,
    /// Phase end (last beat on the TSVs, or last kernel consumption,
    /// whichever is later).
    pub end: Picos,
    /// When the first [`DriverConfig::latency_probe_bytes`] read bytes
    /// had fully arrived.
    pub probe_done: Picos,
    /// Row activations this phase caused.
    pub activations: u64,
    /// Open-row hit rate of this phase.
    // simlint::allow(D003): reporting-only ratio computed by `hit_rate`
    // after the phase ends; never fed back into timing.
    pub row_hit_rate: f64,
}

impl PhaseReport {
    /// Wall-clock duration of the phase.
    pub fn duration(&self) -> Picos {
        self.end.saturating_sub(self.start)
    }

    /// Read-side bandwidth in GB/s (the paper's throughput direction).
    pub fn read_bandwidth_gbps(&self) -> f64 {
        let d = self.duration().as_ps();
        if d == 0 {
            return 0.0;
        }
        self.read_bytes as f64 / d as f64 * 1_000.0
    }
}

/// Femtoseconds per byte: the kernel rate as an exact integer rational
/// (denominator 1000), so the consumption clock never loses precision.
///
/// # Errors
///
/// Returns [`Fft2dError::Driver`] when the rate is NaN, infinite or
/// negative — in release builds a bare `as u128` would saturate a NaN
/// to 0 and silently simulate an infinitely fast kernel.
fn fs_per_byte(ps_per_byte: f64) -> Result<u128, Fft2dError> {
    if !ps_per_byte.is_finite() || ps_per_byte < 0.0 {
        return Err(Fft2dError::Driver(format!(
            "invalid kernel rate: {ps_per_byte} ps/byte"
        )));
    }
    Ok((ps_per_byte * 1_000.0).round() as u128)
}

/// Open-row hit ratio for reporting. The one place phase statistics
/// leave the integer domain — the result is display-only and never
/// feeds back into timing.
fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

const FS_PER_PS: u128 = 1_000;

/// Checked fs→ps conversion; must match what the memory system's fused
/// span loops use ([`Picos::from_fs_clock`]) or the paths drift apart
/// at the clock ceiling.
fn fs_to_picos(fs: u128) -> Picos {
    Picos::from_fs_clock(fs)
}

/// Everything one phase carries between beats: the kernel clock, the
/// read frontier, the unserved rest of the current read run, the
/// delayed write machinery and the report accumulators. Deliberately
/// **does not** hold the memory system or the streams — those are
/// threaded through each call — so a phase can be suspended between
/// beats ([`ResumablePhase`]) while many phases share one
/// `&mut MemorySystem`, and [`run_phase_in`] can drive borrowed streams
/// through the very same [`step_until`](Self::step_until).
struct DriverState {
    read_map: AddressMapKind,
    write_map: Option<AddressMapKind>,
    rate_fs: u128,
    window_fs: u128,
    write_delay: Picos,
    latency_probe_bytes: u64,
    start: Picos,
    /// Kernel consumption clock, in integer femtoseconds.
    t_kernel_fs: u128,
    consumed: u64,
    produced: u64,
    probe_done: Picos,
    last_beat: Picos,
    /// The write burst peeled off the stream but whose inputs have not
    /// all been consumed yet.
    next_write: Option<TraceOp>,
    /// Writes whose production time is known but which have not been
    /// handed to the controllers yet. Controllers serve requests in
    /// submission order, so a write must not be submitted before reads
    /// that precede it in time — it is released once the read frontier
    /// passes its arrival time. Bounded by the prefetch window plus the
    /// write delay: writes are only scheduled as their inputs are
    /// consumed, and released as soon as the frontier catches up. Each
    /// entry carries its address map so releasing never has to unwrap
    /// the phase-level `write_map` option. The queue itself is borrowed
    /// from a [`PhaseWorkspace`] and handed back (capacity intact) by
    /// [`finish`](Self::finish), so a warmed driver never reallocates it.
    pending: PendingWrites,
    /// The unserved rest of the last read run pulled off the stream.
    run: Option<TraceRun>,
    /// Whether `run` may still fuse: set per pulled run when there is no
    /// write side (writes need per-beat attention), cleared once the
    /// span classifier declares the run's shape unfusable — the
    /// amortized run-probe gate, one branch per beat after that.
    fuse: bool,
}

impl DriverState {
    fn new(
        cfg: &DriverConfig,
        read_map: AddressMapKind,
        write_map: Option<AddressMapKind>,
        start: Picos,
        pending: PendingWrites,
    ) -> Result<Self, Fft2dError> {
        debug_assert!(pending.is_empty(), "pooled queue must arrive cleared");
        let rate_fs = fs_per_byte(cfg.ps_per_byte)?;
        Ok(DriverState {
            read_map,
            write_map,
            rate_fs,
            window_fs: cfg.window_bytes as u128 * rate_fs,
            write_delay: cfg.write_delay,
            latency_probe_bytes: cfg.latency_probe_bytes,
            start,
            t_kernel_fs: start.as_ps() as u128 * FS_PER_PS,
            consumed: 0,
            produced: 0,
            probe_done: Picos::ZERO,
            last_beat: start,
            next_write: None,
            pending,
            run: None,
            fuse: false,
        })
    }

    /// The current read run, pulling the next non-empty one off `reads`
    /// once the last is used up; `None` when the read side is
    /// exhausted. Never touches the memory system.
    fn pull(&mut self, reads: &mut dyn RequestSource) -> Option<TraceRun> {
        while self.run.is_none() {
            let run = reads.next_run()?;
            if run.beats > 0 {
                self.run = Some(run);
                self.fuse = run.op.bytes > 0 && self.write_map.is_none();
            }
        }
        self.run
    }

    /// Drops the first `beats` beats of the current run.
    fn consume(&mut self, beats: u32) {
        if let Some(run) = &mut self.run {
            run.beats -= beats;
            if run.beats == 0 {
                self.run = None;
            } else {
                run.op.addr += beats as u64 * run.stride;
            }
        }
    }

    /// Whether read burst `op`, issued next, is granted strictly before
    /// `horizon`. A beat's grant is `max(arrival, tsv_free_at)` on the
    /// vault it targets — the key an external scheduler orders
    /// competing beats by. An address that fails to decode is never
    /// due, so the scheduler's own decode reports the error.
    fn due(&self, mem: &MemorySystem, op: TraceOp, horizon: Picos) -> bool {
        if horizon == Picos::MAX {
            return true;
        }
        mem.vault_of(self.read_map, op.addr).is_ok_and(|vault| {
            self.next_arrive().max(mem.controller(vault).tsv_free_at()) < horizon
        })
    }

    /// The one stepper: serves the next read beat unconditionally (the
    /// beat a scheduler granted), then keeps serving while the next
    /// beat's grant is strictly before `horizon` — whole spans through
    /// [`MemorySystem::service_paced_span`] when there is no write
    /// side, scalar beats otherwise, or where the classifier asks for
    /// one ([`SpanOutcome::Step`]) or gives the run up
    /// ([`SpanOutcome::Scalar`], always the answer on
    /// [`ServicePath::Reference`](mem3d::ServicePath::Reference)).
    /// Returns the latest completion among the served beats, or `None`
    /// when the read side is exhausted.
    fn step_until(
        &mut self,
        mem: &mut MemorySystem,
        reads: &mut dyn RequestSource,
        mut writes: Option<&mut (dyn RequestSource + '_)>,
        horizon: Picos,
    ) -> Result<Option<Picos>, Fft2dError> {
        let Some(run) = self.pull(reads) else {
            return Ok(None);
        };
        let mut done = self.scalar_beat(mem, writes.as_deref_mut(), run.op)?;
        self.consume(1);
        // No grant is ever before time zero.
        if horizon == Picos::ZERO {
            return Ok(Some(done));
        }
        while let Some(run) = self.pull(reads) {
            if self.fuse && run.beats > 1 {
                let probe_beat = self.probe_beat(run.op.bytes, run.beats);
                let pacing = self.pacing(run.op.bytes, probe_beat, horizon);
                match mem.service_paced_span(self.read_map, run, &pacing) {
                    SpanOutcome::Served(served) if served.beats == 0 => break,
                    SpanOutcome::Served(served) => {
                        self.apply_served(&served, run.op.bytes);
                        done = done.max(served.last_done);
                        self.consume(served.beats);
                        continue;
                    }
                    SpanOutcome::Step => {}
                    SpanOutcome::Scalar => self.fuse = false,
                }
            }
            if !self.due(mem, run.op, horizon) {
                break;
            }
            done = done.max(self.scalar_beat(mem, writes.as_deref_mut(), run.op)?);
            self.consume(1);
        }
        Ok(Some(done))
    }

    /// When the *next* read burst will be issued: the prefetch window
    /// ahead of the kernel consumption point, never before the phase
    /// start. Pure arithmetic on driver state — peeking does not touch
    /// the memory system.
    fn next_arrive(&self) -> Picos {
        fs_to_picos(self.t_kernel_fs.saturating_sub(self.window_fs)).max(self.start)
    }

    /// One scalar beat: the authoritative per-request body both service
    /// paths share. Issues the read, advances the kernel clock, fires
    /// the latency probe and schedules/releases delayed writes. Returns
    /// the read burst's completion time.
    fn scalar_beat(
        &mut self,
        mem: &mut MemorySystem,
        write_src: Option<&mut (dyn RequestSource + '_)>,
        op: TraceOp,
    ) -> Result<Picos, Fft2dError> {
        let arrive = self.next_arrive();
        // Release writes scheduled before this read's issue point.
        while let Some(&(at, wmap, wop)) = self.pending.front() {
            if at > arrive {
                break;
            }
            self.pending.pop_front();
            let wout = mem.service_burst(wmap, wop, at)?;
            self.last_beat = self.last_beat.max(wout.done);
        }
        let out = mem.service_burst(self.read_map, op, arrive)?;
        self.last_beat = self.last_beat.max(out.done);
        // The kernel consumes this burst only once it has arrived.
        self.t_kernel_fs = self.t_kernel_fs.max(out.done.as_ps() as u128 * FS_PER_PS)
            + op.bytes as u128 * self.rate_fs;
        self.consumed += op.bytes as u64;
        if self.probe_done == Picos::ZERO
            && self.latency_probe_bytes > 0
            && self.consumed >= self.latency_probe_bytes
        {
            self.probe_done = out.done;
        }
        // Schedule result bursts whose inputs have now been consumed,
        // pulling them off the write stream one at a time.
        if let (Some(src), Some(wmap)) = (write_src, self.write_map) {
            loop {
                if self.next_write.is_none() {
                    self.next_write = src.next();
                }
                let Some(wop) = self.next_write else { break };
                if self.produced + wop.bytes as u64 > self.consumed {
                    break;
                }
                let at = fs_to_picos(self.t_kernel_fs) + self.write_delay;
                self.pending.push_back((at, wmap, wop));
                self.produced += wop.bytes as u64;
                self.next_write = None;
            }
        }
        Ok(out.done)
    }

    /// Beat index (within a `beats`-long run of `bytes`-sized beats) the
    /// latency probe fires on, if it falls inside the run.
    fn probe_beat(&self, bytes: u32, beats: u32) -> Option<u64> {
        if self.probe_done != Picos::ZERO || self.latency_probe_bytes == 0 {
            return None;
        }
        let nb = self
            .latency_probe_bytes
            .saturating_sub(self.consumed)
            .div_ceil(bytes as u64)
            .max(1);
        if nb <= beats as u64 {
            Some(nb - 1)
        } else {
            None
        }
    }

    /// The pacing law handed to the memory system's fused span loops —
    /// exactly the arithmetic [`scalar_beat`](Self::scalar_beat) applies
    /// per beat, packaged as registers.
    fn pacing(&self, op_bytes: u32, probe_beat: Option<u64>, horizon: Picos) -> RunPacing {
        RunPacing {
            t_kernel_fs: self.t_kernel_fs,
            window_fs: self.window_fs,
            op_fs: op_bytes as u128 * self.rate_fs,
            floor: self.start,
            probe_beat,
            horizon,
        }
    }

    /// Folds a fused span's result back into the driver state.
    fn apply_served(&mut self, served: &RunServed, op_bytes: u32) {
        self.t_kernel_fs = served.t_kernel_fs;
        self.consumed += served.beats as u64 * op_bytes as u64;
        self.last_beat = self.last_beat.max(served.last_done);
        if let Some(p) = served.probe_done {
            self.probe_done = p;
        }
    }

    /// Drains the write tail and assembles the report, handing the
    /// (now empty) pending queue back so its capacity can be pooled.
    fn finish(
        mut self,
        mem: &mut MemorySystem,
        write_src: Option<&mut (dyn RequestSource + '_)>,
        before: Stats,
    ) -> Result<(PhaseReport, PendingWrites), Fft2dError> {
        if let (Some(src), Some(wmap)) = (write_src, self.write_map) {
            while let Some(wop) = self.next_write.take().or_else(|| src.next()) {
                self.pending.push_back((
                    fs_to_picos(self.t_kernel_fs) + self.write_delay,
                    wmap,
                    wop,
                ));
                self.produced += wop.bytes as u64;
            }
            debug_assert_eq!(
                self.produced,
                src.total_bytes(),
                "every write burst must have been scheduled"
            );
        }
        while let Some((at, wmap, wop)) = self.pending.pop_front() {
            let wout = mem.service_burst(wmap, wop, at)?;
            self.last_beat = self.last_beat.max(wout.done);
        }

        let d = mem.stats().delta(&before);
        let report = PhaseReport {
            read_bytes: d.bytes_read,
            write_bytes: d.bytes_written,
            start: self.start,
            end: self.last_beat.max(fs_to_picos(self.t_kernel_fs)),
            probe_done: self.probe_done,
            activations: d.activations,
            row_hit_rate: hit_rate(d.row_hits, d.row_misses),
        };
        Ok((report, self.pending))
    }
}

/// The next read burst a [`ResumablePhase`] would issue, and when —
/// what an external arbiter needs to decide which of several contending
/// phases gets the next grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingBeat {
    /// When the burst will arrive at the controllers (the prefetch
    /// window ahead of the kernel consumption point, floored at the
    /// phase start).
    pub arrive: Picos,
    /// The burst itself (flat address, length, direction).
    pub op: TraceOp,
}

/// One phase held **open between beats**: the same driver state, streams
/// and stepper as [`run_phase`], but with the memory system threaded per
/// call instead of borrowed for the whole phase — so an external
/// scheduler (the `tenancy` service) can interleave many concurrent
/// phases on one shared [`MemorySystem`].
///
/// The protocol is peek → step_until → … → finish:
///
/// * [`peek`](Self::peek) exposes the next read burst and its arrival
///   time without touching the memory system;
/// * [`step_until`](Self::step_until) serves that burst (releasing any
///   due delayed writes first, exactly as `run_phase` would), then
///   keeps serving — fused spans where the memory system proves them —
///   while the next burst's grant, `max(arrival, tsv_free_at)` on its
///   vault, is strictly before the given horizon. A scheduler that
///   passes the earliest competing event it knows of gets exactly the
///   beats it would have granted this phase one at a time.
///   [`step`](Self::step) is the one-beat case;
/// * when stepping returns `Ok(None)` the read side is exhausted and
///   [`finish`](Self::finish) drains the write tail and assembles the
///   [`PhaseReport`].
///
/// A single resumable phase stepped to completion on an otherwise idle
/// memory system, at any horizons, is **bit-identical** to the same
/// phase through [`run_phase`] — the property suite in `crates/tenancy`
/// proves it across layouts and sizes. Note the report's
/// byte/activation counters are measured as a delta on the shared
/// system's statistics, so under
/// concurrent tenants they include interleaved foreign traffic; the
/// timing fields (`start`, `end`, `probe_done`) are always exact
/// per-phase values.
pub struct ResumablePhase<'s> {
    state: DriverState,
    before: Stats,
    reads: Box<dyn RequestSource + 's>,
    writes: Option<Box<dyn RequestSource + 's>>,
    read_total: u64,
    write_total: u64,
}

impl<'s> ResumablePhase<'s> {
    /// Opens a phase on `mem` (only its statistics snapshot is taken;
    /// nothing is serviced yet). `reads`/`writes` are the same lazy
    /// streams [`run_phase`] takes, boxed so the phase can own them
    /// across suspension points.
    ///
    /// # Errors
    ///
    /// Returns [`Fft2dError::Driver`] for an invalid kernel rate.
    pub fn new(
        mem: &MemorySystem,
        cfg: &DriverConfig,
        reads: Box<dyn RequestSource + 's>,
        read_map: AddressMapKind,
        writes: Option<(Box<dyn RequestSource + 's>, AddressMapKind)>,
        start: Picos,
    ) -> Result<Self, Fft2dError> {
        let mut ws = PhaseWorkspace::new();
        Self::new_in(&mut ws, mem, cfg, reads, read_map, writes, start)
    }

    /// [`new`](Self::new), but drawing the driver's pending-write queue
    /// from `ws` instead of allocating a fresh one. Pair with
    /// [`finish_into`](Self::finish_into) so the queue's capacity
    /// survives into the next phase — the combination is what makes a
    /// long-running scheduler's steady state allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`Fft2dError::Driver`] for an invalid kernel rate.
    pub fn new_in(
        ws: &mut PhaseWorkspace,
        mem: &MemorySystem,
        cfg: &DriverConfig,
        reads: Box<dyn RequestSource + 's>,
        read_map: AddressMapKind,
        writes: Option<(Box<dyn RequestSource + 's>, AddressMapKind)>,
        start: Picos,
    ) -> Result<Self, Fft2dError> {
        let (writes, write_map) = match writes {
            Some((src, map)) => (Some(src), Some(map)),
            None => (None, None),
        };
        Ok(ResumablePhase {
            state: DriverState::new(cfg, read_map, write_map, start, ws.take_pending())?,
            before: mem.stats(),
            read_total: reads.total_bytes(),
            write_total: writes.as_ref().map_or(0, |w| w.total_bytes()),
            reads,
            writes,
        })
    }

    /// The address map the read side decodes through.
    pub fn read_map(&self) -> AddressMapKind {
        self.state.read_map
    }

    /// Total payload bytes this phase will move (read + write side),
    /// known up front from the streams — the per-phase byte accounting
    /// that stays exact under concurrent tenants, where the report's
    /// statistics delta would be polluted by foreign traffic.
    pub fn total_bytes(&self) -> u64 {
        self.read_total + self.write_total
    }

    /// The next read burst and its arrival time, or `None` when the
    /// read side is exhausted (call [`finish`](Self::finish)). Pulls at
    /// most one run off the read stream; never touches the memory
    /// system, so peeking is free to repeat between grants.
    pub fn peek(&mut self) -> Option<PendingBeat> {
        let run = self.state.pull(&mut *self.reads)?;
        Some(PendingBeat {
            arrive: self.state.next_arrive(),
            op: run.op,
        })
    }

    /// Serves the next read burst against `mem`, then keeps serving
    /// while the following burst's grant — `max(arrival, tsv_free_at)`
    /// on the vault it targets — is strictly before `horizon`
    /// ([`Picos::MAX`] runs the phase's read side to the end). Returns
    /// the latest completion among the served bursts, or `Ok(None)`
    /// when the read side is exhausted and the phase is ready to
    /// [`finish`](Self::finish).
    ///
    /// Every burst is served exactly as a one-at-a-time
    /// [`step`](Self::step) would serve it; the horizon only decides how
    /// many are served per call.
    ///
    /// # Errors
    ///
    /// Returns [`Fft2dError::Mem`] if a request fails to decode.
    // simlint::entry(hot_path)
    pub fn step_until(
        &mut self,
        mem: &mut MemorySystem,
        horizon: Picos,
    ) -> Result<Option<Picos>, Fft2dError> {
        self.state
            .step_until(mem, &mut *self.reads, self.writes.as_deref_mut(), horizon)
    }

    /// Serves exactly one read burst:
    /// [`step_until`](Self::step_until) with a horizon no grant is
    /// before.
    ///
    /// # Errors
    ///
    /// Returns [`Fft2dError::Mem`] if a request fails to decode.
    pub fn step(&mut self, mem: &mut MemorySystem) -> Result<Option<Picos>, Fft2dError> {
        self.step_until(mem, Picos::ZERO)
    }

    /// Drains the write tail and assembles the [`PhaseReport`], exactly
    /// as [`run_phase`] would at end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`Fft2dError::Mem`] if a trailing write fails to decode.
    pub fn finish(self, mem: &mut MemorySystem) -> Result<PhaseReport, Fft2dError> {
        let ResumablePhase {
            state,
            before,
            mut writes,
            ..
        } = self;
        let (report, _pending) = state.finish(mem, writes.as_deref_mut(), before)?;
        Ok(report)
    }

    /// [`finish`](Self::finish), additionally returning the driver's
    /// pending-write queue to `ws` so the next phase opened with
    /// [`new_in`](Self::new_in) reuses its capacity.
    ///
    /// # Errors
    ///
    /// Returns [`Fft2dError::Mem`] if a trailing write fails to decode
    /// (the buffer is dropped, not pooled, on that path).
    pub fn finish_into(
        self,
        mem: &mut MemorySystem,
        ws: &mut PhaseWorkspace,
    ) -> Result<PhaseReport, Fft2dError> {
        let ResumablePhase {
            state,
            before,
            mut writes,
            ..
        } = self;
        let (report, pending) = state.finish(mem, writes.as_deref_mut(), before)?;
        ws.put_pending(pending);
        Ok(report)
    }
}

/// Runs one phase: `reads` feed the kernel in order; `writes` (if any)
/// trail consumption by `write_delay`. Both sides are lazy
/// [`RequestSource`] streams pulled on demand (a materialized
/// [`mem3d::AccessTrace`] plugs in via
/// [`stream()`](mem3d::AccessTrace::stream)). Returns the timing
/// summary.
///
/// `start` offsets the whole phase (e.g. phase 2 starts when phase 1
/// ends). Statistics are measured as a delta on `mem`, which keeps its
/// row-buffer state across calls — phase 2 genuinely inherits phase 1's
/// open rows.
///
/// The reads are driven by the same stepper as
/// [`ResumablePhase::step_until`], with an unbounded horizon: on the
/// [`ServicePath::Fast`](mem3d::ServicePath::Fast) path it fuses
/// whatever spans the memory system can prove, on
/// [`ServicePath::Reference`](mem3d::ServicePath::Reference) it serves
/// every burst through the scalar beat body. The two are bit-identical
/// in every observable — the differential harness proves it — so the
/// path choice is purely a simulation-speed knob.
///
/// # Errors
///
/// Returns [`Fft2dError::Mem`] if any request fails to decode and
/// [`Fft2dError::Driver`] for an invalid kernel rate.
// simlint::entry(service_path)
pub fn run_phase(
    mem: &mut MemorySystem,
    cfg: &DriverConfig,
    reads: &mut dyn RequestSource,
    read_map: AddressMapKind,
    writes: Option<(&mut dyn RequestSource, AddressMapKind)>,
    start: Picos,
) -> Result<PhaseReport, Fft2dError> {
    let mut ws = PhaseWorkspace::new();
    run_phase_in(&mut ws, mem, cfg, reads, read_map, writes, start)
}

/// [`run_phase`], but drawing the driver's reusable buffers from `ws`
/// and returning them (capacity intact) when the phase completes.
///
/// After one warmup phase has sized the pooled pending-write queue, a
/// call to `run_phase_in` performs **zero** heap allocations — the
/// counting-allocator regression test in `tests/alloc_steady.rs` pins
/// this. Sweeps that evaluate thousands of candidates thread one
/// workspace through every call.
///
/// # Errors
///
/// Returns [`Fft2dError::Mem`] if any request fails to decode and
/// [`Fft2dError::Driver`] for an invalid kernel rate.
// simlint::entry(service_path)
pub fn run_phase_in(
    ws: &mut PhaseWorkspace,
    mem: &mut MemorySystem,
    cfg: &DriverConfig,
    reads: &mut dyn RequestSource,
    read_map: AddressMapKind,
    writes: Option<(&mut dyn RequestSource, AddressMapKind)>,
    start: Picos,
) -> Result<PhaseReport, Fft2dError> {
    let before = mem.stats();
    let (mut write_src, write_map) = match writes {
        Some((src, map)) => (Some(src), Some(map)),
        None => (None, None),
    };
    let mut state = DriverState::new(cfg, read_map, write_map, start, ws.take_pending())?;
    while state
        .step_until(mem, reads, write_src.as_deref_mut(), Picos::MAX)?
        .is_some()
    {}
    let (report, pending) = state.finish(mem, write_src, before)?;
    ws.put_pending(pending);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use layout::{col_phase_stream, row_phase_stream, LayoutParams, MatrixLayout, RowMajor};
    use mem3d::{Direction, Geometry, TimingParams};

    fn setup(n: usize) -> (MemorySystem, LayoutParams) {
        let geom = Geometry::default();
        let timing = TimingParams::default();
        (
            MemorySystem::new(geom, timing),
            LayoutParams::for_device(n, &geom, &timing),
        )
    }

    fn driver() -> DriverConfig {
        DriverConfig {
            ps_per_byte: 31.25, // 8 lanes × 8 B @ 500 MHz = 32 GB/s
            window_bytes: 256 * 1024,
            write_delay: Picos::from_ns(1000),
            latency_probe_bytes: 0,
        }
    }

    #[test]
    fn interleaved_row_phase_is_kernel_bound() {
        let (mut mem, p) = setup(512);
        let l = RowMajor::interleaved(&p);
        let rep = run_phase(
            &mut mem,
            &driver(),
            &mut row_phase_stream(&l, Direction::Read),
            l.map_kind(),
            None,
            Picos::ZERO,
        )
        .unwrap();
        let bw = rep.read_bandwidth_gbps();
        assert!(
            bw > 25.0 && bw <= 32.5,
            "sequential reads run at the kernel rate, got {bw}"
        );
        assert_eq!(rep.read_bytes, 512 * 512 * 8);
    }

    #[test]
    fn chunked_row_phase_is_vault_bound() {
        // The baseline's naive contiguous allocation keeps the whole
        // matrix in one vault: the row phase caps at the per-vault TSV
        // bandwidth (5 GB/s), not the kernel rate.
        let (mut mem, p) = setup(512);
        let l = RowMajor::new(&p);
        let rep = run_phase(
            &mut mem,
            &driver(),
            &mut row_phase_stream(&l, Direction::Read),
            l.map_kind(),
            None,
            Picos::ZERO,
        )
        .unwrap();
        let bw = rep.read_bandwidth_gbps();
        assert!((bw - 5.0).abs() < 0.5, "got {bw}");
    }

    #[test]
    fn column_phase_on_row_major_is_memory_bound() {
        let (mut mem, p) = setup(512);
        let l = RowMajor::new(&p);
        let rep = run_phase(
            &mut mem,
            &driver(),
            &mut col_phase_stream(&l, Direction::Read, 1),
            l.map_kind(),
            None,
            Picos::ZERO,
        )
        .unwrap();
        let bw = rep.read_bandwidth_gbps();
        // The paper's baseline: ~0.8 GB/s for 512 (two column elements
        // per 8 KiB row).
        assert!((bw - 0.8).abs() < 0.1, "got {bw} GB/s");
        assert!(rep.row_hit_rate < 0.6);
    }

    #[test]
    fn writes_share_the_memory() {
        let (mut mem, p) = setup(512);
        let l = RowMajor::new(&p);
        let mut writes = row_phase_stream(&l, Direction::Write);
        let rep = run_phase(
            &mut mem,
            &driver(),
            &mut row_phase_stream(&l, Direction::Read),
            l.map_kind(),
            Some((&mut writes, l.map_kind())),
            Picos::ZERO,
        )
        .unwrap();
        assert_eq!(rep.write_bytes, rep.read_bytes);
        // Reads and writes both flow; the phase still ends after the
        // delayed write tail.
        assert!(rep.end > Picos::ZERO);
    }

    #[test]
    fn start_offset_shifts_the_phase() {
        let (mut mem, p) = setup(512);
        let l = RowMajor::new(&p);
        let t0 = Picos::from_ns(1_000_000);
        let rep = run_phase(
            &mut mem,
            &driver(),
            &mut row_phase_stream(&l, Direction::Read),
            l.map_kind(),
            None,
            t0,
        )
        .unwrap();
        assert!(rep.start == t0);
        assert!(rep.end > t0);
    }

    #[test]
    fn latency_probe_reports_first_bytes() {
        let (mut mem, p) = setup(512);
        let l = RowMajor::new(&p);
        let cfg = DriverConfig {
            latency_probe_bytes: 512 * 8,
            ..driver()
        };
        let rep = run_phase(
            &mut mem,
            &cfg,
            &mut col_phase_stream(&l, Direction::Read, 1),
            l.map_kind(),
            None,
            Picos::ZERO,
        )
        .unwrap();
        assert!(rep.probe_done > Picos::ZERO);
        assert!(rep.probe_done < rep.end);
        // One column of 512 strided elements at ~10 ns each ≈ 5 µs.
        assert!(rep.probe_done.as_us_f64() > 1.0 && rep.probe_done.as_us_f64() < 20.0);
    }

    #[test]
    fn materialized_trace_streams_into_run_phase() {
        // The thin collected form must remain a first-class input.
        let (mut mem, p) = setup(256);
        let l = RowMajor::interleaved(&p);
        let trace = layout::row_phase_trace(&l, Direction::Read);
        let rep = run_phase(
            &mut mem,
            &driver(),
            &mut trace.stream(),
            l.map_kind(),
            None,
            Picos::ZERO,
        )
        .unwrap();
        assert_eq!(rep.read_bytes, trace.total_bytes());
    }

    #[test]
    fn kernel_clock_survives_huge_start_offsets() {
        // An f64 clock loses picoseconds past 2^53; the integer clock
        // must keep the phase duration exact even from a huge offset.
        let (mut mem, p) = setup(64);
        let l = RowMajor::interleaved(&p);
        let t0 = Picos(1 << 60);
        let rep = run_phase(
            &mut mem,
            &driver(),
            &mut row_phase_stream(&l, Direction::Read),
            l.map_kind(),
            None,
            t0,
        )
        .unwrap();
        assert_eq!(rep.start, t0);
        let (mut mem2, _) = setup(64);
        let base = run_phase(
            &mut mem2,
            &driver(),
            &mut row_phase_stream(&l, Direction::Read),
            l.map_kind(),
            None,
            Picos::ZERO,
        )
        .unwrap();
        // Note: the memory device itself starts idle at time zero in
        // both runs, so only the kernel-bound tail may differ; the
        // kernel-side duration must be identical.
        assert_eq!(
            rep.end.saturating_sub(rep.start),
            base.end.saturating_sub(base.start),
            "duration must not drift at large offsets"
        );
    }

    #[test]
    fn resumable_phase_matches_run_phase_with_writes() {
        // Step a write-carrying phase beat by beat and compare with the
        // one-shot driver on a twin device: the report and the device
        // statistics must be bit-identical.
        let (mut mem, p) = setup(256);
        let l = RowMajor::new(&p);
        let mut writes = row_phase_stream(&l, Direction::Write);
        let expected = run_phase(
            &mut mem,
            &driver(),
            &mut row_phase_stream(&l, Direction::Read),
            l.map_kind(),
            Some((&mut writes, l.map_kind())),
            Picos::ZERO,
        )
        .unwrap();

        let (mut mem2, _) = setup(256);
        let mut phase = ResumablePhase::new(
            &mem2,
            &driver(),
            Box::new(row_phase_stream(&l, Direction::Read)),
            l.map_kind(),
            Some((
                Box::new(row_phase_stream(&l, Direction::Write)),
                l.map_kind(),
            )),
            Picos::ZERO,
        )
        .unwrap();
        assert_eq!(phase.total_bytes(), 2 * 256 * 256 * 8);
        let mut beats = 0u64;
        while let Some(done) = phase.step(&mut mem2).unwrap() {
            assert!(done > Picos::ZERO);
            beats += 1;
        }
        assert!(beats > 0);
        let got = phase.finish(&mut mem2).unwrap();
        assert_eq!(got, expected);
        assert_eq!(mem2.stats(), mem.stats());
    }

    #[test]
    fn step_until_matches_run_phase_at_any_horizon() {
        // Horizons scattered around the next beat's arrival cut fused
        // spans and scalar stretches at arbitrary beats; however the
        // phase is sliced, it must equal the one-shot driver.
        use sim_util::{prop_assert_eq, prop_check};
        prop_check!(cases: 16, |rng| {
            let (mut mem, p) = setup([64, 256][rng.gen_range(0usize..2)]);
            let l = if rng.gen_bool() {
                RowMajor::new(&p)
            } else {
                RowMajor::interleaved(&p)
            };
            let with_writes = rng.gen_bool();
            let expected = run_phase(
                &mut mem,
                &driver(),
                &mut col_phase_stream(&l, Direction::Read, 1),
                l.map_kind(),
                with_writes.then_some((
                    &mut row_phase_stream(&l, Direction::Write) as &mut dyn RequestSource,
                    l.map_kind(),
                )),
                Picos::ZERO,
            )
            .unwrap();

            let (mut mem2, _) = setup(l.n());
            let writes: Option<(Box<dyn RequestSource>, _)> = with_writes
                .then(|| (Box::new(row_phase_stream(&l, Direction::Write)) as _, l.map_kind()));
            let mut phase = ResumablePhase::new(
                &mem2,
                &driver(),
                Box::new(col_phase_stream(&l, Direction::Read, 1)),
                l.map_kind(),
                writes,
                Picos::ZERO,
            )
            .unwrap();
            while let Some(next) = phase.peek() {
                let horizon = match rng.gen_range(0usize..16) {
                    0 => Picos::MAX,
                    1..=3 => Picos::ZERO,
                    _ => next.arrive + Picos(rng.gen_range(0u64..100_000)),
                };
                phase.step_until(&mut mem2, horizon).unwrap();
            }
            prop_assert_eq!(phase.finish(&mut mem2).unwrap(), expected);
            prop_assert_eq!(mem2.stats(), mem.stats());
        });
    }

    #[test]
    fn resumable_peek_is_stable_and_free() {
        let (mut mem, p) = setup(64);
        let l = RowMajor::interleaved(&p);
        let mut phase = ResumablePhase::new(
            &mem,
            &driver(),
            Box::new(row_phase_stream(&l, Direction::Read)),
            l.map_kind(),
            None,
            Picos::ZERO,
        )
        .unwrap();
        let a = phase.peek().unwrap();
        let b = phase.peek().unwrap();
        assert_eq!(a, b, "peek must not consume");
        assert_eq!(mem.stats().requests, 0, "peek must not touch memory");
        let done = phase.step(&mut mem).unwrap().unwrap();
        assert!(done >= a.arrive);
        assert_eq!(mem.stats().requests, 1);
    }
}
