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
//! There is **one front end**, [`ResumablePhase`], over one stepper and
//! one scalar beat body. It holds a phase **open between beats** so an
//! external scheduler (the `tenancy` service) can interleave many
//! concurrent phases on one shared [`MemorySystem`]. Each
//! [`step_until`](ResumablePhase::step_until) serves the beat the
//! scheduler granted and keeps going — fused spans where the memory
//! system can prove them, scalar beats otherwise — while the next
//! beat's grant is strictly before a horizon: the earliest competing
//! event the scheduler knows of. [`run_phase`] opens one over borrowed
//! streams and steps it with an unbounded horizon, so a one-shot phase
//! is a single call. On
//! [`ServicePath::Reference`](mem3d::ServicePath::Reference) the span
//! classifier never fuses and the stepper degenerates to the scalar
//! reference pipeline.
//!
//! A resumable phase stepped to completion gives bit-identical results
//! whatever horizons it is stepped at — the scalar beat body is the
//! authoritative pacing law, and the fused spans are differentially
//! proven equal to it. Each phase's pending-write queue comes from a
//! per-thread pool, so a thread that has run one phase opens the next
//! without allocating.

use std::cell::Cell;

use mem3d::{
    AddressMapKind, Direction, MemorySystem, Picos, RequestSource, RunPacing, RunServed,
    SpanOutcome, Stats, TraceOp, TraceRun, TraceTrain, VaultLease,
};

use crate::Fft2dError;

/// The phase driver's delayed-write release queue. Bounded by the
/// prefetch window plus the write delay, so its capacity converges
/// after one phase and can be recycled forever.
type PendingWrites = std::collections::VecDeque<(Picos, AddressMapKind, TraceOp)>;

std::thread_local! {
    /// Idle pending-write queues of this thread, cleared with their
    /// capacity intact. A phase takes one when it opens and gives it
    /// back when it finishes, so once every phase shape a thread drives
    /// has run, opening another allocates nothing. A phase that errors
    /// out or is dropped unfinished simply drops its queue: correctness
    /// never depends on the pool, it only recycles capacity.
    static PENDING_POOL: Cell<Vec<PendingWrites>> = Cell::default();
}

/// A cleared pending-write queue: pooled capacity if this thread has
/// one idle, fresh otherwise (also while the thread is being torn down).
fn take_pending() -> PendingWrites {
    PENDING_POOL
        .try_with(|pool| {
            let mut free = pool.take();
            let q = free.pop();
            pool.set(free);
            q
        })
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Returns a drained queue to this thread's pool for the next phase.
fn put_pending(mut q: PendingWrites) {
    q.clear();
    let _ = PENDING_POOL.try_with(|pool| {
        let mut free = pool.take();
        free.push(q);
        pool.set(free);
    });
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

/// How far one [`ResumablePhase::step_until`] call may go: on past the
/// granted beat while the next beat's grant is strictly before
/// `horizon`, or while `lease` covers it (see [`VaultLease`]). A bare
/// [`Picos`] converts into a limit with no lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepLimit {
    /// The earliest competing event the scheduler knows of.
    pub horizon: Picos,
    /// Contended picks the scheduler's arbiter granted the phase ahead
    /// of time.
    pub lease: Option<VaultLease>,
}

impl From<Picos> for StepLimit {
    fn from(horizon: Picos) -> Self {
        StepLimit {
            horizon,
            lease: None,
        }
    }
}

/// Everything one phase carries between beats: the kernel clock, the
/// read frontier, the unserved rest of the current read run, the
/// delayed write machinery and the report accumulators. Deliberately
/// **does not** hold the memory system or the streams — those are
/// threaded through each call — so a phase can be suspended between
/// beats ([`ResumablePhase`]) while many phases share one
/// `&mut MemorySystem`.
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
    /// the phase-level `write_map` option. The queue itself comes from
    /// this thread's pool and goes back (capacity intact) in
    /// [`finish`](Self::finish), so a warmed driver never reallocates it.
    pending: PendingWrites,
    /// Payload bytes of the read stream, known up front.
    read_total: u64,
    /// The unserved rest of the current read run.
    run: Option<TraceRun>,
    /// Whether `run` may still fuse: set per run when there is no write
    /// side (writes need per-beat attention), cleared once the span
    /// classifier declares the run's shape unfusable — the amortized
    /// run-probe gate, one branch per beat after that.
    fuse: bool,
    /// Whole runs queued behind `run` ([`pull`](Self::pull) gathers
    /// them): `queued` runs shaped like `next`, the first at `next`,
    /// each `step` bytes past the one before.
    queued: u32,
    next: TraceRun,
    step: u64,
    /// The first pulled run that did not join the queue.
    ahead: Option<TraceRun>,
    /// The read stream has run dry.
    drained: bool,
    /// Leased beats the last [`step_until`](Self::step_until) served.
    leased: u32,
}

impl DriverState {
    /// A phase over a read stream of `read_total` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Fft2dError::Driver`] for an invalid kernel rate, and
    /// for a rate so slow that the prefetch window or the kernel's
    /// time for the whole read stream (from `start`, plus the write
    /// delay) overflows the clocks.
    fn new(
        cfg: &DriverConfig,
        read_map: AddressMapKind,
        write_map: Option<AddressMapKind>,
        start: Picos,
        read_total: u64,
    ) -> Result<Self, Fft2dError> {
        let rate_fs = fs_per_byte(cfg.ps_per_byte)?;
        let start_fs = start.as_ps() as u128 * FS_PER_PS;
        let kernel_end = u128::from(read_total)
            .checked_mul(rate_fs)
            .and_then(|busy| busy.checked_add(start_fs))
            .and_then(|fs| u64::try_from(fs.div_ceil(FS_PER_PS)).ok())
            .and_then(|ps| ps.checked_add(cfg.write_delay.as_ps()));
        let window_fs = u128::from(cfg.window_bytes).checked_mul(rate_fs);
        let (Some(window_fs), Some(_)) = (window_fs, kernel_end) else {
            return Err(Fft2dError::Driver(format!(
                "kernel rate {} ps/byte overflows the clock over {read_total} bytes",
                cfg.ps_per_byte
            )));
        };
        Ok(DriverState {
            read_map,
            write_map,
            rate_fs,
            window_fs,
            write_delay: cfg.write_delay,
            latency_probe_bytes: cfg.latency_probe_bytes,
            start,
            t_kernel_fs: start_fs,
            consumed: 0,
            produced: 0,
            probe_done: Picos::ZERO,
            last_beat: start,
            next_write: None,
            pending: take_pending(),
            read_total,
            run: None,
            fuse: false,
            queued: 0,
            next: TraceRun::single(TraceOp {
                addr: 0,
                bytes: 0,
                dir: Direction::Read,
            }),
            step: 0,
            ahead: None,
            drained: false,
            leased: 0,
        })
    }

    /// The current read run, pulling the next non-empty one off `reads`
    /// once the last is used up; `None` when the read side is
    /// exhausted. Never touches the memory system.
    ///
    /// On the fused path a freshly pulled run gathers a **train**: every
    /// following run that repeats it moved by one constant forward step
    /// (the next column of a row-major column sweep) is queued behind
    /// it, and the first run that does not is kept for later. The
    /// memory system decides how much of the train it can serve at
    /// once ([`MemorySystem::service_paced_span`]).
    fn pull<S: RequestSource>(&mut self, reads: &mut S) -> Option<TraceRun> {
        if self.run.is_none() {
            if self.queued > 0 {
                self.take_queued();
            } else {
                let run = loop {
                    let Some(run) = self.ahead.take().or_else(|| reads.next_run()) else {
                        self.drained = true;
                        return None;
                    };
                    if run.beats > 0 {
                        break run;
                    }
                };
                self.run = Some(run);
                self.fuse = run.op.bytes > 0 && self.write_map.is_none();
                if self.fuse && run.beats > 1 {
                    self.gather(reads, run);
                }
            }
        }
        self.run
    }

    /// Queues every run after `first` that repeats it moved by one
    /// constant forward step, keeping the first one that does not.
    fn gather<S: RequestSource>(&mut self, reads: &mut S, first: TraceRun) {
        let (train, ahead) = TraceTrain::gather(first, reads);
        self.ahead = ahead;
        self.queued = train.repeats;
        self.step = train.step;
        // The first queued run (never read when none is queued).
        self.next = TraceRun {
            op: TraceOp {
                addr: first.op.addr.wrapping_add(train.step),
                ..first.op
            },
            ..first
        };
    }

    /// Makes the next queued run current.
    fn take_queued(&mut self) {
        self.queued -= 1;
        self.run = Some(self.next);
        self.fuse = self.next.op.bytes > 0 && self.write_map.is_none();
        // Past the last queued run `next` is never read again.
        self.next.op.addr = self.next.op.addr.wrapping_add(self.step);
    }

    /// The current run and the whole runs queued behind it, as a train
    /// for the memory system: a run already partly served goes alone.
    fn train(&self, run: TraceRun) -> TraceTrain {
        if self.queued > 0 && run.beats == self.next.beats {
            TraceTrain {
                run,
                repeats: self.queued,
                step: self.step,
            }
        } else {
            run.into()
        }
    }

    /// Drops the first `beats` beats of the current run and, when a
    /// train span ran past it, of the queued runs behind it (whole
    /// runs skipped in O(1)).
    fn consume(&mut self, mut beats: u32) {
        while let Some(run) = &mut self.run {
            if beats < run.beats {
                run.beats -= beats;
                run.op.addr += beats as u64 * run.stride;
                return;
            }
            beats -= run.beats;
            self.run = None;
            if beats == 0 {
                return;
            }
            debug_assert!(self.queued > 0, "a span ran past the end of its train");
            if self.queued == 0 {
                return;
            }
            let whole = (beats / self.next.beats).min(self.queued);
            self.queued -= whole;
            self.next.op.addr = self
                .next
                .op
                .addr
                .wrapping_add((whole as u64).wrapping_mul(self.step));
            beats -= whole * self.next.beats;
            if beats > 0 && self.queued > 0 {
                self.take_queued();
            }
        }
    }

    /// Whether read burst `op`, issued next, is due under `limit`: its
    /// grant is strictly before the horizon, or the lease covers it (and
    /// then it uses one of the lease's picks). A beat's grant is
    /// `max(arrival, tsv_free_at)` on the vault it targets — the key an
    /// external scheduler orders competing beats by. An address that
    /// fails to decode is never due, so the scheduler's own decode
    /// reports the error.
    fn due(&self, mem: &MemorySystem, op: TraceOp, limit: &mut StepLimit) -> bool {
        if limit.horizon == Picos::MAX {
            return true;
        }
        mem.vault_of(self.read_map, op.addr).is_ok_and(|vault| {
            let at = self.next_arrive();
            let tsv_free = mem.controller(vault).tsv_free_at();
            at.max(tsv_free) < limit.horizon
                || limit
                    .lease
                    .as_mut()
                    .is_some_and(|l| l.take(vault, op.bytes, at, tsv_free))
        })
    }

    /// The one stepper: serves the next read beat unconditionally (the
    /// beat a scheduler granted), then keeps serving while the next
    /// beat is due under `limit` — whole spans through
    /// [`MemorySystem::service_paced_span`] when there is no write
    /// side, scalar beats otherwise, or where the classifier asks for
    /// one ([`SpanOutcome::Step`]) or gives the run up
    /// ([`SpanOutcome::Scalar`], always the answer on
    /// [`ServicePath::Reference`](mem3d::ServicePath::Reference)). A
    /// span that serves nothing ends the step, unless there is a lease:
    /// the span classes may decline leased beats, so the next beat then
    /// gets the scalar due check. Returns the latest completion among
    /// the served beats, or `None` when the read side is exhausted.
    fn step_until<S: RequestSource>(
        &mut self,
        mem: &mut MemorySystem,
        reads: &mut S,
        mut writes: Option<&mut S>,
        mut limit: StepLimit,
    ) -> Result<Option<Picos>, Fft2dError> {
        let picks = limit.lease.map_or(0, |l| l.picks);
        self.leased = 0;
        let Some(run) = self.pull(reads) else {
            return Ok(None);
        };
        let mut done = self.scalar_beat(mem, writes.as_deref_mut(), run.op)?;
        self.consume(1);
        // No grant is ever before time zero.
        if limit.horizon == Picos::ZERO && limit.lease.is_none() {
            return Ok(Some(done));
        }
        while let Some(run) = self.pull(reads) {
            if self.fuse && run.beats > 1 {
                let train = self.train(run);
                let beats = u64::from(run.beats) * (u64::from(train.repeats) + 1);
                let probe_beat = self.probe_beat(run.op.bytes, beats);
                let pacing = self.pacing(run.op.bytes, probe_beat, &limit);
                match mem.service_paced_span(self.read_map, train, &pacing) {
                    SpanOutcome::Served(served) if served.beats > 0 => {
                        self.apply_served(&served, run.op.bytes);
                        done = done.max(served.last_done);
                        self.consume(served.beats);
                        limit.lease = limit.lease.map(|l| l.after(served.leased));
                        continue;
                    }
                    SpanOutcome::Served(_) if limit.lease.is_none() => break,
                    SpanOutcome::Served(_) | SpanOutcome::Step => {}
                    SpanOutcome::Scalar => self.fuse = false,
                }
            }
            if !self.due(mem, run.op, &mut limit) {
                break;
            }
            done = done.max(self.scalar_beat(mem, writes.as_deref_mut(), run.op)?);
            self.consume(1);
        }
        self.leased = picks - limit.lease.map_or(0, |l| l.picks);
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
    fn scalar_beat<S: RequestSource>(
        &mut self,
        mem: &mut MemorySystem,
        write_src: Option<&mut S>,
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

    /// Beat index (within `beats` beats of `bytes` bytes each) the
    /// latency probe fires on, if it falls inside them.
    fn probe_beat(&self, bytes: u32, beats: u64) -> Option<u64> {
        if self.probe_done != Picos::ZERO || self.latency_probe_bytes == 0 {
            return None;
        }
        let nb = self
            .latency_probe_bytes
            .saturating_sub(self.consumed)
            .div_ceil(bytes as u64)
            .max(1);
        if nb <= beats {
            Some(nb - 1)
        } else {
            None
        }
    }

    /// The pacing law handed to the memory system's fused span loops —
    /// exactly the arithmetic [`scalar_beat`](Self::scalar_beat) applies
    /// per beat, packaged as registers.
    fn pacing(&self, op_bytes: u32, probe_beat: Option<u64>, limit: &StepLimit) -> RunPacing {
        RunPacing {
            t_kernel_fs: self.t_kernel_fs,
            window_fs: self.window_fs,
            op_fs: op_bytes as u128 * self.rate_fs,
            floor: self.start,
            probe_beat,
            horizon: limit.horizon,
            lease: limit.lease,
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
    /// (now empty) pending queue back to this thread's pool.
    ///
    /// Once the read stream is drained, debug builds check that bytes
    /// issued equal bytes served: the kernel consumed exactly the read
    /// stream's total, and the memory served exactly the bytes issued on
    /// both sides — at least them when `exclusive` is false, as other
    /// phases may share the memory system.
    fn finish<S: RequestSource>(
        mut self,
        mem: &mut MemorySystem,
        write_src: Option<&mut S>,
        before: Stats,
        exclusive: bool,
    ) -> Result<PhaseReport, Fft2dError> {
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
        if self.drained {
            debug_assert_eq!(
                self.consumed, self.read_total,
                "the kernel must consume exactly the read stream's bytes"
            );
            let issued = self.consumed + self.produced;
            debug_assert!(
                d.bytes_total() == issued || (!exclusive && d.bytes_total() > issued),
                "bytes served ({}) must equal bytes issued ({issued})",
                d.bytes_total()
            );
        }
        let report = PhaseReport {
            read_bytes: d.bytes_read,
            write_bytes: d.bytes_written,
            start: self.start,
            end: self.last_beat.max(fs_to_picos(self.t_kernel_fs)),
            probe_done: self.probe_done,
            activations: d.activations,
            row_hit_rate: hit_rate(d.row_hits, d.row_misses),
        };
        put_pending(self.pending);
        Ok(report)
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

/// One phase held **open between beats**: the driver state and the
/// phase's read and write streams, with the memory system threaded per
/// call instead of borrowed for the whole phase — so an external
/// scheduler (the `tenancy` service) can interleave many concurrent
/// phases on one shared [`MemorySystem`]. [`run_phase`] is this type
/// stepped to the end in one go.
///
/// `S` is the stream type of both sides: any [`RequestSource`], owned
/// or borrowed. Borrowed streams are `S = &mut dyn RequestSource`.
///
/// The protocol is peek → step_until → … → finish:
///
/// * [`peek`](Self::peek) exposes the next read burst and its arrival
///   time without touching the memory system;
/// * [`step_until`](Self::step_until) serves that burst (releasing any
///   due delayed writes first), then keeps serving — fused spans where
///   the memory system proves them — while the next burst's grant,
///   `max(arrival, tsv_free_at)` on its vault, is strictly before the
///   given horizon. A scheduler that passes the earliest competing
///   event it knows of gets exactly the beats it would have granted
///   this phase one at a time. [`step`](Self::step) is the one-beat
///   case;
/// * when stepping returns `Ok(None)` the read side is exhausted and
///   [`finish`](Self::finish) drains the write tail and assembles the
///   [`PhaseReport`].
///
/// The phase's pending-write queue comes from a per-thread pool and
/// goes back to it in `finish`, so once a thread has run a phase, the
/// phases it opens after that allocate nothing.
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
pub struct ResumablePhase<S> {
    state: DriverState,
    before: Stats,
    reads: S,
    writes: Option<S>,
    write_total: u64,
}

impl<S: RequestSource> ResumablePhase<S> {
    /// Opens a phase on `mem` (only its statistics snapshot is taken;
    /// nothing is serviced yet). `reads` feed the kernel in order;
    /// `writes` (if any) trail consumption by the configured write
    /// delay.
    ///
    /// # Errors
    ///
    /// Returns [`Fft2dError::Driver`] for an invalid kernel rate, or one
    /// too slow for the phase's clocks to hold.
    pub fn new(
        mem: &MemorySystem,
        cfg: &DriverConfig,
        reads: S,
        read_map: AddressMapKind,
        writes: Option<(S, AddressMapKind)>,
        start: Picos,
    ) -> Result<Self, Fft2dError> {
        let (writes, write_map) = match writes {
            Some((src, map)) => (Some(src), Some(map)),
            None => (None, None),
        };
        let read_total = reads.total_bytes();
        Ok(ResumablePhase {
            state: DriverState::new(cfg, read_map, write_map, start, read_total)?,
            before: mem.stats(),
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
        self.state.read_total + self.write_total
    }

    /// The next read burst and its arrival time, or `None` when the
    /// read side is exhausted (call [`finish`](Self::finish)). Pulls at
    /// most one train of runs off the read stream; never touches the
    /// memory system, so peeking is free to repeat between grants.
    pub fn peek(&mut self) -> Option<PendingBeat> {
        let run = self.state.pull(&mut self.reads)?;
        Some(PendingBeat {
            arrive: self.state.next_arrive(),
            op: run.op,
        })
    }

    /// Serves the next read burst against `mem`, then keeps serving
    /// while the following burst's grant — `max(arrival, tsv_free_at)`
    /// on the vault it targets — is strictly before the limit's horizon
    /// ([`Picos::MAX`] runs the phase's read side to the end), or the
    /// limit's [`VaultLease`] covers the burst. Returns the latest
    /// completion among the served bursts, or `Ok(None)` when the read
    /// side is exhausted and the phase is ready to
    /// [`finish`](Self::finish). [`leased_picks`](Self::leased_picks)
    /// then tells how many of the lease's picks the call used.
    ///
    /// Every burst is served exactly as a one-at-a-time
    /// [`step`](Self::step) would serve it; the limit only decides how
    /// many are served per call.
    ///
    /// # Errors
    ///
    /// Returns [`Fft2dError::Mem`] if a request fails to decode.
    // simlint::entry(hot_path)
    pub fn step_until(
        &mut self,
        mem: &mut MemorySystem,
        limit: impl Into<StepLimit>,
    ) -> Result<Option<Picos>, Fft2dError> {
        self.state
            .step_until(mem, &mut self.reads, self.writes.as_mut(), limit.into())
    }

    /// Leased bursts the last [`step_until`](Self::step_until) call
    /// served: the picks of its lease it used, for the scheduler's
    /// arbiter to commit.
    pub fn leased_picks(&self) -> u32 {
        self.state.leased
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
    /// as [`run_phase`] does at end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`Fft2dError::Mem`] if a trailing write fails to decode.
    pub fn finish(self, mem: &mut MemorySystem) -> Result<PhaseReport, Fft2dError> {
        self.close(mem, false)
    }

    /// [`finish`](Self::finish); `exclusive` says no other phase shared
    /// `mem` since this one opened, which tightens the debug check on
    /// bytes served.
    fn close(self, mem: &mut MemorySystem, exclusive: bool) -> Result<PhaseReport, Fft2dError> {
        let ResumablePhase {
            state,
            before,
            mut writes,
            ..
        } = self;
        state.finish(mem, writes.as_mut(), before, exclusive)
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
/// This is a [`ResumablePhase`] over the borrowed streams, stepped with
/// an unbounded horizon until its read side is drained: on the
/// [`ServicePath::Fast`](mem3d::ServicePath::Fast) path it fuses
/// whatever spans the memory system can prove, on
/// [`ServicePath::Reference`](mem3d::ServicePath::Reference) it serves
/// every burst through the scalar beat body. The two are bit-identical
/// in every observable — the differential harness proves it — so the
/// path choice is purely a simulation-speed knob. Like every phase, it
/// allocates nothing once its thread has run one.
///
/// # Errors
///
/// Returns [`Fft2dError::Mem`] if any request fails to decode and
/// [`Fft2dError::Driver`] for an invalid kernel rate, or one too slow
/// for the phase's clocks to hold.
// simlint::entry(service_path)
pub fn run_phase(
    mem: &mut MemorySystem,
    cfg: &DriverConfig,
    reads: &mut dyn RequestSource,
    read_map: AddressMapKind,
    writes: Option<(&mut dyn RequestSource, AddressMapKind)>,
    start: Picos,
) -> Result<PhaseReport, Fft2dError> {
    let writes = writes.map(|(w, map)| (w as &mut dyn RequestSource, map));
    let mut phase =
        ResumablePhase::<&mut dyn RequestSource>::new(mem, cfg, reads, read_map, writes, start)?;
    while phase.step_until(mem, Picos::MAX)?.is_some() {}
    phase.close(mem, true)
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
        let trace = row_phase_stream(&l, Direction::Read).collect_trace();
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
    fn hostile_kernel_rates_are_rejected_not_wrapped() {
        // Finite but huge rates used to wrap the prefetch window
        // (1e36 ps/B) or overflow the clock past `Picos::MAX` (1e30
        // ps/B) — a wrong `end` in release builds, a panic in debug.
        // The phase refuses them when it opens.
        let (mut mem, p) = setup(64);
        let l = RowMajor::interleaved(&p);
        for rate in [1e36, 1e30, 1e20] {
            let cfg = DriverConfig {
                ps_per_byte: rate,
                ..driver()
            };
            let r = run_phase(
                &mut mem,
                &cfg,
                &mut col_phase_stream(&l, Direction::Read, 1),
                l.map_kind(),
                None,
                Picos::ZERO,
            );
            assert!(matches!(r, Err(Fft2dError::Driver(_))), "{rate}: {r:?}");
            let r = ResumablePhase::new(
                &mem,
                &cfg,
                col_phase_stream(&l, Direction::Read, 1),
                l.map_kind(),
                None,
                Picos::ZERO,
            );
            assert!(matches!(r.err(), Some(Fft2dError::Driver(_))), "{rate}");
        }
        assert_eq!(mem.stats().requests, 0, "nothing was served");
        // A slow rate whose phase still fits the clock runs as before:
        // kernel-bound, one beat's consumption after the other.
        let cfg = DriverConfig {
            ps_per_byte: 1e9,
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
        assert!(rep.end >= Picos(64 * 64 * 8 * 1_000_000_000));
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
            row_phase_stream(&l, Direction::Read),
            l.map_kind(),
            Some((row_phase_stream(&l, Direction::Write), l.map_kind())),
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
                Box::new(col_phase_stream(&l, Direction::Read, 1)) as Box<dyn RequestSource>,
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
            row_phase_stream(&l, Direction::Read),
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
