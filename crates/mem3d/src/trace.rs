//! Access traces and request streams: generation, replay and summary
//! statistics.
//!
//! Traces decouple *what* an application touches from *when* the device
//! can serve it. The `layout` and `fft2d` crates generate request
//! streams for the row-wise and column-wise FFT phases under different
//! data layouts and replay them here to measure achieved bandwidth.
//!
//! Two forms exist:
//!
//! * [`RequestSource`] — a **lazy, pull-based stream** of burst
//!   requests with a byte total known up front. Generators hold O(1)
//!   state (loop counters), so an N×N phase costs constant memory no
//!   matter how large N grows. This is the primary form; the closed-loop
//!   driver (`fft2d::run_phase`) and [`replay_stream`] consume it.
//! * [`AccessTrace`] — the **materialized** form: a `Vec` of the same
//!   ops, O(ops) memory. Still useful for small traces, golden tests and
//!   ad-hoc inspection; [`AccessTrace::stream`] turns it back into a
//!   [`RequestSource`], and [`RequestSource::collect_trace`] goes the
//!   other way, so the two forms are freely interchangeable.

use crate::{AddressMapKind, Direction, MemorySystem, Picos, Result, Stats};

/// One logical access of a request stream or an [`AccessTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Flat byte address.
    pub addr: u64,
    /// Transfer length in bytes.
    pub bytes: u32,
    /// Read or write.
    pub dir: Direction,
}

/// A maximal run of equally-sized, equally-spaced ops pulled off a
/// stream in one step: beat *i* (`0 ≤ i < beats`) accesses
/// `op.addr + i·stride` with `op.bytes` bytes in direction `op.dir`.
///
/// A run carries no timing — it is purely an access-pattern
/// descriptor. Consumers that cannot exploit the structure simply
/// iterate the beats; [`MemorySystem::service_paced_span`] resolves a
/// whole strided run in one fused pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRun {
    /// The first beat.
    pub op: TraceOp,
    /// Number of beats (≥ 1).
    pub beats: u32,
    /// Address distance between consecutive beats (0 for a single
    /// beat).
    pub stride: u64,
}

impl TraceRun {
    /// Wraps one burst as a single-beat run.
    pub fn single(op: TraceOp) -> TraceRun {
        TraceRun {
            op,
            beats: 1,
            stride: 0,
        }
    }

    /// This run moved `by` bytes: every beat keeps its length,
    /// direction and spacing. `None` if an address would overflow.
    pub fn moved(self, by: u64) -> Option<TraceRun> {
        Some(TraceRun {
            op: TraceOp {
                addr: self.op.addr.checked_add(by)?,
                ..self.op
            },
            ..self
        })
    }
}

/// A **train** of runs: `run`, then `repeats` more runs of the same
/// shape, each `step` bytes past the one before — run *m* is
/// `run.moved(m·step)`. The column sweep of a row-major layout is one:
/// column *j + 1* is column *j* moved one element along the same
/// memory rows. Like a run it carries no timing; it is what the phase
/// driver hands [`MemorySystem::service_paced_span`], which can then
/// jump over the train's steady state instead of serving every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceTrain {
    /// The first run.
    pub run: TraceRun,
    /// Number of runs after the first.
    pub repeats: u32,
    /// Address distance between consecutive runs (0 when `repeats` is
    /// 0).
    pub step: u64,
}

impl From<TraceRun> for TraceTrain {
    /// A train of one run.
    fn from(run: TraceRun) -> TraceTrain {
        TraceTrain {
            run,
            repeats: 0,
            step: 0,
        }
    }
}

/// A lazy, pull-based stream of burst requests with a known byte total.
///
/// Implementors are ordinary iterators of [`TraceOp`] that additionally
/// promise how many payload bytes the whole stream moves — the driver
/// uses the total for progress accounting without materializing the
/// stream. Generators are expected to hold O(1) state.
///
/// # Example
///
/// ```
/// use mem3d::{Direction, RequestSource, StridedSource};
///
/// let mut src = StridedSource::read(0, 8, 64, 4);
/// assert_eq!(src.total_bytes(), 32);
/// assert_eq!(src.next().unwrap().addr, 0);
/// assert_eq!(src.next().unwrap().addr, 64);
/// let rest = src.collect_trace();
/// assert_eq!(rest.len(), 2);
/// ```
pub trait RequestSource: Iterator<Item = TraceOp> {
    /// Total payload bytes the stream moves, known before pulling.
    fn total_bytes(&self) -> u64;

    /// Pulls the next [`TraceRun`]: a maximal strided run when the
    /// generator can describe one in O(1) (column walks over affine
    /// layouts), otherwise one single-beat run per op.
    ///
    /// Expanding every returned run beat by beat MUST reproduce the
    /// exact op sequence [`next`](Iterator::next) would have produced —
    /// runs only group the stream, they never reorder or merge it.
    fn next_run(&mut self) -> Option<TraceRun> {
        self.next().map(TraceRun::single)
    }

    /// Drains the stream into a materialized [`AccessTrace`].
    fn collect_trace(self) -> AccessTrace
    where
        Self: Sized,
    {
        self.collect()
    }
}

impl<S: RequestSource + ?Sized> RequestSource for &mut S {
    fn total_bytes(&self) -> u64 {
        (**self).total_bytes()
    }

    fn next_run(&mut self) -> Option<TraceRun> {
        (**self).next_run()
    }
}

impl<S: RequestSource + ?Sized> RequestSource for Box<S> {
    fn total_bytes(&self) -> u64 {
        (**self).total_bytes()
    }

    fn next_run(&mut self) -> Option<TraceRun> {
        (**self).next_run()
    }
}

/// A strided request stream: `count` chunks of `bytes`, consecutive
/// chunk addresses `stride` bytes apart. O(1) state — the streaming
/// counterpart of [`AccessTrace::strided_read`].
#[derive(Debug, Clone)]
pub struct StridedSource {
    base: u64,
    bytes: u32,
    stride: u64,
    count: u64,
    next: u64,
    dir: Direction,
}

impl StridedSource {
    /// A strided read stream.
    pub fn read(base: u64, bytes: u32, stride: u64, count: usize) -> Self {
        Self::new(base, bytes, stride, count, Direction::Read)
    }

    /// A strided write stream.
    pub fn write(base: u64, bytes: u32, stride: u64, count: usize) -> Self {
        Self::new(base, bytes, stride, count, Direction::Write)
    }

    fn new(base: u64, bytes: u32, stride: u64, count: usize, dir: Direction) -> Self {
        StridedSource {
            base,
            bytes,
            stride,
            count: count as u64,
            next: 0,
            dir,
        }
    }
}

impl Iterator for StridedSource {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        if self.next >= self.count {
            return None;
        }
        let op = TraceOp {
            addr: self.base + self.next * self.stride,
            bytes: self.bytes,
            dir: self.dir,
        };
        self.next += 1;
        Some(op)
    }
}

impl RequestSource for StridedSource {
    fn total_bytes(&self) -> u64 {
        self.count * self.bytes as u64
    }

    fn next_run(&mut self) -> Option<TraceRun> {
        if self.next >= self.count {
            return None;
        }
        let beats = (self.count - self.next).min(u32::MAX as u64) as u32;
        let op = TraceOp {
            addr: self.base + self.next * self.stride,
            bytes: self.bytes,
            dir: self.dir,
        };
        self.next += beats as u64;
        Some(TraceRun {
            op,
            beats,
            stride: self.stride,
        })
    }
}

/// A borrowed stream over a materialized [`AccessTrace`] (see
/// [`AccessTrace::stream`]).
#[derive(Debug, Clone)]
pub struct TraceStream<'a> {
    ops: std::slice::Iter<'a, TraceOp>,
    total: u64,
}

impl Iterator for TraceStream<'_> {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        self.ops.next().copied()
    }
}

impl RequestSource for TraceStream<'_> {
    fn total_bytes(&self) -> u64 {
        self.total
    }
}

/// Replays a request stream against `mem` using address map `map_kind`,
/// pulling one burst at a time — constant memory regardless of stream
/// length. Every op goes through [`MemorySystem::service_burst`], so
/// the replay runs on whichever [`ServicePath`](crate::ServicePath)
/// `mem` has selected.
///
/// With `pacing = None` every access is available at time zero and the
/// device runs flat out (open-loop bandwidth measurement). With
/// `pacing = Some(p)` access *i* arrives at `i * p`, modelling a
/// consumer (the FFT kernel) that issues at a bounded rate.
///
/// Statistics accumulated in `mem` before the call are not cleared;
/// call [`MemorySystem::reset_stats`] first for an isolated
/// measurement. The returned [`TraceStats`] covers only this replay.
///
/// # Errors
///
/// Returns the first op's error ([`service_burst`]'s range and length
/// checks). The ops before it stay served, the failing op leaves no
/// trace, and the device is in the same state on both service paths.
///
/// [`service_burst`]: MemorySystem::service_burst
pub fn replay_stream(
    src: &mut dyn RequestSource,
    mem: &mut MemorySystem,
    map_kind: AddressMapKind,
    pacing: Option<Picos>,
) -> Result<TraceStats> {
    let before = mem.stats();
    let mut last_done = Picos::ZERO;
    let mut first_start: Option<Picos> = None;
    // Bytes issued per direction, for the conservation check below.
    let (mut read, mut written) = (0u64, 0u64);
    let served = src.enumerate().try_for_each(|(i, op)| {
        let at = pacing.map_or(Picos::ZERO, |p| p * i as u64);
        let out = mem.service_burst(map_kind, op, at)?;
        match op.dir {
            Direction::Read => read += u64::from(op.bytes),
            Direction::Write => written += u64::from(op.bytes),
        }
        first_start.get_or_insert(out.data_start);
        last_done = last_done.max(out.done);
        Ok(())
    });
    let stats = mem.stats().delta(&before);
    // Bytes served = bytes issued: the device moved exactly what this
    // replay handed it, in each direction.
    debug_assert_eq!(
        (stats.bytes_read, stats.bytes_written),
        (read, written),
        "replay: bytes served (read, written) differ from bytes issued"
    );
    served?;
    Ok(TraceStats {
        stats,
        first_data: first_start.unwrap_or(Picos::ZERO),
        makespan: last_done,
    })
}

/// An ordered sequence of memory accesses, materialized in memory.
///
/// # Example
///
/// ```
/// use mem3d::{AccessTrace, AddressMapKind, Geometry, MemorySystem, TimingParams};
///
/// let mut mem = MemorySystem::new(Geometry::default(), TimingParams::default());
/// let trace = AccessTrace::strided_read(0, 8, 8192, 1024);
/// let stats = trace.replay(&mut mem, AddressMapKind::Chunked, None).unwrap();
/// assert_eq!(stats.stats.bytes_read, 8 * 1024);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessTrace {
    ops: Vec<TraceOp>,
}

impl AccessTrace {
    /// An empty trace.
    pub fn new() -> Self {
        AccessTrace::default()
    }

    /// A unit-stride read of `count` chunks of `bytes` starting at `base`.
    pub fn sequential_read(base: u64, bytes: u32, count: usize) -> Self {
        Self::strided_read(base, bytes, bytes as u64, count)
    }

    /// A strided read: `count` chunks of `bytes`, consecutive chunk
    /// addresses `stride` bytes apart.
    pub fn strided_read(base: u64, bytes: u32, stride: u64, count: usize) -> Self {
        StridedSource::read(base, bytes, stride, count).collect_trace()
    }

    /// A strided write with the same shape as [`strided_read`].
    ///
    /// [`strided_read`]: AccessTrace::strided_read
    pub fn strided_write(base: u64, bytes: u32, stride: u64, count: usize) -> Self {
        StridedSource::write(base, bytes, stride, count).collect_trace()
    }

    /// Appends one access.
    pub fn push(&mut self, addr: u64, bytes: u32, dir: Direction) {
        self.ops.push(TraceOp { addr, bytes, dir });
    }

    /// Number of accesses in the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the trace holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates over the accesses in order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceOp> {
        self.ops.iter()
    }

    /// A borrowing [`RequestSource`] over this trace, so materialized
    /// traces plug into every stream-consuming API.
    pub fn stream(&self) -> TraceStream<'_> {
        TraceStream {
            ops: self.ops.iter(),
            total: self.total_bytes(),
        }
    }

    /// Total bytes the trace moves.
    pub fn total_bytes(&self) -> u64 {
        self.ops.iter().map(|op| op.bytes as u64).sum()
    }

    /// Replays the trace against `mem`; see [`replay_stream`] for the
    /// pacing semantics and error behaviour.
    ///
    /// # Errors
    ///
    /// Returns the first address-decoding error.
    pub fn replay(
        &self,
        mem: &mut MemorySystem,
        map_kind: AddressMapKind,
        pacing: Option<Picos>,
    ) -> Result<TraceStats> {
        replay_stream(&mut self.stream(), mem, map_kind, pacing)
    }
}

impl FromIterator<TraceOp> for AccessTrace {
    fn from_iter<I: IntoIterator<Item = TraceOp>>(iter: I) -> Self {
        AccessTrace {
            ops: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceOp> for AccessTrace {
    fn extend<I: IntoIterator<Item = TraceOp>>(&mut self, iter: I) {
        self.ops.extend(iter);
    }
}

/// Summary of one trace replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Counter deltas attributable to this replay.
    pub stats: Stats,
    /// When the first byte of the replay crossed the TSVs.
    pub first_data: Picos,
    /// When the last byte of the replay crossed the TSVs.
    pub makespan: Picos,
}

impl TraceStats {
    /// Achieved bandwidth for this replay in GB/s, over `[0, makespan]`.
    pub fn bandwidth_gbps(&self) -> f64 {
        if self.makespan == Picos::ZERO {
            return 0.0;
        }
        self.stats.bytes_total() as f64 / self.makespan.as_ps() as f64 * 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Geometry, MemorySystem, ServicePath, TimingParams};

    fn mem() -> MemorySystem {
        MemorySystem::new(Geometry::default(), TimingParams::default())
    }

    #[test]
    fn builders_have_expected_shape() {
        let t = AccessTrace::sequential_read(0, 8, 4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.total_bytes(), 32);
        assert_eq!(t.iter().nth(3).unwrap().addr, 24);

        let s = AccessTrace::strided_read(100, 8, 64, 3);
        let addrs: Vec<u64> = s.iter().map(|o| o.addr).collect();
        assert_eq!(addrs, vec![100, 164, 228]);

        let w = AccessTrace::strided_write(0, 16, 32, 2);
        assert!(w.iter().all(|o| o.dir == Direction::Write));
        assert!(!w.is_empty());
        assert!(AccessTrace::new().is_empty());
    }

    #[test]
    fn strided_source_matches_materialized_trace() {
        let src = StridedSource::read(64, 8, 4096, 100);
        assert_eq!(src.total_bytes(), 800);
        let collected = src.collect_trace();
        assert_eq!(collected, AccessTrace::strided_read(64, 8, 4096, 100));
    }

    #[test]
    fn trace_stream_round_trips() {
        let t = AccessTrace::strided_write(8, 16, 32, 5);
        let s = t.stream();
        assert_eq!(s.total_bytes(), t.total_bytes());
        assert_eq!(s.collect_trace(), t);
    }

    /// Replays the stream `make` builds on a Fast and a Reference
    /// device under every map, paced and unpaced: the results (errors
    /// included), the statistics and the device state must agree.
    fn assert_paths_agree<'a>(what: &str, make: &dyn Fn() -> Box<dyn RequestSource + 'a>) {
        for kind in crate::AddressMapKind::ALL {
            for pacing in [None, Some(Picos(700))] {
                let mut fast = mem();
                let mut reference = mem();
                reference.set_service_path(ServicePath::Reference);
                let a = replay_stream(&mut make(), &mut fast, kind, pacing);
                let b = replay_stream(&mut make(), &mut reference, kind, pacing);
                let what = format!("{what}, {kind:?}, {pacing:?}");
                assert_eq!(a, b, "{what}");
                assert_eq!(fast.stats(), reference.stats(), "{what}");
                reference.set_service_path(ServicePath::Fast);
                assert_eq!(format!("{fast:?}"), format!("{reference:?}"), "{what}");
            }
        }
    }

    #[test]
    fn replay_matches_reference_path() {
        let traces = [
            AccessTrace::sequential_read(0, 8, 4096),
            AccessTrace::sequential_read(8192 - 16, 8, 64), // crosses a row boundary
            AccessTrace::strided_read(0, 8, 8192, 256),
            {
                let mut t = AccessTrace::sequential_read(64, 64, 32);
                t.push(64 + 32 * 64, 64, Direction::Write); // direction break
                t.push(0, 8, Direction::Read); // size + address break
                t
            },
        ];
        for t in &traces {
            assert_paths_agree(&format!("trace of {} ops", t.len()), &|| {
                Box::new(t.stream())
            });
        }
        // Multi-beat strided streams, one of them splitting every op
        // across a row boundary.
        for (base, bytes, stride, count) in [
            (0, 8, 8192, 300),
            (96, 64, 2048, 200),
            (8192 - 8, 16, 8192, 64),
            (0, 8192, 8192, 40),
        ] {
            assert_paths_agree(&format!("{count} × {bytes} B every {stride} B"), &|| {
                Box::new(StridedSource::write(base, bytes, stride, count))
            });
        }
        // A stream that runs off the device part-way: the error and
        // everything served before it agree too.
        let cap = Geometry::default().capacity_bytes();
        let off_the_end = || StridedSource::read(cap - 8 * 8192, 8, 8192, 20);
        assert_paths_agree("off the end", &|| Box::new(off_the_end()));
        let mut m = mem();
        let r = replay_stream(&mut off_the_end(), &mut m, AddressMapKind::Chunked, None);
        assert!(matches!(r, Err(crate::Error::OutOfRange { .. })), "{r:?}");
        assert_eq!(m.stats().requests, 8, "the in-range ops stay served");
    }

    #[test]
    fn stream_replay_matches_trace_replay() {
        let t = AccessTrace::strided_read(0, 8, 8192, 512);
        let mut m1 = mem();
        let a = t.replay(&mut m1, AddressMapKind::Chunked, None).unwrap();
        let mut m2 = mem();
        let b = replay_stream(
            &mut StridedSource::read(0, 8, 8192, 512),
            &mut m2,
            AddressMapKind::Chunked,
            None,
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn collect_and_extend() {
        let mut t: AccessTrace = (0..3)
            .map(|i| TraceOp {
                addr: i * 8,
                bytes: 8,
                dir: Direction::Read,
            })
            .collect();
        t.extend([TraceOp {
            addr: 64,
            bytes: 8,
            dir: Direction::Write,
        }]);
        t.push(128, 8, Direction::Read);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn replay_measures_only_its_own_delta() {
        let mut m = mem();
        // Pollute stats first.
        AccessTrace::sequential_read(0, 8, 10)
            .replay(&mut m, AddressMapKind::Chunked, None)
            .unwrap();
        let stats = AccessTrace::sequential_read(4096, 8, 5)
            .replay(&mut m, AddressMapKind::Chunked, None)
            .unwrap();
        assert_eq!(stats.stats.requests, 5);
        assert_eq!(stats.stats.bytes_read, 40);
    }

    #[test]
    fn sequential_beats_strided_on_chunked_map() {
        let mut m = mem();
        let seq = AccessTrace::sequential_read(0, 8, 2048)
            .replay(&mut m, AddressMapKind::Chunked, None)
            .unwrap();
        m.reset();
        let strided = AccessTrace::strided_read(0, 8, 8192, 2048)
            .replay(&mut m, AddressMapKind::Chunked, None)
            .unwrap();
        assert!(seq.bandwidth_gbps() > 10.0 * strided.bandwidth_gbps());
    }

    #[test]
    fn pacing_caps_bandwidth() {
        let mut m = mem();
        // 8 bytes every 10 ns = 0.8 GB/s ceiling (the last request arrives
        // at (n-1)*10 ns, so the measured figure can exceed the ceiling by
        // at most one pacing quantum's worth).
        let paced = AccessTrace::sequential_read(0, 8, 1000)
            .replay(&mut m, AddressMapKind::Chunked, Some(Picos::from_ns(10)))
            .unwrap();
        assert!(paced.bandwidth_gbps() <= 0.81);
        assert!(
            paced.bandwidth_gbps() > 0.7,
            "should approach the pacing rate"
        );
    }

    #[test]
    fn replay_propagates_decode_errors() {
        let mut m = mem();
        let cap = m.geometry().capacity_bytes();
        let t = AccessTrace::sequential_read(cap - 8, 8, 2);
        assert!(t.replay(&mut m, AddressMapKind::Chunked, None).is_err());
    }

    #[test]
    fn empty_trace_replay_is_zero() {
        let mut m = mem();
        let s = AccessTrace::new()
            .replay(&mut m, AddressMapKind::Chunked, None)
            .unwrap();
        assert_eq!(s.bandwidth_gbps(), 0.0);
        assert_eq!(s.makespan, Picos::ZERO);
    }
}
