//! The work-stealing executor.
//!
//! [`run_jobs`] runs `jobs` independent closures on a pool of scoped
//! worker threads and returns their results **in submission order**,
//! regardless of the order in which they completed. Scheduling is
//! work-stealing: every worker owns a deque seeded with a contiguous
//! slice of the job indices, a global injector holds the remainder, and
//! an idle worker first drains its own deque (front), then the injector,
//! then steals from the *back* of a victim's deque — so stolen work is
//! the work its owner would have reached last.
//!
//! Three properties make the pool safe to point at experiment sweeps:
//!
//! * **determinism** — job `i` always receives the same forked RNG
//!   stream ([`SimRng::fork`] keyed by `i`) and results are reassembled
//!   by index, so for pure-per-index job functions the output is
//!   byte-identical whether the pool runs 1 thread or 64;
//! * **fault isolation** — each job runs under
//!   [`catch_unwind`](std::panic::catch_unwind); a panicking job yields
//!   [`JobError::Panicked`] for *that index* while every other job
//!   completes normally;
//! * **cooperative cancellation** — a shared [`CancelToken`] plus an
//!   optional per-job wall-clock deadline. Jobs observe both via
//!   [`JobCtx::is_cancelled`] / [`JobCtx::checkpoint`]; jobs that have
//!   not started when the token fires are reported as
//!   [`JobError::Cancelled`] without running.
//!
//! Timeouts are wall-clock and therefore *nondeterministic*: a sweep
//! that must produce bit-identical output across thread counts should
//! leave [`ExecConfig::job_timeout`] at `None` (the default).

use crate::cancel::CancelToken;
use sim_util::SimRng;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default base seed for forked job RNG streams.
pub const DEFAULT_SEED: u64 = 0x0005_1BEC_5EED;

/// How a job failed. Carries the job's submission index so failures
/// stay attributable after reassembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked; the sweep continued without it.
    Panicked {
        /// Submission index of the failed job.
        index: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// The job exceeded [`ExecConfig::job_timeout`].
    TimedOut {
        /// Submission index of the failed job.
        index: usize,
        /// Wall-clock time the job had consumed when it unwound (or
        /// finished too late to be accepted).
        elapsed: Duration,
    },
    /// The shared [`CancelToken`] fired before or during the job.
    Cancelled {
        /// Submission index of the cancelled job.
        index: usize,
    },
}

impl JobError {
    /// The submission index of the failed job.
    pub fn index(&self) -> usize {
        match self {
            JobError::Panicked { index, .. }
            | JobError::TimedOut { index, .. }
            | JobError::Cancelled { index } => *index,
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked { index, message } => {
                write!(f, "job {index} panicked: {message}")
            }
            JobError::TimedOut { index, elapsed } => {
                write!(f, "job {index} timed out after {elapsed:?}")
            }
            JobError::Cancelled { index } => write!(f, "job {index} cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

/// A job's result: its value, or how it failed.
pub type JobResult<T> = Result<T, JobError>;

/// Executor configuration.
///
/// [`ExecConfig::from_env`] (also [`Default`]) resolves the thread
/// count from `SIM_EXEC_THREADS` (falling back to the machine's
/// available parallelism), the per-job timeout from
/// `SIM_EXEC_TIMEOUT_MS`, and the RNG base seed from `SIM_EXEC_SEED`.
/// `SIM_EXEC_THREADS=1` is the documented sequential fallback: the
/// pool then runs every job inline on the calling thread with
/// identical per-job semantics.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads (clamped to at least 1, and to the job count).
    pub threads: usize,
    /// Optional per-job wall-clock deadline. `None` (default) disables
    /// timeouts and keeps runs deterministic.
    pub job_timeout: Option<Duration>,
    /// Base seed; job `i` receives `SimRng::seed_from_u64(seed).fork(i)`.
    pub seed: u64,
    /// Shared cancellation token; clone it to cancel from outside.
    pub token: CancelToken,
}

impl ExecConfig {
    /// Resolves the configuration from the environment (see type docs).
    pub fn from_env() -> Self {
        let threads = std::env::var("SIM_EXEC_THREADS")
            .ok()
            .as_deref()
            .and_then(parse_thread_count)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        let job_timeout = std::env::var("SIM_EXEC_TIMEOUT_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(Duration::from_millis);
        let seed = std::env::var("SIM_EXEC_SEED")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_SEED);
        ExecConfig {
            threads,
            job_timeout,
            seed,
            token: CancelToken::new(),
        }
    }

    /// A sequential (1-thread) configuration — the deterministic
    /// reference every parallel run must reproduce.
    pub fn sequential() -> Self {
        ExecConfig {
            threads: 1,
            job_timeout: None,
            seed: DEFAULT_SEED,
            token: CancelToken::new(),
        }
    }

    /// Builder: sets the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder: sets the per-job wall-clock timeout.
    #[must_use]
    pub fn with_job_timeout(mut self, timeout: Duration) -> Self {
        self.job_timeout = Some(timeout);
        self
    }

    /// Builder: sets the RNG base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::from_env()
    }
}

/// Parses a `SIM_EXEC_THREADS`-style value: a positive integer, or
/// `0`/`auto` meaning "use the machine's available parallelism"
/// (reported here as `None` so the caller applies its own fallback).
pub fn parse_thread_count(s: &str) -> Option<usize> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("auto") || s == "0" {
        return None;
    }
    s.parse::<usize>().ok().filter(|&n| n > 0)
}

/// Per-job execution context handed to the job closure.
///
/// Carries the job's submission index, the id of the worker running it,
/// a forked deterministic RNG stream, and the cancellation state.
pub struct JobCtx {
    index: usize,
    worker: usize,
    rng: SimRng,
    token: CancelToken,
    deadline: Option<Instant>,
}

/// Panic payload used to unwind out of a cancelled job; recognized by
/// the pool and mapped to `TimedOut`/`Cancelled` instead of `Panicked`.
struct CancelUnwind;

impl JobCtx {
    /// The job's submission index (also its position in the results).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The worker thread running this job (0-based; informational —
    /// never derive data from it, or determinism is lost).
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The job's private RNG stream, forked from the pool's base seed
    /// by job index — identical across runs and thread counts.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Whether the job should stop: the shared token fired or the
    /// job's wall-clock deadline passed.
    pub fn is_cancelled(&self) -> bool {
        // simlint::allow(D001): deadline enforcement is wall-clock by
        // definition; it gates job *abortion*, never simulated timing.
        self.token.is_cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Cooperative cancellation point: unwinds out of the job (the
    /// pool reports [`JobError::TimedOut`] or [`JobError::Cancelled`])
    /// if [`is_cancelled`](Self::is_cancelled) holds, else returns.
    /// Long-running jobs should call this inside their hot loop.
    pub fn checkpoint(&self) {
        if self.is_cancelled() {
            std::panic::panic_any(CancelUnwind);
        }
    }

    /// Cancels the *entire run*: sets the shared token, so jobs that
    /// have not started are skipped (e.g. stop-on-first-failure).
    pub fn cancel_all(&self) {
        self.token.cancel();
    }
}

/// Runs `jobs` closures on the pool and returns their results in
/// submission order. `f` is called as `f(&mut ctx)` with
/// `ctx.index()` in `0..jobs`.
///
/// See the [crate docs](crate) for the determinism / fault-isolation /
/// cancellation contract.
// simlint::entry(service_path)
pub fn run_jobs<T, F>(cfg: &ExecConfig, jobs: usize, f: F) -> Vec<JobResult<T>>
where
    T: Send,
    F: Fn(&mut JobCtx) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let threads = cfg.threads.clamp(1, jobs);
    let base = SimRng::seed_from_u64(cfg.seed);

    if threads == 1 {
        // Sequential fallback: same per-job semantics, no threads.
        return (0..jobs).map(|i| execute(cfg, &base, 0, i, &f)).collect();
    }

    // Seed each worker's deque with a contiguous chunk; the remainder
    // goes to the global injector.
    let chunk = jobs / threads;
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new((w * chunk..(w + 1) * chunk).collect()))
        .collect();
    let injector: Mutex<VecDeque<usize>> = Mutex::new((threads * chunk..jobs).collect());
    let results: Mutex<Vec<Option<JobResult<T>>>> = Mutex::new((0..jobs).map(|_| None).collect());

    std::thread::scope(|s| {
        for w in 0..threads {
            let (queues, injector, results, base, f) = (&queues, &injector, &results, &base, &f);
            s.spawn(move || loop {
                let next = next_job(w, queues, injector);
                match next {
                    Some(i) => {
                        let r = execute(cfg, base, w, i, f);
                        // simlint::allow(P101): poisoned lock means a worker already panicked
                        results.lock().expect("results lock")[i] = Some(r);
                    }
                    None => {
                        // No new work can appear once all queues are
                        // empty (the job set is fixed), so exit.
                        break;
                    }
                }
            });
        }
    });

    results
        .into_inner()
        // simlint::allow(P101): poisoned lock means a worker already panicked
        .expect("results lock")
        .into_iter()
        // simlint::allow(P101): the scope above ran every job to completion
        .map(|r| r.expect("every job leaves a result"))
        .collect()
}

/// Runs `f` over `items` on the pool; sugar over [`run_jobs`].
// simlint::entry(service_path)
pub fn par_map<I, T, F>(cfg: &ExecConfig, items: &[I], f: F) -> Vec<JobResult<T>>
where
    I: Sync,
    T: Send,
    F: Fn(&I, &mut JobCtx) -> T + Sync,
{
    run_jobs(cfg, items.len(), |ctx| f(&items[ctx.index()], ctx))
}

/// Work-stealing pop: own deque front → injector front → victims' backs.
fn next_job(
    w: usize,
    queues: &[Mutex<VecDeque<usize>>],
    injector: &Mutex<VecDeque<usize>>,
) -> Option<usize> {
    // simlint::allow(P101): poisoned lock means a worker already panicked
    if let Some(i) = queues[w].lock().expect("queue lock").pop_front() {
        return Some(i);
    }
    // simlint::allow(P101): poisoned lock means a worker already panicked
    if let Some(i) = injector.lock().expect("injector lock").pop_front() {
        return Some(i);
    }
    // Steal from the back of the first non-empty victim, scanning from
    // the next worker around the ring (spreads contention).
    let n = queues.len();
    for off in 1..n {
        let v = (w + off) % n;
        // simlint::allow(P101): poisoned lock means a worker already panicked
        if let Some(i) = queues[v].lock().expect("victim lock").pop_back() {
            return Some(i);
        }
    }
    None
}

/// Runs one job with panic isolation, cancellation and deadline checks.
fn execute<T, F>(
    cfg: &ExecConfig,
    base: &SimRng,
    worker: usize,
    index: usize,
    f: &F,
) -> JobResult<T>
where
    F: Fn(&mut JobCtx) -> T,
{
    if cfg.token.is_cancelled() {
        return Err(JobError::Cancelled { index });
    }
    // simlint::allow(D001): job timeout bookkeeping — wall-clock gates
    // abortion/reporting only and never reaches simulated state.
    let start = Instant::now();
    let mut ctx = JobCtx {
        index,
        worker,
        rng: base.fork(index as u64),
        token: cfg.token.clone(),
        deadline: cfg.job_timeout.map(|t| start + t),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
    // simlint::allow(D001): measures how long the job ran, for the
    // TimedOut report; not simulated time.
    let elapsed = start.elapsed();
    // simlint::allow(D001): deadline check at job exit, as above.
    let deadline_passed = ctx.deadline.is_some_and(|d| Instant::now() >= d);
    match outcome {
        Ok(value) => {
            if deadline_passed {
                // The value arrived but past its deadline; per the
                // contract a timed-out job reports, not returns.
                Err(JobError::TimedOut { index, elapsed })
            } else {
                Ok(value)
            }
        }
        Err(payload) => {
            if payload.is::<CancelUnwind>() {
                if deadline_passed {
                    Err(JobError::TimedOut { index, elapsed })
                } else {
                    Err(JobError::Cancelled { index })
                }
            } else {
                Err(JobError::Panicked {
                    index,
                    // `&*payload`, not `&payload`: the latter would unsize
                    // the `&Box` itself to `&dyn Any` and every downcast
                    // of the contents would miss.
                    message: panic_message(&*payload),
                })
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_parsing() {
        assert_eq!(parse_thread_count("4"), Some(4));
        assert_eq!(parse_thread_count(" 16 "), Some(16));
        assert_eq!(parse_thread_count("0"), None);
        assert_eq!(parse_thread_count("auto"), None);
        assert_eq!(parse_thread_count("AUTO"), None);
        assert_eq!(parse_thread_count("-3"), None);
        assert_eq!(parse_thread_count("many"), None);
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<JobResult<u32>> = run_jobs(&ExecConfig::sequential(), 0, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn job_error_accessors() {
        let e = JobError::Panicked {
            index: 3,
            message: "boom".into(),
        };
        assert_eq!(e.index(), 3);
        assert!(e.to_string().contains("boom"));
        let t = JobError::TimedOut {
            index: 1,
            elapsed: Duration::from_millis(5),
        };
        assert_eq!(t.index(), 1);
        assert!(t.to_string().contains("timed out"));
        let c = JobError::Cancelled { index: 9 };
        assert_eq!(c.index(), 9);
        assert!(c.to_string().contains("cancelled"));
    }
}
