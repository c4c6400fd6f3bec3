//! Multi-tenant simulation service: many concurrent FFT jobs sharing
//! one [`mem3d::MemorySystem`], with pluggable vault arbitration,
//! bounded admission and per-tenant QoS accounting.
//!
//! The paper's experiments measure one application owning the whole
//! 3D-memory stack. This crate asks the operational question that
//! follows: what happens when several FFT workloads — different
//! architectures, different sizes, different arrival patterns — share
//! the device? The answer is policy-dependent, and the service makes
//! the policy a first-class, swappable object (the [`Arbiter`] trait)
//! so round-robin fair share, strict priority and deficit-weighted
//! fair queueing can be compared on identical traffic.
//!
//! # Structure
//!
//! * a [`Scenario`] describes the platform, the [`TenantSpec`]s (job
//!   recipe, [`Traffic`] model, weight, priority) and the
//!   [`AdmissionConfig`] bounds;
//! * [`run_scenario`] replays it under one [`ArbiterKind`],
//!   interleaving jobs **one memory beat at a time** through
//!   [`fft2d::ResumablePhase`] — the same pacing law, streams and
//!   layouts as the single-tenant `run_phase`, which is why the
//!   degenerate one-tenant service run is bit-identical to the direct
//!   simulation (property-tested in `tests/equivalence.rs`);
//! * [`run_suite`] replays one scenario under several policies on the
//!   deterministic `sim-exec` pool;
//! * the [`ServiceReport`] carries per-tenant p50/p95/p99 latency,
//!   queue wait, achieved bandwidth and slowdown versus an isolated
//!   run, plus the admission ledger ([`AdmissionCounts`]).
//!
//! # Determinism contract
//!
//! A service run is a pure function of its [`Scenario`] and policy:
//! traffic is sampled from [`sim_util::SimRng`] forks keyed by tenant
//! id, every scheduling tie is broken lexicographically, and the
//! simulated clock is integer femtoseconds end to end. The reports —
//! including their JSON serialization — are byte-identical at any
//! `SIM_EXEC_THREADS` setting (`tests/determinism.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod book;
mod error;
mod offset;
mod qos;
mod service;
mod spec;
mod traffic;

pub use arbiter::{
    Arbiter, ArbiterKind, Contender, DeficitWeighted, Lease, RoundRobin, StrictPriority,
};
pub use error::{AdmissionCounts, TenancyError};
pub use offset::OffsetSource;
pub use qos::{percentile, JobRecord, ServiceReport, TenantQos};
pub use service::{run_isolated, run_scenario, run_suite};
pub use spec::{AdmissionConfig, JobShape, JobSpec, Scenario, TenantSpec};
pub use traffic::{Arrivals, Traffic};
