//! Cycle-level simulator of a 3D-stacked (HMC-like) memory device.
//!
//! This crate models the memory side of the *3D Memory Integrated FPGA*
//! (3D MI-FPGA) architecture from "Optimal Dynamic Data Layouts for 2D FFT
//! on 3D Memory Integrated FPGA" (Chen, Singapura, Prasanna, 2015):
//!
//! * a stack of memory **layers**, each partitioned into **banks**;
//! * **vaults**: vertical groups of banks (one per layer) sharing a set of
//!   through-silicon vias (TSVs) and served by a dedicated per-vault
//!   **memory controller**;
//! * DRAM-style **rows** with an open-row (row-buffer) policy;
//! * the paper's four timing parameters ([`TimingParams`]):
//!   `t_in_row`, `t_diff_row`, `t_diff_bank` and `t_in_vault`.
//!
//! Vaults are fully independent (the paper defines no `t_diff_vault`), so
//! the device's peak bandwidth is the sum of the per-vault TSV link
//! bandwidths. Within a vault, activations to banks on *different layers*
//! pipeline with the short `t_in_vault` gap, activations to different banks
//! on the *same layer* pay `t_diff_bank`, and re-activating the *same bank*
//! pays the full `t_diff_row`.
//!
//! The simulator is event-driven per request rather than ticked per cycle:
//! each controller keeps per-bank and per-bus availability times and
//! resolves every request to an absolute completion time in picoseconds.
//! This makes simulating multi-gigabyte traces cheap while enforcing
//! exactly the same constraints a ticked model would.
//!
//! Applications feed the device through the [`RequestSource`] trait: a
//! lazy, pull-based stream of burst requests with a known byte total, so
//! arbitrarily large access patterns replay in O(1) memory
//! ([`replay_stream`]). [`AccessTrace`] is the materialized form of the
//! same stream, kept for small traces and golden tests; the two convert
//! freely ([`AccessTrace::stream`], [`RequestSource::collect_trace`]).
//!
//! # The request-servicing fast path
//!
//! The device has exactly two request-serving entries:
//! [`MemorySystem::service_burst`] serves one burst, and
//! [`MemorySystem::service_paced_span`] serves a whole strided run or
//! train under the phase driver's pacing law. Simulation wall clock is
//! dominated by tens of millions of small requests, so both are
//! engineered around the ideas below, each with a bit-identical scalar
//! reference kept alongside it:
//!
//! * **shift/mask address maps** — [`AddressMap`] precomputes a
//!   shift/mask decoder for power-of-two geometries and keeps the
//!   div/mod chain as [`AddressMap::decode_reference`];
//! * **decode-once bursts** — [`MemorySystem`] caches one map per
//!   [`AddressMapKind`] and [`MemorySystem::service_burst`] decodes a
//!   burst's start once, walking row fragments with incremental
//!   location arithmetic ([`AddressMap::next_row_location`]);
//! * **paced strided-run streaming** — the driver hands a whole strided
//!   run ([`TraceRun`], from [`RequestSource::next_run`]) plus its
//!   kernel-clock pacing law ([`RunPacing`]) to
//!   [`MemorySystem::service_paced_span`]; when the address map proves
//!   every beat is a row miss in one bank with strictly ascending rows,
//!   the controller replays the driver's exact per-beat arithmetic in a
//!   fused register-resident loop — the paper's worst-case strided
//!   column sweep drops from a full round trip per element to a few
//!   arithmetic operations, and once the loop reaches its steady state
//!   (each beat one `t_diff_row` after the last) it jumps the rest of
//!   the bank stretch in closed form;
//! * **event-driven span classification** — the layer above:
//!   [`MemorySystem::service_paced_span`] classifies a whole pulled run
//!   against controller state and either fuses it (class 1, the
//!   same-bank closed form, or class 2, the per-beat spans the
//!   optimized dynamic layouts and the row-major column walk emit),
//!   asks the driver to step one scalar beat at a contention boundary
//!   ([`SpanOutcome::Step`]), or declares the run shape unfusable so
//!   the driver stops probing ([`SpanOutcome::Scalar`] — the amortized
//!   run-probe gate). Every fused loop stops at the pacing law's
//!   horizon ([`RunPacing::horizon`]), which is what lets a multi-tenant
//!   scheduler fuse one tenant's beats up to the next competing event,
//!   and serves on past it the beats an arbiter's [`VaultLease`] covers
//!   — a contended winner's streak;
//! * **cross-run trains** — the driver hands over a [`TraceTrain`]: a
//!   run plus the runs that repeat it moved along the same memory rows
//!   (the columns of a row-major column sweep). The memory system
//!   serves them run by run through the two classes and, once one run
//!   leaves the touched banks and vaults exactly as the run before
//!   left them, shifted in time, jumps the rest of the train in closed
//!   form — the vault-hopping column sweep costs a handful of runs
//!   instead of one controller round trip per beat.
//!
//! [`ServicePath`] selects between the fast path (the default) and the
//! original scalar implementation; differential property tests assert
//! the two are byte-identical in every observable.
//!
//! # Example
//!
//! ```
//! use mem3d::{AddressMapKind, Direction, Geometry, MemorySystem, Picos, TimingParams, TraceOp};
//!
//! let geom = Geometry::default();
//! let mut mem = MemorySystem::new(geom, TimingParams::default());
//!
//! // Stream 1 KiB sequentially through vault 0: row-buffer friendly.
//! for i in 0..128u64 {
//!     let op = TraceOp { addr: i * 8, bytes: 8, dir: Direction::Read };
//!     mem.service_burst(AddressMapKind::Chunked, op, Picos::ZERO).unwrap();
//! }
//! let stats = mem.stats();
//! assert_eq!(stats.bytes_read, 1024);
//! assert!(stats.row_hits > stats.row_misses);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod bank;
mod controller;
mod energy;
mod error;
mod geometry;
mod request;
mod stats;
mod system;
mod timing;
mod trace;

pub use address::{AddressMap, AddressMapKind};
pub use bank::BankState;
pub use controller::{RunPacing, RunServed, VaultController, VaultLease};
pub use energy::{EnergyParams, EnergyReport};
pub use error::{Error, Result};
pub use geometry::{Geometry, Location};
pub(crate) use request::Request;
pub use request::{Direction, RequestOutcome};
pub use stats::{BandwidthReport, Stats};
pub use system::{MemorySystem, ServicePath, SpanOutcome};
pub use timing::{Picos, TimingParams};
pub use trace::{
    replay_stream, AccessTrace, RequestSource, StridedSource, TraceOp, TraceRun, TraceStats,
    TraceStream, TraceTrain,
};
