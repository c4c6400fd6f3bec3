//! Zero-dependency utilities that keep the workspace hermetic.
//!
//! The build environment for this repository is offline: nothing may be
//! fetched from crates.io. This crate supplies in-repo replacements for
//! the handful of external crates the workspace used to depend on:
//!
//! * [`rng`] — a deterministic, seedable PRNG (xoshiro256++ seeded via
//!   SplitMix64) replacing `rand` in tests, examples and benches;
//! * [`prop`] — a seeded property-testing harness (the [`prop_check!`]
//!   macro) replacing `proptest`: N random cases per property,
//!   shrink-free, with the failing case's seed and message reported so
//!   any counterexample is replayable;
//! * [`bench`](mod@bench) — a wall-clock benchmark harness (warmup + median-of-K,
//!   JSON-line output) replacing `criterion` for `benches/*`;
//! * [`json`] — a tiny JSON emitter (and matching parser) used by the
//!   hand-rolled `to_json()` methods that replaced the `serde` derives
//!   in `mem3d`, `layout` and `fpga-model`, and by tools (`simlint`)
//!   that consume the workspace's JSON-lines protocols;
//! * [`hash`] — a stable 64-bit FNV-1a content hasher (replacing
//!   unstable `std::hash` for the on-disk exploration cache keys).
//!
//! Everything here is deterministic by construction: the same seed
//! always produces the same stream, property cases derive their
//! per-case seeds from a fixed base seed, and no global state is
//! involved.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bench;
pub mod hash;
pub mod json;
pub mod prop;
pub mod rng;

pub use bench::BenchGroup;
pub use hash::StableHasher;
pub use rng::SimRng;
