//! Data layouts for 2D FFT on 3D memory — the paper's core mechanism.
//!
//! The row–column 2D FFT wants two contradictory things from memory:
//! phase 1 streams *rows*, phase 2 streams *columns*. Under the baseline
//! row-major layout the column phase re-activates a DRAM row on almost
//! every access and collapses to ~1% of peak bandwidth. The paper's
//! **dynamic data layout** (DDL) fixes this by writing phase-1 results
//! into `w × h` blocks — each exactly one DRAM row, column-major inside —
//! spread round-robin over vaults, so the column phase reads whole open
//! rows from many vaults in parallel.
//!
//! This crate provides:
//!
//! * [`MatrixLayout`] implementations: [`RowMajor`] (baseline),
//!   [`ColMajor`], [`Tiled`] (Akin et al., the paper's ref.\[2\]) and
//!   [`BlockDynamic`] (the DDL);
//! * lazy phase request-stream generators ([`row_phase_stream`],
//!   [`col_phase_stream`], plus the write-back and tile streams), all
//!   one segment stream: each walk is a sequence of `(base, count,
//!   stride)` segments whose size the layout states in O(1)
//!   ([`MatrixLayout::row_run`], [`MatrixLayout::row_stride`],
//!   [`MatrixLayout::group_block_addr`],
//!   [`MatrixLayout::row_block_addr`]), coalesced into bursts a
//!   contiguous chunk at a time under the controller's element-level
//!   merge rule — O(1) memory per phase and no per-element address
//!   walk; [`RequestSource::collect_trace`](mem3d::RequestSource::collect_trace)
//!   materializes a stream for small problems and golden tests;
//! * the Eq. (1) block-height optimizer ([`optimal_h`]) and a
//!   simulator-driven exhaustive search ([`search_optimal_h`]) that
//!   validates it;
//! * the reorganization-overhead model ([`ReorgCost`]).
//!
//! # Example
//!
//! ```
//! use layout::{optimal_h, BlockDynamic, LayoutParams};
//! use mem3d::{Geometry, TimingParams};
//!
//! let params = LayoutParams::for_device(1024, &Geometry::default(), &TimingParams::default());
//! let h = optimal_h(&params);
//! let ddl = BlockDynamic::with_height(&params, h).unwrap();
//! assert_eq!(ddl.w * ddl.h, params.s, "one block fills one DRAM row");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod burst;
mod ddl;
mod error;
mod family;
mod irredundant;
mod matrix;
mod params;
mod reorg;
mod trace;

pub use burst::BurstInterleaved;
pub use ddl::{
    measure_height, optimal_h, optimal_h_bounded, regime, search_optimal_h, HeightMeasurement,
    Regime,
};
pub use error::LayoutError;
pub use family::{
    enumerate_candidates, BlockDynamicFamily, ColMajorFamily, FamilyId, FamilySpec, LayoutFamily,
    RowMajorFamily, TiledFamily,
};
pub use irredundant::Irredundant;
pub use matrix::{Axis, BlockDynamic, ColMajor, MatrixLayout, RowMajor, Tiled};
pub use params::LayoutParams;
pub use reorg::ReorgCost;
pub use trace::{
    band_block_write_stream, block_write_stream, col_phase_stream, row_phase_stream,
    tile_band_write_stream, tile_sweep_stream, MAX_BURST_BYTES,
};
