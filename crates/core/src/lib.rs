//! 2D FFT on a 3D-memory-integrated FPGA — the paper's primary
//! contribution, assembled from the substrate crates.
//!
//! The row–column 2D FFT runs in two phases. Phase 1 (row-wise 1D FFTs)
//! streams beautifully under any layout; phase 2 (column-wise 1D FFTs)
//! is where architectures diverge:
//!
//! * the **baseline** ([`Architecture::Baseline`]) keeps the intermediate
//!   array row-major and strides through memory, paying a DRAM row
//!   activation per element — ~1% of peak bandwidth;
//! * the **optimized** architecture ([`Architecture::Optimized`]) has the
//!   permutation network reshape row-FFT results on the fly into `w × h`
//!   blocks (each one DRAM row, spread over all vaults), so the column
//!   phase consumes whole open rows from all vaults in parallel and runs
//!   at the *kernel's* bandwidth ceiling instead of the layout's.
//!
//! [`System`] couples the cycle-level memory simulator (`mem3d`), the
//! streaming kernel (`fft-kernel`), the layouts (`layout`) and the FPGA
//! cost model (`fpga-model`) into closed-loop phase simulations
//! ([`System::column_phase`], [`System::run_app`]) and a value-level
//! functional simulation ([`System::functional_2dfft`]) verified against
//! the mathematical reference.
//!
//! The phase driver ([`run_phase`]) is **pull-based**: it consumes lazy
//! [`mem3d::RequestSource`] streams (the `layout` crate's `*_stream`
//! generators, or a materialized `AccessTrace` via `.stream()`) rather
//! than pre-built traces, so simulating a phase costs O(prefetch window)
//! memory regardless of problem size — N = 8192 runs in a few MiB where
//! materializing the traces alone used to take O(N²). The equivalence is
//! property-tested: a phase driven from a stream reports byte-identically
//! to the same phase replayed from the collected trace.
//!
//! # Example
//!
//! ```
//! use fft2d::{improvement, Architecture, System};
//!
//! let sys = System::default();
//! let base = sys.column_phase(Architecture::Baseline, 512)?;
//! let opt = sys.column_phase(Architecture::Optimized, 512)?;
//! assert!(opt.throughput_gbps > 20.0 * base.throughput_gbps);
//! # Ok::<(), fft2d::Fft2dError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod cache;
mod energy;
mod error;
mod explore;
mod image;
mod phases;
mod processor;

pub use app::{
    improvement, AppResult, Architecture, BatchResult, ColumnPhaseResult, System, SystemConfig,
};
pub use cache::{CacheStats, ExploreCache, CACHE_VERSION};
pub use energy::{AppEnergyReport, PlatformEnergy};
pub use error::Fft2dError;
pub use explore::{pareto_front, DesignPoint, Exploration, ExploreFailure, SkipCounts};
pub use image::MemoryImage;
pub use phases::{
    run_phase, run_phase_in, DriverConfig, PendingBeat, PhaseReport, PhaseWorkspace,
    ResumablePhase, StepLimit,
};
pub use processor::ProcessorModel;
