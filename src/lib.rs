//! Umbrella crate for the reproduction of *"Optimal Dynamic Data Layouts
//! for 2D FFT on 3D Memory Integrated FPGA"* (Chen, Singapura, Prasanna,
//! 2015).
//!
//! This crate re-exports the workspace members and hosts the runnable
//! examples (`examples/`) and cross-crate integration tests (`tests/`).
//! The substance lives in the member crates:
//!
//! * [`mem3d`] — cycle-level 3D (HMC-like) memory simulator;
//! * [`permute`] — the FFT kernel's permutations and streaming permuter;
//! * [`fft_kernel`] — reference FFTs + the structural streaming kernel;
//! * [`layout`] — data layouts and the Eq. (1) optimizer;
//! * [`fpga_model`] — FPGA resource/frequency model;
//! * [`fft2d`] — the assembled baseline and optimized architectures.
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system
//! inventory and experiment index, and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fft2d;
pub use fft_kernel;
pub use fpga_model;
pub use layout;
pub use mem3d;
pub use permute;

/// The paper's evaluation sizes, re-exported for examples and tests.
pub const PAPER_SIZES: [usize; 3] = [512, 1024, 2048];

#[cfg(test)]
mod tests {
    #[test]
    fn members_are_linked() {
        // Touch one symbol from every member so the umbrella actually
        // builds against all of them.
        let _ = mem3d::Geometry::default();
        let _ = permute::Permutation::identity(4);
        let _ = fft_kernel::Cplx::ZERO;
        let _ = fpga_model::Resources::ZERO;
        let _ = fft2d::System::default();
        assert_eq!(super::PAPER_SIZES.len(), 3);
    }
}
