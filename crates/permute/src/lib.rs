//! Permutation machinery for streaming FFT datapaths.
//!
//! The optimized 2D FFT architecture of "Optimal Dynamic Data Layouts for
//! 2D FFT on 3D Memory Integrated FPGA" permutes data in two places:
//! between butterfly stages inside the 1D FFT kernel, and while reshaping
//! row-FFT results into the block dynamic data layout before they are
//! written back to the 3D memory. This crate models the first
//! functionally; the second is costed in closed form by
//! `layout::ReorgCost` (band buffer, fill latency, reconfigurations).
//!
//! * [`Permutation`] — finite permutations with the FFT-relevant families
//!   (stride `L^n_s`, bit reversal, block transposition);
//! * [`StreamingPermuter`] — sustained `p`-per-cycle permutation of a
//!   data stream with double-buffered frames, the engine behind the
//!   kernel's data-path permutation (DPP) units.
//!
//! # Example
//!
//! ```
//! use permute::{Permutation, StreamingPermuter};
//!
//! // Transpose a 4 × 4 block streamed row by row on a 4-lane datapath:
//! // after one frame of fill latency, the columns come out as rows.
//! let perm = Permutation::transpose(4, 4).unwrap();
//! let mut sp = StreamingPermuter::new(perm.clone(), 4).unwrap();
//! let data: Vec<u32> = (0..16).collect();
//! let mut out = Vec::new();
//! for row in data.chunks(4) {
//!     out.extend(sp.push(row).unwrap());
//! }
//! out.extend(sp.flush());
//! assert_eq!(out, perm.apply(&data));
//! assert_eq!(&out[..4], &[0, 4, 8, 12]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod perm;
mod streaming;

pub use perm::{Permutation, PermutationError};
pub use streaming::{StreamError, StreamingPermuter};
