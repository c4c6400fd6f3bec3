//! The structural streaming 1D FFT kernel.
//!
//! An N-point kernel is a pipeline of butterfly stages — each a frame
//! buffer feeding radix blocks ([`crate::Radix2Block`] /
//! [`crate::Radix4Block`]) and a TFC unit ([`crate::TfcUnit`]) — followed
//! by a final unscrambling permutation that restores natural order.
//! The kernel accepts `width` complex elements per cycle, sustains that
//! rate indefinitely across back-to-back frames, and has the fill latency
//! given by [`KernelConfig::latency_cycles`].
//!
//! The hardware cost of a kernel — stage count, adders, multipliers,
//! twiddle ROM and fill latency — is a closed-form function of its
//! [`KernelConfig`] ([`KernelConfig::resources`],
//! [`KernelConfig::latency_cycles`]), so costing a processor builds no
//! kernel. [`StreamingFft::resources`] and [`StreamingFft::latency_cycles`]
//! read the same figures off the built stages; they are the reference
//! the closed forms are tested against.
//!
//! Stages use decimation in frequency, so inputs arrive in natural order
//! (exactly how the memory system streams them) and only the final output
//! needs digit reversal.

use permute::Permutation;

use crate::{Cplx, FftDirection, KernelError, Radix, Radix2Block, Radix4Block, TfcUnit};

/// Extra pipeline registers per frame stage — each butterfly stage and
/// the unscrambler (adder and multiplier latency), counted into
/// [`KernelConfig::latency_cycles`].
pub const ARITH_PIPELINE_CYCLES: u64 = 8;

/// Configuration of a [`StreamingFft`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelConfig {
    /// Transform size (power of two; power of four for radix-4).
    pub n: usize,
    /// Complex elements consumed and produced per cycle.
    pub width: usize,
    /// Butterfly radix.
    pub radix: Radix,
    /// Transform direction.
    pub direction: FftDirection,
}

impl KernelConfig {
    /// A forward radix-4 kernel when possible, radix-2 otherwise, with
    /// the given stream width — the configuration the paper's processor
    /// uses.
    pub fn forward(n: usize, width: usize) -> Self {
        let radix = if Radix::R4.supports(n) {
            Radix::R4
        } else {
            Radix::R2
        };
        KernelConfig {
            n,
            width,
            radix,
            direction: FftDirection::Forward,
        }
    }

    /// Number of butterfly stages.
    pub fn stages(&self) -> usize {
        let r_bits = self.radix.arity().trailing_zeros() as usize;
        (self.n.trailing_zeros() as usize) / r_bits
    }

    /// Validates size/width/radix compatibility.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] when `n` is unsupported by the radix, or
    /// `width` is zero, not a power of two, or larger than `n`.
    pub fn validate(&self) -> Result<(), KernelError> {
        if !self.radix.supports(self.n) {
            return Err(KernelError::UnsupportedSize {
                n: self.n,
                radix: self.radix,
            });
        }
        if self.width == 0 || !self.width.is_power_of_two() || self.width > self.n {
            return Err(KernelError::BadWidth {
                n: self.n,
                width: self.width,
            });
        }
        Ok(())
    }

    /// Hardware inventory of the kernel this configuration builds, in
    /// closed form: per butterfly stage `max(width/r, 1)` radix blocks
    /// and `max(width - width/r, 1)` complex multipliers, a twiddle ROM
    /// of `max(block/2, 1)` (radix-2) or `max(3·block/4, 1)` (radix-4)
    /// words for the stage's block `n / r^s`, and a double-buffered
    /// frame per stage and for the unscrambler.
    ///
    /// Meaningful for a configuration that passes
    /// [`validate`](Self::validate); equal to [`StreamingFft::resources`]
    /// of the built kernel.
    pub fn resources(&self) -> KernelResources {
        let p = self.width;
        let r = self.radix.arity();
        let stages = self.stages();
        let blocks = (p / r).max(1);
        let r_bits = r.trailing_zeros();
        let rom_words: usize = (0..stages as u32)
            .map(|s| {
                let block = self.n >> (s * r_bits);
                match self.radix {
                    Radix::R2 => block / 2,
                    Radix::R4 => block / 4 * 3,
                }
                .max(1)
            })
            .sum();
        KernelResources {
            stages,
            radix_blocks: stages * blocks,
            complex_adders: stages * blocks * self.radix.complex_adders(),
            complex_multipliers: stages * (p - p / r).max(1),
            rom_bytes: rom_words.saturating_mul(Cplx::STORAGE_BYTES as usize),
            buffer_words: self.n.saturating_mul(2).saturating_mul(stages + 1),
        }
    }

    /// Fill latency in cycles, from the first input to the first output:
    ///
    /// `(stages + 1) · (n / width + ARITH_PIPELINE_CYCLES)`
    ///
    /// — one frame of `n / width` cycles plus [`ARITH_PIPELINE_CYCLES`]
    /// for every butterfly stage and for the final unscrambler.
    ///
    /// Meaningful for a configuration that passes
    /// [`validate`](Self::validate); equal to
    /// [`StreamingFft::latency_cycles`] of the built kernel.
    pub fn latency_cycles(&self) -> u64 {
        let frames = self.stages() as u64 + 1;
        let frame = (self.n / self.width.max(1)) as u64;
        frames.saturating_mul(frame.saturating_add(ARITH_PIPELINE_CYCLES))
    }
}

/// What one stage does to a completed frame.
#[derive(Debug, Clone)]
enum StageOp {
    /// Radix-2 DIF butterflies over blocks of `2 * half`.
    Radix2 { half: usize, tfc: TfcUnit },
    /// Radix-4 DIF butterflies over blocks of `4 * quarter`.
    Radix4 {
        quarter: usize,
        tfc: TfcUnit,
        dir: FftDirection,
    },
    /// Final digit-reversal unscrambling.
    Unscramble(Permutation),
}

impl StageOp {
    fn apply(&mut self, frame: &mut [Cplx]) {
        match self {
            StageOp::Radix2 { half, tfc } => {
                let block = 2 * *half;
                for chunk in frame.chunks_mut(block) {
                    for j in 0..*half {
                        let (u, v) = Radix2Block::butterfly(chunk[j], chunk[j + *half]);
                        chunk[j] = u;
                        chunk[j + *half] = tfc.apply(v, j);
                    }
                }
            }
            StageOp::Radix4 { quarter, tfc, dir } => {
                let q = *quarter;
                let block = 4 * q;
                for chunk in frame.chunks_mut(block) {
                    for j in 0..q {
                        let z = Radix4Block::butterfly_dir(
                            chunk[j],
                            chunk[j + q],
                            chunk[j + 2 * q],
                            chunk[j + 3 * q],
                            *dir,
                        );
                        chunk[j] = z[0];
                        chunk[j + q] = tfc.apply(z[1], j);
                        chunk[j + 2 * q] = tfc.apply(z[2], 2 * j);
                        chunk[j + 3 * q] = tfc.apply(z[3], 3 * j);
                    }
                }
            }
            StageOp::Unscramble(perm) => perm.apply_in_place(frame),
        }
    }
}

/// One pipeline stage: a double-buffered frame unit applying a
/// [`StageOp`] when its frame completes.
#[derive(Debug, Clone)]
struct FrameStage {
    op: StageOp,
    width: usize,
    fill: Vec<Cplx>,
    fill_count: usize,
    drain: Vec<Cplx>,
    drain_pos: usize,
}

impl FrameStage {
    fn new(op: StageOp, n: usize, width: usize) -> Self {
        FrameStage {
            op,
            width,
            fill: vec![Cplx::ZERO; n],
            fill_count: 0,
            drain: Vec::new(),
            drain_pos: 0,
        }
    }

    fn push(&mut self, chunk: &[Cplx]) -> Vec<Cplx> {
        debug_assert_eq!(chunk.len(), self.width);
        self.fill[self.fill_count..self.fill_count + chunk.len()].copy_from_slice(chunk);
        self.fill_count += chunk.len();
        if self.fill_count == self.fill.len() {
            debug_assert!(
                self.drain_pos == self.drain.len(),
                "previous frame drained before the next completes"
            );
            self.op.apply(&mut self.fill);
            std::mem::swap(&mut self.drain, &mut self.fill);
            self.fill_count = 0;
            self.drain_pos = 0;
            if self.fill.len() != self.drain.len() {
                self.fill = vec![Cplx::ZERO; self.drain.len()];
            }
        }
        self.pop()
    }

    fn pop(&mut self) -> Vec<Cplx> {
        if self.drain_pos >= self.drain.len() {
            return Vec::new();
        }
        let end = (self.drain_pos + self.width).min(self.drain.len());
        let out = self.drain[self.drain_pos..end].to_vec();
        self.drain_pos = end;
        out
    }

    /// Remaining buffered output (complete frames only).
    fn drain_rest(&mut self) -> Vec<Cplx> {
        let mut out = Vec::new();
        loop {
            let chunk = self.pop();
            if chunk.is_empty() {
                break;
            }
            out.extend(chunk);
        }
        out
    }
}

/// A cycle-driven streaming N-point FFT kernel.
///
/// # Example
///
/// ```
/// use fft_kernel::{fft, Cplx, FftDirection, KernelConfig, StreamingFft};
///
/// let cfg = KernelConfig::forward(16, 4);
/// let mut kernel = StreamingFft::new(cfg).unwrap();
/// let input: Vec<Cplx> = (0..16).map(|i| Cplx::new(i as f64, 0.0)).collect();
/// let out = kernel.transform(&input).unwrap();
/// let expected = fft(&input, FftDirection::Forward).unwrap();
/// assert!(fft_kernel::max_abs_diff(&out, &expected) < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingFft {
    cfg: KernelConfig,
    stages: Vec<FrameStage>,
    cycles: u64,
    scale: f64,
}

impl StreamingFft {
    /// Builds the stage pipeline for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] if the configuration is invalid.
    pub fn new(cfg: KernelConfig) -> Result<Self, KernelError> {
        cfg.validate()?;
        let n = cfg.n;
        let r = cfg.radix.arity();
        let mut stages = Vec::with_capacity(cfg.stages() + 1);
        for s in 0..cfg.stages() {
            let block = n / r.pow(s as u32);
            let tfc = TfcUnit::for_stage(n, s, cfg.radix, cfg.direction);
            let op = match cfg.radix {
                Radix::R2 => StageOp::Radix2 {
                    half: block / 2,
                    tfc,
                },
                Radix::R4 => StageOp::Radix4 {
                    quarter: block / 4,
                    tfc,
                    dir: cfg.direction,
                },
            };
            stages.push(FrameStage::new(op, n, cfg.width));
        }
        stages.push(FrameStage::new(
            StageOp::Unscramble(digit_reversal(n, r)?),
            n,
            cfg.width,
        ));
        let scale = match cfg.direction {
            FftDirection::Forward => 1.0,
            FftDirection::Inverse => 1.0 / n as f64,
        };
        Ok(StreamingFft {
            cfg,
            stages,
            cycles: 0,
            scale,
        })
    }

    /// The kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// Cycles elapsed (one per [`push`](StreamingFft::push)).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Fill latency counted over the built frame stages; the reference
    /// for [`KernelConfig::latency_cycles`], which gives the formula.
    pub fn latency_cycles(&self) -> u64 {
        let frames = self.stages.len() as u64;
        frames * (self.cfg.n / self.cfg.width) as u64 + frames * ARITH_PIPELINE_CYCLES
    }

    /// Pushes one cycle of `width` elements; returns the `width` elements
    /// (scaled, natural order) leaving the kernel this cycle, or an empty
    /// vector while the pipeline fills.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::BadWidth`] if `chunk` has the wrong length.
    pub fn push(&mut self, chunk: &[Cplx]) -> Result<Vec<Cplx>, KernelError> {
        if chunk.len() != self.cfg.width {
            return Err(KernelError::BadWidth {
                n: self.cfg.n,
                width: chunk.len(),
            });
        }
        self.cycles += 1;
        let mut data = chunk.to_vec();
        for stage in &mut self.stages {
            if data.is_empty() {
                return Ok(data);
            }
            data = stage.push(&data);
        }
        self.apply_scale(&mut data);
        Ok(data)
    }

    /// Drains all in-flight frames after the input stream ends.
    pub fn flush(&mut self) -> Vec<Cplx> {
        let width = self.cfg.width;
        let mut carry: Vec<Cplx> = Vec::new();
        for i in 0..self.stages.len() {
            let mut emitted = Vec::new();
            for chunk in carry.chunks(width) {
                self.cycles += 1;
                emitted.extend(self.stages[i].push(chunk));
            }
            emitted.extend(self.stages[i].drain_rest());
            carry = emitted;
        }
        self.apply_scale(&mut carry);
        carry
    }

    /// One-shot convenience: streams a whole frame through a kernel that
    /// must be idle, returning the transform in natural order.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::ShapeMismatch`] if `frame` is not exactly
    /// `n` elements, or [`KernelError::NotIdle`] if earlier pushes left
    /// data in flight.
    pub fn transform(&mut self, frame: &[Cplx]) -> Result<Vec<Cplx>, KernelError> {
        if frame.len() != self.cfg.n {
            return Err(KernelError::ShapeMismatch {
                expected: self.cfg.n,
                got: frame.len(),
            });
        }
        let mut out = Vec::with_capacity(self.cfg.n);
        for chunk in frame.chunks(self.cfg.width) {
            out.extend(self.push(chunk)?);
        }
        out.extend(self.flush());
        if out.len() != self.cfg.n {
            return Err(KernelError::NotIdle {
                in_flight: out.len().abs_diff(self.cfg.n),
            });
        }
        Ok(out)
    }

    /// Hardware inventory summed over the built stages; the reference
    /// for [`KernelConfig::resources`].
    pub fn resources(&self) -> KernelResources {
        let p = self.cfg.width;
        let mut res = KernelResources::default();
        for stage in &self.stages {
            // Every stage, the unscrambler included, double-buffers one
            // frame.
            res.buffer_words += 2 * stage.fill.len();
            let (radix, tfc) = match &stage.op {
                StageOp::Radix2 { tfc, .. } => (Radix::R2, tfc),
                StageOp::Radix4 { tfc, .. } => (Radix::R4, tfc),
                StageOp::Unscramble(_) => continue,
            };
            let blocks = (p / radix.arity()).max(1);
            res.stages += 1;
            res.radix_blocks += blocks;
            res.complex_adders += blocks * radix.complex_adders();
            res.complex_multipliers += (p - p / radix.arity()).max(1);
            res.rom_bytes += tfc.rom_bytes();
        }
        res
    }

    /// Total real multiplications performed so far by all TFC units.
    pub fn real_mults(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| match &s.op {
                StageOp::Radix2 { tfc, .. } | StageOp::Radix4 { tfc, .. } => tfc.real_mults(),
                StageOp::Unscramble(_) => 0,
            })
            .sum()
    }

    fn apply_scale(&self, data: &mut [Cplx]) {
        if self.scale != 1.0 {
            for v in data {
                *v = v.scale(self.scale);
            }
        }
    }
}

/// Hardware inventory of one kernel instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelResources {
    /// Butterfly stages.
    pub stages: usize,
    /// Radix blocks across all stages.
    pub radix_blocks: usize,
    /// Complex adders/subtractors.
    pub complex_adders: usize,
    /// Complex multipliers (each = 4 real multipliers + 2 adders).
    pub complex_multipliers: usize,
    /// Twiddle ROM bytes.
    pub rom_bytes: usize,
    /// Data buffer words (64-bit complex words).
    pub buffer_words: usize,
}

/// Base-`r` digit-reversal permutation on `n` points (`r` a power of two
/// dividing the digit structure of `n`). For `r = 2` this is bit
/// reversal.
///
/// # Errors
///
/// Returns [`KernelError::UnsupportedSize`] unless `n` is a power of `r`.
pub fn digit_reversal(n: usize, r: usize) -> Result<Permutation, KernelError> {
    if n == 0 || r < 2 || !n.is_power_of_two() || !r.is_power_of_two() {
        return Err(KernelError::NotPowerOfTwo { n });
    }
    let r_bits = r.trailing_zeros() as usize;
    let n_bits = n.trailing_zeros() as usize;
    if !n_bits.is_multiple_of(r_bits) {
        return Err(KernelError::UnsupportedSize {
            n,
            radix: if r == 4 { Radix::R4 } else { Radix::R2 },
        });
    }
    let digits = n_bits / r_bits;
    let mask = r - 1;
    let map = (0..n)
        .map(|i| {
            let mut x = i;
            let mut out = 0usize;
            for _ in 0..digits {
                out = (out << r_bits) | (x & mask);
                x >>= r_bits;
            }
            out
        })
        .collect();
    Ok(Permutation::from_map(map).expect("digit reversal is a bijection"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fft, max_abs_diff, naive_dft};
    use sim_util::{prop_assert, prop_check, SimRng};

    fn random_signal(n: usize, seed: u64) -> Vec<Cplx> {
        SimRng::seed_from_u64(seed).gen_complex_vec(n, -1.0..1.0, Cplx::new)
    }

    #[test]
    fn digit_reversal_base2_is_bit_reversal() {
        let d = digit_reversal(16, 2).unwrap();
        let b = Permutation::bit_reversal(16).unwrap();
        assert_eq!(d, b);
    }

    #[test]
    fn digit_reversal_base4_involutes() {
        let d = digit_reversal(64, 4).unwrap();
        assert!(d.then(&d).is_identity());
        assert!(digit_reversal(32, 4).is_err());
        assert!(digit_reversal(0, 2).is_err());
        assert!(digit_reversal(16, 3).is_err());
    }

    #[test]
    fn kernel_matches_naive_dft_small() {
        for n in [2usize, 4, 8, 16, 32] {
            let cfg = KernelConfig {
                n,
                width: 2.min(n),
                radix: Radix::R2,
                direction: FftDirection::Forward,
            };
            let mut k = StreamingFft::new(cfg).unwrap();
            let x = random_signal(n, n as u64);
            let out = k.transform(&x).unwrap();
            let expect = naive_dft(&x, FftDirection::Forward);
            assert!(max_abs_diff(&out, &expect) < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn radix4_matches_radix2() {
        for n in [4usize, 16, 64, 256] {
            let x = random_signal(n, 99);
            let mut k2 = StreamingFft::new(KernelConfig {
                n,
                width: 4,
                radix: Radix::R2,
                direction: FftDirection::Forward,
            })
            .unwrap();
            let mut k4 = StreamingFft::new(KernelConfig {
                n,
                width: 4,
                radix: Radix::R4,
                direction: FftDirection::Forward,
            })
            .unwrap();
            let a = k2.transform(&x).unwrap();
            let b = k4.transform(&x).unwrap();
            assert!(max_abs_diff(&a, &b) < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn kernel_matches_reference_large() {
        let n = 2048;
        let cfg = KernelConfig::forward(n, 8);
        assert_eq!(cfg.radix, Radix::R2, "2048 is not a power of 4");
        let mut k = StreamingFft::new(cfg).unwrap();
        let x = random_signal(n, 5);
        let out = k.transform(&x).unwrap();
        let expect = fft(&x, FftDirection::Forward).unwrap();
        assert!(max_abs_diff(&out, &expect) < 1e-8);
    }

    #[test]
    fn inverse_kernel_round_trips() {
        let n = 256;
        let x = random_signal(n, 11);
        let mut fwd = StreamingFft::new(KernelConfig::forward(n, 8)).unwrap();
        let y = fwd.transform(&x).unwrap();
        let mut inv = StreamingFft::new(KernelConfig {
            direction: FftDirection::Inverse,
            ..KernelConfig::forward(n, 8)
        })
        .unwrap();
        let back = inv.transform(&y).unwrap();
        assert!(max_abs_diff(&x, &back) < 1e-9);
    }

    #[test]
    fn back_to_back_frames_stream_correctly() {
        let n = 64;
        let frames = 4;
        let cfg = KernelConfig::forward(n, 8);
        let mut k = StreamingFft::new(cfg).unwrap();
        let data = random_signal(n * frames, 21);
        let mut out = Vec::new();
        for chunk in data.chunks(8) {
            out.extend(k.push(chunk).unwrap());
        }
        out.extend(k.flush());
        assert_eq!(out.len(), n * frames);
        for f in 0..frames {
            let expect = fft(&data[f * n..(f + 1) * n], FftDirection::Forward).unwrap();
            assert!(
                max_abs_diff(&out[f * n..(f + 1) * n], &expect) < 1e-9,
                "frame {f}"
            );
        }
    }

    #[test]
    fn latency_and_cycle_accounting() {
        let cfg = KernelConfig::forward(64, 8);
        let mut k = StreamingFft::new(cfg).unwrap();
        // Radix-4: 3 stages + unscramble = 4 frames of 8 cycles each.
        assert_eq!(k.latency_cycles(), 4 * 8 + 4 * ARITH_PIPELINE_CYCLES);
        assert_eq!(cfg.latency_cycles(), k.latency_cycles());
        let x = random_signal(64, 1);
        k.transform(&x).unwrap();
        assert!(k.cycles() >= 8, "at least one frame of pushes");
        assert!(k.real_mults() > 0);
    }

    #[test]
    fn resources_scale_with_stages() {
        let k8 = StreamingFft::new(KernelConfig::forward(256, 8)).unwrap();
        let r = k8.resources();
        assert_eq!(r.stages, 4); // 256 = 4^4
        assert_eq!(r.radix_blocks, 4 * 2); // width 8 / arity 4 = 2 per stage
        assert!(r.complex_adders > 0);
        assert!(r.complex_multipliers > 0);
        assert!(r.rom_bytes > 0);
        assert_eq!(r.buffer_words, 5 * 2 * 256);
    }

    #[test]
    fn closed_form_costs_match_the_built_kernel() {
        let widths = [0usize, 1, 3, 2, 4, 8, 16, 32, 64];
        let mut valid = 0;
        for log_n in 0..=14 {
            let n = 1usize << log_n;
            for width in widths {
                for radix in [Radix::R2, Radix::R4] {
                    for direction in [FftDirection::Forward, FftDirection::Inverse] {
                        let cfg = KernelConfig {
                            n,
                            width,
                            radix,
                            direction,
                        };
                        let built = StreamingFft::new(cfg);
                        assert_eq!(cfg.validate().is_ok(), built.is_ok(), "{cfg:?}");
                        let Ok(k) = built else { continue };
                        assert_eq!(cfg.resources(), k.resources(), "{cfg:?}");
                        assert_eq!(cfg.latency_cycles(), k.latency_cycles(), "{cfg:?}");
                        valid += 1;
                    }
                }
            }
        }
        assert!(valid > 200, "only {valid} valid configurations checked");
    }

    #[test]
    fn config_validation() {
        assert!(StreamingFft::new(KernelConfig {
            n: 12,
            width: 4,
            radix: Radix::R2,
            direction: FftDirection::Forward
        })
        .is_err());
        assert!(StreamingFft::new(KernelConfig {
            n: 16,
            width: 3,
            radix: Radix::R2,
            direction: FftDirection::Forward
        })
        .is_err());
        assert!(StreamingFft::new(KernelConfig {
            n: 16,
            width: 32,
            radix: Radix::R2,
            direction: FftDirection::Forward
        })
        .is_err());
        let mut k = StreamingFft::new(KernelConfig::forward(16, 4)).unwrap();
        assert!(k.push(&[Cplx::ZERO; 3]).is_err());
        assert!(k.transform(&[Cplx::ZERO; 5]).is_err());
    }

    #[test]
    fn kernel_equals_reference() {
        prop_check!(|rng| {
            let kexp = rng.gen_range(1usize..9);
            let wexp = rng.gen_range(0usize..4);
            let n = 1usize << kexp;
            let width = 1usize << wexp.min(kexp);
            let cfg = KernelConfig::forward(n, width);
            let mut k = StreamingFft::new(cfg).unwrap();
            let x: Vec<Cplx> = rng.gen_complex_vec(n, -1.0..1.0, Cplx::new);
            let out = k.transform(&x).unwrap();
            let expect = fft(&x, FftDirection::Forward).unwrap();
            prop_assert!(
                max_abs_diff(&out, &expect) < 1e-8,
                "n = {n}, width = {width}"
            );
        });
    }
}
