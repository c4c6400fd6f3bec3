//! The processor model: the FFT kernel plus its FPGA realisation.

use fft_kernel::{KernelConfig, KernelResources, StreamingFft};
use fpga_model::{build, Processor, ProcessorSpec, Resources};
use layout::{LayoutParams, ReorgCost};
use mem3d::Picos;

use crate::Fft2dError;

/// The instantiated 2D FFT processor of Fig. 3: a streaming 1D FFT
/// kernel, permutation networks, controlling unit and per-vault memory
/// controllers, costed on a concrete FPGA.
#[derive(Debug, Clone)]
pub struct ProcessorModel {
    kernel_cfg: KernelConfig,
    kernel_resources: KernelResources,
    fpga: Processor,
    vaults: usize,
}

impl ProcessorModel {
    /// Builds the processor for `n`-point 1D FFTs with `lanes` elements
    /// per cycle, accounting the reorganization buffer for block height
    /// `reorg_h` (0 for the baseline, which reorganizes nothing).
    ///
    /// # Errors
    ///
    /// Returns [`Fft2dError::Kernel`] if the kernel configuration is
    /// invalid.
    pub fn new(
        params: &LayoutParams,
        lanes: usize,
        reorg_h: usize,
        budget: &Resources,
    ) -> Result<Self, Fft2dError> {
        // A transform cannot consume more lanes than it has points;
        // tiny problems simply narrow the datapath.
        let lanes = lanes.min(params.n);
        let kernel_cfg = KernelConfig::forward(params.n, lanes);
        kernel_cfg.validate()?;
        let kernel_resources = kernel_cfg.resources();
        let reorg_buffer_bytes = if reorg_h == 0 {
            0
        } else {
            // Band buffer for the phase-1 reshaping (evaluated at the
            // nominal clock; the clock only affects the latency part of
            // the reorganization cost, not its size) ...
            let band = ReorgCost::evaluate(params, reorg_h, lanes, Picos(2_000))?.buffer_bytes;
            // ... plus the phase-2 staging buffer: the column phase
            // interleaves `w = s/h` column FFTs, holding their working
            // set (double-buffered) on chip.
            let w = (params.s / reorg_h).min(params.n) as u64;
            let group = 2 * w * params.n as u64 * params.elem_bytes as u64;
            band + group
        };
        let spec = ProcessorSpec {
            vaults: params.n_v,
            lanes,
            stages: kernel_resources.stages,
            complex_adders: kernel_resources.complex_adders,
            complex_multipliers: kernel_resources.complex_multipliers,
            rom_bytes: kernel_resources.rom_bytes as u64,
            kernel_buffer_bytes: (kernel_resources.buffer_words * 8) as u64,
            reorg_buffer_bytes,
        };
        let fpga = build(&spec, budget);
        Ok(ProcessorModel {
            kernel_cfg,
            kernel_resources,
            fpga,
            vaults: params.n_v,
        })
    }

    /// The kernel configuration (size, lanes, radix).
    pub fn kernel_config(&self) -> &KernelConfig {
        &self.kernel_cfg
    }

    /// The kernel's hardware inventory.
    pub fn kernel_resources(&self) -> &KernelResources {
        &self.kernel_resources
    }

    /// The costed FPGA realisation.
    pub fn fpga(&self) -> &Processor {
        &self.fpga
    }

    /// Number of vault controllers instantiated.
    pub fn vaults(&self) -> usize {
        self.vaults
    }

    /// Clock period at the achieved frequency.
    pub fn clock(&self) -> Picos {
        Picos(self.fpga.clock_period_ps())
    }

    /// Time the kernel needs to consume or produce one byte: the
    /// reciprocal of `lanes × 8 B` per cycle.
    pub fn ps_per_byte(&self) -> f64 {
        self.fpga.clock_period_ps() as f64 / (self.kernel_cfg.width as f64 * 8.0)
    }

    /// One-directional kernel bandwidth ceiling in GB/s.
    pub fn kernel_bandwidth_gbps(&self) -> f64 {
        self.fpga.kernel_bandwidth_gbps(self.kernel_cfg.width)
    }

    /// Kernel fill latency in wall-clock time.
    pub fn kernel_latency(&self) -> Picos {
        self.clock() * self.kernel_cfg.latency_cycles()
    }

    /// A fresh kernel instance for functional simulation.
    ///
    /// # Panics
    ///
    /// Never panics: the configuration was validated at construction.
    pub fn fresh_kernel(&self) -> StreamingFft {
        StreamingFft::new(self.kernel_cfg).expect("config validated at build")
    }

    /// A fresh kernel with the transform direction overridden (forward
    /// kernels and inverse kernels share the same structure; only the
    /// twiddle ROM contents and output scaling differ).
    ///
    /// # Errors
    ///
    /// Never fails in practice (the base configuration was validated at
    /// construction); the `Result` mirrors [`StreamingFft::new`].
    pub fn fresh_kernel_dir(
        &self,
        direction: fft_kernel::FftDirection,
    ) -> Result<StreamingFft, crate::Fft2dError> {
        Ok(StreamingFft::new(KernelConfig {
            direction,
            ..self.kernel_cfg
        })?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_model::resources::devices::VIRTEX7_690T;
    use mem3d::{Geometry, TimingParams};

    fn params(n: usize) -> LayoutParams {
        LayoutParams::for_device(n, &Geometry::default(), &TimingParams::default())
    }

    #[test]
    fn paper_configuration_reaches_32_gbps() {
        let p = params(512);
        let m = ProcessorModel::new(&p, 8, 64, &VIRTEX7_690T).unwrap();
        assert!((m.kernel_bandwidth_gbps() - 32.0).abs() < 0.5);
        assert_eq!(m.clock(), Picos(2_000));
        assert_eq!(m.vaults(), 16);
        assert!(m.kernel_latency() > Picos::ZERO);
        assert!((m.ps_per_byte() - 31.25).abs() < 1e-9);
    }

    #[test]
    fn larger_problems_cost_more_stages() {
        let m512 = ProcessorModel::new(&params(512), 8, 0, &VIRTEX7_690T).unwrap();
        let m2048 = ProcessorModel::new(&params(2048), 8, 0, &VIRTEX7_690T).unwrap();
        assert!(m2048.kernel_resources().stages > m512.kernel_resources().stages);
        assert!(m2048.fpga().resources.luts > m512.fpga().resources.luts);
    }

    #[test]
    fn invalid_kernel_config_is_reported() {
        // Exactly the configurations whose kernel cannot be built.
        for n in [0usize, 1, 2, 3, 12, 64, 500, 512, 2048] {
            for lanes in [0usize, 1, 3, 8, 64] {
                let mut p = params(512);
                p.n = n;
                let built = StreamingFft::new(KernelConfig::forward(n, lanes.min(n)));
                match ProcessorModel::new(&p, lanes, 0, &VIRTEX7_690T) {
                    Ok(_) => assert!(built.is_ok(), "n = {n}, lanes = {lanes}"),
                    Err(e) => {
                        assert!(matches!(e, Fft2dError::Kernel(_)), "{e:?}");
                        assert!(built.is_err(), "n = {n}, lanes = {lanes}");
                    }
                }
            }
        }
    }

    #[test]
    fn fresh_kernel_computes() {
        let m = ProcessorModel::new(&params(64), 8, 0, &VIRTEX7_690T).unwrap();
        let mut k = m.fresh_kernel();
        let x: Vec<_> = (0..64)
            .map(|i| fft_kernel::Cplx::new(i as f64, 0.0))
            .collect();
        let y = k.transform(&x).unwrap();
        assert_eq!(y.len(), 64);
    }
}
