//! Per-tenant job recipes: the layouts, processor models and driver
//! configurations each tenant's jobs run with.
//!
//! The recipes here mirror `fft2d::System::column_phase` and
//! `fft2d::System::run_app` **exactly** — each entry's layout family
//! comes from the same [`fft2d::System::intermediate_family`] recipe,
//! so streams, driver knobs and write delays are shared by
//! construction. The equivalence suite pins this: a single-tenant
//! service run must be bit-identical to the direct `run_phase` calls,
//! so any drift between the two recipe sets is a test failure, not a
//! silent divergence.

use fft2d::{DriverConfig, ProcessorModel, ResumablePhase, System, SystemConfig};
use layout::{row_phase_stream, LayoutFamily, LayoutParams, MatrixLayout, ReorgCost, RowMajor};
use mem3d::{Direction, MemorySystem, Picos, RequestSource};

use crate::{JobShape, OffsetSource, TenancyError, TenantSpec};

/// An open phase of one tenant job: its streams, rebased into the
/// tenant's arena, borrow their layouts from the [`SpecBook`].
pub(crate) type JobPhase<'b> = ResumablePhase<OffsetSource<Box<dyn RequestSource + 'b>>>;

/// One tenant's prepared runtime: everything needed to open a phase of
/// one of its jobs against the shared memory system.
struct Entry {
    shape: JobShape,
    /// Row-major layout on the contiguous (chunked) map — the
    /// baseline's input array.
    row: RowMajor,
    /// Row-major layout on the vault-interleaved map — the input array
    /// of every family that reorganizes.
    inter: RowMajor,
    /// The architecture's intermediate layout family; provides the
    /// column-phase and write-back streams and the address map.
    family: Box<dyn LayoutFamily>,
    proc: ProcessorModel,
    /// Phase-1 write delay (kernel latency, plus reorganization fill
    /// for the reshaping families).
    write_delay1: Picos,
    /// One column of the matrix in bytes — the phase-2 latency probe.
    col_bytes: u64,
    /// Flat bytes of address space one matrix occupies.
    footprint: u64,
}

/// The prepared scenario: per-tenant recipes plus the assigned arena
/// base addresses. Lives for the whole service run; open phases borrow
/// their layouts from it.
pub(crate) struct SpecBook {
    window_bytes: u64,
    entries: Vec<Entry>,
    bases: Vec<u64>,
}

impl SpecBook {
    /// Prepares every tenant's recipe and assigns disjoint arenas.
    pub(crate) fn build(
        platform: &SystemConfig,
        tenants: &[TenantSpec],
    ) -> Result<SpecBook, TenancyError> {
        let mut entries = Vec::with_capacity(tenants.len());
        for t in tenants {
            entries.push(Entry::build(platform, t)?);
        }
        // Arena assignment: explicit bases win; the rest are packed in
        // tenant order after the largest explicit arena, aligned so no
        // DRAM row (or bank set, under the chunked map) is shared
        // between tenants. Tenant 0 defaults to address 0 so the
        // degenerate single-tenant run matches the unoffset direct run.
        let geom = &platform.geometry;
        let align = (geom.row_bytes as u64)
            .saturating_mul(geom.banks_per_layer as u64)
            .saturating_mul(geom.layers as u64)
            .max(1);
        let round_up = |v: u64| v.div_ceil(align) * align;
        let mut bases = vec![0u64; tenants.len()];
        let mut cursor = 0u64;
        for (i, t) in tenants.iter().enumerate() {
            if let Some(b) = t.base_offset {
                bases[i] = b;
                cursor = cursor.max(round_up(b + entries[i].footprint));
            }
        }
        for (i, t) in tenants.iter().enumerate() {
            if t.base_offset.is_none() {
                bases[i] = cursor;
                cursor = round_up(cursor + entries[i].footprint);
            }
        }
        let capacity = geom.capacity_bytes();
        for (i, t) in tenants.iter().enumerate() {
            let end = bases[i] + entries[i].footprint;
            if end > capacity {
                return Err(TenancyError::Config(format!(
                    "tenant {i} ({}) arena [{}, {end}) exceeds the {capacity}-byte device",
                    t.name, bases[i]
                )));
            }
        }
        Ok(SpecBook {
            window_bytes: platform.window_bytes,
            entries,
            bases,
        })
    }

    /// The flat base address of tenant `t`'s arena.
    pub(crate) fn base(&self, t: usize) -> u64 {
        self.bases.get(t).copied().unwrap_or(0)
    }

    /// Phases a job of tenant `t` runs through.
    pub(crate) fn phases(&self, t: usize) -> usize {
        self.entries.get(t).map_or(0, |e| e.shape.phases())
    }

    fn driver(&self, e: &Entry, write_delay: Picos, probe: u64) -> DriverConfig {
        DriverConfig {
            ps_per_byte: e.proc.ps_per_byte(),
            window_bytes: self.window_bytes,
            write_delay,
            latency_probe_bytes: probe,
        }
    }

    /// Opens phase `phase` of one of tenant `t`'s jobs at `start`,
    /// rebased into the tenant's arena. The stream/layout/driver
    /// combinations replicate `System::column_phase` / `run_app`
    /// exactly (see module docs) — and since every stream comes from
    /// the entry's [`LayoutFamily`], the match is per *phase shape*,
    /// not per architecture.
    pub(crate) fn open_phase(
        &self,
        mem: &MemorySystem,
        t: usize,
        phase: usize,
        start: Picos,
    ) -> Result<JobPhase<'_>, TenancyError> {
        let Some(e) = self.entries.get(t) else {
            return Err(TenancyError::Config(format!("unknown tenant {t}")));
        };
        let base = self.base(t);
        let opened = match (e.shape, phase) {
            // The column phase: Table 1's unit of work (probe-less) and
            // the application's phase 2 (latency-probed on the first
            // column).
            (JobShape::Column, 0) | (JobShape::App, 1) => {
                let probe = if e.shape == JobShape::App {
                    e.col_bytes
                } else {
                    0
                };
                JobPhase::new(
                    mem,
                    &self.driver(e, Picos::ZERO, probe),
                    OffsetSource::new(e.family.col_stream(Direction::Read), base),
                    e.family.map_kind(),
                    None,
                    start,
                )?
            }
            // The application's row phase: reads the input array,
            // writes the intermediate array through the family's
            // write-back stream.
            (JobShape::App, 0) => {
                let input: &RowMajor = if e.family.reorg_rows() > 0 {
                    &e.inter
                } else {
                    &e.row
                };
                JobPhase::new(
                    mem,
                    &self.driver(e, e.write_delay1, 0),
                    OffsetSource::new(Box::new(row_phase_stream(input, Direction::Read)), base),
                    input.map_kind(),
                    Some((
                        OffsetSource::new(e.family.write_stream(), base),
                        e.family.map_kind(),
                    )),
                    start,
                )?
            }
            (shape, p) => {
                return Err(TenancyError::Config(format!(
                    "phase {p} out of range for a {} job",
                    shape.name()
                )))
            }
        };
        Ok(opened)
    }
}

impl Entry {
    fn build(platform: &SystemConfig, t: &TenantSpec) -> Result<Entry, TenancyError> {
        let n = t.job.n;
        let params = LayoutParams::for_device(n, &platform.geometry, &platform.timing);
        let row = RowMajor::new(&params);
        let inter = RowMajor::interleaved(&params);
        // The one shared recipe: the same System the direct runs use
        // picks the family, so tenancy can never drift from it.
        let family = System::new(*platform).intermediate_family(t.job.arch, n)?;
        let reorg_h = family.reorg_rows();
        let proc = ProcessorModel::new(&params, platform.lanes, reorg_h, &platform.budget)?;
        let write_delay1 = if reorg_h > 0 {
            let reorg = ReorgCost::evaluate(&params, reorg_h, platform.lanes, proc.clock());
            proc.kernel_latency() + reorg.fill_latency
        } else {
            proc.kernel_latency()
        };
        let footprint = (n as u64) * (n as u64) * params.elem_bytes as u64;
        Ok(Entry {
            shape: t.job.shape,
            row,
            inter,
            family,
            proc,
            write_delay1,
            col_bytes: (n * params.elem_bytes) as u64,
            footprint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arrivals, JobSpec, Traffic};
    use fft2d::Architecture;

    fn tenant(arch: Architecture, n: usize, shape: JobShape) -> TenantSpec {
        TenantSpec::new(
            "t",
            JobSpec { arch, n, shape },
            Traffic::Open {
                arrivals: Arrivals::Immediate,
                jobs: 1,
            },
        )
    }

    #[test]
    fn arenas_are_disjoint_and_aligned() {
        let platform = SystemConfig::default();
        let tenants = vec![
            tenant(Architecture::Baseline, 256, JobShape::Column),
            tenant(Architecture::Optimized, 128, JobShape::App),
            tenant(Architecture::Tiled, 64, JobShape::Column),
        ];
        let book = SpecBook::build(&platform, &tenants).unwrap();
        assert_eq!(book.base(0), 0, "tenant 0 anchors at address 0");
        let fp0 = 256u64 * 256 * 8;
        assert!(book.base(1) >= fp0);
        assert!(book.base(2) > book.base(1));
        let align = platform.geometry.row_bytes as u64
            * platform.geometry.banks_per_layer as u64
            * platform.geometry.layers as u64;
        assert_eq!(book.base(1) % align, 0);
        assert_eq!(book.base(2) % align, 0);
    }

    #[test]
    fn oversized_tenant_is_rejected() {
        let platform = SystemConfig::default();
        let mut t = tenant(Architecture::Baseline, 64, JobShape::Column);
        t.base_offset = Some(platform.geometry.capacity_bytes());
        assert!(matches!(
            SpecBook::build(&platform, &[t]),
            Err(TenancyError::Config(_))
        ));
    }

    #[test]
    fn phase_counts_follow_shape() {
        let platform = SystemConfig::default();
        let tenants = vec![
            tenant(Architecture::Baseline, 64, JobShape::Column),
            tenant(Architecture::Baseline, 64, JobShape::App),
        ];
        let book = SpecBook::build(&platform, &tenants).unwrap();
        assert_eq!(book.phases(0), 1);
        assert_eq!(book.phases(1), 2);
        let mem = MemorySystem::new(platform.geometry, platform.timing);
        assert!(book.open_phase(&mem, 0, 1, Picos::ZERO).is_err());
        assert!(book.open_phase(&mem, 1, 1, Picos::ZERO).is_ok());
    }

    #[test]
    fn entries_carry_the_system_recipe_family() {
        let platform = SystemConfig::default();
        let tenants = vec![
            tenant(Architecture::Baseline, 128, JobShape::Column),
            tenant(Architecture::Optimized, 128, JobShape::Column),
            tenant(Architecture::Tiled, 128, JobShape::Column),
        ];
        let book = SpecBook::build(&platform, &tenants).unwrap();
        assert_eq!(book.entries[0].family.name(), "row-major");
        assert_eq!(book.entries[1].family.name(), "block-ddl");
        assert_eq!(book.entries[2].family.name(), "tiled");
        let sys = System::new(platform);
        assert_eq!(
            book.entries[1].family.param(),
            sys.block_height(128),
            "tenancy and direct runs must pick the same block height"
        );
    }
}
