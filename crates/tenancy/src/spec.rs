//! Scenario description: tenants, their jobs, traffic and admission
//! policy.

use fft2d::{Architecture, SystemConfig};
use mem3d::Picos;

use crate::{AdmissionCounts, TenancyError, Traffic};

/// What one job simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobShape {
    /// The column-wise FFT phase in isolation (Table 1's unit of work).
    Column,
    /// The full two-phase 2D FFT application (Table 2's unit of work).
    App,
}

impl JobShape {
    /// Number of phases a job of this shape runs through.
    pub fn phases(self) -> usize {
        match self {
            JobShape::Column => 1,
            JobShape::App => 2,
        }
    }

    /// Short name for table rows.
    pub fn name(self) -> &'static str {
        match self {
            JobShape::Column => "column",
            JobShape::App => "app",
        }
    }
}

/// The work one tenant submits, repeatedly: an architecture, a problem
/// size and a shape. Mirrors exactly what `fft2d::System::column_phase`
/// / `run_app` simulate — the degenerate single-tenant service run is
/// bit-identical to those, which the equivalence suite enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// Architecture the job's layouts and write pipeline model.
    pub arch: Architecture,
    /// Problem size `N` (matrix is `N × N`).
    pub n: usize,
    /// Single column phase or the full application.
    pub shape: JobShape,
}

/// One tenant of the shared memory system.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (report rows, JSON).
    pub name: String,
    /// Fair-share weight for the deficit-weighted arbiter; must be
    /// ≥ 1.
    pub weight: u64,
    /// Priority for the strict-priority arbiter (higher wins).
    pub priority: u8,
    /// The job this tenant submits.
    pub job: JobSpec,
    /// When jobs arrive.
    pub traffic: Traffic,
    /// Flat base address of this tenant's arena. `None` auto-assigns
    /// disjoint arenas in tenant order (tenant 0 at address 0).
    pub base_offset: Option<u64>,
}

impl TenantSpec {
    /// A tenant with weight 1, priority 0, auto-assigned arena.
    pub fn new(name: &str, job: JobSpec, traffic: Traffic) -> Self {
        TenantSpec {
            name: name.to_string(),
            weight: 1,
            priority: 0,
            job,
            traffic,
            base_offset: None,
        }
    }
}

/// Run-slot and queue bounds of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Concurrent jobs the service runs (≥ 1).
    pub max_running: usize,
    /// Jobs that may wait for a slot; arrivals beyond this are
    /// rejected.
    pub queue_depth: usize,
    /// Longest a queued job may wait before it is dropped as timed
    /// out; `None` waits forever.
    pub max_queue_wait: Option<Picos>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_running: 8,
            queue_depth: 64,
            max_queue_wait: None,
        }
    }
}

/// A complete multi-tenant scenario: the platform, the tenants and the
/// admission bounds. Everything a service run needs except the
/// arbitration policy, so one scenario replays under several policies.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Shared platform (memory device + FPGA datapath) every tenant's
    /// jobs run on.
    pub platform: SystemConfig,
    /// The tenants, in identity order (tenant ids are indices into
    /// this vector).
    pub tenants: Vec<TenantSpec>,
    /// Run-slot and queue bounds.
    pub admission: AdmissionConfig,
    /// Root seed for the deterministic traffic generator; each tenant
    /// samples from `SimRng::seed_from_u64(seed).fork(tenant_id)`.
    pub seed: u64,
}

impl Scenario {
    /// A scenario on the default platform with default admission
    /// bounds.
    pub fn new(tenants: Vec<TenantSpec>, seed: u64) -> Self {
        Scenario {
            platform: SystemConfig::default(),
            tenants,
            admission: AdmissionConfig::default(),
            seed,
        }
    }

    /// Validates the scenario shape (tenant list, weights, admission
    /// bounds). Arena fit is checked by the service once layout sizes
    /// are known.
    ///
    /// # Errors
    ///
    /// Returns [`TenancyError::Config`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), TenancyError> {
        if self.tenants.is_empty() {
            return Err(TenancyError::Config("no tenants".into()));
        }
        if self.admission.max_running == 0 {
            return Err(TenancyError::Config("max_running must be ≥ 1".into()));
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if t.weight == 0 {
                return Err(TenancyError::Config(format!(
                    "tenant {i} ({}) has weight 0; weights must be ≥ 1",
                    t.name
                )));
            }
            if !t.job.n.is_power_of_two() || t.job.n < 8 {
                return Err(TenancyError::Config(format!(
                    "tenant {i} ({}) has n = {}; need a power of two ≥ 8",
                    t.name, t.job.n
                )));
            }
            match t.traffic.checked_total_jobs() {
                Some(0) => {
                    return Err(TenancyError::Config(format!(
                        "tenant {i} ({}) submits no jobs",
                        t.name
                    )))
                }
                None => {
                    return Err(TenancyError::Config(format!(
                        "tenant {i} ({}) submits more than 2^64 - 1 jobs",
                        t.name
                    )))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// An [`AdmissionCounts`] with every counter zero — the starting
    /// ledger of a run over this scenario.
    pub fn fresh_counts(&self) -> AdmissionCounts {
        AdmissionCounts::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Arrivals;

    fn tenant() -> TenantSpec {
        TenantSpec::new(
            "t0",
            JobSpec {
                arch: Architecture::Baseline,
                n: 64,
                shape: JobShape::Column,
            },
            Traffic::Open {
                arrivals: Arrivals::Immediate,
                jobs: 1,
            },
        )
    }

    #[test]
    fn validate_catches_shape_errors() {
        assert!(Scenario::new(vec![], 1).validate().is_err());
        let mut s = Scenario::new(vec![tenant()], 1);
        s.admission.max_running = 0;
        assert!(s.validate().is_err());
        let mut s = Scenario::new(vec![tenant()], 1);
        s.tenants[0].weight = 0;
        assert!(s.validate().is_err());
        let mut s = Scenario::new(vec![tenant()], 1);
        s.tenants[0].job.n = 100;
        assert!(s.validate().is_err());
        assert!(Scenario::new(vec![tenant()], 1).validate().is_ok());
    }

    #[test]
    fn shape_phase_counts() {
        assert_eq!(JobShape::Column.phases(), 1);
        assert_eq!(JobShape::App.phases(), 2);
        assert_eq!(JobShape::App.name(), "app");
    }
}
