//! Structured service errors and admission accounting.

use fft2d::Fft2dError;

/// How every job submitted to one service run was dispositioned.
/// Carried by [`TenancyError`] variants and by the final report, so a
/// rejected or cancelled run still tells the operator exactly where
/// each job went — the `SkipCounts` idiom from the exploration sweep,
/// applied to admission control.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionCounts {
    /// Jobs the traffic model generated (arrivals).
    pub submitted: u64,
    /// Jobs that got a run slot (immediately or after queueing).
    pub admitted: u64,
    /// Jobs bounced because the run queue was full on arrival.
    pub rejected: u64,
    /// Jobs dropped from the queue after waiting longer than the
    /// admission deadline.
    pub timed_out: u64,
    /// Jobs abandoned because the run was cancelled.
    pub cancelled: u64,
}

impl AdmissionCounts {
    /// Jobs that ran to completion.
    pub fn completed(&self) -> u64 {
        self.admitted
            .saturating_sub(self.cancelled.min(self.admitted))
    }
}

impl std::fmt::Display for AdmissionCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} submitted, {} admitted, {} rejected, {} timed out, {} cancelled",
            self.submitted, self.admitted, self.rejected, self.timed_out, self.cancelled
        )
    }
}

/// Error of a multi-tenant service run.
#[derive(Debug)]
pub enum TenancyError {
    /// The scenario is malformed (zero tenants, zero weight, tenants
    /// that do not fit the device, unknown policy name, …).
    Config(String),
    /// A phase driver or memory-system error while servicing a job.
    Driver(Fft2dError),
    /// The run was cancelled via its [`sim_exec::CancelToken`]; the
    /// counts record how far it got.
    Cancelled {
        /// Disposition of every submitted job at cancellation time.
        counts: AdmissionCounts,
    },
    /// Every submitted job was rejected or timed out — nothing ran, so
    /// there is no report to build.
    NothingAdmitted {
        /// Disposition of every submitted job.
        counts: AdmissionCounts,
    },
}

impl std::fmt::Display for TenancyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenancyError::Config(msg) => write!(f, "invalid scenario: {msg}"),
            TenancyError::Driver(e) => write!(f, "service error: {e}"),
            TenancyError::Cancelled { counts } => {
                write!(f, "service run cancelled ({counts})")
            }
            TenancyError::NothingAdmitted { counts } => {
                write!(f, "no job was admitted ({counts})")
            }
        }
    }
}

impl std::error::Error for TenancyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TenancyError::Driver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Fft2dError> for TenancyError {
    fn from(e: Fft2dError) -> Self {
        TenancyError::Driver(e)
    }
}

impl From<mem3d::Error> for TenancyError {
    fn from(e: mem3d::Error) -> Self {
        TenancyError::Driver(Fft2dError::Mem(e))
    }
}

impl From<layout::LayoutError> for TenancyError {
    fn from(e: layout::LayoutError) -> Self {
        TenancyError::Driver(Fft2dError::Layout(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_display_and_completed() {
        let c = AdmissionCounts {
            submitted: 10,
            admitted: 7,
            rejected: 2,
            timed_out: 1,
            cancelled: 3,
        };
        assert_eq!(c.completed(), 4);
        let s = c.to_string();
        assert!(s.contains("10 submitted") && s.contains("3 cancelled"));
    }

    #[test]
    fn error_display_covers_variants() {
        let counts = AdmissionCounts::default();
        assert!(TenancyError::Config("x".into()).to_string().contains("x"));
        assert!(TenancyError::Cancelled { counts }
            .to_string()
            .contains("cancelled"));
        assert!(TenancyError::NothingAdmitted { counts }
            .to_string()
            .contains("admitted"));
    }
}
