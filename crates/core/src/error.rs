//! The application-level error type.

use std::fmt;

/// Errors reported by the 2D FFT system simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Fft2dError {
    /// The memory simulator rejected a configuration or request.
    Mem(mem3d::Error),
    /// The FFT kernel rejected a configuration or stream.
    Kernel(fft_kernel::KernelError),
    /// A layout could not be constructed.
    Layout(layout::LayoutError),
    /// The closed-loop phase driver rejected a configuration (e.g. a
    /// NaN or negative kernel rate that would otherwise saturate into a
    /// bogus integer clock step).
    Driver(String),
    /// A buffer had the wrong number of elements.
    Shape {
        /// Expected element count.
        expected: usize,
        /// Actual element count.
        got: usize,
    },
    /// The persistent exploration cache could not be read or appended
    /// (e.g. an unwritable cache path) — results would silently lose
    /// their resumability, so this is surfaced instead of swallowed.
    Cache(String),
}

impl fmt::Display for Fft2dError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fft2dError::Mem(e) => write!(f, "memory system: {e}"),
            Fft2dError::Kernel(e) => write!(f, "fft kernel: {e}"),
            Fft2dError::Layout(e) => write!(f, "layout: {e}"),
            Fft2dError::Driver(msg) => write!(f, "driver: {msg}"),
            Fft2dError::Shape { expected, got } => {
                write!(f, "expected {expected} elements, got {got}")
            }
            Fft2dError::Cache(msg) => write!(f, "exploration cache: {msg}"),
        }
    }
}

impl std::error::Error for Fft2dError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Fft2dError::Mem(e) => Some(e),
            Fft2dError::Kernel(e) => Some(e),
            Fft2dError::Layout(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mem3d::Error> for Fft2dError {
    fn from(e: mem3d::Error) -> Self {
        Fft2dError::Mem(e)
    }
}

impl From<fft_kernel::KernelError> for Fft2dError {
    fn from(e: fft_kernel::KernelError) -> Self {
        Fft2dError::Kernel(e)
    }
}

impl From<layout::LayoutError> for Fft2dError {
    fn from(e: layout::LayoutError) -> Self {
        Fft2dError::Layout(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn conversions_and_sources() {
        let m: Fft2dError = mem3d::Error::BadRequest("x".into()).into();
        assert!(m.source().is_some());
        assert!(m.to_string().contains("memory system"));
        let k: Fft2dError = fft_kernel::KernelError::NotPowerOfTwo { n: 3 }.into();
        assert!(k.source().is_some());
        let l: Fft2dError = layout::LayoutError::Zero { what: "h" }.into();
        assert!(l.source().is_some());
        assert!(l.to_string().contains("h must be non-zero"));
        let d = Fft2dError::Driver("NaN rate".into());
        assert!(d.source().is_none());
        assert!(d.to_string().contains("driver: NaN rate"));
        let s = Fft2dError::Shape {
            expected: 1,
            got: 2,
        };
        assert!(s.to_string().contains("expected 1"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Fft2dError>();
    }
}
