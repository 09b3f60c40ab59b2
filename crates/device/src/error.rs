//! Error types for the simulated device.

use std::fmt;

/// Result alias for device operations.
pub type DeviceResult<T> = Result<T, DeviceError>;

/// Errors raised by the simulated device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// An allocation request exceeded the remaining device-memory capacity.
    ///
    /// Carries the number of bytes requested and the number of bytes that were still
    /// available when the request was made.
    OutOfDeviceMemory {
        /// Bytes requested by the failed allocation.
        requested: usize,
        /// Bytes that were still available in the pool.
        available: usize,
    },
    /// A kernel was launched with an empty grid.
    EmptyLaunch {
        /// Name of the kernel that was launched.
        kernel: &'static str,
    },
    /// A launch configuration was invalid (e.g. zero lanes per block).
    InvalidLaunchConfig {
        /// Human readable description of the problem.
        reason: String,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfDeviceMemory {
                requested,
                available,
            } => write!(
                f,
                "out of device memory: requested {requested} bytes, {available} bytes available"
            ),
            DeviceError::EmptyLaunch { kernel } => {
                write!(f, "kernel `{kernel}` launched with an empty grid")
            }
            DeviceError::InvalidLaunchConfig { reason } => {
                write!(f, "invalid launch configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_out_of_memory() {
        let e = DeviceError::OutOfDeviceMemory {
            requested: 1024,
            available: 512,
        };
        let s = e.to_string();
        assert!(s.contains("1024"));
        assert!(s.contains("512"));
    }

    #[test]
    fn display_empty_launch() {
        let e = DeviceError::EmptyLaunch { kernel: "evaluate" };
        assert!(e.to_string().contains("evaluate"));
    }

    #[test]
    fn display_invalid_config() {
        let e = DeviceError::InvalidLaunchConfig {
            reason: "zero threads per block".into(),
        };
        assert!(e.to_string().contains("zero threads"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = DeviceError::EmptyLaunch { kernel: "k" };
        let b = DeviceError::EmptyLaunch { kernel: "k" };
        assert_eq!(a, b);
    }
}
