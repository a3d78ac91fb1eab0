//! Error type for the GPU simulator.

use std::fmt;

/// Everything that can go wrong in the simulated driver stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// Device memory allocation failed: requested bytes vs bytes free.
    OutOfMemory { requested: u64, free: u64 },
    /// A second process tried to create a direct (non-MPS) context on a
    /// device that already has one — only a single context can be
    /// active on a device at a time (paper §2).
    ContextBusy { device: usize },
    /// A handle referred to a context that no longer exists.
    InvalidContext,
    /// A handle referred to a stream that does not exist.
    InvalidStream,
    /// Freeing a pointer the allocator does not know about.
    InvalidFree { offset: u64 },
    /// A pool operation violated the pool's LIFO discipline.
    PoolDiscipline,
    /// The MPS server rejected a client (e.g. over its client limit).
    MpsRejected { reason: &'static str },
    /// A kernel launch failed and the retry budget was exhausted.
    LaunchFailed { reason: &'static str },
    /// A kernel's roofline time is NaN or infinite (its descriptor
    /// carries non-finite per-element costs); the timeline cannot
    /// schedule it.
    NonFiniteWork { kernel: &'static str },
    /// Touching device-resident memory from a host-only process — the
    /// performance hazard the paper had to engineer around (§5.2).
    HostTouchedDeviceMemory,
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::OutOfMemory { requested, free } => {
                write!(
                    f,
                    "out of device memory: requested {requested} B, {free} B free"
                )
            }
            GpuError::ContextBusy { device } => {
                write!(f, "device {device} already has an active context (use MPS)")
            }
            GpuError::InvalidContext => write!(f, "invalid context handle"),
            GpuError::InvalidStream => write!(f, "invalid stream handle"),
            GpuError::InvalidFree { offset } => write!(f, "invalid free at offset {offset}"),
            GpuError::PoolDiscipline => write!(f, "pool free violates LIFO discipline"),
            GpuError::MpsRejected { reason } => write!(f, "MPS rejected client: {reason}"),
            GpuError::LaunchFailed { reason } => write!(f, "kernel launch failed: {reason}"),
            GpuError::NonFiniteWork { kernel } => {
                write!(f, "kernel {kernel} has a non-finite roofline time")
            }
            GpuError::HostTouchedDeviceMemory => {
                write!(f, "host-only process touched device-resident memory")
            }
        }
    }
}

impl std::error::Error for GpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GpuError::OutOfMemory {
            requested: 1024,
            free: 512,
        };
        let s = e.to_string();
        assert!(s.contains("1024") && s.contains("512"));
        assert!(GpuError::ContextBusy { device: 2 }
            .to_string()
            .contains("MPS"));
        assert!(GpuError::LaunchFailed {
            reason: "injected fault"
        }
        .to_string()
        .contains("injected fault"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(GpuError::InvalidContext, GpuError::InvalidContext);
        assert_ne!(
            GpuError::InvalidFree { offset: 1 },
            GpuError::InvalidFree { offset: 2 }
        );
    }
}
