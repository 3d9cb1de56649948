//! Error type for simulator construction.

use std::error::Error;
use std::fmt;

/// Errors returned when configuring or constructing a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The allocation vector length does not match the device count.
    AllocationLengthMismatch {
        /// Number of devices in the topology.
        devices: usize,
        /// Number of entries in the allocation.
        allocation: usize,
    },
    /// An allocation references a channel outside the regional plan.
    ChannelOutOfRange {
        /// The device with the bad channel.
        device: usize,
        /// The offending channel index.
        channel: usize,
        /// Number of channels in the plan.
        plan_len: usize,
    },
    /// A configuration value is invalid.
    InvalidConfig {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A fault-injection entry (outage window, churn/jammer process or
    /// backhaul link) is invalid: NaN or negative bounds, an inverted
    /// window, or an index outside the deployment.
    InvalidFault {
        /// Human-readable reason naming the offending entry.
        reason: String,
    },
    /// A topology-generation parameter is invalid: a zero, negative or
    /// non-finite radius, or an environment probability outside `[0, 1]` —
    /// inputs that would silently produce NaN positions or a degenerate
    /// deployment instead of the requested one.
    InvalidTopology {
        /// Human-readable reason naming the offending parameter.
        reason: String,
    },
    /// A supplied attenuation matrix was built for another deployment
    /// shape: its rows and columns must be the topology's devices and
    /// gateways.
    AttenuationShapeMismatch {
        /// Number of devices in the topology.
        devices: usize,
        /// Number of gateways in the topology.
        gateways: usize,
        /// Device rows in the matrix.
        rows: usize,
        /// Gateway columns in the matrix.
        columns: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::AllocationLengthMismatch {
                devices,
                allocation,
            } => write!(
                f,
                "allocation has {allocation} entries but the topology has {devices} devices"
            ),
            SimError::ChannelOutOfRange {
                device,
                channel,
                plan_len,
            } => write!(
                f,
                "device {device} allocated channel {channel} outside plan of {plan_len} channels"
            ),
            SimError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SimError::InvalidFault { reason } => write!(f, "invalid fault injection: {reason}"),
            SimError::InvalidTopology { reason } => write!(f, "invalid topology: {reason}"),
            SimError::AttenuationShapeMismatch {
                devices,
                gateways,
                rows,
                columns,
            } => write!(
                f,
                "attenuation matrix is {rows} x {columns} but the topology has {devices} \
                 devices x {gateways} gateways"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }

    #[test]
    fn display_reads_naturally() {
        let e = SimError::AllocationLengthMismatch {
            devices: 10,
            allocation: 9,
        };
        assert!(e.to_string().contains("9 entries"));
    }
}
