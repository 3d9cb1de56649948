//! Error type for model evaluation.

use std::error::Error;
use std::fmt;

/// Errors returned by the analytical model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// The allocation length does not match the modelled device count.
    AllocationLengthMismatch {
        /// Devices in the model.
        devices: usize,
        /// Entries in the allocation.
        allocation: usize,
    },
    /// A channel index outside the modelled plan.
    ChannelOutOfRange {
        /// Device with the offending entry.
        device: usize,
        /// The channel index.
        channel: usize,
        /// Channels in the plan.
        plan_len: usize,
    },
    /// The configured PHY payload exceeds the LoRa maximum, so no
    /// time-on-air exists for it.
    PayloadTooLarge {
        /// Configured payload length, bytes.
        len: usize,
        /// Largest representable PHY payload, bytes.
        max: usize,
    },
    /// The dense attenuation matrix for this deployment would exceed the
    /// 2 GiB byte budget — a typed refusal instead of an abort-on-OOM. Deployments past this
    /// point go through the cell-sharded path (`lora-spatial` tiles plus
    /// `ef_lora::spatial`).
    TopologyTooLarge {
        /// Number of devices in the topology.
        devices: usize,
        /// Number of gateways in the topology.
        gateways: usize,
        /// Bytes the dense matrix would need.
        required_bytes: u64,
        /// The budget that refused it.
        budget_bytes: u64,
    },
    /// A supplied attenuation matrix was built for another deployment
    /// shape: its rows and columns must be the topology's devices and
    /// gateways.
    AttenuationShapeMismatch {
        /// Devices in the topology.
        devices: usize,
        /// Gateways in the topology.
        gateways: usize,
        /// Device rows in the matrix.
        rows: usize,
        /// Gateway columns in the matrix.
        columns: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::AllocationLengthMismatch {
                devices,
                allocation,
            } => write!(
                f,
                "allocation has {allocation} entries but the model has {devices} devices"
            ),
            ModelError::ChannelOutOfRange {
                device,
                channel,
                plan_len,
            } => write!(
                f,
                "device {device} allocated channel {channel} outside plan of {plan_len} channels"
            ),
            ModelError::PayloadTooLarge { len, max } => write!(
                f,
                "configured PHY payload of {len} bytes exceeds the LoRa maximum of {max}"
            ),
            ModelError::TopologyTooLarge {
                devices,
                gateways,
                required_bytes,
                budget_bytes,
            } => write!(
                f,
                "dense attenuation matrix for {devices} devices x {gateways} gateways needs \
                 {required_bytes} bytes, over the {budget_bytes}-byte budget; use the \
                 cell-sharded path for deployments this large"
            ),
            ModelError::AttenuationShapeMismatch {
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

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
