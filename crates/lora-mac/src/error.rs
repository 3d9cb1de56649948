//! Error type for MAC-layer operations.

use std::error::Error;
use std::fmt;

/// Errors returned by MAC-layer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MacError {
    /// Receive-window timing that is not ordered `0 < RX1 < RX2` or a
    /// window/power value that is not positive (see
    /// [`crate::ClassAParams::validate`]).
    InvalidInterval,
}

impl fmt::Display for MacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MacError::InvalidInterval => {
                write!(f, "receive-window timing must be positive and ordered")
            }
        }
    }
}

impl Error for MacError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MacError>();
    }

    #[test]
    fn display_messages() {
        assert!(MacError::InvalidInterval
            .to_string()
            .contains("receive-window"));
    }
}
