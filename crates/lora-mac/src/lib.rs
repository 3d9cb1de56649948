//! LoRaWAN MAC-layer model.
//!
//! The MAC substrate of the EF-LoRa reproduction:
//!
//! * [`frame`] — LoRaWAN uplink frame overhead (the paper's 8-byte
//!   application payload → 21-byte PHY payload),
//! * [`class_a`] — Class A receive-window timing for confirmed uplinks,
//! * [`collision`] — the paper's collision rule (same SF, same channel, any
//!   overlap) plus the optional inter-SF interference matrix extension,
//! * [`gateway`] — the SX1301 demodulator bank that caps a gateway at eight
//!   concurrent packets (paper Eq. 6),
//! * [`dedup`] — network-server de-duplication of multi-gateway copies.
//!
//! # Example
//!
//! ```
//! use lora_mac::frame::MAC_OVERHEAD;
//!
//! // 13 bytes of LoRaWAN overhead around an 8-byte application payload.
//! assert_eq!(8 + MAC_OVERHEAD, 21);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod class_a;
pub mod collision;
pub mod dedup;
pub mod error;
pub mod frame;
pub mod gateway;

pub use class_a::ClassAParams;
pub use collision::InterSfPolicy;
pub use dedup::{Deduplicator, Reception};
pub use error::MacError;
pub use gateway::DemodulatorBank;

/// The SX1301 concentrator decodes at most this many packets concurrently,
/// regardless of their SFs and channels (paper Section III-B, Eq. 6).
pub const GATEWAY_MAX_CONCURRENT: usize = 8;
