//! LoRaWAN uplink frame layout.
//!
//! An unconfirmed data uplink (LoRaWAN 1.0.x) wraps the application payload
//! in 13 bytes of MAC overhead:
//!
//! ```text
//! | MHDR | DevAddr | FCtrl | FCnt | FPort | FRMPayload | MIC |
//! |  1   |    4    |   1   |  2   |   1   |     N      |  4  |
//! ```
//!
//! This is how the paper's evaluation turns an 8-byte application payload
//! into a 21-byte PHY payload (Section IV). The model and the simulator
//! only need the frame *size* (it sets the time-on-air of Eq. 4), so the
//! layout is carried as this one constant rather than an encoder.

/// Bytes of MAC overhead around the application payload: MHDR (1),
/// DevAddr (4), FCtrl (1), FCnt (2), FPort (1) and MIC (4).
///
/// ```
/// // The paper's 8-byte application payload becomes a 21-byte PHY payload.
/// assert_eq!(8 + lora_mac::frame::MAC_OVERHEAD, 21);
/// ```
pub const MAC_OVERHEAD: usize = 13;
