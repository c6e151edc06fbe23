//! The byte unit of the packet layer: a thin `f64` newtype, so a byte
//! count ([`crate::PacketBytes::ref_bytes`]) cannot be passed where a
//! packet count or a time is expected. Read the magnitude with
//! [`Bytes::get`]; there is no arithmetic on the wrapper:
//!
//! ```compile_fail
//! use fpk_sim::units::Bytes;
//! let _: f64 = Bytes(1500.0) / 1000.0; // no Div<f64> impl
//! ```

use serde::Serialize;

/// A byte count (may be fractional: mean sizes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Bytes(pub f64);

impl Bytes {
    /// The raw `f64` magnitude.
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }
}
