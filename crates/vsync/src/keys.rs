//! Canonical metric keys of the vsync stack.
//!
//! The substrate-level `hwg.*` keys live in [`plwg_hwg::keys`] (re-exported
//! here for convenience); this module adds the keys specific to this
//! stack's failure detector.

pub use plwg_hwg::keys::*;

plwg_sim::metric_keys! {
    family = VSYNC;

    /// Fresh suspicions raised by the failure detector.
    pub const FD_SUSPICIONS: CounterKey = "fd.suspicions";
    /// Incoming frames of this stack's wire family that failed to decode
    /// (dropped; never panicked on).
    pub const DECODE_ERRORS: CounterKey = "vs.decode_errors";
}
