//! Wall-clock time behind the [`Clock`] seam.
//!
//! [`WallClock`] anchors an [`Instant`] at construction and reports
//! elapsed wall time as [`SimTime`] micros-since-start — the same
//! monotone timeline the simulator's virtual clock produces, so protocol
//! deadline arithmetic (`ctx.now() + timeout`) is substrate-agnostic.
#![expect(clippy::disallowed_types, reason = "the one wall-clock anchor")]

use plwg_sim::{Clock, SimTime};
use std::time::Instant;

/// A [`Clock`] that reads real elapsed time from a fixed anchor.
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Starts the clock: `now()` counts from this call.
    pub fn start() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// The anchor instant (for converting foreign `Instant`s if needed).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_and_starts_near_zero() {
        let c = WallClock::start();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        // Two immediate reads sit well under a second from the anchor.
        assert!(a < SimTime::from_micros(1_000_000));
    }
}
