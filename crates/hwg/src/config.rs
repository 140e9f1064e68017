//! Protocol timing parameters shared by every HWG substrate.

use plwg_sim::{ConfigError, SimDuration};

/// Tunables of the HWG layer: the three timings a deployment changes and
/// the one switch the LWG layer flips.
///
/// Defaults are sized for LAN-ish latency (~1 ms) — they work both on the
/// simulator and on loopback/LAN sockets: failure detection within half a
/// second, beacons every 400 ms. The protocol's own watchdogs (join probe,
/// flush, merge, NACK, stability) are not tunables; they are constants next
/// to the code that reads them in `plwg-vsync`.
///
/// Construct with [`Default`] and struct update
/// (`HwgConfig { suspect_timeout: .., ..Default::default() }`); the
/// invariants between fields are checked by [`HwgConfig::validate`], which
/// every builder in the workspace calls before using a config.
#[derive(Debug, Clone)]
pub struct HwgConfig {
    /// Heartbeat send period of the failure detector.
    pub hb_interval: SimDuration,
    /// Silence after which a monitored peer is suspected — the paper's §4
    /// virtual-partition threshold. Must exceed `hb_interval`, or the
    /// detector would suspect healthy peers.
    pub suspect_timeout: SimDuration,
    /// Period of coordinator view beacons (peer discovery, paper §4).
    pub beacon_interval: SimDuration,
    /// If `true` (plain applications), the endpoint acknowledges `Stop`
    /// itself. The LWG layer sets this to `false` and calls
    /// [`crate::HwgSubstrate::stop_ok`] once its own groups are quiescent.
    pub auto_stop_ok: bool,
}

impl Default for HwgConfig {
    fn default() -> Self {
        HwgConfig {
            hb_interval: SimDuration::from_millis(100),
            suspect_timeout: SimDuration::from_millis(500),
            beacon_interval: SimDuration::from_millis(400),
            auto_stop_ok: true,
        }
    }
}

impl HwgConfig {
    /// Validates invariants between the parameters: every period must be
    /// positive, and the suspect timeout must be strictly larger than the
    /// heartbeat interval.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, v) in [
            ("hwg.hb_interval", self.hb_interval),
            ("hwg.beacon_interval", self.beacon_interval),
        ] {
            if v <= SimDuration::ZERO {
                return Err(ConfigError::new(field, "period must be positive"));
            }
        }
        if self.suspect_timeout <= self.hb_interval {
            return Err(ConfigError::new(
                "hwg.suspect_timeout",
                "must exceed hb_interval, or healthy peers get suspected",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        HwgConfig::default().validate().expect("default valid");
    }

    #[test]
    fn tight_suspicion_rejected() {
        let err = HwgConfig {
            suspect_timeout: SimDuration::from_millis(50),
            ..HwgConfig::default()
        }
        .validate()
        .expect_err("must reject");
        assert_eq!(err.field, "hwg.suspect_timeout");
    }

    #[test]
    fn zero_period_rejected_with_field_name() {
        let err = HwgConfig {
            beacon_interval: SimDuration::ZERO,
            ..HwgConfig::default()
        }
        .validate()
        .expect_err("must reject");
        assert_eq!(err.field, "hwg.beacon_interval");
    }
}
