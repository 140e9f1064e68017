//! Configuration of the light-weight group service.

use plwg_hwg::HwgConfig;
use plwg_sim::{ConfigError, SimDuration};

/// Tunables of the LWG service: the paper's §3.2 parameters (`k_m`, `k_c`,
/// the heuristics period, the shrink grace), the timings tests shorten, and
/// the switches of the data-plane and rebalancer extensions. The admission
/// retry count and the LWG flush watchdog are constants in `mapping.rs`.
///
/// Construct with [`Default`] and struct update
/// (`LwgConfig { pack_max_msgs: 16, ..Default::default() }`), then hand the
/// config to [`crate::LwgNode::builder`]; the builder runs
/// [`LwgConfig::validate`] (which also validates the nested
/// [`HwgConfig`]) and surfaces rejections as [`crate::LwgError::Config`]
/// instead of panicking.
#[derive(Debug, Clone)]
pub struct LwgConfig {
    /// HWG-substrate configuration. `auto_stop_ok` is forced to `false` by
    /// the service — it answers `Stop` itself after piggybacking its view
    /// advertisement.
    pub hwg: HwgConfig,
    /// Minority threshold `k_m` (paper Fig. 1): `g1` is a minority of `g2`
    /// iff `|g1| <= |g2| / k_m`. The paper's prototype used 4.
    pub k_m: u32,
    /// Closeness threshold `k_c` (paper Fig. 1): `g1 ⊆ g2` are close iff
    /// `|g2| - |g1| <= |g2| / k_c`. The paper's prototype used 4.
    pub k_c: u32,
    /// Period of the mapping heuristics (paper ran them once a minute; the
    /// simulator default is faster so experiments converge quickly).
    pub policy_interval: SimDuration,
    /// Grace before the shrink rule makes a process leave an HWG with no
    /// LWG mapped onto it ("if this situation persists for some time").
    pub shrink_grace: SimDuration,
    /// How long a joiner waits for LWG admission before retrying, and after
    /// the retries, founding its own LWG view.
    pub lwg_join_timeout: SimDuration,
    /// Internal housekeeping tick.
    pub tick_interval: SimDuration,
    /// When set, LWG coordinators periodically poll `ns.read` for their
    /// groups instead of relying on server callbacks — the alternative the
    /// paper rejects in §6.1 ("this could load the servers with
    /// unnecessary requests"); kept for the ablation that quantifies it.
    pub ns_poll_interval: Option<SimDuration>,
    /// Maximum LWG data messages packed into one HWG multicast. `1`
    /// disables packing entirely (every send is its own HWG multicast,
    /// byte-identical to the unpacked protocol). Larger values amortise
    /// the per-multicast cost of co-mapped groups over bursts.
    pub pack_max_msgs: usize,
    /// How long a partially-filled pack buffer may wait for more sends
    /// before it is flushed anyway. Only consulted when `pack_max_msgs`
    /// is greater than 1; bounds the latency packing can add.
    pub pack_delay: SimDuration,
    /// Address co-mapped data only to the members interested in it (the
    /// union of the packed groups' LWG views, plus the HWG coordinator)
    /// instead of the whole HWG view. Non-addressed members receive a
    /// sequence-slot marker, so virtual synchrony is unaffected, but
    /// they no longer pay the interference cost of filtering the payload.
    pub subset_delivery: bool,
    /// When set, the service periodically rebalances LWGs between HWGs:
    /// coordinators of groups on crowded HWGs switch them to the least
    /// loaded admissible HWG (membership load first, the traffic window as
    /// tie-breaker). `None` disables the rebalancer entirely — the default,
    /// so the protocol is byte-identical to the pre-rebalancer service.
    pub rebalance_interval: Option<SimDuration>,
    /// Migrations a single rebalance round may start. Each move is a full
    /// switch protocol run; bounding the batch keeps rounds cheap and lets
    /// load accounts refresh between batches.
    pub rebalance_max_moves: usize,
}

impl Default for LwgConfig {
    fn default() -> Self {
        LwgConfig {
            hwg: HwgConfig::default(),
            k_m: 4,
            k_c: 4,
            policy_interval: SimDuration::from_secs(10),
            shrink_grace: SimDuration::from_secs(15),
            lwg_join_timeout: SimDuration::from_millis(800),
            tick_interval: SimDuration::from_millis(200),
            ns_poll_interval: None,
            pack_max_msgs: 1,
            pack_delay: SimDuration::from_millis(2),
            subset_delivery: false,
            rebalance_interval: None,
            rebalance_max_moves: 4,
        }
    }
}

impl LwgConfig {
    /// Validates the configuration, including the nested [`HwgConfig`]:
    /// thresholds and the pack budget must be at least 1, every period
    /// positive, `pack_delay` positive when packing is enabled, and the
    /// rebalancer knobs coherent when it is enabled.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.hwg.validate()?;
        if self.k_m < 1 || self.k_c < 1 {
            return Err(ConfigError::new("k_m/k_c", "thresholds must be >= 1"));
        }
        for (field, v) in [
            ("policy_interval", self.policy_interval),
            ("tick_interval", self.tick_interval),
            ("lwg_join_timeout", self.lwg_join_timeout),
        ] {
            if v <= SimDuration::ZERO {
                return Err(ConfigError::new(field, "period must be positive"));
            }
        }
        if let Some(poll) = self.ns_poll_interval {
            if poll <= SimDuration::ZERO {
                return Err(ConfigError::new(
                    "ns_poll_interval",
                    "period must be positive when polling is enabled",
                ));
            }
        }
        if self.pack_max_msgs < 1 {
            return Err(ConfigError::new("pack_max_msgs", "must be >= 1"));
        }
        if self.pack_max_msgs > 1 && self.pack_delay <= SimDuration::ZERO {
            return Err(ConfigError::new(
                "pack_delay",
                "must be positive when packing is enabled",
            ));
        }
        if let Some(i) = self.rebalance_interval {
            if i <= SimDuration::ZERO {
                return Err(ConfigError::new(
                    "rebalance_interval",
                    "must be positive when set",
                ));
            }
            if self.rebalance_max_moves < 1 {
                return Err(ConfigError::new(
                    "rebalance_max_moves",
                    "must be >= 1 when the rebalancer is enabled",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejected_field(cfg: LwgConfig) -> &'static str {
        cfg.validate().expect_err("must reject").field
    }

    #[test]
    fn default_is_valid_and_uses_paper_parameters() {
        let cfg = LwgConfig::default();
        cfg.validate().expect("default valid");
        assert_eq!(cfg.k_m, 4);
        assert_eq!(cfg.k_c, 4);
    }

    #[test]
    fn zero_km_rejected() {
        let cfg = LwgConfig {
            k_m: 0,
            ..LwgConfig::default()
        };
        assert_eq!(rejected_field(cfg), "k_m/k_c");
    }

    #[test]
    fn packing_is_disabled_by_default() {
        let cfg = LwgConfig::default();
        assert_eq!(cfg.pack_max_msgs, 1);
        assert!(!cfg.subset_delivery);
    }

    #[test]
    fn zero_pack_budget_rejected() {
        let cfg = LwgConfig {
            pack_max_msgs: 0,
            ..LwgConfig::default()
        };
        assert_eq!(rejected_field(cfg), "pack_max_msgs");
    }

    #[test]
    fn rebalancer_is_disabled_by_default() {
        let cfg = LwgConfig::default();
        assert!(cfg.rebalance_interval.is_none());
    }

    #[test]
    fn zero_rebalance_interval_rejected() {
        let cfg = LwgConfig {
            rebalance_interval: Some(SimDuration::ZERO),
            ..LwgConfig::default()
        };
        assert_eq!(rejected_field(cfg), "rebalance_interval");
    }

    #[test]
    fn zero_rebalance_moves_rejected_when_enabled() {
        let cfg = LwgConfig {
            rebalance_interval: Some(SimDuration::from_secs(1)),
            rebalance_max_moves: 0,
            ..LwgConfig::default()
        };
        assert_eq!(rejected_field(cfg), "rebalance_max_moves");
    }

    #[test]
    fn zero_pack_delay_rejected_when_packing() {
        let cfg = LwgConfig {
            pack_max_msgs: 8,
            pack_delay: SimDuration::ZERO,
            ..LwgConfig::default()
        };
        assert_eq!(rejected_field(cfg), "pack_delay");
    }

    #[test]
    fn nested_hwg_error_surfaces_through_lwg_validate() {
        let cfg = LwgConfig {
            hwg: HwgConfig {
                suspect_timeout: SimDuration::from_millis(10),
                ..HwgConfig::default()
            },
            ..LwgConfig::default()
        };
        assert_eq!(rejected_field(cfg), "hwg.suspect_timeout");
    }
}
