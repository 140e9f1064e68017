//! Naming-service timing parameters.

use plwg_sim::{ConfigError, SimDuration};

/// Tunables of the name servers. The client stub has none: its request
/// watchdog is a constant in `client.rs`.
///
/// Construct with [`Default`] and struct update
/// (`NamingConfig { gossip_interval: .., ..Default::default() }`);
/// invariants are checked by [`NamingConfig::validate`].
#[derive(Debug, Clone)]
pub struct NamingConfig {
    /// Anti-entropy period between name servers.
    pub gossip_interval: SimDuration,
    /// Whether servers push MULTIPLE-MAPPINGS callbacks (paper §6.1).
    /// Disabled only by the callback-vs-polling ablation, which makes
    /// group coordinators poll `ns.read` instead.
    pub push_callbacks: bool,
}

impl Default for NamingConfig {
    fn default() -> Self {
        NamingConfig {
            gossip_interval: SimDuration::from_millis(500),
            push_callbacks: true,
        }
    }
}

impl NamingConfig {
    /// Validates the configuration: the gossip period must be positive.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.gossip_interval <= SimDuration::ZERO {
            return Err(ConfigError::new(
                "naming.gossip_interval",
                "period must be positive",
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
        NamingConfig::default().validate().expect("default valid");
    }

    #[test]
    fn zero_period_rejected() {
        let err = NamingConfig {
            gossip_interval: SimDuration::ZERO,
            ..NamingConfig::default()
        }
        .validate()
        .expect_err("must reject");
        assert_eq!(err.field, "naming.gossip_interval");
    }
}
