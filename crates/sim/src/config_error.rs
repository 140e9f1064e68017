//! The shared error type of configuration validation.
//!
//! Every `plwg-*` crate with a config struct (`HwgConfig`, `NamingConfig`,
//! `LwgConfig`, the net runtime's tunables) exposes a
//! `validate() -> Result<(), ConfigError>` that names the offending field
//! and why it is rejected. Builders surface the error instead of
//! panicking.

use std::fmt;

/// A rejected configuration: which knob, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError {
    /// The field (or field pair) that failed validation.
    pub field: &'static str,
    /// Why the value is invalid.
    pub reason: &'static str,
}

impl ConfigError {
    /// Builds an error for `field` rejected because of `reason`.
    pub const fn new(field: &'static str, reason: &'static str) -> Self {
        ConfigError { field, reason }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_field_and_reason() {
        let e = ConfigError::new("pack_max_msgs", "must be >= 1");
        assert_eq!(
            e.to_string(),
            "invalid config `pack_max_msgs`: must be >= 1"
        );
    }
}
