//! Typed failures of protocol steps and node construction.
//!
//! The hot-path modules are panic-free (each denies clippy's
//! `unwrap_used`/`indexing_slicing` family): a step that finds its precondition broken — a group the local
//! table no longer knows, a member without an installed view — returns an
//! [`LwgError`] instead of unwrapping. Callers treat these as benign
//! races: membership messages legitimately arrive after a group was
//! dissolved or while a node re-joins, so the protocol's answer is to
//! drop the step, never to abort the node.
//!
//! The same enum carries construction failures surfaced by
//! [`crate::LwgBuilder::build`] (invalid config, empty server list),
//! so the builder API has a single error type.

use plwg_hwg::HwgId;
use plwg_naming::LwgId;
use plwg_sim::{ConfigError, NodeId};
use std::fmt;

/// Why an internal protocol step could not run, or a node could not be
/// built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LwgError {
    /// The group is not (or no longer) in the local table.
    UnknownGroup(LwgId),
    /// The group has no installed view at this node.
    NoView(LwgId),
    /// The group has no LWG→HWG mapping at this node.
    NoMapping(LwgId),
    /// The backing HWG has no installed view at this node.
    NoHwgView(HwgId),
    /// The configuration handed to the builder failed validation.
    Config(ConfigError),
    /// The builder was given no name servers — the service cannot
    /// register or look up a single mapping without one.
    NoServers,
    /// The substrate handed to the builder belongs to a different node
    /// than the one the builder was created for.
    SubstrateNodeMismatch {
        /// The node the builder was created for.
        expected: NodeId,
        /// The node the provided substrate was built for.
        actual: NodeId,
    },
}

impl fmt::Display for LwgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LwgError::UnknownGroup(lwg) => write!(f, "unknown group {lwg:?}"),
            LwgError::NoView(lwg) => write!(f, "no installed view for {lwg:?}"),
            LwgError::NoMapping(lwg) => write!(f, "no HWG mapping for {lwg:?}"),
            LwgError::NoHwgView(hwg) => write!(f, "no installed view for HWG {hwg:?}"),
            LwgError::Config(e) => write!(f, "{e}"),
            LwgError::NoServers => write!(f, "need at least one name server"),
            LwgError::SubstrateNodeMismatch { expected, actual } => write!(
                f,
                "substrate was built for {actual} but the builder is for {expected}"
            ),
        }
    }
}

impl std::error::Error for LwgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LwgError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for LwgError {
    fn from(e: ConfigError) -> Self {
        LwgError::Config(e)
    }
}
