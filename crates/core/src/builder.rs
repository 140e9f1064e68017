//! Builder-style construction of [`LwgService`] and [`LwgNode`].
//!
//! The builders are the one place configuration is validated and the
//! substrate is created, and they return `Result` instead of panicking:
//!
//! ```
//! use plwg_core::{LwgConfig, LwgNode, ScriptedHwg};
//! use plwg_sim::NodeId;
//!
//! let node: LwgNode<ScriptedHwg> = LwgNode::builder(NodeId(3))
//!     .servers([NodeId(0)])
//!     .config(LwgConfig::default())
//!     .build()
//!     .expect("valid config");
//! # let _ = node;
//! ```
//!
//! A pre-built substrate endpoint (a pre-programmed
//! [`crate::ScriptedHwg`], a real-socket stack with out-of-band
//! construction) is injected with [`LwgBuilder::substrate`]; otherwise
//! [`HwgSubstrate::build`] creates one from the validated `cfg.hwg`.

use crate::config::LwgConfig;
use crate::error::LwgError;
use crate::events::LwgEvents;
use crate::node::LwgNode;
use crate::service::LwgService;
use plwg_hwg::HwgSubstrate;
use plwg_sim::NodeId;

/// Builds an [`LwgService`] for one node. Created by
/// [`LwgService::builder`]; most applications want the node-level
/// variant, [`LwgNode::builder`].
#[derive(Debug)]
pub struct LwgBuilder<S: HwgSubstrate> {
    me: NodeId,
    servers: Vec<NodeId>,
    cfg: LwgConfig,
    substrate: Option<S>,
}

impl<S: HwgSubstrate> LwgBuilder<S> {
    pub(crate) fn new(me: NodeId) -> Self {
        LwgBuilder {
            me,
            servers: Vec::new(),
            cfg: LwgConfig::default(),
            substrate: None,
        }
    }

    /// Sets the name servers the service registers mappings with. At
    /// least one is required; [`LwgBuilder::build`] rejects an empty list
    /// with [`LwgError::NoServers`].
    pub fn servers(mut self, servers: impl IntoIterator<Item = NodeId>) -> Self {
        self.servers = servers.into_iter().collect();
        self
    }

    /// Sets the service configuration (defaults to
    /// [`LwgConfig::default`]). `cfg.hwg.auto_stop_ok` is forced to
    /// `false` — the service answers `Stop` itself after advertising its
    /// views.
    pub fn config(mut self, cfg: LwgConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Injects an already-built substrate endpoint instead of having the
    /// builder create one from `cfg.hwg`. The endpoint must belong to the
    /// builder's node ([`LwgError::SubstrateNodeMismatch`] otherwise).
    pub fn substrate(mut self, substrate: S) -> Self {
        self.substrate = Some(substrate);
        self
    }

    /// Validates the configuration and assembles the service.
    pub fn build(self) -> Result<LwgService<S>, LwgError> {
        let mut cfg = self.cfg;
        cfg.hwg.auto_stop_ok = false;
        cfg.validate()?;
        if self.servers.is_empty() {
            return Err(LwgError::NoServers);
        }
        let substrate = match self.substrate {
            Some(s) => {
                if s.node() != self.me {
                    return Err(LwgError::SubstrateNodeMismatch {
                        expected: self.me,
                        actual: s.node(),
                    });
                }
                s
            }
            None => S::build(self.me, &cfg.hwg),
        };
        Ok(LwgService::from_parts(substrate, self.servers, cfg))
    }
}

/// Builds an [`LwgNode`] (the ready-made [`plwg_sim::Process`] wrapper).
/// Created by [`LwgNode::builder`]; same setters as [`LwgBuilder`].
#[derive(Debug)]
pub struct LwgNodeBuilder<S: HwgSubstrate> {
    inner: LwgBuilder<S>,
}

impl<S: HwgSubstrate> LwgNodeBuilder<S> {
    pub(crate) fn new(me: NodeId) -> Self {
        LwgNodeBuilder {
            inner: LwgBuilder::new(me),
        }
    }

    /// Sets the name servers (see [`LwgBuilder::servers`]).
    pub fn servers(mut self, servers: impl IntoIterator<Item = NodeId>) -> Self {
        self.inner = self.inner.servers(servers);
        self
    }

    /// Sets the service configuration (see [`LwgBuilder::config`]).
    pub fn config(mut self, cfg: LwgConfig) -> Self {
        self.inner = self.inner.config(cfg);
        self
    }

    /// Injects a pre-built substrate (see [`LwgBuilder::substrate`]).
    pub fn substrate(mut self, substrate: S) -> Self {
        self.inner = self.inner.substrate(substrate);
        self
    }

    /// Validates the configuration and assembles the node.
    pub fn build(self) -> Result<LwgNode<S>, LwgError> {
        Ok(LwgNode::from_service(
            self.inner.build()?,
            LwgEvents::default(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScriptedHwg;

    #[test]
    fn builds_with_defaults() {
        let svc: LwgService<ScriptedHwg> = LwgService::builder(NodeId(1))
            .servers([NodeId(0)])
            .build()
            .expect("valid");
        assert_eq!(svc.node(), NodeId(1));
        assert!(
            !svc.config().hwg.auto_stop_ok,
            "service answers Stop itself"
        );
    }

    #[test]
    fn rejects_missing_servers() {
        let err = LwgService::<ScriptedHwg>::builder(NodeId(1))
            .build()
            .expect_err("no servers");
        assert_eq!(err, LwgError::NoServers);
    }

    #[test]
    fn rejects_invalid_config_with_field() {
        let err = LwgNode::<ScriptedHwg>::builder(NodeId(1))
            .servers([NodeId(0)])
            .config(LwgConfig {
                pack_max_msgs: 0,
                ..LwgConfig::default()
            })
            .build()
            .expect_err("invalid");
        match err {
            LwgError::Config(e) => assert_eq!(e.field, "pack_max_msgs"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_foreign_substrate() {
        let foreign = ScriptedHwg::new(NodeId(7));
        let err = LwgService::builder(NodeId(1))
            .servers([NodeId(0)])
            .substrate(foreign)
            .build()
            .expect_err("mismatch");
        assert_eq!(
            err,
            LwgError::SubstrateNodeMismatch {
                expected: NodeId(1),
                actual: NodeId(7),
            }
        );
    }

    #[test]
    fn accepts_matching_substrate() {
        let node = LwgNode::builder(NodeId(2))
            .servers([NodeId(0), NodeId(1)])
            .substrate(ScriptedHwg::new(NodeId(2)))
            .build()
            .expect("valid");
        assert_eq!(node.service_ref().node(), NodeId(2));
    }
}
