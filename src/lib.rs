//! # plwg — Partitionable Light-Weight Groups
//!
//! A Rust reproduction of **"Partitionable Light-Weight Groups"**
//! (Luís Rodrigues and Katherine Guo, ICDCS 2000): a group-communication
//! service that multiplexes many user-level *light-weight groups* (LWGs)
//! onto a small pool of virtually-synchronous *heavy-weight groups* (HWGs),
//! and — the paper's contribution — keeps doing so across **network
//! partitions**, reconciling the conflicting mapping decisions concurrent
//! partitions make once they heal.
//!
//! This crate is a facade re-exporting the workspace's layers:
//!
//! * [`sim`] — deterministic discrete-event simulator (network, partitions,
//!   virtual time, fault injection);
//! * [`vsync`] — partitionable virtually-synchronous group communication
//!   (the HWG layer: membership, flush, view-tagged multicast, merge);
//! * [`naming`] — the weakly-consistent replicated naming service with
//!   reconciliation and MULTIPLE-MAPPINGS callbacks;
//! * [`core`] — the light-weight group service itself (mapping policies,
//!   switching, and the four-step partition-heal procedure);
//! * [`net`] — the real-socket substrate: a poll-based UDP reactor and
//!   multi-process harness running the same stack over actual datagrams
//!   (`cargo run --example partition_heal_net`);
//! * [`obs`] — observability: causal protocol timelines built from the
//!   typed trace (`cargo run --bin timeline -- heal`).
//!
//! The experiment workloads and runners regenerating the paper's
//! evaluation live in the `plwg-bench` crate, behind its one `reproduce`
//! binary.
//!
//! ## Quickstart
//!
//! ```
//! use plwg::prelude::*;
//!
//! // A simulated world with one name server and two application nodes.
//! let mut world = World::new(WorldConfig::default());
//! let ns = world.add_node(Box::new(NameServer::new(
//!     NodeId(0),
//!     vec![],
//!     NamingConfig::default(),
//! )));
//! let a = world.add_node(Box::new(
//!     LwgNode::builder(NodeId(1)).servers([ns]).build().unwrap(),
//! ));
//! let b = world.add_node(Box::new(
//!     LwgNode::builder(NodeId(2)).servers([ns]).build().unwrap(),
//! ));
//!
//! // Both join light-weight group 7 and exchange a message.
//! let g = LwgId(7);
//! world.invoke(a, move |n: &mut LwgNode, ctx| n.service().join(ctx, g));
//! world.invoke_at(
//!     SimTime::from_micros(2_000_000),
//!     b,
//!     move |n: &mut LwgNode, ctx| n.service().join(ctx, g),
//! );
//! world.run_for(SimDuration::from_secs(10));
//! world.invoke(a, move |n: &mut LwgNode, ctx| {
//!     n.service().send(ctx, g, plwg::sim::Frame::from_u64(42))
//! });
//! world.run_for(SimDuration::from_secs(1));
//! let got: Vec<u64> = world.inspect(b, |n: &LwgNode| n.events_ref().data_from(g, a));
//! assert_eq!(got, vec![42]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use plwg_core as core;
pub use plwg_hwg as hwg;
pub use plwg_naming as naming;
pub use plwg_net as net;
pub use plwg_obs as obs;
pub use plwg_sim as sim;
pub use plwg_vsync as vsync;

/// The most commonly used items, for `use plwg::prelude::*`.
///
/// `LwgNode` and `LwgService` are the **production instantiations** of the
/// generic types in [`plwg_core`], fixed to the [`plwg_vsync::VsyncStack`]
/// substrate. To swap the substrate (e.g. [`plwg_core::ScriptedHwg`] in
/// protocol tests), use the generic types from [`plwg_core`] directly.
pub mod prelude {
    pub use plwg_core::{
        HwgId, HwgSubstrate, LwgConfig, LwgError, LwgEvent, LwgEvents, LwgId, View, ViewId,
    };
    pub use plwg_naming::{Mapping, NameServer, NamingConfig, NsClient, NsEvent};
    pub use plwg_net::{NetOptions, NetRuntime, NetSubstrate};
    pub use plwg_sim::{
        Context, Frame, NodeId, Payload, Process, SimDuration, SimTime, World, WorldConfig,
    };
    pub use plwg_vsync::{VsEvent, VsyncConfig, VsyncStack};

    /// The LWG service over the production virtual-synchrony substrate.
    pub type LwgService = plwg_core::LwgService<VsyncStack>;
    /// The ready-made simulated node over the production substrate.
    pub type LwgNode = plwg_core::LwgNode<VsyncStack>;
    /// The same node over the real-socket substrate (`plwg-net`).
    pub type NetLwgNode = plwg_core::LwgNode<NetSubstrate>;
}
