//! # plwg-sim — deterministic discrete-event simulation substrate
//!
//! This crate provides the execution substrate on which the whole PLWG stack
//! (heavy-weight groups, naming service, light-weight group service) runs:
//! a single-threaded, fully deterministic discrete-event simulator with an
//! explicit network model that supports **partitions** — the phenomenon the
//! reproduced paper (Rodrigues & Guo, *Partitionable Light-Weight Groups*,
//! ICDCS 2000) is about.
//!
//! The simulator replaces the paper's physical testbed (Horus on SPARC
//! workstations over 10 Mbps Ethernet). Protocol code written against the
//! [`Process`] trait and the [`Transport`] seam is oblivious to the fact
//! that it runs in virtual time.
//!
//! ## Quick tour
//!
//! Payloads are encoded byte [`Frame`]s — the simulator moves bytes, and
//! protocol crates bring their own codec (see `plwg-wire`).
//!
//! ```
//! use plwg_sim::{World, WorldConfig, Process, Transport, Frame, TimerToken, Payload};
//!
//! /// A process that says hello to its peer once.
//! struct Hello { peer: Option<plwg_sim::NodeId> }
//!
//! impl Process for Hello {
//!     fn on_start(&mut self, ctx: &mut dyn Transport) {
//!         if let Some(peer) = self.peer {
//!             ctx.send(peer, Frame::copy_from_slice(b"hi"));
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut dyn Transport, from: plwg_sim::NodeId, msg: Payload) {
//!         assert_eq!(&msg[..], b"hi");
//!         println!("got {} bytes from {from}", msg.len());
//!     }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut world = World::new(WorldConfig::default());
//! let b = world.add_node(Box::new(Hello { peer: None }));
//! let _a = world.add_node(Box::new(Hello { peer: Some(b) }));
//! world.run_for(plwg_sim::SimDuration::from_secs(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config_error;
mod event;
pub mod keys;
mod metrics;
mod net;
mod node;
mod rng;
mod time;
mod topology;
mod trace;
mod transport;
mod world;

pub use config_error::ConfigError;
pub use event::{EventQueue, QueuedEvent};
pub use metrics::{
    metric_family, CounterKey, GaugeKey, Histogram, HistogramKey, HistogramSummary, MetricsRegistry,
};
pub use net::{DeliveryDecision, NetConfig};
pub use node::{NodeId, Payload, Process, TimerToken};
pub use plwg_wire::{
    decode_frame, encode_frame, family, peek_family, Decode, Encode, Frame, Reader, WireError,
};
pub use rng::SimRng;
pub use time::{Clock, ManualClock, SimDuration, SimTime};
pub use topology::{ComponentId, LinkState, Topology};
pub use trace::{EventRefs, ProtocolEvent, SimEvent, Trace, TraceEvent, TraceLayer};
pub use transport::{Transport, TransportExt};
pub use world::{World, WorldConfig};
