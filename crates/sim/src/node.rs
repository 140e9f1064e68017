//! Processes and the simulator's [`Transport`] through which they act on
//! the world.
//!
//! Every protocol participant (a group-communication endpoint, a name
//! server, an application process) implements [`Process`]. The simulator
//! invokes its callbacks with a `&mut dyn Transport` that provides the only
//! side-effects a process may have: sending messages, arming timers, and
//! recording trace/metric events. Behind it is the crate-private
//! `Context`, which holds the world's queue, network model and clocks for
//! the duration of one callback.

use crate::event::{EventKind, EventQueue};
use crate::keys;
use crate::metrics::MetricsRegistry;
use crate::net::NetConfig;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::Trace;
use crate::transport::Transport;
use plwg_wire::Frame;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;

/// Identifies a simulated node (one process per node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index of the node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

plwg_wire::wire_struct!(NodeId { 0 });

/// An opaque, process-chosen timer identifier.
///
/// Each token names a *slot*: re-arming a token that is already pending
/// reschedules it, and [`Transport::cancel_timer`] disarms it. Protocols
/// that need many concurrent timers use distinct tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(pub u64);

/// A message payload: a shared immutable byte [`Frame`].
///
/// Every message on the simulated network is encoded bytes — there is no
/// typed side channel. Cloning a payload (e.g. to fan a multicast out to
/// its receivers) bumps a reference count; it never copies the bytes.
/// Receivers route frames by peeking the leading family tag
/// ([`plwg_wire::peek_family`]) and decode with the owning crate's codec.
pub type Payload = Frame;

/// A process: the unit of computation placed on a node.
///
/// Callbacks act on the world through the [`Transport`] seam, so the same
/// process runs on a simulated node ([`crate::World::add_node`]) or on a
/// real-socket runtime (`plwg-net`).
/// All callbacks run to completion atomically — both runtimes are
/// single-threaded per node — so state machines need no internal locking.
pub trait Process: 'static {
    /// Called once when the node starts (and again after a restart is
    /// requested via [`crate::World::restart`]).
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        let _ = ctx;
    }

    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload);

    /// Called when a timer armed by this process fires.
    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        let _ = (ctx, token);
    }

    /// Called when the node crashes. No [`Transport`] is available: a crashed
    /// process can have no further effects.
    fn on_crash(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Escape hatch for experiment drivers to reach the concrete type via
    /// [`crate::World::invoke`]. Implement as `fn as_any_mut(&mut self) ->
    /// &mut dyn Any { self }`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The simulator's [`Transport`]: what [`crate::World`] lends a process
/// for the duration of one callback. Protocol code sees only the trait.
pub(crate) struct Context<'a> {
    pub(crate) now: SimTime,
    pub(crate) self_id: NodeId,
    pub(crate) queue: &'a mut EventQueue,
    pub(crate) topology: &'a Topology,
    pub(crate) net: &'a NetConfig,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) trace: &'a mut Trace,
    pub(crate) metrics: &'a mut MetricsRegistry,
    pub(crate) timer_slots: &'a mut BTreeMap<(NodeId, TimerToken), u64>,
    pub(crate) alive: &'a [bool],
}

impl Transport for Context<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn id(&self) -> NodeId {
        self.self_id
    }

    /// Delivery is subject to the network model: the message may be
    /// dropped (loss, partition) and arrives after a sampled latency.
    /// Sending to self is allowed and goes through the same model.
    fn send(&mut self, to: NodeId, msg: Payload) {
        self.metrics.incr(keys::NET_SENT);
        self.metrics.add(keys::NET_BYTES_SENT, msg.len() as u64);
        self.metrics
            .observe(keys::NET_FRAME_BYTES, msg.len() as u64);
        let decision = self.net.decide(self.topology, self.rng, self.self_id, to);
        match decision {
            crate::net::DeliveryDecision::Deliver(latency) => {
                self.queue.push(
                    self.now + latency,
                    EventKind::Deliver {
                        to,
                        from: self.self_id,
                        msg,
                    },
                );
            }
            crate::net::DeliveryDecision::Drop => {
                self.metrics.incr(keys::NET_DROPPED);
            }
        }
    }

    /// Every *other* node of the world receives an independent copy
    /// subject to the network model; partitioned nodes never receive it.
    fn broadcast(&mut self, msg: Payload) {
        for i in 0..self.alive.len() {
            let to = NodeId(i as u32);
            if to != self.self_id {
                self.send(to, msg.clone());
            }
        }
    }

    fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let slot = self.timer_slots.entry((self.self_id, token)).or_insert(0);
        *slot += 1;
        self.queue.push(
            self.now + delay,
            EventKind::Timer {
                node: self.self_id,
                token,
                generation: *slot,
            },
        );
    }

    fn cancel_timer(&mut self, token: TimerToken) {
        if let Some(slot) = self.timer_slots.get_mut(&(self.self_id, token)) {
            *slot += 1;
        }
    }

    fn metrics(&mut self) -> &mut MetricsRegistry {
        self.metrics
    }

    fn trace(&mut self) -> &mut Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plwg_wire::{Decode, Encode, Reader};

    #[test]
    fn node_id_wire_roundtrip() {
        let mut out = Vec::new();
        NodeId(300).encode_into(&mut out);
        let f = Frame::from_vec(out);
        let mut r = Reader::new(&f);
        assert_eq!(NodeId::decode_from(&mut r), Ok(NodeId(300)));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(NodeId(7).index(), 7);
    }
}
