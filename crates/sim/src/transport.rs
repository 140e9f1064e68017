//! The transport seam: the action surface a protocol endpoint needs.
//!
//! Every protocol state machine in this workspace (the vsync stack, the
//! naming client/server, the LWG service) acts on the outside world through
//! exactly seven verbs: read the clock, learn its own id, send or broadcast
//! a frame, arm or disarm a timer, and record metrics/trace events.
//! [`Transport`] is that surface as an object-safe trait, so the *same*
//! protocol code runs over two very different runtimes:
//!
//! * [`crate::World`] — the deterministic discrete-event simulator
//!   (virtual time, modelled loss and partitions), which lends each
//!   callback its crate-private `Context`;
//! * `plwg_net::NetRuntime` — a poll-based reactor over real non-blocking
//!   UDP sockets (wall-clock time, real loss and real partitions).
//!
//! Protocol code takes `ctx: &mut dyn Transport` and cannot tell which one
//! it is on — the property the paper's §7 prototype claims ("the service
//! runs unchanged over the simulator and over Horus") and that the
//! multi-process partition-heal example demonstrates end-to-end.
//!
//! Deliberately **absent**: any oracle about the network. A protocol cannot ask "is node X reachable?" — it
//! discovers failures the way the paper's protocols do, through timeouts
//! and message exchange. Also absent is ambient randomness: protocol
//! state machines are deterministic functions of their inputs.

use crate::metrics::MetricsRegistry;
use crate::node::{NodeId, Payload, TimerToken};
use crate::time::{SimDuration, SimTime};
use crate::trace::{ProtocolEvent, Trace};

/// The action surface lent to a protocol endpoint for one callback.
///
/// Implementations: the simulator's (virtual time) and the
/// real-socket runtime in `plwg-net` (wall-clock time). See the module
/// docs for the contract both uphold.
pub trait Transport {
    /// The current protocol time: virtual on the simulator, wall-clock
    /// micros since runtime start on a real network (see
    /// [`crate::time::Clock`]). Monotone within a run either way, so
    /// deadline arithmetic (`now + timeout`, compared on a later tick)
    /// behaves identically on both.
    fn now(&self) -> SimTime;

    /// The node this endpoint runs on.
    fn id(&self) -> NodeId;

    /// Sends `msg` to `to`. Delivery is unreliable on both runtimes: the
    /// simulator models loss and partitions, UDP provides them for real.
    fn send(&mut self, to: NodeId, msg: Payload);

    /// Broadcasts `msg` to every other known node (the stand-in for the
    /// paper's IP-multicast probes and beacons). On the simulator this is
    /// every node of the world; on a real network, every peer in the
    /// runtime's address book.
    fn broadcast(&mut self, msg: Payload);

    /// Arms (or re-arms) the timer slot `token` to fire after `delay`.
    fn set_timer(&mut self, delay: SimDuration, token: TimerToken);

    /// Disarms the timer slot `token`; a no-op if it is not pending.
    fn cancel_timer(&mut self, token: TimerToken);

    /// The runtime's metric registry (counters, gauges and histograms).
    fn metrics(&mut self) -> &mut MetricsRegistry;

    /// The runtime's trace sink. Prefer [`TransportExt::emit`], which
    /// stamps the event with this endpoint's time and id.
    fn trace(&mut self) -> &mut Trace;
}

/// Extension methods that cannot live on the object-safe [`Transport`]
/// trait itself (they are generic). Blanket-implemented for every
/// transport, including `dyn Transport`.
pub trait TransportExt: Transport {
    /// Records a typed protocol trace event attributed to this node.
    ///
    /// The closure producing the event is only evaluated when tracing is
    /// enabled, so disabled (benchmark) runs pay a single branch.
    fn emit<E: ProtocolEvent>(&mut self, event: impl FnOnce() -> E) {
        let now = self.now();
        let node = self.id();
        self.trace().record(now, Some(node), event);
    }
}

impl<T: Transport + ?Sized> TransportExt for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SimEvent;
    use std::collections::VecDeque;

    /// A loopback transport for unit tests: sends queue locally, timers
    /// are recorded but never fire.
    struct Loopback {
        now: SimTime,
        me: NodeId,
        sent: VecDeque<(NodeId, Payload)>,
        timers: Vec<(SimDuration, TimerToken)>,
        metrics: MetricsRegistry,
        trace: Trace,
    }

    impl Transport for Loopback {
        fn now(&self) -> SimTime {
            self.now
        }
        fn id(&self) -> NodeId {
            self.me
        }
        fn send(&mut self, to: NodeId, msg: Payload) {
            self.sent.push_back((to, msg));
        }
        fn broadcast(&mut self, msg: Payload) {
            self.send(NodeId(u32::MAX), msg);
        }
        fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
            self.timers.push((delay, token));
        }
        fn cancel_timer(&mut self, token: TimerToken) {
            self.timers.retain(|(_, t)| *t != token);
        }
        fn metrics(&mut self) -> &mut MetricsRegistry {
            &mut self.metrics
        }
        fn trace(&mut self) -> &mut Trace {
            &mut self.trace
        }
    }

    #[test]
    fn emit_works_through_a_trait_object() {
        let mut lb = Loopback {
            now: SimTime::from_micros(42),
            me: NodeId(3),
            sent: VecDeque::new(),
            timers: Vec::new(),
            metrics: MetricsRegistry::new(),
            trace: Trace::new(true),
        };
        let dynref: &mut dyn Transport = &mut lb;
        dynref.emit(|| SimEvent::Heal);
        assert_eq!(lb.trace.count("world.heal"), 1);
        let ev = lb.trace.first("world.heal").expect("recorded");
        assert_eq!(ev.node, Some(NodeId(3)));
        assert_eq!(ev.time, SimTime::from_micros(42));
    }
}
