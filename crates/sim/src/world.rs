//! The simulation driver: owns the nodes, the clock, the network and the
//! event queue, and advances virtual time.

use crate::event::{EventKind, EventQueue};
use crate::keys;
use crate::metrics::MetricsRegistry;
use crate::net::NetConfig;
use crate::node::{Context, NodeId, Process, TimerToken};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::{SimEvent, Trace};
use std::collections::BTreeMap;

/// Construction parameters for a [`World`].
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Seed for all randomness in the run.
    pub seed: u64,
    /// Network model parameters.
    pub net: NetConfig,
    /// Whether to record a structured trace (tests: yes, benches: no).
    pub trace: bool,
    /// Per-message receive-processing cost. A node handles one delivery at
    /// a time; while busy, further deliveries queue. `ZERO` (the default)
    /// models infinitely fast hosts. A non-zero cost is what makes
    /// *interference* measurable: a process co-hosting many groups pays for
    /// every message it must at least examine and filter.
    pub proc_time: SimDuration,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0,
            net: NetConfig::default(),
            trace: false,
            proc_time: SimDuration::ZERO,
        }
    }
}

/// A complete simulated distributed system.
///
/// Nodes are added with [`World::add_node`]; faults and experiment actions
/// are scheduled with [`World::schedule_at`] and the convenience helpers
/// ([`World::crash_at`], [`World::split_at`], [`World::heal_at`], …); time
/// advances with [`World::run_for`] / [`World::run_until`].
pub struct World {
    now: SimTime,
    queue: EventQueue,
    topology: Topology,
    net: NetConfig,
    rng: SimRng,
    trace: Trace,
    metrics: MetricsRegistry,
    nodes: Vec<Option<Box<dyn Process>>>,
    alive: Vec<bool>,
    timer_slots: BTreeMap<(NodeId, TimerToken), u64>,
    proc_time: SimDuration,
    busy_until: Vec<SimTime>,
}

impl World {
    /// Creates an empty world.
    ///
    /// # Panics
    ///
    /// Panics if the network configuration is invalid (see
    /// [`NetConfig::validate`]).
    pub fn new(config: WorldConfig) -> Self {
        config.net.validate();
        World {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            topology: Topology::fully_connected(0),
            net: config.net,
            rng: SimRng::from_seed(config.seed),
            trace: Trace::new(config.trace),
            metrics: MetricsRegistry::new(),
            nodes: Vec::new(),
            alive: Vec::new(),
            timer_slots: BTreeMap::new(),
            proc_time: config.proc_time,
            busy_until: Vec::new(),
        }
    }

    /// Adds a node running `process` and schedules its
    /// [`Process::on_start`] at the current time. Returns its id.
    pub fn add_node(&mut self, process: Box<dyn Process>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(process));
        self.alive.push(true);
        self.busy_until.push(SimTime::ZERO);
        self.topology.grow();
        self.queue.push(
            self.now,
            EventKind::Control(Box::new(move |w: &mut World| {
                w.with_node(id, |p, ctx| p.on_start(ctx));
            })),
        );
        id
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes ever added.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `node` is currently up.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Read access to the connectivity model.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable access to the connectivity model (immediate effect; to change
    /// topology at a future instant use [`World::split_at`] etc.).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// The collected metrics.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to metrics (for experiment probes).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace (e.g. to clear after warm-up).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// The world's random number generator.
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Schedules an arbitrary control action at virtual time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut World) + 'static) {
        assert!(
            at >= self.now,
            "cannot schedule in the past ({at} < {})",
            self.now
        );
        self.queue.push(at, EventKind::Control(Box::new(f)));
    }

    /// Schedules a control action `after` from now.
    pub fn schedule_in(&mut self, after: SimDuration, f: impl FnOnce(&mut World) + 'static) {
        let at = self.now + after;
        self.schedule_at(at, f);
    }

    /// Crashes `node` immediately: it stops receiving messages and timers
    /// until [`World::restart`].
    pub fn crash(&mut self, node: NodeId) {
        if !self.alive[node.index()] {
            return;
        }
        self.alive[node.index()] = false;
        let now = self.now;
        self.trace.record(now, None, || SimEvent::Crash(node));
        if let Some(p) = self.nodes[node.index()].as_mut() {
            p.on_crash(now);
        }
    }

    /// Restarts a crashed node: it becomes alive and
    /// [`Process::on_start`] runs again (the process keeps whatever state
    /// survives in its own struct — protocols model stable storage there).
    pub fn restart(&mut self, node: NodeId) {
        if self.alive[node.index()] {
            return;
        }
        self.alive[node.index()] = true;
        let now = self.now;
        self.trace.record(now, None, || SimEvent::Restart(node));
        self.with_node(node, |p, ctx| p.on_start(ctx));
    }

    /// Schedules a crash of `node` at `at`.
    pub fn crash_at(&mut self, at: SimTime, node: NodeId) {
        self.schedule_at(at, move |w| w.crash(node));
    }

    /// Schedules a restart of `node` at `at`.
    pub fn restart_at(&mut self, at: SimTime, node: NodeId) {
        self.schedule_at(at, move |w| w.restart(node));
    }

    /// Schedules a network split at `at`; `groups` must partition all nodes.
    pub fn split_at(&mut self, at: SimTime, groups: Vec<Vec<NodeId>>) {
        self.schedule_at(at, move |w| {
            let refs: Vec<&[NodeId]> = groups.iter().map(Vec::as_slice).collect();
            w.topology.split(&refs);
            let now = w.now;
            w.trace.record(now, None, || SimEvent::Split(groups));
        });
    }

    /// Schedules a full heal at `at`.
    pub fn heal_at(&mut self, at: SimTime) {
        self.schedule_at(at, |w| {
            w.topology.heal_all();
            let now = w.now;
            w.trace.record(now, None, || SimEvent::Heal);
        });
    }

    // ------------------------------------------------------------------
    // Direct node access
    // ------------------------------------------------------------------

    /// Calls `f` on the concrete process at `node` with a live [`Context`]
    /// — the way experiment drivers issue API calls ("join group g now").
    ///
    /// # Panics
    ///
    /// Panics if the node is crashed or the process is not of type `P`.
    pub fn invoke<P: Process, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut P, &mut Context<'_>) -> R,
    ) -> R {
        self.with_node(node, |p, ctx| {
            let p = p
                .as_any_mut()
                .downcast_mut::<P>()
                .expect("invoke: process has a different concrete type");
            f(p, ctx)
        })
        .expect("invoke: node is crashed")
    }

    /// Schedules an [`World::invoke`] at a future time.
    pub fn invoke_at<P: Process>(
        &mut self,
        at: SimTime,
        node: NodeId,
        f: impl FnOnce(&mut P, &mut Context<'_>) + 'static,
    ) {
        self.schedule_at(at, move |w| {
            w.invoke(node, f);
        });
    }

    /// Read-only inspection of the concrete process state at `node`
    /// (works on crashed nodes too — useful to examine post-crash state).
    ///
    /// # Panics
    ///
    /// Panics if the process is not of type `P`.
    pub fn inspect<P: Process, R>(&mut self, node: NodeId, f: impl FnOnce(&P) -> R) -> R {
        let p = self.nodes[node.index()]
            .as_mut()
            .expect("inspect: node slot empty (re-entrant world access)")
            .as_any_mut()
            .downcast_mut::<P>()
            .expect("inspect: process has a different concrete type");
        f(p)
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Executes the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event queue went backwards");
        self.now = ev.time;
        match ev.kind {
            EventKind::Deliver { to, from, msg } => {
                // Reachability is also checked at delivery time: a partition
                // that forms while a message is in flight cuts it off. This
                // makes splits crisp (no stragglers cross the cut).
                if self.alive[to.index()] && self.topology.can_reach(from, to) {
                    // Receive-processing model: one message at a time per
                    // node; deliveries queue while the node is busy.
                    if self.proc_time > SimDuration::ZERO {
                        let busy = self.busy_until[to.index()];
                        if self.now < busy {
                            self.queue.push(busy, EventKind::Deliver { to, from, msg });
                            return true;
                        }
                        self.busy_until[to.index()] = self.now + self.proc_time;
                    }
                    self.metrics.incr(keys::NET_DELIVERED);
                    self.with_node(to, |p, ctx| p.on_message(ctx, from, msg));
                } else {
                    self.metrics.incr(keys::NET_DROPPED);
                }
            }
            EventKind::Timer {
                node,
                token,
                generation,
            } => {
                let live = self.timer_slots.get(&(node, token)) == Some(&generation);
                if live && self.alive[node.index()] {
                    self.with_node(node, |p, ctx| p.on_timer(ctx, token));
                }
            }
            EventKind::Control(f) => f(self),
        }
        true
    }

    /// Runs until the virtual clock reaches `deadline` (events at exactly
    /// `deadline` are executed). The clock always ends at `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `span` of virtual time from now.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut dyn Process, &mut Context<'_>) -> R,
    ) -> Option<R> {
        if !self.alive[id.index()] {
            return None;
        }
        let mut node = self.nodes[id.index()].take()?;
        let mut ctx = Context {
            now: self.now,
            self_id: id,
            queue: &mut self.queue,
            topology: &self.topology,
            net: &self.net,
            rng: &mut self.rng,
            trace: &mut self.trace,
            metrics: &mut self.metrics,
            timer_slots: &mut self.timer_slots,
            alive: &self.alive,
        };
        let r = f(node.as_mut(), &mut ctx);
        self.nodes[id.index()] = Some(node);
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Payload;
    use crate::Transport;
    use plwg_wire::Frame;
    use std::any::Any;

    /// Test payload: a bare 8-byte little-endian integer frame.
    fn payload(v: u32) -> Payload {
        Frame::from_u64(v as u64)
    }

    /// Echoes every message back and counts what it saw.
    struct Echo {
        received: Vec<(NodeId, u32)>,
        timer_fired: u32,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                received: Vec::new(),
                timer_fired: 0,
            }
        }
    }

    impl Process for Echo {
        fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
            let v = msg.try_u64().expect("u64 payload") as u32;
            self.received.push((from, v));
            if v < 100 {
                ctx.send(from, payload(v + 1));
            }
        }
        fn on_timer(&mut self, _ctx: &mut dyn Transport, _token: TimerToken) {
            self.timer_fired += 1;
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_node_world() -> (World, NodeId, NodeId) {
        let mut w = World::new(WorldConfig::default());
        let a = w.add_node(Box::new(Echo::new()));
        let b = w.add_node(Box::new(Echo::new()));
        (w, a, b)
    }

    #[test]
    fn ping_pong_until_limit() {
        let (mut w, a, b) = two_node_world();
        w.invoke(a, |_: &mut Echo, ctx| ctx.send(b, payload(98u32)));
        w.run_for(SimDuration::from_secs(1));
        // b sees 98, replies 99; a sees 99, replies 100; b sees 100, stops.
        w.inspect(b, |e: &Echo| {
            assert_eq!(e.received, vec![(a, 98), (a, 100)]);
        });
        w.inspect(a, |e: &Echo| {
            assert_eq!(e.received, vec![(b, 99)]);
        });
    }

    #[test]
    fn crash_stops_delivery_and_restart_resumes() {
        let (mut w, a, b) = two_node_world();
        w.run_for(SimDuration::from_millis(1));
        w.crash(b);
        w.invoke(a, |_: &mut Echo, ctx| ctx.send(b, payload(100u32)));
        w.run_for(SimDuration::from_secs(1));
        w.inspect(b, |e: &Echo| assert!(e.received.is_empty()));
        w.restart(b);
        w.invoke(a, |_: &mut Echo, ctx| ctx.send(b, payload(100u32)));
        w.run_for(SimDuration::from_secs(1));
        w.inspect(b, |e: &Echo| assert_eq!(e.received, vec![(a, 100)]));
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let (mut w, a, b) = two_node_world();
        w.split_at(SimTime::from_micros(10), vec![vec![a], vec![b]]);
        w.heal_at(SimTime::from_micros(2_000_000));
        w.invoke_at(SimTime::from_micros(100), a, move |_: &mut Echo, ctx| {
            ctx.send(b, payload(100u32))
        });
        w.invoke_at(
            SimTime::from_micros(3_000_000),
            a,
            move |_: &mut Echo, ctx| ctx.send(b, payload(100u32)),
        );
        w.run_for(SimDuration::from_secs(5));
        w.inspect(b, |e: &Echo| assert_eq!(e.received.len(), 1));
    }

    #[test]
    fn timer_slots_reschedule_and_cancel() {
        struct T {
            fired: Vec<u64>,
        }
        impl Process for T {
            fn on_start(&mut self, ctx: &mut dyn Transport) {
                ctx.set_timer(SimDuration::from_millis(10), TimerToken(1));
                ctx.set_timer(SimDuration::from_millis(20), TimerToken(2));
                // Re-arm token 1 further out: only the re-armed instance fires.
                ctx.set_timer(SimDuration::from_millis(30), TimerToken(1));
                ctx.set_timer(SimDuration::from_millis(40), TimerToken(3));
                ctx.cancel_timer(TimerToken(3));
            }
            fn on_message(&mut self, _: &mut dyn Transport, _: NodeId, _: Payload) {}
            fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
                self.fired
                    .push(token.0 * 1_000_000 + ctx.now().as_micros() / 1_000);
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(WorldConfig::default());
        let a = w.add_node(Box::new(T { fired: vec![] }));
        w.run_for(SimDuration::from_secs(1));
        w.inspect(a, |t: &T| {
            assert_eq!(t.fired, vec![2_000_020, 1_000_030]);
        });
    }

    #[test]
    fn broadcast_reaches_component_only() {
        let mut w = World::new(WorldConfig::default());
        let a = w.add_node(Box::new(Echo::new()));
        let b = w.add_node(Box::new(Echo::new()));
        let c = w.add_node(Box::new(Echo::new()));
        w.topology_mut().split(&[&[a, b], &[c]]);
        w.invoke(a, |_: &mut Echo, ctx| ctx.broadcast(payload(100u32)));
        w.run_for(SimDuration::from_secs(1));
        w.inspect(b, |e: &Echo| assert_eq!(e.received.len(), 1));
        w.inspect(c, |e: &Echo| assert!(e.received.is_empty()));
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let run = |seed| {
            let mut w = World::new(WorldConfig {
                seed,
                net: NetConfig {
                    loss: 0.2,
                    ..NetConfig::default()
                },
                ..WorldConfig::default()
            });
            let a = w.add_node(Box::new(Echo::new()));
            let b = w.add_node(Box::new(Echo::new()));
            w.invoke(a, |_: &mut Echo, ctx| {
                for _ in 0..50 {
                    ctx.send(b, payload(0u32))
                }
            });
            w.run_for(SimDuration::from_secs(10));
            (
                w.metrics().counter(crate::keys::NET_DELIVERED),
                w.metrics().counter(crate::keys::NET_DROPPED),
            )
        };
        assert_eq!(run(42), run(42));
        // With 20% loss and 50+ messages the streams of different seeds
        // should almost surely differ.
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut w = World::new(WorldConfig::default());
        w.run_until(SimTime::from_micros(500));
        assert_eq!(w.now(), SimTime::from_micros(500));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn schedule_in_past_rejected() {
        let mut w = World::new(WorldConfig::default());
        w.run_until(SimTime::from_micros(100));
        w.schedule_at(SimTime::from_micros(50), |_| {});
    }
}
