//! Peer lifecycle, send-queue backpressure and the heartbeat failure
//! detector — as a pure state machine.
//!
//! [`PeerPool`] holds no socket: it decides *what* should be sent and
//! *when* a peer changes state, and the runtime performs the I/O. That
//! split keeps the connection lifecycle deterministic and unit-testable
//! with a [`plwg_sim::ManualClock`] — the same discipline the protocol
//! crates follow on the simulator.
//!
//! Lifecycle per peer: [`PeerState::Greeting`] (hello sent, nothing heard
//! yet) → [`PeerState::Up`] (any datagram heard recently) →
//! [`PeerState::Down`] (silent past the suspect timeout, or said bye);
//! Down peers keep receiving hellos, so a healed partition reconnects
//! without outside help.
//!
//! While a peer is not `Up`, frames addressed to it wait in a bounded
//! per-peer queue; the queue drains the moment the peer comes up, and
//! overflow drops the newest frame and counts it (`net.queue.dropped`) —
//! backpressure never blocks the reactor. Loss is acceptable by contract:
//! the vsync layer above retransmits via NACKs, exactly as it does for
//! datagrams the real network drops.

use crate::events::NetEvent;
use crate::msg::NetMsg;
use plwg_sim::{ConfigError, NodeId, Payload, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Re-greeting period towards peers that are not `Up` (initial connection
/// and reconnection after a partition).
const HELLO_INTERVAL: SimDuration = SimDuration::from_millis(200);

/// Tunables of the net runtime's peer pool. Construct with [`Default`] and
/// struct update (`NetOptions { queue_capacity: 4, ..Default::default() }`).
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Heartbeat send period towards `Up` peers.
    pub hb_interval: SimDuration,
    /// Silence after which an `Up` peer is marked `Down`. Must exceed
    /// `hb_interval`.
    pub suspect_timeout: SimDuration,
    /// Per-peer send-queue capacity (frames) while the peer is not `Up`.
    pub queue_capacity: usize,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            hb_interval: SimDuration::from_millis(100),
            suspect_timeout: SimDuration::from_millis(500),
            queue_capacity: 1024,
        }
    }
}

impl NetOptions {
    /// Validates invariants between the fields.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.hb_interval <= SimDuration::ZERO {
            return Err(ConfigError::new(
                "net.hb_interval",
                "period must be positive",
            ));
        }
        if self.suspect_timeout <= self.hb_interval {
            return Err(ConfigError::new(
                "net.suspect_timeout",
                "must exceed hb_interval, or healthy peers get suspected",
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::new("net.queue_capacity", "must be >= 1"));
        }
        Ok(())
    }
}

/// Connection state of one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Hello sent, nothing heard yet.
    Greeting,
    /// Heard from recently; frames flow directly.
    Up,
    /// Silent past the suspect timeout, or said bye.
    Down,
}

#[derive(Debug)]
struct Peer {
    state: PeerState,
    last_heard: SimTime,
    last_greet: SimTime,
    queue: VecDeque<Payload>,
    dropped: u64,
}

/// What became of a frame handed to [`PeerPool::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The peer is `Up`: put the frame on the wire now.
    Wire,
    /// The peer is not `Up`: the frame waits in its send queue.
    Queued,
    /// The send queue is full: the frame was dropped and counted.
    Dropped,
    /// No such peer is registered: the frame was dropped.
    NoSuchPeer,
}

/// An instruction from the pool to the runtime's socket loop.
#[derive(Debug, PartialEq, Eq)]
pub enum PoolAction {
    /// Send this transport message to the peer.
    Control(NodeId, NetMsg),
    /// The peer came up: flush these queued frames to it, oldest first.
    Flush(NodeId, Vec<Payload>),
}

/// The peer state table (see module docs).
#[derive(Debug)]
pub struct PeerPool {
    me: NodeId,
    opts: NetOptions,
    peers: BTreeMap<NodeId, Peer>,
    events: Vec<NetEvent>,
    last_hb: SimTime,
}

impl PeerPool {
    /// Creates a pool for node `me` over validated options.
    pub fn new(me: NodeId, opts: NetOptions) -> Self {
        PeerPool {
            me,
            opts,
            peers: BTreeMap::new(),
            events: Vec::new(),
            last_hb: SimTime::ZERO,
        }
    }

    /// Registers a peer (address-book entry). Idempotent.
    pub fn add_peer(&mut self, peer: NodeId) {
        if peer == self.me {
            return;
        }
        self.peers.entry(peer).or_insert(Peer {
            state: PeerState::Greeting,
            last_heard: SimTime::ZERO,
            last_greet: SimTime::ZERO,
            queue: VecDeque::new(),
            dropped: 0,
        });
    }

    /// The registered peers.
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.peers.keys().copied()
    }

    /// The state of `peer`, if registered.
    pub fn state_of(&self, peer: NodeId) -> Option<PeerState> {
        self.peers.get(&peer).map(|p| p.state)
    }

    /// Frames dropped on `peer`'s queue so far.
    pub fn dropped_of(&self, peer: NodeId) -> u64 {
        self.peers.get(&peer).map_or(0, |p| p.dropped)
    }

    /// Number of peers currently `Up`.
    pub fn up_count(&self) -> usize {
        self.peers
            .values()
            .filter(|p| p.state == PeerState::Up)
            .count()
    }

    /// Offers a frame for `to`: it is queued (cloned) only while the peer
    /// is not `Up`; see [`Offer`] for what the caller does next.
    pub fn offer(&mut self, to: NodeId, frame: &Payload) -> Offer {
        let Some(p) = self.peers.get_mut(&to) else {
            return Offer::NoSuchPeer;
        };
        if p.state == PeerState::Up {
            return Offer::Wire;
        }
        if p.queue.len() >= self.opts.queue_capacity {
            p.dropped += 1;
            let dropped = p.dropped;
            self.events.push(NetEvent::QueueDrop { peer: to, dropped });
            return Offer::Dropped;
        }
        p.queue.push_back(frame.clone());
        Offer::Queued
    }

    /// Notes that a datagram arrived from `peer`. Any traffic is proof of
    /// life; a peer that was not `Up` comes up and its queue flushes.
    pub fn heard_from(&mut self, peer: NodeId, now: SimTime) -> Option<PoolAction> {
        let p = self.peers.get_mut(&peer)?;
        p.last_heard = now;
        if p.state == PeerState::Up {
            return None;
        }
        p.state = PeerState::Up;
        self.events.push(NetEvent::PeerUp { peer });
        let queued: Vec<Payload> = p.queue.drain(..).collect();
        Some(PoolAction::Flush(peer, queued))
    }

    /// Handles a transport message from `peer`. `Hello` earns a hello
    /// back (so the initiating side learns liveness even when it has no
    /// other traffic); `Bye` takes the peer down immediately.
    pub fn on_net_msg(&mut self, peer: NodeId, msg: &NetMsg, now: SimTime) -> Vec<PoolAction> {
        let mut actions = Vec::new();
        match msg {
            NetMsg::Hello { node } => {
                let was_up = self.state_of(*node) == Some(PeerState::Up);
                if let Some(a) = self.heard_from(*node, now) {
                    actions.push(a);
                }
                if !was_up {
                    actions.push(PoolAction::Control(*node, NetMsg::Hello { node: self.me }));
                }
            }
            NetMsg::Alive { node } => {
                if let Some(a) = self.heard_from(*node, now) {
                    actions.push(a);
                }
            }
            NetMsg::Bye { node } => {
                if let Some(p) = self.peers.get_mut(node) {
                    if p.state != PeerState::Down {
                        p.state = PeerState::Down;
                        self.events.push(NetEvent::PeerDown { peer: *node });
                    }
                }
            }
            // Control frames are the runtime's business (drop filter).
            NetMsg::Block { .. } | NetMsg::Unblock { .. } => {}
        }
        let _ = peer;
        actions
    }

    /// When [`PeerPool::tick`] next has something to do — the earliest
    /// heartbeat, hello or suspicion deadline — or `None` with no peers.
    /// Traffic only ever moves suspicion later, so a value computed
    /// earlier is at worst early; a peer changing state (which always
    /// leaves an event, see [`PeerPool::has_events`]) can move it nearer.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let after = |t: SimTime, d: SimDuration| t.checked_add(d).unwrap_or(SimTime::MAX);
        let heartbeat = after(self.last_hb, self.opts.hb_interval);
        self.peers
            .values()
            .map(|p| match p.state {
                PeerState::Up => heartbeat.min(after(p.last_heard, self.opts.suspect_timeout)),
                PeerState::Greeting | PeerState::Down => after(p.last_greet, HELLO_INTERVAL),
            })
            .min()
    }

    /// Periodic maintenance: greet non-`Up` peers, heartbeat `Up` peers,
    /// and take silent peers down. Call when [`PeerPool::next_deadline`]
    /// has passed.
    pub fn tick(&mut self, now: SimTime) -> Vec<PoolAction> {
        let mut actions = Vec::new();
        let hb_due = now.saturating_since(self.last_hb) >= self.opts.hb_interval;
        if hb_due {
            self.last_hb = now;
        }
        for (&id, p) in self.peers.iter_mut() {
            match p.state {
                PeerState::Up => {
                    if now.saturating_since(p.last_heard) >= self.opts.suspect_timeout {
                        p.state = PeerState::Down;
                        self.events.push(NetEvent::PeerDown { peer: id });
                    } else if hb_due {
                        actions.push(PoolAction::Control(id, NetMsg::Alive { node: self.me }));
                    }
                }
                PeerState::Greeting | PeerState::Down => {
                    if now.saturating_since(p.last_greet) >= HELLO_INTERVAL {
                        p.last_greet = now;
                        actions.push(PoolAction::Control(id, NetMsg::Hello { node: self.me }));
                    }
                }
            }
        }
        actions
    }

    /// Farewell messages for a graceful shutdown.
    pub fn goodbyes(&self) -> Vec<PoolAction> {
        self.peers
            .iter()
            .filter(|(_, p)| p.state == PeerState::Up)
            .map(|(&id, _)| PoolAction::Control(id, NetMsg::Bye { node: self.me }))
            .collect()
    }

    /// Whether [`PeerPool::drain_events`] has anything to hand over.
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Drains the pool's protocol events (peer up/down, queue drops).
    pub fn drain_events(&mut self) -> Vec<NetEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plwg_sim::{Clock, ManualClock};

    fn frame(byte: u8) -> Payload {
        Payload::copy_from_slice(&[byte])
    }

    fn pool(cap: usize) -> (PeerPool, ManualClock) {
        let opts = NetOptions {
            queue_capacity: cap,
            ..NetOptions::default()
        };
        opts.validate().expect("valid");
        let mut p = PeerPool::new(NodeId(0), opts);
        p.add_peer(NodeId(1));
        (p, ManualClock::new())
    }

    #[test]
    fn queue_overflow_drops_and_counts() {
        let (mut pool, _clk) = pool(2);
        assert_eq!(pool.offer(NodeId(1), &frame(1)), Offer::Queued);
        assert_eq!(pool.offer(NodeId(1), &frame(2)), Offer::Queued);
        assert_eq!(pool.offer(NodeId(1), &frame(3)), Offer::Dropped); // over capacity
        assert_eq!(pool.offer(NodeId(7), &frame(4)), Offer::NoSuchPeer);
        assert_eq!(pool.dropped_of(NodeId(1)), 1);
        let evs = pool.drain_events();
        assert!(matches!(
            evs.as_slice(),
            [NetEvent::QueueDrop {
                peer: NodeId(1),
                dropped: 1
            }]
        ));
        // The two queued frames flush when the peer comes up.
        match pool.heard_from(NodeId(1), SimTime::from_micros(5)) {
            Some(PoolAction::Flush(NodeId(1), q)) => assert_eq!(q.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        // Up peer: frames go straight to the wire.
        assert_eq!(pool.offer(NodeId(1), &frame(4)), Offer::Wire);
    }

    #[test]
    fn failure_detector_times_out_silent_peer() {
        let (mut pool, clk) = pool(8);
        pool.heard_from(NodeId(1), clk.now());
        assert_eq!(pool.state_of(NodeId(1)), Some(PeerState::Up));
        assert_eq!(pool.up_count(), 1);
        // Just inside the timeout: stays up, heartbeats flow.
        clk.advance(SimDuration::from_millis(400));
        let acts = pool.tick(clk.now());
        assert!(acts
            .iter()
            .any(|a| matches!(a, PoolAction::Control(NodeId(1), NetMsg::Alive { .. }))));
        // Past the timeout with no traffic: down.
        clk.advance(SimDuration::from_millis(200));
        pool.tick(clk.now());
        assert_eq!(pool.state_of(NodeId(1)), Some(PeerState::Down));
        assert!(pool
            .drain_events()
            .iter()
            .any(|e| matches!(e, NetEvent::PeerDown { peer: NodeId(1) })));
    }

    #[test]
    fn next_deadline_tracks_hello_heartbeat_and_suspicion() {
        let opts = NetOptions::default();
        let (hb, hello, suspect) = (opts.hb_interval, HELLO_INTERVAL, opts.suspect_timeout);
        let mut pool = PeerPool::new(NodeId(0), opts);
        let clk = ManualClock::new();
        assert_eq!(pool.next_deadline(), None, "no peers, nothing to do");
        pool.add_peer(NodeId(1));
        // A fresh peer is greeted at once, then every HELLO_INTERVAL.
        assert!(pool.next_deadline().expect("peer") <= clk.now() + hello);
        clk.advance(SimDuration::from_secs(1));
        let t0 = clk.now();
        assert_eq!(pool.tick(t0).len(), 1);
        assert_eq!(pool.next_deadline(), Some(t0 + hello));
        // Up: the next thing due is the heartbeat...
        pool.heard_from(NodeId(1), t0);
        assert!(pool.has_events());
        pool.tick(t0);
        assert_eq!(pool.next_deadline(), Some(t0 + hb));
        // ...and ticking exactly on the deadlines still suspects on time.
        let mut down_at = None;
        while down_at.is_none() {
            let due = pool.next_deadline().expect("peer");
            assert!(due > clk.now(), "a deadline in the past would spin");
            clk.advance(due.saturating_since(clk.now()));
            pool.tick(clk.now());
            if pool.state_of(NodeId(1)) == Some(PeerState::Down) {
                down_at = Some(clk.now());
            }
        }
        assert_eq!(down_at, Some(t0 + suspect));
    }

    #[test]
    fn down_peer_reconnects_via_hello() {
        let (mut pool, clk) = pool(8);
        pool.heard_from(NodeId(1), clk.now());
        clk.advance(SimDuration::from_secs(2));
        pool.tick(clk.now());
        assert_eq!(pool.state_of(NodeId(1)), Some(PeerState::Down));
        // The pool keeps greeting the down peer...
        clk.advance(SimDuration::from_millis(300));
        let acts = pool.tick(clk.now());
        assert!(acts
            .iter()
            .any(|a| matches!(a, PoolAction::Control(NodeId(1), NetMsg::Hello { .. }))));
        // ...and the peer's answer brings it back up.
        let acts = pool.on_net_msg(NodeId(1), &NetMsg::Hello { node: NodeId(1) }, clk.now());
        assert_eq!(pool.state_of(NodeId(1)), Some(PeerState::Up));
        assert!(acts
            .iter()
            .any(|a| matches!(a, PoolAction::Flush(NodeId(1), _))));
        assert!(pool
            .drain_events()
            .iter()
            .any(|e| matches!(e, NetEvent::PeerUp { peer: NodeId(1) })));
    }

    #[test]
    fn bye_takes_peer_down_and_goodbyes_list_up_peers() {
        let (mut pool, clk) = pool(8);
        pool.heard_from(NodeId(1), clk.now());
        assert_eq!(pool.goodbyes().len(), 1);
        pool.on_net_msg(NodeId(1), &NetMsg::Bye { node: NodeId(1) }, clk.now());
        assert_eq!(pool.state_of(NodeId(1)), Some(PeerState::Down));
        assert!(pool.goodbyes().is_empty());
    }

    #[test]
    fn options_validate() {
        assert!(NetOptions::default().validate().is_ok());
        let rejected = |opts: NetOptions| opts.validate().expect_err("reject").field;
        let tight = NetOptions {
            suspect_timeout: SimDuration::from_millis(50),
            ..NetOptions::default()
        };
        assert_eq!(rejected(tight), "net.suspect_timeout");
        let no_queue = NetOptions {
            queue_capacity: 0,
            ..NetOptions::default()
        };
        assert_eq!(rejected(no_queue), "net.queue_capacity");
        let no_heartbeat = NetOptions {
            hb_interval: SimDuration::ZERO,
            ..NetOptions::default()
        };
        assert_eq!(rejected(no_heartbeat), "net.hb_interval");
    }
}
