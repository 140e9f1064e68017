//! Node-level heartbeat failure detector.
//!
//! One detector per node is shared by every group that node belongs to —
//! one of the resource-sharing wins of running many groups on one stack
//! (and the reason recovery cost in the paper's Figure 2 does not grow with
//! the number of co-mapped groups). In an asynchronous system the detector
//! cannot distinguish a crashed peer from a slow or partitioned one (paper
//! §4); both appear as [`FdEvent::Suspect`], and a peer heard from again is
//! rehabilitated with [`FdEvent::Alive`] — the signal that ultimately
//! drives partition-heal discovery.

use plwg_sim::{NodeId, SimTime};
use std::collections::BTreeMap;

/// A change in the detector's opinion of a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdEvent {
    /// The peer has been silent past the timeout.
    Suspect(NodeId),
    /// A previously suspected peer was heard from again.
    Alive(NodeId),
}

/// Heartbeat-based failure detector over an explicitly watched peer set.
#[derive(Debug, Default)]
pub struct FailureDetector {
    /// watched peer → (last time heard, currently suspected).
    peers: BTreeMap<NodeId, PeerState>,
}

#[derive(Debug, Clone, Copy)]
struct PeerState {
    last_heard: SimTime,
    suspected: bool,
}

impl FailureDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts watching `peer`; a no-op if it is already watched (the stack
    /// keeps one watch per peer however many groups share it). A freshly
    /// watched peer is treated as heard-from `now`, so it has a full
    /// timeout to speak.
    pub fn watch(&mut self, peer: NodeId, now: SimTime) {
        self.peers.entry(peer).or_insert(PeerState {
            last_heard: now,
            suspected: false,
        });
    }

    /// Stops monitoring every peer `keep` rejects, except a suspected one:
    /// it stays watched, and heartbeated, until it is heard from again. So
    /// a partition that heals is noticed within one heartbeat interval
    /// ([`FdEvent::Alive`]), not only at the next view beacon.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        self.peers.retain(|&peer, s| s.suspected || keep(peer));
    }

    /// Records evidence of life from `peer` (a heartbeat or any protocol
    /// message). Returns `Some(FdEvent::Alive)` when this rehabilitates a
    /// suspected peer.
    pub fn heard_from(&mut self, peer: NodeId, now: SimTime) -> Option<FdEvent> {
        let s = self.peers.get_mut(&peer)?;
        s.last_heard = now;
        if s.suspected {
            s.suspected = false;
            Some(FdEvent::Alive(peer))
        } else {
            None
        }
    }

    /// Scans for peers silent past `timeout` and returns fresh suspicions.
    pub fn check(&mut self, now: SimTime, timeout: plwg_sim::SimDuration) -> Vec<FdEvent> {
        let mut events = Vec::new();
        for (&peer, s) in self.peers.iter_mut() {
            if !s.suspected && now.saturating_since(s.last_heard) >= timeout {
                s.suspected = true;
                events.push(FdEvent::Suspect(peer));
            }
        }
        events
    }

    /// Whether `peer` is currently suspected (unwatched peers are not).
    pub fn is_suspected(&self, peer: NodeId) -> bool {
        self.peers.get(&peer).is_some_and(|s| s.suspected)
    }

    /// All currently watched peers, in id order.
    pub fn watched(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.peers.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plwg_sim::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1000)
    }
    const TO: SimDuration = SimDuration::from_millis(500);

    #[test]
    fn silent_peer_is_suspected_once() {
        let mut fd = FailureDetector::new();
        fd.watch(NodeId(1), t(0));
        assert!(fd.check(t(100), TO).is_empty());
        assert_eq!(fd.check(t(600), TO), vec![FdEvent::Suspect(NodeId(1))]);
        assert!(fd.check(t(700), TO).is_empty(), "no duplicate suspicion");
        assert!(fd.is_suspected(NodeId(1)));
    }

    #[test]
    fn heartbeat_defers_suspicion() {
        let mut fd = FailureDetector::new();
        fd.watch(NodeId(1), t(0));
        assert_eq!(fd.heard_from(NodeId(1), t(400)), None);
        assert!(fd.check(t(600), TO).is_empty());
        assert_eq!(fd.check(t(901), TO), vec![FdEvent::Suspect(NodeId(1))]);
    }

    #[test]
    fn rehabilitation_emits_alive() {
        let mut fd = FailureDetector::new();
        fd.watch(NodeId(1), t(0));
        fd.check(t(600), TO);
        assert_eq!(
            fd.heard_from(NodeId(1), t(700)),
            Some(FdEvent::Alive(NodeId(1)))
        );
        assert!(!fd.is_suspected(NodeId(1)));
        // And it can be suspected again later.
        assert_eq!(fd.check(t(1300), TO), vec![FdEvent::Suspect(NodeId(1))]);
    }

    #[test]
    fn watch_is_idempotent_and_keeps_the_first_deadline() {
        let mut fd = FailureDetector::new();
        fd.watch(NodeId(1), t(0));
        // Watching again neither counts twice nor grants a fresh timeout.
        fd.watch(NodeId(1), t(400));
        assert_eq!(fd.watched().count(), 1);
        assert_eq!(fd.check(t(600), TO), vec![FdEvent::Suspect(NodeId(1))]);
        // A suspected peer stays watched until it is heard from again.
        fd.retain(|p| p != NodeId(1));
        assert_eq!(fd.watched().count(), 1);
        assert_eq!(
            fd.heard_from(NodeId(1), t(700)),
            Some(FdEvent::Alive(NodeId(1)))
        );
        fd.retain(|p| p != NodeId(1));
        assert_eq!(fd.watched().count(), 0);
        // Unwatched peers never generate events.
        assert!(fd.check(t(10_000), TO).is_empty());
        assert_eq!(fd.heard_from(NodeId(1), t(10_000)), None);
    }

    #[test]
    fn unknown_peer_not_suspected() {
        let fd = FailureDetector::new();
        assert!(!fd.is_suspected(NodeId(9)));
    }
}
