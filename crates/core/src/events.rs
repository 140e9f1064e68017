//! Upcalls from the LWG service to the application — the user-facing half
//! of paper Table 1 (`View`, `Data`; `Stop` is hidden by the service, as
//! the paper permits).

use plwg_hwg::View;
use plwg_naming::LwgId;
use plwg_sim::{NodeId, Payload};

/// An event delivered to the application by [`crate::LwgService`].
#[derive(Debug, Clone)]
pub enum LwgEvent {
    /// A new view of `lwg` was installed at this member.
    View {
        /// The light-weight group.
        lwg: LwgId,
        /// The installed view (id, members, predecessors).
        view: View,
    },
    /// A multicast sent on `lwg` was delivered.
    Data {
        /// The light-weight group.
        lwg: LwgId,
        /// The member that sent it.
        src: NodeId,
        /// Opaque application payload.
        data: Payload,
    },
    /// This process is no longer a member of `lwg` (leave completed).
    Left {
        /// The light-weight group.
        lwg: LwgId,
    },
}

/// The recorded upcall stream of an [`crate::LwgNode`], in delivery order.
/// Applications consume events by subscription (`node.events().drain()`)
/// instead of polling accessors.
///
/// Draining hands the recorded events over and forgets them, so a node that
/// drains holds only what arrived since; a node that never drains (every
/// test and example) keeps the whole run, and [`LwgEvents::history`] and
/// the filtering accessors serve assertions over it.
#[derive(Debug, Default)]
pub struct LwgEvents {
    log: Vec<LwgEvent>,
}

impl LwgEvents {
    pub(crate) fn record(&mut self, ev: LwgEvent) {
        self.log.push(ev);
    }

    /// Events recorded since the previous `drain` call, oldest first.
    pub fn drain(&mut self) -> Vec<LwgEvent> {
        std::mem::take(&mut self.log)
    }

    /// Every event recorded since the last `drain` (the node's lifetime if
    /// it never drains), in delivery order.
    pub fn history(&self) -> &[LwgEvent] {
        &self.log
    }

    /// All views installed for `lwg`, in installation order.
    pub fn views_of(&self, lwg: LwgId) -> Vec<&View> {
        self.log
            .iter()
            .filter_map(|ev| match ev {
                LwgEvent::View { lwg: l, view } if *l == lwg => Some(view),
                _ => None,
            })
            .collect()
    }

    /// Groups this node has left, in completion order.
    pub fn lefts(&self) -> Vec<LwgId> {
        self.log
            .iter()
            .filter_map(|ev| match ev {
                LwgEvent::Left { lwg } => Some(*lwg),
                _ => None,
            })
            .collect()
    }

    /// Payloads delivered on `lwg` from `src`, decoded as the 8-byte
    /// little-endian integers the test harnesses send (test convenience;
    /// see [`plwg_sim::Frame::from_u64`]).
    ///
    /// # Panics
    ///
    /// Panics if a matching delivery is not an 8-byte frame.
    pub fn data_from(&self, lwg: LwgId, src: NodeId) -> Vec<u64> {
        self.frames_from(lwg, src)
            .iter()
            .map(|f| f.try_u64().expect("u64 payload"))
            .collect()
    }

    /// The raw payload frames delivered on `lwg` from `src`, in delivery
    /// order.
    pub fn frames_from(&self, lwg: LwgId, src: NodeId) -> Vec<Payload> {
        self.log
            .iter()
            .filter_map(|ev| match ev {
                LwgEvent::Data {
                    lwg: l,
                    src: s,
                    data,
                } if *l == lwg && *s == src => Some(data.clone()),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plwg_sim::Frame;

    #[test]
    fn drain_hands_events_over_and_forgets_them() {
        let mut evs = LwgEvents::default();
        evs.record(LwgEvent::Left { lwg: LwgId(1) });
        evs.record(LwgEvent::Data {
            lwg: LwgId(2),
            src: NodeId(3),
            data: Frame::from_u64(7),
        });
        assert_eq!(evs.data_from(LwgId(2), NodeId(3)), vec![7]);
        assert_eq!(evs.drain().len(), 2);
        assert!(evs.drain().is_empty());
        // Drained events are gone from every accessor …
        assert!(evs.history().is_empty());
        assert!(evs.frames_from(LwgId(2), NodeId(3)).is_empty());
        // … and later ones are kept until the next drain.
        evs.record(LwgEvent::Left { lwg: LwgId(2) });
        assert_eq!(evs.lefts(), vec![LwgId(2)]);
        assert_eq!(evs.history().len(), 1);
        assert_eq!(evs.drain().len(), 1);
    }

    #[test]
    fn a_draining_node_holds_only_the_undrained_tail() {
        let mut evs = LwgEvents::default();
        for round in 0..10_000u64 {
            evs.record(LwgEvent::Data {
                lwg: LwgId(1),
                src: NodeId(2),
                data: Frame::from_u64(round),
            });
            assert!(evs.log.capacity() <= 8, "log grew across drains");
            assert_eq!(evs.drain().len(), 1);
        }
        assert_eq!(evs.log.capacity(), 0);
    }
}
