//! Typed trace events of the heavy-weight-group substrate.
//!
//! [`HwgTraceEvent`] is the substrate's side of the workspace-wide typed
//! event model: every protocol transition a substrate implementation makes
//! (flush rounds, view installation, vsync merges, failure detection) has a
//! variant here, with one canonical kind string per variant. This is
//! distinct from [`crate::HwgEvent`], which carries the Table-1 *up-calls*
//! to the layer above; trace events are for observability only.

use crate::id::{FlushId, HwgId, ViewId};
use crate::view::View;
use plwg_sim::{EventRefs, NodeId, ProtocolEvent, TraceLayer};

/// Flattens a view id into the layer-agnostic key used by [`EventRefs`].
pub fn view_key(id: ViewId) -> (u32, u64) {
    (id.coordinator.0, id.seq)
}

/// Flattens a flush id into the layer-agnostic key used by [`EventRefs`].
pub fn flush_key(id: FlushId) -> (u32, u64) {
    (id.initiator.0, id.nonce)
}

/// One protocol transition of the HWG substrate (or its failure detector).
#[derive(Debug, Clone)]
pub enum HwgTraceEvent {
    /// The failure detector heard from a previously suspected peer.
    FdAlive {
        /// The peer that proved alive.
        peer: NodeId,
    },
    /// The failure detector started suspecting a peer.
    FdSuspect {
        /// The suspected peer.
        peer: NodeId,
    },
    /// A flush round timed out and restarts without its stragglers.
    FlushRestart {
        /// Group concerned.
        hwg: HwgId,
        /// 1-based attempt number of the restarted round.
        attempt: u64,
        /// Members dropped from the new round for not reporting.
        stragglers: Vec<NodeId>,
    },
    /// A member abandoned a flush whose initiator vanished.
    FlushAbandon {
        /// Group concerned.
        hwg: HwgId,
    },
    /// A node formed (or re-formed) a singleton view of the group.
    Singleton {
        /// Group concerned.
        hwg: HwgId,
        /// The singleton view.
        view: View,
    },
    /// A member received the `Stop` of a flush round.
    FlushMember {
        /// Group concerned.
        hwg: HwgId,
        /// The round.
        flush: FlushId,
        /// Its initiator.
        from: NodeId,
    },
    /// A coordinator started a flush round (Table-1 `Stop` barrier).
    FlushStart {
        /// Group concerned.
        hwg: HwgId,
        /// The round.
        flush: FlushId,
        /// Free-form purpose/participant summary.
        note: String,
    },
    /// The flush coordinator computed and announced the delivery target.
    FlushTarget {
        /// Group concerned.
        hwg: HwgId,
        /// The round.
        flush: FlushId,
        /// Free-form target summary.
        note: String,
    },
    /// A coordinator distributed a freshly installed view.
    ViewDistribute {
        /// Group concerned.
        hwg: HwgId,
        /// The view being distributed.
        view: View,
    },
    /// A member installed a view.
    ViewInstall {
        /// Group concerned.
        hwg: HwgId,
        /// The installed view.
        view: View,
    },
    /// A receiver detected a FIFO gap and asked the sender for retransmits.
    Nack {
        /// Group concerned.
        hwg: HwgId,
        /// The sender with the gap.
        sender: NodeId,
        /// The missing sequence numbers.
        missing: Vec<u64>,
    },
    /// A member noticed it was dropped from a view and rebuilds as a
    /// singleton lineage.
    Excluded {
        /// Group concerned.
        hwg: HwgId,
        /// The view it was dropped from.
        old: ViewId,
    },
    /// A merge leader invited a concurrent view (vsync partition heal).
    MergeStart {
        /// Group concerned.
        hwg: HwgId,
        /// The leader (this node).
        leader: NodeId,
        /// The invited concurrent view.
        invitee_view: ViewId,
    },
    /// A node accepted a merge invitation.
    MergeAccept {
        /// Group concerned.
        hwg: HwgId,
        /// The inviting leader.
        leader: NodeId,
    },
    /// The merge leader installed the merged view.
    MergeComplete {
        /// Group concerned.
        hwg: HwgId,
        /// The merged view (predecessors are the merged lineages).
        view: View,
    },
}

impl ProtocolEvent for HwgTraceEvent {
    fn layer(&self) -> TraceLayer {
        TraceLayer::Hwg
    }

    fn kind(&self) -> &'static str {
        match self {
            HwgTraceEvent::FdAlive { .. } => "fd.alive",
            HwgTraceEvent::FdSuspect { .. } => "fd.suspect",
            HwgTraceEvent::FlushRestart { .. } => "hwg.flush.restart",
            HwgTraceEvent::FlushAbandon { .. } => "hwg.flush.abandon",
            HwgTraceEvent::Singleton { .. } => "hwg.singleton",
            HwgTraceEvent::FlushMember { .. } => "hwg.flush.member",
            HwgTraceEvent::FlushStart { .. } => "hwg.flush.start",
            HwgTraceEvent::FlushTarget { .. } => "hwg.flush.target",
            HwgTraceEvent::ViewDistribute { .. } => "hwg.view.distribute",
            HwgTraceEvent::ViewInstall { .. } => "hwg.view.install",
            HwgTraceEvent::Nack { .. } => "hwg.nack",
            HwgTraceEvent::Excluded { .. } => "hwg.excluded",
            HwgTraceEvent::MergeStart { .. } => "hwg.merge.start",
            HwgTraceEvent::MergeAccept { .. } => "hwg.merge.accept",
            HwgTraceEvent::MergeComplete { .. } => "hwg.merge.complete",
        }
    }

    fn refs(&self) -> EventRefs {
        let mut refs = EventRefs::default();
        match self {
            HwgTraceEvent::FdAlive { .. } | HwgTraceEvent::FdSuspect { .. } => {}
            HwgTraceEvent::FlushRestart { hwg, .. }
            | HwgTraceEvent::FlushAbandon { hwg }
            | HwgTraceEvent::Nack { hwg, .. } => {
                refs.hwg = Some(hwg.0);
            }
            HwgTraceEvent::FlushMember { hwg, flush, .. }
            | HwgTraceEvent::FlushStart { hwg, flush, .. }
            | HwgTraceEvent::FlushTarget { hwg, flush, .. } => {
                refs.hwg = Some(hwg.0);
                refs.flush = Some(flush_key(*flush));
            }
            HwgTraceEvent::Singleton { hwg, view }
            | HwgTraceEvent::ViewDistribute { hwg, view }
            | HwgTraceEvent::ViewInstall { hwg, view }
            | HwgTraceEvent::MergeComplete { hwg, view } => {
                refs.hwg = Some(hwg.0);
                refs.view = Some(view_key(view.id));
                refs.parents = view.predecessors.iter().copied().map(view_key).collect();
            }
            HwgTraceEvent::Excluded { hwg, old } => {
                refs.hwg = Some(hwg.0);
                refs.view = Some(view_key(*old));
            }
            HwgTraceEvent::MergeStart {
                hwg, invitee_view, ..
            } => {
                refs.hwg = Some(hwg.0);
                refs.view = Some(view_key(*invitee_view));
            }
            HwgTraceEvent::MergeAccept { hwg, .. } => {
                refs.hwg = Some(hwg.0);
            }
        }
        refs
    }

    fn detail(&self) -> String {
        match self {
            HwgTraceEvent::FdAlive { peer } | HwgTraceEvent::FdSuspect { peer } => {
                format!("{peer}")
            }
            HwgTraceEvent::FlushRestart {
                hwg,
                attempt,
                stragglers,
            } => format!("{hwg} attempt {attempt} stragglers {stragglers:?}"),
            HwgTraceEvent::FlushAbandon { hwg } => format!("{hwg}"),
            HwgTraceEvent::Singleton { hwg, view } => format!("{hwg} {view}"),
            HwgTraceEvent::FlushMember { hwg, flush, from } => {
                format!("{hwg} {flush} from {from}")
            }
            HwgTraceEvent::FlushStart { hwg, flush, note }
            | HwgTraceEvent::FlushTarget { hwg, flush, note } => {
                format!("{hwg} {flush} {note}")
            }
            HwgTraceEvent::ViewDistribute { hwg, view }
            | HwgTraceEvent::ViewInstall { hwg, view } => {
                format!("{hwg} {view}")
            }
            HwgTraceEvent::Nack {
                hwg,
                sender,
                missing,
            } => format!("{hwg} {sender} missing {missing:?}"),
            HwgTraceEvent::Excluded { hwg, old } => {
                format!("{hwg} dropped from {old}, rejoining")
            }
            HwgTraceEvent::MergeStart {
                hwg,
                leader,
                invitee_view,
            } => format!("{hwg} leader {leader} invites {invitee_view}"),
            HwgTraceEvent::MergeAccept { hwg, leader } => {
                format!("{hwg} invitee of leader {leader}")
            }
            HwgTraceEvent::MergeComplete { hwg, view } => format!("{hwg} merged into {view}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_canonical_and_refs_link_views() {
        let view = View::with_predecessors(
            ViewId::new(NodeId(1), 3),
            vec![NodeId(1), NodeId(2)],
            vec![ViewId::new(NodeId(1), 1), ViewId::new(NodeId(2), 2)],
        );
        let e = HwgTraceEvent::MergeComplete {
            hwg: HwgId(7),
            view,
        };
        assert_eq!(e.kind(), "hwg.merge.complete");
        let refs = e.refs();
        assert_eq!(refs.hwg, Some(7));
        assert_eq!(refs.view, Some((1, 3)));
        assert_eq!(refs.parents, vec![(1, 1), (2, 2)]);
        assert!(e.detail().contains("merged into"));
    }

    #[test]
    fn flush_events_carry_the_round_key() {
        let flush = FlushId {
            initiator: NodeId(4),
            nonce: 9,
        };
        let e = HwgTraceEvent::FlushStart {
            hwg: HwgId(2),
            flush,
            note: "purpose ViewChange".into(),
        };
        assert_eq!(e.refs().flush, Some((4, 9)));
        assert_eq!(e.detail(), "hwg2 n4@9 purpose ViewChange");
    }
}
