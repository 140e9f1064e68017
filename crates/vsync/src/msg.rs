//! Wire messages of the HWG layer.

use plwg_hwg::{HwgId, View, ViewId};
use plwg_sim::{NodeId, Payload};
use std::collections::BTreeMap;
use std::fmt;

pub use plwg_hwg::FlushId;

/// What a flush is for: an ordinary view change installs the successor view
/// locally; a merge flush freezes the view and reports to the merge leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPurpose {
    /// Ordinary view change (join/leave/exclusion).
    ViewChange,
    /// Contribution to a merge led by `leader`.
    Merge {
        /// The node driving the merge.
        leader: NodeId,
    },
}

/// The payload carried by a data-plane sequence slot: either the real
/// application frame, or the subset-delivery *skip marker* sent to members
/// outside a subset multicast's target set. The marker occupies the
/// sender's FIFO sequence slot — so gap detection, stability tracking, and
/// flush digests work unchanged — but is never delivered to the layer
/// above. Cloning a `Full` slot bumps the frame's reference count; the
/// bytes are never copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Slot {
    /// The real application payload.
    Full(Payload),
    /// Subset-delivery skip marker (paper §3 interference optimisation).
    Skip,
}

impl Slot {
    /// Whether this slot is a skip marker.
    pub fn is_skip(&self) -> bool {
        matches!(self, Slot::Skip)
    }

    /// The real payload, if this slot holds one.
    pub fn full(&self) -> Option<&Payload> {
        match self {
            Slot::Full(p) => Some(p),
            Slot::Skip => None,
        }
    }
}

/// The messages exchanged by the HWG layer.
///
/// Everything is tagged with the [`HwgId`] it concerns; data and
/// flush-related messages additionally carry the [`ViewId`] they belong to,
/// implementing the paper's rule that a protocol message "is only delivered
/// to members of that view" (§5.1).
#[derive(Clone)]
pub enum VsMsg {
    /// Failure-detector liveness probe.
    Heartbeat,
    /// Joiner looking for an existing view of `hwg` (physical broadcast —
    /// the stand-in for an IP-multicast probe).
    JoinProbe {
        /// Group being sought.
        hwg: HwgId,
    },
    /// Coordinator's answer to a probe.
    JoinOffer {
        /// Group the offer concerns.
        hwg: HwgId,
        /// The coordinator's current view id.
        view_id: ViewId,
    },
    /// Joiner asks the offering coordinator for admission.
    JoinReq {
        /// Group to join.
        hwg: HwgId,
    },
    /// Member asks the coordinator to be excluded from the next view.
    LeaveReq {
        /// Group to leave.
        hwg: HwgId,
    },
    /// A virtually-synchronous multicast within a view.
    Data {
        /// Group.
        hwg: HwgId,
        /// View the message was sent in.
        view_id: ViewId,
        /// Original sender.
        sender: NodeId,
        /// Per-sender FIFO sequence number within the view (1-based).
        seq: u64,
        /// Opaque payload for the layer above (or a skip marker).
        payload: Slot,
    },
    /// Coordinator starts a flush of `view_id` towards `proposed` members.
    FlushReq {
        /// Group.
        hwg: HwgId,
        /// The view being flushed.
        view_id: ViewId,
        /// Flush round identifier.
        flush: FlushId,
        /// Members the flush keeps, each of which reports a digest: the
        /// view minus the suspected and excluded (leavers included).
        proposed: Vec<NodeId>,
        /// Ordinary view change or merge contribution.
        purpose: FlushPurpose,
    },
    /// Member's flush report: per-sender contiguously-delivered prefix and
    /// the (sender, seq) pairs sitting in its hold-back queue.
    FlushDigest {
        /// Group.
        hwg: HwgId,
        /// Flush round this digest answers.
        flush: FlushId,
        /// sender → highest seq delivered with no gaps.
        prefix: BTreeMap<NodeId, u64>,
        /// Out-of-order messages held back (not yet delivered).
        extras: Vec<(NodeId, u64)>,
        /// Of the messages counted above, those held only as subset-skip
        /// markers: the member knows seq exists but does not hold the real
        /// payload, so it cannot serve a pull for it.
        thin: Vec<(NodeId, u64)>,
    },
    /// Coordinator's computed delivery target: every member must deliver
    /// exactly `target[s]` messages from each sender `s` before the view
    /// changes — the mechanism behind "same set of messages between views".
    FlushTarget {
        /// Group.
        hwg: HwgId,
        /// Flush round.
        flush: FlushId,
        /// sender → final seq to deliver in the closing view.
        target: BTreeMap<NodeId, u64>,
    },
    /// Coordinator asks `wants` — messages of senders that did not report
    /// in this flush — to be retransmitted by a member that holds them.
    FlushPull {
        /// Group.
        hwg: HwgId,
        /// Flush round.
        flush: FlushId,
        /// Messages to retransmit.
        wants: Vec<(NodeId, u64)>,
    },
    /// Retransmission of a data message during a flush (or after a pull).
    FlushFill {
        /// Group.
        hwg: HwgId,
        /// View the original message belonged to.
        view_id: ViewId,
        /// Original sender.
        sender: NodeId,
        /// Original sequence number.
        seq: u64,
        /// Original payload (or a skip marker, when only a marker holder
        /// could serve the pull).
        payload: Slot,
    },
    /// Member reports it has reached the flush target.
    FlushDone {
        /// Group.
        hwg: HwgId,
        /// Flush round.
        flush: FlushId,
    },
    /// Installs the successor view (sent by the flush initiator or the
    /// merge leader).
    NewView {
        /// Group.
        hwg: HwgId,
        /// The view to install.
        view: View,
    },
    /// Receiver-side negative acknowledgement: asks `sender` to retransmit
    /// the listed sequence numbers of the current view (recovers from
    /// mid-view message loss without waiting for a flush, and repairs what
    /// a member lacks of a reporting sender's stream at a flush target).
    Nack {
        /// Group.
        hwg: HwgId,
        /// View the gap is in.
        view_id: ViewId,
        /// The original sender being asked.
        sender: NodeId,
        /// Missing sequence numbers.
        missing: Vec<u64>,
    },
    /// Periodic stability advertisement: the sender's contiguously
    /// delivered prefix per group member. Once a message is delivered
    /// everywhere it can be dropped from retransmission stores.
    Stability {
        /// Group.
        hwg: HwgId,
        /// View this stability information concerns.
        view_id: ViewId,
        /// member → highest contiguously delivered seq.
        prefix: BTreeMap<NodeId, u64>,
    },
    /// Coordinator's periodic advertisement of its current view (peer
    /// discovery across partitions, paper §4).
    Beacon {
        /// Group.
        hwg: HwgId,
        /// Advertised view id.
        view_id: ViewId,
    },
    /// Merge leader invites the coordinator of a concurrent view to flush
    /// its view and report.
    MergeReq {
        /// Group.
        hwg: HwgId,
        /// The view the leader observed at the invitee (stale ⇒ rejected).
        invitee_view: ViewId,
        /// The leader's own current view.
        leader_view: ViewId,
    },
    /// A merge participant's report: its view is flushed and frozen.
    MergeReady {
        /// Group.
        hwg: HwgId,
        /// The frozen view (id + members feed the merged view).
        view: View,
    },
    /// A participant declines a merge (stale view, or busy with a more
    /// senior merge).
    MergeNack {
        /// Group.
        hwg: HwgId,
        /// The view id the leader had asked to merge.
        invitee_view: ViewId,
    },
}

impl fmt::Debug for VsMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VsMsg::Heartbeat => write!(f, "Heartbeat"),
            VsMsg::JoinProbe { hwg } => write!(f, "JoinProbe({hwg})"),
            VsMsg::JoinOffer { hwg, view_id } => write!(f, "JoinOffer({hwg},{view_id})"),
            VsMsg::JoinReq { hwg } => write!(f, "JoinReq({hwg})"),
            VsMsg::LeaveReq { hwg } => write!(f, "LeaveReq({hwg})"),
            VsMsg::Data {
                hwg,
                view_id,
                sender,
                seq,
                ..
            } => write!(f, "Data({hwg},{view_id},{sender},#{seq})"),
            VsMsg::FlushReq {
                hwg,
                view_id,
                flush,
                proposed,
                purpose,
            } => write!(
                f,
                "FlushReq({hwg},{view_id},{flush},{proposed:?},{purpose:?})"
            ),
            VsMsg::FlushDigest { hwg, flush, .. } => {
                write!(f, "FlushDigest({hwg},{flush})")
            }
            VsMsg::FlushTarget { hwg, flush, .. } => {
                write!(f, "FlushTarget({hwg},{flush})")
            }
            VsMsg::FlushPull { hwg, flush, wants } => {
                write!(f, "FlushPull({hwg},{flush},{wants:?})")
            }
            VsMsg::FlushFill {
                hwg,
                view_id,
                sender,
                seq,
                ..
            } => write!(f, "FlushFill({hwg},{view_id},{sender},#{seq})"),
            VsMsg::FlushDone { hwg, flush } => write!(f, "FlushDone({hwg},{flush})"),
            VsMsg::NewView { hwg, view } => write!(f, "NewView({hwg},{view})"),
            VsMsg::Nack {
                hwg,
                view_id,
                sender,
                missing,
            } => write!(f, "Nack({hwg},{view_id},{sender},{missing:?})"),
            VsMsg::Stability { hwg, view_id, .. } => {
                write!(f, "Stability({hwg},{view_id})")
            }
            VsMsg::Beacon { hwg, view_id } => write!(f, "Beacon({hwg},{view_id})"),
            VsMsg::MergeReq {
                hwg,
                invitee_view,
                leader_view,
            } => write!(f, "MergeReq({hwg},{invitee_view}<-{leader_view})"),
            VsMsg::MergeReady { hwg, view } => write!(f, "MergeReady({hwg},{view})"),
            VsMsg::MergeNack { hwg, invitee_view } => {
                write!(f, "MergeNack({hwg},{invitee_view})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_is_compact() {
        let m = VsMsg::Data {
            hwg: HwgId(1),
            view_id: ViewId::new(NodeId(0), 1),
            sender: NodeId(2),
            seq: 7,
            payload: Slot::Full(plwg_sim::Frame::empty()),
        };
        assert_eq!(format!("{m:?}"), "Data(hwg1,n0#1,n2,#7)");
    }

    #[test]
    fn slot_accessors() {
        let f = plwg_sim::Frame::from_u64(9);
        let full = Slot::Full(f.clone());
        assert!(!full.is_skip());
        assert_eq!(full.full(), Some(&f));
        assert!(Slot::Skip.is_skip());
        assert_eq!(Slot::Skip.full(), None);
    }

    #[test]
    fn flush_id_display() {
        let id = FlushId {
            initiator: NodeId(3),
            nonce: 9,
        };
        assert_eq!(id.to_string(), "n3@9");
    }
}
