//! Per-group and per-service bookkeeping types shared by the protocol
//! modules ([`crate::service`], [`crate::mapping`], [`crate::data_plane`],
//! [`crate::flush`], [`crate::switch`], [`crate::merge`]).

use crate::msg::LFlushId;
use plwg_hwg::{HwgId, View, ViewId};
use plwg_naming::LwgId;
use plwg_sim::{NodeId, Payload, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Why a naming request was issued (routes the reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NsPurpose {
    /// Initial `ns.read` of the join flow.
    JoinLookup,
    /// `ns.testset` claiming the mapping before founding the group's
    /// first view.
    FoundClaim,
    /// Periodic coordinator poll (callback-vs-polling ablation).
    Poll,
}

/// Where a group member currently stands in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Waiting for the naming service to answer the join lookup.
    ReadingNs,
    /// Waiting to become a member of the target HWG.
    JoiningHwg,
    /// HWG member; asked the LWG coordinator for admission.
    AwaitingAdmission,
    /// Full member of an installed LWG view.
    Member,
    /// Asked to leave; waiting for the view that excludes us.
    Leaving,
}

/// Member-side state of an in-progress LWG flush (join/leave/switch).
#[derive(Debug)]
pub(crate) struct LwgFlush {
    pub(crate) flush: LFlushId,
    /// Members whose `FlushOk` is awaited.
    pub(crate) members: Vec<NodeId>,
    pub(crate) oks: BTreeSet<NodeId>,
    /// The successor view, once announced.
    pub(crate) new_view: Option<(View, HwgId)>,
    pub(crate) started_at: SimTime,
}

/// Coordinator-side state of an in-progress switch (paper §3: the
/// switching protocol; also step 2 of partition healing, §6.2).
#[derive(Debug)]
pub(crate) struct SwitchState {
    pub(crate) flush: LFlushId,
    pub(crate) to: HwgId,
    pub(crate) members: Vec<NodeId>,
    pub(crate) ready: BTreeSet<NodeId>,
    pub(crate) started_at: SimTime,
}

/// Per-LWG state at one node.
#[derive(Debug)]
pub(crate) struct LwgState {
    pub(crate) phase: Phase,
    /// Current LWG view (when `Member`/`Leaving`).
    pub(crate) view: Option<View>,
    /// Ids of LWG views this node has installed.
    pub(crate) history: BTreeSet<ViewId>,
    /// The HWG the group is currently mapped onto (target HWG during the
    /// join flow).
    pub(crate) hwg: Option<HwgId>,
    /// Create the target HWG instead of probing for it (fresh allocation).
    pub(crate) create_hwg: bool,
    /// Sends buffered while no view is installed or a flush is running.
    pub(crate) pending_send: Vec<Payload>,
    /// Admission bookkeeping (joiner side).
    pub(crate) join_deadline: Option<SimTime>,
    pub(crate) join_attempts: u32,
    /// Coordinator bookkeeping.
    pub(crate) pending_joins: BTreeSet<NodeId>,
    pub(crate) pending_leaves: BTreeSet<NodeId>,
    pub(crate) lflush: Option<LwgFlush>,
    pub(crate) switching: Option<SwitchState>,
    /// Member-side: the switch we are following (stop data, join target,
    /// report ready).
    pub(crate) follow_switch: Option<(LFlushId, HwgId)>,
    /// `FlushOk`s that arrived before their `Flush` (FIFO is per sender;
    /// a peer's ack can overtake the coordinator's flush announcement).
    pub(crate) early_oks: Vec<(LFlushId, NodeId)>,
    /// Set when the backing HWG view dropped some of this LWG's members:
    /// a pruned view announcement is imminent (sends are buffered until it
    /// arrives so no member delivers messages others will not see).
    pub(crate) awaiting_prune: Option<SimTime>,
    /// The views of this group that the last merge round on its HWG
    /// merged away, until the next view install: only the merged view may
    /// succeed them, so a flush, switch or prune from one of them is
    /// superseded and its announcement is stale.
    pub(crate) superseded: Vec<ViewId>,
    pub(crate) next_view_seq: u64,
    pub(crate) next_flush_nonce: u64,
}

impl LwgState {
    pub(crate) fn new() -> Self {
        LwgState {
            phase: Phase::ReadingNs,
            view: None,
            history: BTreeSet::new(),
            hwg: None,
            create_hwg: false,
            pending_send: Vec::new(),
            join_deadline: None,
            join_attempts: 0,
            pending_joins: BTreeSet::new(),
            pending_leaves: BTreeSet::new(),
            lflush: None,
            switching: None,
            follow_switch: None,
            early_oks: Vec::new(),
            awaiting_prune: None,
            superseded: Vec::new(),
            next_view_seq: 0,
            next_flush_nonce: 0,
        }
    }

    /// Whether the installed view was merged away by the last merge round:
    /// it may change only into the merged view.
    pub(crate) fn merged_away(&self) -> bool {
        self.view
            .as_ref()
            .is_some_and(|v| self.superseded.contains(&v.id))
    }

    /// Whether the announced `view` succeeds a view that was merged away
    /// without being the merge itself (a merge names several predecessors
    /// and comes without a flush): a stale flush or prune.
    pub(crate) fn is_stale(&self, view: &View, by_flush: bool) -> bool {
        let merge = !by_flush && view.predecessors.len() > 1;
        !merge
            && view
                .predecessors
                .iter()
                .any(|p| self.superseded.contains(p))
    }

    pub(crate) fn take_view_seq(&mut self) -> u64 {
        self.next_view_seq += 1;
        self.next_view_seq
    }

    pub(crate) fn bump_view_seq(&mut self, seen: u64) {
        self.next_view_seq = self.next_view_seq.max(seen);
    }

    pub(crate) fn take_flush_nonce(&mut self) -> u64 {
        self.next_flush_nonce += 1;
        self.next_flush_nonce
    }
}

/// Per-HWG merge-views round: the LWG views advertised by members during
/// the current HWG view (via `AllViews` piggybacked on every flush).
#[derive(Debug, Default)]
pub(crate) struct MergeRound {
    /// Whether MERGE-VIEWS was multicast/observed in this HWG view.
    pub(crate) triggered: bool,
    /// Whether this node answered the flush's `Stop`: its advertisement is
    /// out, so until the next HWG view it announces no successor of a view
    /// it advertised.
    pub(crate) stopped: bool,
    /// `(lwg, view id)` → the encoded view, as first advertised: a
    /// sub-frame of that `AllViews` frame, decoded only if the round
    /// merges the group.
    pub(crate) collected: BTreeMap<(LwgId, ViewId), Payload>,
}

/// Recently seen data tagged with an LWG view we do not know — potential
/// evidence of a concurrent view (local peer-discovery fallback).
#[derive(Debug)]
pub(crate) struct ForeignTag {
    pub(crate) seen_at: SimTime,
    pub(crate) hwg: HwgId,
    pub(crate) lwg: LwgId,
    pub(crate) view_id: ViewId,
}

/// A snapshot of one group's state at this node (see
/// [`crate::LwgService::lwg_status`] and
/// [`crate::LwgService::iter_status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LwgStatus {
    /// The group.
    pub lwg: LwgId,
    /// Lifecycle phase, as a stable label: `"reading-ns"`,
    /// `"joining-hwg"`, `"awaiting-admission"`, `"member"`, `"leaving"`.
    pub phase: &'static str,
    /// Current view id, when installed.
    pub view: Option<ViewId>,
    /// Number of members in the current view.
    pub members: usize,
    /// The HWG the group is mapped onto (or targeted at, while joining).
    pub hwg: Option<HwgId>,
    /// Whether this node acts as the group's coordinator.
    pub coordinator: bool,
    /// Whether a flush/switch/prune is in progress.
    pub busy: bool,
}

/// A point-in-time summary of the whole service at this node (see
/// [`crate::LwgService::stats`]). Counts only — per-group detail comes
/// from the indexed [`crate::LwgService::lwg_status`] /
/// [`crate::LwgService::iter_status`] queries, so taking a summary never
/// clones the whole table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Number of LWGs in the local directory.
    pub groups: usize,
    /// HWGs this node is currently a member of.
    pub hwgs: Vec<HwgId>,
    /// Forward pointers held (LWGs known to have switched away).
    pub forward_pointers: usize,
    /// Naming requests awaiting a reply.
    pub pending_ns_requests: usize,
}
