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
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Waiting for the naming service to answer the join lookup.
    #[default]
    ReadingNs,
    /// Waiting to become a member of the target HWG. The tick acts at
    /// `deadline`; `attempts` counts how often it did.
    JoiningHwg { deadline: SimTime, attempts: u32 },
    /// HWG member; asked the LWG coordinator for admission (deadline and
    /// attempts as in `JoiningHwg`, carried over from it).
    AwaitingAdmission { deadline: SimTime, attempts: u32 },
    /// Full member of an installed LWG view.
    Member,
    /// Asked to leave; waiting for the view that excludes us.
    Leaving,
}

impl Phase {
    /// The deadline and attempt count of a joining phase.
    pub(crate) fn join_mut(&mut self) -> Option<(&mut SimTime, &mut u32)> {
        match self {
            Phase::JoiningHwg { deadline, attempts }
            | Phase::AwaitingAdmission { deadline, attempts } => Some((deadline, attempts)),
            _ => None,
        }
    }
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

/// A flush, `(flush, members, switch target)`, waiting for the view the
/// flush in flight announced (see [`LwgState::begin_flush`]). Boxed: it is
/// rare, and costs every group's state a word.
type NextFlush = Option<Box<(LFlushId, Vec<NodeId>, Option<HwgId>)>>;

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

/// Which of the group's protocols runs at this node: an LWG flush or a
/// switch (§3). Written only by the transitions of [`LwgState`].
#[derive(Debug, Default)]
enum Activity {
    #[default]
    Idle,
    /// Member side of a join or leave flush.
    Flushing { flush: LwgFlush, next: NextFlush },
    /// Member side of a switch, `of` = its flush and target HWG: stop
    /// data, join the target and report ready there. Until the switched
    /// view installs, a later flush from the same view can take `flush`'s
    /// place; the member still follows the switch.
    Following {
        flush: LwgFlush,
        of: (LFlushId, HwgId),
        next: NextFlush,
    },
    /// Coordinator of a switch; `own` is its member side of the same
    /// flush, once its own `SwitchTo` arrived.
    Switching {
        switch: SwitchState,
        own: Option<LwgFlush>,
    },
}

/// Per-LWG state at one node; a new one is reading the naming service.
#[derive(Debug, Default)]
pub(crate) struct LwgState {
    pub(crate) phase: Phase,
    /// Current LWG view (when `Member`/`Leaving`).
    pub(crate) view: Option<View>,
    /// Ids of the LWG views this node has installed, and of their
    /// predecessors.
    pub(crate) history: BTreeSet<ViewId>,
    /// The HWG the group is currently mapped onto (target HWG during the
    /// join flow).
    pub(crate) hwg: Option<HwgId>,
    /// Sends buffered while no view is installed or a flush is running.
    pub(crate) pending_send: Vec<Payload>,
    /// Coordinator bookkeeping.
    pub(crate) pending_joins: BTreeSet<NodeId>,
    pub(crate) pending_leaves: BTreeSet<NodeId>,
    activity: Activity,
    /// `FlushOk`s that arrived before their `Flush` (FIFO is per sender;
    /// a peer's ack can overtake the coordinator's flush announcement).
    pub(crate) early_oks: Vec<(LFlushId, NodeId)>,
    pub(crate) next_view_seq: u64,
    pub(crate) next_flush_nonce: u64,
}

impl LwgState {
    /// The flush this node takes part in.
    pub(crate) fn flush(&self) -> Option<&LwgFlush> {
        match &self.activity {
            Activity::Flushing { flush: f, .. }
            | Activity::Following { flush: f, .. }
            | Activity::Switching { own: Some(f), .. } => Some(f),
            _ => None,
        }
    }

    fn flush_mut(&mut self) -> Option<&mut LwgFlush> {
        match &mut self.activity {
            Activity::Flushing { flush: f, .. }
            | Activity::Following { flush: f, .. }
            | Activity::Switching { own: Some(f), .. } => Some(f),
            _ => None,
        }
    }

    /// The switch this node coordinates.
    pub(crate) fn switch(&self) -> Option<&SwitchState> {
        match &self.activity {
            Activity::Switching { switch, .. } => Some(switch),
            _ => None,
        }
    }

    /// The switch this node follows: its flush and target HWG.
    pub(crate) fn followed(&self) -> Option<(LFlushId, HwgId)> {
        match &self.activity {
            Activity::Following { of, .. } => Some(*of),
            Activity::Switching { switch, own } => own.as_ref().map(|_| (switch.flush, switch.to)),
            _ => None,
        }
    }

    /// Whether an LWG flush or a switch is in flight.
    pub(crate) fn busy(&self) -> bool {
        !matches!(self.activity, Activity::Idle)
    }

    /// The view and HWG a send goes out in now, or `None` when sends are
    /// buffered: not a member, or a protocol running.
    pub(crate) fn send_target(&self) -> Option<(ViewId, HwgId)> {
        if self.phase != Phase::Member || self.busy() {
            return None;
        }
        Some((self.view.as_ref()?.id, self.hwg?))
    }

    /// When the flush or switch in flight started (the watchdog's clock). A
    /// coordinator's own part of its switch starts after the switch.
    pub(crate) fn started_at(&self) -> Option<SimTime> {
        let switch = self.switch().map(|sw| sw.started_at);
        switch.or(self.flush().map(|f| f.started_at))
    }

    /// Member side: takes part in `flush` (of a switch to `to`, when set)
    /// unless the flush it takes part in supersedes it. As at the HWG
    /// layer, a more senior initiator (in view order) or a newer nonce from
    /// the same initiator supersedes. A coordinator's own `SwitchTo` makes
    /// it take part in its switch. Returns whether it took part.
    ///
    /// An initiator starts a flush only from a view it installed, so a
    /// newer flush from the initiator of one whose view is announced waits
    /// as its `next`: superseding it would lose the announcement, and this
    /// node would stay behind in the old view. Installing the view at once
    /// would drop the old view's data still on its way ahead of the
    /// missing `FlushOk`s.
    pub(crate) fn begin_flush(
        &mut self,
        flush: LFlushId,
        members: Vec<NodeId>,
        to: Option<HwgId>,
        now: SimTime,
    ) -> bool {
        if let Some(cur) = self.flush().map(|f| f.flush) {
            let view = self.view.as_ref();
            let rank = |m| view.and_then(|v| v.rank(m)).unwrap_or(usize::MAX);
            let supersedes = rank(flush.initiator) < rank(cur.initiator)
                || (flush.initiator == cur.initiator && flush.nonce > cur.nonce);
            if !supersedes {
                return false;
            }
            let announced = self.flush().is_some_and(|lf| lf.new_view.is_some());
            let waits = announced && flush.initiator == cur.initiator;
            if let Some(next) = self.next_mut().filter(|_| waits) {
                *next = Some(Box::new((flush, members, to)));
                return false;
            }
        }
        let early = self.early_oks.iter().filter(|(f, _)| *f == flush);
        let oks = early.map(|(_, n)| *n).collect();
        self.early_oks.retain(|(f, _)| *f != flush);
        let own = LwgFlush {
            flush,
            members,
            oks,
            new_view: None,
            started_at: now,
        };
        let of = match (&self.activity, to) {
            (_, Some(to)) => Some((flush, to)),
            (Activity::Following { of, .. }, None) => Some(*of),
            _ => None,
        };
        self.activity = match (std::mem::take(&mut self.activity), of) {
            (Activity::Switching { switch, .. }, _) if switch.flush == flush => {
                let own = Some(own);
                Activity::Switching { switch, own }
            }
            (_, Some(of)) => Activity::Following {
                flush: own,
                of,
                next: None,
            },
            (_, None) => Activity::Flushing {
                flush: own,
                next: None,
            },
        };
        true
    }

    /// A `FlushOk` from `from`: counted if it is for the flush in flight,
    /// kept for that flush otherwise. Returns whether it counted.
    pub(crate) fn ack(&mut self, flush: LFlushId, from: NodeId) -> bool {
        let Some(lf) = self.flush_mut().filter(|lf| lf.flush == flush) else {
            self.early_oks.push((flush, from));
            return false;
        };
        lf.oks.insert(from);
        true
    }

    /// The successor view of the flush in flight was announced.
    pub(crate) fn announce(&mut self, view: View, on_hwg: HwgId) {
        if let Some(lf) = self.flush_mut() {
            lf.new_view = Some((view, on_hwg));
        }
    }

    /// The flush waiting for the announced view of the one in flight.
    pub(crate) fn next_flush(&self) -> Option<&(LFlushId, Vec<NodeId>, Option<HwgId>)> {
        match &self.activity {
            Activity::Flushing { next, .. } | Activity::Following { next, .. } => next.as_deref(),
            _ => None,
        }
    }

    fn next_mut(&mut self) -> Option<&mut NextFlush> {
        match &mut self.activity {
            Activity::Flushing { next, .. } | Activity::Following { next, .. } => Some(next),
            _ => None,
        }
    }

    /// Coordinator: starts `switch`.
    pub(crate) fn begin_switch(&mut self, switch: SwitchState) {
        self.activity = Activity::Switching { switch, own: None };
    }

    /// A `SwitchReady` from `from` for the switch this node coordinates.
    pub(crate) fn ready(&mut self, flush: LFlushId, from: NodeId) {
        if let Activity::Switching { switch, .. } = &mut self.activity {
            if switch.flush == flush {
                switch.ready.insert(from);
            }
        }
    }

    /// Coordinator: the switched view is announced. The switch ends and
    /// this node follows it like every other member.
    pub(crate) fn complete_switch(&mut self) -> Option<SwitchState> {
        self.switch()?;
        let Activity::Switching { switch, own } = std::mem::take(&mut self.activity) else {
            return None;
        };
        if let Some(flush) = own {
            let of = (switch.flush, switch.to);
            self.activity = Activity::Following {
                flush,
                of,
                next: None,
            };
        }
        Some(switch)
    }

    /// Drops what runs. It froze the data plane, so the sends it buffered
    /// are returned, to be released into the view that is still installed.
    pub(crate) fn abandon(&mut self) -> Vec<Payload> {
        self.activity = Activity::Idle;
        std::mem::take(&mut self.pending_send)
    }

    /// Installs `view` on `on_hwg` and returns the sends buffered for it.
    /// Queued joins and leaves the view did not settle stay queued, and so
    /// do the early `FlushOk`s of the flush waiting for `view`.
    pub(crate) fn install(&mut self, view: View, on_hwg: HwgId, me: NodeId) -> Vec<Payload> {
        let next = self.next_flush().map(|(flush, ..)| *flush);
        if let Some(old) = &self.view {
            self.history.insert(old.id);
        }
        self.history.extend(view.predecessors.iter().copied());
        self.bump_view_seq(if view.id.coordinator == me {
            view.id.seq
        } else {
            0
        });
        for m in &view.members {
            self.pending_joins.remove(m);
        }
        self.pending_leaves.retain(|l| view.contains(*l));
        self.view = Some(view);
        self.hwg = Some(on_hwg);
        self.phase = Phase::Member;
        self.activity = Activity::Idle;
        self.early_oks.retain(|(f, _)| Some(*f) == next);
        std::mem::take(&mut self.pending_send)
    }

    /// Debug builds: asserts what the types do not express. Run by the
    /// directory whenever a record guard drops.
    pub(crate) fn check(&self) {
        let member = matches!(self.phase, Phase::Member | Phase::Leaving);
        debug_assert_eq!(member, self.view.is_some(), "{:?}", self.phase);
        if let (Some(switch), Some(own)) = (self.switch(), self.flush()) {
            debug_assert_eq!(switch.flush, own.flush);
        }
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
    /// `(lwg, view id)` → the encoded view, as first advertised in full (a
    /// sub-frame of that `AllViews` frame, decoded only if the round
    /// weighs the group), and the lowest node that advertised it in full;
    /// `None` while the view came only by id.
    pub(crate) collected: BTreeMap<(LwgId, ViewId), Option<(Payload, NodeId)>>,
    /// Each advertiser's largest `seq_floor` (see [`crate::merge`]).
    pub(crate) floors: BTreeMap<NodeId, u64>,
    /// The groups the previous round deferred: this node advertises its
    /// views of them in full.
    pub(crate) deferred: BTreeSet<LwgId>,
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
    /// Whether a flush or switch is in progress.
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

#[cfg(test)]
mod tests {
    use super::*;
    use plwg_sim::{Frame, SimDuration};

    const H: HwgId = HwgId(10);
    const TO: HwgId = HwgId(20);

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn fid(initiator: u32, nonce: u64) -> LFlushId {
        LFlushId {
            initiator: n(initiator),
            nonce,
        }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// A member of the view `{1, 2, 3}` (id `1.1`) on `H`, at node 1.
    fn member() -> LwgState {
        let mut s = LwgState::default();
        let view = View::initial(ViewId::new(n(1), 1), vec![n(1), n(2), n(3)]);
        assert!(s.install(view, H, n(1)).is_empty());
        s.check();
        s
    }

    fn all() -> Vec<NodeId> {
        vec![n(1), n(2), n(3)]
    }

    /// Node 1 switches `{1, 2, 3}` to `TO` with flush `1.1`.
    fn switch(s: &mut LwgState) {
        s.begin_switch(SwitchState {
            flush: fid(1, 1),
            to: TO,
            members: all(),
            ready: BTreeSet::new(),
            started_at: at(0),
        });
    }

    /// Whether sends are buffered.
    fn frozen(s: &LwgState) -> bool {
        s.send_target().is_none()
    }

    /// Node 1 in each variant that runs a protocol: a join flush, a
    /// followed switch, and a switch it coordinates with its own part.
    fn busy_states() -> Vec<LwgState> {
        let mut flushing = member();
        assert!(flushing.begin_flush(fid(1, 1), all(), None, at(0)));
        let mut following = member();
        assert!(following.begin_flush(fid(1, 1), all(), Some(TO), at(0)));
        let mut switching = member();
        switch(&mut switching);
        assert!(switching.begin_flush(fid(1, 1), all(), Some(TO), at(5)));
        vec![flushing, following, switching]
    }

    #[test]
    fn a_more_senior_initiators_flush_replaces_the_current_one() {
        let mut s = member();
        assert!(s.begin_flush(fid(2, 1), all(), None, at(0)));
        assert!(!s.begin_flush(fid(3, 9), all(), None, at(1)), "junior");
        assert!(!s.begin_flush(fid(2, 1), all(), None, at(1)), "the same");
        assert!(s.begin_flush(fid(2, 2), all(), None, at(2)), "newer nonce");
        assert!(s.begin_flush(fid(1, 1), all(), Some(TO), at(3)), "senior");
        s.check();
        assert_eq!(s.flush().map(|f| f.flush), Some(fid(1, 1)));
        assert_eq!(s.followed(), Some((fid(1, 1), TO)));
        assert_eq!(s.started_at(), Some(at(3)));
    }

    #[test]
    fn a_later_flush_from_the_view_keeps_a_followed_switch_followed() {
        let mut s = member();
        assert!(s.begin_flush(fid(1, 1), all(), Some(TO), at(0)));
        assert!(s.begin_flush(fid(1, 2), all(), None, at(1)));
        s.check();
        assert_eq!(s.flush().map(|f| f.flush), Some(fid(1, 2)));
        assert_eq!(s.followed(), Some((fid(1, 1), TO)), "still following");
        assert!(s.begin_flush(fid(1, 3), all(), Some(H), at(2)));
        assert_eq!(s.followed(), Some((fid(1, 3), H)), "a new switch");
    }

    /// The successor `1.2` of `{1, 2, 3}`, with the same members.
    fn view_2() -> View {
        View::with_predecessors(ViewId::new(n(1), 2), all(), vec![ViewId::new(n(1), 1)])
    }

    #[test]
    fn a_newer_flush_from_the_initiator_waits_for_its_announced_view() {
        let mut s = member();
        assert!(s.begin_flush(fid(1, 1), all(), None, at(0)));
        assert!(s.begin_flush(fid(1, 2), all(), None, at(1)), "none yet");
        s.announce(view_2(), H);
        assert!(!s.begin_flush(fid(2, 9), all(), None, at(2)), "junior");
        assert!(!s.begin_flush(fid(1, 3), all(), Some(TO), at(2)));
        s.check();
        let lf = s.flush().map(|f| (f.flush, f.new_view.is_some()));
        assert_eq!(lf, Some((fid(1, 2), true)), "the announced flush stays");
        assert_eq!(s.next_flush(), Some(&(fid(1, 3), all(), Some(TO))));
        // Its acks overtook it; they outlast the install it waits for.
        assert!(!s.ack(fid(1, 3), n(2)) && !s.ack(fid(1, 1), n(3)));
        assert!(s.install(view_2(), H, n(1)).is_empty());
        assert_eq!(s.next_flush(), None);
        assert_eq!(s.early_oks, vec![(fid(1, 3), n(2))]);
    }

    #[test]
    fn acks_count_for_the_flush_in_flight_and_wait_for_theirs() {
        let mut s = member();
        assert!(!s.ack(fid(1, 1), n(3)), "overtook its Flush");
        assert!(s.begin_flush(fid(1, 1), all(), None, at(0)));
        assert!(s.ack(fid(1, 1), n(2)));
        let oks: Vec<NodeId> = s
            .flush()
            .map_or(vec![], |f| f.oks.iter().copied().collect());
        assert_eq!(oks, vec![n(2), n(3)]);
        assert!(s.early_oks.is_empty());
    }

    #[test]
    fn abandon_returns_the_buffered_sends() {
        for mut s in busy_states() {
            s.pending_send.push(Frame::from_u64(7));
            let released = s.abandon();
            assert_eq!(released.len(), 1);
            assert!(s.pending_send.is_empty());
            assert_eq!(s.send_target(), Some((ViewId::new(n(1), 1), H)));
            assert!(!s.busy());
        }
    }

    #[test]
    fn complete_switch_leaves_the_coordinator_following() {
        let mut s = member();
        switch(&mut s);
        assert!(s.flush().is_none(), "its own SwitchTo is still on the way");
        assert!(s.begin_flush(fid(1, 1), all(), Some(TO), at(5)));
        assert_eq!(s.started_at(), Some(at(0)), "the earlier start counts");
        s.ready(fid(1, 1), n(2));
        assert_eq!(s.switch().map(|sw| sw.ready.len()), Some(1));
        let sw = s.complete_switch().map(|sw| (sw.flush, sw.to));
        assert_eq!(sw, Some((fid(1, 1), TO)));
        s.check();
        assert_eq!(s.flush().map(|f| f.flush), Some(fid(1, 1)));
        assert_eq!(s.followed(), Some((fid(1, 1), TO)));
        assert_eq!(s.started_at(), Some(at(5)));
        assert!(s.complete_switch().is_none(), "nothing left to complete");
    }

    #[test]
    fn install_clears_every_variant_but_keeps_the_queued_joins_and_leaves() {
        for mut s in busy_states() {
            s.pending_joins.extend([n(4), n(5)]);
            s.pending_leaves.extend([n(2), n(3)]);
            s.early_oks.push((fid(2, 1), n(2)));
            s.pending_send.push(Frame::from_u64(7));
            let next = View::with_predecessors(
                ViewId::new(n(1), 2),
                vec![n(1), n(3), n(4)],
                vec![ViewId::new(n(1), 1)],
            );
            assert_eq!(s.install(next, TO, n(1)).len(), 1);
            s.check();
            assert!(!s.busy() && !frozen(&s));
            assert!(s.early_oks.is_empty());
            assert_eq!(s.pending_joins.iter().collect::<Vec<_>>(), vec![&n(5)]);
            assert_eq!(s.pending_leaves.iter().collect::<Vec<_>>(), vec![&n(3)]);
            assert_eq!(s.hwg, Some(TO));
            assert!(s.history.contains(&ViewId::new(n(1), 1)));
            assert_eq!(s.take_view_seq(), 3);
        }
    }
}
