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

/// A delivered [`crate::LwgMsg::Flush`]: the flush of `view` that installs
/// `next` (on `to` for a switch), as it arrived on `hwg`.
#[derive(Debug, Clone)]
pub(crate) struct FlushReq {
    pub(crate) flush: LFlushId,
    /// The HWG it arrived on: acknowledgements go there, and while this
    /// node is stopped on it, the install waits (see
    /// [`crate::LwgService::stopped_on`]).
    pub(crate) hwg: HwgId,
    /// The view being flushed.
    pub(crate) view: ViewId,
    /// Members whose `FlushOk` is awaited.
    pub(crate) members: Vec<NodeId>,
    /// The successor; `None` dissolves the group.
    pub(crate) next: Option<View>,
    /// A switch's target HWG.
    pub(crate) to: Option<HwgId>,
}

/// The LWG flush this node takes part in: a join, leave, dissolve or
/// switch. It installs `req.next` once [`LwgFlush::complete`].
#[derive(Debug)]
pub(crate) struct LwgFlush {
    pub(crate) req: FlushReq,
    /// Senders of the `FlushOk`s received.
    pub(crate) oks: BTreeSet<NodeId>,
    /// Senders of the `SwitchReady`s received (a switch only).
    pub(crate) ready: BTreeSet<NodeId>,
    pub(crate) started_at: SimTime,
    /// A flush of `req.next`, waiting for its install (see
    /// [`LwgState::begin_flush`]). Boxed: it is rare, and costs every
    /// group's state a word.
    pub(crate) waiting: Option<Box<FlushReq>>,
}

impl LwgFlush {
    /// Whether every acknowledgement the install needs is in: a `FlushOk`
    /// from each of `req.members` and, for a switch, a `SwitchReady` from
    /// each member of `req.next`.
    pub(crate) fn complete(&self) -> bool {
        let ready = |v: &View| v.members.iter().all(|m| self.ready.contains(m));
        self.req.members.iter().all(|m| self.oks.contains(m))
            && (self.req.to.is_none() || self.req.next.as_ref().is_some_and(ready))
    }
}

/// How a node meets a delivered `Flush` (see
/// [`LwgState::begin_flush`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Part {
    /// It follows the flush.
    Takes,
    /// The flush flushes the successor of the one in flight, and waits
    /// for its install.
    Waits,
    /// The flush in flight supersedes it.
    Declines,
    /// The flush is of a view this node does not hold: a member listed in
    /// it acknowledges it, so that it does not wait, but does not follow.
    Foreign,
}

/// Which kind of acknowledgement of a flush a message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ack {
    /// A `FlushOk`: its sender stopped sending in the flushed view.
    Ok,
    /// A `SwitchReady`: its sender is a member of the switch's target.
    Ready,
}

/// Whether the flush `new` of `view` supersedes `old`, another flush of
/// it: a more senior initiator (in view order) or a newer nonce from the
/// same initiator.
fn supersedes(view: Option<&View>, new: LFlushId, old: LFlushId) -> bool {
    let rank = |m| view.and_then(|v| v.rank(m)).unwrap_or(usize::MAX);
    rank(new.initiator) < rank(old.initiator)
        || (new.initiator == old.initiator && new.nonce > old.nonce)
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
    /// The flush this node takes part in. Written only by the transitions
    /// below.
    flush: Option<LwgFlush>,
    /// Acknowledgements that arrived before their `Flush` (FIFO is per
    /// sender; a peer's ack can overtake the initiator's `Flush`).
    pub(crate) early_acks: Vec<(LFlushId, Ack, NodeId)>,
    pub(crate) next_view_seq: u64,
    pub(crate) next_flush_nonce: u64,
}

impl LwgState {
    /// The flush this node takes part in.
    pub(crate) fn flush(&self) -> Option<&LwgFlush> {
        self.flush.as_ref()
    }

    /// The switch this node follows: its flush and target HWG.
    pub(crate) fn followed(&self) -> Option<(LFlushId, HwgId)> {
        let req = &self.flush.as_ref()?.req;
        Some((req.flush, req.to?))
    }

    /// Whether an LWG flush or a switch is in flight.
    pub(crate) fn busy(&self) -> bool {
        self.flush.is_some()
    }

    /// The view and HWG a send goes out in now, or `None` when sends are
    /// buffered: not a member, or a protocol running.
    pub(crate) fn send_target(&self) -> Option<(ViewId, HwgId)> {
        if self.phase != Phase::Member || self.busy() {
            return None;
        }
        Some((self.view.as_ref()?.id, self.hwg?))
    }

    /// Takes part in `req` unless the flush in flight supersedes it. A
    /// joiner (no view) follows any flush it is handed; a member only a
    /// flush of the view it holds. As at the HWG layer, a more senior
    /// initiator or a newer nonce from the same initiator supersedes (see
    /// [`supersedes`]). The initiator begins its flush when it sends it,
    /// and takes part in it again when it comes back.
    ///
    /// A flush of the in-flight flush's successor waits for its install:
    /// its initiator installed that view already, and this node must
    /// first deliver the old view's data still on its way ahead of the
    /// missing `FlushOk`s.
    pub(crate) fn begin_flush(&mut self, req: FlushReq, now: SimTime) -> Part {
        if let Some(cur) = &mut self.flush {
            if cur.req.flush == req.flush {
                return Part::Takes; // its initiator's own, begun when sent
            }
            let next = cur.req.next.as_ref();
            if next.map(|v| v.id) == Some(req.view) {
                if cur
                    .waiting
                    .as_ref()
                    .is_none_or(|w| supersedes(next, req.flush, w.flush))
                {
                    cur.waiting = Some(Box::new(req));
                }
                return Part::Waits;
            }
            if cur.req.view != req.view {
                return Part::Foreign;
            }
            if !supersedes(self.view.as_ref(), req.flush, cur.req.flush) {
                return Part::Declines;
            }
        } else if self.view.as_ref().is_some_and(|v| v.id != req.view) {
            return Part::Foreign;
        }
        let (mut oks, mut ready) = (BTreeSet::new(), BTreeSet::new());
        for &(f, ack, from) in &self.early_acks {
            if f == req.flush {
                match ack {
                    Ack::Ok => oks.insert(from),
                    Ack::Ready => ready.insert(from),
                };
            }
        }
        self.early_acks.retain(|(f, ..)| *f != req.flush);
        self.flush = Some(LwgFlush {
            req,
            oks,
            ready,
            started_at: now,
            waiting: None,
        });
        Part::Takes
    }

    /// An acknowledgement from `from`: counted if it is for the flush in
    /// flight, kept for that flush otherwise. Returns whether it counted.
    pub(crate) fn ack(&mut self, flush: LFlushId, ack: Ack, from: NodeId) -> bool {
        let Some(lf) = self.flush.as_mut().filter(|lf| lf.req.flush == flush) else {
            self.early_acks.push((flush, ack, from));
            return false;
        };
        match ack {
            Ack::Ok => lf.oks.insert(from),
            Ack::Ready => lf.ready.insert(from),
        };
        true
    }

    /// Drops what runs. It froze the data plane, so the sends it buffered
    /// are returned, to be released into the view that is still installed.
    pub(crate) fn abandon(&mut self) -> Vec<Payload> {
        self.flush = None;
        std::mem::take(&mut self.pending_send)
    }

    /// Installs `view` on `on_hwg` and returns the sends buffered for it.
    /// Queued joins and leaves the view did not settle stay queued, and so
    /// do the early acknowledgements of the flush waiting for `view`.
    pub(crate) fn install(&mut self, view: View, on_hwg: HwgId, me: NodeId) -> Vec<Payload> {
        let waiting = self.flush.as_ref().and_then(|lf| lf.waiting.as_ref());
        let waiting = waiting.map(|req| req.flush);
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
        self.flush = None;
        self.early_acks.retain(|(f, ..)| Some(*f) == waiting);
        std::mem::take(&mut self.pending_send)
    }

    /// Debug builds: asserts what the types do not express. Run by the
    /// directory whenever a record guard drops.
    pub(crate) fn check(&self) {
        let member = matches!(self.phase, Phase::Member | Phase::Leaving);
        debug_assert_eq!(member, self.view.is_some(), "{:?}", self.phase);
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
    /// out, so until the next HWG view it installs no successor of a view
    /// it advertised, and starts no flush.
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
    /// The groups whose view this node installed at a flush's
    /// acknowledgements without coordinating it, since the last tick and
    /// the one before (`aged`): advertised in full, for the coordinator
    /// may complete the flush only after its `Stop` and advertise the
    /// flushed view (see [`crate::merge`]).
    pub(crate) fresh: BTreeSet<LwgId>,
    pub(crate) aged: BTreeSet<LwgId>,
}

impl MergeRound {
    /// Whether this node advertises its view of `lwg` in full although it
    /// does not coordinate it.
    pub(crate) fn full(&self, lwg: LwgId) -> bool {
        [&self.deferred, &self.fresh, &self.aged]
            .iter()
            .any(|set| set.contains(&lwg))
    }
}

/// A data message of `lwg` tagged with `view`, a view about to be installed
/// here, held until its flush ends (see [`crate::data_plane`]).
#[derive(Debug)]
pub(crate) struct Held {
    pub(crate) lwg: LwgId,
    pub(crate) hwg: Option<HwgId>,
    pub(crate) view: ViewId,
    pub(crate) src: NodeId,
    pub(crate) data: Payload,
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

    fn all() -> Vec<NodeId> {
        vec![n(1), n(2), n(3)]
    }

    /// The view `{1, 2, 3}` with id `1.seq`, succeeding `1.(seq - 1)`.
    fn view(seq: u64) -> View {
        let id = ViewId::new(n(1), seq);
        View::with_predecessors(id, all(), vec![ViewId::new(n(1), seq - 1)])
    }

    /// A member of `view(1)` on `H`, at node 1.
    fn member() -> LwgState {
        let mut s = LwgState::default();
        assert!(s.install(view(1), H, n(1)).is_empty());
        s.check();
        s
    }

    /// The flush `flush` of view `1.seq` (into `view(seq + 1)`), a switch
    /// to `to` when set.
    fn req(flush: LFlushId, seq: u64, to: Option<HwgId>) -> FlushReq {
        FlushReq {
            flush,
            hwg: H,
            view: ViewId::new(n(1), seq),
            members: all(),
            next: Some(view(seq + 1)),
            to,
        }
    }

    /// Whether sends are buffered.
    fn frozen(s: &LwgState) -> bool {
        s.send_target().is_none()
    }

    /// Node 1 in each state that runs a protocol: a join flush and a
    /// followed switch.
    fn busy_states() -> Vec<LwgState> {
        let mut flushing = member();
        assert_eq!(
            flushing.begin_flush(req(fid(1, 1), 1, None), at(0)),
            Part::Takes
        );
        let mut following = member();
        let switch = req(fid(1, 1), 1, Some(TO));
        assert_eq!(following.begin_flush(switch, at(0)), Part::Takes);
        vec![flushing, following]
    }

    #[test]
    fn a_more_senior_initiators_flush_replaces_the_current_one() {
        let mut s = member();
        assert_eq!(s.begin_flush(req(fid(2, 1), 1, None), at(0)), Part::Takes);
        let junior = s.begin_flush(req(fid(3, 9), 1, None), at(1));
        assert_eq!(junior, Part::Declines);
        let same = s.begin_flush(req(fid(2, 1), 1, None), at(1));
        assert_eq!(same, Part::Takes, "its initiator's own, back");
        assert_eq!(s.flush().map(|f| f.started_at), Some(at(0)), "kept");
        let newer = s.begin_flush(req(fid(2, 2), 1, None), at(2));
        assert_eq!(newer, Part::Takes);
        let senior = s.begin_flush(req(fid(1, 1), 1, Some(TO)), at(3));
        assert_eq!(senior, Part::Takes);
        s.check();
        assert_eq!(s.flush().map(|f| f.req.flush), Some(fid(1, 1)));
        assert_eq!(s.followed(), Some((fid(1, 1), TO)));
        assert_eq!(s.flush().map(|f| f.started_at), Some(at(3)));
    }

    /// The waiting rule, by the flushed view: a flush of the successor of
    /// the flush in flight waits for its install; one of the current view
    /// supersedes (a watchdog restart); one of a view this node does not
    /// hold is foreign.
    #[test]
    fn a_flush_waits_for_the_successor_it_flushes() {
        let mut s = member();
        assert_eq!(s.begin_flush(req(fid(1, 1), 1, None), at(0)), Part::Takes);
        let restart = s.begin_flush(req(fid(1, 2), 1, None), at(1));
        assert_eq!(restart, Part::Takes, "a flush of the current view");
        let foreign = s.begin_flush(req(fid(4, 1), 5, None), at(2));
        assert_eq!(foreign, Part::Foreign, "a view this node does not hold");
        let junior = s.begin_flush(req(fid(2, 9), 2, None), at(2));
        assert_eq!(junior, Part::Waits, "a flush of the successor");
        let waits = s.begin_flush(req(fid(1, 3), 2, Some(TO)), at(2));
        assert_eq!(waits, Part::Waits);
        let stale = s.begin_flush(req(fid(2, 10), 2, None), at(3));
        assert_eq!(stale, Part::Waits, "junior to the waiting one");
        s.check();
        let lf = s.flush().expect("in flight");
        assert_eq!(lf.req.flush, fid(1, 2), "the flush of the current view");
        let waiting = lf.waiting.as_deref().map(|w| (w.flush, w.to));
        assert_eq!(waiting, Some((fid(1, 3), Some(TO))));
        // Its acks overtook it; they outlast the install it waits for.
        assert!(!s.ack(fid(1, 3), Ack::Ok, n(2)) && !s.ack(fid(1, 1), Ack::Ok, n(3)));
        assert!(s.install(view(2), H, n(1)).is_empty());
        assert!(!s.busy());
        assert_eq!(s.early_acks, vec![(fid(1, 3), Ack::Ok, n(2))]);
    }

    #[test]
    fn a_joiner_follows_the_flush_it_is_handed() {
        let mut s = LwgState::default();
        assert!(!s.ack(fid(1, 1), Ack::Ok, n(1)), "overtook its Flush");
        assert_eq!(s.begin_flush(req(fid(1, 1), 1, None), at(0)), Part::Takes);
        assert!(s.ack(fid(1, 1), Ack::Ok, n(2)));
        assert!(!s.flush().is_some_and(LwgFlush::complete), "3 is missing");
        assert!(s.ack(fid(1, 1), Ack::Ok, n(3)));
        assert!(s.flush().is_some_and(LwgFlush::complete));
        assert!(s.early_acks.is_empty());
    }

    #[test]
    fn a_switch_completes_with_every_ready() {
        let mut s = member();
        assert!(!s.ack(fid(1, 1), Ack::Ready, n(2)), "overtook its Flush");
        assert_eq!(
            s.begin_flush(req(fid(1, 1), 1, Some(TO)), at(0)),
            Part::Takes
        );
        for m in all() {
            assert!(s.ack(fid(1, 1), Ack::Ok, m));
        }
        assert!(s.ack(fid(1, 1), Ack::Ready, n(1)));
        assert!(!s.flush().is_some_and(LwgFlush::complete), "3 is not ready");
        assert!(s.ack(fid(1, 1), Ack::Ready, n(3)));
        assert!(s.flush().is_some_and(LwgFlush::complete));
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
    fn install_clears_every_flush_but_keeps_the_queued_joins_and_leaves() {
        for mut s in busy_states() {
            s.pending_joins.extend([n(4), n(5)]);
            s.pending_leaves.extend([n(2), n(3)]);
            s.early_acks.push((fid(2, 1), Ack::Ok, n(2)));
            s.pending_send.push(Frame::from_u64(7));
            let next = View::with_predecessors(
                ViewId::new(n(1), 2),
                vec![n(1), n(3), n(4)],
                vec![ViewId::new(n(1), 1)],
            );
            assert_eq!(s.install(next, TO, n(1)).len(), 1);
            s.check();
            assert!(!s.busy() && !frozen(&s));
            assert!(s.early_acks.is_empty());
            assert_eq!(s.pending_joins.iter().collect::<Vec<_>>(), vec![&n(5)]);
            assert_eq!(s.pending_leaves.iter().collect::<Vec<_>>(), vec![&n(3)]);
            assert_eq!(s.hwg, Some(TO));
            assert!(s.history.contains(&ViewId::new(n(1), 1)));
            assert_eq!(s.take_view_seq(), 3);
        }
    }
}
