//! The per-group endpoint state machine: membership, and the state the
//! three protocol roles share.
//!
//! One [`GroupEndpoint`] lives at each node for each HWG the node belongs
//! to (or is joining). A member plays three roles, one child module each:
//!
//! * [`data`] — FIFO, view-tagged multicast with a hold-back queue, NACK
//!   loss recovery and the stability exchange that bounds the
//!   retransmission store;
//! * [`flush`] — the virtual-synchrony flush, member side (freeze, report a
//!   digest, reach the agreed delivery target, acknowledge) and initiator
//!   side (the *acting coordinator* — most senior member not suspected by
//!   the local failure detector — drives view changes);
//! * [`merge`] — coordinators of concurrent views discover each other via
//!   beacons and the lower node id leads a merge.
//!
//! This file keeps what all three read and write: the endpoint struct, the
//! join/leave handshake, the periodic tick and message dispatch, and view
//! installation. The roles are child modules so the fields stay private to
//! the endpoint.

mod data;
mod flush;
mod merge;

use self::data::SenderStream;
use crate::fd::FailureDetector;
use crate::msg::{FlushId, FlushPurpose, Slot, VsMsg};
use crate::wire;
use crate::{GroupStatus, VsEvent, VsyncConfig};
use plwg_hwg::{keys, HwgId, HwgTraceEvent, View, ViewId};
use plwg_sim::{NodeId, Payload, SimDuration, SimTime, Transport, TransportExt};
use std::collections::{BTreeMap, BTreeSet};

// The protocol's watchdogs (here and in the role modules) bound how long a
// lost message or a dead peer can stall a join, a view change or a FIFO
// stream; none of them is a performance parameter, so none of them is a
// `VsyncConfig` field.

/// Join-probe watchdog: how long a joiner waits for a `JoinOffer` before
/// probing again.
const PROBE_TIMEOUT: SimDuration = SimDuration::from_millis(150);
/// Probe attempts before the joiner forms a singleton view.
const PROBE_RETRIES: u32 = 3;

/// Member-side state of an in-progress flush.
#[derive(Debug)]
struct MemberFlush {
    flush: FlushId,
    /// The members the flush keeps (`FlushReq::proposed`): each reports a
    /// digest, serves its own messages at the target, and is the only
    /// audience of this member's sends while the flush runs.
    reporters: Vec<NodeId>,
    /// Waiting for the owner's `stop_ok` before sending the digest.
    awaiting_stop_ok: bool,
    digest_sent: bool,
    target: Option<BTreeMap<NodeId, u64>>,
    /// When this member last asked the reporters for what it lacks at the
    /// target (re-asked every `NACK_DELAY` while short).
    asked_at: Option<SimTime>,
    done_sent: bool,
    started_at: SimTime,
}

/// Initiator-side state of a running flush.
#[derive(Debug)]
struct RunningFlush {
    flush: FlushId,
    purpose: FlushPurpose,
    /// Timeout expiries so far: the first retry keeps everyone (the round
    /// may simply have lost a message); only a repeat offender is excluded.
    attempts: u32,
    /// Current-view members expected to report (not suspected at start).
    reporters: Vec<NodeId>,
    /// Reporters that will survive into the successor view (no leavers).
    survivors: Vec<NodeId>,
    joiners: Vec<NodeId>,
    digests: BTreeMap<NodeId, crate::flushcalc::Digest>,
    target_sent: bool,
    done: BTreeSet<NodeId>,
    started_at: SimTime,
}

/// Leader-side state of a running merge.
#[derive(Debug)]
struct MergeState {
    /// Invited concurrent views → their frozen report, once ready.
    participants: BTreeMap<ViewId, Option<View>>,
    /// The leader's own frozen view, once its local flush completes.
    my_frozen: Option<View>,
    started_at: SimTime,
}

/// One node's endpoint in one heavy-weight group.
#[derive(Debug)]
pub(crate) struct GroupEndpoint {
    hwg: HwgId,
    me: NodeId,
    status: GroupStatus,
    view: Option<View>,
    /// Ids of views this endpoint has installed (its lineage).
    history: BTreeSet<ViewId>,

    // --- data plane (valid while `view` is Some) ---
    send_seq: u64,
    /// Per sender: the next expected FIFO seq and the delivered messages of
    /// the current view kept to serve retransmissions.
    streams: BTreeMap<NodeId, SenderStream>,
    /// Received but not yet deliverable (gap or freeze).
    holdback: BTreeMap<(NodeId, u64), Slot>,
    /// Application sends buffered while a flush is in progress.
    pending_send: Vec<Payload>,

    // --- member-side flush ---
    flush: Option<MemberFlush>,

    // --- initiator / coordinator side ---
    pending_joins: BTreeSet<NodeId>,
    pending_leaves: BTreeSet<NodeId>,
    running: Option<RunningFlush>,
    merge: Option<MergeState>,
    /// Set while this coordinator is flushing as an invited merge
    /// participant; names the leader to report to.
    invited_merge_leader: Option<NodeId>,

    // --- loss recovery / stability ---
    /// Per sender: when the current FIFO gap was first noticed (NACK
    /// pacing).
    gap_since: BTreeMap<NodeId, SimTime>,
    /// Latest stability prefixes received from members of the current view.
    stable_info: BTreeMap<NodeId, BTreeMap<NodeId, u64>>,
    last_stability_sent: SimTime,
    /// Messages stored since the last stability advertisement.
    stored_since_advert: usize,

    // --- joining ---
    probe_attempts: u32,
    probe_deadline: Option<SimTime>,
    /// Coordinator we sent a JoinReq to (if any).
    join_target: Option<NodeId>,

    /// Consecutive beacons seen from a fellow member advertising a view
    /// we are not part of — evidence we were dropped while still connected.
    stale_beacons: u32,

    next_view_seq: u64,
    next_flush_nonce: u64,
}

impl GroupEndpoint {
    /// Creates an endpoint that will *probe* for an existing view.
    pub(crate) fn new_joining(hwg: HwgId, me: NodeId, ctx: &mut dyn Transport) -> Self {
        let mut ep = GroupEndpoint::blank(hwg, me);
        ep.set_status(GroupStatus::Joining);
        ep.send_probe(ctx);
        ep
    }

    /// Creates an endpoint with an immediate singleton view (used when the
    /// caller *knows* it is creating a fresh group).
    pub(crate) fn new_created(
        hwg: HwgId,
        me: NodeId,
        ctx: &mut dyn Transport,
        events: &mut Vec<VsEvent>,
    ) -> Self {
        let mut ep = GroupEndpoint::blank(hwg, me);
        ep.set_status(GroupStatus::Member);
        let view = View::initial(ViewId::new(me, ep.take_view_seq()), vec![me]);
        ep.install_view(view, ctx, events);
        ep
    }

    fn blank(hwg: HwgId, me: NodeId) -> Self {
        GroupEndpoint {
            hwg,
            me,
            status: GroupStatus::Left,
            view: None,
            history: BTreeSet::new(),
            send_seq: 0,
            streams: BTreeMap::new(),
            holdback: BTreeMap::new(),
            pending_send: Vec::new(),
            flush: None,
            pending_joins: BTreeSet::new(),
            pending_leaves: BTreeSet::new(),
            running: None,
            merge: None,
            invited_merge_leader: None,
            gap_since: BTreeMap::new(),
            stable_info: BTreeMap::new(),
            last_stability_sent: SimTime::ZERO,
            stored_since_advert: 0,
            probe_attempts: 0,
            probe_deadline: None,
            join_target: None,
            stale_beacons: 0,
            next_view_seq: 0,
            next_flush_nonce: 0,
        }
    }

    // ------------------------------------------------------------------
    // Accessors and helpers shared by the role modules
    // ------------------------------------------------------------------

    pub(crate) fn status(&self) -> GroupStatus {
        self.status
    }

    /// Every status change goes through here: a leaver never becomes a
    /// member again.
    fn set_status(&mut self, next: GroupStatus) {
        debug_assert!(
            !(self.status == GroupStatus::Leaving && next == GroupStatus::Member),
            "{} of {}: Leaving back to Member",
            self.me,
            self.hwg
        );
        self.status = next;
    }

    pub(crate) fn view(&self) -> Option<&View> {
        self.view.as_ref()
    }

    /// The member that should currently be driving view changes: the most
    /// senior member not suspected by *this node's* failure detector.
    fn acting_coordinator(&self, fd: &FailureDetector) -> Option<NodeId> {
        let view = self.view.as_ref()?;
        view.senior_member_where(|m| m == self.me || !fd.is_suspected(m))
    }

    pub(crate) fn i_am_acting_coordinator(&self, fd: &FailureDetector) -> bool {
        self.acting_coordinator(fd) == Some(self.me)
    }

    fn take_view_seq(&mut self) -> u64 {
        self.next_view_seq += 1;
        self.next_view_seq
    }

    /// The next FIFO seq this endpoint will deliver from `sender` (seqs
    /// start at 1 in every view).
    fn next_expected(&self, sender: NodeId) -> u64 {
        self.streams.get(&sender).map_or(1, |s| s.next)
    }

    /// Whether new message delivery is currently frozen (digest reported,
    /// target not yet known — delivering now could exceed the agreed set).
    fn delivery_frozen(&self) -> bool {
        match &self.flush {
            Some(f) => f.digest_sent && f.target.is_none(),
            None => false,
        }
    }

    /// Who this member's multicasts go to: the whole view, or while a flush
    /// runs only the members it keeps. A member the flush excludes is
    /// leaving this view; if a superseding flush takes it back, it asks for
    /// what it lacks at the target.
    fn audience(&self) -> &[NodeId] {
        match (&self.flush, &self.view) {
            (Some(f), _) => &f.reporters,
            (None, Some(view)) => &view.members,
            (None, None) => &[],
        }
    }

    /// Sends one already-encoded frame to every node in `to`. The frame is
    /// encoded exactly once by the caller; each copy is a refcount bump.
    fn multicast(&self, ctx: &mut dyn Transport, to: &[NodeId], frame: &Payload) {
        for &m in to {
            ctx.send(m, frame.clone());
        }
    }

    /// The terminal transition: this endpoint is out of the group (the
    /// stack drops it on its next pass).
    fn become_left(&mut self, events: &mut Vec<VsEvent>) {
        self.set_status(GroupStatus::Left);
        self.view = None;
        events.push(VsEvent::Left { hwg: self.hwg });
    }

    // ------------------------------------------------------------------
    // Join / leave handshake
    // ------------------------------------------------------------------

    /// Asks to leave the group.
    pub(crate) fn leave(
        &mut self,
        ctx: &mut dyn Transport,
        fd: &FailureDetector,
        events: &mut Vec<VsEvent>,
    ) {
        match self.status {
            GroupStatus::Left => {}
            // Not admitted anywhere yet; just stop.
            GroupStatus::Joining => self.become_left(events),
            GroupStatus::Member | GroupStatus::Leaving => {
                let view = self.view.as_ref().expect("member has a view");
                if view.len() == 1 {
                    self.become_left(events);
                    return;
                }
                self.set_status(GroupStatus::Leaving);
                self.pending_leaves.insert(self.me);
                self.request_leave(ctx, fd);
                self.maybe_start_flush(ctx, fd, events);
            }
        }
    }

    fn request_leave(&mut self, ctx: &mut dyn Transport, fd: &FailureDetector) {
        if let Some(coord) = self.acting_coordinator(fd) {
            if coord != self.me {
                ctx.send(coord, wire::frame(&VsMsg::LeaveReq { hwg: self.hwg }));
            }
        }
    }

    fn send_probe(&mut self, ctx: &mut dyn Transport) {
        self.probe_attempts += 1;
        self.join_target = None;
        ctx.metrics().incr(keys::JOIN_PROBES);
        ctx.broadcast(wire::frame(&VsMsg::JoinProbe { hwg: self.hwg }));
        // The stack's tick has hb_interval granularity; the deadline is
        // checked there.
        self.probe_deadline = Some(ctx.now() + PROBE_TIMEOUT);
    }

    fn form_singleton(&mut self, ctx: &mut dyn Transport, events: &mut Vec<VsEvent>) {
        self.set_status(GroupStatus::Member);
        self.probe_deadline = None;
        let view = View::initial(ViewId::new(self.me, self.take_view_seq()), vec![self.me]);
        ctx.emit(|| HwgTraceEvent::Singleton {
            hwg: self.hwg,
            view: view.clone(),
        });
        self.install_view(view, ctx, events);
    }

    fn on_join_probe(&mut self, ctx: &mut dyn Transport, from: NodeId, fd: &FailureDetector) {
        if self.status != GroupStatus::Member || !self.i_am_acting_coordinator(fd) {
            return;
        }
        let view = self.view.as_ref().expect("member has a view");
        if view.contains(from) {
            return; // already a member; stale probe
        }
        ctx.send(
            from,
            wire::frame(&VsMsg::JoinOffer {
                hwg: self.hwg,
                view_id: view.id,
            }),
        );
    }

    fn on_join_offer(&mut self, ctx: &mut dyn Transport, from: NodeId) {
        if self.status != GroupStatus::Joining || self.join_target.is_some() {
            return;
        }
        self.join_target = Some(from);
        ctx.send(from, wire::frame(&VsMsg::JoinReq { hwg: self.hwg }));
        // Extend the deadline so admission (one flush round) has time to
        // complete; if the offering coordinator dies we fall back to
        // probing again.
        self.probe_deadline = Some(ctx.now() + flush::FLUSH_TIMEOUT);
    }

    // ------------------------------------------------------------------
    // Periodic tick (driven by the stack's failure-detector timer)
    // ------------------------------------------------------------------

    pub(crate) fn on_tick(
        &mut self,
        ctx: &mut dyn Transport,
        now: SimTime,
        fd: &FailureDetector,
        events: &mut Vec<VsEvent>,
    ) {
        // Joiner: probe retries / give up into a singleton view.
        if self.status == GroupStatus::Joining {
            if let Some(deadline) = self.probe_deadline {
                if now >= deadline {
                    if self.probe_attempts > PROBE_RETRIES {
                        self.form_singleton(ctx, events);
                    } else {
                        self.send_probe(ctx);
                    }
                }
            }
            return;
        }

        // Leaver keeps nudging whoever currently coordinates.
        if self.status == GroupStatus::Leaving {
            self.request_leave(ctx, fd);
        }

        // Each role's watchdogs and bookkeeping.
        self.restart_stalled_flush(ctx, now, fd, events);
        self.conclude_overdue_merge(ctx, now);
        self.abandon_orphaned_flush(ctx, now, fd, events);
        self.reask_reporters(ctx, now);
        self.check_nacks(ctx, now);
        self.stability_tick(ctx, now);

        // Acting coordinator reacts to accumulated membership changes.
        self.maybe_start_flush(ctx, fd, events);
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    pub(crate) fn on_msg(
        &mut self,
        ctx: &mut dyn Transport,
        from: NodeId,
        msg: &VsMsg,
        fd: &FailureDetector,
        cfg: &VsyncConfig,
        events: &mut Vec<VsEvent>,
    ) {
        match msg {
            VsMsg::JoinProbe { .. } => self.on_join_probe(ctx, from, fd),
            VsMsg::JoinOffer { .. } => self.on_join_offer(ctx, from),
            VsMsg::JoinReq { .. } => {
                if self.status == GroupStatus::Member || self.status == GroupStatus::Leaving {
                    self.pending_joins.insert(from);
                    self.maybe_start_flush(ctx, fd, events);
                }
            }
            VsMsg::LeaveReq { .. } => {
                if self.view.as_ref().is_some_and(|v| v.contains(from)) {
                    self.pending_leaves.insert(from);
                    self.maybe_start_flush(ctx, fd, events);
                }
            }
            VsMsg::Data {
                view_id,
                sender,
                seq,
                payload,
                ..
            } => self.on_data(ctx, *view_id, *sender, *seq, payload.clone(), events),
            VsMsg::FlushReq {
                view_id,
                flush,
                proposed,
                ..
            } => {
                self.on_flush_req(ctx, from, *view_id, *flush, proposed, events);
                if cfg.auto_stop_ok {
                    self.stop_ok(ctx);
                }
            }
            VsMsg::FlushDigest {
                flush,
                prefix,
                extras,
                thin,
                ..
            } => self.on_flush_digest(ctx, from, *flush, prefix, extras, thin),
            VsMsg::FlushTarget { flush, target, .. } => {
                self.on_flush_target(ctx, *flush, target.clone(), events)
            }
            VsMsg::FlushPull { wants, .. } => self.on_flush_pull(ctx, wants),
            VsMsg::FlushFill {
                view_id,
                sender,
                seq,
                payload,
                ..
            } => self.on_flush_fill(ctx, *view_id, *sender, *seq, payload.clone(), events),
            VsMsg::FlushDone { flush, .. } => self.on_flush_done(ctx, from, *flush),
            VsMsg::NewView { view, .. } => self.on_new_view(ctx, view.clone(), fd, events),
            VsMsg::Nack {
                view_id,
                sender,
                missing,
                ..
            } => self.on_nack(ctx, from, *view_id, *sender, missing),
            VsMsg::Stability {
                view_id, prefix, ..
            } => self.on_stability(ctx, from, *view_id, prefix),
            VsMsg::Beacon { view_id, .. } => self.on_beacon(ctx, from, *view_id, fd, events),
            VsMsg::MergeReq { invitee_view, .. } => {
                self.on_merge_req(ctx, from, *invitee_view, fd, events)
            }
            VsMsg::MergeReady { view, .. } => self.on_merge_ready(ctx, view.clone()),
            VsMsg::MergeNack { invitee_view, .. } => self.on_merge_nack(ctx, *invitee_view),
            VsMsg::Heartbeat => {}
        }
    }

    // ------------------------------------------------------------------
    // View installation
    // ------------------------------------------------------------------

    fn on_new_view(
        &mut self,
        ctx: &mut dyn Transport,
        view: View,
        fd: &FailureDetector,
        events: &mut Vec<VsEvent>,
    ) {
        if !view.contains(self.me) {
            // A view excluding us: if we were leaving, the leave completed.
            if self.status == GroupStatus::Leaving
                && self
                    .view
                    .as_ref()
                    .is_some_and(|v| view.predecessors.contains(&v.id))
            {
                self.become_left(events);
            }
            return;
        }
        let acceptable = match (&self.view, self.status) {
            (_, GroupStatus::Joining) => true,
            (Some(cur), _) => view.predecessors.contains(&cur.id) || view.id == cur.id,
            (None, _) => false,
        };
        if !acceptable {
            return;
        }
        if self.view.as_ref().is_some_and(|cur| cur.id == view.id) {
            return; // duplicate
        }
        // A leaver stays one through every install that still lists it
        // (say, one that makes it the coordinator): only a view that
        // excludes it ends the leave.
        if self.status == GroupStatus::Joining {
            self.set_status(GroupStatus::Member);
        }
        self.probe_deadline = None;
        self.join_target = None;
        self.install_view(view, ctx, events);
        // Membership changes may already be queued (e.g. joiners that
        // arrived mid-flush).
        self.maybe_start_flush(ctx, fd, events);
    }

    fn install_view(&mut self, view: View, ctx: &mut dyn Transport, events: &mut Vec<VsEvent>) {
        if let Some(old) = &self.view {
            self.history.insert(old.id);
        }
        ctx.emit(|| HwgTraceEvent::ViewInstall {
            hwg: self.hwg,
            view: view.clone(),
        });
        ctx.metrics().incr(keys::VIEWS_INSTALLED);
        self.stale_beacons = 0;
        self.gap_since.clear();
        self.stable_info.clear();
        self.send_seq = 0;
        let fresh = |&m| (m, SenderStream::default());
        self.streams = view.members.iter().map(fresh).collect();
        self.holdback.clear();
        self.flush = None;
        self.running = None;
        self.merge = None;
        self.invited_merge_leader = None;
        for m in &view.members {
            self.pending_joins.remove(m);
        }
        self.pending_leaves.retain(|l| view.contains(*l));
        self.view = Some(view.clone());
        events.push(VsEvent::View {
            hwg: self.hwg,
            view,
        });
        // Release sends buffered during the change.
        let pending = std::mem::take(&mut self.pending_send);
        for data in pending {
            self.send_payload(ctx, None, data, events);
        }
    }
}
