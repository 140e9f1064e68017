//! The per-group endpoint state machine: data plane, flush, membership and
//! merge.
//!
//! One [`GroupEndpoint`] lives at each node for each HWG the node belongs
//! to (or is joining). The endpoint implements, in one place, the three
//! protocol roles a member can play:
//!
//! * **data plane** — FIFO, view-tagged multicast with a hold-back queue;
//! * **flush participant** — freeze, report a digest, reach the agreed
//!   delivery target, acknowledge;
//! * **flush initiator / merge leader** — the *acting coordinator* (most
//!   senior member not suspected by the local failure detector) drives view
//!   changes; coordinators of concurrent views discovered via beacons drive
//!   merges.
//!
//! ## The flush protocol (virtual synchrony)
//!
//! ```text
//!  initiator                         members
//!     | -- FlushReq(proposed) ---------> |   freeze sending, Stop upcall
//!     | <-- FlushDigest(prefix,extras) - |   (after StopOk)
//!     |   compute target T, holders      |
//!     | -- FlushTarget(T) -------------> |
//!     | -- FlushPull(missing) --> holder |   holder multicasts FlushFill
//!     | <-- FlushDone ------------------ |   once delivered == T
//!     | -- NewView -------------------->  |   install, resume
//! ```
//!
//! Every member of the closing view delivers *exactly* the target set
//! before installing the successor view, which is the virtual-synchrony
//! guarantee ("all processes that install two consecutive views deliver the
//! same set of messages between these views").

// tidy-allow-file(module-size): predates the budget; the data-plane,
// flush-participant, and initiator/merge roles are candidates for the
// same per-concern split service.rs got — tracked in ROADMAP.md.
use crate::fd::FailureDetector;
use crate::msg::{FlushId, FlushPurpose, Slot, VsMsg};
use crate::wire;
use crate::{GroupStatus, VsEvent, VsyncConfig};
use plwg_hwg::{keys, HwgId, HwgTraceEvent, View, ViewId};
use plwg_sim::{NodeId, Payload, SimDuration, SimTime, Transport, TransportExt};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};

// The protocol's watchdogs. They bound how long a lost message or a dead
// peer can stall a join, a view change or a FIFO stream; none of them is a
// performance parameter, so none of them is a `VsyncConfig` field.

/// Join-probe watchdog: how long a joiner waits for a `JoinOffer` before
/// probing again.
const PROBE_TIMEOUT: SimDuration = SimDuration::from_millis(150);
/// Probe attempts before the joiner forms a singleton view.
const PROBE_RETRIES: u32 = 3;
/// Flush watchdog: an initiator restarts a flush round that has run this
/// long (the second time without the stragglers); a member abandons a flush
/// whose initiator has been silent for twice as long.
const FLUSH_TIMEOUT: SimDuration = SimDuration::from_millis(1_500);
/// Merge-leader watchdog: on expiry the merge concludes without the
/// participants that never reported.
const MERGE_TIMEOUT: SimDuration = SimDuration::from_millis(3_000);
/// NACK watchdog: how long a FIFO gap may sit in the hold-back queue before
/// the receiver asks the sender to retransmit. Without NACKs a message lost
/// mid-view would block its sender's stream until the next flush.
const NACK_DELAY: SimDuration = SimDuration::from_millis(200);
/// Time trigger of the stability exchange: members advertise their
/// delivered prefixes so everyone can discard retransmission state that is
/// stable everywhere (bounds per-view memory).
const STABILITY_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// Volume trigger of the stability exchange: messages stored since the last
/// advertisement that trigger the next one. With the time trigger alone the
/// retransmission store holds [`STABILITY_INTERVAL`] worth of traffic,
/// whatever the rate. Large enough that view-change control traffic never
/// reaches it.
const STABILITY_VOLUME: usize = 1024;

/// Member-side state of an in-progress flush.
#[derive(Debug)]
struct MemberFlush {
    flush: FlushId,
    /// Waiting for the owner's `stop_ok` before sending the digest.
    awaiting_stop_ok: bool,
    digest_sent: bool,
    target: Option<BTreeMap<NodeId, u64>>,
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
    /// Next expected FIFO seq per sender.
    expected: BTreeMap<NodeId, u64>,
    /// Received but not yet deliverable (gap or freeze).
    holdback: BTreeMap<(NodeId, u64), Slot>,
    /// Delivered messages of the current view, kept to serve retransmissions.
    store: BTreeMap<(NodeId, u64), Slot>,
    /// Application sends buffered while a flush is in progress.
    pending_send: Vec<Payload>,
    /// `(sender, seq)` slots this endpoint holds only as subset-delivery
    /// skip markers (the real payload was addressed elsewhere). Advertised
    /// as `thin` in flush digests so pulls prefer real holders.
    thin_held: BTreeSet<(NodeId, u64)>,

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
        ep.status = GroupStatus::Joining;
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
        ep.status = GroupStatus::Member;
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
            expected: BTreeMap::new(),
            holdback: BTreeMap::new(),
            store: BTreeMap::new(),
            pending_send: Vec::new(),
            thin_held: BTreeSet::new(),
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
    // Accessors
    // ------------------------------------------------------------------

    pub(crate) fn status(&self) -> GroupStatus {
        self.status
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

    fn take_flush_nonce(&mut self) -> u64 {
        self.next_flush_nonce += 1;
        self.next_flush_nonce
    }

    /// Whether new message delivery is currently frozen (digest reported,
    /// target not yet known — delivering now could exceed the agreed set).
    fn delivery_frozen(&self) -> bool {
        match &self.flush {
            Some(f) => f.digest_sent && f.target.is_none(),
            None => false,
        }
    }

    /// Sends one already-encoded frame to every node in `to`. The frame is
    /// encoded exactly once by the caller; each copy is a refcount bump.
    fn multicast(&self, ctx: &mut dyn Transport, to: &[NodeId], frame: &Payload) {
        for &m in to {
            ctx.send(m, frame.clone());
        }
    }

    // ------------------------------------------------------------------
    // Down-calls
    // ------------------------------------------------------------------

    /// Sends a virtually-synchronous multicast.
    ///
    /// The sender's own copy is delivered synchronously (it is part of the
    /// sender's flush digest), so a message sent in response to a `Stop`
    /// upcall — before the owner confirms with `stop_ok` — is still covered
    /// by the closing view's flush. Sends after the digest went out are
    /// buffered and released in the next view.
    pub(crate) fn send_payload(
        &mut self,
        ctx: &mut dyn Transport,
        data: Payload,
        events: &mut Vec<VsEvent>,
    ) {
        if self.status == GroupStatus::Left {
            return;
        }
        let digest_out = self.flush.as_ref().is_some_and(|f| f.digest_sent);
        if self.view.is_none() || digest_out {
            self.pending_send.push(data);
            return;
        }
        self.send_seq += 1;
        let view = self.view.as_ref().expect("checked above");
        // Encoded once; every receiver copy shares this one allocation.
        let frame = wire::frame(&VsMsg::Data {
            hwg: self.hwg,
            view_id: view.id,
            sender: self.me,
            seq: self.send_seq,
            payload: Slot::Full(data.clone()),
        });
        ctx.metrics().incr(keys::DATA_SENT);
        ctx.metrics().add(keys::BYTES_MULTICAST, data.len() as u64);
        for &m in &view.members {
            if m != self.me {
                ctx.send(m, frame.clone());
            }
        }
        // Synchronous self-delivery.
        self.holdback
            .insert((self.me, self.send_seq), Slot::Full(data));
        self.try_drain(ctx, events);
    }

    /// Sends a virtually-synchronous multicast delivered only to `targets`
    /// (interference-aware subset delivery). Members outside the target set
    /// receive a same-sequence [`Slot::Skip`] marker instead of the
    /// payload: the marker occupies the FIFO slot — so gap detection,
    /// stability, and flush digests are untouched — but is consumed by the
    /// receiving endpoint without an upcall.
    ///
    /// The sender always keeps (and delivers) the real payload regardless
    /// of `targets`, so NACK retransmissions always serve the real message.
    /// Sends while flushing fall back to buffered *full* multicasts (the
    /// subset is an optimisation, never required for correctness).
    pub(crate) fn send_payload_to(
        &mut self,
        ctx: &mut dyn Transport,
        targets: &BTreeSet<NodeId>,
        data: Payload,
        events: &mut Vec<VsEvent>,
    ) {
        if self.status == GroupStatus::Left {
            return;
        }
        let digest_out = self.flush.as_ref().is_some_and(|f| f.digest_sent);
        if self.view.is_none() || digest_out {
            self.pending_send.push(data);
            return;
        }
        self.send_seq += 1;
        let seq = self.send_seq;
        let view = self.view.as_ref().expect("checked above");
        // At most two frames per subset multicast — the real payload and,
        // once a member outside `targets` turns up, the thin marker — each
        // encoded once and refcount-shared by its receivers.
        let data_frame = |payload: Slot| {
            wire::frame(&VsMsg::Data {
                hwg: self.hwg,
                view_id: view.id,
                sender: self.me,
                seq,
                payload,
            })
        };
        let real = data_frame(Slot::Full(data.clone()));
        let mut marker: Option<Payload> = None;
        let mut trimmed = 0u64;
        for &m in &view.members {
            if m == self.me {
                continue;
            }
            if targets.contains(&m) {
                ctx.send(m, real.clone());
            } else {
                let marker = marker.get_or_insert_with(|| data_frame(Slot::Skip));
                ctx.send(m, marker.clone());
                trimmed += 1;
            }
        }
        ctx.metrics().incr(keys::DATA_SENT);
        ctx.metrics().add(keys::BYTES_MULTICAST, data.len() as u64);
        ctx.metrics().incr(keys::SUBSET_SENDS);
        ctx.metrics().add(keys::SUBSET_TRIMMED, trimmed);
        self.holdback.insert((self.me, seq), Slot::Full(data));
        self.try_drain(ctx, events);
    }

    /// Asks to leave the group.
    pub(crate) fn leave(
        &mut self,
        ctx: &mut dyn Transport,
        fd: &FailureDetector,
        events: &mut Vec<VsEvent>,
    ) {
        match self.status {
            GroupStatus::Left => {}
            GroupStatus::Joining => {
                // Not admitted anywhere yet; just stop.
                self.status = GroupStatus::Left;
                events.push(VsEvent::Left { hwg: self.hwg });
            }
            GroupStatus::Member | GroupStatus::Leaving => {
                let view = self.view.as_ref().expect("member has a view");
                if view.len() == 1 {
                    self.status = GroupStatus::Left;
                    self.view = None;
                    events.push(VsEvent::Left { hwg: self.hwg });
                    return;
                }
                self.status = GroupStatus::Leaving;
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

    /// Owner acknowledges the `Stop` upcall; the digest can now be sent.
    pub(crate) fn stop_ok(&mut self, ctx: &mut dyn Transport) {
        let Some(f) = &mut self.flush else { return };
        if f.awaiting_stop_ok {
            f.awaiting_stop_ok = false;
            self.send_digest(ctx);
        }
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

        // Initiator watchdog: a stuck flush is retried once with the same
        // membership (a lost protocol message is the common cause under
        // loss); if it stalls again, the non-reporters are excluded.
        if let Some(running) = &self.running {
            if now.saturating_since(running.started_at) >= FLUSH_TIMEOUT {
                let attempts = running.attempts;
                let responders: BTreeSet<NodeId> = running
                    .digests
                    .keys()
                    .chain(running.done.iter())
                    .copied()
                    .collect();
                let stragglers: Vec<NodeId> = if attempts == 0 {
                    Vec::new()
                } else {
                    running
                        .reporters
                        .iter()
                        .copied()
                        .filter(|m| !responders.contains(m) && *m != self.me)
                        .collect()
                };
                ctx.emit(|| HwgTraceEvent::FlushRestart {
                    hwg: self.hwg,
                    attempt: u64::from(attempts) + 1,
                    stragglers: stragglers.clone(),
                });
                self.running = None;
                self.start_flush_with_attempts(ctx, fd, &stragglers, events, attempts + 1);
            }
        }

        // Merge-leader watchdog: proceed without participants that never
        // reported.
        let mut conclude_merge = false;
        if let Some(merge) = &self.merge {
            if now.saturating_since(merge.started_at) >= MERGE_TIMEOUT {
                conclude_merge = true;
            }
        }
        if conclude_merge {
            if let Some(merge) = &mut self.merge {
                merge.participants.retain(|_, v| v.is_some());
            }
            self.try_complete_merge(ctx, events);
        }

        // Member-side flush watchdog: an initiator that vanished leaves us
        // frozen; abandon and let the acting-coordinator rule recover.
        let mut abandon = false;
        if let Some(f) = &self.flush {
            if now.saturating_since(f.started_at) >= FLUSH_TIMEOUT.saturating_mul(2) {
                abandon = true;
            }
        }
        if abandon {
            ctx.emit(|| HwgTraceEvent::FlushAbandon { hwg: self.hwg });
            self.flush = None;
            self.merge = None;
            self.invited_merge_leader = None;
            self.maybe_start_flush(ctx, fd, events);
        }

        // Loss recovery and stability bookkeeping.
        self.check_nacks(ctx, now);
        self.stability_tick(ctx, now);

        // Acting coordinator reacts to accumulated membership changes.
        self.maybe_start_flush(ctx, fd, events);
    }

    /// Sends the coordinator's periodic view beacon (peer discovery).
    pub(crate) fn send_beacon(&self, ctx: &mut dyn Transport, fd: &FailureDetector) {
        if self.status != GroupStatus::Member && self.status != GroupStatus::Leaving {
            return;
        }
        if !self.i_am_acting_coordinator(fd) {
            return;
        }
        let view = self.view.as_ref().expect("member has a view");
        ctx.metrics().incr(keys::BEACONS);
        ctx.broadcast(wire::frame(&VsMsg::Beacon {
            hwg: self.hwg,
            view_id: view.id,
        }));
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
        self.status = GroupStatus::Member;
        self.probe_deadline = None;
        let view = View::initial(ViewId::new(self.me, self.take_view_seq()), vec![self.me]);
        ctx.emit(|| HwgTraceEvent::Singleton {
            hwg: self.hwg,
            view: view.clone(),
        });
        self.install_view(view, ctx, events);
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_lines)]
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
            VsMsg::JoinOffer { view_id, .. } => self.on_join_offer(ctx, from, *view_id),
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
                purpose,
                ..
            } => self.on_flush_req(ctx, from, *view_id, *flush, proposed, *purpose, cfg, events),
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
            VsMsg::FlushDone { flush, .. } => self.on_flush_done(ctx, from, *flush, events),
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
            VsMsg::MergeReq {
                invitee_view,
                leader_view,
                ..
            } => self.on_merge_req(ctx, from, *invitee_view, *leader_view, fd, events),
            VsMsg::MergeReady { view, .. } => self.on_merge_ready(ctx, view.clone(), events),
            VsMsg::MergeNack { invitee_view, .. } => {
                if let Some(merge) = &mut self.merge {
                    merge.participants.remove(invitee_view);
                }
                self.try_complete_merge(ctx, events);
            }
            VsMsg::Heartbeat => {}
        }
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

    fn on_join_offer(&mut self, ctx: &mut dyn Transport, from: NodeId, _view_id: ViewId) {
        if self.status != GroupStatus::Joining || self.join_target.is_some() {
            return;
        }
        self.join_target = Some(from);
        ctx.send(from, wire::frame(&VsMsg::JoinReq { hwg: self.hwg }));
        // Extend the deadline so admission has time to complete; if the
        // offering coordinator dies we fall back to probing again.
        self.probe_deadline = Some(ctx.now() + FLUSH_TIMEOUT);
    }

    // ---------------- data plane ----------------

    fn on_data(
        &mut self,
        ctx: &mut dyn Transport,
        view_id: ViewId,
        sender: NodeId,
        seq: u64,
        data: Slot,
        events: &mut Vec<VsEvent>,
    ) {
        let Some(view) = &self.view else { return };
        if view.id != view_id {
            // Sent in a different (older or concurrent) view: never
            // delivered here (paper §5.1).
            ctx.metrics().incr(keys::DATA_FOREIGN_VIEW);
            return;
        }
        let expected = self.expected.get(&sender).copied().unwrap_or(1);
        if seq < expected || self.store.contains_key(&(sender, seq)) {
            ctx.metrics().incr(keys::DATA_DUP);
            return;
        }
        self.holdback.insert((sender, seq), data);
        self.try_drain(ctx, events);
        self.check_flush_target_reached(ctx);
    }

    /// Delivers from the hold-back queue every message that is in FIFO
    /// order and allowed by the current flush phase.
    fn try_drain(&mut self, ctx: &mut dyn Transport, events: &mut Vec<VsEvent>) {
        if self.delivery_frozen() {
            return;
        }
        let Some(view) = &self.view else { return };
        let view_id = view.id;
        let target = self.flush.as_ref().and_then(|f| f.target.clone());
        // Senders in ascending order; for each, the run of consecutive
        // messages starting at its next expected seq.
        let mut cursor = self.holdback.keys().next().map(|&(sender, _)| sender);
        while let Some(sender) = cursor {
            loop {
                let next = self.expected.get(&sender).copied().unwrap_or(1);
                // During the fill phase deliver only up to the agreed target.
                if let Some(t) = &target {
                    if next > t.get(&sender).copied().unwrap_or(0) {
                        break;
                    }
                }
                let Some(slot) = self.holdback.remove(&(sender, next)) else {
                    break;
                };
                self.expected.insert(sender, next + 1);
                self.store.insert((sender, next), slot.clone());
                self.stored_since_advert += 1;
                match slot {
                    Slot::Skip => {
                        // Subset-delivery marker: the slot is consumed
                        // (so FIFO, stability and flush digests advance)
                        // but nothing is delivered to the layer above.
                        self.thin_held.insert((sender, next));
                        ctx.metrics().incr(keys::SUBSET_SKIPPED);
                    }
                    Slot::Full(data) => {
                        ctx.metrics().incr(keys::DATA_DELIVERED);
                        events.push(VsEvent::Data {
                            hwg: self.hwg,
                            view_id,
                            src: sender,
                            data,
                        });
                    }
                }
            }
            cursor = self
                .holdback
                .range((Excluded((sender, u64::MAX)), Unbounded))
                .next()
                .map(|(&(next_sender, _), _)| next_sender);
        }
        // Every delivery — own sends included — stores its message just
        // above, so this one check bounds the store on all of them.
        if self.stored_since_advert >= STABILITY_VOLUME {
            self.advertise_stability(ctx);
        }
    }

    // ---------------- member-side flush ----------------

    #[allow(clippy::too_many_arguments)]
    fn on_flush_req(
        &mut self,
        ctx: &mut dyn Transport,
        from: NodeId,
        view_id: ViewId,
        flush: FlushId,
        _proposed: &[NodeId],
        purpose: FlushPurpose,
        cfg: &VsyncConfig,
        events: &mut Vec<VsEvent>,
    ) {
        let Some(view) = &self.view else { return };
        if view.id != view_id || !view.contains(from) {
            return;
        }
        let new_rank = view.rank(from).expect("checked contains");
        if let Some(current) = &self.flush {
            let cur_rank = view.rank(current.flush.initiator).unwrap_or(usize::MAX);
            let supersedes = new_rank < cur_rank
                || (current.flush.initiator == from && flush.nonce > current.flush.nonce);
            if !supersedes {
                return;
            }
        }
        ctx.emit(|| HwgTraceEvent::FlushMember {
            hwg: self.hwg,
            flush,
            from,
        });
        let awaiting = !cfg.auto_stop_ok;
        let _ = purpose;
        self.flush = Some(MemberFlush {
            flush,
            awaiting_stop_ok: awaiting,
            digest_sent: false,
            target: None,
            done_sent: false,
            started_at: ctx.now(),
        });
        events.push(VsEvent::Stop { hwg: self.hwg });
        if !awaiting {
            self.send_digest(ctx);
        }
    }

    fn send_digest(&mut self, ctx: &mut dyn Transport) {
        let Some(f) = &mut self.flush else { return };
        if f.digest_sent {
            return;
        }
        f.digest_sent = true;
        let initiator = f.flush.initiator;
        let flush = f.flush;
        let mut prefix = BTreeMap::new();
        if let Some(view) = &self.view {
            for &m in &view.members {
                prefix.insert(m, self.expected.get(&m).copied().unwrap_or(1) - 1);
            }
        }
        let extras: Vec<(NodeId, u64)> = self.holdback.keys().copied().collect();
        // Marker-held slots: consumed markers plus markers still in the
        // hold-back queue. The initiator steers pulls away from these.
        let mut thin: Vec<(NodeId, u64)> = self.thin_held.iter().copied().collect();
        thin.extend(
            self.holdback
                .iter()
                .filter(|(_, d)| d.is_skip())
                .map(|(&k, _)| k),
        );
        ctx.send(
            initiator,
            wire::frame(&VsMsg::FlushDigest {
                hwg: self.hwg,
                flush,
                prefix,
                extras,
                thin,
            }),
        );
    }

    fn on_flush_target(
        &mut self,
        ctx: &mut dyn Transport,
        flush: FlushId,
        target: BTreeMap<NodeId, u64>,
        events: &mut Vec<VsEvent>,
    ) {
        let Some(f) = &mut self.flush else { return };
        if f.flush != flush || f.target.is_some() {
            return;
        }
        f.target = Some(target.clone());
        // Discard held-back messages beyond the agreed set.
        self.holdback
            .retain(|(s, seq), _| *seq <= target.get(s).copied().unwrap_or(0));
        self.try_drain(ctx, events);
        self.check_flush_target_reached(ctx);
    }

    fn on_flush_pull(&mut self, ctx: &mut dyn Transport, wants: &[(NodeId, u64)]) {
        let Some(view) = &self.view else { return };
        let view_id = view.id;
        for &(sender, seq) in wants {
            let slot = self
                .store
                .get(&(sender, seq))
                .or_else(|| self.holdback.get(&(sender, seq)))
                .cloned();
            if let Some(slot) = slot {
                ctx.metrics().incr(keys::FLUSH_FILLS);
                let msg = wire::frame(&VsMsg::FlushFill {
                    hwg: self.hwg,
                    view_id,
                    sender,
                    seq,
                    payload: slot,
                });
                for &m in &view.members {
                    ctx.send(m, msg.clone());
                }
            }
        }
    }

    fn on_flush_fill(
        &mut self,
        ctx: &mut dyn Transport,
        view_id: ViewId,
        sender: NodeId,
        seq: u64,
        data: Slot,
        events: &mut Vec<VsEvent>,
    ) {
        let Some(view) = &self.view else { return };
        if view.id != view_id {
            return;
        }
        let expected = self.expected.get(&sender).copied().unwrap_or(1);
        if seq < expected || self.store.contains_key(&(sender, seq)) {
            // A real fill for a slot held only as a skip marker upgrades
            // the store, so this member can serve future pulls for it.
            if self.thin_held.contains(&(sender, seq)) && !data.is_skip() {
                self.store.insert((sender, seq), data);
                self.thin_held.remove(&(sender, seq));
            }
            return;
        }
        // Respect the target if known; otherwise hold.
        if let Some(f) = &self.flush {
            if let Some(t) = &f.target {
                if seq > t.get(&sender).copied().unwrap_or(0) {
                    return;
                }
            }
        }
        self.holdback.insert((sender, seq), data);
        self.try_drain(ctx, events);
        self.check_flush_target_reached(ctx);
    }

    /// Sends `FlushDone` once the delivered prefix matches the target.
    fn check_flush_target_reached(&mut self, ctx: &mut dyn Transport) {
        let Some(f) = &self.flush else { return };
        let Some(target) = &f.target else { return };
        if f.done_sent {
            return;
        }
        let reached = target
            .iter()
            .all(|(s, &t)| self.expected.get(s).copied().unwrap_or(1) > t);
        if reached {
            let initiator = f.flush.initiator;
            let flush = f.flush;
            if let Some(f) = &mut self.flush {
                f.done_sent = true;
            }
            ctx.send(
                initiator,
                wire::frame(&VsMsg::FlushDone {
                    hwg: self.hwg,
                    flush,
                }),
            );
        }
    }

    // ---------------- initiator-side flush ----------------

    /// Forces a no-change flush of the current view (used by the LWG
    /// layer's merge-views protocol as a synchronisation barrier, paper
    /// Figure 5). Only the acting coordinator honours it; ignored while
    /// another flush or merge is in progress.
    pub(crate) fn force_flush(
        &mut self,
        ctx: &mut dyn Transport,
        fd: &FailureDetector,
        events: &mut Vec<VsEvent>,
    ) {
        if self.running.is_some()
            || self.flush.is_some()
            || self.has_merge_in_progress()
            || self.view.is_none()
            || self.status != GroupStatus::Member
            || !self.i_am_acting_coordinator(fd)
        {
            return;
        }
        self.start_flush(ctx, fd, &[], events);
    }

    /// Starts a flush if this node should coordinate one and there is a
    /// reason to (suspected member, pending join/leave).
    pub(crate) fn maybe_start_flush(
        &mut self,
        ctx: &mut dyn Transport,
        fd: &FailureDetector,
        events: &mut Vec<VsEvent>,
    ) {
        if self.running.is_some() || self.view.is_none() || self.has_merge_in_progress() {
            return;
        }
        if self.status != GroupStatus::Member && self.status != GroupStatus::Leaving {
            return;
        }
        if !self.i_am_acting_coordinator(fd) {
            return;
        }
        let view = self.view.as_ref().expect("checked");
        let suspected: Vec<NodeId> = view
            .members
            .iter()
            .copied()
            .filter(|&m| m != self.me && fd.is_suspected(m))
            .collect();
        let has_joiners = self.pending_joins.iter().any(|j| !view.contains(*j));
        let has_leavers = self.pending_leaves.iter().any(|l| view.contains(*l));
        if suspected.is_empty() && !has_joiners && !has_leavers {
            return;
        }
        self.start_flush(ctx, fd, &suspected, events);
    }

    /// Starts a flush excluding `excluded` (plus FD-suspected members).
    fn start_flush(
        &mut self,
        ctx: &mut dyn Transport,
        fd: &FailureDetector,
        excluded: &[NodeId],
        events: &mut Vec<VsEvent>,
    ) {
        self.start_flush_with_attempts(ctx, fd, excluded, events, 0);
    }

    fn start_flush_with_attempts(
        &mut self,
        ctx: &mut dyn Transport,
        fd: &FailureDetector,
        excluded: &[NodeId],
        events: &mut Vec<VsEvent>,
        attempts: u32,
    ) {
        let Some(view) = self.view.clone() else {
            return;
        };
        let reporters: Vec<NodeId> = view
            .members
            .iter()
            .copied()
            .filter(|&m| m == self.me || (!fd.is_suspected(m) && !excluded.contains(&m)))
            .collect();
        let survivors: Vec<NodeId> = reporters
            .iter()
            .copied()
            .filter(|m| !self.pending_leaves.contains(m))
            .collect();
        let joiners: Vec<NodeId> = self
            .pending_joins
            .iter()
            .copied()
            .filter(|j| !view.contains(*j))
            .collect();

        if survivors.is_empty() {
            // Only leavers remain (e.g. a sole member leaving) — dissolve.
            self.status = GroupStatus::Left;
            self.view = None;
            events.push(VsEvent::Left { hwg: self.hwg });
            return;
        }

        let flush = FlushId {
            initiator: self.me,
            nonce: self.take_flush_nonce(),
        };
        let purpose = if self.merge.is_some() || self.invited_merge_leader.is_some() {
            FlushPurpose::Merge {
                leader: self.invited_merge_leader.unwrap_or(self.me),
            }
        } else {
            FlushPurpose::ViewChange
        };
        ctx.emit(|| HwgTraceEvent::FlushStart {
            hwg: self.hwg,
            flush,
            note: format!("purpose {purpose:?} reporters {reporters:?} joiners {joiners:?}"),
        });
        ctx.metrics().incr(keys::FLUSHES);
        self.running = Some(RunningFlush {
            flush,
            purpose,
            attempts,
            reporters: reporters.clone(),
            survivors,
            joiners,
            digests: BTreeMap::new(),
            target_sent: false,
            done: BTreeSet::new(),
            started_at: ctx.now(),
        });
        let msg = wire::frame(&VsMsg::FlushReq {
            hwg: self.hwg,
            view_id: view.id,
            flush,
            proposed: reporters.clone(),
            purpose,
        });
        self.multicast(ctx, &reporters, &msg);
    }

    fn on_flush_digest(
        &mut self,
        ctx: &mut dyn Transport,
        from: NodeId,
        flush: FlushId,
        prefix: &BTreeMap<NodeId, u64>,
        extras: &[(NodeId, u64)],
        thin: &[(NodeId, u64)],
    ) {
        let Some(running) = &mut self.running else {
            return;
        };
        if running.flush != flush || running.target_sent {
            return;
        }
        if !running.reporters.contains(&from) {
            return;
        }
        running.digests.insert(
            from,
            crate::flushcalc::Digest::new(prefix.clone(), extras.to_vec(), thin.to_vec()),
        );
        if running.digests.len() == running.reporters.len() {
            self.compute_and_send_target(ctx);
        }
    }

    /// With all digests in hand: compute the delivery target (the largest
    /// gap-free prefix of messages *somebody* holds), request fills for
    /// members that lack part of it, and announce it.
    fn compute_and_send_target(&mut self, ctx: &mut dyn Transport) {
        let Some(running) = &mut self.running else {
            return;
        };
        running.target_sent = true;
        let flush = running.flush;
        let reporters = running.reporters.clone();
        let plan = crate::flushcalc::compute_plan(&running.digests);

        ctx.emit(|| HwgTraceEvent::FlushTarget {
            hwg: self.hwg,
            flush,
            note: format!("target {:?}", plan.target),
        });
        let tmsg = wire::frame(&VsMsg::FlushTarget {
            hwg: self.hwg,
            flush,
            target: plan.target,
        });
        self.multicast(ctx, &reporters, &tmsg);
        for (holder, wants) in plan.pulls {
            ctx.send(
                holder,
                wire::frame(&VsMsg::FlushPull {
                    hwg: self.hwg,
                    flush,
                    wants,
                }),
            );
        }
    }

    fn on_flush_done(
        &mut self,
        ctx: &mut dyn Transport,
        from: NodeId,
        flush: FlushId,
        events: &mut Vec<VsEvent>,
    ) {
        let Some(running) = &mut self.running else {
            return;
        };
        if running.flush != flush || !running.reporters.contains(&from) {
            return;
        }
        running.done.insert(from);
        if running.done.len() == running.reporters.len() {
            self.conclude_flush(ctx, events);
        }
    }

    /// All members reached the target: either install the successor view
    /// (ordinary view change) or freeze and report to the merge leader.
    fn conclude_flush(&mut self, ctx: &mut dyn Transport, events: &mut Vec<VsEvent>) {
        let Some(running) = self.running.take() else {
            return;
        };
        let old_view = self.view.clone().expect("flushing requires a view");
        match running.purpose {
            FlushPurpose::ViewChange => {
                let mut members = running.survivors.clone();
                let mut joiners = running.joiners.clone();
                joiners.sort_unstable();
                members.extend(joiners);
                let view = View::with_predecessors(
                    ViewId::new(self.me, self.take_view_seq()),
                    members,
                    vec![old_view.id],
                );
                // Excluded reporters (leavers) also learn the outcome, so a
                // leave completes with a view that omits the leaver.
                let extra: Vec<NodeId> = running
                    .reporters
                    .iter()
                    .copied()
                    .filter(|r| !view.contains(*r))
                    .collect();
                self.distribute_view(ctx, &view);
                let msg = wire::frame(&VsMsg::NewView {
                    hwg: self.hwg,
                    view: view.clone(),
                });
                self.multicast(ctx, &extra, &msg);
            }
            FlushPurpose::Merge { leader } => {
                let frozen = View::with_predecessors(
                    old_view.id,
                    running.survivors.clone(),
                    old_view.predecessors.clone(),
                );
                if leader == self.me {
                    if let Some(merge) = &mut self.merge {
                        merge.my_frozen = Some(frozen);
                    }
                    self.try_complete_merge(ctx, events);
                } else {
                    ctx.send(
                        leader,
                        wire::frame(&VsMsg::MergeReady {
                            hwg: self.hwg,
                            view: frozen,
                        }),
                    );
                    // `invited_merge_leader` stays set until the leader's
                    // NewView installs (or the watchdog clears it), so no
                    // conflicting flush starts in the meantime.
                }
            }
        }
    }

    /// Sends `NewView` to every member of `view` (the initiator installs
    /// its own copy through the loop-back delivery).
    fn distribute_view(&mut self, ctx: &mut dyn Transport, view: &View) {
        ctx.emit(|| HwgTraceEvent::ViewDistribute {
            hwg: self.hwg,
            view: view.clone(),
        });
        let msg = wire::frame(&VsMsg::NewView {
            hwg: self.hwg,
            view: view.clone(),
        });
        self.multicast(ctx, &view.members, &msg);
    }

    // ---------------- view installation ----------------

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
                self.status = GroupStatus::Left;
                self.view = None;
                events.push(VsEvent::Left { hwg: self.hwg });
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
        self.status = GroupStatus::Member;
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
        self.expected = view.members.iter().map(|&m| (m, 1)).collect();
        self.holdback.clear();
        self.store.clear();
        self.thin_held.clear();
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
            self.send_payload(ctx, data, events);
        }
    }

    // ---------------- loss recovery / stability ----------------

    /// Receiver side: detect FIFO gaps that have persisted past
    /// [`NACK_DELAY`] and ask the original sender to retransmit.
    fn check_nacks(&mut self, ctx: &mut dyn Transport, now: SimTime) {
        if self.view.is_none() || self.delivery_frozen() {
            return;
        }
        // Which senders currently have a gap (something held back beyond
        // the expected seq)?
        let mut gapped: BTreeMap<NodeId, u64> = BTreeMap::new();
        for &(sender, seq) in self.holdback.keys() {
            let expected = self.expected.get(&sender).copied().unwrap_or(1);
            if seq > expected {
                let e = gapped.entry(sender).or_insert(seq);
                *e = (*e).max(seq);
            }
        }
        self.gap_since
            .retain(|sender, _| gapped.contains_key(sender));
        for (sender, max_held) in gapped {
            let since = *self.gap_since.entry(sender).or_insert(now);
            if now.saturating_since(since) < NACK_DELAY {
                continue;
            }
            // Re-arm pacing and ask for everything missing (bounded).
            self.gap_since.insert(sender, now);
            let expected = self.expected.get(&sender).copied().unwrap_or(1);
            let missing: Vec<u64> = (expected..max_held)
                .filter(|seq| !self.holdback.contains_key(&(sender, *seq)))
                .take(32)
                .collect();
            if missing.is_empty() {
                continue;
            }
            let view_id = self.view.as_ref().expect("checked").id;
            ctx.metrics().incr(keys::NACKS_SENT);
            ctx.emit(|| HwgTraceEvent::Nack {
                hwg: self.hwg,
                sender,
                missing: missing.clone(),
            });
            ctx.send(
                sender,
                wire::frame(&VsMsg::Nack {
                    hwg: self.hwg,
                    view_id,
                    sender,
                    missing,
                }),
            );
        }
    }

    /// Sender side: serve a retransmission request from the local store.
    fn on_nack(
        &mut self,
        ctx: &mut dyn Transport,
        from: NodeId,
        view_id: ViewId,
        sender: NodeId,
        missing: &[u64],
    ) {
        let Some(view) = &self.view else { return };
        if view.id != view_id || sender != self.me {
            return;
        }
        for &seq in missing {
            // A sender's own store always holds the real payload (never a
            // skip marker), so resends serve the full message.
            if let Some(slot) = self.store.get(&(sender, seq)) {
                ctx.metrics().incr(keys::NACK_RESENDS);
                ctx.send(
                    from,
                    wire::frame(&VsMsg::Data {
                        hwg: self.hwg,
                        view_id,
                        sender,
                        seq,
                        payload: slot.clone(),
                    }),
                );
            }
        }
    }

    /// Time trigger of the stability exchange: advertise once
    /// [`STABILITY_INTERVAL`] has passed since the last advertisement.
    fn stability_tick(&mut self, ctx: &mut dyn Transport, now: SimTime) {
        if now.saturating_since(self.last_stability_sent) >= STABILITY_INTERVAL {
            self.advertise_stability(ctx);
        }
    }

    /// Advertises the delivered prefix and garbage-collects the
    /// retransmission store below the view-wide stable point. Triggered by
    /// time ([`Self::stability_tick`]) or by volume ([`STABILITY_VOLUME`]
    /// messages stored since the last advertisement), whichever is first;
    /// not while a view change is running (the flush settles the store).
    fn advertise_stability(&mut self, ctx: &mut dyn Transport) {
        let Some(view) = &self.view else { return };
        if view.len() < 2 || self.flush.is_some() || self.running.is_some() {
            return;
        }
        self.last_stability_sent = ctx.now();
        self.stored_since_advert = 0;
        let prefix: BTreeMap<NodeId, u64> = view
            .members
            .iter()
            .map(|&m| (m, self.expected.get(&m).copied().unwrap_or(1) - 1))
            .collect();
        // Nothing delivered since the last advertisement: peers already
        // have this exact prefix, so the multicast (and the gc pass it
        // would trigger) is pure overhead.
        if self.stable_info.get(&self.me) == Some(&prefix) {
            ctx.metrics().incr(keys::STABILITY_SUPPRESSED);
            return;
        }
        self.stable_info.insert(self.me, prefix.clone());
        let members: Vec<NodeId> = view
            .members
            .iter()
            .copied()
            .filter(|&m| m != self.me)
            .collect();
        let view_id = view.id;
        let msg = wire::frame(&VsMsg::Stability {
            hwg: self.hwg,
            view_id,
            prefix,
        });
        self.multicast(ctx, &members, &msg);
        self.gc_store(ctx);
    }

    fn on_stability(
        &mut self,
        ctx: &mut dyn Transport,
        from: NodeId,
        view_id: ViewId,
        prefix: &BTreeMap<NodeId, u64>,
    ) {
        let Some(view) = &self.view else { return };
        if view.id != view_id || !view.contains(from) {
            return;
        }
        self.stable_info.insert(from, prefix.clone());
        self.gc_store(ctx);
    }

    /// Drops stored messages that every member has contiguously delivered.
    /// Only safe once all members have reported: an unreported member's
    /// prefix is conservatively 0.
    fn gc_store(&mut self, ctx: &mut dyn Transport) {
        let Some(view) = &self.view else { return };
        if view.members.len() != self.stable_info.len() {
            return;
        }
        let mut stable: BTreeMap<NodeId, u64> = BTreeMap::new();
        for &sender in &view.members {
            let min = view
                .members
                .iter()
                .map(|m| {
                    self.stable_info
                        .get(m)
                        .and_then(|p| p.get(&sender))
                        .copied()
                        .unwrap_or(0)
                })
                .min()
                .unwrap_or(0);
            stable.insert(sender, min);
        }
        let before = self.store.len();
        self.store
            .retain(|(sender, seq), _| *seq > stable.get(sender).copied().unwrap_or(0));
        self.thin_held
            .retain(|(sender, seq)| *seq > stable.get(sender).copied().unwrap_or(0));
        let dropped = before - self.store.len();
        if dropped > 0 {
            ctx.metrics().add(keys::STORE_GC, dropped as u64);
        }
    }

    /// Number of messages currently retained for retransmission (tests).
    pub(crate) fn store_len(&self) -> usize {
        self.store.len()
    }

    // ---------------- merge ----------------

    fn on_beacon(
        &mut self,
        ctx: &mut dyn Transport,
        from: NodeId,
        their_view: ViewId,
        fd: &FailureDetector,
        events: &mut Vec<VsEvent>,
    ) {
        if from == self.me || self.status != GroupStatus::Member {
            return;
        }
        let Some(view) = &self.view else { return };
        if view.id == their_view {
            self.stale_beacons = 0;
            return; // same view, nothing to merge
        }
        // Exclusion detection: a fellow member of *our* view is advertising
        // a different view. Either our NewView is still in flight (count a
        // few beacons of grace) or we were dropped by a flush restart while
        // still connected — in that case our failure detector will never
        // fire (the sender's beacons keep it happy), so we must recover
        // here: become a singleton lineage and let the merge protocol pull
        // us back in (a leaver simply completes its leave).
        if view.contains(from) {
            self.stale_beacons += 1;
            if self.stale_beacons >= 3
                && self.flush.is_none()
                && self.running.is_none()
                && !self.has_merge_in_progress()
            {
                let old_id = view.id;
                ctx.emit(|| HwgTraceEvent::Excluded {
                    hwg: self.hwg,
                    old: old_id,
                });
                if self.status == GroupStatus::Leaving {
                    self.status = GroupStatus::Left;
                    self.view = None;
                    events.push(VsEvent::Left { hwg: self.hwg });
                } else {
                    let reborn = View::with_predecessors(
                        ViewId::new(self.me, self.take_view_seq()),
                        vec![self.me],
                        vec![old_id],
                    );
                    self.install_view(reborn, ctx, events);
                }
            }
            return;
        }
        if !self.i_am_acting_coordinator(fd) {
            return;
        }
        // Deterministic leadership: the lower node id drives the merge.
        if self.me.0 >= from.0 {
            return;
        }
        if self.running.is_some() || self.flush.is_some() {
            return; // busy; beacons will retry
        }
        let my_view = view.id;
        match &mut self.merge {
            Some(merge) => {
                // Extend an in-progress merge only before our own flush ran.
                if merge.my_frozen.is_none() {
                    merge.participants.entry(their_view).or_insert(None);
                    ctx.send(
                        from,
                        wire::frame(&VsMsg::MergeReq {
                            hwg: self.hwg,
                            invitee_view: their_view,
                            leader_view: my_view,
                        }),
                    );
                }
            }
            None => {
                ctx.emit(|| HwgTraceEvent::MergeStart {
                    hwg: self.hwg,
                    leader: self.me,
                    invitee_view: their_view,
                });
                ctx.metrics().incr(keys::MERGES_STARTED);
                let mut participants = BTreeMap::new();
                participants.insert(their_view, None);
                self.merge = Some(MergeState {
                    participants,
                    my_frozen: None,
                    started_at: ctx.now(),
                });
                ctx.send(
                    from,
                    wire::frame(&VsMsg::MergeReq {
                        hwg: self.hwg,
                        invitee_view: their_view,
                        leader_view: my_view,
                    }),
                );
                // Flush our own view as our merge contribution.
                self.start_flush(ctx, fd, &[], events);
            }
        }
    }

    fn on_merge_req(
        &mut self,
        ctx: &mut dyn Transport,
        from: NodeId,
        invitee_view: ViewId,
        _leader_view: ViewId,
        fd: &FailureDetector,
        events: &mut Vec<VsEvent>,
    ) {
        let stale = self.view.as_ref().map(|v| v.id) != Some(invitee_view)
            || self.status != GroupStatus::Member
            || !self.i_am_acting_coordinator(fd)
            || self.running.is_some()
            || self.flush.is_some()
            || self.merge.is_some();
        if stale {
            ctx.send(
                from,
                wire::frame(&VsMsg::MergeNack {
                    hwg: self.hwg,
                    invitee_view,
                }),
            );
            return;
        }
        ctx.emit(|| HwgTraceEvent::MergeAccept {
            hwg: self.hwg,
            leader: from,
        });
        self.invited_merge_leader = Some(from);
        self.start_flush(ctx, fd, &[], events);
    }

    fn on_merge_ready(&mut self, ctx: &mut dyn Transport, frozen: View, events: &mut Vec<VsEvent>) {
        let Some(merge) = &mut self.merge else { return };
        if let Some(slot) = merge.participants.get_mut(&frozen.id) {
            *slot = Some(frozen);
        }
        self.try_complete_merge(ctx, events);
    }

    /// If the leader's own flush and every participant report are in,
    /// install the merged view everywhere.
    fn try_complete_merge(&mut self, ctx: &mut dyn Transport, _events: &mut Vec<VsEvent>) {
        let Some(merge) = &self.merge else { return };
        let Some(my_frozen) = &merge.my_frozen else {
            return;
        };
        if merge.participants.values().any(Option::is_none) {
            return;
        }
        let my_frozen = my_frozen.clone();
        let participants: Vec<View> = merge
            .participants
            .values()
            .map(|v| v.clone().expect("checked above"))
            .collect();
        self.merge = None;

        let mut members = my_frozen.members.clone();
        let mut predecessors = vec![my_frozen.id];
        for p in &participants {
            for &m in &p.members {
                if !members.contains(&m) {
                    members.push(m);
                }
            }
            predecessors.push(p.id);
        }
        let view = View::with_predecessors(
            ViewId::new(self.me, self.take_view_seq()),
            members,
            predecessors,
        );
        ctx.emit(|| HwgTraceEvent::MergeComplete {
            hwg: self.hwg,
            view: view.clone(),
        });
        ctx.metrics().incr(keys::MERGES_COMPLETED);
        self.distribute_view(ctx, &view);
    }
}

impl GroupEndpoint {
    /// Whether this endpoint is currently leading or contributing to a
    /// merge (used by the stack for introspection and tests).
    pub(crate) fn has_merge_in_progress(&self) -> bool {
        self.merge.is_some() || self.invited_merge_leader.is_some()
    }
}
