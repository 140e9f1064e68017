//! The per-node protocol stack: multiplexes group endpoints, runs the
//! shared failure detector, and exposes the Table-1 interface of the paper
//! (`Join`, `Leave`, `Send`, `StopOk` down; `View`, `Data`, `Stop` up).

use crate::fd::{FailureDetector, FdEvent};
use crate::group::GroupEndpoint;
use crate::keys;
use crate::msg::VsMsg;
use crate::wire;
use crate::{GroupStatus, HwgConfig, HwgEvent, HwgSubstrate};
use plwg_hwg::{HwgId, HwgTraceEvent, View};
use plwg_sim::{
    decode_frame, family, peek_family, NodeId, Payload, TimerToken, Transport, TransportExt,
};
use std::collections::{BTreeMap, BTreeSet};

/// Timer token used for the failure-detector / protocol tick.
const TOK_FD: TimerToken = TimerToken(0x0100_0000_0000_0001);
/// Timer token used for coordinator view beacons.
const TOK_BEACON: TimerToken = TimerToken(0x0100_0000_0000_0002);

/// One node's HWG protocol stack.
///
/// Its API is [`HwgSubstrate`] (paper Table 1) plus a few diagnostics.
/// The owner (a [`plwg_sim::Process`]) must forward messages and timers:
///
/// ```ignore
/// fn on_message(&mut self, ctx, from, msg) {
///     if self.stack.on_message(ctx, from, &msg) {
///         for ev in self.stack.drain_events() { /* handle upcalls */ }
///     }
/// }
/// ```
pub struct VsyncStack {
    me: NodeId,
    cfg: HwgConfig,
    fd: FailureDetector,
    groups: BTreeMap<HwgId, GroupEndpoint>,
    events: Vec<HwgEvent>,
}

impl VsyncStack {
    /// Creates a stack for node `me`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`HwgConfig::validate`]).
    pub fn new(me: NodeId, cfg: HwgConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        VsyncStack {
            me,
            cfg,
            fd: FailureDetector::new(),
            groups: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HwgConfig {
        &self.cfg
    }

    /// Whether a merge is in progress on `hwg` (test/diagnostic hook).
    pub fn merge_in_progress(&self, hwg: HwgId) -> bool {
        self.groups
            .get(&hwg)
            .is_some_and(GroupEndpoint::has_merge_in_progress)
    }

    /// Whether the local failure detector currently suspects `peer`.
    pub fn suspects(&self, peer: NodeId) -> bool {
        self.fd.is_suspected(peer)
    }

    /// Messages currently retained for retransmission on `hwg` — bounded
    /// by the stability exchange (diagnostics and tests).
    pub fn retransmit_buffer_len(&self, hwg: HwgId) -> usize {
        self.groups.get(&hwg).map_or(0, GroupEndpoint::store_len)
    }

    fn fd_tick(&mut self, ctx: &mut dyn Transport) {
        let mark = self.events.len();
        // Heartbeats to everything we monitor — one encoding, n refcounts.
        let mut hb: Option<Payload> = None;
        for p in self.fd.watched() {
            let hb = hb.get_or_insert_with(|| wire::frame(&VsMsg::Heartbeat));
            ctx.send(p, hb.clone());
        }
        // Fresh suspicions drive view changes in all affected groups.
        let fd_events = self.fd.check(ctx.now(), self.cfg.suspect_timeout);
        for ev in &fd_events {
            if let FdEvent::Suspect(p) = ev {
                let peer = *p;
                ctx.emit(|| HwgTraceEvent::FdSuspect { peer });
                ctx.metrics().incr(keys::FD_SUSPICIONS);
            }
        }
        let now = ctx.now();
        for ep in self.groups.values_mut() {
            ep.on_tick(ctx, now, &self.fd, &mut self.events);
        }
        self.settle(ctx, mark);
    }

    /// `peer`, suspected and outside every view, was heard from again: a
    /// partition healed. Each group this node coordinates beacons it at
    /// once rather than at the next beacon tick, so the merge protocol
    /// starts one heartbeat after the heal (the lower-id coordinator leads
    /// it). Not suspected any more, the peer is no longer watched.
    fn greet(&mut self, ctx: &mut dyn Transport, peer: NodeId) {
        let views = || self.groups.values().filter_map(GroupEndpoint::view);
        if views().any(|view| view.contains(peer)) {
            return;
        }
        for ep in self.groups.values() {
            ep.send_beacon(ctx, &self.fd, Some(peer));
        }
        self.sync_watches(ctx);
    }

    /// Ends every handler that may change membership. The watch set and the
    /// endpoint table follow the installed views, and an endpoint changes
    /// its view only where it pushes a `View` or `Left` upcall
    /// (`install_view`, `become_left`) — so a handler that pushed neither
    /// since `mark` (every steady-state `Data`, `Stability`, `Nack` or
    /// `Heartbeat` frame) leaves the failure detector alone.
    fn settle(&mut self, ctx: &mut dyn Transport, mark: usize) {
        let membership_moved = self.events[mark..]
            .iter()
            .any(|ev| matches!(ev, HwgEvent::View { .. } | HwgEvent::Left { .. }));
        if membership_moved {
            self.sync_watches(ctx);
        }
        debug_assert!(self.watches_follow_views());
    }

    /// Re-derives the failure-detector watch set from current group
    /// membership (and drops endpoints that have terminally left).
    fn sync_watches(&mut self, ctx: &mut dyn Transport) {
        self.groups.retain(|_, ep| ep.status() != GroupStatus::Left);
        let now = ctx.now();
        for view in self.groups.values().filter_map(GroupEndpoint::view) {
            for &m in view.members.iter().filter(|&&m| m != self.me) {
                self.fd.watch(m, now);
            }
        }
        let views = || self.groups.values().filter_map(GroupEndpoint::view);
        self.fd.retain(|p| views().any(|view| view.contains(p)));
    }

    /// The invariant [`Self::settle`] maintains, checked after every
    /// handler in debug builds: the detector watches the members of the
    /// installed views other than this node, and besides them only
    /// suspected peers; no `Left` endpoint lingers. Nested iteration, no
    /// allocation.
    fn watches_follow_views(&self) -> bool {
        let views = || self.groups.values().filter_map(GroupEndpoint::view);
        let in_a_view = |p| views().any(|view| view.contains(p));
        let watched = |m| self.fd.watched().any(|p| p == m);
        let left = |ep: &GroupEndpoint| ep.status() == GroupStatus::Left;
        let mut members = views().flat_map(|view| &view.members);
        !self.groups.values().any(left)
            && self
                .fd
                .watched()
                .all(|p| p != self.me && (in_a_view(p) || self.fd.is_suspected(p)))
            && members.all(|&m| m == self.me || watched(m))
    }
}

/// The stack's whole Table-1 surface: the down-calls, the status queries
/// and the message/timer plumbing its owner forwards.
impl HwgSubstrate for VsyncStack {
    fn build(me: NodeId, cfg: &HwgConfig) -> Self {
        VsyncStack::new(me, cfg.clone())
    }

    fn node(&self) -> NodeId {
        self.me
    }

    fn start(&mut self, ctx: &mut dyn Transport) {
        ctx.set_timer(self.cfg.hb_interval, TOK_FD);
        ctx.set_timer(self.cfg.beacon_interval, TOK_BEACON);
    }

    /// Probes for an existing view; if none answers, forms a singleton
    /// view. No-op if already a member or joining.
    fn join(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        match self.groups.get(&hwg).map(GroupEndpoint::status) {
            Some(GroupStatus::Member | GroupStatus::Joining | GroupStatus::Leaving) => {}
            Some(GroupStatus::Left) | None => {
                let ep = GroupEndpoint::new_joining(hwg, self.me, ctx);
                self.groups.insert(hwg, ep);
            }
        }
    }

    /// If concurrent creations race, the resulting concurrent views merge
    /// via the beacon protocol exactly like healed partitions do.
    fn create(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        match self.groups.get(&hwg).map(GroupEndpoint::status) {
            Some(GroupStatus::Member | GroupStatus::Joining | GroupStatus::Leaving) => {}
            Some(GroupStatus::Left) | None => {
                let mark = self.events.len();
                let ep = GroupEndpoint::new_created(hwg, self.me, ctx, &mut self.events);
                self.groups.insert(hwg, ep);
                self.settle(ctx, mark);
            }
        }
    }

    fn leave(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let mark = self.events.len();
        if let Some(ep) = self.groups.get_mut(&hwg) {
            ep.leave(ctx, &self.fd, &mut self.events);
        }
        self.settle(ctx, mark);
    }

    fn send(&mut self, ctx: &mut dyn Transport, hwg: HwgId, data: Payload) {
        if let Some(ep) = self.groups.get_mut(&hwg) {
            ep.send_payload(ctx, None, data, &mut self.events);
        }
    }

    /// Members outside the target set receive a same-sequence
    /// [`crate::Slot::Skip`] marker that holds their FIFO slot without an
    /// upcall. Buffered sends (no view, or mid-flush) fall back to full
    /// multicasts.
    fn send_to(
        &mut self,
        ctx: &mut dyn Transport,
        hwg: HwgId,
        targets: &BTreeSet<NodeId>,
        data: Payload,
    ) {
        if let Some(ep) = self.groups.get_mut(&hwg) {
            ep.send_payload(ctx, Some(targets), data, &mut self.events);
        }
    }

    /// A no-op while a flush or merge is in progress.
    fn force_flush(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let mark = self.events.len();
        if let Some(ep) = self.groups.get_mut(&hwg) {
            ep.force_flush(ctx, &self.fd, &mut self.events);
        }
        self.settle(ctx, mark);
    }

    fn stop_ok(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let mark = self.events.len();
        if let Some(ep) = self.groups.get_mut(&hwg) {
            ep.stop_ok(ctx);
        }
        self.settle(ctx, mark);
    }

    fn view_of(&self, hwg: HwgId) -> Option<&View> {
        self.groups.get(&hwg).and_then(GroupEndpoint::view)
    }

    fn status_of(&self, hwg: HwgId) -> GroupStatus {
        self.groups
            .get(&hwg)
            .map_or(GroupStatus::Left, GroupEndpoint::status)
    }

    fn is_coordinator(&self, hwg: HwgId) -> bool {
        self.groups
            .get(&hwg)
            .is_some_and(|ep| ep.i_am_acting_coordinator(&self.fd))
    }

    fn groups(&self) -> Vec<HwgId> {
        self.groups
            .iter()
            .filter(|(_, ep)| ep.status() != GroupStatus::Left)
            .map(|(&h, _)| h)
            .collect()
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: &Payload) -> bool {
        if peek_family(msg) != Some(family::VS) {
            return false;
        }
        let vs = match decode_frame::<VsMsg>(family::VS, msg) {
            Ok(vs) => vs,
            Err(_) => {
                // A frame claiming our family but failing to decode is
                // dropped, not panicked on; the sender will recover through
                // the normal timeout/NACK machinery.
                ctx.metrics().incr(keys::DECODE_ERRORS);
                return true;
            }
        };
        let vs = &vs;
        let mark = self.events.len();
        // Any traffic is evidence of life.
        if let Some(FdEvent::Alive(_)) = self.fd.heard_from(from, ctx.now()) {
            ctx.emit(|| HwgTraceEvent::FdAlive { peer: from });
            self.greet(ctx, from);
        }
        match vs {
            VsMsg::Heartbeat => {}
            VsMsg::JoinProbe { hwg }
            | VsMsg::JoinOffer { hwg, .. }
            | VsMsg::JoinReq { hwg }
            | VsMsg::LeaveReq { hwg }
            | VsMsg::Data { hwg, .. }
            | VsMsg::FlushReq { hwg, .. }
            | VsMsg::FlushDigest { hwg, .. }
            | VsMsg::FlushTarget { hwg, .. }
            | VsMsg::FlushPull { hwg, .. }
            | VsMsg::FlushFill { hwg, .. }
            | VsMsg::FlushDone { hwg, .. }
            | VsMsg::NewView { hwg, .. }
            | VsMsg::Nack { hwg, .. }
            | VsMsg::Stability { hwg, .. }
            | VsMsg::Beacon { hwg, .. }
            | VsMsg::MergeReq { hwg, .. }
            | VsMsg::MergeReady { hwg, .. }
            | VsMsg::MergeNack { hwg, .. } => {
                if let Some(ep) = self.groups.get_mut(hwg) {
                    ep.on_msg(ctx, from, vs, &self.fd, &self.cfg, &mut self.events);
                }
            }
        }
        self.settle(ctx, mark);
        true
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) -> bool {
        match token {
            TOK_FD => {
                self.fd_tick(ctx);
                ctx.set_timer(self.cfg.hb_interval, TOK_FD);
                true
            }
            TOK_BEACON => {
                for ep in self.groups.values() {
                    ep.send_beacon(ctx, &self.fd, None);
                }
                ctx.set_timer(self.cfg.beacon_interval, TOK_BEACON);
                debug_assert!(self.watches_follow_views());
                true
            }
            _ => false,
        }
    }

    fn drain_events(&mut self) -> Vec<HwgEvent> {
        std::mem::take(&mut self.events)
    }

    /// Keeps the internal buffer's capacity (the allocation-free drain the
    /// LWG service's pump loop uses).
    fn drain_events_into(&mut self, out: &mut Vec<HwgEvent>) {
        out.append(&mut self.events);
    }
}

impl std::fmt::Debug for VsyncStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VsyncStack")
            .field("me", &self.me)
            .field("groups", &self.groups.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}
