//! The light-weight group service: struct, plumbing, and upcall dispatch.
//!
//! One [`LwgService`] runs at each application node. It owns the node's
//! HWG substrate (any [`HwgSubstrate`] — [`plwg_hwg`] Table-1
//! implementation) and naming stub ([`plwg_naming::NsClient`]), maintains
//! the local mapping table, runs the Figure-1 policies, and implements the
//! four-step partition-heal procedure of paper §6.
//!
//! The protocol itself lives in sibling modules, one per concern:
//!
//! | module                | concern                                        |
//! |-----------------------|------------------------------------------------|
//! | [`crate::mapping`]    | naming-service interaction, LWG→HWG policies   |
//! | [`crate::data_plane`] | send / pack / subset delivery                  |
//! | [`crate::flush`]      | LWG flushes, join/leave, view installation     |
//! | [`crate::switch`]     | re-mapping a group onto another HWG (§3, §6.2) |
//! | [`crate::merge`]      | MERGE-VIEWS single-flush healing (Fig. 5)      |

use crate::batch::{FlushReason, PackBuffer};
use crate::config::LwgConfig;
use crate::directory::{DirCounters, GroupDirectory};
use crate::events::LwgEvent;
use crate::msg::{LFlushId, LwgMsg};
use crate::protocol_events::LwgProtocolEvent;
use crate::state::{Ack, FlushReq, Held, LwgStatus, MergeRound, NsPurpose, Phase, ServiceStats};
use crate::wire;
use plwg_hwg::{HwgEvent, HwgId, HwgSubstrate, View};
use plwg_naming::{LwgId, NsClient, RequestId};
use plwg_sim::{
    decode_frame, family, peek_family, NodeId, Payload, SimTime, TimerToken, Transport,
    TransportExt,
};
use std::collections::BTreeMap;

pub(crate) const TOK_POLICY: TimerToken = TimerToken(0x0300_0000_0000_0001);
pub(crate) const TOK_TICK: TimerToken = TimerToken(0x0300_0000_0000_0002);
pub(crate) const TOK_PACK: TimerToken = TimerToken(0x0300_0000_0000_0003);
pub(crate) const TOK_REBALANCE: TimerToken = TimerToken(0x0300_0000_0000_0004);

/// The light-weight group service at one node, generic over the Table-1
/// substrate `S` that carries its traffic.
///
/// The owner process forwards messages/timers and drains [`LwgEvent`]s;
/// [`crate::LwgNode`] is a ready-made wrapper that does exactly that.
/// Production code instantiates `LwgService<plwg_vsync::VsyncStack>`;
/// protocol tests use `LwgService<`[`crate::ScriptedHwg`]`>`.
pub struct LwgService<S: HwgSubstrate> {
    pub(crate) me: NodeId,
    pub(crate) cfg: LwgConfig,
    pub(crate) substrate: S,
    pub(crate) ns: NsClient,
    /// The sharded, indexed LWG record store (see [`crate::directory`]).
    pub(crate) dir: GroupDirectory,
    pub(crate) rounds: BTreeMap<HwgId, MergeRound>,
    /// Forward pointers left behind by switches (paper §3.1).
    pub(crate) forward: BTreeMap<LwgId, HwgId>,
    /// Naming requests awaiting a reply, with their purpose.
    pub(crate) ns_lookups: BTreeMap<RequestId, (LwgId, NsPurpose)>,
    /// Data held for a view about to be installed here, in arrival order
    /// (see [`LwgService::release_held`]): it lives as long as one flush
    /// or one join.
    pub(crate) held: Vec<Held>,
    /// HWGs with no local LWG mapped, and since when (shrink rule).
    pub(crate) idle_hwgs: BTreeMap<HwgId, SimTime>,
    /// Switches, `(flush, target, since)`, of views this node does not
    /// hold that list it (see [`crate::switch`]): it reports ready on the
    /// target like a follower, until the flush watchdog's span has passed.
    pub(crate) foreign_switches: BTreeMap<LwgId, (LFlushId, HwgId, SimTime)>,
    pub(crate) last_ns_poll: SimTime,
    /// Rate limit for MERGE-VIEWS per HWG: a forced flush is pointless (and
    /// starves the HWG-level beacon merge) more than ~once a second.
    pub(crate) last_merge_views: BTreeMap<HwgId, SimTime>,
    /// Sends waiting to be packed into one HWG multicast, per backing HWG
    /// (empty unless `pack_max_msgs > 1`).
    pub(crate) packs: BTreeMap<HwgId, PackBuffer>,
    /// Whether a `TOK_PACK` timer is outstanding (one timer serves all
    /// buffers; it fires, flushes everything non-empty, and is re-armed by
    /// the next buffered send).
    pub(crate) pack_timer_armed: bool,
    pub(crate) events: Vec<LwgEvent>,
    /// Reusable buffer for [`LwgService::pump`] (capacity persists across
    /// pumps so draining the substrate is allocation-free).
    hwg_scratch: Vec<HwgEvent>,
    /// The HWG views this node holds, to check the `Stop` obligation.
    #[cfg(debug_assertions)]
    hwg_views: BTreeMap<HwgId, plwg_hwg::ViewId>,
}

impl<S: HwgSubstrate> LwgService<S> {
    /// Starts building a service for node `me`: set the name servers (and
    /// optionally a config or pre-built substrate), then call
    /// [`crate::LwgBuilder::build`].
    pub fn builder(me: NodeId) -> crate::LwgBuilder<S> {
        crate::LwgBuilder::new(me)
    }

    /// Assembles the service from parts the builder has already checked:
    /// `cfg` validated (with `auto_stop_ok` forced off), `servers`
    /// non-empty, `substrate` belonging to this node.
    pub(crate) fn from_parts(substrate: S, servers: Vec<NodeId>, cfg: LwgConfig) -> Self {
        let me = substrate.node();
        LwgService {
            me,
            substrate,
            ns: NsClient::new(me, servers),
            cfg,
            dir: GroupDirectory::new(me),
            rounds: BTreeMap::new(),
            forward: BTreeMap::new(),
            ns_lookups: BTreeMap::new(),
            held: Vec::new(),
            idle_hwgs: BTreeMap::new(),
            foreign_switches: BTreeMap::new(),
            last_ns_poll: SimTime::ZERO,
            last_merge_views: BTreeMap::new(),
            packs: BTreeMap::new(),
            pack_timer_armed: false,
            events: Vec::new(),
            hwg_scratch: Vec::new(),
            #[cfg(debug_assertions)]
            hwg_views: BTreeMap::new(),
        }
    }

    /// The node this service runs on.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// The configuration the service was built with (post-validation;
    /// `hwg.auto_stop_ok` is always `false` here).
    pub fn config(&self) -> &LwgConfig {
        &self.cfg
    }

    /// Must be called from the owner's `on_start`.
    pub fn start(&mut self, ctx: &mut dyn Transport) {
        self.substrate.start(ctx);
        ctx.set_timer(self.cfg.tick_interval, TOK_TICK);
        ctx.set_timer(self.cfg.policy_interval, TOK_POLICY);
        if let Some(interval) = self.cfg.rebalance_interval {
            ctx.set_timer(interval, TOK_REBALANCE);
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The current view of `lwg` at this member.
    pub fn view_of(&self, lwg: LwgId) -> Option<&View> {
        self.dir.get(lwg).and_then(|s| s.view.as_ref())
    }

    /// The HWG `lwg` is currently mapped onto here.
    pub fn mapping_of(&self, lwg: LwgId) -> Option<HwgId> {
        self.dir.get(lwg).and_then(|s| s.hwg)
    }

    /// HWGs this node is currently a member of.
    pub fn hwgs(&self) -> Vec<HwgId> {
        self.substrate.groups()
    }

    /// Whether this node is the acting coordinator of `lwg`.
    pub fn is_lwg_coordinator(&self, lwg: LwgId) -> bool {
        self.lwg_coordinator(lwg) == Some(self.me)
    }

    /// Direct access to the HWG substrate (experiments and tests).
    pub fn hwg_stack(&self) -> &S {
        &self.substrate
    }

    /// Mutable access to the HWG substrate (tests that script it).
    pub fn hwg_stack_mut(&mut self) -> &mut S {
        &mut self.substrate
    }

    /// Takes the application upcalls produced since the last drain.
    pub fn drain_events(&mut self) -> Vec<LwgEvent> {
        std::mem::take(&mut self.events)
    }

    /// A point-in-time summary of this node's resources — counts only;
    /// per-group status is served by the indexed
    /// [`LwgService::lwg_status`] / [`LwgService::iter_status`] queries
    /// instead of a clone-everything snapshot.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            groups: self.dir.len(),
            hwgs: self.hwgs(),
            forward_pointers: self.forward.len(),
            pending_ns_requests: self.ns_lookups.len(),
        }
    }

    /// Status of one group — an indexed O(log L) lookup.
    pub fn lwg_status(&self, lwg: LwgId) -> Option<LwgStatus> {
        self.dir.get(lwg).map(|s| self.status_of(lwg, s))
    }

    /// Status of every local group, ascending by id. Lazily materialised:
    /// callers that stop early never pay for the rest of the table.
    pub fn iter_status(&self) -> impl Iterator<Item = LwgStatus> + '_ {
        // The one full walk: operator status, never a protocol decision.
        self.dir.iter_all().map(|(lwg, s)| self.status_of(lwg, s))
    }

    /// Directory operation counters (monotone) — recorded by the
    /// `lwg_scale_sweep` bench to show lookup cost independent of the
    /// total group count.
    pub fn directory_counters(&self) -> DirCounters {
        self.dir.counters()
    }

    fn status_of(&self, lwg: LwgId, s: &crate::state::LwgState) -> LwgStatus {
        LwgStatus {
            lwg,
            phase: match s.phase {
                Phase::ReadingNs => "reading-ns",
                Phase::JoiningHwg { .. } => "joining-hwg",
                Phase::AwaitingAdmission { .. } => "awaiting-admission",
                Phase::Member => "member",
                Phase::Leaving => "leaving",
            },
            view: s.view.as_ref().map(|v| v.id),
            members: s.view.as_ref().map_or(0, View::len),
            hwg: s.hwg,
            coordinator: self.lwg_coordinator(lwg) == Some(self.me),
            busy: s.busy(),
        }
    }

    /// The acting coordinator of `lwg`: its most senior member that is
    /// still in the backing HWG view.
    pub(crate) fn lwg_coordinator(&self, lwg: LwgId) -> Option<NodeId> {
        let state = self.dir.get(lwg)?;
        let view = state.view.as_ref()?;
        let hwg = state.hwg?;
        let hview = self.substrate.view_of(hwg)?;
        view.members.iter().copied().find(|&m| hview.contains(m))
    }

    // ------------------------------------------------------------------
    // Plumbing
    // ------------------------------------------------------------------

    /// Routes an incoming message. Returns `true` when consumed.
    pub fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: &Payload) -> bool {
        if self.substrate.on_message(ctx, from, msg) {
            self.pump(ctx);
            return true;
        }
        if self.ns.on_message(ctx, from, msg) {
            self.pump_ns(ctx);
            return true;
        }
        if peek_family(msg) == Some(family::LWG) {
            // Direct node-to-node LWG message (Redirect).
            match decode_frame::<LwgMsg>(family::LWG, msg) {
                Ok(lm) => self.handle_lwg_msg(ctx, None, from, &lm),
                Err(_) => ctx.metrics().incr(crate::keys::DECODE_ERRORS),
            }
            return true;
        }
        false
    }

    /// Routes a timer. Returns `true` when consumed.
    pub fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) -> bool {
        if self.substrate.on_timer(ctx, token) {
            self.pump(ctx);
            return true;
        }
        if self.ns.on_timer(ctx, token) {
            self.pump_ns(ctx);
            return true;
        }
        match token {
            TOK_TICK => {
                self.tick(ctx);
                ctx.set_timer(self.cfg.tick_interval, TOK_TICK);
                true
            }
            TOK_POLICY => {
                self.run_policies(ctx);
                ctx.set_timer(self.cfg.policy_interval, TOK_POLICY);
                true
            }
            TOK_PACK => {
                self.pack_timer_armed = false;
                self.flush_all_packs(ctx, FlushReason::Timer);
                self.pump(ctx);
                true
            }
            TOK_REBALANCE => {
                if let Some(interval) = self.cfg.rebalance_interval {
                    self.run_rebalance(ctx);
                    ctx.set_timer(interval, TOK_REBALANCE);
                }
                true
            }
            _ => false,
        }
    }

    /// Drains and handles buffered substrate events until quiescent:
    /// handling one event can enqueue more (e.g. `stop_ok` completes a
    /// flush which installs a view). Called automatically from the
    /// message/timer plumbing; public so tests that inject events straight
    /// into a scripted substrate can make the service observe them.
    pub fn pump(&mut self, ctx: &mut dyn Transport) {
        // The scratch buffer is taken for the duration of the pump (so a
        // re-entrant pump simply allocates afresh) and put back with its
        // capacity intact: the steady-state loop allocates nothing.
        let mut events = std::mem::take(&mut self.hwg_scratch);
        loop {
            events.clear();
            self.substrate.drain_events_into(&mut events);
            if events.is_empty() {
                break;
            }
            for ev in events.drain(..) {
                self.handle_hwg_event(ctx, ev);
            }
        }
        self.hwg_scratch = events;
    }

    fn pump_ns(&mut self, ctx: &mut dyn Transport) {
        for ev in self.ns.drain_events() {
            self.handle_ns_event(ctx, ev);
        }
    }

    // ------------------------------------------------------------------
    // HWG upcalls
    // ------------------------------------------------------------------

    fn handle_hwg_event(&mut self, ctx: &mut dyn Transport, ev: HwgEvent) {
        match ev {
            HwgEvent::Stop { hwg } => {
                // Barrier: buffered packs must go out before stop_ok so
                // they are part of the closing view's message set — a
                // batch never straddles the HWG view cut.
                self.flush_pack(ctx, hwg, FlushReason::Barrier);
                // Piggyback our LWG view advertisement on every HWG flush:
                // sent before stop_ok, it is part of the closing view's
                // message set, so after the flush every member knows every
                // LWG view present (the ALL-VIEWS exchange of Fig. 5).
                if let Some(advert) = self.all_views_advert(hwg) {
                    self.substrate.send(ctx, hwg, advert);
                }
                self.rounds.entry(hwg).or_default().stopped = true;
                self.substrate.stop_ok(ctx, hwg);
            }
            HwgEvent::Data {
                hwg,
                view_id: _,
                src,
                data,
            } => {
                // The payload of an HWG multicast is itself a complete LWG
                // frame; anything else (a raw application payload on a bare
                // substrate) is not ours to interpret.
                if peek_family(&data) == Some(family::LWG) {
                    match decode_frame::<LwgMsg>(family::LWG, &data) {
                        Ok(lm) => self.handle_lwg_msg(ctx, Some(hwg), src, &lm),
                        Err(_) => ctx.metrics().incr(crate::keys::DECODE_ERRORS),
                    }
                }
            }
            HwgEvent::View { hwg, view } => self.handle_hwg_view(ctx, hwg, view),
            HwgEvent::Left { hwg } => {
                #[cfg(debug_assertions)]
                self.hwg_views.remove(&hwg);
                self.idle_hwgs.remove(&hwg);
                self.rounds.remove(&hwg);
                self.last_merge_views.remove(&hwg);
                // The transport is gone; buffered packs can no longer be
                // multicast (the stranded LWGs re-join from scratch).
                self.packs.remove(&hwg);
                // Any LWG still mapped there lost its transport: restart
                // its join flow from the naming service.
                for lwg in self.dir.mapped_on(hwg) {
                    self.restart_join(ctx, lwg);
                }
            }
        }
    }

    /// Reacts to a new HWG view: complete joins/switches that were waiting
    /// for HWG membership, run the merge round (which merges concurrent LWG
    /// views and prunes LWG members that fell out of the HWG), refresh
    /// naming.
    fn handle_hwg_view(&mut self, ctx: &mut dyn Transport, hwg: HwgId, hview: View) {
        ctx.emit(|| LwgProtocolEvent::HwgView {
            hwg,
            view: hview.clone(),
        });
        // The round relies on `HwgSubstrate`'s `Stop` obligation. Vsync's
        // exclusion rebirth, a singleton view of this node, breaks it: its
        // round prunes nothing, and step 5's LWG flush shrinks its views.
        #[cfg(debug_assertions)]
        {
            let held = self.hwg_views.insert(hwg, hview.id);
            let stopped = self.stopped_on(Some(hwg)) || hview.members == [self.me];
            let succeeds = held.is_some_and(|h| hview.predecessors.contains(&h));
            debug_assert!(stopped || !succeeds, "{hwg}: {hview} without a Stop");
        }

        // Feed the directory's HWG-id allocation floor: ids re-learned
        // after a restart must never be re-allocated.
        self.dir.observe_hwg(hwg);

        // Barrier (belt and braces — the Stop upcall already flushed):
        // anything still buffered is multicast now, entirely inside the
        // new view, before anything the steps below send.
        self.flush_pack(ctx, hwg, FlushReason::Barrier);

        // 1. Joiners waiting for this HWG ask for admission now (the
        //    reverse index holds joiners under their *target* HWG).
        for lwg in self.dir.mapped_on(hwg) {
            if self
                .dir
                .get(lwg)
                .is_some_and(|s| matches!(s.phase, Phase::JoiningHwg { .. }))
                && hview.contains(self.me)
            {
                self.request_admission(ctx, lwg, hwg);
            }
        }

        // 2. Members following a switch to this HWG report readiness, and
        //    so do the members listed in one they do not follow.
        let following = self.dir.switching_to(hwg).into_iter().filter_map(|lwg| {
            let (flush, _) = self.dir.get(lwg)?.followed()?;
            Some((lwg, flush))
        });
        let listed = (self.foreign_switches.iter())
            .filter(|(_, (_, to, _))| *to == hwg)
            .map(|(&lwg, &(flush, ..))| (lwg, flush));
        let ready: Vec<(LwgId, LFlushId)> = following.chain(listed).collect();
        for (lwg, flush) in ready.into_iter().filter(|_| hview.contains(self.me)) {
            self.substrate
                .send(ctx, hwg, wire::frame(&LwgMsg::SwitchReady { lwg, flush }));
        }

        // 3. Merge round: the flush that produced this view carried every
        //    member's AllViews. Each member installs every view the change
        //    implies now, merged or pruned: one HWG flush serves every
        //    co-mapped group (the resource sharing of Fig. 2's recovery).
        let installed = self.complete_merge_round(ctx, hwg, &hview);

        // 4. An HWG *merge* (several predecessors) means concurrent LWG
        //    views may now share this HWG without knowing it: trigger
        //    MERGE-VIEWS (step 3→4 of paper §6). Any member may send it;
        //    the HWG coordinator does, deterministically.
        if hview.predecessors.len() > 1 && self.substrate.is_coordinator(hwg) {
            self.trigger_merge_views(ctx, hwg);
        }

        // 5. Installs held back while this node was stopped conclude now.
        //    Coordinators refresh the naming service with the new HWG view
        //    (paper Table 4 stage 2), and flush a view the round could not
        //    prune.
        //
        //    An HWG merge refreshes nothing: step 4's round replaces the
        //    views, and the other side's name server would answer each with
        //    a callback. The next HWG view (the round's) refreshes the rest.
        for lwg in self.dir.mapped_on(hwg) {
            // A view installed by step 3 or here was registered by its
            // coordinator at the install, and lists only members of this
            // view.
            if installed.contains(&lwg) || self.try_conclude_lwg_flush(ctx, lwg) {
                continue;
            }
            if self.lwg_coordinator(lwg) != Some(self.me) {
                continue;
            }
            let whole = |v: &View| v.members.iter().all(|&m| hview.contains(m));
            let whole = self.view_of(lwg).is_some_and(whole);
            if whole && hview.predecessors.len() < 2 {
                self.refresh_mapping(ctx, lwg);
            }
            self.maybe_start_lwg_flush(ctx, lwg);
        }
    }

    // ------------------------------------------------------------------
    // LWG message dispatch
    // ------------------------------------------------------------------

    pub(crate) fn handle_lwg_msg(
        &mut self,
        ctx: &mut dyn Transport,
        hwg: Option<HwgId>,
        from: NodeId,
        msg: &LwgMsg,
    ) {
        match msg {
            LwgMsg::Data {
                lwg,
                lwg_view,
                data,
            } => {
                self.handle_lwg_data(ctx, hwg, *lwg, *lwg_view, from, data.clone());
            }
            LwgMsg::Batch { entries } => {
                // Unpack in send order: per-sender FIFO within a batch is
                // the sender's append order, across batches the HWG's
                // per-sender sequencing.
                for (lwg, lwg_view, data) in entries {
                    self.handle_lwg_data(ctx, hwg, *lwg, *lwg_view, from, data.clone());
                }
            }
            LwgMsg::JoinReq { lwg } => self.handle_join_req(ctx, hwg, *lwg, from),
            LwgMsg::LeaveReq { lwg } => self.handle_leave_req(ctx, *lwg, from),
            LwgMsg::Flush {
                lwg,
                flush,
                view,
                members,
                next,
                to,
            } => {
                if let Some(hwg) = hwg {
                    let req = FlushReq {
                        flush: *flush,
                        hwg,
                        view: *view,
                        members: members.clone(),
                        next: next.clone(),
                        to: *to,
                    };
                    self.handle_lwg_flush(ctx, *lwg, req);
                }
            }
            LwgMsg::FlushOk { lwg, flush } => self.handle_ack(ctx, *lwg, *flush, Ack::Ok, from),
            LwgMsg::SwitchReady { lwg, flush } => {
                self.handle_ack(ctx, *lwg, *flush, Ack::Ready, from);
            }
            LwgMsg::MergeViews => self.handle_merge_views_msg(ctx, hwg),
            LwgMsg::AllViews {
                views,
                held,
                seq_floor,
            } => self.handle_all_views(hwg, from, views, held, *seq_floor),
            LwgMsg::Redirect { lwg, to } => self.handle_redirect(ctx, *lwg, *to),
        }
    }
}

impl<S: HwgSubstrate> std::fmt::Debug for LwgService<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LwgService")
            .field("me", &self.me)
            .field("groups", &self.dir.len())
            .field("hwgs", &self.hwgs())
            .finish_non_exhaustive()
    }
}
