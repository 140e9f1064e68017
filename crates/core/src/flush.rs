//! LWG membership changes: the user-facing `join`/`leave` down-calls
//! (paper Table 1) and the LWG-level flush that installs successor views.
//!
//! An LWG flush mirrors the HWG layer's in miniature: the coordinator
//! multicasts a `Flush` that names the successor view, members stop
//! sending, flush their pack buffers and answer `FlushOk`. Each `FlushOk`
//! is an HWG multicast, so every member, and every joiner the successor
//! lists, sees them all and installs the successor itself once they are
//! in: no view is announced. Unlike paper §3, where the coordinator sends
//! the new view after collecting the acknowledgements, the coordinator
//! fixes it before, from what it knows then; the members' collecting the
//! same acknowledgements stands in for its commit (DESIGN.md, "LWG
//! flush"). Each member installs at its own last acknowledgement, so a
//! faster member's data in the successor can arrive first: it waits for
//! the install (see [`crate::data_plane`]). A switch is a flush with a
//! target HWG (see [`crate::switch`]).
//! A view whose members fell out of the backing HWG needs no flush: the
//! HWG flush that produced the new HWG view already equalised the
//! delivered sets, and its round installs the pruned view at every holder
//! (see [`crate::merge`]). The coordinator flushes only a view the round
//! could not shrink.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::batch::FlushReason;
use crate::events::LwgEvent;
use crate::keys;
use crate::msg::{LFlushId, LwgMsg};
use crate::protocol_events::LwgProtocolEvent;
use crate::service::LwgService;
use crate::state::{Ack, FlushReq, LwgState, NsPurpose, Part, Phase};
use crate::wire;
use plwg_hwg::{HwgId, HwgSubstrate, View, ViewId};
use plwg_naming::{LwgId, Mapping};
use plwg_sim::{NodeId, Transport, TransportExt};

impl<S: HwgSubstrate> LwgService<S> {
    // ------------------------------------------------------------------
    // Public API (paper Table 1, user side)
    // ------------------------------------------------------------------

    /// Joins light-weight group `lwg`. The `View` upcall confirms
    /// membership. No-op if already joining or a member.
    pub fn join(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        if self.dir.contains(lwg) {
            return;
        }
        self.dir.insert(lwg, LwgState::default());
        ctx.emit(|| LwgProtocolEvent::JoinStart { lwg });
        let req = self.ns.read(ctx, lwg);
        self.ns_lookups.insert(req, (lwg, NsPurpose::JoinLookup));
    }

    /// Leaves `lwg`; the `Left` upcall confirms.
    pub fn leave(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        let Some(phase) = self.dir.get(lwg).map(|s| s.phase) else {
            return;
        };
        match phase {
            Phase::ReadingNs | Phase::JoiningHwg { .. } | Phase::AwaitingAdmission { .. } => {
                // Not admitted anywhere yet: just abandon the join.
                self.depart(lwg);
            }
            Phase::Member => {
                let Some(view) = self.dir.get(lwg).and_then(|s| s.view.clone()) else {
                    // `Phase::Member` always carries a view; tolerate a
                    // broken invariant by ignoring the leave (the next
                    // view install re-runs it) rather than aborting.
                    return;
                };
                if view.len() == 1 {
                    // Sole member: dissolve the group.
                    self.ns.unset(ctx, lwg, view.id);
                    self.depart(lwg);
                    return;
                }
                let Some(mut state) = self.dir.get_mut(lwg) else {
                    return;
                };
                state.phase = Phase::Leaving;
                state.pending_leaves.insert(self.me);
                let hwg = state.hwg;
                drop(state);
                if let Some(hwg) = hwg {
                    // Barrier: our buffered data must precede the leave
                    // request in the per-sender FIFO stream.
                    self.flush_pack(ctx, hwg, FlushReason::Barrier);
                    self.substrate
                        .send(ctx, hwg, wire::frame(&LwgMsg::LeaveReq { lwg }));
                }
                self.maybe_start_lwg_flush(ctx, lwg);
            }
            Phase::Leaving => {}
        }
    }

    // ------------------------------------------------------------------
    // Admission and leave requests (coordinator side)
    // ------------------------------------------------------------------

    pub(crate) fn handle_join_req(
        &mut self,
        ctx: &mut dyn Transport,
        arrived_on: Option<HwgId>,
        lwg: LwgId,
        from: NodeId,
    ) {
        let is_member = self.dir.get(lwg).is_some_and(|s| s.view.is_some());
        if is_member {
            let mapping = self.dir.get(lwg).and_then(|s| s.hwg);
            if let Some(to) = mapping {
                if arrived_on.is_some() && arrived_on != Some(to) {
                    // The joiner used an outdated mapping: the request
                    // reached us on an HWG the group no longer rides. Point
                    // it at the current one (paper §3.1's forward-pointer
                    // behaviour, here served by a member directly).
                    ctx.metrics().incr(keys::REDIRECTS_SENT);
                    ctx.send(from, wire::frame(&LwgMsg::Redirect { lwg, to }));
                    return;
                }
            }
            if self.lwg_coordinator(lwg) == Some(self.me) {
                // A member that asks again holds no view: it missed the
                // acknowledgements of the flush that admitted it, and the
                // next flush admits it again.
                let Ok(mut state) = self.dir.record(lwg) else {
                    return;
                };
                state.pending_joins.insert(from);
                drop(state);
                self.maybe_start_lwg_flush(ctx, lwg);
            }
        } else if let Some(&to) = self.forward.get(&lwg) {
            // We are not a member but remember where the group went.
            ctx.metrics().incr(keys::REDIRECTS_SENT);
            ctx.send(from, wire::frame(&LwgMsg::Redirect { lwg, to }));
        }
    }

    pub(crate) fn handle_leave_req(&mut self, ctx: &mut dyn Transport, lwg: LwgId, from: NodeId) {
        let Some(mut state) = self.dir.get_mut(lwg) else {
            return;
        };
        if state.view.as_ref().is_some_and(|v| v.contains(from)) {
            state.pending_leaves.insert(from);
            drop(state);
            self.maybe_start_lwg_flush(ctx, lwg);
        }
    }

    // ------------------------------------------------------------------
    // The LWG flush protocol
    // ------------------------------------------------------------------

    /// A `Flush` arrived: a member of its view stops sending, acknowledges
    /// it, and for a switch joins the target HWG and reports ready there;
    /// a joiner its successor lists follows it without acknowledging.
    pub(crate) fn handle_lwg_flush(&mut self, ctx: &mut dyn Transport, lwg: LwgId, req: FlushReq) {
        let Some(mut state) = self.dir.get_mut(lwg) else {
            return;
        };
        let listed = req.members.contains(&self.me);
        let joins = state.view.is_none() && req.next.as_ref().is_some_and(|v| v.contains(self.me));
        if !(listed || joins) {
            return;
        }
        let (flush, hwg, to) = (req.flush, req.hwg, req.to);
        let part = state.begin_flush(req, ctx.now());
        drop(state);
        if listed && matches!(part, Part::Takes | Part::Foreign) {
            // Barrier: data we buffered in the closing LWG view must
            // precede our FlushOk in the per-sender FIFO stream, so every
            // member drains it before installing the successor view.
            self.flush_pack(ctx, hwg, FlushReason::Barrier);
            self.substrate
                .send(ctx, hwg, wire::frame(&LwgMsg::FlushOk { lwg, flush }));
            if let Some(to) = to {
                self.follow_switch(ctx, lwg, flush, to, part);
            }
        }
        if part == Part::Takes {
            self.try_conclude_lwg_flush(ctx, lwg);
        }
    }

    /// A `FlushOk` or a `SwitchReady` from `from`: counted for the flush in
    /// flight on `lwg`, which it may complete, or kept for its `Flush`.
    pub(crate) fn handle_ack(
        &mut self,
        ctx: &mut dyn Transport,
        lwg: LwgId,
        flush: LFlushId,
        ack: Ack,
        from: NodeId,
    ) {
        if self
            .dir
            .get_mut(lwg)
            .is_some_and(|mut s| s.ack(flush, ack, from))
        {
            self.try_conclude_lwg_flush(ctx, lwg);
        }
    }

    /// Concludes the flush in flight on `lwg` once its acknowledgements
    /// are in. Not while this node is stopped on the flush's HWG (see
    /// [`LwgService::stopped_on`]): the HWG view does it. Returns whether
    /// the flush concluded.
    pub(crate) fn try_conclude_lwg_flush(&mut self, ctx: &mut dyn Transport, lwg: LwgId) -> bool {
        let lf = self.dir.get(lwg).and_then(|s| s.flush());
        let ready = lf.is_some_and(|lf| lf.complete() && !self.stopped_on(Some(lf.req.hwg)));
        ready && self.conclude_lwg_flush(ctx, lwg)
    }

    /// Concludes the flush in flight on `lwg`, whose acknowledgements are
    /// in: installs its successor, or departs if the successor leaves this
    /// node out. Returns whether a flush was in flight.
    pub(crate) fn conclude_lwg_flush(&mut self, ctx: &mut dyn Transport, lwg: LwgId) -> bool {
        let Some(lf) = self.dir.get(lwg).and_then(|s| s.flush()) else {
            return false;
        };
        let (flush, view, hwg, to) = (lf.req.flush, lf.req.view, lf.req.hwg, lf.req.to);
        let (next, waiting) = (lf.req.next.clone(), lf.waiting.clone());
        let Some(next) = next.filter(|v| v.contains(self.me)) else {
            // Excluded: our leave completed, or the group dissolved.
            if lf.req.next.is_none() && flush.initiator == self.me {
                ctx.emit(|| LwgProtocolEvent::Dissolve { lwg });
                self.ns.unset(ctx, lwg, view);
            }
            self.depart(lwg);
            return true;
        };
        let first = next.members.first() == Some(&self.me);
        if let Some(to) = to.filter(|_| first) {
            ctx.emit(|| LwgProtocolEvent::SwitchComplete {
                lwg,
                to,
                view: next.clone(),
            });
        }
        let on = to.unwrap_or(hwg);
        self.install_lwg_view(ctx, lwg, next, on);
        if self.lwg_coordinator(lwg) != Some(self.me) {
            // Its coordinator may complete the flush only after its `Stop`
            // and advertise the flushed view (see `MergeRound::fresh`).
            self.rounds.entry(on).or_default().fresh.insert(lwg);
        }
        if let Some(to) = to.filter(|_| first) {
            // Pull any concurrent views present on the target HWG into a
            // merge.
            self.trigger_merge_views(ctx, to);
        }
        if let Some(waiting) = waiting {
            self.handle_lwg_flush(ctx, lwg, *waiting);
        }
        true
    }

    pub(crate) fn install_lwg_view(
        &mut self,
        ctx: &mut dyn Transport,
        lwg: LwgId,
        view: View,
        on_hwg: HwgId,
    ) {
        let Some(mut state) = self.dir.get_mut(lwg) else {
            return;
        };
        ctx.emit(|| LwgProtocolEvent::ViewInstall {
            lwg,
            view: view.clone(),
            hwg: on_hwg,
        });
        ctx.metrics().incr(keys::VIEWS_INSTALLED);
        let (old_hwg, joined) = (state.hwg, state.view.is_none());
        let pending = state.install(view.clone(), on_hwg, self.me);
        drop(state);
        self.events.push(LwgEvent::View { lwg, view });
        self.release_held(ctx, lwg, joined);
        // If the mapping moved, leave a forward pointer (the tick's shrink
        // rule finds the old HWG if it went idle).
        if old_hwg.is_some_and(|old| old != on_hwg) {
            self.forward.insert(lwg, on_hwg);
        }
        // Coordinator records the mapping.
        if self.lwg_coordinator(lwg) == Some(self.me) {
            self.refresh_mapping(ctx, lwg);
        }
        // Release buffered sends in the new view.
        for data in pending {
            self.send(ctx, lwg, data);
        }
        // Queued membership changes are handled in a follow-up flush.
        self.maybe_start_lwg_flush(ctx, lwg);
    }

    /// Writes the current view-to-view mapping to the naming service.
    pub(crate) fn refresh_mapping(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        let Some(state) = self.dir.get(lwg) else {
            return;
        };
        let Some(view) = &state.view else { return };
        let Some(hwg) = state.hwg else { return };
        let Some(hview) = self.substrate.view_of(hwg) else {
            return;
        };
        let mapping = Mapping {
            lwg_view: view.id,
            members: view.members.clone(),
            hwg,
            hwg_view: hview.id,
        };
        let preds = view.predecessors.clone();
        self.ns.set(ctx, lwg, mapping, preds);
    }

    /// Starts an LWG flush if this node coordinates `lwg` and membership
    /// changes are pending: joins, leaves, or members fallen out of the HWG
    /// view that its round did not prune (see [`crate::merge`]).
    ///
    /// Not while this node is stopped on the group's HWG: the `Flush`
    /// would be delivered after the HWG view, whose merge round may have
    /// replaced the view it flushes (see [`LwgService::stopped_on`]). The
    /// HWG view starts it.
    pub(crate) fn maybe_start_lwg_flush(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        if self.lwg_coordinator(lwg) != Some(self.me) {
            return;
        }
        let Some(state) = self.dir.get(lwg) else {
            return;
        };
        if state.busy() || self.stopped_on(state.hwg) {
            return;
        }
        let Some(view) = &state.view else { return };
        let Some(hwg) = state.hwg else { return };
        let Some(hview) = self.substrate.view_of(hwg) else {
            return;
        };
        let has_join = state.pending_joins.iter().any(|j| hview.contains(*j));
        let has_leave = state.pending_leaves.iter().any(|l| view.contains(*l));
        let has_gone = view.members.iter().any(|m| !hview.contains(*m));
        if !(has_join || has_leave || has_gone) {
            return;
        }
        // Members still reachable participate in the flush (this node is).
        let members: Vec<NodeId> = view
            .members
            .iter()
            .copied()
            .filter(|m| hview.contains(*m))
            .collect();
        // The successor: those of them not leaving, then the joiners in
        // the HWG view, in id order.
        let staying = members.iter().filter(|m| !state.pending_leaves.contains(m));
        let joiners =
            (state.pending_joins.iter()).filter(|j| hview.contains(**j) && !view.contains(**j));
        let next = staying.chain(joiners).copied().collect();
        self.start_flush(ctx, lwg, members, next, None);
    }

    /// Multicasts the `Flush` of `lwg`'s view that awaits the `FlushOk`s of
    /// `members` and installs a view of `next` (none: a dissolve), on `to`
    /// for a switch, and takes part in it. The successor's id is taken now,
    /// before any `Stop` on the group's HWG, so the `seq_floor` this node
    /// advertises covers it.
    pub(crate) fn start_flush(
        &mut self,
        ctx: &mut dyn Transport,
        lwg: LwgId,
        members: Vec<NodeId>,
        next: Vec<NodeId>,
        to: Option<HwgId>,
    ) {
        let Some(mut state) = self.dir.get_mut(lwg) else {
            return;
        };
        let (Some(view), Some(hwg)) = (state.view.as_ref().map(|v| v.id), state.hwg) else {
            return;
        };
        let flush = LFlushId {
            initiator: self.me,
            nonce: state.take_flush_nonce(),
        };
        let next = (!next.is_empty()).then(|| {
            let id = ViewId::new(self.me, state.take_view_seq());
            View::with_predecessors(id, next, vec![view])
        });
        // The initiator takes part at once: until its own `Flush` comes
        // back, it starts no other.
        let req = FlushReq {
            flush,
            hwg,
            view,
            members: members.clone(),
            next: next.clone(),
            to,
        };
        state.begin_flush(req, ctx.now());
        drop(state);
        if to.is_none() {
            ctx.emit(|| LwgProtocolEvent::FlushStart {
                lwg,
                flush,
                members: members.clone(),
                next: next.clone(),
            });
            ctx.metrics().incr(keys::FLUSHES);
        }
        // Barrier: the flush must not overtake our own buffered data for
        // the closing view.
        self.flush_pack(ctx, hwg, FlushReason::Barrier);
        let msg = LwgMsg::Flush {
            lwg,
            flush,
            view,
            members,
            next,
            to,
        };
        self.substrate.send(ctx, hwg, wire::frame(&msg));
    }

    /// Drops the flush or switch in flight on `lwg`. It froze the data
    /// plane, so the sends it buffered are released into the view that is
    /// still installed; otherwise they would wait for a view install the
    /// dropped flush no longer produces.
    pub(crate) fn drop_flush(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        let pending = self.dir.get_mut(lwg).map(|mut s| s.abandon());
        self.release_held(ctx, lwg, false);
        for data in pending.into_iter().flatten() {
            self.send(ctx, lwg, data);
        }
    }

    /// Forgets `lwg`, which this node left or stopped joining, with the
    /// data held for it, and reports `Left`.
    fn depart(&mut self, lwg: LwgId) {
        self.dir.remove(lwg);
        self.held.retain(|h| h.lwg != lwg);
        self.events.push(LwgEvent::Left { lwg });
    }
}
