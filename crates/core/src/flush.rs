//! LWG membership changes: the user-facing `join`/`leave` down-calls
//! (paper Table 1) and the LWG-level flush that installs successor views.
//!
//! An LWG flush mirrors the HWG layer's in miniature: the coordinator
//! multicasts `Flush`, members stop sending, flush their pack buffers and
//! answer `FlushOk`; once every reachable member has acknowledged, the
//! coordinator announces the successor view with `NewLwgView`, and each
//! member installs it. A view whose members fell out of the backing HWG
//! needs neither: the HWG flush that produced the new HWG view already
//! equalised the delivered sets, and its round installs the pruned view at
//! every holder (see [`crate::merge`]). The coordinator flushes only a view
//! the round could not shrink.
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
use crate::state::{LwgFlush, LwgState, NsPurpose, Phase};
use crate::wire;
use plwg_hwg::{GroupStatus, HwgId, HwgSubstrate, View, ViewId};
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
                self.dir.remove(lwg);
                self.events.push(LwgEvent::Left { lwg });
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
                    self.depart(ctx, lwg);
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
                let Ok(mut state) = self.dir.record(lwg) else {
                    return;
                };
                if !state.view.as_ref().is_some_and(|v| v.contains(from)) {
                    state.pending_joins.insert(from);
                    drop(state);
                    self.maybe_start_lwg_flush(ctx, lwg);
                }
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

    /// Member side of an LWG flush (also the old-HWG half of a switch when
    /// `switch_to` is set): stop sending, acknowledge on the HWG the flush
    /// `arrived_on`, and for a switch, start joining the target HWG.
    pub(crate) fn handle_lwg_flush(
        &mut self,
        ctx: &mut dyn Transport,
        arrived_on: Option<HwgId>,
        lwg: LwgId,
        flush: LFlushId,
        members: Vec<NodeId>,
        switch_to: Option<HwgId>,
    ) {
        let Some(mut state) = self.dir.get_mut(lwg) else {
            return;
        };
        let Some(view) = &state.view else { return };
        if !view.contains(self.me) || !members.contains(&self.me) {
            return;
        }
        // A flush of a view that lists us but that we do not hold (two
        // coordinators admitted us) is acknowledged, so that it does not
        // wait for us, but not followed: we stay in our own view.
        let foreign = !view.contains(flush.initiator);
        if !foreign && !state.begin_flush(flush, members, switch_to, ctx.now()) {
            return;
        }
        // A node listed in a view it does not hold maps the group onto
        // another HWG; the coordinator hears its ack only where it asked.
        let hwg = arrived_on.or(state.hwg);
        drop(state);
        if let Some(hwg) = hwg {
            // Barrier: data we buffered in the closing LWG view must
            // precede our FlushOk in the per-sender FIFO stream, so every
            // member drains it before installing the successor view.
            self.flush_pack(ctx, hwg, FlushReason::Barrier);
            self.substrate
                .send(ctx, hwg, wire::frame(&LwgMsg::FlushOk { lwg, flush }));
        }
        if let Some(to) = switch_to {
            if self
                .substrate
                .view_of(to)
                .is_some_and(|v| v.contains(self.me))
            {
                // Already a member: report ready immediately.
                self.substrate
                    .send(ctx, to, wire::frame(&LwgMsg::SwitchReady { lwg, flush }));
            } else if !foreign && self.substrate.status_of(to) == GroupStatus::Left {
                // Join the target HWG (the coordinator pre-created it).
                self.substrate.join(ctx, to);
            }
        }
    }

    pub(crate) fn handle_new_lwg_view(
        &mut self,
        ctx: &mut dyn Transport,
        lwg: LwgId,
        flush: LFlushId,
        view: View,
        on_hwg: HwgId,
    ) {
        if !view.contains(self.me) {
            // Excludes us: our leave completed.
            if self
                .view_of(lwg)
                .is_some_and(|v| view.predecessors.contains(&v.id))
            {
                self.depart(ctx, lwg);
            }
            return;
        }
        let Some(mut state) = self.dir.get_mut(lwg) else {
            return;
        };
        let succeeds = state
            .view
            .as_ref()
            .is_none_or(|cur| view.predecessors.contains(&cur.id));
        // Wait for the flush to complete (all FlushOks) before installing.
        match state.flush().map(|lf| lf.flush == flush) {
            None => {
                // We were admitted as a *joiner*: no old view to drain.
                let fresh = state.view.is_none();
                drop(state);
                if fresh {
                    self.install_lwg_view(ctx, lwg, view, on_hwg);
                }
            }
            Some(true) if succeeds => {
                state.announce(view, on_hwg);
                drop(state);
                self.try_conclude_lwg_flush(ctx, lwg);
            }
            Some(true) => {
                // We took part in a flush whose successor does not follow
                // our view: installing it would leave our view without a
                // successor in any lineage.
                drop(state);
                self.drop_flush(ctx, lwg);
            }
            Some(false) => {}
        }
    }

    /// Installs `view` if its flush (when any) has fully acknowledged.
    pub(crate) fn try_conclude_lwg_flush(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        let Some(state) = self.dir.get(lwg) else {
            return;
        };
        let all_ok = |lf: &&LwgFlush| lf.members.iter().all(|m| lf.oks.contains(m));
        let Some(lf) = state.flush().filter(all_ok) else {
            return;
        };
        match lf.new_view.clone() {
            // Coordinator side: every member acknowledged, so announce the
            // successor view.
            None if lf.flush.initiator == self.me && state.switch().is_none() => {
                self.announce_successor_view(ctx, lwg);
            }
            None => {}
            Some((view, on_hwg)) => {
                let next = state.next_flush().cloned();
                self.install_lwg_view(ctx, lwg, view, on_hwg);
                if let Some((flush, members, to)) = next {
                    self.handle_lwg_flush(ctx, None, lwg, flush, members, to);
                }
            }
        }
    }

    /// Coordinator: all FlushOks are in — compute and multicast the
    /// successor view.
    fn announce_successor_view(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        let Some(state) = self.dir.get(lwg) else {
            return;
        };
        if self.stopped_on(state.hwg) {
            return; // until the HWG view (see `stopped_on`)
        }
        let Some(view) = state.view.clone() else {
            return;
        };
        let Some(hwg) = state.hwg else { return };
        let Some(flush) = state.flush().map(|lf| lf.flush) else {
            return;
        };
        let in_hview = |m: &NodeId| self.substrate.view_of(hwg).is_some_and(|v| v.contains(*m));
        let mut members: Vec<NodeId> = view
            .members
            .iter()
            .copied()
            .filter(|m| in_hview(m) && !state.pending_leaves.contains(m))
            .collect();
        let mut joiners: Vec<NodeId> = state
            .pending_joins
            .iter()
            .copied()
            .filter(|j| in_hview(j) && !view.contains(*j))
            .collect();
        joiners.sort_unstable();
        members.extend(joiners);
        if members.is_empty() {
            // Everybody left: dissolve the group (no successor view).
            ctx.emit(|| LwgProtocolEvent::Dissolve { lwg });
            self.ns.unset(ctx, lwg, view.id);
            self.substrate
                .send(ctx, hwg, wire::frame(&LwgMsg::Dissolved { lwg, flush }));
            return;
        }
        let Some(seq) = self.dir.get_mut(lwg).map(|mut s| s.take_view_seq()) else {
            return;
        };
        let new_view = View::with_predecessors(ViewId::new(self.me, seq), members, vec![view.id]);
        ctx.emit(|| LwgProtocolEvent::ViewAnnounce {
            lwg,
            view: new_view.clone(),
        });
        self.send_view(ctx, lwg, flush, new_view, hwg);
    }

    /// Multicasts `view` of `lwg`, the successor that `flush` announces, on
    /// `hwg`, the HWG it is installed on.
    pub(crate) fn send_view(
        &mut self,
        ctx: &mut dyn Transport,
        lwg: LwgId,
        flush: LFlushId,
        view: View,
        hwg: HwgId,
    ) {
        let msg = LwgMsg::NewLwgView {
            lwg,
            flush,
            view,
            hwg,
        };
        self.substrate.send(ctx, hwg, wire::frame(&msg));
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
        let old_hwg = state.hwg;
        let pending = state.install(view.clone(), on_hwg, self.me);
        drop(state);
        self.idle_hwgs.remove(&on_hwg);
        self.events.push(LwgEvent::View { lwg, view });
        // If the mapping moved, leave a forward pointer and consider
        // shrinking the old HWG.
        if let Some(old) = old_hwg {
            if old != on_hwg {
                self.forward.insert(lwg, on_hwg);
                self.note_idle_if_unused(ctx, old);
            }
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
        let has_join = state
            .pending_joins
            .iter()
            .any(|j| hview.contains(*j) && !view.contains(*j));
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
        let Some(nonce) = self.dir.get_mut(lwg).map(|mut s| s.take_flush_nonce()) else {
            return;
        };
        let flush = LFlushId {
            initiator: self.me,
            nonce,
        };
        ctx.emit(|| LwgProtocolEvent::FlushStart {
            lwg,
            flush,
            members: members.clone(),
        });
        ctx.metrics().incr(keys::FLUSHES);
        // Barrier: the flush announcement must not overtake our own
        // buffered data for the closing view.
        self.flush_pack(ctx, hwg, FlushReason::Barrier);
        self.substrate.send(
            ctx,
            hwg,
            wire::frame(&LwgMsg::Flush {
                lwg,
                flush,
                members,
            }),
        );
    }

    /// Drops the flush or switch in flight on `lwg`. It froze the data
    /// plane, so the sends it buffered are released into the view that is
    /// still installed; otherwise they would wait for a view install the
    /// dropped flush no longer produces.
    pub(crate) fn drop_flush(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        let pending = self.dir.get_mut(lwg).map(|mut s| s.abandon());
        for data in pending.into_iter().flatten() {
            self.send(ctx, lwg, data);
        }
    }

    pub(crate) fn handle_dissolved(
        &mut self,
        ctx: &mut dyn Transport,
        lwg: LwgId,
        flush: LFlushId,
    ) {
        let leaving = self.dir.get(lwg).is_some_and(|s| {
            s.phase == Phase::Leaving || s.flush().is_some_and(|f| f.flush == flush)
        });
        if leaving {
            self.depart(ctx, lwg);
        }
    }

    /// Forgets `lwg`, which this node left: reports `Left` and lets the
    /// HWG it was mapped onto go idle if no other group uses it.
    fn depart(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        let hwg = self.dir.remove(lwg).and_then(|s| s.hwg);
        self.events.push(LwgEvent::Left { lwg });
        if let Some(h) = hwg {
            self.note_idle_if_unused(ctx, h);
        }
    }
}
