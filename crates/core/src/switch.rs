//! Switching: re-mapping a light-weight group onto another HWG (paper §3's
//! switching protocol; also step 2 of partition healing, §6.2).
//!
//! The coordinator flushes the old mapping (`SwitchTo` doubles as an LWG
//! flush), every member joins the target HWG and reports `SwitchReady`
//! there, and the coordinator installs the switched view on the target. A
//! forward pointer stays behind so stale joiners get redirected
//! ([`crate::flush`] handles the member-side flush half).
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
use crate::keys;
use crate::msg::{LFlushId, LwgMsg};
use crate::protocol_events::LwgProtocolEvent;
use crate::service::LwgService;
use crate::state::SwitchState;
use crate::wire;
use plwg_hwg::{GroupStatus, HwgId, HwgSubstrate, View, ViewId};
use plwg_naming::LwgId;
use plwg_sim::{Transport, TransportExt};
use std::collections::BTreeSet;

impl<S: HwgSubstrate> LwgService<S> {
    /// Operator-initiated re-mapping of `lwg` onto the HWG `to` — the same
    /// switch the Figure-1 policies and the §6.2 reconciliation rule issue
    /// internally. No-op unless this node currently coordinates `lwg` (or
    /// while another flush/switch is in progress, or the group's HWG
    /// flushes).
    pub fn switch(&mut self, ctx: &mut dyn Transport, lwg: LwgId, to: HwgId) {
        self.start_switch(ctx, lwg, to, false);
    }

    /// Coordinator: re-map `lwg` onto `to`. `create` indicates `to` is a
    /// freshly allocated HWG this node should create rather than probe.
    pub(crate) fn start_switch(
        &mut self,
        ctx: &mut dyn Transport,
        lwg: LwgId,
        to: HwgId,
        create: bool,
    ) {
        if self.lwg_coordinator(lwg) != Some(self.me) {
            return;
        }
        let Some(state) = self.dir.get(lwg) else {
            return;
        };
        // Not while stopped on the group's HWG: `SwitchTo` doubles as a
        // flush, held back as in `maybe_start_lwg_flush`.
        if state.busy() || state.hwg == Some(to) || self.stopped_on(state.hwg) {
            return;
        }
        let (Some(view), Some(hwg)) = (&state.view, state.hwg) else {
            return;
        };
        let members = view.members.clone();
        let Ok(mut state) = self.dir.record(lwg) else {
            return;
        };
        let flush = LFlushId {
            initiator: self.me,
            nonce: state.take_flush_nonce(),
        };
        state.begin_switch(SwitchState {
            flush,
            to,
            members: members.clone(),
            ready: BTreeSet::new(),
            started_at: ctx.now(),
        });
        drop(state);
        ctx.emit(|| LwgProtocolEvent::SwitchStart { lwg, from: hwg, to });
        ctx.metrics().incr(keys::SWITCHES);
        if create {
            self.substrate.create(ctx, to);
        } else if self.substrate.status_of(to) == GroupStatus::Left {
            self.substrate.join(ctx, to);
        }
        // Barrier: a switch doubles as a flush of the old mapping.
        self.flush_pack(ctx, hwg, FlushReason::Barrier);
        self.substrate.send(
            ctx,
            hwg,
            wire::frame(&LwgMsg::SwitchTo {
                lwg,
                flush,
                to,
                members,
            }),
        );
    }

    /// Coordinator: once every member reported ready on the target HWG,
    /// install the switched view there. Not while the old HWG flushes
    /// (see [`LwgService::stopped_on`]): its view completes it.
    pub(crate) fn try_complete_switch(&mut self, ctx: &mut dyn Transport, lwg: LwgId) {
        let Some(state) = self.dir.get(lwg) else {
            return;
        };
        let ready = state
            .switch()
            .is_some_and(|sw| sw.ready.len() == sw.members.len());
        if !ready || self.stopped_on(state.hwg) {
            return;
        }
        let Some(mut state) = self.dir.get_mut(lwg) else {
            return;
        };
        let Some(sw) = state.complete_switch() else {
            return;
        };
        let Some(view) = state.view.clone() else {
            return;
        };
        let new_view = View::with_predecessors(
            ViewId::new(self.me, state.take_view_seq()),
            sw.members.clone(),
            vec![view.id],
        );
        drop(state);
        ctx.emit(|| LwgProtocolEvent::SwitchComplete {
            lwg,
            to: sw.to,
            view: new_view.clone(),
        });
        self.send_view(ctx, lwg, sw.flush, new_view, sw.to);
        // Pull any concurrent views present on the target HWG into a merge.
        self.trigger_merge_views(ctx, sw.to);
    }
}
