//! Switching: re-mapping a light-weight group onto another HWG (paper §3's
//! switching protocol; also step 2 of partition healing, §6.2).
//!
//! A switch is an LWG flush with a target HWG: the coordinator multicasts
//! a `Flush` whose `to` names the target and whose successor view keeps
//! the members. Every member acknowledges it on the old HWG, joins the
//! target and reports `SwitchReady` there, and installs the switched view
//! on the target once it holds every `FlushOk` and every member's
//! `SwitchReady` ([`crate::flush`] runs the flush half). The coordinator
//! follows its own switch like every other member. A forward pointer stays
//! behind so stale joiners get redirected.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::keys;
use crate::msg::{LFlushId, LwgMsg};
use crate::protocol_events::LwgProtocolEvent;
use crate::service::LwgService;
use crate::state::Part;
use crate::wire;
use plwg_hwg::{GroupStatus, HwgId, HwgSubstrate};
use plwg_naming::LwgId;
use plwg_sim::{Transport, TransportExt};

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
        // Not while stopped on the group's HWG: the switch is a flush,
        // held back as in `maybe_start_lwg_flush`.
        if state.busy() || state.hwg == Some(to) || self.stopped_on(state.hwg) {
            return;
        }
        let (Some(view), Some(hwg)) = (&state.view, state.hwg) else {
            return;
        };
        let members = view.members.clone();
        ctx.emit(|| LwgProtocolEvent::SwitchStart { lwg, from: hwg, to });
        ctx.metrics().incr(keys::SWITCHES);
        if create {
            self.substrate.create(ctx, to);
        } else if self.substrate.status_of(to) == GroupStatus::Left {
            self.substrate.join(ctx, to);
        }
        self.start_flush(ctx, lwg, members.clone(), members, Some(to));
    }

    /// Member side of the switch `flush` of `lwg` to `to`, acknowledged on
    /// the old HWG as `part`: report ready on the target if this node is a
    /// member of it already, or else join it if it follows the switch.
    ///
    /// Step 2 of the HWG-view handler reports ready again at every view of
    /// the target, so every follower in its final view holds every report:
    /// a follower that joins the target late never misses one sent before.
    /// A member listed in a switch of a view it does not hold (two
    /// coordinators admitted it) reports too, so that the switch does not
    /// wait for it, for the flush watchdog's span.
    pub(crate) fn follow_switch(
        &mut self,
        ctx: &mut dyn Transport,
        lwg: LwgId,
        flush: LFlushId,
        to: HwgId,
        part: Part,
    ) {
        if part == Part::Foreign {
            self.foreign_switches.insert(lwg, (flush, to, ctx.now()));
        }
        if self
            .substrate
            .view_of(to)
            .is_some_and(|v| v.contains(self.me))
        {
            self.substrate
                .send(ctx, to, wire::frame(&LwgMsg::SwitchReady { lwg, flush }));
        } else if part == Part::Takes && self.substrate.status_of(to) == GroupStatus::Left {
            // Join the target HWG (the coordinator pre-created it).
            self.substrate.join(ctx, to);
        }
    }
}
