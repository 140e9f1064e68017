//! [`HwgSubstrate`] implementation: the virtually-synchronous stack *is* a
//! Table-1 substrate.
//!
//! Every trait method forwards to the inherent [`VsyncStack`] method of the
//! same name; the inherent API remains available for applications that use
//! the HWG layer directly (and exposes extras the trait does not promise,
//! such as [`VsyncStack::merge_in_progress`] and
//! [`VsyncStack::retransmit_buffer_len`]).

use crate::stack::VsyncStack;
use crate::{GroupStatus, VsEvent};
use plwg_hwg::{HwgConfig, HwgId, HwgSubstrate, View};
use plwg_sim::{NodeId, Payload, TimerToken, Transport};
use std::collections::BTreeSet;

impl HwgSubstrate for VsyncStack {
    fn build(me: NodeId, cfg: &HwgConfig) -> Self {
        VsyncStack::new(me, cfg.clone())
    }

    fn node(&self) -> NodeId {
        VsyncStack::node(self)
    }

    fn start(&mut self, ctx: &mut dyn Transport) {
        VsyncStack::start(self, ctx);
    }

    fn join(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        VsyncStack::join(self, ctx, hwg);
    }

    fn create(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        VsyncStack::create(self, ctx, hwg);
    }

    fn leave(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        VsyncStack::leave(self, ctx, hwg);
    }

    fn send(&mut self, ctx: &mut dyn Transport, hwg: HwgId, data: Payload) {
        VsyncStack::send(self, ctx, hwg, data);
    }

    fn send_to(
        &mut self,
        ctx: &mut dyn Transport,
        hwg: HwgId,
        targets: &BTreeSet<NodeId>,
        data: Payload,
    ) {
        VsyncStack::send_to(self, ctx, hwg, targets, data);
    }

    fn force_flush(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        VsyncStack::force_flush(self, ctx, hwg);
    }

    fn stop_ok(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        VsyncStack::stop_ok(self, ctx, hwg);
    }

    fn view_of(&self, hwg: HwgId) -> Option<&View> {
        VsyncStack::view_of(self, hwg)
    }

    fn status_of(&self, hwg: HwgId) -> GroupStatus {
        VsyncStack::status_of(self, hwg)
    }

    fn is_coordinator(&self, hwg: HwgId) -> bool {
        VsyncStack::is_coordinator(self, hwg)
    }

    fn groups(&self) -> Vec<HwgId> {
        VsyncStack::groups(self).collect()
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: &Payload) -> bool {
        VsyncStack::on_message(self, ctx, from, msg)
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) -> bool {
        VsyncStack::on_timer(self, ctx, token)
    }

    fn drain_events(&mut self) -> Vec<VsEvent> {
        VsyncStack::drain_events(self)
    }

    fn drain_events_into(&mut self, out: &mut Vec<VsEvent>) {
        VsyncStack::drain_events_into(self, out);
    }
}
