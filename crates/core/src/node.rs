//! A ready-made [`plwg_sim::Process`] wrapping an [`LwgService`] — the
//! easiest way to put the light-weight group service on a simulated node.
//!
//! Applications either embed [`LwgService`] in their own process type (for
//! custom reaction logic) or use [`LwgNode`] and subscribe to its upcall
//! stream via [`LwgNode::events`].

use crate::events::LwgEvents;
use crate::service::LwgService;
use plwg_hwg::{HwgSubstrate, View};
use plwg_naming::LwgId;
use plwg_sim::{NodeId, Payload, Process, TimerToken, Transport};
use std::any::Any;

/// A simulated node running the LWG service over substrate `S`, recording
/// all upcalls into a drainable [`LwgEvents`] stream.
///
/// ```ignore
/// for ev in world.node_as::<LwgNode<VsyncStack>>(n1).events().drain() {
///     match ev {
///         LwgEvent::Data { lwg, src, data } => { /* ... */ }
///         LwgEvent::View { lwg, view } => { /* ... */ }
///         LwgEvent::Left { lwg } => { /* ... */ }
///     }
/// }
/// ```
pub struct LwgNode<S: HwgSubstrate> {
    service: LwgService<S>,
    events: LwgEvents,
}

impl<S: HwgSubstrate> LwgNode<S> {
    /// Built by [`crate::LwgBuilder::build_node`].
    pub(crate) fn new(service: LwgService<S>) -> Self {
        LwgNode {
            service,
            events: LwgEvents::default(),
        }
    }

    /// The wrapped service (join/leave/send and introspection).
    pub fn service(&mut self) -> &mut LwgService<S> {
        &mut self.service
    }

    /// Immutable access to the wrapped service.
    pub fn service_ref(&self) -> &LwgService<S> {
        &self.service
    }

    /// The recorded upcall stream: `events().drain()` takes the events
    /// since the previous drain, `events().history()` reads what has not
    /// been drained (the full run, for a node that never drains).
    pub fn events(&mut self) -> &mut LwgEvents {
        &mut self.events
    }

    /// Read-only view of the upcall stream (no draining).
    pub fn events_ref(&self) -> &LwgEvents {
        &self.events
    }

    /// The group's *live* view at this node (`None` once the node has left
    /// the group). For the historic record use `events_ref().views_of(..)`.
    pub fn current_view(&self, lwg: LwgId) -> Option<&View> {
        self.service.view_of(lwg)
    }

    fn pump_events(&mut self) {
        for ev in self.service.drain_events() {
            self.events.record(ev);
        }
    }
}

impl<S: HwgSubstrate + 'static> Process for LwgNode<S> {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        self.service.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        if self.service.on_message(ctx, from, &msg) {
            self.pump_events();
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        if self.service.on_timer(ctx, token) {
            self.pump_events();
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl<S: HwgSubstrate> std::fmt::Debug for LwgNode<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LwgNode")
            .field("service", &self.service)
            .field("events", &self.events.history().len())
            .finish()
    }
}
