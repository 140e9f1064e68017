//! The Table-1 substrate contract: what the LWG layer asks of whatever
//! heavy-weight group implementation sits below it.
//!
//! Paper Table 1 lists the interaction between the light-weight group
//! service and the HWG layer as three down-calls plus an acknowledgement
//! (`Join`, `Leave`, `Send`, `StopOk`) and three up-calls (`View`, `Data`,
//! `Stop`). [`HwgSubstrate`] is that table as a Rust trait, widened only
//! where this codebase's LWG protocol needs an extra query (coordinator and
//! status checks for the merge protocol of §6, subset sends for the
//! interference optimisation). Up-calls are pulled rather than pushed: the
//! substrate buffers [`HwgEvent`]s and the owner drains them after every
//! message/timer it forwards.

use crate::id::{HwgId, ViewId};
use crate::view::View;
use crate::HwgConfig;
use plwg_sim::{NodeId, Payload, TimerToken, Transport};
use std::collections::BTreeSet;

/// Externally observable state of a group endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupStatus {
    /// Looking for an existing view to join (probing / awaiting admission).
    Joining,
    /// Member of an installed view.
    Member,
    /// Member that has asked to leave and awaits exclusion.
    Leaving,
    /// No longer (or never) a member; terminal.
    Left,
}

/// Upcalls from the HWG substrate to its owner (paper Table 1).
#[derive(Debug)]
pub enum HwgEvent {
    /// `View(g, view)` — a new view was installed for `hwg` (Table 1:
    /// "change in the composition of the group").
    View {
        /// Group.
        hwg: HwgId,
        /// The installed view.
        view: View,
    },
    /// `Data(g, m)` — a multicast was delivered (Table 1: "delivery of a
    /// message addressed to the group").
    Data {
        /// Group.
        hwg: HwgId,
        /// View the message was sent (and delivered) in.
        view_id: ViewId,
        /// Original sender.
        src: NodeId,
        /// Opaque payload.
        data: Payload,
    },
    /// `Stop(g)` — traffic on `hwg` must stop because a view change is in
    /// progress (Table 1). The owner confirms with
    /// [`HwgSubstrate::stop_ok`] unless [`HwgConfig::auto_stop_ok`] is set.
    Stop {
        /// Group.
        hwg: HwgId,
    },
    /// This node is no longer a member of `hwg` (leave completed, or the
    /// group dissolved). Completion notice for the `Leave` down-call.
    Left {
        /// Group.
        hwg: HwgId,
    },
}

/// A heavy-weight group substrate: the paper's Table-1 interface.
///
/// `plwg-core`'s `LwgService<S>` is generic over this trait; any
/// implementation that honours the virtual-synchrony contract below can
/// carry the light-weight group protocol:
///
/// * **View synchrony** — members that install the same two consecutive
///   views deliver the same set of messages between them.
/// * **View-tagged delivery** — [`HwgEvent::Data`] carries the [`ViewId`]
///   the message was sent in and is only delivered to that view's members.
/// * **Stop before change** — when [`HwgConfig::auto_stop_ok`] is `false`,
///   a view change emits [`HwgEvent::Stop`] and blocks until every member
///   answers [`HwgSubstrate::stop_ok`], giving the layer above a final
///   chance to send (the paper's MERGE-VIEWS message rides this window).
///   Precisely: a [`HwgEvent::View`] that succeeds a view this node held
///   comes after a `Stop` at this node, and everything the node sent before
///   its `stop_ok` is delivered to every survivor before that `View`. What
///   it sends after `stop_ok` is delivered in the next view. The LWG layer
///   installs the LWG views a view change implies at that `View` on this
///   alone, with no LWG flush.
/// * **Data between views** — on one group, a [`HwgEvent::Data`] carries
///   the id of the last [`HwgEvent::View`] raised before it at this node:
///   a message sent in a view is delivered after that view's `View` and
///   before its successor's, or not at all, and no `Data` comes between a
///   [`HwgEvent::Left`] and the next `View`. A send before this node's
///   `stop_ok` is tagged with the closing view, even if the `Stop` has not
///   been raised yet; a send after it is held back and delivered in the
///   successor view, after that view's `View`. `VsyncStack` drops a
///   message tagged with any other view; `ScriptedHwg` does not check the
///   tag and keeps the rule only over the reliable equal-latency links it
///   assumes.
/// * **What `stop_ok` answers** — the flush running when it is called, not
///   one particular `Stop`. The owner answers every `Stop` it drains, and
///   an answer with nothing to release is a no-op: one made before the
///   `Stop` was raised (`VsyncStack` raises the `Stop` of a
///   [`HwgSubstrate::force_flush`] only when its own flush request comes
///   back over the transport), a second answer, or one that races with a
///   `View` already delivered. A flush superseded before it is answered
///   (in `VsyncStack`, restarted by its watchdog or overridden by a more
///   senior member's flush) raises a fresh `Stop`, and one `stop_ok`
///   releases the running round; the `Stop`s of superseded rounds need no
///   answer of their own. `ScriptedHwg` never supersedes a flush:
///   `force_flush` during a round is a no-op, and a flush request that
///   arrives while a `Stop` is outstanding raises no second one.
///
/// `tests/substrate_contract.rs` checks these obligations on both
/// implementations, where one node alone can reach them.
///
/// Implementations: `plwg_vsync::VsyncStack` (the real partitionable
/// protocol stack) and `plwg_core::ScriptedHwg` (a deterministic scripted
/// mock for protocol tests).
pub trait HwgSubstrate {
    /// Builds an idle substrate endpoint for node `me`.
    fn build(me: NodeId, cfg: &HwgConfig) -> Self
    where
        Self: Sized;

    /// The node this endpoint runs on.
    fn node(&self) -> NodeId;

    /// Arms the substrate's periodic timers. Call once from
    /// [`plwg_sim::Process::on_start`].
    fn start(&mut self, ctx: &mut dyn Transport);

    /// Table 1 down-call `Join(g)`: become a member of `hwg`, discovering
    /// an existing view if one is reachable. Membership is reported
    /// asynchronously via [`HwgEvent::View`].
    fn join(&mut self, ctx: &mut dyn Transport, hwg: HwgId);

    /// Variant of `Join(g)` for a group known to be new: installs a
    /// singleton view immediately instead of probing for peers (the LWG
    /// layer uses this when it allocates a fresh HWG, §5.2).
    fn create(&mut self, ctx: &mut dyn Transport, hwg: HwgId);

    /// Table 1 down-call `Leave(g)`: withdraw from `hwg`. Completion is
    /// reported via [`HwgEvent::Left`].
    fn leave(&mut self, ctx: &mut dyn Transport, hwg: HwgId);

    /// Table 1 down-call `Send(g, m)`: virtually-synchronous multicast on
    /// `hwg`. Messages sent while no view is installed are buffered for
    /// the next view; silently ignored if not a member.
    fn send(&mut self, ctx: &mut dyn Transport, hwg: HwgId, data: Payload);

    /// `Send(g, m)` restricted to a subset: the payload is delivered only
    /// to `targets` (the sender always self-delivers), while ordering,
    /// stability and flush guarantees stay identical to a full
    /// [`HwgSubstrate::send`]. This is the interference optimisation for
    /// LWGs smaller than their backing HWG (paper §3).
    fn send_to(
        &mut self,
        ctx: &mut dyn Transport,
        hwg: HwgId,
        targets: &BTreeSet<NodeId>,
        data: Payload,
    );

    /// Forces a no-change flush of `hwg`: a synchronisation barrier that
    /// stops the group, waits for every member's [`HwgSubstrate::stop_ok`],
    /// and installs a successor view with the same membership. The LWG
    /// merge protocol uses this to place its MERGE-VIEWS message in a
    /// single flush (paper Fig. 5). Honoured only by the coordinator.
    fn force_flush(&mut self, ctx: &mut dyn Transport, hwg: HwgId);

    /// Table 1 down-call `StopOk(g)`: confirms a [`HwgEvent::Stop`] upcall,
    /// releasing the view change (only needed when
    /// [`HwgConfig::auto_stop_ok`] is `false`).
    fn stop_ok(&mut self, ctx: &mut dyn Transport, hwg: HwgId);

    /// The currently installed view of `hwg` at this node, if any.
    fn view_of(&self, hwg: HwgId) -> Option<&View>;

    /// Membership status of this node in `hwg` ([`GroupStatus::Left`] when
    /// unknown).
    fn status_of(&self, hwg: HwgId) -> GroupStatus;

    /// Whether this node currently acts as coordinator of `hwg` (most
    /// senior non-suspected member). The LWG layer routes its
    /// coordinator-only steps — switch announcements, MERGE-VIEWS — through
    /// this query (§6).
    fn is_coordinator(&self, hwg: HwgId) -> bool;

    /// The groups this endpoint belongs to (status ≠ [`GroupStatus::Left`]).
    fn groups(&self) -> Vec<HwgId>;

    /// Offers an incoming simulator message to the substrate. Returns
    /// `true` if it was a substrate message (the owner should then drain
    /// events), `false` if it belongs to another layer.
    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: &Payload) -> bool;

    /// Offers a timer expiry to the substrate; same contract as
    /// [`HwgSubstrate::on_message`].
    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) -> bool;

    /// Takes the buffered up-call events (paper Table 1's `View` / `Data` /
    /// `Stop`, plus `Left`), in occurrence order.
    fn drain_events(&mut self) -> Vec<HwgEvent>;

    /// Moves the buffered up-call events into `out` (same contract as
    /// [`HwgSubstrate::drain_events`]). Implementations that keep their
    /// internal buffer's capacity make the owner's pump loop
    /// allocation-free in steady state; the default just delegates.
    fn drain_events_into(&mut self, out: &mut Vec<HwgEvent>) {
        out.append(&mut self.drain_events());
    }
}
