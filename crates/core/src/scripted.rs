//! A deterministic, scriptable [`HwgSubstrate`] for protocol tests.
//!
//! [`ScriptedHwg`] implements just enough of the Table-1 contract to drive
//! every LWG protocol path without the full virtual-synchrony stack: no
//! failure detector, no retransmission, no HWG-level merging — it relies on
//! the simulator's reliable FIFO links (`jitter = 0`, `loss = 0`) and lets
//! the **test** decide when HWG views change, by injecting them directly.
//!
//! What it does implement faithfully:
//!
//! - `create` installs an immediate singleton view (a fresh HWG trivially
//!   has one member).
//! - `send`/`send_to` multicast to the current HWG view over the simulated
//!   network, with synchronous self-delivery — per-sender FIFO holds.
//! - `force_flush` (coordinator only) runs a real two-phase flush: a
//!   `Flush` multicast raises `Stop` at every member, each answers
//!   [`HwgSubstrate::stop_ok`] (after piggybacking whatever the service
//!   wants inside the closing view), and once all acks are in the
//!   coordinator multicasts the successor view with the old view as its
//!   predecessor — exactly the barrier MERGE-VIEWS (paper Fig. 5) needs.
//!   As in the virtually-synchronous stack, what a member sends after its
//!   `stop_ok` belongs to the successor view: it is held back and
//!   multicast once that view is installed.
//! - `join` only records intent: admission is granted by the test
//!   injecting a view that contains the joiner (the scripted stand-in for
//!   the HWG membership protocol).
//!
//! Tests drive it through [`crate::LwgService::hwg_stack_mut`] followed by
//! [`crate::LwgService::pump`], e.g.
//! `svc.hwg_stack_mut().inject_view(hwg, view); svc.pump(ctx);`.

use plwg_hwg::{GroupStatus, HwgConfig, HwgEvent, HwgId, HwgSubstrate, View, ViewId};
use plwg_sim::{
    decode_frame, encode_frame, family, peek_family, NodeId, Payload, TimerToken, Transport,
};
use std::collections::{BTreeMap, BTreeSet};

/// Wire messages of the scripted substrate (frame family `SCRIPTED`).
#[derive(Clone)]
enum ScriptedMsg {
    /// Plain multicast data within `view_id`.
    Data {
        hwg: HwgId,
        view_id: ViewId,
        data: Payload,
    },
    /// Coordinator starts a flush: stop sending and ack.
    Flush { hwg: HwgId, nonce: u64 },
    /// A member finished stopping for the flush.
    StopAck { hwg: HwgId, nonce: u64 },
    /// Coordinator announces the successor view.
    NewView { hwg: HwgId, view: View },
}

plwg_wire::wire_enum!(ScriptedMsg {
    0 => Data { hwg, view_id, data },
    1 => Flush { hwg, nonce },
    2 => StopAck { hwg, nonce },
    3 => NewView { hwg, view },
});

/// An in-progress two-phase flush at the coordinator.
#[derive(Debug)]
struct FlushRound {
    nonce: u64,
    acks: BTreeSet<NodeId>,
}

#[derive(Debug)]
struct Group {
    status: GroupStatus,
    view: Option<View>,
    /// Set while a flush `Stop` is outstanding locally (cleared by
    /// `stop_ok`). `Some(nonce)` for a coordinator-driven flush, `None`
    /// for a test-injected `Stop`.
    stopping: Option<Option<u64>>,
    /// Whether a `Stop` was raised since `view` was installed.
    stopped: bool,
    /// Coordinator-side flush bookkeeping.
    round: Option<FlushRound>,
    next_seq: u64,
    next_nonce: u64,
    /// How many times the service answered `stop_ok` on this group.
    stop_oks: u64,
    /// Sends made after `stop_ok` of a coordinator-driven flush, multicast
    /// in the successor view that flush installs.
    held: Option<Vec<Payload>>,
}

impl Group {
    fn new() -> Self {
        Group {
            status: GroupStatus::Joining,
            view: None,
            stopping: None,
            stopped: false,
            round: None,
            next_seq: 0,
            next_nonce: 0,
            stop_oks: 0,
            held: None,
        }
    }
}

/// The scripted Table-1 substrate (see the module docs).
pub struct ScriptedHwg {
    me: NodeId,
    groups: BTreeMap<HwgId, Group>,
    events: Vec<HwgEvent>,
    /// Join intents recorded by [`HwgSubstrate::join`] (the test grants
    /// them by injecting views).
    join_requests: Vec<HwgId>,
}

impl ScriptedHwg {
    /// Creates the substrate for node `me`.
    pub fn new(me: NodeId) -> Self {
        ScriptedHwg {
            me,
            groups: BTreeMap::new(),
            events: Vec::new(),
            join_requests: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Test injection API
    // ------------------------------------------------------------------

    /// Installs `view` on `hwg` as if the membership protocol delivered
    /// it, raising the `View` upcall. A view that does not contain this
    /// node evicts it (raises `Left`) if it was a member.
    /// A view that succeeds the one held here must come after a `Stop`, as
    /// [`HwgSubstrate`] requires (checked in debug builds).
    pub fn inject_view(&mut self, hwg: HwgId, view: View) {
        if !view.contains(self.me) {
            if self.groups.remove(&hwg).is_some() {
                self.events.push(HwgEvent::Left { hwg });
            }
            return;
        }
        let g = self.groups.entry(hwg).or_insert_with(Group::new);
        let succeeds = g
            .view
            .as_ref()
            .is_some_and(|v| view.predecessors.contains(&v.id));
        debug_assert!(g.stopped || !succeeds, "{hwg}: {view} without a Stop");
        g.stopped = false;
        g.status = GroupStatus::Member;
        g.next_seq = g.next_seq.max(view.id.seq);
        g.view = Some(view.clone());
        g.stopping = None;
        g.round = None;
        self.events.push(HwgEvent::View { hwg, view });
    }

    /// Raises a `Stop` upcall out of band (a flush started elsewhere).
    /// The service's `stop_ok` answer is counted in [`Self::stop_oks`].
    pub fn inject_stop(&mut self, hwg: HwgId) {
        if let Some(g) = self.groups.get_mut(&hwg) {
            g.stopping = Some(None);
            g.stopped = true;
            self.events.push(HwgEvent::Stop { hwg });
        }
    }

    /// Raises a `Data` upcall as if `src` had multicast `data` in the
    /// current HWG view (requires an installed view).
    pub fn inject_data(&mut self, hwg: HwgId, src: NodeId, data: Payload) {
        let Some(view_id) = self
            .groups
            .get(&hwg)
            .and_then(|g| g.view.as_ref().map(|v| v.id))
        else {
            return;
        };
        self.events.push(HwgEvent::Data {
            hwg,
            view_id,
            src,
            data,
        });
    }

    /// Evicts this node from `hwg`, raising `Left`.
    pub fn inject_left(&mut self, hwg: HwgId) {
        if self.groups.remove(&hwg).is_some() {
            self.events.push(HwgEvent::Left { hwg });
        }
    }

    /// HWGs this node asked to join (and has not been granted a view on).
    pub fn join_requests(&self) -> &[HwgId] {
        &self.join_requests
    }

    /// How many times the service answered `stop_ok` on `hwg`.
    pub fn stop_oks(&self, hwg: HwgId) -> u64 {
        self.groups.get(&hwg).map_or(0, |g| g.stop_oks)
    }

    /// Whether a flush of `hwg` is under way here: a `Stop` outstanding,
    /// sends held for the flush's view, or acknowledgements awaited.
    pub fn in_flush(&self, hwg: HwgId) -> bool {
        let busy = |g: &Group| g.stopping.is_some() || g.held.is_some() || g.round.is_some();
        self.groups.get(&hwg).is_some_and(busy)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn multicast(&mut self, ctx: &mut dyn Transport, hwg: HwgId, msg: ScriptedMsg) {
        let Some(view) = self.groups.get(&hwg).and_then(|g| g.view.clone()) else {
            return;
        };
        // Encode once; every receiver gets a refcount clone of the frame.
        let wire = encode_frame(family::SCRIPTED, &msg);
        for &m in view.members.iter().filter(|&&m| m != self.me) {
            ctx.send(m, wire.clone());
        }
        // Synchronous self-delivery keeps per-sender FIFO intact.
        self.deliver(ctx, self.me, &msg);
    }

    fn deliver(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: &ScriptedMsg) {
        match msg {
            ScriptedMsg::Data { hwg, view_id, data } => {
                let member = self
                    .groups
                    .get(hwg)
                    .is_some_and(|g| g.status == GroupStatus::Member);
                if member {
                    self.events.push(HwgEvent::Data {
                        hwg: *hwg,
                        view_id: *view_id,
                        src: from,
                        data: data.clone(),
                    });
                }
            }
            ScriptedMsg::Flush { hwg, nonce } => {
                if let Some(g) = self.groups.get_mut(hwg) {
                    if g.status == GroupStatus::Member && g.stopping.is_none() {
                        g.stopping = Some(Some(*nonce));
                        g.stopped = true;
                        self.events.push(HwgEvent::Stop { hwg: *hwg });
                    }
                }
            }
            ScriptedMsg::StopAck { hwg, nonce } => {
                let done = {
                    let Some(g) = self.groups.get_mut(hwg) else {
                        return;
                    };
                    let Some(round) = &mut g.round else { return };
                    if round.nonce != *nonce {
                        return;
                    }
                    round.acks.insert(from);
                    let members = g.view.as_ref().map(|v| v.members.clone());
                    members.is_some_and(|m| m.iter().all(|n| round.acks.contains(n)))
                };
                if done {
                    self.conclude_flush(ctx, *hwg);
                }
            }
            ScriptedMsg::NewView { hwg, view } => {
                let held = self.groups.get_mut(hwg).and_then(|g| g.held.take());
                self.inject_view(*hwg, view.clone());
                for data in held.into_iter().flatten() {
                    self.send(ctx, *hwg, data);
                }
            }
        }
    }

    /// All members acked: install and multicast the successor view.
    fn conclude_flush(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let Some(g) = self.groups.get_mut(&hwg) else {
            return;
        };
        g.round = None;
        let Some(old) = g.view.clone() else { return };
        g.next_seq += 1;
        let view = View::with_predecessors(
            ViewId::new(self.me, g.next_seq),
            old.members.clone(),
            vec![old.id],
        );
        self.multicast(ctx, hwg, ScriptedMsg::NewView { hwg, view });
    }
}

impl HwgSubstrate for ScriptedHwg {
    fn build(me: NodeId, _cfg: &HwgConfig) -> Self {
        ScriptedHwg::new(me)
    }

    fn node(&self) -> NodeId {
        self.me
    }

    fn start(&mut self, _ctx: &mut dyn Transport) {}

    fn join(&mut self, _ctx: &mut dyn Transport, hwg: HwgId) {
        let g = self.groups.entry(hwg).or_insert_with(Group::new);
        if g.status != GroupStatus::Member {
            g.status = GroupStatus::Joining;
            self.join_requests.push(hwg);
        }
    }

    fn create(&mut self, _ctx: &mut dyn Transport, hwg: HwgId) {
        let g = self.groups.entry(hwg).or_insert_with(Group::new);
        if g.status == GroupStatus::Member {
            return;
        }
        g.status = GroupStatus::Member;
        g.next_seq += 1;
        let view = View::initial(ViewId::new(self.me, g.next_seq), vec![self.me]);
        g.view = Some(view.clone());
        self.events.push(HwgEvent::View { hwg, view });
    }

    fn leave(&mut self, _ctx: &mut dyn Transport, hwg: HwgId) {
        if self.groups.remove(&hwg).is_some() {
            self.events.push(HwgEvent::Left { hwg });
        }
    }

    fn send(&mut self, ctx: &mut dyn Transport, hwg: HwgId, data: Payload) {
        if let Some(held) = self.groups.get_mut(&hwg).and_then(|g| g.held.as_mut()) {
            held.push(data);
            return;
        }
        let Some(view_id) = self
            .groups
            .get(&hwg)
            .and_then(|g| g.view.as_ref().map(|v| v.id))
        else {
            return;
        };
        self.multicast(ctx, hwg, ScriptedMsg::Data { hwg, view_id, data });
    }

    fn send_to(
        &mut self,
        ctx: &mut dyn Transport,
        hwg: HwgId,
        targets: &BTreeSet<NodeId>,
        data: Payload,
    ) {
        if self.groups.get(&hwg).is_some_and(|g| g.held.is_some()) {
            // Held for the successor view, then sent to everyone.
            self.send(ctx, hwg, data);
            return;
        }
        let Some(view) = self.groups.get(&hwg).and_then(|g| g.view.clone()) else {
            return;
        };
        let msg = ScriptedMsg::Data {
            hwg,
            view_id: view.id,
            data,
        };
        let wire = encode_frame(family::SCRIPTED, &msg);
        for &m in view
            .members
            .iter()
            .filter(|&&m| m != self.me && targets.contains(&m))
        {
            ctx.send(m, wire.clone());
        }
        if targets.contains(&self.me) {
            self.deliver(ctx, self.me, &msg);
        }
    }

    fn force_flush(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        // Only the coordinator drives the flush (non-coordinator requests
        // are a no-op, mirroring the production stack's behaviour for the
        // MERGE-VIEWS relay).
        if !self.is_coordinator(hwg) {
            return;
        }
        let Some(g) = self.groups.get_mut(&hwg) else {
            return;
        };
        if g.round.is_some() {
            return;
        }
        g.next_nonce += 1;
        let nonce = g.next_nonce;
        g.round = Some(FlushRound {
            nonce,
            acks: BTreeSet::new(),
        });
        self.multicast(ctx, hwg, ScriptedMsg::Flush { hwg, nonce });
    }

    fn stop_ok(&mut self, ctx: &mut dyn Transport, hwg: HwgId) {
        let (initiator, ack) = {
            let Some(g) = self.groups.get_mut(&hwg) else {
                return;
            };
            let Some(stopping) = g.stopping.take() else {
                return;
            };
            g.stop_oks += 1;
            let coord = g.view.as_ref().map(View::coordinator);
            match (stopping, coord) {
                (Some(nonce), Some(c)) => {
                    g.held = Some(Vec::new());
                    (c, Some(nonce))
                }
                _ => return, // test-injected Stop: just count the answer
            }
        };
        let Some(nonce) = ack else { return };
        let msg = ScriptedMsg::StopAck { hwg, nonce };
        if initiator == self.me {
            self.deliver(ctx, self.me, &msg);
        } else {
            ctx.send(initiator, encode_frame(family::SCRIPTED, &msg));
        }
    }

    fn view_of(&self, hwg: HwgId) -> Option<&View> {
        self.groups.get(&hwg).and_then(|g| g.view.as_ref())
    }

    fn status_of(&self, hwg: HwgId) -> GroupStatus {
        self.groups
            .get(&hwg)
            .map_or(GroupStatus::Left, |g| g.status)
    }

    fn is_coordinator(&self, hwg: HwgId) -> bool {
        self.view_of(hwg)
            .is_some_and(|v| v.coordinator() == self.me)
    }

    fn groups(&self) -> Vec<HwgId> {
        self.groups
            .iter()
            .filter(|(_, g)| g.status == GroupStatus::Member)
            .map(|(&h, _)| h)
            .collect()
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: &Payload) -> bool {
        if peek_family(msg) != Some(family::SCRIPTED) {
            return false;
        }
        // A malformed scripted frame is a test-harness bug; this substrate
        // runs over reliable links, so drop it silently rather than panic.
        if let Ok(sm) = decode_frame::<ScriptedMsg>(family::SCRIPTED, msg) {
            self.deliver(ctx, from, &sm);
        }
        true
    }

    fn on_timer(&mut self, _ctx: &mut dyn Transport, _token: TimerToken) -> bool {
        false
    }

    fn drain_events(&mut self) -> Vec<HwgEvent> {
        std::mem::take(&mut self.events)
    }

    fn drain_events_into(&mut self, out: &mut Vec<HwgEvent>) {
        out.append(&mut self.events);
    }
}

impl std::fmt::Debug for ScriptedHwg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedHwg")
            .field("me", &self.me)
            .field("groups", &self.groups.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}
