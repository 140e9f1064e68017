//! Flush repair, deterministically: a member short of a *reporting*
//! sender's message at the flush target asks that sender for it (again,
//! while the answer is lost), and a *departed* sender's message is still
//! filled by a surviving holder. Each test loses copies of one message, at
//! one receiver, and reads the initiator's `hwg.flush_duration`.

use plwg_sim::{
    decode_frame, family, Frame, NodeId, Payload, Process, SimDuration, TimerToken, Transport,
    World, WorldConfig,
};
use plwg_vsync::keys::{FLUSH_DURATION, FLUSH_FILLS};
use plwg_vsync::{HwgId, Slot, View, ViewId, VsEvent, VsMsg, VsyncConfig, VsyncStack};
use std::any::Any;

const G: HwgId = HwgId(1);

/// A test application owning a vsync stack, which loses one chosen copy.
struct App {
    stack: VsyncStack,
    views: Vec<View>,
    /// (view delivered in, sender, value).
    delivered: Vec<(ViewId, NodeId, u64)>,
    /// Value to multicast on the next `Stop` upcall, before `stop_ok` — as
    /// the LWG layer sends its ALL-VIEWS advertisement.
    on_stop: Option<u64>,
    /// Incoming data copies to lose: (sender, value, how many copies).
    lose: Option<(NodeId, u64, u32)>,
}

impl App {
    fn new(me: NodeId) -> Self {
        let cfg = VsyncConfig {
            auto_stop_ok: false,
            ..VsyncConfig::default()
        };
        App {
            stack: VsyncStack::new(me, cfg),
            views: Vec::new(),
            delivered: Vec::new(),
            on_stop: None,
            lose: None,
        }
    }

    fn drain(&mut self, ctx: &mut dyn Transport) {
        for ev in self.stack.drain_events() {
            match ev {
                VsEvent::View { view, .. } => self.views.push(view),
                VsEvent::Data {
                    view_id, src, data, ..
                } => {
                    let v = data.try_u64().expect("u64 payloads in tests");
                    self.delivered.push((view_id, src, v));
                }
                VsEvent::Stop { hwg } => {
                    if let Some(v) = self.on_stop.take() {
                        self.stack.send(ctx, hwg, Frame::from_u64(v));
                    }
                    self.stack.stop_ok(ctx, hwg);
                    self.drain(ctx);
                }
                VsEvent::Left { .. } => {}
            }
        }
    }

    /// Whether `msg` is a copy this node is set to lose.
    fn loses(&mut self, msg: &Payload) -> bool {
        let Some((from, value, copies)) = self.lose else {
            return false;
        };
        let hit = matches!(
            decode_frame::<VsMsg>(family::VS, msg),
            Ok(VsMsg::Data { sender, payload: Slot::Full(data), .. })
                if sender == from && data.try_u64() == Some(value)
        );
        if hit {
            self.lose = (copies > 1).then_some((from, value, copies - 1));
        }
        hit
    }

    /// The values delivered from `src` in view `view`.
    fn delivered_in(&self, view: ViewId, src: NodeId) -> Vec<u64> {
        let of = |&(v, s, x): &(ViewId, NodeId, u64)| (v == view && s == src).then_some(x);
        self.delivered.iter().filter_map(of).collect()
    }
}

impl Process for App {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        self.stack.start(ctx);
    }
    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        if !self.loses(&msg) && self.stack.on_message(ctx, from, &msg) {
            self.drain(ctx);
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        if self.stack.on_timer(ctx, token) {
            self.drain(ctx);
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Four members in one view, settled; returns that view.
fn four_members(seed: u64) -> (World, Vec<NodeId>, View) {
    let mut w = World::new(WorldConfig {
        seed,
        trace: true,
        ..WorldConfig::default()
    });
    let nodes: Vec<NodeId> = (0..4)
        .map(|i| w.add_node(Box::new(App::new(NodeId(i)))))
        .collect();
    w.invoke(nodes[0], |a: &mut App, ctx| a.stack.create(ctx, G));
    for &n in &nodes[1..] {
        w.invoke(n, |a: &mut App, ctx| a.stack.join(ctx, G));
    }
    w.run_for(SimDuration::from_secs(5));
    let view = w.inspect(nodes[0], |a: &App| a.views.last().cloned());
    let view = view.expect("a view");
    let mut members = view.members.clone();
    members.sort_unstable();
    assert_eq!(members, nodes, "one view of all four");
    (w, nodes, view)
}

/// Every member multicasts on the `Stop` of a forced flush, and member 3
/// loses `copies` copies of member 1's message: the original and then the
/// answers to its asks. Checks that the view closes with every member
/// having delivered all four messages, nobody excluded and nothing pulled,
/// and returns the asks sent and the flush's duration in µs.
fn stop_message_lost(copies: u32) -> (usize, u64) {
    let (mut w, nodes, old) = four_members(3);
    for (i, &n) in nodes.iter().enumerate() {
        w.invoke(n, move |a: &mut App, _| a.on_stop = Some(100 + i as u64));
    }
    let lose = (NodeId(1), 101, copies);
    w.invoke(nodes[3], move |a: &mut App, _| a.lose = Some(lose));
    w.metrics_mut().reset();
    let asks0 = w.trace().count("hwg.nack");
    w.invoke(nodes[0], |a: &mut App, ctx| a.stack.force_flush(ctx, G));
    w.run_for(SimDuration::from_secs(1));

    let lost_all = w.inspect(nodes[3], |a: &App| a.lose.is_none());
    assert!(lost_all, "{copies} copies lost");
    for &n in &nodes {
        let next = w.inspect(n, |a: &App| a.views.last().cloned());
        let next = next.expect("a view");
        assert_eq!(next.predecessors, vec![old.id], "node {n}: successor view");
        assert_eq!(next.members, old.members, "node {n}: nobody excluded");
        for (i, &src) in nodes.iter().enumerate() {
            let got = w.inspect(n, |a: &App| a.delivered_in(old.id, src));
            assert_eq!(got, vec![100 + i as u64], "node {n}: {src}'s Stop message");
        }
    }
    let m = w.metrics();
    assert_eq!(
        m.counter(FLUSH_FILLS),
        0,
        "a reporter's message is never pulled"
    );
    assert_eq!(w.trace().count("hwg.flush.restart"), 0);
    let flush = m.histogram(FLUSH_DURATION).expect("recorded").summary();
    assert_eq!(flush.count, 1, "one flush round");
    (w.trace().count("hwg.nack") - asks0, flush.max)
}

/// Member 1 reported, so the initiator pulls nothing: member 3 reaches the
/// target by asking member 1, at once.
#[test]
fn a_member_short_of_a_reporters_message_asks_the_reporter() {
    let (asks, took_us) = stop_message_lost(1);
    assert_eq!(asks, 1, "one ask, to member 1");
    assert!(took_us < 50_000, "the flush took {took_us} µs");
}

/// The answer to the first ask is lost too: member 3 asks again one
/// `NACK_DELAY` (200 ms) later, well before the 1.5 s flush watchdog.
#[test]
fn a_lost_answer_is_asked_for_again_before_the_watchdog() {
    let (asks, took_us) = stop_message_lost(2);
    assert_eq!(asks, 2, "asked, and asked again");
    assert!(
        (200_000..1_500_000).contains(&took_us),
        "the flush took {took_us} µs"
    );
}

/// Member 2 multicasts and crashes at once, and member 3 loses that
/// message. Member 2 does not report in the flush that excludes it, so the
/// initiator pulls its message from the lowest surviving holder, and every
/// survivor delivers it before the three-member view.
#[test]
fn a_departed_senders_message_is_filled_from_a_survivor() {
    let (mut w, nodes, old) = four_members(4);
    let departed = nodes[2];
    w.invoke(nodes[3], move |a: &mut App, _| {
        a.lose = Some((departed, 7, 1))
    });
    w.metrics_mut().reset();
    w.invoke(departed, |a: &mut App, ctx| {
        a.stack.send(ctx, G, Frame::from_u64(7))
    });
    w.crash(departed);
    w.run_for(SimDuration::from_secs(5));

    let lost = w.inspect(nodes[3], |a: &App| a.lose.is_none());
    assert!(lost, "member 3 lost its copy");

    let survivors: Vec<NodeId> = old
        .members
        .iter()
        .copied()
        .filter(|&m| m != departed)
        .collect();
    for &n in &survivors {
        let next = w
            .inspect(n, |a: &App| a.views.last().cloned())
            .expect("view");
        assert_eq!(next.predecessors, vec![old.id], "node {n}: successor view");
        assert_eq!(next.members, survivors, "node {n}: member 2 excluded");
        let got = w.inspect(n, |a: &App| a.delivered_in(old.id, departed));
        assert_eq!(got, vec![7], "node {n}: the departed sender's message");
    }
    assert!(
        w.metrics().counter(FLUSH_FILLS) >= 1,
        "filled by a survivor"
    );
    assert_eq!(w.trace().count("hwg.flush.restart"), 0);
    assert!(w.metrics().histogram(FLUSH_DURATION).is_some());
}
