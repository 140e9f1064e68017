//! Edge cases for the HWG layer: asymmetric link failures, compound
//! crashes, and membership operations racing view changes.

use plwg_sim::{
    Frame, NodeId, Payload, Process, SimDuration, SimTime, TimerToken, Transport, World,
    WorldConfig,
};
use plwg_vsync::{GroupStatus, HwgConfig, HwgEvent, HwgId, HwgSubstrate, View, VsyncStack};
use std::any::Any;

/// Test payload: a bare 8-byte little-endian integer frame.
fn payload(v: u64) -> Payload {
    Frame::from_u64(v)
}

struct App {
    stack: VsyncStack,
    views: Vec<View>,
    delivered: Vec<(NodeId, u64)>,
    lefts: u32,
}

impl App {
    fn new(me: NodeId) -> Self {
        App {
            stack: VsyncStack::new(me, HwgConfig::default()),
            views: Vec::new(),
            delivered: Vec::new(),
            lefts: 0,
        }
    }
    fn drain(&mut self) {
        for ev in self.stack.drain_events() {
            match ev {
                HwgEvent::View { view, .. } => self.views.push(view),
                HwgEvent::Data { src, data, .. } => {
                    self.delivered.push((src, data.try_u64().expect("u64")));
                }
                HwgEvent::Left { .. } => self.lefts += 1,
                HwgEvent::Stop { .. } => {}
            }
        }
    }
    fn view(&self) -> Option<&View> {
        self.views.last()
    }
}

impl Process for App {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        self.stack.start(ctx);
    }
    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        if self.stack.on_message(ctx, from, &msg) {
            self.drain();
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        if self.stack.on_timer(ctx, token) {
            self.drain();
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const G: HwgId = HwgId(1);

fn bring_up(n: u32, seed: u64) -> (World, Vec<NodeId>) {
    let mut w = World::new(WorldConfig {
        seed,
        trace: true,
        ..WorldConfig::default()
    });
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| w.add_node(Box::new(App::new(NodeId(i)))))
        .collect();
    w.invoke(nodes[0], |a: &mut App, ctx| a.stack.create(ctx, G));
    for (i, &m) in nodes[1..].iter().enumerate() {
        w.invoke_at(SimTime::from_secs(1 + i as u64), m, |a: &mut App, ctx| {
            a.stack.join(ctx, G)
        });
    }
    w.run_until(SimTime::from_secs(8));
    (w, nodes)
}

/// Simultaneous crash of the coordinator AND another member: the most
/// senior survivor takes over and installs a view excluding both.
#[test]
fn coordinator_and_member_crash_together() {
    let (mut w, nodes) = bring_up(5, 81);
    w.crash_at(SimTime::from_secs(9), nodes[0]);
    w.crash_at(SimTime::from_secs(9), nodes[2]);
    w.run_until(SimTime::from_secs(20));
    let survivors = [nodes[1], nodes[3], nodes[4]];
    let view = w
        .inspect(nodes[1], |a: &App| a.view().cloned())
        .expect("view");
    assert_eq!(view.sorted_members().as_slice(), &survivors);
    assert_eq!(view.coordinator(), nodes[1], "next senior takes over");
    for &m in &survivors {
        let v = w.inspect(m, |a: &App| a.view().cloned());
        assert_eq!(v.as_ref(), Some(&view));
    }
}

/// An asymmetric link cut (A hears B, B does not hear A) must still
/// resolve into agreeing views — eventually one of the two is excluded and
/// later re-merged when the link heals.
#[test]
fn asymmetric_link_cut_resolves_and_heals() {
    let (mut w, nodes) = bring_up(3, 82);
    let (a, b) = (nodes[1], nodes[2]);
    w.schedule_at(SimTime::from_secs(9), move |w| {
        w.topology_mut().cut_link(a, b);
    });
    w.run_until(SimTime::from_secs(25));
    // b no longer hears a: b suspects a (or the flush machinery resolves
    // it some other way); whatever happened, every live node's view must
    // be internally consistent — all nodes sharing a view agree on it.
    let opinions: Vec<(NodeId, Option<View>)> = nodes
        .iter()
        .map(|&m| (m, w.inspect(m, |x: &App| x.view().cloned())))
        .collect();
    for (m, view) in &opinions {
        let Some(view) = view else { continue };
        for (peer, pv) in &opinions {
            if view.contains(*peer) && view.contains(*m) {
                if let Some(pv) = pv {
                    if pv.contains(*m) && pv.contains(*peer) {
                        // Mutually-inclusive views must be identical.
                        assert_eq!(
                            view.id, pv.id,
                            "{m} and {peer} hold mutually inclusive but \
                             different views"
                        );
                    }
                }
            }
        }
    }
    // Heal the link: everyone reunites.
    w.schedule_at(SimTime::from_secs(25), move |w| {
        w.topology_mut().restore_link(a, b);
    });
    w.run_until(SimTime::from_secs(45));
    let view = w
        .inspect(nodes[0], |x: &App| x.view().cloned())
        .expect("view");
    assert_eq!(view.len(), 3, "link heal must reunify: {view}");
    for &m in &nodes {
        let v = w.inspect(m, |x: &App| x.view().cloned());
        assert_eq!(v.as_ref(), Some(&view));
    }
}

/// A join that lands while the group is mid-flush (concurrent crash) is
/// queued and admitted in a follow-up view.
#[test]
fn join_racing_a_crash_flush_is_admitted() {
    let (w, nodes) = bring_up(3, 83);
    let mut w2 = w;
    let joiner = w2.add_node(Box::new(App::new(NodeId(3))));
    // Crash a member; while the flush runs (suspect timeout + rounds),
    // the newcomer asks to join.
    w2.crash_at(SimTime::from_secs(9), nodes[2]);
    w2.invoke_at(
        SimTime::from_secs(9) + SimDuration::from_millis(400),
        joiner,
        |a: &mut App, ctx| a.stack.join(ctx, G),
    );
    w2.run_until(SimTime::from_secs(25));
    let view = w2
        .inspect(nodes[0], |a: &App| a.view().cloned())
        .expect("view");
    assert_eq!(
        view.sorted_members(),
        vec![nodes[0], nodes[1], joiner],
        "crash excluded, joiner admitted: {view}"
    );
}

/// Leaving while partitioned: the leave completes in the leaver's own
/// component; after the heal the other side learns the membership without
/// the leaver.
#[test]
fn leave_during_partition_sticks_after_heal() {
    let (mut w, nodes) = bring_up(4, 84);
    w.split_at(
        SimTime::from_secs(9),
        vec![vec![nodes[0], nodes[1]], vec![nodes[2], nodes[3]]],
    );
    w.run_until(SimTime::from_secs(16));
    // nodes[3] leaves inside its 2-member component.
    w.invoke(nodes[3], |a: &mut App, ctx| a.stack.leave(ctx, G));
    w.run_until(SimTime::from_secs(22));
    w.inspect(nodes[3], |a: &App| {
        assert_eq!(a.lefts, 1, "leave must complete inside the partition");
        assert_eq!(a.stack.status_of(G), GroupStatus::Left);
    });
    w.heal_at(SimTime::from_secs(22));
    w.run_until(SimTime::from_secs(40));
    let view = w
        .inspect(nodes[0], |a: &App| a.view().cloned())
        .expect("view");
    assert_eq!(
        view.sorted_members(),
        vec![nodes[0], nodes[1], nodes[2]],
        "post-heal view must not resurrect the leaver: {view}"
    );
}

/// Messages buffered while a node has no view yet (sent before create)
/// are released in the first view.
#[test]
fn sends_before_first_view_are_buffered() {
    let mut w = World::new(WorldConfig {
        seed: 85,
        ..WorldConfig::default()
    });
    let a = w.add_node(Box::new(App::new(NodeId(0))));
    let b = w.add_node(Box::new(App::new(NodeId(1))));
    w.invoke(a, |x: &mut App, ctx| {
        x.stack.create(ctx, G);
        // Same tick as create: the singleton view installs synchronously,
        // so this goes out in view #1.
        x.stack.send(ctx, G, payload(7u64));
    });
    w.invoke_at(SimTime::from_secs(1), b, |x: &mut App, ctx| {
        x.stack.join(ctx, G)
    });
    w.run_until(SimTime::from_secs(6));
    // a delivered its own message; b was not a member of the view it was
    // sent in, so b must NOT have it (view-tagged delivery).
    let a_got = w.inspect(a, |x: &App| x.delivered.clone());
    assert_eq!(a_got, vec![(a, 7)]);
    let b_got = w.inspect(b, |x: &App| x.delivered.len());
    assert_eq!(b_got, 0, "pre-join messages stay in their view");
    // But messages in the shared view reach both.
    w.invoke(a, |x: &mut App, ctx| x.stack.send(ctx, G, payload(8u64)));
    w.run_until(SimTime::from_secs(7));
    let b_got: Vec<u64> = w.inspect(b, |x: &App| x.delivered.iter().map(|(_, v)| *v).collect());
    assert_eq!(b_got, vec![8]);
}

/// Rapid-fire membership churn in one group: joins and leaves interleaved
/// back-to-back still land on a single agreed view.
#[test]
fn rapid_join_leave_interleaving_converges() {
    let (w, nodes) = bring_up(2, 86);
    let mut w2 = w;
    let c = w2.add_node(Box::new(App::new(NodeId(2))));
    let d = w2.add_node(Box::new(App::new(NodeId(3))));
    w2.invoke_at(SimTime::from_secs(9), c, |a: &mut App, ctx| {
        a.stack.join(ctx, G)
    });
    w2.invoke_at(
        SimTime::from_secs(9) + SimDuration::from_millis(100),
        d,
        |a: &mut App, ctx| a.stack.join(ctx, G),
    );
    w2.invoke_at(
        SimTime::from_secs(9) + SimDuration::from_millis(200),
        nodes[1],
        |a: &mut App, ctx| a.stack.leave(ctx, G),
    );
    w2.run_until(SimTime::from_secs(25));
    let view = w2
        .inspect(nodes[0], |a: &App| a.view().cloned())
        .expect("view");
    assert_eq!(view.sorted_members(), vec![nodes[0], c, d], "{view}");
    for &m in &[nodes[0], c, d] {
        let v = w2.inspect(m, |a: &App| a.view().cloned());
        assert_eq!(v.as_ref(), Some(&view));
    }
    w2.inspect(nodes[1], |a: &App| assert_eq!(a.lefts, 1));
}

/// Every member of an 8-member group leaves at the same instant: each
/// coordinator in turn flushes out the leavers whose requests reached it,
/// itself among them, and every endpoint ends `Left` without a flush
/// restart. A leaver that became the coordinator used to turn back into
/// a member at its next install, so the view that excluded it did not end
/// its leave: it kept flushing its stale view until the watchdog restarted
/// the flush and excluded everyone.
#[test]
fn a_whole_group_leaving_at_once_ends_left_everywhere() {
    let (mut w, nodes) = bring_up(8, 87);
    w.run_until(SimTime::from_secs(12));
    for &m in &nodes {
        let members = w.inspect(m, |a: &App| a.view().map(View::sorted_members));
        assert_eq!(members.as_ref(), Some(&nodes), "{m} before the leave");
    }
    let restarts = w.trace().count("hwg.flush.restart");
    for &m in &nodes {
        w.invoke_at(SimTime::from_secs(12), m, |a: &mut App, ctx| {
            a.stack.leave(ctx, G)
        });
    }
    w.run_until(SimTime::from_secs(30));
    for &m in &nodes {
        w.inspect(m, |a: &App| {
            assert_eq!(a.stack.status_of(G), GroupStatus::Left, "{m}");
            assert_eq!(a.lefts, 1, "{m}");
        });
    }
    assert_eq!(w.trace().count("hwg.flush.restart") - restarts, 0);
}
