//! End-to-end scenarios for the HWG layer: joins, multicast, crashes,
//! partitions and merges, driven through the deterministic simulator.

use plwg_sim::{
    Frame, NodeId, Payload, Process, SimDuration, SimTime, TimerToken, Transport, World,
    WorldConfig,
};
use plwg_vsync::{
    FlushId, FlushPurpose, GroupStatus, HwgId, View, VsEvent, VsMsg, VsyncConfig, VsyncStack,
};
use std::any::Any;
use std::collections::BTreeSet;

/// Test payload: a bare 8-byte little-endian integer frame.
fn payload(v: u64) -> Payload {
    Frame::from_u64(v)
}

/// A test application owning a vsync stack; records every upcall.
struct App {
    stack: VsyncStack,
    views: Vec<(HwgId, View)>,
    delivered: Vec<(HwgId, NodeId, u64)>,
    lefts: Vec<HwgId>,
    stops: usize,
}

impl App {
    fn new(me: NodeId, cfg: VsyncConfig) -> Self {
        App {
            stack: VsyncStack::new(me, cfg),
            views: Vec::new(),
            delivered: Vec::new(),
            lefts: Vec::new(),
            stops: 0,
        }
    }

    fn drain(&mut self) {
        for ev in self.stack.drain_events() {
            match ev {
                VsEvent::View { hwg, view } => self.views.push((hwg, view)),
                VsEvent::Data { hwg, src, data, .. } => {
                    let v = data.try_u64().expect("u64 payloads in tests");
                    self.delivered.push((hwg, src, v));
                }
                VsEvent::Stop { .. } => self.stops += 1,
                VsEvent::Left { hwg } => self.lefts.push(hwg),
            }
        }
    }

    fn current_view(&self, hwg: HwgId) -> Option<&View> {
        self.views
            .iter()
            .rev()
            .find(|(h, _)| *h == hwg)
            .map(|(_, v)| v)
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

fn world_with(n: u32, seed: u64) -> (World, Vec<NodeId>) {
    let mut w = World::new(WorldConfig {
        seed,
        trace: true,
        ..WorldConfig::default()
    });
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| w.add_node(Box::new(App::new(NodeId(i), VsyncConfig::default()))))
        .collect();
    (w, nodes)
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// Everyone creates-or-joins `G`; after settling, all share one view.
fn bring_up(w: &mut World, nodes: &[NodeId]) {
    let first = nodes[0];
    w.invoke(first, |a: &mut App, ctx| a.stack.create(ctx, G));
    for &n in &nodes[1..] {
        w.invoke(n, |a: &mut App, ctx| a.stack.join(ctx, G));
    }
    w.run_for(secs(5));
}

fn assert_common_view(w: &mut World, nodes: &[NodeId], expect_members: usize) -> View {
    let view = w
        .inspect(nodes[0], |a: &App| a.current_view(G).cloned())
        .expect("node 0 has a view");
    assert_eq!(view.len(), expect_members, "view size: {view}");
    for &n in nodes {
        let v = w.inspect(n, |a: &App| a.current_view(G).cloned());
        assert_eq!(v.as_ref(), Some(&view), "node {n} diverges");
    }
    view
}

#[test]
fn create_then_join_forms_two_member_view() {
    let (mut w, nodes) = world_with(2, 7);
    bring_up(&mut w, &nodes);
    let view = assert_common_view(&mut w, &nodes, 2);
    assert_eq!(view.coordinator(), nodes[0], "creator stays senior");
}

#[test]
fn four_nodes_converge_to_one_view() {
    let (mut w, nodes) = world_with(4, 8);
    bring_up(&mut w, &nodes);
    let view = assert_common_view(&mut w, &nodes, 4);
    assert_eq!(view.members[0], nodes[0]);
}

#[test]
fn join_without_existing_group_forms_singleton() {
    let (mut w, nodes) = world_with(1, 9);
    w.invoke(nodes[0], |a: &mut App, ctx| a.stack.join(ctx, G));
    w.run_for(secs(3));
    let v = assert_common_view(&mut w, &nodes, 1);
    assert!(v.predecessors.is_empty());
    assert!(
        w.trace().count("hwg.singleton") >= 1,
        "an unanswered join probe must bootstrap a singleton view"
    );
}

#[test]
fn multicast_is_fifo_and_self_delivered() {
    let (mut w, nodes) = world_with(3, 10);
    bring_up(&mut w, &nodes);
    w.invoke(nodes[1], |a: &mut App, ctx| {
        for i in 0..20u64 {
            a.stack.send(ctx, G, payload(i));
        }
    });
    w.run_for(secs(2));
    for &n in &nodes {
        let seq: Vec<u64> = w.inspect(n, |a: &App| {
            a.delivered
                .iter()
                .filter(|(h, s, _)| *h == G && *s == nodes[1])
                .map(|(_, _, v)| *v)
                .collect()
        });
        assert_eq!(seq, (0..20).collect::<Vec<u64>>(), "FIFO at {n}");
    }
}

#[test]
fn interleaved_senders_keep_per_sender_fifo() {
    let (mut w, nodes) = world_with(4, 11);
    bring_up(&mut w, &nodes);
    for (k, &n) in nodes.iter().enumerate() {
        let base = (k as u64) * 1000;
        w.invoke(n, move |a: &mut App, ctx| {
            for i in 0..10u64 {
                a.stack.send(ctx, G, payload(base + i));
            }
        });
    }
    w.run_for(secs(2));
    for &n in &nodes {
        for &s in &nodes {
            let seq: Vec<u64> = w.inspect(n, |a: &App| {
                a.delivered
                    .iter()
                    .filter(|(h, src, _)| *h == G && *src == s)
                    .map(|(_, _, v)| *v % 1000)
                    .collect()
            });
            assert_eq!(seq, (0..10).collect::<Vec<u64>>());
        }
    }
}

#[test]
fn crash_is_excluded_from_next_view() {
    let (mut w, nodes) = world_with(4, 12);
    bring_up(&mut w, &nodes);
    w.crash(nodes[3]);
    w.run_for(secs(5));
    let survivors = &nodes[..3];
    let view = {
        let v = w
            .inspect(nodes[0], |a: &App| a.current_view(G).cloned())
            .expect("view");
        v
    };
    assert_eq!(view.len(), 3);
    assert!(!view.contains(nodes[3]));
    for &n in survivors {
        let v = w.inspect(n, |a: &App| a.current_view(G).cloned());
        assert_eq!(v.as_ref(), Some(&view));
    }
}

/// How long after a crash the survivors' exclusion view installs, under
/// the given failure-detector settings.
fn exclusion_delay(cfg: &VsyncConfig) -> SimDuration {
    let mut w = World::new(WorldConfig {
        seed: 12,
        ..WorldConfig::default()
    });
    let nodes: Vec<NodeId> = (0..3)
        .map(|i| w.add_node(Box::new(App::new(NodeId(i), cfg.clone()))))
        .collect();
    bring_up(&mut w, &nodes);
    assert_common_view(&mut w, &nodes, 3);
    let crashed_at = w.now();
    w.crash(nodes[2]);
    while w.inspect(nodes[0], |a: &App| a.current_view(G).map(View::len)) != Some(2) {
        assert!(
            w.now().saturating_since(crashed_at) < secs(30),
            "crashed member never excluded"
        );
        w.run_for(SimDuration::from_millis(10));
    }
    assert_common_view(&mut w, &nodes[..2], 2);
    w.now().saturating_since(crashed_at)
}

/// `suspect_timeout` is the paper's §4 virtual-partition threshold: a
/// silent member stays in the view until it expires and is excluded right
/// after, so raising it (LAN → WAN) delays the exclusion view by as much.
/// `hb_interval` is the detector's granularity: the same threshold is
/// noticed sooner with a faster heartbeat.
#[test]
fn exclusion_view_waits_for_the_suspect_timeout() {
    let hb = VsyncConfig::default().hb_interval;
    let slack = SimDuration::from_millis(500);
    let (short, long) = (SimDuration::from_millis(500), secs(2));
    let with_timeout = |suspect_timeout| VsyncConfig {
        suspect_timeout,
        ..VsyncConfig::default()
    };
    for timeout in [short, long] {
        let delay = exclusion_delay(&with_timeout(timeout));
        // The last heartbeat left at most one period before the crash.
        assert!(
            delay + hb >= timeout,
            "excluded {delay} after the crash, before the {timeout} threshold"
        );
        assert!(
            delay <= timeout + slack,
            "excluded {delay} after the crash, long after the {timeout} threshold"
        );
    }
    assert!(short + slack < long, "the two windows must not overlap");

    let fast_hb = VsyncConfig {
        hb_interval: SimDuration::from_millis(20),
        ..with_timeout(short)
    };
    assert!(exclusion_delay(&fast_hb) < exclusion_delay(&with_timeout(short)));
}

#[test]
fn coordinator_crash_promotes_next_senior() {
    let (mut w, nodes) = world_with(3, 13);
    bring_up(&mut w, &nodes);
    // Admission order (and therefore seniority order) depends on network
    // timing; read it from the installed view rather than assuming it.
    let before = assert_common_view(&mut w, &nodes, 3);
    let coordinator = before.coordinator();
    let next_senior = before.members[1];
    w.crash(coordinator);
    w.run_for(secs(5));
    let survivors: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&n| n != coordinator)
        .collect();
    let view = w
        .inspect(survivors[0], |a: &App| a.current_view(G).cloned())
        .expect("view");
    assert_eq!(view.coordinator(), next_senior);
    assert_eq!(view.len(), 2);
    let v2 = w.inspect(survivors[1], |a: &App| a.current_view(G).cloned());
    assert_eq!(v2.as_ref(), Some(&view));
}

/// The virtual-synchrony invariant: all processes that install the same two
/// consecutive views deliver the same multicasts in between — even with
/// traffic racing a crash-triggered view change.
#[test]
fn virtual_synchrony_across_crash_view_change() {
    let (mut w, nodes) = world_with(4, 14);
    bring_up(&mut w, &nodes);
    // Node 2 streams data; node 3 crashes mid-stream.
    for burst in 0..10u64 {
        let t = SimTime::from_secs(6) + SimDuration::from_millis(burst * 50);
        w.invoke_at(t, nodes[2], move |a: &mut App, ctx| {
            for i in 0..5u64 {
                a.stack.send(ctx, G, payload(burst * 5 + i));
            }
        });
    }
    w.crash_at(
        SimTime::from_secs(6) + SimDuration::from_millis(230),
        nodes[3],
    );
    w.run_for(secs(12));
    // All three survivors installed the same post-crash view; the set of
    // messages delivered before it must be identical.
    let deliveries: Vec<Vec<u64>> = nodes[..3]
        .iter()
        .map(|&n| {
            w.inspect(n, |a: &App| {
                a.delivered
                    .iter()
                    .filter(|(h, s, _)| *h == G && *s == nodes[2])
                    .map(|(_, _, v)| *v)
                    .collect()
            })
        })
        .collect();
    assert_eq!(deliveries[0], deliveries[1]);
    assert_eq!(deliveries[0], deliveries[2]);
    assert_eq!(deliveries[0], (0..50).collect::<Vec<u64>>());
}

#[test]
fn partition_forms_concurrent_views_and_heals_into_merge() {
    let (mut w, nodes) = world_with(4, 15);
    bring_up(&mut w, &nodes);
    let pre = assert_common_view(&mut w, &nodes, 4);
    w.split_at(
        SimTime::from_secs(6),
        vec![vec![nodes[0], nodes[1]], vec![nodes[2], nodes[3]]],
    );
    w.run_until(SimTime::from_secs(14));
    // Each side has its own 2-member view; the two are concurrent.
    let va = w
        .inspect(nodes[0], |a: &App| a.current_view(G).cloned())
        .expect("side A view");
    let vb = w
        .inspect(nodes[2], |a: &App| a.current_view(G).cloned())
        .expect("side B view");
    assert_eq!(va.sorted_members(), vec![nodes[0], nodes[1]]);
    assert_eq!(vb.sorted_members(), vec![nodes[2], nodes[3]]);
    assert_ne!(va.id, vb.id);
    assert!(va.predecessors.contains(&pre.id));
    assert!(vb.predecessors.contains(&pre.id));

    w.heal_at(SimTime::from_secs(14));
    w.run_until(SimTime::from_secs(25));
    let merged = assert_common_view(&mut w, &nodes, 4);
    // The merged view succeeds both concurrent views.
    assert!(
        merged.predecessors.contains(&va.id) || merged.predecessors.contains(&vb.id),
        "merged view {merged} should descend from the partition views"
    );
}

#[test]
fn concurrent_creations_merge_via_beacons() {
    let (mut w, nodes) = world_with(2, 16);
    // Both create the same group independently (a race the LWG layer can
    // produce when two partitions map the same LWG to a fresh HWG).
    for &n in &nodes {
        w.invoke(n, |a: &mut App, ctx| a.stack.create(ctx, G));
    }
    w.run_for(secs(8));
    let view = assert_common_view(&mut w, &nodes, 2);
    assert_eq!(view.predecessors.len(), 2, "merged from two singletons");
}

#[test]
fn leave_shrinks_view_and_confirms() {
    let (mut w, nodes) = world_with(3, 17);
    bring_up(&mut w, &nodes);
    w.invoke(nodes[2], |a: &mut App, ctx| a.stack.leave(ctx, G));
    w.run_for(secs(5));
    let view = w
        .inspect(nodes[0], |a: &App| a.current_view(G).cloned())
        .expect("view");
    assert_eq!(view.sorted_members(), vec![nodes[0], nodes[1]]);
    w.inspect(nodes[2], |a: &App| {
        assert_eq!(a.lefts, vec![G]);
        assert_eq!(a.stack.status_of(G), GroupStatus::Left);
    });
}

#[test]
fn coordinator_leave_hands_over() {
    let (mut w, nodes) = world_with(3, 18);
    // Stagger the joins so seniority is deterministic: n0 > n1 > n2.
    w.invoke(nodes[0], |a: &mut App, ctx| a.stack.create(ctx, G));
    w.invoke_at(SimTime::from_secs(1), nodes[1], |a: &mut App, ctx| {
        a.stack.join(ctx, G)
    });
    w.invoke_at(SimTime::from_secs(2), nodes[2], |a: &mut App, ctx| {
        a.stack.join(ctx, G)
    });
    w.run_for(secs(4));
    w.invoke(nodes[0], |a: &mut App, ctx| a.stack.leave(ctx, G));
    w.run_for(secs(5));
    let view = w
        .inspect(nodes[1], |a: &App| a.current_view(G).cloned())
        .expect("view");
    assert_eq!(view.sorted_members(), vec![nodes[1], nodes[2]]);
    assert_eq!(view.coordinator(), nodes[1]);
    w.inspect(nodes[0], |a: &App| assert_eq!(a.lefts, vec![G]));
}

#[test]
fn sole_member_leave_dissolves_group() {
    let (mut w, nodes) = world_with(1, 19);
    w.invoke(nodes[0], |a: &mut App, ctx| a.stack.create(ctx, G));
    w.run_for(secs(1));
    w.invoke(nodes[0], |a: &mut App, ctx| a.stack.leave(ctx, G));
    w.run_for(secs(1));
    w.inspect(nodes[0], |a: &App| {
        assert_eq!(a.lefts, vec![G]);
    });
}

#[test]
fn virtual_synchrony_under_message_loss() {
    let mut w = World::new(WorldConfig {
        seed: 99,
        net: plwg_sim::NetConfig {
            loss: 0.02,
            ..plwg_sim::NetConfig::default()
        },
        ..WorldConfig::default()
    });
    let nodes: Vec<NodeId> = (0..3)
        .map(|i| w.add_node(Box::new(App::new(NodeId(i), VsyncConfig::default()))))
        .collect();
    bring_up(&mut w, &nodes);
    for burst in 0..20u64 {
        let t = SimTime::from_secs(6) + SimDuration::from_millis(burst * 40);
        w.invoke_at(t, nodes[1], move |a: &mut App, ctx| {
            a.stack.send(ctx, G, payload(burst));
        });
    }
    // Crash node 2 to force a view change; the flush must reconcile any
    // loss-induced gaps among survivors.
    w.crash_at(SimTime::from_secs(8), nodes[2]);
    w.run_for(secs(15));
    let d0: Vec<u64> = w.inspect(nodes[0], |a: &App| {
        a.delivered.iter().map(|(_, _, v)| *v).collect()
    });
    let d1: Vec<u64> = w.inspect(nodes[1], |a: &App| {
        a.delivered.iter().map(|(_, _, v)| *v).collect()
    });
    assert_eq!(d0, d1, "survivors must agree on the delivered sequence");
    assert_eq!(d0, (0..20).collect::<Vec<u64>>());
}

#[test]
fn data_sent_in_old_view_is_not_delivered_in_new_view() {
    let (mut w, nodes) = world_with(3, 20);
    bring_up(&mut w, &nodes);
    let before = w.inspect(nodes[0], |a: &App| a.delivered.len());
    // Partition node 2 away; its sends go to a view the others abandon.
    w.split_at(
        SimTime::from_secs(6),
        vec![vec![nodes[0], nodes[1]], vec![nodes[2]]],
    );
    w.run_until(SimTime::from_secs(12));
    w.invoke(nodes[2], |a: &mut App, ctx| {
        a.stack.send(ctx, G, payload(777u64))
    });
    w.heal_at(SimTime::from_secs(13));
    w.run_until(SimTime::from_secs(20));
    // 777 was sent in node 2's solo view; nodes 0/1 never install that view
    // and must not deliver it. (Node 2 delivers it to itself.)
    for &n in &nodes[..2] {
        let got: Vec<u64> = w.inspect(n, |a: &App| {
            a.delivered[before..].iter().map(|(_, _, v)| *v).collect()
        });
        assert!(
            !got.contains(&777),
            "{n} must not deliver foreign-view data"
        );
    }
    let self_got: Vec<u64> = w.inspect(nodes[2], |a: &App| {
        a.delivered.iter().map(|(_, _, v)| *v).collect()
    });
    assert!(self_got.contains(&777));
}

#[test]
fn stop_upcall_precedes_view_change() {
    let (mut w, nodes) = world_with(2, 21);
    bring_up(&mut w, &nodes);
    let stops_before = w.inspect(nodes[0], |a: &App| a.stops);
    w.invoke(nodes[1], |a: &mut App, ctx| a.stack.leave(ctx, G));
    w.run_for(secs(4));
    let stops_after = w.inspect(nodes[0], |a: &App| a.stops);
    assert!(stops_after > stops_before, "flush must signal Stop");
}

#[test]
fn three_way_partition_and_heal() {
    let (mut w, nodes) = world_with(6, 22);
    bring_up(&mut w, &nodes);
    assert_common_view(&mut w, &nodes, 6);
    w.split_at(
        SimTime::from_secs(6),
        vec![
            vec![nodes[0], nodes[1]],
            vec![nodes[2], nodes[3]],
            vec![nodes[4], nodes[5]],
        ],
    );
    w.run_until(SimTime::from_secs(16));
    for pair in [[0usize, 1], [2, 3], [4, 5]] {
        let v = w
            .inspect(nodes[pair[0]], |a: &App| a.current_view(G).cloned())
            .expect("partition view");
        assert_eq!(v.len(), 2, "each component forms a pair view");
        let v2 = w.inspect(nodes[pair[1]], |a: &App| a.current_view(G).cloned());
        assert_eq!(v2.as_ref(), Some(&v));
    }
    w.heal_at(SimTime::from_secs(16));
    // Three concurrent views merge (possibly pairwise, needing two rounds).
    w.run_until(SimTime::from_secs(40));
    assert_common_view(&mut w, &nodes, 6);
}

#[test]
fn virtual_partition_congestion_splits_and_recovers() {
    let (mut w, nodes) = world_with(4, 23);
    bring_up(&mut w, &nodes);
    // Congestion makes every message ~100x slower than the suspect timeout
    // allows: a *virtual* partition (paper §4) — nodes are alive but appear
    // crashed.
    w.schedule_at(SimTime::from_secs(6), |w| {
        w.topology_mut().set_congestion(400.0)
    });
    w.schedule_at(SimTime::from_secs(20), |w| {
        w.topology_mut().set_congestion(1.0)
    });
    w.run_until(SimTime::from_secs(45));
    // After the episode clears, everyone re-merges into one view.
    let view = w
        .inspect(nodes[0], |a: &App| a.current_view(G).cloned())
        .expect("view");
    assert_eq!(view.len(), 4, "virtual partition must heal: {view}");
    for &n in &nodes {
        let v = w.inspect(n, |a: &App| a.current_view(G).cloned());
        assert_eq!(v.as_ref(), Some(&view));
    }
}

#[test]
fn nack_recovers_lost_messages_without_view_change() {
    // 10% loss, steady stream, no membership change: the NACK machinery
    // must fill every gap well before any flush runs.
    let mut w = World::new(WorldConfig {
        seed: 77,
        net: plwg_sim::NetConfig {
            loss: 0.10,
            ..plwg_sim::NetConfig::default()
        },
        trace: true,
        ..WorldConfig::default()
    });
    let nodes: Vec<NodeId> = (0..3)
        .map(|i| w.add_node(Box::new(App::new(NodeId(i), VsyncConfig::default()))))
        .collect();
    bring_up(&mut w, &nodes);
    for k in 0..60u64 {
        let t = SimTime::from_secs(6) + SimDuration::from_millis(k * 30);
        w.invoke_at(t, nodes[1], move |a: &mut App, ctx| {
            a.stack.send(ctx, G, payload(k));
        });
    }
    w.run_for(secs(15));
    assert!(
        w.metrics().counter(plwg_vsync::keys::NACK_RESENDS) > 0,
        "loss at 10% must have exercised the NACK path"
    );
    assert!(
        w.trace().count("hwg.nack") > 0,
        "each repair starts with a NACK"
    );
    for &n in &nodes {
        let got: Vec<u64> = w.inspect(n, |a: &App| {
            a.delivered
                .iter()
                .filter(|(h, s, _)| *h == G && *s == nodes[1])
                .map(|(_, _, v)| *v)
                .collect()
        });
        assert_eq!(got, (0..60).collect::<Vec<u64>>(), "complete FIFO at {n}");
    }
}

#[test]
fn stability_exchange_bounds_retransmit_buffers() {
    let (mut w, nodes) = world_with(3, 78);
    bring_up(&mut w, &nodes);
    // A long stream with no view change: without stability GC the store
    // would hold all 600 messages; with it, the buffer stays near the
    // stability window.
    for k in 0..600u64 {
        let t = SimTime::from_secs(6) + SimDuration::from_millis(k * 20);
        w.invoke_at(t, nodes[0], move |a: &mut App, ctx| {
            a.stack.send(ctx, G, payload(k));
        });
    }
    w.run_for(secs(20));
    assert!(
        w.metrics().counter(plwg_vsync::keys::STORE_GC) > 0,
        "GC must have run"
    );
    for &n in &nodes {
        let buffered = w.inspect(n, |a: &App| a.stack.retransmit_buffer_len(G));
        assert!(
            buffered < 300,
            "store at {n} holds {buffered} messages; stability GC failed"
        );
    }
    // And the stream still arrived intact.
    let got: Vec<u64> = w.inspect(nodes[2], |a: &App| {
        a.delivered
            .iter()
            .filter(|(h, s, _)| *h == G && *s == nodes[0])
            .map(|(_, _, v)| *v)
            .collect()
    });
    assert_eq!(got, (0..600).collect::<Vec<u64>>());
}

/// A flush round whose initiator vanishes mid-round would freeze a member
/// forever: the member's own recovery round cannot supersede the more
/// senior initiator's. The member-side watchdog abandons the orphaned
/// round after twice the flush timeout and the group resumes.
#[test]
fn member_abandons_flush_whose_initiator_went_silent() {
    let (mut w, nodes) = world_with(3, 21);
    bring_up(&mut w, &nodes);
    let view = assert_common_view(&mut w, &nodes, 3);
    // Rank-1 member "starts" a flush towards the junior member and then
    // goes silent: inject the FlushReq directly with nothing following it.
    let senior = nodes[1];
    let junior = nodes[2];
    let req = VsMsg::FlushReq {
        hwg: G,
        view_id: view.id,
        flush: FlushId {
            initiator: senior,
            nonce: 99,
        },
        proposed: view.members.clone(),
        purpose: FlushPurpose::ViewChange,
    };
    let req = plwg_sim::encode_frame(plwg_sim::family::VS, &req);
    w.invoke(junior, move |a: &mut App, ctx| {
        if a.stack.on_message(ctx, senior, &req.clone()) {
            a.drain();
        }
    });
    // Past 2 x FLUSH_TIMEOUT (2 x 1.5 s).
    w.run_for(secs(4));
    assert!(
        w.trace().count("hwg.flush.abandon") >= 1,
        "the member must abandon the orphaned flush round"
    );
    // The abandon must leave the group operational: data still flows.
    let sender = nodes[0];
    w.invoke(sender, |a: &mut App, ctx| {
        a.stack.send(ctx, G, payload(7u64))
    });
    w.run_for(secs(2));
    let got = w.inspect(junior, |a: &App| {
        a.delivered
            .iter()
            .filter(|(h, s, v)| *h == G && *s == sender && *v == 7)
            .count()
    });
    assert_eq!(got, 1, "delivery must resume after the abandoned flush");
}

/// The stability exchange is triggered by volume as well as by time: a
/// burst far faster than the 2 s stability interval must not make the
/// retransmission store hold the whole burst. Returns the highest store
/// length seen at any member and the NACK resends served.
fn burst_of_20k_in_one_second(loss: f64) -> (usize, u64) {
    const TOTAL: u64 = 20_000;
    const PER_MS: u64 = 20;
    let mut w = World::new(WorldConfig {
        seed: 79,
        net: plwg_sim::NetConfig {
            loss,
            ..plwg_sim::NetConfig::default()
        },
        ..WorldConfig::default()
    });
    let nodes: Vec<NodeId> = (0..3)
        .map(|i| w.add_node(Box::new(App::new(NodeId(i), VsyncConfig::default()))))
        .collect();
    bring_up(&mut w, &nodes);
    let view = assert_common_view(&mut w, &nodes, 3);
    let mut high_water = 0;
    for ms in 0..TOTAL / PER_MS {
        w.invoke(nodes[0], move |a: &mut App, ctx| {
            for k in ms * PER_MS..(ms + 1) * PER_MS {
                a.stack.send(ctx, G, payload(k));
            }
            a.drain();
        });
        w.run_for(SimDuration::from_millis(1));
        for &n in &nodes {
            high_water = high_water.max(w.inspect(n, |a: &App| a.stack.retransmit_buffer_len(G)));
        }
    }
    w.run_for(secs(10));
    // Every copy arrived, in order, and in the view the burst started in:
    // whatever was lost was repaired from a store that still held it.
    assert_common_view(&mut w, &nodes, 3);
    for &n in &nodes {
        assert_eq!(
            w.inspect(n, |a: &App| a.current_view(G).cloned()),
            Some(view.clone())
        );
        let got: Vec<u64> = w.inspect(n, |a: &App| {
            a.delivered
                .iter()
                .filter(|(h, s, _)| *h == G && *s == nodes[0])
                .map(|(_, _, v)| *v)
                .collect()
        });
        assert_eq!(
            got,
            (0..TOTAL).collect::<Vec<u64>>(),
            "complete FIFO at {n}"
        );
    }
    (
        high_water,
        w.metrics().counter(plwg_vsync::keys::NACK_RESENDS),
    )
}

#[test]
fn volume_triggered_stability_bounds_the_store_under_a_burst() {
    // Lossless: the store holds what was sent since the last advertisement
    // (1024 at most) plus what the advertisements in flight will release.
    let (high_water, _) = burst_of_20k_in_one_second(0.0);
    assert!(
        high_water <= 3 * 1024,
        "store reached {high_water} messages"
    );
    // With loss nothing is collected before every member has it: a gap
    // pins the prefix until its NACK is served (about 0.3 s at the default
    // tick and the 200 ms NACK delay, so some 6 k messages at this rate) —
    // still far from the 20 k the time trigger alone lets pile up.
    let (high_water, resends) = burst_of_20k_in_one_second(0.001);
    assert!(resends > 0, "loss must have exercised the NACK path");
    assert!(
        high_water < 10 * 1024,
        "store reached {high_water} messages"
    );
}

/// A member alone in its view has nobody to retransmit to and nobody whose
/// stability report would ever collect its store: its messages are stable
/// on delivery and must not be stored at all, however many it sends. A
/// member that joins afterwards finds an ordinary two-member group.
#[test]
fn singleton_stores_nothing_and_still_admits_a_joiner() {
    const SOLO: u64 = 10 * 1024;
    let (mut w, nodes) = world_with(2, 80);
    w.invoke(nodes[0], |a: &mut App, ctx| a.stack.create(ctx, G));
    for ms in 0..SOLO / 1024 {
        w.invoke(nodes[0], move |a: &mut App, ctx| {
            for k in ms * 1024..(ms + 1) * 1024 {
                a.stack.send(ctx, G, payload(k));
                assert_eq!(a.stack.retransmit_buffer_len(G), 0, "after send {k}");
            }
            a.drain();
        });
        w.run_for(SimDuration::from_millis(1));
    }
    w.run_for(secs(3));
    assert_eq!(
        w.inspect(nodes[0], |a: &App| a.stack.retransmit_buffer_len(G)),
        0
    );

    w.invoke(nodes[1], |a: &mut App, ctx| a.stack.join(ctx, G));
    w.run_for(secs(5));
    assert_common_view(&mut w, &nodes, 2);
    for (i, &n) in nodes.iter().enumerate() {
        w.invoke(n, move |a: &mut App, ctx| {
            for k in 0..50 {
                a.stack.send(ctx, G, payload(SOLO * (i as u64 + 1) + k));
            }
            a.drain();
        });
    }
    w.run_for(secs(3));
    // The creator delivered its solo stream; both delivered each other's
    // and their own later sends, exactly once and in FIFO order.
    let from = |w: &mut World, at: NodeId, src: NodeId| -> Vec<u64> {
        w.inspect(at, |a: &App| {
            a.delivered
                .iter()
                .filter(|(h, s, _)| *h == G && *s == src)
                .map(|(_, _, v)| *v)
                .collect()
        })
    };
    let joint = |i: u64| (SOLO * (i + 1)..SOLO * (i + 1) + 50).collect::<Vec<u64>>();
    let solo_then_joint: Vec<u64> = (0..SOLO).chain(joint(0)).collect();
    assert_eq!(from(&mut w, nodes[0], nodes[0]), solo_then_joint);
    assert_eq!(from(&mut w, nodes[1], nodes[0]), joint(0));
    assert_eq!(from(&mut w, nodes[0], nodes[1]), joint(1));
    assert_eq!(from(&mut w, nodes[1], nodes[1]), joint(1));
}

/// What one [`ten_sends`] run left behind, per node in node order.
#[derive(Debug, PartialEq)]
struct SendRun {
    /// `VsEvent::Data` upcalls.
    delivered: Vec<Vec<(HwgId, NodeId, u64)>>,
    /// `retransmit_buffer_len` once the sends have arrived.
    stored: Vec<usize>,
    /// The view a `force_flush` after the sends installs.
    flushed_view: View,
    /// `hwg.data_sent`, `hwg.bytes_multicast`, `hwg.subset_trimmed`.
    counters: [u64; 3],
}

/// The same seeded 4-member world every time: node 1 multicasts ten
/// messages — with `send`, or with `send_to(targets)` when given — and the
/// coordinator then forces a flush.
fn ten_sends(targets: Option<&[u32]>) -> SendRun {
    let (mut w, nodes) = world_with(4, 31);
    bring_up(&mut w, &nodes);
    let before = assert_common_view(&mut w, &nodes, 4);
    let targets: Option<BTreeSet<NodeId>> = targets.map(|t| t.iter().map(|&i| NodeId(i)).collect());
    w.metrics_mut().reset();
    w.invoke(nodes[1], move |a: &mut App, ctx| {
        for i in 0..10u64 {
            match &targets {
                None => a.stack.send(ctx, G, payload(i)),
                Some(t) => a.stack.send_to(ctx, G, t, payload(i)),
            }
        }
    });
    w.run_for(SimDuration::from_millis(100));
    let stored = nodes
        .iter()
        .map(|&n| w.inspect(n, |a: &App| a.stack.retransmit_buffer_len(G)))
        .collect();
    let counters = [
        plwg_vsync::keys::DATA_SENT,
        plwg_vsync::keys::BYTES_MULTICAST,
        plwg_vsync::keys::SUBSET_TRIMMED,
    ]
    .map(|k| w.metrics().counter(k));
    w.invoke(nodes[0], |a: &mut App, ctx| a.stack.force_flush(ctx, G));
    w.run_for(secs(2));
    let flushed_view = assert_common_view(&mut w, &nodes, 4);
    assert_eq!(flushed_view.predecessors, vec![before.id], "flush ran");
    SendRun {
        delivered: nodes
            .iter()
            .map(|&n| w.inspect(n, |a: &App| a.delivered.clone()))
            .collect(),
        stored,
        flushed_view,
        counters,
    }
}

/// `send` and `send_to` are one path: addressing every member is a full
/// multicast — same deliveries, same counters, nothing trimmed.
#[test]
fn send_to_every_member_is_a_full_send() {
    let full = ten_sends(None);
    assert_eq!(full.counters, [10, 80, 0]);
    let ten: Vec<_> = (0..10).map(|i| (G, NodeId(1), i)).collect();
    assert_eq!(full.delivered, vec![ten; 4]);
    assert_eq!(ten_sends(Some(&[0, 1, 2, 3])), full);
}

/// A subset send delivers to the targets and the sender only, yet every
/// other member's FIFO slot is held by a skip marker: its retransmission
/// store and the view the next flush agrees on are those of a full send.
#[test]
fn send_to_a_subset_holds_every_fifo_slot() {
    let full = ten_sends(None);
    let subset = ten_sends(Some(&[2]));
    let ten: Vec<_> = (0..10).map(|i| (G, NodeId(1), i)).collect();
    assert_eq!(
        subset.delivered,
        vec![vec![], ten.clone(), ten, vec![]],
        "payloads reach the sender and the target only"
    );
    assert_eq!(
        subset.counters,
        [10, 80, 20],
        "two members trimmed per send"
    );
    assert_eq!(full.stored, vec![10; 4], "nothing stable yet");
    assert_eq!(subset.stored, full.stored);
    assert_eq!(subset.flushed_view, full.flushed_view);
}
