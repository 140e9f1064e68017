//! Whole-stack integration: the Figure 3 → Figure 4 lifecycle across all
//! four layers (simulator, HWG, naming, LWG service), with assertions at
//! each stage of the paper's reconciliation pipeline.

use plwg::obs::scenarios::{join_staggered, Scenario};
use plwg::prelude::*;

/// The gap between two members' joins.
const GAP: SimDuration = SimDuration::from_millis(400);

/// The four heal steps of paper §6, checked one by one on a scenario where
/// the concurrent views end up on *different* HWGs (groups founded while
/// partitioned), so reconciliation must run the full pipeline including
/// the highest-gid switch.
#[test]
fn four_step_heal_with_cross_hwg_reconciliation() {
    let (mut w, servers, apps) = Scenario::traced(31, 4).build::<VsyncStack>();
    let g = LwgId(9);
    // Found the group in two partitions.
    let (a0, a1, b0, b1) = (apps[0], apps[1], apps[2], apps[3]);
    w.split_at(
        SimTime::from_secs(1),
        vec![vec![servers[0], a0, a1], vec![servers[1], b0, b1]],
    );
    join_staggered::<VsyncStack>(&mut w, g, &[a0, a1], SimTime::from_secs(2), GAP);
    join_staggered::<VsyncStack>(&mut w, g, &[b0, b1], SimTime::from_secs(2), GAP);
    w.run_until(SimTime::from_secs(20));

    // Two concurrent views exist, on different (freshly allocated) HWGs.
    let va = w
        .inspect(a0, |a: &LwgNode| a.current_view(g).cloned())
        .expect("side A view");
    let vb = w
        .inspect(b0, |a: &LwgNode| a.current_view(g).cloned())
        .expect("side B view");
    let ha = w
        .inspect(a0, |a: &LwgNode| a.service_ref().mapping_of(g))
        .expect("side A mapping");
    let hb = w
        .inspect(b0, |a: &LwgNode| a.service_ref().mapping_of(g))
        .expect("side B mapping");
    assert_ne!(va.id, vb.id);
    assert_ne!(ha, hb, "partitioned founders allocate different HWGs");

    w.heal_at(SimTime::from_secs(20));
    w.run_until(SimTime::from_secs(60));

    // Step 2 outcome: everybody on the *highest* HWG id (paper §6.2).
    let winner = ha.max(hb);
    for &m in &apps {
        let h = w
            .inspect(m, |a: &LwgNode| a.service_ref().mapping_of(g))
            .expect("mapped");
        assert_eq!(h, winner, "{m} must have switched to the highest gid");
    }
    // Step 4 outcome: one merged view spanning all four.
    let merged = w
        .inspect(a0, |a: &LwgNode| a.current_view(g).cloned())
        .expect("merged view");
    assert_eq!(merged.len(), 4);
    for &m in &apps {
        let v = w.inspect(m, |a: &LwgNode| a.current_view(g).cloned());
        assert_eq!(v.as_ref(), Some(&merged));
    }
    // The naming service converged (Table 4 final row).
    w.run_until(SimTime::from_secs(70));
    w.inspect(servers[0], |s: &NameServer| {
        assert_eq!(s.db().read(g).len(), 1);
        assert!(s.db().inconsistent().is_empty());
    });
    // And the reconciliation switch actually ran.
    assert!(
        w.metrics().counter(plwg::core::keys::RECONCILIATIONS) >= 1,
        "MULTIPLE-MAPPINGS must have driven a reconciliation"
    );
}

/// Data sent in a concurrent view is never delivered to the other side,
/// before or after the merge — the view-tagging rule of §5.1 end-to-end.
#[test]
fn concurrent_view_data_stays_in_its_view_across_heal() {
    let (mut w, servers, apps) = Scenario::traced(32, 4).build::<VsyncStack>();
    let g = LwgId(5);
    join_staggered::<VsyncStack>(&mut w, g, &apps, SimTime::ZERO, GAP);
    w.run_until(SimTime::from_secs(10));
    let (a0, a1, b0, b1) = (apps[0], apps[1], apps[2], apps[3]);
    w.split_at(
        SimTime::from_secs(10),
        vec![vec![servers[0], a0, a1], vec![servers[1], b0, b1]],
    );
    w.run_until(SimTime::from_secs(20));
    // Each side multicasts within its concurrent view.
    w.invoke(a0, move |a: &mut LwgNode, ctx| {
        a.service().send(ctx, g, plwg::sim::Frame::from_u64(111))
    });
    w.invoke(b0, move |a: &mut LwgNode, ctx| {
        a.service().send(ctx, g, plwg::sim::Frame::from_u64(222))
    });
    w.run_until(SimTime::from_secs(22));
    w.heal_at(SimTime::from_secs(22));
    w.run_until(SimTime::from_secs(40));
    // Everyone reconverged…
    let v = w
        .inspect(a0, |a: &LwgNode| a.current_view(g).cloned())
        .expect("view");
    assert_eq!(v.len(), 4);
    // …but the partition-era messages never crossed sides.
    let a1_from_b0: Vec<u64> = w.inspect(a1, |a: &LwgNode| a.events_ref().data_from(g, b0));
    let b1_from_a0: Vec<u64> = w.inspect(b1, |a: &LwgNode| a.events_ref().data_from(g, a0));
    assert!(!a1_from_b0.contains(&222));
    assert!(!b1_from_a0.contains(&111));
    // While same-side members did deliver them.
    let a1_from_a0: Vec<u64> = w.inspect(a1, |a: &LwgNode| a.events_ref().data_from(g, a0));
    let b1_from_b0: Vec<u64> = w.inspect(b1, |a: &LwgNode| a.events_ref().data_from(g, b0));
    assert!(a1_from_a0.contains(&111));
    assert!(b1_from_b0.contains(&222));
}

/// Messages sent right around the heal are either delivered to the whole
/// merged membership's respective views or buffered into the merged view —
/// never half-delivered within one view.
#[test]
fn sends_straddling_the_heal_are_view_consistent() {
    let (mut w, servers, apps) = Scenario::traced(33, 4).build::<VsyncStack>();
    let g = LwgId(6);
    join_staggered::<VsyncStack>(&mut w, g, &apps, SimTime::ZERO, GAP);
    w.run_until(SimTime::from_secs(10));
    let (a0, a1, b0, b1) = (apps[0], apps[1], apps[2], apps[3]);
    w.split_at(
        SimTime::from_secs(10),
        vec![vec![servers[0], a0, a1], vec![servers[1], b0, b1]],
    );
    w.run_until(SimTime::from_secs(18));
    w.heal_at(SimTime::from_secs(20));
    // Stream from a0 across the heal window.
    for k in 0..40u64 {
        w.invoke_at(
            SimTime::from_secs(19) + SimDuration::from_millis(100 * k),
            a0,
            move |a: &mut LwgNode, ctx| a.service().send(ctx, g, plwg::sim::Frame::from_u64(k)),
        );
    }
    w.run_until(SimTime::from_secs(45));
    // a1 shares every view a0 ever has; it must see the exact sequence.
    let got: Vec<u64> = w.inspect(a1, |a: &LwgNode| a.events_ref().data_from(g, a0));
    assert_eq!(got, (0..40).collect::<Vec<u64>>(), "no loss, no dup at a1");
    // b-side members deliver a suffix (messages from the merged view on).
    let got_b: Vec<u64> = w.inspect(b1, |a: &LwgNode| a.events_ref().data_from(g, a0));
    assert_eq!(
        got_b,
        ((40 - got_b.len() as u64)..40).collect::<Vec<u64>>(),
        "b-side sees a clean suffix, never a gap"
    );
    assert!(!got_b.is_empty(), "post-merge messages must arrive");
}

/// Cascaded partitions: split, heal, split differently, heal again.
#[test]
fn cascaded_partitions_reconverge() {
    let (mut w, servers, apps) = Scenario::traced(34, 4).build::<VsyncStack>();
    let g = LwgId(2);
    join_staggered::<VsyncStack>(&mut w, g, &apps, SimTime::ZERO, GAP);
    w.run_until(SimTime::from_secs(10));
    let (s0, s1) = (servers[0], servers[1]);
    let (a, b, c, d) = (apps[0], apps[1], apps[2], apps[3]);
    w.split_at(SimTime::from_secs(10), vec![vec![s0, a, b], vec![s1, c, d]]);
    w.heal_at(SimTime::from_secs(22));
    // A different cut, straight after the first heal settles.
    w.split_at(SimTime::from_secs(35), vec![vec![s0, a, d], vec![s1, b, c]]);
    w.heal_at(SimTime::from_secs(47));
    w.run_until(SimTime::from_secs(75));
    let v = w
        .inspect(a, |n: &LwgNode| n.current_view(g).cloned())
        .expect("view");
    assert_eq!(v.len(), 4, "all four reunited: {v}");
    for &m in &apps {
        let vm = w.inspect(m, |n: &LwgNode| n.current_view(g).cloned());
        assert_eq!(vm.as_ref(), Some(&v));
    }
}

/// A name-server crash during the heal does not prevent reconciliation as
/// long as one server survives (the availability argument of §5.2).
#[test]
fn heal_completes_despite_name_server_crash() {
    let (mut w, servers, apps) = Scenario::traced(35, 4).build::<VsyncStack>();
    let g = LwgId(3);
    join_staggered::<VsyncStack>(&mut w, g, &apps, SimTime::ZERO, GAP);
    w.run_until(SimTime::from_secs(10));
    let (s0, s1) = (servers[0], servers[1]);
    let (a, b, c, d) = (apps[0], apps[1], apps[2], apps[3]);
    w.split_at(SimTime::from_secs(10), vec![vec![s0, a, b], vec![s1, c, d]]);
    w.run_until(SimTime::from_secs(20));
    // Kill server 0 just before the heal; clients must fail over to s1.
    w.crash_at(SimTime::from_secs(21), s0);
    // Re-partition topology accounting: the crashed node stays in its
    // component; heal as usual.
    w.heal_at(SimTime::from_secs(22));
    w.run_until(SimTime::from_secs(60));
    let v = w
        .inspect(a, |n: &LwgNode| n.current_view(g).cloned())
        .expect("view");
    assert_eq!(v.len(), 4, "heal must complete via the surviving server");
    w.inspect(s1, |s: &NameServer| {
        assert_eq!(s.db().read(g).len(), 1);
    });
}

/// A crashed member that *restarts* (same node, stale protocol state) is
/// re-absorbed: the exclusion-detection machinery notices its views are
/// stale, it re-enters through a singleton lineage, and the merge pipeline
/// pulls it back into the group.
#[test]
fn restarted_member_rejoins_after_exclusion() {
    let (mut w, _, apps) = Scenario::traced(36, 3).build::<VsyncStack>();
    let g = LwgId(4);
    join_staggered::<VsyncStack>(&mut w, g, &apps, SimTime::ZERO, GAP);
    w.run_until(SimTime::from_secs(10));
    let victim = apps[2];
    w.crash_at(SimTime::from_secs(10), victim);
    // Survivors exclude it…
    w.run_until(SimTime::from_secs(20));
    let v = w
        .inspect(apps[0], |n: &LwgNode| n.current_view(g).cloned())
        .expect("view");
    assert_eq!(v.len(), 2);
    // …then it comes back with its stale state.
    w.restart_at(SimTime::from_secs(20), victim);
    w.run_until(SimTime::from_secs(60));
    let healed = w
        .inspect(apps[0], |n: &LwgNode| n.current_view(g).cloned())
        .expect("view");
    assert_eq!(
        healed.len(),
        3,
        "restarted member must be re-absorbed: {healed}"
    );
    for &m in &apps {
        let vm = w.inspect(m, |n: &LwgNode| n.current_view(g).cloned());
        assert_eq!(vm.as_ref(), Some(&healed), "{m} agrees");
    }
}

/// The packaged `heal` scenario (the `timeline` bin's default) runs the
/// four §6 steps in order — naming reconciliation, MULTIPLE-MAPPINGS,
/// the switch, MERGE-VIEWS — and merges its LWG exactly once.
#[test]
fn the_packaged_heal_scenario_runs_the_four_steps_in_order() {
    let timeline = plwg::obs::Timeline::build(plwg::obs::scenarios::heal().trace());
    let procedure = timeline.heal_procedure();
    let first = |kind: &str| {
        procedure
            .iter()
            .find(|e| e.kind == kind)
            .unwrap_or_else(|| panic!("no {kind} in the heal procedure"))
            .seq
    };
    let steps = [
        "ns.reconcile",
        "ns.multiple_mappings",
        "lwg.switch.complete",
        "lwg.merge",
    ]
    .map(first);
    assert!(steps.is_sorted(), "the four steps out of order: {steps:?}");
    assert_eq!(timeline.merges_of(9).len(), 1, "one MERGE-VIEWS conclusion");
}

/// A control frame of an LWG group that a tapped node sent or received.
#[derive(Debug, Clone, Copy)]
struct Control {
    at: SimTime,
    lwg: LwgId,
    /// A `FlushOk` or a `SwitchReady`: it acknowledges a flush.
    ack: bool,
    sent: bool,
}

/// The group of the LWG control frame `msg` carries, sent directly or as
/// an HWG multicast, and whether it acknowledges a flush. Data, batches
/// and the per-HWG merge traffic are no group's control frames.
fn control(msg: &Payload) -> Option<(LwgId, bool)> {
    use plwg::core::LwgMsg;
    use plwg::sim::{decode_frame, family, peek_family};
    use plwg::vsync::{Slot, VsMsg};
    let data = match decode_frame::<VsMsg>(family::VS, msg) {
        Ok(VsMsg::Data {
            payload: Slot::Full(data),
            ..
        })
        | Ok(VsMsg::FlushFill {
            payload: Slot::Full(data),
            ..
        }) => data,
        _ if peek_family(msg) == Some(family::LWG) => msg.clone(),
        _ => return None,
    };
    match decode_frame(family::LWG, &data).ok()? {
        LwgMsg::FlushOk { lwg, .. } | LwgMsg::SwitchReady { lwg, .. } => Some((lwg, true)),
        LwgMsg::JoinReq { lwg }
        | LwgMsg::LeaveReq { lwg }
        | LwgMsg::Flush { lwg, .. }
        | LwgMsg::Redirect { lwg, .. } => Some((lwg, false)),
        _ => None,
    }
}

/// Records the control frames `inner` sends (see [`control`]): a node's
/// own acknowledgement is delivered to it as it is sent.
struct Tap<'a> {
    inner: &'a mut dyn plwg::sim::Transport,
    seen: &'a mut Vec<Control>,
}

impl plwg::sim::Transport for Tap<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn id(&self) -> NodeId {
        self.inner.id()
    }
    fn send(&mut self, to: NodeId, msg: Payload) {
        if let Some((lwg, ack)) = control(&msg) {
            let at = self.inner.now();
            let sent = true;
            self.seen.push(Control { at, lwg, ack, sent });
        }
        self.inner.send(to, msg);
    }
    fn broadcast(&mut self, msg: Payload) {
        self.inner.broadcast(msg);
    }
    fn set_timer(&mut self, delay: SimDuration, token: plwg::sim::TimerToken) {
        self.inner.set_timer(delay, token);
    }
    fn cancel_timer(&mut self, token: plwg::sim::TimerToken) {
        self.inner.cancel_timer(token);
    }
    fn metrics(&mut self) -> &mut plwg::sim::MetricsRegistry {
        self.inner.metrics()
    }
    fn trace(&mut self) -> &mut plwg::sim::Trace {
        self.inner.trace()
    }
}

/// An `LwgNode` whose sends go through a [`Tap`], and which records the
/// control frames it receives too.
struct Tapped {
    node: LwgNode,
    seen: Vec<Control>,
}

impl Tapped {
    fn new(me: NodeId, servers: Vec<NodeId>) -> Self {
        let node = LwgService::builder(me).servers(servers).build_node();
        Tapped {
            node: node.expect("valid config"),
            seen: Vec::new(),
        }
    }
}

impl Process for Tapped {
    fn on_start(&mut self, ctx: &mut dyn plwg::sim::Transport) {
        let mut tap = Tap {
            inner: ctx,
            seen: &mut self.seen,
        };
        self.node.on_start(&mut tap);
    }
    fn on_message(&mut self, ctx: &mut dyn plwg::sim::Transport, from: NodeId, msg: Payload) {
        if let Some((lwg, ack)) = control(&msg) {
            let (at, sent) = (ctx.now(), false);
            self.seen.push(Control { at, lwg, ack, sent });
        }
        let mut tap = Tap {
            inner: ctx,
            seen: &mut self.seen,
        };
        self.node.on_message(&mut tap, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut dyn plwg::sim::Transport, token: plwg::sim::TimerToken) {
        let mut tap = Tap {
            inner: ctx,
            seen: &mut self.seen,
        };
        self.node.on_timer(&mut tap, token);
    }
    fn on_crash(&mut self, now: SimTime) {
        self.node.on_crash(now);
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Every node's control frames (see [`Tapped`]).
fn controls(w: &mut World, apps: &[NodeId]) -> Vec<(NodeId, Control)> {
    let seen = |&m: &NodeId| w.inspect(m, |t: &Tapped| t.seen.clone());
    let per_node: Vec<Vec<Control>> = apps.iter().map(seen).collect();
    let per_node = apps.iter().zip(per_node);
    per_node
        .flat_map(|(&m, seen)| seen.into_iter().map(move |c| (m, c)))
        .collect()
}

/// Whether `node` sent or received an acknowledgement of a flush of `lwg`
/// at `time`.
fn at_ack(controls: &[(NodeId, Control)], node: NodeId, lwg: LwgId, time: SimTime) -> bool {
    controls
        .iter()
        .any(|(m, c)| *m == node && c.lwg == lwg && c.ack && c.at == time)
}

/// Whether `node` installed an HWG view at `time`.
fn at_hwg_view(trace: &plwg::sim::Trace, node: NodeId, time: SimTime) -> bool {
    trace
        .of_kind("lwg.hwg_view")
        .any(|e| e.node == Some(node) && e.time == time)
}

/// No LWG view is announced: two co-mapped LWGs split 2|2 and heal, each
/// LWG merges once in the heal, and every view a member installs, but a
/// founding one, it installs at an HWG view (a merged or pruned view, at
/// the view whose round computed it) or at a flush acknowledgement it
/// sent or received (a flush's successor, once the last `FlushOk` or
/// `SwitchReady` is in). A policy switch of LWG 12 starts at the split;
/// the round prunes nothing of a switching group, and the watchdog drops
/// the switch for a flush 3 s later.
#[test]
fn every_member_installs_the_merged_view_with_the_hwg_view_that_ends_the_round() {
    let (mut w, servers, apps) = Scenario::traced(37, 4).build_with(Tapped::new);
    let groups = [LwgId(11), LwgId(12)];
    for g in groups {
        for (i, &m) in apps.iter().enumerate() {
            let at = SimTime::ZERO + SimDuration::from_millis(400 * i as u64);
            w.invoke_at(at, m, move |t: &mut Tapped, ctx| {
                t.node.service().join(ctx, g)
            });
        }
    }
    w.run_until(SimTime::from_secs(10));
    let (a0, a1, b0, b1) = (apps[0], apps[1], apps[2], apps[3]);
    w.split_at(
        SimTime::from_secs(10),
        vec![vec![servers[0], a0, a1], vec![servers[1], b0, b1]],
    );
    w.heal_at(SimTime::from_secs(25));
    w.run_until(SimTime::from_secs(45));

    let controls = controls(&mut w, &apps);
    let trace = w.trace();
    let at_hwg_view = |node, time| at_hwg_view(trace, node, time);
    let installs = |g: LwgId, merged| {
        trace
            .of_kind("lwg.view.install")
            .filter(move |e| e.refs.lwg == Some(g.0) && e.refs.view == merged)
    };
    let founds = |node, time| {
        trace
            .of_kind("lwg.found")
            .any(|e| e.node == Some(node) && e.time == time)
    };
    let mut flushed = 0;
    for e in trace.of_kind("lwg.view.install") {
        let (node, t) = (e.node.expect("a node's event"), e.time);
        let g = LwgId(e.refs.lwg.expect("a group's event"));
        let at_ack = at_ack(&controls, node, g, t);
        assert!(
            at_hwg_view(node, t) || at_ack || founds(node, t),
            "{:?} installed at {node} at {t:?}, at no HWG view or acknowledgement",
            e.refs.view
        );
        flushed += usize::from(!at_hwg_view(node, t) && at_ack);
    }
    assert!(
        flushed >= apps.len(),
        "{flushed} installs of a flush's successor"
    );
    for g in groups {
        let healed = SimTime::from_secs(25);
        let merges: Vec<_> = trace
            .of_kind("lwg.merge")
            .filter(|e| e.refs.lwg == Some(g.0))
            .collect();
        let merged: Vec<_> = merges.iter().filter(|e| e.time >= healed).collect();
        assert_eq!(merged.len(), 1, "{g}: one lwg.merge in the heal");
        let merged = merged[0].refs.view;
        assert_eq!(installs(g, merged).count(), apps.len(), "{g}: installs");
        // The bring-up's merges of concurrent founders, and the prunes.
        let pruned: Vec<_> = trace
            .of_kind("lwg.prune")
            .filter(|e| e.refs.lwg == Some(g.0))
            .collect();
        assert!(!pruned.is_empty(), "{g}: a prune in the split");
        for computed in merges.into_iter().chain(pruned) {
            for e in installs(g, computed.refs.view) {
                let node = e.node.expect("a node's event");
                assert!(at_hwg_view(node, e.time), "{g} at {node}: {:?}", e.time);
            }
        }
    }
}

/// No flush costs a hop after its last acknowledgement. In a vsync world
/// without jitter, where a frame is delivered as it arrives, a join, a
/// switch, a leave and a dissolve of one LWG each install their successor
/// at every member as the flush's last `FlushOk` (for the switch, its last
/// `SwitchReady` on the target) is delivered there, and no control frame
/// of the group follows that acknowledgement on either HWG. When the
/// coordinator announced the successor, or the dissolution, one hop after
/// the last `FlushOk`, the members installed it on that frame, and it was
/// the last control frame.
#[test]
fn a_flush_installs_its_successor_at_its_last_acknowledgement() {
    let mut scenario = Scenario::traced(5, 4);
    scenario.world.net.jitter = SimDuration::ZERO;
    let (mut w, _, apps) = scenario.build_with(Tapped::new);
    let (g, to) = (LwgId(1), HwgId(77));
    let (a, b, c, d) = (apps[0], apps[1], apps[2], apps[3]);
    for (i, &m) in [a, b, c].iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_millis(400 * i as u64);
        w.invoke_at(at, m, move |t: &mut Tapped, ctx| {
            t.node.service().join(ctx, g)
        });
    }
    // Between the policy passes, every 10 s.
    let secs = |s| SimTime::from_secs(s) + SimDuration::from_millis(500);
    w.invoke_at(secs(10), d, move |t: &mut Tapped, ctx| {
        t.node.service().join(ctx, g)
    });
    for &m in &apps {
        w.invoke_at(secs(20), m, move |t: &mut Tapped, ctx| {
            let svc = t.node.service();
            if svc.is_lwg_coordinator(g) {
                svc.hwg_stack_mut().create(ctx, to);
                svc.pump(ctx);
                svc.switch(ctx, g, to);
            }
        });
    }
    w.invoke_at(secs(35), c, move |t: &mut Tapped, ctx| {
        t.node.service().leave(ctx, g)
    });
    for &m in &[a, b, d] {
        w.invoke_at(secs(45), m, move |t: &mut Tapped, ctx| {
            t.node.service().leave(ctx, g)
        });
    }
    w.run_until(secs(55));

    let controls = controls(&mut w, &apps);
    let status = |&m: &NodeId| w.inspect(m, |t: &Tapped| t.node.service_ref().lwg_status(g));
    let left: Vec<_> = apps.iter().map(status).collect();
    assert!(
        left.iter().all(Option::is_none),
        "every member left: {left:?}"
    );
    let trace = w.trace();
    let steps = [("join", 10, 20), ("switch", 20, 35), ("leave", 35, 45)];
    let steps = steps.into_iter().chain([("dissolve", 45, 55)]);
    for (step, from, until) in steps {
        let window = secs(from)..secs(until);
        let mut flushed = 0;
        for e in trace.of_kind("lwg.view.install") {
            let (node, t) = (e.node.expect("a node's event"), e.time);
            if !window.contains(&t) {
                continue;
            }
            let at_ack = at_ack(&controls, node, g, t);
            assert!(
                at_ack || at_hwg_view(trace, node, t),
                "{step}: {node} installed {:?} at {t:?} after its last acknowledgement",
                e.refs.view
            );
            flushed += usize::from(at_ack);
        }
        let sent = controls
            .iter()
            .filter(|(_, c)| c.sent && window.contains(&c.at));
        let last = sent
            .max_by_key(|(_, c)| c.at)
            .map(|(m, c)| (*m, c.ack, c.at));
        assert!(
            last.is_some_and(|(_, ack, _)| ack),
            "{step}: the last control frame of {g}, {last:?}, acknowledges no flush"
        );
        if step == "dissolve" {
            let mut dissolved = trace.of_kind("lwg.dissolve");
            let at = dissolved.find(|e| window.contains(&e.time));
            let at = at.map(|e| (e.node.expect("a node's event"), e.time));
            let at_ack = |(node, t)| at_ack(&controls, node, g, t);
            assert!(at.is_some_and(at_ack), "{step}: {at:?}");
        } else {
            assert!(
                flushed >= 3,
                "{step}: {flushed} installs at an acknowledgement"
            );
        }
        if step == "switch" {
            let mut completed = trace.of_kind("lwg.switch.complete");
            assert!(completed.any(|e| window.contains(&e.time) && e.refs.hwg == Some(to.0)));
        }
    }
}
