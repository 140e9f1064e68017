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

/// Records the view announcements `inner` sends: the time and the number
/// of predecessors of each `NewLwgView` inside an HWG data multicast.
struct Tap<'a> {
    inner: &'a mut dyn plwg::sim::Transport,
    views_sent: &'a mut Vec<(SimTime, usize)>,
}

impl plwg::sim::Transport for Tap<'_> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn id(&self) -> NodeId {
        self.inner.id()
    }
    fn send(&mut self, to: NodeId, msg: Payload) {
        use plwg::core::LwgMsg;
        use plwg::sim::{decode_frame, family};
        use plwg::vsync::{Slot, VsMsg};
        if let Ok(VsMsg::Data {
            payload: Slot::Full(data),
            ..
        }) = decode_frame::<VsMsg>(family::VS, &msg)
        {
            if let Ok(LwgMsg::NewLwgView { view, .. }) = decode_frame(family::LWG, &data) {
                let sent = (self.inner.now(), view.predecessors.len());
                self.views_sent.push(sent);
            }
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

/// An `LwgNode` whose sends go through a [`Tap`].
struct Tapped {
    node: LwgNode,
    views_sent: Vec<(SimTime, usize)>,
}

impl Process for Tapped {
    fn on_start(&mut self, ctx: &mut dyn plwg::sim::Transport) {
        let mut tap = Tap {
            inner: ctx,
            views_sent: &mut self.views_sent,
        };
        self.node.on_start(&mut tap);
    }
    fn on_message(&mut self, ctx: &mut dyn plwg::sim::Transport, from: NodeId, msg: Payload) {
        let mut tap = Tap {
            inner: ctx,
            views_sent: &mut self.views_sent,
        };
        self.node.on_message(&mut tap, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut dyn plwg::sim::Transport, token: plwg::sim::TimerToken) {
        let mut tap = Tap {
            inner: ctx,
            views_sent: &mut self.views_sent,
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

/// A merged or pruned view is computed, not announced: two co-mapped LWGs
/// split 2|2 and heal, no member ever sends a `NewLwgView` naming two
/// predecessors, each LWG merges once in the heal, and every member of a
/// merged or pruned view installs it at the same virtual instant as the
/// HWG view whose round computed it. The only `NewLwgView`s in the split
/// window announce the views of LWG flushes and switches started in it: a
/// policy switch of LWG 12 starts at the split, the round prunes nothing
/// of a switching group, and the watchdog drops the switch for a flush
/// 3 s later. When coordinators announced pruned views, the split window
/// sent one more per group and side.
#[test]
fn every_member_installs_the_merged_view_with_the_hwg_view_that_ends_the_round() {
    let (mut w, servers, apps) = Scenario::traced(37, 4).build_with(|me, servers| Tapped {
        node: LwgNode::builder(me)
            .servers(servers)
            .build()
            .expect("valid config"),
        views_sent: Vec::new(),
    });
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

    let sent: Vec<(SimTime, usize)> = apps
        .iter()
        .flat_map(|&m| w.inspect(m, |t: &Tapped| t.views_sent.clone()))
        .collect();
    let merges = sent.iter().filter(|(_, preds)| *preds >= 2).count();
    assert_eq!(merges, 0, "merge announcements sent");
    let split = SimTime::from_secs(10)..SimTime::from_secs(25);
    let in_split = sent.iter().filter(|(at, _)| split.contains(at)).count();
    let started = ["lwg.flush.start", "lwg.switch.start"].map(|kind| {
        let started = w.trace().of_kind(kind);
        started.filter(|e| split.contains(&e.time)).count()
    });
    assert!(
        in_split <= started.iter().sum(),
        "{in_split} view announcements in the split, for {started:?} flushes and switches"
    );
    let trace = w.trace();
    let at_hwg_view = |node, time| {
        trace
            .of_kind("lwg.hwg_view")
            .any(|e| e.node == Some(node) && e.time == time)
    };
    let installs = |g: LwgId, merged| {
        trace
            .of_kind("lwg.view.install")
            .filter(move |e| e.refs.lwg == Some(g.0) && e.refs.view == merged)
    };
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
