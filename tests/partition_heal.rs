//! Whole-stack integration: the Figure 3 → Figure 4 lifecycle across all
//! four layers (simulator, HWG, naming, LWG service), with assertions at
//! each stage of the paper's reconciliation pipeline.

use plwg::prelude::*;

fn at(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

struct Fixture {
    world: World,
    servers: Vec<NodeId>,
    apps: Vec<NodeId>,
}

fn fixture(seed: u64, apps: u32) -> Fixture {
    let mut world = World::new(WorldConfig {
        seed,
        trace: true,
        ..WorldConfig::default()
    });
    let s0 = world.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![NodeId(1)],
        NamingConfig::default(),
    )));
    let s1 = world.add_node(Box::new(NameServer::new(
        NodeId(1),
        vec![NodeId(0)],
        NamingConfig::default(),
    )));
    let servers = vec![s0, s1];
    let apps = (0..apps)
        .map(|i| {
            world.add_node(Box::new(
                LwgNode::builder(NodeId(2 + i))
                    .servers(servers.clone())
                    .config(LwgConfig::default())
                    .build()
                    .expect("valid LWG config"),
            ))
        })
        .collect();
    Fixture {
        world,
        servers,
        apps,
    }
}

fn join_staggered(f: &mut Fixture, lwg: LwgId, members: &[NodeId], start: SimTime) {
    for (i, &m) in members.iter().enumerate() {
        f.world.invoke_at(
            start + SimDuration::from_millis(400 * i as u64),
            m,
            move |a: &mut LwgNode, ctx| a.service().join(ctx, lwg),
        );
    }
}

/// The four heal steps of paper §6, checked one by one on a scenario where
/// the concurrent views end up on *different* HWGs (groups founded while
/// partitioned), so reconciliation must run the full pipeline including
/// the highest-gid switch.
#[test]
fn four_step_heal_with_cross_hwg_reconciliation() {
    let mut f = fixture(31, 4);
    let g = LwgId(9);
    // Found the group in two partitions.
    let (a0, a1, b0, b1) = (f.apps[0], f.apps[1], f.apps[2], f.apps[3]);
    f.world.split_at(
        at(1),
        vec![vec![f.servers[0], a0, a1], vec![f.servers[1], b0, b1]],
    );
    join_staggered(&mut f, g, &[a0, a1], at(2));
    join_staggered(&mut f, g, &[b0, b1], at(2));
    f.world.run_until(at(20));

    // Two concurrent views exist, on different (freshly allocated) HWGs.
    let va = f
        .world
        .inspect(a0, |a: &LwgNode| a.current_view(g).cloned())
        .expect("side A view");
    let vb = f
        .world
        .inspect(b0, |a: &LwgNode| a.current_view(g).cloned())
        .expect("side B view");
    let ha = f
        .world
        .inspect(a0, |a: &LwgNode| a.service_ref().mapping_of(g))
        .expect("side A mapping");
    let hb = f
        .world
        .inspect(b0, |a: &LwgNode| a.service_ref().mapping_of(g))
        .expect("side B mapping");
    assert_ne!(va.id, vb.id);
    assert_ne!(ha, hb, "partitioned founders allocate different HWGs");

    f.world.heal_at(at(20));
    f.world.run_until(at(60));

    // Step 2 outcome: everybody on the *highest* HWG id (paper §6.2).
    let winner = ha.max(hb);
    for &m in &f.apps {
        let h = f
            .world
            .inspect(m, |a: &LwgNode| a.service_ref().mapping_of(g))
            .expect("mapped");
        assert_eq!(h, winner, "{m} must have switched to the highest gid");
    }
    // Step 4 outcome: one merged view spanning all four.
    let merged = f
        .world
        .inspect(a0, |a: &LwgNode| a.current_view(g).cloned())
        .expect("merged view");
    assert_eq!(merged.len(), 4);
    for &m in &f.apps {
        let v = f.world.inspect(m, |a: &LwgNode| a.current_view(g).cloned());
        assert_eq!(v.as_ref(), Some(&merged));
    }
    // The naming service converged (Table 4 final row).
    f.world.run_until(at(70));
    f.world.inspect(f.servers[0], |s: &NameServer| {
        assert_eq!(s.db().read(g).len(), 1);
        assert!(s.db().inconsistent().is_empty());
    });
    // And the reconciliation switch actually ran.
    assert!(
        f.world.metrics().counter(plwg::core::keys::RECONCILIATIONS) >= 1,
        "MULTIPLE-MAPPINGS must have driven a reconciliation"
    );
}

/// Data sent in a concurrent view is never delivered to the other side,
/// before or after the merge — the view-tagging rule of §5.1 end-to-end.
#[test]
fn concurrent_view_data_stays_in_its_view_across_heal() {
    let mut f = fixture(32, 4);
    let g = LwgId(5);
    let members = f.apps.clone();
    join_staggered(&mut f, g, &members, at(0));
    f.world.run_until(at(10));
    let (a0, a1, b0, b1) = (f.apps[0], f.apps[1], f.apps[2], f.apps[3]);
    f.world.split_at(
        at(10),
        vec![vec![f.servers[0], a0, a1], vec![f.servers[1], b0, b1]],
    );
    f.world.run_until(at(20));
    // Each side multicasts within its concurrent view.
    f.world.invoke(a0, move |a: &mut LwgNode, ctx| {
        a.service().send(ctx, g, plwg::sim::Frame::from_u64(111))
    });
    f.world.invoke(b0, move |a: &mut LwgNode, ctx| {
        a.service().send(ctx, g, plwg::sim::Frame::from_u64(222))
    });
    f.world.run_until(at(22));
    f.world.heal_at(at(22));
    f.world.run_until(at(40));
    // Everyone reconverged…
    let v = f
        .world
        .inspect(a0, |a: &LwgNode| a.current_view(g).cloned())
        .expect("view");
    assert_eq!(v.len(), 4);
    // …but the partition-era messages never crossed sides.
    let a1_from_b0: Vec<u64> = f
        .world
        .inspect(a1, |a: &LwgNode| a.events_ref().data_from(g, b0));
    let b1_from_a0: Vec<u64> = f
        .world
        .inspect(b1, |a: &LwgNode| a.events_ref().data_from(g, a0));
    assert!(!a1_from_b0.contains(&222));
    assert!(!b1_from_a0.contains(&111));
    // While same-side members did deliver them.
    let a1_from_a0: Vec<u64> = f
        .world
        .inspect(a1, |a: &LwgNode| a.events_ref().data_from(g, a0));
    let b1_from_b0: Vec<u64> = f
        .world
        .inspect(b1, |a: &LwgNode| a.events_ref().data_from(g, b0));
    assert!(a1_from_a0.contains(&111));
    assert!(b1_from_b0.contains(&222));
}

/// Messages sent right around the heal are either delivered to the whole
/// merged membership's respective views or buffered into the merged view —
/// never half-delivered within one view.
#[test]
fn sends_straddling_the_heal_are_view_consistent() {
    let mut f = fixture(33, 4);
    let g = LwgId(6);
    let members = f.apps.clone();
    join_staggered(&mut f, g, &members, at(0));
    f.world.run_until(at(10));
    let (a0, a1, b0, b1) = (f.apps[0], f.apps[1], f.apps[2], f.apps[3]);
    f.world.split_at(
        at(10),
        vec![vec![f.servers[0], a0, a1], vec![f.servers[1], b0, b1]],
    );
    f.world.run_until(at(18));
    f.world.heal_at(at(20));
    // Stream from a0 across the heal window.
    for k in 0..40u64 {
        f.world.invoke_at(
            at(19) + SimDuration::from_millis(100 * k),
            a0,
            move |a: &mut LwgNode, ctx| a.service().send(ctx, g, plwg::sim::Frame::from_u64(k)),
        );
    }
    f.world.run_until(at(45));
    // a1 shares every view a0 ever has; it must see the exact sequence.
    let got: Vec<u64> = f
        .world
        .inspect(a1, |a: &LwgNode| a.events_ref().data_from(g, a0));
    assert_eq!(got, (0..40).collect::<Vec<u64>>(), "no loss, no dup at a1");
    // b-side members deliver a suffix (messages from the merged view on).
    let got_b: Vec<u64> = f
        .world
        .inspect(b1, |a: &LwgNode| a.events_ref().data_from(g, a0));
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
    let mut f = fixture(34, 4);
    let g = LwgId(2);
    let members = f.apps.clone();
    join_staggered(&mut f, g, &members, at(0));
    f.world.run_until(at(10));
    let (s0, s1) = (f.servers[0], f.servers[1]);
    let (a, b, c, d) = (f.apps[0], f.apps[1], f.apps[2], f.apps[3]);
    f.world
        .split_at(at(10), vec![vec![s0, a, b], vec![s1, c, d]]);
    f.world.heal_at(at(22));
    // A different cut, straight after the first heal settles.
    f.world
        .split_at(at(35), vec![vec![s0, a, d], vec![s1, b, c]]);
    f.world.heal_at(at(47));
    f.world.run_until(at(75));
    let v = f
        .world
        .inspect(a, |n: &LwgNode| n.current_view(g).cloned())
        .expect("view");
    assert_eq!(v.len(), 4, "all four reunited: {v}");
    for &m in &f.apps {
        let vm = f.world.inspect(m, |n: &LwgNode| n.current_view(g).cloned());
        assert_eq!(vm.as_ref(), Some(&v));
    }
}

/// A name-server crash during the heal does not prevent reconciliation as
/// long as one server survives (the availability argument of §5.2).
#[test]
fn heal_completes_despite_name_server_crash() {
    let mut f = fixture(35, 4);
    let g = LwgId(3);
    let members = f.apps.clone();
    join_staggered(&mut f, g, &members, at(0));
    f.world.run_until(at(10));
    let (s0, s1) = (f.servers[0], f.servers[1]);
    let (a, b, c, d) = (f.apps[0], f.apps[1], f.apps[2], f.apps[3]);
    f.world
        .split_at(at(10), vec![vec![s0, a, b], vec![s1, c, d]]);
    f.world.run_until(at(20));
    // Kill server 0 just before the heal; clients must fail over to s1.
    f.world.crash_at(at(21), s0);
    // Re-partition topology accounting: the crashed node stays in its
    // component; heal as usual.
    f.world.heal_at(at(22));
    f.world.run_until(at(60));
    let v = f
        .world
        .inspect(a, |n: &LwgNode| n.current_view(g).cloned())
        .expect("view");
    assert_eq!(v.len(), 4, "heal must complete via the surviving server");
    f.world.inspect(s1, |s: &NameServer| {
        assert_eq!(s.db().read(g).len(), 1);
    });
}

/// A crashed member that *restarts* (same node, stale protocol state) is
/// re-absorbed: the exclusion-detection machinery notices its views are
/// stale, it re-enters through a singleton lineage, and the merge pipeline
/// pulls it back into the group.
#[test]
fn restarted_member_rejoins_after_exclusion() {
    let mut f = fixture(36, 3);
    let g = LwgId(4);
    let members = f.apps.clone();
    join_staggered(&mut f, g, &members, at(0));
    f.world.run_until(at(10));
    let victim = f.apps[2];
    f.world.crash_at(at(10), victim);
    // Survivors exclude it…
    f.world.run_until(at(20));
    let v = f
        .world
        .inspect(f.apps[0], |n: &LwgNode| n.current_view(g).cloned())
        .expect("view");
    assert_eq!(v.len(), 2);
    // …then it comes back with its stale state.
    f.world.restart_at(at(20), victim);
    f.world.run_until(at(60));
    let healed = f
        .world
        .inspect(f.apps[0], |n: &LwgNode| n.current_view(g).cloned())
        .expect("view");
    assert_eq!(
        healed.len(),
        3,
        "restarted member must be re-absorbed: {healed}"
    );
    for &m in &f.apps {
        let vm = f.world.inspect(m, |n: &LwgNode| n.current_view(g).cloned());
        assert_eq!(vm.as_ref(), Some(&healed), "{m} agrees");
    }
}
