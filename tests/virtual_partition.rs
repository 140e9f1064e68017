//! Whole-stack *virtual partition* test (paper §4): congestion inflates
//! latencies until timeouts fire — "in asynchronous systems a virtual
//! partition is indistinguishable from a network partition" — and when the
//! congestion clears, the same reconciliation pipeline heals the damage,
//! even though no packet was ever actually cut off.

use plwg::prelude::*;

fn at(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

#[test]
fn congestion_episode_splits_and_heals_lwgs() {
    let mut world = World::new(WorldConfig {
        seed: 61,
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
    let apps: Vec<NodeId> = (0..4)
        .map(|i| {
            world.add_node(Box::new(
                LwgNode::builder(NodeId(2 + i))
                    .servers(vec![s0, s1])
                    .config(LwgConfig::default())
                    .build()
                    .expect("valid LWG config"),
            ))
        })
        .collect();
    let g = LwgId(1);
    for (i, &m) in apps.iter().enumerate() {
        world.invoke_at(
            at(0) + SimDuration::from_millis(400 * i as u64),
            m,
            move |n: &mut LwgNode, ctx| n.service().join(ctx, g),
        );
    }
    world.run_until(at(10));
    let pre = world
        .inspect(apps[0], |n: &LwgNode| n.current_view(g).cloned())
        .expect("view");
    assert_eq!(pre.len(), 4);

    // Congestion: every latency sample ×400 for 15 s. Heartbeats still
    // arrive — eventually — but far past the 500 ms suspicion timeout.
    world.schedule_at(at(12), |w| w.topology_mut().set_congestion(400.0));
    world.schedule_at(at(27), |w| w.topology_mut().set_congestion(1.0));
    world.run_until(at(24));
    // Mid-episode: the group has (virtually) fallen apart at least
    // somewhere — suspicions must have fired.
    assert!(
        world.metrics().counter(plwg::vsync::keys::FD_SUSPICIONS) > 0,
        "the virtual partition must trip the failure detector"
    );
    let views_mid = world.metrics().counter(plwg::vsync::keys::VIEWS_INSTALLED);

    // After the episode clears, everything re-merges.
    world.run_until(at(70));
    let healed = world
        .inspect(apps[0], |n: &LwgNode| n.current_view(g).cloned())
        .expect("view");
    assert_eq!(healed.len(), 4, "virtual partition must heal: {healed}");
    for &m in &apps {
        let v = world.inspect(m, |n: &LwgNode| n.current_view(g).cloned());
        assert_eq!(v.as_ref(), Some(&healed), "{m} agrees on the healed view");
    }
    // HWG-level view changes must have happened (exclusions and/or the
    // re-merges); the LWG view may or may not have survived unchanged —
    // if the membership healed before a prune landed, keeping the same
    // LWG view is the *better* outcome.
    assert!(
        world.metrics().counter(plwg::vsync::keys::VIEWS_INSTALLED) >= views_mid,
        "re-merge work happens after the episode"
    );
    assert!(
        views_mid > 4,
        "the episode must have forced HWG view changes"
    );
    // And traffic flows end-to-end afterwards.
    let sender = apps[0];
    world.invoke(sender, move |n: &mut LwgNode, ctx| {
        for k in 0..5u64 {
            n.service().send(ctx, g, plwg::sim::Frame::from_u64(k));
        }
    });
    world.run_until(at(72));
    for &m in &apps[1..] {
        let got: Vec<u64> = world.inspect(m, |n: &LwgNode| n.events_ref().data_from(g, sender));
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }
}
