//! Whole-stack *virtual partition* test (paper §4): congestion inflates
//! latencies until timeouts fire — "in asynchronous systems a virtual
//! partition is indistinguishable from a network partition" — and when the
//! congestion clears, the same reconciliation pipeline heals the damage,
//! even though no packet was ever actually cut off.

use plwg::obs::scenarios::{join_staggered, Scenario};
use plwg::prelude::*;

#[test]
fn congestion_episode_splits_and_heals_lwgs() {
    let (mut world, _, apps) = Scenario::traced(61, 4).build::<VsyncStack>();
    let g = LwgId(1);
    let gap = SimDuration::from_millis(400);
    join_staggered::<VsyncStack>(&mut world, g, &apps, SimTime::ZERO, gap);
    world.run_until(SimTime::from_secs(10));
    let pre = world
        .inspect(apps[0], |n: &LwgNode| n.current_view(g).cloned())
        .expect("view");
    assert_eq!(pre.len(), 4);

    // Congestion: every latency sample ×400 for 15 s. Heartbeats still
    // arrive — eventually — but far past the 500 ms suspicion timeout.
    world.schedule_at(SimTime::from_secs(12), |w| {
        w.topology_mut().set_congestion(400.0)
    });
    world.schedule_at(SimTime::from_secs(27), |w| {
        w.topology_mut().set_congestion(1.0)
    });
    world.run_until(SimTime::from_secs(24));
    // Mid-episode: the group has (virtually) fallen apart at least
    // somewhere — suspicions must have fired.
    assert!(
        world.metrics().counter(plwg::vsync::keys::FD_SUSPICIONS) > 0,
        "the virtual partition must trip the failure detector"
    );
    let views_mid = world.metrics().counter(plwg::vsync::keys::VIEWS_INSTALLED);

    // After the episode clears, everything re-merges.
    world.run_until(SimTime::from_secs(70));
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
    world.run_until(SimTime::from_secs(72));
    for &m in &apps[1..] {
        let got: Vec<u64> = world.inspect(m, |n: &LwgNode| n.events_ref().data_from(g, sender));
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }
}
