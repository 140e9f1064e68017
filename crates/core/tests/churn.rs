//! Churn stress: sustained joins, leaves, crashes, restarts and partitions
//! over several groups — the system must keep converging and never violate
//! its structural invariants.

use plwg_core::{LwgId, ServiceStats};
use plwg_vsync::VsyncStack;

/// The production instantiation exercised by these scenarios.
type LwgNode = plwg_core::LwgNode<VsyncStack>;
use plwg_obs::scenarios::{join_staggered, Scenario};
use plwg_sim::{NodeId, SimDuration, SimTime, World};

/// Asserts the cross-node invariants once the system has settled:
/// members of a view agree on it exactly, and every live group has a
/// stable (non-busy) mapping.
fn assert_settled(world: &mut World, apps: &[NodeId], groups: &[LwgId]) {
    for &g in groups {
        // Collect each node's opinion.
        let alive: Vec<NodeId> = apps
            .iter()
            .copied()
            .filter(|&m| world.is_alive(m))
            .collect();
        let opinions: Vec<(NodeId, Option<plwg_core::View>)> = alive
            .into_iter()
            .map(|m| {
                (
                    m,
                    world.inspect(m, |n: &LwgNode| n.current_view(g).cloned()),
                )
            })
            .collect();
        for (m, view) in &opinions {
            let Some(view) = view else { continue };
            // Everyone this view names as a member (and is alive) holds
            // exactly the same view.
            for peer in &view.members {
                if let Some((_, peer_view)) = opinions.iter().find(|(n, _)| n == peer) {
                    assert_eq!(
                        peer_view.as_ref(),
                        Some(view),
                        "{m} and {peer} disagree on {g}"
                    );
                }
            }
            assert!(view.contains(*m), "{m} must be in its own view of {g}");
        }
    }
    // No node is stuck mid-protocol.
    for &m in apps {
        if !world.is_alive(m) {
            continue;
        }
        let (stats, statuses): (ServiceStats, Vec<plwg_core::LwgStatus>) =
            world.inspect(m, |n: &LwgNode| {
                let svc = n.service_ref();
                (svc.stats(), svc.iter_status().collect())
            });
        for s in &statuses {
            assert!(!s.busy, "{m} still busy on {} after settling: {s:?}", s.lwg);
            assert_eq!(s.phase, "member", "{m} stuck in {} on {}", s.phase, s.lwg);
        }
        assert_eq!(stats.pending_ns_requests, 0, "{m} has dangling ns requests");
    }
}

#[test]
fn sustained_churn_converges() {
    let (mut world, servers, apps) = Scenario::new(51, 6).build::<VsyncStack>();
    let groups = [LwgId(1), LwgId(2), LwgId(3)];

    // Initial memberships: g1 = all, g2 = first 4, g3 = last 3.
    let schedule: Vec<(u64, LwgId, usize, bool)> = vec![
        // (time, group, app index, join?)
        (0, groups[0], 0, true),
        (1, groups[0], 1, true),
        (2, groups[0], 2, true),
        (3, groups[0], 3, true),
        (4, groups[0], 4, true),
        (5, groups[0], 5, true),
        (6, groups[1], 0, true),
        (7, groups[1], 1, true),
        (8, groups[1], 2, true),
        (9, groups[1], 3, true),
        (10, groups[2], 3, true),
        (11, groups[2], 4, true),
        (12, groups[2], 5, true),
        // churn
        (20, groups[1], 0, false),
        (21, groups[2], 3, false),
        (22, groups[1], 4, true),
        (23, groups[0], 2, false),
        (24, groups[2], 0, true),
    ];
    for (t, g, idx, join) in schedule {
        let node = apps[idx];
        world.invoke_at(SimTime::from_secs(t), node, move |n: &mut LwgNode, ctx| {
            if join {
                n.service().join(ctx, g);
            } else {
                n.service().leave(ctx, g);
            }
        });
    }
    // A crash + restart and a partition in the middle of it all.
    world.crash_at(SimTime::from_secs(26), apps[5]);
    world.restart_at(SimTime::from_secs(34), apps[5]);
    world.split_at(
        SimTime::from_secs(40),
        vec![
            vec![servers[0], apps[0], apps[1], apps[2]],
            vec![servers[1], apps[3], apps[4], apps[5]],
        ],
    );
    world.heal_at(SimTime::from_secs(52));

    // Long settle, then check all invariants.
    world.run_until(SimTime::from_secs(110));
    assert_settled(&mut world, &apps, &groups);

    // Spot-check final memberships against the schedule.
    let g1 = world
        .inspect(apps[0], |n: &LwgNode| n.current_view(groups[0]).cloned())
        .expect("g1 view");
    // g1: all six joined, app 2 left.
    assert_eq!(g1.len(), 5, "g1 final membership: {g1}");
    assert!(!g1.contains(apps[2]));

    let g2 = world
        .inspect(apps[1], |n: &LwgNode| n.current_view(groups[1]).cloned())
        .expect("g2 view");
    // g2: 0..4 joined, 0 left, 4 joined late.
    assert_eq!(
        g2.sorted_members(),
        vec![apps[1], apps[2], apps[3], apps[4]]
    );

    let g3 = world
        .inspect(apps[4], |n: &LwgNode| n.current_view(groups[2]).cloned())
        .expect("g3 view");
    // g3: 3,4,5 joined; 3 left; 0 joined; 5 crashed and restarted (stays).
    assert_eq!(g3.sorted_members(), vec![apps[0], apps[4], apps[5]]);
}

#[test]
fn repeated_partition_cycles_converge() {
    let (mut world, servers, apps) = Scenario::new(52, 4).build::<VsyncStack>();
    let g = LwgId(1);
    let gap = SimDuration::from_millis(400);
    join_staggered::<VsyncStack>(&mut world, g, &apps, SimTime::ZERO, gap);
    world.run_until(SimTime::from_secs(10));
    // Three split/heal cycles with different cuts.
    let cuts: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![0, 1], vec![2, 3]),
        (vec![0, 2], vec![1, 3]),
        (vec![0, 3], vec![1, 2]),
    ];
    let mut t = 10;
    for (left, right) in cuts {
        let mut a = vec![servers[0]];
        a.extend(left.iter().map(|&i| apps[i]));
        let mut b = vec![servers[1]];
        b.extend(right.iter().map(|&i| apps[i]));
        world.split_at(SimTime::from_secs(t), vec![a, b]);
        world.heal_at(SimTime::from_secs(t + 12));
        t += 30;
    }
    world.run_until(SimTime::from_secs(t + 20));
    assert_settled(&mut world, &apps, &[g]);
    let v = world
        .inspect(apps[0], |n: &LwgNode| n.current_view(g).cloned())
        .expect("view");
    assert_eq!(v.len(), 4, "all members reunited after 3 cycles: {v}");
}
