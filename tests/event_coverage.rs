//! Scenario tests pinning down the rarer protocol events: every
//! `ProtocolEvent` kind must show up in at least one test or golden
//! snapshot (enforced by `workspace_rules.rs`'s event-coverage rule), so each
//! scenario here drives one of the less-travelled paths — dissolution,
//! abandoned flushes, policy-driven switches, restart recovery — and
//! asserts the typed trace recorded it.

use plwg::prelude::*;

fn at(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

struct Fixture {
    world: World,
    apps: Vec<NodeId>,
}

fn fixture(seed: u64, apps: u32) -> Fixture {
    fixture_cfg(seed, apps, LwgConfig::default())
}

fn fixture_cfg(seed: u64, apps: u32, cfg: LwgConfig) -> Fixture {
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
                    .config(cfg.clone())
                    .build()
                    .expect("valid LWG config"),
            ))
        })
        .collect();
    Fixture { world, apps }
}

/// Both members of a two-member group leave at the same instant: the
/// successor membership is empty, so the group dissolves rather than
/// installing an empty view.
#[test]
fn simultaneous_leave_of_all_members_dissolves_the_group() {
    let mut f = fixture(41, 2);
    let g = LwgId(1);
    for &m in &f.apps {
        f.world
            .invoke(m, move |a: &mut LwgNode, ctx| a.service().join(ctx, g));
    }
    f.world.run_until(at(10));
    for &m in &f.apps {
        f.world
            .invoke(m, move |a: &mut LwgNode, ctx| a.service().leave(ctx, g));
    }
    f.world.run_until(at(20));
    assert!(
        f.world.trace().count("lwg.dissolve") >= 1,
        "emptying the membership must dissolve the LWG"
    );
}

/// A crashed-then-restarted member notices from its peers' beacons that
/// it was dropped from the HWG view and records its own exclusion before
/// rejoining as a fresh lineage.
#[test]
fn restarted_member_detects_its_own_exclusion() {
    let mut f = fixture(36, 3);
    let g = LwgId(4);
    for (i, &m) in f.apps.clone().iter().enumerate() {
        f.world.invoke_at(
            at(0) + SimDuration::from_millis(400 * i as u64),
            m,
            move |a: &mut LwgNode, ctx| a.service().join(ctx, g),
        );
    }
    f.world.run_until(at(10));
    let victim = f.apps[2];
    f.world.crash_at(at(10), victim);
    f.world.run_until(at(20));
    f.world.restart_at(at(20), victim);
    f.world.run_until(at(60));
    assert!(
        f.world.trace().count("hwg.excluded") >= 1,
        "the restarted member must detect its own exclusion from peer beacons"
    );
}

/// A transient congestion storm (paper §5's virtual partition): suspects
/// recant (`fd.alive`), HWG flushes restart against the churn, and after
/// the storm the §6.2 reconciliation rule merges the splinters back with
/// a switch.
#[test]
fn congestion_storm_recants_suspects_and_reconciles_after() {
    let mut f = fixture(61, 4);
    let g = LwgId(1);
    for (i, &m) in f.apps.clone().iter().enumerate() {
        f.world.invoke_at(
            at(0) + SimDuration::from_millis(400 * i as u64),
            m,
            move |a: &mut LwgNode, ctx| a.service().join(ctx, g),
        );
    }
    f.world.run_until(at(12));
    f.world
        .schedule_at(at(12), |w| w.topology_mut().set_congestion(400.0));
    f.world
        .schedule_at(at(27), |w| w.topology_mut().set_congestion(1.0));
    f.world.run_until(at(70));
    let trace = f.world.trace();
    assert!(
        trace.count("fd.alive") >= 1,
        "congested-but-alive peers must be recanted by the failure detector"
    );
    assert!(
        trace.count("hwg.flush.restart") >= 1,
        "view churn during the storm must restart in-progress HWG flushes"
    );
    assert!(
        trace.count("lwg.reconcile") >= 1,
        "healing must trigger the cross-HWG reconciliation rule"
    );
    assert!(
        trace.count("lwg.switch.start") >= 1 && trace.count("lwg.switch.complete") >= 1,
        "reconciliation must run the switching protocol to completion"
    );
}
