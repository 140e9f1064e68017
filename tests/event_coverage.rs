//! Scenario tests pinning down the rarer protocol events: every
//! `ProtocolEvent` kind must show up in at least one test or golden
//! snapshot (enforced by `workspace_rules.rs`'s event-coverage rule), so each
//! scenario here drives one of the less-travelled paths — dissolution,
//! restarted flushes, policy-driven switches, restart recovery — and
//! asserts the typed trace recorded it.

use plwg::obs::scenarios::{join_staggered, Scenario};
use plwg::prelude::*;

/// Both members of a two-member group leave at the same instant: the
/// successor membership is empty, so the group dissolves rather than
/// installing an empty view.
#[test]
fn simultaneous_leave_of_all_members_dissolves_the_group() {
    let (mut w, _, apps) = Scenario::traced(41, 2).build::<VsyncStack>();
    let g = LwgId(1);
    for &m in &apps {
        w.invoke(m, move |a: &mut LwgNode, ctx| a.service().join(ctx, g));
    }
    w.run_until(SimTime::from_secs(10));
    for &m in &apps {
        w.invoke(m, move |a: &mut LwgNode, ctx| a.service().leave(ctx, g));
    }
    w.run_until(SimTime::from_secs(20));
    assert!(
        w.trace().count("lwg.dissolve") >= 1,
        "emptying the membership must dissolve the LWG"
    );
}

/// A crashed-then-restarted member notices from its peers' beacons that
/// it was dropped from the HWG view and records its own exclusion before
/// rejoining as a fresh lineage.
#[test]
fn restarted_member_detects_its_own_exclusion() {
    let (mut w, _, apps) = Scenario::traced(36, 3).build::<VsyncStack>();
    let g = LwgId(4);
    let gap = SimDuration::from_millis(400);
    join_staggered::<VsyncStack>(&mut w, g, &apps, SimTime::ZERO, gap);
    w.run_until(SimTime::from_secs(10));
    let victim = apps[2];
    w.crash_at(SimTime::from_secs(10), victim);
    w.run_until(SimTime::from_secs(20));
    w.restart_at(SimTime::from_secs(20), victim);
    w.run_until(SimTime::from_secs(60));
    assert!(
        w.trace().count("hwg.excluded") >= 1,
        "the restarted member must detect its own exclusion from peer beacons"
    );
}

/// A member crashes the instant the HWG flush that excludes an earlier
/// crashed member starts: it never reports, so the initiator's watchdog
/// restarts the round (`hwg.flush.restart`), and the round after excludes
/// it too.
#[test]
fn a_crash_during_an_exclusion_flush_restarts_it() {
    let (mut w, _, apps) = Scenario::traced(61, 4).build::<VsyncStack>();
    let g = LwgId(1);
    let gap = SimDuration::from_millis(400);
    join_staggered::<VsyncStack>(&mut w, g, &apps, SimTime::ZERO, gap);
    w.run_until(SimTime::from_secs(12));
    let starts = w.trace().count("hwg.flush.start");
    w.crash(apps[3]);
    while w.trace().count("hwg.flush.start") == starts {
        assert!(w.step(), "the crash must start an exclusion flush");
    }
    // Not the initiator: the most senior member, apps[0], runs the flush.
    w.crash(apps[2]);
    w.run_until(SimTime::from_secs(30));
    assert_eq!(
        w.trace().count("hwg.flush.restart"),
        1,
        "a member silent mid-flush restarts the round once"
    );
    let view = w.inspect(apps[0], |a: &LwgNode| a.current_view(g).cloned());
    let members = view.map(|v| v.members);
    assert_eq!(
        members,
        Some(vec![apps[0], apps[1]]),
        "both crashed members excluded"
    );
}

/// A transient congestion storm (paper §5's virtual partition): suspects
/// recant (`fd.alive`), and after the storm the §6.2 reconciliation rule
/// merges the splinters back with a switch.
#[test]
fn congestion_storm_recants_suspects_and_reconciles_after() {
    let (mut w, _, apps) = Scenario::traced(61, 4).build::<VsyncStack>();
    let g = LwgId(1);
    let gap = SimDuration::from_millis(400);
    join_staggered::<VsyncStack>(&mut w, g, &apps, SimTime::ZERO, gap);
    w.run_until(SimTime::from_secs(12));
    w.schedule_at(SimTime::from_secs(12), |w| {
        w.topology_mut().set_congestion(400.0)
    });
    w.schedule_at(SimTime::from_secs(27), |w| {
        w.topology_mut().set_congestion(1.0)
    });
    w.run_until(SimTime::from_secs(70));
    let trace = w.trace();
    assert!(
        trace.count("fd.alive") >= 1,
        "congested-but-alive peers must be recanted by the failure detector"
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
