//! Tables 3 and 4: the naming database through a partition heal.

use crate::Output;
use plwg_core::{HwgConfig, LwgConfig, LwgId};
use plwg_naming::{MappingDb, NameServer, NamingConfig};
use plwg_obs::scenarios::{join_staggered, Node, Scenario};
use plwg_sim::{NodeId, SimDuration, SimTime, World};
use plwg_vsync::VsyncStack;
use std::fmt::Write as _;

const LWG_A: LwgId = LwgId(1);
const LWG_B: LwgId = LwgId(2);

/// Renders a naming database the way the paper's Tables 3–4 do:
/// one line per LWG listing its current view-to-view mappings.
fn render_db(db: &MappingDb) -> String {
    if db.is_empty() {
        return "  (empty)\n".to_owned();
    }
    let mut out = String::new();
    for lwg in db.lwgs() {
        let cells: Vec<String> = db
            .read(lwg)
            .iter()
            .map(|m| format!("{} -> {} (view {})", m.lwg_view, m.hwg, m.hwg_view))
            .collect();
        let _ = writeln!(out, "  {lwg}: {}", cells.join(",  "));
    }
    out
}

/// Server `s`'s replica, rendered.
fn replica(w: &mut World, s: NodeId) -> String {
    w.inspect(s, |s: &NameServer| render_db(s.db()))
}

/// `tab3_naming_merge`: after a partition heals, the reconciled naming
/// database holds **both** partitions' concurrent mappings for each LWG,
/// side by side.
///
/// Scenario (paper Figure 3): two LWGs spanning both sides of a partition;
/// while split, each side installs its own concurrent view of each LWG
/// (backed by its side's concurrent HWG views) and registers it with its
/// reachable name server. On heal, the servers' anti-entropy merge keeps
/// all of them — conflicts are surfaced, never silently dropped. Asserts
/// that the merge holds a conflict and that it is later reconciled.
pub(crate) fn tab3() -> Output {
    let (mut w, servers, apps) = Scenario::new(0, 8).build::<VsyncStack>();
    let (s0, s1) = (servers[0], servers[1]);

    // LWG_a = {p0,p1,p4,p5}, LWG_b = {p2,p3,p6,p7}: each spans the future
    // partition boundary, and the two groups are disjoint so they ride
    // different HWGs (hwg_1, hwg_2 of the paper's figure).
    let members_a = [apps[0], apps[1], apps[4], apps[5]];
    let members_b = [apps[2], apps[3], apps[6], apps[7]];
    let gap = SimDuration::from_millis(400);
    join_staggered::<VsyncStack>(&mut w, LWG_A, &members_a, SimTime::ZERO, gap);
    join_staggered::<VsyncStack>(&mut w, LWG_B, &members_b, SimTime::from_secs(1), gap);
    w.run_until(SimTime::from_secs(15));
    let mut out = String::from("== before the partition (one mapping per LWG) ==\n");
    out += &replica(&mut w, s0);

    // Partition p = {s0, p0..p3} vs p' = {s1, p4..p7}.
    let mut side_p = vec![s0];
    side_p.extend(&apps[..4]);
    let mut side_q = vec![s1];
    side_q.extend(&apps[4..]);
    w.split_at(SimTime::from_secs(16), vec![side_p, side_q]);
    w.run_until(SimTime::from_secs(35));

    out += "\n== partition p (server 0's replica) ==\n";
    out += &replica(&mut w, s0);
    out += "\n== partition p' (server 1's replica) ==\n";
    out += &replica(&mut w, s1);

    // The Table 3 moment: what reconciliation produces when the two
    // replicas meet. (In the live system this state exists only briefly —
    // the MULTIPLE-MAPPINGS callbacks repair it within a second — so we
    // apply the reconciliation algorithm to the two partition replicas
    // directly, exactly as the healing servers do.)
    let mut merged = w.inspect(s0, |s: &NameServer| s.db().clone());
    let changed = merged.merge(&w.inspect(s1, |s: &NameServer| s.db().clone()));
    out += "\n== merged naming service (paper Table 3) ==\n";
    out += &render_db(&merged);
    let conflicts = merged.inconsistent();
    let _ = writeln!(out, "  entries changed by the merge: {changed:?}");
    let _ = writeln!(out, "  inconsistent groups detected: {conflicts:?}");
    assert!(!conflicts.is_empty(), "Table 3 requires a conflict");

    w.heal_at(SimTime::from_secs(35));

    // And the eventual collapse (Table 4's final stage).
    w.run_until(SimTime::from_secs(80));
    out += "\n== after reconciliation completes (paper Table 4, stage 4) ==\n";
    out += &replica(&mut w, s0);
    w.inspect(s0, |s: &NameServer| {
        assert!(s.db().inconsistent().is_empty(), "must converge");
    });
    out.into()
}

/// `tab4_evolution`: the naming database's **evolution** through a
/// partition heal — merged (conflicting) naming service → merged HWGs →
/// switched LWGs → merged LWGs.
///
/// To reproduce all four stages, the two LWGs are *founded while the
/// network is partitioned*: each side maps them onto its own freshly
/// created HWG, so reconciliation must run the full §6 pipeline, including
/// the step-2 **switch to the HWG with the highest group id**. Beacons and
/// gossip are slowed so each stage is observable; server 0's replica is
/// sampled every 10 ms and every distinct state printed. Asserts that
/// every member ends in one 4-member view per LWG, with one mapping each.
pub(crate) fn tab4() -> Output {
    let naming = NamingConfig {
        gossip_interval: SimDuration::from_millis(1_000),
        ..NamingConfig::default()
    };
    // Spread the heal machinery out in time so each Table-4 stage is
    // visible in the samples.
    let cfg = LwgConfig {
        hwg: HwgConfig {
            beacon_interval: SimDuration::from_millis(2_500),
            ..HwgConfig::default()
        },
        ..LwgConfig::default()
    };
    let scenario = Scenario {
        naming,
        lwg: cfg,
        ..Scenario::new(0, 4)
    };
    let (mut w, servers, apps) = scenario.build::<VsyncStack>();
    let (s0, s1) = (servers[0], servers[1]);

    // Partition FIRST: {s0, p0, p1} | {s1, p2, p3}.
    w.split_at(
        SimTime::from_secs(1),
        vec![vec![s0, apps[0], apps[1]], vec![s1, apps[2], apps[3]]],
    );
    // Each side founds both LWGs independently → concurrent views mapped
    // onto *different* HWGs (paper Figure 3's inconsistent mappings).
    for lwg in [LWG_A, LWG_B] {
        let start = SimTime::from_secs(2) + SimDuration::from_millis(50 * lwg.0);
        for side in apps.chunks(2) {
            join_staggered::<VsyncStack>(&mut w, lwg, side, start, SimDuration::from_millis(400));
        }
    }
    w.run_until(SimTime::from_secs(25));
    let mut out = String::from("== while partitioned ==\nserver 0 (partition p):\n");
    out += &replica(&mut w, s0);
    out += "server 1 (partition p'):\n";
    out += &replica(&mut w, s1);

    w.heal_at(SimTime::from_secs(25));
    out += "\nsampling server 0 after the heal at t=25s:\n";
    let mut last = replica(&mut w, s0);
    let mut stage = 0;
    while w.now() < SimTime::from_secs(70) {
        w.run_for(SimDuration::from_millis(10));
        let snapshot = replica(&mut w, s0);
        if snapshot != last {
            stage += 1;
            let _ = write!(out, "\n-- stage {stage} (t = {}) --\n{snapshot}", w.now());
            last = snapshot;
        }
    }
    let (consistent, len) = w.inspect(s0, |s: &NameServer| {
        (s.db().inconsistent().is_empty(), s.db().len())
    });
    let _ = writeln!(
        out,
        "\nfinal state: {}",
        if consistent && len == 2 {
            "CONVERGED (one mapping per LWG)"
        } else {
            "NOT CONVERGED"
        }
    );
    // Every member agrees on a single 4-member view per group.
    for lwg in [LWG_A, LWG_B] {
        let v0 = w.inspect(apps[0], |a: &Node| a.current_view(lwg).cloned());
        for &m in &apps {
            let v = w.inspect(m, |a: &Node| a.current_view(lwg).cloned());
            assert_eq!(v, v0, "all members agree on {lwg}");
        }
        assert_eq!(v0.expect("view").len(), 4, "{lwg} spans all members");
    }
    assert!(consistent && len == 2);
    out.into()
}
