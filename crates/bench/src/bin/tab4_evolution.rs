//! Table 4: the naming database's **evolution** through a partition heal —
//! merged (conflicting) naming service → merged HWGs → switched LWGs →
//! merged LWGs.
//!
//! To reproduce all four stages, the two LWGs are *founded while the
//! network is partitioned*: each side maps them onto its own freshly
//! created HWG, so reconciliation must run the full §6 pipeline, including
//! the step-2 **switch to the HWG with the highest group id**. Beacons and
//! gossip are slowed so each stage is observable; the binary samples server
//! 0's replica and prints every distinct state.

use plwg_bench::render_db;
use plwg_core::{HwgConfig, LwgConfig, LwgId};
use plwg_vsync::VsyncStack;

type LwgNode = plwg_core::LwgNode<VsyncStack>;
use plwg_naming::{NameServer, NamingConfig};
use plwg_sim::{NodeId, SimDuration, SimTime, World, WorldConfig};

const LWG_A: LwgId = LwgId(1);
const LWG_B: LwgId = LwgId(2);

fn at(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

fn main() {
    let mut w = World::new(WorldConfig::default());
    let ns_cfg = NamingConfig {
        gossip_interval: SimDuration::from_millis(1_000),
        ..NamingConfig::default()
    };
    let s0 = w.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![NodeId(1)],
        ns_cfg.clone(),
    )));
    let s1 = w.add_node(Box::new(NameServer::new(
        NodeId(1),
        vec![NodeId(0)],
        ns_cfg,
    )));
    let servers = vec![s0, s1];
    // Spread the heal machinery out in time so each Table-4 stage is
    // visible in the samples.
    let cfg = LwgConfig {
        hwg: HwgConfig {
            beacon_interval: SimDuration::from_millis(2_500),
            ..HwgConfig::default()
        },
        ..LwgConfig::default()
    };
    let apps: Vec<NodeId> = (0..4)
        .map(|i| {
            w.add_node(Box::new(
                LwgNode::builder(NodeId(2 + i))
                    .servers(servers.clone())
                    .config(cfg.clone())
                    .build()
                    .expect("valid LWG config"),
            ))
        })
        .collect();

    // Partition FIRST: {s0, p0, p1} | {s1, p2, p3}.
    w.split_at(
        at(1),
        vec![vec![s0, apps[0], apps[1]], vec![s1, apps[2], apps[3]]],
    );
    // Each side founds both LWGs independently → concurrent views mapped
    // onto *different* HWGs (paper Figure 3's inconsistent mappings).
    for lwg in [LWG_A, LWG_B] {
        for (i, &m) in apps.iter().enumerate() {
            w.invoke_at(
                at(2) + SimDuration::from_millis(400 * (i as u64 % 2) + 50 * lwg.0),
                m,
                move |a: &mut LwgNode, ctx| a.service().join(ctx, lwg),
            );
        }
    }
    w.run_until(at(25));
    println!("== while partitioned ==");
    println!("server 0 (partition p):");
    w.inspect(s0, |s: &NameServer| print!("{}", render_db(s.db())));
    println!("server 1 (partition p'):");
    w.inspect(s1, |s: &NameServer| print!("{}", render_db(s.db())));

    w.heal_at(at(25));
    println!("\nsampling server 0 after the heal at t=25s:");
    let mut last = w.inspect(s0, |s: &NameServer| render_db(s.db()));
    let mut stage = 0;
    while w.now() < at(70) {
        w.run_for(SimDuration::from_millis(10));
        let snapshot = w.inspect(s0, |s: &NameServer| render_db(s.db()));
        if snapshot != last {
            stage += 1;
            println!("\n-- stage {stage} (t = {}) --", w.now());
            print!("{snapshot}");
            last = snapshot;
        }
    }
    let (consistent, len) = w.inspect(s0, |s: &NameServer| {
        (s.db().inconsistent().is_empty(), s.db().len())
    });
    println!(
        "\nfinal state: {}",
        if consistent && len == 2 {
            "CONVERGED (one mapping per LWG)"
        } else {
            "NOT CONVERGED"
        }
    );
    // Every member agrees on a single 4-member view per group.
    for lwg in [LWG_A, LWG_B] {
        let v0 = w.inspect(apps[0], |a: &LwgNode| a.current_view(lwg).cloned());
        for &m in &apps {
            let v = w.inspect(m, |a: &LwgNode| a.current_view(lwg).cloned());
            assert_eq!(v, v0, "all members agree on {lwg}");
        }
        assert_eq!(v0.expect("view").len(), 4, "{lwg} spans all members");
    }
    assert!(consistent && len == 2);
}
