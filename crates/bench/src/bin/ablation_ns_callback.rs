//! Ablation D: MULTIPLE-MAPPINGS **callbacks vs. polling** (paper §6.1:
//! "One possible way is to require group members to periodically inquire
//! one of the reachable name servers. Unfortunately, this could load the
//! servers with unnecessary requests. Instead, we use the callback
//! approach.").
//!
//! Both variants run the same partition/heal scenario; the binary reports
//! the name-server request load and the reconciliation latency.

use plwg_core::{LwgConfig, LwgId};
use plwg_vsync::VsyncStack;

type LwgNode = plwg_core::LwgNode<VsyncStack>;
use plwg_bench::Table;
use plwg_naming::{NameServer, NamingConfig};
use plwg_sim::{NodeId, SimDuration, SimTime, World, WorldConfig};

fn at(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

struct Outcome {
    reads: u64,
    callbacks: u64,
    reconverged: Option<SimDuration>,
}

fn run(poll: Option<SimDuration>, lwgs: u64) -> Outcome {
    let mut w = World::new(WorldConfig {
        seed: 23,
        ..WorldConfig::default()
    });
    let ns_cfg = NamingConfig {
        push_callbacks: poll.is_none(),
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
    let cfg = LwgConfig {
        ns_poll_interval: poll,
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
    // Found the groups in two partitions → inconsistent mappings on heal.
    w.split_at(
        at(1),
        vec![vec![s0, apps[0], apps[1]], vec![s1, apps[2], apps[3]]],
    );
    for g in 1..=lwgs {
        for (i, &m) in apps.iter().enumerate() {
            w.invoke_at(
                at(2) + SimDuration::from_millis(100 * g + 400 * (i as u64 % 2)),
                m,
                move |a: &mut LwgNode, ctx| a.service().join(ctx, LwgId(g)),
            );
        }
    }
    w.run_until(at(25));
    let reads_before = w.metrics().counter(plwg_naming::keys::READS);
    let callbacks_before = w.metrics().counter(plwg_naming::keys::CALLBACKS);
    w.heal_at(at(25));

    // Wait for every group to span all four members again.
    let mut reconverged = None;
    while w.now() < at(120) {
        w.run_for(SimDuration::from_millis(250));
        let ok = (1..=lwgs).all(|g| {
            apps.iter().all(|&m| {
                w.inspect(m, |a: &LwgNode| {
                    a.current_view(LwgId(g)).is_some_and(|v| v.len() == 4)
                })
            })
        });
        if ok {
            reconverged = Some(w.now().saturating_since(at(25)));
            break;
        }
    }
    // Run on a while to account for steady-state polling load.
    w.run_until(at(120));
    Outcome {
        reads: w.metrics().counter(plwg_naming::keys::READS) - reads_before,
        callbacks: w.metrics().counter(plwg_naming::keys::CALLBACKS) - callbacks_before,
        reconverged,
    }
}

fn main() {
    println!("Callbacks vs. polling for global peer discovery (paper §6.1)");
    println!("(4 nodes, groups founded in two partitions, heal at t=25s;");
    println!(" request counts cover the heal plus 95s of steady state)\n");
    let mut table = Table::new(&["lwgs", "variant", "ns reads", "callbacks", "reconverge"]);
    for &lwgs in &[2u64, 8] {
        for (label, poll) in [
            ("callback", None),
            ("poll 1s", Some(SimDuration::from_secs(1))),
            ("poll 5s", Some(SimDuration::from_secs(5))),
        ] {
            let o = run(poll, lwgs);
            table.row(&[
                lwgs.to_string(),
                label.to_owned(),
                o.reads.to_string(),
                o.callbacks.to_string(),
                o.reconverged
                    .map_or_else(|| "TIMEOUT".into(), |d| format!("{d}")),
            ]);
        }
    }
    println!("{}", table.render());
    println!("Callbacks: server work only while an inconsistency exists.");
    println!("Polling: steady read load forever, and reconciliation waits for");
    println!("the next poll — slower heal at lower cost only if polled rarely.");
}
