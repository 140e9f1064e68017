//! Ablation C: mapping-policy behaviour vs. the `k_m`/`k_c` thresholds of
//! paper Figure 1 (§3.2: "poorly chosen local heuristics lead to
//! instability").
//!
//! A small (2-member) LWG is optimistically mapped onto a big (8-member)
//! HWG. Whether the interference rule rescues it depends on `k_m` (how
//! lopsided the mapping must be) and, once it moves, `k_c` (how snug the
//! target must fit). The binary reports the switch count and the final
//! mapping for a grid of thresholds.

use plwg_core::{LwgConfig, LwgId};
use plwg_vsync::VsyncStack;

type LwgNode = plwg_core::LwgNode<VsyncStack>;
use plwg_bench::Table;
use plwg_naming::{NameServer, NamingConfig};
use plwg_sim::{NodeId, SimDuration, World, WorldConfig};

const BIG: LwgId = LwgId(1);
const SMALL: LwgId = LwgId(2);

fn run(k_m: u32, k_c: u32) -> (u64, bool) {
    let mut w = World::new(WorldConfig {
        seed: 17,
        ..WorldConfig::default()
    });
    let s0 = w.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![NodeId(1)],
        NamingConfig::default(),
    )));
    let s1 = w.add_node(Box::new(NameServer::new(
        NodeId(1),
        vec![NodeId(0)],
        NamingConfig::default(),
    )));
    let servers = vec![s0, s1];
    let cfg = LwgConfig {
        k_m,
        k_c,
        policy_interval: SimDuration::from_secs(5),
        ..LwgConfig::default()
    };
    let apps: Vec<NodeId> = (0..8)
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
    // Big group over all 8 → one 8-member HWG.
    for (i, &m) in apps.iter().enumerate() {
        w.invoke_at(
            w.now() + SimDuration::from_millis(300 * i as u64),
            m,
            |a: &mut LwgNode, ctx| a.service().join(ctx, BIG),
        );
    }
    w.run_for(SimDuration::from_secs(12));
    // Small group of 2 → optimistically mapped onto the big HWG.
    for (i, &m) in apps[..2].iter().enumerate() {
        w.invoke_at(
            w.now() + SimDuration::from_millis(300 * i as u64),
            m,
            |a: &mut LwgNode, ctx| a.service().join(ctx, SMALL),
        );
    }
    // Several policy rounds.
    w.run_for(SimDuration::from_secs(40));
    let switches = w.metrics().counter(plwg_core::keys::SWITCHES);
    let separated = {
        let hb = w.inspect(apps[0], |a: &LwgNode| a.service_ref().mapping_of(BIG));
        let hs = w.inspect(apps[0], |a: &LwgNode| a.service_ref().mapping_of(SMALL));
        hb != hs
    };
    (switches, separated)
}

fn main() {
    println!("Policy thresholds: a 2-member LWG optimistically mapped on an");
    println!("8-member HWG; does the interference rule separate it, and how");
    println!("many switches does the run perform?\n");
    let mut table = Table::new(&["k_m", "k_c", "switches", "separated"]);
    for &k_m in &[1u32, 2, 4, 8] {
        for &k_c in &[1u32, 4] {
            let (switches, separated) = run(k_m, k_c);
            table.row(&[
                k_m.to_string(),
                k_c.to_string(),
                switches.to_string(),
                separated.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    println!("k_m in 2..=4 (the paper's prototype used 4): the 2-of-8 minority");
    println!("moves to its own HWG in one clean switch. k_m = 1 with loose");
    println!("thresholds keeps re-evaluating — the instability §3.2 warns about.");
    println!("k_m = 8 never treats 2-of-8 as a minority: interference persists.");
}
