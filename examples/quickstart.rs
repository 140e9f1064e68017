//! Quickstart: three processes share a light-weight group, exchange
//! messages, and observe virtually-synchronous views — all inside the
//! deterministic simulator.
//!
//! Run with: `cargo run --example quickstart`

use plwg::prelude::*;

fn main() {
    // A world with one name server (n0) and three application nodes.
    let mut world = World::new(WorldConfig::default());
    let ns = world.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![],
        NamingConfig::default(),
    )));
    let nodes: Vec<NodeId> = (1..=3)
        .map(|i| {
            world.add_node(Box::new(
                LwgService::builder(NodeId(i))
                    .servers(vec![ns])
                    .config(LwgConfig::default())
                    .build_node()
                    .expect("valid LWG config"),
            ))
        })
        .collect();

    // Everyone joins light-weight group 1 (staggered, like real clients).
    let group = LwgId(1);
    for (i, &n) in nodes.iter().enumerate() {
        world.invoke_at(
            SimTime::from_micros(1_000_000 * i as u64),
            n,
            move |app: &mut LwgNode, ctx| app.service().join(ctx, group),
        );
    }
    world.run_for(SimDuration::from_secs(10));

    // Check the membership every node sees.
    for &n in &nodes {
        let view = world.inspect(n, |app: &LwgNode| {
            app.current_view(group).cloned().expect("view installed")
        });
        println!("{n} sees view {view}");
    }

    // Node 1 multicasts; everyone (including itself) delivers in order.
    let sender = nodes[0];
    world.invoke(sender, move |app: &mut LwgNode, ctx| {
        for i in 0..5u64 {
            app.service().send(ctx, group, Frame::from_u64(i));
        }
    });
    world.run_for(SimDuration::from_secs(1));
    for &n in &nodes {
        let got: Vec<u64> =
            world.inspect(n, |app: &LwgNode| app.events_ref().data_from(group, sender));
        println!("{n} delivered {got:?}");
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    // Under the hood all three share ONE heavy-weight group.
    let hwgs = world.inspect(nodes[0], |app: &LwgNode| app.service_ref().hwgs());
    println!("heavy-weight groups in use: {hwgs:?}");
    println!("ok");
}
