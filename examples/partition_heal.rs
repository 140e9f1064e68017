//! The paper's headline scenario end-to-end: a light-weight group is split
//! by a network partition, both sides keep operating with *concurrent
//! views*, and when the partition heals the service reconciles the
//! mappings and merges the views back into one (paper §4–§6, Figures 3–4).
//!
//! Run with: `cargo run --example partition_heal`

use plwg::prelude::*;

fn main() {
    let mut world = World::new(WorldConfig {
        trace: true,
        ..WorldConfig::default()
    });
    // One name server per future partition side — the paper's placement
    // rule (§5.2): "a high probability of having at least one server
    // available at each partition".
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
    let nodes: Vec<NodeId> = (2..6)
        .map(|i| {
            world.add_node(Box::new(
                LwgNode::builder(NodeId(i))
                    .servers(vec![s0, s1])
                    .config(LwgConfig::default())
                    .build()
                    .expect("valid LWG config"),
            ))
        })
        .collect();

    let group = LwgId(1);
    for (i, &n) in nodes.iter().enumerate() {
        world.invoke_at(
            SimTime::from_secs(0) + SimDuration::from_millis(500 * i as u64),
            n,
            move |app: &mut LwgNode, ctx| app.service().join(ctx, group),
        );
    }
    world.run_until(SimTime::from_secs(10));
    let pre = world.inspect(nodes[0], |a: &LwgNode| {
        a.current_view(group).cloned().expect("view")
    });
    println!("t=10s  initial view: {pre}");

    // Partition: {s0, n2, n3} | {s1, n4, n5}.
    println!("t=12s  PARTITION");
    world.split_at(
        SimTime::from_secs(12),
        vec![vec![s0, nodes[0], nodes[1]], vec![s1, nodes[2], nodes[3]]],
    );
    world.run_until(SimTime::from_secs(25));
    let va = world.inspect(nodes[0], |a: &LwgNode| {
        a.current_view(group).cloned().expect("side A view")
    });
    let vb = world.inspect(nodes[2], |a: &LwgNode| {
        a.current_view(group).cloned().expect("side B view")
    });
    println!("t=25s  concurrent views:");
    println!("         side A: {va}");
    println!("         side B: {vb}");
    assert_ne!(va.id, vb.id);

    // Both sides stay live: each can still multicast within its view.
    for &(n, v) in &[(nodes[0], 100u64), (nodes[2], 200u64)] {
        world.invoke(n, move |app: &mut LwgNode, ctx| {
            app.service().send(ctx, group, Frame::from_u64(v))
        });
    }
    world.run_until(SimTime::from_secs(27));
    let side_a_got: Vec<u64> = world.inspect(nodes[1], |a: &LwgNode| {
        a.events_ref().data_from(group, nodes[0])
    });
    let side_b_got: Vec<u64> = world.inspect(nodes[3], |a: &LwgNode| {
        a.events_ref().data_from(group, nodes[2])
    });
    println!("t=27s  side A delivered {side_a_got:?}, side B delivered {side_b_got:?}");

    println!("t=30s  HEAL");
    world.heal_at(SimTime::from_secs(30));
    world.run_until(SimTime::from_secs(45));
    let merged = world.inspect(nodes[0], |a: &LwgNode| {
        a.current_view(group).cloned().expect("merged view")
    });
    println!("t=45s  merged view: {merged}");
    println!(
        "         predecessors: {:?}",
        merged
            .predecessors
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    assert_eq!(merged.len(), 4);
    assert!(merged.predecessors.contains(&va.id));
    assert!(merged.predecessors.contains(&vb.id));
    for &n in &nodes {
        let v = world.inspect(n, |a: &LwgNode| a.current_view(group).cloned());
        assert_eq!(v.as_ref(), Some(&merged), "{n} agrees on the merged view");
    }

    // The reconciliation left a single mapping in the naming service.
    world.run_until(SimTime::from_secs(50));
    world.inspect(s0, |s: &NameServer| {
        assert_eq!(s.db().read(group).len(), 1);
        assert!(s.db().inconsistent().is_empty());
    });
    println!("naming service converged to a single mapping — ok");

    // A few protocol events from the trace, for the curious.
    println!("\nselected protocol trace:");
    for kind in ["hwg.merge.complete", "lwg.merge", "lwg.prune"] {
        for ev in world.trace().of_kind(kind).take(3) {
            println!("  {ev}");
        }
    }

    // With PLWG_TRACE_DUMP=<path>, write the full event-kind sequence for
    // golden-snapshot comparison (the simulation is deterministic, so the
    // sequence is too — CI diffs it against tests/golden/).
    if let Ok(path) = std::env::var("PLWG_TRACE_DUMP") {
        let dump: String = world
            .trace()
            .events()
            .iter()
            .map(|e| format!("{}\n", e.kind))
            .collect();
        std::fs::write(&path, &dump).expect("write trace dump");
        println!(
            "\ntrace dump: {} event kinds written to {path}",
            world.trace().events().len()
        );
    }
}
