//! A collaboration workload in the style of CCTL (paper §1/§2): one
//! distributed application managing several session groups — a roster
//! group everyone is in, plus smaller breakout groups that users enter and
//! leave as the session evolves. The dynamic mapping policies follow the
//! churn: breakouts first share the roster's HWG, and the interference
//! rule gives a long-lived small breakout its own snug HWG.
//!
//! Run with: `cargo run --example collaboration`

use plwg::prelude::*;

const ROSTER: LwgId = LwgId(1);
const BREAKOUT: LwgId = LwgId(2);

fn main() {
    let mut world = World::new(WorldConfig::default());
    let ns = world.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![],
        NamingConfig::default(),
    )));
    // Policy evaluation twice a minute (the paper ran it once a minute),
    // so the example's adaptation is visible but the optimistic shared
    // mapping can be observed first.
    let cfg = LwgConfig {
        policy_interval: SimDuration::from_secs(30),
        ..LwgConfig::default()
    };
    let users: Vec<NodeId> = (1..=8)
        .map(|i| {
            world.add_node(Box::new(
                LwgService::builder(NodeId(i))
                    .servers(vec![ns])
                    .config(cfg.clone())
                    .build_node()
                    .expect("valid LWG config"),
            ))
        })
        .collect();

    // Everyone enters the session roster.
    for (i, &u) in users.iter().enumerate() {
        world.invoke_at(
            SimTime::from_secs(0) + SimDuration::from_millis(400 * i as u64),
            u,
            |app: &mut LwgNode, ctx| app.service().join(ctx, ROSTER),
        );
    }
    world.run_until(SimTime::from_secs(10));
    let roster_view = world.inspect(users[0], |a: &LwgNode| {
        a.current_view(ROSTER).cloned().expect("roster view")
    });
    println!("t=10s roster: {roster_view}");

    // Two users open a breakout. The optimistic mapping puts it on the
    // roster's big HWG first.
    for (i, &u) in users[..2].iter().enumerate() {
        world.invoke_at(
            SimTime::from_secs(11) + SimDuration::from_millis(400 * i as u64),
            u,
            |app: &mut LwgNode, ctx| app.service().join(ctx, BREAKOUT),
        );
    }
    world.run_until(SimTime::from_secs(16));
    let h_roster = world.inspect(users[0], |a: &LwgNode| {
        a.service_ref().mapping_of(ROSTER).expect("mapped")
    });
    let h_breakout_before = world.inspect(users[0], |a: &LwgNode| {
        a.service_ref().mapping_of(BREAKOUT).expect("mapped")
    });
    println!(
        "t=16s breakout optimistically shares the roster HWG: {}",
        h_breakout_before == h_roster
    );
    assert_eq!(h_breakout_before, h_roster);

    // The interference rule notices a 2-member group riding an 8-member
    // HWG and switches it to its own HWG (paper Fig. 1) at the next policy
    // round (t=30s).
    world.run_until(SimTime::from_secs(40));
    let h_breakout_after = world.inspect(users[0], |a: &LwgNode| {
        a.service_ref().mapping_of(BREAKOUT).expect("mapped")
    });
    println!(
        "t=40s interference rule separated the breakout: {} ({} -> {})",
        h_breakout_after != h_roster,
        h_breakout_before,
        h_breakout_after
    );
    assert_ne!(h_breakout_after, h_roster);

    // Breakout chatter is now invisible to the other six users' stacks.
    world.invoke(users[0], |app: &mut LwgNode, ctx| {
        for i in 0..3u64 {
            app.service().send(ctx, BREAKOUT, Frame::from_u64(i));
        }
    });
    world.run_until(SimTime::from_secs(41));
    let got: Vec<u64> = world.inspect(users[1], |a: &LwgNode| {
        a.events_ref().data_from(BREAKOUT, users[0])
    });
    assert_eq!(got, vec![0, 1, 2]);
    println!("t=41s breakout chat delivered to its members only");

    // Churn: a third user joins the breakout, one leaves, one crashes.
    world.invoke_at(
        SimTime::from_secs(41),
        users[2],
        |app: &mut LwgNode, ctx| app.service().join(ctx, BREAKOUT),
    );
    world.invoke_at(
        SimTime::from_secs(45),
        users[1],
        |app: &mut LwgNode, ctx| app.service().leave(ctx, BREAKOUT),
    );
    world.crash_at(SimTime::from_secs(48), users[7]);
    world.run_until(SimTime::from_secs(60));

    let breakout_view = world.inspect(users[0], |a: &LwgNode| {
        a.current_view(BREAKOUT).cloned().expect("breakout view")
    });
    println!("t=60s breakout after churn: {breakout_view}");
    assert_eq!(breakout_view.sorted_members(), vec![users[0], users[2]]);

    let roster_view = world.inspect(users[0], |a: &LwgNode| {
        a.current_view(ROSTER).cloned().expect("roster view")
    });
    println!("t=60s roster after the crash: {roster_view}");
    assert_eq!(roster_view.len(), 7, "crashed user excluded");
    assert!(!roster_view.contains(users[7]));
    println!("ok");
}
