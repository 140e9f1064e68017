//! Whole-stack run over a lossy network: the NACK/flush machinery below
//! must hide the loss from the LWG layer entirely — FIFO per sender, no
//! gaps, across membership changes, and the same messages at every member
//! of a view.

use plwg::obs::scenarios::{agree, delivery_mismatches, join_staggered, run_until, Scenario};
use plwg::prelude::*;

#[test]
fn lwg_streams_survive_message_loss_and_a_crash() {
    let mut scenario = Scenario::new(71, 4);
    scenario.world.net.loss = 0.05;
    let (mut world, _, apps) = scenario.build::<VsyncStack>();
    let g = LwgId(1);
    let gap = SimDuration::from_millis(500);
    join_staggered::<VsyncStack>(&mut world, g, &apps, SimTime::ZERO, gap);
    // Bring-up under loss can need retries; poll for convergence.
    let up = run_until(
        &mut world,
        SimDuration::from_secs(1),
        SimDuration::from_secs(60),
        |w| agree::<VsyncStack>(w, g, &apps),
    );
    assert!(up.is_some(), "bring-up must converge under 5% loss");

    // Stream 100 messages; crash a member mid-stream.
    let sender = apps[0];
    let t0 = world.now();
    for k in 0..100u64 {
        world.invoke_at(
            t0 + SimDuration::from_millis(50 * k),
            sender,
            move |n: &mut LwgNode, ctx| n.service().send(ctx, g, plwg::sim::Frame::from_u64(k)),
        );
    }
    world.crash_at(t0 + SimDuration::from_millis(2_500), apps[3]);
    world.run_until(t0 + SimDuration::from_secs(25));

    // The survivors reconverge to one 3-member view.
    let final_view = world
        .inspect(apps[0], |n: &LwgNode| n.current_view(g).cloned())
        .expect("final view");
    assert_eq!(final_view.len(), 3);
    for &m in &apps[..3] {
        let v = world.inspect(m, |n: &LwgNode| n.current_view(g).cloned());
        assert_eq!(
            v.as_ref(),
            Some(&final_view),
            "{m} agrees on the final view"
        );
    }

    // Virtual synchrony under loss + churn: each survivor's stream is a
    // *clean prefix-free subsequence* — strictly increasing, no gaps inside
    // any view it was part of. The messages sent before the crash (while
    // everyone shared the view) must be complete everywhere.
    for &m in &apps[1..3] {
        let got: Vec<u64> = world.inspect(m, |n: &LwgNode| n.events_ref().data_from(g, sender));
        // Strictly increasing (FIFO, no duplicates)…
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "stream at {m} must be strictly increasing: {got:?}"
        );
        // …and complete for the stable pre-crash window (k = 0..40 sent
        // well before the crash-triggered view change).
        assert!(
            (0..40).all(|k| got.contains(&k)),
            "pre-crash messages must all arrive at {m}: {got:?}"
        );
    }
    // The NACK path genuinely fired (5% of ~1200 transmissions lost).
    assert!(
        world.metrics().counter(plwg::vsync::keys::NACK_RESENDS) > 0,
        "loss must have exercised mid-view recovery"
    );

    // Fresh traffic in the final view reaches every survivor completely.
    let t1 = world.now();
    for k in 0..10u64 {
        world.invoke_at(
            t1 + SimDuration::from_millis(50 * k),
            sender,
            move |n: &mut LwgNode, ctx| {
                n.service()
                    .send(ctx, g, plwg::sim::Frame::from_u64(1_000 + k))
            },
        );
    }
    world.run_until(t1 + SimDuration::from_secs(5));
    for &m in &apps[1..3] {
        let got: Vec<u64> = world.inspect(m, |n: &LwgNode| {
            n.events_ref()
                .data_from(g, sender)
                .into_iter()
                .filter(|v| *v >= 1_000)
                .collect()
        });
        assert_eq!(
            got,
            (1_000..1_010).collect::<Vec<u64>>(),
            "fresh stream at {m}"
        );
    }
}

/// Virtual synchrony under loss and churn, over seeds 1–32: at 5 % loss,
/// 3 of 5 members bring up one LWG, then every member multicasts every
/// 10 ms for 5 s while the other two join (1 s and 2 s in) and one of the
/// three leaves (3 s in). Every two members that installed the same view
/// and the same successor delivered the same messages in that view
/// ([`delivery_mismatches`]).
///
/// A member installs a flush's successor at its own last `FlushOk`, so a
/// faster member's data in the successor can reach it first; that data
/// waits for the install. While it was dropped as foreign-view data
/// instead, 16 of the 29 seeds that bring up delivered different sets
/// (82 mismatches, each a pair of members in one view).
///
/// A seed whose bring-up does not converge within 60 s is printed and
/// skipped, not replaced: under loss the vsync layer thrashes on some
/// seeds (2, 21 and 30 here).
#[test]
fn lwg_views_deliver_alike_under_loss_through_joins_and_a_leave() {
    let g = LwgId(1);
    let mut down = Vec::new();
    for seed in 1..=32 {
        let mut scenario = Scenario::new(seed, 5);
        scenario.world.net.loss = 0.05;
        let (mut world, _, apps) = scenario.build::<VsyncStack>();
        let gap = SimDuration::from_millis(500);
        join_staggered::<VsyncStack>(&mut world, g, &apps[..3], SimTime::ZERO, gap);
        let up = run_until(
            &mut world,
            SimDuration::from_secs(1),
            SimDuration::from_secs(60),
            |w| agree::<VsyncStack>(w, g, &apps[..3]),
        );
        if up.is_none() {
            down.push(seed);
            continue;
        }
        let t0 = world.now();
        let at = |ms: u64| t0 + SimDuration::from_millis(ms);
        for (i, &app) in apps.iter().enumerate() {
            for k in 0..500u64 {
                let v = (i as u64) << 32 | k;
                world.invoke_at(at(10 * k), app, move |n: &mut LwgNode, ctx| {
                    n.service().send(ctx, g, plwg::sim::Frame::from_u64(v))
                });
            }
        }
        let second = SimDuration::from_secs(1);
        join_staggered::<VsyncStack>(&mut world, g, &apps[3..], at(1_000), second);
        world.invoke_at(at(3_000), apps[1], move |n: &mut LwgNode, ctx| {
            n.service().leave(ctx, g)
        });
        world.run_until(at(10_000));
        let mismatches = delivery_mismatches::<VsyncStack>(&mut world, g, &apps);
        assert_eq!(mismatches, vec![], "seed {seed}");
    }
    println!("seeds whose bring-up did not converge within 60 s: {down:?}");
}
