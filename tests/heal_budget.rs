//! The heal's control plane costs what changed, not what exists: two
//! split → heal cycles on one world of 32 co-mapped LWGs, each merging
//! every group exactly once, for a bounded number of MULTIPLE-MAPPINGS
//! callbacks; and a bounded number of heap allocations per healed LWG.
//!
//! A name server sends the callback for the LWG a write touched or a
//! gossip merge changed, and re-sends every open inconsistency once per
//! gossip period. Re-sending every inconsistent LWG after every write
//! instead made one heal of L co-mapped groups cost O(L²) callbacks, and a
//! second heal on the same world far more: thousands of callbacks here
//! against a budget of 16 per LWG.
//!
//! Every member advertises every LWG view it holds on each HWG flush
//! (ALL-VIEWS), so a receiver mostly sees views it already has. Keeping
//! the advertisements as bytes and decoding a view only where two differ
//! holds the heal window to a few hundred allocations per LWG.

mod counting_alloc;

use counting_alloc::allocs;
use plwg::prelude::*;

const LWGS: u64 = 32;
const APPS: u32 = 8;
/// Heal-window callbacks allowed per LWG, over both cycles.
const CALLBACKS_PER_LWG: u64 = 16;
/// Heal-window allocations allowed per LWG in the first cycle.
const ALLOCS_PER_LWG: u64 = 400;

/// Two name servers and 8 apps that have joined all 32 LWGs — groups
/// 200 ms apart, members 400 ms apart, one shared HWG — and run until
/// every LWG is whole at every app.
fn brought_up(seed: u64) -> (World, Vec<NodeId>, Vec<NodeId>) {
    let mut w = World::new(WorldConfig {
        seed,
        ..WorldConfig::default()
    });
    let servers: Vec<NodeId> = [(0, 1), (1, 0)]
        .into_iter()
        .map(|(me, peer)| {
            w.add_node(Box::new(NameServer::new(
                NodeId(me),
                vec![NodeId(peer)],
                NamingConfig::default(),
            )))
        })
        .collect();
    let apps: Vec<NodeId> = (0..APPS)
        .map(|i| {
            w.add_node(Box::new(
                LwgNode::builder(NodeId(2 + i))
                    .servers(servers.clone())
                    .build()
                    .expect("valid LWG config"),
            ))
        })
        .collect();
    for g in 1..=LWGS {
        for (i, &m) in apps.iter().enumerate() {
            let at = SimTime::ZERO
                + SimDuration::from_millis(200 * g)
                + SimDuration::from_millis(400 * i as u64);
            w.invoke_at(at, m, move |a: &mut LwgNode, ctx| {
                a.service().join(ctx, LwgId(g))
            });
        }
    }
    run_until_whole(
        &mut w,
        &apps,
        SimDuration::from_secs(1),
        SimDuration::from_secs(300),
    );
    assert_eq!(groups_of_size(&mut w, &apps, apps.len()), LWGS, "bring-up");
    (w, servers, apps)
}

/// How many of the LWGs have a view of `len` members at every app.
fn groups_of_size(world: &mut World, apps: &[NodeId], len: usize) -> u64 {
    (1..=LWGS)
        .filter(|&g| {
            apps.iter().all(|&m| {
                world.inspect(m, |a: &LwgNode| {
                    a.current_view(LwgId(g)).is_some_and(|v| v.len() == len)
                })
            })
        })
        .count() as u64
}

/// Runs in `step`s until every LWG is whole at every app, or `limit` passes.
fn run_until_whole(world: &mut World, apps: &[NodeId], step: SimDuration, limit: SimDuration) {
    let deadline = world.now() + limit;
    while groups_of_size(world, apps, apps.len()) < LWGS && world.now() < deadline {
        world.run_for(step);
    }
}

/// What one heal window (heal → every LWG whole) cost.
struct HealCost {
    merged: u64,
    callbacks: u64,
    allocs: u64,
}

/// Splits the apps 4|4, each side with one name server, lets both sides
/// settle into their own views, heals, and runs until every LWG is whole.
fn split_and_heal(w: &mut World, servers: &[NodeId], apps: &[NodeId], cycle: u32) -> HealCost {
    let (side_a, side_b) = apps.split_at(apps.len() / 2);
    let now = w.now();
    w.split_at(
        now,
        vec![
            [&[servers[0]], side_a].concat(),
            [&[servers[1]], side_b].concat(),
        ],
    );
    w.run_for(SimDuration::from_secs(15));
    for side in [side_a, side_b] {
        assert_eq!(
            groups_of_size(w, side, side.len()),
            LWGS,
            "cycle {cycle}: each side settled into its own views"
        );
    }

    let merged0 = w.metrics().counter(plwg::core::keys::VIEWS_MERGED);
    let callbacks0 = w.metrics().counter(plwg::naming::keys::CALLBACKS);
    let allocs0 = allocs();
    let now = w.now();
    w.heal_at(now);
    run_until_whole(
        w,
        apps,
        SimDuration::from_millis(10),
        SimDuration::from_secs(120),
    );
    let allocs = allocs() - allocs0;
    assert_eq!(
        groups_of_size(w, apps, apps.len()),
        LWGS,
        "cycle {cycle}: every LWG whole again"
    );
    HealCost {
        merged: w.metrics().counter(plwg::core::keys::VIEWS_MERGED) - merged0,
        callbacks: w.metrics().counter(plwg::naming::keys::CALLBACKS) - callbacks0,
        allocs,
    }
}

#[test]
fn two_heals_merge_every_lwg_once_within_a_linear_callback_budget() {
    let (mut w, servers, apps) = brought_up(1);
    let mut heal_callbacks = 0;
    for cycle in 1..=2 {
        let heal = split_and_heal(&mut w, &servers, &apps, cycle);
        assert_eq!(
            heal.merged, LWGS,
            "cycle {cycle}: exactly one MERGE-VIEWS conclusion per LWG"
        );
        heal_callbacks += heal.callbacks;
    }
    assert!(
        heal_callbacks <= CALLBACKS_PER_LWG * LWGS,
        "{heal_callbacks} MULTIPLE-MAPPINGS callbacks over two heals of {LWGS} LWGs \
         (budget {})",
        CALLBACKS_PER_LWG * LWGS
    );
}

/// The first heal's window allocates at most [`ALLOCS_PER_LWG`] per LWG,
/// on seeds 1–4. Measured: 9 095 / 8 279 / 7 248 / 10 386 allocations
/// (227–325 per LWG); decoding every advertised view took 22 361–29 696.
/// The second heal on seed 1's world, not asserted: 11 007 (344 per LWG).
#[test]
fn a_heal_allocates_within_a_per_lwg_budget() {
    for seed in 1..=4 {
        let (mut w, servers, apps) = brought_up(seed);
        let heal = split_and_heal(&mut w, &servers, &apps, 1);
        assert!(
            heal.allocs <= ALLOCS_PER_LWG * LWGS,
            "seed {seed}: {} allocations in the heal window of {LWGS} LWGs (budget {})",
            heal.allocs,
            ALLOCS_PER_LWG * LWGS
        );
    }
}

/// A world whose every LWG is whole should do no heal work. At this seed
/// it does: the bring-up leaves LWG 12's view (n3, 2) mapped although its
/// two members re-joined the live view (n2, 10) instead of merging into
/// it, so nothing supersedes or unsets that mapping. It stays concurrent
/// for good; the gossip tick re-sends its callback every period, and the
/// coordinator answers each with a MERGE-VIEWS and an HWG flush, once per
/// 1 s cooldown — 16 MERGE-VIEWS, 35 HWG flushes and 512 `ns.set`s in
/// 20 quiet seconds.
#[test]
#[ignore = "ROADMAP item 1: dead mappings"]
fn a_whole_world_sends_no_merge_views() {
    let (mut w, _, _) = brought_up(1);
    let before = w.metrics().counter(plwg::core::keys::MERGE_VIEWS_SENT);
    w.run_for(SimDuration::from_secs(20));
    assert_eq!(
        w.metrics().counter(plwg::core::keys::MERGE_VIEWS_SENT) - before,
        0,
        "MERGE-VIEWS sent over 20 quiet seconds"
    );
}
