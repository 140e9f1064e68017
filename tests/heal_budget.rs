//! The heal's control plane costs what changed, not what exists: two
//! split → heal cycles on one world of 32 co-mapped LWGs, each merging
//! every group exactly once, for a bounded number of MULTIPLE-MAPPINGS
//! callbacks in each split and each heal; a bounded number of bytes per
//! cycle and of heap allocations per healed LWG.
//!
//! A name server sends the callback for the LWG a write touched or a
//! gossip merge changed, and re-sends every open inconsistency once per
//! gossip period. Re-sending every inconsistent LWG after every write
//! instead made one heal of L co-mapped groups cost O(L²) callbacks, and a
//! second heal on the same world far more: thousands of callbacks here,
//! where 16 per LWG were allowed. A co-mapped heal needs none: the HWG
//! merge's round merges every group, and only the merged views are
//! written to naming, one `ns.set` per LWG.
//!
//! Every member advertises every LWG view it holds on each HWG flush
//! (ALL-VIEWS): the view's coordinator in full, every other holder by id.
//! Keeping the advertisements as bytes and decoding a view only where two
//! differ holds the heal window to a few hundred allocations per LWG. No
//! round of a lossless world lacks a full copy it needs, so none defers a
//! group.
//!
//! A world whose every LWG is whole does no heal work at all, at 32 and at
//! 128 LWGs.

mod counting_alloc;

use counting_alloc::allocs;
use plwg::naming::{Digest, MappingDb, NsMsg};
use plwg::obs::scenarios::{agree, join_staggered, run_until, Scenario};
use plwg::prelude::*;
use plwg::sim::{encode_frame, family};

const LWGS: u64 = 32;
const APPS: usize = 8;
/// Heal-window callbacks allowed per LWG, over both cycles. Measured: 0
/// and 0; 18 and 48 while each side's LWG coordinators re-registered their
/// views at the HWG merge view, where the other side's name server
/// answered each with a callback.
const CALLBACKS_PER_LWG: u64 = 1;
/// MULTIPLE-MAPPINGS callbacks allowed per LWG in one split window.
/// Measured on seeds 1–4: 0–3 in cycle 1 and 32–45 in cycle 2. While a
/// coordinator acted on a callback that listed an ancestor of its view
/// (a mapping the partitioned name server could not link to it), cycle 2
/// sent 1 440–2 133, cycle 1 up to 30.
const SPLIT_CALLBACKS_PER_LWG: u64 = 2;
/// Heal-window allocations allowed per LWG in the first cycle.
const ALLOCS_PER_LWG: u64 = 400;
/// Network bytes allowed per LWG for one split → heal cycle: the largest
/// of seeds 1–4 over two cycles, 2 005 B, and 5 % to spare. Measured:
/// 2 005 / 1 978 / 1 892 / 1 999 B in cycle 1 and 1 646 / 1 674 / 1 604 /
/// 1 644 B in cycle 2. While a leaving HWG coordinator lost its `Leaving`
/// and re-flushed its stale view, 2 051 / 2 032 / 1 942 / 2 043 B and
/// 1 662 / 1 681 / 1 616 / 1 662 B; while, besides, an allocated `HwgId`
/// travelled as one 10-byte varint and a request id as one of 5–6 bytes,
/// 3 073 / 3 043 / 2 855 / 3 060 B and 2 106 / 2 138 / 2 034 / 2 107 B,
/// under a budget of 3 200 B set from an earlier count (3 009 / 3 051 /
/// 2 837 / 3 004 B and 2 102 / 2 121 / 2 048 / 2 146 B). While each
/// split's LWG coordinators announced their pruned views, cycle 1 cost
/// 3 581 / 3 571 / 3 079 / 3 607 B; and while a name server's stale
/// mapping of a cycle-1 view drove MERGE-VIEWS through cycle 2's split,
/// cycle 2 cost 12 155–20 694 B. Before that: 3 881 / 3 887 / 3 209 /
/// 3 848 B while each side's LWG coordinators re-registered their views
/// at the HWG merge view, 4 708 / 4 240 / 3 562 / 4 261 B while the merged
/// view's coordinator announced each merged view with a `NewLwgView`, and
/// 5 439 / 4 971 / 4 293 / 4 991 B while every holder of a view also
/// advertised it in full.
const CYCLE_BYTES_PER_LWG: u64 = 2_105;

/// Two name servers and 8 apps that have joined `lwgs` LWGs — groups
/// 200 ms apart, members 400 ms apart, one shared HWG — and run until
/// every LWG is whole at every app after the first policy pass that
/// follows the last join. That pass moves groups onto other HWGs, so a
/// world whole before it has not settled yet: seed 4's 128 LWGs were whole
/// at 30.0 s, the instant of the pass that switched 45 of them.
fn brought_up(seed: u64, lwgs: u64, trace: bool) -> (World, Vec<NodeId>, Vec<NodeId>) {
    let mut scenario = Scenario::new(seed, APPS);
    scenario.world.trace = trace;
    let (mut w, servers, apps) = scenario.build::<VsyncStack>();
    let gap = SimDuration::from_millis(400);
    for g in 1..=lwgs {
        let start = SimTime::ZERO + SimDuration::from_millis(200 * g);
        join_staggered::<VsyncStack>(&mut w, LwgId(g), &apps, start, gap);
    }
    // Every app runs its policies at each multiple of the interval.
    let last_join = SimDuration::from_millis(200 * lwgs) + gap.saturating_mul(APPS as u64 - 1);
    let interval = scenario.lwg.policy_interval.as_micros();
    let pass = SimTime::from_micros((last_join.as_micros() / interval + 1) * interval);
    let up = run_until(
        &mut w,
        SimDuration::from_secs(1),
        SimDuration::from_secs(300),
        |w| w.now() > pass && whole(w, &apps, lwgs),
    );
    assert!(up.is_some(), "seed {seed}: bring-up");
    (w, servers, apps)
}

/// Whether each of LWGs `1..=lwgs` has exactly `members` as its view at
/// every one of them.
fn whole(world: &mut World, members: &[NodeId], lwgs: u64) -> bool {
    (1..=lwgs).all(|g| agree::<VsyncStack>(world, LwgId(g), members))
}

/// Gossip frames and their bytes sent so far.
fn gossip(w: &World) -> (u64, u64) {
    let m = w.metrics();
    (
        m.counter(plwg::naming::keys::GOSSIP_SENT),
        m.counter(plwg::naming::keys::GOSSIP_BYTES),
    )
}

/// Asserts that the gossip sent since `before` (from [`gossip`]) carried
/// no snapshot: no frame is larger than a `Sync` with an empty database.
fn assert_no_snapshot(w: &World, before: (u64, u64), what: &str) {
    let digest_only = NsMsg::Sync {
        root: Digest(0),
        db: MappingDb::new(),
    };
    let sync_bytes = encode_frame(family::NS, &digest_only).len() as u64;
    let (frames, bytes) = gossip(w);
    let (frames, bytes) = (frames - before.0, bytes - before.1);
    assert!(
        bytes <= frames * sync_bytes,
        "{what}: {bytes} B of gossip in {frames} frames (budget {sync_bytes} B a frame)"
    );
}

/// What one heal window (heal → every LWG whole) cost.
struct HealCost {
    merged: u64,
    callbacks: u64,
    sets: u64,
    allocs: u64,
}

/// Splits the apps 4|4, each side with one name server, lets both sides
/// settle into their own views, heals, and runs until every LWG is whole.
///
/// No snapshot goes into the partition: the name servers gossip only
/// their digests over the 15 s split. When every tick shipped the whole
/// database, seed 1's 60 gossip frames came to 138 066 B in cycle 1 and
/// 175 036 B in cycle 2 (2 301 and 2 917 B a frame; each heal grows the
/// lineage), and seeds 2–4's first splits to 131 221–134 466 B.
fn split_and_heal(w: &mut World, servers: &[NodeId], apps: &[NodeId], cycle: u32) -> HealCost {
    let (side_a, side_b) = apps.split_at(apps.len() / 2);
    let before = gossip(w);
    let now = w.now();
    w.split_at(
        now,
        vec![
            [&[servers[0]], side_a].concat(),
            [&[servers[1]], side_b].concat(),
        ],
    );
    let callbacks = w.metrics().counter(plwg::naming::keys::CALLBACKS);
    w.run_for(SimDuration::from_secs(15));
    assert_no_snapshot(w, before, &format!("cycle {cycle}, the split"));
    let callbacks = w.metrics().counter(plwg::naming::keys::CALLBACKS) - callbacks;
    assert!(
        callbacks <= SPLIT_CALLBACKS_PER_LWG * LWGS,
        "cycle {cycle}: {callbacks} MULTIPLE-MAPPINGS callbacks in the split window \
         (budget {})",
        SPLIT_CALLBACKS_PER_LWG * LWGS
    );
    for side in [side_a, side_b] {
        assert!(
            whole(w, side, LWGS),
            "cycle {cycle}: each side settled into its own views"
        );
    }

    let merged0 = w.metrics().counter(plwg::core::keys::VIEWS_MERGED);
    let callbacks0 = w.metrics().counter(plwg::naming::keys::CALLBACKS);
    let sets0 = w.metrics().counter(plwg::naming::keys::SETS);
    let allocs0 = allocs();
    let now = w.now();
    w.heal_at(now);
    let healed = run_until(
        w,
        SimDuration::from_millis(10),
        SimDuration::from_secs(120),
        |w| whole(w, apps, LWGS),
    );
    let allocs = allocs() - allocs0;
    assert!(healed.is_some(), "cycle {cycle}: every LWG whole again");
    HealCost {
        merged: w.metrics().counter(plwg::core::keys::VIEWS_MERGED) - merged0,
        callbacks: w.metrics().counter(plwg::naming::keys::CALLBACKS) - callbacks0,
        sets: w.metrics().counter(plwg::naming::keys::SETS) - sets0,
        allocs,
    }
}

#[test]
fn two_heals_merge_every_lwg_once_within_a_linear_callback_budget() {
    let (mut w, servers, apps) = brought_up(1, LWGS, false);
    let mut heal_callbacks = 0;
    for cycle in 1..=2 {
        let heal = split_and_heal(&mut w, &servers, &apps, cycle);
        assert_eq!(
            heal.merged, LWGS,
            "cycle {cycle}: exactly one MERGE-VIEWS conclusion per LWG"
        );
        // Only the merged views are registered, some after the window
        // ends: 22 and 18 here, 68 and 76 while each side also registered
        // its views at the HWG merge view before the round.
        assert!(
            heal.sets <= LWGS,
            "cycle {cycle}: {} ns.set in the heal window",
            heal.sets
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
/// on seeds 1–4. Measured (debug build): 4 509 / 4 217 / 4 204 / 4 589
/// allocations (131–143 per LWG); 6 009 / 5 956 / 5 264 / 5 952 while each
/// side re-registered its views at the HWG merge view, 9 095 / 8 279 /
/// 7 248 / 10 386 while dead mappings still churned, and 22 361–29 696
/// when every advertised view was decoded. The second heal on seed 1's
/// world, not asserted: 4 580 (143 per LWG; 7 113 with the re-registering).
#[test]
fn a_heal_allocates_within_a_per_lwg_budget() {
    for seed in 1..=4 {
        let (mut w, servers, apps) = brought_up(seed, LWGS, false);
        let heal = split_and_heal(&mut w, &servers, &apps, 1);
        assert!(
            heal.allocs <= ALLOCS_PER_LWG * LWGS,
            "seed {seed}: {} allocations in the heal window of {LWGS} LWGs (budget {})",
            heal.allocs,
            ALLOCS_PER_LWG * LWGS
        );
    }
}

/// A lossless cycle repairs no flush with a `FlushFill`, defers no merge
/// and stays within [`CYCLE_BYTES_PER_LWG`], on both cycles of seeds 1–4.
/// The second cycle's split is the one a stale ancestor mapping used to
/// storm. A member that reaches the flush target short of a
/// reporting sender's message asks that sender for it; the initiator pulls
/// only the messages of senders that did not report, and none is missing
/// in a lossless world. A flush's sends go only to the members it keeps.
///
/// When the initiator pulled every message some digest lacked and the
/// holder multicast it to the whole closing view, each cycle sent 25 fill
/// multicasts (8 in the split, 17 in the heal) of 68 192–68 200 B: 27–31 %
/// of the cycle's 222 060–254 087 B (6 939–7 940 B per LWG). Every one of
/// the 136 fills delivered (32 + 104) reached a member that already held
/// the message.
#[test]
fn a_lossless_split_and_heal_sends_no_flush_fill() {
    let sent = |w: &World| {
        let m = w.metrics();
        (
            m.counter(plwg::hwg::keys::FLUSH_FILLS),
            m.counter(plwg::sim::keys::NET_BYTES_SENT),
            m.counter(plwg::core::keys::MERGE_DEFERRED),
        )
    };
    for seed in 1..=4 {
        let (mut w, servers, apps) = brought_up(seed, LWGS, false);
        for cycle in 1..=2 {
            let before = sent(&w);
            split_and_heal(&mut w, &servers, &apps, cycle);
            let after = sent(&w);
            let at = format!("seed {seed}, cycle {cycle}");
            assert_eq!(after.0 - before.0, 0, "{at}: FlushFill frames");
            assert_eq!(after.2 - before.2, 0, "{at}: deferred merges");
            let per_lwg = (after.1 - before.1) / LWGS;
            assert!(
                per_lwg <= CYCLE_BYTES_PER_LWG,
                "{at}: {per_lwg} B per LWG over the cycle (budget {CYCLE_BYTES_PER_LWG} B)"
            );
        }
    }
}

/// A whole world is quiet: over 20 virtual seconds after the bring-up of
/// seeds 1–8 it sends no MERGE-VIEWS, writes nothing to naming, ships no
/// naming snapshot and restarts no HWG flush, and neither name server
/// holds an inconsistent mapping. Nor did the bring-up fork a view
/// lineage (it never splits), merge a view with its own descendant, or
/// defer a merge.
///
/// While a leaving HWG member that became the coordinator turned back
/// into a member at that install, the 8 members that leave an idle HWG at
/// one policy tick left ghosts behind: each flushed its stale view until
/// the watchdog restarted the flush and then excluded everyone, 12
/// restarts in the quiet 20 s at 32 LWGs and 60–72 at 128.
///
/// A member that took a newer flush of its coordinator's for one that
/// superseded the flush whose view it was still to install stayed in the
/// old view: in seed 5's bring-up at 32 LWGs, n7 held LWG 20's `n2#3`
/// while the others installed `n2#4` and `n2#5`, and the next HWG flush
/// merged `n2#3` with its descendant `n2#5`.
///
/// When every gossip tick shipped the whole database, the 80 quiet frames
/// came to 170 960–180 160 B at 32 LWGs and 685 680–710 080 B at 128
/// (2 137–2 252 and 8 571–8 876 B a frame) over the eight seeds.
///
/// Before merge rounds superseded the LWG flushes in flight, the bring-ups
/// of seeds 1, 4, 5, 7 and 8 forked: a merge round and a join flush both
/// gave one view a successor, the branch no coordinator registered kept a
/// concurrent mapping nobody held, and the world re-merged it once per
/// second for good — 16 / 31 / 29 / 17 / 16 MERGE-VIEWS in 20 s at 32
/// LWGs, and 28–71 on seven of the eight seeds at 128.
fn assert_quiet(lwgs: u64) {
    for seed in 1..=8 {
        let (mut w, servers, _) = brought_up(seed, lwgs, true);
        assert_eq!(plwg::obs::forks_of(w.trace()), vec![], "seed {seed}");
        assert_eq!(
            plwg::obs::ancestor_merges_of(w.trace()),
            vec![],
            "seed {seed}"
        );
        let sent = w.metrics().counter(plwg::core::keys::MERGE_VIEWS_SENT);
        let sets = w.metrics().counter(plwg::naming::keys::SETS);
        let restarts = w.trace().count("hwg.flush.restart");
        let before = gossip(&w);
        w.run_for(SimDuration::from_secs(20));
        assert_eq!(
            w.trace().count("hwg.flush.restart") - restarts,
            0,
            "seed {seed}: HWG flush restarts over 20 quiet seconds"
        );
        assert_no_snapshot(&w, before, &format!("seed {seed}, 20 quiet seconds"));
        let m = w.metrics();
        assert_eq!(
            m.counter(plwg::core::keys::MERGE_VIEWS_SENT) - sent,
            0,
            "seed {seed}: MERGE-VIEWS sent over 20 quiet seconds"
        );
        assert_eq!(
            m.counter(plwg::naming::keys::SETS) - sets,
            0,
            "seed {seed}: ns.set over 20 quiet seconds"
        );
        assert_eq!(
            m.counter(plwg::core::keys::MERGE_DEFERRED),
            0,
            "seed {seed}: deferred merges since the world started"
        );
        for &s in &servers {
            let inconsistent = w.inspect(s, |n: &NameServer| n.db().inconsistent());
            assert_eq!(inconsistent, vec![], "seed {seed}, server {s}");
        }
    }
}

#[test]
fn a_whole_world_sends_no_merge_views() {
    assert_quiet(LWGS);
}

/// The same at 128 LWGs: the scale of the benchmark's heal workload.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: run with --release")]
fn a_whole_world_of_128_lwgs_sends_no_merge_views() {
    assert_quiet(128);
}
