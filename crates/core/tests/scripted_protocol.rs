//! Protocol tests driven through the [`ScriptedHwg`] substrate: the test
//! plays the role of the HWG membership protocol (granting joins, evicting
//! members, healing partitions by injecting views), which makes the LWG
//! protocol paths — admission, the virtual-synchrony cut, Stop during an
//! LWG flush, MERGE-VIEWS healing, merge-during-switch — individually
//! addressable without the full virtual-synchrony stack underneath.
//!
//! The simulated links are configured lossless and jitter-free, as the
//! scripted substrate requires (it has no retransmission or reordering
//! repair of its own).

use plwg_core::{HwgId, LFlushId, LwgConfig, LwgEvent, LwgId, LwgMsg, ScriptedHwg, View, ViewId};
use plwg_hwg::view_key;
use plwg_naming::{NameServer, NamingConfig};
use plwg_obs::{scenarios::Scenario, Timeline};
use plwg_sim::{Frame, NodeId, SimDuration, World};

/// The production-shaped node, instantiated over the scripted substrate.
type Node = plwg_core::LwgNode<ScriptedHwg>;

const L: LwgId = LwgId(9);
const H1: HwgId = HwgId(70);
const H2: HwgId = HwgId(80);

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn naming_cfg() -> NamingConfig {
    NamingConfig {
        // Faster gossip so MULTIPLE-MAPPINGS callbacks arrive within the
        // short horizons these tests run for.
        gossip_interval: ms(100),
        ..NamingConfig::default()
    }
}

fn cfg() -> LwgConfig {
    LwgConfig {
        lwg_join_timeout: ms(100),
        tick_interval: ms(50),
        ..LwgConfig::default()
    }
}

/// A world with one name server (`NodeId(0)`) and `n` scripted app nodes.
fn setup_cfg(apps: usize, lwg: LwgConfig) -> (World, Vec<NodeId>) {
    let mut scenario = Scenario {
        servers: 1,
        naming: naming_cfg(),
        lwg,
        ..Scenario::traced(7, apps)
    };
    scenario.world.net.jitter = SimDuration::ZERO;
    let (w, _, apps) = scenario.build::<ScriptedHwg>();
    (w, apps)
}

fn setup(n: usize) -> (World, Vec<NodeId>) {
    setup_cfg(n, cfg())
}

fn join(w: &mut World, node: NodeId) {
    w.invoke(node, |n: &mut Node, ctx| n.service().join(ctx, L));
}

/// The test's stand-in for the HWG membership protocol: installs a view at
/// one node's substrate and lets the service observe it.
fn grant(w: &mut World, node: NodeId, hwg: HwgId, coord: NodeId, seq: u64, members: &[NodeId]) {
    let view = View::initial(ViewId::new(coord, seq), members.to_vec());
    w.invoke(node, move |n: &mut Node, ctx| {
        n.service().hwg_stack_mut().inject_view(hwg, view);
        n.service().pump(ctx);
    });
}

/// Manufactures an installed LWG view at `node` (the state a node is in
/// after operating inside its own partition) through the join path: joins
/// `L` and delivers, as an HWG multicast on `hwg` of the view's
/// coordinator, a `Flush` whose successor is `view` and which awaits no
/// `FlushOk`.
fn seed_lwg_view(w: &mut World, node: NodeId, hwg: HwgId, view: View) {
    w.invoke(node, move |n: &mut Node, ctx| {
        let src = view.coordinator();
        n.service().join(ctx, L);
        let admit = LwgMsg::Flush {
            lwg: L,
            flush: LFlushId {
                initiator: src,
                nonce: 0,
            },
            view: ViewId::new(src, 0),
            members: vec![],
            next: Some(view),
            to: None,
        };
        n.service()
            .hwg_stack_mut()
            .inject_data(hwg, src, admit.to_frame());
        n.service().pump(ctx);
    });
}

fn send_u64(w: &mut World, node: NodeId, v: u64) {
    w.invoke(node, move |n: &mut Node, ctx| {
        n.service().send(ctx, L, Frame::from_u64(v));
    });
}

fn view_at(w: &mut World, node: NodeId) -> Option<View> {
    w.inspect(node, |n: &Node| n.current_view(L).cloned())
}

fn delivered_from(w: &mut World, node: NodeId, src: NodeId) -> Vec<u64> {
    w.inspect(node, move |n: &Node| n.events_ref().data_from(L, src))
}

fn stop_oks(w: &mut World, node: NodeId, hwg: HwgId) -> u64 {
    w.inspect(node, move |n: &Node| {
        n.service_ref().hwg_stack().stop_oks(hwg)
    })
}

fn wants_to_join(w: &mut World, node: NodeId, hwg: HwgId) -> bool {
    w.inspect(node, move |n: &Node| {
        n.service_ref().hwg_stack().join_requests().contains(&hwg)
    })
}

/// Runs the full organic join flow over the scripted substrate: the first
/// joiner allocates a fresh HWG, retries admission, claims the mapping and
/// founds a singleton view; the second follows the recorded mapping, and
/// the test grants its HWG membership so the coordinator can admit it.
#[test]
fn founds_group_then_admits_joiner() {
    let (mut w, apps) = setup(2);
    let (a, b) = (apps[0], apps[1]);

    join(&mut w, a);
    w.run_for(ms(600));
    let va = view_at(&mut w, a).expect("first joiner founds a view");
    assert_eq!(va.members, vec![a]);
    let ha = w
        .inspect(a, |n: &Node| n.service_ref().mapping_of(L))
        .expect("founded view is mapped");

    join(&mut w, b);
    w.run_for(ms(200));
    assert!(
        wants_to_join(&mut w, b, ha),
        "second joiner follows the recorded mapping into the same HWG"
    );

    // Grant HWG membership; admission then runs the LWG flush.
    grant(&mut w, a, ha, a, 5, &[a, b]);
    grant(&mut w, b, ha, a, 5, &[a, b]);
    w.run_for(ms(300));

    for &n in &[a, b] {
        let v = view_at(&mut w, n).expect("member after admission");
        assert_eq!(v.members, vec![a, b], "at {n}");
        assert_eq!(
            w.inspect(n, |n: &Node| n.service_ref().mapping_of(L)),
            Some(ha)
        );
    }
}

/// Messages sent in a view are delivered exactly to that view's members:
/// a pre-admission multicast never reaches the later joiner, and both
/// members see identical delivered sets for the shared view.
#[test]
fn delivery_respects_the_virtual_synchrony_cut() {
    let (mut w, apps) = setup(2);
    let (a, b) = (apps[0], apps[1]);

    join(&mut w, a);
    w.run_for(ms(600));
    let ha = w
        .inspect(a, |n: &Node| n.service_ref().mapping_of(L))
        .expect("mapped");
    send_u64(&mut w, a, 1); // sent in the singleton view
    w.run_for(ms(100));

    join(&mut w, b);
    w.run_for(ms(200));
    grant(&mut w, a, ha, a, 5, &[a, b]);
    grant(&mut w, b, ha, a, 5, &[a, b]);
    w.run_for(ms(300));
    assert_eq!(view_at(&mut w, b).expect("admitted").len(), 2);

    send_u64(&mut w, a, 2); // sent in the two-member view
    w.run_for(ms(100));

    assert_eq!(delivered_from(&mut w, a, a), vec![1, 2]);
    assert_eq!(
        delivered_from(&mut w, b, a),
        vec![2],
        "the joiner must not see traffic from before its view cut"
    );
}

/// An HWG `Stop` arriving while an LWG flush is in flight is answered
/// immediately (views advertised, `stop_ok` sent) — the HWG flush never
/// waits on LWG-level progress — and the LWG flush still concludes.
#[test]
fn hwg_stop_is_answered_while_lwg_flush_in_flight() {
    let (mut w, apps) = setup(3);
    let (a, b, c) = (apps[0], apps[1], apps[2]);

    // Establish {a, b} on a scripted HWG.
    grant(&mut w, a, H1, a, 1, &[a, b]);
    grant(&mut w, b, H1, a, 1, &[a, b]);
    let v1 = View::initial(ViewId::new(a, 1), vec![a, b]);
    seed_lwg_view(&mut w, a, H1, v1.clone());
    seed_lwg_view(&mut w, b, H1, v1);
    w.run_for(ms(200));

    // c appears in the HWG and asks for admission; deliver its JoinReq and
    // an HWG Stop back-to-back so the Stop is handled while the flush over
    // {a, b} is still waiting for b's FlushOk (in flight on the network).
    join(&mut w, c);
    grant(&mut w, a, H1, a, 2, &[a, b, c]);
    grant(&mut w, b, H1, a, 2, &[a, b, c]);
    grant(&mut w, c, H1, a, 2, &[a, b, c]);
    let (oks_before, oks_after, stopping, busy) = w.invoke(a, move |n: &mut Node, ctx| {
        let before = n.service_ref().hwg_stack().stop_oks(H1);
        n.service()
            .hwg_stack_mut()
            .inject_data(H1, c, LwgMsg::JoinReq { lwg: L }.to_frame());
        n.service().hwg_stack_mut().inject_stop(H1);
        n.service().pump(ctx);
        let after = n.service_ref().hwg_stack().stop_oks(H1);
        let stopping = n.service_ref().hwg_stack().in_flush(H1);
        let busy = n.service_ref().lwg_status(L).is_some_and(|s| s.busy);
        (before, after, stopping, busy)
    });
    assert!(busy, "the LWG flush was still in flight when Stop arrived");
    assert_eq!(oks_after, oks_before + 1, "Stop answered immediately");
    assert!(!stopping, "stop_ok cleared the outstanding Stop");

    // The coordinator advertised its view with the Stop, so it installs
    // no successor until the HWG flush ends with a view.
    w.run_for(ms(400));
    assert_eq!(view_at(&mut w, a).expect("member").len(), 2, "held");

    // The flush is not deadlocked: the HWG view releases it, and it admits c.
    for &n in &[a, b, c] {
        grant(&mut w, n, H1, a, 3, &[a, b, c]);
    }
    w.run_for(ms(400));
    for &n in &[a, b, c] {
        let v = view_at(&mut w, n).expect("member");
        assert_eq!(v.members, vec![a, b, c], "at {n}");
    }
}

/// §6 healing, three ways concurrent: each node operated alone in its
/// partition with a singleton view of `L`. When the HWG heals, the
/// MULTIPLE-MAPPINGS callback triggers MERGE-VIEWS and **one** HWG flush
/// (Fig. 5) merges all three views — predecessors record every branch, and
/// pre-heal traffic stays behind its view cut.
#[test]
fn three_way_heal_merges_with_a_single_hwg_flush() {
    let (mut w, apps) = setup(3);
    let (a, b, c) = (apps[0], apps[1], apps[2]);

    for &n in &[a, b, c] {
        grant(&mut w, n, H1, n, 1, &[n]);
        seed_lwg_view(&mut w, n, H1, View::initial(ViewId::new(n, 1), vec![n]));
    }
    w.run_for(ms(150));
    for &n in &[a, b, c] {
        assert_eq!(view_at(&mut w, n).expect("seeded").members, vec![n]);
    }
    send_u64(&mut w, a, 1); // partition-era traffic, singleton cut
    w.run_for(ms(50));

    // The HWG membership heals: one common view everywhere.
    for &n in &[a, b, c] {
        grant(&mut w, n, H1, a, 10, &[a, b, c]);
    }
    w.run_for(ms(800));

    let merged = view_at(&mut w, a).expect("merged");
    assert_eq!(merged.members, vec![a, b, c]);
    for &n in &[b, c] {
        assert_eq!(view_at(&mut w, n).as_ref(), Some(&merged), "at {n}");
    }
    for &n in &[a, b, c] {
        assert!(
            merged.predecessors.contains(&ViewId::new(n, 1)),
            "merged view must record {n}'s branch"
        );
        assert_eq!(
            stop_oks(&mut w, n, H1),
            1,
            "exactly one HWG flush healed all three views (at {n})"
        );
    }

    // The typed trace agrees: the causal timeline shows exactly one
    // MERGE-VIEWS conclusion for the healed LWG, causally downstream of
    // all three concurrent branches.
    let tl = Timeline::build(w.trace());
    let merges = tl.merges_of(L.0);
    assert_eq!(
        merges.len(),
        1,
        "exactly one lwg.merge event per healed LWG"
    );
    for &n in &[a, b, c] {
        assert!(
            merges[0]
                .refs
                .parents
                .contains(&view_key(ViewId::new(n, 1))),
            "merge refs must link {n}'s concurrent view"
        );
    }
    assert!(
        !merges[0].causes.is_empty(),
        "merge must be causally linked to the branch views"
    );

    // Virtual synchrony across the heal: the pre-heal message stayed in
    // its singleton cut; post-merge traffic reaches everyone.
    assert_eq!(delivered_from(&mut w, a, a), vec![1]);
    assert_eq!(delivered_from(&mut w, b, a), Vec::<u64>::new());
    assert_eq!(delivered_from(&mut w, c, a), Vec::<u64>::new());
    send_u64(&mut w, c, 2);
    w.run_for(ms(100));
    for &n in &[a, b, c] {
        assert_eq!(delivered_from(&mut w, n, c), vec![2], "at {n}");
    }
}

/// The ids of `L`'s current mappings at the name server (`NodeId(0)`).
fn mapped_views(w: &mut World) -> Vec<ViewId> {
    w.inspect(NodeId(0), |s: &NameServer| {
        s.db().read(L).iter().map(|m| m.lwg_view).collect()
    })
}

/// What every interleaving of a merge round with an LWG flush must end in:
/// `holders` share one view, which is the group's only mapping; the view
/// lineage never forked; and exactly one MERGE-VIEWS conclusion merged it.
fn assert_one_lineage(w: &mut World, holders: &[NodeId]) {
    let view = view_at(w, holders[0]).expect("a view");
    for &n in holders {
        assert_eq!(view_at(w, n).as_ref(), Some(&view), "at {n}");
    }
    assert_eq!(mapped_views(w), vec![view.id], "one mapping, the held view");
    assert_eq!(plwg_obs::forks_of(w.trace()), vec![], "a forked lineage");
    assert_eq!(Timeline::build(w.trace()).merges_of(L.0).len(), 1);
}

/// Two concurrent views of `L` on one HWG, `{a, x}` and `{b}`, and a
/// merge round that starts while `a` is admitting the joiner `j`. `x`'s
/// `FlushOk` reaches `a` after `a` answered the HWG flush's `Stop`, so `a`
/// could install the join view its flush names only after the HWG view
/// that concludes the merge round. The round supersedes the join flush:
/// no member installs the join view, everybody installs the merged view,
/// and the join runs again in the follow-up flush. Without that, `a` and
/// `x` installed the join view and dropped the merged one, `b` installed
/// the merged view alone, and the mapping of `b`'s old view was never
/// superseded (first seen with world seed 1, LWG 12 of `heal_budget.rs`).
#[test]
fn a_merge_round_supersedes_the_announcers_join_flush() {
    let (mut w, apps) = setup(4);
    let (a, x, b, j) = (apps[0], apps[1], apps[2], apps[3]);
    for &n in &apps {
        grant(&mut w, n, H1, a, 1, &apps);
    }
    let va = View::initial(ViewId::new(a, 1), vec![a, x]);
    seed_lwg_view(&mut w, a, H1, va.clone());
    seed_lwg_view(&mut w, x, H1, va);
    seed_lwg_view(&mut w, b, H1, View::initial(ViewId::new(b, 1), vec![b]));
    // `j` asks to join, then the HWG coordinator forces the flush barrier.
    w.invoke(a, move |n: &mut Node, ctx| {
        let hwg = n.service().hwg_stack_mut();
        hwg.inject_data(H1, j, LwgMsg::JoinReq { lwg: L }.to_frame());
        hwg.inject_data(H1, b, LwgMsg::MergeViews.to_frame());
        n.service().pump(ctx);
    });
    w.run_for(ms(300));

    assert_one_lineage(&mut w, &[a, x, b]);
    let view = view_at(&mut w, a).expect("merged");
    assert_eq!(view.members, vec![a, x, b, j], "the join ran again");
}

/// The mirror image: `b`, coordinator of `{b, y}`, is admitting `j` when
/// the merge round with `{a}` starts. `b` collects its last `FlushOk` after
/// answering `Stop`, and would install its join view after the HWG view, as
/// a sibling of the merged view. The round supersedes the
/// flush instead, and `b` and `y` both install the merged view (first seen
/// with world seed 5, LWG 17 of `heal_budget.rs`).
#[test]
fn a_merge_round_supersedes_a_merged_away_coordinators_join_flush() {
    let (mut w, apps) = setup(4);
    let (a, b, y, j) = (apps[0], apps[1], apps[2], apps[3]);
    for &n in &apps {
        grant(&mut w, n, H1, a, 1, &apps);
    }
    seed_lwg_view(&mut w, a, H1, View::initial(ViewId::new(a, 1), vec![a]));
    let vb = View::initial(ViewId::new(b, 1), vec![b, y]);
    seed_lwg_view(&mut w, b, H1, vb.clone());
    seed_lwg_view(&mut w, y, H1, vb);
    // `b` starts the join flush first, so `y` acknowledges it before the
    // HWG flush stops it.
    w.invoke(b, move |n: &mut Node, ctx| {
        let hwg = n.service().hwg_stack_mut();
        hwg.inject_data(H1, j, LwgMsg::JoinReq { lwg: L }.to_frame());
        n.service().pump(ctx);
    });
    w.invoke(a, move |n: &mut Node, ctx| {
        let hwg = n.service().hwg_stack_mut();
        hwg.inject_data(H1, b, LwgMsg::MergeViews.to_frame());
        n.service().pump(ctx);
    });
    w.run_for(ms(300));

    assert_one_lineage(&mut w, &[a, b, y]);
}

/// Merge arriving *during* a switch: `{a, b}` reconcile onto the higher
/// HWG where `c` already holds a concurrent view. The switch completes on
/// the target and the MERGE-VIEWS it triggers folds `c`'s view in — the
/// old HWG never pays a flush.
#[test]
fn merge_views_heals_concurrent_view_during_switch() {
    let (mut w, apps) = setup(3);
    let (a, b, c) = (apps[0], apps[1], apps[2]);

    // {a, b} with view V1 on the lower HWG.
    grant(&mut w, a, H1, a, 1, &[a, b]);
    grant(&mut w, b, H1, a, 1, &[a, b]);
    let v1 = View::initial(ViewId::new(a, 1), vec![a, b]);
    seed_lwg_view(&mut w, a, H1, v1.clone());
    seed_lwg_view(&mut w, b, H1, v1.clone());
    // {c} with a concurrent view on the higher HWG.
    grant(&mut w, c, H2, c, 1, &[c]);
    let vc = View::initial(ViewId::new(c, 1), vec![c]);
    seed_lwg_view(&mut w, c, H2, vc.clone());

    // MULTIPLE-MAPPINGS reaches a; §6.2 says: switch to the highest HWG.
    w.run_for(ms(400));
    assert!(
        wants_to_join(&mut w, a, H2) && wants_to_join(&mut w, b, H2),
        "reconciliation makes both old-HWG members join the target"
    );

    // Grant the target HWG view — with c in it, mid-switch.
    for &n in &[a, b, c] {
        grant(&mut w, n, H2, a, 5, &[a, b, c]);
    }
    w.run_for(ms(800));

    let merged = view_at(&mut w, a).expect("merged");
    assert_eq!(merged.members, vec![a, b, c]);
    for &n in &[b, c] {
        assert_eq!(view_at(&mut w, n).as_ref(), Some(&merged), "at {n}");
    }
    assert!(
        merged.predecessors.contains(&vc.id),
        "c's concurrent branch is a predecessor of the merged view"
    );
    for &n in &[a, b, c] {
        assert_eq!(
            w.inspect(n, |n: &Node| n.service_ref().mapping_of(L)),
            Some(H2),
            "everyone ends on the target HWG (at {n})"
        );
    }
    // The switch itself is flush-free at the HWG level: only the target
    // HWG ran the MERGE-VIEWS flush.
    assert_eq!(stop_oks(&mut w, a, H1), 0);
    assert!(stop_oks(&mut w, a, H2) >= 1);
    // b's history: V1 -> switched view -> merged view.
    let sizes: Vec<usize> = w.inspect(b, |n: &Node| {
        n.events_ref().views_of(L).iter().map(|v| v.len()).collect()
    });
    assert_eq!(sizes, vec![2, 2, 3]);
    // A forward pointer stays behind on the switch initiator.
    assert!(w.inspect(a, |n: &Node| n.service_ref().stats().forward_pointers) >= 1);

    send_u64(&mut w, c, 7);
    w.run_for(ms(100));
    for &n in &[a, b, c] {
        assert_eq!(delivered_from(&mut w, n, c), vec![7], "at {n}");
    }
}

/// With packing enabled, a burst of sends rides a single HWG multicast and
/// is unpacked in order at the receiver.
#[test]
fn packed_sends_share_one_hwg_multicast() {
    let (mut w, apps) = setup_cfg(
        2,
        LwgConfig {
            pack_max_msgs: 8,
            pack_delay: ms(2),
            ..cfg()
        },
    );
    let (a, b) = (apps[0], apps[1]);
    grant(&mut w, a, H1, a, 1, &[a, b]);
    grant(&mut w, b, H1, a, 1, &[a, b]);
    let v1 = View::initial(ViewId::new(a, 1), vec![a, b]);
    seed_lwg_view(&mut w, a, H1, v1.clone());
    seed_lwg_view(&mut w, b, H1, v1);
    w.run_for(ms(200));

    let batches_before = w.metrics().counter(plwg_core::keys::BATCH_SENT);
    w.invoke(a, |n: &mut Node, ctx| {
        for v in 1..=3u64 {
            n.service().send(ctx, L, Frame::from_u64(v));
        }
    });
    w.run_for(ms(100));

    assert_eq!(delivered_from(&mut w, a, a), vec![1, 2, 3]);
    assert_eq!(delivered_from(&mut w, b, a), vec![1, 2, 3]);
    assert_eq!(
        w.metrics().counter(plwg_core::keys::BATCH_SENT),
        batches_before + 1,
        "three sends shared one HWG multicast"
    );
}

/// Raises an HWG flush's `Stop` at `node` on `H1`: the service advertises
/// its views, and the next HWG view concludes the round.
fn stop(w: &mut World, node: NodeId) {
    w.invoke(node, |n: &mut Node, ctx| {
        n.service().hwg_stack_mut().inject_stop(H1);
        n.service().pump(ctx);
    });
}

/// Losing HWG membership: the evicted member transparently re-joins via
/// the recorded mapping, while the HWG view's round prunes it from the
/// coordinator's view (no LWG flush needed), which later re-admits it.
#[test]
fn eviction_prunes_view_then_readmits_via_mapping() {
    let (mut w, apps) = setup(2);
    let (a, b) = (apps[0], apps[1]);
    grant(&mut w, a, H1, a, 1, &[a, b]);
    grant(&mut w, b, H1, a, 1, &[a, b]);
    let v1 = View::initial(ViewId::new(a, 1), vec![a, b]);
    seed_lwg_view(&mut w, a, H1, v1.clone());
    seed_lwg_view(&mut w, b, H1, v1);
    w.run_for(ms(200));

    // b falls out of the HWG; a observes the flush and the shrunken view.
    w.invoke(b, |n: &mut Node, ctx| {
        n.service().hwg_stack_mut().inject_left(H1);
        n.service().pump(ctx);
    });
    stop(&mut w, a);
    grant(&mut w, a, H1, a, 2, &[a]);
    w.run_for(ms(300));
    assert_eq!(
        view_at(&mut w, a).expect("pruned").members,
        vec![a],
        "coordinator prunes the unreachable member without an LWG flush"
    );
    assert!(w.metrics().counter(plwg_core::keys::PRUNES) >= 1);
    // b restarted its join and followed the mapping back to the HWG; the
    // typed trace records the restart.
    assert!(wants_to_join(&mut w, b, H1));
    assert!(
        w.trace().count("lwg.rejoin") >= 1,
        "losing the transport must emit lwg.rejoin"
    );

    // Readmission once the HWG membership is granted again.
    grant(&mut w, a, H1, a, 3, &[a, b]);
    grant(&mut w, b, H1, a, 3, &[a, b]);
    w.run_for(ms(400));
    for &n in &[a, b] {
        let v = view_at(&mut w, n).expect("re-admitted");
        assert_eq!(v.members, vec![a, b], "at {n}");
    }
    send_u64(&mut w, b, 4);
    w.run_for(ms(100));
    assert_eq!(delivered_from(&mut w, a, b), vec![4]);
}

/// A member whose LWG flush never concludes (the initiator multicast
/// `Flush` and then vanished without acknowledging it) abandons it after
/// `LWG_FLUSH_TIMEOUT` and unfreezes — the watchdog path of the tick.
#[test]
fn stuck_lwg_flush_is_abandoned_by_the_watchdog() {
    let (mut w, apps) = setup(2);
    let (a, b) = (apps[0], apps[1]);
    grant(&mut w, a, H1, a, 1, &[a, b]);
    grant(&mut w, b, H1, a, 1, &[a, b]);
    let v1 = View::initial(ViewId::new(a, 1), vec![a, b]);
    seed_lwg_view(&mut w, a, H1, v1.clone());
    seed_lwg_view(&mut w, b, H1, v1.clone());
    w.run_for(ms(200));

    // b receives a Flush from its coordinator… whose own FlushOk never
    // comes (as if it crashed right after the multicast).
    let flush = LFlushId {
        initiator: a,
        nonce: 99,
    };
    let next = View::with_predecessors(ViewId::new(a, 2), vec![a, b], vec![v1.id]);
    w.invoke(b, move |n: &mut Node, ctx| {
        n.service().hwg_stack_mut().inject_data(
            H1,
            a,
            LwgMsg::Flush {
                lwg: L,
                flush,
                view: v1.id,
                members: vec![a, b],
                next: Some(next),
                to: None,
            }
            .to_frame(),
        );
        n.service().pump(ctx);
    });
    // Mid-flush, sends are frozen (buffered).
    send_u64(&mut w, b, 7);
    w.run_for(ms(100));
    assert_eq!(delivered_from(&mut w, b, b), Vec::<u64>::new());

    // Past LWG_FLUSH_TIMEOUT (3 s) the watchdog abandons the
    // flush; the buffered send is released in the (unchanged) view.
    w.run_for(SimDuration::from_secs(4));
    assert!(
        w.trace().count("lwg.flush.abandon") >= 1,
        "the watchdog must emit lwg.flush.abandon"
    );
    assert_eq!(
        delivered_from(&mut w, b, b),
        vec![7],
        "abandoning the stuck flush unfreezes buffered sends"
    );
}

/// An HWG view that drops a member while an LWG flush waits for that
/// member's `FlushOk`: the join flush of `{a, b, c}` loses `c` (crashed)
/// one second in, and the sends made meanwhile are frozen behind it. The
/// HWG flush gave `a` and `b` one delivered set, so the HWG view's round
/// prunes `{a, b, c}` to `{a, b}` at both, at that view: the flush is
/// dropped, not abandoned by the watchdog, and the frozen sends go out in
/// the pruned view. The join of `j`, who left the HWG with `c`, is not
/// re-run. Before the round pruned, the coordinator announced the pruned
/// view, and only once the watchdog had dropped its flush and a prune
/// deadline (`LWG_FLUSH_TIMEOUT` after the HWG view) had passed: 3.5 s
/// after the view.
#[test]
fn an_hwg_view_dropping_a_flush_member_prunes_at_the_hwg_view() {
    let (mut w, apps) = setup(4);
    let (a, b, c, j) = (apps[0], apps[1], apps[2], apps[3]);
    for &n in &apps {
        grant(&mut w, n, H1, a, 1, &apps);
    }
    let v1 = View::initial(ViewId::new(a, 1), vec![a, b, c]);
    for &n in &[a, b, c] {
        seed_lwg_view(&mut w, n, H1, v1.clone());
    }
    w.run_for(ms(200));
    w.crash(c);
    // `j` asks to join: `a` flushes `{a, b, c}`, and `b` acknowledges.
    w.invoke(a, move |n: &mut Node, ctx| {
        let hwg = n.service().hwg_stack_mut();
        hwg.inject_data(H1, j, LwgMsg::JoinReq { lwg: L }.to_frame());
        n.service().pump(ctx);
    });
    w.run_for(ms(20));
    send_u64(&mut w, a, 1);
    send_u64(&mut w, b, 2);
    w.run_for(ms(1000));
    let busy = |w: &mut World, n: NodeId| {
        w.inspect(n, |n: &Node| n.service_ref().lwg_status(L))
            .is_some_and(|s| s.busy)
    };
    for &n in &[a, b] {
        assert_eq!(view_at(&mut w, n).as_ref(), Some(&v1), "at {n}");
        assert!(busy(&mut w, n), "still waiting for c at {n}");
        assert_eq!(delivered_from(&mut w, n, a), Vec::<u64>::new(), "at {n}");
    }

    // The HWG flush and its view drop `c` (and `j`).
    for &n in &[a, b] {
        stop(&mut w, n);
    }
    w.run_for(ms(5));
    for &n in &[a, b] {
        grant(&mut w, n, H1, a, 2, &[a, b]);
        let v = view_at(&mut w, n).expect("pruned view");
        assert_eq!(v.members, vec![a, b], "at {n}");
        assert_eq!(v.predecessors, vec![v1.id], "at {n}");
        assert_eq!(v.id.coordinator, a, "the first member creates it");
        assert!(!busy(&mut w, n), "at {n}");
    }
    w.run_for(ms(100));
    assert_eq!(w.trace().count("lwg.prune"), 1);
    assert_eq!(w.trace().count("lwg.flush.abandon"), 0);
    for &n in &[a, b] {
        assert_eq!(delivered_from(&mut w, n, a), vec![1], "at {n}");
        assert_eq!(delivered_from(&mut w, n, b), vec![2], "at {n}");
    }
    w.run_for(SimDuration::from_secs(4));
    assert_eq!(w.trace().count("lwg.flush.abandon"), 0);
    assert_eq!(w.trace().count("lwg.flush.start"), 1, "j's join");
}

/// A newer flush of the same view supersedes a followed switch: `b` and
/// `a` follow `a`'s switch to `H2`, then `a`'s newer flush of the view
/// replaces it at both. Both install that flush's successor on `H1` once
/// its `FlushOk`s are in, and the switch never completes: a member
/// completes only the flush it follows, so none reports ready for the
/// replaced switch.
#[test]
fn a_newer_flush_of_the_view_replaces_a_followed_switch() {
    let (mut w, apps) = setup(2);
    let (a, b) = (apps[0], apps[1]);
    grant(&mut w, a, H1, a, 1, &[a, b]);
    grant(&mut w, b, H1, a, 1, &[a, b]);
    let v1 = View::initial(ViewId::new(a, 1), vec![a, b]);
    seed_lwg_view(&mut w, a, H1, v1.clone());
    seed_lwg_view(&mut w, b, H1, v1.clone());
    w.run_for(ms(200));

    w.invoke(a, |n: &mut Node, ctx| n.service().switch(ctx, L, H2));
    w.run_for(ms(20));
    assert!(wants_to_join(&mut w, b, H2), "b follows the switch");
    let flush = LFlushId {
        initiator: a,
        nonce: 99,
    };
    let next = View::with_predecessors(ViewId::new(a, 9), vec![a, b], vec![v1.id]);
    let msg = LwgMsg::Flush {
        lwg: L,
        flush,
        view: v1.id,
        members: vec![a, b],
        next: Some(next.clone()),
        to: None,
    };
    for &n in &[a, b] {
        let frame = msg.to_frame();
        w.invoke(n, move |n: &mut Node, ctx| {
            n.service().hwg_stack_mut().inject_data(H1, a, frame);
            n.service().pump(ctx);
        });
    }
    w.run_for(ms(100));
    grant(&mut w, a, H2, a, 1, &[a, b]);
    grant(&mut w, b, H2, a, 1, &[a, b]);
    w.run_for(ms(100));
    assert_eq!(w.trace().count("lwg.switch.complete"), 0);
    for &n in &[a, b] {
        assert_eq!(view_at(&mut w, n).as_ref(), Some(&next), "at {n}");
        let mapping = w.inspect(n, |n: &Node| n.service_ref().mapping_of(L));
        assert_eq!(mapping, Some(H1), "at {n}");
    }
}

/// Delivers `msgs` at `node` in order, each as an HWG multicast of its
/// source on `H1`, and runs the world on for 100 ms (a tick records the
/// upcalls).
fn deliver(w: &mut World, node: NodeId, msgs: Vec<(NodeId, LwgMsg)>) {
    w.invoke(node, move |n: &mut Node, ctx| {
        for (src, msg) in msgs {
            let hwg = n.service().hwg_stack_mut();
            hwg.inject_data(H1, src, msg.to_frame());
            n.service().pump(ctx);
        }
    });
    w.run_for(ms(100));
}

/// The waiting rule, by the view a `Flush` flushes, at `b`:
/// - a flush of the view `b` holds, from the initiator of the flush in
///   flight, supersedes it (a watchdog restart): `b` installs its successor
///   and ignores the late acknowledgements of the first;
/// - a flush of the successor of the flush in flight waits for that
///   install: the initiator, which had every `FlushOk`, installed the
///   successor and flushed it again while `c`'s last `FlushOk` was still on
///   its way to `b`. `b` delivers `c`'s last message of the old view,
///   installs the successor, then takes part in the waiting flush. When the
///   newer flush superseded the first instead, `b` stayed in the old view
///   for good (first seen in the seed-5 bring-up of `heal_budget.rs`);
/// - a flush of a view `b` does not hold, `x`'s `{b, x}`, is acknowledged,
///   so that `x` does not wait for `b`, but not followed.
#[test]
fn a_flush_waits_for_the_install_of_the_view_it_flushes() {
    let (mut w, apps) = setup(4);
    let (a, b, c, x) = (apps[0], apps[1], apps[2], apps[3]);
    for &n in &apps {
        grant(&mut w, n, H1, a, 1, &apps);
    }
    let abc = vec![a, b, c];
    let v1 = View::initial(ViewId::new(a, 1), abc.clone());
    for &n in &abc {
        seed_lwg_view(&mut w, n, H1, v1.clone());
    }
    // `b` coordinates `x`'s view, so only `a` registers a mapping of `L`.
    let vx = View::initial(ViewId::new(x, 1), vec![b, x]);
    seed_lwg_view(&mut w, x, H1, vx.clone());
    w.run_for(ms(200));
    let f = |nonce| LFlushId {
        initiator: a,
        nonce,
    };
    let successor =
        |seq, of: &View| View::with_predecessors(ViewId::new(a, seq), abc.clone(), vec![of.id]);
    let flush = |nonce, of: &View, next: &View| LwgMsg::Flush {
        lwg: L,
        flush: f(nonce),
        view: of.id,
        members: abc.clone(),
        next: Some(next.clone()),
        to: None,
    };
    let ok = |nonce| LwgMsg::FlushOk {
        lwg: L,
        flush: f(nonce),
    };

    // A restart supersedes.
    let (v2, v2r) = (successor(2, &v1), successor(3, &v1));
    deliver(
        &mut w,
        b,
        vec![
            (a, flush(1, &v1, &v2)),
            (a, ok(1)),
            (a, flush(2, &v1, &v2r)),
        ],
    );
    deliver(&mut w, b, vec![(c, ok(1)), (a, ok(2)), (c, ok(2))]);
    assert_eq!(
        view_at(&mut w, b).as_ref(),
        Some(&v2r),
        "the restart's view"
    );

    // A flush of the successor waits.
    let v3 = successor(4, &v2r);
    let v4 = successor(5, &v3);
    deliver(
        &mut w,
        b,
        vec![
            (a, flush(3, &v2r, &v3)),
            (a, ok(3)),
            (a, flush(4, &v3, &v4)),
        ],
    );
    assert_eq!(
        view_at(&mut w, b).as_ref(),
        Some(&v2r),
        "c's FlushOk is missing"
    );
    let data = LwgMsg::Data {
        lwg: L,
        lwg_view: v2r.id,
        data: Frame::from_u64(5),
    };
    deliver(&mut w, b, vec![(c, data), (c, ok(3))]);
    assert_eq!(view_at(&mut w, b).as_ref(), Some(&v3), "f3's view");
    assert_eq!(delivered_from(&mut w, b, c), vec![5], "in the old view");
    deliver(&mut w, b, vec![(a, ok(4)), (c, ok(4))]);
    assert_eq!(view_at(&mut w, b).as_ref(), Some(&v4), "b took part in f4");

    // A flush of a view `b` does not hold is acknowledged, not followed.
    let vx2 = View::with_predecessors(ViewId::new(x, 2), vec![b, x], vec![vx.id]);
    let fx = LwgMsg::Flush {
        lwg: L,
        flush: LFlushId {
            initiator: x,
            nonce: 1,
        },
        view: vx.id,
        members: vec![x, b],
        next: Some(vx2.clone()),
        to: None,
    };
    deliver(&mut w, b, vec![(x, fx.clone())]);
    deliver(&mut w, x, vec![(x, fx)]);
    assert_eq!(view_at(&mut w, x).as_ref(), Some(&vx2), "b's FlushOk came");
    assert_eq!(view_at(&mut w, b).as_ref(), Some(&v4), "b did not follow");
    let busy = w.inspect(b, |n: &Node| n.service_ref().lwg_status(L).map(|s| s.busy));
    assert_eq!(busy, Some(false));
    assert_eq!(plwg_obs::forks_of(w.trace()), vec![]);
}

/// `{a, b, c}` holding `v1` on `H1`, and the messages of `a`'s flush of it
/// into `next`, `{a, b, c}` minus `out`: the `Flush`, a `FlushOk`, and data
/// tagged with a view.
struct Succession {
    a: NodeId,
    b: NodeId,
    c: NodeId,
    v1: View,
    next: View,
}

impl Succession {
    fn new(w: &mut World, apps: &[NodeId], out: Option<NodeId>) -> Self {
        let (a, b, c) = (apps[0], apps[1], apps[2]);
        for &n in apps {
            grant(w, n, H1, a, 1, apps);
        }
        let v1 = View::initial(ViewId::new(a, 1), vec![a, b, c]);
        for &n in &[a, b, c] {
            seed_lwg_view(w, n, H1, v1.clone());
        }
        w.run_for(ms(200));
        let members = [a, b, c].into_iter().filter(|&m| Some(m) != out).collect();
        let next = View::with_predecessors(ViewId::new(a, 2), members, vec![v1.id]);
        Succession { a, b, c, v1, next }
    }

    fn flush(&self) -> LwgMsg {
        LwgMsg::Flush {
            lwg: L,
            flush: LFlushId {
                initiator: self.a,
                nonce: 1,
            },
            view: self.v1.id,
            members: vec![self.a, self.b, self.c],
            next: Some(self.next.clone()),
            to: None,
        }
    }

    fn ok(&self) -> LwgMsg {
        LwgMsg::FlushOk {
            lwg: L,
            flush: LFlushId {
                initiator: self.a,
                nonce: 1,
            },
        }
    }

    fn data(&self, view: &View, v: u64) -> LwgMsg {
        LwgMsg::Data {
            lwg: L,
            lwg_view: view.id,
            data: Frame::from_u64(v),
        }
    }
}

/// The counter `key`, over the whole world.
fn counter(w: &World, key: plwg_sim::CounterKey) -> u64 {
    w.metrics().counter(key)
}

/// A member installs a flush's successor at its own last `FlushOk`, so a
/// faster member's data in the successor can reach it first: `a` had every
/// acknowledgement and sent two messages in `next` before `c`'s `FlushOk`
/// reached `b`. `b` holds them, and delivers them, in arrival order, right
/// after the `View` upcall of `next`; nothing is foreign. When such data
/// was dropped as foreign, `b` delivered neither.
#[test]
fn successor_data_that_overtakes_the_last_flush_ok_waits_for_the_install() {
    use plwg_core::keys::{DATA_FOREIGN, MERGE_VIEWS_SENT};
    let (mut w, apps) = setup(3);
    let s = Succession::new(&mut w, &apps, None);
    let (a, b, c) = (s.a, s.b, s.c);
    let (foreign, asked) = (counter(&w, DATA_FOREIGN), counter(&w, MERGE_VIEWS_SENT));
    let early = vec![
        (a, s.flush()),
        (a, s.ok()),
        (a, s.data(&s.next, 10)),
        (a, s.data(&s.next, 11)),
    ];
    deliver(&mut w, b, early);
    assert_eq!(
        view_at(&mut w, b).as_ref(),
        Some(&s.v1),
        "c's FlushOk is missing"
    );
    assert_eq!(delivered_from(&mut w, b, a), Vec::<u64>::new(), "held");
    deliver(&mut w, b, vec![(c, s.data(&s.v1, 5)), (c, s.ok())]);
    assert_eq!(view_at(&mut w, b).as_ref(), Some(&s.next));
    assert_eq!(delivered_from(&mut w, b, c), vec![5], "in the old view");
    assert_eq!(
        delivered_from(&mut w, b, a),
        vec![10, 11],
        "in the new view"
    );
    let upcalls: Vec<String> = w.inspect(b, |n: &Node| {
        let history = n.events_ref().history();
        let last = history.iter().rev().take(3).rev();
        last.map(|ev| match ev {
            LwgEvent::View { view, .. } => format!("view {}", view.id),
            LwgEvent::Data { data, .. } => format!("data {}", data.try_u64().unwrap_or(0)),
            LwgEvent::Left { .. } => "left".to_string(),
        })
        .collect()
    });
    let installed = format!("view {}", s.next.id);
    assert_eq!(upcalls, vec![installed.as_str(), "data 10", "data 11"]);
    assert_eq!(counter(&w, DATA_FOREIGN), foreign);
    assert_eq!(counter(&w, MERGE_VIEWS_SENT), asked);
}

/// A member whose flush's successor leaves it out, a leaver, filters the
/// data of that successor that reaches it before its last `FlushOk`
/// (`lwg.filtered`) and asks for no merge; then it departs. When such data
/// was foreign, it counted as `lwg.data_foreign`.
#[test]
fn a_leaver_filters_the_data_of_the_view_that_leaves_it_out() {
    use plwg_core::keys::{DATA_FOREIGN, FILTERED, MERGE_VIEWS_SENT};
    let (mut w, apps) = setup(3);
    let s = Succession::new(&mut w, &apps, Some(apps[2]));
    let (a, b, c) = (s.a, s.b, s.c);
    deliver(&mut w, c, vec![(a, s.flush()), (a, s.ok())]);
    let before = [FILTERED, DATA_FOREIGN, MERGE_VIEWS_SENT].map(|k| counter(&w, k));
    w.invoke(c, |n: &mut Node, ctx| {
        let hwg = n.service().hwg_stack_mut();
        hwg.inject_data(H1, a, s.data(&s.next, 10).to_frame());
        n.service().pump(ctx);
    });
    let after = [FILTERED, DATA_FOREIGN, MERGE_VIEWS_SENT].map(|k| counter(&w, k));
    assert_eq!(after, [before[0] + 1, before[1], before[2]]);
    deliver(&mut w, c, vec![(b, s.ok())]);
    assert_eq!(view_at(&mut w, c), None);
    let lefts = w.inspect(c, |n: &Node| n.events_ref().lefts());
    assert_eq!(lefts, vec![L]);
    assert_eq!(delivered_from(&mut w, c, a), Vec::<u64>::new());
    assert_eq!(counter(&w, MERGE_VIEWS_SENT), before[2]);
}

/// Data tagged with a view of `L` that is neither `b`'s, an ancestor of
/// it, nor the successor of a flush in flight at `b` is evidence of a
/// concurrent view on the HWG: `b` multicasts `MergeViews` as it delivers
/// it, with no grace period. (`x` holds the concurrent `{b, x}`, which
/// `b` coordinates, so only `a` registers a mapping and no
/// MULTIPLE-MAPPINGS callback asks for a merge first.) A message of a view
/// `b` held before is stale, and asks for nothing.
#[test]
fn data_of_an_unknown_view_requests_merge_views_at_its_delivery() {
    use plwg_core::keys::{DATA_FOREIGN, DATA_STALE, MERGE_VIEWS_SENT};
    let (mut w, mut apps) = setup(4);
    let x = apps.pop().expect("four apps");
    let s = Succession::new(&mut w, &apps, None);
    let (a, b, c) = (s.a, s.b, s.c);
    grant(&mut w, x, H1, a, 1, &[a, b, c, x]);
    let vx = View::initial(ViewId::new(x, 1), vec![b, x]);
    seed_lwg_view(&mut w, x, H1, vx.clone());
    deliver(&mut w, b, vec![(a, s.flush()), (a, s.ok()), (c, s.ok())]);
    assert_eq!(view_at(&mut w, b).as_ref(), Some(&s.next));
    w.run_for(ms(200));
    let inject = |w: &mut World, src: NodeId, msg: LwgMsg| {
        let keys = [DATA_STALE, DATA_FOREIGN, MERGE_VIEWS_SENT];
        let before = keys.map(|k| counter(w, k));
        w.invoke(b, move |n: &mut Node, ctx| {
            n.service()
                .hwg_stack_mut()
                .inject_data(H1, src, msg.to_frame());
            n.service().pump(ctx);
        });
        let after = keys.map(|k| counter(w, k));
        [0, 1, 2].map(|i| after[i] - before[i])
    };
    assert_eq!(inject(&mut w, c, s.data(&s.v1, 1)), [1, 0, 0], "stale");
    let foreign = inject(&mut w, x, s.data(&vx, 2));
    assert_eq!(foreign, [0, 1, 1], "MergeViews at the delivery");
    assert_eq!(delivered_from(&mut w, b, x), Vec::<u64>::new());
}

/// Two concurrent views of `L` on one HWG, `{a, x}` and `{c, y, z}`, and a
/// merge round whose flush loses `c`, the coordinator of the second view,
/// before its advertisement went out: the survivors hold `{c, y, z}` only
/// by id from `y` and `z`, and nothing names it. (Here `c` holds no view,
/// so that only `a` registers one, and `y` and `z` installed theirs two
/// ticks before: a fresh view is advertised in full by every holder.)
/// Every survivor defers `L` in that round, the HWG coordinator `a`
/// requests another, and in it the holders advertise their view in full:
/// that round merges both branches, once.
///
/// The merge names `{c, y, z}` itself. The round that deferred `L` could
/// not prune it either, and the LWG flush `y` starts at that view to drop
/// `c` waits behind the second round's `Stop`, whose view merges the
/// branches and drops the flush. When `y` announced a pruned view at the
/// first view, the merge named `y`'s `{y, z}`.
#[test]
fn a_round_missing_a_views_full_copy_defers_its_group_once() {
    use plwg_core::keys::{MERGE_DEFERRED, MERGE_VIEWS_SENT};
    let (mut w, apps) = setup(5);
    let (a, x, c, y, z) = (apps[0], apps[1], apps[2], apps[3], apps[4]);
    for &n in &apps {
        grant(&mut w, n, H1, a, 1, &apps);
    }
    let va = View::initial(ViewId::new(a, 1), vec![a, x]);
    let vc = View::initial(ViewId::new(c, 1), vec![c, y, z]);
    for (&n, view) in [a, x, y, z].iter().zip([&va, &va, &vc, &vc]) {
        seed_lwg_view(&mut w, n, H1, view.clone());
    }
    w.run_for(ms(150));

    // A flush `Stop`s every member; `c` crashes before it answers.
    w.crash(c);
    let survivors = [a, x, y, z];
    for &n in &survivors {
        w.invoke(n, |n: &mut Node, ctx| {
            n.service().hwg_stack_mut().inject_stop(H1);
            n.service().pump(ctx);
        });
    }
    w.run_for(ms(50));
    let counter = |w: &World, key| w.metrics().counter(key);
    let sent = counter(&w, MERGE_VIEWS_SENT);
    for &n in &survivors {
        let before = counter(&w, MERGE_DEFERRED);
        grant(&mut w, n, H1, a, 2, &survivors);
        assert_eq!(counter(&w, MERGE_DEFERRED) - before, 1, "{n} deferred L");
    }
    assert_eq!(counter(&w, MERGE_VIEWS_SENT) - sent, 1, "a asked again");
    assert!(w.trace().count("lwg.merge") == 0, "no merge yet");

    w.run_for(ms(300));
    assert_eq!(counter(&w, MERGE_DEFERRED), 4, "the next round merged");
    let merges = Timeline::build(w.trace()).merges_of(L.0).len();
    assert_eq!(merges, 1);
    let merged = view_at(&mut w, a).expect("merged");
    assert_eq!(merged.members, vec![a, x, y, z]);
    assert_eq!(merged.predecessors, vec![va.id, vc.id]);
    for &n in &survivors {
        assert_eq!(view_at(&mut w, n).as_ref(), Some(&merged), "at {n}");
        assert_eq!(stop_oks(&mut w, n, H1), 2, "two HWG flushes at {n}");
    }
    assert_eq!(plwg_obs::ancestor_merges_of(w.trace()), vec![]);
}
