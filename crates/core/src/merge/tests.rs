//! Unit tests of the merge round: the concurrent-view filter, the defer
//! and creator rules, and scripted worlds that run a round end to end.

#![allow(clippy::expect_used, clippy::indexing_slicing)]

use super::*;
use crate::msg::LFlushId;
use crate::{LwgNode, ScriptedHwg};
use plwg_naming::{NameServer, NamingConfig};
use plwg_sim::{Encode, SimRng, World, WorldConfig};
use std::collections::{BTreeMap, BTreeSet};

/// The `Flush` that admits a joiner to `view` of `lwg` through the join
/// path: `view` is its successor, and it awaits no `FlushOk`.
fn admit(lwg: LwgId, view: View) -> LwgMsg {
    let src = view.coordinator();
    LwgMsg::Flush {
        lwg,
        flush: LFlushId {
            initiator: src,
            nonce: 0,
        },
        view: ViewId::new(src, 0),
        members: vec![],
        next: Some(view),
        to: None,
    }
}

/// The reference filter: for every pair of views, a walk of the
/// predecessor edges through the collected views with an explicit
/// stack and visited set. Empty when fewer than two views are
/// concurrent (no merge).
fn reference(collected: &[View]) -> Vec<ViewId> {
    let views: BTreeMap<ViewId, View> = collected.iter().map(|v| (v.id, v.clone())).collect();
    let ids: Vec<ViewId> = views.keys().copied().collect();
    let is_anc = |a: ViewId, b: ViewId| -> bool {
        let mut stack = vec![b];
        let mut seen = BTreeSet::new();
        while let Some(v) = stack.pop() {
            if let Some(view) = views.get(&v) {
                for &p in &view.predecessors {
                    if p == a {
                        return true;
                    }
                    if seen.insert(p) {
                        stack.push(p);
                    }
                }
            }
        }
        false
    };
    let concurrent: Vec<ViewId> = ids
        .iter()
        .copied()
        .filter(|&v| !ids.iter().any(|&o| is_anc(v, o)))
        .collect();
    if concurrent.len() < 2 {
        Vec::new()
    } else {
        concurrent
    }
}

/// The shipped path: advertisements as encoded sub-frames, candidates,
/// then the filter. Empty when the round does not merge.
fn shipped(collected: &[View]) -> Vec<ViewId> {
    let encoded: BTreeMap<ViewId, Option<(Payload, NodeId)>> = collected
        .iter()
        .map(|v| (v.id, Some((encoded(v), v.id.coordinator))))
        .collect();
    let views = merge_candidates(encoded.iter().map(|(id, v)| (*id, v))).expect("all full");
    let concurrent: Vec<ViewId> = concurrent_views(&views).map(|(v, _)| v.id).collect();
    if concurrent.len() < 2 {
        Vec::new()
    } else {
        concurrent
    }
}

fn encoded(view: &View) -> Payload {
    let mut out = Vec::new();
    view.encode_into(&mut out);
    Payload::from_vec(out)
}

fn id(i: u64) -> ViewId {
    ViewId::new(NodeId((i % 4) as u32), i + 1)
}

fn view(i: u64, preds: Vec<ViewId>) -> View {
    View::with_predecessors(id(i), vec![NodeId((i % 8) as u32)], preds)
}

/// `n` views, each naming a random subset of the earlier ones and,
/// now and then, a view outside the set.
fn random_dag(rng: &mut SimRng, n: u64) -> Vec<View> {
    (0..n)
        .map(|i| {
            let mut preds: Vec<ViewId> = (0..i).filter(|_| rng.chance(0.2)).map(id).collect();
            if rng.chance(0.3) {
                preds.push(id(1_000 + rng.range(0, 50)));
            }
            view(i, preds)
        })
        .collect()
}

#[test]
fn concurrent_filter_matches_the_ancestor_walk() {
    let chain: Vec<View> = (0..6)
        .map(|i| view(i, if i == 0 { vec![] } else { vec![id(i - 1)] }))
        .collect();
    let diamond = vec![
        view(0, vec![]),
        view(1, vec![id(0)]),
        view(2, vec![id(0)]),
        view(3, vec![id(1), id(2)]),
    ];
    // A chain broken by a predecessor outside the set: both ends stay.
    let gap = vec![view(0, vec![]), view(2, vec![id(1)])];
    for collected in [
        chain.clone(),
        [&chain[..2], &[view(9, vec![])]].concat(),
        diamond.clone(),
        diamond[..3].to_vec(),
        gap,
        vec![view(0, vec![])],
        vec![],
    ] {
        assert_eq!(shipped(&collected), reference(&collected), "{collected:?}");
    }
    assert_eq!(shipped(&diamond[1..3]), vec![id(1), id(2)]);
    assert_eq!(shipped(&diamond), Vec::<ViewId>::new());

    let mut rng = SimRng::from_seed(5);
    let mut merged = 0;
    for round in 0..400 {
        // Every twentieth round is larger than a 64-bit set could index.
        let n = if round % 20 == 0 {
            rng.range(65, 72)
        } else {
            rng.range(0, 10)
        };
        let collected = random_dag(&mut rng, n);
        let want = reference(&collected);
        assert_eq!(shipped(&collected), want, "round {round}");
        merged += usize::from(!want.is_empty());
    }
    assert!(merged > 100, "{merged} of 400 rounds merge");
}

/// A group advertised with one view is skipped before its
/// advertisement is decoded.
#[test]
fn a_single_view_is_skipped_undecoded() {
    let garbage = Some((Payload::from_vec(vec![0xff]), NodeId(1)));
    let weighed = |c: &[(ViewId, &Option<(Payload, NodeId)>)]| merge_candidates(c.iter().copied());
    assert_eq!(weighed(&[(id(0), &garbage)]), Some(vec![]));
    assert_eq!(weighed(&[]), Some(vec![]));
}

/// The defer rule: a group is deferred when a view that came only by
/// id is named by no full view and is one of at least two candidates.
#[test]
fn a_view_advertised_by_id_defers_only_an_unexplained_rival() {
    let weighed = |c: &[(ViewId, &Option<(Payload, NodeId)>)]| merge_candidates(c.iter().copied());
    let full = |v: &View| Some((encoded(v), v.id.coordinator));
    let by_id = None;
    // The far side of a split: the coordinator's copy is across it.
    assert_eq!(weighed(&[(id(0), &by_id)]), Some(vec![]), "alone");
    // A laggard's view, which its group's later view names.
    let later = view(1, vec![id(0)]);
    let named = weighed(&[(id(0), &by_id), (id(1), &full(&later))]);
    assert_eq!(named, Some(vec![(later.clone(), later.id.coordinator)]));
    assert_eq!(concurrent_views(&named.unwrap_or_default()).count(), 1);
    // A view whose coordinator crashed before advertising it, and a
    // concurrent view that came in full.
    let rival = full(&view(2, vec![]));
    assert_eq!(weighed(&[(id(0), &by_id), (id(2), &rival)]), None);
    assert_eq!(
        weighed(&[(id(0), &by_id), (id(1), &full(&later)), (id(3), &by_id)]),
        None
    );
}

/// A holder that does not coordinate a view advertises it in full just
/// after it installed it at a flush's acknowledgements, then by id two
/// ticks on, and in full again once the last round deferred its group.
#[test]
fn a_deferred_group_is_advertised_in_full() {
    let mut w = World::new(WorldConfig::default());
    let node = |me| {
        LwgNode::<ScriptedHwg>::builder(me)
            .servers([NodeId(0)])
            .build()
            .expect("valid config")
    };
    w.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![],
        NamingConfig::default(),
    )));
    let coordinator = w.add_node(Box::new(node(NodeId(1))));
    let me = w.add_node(Box::new(node(NodeId(2))));
    let (hwg, lwg) = (HwgId(5), LwgId(3));
    let advertised = w.invoke(me, move |n: &mut LwgNode<ScriptedHwg>, ctx| {
        let svc = n.service();
        let view = View::initial(ViewId::new(coordinator, 1), vec![coordinator, me]);
        svc.hwg_stack_mut().inject_view(hwg, view.clone());
        svc.join(ctx, lwg);
        svc.hwg_stack_mut()
            .inject_data(hwg, coordinator, admit(lwg, view).to_frame());
        svc.pump(ctx);
        let lists = |svc: &LwgService<ScriptedHwg>| {
            let frame = svc.all_views_advert(hwg).expect("one view");
            match plwg_sim::decode_frame(plwg_sim::family::LWG, &frame) {
                Ok(LwgMsg::AllViews { views, held, .. }) => Some((views.len(), held.len())),
                _ => None,
            }
        };
        let fresh = lists(svc);
        for _ in 0..2 {
            svc.tick(ctx);
        }
        let by_id = lists(svc);
        svc.rounds.entry(hwg).or_default().deferred.insert(lwg);
        (fresh, by_id, lists(svc))
    });
    let (full, by_id) = (Some((1, 0)), Some((0, 1)));
    assert_eq!(advertised, (full, by_id, full));
}

/// The creator rule: the merged id belongs to the lowest node of the
/// HWG view that advertised a concurrent view in full, with the seq
/// after its floor; the membership is the views' members in view-id
/// order that are in the HWG view.
#[test]
fn the_lowest_full_sender_in_the_hwg_view_creates_the_merged_view() {
    let n = NodeId;
    // `a` came in full from n2 as well as its coordinator n4 (a
    // deferred group's), `b` from its coordinator n3.
    let a = View::initial(ViewId::new(n(4), 1), vec![n(4), n(2)]);
    let b = View::initial(ViewId::new(n(3), 1), vec![n(3)]);
    let concurrent = [(&b, n(3)), (&a, n(2))];
    let floors = BTreeMap::from([(n(2), 5), (n(3), 9), (n(4), 7)]);
    let hview = |members: &[u32]| {
        View::initial(
            ViewId::new(n(9), 1),
            members.iter().map(|&m| n(m)).collect(),
        )
    };
    let merged = |members: &[u32]| next_view(&concurrent, &hview(members), &floors);

    let lowest = merged(&[2, 3, 4]).expect("a creator");
    assert_eq!(lowest.id, ViewId::new(n(2), 6), "the lowest full sender");
    assert_eq!(lowest.members, vec![n(3), n(4), n(2)]);
    assert_eq!(lowest.predecessors, vec![b.id, a.id]);

    let skipped = merged(&[3, 4]).expect("a creator");
    assert_eq!(skipped.id, ViewId::new(n(3), 10), "n2 left the HWG view");
    assert_eq!(skipped.members, vec![n(3), n(4)]);

    assert_eq!(merged(&[4, 5]), None, "no full sender stayed");
}

/// A round whose concurrent views' full senders all left the HWG view
/// merges nothing of the group and defers it.
#[test]
fn a_round_without_a_creator_defers_the_group() {
    let mut w = World::new(WorldConfig::default());
    w.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![],
        NamingConfig::default(),
    )));
    let me = w.add_node(Box::new(
        LwgNode::<ScriptedHwg>::builder(NodeId(1))
            .servers([NodeId(0)])
            .build()
            .expect("valid config"),
    ));
    let (hwg, lwg) = (HwgId(5), LwgId(3));
    let outcome = w.invoke(me, move |n: &mut LwgNode<ScriptedHwg>, ctx| {
        let svc = n.service();
        let round = svc.rounds.entry(hwg).or_default();
        for gone in [NodeId(2), NodeId(3)] {
            let view = View::initial(ViewId::new(gone, 1), vec![gone]);
            let full = Some((encoded(&view), gone));
            round.collected.insert((lwg, view.id), full);
            round.floors.insert(gone, 1);
        }
        let hview = View::initial(ViewId::new(me, 2), vec![me]);
        let installed = svc.complete_merge_round(ctx, hwg, &hview);
        let deferred = svc.rounds.get(&hwg).map(|r| r.deferred.clone());
        (installed, deferred)
    });
    assert_eq!(outcome, (BTreeSet::new(), Some(BTreeSet::from([lwg]))));
    assert_eq!(w.metrics().counter(keys::MERGE_DEFERRED), 1);
    assert_eq!(w.metrics().counter(keys::VIEWS_MERGED), 0);
}

/// A creator that installed another view between its advertisement and
/// the round (a successor delivered in the closing HWG view) does not
/// install the merged view, and still counts its seq as taken.
#[test]
fn a_creator_that_moved_on_counts_the_merged_seq_as_taken() {
    let mut w = World::new(WorldConfig::default());
    w.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![],
        NamingConfig::default(),
    )));
    let c = w.add_node(Box::new(
        LwgNode::<ScriptedHwg>::builder(NodeId(1))
            .servers([NodeId(0)])
            .build()
            .expect("valid config"),
    ));
    let (hwg, lwg) = (HwgId(5), LwgId(3));
    let next = w.invoke(c, move |n: &mut LwgNode<ScriptedHwg>, ctx| {
        let svc = n.service();
        svc.hwg_stack_mut()
            .inject_view(hwg, View::initial(ViewId::new(c, 1), vec![c]));
        svc.join(ctx, lwg);
        let held = View::with_predecessors(ViewId::new(c, 2), vec![c], vec![ViewId::new(c, 1)]);
        svc.hwg_stack_mut()
            .inject_data(hwg, c, admit(lwg, held).to_frame());
        svc.pump(ctx);
        let preds = vec![ViewId::new(c, 1), ViewId::new(NodeId(7), 1)];
        let merged = View::with_predecessors(ViewId::new(c, 5), vec![c], preds);
        let installed = svc.install_merged(ctx, lwg, hwg, merged);
        let next = svc.dir.get_mut(lwg).map(|mut s| s.take_view_seq());
        (installed, svc.view_of(lwg).map(|v| v.id), next)
    });
    assert_eq!(next, (false, Some(ViewId::new(c, 2)), Some(6)));
}

/// The first member `c` of a pruned view that moved on during the flush:
/// `V = {d, c, e}` was listed by id in the round, `d` left the HWG view,
/// and the holders still on `V` prune it to `(c, 4 + 1)`, `c`'s floor
/// after it. `c` itself installed `V`'s successor `W` after its `Stop`, so
/// it prunes nothing, but it counts seq 5 as taken: its next view of the
/// group is `(c, 6)`, not a second `(c, 5)`.
#[test]
fn a_creator_that_moved_on_counts_the_pruned_seq_as_taken() {
    let mut w = World::new(WorldConfig::default());
    w.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![],
        NamingConfig::default(),
    )));
    let c = w.add_node(Box::new(
        LwgNode::<ScriptedHwg>::builder(NodeId(1))
            .servers([NodeId(0)])
            .build()
            .expect("valid config"),
    ));
    let (d, e) = (NodeId(2), NodeId(3));
    let (hwg, lwg) = (HwgId(5), LwgId(3));
    let outcome = w.invoke(c, move |n: &mut LwgNode<ScriptedHwg>, ctx| {
        let svc = n.service();
        let v = View::initial(ViewId::new(d, 1), vec![d, c, e]);
        let later = View::with_predecessors(ViewId::new(d, 2), vec![d, c], vec![v.id]);
        svc.hwg_stack_mut()
            .inject_view(hwg, View::initial(ViewId::new(d, 1), vec![d, c, e]));
        svc.join(ctx, lwg);
        svc.install_lwg_view(ctx, lwg, v.clone(), hwg);
        let round = svc.rounds.entry(hwg).or_default();
        round.collected.insert((lwg, v.id), None);
        round.floors.extend([(c, 4), (e, 2)]);
        svc.install_lwg_view(ctx, lwg, later, hwg);
        let hview = View::initial(ViewId::new(c, 2), vec![c, e]);
        let installed = svc.complete_merge_round(ctx, hwg, &hview);
        let next = svc.dir.get_mut(lwg).map(|mut s| s.take_view_seq());
        (installed, svc.view_of(lwg).map(|v| v.id), next)
    });
    assert_eq!(outcome, (BTreeSet::new(), Some(ViewId::new(d, 2)), Some(6)));
    assert_eq!(w.metrics().counter(keys::PRUNES), 0);
}

/// Only a holder of the group's one maximal candidate prunes: `n` still
/// holds `V = {x, n, a}`, which the round lists by id, while `x`
/// advertised its successor `W = {x, n}` in full. `a` left the HWG view,
/// but `W`, the candidate, lost nobody, so the round prunes nothing. Had
/// `n` pruned its own `V`, it would have installed `(x, 3 + 1)` as `{x, n}`
/// while `x`, which holds `W`, counts no such seq as taken.
#[test]
fn a_holder_of_a_view_the_round_does_not_weigh_prunes_nothing() {
    let mut w = World::new(WorldConfig::default());
    w.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![],
        NamingConfig::default(),
    )));
    let n = w.add_node(Box::new(
        LwgNode::<ScriptedHwg>::builder(NodeId(1))
            .servers([NodeId(0)])
            .build()
            .expect("valid config"),
    ));
    let (x, a) = (NodeId(2), NodeId(3));
    let (hwg, lwg) = (HwgId(5), LwgId(3));
    let outcome = w.invoke(n, move |node: &mut LwgNode<ScriptedHwg>, ctx| {
        let svc = node.service();
        let v = View::initial(ViewId::new(x, 1), vec![x, n, a]);
        let later = View::with_predecessors(ViewId::new(x, 2), vec![x, n], vec![v.id]);
        svc.hwg_stack_mut()
            .inject_view(hwg, View::initial(ViewId::new(x, 1), vec![x, n, a]));
        svc.join(ctx, lwg);
        svc.install_lwg_view(ctx, lwg, v.clone(), hwg);
        let round = svc.rounds.entry(hwg).or_default();
        round.collected.insert((lwg, v.id), None);
        round
            .collected
            .insert((lwg, later.id), Some((encoded(&later), x)));
        round.floors.extend([(x, 3), (n, 1)]);
        let hview = View::initial(ViewId::new(x, 2), vec![x, n]);
        let installed = svc.complete_merge_round(ctx, hwg, &hview);
        (installed, svc.view_of(lwg).map(|v| v.id))
    });
    assert_eq!(outcome, (BTreeSet::new(), Some(ViewId::new(x, 1))));
    assert_eq!(w.metrics().counter(keys::PRUNES), 0);
}

/// The future creator `c` had taken seq 2 for the successor of its
/// flush `f`, in which `x` takes part, when the merge round's `Stop`
/// came: each member's `FlushOk` was still on its way to the other, so
/// both hold the install and `c` advertised `(c, 1)` in full. The round
/// merges `(c, 1)` with `b`'s view into `(c, 3)`, past the successor's
/// seq, and every member installs it at the HWG view; that drops `f`,
/// whose successor nobody installs.
#[test]
fn a_merged_id_passes_the_seq_of_a_flush_the_round_drops() {
    let mut cfg = WorldConfig {
        trace: true,
        ..WorldConfig::default()
    };
    cfg.net.jitter = plwg_sim::SimDuration::ZERO;
    let mut w = World::new(cfg);
    w.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![],
        NamingConfig::default(),
    )));
    let apps: Vec<NodeId> = (1..=3)
        .map(|i| {
            let node = LwgNode::<ScriptedHwg>::builder(NodeId(i))
                .servers([NodeId(0)])
                .build()
                .expect("valid config");
            w.add_node(Box::new(node))
        })
        .collect();
    let (c, x, b) = (apps[0], apps[1], apps[2]);
    let (hwg, lwg) = (HwgId(5), LwgId(3));
    let deliver = |w: &mut World, at: NodeId, src: NodeId, msg: LwgMsg| {
        w.invoke(at, move |n: &mut LwgNode<ScriptedHwg>, ctx| {
            let svc = n.service();
            svc.hwg_stack_mut().inject_data(hwg, src, msg.to_frame());
            svc.pump(ctx);
        });
    };
    let grant = |w: &mut World, at: NodeId, view: View| {
        w.invoke(at, move |n: &mut LwgNode<ScriptedHwg>, ctx| {
            let svc = n.service();
            svc.hwg_stack_mut().inject_view(hwg, view);
            svc.pump(ctx);
        });
    };
    let vc = View::initial(ViewId::new(c, 1), vec![c, x]);
    let vb = View::initial(ViewId::new(b, 1), vec![b]);
    for (&node, view) in apps.iter().zip([&vc, &vc, &vb]) {
        grant(&mut w, node, View::initial(ViewId::new(c, 1), apps.clone()));
        w.invoke(node, |n: &mut LwgNode<ScriptedHwg>, ctx| {
            n.service().join(ctx, lwg);
        });
        deliver(&mut w, node, view.id.coordinator, admit(lwg, view.clone()));
    }

    let flush = LFlushId {
        initiator: c,
        nonce: 1,
    };
    let members = vec![c, x];
    let next = View::with_predecessors(ViewId::new(c, 2), members.clone(), vec![vc.id]);
    for &node in &members {
        let msg = LwgMsg::Flush {
            lwg,
            flush,
            view: vc.id,
            members: members.clone(),
            next: Some(next.clone()),
            to: None,
        };
        deliver(&mut w, node, c, msg);
    }
    let taken = w.invoke(c, move |n: &mut LwgNode<ScriptedHwg>, _| {
        n.service().dir.get_mut(lwg).map(|mut s| s.take_view_seq())
    });
    assert_eq!(taken, Some(2));
    for &node in &apps {
        w.invoke(node, |n: &mut LwgNode<ScriptedHwg>, ctx| {
            n.service().hwg_stack_mut().inject_stop(hwg);
            n.service().pump(ctx);
        });
    }
    w.run_for(plwg_sim::SimDuration::from_millis(50));
    let hview = View::with_predecessors(ViewId::new(c, 2), apps.clone(), vec![ViewId::new(c, 1)]);
    for &node in &apps {
        grant(&mut w, node, hview.clone());
    }
    let view_at = |w: &mut World, node: NodeId| {
        w.inspect(node, move |n: &LwgNode<ScriptedHwg>| {
            n.current_view(lwg).cloned()
        })
    };
    let merged = view_at(&mut w, c).expect("merged");
    assert_eq!(merged.id, ViewId::new(c, 3), "past the announced (c, 2)");
    assert_eq!(merged.members, vec![c, x, b]);
    assert_eq!(merged.predecessors, vec![vc.id, vb.id]);
    w.run_for(plwg_sim::SimDuration::from_millis(50));
    for &node in &apps {
        assert_eq!(view_at(&mut w, node).as_ref(), Some(&merged), "at {node}");
    }
    assert_eq!(w.trace().count("lwg.merge"), 1);
    assert_eq!(plwg_obs::ancestor_merges_of(w.trace()), vec![]);
    assert_eq!(plwg_obs::forks_of(w.trace()), vec![]);
}

/// The MERGE-VIEWS cooldown keeps no entry for an HWG this node left.
#[test]
fn a_left_hwg_leaves_no_merge_views_cooldown() {
    let mut w = World::new(WorldConfig::default());
    let server = w.add_node(Box::new(NameServer::new(
        NodeId(0),
        vec![],
        NamingConfig::default(),
    )));
    let me = w.add_node(Box::new(
        LwgNode::<ScriptedHwg>::builder(NodeId(1))
            .servers([server])
            .build()
            .expect("valid config"),
    ));
    let hwg = HwgId(5);
    let entries = w.invoke(me, move |n: &mut LwgNode<ScriptedHwg>, ctx| {
        let svc = n.service();
        svc.hwg_stack_mut()
            .inject_view(hwg, View::initial(ViewId::new(me, 1), vec![me]));
        svc.pump(ctx);
        svc.trigger_merge_views(ctx, hwg);
        let before = svc.last_merge_views.len();
        svc.hwg_stack_mut().inject_left(hwg);
        svc.pump(ctx);
        (before, svc.last_merge_views.len())
    });
    assert_eq!(entries, (1, 0));
}
