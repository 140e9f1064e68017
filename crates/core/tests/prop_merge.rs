//! Randomised interleavings of LWG flushes and MERGE-VIEWS rounds over the
//! [`ScriptedHwg`] substrate: concurrent views of one group on one HWG,
//! admissions that start LWG flushes, data, forced HWG flushes whose
//! rounds merge the views, and HWG flushes whose view drops a member, whose
//! rounds prune it. Each step comes a seeded random time after the last.
//! Every member computes a merged or pruned view's id from the round
//! instead of receiving it, so the property checked is the one that makes
//! that safe: no view id of the group is ever installed with two
//! memberships. Seeded in-tree RNG keeps every run deterministic.

use plwg_core::{HwgId, LFlushId, LwgConfig, LwgId, LwgMsg, ScriptedHwg, View, ViewId};
use plwg_hwg::HwgSubstrate;
use plwg_naming::NamingConfig;
use plwg_obs::scenarios::Scenario;
use plwg_sim::{Frame, NodeId, SimDuration, SimRng, World};
use std::collections::BTreeMap;

type Node = plwg_core::LwgNode<ScriptedHwg>;

const L: LwgId = LwgId(9);
const H: HwgId = HwgId(70);
const CASES: u64 = 48;
const STEPS: u64 = 12;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// One name server and `apps` scripted members, all in one view of `H`
/// coordinated by the first.
fn world(seed: u64, apps: usize) -> (World, Vec<NodeId>) {
    let mut scenario = Scenario {
        servers: 1,
        naming: NamingConfig {
            gossip_interval: ms(100),
            ..NamingConfig::default()
        },
        lwg: LwgConfig {
            lwg_join_timeout: ms(100),
            tick_interval: ms(50),
            ..LwgConfig::default()
        },
        ..Scenario::traced(seed, apps)
    };
    scenario.world.net.jitter = SimDuration::ZERO;
    let (mut w, _, apps) = scenario.build::<ScriptedHwg>();
    let hview = View::initial(ViewId::new(apps[0], 1), apps.clone());
    for &n in &apps {
        let hview = hview.clone();
        w.invoke(n, move |node: &mut Node, ctx| {
            node.service().hwg_stack_mut().inject_view(H, hview);
            node.service().pump(ctx);
        });
    }
    (w, apps)
}

/// Delivers `msg` at `at` as an HWG multicast of `src` on `H`.
fn deliver(w: &mut World, at: NodeId, src: NodeId, msg: &LwgMsg) {
    let frame = msg.to_frame();
    w.invoke(at, move |n: &mut Node, ctx| {
        n.service().hwg_stack_mut().inject_data(H, src, frame);
        n.service().pump(ctx);
    });
}

/// Gives each member a view of `L` of its own random side, or none: up to
/// three concurrent views, each held by all of its members.
fn seed_views(w: &mut World, apps: &[NodeId], rng: &mut SimRng) {
    let sides = rng.range(1, 4);
    let mut views: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
    for &n in apps {
        views.entry(rng.range(0, sides + 1)).or_default().push(n);
    }
    views.remove(&sides);
    for members in views.values() {
        // The join path: a `Flush` whose successor is the view, awaiting
        // no `FlushOk`.
        let admit = LwgMsg::Flush {
            lwg: L,
            flush: LFlushId {
                initiator: members[0],
                nonce: 0,
            },
            view: ViewId::new(members[0], 0),
            members: vec![],
            next: Some(View::initial(ViewId::new(members[0], 1), members.clone())),
            to: None,
        };
        for &n in members {
            w.invoke(n, |node: &mut Node, ctx| node.service().join(ctx, L));
            deliver(w, n, members[0], &admit);
        }
    }
}

/// An HWG flush whose view drops one member of `H`'s view at `first`, its
/// coordinator (not dropped): every member is stopped, and `settle` later
/// every member installs the view without it. `settle` is longer than a
/// hop, so what a member sent before its `stop_ok` reaches every survivor
/// before the view, as `HwgSubstrate` requires.
fn shrink(w: &mut World, rng: &mut SimRng, first: NodeId, settle: SimDuration) {
    // A flush of the substrate's own under way concludes first.
    let mut wait = 0..20;
    let hview = loop {
        let hview = w.inspect(first, |n: &Node| {
            n.service_ref().hwg_stack().view_of(H).cloned()
        });
        let Some(hview) = hview.filter(|v| v.len() > 2) else {
            return;
        };
        let flushing = hview
            .members
            .iter()
            .any(|&n| w.inspect(n, |node: &Node| node.service_ref().hwg_stack().in_flush(H)));
        if !flushing {
            break hview;
        }
        if wait.next().is_none() {
            return;
        }
        w.run_for(ms(1));
    };
    let gone = hview.members[rng.range(1, hview.len() as u64) as usize];
    let members = hview
        .members
        .iter()
        .copied()
        .filter(|&m| m != gone)
        .collect();
    let id = ViewId::new(hview.members[0], hview.id.seq + 1);
    let next = View::with_predecessors(id, members, vec![hview.id]);
    for &n in &hview.members {
        w.invoke(n, |node: &mut Node, ctx| {
            node.service().hwg_stack_mut().inject_stop(H);
            node.service().pump(ctx);
        });
    }
    w.run_for(settle);
    for &n in &hview.members {
        let next = next.clone();
        w.invoke(n, move |node: &mut Node, ctx| {
            node.service().hwg_stack_mut().inject_view(H, next);
            node.service().pump(ctx);
        });
    }
}

/// Panics if some view id of `L` was installed with two memberships.
fn installed(w: &mut World, apps: &[NodeId], case: u64) {
    let mut seen: BTreeMap<ViewId, Vec<NodeId>> = BTreeMap::new();
    for &n in apps {
        let views: Vec<View> = w.inspect(n, |node: &Node| {
            node.events_ref().views_of(L).into_iter().cloned().collect()
        });
        for view in views {
            let members = seen.entry(view.id).or_insert_with(|| view.members.clone());
            assert_eq!(
                *members, view.members,
                "case {case}: {} installed with two memberships (at {n})",
                view.id
            );
        }
    }
}

#[test]
fn prop_no_view_id_is_installed_with_two_memberships() {
    let (mut merged, mut pruned) = (0, 0);
    for case in 0..CASES {
        let mut rng = SimRng::from_seed(0x4d45_5247 ^ case);
        let (mut w, apps) = world(case, rng.range(3, 6) as usize);
        seed_views(&mut w, &apps, &mut rng);
        for _ in 0..STEPS {
            let pick = |rng: &mut SimRng| apps[rng.range(0, apps.len() as u64) as usize];
            match rng.range(0, 5) {
                // A node joins the group, or leaves it: its coordinator
                // runs a join or leave flush. A node that left may join
                // again and then create views of the group once more.
                0 => w.invoke(pick(&mut rng), |n: &mut Node, ctx| {
                    if n.current_view(L).is_some() {
                        n.service().leave(ctx, L);
                    } else {
                        n.service().join(ctx, L);
                    }
                }),
                // MERGE-VIEWS reaches the HWG coordinator, which forces
                // the flush whose view concludes a merge round.
                1 | 2 => deliver(&mut w, apps[0], pick(&mut rng), &LwgMsg::MergeViews),
                // A member falls out of the HWG view, racing the rest.
                3 => {
                    let settle = ms(rng.range(2, 6));
                    shrink(&mut w, &mut rng, apps[0], settle);
                }
                _ => {
                    let v = rng.next_u64();
                    w.invoke(pick(&mut rng), move |n: &mut Node, ctx| {
                        n.service().send(ctx, L, Frame::from_u64(v));
                    });
                }
            }
            w.run_for(ms(rng.range(0, 40)));
        }
        w.run_for(ms(2_000));
        installed(&mut w, &apps, case);
        pruned += u64::from(w.trace().count("lwg.prune") > 0);
        merged += u64::from(w.trace().count("lwg.merge") > 0);
    }
    assert!(
        merged >= CASES / 4,
        "{merged} of {CASES} cases merged a view"
    );
    assert!(
        pruned >= CASES / 4,
        "{pruned} of {CASES} cases pruned a view"
    );
}
