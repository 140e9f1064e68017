//! Rebalancer tests over the scripted substrate: a crowded HWG sheds
//! groups onto a less loaded one via the ordinary switch protocol, the
//! typed `lwg.rebalance.*` events record every decision, and a quiescent
//! balanced system never moves anything again (no oscillation).

use plwg_core::{HwgId, LFlushId, LwgConfig, LwgId, LwgMsg, ScriptedHwg, View, ViewId};
use plwg_obs::{scenarios::Scenario, Timeline};
use plwg_sim::{NodeId, SimDuration, World};

type Node = plwg_core::LwgNode<ScriptedHwg>;

const H1: HwgId = HwgId(70);
const H2: HwgId = HwgId(80);

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn cfg() -> LwgConfig {
    LwgConfig {
        lwg_join_timeout: ms(100),
        tick_interval: ms(50),
        rebalance_interval: Some(ms(300)),
        ..LwgConfig::default()
    }
}

/// One name server and one app node — the node coordinates every group,
/// so the rebalancer's decisions are entirely its own.
fn setup() -> (World, NodeId) {
    let mut scenario = Scenario {
        servers: 1,
        lwg: cfg(),
        ..Scenario::traced(11, 1)
    };
    scenario.world.net.jitter = SimDuration::ZERO;
    let (w, _, apps) = scenario.build::<ScriptedHwg>();
    (w, apps[0])
}

/// Installs singleton HWG views for `a` on both HWGs and seeds `on_h1`
/// groups mapped onto H1 plus `on_h2` groups onto H2 (ids continue where
/// H1's stop), each with an installed singleton LWG view.
fn seed(w: &mut World, a: NodeId, on_h1: u64, on_h2: u64) -> (Vec<LwgId>, Vec<LwgId>) {
    for hwg in [H1, H2] {
        let view = View::initial(ViewId::new(a, 1), vec![a]);
        w.invoke(a, move |n: &mut Node, ctx| {
            n.service().hwg_stack_mut().inject_view(hwg, view);
            n.service().pump(ctx);
        });
    }
    let mut seed_one = |lwg: LwgId, hwg: HwgId| {
        let view = View::initial(ViewId::new(a, 1), vec![a]);
        w.invoke(a, move |n: &mut Node, ctx| {
            n.service().join(ctx, lwg);
            n.service().hwg_stack_mut().inject_data(
                hwg,
                a,
                // The join path: a `Flush` whose successor is the view,
                // awaiting no `FlushOk`.
                LwgMsg::Flush {
                    lwg,
                    flush: LFlushId {
                        initiator: a,
                        nonce: 0,
                    },
                    view: ViewId::new(a, 0),
                    members: vec![],
                    next: Some(view),
                    to: None,
                }
                .to_frame(),
            );
            n.service().pump(ctx);
        });
    };
    let h1: Vec<LwgId> = (1..=on_h1).map(LwgId).collect();
    let h2: Vec<LwgId> = (on_h1 + 1..=on_h1 + on_h2).map(LwgId).collect();
    for &l in &h1 {
        seed_one(l, H1);
    }
    for &l in &h2 {
        seed_one(l, H2);
    }
    (h1, h2)
}

fn mapping_of(w: &mut World, node: NodeId, lwg: LwgId) -> Option<HwgId> {
    w.inspect(node, move |n: &Node| n.service_ref().mapping_of(lwg))
}

/// How many of `groups` are currently mapped onto `hwg` at `node`.
fn load(w: &mut World, node: NodeId, groups: &[LwgId], hwg: HwgId) -> usize {
    groups
        .iter()
        .filter(|&&l| mapping_of(w, node, l) == Some(hwg))
        .count()
}

/// Three groups on H1, one on H2: one strictly-improving move exists
/// (3 → 2 vs 1 → 2). The rebalancer migrates exactly the lowest-id
/// group with exactly one switch, records the move in the Timeline, and
/// then never touches the balanced system again.
#[test]
fn rebalance_migrates_one_group_with_one_switch() {
    let (mut w, a) = setup();
    let (h1, h2) = seed(&mut w, a, 3, 1);
    w.run_for(ms(1000));

    // The lowest-id group moved; everything else stayed put.
    assert_eq!(mapping_of(&mut w, a, h1[0]), Some(H2), "lwg1 migrated");
    for &l in &h1[1..] {
        assert_eq!(mapping_of(&mut w, a, l), Some(H1), "{l} stayed");
    }
    assert_eq!(mapping_of(&mut w, a, h2[0]), Some(H2));
    // The migrated group's view survived the switch: same membership,
    // new view descending from the old one.
    let v = w
        .inspect(a, |n: &Node| n.current_view(h1[0]).cloned())
        .expect("view survives the migration");
    assert_eq!(v.members, vec![a]);
    assert_eq!(v.predecessors, vec![ViewId::new(a, 1)]);

    // The typed trace shows one plan, one move, and — per moved group —
    // exactly one switch.
    assert_eq!(w.trace().count("lwg.rebalance.plan"), 1);
    assert_eq!(w.trace().count("lwg.rebalance.move"), 1);
    let tl = Timeline::build(w.trace());
    let moves: Vec<u64> = tl
        .of_kind("lwg.rebalance.move")
        .filter_map(|e| e.refs.lwg)
        .collect();
    assert_eq!(moves, vec![h1[0].0]);
    for lwg in moves {
        let switches = tl
            .of_kind("lwg.switch.start")
            .filter(|e| e.refs.lwg == Some(lwg))
            .count();
        assert_eq!(switches, 1, "exactly one switch per moved group");
    }

    // Quiescent and balanced: later rounds plan nothing.
    w.run_for(ms(1500));
    assert_eq!(w.trace().count("lwg.rebalance.move"), 1, "no oscillation");
}

/// Five groups on H1, one on H2, then a leave: the rebalancer converges
/// to a spread of at most one group in one planning round, no group ever
/// migrates twice, and the (still balanced) post-leave system plans no
/// further moves.
#[test]
fn rebalance_converges_without_double_migration() {
    let (mut w, a) = setup();
    let (h1, h2) = seed(&mut w, a, 5, 1);
    let all: Vec<LwgId> = h1.iter().chain(h2.iter()).copied().collect();
    w.run_for(ms(2000));

    // Converged: 5/1 became 3/3 (strict improvement stops at spread 0).
    assert_eq!(load(&mut w, a, &all, H1), 3);
    assert_eq!(load(&mut w, a, &all, H2), 3);
    let spread = load(&mut w, a, &all, H1).abs_diff(load(&mut w, a, &all, H2));
    assert!(spread <= 1, "load spread {spread} after convergence");

    // Two moves total, and no group moved twice.
    let moved: Vec<u64> = {
        let tl = Timeline::build(w.trace());
        tl.of_kind("lwg.rebalance.move")
            .filter_map(|e| e.refs.lwg)
            .collect()
    };
    assert_eq!(moved.len(), 2, "exactly two strictly-improving moves");
    let mut unique = moved.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), moved.len(), "no group migrated twice");

    // Churn: one H1 group leaves. 2 vs 3 is within threshold — a further
    // move would not strictly improve, so the system stays quiet.
    let gone = h1
        .iter()
        .copied()
        .find(|&l| mapping_of(&mut w, a, l) == Some(H1))
        .expect("a group is still on H1");
    w.invoke(a, move |n: &mut Node, ctx| n.service().leave(ctx, gone));
    w.run_for(ms(1500));
    assert_eq!(
        w.trace().count("lwg.rebalance.move"),
        2,
        "no rebalancing after the leave: spread is already within one"
    );
}
