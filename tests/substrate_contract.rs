//! The Table-1 contract ([`HwgSubstrate`]) checked on both implementations,
//! `ScriptedHwg` and `VsyncStack`, through the trait alone.
//!
//! One node in a one-node world walks one group through its life: create,
//! send, a forced flush answered by `stop_ok`, leave, and a join nobody
//! answers. After each step the test asserts the upcalls the step raised,
//! `status_of` and `groups`, and at the end it checks the ordering
//! obligation the trait documents: every `Data` carries the id of the last
//! `View` before it. Where the two substrates differ on a step, the test
//! asserts what each one does and says why.

use plwg::core::{GroupStatus, ScriptedHwg};
use plwg::prelude::*;
use plwg::sim::TimerToken;
use std::any::{Any, TypeId};

const ME: NodeId = NodeId(0);
const G: HwgId = HwgId(9);

/// Long enough for every timer-driven step of `VsyncStack` (its flush
/// watchdog, its join probes) to fire more than once.
const SETTLE: SimDuration = SimDuration::from_secs(5);

/// The process that hosts the substrate: it forwards messages and timers
/// and keeps what the substrate raised until the test takes it.
struct Host<S> {
    hwg: S,
    raised: Vec<HwgEvent>,
}

impl<S: HwgSubstrate + 'static> Process for Host<S> {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        self.hwg.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        if self.hwg.on_message(ctx, from, &msg) {
            self.hwg.drain_events_into(&mut self.raised);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        if self.hwg.on_timer(ctx, token) {
            self.hwg.drain_events_into(&mut self.raised);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The one-node world, and every upcall the node has raised so far.
struct OneNode<S> {
    world: World,
    log: Vec<Up>,
    _substrate: std::marker::PhantomData<S>,
}

impl<S: HwgSubstrate + 'static> OneNode<S> {
    fn new() -> Self {
        let cfg = HwgConfig {
            auto_stop_ok: false,
            ..HwgConfig::default()
        };
        let mut world = World::new(WorldConfig::default());
        let hwg = S::build(ME, &cfg);
        assert_eq!(hwg.node(), ME);
        let id = world.add_node(Box::new(Host {
            hwg,
            raised: Vec::new(),
        }));
        assert_eq!(id, ME);
        world.run_for(SimDuration::from_secs(1));
        OneNode {
            world,
            log: Vec::new(),
            _substrate: std::marker::PhantomData,
        }
    }

    /// Makes down-calls, and returns the upcalls they raised at once.
    fn call(&mut self, f: impl FnOnce(&mut S, &mut dyn Transport) + 'static) -> Vec<Up> {
        self.world.invoke(ME, |h: &mut Host<S>, ctx| {
            f(&mut h.hwg, ctx);
            h.hwg.drain_events_into(&mut h.raised);
        });
        self.take()
    }

    /// Lets [`SETTLE`] of virtual time pass, and returns what it raised.
    fn settle(&mut self) -> Vec<Up> {
        self.world.run_for(SETTLE);
        self.take()
    }

    fn take(&mut self) -> Vec<Up> {
        let raised = self
            .world
            .invoke(ME, |h: &mut Host<S>, _| std::mem::take(&mut h.raised));
        let raised = ups(raised);
        self.log.extend(raised.iter().cloned());
        raised
    }

    fn read<R>(&mut self, f: impl FnOnce(&S) -> R) -> R {
        self.world.inspect(ME, |h: &Host<S>| f(&h.hwg))
    }

    /// `status_of(G)` and `groups()`.
    fn state(&mut self) -> (GroupStatus, Vec<HwgId>) {
        self.read(|s| (s.status_of(G), s.groups()))
    }
}

/// One upcall of group `G` from this node, in a form `assert_eq!` can
/// compare: a `View` by its id, members and predecessors, a `Data` by its
/// view id and `u64` payload.
#[derive(Debug, Clone, PartialEq)]
enum Up {
    View(ViewId, Vec<NodeId>, Vec<ViewId>),
    Data(ViewId, u64),
    Stop,
    Left,
}

fn ups(events: Vec<HwgEvent>) -> Vec<Up> {
    let up = |ev| match ev {
        HwgEvent::View { hwg, view } => {
            (hwg, ME, Up::View(view.id, view.members, view.predecessors))
        }
        HwgEvent::Data {
            hwg,
            view_id,
            src,
            data,
        } => (
            hwg,
            src,
            Up::Data(view_id, data.try_u64().expect("u64 payload")),
        ),
        HwgEvent::Stop { hwg } => (hwg, ME, Up::Stop),
        HwgEvent::Left { hwg } => (hwg, ME, Up::Left),
    };
    let check = |(hwg, src, up)| {
        assert_eq!((hwg, src), (G, ME), "{up:?}");
        up
    };
    events.into_iter().map(up).map(check).collect()
}

/// The id of a singleton `View` with no predecessors, the only upcall.
fn only_fresh_singleton(raised: &[Up]) -> ViewId {
    match raised {
        [Up::View(id, members, preds)] if members == &[ME] && preds.is_empty() => *id,
        other => panic!("expected one fresh singleton View, got {other:?}"),
    }
}

/// The trait's ordering obligation: a `Data` carries the id of the last
/// `View` raised before it on its group.
fn assert_data_follows_its_view(log: &[Up]) {
    let mut current = None;
    for up in log {
        match up {
            Up::View(id, ..) => current = Some(*id),
            Up::Left => current = None,
            Up::Data(tag, _) => assert_eq!(
                Some(*tag),
                current,
                "a Data outside the view it is tagged with: {log:?}"
            ),
            Up::Stop => {}
        }
    }
}

fn contract<S: HwgSubstrate + 'static>() {
    let vsync = TypeId::of::<S>() == TypeId::of::<VsyncStack>();
    let mut n = OneNode::<S>::new();
    assert_eq!(n.state(), (GroupStatus::Left, vec![]));

    // `create`: one View of a singleton, at once; this node coordinates it.
    let v1 = only_fresh_singleton(&n.call(|s, ctx| s.create(ctx, G)));
    assert!(n.settle().is_empty());
    assert_eq!(n.state(), (GroupStatus::Member, vec![G]));
    assert_eq!(n.read(|s| s.view_of(G).map(|v| v.id)), Some(v1));
    assert!(n.read(|s| s.is_coordinator(G)));

    // `send`: delivered to the sender at once, tagged with the view.
    let sent = n.call(|s, ctx| s.send(ctx, G, Frame::from_u64(1)));
    assert_eq!(sent, [Up::Data(v1, 1)]);
    assert_eq!(n.state(), (GroupStatus::Member, vec![G]));

    // `force_flush` by the sole coordinator raises Stop. A second
    // `force_flush` while the first runs is a no-op, and a send before
    // `stop_ok` still belongs to the closing view.
    let flush = n.call(|s, ctx| {
        s.force_flush(ctx, G);
        s.force_flush(ctx, G);
        s.send(ctx, G, Frame::from_u64(2));
    });
    if vsync {
        // Difference: VsyncStack's flush request reaches its own node over
        // the network, so the Stop comes later, and a `stop_ok` before it
        // answers nothing.
        assert_eq!(flush, [Up::Data(v1, 2)]);
        assert!(n.call(|s, ctx| s.stop_ok(ctx, G)).is_empty());
        // Difference: an unanswered flush is restarted by the watchdog, and
        // each round supersedes the last with a Stop of its own.
        let stops = n.settle();
        assert!(
            stops.len() >= 2,
            "the watchdog restarts the flush: {stops:?}"
        );
        assert!(stops.iter().all(|up| *up == Up::Stop), "{stops:?}");
    } else {
        // ScriptedHwg delivers its flush request to itself at once, and
        // raises one Stop per flush.
        assert_eq!(flush, [Up::Stop, Up::Data(v1, 2)]);
        assert!(n.settle().is_empty());
    }
    assert_eq!(n.state(), (GroupStatus::Member, vec![G]));
    assert_eq!(n.read(|s| s.view_of(G).map(|v| v.id)), Some(v1));

    // `stop_ok` ends the flush: a successor View that names the old view as
    // its predecessor, with the same members. One `stop_ok` answers the
    // running round, whatever superseded rounds raised before it. A send
    // after `stop_ok` is delivered in the successor view, after its View.
    let mut after = n.call(|s, ctx| {
        s.stop_ok(ctx, G);
        s.send(ctx, G, Frame::from_u64(3));
    });
    if vsync {
        // Difference: VsyncStack installs the successor when its own flush
        // messages come back over the network, and holds the send till then.
        assert!(after.is_empty());
    }
    after.extend(n.settle());
    let v2 = match &after[..] {
        [Up::View(id, members, preds), Up::Data(tag, 3)] if tag == id => {
            assert_eq!((&members[..], &preds[..]), (&[ME][..], &[v1][..]));
            *id
        }
        other => panic!("expected the successor View then its Data, got {other:?}"),
    };
    assert_ne!(v2, v1);
    assert_eq!(n.state(), (GroupStatus::Member, vec![G]));

    // A `stop_ok` that races with a View already delivered (no Stop is
    // outstanding) is a no-op.
    assert!(n.call(|s, ctx| s.stop_ok(ctx, G)).is_empty());
    assert!(n.settle().is_empty());
    assert_eq!(n.read(|s| s.view_of(G).map(|v| v.id)), Some(v2));

    // `leave` by the sole member gives Left at once.
    assert_eq!(n.call(|s, ctx| s.leave(ctx, G)), [Up::Left]);
    assert!(n.settle().is_empty());
    assert_eq!(n.state(), (GroupStatus::Left, vec![]));
    assert_eq!(n.read(|s| s.view_of(G).map(|v| v.id)), None);

    // `join` with nobody to answer.
    assert!(n.call(|s, ctx| s.join(ctx, G)).is_empty());
    let (status, groups) = n.state();
    assert_eq!(status, GroupStatus::Joining);
    if vsync {
        // Difference: VsyncStack's `groups` lists a group it is still
        // joining, and when no view answers its probes it forms a
        // singleton view of its own.
        assert_eq!(groups, [G]);
        only_fresh_singleton(&n.settle());
        assert_eq!(n.state(), (GroupStatus::Member, vec![G]));
    } else {
        // ScriptedHwg's `groups` lists only groups it is a member of, and
        // a join waits for a view the test injects.
        assert_eq!(groups, []);
        assert!(n.settle().is_empty());
        assert_eq!(n.state(), (GroupStatus::Joining, vec![]));
    }

    assert_data_follows_its_view(&n.log);
}

#[test]
fn scripted_hwg_keeps_the_table_1_contract() {
    contract::<ScriptedHwg>();
}

#[test]
fn vsync_stack_keeps_the_table_1_contract() {
    contract::<VsyncStack>();
}
