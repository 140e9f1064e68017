//! The one world builder, and the deterministic scenario worlds to build
//! timelines from.
//!
//! Every run the paper describes happens in the same kind of world:
//! replicated name servers, one per future partition side (§5.2), then the
//! member processes that join LWGs. [`Scenario`] builds it — for the
//! tests, the experiments and the packaged scenarios alike — and
//! [`join_staggered`], [`run_until`] and [`agree`] are the join wave, the
//! wait and the agreement check they share. The schedule is the [`World`]'s
//! own (`split_at`, `heal_at`, `crash_at`, `invoke_at`, …).
//! [`delivery_mismatches`] is the virtual-synchrony oracle over what the
//! members delivered.
//!
//! The packaged scenarios in [`SCENARIOS`] drive the full PLWG stack (name
//! servers + `LwgService` over the virtually-synchronous substrate) through
//! a scripted run with tracing on, and return the world so callers can
//! inspect `world.trace()` — the `timeline` bin renders
//! [`crate::Timeline::build`] over it.

use plwg_core::{HwgSubstrate, LwgConfig, LwgEvent, LwgId, LwgNode, View, ViewId};
use plwg_naming::{NameServer, NamingConfig};
use plwg_sim::{Frame, NodeId, Process, SimDuration, SimTime, World, WorldConfig};
use plwg_vsync::VsyncStack;
use std::collections::{BTreeMap, BTreeSet};

/// The production node type the scenarios simulate.
pub type Node = LwgNode<VsyncStack>;

/// A world as plain data: the simulator's configuration, the name servers
/// and the member processes. [`Scenario::build`] adds the servers first
/// (ids `0..servers`, each peered with all the others), then the `apps`
/// members (the ids after them); the add order fixes the ids and so the
/// random stream.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The simulator's configuration: seed, network model, tracing.
    pub world: WorldConfig,
    /// How many name servers: 1 (unpeered) or 2 (peered with each other).
    pub servers: usize,
    /// Every name server's configuration.
    pub naming: NamingConfig,
    /// How many member processes.
    pub apps: usize,
    /// Every member's configuration (for [`Scenario::build`]).
    pub lwg: LwgConfig,
}

impl Scenario {
    /// Two peered name servers and `apps` members in a world seeded with
    /// `seed`, every config at its default.
    pub fn new(seed: u64, apps: usize) -> Self {
        Scenario {
            world: WorldConfig {
                seed,
                ..WorldConfig::default()
            },
            servers: 2,
            naming: NamingConfig::default(),
            apps,
            lwg: LwgConfig::default(),
        }
    }

    /// [`Scenario::new`], with the trace on.
    pub fn traced(seed: u64, apps: usize) -> Self {
        let mut scenario = Scenario::new(seed, apps);
        scenario.world.trace = true;
        scenario
    }

    /// Builds the world with an `LwgNode<S>` per member. Returns the world,
    /// the server ids and the member ids.
    pub fn build<S: HwgSubstrate + 'static>(&self) -> (World, Vec<NodeId>, Vec<NodeId>) {
        self.build_with(|me, servers| {
            LwgNode::<S>::builder(me)
                .servers(servers)
                .config(self.lwg.clone())
                .build()
                .expect("valid LWG config")
        })
    }

    /// Builds the world with `node(id, servers)` as each member, for
    /// members that are not an `LwgNode`. Returns the world, the server ids
    /// and the member ids.
    pub fn build_with<P: Process + 'static>(
        &self,
        mut node: impl FnMut(NodeId, Vec<NodeId>) -> P,
    ) -> (World, Vec<NodeId>, Vec<NodeId>) {
        let mut world = World::new(self.world.clone());
        let ids = |from: usize, n: usize| (from..from + n).map(|i| NodeId(i as u32));
        let servers: Vec<NodeId> = ids(0, self.servers)
            .map(|me| {
                let peers = ids(0, self.servers).filter(|&p| p != me).collect();
                let server = NameServer::new(me, peers, self.naming.clone());
                world.add_node(Box::new(server))
            })
            .collect();
        let apps = ids(self.servers, self.apps)
            .map(|me| world.add_node(Box::new(node(me, servers.clone()))))
            .collect();
        (world, servers, apps)
    }
}

/// Schedules one join wave: `members[i]` joins `lwg` at `start + gap × i`.
pub fn join_staggered<S: HwgSubstrate + 'static>(
    world: &mut World,
    lwg: LwgId,
    members: &[NodeId],
    start: SimTime,
    gap: SimDuration,
) {
    for (i, &m) in members.iter().enumerate() {
        let at = start + gap.saturating_mul(i as u64);
        world.invoke_at(at, m, move |n: &mut LwgNode<S>, ctx| {
            n.service().join(ctx, lwg)
        });
    }
}

/// Runs `world` in `step`s until `done` holds and returns the time it
/// first did, or `None` if it still does not once `limit` has passed.
pub fn run_until(
    world: &mut World,
    step: SimDuration,
    limit: SimDuration,
    mut done: impl FnMut(&mut World) -> bool,
) -> Option<SimTime> {
    let deadline = world.now() + limit;
    loop {
        if done(world) {
            return Some(world.now());
        }
        if world.now() >= deadline {
            return None;
        }
        world.run_for(step);
    }
}

/// Whether every one of `members` (each an `LwgNode<S>`) holds a current
/// view of `lwg` whose members are exactly `members` (which are distinct).
/// It allocates nothing, so a heal window's allocation count can include
/// the waits on it.
pub fn agree<S: HwgSubstrate + 'static>(world: &mut World, lwg: LwgId, members: &[NodeId]) -> bool {
    let exact = |v: &View| v.len() == members.len() && members.iter().all(|&m| v.contains(m));
    members
        .iter()
        .all(|&m| world.inspect(m, |n: &LwgNode<S>| n.current_view(lwg).is_some_and(exact)))
}

/// Two members of an LWG that installed `view` and then `next`, but
/// delivered different messages in `view` (see [`delivery_mismatches`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryMismatch {
    /// The view whose delivered sets differ.
    pub view: ViewId,
    /// The successor both members installed after it.
    pub next: ViewId,
    /// The two members, in the order they were given.
    pub pair: (NodeId, NodeId),
    /// How many messages each of the two delivered that the other did not.
    pub only: (usize, usize),
}

/// The messages (sender, payload) one member delivered in one view.
type Messages = BTreeSet<(NodeId, Vec<u8>)>;

/// The messages one member delivered in each view of a group, keyed by
/// that view and the next one it installed.
type Delivered = BTreeMap<(ViewId, ViewId), Messages>;

/// Virtual synchrony of `lwg` over `members` (each an `LwgNode<S>`), read
/// from their recorded upcalls: every two members that installed the same
/// view followed by the same successor delivered the same messages in it.
/// Returns each pair and view for which that fails, so empty is the pass.
/// A view a member left, or still holds, is not compared.
pub fn delivery_mismatches<S: HwgSubstrate + 'static>(
    world: &mut World,
    lwg: LwgId,
    members: &[NodeId],
) -> Vec<DeliveryMismatch> {
    let delivered: Vec<(NodeId, Delivered)> = members
        .iter()
        .map(|&m| {
            let history = |n: &LwgNode<S>| delivered_by_view(n.events_ref().history(), lwg);
            (m, world.inspect(m, history))
        })
        .collect();
    let mut found = Vec::new();
    for (i, (a, of_a)) in delivered.iter().enumerate() {
        for (b, of_b) in delivered.iter().skip(i + 1) {
            for (&(view, next), at_a) in of_a {
                let Some(at_b) = of_b.get(&(view, next)) else {
                    continue;
                };
                if at_a != at_b {
                    found.push(DeliveryMismatch {
                        view,
                        next,
                        pair: (*a, *b),
                        only: (at_a.difference(at_b).count(), at_b.difference(at_a).count()),
                    });
                }
            }
        }
    }
    found
}

/// What one member delivered in each view of `lwg` that it installed a
/// successor of, from its upcalls in delivery order.
fn delivered_by_view(history: &[LwgEvent], lwg: LwgId) -> Delivered {
    let mut delivered = Delivered::new();
    let mut current: Option<(ViewId, Messages)> = None;
    for event in history {
        match event {
            LwgEvent::View { lwg: l, view } if *l == lwg => {
                if let Some((id, set)) = current.replace((view.id, Messages::new())) {
                    delivered.insert((id, view.id), set);
                }
            }
            LwgEvent::Data { lwg: l, src, data } if *l == lwg => {
                if let Some((_, set)) = &mut current {
                    set.insert((*src, data.to_vec()));
                }
            }
            LwgEvent::Left { lwg: l } if *l == lwg => current = None,
            _ => {}
        }
    }
    delivered
}

/// Two members join one group and exchange a multicast — the smallest
/// end-to-end run (mirrors `examples/quickstart.rs`).
pub fn quickstart() -> World {
    let one_server = Scenario {
        servers: 1,
        ..Scenario::traced(0, 2)
    };
    let (mut world, _, apps) = one_server.build::<VsyncStack>();
    let (a, b) = (apps[0], apps[1]);
    let g = LwgId(7);
    world.invoke(a, move |n: &mut Node, ctx| n.service().join(ctx, g));
    world.invoke_at(SimTime::from_secs(2), b, move |n: &mut Node, ctx| {
        n.service().join(ctx, g)
    });
    world.run_until(SimTime::from_secs(8));
    world.invoke(a, move |n: &mut Node, ctx| {
        n.service().send(ctx, g, Frame::from_u64(42));
    });
    world.run_until(SimTime::from_secs(10));
    world
}

/// The paper's headline scenario, on the variant that exercises the
/// **whole** four-step §6 procedure: the network is split *before* the
/// group exists, each side founds the group on its own freshly allocated
/// HWG, and the t=20s heal must run naming reconciliation →
/// MULTIPLE-MAPPINGS → the highest-gid mapping **switch** → the
/// MERGE-VIEWS single flush, back to one merged view.
pub fn heal() -> World {
    let (mut world, servers, nodes) = Scenario::traced(31, 4).build::<VsyncStack>();
    let group = LwgId(9);
    let (side_a, side_b) = nodes.split_at(2);
    world.split_at(
        SimTime::from_secs(1),
        vec![
            [&servers[..1], side_a].concat(),
            [&servers[1..], side_b].concat(),
        ],
    );
    for side in [side_a, side_b] {
        let gap = SimDuration::from_millis(400);
        join_staggered::<VsyncStack>(&mut world, group, side, SimTime::from_secs(2), gap);
    }
    world.run_until(SimTime::from_secs(18));
    // Both sides stay live in their concurrent views.
    for &(n, v) in &[(nodes[0], 100u64), (nodes[2], 200u64)] {
        world.invoke(n, move |app: &mut Node, ctx| {
            app.service().send(ctx, group, Frame::from_u64(v));
        });
    }
    world.heal_at(SimTime::from_secs(20));
    world.run_until(SimTime::from_secs(60));
    world
}

/// Membership churn without partitions: staggered joins, one voluntary
/// leave and one crash, exercising LWG flushes and the prune path.
pub fn churn() -> World {
    let one_server = Scenario {
        servers: 1,
        ..Scenario::traced(0, 4)
    };
    let (mut world, _, nodes) = one_server.build::<VsyncStack>();
    let g = LwgId(3);
    let gap = SimDuration::from_secs(1);
    join_staggered::<VsyncStack>(&mut world, g, &nodes, SimTime::ZERO, gap);
    world.run_until(SimTime::from_secs(10));
    let leaver = nodes[3];
    world.invoke(leaver, move |app: &mut Node, ctx| {
        app.service().leave(ctx, g)
    });
    world.run_until(SimTime::from_secs(15));
    world.crash(nodes[2]);
    world.run_until(SimTime::from_secs(25));
    world
}

/// A packaged scenario: its name and the run that returns its world.
pub type Packaged = (&'static str, fn() -> World);

/// Every packaged scenario, by name: what the `timeline` bin can render.
pub const SCENARIOS: &[Packaged] = &[("quickstart", quickstart), ("heal", heal), ("churn", churn)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_view_is_compared_only_between_the_same_two_views() {
        let (g, other) = (LwgId(1), LwgId(2));
        let view = |seq| View::initial(ViewId::new(NodeId(1), seq), vec![NodeId(1)]);
        let install = |seq| LwgEvent::View {
            lwg: g,
            view: view(seq),
        };
        let data = |lwg, v| LwgEvent::Data {
            lwg,
            src: NodeId(1),
            data: Frame::from_u64(v),
        };
        let history = [
            data(g, 0),
            install(1),
            data(g, 1),
            data(other, 9),
            data(g, 2),
            install(2),
            data(g, 3),
            LwgEvent::Left { lwg: g },
            install(4),
            data(g, 4),
        ];
        let delivered = delivered_by_view(&history, g);
        let payload = |v| (NodeId(1), Frame::from_u64(v).to_vec());
        let first = (ViewId::new(NodeId(1), 1), ViewId::new(NodeId(1), 2));
        assert_eq!(delivered.keys().collect::<Vec<_>>(), vec![&first]);
        assert_eq!(delivered[&first], BTreeSet::from([payload(1), payload(2)]));
    }
}
