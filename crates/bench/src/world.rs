//! The world every experiment but the scale sweep runs in, and the one
//! "until whole" wait.

use crate::mode::BenchNode;
use plwg_core::LwgConfig;
use plwg_naming::{NameServer, NamingConfig};
use plwg_sim::{NodeId, Process, SimDuration, SimTime, World, WorldConfig};

/// The application process of the experiments that drive the LWG service
/// directly.
pub(crate) type LwgNode = plwg_core::LwgNode<plwg_vsync::VsyncStack>;

/// `s` seconds into the run.
pub(crate) fn at(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

/// A world from `config` holding the two mutually peered name servers
/// (ids 0 and 1, configured with `naming`), then `nodes` processes with ids
/// 2, 3, … built by `node(id, servers)`. Returns the world, the servers and
/// the nodes. The add order fixes the ids and so the random stream: keep it.
pub(crate) fn build_world<P: Process + 'static>(
    config: WorldConfig,
    naming: &NamingConfig,
    nodes: usize,
    node: impl Fn(NodeId, Vec<NodeId>) -> P,
) -> (World, Vec<NodeId>, Vec<NodeId>) {
    let mut world = World::new(config);
    let servers: Vec<NodeId> = (0..2)
        .map(|i| {
            let server = NameServer::new(NodeId(i), vec![NodeId(1 - i)], naming.clone());
            world.add_node(Box::new(server))
        })
        .collect();
    let apps = (0..nodes)
        .map(|i| world.add_node(Box::new(node(NodeId(2 + i as u32), servers.clone()))))
        .collect();
    (world, servers, apps)
}

/// Builds an [`LwgNode`] with `cfg`, for [`build_world`].
pub(crate) fn lwg_node(cfg: &LwgConfig) -> impl Fn(NodeId, Vec<NodeId>) -> LwgNode + '_ {
    move |me, servers| {
        LwgNode::builder(me)
            .servers(servers)
            .config(cfg.clone())
            .build()
            .expect("valid LWG config")
    }
}

/// Runs `world` in `step`s until `whole` holds and returns the time it
/// first did, or `None` if it still does not once `limit` has passed.
pub(crate) fn run_until_whole(
    world: &mut World,
    step: SimDuration,
    limit: SimDuration,
    mut whole: impl FnMut(&mut World) -> bool,
) -> Option<SimTime> {
    let deadline = world.now() + limit;
    loop {
        if whole(world) {
            return Some(world.now());
        }
        if world.now() >= deadline {
            return None;
        }
        world.run_for(step);
    }
}

/// Whether every one of `members` (all [`BenchNode`]s) shows exactly
/// `members` as its view of `group`.
pub(crate) fn is_whole(world: &mut World, group: u64, members: &[NodeId]) -> bool {
    let mut expect = members.to_vec();
    expect.sort_unstable();
    members.iter().all(|&m| {
        world
            .inspect(m, |n: &BenchNode| n.members_of(group))
            .as_deref()
            == Some(&expect[..])
    })
}
