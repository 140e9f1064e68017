//! What the three simulator workloads share: the world (2 name servers +
//! 8 [`Host`]s on the default 1 ms ± 0.5 ms lossless network), deadline
//! waits, and the per-chunk reading of the counters.
#![forbid(unsafe_code)]

use crate::alloc::{self, Heap};
use crate::host::{Host, Stamp};
use crate::stats::LatencyHist;
use crate::trace::{self, Layer, SpannedProcess};
use plwg_core::{LwgConfig, LwgId};
use plwg_hwg::HwgSubstrate;
use plwg_naming::{NameServer, NamingConfig};
use plwg_sim::{NodeId, SimDuration, World, WorldConfig};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Application nodes in every simulator workload.
pub const APPS: usize = 8;

/// A simulated deployment whose application nodes run `Host<S>`.
pub struct SimWorld<S> {
    pub world: World,
    pub servers: [NodeId; 2],
    pub apps: Vec<NodeId>,
    /// In-order deliveries at all hosts together.
    pub progress: Arc<AtomicU64>,
    substrate: PhantomData<S>,
}

/// A reading of everything a chunk is charged with.
#[derive(Clone, Copy)]
pub struct Reading {
    pub ops: u64,
    pub heap: Heap,
    pub wire_bytes: u64,
}

impl<S: HwgSubstrate + 'static> SimWorld<S> {
    /// Two name servers (gossiping with each other) and [`APPS`] hosts.
    /// When this thread is tracing, the name servers run spanned as the
    /// naming layer.
    pub fn new(seed: u64, cfg: &LwgConfig) -> Result<Self, String> {
        let mut world = World::new(WorldConfig {
            seed,
            ..WorldConfig::default()
        });
        let ids = [NodeId(0), NodeId(1)];
        for (me, peer) in [(ids[0], ids[1]), (ids[1], ids[0])] {
            let server = NameServer::new(me, vec![peer], NamingConfig::default());
            let id = if trace::enabled() {
                world.add_node(Box::new(SpannedProcess::new(
                    server,
                    Layer::Naming,
                    Layer::Sim,
                )))
            } else {
                world.add_node(Box::new(server))
            };
            debug_assert_eq!(id, me);
        }
        let progress = Arc::new(AtomicU64::new(0));
        let mut apps = Vec::with_capacity(APPS);
        for i in 0..APPS as u32 {
            let me = NodeId(2 + i);
            let host: Host<S> = Host::new(
                me,
                &ids,
                cfg.clone(),
                Layer::Sim,
                Stamp::Transport,
                Arc::clone(&progress),
            )?;
            apps.push(world.add_node(Box::new(host)));
        }
        Ok(SimWorld {
            world,
            servers: ids,
            apps,
            progress,
            substrate: PhantomData,
        })
    }

    /// Reads the concrete host at `node`.
    pub fn host<R>(&mut self, node: NodeId, f: impl FnOnce(&Host<S>) -> R) -> R {
        self.world.inspect(node, f)
    }

    /// Changes the concrete host at `node` (outside any callback).
    pub fn host_mut<R>(&mut self, node: NodeId, f: impl FnOnce(&mut Host<S>) -> R) -> R {
        self.world.invoke(node, |h: &mut Host<S>, _| f(h))
    }

    /// Schedules `members[i]` to join `lwg` at now + `i × stagger`.
    pub fn join_staggered(&mut self, lwg: LwgId, members: &[NodeId], stagger: SimDuration) {
        for (i, &n) in members.iter().enumerate() {
            let at = self.world.now() + stagger.saturating_mul(i as u64);
            self.world
                .invoke_at(at, n, move |h: &mut Host<S>, ctx| h.join(ctx, lwg));
        }
    }

    /// Runs the world in 250 ms steps until every node of `members` holds a
    /// view of exactly `members.len()` members for every group of `lwgs`.
    /// The error names what was still missing after `limit` of virtual time.
    pub fn await_views(
        &mut self,
        lwgs: &[LwgId],
        members: &[NodeId],
        limit: SimDuration,
    ) -> Result<(), String> {
        let deadline = self.world.now() + limit;
        loop {
            let missing = lwgs.iter().copied().find_map(|lwg| {
                members.iter().copied().find_map(|n| {
                    let got = self.host(n, |h| h.service.view_of(lwg).map_or(0, |v| v.len()));
                    (got != members.len()).then_some((lwg, n, got))
                })
            });
            match missing {
                None => return Ok(()),
                Some((lwg, n, got)) if self.world.now() >= deadline => {
                    return Err(format!(
                        "views not whole after {limit} of virtual time: {lwg} at {n} has {got} of {} members",
                        members.len()
                    ));
                }
                Some(_) => self.world.run_for(SimDuration::from_millis(250)),
            }
        }
    }

    /// Advances virtual time by `span` inside a root span of the sim layer,
    /// so that what the callbacks do not cover is the simulator's own time.
    pub fn run_for(&mut self, span: SimDuration) {
        let _g = trace::span(Layer::Sim);
        self.world.run_for(span);
    }

    /// Ops completed, heap counters and bytes handed to the transport.
    pub fn reading(&self) -> Reading {
        Reading {
            ops: self.progress.load(Relaxed),
            heap: alloc::heap(),
            wire_bytes: self.world.metrics().counter(plwg_sim::keys::NET_BYTES_SENT),
        }
    }

    /// A counter of the world's registry.
    pub fn counter(&self, key: plwg_sim::CounterKey) -> u64 {
        self.world.metrics().counter(key)
    }

    /// The latency samples of every host, merged.
    pub fn latencies(&mut self) -> LatencyHist {
        let mut all = LatencyHist::default();
        for n in self.apps.clone() {
            self.host(n, |h| all.merge(&h.latency));
        }
        all
    }

    /// Directory lookups so far, all hosts.
    pub fn dir_lookups(&mut self) -> u64 {
        self.apps
            .clone()
            .into_iter()
            .map(|n| self.host(n, |h| h.service.directory_counters().lookups))
            .sum()
    }
}
