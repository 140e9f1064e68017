//! Scale sweep: **how the sharded `GroupDirectory` behaves from 1k to
//! 100k LWGs** on a fixed node count.
//!
//! The paper's whole pitch is that light-weight groups are cheap enough
//! to create by the thousand; this sweep puts a number on "cheap" for the
//! directory that now backs them. One app process (plus one name server)
//! over the scripted substrate carries `L` singleton LWGs spread
//! round-robin across 16 HWGs, and per cell the sweep records only
//! **deterministic counters**, so the result files regenerate
//! byte-for-byte:
//!
//! * **bytes/LWG** — live heap delta across seeding, divided by `L`
//!   (allocation counts are deterministic in the simulated world);
//! * **directory lookup cost** — [`plwg_core::DirCounters`] deltas over a
//!   fixed probe window (2 s of ticks + 256 status lookups + 256 sends):
//!   `visited` is the index work a full-table scan used to spend O(L) on,
//!   so a flat value across cells *is* the directory's claim;
//! * **multicasts per delivered message** — the data plane must not
//!   amplify with the group count;
//! * **rebalance convergence** — a second world seeds the same `L` plus
//!   [`SKEW`] extra groups on one HWG, turns the rebalancer on, and counts
//!   moves and 300 ms rounds until two quiet rounds in a row;
//! * **quiet gossip bytes per period** — a third world of two peered name
//!   servers, fed the same `L` mappings by one client, counts the gossip
//!   bytes of four gossip periods after their replicas converged.
//!
//! Every run asserts the gates: memory per LWG flat, lookup cost O(1), no
//! amplification, bounded moves, and quiet gossip independent of `L`.

use crate::report::{page, Table};
use crate::{LiveBytes, Output};
use plwg_core::{
    DirCounters, HwgId, LFlushId, LwgConfig, LwgId, LwgMsg, ScriptedHwg, View, ViewId,
};
use plwg_naming::{Mapping, NameServer, NamingConfig, NsMsg, RequestId};
use plwg_obs::scenarios::Scenario;
use plwg_sim::{
    encode_frame, family, Frame, NodeId, Payload, Process, SimDuration, TimerToken, Transport,
    World, WorldConfig,
};
use std::any::Any;

type Node = plwg_core::LwgNode<ScriptedHwg>;

const HWGS: u64 = 16;
/// Status lookups and data sends per probe window.
const PROBE: usize = 256;
/// Extra groups piled onto HWG 1 for the convergence measurement.
const SKEW: u64 = 24;
const REBALANCE_EVERY: SimDuration = SimDuration::from_millis(300);

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn hwg(slot: u64) -> HwgId {
    HwgId(1 + slot)
}

fn cfg(rebalance: bool) -> LwgConfig {
    LwgConfig {
        lwg_join_timeout: ms(200),
        tick_interval: ms(100),
        pack_max_msgs: 1,
        rebalance_interval: rebalance.then_some(REBALANCE_EVERY),
        rebalance_max_moves: 8,
        ..LwgConfig::default()
    }
}

/// Measured outcome of one cell.
struct Row {
    lwgs: u64,
    bytes_per_lwg: u64,
    probe_lookups: u64,
    probe_index_queries: u64,
    probe_visited: u64,
    sends: u64,
    delivered: u64,
    rebalance_moves: u64,
    converge_rounds: u64,
    quiet_gossip_bytes: u64,
}

impl Row {
    fn multicasts_per_delivered(&self) -> f64 {
        self.sends as f64 / self.delivered.max(1) as f64
    }

    fn converge_ms(&self) -> u64 {
        self.converge_rounds * 300
    }

    fn json(&self) -> String {
        format!(
            "\"lwgs\": {}, \"hwgs\": {HWGS}, \"bytes_per_lwg\": {}, \
             \"probe_lookups\": {}, \"probe_index_queries\": {}, \"probe_visited\": {}, \
             \"multicasts\": {}, \"delivered\": {}, \"multicasts_per_delivered\": {:.2}, \
             \"rebalance_moves\": {}, \"rebalance_converge_ms\": {}, \
             \"quiet_gossip_bytes_per_period\": {}",
            self.lwgs,
            self.bytes_per_lwg,
            self.probe_lookups,
            self.probe_index_queries,
            self.probe_visited,
            self.sends,
            self.delivered,
            self.multicasts_per_delivered(),
            self.rebalance_moves,
            self.converge_ms(),
            self.quiet_gossip_bytes,
        )
    }
}

fn setup(rebalance: bool) -> (World, NodeId) {
    let mut scenario = Scenario {
        servers: 1,
        lwg: cfg(rebalance),
        ..Scenario::new(7, 1)
    };
    scenario.world.net.jitter = SimDuration::ZERO;
    let (mut w, _, apps) = scenario.build::<ScriptedHwg>();
    let app = apps[0];
    for slot in 0..HWGS {
        let view = View::initial(ViewId::new(app, 1), vec![app]);
        let h = hwg(slot);
        w.invoke(app, move |n: &mut Node, ctx| {
            n.service().hwg_stack_mut().inject_view(h, view);
            n.service().pump(ctx);
        });
    }
    w.run_for(ms(500));
    (w, app)
}

/// Seeds `count` singleton LWGs starting at id `first`, mapped onto
/// `target` (or round-robin over all 16 HWGs when `None`). `settle`
/// runs the world on afterwards; the convergence cell skips it so the
/// rebalancer's reaction is observed, not slept through.
fn seed(w: &mut World, a: NodeId, first: u64, count: u64, target: Option<HwgId>, settle: bool) {
    for i in 0..count {
        let lwg = LwgId(first + i);
        let h = target.unwrap_or_else(|| hwg(i % HWGS));
        let view = View::initial(ViewId::new(a, 1), vec![a]);
        w.invoke(a, move |n: &mut Node, ctx| {
            n.service().join(ctx, lwg);
            n.service().hwg_stack_mut().inject_data(
                h,
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
        // Drain the queued naming traffic in slices so the transient
        // event backlog stays bounded.
        if i % 8192 == 8191 {
            w.run_for(ms(1));
        }
    }
    if settle {
        w.run_for(ms(2000));
    }
}

fn dir_counters(w: &mut World, a: NodeId) -> DirCounters {
    w.inspect(a, |n: &Node| n.service_ref().directory_counters())
}

/// Every `PROBE`-th id across `1..=l` — the status-lookup and send
/// samples, spread over the whole id range (and so over every shard).
fn sample_ids(l: u64) -> Vec<u64> {
    let step = (l / PROBE as u64).max(1);
    (0..PROBE as u64)
        .map(|i| 1 + i * step)
        .filter(|&id| id <= l)
        .collect()
}

/// The client of the gossip world: it sends the writes and drops the
/// replies.
struct Writer;

impl Process for Writer {
    fn on_message(&mut self, _: &mut dyn Transport, _: NodeId, _: Payload) {}
    fn on_timer(&mut self, _: &mut dyn Transport, _: TimerToken) {}
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Gossip bytes per gossip period between two peered name servers that
/// both hold the same `l` singleton mappings, once their replicas agree.
fn quiet_gossip_bytes(l: u64) -> u64 {
    let period = NamingConfig::default().gossip_interval;
    let mut w = World::new(WorldConfig {
        seed: 7,
        ..WorldConfig::default()
    });
    let servers = [NodeId(0), NodeId(1)];
    for (me, peer) in [(servers[0], servers[1]), (servers[1], servers[0])] {
        w.add_node(Box::new(NameServer::new(
            me,
            vec![peer],
            NamingConfig::default(),
        )));
    }
    let writer = w.add_node(Box::new(Writer));
    for i in 0..l {
        let view = ViewId::new(writer, 1);
        let set = encode_frame(
            family::NS,
            &NsMsg::Set {
                req: RequestId(i),
                lwg: LwgId(1 + i),
                mapping: Mapping {
                    lwg_view: view,
                    members: vec![writer],
                    hwg: hwg(i % HWGS),
                    hwg_view: view,
                },
                preds: vec![],
            },
        );
        w.invoke(writer, move |_: &mut Writer, ctx| {
            for s in servers {
                ctx.send(s, set.clone());
            }
        });
        if i % 8192 == 8191 {
            w.run_for(ms(1));
        }
    }
    let root = |w: &mut World, s| w.inspect(s, |n: &NameServer| n.db().root());
    for _ in 0..64 {
        w.run_for(period);
        if root(&mut w, servers[0]) == root(&mut w, servers[1]) {
            let before = w.metrics().counter(plwg_naming::keys::GOSSIP_BYTES);
            w.run_for(period.saturating_mul(4));
            return (w.metrics().counter(plwg_naming::keys::GOSSIP_BYTES) - before) / 4;
        }
    }
    panic!("two name servers fed the same {l} mappings did not converge");
}

fn run_cell(l: u64, live_bytes: LiveBytes) -> Row {
    // --- world A: memory, lookup cost, data plane (rebalancer off) ----
    let (mut w, a) = setup(false);
    let live0 = live_bytes();
    seed(&mut w, a, 1, l, None, true);
    let bytes_per_lwg = (live_bytes().saturating_sub(live0)) / l;

    // Fixed probe window: 2 s of ticks, then PROBE status lookups. The
    // directory-counter deltas must not scale with `l`.
    let before = dir_counters(&mut w, a);
    w.run_for(ms(2000));
    let ids = sample_ids(l);
    w.inspect(a, {
        let ids = ids.clone();
        move |n: &Node| {
            for &id in &ids {
                assert!(n.service_ref().lwg_status(LwgId(id)).is_some());
            }
        }
    });
    let after = dir_counters(&mut w, a);

    // Data-plane probe: one 64 B multicast on each sampled group.
    w.metrics_mut().reset();
    w.invoke(a, {
        let ids = ids.clone();
        move |n: &mut Node, ctx| {
            for &id in &ids {
                n.service()
                    .send(ctx, LwgId(id), Frame::from_vec(vec![0u8; 64]));
            }
            n.service().pump(ctx);
        }
    });
    w.run_for(ms(200));
    let sends = w.metrics().counter(plwg_core::keys::DATA_SENT);
    let delivered = w.metrics().counter(plwg_core::keys::DATA_DELIVERED);
    drop(w);

    // --- world B: rebalance convergence (rebalancer on) ---------------
    let (mut w, a) = setup(true);
    seed(&mut w, a, 1, l, None, true);
    seed(&mut w, a, l + 1, SKEW, Some(hwg(0)), false);
    let (mut rounds, mut last_change, mut quiet) = (0u64, 0u64, 0u32);
    while quiet < 2 {
        let before = w.metrics().counter(plwg_core::keys::REBALANCE_MOVES);
        w.run_for(REBALANCE_EVERY);
        rounds += 1;
        if w.metrics().counter(plwg_core::keys::REBALANCE_MOVES) == before {
            quiet += 1;
        } else {
            quiet = 0;
            last_change = rounds;
        }
        assert!(rounds < 64, "rebalancer did not converge in 64 rounds");
    }
    let rebalance_moves = w.metrics().counter(plwg_core::keys::REBALANCE_MOVES);
    drop(w);

    Row {
        lwgs: l,
        bytes_per_lwg,
        probe_lookups: after.lookups - before.lookups,
        probe_index_queries: after.index_queries - before.index_queries,
        probe_visited: after.visited - before.visited,
        sends,
        delivered,
        rebalance_moves,
        converge_rounds: last_change,
        quiet_gossip_bytes: quiet_gossip_bytes(l),
    }
}

/// The gates: every figure here is a deterministic counter, so a failure
/// is a real regression, never flake.
fn gate(rows: &[Row]) {
    let (small, big) = (&rows[0], &rows[rows.len() - 1]);
    assert!(
        big.bytes_per_lwg <= small.bytes_per_lwg * 3 / 2,
        "memory per LWG grew with L: {} B at {} vs {} B at {}",
        big.bytes_per_lwg,
        big.lwgs,
        small.bytes_per_lwg,
        small.lwgs
    );
    for r in rows {
        assert!(
            r.probe_visited <= small.probe_visited + 64,
            "index work scales with L: visited {} at {} vs {} at {}",
            r.probe_visited,
            r.lwgs,
            small.probe_visited,
            small.lwgs
        );
        assert!(
            r.probe_lookups <= small.probe_lookups + 64,
            "lookup count scales with L: {} at {} vs {} at {}",
            r.probe_lookups,
            r.lwgs,
            small.probe_lookups,
            small.lwgs
        );
        assert!(
            r.multicasts_per_delivered() <= 1.01,
            "data plane amplifies with L: {:.2} multicasts/delivered at {}",
            r.multicasts_per_delivered(),
            r.lwgs
        );
        assert!(
            (1..=SKEW).contains(&r.rebalance_moves),
            "rebalancer moved {} groups for a {SKEW}-group skew at {}",
            r.rebalance_moves,
            r.lwgs
        );
        assert_eq!(
            r.quiet_gossip_bytes, small.quiet_gossip_bytes,
            "quiet gossip grows with L: {} B/period at {} vs {} B at {}",
            r.quiet_gossip_bytes, r.lwgs, small.quiet_gossip_bytes, small.lwgs
        );
    }
}

/// `lwg_scale_sweep`: the 1k, 10k and 100k cells; `live_bytes` reads the
/// process's live heap.
pub(crate) fn sweep(live_bytes: LiveBytes) -> Output {
    let mut table = Table::new(&[
        "lwgs",
        "B/lwg",
        "probe lookups",
        "probe visited",
        "mcast/delivered",
        "moves",
        "converge ms",
        "quiet gossip B/period",
    ]);
    let rows: Vec<Row> = [1_000, 10_000, 100_000]
        .into_iter()
        .map(|l| run_cell(l, live_bytes))
        .collect();
    for r in &rows {
        table.row(&[
            r.lwgs.to_string(),
            r.bytes_per_lwg.to_string(),
            r.probe_lookups.to_string(),
            r.probe_visited.to_string(),
            format!("{:.2}", r.multicasts_per_delivered()),
            r.rebalance_moves.to_string(),
            r.converge_ms().to_string(),
            r.quiet_gossip_bytes.to_string(),
        ]);
    }
    gate(&rows);
    Output {
        rows: rows.iter().map(Row::json).collect(),
        ..page(
            &format!(
                "Directory scale sweep: L singleton LWGs round-robin on {HWGS} HWGs\n\
                 (1 app node + 1 name server, scripted substrate; probe = {PROBE} lookups + {PROBE} sends;\n\
                 quiet gossip: 2 peered name servers holding the same L mappings)"
            ),
            &table,
            "",
        )
    }
}
