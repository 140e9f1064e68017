//! Steady-state heap allocations per delivery, under a fixed budget.
//!
//! The per-message cost of one HWG endpoint is what every light-weight
//! group mapped onto it pays, so the data plane must not allocate in
//! proportion to membership, store size or frame count. The two cases are
//! the benchmark's data workloads at test size (`sim_solo_1k`,
//! `sim_fanin_64b`): two name servers and eight nodes on the simulator, an
//! `LwgService<VsyncStack>` per node drained in every callback, two members
//! each sending one message per group per virtual millisecond. The
//! simulation is deterministic, so the ratio is an exact count, not a
//! timing, and the budget is the measured value plus 10 %.
//!
//! The same runs guard that steady traffic leaves the heap flat: the peak
//! of live bytes over eight more virtual seconds may exceed the peak over
//! the four measured ones by at most [`HEAP_GROWTH_BUDGET`]. A structure
//! that keeps something per message (a sample log, an undrained queue)
//! doubles its buffer inside that window and fails here.

mod counting_alloc;

use counting_alloc::{allocs, peak, reset_peak};
use plwg::obs::scenarios::{run_until, Scenario};
use plwg::prelude::*;
use plwg::sim::{TimerToken, Transport};
use std::any::Any;
use std::collections::BTreeMap;

/// The traffic timer. The service claims tokens `0x01..`–`0x03..` only.
const TOK_TRAFFIC: TimerToken = TimerToken(0x0B00_0000_0000_0001);
/// The group every node joins first; it founds the one HWG.
const BIG: LwgId = LwgId(100);
const APPS: usize = 8;

/// Measured 1.2900.
const SOLO_BUDGET: f64 = 1.42;
/// Measured 0.6429.
const FANIN_BUDGET: f64 = 0.71;
/// Allowed rise of the live-heap peak from the measured window to the
/// twice-as-long one after it. Measured: −448 B (solo), 0 B (fanin).
const HEAP_GROWTH_BUDGET: i64 = 16 * 1024;

/// One node: the service, a traffic timer, and a FIFO exactly-once check
/// on what it delivers.
struct Host {
    service: LwgService,
    /// Groups this node multicasts on at every traffic tick.
    send_on: Vec<LwgId>,
    /// Payload template: an 8-byte sequence number, then padding.
    scratch: Vec<u8>,
    sent: u64,
    /// Next sequence number expected per `(group, sender)`.
    expect: BTreeMap<(LwgId, NodeId), u64>,
    delivered: u64,
    out_of_order: u64,
}

impl Host {
    fn pump(&mut self) {
        for ev in self.service.drain_events() {
            if let LwgEvent::Data { lwg, src, data } = ev {
                let seq = u64::from_le_bytes(data.bytes()[..8].try_into().expect("8 bytes"));
                let expected = self.expect.entry((lwg, src)).or_insert(0);
                self.out_of_order += u64::from(seq != *expected);
                *expected = seq + 1;
                self.delivered += 1;
            }
        }
    }
}

impl Process for Host {
    fn on_start(&mut self, ctx: &mut dyn Transport) {
        self.service.start(ctx);
    }
    fn on_message(&mut self, ctx: &mut dyn Transport, from: NodeId, msg: Payload) {
        if self.service.on_message(ctx, from, &msg) {
            self.pump();
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn Transport, token: TimerToken) {
        if token == TOK_TRAFFIC {
            self.scratch[..8].copy_from_slice(&self.sent.to_le_bytes());
            self.sent += 1;
            for i in 0..self.send_on.len() {
                let payload = Frame::copy_from_slice(&self.scratch);
                self.service.send(ctx, self.send_on[i], payload);
            }
            self.pump();
            ctx.set_timer(SimDuration::from_millis(1), TOK_TRAFFIC);
        } else if self.service.on_timer(ctx, token) {
            self.pump();
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What a steady-traffic run measured.
struct Steady {
    /// Allocations ÷ deliveries over four virtual seconds.
    allocs_per_delivery: f64,
    /// Live-heap peak over the next eight virtual seconds minus the peak
    /// over those four, in bytes.
    peak_growth: i64,
}

/// Brings up `groups` with the first `members` nodes in each (plus [`BIG`]
/// over all of them), starts two senders, warms up, and measures four
/// virtual seconds of steady traffic, then eight more.
fn steady_state(cfg: LwgConfig, groups: &[LwgId], members: usize, payload: usize) -> Steady {
    let scenario = Scenario {
        lwg: cfg,
        ..Scenario::new(1, APPS)
    };
    let (mut world, _, apps) = scenario.build_with(|me, servers| Host {
        service: LwgService::builder(me)
            .servers(servers)
            .config(scenario.lwg.clone())
            .build()
            .expect("valid LWG config"),
        send_on: Vec::new(),
        scratch: vec![0; payload],
        sent: 0,
        expect: BTreeMap::new(),
        delivered: 0,
        out_of_order: 0,
    });

    let join_all = |world: &mut World, lwg: LwgId, nodes: &[NodeId]| {
        for (i, &n) in nodes.iter().enumerate() {
            let at = world.now() + SimDuration::from_millis(300 * i as u64);
            world.invoke_at(at, n, move |h: &mut Host, ctx| h.service.join(ctx, lwg));
        }
        let whole = |h: &Host| {
            h.service
                .view_of(lwg)
                .is_some_and(|v| v.len() == nodes.len())
        };
        let limit = SimDuration::from_secs(120);
        let up = run_until(world, SimDuration::from_millis(250), limit, |w| {
            nodes.iter().all(|&n| w.inspect(n, whole))
        });
        assert!(up.is_some(), "{lwg} never became whole");
    };
    join_all(&mut world, BIG, &apps);
    for &lwg in groups.iter().filter(|&&g| g != BIG) {
        join_all(&mut world, lwg, &apps[..members]);
    }
    // Let join-time naming traffic and flushes die down.
    world.run_for(SimDuration::from_secs(4));

    // Never the first joiner, who coordinates the HWG.
    for &n in &apps[1..3] {
        let send_on = groups.to_vec();
        world.invoke(n, |h: &mut Host, ctx| {
            h.send_on = send_on;
            ctx.set_timer(SimDuration::from_millis(1), TOK_TRAFFIC);
        });
    }
    world.run_for(SimDuration::from_secs(2));

    let delivered = |world: &mut World| -> u64 {
        let at = |n: &NodeId| world.inspect(*n, |h: &Host| h.delivered);
        apps.iter().map(at).sum()
    };
    let (allocs_before, delivered_before) = (allocs(), delivered(&mut world));
    reset_peak();
    world.run_for(SimDuration::from_secs(4));
    let (allocs, ops) = (
        allocs() - allocs_before,
        delivered(&mut world) - delivered_before,
    );
    let measured_peak = peak();
    reset_peak();
    world.run_for(SimDuration::from_secs(8));
    let peak_growth = peak() - measured_peak;

    // 2 senders × 1000 ticks/s × 4 s, one message per group per tick, one
    // delivery per group member; what is in flight at either edge cancels.
    let offered = 2 * 4_000 * (groups.len() * members) as u64;
    assert!(
        ops.abs_diff(offered) <= offered / 100,
        "{ops} deliveries, {offered} offered"
    );
    for &n in &apps {
        assert_eq!(
            world.inspect(n, |h: &Host| h.out_of_order),
            0,
            "FIFO at {n}"
        );
    }
    Steady {
        allocs_per_delivery: allocs as f64 / ops as f64,
        peak_growth,
    }
}

fn assert_within_budget(run: &Steady, alloc_budget: f64) {
    let ratio = run.allocs_per_delivery;
    assert!(
        ratio <= alloc_budget,
        "{ratio:.6} allocations per delivery, budget {alloc_budget}"
    );
    assert!(
        run.peak_growth <= HEAP_GROWTH_BUDGET,
        "live-heap peak grew {} B in steady state, budget {HEAP_GROWTH_BUDGET} B",
        run.peak_growth
    );
}

/// `sim_solo_1k`: default configuration, one LWG over all eight nodes,
/// 1 KiB payloads — every send is its own HWG multicast.
#[test]
fn solo_1k_stays_within_its_allocation_budget() {
    let run = steady_state(LwgConfig::default(), &[BIG], APPS, 1024);
    assert_within_budget(&run, SOLO_BUDGET);
}

/// `sim_fanin_64b`: eight co-mapped four-member LWGs, 64 B payloads,
/// packing and subset delivery on.
#[test]
fn fanin_64b_stays_within_its_allocation_budget() {
    let cfg = LwgConfig {
        pack_max_msgs: 16,
        pack_delay: SimDuration::from_millis(2),
        subset_delivery: true,
        // No policy run may re-map a group inside the window.
        policy_interval: SimDuration::from_secs(3600),
        ..LwgConfig::default()
    };
    let groups: Vec<LwgId> = (1..=8).map(LwgId).collect();
    let run = steady_state(cfg, &groups, 4, 64);
    assert_within_budget(&run, FANIN_BUDGET);
}
