//! The two simulator data-plane workloads.
//!
//! `sim_fanin_64b`: one 8-member LWG pins the HWG at 8 members, 8 co-mapped
//! 4-member LWGs carry 64 B messages with packing and subset delivery on
//! (the shipping data-plane configuration of `throughput_sweep`).
//! `sim_solo_1k`: `LwgConfig::default()`, one LWG over all 8 nodes, 1 KiB
//! messages — every send is its own HWG multicast.
//!
//! Both offer a fixed virtual-time schedule (2 senders × one message per
//! group per virtual ms) and execute identical 1-virtual-second chunks
//! until the wall-clock budget is spent.
#![forbid(unsafe_code)]

use crate::alloc;
use crate::layers::{self, Counts, LayerInputs};
use crate::report::{Budget, Measured, Opts};
use crate::simworld::{SimWorld, APPS};
use crate::stats;
use crate::trace::{self, Spanned};
use crate::wire_replay;
use plwg_core::{LwgConfig, LwgId};
use plwg_hwg::HwgSubstrate;
use plwg_sim::{NodeId, SimDuration, SimRng};
use plwg_vsync::VsyncStack;
use std::time::Instant;

/// The group every node joins first; it founds the one HWG.
const BIG: LwgId = LwgId(100);
/// One chunk of offered load.
const CHUNK: SimDuration = SimDuration::from_secs(1);
/// Chunks of traffic run before the window opens.
const WARM_CHUNKS: usize = 2;

/// Which of the two workloads to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 8 co-mapped 4-member groups, 64 B, packed, subset delivery.
    Fanin,
    /// One 8-member group, 1 KiB, default configuration.
    Solo,
}

struct Plan {
    cfg: LwgConfig,
    /// Groups that carry traffic, with how many of the first nodes join.
    groups: Vec<LwgId>,
    members: usize,
    payload: usize,
}

impl Shape {
    fn plan(self) -> Plan {
        match self {
            Shape::Fanin => Plan {
                cfg: LwgConfig {
                    pack_max_msgs: 16,
                    pack_delay: SimDuration::from_millis(2),
                    subset_delivery: true,
                    // Pin the co-mapped regime: no policy run may re-map a
                    // group inside a window, however fast the machine.
                    policy_interval: SimDuration::from_secs(3600),
                    ..LwgConfig::default()
                },
                groups: (1..=8).map(LwgId).collect(),
                members: 4,
                payload: 64,
            },
            Shape::Solo => Plan {
                cfg: LwgConfig::default(),
                groups: vec![BIG],
                members: APPS,
                payload: 1024,
            },
        }
    }
}

/// Everything a set-up produces.
struct Ready<S> {
    sim: SimWorld<S>,
    senders: Vec<NodeId>,
    plan: Plan,
}

fn set_up<S: HwgSubstrate + 'static>(shape: Shape, seed: u64) -> Result<Ready<S>, String> {
    let plan = shape.plan();
    let mut sim: SimWorld<S> = SimWorld::new(seed, &plan.cfg)?;
    let apps = sim.apps.clone();
    let limit = SimDuration::from_secs(120);
    sim.join_staggered(BIG, &apps, SimDuration::from_millis(300));
    sim.await_views(&[BIG], &apps, limit)?;
    let members = &apps[..plan.members];
    for &lwg in plan.groups.iter().filter(|&&g| g != BIG) {
        sim.join_staggered(lwg, members, SimDuration::from_millis(200));
        sim.await_views(&[lwg], members, limit)?;
    }
    // Let join-time naming traffic and flushes die down.
    sim.world.run_for(SimDuration::from_secs(4));
    sim.await_views(&plan.groups, members, limit)?;
    let hwg = sim.host(apps[0], |h| h.service.mapping_of(BIG));
    for &lwg in &plan.groups {
        for &n in members {
            if sim.host(n, |h| h.service.mapping_of(lwg)) != hwg {
                return Err(format!("{lwg} at {n} is not mapped onto the shared HWG"));
            }
        }
    }
    // The seed picks which two members send (never the first joiner, who
    // coordinates the HWG, so every seed has the same roles) and the
    // payload bytes.
    let mut rng = SimRng::from_seed(seed ^ 0x5EED_DA7A);
    let mut pool: Vec<NodeId> = members[1..].to_vec();
    let mut senders = Vec::new();
    for _ in 0..2 {
        senders.push(pool.swap_remove(rng.range(0, pool.len() as u64) as usize));
    }
    senders.sort();
    for &n in &senders {
        let groups = plan.groups.clone();
        let payload = plan.payload;
        let mut host_rng = rng.fork();
        sim.host_mut(n, |h| h.make_sender(groups, payload, &mut host_rng));
    }
    Ok(Ready { sim, senders, plan })
}

/// Runs the workload once: set-ups, warm-up, window, drain, checks.
pub fn measure(shape: Shape, opts: &Opts) -> Result<Measured, String> {
    if opts.traced {
        measure_with::<Spanned<VsyncStack>>(shape, opts)
    } else {
        measure_with::<VsyncStack>(shape, opts)
    }
}

fn measure_with<S: HwgSubstrate + 'static>(shape: Shape, opts: &Opts) -> Result<Measured, String> {
    let mut out = Measured::default();
    let epoch = Instant::now();
    if opts.traced {
        trace::start(epoch);
    }

    // Set-up, several times over; the last one is measured on. How many
    // depends on the machine's speed, so their timings get room up front:
    // the live heap, which `peak_heap_mib` reads, must not depend on it.
    out.phases.setups_s.reserve(32);
    let mut ready = None;
    while opts.wants_setup(&out.phases.setups_s) {
        drop(ready.take());
        let t = Instant::now();
        ready = Some(set_up::<S>(shape, opts.seed)?);
        out.phases.setups_s.push(t.elapsed().as_secs_f64());
    }
    let Ready {
        mut sim,
        senders,
        plan,
    } = ready.expect("at least one set-up ran");

    // Warm-up.
    let t = Instant::now();
    for &n in &senders {
        sim.world
            .invoke(n, |h: &mut crate::host::Host<S>, ctx| h.start_traffic(ctx));
    }
    for _ in 0..WARM_CHUNKS {
        sim.run_for(CHUNK);
    }
    for n in sim.apps.clone() {
        sim.host_mut(n, |h| h.latency = Default::default());
    }
    out.phases.warm_s = t.elapsed().as_secs_f64();

    // Window. A traced window starts from a fresh ledger so that set-up
    // and warm-up spans are not in it.
    if opts.traced {
        drop(trace::finish());
        trace::start(epoch);
    }
    alloc::reset_peak();
    let counts0 = Counts::of(sim.world.metrics());
    let lookups0 = sim.dir_lookups();
    let first = sim.reading();
    let budget = Budget::new(opts.seconds);
    let mut rates = Vec::with_capacity(4096);
    let mut prefix = None;
    let mut last = first;
    loop {
        let t = Instant::now();
        sim.run_for(CHUNK);
        let wall = t.elapsed().as_secs_f64();
        let now = sim.reading();
        rates.push((now.ops - last.ops) as f64 / wall);
        last = now;
        if rates.len() == opts.prefix {
            prefix = Some((now, sim.latencies()));
        }
        if budget.spent() && rates.len() >= opts.prefix {
            break;
        }
        budget.check("the window's fixed prefix of chunks")?;
    }
    out.phases.window_s = budget.elapsed_s();
    let ledger = opts.traced.then(trace::finish);
    let counts = Counts::of(sim.world.metrics()).since(&counts0);
    let lookups = sim.dir_lookups() - lookups0;
    let (at_prefix, prefix_latency) = prefix.unwrap_or_else(|| (last, sim.latencies()));

    // Drain: stop the senders and let what is in flight arrive.
    let t = Instant::now();
    for &n in &senders {
        sim.host_mut(n, |h| h.stop_traffic());
    }
    let mut attempted = 0;
    for &n in &senders {
        let sent: u64 = sim.host(n, |h| h.sent.iter().sum());
        attempted += sent * plan.members as u64;
    }
    for _ in 0..5 {
        sim.world.run_for(CHUNK);
        if sim.reading().ops >= attempted {
            break;
        }
    }
    out.phases.drain_s = t.elapsed().as_secs_f64();

    // Checks: every message exactly once, in per-sender order, everywhere.
    let members = sim.apps[..plan.members].to_vec();
    let (mut missing, mut duplicates, mut gaps) = (0u64, 0u64, 0u64);
    for &n in &members {
        duplicates += sim.host(n, |h| h.duplicates);
        gaps += sim.host(n, |h| h.gaps);
        for &s in &senders {
            for (i, &lwg) in plan.groups.iter().enumerate() {
                let sent = sim.host(s, |h| h.sent[i]);
                let got = sim.host(n, |h| h.received_from(lwg, s));
                missing += sent.saturating_sub(got);
            }
        }
    }
    out.attempted = attempted;
    out.failed = (missing + duplicates + gaps).min(attempted);
    if out.failed > 0 {
        out.problems.push(format!(
            "{missing} deliveries missing after the drain, {duplicates} duplicated, {gaps} out of order"
        ));
    }
    Counts::of(sim.world.metrics()).check_decode_errors(&mut out.problems);

    // End-to-end metrics. Everything but the rate is taken over the fixed
    // prefix of chunks, so it repeats exactly whatever the machine's speed.
    let ops = (at_prefix.ops - first.ops).max(1) as f64;
    out.ops_per_s = stats::sustained(&rates).unwrap_or(0.0);
    out.end_to_end.extend([
        ("ops_per_s", out.ops_per_s),
        ("op_p50_us", prefix_latency.percentile(0.50)),
        (
            "allocs_per_op",
            (at_prefix.heap.total() - first.heap.total()) as f64 / ops,
        ),
        (
            "wire_bytes_per_op",
            (at_prefix.wire_bytes - first.wire_bytes) as f64 / ops,
        ),
        (
            "peak_heap_mib",
            at_prefix.heap.peak_bytes as f64 / (1024.0 * 1024.0),
        ),
    ]);

    if let Some(ledger) = ledger {
        let latency = sim.latencies();
        let wire = wire_replay::replay(&ledger.frames, &mut out.problems);
        out.per_layer = layers::metrics(&LayerInputs {
            ledger: &ledger,
            main_self_ns: ledger.total_self_ns(),
            allocs: last.heap.allocs_since(&first.heap),
            ops: last.ops - first.ops,
            op_p95_us: latency.percentile(0.95),
            samples: latency.count(),
            cycles: 0,
            chunks: rates.len() as u64,
            window_s: out.phases.window_s,
            counts: &counts,
            dir_lookups: lookups,
            wire: &wire,
            net: None,
        });
        out.trace = Some(ledger.to_json());
    }
    Ok(out)
}
