//! `sim_heal_128`: the control plane and nothing else — the paper's §6
//! procedure, over and over.
//!
//! 2 name servers (one per side of the split) + 8 nodes, 128 LWGs with
//! full membership on one HWG, no data traffic. One cycle, on a world of
//! its own: split 4|4 → 15 virtual s for both sides to settle into
//! concurrent views → heal → poll every 10 virtual ms until every LWG is
//! whole at every member. The bring-up before each cycle is a set-up.
//! An op is one LWG restored to full membership everywhere; its latency
//! runs from the heal to the last member installing the whole view,
//! stamped inside that member's callback.
#![forbid(unsafe_code)]

use crate::alloc;
use crate::layers::{self, Counts, LayerInputs};
use crate::report::{Budget, Measured, Opts};
use crate::simworld::{SimWorld, APPS};
use crate::stats;
use crate::trace::{self, Ledger, Spanned, LAYERS};
use crate::wire_replay;
use plwg_core::{LwgConfig, LwgId};
use plwg_hwg::HwgSubstrate;
use plwg_sim::{SimDuration, SimRng};
use plwg_vsync::VsyncStack;
use std::time::Instant;

/// LWGs sharing the HWG. Above ~200 this bring-up stops converging
/// steadily (see the README's findings), so the workload stays here.
pub const LWGS: u64 = 128;
/// The one world every cycle runs on.
const WORLD_SEED: u64 = 1;
const SETTLE: SimDuration = SimDuration::from_secs(15);
const POLL: SimDuration = SimDuration::from_millis(10);
const HEAL_LIMIT: SimDuration = SimDuration::from_secs(120);

fn set_up<S: HwgSubstrate + 'static>() -> Result<SimWorld<S>, String> {
    let mut sim: SimWorld<S> = SimWorld::new(WORLD_SEED, &LwgConfig::default())?;
    let apps = sim.apps.clone();
    for &n in &apps {
        sim.host_mut(n, |h| h.track_whole(APPS));
    }
    // The bring-up of `plwg_workload::run_heal`: groups 200 ms apart,
    // members 400 ms apart, same full membership → one shared HWG.
    let lwgs: Vec<LwgId> = (1..=LWGS).map(LwgId).collect();
    for &lwg in &lwgs {
        for (i, &n) in apps.iter().enumerate() {
            let at = sim.world.now()
                + SimDuration::from_millis(200 * lwg.0)
                + SimDuration::from_millis(400 * i as u64);
            sim.world
                .invoke_at(at, n, move |h: &mut crate::host::Host<S>, ctx| {
                    h.join(ctx, lwg)
                });
        }
    }
    sim.await_views(&lwgs, &apps, SimDuration::from_secs(300))?;
    Ok(sim)
}

/// What one split-and-heal cycle measured.
struct Cycle {
    /// Wall time of the bring-up before it, and of the cycle itself.
    setup_s: f64,
    wall_s: f64,
    healed: u64,
    /// Heal → whole everywhere, virtual µs, one per healed LWG.
    latencies: Vec<f64>,
    /// MERGE-VIEWS conclusions between the heal and the last whole view.
    merges: u64,
    /// What the cycle (not its bring-up) was charged with.
    allocs: [u64; LAYERS],
    peak_bytes: u64,
    wire_bytes: u64,
    counts: Counts,
    dir_lookups: u64,
    ledger: Option<Ledger>,
    problems: Vec<String>,
}

/// One cycle on a world of its own: bring-up, split, settle, heal, wait.
///
/// Every cycle starts from a fresh world because a world that has healed
/// once does not return to the state it started from: a second cycle on
/// it costs 30–50× the first and a third may not converge for minutes.
/// The world's seed and the sides (the first four joiners and name server
/// 0 against the rest) are fixed because which of the protocol's heal
/// paths is taken — 40 to 150 HWG flushes, 0.1 to 17 virtual s — depends
/// on both (see the README's findings); a run-to-run spread of that size
/// would drown any change. `--seed` draws the instant of the heal within
/// 1 ms, which moves the latencies by as much and nothing else.
fn cycle<S: HwgSubstrate + 'static>(
    seed: u64,
    epoch: Instant,
    traced: bool,
) -> Result<Cycle, String> {
    let offset = SimDuration::from_micros(SimRng::from_seed(seed).range(0, 1000));
    if traced {
        // On before the world exists, so its name servers run spanned.
        trace::start(epoch);
    }
    let t = Instant::now();
    let mut sim = set_up::<S>()?;
    let setup_s = t.elapsed().as_secs_f64();
    if traced {
        drop(trace::finish());
        trace::start(epoch);
    }
    alloc::reset_peak();
    let counts0 = Counts::of(sim.world.metrics());
    let lookups0 = sim.dir_lookups();
    let before = sim.reading();

    let t = Instant::now();
    let apps = sim.apps.clone();
    let (first, rest) = apps.split_at(APPS / 2);
    let mut side_a = vec![sim.servers[0]];
    side_a.extend(first);
    let mut side_b = vec![sim.servers[1]];
    side_b.extend(rest);
    let now = sim.world.now();
    sim.world.split_at(now, vec![side_a, side_b]);
    sim.run_for(SETTLE + offset);
    let unsplit: usize = apps.iter().map(|&n| sim.host(n, |h| h.whole)).sum();

    let merges0 = sim.counter(plwg_core::keys::VIEWS_MERGED);
    let healed_at = sim.world.now();
    sim.world.heal_at(healed_at);
    let deadline = healed_at + HEAL_LIMIT;
    let whole_everywhere = loop {
        sim.run_for(POLL);
        let whole = apps
            .iter()
            .all(|&n| sim.host(n, |h| h.whole) == LWGS as usize);
        if whole || sim.world.now() >= deadline {
            break whole;
        }
    };
    let wall_s = t.elapsed().as_secs_f64();
    let ledger = traced.then(trace::finish);
    let after = sim.reading();

    let mut latencies = Vec::with_capacity(LWGS as usize);
    for lwg in (1..=LWGS).map(LwgId) {
        let last = apps
            .iter()
            .map(|&n| sim.host(n, |h| h.whole_since(lwg)))
            .collect::<Option<Vec<_>>>()
            .and_then(|at| at.into_iter().max());
        if let Some(at) = last {
            latencies.push(at.saturating_since(healed_at).as_micros() as f64);
        }
    }
    let healed = latencies.len() as u64;
    let mut problems = Vec::new();
    if unsplit > 0 {
        problems.push(format!(
            "{unsplit} views were still whole {SETTLE} after the split"
        ));
    }
    if !whole_everywhere {
        problems.push(format!(
            "{} of {LWGS} LWGs not whole {HEAL_LIMIT} after the heal",
            LWGS - healed
        ));
    }
    let counts = Counts::of(sim.world.metrics());
    counts.check_decode_errors(&mut problems);
    Ok(Cycle {
        setup_s,
        wall_s,
        healed,
        latencies,
        merges: sim.counter(plwg_core::keys::VIEWS_MERGED) - merges0,
        allocs: after.heap.allocs_since(&before.heap),
        peak_bytes: after.heap.peak_bytes,
        wire_bytes: after.wire_bytes - before.wire_bytes,
        counts: counts.since(&counts0),
        dir_lookups: sim.dir_lookups() - lookups0,
        ledger,
        problems,
    })
}

/// Runs the workload once: one warm-up cycle, the window of cycles, checks.
pub fn measure(opts: &Opts) -> Result<Measured, String> {
    if opts.traced {
        measure_with::<Spanned<VsyncStack>>(opts)
    } else {
        measure_with::<VsyncStack>(opts)
    }
}

fn measure_with<S: HwgSubstrate + 'static>(opts: &Opts) -> Result<Measured, String> {
    let mut out = Measured::default();
    let epoch = Instant::now();

    let t = Instant::now();
    if let Some(problem) = cycle::<S>(opts.seed, epoch, opts.traced)?.problems.first() {
        return Err(format!("warm-up cycle: {problem}"));
    }
    out.phases.warm_s = t.elapsed().as_secs_f64();

    let mut rates = Vec::new();
    // Few enough samples (128 a cycle) to keep them all and rank exactly.
    let mut latency: Vec<f64> = Vec::new();
    let mut total = Totals::default();
    let mut prefix = None;
    let mut ledger = Ledger::default();
    let mut counts = Counts::default();
    let mut merges = 0;
    let budget = Budget::new(opts.seconds);
    loop {
        let c = cycle::<S>(opts.seed, epoch, opts.traced)?;
        out.phases.setups_s.push(c.setup_s);
        out.attempted += LWGS;
        out.failed += LWGS - c.healed;
        out.problems.extend(
            c.problems
                .iter()
                .map(|p| format!("cycle {}: {p}", rates.len() + 1)),
        );
        rates.push(c.healed as f64 / c.wall_s);
        latency.extend(&c.latencies);
        merges += c.merges;
        total.add(&c);
        counts.add(&c.counts);
        ledger.merge(c.ledger.unwrap_or_default());
        if rates.len() == opts.prefix {
            prefix = Some((total, stats::sorted(&latency)));
        }
        if budget.spent() && rates.len() >= opts.prefix {
            break;
        }
        budget.check("the window's fixed prefix of cycles")?;
    }
    out.phases.window_s = budget.elapsed_s();
    let (at_prefix, prefix_latency) = prefix.unwrap_or_else(|| (total, stats::sorted(&latency)));
    let cycles = rates.len() as u64;

    // The paper's §6.4 claim, checked on every run: one MERGE-VIEWS
    // conclusion per healed LWG.
    if merges != total.ops {
        out.problems.push(format!(
            "{merges} LWG view merges for {} healed LWGs (expected exactly one each)",
            total.ops
        ));
        out.failed = out.failed.max(1);
    }

    let ops = at_prefix.ops.max(1) as f64;
    out.ops_per_s = stats::sustained(&rates).unwrap_or(0.0);
    out.end_to_end.extend([
        ("ops_per_s", out.ops_per_s),
        (
            "op_p50_us",
            stats::percentile(&prefix_latency, 0.50).unwrap_or(0.0),
        ),
        (
            "allocs_per_op",
            at_prefix.allocs.iter().sum::<u64>() as f64 / ops,
        ),
        ("wire_bytes_per_op", at_prefix.wire_bytes as f64 / ops),
        (
            "peak_heap_mib",
            at_prefix.peak_bytes as f64 / (1024.0 * 1024.0),
        ),
    ]);

    if opts.traced {
        let wire = wire_replay::replay(&ledger.frames, &mut out.problems);
        out.per_layer = layers::metrics(&LayerInputs {
            ledger: &ledger,
            main_self_ns: ledger.total_self_ns(),
            allocs: total.allocs,
            ops: total.ops,
            op_p95_us: stats::percentile(&stats::sorted(&latency), 0.95).unwrap_or(0.0),
            samples: latency.len() as u64,
            cycles,
            chunks: cycles,
            // The ledger covers the cycles, not the bring-ups between them.
            window_s: total.wall_s,
            counts: &counts,
            dir_lookups: total.dir_lookups,
            wire: &wire,
            net: None,
        });
        out.trace = Some(ledger.to_json());
    }
    Ok(out)
}

/// Sums over the cycles of a window.
#[derive(Default, Clone, Copy)]
struct Totals {
    ops: u64,
    wall_s: f64,
    allocs: [u64; LAYERS],
    /// Highest live heap of any cycle.
    peak_bytes: u64,
    wire_bytes: u64,
    dir_lookups: u64,
}

impl Totals {
    fn add(&mut self, c: &Cycle) {
        self.ops += c.healed;
        self.wall_s += c.wall_s;
        for (a, b) in self.allocs.iter_mut().zip(c.allocs) {
            *a += b;
        }
        self.peak_bytes = self.peak_bytes.max(c.peak_bytes);
        self.wire_bytes += c.wire_bytes;
        self.dir_lookups += c.dir_lookups;
    }
}
