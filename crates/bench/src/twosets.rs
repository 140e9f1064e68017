//! The paper's §3.3 evaluation workload: **two sets of n user groups**,
//! every group in a set having the same 4-process membership, the two sets
//! disjoint (8 processes total). Figure 2 measures latency, throughput and
//! crash-recovery time for the three service configurations; the
//! interference ablation reuses the bring-up and the probes.

use crate::mode::{BenchNode, ServiceMode};
use plwg_core::LwgConfig;
use plwg_obs::scenarios::{run_until, Scenario};
use plwg_sim::{Histogram, HistogramSummary, NodeId, SimDuration, SimTime, World};

/// Traffic offered to every user group.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Traffic {
    /// Messages each group's sender transmits.
    pub(crate) msgs_per_group: u64,
    /// Gap between consecutive messages of one group.
    pub(crate) interval: SimDuration,
}

impl Traffic {
    /// How long one group's stream lasts.
    pub(crate) fn span(self) -> SimDuration {
        self.interval.saturating_mul(self.msgs_per_group)
    }
}

/// Parameters of one two-sets run.
#[derive(Debug, Clone)]
pub(crate) struct TwoSetsParams {
    /// Service configuration under test.
    pub(crate) mode: ServiceMode,
    /// `n`: user groups per set (the paper's x-axis).
    pub(crate) groups_per_set: usize,
    /// Members per group (the paper used 4).
    pub(crate) members_per_group: usize,
    /// Deterministic seed.
    pub(crate) seed: u64,
    /// Per-message receive-processing cost (models host/stack CPU; the
    /// knob that makes interference measurable).
    pub(crate) proc_time: SimDuration,
    /// Offered traffic.
    pub(crate) traffic: Traffic,
    /// Crash one (non-coordinator) member of set A after the traffic phase
    /// and measure recovery.
    pub(crate) crash_member: bool,
}

/// Measurements from one two-sets run.
#[derive(Debug, Clone)]
pub(crate) struct TwoSetsResult {
    /// Configuration label.
    pub(crate) mode: ServiceMode,
    /// `n` as configured.
    pub(crate) groups_per_set: usize,
    /// Receiver-side data latency (µs), across all groups and receivers.
    pub(crate) latency_us: HistogramSummary,
    /// Delivered data messages per simulated second (all receivers).
    pub(crate) throughput_msgs_per_sec: f64,
    /// Messages put on the wire during the traffic window (protocol +
    /// data) — the shared-medium load.
    pub(crate) wire_msgs: u64,
    /// Mean number of HWGs each process belongs to after convergence (the
    /// resource-sharing footprint: 2n for no-LWG, 1 for static, 2 for
    /// dynamic).
    pub(crate) avg_hwgs_per_node: f64,
    /// Time from the crash until every affected group at every survivor
    /// installed a view excluding the crashed member (when
    /// `crash_member`).
    pub(crate) recovery: Option<SimDuration>,
}

/// In static mode everybody first joins this LWG, so that one HWG of all
/// processes exists; the user groups then map onto it and stay there.
const BOOTSTRAP_GROUP: u64 = 0;

/// Who is in which group: set A carries groups `1..=n`, set B groups
/// `1001..=1000 + n`.
pub(crate) struct Layout {
    pub(crate) set_a: Vec<NodeId>,
    pub(crate) set_b: Vec<NodeId>,
    pub(crate) groups_a: Vec<u64>,
    pub(crate) groups_b: Vec<u64>,
}

impl Layout {
    fn members(&self, group: u64) -> &[NodeId] {
        if self.groups_a.contains(&group) || group == BOOTSTRAP_GROUP {
            &self.set_a
        } else {
            &self.set_b
        }
    }

    /// Both sets' processes, set A first (the order they were added in).
    fn apps(&self) -> Vec<NodeId> {
        [&self.set_a[..], &self.set_b[..]].concat()
    }

    /// Both sets' groups, set A first.
    pub(crate) fn groups(&self) -> Vec<u64> {
        [&self.groups_a[..], &self.groups_b[..]].concat()
    }

    /// Whether each of `groups` shows its full membership at every member.
    pub(crate) fn is_whole(&self, world: &mut World, groups: &[u64]) -> bool {
        groups
            .iter()
            .all(|&g| BenchNode::is_whole(world, g, self.members(g)))
    }

    /// Schedules `traffic` on each of `groups` from its first member,
    /// starting at `t0`; the streams are offset so they do not burst in
    /// lockstep.
    pub(crate) fn send(&self, world: &mut World, groups: &[u64], t0: SimTime, traffic: Traffic) {
        for (idx, &g) in groups.iter().enumerate() {
            let sender = self.members(g)[0];
            let offset = SimDuration::from_micros(
                traffic.interval.as_micros() * idx as u64 / groups.len().max(1) as u64,
            );
            for k in 0..traffic.msgs_per_group {
                let t = t0 + offset + traffic.interval.saturating_mul(k);
                world.invoke_at(t, sender, move |n: &mut BenchNode, ctx| {
                    n.send_stamped(ctx, g, k)
                });
            }
        }
    }
}

/// Builds the two-sets world and schedules its bring-up: in static mode
/// the bootstrap LWG first (member `i` at `300 ms × i`, then 10 s), then
/// group `idx` of both sets from `150 ms × idx`, member `i` at
/// `+ 400 ms × i`, the first member founding it.
pub(crate) fn bring_up(params: &TwoSetsParams) -> (World, Layout) {
    let cfg = match params.mode {
        ServiceMode::Static => BenchNode::static_config(LwgConfig::default()),
        _ => LwgConfig::default(),
    };
    let mut scenario = Scenario::new(params.seed, params.members_per_group * 2);
    scenario.world.proc_time = params.proc_time;
    let (mut world, _, apps) =
        scenario.build_with(|me, servers| BenchNode::new(me, params.mode, servers, cfg.clone()));
    let (set_a, set_b) = apps.split_at(params.members_per_group);
    let n = params.groups_per_set as u64;
    let sets = Layout {
        set_a: set_a.to_vec(),
        set_b: set_b.to_vec(),
        groups_a: (1..=n).collect(),
        groups_b: (1..=n).map(|g| 1000 + g).collect(),
    };
    if params.mode == ServiceMode::Static {
        let now = world.now();
        join(&mut world, now, 300, BOOTSTRAP_GROUP, &apps);
        world.run_for(SimDuration::from_secs(10));
    }
    for (idx, g) in sets.groups().into_iter().enumerate() {
        let start = world.now() + SimDuration::from_millis(150 * idx as u64);
        join(&mut world, start, 400, g, sets.members(g));
    }
    (world, sets)
}

/// Schedules the join of `group` by `members`, member `i` at
/// `start + gap_ms × i`, the first one founding it.
fn join(world: &mut World, start: SimTime, gap_ms: u64, group: u64, members: &[NodeId]) {
    for (i, &m) in members.iter().enumerate() {
        let t = start + SimDuration::from_millis(gap_ms * i as u64);
        world.invoke_at(t, m, move |n: &mut BenchNode, ctx| {
            n.join_group(ctx, group, i == 0)
        });
    }
}

/// The receiver-side latency of every delivery at `nodes` sent at or after
/// `t0` by another process, and those deliveries per second of the time it
/// took to drain them: a saturated configuration keeps delivering long
/// after the senders stopped, which lowers its rate — exactly the effect
/// the paper plots.
pub(crate) fn latency(world: &mut World, nodes: &[NodeId], t0: SimTime) -> (HistogramSummary, f64) {
    let mut hist = Histogram::default();
    let mut last_recv = t0;
    for &m in nodes {
        world.inspect(m, |n: &BenchNode| {
            for d in n
                .deliveries
                .iter()
                .filter(|d| d.sent_at >= t0 && d.src != m)
            {
                hist.record(d.recv_at.saturating_since(d.sent_at).as_micros());
                last_recv = last_recv.max(d.recv_at);
            }
        });
    }
    let summary = hist.summary();
    let window = last_recv.saturating_since(t0).as_secs_f64().max(1e-9);
    (summary, summary.count as f64 / window)
}

/// Time from `t_crash` until every survivor in `set` has installed, for
/// each of `groups`, a view without `victim`; `None` if one has not.
pub(crate) fn recovery(
    world: &mut World,
    groups: &[u64],
    set: &[NodeId],
    victim: NodeId,
    t_crash: SimTime,
) -> Option<SimDuration> {
    let mut worst = None;
    for &g in groups {
        for &m in set.iter().filter(|&&m| m != victim) {
            let t = world.inspect(m, |n: &BenchNode| {
                n.views
                    .iter()
                    .find(|v| v.at >= t_crash && v.group == g && !v.members.contains(&victim))
                    .map(|v| v.at)
            })?;
            worst = worst.max(Some(t));
        }
    }
    worst.map(|w| w.saturating_since(t_crash))
}

/// Runs the full §3.3 experiment and reports Figure-2 style measurements.
///
/// # Panics
///
/// Panics if the configuration fails to converge during setup (a protocol
/// bug, not a measurement outcome).
pub(crate) fn run_two_sets(params: &TwoSetsParams) -> TwoSetsResult {
    let (mut world, sets) = bring_up(params);
    let groups = sets.groups();
    world.run_for(SimDuration::from_secs(8));
    run_until(
        &mut world,
        SimDuration::from_secs(1),
        SimDuration::from_secs(300),
        |w| sets.is_whole(w, &groups),
    )
    .expect("two-sets setup did not converge within 300 s");
    // Let the shrink rule and one policy round run so the traffic phase
    // measures the steady state, not residual reconfiguration.
    world.run_for(SimDuration::from_secs(25));

    // Footprint after convergence.
    let apps = sets.apps();
    let hwgs: usize = apps
        .iter()
        .map(|&m| world.inspect(m, |n: &BenchNode| n.hwg_ids().len()))
        .sum();

    let t0 = world.now() + SimDuration::from_secs(1);
    sets.send(&mut world, &groups, t0, params.traffic);
    let wire_before = world.metrics().counter(plwg_sim::keys::NET_SENT);
    world.run_until(t0 + params.traffic.span() + SimDuration::from_secs(3));
    let wire_msgs = world.metrics().counter(plwg_sim::keys::NET_SENT) - wire_before;
    let (latency_us, throughput_msgs_per_sec) = latency(&mut world, &apps, t0);

    let recovery = if params.crash_member {
        let victim = *sets.set_a.last().expect("set A nonempty");
        let t_crash = world.now() + SimDuration::from_secs(2);
        world.crash_at(t_crash, victim);
        world.run_until(t_crash + SimDuration::from_secs(40));
        let mut affected = sets.groups_a.clone();
        if params.mode == ServiceMode::Static {
            affected.push(BOOTSTRAP_GROUP);
        }
        recovery(&mut world, &affected, &sets.set_a, victim, t_crash)
    } else {
        None
    };

    TwoSetsResult {
        mode: params.mode,
        groups_per_set: params.groups_per_set,
        latency_us,
        throughput_msgs_per_sec,
        wire_msgs,
        avg_hwgs_per_node: hwgs as f64 / apps.len() as f64,
        recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(mode: ServiceMode, traffic: Traffic, crash_member: bool) -> TwoSetsParams {
        TwoSetsParams {
            mode,
            groups_per_set: 2,
            members_per_group: 4,
            seed: 1,
            proc_time: SimDuration::from_micros(150),
            traffic,
            crash_member,
        }
    }

    /// The smallest smoke run of each mode: groups converge, data flows.
    #[test]
    fn smoke_all_modes() {
        for mode in [
            ServiceMode::NoLwg,
            ServiceMode::Static,
            ServiceMode::Dynamic,
        ] {
            let traffic = Traffic {
                msgs_per_group: 10,
                interval: SimDuration::from_millis(50),
            };
            let r = run_two_sets(&TwoSetsParams {
                groups_per_set: 1,
                ..params(mode, traffic, false)
            });
            assert!(
                r.latency_us.count > 0,
                "{mode:?}: some deliveries must be observed"
            );
            assert!(r.throughput_msgs_per_sec > 0.0);
        }
    }

    /// Recovery is measurable in dynamic mode.
    #[test]
    fn recovery_smoke() {
        let traffic = Traffic {
            msgs_per_group: 5,
            interval: SimDuration::from_millis(50),
        };
        let r = run_two_sets(&params(ServiceMode::Dynamic, traffic, true));
        let rec = r.recovery.expect("recovery must complete");
        assert!(rec > SimDuration::ZERO);
        assert!(rec < SimDuration::from_secs(30));
    }
}
