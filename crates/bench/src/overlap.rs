//! Overlapping-subscription workload (the paper's §1 motivation: the Swiss
//! Exchange ran "as many as 50 groups that may overlap"): N subject groups
//! with randomly drawn subscriber sets over P processes. The measurement is
//! *mapping quality*: how many heavy-weight groups the service ends up
//! using, how well they fit, and how many switches it took to get there.

use crate::mode::{BenchNode, ServiceMode};
use crate::report::{page, Table};
use crate::Output;
use plwg_core::LwgConfig;
use plwg_obs::scenarios::Scenario;
use plwg_sim::{NodeId, SimDuration, SimRng, SimTime};
use std::collections::BTreeSet;

/// Parameters of one overlap run.
#[derive(Debug, Clone)]
pub(crate) struct OverlapParams {
    /// Number of subject groups.
    pub(crate) subjects: usize,
    /// Number of processes.
    pub(crate) processes: usize,
    /// Subscribers per subject (min, max), drawn per subject.
    pub(crate) subscribers: (usize, usize),
    /// Deterministic seed (drives the subscription draw and the run).
    pub(crate) seed: u64,
    /// How long to let the policies settle after bring-up.
    pub(crate) settle: SimDuration,
}

impl Default for OverlapParams {
    fn default() -> Self {
        OverlapParams {
            subjects: 16,
            processes: 8,
            subscribers: (3, 5),
            seed: 1,
            settle: SimDuration::from_secs(60),
        }
    }
}

/// Mapping-quality measurements.
#[derive(Debug, Clone)]
pub(crate) struct OverlapResult {
    /// Distinct HWGs in use across the system at the end.
    pub(crate) distinct_hwgs: usize,
    /// Mean HWGs per process.
    pub(crate) avg_hwgs_per_node: f64,
    /// Total LWG switches performed over the run.
    pub(crate) switches: u64,
    /// Mean interference ratio across subjects: |HWG| / |LWG| for the HWG
    /// each subject ended up on (1.0 = perfect fit).
    pub(crate) mean_overhead: f64,
    /// Whether every subject converged to its full subscriber set.
    pub(crate) converged: bool,
}

/// Runs the overlap workload under the dynamic service and reports the
/// final mapping quality.
pub(crate) fn run_overlap(params: &OverlapParams) -> OverlapResult {
    assert!(params.subscribers.0 >= 1 && params.subscribers.1 <= params.processes);
    let mut draw_rng = SimRng::from_seed(params.seed ^ 0xdead_beef);
    let scenario = Scenario::new(params.seed, params.processes);
    let (mut world, _, apps) = scenario.build_with(|me, servers| {
        BenchNode::new(me, ServiceMode::Dynamic, servers, LwgConfig::default())
    });

    // Draw subscriber sets.
    let mut subscriptions: Vec<Vec<NodeId>> = Vec::new();
    for _ in 0..params.subjects {
        let size =
            draw_rng.range(params.subscribers.0 as u64, params.subscribers.1 as u64 + 1) as usize;
        let mut set: BTreeSet<NodeId> = BTreeSet::new();
        while set.len() < size {
            let idx = draw_rng.range(0, params.processes as u64) as usize;
            set.insert(apps[idx]);
        }
        subscriptions.push(set.into_iter().collect());
    }

    // Staggered joins.
    for (gi, subs) in subscriptions.iter().enumerate() {
        let g = 1 + gi as u64;
        for (i, &m) in subs.iter().enumerate() {
            let t = SimTime::from_micros(200_000 * gi as u64 + 400_000 * i as u64);
            world.invoke_at(t, m, move |n: &mut BenchNode, ctx| {
                n.join_group(ctx, g, i == 0)
            });
        }
    }
    world.run_for(params.settle);

    // Convergence + mapping quality.
    let mut converged = true;
    let mut overheads: Vec<f64> = Vec::new();
    let mut hwgs_everywhere: BTreeSet<u64> = BTreeSet::new();
    let mut hwg_count_total = 0usize;
    for (gi, subs) in subscriptions.iter().enumerate() {
        let g = 1 + gi as u64;
        converged &= BenchNode::is_whole(&mut world, g, subs);
        // Fit of the backing HWG at the first subscriber.
        let first = subs[0];
        let fit = world.inspect(first, |n: &BenchNode| n.backing_hwg_size(g));
        if let Some(hwg_size) = fit {
            overheads.push(hwg_size as f64 / subs.len() as f64);
        }
    }
    for &m in &apps {
        let hwgs = world.inspect(m, |n: &BenchNode| n.hwg_ids());
        hwg_count_total += hwgs.len();
        hwgs_everywhere.extend(hwgs);
    }
    OverlapResult {
        distinct_hwgs: hwgs_everywhere.len(),
        avg_hwgs_per_node: hwg_count_total as f64 / params.processes as f64,
        switches: world.metrics().counter(plwg_core::keys::SWITCHES),
        mean_overhead: if overheads.is_empty() {
            0.0
        } else {
            overheads.iter().sum::<f64>() / overheads.len() as f64
        },
        converged,
    }
}

/// `sharing_efficiency`: the mapping quality for 4 to 32 overlapping
/// subjects over 8 processes (3–5 subscribers each).
pub(crate) fn sharing_efficiency() -> Output {
    let mut table = Table::new(&[
        "subjects",
        "distinct HWGs",
        "HWGs/node",
        "switches",
        "overhead |HWG|/|LWG|",
        "converged",
    ]);
    for subjects in [4, 8, 16, 32] {
        let r = run_overlap(&OverlapParams {
            subjects,
            processes: 8,
            subscribers: (3, 5),
            seed: 9,
            settle: SimDuration::from_secs(90),
        });
        table.row(&[
            subjects.to_string(),
            r.distinct_hwgs.to_string(),
            format!("{:.1}", r.avg_hwgs_per_node),
            r.switches.to_string(),
            format!("{:.2}", r.mean_overhead),
            r.converged.to_string(),
        ]);
    }
    page(
        "Mapping quality: N overlapping subject groups over 8 processes\n\
         (subscribers drawn per subject: 3..=5; dynamic service)",
        &table,
        "A stand-alone-group deployment would use exactly N HWGs; the\n\
         service collapses overlapping subjects onto a small pool while\n\
         the overhead column bounds the interference each subject pays.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_smoke_shares_resources() {
        let r = run_overlap(&OverlapParams {
            subjects: 6,
            seed: 3,
            settle: SimDuration::from_secs(60),
            ..OverlapParams::default()
        });
        assert!(r.converged, "all subjects must converge");
        assert!(
            r.distinct_hwgs < 6,
            "6 overlapping subjects should share HWGs, got {}",
            r.distinct_hwgs
        );
        assert!(r.mean_overhead >= 1.0);
    }
}
