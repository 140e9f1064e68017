//! Ablation B: **interference** between unrelated groups sharing an HWG
//! (the effect the paper's policies exist to minimise, §2/§3.3).
//!
//! Set A streams data while a member of the unrelated set B crashes. When
//! the sets are co-mapped on one HWG (static service), B's failure recovery
//! stalls A: the HWG flush stops *all* traffic on the HWG. When they ride
//! disjoint HWGs (dynamic service), A barely notices.

use crate::mode::ServiceMode;
use crate::report::{fmt_us, page, Table};
use crate::twosets::{bring_up, latency, recovery, Traffic, TwoSetsParams};
use crate::Output;
use plwg_sim::{HistogramSummary, SimDuration};

/// Runs the two-sets world with traffic on set A only and a crash of a
/// set-B member midway through the stream. Returns set A's latency (µs)
/// and set B's recovery time.
///
/// # Panics
///
/// Panics if bring-up does not converge (a protocol bug).
pub(crate) fn run_interference(params: &TwoSetsParams) -> (HistogramSummary, Option<SimDuration>) {
    let (mut world, sets) = bring_up(params);
    // Generous settle (covers shrink + a policy round).
    world.run_for(SimDuration::from_secs(45));
    assert!(
        sets.is_whole(&mut world, &sets.groups()),
        "interference setup did not converge"
    );

    let t0 = world.now() + SimDuration::from_secs(1);
    sets.send(&mut world, &sets.groups_a, t0, params.traffic);
    let victim = *sets.set_b.last().expect("set B nonempty");
    let t_crash = t0 + params.traffic.span().mul_f64(0.5);
    world.crash_at(t_crash, victim);
    world.run_until(t0 + params.traffic.span() + SimDuration::from_secs(5));

    let (latency_us, _) = latency(&mut world, &sets.set_a, t0);
    let recovered = recovery(&mut world, &sets.groups_b, &sets.set_b, victim, t_crash);
    (latency_us, recovered)
}

/// `ablation_interference`: set A's latency while a set-B member crashes,
/// static against dynamic. Asserts that co-mapping shows: the static
/// maximum is at least twice the dynamic one.
pub(crate) fn ablation() -> Output {
    let mut table = Table::new(&["mode", "mean", "p95", "max", "recovery"]);
    let mut max = Vec::new();
    for mode in [ServiceMode::Static, ServiceMode::Dynamic] {
        let (lat, recovered) = run_interference(&TwoSetsParams {
            mode,
            groups_per_set: 2,
            members_per_group: 4,
            seed: 11,
            proc_time: SimDuration::from_micros(150),
            traffic: Traffic {
                // Long stream so the crash lands mid-traffic.
                msgs_per_group: 1500,
                interval: SimDuration::from_millis(10),
            },
            crash_member: true,
        });
        table.row(&[
            mode.label().to_owned(),
            fmt_us(lat.mean),
            fmt_us(lat.p95 as f64),
            fmt_us(lat.max as f64),
            recovered.map_or_else(|| "-".into(), |d| format!("{d}")),
        ]);
        max.push(lat.max);
    }
    assert!(
        max[0] >= 2 * max[1],
        "interference: static max latency {} us is not >= 2x dynamic {} us",
        max[0],
        max[1]
    );
    page(
        "Interference: latency of group set A while a member of set B crashes\n\
         (sets are disjoint; static co-maps them on one HWG, dynamic separates)",
        &table,
        "Static co-mapping: the victim's HWG flush freezes set A's groups\n\
         (max latency includes the whole failure-detection + flush stall).\n\
         Dynamic separation: set A is unaffected by set B's recovery.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interference_shows_up_only_when_co_mapped() {
        let run = |mode| {
            run_interference(&TwoSetsParams {
                mode,
                groups_per_set: 1,
                members_per_group: 4,
                seed: 5,
                proc_time: SimDuration::from_micros(150),
                traffic: Traffic {
                    // Dense probes so several land inside the co-mapped HWG's
                    // flush-freeze window.
                    msgs_per_group: 2000,
                    interval: SimDuration::from_millis(2),
                },
                crash_member: true,
            })
        };
        let (stat, stat_recovery) = run(ServiceMode::Static);
        let (dynm, dynm_recovery) = run(ServiceMode::Dynamic);
        // Co-mapped: the flush stall shows in set A's tail latency.
        assert!(
            stat.max > 2 * dynm.max,
            "static max {} should dwarf dynamic max {}",
            stat.max,
            dynm.max
        );
        assert!(stat_recovery.is_some() && dynm_recovery.is_some());
    }
}
