//! Ablation B: **interference** between unrelated groups sharing an HWG
//! (the effect the paper's policies exist to minimise, §2/§3.3).
//!
//! Group X streams data while an unrelated group Y suffers a member crash.
//! When X and Y are co-mapped on one HWG (static service), Y's failure
//! recovery stalls X: the HWG flush stops *all* traffic on the HWG. When X
//! and Y ride disjoint HWGs (dynamic service), X barely notices.

use plwg_bench::{fmt_us, ServiceMode, Table, Traffic, TwoSetsParams};
use plwg_sim::SimDuration;

fn main() {
    println!("Interference: latency of group set A while a member of set B crashes");
    println!("(sets are disjoint; static co-maps them on one HWG, dynamic separates)\n");
    let mut table = Table::new(&["mode", "mean", "p95", "max", "recovery"]);
    for mode in [ServiceMode::StaticLwg, ServiceMode::DynamicLwg] {
        let params = TwoSetsParams {
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
        };
        // The crash must land *during* set A's traffic, so this uses the
        // dedicated interference runner rather than `run_two_sets`.
        let r = plwg_bench::interference::run_interference(&params);
        table.row(&[
            mode.label().to_owned(),
            fmt_us(r.latency_us.mean),
            fmt_us(r.latency_us.p95 as f64),
            fmt_us(r.latency_us.max as f64),
            r.recovery.map_or_else(|| "-".into(), |d| format!("{d}")),
        ]);
    }
    println!("{}", table.render());
    println!("Static co-mapping: the victim's HWG flush freezes set A's groups");
    println!("(max latency includes the whole failure-detection + flush stall).");
    println!("Dynamic separation: set A is unaffected by set B's recovery.");
}
