//! # plwg-bench — the experiment harness
//!
//! One binary per table/figure of the paper, one per ablation, and two
//! deterministic counter sweeps whose JSON CI regenerates and diffs. See
//! `EXPERIMENTS.md` at the repository root for the full index and the
//! recorded outputs. Performance is measured elsewhere: by the repository's
//! one benchmark (`BENCHMARK.json`, `benchmark/`); the only bench target
//! here is the codec micro-bench `benches/wire.rs`.
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig2_latency` | Figure 2, data-transfer latency vs. #groups |
//! | `fig2_throughput` | Figure 2, throughput vs. #groups |
//! | `fig2_recovery` | Figure 2, crash-recovery time vs. #groups |
//! | `tab3_naming_merge` | Table 3, merged naming database |
//! | `tab4_evolution` | Table 4, naming database through the heal |
//! | `ablation_heal_sweep` | §6.4 single-flush claim + heal-time sweep |
//! | `ablation_interference` | §2/§3.3 interference quantification |
//! | `ablation_policy_params` | §3.2 policy stability vs. `k_m`/`k_c` |
//! | `ablation_ns_callback` | §6.1 callbacks vs. polling load |
//! | `sharing_efficiency` | §1 motivation, overlapping subscriptions |
//! | `pack_sweep` | extension: message packing + subset delivery (`BENCH_pack.json`) |
//! | `lwg_scale_sweep` | extension: sharded directory + rebalancer from 1k to 1M LWGs (`BENCH_scale.json`) |
//!
//! The binaries are thin wrappers over the runners in this library: the
//! three service configurations compared in Figure 2 (*no LWG service*,
//! *static LWG service*, *dynamic LWG service*), the two-disjoint-sets
//! workload of §3.3, partition/heal schedules, and measurement probes
//! (latency, throughput, recovery time, reconvergence time, message counts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod heal;
/// Interference experiment (ablation B).
pub mod interference;
mod mode;
/// Overlapping-subscription mapping-quality experiment.
pub mod overlap;
mod report;
mod twosets;

pub use heal::{run_heal, run_heal_sweep, HealParams, HealResult};
pub use mode::{BenchNode, Delivery, ServiceMode, Stamped, ViewRecord};
pub use report::{fmt_us, write_json_rows, Table};
pub use twosets::{run_two_sets, Traffic, TwoSetsParams, TwoSetsResult};

use plwg_sim::SimDuration;

/// The group counts swept on Figure 2's x-axis.
pub const GROUP_COUNTS: &[usize] = &[1, 2, 4, 8, 16];

/// The three service configurations compared throughout Figure 2.
pub const MODES: &[ServiceMode] = &[
    ServiceMode::NoLwg,
    ServiceMode::StaticLwg,
    ServiceMode::DynamicLwg,
];

/// Baseline parameters shared by the Figure-2 experiments.
pub fn fig2_base(mode: ServiceMode, n: usize, seed: u64) -> TwoSetsParams {
    TwoSetsParams {
        mode,
        groups_per_set: n,
        members_per_group: 4,
        seed,
        proc_time: SimDuration::from_micros(150),
        traffic: Traffic {
            msgs_per_group: 200,
            interval: SimDuration::from_millis(4),
        },
        crash_member: false,
    }
}

use plwg_naming::MappingDb;
use std::fmt::Write as _;

/// Renders a naming database the way the paper's Tables 3–4 do:
/// one line per LWG listing its current view-to-view mappings.
pub fn render_db(db: &MappingDb) -> String {
    let mut out = String::new();
    if db.is_empty() {
        out.push_str("  (empty)\n");
        return out;
    }
    for lwg in db.lwgs() {
        let cells: Vec<String> = db
            .read(lwg)
            .iter()
            .map(|m| format!("{} -> {} (view {})", m.lwg_view, m.hwg, m.hwg_view))
            .collect();
        let _ = writeln!(out, "  {lwg}: {}", cells.join(",  "));
    }
    out
}
