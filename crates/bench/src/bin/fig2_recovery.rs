//! Figure 2 (right panel): **time to recover from the crash of a member**
//! vs. number of groups, for the three service configurations.
//!
//! Expected shape (paper §3.3): with *no LWG service* the crashed process
//! belonged to n independent heavy-weight groups, each of which runs its
//! own full flush — recovery grows with n. With the LWG service (static or
//! dynamic) **one** HWG flush serves every co-mapped group (resource
//! sharing); per-group work shrinks to a single pruned-view announcement,
//! so recovery stays nearly flat.

use plwg_bench::{fig2_base, GROUP_COUNTS, MODES};
use plwg_bench::{run_two_sets, Table, Traffic};
use plwg_sim::SimDuration;

fn main() {
    println!("Figure 2 — crash-recovery time vs. number of groups per set");
    println!("(crash one member of set A; time until every group at every");
    println!(" survivor installs a view excluding it)\n");
    let mut table = Table::new(&["n", "mode", "recovery", "view-change", "hwgs/node"]);
    for &n in GROUP_COUNTS {
        for &mode in MODES {
            let mut params = fig2_base(mode, n, 44);
            params.crash_member = true;
            // Recovery is measured on an otherwise idle system. Protocol
            // processing is priced at 1 ms/message (SPARC-10-era stacks),
            // so the n independent flushes of the no-LWG baseline queue
            // visibly while the LWG modes run a single shared flush.
            params.proc_time = SimDuration::from_millis(1);
            params.traffic = Traffic {
                msgs_per_group: 5,
                interval: SimDuration::from_millis(50),
            };
            let r = run_two_sets(&params);
            // The failure detector needs `suspect_timeout` (500 ms) before
            // any protocol runs; the view-change column subtracts that
            // constant to expose the part that scales.
            let detect_us = 500_000u64;
            table.row(&[
                n.to_string(),
                mode.label().to_owned(),
                r.recovery
                    .map_or_else(|| "DID NOT RECOVER".to_owned(), |d| format!("{d}")),
                r.recovery.map_or_else(
                    || "-".to_owned(),
                    |d| {
                        format!(
                            "{:.1}ms",
                            (d.as_micros().saturating_sub(detect_us)) as f64 / 1e3
                        )
                    },
                ),
                format!("{:.1}", r.avg_hwgs_per_node),
            ]);
        }
    }
    println!("{}", table.render());
}
