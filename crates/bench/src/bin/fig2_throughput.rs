//! Figure 2 (middle panel): data-transfer **throughput** vs. number of
//! groups, for the three service configurations.
//!
//! Expected shape (paper §3.3): *static* saturates first — every process
//! must examine both sets' traffic — while *dynamic* sustains the offered
//! load like *no-LWG* does.

use plwg_bench::{fig2_base, GROUP_COUNTS, MODES};
use plwg_bench::{run_two_sets, Table, Traffic};
use plwg_sim::SimDuration;

fn main() {
    println!("Figure 2 — throughput vs. number of groups per set");
    println!("(saturating senders: 500 msg/s per group)\n");
    let mut table = Table::new(&[
        "n",
        "mode",
        "delivered msg/s",
        "offered msg/s",
        "efficiency",
        "wire msgs",
    ]);
    for &n in GROUP_COUNTS {
        for &mode in MODES {
            let mut params = fig2_base(mode, n, 43);
            params.traffic = Traffic {
                msgs_per_group: 300,
                interval: SimDuration::from_millis(2),
            };
            let r = run_two_sets(&params);
            // Offered: 2n groups, 500 msg/s each, 3 remote receivers.
            let offered = (2 * n) as f64 * 500.0 * 3.0;
            table.row(&[
                n.to_string(),
                mode.label().to_owned(),
                format!("{:.0}", r.throughput_msgs_per_sec),
                format!("{offered:.0}"),
                format!("{:.2}", r.throughput_msgs_per_sec / offered),
                r.wire_msgs.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
}
