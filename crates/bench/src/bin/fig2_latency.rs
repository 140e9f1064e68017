//! Figure 2 (left panel): data-transfer **latency** vs. number of groups,
//! for the three service configurations.
//!
//! Expected shape (paper §3.3): *static* is the worst — interference makes
//! every process receive (and filter) both sets' traffic; *dynamic* tracks
//! *no-LWG* closely since each set's groups share a snug HWG.

use plwg_bench::{fig2_base, GROUP_COUNTS, MODES};
use plwg_bench::{fmt_us, run_two_sets, Table};

fn main() {
    println!("Figure 2 — latency vs. number of groups per set");
    println!("(2 disjoint sets of n groups, 4 processes each, 8 processes total)\n");
    let mut table = Table::new(&[
        "n",
        "mode",
        "mean",
        "p50",
        "p95",
        "max",
        "samples",
        "wire msgs",
    ]);
    for &n in GROUP_COUNTS {
        for &mode in MODES {
            let r = run_two_sets(&fig2_base(mode, n, 42));
            table.row(&[
                n.to_string(),
                mode.label().to_owned(),
                fmt_us(r.latency_us.mean),
                fmt_us(r.latency_us.p50 as f64),
                fmt_us(r.latency_us.p95 as f64),
                fmt_us(r.latency_us.max as f64),
                r.latency_us.count.to_string(),
                r.wire_msgs.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
}
