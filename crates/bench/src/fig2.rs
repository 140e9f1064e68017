//! Figure 2: data-transfer latency, throughput and crash-recovery time vs.
//! the number of groups per set, for the three service configurations.
//!
//! Expected shapes (paper §3.3): *static* is the worst for data transfer —
//! every process receives (and filters) both sets' traffic, so it
//! saturates first — while *dynamic* tracks *no-LWG*, each set's groups
//! sharing a snug HWG. For recovery, the crashed process belonged to n
//! independent HWGs under *no LWG*, each running its own flush, so recovery
//! grows with n; with the LWG service **one** HWG flush serves every
//! co-mapped group: its view installs each group's pruned view at every
//! survivor, with no LWG message, so recovery stays nearly flat.

use crate::mode::ServiceMode;
use crate::report::{fmt_us, page, Table};
use crate::twosets::{run_two_sets, Traffic, TwoSetsParams, TwoSetsResult};
use crate::Output;
use plwg_core::HwgConfig;
use plwg_sim::SimDuration;

/// The group counts on Figure 2's x-axis.
const GROUP_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Runs every mode at every n from the baseline parameters as `tune`
/// changes them, n-major.
fn sweep(seed: u64, tune: impl Fn(TwoSetsParams) -> TwoSetsParams) -> Vec<TwoSetsResult> {
    let mut results = Vec::new();
    for groups_per_set in GROUP_COUNTS {
        for mode in [
            ServiceMode::NoLwg,
            ServiceMode::Static,
            ServiceMode::Dynamic,
        ] {
            results.push(run_two_sets(&tune(TwoSetsParams {
                mode,
                groups_per_set,
                members_per_group: 4,
                seed,
                proc_time: SimDuration::from_micros(150),
                traffic: Traffic {
                    msgs_per_group: 200,
                    interval: SimDuration::from_millis(4),
                },
                crash_member: false,
            })));
        }
    }
    results
}

/// The result for `mode` at `n` groups per set.
fn cell(results: &[TwoSetsResult], n: usize, mode: ServiceMode) -> &TwoSetsResult {
    results
        .iter()
        .find(|r| r.groups_per_set == n && r.mode == mode)
        .expect("every cell was run")
}

/// `fig2_latency`. Asserts that static collapses: at n = 16 its mean is at
/// least 10× the dynamic mean.
pub(crate) fn latency() -> Output {
    let results = sweep(42, |p| p);
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
    for r in &results {
        table.row(&[
            r.groups_per_set.to_string(),
            r.mode.label().to_owned(),
            fmt_us(r.latency_us.mean),
            fmt_us(r.latency_us.p50 as f64),
            fmt_us(r.latency_us.p95 as f64),
            fmt_us(r.latency_us.max as f64),
            r.latency_us.count.to_string(),
            r.wire_msgs.to_string(),
        ]);
    }
    let stat = cell(&results, 16, ServiceMode::Static).latency_us.mean;
    let dynm = cell(&results, 16, ServiceMode::Dynamic).latency_us.mean;
    assert!(
        stat >= 10.0 * dynm,
        "Fig. 2: at n = 16 static mean latency {stat:.0} us is not >= 10x dynamic {dynm:.0} us"
    );
    page(
        "Figure 2 — latency vs. number of groups per set\n\
         (2 disjoint sets of n groups, 4 processes each, 8 processes total)",
        &table,
        "",
    )
}

/// `fig2_throughput`. Asserts that dynamic sustains what no-LWG does:
/// within 2 % of it at every n.
pub(crate) fn throughput() -> Output {
    let results = sweep(43, |p| TwoSetsParams {
        traffic: Traffic {
            msgs_per_group: 300,
            interval: SimDuration::from_millis(2),
        },
        ..p
    });
    let mut table = Table::new(&[
        "n",
        "mode",
        "delivered msg/s",
        "offered msg/s",
        "efficiency",
        "wire msgs",
    ]);
    for r in &results {
        // Offered: 2n groups, 500 msg/s each, 3 remote receivers.
        let offered = (2 * r.groups_per_set) as f64 * 500.0 * 3.0;
        table.row(&[
            r.groups_per_set.to_string(),
            r.mode.label().to_owned(),
            format!("{:.0}", r.throughput_msgs_per_sec),
            format!("{offered:.0}"),
            format!("{:.2}", r.throughput_msgs_per_sec / offered),
            r.wire_msgs.to_string(),
        ]);
    }
    for n in GROUP_COUNTS {
        let no_lwg = cell(&results, n, ServiceMode::NoLwg).throughput_msgs_per_sec;
        let dynm = cell(&results, n, ServiceMode::Dynamic).throughput_msgs_per_sec;
        assert!(
            (dynm / no_lwg - 1.0).abs() <= 0.02,
            "Fig. 2: at n = {n} dynamic delivers {dynm:.0} msg/s, not within 2 % of no-lwg's {no_lwg:.0}"
        );
    }
    page(
        "Figure 2 — throughput vs. number of groups per set\n\
         (saturating senders: 500 msg/s per group)",
        &table,
        "",
    )
}

/// `fig2_recovery`. Asserts the resource-sharing shape on the view-change
/// part: from n = 1 to 16 no-LWG grows at least 2×, dynamic at most 1.3×.
pub(crate) fn recovery() -> Output {
    let results = sweep(44, |p| TwoSetsParams {
        crash_member: true,
        // Recovery is measured on an otherwise idle system. Protocol
        // processing is priced at 1 ms/message (SPARC-10-era stacks), so
        // the n independent flushes of the no-LWG baseline queue visibly
        // while the LWG modes run a single shared flush.
        proc_time: SimDuration::from_millis(1),
        traffic: Traffic {
            msgs_per_group: 5,
            interval: SimDuration::from_millis(50),
        },
        ..p
    });
    // The failure detector needs `suspect_timeout` before any protocol
    // runs; the view-change column subtracts it to expose the part that
    // scales.
    let detect_us = HwgConfig::default().suspect_timeout.as_micros();
    let view_change_ms = |r: &TwoSetsResult| {
        r.recovery
            .map(|d| d.as_micros().saturating_sub(detect_us) as f64 / 1e3)
    };
    let mut table = Table::new(&["n", "mode", "recovery", "view-change", "hwgs/node"]);
    for r in &results {
        table.row(&[
            r.groups_per_set.to_string(),
            r.mode.label().to_owned(),
            r.recovery
                .map_or_else(|| "DID NOT RECOVER".to_owned(), |d| format!("{d}")),
            view_change_ms(r).map_or_else(|| "-".to_owned(), |ms| format!("{ms:.1}ms")),
            format!("{:.1}", r.avg_hwgs_per_node),
        ]);
    }
    let growth = |mode| {
        let at = |n| view_change_ms(cell(&results, n, mode)).expect("recovered");
        at(16) / at(1)
    };
    let (no_lwg, dynm) = (growth(ServiceMode::NoLwg), growth(ServiceMode::Dynamic));
    assert!(
        no_lwg >= 2.0 && dynm <= 1.3,
        "Fig. 2: view change grows {no_lwg:.2}x (no-lwg, want >= 2) and {dynm:.2}x (dynamic, want <= 1.3) from n = 1 to 16"
    );
    page(
        "Figure 2 — crash-recovery time vs. number of groups per set\n\
         (crash one member of set A; time until every group at every\n \
         survivor installs a view excluding it)",
        &table,
        "",
    )
}
